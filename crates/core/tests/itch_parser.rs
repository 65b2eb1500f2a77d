//! The compiled ITCH parser against the hand-written ITCH decoder.
//!
//! `Compiler::compile` turns the add-order spec into a parse graph
//! (Ethernet → IPv4 → UDP → MoldUDP64 → per-block type select) whose
//! emitted PHVs the match chain reads. `camus_itch::parse_feed_packet`
//! decodes the same frame field by field. Both must agree on every
//! add-order in every frame, and a truncated frame must either be a
//! typed underflow or yield a prefix of the full frame's add-orders.

use camus_core::{Compiler, CompilerOptions};
use camus_itch::itch::encode_stock;
use camus_itch::{build_feed_packet, parse_feed_packet, AddOrder, FeedConfig, ItchMessage, Side};
use camus_lang::{parse_program, parse_spec};
use camus_pipeline::error::PipelineError;
use camus_pipeline::phv::Phv;
use camus_pipeline::pipeline::Pipeline;

/// splitmix64: a seeded, dependency-free source of field values.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn itch_pipeline() -> Pipeline {
    let spec = parse_spec(camus_lang::spec::ITCH_SPEC).unwrap();
    let rules = parse_program("stock == GOOGL : fwd(1)").unwrap();
    Compiler::new(spec, CompilerOptions::default())
        .unwrap()
        .compile(&rules)
        .unwrap()
        .pipeline
}

fn random_add_order(rng: &mut Rng) -> AddOrder {
    const SYMBOLS: [&str; 6] = ["GOOGL", "MSFT", "A", "AAPL", "BRK.B", "TOOLONGSYM"];
    AddOrder {
        stock_locate: rng.next() as u16,
        tracking_number: rng.next() as u16,
        timestamp_ns: rng.next() & 0x0000_ffff_ffff_ffff,
        order_ref: rng.next(),
        side: if rng.below(2) == 0 {
            Side::Buy
        } else {
            Side::Sell
        },
        shares: rng.next() as u32,
        stock: encode_stock(SYMBOLS[rng.below(SYMBOLS.len() as u64) as usize]),
        price: rng.next() as u32,
    }
}

fn random_message(rng: &mut Rng) -> ItchMessage {
    match rng.below(6) {
        0 | 1 => ItchMessage::AddOrder(random_add_order(rng)),
        2 => ItchMessage::SystemEvent { code: b'O' },
        3 => ItchMessage::OrderExecuted {
            order_ref: rng.next(),
            shares: rng.next() as u32,
            match_no: rng.next(),
        },
        4 => ItchMessage::OrderDelete {
            order_ref: rng.next(),
        },
        _ => ItchMessage::Trade {
            order_ref: rng.next(),
            side: Side::Sell,
            shares: rng.next() as u32,
            stock: encode_stock("MSFT"),
            price: rng.next() as u32,
            match_no: rng.next(),
        },
    }
}

/// Every add-order field as the emitted PHV holds it, in spec order.
fn phv_fields(pipe: &Pipeline, phv: &Phv) -> Vec<u64> {
    [
        "msg_type",
        "stock_locate",
        "tracking_number",
        "timestamp",
        "order_ref",
        "buy_sell",
        "shares",
        "stock",
        "price",
    ]
    .iter()
    .map(|f| {
        let slot = pipe.layout.get(&format!("add_order.{f}")).unwrap();
        phv.get(slot).unwrap()
    })
    .collect()
}

/// The same fields as the decoder reads them.
fn decoded_fields(a: &AddOrder) -> Vec<u64> {
    vec![
        u64::from(b'A'),
        u64::from(a.stock_locate),
        u64::from(a.tracking_number),
        a.timestamp_ns,
        a.order_ref,
        u64::from(a.side.to_byte()),
        u64::from(a.shares),
        a.stock_u64(),
        u64::from(a.price),
    ]
}

fn decoder_add_orders(frame: &[u8]) -> Vec<Vec<u64>> {
    let (_, messages) = parse_feed_packet(frame).unwrap();
    messages
        .iter()
        .filter_map(|m| match m {
            ItchMessage::AddOrder(a) => Some(decoded_fields(a)),
            _ => None,
        })
        .collect()
}

/// A seeded set of frames: 1–4 messages each, add-orders mixed with
/// the other message types the decoder knows.
fn frames(count: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = Rng(seed);
    (0..count)
        .map(|i| {
            let n = 1 + rng.below(4) as usize;
            let messages: Vec<ItchMessage> = (0..n).map(|_| random_message(&mut rng)).collect();
            build_feed_packet(&FeedConfig::default(), i as u64, &messages)
        })
        .collect()
}

#[test]
fn compiled_parser_emits_the_decoders_add_orders() {
    let pipe = itch_pipeline();
    let mut add_orders = 0;
    for frame in frames(400, 7) {
        let want = decoder_add_orders(&frame);
        let got: Vec<Vec<u64>> = pipe
            .parser
            .parse(&pipe.layout, &frame)
            .unwrap()
            .iter()
            .map(|phv| phv_fields(&pipe, phv))
            .collect();
        assert_eq!(got, want, "frame {frame:02x?}");
        add_orders += want.len();
    }
    // The seed must actually exercise the comparison.
    assert!(add_orders > 200, "only {add_orders} add-orders");
}

#[test]
fn every_truncation_underflows_or_emits_a_prefix() {
    let pipe = itch_pipeline();
    let mut underflows = 0;
    let mut prefixes = 0;
    for frame in frames(40, 11) {
        let want = decoder_add_orders(&frame);
        for len in 0..frame.len() {
            match pipe.parser.parse(&pipe.layout, &frame[..len]) {
                Ok(msgs) => {
                    let got: Vec<Vec<u64>> = msgs.iter().map(|p| phv_fields(&pipe, p)).collect();
                    assert!(
                        want.starts_with(&got),
                        "len {len} of {frame:02x?}: {got:?} is not a prefix of {want:?}"
                    );
                    prefixes += 1;
                }
                Err(PipelineError::ParseUnderflow { .. }) => underflows += 1,
                Err(e) => panic!("len {len} of {frame:02x?}: {e:?}"),
            }
        }
    }
    assert!(underflows > 0 && prefixes > 0, "{underflows} / {prefixes}");
}
