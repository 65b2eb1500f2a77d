//! `Pipeline::process_batch_shared` must be decision-identical to
//! calling `Pipeline::process` per packet — including stateful programs
//! where register bindings feed match keys and table actions update
//! the registers back (the `@query_counter` shape).

use camus_pipeline::parser::{Extract, ParseState, ParserSpec, StateId, Transition};
use camus_pipeline::pipeline::StateBinding;
use camus_pipeline::register::{AggKind, RegisterFile};
use camus_pipeline::table::RegOp;
use camus_pipeline::{
    ActionOp, DecisionBuf, Entry, ExecState, Key, MatchKind, MatchValue, MulticastTable, ParseDrop,
    PhvLayout, Pipeline, PortId, Table,
};

/// A multi-message, stateful pipeline built by hand:
///
/// * packets are `[count, sym0, sym1, ...]` — a one-byte count followed
///   by one-byte "messages", each emitted as its own PHV;
/// * symbols 1..=4 forward to their own port and increment a windowed
///   counter (slot 0);
/// * once the counter for the window exceeds 3, symbol 1 additionally
///   forwards to port 99 (a counter-threshold rule);
/// * a second, never-written register slot is bound as a pseudo-field
///   to exercise the hoisted-binding path.
fn stateful_pipeline() -> Pipeline {
    let mut layout = PhvLayout::new();
    let count = layout.add("count", 8);
    let sym = layout.add("sym", 8);
    let cnt = layout.add("cnt", 32);
    let idle = layout.add("idle", 32);

    let parser = ParserSpec::new(
        vec![
            ParseState {
                name: "hdr".into(),
                extracts: vec![Extract {
                    dst: count,
                    bit_offset: 0,
                    bits: 8,
                }],
                advance_bits: 8,
                advance_bytes_from: None,
                emit: false,
                next: Transition::SelectRemaining { more: StateId(1) },
            },
            ParseState {
                name: "msg".into(),
                extracts: vec![Extract {
                    dst: sym,
                    bit_offset: 0,
                    bits: 8,
                }],
                advance_bits: 8,
                advance_bytes_from: None,
                emit: true,
                next: Transition::SelectRemaining { more: StateId(1) },
            },
        ],
        StateId(0),
    );

    let mut registers = RegisterFile::new();
    let hot = registers.allocate(1_000); // written by the filter table
    let cold = registers.allocate(0); // never written: hoistable

    let mut filter = Table::new(
        "filter",
        vec![Key {
            field: sym,
            kind: MatchKind::Exact,
            bits: 8,
        }],
        vec![],
    )
    .unwrap();
    for b in 1u64..=4 {
        filter
            .add_entry(Entry {
                priority: 0,
                matches: vec![MatchValue::Exact(b)],
                ops: vec![
                    ActionOp::Forward(PortId(b as u16)),
                    ActionOp::Register {
                        slot: hot,
                        op: RegOp::Increment,
                    },
                ],
            })
            .unwrap();
    }

    let mut thresh = Table::new(
        "thresh",
        vec![
            Key {
                field: sym,
                kind: MatchKind::Exact,
                bits: 8,
            },
            Key {
                field: cnt,
                kind: MatchKind::Range,
                bits: 32,
            },
        ],
        vec![],
    )
    .unwrap();
    thresh
        .add_entry(Entry {
            priority: 0,
            matches: vec![
                MatchValue::Exact(1),
                MatchValue::Range {
                    lo: 4,
                    hi: u64::from(u32::MAX),
                },
            ],
            ops: vec![ActionOp::Forward(PortId(99))],
        })
        .unwrap();

    Pipeline {
        layout,
        parser,
        tables: vec![filter, thresh],
        mcast: MulticastTable::new(),
        registers,
        state_bindings: vec![
            StateBinding {
                dst: cnt,
                slot: hot,
                agg: AggKind::Count,
            },
            StateBinding {
                dst: idle,
                slot: cold,
                agg: AggKind::Count,
            },
        ],
        init_fields: vec![],
        exec: ExecState::default(),
    }
}

/// Deterministic trace: mixed symbols, varying message counts, strictly
/// increasing timestamps (so the counter window tumbles mid-trace).
fn trace(packets: usize) -> Vec<(Vec<u8>, u64)> {
    let mut rng: u64 = 0x9e3779b97f4a7c15;
    let mut step = move || {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        rng >> 33
    };
    let mut out = Vec::with_capacity(packets);
    let mut now_us = 0u64;
    for _ in 0..packets {
        let msgs = 1 + (step() % 3) as usize;
        let mut pkt = vec![msgs as u8];
        for _ in 0..msgs {
            pkt.push((step() % 6) as u8); // 0 and 5 miss, 1..=4 hit
        }
        now_us += 57; // tumbles the 1000 µs window every ~18 packets
        out.push((pkt, now_us));
    }
    out
}

#[test]
fn batch_equals_per_packet_processing() {
    let pipeline = stateful_pipeline();
    let packets = trace(2_000);

    let mut seq = pipeline.clone();
    let expected: Vec<_> = packets
        .iter()
        .map(|(p, t)| seq.process(p, *t).unwrap())
        .collect();
    // The threshold rule must actually fire for this to test anything.
    assert!(
        expected.iter().any(|d| d.ports.contains(&PortId(99))),
        "trace never tripped the counter threshold"
    );

    let mut batched = pipeline.clone();
    let mut ctx = batched.new_shard_ctx();
    let mut out = DecisionBuf::default();
    batched
        .process_batch_shared(
            &mut ctx,
            packets.iter().map(|(p, t)| (p.as_slice(), *t)),
            &mut out,
        )
        .unwrap();

    assert_eq!(out.len(), expected.len());
    for (i, (got, want)) in out.iter().zip(&expected).enumerate() {
        assert_eq!(got, want, "packet {i}");
    }
    assert_eq!(seq.exec.stats, ctx.exec.stats);
}

#[test]
fn batch_equals_per_packet_across_chunked_batches() {
    // Same trace split into many small batches reusing one DecisionBuf:
    // recycled scratch must not leak state between batches.
    let pipeline = stateful_pipeline();
    let packets = trace(512);

    let mut seq = pipeline.clone();
    let expected: Vec<_> = packets
        .iter()
        .map(|(p, t)| seq.process(p, *t).unwrap())
        .collect();

    let mut batched = pipeline.clone();
    let mut ctx = batched.new_shard_ctx();
    let mut out = DecisionBuf::default();
    let mut got = Vec::new();
    for chunk in packets.chunks(17) {
        out.clear();
        batched
            .process_batch_shared(
                &mut ctx,
                chunk.iter().map(|(p, t)| (p.as_slice(), *t)),
                &mut out,
            )
            .unwrap();
        got.extend(out.iter().cloned());
    }
    assert_eq!(got, expected);
}

#[test]
fn malformed_packet_mid_batch_is_a_typed_drop() {
    let pipeline = stateful_pipeline();
    let mut batched = pipeline.clone();
    let mut ctx = batched.new_shard_ctx();
    let mut out = DecisionBuf::default();
    // Second packet is empty: the parser's first extract underflows.
    // The parse path is total — the batch completes with a typed drop
    // decision in the malformed packet's slot, and the packets around
    // it are unaffected.
    let packets: Vec<(Vec<u8>, u64)> = vec![(vec![1, 1], 10), (vec![], 20), (vec![1, 2], 30)];
    batched
        .process_batch_shared(
            &mut ctx,
            packets.iter().map(|(p, t)| (p.as_slice(), *t)),
            &mut out,
        )
        .unwrap();
    assert_eq!(out.len(), 3);
    let slots = out.as_slice();
    assert_eq!(slots[0].ports, vec![PortId(1)]);
    assert_eq!(slots[1].drop_reason, Some(ParseDrop::Underflow));
    assert!(slots[1].dropped());
    assert!(slots[2].drop_reason.is_none());
    let s = &ctx.exec.stats;
    assert_eq!(s.packets, 3);
    assert_eq!(s.drop_underflow, 1);
    assert_eq!(s.packets, s.forwarded_packets + s.dropped_packets);
}
