//! Cross-crate integration: language → compiler → pipeline → wire
//! formats, on the full market-data encapsulation.

use camus::compiler::{Compiler, CompilerOptions};
use camus::itch::itch::{AddOrder, ItchMessage, Side};
use camus::itch::{build_feed_packet, FeedConfig};
use camus::lang::{parse_program, parse_spec};
use camus::pipeline::{DecisionBuf, PortId};
use camus::workload::{
    generate_itch_subscriptions, itch_subs::stock_symbol, EpochOracle, ItchSubsConfig,
};

fn compiled(rules: &str) -> camus::compiler::CompiledProgram {
    let spec = parse_spec(camus::lang::spec::ITCH_SPEC).unwrap();
    let compiler = Compiler::new(spec, CompilerOptions::default()).unwrap();
    compiler.compile(&parse_program(rules).unwrap()).unwrap()
}

fn feed(msgs: &[ItchMessage]) -> Vec<u8> {
    build_feed_packet(&FeedConfig::default(), 1, msgs)
}

#[test]
fn mold_feed_is_filtered_per_message() {
    let prog = compiled("stock == GOOGL : fwd(1)\nstock == MSFT : fwd(2)");
    let mut pipe = prog.pipeline;

    let pkt = feed(&[
        ItchMessage::AddOrder(AddOrder::new("GOOGL", Side::Buy, 100, 10)),
        ItchMessage::AddOrder(AddOrder::new("ORCL", Side::Buy, 100, 10)),
        ItchMessage::AddOrder(AddOrder::new("MSFT", Side::Sell, 100, 10)),
        ItchMessage::OrderDelete { order_ref: 7 }, // skipped by the parser
    ]);
    let d = pipe.process(&pkt, 0).unwrap();
    assert_eq!(d.ports, vec![PortId(1), PortId(2)]);
    assert_eq!(d.messages, 3, "delete messages are not add-orders");
    assert_eq!(d.matched_messages, 2);
}

#[test]
fn packet_with_only_noise_is_dropped() {
    let prog = compiled("stock == GOOGL : fwd(1)");
    let mut pipe = prog.pipeline;
    let pkt = feed(&[
        ItchMessage::OrderDelete { order_ref: 1 },
        ItchMessage::OrderCancel {
            order_ref: 2,
            shares: 5,
        },
    ]);
    let d = pipe.process(&pkt, 0).unwrap();
    assert!(d.dropped());
    assert_eq!(d.messages, 0);
}

#[test]
fn empty_feed_packet_is_dropped_not_an_error() {
    let prog = compiled("stock == GOOGL : fwd(1)");
    let mut pipe = prog.pipeline;
    let d = pipe.process(&feed(&[]), 0).unwrap();
    assert!(d.dropped());
}

#[test]
fn garbage_bytes_are_typed_drops_not_errors() {
    use camus::pipeline::ParseDrop;
    let prog = compiled("stock == GOOGL : fwd(1)");
    let mut pipe = prog.pipeline;
    // Truncated frame: underflow drop.
    let d = pipe.process(&[0u8; 10], 0).unwrap();
    assert!(d.dropped());
    assert_eq!(d.drop_reason, Some(ParseDrop::Underflow));
    // Non-IPv4 ethertype: no parser transition.
    let mut pkt = feed(&[ItchMessage::AddOrder(AddOrder::new(
        "GOOGL",
        Side::Buy,
        1,
        1,
    ))]);
    pkt[12] = 0x86;
    pkt[13] = 0xdd;
    let d = pipe.process(&pkt, 0).unwrap();
    assert!(d.dropped());
    assert_eq!(d.drop_reason, Some(ParseDrop::NoTransition));
    // Per-reason counters reconcile with the packet count.
    let s = &pipe.exec.stats;
    assert_eq!(s.malformed_packets(), 2);
    assert_eq!(s.packets, s.forwarded_packets + s.dropped_packets);
}

#[test]
fn multicast_merging_matches_paper_semantics() {
    // Figure 3's overlap: both rules match → fwd(1,2) as one group.
    let prog = compiled(
        "shares < 60 and stock == AAPL : fwd(1)\n\
         stock == AAPL : fwd(2)\n\
         shares > 100 and stock == MSFT : fwd(3)",
    );
    let mut pipe = prog.pipeline;
    let d = pipe
        .process(
            &feed(&[ItchMessage::AddOrder(AddOrder::new(
                "AAPL",
                Side::Buy,
                50,
                1,
            ))]),
            0,
        )
        .unwrap();
    assert_eq!(d.ports, vec![PortId(1), PortId(2)]);
    let d = pipe
        .process(
            &feed(&[ItchMessage::AddOrder(AddOrder::new(
                "AAPL",
                Side::Buy,
                80,
                1,
            ))]),
            0,
        )
        .unwrap();
    assert_eq!(d.ports, vec![PortId(2)]);
    let d = pipe
        .process(
            &feed(&[ItchMessage::AddOrder(AddOrder::new(
                "MSFT",
                Side::Buy,
                500,
                1,
            ))]),
            0,
        )
        .unwrap();
    assert_eq!(d.ports, vec![PortId(3)]);
}

#[test]
fn negation_and_disjunction_compile_and_run() {
    let prog = compiled("!(stock == GOOGL) and (price < 10 or price > 1000) : fwd(5)");
    let mut pipe = prog.pipeline;
    let cases = [
        ("MSFT", 5u32, true),
        ("MSFT", 500, false),
        ("MSFT", 2000, true),
        ("GOOGL", 5, false),
    ];
    for (sym, price, hits) in cases {
        let d = pipe
            .process(
                &feed(&[ItchMessage::AddOrder(AddOrder::new(
                    sym,
                    Side::Buy,
                    1,
                    price,
                ))]),
                0,
            )
            .unwrap();
        assert_eq!(!d.dropped(), hits, "{sym} @ {price}");
    }
}

#[test]
fn recompilation_updates_behaviour_without_new_image() {
    // Dynamic compilation step only: same spec, new rules, fresh tables.
    let spec = parse_spec(camus::lang::spec::ITCH_SPEC).unwrap();
    let compiler = Compiler::new(spec, CompilerOptions::default()).unwrap();
    let gen1 = compiler
        .compile(&parse_program("stock == GOOGL : fwd(1)").unwrap())
        .unwrap();
    let gen2 = compiler
        .compile(&parse_program("stock == GOOGL : fwd(9)").unwrap())
        .unwrap();
    // The static halves agree (same parser program).
    assert_eq!(gen1.pipeline.parser, gen2.pipeline.parser);

    let pkt = feed(&[ItchMessage::AddOrder(AddOrder::new(
        "GOOGL",
        Side::Buy,
        1,
        1,
    ))]);
    let mut p1 = gen1.pipeline;
    let mut p2 = gen2.pipeline;
    assert_eq!(p1.process(&pkt, 0).unwrap().ports, vec![PortId(1)]);
    assert_eq!(p2.process(&pkt, 0).unwrap().ports, vec![PortId(9)]);
}

#[test]
fn placement_and_artifacts_ship_with_the_program() {
    let prog = compiled("stock == GOOGL and price > 100 : fwd(1)");
    assert!(prog.placement.fits());
    assert!(prog.p4_source.contains("table t_add_order_stock"));
    assert!(prog.control_plane().lines().count() >= prog.stats.total_entries);
    assert!(prog.bdd.validate().is_ok());
    // DOT export for docs/debugging.
    let dot = prog.bdd.to_dot("e2e");
    assert!(dot.contains("digraph"));
}

#[test]
fn netcache_example_routes_on_keys_and_actually_hits_the_decision_cache() {
    // The `netcache_routing` example's program, run through the engine
    // with its decision cache armed on the content identifier. Every
    // rule matches only `req.key`, so the program is cacheable; a
    // skewed trace must produce real cache hits, the hot-key pin must
    // mirror to the cache port, and the generation swap must
    // invalidate stale cached decisions.
    use camus::compiler::IncrementalCompiler;
    use camus::engine::{Engine, EngineConfig};
    use std::sync::Arc;

    let spec = parse_spec(
        "header_type kv_req_t { fields { opcode: 8; key: 64; client: 32; } }\n\
         header kv_req_t req;\n\
         @query_field_exact(req.opcode)\n\
         @query_field(req.key)",
    )
    .unwrap();
    let alphabet = parse_program(
        "key < 1000000 : fwd(10)\n\
         key >= 1000000 : fwd(11)\n\
         key == 42 : fwd(30)",
    )
    .unwrap();
    let mut session = IncrementalCompiler::new(spec, &CompilerOptions::raw(), &alphabet).unwrap();
    let r1 = session
        .install(&parse_program("key < 1000000 : fwd(10)\nkey >= 1000000 : fwd(11)").unwrap())
        .unwrap();

    let packet = |key: u64| {
        let mut b = vec![1u8];
        b.extend_from_slice(&key.to_be_bytes());
        b.extend_from_slice(&0u32.to_be_bytes());
        b
    };
    let cfg = EngineConfig {
        workers: 1,
        batch_packets: 8,
        record_decisions: true,
        decision_cache: Some("req.key".into()),
        ..EngineConfig::default()
    };
    let mut engine = Engine::start(
        &r1.pipeline,
        &cfg,
        Arc::new(|pkt: &[u8]| {
            let mut k = [0u8; 8];
            k.copy_from_slice(&pkt[1..9]);
            u64::from_be_bytes(k)
        }),
    );
    for _ in 0..50 {
        engine.submit(&packet(42), 0);
        engine.submit(&packet(7_000_000), 0);
    }
    engine.quiesce().unwrap();

    // Pin key 42 hot; the swap must invalidate the cached [10].
    let r2 = session
        .install(&parse_program("key == 42 : fwd(30)").unwrap())
        .unwrap();
    engine.apply_update(&r2).unwrap();
    for _ in 0..50 {
        engine.submit(&packet(42), 0);
    }

    let report = engine.finish();
    assert!(report.error.is_none(), "{:?}", report.error);
    assert!(
        report.hotpath.cache_hits > 0,
        "cacheable key-only program must hit: {:?}",
        report.hotpath
    );
    assert_eq!(
        report.hotpath.cache_hits + report.hotpath.cache_misses,
        report.stats.messages,
        "every message consults the cache"
    );
    let ports = |i: usize| -> Vec<u16> { report.decisions[i].ports.iter().map(|p| p.0).collect() };
    assert_eq!(ports(0), vec![10], "gen1: key 42 partition route");
    assert_eq!(ports(1), vec![11], "gen1: cold key partition route");
    for i in 100..150 {
        assert_eq!(
            ports(i),
            vec![10, 30],
            "gen2: pinned key mirrors to cache port"
        );
    }
}

/// The batch path decides a whole batch in one wave — every table
/// across every message before the next table. The oracle judges each
/// decision against a fresh compile deciding the packet alone and
/// against the naive AST interpreter: 1–4-message frames, noise
/// messages, truncated and garbage frames, in batches of 64 — price
/// subscriptions with the decision cache off, symbol-only ones with it
/// armed on `stock` (probed in the parse phase, its misses evaluated in
/// the same whole-batch wave).
#[test]
fn one_wave_over_a_batch_agrees_with_the_oracle() {
    let spec = parse_spec(camus::lang::spec::ITCH_SPEC).unwrap();
    let priced = generate_itch_subscriptions(&ItchSubsConfig {
        subscriptions: 200,
        symbols: 12,
        hosts: 16,
        ..ItchSubsConfig::default()
    });
    // Symbol-only subscriptions: the program the cache can arm on.
    let by_symbol: String = (0..24)
        .map(|i| format!("stock == {} : fwd({})\n", stock_symbol(i % 12), 1 + i % 5))
        .collect();
    let by_symbol = parse_program(&by_symbol).unwrap();
    let compiler = Compiler::new(spec.clone(), CompilerOptions::default()).unwrap();
    let mut rng = 0x2545_f491_4f6c_dd1du64;
    let mut draw = |n: u64| {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng % n
    };
    let frames: Vec<Vec<u8>> = (0..640)
        .map(|i| {
            let msgs: Vec<ItchMessage> = (0..1 + draw(4))
                .map(|_| match draw(6) {
                    0 => ItchMessage::OrderDelete { order_ref: 3 },
                    _ => ItchMessage::AddOrder(AddOrder::new(
                        &stock_symbol(draw(14) as usize),
                        Side::Buy,
                        1,
                        draw(1000) as u32,
                    )),
                })
                .collect();
            let frame = feed(&msgs);
            match i % 50 {
                7 => frame[..30].to_vec(),
                19 => vec![0xAB; 9],
                _ => frame,
            }
        })
        .collect();
    for (rules, cache) in [(&priced, false), (&by_symbol, true)] {
        let mut program = compiler.compile(rules).unwrap().pipeline;
        if cache {
            let stock = program.layout.get("add_order.stock").unwrap();
            assert!(program.enable_decision_cache(stock, 6));
        }
        let mut ctx = program.new_shard_ctx();
        let mut oracle = EpochOracle::new(&spec, |r| compiler.compile(r).unwrap().pipeline);
        oracle.publish(rules);
        let mut decisions = Vec::new();
        let mut out = DecisionBuf::default();
        for batch in frames.chunks(64) {
            out.clear();
            let packets = batch.iter().map(|f| (f.as_slice(), 0));
            program
                .process_batch_shared(&mut ctx, packets, &mut out)
                .unwrap();
            for f in batch {
                oracle.submit(f, 0);
            }
            decisions.extend(out.iter().cloned());
        }
        assert!(decisions.iter().any(|d| d.malformed()));
        assert!(decisions.iter().any(|d| d.ports.len() > 1));
        let slots: Vec<_> = decisions.iter().map(Some).collect();
        assert_eq!(oracle.check(&slots), 0, "cache={cache}");
        assert_eq!(ctx.exec.hotpath.cache_hits > 0, cache);
    }
}
