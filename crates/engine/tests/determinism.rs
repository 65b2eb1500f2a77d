//! Multi-core determinism: the sharded engine must produce forwarding
//! decisions **bit-identical** to the sequential executor, for any
//! worker count — including stateful `@query_counter` rules whose
//! register reads feed match keys.
//!
//! The trace is ≥10k single-symbol ITCH packets (symbol sharding keeps
//! each counter's updates on one worker only when every message in a
//! packet shares the packet's shard key — which real ITCH conflation
//! also guarantees per stock). Timestamps increase monotonically so the
//! counters' tumbling windows roll many times mid-trace.

use camus_core::{Compiler, CompilerOptions};
use camus_engine::{run_trace, shard, EngineConfig};
use camus_itch::{build_feed_packet, AddOrder, FeedConfig, ItchMessage, Side};
use camus_lang::{parse_rule, parse_spec};
use camus_pipeline::ForwardDecision;
use camus_workload::itch_subs::stock_symbol;

const SYMBOLS: usize = 8;

/// ITCH add-order spec with one tumbling-window counter per symbol.
fn spec_src() -> String {
    let mut s = String::from(
        r#"
header_type itch_add_order_t {
    fields {
        msg_type: 8;
        stock_locate: 16;
        tracking_number: 16;
        timestamp: 48;
        order_ref: 64;
        buy_sell: 8;
        shares: 32;
        stock: 64;
        price: 32;
    }
}
header itch_add_order_t add_order;

@query_field(add_order.price)
@query_field_exact(add_order.stock)
"#,
    );
    for i in 0..SYMBOLS {
        s.push_str(&format!("@query_counter(c{i}, 700)\n"));
    }
    s
}

/// Per-symbol rules: plain forward, counter increment, and a
/// counter-threshold forward — the paper's Figure 2 shape.
fn rules() -> Vec<camus_lang::ast::Rule> {
    let mut out = Vec::new();
    for i in 0..SYMBOLS {
        let sym = stock_symbol(i);
        out.push(parse_rule(&format!("stock == {sym} : fwd({}); c{i} <- incr()", i + 1)).unwrap());
        out.push(parse_rule(&format!("stock == {sym} and c{i} > 3 : fwd({})", 100 + i)).unwrap());
        out.push(
            parse_rule(&format!(
                "stock == {sym} and price > 5000 : fwd({})",
                200 + i
            ))
            .unwrap(),
        );
    }
    out
}

/// ≥10k single-symbol feed packets, 1–3 add-orders each, with their
/// strictly increasing timestamps. Inline LCG so the trace is
/// reproducible byte-for-byte across runs.
fn build_trace(packets: usize) -> Vec<(Vec<u8>, u64)> {
    let cfg = FeedConfig::default();
    let mut rng: u64 = 0x243f6a8885a308d3;
    let mut step = move || {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        rng >> 33
    };
    let mut trace = Vec::with_capacity(packets);
    let mut now_us = 0u64;
    for seq in 0..packets {
        let sym = stock_symbol((step() % SYMBOLS as u64) as usize);
        let n_msgs = 1 + (step() % 3) as usize;
        let msgs: Vec<ItchMessage> = (0..n_msgs)
            .map(|_| {
                let side = if step() % 2 == 0 {
                    Side::Buy
                } else {
                    Side::Sell
                };
                let shares = 1 + (step() % 900) as u32;
                let price = 100 + (step() % 9_900) as u32;
                ItchMessage::AddOrder(AddOrder::new(&sym, side, shares, price))
            })
            .collect();
        now_us += 23 + step() % 40; // windows (700 µs) roll every ~16 pkts
        trace.push((build_feed_packet(&cfg, seq as u64 + 1, &msgs), now_us));
    }
    trace
}

fn replay(trace: &[(Vec<u8>, u64)]) -> impl Iterator<Item = (&[u8], u64)> {
    trace.iter().map(|(p, t)| (p.as_slice(), *t))
}

#[test]
fn engine_decisions_identical_to_sequential_for_any_worker_count() {
    let spec = parse_spec(&spec_src()).unwrap();
    let compiler = Compiler::new(spec, CompilerOptions::default()).unwrap();
    let prog = compiler.compile(&rules()).unwrap();

    let trace = build_trace(10_000);

    let mut sequential = prog.pipeline.clone();
    let expected: Vec<ForwardDecision> = replay(&trace)
        .map(|(p, t)| sequential.process(p, t).unwrap())
        .collect();

    // The trace must actually exercise the stateful threshold rules,
    // otherwise this test proves nothing about register sharding.
    let threshold_hits = expected
        .iter()
        .filter(|d| d.ports.iter().any(|p| (100..200).contains(&p.0)))
        .count();
    assert!(
        threshold_hits > 100,
        "only {threshold_hits} counter-threshold hits"
    );

    for workers in [1usize, 2, 8] {
        let cfg = EngineConfig {
            workers,
            batch_packets: 32,
            record_decisions: true,
            ..Default::default()
        };
        let report = run_trace(
            &prog.pipeline,
            &cfg,
            shard::itch_symbol_shard(),
            replay(&trace),
        );
        assert!(
            report.error.is_none(),
            "workers={workers}: {:?}",
            report.error
        );
        assert_eq!(report.decisions.len(), expected.len(), "workers={workers}");
        for (i, (got, want)) in report.decisions.iter().zip(&expected).enumerate() {
            assert_eq!(got, want, "workers={workers}, packet {i}");
        }
        // Aggregated counters match the sequential run too.
        assert_eq!(report.stats.packets, sequential.exec.stats.packets);
        assert_eq!(report.stats.messages, sequential.exec.stats.messages);
        assert_eq!(
            report.stats.matched_messages, sequential.exec.stats.matched_messages,
            "workers={workers}"
        );
    }
}

#[test]
fn sharding_spreads_symbols_across_workers() {
    // Sanity: with 8 symbols and 8 workers the trace should not land on
    // a single worker (the mixer must spread structured ASCII keys).
    let spec = parse_spec(&spec_src()).unwrap();
    let compiler = Compiler::new(spec, CompilerOptions::default()).unwrap();
    let prog = compiler.compile(&rules()).unwrap();
    let trace = build_trace(1_000);
    let cfg = EngineConfig {
        workers: 8,
        batch_packets: 32,
        ..Default::default()
    };
    let report = run_trace(
        &prog.pipeline,
        &cfg,
        shard::itch_symbol_shard(),
        replay(&trace),
    );
    let busy = report.per_worker.iter().filter(|s| s.packets > 0).count();
    assert!(busy >= 4, "only {busy}/8 workers saw traffic");
}
