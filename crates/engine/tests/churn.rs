//! Live churn through the engine's update plane: rule updates from the
//! incremental compiler are applied to a running multi-core engine
//! mid-trace. Invariants checked here, per worker count:
//!
//! * **zero loss** — every submitted packet produces exactly one
//!   decision, in submission order, across every generation swap;
//! * **post-quiescence identity** — once an update has been published
//!   and the engine has quiesced, decisions are bit-identical to a
//!   sequential executor running the same cumulative rule set;
//! * **no half-applied rule sets** — even without quiescing, every
//!   mid-churn decision matches exactly the generation its packet was
//!   submitted under: never a mixture, an older or a newer one;
//! * **state carry-over** — `@query_counter` registers survive both
//!   delta updates and full-rebuild swaps.

use std::sync::Arc;

use camus_core::{Compiler, CompilerOptions, IncrementalCompiler, UpdateReport};
use camus_engine::{shard, Engine, EngineConfig, ShardFn};
use camus_itch::Side;
use camus_lang::ast::Rule;
use camus_lang::{parse_program, parse_spec};
use camus_pipeline::Pipeline;
use camus_workload::{
    itch_churn, ports, random_add_orders, raw_add_order, ChurnConfig, EpochOracle, ItchSubsConfig,
};

/// A raw add-order for `symbol` at `price` (one share, a buy).
fn order(symbol: &str, price: u32) -> Vec<u8> {
    raw_add_order(symbol, Side::Buy, 1, price)
}

/// Shards raw add-order packets by the stock field (bytes 24..32), the
/// same per-symbol affinity `itch_symbol_shard` gives framed feeds.
fn raw_stock_shard() -> ShardFn {
    Arc::new(|p: &[u8]| shard::mix64(shard::fnv1a(&p[24..32])))
}

fn itch_spec() -> camus_lang::spec::Spec {
    parse_spec(camus_lang::spec::ITCH_SPEC).unwrap()
}

/// The shared churn workload: an ITCH pool (doubling as the session
/// alphabet) and a 4-step schedule with adds and removals.
fn workload() -> (Vec<Rule>, camus_workload::ChurnSchedule) {
    let itch = ItchSubsConfig {
        symbols: 8,
        price_range: 500,
        hosts: 16,
        ..Default::default()
    };
    let churn = ChurnConfig {
        initial_rules: 12,
        steps: 4,
        adds_per_step: 3,
        removes_per_step: 2,
        seed: 0xE1,
        ..Default::default()
    };
    itch_churn(&itch, &churn)
}

/// Phased churn with quiescence between generations: after each
/// `quiesce` + `apply_update`, the engine's decisions must be
/// bit-identical to a fresh full compile of the cumulative rule set
/// — for 1, 2 and 8 workers.
#[test]
fn churn_decisions_match_sequential_per_phase_for_any_worker_count() {
    let (pool, schedule) = workload();
    let spec = itch_spec();
    let opts = CompilerOptions::raw();
    let full_compiler = Compiler::new(spec.clone(), opts.clone()).unwrap();

    // One packet phase per generation (initial + one per step).
    let phases: Vec<Vec<Vec<u8>>> = (0..=schedule.steps.len())
        .map(|k| random_add_orders(48, 8, 600, 0xFACE + k as u64))
        .collect();

    for workers in [1usize, 2, 8] {
        let mut oracle = EpochOracle::new(&spec, |r| full_compiler.compile(r).unwrap().pipeline);
        let mut session = IncrementalCompiler::new(spec.clone(), &opts, &pool).unwrap();
        let initial = session.install(&schedule.initial).unwrap();
        oracle.publish(&schedule.initial);
        let cfg = EngineConfig {
            workers,
            batch_packets: 8,
            record_decisions: true,
            ..Default::default()
        };
        let mut engine = Engine::start(&initial.pipeline, &cfg, raw_stock_shard());

        let mut now = 0u64;
        for (k, pkts) in phases.iter().enumerate() {
            if k > 0 {
                let step = &schedule.steps[k - 1];
                engine.quiesce().unwrap();
                let report = session.update(&step.add, &step.remove).unwrap();
                engine.apply_update(&report).unwrap();
                oracle.publish(&schedule.rules_after(k));
            }
            for p in pkts {
                now += 1;
                oracle.submit(p, now);
                engine.submit(p, now);
            }
        }
        let submitted = engine.submitted();
        let report = engine.finish();
        assert!(
            report.error.is_none(),
            "workers={workers}: {:?}",
            report.error
        );

        // Zero loss: one decision per packet, in submission order.
        assert_eq!(
            report.decisions.len() as u64,
            submitted,
            "workers={workers}"
        );
        assert_eq!(report.updates.published, schedule.steps.len() as u64);
        let decisions = report.decisions_in_submit_order();
        assert_eq!(oracle.check(&decisions), 0);
    }
}

/// Updates injected mid-trace with **no** quiescing: nothing is
/// dropped, and every decision matches exactly the generation its
/// packet was submitted under — partial batches pending at an update
/// included. No packet is ever routed by a half-applied, an older or a
/// newer rule set.
#[test]
fn unquiesced_churn_never_shows_a_half_applied_rule_set() {
    let (pool, schedule) = workload();
    let spec = itch_spec();
    let opts = CompilerOptions::raw();
    let full_compiler = Compiler::new(spec.clone(), opts.clone()).unwrap();

    let mut session = IncrementalCompiler::new(spec.clone(), &opts, &pool).unwrap();
    let initial = session.install(&schedule.initial).unwrap();
    let mut oracle = EpochOracle::new(&spec, |r| full_compiler.compile(r).unwrap().pipeline);
    oracle.publish(&schedule.initial);
    let cfg = EngineConfig {
        workers: 4,
        batch_packets: 4,
        record_decisions: true,
        ..Default::default()
    };
    let mut engine = Engine::start(&initial.pipeline, &cfg, raw_stock_shard());

    let churn_pkts = random_add_orders(160, 8, 600, 0xBEEF);
    let tail_pkts = random_add_orders(64, 8, 600, 0xCAFE);
    let mut now = 0u64;
    let mut submit = |engine: &mut Engine, oracle: &mut EpochOracle, pkts: &[Vec<u8>]| {
        for p in pkts {
            now += 1;
            oracle.submit(p, now);
            engine.submit(p, now);
        }
    };

    // Interleave: a burst of packets, then an update, with no
    // quiescence anywhere in between.
    let burst = churn_pkts.len() / (schedule.steps.len() + 1);
    for (k, step) in schedule.steps.iter().enumerate() {
        submit(
            &mut engine,
            &mut oracle,
            &churn_pkts[k * burst..(k + 1) * burst],
        );
        let report = session.update(&step.add, &step.remove).unwrap();
        engine.apply_update(&report).unwrap();
        oracle.publish(&schedule.rules_after(k + 1));
    }
    let fed = schedule.steps.len() * burst;
    submit(&mut engine, &mut oracle, &churn_pkts[fed..]);

    // The tail runs at the newest generation, still undrained.
    submit(&mut engine, &mut oracle, &tail_pkts);
    let submitted = engine.submitted();
    let report = engine.finish();
    assert!(report.error.is_none(), "{:?}", report.error);
    assert_eq!(report.decisions.len() as u64, submitted);
    let decisions = report.decisions_in_submit_order();
    assert_eq!(oracle.check(&decisions), 0);
}

/// Installs `report`'s program on a sequential reference by hand: the
/// new tables, the old register file carried over.
fn install_on_reference(reference: &mut Pipeline, report: &UpdateReport) {
    let old = std::mem::take(&mut reference.registers);
    *reference = report.pipeline.clone();
    reference.registers.carry_from(&old);
    reference.prepare();
}

/// `@query_counter` state survives updates: a delta add, a delta
/// removal and then a full-rebuild update (an out-of-alphabet add) are
/// applied mid-stream, and the engine's decisions stay bit-identical to
/// a sequential executor that installs the same `UpdateReport`s at the
/// same packet boundaries. A reset counter would visibly diverge (the
/// threshold rule would stop firing).
#[test]
fn query_counter_state_survives_delta_and_full_rebuild_updates() {
    let spec = itch_spec();
    let opts = CompilerOptions::raw();
    let alphabet = parse_program(
        "stock == GOOGL : fwd(1); my_counter <- incr()\n\
         stock == GOOGL and my_counter > 3 : fwd(100)\n\
         stock == MSFT : fwd(2)",
    )
    .unwrap();
    let mut session = IncrementalCompiler::new(spec, &opts, &alphabet).unwrap();
    let initial = session.install(&alphabet[..2]).unwrap();

    let cfg = EngineConfig {
        workers: 1,
        batch_packets: 2,
        record_decisions: true,
        ..Default::default()
    };
    let mut engine = Engine::start(&initial.pipeline, &cfg, raw_stock_shard());
    let mut sequential = initial.pipeline.clone();
    let mut seq_decisions = Vec::new();

    // Timestamps stay at 0 so the 100 µs counter window never rolls.
    let feed = |engine: &mut Engine, seq: &mut Pipeline, out: &mut Vec<_>, pkts: &[Vec<u8>]| {
        for p in pkts {
            engine.submit(p, 0);
            out.push(seq.process(p, 0).unwrap());
        }
    };
    let mixed = |n: usize, other: &str| -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| order(if i % 2 == 0 { "GOOGL" } else { other }, 10))
            .collect()
    };
    let googl: Vec<Vec<u8>> = (0..3).map(|_| order("GOOGL", 10)).collect();
    feed(&mut engine, &mut sequential, &mut seq_decisions, &googl);

    // Delta update (in-alphabet add): counter must keep its value 3.
    engine.quiesce().unwrap();
    let msft = parse_program("stock == MSFT : fwd(2)").unwrap();
    let delta: UpdateReport = session.update(&msft, &[]).unwrap();
    assert!(!delta.full_rebuild, "in-alphabet add should be a delta");
    install_on_reference(&mut sequential, &delta);
    engine.apply_update(&delta).unwrap();
    feed(
        &mut engine,
        &mut sequential,
        &mut seq_decisions,
        &mixed(4, "MSFT"),
    );

    // Delta removal: the window survives it too.
    engine.quiesce().unwrap();
    let removal = session.update(&[], &msft).unwrap();
    assert!(
        !removal.full_rebuild,
        "in-alphabet removal should be a delta"
    );
    install_on_reference(&mut sequential, &removal);
    engine.apply_update(&removal).unwrap();
    feed(
        &mut engine,
        &mut sequential,
        &mut seq_decisions,
        &mixed(2, "MSFT"),
    );

    // Full rebuild (AAPL is outside the alphabet): the counter must
    // survive the wholesale swap (`Registers::carry_from`).
    engine.quiesce().unwrap();
    let rebuild = session
        .update(&parse_program("stock == AAPL : fwd(4)").unwrap(), &[])
        .unwrap();
    assert!(rebuild.full_rebuild, "a new predicate forces a rebuild");
    install_on_reference(&mut sequential, &rebuild);
    engine.apply_update(&rebuild).unwrap();
    feed(
        &mut engine,
        &mut sequential,
        &mut seq_decisions,
        &mixed(3, "AAPL"),
    );

    let report = engine.finish();
    assert!(report.error.is_none(), "{:?}", report.error);
    assert_eq!(report.decisions.len(), seq_decisions.len());
    for (i, (got, want)) in report.decisions.iter().zip(&seq_decisions).enumerate() {
        assert_eq!(got, want, "packet {i}");
    }
    assert_eq!(report.updates.published, 3);

    // The threshold rule did fire after the updates — i.e. the counter
    // genuinely carried over instead of restarting from zero.
    let threshold_hits = report
        .decisions
        .iter()
        .filter(|d| d.ports.iter().any(|p| p.0 == 100))
        .count();
    assert!(
        threshold_hits > 0,
        "counter state was lost across the swaps"
    );
}

/// An update whose predicates are outside the session alphabet (a new
/// field constant *and* a never-allocated state slot) takes the
/// `NeedsFullRecompile` route end to end: the report comes back as a
/// full rebuild and the engine applies it as a wholesale swap.
#[test]
fn out_of_alphabet_update_full_swaps_through_the_engine() {
    let spec = itch_spec();
    let opts = CompilerOptions::raw();
    let alphabet = parse_program("stock == GOOGL : fwd(1)").unwrap();
    let mut session = IncrementalCompiler::new(spec.clone(), &opts, &alphabet).unwrap();
    let initial = session.install(&alphabet).unwrap();

    let cfg = EngineConfig {
        workers: 2,
        batch_packets: 4,
        record_decisions: true,
        ..Default::default()
    };
    let mut engine = Engine::start(&initial.pipeline, &cfg, raw_stock_shard());
    engine.submit(&order("GOOGL", 10), 0);
    engine.submit(&order("MSFT", 10), 0);
    engine.quiesce().unwrap();

    // `stock == MSFT` is a new predicate and `my_counter` a new state
    // slot — both unknown to the alphabet, so the delta path must
    // refuse and the session must fall back to a full recompile.
    let update = parse_program(
        "stock == MSFT : fwd(2); my_counter <- incr()\n\
         stock == MSFT and my_counter > 1 : fwd(200)",
    )
    .unwrap();
    let report = session.update(&update, &[]).unwrap();
    assert!(report.full_rebuild, "new predicates require a rebuild");
    assert_eq!(report.rules_added, 2);
    // A candidate left staged by someone else does not survive an
    // update: the update is what gets published, nothing stays staged.
    engine.stage(initial.pipeline.clone()).unwrap();
    engine.apply_update(&report).unwrap();
    assert_eq!(engine.generation(), 1);
    assert!(!engine.commit(), "the update consumed the staged slot");

    for _ in 0..3 {
        engine.submit(&order("MSFT", 10), 0);
    }
    engine.submit(&order("GOOGL", 10), 0);
    let out = engine.finish();
    assert!(out.error.is_none(), "{:?}", out.error);
    assert_eq!(out.updates.published, 1);

    let ports: Vec<Vec<u16>> = out.decisions.iter().map(ports).collect();
    // Before: only the GOOGL rule exists. After: MSFT forwards, the
    // second MSFT packet onward trips the new counter threshold, and
    // GOOGL still works.
    assert_eq!(ports[0], vec![1]);
    assert_eq!(ports[1], Vec::<u16>::new());
    assert_eq!(ports[2], vec![2]);
    assert!(ports[3].contains(&2) && ports[4].contains(&2));
    assert!(
        ports[3].contains(&200) || ports[4].contains(&200),
        "new counter threshold never fired: {ports:?}"
    );
    assert_eq!(ports[5], vec![1]);
}
