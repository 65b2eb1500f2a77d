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
//!   mid-churn decision matches *some* published generation, never a
//!   mixture;
//! * **state carry-over** — `@query_counter` registers survive both
//!   delta updates and full-rebuild swaps.

use std::sync::Arc;

use camus_core::{Compiler, CompilerOptions, IncrementalCompiler, UpdateReport};
use camus_engine::{shard, Engine, EngineConfig, ShardFn};
use camus_lang::ast::Rule;
use camus_lang::{parse_program, parse_spec};
use camus_pipeline::Pipeline;
use camus_workload::itch_subs::stock_symbol;
use camus_workload::{itch_churn, ChurnConfig, ItchSubsConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A raw ITCH add-order message (the `Raw` encapsulation the
/// incremental-compiler tests use): msg_type, locate/tracking/
/// timestamp, order_ref, side, shares, stock, price.
fn packet(symbol: &str, shares: u32, price: u32) -> Vec<u8> {
    let mut m = vec![b'A'];
    m.extend_from_slice(&[0; 10]);
    m.extend_from_slice(&[0; 8]);
    m.push(b'B');
    m.extend_from_slice(&shares.to_be_bytes());
    let mut stock = [b' '; 8];
    for (i, c) in symbol.bytes().take(8).enumerate() {
        stock[i] = c;
    }
    m.extend_from_slice(&stock);
    m.extend_from_slice(&price.to_be_bytes());
    m
}

/// Shards raw add-order packets by the stock field (bytes 24..32), the
/// same per-symbol affinity `itch_symbol_shard` gives framed feeds.
fn raw_stock_shard() -> ShardFn {
    Arc::new(|p: &[u8]| shard::mix64(shard::fnv1a(&p[24..32])))
}

fn itch_spec() -> camus_lang::spec::Spec {
    parse_spec(camus_lang::spec::ITCH_SPEC).unwrap()
}

fn ports_of(pipe: &mut Pipeline, pkt: &[u8]) -> Vec<u16> {
    pipe.process(pkt, 0)
        .expect("packet parses")
        .ports
        .iter()
        .map(|p| p.0)
        .collect()
}

/// Random packets over the churn workload's symbol/price universe.
fn random_packets(n: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let sym = stock_symbol(rng.gen_range(0..8));
            packet(&sym, 1, rng.gen_range(0..600) as u32)
        })
        .collect()
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
/// bit-identical (as port sets) to a fresh full compile of the
/// cumulative rule set — for 1, 2 and 8 workers.
#[test]
fn churn_decisions_match_sequential_per_phase_for_any_worker_count() {
    let (pool, schedule) = workload();
    let spec = itch_spec();
    let opts = CompilerOptions::raw();
    let full_compiler = Compiler::new(spec.clone(), opts.clone()).unwrap();

    // One packet phase per generation (initial + one per step).
    let phases: Vec<Vec<Vec<u8>>> = (0..=schedule.steps.len())
        .map(|k| random_packets(48, 0xFACE + k as u64))
        .collect();

    // Oracle: a fresh full compile per generation (rules are
    // stateless, so each phase is independent).
    let oracle: Vec<Vec<Vec<u16>>> = phases
        .iter()
        .enumerate()
        .map(|(k, pkts)| {
            let mut pipe = full_compiler
                .compile(&schedule.rules_after(k))
                .unwrap()
                .pipeline;
            pkts.iter().map(|p| ports_of(&mut pipe, p)).collect()
        })
        .collect();

    for workers in [1usize, 2, 8] {
        let mut session = IncrementalCompiler::new(spec.clone(), &opts, &pool).unwrap();
        let initial = session.install(&schedule.initial).unwrap();
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
            }
            for p in pkts {
                now += 1;
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

        let mut i = 0;
        for (k, pkts) in phases.iter().enumerate() {
            for (j, _) in pkts.iter().enumerate() {
                let got: Vec<u16> = report.decisions[i].ports.iter().map(|p| p.0).collect();
                assert_eq!(
                    got, oracle[k][j],
                    "workers={workers}, phase {k}, packet {j}"
                );
                i += 1;
            }
        }
    }
}

/// Updates injected mid-trace with **no** quiescing: nothing is
/// dropped, and every decision matches one of the published
/// generations — no packet is ever routed by a half-applied rule set.
/// After the final quiesce, decisions match the final rule set
/// exactly.
#[test]
fn unquiesced_churn_never_shows_a_half_applied_rule_set() {
    let (pool, schedule) = workload();
    let spec = itch_spec();
    let opts = CompilerOptions::raw();
    let full_compiler = Compiler::new(spec.clone(), opts.clone()).unwrap();

    let mut session = IncrementalCompiler::new(spec.clone(), &opts, &pool).unwrap();
    let initial = session.install(&schedule.initial).unwrap();
    let cfg = EngineConfig {
        workers: 4,
        batch_packets: 4,
        record_decisions: true,
        ..Default::default()
    };
    let mut engine = Engine::start(&initial.pipeline, &cfg, raw_stock_shard());

    let churn_pkts = random_packets(160, 0xBEEF);
    let tail_pkts = random_packets(64, 0xCAFE);

    // Interleave: a burst of packets, then an update, with no
    // quiescence anywhere in between.
    let burst = churn_pkts.len() / (schedule.steps.len() + 1);
    let mut now = 0u64;
    let mut fed = 0;
    for step in &schedule.steps {
        for p in &churn_pkts[fed..fed + burst] {
            now += 1;
            engine.submit(p, now);
        }
        fed += burst;
        let report = session.update(&step.add, &step.remove).unwrap();
        engine.apply_update(&report).unwrap();
    }
    for p in &churn_pkts[fed..] {
        now += 1;
        engine.submit(p, now);
    }

    // Quiesce: every packet above is decided, and all workers have
    // seen the final generation by their next batch. The tail must
    // then follow the final rules exactly.
    engine.quiesce().unwrap();
    for p in &tail_pkts {
        now += 1;
        engine.submit(p, now);
    }
    let submitted = engine.submitted();
    let report = engine.finish();
    assert!(report.error.is_none(), "{:?}", report.error);
    assert_eq!(report.decisions.len() as u64, submitted);

    // Per-generation oracles for the churn segment.
    let mut generations: Vec<Pipeline> = (0..=schedule.steps.len())
        .map(|k| {
            full_compiler
                .compile(&schedule.rules_after(k))
                .unwrap()
                .pipeline
        })
        .collect();
    for (i, p) in churn_pkts.iter().enumerate() {
        let got: Vec<u16> = report.decisions[i].ports.iter().map(|p| p.0).collect();
        let candidates: Vec<Vec<u16>> = generations
            .iter_mut()
            .map(|pipe| ports_of(pipe, p))
            .collect();
        assert!(
            candidates.contains(&got),
            "packet {i}: decision {got:?} matches no published generation {candidates:?}"
        );
    }
    let final_oracle = generations.last_mut().unwrap();
    for (j, p) in tail_pkts.iter().enumerate() {
        let got: Vec<u16> = report.decisions[churn_pkts.len() + j]
            .ports
            .iter()
            .map(|p| p.0)
            .collect();
        assert_eq!(ports_of(final_oracle, p), got, "tail packet {j}");
    }
}

/// `@query_counter` state survives updates: a delta add, a delta
/// removal and then a full-rebuild update (an out-of-alphabet add) are
/// applied mid-stream, and the engine's decisions stay bit-identical to
/// a sequential executor whose pipeline is updated through the same
/// `UpdateReport`s at the same packet boundaries. A reset counter would
/// visibly diverge (the threshold rule would stop firing).
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
            .map(|i| packet(if i % 2 == 0 { "GOOGL" } else { other }, 1, 10))
            .collect()
    };
    let googl: Vec<Vec<u8>> = (0..3).map(|_| packet("GOOGL", 1, 10)).collect();
    feed(&mut engine, &mut sequential, &mut seq_decisions, &googl);

    // Delta update (in-alphabet add): counter must keep its value 3.
    engine.quiesce().unwrap();
    let msft = parse_program("stock == MSFT : fwd(2)").unwrap();
    let delta: UpdateReport = session.update(&msft, &[]).unwrap();
    assert!(!delta.full_rebuild, "in-alphabet add should splice");
    delta.apply_to(&mut sequential).unwrap();
    engine.apply_update(&delta).unwrap();
    feed(
        &mut engine,
        &mut sequential,
        &mut seq_decisions,
        &mixed(4, "MSFT"),
    );

    // Delta removal: spliced as well, and the window survives it.
    engine.quiesce().unwrap();
    let removal = session.update(&[], &msft).unwrap();
    assert!(!removal.full_rebuild, "in-alphabet removal should splice");
    removal.apply_to(&mut sequential).unwrap();
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
    rebuild.apply_to(&mut sequential).unwrap();
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
    assert_eq!(report.updates.delta_updates, 2);
    assert_eq!(report.updates.full_swaps, 1);

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
    engine.submit(&packet("GOOGL", 1, 10), 0);
    engine.submit(&packet("MSFT", 1, 10), 0);
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
        engine.submit(&packet("MSFT", 1, 10), 0);
    }
    engine.submit(&packet("GOOGL", 1, 10), 0);
    let out = engine.finish();
    assert!(out.error.is_none(), "{:?}", out.error);
    assert_eq!(out.updates.full_swaps, 1);
    assert_eq!(out.updates.delta_updates, 0);

    let ports: Vec<Vec<u16>> = out
        .decisions
        .iter()
        .map(|d| d.ports.iter().map(|p| p.0).collect())
        .collect();
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
