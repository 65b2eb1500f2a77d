//! Deterministic fault-injection soak: the engine is driven through a
//! seeded [`FaultPlan`] — truncated frames, single-bit flips, scripted
//! worker panics and deaths, and a capacity-exceeding update — and must
//! come out with:
//!
//! * **zero loss, zero duplication** — every submitted packet is either
//!   decided exactly once or listed (exactly once) in the quarantine;
//! * **oracle identity** — every non-quarantined decision is
//!   bit-identical to a fresh compile run over the *same mutated
//!   trace*, and to the AST interpreter wherever the corruption left a
//!   decodable message (rules are stateless, so per-packet decisions
//!   are independent and quarantine holes don't shift the oracle);
//! * **typed corruption** — wire corruption surfaces as per-reason drop
//!   counters, never as an error or a dead worker;
//! * **transactional rejection** — the capacity bomb is refused by
//!   admission control with zero observable state change: no
//!   generation bump, and forwarding continues under the old rules.
//!
//! Everything is a pure function of the seeds, so a failure reproduces.

use std::collections::HashSet;
use std::sync::Arc;

use camus_core::{Compiler, CompilerOptions, IncrementalCompiler};
use camus_engine::{shard, Engine, EngineConfig, EngineFault, FaultInjection, ShardFn};
use camus_itch::Side;
use camus_lang::{parse_program, parse_spec, Rule};
use camus_pipeline::resources::place_chain;
use camus_pipeline::{AsicModel, Pipeline};
use camus_workload::{
    capacity_bomb, random_add_orders, raw_add_order, EpochOracle, FaultPlan, FaultPlanConfig,
    ItchSubsConfig,
};

/// Shards by the stock field — *totally*: a frame truncated before the
/// stock field still gets a (constant) shard instead of a panic, since
/// the fault plan feeds the engine corrupted bytes on purpose.
fn total_stock_shard() -> ShardFn {
    Arc::new(|p: &[u8]| shard::mix64(shard::fnv1a(p.get(24..32).unwrap_or(&[]))))
}

fn itch_cfg() -> ItchSubsConfig {
    ItchSubsConfig {
        subscriptions: 12,
        symbols: 8,
        price_range: 500,
        hosts: 16,
        ..Default::default()
    }
}

fn compile(rules: &[Rule]) -> Pipeline {
    let spec = parse_spec(camus_lang::spec::ITCH_SPEC).unwrap();
    let compiler = Compiler::new(spec, CompilerOptions::raw()).unwrap();
    compiler.compile(rules).unwrap().pipeline
}

/// The workload's rules, installed, and the big switch that judges
/// every packet submitted under them.
fn installed(cfg: &ItchSubsConfig) -> (Pipeline, EpochOracle<'static>) {
    let rules = camus_workload::generate_itch_subscriptions(cfg);
    let spec = parse_spec(camus_lang::spec::ITCH_SPEC).unwrap();
    let mut oracle = EpochOracle::new(&spec, compile);
    oracle.publish(&rules);
    (compile(&rules), oracle)
}

/// The soak proper: corrupted wire + scripted panics + a scripted
/// worker death, at 1, 2 and 8 workers. Non-quarantined decisions must
/// be bit-identical to the sequential oracle; counters must reconcile
/// exactly. PR CI runs the single historical seed; the nightly
/// workflow widens it via `CAMUS_SOAK_SEEDS` (each seed derives a
/// fresh trace + fault plan).
#[test]
fn fault_soak_recovers_and_matches_oracle() {
    for seed in camus_workload::soak_seeds(&[0x50AC]) {
        run_fault_soak(seed);
    }
}

fn run_fault_soak(seed: u64) {
    let (pipeline, mut oracle) = installed(&itch_cfg());
    // The trace seed is derived so the default plan seed (0x50AC)
    // reproduces the historical 0xFA11 trace exactly.
    let clean = random_add_orders(600, 8, 600, 0xFA11 ^ seed ^ 0x50AC);
    let plan = FaultPlan::generate(
        &clean,
        &FaultPlanConfig {
            seed,
            truncate_fraction: 0.05,
            bitflip_fraction: 0.05,
            panics: 2,
            deaths: 1,
        },
    );
    assert!(!plan.mutations.is_empty(), "plan must corrupt something");

    for p in &plan.packets {
        oracle.submit(p, 0);
    }

    for workers in [1usize, 2, 8] {
        let cfg = EngineConfig {
            workers,
            batch_packets: 8,
            record_decisions: true,
            faults: FaultInjection {
                panic_seqs: Arc::new(plan.panic_seqs.clone()),
                die_seqs: Arc::new(plan.die_seqs.clone()),
            },
            ..Default::default()
        };
        let mut engine = Engine::start(&pipeline, &cfg, total_stock_shard());
        for p in &plan.packets {
            engine.submit(p, 0);
        }
        let submitted = engine.submitted();
        let report = engine.finish();
        assert!(
            report.error.is_none(),
            "workers={workers}: {:?}",
            report.error
        );

        // Zero loss, zero duplication.
        let quarantined: HashSet<u64> = report.quarantined.iter().copied().collect();
        assert_eq!(
            quarantined.len(),
            report.quarantined.len(),
            "workers={workers}: duplicate quarantine entries"
        );
        assert_eq!(
            report.decisions.len() as u64 + quarantined.len() as u64,
            submitted,
            "workers={workers}: packets lost or duplicated"
        );

        // Every scripted fault landed, and only whole batches went.
        for s in plan.panic_seqs.iter().chain(&plan.die_seqs) {
            assert!(
                quarantined.contains(s),
                "workers={workers}: scripted fault seq {s} not quarantined"
            );
        }
        // Several scripted seqs can share one batch, so the counts are
        // bounded, not exact.
        assert!(
            (1..=plan.panic_seqs.len() as u64).contains(&report.faults.panics_caught),
            "workers={workers}: {:?}",
            report.faults
        );
        assert!(
            (1..=plan.die_seqs.len() as u64).contains(&report.faults.worker_deaths),
            "workers={workers}: {:?}",
            report.faults
        );
        // A death near the trace tail may only be discovered during
        // `finish`, which harvests (exact quarantine) without
        // respawning — so respawns is bounded by deaths, not equal.
        assert!(report.faults.respawns <= report.faults.worker_deaths);

        // Oracle identity for every surviving packet.
        let decisions = report.decisions_in_submit_order();
        assert_eq!(
            oracle.check(&decisions),
            quarantined.len(),
            "workers={workers}"
        );

        // Counters reconcile exactly.
        let s = &report.stats;
        assert_eq!(s.packets, submitted - quarantined.len() as u64);
        assert_eq!(s.packets, s.forwarded_packets + s.dropped_packets);
        let malformed = decisions.iter().flatten().filter(|d| d.malformed());
        assert_eq!(s.malformed_packets(), malformed.count() as u64);
        assert!(
            s.malformed_packets() > 0,
            "workers={workers}: corruption never reached the parser"
        );
    }
}

/// Admission control under fire: a capacity bomb (a subscription set
/// compiled to blow past the configured ASIC budget) is pushed at a
/// live engine mid-trace. The update must be rejected as
/// [`EngineFault::Admission`] with zero observable state change —
/// forwarding before and after the rejected update is bit-identical to
/// the *original* rules, and no generation is ever published.
#[test]
fn capacity_bomb_is_rejected_with_zero_observable_state_change() {
    let cfg = itch_cfg();
    let (pipeline, mut oracle) = installed(&cfg);

    // Size the admission model around the seed program: the smallest
    // power-of-two per-stage budget that fits it. The bomb then has to
    // out-grow the budget, not our guess.
    let mut per_stage = 1usize;
    let model = loop {
        let candidate = AsicModel {
            stages: 4,
            sram_entries_per_stage: per_stage,
            tcam_entries_per_stage: per_stage,
            ..AsicModel::tofino32()
        };
        if place_chain(&pipeline.tables, &candidate).failure.is_none() {
            break candidate;
        }
        per_stage *= 2;
        assert!(per_stage < 1 << 20, "seed program never fit");
    };
    let budget = model.stages * model.sram_entries_per_stage;

    // The bomb: enough subscriptions to exceed the whole budget.
    let bomb = capacity_bomb(&cfg, budget, 0xB0B);
    let bomb_pipeline = compile(&bomb);
    assert!(
        place_chain(&bomb_pipeline.tables, &model).failure.is_some(),
        "bomb unexpectedly fits the admission model"
    );

    let trace = random_add_orders(200, 8, 600, 0xB0B2);
    for p in &trace {
        oracle.submit(p, 0);
    }
    let engine_cfg = EngineConfig {
        workers: 2,
        batch_packets: 8,
        record_decisions: true,
        admission: Some(model),
        ..Default::default()
    };
    let mut engine = Engine::start(&pipeline, &engine_cfg, total_stock_shard());
    for p in &trace[..100] {
        engine.submit(p, 0);
    }
    engine.quiesce().unwrap();

    let err = engine.stage(bomb_pipeline).unwrap_err();
    let EngineFault::Admission(adm) = &err else {
        panic!("expected Admission rejection, got {err}");
    };
    assert!(adm.needed > adm.available, "{adm:?}");
    assert!(!engine.commit(), "a rejected candidate is not staged");
    assert_eq!(engine.generation(), 0);

    for p in &trace[100..] {
        engine.submit(p, 0);
    }
    let report = engine.finish();
    assert!(report.error.is_none(), "{:?}", report.error);
    assert_eq!(report.updates.published, 0, "rejected update was published");
    assert_eq!(report.faults.updates_rejected, 1);
    assert!(report.quarantined.is_empty());

    // Forwarding throughout — including after the rejection — is
    // bit-identical to the original rules.
    let decisions = report.decisions_in_submit_order();
    assert_eq!(oracle.check(&decisions), 0);
}

/// A worker that dies after a full swap comes back with the configured
/// decision cache: the replacement is seeded from the installed
/// program, and every program the engine installs — full swaps
/// included — is normalised with the cache armed.
#[test]
fn respawned_worker_keeps_the_decision_cache_after_a_full_swap() {
    let spec = parse_spec(camus_lang::spec::ITCH_SPEC).unwrap();
    let opts = CompilerOptions::raw();
    let alphabet = parse_program("stock == GOOGL : fwd(1)").unwrap();
    let mut session = IncrementalCompiler::new(spec, &opts, &alphabet).unwrap();
    let seed = session.install(&alphabet).unwrap().pipeline;

    let cfg = EngineConfig {
        workers: 1,
        batch_packets: 8,
        decision_cache: Some("add_order.stock".into()),
        faults: FaultInjection {
            // The first batch submitted after the swap.
            die_seqs: Arc::new([200u64].into_iter().collect()),
            ..Default::default()
        },
        ..Default::default()
    };
    let mut engine = Engine::start(&seed, &cfg, total_stock_shard());
    let hot = raw_add_order("GOOGL", Side::Buy, 1, 10);
    for _ in 0..200 {
        engine.submit(&hot, 0);
    }
    engine.quiesce().unwrap();

    // `stock == MSFT` is outside the session's alphabet: a full swap.
    let update = parse_program("stock == MSFT : fwd(2)").unwrap();
    let report = session.update(&update, &[]).unwrap();
    assert!(report.full_rebuild, "out-of-alphabet add must rebuild");
    engine.apply_update(&report).unwrap();

    // Batch {200..207} kills the worker; the drain respawns it.
    for _ in 0..8 {
        engine.submit(&hot, 0);
    }
    engine.quiesce().unwrap();
    for _ in 0..200 {
        engine.submit(&hot, 0);
    }
    let out = engine.finish();
    assert!(out.error.is_none(), "{:?}", out.error);
    assert_eq!(out.updates.published, 1);
    assert_eq!(out.faults.respawns, 1);
    assert_eq!(out.quarantined.len(), 8);
    assert_eq!(out.stats.packets, 400);
    // One miss per incarnation warms the single hot key; an unarmed
    // replacement would stop at the first 199.
    assert!(out.hotpath.cache_hits >= 380, "{:?}", out.hotpath);
}

/// The supervisor and the parser's total path compose: a trace that is
/// *mostly* garbage (every flavour of truncation) plus scripted panics
/// still yields a fully reconciled report at every worker count.
#[test]
fn garbage_heavy_trace_reconciles_at_every_worker_count() {
    let pipeline = compile(&camus_workload::generate_itch_subscriptions(&itch_cfg()));
    let clean = random_add_orders(300, 8, 600, 0x6A12);
    let plan = FaultPlan::generate(
        &clean,
        &FaultPlanConfig {
            seed: 0x6A12,
            truncate_fraction: 0.5,
            bitflip_fraction: 0.3,
            panics: 1,
            deaths: 0,
        },
    );
    for workers in [1usize, 2, 8] {
        let cfg = EngineConfig {
            workers,
            batch_packets: 4,
            faults: FaultInjection {
                panic_seqs: Arc::new(plan.panic_seqs.clone()),
                ..Default::default()
            },
            ..Default::default()
        };
        let mut engine = Engine::start(&pipeline, &cfg, total_stock_shard());
        for p in &plan.packets {
            engine.submit(p, 0);
        }
        let submitted = engine.submitted();
        let report = engine.finish();
        assert!(
            report.error.is_none(),
            "workers={workers}: {:?}",
            report.error
        );
        let s = &report.stats;
        assert_eq!(
            s.packets + report.quarantined.len() as u64,
            submitted,
            "workers={workers}"
        );
        assert_eq!(s.packets, s.forwarded_packets + s.dropped_packets);
        assert!(s.malformed_packets() > 50, "workers={workers}: {s:?}");
    }
}
