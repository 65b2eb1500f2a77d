//! The fabric equivalence proof-by-test: one subscription program
//! partitioned across a spine/leaf fabric of engines must forward
//! every packet identically to a single big switch running the whole
//! program — which in turn must agree with the naive AST oracle.
//!
//! Fifty random churn sequences run across the 1/2/4-leaf ×
//! 1/2/8-worker grid, with every update applied as a two-phase fabric
//! epoch while traffic is in flight (partial batches straddle the
//! commit). On top of the clean paths, two adversarial scenarios:
//!
//! * an **admission-rejected epoch** — one leaf's ASIC budget rejects
//!   its new slice; the whole epoch must abort all-or-nothing with
//!   bit-identical pre-state on *every* node;
//! * a **leaf-worker death** — a scripted worker crash mid-trace must
//!   reconcile the zero-loss ledger exactly (every packet decided or
//!   quarantined) while surviving packets stay oracle-identical.

use camus::compiler::partition::PartitionPlan;
use camus::compiler::{Compiler, CompilerOptions, IncrementalCompiler};
use camus::engine::{EngineConfig, EngineFault, FaultInjection};
use camus::fabric::{tables_identical, Fabric, FabricConfig, FabricFault};
use camus::pipeline::{place_chain, AsicModel};
use camus::workload::{raw_field_extractor, siena_churn, ChurnConfig, EpochOracle, SienaConfig};
use std::collections::HashSet;
use std::sync::Arc;

fn siena_cfg(seed: u64) -> SienaConfig {
    SienaConfig {
        int_attributes: 2,
        symbol_attributes: 1,
        symbol_alphabet: 8,
        int_range: 60, // dense: plenty of overlap and matches
        predicates_per_subscription: 2,
        seed,
        ..Default::default()
    }
}

/// Submits `events` to the fabric and to its oracle alike.
fn submit(fabric: &mut Fabric, oracle: &mut EpochOracle, events: &[Vec<u8>]) {
    for ev in events {
        oracle.submit(ev, 0);
        fabric.submit(ev, 0);
    }
}

/// One random churn sequence on a `leaves`-wide fabric with `workers`
/// workers per leaf. Traffic flows continuously; each update commits
/// as a fabric epoch with partial batches in flight. At the end, every
/// recorded fabric decision must equal the fresh big-switch recompile
/// — and the naive oracle — of the rule set that was live *when its
/// packet was submitted*, which is exactly the no-mixed-epoch
/// guarantee. Every epoch sees every event after its commit, so fresh
/// ≡ naive is checked at each one too.
fn run_fabric_churn(seed: u64, leaves: usize, workers: usize) {
    let siena = siena_cfg(seed);
    let churn = ChurnConfig {
        initial_rules: 6,
        steps: 4,
        adds_per_step: 2,
        removes_per_step: (seed % 3) as usize,
        seed: seed ^ 0xFEED,
        ..Default::default()
    };
    let plan = siena_churn(&siena, &churn, 0);
    let spec = plan.base.spec.clone();
    let opts = CompilerOptions::raw();

    let mut session =
        IncrementalCompiler::new(spec.clone(), &opts, &plan.base.rules).expect("alphabet resolves");
    let install = session
        .install(&plan.schedule.initial)
        .expect("initial install");
    let full_compiler = Compiler::new(spec.clone(), opts).expect("spec compiles");
    let mut oracle = EpochOracle::new(&spec, |r| full_compiler.compile(r).unwrap().pipeline);
    oracle.publish(&plan.schedule.initial);

    let extract = raw_field_extractor(&spec, "sym0").expect("shard field exists");
    let ecfg = EngineConfig {
        workers,
        batch_packets: 3, // small batches: epochs land on partial batches
        record_decisions: true,
        ..EngineConfig::default()
    };
    let fcfg = FabricConfig::uniform(leaves, "ev.sym0", extract, ecfg);
    let mut fabric = Fabric::start(&install.pipeline, &fcfg).expect("fabric starts");

    let events = siena.generate_events(&plan.base, 12);
    submit(&mut fabric, &mut oracle, &events);
    for (k, step) in plan.schedule.steps.iter().enumerate() {
        // Mid-update traffic: these packets are (partially) in flight
        // when the epoch commits, and must complete under OLD rules.
        submit(&mut fabric, &mut oracle, &events[..5]);

        let report = session
            .update(&step.add, &step.remove)
            .expect("update compiles");
        fabric.apply_update(&report).expect("epoch commits");
        oracle.publish(&plan.schedule.rules_after(k + 1));

        // Post-epoch traffic must see the NEW rules.
        submit(&mut fabric, &mut oracle, &events);
    }

    assert_eq!(fabric.epoch(), plan.schedule.steps.len() as u64);
    let report = fabric.finish();
    assert!(
        report.reconciles(),
        "seed {seed} leaves {leaves} workers {workers}: ledger must reconcile"
    );
    assert_eq!(report.total_quarantined(), 0, "clean run never quarantines");
    let decisions = report.decisions_in_submit_order();
    assert_eq!(
        oracle.check(&decisions),
        0,
        "seed {seed} leaves {leaves} workers {workers}: clean run records every decision"
    );
}

#[test]
fn fifty_random_churn_sequences_across_the_fabric_grid() {
    // ≥ 50 sequences cycling through the full 1/2/4-leaf × 1/2/8-worker
    // grid (seeds 0..8 alone cover every cell once; fifty seeds cover
    // each cell five or six times) with removal pressure also cycling.
    for seed in 0..50u64 {
        let leaves = [1usize, 2, 4][(seed % 3) as usize];
        let workers = [1usize, 2, 8][((seed / 3) % 3) as usize];
        run_fabric_churn(seed, leaves, workers);
    }
}

#[test]
fn admission_rejected_epoch_is_all_or_nothing_across_the_fabric() {
    // Leaf 1 gets an ASIC budget sized to its *current* slice; an
    // update bomb that outgrows that budget must be rejected in the
    // epoch's prepare phase — and the rejection must leave every node
    // (including the leaves that could have fit it) bit-identical to
    // its pre-epoch state, with no generation published anywhere.
    let siena = siena_cfg(5);
    let wl = siena.generate();
    let compiler = Compiler::new(wl.spec.clone(), CompilerOptions::raw()).unwrap();
    let initial = wl.rules[..6].to_vec();
    let master = compiler.compile(&initial).unwrap().pipeline;
    let mut oracle = EpochOracle::new(&wl.spec, |r| compiler.compile(r).unwrap().pipeline);
    oracle.publish(&initial);

    // Size leaf 1's admission model around its seed slice: the
    // smallest power-of-two per-stage budget that fits it. The bomb
    // then has to out-grow the budget, not our guess.
    let plan = PartitionPlan::compute(&master, "ev.sym0", 2).unwrap();
    let seed_slice = plan.slice(&master, 1);
    let mut per_stage = 1usize;
    let tight = loop {
        let candidate = AsicModel {
            stages: 4,
            sram_entries_per_stage: per_stage,
            tcam_entries_per_stage: per_stage,
            ..AsicModel::tofino32()
        };
        if place_chain(&seed_slice.tables, &candidate)
            .failure
            .is_none()
        {
            break candidate;
        }
        per_stage *= 2;
        assert!(per_stage < 1 << 20, "seed slice never fit");
    };

    // The bomb: the same spec, an order of magnitude more rules.
    let big = SienaConfig {
        subscriptions: 400,
        ..siena.clone()
    }
    .generate();
    let bomb = compiler.compile(&big.rules).unwrap().pipeline;
    let bomb_plan = PartitionPlan::compute(&bomb, "ev.sym0", 2).unwrap();
    assert!(
        place_chain(&bomb_plan.slice(&bomb, 1).tables, &tight)
            .failure
            .is_some(),
        "bomb unexpectedly fits leaf 1's budget"
    );

    let extract = raw_field_extractor(&wl.spec, "sym0").unwrap();
    let base = EngineConfig {
        workers: 2,
        batch_packets: 3,
        record_decisions: true,
        ..EngineConfig::default()
    };
    let fcfg = FabricConfig::new(
        "ev.sym0",
        extract,
        vec![
            base.clone(), // leaf 0: default (roomy) tofino32 budget
            EngineConfig {
                admission: Some(tight),
                ..base
            },
        ],
    );
    let mut fabric = Fabric::start(&master, &fcfg).unwrap();

    let events = siena.generate_events(&wl, 20);
    submit(&mut fabric, &mut oracle, &events[..10]);

    let before: Vec<Vec<camus::pipeline::Table>> =
        (0..2).map(|l| fabric.leaf_tables(l).to_vec()).collect();
    let gens: Vec<u64> = (0..2).map(|l| fabric.leaf_generation(l)).collect();

    let err = fabric.install_master(bomb);
    match err {
        Err(FabricFault::Prepare {
            leaf: 1,
            fault: EngineFault::Admission(adm),
        }) => assert!(adm.needed > adm.available, "{adm:?}"),
        other => panic!("expected leaf-1 admission rejection, got {other:?}"),
    }
    assert_eq!(fabric.epoch(), 0);
    assert_eq!(fabric.epochs_rejected(), 1);
    for l in 0..2 {
        assert!(
            tables_identical(fabric.leaf_tables(l), &before[l]),
            "leaf {l}: rejected epoch left a table change behind"
        );
        assert_eq!(
            fabric.leaf_generation(l),
            gens[l],
            "leaf {l}: rejected epoch published a generation"
        );
    }

    // Forwarding throughout — including after the rejection — is
    // bit-identical to the original program on the big switch.
    submit(&mut fabric, &mut oracle, &events[10..]);
    let report = fabric.finish();
    assert!(report.reconciles());
    for r in &report.leaves {
        assert_eq!(r.updates.published, 0, "a leaf published the dead epoch");
    }
    assert_eq!(report.leaves[1].faults.updates_rejected, 1);
    let decisions = report.decisions_in_submit_order();
    assert_eq!(oracle.check(&decisions), 0);
}

#[test]
fn leaf_worker_death_reconciles_with_zero_loss() {
    // A scripted worker crash on one leaf mid-trace, followed by a
    // fabric epoch: the dead batch is quarantined (exact seqs), the
    // epoch still commits fabric-wide, a drain respawns the worker, and
    // every surviving packet is decided under the rule set of its
    // submission epoch.
    let seed = 23u64;
    let siena = siena_cfg(seed);
    let churn = ChurnConfig {
        initial_rules: 6,
        steps: 1,
        adds_per_step: 2,
        removes_per_step: 0,
        seed: seed ^ 0xFEED,
        ..Default::default()
    };
    let plan = siena_churn(&siena, &churn, 0);
    let spec = plan.base.spec.clone();
    let opts = CompilerOptions::raw();
    let mut session = IncrementalCompiler::new(spec.clone(), &opts, &plan.base.rules).unwrap();
    let install = session.install(&plan.schedule.initial).unwrap();
    let full_compiler = Compiler::new(spec.clone(), opts).unwrap();
    let mut oracle = EpochOracle::new(&spec, |r| full_compiler.compile(r).unwrap().pipeline);
    oracle.publish(&plan.schedule.initial);

    let extract = raw_field_extractor(&spec, "sym0").unwrap();
    let base = EngineConfig {
        workers: 2,
        batch_packets: 2,
        record_decisions: true,
        ..EngineConfig::default()
    };
    let fcfg = FabricConfig::new(
        "ev.sym0",
        extract,
        vec![
            base.clone(),
            EngineConfig {
                faults: FaultInjection {
                    // Leaf-local seq 0: leaf 1's first packet takes its
                    // whole batch (and worker) down.
                    die_seqs: Arc::new(HashSet::from([0u64])),
                    ..FaultInjection::default()
                },
                ..base
            },
        ],
    );
    let mut fabric = Fabric::start(&install.pipeline, &fcfg).unwrap();

    let events = siena.generate_events(&plan.base, 24);
    submit(&mut fabric, &mut oracle, &events);
    assert!(
        fabric.submitted() > 0 && fabric.route(&events[0]) < 2,
        "sanity"
    );

    // The commit must land despite the death.
    let step = &plan.schedule.steps[0];
    let report = session.update(&step.add, &step.remove).unwrap();
    fabric
        .apply_update(&report)
        .expect("epoch commits despite the death");
    oracle.publish(&plan.schedule.rules_after(1));
    // The epoch drains nothing: heal the dead worker before the
    // post-epoch traffic, so none of it is queued to a dying thread.
    fabric.quiesce().unwrap();
    submit(&mut fabric, &mut oracle, &events);

    let report = fabric.finish();
    assert!(report.reconciles(), "zero-loss ledger must reconcile");
    assert!(
        report.total_quarantined() >= 1,
        "the dead batch is quarantined"
    );
    assert!(report.leaves[1].faults.worker_deaths >= 1);
    assert!(report.leaves[1].faults.respawns >= 1);
    assert_eq!(report.epoch, 1);

    let decisions = report.decisions_in_submit_order();
    assert_eq!(oracle.check(&decisions), report.total_quarantined());
    // Post-epoch packets are never quarantined (death healed earlier).
    for d in &decisions[events.len()..] {
        assert!(d.is_some());
    }
}
