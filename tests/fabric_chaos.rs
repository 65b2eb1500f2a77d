//! The fabric survivability proof-by-test: a seeded chaos schedule
//! (leaf kills, transient whole-leaf stalls, spine partitions —
//! `camus_workload::ChaosPlan`) runs against continuous traffic on the
//! 2/4-leaf × 1/2/8-worker grid, each event fired right before the
//! submit of its seq, and after every scripted disaster the fabric must
//! converge via an emergency failover epoch with:
//!
//! * **an exact global ledger** — every submitted packet is decided,
//!   quarantined (died inside a leaf), or orphaned (drop-counted at
//!   the spine for a dead owner): `submitted == decided + quarantined
//!   + orphaned`, per leaf and fabric-wide;
//! * **loss confined to the failure** — shards whose owner stayed
//!   healthy lose *nothing* (the subset partition plan keeps
//!   survivors' symbols in place, so their packets never detour
//!   through the blast radius);
//! * **post-failover equivalence** — once the emergency epoch commits,
//!   forwarding is bit-identical to a fresh big-switch recompile of
//!   the same rules over the surviving shards.

use camus::compiler::{owner_of, Compiler, CompilerOptions};
use camus::engine::EngineConfig;
use camus::fabric::{Fabric, FabricConfig, LeafHealth};
use camus::workload::{
    raw_field_extractor, ChaosConfig, ChaosPlan, EpochOracle, NodeEventKind, SienaConfig,
};

/// One seeded chaos soak on a `leaves`-wide fabric with `workers`
/// workers per leaf. Rules are static (epochs here are *emergency*
/// epochs, not churn), so every packet is judged by one generation: a
/// fresh big-switch recompile of the rules, and the naive AST oracle.
fn run_chaos_soak(seed: u64, leaves: usize, workers: usize) {
    let siena = SienaConfig {
        int_attributes: 2,
        symbol_attributes: 1,
        symbol_alphabet: 12,
        int_range: 60,
        predicates_per_subscription: 2,
        subscriptions: 10,
        seed,
        ..Default::default()
    };
    let wl = siena.generate();
    let compiler = Compiler::new(wl.spec.clone(), CompilerOptions::raw()).expect("spec compiles");
    let master = compiler.compile(&wl.rules).expect("rules compile").pipeline;
    let extract = raw_field_extractor(&wl.spec, "sym0").expect("shard field exists");
    let mut oracle = EpochOracle::new(&wl.spec, |r| compiler.compile(r).unwrap().pipeline);
    oracle.publish(&wl.rules);

    // ~400-packet trace: chaos triggers land in the middle 80 %, so
    // at least ~40 healthy-side packets (5+ probe ticks) follow the
    // last disaster — enough for detection + failover to converge
    // deterministically before the run ends.
    let events = siena.generate_events(&wl, 400);
    let trace_len = events.len();
    let chaos = ChaosPlan::generate(
        trace_len,
        &ChaosConfig {
            seed: seed ^ 0xDEAD,
            leaves,
            kills: 1,
            stalls: 1,
            stall_ms: 30,
            partitions: 1, // budget-capped: only fires when leaves > 2
        },
    );
    assert!(
        !chaos.events.is_empty(),
        "a multi-leaf soak always scripts at least the kill"
    );

    let ecfg = EngineConfig {
        workers,
        batch_packets: 3,
        watchdog_ms: 20,
        record_decisions: true,
        telemetry: true,
        ..EngineConfig::default()
    };
    let mut fcfg = FabricConfig::uniform(leaves, "ev.sym0", extract.clone(), ecfg);
    fcfg.probe_interval = 8;
    let mut fabric = Fabric::start(&master, &fcfg).expect("fabric starts");

    let mut primary_owner: Vec<usize> = Vec::new();
    for (seq, ev) in events.iter().enumerate() {
        primary_owner.push(owner_of(extract(ev), leaves));
        // Each scheduled event fires before its seq is routed and
        // before that seq's probe tick.
        for e in chaos.at(seq as u64) {
            match e.kind {
                NodeEventKind::Kill => fabric.kill_leaf(e.leaf),
                NodeEventKind::Stall { ms } => fabric.stall_leaf(e.leaf, ms),
                NodeEventKind::Partition => fabric.partition_leaf(e.leaf),
            }
        }
        oracle.submit(ev, 0);
        fabric.submit(ev, 0);
    }

    // Convergence: the scripted fatalities were detected and repaired
    // *during* the run — the fabric ends healthy, not degraded.
    assert!(
        !fabric.degraded(),
        "seed {seed} {leaves}x{workers}: failover did not converge in-run"
    );
    assert!(
        !fabric.failovers().is_empty(),
        "seed {seed} {leaves}x{workers}: the scripted kill never caused a failover"
    );
    for f in fabric.failovers() {
        assert!(f.mttr_ns > 0, "repair time is measured");
        assert!(f.detect_ns <= f.mttr_ns, "detection precedes repair");
    }

    // Post-failover round: every packet must be decided, bit-identical
    // to a fresh big-switch recompile of the same rules.
    for ev in &events {
        oracle.submit(ev, 0);
        fabric.submit(ev, 0);
    }

    let dead: Vec<usize> = (0..leaves)
        .filter(|&l| fabric.leaf_health(l) != LeafHealth::Healthy)
        .collect();
    let report = fabric.finish();

    // The exact global ledger, fabric-wide and per leaf.
    assert!(
        report.reconciles(),
        "seed {seed} {leaves}x{workers}: submitted != decided + quarantined + orphaned"
    );
    assert_eq!(report.robustness.leaf_deaths, dead.len() as u64);
    assert!(report.robustness.failover_epochs >= 1);

    // Loss confinement: orphans and quarantines only on dead leaves.
    for l in 0..leaves {
        if dead.contains(&l) {
            continue;
        }
        assert_eq!(
            report.orphaned_per_leaf[l], 0,
            "seed {seed} {leaves}x{workers}: healthy leaf {l} orphaned packets"
        );
        assert!(
            report.leaves[l].quarantined.is_empty(),
            "seed {seed} {leaves}x{workers}: healthy leaf {l} quarantined packets"
        );
    }

    // Packets go missing (counted), never wrong; whatever is missing
    // was owned by a dead leaf — shards that never left a healthy leaf
    // lose nothing — and the entire post-failover tail is present.
    let decisions = report.decisions_in_submit_order();
    let lost = report.orphaned() as usize + report.total_quarantined();
    assert_eq!(oracle.check(&decisions), lost);
    for (i, d) in decisions.iter().enumerate() {
        assert!(
            d.is_some() || (i < events.len() && dead.contains(&primary_owner[i])),
            "seed {seed} {leaves}x{workers} packet {i}: lost despite a healthy owner"
        );
    }

    // The spine node exports the robustness counters.
    let prom = report.render_prometheus().expect("telemetry was on");
    assert!(prom.contains(r#"camus_leaf_deaths_total{node="spine"}"#));
    assert!(prom.contains(r#"camus_failover_epochs_total{node="spine"}"#));
}

#[test]
fn seeded_chaos_soak_across_the_fabric_grid() {
    // 2/4 leaves × 1/2/8 workers. PR CI runs one seeded schedule per
    // cell; the nightly workflow widens coverage by exporting
    // `CAMUS_SOAK_SEEDS` (every listed seed runs on every cell).
    let grid = [(2usize, 1usize), (2, 2), (2, 8), (4, 1), (4, 2), (4, 8)];
    let default_seeds: Vec<u64> = (0..grid.len() as u64).map(|i| 100 + i).collect();
    let seeds = camus::workload::soak_seeds(&default_seeds);
    if seeds == default_seeds {
        // Default: one seed per cell, exactly the historical pairing.
        for (seed, (leaves, workers)) in seeds.into_iter().zip(grid) {
            run_chaos_soak(seed, leaves, workers);
        }
    } else {
        for &seed in &seeds {
            for (leaves, workers) in grid {
                run_chaos_soak(seed, leaves, workers);
            }
        }
    }
}

#[test]
fn stall_then_kill_interleaving_does_not_confuse_the_detector() {
    // A transient stall is NOT a death: the failover epoch commits
    // straight through the stall (no drain runs inside an epoch), and
    // the detector declares only the scripted kill. A 4-leaf fabric with a stall on one leaf and a
    // kill on another exercises both paths in one run.
    let siena = SienaConfig {
        int_attributes: 1,
        symbol_attributes: 1,
        symbol_alphabet: 8,
        int_range: 40,
        predicates_per_subscription: 2,
        subscriptions: 8,
        seed: 7,
        ..Default::default()
    };
    let wl = siena.generate();
    let compiler = Compiler::new(wl.spec.clone(), CompilerOptions::raw()).unwrap();
    let master = compiler.compile(&wl.rules).unwrap().pipeline;
    let extract = raw_field_extractor(&wl.spec, "sym0").unwrap();
    let events = siena.generate_events(&wl, 200);

    let ecfg = EngineConfig {
        workers: 2,
        batch_packets: 3,
        watchdog_ms: 20,
        record_decisions: true,
        ..EngineConfig::default()
    };
    let mut fcfg = FabricConfig::uniform(4, "ev.sym0", extract, ecfg);
    fcfg.probe_interval = 8;
    let mut fabric = Fabric::start(&master, &fcfg).unwrap();

    for (i, ev) in events.iter().enumerate() {
        if i == 40 {
            fabric.stall_leaf(1, 60); // transient: must NOT be declared dead
        }
        if i == 80 {
            fabric.kill_leaf(2); // fatal: must fail over
        }
        fabric.submit(ev, 0);
    }
    assert!(!fabric.degraded());
    assert_eq!(
        fabric.leaf_health(1),
        LeafHealth::Healthy,
        "a stall is not a death"
    );
    assert_eq!(
        fabric.leaf_health(2),
        LeafHealth::Evicted,
        "the kill was repaired"
    );
    assert_eq!(fabric.robustness().leaf_deaths, 1);

    let report = fabric.finish();
    assert!(report.reconciles());
    assert_eq!(report.orphaned_per_leaf[1], 0);
    assert!(report.leaves[1].quarantined.is_empty());
}
