//! Update/recovery interleavings the fabric epoch protocol relies on:
//! worker death during epoch-prepare, a leaf stalled across a commit,
//! and back-to-back epochs with no explicit drain.
//! Every scenario must keep the zero-loss ledger exact
//! (`submitted == decided + quarantined` per leaf) and leave the
//! fabric forwarding bit-identically to the big switch — and the AST
//! interpreter — at each packet's submission epoch.

use std::collections::HashSet;
use std::sync::Arc;

use camus_core::{Compiler, CompilerOptions};
use camus_engine::{EngineConfig, EngineFault, FaultInjection, ShardFn};
use camus_fabric::{Fabric, FabricConfig, FabricFault};
use camus_lang::{parse_program, parse_spec, Rule};
use camus_pipeline::Pipeline;
use camus_workload::{event, raw_field_extractor, EpochOracle, EVENT_SPEC};

const OLD_RULES: &str = "sym == AA : fwd(1)\n\
                         sym == BB : fwd(2)\n\
                         val > 50 : fwd(9)";

const NEW_RULES: &str = "sym == AA : fwd(4)\n\
                         sym == CC and val > 5 : fwd(5)\n\
                         val > 50 : fwd(9)";

fn compile_rules(rules: &[Rule]) -> Pipeline {
    let spec = parse_spec(EVENT_SPEC).unwrap();
    let c = Compiler::new(spec, CompilerOptions::raw()).unwrap();
    c.compile(rules).unwrap().pipeline
}

fn compile(rules: &str) -> Pipeline {
    compile_rules(&parse_program(rules).unwrap())
}

/// The big switch, first running `rules`.
fn big_switch(rules: &str) -> EpochOracle<'static> {
    let mut oracle = EpochOracle::new(&parse_spec(EVENT_SPEC).unwrap(), compile_rules);
    oracle.publish(&parse_program(rules).unwrap());
    oracle
}

fn extractor() -> ShardFn {
    raw_field_extractor(&parse_spec(EVENT_SPEC).unwrap(), "sym").unwrap()
}

/// Two-letter symbols that a `leaves`-wide fabric routes to `leaf`.
fn symbols_owned_by(leaf: usize, leaves: usize, want: usize) -> Vec<String> {
    let mut out = Vec::new();
    for a in b'A'..=b'Z' {
        for b in b'A'..=b'Z' {
            let s = format!("{}{}", a as char, b as char);
            let key = camus_lang::symbol::encode_symbol(&s, 64);
            if camus_core::owner_of(key, leaves) == leaf {
                out.push(s);
                if out.len() == want {
                    return out;
                }
            }
        }
    }
    out
}

#[test]
fn worker_death_during_epoch_prepare_reconciles_and_commits() {
    // Leaf 1's first dispatched batch dies with its worker; the commit
    // still lands fabric-wide. The epoch drains nothing, so the dead
    // worker is found by a send to it or by an explicit drain, which
    // respawns it. Accounting stays exact.
    let victims = symbols_owned_by(1, 2, 2);
    let mut cfg_leaf1 = EngineConfig {
        workers: 2,
        batch_packets: 2,
        record_decisions: true,
        ..EngineConfig::default()
    };
    cfg_leaf1.faults = FaultInjection {
        // Leaf-local seq 0: the first packet this leaf ever receives.
        die_seqs: Arc::new(HashSet::from([0u64])),
        ..FaultInjection::default()
    };
    let cfg_leaf0 = EngineConfig {
        workers: 2,
        batch_packets: 2,
        record_decisions: true,
        ..EngineConfig::default()
    };
    let fcfg = FabricConfig::new("ev.sym", extractor(), vec![cfg_leaf0, cfg_leaf1]);
    let mut fabric = Fabric::start(&compile(OLD_RULES), &fcfg).unwrap();
    let mut oracle = big_switch(OLD_RULES);

    // Fill leaf 1's first batch so it dispatches (and dies) while the
    // epoch is being prepared.
    for v in &victims {
        for val in [60, 70] {
            oracle.submit(&event(v, val), 0);
            fabric.submit(&event(v, val), 0);
        }
    }
    fabric.install_master(compile(NEW_RULES)).unwrap();
    oracle.publish(&parse_program(NEW_RULES).unwrap());
    assert_eq!(fabric.epoch(), 1);
    // Heal the dead worker before the post-epoch traffic.
    fabric.quiesce().unwrap();

    // Post-epoch traffic forwards under the new rules everywhere.
    let mark = fabric.submitted() as usize;
    for (s, v) in [("AA", 1u32), ("CC", 9), ("BB", 3)] {
        oracle.submit(&event(s, v), 0);
        fabric.submit(&event(s, v), 0);
    }
    let report = fabric.finish();
    assert!(report.reconciles(), "zero-loss ledger must reconcile");
    assert!(
        report.total_quarantined() >= 1,
        "the dead batch is quarantined"
    );
    let faults = &report.leaves[1].faults;
    assert!(faults.worker_deaths >= 1);
    assert!(faults.respawns >= 1);
    let decisions = report.decisions_in_submit_order();
    assert_eq!(oracle.check(&decisions), report.total_quarantined());
    assert!(
        decisions[mark..].iter().all(Option::is_some),
        "post-epoch packets are never quarantined"
    );
}

#[test]
fn epoch_commits_through_a_stalled_leaf() {
    // Leaf 0's one worker stalls 400 ms on a batch it was handed before
    // the epoch. The epoch commits at once on both leaves; the stalled
    // packet is still decided by the rules live when it was submitted;
    // only an explicit drain sees the stall.
    let stall_sym = symbols_owned_by(0, 2, 1).remove(0);
    let old_rules = format!("sym == {stall_sym} : fwd(1)");
    let new_rules = format!("sym == {stall_sym} : fwd(2)");
    let cfg = EngineConfig {
        workers: 1,
        batch_packets: 1,
        watchdog_ms: 40,
        record_decisions: true,
        ..EngineConfig::default()
    };
    let fcfg = FabricConfig::uniform(2, "ev.sym", extractor(), cfg);
    let mut fabric = Fabric::start(&compile(&old_rules), &fcfg).unwrap();
    let mut oracle = big_switch(&old_rules);
    let next = compile(&new_rules);
    let gens: Vec<u64> = (0..2).map(|l| fabric.leaf_generation(l)).collect();
    // Armed before the first submit: leaf 0's one worker stalls on its
    // first batch, which is that packet alone.
    fabric.stall_leaf(0, 400);
    oracle.submit(&event(&stall_sym, 60), 0);
    fabric.submit(&event(&stall_sym, 60), 0); // dispatches immediately, stalls 400 ms

    fabric
        .install_master(next)
        .expect("a stall cannot fail an epoch");
    oracle.publish(&parse_program(&new_rules).unwrap());
    assert_eq!(fabric.epoch(), 1);
    for (l, g) in gens.iter().enumerate() {
        assert_eq!(fabric.leaf_generation(l), g + 1, "leaf {l} committed");
    }
    // The stalled batch is still in flight: a drain times out on it.
    match fabric.quiesce() {
        Err(FabricFault::Quiesce {
            leaf: 0,
            fault: EngineFault::QuiesceTimeout { .. },
        }) => {}
        other => panic!("expected a leaf-0 quiesce timeout, got {other:?}"),
    }
    assert!(!fabric.degraded(), "a stall is not a death");

    oracle.submit(&event(&stall_sym, 60), 0);
    fabric.submit(&event(&stall_sym, 60), 0);
    let report = fabric.finish();
    assert!(report.reconciles());
    assert_eq!(report.total_quarantined(), 0);
    assert_eq!(report.robustness.leaf_deaths, 0);
    let decisions = report.decisions_in_submit_order();
    assert_eq!(oracle.check(&decisions), 0);
    let port = |i: usize| decisions[i].unwrap().ports.clone();
    assert_eq!(port(0), vec![camus_pipeline::PortId(1)], "old rules");
    assert_eq!(port(1), vec![camus_pipeline::PortId(2)], "new rules");
}

#[test]
fn back_to_back_epochs_without_drain_keep_packets_in_their_epoch() {
    // Three rule generations, two epoch swaps, continuous traffic with
    // partial batches straddling both commits. Every packet must be
    // decided under exactly the rule set live at its submission, and
    // the ledger must reconcile with zero quarantine.
    let generations = [OLD_RULES, NEW_RULES, "sym == BB and val < 9 : fwd(8)"];
    let cfg = EngineConfig {
        workers: 2,
        batch_packets: 4,
        record_decisions: true,
        ..EngineConfig::default()
    };
    let fcfg = FabricConfig::uniform(2, "ev.sym", extractor(), cfg);
    let mut fabric = Fabric::start(&compile(generations[0]), &fcfg).unwrap();
    let mut oracle = big_switch(generations[0]);

    let evs: Vec<Vec<u8>> = ["AA", "BB", "CC", "DD", "EE"]
        .iter()
        .flat_map(|s| [3u32, 60].map(|v| event(s, v)))
        .collect();
    for (gen_idx, rules) in generations.iter().enumerate() {
        if gen_idx > 0 {
            // No quiesce, no drain: partial batches are in flight here.
            fabric.install_master(compile(rules)).unwrap();
            oracle.publish(&parse_program(rules).unwrap());
        }
        for e in &evs {
            oracle.submit(e, 0);
            fabric.submit(e, 0);
        }
    }
    assert_eq!(fabric.epoch(), 2);
    let report = fabric.finish();
    assert!(report.reconciles());
    assert_eq!(report.total_quarantined(), 0);
    assert_eq!(report.submitted(), (generations.len() * evs.len()) as u64);
    let decisions = report.decisions_in_submit_order();
    assert_eq!(oracle.check(&decisions), 0);
}
