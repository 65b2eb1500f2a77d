//! Differential testing over generated workloads: for Siena-style
//! subscription sets, the compiled pipeline must forward each event to
//! exactly the union of the ports of the matching subscriptions —
//! checked against the direct AST interpreter by
//! `camus::workload::EpochOracle` (shared with every differential
//! suite), across seeds and predicate counts.

use camus::compiler::{Compiler, CompilerOptions};
use camus::workload::{EpochOracle, SienaConfig};

fn run_differential(cfg: SienaConfig, events: usize) {
    let w = cfg.generate();
    let compiler =
        Compiler::new(w.spec.clone(), CompilerOptions::raw()).expect("siena spec compiles");
    let mut prog = compiler.compile(&w.rules).expect("siena rules compile");
    assert!(prog.bdd.validate().is_ok());
    let mut oracle = EpochOracle::new(&w.spec, |r| compiler.compile(r).unwrap().pipeline);
    oracle.publish(&w.rules);
    oracle.check_pipeline(&mut prog.pipeline, &cfg.generate_events(&w, events));
}

#[test]
fn siena_default_workload_matches_interpreter() {
    run_differential(SienaConfig::default(), 300);
}

#[test]
fn siena_across_seeds() {
    for seed in [1u64, 7, 42, 1234] {
        run_differential(
            SienaConfig {
                seed,
                subscriptions: 20,
                ..Default::default()
            },
            150,
        );
    }
}

#[test]
fn siena_across_predicate_counts() {
    for k in 1..=5 {
        run_differential(
            SienaConfig {
                predicates_per_subscription: k,
                subscriptions: 15,
                seed: 99 + k as u64,
                ..Default::default()
            },
            150,
        );
    }
}

#[test]
fn siena_symbol_only_universe() {
    run_differential(
        SienaConfig {
            int_attributes: 0,
            symbol_attributes: 4,
            predicates_per_subscription: 2,
            subscriptions: 25,
            symbol_alphabet: 6, // dense: plenty of matches
            ..Default::default()
        },
        200,
    );
}

#[test]
fn siena_range_only_universe() {
    run_differential(
        SienaConfig {
            int_attributes: 4,
            symbol_attributes: 0,
            predicates_per_subscription: 3,
            subscriptions: 25,
            int_range: 50, // dense ranges: heavy overlap
            ..Default::default()
        },
        200,
    );
}
