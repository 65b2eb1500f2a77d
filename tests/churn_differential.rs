//! Differential testing of live subscription churn: random update
//! sequences driven through [`IncrementalCompiler::update`], with the
//! deltas replayed onto a running pipeline step by step. After every
//! step the updated pipeline must forward identically to a fresh full
//! `Compiler::compile` of the cumulative rule set — and both must
//! agree with the naive AST interpreter in `camus::workload`, the
//! same oracle the Siena differential tests use. The spliced tables
//! must also hold exactly the entries of the program the report
//! carries, which is what the engine and the fabric install.
//!
//! Sequences mix both directions of the delta path (adds and removals
//! inside the alphabet — a removal strips the rule from the live
//! diagram and re-asserts its neighbours) with the `NeedsFullRecompile`
//! fallback (out-of-alphabet adds, the one remaining full rebuild), so
//! every update plane route is covered.

use camus::compiler::{Compiler, CompilerOptions, IncrementalCompiler};
use camus::workload::{
    entry_multisets, naive_ports_for_event, siena_churn, ChurnConfig, SienaConfig,
};

fn decision_ports(pipe: &mut camus::pipeline::Pipeline, ev: &[u8]) -> Vec<u16> {
    pipe.process(ev, 0)
        .expect("event parses")
        .ports
        .iter()
        .map(|p| p.0)
        .collect()
}

/// Runs one random update sequence and checks the pipeline after every
/// step against a fresh full compile and the interpreter.
fn run_churn_sequence(seed: u64, removes_per_step: usize, out_of_alphabet: usize) {
    let siena = SienaConfig {
        int_attributes: 2,
        symbol_attributes: 1,
        symbol_alphabet: 8,
        int_range: 60, // dense: plenty of overlap and matches
        predicates_per_subscription: 2,
        seed,
        ..Default::default()
    };
    let churn = ChurnConfig {
        initial_rules: 6,
        steps: 4,
        adds_per_step: 2,
        removes_per_step,
        seed: seed ^ 0xFEED,
        ..Default::default()
    };
    let plan = siena_churn(&siena, &churn, out_of_alphabet);
    let spec = plan.base.spec.clone();
    let opts = CompilerOptions::raw();

    let mut session =
        IncrementalCompiler::new(spec.clone(), &opts, &plan.base.rules).expect("alphabet resolves");
    let report = session
        .install(&plan.schedule.initial)
        .expect("initial install");
    // The running pipeline: only ever touched through `apply_to`.
    let mut mirror = report.pipeline.clone();

    let full_compiler = Compiler::new(spec.clone(), opts).expect("spec compiles");
    let events = siena.generate_events(&plan.base, 15);
    let mut full_rebuilds = 0usize;

    for (k, step) in plan.schedule.steps.iter().enumerate() {
        let report = session
            .update(&step.add, &step.remove)
            .expect("update compiles");
        report.apply_to(&mut mirror).expect("update applies");
        full_rebuilds += usize::from(report.full_rebuild);
        let carried = entry_multisets(&report.pipeline);
        assert_eq!(entry_multisets(&mirror), carried, "seed {seed} step {k}");

        let active = plan.schedule.rules_after(k + 1);
        assert_eq!(
            session.active_rules(),
            active.as_slice(),
            "seed {seed} step {k}: session active set drifted from the replay"
        );
        if out_of_alphabet == 0 {
            assert!(
                !report.full_rebuild,
                "seed {seed} step {k}: an in-alphabet step ({} adds, {} removes) must be a delta",
                step.add.len(),
                step.remove.len()
            );
        }

        let mut full = full_compiler
            .compile(&active)
            .expect("cumulative set compiles")
            .pipeline;
        for ev in &events {
            let incremental = decision_ports(&mut mirror, ev);
            let fresh = decision_ports(&mut full, ev);
            let oracle = naive_ports_for_event(&spec, &active, ev);
            assert_eq!(
                incremental, fresh,
                "seed {seed} step {k}: incremental vs full compile, event {ev:x?}"
            );
            assert_eq!(
                incremental, oracle,
                "seed {seed} step {k}: incremental vs interpreter, event {ev:x?}"
            );
        }
    }
    if out_of_alphabet > 0 {
        assert!(
            full_rebuilds > 0,
            "seed {seed}: out-of-alphabet adds must go through a full rebuild"
        );
    }
}

#[test]
fn fifty_random_update_sequences_match_full_recompile() {
    // ≥ 50 sequences; removal pressure cycles so add-only, mixed and
    // removal-heavy sequences all appear.
    for seed in 0..50u64 {
        run_churn_sequence(seed, (seed % 3) as usize, 0);
    }
}

#[test]
fn out_of_alphabet_adds_round_trip_through_full_recompile() {
    // Adds spliced from outside the session alphabet force the
    // `NeedsFullRecompile` fallback inside `update`; behaviour must
    // still track the full compile exactly.
    for seed in [3u64, 17, 29, 41, 53] {
        run_churn_sequence(seed, 1, 2);
    }
}

#[test]
fn pure_add_sequences_stay_on_the_delta_path() {
    // With no removals and no out-of-alphabet rules every update is a
    // splice; check the reports actually say so.
    let siena = SienaConfig {
        int_attributes: 2,
        symbol_attributes: 1,
        symbol_alphabet: 6,
        int_range: 40,
        predicates_per_subscription: 2,
        seed: 7,
        ..Default::default()
    };
    let churn = ChurnConfig {
        initial_rules: 5,
        steps: 5,
        adds_per_step: 2,
        removes_per_step: 0,
        seed: 0xADD5,
        ..Default::default()
    };
    let plan = siena_churn(&siena, &churn, 0);
    let opts = CompilerOptions::raw();
    let mut session =
        IncrementalCompiler::new(plan.base.spec.clone(), &opts, &plan.base.rules).unwrap();
    let mut mirror = session.install(&plan.schedule.initial).unwrap().pipeline;
    let full_compiler = Compiler::new(plan.base.spec.clone(), opts).unwrap();
    let events = siena.generate_events(&plan.base, 10);

    for (k, step) in plan.schedule.steps.iter().enumerate() {
        let report = session.update(&step.add, &step.remove).unwrap();
        assert!(!report.full_rebuild, "step {k} should be a delta update");
        report.apply_to(&mut mirror).unwrap();

        let active = plan.schedule.rules_after(k + 1);
        let mut full = full_compiler.compile(&active).unwrap().pipeline;
        for ev in &events {
            assert_eq!(
                decision_ports(&mut mirror, ev),
                decision_ports(&mut full, ev),
                "step {k}, event {ev:x?}"
            );
        }
    }
}
