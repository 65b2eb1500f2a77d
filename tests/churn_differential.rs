//! Differential testing of live subscription churn: random update
//! sequences driven through [`IncrementalCompiler::update`]. After
//! every step the report's program — what the engine and the fabric
//! install — must forward identically to a fresh full
//! `Compiler::compile` of the cumulative rule set and with the naive
//! AST interpreter (`camus::workload::EpochOracle`, the oracle every
//! differential suite shares), and the report's entry counts must be
//! the diff from the previous step's program.
//!
//! Sequences mix both directions of the delta path (adds and removals
//! inside the alphabet — a removal strips the rule from the live
//! diagram and re-asserts its neighbours) with the `NeedsFullRecompile`
//! fallback (out-of-alphabet adds, the one remaining full rebuild), so
//! every update plane route is covered.

use camus::compiler::{Compiler, CompilerOptions, IncrementalCompiler};
use camus::workload::{entry_diff, siena_churn, ChurnConfig, EpochOracle, SienaConfig};

/// Dense Siena rules (plenty of overlap and matches) for `seed`.
fn siena(seed: u64) -> SienaConfig {
    SienaConfig {
        int_attributes: 2,
        symbol_attributes: 1,
        symbol_alphabet: 8,
        int_range: 60,
        predicates_per_subscription: 2,
        seed,
        ..Default::default()
    }
}

/// Four steps of two adds and `removes_per_step` removals on six rules.
fn churn(seed: u64, removes_per_step: usize) -> ChurnConfig {
    ChurnConfig {
        initial_rules: 6,
        steps: 4,
        adds_per_step: 2,
        removes_per_step,
        seed: seed ^ 0xFEED,
        ..Default::default()
    }
}

/// Runs one random update sequence and checks each report after every
/// step against a fresh full compile, the interpreter and the entry
/// diff from the previous report's program.
fn run_churn_sequence(siena: &SienaConfig, churn: &ChurnConfig, out_of_alphabet: usize) {
    let seed = siena.seed;
    let plan = siena_churn(siena, churn, out_of_alphabet);
    let spec = plan.base.spec.clone();
    let opts = CompilerOptions::raw();

    let mut session =
        IncrementalCompiler::new(spec.clone(), &opts, &plan.base.rules).expect("alphabet resolves");
    let mut prev = session
        .install(&plan.schedule.initial)
        .expect("initial install")
        .pipeline;

    let full_compiler = Compiler::new(spec.clone(), opts).expect("spec compiles");
    let mut oracle = EpochOracle::new(&spec, |r| full_compiler.compile(r).unwrap().pipeline);
    let events = siena.generate_events(&plan.base, 15);
    let mut full_rebuilds = 0usize;

    for (k, step) in plan.schedule.steps.iter().enumerate() {
        let mut report = session
            .update(&step.add, &step.remove)
            .expect("update compiles");
        full_rebuilds += usize::from(report.full_rebuild);
        assert_eq!(
            (
                report.entries_added,
                report.entries_removed,
                report.entries_kept
            ),
            entry_diff(&prev, &report.pipeline),
            "seed {seed} step {k}"
        );

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

        oracle.publish(&active);
        oracle.check_pipeline(&mut report.pipeline, &events);
        prev = report.pipeline;
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
        run_churn_sequence(&siena(seed), &churn(seed, (seed % 3) as usize), 0);
    }
}

#[test]
fn out_of_alphabet_adds_round_trip_through_full_recompile() {
    // Adds drawn from outside the session alphabet force the
    // `NeedsFullRecompile` fallback inside `update`; behaviour must
    // still track the full compile exactly.
    for seed in [3u64, 17, 29, 41, 53] {
        run_churn_sequence(&siena(seed), &churn(seed, 1), 2);
    }
}

#[test]
fn pure_add_sequences_stay_on_the_delta_path() {
    // With no removals and no out-of-alphabet rules every update is a
    // delta; check the reports actually say so.
    let siena = SienaConfig {
        symbol_alphabet: 6,
        int_range: 40,
        ..siena(7)
    };
    let churn = ChurnConfig {
        initial_rules: 5,
        steps: 5,
        seed: 0xADD5,
        ..churn(0, 0)
    };
    run_churn_sequence(&siena, &churn, 0);
}
