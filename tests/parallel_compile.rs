//! Sharded-compile determinism: the compiler must produce **bit-identical**
//! output at any worker count. The build partitions rules into logical
//! shards and merges along a DAG that is a function of the pool size
//! alone; `compile_shards` only picks how many threads execute it. This
//! is the guardrail that the DAG really is pinned (and that canonical
//! renumbering erases allocation history): every table entry, multicast
//! group and statistic of a K-worker compile is compared against the
//! sequential (K=1) compile, and the K>1 output is additionally checked
//! against the naive AST interpreter (`camus::workload::EpochOracle`).

use camus::compiler::{Compiler, CompilerOptions};
use camus::lang::ast::Rule;
use camus::lang::spec::Spec;
use camus::pipeline::multicast::GroupId;
use camus::workload::{generate_itch_subscriptions, EpochOracle, ItchSubsConfig, SienaConfig};

fn compile_with_shards(
    spec: &Spec,
    rules: &[Rule],
    shards: usize,
    compress_bits: Option<u32>,
) -> camus::compiler::CompiledProgram {
    let opts = CompilerOptions {
        compile_shards: shards,
        compress_bits,
        ..CompilerOptions::raw()
    };
    Compiler::new(spec.clone(), opts)
        .expect("spec compiles")
        .compile(rules)
        .expect("rules compile")
}

/// Asserts two compiled programs are bit-identical in everything the
/// control plane would install: tables (names, keys, every entry in
/// order), multicast groups, rendered control-plane rules, and the
/// schedule-independent statistics.
fn assert_identical(a: &camus::compiler::CompiledProgram, b: &camus::compiler::CompiledProgram) {
    assert_eq!(a.pipeline.tables.len(), b.pipeline.tables.len());
    for (ta, tb) in a.pipeline.tables.iter().zip(&b.pipeline.tables) {
        assert_eq!(ta.name, tb.name);
        assert_eq!(ta.keys(), tb.keys(), "keys of {}", ta.name);
        assert_eq!(ta.default_ops, tb.default_ops, "defaults of {}", ta.name);
        assert_eq!(ta.len(), tb.len(), "entry count of {}", ta.name);
        for (i, (ea, eb)) in ta.entries().zip(tb.entries()).enumerate() {
            assert_eq!(ea, eb, "entry {i} of {}", ta.name);
        }
    }
    assert_eq!(a.pipeline.mcast.len(), b.pipeline.mcast.len());
    for g in 0..a.pipeline.mcast.len() as u32 {
        assert_eq!(
            a.pipeline.mcast.ports(GroupId(g)),
            b.pipeline.mcast.ports(GroupId(g)),
            "multicast group {g}"
        );
    }
    assert_eq!(a.control_plane(), b.control_plane());

    // Statistics, minus the fields that record the schedule itself
    // (shards, memo counters, pre-canonical allocation).
    assert_eq!(a.stats.conjunctions, b.stats.conjunctions);
    assert_eq!(a.stats.unsat_conjunctions, b.stats.unsat_conjunctions);
    assert_eq!(a.stats.bdd_nodes, b.stats.bdd_nodes);
    assert_eq!(a.stats.bdd_terminals, b.stats.bdd_terminals);
    assert_eq!(a.stats.table_entries, b.stats.table_entries);
    assert_eq!(a.stats.total_entries, b.stats.total_entries);
    assert_eq!(a.stats.mcast_groups, b.stats.mcast_groups);
    assert_eq!(a.stats.states, b.stats.states);

    // The canonical BDDs themselves must be structurally equal.
    assert_eq!(a.bdd.root(), b.bdd.root());
    assert_eq!(a.bdd.node_count(), b.bdd.node_count());
    assert_eq!(a.bdd.action_set_count(), b.bdd.action_set_count());
}

#[test]
fn itch_pool_is_bit_identical_across_shard_counts() {
    let spec = camus::lang::parse_spec(camus::lang::spec::ITCH_SPEC).unwrap();
    let rules = generate_itch_subscriptions(&ItchSubsConfig {
        subscriptions: 1_500,
        ..Default::default()
    });
    let seq = compile_with_shards(&spec, &rules, 1, None);
    assert_eq!(seq.stats.shards, 1);
    for k in [2usize, 8] {
        let par = compile_with_shards(&spec, &rules, k, None);
        assert_eq!(par.stats.shards, k.min(rules.len()).max(1));
        assert_identical(&seq, &par);
    }
}

#[test]
fn itch_pool_with_compression_is_bit_identical() {
    let spec = camus::lang::parse_spec(camus::lang::spec::ITCH_SPEC).unwrap();
    let rules = generate_itch_subscriptions(&ItchSubsConfig {
        subscriptions: 800,
        seed: 0xBEEF,
        ..Default::default()
    });
    let seq = compile_with_shards(&spec, &rules, 1, Some(10));
    for k in [2usize, 8] {
        assert_identical(&seq, &compile_with_shards(&spec, &rules, k, Some(10)));
    }
}

#[test]
fn siena_pools_are_bit_identical_across_shards_and_seeds() {
    for seed in [3u64, 77, 2024] {
        let cfg = SienaConfig {
            subscriptions: 120,
            seed,
            ..Default::default()
        };
        let w = cfg.generate();
        let seq = compile_with_shards(&w.spec, &w.rules, 1, None);
        for k in [2usize, 8] {
            assert_identical(&seq, &compile_with_shards(&w.spec, &w.rules, k, None));
        }
    }
}

#[test]
fn sharded_compile_agrees_with_naive_interpreter() {
    let cfg = SienaConfig {
        subscriptions: 60,
        seed: 5150,
        ..Default::default()
    };
    let w = cfg.generate();
    let mut prog = compile_with_shards(&w.spec, &w.rules, 8, None);
    assert!(prog.bdd.validate().is_ok());
    let mut oracle = EpochOracle::new(&w.spec, |r| {
        compile_with_shards(&w.spec, r, 1, None).pipeline
    });
    oracle.publish(&w.rules);
    oracle.check_pipeline(&mut prog.pipeline, &cfg.generate_events(&w, 250));
}

#[test]
fn degenerate_pools_compile_at_any_shard_count() {
    let spec = camus::lang::parse_spec(camus::lang::spec::ITCH_SPEC).unwrap();
    // Empty rule set.
    let seq = compile_with_shards(&spec, &[], 1, None);
    for k in [2usize, 8] {
        assert_identical(&seq, &compile_with_shards(&spec, &[], k, None));
    }
    // Fewer rules than shards.
    let rules = generate_itch_subscriptions(&ItchSubsConfig {
        subscriptions: 3,
        ..Default::default()
    });
    let seq = compile_with_shards(&spec, &rules, 1, None);
    for k in [2usize, 8] {
        assert_identical(&seq, &compile_with_shards(&spec, &rules, k, None));
    }
}
