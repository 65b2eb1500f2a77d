//! Golden cold compile: a fixed ITCH pool must compile to pinned
//! figures.
//!
//! `tests/parallel_compile.rs` compares worker counts within one build
//! of the compiler, so a change that moves the output the same way at
//! every worker count passes it. This test pins the output itself.
//! `allocated_nodes` counts the build store before canonical
//! renumbering, so it pins the sequence of store operations the merge
//! DAG replays (DESIGN §10), not just the final diagram. The
//! control-plane rows are pinned by an FNV-1a hash; the per-table key
//! headers are left out of it, as they name fields and hold no row.
//!
//! A change that is meant to move these figures updates them here, and
//! says why in its change notes.

use camus::compiler::{Compiler, CompilerOptions};
use camus::engine::shard::fnv1a;
use camus::lang::{parse_spec, spec::ITCH_SPEC};
use camus::workload::{generate_itch_subscriptions, ItchSubsConfig};

#[test]
fn itch_pool_of_5000_compiles_to_the_pinned_figures() {
    let rules = generate_itch_subscriptions(&ItchSubsConfig {
        subscriptions: 5000,
        symbols: 100,
        seed: 1,
        ..Default::default()
    });
    let compiler = Compiler::new(parse_spec(ITCH_SPEC).unwrap(), CompilerOptions::default())
        .expect("spec compiles");
    let prog = compiler.compile(&rules).expect("rules compile");
    let rows: String = prog
        .control_plane()
        .lines()
        .filter(|l| !l.starts_with("table "))
        .flat_map(|l| [l, "\n"])
        .collect();
    let s = &prog.stats;
    let got = (
        s.allocated_nodes,
        s.bdd_nodes,
        s.states,
        s.total_entries,
        s.mcast_groups,
        fnv1a(rows.as_bytes()),
    );
    // (allocated_nodes, bdd_nodes, states, total_entries, mcast_groups,
    // control-plane rows hash)
    let want = (40_214, 4_878, 4_354, 9_231, 4_174, 0x9f00_215b_b003_110e);
    assert_eq!(got, want);
}
