//! End-to-end property tests: for arbitrary subscription rule sets over
//! the ITCH spec, the compiled pipeline forwards exactly the union of
//! the ports of all matching rules (§2's semantics), for every packet —
//! and every compiler configuration (ordering heuristic, domain
//! compression) agrees.

// Gated off by default: `proptest` is an external crate the offline
// build environment cannot fetch. Vendor proptest into the workspace
// and enable the `proptest` feature to run this suite.
#![cfg(feature = "proptest")]

use camus_bdd::order::OrderHeuristic;
use camus_core::{Compiler, CompilerOptions};
use camus_itch::Side;
use camus_lang::ast::{Action, Atom, Cond, FieldRef, Operand, RelOp, Rule, Value};
use camus_lang::parse_spec;
use camus_workload::{ports, raw_add_order};
use proptest::prelude::*;

const SYMBOLS: [&str; 5] = ["GOOGL", "MSFT", "AAPL", "ORCL", "AMZN"];

/// A generated atomic predicate over the ITCH query fields.
#[derive(Debug, Clone)]
enum GenAtom {
    Shares(RelOp, u32),
    Price(RelOp, u32),
    Stock(bool, usize), // (equals?, symbol index)
    Side(bool, bool),   // (equals?, buy?)
}

impl GenAtom {
    fn to_cond(&self) -> Cond {
        let atom = |field: &str, op: RelOp, value: Value| {
            Cond::Atom(Atom {
                operand: Operand::Field(FieldRef::short(field.to_string())),
                op,
                value,
            })
        };
        match self {
            GenAtom::Shares(op, v) => atom("shares", *op, Value::Int(u64::from(*v))),
            GenAtom::Price(op, v) => atom("price", *op, Value::Int(u64::from(*v))),
            GenAtom::Stock(eq, i) => atom(
                "stock",
                if *eq { RelOp::Eq } else { RelOp::Ne },
                Value::Symbol(SYMBOLS[*i].to_string()),
            ),
            GenAtom::Side(eq, buy) => atom(
                "buy_sell",
                if *eq { RelOp::Eq } else { RelOp::Ne },
                Value::Int(u64::from(if *buy { b'B' } else { b'S' })),
            ),
        }
    }

    fn eval(&self, shares: u32, price: u32, sym: usize, buy: bool) -> bool {
        match self {
            GenAtom::Shares(op, v) => op.eval(u64::from(shares), u64::from(*v)),
            GenAtom::Price(op, v) => op.eval(u64::from(price), u64::from(*v)),
            GenAtom::Stock(eq, i) => (sym == *i) == *eq,
            GenAtom::Side(eq, b) => (buy == *b) == *eq,
        }
    }
}

fn arb_relop() -> impl Strategy<Value = RelOp> {
    prop_oneof![
        Just(RelOp::Lt),
        Just(RelOp::Gt),
        Just(RelOp::Eq),
        Just(RelOp::Le),
        Just(RelOp::Ge),
        Just(RelOp::Ne),
    ]
}

fn arb_atom() -> impl Strategy<Value = GenAtom> {
    prop_oneof![
        (arb_relop(), 0u32..200).prop_map(|(o, v)| GenAtom::Shares(o, v)),
        (arb_relop(), 0u32..200).prop_map(|(o, v)| GenAtom::Price(o, v)),
        (any::<bool>(), 0usize..SYMBOLS.len()).prop_map(|(e, i)| GenAtom::Stock(e, i)),
        (any::<bool>(), any::<bool>()).prop_map(|(e, b)| GenAtom::Side(e, b)),
    ]
}

type GenRule = (Vec<GenAtom>, u16);

fn arb_rules() -> impl Strategy<Value = Vec<GenRule>> {
    prop::collection::vec((prop::collection::vec(arb_atom(), 1..4), 1u16..8), 1..10)
}

fn to_rules(gen: &[GenRule]) -> Vec<Rule> {
    gen.iter()
        .map(|(atoms, port)| {
            let cond = atoms
                .iter()
                .map(GenAtom::to_cond)
                .reduce(|a, b| a.and(b))
                .expect("at least one atom");
            Rule::new(cond, vec![Action::Fwd(vec![*port])])
        })
        .collect()
}

fn naive_ports(gen: &[GenRule], shares: u32, price: u32, sym: usize, buy: bool) -> Vec<u16> {
    let mut out: Vec<u16> = gen
        .iter()
        .filter(|(atoms, _)| atoms.iter().all(|a| a.eval(shares, price, sym, buy)))
        .map(|(_, p)| *p)
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

type Packet = (u32, u32, usize, bool);

fn arb_packets() -> impl Strategy<Value = Vec<Packet>> {
    prop::collection::vec(
        (0u32..250, 0u32..250, 0usize..SYMBOLS.len(), any::<bool>()),
        1..16,
    )
}

fn run_config(
    rules: &[Rule],
    gen: &[GenRule],
    packets: &[Packet],
    options: CompilerOptions,
) -> Result<(), TestCaseError> {
    let spec = parse_spec(camus_lang::spec::ITCH_SPEC).unwrap();
    let compiler = Compiler::new(spec, options).unwrap();
    let prog = compiler.compile(rules).unwrap();
    let mut pipe = prog.pipeline;
    for &(shares, price, sym, buy) in packets {
        let side = if buy { Side::Buy } else { Side::Sell };
        let pkt = raw_add_order(SYMBOLS[sym], side, shares, price);
        let d = pipe.process(&pkt, 0).unwrap();
        let got = ports(&d);
        let want = naive_ports(gen, shares, price, sym, buy);
        prop_assert_eq!(
            got,
            want,
            "shares={} price={} sym={} buy={}",
            shares,
            price,
            sym,
            buy
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Compiled pipeline == naive interpreter, default options.
    #[test]
    fn pipeline_matches_naive((gen, packets) in (arb_rules(), arb_packets())) {
        let rules = to_rules(&gen);
        run_config(&rules, &gen, &packets, CompilerOptions::raw())?;
    }

    /// Every ordering heuristic produces the same forwarding behaviour.
    #[test]
    fn heuristics_agree((gen, packets) in (arb_rules(), arb_packets())) {
        let rules = to_rules(&gen);
        for h in OrderHeuristic::ALL {
            let opts = CompilerOptions { heuristic: h, ..CompilerOptions::raw() };
            run_config(&rules, &gen, &packets, opts)?;
        }
    }

    /// Domain compression never changes behaviour.
    #[test]
    fn compression_agrees((gen, packets) in (arb_rules(), arb_packets())) {
        let rules = to_rules(&gen);
        let opts = CompilerOptions { compress_bits: Some(8), ..CompilerOptions::raw() };
        run_config(&rules, &gen, &packets, opts)?;
    }

    /// Entry counts are identical across recompilations (determinism).
    #[test]
    fn compilation_is_deterministic(gen in arb_rules()) {
        let rules = to_rules(&gen);
        let spec = parse_spec(camus_lang::spec::ITCH_SPEC).unwrap();
        let compiler = Compiler::new(spec, CompilerOptions::raw()).unwrap();
        let a = compiler.compile(&rules).unwrap();
        let b = compiler.compile(&rules).unwrap();
        prop_assert_eq!(a.stats.clone(), b.stats);
        prop_assert_eq!(a.control_plane(), b.control_plane());
    }
}

// ------------------------------------------------------- live churn

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Live churn: after every step of a random update sequence
    /// driven through `IncrementalCompiler::update`, the report's
    /// program must forward identically to a fresh full compile of the
    /// cumulative rule set (and both must match the naive interpreter),
    /// its entry counts must be the diff from the previous report's
    /// program, and its tables must hold what a whole-diagram emission
    /// with the session's state ids makes. Covers delta adds, delta removals (strip + re-assert)
    /// and the out-of-alphabet fallback — the only step allowed to be a
    /// full rebuild.
    #[test]
    fn incremental_churn_matches_full_recompile(
        seed in 0u64..100_000,
        removes_per_step in 0usize..3,
        out_of_alphabet in 0usize..2,
    ) {
        use camus_core::IncrementalCompiler;
        use camus_workload::{
            entry_diff, entry_multisets, siena_churn, ChurnConfig, EpochOracle, SienaConfig,
        };

        let siena = SienaConfig {
            int_attributes: 2,
            symbol_attributes: 1,
            symbol_alphabet: 8,
            int_range: 60,
            predicates_per_subscription: 2,
            seed,
            ..Default::default()
        };
        let churn = ChurnConfig {
            initial_rules: 5,
            steps: 3,
            adds_per_step: 2,
            removes_per_step,
            seed: seed ^ 0xFEED,
            ..Default::default()
        };
        let plan = siena_churn(&siena, &churn, out_of_alphabet);
        let spec = plan.base.spec.clone();
        let opts = CompilerOptions::raw();

        let mut session = IncrementalCompiler::new(spec.clone(), &opts, &plan.base.rules).unwrap();
        let mut prev = session.install(&plan.schedule.initial).unwrap().pipeline;
        let full_compiler = Compiler::new(spec.clone(), opts).unwrap();
        let mut oracle = EpochOracle::new(&spec, |r| full_compiler.compile(r).unwrap().pipeline);
        let events = siena.generate_events(&plan.base, 10);

        for (k, step) in plan.schedule.steps.iter().enumerate() {
            let mut report = session.update(&step.add, &step.remove).unwrap();
            prop_assert!(out_of_alphabet > 0 || !report.full_rebuild, "step {}", k);
            let counts = (report.entries_added, report.entries_removed, report.entries_kept);
            prop_assert_eq!(counts, entry_diff(&prev, &report.pipeline), "step {}", k);
            // The row groups hold what Algorithm 1 over the whole
            // diagram emits with the same state ids.
            let whole = session.emit_whole_diagram().unwrap();
            prop_assert_eq!(&report.pipeline.init_fields, &whole.init_fields, "step {}", k);
            prop_assert_eq!(entry_multisets(&report.pipeline), entry_multisets(&whole), "step {}", k);

            let active = plan.schedule.rules_after(k + 1);
            prop_assert_eq!(session.active_rules(), active.as_slice());
            oracle.publish(&active);
            oracle.check_pipeline(&mut report.pipeline, &events);
            prev = report.pipeline;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Adding rules and removing them again returns the program to
    /// where it was: the taken-back program forwards every sampled event
    /// as it did before the add, the leaf table has exactly the rows it
    /// had, and — once the session's diagram is its own product rather
    /// than the cold compiler's (one warm-up round; removal does not
    /// replay the sharded build's merge order, so the first round may
    /// settle a few match entries above or below the cold count) — no
    /// table ends up with more entries than before the add. Removal
    /// leaves no residue that a second round would add to.
    ///
    /// Two more rounds take a mixed `(adds, removes)` batch back with
    /// its inverse — `camusd`'s rollback — the second across the rebuild
    /// a rule from outside the alphabet forces: rule set (as a set) and
    /// forwarding return, and match the naive oracle.
    #[test]
    fn add_then_remove_restores_the_program(
        seed in 0u64..100_000,
        extra in 1usize..4,
    ) {
        use camus_core::IncrementalCompiler;
        use camus_workload::{entry_diff, EpochOracle, SienaConfig};

        let siena = SienaConfig {
            subscriptions: 8 + extra,
            int_attributes: 2,
            symbol_attributes: 1,
            symbol_alphabet: 8,
            int_range: 60,
            predicates_per_subscription: 2,
            seed,
            ..Default::default()
        };
        let wl = siena.generate();
        let (base, added) = wl.rules.split_at(8);
        let mut session =
            IncrementalCompiler::new(wl.spec.clone(), &CompilerOptions::raw(), &wl.rules).unwrap();
        let cold = session.install(base).unwrap();
        let compiler = Compiler::new(wl.spec.clone(), CompilerOptions::raw()).unwrap();
        let mut oracle = EpochOracle::new(&wl.spec, |r| compiler.compile(r).unwrap().pipeline);
        oracle.publish(base);
        let events = siena.generate_events(&wl, 20);
        let sizes = |p: &camus_pipeline::pipeline::Pipeline| -> Vec<(String, usize)> {
            p.tables.iter().map(|t| (t.name.clone(), t.len())).collect()
        };

        let novel = SienaConfig { subscriptions: 1, seed: seed ^ 0x00B, ..siena.clone() }
            .generate()
            .rules;
        let batches = [
            (added.to_vec(), &base[..0]),
            (added.to_vec(), &base[..0]),
            (added.to_vec(), &base[..extra]),
            ([added, &novel].concat(), &base[extra..2 * extra]),
        ];
        let mut before_add = sizes(&cold.pipeline);
        let mut prev = cold.pipeline;
        for (round, (adds, removes)) in batches.iter().enumerate() {
            let there = session.update(adds, removes).unwrap();
            let mut back = session.update(removes, adds).unwrap();
            prop_assert!(!back.full_rebuild, "the inverse is always a rewrite");
            for (from, r) in [(&prev, &there), (&there.pipeline, &back)] {
                let counts = (r.entries_added, r.entries_removed, r.entries_kept);
                prop_assert_eq!(counts, entry_diff(from, &r.pipeline), "round {}", round);
            }
            let active = session.active_rules();
            prop_assert!(active.len() == base.len() && base.iter().all(|r| active.contains(r)));

            let after = sizes(&back.pipeline);
            prop_assert_eq!(after.last(), before_add.last(), "leaf rows, round {}", round);
            if round == 1 {
                for (name, n) in &after {
                    let was = before_add.iter().find(|(t, _)| t == name).map_or(0, |(_, n)| *n);
                    prop_assert!(*n <= was, "{}: {} entries, {} before the add", name, n, was);
                }
            }
            oracle.check_pipeline(&mut back.pipeline, &events);
            before_add = after;
            prev = back.pipeline;
        }
    }
}

// ------------------------------------------------- fabric partition

/// The partition rule as first written, kept as a reference that does
/// not share code with `PartitionPlan`: forward state reachability per
/// leaf, entry by entry. One leaf mask per entry, per table.
fn reference_masks(
    master: &camus_pipeline::pipeline::Pipeline,
    shard_field: &str,
    leaves: usize,
    live_mask: u64,
) -> Vec<Vec<u64>> {
    use camus_core::owner_in_subset;
    use camus_pipeline::table::{ActionOp, MatchValue};
    use std::collections::HashSet;

    let state = master.layout.get("meta.state").unwrap();
    let shard = master.layout.get(shard_field).unwrap();
    let init = master
        .init_fields
        .iter()
        .find(|(f, _)| *f == state)
        .map_or(0, |&(_, v)| v);
    let live = |l: usize| live_mask & (1 << l) != 0;
    let mut reach: Vec<HashSet<u64>> = (0..leaves)
        .map(|l| {
            if live(l) {
                HashSet::from([init])
            } else {
                HashSet::new()
            }
        })
        .collect();
    let mut out = Vec::new();
    for t in &master.tables {
        if t.keys().first().is_none_or(|k| k.field != state) {
            out.push(vec![live_mask; t.len()]);
            continue;
        }
        let shard_table = t.keys().get(1).is_some_and(|k| k.field == shard);
        let mut masks = Vec::new();
        for e in t.entries() {
            let mut mask = 0u64;
            for l in (0..leaves).filter(|&l| live(l)) {
                let state_ok = match e.matches[0] {
                    MatchValue::Exact(s) => reach[l].contains(&s),
                    _ => true,
                };
                let owned = match (shard_table, e.matches.get(1)) {
                    (true, Some(&MatchValue::Exact(v))) => {
                        owner_in_subset(v, leaves, live_mask) == l
                    }
                    _ => true,
                };
                if state_ok && owned {
                    mask |= 1 << l;
                }
            }
            masks.push(if mask == 0 { live_mask } else { mask });
        }
        for (e, &mask) in t.entries().zip(&masks) {
            for op in &e.ops {
                if let ActionOp::SetField(f, v) = *op {
                    if f == state {
                        for (l, r) in reach.iter_mut().enumerate() {
                            if mask & (1 << l) != 0 {
                                r.insert(v);
                            }
                        }
                    }
                }
            }
        }
        out.push(masks);
    }
    out
}

/// Holds `plan`'s slices of `master` to [`reference_masks`]: each leaf
/// holds exactly the reference's rows, row for row, in order, and
/// `leaf_entries` counts them; no row is lost or placed beyond the live
/// leaves.
fn slices_match_the_reference(
    master: &camus_pipeline::pipeline::Pipeline,
    plan: &camus_core::PartitionPlan,
) -> Result<(), TestCaseError> {
    let reference = reference_masks(master, &plan.shard_field, plan.leaves, plan.live_mask);
    for (t, masks) in master.tables.iter().zip(&reference) {
        for (i, &m) in masks.iter().enumerate() {
            prop_assert!(m != 0, "table {} entry {} landed on no leaf", t.name, i);
            prop_assert_eq!(
                m & !plan.live_mask,
                0,
                "table {} entry {} placed beyond the live leaves",
                t.name,
                i
            );
        }
    }
    let slices = plan.slices(master);
    prop_assert_eq!(slices.len(), plan.leaves);
    for (l, slice) in slices.iter().enumerate() {
        prop_assert_eq!(slice.tables.len(), master.tables.len());
        for ((t, masks), st) in master.tables.iter().zip(&reference).zip(&slice.tables) {
            let expect: Vec<_> = t
                .entries()
                .zip(masks)
                .filter(|&(_, &m)| m & (1u64 << l) != 0)
                .map(|(e, _)| e)
                .collect();
            let got: Vec<_> = st.entries().collect();
            prop_assert_eq!(got, expect, "table {} leaf {}", t.name, l);
        }
        let held: usize = slice.tables.iter().map(|t| t.len()).sum();
        prop_assert_eq!(plan.leaf_entries(l), held, "leaf {}", l);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Partition-plan invariants over random Siena programs, with and
    /// without domain compression: every compiled entry lands on at
    /// least one leaf (cover), none beyond the leaf count, and every
    /// leaf's slice is the reference's, row for row, in order.
    #[test]
    fn partition_plan_covers_and_reassembles(
        seed in 0u64..100_000,
        leaves in 1usize..=5,
    ) {
        use camus_core::PartitionPlan;
        use camus_workload::SienaConfig;

        let siena = SienaConfig {
            int_attributes: 2,
            symbol_attributes: 1,
            symbol_alphabet: 8,
            int_range: 60,
            predicates_per_subscription: 2,
            seed,
            ..Default::default()
        };
        let wl = siena.generate();
        let compressed = CompilerOptions { compress_bits: Some(4), ..CompilerOptions::raw() };
        for opts in [CompilerOptions::raw(), compressed] {
            let compiler = Compiler::new(wl.spec.clone(), opts).unwrap();
            let master = compiler.compile(&wl.rules).unwrap().pipeline;
            let plan = PartitionPlan::compute(&master, "ev.sym0", leaves).unwrap();
            prop_assert_eq!(plan.orphan_entries, 0);
            slices_match_the_reference(&master, &plan)?;
        }
    }

    /// Failover-plan invariants over any non-empty survivor subset:
    /// the subset plan never places an entry on a dead leaf, never
    /// loses an entry (cover within the live mask), slices every live
    /// leaf row for row as the reference does and leaves dead ones
    /// empty, keeps every surviving owner's symbols in place (only dead
    /// owners' symbols rehash — the "zero loss for shards that never
    /// left a healthy leaf" guarantee), and degenerates to the full
    /// plan when every leaf is alive.
    #[test]
    fn failover_subset_plan_covers_and_keeps_survivors_stable(
        seed in 0u64..100_000,
        leaves in 2usize..=5,
        mask_seed in 1u64..1024,
    ) {
        use camus_core::{full_mask, owner_in_subset, owner_of, PartitionPlan};
        use camus_workload::SienaConfig;

        let live_mask = {
            let m = mask_seed & full_mask(leaves);
            if m == 0 { 1 } else { m }
        };
        let siena = SienaConfig {
            int_attributes: 2,
            symbol_attributes: 1,
            symbol_alphabet: 8,
            int_range: 60,
            predicates_per_subscription: 2,
            seed,
            ..Default::default()
        };
        let wl = siena.generate();
        let compiler = Compiler::new(wl.spec.clone(), CompilerOptions::raw()).unwrap();
        let master = compiler.compile(&wl.rules).unwrap().pipeline;
        let plan = PartitionPlan::compute_subset(&master, "ev.sym0", leaves, live_mask).unwrap();

        prop_assert_eq!(plan.live_mask, live_mask);
        slices_match_the_reference(&master, &plan)?;
        for l in (0..leaves).filter(|l| live_mask & (1 << l) == 0) {
            prop_assert_eq!(plan.leaf_entries(l), 0, "dead leaf {} holds entries", l);
        }

        // Survivor stability: a value whose primary owner is alive is
        // routed to that same owner; a dead owner's value lands on a
        // live leaf, deterministically.
        for v in 0..512u64 {
            let primary = owner_of(v, leaves);
            let routed = owner_in_subset(v, leaves, live_mask);
            prop_assert!(live_mask & (1 << routed) != 0, "value {} routed to a dead leaf", v);
            if live_mask & (1 << primary) != 0 {
                prop_assert_eq!(routed, primary, "surviving owner of {} moved", v);
            }
            prop_assert_eq!(routed, owner_in_subset(v, leaves, live_mask));
        }

        // All-alive degenerates to the full plan.
        if live_mask == full_mask(leaves) {
            let full = PartitionPlan::compute(&master, "ev.sym0", leaves).unwrap();
            prop_assert_eq!(plan, full);
        }
    }

    /// The plan is a pure function of the compiled program — and the
    /// compiled program is bit-identical at any `compile_shards` — so
    /// partitioning must be deterministic across compile thread counts.
    #[test]
    fn partition_plan_is_deterministic_across_thread_counts(
        seed in 0u64..100_000,
        leaves in 1usize..=5,
    ) {
        use camus_core::PartitionPlan;
        use camus_workload::SienaConfig;

        let siena = SienaConfig {
            int_attributes: 2,
            symbol_attributes: 1,
            symbol_alphabet: 8,
            int_range: 60,
            predicates_per_subscription: 2,
            seed,
            ..Default::default()
        };
        let wl = siena.generate();
        let plan_at = |shards: usize| {
            let opts = CompilerOptions { compile_shards: shards, ..CompilerOptions::raw() };
            let compiler = Compiler::new(wl.spec.clone(), opts).unwrap();
            let master = compiler.compile(&wl.rules).unwrap().pipeline;
            PartitionPlan::compute(&master, "ev.sym0", leaves).unwrap()
        };
        prop_assert_eq!(plan_at(1), plan_at(8));
    }
}

/// Holds every live leaf's slice of `master` under `plan`, prepared on
/// the master's index, to the same slice lowered anew: each table
/// built anew from the slice's rows (`Table::new` + `add_entry`, then
/// `prepare`) must decide every probe the same, for every state of the
/// master — those the leaf dropped included — at every interval start
/// and one below it. Only the sharding table lowers rows again.
fn repointed_slices_decide_like_fresh_ones(
    master: &camus_pipeline::pipeline::Pipeline,
    plan: &camus_core::PartitionPlan,
) -> Result<(), TestCaseError> {
    use camus_pipeline::table::{MatchValue, Table};
    use std::collections::{BTreeMap, BTreeSet};

    let shard = master.layout.get(&plan.shard_field).unwrap();
    let bounds = |m: &MatchValue| match *m {
        MatchValue::Exact(v) => vec![v, v.wrapping_add(1)],
        MatchValue::Range { lo, hi } => vec![lo, hi.wrapping_add(1)],
        MatchValue::Any => vec![],
    };
    for leaf in (0..plan.leaves).filter(|l| plan.live_mask & (1 << l) != 0) {
        let slice = plan.slice(master, leaf);
        for (t, cut) in master.tables.iter().zip(&slice.tables) {
            let mut repointed = cut.clone();
            let lowered = repointed.prepare();
            let keys = t.keys().to_vec();
            let mut fresh =
                Table::new(t.name.clone(), keys.clone(), t.default_ops.clone()).unwrap();
            for e in cut.entries() {
                fresh.add_entry(e.clone()).unwrap();
            }
            fresh.prepare();
            let sharded = keys.get(1).is_some_and(|k| k.field == shard);
            if !sharded {
                prop_assert_eq!(lowered, 0, "table {} leaf {} lowered again", t.name, leaf);
            }
            // Interval starts by the first key's value (every state of
            // the master's table when there are two keys), each start
            // with the value one below it.
            let mut starts: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
            for e in t.entries() {
                let (first, rest) = e.matches.split_first().unwrap();
                let firsts = match (first, rest.is_empty()) {
                    (&MatchValue::Exact(s), false) => vec![s],
                    (_, false) => vec![],
                    (m, true) => bounds(m),
                };
                let seconds = rest.first().map_or(vec![0], bounds);
                for f in firsts {
                    let at = starts.entry(f).or_default();
                    for v in seconds.iter().chain(&[0]) {
                        at.extend([*v, v.wrapping_sub(1)]);
                    }
                }
            }
            let mut phv = master.layout.instantiate();
            for (&first, values) in &starts {
                for &v in values {
                    phv.set(keys[0].field, if keys.len() == 2 { first } else { v });
                    if let Some(k) = keys.get(1) {
                        phv.set(k.field, v);
                    }
                    prop_assert_eq!(
                        repointed.lookup(&phv).unwrap(),
                        fresh.lookup(&phv).unwrap(),
                        "table {} leaf {} key {} value {}",
                        t.name,
                        leaf,
                        first,
                        v
                    );
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A slice of a prepared master comes out on the master's own index
    /// (the states a leaf drops re-pointed at the miss run, the runs the
    /// partition splits lowered again) and decides like the same slice
    /// lowered whole: for 1–4 leaves, every non-empty live mask,
    /// and masters both cold-compiled and patched by `k` session
    /// updates.
    #[test]
    fn a_repointed_slice_decides_like_a_fresh_lowering(
        seed in 0u64..100_000,
        leaves in 1usize..=4,
        updates in 0usize..4,
    ) {
        use camus_core::{IncrementalCompiler, PartitionPlan};
        use camus_workload::SienaConfig;

        let siena = SienaConfig {
            subscriptions: 20,
            int_attributes: 2,
            symbol_attributes: 1,
            symbol_alphabet: 8,
            int_range: 60,
            predicates_per_subscription: 2,
            seed,
            ..Default::default()
        };
        let wl = siena.generate();
        let (base, churn) = wl.rules.split_at(14);
        let opts = CompilerOptions::raw();
        let cold = Compiler::new(wl.spec.clone(), opts.clone()).unwrap();
        let mut masters = vec![cold.compile(base).unwrap().pipeline];
        let mut session = IncrementalCompiler::new(wl.spec.clone(), &opts, &wl.rules).unwrap();
        session.install(base).unwrap();
        for k in 0..updates {
            let (add, remove) = (&churn[2 * k..2 * k + 2], &base[k..k + 1]);
            masters.push(session.update(add, remove).unwrap().pipeline);
        }
        for master in &masters {
            for live_mask in 1..1u64 << leaves {
                let plan = PartitionPlan::compute_subset(master, "ev.sym0", leaves, live_mask).unwrap();
                repointed_slices_decide_like_fresh_ones(master, &plan)?;
            }
        }
    }
}
