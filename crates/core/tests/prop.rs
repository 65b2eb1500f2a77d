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
use camus_lang::ast::{Action, Atom, Cond, FieldRef, Operand, RelOp, Rule, Value};
use camus_lang::parse_spec;
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

fn raw_itch_packet(symbol: &str, buy: bool, shares: u32, price: u32) -> Vec<u8> {
    let mut m = vec![b'A'];
    m.extend_from_slice(&[0; 10]);
    m.extend_from_slice(&[0; 8]);
    m.push(if buy { b'B' } else { b'S' });
    m.extend_from_slice(&shares.to_be_bytes());
    let mut stock = [b' '; 8];
    for (i, c) in symbol.bytes().take(8).enumerate() {
        stock[i] = c;
    }
    m.extend_from_slice(&stock);
    m.extend_from_slice(&price.to_be_bytes());
    m
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
        let pkt = raw_itch_packet(SYMBOLS[sym], buy, shares, price);
        let d = pipe.process(&pkt, 0).unwrap();
        let got: Vec<u16> = d.ports.iter().map(|p| p.0).collect();
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
        prop_assert_eq!(a.control_plane, b.control_plane);
    }
}

// ------------------------------------------------------- live churn

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Live churn: random update sequences driven through
    /// `IncrementalCompiler::update` and replayed onto a running
    /// pipeline with `UpdateReport::apply_to` must forward identically
    /// to a fresh full compile of the cumulative rule set after every
    /// step (and both must match the naive interpreter), its tables
    /// holding exactly the entries of the program the report carries.
    /// Covers delta adds, delta removals (strip + re-assert) and the
    /// out-of-alphabet fallback — the only step allowed to be a full
    /// rebuild.
    #[test]
    fn incremental_churn_matches_full_recompile(
        seed in 0u64..100_000,
        removes_per_step in 0usize..3,
        out_of_alphabet in 0usize..2,
    ) {
        use camus_core::IncrementalCompiler;
        use camus_workload::{
            entry_multisets, naive_ports_for_event, siena_churn, ChurnConfig, SienaConfig,
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
        let mut mirror = session.install(&plan.schedule.initial).unwrap().pipeline;
        let full_compiler = Compiler::new(spec.clone(), opts).unwrap();
        let events = siena.generate_events(&plan.base, 10);

        for (k, step) in plan.schedule.steps.iter().enumerate() {
            let report = session.update(&step.add, &step.remove).unwrap();
            report.apply_to(&mut mirror).unwrap();
            prop_assert!(out_of_alphabet > 0 || !report.full_rebuild, "step {}", k);
            let carried = entry_multisets(&report.pipeline);
            prop_assert_eq!(entry_multisets(&mirror), carried, "step {}", k);

            let active = plan.schedule.rules_after(k + 1);
            prop_assert_eq!(session.active_rules(), active.as_slice());
            let mut full = full_compiler.compile(&active).unwrap().pipeline;
            for ev in &events {
                let inc: Vec<u16> =
                    mirror.process(ev, 0).unwrap().ports.iter().map(|p| p.0).collect();
                let fresh: Vec<u16> =
                    full.process(ev, 0).unwrap().ports.iter().map(|p| p.0).collect();
                let oracle = naive_ports_for_event(&spec, &active, ev);
                prop_assert_eq!(&inc, &fresh, "step {}, event {:x?}", k, ev);
                prop_assert_eq!(&inc, &oracle, "step {}, event {:x?}", k, ev);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Adding rules and removing them again returns the program to
    /// where it was: the spliced pipeline forwards every sampled event
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
        use camus_workload::{entry_multisets, naive_ports_for_event, SienaConfig};

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
        let mut mirror = cold.pipeline.clone();
        let mut reference = cold.pipeline;
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
        let mut before_add = sizes(&reference);
        for (round, (adds, removes)) in batches.iter().enumerate() {
            session.update(adds, removes).unwrap().apply_to(&mut mirror).unwrap();
            let back = session.update(removes, adds).unwrap();
            prop_assert!(!back.full_rebuild, "the inverse is always a rewrite");
            back.apply_to(&mut mirror).unwrap();
            prop_assert_eq!(entry_multisets(&mirror), entry_multisets(&back.pipeline));
            let active = session.active_rules();
            prop_assert!(active.len() == base.len() && base.iter().all(|r| active.contains(r)));

            let after = sizes(&mirror);
            prop_assert_eq!(after.last(), before_add.last(), "leaf rows, round {}", round);
            if round == 1 {
                for (name, n) in &after {
                    let was = before_add.iter().find(|(t, _)| t == name).map_or(0, |(_, n)| *n);
                    prop_assert!(*n <= was, "{}: {} entries, {} before the add", name, n, was);
                }
            }
            for ev in &events {
                let got: Vec<u16> =
                    mirror.process(ev, 0).unwrap().ports.iter().map(|p| p.0).collect();
                let cold: Vec<u16> =
                    reference.process(ev, 0).unwrap().ports.iter().map(|p| p.0).collect();
                prop_assert_eq!(&got, &cold, "round {}, event {:x?}", round, ev);
                prop_assert_eq!(&got, &naive_ports_for_event(&wl.spec, base, ev));
            }
            before_add = after;
        }
    }
}

// ------------------------------------------------- fabric partition

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Partition-plan invariants over random Siena programs: every
    /// compiled entry is assigned to at least one leaf (cover), no
    /// entry is assigned beyond the leaf count, and slicing each table
    /// by the plan's per-entry leaf masks reassembles the original
    /// table set entry-for-entry, in order.
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
        let compiler = Compiler::new(wl.spec.clone(), CompilerOptions::raw()).unwrap();
        let master = compiler.compile(&wl.rules).unwrap().pipeline;
        let plan = PartitionPlan::compute(&master, "ev.sym0", leaves).unwrap();

        prop_assert_eq!(plan.assignment.len(), master.tables.len());
        for (t, ta) in master.tables.iter().zip(&plan.assignment) {
            prop_assert_eq!(&ta.table, &t.name);
            prop_assert_eq!(ta.masks.len(), t.len());
            for (i, &m) in ta.masks.iter().enumerate() {
                prop_assert!(m != 0, "table {} entry {} landed on no leaf", t.name, i);
                prop_assert_eq!(
                    m >> leaves, 0,
                    "table {} entry {} assigned beyond leaf {}", t.name, i, leaves
                );
            }
        }

        let slices = plan.slices(&master);
        prop_assert_eq!(slices.len(), leaves);
        for (l, slice) in slices.iter().enumerate() {
            prop_assert_eq!(slice.tables.len(), master.tables.len());
            for (ti, t) in master.tables.iter().enumerate() {
                let expect: Vec<_> = t
                    .entries()
                    .enumerate()
                    .filter(|(i, _)| plan.assignment[ti].masks[*i] & (1u64 << l) != 0)
                    .map(|(_, e)| e.clone())
                    .collect();
                let got: Vec<_> = slice.tables[ti].entries().cloned().collect();
                prop_assert_eq!(got, expect, "table {} leaf {}", t.name, l);
            }
        }
    }

    /// Failover-plan invariants over any non-empty survivor subset:
    /// the subset plan never assigns an entry to a dead leaf, never
    /// loses an entry (cover within the live mask), reassembles each
    /// table entry-for-entry from the live slices, keeps every
    /// surviving owner's symbols in place (only dead owners' symbols
    /// rehash — the "zero loss for shards that never left a healthy
    /// leaf" guarantee), and degenerates to the full plan when every
    /// leaf is alive.
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
        prop_assert_eq!(plan.assignment.len(), master.tables.len());
        for (t, ta) in master.tables.iter().zip(&plan.assignment) {
            prop_assert_eq!(ta.masks.len(), t.len());
            for (i, &m) in ta.masks.iter().enumerate() {
                prop_assert!(m != 0, "table {} entry {} lost in failover", t.name, i);
                prop_assert_eq!(
                    m & !live_mask, 0,
                    "table {} entry {} assigned to a dead leaf", t.name, i
                );
            }
        }

        // Live slices reassemble every table; dead leaves hold nothing.
        let slices = plan.slices(&master);
        for (l, slice) in slices.iter().enumerate() {
            if live_mask & (1 << l) == 0 {
                for st in &slice.tables {
                    prop_assert_eq!(st.len(), 0, "dead leaf {} holds entries", l);
                }
                continue;
            }
            for (ti, t) in master.tables.iter().enumerate() {
                let expect: Vec<_> = t
                    .entries()
                    .enumerate()
                    .filter(|(i, _)| plan.assignment[ti].masks[*i] & (1u64 << l) != 0)
                    .map(|(_, e)| e.clone())
                    .collect();
                let got: Vec<_> = slice.tables[ti].entries().cloned().collect();
                prop_assert_eq!(got, expect, "table {} live leaf {}", t.name, l);
            }
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

    /// Rule-level sharding: every rule is owned by exactly one leaf in
    /// range, ownership is deterministic, and a rule that pins the
    /// shard symbol is owned by that symbol's leaf (the same mapping
    /// the fabric's spine uses to route packets).
    #[test]
    fn every_rule_lands_on_exactly_one_in_range_leaf(
        seed in 0u64..100_000,
        leaves in 1usize..=5,
    ) {
        use camus_core::{owner_of, rule_owners};
        use camus_workload::siena::symbol_name;
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
        let owners = rule_owners(&wl.rules, "sym0", 64, leaves);
        prop_assert_eq!(owners.len(), wl.rules.len());
        for (i, &o) in owners.iter().enumerate() {
            prop_assert!(o < leaves, "rule {} owned by out-of-range leaf {}", i, o);
        }
        prop_assert_eq!(&owners, &rule_owners(&wl.rules, "sym0", 64, leaves));

        // A symbol-pinned rule follows its symbol's packet route.
        for i in 0..siena.symbol_alphabet {
            let sym = symbol_name(i);
            let rule = camus_lang::parse_program(&format!("sym0 == {sym} : fwd(1)")).unwrap();
            let key = camus_lang::symbol::encode_symbol(&sym, 64);
            prop_assert_eq!(
                rule_owners(&rule, "sym0", 64, leaves)[0],
                owner_of(key, leaves)
            );
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
