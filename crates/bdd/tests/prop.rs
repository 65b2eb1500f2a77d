//! Property-based differential testing: the BDD must agree with a naive
//! per-rule interpreter on every packet, for arbitrary rule sets, with
//! and without the domain-specific reduction.

// Gated off by default: `proptest` is an external crate the offline
// build environment cannot fetch. Vendor proptest into the workspace
// and enable the `proptest` feature to run this suite.
#![cfg(feature = "proptest")]

use camus_bdd::pred::{ActionId, FieldId, FieldInfo, Pred};
use camus_bdd::Bdd;
use proptest::prelude::*;

const NFIELDS: usize = 3;
/// Small domains so random packets actually hit rule boundaries.
const BITS: u32 = 6;
const MAXV: u64 = (1 << BITS) - 1;

fn arb_pred() -> impl Strategy<Value = Pred> {
    (0..NFIELDS as u32, 0u64..=MAXV, 0..3u8).prop_filter_map("trivial pred", |(f, v, op)| {
        let field = FieldId(f);
        match op {
            0 => Some(Pred::eq(field, v)),
            1 if v >= 1 => Some(Pred::lt(field, v)),
            2 if v < MAXV => Some(Pred::gt(field, v)),
            _ => None,
        }
    })
}

fn arb_literal() -> impl Strategy<Value = (Pred, bool)> {
    (arb_pred(), any::<bool>())
}

type RuleSpec = (Vec<(Pred, bool)>, u32);

fn arb_rules() -> impl Strategy<Value = Vec<RuleSpec>> {
    prop::collection::vec((prop::collection::vec(arb_literal(), 0..5), 0..8u32), 1..12)
}

/// Naive reference: evaluate every rule conjunction independently.
fn naive_eval(rules: &[RuleSpec], packet: &[u64; NFIELDS]) -> Vec<ActionId> {
    let mut out: Vec<ActionId> = Vec::new();
    for (lits, act) in rules {
        let matched = lits
            .iter()
            .all(|(p, pol)| p.eval(packet[p.field.0 as usize]) == *pol);
        if matched {
            out.push(ActionId(*act));
        }
    }
    out.sort();
    out.dedup();
    out
}

/// An empty diagram whose alphabet is every predicate of `rules`.
fn empty_bdd(rules: &[RuleSpec]) -> Bdd {
    let fields: Vec<FieldInfo> = (0..NFIELDS)
        .map(|i| FieldInfo::range(format!("f{i}"), BITS))
        .collect();
    let preds: Vec<Pred> = rules
        .iter()
        .flat_map(|(l, _)| l.iter().map(|(p, _)| *p))
        .collect();
    Bdd::new(fields, preds).unwrap()
}

fn build_bdd(rules: &[RuleSpec], pruning: bool) -> Bdd {
    let mut bdd = empty_bdd(rules);
    bdd.set_semantic_pruning(pruning);
    for (lits, act) in rules {
        bdd.add_rule(lits, &[ActionId(*act)]).unwrap();
    }
    bdd
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For random rules and random packets, BDD evaluation equals the
    /// naive interpreter.
    #[test]
    fn bdd_matches_naive_interpreter(
        rules in arb_rules(),
        packets in prop::collection::vec([0u64..=MAXV, 0u64..=MAXV, 0u64..=MAXV], 1..20),
    ) {
        let bdd = build_bdd(&rules, true);
        bdd.validate().unwrap();
        for p in &packets {
            let got = bdd.eval(|f| p[f.0 as usize]).to_vec();
            let want = naive_eval(&rules, p);
            prop_assert_eq!(got, want, "packet {:?}", p);
        }
    }

    /// Pruning never changes semantics, only structure — and the pruned
    /// diagram satisfies the irredundancy invariant (no node forced by
    /// its same-field ancestors).
    #[test]
    fn pruning_is_semantics_preserving(
        rules in arb_rules(),
        packets in prop::collection::vec([0u64..=MAXV, 0u64..=MAXV, 0u64..=MAXV], 1..10),
    ) {
        let with = build_bdd(&rules, true);
        let without = build_bdd(&rules, false);
        prop_assert!(with.validate().is_ok());
        for p in &packets {
            prop_assert_eq!(
                with.eval(|f| p[f.0 as usize]),
                without.eval(|f| p[f.0 as usize])
            );
        }
    }

    /// Rule insertion is order-insensitive: any permutation of the same
    /// rules yields a semantically identical diagram.
    #[test]
    fn insertion_order_is_irrelevant(
        rules in arb_rules(),
        packets in prop::collection::vec([0u64..=MAXV, 0u64..=MAXV, 0u64..=MAXV], 1..10),
    ) {
        let fwd = build_bdd(&rules, true);
        let mut rev_rules = rules.clone();
        rev_rules.reverse();
        let rev = build_bdd(&rev_rules, true);
        for p in &packets {
            prop_assert_eq!(
                fwd.eval(|f| p[f.0 as usize]),
                rev.eval(|f| p[f.0 as usize])
            );
        }
    }

    /// Shard-and-merge under a *pinned* schedule is fully reproducible
    /// (two replays of the same split and merge produce stores that are
    /// element-for-element identical after canonical renumbering) and
    /// semantically exact (the merged diagram agrees with the naive
    /// interpreter). This is the invariant the parallel compiler rests
    /// on: pruned union is not confluent across merge *orders*, so
    /// determinism comes from replaying a fixed merge DAG, never from
    /// normalizing away the schedule.
    #[test]
    fn pinned_shard_schedule_is_reproducible_and_sound(
        rules in arb_rules(),
        split_frac in 0.0f64..1.0,
        packets in prop::collection::vec([0u64..=MAXV, 0u64..=MAXV, 0u64..=MAXV], 1..10),
    ) {
        use camus_bdd::store::{ActionSetId, NodeIdx};
        use camus_bdd::NodeRef;

        // Both shards share the full predicate alphabet (exactly what
        // the compiler's `clone_empty` shards do), so the variable
        // orders line up for `union_with`.
        let split = ((rules.len() as f64) * split_frac) as usize;
        let all_preds: Vec<Pred> = rules
            .iter()
            .flat_map(|(l, _)| l.iter().map(|(p, _)| *p))
            .collect();
        let fields: Vec<FieldInfo> = (0..NFIELDS)
            .map(|i| FieldInfo::range(format!("f{i}"), BITS))
            .collect();
        let run = || {
            let mut left = Bdd::new(fields.clone(), all_preds.clone()).unwrap();
            let mut right = left.clone_empty();
            for (lits, act) in &rules[..split] {
                left.add_rule(lits, &[ActionId(*act)]).unwrap();
            }
            for (lits, act) in &rules[split..] {
                right.add_rule(lits, &[ActionId(*act)]).unwrap();
            }
            left.union_with(&right);
            left.canonical_copy()
        };
        let merged = run();
        let replay = run();

        prop_assert_eq!(merged.root(), replay.root());
        prop_assert_eq!(merged.node_count(), replay.node_count());
        prop_assert_eq!(merged.action_set_count(), replay.action_set_count());
        for i in 0..merged.node_count() {
            let r = NodeRef::Node(NodeIdx(i as u32));
            prop_assert_eq!(merged.node(r), replay.node(r), "node {}", i);
        }
        for i in 0..merged.action_set_count() {
            let id = ActionSetId(i as u32);
            prop_assert_eq!(merged.actions(id), replay.actions(id), "action set {}", i);
        }
        for p in &packets {
            let want = naive_eval(&rules, p);
            prop_assert_eq!(
                merged.eval(|f| p[f.0 as usize]),
                want.as_slice(),
                "packet {:?}", p
            );
        }
    }

    /// Removal on the live diagram: `strip_rule` on a random victim,
    /// then re-asserting the survivors (any superset of the overlapping
    /// ones is sound — `reassert_rule` is an idempotent union), evaluates
    /// like a diagram built without the victim, and keeps the ordering
    /// and irredundancy invariants. Stripping a rule that is not in the
    /// diagram changes no evaluation.
    #[test]
    fn strip_and_reassert_equals_building_without_the_victim(
        rules in arb_rules(),
        victim_frac in 0.0f64..1.0,
        absent in (prop::collection::vec(arb_literal(), 0..4), 8..12u32),
        packets in prop::collection::vec([0u64..=MAXV, 0u64..=MAXV, 0u64..=MAXV], 1..20),
    ) {
        let victim = ((rules.len() as f64) * victim_frac) as usize;
        let mut survivors = rules.clone();
        let (lits, act) = survivors.remove(victim);

        // Same alphabet for both (plus the absent rule's predicates).
        let mut alphabet = rules.clone();
        alphabet.push(absent.clone());
        let mut live = empty_bdd(&alphabet);
        for (l, a) in &rules {
            live.add_rule(l, &[ActionId(*a)]).unwrap();
        }

        // The absent rule's action (8..12) is outside the rules' 0..8.
        let before: Vec<Vec<ActionId>> =
            packets.iter().map(|p| live.eval(|f| p[f.0 as usize]).to_vec()).collect();
        live.strip_rule(&absent.0, &[ActionId(absent.1)]).unwrap();
        for (p, want) in packets.iter().zip(&before) {
            prop_assert_eq!(live.eval(|f| p[f.0 as usize]), want.as_slice(), "absent strip, packet {:?}", p);
        }

        live.strip_rule(&lits, &[ActionId(act)]).unwrap();
        for (l, a) in survivors.iter().filter(|(_, a)| *a == act) {
            live.reassert_rule(l, &[ActionId(*a)]).unwrap();
        }
        prop_assert!(live.validate().is_ok(), "{:?}", live.validate());
        for p in &packets {
            let got = live.eval(|f| p[f.0 as usize]).to_vec();
            prop_assert_eq!(got, naive_eval(&survivors, p), "packet {:?}", p);
        }
    }

    /// Entry by entry, `entry_paths` — the one path enumerator the
    /// compiler emits from — finds what slicing finds: the same ranked
    /// paths, and, from the root down, exactly the In nodes.
    #[test]
    fn entry_paths_agree_with_the_sliced_components(
        rules in arb_rules(),
        pruning in any::<bool>(),
    ) {
        use camus_bdd::slice::{component_paths, entry_paths, slice};
        use camus_bdd::NodeRef;

        let bdd = build_bdd(&rules, pruning);
        let comps = slice(&bdd);
        let mut in_nodes: Vec<NodeRef> = comps.iter().flat_map(|c| c.in_nodes.clone()).collect();
        let mut found = vec![bdd.root()];
        for comp in &comps {
            let sliced = component_paths(&bdd, comp);
            for &entry in &comp.in_nodes {
                let (paths, outside) = entry_paths(&bdd, entry);
                let want: Vec<_> = sliced.iter().filter(|p| p.entry == entry).collect();
                prop_assert_eq!(paths.len(), want.len());
                for (p, q) in paths.iter().zip(want) {
                    prop_assert_eq!((p.exit, p.rank, &p.ctx), (q.exit, q.rank, &q.ctx));
                }
                found.extend(outside.into_iter().filter(|r| !r.is_term()));
            }
        }
        in_nodes.sort_unstable();
        found.retain(|r| !r.is_term());
        found.sort_unstable();
        found.dedup();
        prop_assert_eq!(found, in_nodes);
    }

    /// The component decomposition evaluated as a state machine agrees
    /// with direct evaluation — the semantic core of Algorithm 1.
    #[test]
    fn sliced_state_machine_matches_eval(
        rules in arb_rules(),
        packets in prop::collection::vec([0u64..=MAXV, 0u64..=MAXV, 0u64..=MAXV], 1..10),
    ) {
        use camus_bdd::slice::{component_paths, slice};
        use camus_bdd::NodeRef;

        let bdd = build_bdd(&rules, true);
        let comps = slice(&bdd);
        let paths: Vec<_> = comps.iter().map(|c| component_paths(&bdd, c)).collect();

        for p in &packets {
            let mut state = bdd.root();
            let acts = loop {
                match state {
                    NodeRef::Term(set) => break bdd.actions(set).to_vec(),
                    NodeRef::Node(_) => {
                        let n = bdd.node(state);
                        let f = bdd.var_pred(n.var).field;
                        let ci = comps.iter().position(|c| c.field == f).unwrap();
                        let v = p[f.0 as usize];
                        let next = paths[ci]
                            .iter()
                            .filter(|cp| cp.entry == state && cp.ctx.contains(v))
                            .min_by_key(|cp| cp.rank);
                        match next {
                            Some(cp) => state = cp.exit,
                            None => prop_assert!(false, "no path for state {:?} value {}", state, v),
                        }
                    }
                }
            };
            prop_assert_eq!(acts, naive_eval(&rules, p), "packet {:?}", p);
        }
    }
}
