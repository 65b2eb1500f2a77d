//! Merging independently built BDDs, and canonical renumbering.
//!
//! The sharded compiler partitions the rule list, builds one BDD per
//! shard (each with a private [`crate::store::Store`]), and folds the
//! shards together with [`Bdd::union_with`]. Union of the represented
//! functions is associative and commutative, so any merge order yields
//! the same *function* — but not the same *diagram*: under the
//! semantic-pruning reduction, different merge trees can leave
//! different (semantically equivalent) residue on unsatisfiable paths.
//! Pruned union is not confluent, so the driver must pin one merge
//! tree; reproducibility then comes from replaying a fixed DAG, not
//! from any normalization property of the union itself.
//!
//! Node indices and action-set ids additionally record allocation
//! history: intermediate `apply` steps leave garbage, and imports
//! interleave the operands' vertices. [`Bdd::canonical_copy`] erases
//! that: it re-interns the reachable diagram in a deterministic
//! depth-first order that depends only on the diagram's *structure*,
//! so two structurally equal BDDs — however built — copy to
//! element-for-element identical stores, and downstream emission
//! (Algorithm 1, which orders states by vertex numbers) sees a
//! schedule-independent numbering.

use fxhash::FxHashMap;

use crate::build::{ADD, CTX_NONE};
use crate::store::{NodeRef, Store, EMPTY_ACTIONS};
use crate::Bdd;

/// Old → new vertex references of one [`Bdd::compact`].
#[derive(Debug)]
pub struct Remap(FxHashMap<u32, NodeRef>);

impl Remap {
    /// Where a vertex reachable before the compaction is now (`None`
    /// for one that was not reachable and is gone).
    pub fn get(&self, old: NodeRef) -> Option<NodeRef> {
        self.0.get(&old.pack()).copied()
    }
}

impl Bdd {
    /// Unions another BDD (over the same field table and variable
    /// order) into this one: afterwards `self` represents the pointwise
    /// union of both action-set functions.
    ///
    /// The other diagram is first imported into this store (terminals
    /// re-interned, nodes re-consed bottom-up), then grafted with the
    /// same memoized `apply` that `add_rule` uses. The other BDD's
    /// cumulative memo statistics are absorbed so shard builds still
    /// report totals.
    ///
    /// # Panics
    ///
    /// Panics if the two BDDs were created with different variable
    /// orders (different predicate alphabets).
    pub fn union_with(&mut self, other: &Bdd) {
        assert_eq!(
            self.vars, other.vars,
            "union_with requires identical variable orders"
        );
        let imported = self.import(other, other.root);
        self.memo.clear();
        self.root = self.apply::<ADD>(self.root, imported, CTX_NONE);
        self.memo.clear();
        self.memo_hits += other.memo_hits;
        self.memo_misses += other.memo_misses;
    }

    /// Copies a subgraph of `other` into this store, returning the
    /// corresponding reference here. Shares a memo across the whole
    /// import so the copy is linear in the subgraph's node count.
    fn import(&mut self, other: &Bdd, root: NodeRef) -> NodeRef {
        let mut map: FxHashMap<u32, NodeRef> = FxHashMap::default();
        self.import_rec(other, root, &mut map)
    }

    fn import_rec(
        &mut self,
        other: &Bdd,
        r: NodeRef,
        map: &mut FxHashMap<u32, NodeRef>,
    ) -> NodeRef {
        if let Some(&mapped) = map.get(&r.pack()) {
            return mapped;
        }
        let mapped = match r {
            NodeRef::Term(set) => {
                if set == EMPTY_ACTIONS {
                    NodeRef::Term(EMPTY_ACTIONS)
                } else {
                    // Other-store sets are already sorted + deduplicated,
                    // so interning re-sorts a sorted slice — cheap.
                    NodeRef::Term(self.store.intern_actions(other.store.actions(set)))
                }
            }
            NodeRef::Node(_) => {
                let n = other.store.node(r);
                let lo = self.import_rec(other, n.lo, map);
                let hi = self.import_rec(other, n.hi, map);
                self.store.make_node(n.var, lo, hi)
            }
        };
        map.insert(r.pack(), mapped);
        mapped
    }

    /// Rebuilds this BDD with canonical vertex numbering: nodes and
    /// action sets are re-interned in a deterministic depth-first order
    /// (high branch first, children created before parents) that is a
    /// function of the diagram's structure alone. Unreachable garbage
    /// from intermediate `apply` steps is dropped in the process.
    ///
    /// Two structurally equal diagrams — however they were constructed —
    /// produce copies whose stores are element-for-element identical, so
    /// everything keyed on `NodeRef`/`ActionSetId` order downstream
    /// (slicing, state assignment, table emission) becomes independent
    /// of construction history.
    #[must_use]
    pub fn canonical_copy(&self) -> Bdd {
        self.canonical_copy_mapped().0
    }

    /// Replaces this BDD by its [`Bdd::canonical_copy`] — dropping
    /// unreachable nodes and action sets, the prune memo and the
    /// interned contexts, all of which only grow otherwise — and
    /// returns where every reachable vertex went, so a long-lived
    /// session can re-key what it holds per vertex.
    pub fn compact(&mut self) -> Remap {
        let (copy, map) = self.canonical_copy_mapped();
        *self = copy;
        map
    }

    fn canonical_copy_mapped(&self) -> (Bdd, Remap) {
        let mut copy = Bdd::like(self);
        copy.memo_hits = self.memo_hits;
        copy.memo_misses = self.memo_misses;
        let mut map: FxHashMap<u32, NodeRef> = FxHashMap::default();
        copy.root = copy.canon_rec(self, self.root, &mut map);
        (copy, Remap(map))
    }

    /// An empty BDD sharing this one's field table, predicate alphabet
    /// and settings — the starting point for an independent shard build
    /// that will later be [`Bdd::union_with`]-merged.
    #[must_use]
    pub fn clone_empty(&self) -> Bdd {
        Bdd::like(self)
    }

    /// An empty BDD sharing `src`'s alphabet and settings (the analogue
    /// of `Bdd::new` without re-validating predicates).
    pub(crate) fn like(src: &Bdd) -> Bdd {
        use crate::ctx::FieldCtx;
        use crate::pred::FieldId;
        let sentinel = FieldCtx::full(FieldId(u32::MAX), 0);
        let mut ctx_index = FxHashMap::default();
        ctx_index.insert(sentinel.clone(), CTX_NONE);
        Bdd {
            fields: src.fields.clone(),
            vars: src.vars.clone(),
            var_index: src.var_index.clone(),
            store: Store::new(),
            root: NodeRef::Term(EMPTY_ACTIONS),
            memo: FxHashMap::default(),
            memo_hits: 0,
            memo_misses: 0,
            semantic_pruning: src.semantic_pruning,
            ctxs: vec![sentinel],
            ctx_index,
            prune_memo: FxHashMap::default(),
        }
    }

    fn canon_rec(&mut self, src: &Bdd, r: NodeRef, map: &mut FxHashMap<u32, NodeRef>) -> NodeRef {
        if let Some(&mapped) = map.get(&r.pack()) {
            return mapped;
        }
        let mapped = match r {
            NodeRef::Term(set) => {
                if set == EMPTY_ACTIONS {
                    NodeRef::Term(EMPTY_ACTIONS)
                } else {
                    NodeRef::Term(self.store.intern_actions(src.store.actions(set)))
                }
            }
            NodeRef::Node(_) => {
                let n = src.store.node(r);
                // hi first: ids then follow the true-edges-first
                // traversal that slicing/emission use.
                let hi = self.canon_rec(src, n.hi, map);
                let lo = self.canon_rec(src, n.lo, map);
                self.store.make_node(n.var, lo, hi)
            }
        };
        map.insert(r.pack(), mapped);
        mapped
    }
}

#[cfg(test)]
mod tests {
    use crate::pred::{ActionId, FieldId, FieldInfo, Pred};
    use crate::store::NodeRef;
    use crate::Bdd;

    fn alphabet() -> (Vec<FieldInfo>, Vec<Pred>) {
        let shares = FieldId(0);
        let stock = FieldId(1);
        let fields = vec![
            FieldInfo::range("shares", 32),
            FieldInfo::exact("stock", 64),
        ];
        let preds = vec![
            Pred::lt(shares, 60),
            Pred::gt(shares, 100),
            Pred::eq(stock, 1),
            Pred::eq(stock, 2),
            Pred::eq(stock, 3),
        ];
        (fields, preds)
    }

    type Rule = (Vec<(Pred, bool)>, Vec<ActionId>);

    fn rules() -> Vec<Rule> {
        let shares = FieldId(0);
        let stock = FieldId(1);
        vec![
            (
                vec![(Pred::lt(shares, 60), true), (Pred::eq(stock, 1), true)],
                vec![ActionId(1)],
            ),
            (vec![(Pred::eq(stock, 1), true)], vec![ActionId(2)]),
            (
                vec![(Pred::gt(shares, 100), true), (Pred::eq(stock, 2), true)],
                vec![ActionId(3)],
            ),
            (
                vec![(Pred::eq(stock, 3), true), (Pred::lt(shares, 60), false)],
                vec![ActionId(4), ActionId(1)],
            ),
            (vec![], vec![ActionId(9)]),
        ]
    }

    fn build(rules: &[Rule]) -> Bdd {
        let (fields, preds) = alphabet();
        let mut bdd = Bdd::new(fields, preds).unwrap();
        for (lits, acts) in rules {
            bdd.add_rule(lits, acts).unwrap();
        }
        bdd
    }

    fn assert_same_diagram(a: &Bdd, b: &Bdd) {
        assert_eq!(a.root(), b.root());
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.action_set_count(), b.action_set_count());
        for i in 0..a.node_count() {
            let r = NodeRef::Node(crate::store::NodeIdx(i as u32));
            assert_eq!(a.node(r), b.node(r), "node {i}");
        }
        for i in 0..a.action_set_count() {
            let id = crate::store::ActionSetId(i as u32);
            assert_eq!(a.actions(id), b.actions(id), "action set {i}");
        }
    }

    #[test]
    fn union_with_matches_sequential_semantics() {
        let all = rules();
        let seq = build(&all);
        let mut left = build(&all[..2]);
        let right = build(&all[2..]);
        left.union_with(&right);
        let shares = FieldId(0);
        for sh in [0u64, 59, 60, 100, 101, 500] {
            for st in [0u64, 1, 2, 3, 7] {
                assert_eq!(
                    seq.eval(|f| if f == shares { sh } else { st }),
                    left.eval(|f| if f == shares { sh } else { st }),
                    "shares={sh} stock={st}"
                );
            }
        }
    }

    #[test]
    fn canonical_copy_preserves_semantics_and_drops_garbage() {
        let bdd = build(&rules());
        let canon = bdd.canonical_copy();
        let shares = FieldId(0);
        for sh in [0u64, 59, 80, 101] {
            for st in [1u64, 2, 3, 9] {
                assert_eq!(
                    bdd.eval(|f| if f == shares { sh } else { st }),
                    canon.eval(|f| if f == shares { sh } else { st }),
                );
            }
        }
        // The copy holds only reachable vertices.
        let stats = canon.stats();
        assert_eq!(stats.allocated_nodes, stats.reachable_nodes);
        assert!(canon.node_count() <= bdd.node_count());
        canon.validate().unwrap();
    }

    #[test]
    fn compact_maps_every_reachable_vertex_to_its_twin() {
        let mut bdd = build(&rules());
        let old = build(&rules());
        let allocated = bdd.node_count();
        let map = bdd.compact();
        assert!(bdd.node_count() < allocated, "garbage dropped");
        assert_eq!(map.get(old.root()), Some(bdd.root()));
        for r in old.reachable() {
            let (was, now) = (old.node(r), bdd.node(map.get(r).unwrap()));
            assert_eq!(was.var, now.var);
            assert_eq!(map.get(was.lo), Some(now.lo));
            assert_eq!(map.get(was.hi), Some(now.hi));
            for child in [was.lo, was.hi] {
                if let NodeRef::Term(set) = child {
                    let NodeRef::Term(new_set) = map.get(child).unwrap() else {
                        panic!("terminal mapped to a node");
                    };
                    assert_eq!(old.actions(set), bdd.actions(new_set));
                }
            }
        }
        // The compacted diagram keeps working.
        bdd.add_rule(&[(Pred::eq(FieldId(1), 2), true)], &[ActionId(5)])
            .unwrap();
        bdd.validate().unwrap();
    }

    #[test]
    fn canonical_copy_is_idempotent() {
        let canon = build(&rules()).canonical_copy();
        assert_same_diagram(&canon, &canon.canonical_copy());
    }

    /// Replaying the same shard partition and merge tree reproduces the
    /// diagram element-for-element — the invariant the compiler's fixed
    /// merge DAG rests on. (Different merge *orders* are only
    /// semantically equal: pruned union is not confluent.)
    #[test]
    fn identical_schedules_canonicalize_identically() {
        let all = rules();
        let run = || {
            let mut m = build(&all[..3]);
            m.union_with(&build(&all[3..]));
            m.canonical_copy()
        };
        assert_same_diagram(&run(), &run());
    }

    /// Any merge order yields the same represented function, even when
    /// the diagrams differ structurally.
    #[test]
    fn merge_orders_agree_semantically() {
        let all = rules();
        let seq = build(&all);
        let mut ab = build(&all[..3]);
        ab.union_with(&build(&all[3..]));
        let mut ba = build(&all[3..]);
        ba.union_with(&build(&all[..3]));
        let mut t = build(&all[..2]);
        t.union_with(&build(&all[2..4]));
        t.union_with(&build(&all[4..]));
        let shares = FieldId(0);
        for sh in [0u64, 59, 60, 100, 101, 500] {
            for st in [0u64, 1, 2, 3, 7] {
                let want = seq.eval(|f| if f == shares { sh } else { st }).to_vec();
                for m in [&ab, &ba, &t] {
                    assert_eq!(
                        m.eval(|f| if f == shares { sh } else { st }),
                        want.as_slice(),
                        "shares={sh} stock={st}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "identical variable orders")]
    fn union_with_rejects_different_alphabets() {
        let (fields, preds) = alphabet();
        let a = Bdd::new(fields.clone(), preds.clone()).unwrap();
        let mut b = Bdd::new(fields, preds[..2].to_vec()).unwrap();
        b.union_with(&a);
    }
}
