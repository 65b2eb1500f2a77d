//! Hash-consed node storage.
//!
//! The store implements the paper's structural reductions:
//!
//! * **(i) isomorphic-node sharing** — `make_node` consults a unique
//!   table, so two nodes with equal (variable, low, high) are the same
//!   node;
//! * **(ii) redundant-test elimination** — `make_node` returns the
//!   common child when both branches coincide.
//!
//! Terminals are *action sets* (this is a multi-terminal BDD); they are
//! hash-consed the same way so terminal equality is id equality.
//!
//! The store is the compiler's hottest data structure, so it is built
//! to be allocation-lean:
//!
//! * all maps use the vendored Fx hasher (`fxhash`), which is several
//!   times cheaper than SipHash on these short fixed-width keys;
//! * action sets live in a single **arena** (`Vec<ActionId>` plus
//!   `(offset, len)` spans) instead of one `Vec` per set, and the
//!   interning index keys on the *hash* of a set's contents with a tiny
//!   collision bucket — so interning never clones a candidate set and
//!   misses probe the map exactly once;
//! * set union is memoized on the `(a, b)` id pair: churn workloads
//!   re-union the same terminal sets on every rule insertion;
//! * a reused scratch buffer makes `intern_actions`/`union_actions`
//!   allocation-free in the steady state.

use std::collections::hash_map::Entry as MapEntry;

use fxhash::FxHashMap;

use crate::pred::ActionId;

/// Index of a BDD variable in the global (field-major) order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

/// Identifier of a hash-consed action set (a BDD terminal value).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActionSetId(pub u32);

/// The empty action set: the terminal a packet reaches when it matches
/// no rule. Always id 0.
pub const EMPTY_ACTIONS: ActionSetId = ActionSetId(0);

/// A reference to a BDD vertex: an internal decision node or a terminal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NodeRef {
    /// Terminal carrying an action set.
    Term(ActionSetId),
    /// Internal node, by index into the store.
    Node(NodeIdx),
}

impl NodeRef {
    /// Whether this is a terminal.
    pub fn is_term(&self) -> bool {
        matches!(self, NodeRef::Term(_))
    }

    /// Packs the reference into 32 bits (tag in the low bit) for
    /// compact memo keys. Store indices stay below 2^31 (debug-asserted
    /// on creation), so the shift cannot lose bits.
    #[inline]
    pub fn pack(self) -> u32 {
        match self {
            NodeRef::Term(ActionSetId(i)) => i << 1,
            NodeRef::Node(NodeIdx(i)) => (i << 1) | 1,
        }
    }
}

/// Index of an internal node in the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeIdx(pub u32);

/// An internal decision node: test `var`; take `hi` when the predicate
/// holds, `lo` otherwise (solid/dashed arrows of Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Node {
    /// The tested variable.
    pub var: VarId,
    /// False branch.
    pub lo: NodeRef,
    /// True branch.
    pub hi: NodeRef,
}

/// The node + terminal store.
#[derive(Debug, Default)]
pub struct Store {
    nodes: Vec<Node>,
    unique: FxHashMap<Node, NodeIdx>,
    /// All interned action sets, back to back (sorted + deduplicated
    /// within each span).
    arena: Vec<ActionId>,
    /// `(offset, len)` of each set id's span in the arena; index 0 is
    /// the empty set.
    spans: Vec<(u32, u32)>,
    /// Fx hash of a set's contents → ids whose spans carry that hash
    /// (bucket length is ~1 in practice).
    set_index: FxHashMap<u64, Vec<ActionSetId>>,
    /// Union results memoized on the packed `(min, max)` id pair.
    union_memo: FxHashMap<u64, ActionSetId>,
    /// Reused sort/merge scratch, so interning allocates nothing in the
    /// steady state.
    scratch: Vec<ActionId>,
}

impl Store {
    /// Creates an empty store (with the empty action set preinstalled).
    pub fn new() -> Self {
        let mut s = Store::default();
        s.spans.push((0, 0));
        s.set_index
            .insert(fxhash::hash_one(&[] as &[ActionId]), vec![EMPTY_ACTIONS]);
        s
    }

    /// Interns an action set (sorted + deduplicated first).
    pub fn intern_actions(&mut self, actions: &[ActionId]) -> ActionSetId {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        scratch.extend_from_slice(actions);
        scratch.sort_unstable();
        scratch.dedup();
        let id = self.intern_sorted(&scratch);
        self.scratch = scratch;
        id
    }

    /// Interns an already sorted + deduplicated set: hash once, probe
    /// the index once, and on a miss append the span to the arena.
    fn intern_sorted(&mut self, set: &[ActionId]) -> ActionSetId {
        let h = fxhash::hash_one(set);
        let Store {
            arena,
            spans,
            set_index,
            ..
        } = self;
        let bucket = set_index.entry(h).or_default();
        for &id in bucket.iter() {
            let (off, len) = spans[id.0 as usize];
            if arena[off as usize..(off + len) as usize] == *set {
                return id;
            }
        }
        debug_assert!(spans.len() < (1 << 31), "action-set ids exceed pack range");
        let id = ActionSetId(spans.len() as u32);
        spans.push((arena.len() as u32, set.len() as u32));
        arena.extend_from_slice(set);
        bucket.push(id);
        id
    }

    /// Union of two interned action sets, memoized on the id pair.
    pub fn union_actions(&mut self, a: ActionSetId, b: ActionSetId) -> ActionSetId {
        if a == b {
            return a;
        }
        if a == EMPTY_ACTIONS {
            return b;
        }
        if b == EMPTY_ACTIONS {
            return a;
        }
        let (lo, hi) = if a.0 <= b.0 { (a, b) } else { (b, a) };
        let key = (u64::from(lo.0) << 32) | u64::from(hi.0);
        if let Some(&id) = self.union_memo.get(&key) {
            return id;
        }
        // Merge the two sorted spans into the scratch buffer.
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        {
            let sa = self.actions(lo);
            let sb = self.actions(hi);
            let (mut i, mut j) = (0, 0);
            while i < sa.len() && j < sb.len() {
                match sa[i].cmp(&sb[j]) {
                    std::cmp::Ordering::Less => {
                        scratch.push(sa[i]);
                        i += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        scratch.push(sb[j]);
                        j += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        scratch.push(sa[i]);
                        i += 1;
                        j += 1;
                    }
                }
            }
            scratch.extend_from_slice(&sa[i..]);
            scratch.extend_from_slice(&sb[j..]);
        }
        let id = self.intern_sorted(&scratch);
        self.scratch = scratch;
        self.union_memo.insert(key, id);
        id
    }

    /// Set difference `a \ b` of two interned action sets. Not
    /// memoized: only rule removal uses it, once per touched terminal.
    pub fn diff_actions(&mut self, a: ActionSetId, b: ActionSetId) -> ActionSetId {
        if a == b || a == EMPTY_ACTIONS {
            return EMPTY_ACTIONS;
        }
        if b == EMPTY_ACTIONS {
            return a;
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        {
            // Both spans are sorted, so membership is a binary search.
            let sb = self.actions(b);
            scratch.extend(
                self.actions(a)
                    .iter()
                    .filter(|x| sb.binary_search(x).is_err()),
            );
        }
        let id = self.intern_sorted(&scratch);
        self.scratch = scratch;
        id
    }

    /// The actions in an interned set (sorted).
    pub fn actions(&self, id: ActionSetId) -> &[ActionId] {
        let (off, len) = self.spans[id.0 as usize];
        &self.arena[off as usize..(off + len) as usize]
    }

    /// Number of distinct action sets created (including the empty set).
    pub fn action_set_count(&self) -> usize {
        self.spans.len()
    }

    /// Creates (or reuses) a node, applying reductions (i) and (ii).
    /// The miss path probes the unique table exactly once (`entry`
    /// API), moving the node in instead of re-hashing it.
    pub fn make_node(&mut self, var: VarId, lo: NodeRef, hi: NodeRef) -> NodeRef {
        if lo == hi {
            return lo; // reduction (ii): redundant test
        }
        let node = Node { var, lo, hi };
        let Store { nodes, unique, .. } = self;
        let idx = match unique.entry(node) {
            MapEntry::Occupied(o) => *o.get(), // reduction (i): isomorphic node
            MapEntry::Vacant(v) => {
                debug_assert!(nodes.len() < (1 << 31), "node ids exceed pack range");
                let idx = NodeIdx(nodes.len() as u32);
                nodes.push(node);
                *v.insert(idx)
            }
        };
        NodeRef::Node(idx)
    }

    /// The node behind a reference. Panics on terminals.
    pub fn node(&self, r: NodeRef) -> Node {
        match r {
            NodeRef::Node(idx) => self.nodes[idx.0 as usize],
            NodeRef::Term(_) => panic!("node() called on a terminal"),
        }
    }

    /// Total number of internal nodes ever created (live + unreachable).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aid(n: u32) -> ActionId {
        ActionId(n)
    }

    #[test]
    fn empty_set_is_id_zero() {
        let s = Store::new();
        assert_eq!(s.actions(EMPTY_ACTIONS), &[]);
    }

    #[test]
    fn interning_sorts_and_dedups() {
        let mut s = Store::new();
        let a = s.intern_actions(&[aid(3), aid(1), aid(3)]);
        assert_eq!(s.actions(a), &[aid(1), aid(3)]);
        let b = s.intern_actions(&[aid(1), aid(3)]);
        assert_eq!(a, b);
    }

    #[test]
    fn reinterning_the_empty_set_yields_id_zero() {
        let mut s = Store::new();
        assert_eq!(s.intern_actions(&[]), EMPTY_ACTIONS);
        assert_eq!(s.action_set_count(), 1);
    }

    #[test]
    fn union_is_set_union() {
        let mut s = Store::new();
        let a = s.intern_actions(&[aid(1), aid(2)]);
        let b = s.intern_actions(&[aid(2), aid(3)]);
        let u = s.union_actions(a, b);
        assert_eq!(s.actions(u), &[aid(1), aid(2), aid(3)]);
        assert_eq!(s.union_actions(a, EMPTY_ACTIONS), a);
        assert_eq!(s.union_actions(EMPTY_ACTIONS, b), b);
        assert_eq!(s.union_actions(u, u), u);
    }

    #[test]
    fn diff_is_set_difference() {
        let mut s = Store::new();
        let a = s.intern_actions(&[aid(1), aid(2), aid(3)]);
        let b = s.intern_actions(&[aid(2), aid(9)]);
        let d = s.diff_actions(a, b);
        assert_eq!(s.actions(d), &[aid(1), aid(3)]);
        assert_eq!(s.diff_actions(a, a), EMPTY_ACTIONS);
        assert_eq!(s.diff_actions(a, EMPTY_ACTIONS), a);
        assert_eq!(s.diff_actions(EMPTY_ACTIONS, b), EMPTY_ACTIONS);
        // A difference that empties the set is the canonical id 0.
        let c = s.intern_actions(&[aid(2)]);
        assert_eq!(s.diff_actions(c, b), EMPTY_ACTIONS);
    }

    #[test]
    fn union_memo_is_symmetric_and_consistent() {
        let mut s = Store::new();
        let a = s.intern_actions(&[aid(1), aid(5)]);
        let b = s.intern_actions(&[aid(2)]);
        let u1 = s.union_actions(a, b);
        let u2 = s.union_actions(b, a); // memo hit via the (min, max) key
        assert_eq!(u1, u2);
        assert_eq!(s.actions(u1), &[aid(1), aid(2), aid(5)]);
        // The memoized result must equal what fresh interning gives.
        assert_eq!(s.intern_actions(&[aid(2), aid(1), aid(5)]), u1);
    }

    #[test]
    fn arena_spans_stay_valid_across_growth() {
        let mut s = Store::new();
        let ids: Vec<ActionSetId> = (0..200u32)
            .map(|i| s.intern_actions(&[aid(i), aid(i + 1), aid(i + 2)]))
            .collect();
        for (i, &id) in ids.iter().enumerate() {
            let i = i as u32;
            assert_eq!(s.actions(id), &[aid(i), aid(i + 1), aid(i + 2)]);
        }
    }

    #[test]
    fn make_node_collapses_equal_children() {
        let mut s = Store::new();
        let t = NodeRef::Term(EMPTY_ACTIONS);
        assert_eq!(s.make_node(VarId(0), t, t), t);
        assert_eq!(s.node_count(), 0);
    }

    #[test]
    fn make_node_shares_isomorphic_nodes() {
        let mut s = Store::new();
        let a = s.intern_actions(&[aid(1)]);
        let t0 = NodeRef::Term(EMPTY_ACTIONS);
        let t1 = NodeRef::Term(a);
        let n1 = s.make_node(VarId(0), t0, t1);
        let n2 = s.make_node(VarId(0), t0, t1);
        assert_eq!(n1, n2);
        assert_eq!(s.node_count(), 1);
        let n3 = s.make_node(VarId(1), t0, t1);
        assert_ne!(n1, n3);
        assert_eq!(s.node_count(), 2);
    }

    #[test]
    fn packed_refs_are_injective() {
        let refs = [
            NodeRef::Term(ActionSetId(0)),
            NodeRef::Term(ActionSetId(1)),
            NodeRef::Node(NodeIdx(0)),
            NodeRef::Node(NodeIdx(1)),
        ];
        for (i, a) in refs.iter().enumerate() {
            for (j, b) in refs.iter().enumerate() {
                assert_eq!(a.pack() == b.pack(), i == j, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "terminal")]
    fn node_on_terminal_panics() {
        let s = Store::new();
        s.node(NodeRef::Term(EMPTY_ACTIONS));
    }
}
