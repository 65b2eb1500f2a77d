//! Evaluation, structural validation and statistics.

use std::collections::{HashMap, HashSet};

use crate::ctx::FieldCtx;
use crate::pred::{ActionId, FieldId};
use crate::store::{NodeRef, VarId};
use crate::Bdd;

impl Bdd {
    /// Evaluates the diagram on a packet given as a field valuation.
    /// Returns the matched action set (sorted).
    ///
    /// This is the *semantic reference* for the whole compiler: the
    /// table pipeline produced by Algorithm 1 must forward exactly the
    /// action set this returns.
    pub fn eval(&self, assign: impl Fn(FieldId) -> u64) -> &[ActionId] {
        let mut cur = self.root;
        loop {
            match cur {
                NodeRef::Term(set) => return self.store.actions(set),
                NodeRef::Node(_) => {
                    let n = self.store.node(cur);
                    let pred = self.vars[n.var.0 as usize];
                    cur = if pred.eval(assign(pred.field)) {
                        n.hi
                    } else {
                        n.lo
                    };
                }
            }
        }
    }

    /// The set of internal nodes reachable from the root.
    pub fn reachable(&self) -> Vec<NodeRef> {
        let mut seen: HashSet<NodeRef> = HashSet::new();
        let mut stack = vec![self.root];
        let mut out = Vec::new();
        while let Some(r) = stack.pop() {
            if r.is_term() || !seen.insert(r) {
                continue;
            }
            out.push(r);
            let n = self.store.node(r);
            stack.push(n.lo);
            stack.push(n.hi);
        }
        out
    }

    /// How many internal nodes the root reaches — `reachable().len()`
    /// without collecting them: one bit per allocated node.
    pub fn reachable_count(&self) -> usize {
        let mut seen = vec![0u64; self.store.node_count().div_ceil(64)];
        let mut stack = vec![self.root];
        let mut count = 0;
        while let Some(r) = stack.pop() {
            let NodeRef::Node(crate::store::NodeIdx(i)) = r else {
                continue;
            };
            let (word, bit) = (i as usize / 64, 1u64 << (i % 64));
            if seen[word] & bit != 0 {
                continue;
            }
            seen[word] |= bit;
            count += 1;
            let n = self.store.node(r);
            stack.push(n.lo);
            stack.push(n.hi);
        }
        count
    }

    /// Structural statistics.
    pub fn stats(&self) -> BddStats {
        let reachable = self.reachable();
        let mut per_field: HashMap<FieldId, usize> = HashMap::new();
        let mut terminals: HashSet<crate::store::ActionSetId> = HashSet::new();
        for &r in &reachable {
            let n = self.store.node(r);
            let f = self.vars[n.var.0 as usize].field;
            *per_field.entry(f).or_insert(0) += 1;
            for child in [n.lo, n.hi] {
                if let NodeRef::Term(s) = child {
                    terminals.insert(s);
                }
            }
        }
        if let NodeRef::Term(s) = self.root {
            terminals.insert(s);
        }
        let mut field_nodes: Vec<(FieldId, usize)> = per_field.into_iter().collect();
        field_nodes.sort_unstable();
        BddStats {
            allocated_nodes: self.store.node_count(),
            reachable_nodes: reachable.len(),
            reachable_terminals: terminals.len(),
            field_nodes,
            paths: self.count_paths(),
        }
    }

    /// Number of root-to-terminal paths (saturating).
    fn count_paths(&self) -> u128 {
        fn go(bdd: &Bdd, r: NodeRef, memo: &mut HashMap<NodeRef, u128>) -> u128 {
            if r.is_term() {
                return 1;
            }
            if let Some(&c) = memo.get(&r) {
                return c;
            }
            let n = bdd.store.node(r);
            let c = go(bdd, n.lo, memo).saturating_add(go(bdd, n.hi, memo));
            memo.insert(r, c);
            c
        }
        go(self, self.root, &mut HashMap::new())
    }

    /// Validates the two ordered-BDD invariants the rest of the compiler
    /// depends on:
    ///
    /// 1. **Ordering** — along every edge the child's variable index is
    ///    strictly greater than the parent's (so fields appear in one
    ///    global order on every path);
    /// 2. **Irredundancy** (when semantic pruning is on) — no node's
    ///    predicate is forced by its same-field ancestors, i.e.
    ///    reduction (iii) left nothing behind. This is the property that
    ///    bounds Algorithm 1's path enumeration.
    pub fn validate(&self) -> Result<(), String> {
        let mut seen: HashSet<(NodeRef, u64)> = HashSet::new();
        self.validate_rec(
            self.root,
            None,
            &FieldCtx::full(FieldId(u32::MAX), 0),
            &mut seen,
        )
    }

    fn validate_rec(
        &self,
        r: NodeRef,
        parent_var: Option<VarId>,
        ctx: &FieldCtx,
        seen: &mut HashSet<(NodeRef, u64)>,
    ) -> Result<(), String> {
        let NodeRef::Node(_) = r else { return Ok(()) };
        // Deduplicate on (node, ctx-fingerprint) to avoid exponential
        // revalidation of shared subgraphs.
        let fp = {
            use std::collections::hash_map::DefaultHasher;
            use std::hash::{Hash, Hasher};
            let mut h = DefaultHasher::new();
            ctx.hash(&mut h);
            h.finish()
        };
        if !seen.insert((r, fp)) {
            return Ok(());
        }
        let n = self.store.node(r);
        if let Some(pv) = parent_var {
            if n.var <= pv {
                return Err(format!(
                    "ordering violation: child var {} under parent var {}",
                    n.var.0, pv.0
                ));
            }
        }
        let pred = self.vars[n.var.0 as usize];
        let cur = if ctx.field == pred.field {
            ctx.clone()
        } else {
            FieldCtx::full(pred.field, self.fields[pred.field.0 as usize].max_value())
        };
        if self.semantic_pruning {
            if let Some(v) = cur.implies(&pred) {
                return Err(format!(
                    "irredundancy violation: node testing {pred} is forced {v} by ancestors"
                ));
            }
        }
        let hi_ctx = cur.extend(&pred, true);
        let lo_ctx = cur.extend(&pred, false);
        self.validate_rec(n.hi, Some(n.var), &hi_ctx, seen)?;
        self.validate_rec(n.lo, Some(n.var), &lo_ctx, seen)
    }
}

/// Structural statistics of a BDD.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BddStats {
    /// Internal nodes ever allocated (including ones no longer
    /// reachable after later rule insertions).
    pub allocated_nodes: usize,
    /// Internal nodes reachable from the root.
    pub reachable_nodes: usize,
    /// Distinct terminal action sets reachable from the root.
    pub reachable_terminals: usize,
    /// Reachable node count per field, in field order.
    pub field_nodes: Vec<(FieldId, usize)>,
    /// Root-to-terminal path count (saturating at `u128::MAX`).
    pub paths: u128,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pred::{FieldInfo, Pred};

    fn figure3() -> Bdd {
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
        ];
        let mut bdd = Bdd::new(fields, preds).unwrap();
        bdd.add_rule(
            &[(Pred::lt(shares, 60), true), (Pred::eq(stock, 1), true)],
            &[ActionId(1)],
        )
        .unwrap();
        bdd.add_rule(&[(Pred::eq(stock, 1), true)], &[ActionId(2)])
            .unwrap();
        bdd.add_rule(
            &[(Pred::gt(shares, 100), true), (Pred::eq(stock, 2), true)],
            &[ActionId(3)],
        )
        .unwrap();
        bdd
    }

    #[test]
    fn figure3_validates() {
        figure3().validate().unwrap();
    }

    #[test]
    fn figure3_stats() {
        let bdd = figure3();
        let s = bdd.stats();
        assert!(s.reachable_nodes >= 4, "{s:?}");
        assert!(s.reachable_nodes <= s.allocated_nodes);
        // Terminals: {1,2}, {2}, {3}, {} — four distinct sets.
        assert_eq!(s.reachable_terminals, 4);
        // Both fields host nodes.
        assert_eq!(s.field_nodes.len(), 2);
        assert!(s.paths >= 4);
    }

    #[test]
    fn empty_bdd_validates() {
        let bdd = Bdd::new(vec![FieldInfo::range("x", 8)], [Pred::lt(FieldId(0), 5)]).unwrap();
        bdd.validate().unwrap();
        let s = bdd.stats();
        assert_eq!(s.reachable_nodes, 0);
        assert_eq!(s.paths, 1);
    }

    #[test]
    fn unpruned_bdd_still_validates_ordering() {
        let f = FieldId(0);
        let preds = vec![Pred::lt(f, 10), Pred::lt(f, 20)];
        let mut bdd = Bdd::new(vec![FieldInfo::range("x", 8)], preds).unwrap();
        bdd.set_semantic_pruning(false);
        bdd.add_rule(
            &[(Pred::lt(f, 10), true), (Pred::lt(f, 20), true)],
            &[ActionId(0)],
        )
        .unwrap();
        // With pruning off, redundant nodes may exist; ordering must hold
        // and validate() skips the irredundancy check.
        bdd.validate().unwrap();
    }

    #[test]
    fn eval_is_total() {
        let bdd = figure3();
        for sh in [0u64, 59, 60, 100, 101, u32::MAX as u64] {
            for st in [0u64, 1, 2, 3] {
                // Must terminate and return a sorted set.
                let acts = bdd.eval(|f| if f == FieldId(0) { sh } else { st });
                let mut sorted = acts.to_vec();
                sorted.sort();
                assert_eq!(acts, &sorted[..]);
            }
        }
    }
}
