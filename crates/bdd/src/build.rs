//! BDD construction: Shannon-expansion insertion of normalized rules.
//!
//! §3.2: "The compiler then builds the BDD incrementally by evaluating
//! the condition at each node using the Shannon expansion and adding
//! nodes for the predicates in the condition as needed."
//!
//! Each normalized rule (a conjunction of literals plus an action set)
//! is turned into a linear *chain* BDD and unioned into the accumulated
//! diagram with a memoized `apply`. The apply carries a per-field
//! constraint context ([`crate::ctx::FieldCtx`]) that implements
//! reduction (iii): predicates forced by same-field ancestors are never
//! materialized, which removes unsatisfiable paths and keeps at most one
//! satisfiable path between any pair of component boundary nodes —
//! the property Algorithm 1's path enumeration relies on.

use std::fmt;

use fxhash::FxHashMap;

use crate::ctx::FieldCtx;
use crate::memo_key;
use crate::pred::{ActionId, FieldId, FieldInfo, Pred, PredOp};
use crate::store::{NodeRef, Store, VarId, EMPTY_ACTIONS};
use crate::Bdd;

/// Errors from BDD construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BddError {
    /// A predicate references a field id outside the field table.
    UnknownField(FieldId),
    /// A range predicate (`<`, `>`) was used on an exact-match field.
    RangeOnExactField { field: FieldId, pred: Pred },
    /// The predicate's constant does not fit the field's domain, or the
    /// predicate is trivially constant (`< 0`, `> max`).
    TrivialPred(Pred),
    /// `add_rule` used a predicate that was not declared in `Bdd::new`.
    UndeclaredPred(Pred),
}

impl fmt::Display for BddError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BddError::UnknownField(id) => write!(f, "unknown field id {}", id.0),
            BddError::RangeOnExactField { field, pred } => {
                write!(f, "range predicate {pred} on exact-match field {}", field.0)
            }
            BddError::TrivialPred(p) => write!(f, "trivially constant predicate {p}"),
            BddError::UndeclaredPred(p) => write!(f, "predicate {p} not in the declared alphabet"),
        }
    }
}

impl std::error::Error for BddError {}

/// The three things [`Bdd::apply`] can do with a rule chain: union it
/// in (`ADD`), subtract it (`STRIP`), or union it in while cleaning up
/// after a subtraction (`REASSERT`). A const parameter, so insertion —
/// the cold compiler's hot loop — compiles to what it was before
/// removal existed.
pub(crate) const ADD: u8 = 0;
const STRIP: u8 = 1;
const REASSERT: u8 = 2;

/// Sentinel context id meaning "no same-field constraints yet".
pub(crate) const CTX_NONE: u32 = 0;

impl Bdd {
    /// Creates a BDD over the given field table and predicate alphabet.
    ///
    /// All predicates that rules will use must be declared up front —
    /// this fixes the (field-major) variable order. Predicates are
    /// validated: exact fields admit only `==`, constants must lie in
    /// the field's domain, and trivially constant predicates are
    /// rejected (canonicalize first; see [`crate::pred::canonicalize`]).
    pub fn new(
        fields: Vec<FieldInfo>,
        preds: impl IntoIterator<Item = Pred>,
    ) -> Result<Bdd, BddError> {
        let mut vars: Vec<Pred> = Vec::new();
        for p in preds {
            let info = fields
                .get(p.field.0 as usize)
                .ok_or(BddError::UnknownField(p.field))?;
            let max = info.max_value();
            match p.op {
                PredOp::Eq => {
                    if p.value > max {
                        return Err(BddError::TrivialPred(p));
                    }
                }
                PredOp::Lt => {
                    if info.exact {
                        return Err(BddError::RangeOnExactField {
                            field: p.field,
                            pred: p,
                        });
                    }
                    if p.value == 0 || p.value > max {
                        return Err(BddError::TrivialPred(p));
                    }
                }
                PredOp::Gt => {
                    if info.exact {
                        return Err(BddError::RangeOnExactField {
                            field: p.field,
                            pred: p,
                        });
                    }
                    if p.value >= max {
                        return Err(BddError::TrivialPred(p));
                    }
                }
            }
            vars.push(p);
        }
        vars.sort_unstable();
        vars.dedup();
        let var_index = vars
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, VarId(i as u32)))
            .collect();

        // Context id 0 is the "no constraints" sentinel; its field id is
        // out of range so it never compares equal to a real field.
        let sentinel = FieldCtx::full(FieldId(u32::MAX), 0);
        let mut ctx_index = FxHashMap::default();
        ctx_index.insert(sentinel.clone(), CTX_NONE);

        Ok(Bdd {
            fields,
            vars,
            var_index,
            store: Store::new(),
            root: NodeRef::Term(EMPTY_ACTIONS),
            memo: FxHashMap::default(),
            memo_hits: 0,
            memo_misses: 0,
            semantic_pruning: true,
            ctxs: vec![sentinel],
            ctx_index,
            prune_memo: FxHashMap::default(),
        })
    }

    /// Disables/enables reduction (iii) (same-field implication
    /// pruning). For ablation experiments; on by default.
    pub fn set_semantic_pruning(&mut self, on: bool) {
        self.semantic_pruning = on;
    }

    /// Cumulative `(hits, misses)` of the apply memo across all
    /// `add_rule` calls.
    pub fn memo_stats(&self) -> (u64, u64) {
        (self.memo_hits, self.memo_misses)
    }

    /// The root vertex.
    pub fn root(&self) -> NodeRef {
        self.root
    }

    /// The variable order (field-major).
    pub fn vars(&self) -> &[Pred] {
        &self.vars
    }

    /// Whether `p` is in the declared predicate alphabet. Incremental
    /// sessions use this to validate a whole rule batch *before*
    /// mutating the BDD, keeping installs atomic when one conjunction
    /// would need a full recompile.
    pub fn has_pred(&self, p: &Pred) -> bool {
        self.var_index.contains_key(p)
    }

    /// The predicate tested by a variable.
    pub fn var_pred(&self, v: VarId) -> Pred {
        self.vars[v.0 as usize]
    }

    /// The field table.
    pub fn fields(&self) -> &[FieldInfo] {
        &self.fields
    }

    /// Per-field metadata.
    pub fn field_info(&self, f: FieldId) -> &FieldInfo {
        &self.fields[f.0 as usize]
    }

    /// Resolves a node reference (panics on terminals).
    pub fn node(&self, r: NodeRef) -> crate::store::Node {
        self.store.node(r)
    }

    /// The action set of a terminal.
    pub fn actions(&self, id: crate::store::ActionSetId) -> &[ActionId] {
        self.store.actions(id)
    }

    /// Number of internal nodes allocated (shared across rules).
    pub fn node_count(&self) -> usize {
        self.store.node_count()
    }

    /// Number of distinct terminal action sets (including the empty
    /// set). The compiler turns each non-trivial set with >1 forward
    /// port into a multicast group.
    pub fn action_set_count(&self) -> usize {
        self.store.action_set_count()
    }

    /// Inserts a rule: a conjunction of `(predicate, polarity)` literals
    /// guarding a set of actions. Returns `Ok(false)` when the
    /// conjunction is unsatisfiable (the BDD is unchanged), `Ok(true)`
    /// otherwise.
    pub fn add_rule(
        &mut self,
        literals: &[(Pred, bool)],
        actions: &[ActionId],
    ) -> Result<bool, BddError> {
        self.graft::<ADD>(literals, actions)
    }

    /// The mirror of [`Bdd::add_rule`]: removes `actions` from the
    /// terminal of every path satisfying the conjunction (set
    /// difference where insertion takes the union). Same return value.
    ///
    /// Terminals are action *sets*, so this also deletes the actions
    /// where *another* rule contributed them inside the conjunction's
    /// region; the caller puts those back with [`Bdd::reassert_rule`].
    /// Stripping a rule that was never inserted changes no evaluation.
    pub fn strip_rule(
        &mut self,
        literals: &[(Pred, bool)],
        actions: &[ActionId],
    ) -> Result<bool, BddError> {
        self.graft::<STRIP>(literals, actions)
    }

    /// Re-inserts a rule that is already in the diagram, after a
    /// [`Bdd::strip_rule`] whose region overlapped it. The same
    /// idempotent union as [`Bdd::add_rule`] — so re-asserting a rule
    /// the strip did not touch is harmless — plus the removal path's
    /// context-aware reduction: where the strip split a subtree and
    /// this union makes the halves the same function again, the test
    /// between them goes instead of staying behind as residue.
    pub fn reassert_rule(
        &mut self,
        literals: &[(Pred, bool)],
        actions: &[ActionId],
    ) -> Result<bool, BddError> {
        self.graft::<REASSERT>(literals, actions)
    }

    /// Builds the rule's chain and folds it into the root with `OP`.
    fn graft<const OP: u8>(
        &mut self,
        literals: &[(Pred, bool)],
        actions: &[ActionId],
    ) -> Result<bool, BddError> {
        let Some(chain) = self.rule_chain(literals, actions)? else {
            return Ok(false);
        };
        if chain == NodeRef::Term(EMPTY_ACTIONS) {
            return Ok(true); // no actions: matching it changes nothing
        }
        self.memo.clear();
        self.root = self.apply::<OP>(self.root, chain, CTX_NONE);
        self.memo.clear();
        Ok(true)
    }

    /// Turns a conjunction into a linear chain diagram ending in the
    /// action set (the empty terminal everywhere else). `None` when the
    /// conjunction is unsatisfiable.
    fn rule_chain(
        &mut self,
        literals: &[(Pred, bool)],
        actions: &[ActionId],
    ) -> Result<Option<NodeRef>, BddError> {
        // Map to variables and sort into the global order.
        let mut lits: Vec<(VarId, Pred, bool)> = Vec::with_capacity(literals.len());
        for &(p, pol) in literals {
            let v = *self.var_index.get(&p).ok_or(BddError::UndeclaredPred(p))?;
            lits.push((v, p, pol));
        }
        lits.sort_unstable_by_key(|&(v, _, _)| v);

        // Same variable twice: drop duplicates, detect contradictions.
        let mut deduped: Vec<(VarId, Pred, bool)> = Vec::with_capacity(lits.len());
        for l in lits {
            match deduped.last() {
                Some(&(pv, _, ppol)) if pv == l.0 => {
                    if ppol != l.2 {
                        return Ok(None); // p ∧ ¬p
                    }
                }
                _ => deduped.push(l),
            }
        }

        // Per-field semantic pass: drop literals forced by earlier
        // same-field literals; reject unsatisfiable conjunctions.
        let mut chainlits: Vec<(VarId, Pred, bool)> = Vec::with_capacity(deduped.len());
        let mut cur: Option<FieldCtx> = None;
        for (v, p, pol) in deduped {
            let ctx = match cur.take() {
                Some(c) if c.field == p.field => c,
                _ => FieldCtx::full(p.field, self.fields[p.field.0 as usize].max_value()),
            };
            match ctx.implies(&p) {
                Some(forced) => {
                    if forced != pol {
                        return Ok(None);
                    }
                    cur = Some(ctx); // redundant literal: drop it
                }
                None => {
                    cur = Some(ctx.extend(&p, pol));
                    chainlits.push((v, p, pol));
                }
            }
        }

        // Build the rule chain bottom-up.
        let term = self.store.intern_actions(actions);
        let empty = NodeRef::Term(EMPTY_ACTIONS);
        if term == EMPTY_ACTIONS {
            return Ok(Some(empty));
        }
        let mut acc = NodeRef::Term(term);
        for &(v, _, pol) in chainlits.iter().rev() {
            acc = if pol {
                self.store.make_node(v, empty, acc)
            } else {
                self.store.make_node(v, acc, empty)
            };
        }
        Ok(Some(acc))
    }

    fn intern_ctx(&mut self, c: FieldCtx) -> u32 {
        if let Some(&id) = self.ctx_index.get(&c) {
            return id;
        }
        let id = self.ctxs.len() as u32;
        self.ctxs.push(c.clone());
        self.ctx_index.insert(c, id);
        id
    }

    fn var_of(&self, r: NodeRef) -> Option<VarId> {
        match r {
            NodeRef::Term(_) => None,
            NodeRef::Node(_) => Some(self.store.node(r).var),
        }
    }

    fn restrict(&self, r: NodeRef, v: VarId, val: bool) -> NodeRef {
        match r {
            NodeRef::Node(_) => {
                let n = self.store.node(r);
                if n.var == v {
                    if val {
                        n.hi
                    } else {
                        n.lo
                    }
                } else {
                    r
                }
            }
            NodeRef::Term(_) => r,
        }
    }

    /// Memoized union of two diagrams under a same-field constraint
    /// context — or, for `STRIP`, the difference `a \ b`: the terminal
    /// cases swap (`a \ a = ∅`, `∅ \ b = ∅`, `a \ ∅ = a`, set
    /// difference on terminal pairs) and the memo key is ordered. The
    /// recursion is the same. Both removal operations additionally let
    /// [`Bdd::split`] drop tests that stopped deciding anything.
    pub(crate) fn apply<const OP: u8>(&mut self, a: NodeRef, b: NodeRef, ctx_id: u32) -> NodeRef {
        let empty = NodeRef::Term(EMPTY_ACTIONS);
        if OP == STRIP {
            if a == b || a == empty {
                return empty; // a \ a = ∅ \ b = ∅
            }
        } else if a == b {
            // Idempotent union — but the shared subtree may still hold
            // predicates forced by the context (same argument as the
            // empty-terminal case below).
            return self.prune(a, ctx_id);
        }
        // Union with (difference by) the empty terminal is the identity
        // — except that the surviving side may contain predicates
        // forced by the context (the other side's ancestors contributed
        // same-field constraints it was not built under), so it is
        // pruned before grafting. Pruning memoizes persistently on
        // (node, context) and exits as soon as the subtree leaves the
        // constrained field's block (field-major ordering guarantees no
        // deeper node tests it), so the amortized cost stays linear in
        // the nodes actually affected.
        if b == empty {
            return self.prune(a, ctx_id);
        }
        if OP != STRIP && a == empty {
            return self.prune(b, ctx_id);
        }
        if let (NodeRef::Term(sa), NodeRef::Term(sb)) = (a, b) {
            return NodeRef::Term(if OP == STRIP {
                self.store.diff_actions(sa, sb)
            } else {
                self.store.union_actions(sa, sb)
            });
        }

        // Split on the smallest variable present.
        let v = match (self.var_of(a), self.var_of(b)) {
            (Some(va), Some(vb)) => va.min(vb),
            (Some(va), None) => va,
            (None, Some(vb)) => vb,
            (None, None) => unreachable!("terminal/terminal handled above"),
        };
        let pred = self.vars[v.0 as usize];

        // Effective context: reset at field-block boundaries.
        let cur: FieldCtx = {
            let c = &self.ctxs[ctx_id as usize];
            if c.field == pred.field {
                c.clone()
            } else {
                FieldCtx::full(pred.field, self.fields[pred.field.0 as usize].max_value())
            }
        };
        let cid = self.intern_ctx(cur.clone());

        let key = if OP == STRIP {
            // Difference is not symmetric: keep the operand order.
            ((u64::from(a.pack()) << 32) | u64::from(b.pack()), cid)
        } else {
            memo_key(a, b, cid)
        };
        if let Some(&r) = self.memo.get(&key) {
            self.memo_hits += 1;
            return r;
        }
        self.memo_misses += 1;

        // Reduction (iii): skip variables forced by same-field ancestors.
        let result = if self.semantic_pruning {
            match cur.implies(&pred) {
                Some(val) => {
                    let ra = self.restrict(a, v, val);
                    let rb = self.restrict(b, v, val);
                    self.apply::<OP>(ra, rb, cid)
                }
                None => self.split::<OP>(a, b, v, &cur, cid),
            }
        } else {
            self.split::<OP>(a, b, v, &cur, cid)
        };

        self.memo.insert(key, result);
        result
    }

    fn split<const OP: u8>(
        &mut self,
        a: NodeRef,
        b: NodeRef,
        v: VarId,
        cur: &FieldCtx,
        cid: u32,
    ) -> NodeRef {
        let pred = self.vars[v.0 as usize];
        let (hi_ctx, lo_ctx) = if self.semantic_pruning {
            (
                self.intern_ctx(cur.extend(&pred, true)),
                self.intern_ctx(cur.extend(&pred, false)),
            )
        } else {
            (cid, cid)
        };
        let ah = self.restrict(a, v, true);
        let bh = self.restrict(b, v, true);
        let hi = self.apply::<OP>(ah, bh, hi_ctx);
        let al = self.restrict(a, v, false);
        let bl = self.restrict(b, v, false);
        let lo = self.apply::<OP>(al, bl, lo_ctx);
        if OP != ADD && self.semantic_pruning && hi != lo {
            // Reduction (ii) *under the context*: a removal can leave a
            // test whose branches are different diagrams but the same
            // function inside their contexts (`x<10 ? {b} : (x<20 ?
            // {b} : ∅)` after stripping `x<10 : a`). If one branch,
            // restricted to the other's context, is the other branch,
            // the test decides nothing: keep that one branch. Confined
            // to removal (strip and re-assert) so insertion — and with
            // it every cold compile — builds exactly the diagrams it
            // always has.
            //
            // Dropping a branch costs a walk of its sibling's field
            // block, so each direction is tried only where the rule
            // could be what the test was there for: at the rule's own
            // literals, and where its region reaches the branch that
            // would go. (A branch the rule cannot reach is what it was
            // before the rule came, when the test did decide; without
            // this, every level of a 200-way `==` chain above the
            // rule's symbol would walk the rest of the chain.)
            let empty = NodeRef::Term(EMPTY_ACTIONS);
            let own = self.var_of(b) == Some(v);
            if (own || self.prune(bh, hi_ctx) != empty) && self.prune(lo, hi_ctx) == hi {
                return self.prune(lo, cid);
            }
            if (own || self.prune(bl, lo_ctx) != empty) && self.prune(hi, lo_ctx) == lo {
                return self.prune(hi, cid);
            }
        }
        self.store.make_node(v, lo, hi)
    }

    /// Removes context-forced nodes from a grafted diagram.
    ///
    /// Because the variable order is field-major and the context only
    /// constrains a single field, the walk stops at the first node
    /// whose field differs from the context's — nothing below it can
    /// test the constrained field. Results memoize persistently on
    /// `(node, context)` (pruning is a pure function of the pair), so
    /// repeated grafts across rule insertions are amortized.
    fn prune(&mut self, r: NodeRef, ctx_id: u32) -> NodeRef {
        if !self.semantic_pruning {
            return r;
        }
        let NodeRef::Node(_) = r else { return r };
        let n = self.store.node(r);
        let pred = self.vars[n.var.0 as usize];
        if self.ctxs[ctx_id as usize].field != pred.field {
            // The subtree's fields are all ≥ this node's field, which is
            // > the context's field: the constraint is irrelevant below.
            return r;
        }
        let pkey = (u64::from(r.pack()) << 32) | u64::from(ctx_id);
        if let Some(&res) = self.prune_memo.get(&pkey) {
            return res;
        }
        let cur = self.ctxs[ctx_id as usize].clone();
        let res = match cur.implies(&pred) {
            // Following a forced branch adds no information to the
            // context (the predicate's outcome was already implied).
            Some(true) => self.prune(n.hi, ctx_id),
            Some(false) => self.prune(n.lo, ctx_id),
            None => {
                let hi_ctx = self.intern_ctx(cur.extend(&pred, true));
                let lo_ctx = self.intern_ctx(cur.extend(&pred, false));
                let hi = self.prune(n.hi, hi_ctx);
                let lo = self.prune(n.lo, lo_ctx);
                self.store.make_node(n.var, lo, hi)
            }
        };
        self.prune_memo.insert(pkey, res);
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pred::FieldInfo;

    fn two_field_bdd() -> Bdd {
        let fields = vec![
            FieldInfo::range("shares", 32),
            FieldInfo::exact("stock", 64),
        ];
        let shares = FieldId(0);
        let stock = FieldId(1);
        let preds = vec![
            Pred::lt(shares, 60),
            Pred::gt(shares, 100),
            Pred::eq(stock, 1),
            Pred::eq(stock, 2),
        ];
        Bdd::new(fields, preds).unwrap()
    }

    #[test]
    fn new_rejects_bad_predicates() {
        let fields = vec![FieldInfo::range("a", 8), FieldInfo::exact("s", 16)];
        assert!(matches!(
            Bdd::new(fields.clone(), [Pred::eq(FieldId(9), 1)]),
            Err(BddError::UnknownField(_))
        ));
        assert!(matches!(
            Bdd::new(fields.clone(), [Pred::lt(FieldId(1), 5)]),
            Err(BddError::RangeOnExactField { .. })
        ));
        assert!(matches!(
            Bdd::new(fields.clone(), [Pred::eq(FieldId(0), 256)]),
            Err(BddError::TrivialPred(_))
        ));
        assert!(matches!(
            Bdd::new(fields.clone(), [Pred::lt(FieldId(0), 0)]),
            Err(BddError::TrivialPred(_))
        ));
        assert!(matches!(
            Bdd::new(fields, [Pred::gt(FieldId(0), 255)]),
            Err(BddError::TrivialPred(_))
        ));
    }

    #[test]
    fn add_rule_rejects_undeclared_pred() {
        let mut bdd = two_field_bdd();
        let err = bdd.add_rule(&[(Pred::eq(FieldId(1), 99), true)], &[ActionId(0)]);
        assert!(matches!(err, Err(BddError::UndeclaredPred(_))));
    }

    #[test]
    fn contradictory_rule_is_noop() {
        let mut bdd = two_field_bdd();
        let shares = FieldId(0);
        let inserted = bdd
            .add_rule(
                &[(Pred::lt(shares, 60), true), (Pred::gt(shares, 100), true)],
                &[ActionId(0)],
            )
            .unwrap();
        assert!(!inserted);
        assert_eq!(bdd.root(), NodeRef::Term(EMPTY_ACTIONS));
    }

    #[test]
    fn same_literal_twice_dedupes() {
        let mut bdd = two_field_bdd();
        let stock = FieldId(1);
        let p = Pred::eq(stock, 1);
        assert!(bdd
            .add_rule(&[(p, true), (p, true)], &[ActionId(0)])
            .unwrap());
        assert_eq!(bdd.eval(|_| 1), &[ActionId(0)]);
    }

    #[test]
    fn opposite_literals_are_unsat() {
        let mut bdd = two_field_bdd();
        let p = Pred::eq(FieldId(1), 1);
        assert!(!bdd
            .add_rule(&[(p, true), (p, false)], &[ActionId(0)])
            .unwrap());
    }

    #[test]
    fn redundant_literal_is_dropped() {
        // shares < 60 ∧ shares < 100 — the second is implied (note only
        // <60 is in the alphabet's... both must be declared).
        let fields = vec![FieldInfo::range("shares", 32)];
        let f = FieldId(0);
        let mut bdd = Bdd::new(fields, [Pred::lt(f, 60), Pred::lt(f, 100)]).unwrap();
        bdd.add_rule(
            &[(Pred::lt(f, 60), true), (Pred::lt(f, 100), true)],
            &[ActionId(0)],
        )
        .unwrap();
        // Only one node materialized: the <100 test was implied.
        assert_eq!(bdd.node_count(), 1);
        assert_eq!(bdd.eval(|_| 59), &[ActionId(0)]);
        assert_eq!(bdd.eval(|_| 60), &[] as &[ActionId]);
    }

    #[test]
    fn empty_action_rule_is_noop() {
        let mut bdd = two_field_bdd();
        assert!(bdd
            .add_rule(&[(Pred::eq(FieldId(1), 1), true)], &[])
            .unwrap());
        assert_eq!(bdd.root(), NodeRef::Term(EMPTY_ACTIONS));
    }

    #[test]
    fn true_rule_reaches_every_packet() {
        let mut bdd = two_field_bdd();
        bdd.add_rule(&[(Pred::eq(FieldId(1), 1), true)], &[ActionId(0)])
            .unwrap();
        bdd.add_rule(&[], &[ActionId(7)]).unwrap();
        assert_eq!(bdd.eval(|_| 1), &[ActionId(0), ActionId(7)]);
        assert_eq!(bdd.eval(|_| 9), &[ActionId(7)]);
    }

    #[test]
    fn figure3_structure() {
        // Rules of Figure 3:
        //   r1: shares < 60 ∧ stock == AAPL : fwd(1)
        //   r2: stock == AAPL : fwd(2)     (merged with r1 → fwd(1,2))
        //   r3: shares > 100 ∧ stock == MSFT : fwd(3)
        let mut bdd = two_field_bdd();
        let shares = FieldId(0);
        let stock = FieldId(1);
        const AAPL: u64 = 1;
        const MSFT: u64 = 2;
        bdd.add_rule(
            &[(Pred::lt(shares, 60), true), (Pred::eq(stock, AAPL), true)],
            &[ActionId(1)],
        )
        .unwrap();
        bdd.add_rule(&[(Pred::eq(stock, AAPL), true)], &[ActionId(2)])
            .unwrap();
        bdd.add_rule(
            &[(Pred::gt(shares, 100), true), (Pred::eq(stock, MSFT), true)],
            &[ActionId(3)],
        )
        .unwrap();

        let eval = |sh: u64, st: u64| {
            bdd.eval(move |f| if f == shares { sh } else { st })
                .to_vec()
        };
        // shares<60, AAPL → both rules 1 and 2.
        assert_eq!(eval(50, AAPL), vec![ActionId(1), ActionId(2)]);
        // shares in [60,100], AAPL → rule 2 only.
        assert_eq!(eval(80, AAPL), vec![ActionId(2)]);
        // shares>100, AAPL → rule 2 only.
        assert_eq!(eval(150, AAPL), vec![ActionId(2)]);
        // shares>100, MSFT → rule 3.
        assert_eq!(eval(150, MSFT), vec![ActionId(3)]);
        // shares<60, MSFT → nothing.
        assert_eq!(eval(50, MSFT), Vec::<ActionId>::new());
        // unknown stock → nothing.
        assert_eq!(eval(150, 9), Vec::<ActionId>::new());
    }

    #[test]
    fn strip_rule_mirrors_add_rule() {
        let mut bdd = two_field_bdd();
        let (shares, stock) = (FieldId(0), FieldId(1));
        let r1 = [(Pred::lt(shares, 60), true), (Pred::eq(stock, 1), true)];
        let r2 = [(Pred::eq(stock, 1), true)];
        bdd.add_rule(&r1, &[ActionId(1)]).unwrap();
        bdd.add_rule(&r2, &[ActionId(2)]).unwrap();
        let eval = |bdd: &Bdd, sh: u64, st: u64| {
            bdd.eval(move |f| if f == shares { sh } else { st })
                .to_vec()
        };
        // Stripping a rule that was never inserted changes nothing.
        let before = bdd.root();
        assert!(bdd
            .strip_rule(&[(Pred::eq(stock, 2), true)], &[ActionId(3)])
            .unwrap());
        assert_eq!(bdd.root(), before);
        assert!(!bdd
            .strip_rule(
                &[(Pred::eq(stock, 1), true), (Pred::eq(stock, 1), false)],
                &[ActionId(1)]
            )
            .unwrap());
        assert_eq!(bdd.root(), before);

        assert!(bdd.strip_rule(&r1, &[ActionId(1)]).unwrap());
        assert_eq!(eval(&bdd, 50, 1), vec![ActionId(2)]);
        assert_eq!(eval(&bdd, 80, 1), vec![ActionId(2)]);
        // The shares test decides nothing any more: one node is left.
        assert_eq!(bdd.stats().reachable_nodes, 1);
        bdd.validate().unwrap();

        assert!(bdd.strip_rule(&r2, &[ActionId(2)]).unwrap());
        assert_eq!(bdd.root(), NodeRef::Term(EMPTY_ACTIONS));
    }

    #[test]
    fn strip_drops_tests_that_stopped_deciding_inside_their_context() {
        // x<10 : a and x<20 : b build `x<10 ? {a,b} : (x<20 ? {b} : ∅)`.
        // Without the a-rule the x<10 test has two different children
        // that are the same function where each applies.
        let f = FieldId(0);
        let fields = vec![FieldInfo::range("x", 16)];
        let preds = [Pred::lt(f, 10), Pred::lt(f, 20)];
        let mut bdd = Bdd::new(fields.clone(), preds).unwrap();
        bdd.add_rule(&[(Pred::lt(f, 10), true)], &[ActionId(0)])
            .unwrap();
        bdd.add_rule(&[(Pred::lt(f, 20), true)], &[ActionId(1)])
            .unwrap();
        bdd.strip_rule(&[(Pred::lt(f, 10), true)], &[ActionId(0)])
            .unwrap();

        let mut fresh = Bdd::new(fields, preds).unwrap();
        fresh
            .add_rule(&[(Pred::lt(f, 20), true)], &[ActionId(1)])
            .unwrap();
        assert_eq!(bdd.stats().reachable_nodes, 1);
        assert_eq!(bdd.node(bdd.root()).var, fresh.node(fresh.root()).var);
        for x in [0u64, 9, 10, 19, 20, 500] {
            assert_eq!(bdd.eval(|_| x), fresh.eval(|_| x), "x={x}");
        }
        bdd.validate().unwrap();
    }

    #[test]
    fn strip_takes_shared_actions_with_it_until_reasserted() {
        // Two overlapping rules share action 7. Stripping one deletes 7
        // inside its region even where the other still matches — the
        // documented contract — and re-adding the survivor restores it.
        let mut bdd = two_field_bdd();
        let (shares, stock) = (FieldId(0), FieldId(1));
        let narrow = [(Pred::lt(shares, 60), true), (Pred::eq(stock, 1), true)];
        let wide = [(Pred::eq(stock, 1), true)];
        bdd.add_rule(&narrow, &[ActionId(7)]).unwrap();
        bdd.add_rule(&wide, &[ActionId(7)]).unwrap();
        bdd.strip_rule(&narrow, &[ActionId(7)]).unwrap();
        let at = |bdd: &Bdd, sh: u64| bdd.eval(move |f| if f == shares { sh } else { 1 }).to_vec();
        assert_eq!(at(&bdd, 50), Vec::<ActionId>::new());
        assert_eq!(at(&bdd, 80), vec![ActionId(7)]);
        bdd.reassert_rule(&wide, &[ActionId(7)]).unwrap();
        assert_eq!(at(&bdd, 50), vec![ActionId(7)]);
        assert_eq!(bdd.stats().reachable_nodes, 1);
    }

    #[test]
    fn pruning_reduces_nodes_vs_no_pruning() {
        let build = |pruning: bool| {
            let fields = vec![FieldInfo::range("x", 16)];
            let f = FieldId(0);
            let preds: Vec<Pred> = (1..20).map(|i| Pred::lt(f, i * 10)).collect();
            let mut bdd = Bdd::new(fields, preds.clone()).unwrap();
            bdd.set_semantic_pruning(pruning);
            // Overlapping interval rules: x < 10i ∧ x > ... via pairs of Lt.
            for (i, w) in preds.windows(2).enumerate() {
                bdd.add_rule(&[(w[0], false), (w[1], true)], &[ActionId(i as u32)])
                    .unwrap();
            }
            bdd
        };
        let with = build(true);
        let without = build(false);
        assert!(with.node_count() <= without.node_count());
        // Semantics agree regardless of pruning.
        for x in [0u64, 5, 10, 55, 95, 150, 200] {
            assert_eq!(with.eval(|_| x), without.eval(|_| x), "x={x}");
        }
    }

    #[test]
    fn memo_stats_accumulate() {
        let mut bdd = two_field_bdd();
        bdd.add_rule(&[(Pred::eq(FieldId(1), 1), true)], &[ActionId(0)])
            .unwrap();
        bdd.add_rule(&[(Pred::eq(FieldId(1), 2), true)], &[ActionId(1)])
            .unwrap();
        let (_h, m) = bdd.memo_stats();
        assert!(m > 0);
    }
}
