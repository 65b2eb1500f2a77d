//! # camus-bdd — multi-terminal binary decision diagrams for packet filters
//!
//! The Camus compiler represents the whole set of subscription rules as a
//! single **multi-terminal, ordered BDD** (§3.2 of the paper): internal
//! nodes test atomic predicates `field op constant`, terminal nodes carry
//! *sets of actions* (the actions of all rules matched along the path).
//!
//! This crate provides:
//!
//! * the canonical predicate alphabet (`<`, `>`, `==` over unsigned
//!   fields) and canonicalization of the extended operator set produced
//!   by negation ([`pred`]);
//! * a hash-consed node store implementing the paper's reductions —
//!   (i) isomorphic-node sharing, (ii) redundant-test elimination
//!   ([`store`]);
//! * rule insertion via a context-aware `apply`-union that also performs
//!   reduction (iii): a predicate implied true or false by its
//!   same-field ancestors is never materialized, which removes
//!   unsatisfiable paths and is what bounds Algorithm 1's path count
//!   ([`build`], [`ctx`]);
//! * evaluation, structural validation and statistics ([`eval`]);
//! * field-component slicing — the decomposition Algorithm 1 consumes
//!   ([`mod@slice`]);
//! * variable-ordering heuristics ([`order`]) and DOT export ([`dot`]).
//!
//! The variable order is *field-major*: all predicates on a field form a
//! contiguous block, so every root-to-leaf path visits fields in one
//! global order — the property that lets §3.2 evaluate the BDD as a
//! fixed-length pipeline of per-field match-action tables.
//!
//! ## Example
//!
//! Build the three-rule BDD of the paper's Figure 3 and evaluate it:
//!
//! ```
//! use camus_bdd::pred::{ActionId, FieldId, FieldInfo, Pred};
//! use camus_bdd::Bdd;
//!
//! let shares = FieldId(0);
//! let stock = FieldId(1);
//! let fields = vec![
//!     FieldInfo::range("shares", 32),
//!     FieldInfo::exact("stock", 64),
//! ];
//! const AAPL: u64 = 1;
//! const MSFT: u64 = 2;
//! let preds = vec![
//!     Pred::lt(shares, 60),
//!     Pred::gt(shares, 100),
//!     Pred::eq(stock, AAPL),
//!     Pred::eq(stock, MSFT),
//! ];
//! let mut bdd = Bdd::new(fields, preds).unwrap();
//! // rule 1: shares < 60 ∧ stock == AAPL : fwd(1)  — action id 0
//! bdd.add_rule(&[(Pred::lt(shares, 60), true), (Pred::eq(stock, AAPL), true)], &[ActionId(0)]).unwrap();
//! // rule 2: stock == AAPL : fwd(2) — action id 1
//! bdd.add_rule(&[(Pred::eq(stock, AAPL), true)], &[ActionId(1)]).unwrap();
//! // rule 3: shares > 100 ∧ stock == MSFT : fwd(3) — action id 2
//! bdd.add_rule(&[(Pred::gt(shares, 100), true), (Pred::eq(stock, MSFT), true)], &[ActionId(2)]).unwrap();
//!
//! // A packet with shares = 50, stock = AAPL matches rules 1 and 2.
//! let actions = bdd.eval(|f| if f == shares { 50 } else { AAPL });
//! assert_eq!(actions, &[ActionId(0), ActionId(1)]);
//! ```

pub mod build;
pub mod ctx;
pub mod dot;
pub mod eval;
pub mod merge;
pub mod order;
pub mod pred;
pub mod slice;
pub mod store;

pub use build::BddError;
pub use pred::{ActionId, FieldId, FieldInfo, Pred, PredOp};
pub use store::{ActionSetId, NodeRef, VarId};

use fxhash::FxHashMap;

/// A multi-terminal ordered BDD over packet-filter predicates.
///
/// Created with a fixed field table and predicate alphabet
/// ([`Bdd::new`]); rules are inserted with [`Bdd::add_rule`], which
/// unions the rule's actions into the terminals of every satisfying
/// path. See the crate docs for an example.
pub struct Bdd {
    pub(crate) fields: Vec<FieldInfo>,
    /// Variable table in evaluation order (field-major).
    pub(crate) vars: Vec<Pred>,
    pub(crate) var_index: FxHashMap<Pred, VarId>,
    pub(crate) store: store::Store,
    pub(crate) root: NodeRef,
    /// `apply` memo, cleared per `add_rule` call to bound memory. Keyed
    /// on the packed `(a, b)` pair (see [`NodeRef::pack`]) plus the
    /// context id — 12 bytes instead of three enum words.
    pub(crate) memo: FxHashMap<(u64, u32), NodeRef>,
    /// Cumulative memo statistics, for the incremental-compilation
    /// ablation (DESIGN.md §7).
    pub(crate) memo_hits: u64,
    pub(crate) memo_misses: u64,
    /// Whether reduction (iii) — same-field implication pruning — is
    /// enabled. On by default; the ablation benches switch it off.
    pub(crate) semantic_pruning: bool,
    /// Hash-consed constraint contexts — the states of the context
    /// automaton. Index 0 is the "no constraints" sentinel; index
    /// `1 + f` is field `f`'s unconstrained context, where its block
    /// starts.
    pub(crate) ctxs: Vec<ctx::FieldCtx>,
    pub(crate) ctx_index: FxHashMap<ctx::FieldCtx, u32>,
    /// The automaton's transitions: what testing a variable does to a
    /// context, keyed on `ctx << 32 | var` and filled on first use
    /// ([`build::Step`]). A pinned context's are computed, not stored.
    pub(crate) steps: FxHashMap<u64, build::Step>,
    /// Persistent memo for `prune` — a pure function of (node, ctx),
    /// keyed on `packed(node) << 32 | ctx`.
    pub(crate) prune_memo: FxHashMap<u64, NodeRef>,
    /// `apply`'s explicit stack, empty between calls and kept for its
    /// capacity.
    pub(crate) frames: Vec<build::Frame>,
}

/// Packs an apply-memo key: the symmetric `(a, b)` pair in one `u64`
/// (smaller packed value in the high half) plus the context id.
#[inline]
pub(crate) fn memo_key(a: NodeRef, b: NodeRef, cid: u32) -> (u64, u32) {
    let (pa, pb) = (a.pack(), b.pack());
    let pair = if pa <= pb {
        (u64::from(pa) << 32) | u64::from(pb)
    } else {
        (u64::from(pb) << 32) | u64::from(pa)
    };
    (pair, cid)
}

impl std::fmt::Debug for Bdd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bdd")
            .field("fields", &self.fields.len())
            .field("vars", &self.vars.len())
            .field("nodes", &self.store.node_count())
            .field("root", &self.root)
            .finish_non_exhaustive()
    }
}
