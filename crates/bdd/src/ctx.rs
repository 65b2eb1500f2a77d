//! Per-field constraint contexts — the machinery behind the paper's
//! domain-specific reduction (iii):
//!
//! > "If any ancestor n′ of a new node n implies that n is always true
//! > or always false, then n is not added; instead, it reduces to a
//! > direct connection to its true or false branch."
//!
//! Because atomic predicates on *different* fields are logically
//! independent, implication can only come from same-field ancestors. The
//! context therefore tracks the constraint accumulated on a single field
//! — an inclusive interval plus a set of excluded points — and resets at
//! field-block boundaries. This keeps contexts small and lets the
//! `apply` memo key on a hash-consed context id; construction walks
//! those ids through a step table and asks [`FieldCtx::implies`] and
//! [`FieldCtx::extend`] only to fill it (module [`crate::build`]).

use crate::pred::{FieldId, Pred, PredOp};

/// Maximum number of excluded points tracked exactly. Beyond this the
/// exclusion set saturates: implication answers stay sound (we only
/// lose some *false* answers for `==` predicates), and memory stays
/// bounded even for adversarial rule sets.
const MAX_EXCLUSIONS: usize = 64;

/// If the interval is at most this wide we check for exhaustion (every
/// remaining value excluded ⇒ remaining `==` forced).
const EXHAUSTION_WINDOW: u64 = 64;

/// Constraint on a single field accumulated along a BDD path.
///
/// Invariant: `lo <= hi` (the constraint is satisfiable as an interval;
/// excluded points may still exhaust it, which `implies` detects for
/// narrow intervals).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FieldCtx {
    /// Field being constrained.
    pub field: FieldId,
    /// Inclusive lower bound.
    pub lo: u64,
    /// Inclusive upper bound.
    pub hi: u64,
    /// Excluded points within `[lo, hi]`, sorted. Saturates at
    /// `MAX_EXCLUSIONS` (tracked by `saturated`).
    pub excluded: Vec<u64>,
    /// Set when exclusions overflowed; the set is then an
    /// under-approximation.
    pub saturated: bool,
}

impl FieldCtx {
    /// Unconstrained context for a field whose domain is `[0, max]`.
    pub fn full(field: FieldId, max: u64) -> Self {
        FieldCtx {
            field,
            lo: 0,
            hi: max,
            excluded: Vec::new(),
            saturated: false,
        }
    }

    /// Whether the context pins the field to a single value.
    pub fn pinned(&self) -> Option<u64> {
        if self.lo == self.hi {
            Some(self.lo)
        } else {
            self.sole_survivor()
        }
    }

    /// For narrow intervals, the single non-excluded value, if exactly
    /// one remains.
    fn sole_survivor(&self) -> Option<u64> {
        if self.saturated {
            return None;
        }
        let width = self.hi - self.lo;
        if width > EXHAUSTION_WINDOW {
            return None;
        }
        let mut found = None;
        for v in self.lo..=self.hi {
            if !self.excluded.contains(&v) {
                if found.is_some() {
                    return None;
                }
                found = Some(v);
            }
        }
        found
    }

    /// Does the accumulated constraint force `pred` to a known outcome?
    ///
    /// Returns `Some(true)` / `Some(false)` when every value satisfying
    /// the context satisfies / violates `pred`; `None` when both
    /// outcomes remain possible. Must only be called for predicates on
    /// `self.field`.
    pub fn implies(&self, pred: &Pred) -> Option<bool> {
        debug_assert_eq!(pred.field, self.field);
        if let Some(v) = self.pinned() {
            return Some(pred.eval(v));
        }
        match pred.op {
            PredOp::Eq => {
                // lo < hi here, so the interval has >= 2 values and Eq can
                // never be forced true; forced false iff value is outside
                // the interval or excluded.
                if pred.value < self.lo
                    || pred.value > self.hi
                    || self.excluded.contains(&pred.value)
                {
                    Some(false)
                } else {
                    None
                }
            }
            PredOp::Lt => {
                if self.hi < pred.value {
                    Some(true)
                } else if self.lo >= pred.value {
                    Some(false)
                } else {
                    None
                }
            }
            PredOp::Gt => {
                if self.lo > pred.value {
                    Some(true)
                } else if self.hi <= pred.value {
                    Some(false)
                } else {
                    None
                }
            }
        }
    }

    /// Refines the context with the outcome of `pred`.
    ///
    /// Precondition: `self.implies(pred)` returned `None` (so the refined
    /// interval is non-empty). Exclusion bookkeeping may saturate; see
    /// [`FieldCtx::saturated`].
    pub fn extend(&self, pred: &Pred, outcome: bool) -> FieldCtx {
        debug_assert_eq!(pred.field, self.field);
        debug_assert_eq!(
            self.implies(pred),
            None,
            "extend called on a forced predicate"
        );
        let mut next = self.clone();
        match (pred.op, outcome) {
            (PredOp::Eq, true) => {
                next.lo = pred.value;
                next.hi = pred.value;
                next.excluded.clear();
                next.saturated = false;
            }
            (PredOp::Eq, false) => {
                if next.excluded.len() >= MAX_EXCLUSIONS {
                    next.saturated = true;
                } else if let Err(i) = next.excluded.binary_search(&pred.value) {
                    next.excluded.insert(i, pred.value);
                }
            }
            (PredOp::Lt, true) => next.hi = next.hi.min(pred.value - 1),
            (PredOp::Lt, false) => next.lo = next.lo.max(pred.value),
            (PredOp::Gt, true) => next.lo = next.lo.max(pred.value + 1),
            (PredOp::Gt, false) => next.hi = next.hi.min(pred.value),
        }
        next.excluded.retain(|&v| v >= next.lo && v <= next.hi);
        // Tighten bounds past excluded edge points so that interval-based
        // implication stays as strong as possible (e.g. [0,63] minus {0}
        // forces `> 0`).
        if !next.saturated {
            while next.lo < next.hi && next.excluded.first() == Some(&next.lo) {
                next.excluded.remove(0);
                next.lo += 1;
            }
            while next.lo < next.hi && next.excluded.last() == Some(&next.hi) {
                next.excluded.pop();
                next.hi -= 1;
            }
        }
        debug_assert!(next.lo <= next.hi);
        next
    }

    /// Whether a concrete value satisfies the context.
    pub fn contains(&self, v: u64) -> bool {
        v >= self.lo && v <= self.hi && !self.excluded.contains(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const F: FieldId = FieldId(0);

    fn full() -> FieldCtx {
        FieldCtx::full(F, 255)
    }

    #[test]
    fn fresh_context_forces_nothing_interior() {
        let c = full();
        assert_eq!(c.implies(&Pred::lt(F, 10)), None);
        assert_eq!(c.implies(&Pred::gt(F, 10)), None);
        assert_eq!(c.implies(&Pred::eq(F, 10)), None);
    }

    #[test]
    fn domain_bounds_force_edge_predicates() {
        let c = full();
        // Every value in [0,255] satisfies `< 256`-style predicates only if
        // canonicalization produced them; the context still answers for
        // in-domain constants at the edges.
        assert_eq!(c.implies(&Pred::gt(F, 255)), Some(false));
        assert_eq!(c.implies(&Pred::lt(F, 0)), Some(false)); // lo >= 0
    }

    #[test]
    fn figure3_shares_pruning() {
        // On the false branch of `shares < 60`, `shares > 100` is open;
        // on the true branch it is forced false — the exact reduction that
        // keeps Figure 3's left subtree free of the `> 100` test.
        let c = full().extend(&Pred::lt(F, 60), true);
        assert_eq!(c.implies(&Pred::gt(F, 100)), Some(false));
        let c = full().extend(&Pred::lt(F, 60), false);
        assert_eq!(c.implies(&Pred::gt(F, 100)), None);
        assert_eq!(c.implies(&Pred::lt(F, 30)), Some(false));
        assert_eq!(c.implies(&Pred::gt(F, 60)), None);
        assert_eq!(c.implies(&Pred::gt(F, 59)), Some(true));
    }

    #[test]
    fn eq_true_pins_field() {
        let c = full().extend(&Pred::eq(F, 42), true);
        assert_eq!(c.pinned(), Some(42));
        assert_eq!(c.implies(&Pred::eq(F, 42)), Some(true));
        assert_eq!(c.implies(&Pred::eq(F, 43)), Some(false));
        assert_eq!(c.implies(&Pred::lt(F, 100)), Some(true));
        assert_eq!(c.implies(&Pred::gt(F, 42)), Some(false));
    }

    #[test]
    fn eq_false_excludes_point() {
        let c = full().extend(&Pred::eq(F, 42), false);
        assert_eq!(c.implies(&Pred::eq(F, 42)), Some(false));
        assert_eq!(c.implies(&Pred::eq(F, 43)), None);
    }

    #[test]
    fn interval_exhaustion_forces_last_value() {
        // [5,6] with 5 excluded leaves only 6.
        let mut c = FieldCtx::full(F, 255);
        c = c.extend(&Pred::gt(F, 4), true); // [5,255]
        c = c.extend(&Pred::lt(F, 7), true); // [5,6]
        c = c.extend(&Pred::eq(F, 5), false); // {6}
        assert_eq!(c.pinned(), Some(6));
        assert_eq!(c.implies(&Pred::eq(F, 6)), Some(true));
    }

    #[test]
    fn exclusions_outside_interval_are_dropped() {
        let mut c = full();
        c = c.extend(&Pred::eq(F, 200), false);
        c = c.extend(&Pred::lt(F, 100), true); // interval [0,99]: 200 irrelevant
        assert!(c.excluded.is_empty());
    }

    #[test]
    fn saturation_keeps_soundness() {
        // Exclude non-contiguous (odd) points so bound tightening cannot
        // absorb them into the interval.
        let mut c = FieldCtx::full(F, u64::MAX);
        for i in 0..(MAX_EXCLUSIONS as u64 + 10) {
            let v = 2 * i + 1;
            if c.implies(&Pred::eq(F, v)).is_none() {
                c = c.extend(&Pred::eq(F, v), false);
            }
        }
        assert!(c.saturated);
        // Saturated contexts may answer None where Some(false) would be
        // exact, but must never answer Some(true) wrongly.
        assert_eq!(c.implies(&Pred::eq(F, MAX_EXCLUSIONS as u64 + 100)), None);
    }

    #[test]
    fn contains_matches_constraints() {
        let c = full()
            .extend(&Pred::lt(F, 10), true)
            .extend(&Pred::eq(F, 5), false);
        assert!(c.contains(4));
        assert!(!c.contains(5));
        assert!(!c.contains(10));
    }

    /// Differential check: `implies` agrees with brute-force evaluation
    /// over every value of a small domain, for random constraint chains,
    /// and the diagram's context automaton agrees with `FieldCtx`: for
    /// every context a walk reaches and every declared predicate, the
    /// step is `Forced(implies(p))` or the interned ids of
    /// `extend(p, true)` and `extend(p, false)`. The second walk takes
    /// only false `==` edges on an exact field, as the 100-symbol ITCH
    /// chain does, so its exclusion sets pass the `MAX_EXCLUSIONS`
    /// saturation.
    #[test]
    fn implies_agrees_with_brute_force() {
        use crate::build::Step;
        use crate::pred::FieldInfo;
        use crate::Bdd;

        // Deterministic pseudo-random walk.
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut saturated = 0;
        // (field, walks, steps per walk, only false `==` edges)
        let walks = [
            (FieldInfo::range("x", 5), 200, 6, false),
            (FieldInfo::exact("s", 7), 8, 150, true),
        ];
        for (info, walks, steps, eq_false) in walks {
            let max = info.max_value();
            let preds: Vec<Pred> = (0..=max)
                .flat_map(|v| [Pred::eq(F, v), Pred::lt(F, v.max(1)), Pred::gt(F, v)])
                .filter(|p| !info.exact || p.op == PredOp::Eq)
                .collect();
            // The diagram's alphabet: every predicate `Bdd::new` admits.
            let declared: Vec<Pred> = preds
                .iter()
                .copied()
                .filter(|p| Bdd::new(vec![info.clone()], [*p]).is_ok())
                .collect();
            let mut bdd = Bdd::new(vec![info.clone()], declared.iter().copied()).unwrap();
            let eqs: Vec<Pred> = preds
                .iter()
                .copied()
                .filter(|p| p.op == PredOp::Eq)
                .collect();
            for _ in 0..walks {
                let mut c = FieldCtx::full(F, max);
                let mut cid = 1; // the field's unconstrained context
                for _ in 0..steps {
                    let (p, pol) = if eq_false {
                        (eqs[(next() % eqs.len() as u64) as usize], false)
                    } else {
                        (
                            declared[(next() % declared.len() as u64) as usize],
                            next() % 2 == 0,
                        )
                    };
                    if c.implies(&p).is_none() {
                        cid = match bdd.step(cid, bdd.var_index[&p]) {
                            Step::Split { hi, lo } => [lo, hi][usize::from(pol)],
                            forced => panic!("ctx={c:?} p={p}: {forced:?}"),
                        };
                        c = c.extend(&p, pol);
                    }
                    assert_eq!(bdd.ctxs[cid as usize], c);
                    // Check every predicate against brute force.
                    let values: Vec<u64> = (0..=max).filter(|&v| c.contains(v)).collect();
                    assert!(!values.is_empty(), "context became empty: {c:?}");
                    for q in &preds {
                        let all_true = values.iter().all(|&v| q.eval(v));
                        let all_false = values.iter().all(|&v| !q.eval(v));
                        match c.implies(q) {
                            Some(true) => assert!(all_true, "ctx={c:?} q={q}"),
                            Some(false) => assert!(all_false, "ctx={c:?} q={q}"),
                            None => {
                                // None is sound (a missed implication is
                                // allowed only when exclusions saturated or
                                // the window heuristic skipped the check).
                            }
                        }
                    }
                    // ... and the automaton against `FieldCtx`.
                    for q in &declared {
                        let got = bdd.step(cid, bdd.var_index[q]);
                        let want = match c.implies(q) {
                            Some(forced) => Step::Forced(forced),
                            None => Step::Split {
                                hi: bdd.ctx_index[&c.extend(q, true)],
                                lo: bdd.ctx_index[&c.extend(q, false)],
                            },
                        };
                        assert_eq!(got, want, "ctx={c:?} q={q}");
                    }
                }
                saturated += usize::from(c.saturated);
            }
        }
        assert!(saturated > 0, "no walk passed the exclusion saturation");
    }
}
