//! Variable-ordering heuristics.
//!
//! §3.2: "The choice of an order can significantly impact the size of a
//! BDD. Determining an optimal field order is NP-hard, but simple
//! heuristics often work well in practice."
//!
//! The order decided here is *field-level* (the within-field predicate
//! order is fixed by [`crate::pred::PredOp`]'s canonical ordering): the
//! compiler computes a permutation of the query fields and assigns
//! [`crate::pred::FieldId`]s accordingly, which fixes both the BDD
//! variable order and the stage order of the compiled pipeline.

use std::collections::HashSet;

use crate::pred::Pred;

/// Selectable field-ordering heuristics. The compiler's default is
/// [`OrderHeuristic::ExactFirst`] (`CompilerOptions::default()`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OrderHeuristic {
    /// Keep the order fields were annotated in the spec.
    SpecOrder,
    /// Fields referenced by the most rules first: popular fields near
    /// the root maximize prefix sharing between rules. Ties keep spec
    /// order, so on ITCH, where every rule constrains both `stock` and
    /// `price`, `price` comes first — 21× the entries of `ExactFirst`
    /// in the field-order ablation.
    FrequencyDescending,
    /// Fields with the fewest distinct predicate constants first: small
    /// fan-out near the root.
    DistinctValuesAscending,
    /// Exact-match fields before range fields; ties by frequency. Exact
    /// components produce pinned (SRAM) entries, so deciding them early
    /// shrinks the TCAM-hungry range components.
    ExactFirst,
}

impl OrderHeuristic {
    /// All heuristics, for sweeps/ablations.
    pub const ALL: [OrderHeuristic; 4] = [
        OrderHeuristic::SpecOrder,
        OrderHeuristic::FrequencyDescending,
        OrderHeuristic::DistinctValuesAscending,
        OrderHeuristic::ExactFirst,
    ];

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            OrderHeuristic::SpecOrder => "spec-order",
            OrderHeuristic::FrequencyDescending => "freq-desc",
            OrderHeuristic::DistinctValuesAscending => "distinct-asc",
            OrderHeuristic::ExactFirst => "exact-first",
        }
    }
}

/// Per-field statistics a heuristic ranks on.
#[derive(Debug, Clone, Default)]
pub struct FieldUsage {
    /// Number of rule conjunctions referencing the field.
    pub rule_refs: usize,
    /// Distinct constants appearing in the field's predicates.
    pub distinct_values: usize,
    /// Whether the field is exact-match-only.
    pub exact: bool,
}

/// Computes per-field usage statistics from normalized conjunctions.
/// `conjs` iterates rule conjunctions; each yields the predicates of one
/// rule (field ids refer to spec order). `nfields` is the number of
/// query fields.
pub fn field_usage<'a>(
    conjs: impl IntoIterator<Item = &'a [(Pred, bool)]>,
    nfields: usize,
    exact: &[bool],
) -> Vec<FieldUsage> {
    let mut usage: Vec<FieldUsage> = (0..nfields)
        .map(|i| FieldUsage {
            exact: exact.get(i).copied().unwrap_or(false),
            ..Default::default()
        })
        .collect();
    let mut values: Vec<HashSet<u64>> = vec![HashSet::new(); nfields];
    for conj in conjs {
        let mut seen_fields = HashSet::new();
        for (p, _) in conj {
            let i = p.field.0 as usize;
            if i >= nfields {
                continue;
            }
            if seen_fields.insert(i) {
                usage[i].rule_refs += 1;
            }
            values[i].insert(p.value);
        }
    }
    for (u, v) in usage.iter_mut().zip(values) {
        u.distinct_values = v.len();
    }
    usage
}

/// Returns a permutation of `0..usage.len()`: position `k` holds the
/// spec-order index of the field placed `k`-th in the BDD order.
/// Deterministic: ties break by spec order.
pub fn order_fields(usage: &[FieldUsage], heuristic: OrderHeuristic) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..usage.len()).collect();
    match heuristic {
        OrderHeuristic::SpecOrder => {}
        OrderHeuristic::FrequencyDescending => {
            idx.sort_by_key(|&i| (std::cmp::Reverse(usage[i].rule_refs), i));
        }
        OrderHeuristic::DistinctValuesAscending => {
            idx.sort_by_key(|&i| (usage[i].distinct_values, i));
        }
        OrderHeuristic::ExactFirst => {
            idx.sort_by_key(|&i| (!usage[i].exact, std::cmp::Reverse(usage[i].rule_refs), i));
        }
    }
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pred::FieldId;

    fn usage3() -> Vec<FieldUsage> {
        vec![
            FieldUsage {
                rule_refs: 5,
                distinct_values: 100,
                exact: false,
            },
            FieldUsage {
                rule_refs: 20,
                distinct_values: 3,
                exact: true,
            },
            FieldUsage {
                rule_refs: 10,
                distinct_values: 10,
                exact: false,
            },
        ]
    }

    #[test]
    fn spec_order_is_identity() {
        assert_eq!(
            order_fields(&usage3(), OrderHeuristic::SpecOrder),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn frequency_descending() {
        assert_eq!(
            order_fields(&usage3(), OrderHeuristic::FrequencyDescending),
            vec![1, 2, 0]
        );
    }

    #[test]
    fn distinct_values_ascending() {
        assert_eq!(
            order_fields(&usage3(), OrderHeuristic::DistinctValuesAscending),
            vec![1, 2, 0]
        );
    }

    #[test]
    fn exact_first() {
        let mut u = usage3();
        u[0].exact = true;
        // Exact fields 0 and 1; 1 has more refs.
        assert_eq!(order_fields(&u, OrderHeuristic::ExactFirst), vec![1, 0, 2]);
    }

    #[test]
    fn ties_break_by_spec_order() {
        let u = vec![
            FieldUsage::default(),
            FieldUsage::default(),
            FieldUsage::default(),
        ];
        for h in OrderHeuristic::ALL {
            assert_eq!(order_fields(&u, h), vec![0, 1, 2], "{}", h.name());
        }
    }

    #[test]
    fn usage_counts_rules_once_per_field() {
        let f0 = FieldId(0);
        let f1 = FieldId(1);
        let c1 = vec![
            (Pred::eq(f0, 1), true),
            (Pred::eq(f0, 2), false),
            (Pred::lt(f1, 5), true),
        ];
        let c2 = vec![(Pred::eq(f0, 1), true)];
        let conjs: Vec<&[(Pred, bool)]> = vec![&c1, &c2];
        let u = field_usage(conjs, 2, &[true, false]);
        assert_eq!(u[0].rule_refs, 2); // f0 in both rules, counted once each
        assert_eq!(u[0].distinct_values, 2);
        assert_eq!(u[1].rule_refs, 1);
        assert_eq!(u[1].distinct_values, 1);
        assert!(u[0].exact);
        assert!(!u[1].exact);
    }

    #[test]
    fn usage_ignores_out_of_range_fields() {
        let c = vec![(Pred::eq(FieldId(7), 1), true)];
        let conjs: Vec<&[(Pred, bool)]> = vec![&c];
        let u = field_usage(conjs, 2, &[false, false]);
        assert_eq!(u[0].rule_refs, 0);
        assert_eq!(u[1].rule_refs, 0);
    }
}
