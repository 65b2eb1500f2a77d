//! Naive AST interpreter for stateless subscription rules.
//!
//! This is the differential-testing *oracle*: it evaluates each rule's
//! condition directly on a decoded event, with none of the BDD
//! machinery the compiler uses. The Siena differential tests and the
//! churn (live-update) differential tests both check the compiled
//! pipeline against this interpreter, so it lives here where every
//! test crate can share one copy.
//!
//! Scope: stateless rules only (field-vs-constant atoms combined with
//! and/or/not). State references panic — the oracle for stateful
//! programs is the sequential executor, not this interpreter.

use camus_lang::ast::{Action, Atom, Cond, Operand, Rule, Value};
use camus_lang::spec::Spec;

/// Evaluates a rule condition on a decoded event. `fields` maps a
/// field name to its value; `bits` to its width (needed to encode
/// symbol literals for comparison).
pub fn eval_cond(cond: &Cond, fields: &dyn Fn(&str) -> u64, bits: &dyn Fn(&str) -> u32) -> bool {
    match cond {
        Cond::And(a, b) => eval_cond(a, fields, bits) && eval_cond(b, fields, bits),
        Cond::Or(a, b) => eval_cond(a, fields, bits) || eval_cond(b, fields, bits),
        Cond::Not(a) => !eval_cond(a, fields, bits),
        Cond::Atom(Atom { operand, op, value }) => {
            let name = match operand {
                Operand::Field(fr) => fr.field.as_str(),
                other => panic!("interpreter handles stateless rules only: {other:?}"),
            };
            let lhs = fields(name);
            let rhs = match value {
                Value::Int(n) => *n,
                Value::Symbol(_) => value.as_u64(bits(name)),
            };
            op.eval(lhs, rhs)
        }
        Cond::True => true,
    }
}

/// The union of forward ports of every rule whose condition matches,
/// sorted and deduplicated — the ground-truth forwarding decision for
/// a stateless rule set.
pub fn naive_ports(
    rules: &[Rule],
    fields: &dyn Fn(&str) -> u64,
    bits: &dyn Fn(&str) -> u32,
) -> Vec<u16> {
    let mut out = Vec::new();
    for r in rules {
        if eval_cond(&r.condition, fields, bits) {
            for a in &r.actions {
                if let Action::Fwd(ports) = a {
                    out.extend_from_slice(ports);
                }
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// [`naive_ports`] over a raw event: decodes each field by walking the
/// spec's first header type (fields concatenated in declaration order
/// — the `Raw` encapsulation the generators emit).
pub fn naive_ports_for_event(spec: &Spec, rules: &[Rule], event: &[u8]) -> Vec<u16> {
    let ht = &spec.header_types[0];
    let field_at = |name: &str| -> u64 {
        let f = ht.field(name).expect("field exists in spec");
        camus_pipeline::bits::extract_bits(event, u64::from(f.bit_offset), f.bits)
            .expect("event covers the header")
    };
    let bits_of = |name: &str| ht.field(name).expect("field exists in spec").bits;
    naive_ports(rules, &field_at, &bits_of)
}

/// Every table's entries as a sorted multiset, in table order — how the
/// differential tests hold a pipeline maintained by splicing deltas to
/// the program the same report carries.
pub fn entry_multisets(pipeline: &camus_pipeline::Pipeline) -> Vec<(String, Vec<String>)> {
    let rows = |t: &camus_pipeline::Table| {
        let mut rows: Vec<String> = t.entries().map(|e| format!("{e:?}")).collect();
        rows.sort();
        (t.name.clone(), rows)
    };
    pipeline.tables.iter().map(rows).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use camus_lang::ast::{FieldRef, RelOp};

    fn rule(field: &str, op: RelOp, v: u64, port: u16) -> Rule {
        Rule::new(
            Cond::Atom(Atom {
                operand: Operand::Field(FieldRef::short(field)),
                op,
                value: Value::Int(v),
            }),
            vec![Action::Fwd(vec![port])],
        )
    }

    #[test]
    fn union_of_matching_rules_sorted_deduped() {
        let rules = vec![
            rule("a", RelOp::Gt, 10, 7),
            rule("a", RelOp::Lt, 100, 3),
            rule("b", RelOp::Eq, 5, 7), // duplicate port
            rule("b", RelOp::Eq, 6, 9), // non-matching
        ];
        let fields = |n: &str| match n {
            "a" => 50u64,
            "b" => 5,
            _ => unreachable!(),
        };
        let bits = |_: &str| 32u32;
        assert_eq!(naive_ports(&rules, &fields, &bits), vec![3, 7]);
    }

    #[test]
    fn boolean_connectives() {
        let c = Cond::Atom(Atom {
            operand: Operand::Field(FieldRef::short("a")),
            op: RelOp::Gt,
            value: Value::Int(1),
        })
        .and(Cond::Not(Box::new(Cond::Atom(Atom {
            operand: Operand::Field(FieldRef::short("b")),
            op: RelOp::Eq,
            value: Value::Int(0),
        }))));
        let bits = |_: &str| 32u32;
        assert!(eval_cond(&c, &|n| if n == "a" { 2 } else { 1 }, &bits));
        assert!(!eval_cond(&c, &|_| 0, &bits));
    }

    #[test]
    fn decodes_raw_events_by_spec_layout() {
        let spec = camus_lang::parse_spec(
            "header_type t { fields { a: 32; b: 32; } }\nheader t ev;\n@query_field(ev.a)\n@query_field(ev.b)\n",
        )
        .unwrap();
        let rules = vec![rule("b", RelOp::Eq, 9, 4)];
        let mut ev = Vec::new();
        ev.extend_from_slice(&1u32.to_be_bytes());
        ev.extend_from_slice(&9u32.to_be_bytes());
        assert_eq!(naive_ports_for_event(&spec, &rules, &ev), vec![4]);
        ev[7] = 8;
        assert!(naive_ports_for_event(&spec, &rules, &ev).is_empty());
    }
}
