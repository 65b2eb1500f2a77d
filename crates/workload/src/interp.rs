//! Naive AST interpreter for stateless subscription rules.
//!
//! This is the ground truth of the differential oracle: it evaluates
//! each rule's condition directly on a decoded event, with none of the
//! BDD machinery the compiler uses. [`crate::oracle`] holds every
//! system under test to it.
//!
//! Scope: stateless rules only (field-vs-constant atoms combined with
//! and/or/not). State references panic — the oracle for stateful
//! programs is the sequential executor, not this interpreter.

use camus_itch::{parse_feed_packet, ItchMessage};
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
/// — the `Raw` encapsulation the generators emit). `None` when the
/// event is shorter than the header.
pub(crate) fn naive_ports_for_event(spec: &Spec, rules: &[Rule], event: &[u8]) -> Option<Vec<u16>> {
    let ht = &spec.header_types[0];
    let covered = event.len() as u64 * 8 >= u64::from(ht.total_bits());
    let field_at = |name: &str| -> u64 {
        let f = ht.field(name).expect("field exists in spec");
        camus_pipeline::bits::extract_bits(event, u64::from(f.bit_offset), f.bits)
            .expect("event covers the header")
    };
    let bits_of = |name: &str| ht.field(name).expect("field exists in spec").bits;
    covered.then(|| naive_ports(rules, &field_at, &bits_of))
}

/// [`naive_ports`] over a framed ITCH feed packet (Ethernet / IPv4 /
/// UDP / MoldUDP64, decoded by [`parse_feed_packet`]): the union over
/// its add-order messages, each read as a raw event of the spec's
/// header. `None` when any layer fails to decode.
pub(crate) fn naive_ports_for_feed(spec: &Spec, rules: &[Rule], packet: &[u8]) -> Option<Vec<u16>> {
    let (_, messages) = parse_feed_packet(packet).ok()?;
    let mut out = Vec::new();
    for m in messages {
        if let ItchMessage::AddOrder(order) = m {
            out.extend(naive_ports_for_event(spec, rules, &order.encode())?);
        }
    }
    out.sort_unstable();
    out.dedup();
    Some(out)
}

/// Every table's entries as a sorted multiset, in table order — how the
/// differential tests compare two programs' tables.
pub fn entry_multisets(pipeline: &camus_pipeline::Pipeline) -> Vec<(String, Vec<String>)> {
    let rows = |t: &camus_pipeline::Table| {
        let mut rows: Vec<String> = t.entries().map(|e| format!("{e:?}")).collect();
        rows.sort();
        (t.name.clone(), rows)
    };
    pipeline.tables.iter().map(rows).collect()
}

/// `(added, removed, kept)` entries from `before` to `after`, table by
/// table over [`entry_multisets`]: a row is kept as often as both
/// programs' same-named table holds it. What an update report's
/// `entries_*` counts must say.
pub fn entry_diff(
    before: &camus_pipeline::Pipeline,
    after: &camus_pipeline::Pipeline,
) -> (usize, usize, usize) {
    let before = entry_multisets(before);
    let after = entry_multisets(after);
    let total = |m: &[(String, Vec<String>)]| m.iter().map(|(_, rows)| rows.len()).sum::<usize>();
    let mut kept = 0;
    for (name, new) in &after {
        let Some((_, old)) = before.iter().find(|(n, _)| n == name) else {
            continue;
        };
        let (mut i, mut j) = (0, 0);
        while i < old.len() && j < new.len() {
            match old[i].cmp(&new[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => (i, j, kept) = (i + 1, j + 1, kept + 1),
            }
        }
    }
    (total(&after) - kept, total(&before) - kept, kept)
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
        assert_eq!(naive_ports_for_event(&spec, &rules, &ev), Some(vec![4]));
        ev[7] = 8;
        assert_eq!(naive_ports_for_event(&spec, &rules, &ev), Some(vec![]));
        assert_eq!(naive_ports_for_event(&spec, &rules, &ev[..7]), None);
    }
}
