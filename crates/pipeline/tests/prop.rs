//! Property tests for the pipeline substrate: table lookup against a
//! reference matcher, TCAM range expansion, and bit-level codecs.

// Gated off by default: `proptest` is an external crate the offline
// build environment cannot fetch. Vendor proptest into the workspace
// and enable the `proptest` feature to run this suite.
#![cfg(feature = "proptest")]

use camus_pipeline::bits::{extract_bits, insert_bits};
use camus_pipeline::phv::PhvLayout;
use camus_pipeline::resources::range_to_prefixes;
use camus_pipeline::table::{ActionOp, Entry, Key, MatchKind, MatchValue, Table};
use proptest::prelude::*;

// ----------------------------------------------------------- bits

proptest! {
    /// insert_bits followed by extract_bits is the identity, and does
    /// not disturb bits outside the written range.
    #[test]
    fn bits_roundtrip(
        offset in 0u64..100,
        bits in 1u32..=64,
        value: u64,
        fill: u8,
    ) {
        let mut buf = vec![fill; 24];
        let before = buf.clone();
        if offset + u64::from(bits) <= (buf.len() as u64) * 8 {
            prop_assert!(insert_bits(&mut buf, offset, bits, value));
            let masked = if bits == 64 { value } else { value & ((1u64 << bits) - 1) };
            prop_assert_eq!(extract_bits(&buf, offset, bits), Some(masked));
            // Bits before and after the range are untouched.
            if offset > 0 {
                prop_assert_eq!(
                    extract_bits(&buf, 0, offset.min(64) as u32),
                    extract_bits(&before, 0, offset.min(64) as u32)
                );
            }
            let after = offset + u64::from(bits);
            let tail = ((buf.len() as u64) * 8 - after).min(64) as u32;
            if tail > 0 {
                prop_assert_eq!(
                    extract_bits(&buf, after, tail),
                    extract_bits(&before, after, tail)
                );
            }
        }
    }
}

// ------------------------------------------------- range expansion

proptest! {
    /// The prefix decomposition covers exactly [lo, hi], without
    /// overlap, and within the 2w−2 bound.
    #[test]
    fn prefix_decomposition_is_exact(
        bits in 1u32..=12,
        raw_lo: u64,
        raw_hi: u64,
    ) {
        let max = (1u64 << bits) - 1;
        let mut lo = raw_lo % (max + 1);
        let mut hi = raw_hi % (max + 1);
        if lo > hi {
            std::mem::swap(&mut lo, &mut hi);
        }
        let prefixes = range_to_prefixes(lo, hi, bits);
        prop_assert!(prefixes.len() <= (2 * bits as usize).max(1));
        for v in 0..=max {
            let n = prefixes.iter().filter(|&&(val, mask)| v & mask == val & mask).count();
            prop_assert_eq!(n, usize::from(v >= lo && v <= hi), "v={}", v);
        }
    }
}

// ----------------------------------------------------------- table

#[derive(Debug, Clone)]
struct GenEntry {
    priority: u32,
    state: MatchValue,
    /// Value-key kind (0 exact, 1 range, 2 any) and two raw points.
    value: (u8, (u8, u64), (u8, u64)),
}

fn arb_match(kind: MatchKind, max: u64) -> BoxedStrategy<MatchValue> {
    match kind {
        MatchKind::Exact => {
            prop_oneof![(0..=max).prop_map(MatchValue::Exact), Just(MatchValue::Any),].boxed()
        }
        MatchKind::Ternary => prop_oneof![
            (0..=max, 0..=max).prop_map(|(v, m)| MatchValue::Ternary {
                value: v & m,
                mask: m
            }),
            Just(MatchValue::Any),
        ]
        .boxed(),
        MatchKind::Range | MatchKind::Lpm => unreachable!("not generated"),
    }
}

fn matches_ref(m: &MatchValue, v: u64) -> bool {
    match *m {
        MatchValue::Exact(e) => v == e,
        MatchValue::Range { lo, hi } => v >= lo && v <= hi,
        MatchValue::Ternary { value, mask } => v & mask == value,
        MatchValue::Lpm { .. } => unreachable!(),
        MatchValue::Any => true,
    }
}

/// Maps a raw draw onto the value domain: a 6-bit field, or a 64-bit
/// one whose draws crowd both ends (0 and `u64::MAX`).
fn point(wide: bool, (sel, r): (u8, u64)) -> u64 {
    if !wide {
        return r % 64;
    }
    match sel {
        0 => 0,
        1 => u64::MAX,
        2 => u64::MAX - r % 4,
        3 => r % 4,
        4 => r,
        _ => r % 64,
    }
}

/// The key shapes the interval index lowers, by `shape` number.
const SHAPES: [&str; 4] = ["[Exact, Range]", "[Exact, Exact]", "[Exact]", "[Range]"];

proptest! {
    /// The lowered lookup agrees with a naive min-`(priority, index)`
    /// filter on every shape the compiler emits — exact and range value
    /// keys, wildcard states, runs up to 200 entries long (few states,
    /// like the root table), bounds at 0 and `u64::MAX` — probed at
    /// random points and on both sides of every entry's bounds.
    #[test]
    fn lookup_matches_linear_reference(
        shape in 0usize..4,
        wide: bool,
        entries in prop::collection::vec(
            (
                0u32..8,
                prop_oneof![(0u64..=3).prop_map(MatchValue::Exact), Just(MatchValue::Any)],
                (0u8..3, (0u8..6, any::<u64>()), (0u8..6, any::<u64>())),
            )
                .prop_map(|(priority, state, value)| GenEntry { priority, state, value }),
            0..200,
        ),
        probes in prop::collection::vec((0u64..=5, (0u8..6, any::<u64>())), 1..32),
    ) {
        let bits = if wide { 64 } else { 6 };
        let mut layout = PhvLayout::new();
        let state = layout.add("state", 8);
        let value = layout.add("value", bits);
        let tag = layout.add("tag", 32);
        let state_key = Key { field: state, kind: MatchKind::Exact, bits: 8 };
        let value_key = |kind| Key { field: value, kind, bits };
        let keys = match shape {
            0 => vec![state_key, value_key(MatchKind::Range)],
            1 => vec![state_key, value_key(MatchKind::Exact)],
            2 => vec![state_key],
            _ => vec![value_key(MatchKind::Range)],
        };
        let rows: Vec<(u32, Vec<MatchValue>)> = entries
            .iter()
            .map(|e| {
                let (kind, a, b) = e.value;
                let (a, b) = (point(wide, a), point(wide, b));
                let v = match (kind, shape) {
                    (0, _) | (1, 1) => MatchValue::Exact(a),
                    (1, _) => MatchValue::Range { lo: a.min(b), hi: a.max(b) },
                    _ => MatchValue::Any,
                };
                let matches = match shape {
                    0 | 1 => vec![e.state, v],
                    2 => vec![e.state],
                    _ => vec![v],
                };
                (e.priority, matches)
            })
            .collect();
        let mut table = Table::new("t", keys.clone(), vec![]);
        for (i, (priority, matches)) in rows.iter().enumerate() {
            table
                .add_entry(Entry {
                    priority: *priority,
                    matches: matches.clone(),
                    // Unique tag to identify the winner.
                    ops: vec![ActionOp::SetField(tag, i as u64)],
                })
                .unwrap();
        }
        prop_assert!(table.lowers(), "{} must lower", SHAPES[shape]);
        table.prepare();

        let mut points: Vec<(u64, u64)> =
            probes.iter().map(|&(s, p)| (s, point(wide, p))).collect();
        for (i, (_, matches)) in rows.iter().enumerate() {
            let s = i as u64 % 6;
            for m in matches {
                let (lo, hi) = match *m {
                    MatchValue::Exact(v) => (v, v),
                    MatchValue::Range { lo, hi } => (lo, hi),
                    _ => continue,
                };
                for v in [lo.wrapping_sub(1), lo, hi, hi.wrapping_add(1)] {
                    points.push((s, v));
                }
            }
        }
        for &(s, v) in &points {
            let mut phv = layout.instantiate();
            phv.set(state, s);
            phv.set(value, v);
            let got = table.lookup(&phv).unwrap().map(|ops| ops.to_vec());
            // Reference: min (priority, index) among matching entries.
            let want = rows
                .iter()
                .enumerate()
                .filter(|(_, (_, matches))| {
                    matches.iter().zip(&keys).all(|(m, k)| {
                        matches_ref(m, if k.field == state { s } else { v })
                    })
                })
                .min_by_key(|(i, (priority, _))| (*priority, *i))
                .map(|(i, _)| vec![ActionOp::SetField(tag, i as u64)]);
            prop_assert_eq!(got, want, "{} state={} value={}", SHAPES[shape], s, v);
        }
    }

    /// Ternary tables keep the scan, with the same winner rule.
    #[test]
    fn ternary_lookup_matches_reference(
        entries in prop::collection::vec(
            (0u32..4, arb_match(MatchKind::Ternary, 255)),
            0..16,
        ),
        probes in prop::collection::vec(0u64..=255, 1..16),
    ) {
        let mut layout = PhvLayout::new();
        let f = layout.add("f", 8);
        let marker = layout.add("m", 32);
        let mut table = Table::new(
            "t",
            vec![Key { field: f, kind: MatchKind::Ternary, bits: 8 }],
            vec![],
        );
        for (i, (prio, m)) in entries.iter().enumerate() {
            table
                .add_entry(Entry {
                    priority: *prio,
                    matches: vec![*m],
                    ops: vec![ActionOp::SetField(marker, i as u64)],
                })
                .unwrap();
        }
        prop_assert!(!table.lowers());
        table.prepare();
        for &v in &probes {
            let mut phv = layout.instantiate();
            phv.set(f, v);
            let got = table.lookup(&phv).unwrap().map(|ops| ops.to_vec());
            let want = entries
                .iter()
                .enumerate()
                .filter(|(_, (_, m))| matches_ref(m, v))
                .min_by_key(|(i, (p, _))| (*p, *i))
                .map(|(i, _)| vec![ActionOp::SetField(marker, i as u64)]);
            prop_assert_eq!(got, want, "v={}", v);
        }
    }
}
