//! Property tests for the pipeline substrate: table lookup against a
//! reference matcher, the wave executor against batches of one and a
//! message-at-a-time reference, TCAM range expansion, and bit-level
//! codecs.

// Gated off by default: `proptest` is an external crate the offline
// build environment cannot fetch. Vendor proptest into the workspace
// and enable the `proptest` feature to run this suite.
#![cfg(feature = "proptest")]

use std::sync::Arc;

use camus_pipeline::bits::{extract_bits, insert_bits};
use camus_pipeline::parser::{Extract, ParseState, ParserSpec, StateId, Transition};
use camus_pipeline::phv::{Phv, PhvField, PhvLayout};
use camus_pipeline::pipeline::StateBinding;
use camus_pipeline::register::{AggKind, RegisterFile};
use camus_pipeline::resources::range_to_prefixes;
use camus_pipeline::table::{ActionOp, Entry, Key, MatchKind, MatchValue, RegOp, Table};
use camus_pipeline::{
    DecisionBuf, DecisionCache, ExecState, ForwardDecision, GroupId, MulticastTable, ParseDrop,
    Pipeline, PortId,
};
use camus_telemetry::HotPathStats;
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

fn matches_ref(m: &MatchValue, v: u64) -> bool {
    match *m {
        MatchValue::Exact(e) => v == e,
        MatchValue::Range { lo, hi } => v >= lo && v <= hi,
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
    /// like the root table), bounds at 0 and `u64::MAX`, states dense
    /// (a `Vec` probe) or a million ids apart (the hash) — probed at
    /// random points and on both sides of every entry's bounds.
    #[test]
    fn lookup_matches_linear_reference(
        shape in 0usize..4,
        wide: bool,
        sparse: bool,
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
        let stride = if sparse { 1_000_003 } else { 1 };
        let spread = |m: MatchValue| match m {
            MatchValue::Exact(s) => MatchValue::Exact(s * stride),
            other => other,
        };
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
                    0 | 1 => vec![spread(e.state), v],
                    2 => vec![spread(e.state)],
                    _ => vec![v],
                };
                (e.priority, matches)
            })
            .collect();
        let mut table = Table::new("t", keys.clone(), vec![]).unwrap();
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
        table.prepare();

        let mut points: Vec<(u64, u64)> =
            probes.iter().map(|&(s, p)| (s * stride, point(wide, p))).collect();
        for (i, (_, matches)) in rows.iter().enumerate() {
            let s = i as u64 % 6 * stride;
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
}

// ------------------------------------------------------------ wave

/// SplitMix64: the wave property draws a whole program and its traffic
/// from one seed.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// A random hand-built program over `[count, sym, sym…]` frames (a
/// count of 1–4, then one-byte messages): one to three tables keyed on
/// the BDD-style `state` plus `sym` or a state-binding field `cnt`,
/// `SetField`/`Forward`/`Multicast`/`Drop` actions, and — when
/// `stateful` — `Register` ops writing the slot `cnt` reads, so the
/// binding cannot be hoisted out of the message loop.
fn random_program(d: &mut Draw, stateful: bool) -> Pipeline {
    let mut layout = PhvLayout::new();
    let count = layout.add("count", 8);
    let sym = layout.add("sym", 8);
    let state = layout.add("state", 16);
    let cnt = layout.add("cnt", 32);
    let idle = layout.add("idle", 32);
    let msg = StateId(1);
    let parser = ParserSpec::new(
        vec![
            ParseState {
                name: "hdr".into(),
                extracts: vec![Extract {
                    dst: count,
                    bit_offset: 0,
                    bits: 8,
                }],
                advance_bits: 8,
                advance_bytes_from: None,
                emit: false,
                next: Transition::Select {
                    field: count,
                    cases: (1..=4).map(|c| (c, msg)).collect(),
                    default: None,
                },
            },
            ParseState {
                name: "msg".into(),
                extracts: vec![Extract {
                    dst: sym,
                    bit_offset: 0,
                    bits: 8,
                }],
                advance_bits: 8,
                advance_bytes_from: None,
                emit: true,
                next: Transition::SelectRemaining { more: msg },
            },
        ],
        StateId(0),
    );
    let mut registers = RegisterFile::new();
    for _ in 0..2 {
        registers.allocate([0, 100, 400][d.below(3) as usize]);
    }
    let aggs = [AggKind::Count, AggKind::Sum, AggKind::Max, AggKind::Last];
    let mut state_bindings = vec![StateBinding {
        dst: cnt,
        slot: 0,
        agg: aggs[d.below(4) as usize],
    }];
    if d.chance(50) {
        state_bindings.push(StateBinding {
            dst: idle,
            slot: 1,
            agg: aggs[d.below(4) as usize],
        });
    }
    let mut mcast = MulticastTable::new();
    let groups = 1 + d.below(3);
    for _ in 0..groups {
        let ports = (0..d.below(4))
            .map(|_| PortId(1 + d.below(8) as u16))
            .collect();
        mcast.allocate(ports);
    }
    let key = |field, kind| Key {
        field,
        kind,
        bits: 16,
    };
    let mut tables = Vec::new();
    for ti in 0..1 + d.below(3) {
        let (value, kind) = match d.below(4) {
            0 => (cnt, MatchKind::Range),
            1 => (sym, MatchKind::Exact),
            _ => (sym, MatchKind::Range),
        };
        let default_ops = if d.chance(20) {
            vec![ActionOp::Forward(PortId(9))]
        } else {
            vec![]
        };
        let mut t = Table::new(
            format!("t{ti}"),
            vec![key(state, MatchKind::Exact), key(value, kind)],
            default_ops,
        )
        .unwrap();
        for _ in 0..d.below(12) {
            let probe = if d.chance(25) {
                MatchValue::Any
            } else {
                MatchValue::Exact(d.below(4))
            };
            let (a, b) = (d.below(8), d.below(8));
            let v = match (kind, d.below(3)) {
                (_, 0) => MatchValue::Any,
                (MatchKind::Exact, _) => MatchValue::Exact(a),
                (MatchKind::Range, _) => MatchValue::Range {
                    lo: a.min(b),
                    hi: a.max(b),
                },
            };
            let mut ops = Vec::new();
            for _ in 0..1 + d.below(3) {
                ops.push(match d.below(if stateful { 6 } else { 5 }) {
                    0 => ActionOp::SetField(state, d.below(4)),
                    1 => ActionOp::Forward(PortId(1 + d.below(8) as u16)),
                    2 => ActionOp::Multicast(GroupId(d.below(groups) as u32)),
                    3 => ActionOp::Drop,
                    4 => ActionOp::SetField(state, d.below(4)),
                    _ => ActionOp::Register {
                        slot: d.below(2) as usize,
                        op: [RegOp::Increment, RegOp::Observe(sym), RegOp::SetField(sym)]
                            [d.below(3) as usize],
                    },
                });
            }
            t.add_entry(Entry {
                priority: d.below(4) as u32,
                matches: vec![probe, v],
                ops,
            })
            .unwrap();
        }
        tables.push(t);
    }
    Pipeline {
        layout,
        parser,
        tables,
        mcast,
        registers,
        state_bindings,
        init_fields: vec![(state, d.below(2))],
        exec: ExecState::default(),
    }
}

/// 1–40 frames of 1–4 messages at non-decreasing times, with frames
/// that fail to parse mixed in: empty (underflow), a count of 0 or 9
/// (no transition), a count and no message (underflow).
fn random_frames(d: &mut Draw) -> Vec<(Vec<u8>, u64)> {
    let mut now_us = 0;
    (0..1 + d.below(40))
        .map(|_| {
            now_us += d.below(120);
            let frame = match d.below(10) {
                0 => vec![],
                1 => vec![[0, 9][d.below(2) as usize], 1],
                2 => vec![1],
                _ => {
                    let n = 1 + d.below(4);
                    std::iter::once(n as u8)
                        .chain((0..n).map(|_| d.below(8) as u8))
                        .collect()
                }
            };
            (frame, now_us)
        })
        .collect()
}

/// A decision cache consulted one message at a time, as tags only:
/// the key each slot last held (slots from [`DecisionCache::slot`]),
/// and the hits, misses and evictions such a cache counts.
struct SlotModel {
    cache: DecisionCache,
    tags: Vec<Option<u64>>,
    counts: HotPathStats,
}

impl SlotModel {
    fn new(key_field: PhvField, shift: u32) -> Self {
        SlotModel {
            cache: DecisionCache::new(key_field, shift),
            tags: vec![None; 1 << shift],
            counts: HotPathStats::default(),
        }
    }

    /// A hit when the key's slot holds the key; else a miss, and an
    /// eviction when it held another key.
    fn consult(&mut self, phv: &Phv) {
        let key = phv.get_or_zero(self.cache.key_field());
        let tag = &mut self.tags[self.cache.slot(key)];
        if *tag == Some(key) {
            self.counts.cache_hits += 1;
        } else {
            self.counts.cache_misses += 1;
            self.counts.cache_evictions += u64::from(tag.is_some());
            *tag = Some(key);
        }
    }
}

/// Deciding one message at a time, every table in turn, as a switch
/// with one message in flight would: the semantics the wave must keep.
/// With a `model`, each message consults it before the chain runs.
fn message_at_a_time(
    p: &mut Pipeline,
    frame: &[u8],
    now_us: u64,
    mut model: Option<&mut SlotModel>,
) -> ForwardDecision {
    let msgs = match p.parser.parse(&p.layout, frame) {
        Ok(msgs) => msgs,
        Err(e) => {
            return ForwardDecision {
                drop_reason: ParseDrop::classify(&e),
                ..ForwardDecision::default()
            }
        }
    };
    let mut d = ForwardDecision {
        messages: msgs.len(),
        ..ForwardDecision::default()
    };
    for mut phv in msgs {
        for &(f, v) in &p.init_fields {
            phv.set(f, v);
        }
        for b in &p.state_bindings {
            phv.set(b.dst, p.registers.read(b.slot, b.agg, now_us).unwrap());
        }
        if let Some(m) = model.as_deref_mut() {
            m.consult(&phv);
        }
        let before = d.ports.len();
        for t in &p.tables {
            let ops = match t.lookup(&phv).unwrap() {
                Some(ops) => ops.to_vec(),
                None => t.default_ops.clone(),
            };
            for op in ops {
                match op {
                    ActionOp::SetField(f, v) => phv.set(f, v),
                    ActionOp::Forward(port) => d.ports.push(port),
                    ActionOp::Multicast(g) => d.ports.extend_from_slice(p.mcast.ports(g).unwrap()),
                    ActionOp::Drop => {}
                    ActionOp::Register { slot, op } => {
                        let regs = &mut p.registers;
                        match op {
                            RegOp::Increment => regs.increment(slot, now_us),
                            RegOp::Observe(f) => regs.observe(slot, phv.get_or_zero(f), now_us),
                            RegOp::SetConst(v) => regs.set(slot, v, now_us),
                            RegOp::SetField(f) => regs.set(slot, phv.get_or_zero(f), now_us),
                        }
                        .unwrap();
                    }
                }
            }
        }
        if d.ports.len() > before {
            d.matched_messages += 1;
        }
    }
    d.ports.sort_unstable();
    d.ports.dedup();
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One batch of N frames equals N batches of one — decisions,
    /// `ExecStats`, the register file after the batch and the cache
    /// counters — and every decision and the final registers equal
    /// deciding one message at a time, and the cache counters those of
    /// a tag-only model consulted one message at a time. Programs with
    /// and without register writes, with the decision cache armed where
    /// the program allows it and not, on 1, 2 or 4 slots so that keys
    /// conflict within a batch and within a packet; so both the
    /// whole-batch wave and the message-by-message chain run.
    #[test]
    fn one_wave_equals_batches_of_one(seed: u64, stateful: bool, cache: bool, shift in 0u32..3) {
        let mut d = Draw(seed);
        let mut program = random_program(&mut d, stateful);
        let frames = random_frames(&mut d);
        let sym = program.layout.get("sym").unwrap();
        let armed = cache && program.enable_decision_cache(sym, shift);
        let mut model = armed.then(|| SlotModel::new(sym, shift));
        program.prepare();
        let mut reference = program.clone();
        let mut wave = program.new_shard_ctx();
        let mut ones = program.new_shard_ctx();

        let mut out = DecisionBuf::default();
        program
            .process_batch_shared(&mut wave, frames.iter().map(|(f, t)| (f.as_slice(), *t)), &mut out)
            .unwrap();
        let mut one = DecisionBuf::default();
        for (i, (frame, now_us)) in frames.iter().enumerate() {
            one.clear();
            program
                .process_batch_shared(&mut ones, [(frame.as_slice(), *now_us)], &mut one)
                .unwrap();
            let want = message_at_a_time(&mut reference, frame, *now_us, model.as_mut());
            prop_assert_eq!(&one.as_slice()[0], &out.as_slice()[i], "frame {} {:?}", i, frame);
            prop_assert_eq!(&want, &out.as_slice()[i], "frame {} {:?}", i, frame);
        }
        prop_assert_eq!(out.len(), frames.len());
        prop_assert_eq!(&wave.exec.stats, &ones.exec.stats);
        prop_assert_eq!(&wave.registers, &ones.registers);
        prop_assert_eq!(&wave.registers, &reference.registers);
        prop_assert_eq!(wave.exec.hotpath, ones.exec.hotpath);
        let m = model.map_or_else(HotPathStats::default, |m| m.counts);
        for h in [wave.exec.hotpath, ones.exec.hotpath] {
            prop_assert_eq!(
                (h.cache_hits, h.cache_misses, h.cache_evictions),
                (m.cache_hits, m.cache_misses, m.cache_evictions)
            );
        }
    }
}

// -------------------------------------------------- patched index

/// The state a row names; `None` for a wildcard state.
fn named(e: &Entry) -> Option<u64> {
    match e.matches[0] {
        MatchValue::Exact(s) => Some(s),
        _ => None,
    }
}

proptest! {
    /// A table changed only by state-run replacements, and prepared
    /// after each one — its index patched with one segment per step
    /// until dead starts outnumber live ones and it is lowered whole —
    /// holds exactly the rows each state was last given, and decides
    /// like a whole lowering of the same rows and like the linear
    /// reference: on `[Exact, Range]`, `[Exact, Exact]` and `[Exact]`
    /// tables, on both sides of every bound, in live, cleared,
    /// recycled and never-used states, with ids drifting upward like a
    /// session's and a few far ones. A table with a wildcard-state row is lowered whole at
    /// every prepare.
    #[test]
    fn a_patched_index_decides_like_a_whole_lowering(
        seed: u64,
        shape in 0usize..3,
        wildcard: bool,
    ) {
        let mut d = Draw(seed);
        let mut layout = PhvLayout::new();
        let state = layout.add("state", 16);
        let value = layout.add("value", 64);
        let tag = layout.add("tag", 32);
        let state_key = Key { field: state, kind: MatchKind::Exact, bits: 16 };
        let value_key = |kind| Key { field: value, kind, bits: 64 };
        let keys = match shape {
            0 => vec![state_key, value_key(MatchKind::Range)],
            1 => vec![state_key, value_key(MatchKind::Exact)],
            _ => vec![state_key],
        };
        let mut tags = 0;
        let mut row = |d: &mut Draw, s: MatchValue| {
            let mut point = || if d.chance(10) { u64::MAX - d.below(2) } else { d.below(64) };
            let (a, b) = (point(), point());
            let v = match (shape, d.below(3)) {
                (0, 0) => MatchValue::Range { lo: a.min(b), hi: a.max(b) },
                (_, 2) => MatchValue::Any,
                _ => MatchValue::Exact(a),
            };
            tags += 1;
            Entry {
                priority: d.below(4) as u32,
                matches: [s, v][..keys.len()].to_vec(),
                ops: vec![ActionOp::SetField(tag, tags)],
            }
        };

        let mut table = Table::new("t", keys.clone(), vec![]).unwrap();
        let mut model: std::collections::BTreeMap<u64, Vec<Entry>> = Default::default();
        if wildcard {
            table.add_entry(row(&mut d, MatchValue::Any)).unwrap();
        }
        let (mut patched, mut whole_after_first) = (0, 0);
        for step in 0..40u64 {
            let top = 6 + step / 2;
            let cleared: Vec<u64> = (0..d.below(3)).map(|_| d.below(top)).collect();
            let runs: Vec<Arc<[Entry]>> = (0..1 + d.below(3))
                .map(|_| {
                    // Now and then a far id: a hashed state, until the
                    // window grows over it.
                    let s = if d.chance(10) { 40 + d.below(80) } else { d.below(top) };
                    (0..d.below(6)).map(|_| row(&mut d, MatchValue::Exact(s))).collect()
                })
                .collect();
            let given = runs.iter().filter_map(|r| named(r.first()?));
            for s in cleared.iter().copied().chain(given) {
                model.remove(&s);
            }
            for run in &runs {
                if let Some(s) = run.first().and_then(named) {
                    model.entry(s).or_default().extend(run.iter().cloned());
                }
            }
            table.replace_runs(cleared, runs).unwrap();
            let len = table.len();
            let lowered = table.prepare();
            let (live, held) = table.index_starts().unwrap();
            prop_assert!(held <= 2 * live, "step {}: {} starts held for {} live", step, held, live);
            if wildcard {
                prop_assert_eq!((lowered, held), (len, live), "step {}", step);
            }
            patched += usize::from(lowered < len);
            whole_after_first += usize::from(step > 0 && held == live);

            // The rows: each state's as last given, in order.
            let rows: Vec<Entry> = table.entries().cloned().collect();
            for (&s, given) in &model {
                let held: Vec<&Entry> = rows.iter().filter(|e| named(e) == Some(s)).collect();
                prop_assert_eq!(held, given.iter().collect::<Vec<_>>(), "state {}", s);
            }
            let held = rows.iter().filter_map(named).count();
            prop_assert_eq!(held, model.values().map(Vec::len).sum::<usize>());

            let mut whole = Table::new("whole", keys.clone(), vec![]).unwrap();
            for e in &rows {
                whole.add_entry(e.clone()).unwrap();
            }
            whole.prepare();
            let mut phv = layout.instantiate();
            for s in 0..124 {
                let mut values = vec![0, u64::MAX, d.below(64)];
                for e in rows.iter().filter(|e| named(e).is_none_or(|x| x == s)) {
                    let (lo, hi) = match e.matches.get(1) {
                        Some(&MatchValue::Exact(v)) => (v, v),
                        Some(&MatchValue::Range { lo, hi }) => (lo, hi),
                        _ => continue,
                    };
                    values.extend([lo.wrapping_sub(1), lo, hi, hi.wrapping_add(1)]);
                }
                for v in values {
                    phv.set(state, s);
                    phv.set(value, v);
                    let got = table.lookup(&phv).unwrap();
                    let linear = rows
                        .iter()
                        .enumerate()
                        .filter(|(_, e)| {
                            e.matches.iter().zip(&keys).all(|(m, k)| {
                                matches_ref(m, if k.field == state { s } else { v })
                            })
                        })
                        .min_by_key(|(i, e)| (e.priority, *i))
                        .map(|(_, e)| &e.ops[..]);
                    prop_assert_eq!(got, whole.lookup(&phv).unwrap(), "step {} state={} value={}", step, s, v);
                    prop_assert_eq!(got, linear, "step {} state={} value={}", step, s, v);
                }
            }
        }
        if !wildcard {
            prop_assert!(patched > 0 && whole_after_first > 0, "patched {} whole {}", patched, whole_after_first);
        }
    }
}
