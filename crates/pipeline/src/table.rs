//! Match-action tables.
//!
//! A table declares a list of keys (PHV field + match kind); entries
//! supply one match value per key, a priority, and a list of action
//! operations. Lookup returns the highest-priority (lowest number)
//! matching entry, mirroring TCAM semantics; ties break by insertion
//! order.
//!
//! Compiled Camus tables have the shape `(state: exact, field:
//! exact|range)` (§3.2), and a table holds no other shape:
//! [`Table::new`] rejects a key list the interval index cannot hold.
//! [`Table::prepare`] lowers a table to a per-state interval index with
//! each interval's winner resolved ahead of time, so a lookup is one
//! state probe — a `Vec` index when the table's states are dense, a hash
//! otherwise — to a run in one of the index's segments, plus one binary
//! search, and reads the winner's actions from the segment's flat op
//! vector, never from the entry itself. A whole lowering makes one
//! segment. After [`Table::replace_runs`] swaps some states' runs,
//! `prepare` lowers only those states into one new segment and shares
//! the older ones, until dead starts outnumber live ones and the table
//! is lowered whole again. A slice of a prepared table
//! ([`Table::retain`]) shares every segment of its master's index and
//! lowers only the runs it splits.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use fxhash::FxHashMap;

use crate::error::PipelineError;
use crate::multicast::{GroupId, PortId};
use crate::phv::{Phv, PhvField};

/// How a key matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatchKind {
    /// Exact value (SRAM hash table).
    Exact,
    /// Inclusive range (TCAM via range expansion, or dedicated range
    /// match units).
    Range,
}

/// A table key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Key {
    /// PHV field matched.
    pub field: PhvField,
    /// Match kind.
    pub kind: MatchKind,
    /// Field width in bits (for resource accounting).
    pub bits: u32,
}

/// A concrete match value in an entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatchValue {
    /// Match exactly this value.
    Exact(u64),
    /// Inclusive range.
    Range {
        /// Lower bound.
        lo: u64,
        /// Upper bound.
        hi: u64,
    },
    /// Wildcard.
    Any,
}

impl MatchValue {
    fn compatible(&self, kind: MatchKind) -> bool {
        matches!(
            (self, kind),
            (MatchValue::Any, _)
                | (MatchValue::Exact(_), _)
                | (MatchValue::Range { .. }, MatchKind::Range)
        )
    }
}

/// Register update operations available to actions (the generic update
/// code §3.1 says the static compiler emits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegOp {
    /// `count += 1`.
    Increment,
    /// Fold a PHV field into the aggregate (sum/count/min/max all
    /// update from the sample).
    Observe(PhvField),
    /// Overwrite with a constant.
    SetConst(u64),
    /// Overwrite with a PHV field.
    SetField(PhvField),
}

/// A single action operation; an entry's action is a sequence of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActionOp {
    /// Write a PHV field (e.g. the BDD `state` metadata).
    SetField(PhvField, u64),
    /// Unicast to a port.
    Forward(PortId),
    /// Replicate to a multicast group.
    Multicast(GroupId),
    /// Drop the packet.
    Drop,
    /// Update a register slot.
    Register {
        /// Register slot index.
        slot: usize,
        /// Update operation.
        op: RegOp,
    },
}

/// A table entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Entry {
    /// Priority: lower value = higher priority (TCAM order).
    pub priority: u32,
    /// One match value per table key.
    pub matches: Vec<MatchValue>,
    /// Action operations executed on match.
    pub ops: Vec<ActionOp>,
}

/// The sweep's winner for an interval no entry covers. Never a valid
/// entry index: a table's entries stay far below 2^32.
const NO_ENTRY: u32 = u32::MAX;

/// A winner slot of the interval index: the winning entry's `(start,
/// len)` run in its segment's flat `ops`, or [`OpRun::MISS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OpRun {
    start: u32,
    len: u32,
}

impl OpRun {
    /// The slot of an interval no entry covers. Its start lies past any
    /// segment's flat `ops`, so reading its run finds nothing.
    const MISS: OpRun = OpRun {
        start: u32::MAX,
        len: 0,
    };
}

/// An entry as the interval index sees it: the inclusive value interval
/// it covers and its TCAM rank `(priority, insertion index)`.
#[derive(Debug, Clone, Copy)]
struct Span {
    lo: u64,
    hi: u64,
    priority: u32,
    index: u32,
}

/// A run of the interval index: `len` starts from `offset` in segment
/// `seg`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    seg: u32,
    offset: u32,
    len: u32,
}

/// Probe value → run. State ids come from a session counter, so most
/// of a table's states are nearly contiguous: the densest window of
/// them, spanning at most `4 × count + 64` ids, indexes a `Vec`; states
/// outside it (a wide, sparse set) keep a hash.
#[derive(Debug, Clone, Default)]
struct StateRuns {
    /// `dense[state − base]`; a hole holds the wildcard-state run.
    base: u64,
    dense: Vec<Run>,
    outliers: FxHashMap<u64, Run>,
}

impl StateRuns {
    /// Indexes `(state, run)` pairs sorted by state.
    fn build(by_state: &[(u64, Run)], wild: Run) -> StateRuns {
        let fits = |l: usize, r: usize| by_state[r].0 - by_state[l].0 < 4 * (r - l + 1) as u64 + 64;
        // The window holding the most states: for each right end, the
        // left end moves up until the window fits.
        let (mut window, mut l) = (0..0, 0);
        for r in 0..by_state.len() {
            while !fits(l, r) {
                l += 1;
            }
            if r + 1 - l > window.len() {
                window = l..r + 1;
            }
        }
        let Some(&(base, _)) = by_state.get(window.start) else {
            return StateRuns::default();
        };
        let span = by_state[window.end - 1].0 - base + 1;
        let mut dense = vec![wild; span as usize];
        for &(s, run) in &by_state[window.clone()] {
            dense[(s - base) as usize] = run;
        }
        let outside = by_state[..window.start]
            .iter()
            .chain(&by_state[window.end..]);
        StateRuns {
            base,
            dense,
            outliers: outside.copied().collect(),
        }
    }

    /// Every state with rows of its own and its run: the window's in
    /// state order, then the hashed ones.
    fn pairs(&self, wild: Run) -> impl Iterator<Item = (u64, Run)> + '_ {
        let dense = (self.base..).zip(self.dense.iter().copied());
        let hashed = self.outliers.iter().map(|(&s, &run)| (s, run));
        dense.filter(move |&(_, run)| run != wild).chain(hashed)
    }

    #[inline]
    fn get(&self, state: u64) -> Option<Run> {
        let slot = usize::try_from(state.wrapping_sub(self.base)).ok();
        match slot.and_then(|i| self.dense.get(i)) {
            Some(&run) => Some(run),
            None => self.outliers.get(&state).copied(),
        }
    }
}

/// Lowered runs: their sorted interval starts, each start's winner,
/// and every winner's ops once each, in first-win order.
#[derive(Debug)]
struct Segment {
    starts: Vec<u64>,
    /// The winner's op run from the parallel start on.
    winners: Vec<OpRun>,
    ops: Vec<ActionOp>,
}

/// Lowers `entries` into segment `seg`: returns it, the run of the
/// wildcard-state rows alone, and each state's run, by state. The one
/// lowering routine, for a whole table and for the changed states of a
/// re-prepared one; it allocates per segment, never per state.
fn lower(keys: &[Key], entries: &[&Entry], seg: u32) -> (Segment, Run, Vec<(u64, Run)>) {
    // `Table::new` admits only lowerable key lists.
    let (probe, value) = lowered_keys(keys).unwrap_or((None, None));
    // One sort of the (state, entry) rows; the wildcard-state rows
    // join every run. Order within a run is free: the sweep ranks by
    // `(priority, index)`.
    let mut rows: Vec<(u64, Span)> = Vec::new();
    let mut wild: Vec<Span> = Vec::new();
    for (i, e) in entries.iter().enumerate() {
        // Validated kinds: the probe key holds Exact or Any, the value
        // key Exact, Range or Any.
        let state = match probe.and_then(|k| e.matches.get(k)) {
            Some(&MatchValue::Exact(s)) => Some(s),
            _ => None,
        };
        let (lo, hi) = match value.and_then(|k| e.matches.get(k)) {
            Some(&MatchValue::Exact(v)) => (v, v),
            Some(&MatchValue::Range { lo, hi }) => (lo, hi),
            _ => (0, u64::MAX),
        };
        if lo > hi {
            continue; // an empty range never matches
        }
        let span = Span {
            lo,
            hi,
            priority: e.priority,
            index: i as u32,
        };
        match state {
            Some(s) => rows.push((s, span)),
            None => wild.push(span),
        }
    }
    rows.sort_unstable_by_key(|&(s, _)| s);

    let at = |(offset, len)| Run { seg, offset, len };
    let mut sweep = Sweep::default();
    sweep.spans.extend_from_slice(&wild);
    let wild_run = at(sweep.run());
    let mut by_state = Vec::new();
    for group in rows.chunk_by(|a, b| a.0 == b.0) {
        sweep.spans.clear();
        sweep.spans.extend(group.iter().map(|&(_, span)| span));
        sweep.spans.extend_from_slice(&wild);
        by_state.push((group[0].0, at(sweep.run())));
    }
    // Winner entry indices become op runs: a hit then reads its
    // actions without touching the entry's own `Vec`.
    let mut run_of = vec![OpRun::MISS; entries.len()];
    let mut ops = Vec::new();
    let winners = sweep
        .winners
        .iter()
        .map(|&w| {
            if w == NO_ENTRY {
                return OpRun::MISS;
            }
            let e = entries[w as usize];
            let run = &mut run_of[w as usize];
            if *run == OpRun::MISS {
                // A segment's ops stay far below 2^32.
                *run = OpRun {
                    start: ops.len() as u32,
                    len: e.ops.len() as u32,
                };
                ops.extend_from_slice(&e.ops);
            }
            *run
        })
        .collect();
    let segment = Segment {
        starts: sweep.starts,
        winners,
        ops,
    };
    (segment, wild_run, by_state)
}

/// A per-state interval index — what [`Table::prepare`] lowers a table
/// to, and the only thing a lookup reads. The probe key (the BDD state)
/// selects a run in one of the index's segments: the sorted starts of
/// the elementary intervals the run's entries cut the value key's
/// domain into, each paired with the actions of the entry that wins
/// there. A run holds a state's own rows plus the wildcard-state rows;
/// every run starts at 0 and no two adjacent intervals share a winner.
///
/// A whole lowering makes one segment; each re-preparation after a
/// [`Table::replace_runs`] or a [`Table::retain`] appends one, shared
/// with older indexes through `Arc`s, until dead starts would outnumber
/// live ones; in a slice they may, as its master holds them anyway.
#[derive(Debug, Clone)]
pub(crate) struct IntervalIndex {
    /// Field probed through `runs`; `None` makes every row a
    /// wildcard-state row.
    probe: Option<PhvField>,
    /// Field searched within a run; `None` reads as 0, which every row
    /// covers.
    value: Option<PhvField>,
    runs: StateRuns,
    /// The run of the wildcard-state rows alone, taken by every probe
    /// value without rows of its own.
    wild: Run,
    segments: Vec<Arc<Segment>>,
}

/// The positions of the probe and value keys of a key list the interval
/// index can hold — `[]`, `[Exact]`, `[Range]` and `[Exact,
/// Exact|Range]`, every shape the compiler emits — or `None`.
fn lowered_keys(keys: &[Key]) -> Option<(Option<usize>, Option<usize>)> {
    use MatchKind::{Exact, Range};
    match keys {
        [] => Some((None, None)),
        [k] if k.kind == Exact => Some((Some(0), None)),
        [k] if k.kind == Range => Some((None, Some(0))),
        [s, _] if s.kind == Exact => Some((Some(0), Some(1))),
        _ => None,
    }
}

impl IntervalIndex {
    fn build(keys: &[Key], entries: &[&Entry]) -> IntervalIndex {
        let (probe, value) = lowered_keys(keys).unwrap_or((None, None));
        let field = |k: Option<usize>| k.map(|k| keys[k].field);
        let (segment, wild, by_state) = lower(keys, entries, 0);
        IntervalIndex {
            probe: field(probe),
            value: field(value),
            runs: StateRuns::build(&by_state, wild),
            wild,
            segments: vec![Arc::new(segment)],
        }
    }

    /// This index with the `changed` states re-pointed: those `runs`
    /// name at their rows, lowered into a new segment, the rest at the
    /// wildcard run. `None` when only a whole lowering is sound (a
    /// wildcard-state row).
    fn patch(&self, keys: &[Key], changed: &[u64], runs: &[Arc<[Entry]>]) -> Option<Self> {
        // The wildcard run is one miss unless a row has a wildcard state.
        let Run { seg, offset, len } = self.wild;
        if len > 1 || self.segments[seg as usize].winners[offset as usize] != OpRun::MISS {
            return None;
        }
        let entries: Vec<&Entry> = runs.iter().flat_map(|r| r.iter()).collect();
        let (segment, _, by_state) = lower(keys, &entries, self.segments.len() as u32);
        let mut segments = self.segments.clone();
        if !by_state.is_empty() {
            segments.push(Arc::new(segment));
        }
        // Sorted runs and a short tail: the stable sort merges. The
        // changed states are then dropped in one merge.
        let mut pairs: Vec<_> = self.runs.pairs(self.wild).collect();
        pairs.sort_by_key(|&(s, _)| s);
        let mut gone = changed.iter().peekable();
        pairs.retain(|(s, _)| {
            while gone.next_if(|&c| c < s).is_some() {}
            gone.peek() != Some(&s)
        });
        pairs.extend(by_state);
        pairs.sort_by_key(|&(s, _)| s);
        Some(IntervalIndex {
            runs: StateRuns::build(&pairs, self.wild),
            segments,
            ..*self
        })
    }

    /// `(live, held)` starts: those runs read, and those segments hold.
    fn starts(&self) -> (usize, usize) {
        let runs = self.runs.pairs(self.wild).map(|(_, run)| run);
        let live = runs.chain([self.wild]).map(|run| run.len as usize).sum();
        (live, self.segments.iter().map(|s| s.starts.len()).sum())
    }

    /// The winner's actions for `phv`, or `None` on a miss: one state
    /// probe, one binary search, one read of a contiguous op run.
    #[inline]
    pub(crate) fn lookup(&self, phv: &Phv) -> Option<&[ActionOp]> {
        let Run { seg, offset, len } = match self.probe {
            Some(f) => self.runs.get(phv.get_or_zero(f)).unwrap_or(self.wild),
            None => self.wild,
        };
        let seg = &*self.segments[seg as usize];
        let (offset, len) = (offset as usize, len as usize);
        let v = self.value.map_or(0, |f| phv.get_or_zero(f));
        let run = &seg.starts[offset..offset + len];
        // Every run starts at 0 <= v, so the partition point is at
        // least 1.
        let OpRun { start, len } = seg.winners[offset + run.partition_point(|&s| s <= v) - 1];
        let start = start as usize;
        seg.ops.get(start..start + len as usize)
    }
}

/// The per-run sweep's reused scratch and its output, so lowering
/// allocates per segment, never per state.
#[derive(Default)]
struct Sweep {
    /// The run's entries (input; reordered by the sweep).
    spans: Vec<Span>,
    /// Entries covering the current point, lowest rank on top; entries
    /// that ended before it are popped lazily.
    live: BinaryHeap<Reverse<(u32, u32, u64)>>,
    starts: Vec<u64>,
    winners: Vec<u32>,
}

impl Sweep {
    /// Appends the run of `spans` to `starts`/`winners` and returns its
    /// `(offset, len)`. Walks the domain up from 0 with the covering
    /// entries in a min-heap on rank. The winner can only change where
    /// an entry starts or where the current winner ends, so those are
    /// the only points visited.
    fn run(&mut self) -> (u32, u32) {
        let offset = self.starts.len();
        self.spans.sort_unstable_by_key(|s| s.lo);
        self.live.clear();
        let mut next = 0;
        let mut at = 0;
        loop {
            while let Some(s) = self.spans.get(next).filter(|s| s.lo <= at) {
                self.live.push(Reverse((s.priority, s.index, s.hi)));
                next += 1;
            }
            while self.live.peek().is_some_and(|Reverse((_, _, hi))| *hi < at) {
                self.live.pop();
            }
            let top = self.live.peek().map(|&Reverse(top)| top);
            let w = top.map_or(NO_ENTRY, |(_, i, _)| i);
            if self.starts.len() == offset || self.winners.last() != Some(&w) {
                self.starts.push(at);
                self.winners.push(w);
            }
            let start = self.spans.get(next).map(|s| s.lo);
            let end = top.and_then(|(_, _, hi)| hi.checked_add(1));
            at = match (start, end) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) | (None, Some(a)) => a,
                (None, None) => break,
            };
        }
        // A segment's starts stay far below 2^32.
        (offset as u32, (self.starts.len() - offset) as u32)
    }
}

/// Whether an action writes a register.
fn writes_register(ops: &[ActionOp]) -> bool {
    ops.iter().any(|op| matches!(op, ActionOp::Register { .. }))
}

/// The state a row names; `None` for a wildcard state.
fn state_of(e: &Entry) -> Option<u64> {
    match e.matches.first() {
        Some(&MatchValue::Exact(s)) => Some(s),
        _ => None,
    }
}

/// A table's rows: shared runs, then the rows added one by one.
#[derive(Debug, Clone, Default)]
struct Rows {
    runs: Vec<Arc<[Entry]>>,
    tail: Vec<Entry>,
    len: usize,
    /// Rows whose actions write a register.
    registers: usize,
}

/// A table's prepared form, and what changed since.
#[derive(Debug, Clone, Default)]
enum Prepared {
    /// Unprepared, or changed beyond what a patch covers.
    #[default]
    No,
    Yes(Arc<IntervalIndex>),
    /// Then one [`Table::replace_runs`], or a [`Table::retain`] that
    /// dropped rows (a slice, `true`): the states it changed, their
    /// runs now.
    Stale(Arc<IntervalIndex>, Vec<u64>, Vec<Arc<[Entry]>>, bool),
}

/// A match-action table.
///
/// The rows and the prepared form sit behind `Arc`s: a clone shares
/// both, so copying a program costs O(tables), and a table prepared
/// once is never prepared again by whoever receives a copy. The first
/// change to a shared copy takes a private one. Rows added as runs
/// ([`Table::replace_runs`]) stay shared with whoever else holds them.
#[derive(Debug, Clone)]
pub struct Table {
    /// Diagnostic name (also used in P4 output and placement reports).
    pub name: String,
    keys: Vec<Key>,
    rows: Arc<Rows>,
    /// Actions applied when no entry matches.
    pub default_ops: Vec<ActionOp>,
    prepared: Prepared,
}

impl Table {
    /// Creates an empty table over `keys`: `[]`, `[Exact]`, `[Range]` or
    /// `[Exact, Exact|Range]`, the shapes the interval index holds. Any
    /// other key list is [`PipelineError::UnsupportedKeys`].
    pub fn new(
        name: impl Into<String>,
        keys: Vec<Key>,
        default_ops: Vec<ActionOp>,
    ) -> Result<Self, PipelineError> {
        let name = name.into();
        if lowered_keys(&keys).is_none() {
            return Err(PipelineError::UnsupportedKeys { table: name });
        }
        Ok(Table {
            name,
            keys,
            rows: Arc::default(),
            default_ops,
            prepared: Prepared::No,
        })
    }

    /// Keys, in match order.
    pub fn keys(&self) -> &[Key] {
        &self.keys
    }

    fn validate_entry(&self, entry: &Entry) -> Result<(), PipelineError> {
        if entry.matches.len() != self.keys.len() {
            return Err(PipelineError::EntryShapeMismatch {
                table: self.name.clone(),
                expected: self.keys.len(),
                got: entry.matches.len(),
            });
        }
        for (i, (m, k)) in entry.matches.iter().zip(&self.keys).enumerate() {
            if !m.compatible(k.kind) {
                return Err(PipelineError::EntryKindMismatch {
                    table: self.name.clone(),
                    key: i,
                });
            }
        }
        Ok(())
    }

    /// Adds an entry after validating its shape against the keys. The
    /// next [`Table::prepare`] lowers the whole table.
    pub fn add_entry(&mut self, entry: Entry) -> Result<(), PipelineError> {
        self.validate_entry(&entry)?;
        let rows = Arc::make_mut(&mut self.rows);
        rows.registers += usize::from(writes_register(&entry.ops));
        rows.tail.push(entry);
        rows.len += 1;
        self.prepared = Prepared::No;
        Ok(())
    }

    /// Drops the rows of the states in `cleared` and of those `runs`
    /// name, then appends `runs`, shared, not copied. A run's rows all
    /// name one state in the first key, else
    /// [`PipelineError::EntryKindMismatch`]; only they are validated
    /// (like [`Table::add_entry`]'s). All or nothing on error; a table
    /// without a state key is [`PipelineError::UnsupportedKeys`]. A
    /// prepared table's next [`Table::prepare`] lowers only the changed
    /// states.
    pub fn replace_runs(
        &mut self,
        cleared: impl IntoIterator<Item = u64>,
        runs: Vec<Arc<[Entry]>>,
    ) -> Result<(), PipelineError> {
        if lowered_keys(&self.keys).is_none_or(|(probe, _)| probe.is_none()) {
            return Err(PipelineError::UnsupportedKeys {
                table: self.name.clone(),
            });
        }
        let mismatch = || PipelineError::EntryKindMismatch {
            table: self.name.clone(),
            key: 0,
        };
        let mut states: Vec<u64> = cleared.into_iter().collect();
        for run in &runs {
            let state = run.first().and_then(state_of);
            for e in run.iter() {
                self.validate_entry(e)?;
                if state.is_none() || state_of(e) != state {
                    return Err(mismatch());
                }
            }
            states.extend(state);
        }
        states.sort_unstable();
        states.dedup();
        let gone = |e: &Entry| state_of(e).is_some_and(|s| states.binary_search(&s).is_ok());
        let rows = Arc::make_mut(&mut self.rows);
        // Rows added one by one become one-row runs, in order.
        let tail = std::mem::take(&mut rows.tail);
        rows.runs
            .extend(tail.into_iter().map(|e| Arc::<[Entry]>::from([e])));
        let register_rows = |run: &[Entry]| run.iter().filter(|e| writes_register(&e.ops)).count();
        rows.runs.retain(|run| {
            let keep = !gone(&run[0]);
            if !keep {
                rows.len -= run.len();
                rows.registers -= register_rows(run);
            }
            keep
        });
        for run in runs.iter().filter(|run| !run.is_empty()) {
            rows.len += run.len();
            rows.registers += register_rows(run);
            rows.runs.push(run.clone());
        }
        self.prepared = match std::mem::take(&mut self.prepared) {
            Prepared::Yes(index) => Prepared::Stale(index, states, runs, false),
            _ => Prepared::No,
        };
        Ok(())
    }

    /// A copy holding the rows `keep` accepts, in order. A table kept
    /// whole is `self` again — a clone sharing its rows and prepared
    /// index, so it is not lowered twice. Otherwise a run kept whole is
    /// shared, not copied; of any other run only the kept rows are
    /// copied. A prepared table whose rows are all runs comes out on
    /// its own index: the next [`Table::prepare`] re-points the states
    /// that lost rows, dropped ones at the miss run, and lowers only the
    /// rows they keep.
    pub fn retain(&self, keep: impl FnMut(&Entry) -> bool) -> Table {
        self.retain_runs(false, keep)
    }

    /// [`Table::retain`], where `by_run` says every row of a run shares
    /// the fate of its first (the rows of a run name one state): `keep`
    /// then sees one row per run, and each row added one by one.
    pub fn retain_runs(&self, by_run: bool, mut keep: impl FnMut(&Entry) -> bool) -> Table {
        let mut rows = Rows::default();
        // The kept runs' `(state, position)`; the states that lost rows.
        let (mut states, mut changed, mut whole) = (Vec::new(), Vec::new(), true);
        for run in &self.rows.runs {
            let dropped = match by_run {
                true => (!keep(&run[0])).then_some(0),
                false => run.iter().position(|e| !keep(e)),
            };
            let kept = match dropped {
                None => Some(run.clone()),
                Some(_) if by_run => None,
                Some(dropped) => {
                    let rest = run[dropped + 1..].iter().filter(|e| keep(e));
                    let part: Vec<Entry> = run[..dropped].iter().chain(rest).cloned().collect();
                    (!part.is_empty()).then(|| part.into())
                }
            };
            let state = state_of(&run[0]);
            if dropped.is_some() {
                whole = false;
                changed.extend(state);
            }
            if let Some(kept) = kept {
                states.extend(state.map(|s| (s, rows.runs.len())));
                rows.runs.push(kept);
            }
        }
        rows.tail = self.rows.tail.iter().filter(|e| keep(e)).cloned().collect();
        if whole && rows.tail.len() == self.rows.tail.len() {
            return self.clone();
        }
        let kept = rows.runs.iter().flat_map(|r| r.iter()).chain(&rows.tail);
        rows.len = rows.runs.iter().map(|r| r.len()).sum::<usize>() + rows.tail.len();
        if self.rows.registers > 0 {
            rows.registers = kept.filter(|e| writes_register(&e.ops)).count();
        }
        let prepared = match &self.prepared {
            Prepared::Yes(index) if self.rows.tail.is_empty() => {
                // The changed states' kept runs, found in one merge.
                changed.sort_unstable();
                changed.dedup();
                states.sort_unstable();
                let mut gone = changed.iter().peekable();
                states.retain(|(s, _)| {
                    while gone.next_if(|&c| c < s).is_some() {}
                    gone.peek() == Some(&s)
                });
                states.sort_unstable_by_key(|&(_, at)| at);
                let runs = states
                    .iter()
                    .map(|&(_, at)| rows.runs[at].clone())
                    .collect();
                Prepared::Stale(index.clone(), changed, runs, true)
            }
            _ => Prepared::No,
        };
        Table {
            name: self.name.clone(),
            keys: self.keys.clone(),
            rows: Arc::new(rows),
            default_ops: self.default_ops.clone(),
            prepared,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.rows.len
    }

    /// Whether the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.rows.len == 0
    }

    /// Iterates entries in insertion order.
    pub fn entries(&self) -> impl Iterator<Item = &Entry> {
        let rows = &*self.rows;
        rows.runs.iter().flat_map(|r| r.iter()).chain(&rows.tail)
    }

    /// Whether an entry's or the default action writes a register
    /// (counted as rows change).
    pub fn writes_registers(&self) -> bool {
        self.rows.registers > 0 || writes_register(&self.default_ops)
    }

    /// Lowers the table to its prepared form if an entry changed since
    /// the last call, and returns how many rows it lowered: after a
    /// [`Table::replace_runs`] or a [`Table::retain`], those of the
    /// changed states (`IntervalIndex`), else every row. A session's
    /// held starts stay within twice the live ones, or it is lowered
    /// whole, so a change costs amortised O(change); a slice holds only
    /// segments its master holds, plus the one for the runs it split.
    pub fn prepare(&mut self) -> usize {
        let patched = match &self.prepared {
            Prepared::Yes(_) => return 0,
            Prepared::Stale(index, changed, runs, slice) => index
                .patch(&self.keys, changed, runs)
                .filter(|next| *slice || matches!(next.starts(), (live, held) if held <= 2 * live))
                .map(|index| (index, runs.iter().map(|r| r.len()).sum())),
            Prepared::No => None,
        };
        let (index, lowered) = patched.unwrap_or_else(|| {
            let entries: Vec<&Entry> = self.entries().collect();
            (IntervalIndex::build(&self.keys, &entries), entries.len())
        });
        self.prepared = Prepared::Yes(Arc::new(index));
        lowered
    }

    /// Whether the table is prepared for [`Table::lookup`].
    pub fn is_prepared(&self) -> bool {
        self.index().is_ok()
    }

    /// How the prepared probe finds the table's states: `(by indexing a
    /// Vec, by hashing)`; `None` when unprepared or when the table has
    /// no state key.
    pub fn probe_split(&self) -> Option<(usize, usize)> {
        let index = self.index().ok()?;
        let runs = &index.runs;
        let indexed = runs.dense.iter().filter(|&&run| run != index.wild).count();
        index.probe.map(|_| (indexed, runs.outliers.len()))
    }

    /// The prepared index's `(live, held)` interval starts: those its
    /// runs read, and those its segments hold — at most twice as many
    /// after [`Table::replace_runs`]; a slice ([`Table::retain`]) holds
    /// its master's segments plus one — `None` when unprepared.
    pub fn index_starts(&self) -> Option<(usize, usize)> {
        self.index().ok().map(IntervalIndex::starts)
    }

    /// The prepared form, fetched once per table by a wave; a table
    /// changed since its last [`Table::prepare`] is a program error,
    /// [`PipelineError::TableNotPrepared`].
    #[inline]
    pub(crate) fn index(&self) -> Result<&IntervalIndex, PipelineError> {
        match &self.prepared {
            Prepared::Yes(index) => Ok(index),
            _ => Err(PipelineError::TableNotPrepared {
                table: self.name.clone(),
            }),
        }
    }

    /// Finds the actions of the winning entry for a PHV: the matching
    /// entry with the smallest `(priority, insertion index)`; `None` on
    /// a miss. A table changed since its last [`Table::prepare`] is a
    /// program error, [`PipelineError::TableNotPrepared`].
    pub fn lookup(&self, phv: &Phv) -> Result<Option<&[ActionOp]>, PipelineError> {
        Ok(self.index()?.lookup(phv))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phv::PhvLayout;

    fn layout2() -> (PhvLayout, PhvField, PhvField) {
        let mut l = PhvLayout::new();
        let state = l.add("state", 16);
        let stock = l.add("stock", 64);
        (l, state, stock)
    }

    /// Prepares `t`, then looks `phv` up: the winner's ops.
    fn hit(t: &mut Table, phv: &Phv) -> Option<Vec<ActionOp>> {
        t.prepare();
        t.lookup(phv).unwrap().map(<[ActionOp]>::to_vec)
    }

    fn phv_with(l: &PhvLayout, state: PhvField, stock: PhvField, s: u64, v: u64) -> Phv {
        let mut p = l.instantiate();
        p.set(state, s);
        p.set(stock, v);
        p
    }

    /// The Stock table of Figure 4.
    #[test]
    fn figure4_stock_table_semantics() {
        let (l, state, stock) = layout2();
        const AAPL: u64 = 10;
        const MSFT: u64 = 20;
        let mut t = Table::new(
            "stock",
            vec![
                Key {
                    field: state,
                    kind: MatchKind::Exact,
                    bits: 16,
                },
                Key {
                    field: stock,
                    kind: MatchKind::Exact,
                    bits: 64,
                },
            ],
            vec![],
        )
        .unwrap();
        let e = |prio, m0, m1, s| Entry {
            priority: prio,
            matches: vec![m0, m1],
            ops: vec![ActionOp::SetField(state, s)],
        };
        t.add_entry(e(0, MatchValue::Exact(1), MatchValue::Exact(AAPL), 3))
            .unwrap();
        t.add_entry(e(1, MatchValue::Exact(1), MatchValue::Any, 6))
            .unwrap();
        t.add_entry(e(0, MatchValue::Exact(2), MatchValue::Exact(AAPL), 3))
            .unwrap();
        t.add_entry(e(0, MatchValue::Exact(2), MatchValue::Exact(MSFT), 4))
            .unwrap();
        t.add_entry(e(1, MatchValue::Exact(2), MatchValue::Any, 5))
            .unwrap();

        let mut got = |s, v| {
            let phv = phv_with(&l, state, stock, s, v);
            hit(&mut t, &phv)
        };
        assert_eq!(got(1, AAPL), Some(vec![ActionOp::SetField(state, 3)]));
        assert_eq!(got(1, MSFT), Some(vec![ActionOp::SetField(state, 6)]));
        assert_eq!(got(2, MSFT), Some(vec![ActionOp::SetField(state, 4)]));
        assert_eq!(got(2, 99), Some(vec![ActionOp::SetField(state, 5)]));
        assert_eq!(got(9, AAPL), None); // unknown state: default action
    }

    #[test]
    fn range_keys_match_inclusively() {
        let (l, state, shares) = layout2();
        let mut t = Table::new(
            "shares",
            vec![
                Key {
                    field: state,
                    kind: MatchKind::Exact,
                    bits: 16,
                },
                Key {
                    field: shares,
                    kind: MatchKind::Range,
                    bits: 64,
                },
            ],
            vec![],
        )
        .unwrap();
        t.add_entry(Entry {
            priority: 0,
            matches: vec![MatchValue::Exact(0), MatchValue::Range { lo: 0, hi: 59 }],
            ops: vec![ActionOp::SetField(state, 1)],
        })
        .unwrap();
        for (v, hits) in [(0u64, true), (59, true), (60, false)] {
            let phv = phv_with(&l, state, shares, 0, v);
            assert_eq!(hit(&mut t, &phv).is_some(), hits, "v={v}");
        }
    }

    #[test]
    fn priority_orders_overlapping_entries() {
        let (l, _s, f) = layout2();
        let mut t = Table::new(
            "t",
            vec![Key {
                field: f,
                kind: MatchKind::Range,
                bits: 64,
            }],
            vec![],
        )
        .unwrap();
        t.add_entry(Entry {
            priority: 5,
            matches: vec![MatchValue::Range { lo: 0, hi: 100 }],
            ops: vec![ActionOp::Forward(PortId(1))],
        })
        .unwrap();
        t.add_entry(Entry {
            priority: 1,
            matches: vec![MatchValue::Range { lo: 50, hi: 60 }],
            ops: vec![ActionOp::Forward(PortId(2))],
        })
        .unwrap();
        let mut phv = l.instantiate();
        phv.set(f, 55);
        assert_eq!(
            hit(&mut t, &phv).unwrap(),
            vec![ActionOp::Forward(PortId(2))]
        );
        phv.set(f, 10);
        assert_eq!(
            hit(&mut t, &phv).unwrap(),
            vec![ActionOp::Forward(PortId(1))]
        );
    }

    #[test]
    fn equal_priority_ties_break_by_insertion() {
        let (l, _s, f) = layout2();
        let mut t = Table::new(
            "t",
            vec![Key {
                field: f,
                kind: MatchKind::Exact,
                bits: 64,
            }],
            vec![],
        )
        .unwrap();
        t.add_entry(Entry {
            priority: 0,
            matches: vec![MatchValue::Exact(7)],
            ops: vec![ActionOp::Forward(PortId(1))],
        })
        .unwrap();
        t.add_entry(Entry {
            priority: 0,
            matches: vec![MatchValue::Exact(7)],
            ops: vec![ActionOp::Forward(PortId(2))],
        })
        .unwrap();
        let mut phv = l.instantiate();
        phv.set(f, 7);
        assert_eq!(
            hit(&mut t, &phv).unwrap(),
            vec![ActionOp::Forward(PortId(1))]
        );
    }

    #[test]
    fn shape_and_kind_validation() {
        let (_, state, stock) = layout2();
        let mut t = Table::new(
            "t",
            vec![
                Key {
                    field: state,
                    kind: MatchKind::Exact,
                    bits: 16,
                },
                Key {
                    field: stock,
                    kind: MatchKind::Exact,
                    bits: 64,
                },
            ],
            vec![],
        )
        .unwrap();
        assert!(matches!(
            t.add_entry(Entry {
                priority: 0,
                matches: vec![MatchValue::Exact(1)],
                ops: vec![]
            }),
            Err(PipelineError::EntryShapeMismatch { .. })
        ));
        assert!(matches!(
            t.add_entry(Entry {
                priority: 0,
                matches: vec![MatchValue::Exact(1), MatchValue::Range { lo: 0, hi: 1 }],
                ops: vec![]
            }),
            Err(PipelineError::EntryKindMismatch { key: 1, .. })
        ));
    }

    #[test]
    fn lookup_on_a_changed_table_is_a_typed_error_until_prepare() {
        let (l, state, stock) = layout2();
        let mut t = Table::new(
            "t",
            vec![Key {
                field: state,
                kind: MatchKind::Exact,
                bits: 16,
            }],
            vec![],
        )
        .unwrap();
        let mut phv = l.instantiate();
        phv.set(state, 1);
        phv.set(stock, 0);
        let unprepared = Err(PipelineError::TableNotPrepared { table: "t".into() });
        assert_eq!(t.lookup(&phv), unprepared);
        // An empty table misses.
        assert!(hit(&mut t, &phv).is_none());
        t.add_entry(Entry {
            priority: 0,
            matches: vec![MatchValue::Exact(1)],
            ops: vec![ActionOp::Drop],
        })
        .unwrap();
        // The add dropped the prepared form; no silent scan.
        assert!(!t.is_prepared());
        assert_eq!(t.lookup(&phv), unprepared);
        assert!(hit(&mut t, &phv).is_some());
    }

    /// `(state: exact, value: range)` — the compiled-table shape.
    fn state_range_table(state: PhvField, value: PhvField) -> Table {
        Table::new(
            "t",
            vec![
                Key {
                    field: state,
                    kind: MatchKind::Exact,
                    bits: 16,
                },
                Key {
                    field: value,
                    kind: MatchKind::Range,
                    bits: 64,
                },
            ],
            vec![],
        )
        .unwrap()
    }

    fn tagged(priority: u32, state: MatchValue, value: MatchValue, tag: u64) -> Entry {
        Entry {
            priority,
            matches: vec![state, value],
            ops: vec![ActionOp::SetField(PhvField(0), tag)],
        }
    }

    /// The winner's tag (see [`tagged`]).
    fn tag(t: &mut Table, phv: &Phv) -> Option<u64> {
        hit(t, phv).map(|ops| match ops[..] {
            [ActionOp::SetField(_, tag)] => tag,
            _ => unreachable!("tagged entries only"),
        })
    }

    #[test]
    fn value_below_the_first_row_and_outside_every_row_misses() {
        let (l, state, value) = layout2();
        let at = |s, v| phv_with(&l, state, value, s, v);
        let mut t = state_range_table(state, value);
        let r = |lo, hi| MatchValue::Range { lo, hi };
        t.add_entry(tagged(0, MatchValue::Exact(1), r(10, 20), 1))
            .unwrap();
        t.add_entry(tagged(0, MatchValue::Exact(1), r(30, 40), 2))
            .unwrap();
        for (v, want) in [
            (0, None),
            (9, None),
            (10, Some(1)),
            (20, Some(1)),
            (21, None),
            (29, None),
            (30, Some(2)),
            (40, Some(2)),
            (41, None),
            (u64::MAX, None),
        ] {
            assert_eq!(tag(&mut t, &at(1, v)), want, "v={v}");
        }
        // An empty table misses everywhere.
        let mut empty = state_range_table(state, value);
        assert_eq!(tag(&mut empty, &at(1, 10)), None);
    }

    #[test]
    fn ranges_reaching_u64_max_match_at_the_top() {
        let (l, state, value) = layout2();
        let at = |s, v| phv_with(&l, state, value, s, v);
        let mut t = state_range_table(state, value);
        t.add_entry(tagged(
            1,
            MatchValue::Exact(0),
            MatchValue::Range {
                lo: 100,
                hi: u64::MAX,
            },
            1,
        ))
        .unwrap();
        t.add_entry(tagged(
            0,
            MatchValue::Exact(0),
            MatchValue::Exact(u64::MAX),
            2,
        ))
        .unwrap();
        assert_eq!(tag(&mut t, &at(0, 99)), None);
        assert_eq!(tag(&mut t, &at(0, 100)), Some(1));
        assert_eq!(tag(&mut t, &at(0, u64::MAX - 1)), Some(1));
        assert_eq!(tag(&mut t, &at(0, u64::MAX)), Some(2));
    }

    #[test]
    fn a_state_without_rows_sees_the_wildcard_state_rows() {
        let (l, state, value) = layout2();
        let at = |s, v| phv_with(&l, state, value, s, v);
        let mut t = state_range_table(state, value);
        let r = |lo, hi| MatchValue::Range { lo, hi };
        t.add_entry(tagged(0, MatchValue::Exact(1), r(0, 9), 1))
            .unwrap();
        t.add_entry(tagged(1, MatchValue::Any, r(5, 50), 2))
            .unwrap();
        // State 1: its own row outranks the wildcard where both cover.
        assert_eq!(tag(&mut t, &at(1, 7)), Some(1));
        assert_eq!(tag(&mut t, &at(1, 20)), Some(2));
        assert_eq!(tag(&mut t, &at(1, 51)), None);
        // State 7 has no rows of its own.
        assert_eq!(tag(&mut t, &at(7, 3)), None);
        assert_eq!(tag(&mut t, &at(7, 7)), Some(2));
        assert_eq!(tag(&mut t, &at(7, 50)), Some(2));
    }

    #[test]
    fn identical_duplicates_tie_break_by_insertion() {
        let (l, state, value) = layout2();
        let at = |s, v| phv_with(&l, state, value, s, v);
        let mut t = state_range_table(state, value);
        let dup = tagged(3, MatchValue::Exact(1), MatchValue::Any, 1);
        t.add_entry(dup.clone()).unwrap();
        t.add_entry(dup.clone()).unwrap();
        t.add_entry(tagged(3, MatchValue::Exact(1), MatchValue::Any, 2))
            .unwrap();
        assert_eq!(tag(&mut t, &at(1, 42)), Some(1));
        // Inserted the other way round, tag 2 wins.
        let mut t = state_range_table(state, value);
        t.add_entry(tagged(3, MatchValue::Exact(1), MatchValue::Any, 2))
            .unwrap();
        t.add_entry(dup).unwrap();
        assert_eq!(tag(&mut t, &at(1, 42)), Some(2));
    }

    #[test]
    fn op_runs_keep_each_winners_actions_whole() {
        // Winners with zero, one and three ops, one of them shared by
        // every state: an op-less winner is still a hit, and no run
        // reads into a neighbour's ops.
        let (l, state, value) = layout2();
        let at = |s, v| phv_with(&l, state, value, s, v);
        let mut t = state_range_table(state, value);
        let r = |lo, hi| MatchValue::Range { lo, hi };
        let entry = |priority, s, v, ops| Entry {
            priority,
            matches: vec![s, v],
            ops,
        };
        let three = vec![
            ActionOp::Forward(PortId(1)),
            ActionOp::Drop,
            ActionOp::SetField(state, 9),
        ];
        let wide = vec![ActionOp::Forward(PortId(2))];
        t.add_entry(entry(0, MatchValue::Exact(1), r(0, 9), vec![]))
            .unwrap();
        t.add_entry(entry(0, MatchValue::Exact(1), r(10, 19), three.clone()))
            .unwrap();
        t.add_entry(entry(1, MatchValue::Any, r(0, 29), wide.clone()))
            .unwrap();
        for (s, v, want) in [
            (1, 5, Some(vec![])),
            (1, 15, Some(three.clone())),
            (1, 25, Some(wide.clone())),
            (1, 30, None),
            (2, 5, Some(wide.clone())),
            (2, 30, None),
        ] {
            assert_eq!(hit(&mut t, &at(s, v)), want, "state={s} v={v}");
        }
    }

    #[test]
    fn replace_runs_rejects_a_run_not_of_one_state_and_keeps_the_rows() {
        let (l, state, value) = layout2();
        let mut t = state_range_table(state, value);
        let row = |s| tagged(0, s, MatchValue::Any, 1);
        t.replace_runs([], vec![Arc::from([row(MatchValue::Exact(1))])])
            .unwrap();
        t.prepare();
        let mismatch = Err(PipelineError::EntryKindMismatch {
            table: "t".into(),
            key: 0,
        });
        for run in [
            [row(MatchValue::Exact(2)), row(MatchValue::Exact(3))],
            [row(MatchValue::Any), row(MatchValue::Any)],
        ] {
            assert_eq!(t.replace_runs([1], vec![Arc::from(run)]), mismatch);
        }
        assert!(t.is_prepared());
        assert_eq!(tag(&mut t, &phv_with(&l, state, value, 1, 0)), Some(1));
        let mut keyless = Table::new(
            "k",
            vec![Key {
                field: value,
                kind: MatchKind::Range,
                bits: 64,
            }],
            vec![],
        )
        .unwrap();
        let unsupported = Err(PipelineError::UnsupportedKeys { table: "k".into() });
        assert_eq!(keyless.replace_runs([], vec![]), unsupported);
    }

    #[test]
    fn retain_keeps_order_shares_whole_runs_and_recounts_registers() {
        let (_, state, value) = layout2();
        let mut t = state_range_table(state, value);
        let run = |s, tags: [u64; 2]| -> Arc<[Entry]> {
            Arc::from(tags.map(|tag| tagged(0, MatchValue::Exact(s), MatchValue::Any, tag)))
        };
        let counted = Entry {
            ops: vec![ActionOp::Register {
                slot: 0,
                op: RegOp::Increment,
            }],
            ..tagged(0, MatchValue::Exact(3), MatchValue::Any, 5)
        };
        t.replace_runs([], vec![run(1, [1, 2]), run(2, [3, 4])])
            .unwrap();
        t.add_entry(counted).unwrap();
        t.add_entry(tagged(0, MatchValue::Exact(3), MatchValue::Any, 6))
            .unwrap();
        t.prepare();
        assert!(t.writes_registers());
        let tag_of = |e: &Entry| match e.ops[..] {
            [ActionOp::SetField(_, tag)] => tag,
            _ => 5,
        };

        let kept = t.retain(|e| tag_of(e) != 3 && tag_of(e) != 5);
        let tags: Vec<u64> = kept.entries().map(tag_of).collect();
        assert_eq!(tags, [1, 2, 4, 6]);
        assert_eq!(kept.len(), 4);
        assert!(!kept.is_prepared());
        assert!(!kept.writes_registers());
        assert!(Arc::ptr_eq(&kept.rows.runs[0], &t.rows.runs[0]));
        assert!(!Arc::ptr_eq(&kept.rows.runs[1], &t.rows.runs[1]));

        let all = t.retain(|_| true);
        assert!(all.is_prepared());
        assert!(all.writes_registers());
        assert_eq!(
            all.entries().collect::<Vec<_>>(),
            t.entries().collect::<Vec<_>>()
        );
        assert_eq!(t.retain(|_| false).len(), 0);
    }

    #[test]
    fn a_slice_of_a_prepared_table_lowers_only_the_runs_it_splits() {
        // States 1, 2 and 3, two rows each: the slice drops state 1,
        // keeps one row of state 2 and all of state 3.
        let (l, state, value) = layout2();
        let at = |s, v| phv_with(&l, state, value, s, v);
        let r = |lo, hi| MatchValue::Range { lo, hi };
        let run = |s: u64| -> Arc<[Entry]> {
            Arc::from([
                tagged(0, MatchValue::Exact(s), r(0, 9), 10 * s),
                tagged(1, MatchValue::Exact(s), r(5, 20), 10 * s + 1),
            ])
        };
        let mut t = state_range_table(state, value);
        t.replace_runs([], vec![run(1), run(2), run(3)]).unwrap();
        assert_eq!(t.prepare(), 6);
        let (_, master_held) = t.index_starts().unwrap();
        let kept = |e: &Entry| match e.matches[0] {
            MatchValue::Exact(1) => false,
            MatchValue::Exact(2) => e.priority == 0,
            _ => true,
        };
        let mut slice = t.retain(kept);
        assert!(!slice.is_prepared());
        assert_eq!(slice.prepare(), 1, "only state 2's kept row is lowered");
        for (s, v, want) in [
            (1, 3, None),
            (1, 15, None),
            (2, 3, Some(20)),
            (2, 15, None),
            (3, 3, Some(30)),
            (3, 7, Some(30)),
            (3, 15, Some(31)),
            (3, 21, None),
        ] {
            assert_eq!(tag(&mut slice, &at(s, v)), want, "state={s} v={v}");
        }
        // The slice holds its master's segments and one new one.
        let (live, held) = slice.index_starts().unwrap();
        assert!(held > master_held && live < held, "live={live} held={held}");
        // Decided by run, a slice that only drops states lowers nothing
        // and holds no new segment.
        let mut by_run = t.retain_runs(true, |e| e.matches[0] != MatchValue::Exact(2));
        assert_eq!(by_run.len(), 4);
        assert_eq!(by_run.prepare(), 0);
        assert_eq!(by_run.index_starts().unwrap().1, master_held);
        assert_eq!(tag(&mut by_run, &at(2, 3)), None);
        assert_eq!(tag(&mut by_run, &at(1, 3)), Some(10));
    }

    #[test]
    fn unlowerable_key_lists_are_rejected_at_construction() {
        let (_, state, value) = layout2();
        let key = |field, kind| Key {
            field,
            kind,
            bits: 16,
        };
        let new = |keys: Vec<Key>| Table::new("t", keys, vec![]).map(|_| ());
        for keys in [
            vec![],
            vec![key(state, MatchKind::Exact)],
            vec![key(value, MatchKind::Range)],
            vec![key(state, MatchKind::Exact), key(value, MatchKind::Exact)],
            vec![key(state, MatchKind::Exact), key(value, MatchKind::Range)],
        ] {
            assert_eq!(new(keys.clone()), Ok(()), "{keys:?}");
        }
        let rejected = Err(PipelineError::UnsupportedKeys { table: "t".into() });
        for keys in [
            vec![key(value, MatchKind::Range), key(state, MatchKind::Exact)],
            vec![key(value, MatchKind::Range), key(state, MatchKind::Range)],
            vec![
                key(state, MatchKind::Exact),
                key(value, MatchKind::Exact),
                key(value, MatchKind::Exact),
            ],
        ] {
            assert_eq!(new(keys.clone()), rejected, "{keys:?}");
        }
    }

    #[test]
    fn sparse_states_keep_the_hash_and_the_same_winners() {
        // States 0 and 10^6 span far more ids than `4 × 2 + 64`: one
        // indexes the `Vec`, the other is hashed. States 0 and 1 both
        // index the `Vec`. Both forms pick the same winners, and a probe
        // between or beyond the states reads the wildcard rows.
        let (l, state, value) = layout2();
        let at = |s, v| phv_with(&l, state, value, s, v);
        let r = |lo, hi| MatchValue::Range { lo, hi };
        let build = |far: u64| {
            let mut t = state_range_table(state, value);
            t.add_entry(tagged(0, MatchValue::Exact(0), r(0, 9), 1))
                .unwrap();
            t.add_entry(tagged(0, MatchValue::Exact(far), r(5, 20), 2))
                .unwrap();
            t.add_entry(tagged(1, MatchValue::Any, r(0, 50), 3))
                .unwrap();
            t.prepare();
            t
        };
        let mut sparse = build(1_000_000);
        let mut dense = build(1);
        assert_eq!(sparse.probe_split(), Some((1, 1)));
        assert_eq!(dense.probe_split(), Some((2, 0)));
        for (s, v, want) in [
            (0, 3, Some(1)),
            (0, 30, Some(3)),
            (0, 60, None),
            (1, 7, Some(2)),
            (1, 30, Some(3)),
            (500_000, 7, Some(3)),
            (u64::MAX, 7, Some(3)),
        ] {
            let far = if s == 1 { 1_000_000 } else { s };
            assert_eq!(tag(&mut dense, &at(s, v)), want, "dense state={s} v={v}");
            assert_eq!(
                tag(&mut sparse, &at(far, v)),
                want,
                "sparse state={far} v={v}"
            );
        }
    }

    #[test]
    fn the_densest_window_of_states_indexes_the_vec() {
        // Ids 10..=40 (31 states) plus late ids 5 000 and 9 000: the
        // window holds the 31, the two late ids are hashed.
        let (l, state, value) = layout2();
        let mut t = state_range_table(state, value);
        let ids: Vec<u64> = (10..=40).chain([5_000, 9_000]).collect();
        for &s in &ids {
            t.add_entry(tagged(0, MatchValue::Exact(s), MatchValue::Any, s))
                .unwrap();
        }
        t.prepare();
        assert_eq!(t.probe_split(), Some((31, 2)));
        for s in ids {
            assert_eq!(tag(&mut t, &phv_with(&l, state, value, s, 0)), Some(s));
        }
        for s in [0, 9, 41, 4_999, 9_001] {
            assert_eq!(tag(&mut t, &phv_with(&l, state, value, s, 0)), None);
        }
    }
}
