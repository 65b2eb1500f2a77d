//! The pipeline executor: parse → match-action stages → forward.
//!
//! A [`Pipeline`] bundles everything the Camus compiler emits for one
//! application: the PHV layout, the parser program, the ordered table
//! chain, the multicast groups and the register file. [`Pipeline::process`]
//! runs one packet through it and returns the forwarding decision —
//! the union, over all application messages in the packet, of each
//! message's matched ports (§2: the switch executes the actions of all
//! matching rules).

use std::fmt;
use std::time::Instant;

use camus_telemetry::DataPlaneTelemetry;

use crate::cache::{CacheStats, DecisionCache};
use crate::error::PipelineError;
use crate::multicast::{MulticastTable, PortId};
use crate::parser::ParserSpec;
use crate::phv::{Phv, PhvBuf, PhvField, PhvLayout};
use crate::register::{AggKind, RegisterFile};
use crate::table::{ActionOp, RegOp, Table};

/// Why a malformed packet was dropped at the parser, mirroring the
/// parse-class [`PipelineError`] variants. Truncated or garbage frames
/// are data-plane inputs, not program bugs: a real switch drops them
/// and increments a counter, so the executor turns them into typed
/// drop *decisions* rather than `Err`s (which would poison the rest of
/// a batch) or panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParseDrop {
    /// The parser ran past the end of the packet (truncated frame).
    Underflow,
    /// A selector value matched no transition (unknown EtherType,
    /// protocol, message type…).
    NoTransition,
    /// The parser exceeded its loop bound (malformed length fields).
    LoopBound,
}

impl ParseDrop {
    /// Classifies a pipeline error as a parse-class drop, or `None` for
    /// config-class errors (which stay fatal: they mean the *program*
    /// is broken, not the packet).
    pub fn classify(e: &PipelineError) -> Option<ParseDrop> {
        match e {
            PipelineError::ParseUnderflow { .. } => Some(ParseDrop::Underflow),
            PipelineError::ParseNoTransition { .. } => Some(ParseDrop::NoTransition),
            PipelineError::ParseLoopBound => Some(ParseDrop::LoopBound),
            _ => None,
        }
    }

    /// Stable counter-style name.
    pub fn as_str(self) -> &'static str {
        match self {
            ParseDrop::Underflow => "parse_underflow",
            ParseDrop::NoTransition => "parse_no_transition",
            ParseDrop::LoopBound => "parse_loop_bound",
        }
    }
}

impl fmt::Display for ParseDrop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The forwarding decision for one packet.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ForwardDecision {
    /// Egress ports (sorted, deduplicated). Empty = dropped.
    pub ports: Vec<PortId>,
    /// Number of application messages evaluated.
    pub messages: usize,
    /// Number of messages that matched at least one forwarding rule.
    pub matched_messages: usize,
    /// `Some` when the packet was dropped because it failed to parse;
    /// `None` for well-formed packets (which may still drop on miss).
    pub drop_reason: Option<ParseDrop>,
}

impl ForwardDecision {
    /// Whether the packet is dropped.
    pub fn dropped(&self) -> bool {
        self.ports.is_empty()
    }

    /// Whether the packet was dropped because it failed to parse.
    pub fn malformed(&self) -> bool {
        self.drop_reason.is_some()
    }
}

/// A reusable buffer of [`ForwardDecision`]s for the batch API.
///
/// [`DecisionBuf::clear`] retires decisions without freeing their
/// `ports` vectors, so a warmed buffer serves subsequent batches with
/// zero allocation.
#[derive(Debug, Clone, Default)]
pub struct DecisionBuf {
    slots: Vec<ForwardDecision>,
    len: usize,
}

impl DecisionBuf {
    /// Logically empties the buffer, keeping per-decision storage.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Number of live decisions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no live decisions.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The live decisions, in submission order.
    pub fn as_slice(&self) -> &[ForwardDecision] {
        &self.slots[..self.len]
    }

    /// Iterates the live decisions.
    pub fn iter(&self) -> impl Iterator<Item = &ForwardDecision> {
        self.as_slice().iter()
    }

    /// Claims the next slot, recycling a retired decision's storage.
    fn next_slot(&mut self) -> &mut ForwardDecision {
        if self.len == self.slots.len() {
            self.slots.push(ForwardDecision::default());
        }
        let d = &mut self.slots[self.len];
        self.len += 1;
        d.ports.clear();
        d.messages = 0;
        d.matched_messages = 0;
        d.drop_reason = None;
        d
    }
}

impl<'a> IntoIterator for &'a DecisionBuf {
    type Item = &'a ForwardDecision;
    type IntoIter = std::slice::Iter<'a, ForwardDecision>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// Execution counters accumulated by the executor (never consulted by
/// it), through [`Pipeline::process`] on the pipeline's own
/// [`ExecState`] and through [`Pipeline::process_batch_shared`] on the
/// caller's [`ShardCtx`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Packets processed.
    pub packets: u64,
    /// Application messages evaluated.
    pub messages: u64,
    /// Messages that matched at least one forwarding rule.
    pub matched_messages: u64,
    /// Packets forwarded to at least one port.
    pub forwarded_packets: u64,
    /// Packets forwarded nowhere.
    pub dropped_packets: u64,
    /// Truncated frames dropped at the parser ([`ParseDrop::Underflow`]).
    /// Parse-drop counters are a subset of `dropped_packets`.
    pub drop_underflow: u64,
    /// Unknown-selector frames dropped ([`ParseDrop::NoTransition`]).
    pub drop_no_transition: u64,
    /// Loop-bound frames dropped ([`ParseDrop::LoopBound`]).
    pub drop_loop_bound: u64,
    /// Per-table (stage) entry-hit counts, indexed like
    /// [`Pipeline::tables`].
    pub table_hits: Vec<u64>,
    /// Per-table default-action (miss) counts.
    pub table_misses: Vec<u64>,
}

impl ExecStats {
    /// Total packets dropped because they failed to parse (the sum of
    /// the per-reason drop counters).
    pub fn malformed_packets(&self) -> u64 {
        self.drop_underflow + self.drop_no_transition + self.drop_loop_bound
    }

    /// Records a parse-class drop.
    fn count_parse_drop(&mut self, reason: ParseDrop) {
        match reason {
            ParseDrop::Underflow => self.drop_underflow += 1,
            ParseDrop::NoTransition => self.drop_no_transition += 1,
            ParseDrop::LoopBound => self.drop_loop_bound += 1,
        }
    }

    /// Overwrites `self` with `src`, reusing the per-table vectors'
    /// storage (allocation-free once sized). Used by the engine's
    /// supervisor to snapshot/restore counters around a batch so a
    /// caught panic never leaves half-counted packets.
    pub fn copy_from(&mut self, src: &ExecStats) {
        self.packets = src.packets;
        self.messages = src.messages;
        self.matched_messages = src.matched_messages;
        self.forwarded_packets = src.forwarded_packets;
        self.dropped_packets = src.dropped_packets;
        self.drop_underflow = src.drop_underflow;
        self.drop_no_transition = src.drop_no_transition;
        self.drop_loop_bound = src.drop_loop_bound;
        self.table_hits.clear();
        self.table_hits.extend_from_slice(&src.table_hits);
        self.table_misses.clear();
        self.table_misses.extend_from_slice(&src.table_misses);
    }

    /// Zeroes every counter (keeping the per-table vectors' storage).
    pub fn reset(&mut self) {
        self.packets = 0;
        self.messages = 0;
        self.matched_messages = 0;
        self.forwarded_packets = 0;
        self.dropped_packets = 0;
        self.drop_underflow = 0;
        self.drop_no_transition = 0;
        self.drop_loop_bound = 0;
        self.table_hits.fill(0);
        self.table_misses.fill(0);
    }

    /// Adds `other`'s counters into `self` (for cross-worker
    /// aggregation).
    pub fn merge(&mut self, other: &ExecStats) {
        self.packets += other.packets;
        self.messages += other.messages;
        self.matched_messages += other.matched_messages;
        self.forwarded_packets += other.forwarded_packets;
        self.dropped_packets += other.dropped_packets;
        self.drop_underflow += other.drop_underflow;
        self.drop_no_transition += other.drop_no_transition;
        self.drop_loop_bound += other.drop_loop_bound;
        if self.table_hits.len() < other.table_hits.len() {
            self.table_hits.resize(other.table_hits.len(), 0);
        }
        for (a, b) in self.table_hits.iter_mut().zip(&other.table_hits) {
            *a += *b;
        }
        if self.table_misses.len() < other.table_misses.len() {
            self.table_misses.resize(other.table_misses.len(), 0);
        }
        for (a, b) in self.table_misses.iter_mut().zip(&other.table_misses) {
            *a += *b;
        }
    }
}

/// Reusable per-pipeline execution state: scratch buffers for the
/// allocation-free hot path, counters, and the prepared hoisting plan.
/// Cloned with the pipeline (each engine worker gets its own).
#[derive(Debug, Clone, Default)]
pub struct ExecState {
    /// Execution counters.
    pub stats: ExecStats,
    /// Parsed-message pool (reused across packets).
    msgs: PhvBuf,
    /// The parser's working PHV.
    work: Phv,
    /// Per-binding flag: true when the register slot is never written
    /// by any table action, so its value is message-invariant within a
    /// packet and the read can be hoisted out of the per-message loop.
    hoist: Vec<bool>,
    /// Per-packet cache of hoisted aggregate values.
    hoist_vals: Vec<u64>,
    /// Optional per-shard telemetry (counters + latency histograms).
    /// Boxed so the disabled case costs one pointer; `None` (the
    /// default) keeps the hot path free of clock reads entirely.
    telemetry: Option<Box<DataPlaneTelemetry>>,
    /// Optional per-shard decision cache (see [`crate::cache`]). Boxed
    /// for the same reason as `telemetry`; only ever `Some` after
    /// [`Pipeline::enable_decision_cache`] proved the program
    /// cacheable on the key field.
    cache: Option<Box<DecisionCache>>,
}

impl ExecState {
    /// Enables telemetry, sampling every `2^sample_shift`-th packet.
    /// The one `Box` allocation happens here, not on the packet path.
    pub fn enable_telemetry(&mut self, sample_shift: u32) {
        self.telemetry = Some(Box::new(DataPlaneTelemetry::new(sample_shift)));
    }

    /// The telemetry collected so far, if enabled.
    pub fn telemetry(&self) -> Option<&DataPlaneTelemetry> {
        self.telemetry.as_deref()
    }

    /// Detaches the telemetry record (disabling further collection).
    pub fn take_telemetry(&mut self) -> Option<Box<DataPlaneTelemetry>> {
        self.telemetry.take()
    }

    /// Re-attaches a telemetry record.
    pub fn set_telemetry(&mut self, t: Option<Box<DataPlaneTelemetry>>) {
        self.telemetry = t;
    }

    /// The decision-cache counters, if a cache is armed.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_deref().map(|c| c.stats)
    }
}

/// Descriptor binding a PHV pseudo-field to a register aggregate, so
/// stateful predicates (`avg(price) > 50`) can be matched by ordinary
/// tables: before the table chain runs, the executor materializes each
/// aggregate into its pseudo-field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateBinding {
    /// PHV slot the aggregate is written into.
    pub dst: crate::phv::PhvField,
    /// Register slot read.
    pub slot: usize,
    /// Aggregate kind.
    pub agg: AggKind,
}

/// A complete data-plane program instance.
#[derive(Debug, Clone)]
pub struct Pipeline {
    /// PHV layout shared by parser and tables.
    pub layout: PhvLayout,
    /// Parser program.
    pub parser: ParserSpec,
    /// Match-action tables, applied in order.
    pub tables: Vec<Table>,
    /// Multicast groups.
    pub mcast: MulticastTable,
    /// Register file backing `@query_counter` state.
    pub registers: RegisterFile,
    /// Aggregate → pseudo-field bindings evaluated before the tables.
    pub state_bindings: Vec<StateBinding>,
    /// Metadata initialization applied to every message PHV before the
    /// table chain (e.g. the BDD entry state, which is nonzero after
    /// incremental recompilations).
    pub init_fields: Vec<(crate::phv::PhvField, u64)>,
    /// Scratch buffers, counters and the prepared hoisting plan.
    pub exec: ExecState,
}

/// Runs the prepared table chain on one message PHV, appending matched
/// ports to `ports`. Free function so the caller can hold disjoint
/// borrows of the pipeline's fields: `ops` stays a borrow of `tables`
/// (no per-table clone) while `phv` and `registers` are mutated.
///
/// Returns `(dropped, hit_mask)`: whether any matching rule dropped,
/// and a bitmask with bit `i` set when table `i` hit a non-default
/// entry (tables ≥ 64 are not recorded — the decision cache, the only
/// mask consumer, refuses such chains).
fn eval_tables(
    tables: &[Table],
    mcast: &MulticastTable,
    registers: &mut RegisterFile,
    phv: &mut Phv,
    now_us: u64,
    ports: &mut Vec<PortId>,
    stats: &mut ExecStats,
) -> Result<(bool, u64), PipelineError> {
    let mut dropped = false;
    let mut hit_mask = 0u64;
    for (ti, t) in tables.iter().enumerate() {
        let ops: &[ActionOp] = match t.lookup(phv)? {
            Some(ops) => {
                stats.table_hits[ti] += 1;
                if ti < 64 {
                    hit_mask |= 1 << ti;
                }
                ops
            }
            None => {
                stats.table_misses[ti] += 1;
                &t.default_ops
            }
        };
        for &op in ops {
            match op {
                ActionOp::SetField(f, v) => phv.set(f, v),
                ActionOp::Forward(p) => ports.push(p),
                ActionOp::Multicast(g) => {
                    let members = mcast.ports(g).ok_or(PipelineError::UnknownGroup(g.0))?;
                    ports.extend_from_slice(members);
                }
                ActionOp::Drop => dropped = true,
                ActionOp::Register { slot, op } => {
                    let res = match op {
                        RegOp::Increment => registers.increment(slot, now_us),
                        RegOp::Observe(f) => registers.observe(slot, phv.get_or_zero(f), now_us),
                        RegOp::SetConst(v) => registers.set(slot, v, now_us),
                        RegOp::SetField(f) => registers.set(slot, phv.get_or_zero(f), now_us),
                    };
                    res.map_err(PipelineError::RegisterOutOfRange)?;
                }
            }
        }
    }
    Ok((dropped, hit_mask))
}

/// The per-packet hot path over split borrows: the immutable compiled
/// program (`layout` … `init_fields`) on one side, the mutable
/// per-shard execution state (`registers`, `exec`) on the other. Free
/// function so [`Pipeline::process`] (owning both) and
/// [`Pipeline::process_batch_shared`] (program behind an `Arc`, state
/// in a [`ShardCtx`]) run byte-identical code.
#[allow(clippy::too_many_arguments)]
fn process_packet(
    layout: &PhvLayout,
    parser: &ParserSpec,
    tables: &[Table],
    mcast: &MulticastTable,
    state_bindings: &[StateBinding],
    init_fields: &[(PhvField, u64)],
    registers: &mut RegisterFile,
    exec: &mut ExecState,
    packet: &[u8],
    now_us: u64,
    decision: &mut ForwardDecision,
) -> Result<(), PipelineError> {
    let ExecState {
        stats,
        msgs,
        work,
        hoist,
        hoist_vals,
        telemetry,
        cache,
    } = exec;

    // Sampled stage timing: `tick()` advances the per-shard packet
    // sequence and selects every `2^sample_shift`-th packet. Only
    // sampled packets pay the per-stage `Instant` reads; with
    // telemetry disabled this is a single `None` branch.
    let sampled = match telemetry.as_deref_mut() {
        Some(t) => t.tick(),
        None => false,
    };
    let t_start = if sampled { Some(Instant::now()) } else { None };

    msgs.clear();
    if let Err(e) = parser.parse_into(layout, packet, work, msgs) {
        // Parse-class failures are properties of the *packet*, not
        // the program: total behavior is a typed drop decision, so
        // one garbage frame can never abort a batch or wedge a
        // worker. Config-class errors still propagate.
        let Some(reason) = ParseDrop::classify(&e) else {
            return Err(e);
        };
        decision.messages = 0;
        decision.drop_reason = Some(reason);
        stats.packets += 1;
        stats.dropped_packets += 1;
        stats.count_parse_drop(reason);
        if let (Some(start), Some(t)) = (t_start, telemetry.as_deref_mut()) {
            t.record_parse_only(elapsed_ns(start));
        }
        return Ok(());
    }
    let t_parsed = t_start.map(|_| Instant::now());
    decision.messages = msgs.len();

    // Message-invariant aggregates: read once per packet. Register
    // reads are idempotent at a fixed `now_us` (the window roll is
    // aligned to the timestamp), so this is decision-identical to
    // re-reading per message as long as no table action writes the
    // slot — exactly the condition `hoist` encodes.
    hoist_vals.clear();
    for (b, &h) in state_bindings.iter().zip(hoist.iter()) {
        let v = if h {
            registers
                .read(b.slot, b.agg, now_us)
                .map_err(PipelineError::RegisterOutOfRange)?
        } else {
            0
        };
        hoist_vals.push(v);
    }

    for mi in 0..msgs.len() {
        let phv = msgs.get_mut(mi);
        for &(f, v) in init_fields.iter() {
            phv.set(f, v);
        }
        for (i, b) in state_bindings.iter().enumerate() {
            let v = if hoist[i] {
                hoist_vals[i]
            } else {
                registers
                    .read(b.slot, b.agg, now_us)
                    .map_err(PipelineError::RegisterOutOfRange)?
            };
            phv.set(b.dst, v);
        }
        let before = decision.ports.len();
        // An explicit drop() wins only if nothing forwards: per §2
        // all matching rules' actions execute, and forwarding to
        // *some* subscriber must not be vetoed by an unrelated drop
        // rule. A drop-only message simply contributes no ports.
        match cache.as_deref_mut() {
            Some(c) => {
                // The key is read before the chain runs: a mid-chain
                // `SetField` may overwrite the key field, but the
                // memoized decision is keyed on the *initial* value.
                let key = phv.get_or_zero(c.key_field());
                if let Some(mask) = c.lookup(key, &mut decision.ports) {
                    // Replay the per-table hit/miss counters so the
                    // cached path is counter-identical to evaluation.
                    for ti in 0..tables.len() {
                        if (mask >> ti) & 1 == 1 {
                            stats.table_hits[ti] += 1;
                        } else {
                            stats.table_misses[ti] += 1;
                        }
                    }
                } else {
                    let (_dropped, mask) = eval_tables(
                        tables,
                        mcast,
                        registers,
                        phv,
                        now_us,
                        &mut decision.ports,
                        stats,
                    )?;
                    c.insert(key, &decision.ports[before..], mask);
                }
            }
            None => {
                let _ = eval_tables(
                    tables,
                    mcast,
                    registers,
                    phv,
                    now_us,
                    &mut decision.ports,
                    stats,
                )?;
            }
        }
        if decision.ports.len() > before {
            decision.matched_messages += 1;
        }
    }
    let t_matched = t_start.map(|_| Instant::now());
    // One packet-level sort+dedup subsumes the per-message merge the
    // executor used to do (the union of per-message port sets is
    // insensitive to inner ordering/duplication).
    decision.ports.sort_unstable();
    decision.ports.dedup();
    if let (Some(start), Some(parsed), Some(matched), Some(t)) =
        (t_start, t_parsed, t_matched, telemetry.as_deref_mut())
    {
        // parse = wire bytes → message PHVs; match = hoisted register
        // reads + table evaluation over every message (including
        // multicast group expansion); mcast = the final port-set
        // union (sort + dedup) resolving replication.
        t.record_stages(
            ns_between(start, parsed),
            ns_between(parsed, matched),
            elapsed_ns(matched),
        );
    }

    stats.packets += 1;
    stats.messages += decision.messages as u64;
    stats.matched_messages += decision.matched_messages as u64;
    if decision.ports.is_empty() {
        stats.dropped_packets += 1;
    } else {
        stats.forwarded_packets += 1;
    }
    Ok(())
}

/// Per-worker mutable execution state for running a *shared* compiled
/// program: the register file (shard-local stateful memory) plus the
/// scratch/counter/telemetry/cache state. Engine workers hold one
/// `ShardCtx` and an `Arc<Pipeline>` instead of cloning the whole
/// program — tables and parser (the bulk of a compiled program) are
/// shared immutably across every worker.
#[derive(Debug, Clone, Default)]
pub struct ShardCtx {
    /// Shard-local register file (`@query_counter` state).
    pub registers: RegisterFile,
    /// Scratch buffers, counters, telemetry and decision cache.
    pub exec: ExecState,
}

impl ShardCtx {
    /// Re-targets this context at a newly published program generation
    /// (the RCU adoption path): registers are re-shaped to the new
    /// program's layout with windowed state carried over, the per-table
    /// counter vectors are resized, the hoisting plan is copied, and
    /// every memoized decision is invalidated — the generation bump is
    /// the cache's invalidation signal. Telemetry and cumulative
    /// counters (including cache hit/miss totals) survive adoption, and
    /// the cache's slot storage is reused, so adopting allocates only
    /// for the register clone.
    ///
    /// `program` must be prepared (the engine prepares before every
    /// publish).
    pub fn adopt(&mut self, program: &Pipeline) {
        let old = std::mem::replace(&mut self.registers, program.registers.clone());
        self.registers.carry_from(&old);
        let n = program.tables.len();
        self.exec.stats.table_hits.resize(n, 0);
        self.exec.stats.table_misses.resize(n, 0);
        self.exec.hoist.clear();
        self.exec.hoist.extend_from_slice(&program.exec.hoist);
        let keep = self
            .exec
            .cache
            .as_deref()
            .map(|c| program.cacheable_on(c.key_field()));
        match keep {
            Some(true) => {
                if let Some(c) = self.exec.cache.as_deref_mut() {
                    c.invalidate_all();
                }
            }
            // The new generation is not a pure function of the key
            // field any more (e.g. a stateful rule appeared): caching
            // it would be unsound, so the cache is dropped.
            Some(false) => self.exec.cache = None,
            None => {}
        }
    }
}

/// Nanoseconds since `start`, saturating at `u64::MAX`.
#[inline]
fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Nanoseconds from `start` to `end` (0 if the clock stepped back).
#[inline]
fn ns_between(start: Instant, end: Instant) -> u64 {
    u64::try_from(end.saturating_duration_since(start).as_nanos()).unwrap_or(u64::MAX)
}

impl Pipeline {
    /// Prepares the pipeline for (batched) execution: lowers every
    /// changed table to its prepared form ([`Table::prepare`]), sizes
    /// the per-table counters, and computes which state bindings can be
    /// hoisted out of the per-message loop (those whose register slot
    /// no table action writes). Idempotent and cheap when nothing
    /// changed; called automatically by the processing entry points.
    pub fn prepare(&mut self) {
        let up_to_date = self.tables.iter().all(|t| t.is_prepared())
            && self.exec.hoist.len() == self.state_bindings.len()
            && self.exec.stats.table_hits.len() == self.tables.len();
        if up_to_date {
            return;
        }
        for t in &mut self.tables {
            t.prepare();
        }
        let mut written: std::collections::HashSet<usize> = std::collections::HashSet::new();
        for t in &self.tables {
            for ops in t
                .entries()
                .map(|e| &e.ops)
                .chain(std::iter::once(&t.default_ops))
            {
                for op in ops {
                    if let ActionOp::Register { slot, .. } = op {
                        written.insert(*slot);
                    }
                }
            }
        }
        self.exec.hoist = self
            .state_bindings
            .iter()
            .map(|b| !written.contains(&b.slot))
            .collect();
        let n = self.tables.len();
        self.exec.stats.table_hits.resize(n, 0);
        self.exec.stats.table_misses.resize(n, 0);
        // Something changed (a table was mutated, or the chain was
        // re-shaped): memoized decisions are stale. Re-prove
        // cacheability against the new program — splices can introduce
        // ops that make the chain key-impure.
        let keep = self
            .exec
            .cache
            .as_deref()
            .map(|c| self.cacheable_on(c.key_field()));
        match keep {
            Some(true) => {
                if let Some(c) = self.exec.cache.as_deref_mut() {
                    c.invalidate_all();
                }
            }
            Some(false) => self.exec.cache = None,
            None => {}
        }
    }

    /// Whether the table chain's per-message decision is a pure
    /// function of `key_field`'s initial value — the soundness
    /// condition for the decision cache (see [`crate::cache`]):
    /// no register ops, at most 64 tables, no state binding feeding a
    /// table key (or the cache key itself — a binding's value comes
    /// from a register read, so a keyed binding makes the decision
    /// depend on traffic history, while an un-keyed one is
    /// decision-inert and safe to skip on a hit), and every table key
    /// field is either the cache key itself, message-invariant (an
    /// `init_fields` constant overwrites it before the chain), or
    /// never written by the parser (its pre-chain value is identical
    /// for every message).
    ///
    /// Note the spec-level `@query_*` declarations always compile to
    /// state bindings, even when no active rule consumes them — that
    /// is exactly the un-keyed-binding case, so pure fan-out programs
    /// stay cacheable.
    pub fn cacheable_on(&self, key_field: PhvField) -> bool {
        if self.tables.len() > 64 {
            return false;
        }
        for t in &self.tables {
            for ops in t
                .entries()
                .map(|e| &e.ops)
                .chain(std::iter::once(&t.default_ops))
            {
                if ops.iter().any(|op| matches!(op, ActionOp::Register { .. })) {
                    return false;
                }
            }
        }
        let binding_dsts: std::collections::HashSet<u32> =
            self.state_bindings.iter().map(|b| b.dst.0).collect();
        if binding_dsts.contains(&key_field.0) {
            // A binding overwrites the cache key between parse and
            // match: the key the cache indexed on is not the value the
            // tables saw.
            return false;
        }
        let extracted: std::collections::HashSet<u32> = self
            .parser
            .states
            .iter()
            .flat_map(|s| s.extracts.iter().map(|e| e.dst.0))
            .collect();
        let inits: std::collections::HashSet<u32> =
            self.init_fields.iter().map(|&(f, _)| f.0).collect();
        self.tables.iter().all(|t| {
            t.keys.iter().all(|k| {
                if binding_dsts.contains(&k.field.0) {
                    // Bindings run after init_fields, so a keyed
                    // binding is state-dependent no matter what.
                    return false;
                }
                k.field == key_field
                    || inits.contains(&k.field.0)
                    || !extracted.contains(&k.field.0)
            })
        })
    }

    /// Arms the decision cache keyed on `key_field` with `2^shift`
    /// slots — if the program is provably cacheable on that field
    /// (otherwise any existing cache is disarmed and `false` is
    /// returned; matching stays correct either way, just uncached).
    /// The slot storage allocates here, never on the packet path.
    pub fn enable_decision_cache(&mut self, key_field: PhvField, shift: u32) -> bool {
        self.prepare();
        if self.cacheable_on(key_field) {
            self.exec.cache = Some(Box::new(DecisionCache::new(key_field, shift)));
            true
        } else {
            self.exec.cache = None;
            false
        }
    }

    /// Builds a fresh per-worker execution context for running *this*
    /// program via [`Pipeline::process_batch_shared`]. The pipeline
    /// must be prepared (this method prepares it); the context clones
    /// the register file, the sized counter vectors, the hoisting plan
    /// and — when armed — an empty decision cache, so the first batch
    /// through the context already runs the allocation-free path.
    pub fn new_shard_ctx(&mut self) -> ShardCtx {
        self.prepare();
        ShardCtx {
            registers: self.registers.clone(),
            exec: self.exec.clone(),
        }
    }

    /// Processes a batch of `(packet, now_us)` pairs, appending one
    /// decision per packet to `out` (in order; the caller clears `out`).
    /// The compiled program is only read (`&self`, typically through an
    /// `Arc`) and all mutable state lives in `ctx`. Requires a prepared
    /// pipeline (`ctx` came from [`Pipeline::new_shard_ctx`], which
    /// prepares) — the engine prepares before every publish, so workers
    /// never observe an unprepared program. A table changed since the
    /// last prepare fails the packet with
    /// [`PipelineError::TableNotPrepared`].
    ///
    /// This is the allocation-free hot path: parsing reuses the
    /// context's PHV pool, lookups borrow table entries instead of
    /// cloning action lists, and `out` recycles its decisions' port
    /// vectors. After a warmup batch has sized every buffer,
    /// steady-state processing performs zero heap allocations per
    /// packet. Decisions are identical to calling [`Pipeline::process`]
    /// per packet.
    ///
    /// On error, decisions for the packets preceding the failing one
    /// remain in `out` (the failing packet's slot holds a partial
    /// decision).
    pub fn process_batch_shared<'a, I>(
        &self,
        ctx: &mut ShardCtx,
        packets: I,
        out: &mut DecisionBuf,
    ) -> Result<(), PipelineError>
    where
        I: IntoIterator<Item = (&'a [u8], u64)>,
    {
        // Whole-batch latency costs two clock reads per batch (amortized
        // over the batch's packets); per-stage timing is sampled inside
        // `process_packet`.
        let batch_start = ctx.exec.telemetry.as_ref().map(|_| Instant::now());
        for (bytes, now_us) in packets {
            let slot = out.next_slot();
            process_packet(
                &self.layout,
                &self.parser,
                &self.tables,
                &self.mcast,
                &self.state_bindings,
                &self.init_fields,
                &mut ctx.registers,
                &mut ctx.exec,
                bytes,
                now_us,
                slot,
            )?;
        }
        if let (Some(start), Some(t)) = (batch_start, ctx.exec.telemetry.as_deref_mut()) {
            t.record_batch(elapsed_ns(start));
        }
        Ok(())
    }

    /// Processes one packet arriving at `now_us`, returning its
    /// forwarding decision.
    pub fn process(
        &mut self,
        packet: &[u8],
        now_us: u64,
    ) -> Result<ForwardDecision, PipelineError> {
        self.prepare();
        let mut decision = ForwardDecision::default();
        process_packet(
            &self.layout,
            &self.parser,
            &self.tables,
            &self.mcast,
            &self.state_bindings,
            &self.init_fields,
            &mut self.registers,
            &mut self.exec,
            packet,
            now_us,
            &mut decision,
        )?;
        Ok(decision)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multicast::GroupId;
    use crate::parser::{Extract, ParseState, ParserSpec, StateId, Transition};
    use crate::phv::PhvLayout;
    use crate::table::{Entry, Key, MatchKind, MatchValue};

    /// A tiny program: parse one byte `sym`; table forwards sym==1 to
    /// port 1, sym==2 to multicast {2,3}; counts matches in a register.
    fn tiny_pipeline() -> Pipeline {
        let mut layout = PhvLayout::new();
        let sym = layout.add("sym", 8);
        let parser = ParserSpec::new(
            vec![ParseState {
                name: "start".into(),
                extracts: vec![Extract {
                    dst: sym,
                    bit_offset: 0,
                    bits: 8,
                }],
                advance_bits: 8,
                advance_bytes_from: None,
                emit: false,
                next: Transition::Accept,
            }],
            StateId(0),
        );
        let mut table = Table::new(
            "leaf",
            vec![Key {
                field: sym,
                kind: MatchKind::Exact,
                bits: 8,
            }],
            vec![],
        );
        table
            .add_entry(Entry {
                priority: 0,
                matches: vec![MatchValue::Exact(1)],
                ops: vec![
                    ActionOp::Forward(PortId(1)),
                    ActionOp::Register {
                        slot: 0,
                        op: RegOp::Increment,
                    },
                ],
            })
            .unwrap();
        table
            .add_entry(Entry {
                priority: 0,
                matches: vec![MatchValue::Exact(2)],
                ops: vec![ActionOp::Multicast(GroupId(0))],
            })
            .unwrap();
        let mut mcast = MulticastTable::new();
        assert_eq!(mcast.allocate(vec![PortId(2), PortId(3)]), GroupId(0));
        let mut registers = RegisterFile::new();
        registers.allocate(0);
        Pipeline {
            layout,
            parser,
            tables: vec![table],
            mcast,
            registers,
            state_bindings: vec![],
            init_fields: vec![],
            exec: ExecState::default(),
        }
    }

    #[test]
    fn unicast_and_multicast_forwarding() {
        let mut p = tiny_pipeline();
        let d = p.process(&[1], 0).unwrap();
        assert_eq!(d.ports, vec![PortId(1)]);
        assert_eq!((d.messages, d.matched_messages), (1, 1));
        let d = p.process(&[2], 0).unwrap();
        assert_eq!(d.ports, vec![PortId(2), PortId(3)]);
    }

    #[test]
    fn miss_means_drop() {
        let mut p = tiny_pipeline();
        let d = p.process(&[9], 0).unwrap();
        assert!(d.dropped());
        assert_eq!(d.matched_messages, 0);
    }

    #[test]
    fn register_side_effects_accumulate() {
        let mut p = tiny_pipeline();
        p.process(&[1], 0).unwrap();
        p.process(&[1], 1).unwrap();
        p.process(&[9], 2).unwrap();
        assert_eq!(p.registers.read(0, AggKind::Count, 3).unwrap(), 2);
    }

    #[test]
    fn unknown_group_is_an_error() {
        let mut p = tiny_pipeline();
        p.tables[0]
            .add_entry(Entry {
                priority: 0,
                matches: vec![MatchValue::Exact(7)],
                ops: vec![ActionOp::Multicast(GroupId(99))],
            })
            .unwrap();
        assert_eq!(
            p.process(&[7], 0).unwrap_err(),
            PipelineError::UnknownGroup(99)
        );
    }

    #[test]
    fn state_binding_materializes_aggregate() {
        let mut p = tiny_pipeline();
        let agg_field = p.layout.add("avg_x", 64);
        // New table matching on the aggregate pseudo-field.
        let mut t = Table::new(
            "state",
            vec![Key {
                field: agg_field,
                kind: MatchKind::Range,
                bits: 64,
            }],
            vec![],
        );
        t.add_entry(Entry {
            priority: 0,
            matches: vec![MatchValue::Range {
                lo: 2,
                hi: u64::MAX,
            }],
            ops: vec![ActionOp::Forward(PortId(9))],
        })
        .unwrap();
        p.tables.push(t);
        p.state_bindings.push(StateBinding {
            dst: agg_field,
            slot: 0,
            agg: AggKind::Count,
        });

        // First two packets: count 0 then 1 at evaluation time → no port 9.
        assert_eq!(p.process(&[1], 0).unwrap().ports, vec![PortId(1)]);
        assert_eq!(p.process(&[1], 1).unwrap().ports, vec![PortId(1)]);
        // Third packet: count reads 2 → port 9 too.
        assert_eq!(
            p.process(&[1], 2).unwrap().ports,
            vec![PortId(1), PortId(9)]
        );
    }

    #[test]
    fn multi_message_packets_union_ports() {
        let mut layout = PhvLayout::new();
        let sym = layout.add("sym", 8);
        let parser = ParserSpec::new(
            vec![ParseState {
                name: "msg".into(),
                extracts: vec![Extract {
                    dst: sym,
                    bit_offset: 0,
                    bits: 8,
                }],
                advance_bits: 8,
                advance_bytes_from: None,
                emit: true,
                next: Transition::SelectRemaining { more: StateId(0) },
            }],
            StateId(0),
        );
        let mut p = tiny_pipeline();
        p.parser = parser;
        p.layout = layout;
        let d = p.process(&[1, 2, 9], 0).unwrap();
        assert_eq!(d.ports, vec![PortId(1), PortId(2), PortId(3)]);
        assert_eq!(d.messages, 3);
        assert_eq!(d.matched_messages, 2);
    }

    #[test]
    fn truncated_packet_is_a_typed_drop_not_an_error() {
        let mut p = tiny_pipeline();
        let d = p.process(&[], 0).unwrap();
        assert!(d.dropped());
        assert!(d.malformed());
        assert_eq!(d.drop_reason, Some(ParseDrop::Underflow));
        assert_eq!(d.messages, 0);
        assert_eq!(p.exec.stats.packets, 1);
        assert_eq!(p.exec.stats.dropped_packets, 1);
        assert_eq!(p.exec.stats.drop_underflow, 1);
        assert_eq!(p.exec.stats.malformed_packets(), 1);
        // Counters reconcile: packets == forwarded + dropped.
        let s = &p.exec.stats;
        assert_eq!(s.packets, s.forwarded_packets + s.dropped_packets);
    }

    #[test]
    fn malformed_packet_does_not_poison_a_batch() {
        let mut p = tiny_pipeline();
        let mut ctx = p.new_shard_ctx();
        let packets: Vec<(&[u8], u64)> = vec![(&[1][..], 0), (&[][..], 1), (&[2][..], 2)];
        let mut out = DecisionBuf::default();
        p.process_batch_shared(&mut ctx, packets, &mut out).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out.as_slice()[0].ports, vec![PortId(1)]);
        assert_eq!(out.as_slice()[1].drop_reason, Some(ParseDrop::Underflow));
        assert_eq!(out.as_slice()[2].ports, vec![PortId(2), PortId(3)]);
        // A recycled slot must not leak a stale drop reason.
        out.clear();
        let packets: Vec<(&[u8], u64)> = vec![(&[1][..], 3), (&[1][..], 4), (&[1][..], 5)];
        p.process_batch_shared(&mut ctx, packets, &mut out).unwrap();
        assert!(out.iter().all(|d| d.drop_reason.is_none()));
    }

    #[test]
    fn telemetry_records_batches_stages_and_parse_drops() {
        let mut p = tiny_pipeline();
        let mut ctx = p.new_shard_ctx();
        ctx.exec.enable_telemetry(0); // sample every packet
        let packets: Vec<(&[u8], u64)> = vec![(&[1][..], 0), (&[][..], 1), (&[2][..], 2)];
        let mut out = DecisionBuf::default();
        p.process_batch_shared(&mut ctx, packets, &mut out).unwrap();
        let t = ctx.exec.telemetry().unwrap();
        assert_eq!(t.batches, 1);
        assert_eq!(t.sampled_packets, 3);
        assert_eq!(t.batch_ns.count(), 1);
        // All three packets parse (the empty one records parse-only).
        assert_eq!(t.parse_ns.count(), 3);
        assert_eq!(t.match_ns.count(), 2);
        assert_eq!(t.mcast_ns.count(), 2);
        // Decisions are unchanged by instrumentation.
        assert_eq!(out.as_slice()[0].ports, vec![PortId(1)]);
        assert_eq!(out.as_slice()[2].ports, vec![PortId(2), PortId(3)]);
        // take/set round-trips the record for RCU adoption.
        let boxed = ctx.exec.take_telemetry();
        assert!(ctx.exec.telemetry().is_none());
        ctx.exec.set_telemetry(boxed);
        assert_eq!(ctx.exec.telemetry().unwrap().sampled_packets, 3);
    }

    /// Like `tiny_pipeline` but with no register ops, so the chain is a
    /// pure function of `sym` and the decision cache can arm. Parses a
    /// stream of one-byte messages (multi-message packets).
    fn cacheable_pipeline() -> Pipeline {
        let mut p = tiny_pipeline();
        let mut layout = PhvLayout::new();
        let sym = layout.add("sym", 8);
        p.parser = ParserSpec::new(
            vec![ParseState {
                name: "msg".into(),
                extracts: vec![Extract {
                    dst: sym,
                    bit_offset: 0,
                    bits: 8,
                }],
                advance_bits: 8,
                advance_bytes_from: None,
                emit: true,
                next: Transition::SelectRemaining { more: StateId(0) },
            }],
            StateId(0),
        );
        p.layout = layout;
        // Drop the Register op from the sym==1 entry.
        let mut t = Table::new(
            "leaf",
            vec![Key {
                field: sym,
                kind: MatchKind::Exact,
                bits: 8,
            }],
            vec![],
        );
        t.add_entry(Entry {
            priority: 0,
            matches: vec![MatchValue::Exact(1)],
            ops: vec![ActionOp::Forward(PortId(1))],
        })
        .unwrap();
        t.add_entry(Entry {
            priority: 0,
            matches: vec![MatchValue::Exact(2)],
            ops: vec![ActionOp::Multicast(GroupId(0))],
        })
        .unwrap();
        p.tables = vec![t];
        p
    }

    #[test]
    fn uncacheable_program_refuses_cache() {
        // tiny_pipeline has a Register op: caching would skip a
        // side effect, so arming must fail and disarm.
        let mut p = tiny_pipeline();
        let sym = p.layout.get("sym").unwrap();
        assert!(!p.enable_decision_cache(sym, 4));
        assert!(p.exec.cache_stats().is_none());
        // Decisions still correct, just uncached.
        assert_eq!(p.process(&[1], 0).unwrap().ports, vec![PortId(1)]);
    }

    #[test]
    fn inert_binding_is_cacheable_keyed_binding_is_not() {
        // A state binding whose destination no table keys on is
        // decision-inert: the compiled spec always carries the
        // `@query_*` bindings, so pure fan-out programs must still
        // cache. The moment a table keys on the binding's destination,
        // the decision depends on register history and caching must be
        // refused.
        let mut p = cacheable_pipeline();
        let agg = p.layout.add("agg", 64);
        let slot = p.registers.allocate(0);
        p.state_bindings.push(StateBinding {
            dst: agg,
            slot,
            agg: AggKind::Count,
        });
        let sym = p.layout.get("sym").unwrap();
        assert!(p.cacheable_on(sym), "un-keyed binding must not block");
        assert!(p.enable_decision_cache(sym, 4));

        // Key a table on the binding's destination: refused.
        p.tables[0].keys.push(Key {
            field: agg,
            kind: MatchKind::Exact,
            bits: 64,
        });
        assert!(!p.cacheable_on(sym));

        // A binding that overwrites the cache key itself: refused.
        let mut q = cacheable_pipeline();
        let qslot = q.registers.allocate(0);
        let qsym = q.layout.get("sym").unwrap();
        q.state_bindings.push(StateBinding {
            dst: qsym,
            slot: qslot,
            agg: AggKind::Count,
        });
        assert!(!q.cacheable_on(qsym));
    }

    #[test]
    fn cached_decisions_and_counters_match_uncached() {
        let mut cached = cacheable_pipeline();
        let mut plain = cacheable_pipeline();
        let sym = cached.layout.get("sym").unwrap();
        assert!(cached.enable_decision_cache(sym, 4));

        let feed: Vec<Vec<u8>> = vec![
            vec![1, 2, 9],
            vec![2, 2, 1],
            vec![9],
            vec![1],
            vec![1, 1, 1, 2],
        ];
        for (i, pkt) in feed.iter().enumerate() {
            let a = cached.process(pkt, i as u64).unwrap();
            let b = plain.process(pkt, i as u64).unwrap();
            assert_eq!(a, b, "packet {i}");
        }
        assert_eq!(cached.exec.stats, plain.exec.stats);
        let cs = cached.exec.cache_stats().unwrap();
        assert!(cs.hits > 0, "repeated symbols must hit: {cs:?}");
        assert_eq!(cs.hits + cs.misses, cached.exec.stats.messages);
    }

    #[test]
    fn table_mutation_invalidates_cache() {
        let mut p = cacheable_pipeline();
        let sym = p.layout.get("sym").unwrap();
        assert!(p.enable_decision_cache(sym, 4));
        // sym==9 misses: the cache memoizes the empty decision.
        assert!(p.process(&[9], 0).unwrap().dropped());
        assert!(p.process(&[9], 1).unwrap().dropped());
        assert_eq!(p.exec.cache_stats().unwrap().hits, 1);
        // Mutate the table: sym==9 now forwards to port 7. The
        // dirty-table prepare() must invalidate the memoized miss.
        p.tables[0]
            .add_entry(Entry {
                priority: 0,
                matches: vec![MatchValue::Exact(9)],
                ops: vec![ActionOp::Forward(PortId(7))],
            })
            .unwrap();
        assert_eq!(p.process(&[9], 2).unwrap().ports, vec![PortId(7)]);
    }

    #[test]
    fn shared_batch_path_matches_sequential_process() {
        let mut owned = cacheable_pipeline();
        let mut shared = cacheable_pipeline();
        let sym = shared.layout.get("sym").unwrap();
        assert!(shared.enable_decision_cache(sym, 4));
        let mut ctx = shared.new_shard_ctx();

        let packets: Vec<(&[u8], u64)> = vec![
            (&[1, 2][..], 0),
            (&[][..], 1),
            (&[2, 9][..], 2),
            (&[1][..], 3),
        ];
        let sequential: Vec<ForwardDecision> = packets
            .iter()
            .map(|&(p, t)| owned.process(p, t).unwrap())
            .collect();
        let mut out = DecisionBuf::default();
        shared
            .process_batch_shared(&mut ctx, packets, &mut out)
            .unwrap();
        assert_eq!(sequential.as_slice(), out.as_slice());
        assert_eq!(owned.exec.stats, ctx.exec.stats);
        // The pipeline's own exec state is untouched by the shared path.
        assert_eq!(shared.exec.stats.packets, 0);
    }

    #[test]
    fn adopt_invalidates_cache_and_resizes_counters() {
        let mut v1 = cacheable_pipeline();
        let sym = v1.layout.get("sym").unwrap();
        assert!(v1.enable_decision_cache(sym, 4));
        let mut ctx = v1.new_shard_ctx();
        let mut out = DecisionBuf::default();
        v1.prepare();
        v1.process_batch_shared(&mut ctx, vec![(&[1][..], 0), (&[1][..], 1)], &mut out)
            .unwrap();
        assert_eq!(ctx.exec.cache_stats().unwrap().hits, 1);

        // New generation: sym==1 rerouted to port 5, and an extra table.
        let mut v2 = cacheable_pipeline();
        let sym2 = v2.layout.get("sym").unwrap();
        let mut extra = Table::new(
            "extra",
            vec![Key {
                field: sym2,
                kind: MatchKind::Exact,
                bits: 8,
            }],
            vec![],
        );
        extra
            .add_entry(Entry {
                priority: 0,
                matches: vec![MatchValue::Exact(1)],
                ops: vec![ActionOp::Forward(PortId(5))],
            })
            .unwrap();
        v2.tables.push(extra);
        v2.prepare();
        ctx.adopt(&v2);

        out.clear();
        v2.process_batch_shared(&mut ctx, vec![(&[1][..], 2)], &mut out)
            .unwrap();
        assert_eq!(out.as_slice()[0].ports, vec![PortId(1), PortId(5)]);
        // Counters survived adoption; the memoized v1 decision did not.
        let cs = ctx.exec.cache_stats().unwrap();
        assert_eq!((cs.hits, cs.misses), (1, 2));
        assert_eq!(ctx.exec.stats.table_hits.len(), 2);
    }

    #[test]
    fn drop_does_not_veto_forwarding() {
        let mut p = tiny_pipeline();
        p.tables[0]
            .add_entry(Entry {
                priority: 0,
                matches: vec![MatchValue::Exact(1)],
                ops: vec![ActionOp::Drop],
            })
            .unwrap();
        // The first entry (insertion order) still forwards to port 1;
        // even if a drop rule also matched a different message, ports win.
        let d = p.process(&[1], 0).unwrap();
        assert_eq!(d.ports, vec![PortId(1)]);
    }
}
