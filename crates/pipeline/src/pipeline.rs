//! The pipeline executor: parse → match-action stages → forward.
//!
//! A [`Pipeline`] bundles everything the Camus compiler emits for one
//! application: the PHV layout, the parser program, the ordered table
//! chain, the multicast groups and the register file. Its one executor,
//! [`Pipeline::process_batch_shared`], decides each packet as the union,
//! over all application messages in the packet, of each message's
//! matched ports (§2: the switch executes the actions of all matching
//! rules). It runs a batch as a *wave*, the way an RMT pipeline keeps
//! every stage busy with a different packet:
//!
//! 1. **parse** every packet of the batch into one pool of message
//!    PHVs — with the decision cache armed, probing it per message: a
//!    hit replays its stored ports and per-table hit/miss mask into the
//!    packet's decision and never enters the pool;
//! 2. **chain**: apply table 0 to every pooled message, then table 1 to
//!    every message, and so on, so one table's lookups for many
//!    messages are in flight together — each message into its own
//!    record (its ports and hit mask);
//! 3. **union**: fill the cache from each pooled message's record in
//!    arrival order, append the records' ports to their packets'
//!    decisions, and form each packet's port union and count the packet.
//!
//! Where message order is observable — some table action writes a
//! register — phase 2 runs message by message in arrival order, so
//! register state is exactly that of deciding one packet after
//! another. That is the only reason it does: the cache's hit, miss and
//! eviction counts equal a one-message-at-a-time cache's in either
//! mode (see [`crate::cache`]). [`Pipeline::process`] is a batch of
//! one.

use std::fmt;
use std::time::Instant;

use camus_telemetry::{DataPlaneTelemetry, HotPathStats};

use crate::cache::DecisionCache;
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
    /// [`Pipeline::tables`](Pipeline#structfield.tables).
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

/// One pooled message's record: its packet, the cache key it was
/// probed with (0 when no cache is armed) and, once the chain ran, its
/// own outcome — the ports it appended and its table hit mask (bit `i`
/// set ⇔ table `i` hit; tables from 64 on are not recorded — the
/// decision cache, the only mask consumer, refuses such chains).
#[derive(Debug, Clone, Default)]
struct Pooled {
    /// The batch index of its packet.
    packet: u32,
    /// Its packet's arrival time.
    now: u64,
    /// The cache key it was probed with.
    key: u64,
    /// The ports it appended.
    ports: Vec<PortId>,
    /// Its table hit mask.
    hit_mask: u64,
}

/// Reusable per-pipeline execution state: the wave's scratch buffers
/// for the allocation-free hot path, counters, and the prepared
/// message-by-message rule. Cloned with the pipeline (each engine
/// worker gets its own).
#[derive(Debug, Clone, Default)]
pub struct ExecState {
    /// Execution counters.
    pub stats: ExecStats,
    /// Decision-cache outcomes (and, once the engine harvests the
    /// worker, its ring waits). Kept beside the cache, not in it, so
    /// they survive every cache the context drops or replaces.
    pub hotpath: HotPathStats,
    /// The batch's messages the chain evaluates — every parsed message
    /// but those the cache replayed — in arrival order (reused across
    /// batches).
    msgs: PhvBuf,
    /// Per pooled message, its record (storage kept across batches, so
    /// it may be longer than the pool).
    pooled: Vec<Pooled>,
    /// The parser's working PHV.
    work: Phv,
    /// Whether some table action writes a register, making message
    /// order observable: the chain then runs message by message.
    /// Derived by [`Pipeline::prepare`], copied by [`ShardCtx::adopt`].
    serial: bool,
    /// Optional per-shard telemetry (counters + latency histograms).
    /// Boxed so the disabled case costs one pointer; `None` (the
    /// default) keeps the hot path free of clock reads entirely.
    telemetry: Option<Box<DataPlaneTelemetry>>,
    /// Optional per-shard decision cache (see [`crate::cache`]). Boxed
    /// for the same reason as `telemetry`; only ever `Some` after
    /// [`Pipeline::enable_decision_cache`] proved the program
    /// cacheable on the key field, or mirrored from such a program by
    /// [`ShardCtx::adopt`].
    cache: Option<Box<DecisionCache>>,
}

impl ExecState {
    /// Enables telemetry: batch latency plus one per-packet stage
    /// sample per batch. The one `Box` allocation happens here, not on
    /// the packet path.
    pub fn enable_telemetry(&mut self) {
        self.telemetry = Some(Box::new(DataPlaneTelemetry::new()));
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
    /// Scratch buffers, counters and the prepared message-by-message
    /// rule.
    pub exec: ExecState,
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
    /// counter vectors are resized, the message-by-message rule is
    /// copied, and the decision cache follows the program's own:
    /// emptied in place when both are armed on the same key (the
    /// generation bump is the cache's invalidation signal), an empty
    /// copy of the program's when only the program is armed, dropped
    /// when the program is not.
    /// Telemetry and cumulative counters (the hot-path record included)
    /// survive adoption, and a kept cache's slot storage is reused, so
    /// adopting a program armed like the last allocates only for the
    /// register clone.
    ///
    /// `program` must be prepared (the engine prepares before every
    /// publish).
    pub fn adopt(&mut self, program: &Pipeline) {
        let old = std::mem::replace(&mut self.registers, program.registers.clone());
        self.registers.carry_from(&old);
        let n = program.tables.len();
        self.exec.stats.table_hits.resize(n, 0);
        self.exec.stats.table_misses.resize(n, 0);
        self.exec.serial = program.exec.serial;
        let kept = self.exec.cache.take();
        self.exec.cache = program.exec.cache.as_deref().map(|armed| {
            let mut c = kept
                .filter(|c| c.key_field() == armed.key_field() && c.len() == armed.len())
                .unwrap_or_else(|| Box::new(armed.clone()));
            c.invalidate_all();
            c
        });
    }
}

/// Nanoseconds from `start` to `end` (0 if the clock stepped back).
#[inline]
fn ns_between(start: Instant, end: Instant) -> u64 {
    u64::try_from(end.saturating_duration_since(start).as_nanos()).unwrap_or(u64::MAX)
}

impl Pipeline {
    /// Prepares the pipeline for execution: lowers every changed table
    /// to its prepared form ([`Table::prepare`]), sizes the per-table
    /// counters, and derives the message-by-message rule (some table
    /// action writes a register). Idempotent and cheap when nothing
    /// changed; called automatically by [`Pipeline::process`].
    pub fn prepare(&mut self) {
        let up_to_date = self.tables.iter().all(Table::is_prepared)
            && self.exec.stats.table_hits.len() == self.tables.len();
        if up_to_date {
            return;
        }
        for t in &mut self.tables {
            t.prepare();
        }
        self.exec.serial = self.tables.iter().any(Table::writes_registers);
        let n = self.tables.len();
        self.exec.stats.table_hits.resize(n, 0);
        self.exec.stats.table_misses.resize(n, 0);
        // Something changed (a table was mutated, or the chain was
        // re-shaped): memoized decisions are stale, and the whole cache
        // goes when the program is no longer a pure function of the key
        // field (e.g. an added entry writes a register).
        if let Some(mut c) = self.exec.cache.take() {
            if self.cacheable_on(c.key_field()) {
                c.invalidate_all();
                self.exec.cache = Some(c);
            }
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
        if self.tables.len() > 64 || self.tables.iter().any(Table::writes_registers) {
            return false;
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
            t.keys().iter().all(|k| {
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
    /// the register file, the sized counter vectors, the
    /// message-by-message rule and — when armed — an empty decision
    /// cache, so the first batch through the context already runs the
    /// allocation-free path.
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
    /// last prepare fails the batch with
    /// [`PipelineError::TableNotPrepared`].
    ///
    /// The batch runs as one wave (module docs). Decisions, counters,
    /// register state and cache counters equal those of deciding the
    /// packets one batch of one at a time. It is the allocation-free hot
    /// path: after a warmup batch has sized the context's message pool,
    /// its outcome slots and `out`'s port vectors, it performs zero
    /// heap allocations.
    ///
    /// On a config-class error (`TableNotPrepared`, `UnknownGroup`,
    /// `RegisterOutOfRange`), `out` ends at the failing packet's slot,
    /// so the last decision claimed names the packet the wave failed
    /// on. Every slot of the batch may then hold a partial decision,
    /// and the batch's packets are not counted.
    pub fn process_batch_shared<'a, I>(
        &self,
        ctx: &mut ShardCtx,
        packets: I,
        out: &mut DecisionBuf,
    ) -> Result<(), PipelineError>
    where
        I: IntoIterator<Item = (&'a [u8], u64)>,
    {
        let ShardCtx { registers, exec } = ctx;
        // Four clock reads per batch, one stage sample of per-packet
        // phase means: a wave has no per-packet match time.
        let t_start = exec.telemetry.as_ref().map(|_| Instant::now());
        let base = out.len();
        self.parse_wave(registers, exec, packets, out)?;
        let t_parsed = t_start.map(|_| Instant::now());
        if let Err((packet, e)) = self.chain_wave(registers, exec) {
            out.len = base + packet + 1;
            return Err(e);
        }
        let batch = &mut out.slots[base..out.len];
        let t_matched = t_start.map(|_| Instant::now());
        union_wave(exec, batch);
        if let (Some(start), Some(parsed), Some(matched), Some(t)) =
            (t_start, t_parsed, t_matched, exec.telemetry.as_deref_mut())
        {
            let end = Instant::now();
            if let Some(n) = std::num::NonZeroU64::new(batch.len() as u64) {
                let (parse, chain) = (ns_between(start, parsed), ns_between(parsed, matched));
                t.record_stages(parse / n, chain / n, ns_between(matched, end) / n);
            }
            t.record_batch(ns_between(start, end));
        }
        Ok(())
    }

    /// Phase 1: parses every packet, claiming its decision slot, and
    /// pools its messages. A parse-class failure is the packet's typed
    /// drop decision, never an `Err`: one garbage frame cannot abort a
    /// batch or wedge a worker. `init_fields` are written into every
    /// message; unless the chain runs message by message, so are the
    /// state bindings, read once per packet — no table writes a
    /// register then, and reads are idempotent at a fixed `now_us` (the
    /// window roll is aligned to the timestamp). With the cache armed,
    /// each message then probes it: a hit replays its ports into the
    /// decision and its hit mask into the table counters and leaves the
    /// pool; the rest are pooled, each with a fresh record.
    fn parse_wave<'a, I>(
        &self,
        registers: &mut RegisterFile,
        exec: &mut ExecState,
        packets: I,
        out: &mut DecisionBuf,
    ) -> Result<(), PipelineError>
    where
        I: IntoIterator<Item = (&'a [u8], u64)>,
    {
        let ExecState {
            stats,
            hotpath,
            msgs,
            pooled,
            work,
            serial,
            cache,
            ..
        } = exec;
        msgs.clear();
        // A batch stays far below 2^32 packets.
        for (packet, (bytes, now_us)) in (0u32..).zip(packets) {
            let decision = out.next_slot();
            let first = msgs.len();
            if let Err(e) = self.parser.parse_into(&self.layout, bytes, work, msgs) {
                decision.drop_reason = Some(ParseDrop::classify(&e).ok_or(e)?);
                msgs.truncate(first);
                continue;
            }
            decision.messages = msgs.len() - first;
            let fresh = &mut msgs.as_mut_slice()[first..];
            for phv in fresh.iter_mut() {
                for &(f, v) in &self.init_fields {
                    phv.set(f, v);
                }
            }
            if !*serial {
                for b in &self.state_bindings {
                    let v = registers
                        .read(b.slot, b.agg, now_us)
                        .map_err(PipelineError::RegisterOutOfRange)?;
                    for phv in fresh.iter_mut() {
                        phv.set(b.dst, v);
                    }
                }
            }
            let mut kept = 0;
            for mi in 0..fresh.len() {
                // The key is read before the chain runs: a mid-chain
                // `SetField` may overwrite the key field, but a decision
                // is keyed on its *initial* value.
                let before = decision.ports.len();
                let (key, replayed) = match cache.as_deref_mut() {
                    Some(c) => {
                        let key = fresh[mi].get_or_zero(c.key_field());
                        (key, c.probe(key, &mut decision.ports, hotpath))
                    }
                    None => (0, None),
                };
                if let Some(mask) = replayed {
                    // Replay the per-table hit/miss counters too, so a
                    // hit is counter-identical to evaluation.
                    let counters = stats.table_hits.iter_mut().zip(&mut stats.table_misses);
                    for (ti, (hits, misses)) in counters.enumerate() {
                        *if (mask >> ti) & 1 == 1 { hits } else { misses } += 1;
                    }
                    decision.matched_messages += usize::from(decision.ports.len() > before);
                    continue;
                }
                fresh.swap(mi, kept);
                if pooled.len() == first + kept {
                    pooled.push(Pooled::default());
                }
                let p = &mut pooled[first + kept];
                (p.packet, p.now, p.key, p.hit_mask) = (packet, now_us, key, 0);
                p.ports.clear();
                kept += 1;
            }
            msgs.truncate(first + kept);
        }
        Ok(())
    }

    /// Phase 2: the table chain over every pooled message, each into its
    /// own record — as one wave, or message by message when some
    /// table writes a register (bindings, then the chain, exactly as
    /// deciding each message alone). `Err` names the batch index of the
    /// packet the wave failed on.
    fn chain_wave(
        &self,
        registers: &mut RegisterFile,
        exec: &mut ExecState,
    ) -> Result<(), (usize, PipelineError)> {
        let ExecState {
            stats,
            msgs,
            pooled,
            serial,
            ..
        } = exec;
        let msgs = msgs.as_mut_slice();
        let pooled = &mut pooled[..msgs.len()];
        if !*serial {
            return self.tables(registers, stats, msgs, pooled);
        }
        for mi in 0..msgs.len() {
            let (packet, now_us) = (pooled[mi].packet as usize, pooled[mi].now);
            for b in &self.state_bindings {
                let v = registers
                    .read(b.slot, b.agg, now_us)
                    .map_err(|s| (packet, PipelineError::RegisterOutOfRange(s)))?;
                msgs[mi].set(b.dst, v);
            }
            self.tables(registers, stats, &mut msgs[mi..=mi], &mut pooled[mi..=mi])?;
        }
        Ok(())
    }

    /// Applies table 0 to every message of `msgs`, then table 1, and so
    /// on, each message's ports and hits into its own record, with each
    /// table's prepared index fetched once and its hit/miss counters
    /// added once.
    fn tables(
        &self,
        registers: &mut RegisterFile,
        stats: &mut ExecStats,
        msgs: &mut [Phv],
        pooled: &mut [Pooled],
    ) -> Result<(), (usize, PipelineError)> {
        let Some(first) = pooled.first().map(|p| p.packet as usize) else {
            return Ok(());
        };
        for (ti, t) in self.tables.iter().enumerate() {
            let index = t.index().map_err(|e| (first, e))?;
            let bit = if ti < 64 { 1 << ti } else { 0 };
            let mut hits = 0u64;
            for (phv, p) in msgs.iter_mut().zip(pooled.iter_mut()) {
                let hit = index.lookup(phv);
                hits += u64::from(hit.is_some());
                p.hit_mask |= if hit.is_some() { bit } else { 0 };
                let ops = hit.unwrap_or(&t.default_ops);
                self.apply(ops, registers, phv, p.now, &mut p.ports)
                    .map_err(|e| (p.packet as usize, e))?;
            }
            stats.table_hits[ti] += hits;
            stats.table_misses[ti] += msgs.len() as u64 - hits;
        }
        Ok(())
    }

    /// Runs one table's winning (or default) actions on a message.
    #[inline]
    fn apply(
        &self,
        ops: &[ActionOp],
        registers: &mut RegisterFile,
        phv: &mut Phv,
        now_us: u64,
        ports: &mut Vec<PortId>,
    ) -> Result<(), PipelineError> {
        for &op in ops {
            match op {
                ActionOp::SetField(f, v) => phv.set(f, v),
                ActionOp::Forward(p) => ports.push(p),
                ActionOp::Multicast(g) => {
                    let members = self
                        .mcast
                        .ports(g)
                        .ok_or(PipelineError::UnknownGroup(g.0))?;
                    ports.extend_from_slice(members);
                }
                // An explicit drop() wins only if nothing forwards: per
                // §2 all matching rules' actions execute, and forwarding
                // to *some* subscriber must not be vetoed by an
                // unrelated drop rule. A drop-only message simply
                // contributes no ports.
                ActionOp::Drop => {}
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
        Ok(())
    }

    /// Processes one packet arriving at `now_us`, returning its
    /// forwarding decision: a batch of one through
    /// [`Pipeline::process_batch_shared`], on the pipeline's own
    /// registers and [`ExecState`].
    pub fn process(
        &mut self,
        packet: &[u8],
        now_us: u64,
    ) -> Result<ForwardDecision, PipelineError> {
        self.prepare();
        let mut ctx = ShardCtx {
            registers: std::mem::take(&mut self.registers),
            exec: std::mem::take(&mut self.exec),
        };
        let mut out = DecisionBuf::default();
        let result = self.process_batch_shared(&mut ctx, [(packet, now_us)], &mut out);
        self.registers = ctx.registers;
        self.exec = ctx.exec;
        result?;
        Ok(out.slots.pop().unwrap_or_default())
    }
}

/// Phase 3: fills the cache from each pooled message's record in
/// arrival order, appends its ports to its packet's decision
/// (counting the message when it added a port), then forms each
/// packet's port union and counts the packet.
fn union_wave(exec: &mut ExecState, batch: &mut [ForwardDecision]) {
    let ExecState {
        stats,
        msgs,
        pooled,
        cache,
        ..
    } = exec;
    for p in &pooled[..msgs.len()] {
        if let Some(c) = cache.as_deref_mut() {
            c.fill(p.key, &p.ports, p.hit_mask);
        }
        let d = &mut batch[p.packet as usize];
        d.matched_messages += usize::from(!p.ports.is_empty());
        d.ports.extend_from_slice(&p.ports);
    }
    for d in batch {
        stats.packets += 1;
        if let Some(reason) = d.drop_reason {
            stats.dropped_packets += 1;
            stats.count_parse_drop(reason);
            continue;
        }
        // One sort + dedup per packet is the union of its messages'
        // port sets. A multicast group's ports are sorted and unique
        // already, so the common one-group packet skips it.
        if !d.ports.windows(2).all(|w| w[0] < w[1]) {
            d.ports.sort_unstable();
            d.ports.dedup();
        }
        stats.messages += d.messages as u64;
        stats.matched_messages += d.matched_messages as u64;
        if d.ports.is_empty() {
            stats.dropped_packets += 1;
        } else {
            stats.forwarded_packets += 1;
        }
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
        )
        .unwrap();
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
        )
        .unwrap();
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
        ctx.exec.enable_telemetry();
        let packets: Vec<(&[u8], u64)> = vec![(&[1][..], 0), (&[][..], 1), (&[2][..], 2)];
        let mut out = DecisionBuf::default();
        p.process_batch_shared(&mut ctx, packets, &mut out).unwrap();
        let t = ctx.exec.telemetry().unwrap();
        // One batch: one batch latency and one stage sample, the
        // per-packet means of its three phases (the parse drop counts
        // in the parse phase and in the mean's denominator).
        assert_eq!(t.batches, 1);
        assert_eq!(t.sampled_packets, 1);
        assert_eq!(t.batch_ns.count(), 1);
        assert_eq!(t.parse_ns.count(), 1);
        assert_eq!(t.match_ns.count(), 1);
        assert_eq!(t.mcast_ns.count(), 1);
        // An empty batch is timed but adds no stage sample.
        out.clear();
        p.process_batch_shared(&mut ctx, Vec::new(), &mut out)
            .unwrap();
        let t = ctx.exec.telemetry().unwrap();
        assert_eq!((t.batches, t.sampled_packets), (2, 1));
        // Decisions are unchanged by instrumentation.
        out.clear();
        let packets: Vec<(&[u8], u64)> = vec![(&[1][..], 3), (&[2][..], 4)];
        p.process_batch_shared(&mut ctx, packets, &mut out).unwrap();
        assert_eq!(out.as_slice()[0].ports, vec![PortId(1)]);
        assert_eq!(out.as_slice()[1].ports, vec![PortId(2), PortId(3)]);
        // take/set round-trips the record for RCU adoption.
        let boxed = ctx.exec.take_telemetry();
        assert!(ctx.exec.telemetry().is_none());
        ctx.exec.set_telemetry(boxed);
        assert_eq!(ctx.exec.telemetry().unwrap().sampled_packets, 2);
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
        )
        .unwrap();
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
        // Decisions still correct, just uncached: no cache lookup ran.
        assert_eq!(p.process(&[1], 0).unwrap().ports, vec![PortId(1)]);
        assert_eq!(p.process(&[1], 1).unwrap().ports, vec![PortId(1)]);
        assert_eq!(
            (p.exec.hotpath.cache_hits, p.exec.hotpath.cache_misses),
            (0, 0)
        );
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
        let keyed = |field| Key {
            field,
            kind: MatchKind::Exact,
            bits: 64,
        };
        p.tables[0] = Table::new("leaf", vec![keyed(sym), keyed(agg)], vec![]).unwrap();
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
        let cs = cached.exec.hotpath;
        assert!(cs.cache_hits > 0, "repeated symbols must hit: {cs:?}");
        assert_eq!(cs.cache_hits + cs.cache_misses, cached.exec.stats.messages);
    }

    #[test]
    fn a_failed_batch_leaves_no_decision_to_replay() {
        // Key 7 multicasts to a group that does not exist, so its batch
        // fails after its probe claimed the slot and before any fill:
        // the retry must fail the same way, not replay an empty
        // decision from the claimed slot.
        let mut p = cacheable_pipeline();
        p.tables[0]
            .add_entry(Entry {
                priority: 0,
                matches: vec![MatchValue::Exact(7)],
                ops: vec![ActionOp::Multicast(GroupId(99))],
            })
            .unwrap();
        let sym = p.layout.get("sym").unwrap();
        assert!(p.enable_decision_cache(sym, 4));
        for now_us in 0..2 {
            assert_eq!(
                p.process(&[7], now_us),
                Err(PipelineError::UnknownGroup(99))
            );
        }
    }

    #[test]
    fn table_mutation_invalidates_cache() {
        let mut p = cacheable_pipeline();
        let sym = p.layout.get("sym").unwrap();
        assert!(p.enable_decision_cache(sym, 4));
        // sym==9 misses: the cache memoizes the empty decision.
        assert!(p.process(&[9], 0).unwrap().dropped());
        assert!(p.process(&[9], 1).unwrap().dropped());
        assert_eq!(p.exec.hotpath.cache_hits, 1);
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

    /// Runs `packets` as one batch; the error, if any, and the
    /// decisions left in `out`.
    fn run_batch(
        p: &mut Pipeline,
        packets: &[&[u8]],
    ) -> (Result<(), PipelineError>, Vec<ForwardDecision>) {
        let mut ctx = p.new_shard_ctx();
        let mut out = DecisionBuf::default();
        let batch = packets.iter().enumerate().map(|(i, b)| (*b, i as u64));
        let r = p.process_batch_shared(&mut ctx, batch, &mut out);
        (r, out.as_slice().to_vec())
    }

    #[test]
    fn config_error_ends_the_batch_at_the_failing_packet() {
        // `tiny_pipeline` writes a register (message by message);
        // `cacheable_pipeline` runs the whole-batch wave. In both, the
        // third packet hits an unallocated group: `out` ends at its slot.
        for serial in [true, false] {
            let mut p = if serial {
                tiny_pipeline()
            } else {
                cacheable_pipeline()
            };
            p.tables[0]
                .add_entry(Entry {
                    priority: 0,
                    matches: vec![MatchValue::Exact(7)],
                    ops: vec![ActionOp::Multicast(GroupId(99))],
                })
                .unwrap();
            let (r, out) = run_batch(&mut p, &[&[1], &[], &[7], &[2]]);
            assert_eq!(r, Err(PipelineError::UnknownGroup(99)), "serial={serial}");
            assert_eq!(out.len(), 3, "serial={serial}");
            assert_eq!(out[1].drop_reason, Some(ParseDrop::Underflow));
        }
        // An unprepared table fails at the first packet with a message;
        // a batch of parse drops never looks a table up.
        let mut p = cacheable_pipeline();
        let mut ctx = p.new_shard_ctx();
        // A row no packet of the batch hits.
        p.tables[0]
            .add_entry(Entry {
                priority: 0,
                matches: vec![MatchValue::Exact(200)],
                ops: vec![ActionOp::Drop],
            })
            .unwrap();
        let mut out = DecisionBuf::default();
        let batch: Vec<(&[u8], u64)> = vec![(&[][..], 0), (&[1][..], 1), (&[2][..], 2)];
        assert!(matches!(
            p.process_batch_shared(&mut ctx, batch, &mut out),
            Err(PipelineError::TableNotPrepared { .. })
        ));
        assert_eq!(out.len(), 2);
        out.clear();
        p.process_batch_shared(&mut ctx, vec![(&[][..], 3)], &mut out)
            .unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn whole_batch_wave_equals_batches_of_one() {
        // No register op and no cache: one table-major wave over every
        // message of the batch, against the same packets one at a time.
        let packets: Vec<&[u8]> = vec![&[1, 2], &[], &[2, 9, 1], &[9], &[2], &[1, 1]];
        let mut wave = cacheable_pipeline();
        let (r, got) = run_batch(&mut wave, &packets);
        r.unwrap();
        let mut one = cacheable_pipeline();
        let want: Vec<ForwardDecision> = packets
            .iter()
            .enumerate()
            .map(|(i, b)| one.process(b, i as u64).unwrap())
            .collect();
        assert_eq!(got, want);
        assert_eq!(got[2].ports, vec![PortId(1), PortId(2), PortId(3)]);
        assert_eq!((got[2].messages, got[2].matched_messages), (3, 2));
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
        assert_eq!(ctx.exec.hotpath.cache_hits, 1);

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
        )
        .unwrap();
        extra
            .add_entry(Entry {
                priority: 0,
                matches: vec![MatchValue::Exact(1)],
                ops: vec![ActionOp::Forward(PortId(5))],
            })
            .unwrap();
        v2.tables.push(extra);
        // Armed like every program the engine installs.
        assert!(v2.enable_decision_cache(sym2, 4));
        ctx.adopt(&v2);

        out.clear();
        v2.process_batch_shared(&mut ctx, vec![(&[1][..], 2)], &mut out)
            .unwrap();
        assert_eq!(out.as_slice()[0].ports, vec![PortId(1), PortId(5)]);
        // Counters survived adoption; the memoized v1 decision did not.
        let cs = ctx.exec.hotpath;
        assert_eq!((cs.cache_hits, cs.cache_misses), (1, 2));
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
