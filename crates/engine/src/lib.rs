//! # camus-engine — a multi-core sharded forwarding engine
//!
//! Wraps the [`Pipeline`] executor with N
//! worker threads (std-only: `std::thread` plus lock-free
//! bounded [SPSC rings](ring)), and shards packets RSS-style on a flow
//! key — by default the ITCH stock symbol
//! ([`shard::itch_symbol_shard`]).
//!
//! The engine's forwarding decisions are **bit-identical** to deciding
//! the same trace one packet at a time — a batch of one through the
//! same executor, which is what
//! [`Pipeline::process`](camus_pipeline::Pipeline::process) runs — for
//! every stateless program, and for a stateful one only when every
//! register is written and read under one symbol and each packet
//! carries one symbol: each worker owns its registers, and symbol
//! sharding then keeps each register's updates on one worker (the
//! determinism test checks single-symbol packets). Otherwise it does
//! not hold: a counter that one symbol's rule writes and another's
//! reads, or an increment inside a packet routed by a different
//! symbol's add-order, splits the register across workers; ROADMAP
//! item 1 reproduces both shapes. Workers share one
//! immutable compiled program behind an `Arc` and keep their mutable
//! state (registers, counters, decision cache) in a per-worker
//! [`ShardCtx`]; each processes its packets
//! in submission order through
//! [`Pipeline::process_batch_shared`](camus_pipeline::Pipeline::process_batch_shared),
//! the allocation-free batch hot path. Batches and their byte arenas
//! are recycled through a return ring, so the steady state allocates
//! nothing per packet on either side of the queue, and hand-off in
//! both directions is two padded atomic words — no locks, no syscalls
//! (see [`ring`] for the memory layout and hangup protocol).
//!
//! One optional hot-path accelerator rides on top: per-worker [decision
//! caching](camus_pipeline::DecisionCache) keyed on the sharding field
//! ([`EngineConfig::decision_cache`] — probed per message in the
//! batch wave's parse phase; hits skip the match chain, misses run the
//! same whole-batch wave as an uncached program). Every program the
//! engine installs is armed or not once, when it is started on or
//! staged, by the config alone — a cache the caller armed on the
//! program is dropped first — and a worker's cache follows the
//! generation it runs: emptied at each adoption, dropped for a
//! generation that is not cacheable, re-armed by the next one that
//! is. The cache and ring counters live in one [`HotPathStats`] record
//! per worker context — the executor counts cache outcomes into it,
//! the engine adds the worker's ring waits when it harvests the worker
//! — and the merged record is [`EngineReport::hotpath`] and, when
//! telemetry is on, [`TelemetrySnapshot::hotpath`].
//!
//! ## Update plane
//!
//! A program reaches the workers one way: [`Engine::stage`] normalises
//! a candidate and charges it against the admission model *off* the
//! packet hot path, then [`Engine::commit`] makes it the installed
//! `Arc<Pipeline>` and bumps the generation ([`Engine::abort`] drops it
//! instead). That pair is the only publish path. [`Engine::apply_update`]
//! is `stage` then `commit` of the program an
//! [`UpdateReport`] carries, for the
//! incremental compiler (§3's "highly dynamic queries"): that program
//! *is* the next generation, installed as emitted, whether the report
//! came from the compiler's delta path or a full rebuild. Every commit
//! counts once in [`UpdateStats::published`] and equals a generation
//! bump.
//!
//! **A batch carries its program.** Every batch is stamped with the
//! installed program and its generation when it is handed to a worker,
//! and a publish first flushes every pending batch, so no batch ever
//! holds packets from two generations. A worker runs each batch on the
//! program it carries, adopting it at the batch boundary when the
//! generation changes (carrying `@query_counter` registers and
//! execution counters over). So every packet is decided by exactly the
//! rule set live when it was submitted — with or without a
//! [`Engine::quiesce`], none is dropped during an update, and stateful
//! windows never reset (the differential churn tests enforce this).
//!
//! ## Fault tolerance
//!
//! The paper's feasibility argument (§4) is that compiled subscription
//! tables *fit in switch memory*; this engine makes that a runtime
//! invariant rather than an offline observation. Every candidate
//! [`Engine::stage`] takes — and so every [`Engine::apply_update`] —
//! is charged against the configured [`AsicModel`] ([`admit`]: the
//! same [`place_chain`] arithmetic the
//! offline compiler reports) *before* publication: an over-committing
//! update is rejected with a typed [`EngineFault::Admission`] and **zero
//! observable state change** — no generation bump, entry-for-entry
//! identical tables before and after.
//!
//! On the data plane, workers are always supervised: each batch runs
//! under `catch_unwind`, a panicking batch is quarantined (its packets
//! get no decisions; counters roll back to the batch boundary) and the
//! worker keeps serving its shard. A worker thread that dies outright
//! is detected at the next send, its unprocessed batches are counted
//! as quarantined, and a replacement is respawned from the installed
//! program (its initial register state, its armed decision cache).
//! [`Engine::quiesce`] waits on a bounded watchdog and returns a typed
//! [`EngineFault::QuiesceTimeout`] instead of spinning forever on a
//! wedged worker. All of it surfaces in the report as [`FaultStats`]
//! plus the exact quarantined sequence numbers.
//!
//! ## One ledger
//!
//! Every count is kept once, where its event happens: the engine's
//! sequence counter is [`EngineReport::submitted`], the workers'
//! executors count decided packets ([`EngineReport::stats`]), and a
//! quarantined packet is one entry of [`EngineReport::quarantined`] —
//! a list, not a counter beside one, so a packet quarantined twice
//! shows up twice. [`EngineReport::reconciles`] checks
//! `submitted == decided + quarantined`; it is the one ledger formula,
//! and a fabric's and a daemon's zero-loss checks call it.
//!
//! ```no_run
//! use camus_engine::{shard, Engine, EngineConfig};
//! # fn demo(pipeline: &camus_pipeline::Pipeline, trace: &[(Vec<u8>, u64)]) {
//! let mut engine = Engine::start(pipeline, &EngineConfig::default(),
//!                                shard::itch_symbol_shard());
//! for (bytes, now_us) in trace {
//!     engine.submit(bytes, *now_us);
//! }
//! let report = engine.finish();
//! println!("{} packets, {} matched messages",
//!          report.stats.packets, report.stats.matched_messages);
//! # }
//! ```
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod ring;
pub mod shard;

use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use camus_core::UpdateReport;
use camus_pipeline::resources::place_chain;
use camus_pipeline::{
    AdmissionError, AsicModel, DecisionBuf, ExecState, ExecStats, ForwardDecision, Pipeline,
    PipelineError, ShardCtx, Table, DEFAULT_CACHE_SHIFT,
};
use camus_telemetry::{DataPlaneTelemetry, SpanKind, SpanSet, SpanTimer, TableCounters};

pub use camus_telemetry::{HotPathStats, TelemetrySnapshot};
pub use shard::ShardFn;

/// Update-plane counters, aggregated into the [`EngineReport`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Pipeline generations published: one per [`Engine::commit`],
    /// [`Engine::apply_update`]'s included. The engine installs whole
    /// programs either way; which of the compiler's paths emitted one
    /// is the report's `full_rebuild`, not the engine's business.
    pub published: u64,
    /// Generation adoptions performed by workers at batch boundaries
    /// (summed across workers).
    pub adoptions: u64,
    /// Generations a worker skipped over because several were
    /// published between two of its batches, none of which carried
    /// packets to it (summed across workers).
    pub coalesced: u64,
}

/// Fault-plane counters, aggregated into the [`EngineReport`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Worker panics caught by the per-batch supervisor, plus worker
    /// threads that unwound entirely (a panic outside the guard).
    pub panics_caught: u64,
    /// Batches quarantined (panicked, scripted to die, or lost inside
    /// a dead worker). Their packets get no forwarding decision and are
    /// listed in [`EngineReport::quarantined`].
    pub batches_quarantined: u64,
    /// Worker threads that stopped serving their shard (scripted
    /// deaths + threads that unwound).
    pub worker_deaths: u64,
    /// Replacement workers spawned after a death was detected.
    pub respawns: u64,
    /// Control-plane updates rejected by admission control.
    pub updates_rejected: u64,
}

impl FaultStats {
    fn merge(&mut self, other: &FaultStats) {
        self.panics_caught += other.panics_caught;
        self.batches_quarantined += other.batches_quarantined;
        self.worker_deaths += other.worker_deaths;
        self.respawns += other.respawns;
        self.updates_rejected += other.updates_rejected;
    }
}

/// Deterministic fault-injection hooks, consulted by workers on the
/// batch path. Empty sets (the default) cost one branch per batch.
/// Sequence numbers refer to [`Engine::submit`] order, matching the
/// seqs a `camus_workload::FaultPlan` produces. A transient stall is
/// not planned by seq: arm it at runtime with [`Engine::inject_stall`].
#[derive(Debug, Clone, Default)]
pub struct FaultInjection {
    /// A batch containing any of these seqs panics before processing:
    /// the batch is quarantined and the worker survives.
    pub panic_seqs: Arc<HashSet<u64>>,
    /// A batch containing any of these seqs makes the worker exit
    /// cleanly without processing it (a scripted crash): the batch is
    /// quarantined and the engine respawns the worker on detection.
    pub die_seqs: Arc<HashSet<u64>>,
}

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads. Defaults to the machine's available parallelism.
    pub workers: usize,
    /// Packets accumulated per batch before hand-off to a worker.
    pub batch_packets: usize,
    /// Bounded depth (in batches) of each worker's input queue;
    /// [`Engine::submit`] applies backpressure when a worker lags.
    pub queue_batches: usize,
    /// Record every per-packet [`ForwardDecision`] in the report
    /// (needed by the determinism test; costs an allocation per packet,
    /// so leave off when benchmarking throughput).
    pub record_decisions: bool,
    /// Bounded wait (milliseconds) for one in-flight batch during
    /// [`Engine::quiesce`] before it gives up with
    /// [`EngineFault::QuiesceTimeout`].
    pub watchdog_ms: u64,
    /// Resource model every update is charged against before
    /// publication ([`EngineFault::Admission`] on over-commit);
    /// `None` disables admission control.
    pub admission: Option<AsicModel>,
    /// Deterministic fault-injection hooks (empty by default).
    pub faults: FaultInjection,
    /// Collect data-plane telemetry (per-shard counters + latency
    /// histograms, one stage sample per batch) and attach a
    /// merged [`TelemetrySnapshot`] to the report. Off by default: the
    /// uninstrumented hot path has zero clock reads.
    pub telemetry: bool,
    /// Arm a per-worker [decision cache](camus_pipeline::DecisionCache)
    /// keyed on the named PHV field — use the same field the shard
    /// function keys on (e.g. `"add_order.stock"`). A cache hit skips
    /// the whole match chain; every published generation invalidates
    /// all caches at the adoption boundary, so cached decisions are
    /// always from the live rule set. Off for any generation whose
    /// program lacks the field or is not provably cacheable (stateful
    /// bindings, register ops, non-parser-sourced keys — see
    /// [`Pipeline::cacheable_on`]), and re-armed by any later cacheable
    /// generation. `None` (default) = off, whatever the program brings:
    /// a cache the caller armed on the program itself is dropped when
    /// the engine starts on or stages the program, and so it is when
    /// the named field is absent.
    pub decision_cache: Option<String>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            batch_packets: 64,
            queue_batches: 8,
            record_decisions: false,
            watchdog_ms: 2_000,
            admission: Some(AsicModel::tofino32()),
            faults: FaultInjection::default(),
            telemetry: false,
            decision_cache: None,
        }
    }
}

/// A flattened batch of packets: one contiguous byte arena plus
/// per-packet end offsets, so recycling a batch recycles every
/// allocation in it at once — and the program that decides them.
struct Batch {
    seqs: Vec<u64>,
    times: Vec<u64>,
    ends: Vec<usize>,
    bytes: Vec<u8>,
    /// The program installed when the batch was handed to a worker:
    /// every packet in it was submitted while that program was live.
    program: Arc<Pipeline>,
    /// `program`'s generation; a worker adopts when it changes.
    generation: u64,
}

impl Batch {
    fn new(program: &Arc<Pipeline>, generation: u64) -> Batch {
        Batch {
            seqs: Vec::new(),
            times: Vec::new(),
            ends: Vec::new(),
            bytes: Vec::new(),
            program: Arc::clone(program),
            generation,
        }
    }

    /// Points the batch at `program`. A pointer compare in the steady
    /// state: the `Arc` is cloned only when the program changed.
    fn stamp(&mut self, program: &Arc<Pipeline>, generation: u64) {
        if !Arc::ptr_eq(&self.program, program) {
            self.program = Arc::clone(program);
            self.generation = generation;
        }
    }

    fn clear(&mut self) {
        self.seqs.clear();
        self.times.clear();
        self.ends.clear();
        self.bytes.clear();
    }

    fn len(&self) -> usize {
        self.seqs.len()
    }

    fn is_empty(&self) -> bool {
        self.seqs.is_empty()
    }

    fn push(&mut self, seq: u64, now_us: u64, packet: &[u8]) {
        self.seqs.push(seq);
        self.times.push(now_us);
        self.bytes.extend_from_slice(packet);
        self.ends.push(self.bytes.len());
    }

    fn packet(&self, i: usize) -> (&[u8], u64) {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        (&self.bytes[start..self.ends[i]], self.times[i])
    }

    fn iter(&self) -> impl Iterator<Item = (&[u8], u64)> {
        (0..self.len()).map(|i| self.packet(i))
    }
}

/// A pipeline error annotated with where it happened. Only
/// *config-class* errors surface this way (unknown multicast group,
/// register out of range — the program is broken); malformed packets
/// are typed drop decisions, not errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineError {
    /// Worker that hit the error.
    pub worker: usize,
    /// Submission sequence number of the failing packet.
    pub packet_seq: u64,
    /// The underlying pipeline error.
    pub error: PipelineError,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "worker {} failed on packet {}: {}",
            self.worker, self.packet_seq, self.error
        )
    }
}

impl std::error::Error for EngineError {}

/// A typed control-plane fault from the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineFault {
    /// The candidate rule set does not fit the configured ASIC model;
    /// nothing was published and the installed state is unchanged.
    Admission(AdmissionError),
    /// A worker failed to return an in-flight batch within the
    /// watchdog window; the engine state is unchanged and the call
    /// can be retried.
    QuiesceTimeout {
        /// Worker that failed to drain.
        worker: usize,
        /// Batches still outstanding on that worker.
        outstanding: usize,
        /// How long the watchdog waited, milliseconds.
        waited_ms: u64,
    },
    /// The whole node crashed ([`Engine::simulate_crash`]): every
    /// control-plane operation fails permanently. Unlike
    /// [`EngineFault::QuiesceTimeout`] this is *not* retryable — the
    /// caller (e.g. a fabric) must fail the node's shards over.
    Killed,
}

impl std::fmt::Display for EngineFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineFault::Admission(e) => write!(f, "update rejected by admission control: {e}"),
            EngineFault::QuiesceTimeout {
                worker,
                outstanding,
                waited_ms,
            } => write!(
                f,
                "quiesce timed out after {waited_ms} ms: worker {worker} holds {outstanding} batch(es)"
            ),
            EngineFault::Killed => write!(f, "node is dead (crashed); not retryable"),
        }
    }
}

impl std::error::Error for EngineFault {}

/// What one worker leaves behind: the worker loop counts into it as
/// events happen, and [`Engine::finish`] merges every worker's.
#[derive(Default)]
struct WorkerOutput {
    index: usize,
    stats: ExecStats,
    decisions: Vec<(u64, ForwardDecision)>,
    error: Option<EngineError>,
    /// Adoptions and coalesced generations (`published` stays 0).
    updates: UpdateStats,
    faults: FaultStats,
    quarantined: Vec<u64>,
    telemetry: Option<Box<DataPlaneTelemetry>>,
    hotpath: HotPathStats,
}

struct WorkerHandle {
    tx: ring::Producer<Batch>,
    recycle_rx: ring::Consumer<Batch>,
    pending: Batch,
    /// Sequence numbers of each batch sent but not yet returned through
    /// the recycle channel, FIFO (batches come back in send order).
    /// Its length is the worker's backlog; its contents are what lets
    /// the engine account for every packet inside a worker that died
    /// mid-stream.
    in_flight: VecDeque<Vec<u64>>,
    /// Recycled seq vectors for `in_flight`, cleared when reused
    /// (allocation-free steady state, like the batch pool).
    seq_pool: Vec<Vec<u64>>,
    /// Drained batches ready for reuse.
    pool: Vec<Batch>,
    handle: JoinHandle<WorkerOutput>,
}

/// The engine-level report: aggregated and per-worker counters, plus
/// (optionally) every forwarding decision in submission order.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Packets handed to [`Engine::submit`] ([`Engine::submitted`]).
    pub submitted: u64,
    /// Aggregated execution counters across all workers.
    pub stats: ExecStats,
    /// Per-worker execution counters, one per worker slot (a respawned
    /// worker's counters merge into its slot).
    pub per_worker: Vec<ExecStats>,
    /// Per-packet decisions in submission order; empty unless
    /// [`EngineConfig::record_decisions`] was set. Quarantined packets
    /// have no decision — their seqs are in
    /// [`EngineReport::quarantined`] instead.
    pub decisions: Vec<ForwardDecision>,
    /// First config-class error any worker hit, if any. The failing
    /// worker stops processing further batches; other shards run to
    /// completion.
    pub error: Option<EngineError>,
    /// Update-plane counters: generations published, how they were
    /// applied, and how workers picked them up.
    pub updates: UpdateStats,
    /// Fault-plane counters: panics, quarantines, deaths, respawns,
    /// admission rejections.
    pub faults: FaultStats,
    /// Submission seqs of every quarantined packet, sorted and never
    /// deduplicated, so a packet counted twice shows up twice. See
    /// [`EngineReport::reconciles`].
    pub quarantined: Vec<u64>,
    /// Merged cross-shard telemetry (histograms, spans, per-table
    /// counters); `Some` iff [`EngineConfig::telemetry`] was set.
    pub telemetry: Option<TelemetrySnapshot>,
    /// Decision-cache and ring back-pressure counters, summed across
    /// workers and the engine thread. Always collected.
    pub hotpath: HotPathStats,
}

impl EngineReport {
    /// The zero-loss ledger, and the one place it is written: every
    /// submitted packet was decided or quarantined, exactly once —
    /// `submitted == stats.packets + quarantined.len()`. It fails when
    /// a worker thread unwound outside the per-batch guard and took its
    /// counters with it.
    pub fn reconciles(&self) -> bool {
        self.submitted == self.stats.packets + self.quarantined.len() as u64
    }

    /// One slot per submitted packet, in submission order: its decision,
    /// or `None` if it was quarantined (or decisions went unrecorded).
    pub fn decisions_in_submit_order(&self) -> Vec<Option<&ForwardDecision>> {
        let mut decisions = self.decisions.iter();
        let mut quarantined = self.quarantined.iter().peekable();
        (0..self.submitted)
            .map(|seq| match quarantined.next_if_eq(&&seq) {
                Some(_) => None,
                None => decisions.next(),
            })
            .collect()
    }
}

/// A running multi-core engine. Create with [`Engine::start`], feed it
/// with [`Engine::submit`], then call [`Engine::finish`] to join the
/// workers and collect the [`EngineReport`].
pub struct Engine {
    workers: Vec<WorkerHandle>,
    shard: ShardFn,
    cfg: EngineConfig,
    next_seq: u64,
    /// The installed program, stamped on every batch handed to a
    /// worker.
    installed: Arc<Pipeline>,
    /// `installed`'s generation: bumps once per publish.
    generation: u64,
    /// A candidate [`Engine::stage`] accepted but not yet published: a
    /// fabric's two-phase epoch holds the new program here across
    /// every leaf before committing any of them.
    staged: Option<Pipeline>,
    /// Fault counts of the engine thread's own events (rejected stages,
    /// respawns, unwound workers and the batches they lost); the
    /// workers' records merge in at [`Engine::finish`].
    faults: FaultStats,
    /// Seqs of packets that went down with a dead worker.
    lost: Vec<u64>,
    /// Outputs harvested from retired workers (replaced ones, and every
    /// worker at [`Engine::finish`]).
    retired: Vec<WorkerOutput>,
    /// Control-plane span timings (updates, quiesce, respawns).
    spans: SpanSet,
    /// Engine-side ring waits harvested from retired handles (every
    /// handle is retired at [`Engine::finish`]); the cache fields stay
    /// zero.
    hotpath: HotPathStats,
    /// Node-crash flag ([`Engine::simulate_crash`]): workers check it
    /// once per batch and abandon ship; the control plane refuses
    /// every operation with [`EngineFault::Killed`].
    killed: Arc<AtomicBool>,
    /// One-shot runtime stall, milliseconds ([`Engine::inject_stall`]):
    /// the next worker to start a batch consumes it and sleeps,
    /// modelling a transient whole-node hiccup (GC pause, link flap)
    /// that [`Engine::quiesce`]'s watchdog then times out on. It needs
    /// no seq planned at startup, so a chaos harness can script it
    /// mid-run.
    stall_signal: Arc<AtomicU64>,
}

/// One worker's serving loop. `ctx` was cloned from the program of
/// generation `seen_gen`; every batch brings its own program, adopted
/// whenever its generation differs.
#[allow(clippy::too_many_arguments)]
fn worker_loop(
    index: usize,
    mut ctx: ShardCtx,
    mut seen_gen: u64,
    mut rx: ring::Consumer<Batch>,
    mut recycle_tx: ring::Producer<Batch>,
    record: bool,
    injection: FaultInjection,
    killed: Arc<AtomicBool>,
    stall_signal: Arc<AtomicU64>,
) -> WorkerOutput {
    let mut report = WorkerOutput {
        index,
        ..WorkerOutput::default()
    };
    let mut out = DecisionBuf::default();
    // Counter snapshot for panic rollback; reused every batch.
    let mut stats_backup = ExecStats::default();
    let has_panics = !injection.panic_seqs.is_empty();
    let has_deaths = !injection.die_seqs.is_empty();
    while let Some(batch) = rx.pop_blocking() {
        // Node-crash check first: a killed node abandons the popped
        // batch *un-recycled* and stops cold, exactly like a scripted
        // worker death — so the engine's in-flight ledger accounts
        // every packet the crash took down, and detection rides the
        // same recycle-ring hangup path.
        if killed.load(Ordering::Acquire) {
            report.faults.worker_deaths += 1;
            break;
        }
        // Scripted runtime stall: one worker consumes the pending
        // signal and sleeps before touching the batch, so an armed
        // quiesce watchdog observes the hiccup deterministically.
        let stall_ms = stall_signal.swap(0, Ordering::AcqRel);
        if stall_ms > 0 {
            std::thread::sleep(Duration::from_millis(stall_ms));
        }
        // Batch boundary: adopt the program the batch carries when its
        // generation is not the one `ctx` is shaped for. No pipeline
        // clone on the worker; `ShardCtx::adopt` carries
        // `@query_counter` windows and execution counters over (never
        // reset) and makes the decision cache follow the program's own
        // (emptied, taken, or dropped), which is what makes cached
        // decisions always come from the batch's program.
        // A batch re-dispatched to a respawned worker may carry an
        // older generation than the one it was cloned from: adopt it
        // all the same, and count nothing as coalesced.
        if batch.generation != seen_gen {
            ctx.adopt(&batch.program);
            report.updates.adoptions += 1;
            report.updates.coalesced += batch.generation.saturating_sub(seen_gen + 1);
            seen_gen = batch.generation;
        }
        if has_deaths && batch.seqs.iter().any(|s| injection.die_seqs.contains(s)) {
            // Scripted worker death: abandon the batch *without*
            // recycling it and stop serving the shard, with everything
            // accumulated so far intact. Leaving the batch outstanding
            // is what makes detection deterministic — the engine's
            // next wait on the recycle ring sees the hangup, and its
            // in-flight ledger quarantines the batch.
            report.faults.worker_deaths += 1;
            break;
        }
        if report.error.is_none() {
            stats_backup.copy_from(&ctx.exec.stats);
            out.clear();
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if has_panics && batch.seqs.iter().any(|s| injection.panic_seqs.contains(s)) {
                    panic!("injected worker panic (fault harness)");
                }
                batch
                    .program
                    .process_batch_shared(&mut ctx, batch.iter(), &mut out)
            }));
            match result {
                Ok(Ok(())) => {
                    if record {
                        for (i, d) in out.iter().enumerate() {
                            report.decisions.push((batch.seqs[i], d.clone()));
                        }
                    }
                }
                Ok(Err(e)) => {
                    // The failing packet's slot is the last one claimed.
                    let seq = batch.seqs[out.len().saturating_sub(1)];
                    report.error = Some(EngineError {
                        worker: index,
                        packet_seq: seq,
                        error: e,
                    });
                }
                Err(_) => {
                    // Caught panic: quarantine the whole batch and roll
                    // the counters back to the batch boundary, so no
                    // quarantined packet is half-counted. Register
                    // side effects of the partial batch may persist
                    // (counters carry forward like on a real switch
                    // whose stage was reset mid-burst); the soak
                    // harness uses stateless rules to keep the oracle
                    // exact.
                    report.faults.panics_caught += 1;
                    report.faults.batches_quarantined += 1;
                    report.quarantined.extend_from_slice(&batch.seqs);
                    ctx.exec.stats.copy_from(&stats_backup);
                }
            }
        }
        // Hand the batch back for reuse; the engine may already be
        // finishing, in which case the recycle side is simply gone.
        let _ = recycle_tx.push_blocking(batch);
    }
    ctx.exec.hotpath.ring_full_spins += recycle_tx.full_spins();
    ctx.exec.hotpath.ring_empty_spins += rx.empty_spins();
    report.telemetry = ctx.exec.take_telemetry();
    report.hotpath = ctx.exec.hotpath;
    report.stats = ctx.exec.stats;
    report
}

impl Engine {
    /// Spawns the worker threads over one shared copy of `pipeline`,
    /// normalised exactly like a [staged](Engine::stage) candidate.
    /// Register *contents* are cloned as-is, so start from a freshly
    /// compiled pipeline for reproducible runs. The seed is trusted —
    /// admission control applies to *installs* ([`Engine::stage`]),
    /// where rejecting late would leave a live engine half-updated; a
    /// fabric charges its seed slices with [`admit`] before starting.
    pub fn start(pipeline: &Pipeline, cfg: &EngineConfig, shard: ShardFn) -> Engine {
        let n = cfg.workers.max(1);
        let mut seed = pipeline.clone();
        normalise(cfg, &mut seed);
        let mut engine = Engine {
            workers: Vec::with_capacity(n),
            shard,
            cfg: EngineConfig {
                workers: n,
                batch_packets: cfg.batch_packets.max(1),
                queue_batches: cfg.queue_batches.max(1),
                ..cfg.clone()
            },
            next_seq: 0,
            installed: Arc::new(seed),
            generation: 0,
            staged: None,
            faults: FaultStats::default(),
            lost: Vec::new(),
            retired: Vec::new(),
            spans: SpanSet::new(),
            hotpath: HotPathStats::default(),
            killed: Arc::new(AtomicBool::new(false)),
            stall_signal: Arc::new(AtomicU64::new(0)),
        };
        for wi in 0..n {
            let handle = engine.spawn_worker(wi);
            engine.workers.push(handle);
        }
        engine
    }

    /// Spawns one worker thread seeded from the installed program. A
    /// respawned worker restarts its stateful windows from that
    /// program's initial register state, since the dead worker's live
    /// counters are unrecoverable.
    fn spawn_worker(&self, wi: usize) -> WorkerHandle {
        // The compiled program is shared read-only behind the Arc each
        // batch carries; the worker's mutable state (registers,
        // counters, wave scratch, decision cache) lives in its own
        // ShardCtx, cloned from the installed program — no pipeline
        // clone per worker.
        let mut ctx = ShardCtx {
            registers: self.installed.registers.clone(),
            exec: self.installed.exec.clone(),
        };
        let generation = self.generation;
        if self.cfg.telemetry {
            ctx.exec.enable_telemetry();
        }
        // Input ring depth ≈ queue_batches (rounded to a power of
        // two). The recycle ring gets headroom: at most queue+2
        // batches ever exist per worker (pool growth stops once the
        // input ring fills), so a (queue+4)-deep recycle ring means a
        // worker's return push never blocks in steady state.
        let (tx, rx) = ring::ring::<Batch>(self.cfg.queue_batches);
        let (recycle_tx, recycle_rx) = ring::ring::<Batch>(self.cfg.queue_batches + 4);
        let record = self.cfg.record_decisions;
        let injection = self.cfg.faults.clone();
        let worker_killed = Arc::clone(&self.killed);
        let worker_stall = Arc::clone(&self.stall_signal);
        let handle = std::thread::Builder::new()
            .name(format!("camus-engine-{wi}"))
            .spawn(move || {
                worker_loop(
                    wi,
                    ctx,
                    generation,
                    rx,
                    recycle_tx,
                    record,
                    injection,
                    worker_killed,
                    worker_stall,
                )
            })
            .unwrap_or_else(|e| panic!("spawn engine worker: {e}"));
        WorkerHandle {
            tx,
            recycle_rx,
            pending: Batch::new(&self.installed, self.generation),
            in_flight: VecDeque::new(),
            seq_pool: Vec::new(),
            pool: Vec::new(),
            handle,
        }
    }

    /// Routes one packet to its shard's worker. Packets with equal
    /// shard keys are processed in submission order on one worker.
    /// Blocks (backpressure) when that worker's queue is full.
    pub fn submit(&mut self, packet: &[u8], now_us: u64) {
        let wi = shard::worker_of((self.shard)(packet), self.workers.len());
        let seq = self.next_seq;
        self.next_seq += 1;
        let w = &mut self.workers[wi];
        w.pending.push(seq, now_us, packet);
        if w.pending.len() >= self.cfg.batch_packets {
            self.flush_worker(wi);
        }
    }

    /// Packets submitted so far.
    pub fn submitted(&self) -> u64 {
        self.next_seq
    }

    /// Takes back a batch the worker returned: pops its in-flight
    /// record (the seq vector goes back to its pool) and pools the
    /// batch, re-stamped so an idle batch never pins a retired program.
    fn take_back(w: &mut WorkerHandle, mut batch: Batch, installed: &Arc<Pipeline>, gen: u64) {
        w.seq_pool.extend(w.in_flight.pop_front());
        batch.stamp(installed, gen);
        w.pool.push(batch);
    }

    /// Takes back everything the worker has returned so far. Draining
    /// *fully* (not just one) is what bounds the number of batches ever
    /// in existence to roughly the input-ring depth plus two — which in
    /// turn guarantees the worker's recycle push never finds its ring
    /// full.
    fn reclaim(w: &mut WorkerHandle, installed: &Arc<Pipeline>, gen: u64) {
        while let Some(b) = w.recycle_rx.try_pop() {
            Self::take_back(w, b, installed, gen);
        }
    }

    /// Hands the worker's pending batch over, stamped with the
    /// installed program: every packet in it was submitted under that
    /// program, since a publish flushes first.
    fn flush_worker(&mut self, wi: usize) {
        if self.workers[wi].pending.is_empty() {
            return;
        }
        let w = &mut self.workers[wi];
        Self::reclaim(w, &self.installed, self.generation);
        // Reuse a drained batch if one is waiting; otherwise grow the
        // pool by one (start-up only — the steady state recycles).
        let mut next = w
            .pool
            .pop()
            .unwrap_or_else(|| Batch::new(&self.installed, self.generation));
        next.clear();
        let mut full = std::mem::replace(&mut w.pending, next);
        full.stamp(&self.installed, self.generation);
        self.dispatch(wi, full, true);
    }

    /// Sends a batch with in-flight bookkeeping. A send error means
    /// the worker thread is gone: with `respawn` the engine replaces
    /// it and re-sends the batch (zero loss — the batch never reached
    /// the dead worker); without, the batch is counted as lost.
    fn dispatch(&mut self, wi: usize, batch: Batch, respawn: bool) {
        // A crashed node never heals itself: batches that can't reach
        // a worker go straight to loss accounting (→ quarantined).
        let respawn = respawn && self.is_alive();
        let w = &mut self.workers[wi];
        let mut seqs = w.seq_pool.pop().unwrap_or_default();
        seqs.clear();
        seqs.extend_from_slice(&batch.seqs);
        // Blocks (backpressure) while the ring is full; hands the
        // batch back only when the worker is gone.
        match w.tx.push_blocking(batch) {
            Ok(()) => w.in_flight.push_back(seqs),
            Err(batch) => {
                w.seq_pool.push(seqs);
                if respawn {
                    self.respawn_worker(wi);
                    // The replacement gets the batch; a second failure
                    // (replacement died instantly) drops to loss
                    // accounting instead of recursing.
                    self.dispatch(wi, batch, false);
                } else {
                    self.lost.extend_from_slice(&batch.seqs);
                    self.faults.batches_quarantined += 1;
                }
            }
        }
    }

    /// Replaces a dead worker with one spawned from the installed
    /// program; the replacement inherits the dead one's batch and seq
    /// pools.
    fn respawn_worker(&mut self, wi: usize) {
        let timer = SpanTimer::start();
        let fresh = self.spawn_worker(wi);
        let old = std::mem::replace(&mut self.workers[wi], fresh);
        let (mut pool, mut seq_pool) = self.retire(old);
        let w = &mut self.workers[wi];
        w.pool.append(&mut pool);
        w.seq_pool.append(&mut seq_pool);
        self.faults.respawns += 1;
        timer.stop_into(&mut self.spans, SpanKind::WorkerRespawn);
    }

    /// Retires a worker, dead or alive — the one place a worker thread
    /// is joined: adds its handle's ring waits to the totals, hangs up
    /// its input ring and joins the thread (keeping its output, or
    /// counting it as unwound), takes back the batches it returned and
    /// counts every batch still in flight as lost. Returns the
    /// handle's reusable batches and seq vectors.
    fn retire(&mut self, w: WorkerHandle) -> (Vec<Batch>, Vec<Vec<u64>>) {
        let WorkerHandle {
            tx,
            mut recycle_rx,
            mut in_flight,
            mut seq_pool,
            mut pool,
            handle,
            ..
        } = w;
        self.hotpath.ring_full_spins += tx.full_spins();
        self.hotpath.ring_empty_spins += recycle_rx.empty_spins();
        // Dropping the producer half ends the worker's pop loop once it
        // drains what remains.
        drop(tx);
        match handle.join() {
            Ok(out) => self.retired.push(out),
            // The thread unwound: its counters and recorded decisions
            // are unrecoverable. Counted so reports can flag the gap.
            Err(_) => {
                self.faults.panics_caught += 1;
                self.faults.worker_deaths += 1;
            }
        }
        // Everything the worker processed came back through the recycle
        // ring (batches come back in send order); whatever didn't went
        // down with it.
        while let Some(mut b) = recycle_rx.try_pop() {
            seq_pool.extend(in_flight.pop_front());
            b.stamp(&self.installed, self.generation);
            pool.push(b);
        }
        for seqs in in_flight.drain(..) {
            self.lost.extend_from_slice(&seqs);
            self.faults.batches_quarantined += 1;
        }
        (pool, seq_pool)
    }

    /// Flushes every pending batch and blocks until all workers have
    /// fully processed everything submitted so far. On `Ok` the data
    /// plane is quiescent: no packet is in flight. No update needs
    /// this — a batch carries its program — but a clean shutdown, a
    /// measurement or a test that reads counters mid-run does.
    ///
    /// Each in-flight batch is waited on for at most
    /// [`EngineConfig::watchdog_ms`]; a worker that fails to produce
    /// one in that window yields [`EngineFault::QuiesceTimeout`]
    /// (state unchanged — the call is re-entrant and can be retried).
    /// A worker found dead is respawned and its lost batches are
    /// quarantined, so quiesce also heals the engine.
    pub fn quiesce(&mut self) -> Result<(), EngineFault> {
        if !self.is_alive() {
            return Err(EngineFault::Killed);
        }
        let timer = SpanTimer::start();
        for wi in 0..self.workers.len() {
            self.flush_worker(wi);
            loop {
                let watchdog = Duration::from_millis(self.cfg.watchdog_ms.max(1));
                let w = &mut self.workers[wi];
                if w.in_flight.is_empty() {
                    break;
                }
                match w.recycle_rx.pop_deadline(watchdog) {
                    ring::PopDeadline::Item(b) => {
                        Self::take_back(w, b, &self.installed, self.generation);
                    }
                    ring::PopDeadline::Timeout => {
                        return Err(EngineFault::QuiesceTimeout {
                            worker: wi,
                            outstanding: w.in_flight.len(),
                            waited_ms: self.cfg.watchdog_ms,
                        });
                    }
                    ring::PopDeadline::Closed => {
                        // Dead worker: harvest and replace, then keep
                        // draining (the replacement starts idle).
                        self.respawn_worker(wi);
                    }
                }
            }
        }
        // Only completed drains are recorded; a timed-out quiesce is
        // retried and would double-count.
        timer.stop_into(&mut self.spans, SpanKind::Quiesce);
        Ok(())
    }

    /// Phase one of the engine's one install primitive, the two-phase
    /// epoch: normalise `candidate` (counters zeroed, telemetry record
    /// dropped, [`EngineConfig::decision_cache`] re-armed when the
    /// program allows it, tables prepared), charge it against the
    /// admission model and hold it without publishing — nothing a
    /// worker can observe changes. [`Engine::commit`] makes
    /// the staged program live; [`Engine::abort`] discards it. Staging
    /// again replaces the previous candidate; a rejected one
    /// ([`EngineFault::Admission`], counted in
    /// [`FaultStats::updates_rejected`]) replaces nothing.
    pub fn stage(&mut self, mut candidate: Pipeline) -> Result<(), EngineFault> {
        if !self.is_alive() {
            return Err(EngineFault::Killed);
        }
        normalise(&self.cfg, &mut candidate);
        if let Err(fault) = admit(self.cfg.admission.as_ref(), &candidate.tables) {
            self.faults.updates_rejected += 1;
            return Err(fault);
        }
        self.staged = Some(candidate);
        Ok(())
    }

    /// Phase two: publish the staged candidate — the one place the
    /// program that decides packets changes. It first flushes every
    /// pending batch, so none spans the publish: packets submitted
    /// before the call leave stamped with the old program, packets
    /// submitted after it are decided by the new one; workers adopt it
    /// at the first batch that carries it, carrying register state over
    /// positionally. Returns `false` — and changes nothing — when no
    /// candidate is staged. Infallible by construction: admission
    /// already passed in [`Engine::stage`], so once every node in a
    /// fabric has staged, every commit succeeds. It blocks only the way
    /// [`Engine::submit`] does, on ring backpressure, while it flushes
    /// the pending batches.
    pub fn commit(&mut self) -> bool {
        let timer = SpanTimer::start();
        let Some(candidate) = self.staged.take() else {
            return false;
        };
        for wi in 0..self.workers.len() {
            self.flush_worker(wi);
        }
        self.installed = Arc::new(candidate);
        self.generation += 1;
        // Re-stamp every idle batch: only batches carrying its packets
        // keep the retired program alive.
        for w in &mut self.workers {
            Self::reclaim(w, &self.installed, self.generation);
            w.pending.stamp(&self.installed, self.generation);
            for b in &mut w.pool {
                b.stamp(&self.installed, self.generation);
            }
        }
        timer.stop_into(&mut self.spans, SpanKind::InstallPipeline);
        true
    }

    /// Discards a staged candidate (epoch abort). Returns whether one
    /// was staged. Never touches the published program.
    pub fn abort(&mut self) -> bool {
        self.staged.take().is_some()
    }

    /// Installs the program an incremental-compiler update emitted,
    /// [`UpdateReport::pipeline`]: [`stage`](Engine::stage) then
    /// [`commit`](Engine::commit), in one call, for delta and
    /// `full_rebuild` reports alike. Nothing is re-derived from the
    /// report, so an update can only fail the way `stage` does: on
    /// [`EngineFault::Admission`] the installed state is untouched — no
    /// generation bump, entry-for-entry identical tables. A candidate
    /// that was already staged is replaced — a successful update leaves
    /// nothing staged.
    ///
    /// Every packet is decided by the generation live when it was
    /// submitted: those submitted before this call by the old program,
    /// those after it by the new one — never a half-applied rule set,
    /// with no quiesce needed.
    pub fn apply_update(&mut self, report: &UpdateReport) -> Result<(), EngineFault> {
        let timer = SpanTimer::start();
        self.stage(report.pipeline.clone())?;
        self.commit();
        timer.stop_into(&mut self.spans, SpanKind::ApplyUpdate);
        Ok(())
    }

    /// Simulates an abrupt node crash (the chaos harness's leaf-kill
    /// event). Every worker abandons its current batch *un-recycled*
    /// at its next batch boundary and exits — the packets it took down
    /// surface as quarantined seqs through the in-flight ledger, just
    /// like a single worker death — and from here on every
    /// control-plane call fails with [`EngineFault::Killed`], every
    /// undeliverable batch is counted as lost, and
    /// [`Engine::is_alive`] answers `false`. Idempotent; there is no
    /// resurrection — a fabric replaces the node's shards, not the
    /// node.
    pub fn simulate_crash(&mut self) {
        if self.killed.swap(true, Ordering::AcqRel) {
            return;
        }
        // Wake workers blocked on empty input rings with a sentinel
        // empty batch (no in-flight record — it carries no packets).
        // A worker mid-batch sees the flag at its next pop instead; a
        // full ring means the worker has plenty to wake up on already.
        for w in &mut self.workers {
            let _ = w.tx.try_push(Batch::new(&self.installed, self.generation));
        }
    }

    /// Arms a one-shot runtime stall (the chaos harness's leaf-stall
    /// event): the next worker to start a batch sleeps `ms`
    /// milliseconds first. The node stays alive — the fault is
    /// transient: updates still commit, and only [`Engine::quiesce`]
    /// sees it, as a watchdog timeout. Calling again before a worker
    /// consumed the previous signal replaces it.
    pub fn inject_stall(&mut self, ms: u64) {
        self.stall_signal.store(ms, Ordering::Release);
    }

    /// Liveness probe — the heartbeat a fabric's failure detector
    /// polls. `false` once the node crashed; detection of *why* (and
    /// of the exact packets lost) still rides the quiesce/ledger
    /// machinery.
    pub fn is_alive(&self) -> bool {
        !self.killed.load(Ordering::Acquire)
    }

    /// The currently installed tables — exactly what decides every
    /// packet submitted from now on. Lets a fabric driver assert
    /// bit-identical pre-state after an aborted epoch.
    pub fn installed_tables(&self) -> &[Table] {
        &self.installed.tables
    }

    /// Worker slots the engine shards packets over.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// The installed generation (bumps once per successful publish;
    /// never on a rejected or aborted update).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Control-plane span timings recorded so far (updates, installs,
    /// quiesces, respawns). Worker-side spans only merge in at
    /// [`Engine::finish`]; this is the live view a daemon's `/metrics`
    /// endpoint serves between updates.
    pub fn control_spans(&self) -> SpanSet {
        self.spans.clone()
    }

    /// Flushes remaining packets, joins every worker and aggregates
    /// the report. Dead workers are harvested, not propagated: a
    /// worker thread that unwound shows up as [`FaultStats`] counts and
    /// quarantined seqs rather than a panic out of `finish`.
    pub fn finish(mut self) -> EngineReport {
        for wi in 0..self.workers.len() {
            self.flush_worker(wi);
        }
        let workers = self.workers.len();
        for w in std::mem::take(&mut self.workers) {
            self.retire(w);
        }

        let mut per_worker = vec![ExecStats::default(); workers];
        let mut all_decisions: Vec<(u64, ForwardDecision)> = Vec::new();
        let mut error: Option<EngineError> = None;
        let mut updates = UpdateStats {
            published: self.generation,
            ..UpdateStats::default()
        };
        let mut faults = std::mem::take(&mut self.faults);
        // Batches lost inside dead workers are quarantined too.
        let mut quarantined = std::mem::take(&mut self.lost);
        let mut snapshot = self.cfg.telemetry.then(|| TelemetrySnapshot::new(workers));
        let mut hotpath = self.hotpath;
        for out in std::mem::take(&mut self.retired) {
            per_worker[out.index].merge(&out.stats);
            if let (Some(snap), Some(t)) = (snapshot.as_mut(), out.telemetry.as_deref()) {
                snap.absorb_worker(t);
            }
            hotpath.merge(&out.hotpath);
            all_decisions.extend(out.decisions);
            updates.adoptions += out.updates.adoptions;
            updates.coalesced += out.updates.coalesced;
            faults.merge(&out.faults);
            quarantined.extend(out.quarantined);
            if error.is_none() {
                error = out.error;
            }
        }
        quarantined.sort_unstable();

        let mut stats = ExecStats::default();
        for s in &per_worker {
            stats.merge(s);
        }
        if let Some(snap) = snapshot.as_mut() {
            snap.packets = stats.packets;
            snap.spans = self.spans.clone();
            snap.hotpath = hotpath;
            // Per-table counters resolve to the installed program's
            // table names (the aggregated ExecStats vectors are indexed
            // in pipeline table order).
            snap.tables = self
                .installed
                .tables
                .iter()
                .enumerate()
                .map(|(i, t)| TableCounters {
                    name: t.name.clone(),
                    hits: stats.table_hits.get(i).copied().unwrap_or(0),
                    misses: stats.table_misses.get(i).copied().unwrap_or(0),
                })
                .collect();
        }
        all_decisions.sort_unstable_by_key(|(seq, _)| *seq);
        let decisions = all_decisions.into_iter().map(|(_, d)| d).collect();
        EngineReport {
            submitted: self.next_seq,
            stats,
            per_worker,
            decisions,
            error,
            updates,
            faults,
            quarantined,
            telemetry: snapshot,
            hotpath,
        }
    }
}

/// Brings a program into the form the engine installs: a fresh
/// execution state — counters zeroed, no telemetry record (that is
/// per-worker, attached in `spawn_worker` — a caller's own must not
/// leak into workers) and no decision cache of the caller's — tables
/// prepared, and [`EngineConfig::decision_cache`] armed when the field
/// exists and the program is provably cacheable on it (workers clone
/// the empty cache; otherwise the program quietly runs without one).
/// The cache follows the config alone.
fn normalise(cfg: &EngineConfig, program: &mut Pipeline) {
    program.exec = ExecState::default();
    program.prepare();
    if let Some(field) = cfg
        .decision_cache
        .as_deref()
        .and_then(|name| program.layout.get(name))
    {
        program.enable_decision_cache(field, DEFAULT_CACHE_SHIFT);
    }
}

/// Charges a table chain against an admission model using the same
/// leveling/placement arithmetic as the offline compiler
/// ([`place_chain`]) — the runtime enforcement of the paper's
/// fits-in-switch-memory claim. `None` admits everything.
pub fn admit(model: Option<&AsicModel>, tables: &[Table]) -> Result<(), EngineFault> {
    match model.and_then(|m| place_chain(tables, m).failure) {
        Some(err) => Err(EngineFault::Admission(err)),
        None => Ok(()),
    }
}

/// Convenience one-shot: start, replay `packets`, finish.
pub fn run_trace<'a, I>(
    pipeline: &Pipeline,
    cfg: &EngineConfig,
    shard: ShardFn,
    packets: I,
) -> EngineReport
where
    I: IntoIterator<Item = (&'a [u8], u64)>,
{
    let mut engine = Engine::start(pipeline, cfg, shard);
    for (bytes, now_us) in packets {
        engine.submit(bytes, now_us);
    }
    engine.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use camus_pipeline::parser::{Extract, ParseState, ParserSpec, StateId, Transition};
    use camus_pipeline::register::RegisterFile;
    use camus_pipeline::table::RegOp;
    use camus_pipeline::{
        ActionOp, DecisionCache, Entry, ExecState, Key, MatchKind, MatchValue, MulticastTable,
        ParseDrop, PhvLayout, PortId, Table,
    };
    use std::sync::Arc;

    /// One-byte-symbol pipeline: byte b forwards to port b for b in
    /// 1..=4; other bytes miss and drop.
    fn byte_pipeline() -> Pipeline {
        byte_pipeline_sending_1_to(1)
    }

    /// [`byte_pipeline`], except that byte 1 forwards to `port`.
    fn byte_pipeline_sending_1_to(port: u16) -> Pipeline {
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
        for b in 1u64..=4 {
            let to = if b == 1 { port } else { b as u16 };
            table
                .add_entry(Entry {
                    priority: 0,
                    matches: vec![MatchValue::Exact(b)],
                    ops: vec![ActionOp::Forward(PortId(to))],
                })
                .unwrap();
        }
        Pipeline {
            layout,
            parser,
            tables: vec![table],
            mcast: MulticastTable::new(),
            registers: RegisterFile::new(),
            state_bindings: vec![],
            init_fields: vec![],
            exec: ExecState::default(),
        }
    }

    fn first_byte_shard() -> ShardFn {
        Arc::new(|p: &[u8]| u64::from(p.first().copied().unwrap_or(0)))
    }

    /// One whole epoch on a lone engine: stage, then commit.
    fn install(engine: &mut Engine, program: &Pipeline) -> Result<(), EngineFault> {
        engine.stage(program.clone())?;
        assert!(engine.commit(), "a staged candidate commits");
        Ok(())
    }

    #[test]
    fn engine_matches_sequential_on_toy_pipeline() {
        let pipeline = byte_pipeline();
        let packets: Vec<Vec<u8>> = (0..500u32).map(|i| vec![(i % 7) as u8]).collect();

        let mut sequential = pipeline.clone();
        let expected: Vec<ForwardDecision> = packets
            .iter()
            .map(|p| sequential.process(p, 0).unwrap())
            .collect();

        for workers in [1usize, 2, 8] {
            let cfg = EngineConfig {
                workers,
                batch_packets: 16,
                record_decisions: true,
                ..Default::default()
            };
            let report = run_trace(
                &pipeline,
                &cfg,
                first_byte_shard(),
                packets.iter().map(|p| (p.as_slice(), 0u64)),
            );
            assert!(report.error.is_none(), "{:?}", report.error);
            assert_eq!(report.decisions, expected, "workers={workers}");
            assert_eq!(report.stats.packets, packets.len() as u64);
            assert_eq!(report.per_worker.len(), workers);
            assert_eq!(report.faults, FaultStats::default());
            assert!(report.quarantined.is_empty());
        }
    }

    #[test]
    fn stats_aggregate_across_workers() {
        let pipeline = byte_pipeline();
        let packets: Vec<Vec<u8>> = (0..256u32).map(|i| vec![(i % 8) as u8]).collect();
        let cfg = EngineConfig {
            workers: 4,
            batch_packets: 8,
            ..Default::default()
        };
        let report = run_trace(
            &pipeline,
            &cfg,
            first_byte_shard(),
            packets.iter().map(|p| (p.as_slice(), 0u64)),
        );
        assert_eq!(report.stats.packets, 256);
        assert_eq!(report.stats.messages, 256);
        // Bytes 1..=4 forward (4 of every 8), the rest miss.
        assert_eq!(report.stats.forwarded_packets, 128);
        assert_eq!(report.stats.dropped_packets, 128);
        let worker_sum: u64 = report.per_worker.iter().map(|s| s.packets).sum();
        assert_eq!(worker_sum, 256);
        // Per-stage counters survive aggregation.
        assert_eq!(report.stats.table_hits.iter().sum::<u64>(), 128);
        assert_eq!(report.stats.table_misses.iter().sum::<u64>(), 128);
    }

    #[test]
    fn config_error_names_the_failing_packet() {
        // Byte 7 multicasts to a group never allocated. The worker runs
        // one wave over the whole batch; the packet it fails on is the
        // third submitted, whatever its position in the table-major
        // order, and the worker stops there.
        let mut pipeline = byte_pipeline();
        pipeline.tables[0]
            .add_entry(Entry {
                priority: 0,
                matches: vec![MatchValue::Exact(7)],
                ops: vec![ActionOp::Multicast(camus_pipeline::GroupId(99))],
            })
            .unwrap();
        let packets: Vec<Vec<u8>> = vec![vec![1], vec![], vec![7], vec![2], vec![7]];
        let cfg = EngineConfig {
            workers: 1,
            batch_packets: 16,
            ..Default::default()
        };
        let report = run_trace(
            &pipeline,
            &cfg,
            first_byte_shard(),
            packets.iter().map(|p| (p.as_slice(), 0u64)),
        );
        let error = report.error.expect("unknown group is a config error");
        assert_eq!(error.packet_seq, 2);
        assert_eq!(error.error, PipelineError::UnknownGroup(99));
    }

    #[test]
    fn malformed_packets_are_typed_drops_with_reconciled_counters() {
        // The parser needs one byte; an empty packet underflows — a
        // typed drop decision, not an error, and never a dead worker.
        let pipeline = byte_pipeline();
        let packets: Vec<Vec<u8>> = vec![vec![1], vec![], vec![2]];
        let cfg = EngineConfig {
            workers: 1,
            batch_packets: 1,
            record_decisions: true,
            ..Default::default()
        };
        let report = run_trace(
            &pipeline,
            &cfg,
            first_byte_shard(),
            packets.iter().map(|p| (p.as_slice(), 0u64)),
        );
        assert!(report.error.is_none(), "{:?}", report.error);
        assert_eq!(report.decisions.len(), 3);
        assert_eq!(report.decisions[0].ports, vec![PortId(1)]);
        assert_eq!(report.decisions[1].drop_reason, Some(ParseDrop::Underflow));
        assert_eq!(report.decisions[2].ports, vec![PortId(2)]);
        let s = &report.stats;
        assert_eq!(s.packets, 3);
        assert_eq!(s.drop_underflow, 1);
        assert_eq!(s.packets, s.forwarded_packets + s.dropped_packets);
        assert_eq!(s.malformed_packets(), 1);
    }

    #[test]
    fn stage_then_commit_swaps_rules_at_a_quiescence_point() {
        let pipeline = byte_pipeline();
        // Alternate generation: byte 1 forwards to port 9 instead of 1.
        let alt = byte_pipeline_sending_1_to(9);

        let cfg = EngineConfig {
            workers: 2,
            batch_packets: 4,
            record_decisions: true,
            ..Default::default()
        };
        let mut engine = Engine::start(&pipeline, &cfg, first_byte_shard());
        for _ in 0..40 {
            engine.submit(&[1], 0);
        }
        engine.quiesce().unwrap();
        // With nothing staged, neither phase-two call does anything.
        assert!(!engine.commit());
        assert!(!engine.abort());
        assert_eq!(engine.generation(), 0);
        // Staging publishes nothing, and a second stage replaces the
        // first: the one commit installs `alt`, not the seed again.
        engine.stage(pipeline.clone()).unwrap();
        engine.stage(alt.clone()).unwrap();
        assert_eq!(engine.generation(), 0);
        let installs = |e: &Engine, port| {
            let fwd = [ActionOp::Forward(PortId(port))];
            e.installed_tables()[0].entries().any(|x| x.ops == fwd)
        };
        assert!(installs(&engine, 1) && !installs(&engine, 9));
        assert!(engine.commit());
        assert_eq!(engine.generation(), 1);
        assert!(installs(&engine, 9) && !installs(&engine, 1));
        assert!(!engine.commit(), "the commit consumed the candidate");
        // An aborted candidate leaves no trace either.
        engine.stage(pipeline.clone()).unwrap();
        assert!(engine.abort());
        assert_eq!(engine.generation(), 1);
        for _ in 0..40 {
            engine.submit(&[1], 0);
        }
        let report = engine.finish();
        assert!(report.error.is_none(), "{:?}", report.error);
        // Zero loss: every submitted packet has a decision.
        assert_eq!(report.decisions.len(), 80);
        // Quiescence before the swap makes the cutover exact.
        for d in &report.decisions[..40] {
            assert_eq!(d.ports, vec![PortId(1)]);
        }
        for d in &report.decisions[40..] {
            assert_eq!(d.ports, vec![PortId(9)]);
        }
        assert_eq!(report.stats.packets, 80);
        assert_eq!(report.updates.published, 1);
        assert!(report.updates.adoptions >= 1, "{:?}", report.updates);
    }

    #[test]
    fn quiesce_is_reentrant_and_safe_when_idle() {
        let pipeline = byte_pipeline();
        let cfg = EngineConfig {
            workers: 3,
            batch_packets: 5,
            record_decisions: true,
            ..Default::default()
        };
        let mut engine = Engine::start(&pipeline, &cfg, first_byte_shard());
        engine.quiesce().unwrap(); // nothing submitted yet
        for i in 0..57u32 {
            engine.submit(&[(i % 7) as u8], 0);
        }
        engine.quiesce().unwrap();
        engine.quiesce().unwrap(); // already drained: no-op
        for i in 0..13u32 {
            engine.submit(&[(i % 7) as u8], 0);
        }
        let report = engine.finish();
        assert!(report.error.is_none());
        assert_eq!(report.stats.packets, 70);
        assert_eq!(report.decisions.len(), 70);
    }

    #[test]
    fn coalesced_generations_are_counted() {
        let pipeline = byte_pipeline();
        let alt = byte_pipeline_sending_1_to(9);
        let cfg = EngineConfig {
            workers: 1,
            batch_packets: 8,
            record_decisions: true,
            ..Default::default()
        };
        let mut engine = Engine::start(&pipeline, &cfg, first_byte_shard());
        engine.submit(&[1], 0);
        engine.quiesce().unwrap();
        // Three generations published back-to-back while the worker has
        // no traffic: it adopts only the last one.
        install(&mut engine, &alt).unwrap();
        install(&mut engine, &pipeline).unwrap();
        install(&mut engine, &alt).unwrap();
        for _ in 0..8 {
            engine.submit(&[1], 0);
        }
        let report = engine.finish();
        assert!(report.error.is_none());
        assert_eq!(report.updates.published, 3);
        assert_eq!(report.updates.adoptions, 1);
        assert_eq!(report.updates.coalesced, 2);
        assert_eq!(report.decisions.len(), 9);
        assert_eq!(report.decisions[0].ports, vec![PortId(1)]);
        for d in &report.decisions[1..] {
            assert_eq!(d.ports, vec![PortId(9)]);
        }
    }

    #[test]
    fn update_splits_a_partly_filled_batch_at_the_publish() {
        // Batches of 8 on one worker: three packets sit in the pending
        // batch when the update lands. They were submitted under the
        // old program and are decided by it; the five after it by the
        // new one, with no quiesce anywhere.
        let cfg = EngineConfig {
            workers: 1,
            batch_packets: 8,
            record_decisions: true,
            ..Default::default()
        };
        let mut engine = Engine::start(&byte_pipeline(), &cfg, first_byte_shard());
        let retired = Arc::clone(&engine.installed);
        for _ in 0..3 {
            engine.submit(&[1], 0);
        }
        let report = UpdateReport {
            rules_added: 0,
            rules_removed: 0,
            unsat_conjunctions: 0,
            total_entries: 4,
            entries_added: 1,
            entries_removed: 1,
            entries_kept: 3,
            full_rebuild: false,
            pipeline: byte_pipeline_sending_1_to(9),
        };
        engine.apply_update(&report).unwrap();
        assert_eq!(engine.generation(), 1);
        for _ in 0..5 {
            engine.submit(&[1], 0);
        }
        engine.quiesce().unwrap();
        // Every batch is back and re-stamped: nothing but this test
        // holds the retired program any more.
        assert_eq!(Arc::strong_count(&retired), 1);
        let report = engine.finish();
        assert!(report.error.is_none(), "{:?}", report.error);
        let ports: Vec<u16> = report.decisions.iter().map(|d| d.ports[0].0).collect();
        assert_eq!(ports, [1, 1, 1, 9, 9, 9, 9, 9]);
        assert_eq!(report.updates.published, 1);
        assert_eq!(report.updates.adoptions, 1);
        assert_eq!(report.updates.coalesced, 0);
    }

    #[test]
    fn empty_run_finishes_cleanly() {
        let pipeline = byte_pipeline();
        let report = run_trace(
            &pipeline,
            &EngineConfig {
                workers: 3,
                ..Default::default()
            },
            first_byte_shard(),
            std::iter::empty(),
        );
        assert_eq!(report.stats.packets, 0);
        assert!(report.error.is_none());
        assert_eq!(report.per_worker.len(), 3);
    }

    /// The spine, the worker choice and the cache slot each mix a key
    /// their own way: the keys one of two leaves, or one of two
    /// workers, receives still reach odd and even cache slots alike.
    #[test]
    fn a_shards_keys_reach_both_halves_of_its_cache() {
        let cache = DecisionCache::new(PhvLayout::new().add("sym", 64), DEFAULT_CACHE_SHIFT);
        let keys: Vec<u64> = (0..512u32)
            .map(|i| u64::from_be_bytes(*format!("S{i:07}").as_bytes().first_chunk().unwrap()))
            .collect();
        let parities = |shard: &dyn Fn(u64) -> bool| -> HashSet<usize> {
            keys.iter()
                .filter(|&&k| shard(k))
                .map(|&k| cache.slot(k) % 2)
                .collect()
        };
        for w in 0..2 {
            let halves = parities(&|k| shard::worker_of(k, 2) == w);
            assert_eq!(halves.len(), 2, "worker {w} of 2 reaches {halves:?}");
            let halves = parities(&|k| camus_core::partition::owner_of(k, 2) == w);
            assert_eq!(halves.len(), 2, "leaf {w} of 2 reaches {halves:?}");
        }
    }

    #[test]
    fn oversized_install_is_rejected_with_no_observable_change() {
        let pipeline = byte_pipeline();
        // Admission model that fits the 4-entry seed but not a 10-entry
        // candidate.
        let tiny = AsicModel {
            stages: 1,
            sram_entries_per_stage: 5,
            ..AsicModel::tofino32()
        };
        let mut big = byte_pipeline();
        for b in 5u64..=10 {
            big.tables[0]
                .add_entry(Entry {
                    priority: 0,
                    matches: vec![MatchValue::Exact(b)],
                    ops: vec![ActionOp::Forward(PortId(b as u16))],
                })
                .unwrap();
        }
        let cfg = EngineConfig {
            workers: 2,
            batch_packets: 4,
            record_decisions: true,
            admission: Some(tiny),
            ..Default::default()
        };
        let mut engine = Engine::start(&pipeline, &cfg, first_byte_shard());
        for _ in 0..8 {
            engine.submit(&[1], 0);
        }
        let before_tables = engine.installed_tables().to_vec();
        let err = install(&mut engine, &big).unwrap_err();
        let EngineFault::Admission(adm) = &err else {
            panic!("expected Admission, got {err}");
        };
        assert_eq!(adm.needed, 10);
        assert_eq!(adm.available, 5);
        // Zero observable state change: entry-for-entry identical
        // tables, no generation bump.
        assert!(!engine.commit(), "a rejected candidate is not staged");
        for (a, b) in before_tables.iter().zip(engine.installed_tables()) {
            let ea: Vec<_> = a.entries().collect();
            let eb: Vec<_> = b.entries().collect();
            assert_eq!(ea, eb);
        }
        assert_eq!(engine.generation(), 0);
        for _ in 0..8 {
            engine.submit(&[1], 0);
        }
        let report = engine.finish();
        assert_eq!(report.updates.published, 0);
        assert_eq!(report.faults.updates_rejected, 1);
        // Forwarding continued under the original rules throughout.
        assert_eq!(report.decisions.len(), 16);
        for d in &report.decisions {
            assert_eq!(d.ports, vec![PortId(1)]);
        }
    }

    #[test]
    fn supervised_panic_quarantines_batch_and_worker_survives() {
        let pipeline = byte_pipeline();
        let cfg = EngineConfig {
            workers: 1,
            batch_packets: 2,
            record_decisions: true,
            faults: FaultInjection {
                // Seq 3 lands in the second batch {2, 3}.
                panic_seqs: Arc::new([3u64].into_iter().collect()),
                ..Default::default()
            },
            ..Default::default()
        };
        let mut engine = Engine::start(&pipeline, &cfg, first_byte_shard());
        for _ in 0..8 {
            engine.submit(&[1], 0);
        }
        let report = engine.finish();
        assert!(report.error.is_none(), "{:?}", report.error);
        assert_eq!(report.faults.panics_caught, 1);
        assert_eq!(report.faults.batches_quarantined, 1);
        assert_eq!(report.quarantined.len(), 2);
        assert_eq!(report.faults.worker_deaths, 0);
        assert_eq!(report.quarantined, vec![2, 3]);
        // The other six packets were all decided; counters reconcile.
        assert_eq!(report.decisions.len(), 6);
        assert_eq!(report.stats.packets, 6);
        assert_eq!(report.stats.packets + report.quarantined.len() as u64, 8u64);
        for d in &report.decisions {
            assert_eq!(d.ports, vec![PortId(1)]);
        }
    }

    #[test]
    fn dead_worker_is_respawned_and_forwarding_resumes() {
        let pipeline = byte_pipeline();
        let cfg = EngineConfig {
            workers: 1,
            batch_packets: 2,
            record_decisions: true,
            faults: FaultInjection {
                die_seqs: Arc::new([3u64].into_iter().collect()),
                ..Default::default()
            },
            ..Default::default()
        };
        let mut engine = Engine::start(&pipeline, &cfg, first_byte_shard());
        for _ in 0..4 {
            engine.submit(&[1], 0);
        }
        // Drain: detects the death, respawns, and quarantines the
        // batch that killed the worker.
        engine.quiesce().unwrap();
        for _ in 0..4 {
            engine.submit(&[1], 0);
        }
        let report = engine.finish();
        assert!(report.error.is_none(), "{:?}", report.error);
        assert_eq!(report.faults.worker_deaths, 1);
        assert_eq!(report.faults.respawns, 1);
        assert_eq!(report.quarantined, vec![2, 3]);
        // Post-recovery forwarding is identical to the healthy run.
        assert_eq!(report.decisions.len(), 6);
        for d in &report.decisions {
            assert_eq!(d.ports, vec![PortId(1)]);
        }
        assert_eq!(report.stats.packets + report.quarantined.len() as u64, 8u64);
    }

    #[test]
    fn quiesce_times_out_on_a_stalled_worker_and_recovers() {
        let pipeline = byte_pipeline();
        let cfg = EngineConfig {
            workers: 1,
            batch_packets: 1,
            record_decisions: true,
            watchdog_ms: 40,
            ..Default::default()
        };
        let mut engine = Engine::start(&pipeline, &cfg, first_byte_shard());
        // Armed before the first submit: the one worker stalls on the
        // first batch, which is seq 0 alone.
        engine.inject_stall(400);
        engine.submit(&[1], 0);
        let err = engine.quiesce().unwrap_err();
        let EngineFault::QuiesceTimeout {
            worker,
            outstanding,
            waited_ms,
        } = err
        else {
            panic!("expected QuiesceTimeout, got {err}");
        };
        assert_eq!(worker, 0);
        assert_eq!(outstanding, 1);
        assert_eq!(waited_ms, 40);
        // Re-entrant: keep retrying until the stall clears.
        let mut tries = 0;
        while engine.quiesce().is_err() {
            tries += 1;
            assert!(tries < 100, "stall never cleared");
        }
        let report = engine.finish();
        assert!(report.error.is_none());
        assert_eq!(report.decisions.len(), 1);
        assert_eq!(report.decisions[0].ports, vec![PortId(1)]);
    }

    #[test]
    fn decision_cache_preserves_decisions_and_counts_hits() {
        let pipeline = byte_pipeline();
        let packets: Vec<Vec<u8>> = (0..400u32).map(|i| vec![(i % 7) as u8]).collect();
        let run = |cache: Option<String>| {
            let cfg = EngineConfig {
                workers: 2,
                batch_packets: 16,
                record_decisions: true,
                decision_cache: cache,
                ..Default::default()
            };
            run_trace(
                &pipeline,
                &cfg,
                first_byte_shard(),
                packets.iter().map(|p| (p.as_slice(), 0u64)),
            )
        };
        let off = run(None);
        let on = run(Some("sym".into()));
        assert!(on.error.is_none(), "{:?}", on.error);
        // Bit-identical forwarding and counters, cache on vs off.
        assert_eq!(on.decisions, off.decisions);
        assert_eq!(on.stats, off.stats);
        assert_eq!(off.hotpath.cache_hits + off.hotpath.cache_misses, 0);
        // 7 distinct keys, each on one worker and no two in one slot:
        // each key's first sighting misses and every later one hits,
        // repeats inside one 16-packet batch included — exactly as a
        // cache consulted one message at a time counts them.
        assert_eq!((on.hotpath.cache_hits, on.hotpath.cache_misses), (393, 7));
        assert_eq!(
            on.hotpath.cache_hits + on.hotpath.cache_misses,
            on.stats.messages
        );
    }

    #[test]
    fn unknown_cache_field_is_silently_disabled() {
        // An absent field and `None` both run without a cache, also for
        // a program that arrives armed by its caller: the config alone
        // decides.
        let mut armed = byte_pipeline();
        let sym = armed.layout.get("sym").unwrap();
        assert!(armed.enable_decision_cache(sym, 4));
        let packets: Vec<Vec<u8>> = (0..16u32).map(|i| vec![(i % 5) as u8]).collect();
        for pipeline in [byte_pipeline(), armed] {
            for decision_cache in [Some("no.such.field".to_string()), None] {
                let cfg = EngineConfig {
                    workers: 1,
                    batch_packets: 4,
                    record_decisions: true,
                    decision_cache,
                    ..Default::default()
                };
                let report = run_trace(
                    &pipeline,
                    &cfg,
                    first_byte_shard(),
                    packets.iter().map(|p| (p.as_slice(), 0u64)),
                );
                assert!(report.error.is_none());
                let h = report.hotpath;
                let counts = (h.cache_hits, h.cache_misses, h.cache_evictions);
                assert_eq!(counts, (0, 0, 0), "{cfg:?}");
                assert_eq!(report.decisions.len(), 16);
            }
        }
    }

    #[test]
    fn install_invalidates_worker_caches() {
        // A cached decision must never survive a generation bump: cache
        // port 1 for byte 1, swap in a program that forwards byte 1 to
        // port 9, and check no stale hit leaks through.
        let pipeline = byte_pipeline();
        let alt = byte_pipeline_sending_1_to(9);
        let cfg = EngineConfig {
            workers: 1,
            batch_packets: 4,
            record_decisions: true,
            decision_cache: Some("sym".into()),
            ..Default::default()
        };
        let mut engine = Engine::start(&pipeline, &cfg, first_byte_shard());
        for _ in 0..20 {
            engine.submit(&[1], 0);
        }
        engine.quiesce().unwrap();
        install(&mut engine, &alt).unwrap();
        for _ in 0..20 {
            engine.submit(&[1], 0);
        }
        let report = engine.finish();
        assert!(report.error.is_none(), "{:?}", report.error);
        for d in &report.decisions[..20] {
            assert_eq!(d.ports, vec![PortId(1)]);
        }
        for d in &report.decisions[20..] {
            assert_eq!(d.ports, vec![PortId(9)]);
        }
        // Both generations were cached: ≥2 misses, plenty of hits —
        // more than the first 20 packets could give, though `alt`
        // arrived with no cache of its own: `stage` arms it.
        assert!(report.hotpath.cache_misses >= 2, "{:?}", report.hotpath);
        assert!(report.hotpath.cache_hits >= 30, "{:?}", report.hotpath);
    }

    /// [`byte_pipeline`] plus a row that counts byte 9 in a register:
    /// a generation the decision cache must not arm on.
    fn counting_pipeline() -> Pipeline {
        let mut p = byte_pipeline();
        let slot = p.registers.allocate(0);
        p.tables[0]
            .add_entry(Entry {
                priority: 0,
                matches: vec![MatchValue::Exact(9)],
                ops: vec![ActionOp::Register {
                    slot,
                    op: RegOp::Increment,
                }],
            })
            .unwrap();
        p
    }

    /// One worker with the cache on `sym` runs `packets` packets of
    /// byte 1 under each program of `generations` in turn, installed one
    /// after the other; returns the report.
    fn run_generations(generations: &[Pipeline], packets: usize) -> EngineReport {
        let cfg = EngineConfig {
            workers: 1,
            batch_packets: 4,
            record_decisions: true,
            decision_cache: Some("sym".into()),
            ..Default::default()
        };
        let mut engine = Engine::start(&generations[0], &cfg, first_byte_shard());
        for (i, program) in generations.iter().enumerate() {
            if i > 0 {
                install(&mut engine, program).unwrap();
            }
            for _ in 0..packets {
                engine.submit(&[1], 0);
            }
        }
        let report = engine.finish();
        assert!(report.error.is_none(), "{:?}", report.error);
        report
    }

    #[test]
    fn cache_rearms_after_a_stateful_generation() {
        // Cacheable → register-writing → cacheable: the worker's cache
        // is dropped for the middle generation and re-armed for the
        // third, whose hits count beside the first one's — one miss
        // and 19 hits per cacheable generation, none in between.
        let programs = [
            byte_pipeline(),
            counting_pipeline(),
            byte_pipeline_sending_1_to(9),
        ];
        let report = run_generations(&programs, 20);
        assert_eq!(report.updates.adoptions, 2);
        let ports: Vec<u16> = report.decisions.iter().map(|d| d.ports[0].0).collect();
        assert_eq!(ports, [vec![1; 40], vec![9; 20]].concat());
        assert_eq!(
            (report.hotpath.cache_hits, report.hotpath.cache_misses),
            (38, 2)
        );
    }

    #[test]
    fn cache_counts_survive_a_disarming_generation() {
        // The counts of a cache the worker drops at adoption stay in
        // the worker's record and reach the report.
        let report = run_generations(&[byte_pipeline(), counting_pipeline()], 20);
        assert_eq!(report.stats.packets, 40);
        assert_eq!(
            (report.hotpath.cache_hits, report.hotpath.cache_misses),
            (19, 1)
        );
    }

    #[test]
    fn telemetry_snapshot_carries_hotpath_counters() {
        let pipeline = byte_pipeline();
        let cfg = EngineConfig {
            workers: 1,
            batch_packets: 8,
            telemetry: true,
            decision_cache: Some("sym".into()),
            ..Default::default()
        };
        let packets: Vec<Vec<u8>> = (0..64u32).map(|i| vec![(i % 3) as u8]).collect();
        let report = run_trace(
            &pipeline,
            &cfg,
            first_byte_shard(),
            packets.iter().map(|p| (p.as_slice(), 0u64)),
        );
        let snap = report.telemetry.expect("telemetry requested");
        assert_eq!(snap.hotpath.cache_hits, report.hotpath.cache_hits);
        assert_eq!(snap.hotpath.cache_misses, report.hotpath.cache_misses);
        assert_eq!(snap.hotpath.ring_full_spins, report.hotpath.ring_full_spins);
        assert_eq!(
            snap.hotpath.ring_empty_spins,
            report.hotpath.ring_empty_spins
        );
        assert!(report.hotpath.cache_hits > 0);
    }

    #[test]
    fn simulated_crash_quarantines_everything_and_kills_the_control_plane() {
        let pipeline = byte_pipeline();
        let cfg = EngineConfig {
            workers: 2,
            batch_packets: 1,
            ..EngineConfig::default()
        };
        let mut engine = Engine::start(&pipeline, &cfg, first_byte_shard());
        for i in 0..100u32 {
            engine.submit(&[(i % 4 + 1) as u8], 0);
        }
        engine.quiesce().unwrap();
        assert!(engine.is_alive());

        engine.simulate_crash();
        engine.simulate_crash(); // idempotent
        assert!(!engine.is_alive());
        assert!(matches!(engine.quiesce(), Err(EngineFault::Killed)));
        assert!(matches!(
            engine.stage(pipeline.clone()),
            Err(EngineFault::Killed)
        ));
        assert!(!engine.commit(), "a dead node stages nothing to commit");

        // Packets delivered to the dead node are never processed and
        // never silently dropped: all 50 land in quarantine, while the
        // 100 pre-crash (quiesced) packets keep their decisions.
        for i in 0..50u32 {
            engine.submit(&[(i % 4 + 1) as u8], 0);
        }
        let report = engine.finish();
        assert_eq!(report.stats.packets, 100);
        assert_eq!(report.quarantined.len(), 50);
        assert!(report.faults.worker_deaths >= 2);
    }
}
