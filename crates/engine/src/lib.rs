//! # camus-engine — a multi-core sharded forwarding engine
//!
//! Wraps the sequential [`Pipeline`](camus_pipeline::Pipeline) executor
//! with N worker threads (std-only: `std::thread` plus lock-free
//! bounded [SPSC rings](ring)), and shards packets RSS-style on a flow
//! key — by default the ITCH stock symbol
//! ([`shard::itch_symbol_shard`]).
//!
//! Camus's stateful rules (`@query_counter`) are keyed on the stock
//! symbol, so symbol sharding keeps every register slot's updates on
//! exactly one worker and the engine's forwarding decisions are
//! **bit-identical** to running the sequential executor over the same
//! trace (verified by the determinism test). Workers share one
//! immutable compiled program behind an `Arc` and keep their mutable
//! state (registers, counters, decision cache) in a per-worker
//! [`ShardCtx`](camus_pipeline::ShardCtx); each processes its packets
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
//! ([`EngineConfig::decision_cache`] — hits skip the match chain
//! entirely, RCU generation bumps invalidate for free). Cache and
//! ring counters surface in [`EngineReport::hotpath`] and, when
//! telemetry is on, in the merged [`TelemetrySnapshot`].
//!
//! ## Update plane
//!
//! A program reaches the workers one way: [`Engine::stage`] normalises
//! a candidate and charges it against the admission model *off* the
//! packet hot path, then [`Engine::commit`] moves it into the `Arc`
//! the workers share — the engine's only copy of the installed program
//! — and bumps an atomic generation counter, RCU-style
//! ([`Engine::abort`] drops it instead). [`Engine::apply_update`] is
//! that pair in one call for the incremental compiler (§3's "highly
//! dynamic queries"): the program an
//! [`UpdateReport`](camus_core::UpdateReport) carries *is* the next
//! generation. Workers only ever adopt a whole `Arc<Pipeline>`, so the
//! report's per-table entry deltas — what a hardware control plane
//! would push — are not replayed here; the engine installs what the
//! session emitted and keeps no second derivation of it. Workers poll
//! the counter once per batch and adopt the published pipeline at the
//! batch boundary, carrying their `@query_counter` register state and
//! execution counters over — so every packet is processed by exactly
//! one complete rule-set generation, none is dropped during an update,
//! and stateful windows never reset. [`Engine::quiesce`] drains every
//! in-flight batch, after which forwarding is bit-identical to a fresh
//! full compile of the cumulative rule set (the differential churn
//! tests enforce this).
//!
//! ## Fault tolerance
//!
//! The paper's feasibility argument (§4) is that compiled subscription
//! tables *fit in switch memory*; this engine makes that a runtime
//! invariant rather than an offline observation. Every candidate
//! [`Engine::stage`] takes — and so every [`Engine::apply_update`] —
//! is charged against the configured [`AsicModel`] ([`admit`]: the
//! same [`place_chain`](camus_pipeline::place_chain) arithmetic the
//! offline compiler reports) *before* publication: an over-committing
//! update is rejected with a typed [`EngineFault::Admission`] and **zero
//! observable state change** — no generation bump, entry-for-entry
//! identical tables before and after.
//!
//! On the data plane, workers are supervised: each batch runs under
//! `catch_unwind`, a panicking batch is quarantined (its packets get
//! no decisions; counters roll back to the batch boundary) and the
//! worker keeps serving its shard. A worker thread that dies outright
//! is detected at the next send, its unprocessed batches are counted
//! as quarantined, and a replacement is respawned from the installed
//! program (its initial register state, its armed decision cache).
//! [`Engine::quiesce`] waits on a bounded watchdog and returns a typed
//! [`EngineFault::QuiesceTimeout`] instead of spinning forever on a
//! wedged worker. All of it surfaces in the report as [`FaultStats`]
//! plus the exact quarantined sequence numbers, so zero-loss
//! accounting (`submitted == decided + quarantined`) is checkable.
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
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use camus_core::UpdateReport;
use camus_pipeline::resources::place_chain;
use camus_pipeline::{
    AdmissionError, AsicModel, DecisionBuf, ExecStats, ForwardDecision, Pipeline, PipelineError,
    ShardCtx, Table, DEFAULT_CACHE_SHIFT,
};
use camus_telemetry::{DataPlaneTelemetry, SpanKind, SpanSet, SpanTimer, TableCounters};

pub use camus_telemetry::TelemetrySnapshot;
pub use shard::ShardFn;

/// Stage-timing sample cadence when [`EngineConfig::telemetry`] is on:
/// every 64th packet gets per-stage clock reads. Chosen so the
/// measured instrumentation overhead stays under the 5 % throughput
/// budget even on single-core hosts, where clock reads are the
/// dominant cost (the linerate bench's A/B row proves it).
pub const TELEMETRY_SAMPLE_SHIFT: u32 = 6;

/// The RCU-style publication slot shared between the control plane
/// and the workers: a monotonically increasing generation counter and
/// the pipeline it corresponds to. The `Release` bump in
/// `Engine::publish_staged` paired with the `Acquire` load at each batch
/// boundary guarantees a worker that observes generation `g` also
/// observes the pipeline published with it; batches submitted after
/// `apply_update` returns are always processed at generation ≥ `g`.
struct Published {
    generation: AtomicU64,
    slot: Mutex<Arc<Pipeline>>,
}

impl Published {
    /// Clones the current slot, recovering from a poisoned lock (the
    /// slot is only ever *replaced* under the lock, never left
    /// half-written, so the value is valid even after a panic).
    fn snapshot(&self) -> Arc<Pipeline> {
        self.slot.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

/// Update-plane counters, aggregated into the [`EngineReport`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Pipeline generations published (delta updates + full swaps).
    pub published: u64,
    /// [`Engine::apply_update`]s whose report stayed on the compiler's
    /// delta path (`full_rebuild` unset).
    pub delta_updates: u64,
    /// Whole programs swapped in: an [`Engine::apply_update`] whose
    /// report says `full_rebuild`, or an [`Engine::commit`] of a
    /// staged candidate.
    pub full_swaps: u64,
    /// Generation adoptions performed by workers at batch boundaries
    /// (summed across workers).
    pub adoptions: u64,
    /// Generations a worker skipped over because several were
    /// published between two of its batches — updates deferred to a
    /// batch boundary and coalesced there (summed across workers).
    pub coalesced: u64,
}

/// Fault-plane counters, aggregated into the [`EngineReport`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Worker panics caught by the per-batch supervisor, plus worker
    /// threads that unwound entirely (unsupervised panics).
    pub panics_caught: u64,
    /// Batches quarantined (panicked under supervision, scripted to
    /// die, or lost inside a dead worker).
    pub batches_quarantined: u64,
    /// Packets inside quarantined batches — these get no forwarding
    /// decision and are listed in [`EngineReport::quarantined`].
    pub packets_quarantined: u64,
    /// Worker threads that stopped serving their shard (scripted
    /// deaths + unsupervised panics).
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
        self.packets_quarantined += other.packets_quarantined;
        self.worker_deaths += other.worker_deaths;
        self.respawns += other.respawns;
        self.updates_rejected += other.updates_rejected;
    }
}

/// Deterministic fault-injection hooks, consulted by workers on the
/// batch path. Empty sets (the default) cost one branch per batch.
/// Sequence numbers refer to [`Engine::submit`] order, matching the
/// seqs a [`FaultPlan`](camus_workload) produces.
#[derive(Debug, Clone, Default)]
pub struct FaultInjection {
    /// A batch containing any of these seqs panics before processing.
    /// Under supervision ([`EngineConfig::supervise`]) the batch is
    /// quarantined and the worker survives; unsupervised, the worker
    /// thread unwinds and dies.
    pub panic_seqs: Arc<HashSet<u64>>,
    /// A batch containing any of these seqs makes the worker exit
    /// cleanly without processing it (a scripted crash): the batch is
    /// quarantined and the engine respawns the worker on detection.
    pub die_seqs: Arc<HashSet<u64>>,
    /// A batch containing any of these seqs stalls for
    /// [`FaultInjection::stall_ms`] before processing — the hook the
    /// quiesce watchdog is tested against.
    pub stall_seqs: Arc<HashSet<u64>>,
    /// Stall duration for `stall_seqs`, milliseconds.
    pub stall_ms: u64,
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
    /// Run each batch under `catch_unwind`: a panicking batch is
    /// quarantined and the worker survives. On (the default) this
    /// costs a counter snapshot per batch; off, a panic kills the
    /// worker thread and the engine falls back to respawning it.
    pub supervise: bool,
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
    /// histograms, sampled at [`TELEMETRY_SAMPLE_SHIFT`]) and attach a
    /// merged [`TelemetrySnapshot`] to the report. Off by default: the
    /// uninstrumented hot path has zero clock reads.
    pub telemetry: bool,
    /// Arm a per-worker [decision cache](camus_pipeline::DecisionCache)
    /// keyed on the named PHV field — use the same field the shard
    /// function keys on (e.g. `"add_order.stock"`). A cache hit skips
    /// the whole match chain; every published generation invalidates
    /// all caches at the adoption boundary, so cached decisions are
    /// always from the live rule set. Silently disabled when the field
    /// is unknown or the installed program is not provably cacheable
    /// (stateful bindings, register ops, non-parser-sourced keys — see
    /// [`Pipeline::cacheable_on`]). `None` (default) = off.
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
            supervise: true,
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
/// allocation in it at once.
#[derive(Debug, Default)]
struct Batch {
    seqs: Vec<u64>,
    times: Vec<u64>,
    ends: Vec<usize>,
    bytes: Vec<u8>,
}

impl Batch {
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

/// Hot-path counters, aggregated into the [`EngineReport`] regardless
/// of whether full telemetry is on (they are plain adds, not clock
/// reads, so they ride the uninstrumented path for free).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HotPathStats {
    /// Decision-cache hits — packets whose match chain was skipped.
    pub cache_hits: u64,
    /// Decision-cache misses (full chain ran, result memoized).
    pub cache_misses: u64,
    /// Decision-cache slots overwritten by a conflicting key.
    pub cache_evictions: u64,
    /// Producer wait iterations on full rings (engine blocked on a
    /// lagging worker, plus workers blocked returning batches).
    pub ring_full_spins: u64,
    /// Consumer wait iterations on empty rings (workers starved for
    /// input, plus the engine draining recycle rings).
    pub ring_empty_spins: u64,
}

impl HotPathStats {
    fn merge(&mut self, other: &HotPathStats) {
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_evictions += other.cache_evictions;
        self.ring_full_spins += other.ring_full_spins;
        self.ring_empty_spins += other.ring_empty_spins;
    }
}

struct WorkerOutput {
    index: usize,
    stats: ExecStats,
    decisions: Vec<(u64, ForwardDecision)>,
    error: Option<EngineError>,
    adoptions: u64,
    coalesced: u64,
    faults: FaultStats,
    quarantined: Vec<u64>,
    died: bool,
    telemetry: Option<Box<DataPlaneTelemetry>>,
    hotpath: HotPathStats,
    /// Final `@query_counter` register contents — the state-extraction
    /// hook a fabric uses to tell salvageable per-shard state from
    /// state that died with its node.
    registers: camus_pipeline::register::RegisterFile,
}

struct WorkerHandle {
    tx: ring::Producer<Batch>,
    recycle_rx: ring::Consumer<Batch>,
    pending: Batch,
    /// Batches sent but not yet returned through the recycle channel —
    /// i.e. not yet fully processed by the worker.
    outstanding: usize,
    /// Sequence numbers of each outstanding batch, FIFO (batches come
    /// back in send order). This is what lets the engine account for
    /// every packet inside a worker that died mid-stream.
    in_flight: VecDeque<Vec<u64>>,
    /// Recycled seq vectors for `in_flight` (allocation-free steady
    /// state, like the batch pool).
    seq_pool: Vec<Vec<u64>>,
    /// Drained batches ready for reuse.
    pool: Vec<Batch>,
    handle: JoinHandle<WorkerOutput>,
}

/// The engine-level report: aggregated and per-worker counters, plus
/// (optionally) every forwarding decision in submission order.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Worker threads that ran.
    pub workers: usize,
    /// Aggregated execution counters across all workers.
    pub stats: ExecStats,
    /// Per-worker execution counters (index = worker slot; a respawned
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
    /// Submission seqs of every quarantined packet, sorted. Zero-loss
    /// invariant: `submitted == stats.packets + quarantined.len()`
    /// (exact whenever no *unsupervised* panic destroyed a worker's
    /// counters).
    pub quarantined: Vec<u64>,
    /// Merged cross-shard telemetry (histograms, spans, per-table
    /// counters); `Some` iff [`EngineConfig::telemetry`] was set.
    pub telemetry: Option<TelemetrySnapshot>,
    /// Decision-cache and ring back-pressure counters, summed across
    /// workers and the engine thread. Always collected.
    pub hotpath: HotPathStats,
    /// Final per-worker `@query_counter` register contents (index =
    /// worker slot; a respawned worker's final state replaces its
    /// predecessor's). The state-extraction hook a fabric reads to
    /// account salvageable vs. lost per-shard state at failover.
    pub final_registers: Vec<camus_pipeline::register::RegisterFile>,
}

/// A running multi-core engine. Create with [`Engine::start`], feed it
/// with [`Engine::submit`], then call [`Engine::finish`] to join the
/// workers and collect the [`EngineReport`].
pub struct Engine {
    workers: Vec<WorkerHandle>,
    shard: ShardFn,
    cfg: EngineConfig,
    next_seq: u64,
    /// The installed program — the allocation the published slot and
    /// the workers share, held here to be read without the slot's lock.
    installed: Arc<Pipeline>,
    /// A candidate [`Engine::stage`] accepted but not yet published: a
    /// fabric's two-phase epoch holds the new program here across
    /// every leaf before committing any of them.
    staged: Option<Pipeline>,
    published: Arc<Published>,
    delta_updates: u64,
    full_swaps: u64,
    updates_rejected: u64,
    respawns: u64,
    /// Panics that unwound a whole worker thread (no output survived).
    unwound_workers: u64,
    /// Seqs of packets that went down with a dead worker.
    lost: Vec<u64>,
    /// Batches those seqs arrived in (for quarantine accounting).
    lost_batches: u64,
    /// Outputs harvested from workers that died and were replaced.
    retired: Vec<WorkerOutput>,
    /// Control-plane span timings (updates, quiesce, respawns).
    spans: SpanSet,
    /// Engine-side ring waits harvested from retired handles (the live
    /// handles' counters are read at [`Engine::finish`]).
    ring_full_spins: u64,
    ring_empty_spins: u64,
    /// Node-crash flag ([`Engine::simulate_crash`]): workers check it
    /// once per batch and abandon ship; the control plane refuses
    /// every operation with [`EngineFault::Killed`].
    killed: Arc<AtomicBool>,
    /// One-shot runtime stall, milliseconds ([`Engine::inject_stall`]):
    /// the next worker to start a batch consumes it and sleeps,
    /// modelling a transient whole-node hiccup (GC pause, link flap)
    /// that a quiesce barrier then times out on. Unlike
    /// [`FaultInjection::stall_seqs`] it needs no seq planned at
    /// startup, so a chaos harness can script it mid-run.
    stall_signal: Arc<AtomicU64>,
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    index: usize,
    mut program: Arc<Pipeline>,
    mut ctx: ShardCtx,
    mut rx: ring::Consumer<Batch>,
    mut recycle_tx: ring::Producer<Batch>,
    record: bool,
    published: Arc<Published>,
    start_gen: u64,
    supervise: bool,
    injection: FaultInjection,
    killed: Arc<AtomicBool>,
    stall_signal: Arc<AtomicU64>,
) -> WorkerOutput {
    let mut out = DecisionBuf::default();
    let mut decisions: Vec<(u64, ForwardDecision)> = Vec::new();
    let mut error: Option<EngineError> = None;
    let mut seen_gen = start_gen;
    let mut adoptions = 0u64;
    let mut coalesced = 0u64;
    let mut faults = FaultStats::default();
    let mut quarantined: Vec<u64> = Vec::new();
    let mut died = false;
    // Counter snapshot for panic rollback; reused every batch.
    let mut stats_backup = ExecStats::default();
    let has_panics = !injection.panic_seqs.is_empty();
    let has_deaths = !injection.die_seqs.is_empty();
    let has_stalls = !injection.stall_seqs.is_empty();
    while let Some(batch) = rx.pop_blocking() {
        // Node-crash check first: a killed node abandons the popped
        // batch *un-recycled* and stops cold, exactly like a scripted
        // worker death — so the engine's in-flight ledger accounts
        // every packet the crash took down, and detection rides the
        // same recycle-ring hangup path.
        if killed.load(Ordering::Acquire) {
            died = true;
            break;
        }
        // Scripted runtime stall: one worker consumes the pending
        // signal and sleeps before touching the batch, so an armed
        // quiesce barrier observes the hiccup deterministically.
        let stall_ms = stall_signal.swap(0, Ordering::AcqRel);
        if stall_ms > 0 {
            std::thread::sleep(Duration::from_millis(stall_ms));
        }
        // Batch boundary: adopt the latest published generation, so
        // every packet in this batch runs under one complete rule set.
        // Adoption re-points the shared `Arc` — no pipeline clone on
        // the worker; `ShardCtx::adopt` carries `@query_counter`
        // windows and execution counters over (never reset) and
        // invalidates the decision cache, which is what makes cached
        // decisions always come from the live generation.
        let generation = published.generation.load(Ordering::Acquire);
        if generation != seen_gen {
            let next = published.snapshot();
            ctx.adopt(&next);
            adoptions += 1;
            coalesced += generation - seen_gen - 1;
            seen_gen = generation;
            program = next;
        }
        if has_deaths && batch.seqs.iter().any(|s| injection.die_seqs.contains(s)) {
            // Scripted worker death: abandon the batch *without*
            // recycling it and stop serving the shard, with everything
            // accumulated so far intact. Leaving the batch outstanding
            // is what makes detection deterministic — the engine's
            // next wait on the recycle ring sees the hangup, and its
            // in-flight ledger quarantines the batch.
            died = true;
            break;
        }
        if error.is_none() {
            if supervise {
                stats_backup.copy_from(&ctx.exec.stats);
            }
            out.clear();
            let run = |ctx: &mut ShardCtx, out: &mut DecisionBuf| {
                if has_panics && batch.seqs.iter().any(|s| injection.panic_seqs.contains(s)) {
                    panic!("injected worker panic (fault harness)");
                }
                if has_stalls && batch.seqs.iter().any(|s| injection.stall_seqs.contains(s)) {
                    std::thread::sleep(Duration::from_millis(injection.stall_ms));
                }
                program.process_batch_shared(ctx, batch.iter(), out)
            };
            let result = if supervise {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(&mut ctx, &mut out)))
            } else {
                Ok(run(&mut ctx, &mut out))
            };
            match result {
                Ok(Ok(())) => {
                    if record {
                        for (i, d) in out.iter().enumerate() {
                            decisions.push((batch.seqs[i], d.clone()));
                        }
                    }
                }
                Ok(Err(e)) => {
                    // The failing packet's slot is the last one claimed.
                    let seq = batch.seqs[out.len().saturating_sub(1)];
                    error = Some(EngineError {
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
                    faults.panics_caught += 1;
                    faults.batches_quarantined += 1;
                    faults.packets_quarantined += batch.len() as u64;
                    quarantined.extend_from_slice(&batch.seqs);
                    ctx.exec.stats.copy_from(&stats_backup);
                }
            }
        }
        // Hand the batch back for reuse; the engine may already be
        // finishing, in which case the recycle side is simply gone.
        let _ = recycle_tx.push_blocking(batch);
    }
    let cache = ctx.exec.cache_stats();
    let hotpath = HotPathStats {
        cache_hits: cache.as_ref().map_or(0, |c| c.hits),
        cache_misses: cache.as_ref().map_or(0, |c| c.misses),
        cache_evictions: cache.as_ref().map_or(0, |c| c.evictions),
        ring_full_spins: recycle_tx.full_spins(),
        ring_empty_spins: rx.empty_spins(),
    };
    let mut telemetry = ctx.exec.take_telemetry();
    if let Some(t) = telemetry.as_deref_mut() {
        t.add_hotpath(
            hotpath.cache_hits,
            hotpath.cache_misses,
            hotpath.cache_evictions,
            hotpath.ring_full_spins,
            hotpath.ring_empty_spins,
        );
    }
    WorkerOutput {
        index,
        stats: ctx.exec.stats.clone(),
        decisions,
        error,
        adoptions,
        coalesced,
        faults,
        quarantined,
        died,
        telemetry,
        hotpath,
        registers: ctx.registers,
    }
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
        let installed = Arc::new(seed);
        let published = Arc::new(Published {
            generation: AtomicU64::new(0),
            slot: Mutex::new(Arc::clone(&installed)),
        });
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
            installed,
            staged: None,
            published,
            delta_updates: 0,
            full_swaps: 0,
            updates_rejected: 0,
            respawns: 0,
            unwound_workers: 0,
            lost: Vec::new(),
            lost_batches: 0,
            retired: Vec::new(),
            spans: SpanSet::new(),
            ring_full_spins: 0,
            ring_empty_spins: 0,
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
        let start_gen = self.published.generation.load(Ordering::Acquire);
        let program = Arc::clone(&self.installed);
        // The compiled program is shared read-only behind the Arc; the
        // worker's mutable state (registers, counters, hoist scratch,
        // decision cache) lives in its own ShardCtx, cloned from the
        // installed program — no pipeline clone per worker.
        let mut ctx = ShardCtx {
            registers: program.registers.clone(),
            exec: program.exec.clone(),
        };
        if self.cfg.telemetry {
            ctx.exec.enable_telemetry(TELEMETRY_SAMPLE_SHIFT);
        }
        // Input ring depth ≈ queue_batches (rounded to a power of
        // two). The recycle ring gets headroom: at most queue+2
        // batches ever exist per worker (pool growth stops once the
        // input ring fills), so a (queue+4)-deep recycle ring means a
        // worker's return push never blocks in steady state.
        let (tx, rx) = ring::ring::<Batch>(self.cfg.queue_batches);
        let (recycle_tx, recycle_rx) = ring::ring::<Batch>(self.cfg.queue_batches + 4);
        let record = self.cfg.record_decisions;
        let supervise = self.cfg.supervise;
        let injection = self.cfg.faults.clone();
        let worker_published = Arc::clone(&self.published);
        let worker_killed = Arc::clone(&self.killed);
        let worker_stall = Arc::clone(&self.stall_signal);
        let handle = std::thread::Builder::new()
            .name(format!("camus-engine-{wi}"))
            .spawn(move || {
                worker_loop(
                    wi,
                    program,
                    ctx,
                    rx,
                    recycle_tx,
                    record,
                    worker_published,
                    start_gen,
                    supervise,
                    injection,
                    worker_killed,
                    worker_stall,
                )
            })
            .unwrap_or_else(|e| panic!("spawn engine worker: {e}"));
        WorkerHandle {
            tx,
            recycle_rx,
            pending: Batch::default(),
            outstanding: 0,
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
        let key = (self.shard)(packet);
        let wi = (shard::mix64(key) % self.workers.len() as u64) as usize;
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

    /// Pops an in-flight record, returning its seq vector to the pool.
    fn note_returned(w: &mut WorkerHandle) {
        w.outstanding -= 1;
        if let Some(mut seqs) = w.in_flight.pop_front() {
            seqs.clear();
            w.seq_pool.push(seqs);
        }
    }

    fn flush_worker(&mut self, wi: usize) {
        if self.workers[wi].pending.is_empty() {
            return;
        }
        let w = &mut self.workers[wi];
        // Drain everything the worker has returned into the pool
        // before dispatching. Draining *fully* (not just one) is what
        // bounds the number of batches ever in existence to roughly
        // the input-ring depth plus two — which in turn guarantees the
        // worker's recycle push never finds its ring full.
        while let Some(b) = w.recycle_rx.try_pop() {
            Self::note_returned(w);
            w.pool.push(b);
        }
        // Reuse a drained batch if one is waiting; otherwise grow the
        // pool by one (start-up only — the steady state recycles).
        let mut next = w.pool.pop().unwrap_or_default();
        next.clear();
        let full = std::mem::replace(&mut w.pending, next);
        self.dispatch(wi, full, true);
    }

    /// Sends a batch with in-flight bookkeeping. A send error means
    /// the worker thread is gone: with `respawn` the engine replaces
    /// it and re-sends the batch (zero loss — the batch never reached
    /// the dead worker); without, the batch is counted as lost.
    fn dispatch(&mut self, wi: usize, batch: Batch, respawn: bool) {
        // A crashed node never heals itself: batches that can't reach
        // a worker go straight to loss accounting (→ quarantined).
        let respawn = respawn && !self.killed.load(Ordering::Acquire);
        let w = &mut self.workers[wi];
        let mut seqs = w.seq_pool.pop().unwrap_or_default();
        seqs.clear();
        seqs.extend_from_slice(&batch.seqs);
        w.in_flight.push_back(seqs);
        w.outstanding += 1;
        // Blocks (backpressure) while the ring is full; hands the
        // batch back only when the worker is gone.
        match w.tx.push_blocking(batch) {
            Ok(()) => {}
            Err(batch) => {
                if let Some(mut seqs) = w.in_flight.pop_back() {
                    seqs.clear();
                    w.seq_pool.push(seqs);
                }
                w.outstanding -= 1;
                if respawn {
                    self.respawn_worker(wi);
                    // The replacement gets the batch; a second failure
                    // (replacement died instantly) drops to loss
                    // accounting instead of recursing.
                    self.dispatch(wi, batch, false);
                } else {
                    self.lost.extend_from_slice(&batch.seqs);
                    self.lost_batches += 1;
                }
            }
        }
    }

    /// Replaces a dead worker: joins the old thread, harvests its
    /// output (stats, decisions, quarantined seqs), accounts any
    /// batches that went down with it, and spawns a replacement from
    /// the published pipeline.
    fn respawn_worker(&mut self, wi: usize) {
        let timer = SpanTimer::start();
        let fresh = self.spawn_worker(wi);
        let old = std::mem::replace(&mut self.workers[wi], fresh);
        let WorkerHandle {
            tx,
            mut recycle_rx,
            pending: _,
            outstanding: _,
            mut in_flight,
            mut seq_pool,
            mut pool,
            handle,
        } = old;
        // Engine-side wait counters ride on the handles; harvest them
        // before the halves drop.
        self.ring_full_spins += tx.full_spins();
        self.ring_empty_spins += recycle_rx.empty_spins();
        drop(tx);
        match handle.join() {
            Ok(out) => self.retired.push(out),
            Err(_) => {
                // The thread unwound: its counters and recorded
                // decisions are unrecoverable. Counted so reports can
                // flag the accounting gap.
                self.unwound_workers += 1;
            }
        }
        // Batches the dead worker finished before dying are recycled
        // and reusable; anything still in flight went down with it.
        while let Some(b) = recycle_rx.try_pop() {
            if let Some(mut seqs) = in_flight.pop_front() {
                seqs.clear();
                seq_pool.push(seqs);
            }
            self.workers[wi].pool.push(b);
        }
        for seqs in in_flight.drain(..) {
            self.lost.extend_from_slice(&seqs);
            self.lost_batches += 1;
        }
        let new_w = &mut self.workers[wi];
        new_w.pool.append(&mut pool);
        new_w.seq_pool.append(&mut seq_pool);
        self.respawns += 1;
        timer.stop_into(&mut self.spans, SpanKind::WorkerRespawn);
    }

    /// Flushes every pending batch and blocks until all workers have
    /// fully processed everything submitted so far. On `Ok` the data
    /// plane is quiescent: no packet is in flight, and the guarantee
    /// that post-quiescence forwarding matches a fresh full compile of
    /// the cumulative rule set is testable.
    ///
    /// Each in-flight batch is waited on for at most
    /// [`EngineConfig::watchdog_ms`]; a worker that fails to produce
    /// one in that window yields [`EngineFault::QuiesceTimeout`]
    /// (state unchanged — the call is re-entrant and can be retried).
    /// A worker found dead is respawned and its lost batches are
    /// quarantined, so quiesce also heals the engine.
    pub fn quiesce(&mut self) -> Result<(), EngineFault> {
        if self.is_killed() {
            return Err(EngineFault::Killed);
        }
        let timer = SpanTimer::start();
        for wi in 0..self.workers.len() {
            self.flush_worker(wi);
            loop {
                let watchdog = Duration::from_millis(self.cfg.watchdog_ms.max(1));
                let w = &mut self.workers[wi];
                if w.outstanding == 0 {
                    break;
                }
                match w.recycle_rx.pop_deadline(watchdog) {
                    ring::PopDeadline::Item(b) => {
                        Self::note_returned(w);
                        w.pool.push(b);
                    }
                    ring::PopDeadline::Timeout => {
                        return Err(EngineFault::QuiesceTimeout {
                            worker: wi,
                            outstanding: w.outstanding,
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
        if self.is_killed() {
            return Err(EngineFault::Killed);
        }
        normalise(&self.cfg, &mut candidate);
        if let Err(fault) = admit(self.cfg.admission.as_ref(), &candidate.tables) {
            self.updates_rejected += 1;
            return Err(fault);
        }
        self.staged = Some(candidate);
        Ok(())
    }

    /// Phase two: publish the staged candidate as a full swap (a
    /// fabric re-slices the whole program per epoch). Workers adopt it
    /// at their next batch boundary, carrying register state over
    /// positionally. Returns `false` — and changes nothing — when no
    /// candidate is staged. Infallible by construction: admission
    /// already passed in [`Engine::stage`], so once every node in a
    /// fabric has staged, every commit succeeds.
    pub fn commit(&mut self) -> bool {
        let timer = SpanTimer::start();
        if !self.publish_staged() {
            return false;
        }
        self.full_swaps += 1;
        timer.stop_into(&mut self.spans, SpanKind::InstallPipeline);
        true
    }

    /// Discards a staged candidate (epoch abort). Returns whether one
    /// was staged. Never touches the published program.
    pub fn abort(&mut self) -> bool {
        self.staged.take().is_some()
    }

    /// Applies an incremental-compiler update to the running engine,
    /// transactionally: [`stage`](Engine::stage) then publish, in one
    /// call.
    ///
    /// The next-generation program is the one the session emitted,
    /// [`UpdateReport::pipeline`], for delta and `full_rebuild` reports
    /// alike (the flag only picks the counter), with the installed
    /// register file carried over so a respawned worker starts from the
    /// same `@query_counter` state as before. Nothing is re-derived
    /// from the report's entry deltas, so an update can only fail the
    /// way [`Engine::stage`] does: on [`EngineFault::Admission`] the
    /// installed state is untouched — no generation bump,
    /// entry-for-entry identical tables. A candidate that was already
    /// staged is replaced — a successful update leaves nothing staged.
    ///
    /// Workers adopt a published generation at their next batch
    /// boundary, carrying register state and counters over. Packets
    /// submitted after this returns are guaranteed to be processed by
    /// the new generation (or a later one); packets already in flight
    /// finish under the generation their batch started with — never a
    /// half-applied rule set.
    pub fn apply_update(&mut self, report: &UpdateReport) -> Result<(), EngineFault> {
        let timer = SpanTimer::start();
        let mut candidate = report.pipeline.clone();
        candidate.registers.carry_from(&self.installed.registers);
        self.stage(candidate)?;
        self.publish_staged();
        if report.full_rebuild {
            self.full_swaps += 1;
        } else {
            self.delta_updates += 1;
        }
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
            let _ = w.tx.try_push(Batch::default());
        }
    }

    /// Arms a one-shot runtime stall (the chaos harness's leaf-stall
    /// event): the next worker to start a batch sleeps `ms`
    /// milliseconds first. The node stays alive — the fault is
    /// transient, which is exactly what an epoch's quiesce-timeout
    /// retry path exists for. Calling again before a worker consumed
    /// the previous signal replaces it.
    pub fn inject_stall(&mut self, ms: u64) {
        self.stall_signal.store(ms, Ordering::Release);
    }

    /// Liveness probe — the heartbeat a fabric's failure detector
    /// polls. `false` once the node crashed; detection of *why* (and
    /// of the exact packets lost) still rides the quiesce/ledger
    /// machinery.
    pub fn is_alive(&self) -> bool {
        !self.is_killed()
    }

    /// Whether [`Engine::simulate_crash`] has fired.
    pub fn is_killed(&self) -> bool {
        self.killed.load(Ordering::Acquire)
    }

    /// The currently installed tables — exactly what the workers run
    /// once they adopt the published generation. Lets a fabric driver
    /// assert bit-identical pre-state after an aborted epoch.
    pub fn installed_tables(&self) -> &[Table] {
        &self.installed.tables
    }

    /// The published RCU generation (bumps once per successful
    /// publish; never on a rejected or aborted update).
    pub fn generation(&self) -> u64 {
        self.published.generation.load(Ordering::Acquire)
    }

    /// Update-plane counters accumulated so far (worker adoption
    /// counts are only known at [`Engine::finish`]).
    pub fn update_stats(&self) -> UpdateStats {
        UpdateStats {
            published: self.delta_updates + self.full_swaps,
            delta_updates: self.delta_updates,
            full_swaps: self.full_swaps,
            adoptions: 0,
            coalesced: 0,
        }
    }

    /// Control-plane span timings recorded so far (updates, installs,
    /// quiesces, respawns). Worker-side spans only merge in at
    /// [`Engine::finish`]; this is the live view a daemon's `/metrics`
    /// endpoint serves between updates.
    pub fn control_spans(&self) -> SpanSet {
        self.spans.clone()
    }

    /// SIGTERM-clean shutdown: quiesce — draining every in-flight
    /// batch — then join and report. The quiesce outcome is returned
    /// alongside the report so a service shell can distinguish a clean
    /// drain (exact ledger guaranteed) from a timed-out or killed one,
    /// without losing the report either way.
    pub fn shutdown(mut self) -> (EngineReport, Result<(), EngineFault>) {
        let drained = self.quiesce();
        (self.finish(), drained)
    }

    /// Moves the staged candidate into the shared slot and bumps the
    /// generation — the one place a program becomes visible to
    /// workers. `false` when nothing is staged.
    fn publish_staged(&mut self) -> bool {
        let Some(candidate) = self.staged.take() else {
            return false;
        };
        self.installed = Arc::new(candidate);
        *self
            .published
            .slot
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = Arc::clone(&self.installed);
        // Release pairs with the workers' Acquire load: a worker that
        // sees the new generation sees the new pipeline.
        self.published.generation.fetch_add(1, Ordering::Release);
        true
    }

    /// Flushes remaining packets, joins every worker and aggregates
    /// the report. Dead workers are harvested, not propagated: an
    /// unsupervised panic shows up as [`FaultStats`] counts and
    /// quarantined seqs rather than a panic out of `finish`.
    pub fn finish(mut self) -> EngineReport {
        for wi in 0..self.workers.len() {
            self.flush_worker(wi);
        }
        let workers = self.workers.len();
        let mut outputs = std::mem::take(&mut self.retired);
        let mut lost = std::mem::take(&mut self.lost);
        let mut lost_batches = self.lost_batches;
        let mut unwound = self.unwound_workers;

        let mut engine_full_spins = self.ring_full_spins;
        let mut engine_empty_spins = self.ring_empty_spins;
        for w in std::mem::take(&mut self.workers) {
            let WorkerHandle {
                tx,
                mut recycle_rx,
                mut in_flight,
                handle,
                ..
            } = w;
            engine_full_spins += tx.full_spins();
            engine_empty_spins += recycle_rx.empty_spins();
            // Dropping the producer half ends the worker's pop loop
            // once it drains what remains.
            drop(tx);
            match handle.join() {
                Ok(out) => outputs.push(out),
                Err(_) => unwound += 1,
            }
            // Everything the worker processed came back through the
            // recycle ring; whatever didn't went down with it.
            while recycle_rx.try_pop().is_some() {
                in_flight.pop_front();
            }
            for seqs in in_flight.drain(..) {
                lost.extend_from_slice(&seqs);
                lost_batches += 1;
            }
        }

        let mut per_worker = vec![ExecStats::default(); workers];
        let mut all_decisions: Vec<(u64, ForwardDecision)> = Vec::new();
        let mut error: Option<EngineError> = None;
        let mut updates = self.update_stats();
        let mut faults = FaultStats {
            updates_rejected: self.updates_rejected,
            respawns: self.respawns,
            ..FaultStats::default()
        };
        let mut quarantined: Vec<u64> = Vec::new();
        let mut final_registers = vec![camus_pipeline::register::RegisterFile::new(); workers];
        let mut snapshot = self.cfg.telemetry.then(|| TelemetrySnapshot::new(workers));
        let mut hotpath = HotPathStats {
            ring_full_spins: engine_full_spins,
            ring_empty_spins: engine_empty_spins,
            ..HotPathStats::default()
        };
        for out in outputs {
            per_worker[out.index].merge(&out.stats);
            // Outputs are harvested oldest-first (retired, then live),
            // so the last write per slot is the final incarnation.
            final_registers[out.index] = out.registers;
            if let (Some(snap), Some(t)) = (snapshot.as_mut(), out.telemetry.as_deref()) {
                snap.absorb_worker(t);
            }
            hotpath.merge(&out.hotpath);
            all_decisions.extend(out.decisions);
            updates.adoptions += out.adoptions;
            updates.coalesced += out.coalesced;
            faults.merge(&out.faults);
            if out.died {
                faults.worker_deaths += 1;
            }
            quarantined.extend(out.quarantined);
            if error.is_none() {
                error = out.error;
            }
        }
        // Batches lost inside dead workers are quarantined too.
        faults.panics_caught += unwound;
        faults.worker_deaths += unwound;
        faults.batches_quarantined += lost_batches;
        faults.packets_quarantined += lost.len() as u64;
        quarantined.append(&mut lost);
        quarantined.sort_unstable();
        quarantined.dedup();

        let mut stats = ExecStats::default();
        for s in &per_worker {
            stats.merge(s);
        }
        if let Some(snap) = snapshot.as_mut() {
            snap.packets = stats.packets;
            snap.spans = self.spans.clone();
            // Worker-side hot-path counters were folded into each
            // worker's record before absorption; only the engine
            // thread's own ring waits remain to be added.
            snap.data
                .add_hotpath(0, 0, 0, engine_full_spins, engine_empty_spins);
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
            workers,
            stats,
            per_worker,
            decisions,
            error,
            updates,
            faults,
            quarantined,
            telemetry: snapshot,
            hotpath,
            final_registers,
        }
    }
}

/// Brings a program into the form the engine installs: counters
/// zeroed, no telemetry record (that is per-worker, attached in
/// `spawn_worker` — a caller's own must not leak into workers), tables
/// prepared, and [`EngineConfig::decision_cache`] armed when the field
/// exists and the program is provably cacheable on it (workers clone
/// the empty cache; otherwise the program quietly runs without one).
fn normalise(cfg: &EngineConfig, program: &mut Pipeline) {
    program.exec.stats.reset();
    program.exec.set_telemetry(None);
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
    use camus_pipeline::{
        ActionOp, Entry, ExecState, Key, MatchKind, MatchValue, MulticastTable, ParseDrop,
        PhvLayout, PortId, Table,
    };
    use std::sync::Arc;

    /// One-byte-symbol pipeline: byte b forwards to port b for b in
    /// 1..=4; other bytes miss and drop.
    fn byte_pipeline() -> Pipeline {
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
        for b in 1u64..=4 {
            table
                .add_entry(Entry {
                    priority: 0,
                    matches: vec![MatchValue::Exact(b)],
                    ops: vec![ActionOp::Forward(PortId(b as u16))],
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
        // Alternate generation: byte 1 forwards to port 9 instead of 1,
        // spliced in via the same table API the delta path uses.
        let mut alt = byte_pipeline();
        let entry = |port| Entry {
            priority: 0,
            matches: vec![MatchValue::Exact(1)],
            ops: vec![ActionOp::Forward(PortId(port))],
        };
        alt.tables[0]
            .splice_entries(&[entry(1)], &[entry(9)])
            .unwrap();

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
        let installs =
            |e: &Engine, port| e.installed_tables()[0].entries().any(|x| *x == entry(port));
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
        assert_eq!(report.updates.full_swaps, 1);
        assert_eq!(report.updates.delta_updates, 0);
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
        let mut alt = byte_pipeline();
        let entry = |port| Entry {
            priority: 0,
            matches: vec![MatchValue::Exact(1)],
            ops: vec![ActionOp::Forward(PortId(port))],
        };
        alt.tables[0]
            .splice_entries(&[entry(1)], &[entry(9)])
            .unwrap();
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
        assert_eq!(report.workers, 3);
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
        assert_eq!(report.faults.packets_quarantined, 2);
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
            faults: FaultInjection {
                stall_seqs: Arc::new([0u64].into_iter().collect()),
                stall_ms: 400,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut engine = Engine::start(&pipeline, &cfg, first_byte_shard());
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
        // 7 distinct keys; everything after the first sighting hits.
        assert!(on.hotpath.cache_hits >= 350, "{:?}", on.hotpath);
        assert_eq!(
            on.hotpath.cache_hits + on.hotpath.cache_misses,
            on.stats.messages
        );
    }

    #[test]
    fn unknown_cache_field_is_silently_disabled() {
        let pipeline = byte_pipeline();
        let cfg = EngineConfig {
            workers: 1,
            batch_packets: 4,
            record_decisions: true,
            decision_cache: Some("no.such.field".into()),
            ..Default::default()
        };
        let packets: Vec<Vec<u8>> = (0..16u32).map(|i| vec![(i % 5) as u8]).collect();
        let report = run_trace(
            &pipeline,
            &cfg,
            first_byte_shard(),
            packets.iter().map(|p| (p.as_slice(), 0u64)),
        );
        assert!(report.error.is_none());
        assert_eq!(report.hotpath.cache_hits + report.hotpath.cache_misses, 0);
        assert_eq!(report.decisions.len(), 16);
    }

    #[test]
    fn install_invalidates_worker_caches() {
        // A cached decision must never survive a generation bump: cache
        // port 1 for byte 1, swap in a program that forwards byte 1 to
        // port 9, and check no stale hit leaks through.
        let pipeline = byte_pipeline();
        let mut alt = byte_pipeline();
        let entry = |port| Entry {
            priority: 0,
            matches: vec![MatchValue::Exact(1)],
            ops: vec![ActionOp::Forward(PortId(port))],
        };
        alt.tables[0]
            .splice_entries(&[entry(1)], &[entry(9)])
            .unwrap();
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
        assert_eq!(snap.data.decision_cache_hits, report.hotpath.cache_hits);
        assert_eq!(snap.data.decision_cache_misses, report.hotpath.cache_misses);
        assert_eq!(snap.data.ring_full_spins, report.hotpath.ring_full_spins);
        assert_eq!(snap.data.ring_empty_spins, report.hotpath.ring_empty_spins);
        assert!(report.hotpath.cache_hits > 0);
    }

    #[test]
    fn unsupervised_panic_kills_worker_but_finish_stays_total() {
        let pipeline = byte_pipeline();
        let cfg = EngineConfig {
            workers: 1,
            batch_packets: 2,
            record_decisions: true,
            supervise: false,
            faults: FaultInjection {
                panic_seqs: Arc::new([1u64].into_iter().collect()),
                ..Default::default()
            },
            ..Default::default()
        };
        let mut engine = Engine::start(&pipeline, &cfg, first_byte_shard());
        for _ in 0..4 {
            engine.submit(&[1], 0);
        }
        // finish() must neither hang nor propagate the worker panic.
        let report = engine.finish();
        assert!(report.faults.worker_deaths >= 1);
        assert!(report.faults.panics_caught >= 1);
        // Every packet is either decided or quarantined (the panicking
        // worker unwound, so its counters are gone — the quarantine
        // list still accounts for the batches it took down).
        assert_eq!(report.stats.packets + report.quarantined.len() as u64, 4u64);
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
        assert_eq!(report.final_registers.len(), 2);
    }
}
