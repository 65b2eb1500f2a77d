//! # camus-fabric — one subscription program across a spine/leaf fabric
//!
//! The paper compiles one packet-subscription program onto one Tofino.
//! This crate generalizes that deployment to a two-tier fabric in the
//! spirit of SNAP (placement across a topology) while keeping each
//! node a plain independently-programmed target, P4-style:
//!
//! * **Partitioning** — [`camus_core::PartitionPlan`] slices the
//!   compiled per-field tables so each leaf engine holds only the
//!   entries reachable from the sharding symbols it owns; the spine's
//!   only job is routing each packet to its symbol's owner
//!   ([`camus_core::partition::owner_of`] over the raw wire bytes).
//!   Because multicast decisions are computed *on the owning leaf*
//!   from its full action tables and group table (groups are
//!   replicated, entries are not), a cross-engine multicast is one
//!   decision on one leaf, never a partial union of per-leaf
//!   decisions.
//! * **Fabric epochs** — [`Fabric::apply_update`] generalizes the
//!   engine's RCU generation swap into a two-phase commit across all
//!   leaves: *prepare* (admission-check + stage on every leaf; any
//!   rejection aborts everywhere with zero observable state change),
//!   *quiesce* (drain every in-flight batch, so no packet spans
//!   epochs), *commit* (publish everywhere — infallible once every
//!   node has staged). A packet therefore always sees either the old
//!   fabric or the new fabric, never a mix.
//! * **Survivability** — leaves fail (crash outright, or partition
//!   from the spine) and the fabric carries on. A failure detector
//!   (liveness probes every [`FabricConfig::probe_interval`]
//!   submissions, plus the quiesce barrier itself) declares dead
//!   leaves *fail-stop*; while a death is detected-but-not-repaired
//!   the spine runs **degraded**, drop-counting packets whose shard
//!   owner died ([`FabricReport::orphaned_per_leaf`]); repair is an
//!   automatic **failover epoch** — the master is re-sliced over the
//!   survivors ([`camus_core::PartitionPlan::compute_subset`], which
//!   moves *only* the dead leaves' symbols) and committed through the
//!   same two-phase protocol. Transient epoch failures (a quiesce
//!   watchdog timeout on a stalled survivor) retry with bounded
//!   exponential backoff ([`EpochOptions`]); state that lived only on
//!   the dead leaf is written off as typed [`StateLoss`] records
//!   rather than silently forgotten. The ledger stays exact
//!   throughout: `submitted == decided + quarantined + orphaned`.
//!
//! Equivalence to the big switch is proven differentially in
//! `tests/fabric_differential.rs` at the workspace root: fabric output
//! ≡ fresh full recompile ≡ naive AST oracle, across churn sequences,
//! leaf counts and worker counts. Survivability is proven by the
//! chaos soak (`tests/fabric_chaos.rs`): scripted kill / stall /
//! partition events ([`camus_workload::ChaosPlan`]) with post-failover
//! forwarding bit-identical to a fresh big-switch recompile over the
//! surviving shards.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::time::{Duration, Instant};

use camus_core::partition::{owner_in_subset, PartitionPlan};
use camus_core::{CompileError, UpdateReport};
use camus_engine::{admit, Engine, EngineConfig, EngineFault, EngineReport, ShardFn};
use camus_pipeline::{ForwardDecision, Pipeline, Table};
use camus_telemetry::{render_prometheus_fabric, RobustnessCounters, TelemetrySnapshot};
use camus_workload::{ChaosPlan, NodeEvent, NodeEventKind};

/// Fabric-level control-plane faults. Every variant leaves the fabric
/// in its pre-call state (the epoch protocol aborts all staged
/// candidates before reporting), so all of them are retryable —
/// though only [`FabricFault::is_transient`] ones are retried
/// *automatically* by the epoch machinery.
#[derive(Debug)]
pub enum FabricFault {
    /// Partition planning failed (unknown shard field, bad leaf count,
    /// or — fatally — no surviving leaf to plan over).
    Plan(CompileError),
    /// Phase one failed on one leaf: its slice was rejected (admission)
    /// or could not be built. No leaf committed anything.
    Prepare {
        /// The leaf that rejected its slice.
        leaf: usize,
        /// The underlying engine fault.
        fault: EngineFault,
    },
    /// The quiesce barrier between prepare and commit failed on one
    /// leaf (watchdog timeout). All staged candidates were dropped;
    /// retry once the slow worker drains.
    Quiesce {
        /// The leaf that failed to drain.
        leaf: usize,
        /// The underlying engine fault.
        fault: EngineFault,
    },
}

impl FabricFault {
    /// Whether the epoch retry/backoff machinery should absorb this
    /// fault on its own: only a quiesce watchdog timeout qualifies —
    /// the barrier raced a slow worker and draining again can win.
    /// Admission rejections are deterministic (retrying re-rejects),
    /// plan/update failures are program bugs, and a dead node is
    /// handled by failover, not by retrying the dead node.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            FabricFault::Quiesce {
                fault: EngineFault::QuiesceTimeout { .. },
                ..
            }
        )
    }
}

impl std::fmt::Display for FabricFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FabricFault::Plan(e) => write!(f, "fabric partition plan failed: {e}"),
            FabricFault::Prepare { leaf, fault } => {
                write!(
                    f,
                    "fabric epoch rejected in prepare on leaf {leaf}: {fault}"
                )
            }
            FabricFault::Quiesce { leaf, fault } => {
                write!(f, "fabric epoch barrier failed on leaf {leaf}: {fault}")
            }
        }
    }
}

impl std::error::Error for FabricFault {}

/// Epoch retry policy: how many times, and with what backoff, a
/// transient epoch failure (quiesce watchdog timeout) is retried
/// before the fault surfaces to the caller. Every attempt runs the
/// full abort-all-or-nothing protocol — a retried epoch is
/// indistinguishable from a first attempt.
#[derive(Debug, Clone)]
pub struct EpochOptions {
    /// Additional attempts after the first (0 = single-shot, the
    /// pre-survivability behaviour).
    pub retry_attempts: u32,
    /// Backoff before retry `k` is `min(cap, base · 2^(k-1))` ms.
    pub retry_base_ms: u64,
    /// Backoff ceiling, milliseconds.
    pub retry_cap_ms: u64,
}

impl Default for EpochOptions {
    fn default() -> Self {
        EpochOptions {
            retry_attempts: 0,
            retry_base_ms: 10,
            retry_cap_ms: 250,
        }
    }
}

impl EpochOptions {
    /// Backoff before the `attempt`-th retry (1-based), milliseconds.
    pub fn backoff_ms(&self, attempt: u32) -> u64 {
        let factor = 1u64 << attempt.saturating_sub(1).min(16);
        self.retry_base_ms
            .saturating_mul(factor)
            .min(self.retry_cap_ms)
    }
}

/// A leaf's place in the failure detector's state machine. Fail-stop:
/// the only transitions are `Healthy → Dead` (declared by a probe or
/// by the quiesce barrier) and `Dead → Evicted` (its shards failed
/// over in a committed emergency epoch). There is no resurrection —
/// the fabric replaces a node's shards, not the node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeafHealth {
    /// Serving its shards.
    Healthy,
    /// Declared dead; its shards are orphaned (drop-counted at the
    /// spine) until a failover epoch commits. The fabric is *degraded*
    /// while any leaf sits here.
    Dead,
    /// Dead and repaired: a committed failover epoch re-homed its
    /// shards onto the survivors.
    Evicted,
}

/// One register slot's worth of state that died with a leaf. Survivor
/// state is carried across epochs automatically (`ShardCtx::adopt` /
/// `RegisterFile::carry_from`); what lived *only* on the dead leaf is
/// unrecoverable, and the fabric records exactly what that was
/// instead of silently forgetting it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateLoss {
    /// The dead leaf.
    pub leaf: usize,
    /// Register slot index in the master program's allocation.
    pub register: usize,
    /// The slot's tumbling window, microseconds (0 = unwindowed).
    pub window_us: u64,
}

/// One completed failover: a dead leaf whose shards were re-homed by
/// a committed emergency epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailoverRecord {
    /// The leaf that died.
    pub leaf: usize,
    /// The fabric epoch that repaired it.
    pub epoch: u64,
    /// Fault (scripted kill/partition) → declared dead, nanoseconds;
    /// 0 when the fault instant is unknown (organic death).
    pub detect_ns: u64,
    /// Mean-time-to-repair: fault → failover epoch committed,
    /// nanoseconds (detection latency included).
    pub mttr_ns: u64,
    /// Packets drop-counted for this leaf's shards during its
    /// degraded window (final — routing excludes the leaf afterwards).
    pub orphaned: u64,
}

/// Fabric construction parameters.
#[derive(Clone)]
pub struct FabricConfig {
    /// PHV-layout name of the sharding field (e.g. `"ev.sym0"`,
    /// `"add_order.stock"`). Must be an exact-match query field.
    pub shard_field: String,
    /// Extracts the sharding field's value from raw wire bytes (see
    /// `camus_workload::raw_field_extractor`). The spine routes on
    /// `owner_of(extract(pkt), leaves)`; the same function shards
    /// packets across each leaf's workers.
    pub extract: ShardFn,
    /// One engine config per leaf (the vector's length is the leaf
    /// count). Per-leaf `admission` models let heterogeneous ASICs
    /// coexist in one fabric.
    pub leaf_engines: Vec<EngineConfig>,
    /// Retry/backoff policy for transient epoch failures.
    pub epoch: EpochOptions,
    /// Liveness-probe cadence, in submissions: every `probe_interval`
    /// packets the spine sweeps all healthy leaves (`is_alive` +
    /// reachability) and, if anything died, attempts a failover epoch.
    /// 0 disables probing — detection then rides only the quiesce
    /// barrier.
    pub probe_interval: u64,
    /// Scripted node-level chaos events, applied at their global
    /// submission seqs (empty = none). See
    /// [`camus_workload::ChaosPlan::generate`].
    pub chaos: ChaosPlan,
}

impl FabricConfig {
    /// A fabric with explicit per-leaf engine configs and default
    /// survivability options (probes every 64 packets, single-shot
    /// epochs, no scripted chaos).
    pub fn new(shard_field: &str, extract: ShardFn, leaf_engines: Vec<EngineConfig>) -> Self {
        FabricConfig {
            shard_field: shard_field.to_string(),
            extract,
            leaf_engines,
            epoch: EpochOptions::default(),
            probe_interval: 64,
            chaos: ChaosPlan::default(),
        }
    }

    /// A homogeneous fabric: `leaves` copies of one engine config.
    pub fn uniform(
        leaves: usize,
        shard_field: &str,
        extract: ShardFn,
        engine: EngineConfig,
    ) -> Self {
        Self::new(shard_field, extract, vec![engine; leaves.max(1)])
    }
}

/// Where one submitted packet went, in global submission order.
#[derive(Debug, Clone, Copy)]
enum Route {
    /// Delivered to its owning leaf's engine.
    Delivered(usize),
    /// Dropped at the spine: the owner was dead (degraded mode) or
    /// behind an undetected partition. The index is the owner it
    /// *would* have gone to (kept for debugging; reassembly only
    /// needs to know the packet never reached an engine).
    Orphaned(#[allow(dead_code)] usize),
}

/// A running fabric: one engine per leaf plus the spine's routing
/// state and the master (big-switch) program the slices derive from.
///
/// The driver is single-threaded by design — `submit` and
/// `apply_update` interleave in program order, which is what makes
/// "every packet sees exactly one epoch" meaningful and testable.
/// Failover supports fabrics of up to 64 leaves (the live mask is one
/// machine word, like the partition plan's).
pub struct Fabric {
    engines: Vec<Engine>,
    extract: ShardFn,
    shard_field: String,
    master: Pipeline,
    plan: PartitionPlan,
    epoch: u64,
    epochs_rejected: u64,
    epoch_opts: EpochOptions,
    probe_interval: u64,
    /// Scripted chaos events, sorted by trigger seq; `next_chaos` is
    /// the cursor of the first not-yet-applied one.
    chaos: Vec<NodeEvent>,
    next_chaos: usize,
    /// Global submission counter — drives chaos triggers and probes.
    next_seq: u64,
    health: Vec<LeafHealth>,
    /// `false` once a scripted partition cut the spine's link to the
    /// leaf. The engine may still be running; the fabric can no longer
    /// tell (fail-stop model).
    reachable: Vec<bool>,
    /// When the scripted kill/partition fired (None = no fault, or an
    /// organic one the fabric never saw the start of).
    fault_at: Vec<Option<Instant>>,
    detected_at: Vec<Option<Instant>>,
    submitted_per_leaf: Vec<u64>,
    /// Degraded-mode drops: packets whose shard owner was declared
    /// dead, counted per dead owner.
    orphaned_per_leaf: Vec<u64>,
    /// Packets black-holed on a partitioned link *before* detection —
    /// lost on the wire, but not yet control-plane knowledge. They
    /// convert to `orphaned_per_leaf` the moment the leaf is declared
    /// dead (or at `finish`, so the ledger is always exact).
    void_per_leaf: Vec<u64>,
    state_losses: Vec<StateLoss>,
    failovers: Vec<FailoverRecord>,
    robustness: RobustnessCounters,
    /// Route per submitted packet, in global submission order;
    /// populated only when every leaf records decisions (otherwise the
    /// memory would buy nothing).
    route_log: Vec<Route>,
    record_routes: bool,
}

impl Fabric {
    /// Plans the partition of `master`, admission-checks every slice
    /// against its leaf's configured ASIC model, and starts one engine
    /// per leaf. Nothing starts if any leaf cannot hold its slice.
    pub fn start(master: &Pipeline, cfg: &FabricConfig) -> Result<Fabric, FabricFault> {
        let leaves = cfg.leaf_engines.len().max(1);
        let plan =
            PartitionPlan::compute(master, &cfg.shard_field, leaves).map_err(FabricFault::Plan)?;
        let slices = plan.slices(master);
        // `Engine::start` trusts its seed pipeline (admission guards
        // *installs*), so the fabric applies the per-leaf budget check
        // up front, before any thread spawns.
        for (leaf, (slice, ecfg)) in slices.iter().zip(&cfg.leaf_engines).enumerate() {
            admit(ecfg.admission.as_ref(), &slice.tables)
                .map_err(|fault| FabricFault::Prepare { leaf, fault })?;
        }
        let record_routes = cfg.leaf_engines.iter().all(|e| e.record_decisions);
        let engines: Vec<Engine> = slices
            .iter()
            .zip(&cfg.leaf_engines)
            .map(|(slice, ecfg)| Engine::start(slice, ecfg, cfg.extract.clone()))
            .collect();
        let mut chaos = cfg.chaos.events.clone();
        chaos.sort_by_key(|e| (e.at_seq, e.leaf));
        Ok(Fabric {
            engines,
            extract: cfg.extract.clone(),
            shard_field: cfg.shard_field.clone(),
            master: master.clone(),
            plan,
            epoch: 0,
            epochs_rejected: 0,
            epoch_opts: cfg.epoch.clone(),
            probe_interval: cfg.probe_interval,
            chaos,
            next_chaos: 0,
            next_seq: 0,
            health: vec![LeafHealth::Healthy; leaves],
            reachable: vec![true; leaves],
            fault_at: vec![None; leaves],
            detected_at: vec![None; leaves],
            submitted_per_leaf: vec![0; leaves],
            orphaned_per_leaf: vec![0; leaves],
            void_per_leaf: vec![0; leaves],
            state_losses: Vec::new(),
            failovers: Vec::new(),
            robustness: RobustnessCounters::default(),
            route_log: Vec::new(),
            record_routes,
        })
    }

    /// Number of leaves.
    pub fn leaves(&self) -> usize {
        self.engines.len()
    }

    /// Committed fabric epochs so far (0 = the seed program).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Epochs rejected in phase one (all-or-nothing: no leaf changed).
    pub fn epochs_rejected(&self) -> u64 {
        self.epochs_rejected
    }

    /// The current partition plan.
    pub fn plan(&self) -> &PartitionPlan {
        &self.plan
    }

    /// One leaf's place in the failure detector's state machine.
    pub fn leaf_health(&self, leaf: usize) -> LeafHealth {
        self.health[leaf]
    }

    /// Whether any leaf is declared dead but not yet failed over —
    /// the window in which its shards' packets are drop-counted.
    pub fn degraded(&self) -> bool {
        self.health.contains(&LeafHealth::Dead)
    }

    /// Fabric-global robustness counters so far.
    pub fn robustness(&self) -> &RobustnessCounters {
        &self.robustness
    }

    /// Replaces the epoch retry/backoff policy at runtime (applies to
    /// the next epoch attempt; nothing in flight is disturbed).
    pub fn set_epoch_options(&mut self, opts: EpochOptions) {
        self.epoch_opts = opts;
    }

    /// Completed failovers so far.
    pub fn failovers(&self) -> &[FailoverRecord] {
        &self.failovers
    }

    /// The leaf that owns a raw packet under the *committed* plan
    /// (spine routing decision). During a degraded window this still
    /// names the dead owner — survivors do not hold the orphaned
    /// shards' entries until the failover epoch commits, so rerouting
    /// early would silently mis-forward, which is worse than an
    /// honestly counted drop.
    pub fn route(&self, packet: &[u8]) -> usize {
        owner_in_subset(
            (self.extract)(packet),
            self.engines.len(),
            self.plan.live_mask,
        )
    }

    /// Installed (control-plane master) tables of one leaf — for
    /// asserting bit-identical pre-state after an aborted epoch.
    pub fn leaf_tables(&self, leaf: usize) -> &[Table] {
        self.engines[leaf].installed_tables()
    }

    /// Published RCU generation of one leaf.
    pub fn leaf_generation(&self, leaf: usize) -> u64 {
        self.engines[leaf].generation()
    }

    /// Total packets submitted to the fabric (delivered, black-holed
    /// or drop-counted).
    pub fn submitted(&self) -> u64 {
        self.submitted_per_leaf.iter().sum::<u64>()
            + self.orphaned_per_leaf.iter().sum::<u64>()
            + self.void_per_leaf.iter().sum::<u64>()
    }

    /// Crashes a leaf (the chaos harness's kill event, also callable
    /// directly by a driver): its engine abandons everything in
    /// flight and the fabric's detector will declare it dead at the
    /// next probe tick or quiesce barrier.
    pub fn kill_leaf(&mut self, leaf: usize) {
        self.engines[leaf].simulate_crash();
        self.fault_at[leaf].get_or_insert_with(Instant::now);
    }

    /// Cuts the spine's link to a leaf (chaos partition event): the
    /// engine keeps running but nothing reaches it; packets routed
    /// there black-hole until the detector declares the leaf dead.
    pub fn partition_leaf(&mut self, leaf: usize) {
        self.reachable[leaf] = false;
        self.fault_at[leaf].get_or_insert_with(Instant::now);
    }

    /// Arms a transient whole-leaf stall (chaos stall event): the
    /// leaf's next batch sleeps `ms` ms, which an epoch's quiesce
    /// barrier will time out on — the retry/backoff path's food.
    pub fn stall_leaf(&mut self, leaf: usize, ms: u64) {
        self.engines[leaf].inject_stall(ms);
    }

    /// Routes one packet to its owning leaf and submits it there (or
    /// drop-counts it, if the owner died — see [`Fabric::route`]).
    /// Returns the owning leaf. Scripted chaos events and liveness
    /// probes ride this path, in deterministic submission order.
    pub fn submit(&mut self, packet: &[u8], now_us: u64) -> usize {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.apply_chaos(seq);
        if self.probe_interval > 0 && seq.is_multiple_of(self.probe_interval) {
            self.probe_and_repair();
        }
        let leaf = self.route(packet);
        match self.health[leaf] {
            LeafHealth::Healthy if self.reachable[leaf] => {
                self.engines[leaf].submit(packet, now_us);
                self.submitted_per_leaf[leaf] += 1;
                if self.record_routes {
                    self.route_log.push(Route::Delivered(leaf));
                }
            }
            LeafHealth::Healthy => {
                // Partitioned but not yet detected: the copy dies on a
                // cut wire. The spine doesn't know yet; the run's
                // bookkeeping does — it converts to an orphan the
                // moment the detector catches up.
                self.void_per_leaf[leaf] += 1;
                if self.record_routes {
                    self.route_log.push(Route::Orphaned(leaf));
                }
            }
            _ => {
                // Degraded mode: the owner is declared dead and the
                // failover epoch hasn't committed. An honest counted
                // drop — never a silent one, never a mis-route.
                self.orphaned_per_leaf[leaf] += 1;
                self.robustness.orphaned_packets += 1;
                if self.record_routes {
                    self.route_log.push(Route::Orphaned(leaf));
                }
            }
        }
        leaf
    }

    /// Fires every scripted chaos event due at `seq`.
    fn apply_chaos(&mut self, seq: u64) {
        while let Some(ev) = self.chaos.get(self.next_chaos) {
            if ev.at_seq > seq {
                break;
            }
            let (leaf, kind) = (ev.leaf % self.engines.len(), ev.kind);
            self.next_chaos += 1;
            match kind {
                NodeEventKind::Kill => self.kill_leaf(leaf),
                NodeEventKind::Stall { ms } => self.stall_leaf(leaf, ms),
                NodeEventKind::Partition => self.partition_leaf(leaf),
            }
        }
    }

    /// One failure-detector sweep: any healthy leaf that stopped
    /// answering its liveness probe (crashed) or sits behind a cut
    /// link (partitioned) is declared dead, fail-stop.
    fn detect_failures(&mut self) {
        for leaf in 0..self.engines.len() {
            if self.health[leaf] == LeafHealth::Healthy
                && (!self.reachable[leaf] || !self.engines[leaf].is_alive())
            {
                self.declare_dead(leaf);
            }
        }
    }

    /// Probe tick: sweep, then — if anything is dead — attempt the
    /// failover epoch. A transient failure (stalled survivor) leaves
    /// the fabric degraded; the next tick retries. A permanent one
    /// (a survivor that cannot admit its grown slice) leaves it
    /// degraded for good: every affected packet is still counted, so
    /// the operator sees exactly what graceful degradation cost.
    fn probe_and_repair(&mut self) {
        self.detect_failures();
        if self.degraded() {
            let _ = self.install_master(self.master.clone());
        }
    }

    /// Declares a leaf dead: converts its wire-lost packets to
    /// orphans, and writes off the register state that lived only
    /// there as typed [`StateLoss`] records.
    fn declare_dead(&mut self, leaf: usize) {
        if self.health[leaf] != LeafHealth::Healthy {
            return;
        }
        self.health[leaf] = LeafHealth::Dead;
        let now = Instant::now();
        self.detected_at[leaf] = Some(now);
        // Organic death (no scripted fault observed): measure repair
        // from detection — the earliest instant the fabric can know.
        self.fault_at[leaf].get_or_insert(now);
        self.robustness.leaf_deaths += 1;
        let voided = std::mem::take(&mut self.void_per_leaf[leaf]);
        self.orphaned_per_leaf[leaf] += voided;
        self.robustness.orphaned_packets += voided;
        // Survivor register state carries across epochs automatically
        // (`ShardCtx::adopt`); the dead leaf's does not exist anywhere
        // else — record exactly what died with it.
        for register in 0..self.master.registers.len() {
            self.state_losses.push(StateLoss {
                leaf,
                register,
                window_us: self.master.registers.window_us(register),
            });
            self.robustness.state_loss_entries += 1;
        }
    }

    /// Live-leaf bitmask (bit `l` set ⇔ leaf `l` is healthy).
    fn live_mask(&self) -> u64 {
        let mut mask = 0u64;
        for (leaf, health) in self.health.iter().enumerate().take(64) {
            if *health == LeafHealth::Healthy {
                mask |= 1 << leaf;
            }
        }
        mask
    }

    /// Applies an incremental-compiler update as one fabric epoch: the
    /// program the report carries becomes the *master*, is re-sliced,
    /// and the slices commit atomically across all leaves (see
    /// [`Fabric::install_master`] for the phase structure).
    pub fn apply_update(&mut self, report: &UpdateReport) -> Result<(), FabricFault> {
        self.install_master(report.pipeline.clone())
    }

    /// Installs a new master program as one two-phase fabric epoch
    /// over the *surviving* leaves, with bounded-backoff retry for
    /// transient failures ([`EpochOptions`]).
    ///
    /// 1. **Prepare**: slice the master over the live mask; every live
    ///    leaf admission-checks and stages its slice. Any failure ⇒
    ///    abort everywhere; no generation bump, no table change, on
    ///    any leaf.
    /// 2. **Quiesce barrier**: drain every live leaf's in-flight
    ///    batches. Packets submitted before this epoch thus complete
    ///    entirely under the old program — no packet ever observes a
    ///    mixed-epoch fabric. A watchdog timeout aborts and retries
    ///    with backoff (up to `retry_attempts` times); a leaf found
    ///    *dead* here is declared so and the epoch replans over the
    ///    survivors — the barrier doubles as a failure detector.
    /// 3. **Commit**: publish everywhere. Infallible by construction —
    ///    every admission already passed in phase one. A commit that
    ///    re-homes a dead leaf's shards is a *failover epoch*; the
    ///    dead leaf is evicted and its repair is recorded.
    pub fn install_master(&mut self, master: Pipeline) -> Result<(), FabricFault> {
        self.detect_failures();
        let mut attempt: u32 = 0;
        loop {
            match self.try_epoch(&master) {
                Ok(plan) => {
                    self.commit_epoch(master, plan);
                    return Ok(());
                }
                Err(FabricFault::Quiesce {
                    leaf,
                    fault: EngineFault::Killed,
                }) => {
                    // The barrier found a corpse. Fail the leaf over
                    // within this same epoch: replan over survivors.
                    self.declare_dead(leaf);
                }
                Err(fault) if fault.is_transient() && attempt < self.epoch_opts.retry_attempts => {
                    attempt += 1;
                    self.robustness.epoch_retries += 1;
                    std::thread::sleep(Duration::from_millis(self.epoch_opts.backoff_ms(attempt)));
                }
                Err(fault) => return Err(fault),
            }
        }
    }

    /// One all-or-nothing epoch attempt over the current live mask.
    fn try_epoch(&mut self, master: &Pipeline) -> Result<PartitionPlan, FabricFault> {
        let live = self.live_mask();
        let plan =
            PartitionPlan::compute_subset(master, &self.shard_field, self.engines.len(), live)
                .map_err(FabricFault::Plan)?;
        // Phase 1: prepare (stage) on every live leaf; each takes its
        // slice by value.
        for (leaf, slice) in plan.slices(master).into_iter().enumerate() {
            if live & (1 << leaf.min(63)) == 0 {
                continue;
            }
            if let Err(fault) = self.engines[leaf].stage(slice) {
                self.abort_all();
                self.epochs_rejected += 1;
                return Err(FabricFault::Prepare { leaf, fault });
            }
        }

        // Phase 2: the barrier. After this, nothing submitted before
        // the epoch is still in flight on any live leaf.
        for leaf in 0..self.engines.len() {
            if live & (1 << leaf.min(63)) == 0 {
                continue;
            }
            if let Err(fault) = self.engines[leaf].quiesce() {
                self.abort_all();
                return Err(FabricFault::Quiesce { leaf, fault });
            }
        }

        // Phase 3: commit on every live leaf.
        for (leaf, e) in self.engines.iter_mut().enumerate() {
            if live & (1 << leaf.min(63)) == 0 {
                continue;
            }
            let committed = e.commit();
            debug_assert!(committed, "every live leaf staged in phase one");
        }
        Ok(plan)
    }

    /// Drops every staged candidate (epoch abort). Harmless on leaves
    /// that never staged (dead ones included).
    fn abort_all(&mut self) {
        for e in &mut self.engines {
            e.abort();
        }
    }

    /// Post-commit bookkeeping: adopt the new master/plan, and evict
    /// any dead leaf whose shards this epoch just re-homed.
    fn commit_epoch(&mut self, master: Pipeline, plan: PartitionPlan) {
        self.master = master;
        self.plan = plan;
        self.epoch += 1;
        let mut failed_over = false;
        for leaf in 0..self.health.len() {
            if self.health[leaf] != LeafHealth::Dead {
                continue;
            }
            self.health[leaf] = LeafHealth::Evicted;
            failed_over = true;
            let detect_ns = match (self.fault_at[leaf], self.detected_at[leaf]) {
                (Some(fault), Some(detected)) => detected.duration_since(fault).as_nanos() as u64,
                _ => 0,
            };
            let mttr_ns = self.fault_at[leaf].map_or(0, |t| t.elapsed().as_nanos() as u64);
            self.failovers.push(FailoverRecord {
                leaf,
                epoch: self.epoch,
                detect_ns,
                mttr_ns,
                orphaned: self.orphaned_per_leaf[leaf],
            });
        }
        if failed_over {
            self.robustness.failover_epochs += 1;
        }
    }

    /// Drains every healthy leaf (no epoch change). Respawns dead
    /// workers as a side effect, like the underlying
    /// [`Engine::quiesce`]; a leaf found dead here is declared so
    /// (repair waits for the next probe tick or install).
    pub fn quiesce(&mut self) -> Result<(), FabricFault> {
        self.detect_failures();
        for leaf in 0..self.engines.len() {
            if self.health[leaf] != LeafHealth::Healthy {
                continue;
            }
            match self.engines[leaf].quiesce() {
                Ok(()) => {}
                Err(EngineFault::Killed) => self.declare_dead(leaf),
                Err(fault) => return Err(FabricFault::Quiesce { leaf, fault }),
            }
        }
        Ok(())
    }

    /// Joins every leaf engine and aggregates the fabric report.
    pub fn finish(mut self) -> FabricReport {
        // Partitions never detected by run's end: the packets are gone
        // on the wire either way — fold them into the orphan ledger so
        // reconciliation stays exact.
        for leaf in 0..self.engines.len() {
            let voided = std::mem::take(&mut self.void_per_leaf[leaf]);
            self.orphaned_per_leaf[leaf] += voided;
            self.robustness.orphaned_packets += voided;
        }
        let mut leaves: Vec<EngineReport> = self.engines.into_iter().map(Engine::finish).collect();
        // Stamp per-node robustness into each leaf's snapshot, and the
        // fabric-global counters into a synthetic spine node — the
        // spine is where deaths are detected and orphans are dropped,
        // so that's where a scrape should see them.
        for (leaf, report) in leaves.iter_mut().enumerate() {
            if let Some(t) = report.telemetry.as_mut() {
                t.robustness.leaf_deaths = u64::from(self.health[leaf] != LeafHealth::Healthy);
                t.robustness.orphaned_packets = self.orphaned_per_leaf[leaf];
                t.robustness.state_loss_entries =
                    self.state_losses.iter().filter(|s| s.leaf == leaf).count() as u64;
            }
        }
        let spine = leaves.iter().any(|r| r.telemetry.is_some()).then(|| {
            let mut snap = TelemetrySnapshot::new(0);
            snap.robustness = self.robustness;
            snap
        });
        FabricReport {
            epoch: self.epoch,
            epochs_rejected: self.epochs_rejected,
            submitted_per_leaf: self.submitted_per_leaf,
            orphaned_per_leaf: self.orphaned_per_leaf,
            health: self.health,
            failovers: self.failovers,
            state_losses: self.state_losses,
            robustness: self.robustness,
            route_log: self.route_log,
            spine,
            leaves,
        }
    }
}

/// The aggregated end-of-run fabric report.
#[derive(Debug)]
pub struct FabricReport {
    /// Committed epochs.
    pub epoch: u64,
    /// Epochs rejected all-or-nothing in phase one.
    pub epochs_rejected: u64,
    /// Packets delivered into each leaf's engine.
    pub submitted_per_leaf: Vec<u64>,
    /// Packets drop-counted per dead owner (degraded windows plus
    /// partition black-holes).
    pub orphaned_per_leaf: Vec<u64>,
    /// Final detector state per leaf.
    pub health: Vec<LeafHealth>,
    /// Completed failovers, in commit order.
    pub failovers: Vec<FailoverRecord>,
    /// Register state written off with dead leaves.
    pub state_losses: Vec<StateLoss>,
    /// Fabric-global robustness counters.
    pub robustness: RobustnessCounters,
    /// Synthetic spine-node snapshot carrying the fabric-global
    /// robustness counters (present iff any leaf ran telemetry).
    pub spine: Option<TelemetrySnapshot>,
    /// Per-leaf engine reports, in leaf order.
    pub leaves: Vec<EngineReport>,
    route_log: Vec<Route>,
}

impl FabricReport {
    /// Total packets submitted to the fabric (delivered + orphaned).
    pub fn submitted(&self) -> u64 {
        self.submitted_per_leaf.iter().sum::<u64>() + self.orphaned()
    }

    /// Packets drop-counted at the spine for dead owners.
    pub fn orphaned(&self) -> u64 {
        self.orphaned_per_leaf.iter().sum()
    }

    /// Exact loss reconciliation, per leaf and fabric-wide: every
    /// packet submitted to the fabric is decided, quarantined (died
    /// inside a leaf), or orphaned (dropped at the spine for a dead
    /// owner) — `submitted == decided + quarantined + orphaned`,
    /// with the per-leaf engine ledgers exact as well.
    pub fn reconciles(&self) -> bool {
        let per_leaf = self
            .submitted_per_leaf
            .iter()
            .zip(&self.leaves)
            .all(|(&submitted, r)| submitted == r.stats.packets + r.quarantined.len() as u64);
        let decided: u64 = self.leaves.iter().map(|r| r.stats.packets).sum();
        per_leaf && self.submitted() == decided + self.total_quarantined() as u64 + self.orphaned()
    }

    /// Packets lost to quarantine across the fabric.
    pub fn total_quarantined(&self) -> usize {
        self.leaves.iter().map(|r| r.quarantined.len()).sum()
    }

    /// Reassembles per-packet decisions in *global* submission order
    /// from the per-leaf reports (requires `record_decisions` on every
    /// leaf). Quarantined and orphaned packets yield `None`.
    pub fn decisions_in_submit_order(&self) -> Vec<Option<&ForwardDecision>> {
        // Per-leaf: map local seq -> Option<decision>. EngineReport
        // decisions are in local submission order with quarantined
        // seqs (sorted) skipped.
        let per_leaf: Vec<Vec<Option<&ForwardDecision>>> = self
            .leaves
            .iter()
            .zip(&self.submitted_per_leaf)
            .map(|(r, &submitted)| {
                let mut out = Vec::with_capacity(submitted as usize);
                let mut decisions = r.decisions.iter();
                let mut quarantined = r.quarantined.iter().peekable();
                for seq in 0..submitted {
                    if quarantined.peek() == Some(&&seq) {
                        quarantined.next();
                        out.push(None);
                    } else {
                        out.push(decisions.next());
                    }
                }
                out
            })
            .collect();
        let mut cursors = vec![0usize; self.leaves.len()];
        self.route_log
            .iter()
            .map(|route| match *route {
                Route::Delivered(leaf) => {
                    let local = cursors[leaf];
                    cursors[leaf] += 1;
                    per_leaf[leaf].get(local).copied().flatten()
                }
                Route::Orphaned(_) => None,
            })
            .collect()
    }

    /// Per-node telemetry snapshots, labeled `leaf0`, `leaf1`, …, plus
    /// the synthetic `spine` node carrying fabric-global robustness
    /// counters (present iff the leaves ran with `telemetry: true`).
    pub fn telemetry_nodes(&self) -> Vec<(String, &TelemetrySnapshot)> {
        let mut nodes: Vec<(String, &TelemetrySnapshot)> = self
            .leaves
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.telemetry.as_ref().map(|t| (format!("leaf{i}"), t)))
            .collect();
        if let Some(spine) = &self.spine {
            nodes.push(("spine".to_string(), spine));
        }
        nodes
    }

    /// Renders the whole fabric's telemetry as one Prometheus
    /// exposition with `node` labels; `None` when telemetry was off.
    pub fn render_prometheus(&self) -> Option<String> {
        let nodes = self.telemetry_nodes();
        if nodes.is_empty() {
            return None;
        }
        let borrowed: Vec<(&str, &TelemetrySnapshot)> =
            nodes.iter().map(|(n, t)| (n.as_str(), *t)).collect();
        Some(render_prometheus_fabric(&borrowed))
    }
}

/// Entry-for-entry table-set equality: names, keys, default actions
/// and every entry (priority, matches, ops) in order. This is the
/// "bit-identical pre-state" check the epoch-abort tests use —
/// deliberately ignoring prepared-index scratch state, which is
/// derived data.
pub fn tables_identical(a: &[Table], b: &[Table]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.name == y.name
                && x.keys == y.keys
                && x.default_ops == y.default_ops
                && x.len() == y.len()
                && x.entries().eq(y.entries())
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use camus_core::{Compiler, CompilerOptions};
    use camus_lang::{parse_program, parse_spec};
    use camus_workload::raw_field_extractor;

    const SPEC: &str = "header_type ev_t { fields { sym: 64; val: 32; } }\n\
                        header ev_t ev;\n\
                        @query_field_exact(ev.sym)\n\
                        @query_field(ev.val)\n";

    fn compile(rules: &str) -> Pipeline {
        let spec = parse_spec(SPEC).unwrap();
        let c = Compiler::new(spec, CompilerOptions::raw()).unwrap();
        c.compile(&parse_program(rules).unwrap()).unwrap().pipeline
    }

    fn extractor() -> ShardFn {
        let spec = parse_spec(SPEC).unwrap();
        raw_field_extractor(&spec, "sym").unwrap()
    }

    fn event(sym: &str, val: u32) -> Vec<u8> {
        let mut b = camus_lang::symbol::encode_symbol(sym, 64)
            .to_be_bytes()
            .to_vec();
        b.extend_from_slice(&val.to_be_bytes());
        b
    }

    fn cfg(workers: usize) -> EngineConfig {
        EngineConfig {
            workers,
            batch_packets: 4,
            record_decisions: true,
            ..EngineConfig::default()
        }
    }

    const RULES: &str = "sym == AA : fwd(1)\n\
                         sym == BB and val > 10 : fwd(2)\n\
                         val > 50 : fwd(9)";

    #[test]
    fn fabric_forwards_like_the_big_switch() {
        let master = compile(RULES);
        for leaves in [1usize, 2, 4] {
            let fcfg = FabricConfig::uniform(leaves, "ev.sym", extractor(), cfg(2));
            let mut fabric = Fabric::start(&master, &fcfg).unwrap();
            let mut big = master.clone();
            let mut expected = Vec::new();
            for sym in ["AA", "BB", "CC"] {
                for val in [0u32, 20, 60] {
                    let ev = event(sym, val);
                    expected.push(big.process(&ev, 0).unwrap().ports);
                    fabric.submit(&ev, 0);
                }
            }
            let report = fabric.finish();
            assert!(report.reconciles());
            let got = report.decisions_in_submit_order();
            assert_eq!(got.len(), expected.len());
            for (g, e) in got.iter().zip(&expected) {
                assert_eq!(&g.unwrap().ports, e, "leaves={leaves}");
            }
        }
    }

    #[test]
    fn epoch_commits_atomically_and_bumps_generations() {
        let master = compile(RULES);
        let fcfg = FabricConfig::uniform(2, "ev.sym", extractor(), cfg(1));
        let mut fabric = Fabric::start(&master, &fcfg).unwrap();
        let gens: Vec<u64> = (0..2).map(|l| fabric.leaf_generation(l)).collect();
        fabric
            .install_master(compile("sym == CC : fwd(7)"))
            .unwrap();
        assert_eq!(fabric.epoch(), 1);
        for (l, g) in gens.iter().enumerate() {
            assert_eq!(fabric.leaf_generation(l), g + 1);
        }
        fabric.submit(&event("CC", 1), 0);
        fabric.submit(&event("AA", 1), 0);
        let report = fabric.finish();
        let got = report.decisions_in_submit_order();
        assert_eq!(got[0].unwrap().ports, vec![camus_pipeline::PortId(7)]);
        assert!(got[1].unwrap().ports.is_empty(), "old rules are gone");
    }

    #[test]
    fn plan_failure_is_all_or_nothing() {
        let master = compile(RULES);
        let fcfg = FabricConfig::uniform(2, "ev.sym", extractor(), cfg(1));
        let mut fabric = Fabric::start(&master, &fcfg).unwrap();
        let before: Vec<Vec<Table>> = (0..2).map(|l| fabric.leaf_tables(l).to_vec()).collect();
        // A master whose layout lacks the shard field: planning fails.
        let alien = {
            let spec = parse_spec(
                "header_type x_t { fields { a: 32; } }\nheader x_t x;\n@query_field(x.a)\n",
            )
            .unwrap();
            let c = Compiler::new(spec, CompilerOptions::raw()).unwrap();
            c.compile(&parse_program("a > 1 : fwd(1)").unwrap())
                .unwrap()
                .pipeline
        };
        assert!(matches!(
            fabric.install_master(alien),
            Err(FabricFault::Plan(_))
        ));
        assert_eq!(fabric.epoch(), 0);
        for (l, b) in before.iter().enumerate() {
            assert!(
                tables_identical(fabric.leaf_tables(l), b),
                "leaf {l} changed"
            );
        }
    }

    #[test]
    fn mixed_worker_counts_per_leaf() {
        let master = compile(RULES);
        let fcfg = FabricConfig::new("ev.sym", extractor(), vec![cfg(1), cfg(8)]);
        let mut fabric = Fabric::start(&master, &fcfg).unwrap();
        let mut big = master.clone();
        let evs: Vec<Vec<u8>> = ["AA", "BB", "CC", "DD"]
            .iter()
            .flat_map(|s| (0..8u32).map(move |v| event(s, v * 10)))
            .collect();
        let expected: Vec<_> = evs
            .iter()
            .map(|e| big.process(e, 0).unwrap().ports)
            .collect();
        for e in &evs {
            fabric.submit(e, 0);
        }
        let report = fabric.finish();
        assert!(report.reconciles());
        for (g, e) in report.decisions_in_submit_order().iter().zip(&expected) {
            assert_eq!(&g.unwrap().ports, e);
        }
    }

    #[test]
    fn route_is_stable_and_total() {
        let master = compile(RULES);
        let fcfg = FabricConfig::uniform(4, "ev.sym", extractor(), cfg(1));
        let fabric = Fabric::start(&master, &fcfg).unwrap();
        // Unknown symbols and garbage still route deterministically.
        let garbage: Vec<u8> = vec![0xFF; 3];
        assert_eq!(fabric.route(&garbage), fabric.route(&garbage));
        assert!(fabric.route(&event("QQ", 5)) < 4);
        fabric.finish();
    }

    #[test]
    fn scripted_kill_fails_over_with_an_exact_ledger() {
        let master = compile(RULES);
        let mut fcfg = FabricConfig::uniform(2, "ev.sym", extractor(), cfg(1));
        fcfg.probe_interval = 4;
        fcfg.chaos = ChaosPlan {
            events: vec![NodeEvent {
                at_seq: 9,
                leaf: 0,
                kind: NodeEventKind::Kill,
            }],
        };
        let mut fabric = Fabric::start(&master, &fcfg).unwrap();
        let mut big = master.clone();
        let evs: Vec<Vec<u8>> = ["AA", "BB", "CC", "DD", "EE", "FF"]
            .iter()
            .flat_map(|s| (0..8u32).map(move |v| event(s, v * 9)))
            .collect();
        let expected: Vec<_> = evs
            .iter()
            .map(|e| big.process(e, 0).unwrap().ports)
            .collect();
        for e in &evs {
            fabric.submit(e, 0);
        }
        assert!(!fabric.degraded(), "failover committed during the run");
        assert_eq!(fabric.leaf_health(0), LeafHealth::Evicted);
        assert_eq!(fabric.leaf_health(1), LeafHealth::Healthy);
        assert_eq!(fabric.failovers().len(), 1);
        assert!(fabric.failovers()[0].mttr_ns > 0);
        let report = fabric.finish();
        assert_eq!(report.robustness.leaf_deaths, 1);
        assert_eq!(report.robustness.failover_epochs, 1);
        assert!(
            report.reconciles(),
            "submitted == decided + quarantined + orphaned"
        );
        // Loss is confined to the dead leaf: the survivor's ledger is
        // exact with zero quarantine and zero orphans.
        assert_eq!(report.orphaned_per_leaf[1], 0);
        assert!(report.leaves[1].quarantined.is_empty());
        // Every decision that *was* made matches the big switch —
        // packets only go missing (None), never wrong.
        let got = report.decisions_in_submit_order();
        assert_eq!(got.len(), expected.len());
        let mut delivered = 0;
        for (g, e) in got.iter().zip(&expected) {
            if let Some(d) = g {
                assert_eq!(&d.ports, e);
                delivered += 1;
            }
        }
        assert!(delivered > 0);
        // Post-failover traffic (after the last recorded event) all
        // went somewhere live: the tail of the run has no Nones.
        assert!(got.last().unwrap().is_some(), "tail routed to a survivor");
    }

    #[test]
    fn partition_black_holes_convert_to_orphans() {
        let master = compile(RULES);
        let mut fcfg = FabricConfig::uniform(2, "ev.sym", extractor(), cfg(1));
        fcfg.probe_interval = 16;
        let mut fabric = Fabric::start(&master, &fcfg).unwrap();
        // Find a symbol owned by leaf 1, then cut leaf 1's link.
        let victim = (0..64u32)
            .map(|i| event(&format!("S{i}"), 60))
            .find(|e| fabric.route(e) == 1)
            .unwrap();
        // Healthy traffic first, then cut the link *between* probe
        // ticks: packets black-hole on the wire until the next sweep
        // declares the leaf dead and fails it over.
        for _ in 0..8 {
            fabric.submit(&victim, 0);
        }
        fabric.partition_leaf(1);
        for _ in 0..32 {
            fabric.submit(&victim, 0);
        }
        assert_eq!(fabric.leaf_health(1), LeafHealth::Evicted);
        let report = fabric.finish();
        assert!(report.reconciles());
        assert!(report.orphaned_per_leaf[1] > 0, "wire loss became orphans");
        assert_eq!(report.orphaned_per_leaf[0], 0);
        assert_eq!(report.robustness.leaf_deaths, 1);
        // The partitioned engine was still *alive* — fail-stop treats
        // it as dead anyway, and its pre-partition ledger is exact.
        assert_eq!(report.health[1], LeafHealth::Evicted);
        // Post-failover, the victim symbol's packets reach leaf 0.
        let tail = report.decisions_in_submit_order();
        assert!(tail.last().unwrap().is_some());
    }

    #[test]
    fn transient_stall_is_absorbed_by_epoch_retry_backoff() {
        let master = compile(RULES);
        let engine = EngineConfig {
            watchdog_ms: 20,
            ..cfg(1)
        };
        let mut fcfg = FabricConfig::uniform(2, "ev.sym", extractor(), engine);
        fcfg.epoch = EpochOptions {
            retry_attempts: 40,
            retry_base_ms: 5,
            retry_cap_ms: 40,
        };
        let mut fabric = Fabric::start(&master, &fcfg).unwrap();
        fabric.stall_leaf(0, 150);
        fabric.stall_leaf(1, 150);
        for i in 0..8u32 {
            fabric.submit(&event("AA", i), 0);
            fabric.submit(&event("AB", i), 0);
        }
        fabric
            .install_master(compile("sym == CC : fwd(7)"))
            .unwrap();
        assert_eq!(fabric.epoch(), 1);
        assert!(
            fabric.robustness().epoch_retries > 0,
            "the stall forced at least one backoff retry"
        );
        assert!(!fabric.degraded(), "a stall is transient, not a death");
        let report = fabric.finish();
        assert!(report.reconciles());
        assert_eq!(report.robustness.leaf_deaths, 0);
    }

    #[test]
    fn exhausted_retries_surface_the_transient_fault() {
        let master = compile(RULES);
        let engine = EngineConfig {
            watchdog_ms: 10,
            ..cfg(1)
        };
        let mut fcfg = FabricConfig::uniform(2, "ev.sym", extractor(), engine);
        fcfg.epoch = EpochOptions {
            retry_attempts: 1,
            retry_base_ms: 1,
            retry_cap_ms: 1,
        };
        let mut fabric = Fabric::start(&master, &fcfg).unwrap();
        fabric.stall_leaf(0, 400);
        fabric.submit(&event("AA", 1), 0);
        fabric.submit(&event("AB", 1), 0);
        let err = fabric.install_master(compile("sym == CC : fwd(7)"));
        assert!(
            matches!(
                err,
                Err(FabricFault::Quiesce {
                    fault: EngineFault::QuiesceTimeout { .. },
                    ..
                })
            ),
            "bounded retries exhausted: the transient fault surfaces"
        );
        assert_eq!(fabric.epoch(), 0, "all-or-nothing held on every attempt");
        assert_eq!(fabric.robustness().epoch_retries, 1);
        // The fabric recovers once the stall clears: a later attempt
        // with fresh retries succeeds.
        std::thread::sleep(Duration::from_millis(450));
        fabric
            .install_master(compile("sym == CC : fwd(7)"))
            .unwrap();
        assert_eq!(fabric.epoch(), 1);
        fabric.finish();
    }
}
