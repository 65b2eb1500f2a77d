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
//!   engine's generation swap into a two-phase commit across all
//!   leaves: *prepare* (admission-check + stage on every leaf; any
//!   rejection aborts everywhere with zero observable state change),
//!   then *commit* (publish everywhere — infallible once every node has
//!   staged). No drain runs in between: each leaf's batches carry the
//!   program live when their packets were submitted, so a packet is
//!   decided by exactly the epoch it was submitted in, never a mix,
//!   and a stalled leaf cannot fail an epoch.
//! * **Survivability** — leaves fail (crash outright, or partition
//!   from the spine) and the fabric carries on. A failure detector
//!   (liveness probes every [`FabricConfig::probe_interval`]
//!   submissions, plus the epoch's own prepare phase, where a crashed
//!   leaf refuses to stage) declares dead leaves *fail-stop*; while a
//!   death is detected-but-not-repaired the spine runs **degraded**,
//!   drop-counting packets whose shard owner died
//!   ([`FabricReport::orphaned_per_leaf`]); repair is an automatic
//!   **failover epoch** — the master is re-sliced over the survivors
//!   ([`camus_core::PartitionPlan::compute_subset`], which moves *only*
//!   the dead leaves' symbols) and committed through the same
//!   two-phase protocol. `@query_counter` windows that lived only on
//!   the dead leaf are lost — that is the contract, and each leaf's
//!   death counts its register slots into
//!   `camus_state_loss_entries_total`. The ledger stays exact
//!   throughout: `submitted == decided + quarantined + orphaned`.
//!
//! Equivalence to the big switch is proven differentially in
//! `tests/fabric_differential.rs` at the workspace root: fabric output
//! ≡ fresh full recompile ≡ naive AST oracle, across churn sequences,
//! leaf counts and worker counts. Survivability is proven by the
//! chaos soak (`tests/fabric_chaos.rs`): a seeded kill / stall /
//! partition schedule, each event fired through [`Fabric::kill_leaf`],
//! [`Fabric::stall_leaf`] or [`Fabric::partition_leaf`] before the
//! submit of its seq, with post-failover forwarding bit-identical to a
//! fresh big-switch recompile over the surviving shards.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::time::Instant;

use camus_core::partition::{owner_in_subset, PartitionPlan};
use camus_core::{CompileError, UpdateReport};
use camus_engine::{admit, Engine, EngineConfig, EngineFault, EngineReport, ShardFn};
use camus_pipeline::{ForwardDecision, Pipeline, Table};
use camus_telemetry::{render_prometheus_fabric, RobustnessCounters, TelemetrySnapshot};

/// Fabric-level control-plane faults. Every variant leaves the fabric
/// in its pre-call state (the epoch protocol aborts all staged
/// candidates before reporting).
#[derive(Debug)]
pub enum FabricFault {
    /// Partition planning failed (unknown shard field, bad leaf count,
    /// or — fatally — no surviving leaf to plan over).
    Plan(CompileError),
    /// Phase one failed on one leaf: its slice was rejected (admission)
    /// or the leaf is dead. No leaf committed anything; a dead leaf is
    /// failed over inside [`Fabric::install_master`] and never surfaces
    /// here.
    Prepare {
        /// The leaf that rejected its slice.
        leaf: usize,
        /// The underlying engine fault.
        fault: EngineFault,
    },
    /// [`Fabric::quiesce`] failed on one leaf (watchdog timeout); retry
    /// once the slow worker drains.
    Quiesce {
        /// The leaf that failed to drain.
        leaf: usize,
        /// The underlying engine fault.
        fault: EngineFault,
    },
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
                write!(f, "fabric drain failed on leaf {leaf}: {fault}")
            }
        }
    }
}

impl std::error::Error for FabricFault {}

/// A leaf's place in the failure detector's state machine. Fail-stop:
/// the only transitions are `Healthy → Dead` (declared by a probe, by
/// an epoch's prepare phase or by [`Fabric::quiesce`]) and
/// `Dead → Evicted` (its shards failed over in a committed emergency
/// epoch). There is no resurrection — the fabric replaces a node's
/// shards, not the node.
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
    /// Liveness-probe cadence, in submissions: every `probe_interval`
    /// packets the spine sweeps all healthy leaves (`is_alive` +
    /// reachability) and, if anything died, attempts a failover epoch.
    /// 0 disables probing — detection then rides only epochs and
    /// [`Fabric::quiesce`].
    pub probe_interval: u64,
}

impl FabricConfig {
    /// A fabric with explicit per-leaf engine configs, probing every
    /// 64 packets.
    pub fn new(shard_field: &str, extract: ShardFn, leaf_engines: Vec<EngineConfig>) -> Self {
        FabricConfig {
            shard_field: shard_field.to_string(),
            extract,
            leaf_engines,
            probe_interval: 64,
        }
    }

    /// A homogeneous fabric: `leaves` copies of one engine config (0
    /// leaves is refused at [`Fabric::start`], like an empty
    /// [`FabricConfig::new`]).
    pub fn uniform(
        leaves: usize,
        shard_field: &str,
        extract: ShardFn,
        engine: EngineConfig,
    ) -> Self {
        Self::new(shard_field, extract, vec![engine; leaves])
    }
}

/// Where one submitted packet went, in global submission order.
#[derive(Debug, Clone, Copy)]
enum Route {
    /// Delivered to its owning leaf's engine.
    Delivered(usize),
    /// Dropped at the spine: the owner was dead (degraded mode) or
    /// behind an undetected partition.
    Orphaned,
}

/// One leaf as the spine sees it: its engine (which counts every
/// packet delivered to it), its place in the failure detector, and the
/// packets routed to it that never arrived.
struct Leaf {
    engine: Engine,
    health: LeafHealth,
    /// `false` once a scripted partition cut the spine's link to the
    /// leaf. The engine may still be running; the fabric can no longer
    /// tell (fail-stop model).
    reachable: bool,
    /// When the scripted kill/partition fired (None = no fault, or an
    /// organic one the fabric never saw the start of).
    fault_at: Option<Instant>,
    detected_at: Option<Instant>,
    /// Degraded-mode drops: packets routed here after the leaf was
    /// declared dead.
    orphaned: u64,
    /// Packets black-holed on a partitioned link *before* detection —
    /// lost on the wire, but not yet control-plane knowledge. They
    /// convert to `orphaned` the moment the leaf is declared dead (or
    /// at `finish`, so the ledger is always exact).
    void: u64,
    /// Register slots lost with the leaf (its `@query_counter` windows
    /// existed nowhere else).
    state_lost: u64,
}

impl Leaf {
    /// Folds the wire losses into the orphan count.
    fn void_to_orphans(&mut self) {
        self.orphaned += std::mem::take(&mut self.void);
    }

    /// Declares a healthy leaf dead: converts its wire-lost packets to
    /// orphans, and counts the `slots` register slots that lived only
    /// there as lost.
    fn declare_dead(&mut self, slots: u64) {
        if self.health != LeafHealth::Healthy {
            return;
        }
        self.health = LeafHealth::Dead;
        let now = Instant::now();
        self.detected_at = Some(now);
        // Organic death (no scripted fault observed): measure repair
        // from detection — the earliest instant the fabric can know.
        self.fault_at.get_or_insert(now);
        self.void_to_orphans();
        // Survivor register state carries across epochs automatically
        // (`ShardCtx::adopt`); the dead leaf's does not exist anywhere
        // else — count every slot that died with it.
        self.state_lost += slots;
    }
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
    leaves: Vec<Leaf>,
    extract: ShardFn,
    master: Pipeline,
    plan: PartitionPlan,
    epoch: u64,
    epochs_rejected: u64,
    probe_interval: u64,
    /// The probe clock: submissions so far.
    next_seq: u64,
    failovers: Vec<FailoverRecord>,
    /// Route per submitted packet, in global submission order;
    /// populated only when every leaf records decisions (otherwise the
    /// memory would buy nothing).
    route_log: Vec<Route>,
    record_routes: bool,
}

impl Fabric {
    /// Plans the partition of `master`, admission-checks every slice
    /// against its leaf's configured ASIC model, and starts one engine
    /// per leaf. Nothing starts if there is no leaf (or more than
    /// [`camus_core::partition::MAX_LEAVES`]) or any leaf cannot hold
    /// its slice.
    pub fn start(master: &Pipeline, cfg: &FabricConfig) -> Result<Fabric, FabricFault> {
        let plan = PartitionPlan::compute(master, &cfg.shard_field, cfg.leaf_engines.len())
            .map_err(FabricFault::Plan)?;
        let slices = plan.slices(master);
        // `Engine::start` trusts its seed pipeline (admission guards
        // *installs*), so the fabric applies the per-leaf budget check
        // up front, before any thread spawns.
        for (leaf, (slice, ecfg)) in slices.iter().zip(&cfg.leaf_engines).enumerate() {
            admit(ecfg.admission.as_ref(), &slice.tables)
                .map_err(|fault| FabricFault::Prepare { leaf, fault })?;
        }
        let record_routes = cfg.leaf_engines.iter().all(|e| e.record_decisions);
        let leaves = slices
            .iter()
            .zip(&cfg.leaf_engines)
            .map(|(slice, ecfg)| Leaf {
                engine: Engine::start(slice, ecfg, cfg.extract.clone()),
                health: LeafHealth::Healthy,
                reachable: true,
                fault_at: None,
                detected_at: None,
                orphaned: 0,
                void: 0,
                state_lost: 0,
            })
            .collect();
        Ok(Fabric {
            leaves,
            extract: cfg.extract.clone(),
            master: master.clone(),
            plan,
            epoch: 0,
            epochs_rejected: 0,
            probe_interval: cfg.probe_interval,
            next_seq: 0,
            failovers: Vec::new(),
            route_log: Vec::new(),
            record_routes,
        })
    }

    /// Number of leaves.
    pub fn leaves(&self) -> usize {
        self.leaves.len()
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
        self.leaves[leaf].health
    }

    /// Whether any leaf is declared dead but not yet failed over —
    /// the window in which its shards' packets are drop-counted.
    pub fn degraded(&self) -> bool {
        self.leaves.iter().any(|l| l.health == LeafHealth::Dead)
    }

    /// Fabric-global robustness counters so far, derived from the
    /// leaves' records: the leaves not healthy, the epochs that
    /// repaired one, and the leaves' orphan and state-loss sums.
    pub fn robustness(&self) -> RobustnessCounters {
        let mut epochs: Vec<u64> = self.failovers.iter().map(|f| f.epoch).collect();
        epochs.dedup();
        RobustnessCounters {
            leaf_deaths: self
                .leaves
                .iter()
                .filter(|l| l.health != LeafHealth::Healthy)
                .count() as u64,
            failover_epochs: epochs.len() as u64,
            orphaned_packets: self.leaves.iter().map(|l| l.orphaned).sum(),
            state_loss_entries: self.leaves.iter().map(|l| l.state_lost).sum(),
        }
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
            self.leaves.len(),
            self.plan.live_mask,
        )
    }

    /// Installed (control-plane master) tables of one leaf — for
    /// asserting bit-identical pre-state after an aborted epoch.
    pub fn leaf_tables(&self, leaf: usize) -> &[Table] {
        self.leaves[leaf].engine.installed_tables()
    }

    /// Published RCU generation of one leaf.
    pub fn leaf_generation(&self, leaf: usize) -> u64 {
        self.leaves[leaf].engine.generation()
    }

    /// Total packets submitted to the fabric: delivered (each leaf
    /// engine's [`Engine::submitted`]), black-holed or drop-counted.
    pub fn submitted(&self) -> u64 {
        self.leaves
            .iter()
            .map(|l| l.engine.submitted() + l.orphaned + l.void)
            .sum()
    }

    /// Crashes a leaf (the chaos harness's kill event, also callable
    /// directly by a driver): its engine abandons everything in
    /// flight and the fabric's detector will declare it dead at the
    /// next probe tick, epoch or [`Fabric::quiesce`].
    pub fn kill_leaf(&mut self, leaf: usize) {
        let leaf = &mut self.leaves[leaf];
        leaf.engine.simulate_crash();
        leaf.fault_at.get_or_insert_with(Instant::now);
    }

    /// Cuts the spine's link to a leaf (chaos partition event): the
    /// engine keeps running but nothing reaches it; packets routed
    /// there black-hole until the detector declares the leaf dead.
    pub fn partition_leaf(&mut self, leaf: usize) {
        let leaf = &mut self.leaves[leaf];
        leaf.reachable = false;
        leaf.fault_at.get_or_insert_with(Instant::now);
    }

    /// Arms a transient whole-leaf stall (chaos stall event): the
    /// leaf's next batch sleeps `ms` ms. Epochs commit through it;
    /// only [`Fabric::quiesce`] times out on it.
    pub fn stall_leaf(&mut self, leaf: usize, ms: u64) {
        self.leaves[leaf].engine.inject_stall(ms);
    }

    /// Routes one packet to its owning leaf and submits it there (or
    /// drop-counts it, if the owner died — see [`Fabric::route`]).
    /// Returns the owning leaf. Liveness probes ride this path, in
    /// deterministic submission order, before the packet is routed.
    pub fn submit(&mut self, packet: &[u8], now_us: u64) -> usize {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.probe_interval > 0 && seq.is_multiple_of(self.probe_interval) {
            self.probe_and_repair();
        }
        let owner = self.route(packet);
        let leaf = &mut self.leaves[owner];
        let route = match leaf.health {
            LeafHealth::Healthy if leaf.reachable => {
                leaf.engine.submit(packet, now_us);
                Route::Delivered(owner)
            }
            LeafHealth::Healthy => {
                // Partitioned but not yet detected: the copy dies on a
                // cut wire. The spine doesn't know yet; the run's
                // bookkeeping does — it converts to an orphan the
                // moment the detector catches up.
                leaf.void += 1;
                Route::Orphaned
            }
            _ => {
                // Degraded mode: the owner is declared dead and the
                // failover epoch hasn't committed. An honest counted
                // drop — never a silent one, never a mis-route.
                leaf.orphaned += 1;
                Route::Orphaned
            }
        };
        if self.record_routes {
            self.route_log.push(route);
        }
        owner
    }

    /// One failure-detector sweep: any healthy leaf that stopped
    /// answering its liveness probe (crashed) or sits behind a cut
    /// link (partitioned) is declared dead, fail-stop.
    fn detect_failures(&mut self) {
        let slots = self.master.registers.len() as u64;
        for leaf in &mut self.leaves {
            if leaf.health == LeafHealth::Healthy && (!leaf.reachable || !leaf.engine.is_alive()) {
                leaf.declare_dead(slots);
            }
        }
    }

    /// Probe tick: sweep, then — if anything is dead — attempt the
    /// failover epoch. A survivor that cannot admit its grown slice
    /// leaves the fabric degraded and the next tick tries again, so a
    /// permanent rejection leaves it degraded for good: every affected
    /// packet is still counted, so the operator sees exactly what
    /// graceful degradation cost.
    fn probe_and_repair(&mut self) {
        self.detect_failures();
        if self.degraded() {
            let _ = self.install_master(self.master.clone());
        }
    }

    /// Live-leaf bitmask (bit `l` set ⇔ leaf `l` is healthy).
    fn live_mask(&self) -> u64 {
        let mut mask = 0u64;
        for (i, leaf) in self.leaves.iter().enumerate().take(64) {
            if leaf.health == LeafHealth::Healthy {
                mask |= 1 << i;
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
    /// over the *surviving* leaves.
    ///
    /// 1. **Prepare**: slice the master over the live mask; every live
    ///    leaf admission-checks and stages its slice. Any failure ⇒
    ///    abort everywhere; no generation bump, no table change, on
    ///    any leaf. A leaf that refuses because it crashed
    ///    ([`EngineFault::Killed`]) is declared dead and the epoch
    ///    replans over the survivors — prepare doubles as a failure
    ///    detector.
    /// 2. **Commit**: publish everywhere. Infallible by construction —
    ///    every admission already passed in phase one. Packets
    ///    submitted before the commit are decided by the old slices,
    ///    packets after it by the new ones, on every leaf: each batch
    ///    carries its program, so nothing is drained in between and a
    ///    stalled leaf delays nothing. A commit that re-homes a dead
    ///    leaf's shards is a *failover epoch*; the dead leaf is
    ///    evicted and its repair is recorded.
    pub fn install_master(&mut self, master: Pipeline) -> Result<(), FabricFault> {
        self.detect_failures();
        loop {
            match self.try_epoch(&master) {
                Ok(plan) => {
                    self.commit_epoch(master, plan);
                    return Ok(());
                }
                Err(FabricFault::Prepare {
                    leaf,
                    fault: EngineFault::Killed,
                }) => {
                    let slots = self.master.registers.len() as u64;
                    self.leaves[leaf].declare_dead(slots);
                }
                Err(fault) => return Err(fault),
            }
        }
    }

    /// One all-or-nothing epoch attempt over the current live mask:
    /// stage on every live leaf, then commit on every live leaf.
    fn try_epoch(&mut self, master: &Pipeline) -> Result<PartitionPlan, FabricFault> {
        let live = self.live_mask();
        let plan =
            PartitionPlan::compute_subset(master, &self.plan.shard_field, self.leaves.len(), live)
                .map_err(FabricFault::Plan)?;
        let is_live = |leaf: usize| live & (1 << leaf.min(63)) != 0;
        for leaf in (0..self.leaves.len()).filter(|&l| is_live(l)) {
            if let Err(fault) = self.leaves[leaf].engine.stage(plan.slice(master, leaf)) {
                self.abort_all();
                if fault != EngineFault::Killed {
                    self.epochs_rejected += 1;
                }
                return Err(FabricFault::Prepare { leaf, fault });
            }
        }
        for (i, leaf) in self.leaves.iter_mut().enumerate() {
            if is_live(i) {
                let committed = leaf.engine.commit();
                debug_assert!(committed, "every live leaf staged in phase one");
            }
        }
        Ok(plan)
    }

    /// Drops every staged candidate (epoch abort). Harmless on leaves
    /// that never staged (dead ones included).
    fn abort_all(&mut self) {
        for leaf in &mut self.leaves {
            leaf.engine.abort();
        }
    }

    /// Post-commit bookkeeping: adopt the new master/plan, and evict
    /// any dead leaf whose shards this epoch just re-homed.
    fn commit_epoch(&mut self, master: Pipeline, plan: PartitionPlan) {
        self.master = master;
        self.plan = plan;
        self.epoch += 1;
        for (i, leaf) in self.leaves.iter_mut().enumerate() {
            if leaf.health != LeafHealth::Dead {
                continue;
            }
            leaf.health = LeafHealth::Evicted;
            let detect_ns = match (leaf.fault_at, leaf.detected_at) {
                (Some(fault), Some(detected)) => detected.duration_since(fault).as_nanos() as u64,
                _ => 0,
            };
            let mttr_ns = leaf.fault_at.map_or(0, |t| t.elapsed().as_nanos() as u64);
            self.failovers.push(FailoverRecord {
                leaf: i,
                epoch: self.epoch,
                detect_ns,
                mttr_ns,
                orphaned: leaf.orphaned,
            });
        }
    }

    /// Drains every healthy leaf (no epoch change). Respawns dead
    /// workers as a side effect, like the underlying
    /// [`Engine::quiesce`]; a leaf found dead here is declared so
    /// (repair waits for the next probe tick or install). No epoch
    /// needs this; a stalled leaf fails it with
    /// [`FabricFault::Quiesce`].
    pub fn quiesce(&mut self) -> Result<(), FabricFault> {
        self.detect_failures();
        let slots = self.master.registers.len() as u64;
        for (i, leaf) in self.leaves.iter_mut().enumerate() {
            if leaf.health != LeafHealth::Healthy {
                continue;
            }
            match leaf.engine.quiesce() {
                Ok(()) => {}
                Err(EngineFault::Killed) => leaf.declare_dead(slots),
                Err(fault) => return Err(FabricFault::Quiesce { leaf: i, fault }),
            }
        }
        Ok(())
    }

    /// Joins every leaf engine and aggregates the fabric report.
    pub fn finish(mut self) -> FabricReport {
        // Partitions never detected by run's end: the packets are gone
        // on the wire either way — fold them into the orphan ledger so
        // reconciliation stays exact.
        for leaf in &mut self.leaves {
            leaf.void_to_orphans();
        }
        let robustness = self.robustness();
        let health = self.leaves.iter().map(|l| l.health).collect();
        let orphaned_per_leaf = self.leaves.iter().map(|l| l.orphaned).collect();
        // Stamp per-node robustness into each leaf's snapshot, and the
        // fabric-global counters into a synthetic spine node — the
        // spine is where deaths are detected and orphans are dropped,
        // so that's where a scrape should see them.
        let leaves: Vec<EngineReport> = self
            .leaves
            .into_iter()
            .map(|leaf| {
                let mut report = leaf.engine.finish();
                if let Some(t) = report.telemetry.as_mut() {
                    t.robustness.leaf_deaths = u64::from(leaf.health != LeafHealth::Healthy);
                    t.robustness.orphaned_packets = leaf.orphaned;
                    t.robustness.state_loss_entries = leaf.state_lost;
                }
                report
            })
            .collect();
        let spine = leaves.iter().any(|r| r.telemetry.is_some()).then(|| {
            let mut snap = TelemetrySnapshot::new(0);
            snap.robustness = robustness;
            snap
        });
        FabricReport {
            epoch: self.epoch,
            epochs_rejected: self.epochs_rejected,
            orphaned_per_leaf,
            health,
            failovers: self.failovers,
            robustness,
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
    /// Packets drop-counted per dead owner (degraded windows plus
    /// partition black-holes).
    pub orphaned_per_leaf: Vec<u64>,
    /// Final detector state per leaf.
    pub health: Vec<LeafHealth>,
    /// Completed failovers, in commit order.
    pub failovers: Vec<FailoverRecord>,
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
    /// Total packets submitted to the fabric: delivered (each leaf
    /// report's `submitted`) plus orphaned.
    pub fn submitted(&self) -> u64 {
        self.leaves.iter().map(|r| r.submitted).sum::<u64>() + self.orphaned()
    }

    /// Packets drop-counted at the spine for dead owners.
    pub fn orphaned(&self) -> u64 {
        self.orphaned_per_leaf.iter().sum()
    }

    /// Exact loss reconciliation: every packet submitted to the fabric
    /// is decided, quarantined (died inside a leaf), or orphaned
    /// (dropped at the spine for a dead owner) —
    /// `submitted == decided + quarantined + orphaned`. Orphans never
    /// enter a leaf, so this holds exactly when every leaf's
    /// [`EngineReport::reconciles`] does.
    pub fn reconciles(&self) -> bool {
        self.leaves.iter().all(EngineReport::reconciles)
    }

    /// Packets lost to quarantine across the fabric.
    pub fn total_quarantined(&self) -> usize {
        self.leaves.iter().map(|r| r.quarantined.len()).sum()
    }

    /// Reassembles per-packet decisions in *global* submission order
    /// from the per-leaf reports (requires `record_decisions` on every
    /// leaf). Quarantined and orphaned packets yield `None`.
    pub fn decisions_in_submit_order(&self) -> Vec<Option<&ForwardDecision>> {
        let per_leaf: Vec<Vec<Option<&ForwardDecision>>> = self
            .leaves
            .iter()
            .map(EngineReport::decisions_in_submit_order)
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
                Route::Orphaned => None,
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
                && x.keys() == y.keys()
                && x.default_ops == y.default_ops
                && x.len() == y.len()
                && x.entries().eq(y.entries())
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use camus_core::{Compiler, CompilerOptions};
    use camus_lang::{parse_program, parse_spec, Rule};
    use camus_workload::{event, raw_field_extractor, EpochOracle, EVENT_SPEC};

    fn compile_rules(rules: &[Rule]) -> Pipeline {
        let spec = parse_spec(EVENT_SPEC).unwrap();
        let c = Compiler::new(spec, CompilerOptions::raw()).unwrap();
        c.compile(rules).unwrap().pipeline
    }

    fn compile(rules: &str) -> Pipeline {
        compile_rules(&parse_program(rules).unwrap())
    }

    /// The big switch running `rules`, as the oracle of one run.
    fn big_switch(rules: &str) -> EpochOracle<'static> {
        let mut oracle = EpochOracle::new(&parse_spec(EVENT_SPEC).unwrap(), compile_rules);
        oracle.publish(&parse_program(rules).unwrap());
        oracle
    }

    fn extractor() -> ShardFn {
        let spec = parse_spec(EVENT_SPEC).unwrap();
        raw_field_extractor(&spec, "sym").unwrap()
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

    /// Runs `events` through a fabric over `fcfg` installed with
    /// [`RULES`] and holds every decision to the big switch.
    fn assert_forwards_like_the_big_switch(fcfg: &FabricConfig, events: &[Vec<u8>]) {
        let mut fabric = Fabric::start(&compile(RULES), fcfg).unwrap();
        let mut oracle = big_switch(RULES);
        for ev in events {
            oracle.submit(ev, 0);
            fabric.submit(ev, 0);
        }
        let report = fabric.finish();
        assert!(report.reconciles());
        let decisions = report.decisions_in_submit_order();
        assert_eq!(oracle.check(&decisions), 0);
    }

    #[test]
    fn fabric_forwards_like_the_big_switch() {
        let events: Vec<Vec<u8>> = ["AA", "BB", "CC"]
            .iter()
            .flat_map(|s| [0u32, 20, 60].map(|v| event(s, v)))
            .collect();
        for leaves in [1usize, 2, 4] {
            let fcfg = FabricConfig::uniform(leaves, "ev.sym", extractor(), cfg(2));
            assert_forwards_like_the_big_switch(&fcfg, &events);
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
    fn a_fabric_without_leaves_is_refused_before_anything_starts() {
        for fcfg in [
            FabricConfig::new("ev.sym", extractor(), vec![]),
            FabricConfig::uniform(0, "ev.sym", extractor(), cfg(1)),
        ] {
            assert!(matches!(
                Fabric::start(&compile(RULES), &fcfg),
                Err(FabricFault::Plan(CompileError::BadSpec(_)))
            ));
        }
    }

    #[test]
    fn mixed_worker_counts_per_leaf() {
        let fcfg = FabricConfig::new("ev.sym", extractor(), vec![cfg(1), cfg(8)]);
        let events: Vec<Vec<u8>> = ["AA", "BB", "CC", "DD"]
            .iter()
            .flat_map(|s| (0..8u32).map(move |v| event(s, v * 10)))
            .collect();
        assert_forwards_like_the_big_switch(&fcfg, &events);
    }

    /// Each leaf spreads the symbols the spine gives it over all of its
    /// workers: the worker choice does not reread the spine's bits.
    #[test]
    fn every_leaf_uses_every_worker() {
        let fcfg = FabricConfig::uniform(2, "ev.sym", extractor(), cfg(2));
        let mut fabric = Fabric::start(&compile(RULES), &fcfg).unwrap();
        for i in 0..256u32 {
            fabric.submit(&event(&format!("S{i}"), i), 0);
        }
        let report = fabric.finish();
        assert!(report.reconciles());
        for (l, leaf) in report.leaves.iter().enumerate() {
            let per_worker: Vec<u64> = leaf.per_worker.iter().map(|w| w.packets).collect();
            assert!(!per_worker.contains(&0), "leaf {l}: {per_worker:?}");
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
        let mut fabric = Fabric::start(&master, &fcfg).unwrap();
        let mut oracle = big_switch(RULES);
        let evs: Vec<Vec<u8>> = ["AA", "BB", "CC", "DD", "EE", "FF"]
            .iter()
            .flat_map(|s| (0..8u32).map(move |v| event(s, v * 9)))
            .collect();
        for (seq, e) in evs.iter().enumerate() {
            if seq == 9 {
                fabric.kill_leaf(0);
            }
            oracle.submit(e, 0);
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
        assert!(oracle.check(&got) < evs.len());
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
}
