//! Per-shard data-plane telemetry and the merged, versioned snapshot.
//!
//! [`DataPlaneTelemetry`] is what one engine worker (or the sequential
//! pipeline) owns privately: batch/packet counters plus four latency
//! histograms. It is heap-allocated exactly once (inside a `Box` on
//! `ExecState`), every `record_*` call is fixed-cost array arithmetic,
//! and shards never contend — the engine merges at `finish()` exactly
//! like it merges `ExecStats`.
//!
//! Stage timing is *sampled*: every `2^sample_shift`-th packet gets
//! per-stage `Instant` reads (parse / match / mcast), while batch
//! latency is always recorded (two clock reads per batch). Sampling is
//! what keeps instrumentation under the 5 % throughput budget; the
//! counters, by contrast, are exact and trace-deterministic.
//!
//! [`TelemetrySnapshot`] is the merged cross-shard view the engine
//! attaches to `EngineReport` (schema version [`SNAPSHOT_VERSION`]).

use crate::hist::Histogram;
use crate::span::SpanSet;

/// Schema version stamped into every snapshot. Bump on any breaking
/// change to the layout so readers can reject a stale one.
pub const SNAPSHOT_VERSION: u64 = 1;

/// Unit shift for the batch histogram: batches take µs–ms, so bucket
/// in 32 ns units to extend range (precise to ~3.7 ms, caps ~137 s).
const BATCH_UNIT_SHIFT: u32 = 5;

/// One worker shard's private telemetry. No locks, no atomics, no
/// allocation after construction.
#[derive(Debug, Clone)]
pub struct DataPlaneTelemetry {
    /// `seq & sample_mask == 0` selects the sampled packets.
    sample_mask: u64,
    /// Monotone per-shard packet sequence (drives sampling only; the
    /// authoritative packet count lives in `ExecStats`).
    seq: u64,
    /// Batches processed through `process_batch_shared`.
    pub batches: u64,
    /// Packets that received per-stage timing.
    pub sampled_packets: u64,
    /// Whole-batch latency (always recorded; 32 ns buckets).
    pub batch_ns: Histogram,
    /// Sampled per-packet parse latency (1 ns buckets).
    pub parse_ns: Histogram,
    /// Sampled per-packet match/action latency (1 ns buckets).
    pub match_ns: Histogram,
    /// Sampled per-packet multicast port-union latency (1 ns buckets).
    pub mcast_ns: Histogram,
    /// Decision-cache hits (messages answered without running the
    /// table chain). Folded in from the worker's cache at harvest
    /// time, not on the packet path.
    pub decision_cache_hits: u64,
    /// Decision-cache misses (messages that evaluated the full chain).
    pub decision_cache_misses: u64,
    /// Decision-cache evictions (direct-mapped conflicts).
    pub decision_cache_evictions: u64,
    /// Producer-side spins while a worker's ingress ring was full
    /// (backpressure on submit).
    pub ring_full_spins: u64,
    /// Consumer-side spins while a worker's ingress ring was empty
    /// (worker waiting for batches).
    pub ring_empty_spins: u64,
}

impl DataPlaneTelemetry {
    /// Creates an empty record that samples every `2^sample_shift`-th
    /// packet for stage timing (`sample_shift = 0` samples every one).
    pub fn new(sample_shift: u32) -> Self {
        DataPlaneTelemetry {
            sample_mask: (1u64 << sample_shift.min(63)) - 1,
            seq: 0,
            batches: 0,
            sampled_packets: 0,
            batch_ns: Histogram::with_unit_shift(BATCH_UNIT_SHIFT),
            parse_ns: Histogram::new(),
            match_ns: Histogram::new(),
            mcast_ns: Histogram::new(),
            decision_cache_hits: 0,
            decision_cache_misses: 0,
            decision_cache_evictions: 0,
            ring_full_spins: 0,
            ring_empty_spins: 0,
        }
    }

    /// Folds hot-path counters (decision cache, ring spins) into the
    /// record. Called once per worker at harvest time — the cache and
    /// ring keep their own local counters on the packet path.
    pub fn add_hotpath(
        &mut self,
        cache_hits: u64,
        cache_misses: u64,
        cache_evictions: u64,
        full_spins: u64,
        empty_spins: u64,
    ) {
        self.decision_cache_hits += cache_hits;
        self.decision_cache_misses += cache_misses;
        self.decision_cache_evictions += cache_evictions;
        self.ring_full_spins += full_spins;
        self.ring_empty_spins += empty_spins;
    }

    /// How many packets pass between stage samples.
    pub fn sample_interval(&self) -> u64 {
        self.sample_mask + 1
    }

    /// Advances the packet sequence; returns `true` when this packet
    /// should get per-stage timing. Call exactly once per packet.
    #[inline]
    pub fn tick(&mut self) -> bool {
        let sampled = self.seq & self.sample_mask == 0;
        self.seq = self.seq.wrapping_add(1);
        sampled
    }

    /// Records one whole-batch duration.
    #[inline]
    pub fn record_batch(&mut self, ns: u64) {
        self.batches += 1;
        self.batch_ns.record(ns);
    }

    /// Records one sampled packet's stage durations. `match_ns` covers
    /// table evaluation for every message in the packet (including
    /// multicast group expansion); `mcast_ns` is the final port-set
    /// union (sort + dedup) across those messages.
    #[inline]
    pub fn record_stages(&mut self, parse_ns: u64, match_ns: u64, mcast_ns: u64) {
        self.sampled_packets += 1;
        self.parse_ns.record(parse_ns);
        self.match_ns.record(match_ns);
        self.mcast_ns.record(mcast_ns);
    }

    /// Records a sampled packet that failed to parse (no match/mcast
    /// stages ran). Parse latency still lands in the parse histogram.
    #[inline]
    pub fn record_parse_only(&mut self, parse_ns: u64) {
        self.sampled_packets += 1;
        self.parse_ns.record(parse_ns);
    }

    /// Folds another shard's record into this one. Counter addition and
    /// lossless histogram merges — associative and commutative, so the
    /// engine can fold worker outputs in any order. An untouched
    /// record (the snapshot's empty accumulator) adopts the other
    /// side's sampling cadence, so the merged view reports the
    /// interval the shards actually ran with.
    pub fn merge(&mut self, other: &DataPlaneTelemetry) {
        if self.seq == 0 && self.batches == 0 {
            self.sample_mask = other.sample_mask;
        }
        self.seq = self.seq.wrapping_add(other.seq);
        self.batches += other.batches;
        self.sampled_packets += other.sampled_packets;
        self.batch_ns.merge(&other.batch_ns);
        self.parse_ns.merge(&other.parse_ns);
        self.match_ns.merge(&other.match_ns);
        self.mcast_ns.merge(&other.mcast_ns);
        self.decision_cache_hits += other.decision_cache_hits;
        self.decision_cache_misses += other.decision_cache_misses;
        self.decision_cache_evictions += other.decision_cache_evictions;
        self.ring_full_spins += other.ring_full_spins;
        self.ring_empty_spins += other.ring_empty_spins;
    }

    /// Resets all counters and histograms in place (sampling cadence
    /// is retained). Used when a bench wants a fresh measurement phase
    /// without reallocating.
    pub fn reset(&mut self) {
        let shift = self.sample_mask.trailing_ones();
        *self = DataPlaneTelemetry::new(shift);
    }
}

impl Default for DataPlaneTelemetry {
    /// Defaults to sampling every 16th packet — the cadence the engine
    /// uses to stay within the 5 % overhead budget.
    fn default() -> Self {
        DataPlaneTelemetry::new(4)
    }
}

/// Per-table counters, resolved to table names for export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableCounters {
    /// Table name as declared in the pipeline (e.g. `tbl_0`).
    pub name: String,
    /// Messages that matched a non-default entry.
    pub hits: u64,
    /// Messages that fell through to the default action.
    pub misses: u64,
}

/// Fabric-survivability counters: leaf deaths, failover epochs, the
/// retries and drops they caused, and the typed state loss they
/// admitted. Zero on a healthy node; a fabric stamps per-leaf values
/// into each leaf's snapshot and fabric-global values into a synthetic
/// `spine` node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RobustnessCounters {
    /// Leaves declared dead by the failure detector.
    pub leaf_deaths: u64,
    /// Emergency (failover) epochs committed.
    pub failover_epochs: u64,
    /// Epoch attempts retried after a transient prepare/quiesce fault.
    pub epoch_retries: u64,
    /// Packets drop-counted because their shard's owner was dead and
    /// failover had not yet committed (the degraded window).
    pub orphaned_packets: u64,
    /// Register slots whose state died with a leaf (typed
    /// `StateLoss` entries, summed over failovers).
    pub state_loss_entries: u64,
}

impl RobustnessCounters {
    /// Counter addition, for merging snapshots.
    pub fn merge(&mut self, other: &RobustnessCounters) {
        self.leaf_deaths += other.leaf_deaths;
        self.failover_epochs += other.failover_epochs;
        self.epoch_retries += other.epoch_retries;
        self.orphaned_packets += other.orphaned_packets;
        self.state_loss_entries += other.state_loss_entries;
    }
}

/// The merged, versioned cross-shard view. Built by `Engine::finish`
/// (or directly by a bench) from per-worker [`DataPlaneTelemetry`]
/// records, the engine's control-plane [`SpanSet`], and the pipeline's
/// per-table hit counters.
#[derive(Debug, Clone)]
pub struct TelemetrySnapshot {
    /// Export schema version ([`SNAPSHOT_VERSION`]).
    pub version: u64,
    /// Worker shards merged into this snapshot.
    pub workers: usize,
    /// Total packets processed (from the merged `ExecStats`).
    pub packets: u64,
    /// Merged data-plane counters and histograms.
    pub data: DataPlaneTelemetry,
    /// Merged control-plane spans.
    pub spans: SpanSet,
    /// Per-table hit/miss counters, in pipeline table order.
    pub tables: Vec<TableCounters>,
    /// Survivability counters (leaf deaths, failover epochs, retries,
    /// orphaned packets, state loss). All-zero outside a fabric.
    pub robustness: RobustnessCounters,
}

impl TelemetrySnapshot {
    /// An empty snapshot for `workers` shards.
    pub fn new(workers: usize) -> Self {
        TelemetrySnapshot {
            version: SNAPSHOT_VERSION,
            workers,
            packets: 0,
            data: DataPlaneTelemetry::default(),
            spans: SpanSet::new(),
            tables: Vec::new(),
            robustness: RobustnessCounters::default(),
        }
    }

    /// Folds one worker's data-plane record into the snapshot.
    pub fn absorb_worker(&mut self, data: &DataPlaneTelemetry) {
        self.data.merge(data);
    }

    /// Merges a whole snapshot (e.g. from a second engine run).
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        debug_assert_eq!(self.version, other.version);
        self.workers = self.workers.max(other.workers);
        self.packets += other.packets;
        self.data.merge(&other.data);
        self.spans.merge(&other.spans);
        self.robustness.merge(&other.robustness);
        if self.tables.is_empty() {
            self.tables = other.tables.clone();
        } else if self.tables.len() == other.tables.len() {
            for (a, b) in self.tables.iter_mut().zip(&other.tables) {
                a.hits += b.hits;
                a.misses += b.misses;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanKind;

    #[test]
    fn sampling_cadence_follows_shift() {
        let mut t = DataPlaneTelemetry::new(2);
        assert_eq!(t.sample_interval(), 4);
        let picks: Vec<bool> = (0..8).map(|_| t.tick()).collect();
        assert_eq!(
            picks,
            [true, false, false, false, true, false, false, false]
        );

        // shift 0 samples every packet.
        let mut every = DataPlaneTelemetry::new(0);
        assert!((0..4).all(|_| every.tick()));
    }

    #[test]
    fn stage_and_batch_records_land_in_histograms() {
        let mut t = DataPlaneTelemetry::new(0);
        t.record_batch(64_000);
        t.record_stages(100, 900, 40);
        t.record_parse_only(70);
        assert_eq!(t.batches, 1);
        assert_eq!(t.sampled_packets, 2);
        assert_eq!(t.parse_ns.count(), 2);
        assert_eq!(t.match_ns.count(), 1);
        assert_eq!(t.mcast_ns.count(), 1);
        assert_eq!(t.parse_ns.min(), 70);
        assert_eq!(t.parse_ns.max(), 100);
        // Batch histogram buckets in 32 ns units but reports raw ns.
        assert_eq!(t.batch_ns.max(), 64_000);
    }

    #[test]
    fn merge_equals_single_stream() {
        let mut a = DataPlaneTelemetry::new(0);
        let mut b = DataPlaneTelemetry::new(0);
        let mut one = DataPlaneTelemetry::new(0);
        for v in [120u64, 450, 80] {
            a.record_stages(v, v * 2, v / 2);
            one.record_stages(v, v * 2, v / 2);
        }
        for v in [900u64, 33] {
            b.record_stages(v, v * 2, v / 2);
            one.record_stages(v, v * 2, v / 2);
        }
        a.record_batch(10_000);
        one.record_batch(10_000);
        a.merge(&b);
        assert_eq!(a.sampled_packets, one.sampled_packets);
        assert_eq!(a.batches, one.batches);
        assert_eq!(a.parse_ns.sum(), one.parse_ns.sum());
        assert_eq!(a.match_ns.bucket_counts(), one.match_ns.bucket_counts());
        assert_eq!(a.parse_ns.percentile(99.0), one.parse_ns.percentile(99.0));
    }

    #[test]
    fn empty_accumulator_adopts_merged_cadence() {
        let mut worker = DataPlaneTelemetry::new(6);
        worker.tick();
        worker.record_batch(100);
        let mut snap = TelemetrySnapshot::new(1);
        snap.absorb_worker(&worker);
        assert_eq!(snap.data.sample_interval(), 64);
        // A record that has already ticked keeps its own cadence.
        let mut busy = DataPlaneTelemetry::new(2);
        busy.tick();
        busy.merge(&worker);
        assert_eq!(busy.sample_interval(), 4);
    }

    #[test]
    fn reset_clears_but_keeps_cadence() {
        let mut t = DataPlaneTelemetry::new(3);
        for _ in 0..5 {
            t.tick();
        }
        t.record_batch(500);
        t.reset();
        assert_eq!(t.sample_interval(), 8);
        assert_eq!(t.batches, 0);
        assert!(t.batch_ns.is_empty());
        assert!(t.tick(), "sequence restarts at a sample point");
    }

    #[test]
    fn hotpath_counters_merge_and_reset() {
        let mut a = DataPlaneTelemetry::new(0);
        a.add_hotpath(10, 4, 1, 100, 200);
        let mut b = DataPlaneTelemetry::new(0);
        b.add_hotpath(5, 5, 0, 7, 9);
        a.merge(&b);
        assert_eq!(a.decision_cache_hits, 15);
        assert_eq!(a.decision_cache_misses, 9);
        assert_eq!(a.decision_cache_evictions, 1);
        assert_eq!(a.ring_full_spins, 107);
        assert_eq!(a.ring_empty_spins, 209);
        a.reset();
        assert_eq!(a.decision_cache_hits, 0);
        assert_eq!(a.ring_empty_spins, 0);
    }

    #[test]
    fn snapshot_merges_tables_and_spans() {
        let mut a = TelemetrySnapshot::new(2);
        a.packets = 100;
        a.tables = vec![TableCounters {
            name: "tbl_0".into(),
            hits: 10,
            misses: 2,
        }];
        a.spans.record(SpanKind::ApplyUpdate, 1_000);

        let mut b = TelemetrySnapshot::new(4);
        b.packets = 50;
        b.tables = vec![TableCounters {
            name: "tbl_0".into(),
            hits: 5,
            misses: 1,
        }];
        b.spans.record(SpanKind::ApplyUpdate, 3_000);

        a.merge(&b);
        assert_eq!(a.version, SNAPSHOT_VERSION);
        assert_eq!(a.workers, 4);
        assert_eq!(a.packets, 150);
        assert_eq!(a.tables[0].hits, 15);
        assert_eq!(a.tables[0].misses, 3);
        assert_eq!(a.spans.get(SpanKind::ApplyUpdate).count, 2);
    }

    #[test]
    fn empty_snapshot_adopts_tables_on_merge() {
        let mut a = TelemetrySnapshot::new(1);
        let mut b = TelemetrySnapshot::new(1);
        b.tables = vec![TableCounters {
            name: "t".into(),
            hits: 7,
            misses: 0,
        }];
        a.merge(&b);
        assert_eq!(a.tables, b.tables);
    }
}
