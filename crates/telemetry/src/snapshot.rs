//! Per-shard data-plane telemetry and the merged, versioned snapshot.
//!
//! [`DataPlaneTelemetry`] is what one engine worker (or the sequential
//! pipeline) owns privately: batch/packet counters plus four latency
//! histograms. It is heap-allocated exactly once (inside a `Box` on
//! `ExecState`), every `record_*` call is fixed-cost array arithmetic,
//! and shards never contend — the engine merges at `finish()` exactly
//! like it merges `ExecStats`.
//!
//! Stage timing is one sample per batch: the pipeline runs a batch as
//! a wave (parse every packet, then each table across every message,
//! then every port union), so a packet has no match time of its own.
//! Four clock reads per batch give the batch latency and one sample of
//! each phase's per-packet mean (parse / match / mcast). That is what
//! keeps instrumentation under the 5 % throughput budget; the counters,
//! by contrast, are exact and trace-deterministic.
//!
//! [`TelemetrySnapshot`] is the merged cross-shard view the engine
//! attaches to `EngineReport` (schema version [`SNAPSHOT_VERSION`]).

use crate::hist::Histogram;
use crate::span::SpanSet;

/// Schema version stamped into every snapshot. Bump on any breaking
/// change to the layout so readers can reject a stale one.
pub const SNAPSHOT_VERSION: u64 = 2;

/// Unit shift for the batch histogram: batches take µs–ms, so bucket
/// in 32 ns units to extend range (precise to ~3.7 ms, caps ~137 s).
const BATCH_UNIT_SHIFT: u32 = 5;

/// One worker shard's private telemetry. No locks, no atomics, no
/// allocation after construction.
#[derive(Debug, Clone)]
pub struct DataPlaneTelemetry {
    /// Batches processed through `process_batch_shared`.
    pub batches: u64,
    /// Stage samples recorded: one per non-empty batch.
    pub sampled_packets: u64,
    /// Whole-batch latency (32 ns buckets).
    pub batch_ns: Histogram,
    /// Per-batch mean parse time per packet (1 ns buckets).
    pub parse_ns: Histogram,
    /// Per-batch mean match/action time per packet (1 ns buckets).
    pub match_ns: Histogram,
    /// Per-batch mean multicast port-union time per packet (1 ns
    /// buckets).
    pub mcast_ns: Histogram,
}

impl DataPlaneTelemetry {
    /// Creates an empty record.
    pub fn new() -> Self {
        DataPlaneTelemetry {
            batches: 0,
            sampled_packets: 0,
            batch_ns: Histogram::with_unit_shift(BATCH_UNIT_SHIFT),
            parse_ns: Histogram::new(),
            match_ns: Histogram::new(),
            mcast_ns: Histogram::new(),
        }
    }

    /// Records one whole-batch duration.
    #[inline]
    pub fn record_batch(&mut self, ns: u64) {
        self.batches += 1;
        self.batch_ns.record(ns);
    }

    /// Records one batch's stage sample: the per-packet means of its
    /// parse phase, its match phase (table evaluation for every
    /// message, including multicast group expansion) and its union
    /// phase (each packet's port-set sort + dedup).
    #[inline]
    pub fn record_stages(&mut self, parse_ns: u64, match_ns: u64, mcast_ns: u64) {
        self.sampled_packets += 1;
        self.parse_ns.record(parse_ns);
        self.match_ns.record(match_ns);
        self.mcast_ns.record(mcast_ns);
    }

    /// Folds another shard's record into this one. Counter addition and
    /// lossless histogram merges — associative and commutative, so the
    /// engine can fold worker outputs in any order.
    pub fn merge(&mut self, other: &DataPlaneTelemetry) {
        self.batches += other.batches;
        self.sampled_packets += other.sampled_packets;
        self.batch_ns.merge(&other.batch_ns);
        self.parse_ns.merge(&other.parse_ns);
        self.match_ns.merge(&other.match_ns);
        self.mcast_ns.merge(&other.mcast_ns);
    }

    /// Resets all counters and histograms in place. Used when a bench
    /// wants a fresh measurement phase without reallocating.
    pub fn reset(&mut self) {
        *self = DataPlaneTelemetry::new();
    }
}

impl Default for DataPlaneTelemetry {
    fn default() -> Self {
        DataPlaneTelemetry::new()
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

/// The hot-path counters: decision-cache outcomes and ring waits.
/// Plain adds, not clock reads, so they are always collected. One
/// record per worker context: the executor counts cache outcomes into
/// it, the engine adds the worker's ring waits when it harvests the
/// worker, and `EngineReport::hotpath` and [`TelemetrySnapshot`] carry
/// the merged record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HotPathStats {
    /// Decision-cache hits — messages whose match chain was skipped.
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
    /// Counter addition, for merging workers and snapshots.
    pub fn merge(&mut self, other: &HotPathStats) {
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_evictions += other.cache_evictions;
        self.ring_full_spins += other.ring_full_spins;
        self.ring_empty_spins += other.ring_empty_spins;
    }
}

/// Fabric-survivability counters: leaf deaths, failover epochs, the
/// drops they caused, and the typed state loss they admitted. Zero on a healthy node; a fabric stamps per-leaf values
/// into each leaf's snapshot and fabric-global values into a synthetic
/// `spine` node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RobustnessCounters {
    /// Leaves declared dead by the failure detector.
    pub leaf_deaths: u64,
    /// Emergency (failover) epochs committed.
    pub failover_epochs: u64,
    /// Packets drop-counted because their shard's owner was dead and
    /// failover had not yet committed (the degraded window).
    pub orphaned_packets: u64,
    /// Register slots whose `@query_counter` windows died with a leaf,
    /// summed over leaf deaths.
    pub state_loss_entries: u64,
}

impl RobustnessCounters {
    /// Counter addition, for merging snapshots.
    pub fn merge(&mut self, other: &RobustnessCounters) {
        self.leaf_deaths += other.leaf_deaths;
        self.failover_epochs += other.failover_epochs;
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
    /// Decision-cache and ring counters, summed across workers and the
    /// engine thread (the engine report's record).
    pub hotpath: HotPathStats,
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
            hotpath: HotPathStats::default(),
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
        self.hotpath.merge(&other.hotpath);
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
    fn stage_and_batch_records_land_in_histograms() {
        let mut t = DataPlaneTelemetry::new();
        t.record_batch(64_000);
        t.record_stages(100, 900, 40);
        t.record_stages(70, 800, 30);
        assert_eq!(t.batches, 1);
        assert_eq!(t.sampled_packets, 2);
        assert_eq!(t.parse_ns.count(), 2);
        assert_eq!(t.match_ns.count(), 2);
        assert_eq!(t.mcast_ns.count(), 2);
        assert_eq!(t.parse_ns.min(), 70);
        assert_eq!(t.parse_ns.max(), 100);
        // Batch histogram buckets in 32 ns units but reports raw ns.
        assert_eq!(t.batch_ns.max(), 64_000);
    }

    #[test]
    fn merge_equals_single_stream() {
        let mut a = DataPlaneTelemetry::new();
        let mut b = DataPlaneTelemetry::new();
        let mut one = DataPlaneTelemetry::new();
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
    fn reset_clears_every_record() {
        let mut t = DataPlaneTelemetry::new();
        t.record_batch(500);
        t.record_stages(1, 2, 3);
        t.reset();
        assert_eq!(t.batches, 0);
        assert_eq!(t.sampled_packets, 0);
        assert!(t.batch_ns.is_empty());
        assert!(t.parse_ns.is_empty());
    }

    #[test]
    fn hotpath_counters_merge() {
        let mut a = HotPathStats {
            cache_hits: 10,
            cache_misses: 4,
            cache_evictions: 1,
            ring_full_spins: 100,
            ring_empty_spins: 200,
        };
        let b = HotPathStats {
            cache_hits: 5,
            cache_misses: 5,
            cache_evictions: 0,
            ring_full_spins: 7,
            ring_empty_spins: 9,
        };
        a.merge(&b);
        assert_eq!(a.cache_hits, 15);
        assert_eq!(a.cache_misses, 9);
        assert_eq!(a.cache_evictions, 1);
        assert_eq!(a.ring_full_spins, 107);
        assert_eq!(a.ring_empty_spins, 209);
        // A snapshot merge sums the records too.
        let mut s = TelemetrySnapshot::new(1);
        s.hotpath = a;
        let mut t = TelemetrySnapshot::new(1);
        t.hotpath = b;
        s.merge(&t);
        assert_eq!(s.hotpath.cache_hits, 20);
        assert_eq!(s.hotpath.ring_empty_spins, 218);
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
