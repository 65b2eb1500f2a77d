//! Scoped control-plane span timers.
//!
//! The control plane is slow-path code (compiles, update application,
//! quiescence, worker supervision), so spans favour exactness over
//! compactness: every [`SpanStats`] keeps an exact count, total, min,
//! max and last duration in nanoseconds. The set of spans is a closed
//! enum — a [`SpanSet`] is a fixed array, so recording and merging are
//! allocation-free and a snapshot can be cloned onto the data-plane
//! report without touching the heap beyond the containing struct.

use std::time::Instant;

/// The closed set of instrumented control-plane operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// One end-to-end `Compiler::compile` (resolve + statics + dynamic).
    Compile,
    /// Phase 1 of the sharded BDD build: per-shard diagram construction.
    ShardBuild,
    /// Phase 2: folding the pinned pairwise merge DAG (including the
    /// canonical renumbering pass).
    ShardMerge,
    /// Phase 3: emitting the built diagram's table entries through
    /// fresh row groups, tables prepared (label `emit_tables`, kept for
    /// dashboards).
    EmitTables,
    /// `Engine::apply_update`: stage (admission) + commit.
    ApplyUpdate,
    /// `Engine::commit`: publication of a staged candidate, an
    /// `apply_update`'s included (label `install_pipeline`, kept for
    /// dashboards).
    InstallPipeline,
    /// `Engine::quiesce`: draining every in-flight batch.
    Quiesce,
    /// Respawning a dead worker (join + harvest + spawn).
    WorkerRespawn,
}

impl SpanKind {
    /// Every kind, in display order.
    pub const ALL: [SpanKind; 8] = [
        SpanKind::Compile,
        SpanKind::ShardBuild,
        SpanKind::ShardMerge,
        SpanKind::EmitTables,
        SpanKind::ApplyUpdate,
        SpanKind::InstallPipeline,
        SpanKind::Quiesce,
        SpanKind::WorkerRespawn,
    ];

    /// Stable snake_case name (used in JSON and Prometheus exports).
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Compile => "compile",
            SpanKind::ShardBuild => "shard_build",
            SpanKind::ShardMerge => "shard_merge",
            SpanKind::EmitTables => "emit_tables",
            SpanKind::ApplyUpdate => "apply_update",
            SpanKind::InstallPipeline => "install_pipeline",
            SpanKind::Quiesce => "quiesce",
            SpanKind::WorkerRespawn => "worker_respawn",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

impl std::fmt::Display for SpanKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Exact aggregate statistics for one span kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Completed spans.
    pub count: u64,
    /// Total nanoseconds across all spans (saturating).
    pub total_ns: u64,
    /// Shortest span (0 when none recorded).
    pub min_ns: u64,
    /// Longest span.
    pub max_ns: u64,
    /// Most recent span.
    pub last_ns: u64,
}

impl SpanStats {
    fn record(&mut self, ns: u64) {
        self.min_ns = if self.count == 0 {
            ns
        } else {
            self.min_ns.min(ns)
        };
        self.max_ns = self.max_ns.max(ns);
        self.last_ns = ns;
        self.total_ns = self.total_ns.saturating_add(ns);
        self.count += 1;
    }

    fn merge(&mut self, other: &SpanStats) {
        if other.count == 0 {
            return;
        }
        self.min_ns = if self.count == 0 {
            other.min_ns
        } else {
            self.min_ns.min(other.min_ns)
        };
        self.max_ns = self.max_ns.max(other.max_ns);
        self.last_ns = other.last_ns;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.count += other.count;
    }

    /// Mean duration (0.0 when none recorded).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// One [`SpanStats`] per [`SpanKind`], in a fixed array.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanSet {
    spans: [SpanStats; SpanKind::ALL.len()],
}

impl SpanSet {
    /// An empty set.
    pub fn new() -> Self {
        SpanSet::default()
    }

    /// Records one completed span of `ns` nanoseconds.
    pub fn record(&mut self, kind: SpanKind, ns: u64) {
        self.spans[kind.index()].record(ns);
    }

    /// The stats for one kind.
    pub fn get(&self, kind: SpanKind) -> &SpanStats {
        &self.spans[kind.index()]
    }

    /// Adds `other`'s spans into `self`.
    pub fn merge(&mut self, other: &SpanSet) {
        for (a, b) in self.spans.iter_mut().zip(&other.spans) {
            a.merge(b);
        }
    }

    /// Iterates the kinds that have recorded at least one span.
    pub fn recorded(&self) -> impl Iterator<Item = (SpanKind, &SpanStats)> {
        SpanKind::ALL
            .iter()
            .map(|&k| (k, self.get(k)))
            .filter(|(_, s)| s.count > 0)
    }
}

/// A started span: start before the work, `stop_into` a [`SpanSet`]
/// after — borrow-free, so usable even when the set lives inside the
/// struct the work mutates.
#[derive(Debug)]
pub struct SpanTimer {
    start: Instant,
}

impl SpanTimer {
    /// Starts the clock.
    pub fn start() -> Self {
        SpanTimer {
            start: Instant::now(),
        }
    }

    /// Elapsed nanoseconds so far (saturating at `u64::MAX`).
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Stops the clock and records the duration.
    pub fn stop_into(self, set: &mut SpanSet, kind: SpanKind) {
        set.record(kind, self.elapsed_ns());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_tracks_exact_extremes() {
        let mut s = SpanSet::new();
        s.record(SpanKind::Compile, 50);
        s.record(SpanKind::Compile, 10);
        s.record(SpanKind::Compile, 30);
        let c = s.get(SpanKind::Compile);
        assert_eq!(c.count, 3);
        assert_eq!(c.total_ns, 90);
        assert_eq!(c.min_ns, 10);
        assert_eq!(c.max_ns, 50);
        assert_eq!(c.last_ns, 30);
        assert!((c.mean_ns() - 30.0).abs() < 1e-9);
        // Other kinds untouched.
        assert_eq!(s.get(SpanKind::Quiesce), &SpanStats::default());
        assert_eq!(s.recorded().count(), 1);
    }

    #[test]
    fn merge_combines_like_one_stream() {
        let mut a = SpanSet::new();
        let mut b = SpanSet::new();
        a.record(SpanKind::ApplyUpdate, 100);
        b.record(SpanKind::ApplyUpdate, 20);
        b.record(SpanKind::Quiesce, 7);
        a.merge(&b);
        let u = a.get(SpanKind::ApplyUpdate);
        assert_eq!((u.count, u.total_ns, u.min_ns, u.max_ns), (2, 120, 20, 100));
        assert_eq!(a.get(SpanKind::Quiesce).count, 1);
        // Merging an empty set changes nothing.
        let snapshot = a.clone();
        a.merge(&SpanSet::new());
        assert_eq!(a, snapshot);
    }
}
