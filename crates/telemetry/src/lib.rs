//! # camus-telemetry — allocation-free observability for the Camus stack
//!
//! The paper's evaluation (§4) is entirely about measured behaviour —
//! entry counts, throughput, update latency — and the reproduction's
//! north star ("as fast as the hardware allows") is unverifiable
//! without first-class measurement. This crate is the substrate: the
//! same way Packet Transactions argues line-rate data planes need
//! per-stage budgets and P4 exposes per-table counters as a core
//! primitive, every layer of this workspace records into the types
//! defined here.
//!
//! Design constraints, in order:
//!
//! 1. **Allocation-free on the hot path.** A [`Histogram`] is a fixed
//!    64-bucket array; recording is an index computation and two adds.
//!    A [`SpanSet`] is a fixed array of [`SpanStats`]. Nothing in this
//!    crate allocates after construction (the pipeline's counting-
//!    allocator test enforces this end to end).
//! 2. **Shard-local, merge-at-the-end.** Each engine worker owns its
//!    own [`DataPlaneTelemetry`]; there are no shared atomics or locks
//!    on the packet path. [`DataPlaneTelemetry::merge`] aggregates
//!    across shards exactly like the pipeline's `ExecStats::merge`.
//! 3. **Deterministic where it can be.** Counter totals (packets,
//!    table hits/misses) are a function of the trace and the rule set,
//!    not of the worker count — the engine's determinism test holds
//!    them bit-identical at 1/2/8 workers. Latency *samples* are of
//!    course timing-dependent.
//!
//! Components:
//!
//! * [`hist`] — log-linear latency histograms (fixed 64 buckets, ~25 %
//!   worst-case relative bucket error, exact min/max/sum/count) with
//!   percentile estimation and lossless merge;
//! * [`span`] — scoped control-plane span timers ([`SpanKind`]:
//!   compile phases, `apply_update`, `quiesce`, worker respawn);
//! * [`snapshot`] — [`DataPlaneTelemetry`] (the per-shard record) and
//!   [`TelemetrySnapshot`] (the merged, versioned export the engine
//!   attaches to its report);
//! * [`prom`] — a Prometheus text-format renderer for future scrape
//!   endpoints.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod hist;
pub mod prom;
pub mod snapshot;
pub mod span;

pub use hist::{Histogram, BUCKETS};
pub use prom::{render_prometheus, render_prometheus_fabric, render_prometheus_node};
pub use snapshot::{
    DataPlaneTelemetry, RobustnessCounters, TableCounters, TelemetrySnapshot, SNAPSHOT_VERSION,
};
pub use span::{SpanKind, SpanSet, SpanStats, SpanTimer};
