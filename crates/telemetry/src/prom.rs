//! Prometheus text-format (version 0.0.4) renderer.
//!
//! Slow-path export only: renders a merged [`TelemetrySnapshot`] into
//! the exposition format a future scrape endpoint would serve. Not
//! called on the packet path, so it allocates freely.
//!
//! Two entry points share one family renderer:
//!
//! * [`render_prometheus`] — a single unlabeled snapshot (the
//!   single-switch deployment);
//! * [`render_prometheus_fabric`] — several per-node snapshots in one
//!   exposition, each metric family emitted once with one labeled
//!   series per node (valid exposition needs exactly one `# HELP`/
//!   `# TYPE` pair per family, so per-node rendering cannot just be
//!   concatenated).

use std::fmt::Write as _;

use crate::hist::Histogram;
use crate::snapshot::TelemetrySnapshot;

/// Renders a snapshot as Prometheus exposition text. Histograms come
/// out as native `histogram` families with cumulative `le` buckets
/// (nanosecond bounds, `+Inf` terminal), counters as `counter`
/// families; per-table counters carry a `table` label and spans a
/// `span` label.
pub fn render_prometheus(snap: &TelemetrySnapshot) -> String {
    render_nodes(&[("", snap)])
}

/// Renders a whole fabric — one labeled series per node inside each
/// metric family (e.g. `camus_packets_total{node="leaf0"} 123`). Node
/// names must be distinct.
pub fn render_prometheus_fabric(nodes: &[(&str, &TelemetrySnapshot)]) -> String {
    render_nodes(nodes)
}

/// `node="leaf0",` (trailing comma, ready to prefix further labels) or
/// the empty string for unlabeled rendering.
fn node_prefix(node: &str) -> String {
    if node.is_empty() {
        String::new()
    } else {
        format!("node=\"{node}\",")
    }
}

fn render_nodes(nodes: &[(&str, &TelemetrySnapshot)]) -> String {
    let mut out = String::new();
    let labels: Vec<String> = nodes.iter().map(|(n, _)| node_prefix(n)).collect();
    let series = |f: fn(&TelemetrySnapshot) -> u64| -> Vec<(usize, u64)> {
        nodes
            .iter()
            .enumerate()
            .map(|(i, (_, s))| (i, f(s)))
            .collect()
    };

    counter_family(
        &mut out,
        &labels,
        "camus_packets_total",
        "Packets processed",
        &series(|s| s.packets),
    );
    counter_family(
        &mut out,
        &labels,
        "camus_batches_total",
        "Batches processed",
        &series(|s| s.data.batches),
    );
    counter_family(
        &mut out,
        &labels,
        "camus_sampled_packets_total",
        "Stage-timing samples (one per batch)",
        &series(|s| s.data.sampled_packets),
    );
    counter_family(
        &mut out,
        &labels,
        "camus_decision_cache_hits_total",
        "Messages answered from the decision cache",
        &series(|s| s.hotpath.cache_hits),
    );
    counter_family(
        &mut out,
        &labels,
        "camus_decision_cache_misses_total",
        "Messages that evaluated the full table chain",
        &series(|s| s.hotpath.cache_misses),
    );
    counter_family(
        &mut out,
        &labels,
        "camus_decision_cache_evictions_total",
        "Decision-cache slots overwritten by a conflicting key",
        &series(|s| s.hotpath.cache_evictions),
    );
    counter_family(
        &mut out,
        &labels,
        "camus_ring_full_spins_total",
        "Producer spins while an ingress ring was full",
        &series(|s| s.hotpath.ring_full_spins),
    );
    counter_family(
        &mut out,
        &labels,
        "camus_ring_empty_spins_total",
        "Consumer spins while an ingress ring was empty",
        &series(|s| s.hotpath.ring_empty_spins),
    );
    counter_family(
        &mut out,
        &labels,
        "camus_leaf_deaths_total",
        "Leaves declared dead by the fabric failure detector",
        &series(|s| s.robustness.leaf_deaths),
    );
    counter_family(
        &mut out,
        &labels,
        "camus_failover_epochs_total",
        "Emergency failover epochs committed",
        &series(|s| s.robustness.failover_epochs),
    );
    counter_family(
        &mut out,
        &labels,
        "camus_orphaned_packets_total",
        "Packets drop-counted for dead-owned shards during failover",
        &series(|s| s.robustness.orphaned_packets),
    );
    counter_family(
        &mut out,
        &labels,
        "camus_state_loss_entries_total",
        "Register slots whose state died with a leaf",
        &series(|s| s.robustness.state_loss_entries),
    );

    histogram_family(
        &mut out,
        &labels,
        "camus_batch_duration_ns",
        "Whole-batch processing latency",
        nodes,
        |s| &s.data.batch_ns,
    );
    histogram_family(
        &mut out,
        &labels,
        "camus_parse_duration_ns",
        "Sampled per-packet parse latency",
        nodes,
        |s| &s.data.parse_ns,
    );
    histogram_family(
        &mut out,
        &labels,
        "camus_match_duration_ns",
        "Sampled per-packet match/action latency",
        nodes,
        |s| &s.data.match_ns,
    );
    histogram_family(
        &mut out,
        &labels,
        "camus_mcast_duration_ns",
        "Sampled per-packet multicast port-union latency",
        nodes,
        |s| &s.data.mcast_ns,
    );

    if nodes.iter().any(|(_, s)| !s.tables.is_empty()) {
        let _ = writeln!(
            out,
            "# HELP camus_table_hits_total Messages matching a non-default entry"
        );
        let _ = writeln!(out, "# TYPE camus_table_hits_total counter");
        for (i, (_, s)) in nodes.iter().enumerate() {
            for t in &s.tables {
                let _ = writeln!(
                    out,
                    "camus_table_hits_total{{{}table=\"{}\"}} {}",
                    labels[i], t.name, t.hits
                );
            }
        }
        let _ = writeln!(
            out,
            "# HELP camus_table_misses_total Messages taking the default action"
        );
        let _ = writeln!(out, "# TYPE camus_table_misses_total counter");
        for (i, (_, s)) in nodes.iter().enumerate() {
            for t in &s.tables {
                let _ = writeln!(
                    out,
                    "camus_table_misses_total{{{}table=\"{}\"}} {}",
                    labels[i], t.name, t.misses
                );
            }
        }
    }

    if nodes
        .iter()
        .any(|(_, s)| s.spans.recorded().next().is_some())
    {
        let _ = writeln!(
            out,
            "# HELP camus_span_duration_ns_total Cumulative control-plane span time"
        );
        let _ = writeln!(out, "# TYPE camus_span_duration_ns_total counter");
        for (i, (_, s)) in nodes.iter().enumerate() {
            for (kind, stats) in s.spans.recorded() {
                let _ = writeln!(
                    out,
                    "camus_span_duration_ns_total{{{}span=\"{}\"}} {}",
                    labels[i],
                    kind.as_str(),
                    stats.total_ns
                );
            }
        }
        let _ = writeln!(
            out,
            "# HELP camus_span_count_total Completed control-plane spans"
        );
        let _ = writeln!(out, "# TYPE camus_span_count_total counter");
        for (i, (_, s)) in nodes.iter().enumerate() {
            for (kind, stats) in s.spans.recorded() {
                let _ = writeln!(
                    out,
                    "camus_span_count_total{{{}span=\"{}\"}} {}",
                    labels[i],
                    kind.as_str(),
                    stats.count
                );
            }
        }
    }

    out
}

fn counter_family(
    out: &mut String,
    labels: &[String],
    name: &str,
    help: &str,
    series: &[(usize, u64)],
) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} counter");
    for &(i, value) in series {
        let label = &labels[i];
        if label.is_empty() {
            let _ = writeln!(out, "{name} {value}");
        } else {
            let _ = writeln!(out, "{name}{{{}}} {value}", label.trim_end_matches(','));
        }
    }
}

fn histogram_family<'a>(
    out: &mut String,
    labels: &[String],
    name: &str,
    help: &str,
    nodes: &'a [(&str, &TelemetrySnapshot)],
    pick: fn(&'a TelemetrySnapshot) -> &'a Histogram,
) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} histogram");
    for (i, &(_, snap)) in nodes.iter().enumerate() {
        let label = &labels[i];
        let h = pick(snap);
        let mut cumulative = 0u64;
        for (_lo, hi, count) in h.nonzero_buckets() {
            cumulative += count;
            if hi == u64::MAX {
                // Top bucket is unbounded; fold it into +Inf below.
                continue;
            }
            // `hi` is an exclusive raw-ns bound; Prometheus `le` is
            // inclusive, so the last contained value is `hi - 1`.
            let _ = writeln!(
                out,
                "{name}_bucket{{{label}le=\"{}\"}} {cumulative}",
                hi - 1
            );
        }
        let _ = writeln!(out, "{name}_bucket{{{label}le=\"+Inf\"}} {}", h.count());
        if label.is_empty() {
            let _ = writeln!(out, "{name}_sum {}", h.sum());
            let _ = writeln!(out, "{name}_count {}", h.count());
        } else {
            let trimmed = label.trim_end_matches(',');
            let _ = writeln!(out, "{name}_sum{{{trimmed}}} {}", h.sum());
            let _ = writeln!(out, "{name}_count{{{trimmed}}} {}", h.count());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{HotPathStats, TableCounters, TelemetrySnapshot};
    use crate::span::SpanKind;

    fn sample_snapshot() -> TelemetrySnapshot {
        let mut s = TelemetrySnapshot::new(2);
        s.packets = 1_000;
        s.data.record_batch(50_000);
        s.data.record_stages(100, 800, 30);
        s.data.record_stages(140, 1_200, 25);
        s.tables.push(TableCounters {
            name: "tbl_0".into(),
            hits: 42,
            misses: 3,
        });
        s.spans.record(SpanKind::Compile, 5_000_000);
        s
    }

    #[test]
    fn renders_counters_histograms_tables_and_spans() {
        let mut snap = sample_snapshot();
        snap.hotpath = HotPathStats {
            cache_hits: 40,
            cache_misses: 2,
            cache_evictions: 1,
            ring_full_spins: 3,
            ring_empty_spins: 4,
        };
        let text = render_prometheus(&snap);
        assert!(text.contains("camus_packets_total 1000"));
        assert!(text.contains("camus_decision_cache_hits_total 40"));
        assert!(text.contains("camus_decision_cache_misses_total 2"));
        assert!(text.contains("camus_decision_cache_evictions_total 1"));
        assert!(text.contains("camus_ring_full_spins_total 3"));
        assert!(text.contains("camus_ring_empty_spins_total 4"));
        assert!(text.contains("# TYPE camus_parse_duration_ns histogram"));
        assert!(text.contains("camus_parse_duration_ns_count 2"));
        assert!(text.contains("camus_parse_duration_ns_sum 240"));
        assert!(text.contains("camus_parse_duration_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("camus_table_hits_total{table=\"tbl_0\"} 42"));
        assert!(text.contains("camus_span_duration_ns_total{span=\"compile\"} 5000000"));
        assert!(text.contains("camus_span_count_total{span=\"compile\"} 1"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_ordered() {
        let text = render_prometheus(&sample_snapshot());
        let mut last_le = 0u64;
        let mut last_cum = 0u64;
        for line in text.lines() {
            let Some(rest) = line.strip_prefix("camus_match_duration_ns_bucket{le=\"") else {
                continue;
            };
            let Some((le_str, cum_str)) = rest.split_once("\"} ") else {
                continue;
            };
            let cum: u64 = cum_str.parse().unwrap();
            assert!(cum >= last_cum, "cumulative counts must be monotone");
            last_cum = cum;
            if le_str != "+Inf" {
                let le: u64 = le_str.parse().unwrap();
                assert!(le > last_le, "le bounds must increase");
                last_le = le;
            }
        }
        assert_eq!(last_cum, 2, "+Inf bucket equals total count");
    }

    #[test]
    fn batch_histogram_scales_le_bounds_by_unit() {
        // Batch histogram buckets in 32 ns units; exported le bounds
        // must be back in raw nanoseconds (multiples of 32).
        let text = render_prometheus(&sample_snapshot());
        for line in text.lines() {
            let Some(rest) = line.strip_prefix("camus_batch_duration_ns_bucket{le=\"") else {
                continue;
            };
            let le_str = rest.split('"').next().unwrap();
            if le_str == "+Inf" {
                continue;
            }
            let le: u64 = le_str.parse().unwrap();
            // le is the inclusive form of an exclusive 32 ns-aligned bound.
            assert_eq!((le + 1) % 32, 0, "le {le} should end a 32 ns-unit bucket");
            assert!(
                le >= 50_000,
                "bucket bound must cover the recorded 50_000 ns"
            );
        }
    }

    #[test]
    fn robustness_counters_render_in_both_shapes() {
        let mut snap = sample_snapshot();
        snap.robustness.leaf_deaths = 1;
        snap.robustness.failover_epochs = 2;
        snap.robustness.orphaned_packets = 44;
        snap.robustness.state_loss_entries = 5;
        let flat = render_prometheus(&snap);
        assert!(flat.contains("camus_leaf_deaths_total 1"));
        assert!(flat.contains("camus_failover_epochs_total 2"));
        assert!(flat.contains("camus_orphaned_packets_total 44"));
        assert!(flat.contains("camus_state_loss_entries_total 5"));
        let labeled = render_prometheus_fabric(&[("spine", &snap)]);
        assert!(labeled.contains("camus_orphaned_packets_total{node=\"spine\"} 44"));
        assert!(labeled.contains("camus_leaf_deaths_total{node=\"spine\"} 1"));
    }

    #[test]
    fn node_label_tags_every_series() {
        let snap = sample_snapshot();
        let text = render_prometheus_fabric(&[("leaf0", &snap)]);
        assert!(text.contains("camus_packets_total{node=\"leaf0\"} 1000"));
        assert!(text.contains("camus_parse_duration_ns_count{node=\"leaf0\"} 2"));
        assert!(text.contains("camus_parse_duration_ns_bucket{node=\"leaf0\",le=\"+Inf\"} 2"));
        assert!(text.contains("camus_table_hits_total{node=\"leaf0\",table=\"tbl_0\"} 42"));
        assert!(text.contains("camus_span_count_total{node=\"leaf0\",span=\"compile\"} 1"));
        // No unlabeled series leak through.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            assert!(line.contains("node=\"leaf0\""), "unlabeled series: {line}");
        }
    }

    #[test]
    fn fabric_rendering_emits_one_family_per_metric() {
        let a = sample_snapshot();
        let mut b = sample_snapshot();
        b.packets = 7;
        let text = render_prometheus_fabric(&[("leaf0", &a), ("leaf1", &b)]);
        assert!(text.contains("camus_packets_total{node=\"leaf0\"} 1000"));
        assert!(text.contains("camus_packets_total{node=\"leaf1\"} 7"));
        assert!(text.contains("camus_table_hits_total{node=\"leaf1\",table=\"tbl_0\"} 42"));
        // Exactly one HELP/TYPE pair per family, regardless of node count.
        let help_packets = text
            .lines()
            .filter(|l| l.starts_with("# HELP camus_packets_total"))
            .count();
        assert_eq!(help_packets, 1);
        let type_hist = text
            .lines()
            .filter(|l| l.starts_with("# TYPE camus_batch_duration_ns"))
            .count();
        assert_eq!(type_hist, 1);
    }
}
