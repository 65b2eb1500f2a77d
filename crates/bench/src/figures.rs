//! Regeneration of every table and figure in the paper's evaluation
//! (§4), plus the ablations DESIGN.md calls out.
//!
//! Each `fig*` function returns plain data rows (JSON-renderable via
//! [`crate::json::ToJson`]); the `figures` binary renders them as text
//! tables and JSON. Absolute
//! numbers differ from the paper (different hardware, synthesized
//! traces — see DESIGN.md §2); the *shapes* are the reproduction
//! targets recorded in EXPERIMENTS.md.

use std::time::Instant;

use crate::impl_to_json;
use camus_bdd::order::OrderHeuristic;
use camus_core::{Compiler, CompilerOptions};
use camus_lang::parse_spec;
use camus_netsim::{run_experiment, ExperimentConfig, FilterMode};
use camus_pipeline::resources::AsicModel;
use camus_workload::{
    generate_itch_subscriptions, synthesize_feed, ItchSubsConfig, SienaConfig, TraceConfig,
};

/// Builds the default ITCH compiler.
fn itch_compiler(options: CompilerOptions) -> Compiler {
    let spec = parse_spec(camus_lang::spec::ITCH_SPEC).expect("built-in spec parses");
    Compiler::new(spec, options).expect("built-in spec compiles")
}

// ---------------------------------------------------------------- fig 5a

/// One row of Figure 5a: table entries vs. number of subscriptions.
#[derive(Debug, Clone)]
pub struct Fig5aRow {
    /// Number of Siena subscriptions.
    pub subscriptions: usize,
    /// Total table entries on the switch.
    pub table_entries: usize,
    /// Reachable BDD nodes.
    pub bdd_nodes: usize,
    /// Multicast groups.
    pub mcast_groups: usize,
}

impl_to_json!(Fig5aRow {
    subscriptions,
    table_entries,
    bdd_nodes,
    mcast_groups
});

/// Figure 5a: "the number of table entries required on the switch as we
/// vary … number of subscriptions" (10–45, Siena workload).
pub fn fig5a() -> Vec<Fig5aRow> {
    (10..=45)
        .step_by(5)
        .map(|n| {
            let cfg = SienaConfig {
                subscriptions: n,
                ..Default::default()
            };
            let w = cfg.generate();
            let compiler =
                Compiler::new(w.spec.clone(), CompilerOptions::raw()).expect("siena spec compiles");
            let prog = compiler.compile(&w.rules).expect("siena rules compile");
            Fig5aRow {
                subscriptions: n,
                table_entries: prog.stats.total_entries,
                bdd_nodes: prog.stats.bdd_nodes,
                mcast_groups: prog.stats.mcast_groups,
            }
        })
        .collect()
}

// ---------------------------------------------------------------- fig 5b

/// One row of Figure 5b: table entries vs. predicates per subscription.
#[derive(Debug, Clone)]
pub struct Fig5bRow {
    /// Predicates in each subscription's conjunction.
    pub predicates: usize,
    /// Total table entries.
    pub table_entries: usize,
    /// Reachable BDD nodes.
    pub bdd_nodes: usize,
}

impl_to_json!(Fig5bRow {
    predicates,
    table_entries,
    bdd_nodes
});

/// Figure 5b: entries vs. selectiveness (2–8 predicates). "More
/// selective subscription conditions … require fewer table entries,
/// which is because they result in fewer paths in the BDD."
pub fn fig5b() -> Vec<Fig5bRow> {
    (2..=8)
        .map(|k| {
            let cfg = SienaConfig {
                subscriptions: 30,
                predicates_per_subscription: k,
                int_attributes: 5,
                symbol_attributes: 3,
                ..Default::default()
            };
            let w = cfg.generate();
            let compiler =
                Compiler::new(w.spec.clone(), CompilerOptions::raw()).expect("siena spec compiles");
            let prog = compiler.compile(&w.rules).expect("siena rules compile");
            Fig5bRow {
                predicates: k,
                table_entries: prog.stats.total_entries,
                bdd_nodes: prog.stats.bdd_nodes,
            }
        })
        .collect()
}

// ---------------------------------------------------------------- fig 5c

/// One row of Figure 5c: compile time vs. number of subscriptions.
#[derive(Debug, Clone)]
pub struct Fig5cRow {
    /// ITCH subscriptions compiled.
    pub subscriptions: usize,
    /// Wall-clock compile time, milliseconds.
    pub compile_ms: f64,
    /// Total (logical) table entries.
    pub table_entries: usize,
    /// Multicast groups.
    pub mcast_groups: usize,
    /// Whether the program fits the 12-stage Tofino model.
    pub fits: bool,
}

impl_to_json!(Fig5cRow {
    subscriptions,
    compile_ms,
    table_entries,
    mcast_groups,
    fits
});

/// Figure 5c: compiler runtime on the ITCH workload
/// (`stock == S ∧ price > P : fwd(H)`), up to 100 K subscriptions. The
/// paper's checkpoint: "Compiling 100K subscriptions resulted in 21,401
/// table entries and 198 multicast groups, which can easily fit in
/// switch memory."
pub fn fig5c(fast: bool) -> Vec<Fig5cRow> {
    let points: &[usize] = if fast {
        &[1_000, 5_000, 10_000, 25_000]
    } else {
        &[1_000, 5_000, 10_000, 25_000, 50_000, 100_000]
    };
    points
        .iter()
        .map(|&n| {
            let cfg = ItchSubsConfig {
                subscriptions: n,
                ..Default::default()
            };
            let rules = generate_itch_subscriptions(&cfg);
            let compiler = itch_compiler(CompilerOptions {
                compress_bits: Some(10),
                ..CompilerOptions::default()
            });
            let t = Instant::now();
            let prog = compiler.compile(&rules).expect("itch subs compile");
            Fig5cRow {
                subscriptions: n,
                compile_ms: t.elapsed().as_secs_f64() * 1e3,
                table_entries: prog.stats.total_entries,
                mcast_groups: prog.stats.mcast_groups,
                fits: prog.placement.fits(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------- fig 7

/// Summary of one latency CDF (one line of Figure 7).
#[derive(Debug, Clone)]
pub struct CdfSummary {
    /// Configuration label.
    pub label: String,
    /// Target messages measured.
    pub measured: usize,
    /// `(latency_us, fraction)` CDF samples.
    pub cdf: Vec<(f64, f64)>,
    /// Median latency, µs.
    pub p50_us: f64,
    /// 99th percentile, µs.
    pub p99_us: f64,
    /// 99.5th percentile, µs.
    pub p995_us: f64,
    /// Maximum, µs.
    pub max_us: f64,
    /// Fraction delivered within 20 µs.
    pub within_20us: f64,
    /// Fraction delivered within 50 µs.
    pub within_50us: f64,
    /// Packets dropped (switch + host).
    pub drops: usize,
}

impl_to_json!(CdfSummary {
    label,
    measured,
    cdf,
    p50_us,
    p99_us,
    p995_us,
    max_us,
    within_20us,
    within_50us,
    drops,
});

/// Both lines of one Figure 7 panel.
#[derive(Debug, Clone)]
pub struct Fig7Panel {
    /// Workload name ("nasdaq" or "synthetic").
    pub workload: String,
    /// End-host software filtering.
    pub baseline: CdfSummary,
    /// Switch filtering with the compiled Camus pipeline.
    pub switch_filtering: CdfSummary,
}

impl_to_json!(Fig7Panel {
    workload,
    baseline,
    switch_filtering
});

fn summarize(label: &str, r: &camus_netsim::ExperimentResult) -> CdfSummary {
    CdfSummary {
        label: label.to_string(),
        measured: r.stats.len(),
        cdf: r.stats.cdf(100),
        p50_us: r.stats.percentile(0.50) as f64 / 1000.0,
        p99_us: r.stats.percentile(0.99) as f64 / 1000.0,
        p995_us: r.stats.percentile(0.995) as f64 / 1000.0,
        max_us: r.stats.max() as f64 / 1000.0,
        within_20us: r.stats.fraction_within(20_000),
        within_50us: r.stats.fraction_within(50_000),
        drops: r.drops_switch + r.drops_host,
    }
}

/// Compiles the experiment's subscription ("the subscriber filters the
/// feed for add-order messages with stock symbol GOOGL") and runs both
/// configurations.
pub fn fig7(kind: &str, fast: bool) -> Fig7Panel {
    let messages = if fast { 200_000 } else { 1_000_000 };
    let trace = match kind {
        "nasdaq" => synthesize_feed(&TraceConfig::nasdaq_like(messages)),
        "synthetic" => synthesize_feed(&TraceConfig::synthetic(messages)),
        other => panic!("unknown workload `{other}`"),
    };
    let cfg = ExperimentConfig::default();

    let baseline = run_experiment(&trace, FilterMode::Baseline, &cfg);

    let compiler = itch_compiler(CompilerOptions::default());
    let rules = camus_lang::parse_program("stock == GOOGL : fwd(1)").expect("rule parses");
    let prog = compiler.compile(&rules).expect("GOOGL rule compiles");
    let camus = run_experiment(&trace, FilterMode::Switch(Box::new(prog.pipeline)), &cfg);

    Fig7Panel {
        workload: kind.to_string(),
        baseline: summarize("baseline (host filtering)", &baseline),
        switch_filtering: summarize("camus (switch filtering)", &camus),
    }
}

// ------------------------------------------------------------- line rate

/// One row of the line-rate experiment.
#[derive(Debug, Clone)]
pub struct LineRateRow {
    /// ASIC model name.
    pub model: String,
    /// Front-panel ports.
    pub ports: u16,
    /// Aggregate offered load, Tb/s (all ports at line rate).
    pub offered_tbps: f64,
    /// Aggregate load forwarded to egress ports, Tb/s.
    pub forwarded_tbps: f64,
    /// Peak egress-port utilization (must stay ≤ 1 for zero loss).
    pub peak_egress_utilization: f64,
    /// Messages evaluated per second at that load (aggregate).
    pub messages_per_sec: f64,
    /// Sample messages run through the actual compiled pipeline.
    pub sample_messages: usize,
}

impl_to_json!(LineRateRow {
    model,
    ports,
    offered_tbps,
    forwarded_tbps,
    peak_egress_utilization,
    messages_per_sec,
    sample_messages,
});

/// The §4 line-rate claim: "message processing at line rate using the
/// full switch bandwidth of 6.5Tbps" (3.25 Tb/s on the 32-port box).
///
/// Every port ingests minimum-size feed packets back-to-back; rules
/// spread the symbol universe evenly over all egress ports, so the
/// egress side is exactly as loaded as the ingress side. The compiled
/// pipeline executes on a sample of the stream to demonstrate
/// functional filtering; the aggregate arithmetic is the bandwidth
/// model's.
pub fn linerate(fast: bool) -> Vec<LineRateRow> {
    [AsicModel::tofino32(), AsicModel::tofino64()]
        .into_iter()
        .map(|model| {
            let ports = model.ports;
            // Rules: every symbol forwarded to some port — all traffic
            // is "interesting", the worst case for the egress side. The
            // universe is a multiple of the port count so the expected
            // egress load is exactly balanced.
            let symbols = usize::from(ports) * 6;
            let src: String = (0..symbols)
                .map(|i| {
                    format!(
                        "stock == {} : fwd({})\n",
                        camus_workload::itch_subs::stock_symbol(i),
                        i as u16 % ports + 1
                    )
                })
                .collect();
            let rules = camus_lang::parse_program(&src).expect("rules parse");
            let compiler = itch_compiler(CompilerOptions::default());
            let prog = compiler.compile(&rules).expect("rules compile");
            let mut pipeline = prog.pipeline;

            // Sample feed: uniform symbols, 1 message per packet.
            let sample = if fast { 50_000 } else { 200_000 };
            let trace = synthesize_feed(&TraceConfig {
                target_fraction: 0.0,
                add_order_fraction: 1.0,
                burst_multiplier: 1.0,
                symbols,
                ..TraceConfig::synthetic(sample)
            });

            // Execute the pipeline on the sample; tally egress bytes.
            let mut egress_bytes = vec![0u64; usize::from(ports) + 1];
            let mut total_bytes = 0u64;
            for p in &trace {
                total_bytes += p.bytes.len() as u64;
                if let Ok(d) = pipeline.process(&p.bytes, 0) {
                    for port in &d.ports {
                        if let Some(b) = egress_bytes.get_mut(usize::from(port.0)) {
                            *b += p.bytes.len() as u64;
                        }
                    }
                }
            }

            // Scale to all ports at line rate: each ingress port carries
            // the sampled distribution at 100 Gb/s.
            let offered_tbps = model.total_tbps();
            let match_fraction: f64 = egress_bytes.iter().sum::<u64>() as f64 / total_bytes as f64;
            let forwarded_tbps = offered_tbps * match_fraction;
            let peak_port_share =
                egress_bytes.iter().copied().max().unwrap_or(0) as f64 / total_bytes as f64;
            // Each of the `ports` ingress streams spreads `peak_port_share`
            // of its bytes onto the hottest egress port.
            let peak_egress_utilization = peak_port_share * f64::from(ports);
            let avg_packet = total_bytes as f64 / trace.len() as f64;
            let pkts_per_sec_per_port = model.port_gbps * 1e9 / (avg_packet * 8.0);
            LineRateRow {
                model: model.name.clone(),
                ports,
                offered_tbps,
                forwarded_tbps,
                peak_egress_utilization,
                messages_per_sec: pkts_per_sec_per_port * f64::from(ports),
                sample_messages: sample,
            }
        })
        .collect()
}

// ----------------------------------------------------------- incremental

/// One row of the incremental-recompilation experiment.
#[derive(Debug, Clone)]
pub struct IncrementalRow {
    /// Batch index (each batch adds rules on top of the previous).
    pub batch: usize,
    /// Rules installed so far.
    pub rules_total: usize,
    /// Full recompilation time for the cumulative set, ms.
    pub full_ms: f64,
    /// Incremental install time for just this batch, ms.
    pub incremental_ms: f64,
    /// Entries the control plane adds for this batch.
    pub entries_added: usize,
    /// Entries removed.
    pub entries_removed: usize,
    /// Entries reused in place.
    pub entries_kept: usize,
    /// Entries installed after this batch.
    pub entries_total: usize,
}

impl_to_json!(IncrementalRow {
    batch,
    rules_total,
    full_ms,
    incremental_ms,
    entries_added,
    entries_removed,
    entries_kept,
    entries_total,
});

/// The §3 future-work experiment: install ITCH subscriptions in
/// batches, comparing a full recompile of the cumulative set against
/// an incremental install of just the new batch, and counting how many
/// table entries the update actually touches ("state updates can
/// benefit from table entry re-use").
pub fn incremental(fast: bool) -> Vec<IncrementalRow> {
    use camus_core::IncrementalCompiler;

    let total = if fast { 2_000 } else { 10_000 };
    let batches = 10usize;
    let all = generate_itch_subscriptions(&ItchSubsConfig {
        subscriptions: total,
        ..Default::default()
    });
    let options = CompilerOptions::default();
    let spec = parse_spec(camus_lang::spec::ITCH_SPEC).unwrap();
    let mut session =
        IncrementalCompiler::new(spec, &options, &all).expect("alphabet session builds");
    let full_compiler = itch_compiler(options);

    let per = total / batches;
    let mut rows = Vec::with_capacity(batches);
    for b in 0..batches {
        let batch = &all[b * per..(b + 1) * per];
        let cumulative = &all[..(b + 1) * per];

        let t = Instant::now();
        let report = session.install(batch).expect("incremental install");
        let incremental_ms = t.elapsed().as_secs_f64() * 1e3;

        let t = Instant::now();
        let _ = full_compiler.compile(cumulative).expect("full compile");
        let full_ms = t.elapsed().as_secs_f64() * 1e3;

        rows.push(IncrementalRow {
            batch: b + 1,
            rules_total: (b + 1) * per,
            full_ms,
            incremental_ms,
            entries_added: report.entries_added,
            entries_removed: report.entries_removed,
            entries_kept: report.entries_kept,
            entries_total: report.total_entries,
        });
    }
    rows
}

// ------------------------------------------------------------- ablations

/// One ablation row.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Which knob.
    pub experiment: String,
    /// Configuration label.
    pub config: String,
    /// Total table entries.
    pub table_entries: usize,
    /// Reachable BDD nodes.
    pub bdd_nodes: usize,
    /// TCAM entry-slices after placement.
    pub tcam_slices: usize,
    /// SRAM entries after placement.
    pub sram_entries: usize,
    /// Fits the 12-stage model?
    pub fits: bool,
    /// Compile time, ms.
    pub compile_ms: f64,
}

impl_to_json!(AblationRow {
    experiment,
    config,
    table_entries,
    bdd_nodes,
    tcam_slices,
    sram_entries,
    fits,
    compile_ms,
});

fn ablation_row(
    experiment: &str,
    config: &str,
    compiler: &Compiler,
    rules: &[camus_lang::ast::Rule],
) -> AblationRow {
    let t = Instant::now();
    let prog = compiler.compile(rules).expect("ablation workload compiles");
    AblationRow {
        experiment: experiment.to_string(),
        config: config.to_string(),
        table_entries: prog.stats.total_entries,
        bdd_nodes: prog.stats.bdd_nodes,
        tcam_slices: prog.placement.tcam_slices,
        sram_entries: prog.placement.sram_entries,
        fits: prog.placement.fits(),
        compile_ms: t.elapsed().as_secs_f64() * 1e3,
    }
}

/// Ablations over the design choices §3.2 discusses: reduction (iii),
/// the field-ordering heuristic, DirtCAM vs. prefix-expanded ranges,
/// and the low-resolution domain mapping.
pub fn ablations(fast: bool) -> Vec<AblationRow> {
    // 2 000 subscriptions even in full mode: the bad field orders
    // (spec-order / freq-desc put `price` before `stock`) scale
    // superlinearly and would dominate the whole harness's runtime at
    // 10 000 without changing the comparison.
    let n = 2_000;
    let _ = fast;
    let rules = generate_itch_subscriptions(&ItchSubsConfig {
        subscriptions: n,
        ..Default::default()
    });
    let mut rows = Vec::new();

    // Reduction (iii) uses a deliberately tiny workload: without it,
    // contradictory predicate combinations (`stock == A ∧ stock == B`
    // paths, inverted range pairs) are materialized, and every subset
    // of rules yields a distinct terminal action set — the diagram
    // grows as 2^rules. Twenty rules already show a ~4000× node blowup;
    // the full workload would not terminate.
    let tiny = generate_itch_subscriptions(&ItchSubsConfig {
        subscriptions: 20,
        symbols: 4,
        price_range: 50,
        ..Default::default()
    });
    for (label, pruning) in [("on", true), ("off", false)] {
        let c = itch_compiler(CompilerOptions {
            semantic_pruning: pruning,
            ..CompilerOptions::default()
        });
        rows.push(ablation_row("reduction-iii", label, &c, &tiny));
    }
    for h in OrderHeuristic::ALL {
        let c = itch_compiler(CompilerOptions {
            heuristic: h,
            ..CompilerOptions::default()
        });
        rows.push(ablation_row("field-order", h.name(), &c, &rules));
    }
    for (label, model) in [
        ("dirtcam", AsicModel::tofino32()),
        (
            "prefix-expansion",
            AsicModel::tofino32().with_prefix_expansion(),
        ),
    ] {
        let c = itch_compiler(CompilerOptions {
            asic: model,
            ..CompilerOptions::default()
        });
        rows.push(ablation_row("range-mode", label, &c, &rules));
    }
    for (label, bits) in [("off", None), ("10-bit", Some(10)), ("8-bit", Some(8))] {
        let c = itch_compiler(CompilerOptions {
            compress_bits: bits,
            ..CompilerOptions::default()
        });
        rows.push(ablation_row("domain-compression", label, &c, &rules));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5a_entries_grow_controlled() {
        let rows = fig5a();
        assert_eq!(rows.len(), 8);
        // Growth in subscriptions…
        assert!(rows.last().unwrap().table_entries > rows[0].table_entries);
        // …bounded far below the exponential worst case. (The paper's
        // own Fig. 5a curve is mildly superlinear over 10→45: range
        // predicates over several attributes multiply BDD paths; the
        // point of the figure is that absolute counts stay small.)
        let last = rows.last().unwrap();
        assert!(last.table_entries < 200 * last.subscriptions, "{rows:?}");
        assert!(last.table_entries < 10_000, "{rows:?}");
    }

    #[test]
    fn fig5b_more_predicates_fewer_entries() {
        let rows = fig5b();
        assert_eq!(rows.len(), 7);
        // The paper's headline shape: the 8-predicate point needs fewer
        // entries than the 2-predicate point.
        assert!(
            rows.last().unwrap().table_entries < rows[0].table_entries,
            "{rows:?}"
        );
    }

    #[test]
    fn fig5c_fast_points_fit() {
        let rows = fig5c(true);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.fits, "{r:?}");
            assert!(r.table_entries > 0);
        }
        // Entry growth is sublinear in subscriptions.
        let first = &rows[0];
        let last = rows.last().unwrap();
        assert!(
            (last.table_entries as f64 / first.table_entries as f64)
                < (last.subscriptions as f64 / first.subscriptions as f64),
            "{rows:?}"
        );
    }

    #[test]
    fn fig7_nasdaq_shape() {
        let p = fig7("nasdaq", true);
        // Camus: everything well inside 50 µs.
        assert!(
            p.switch_filtering.within_50us > 0.999,
            "{:?}",
            p.switch_filtering
        );
        // Baseline: a heavy tail beyond 50 µs.
        assert!(p.baseline.within_50us < 0.95, "{:?}", p.baseline);
        assert!(p.baseline.max_us > 100.0, "{:?}", p.baseline);
        // No target message lost in the Camus configuration.
        assert_eq!(p.switch_filtering.drops, 0);
    }

    #[test]
    fn fig7_synthetic_shape() {
        let p = fig7("synthetic", true);
        // Camus dominates at the 20 µs mark (paper: 99.5% vs 96.5%).
        assert!(
            p.switch_filtering.within_20us > 0.995,
            "{:?}",
            p.switch_filtering
        );
        assert!(
            p.baseline.within_20us < p.switch_filtering.within_20us,
            "{:?}",
            p.baseline
        );
        // Baseline tail reaches hundreds of µs.
        assert!(p.baseline.max_us > 100.0, "{:?}", p.baseline);
    }

    #[test]
    fn linerate_reaches_full_bandwidth() {
        let rows = linerate(true);
        assert_eq!(rows.len(), 2);
        assert!((rows[0].offered_tbps - 3.2).abs() < 0.1);
        assert!((rows[1].offered_tbps - 6.4).abs() < 0.2);
        for r in &rows {
            // All traffic matches some subscriber; egress keeps up.
            assert!(
                (r.forwarded_tbps - r.offered_tbps).abs() / r.offered_tbps < 0.01,
                "{r:?}"
            );
            // Expected utilization is exactly 1.0; allow sampling noise.
            assert!(r.peak_egress_utilization <= 1.15, "{r:?}");
            assert!(r.messages_per_sec > 1e8, "{r:?}");
        }
    }

    #[test]
    fn incremental_beats_full_recompile_on_later_batches() {
        let rows = incremental(true);
        assert_eq!(rows.len(), 10);
        let last = rows.last().unwrap();
        // By the last batch the full recompile does ~10x the work.
        assert!(
            last.incremental_ms < last.full_ms,
            "incremental {} >= full {}",
            last.incremental_ms,
            last.full_ms
        );
        // The entry ledger: what was installed before a batch is kept or
        // removed, what is installed after it is kept or added. How
        // *much* is kept is EXPERIMENTS.md's number (ROADMAP 2(a)).
        let mut before = 0usize;
        for r in &rows {
            assert_eq!(r.entries_kept + r.entries_added, r.entries_total, "{r:?}");
            assert_eq!(r.entries_kept + r.entries_removed, before, "{r:?}");
            before = r.entries_total;
        }
    }

    #[test]
    fn ablations_cover_all_experiments() {
        let rows = ablations(true);
        let exps: std::collections::HashSet<&str> =
            rows.iter().map(|r| r.experiment.as_str()).collect();
        assert_eq!(exps.len(), 4);
        // Reduction (iii) shrinks the BDD.
        let on = rows.iter().find(|r| r.config == "on").unwrap();
        let off = rows.iter().find(|r| r.config == "off").unwrap();
        assert!(on.bdd_nodes <= off.bdd_nodes, "{on:?} vs {off:?}");
        // Prefix expansion costs far more TCAM than DirtCAM.
        let dirt = rows.iter().find(|r| r.config == "dirtcam").unwrap();
        let pfx = rows
            .iter()
            .find(|r| r.config == "prefix-expansion")
            .unwrap();
        assert!(pfx.tcam_slices > dirt.tcam_slices, "{pfx:?} vs {dirt:?}");
    }
}
