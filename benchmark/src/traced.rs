//! The traced pass (`--trace 1`): where the end-to-end numbers come
//! from, layer by layer.
//!
//! The workload's system runs twice — telemetry off, then
//! `EngineConfig.telemetry = true` — and each layer is then probed
//! alone on the same inputs. Spans are recorded around every call the
//! benchmark makes; the program has no spans of its own yet, so its
//! inside is seen through the counters, histograms and `SpanSet`s it
//! already exposes. A metric that has no meaning on a workload (fabric
//! epochs on a daemon, bus round trips on a fabric) reads 0 there.

use std::time::Instant;

use crate::drive::{self, Outcome};
use crate::probes;
use crate::report::Run;
use crate::stats::{median, summarize, Metric};
use crate::trace::Tracer;
use crate::workloads::{Feed, Sut};
use crate::{budget, oracle_pass, Args, ColdCompiles, Ledger};

/// Shares of `--seconds`: the plain load, the telemetry load, the
/// cold compiles, and the single-layer probes.
const PLAIN_SHARE: f64 = 0.25;
const TELEMETRY_SHARE: f64 = 0.40;
const COMPILE_SHARE: f64 = 0.10;
const PACKET_PROBE_SHARE: f64 = 0.08;
const ENGINE_PROBE_SHARE: f64 = 0.10;
const UPDATE_PROBE_SHARE: f64 = 0.05;
/// Unattributed share of a budget above which the report warns.
const REMAINDER_WARN: f64 = 0.15;

fn quantile90(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s[((s.len() - 1) as f64 * 0.9).round() as usize]
}

fn med(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        median(samples)
    }
}

fn per_kpkt(count: u64, packets: u64) -> f64 {
    if packets == 0 {
        0.0
    } else {
        count as f64 * 1000.0 / packets as f64
    }
}

fn remainder_line(what: &str, whole: f64, attributed: f64, unit: &str) -> String {
    let rest = whole - attributed;
    let share = if whole > 0.0 { rest / whole } else { 0.0 };
    format!(
        "  {what}: unattributed remainder {rest:.3} {unit} ({:.1}% of {whole:.3}){}",
        share * 100.0,
        if share.abs() > REMAINDER_WARN {
            "  WARNING: exceeds 15%"
        } else {
            ""
        }
    )
}

pub fn traced(a: &Args, process_start: Instant) -> Result<Run, String> {
    let w = a.workload;
    let t = a.seconds;
    let mut ledger = Ledger::default();
    let mut tr = Tracer::new(true, process_start);
    let is_daemon = matches!(w.sut, Sut::Daemon);
    let is_fabric = matches!(w.sut, Sut::Fabric { .. });
    let has_engine = is_daemon || is_fabric;

    // Cold compiles interleave with the packet slices where no engine
    // runs, and otherwise come before, between and after the loads.
    let mut cold = ColdCompiles::new(false);
    let compile_s = t * COMPILE_SHARE;
    let share = |seconds: f64| drive::Budget {
        compile_s,
        ..budget(a, seconds)
    };
    let (inp, live) = drive::setup(w, a.seed, false)?;
    let plain: Outcome = drive::drive(
        w,
        &inp,
        live,
        &share(t * PLAIN_SHARE),
        &mut tr,
        &mut |s, tr| cold.run_for(&inp, s, tr),
    )?;
    ledger.load("plain load", &plain);
    // Without an engine there is no telemetry to switch on.
    let tele: Outcome = if has_engine {
        cold.run_for(&inp, compile_s / 2.0, &mut tr)?;
        let (_, live) = drive::setup(w, a.seed, true)?;
        let tele = drive::drive(
            w,
            &inp,
            live,
            &share(t * TELEMETRY_SHARE),
            &mut tr,
            &mut |_, _| Ok(()),
        )?;
        ledger.load("telemetry load", &tele);
        cold.run_for(&inp, compile_s / 2.0, &mut tr)?;
        tele
    } else {
        Outcome {
            windows: plain.windows.clone(),
            ..Default::default()
        }
    };
    ledger.attempted += cold.stats.len() as u64;
    ledger.fail(
        !cold.stable as u64,
        "table_entries differs between repeats of one compile".into(),
    );
    // The repeat whose total time is the median stands for them all.
    let mid = {
        let m = median(&cold.total_s);
        (0..cold.stats.len())
            .min_by(|&i, &j| {
                (cold.total_s[i] - m)
                    .abs()
                    .total_cmp(&(cold.total_s[j] - m).abs())
            })
            .unwrap_or(0)
    };
    let program = cold.stats[mid];
    let pipeline = cold
        .pipeline
        .as_ref()
        .expect("at least one cold compile ran");

    let pk = probes::packet_costs(&inp, pipeline, w.cache, t * PACKET_PROBE_SHARE, &mut tr)?;
    let windows = if a.smoke { 2 } else { 4 };
    let eng = probes::engine_costs(
        &inp,
        pipeline,
        w.cache,
        t * ENGINE_PROBE_SHARE,
        windows,
        &mut tr,
    );
    ledger.attempted += eng.report.submitted;
    ledger.fail(
        eng.report.lost() + !eng.report.clean as u64,
        "standalone engine probe lost packets".into(),
    );
    // No session where the workload has none: installing one over
    // 20 000 rules alone would take half the run.
    let upd = if has_engine {
        probes::update_costs(&inp, w.cache, t * UPDATE_PROBE_SHARE, 2, &mut tr)?
    } else {
        probes::UpdateCosts::default()
    };
    ledger.attempted += upd.updates;
    let (plan_ms, leaf_entries_max) = probes::partition_costs(pipeline, 2, &mut tr)?;
    let pings = if is_daemon {
        probes::ping_rtts(w, &inp, if a.smoke { 200 } else { 2000 }, &mut tr)?
    } else {
        Vec::new()
    };
    let codec_ns = probes::codec_ns_per_frame(&inp.churn_text[0]);
    let parse_rule_us = probes::parse_rule_us(&inp)?;
    ledger.oracle(oracle_pass(a, &inp)?);

    // ---- derived figures
    let only = |on: bool, v: f64| if on { v } else { 0.0 };
    let pps_plain = median(&plain.windows);
    let pps_tele = median(&tele.windows);
    let pps_engine = median(&eng.windows);
    let submit_ns = 1e9 / pps_engine;
    let stages = tele.report.stages.unwrap_or_default();
    let hot = &tele.report;
    let lookups = hot.cache_hits + hot.cache_misses;
    let daemon = tele.daemon.unwrap_or_default();
    let ping_us = med(&pings);
    let stats_us = if is_daemon {
        med(&tele.stats_rtt_us)
    } else {
        0.0
    };
    // What a request waits for the control thread: the loaded `Stats`
    // round trip less the idle one. Only the internal-feed workload
    // mutates under load; the others stop their feed first.
    let mutates_loaded = matches!(w.feed, Feed::DaemonInternal);
    let queue_wait_ms = only(mutates_loaded, ((stats_us - ping_us) / 1e3).max(0.0));
    let update_add_ms = med(&upd.add_ms);
    let update_remove_ms = med(&upd.remove_ms);
    let applies: Vec<f64> = upd
        .apply_add_ms
        .iter()
        .chain(&upd.apply_remove_ms)
        .cloned()
        .collect();
    let apply_mean_ms = if is_daemon {
        daemon.apply_mean_ms
    } else {
        applies.iter().sum::<f64>() / applies.len().max(1) as f64
    };
    let epochs_ms: Vec<f64> = if is_fabric {
        tele.mutations
            .sub_ms
            .iter()
            .chain(&tele.mutations.unsub_ms)
            .cloned()
            .collect()
    } else {
        Vec::new()
    };
    let leaf_imbalance = if is_fabric {
        let per = &tele.report.per_leaf;
        let mean = per.iter().sum::<u64>() as f64 / per.len() as f64;
        per.iter().cloned().max().unwrap_or(0) as f64 / mean
    } else {
        0.0
    };
    let m = Metric::single;
    let metrics = vec![
        Metric::of("lang.parse_program_s", "s", &cold.parse_s),
        m("lang.parse_rule_us", "us", parse_rule_us),
        m("core.compile_s", "s", program.compile_s),
        m("core.shard_build_s", "s", program.shard_build_s),
        m("core.shard_merge_s", "s", program.shard_merge_s),
        m("core.emit_tables_s", "s", program.emit_tables_s),
        m(
            "core.resolve_statics_s",
            "s",
            program.compile_s
                - program.shard_build_s
                - program.shard_merge_s
                - program.emit_tables_s,
        ),
        m("bdd.nodes", "count", program.bdd_nodes as f64),
        m(
            "bdd.allocated_nodes",
            "count",
            program.allocated_nodes as f64,
        ),
        m("bdd.memo_hit_ratio", "ratio", program.memo_hit_ratio),
        m("core.conjunctions", "count", program.conjunctions as f64),
        m("core.mcast_groups", "count", program.mcast_groups as f64),
        m("core.update_add_p50_ms", "ms", update_add_ms),
        m("core.update_remove_p50_ms", "ms", update_remove_ms),
        m(
            "core.full_rebuild_ratio",
            "ratio",
            upd.full_rebuilds as f64 / upd.updates.max(1) as f64,
        ),
        m(
            "core.delta_entries_per_update",
            "entries",
            upd.delta_entries as f64 / upd.updates.max(1) as f64,
        ),
        m("engine.apply_update_p50_ms", "ms", med(&applies)),
        m("engine.apply_update_mean_ms", "ms", apply_mean_ms),
        m("itch.decode_ns_per_pkt", "ns/pkt", pk.itch_decode_ns),
        m("engine.shard_key_ns_per_pkt", "ns/pkt", pk.shard_key_ns),
        m("pipeline.parse_ns_per_pkt", "ns/pkt", pk.parse_ns),
        m("pipeline.process_ns_per_pkt", "ns/pkt", pk.process_ns),
        m(
            "pipeline.match_ns_per_pkt",
            "ns/pkt",
            pk.process_ns - pk.parse_ns,
        ),
        m("pipeline.parse_p50_ns", "ns", stages.parse_p50_ns),
        m("pipeline.match_p50_ns", "ns", stages.match_p50_ns),
        m("pipeline.mcast_p50_ns", "ns", stages.mcast_p50_ns),
        m("engine.batch_p50_us", "us", stages.batch_p50_ns / 1e3),
        m(
            "pipeline.cache_hit_ratio",
            "ratio",
            if lookups == 0 {
                0.0
            } else {
                hot.cache_hits as f64 / lookups as f64
            },
        ),
        m(
            "pipeline.cache_evictions_per_kpkt",
            "1/kpkt",
            per_kpkt(hot.cache_evictions, hot.decided),
        ),
        Metric::of("engine.pkts_per_sec", "pkt/s", &eng.windows),
        m("engine.submit_ns_per_pkt", "ns/pkt", submit_ns),
        m("engine.quiesce_ms", "ms", eng.report.quiesce_ms),
        m(
            "engine.ring_full_spins_per_kpkt",
            "1/kpkt",
            per_kpkt(eng.report.ring_full_spins, eng.report.decided),
        ),
        m(
            "engine.ring_empty_spins_per_kpkt",
            "1/kpkt",
            per_kpkt(eng.report.ring_empty_spins, eng.report.decided),
        ),
        m(
            "engine.adoptions",
            "count",
            only(has_engine, hot.adoptions as f64),
        ),
        m(
            "engine.generations_coalesced",
            "count",
            only(has_engine, hot.generations_coalesced as f64),
        ),
        m(
            "camusd.overhead_ratio",
            "ratio",
            only(is_daemon, pps_engine / pps_plain),
        ),
        m(
            "camusd.subscribe_ack_p90_ms",
            "ms",
            only(is_daemon, quantile90(&tele.mutations.sub_ms)),
        ),
        m(
            "camusd.unsubscribe_ack_p90_ms",
            "ms",
            only(is_daemon, quantile90(&tele.mutations.unsub_ms)),
        ),
        m("camusd.ack_queue_wait_p50_ms", "ms", queue_wait_ms),
        m(
            "camusd.coalesce_factor",
            "ratio",
            if daemon.epochs == 0 {
                0.0
            } else {
                daemon.mutations_applied as f64 / daemon.epochs as f64
            },
        ),
        m("camusd.epochs", "count", daemon.epochs as f64),
        m("bus.ping_rtt_p50_us", "us", ping_us),
        m("bus.stats_rtt_loaded_p50_us", "us", stats_us),
        m("bus.codec_ns_per_frame", "ns", codec_ns),
        m("core.partition_plan_ms", "ms", plan_ms),
        m(
            "fabric.leaf_entries_max",
            "entries",
            leaf_entries_max as f64,
        ),
        m("fabric.route_ns_per_pkt", "ns/pkt", tele.fabric_route_ns),
        m("fabric.submit_ns_per_pkt", "ns/pkt", tele.fabric_submit_ns),
        m("fabric.leaf_imbalance", "ratio", leaf_imbalance),
        m("fabric.epoch_p50_ms", "ms", med(&epochs_ms)),
        m("fabric.epoch_p90_ms", "ms", quantile90(&epochs_ms)),
        m(
            "telemetry.overhead_pct",
            "%",
            only(has_engine, (1.0 - pps_tele / pps_plain) * 100.0),
        ),
        m(
            "benchmark.gen_lateness_max_ms",
            "ms",
            tele.mutations.late_ms.iter().cloned().fold(0.0, f64::max),
        ),
    ];

    // ---- the blocking-stage budget
    let mut lines = Vec::new();
    let e2e_ns = 1e9 / pps_plain;
    let full = per_kpkt(eng.report.ring_full_spins, eng.report.decided);
    let empty = per_kpkt(eng.report.ring_empty_spins, eng.report.decided);
    // A full ring makes the submitter wait for the worker; an empty
    // one makes the worker wait for the submitter.
    let blocking = if full > empty {
        "worker side"
    } else {
        "submit side"
    };
    // A fabric's submit side is the spine (route + leaf submit), and
    // its leaves share the worker side between them.
    let (submit_side, workers) = match w.sut {
        Sut::Fabric { leaves } => (tele.fabric_submit_ns, leaves as f64),
        _ => (submit_ns, 1.0),
    };
    let worker_side = pk.process_ns / workers;
    lines.push(format!(
        "budget[{}] packets (telemetry off): end to end {e2e_ns:.1} ns/pkt = 1e9 / {pps_plain:.0} pkt/s",
        w.name
    ));
    lines.push(format!(
        "  submit side {submit_side:.1} ns/pkt (time in submit, back-pressure included; shard key {:.1}), \
         worker side {worker_side:.1} ns/pkt ((parse {:.1} + match {:.1}) / {workers} workers)",
        pk.shard_key_ns,
        pk.parse_ns,
        pk.process_ns - pk.parse_ns
    ));
    lines.push(format!(
        "  blocking stage of the standalone engine: {blocking} (ring full spins {full:.2}/kpkt, empty spins {empty:.2}/kpkt)"
    ));
    lines.push(remainder_line(
        "max(submit side, worker side) vs end to end",
        e2e_ns,
        submit_side.max(worker_side),
        "ns/pkt",
    ));
    let s = summarize(&plain.windows);
    lines.push(format!(
        "  plain windows n={} q1={:.0} q3={:.0}; telemetry on {pps_tele:.0} pkt/s; standalone engine {pps_engine:.0} pkt/s",
        s.n, s.q1, s.q3
    ));
    if is_fabric {
        let epoch = med(&epochs_ms);
        lines.push(format!(
            "budget[{}] epochs: install_master p50 {epoch:.3} ms (grow {:.3}, shrink {:.3}); partition plan + slices {plan_ms:.3} ms",
            w.name,
            med(&tele.mutations.sub_ms),
            med(&tele.mutations.unsub_ms)
        ));
        lines.push(remainder_line(
            "partition plan vs epoch (rest: prepare, quiesce barrier, commit)",
            epoch,
            plan_ms,
            "ms",
        ));
    } else if is_daemon {
        let transport_ms = ping_us / 1e3;
        for (what, ack, update, apply_ms) in [
            (
                "subscribe",
                med(&tele.mutations.sub_ms),
                update_add_ms,
                med(&upd.apply_add_ms),
            ),
            (
                "unsubscribe",
                med(&tele.mutations.unsub_ms),
                update_remove_ms,
                med(&upd.apply_remove_ms),
            ),
        ] {
            lines.push(format!(
                "budget[{}] {what}: ack p50 {ack:.3} ms; bus RTT {transport_ms:.3} + queue wait {queue_wait_ms:.3} \
                 + core.update {update:.3} + engine.apply_update {apply_ms:.3}",
                w.name
            ));
            lines.push(remainder_line(
                "attributed vs ack",
                ack,
                transport_ms + queue_wait_ms + update + apply_ms,
                "ms",
            ));
        }
        lines.push(format!(
            "  add vs remove: core.update {update_add_ms:.3} / {update_remove_ms:.3} ms, full rebuilds {} of {} updates",
            upd.full_rebuilds, upd.updates
        ));
    } else {
        lines.push(format!(
            "budget[{}] mutations: none beside the cold compile (core.compile_s {:.3} s of {:.3} s parse+compile)",
            w.name,
            program.compile_s,
            median(&cold.total_s)
        ));
    }

    Ok(Run {
        metrics,
        ledger,
        notes: Vec::new(),
        budget_lines: lines,
        tracer: tr,
    })
}
