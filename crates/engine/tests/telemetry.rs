//! Engine-level telemetry integration:
//!
//! * **deterministic counters** — packet and per-table hit/miss totals
//!   in the merged snapshot are identical at 1, 2 and 8 workers
//!   (histograms and batch counts are timing- and sharding-dependent,
//!   so only the trace-deterministic counters are compared);
//! * **snapshot contents** — stage histograms, table counters and
//!   control-plane spans all populated after a run with an update and
//!   a quiescence in the middle;
//! * **opt-in** — telemetry off (the default) reports no snapshot and
//!   compile spans still ride on the compiled program.

use camus_core::{Compiler, CompilerOptions};
use camus_engine::{shard, Engine, EngineConfig};
use camus_lang::{parse_program, parse_spec};
use camus_telemetry::{SpanKind, SNAPSHOT_VERSION};
use camus_workload::bench_feed;
use camus_workload::itch_subs::stock_symbol;

/// 16 symbols over 8 ports, same shape as the line-rate bench.
fn compiled() -> camus_core::CompiledProgram {
    let spec = parse_spec(camus_lang::spec::ITCH_SPEC).unwrap();
    let compiler = Compiler::new(spec, CompilerOptions::default()).unwrap();
    let src: String = (0..16)
        .map(|i| format!("stock == {} : fwd({})\n", stock_symbol(i), i % 8 + 1))
        .collect();
    compiler.compile(&parse_program(&src).unwrap()).unwrap()
}

fn run(workers: usize, packets: &[Vec<u8>]) -> camus_engine::EngineReport {
    let prog = compiled();
    let cfg = EngineConfig {
        workers,
        telemetry: true,
        ..Default::default()
    };
    let mut engine = Engine::start(&prog.pipeline, &cfg, shard::itch_symbol_shard());
    for p in packets {
        engine.submit(p, 0);
    }
    engine.finish()
}

#[test]
fn deterministic_counters_identical_across_worker_counts() {
    let packets: Vec<Vec<u8>> = bench_feed(2_000).into_iter().map(|p| p.bytes).collect();
    let reports: Vec<_> = [1usize, 2, 8].iter().map(|&w| run(w, &packets)).collect();

    let baseline = reports[0].telemetry.as_ref().unwrap();
    assert!(baseline.packets > 0);
    assert!(!baseline.tables.is_empty());
    assert!(baseline.tables.iter().any(|t| t.hits > 0));

    for report in &reports[1..] {
        let snap = report.telemetry.as_ref().unwrap();
        assert_eq!(snap.packets, baseline.packets, "packet totals");
        assert_eq!(snap.tables, baseline.tables, "per-table hit/miss totals");
        assert_eq!(
            report.stats.dropped_packets, reports[0].stats.dropped_packets,
            "drop totals"
        );
    }
}

#[test]
fn snapshot_reports_stages_tables_and_control_spans() {
    let prog = compiled();
    let packets: Vec<Vec<u8>> = bench_feed(2_000).into_iter().map(|p| p.bytes).collect();
    let cfg = EngineConfig {
        workers: 2,
        telemetry: true,
        ..Default::default()
    };
    let mut engine = Engine::start(&prog.pipeline, &cfg, shard::itch_symbol_shard());
    let (front, back) = packets.split_at(packets.len() / 2);
    for p in front {
        engine.submit(p, 0);
    }
    // A full-swap install plus a drain in mid-trace, so both control
    // spans have something to record.
    engine.stage(prog.pipeline.clone()).unwrap();
    assert!(engine.commit());
    engine.quiesce().unwrap();
    for p in back {
        engine.submit(p, 0);
    }
    let report = engine.finish();
    let snap = report.telemetry.expect("telemetry enabled");

    assert_eq!(snap.version, SNAPSHOT_VERSION);
    assert_eq!(snap.workers, 2);
    assert_eq!(snap.packets, packets.len() as u64);

    // Stage histograms: every batch timed, one stage sample per batch.
    assert!(snap.data.batches > 0);
    assert_eq!(snap.data.batch_ns.count(), snap.data.batches);
    assert_eq!(snap.data.sampled_packets, snap.data.batches);
    assert_eq!(snap.data.parse_ns.count(), snap.data.sampled_packets);
    for h in [
        &snap.data.batch_ns,
        &snap.data.parse_ns,
        &snap.data.match_ns,
        &snap.data.mcast_ns,
    ] {
        assert!(h.count() > 0, "every stage sampled");
        let (p50, p99, p999) = (h.percentile(50.0), h.percentile(99.0), h.percentile(99.9));
        assert!(p50 <= p99 && p99 <= p999, "percentiles monotone");
        assert!(p999 <= h.max());
    }

    // Table counters carry pipeline names and every message hit a table.
    assert_eq!(snap.tables.len(), prog.pipeline.tables.len());
    let hits: u64 = snap.tables.iter().map(|t| t.hits).sum();
    let misses: u64 = snap.tables.iter().map(|t| t.misses).sum();
    assert!(hits + misses > 0);

    // Control-plane spans recorded by the mid-trace operations.
    assert_eq!(snap.spans.get(SpanKind::InstallPipeline).count, 1);
    assert_eq!(snap.spans.get(SpanKind::Quiesce).count, 1);
    assert!(snap.spans.get(SpanKind::InstallPipeline).max_ns > 0);
}

#[test]
fn telemetry_is_opt_in_and_compile_spans_ride_the_program() {
    let prog = compiled();
    // Compiler spans live on the program (never in CompileStats, which
    // must stay bit-identical across shard counts).
    for kind in [
        SpanKind::Compile,
        SpanKind::ShardBuild,
        SpanKind::ShardMerge,
        SpanKind::EmitTables,
    ] {
        assert!(
            prog.spans.get(kind).count >= 1,
            "{kind} span missing from compiled program"
        );
    }

    let packets: Vec<Vec<u8>> = bench_feed(200).into_iter().map(|p| p.bytes).collect();
    let cfg = EngineConfig {
        workers: 2,
        ..Default::default()
    };
    let mut engine = Engine::start(&prog.pipeline, &cfg, shard::itch_symbol_shard());
    for p in &packets {
        engine.submit(p, 0);
    }
    let report = engine.finish();
    assert!(report.telemetry.is_none(), "telemetry defaults to off");
    assert_eq!(report.stats.packets, packets.len() as u64);
}
