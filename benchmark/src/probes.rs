//! Per-layer probes of the traced pass: the same inputs pushed through
//! one layer at a time, with a span around each call, so that each
//! layer's cost is known apart from the whole.

use std::time::Instant;

use crate::drive::BATCH;
use crate::stats::median;
use crate::sut::{
    self, DaemonSpec, DaemonSut, EngineSut, Packet, Pipeline, PipelineProbe, PlaneReport, Session,
};
use crate::trace::{SpanId, Tracer};
use crate::workloads::{Inputs, Workload};

/// Frames each single-layer probe walks per pass.
const PROBE_FRAMES: usize = 50_000;

/// Median ns per frame of `f` over repeated passes lasting `secs`.
fn ns_per_frame(
    name: &'static str,
    frames: &[Packet],
    secs: f64,
    tr: &mut Tracer,
    mut f: impl FnMut(&[Packet]) -> Result<usize, String>,
) -> Result<f64, String> {
    let mut passes = Vec::new();
    let start = Instant::now();
    while passes.len() < 3 || start.elapsed().as_secs_f64() < secs {
        let t = Instant::now();
        let span = tr.begin(name, SpanId::default(), passes.len() as u64);
        let acc = f(frames)?;
        tr.end(span);
        std::hint::black_box(acc);
        passes.push(t.elapsed().as_nanos() as f64 / frames.len() as f64);
    }
    Ok(median(&passes))
}

/// Single-thread cost of each stage a packet crosses.
pub struct PacketCosts {
    pub itch_decode_ns: f64,
    pub shard_key_ns: f64,
    pub parse_ns: f64,
    pub process_ns: f64,
}

pub fn packet_costs(
    inp: &Inputs,
    pipeline: &Pipeline,
    cache: bool,
    secs: f64,
    tr: &mut Tracer,
) -> Result<PacketCosts, String> {
    let frames = &inp.feed[..inp.feed.len().min(PROBE_FRAMES)];
    let each = secs / 4.0;
    let mut probe = PipelineProbe::new(pipeline, cache);
    Ok(PacketCosts {
        itch_decode_ns: ns_per_frame("itch.parse_feed_packet", frames, each, tr, |fs| {
            Ok(fs.iter().map(|p| sut::itch_decode(p)).sum())
        })?,
        shard_key_ns: ns_per_frame("engine.shard_fn", frames, each, tr, |fs| {
            Ok(fs.iter().map(|p| sut::shard_key(p) as usize & 1).sum())
        })?,
        parse_ns: ns_per_frame("pipeline.parse_into", frames, each, tr, |fs| {
            Ok(fs.iter().map(|p| probe.parse(p)).sum())
        })?,
        process_ns: ns_per_frame("pipeline.process_batch_shared", frames, each, tr, |fs| {
            let mut n = 0;
            for batch in fs.chunks(BATCH) {
                n += probe.process_batch(batch, 0)?;
            }
            Ok(n)
        })?,
    })
}

/// A standalone engine (same configuration and shard function as the
/// daemon's, no daemon around it) under the same feed. The submitting
/// thread does nothing but call `Engine::submit`, so the time it
/// spends there per packet — back-pressure wait included — is
/// `1e9 / rate`.
pub struct EngineCosts {
    pub windows: Vec<f64>,
    pub report: PlaneReport,
}

pub fn engine_costs(
    inp: &Inputs,
    pipeline: &Pipeline,
    cache: bool,
    secs: f64,
    windows: usize,
    tr: &mut Tracer,
) -> EngineCosts {
    let mut engine = EngineSut::start(pipeline, cache, false);
    let mut clock = 0u64;
    let mut submit_for = |engine: &mut EngineSut, seconds: f64, tr: &mut Tracer| -> f64 {
        let start = Instant::now();
        let span = tr.begin("engine.submit_window", SpanId::default(), clock);
        let mut n = 0u64;
        'feed: loop {
            for batch in inp.feed.chunks(BATCH) {
                for p in batch {
                    clock += 25;
                    engine.submit(p, clock);
                }
                n += batch.len() as u64;
                if start.elapsed().as_secs_f64() >= seconds {
                    break 'feed;
                }
            }
        }
        tr.end(span);
        n as f64 / start.elapsed().as_secs_f64()
    };
    submit_for(&mut engine, secs / 4.0, tr);
    let each = secs * 0.75 / windows as f64;
    let rates = (0..windows)
        .map(|_| submit_for(&mut engine, each, tr))
        .collect();
    let report = tr.time("engine.finish", SpanId::default(), 0, || engine.finish());
    EngineCosts {
        windows: rates,
        report,
    }
}

/// The mutation schedule replayed without a daemon: an incremental
/// session compiles each update, a standalone engine applies it.
#[derive(Default)]
pub struct UpdateCosts {
    pub add_ms: Vec<f64>,
    pub remove_ms: Vec<f64>,
    /// `Engine::apply_update` of each add, and of each removal.
    pub apply_add_ms: Vec<f64>,
    pub apply_remove_ms: Vec<f64>,
    pub updates: u64,
    pub full_rebuilds: u64,
    pub delta_entries: u64,
}

pub fn update_costs(
    inp: &Inputs,
    cache: bool,
    secs: f64,
    min_pairs: usize,
    tr: &mut Tracer,
) -> Result<UpdateCosts, String> {
    let (mut session, installed) = Session::install(&inp.pool, inp.initial)?;
    let mut engine = EngineSut::start(&installed.pipeline, cache, false);
    let mut out = UpdateCosts::default();
    let start = Instant::now();
    let mut pairs = 0usize;
    while pairs < min_pairs || start.elapsed().as_secs_f64() < secs {
        let rule = std::slice::from_ref(&inp.churn()[pairs % inp.churn().len()]);
        for add in [true, false] {
            let request = out.updates + 1;
            let t = Instant::now();
            let report = if add {
                tr.time("core.update_add", SpanId::default(), request, || {
                    session.update(rule, &[])
                })?
            } else {
                tr.time("core.update_remove", SpanId::default(), request, || {
                    session.update(&[], rule)
                })?
            };
            let ms = t.elapsed().as_secs_f64() * 1e3;
            if add {
                out.add_ms.push(ms);
            } else {
                out.remove_ms.push(ms);
            }
            out.updates += 1;
            out.full_rebuilds += report.full_rebuild as u64;
            out.delta_entries += sut::delta_entries(&report);
            let t = Instant::now();
            tr.time("engine.apply_update", SpanId::default(), request, || {
                engine.apply_update(&report)
            })?;
            let applied = if add {
                &mut out.apply_add_ms
            } else {
                &mut out.apply_remove_ms
            };
            applied.push(t.elapsed().as_secs_f64() * 1e3);
        }
        pairs += 1;
    }
    engine.finish();
    Ok(out)
}

/// Closed-loop `Ping` round trips against an idle daemon hosting the
/// same program, µs.
pub fn ping_rtts(
    w: &Workload,
    inp: &Inputs,
    pings: usize,
    tr: &mut Tracer,
) -> Result<Vec<f64>, String> {
    let sut = DaemonSut::start(&DaemonSpec {
        pool: &inp.pool,
        initial: inp.initial,
        cache: w.cache,
        telemetry: false,
        record: false,
        internal_feed: 0,
    })?;
    let mut client = sut.connect()?;
    for _ in 0..pings / 10 {
        client.ping()?;
    }
    let mut rtts = Vec::with_capacity(pings);
    for i in 0..pings {
        let t = Instant::now();
        tr.time("bus.ping", SpanId::default(), i as u64, || client.ping())?;
        rtts.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(client);
    sut.finish();
    Ok(rtts)
}

/// Encode + decode of one `Subscribe` and one `Ack`, ns per frame.
pub fn codec_ns_per_frame(rule: &str) -> f64 {
    const ROUNDS: usize = 20_000;
    let t = Instant::now();
    let mut acc = 0usize;
    for _ in 0..ROUNDS {
        acc += sut::bus_codec_roundtrip(std::hint::black_box(rule));
    }
    std::hint::black_box(acc);
    t.elapsed().as_nanos() as f64 / (2 * ROUNDS) as f64
}

/// Mean `parse_rule` time over the churn rules' text, µs.
pub fn parse_rule_us(inp: &Inputs) -> Result<f64, String> {
    let rounds = 2000 / inp.churn_text.len().max(1) + 1;
    let t = Instant::now();
    let mut n = 0usize;
    for _ in 0..rounds {
        for text in &inp.churn_text {
            std::hint::black_box(sut::parse_rule(text)?);
            n += 1;
        }
    }
    Ok(t.elapsed().as_secs_f64() * 1e6 / n as f64)
}

/// `PartitionPlan::compute` + `slices` over two leaves: median ms and
/// the larger leaf's entry count.
pub fn partition_costs(
    master: &Pipeline,
    leaves: usize,
    tr: &mut Tracer,
) -> Result<(f64, u64), String> {
    let mut ms = Vec::new();
    let mut entries = 0;
    for i in 0..5 {
        let t = Instant::now();
        entries = tr.time("core.partition_plan", SpanId::default(), i, || {
            sut::partition_plan(master, leaves)
        })?;
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok((median(&ms), entries))
}
