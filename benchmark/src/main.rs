//! `camus-benchmark`: one workload, one process.
//!
//! `--trace 0` is the end-to-end pass: set-up (several times, median),
//! a fixed warm-up, then `--seconds` of measurement split between the
//! workload's packet, mutation and cold-compile phases, then the
//! oracle pass. `--trace 1` is the traced pass of the same length:
//! the same system once with telemetry off and once on, plus
//! single-layer probes, all under in-memory spans. Both print every
//! metric as `name value unit` and end with one JSON line.

mod drive;
mod json;
mod oracle;
mod probes;
mod report;
mod stats;
mod sut;
mod trace;
mod traced;
mod workloads;

use std::time::Instant;

use drive::{Budget, Outcome};
use report::Run;
use stats::{median, Metric};
use trace::Tracer;
use workloads::{Feed, Inputs, Sut, Workload};

/// Throughput windows per run; the reported rate is their median.
const WINDOWS: usize = 12;
/// Discarded load before the first window, seconds.
const WARMUP_S: f64 = 1.0;
/// Times the whole set-up is repeated; `setup_s` is the median.
const SETUPS: usize = 5;
/// Mutate → ack → probe-burst steps of the oracle pass.
const ORACLE_STEPS: usize = 40;

fn oracle_pass(a: &Args, inp: &Inputs) -> Result<oracle::Verdict, String> {
    oracle::check(a.workload, inp, if a.smoke { 8 } else { ORACLE_STEPS })
}

pub struct Args {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out_dir: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut smoke) = (1u64, 16.0f64, false, false);
    let mut out_dir = "benchmark/out".to_string();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> Result<&String, String> {
        *i += 1;
        argv.get(*i)
            .ok_or_else(|| format!("{} needs a value", argv[*i - 1]))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => {
                let name = value(&mut i)?;
                workload = Some(workloads::find(name).ok_or_else(|| {
                    let known: Vec<_> = workloads::ALL.iter().map(|w| w.name).collect();
                    format!("unknown workload {name}; known: {}", known.join(", "))
                })?);
            }
            "--seed" => seed = value(&mut i)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => trace = value(&mut i)? == "1",
            "--smoke" => smoke = true,
            "--out" => out_dir = value(&mut i)?.clone(),
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    if !(1.0..=600.0).contains(&seconds) {
        return Err("--seconds must be between 1 and 600".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        smoke,
        out_dir,
    })
}

/// Cycles a load run is cut into (see [`Budget`]).
const CYCLES: usize = 6;

/// The phases' lengths when `seconds` are shared out by the workload's
/// shares.
fn budget(a: &Args, seconds: f64) -> Budget {
    let w = a.workload;
    let cycles = if a.smoke { 2 } else { CYCLES };
    let min_mutations = match (&w.sut, &w.feed) {
        // Open loop: per client, over the whole phase.
        (Sut::Daemon, Feed::DaemonInternal) => 4,
        (Sut::Fabric { .. }, _) => 8,
        _ => 2,
    };
    Budget {
        warmup_s: if a.smoke { 0.3 } else { WARMUP_S },
        cycles,
        packets_s: seconds * w.shares.0,
        windows: if a.smoke { 1 } else { WINDOWS / CYCLES },
        mutations_s: seconds * w.shares.1,
        min_mutations,
        compile_s: seconds * w.shares.2,
    }
}

/// The cold compiles of a run: program text in, compiled program out.
pub struct ColdCompiles {
    /// Odd repeats compile the text plus one churn rule: the subscribe
    /// and unsubscribe of a control plane without an incremental
    /// session.
    alternate: bool,
    pub parse_s: Vec<f64>,
    pub total_s: Vec<f64>,
    /// Rules compiled per second, per repeat.
    pub rates: Vec<f64>,
    pub stats: Vec<sut::CompileNumbers>,
    /// The latest compile of the plain text (every repeat's is the same
    /// program; keeping them all would count against `peak_rss_mb`).
    pub pipeline: Option<sut::Pipeline>,
    /// Every repeat of the same text produced the same table entries.
    pub stable: bool,
}

impl ColdCompiles {
    fn new(alternate: bool) -> Self {
        ColdCompiles {
            alternate,
            parse_s: Vec::new(),
            total_s: Vec::new(),
            rates: Vec::new(),
            stats: Vec::new(),
            pipeline: None,
            stable: true,
        }
    }

    /// Compiles for about `secs`: at least one unit (one compile, or
    /// a plain/grown pair when alternating), then more while another
    /// unit still fits.
    fn run_for(&mut self, inp: &Inputs, secs: f64, tr: &mut Tracer) -> Result<(), String> {
        let grown = format!("{}{}\n", inp.text, inp.churn_text[0]);
        let texts = [(false, &inp.text), (true, &grown)];
        let stride = 1 + self.alternate as usize;
        let start = Instant::now();
        loop {
            let unit = Instant::now();
            for &(is_grown, text) in &texts[..stride] {
                let request = self.stats.len() as u64 + 1;
                let t = Instant::now();
                let parent = tr.begin("bench.cold_compile", trace::SpanId::default(), request);
                let rules = tr.time("lang.parse_program", parent, request, || {
                    sut::parse_program(text)
                })?;
                self.parse_s.push(t.elapsed().as_secs_f64());
                let compiled = tr.time("core.compile", parent, request, || sut::compile(&rules))?;
                tr.end(parent);
                let total_s = t.elapsed().as_secs_f64();
                self.total_s.push(total_s);
                self.rates.push(rules.len() as f64 / total_s);
                if let Some(same_text) = self.stats.len().checked_sub(stride) {
                    self.stable &=
                        compiled.stats.table_entries == self.stats[same_text].table_entries;
                }
                self.stats.push(compiled.stats);
                if !is_grown {
                    self.pipeline = Some(compiled.pipeline);
                }
            }
            if (start.elapsed() + unit.elapsed()).as_secs_f64() > secs {
                return Ok(());
            }
        }
    }
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Failure accounting shared by both passes.
#[derive(Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Ledger {
    fn fail(&mut self, n: u64, what: String) {
        if n > 0 {
            self.failed += n;
            self.notes.push(what);
        }
    }

    /// Packets without a decision, mutations without an ack, a rule
    /// set that did not come back, an unclean drain.
    fn load(&mut self, what: &str, o: &Outcome) {
        self.attempted += o.report.submitted + o.mutations.attempted;
        self.fail(
            o.report.lost(),
            format!(
                "{what}: {} packets undecided ({} quarantined, {} orphaned)",
                o.report.lost(),
                o.report.quarantined,
                o.report.orphaned
            ),
        );
        self.fail(
            o.mutations.failed,
            format!("{what}: {} mutations not acked", o.mutations.failed),
        );
        self.fail(
            !o.report.clean as u64,
            format!("{what}: the program's own ledger does not reconcile"),
        );
        self.fail(
            !o.rules_restored as u64,
            format!("{what}: final rule set differs from the installed program"),
        );
    }

    fn oracle(&mut self, v: oracle::Verdict) {
        self.attempted += v.checked;
        self.failed += v.wrong;
        self.notes.extend(v.notes);
    }
}

/// One timed set-up.
fn timed_setup(
    a: &Args,
    from: Instant,
    times: &mut Vec<f64>,
) -> Result<(Inputs, drive::Live), String> {
    let up = drive::setup(a.workload, a.seed, false)?;
    times.push(from.elapsed().as_secs_f64());
    Ok(up)
}

fn end_to_end(a: &Args, process_start: Instant) -> Result<Run, String> {
    let w = a.workload;
    let mut ledger = Ledger::default();
    let mut tr = Tracer::new(false, process_start);
    let b = budget(a, a.seconds);

    // Set-up several times over (the first also pays process
    // start-up, as a user does); all but the last are shut down again.
    let mut setups = Vec::new();
    let (mut inp, mut live) = timed_setup(a, process_start, &mut setups)?;
    let repeats = if a.smoke { 2 } else { SETUPS };
    let sessionless = matches!(w.sut, Sut::CompilerOnly);
    let mut cold = ColdCompiles::new(sessionless);
    for i in 1..repeats {
        let report = drive::teardown(live);
        ledger.fail(
            !report.clean as u64,
            "set-up repeat did not shut down clean".into(),
        );
        if i + 1 == repeats && !sessionless {
            // Cold compiles run while no engine does: half before the
            // load, half after it.
            cold.run_for(&inp, b.compile_s / 2.0, &mut tr)?;
        }
        (inp, live) = timed_setup(a, Instant::now(), &mut setups)?;
    }
    // Without an engine the compiles interleave with the packet slices.
    let mut out = drive::drive(w, &inp, live, &b, &mut tr, &mut |secs, tr| {
        cold.run_for(&inp, secs, tr)
    })?;
    if !sessionless {
        cold.run_for(&inp, b.compile_s / 2.0, &mut tr)?;
    } else {
        for (i, s) in cold.total_s.iter().enumerate() {
            let ms = if i % 2 == 1 {
                &mut out.mutations.sub_ms
            } else {
                &mut out.mutations.unsub_ms
            };
            ms.push(s * 1e3);
        }
        out.mutations.attempted = cold.stats.len() as u64;
    }
    ledger.load("load", &out);
    ledger.attempted += cold.stats.len() as u64;
    ledger.fail(
        !cold.stable as u64,
        "table_entries differs between repeats of one compile".into(),
    );
    let rss = peak_rss_mb();
    ledger.oracle(oracle_pass(a, &inp)?);

    let metrics = vec![
        Metric::of("setup_s", "s", &setups),
        Metric::of("pkts_per_sec", "pkt/s", &out.windows),
        Metric::of("subscribe_ack_p50_ms", "ms", &out.mutations.sub_ms),
        Metric::of("unsubscribe_ack_p50_ms", "ms", &out.mutations.unsub_ms),
        Metric::of("compile_rules_per_sec", "rules/s", &cold.rates),
        Metric::single(
            "table_entries",
            "entries",
            cold.stats[0].table_entries as f64,
        ),
        Metric::single("peak_rss_mb", "MiB", rss),
    ];
    let mut notes = Vec::new();
    if !out.mutations.late_ms.is_empty() {
        notes.push(format!(
            "open-loop generator lateness: p50 {:.3} ms, max {:.3} ms over {} requests",
            median(&out.mutations.late_ms),
            out.mutations.late_ms.iter().cloned().fold(0.0, f64::max),
            out.mutations.late_ms.len()
        ));
    }
    Ok(Run {
        metrics,
        ledger,
        notes,
        budget_lines: Vec::new(),
        tracer: tr,
    })
}

fn main() {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("camus-benchmark: {e}");
            eprintln!(
                "usage: camus-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]"
            );
            std::process::exit(2);
        }
    };
    let run = if args.trace {
        traced::traced(&args, process_start)
    } else {
        end_to_end(&args, process_start)
    };
    match run {
        Ok(run) => {
            let correct = report::emit(&args, run);
            std::process::exit(if correct { 0 } else { 1 });
        }
        Err(e) => {
            // A harness or program error, not a measurement: no result.
            eprintln!("camus-benchmark: {}: {e}", args.workload.name);
            std::process::exit(3);
        }
    }
}
