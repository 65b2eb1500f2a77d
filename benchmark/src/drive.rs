//! Bringing a workload's system under test up, loading it for a fixed
//! time, and shutting it down: the part of a run both the end-to-end
//! pass and the traced pass share.

use std::time::{Duration, Instant};

use crate::sut::{
    self, Client, DaemonSpec, DaemonStats, DaemonSut, FabricSut, Packet, Pipeline, PipelineProbe,
    PlaneReport,
};
use crate::trace::{SpanId, Tracer};
use crate::workloads::{Feed, Inputs, Sut, Workload};

/// Packets per `Daemon::inject` / `Fabric::submit` chunk.
const CHUNK: usize = 4096;
/// Chunks in flight before the closed loop waits for the daemon.
const CHUNKS_OUTSTANDING: usize = 4;
/// Packets per `process_batch_shared` call (the engine's batch size).
pub const BATCH: usize = 64;
/// Bus connections that issue mutations on the open-loop workload.
const MUTATION_CLIENTS: usize = 2;
/// Open-loop mutation rate, all clients together.
const MUTATIONS_PER_SEC: f64 = 10.0;
/// Packets put in flight before each fabric epoch.
const EPOCH_IN_FLIGHT: usize = 2000;

/// How long each phase of one load run lasts, in total. The phases
/// are cut into `cycles` slices and interleaved — packets, mutations,
/// compiles, packets, … — because the reference host changes speed in
/// episodes of a second or more (a busy SMT sibling costs 20–50%): a
/// phase measured in one piece reports whichever episode it met, while
/// slices spread over the run see the same mix for every metric.
/// (Cold compiles join the cycle only where no engine runs; see
/// [`CompileSlice`].)
#[derive(Clone, Copy)]
pub struct Budget {
    pub warmup_s: f64,
    pub cycles: usize,
    pub packets_s: f64,
    /// Throughput windows per cycle.
    pub windows: usize,
    pub mutations_s: f64,
    /// Mutations per cycle even if the slice runs out first (even).
    pub min_mutations: usize,
    pub compile_s: f64,
}

impl Budget {
    fn window_s(&self) -> f64 {
        self.packets_s / (self.cycles * self.windows) as f64
    }

    fn mutation_slice_s(&self) -> f64 {
        self.mutations_s / self.cycles as f64
    }

    fn compile_slice_s(&self) -> f64 {
        self.compile_s / self.cycles as f64
    }
}

/// Runs cold compiles for the given number of seconds. Only the
/// engine-less driver calls it (once per cycle, between packet slices):
/// an idle engine's worker spins on its ring, so a compile beside a
/// live daemon or fabric would measure that contention, and those
/// workloads compile before and after their load instead.
pub type CompileSlice<'a> = &'a mut dyn FnMut(f64, &mut Tracer) -> Result<(), String>;

/// A system under test that is up and has served its first operation.
pub enum Live {
    Daemon {
        sut: DaemonSut,
        ctl: Client,
    },
    Fabric {
        sut: FabricSut,
        /// The installed program, and the same plus every churn rule.
        masters: Box<[Pipeline; 2]>,
    },
    Compiler {
        probe: PipelineProbe,
    },
}

/// Replays the feed forever with a monotonic clock.
struct Replay<'a> {
    feed: &'a [Packet],
    pos: usize,
    clock_us: u64,
}

impl<'a> Replay<'a> {
    fn new(feed: &'a [Packet]) -> Self {
        Replay {
            feed,
            pos: 0,
            clock_us: 0,
        }
    }

    fn next(&mut self) -> (&'a Packet, u64) {
        let p = &self.feed[self.pos];
        self.pos = (self.pos + 1) % self.feed.len();
        self.clock_us += 25;
        (p, self.clock_us)
    }

    /// The next `n` frames as one contiguous slice (wraps early rather
    /// than straddle the end of the feed).
    fn slice(&mut self, n: usize) -> &'a [Packet] {
        if self.pos + n > self.feed.len() {
            self.pos = 0;
        }
        let s = &self.feed[self.pos..self.pos + n];
        self.pos += n;
        self.clock_us += 25 * n as u64;
        s
    }

    fn owned_chunk(&mut self, n: usize) -> Vec<(Packet, u64)> {
        (0..n)
            .map(|_| {
                let (p, t) = self.next();
                (p.clone(), t)
            })
            .collect()
    }
}

/// Packet-rate windows over a running counter.
struct Windows {
    len_s: f64,
    start: (Instant, u64),
    rates: Vec<f64>,
}

impl Windows {
    fn new(len_s: f64, now: Instant, count: u64) -> Self {
        Windows {
            len_s,
            start: (now, count),
            rates: Vec::new(),
        }
    }

    fn due(&self, now: Instant) -> bool {
        (now - self.start.0).as_secs_f64() >= self.len_s
    }

    fn close(&mut self, now: Instant, count: u64) {
        let dt = (now - self.start.0).as_secs_f64();
        self.rates.push((count - self.start.1) as f64 / dt);
        self.start = (now, count);
    }
}

/// One load step (a chunk, or an injector round): when it ended and
/// the packet count so far.
type Step = Result<(Instant, u64), String>;

/// Repeats `step` for the warm-up time; nothing is recorded.
fn warm_up(budget: &Budget, mut step: impl FnMut() -> Step) -> Result<(), String> {
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < budget.warmup_s {
        step()?;
    }
    Ok(())
}

/// One cycle's packet slice: repeats `step` until `budget.windows`
/// windows have closed and appends their rates. The first step only
/// re-fills the rings after the idle slices and is not measured.
fn packet_slice(
    budget: &Budget,
    rates: &mut Vec<f64>,
    mut step: impl FnMut() -> Step,
) -> Result<(), String> {
    let (t0, n0) = step()?;
    let mut windows = Windows::new(budget.window_s(), t0, n0);
    while windows.rates.len() < budget.windows {
        let (now, n) = step()?;
        if windows.due(now) {
            windows.close(now, n);
        }
    }
    rates.extend(windows.rates);
    Ok(())
}

/// Generates the inputs, starts the workload's system under test and
/// runs its first operation — what `setup_s` times.
pub fn setup(w: &Workload, seed: u64, telemetry: bool) -> Result<(Inputs, Live), String> {
    let inp = crate::workloads::generate(w, seed);
    let live = match w.sut {
        Sut::Daemon => {
            let internal = matches!(w.feed, Feed::DaemonInternal);
            let sut = DaemonSut::start(&DaemonSpec {
                pool: &inp.pool,
                initial: inp.initial,
                cache: w.cache,
                telemetry,
                record: false,
                internal_feed: if internal { inp.feed.len() } else { 0 },
            })?;
            let mut ctl = sut.connect()?;
            if !internal {
                sut.inject(Replay::new(&inp.feed).owned_chunk(CHUNK))?;
            }
            while ctl.stats()?.packets == 0 {
                std::thread::yield_now();
            }
            Live::Daemon { sut, ctl }
        }
        Sut::Fabric { leaves } => {
            let a = sut::compile(inp.installed())?.pipeline;
            let b = sut::compile(&inp.pool)?.pipeline;
            let mut sut = FabricSut::start(&a, leaves, telemetry, false)?;
            for p in &inp.feed[..CHUNK] {
                sut.submit(p, 0);
            }
            Live::Fabric {
                sut,
                masters: Box::new([a, b]),
            }
        }
        Sut::CompilerOnly => {
            let rules = sut::parse_program(&inp.text)?;
            let mut probe = PipelineProbe::new(&sut::compile(&rules)?.pipeline, w.cache);
            probe.process_batch(&inp.feed[..BATCH], 0)?;
            Live::Compiler { probe }
        }
    };
    Ok((inp, live))
}

/// Shuts a system under test down without loading it.
pub fn teardown(live: Live) -> PlaneReport {
    match live {
        Live::Daemon { sut, .. } => sut.finish(),
        Live::Fabric { sut, .. } => sut.finish(),
        Live::Compiler { .. } => PlaneReport {
            clean: true,
            ..Default::default()
        },
    }
}

/// Deltas of the daemon's own counters over the loaded interval.
#[derive(Clone, Copy, Default)]
pub struct DaemonDelta {
    pub epochs: u64,
    pub mutations_applied: u64,
    pub apply_mean_ms: f64,
}

/// Mutation latencies and failures, as one client (or all) saw them.
#[derive(Default)]
pub struct MutationLog {
    /// Subscribe latencies, ms: due (or send) time to ack.
    pub sub_ms: Vec<f64>,
    pub unsub_ms: Vec<f64>,
    /// How late the open-loop generator sent each request, ms.
    pub late_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

impl MutationLog {
    /// One mutation's outcome, `ms` after it was due. A refused or
    /// failed request counts as failed and leaves no latency sample.
    fn record<E>(&mut self, grow: bool, done: Result<(), E>, ms: f64) {
        self.attempted += 1;
        match done {
            Ok(()) if grow => self.sub_ms.push(ms),
            Ok(()) => self.unsub_ms.push(ms),
            Err(_) => self.failed += 1,
        }
    }

    fn absorb(&mut self, other: MutationLog) {
        self.sub_ms.extend(other.sub_ms);
        self.unsub_ms.extend(other.unsub_ms);
        self.late_ms.extend(other.late_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Request `i` of a client's schedule over `rules`: subscribe rule
/// `i / 2` when `i` is even, unsubscribe it again when odd. Timed from
/// `from` (when it was due, or when it is sent); `request` identifies
/// it in the trace.
fn mutate(
    client: &mut Client,
    rules: &[String],
    (i, request): (usize, u64),
    from: Instant,
    tr: &mut Tracer,
    log: &mut MutationLog,
) {
    let rule = &rules[(i / 2) % rules.len()];
    let subscribe = i.is_multiple_of(2);
    let acked = if subscribe {
        tr.time("bus.subscribe", SpanId::default(), request, || {
            client.subscribe(rule)
        })
    } else {
        tr.time("bus.unsubscribe", SpanId::default(), request, || {
            client.unsubscribe(rule)
        })
    };
    log.record(subscribe, acked, ms_since(from));
}

/// Everything one load run observed from outside the program.
#[derive(Default)]
pub struct Outcome {
    /// Packets per second, one entry per window.
    pub windows: Vec<f64>,
    pub mutations: MutationLog,
    /// `Stats` round trips while the packet phase ran, µs.
    pub stats_rtt_us: Vec<f64>,
    pub report: PlaneReport,
    pub daemon: Option<DaemonDelta>,
    /// The rule set after the run equals the installed program.
    pub rules_restored: bool,
    /// Fabric only: time inside `submit` / `route` per packet.
    pub fabric_submit_ns: f64,
    pub fabric_route_ns: f64,
}

/// Loads a live system for `budget` and shuts it down.
pub fn drive(
    w: &Workload,
    inp: &Inputs,
    live: Live,
    budget: &Budget,
    tr: &mut Tracer,
    compile: CompileSlice,
) -> Result<Outcome, String> {
    match live {
        Live::Daemon { sut, ctl } => match w.feed {
            Feed::Seeded { .. } => drive_daemon_injected(inp, sut, ctl, budget, tr),
            Feed::DaemonInternal => drive_daemon_internal(inp, sut, ctl, budget, tr),
        },
        Live::Fabric { sut, masters } => drive_fabric(inp, sut, masters, budget, tr),
        Live::Compiler { probe } => drive_compiler(inp, probe, budget, tr, compile),
    }
}

/// Milliseconds since `t` (0 if `t` is still ahead).
fn ms_since(t: Instant) -> f64 {
    Instant::now().saturating_duration_since(t).as_secs_f64() * 1e3
}

fn daemon_delta(before: &DaemonStats, after: &DaemonStats) -> DaemonDelta {
    let applies = after.apply_count - before.apply_count;
    DaemonDelta {
        epochs: after.epochs - before.epochs,
        mutations_applied: after.mutations_applied - before.mutations_applied,
        apply_mean_ms: if applies == 0 {
            0.0
        } else {
            (after.apply_ns_total - before.apply_ns_total) as f64 / applies as f64 / 1e6
        },
    }
}

fn finish_daemon(
    inp: &Inputs,
    sut: DaemonSut,
    mut ctl: Client,
    before: &DaemonStats,
    mut out: Outcome,
) -> Result<Outcome, String> {
    out.daemon = Some(daemon_delta(before, &ctl.stats()?));
    let mut want: Vec<String> = inp.installed().iter().map(|r| r.to_string()).collect();
    want.sort();
    out.rules_restored = ctl.snapshot()? == want;
    drop(ctl);
    out.report = sut.finish();
    Ok(out)
}

/// Whether a mutation slice that began at `slice` with `issued`
/// requests so far (in this slice) has more to do.
fn more_mutations(issued: usize, slice: Instant, budget: &Budget) -> bool {
    issued < budget.min_mutations
        || issued % 2 == 1
        || slice.elapsed().as_secs_f64() < budget.mutation_slice_s()
}

/// The closed loop through `Daemon::inject`: a round builds
/// `CHUNKS_OUTSTANDING` chunks, hands them over, and then issues a
/// `Stats` RPC, which queues behind the chunks on the daemon's one
/// control channel and so both bounds the backlog and reads progress.
/// Chunks are built between rounds, not during them: on a 2-core host
/// the daemon's control thread and its worker are the two busy
/// threads, and a generator cloning frames beside them makes every
/// window noisier than the effects the benchmark is after.
struct Injector<'a> {
    sut: &'a DaemonSut,
    ctl: &'a mut Client,
    replay: Replay<'a>,
    rounds: u64,
}

impl Injector<'_> {
    /// One round; returns when the daemon has submitted every chunk,
    /// with its counters and how long the `Stats` call waited.
    fn round(&mut self, tr: &mut Tracer) -> Result<(Instant, DaemonStats, f64), String> {
        self.rounds += 1;
        let parent = tr.begin("bench.inject_round", SpanId::default(), self.rounds);
        let span = tr.begin("bench.build_chunks", parent, self.rounds);
        let chunks: Vec<_> = (0..CHUNKS_OUTSTANDING)
            .map(|_| self.replay.owned_chunk(CHUNK))
            .collect();
        tr.end(span);
        for chunk in chunks {
            tr.time("camusd.inject", parent, self.rounds, || {
                self.sut.inject(chunk)
            })?;
        }
        let t = Instant::now();
        let stats = tr.time("bus.stats", parent, self.rounds, || self.ctl.stats())?;
        let rtt_us = t.elapsed().as_secs_f64() * 1e6;
        tr.end(parent);
        Ok((Instant::now(), stats, rtt_us))
    }
}

/// Each cycle: packets through the injector, then the feed stops and
/// one client mutates the idle daemon closed-loop. A saturating inject
/// source starves mutation epochs (README, "inject starvation"), so
/// acks under load are `churn_mixed`'s job.
fn drive_daemon_injected(
    inp: &Inputs,
    sut: DaemonSut,
    mut ctl: Client,
    budget: &Budget,
    tr: &mut Tracer,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut mutator = sut.connect()?;
    let mut inj = Injector {
        sut: &sut,
        ctl: &mut ctl,
        replay: Replay::new(&inp.feed),
        rounds: 0,
    };
    warm_up(budget, || {
        inj.round(tr).map(|(now, stats, _)| (now, stats.packets))
    })?;
    let (_, before, _) = inj.round(tr)?;
    let mut issued = 0usize;
    for _ in 0..budget.cycles {
        packet_slice(budget, &mut out.windows, || {
            let (now, stats, rtt_us) = inj.round(tr)?;
            out.stats_rtt_us.push(rtt_us);
            Ok((now, stats.packets))
        })?;

        let (slice, first) = (Instant::now(), issued);
        while more_mutations(issued - first, slice, budget) {
            mutate(
                &mut mutator,
                &inp.churn_text,
                (issued, issued as u64 + 1),
                Instant::now(),
                tr,
                &mut out.mutations,
            );
            issued += 1;
        }
    }
    drop(mutator);
    finish_daemon(inp, sut, ctl, &before, out)
}

/// When an open-loop client sends: request `i` is due at
/// `t0 + first_due_s + i * period_s`.
#[derive(Clone, Copy)]
struct Schedule {
    t0: Instant,
    first_due_s: f64,
    period_s: f64,
    requests: usize,
    /// Trace id of request `i` is `first_request + i`.
    first_request: u64,
}

/// Issues a schedule's alternating subscribe/unsubscribe requests over
/// this client's own `rules`, each timed from when it was due.
fn open_loop_client(
    mut client: Client,
    rules: &[String],
    plan: Schedule,
    mut tracer: Tracer,
) -> (MutationLog, Tracer) {
    let mut log = MutationLog::default();
    for i in 0..plan.requests {
        let due = plan.t0 + Duration::from_secs_f64(plan.first_due_s + plan.period_s * i as f64);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        log.late_ms.push(ms_since(due));
        let request = plan.first_request + i as u64;
        mutate(&mut client, rules, (i, request), due, &mut tracer, &mut log);
    }
    (log, tracer)
}

/// The daemon feeds itself (`feed_loop`) flat out; the benchmark only
/// reads `Stats` at window edges while `MUTATION_CLIENTS` connections
/// mutate open-loop at `MUTATIONS_PER_SEC` in total. Packets and
/// mutations already share the whole phase, so it is not cut into
/// cycles.
fn drive_daemon_internal(
    inp: &Inputs,
    sut: DaemonSut,
    mut ctl: Client,
    budget: &Budget,
    tr: &mut Tracer,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    std::thread::sleep(Duration::from_secs_f64(budget.warmup_s));

    // Requests per client: what fits the packet phase, an even number
    // so that every rule subscribed is unsubscribed again.
    let period_s = MUTATION_CLIENTS as f64 / MUTATIONS_PER_SEC;
    let fits = ((budget.packets_s - 0.2) / period_s).floor() as usize;
    let requests = fits.max(budget.min_mutations).max(2) / 2 * 2;
    let share = inp.churn_text.len() / MUTATION_CLIENTS;
    let clients: Vec<Client> = (0..MUTATION_CLIENTS)
        .map(|_| sut.connect())
        .collect::<Result<_, _>>()?;

    let before = ctl.stats()?;
    let t0 = Instant::now();
    let (window_s, edges) = (budget.window_s(), budget.cycles * budget.windows);
    let mut windows = Windows::new(window_s, t0, before.packets);
    let logs = std::thread::scope(|s| -> Result<Vec<(MutationLog, Tracer)>, String> {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, client)| {
                let rules = &inp.churn_text[c * share..(c + 1) * share];
                let plan = Schedule {
                    t0,
                    first_due_s: 0.05 + c as f64 / MUTATIONS_PER_SEC,
                    period_s,
                    requests,
                    first_request: (c * requests) as u64 + 1,
                };
                let tracer = tr.fork();
                s.spawn(move || open_loop_client(client, rules, plan, tracer))
            })
            .collect();
        for k in 1..=edges {
            let edge = t0 + Duration::from_secs_f64(window_s * k as f64);
            if let Some(wait) = edge.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let t = Instant::now();
            let stats = tr.time("bus.stats", SpanId::default(), k as u64, || ctl.stats())?;
            out.stats_rtt_us.push(t.elapsed().as_secs_f64() * 1e6);
            windows.close(Instant::now(), stats.packets);
        }
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "mutation client panicked".to_string()))
            .collect()
    })?;
    out.windows = windows.rates;
    for (log, tracer) in logs {
        out.mutations.absorb(log);
        tr.absorb(tracer);
    }
    finish_daemon(inp, sut, ctl, &before, out)
}

/// Feeds a fabric from the benchmark thread, counting packets and the
/// time spent inside `Fabric::submit`.
struct FabricLoad<'a> {
    replay: Replay<'a>,
    submitted: u64,
    in_submit: Duration,
}

impl FabricLoad<'_> {
    fn chunk(&mut self, sut: &mut FabricSut, tr: &mut Tracer, n: usize) -> Step {
        let t = Instant::now();
        let span = tr.begin("fabric.submit_chunk", SpanId::default(), self.submitted);
        for _ in 0..n {
            let (p, now_us) = self.replay.next();
            sut.submit(p, now_us);
        }
        tr.end(span);
        self.submitted += n as u64;
        let now = Instant::now();
        self.in_submit += now - t;
        Ok((now, self.submitted))
    }
}

/// The benchmark thread is the spine's driver. Each cycle it submits
/// the feed, then alternates the two pre-compiled masters through
/// two-phase epochs with packets in flight before each (installing the
/// larger master is the fabric's "subscribe", going back its
/// "unsubscribe").
fn drive_fabric(
    inp: &Inputs,
    mut sut: FabricSut,
    masters: Box<[Pipeline; 2]>,
    budget: &Budget,
    tr: &mut Tracer,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut load = FabricLoad {
        replay: Replay::new(&inp.feed),
        submitted: 0,
        in_submit: Duration::ZERO,
    };
    warm_up(budget, || load.chunk(&mut sut, tr, CHUNK))?;
    let mut epochs = 0usize;
    for _ in 0..budget.cycles {
        packet_slice(budget, &mut out.windows, || load.chunk(&mut sut, tr, CHUNK))?;

        let (slice, first) = (Instant::now(), epochs);
        while more_mutations(epochs - first, slice, budget) {
            load.chunk(&mut sut, tr, EPOCH_IN_FLIGHT)?;
            let grow = epochs.is_multiple_of(2);
            let master = masters[grow as usize].clone();
            let t = Instant::now();
            let done = tr.time(
                "fabric.install_master",
                SpanId::default(),
                epochs as u64 + 1,
                || sut.install_master(master),
            );
            out.mutations.record(grow, done, ms_since(t));
            epochs += 1;
        }
    }
    out.fabric_submit_ns = load.in_submit.as_nanos() as f64 / load.submitted as f64;
    out.rules_restored = true;

    let probe = &inp.feed[..inp.feed.len().min(50_000)];
    let t = Instant::now();
    let span = tr.begin("fabric.route", SpanId::default(), 0);
    let mut acc = 0usize;
    for p in probe {
        acc += sut.route(p);
    }
    tr.end(span);
    std::hint::black_box(acc);
    out.fabric_route_ns = t.elapsed().as_nanos() as f64 / probe.len() as f64;

    out.report = sut.finish();
    Ok(out)
}

/// No engine: each cycle runs packets through the compiled pipeline on
/// this thread in engine-sized batches, then cold compiles. There is
/// no mutation slice: an incremental session over 20 000 rules takes
/// seconds to install and to shrink (README, "findings"), so this
/// workload's subscribe and unsubscribe are cold compiles.
fn drive_compiler(
    inp: &Inputs,
    mut probe: PipelineProbe,
    budget: &Budget,
    tr: &mut Tracer,
    compile: CompileSlice,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut replay = Replay::new(&inp.feed);
    let mut decided = 0u64;
    let mut chunk = |tr: &mut Tracer| -> Step {
        let span = tr.begin("pipeline.process_chunk", SpanId::default(), decided);
        for _ in 0..CHUNK / BATCH {
            let now_us = replay.clock_us;
            decided += probe.process_batch(replay.slice(BATCH), now_us)? as u64;
        }
        tr.end(span);
        Ok((Instant::now(), decided))
    };
    warm_up(budget, || chunk(tr))?;
    for _ in 0..budget.cycles {
        packet_slice(budget, &mut out.windows, || chunk(tr))?;
        compile(budget.compile_slice_s(), tr)?;
    }
    let total = decided;
    out.rules_restored = true;
    out.report = PlaneReport {
        submitted: total,
        decided: total,
        clean: true,
        per_leaf: vec![total],
        ..Default::default()
    };
    Ok(out)
}
