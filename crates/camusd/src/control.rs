//! The control thread: owns the engine and the compiler session and
//! runs the daemon's one control loop over its queue. Every message
//! takes effect in queue order. Mutations queued back to back join one
//! coalescing window, published as one epoch: the window's *net* rule
//! delta through the daemon's one install call, `Engine::apply_update`.
//! Any other message — an injected packet chunk, `Ping`, `Snapshot`,
//! `Stats`, a `/metrics` scrape, `Shutdown` — first closes the open
//! window, then is handled. So an epoch never waits behind packets, and
//! a read queued after a mutation sees it. The internal feed gets one
//! burst between control turns, never inside an open window.
//!
//! The session is the single owner of the rule set (validation,
//! `Snapshot`, `Stats` and `/metrics` read its `active_rules`), and the
//! engine installs the program each report carries, so the two can only
//! disagree inside `try_update` — where an engine rejection is undone
//! by the inverse delta before anything else runs. `Stats` and
//! `/metrics` read one record, built on this thread when asked:
//! `stats_frame`, the engine's control spans and the feed count.
//!
//! Ordering contract: each connection sends one request at a time and
//! blocks on its reply, so per-client FIFO holds trivially; across
//! clients the only guarantee is that an `Ack { generation }` is an
//! exact cut in the packet stream: every packet submitted before the
//! publish is decided by the program live at its submission, and every
//! packet submitted after the ack was sent by that generation or a
//! later one. The engine publishes before the ack, and each engine
//! batch carries the program live when its packets were submitted.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::Duration;

use camus_bus::{
    read_frame, write_frame, BusListener, BusReply, BusRequest, RejectKind, WireError,
};
use camus_core::IncrementalCompiler;
use camus_engine::{Engine, EngineFault};
use camus_lang::{ast::Rule, parse_rule};
use camus_telemetry::SpanKind;

use crate::metrics::Scrape;
use crate::{BusCounters, DaemonReport, Shared};

/// Messages into the control thread.
pub(crate) enum Ctl {
    /// One decoded RPC plus its reply channel.
    Rpc {
        /// The request.
        req: BusRequest,
        /// Where the handler thread waits for the reply.
        reply: mpsc::Sender<BusReply>,
    },
    /// Raw packets to submit (test hook; races RPCs like the feed).
    Inject {
        /// `(frame bytes, now_us)` pairs.
        packets: Vec<(Vec<u8>, u64)>,
    },
    /// A `/metrics` scrape: the reply carries the record it renders.
    Metrics {
        /// Where the metrics thread waits for the record.
        reply: mpsc::Sender<Scrape>,
    },
    /// Quiesce and exit.
    Shutdown,
}

/// A parsed, validated mutation waiting for its epoch.
struct PendingMutation {
    add: Vec<Rule>,
    remove: Vec<Rule>,
    reply: mpsc::Sender<BusReply>,
}

/// A coalescing window's validated changes so far: per rule, copies
/// subscribed minus copies unsubscribed.
type Pending = HashMap<Rule, isize>;

/// The open coalescing window: mutations queued back to back, waiting
/// for their shared epoch. Empty when no window is open.
#[derive(Default)]
struct Window {
    pending: Pending,
    batch: Vec<PendingMutation>,
}

/// Folds one request's `rules` into its epoch's net delta: a rule an
/// earlier request in the batch put in `cancels` (a pending add met by
/// this removal, or the mirror case) is taken back out of it; anything
/// else joins `into`.
fn fold_net(rules: &[Rule], into: &mut Vec<Rule>, cancels: &mut Vec<Rule>) {
    for rule in rules {
        match cancels.iter().position(|r| r == rule) {
            Some(i) => {
                cancels.remove(i);
            }
            None => into.push(rule.clone()),
        }
    }
}

/// Packets submitted per control turn while feeding. Small enough
/// that a queued message waits at most one burst (~10 µs of submit
/// work), large enough to amortize the channel poll.
const FEED_BURST: usize = 256;

/// How long the loop blocks on an empty queue with nothing to feed.
const IDLE_POLL: Duration = Duration::from_millis(5);

pub(crate) struct ControlState {
    engine: Engine,
    /// The rule set the engine runs, and the compiler state that
    /// produced its program. `None` only after a rollback itself
    /// failed (an internal compiler error): mutations are rejected
    /// `Internal`, the data path keeps forwarding, and `Snapshot`/
    /// `Stats` keep reporting what it forwards for — `orphaned`.
    session: Option<IncrementalCompiler>,
    orphaned: Vec<Rule>,
    coalesce_max: usize,
    feed: Vec<Vec<u8>>,
    feed_loop: bool,
    feed_pos: usize,
    feed_clock_us: u64,
    feed_submitted: u64,
    shared: Arc<Shared>,
    bus: BusCounters,
}

impl ControlState {
    /// `session` must be the one whose last report `engine` installed.
    pub(crate) fn new(
        engine: Engine,
        session: IncrementalCompiler,
        coalesce_max: usize,
        feed: Vec<Vec<u8>>,
        feed_loop: bool,
        shared: Arc<Shared>,
    ) -> Self {
        ControlState {
            engine,
            session: Some(session),
            orphaned: Vec::new(),
            coalesce_max,
            feed,
            feed_loop,
            feed_pos: 0,
            feed_clock_us: 0,
            feed_submitted: 0,
            shared,
            bus: BusCounters::default(),
        }
    }

    /// The installed rule set, in the session's installation order.
    fn rules(&self) -> &[Rule] {
        self.session
            .as_ref()
            .map_or(&self.orphaned, |s| s.active_rules())
    }

    /// How many copies of `rule` are installed: the session's count
    /// index, or a count over `orphaned` once the session is gone.
    fn active_count(&self, rule: &Rule) -> usize {
        match &self.session {
            Some(s) => s.active_count(rule),
            None => self.orphaned.iter().filter(|r| *r == rule).count(),
        }
    }

    /// The control loop: one message per turn, in queue order. Returns
    /// the final report after shutdown.
    pub(crate) fn run(mut self, rx: mpsc::Receiver<Ctl>) -> DaemonReport {
        let mut window = Window::default();
        loop {
            // No feed burst while a window is open: the epoch waits
            // behind no packets.
            let busy = !window.batch.is_empty() || self.pump_feed();
            let polled = if busy {
                rx.try_recv()
                    .map_err(|e| e == mpsc::TryRecvError::Disconnected)
            } else {
                rx.recv_timeout(IDLE_POLL)
                    .map_err(|e| e == mpsc::RecvTimeoutError::Disconnected)
            };
            let msg = match polled {
                Ok(msg) => msg,
                // The queue ran empty: the open window, if any, closes.
                Err(false) => {
                    self.close(&mut window);
                    continue;
                }
                Err(true) => Ctl::Shutdown,
            };
            let mutation = matches!(
                &msg,
                Ctl::Rpc {
                    req: BusRequest::Subscribe { .. } | BusRequest::Unsubscribe { .. },
                    ..
                }
            );
            // Anything but a mutation closes the open window first.
            if !mutation {
                self.close(&mut window);
            }
            match msg {
                Ctl::Inject { packets } => {
                    for (bytes, now_us) in &packets {
                        self.engine.submit(bytes, *now_us);
                    }
                }
                Ctl::Metrics { reply } => {
                    let _ = reply.send(self.scrape());
                }
                Ctl::Shutdown => break,
                Ctl::Rpc { req, reply } => {
                    let answer = match req {
                        BusRequest::Subscribe { .. } | BusRequest::Unsubscribe { .. } => {
                            if let Some(pm) = self.admit_to_batch(req, reply, &mut window.pending) {
                                window.batch.push(pm);
                            }
                            if window.batch.len() >= self.coalesce_max {
                                self.close(&mut window);
                            }
                            continue;
                        }
                        BusRequest::Ping => BusReply::Pong,
                        BusRequest::Snapshot => BusReply::Snapshot {
                            generation: self.engine.generation(),
                            rules: self.printed_rules(),
                        },
                        BusRequest::Stats => BusReply::Stats(self.stats_frame()),
                        BusRequest::Shutdown => {
                            let _ = reply.send(BusReply::ShuttingDown);
                            break;
                        }
                    };
                    let _ = reply.send(answer);
                }
            }
        }
        self.shutdown(&rx)
    }

    /// Submits one feed burst; `true` while the feed has more to give
    /// (so the queue poll stays non-blocking).
    fn pump_feed(&mut self) -> bool {
        if self.feed.is_empty() {
            return false;
        }
        if self.feed_pos >= self.feed.len() {
            if !self.feed_loop {
                return false;
            }
            self.feed_pos = 0;
        }
        let end = (self.feed_pos + FEED_BURST).min(self.feed.len());
        for i in self.feed_pos..end {
            self.feed_clock_us += 25;
            self.engine.submit(&self.feed[i], self.feed_clock_us);
            self.feed_submitted += 1;
        }
        self.feed_pos = end;
        self.feed_loop || self.feed_pos < self.feed.len()
    }

    /// Closes the open window, if any: its batch becomes one epoch.
    fn close(&mut self, window: &mut Window) {
        let Window { batch, .. } = std::mem::take(window);
        if !batch.is_empty() {
            self.apply_epoch(batch);
        }
    }

    /// Parses and validates one mutation against the installed rules
    /// plus the window's `pending` changes. On failure the request is
    /// rejected immediately and `None` is returned; on success its
    /// changes join `pending` and the caller gets the pending entry.
    fn admit_to_batch(
        &mut self,
        req: BusRequest,
        reply: mpsc::Sender<BusReply>,
        pending: &mut Pending,
    ) -> Option<PendingMutation> {
        let (texts, is_add) = match req {
            BusRequest::Subscribe { rules } => (rules, true),
            BusRequest::Unsubscribe { rules } => (rules, false),
            _ => return None,
        };
        if texts.is_empty() {
            self.reject(&reply, RejectKind::Parse, "no rules in request");
            return None;
        }
        let mut parsed = Vec::with_capacity(texts.len());
        for text in &texts {
            match parse_rule(text) {
                Ok(rule) => parsed.push(rule),
                Err(e) => {
                    self.reject(&reply, RejectKind::Parse, &format!("{text:?}: {e}"));
                    return None;
                }
            }
        }
        let active = |r: &Rule| self.active_count(r) as isize + pending.get(r).unwrap_or(&0) > 0;
        if let Some(rule) = parsed.iter().find(|r| active(r) == is_add) {
            let what = if is_add { "already" } else { "not" };
            let message = format!("{what} subscribed: {rule}");
            self.reject(&reply, RejectKind::Compile, &message);
            return None;
        }
        let step = if is_add { 1 } else { -1 };
        for rule in &parsed {
            *pending.entry(rule.clone()).or_insert(0) += step;
        }
        let (add, remove) = if is_add {
            (parsed, Vec::new())
        } else {
            (Vec::new(), parsed)
        };
        Some(PendingMutation { add, remove, reply })
    }

    /// Compiles and publishes one epoch for the whole batch: its *net*
    /// delta, folded in arrival order, so a subscribe and an
    /// unsubscribe of the same rule inside one batch cancel out instead
    /// of reaching the compiler, which strips before it inserts. On a
    /// batched failure, falls back to applying each request serially so
    /// one poisonous request cannot reject its epoch-mates.
    fn apply_epoch(&mut self, batch: Vec<PendingMutation>) {
        let (mut adds, mut removes) = (Vec::new(), Vec::new());
        for m in &batch {
            fold_net(&m.add, &mut adds, &mut removes);
            fold_net(&m.remove, &mut removes, &mut adds);
        }
        match self.try_update(&adds, &removes) {
            Ok(generation) => self.ack_epoch(batch, generation),
            Err((kind, message)) if batch.len() == 1 => {
                if let Some(m) = batch.into_iter().next() {
                    self.reject(&m.reply, kind, &message);
                }
            }
            Err(_) => {
                // Serial fallback: per-request epochs against the
                // rolled-back rule set.
                for m in batch {
                    match self.try_update(&m.add, &m.remove) {
                        Ok(generation) => self.ack_epoch(vec![m], generation),
                        Err((kind, message)) => self.reject(&m.reply, kind, &message),
                    }
                }
            }
        }
    }

    /// Success bookkeeping for one published epoch: acks every request
    /// it carried with the shared generation.
    fn ack_epoch(&mut self, batch: Vec<PendingMutation>, generation: u64) {
        if batch.len() > 1 {
            self.bus.requests_coalesced += batch.len() as u64;
        }
        let coalesced_with = batch.len() as u32;
        for m in batch {
            self.bus.mutations_applied += (m.add.len() + m.remove.len()) as u64;
            let _ = m.reply.send(BusReply::Ack {
                generation,
                coalesced_with,
            });
        }
    }

    /// One compile + `apply_update` round trip. The session advances
    /// *before* the engine's admission verdict, so an engine rejection
    /// is rolled back with the inverse delta — one more rewrite, its
    /// report discarded; the engine installs whole programs, so the
    /// state numbering the detour leaves behind does not matter. A
    /// compile `Err` needs none: `update` left the session untouched.
    fn try_update(&mut self, adds: &[Rule], removes: &[Rule]) -> Result<u64, (RejectKind, String)> {
        let Some(session) = self.session.as_mut() else {
            return Err((
                RejectKind::Internal,
                "compiler session unavailable (rollback failed)".into(),
            ));
        };
        let report = session
            .update(adds, removes)
            .map_err(|e| (RejectKind::Compile, e.to_string()))?;
        match self.engine.apply_update(&report) {
            Ok(()) => {
                self.bus.rebuilds += u64::from(report.full_rebuild);
                Ok(self.engine.generation())
            }
            Err(fault) => {
                if session.update(removes, adds).is_err() {
                    // Stuck one update ahead of the engine: undo it on
                    // the list alone.
                    let ahead = session.active_rules().iter();
                    let kept = ahead.filter(|r| !adds.contains(r)).chain(removes);
                    self.orphaned = kept.cloned().collect();
                    self.session = None;
                }
                let kind = match &fault {
                    EngineFault::Admission(_) => RejectKind::Admission,
                    _ => RejectKind::Update,
                };
                Err((kind, fault.to_string()))
            }
        }
    }

    fn reject(&mut self, reply: &mpsc::Sender<BusReply>, kind: RejectKind, message: &str) {
        self.bus.mutations_rejected += 1;
        let _ = reply.send(BusReply::Rejected {
            kind,
            message: message.to_string(),
        });
    }

    /// The installed rule set, printed form, sorted.
    fn printed_rules(&self) -> Vec<String> {
        let mut rules: Vec<String> = self.rules().iter().map(|r| r.to_string()).collect();
        rules.sort();
        rules
    }

    fn stats_frame(&self) -> camus_bus::StatsFrame {
        let spans = self.engine.control_spans();
        let apply = spans.get(SpanKind::ApplyUpdate);
        camus_bus::StatsFrame {
            generation: self.engine.generation(),
            active_rules: self.rules().len() as u64,
            workers: self.engine.workers() as u64,
            packets: self.engine.submitted(),
            // Bus epochs are the daemon's only publishes.
            epochs: self.engine.generation(),
            mutations_applied: self.bus.mutations_applied,
            mutations_rejected: self.bus.mutations_rejected,
            requests_coalesced: self.bus.requests_coalesced,
            rpcs: self.shared.rpcs.load(Ordering::Relaxed),
            clients: self.shared.clients.load(Ordering::Relaxed),
            uptime_ms: self.shared.started.elapsed().as_millis() as u64,
            apply_ns_total: apply.total_ns,
            apply_count: apply.count,
        }
    }

    /// The record a `/metrics` scrape renders.
    fn scrape(&self) -> Scrape {
        Scrape {
            stats: self.stats_frame(),
            spans: self.engine.control_spans(),
            feed_packets: self.feed_submitted,
        }
    }

    /// Drain-and-exit: refuse queued RPCs, quiesce, report.
    fn shutdown(mut self, rx: &mpsc::Receiver<Ctl>) -> DaemonReport {
        // Stop the accept loops and the metrics server first so no new
        // work arrives while draining.
        self.shared.running.store(false, Ordering::Release);
        while let Ok(msg) = rx.try_recv() {
            if let Ctl::Rpc { reply, .. } = msg {
                let _ = reply.send(BusReply::ShuttingDown);
            }
        }
        self.bus.rpcs = self.shared.rpcs.load(Ordering::Relaxed);
        let active_rules = self.printed_rules();
        let drained = self.engine.quiesce();
        let engine = self.engine.finish();
        DaemonReport {
            submitted: engine.submitted,
            engine,
            clean_quiesce: drained.is_ok(),
            active_rules,
            bus: self.bus,
        }
    }
}

/// Accepts bus connections until the daemon stops; one handler thread
/// per connection.
pub(crate) fn accept_loop(listener: BusListener, tx: mpsc::Sender<Ctl>, shared: Arc<Shared>) {
    while shared.running.load(Ordering::Acquire) {
        match listener.accept() {
            Ok(conn) => {
                let tx = tx.clone();
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    shared.clients.fetch_add(1, Ordering::Relaxed);
                    handle_connection(conn, tx, &shared);
                    shared.clients.fetch_sub(1, Ordering::Relaxed);
                });
            }
            Err(WireError::Io(e)) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => break,
        }
    }
}

/// One connection: frame-decode requests, forward to the control
/// thread, write the reply back. Strictly one request in flight.
fn handle_connection(mut conn: camus_bus::BusStream, tx: mpsc::Sender<Ctl>, shared: &Shared) {
    loop {
        let payload = match read_frame(&mut conn) {
            Ok(p) => p,
            Err(_) => return, // closed or broken — nothing to answer
        };
        shared.rpcs.fetch_add(1, Ordering::Relaxed);
        let req = match BusRequest::decode(&payload) {
            Ok(r) => r,
            Err(e) => {
                // Typed decode failure, then hang up: the stream
                // offset can no longer be trusted.
                let _ = write_frame(
                    &mut conn,
                    &BusReply::Rejected {
                        kind: RejectKind::Internal,
                        message: format!("bad frame: {e}"),
                    }
                    .encode(),
                );
                return;
            }
        };
        let (reply_tx, reply_rx) = mpsc::channel();
        let reply = if tx
            .send(Ctl::Rpc {
                req,
                reply: reply_tx,
            })
            .is_ok()
        {
            reply_rx.recv().unwrap_or(BusReply::ShuttingDown)
        } else {
            BusReply::ShuttingDown
        };
        if write_frame(&mut conn, &reply.encode()).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DaemonConfig;
    use camus_engine::shard;
    use camus_pipeline::AsicModel;
    use std::sync::atomic::{AtomicBool, AtomicU64};

    /// A control state over `cfg` with its initial pool rules installed
    /// and no feed. A test queues its whole script, then runs the loop
    /// on its own thread: what the queue holds is the order the loop
    /// sees.
    fn control_state(cfg: &DaemonConfig) -> ControlState {
        let mut session =
            IncrementalCompiler::new(cfg.spec.clone(), &cfg.options, &cfg.pool).expect("session");
        let seed = session.install(&cfg.pool[..cfg.initial]).expect("install");
        let engine = Engine::start(&seed.pipeline, &cfg.engine, shard::itch_symbol_shard());
        let shared = Arc::new(Shared {
            running: AtomicBool::new(true),
            clients: AtomicU64::new(0),
            rpcs: AtomicU64::new(0),
            started: std::time::Instant::now(),
        });
        ControlState::new(engine, session, cfg.coalesce_max, Vec::new(), false, shared)
    }

    /// Queues `req`; its reply arrives on the returned channel once the
    /// loop has run.
    fn enqueue(tx: &mpsc::Sender<Ctl>, req: BusRequest) -> mpsc::Receiver<BusReply> {
        let (reply, queued) = mpsc::channel();
        tx.send(Ctl::Rpc { req, reply }).expect("control queue");
        queued
    }

    /// Queues `Shutdown` behind the script and runs the loop over it.
    fn run(state: ControlState, tx: &mpsc::Sender<Ctl>, rx: mpsc::Receiver<Ctl>) -> DaemonReport {
        tx.send(Ctl::Shutdown).expect("control queue");
        state.run(rx)
    }

    fn reply(queued: mpsc::Receiver<BusReply>) -> BusReply {
        queued.recv().expect("reply")
    }

    fn ack(generation: u64, coalesced_with: u32) -> BusReply {
        BusReply::Ack {
            generation,
            coalesced_with,
        }
    }

    /// `Subscribe R` then `Unsubscribe R` of a not-yet-active rule,
    /// queued back to back, ride one epoch and cancel out: `R` never
    /// forwards, the snapshot agrees, and the same pair in separate
    /// epochs afterwards (a snapshot between them closes the first
    /// window, and sees `R`) still leaves `R` silent.
    #[test]
    fn a_coalesced_subscribe_then_unsubscribe_leaves_the_rule_silent() {
        let mut cfg = DaemonConfig::itch(4, 16).unwrap();
        cfg.engine.record_decisions = true;
        let initial = cfg.pool[..4].to_vec();
        let rule = cfg.pool[4].to_string();
        let state = control_state(&cfg);
        let (tx, rx) = mpsc::channel();
        let subscribe = || BusRequest::Subscribe {
            rules: vec![rule.clone()],
        };
        let unsubscribe = || BusRequest::Unsubscribe {
            rules: vec![rule.clone()],
        };
        let probe: Vec<(Vec<u8>, u64)> = camus_workload::bench_feed(2_000)
            .iter()
            .enumerate()
            .map(|(i, p)| (p.bytes.clone(), 25 * (i as u64 + 1)))
            .collect();
        let run_probe = || {
            let packets = probe.clone();
            tx.send(Ctl::Inject { packets }).expect("control queue");
        };

        // One window carries both; the snapshot behind them closes it.
        let (first, second) = (enqueue(&tx, subscribe()), enqueue(&tx, unsubscribe()));
        let snapshot = enqueue(&tx, BusRequest::Snapshot);
        run_probe();
        // The same pair, one epoch each.
        let again = enqueue(&tx, subscribe());
        let between = enqueue(&tx, BusRequest::Snapshot);
        let gone = enqueue(&tx, unsubscribe());
        run_probe();
        let report = run(state, &tx, rx);

        assert_eq!(reply(first), ack(1, 2));
        assert_eq!(reply(second), ack(1, 2));
        let BusReply::Snapshot { rules, .. } = reply(snapshot) else {
            panic!("expected a snapshot");
        };
        assert_eq!(rules.len(), 4);
        assert!(!rules.contains(&rule), "{rules:?}");
        assert_eq!(reply(again), ack(2, 1));
        let BusReply::Snapshot { generation, rules } = reply(between) else {
            panic!("expected a snapshot");
        };
        assert_eq!((generation, rules.len()), (2, 5));
        assert!(rules.contains(&rule), "{rules:?}");
        assert_eq!(reply(gone), ack(3, 1));
        assert!(report.zero_loss());
        assert_eq!(report.active_rules.len(), 4);

        // Every probe packet, both times, forwards like a cold compile
        // of the four initial rules — and the probe can tell: with `R`
        // installed at least one packet would have gone elsewhere.
        let compile = |rules: &[Rule]| {
            camus_core::Compiler::new(cfg.spec.clone(), cfg.options.clone())
                .expect("compiler")
                .compile(rules)
                .expect("compile")
                .pipeline
        };
        let mut without = compile(&initial);
        let mut with = compile(&cfg.pool[..5]);
        let mut told_apart = false;
        let decisions = report.engine.decisions.chunks(probe.len());
        assert_eq!(decisions.len(), 2);
        for pass in decisions {
            for ((bytes, now_us), got) in probe.iter().zip(pass) {
                let want = without.process(bytes, *now_us).expect("probe parses");
                assert_eq!(got.ports, want.ports);
                told_apart |=
                    with.process(bytes, *now_us).expect("probe parses").ports != want.ports;
            }
        }
        assert!(told_apart, "the probe never matched the rule under test");
    }

    /// Validation inside one coalesced window reads the session's count
    /// index plus the window's own changes: a second subscribe of a
    /// rule, an unsubscribe of a rule that is not active and a second
    /// unsubscribe of a rule installed once are rejected; the rest ride
    /// the epoch.
    #[test]
    fn a_coalesced_window_rejects_double_subscribes_and_inactive_unsubscribes() {
        let cfg = DaemonConfig::itch(4, 16).unwrap();
        let state = control_state(&cfg);
        let (tx, rx) = mpsc::channel();
        let rules = |i: usize| vec![cfg.pool[i].to_string()];
        let subscribed = enqueue(&tx, BusRequest::Subscribe { rules: rules(4) });
        let again = enqueue(&tx, BusRequest::Subscribe { rules: rules(4) });
        let inactive = enqueue(&tx, BusRequest::Unsubscribe { rules: rules(5) });
        let leaving = enqueue(&tx, BusRequest::Unsubscribe { rules: rules(0) });
        let left = enqueue(&tx, BusRequest::Unsubscribe { rules: rules(0) });
        let snapshot = enqueue(&tx, BusRequest::Snapshot);
        let report = run(state, &tx, rx);

        assert_eq!(reply(subscribed), ack(1, 2));
        for rejected in [again, inactive, left] {
            let reply = reply(rejected);
            assert!(
                matches!(
                    &reply,
                    BusReply::Rejected {
                        kind: RejectKind::Compile,
                        ..
                    }
                ),
                "{reply:?}"
            );
        }
        assert_eq!(reply(leaving), ack(1, 2));
        let mut rules: Vec<String> = cfg.pool[1..5].iter().map(|r| r.to_string()).collect();
        rules.sort();
        assert_eq!(
            reply(snapshot),
            BusReply::Snapshot {
                generation: 1,
                rules
            }
        );
        assert!(report.zero_loss());
    }

    /// A pool subscribe and a capacity bomb ride one window: the engine
    /// rejects the batch, the session takes the whole delta back out,
    /// and the serial fallback lands the good request and rejects only
    /// the bomb. What happens next, over the wire, is `tests/daemon.rs`.
    #[test]
    fn a_bomb_in_the_batch_rejects_alone_and_the_session_rolls_back() {
        let mut cfg = DaemonConfig::itch(4, 16).unwrap();
        // Almost no TCAM: a handful of range rules fit, 200 do not.
        cfg.engine.admission = Some(AsicModel {
            tcam_entries_per_stage: 48,
            ..AsicModel::tofino32()
        });
        let state = control_state(&cfg);
        let (tx, rx) = mpsc::channel();

        let rules = vec![cfg.pool[4].to_string()];
        let first = enqueue(&tx, BusRequest::Subscribe { rules });
        let bomb = (0..200).map(|i| format!("stock == SYM{i:03} and price > {i} : fwd(1)"));
        let rules = bomb.collect();
        let queued = enqueue(&tx, BusRequest::Subscribe { rules });
        let snapshot = enqueue(&tx, BusRequest::Snapshot);
        let rules = vec![cfg.pool[0].to_string()];
        let unsubscribed = enqueue(&tx, BusRequest::Unsubscribe { rules });
        let report = run(state, &tx, rx);

        assert_eq!(reply(first), ack(1, 1));
        let rejected = reply(queued);
        let kind = RejectKind::Admission;
        assert!(
            matches!(&rejected, BusReply::Rejected { kind: k, .. } if *k == kind),
            "{rejected:?}"
        );
        let mut rules: Vec<String> = cfg.pool[..5].iter().map(|r| r.to_string()).collect();
        rules.sort();
        let generation = 1;
        assert_eq!(reply(snapshot), BusReply::Snapshot { generation, rules });
        assert_eq!(reply(unsubscribed), ack(2, 1));
        // The batch, then the bomb on its own.
        assert_eq!(report.engine.faults.updates_rejected, 2);
    }
}
