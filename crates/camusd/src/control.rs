//! The control thread: owns the engine and the compiler session,
//! pumps the internal feed, and drains bus RPCs — coalescing pending
//! mutations into batched epochs, each the batch's *net* rule delta
//! published by the daemon's one install call, `Engine::apply_update`.
//!
//! The session is the single owner of the rule set (validation,
//! `Snapshot`, `Stats` and `/metrics` read its `active_rules`), and the
//! engine installs the program each report carries, so the two can only
//! disagree inside `try_update` — where an engine rejection is undone
//! by the inverse delta before anything else runs.
//!
//! Ordering contract: each connection sends one request at a time and
//! blocks on its reply, so per-client FIFO holds trivially; across
//! clients the only guarantee is that an `Ack { generation }` means
//! the mutation is visible to every packet submitted after the ack
//! was sent (the engine publishes before the ack, and publish
//! ordering is the RCU generation order).

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

use crate::{BusCounters, DaemonReport, Shared};

/// Messages into the control thread.
pub enum Ctl {
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
    /// Quiesce and exit.
    Shutdown,
}

/// A parsed, validated mutation waiting for its epoch.
struct PendingMutation {
    add: Vec<Rule>,
    remove: Vec<Rule>,
    reply: mpsc::Sender<BusReply>,
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

/// Packets submitted per control-loop tick while feeding. Small
/// enough that a pending RPC waits at most one burst (~10 µs of
/// submit work), large enough to amortize the channel poll.
const FEED_BURST: usize = 256;

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

    /// The control loop. Returns the final report after shutdown.
    pub(crate) fn run(mut self, rx: mpsc::Receiver<Ctl>) -> DaemonReport {
        loop {
            let feeding = self.pump_feed();
            let msg = if feeding {
                match rx.try_recv() {
                    Ok(m) => Some(m),
                    Err(mpsc::TryRecvError::Empty) => None,
                    Err(mpsc::TryRecvError::Disconnected) => break,
                }
            } else {
                match rx.recv_timeout(Duration::from_millis(5)) {
                    Ok(m) => Some(m),
                    Err(mpsc::RecvTimeoutError::Timeout) => None,
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                }
            };
            match msg {
                None => continue,
                Some(Ctl::Shutdown) => break,
                Some(Ctl::Inject { packets }) => {
                    for (bytes, now_us) in &packets {
                        self.engine.submit(bytes, *now_us);
                    }
                    self.publish_ops();
                }
                Some(Ctl::Rpc { req, reply }) => {
                    if self.handle_rpc(req, reply, &rx) {
                        break; // a Shutdown arrived mid-drain
                    }
                    self.publish_ops();
                }
            }
        }
        self.shutdown(&rx)
    }

    /// Submits one feed burst; `true` while the feed has more to give
    /// (so the RPC poll stays non-blocking).
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
        self.publish_ops();
        self.feed_loop || self.feed_pos < self.feed.len()
    }

    /// Handles one RPC; mutations open a coalescing window over the
    /// queue. Returns `true` if a `Shutdown` was drained mid-batch.
    fn handle_rpc(
        &mut self,
        req: BusRequest,
        reply: mpsc::Sender<BusReply>,
        rx: &mpsc::Receiver<Ctl>,
    ) -> bool {
        match req {
            BusRequest::Subscribe { .. } | BusRequest::Unsubscribe { .. } => {
                self.coalesce_and_apply(req, reply, rx)
            }
            _ => self.handle_simple(req, reply),
        }
    }

    /// Opens the coalescing window: the triggering mutation plus up to
    /// `coalesce_max - 1` more already-queued mutations become one
    /// epoch. Non-mutation RPCs drained along the way are answered
    /// inline (their connections have nothing else in flight, so no
    /// ordering is violated). Returns `true` on a drained `Shutdown`.
    fn coalesce_and_apply(
        &mut self,
        first: BusRequest,
        first_reply: mpsc::Sender<BusReply>,
        rx: &mpsc::Receiver<Ctl>,
    ) -> bool {
        // Validation view: installed ∪ pending batch, so intra-batch
        // conflicts (double-subscribe of one rule) reject up front
        // instead of poisoning the whole epoch.
        let mut view = self.rules().to_vec();
        let mut batch: Vec<PendingMutation> = Vec::new();
        let mut shutdown = false;

        if let Some(pm) = self.admit_to_batch(first, first_reply, &mut view) {
            batch.push(pm);
        }
        while !shutdown && !batch.is_empty() && batch.len() < self.coalesce_max {
            match rx.try_recv() {
                Ok(Ctl::Rpc {
                    req: req @ (BusRequest::Subscribe { .. } | BusRequest::Unsubscribe { .. }),
                    reply,
                }) => {
                    if let Some(pm) = self.admit_to_batch(req, reply, &mut view) {
                        batch.push(pm);
                    }
                }
                Ok(Ctl::Rpc { req, reply }) => {
                    // Inline: Ping/Snapshot/Stats answered against the
                    // pre-epoch state; Shutdown ends the drain.
                    if self.handle_simple(req, reply) {
                        shutdown = true;
                    }
                }
                Ok(Ctl::Inject { packets }) => {
                    for (bytes, now_us) in &packets {
                        self.engine.submit(bytes, *now_us);
                    }
                }
                Ok(Ctl::Shutdown) => shutdown = true,
                Err(_) => break,
            }
        }

        if !batch.is_empty() {
            self.apply_epoch(batch);
        }
        shutdown
    }

    /// Answers a non-mutation RPC — the one place, whether it arrived
    /// on its own or was drained mid-batch. Returns `true` for
    /// `Shutdown`.
    fn handle_simple(&mut self, req: BusRequest, reply: mpsc::Sender<BusReply>) -> bool {
        match req {
            BusRequest::Ping => {
                let _ = reply.send(BusReply::Pong);
                false
            }
            BusRequest::Snapshot => {
                let (generation, rules) = (self.engine.generation(), self.printed_rules());
                let _ = reply.send(BusReply::Snapshot { generation, rules });
                false
            }
            BusRequest::Stats => {
                let _ = reply.send(BusReply::Stats(self.stats_frame()));
                false
            }
            BusRequest::Shutdown => {
                let _ = reply.send(BusReply::ShuttingDown);
                true
            }
            // Unreachable: callers route mutations to the batch path.
            BusRequest::Subscribe { .. } | BusRequest::Unsubscribe { .. } => {
                let _ = reply.send(BusReply::Rejected {
                    kind: RejectKind::Internal,
                    message: "mutation routed past the batch path".into(),
                });
                false
            }
        }
    }

    /// Parses and validates one mutation against the batch view. On
    /// failure the request is rejected immediately and `None` is
    /// returned; on success the view advances and the caller gets the
    /// pending entry.
    fn admit_to_batch(
        &mut self,
        req: BusRequest,
        reply: mpsc::Sender<BusReply>,
        view: &mut Vec<Rule>,
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
        if let Some(rule) = parsed.iter().find(|r| view.contains(r) == is_add) {
            let what = if is_add { "already" } else { "not" };
            let message = format!("{what} subscribed: {rule}");
            self.reject(&reply, RejectKind::Compile, &message);
            return None;
        }
        let (mut add, mut remove) = (Vec::new(), Vec::new());
        if is_add {
            view.extend(parsed.iter().cloned());
            add = parsed;
        } else {
            view.retain(|r| !parsed.contains(r));
            remove = parsed;
        }
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

    /// Success bookkeeping for one published epoch: counts it and acks
    /// every request it carried with the shared generation.
    fn ack_epoch(&mut self, batch: Vec<PendingMutation>, generation: u64) {
        self.bus.epochs += 1;
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
            Ok(()) => Ok(self.engine.generation()),
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
            workers: self.shared.ops.lock().map(|o| o.workers).unwrap_or(0),
            packets: self.engine.submitted(),
            epochs: self.bus.epochs,
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

    /// Publishes the metrics view (cheap: one mutex write, off the
    /// packet path).
    fn publish_ops(&self) {
        if let Ok(mut ops) = self.shared.ops.lock() {
            ops.generation = self.engine.generation();
            ops.packets = self.engine.submitted();
            ops.active_rules = self.rules().len() as u64;
            ops.epochs = self.bus.epochs;
            ops.mutations_applied = self.bus.mutations_applied;
            ops.mutations_rejected = self.bus.mutations_rejected;
            ops.requests_coalesced = self.bus.requests_coalesced;
            ops.feed_packets = self.feed_submitted;
            ops.spans = self.engine.control_spans();
        }
    }

    /// Drain-and-exit: refuse queued RPCs, quiesce, report.
    fn shutdown(mut self, rx: &mpsc::Receiver<Ctl>) -> DaemonReport {
        self.publish_ops();
        // Stop the accept loops and the metrics server first so no new
        // work arrives while draining.
        self.shared.running.store(false, Ordering::Release);
        while let Ok(msg) = rx.try_recv() {
            if let Ctl::Rpc { reply, .. } = msg {
                let _ = reply.send(BusReply::ShuttingDown);
            }
        }
        self.bus.rpcs = self.shared.rpcs.load(Ordering::Relaxed);
        let submitted = self.engine.submitted();
        let active_rules = self.printed_rules();
        let (engine, drained) = self.engine.shutdown();
        DaemonReport {
            engine,
            clean_quiesce: drained.is_ok(),
            submitted,
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
    use crate::{DaemonConfig, OpsView};
    use camus_engine::shard;
    use camus_pipeline::AsicModel;
    use std::sync::atomic::{AtomicBool, AtomicU64};
    use std::sync::Mutex;

    /// A control state over `cfg` with its initial pool rules
    /// installed and no feed, for driving the loop body from the test
    /// thread: whatever sits in the control queue when a mutation is
    /// handled is exactly what its coalescing window drains.
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
            ops: Mutex::new(OpsView::default()),
        });
        ControlState::new(engine, session, cfg.coalesce_max, Vec::new(), false, shared)
    }

    /// Handles `req` on this thread and returns its reply.
    fn rpc(state: &mut ControlState, rx: &mpsc::Receiver<Ctl>, req: BusRequest) -> BusReply {
        let (reply, got) = mpsc::channel();
        state.handle_rpc(req, reply, rx);
        got.recv().expect("reply")
    }

    /// Queues `req` behind whatever is handled next; the reply arrives
    /// on the returned channel.
    fn enqueue(tx: &mpsc::Sender<Ctl>, req: BusRequest) -> mpsc::Receiver<BusReply> {
        let (reply, queued) = mpsc::channel();
        tx.send(Ctl::Rpc { req, reply }).expect("control queue");
        queued
    }

    fn ack(generation: u64, coalesced_with: u32) -> BusReply {
        BusReply::Ack {
            generation,
            coalesced_with,
        }
    }

    /// `Subscribe R` then `Unsubscribe R` of a not-yet-active rule,
    /// the second queued before the first is handled, ride one epoch and
    /// cancel out: `R` never forwards, the snapshot agrees, and the
    /// same pair in separate epochs afterwards still leaves `R` silent.
    #[test]
    fn a_coalesced_subscribe_then_unsubscribe_leaves_the_rule_silent() {
        let mut cfg = DaemonConfig::itch(4, 16).unwrap();
        cfg.engine.record_decisions = true;
        let initial = cfg.pool[..4].to_vec();
        let rule = cfg.pool[4].to_string();
        let mut state = control_state(&cfg);
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
        let run_probe = |state: &mut ControlState| {
            for (bytes, now_us) in &probe {
                state.engine.submit(bytes, *now_us);
            }
            state.engine.quiesce().expect("quiesce");
        };

        // The unsubscribe is already queued when the subscribe opens
        // its window: one epoch carries both.
        let queued = enqueue(&tx, unsubscribe());
        assert_eq!(rpc(&mut state, &rx, subscribe()), ack(1, 2));
        assert_eq!(queued.recv().expect("reply"), ack(1, 2));
        let BusReply::Snapshot { rules, .. } = rpc(&mut state, &rx, BusRequest::Snapshot) else {
            panic!("expected a snapshot");
        };
        assert_eq!(rules.len(), 4);
        assert!(!rules.contains(&rule), "{rules:?}");
        run_probe(&mut state);
        // The same pair, one epoch each.
        for (req, generation) in [(subscribe(), 2), (unsubscribe(), 3)] {
            assert_eq!(rpc(&mut state, &rx, req), ack(generation, 1));
        }
        run_probe(&mut state);
        let report = state.shutdown(&rx);
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
        let mut state = control_state(&cfg);
        let (tx, rx) = mpsc::channel();

        let bomb = (0..200).map(|i| format!("stock == SYM{i:03} and price > {i} : fwd(1)"));
        let rules = bomb.collect();
        let queued = enqueue(&tx, BusRequest::Subscribe { rules });
        let rules = vec![cfg.pool[4].to_string()];
        let first = rpc(&mut state, &rx, BusRequest::Subscribe { rules });
        assert_eq!(first, ack(1, 1));
        let rejected = queued.recv().expect("reply");
        let kind = RejectKind::Admission;
        assert!(
            matches!(&rejected, BusReply::Rejected { kind: k, .. } if *k == kind),
            "{rejected:?}"
        );

        let mut rules: Vec<String> = cfg.pool[..5].iter().map(|r| r.to_string()).collect();
        rules.sort();
        let generation = 1;
        let snapshot = rpc(&mut state, &rx, BusRequest::Snapshot);
        assert_eq!(snapshot, BusReply::Snapshot { generation, rules });
        let rules = vec![cfg.pool[0].to_string()];
        let unsubscribed = rpc(&mut state, &rx, BusRequest::Unsubscribe { rules });
        assert_eq!(unsubscribed, ack(2, 1));
        // The batch, then the bomb on its own.
        assert_eq!(state.shutdown(&rx).engine.faults.updates_rejected, 2);
    }
}
