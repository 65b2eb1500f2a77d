//! `camusd` — the Camus service shell.
//!
//! Everything the rest of the workspace ships as a library — the
//! incremental compiler, the RCU update plane, admission control,
//! telemetry — becomes an operable daemon here: a long-running engine
//! host serving typed RPCs on a Unix/TCP control bus
//! ([`camus_bus`]), live Prometheus metrics over HTTP, and a
//! SIGTERM-clean shutdown that drains every in-flight batch through
//! `Engine::quiesce` before reporting an exact packet ledger.
//!
//! The daemon is **library-first**: [`Daemon::start`] runs the whole
//! service in-process so integration tests and benches drive real
//! sockets against a real engine without fork/exec; the `camusd`
//! binary is a thin flag-parsing shell over it.
//!
//! Concurrency model (DESIGN.md §17): one *control thread* owns the
//! engine and the compiler session and runs one loop over one queue.
//! Per-connection handler threads decode frames, the `/metrics` thread
//! asks for its scrape, and [`Daemon::inject`] hands over packet
//! chunks, all over that queue; every message takes effect in queue
//! order, and the (optional) internal ITCH feed gets one burst between
//! messages. `Subscribe`/`Unsubscribe` requests queued back to back are
//! **coalesced**: up to [`DaemonConfig::coalesce_max`] of them compile
//! into a single `apply_update` epoch, and every request in the batch
//! is acked with the shared generation plus how many requests rode it.
//! Any other message closes the batch first, so an epoch never waits
//! behind packets. Rejections (parse, compile, ASIC admission, update
//! plane) are per-request and leave the running pipeline untouched.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod control;
mod metrics;

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

use camus_bus::{BusAddr, BusListener, WireError};
use camus_core::{CompilerOptions, IncrementalCompiler};
use camus_engine::{admit, shard, Engine, EngineConfig, EngineFault, EngineReport};
use camus_lang::{ast::Rule, parse_spec, Spec};
use camus_workload::{bench_feed, generate_itch_subscriptions, ItchSubsConfig};

use control::Ctl;

/// Everything needed to start a daemon. The compiler spec/options and
/// the subscription pool are explicit so tests can run non-ITCH specs;
/// [`DaemonConfig::itch`] builds the standard ITCH setup.
pub struct DaemonConfig {
    /// Protocol spec the compiler session is built over.
    pub spec: Spec,
    /// Compiler options (encap, heuristic, ASIC model).
    pub options: CompilerOptions,
    /// Alphabet pool: the session's value alphabet is resolved from
    /// these rules, so later `Subscribe`s of pool rules take the fast
    /// delta path. Out-of-pool rules still work via full rebuild.
    pub pool: Vec<Rule>,
    /// How many pool rules to install at startup.
    pub initial: usize,
    /// Engine configuration (workers, admission model, telemetry…).
    pub engine: EngineConfig,
    /// Bus listener addresses (at least one).
    pub bus: Vec<BusAddr>,
    /// `host:port` for the HTTP `/metrics` endpoint; `None` disables.
    pub metrics: Option<String>,
    /// Max mutation RPCs coalesced into one `apply_update` epoch.
    pub coalesce_max: usize,
    /// Synthesized ITCH feed packets replayed into the engine so RPCs
    /// race a live packet path; `0` = no internal feed.
    pub feed_packets: usize,
    /// Replay the feed in a loop (sustained load) instead of once.
    pub feed_loop: bool,
}

impl DaemonConfig {
    /// The standard setup: ITCH spec, a generated `stock == S ∧
    /// price > P : fwd(H)` pool of `pool_size` rules with the first
    /// `initial` installed, two workers, one ephemeral TCP bus
    /// listener, no feed.
    pub fn itch(initial: usize, pool_size: usize) -> Result<Self, DaemonError> {
        let spec = parse_spec(camus_lang::spec::ITCH_SPEC)
            .map_err(|e| DaemonError::Spec(e.to_string()))?;
        let pool = generate_itch_subscriptions(&ItchSubsConfig {
            subscriptions: pool_size.max(initial),
            ..Default::default()
        });
        Ok(DaemonConfig {
            spec,
            options: CompilerOptions::default(),
            pool,
            initial,
            engine: EngineConfig {
                workers: 2,
                ..Default::default()
            },
            bus: vec![BusAddr::Tcp("127.0.0.1:0".into())],
            metrics: None,
            coalesce_max: 32,
            feed_packets: 0,
            feed_loop: false,
        })
    }
}

/// Why the daemon failed to start.
#[derive(Debug)]
pub enum DaemonError {
    /// The spec failed to parse.
    Spec(String),
    /// The initial pool/install failed to compile.
    Compile(String),
    /// The initial program does not fit the engine's admission model.
    Admission(EngineFault),
    /// A bus or metrics listener failed to bind.
    Bind(String),
    /// No bus listener address was configured.
    NoBusAddr,
}

impl fmt::Display for DaemonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DaemonError::Spec(e) => write!(f, "spec error: {e}"),
            DaemonError::Compile(e) => write!(f, "initial compile failed: {e}"),
            DaemonError::Admission(e) => write!(f, "initial program refused: {e}"),
            DaemonError::Bind(e) => write!(f, "listener bind failed: {e}"),
            DaemonError::NoBusAddr => write!(f, "no bus listener address configured"),
        }
    }
}

impl std::error::Error for DaemonError {}

/// What the service threads share: the running flag, the start time,
/// and the two counters the connection handlers keep (the control
/// thread reads them into `Stats`).
pub(crate) struct Shared {
    pub running: AtomicBool,
    pub clients: AtomicU64,
    pub rpcs: AtomicU64,
    pub started: Instant,
}

/// Bus-side counters carried into the final report.
#[derive(Debug, Clone, Copy, Default)]
pub struct BusCounters {
    /// Total RPCs served.
    pub rpcs: u64,
    /// Those epochs whose compiler report was a `full_rebuild` (an
    /// add outside the session's alphabet) rather than a delta.
    pub rebuilds: u64,
    /// Rules applied by accepted mutations.
    pub mutations_applied: u64,
    /// Mutation RPCs rejected.
    pub mutations_rejected: u64,
    /// Mutation RPCs that shared an epoch with at least one other.
    pub requests_coalesced: u64,
}

/// What `join` returns after shutdown.
#[derive(Debug)]
pub struct DaemonReport {
    /// The engine's final report (exact ledger, decisions, telemetry).
    pub engine: EngineReport,
    /// Whether the final quiesce drained cleanly.
    pub clean_quiesce: bool,
    /// Packets submitted over the daemon's lifetime (the engine
    /// report's `submitted`).
    pub submitted: u64,
    /// The installed rule set at shutdown, printed form, sorted.
    pub active_rules: Vec<String>,
    /// Bus-side counters.
    pub bus: BusCounters,
}

impl DaemonReport {
    /// The zero-loss ledger ([`EngineReport::reconciles`]) on a clean
    /// drain with no engine error.
    pub fn zero_loss(&self) -> bool {
        self.clean_quiesce && self.engine.error.is_none() && self.engine.reconciles()
    }
}

/// A running daemon. Dropping the handle does **not** stop the daemon;
/// call [`Daemon::begin_shutdown`] + [`Daemon::join`].
pub struct Daemon {
    ctl_tx: mpsc::Sender<Ctl>,
    bus_addrs: Vec<BusAddr>,
    metrics_addr: Option<String>,
    shared: Arc<Shared>,
    control: Option<std::thread::JoinHandle<DaemonReport>>,
}

impl Daemon {
    /// Compiles the initial rule set, charges it against the engine's
    /// admission model, binds every listener, starts the engine and all
    /// service threads.
    pub fn start(cfg: DaemonConfig) -> Result<Daemon, DaemonError> {
        if cfg.bus.is_empty() {
            return Err(DaemonError::NoBusAddr);
        }

        // Compile the initial program.
        let mut session = IncrementalCompiler::new(cfg.spec, &cfg.options, &cfg.pool)
            .map_err(|e| DaemonError::Compile(e.to_string()))?;
        let initial = &cfg.pool[..cfg.initial.min(cfg.pool.len())];
        let install = session
            .install(initial)
            .map_err(|e| DaemonError::Compile(e.to_string()))?;
        // `Engine::start` trusts its seed (admission guards installs),
        // so the seed is charged here, before anything binds or spawns.
        admit(cfg.engine.admission.as_ref(), &install.pipeline.tables)
            .map_err(DaemonError::Admission)?;

        // Bind all listeners before starting the engine, so a bad
        // address fails fast with nothing to unwind.
        let mut listeners = Vec::new();
        let mut bus_addrs = Vec::new();
        for addr in &cfg.bus {
            let l = BusListener::bind(addr).map_err(|e| DaemonError::Bind(e.to_string()))?;
            let local = l
                .local_addr()
                .map_err(|e| DaemonError::Bind(e.to_string()))?;
            l.set_nonblocking(true)
                .map_err(|e| DaemonError::Bind(e.to_string()))?;
            bus_addrs.push(local);
            listeners.push(l);
        }
        let metrics_listener = match &cfg.metrics {
            Some(hostport) => {
                let l = std::net::TcpListener::bind(hostport.as_str())
                    .map_err(|e| DaemonError::Bind(e.to_string()))?;
                l.set_nonblocking(true)
                    .map_err(|e| DaemonError::Bind(e.to_string()))?;
                Some(l)
            }
            None => None,
        };
        let metrics_addr = match &metrics_listener {
            Some(l) => Some(
                l.local_addr()
                    .map_err(|e| DaemonError::Bind(e.to_string()))?
                    .to_string(),
            ),
            None => None,
        };

        let shared = Arc::new(Shared {
            running: AtomicBool::new(true),
            clients: AtomicU64::new(0),
            rpcs: AtomicU64::new(0),
            started: Instant::now(),
        });

        let engine = Engine::start(&install.pipeline, &cfg.engine, shard::itch_symbol_shard());

        let feed = if cfg.feed_packets > 0 {
            bench_feed(cfg.feed_packets)
                .into_iter()
                .map(|p| p.bytes)
                .collect()
        } else {
            Vec::new()
        };

        let (ctl_tx, ctl_rx) = mpsc::channel();

        // Accept loops: one thread per bus listener, plus metrics.
        for listener in listeners {
            let tx = ctl_tx.clone();
            let sh = Arc::clone(&shared);
            std::thread::spawn(move || control::accept_loop(listener, tx, sh));
        }
        if let Some(l) = metrics_listener {
            let (tx, sh) = (ctl_tx.clone(), Arc::clone(&shared));
            std::thread::spawn(move || metrics::serve(l, tx, sh));
        }

        let ctl = control::ControlState::new(
            engine,
            session,
            cfg.coalesce_max.max(1),
            feed,
            cfg.feed_loop,
            Arc::clone(&shared),
        );
        let control = std::thread::Builder::new()
            .name("camusd-control".into())
            .spawn(move || ctl.run(ctl_rx))
            .map_err(|e| DaemonError::Bind(e.to_string()))?;

        Ok(Daemon {
            ctl_tx,
            bus_addrs,
            metrics_addr,
            shared,
            control: Some(control),
        })
    }

    /// The effective bus addresses (ephemeral ports resolved).
    pub fn bus_addrs(&self) -> &[BusAddr] {
        &self.bus_addrs
    }

    /// The effective `/metrics` address, if enabled.
    pub fn metrics_addr(&self) -> Option<&str> {
        self.metrics_addr.as_deref()
    }

    /// `false` once the control loop has exited.
    pub fn is_running(&self) -> bool {
        self.shared.running.load(Ordering::Acquire)
    }

    /// Asks the control loop to quiesce and exit (idempotent). Returns
    /// immediately; use [`Daemon::join`] to wait for the report.
    pub fn begin_shutdown(&self) {
        let _ = self.ctl_tx.send(Ctl::Shutdown);
    }

    /// Test/bench hook: submit raw packets through the control thread,
    /// racing any concurrent RPCs exactly like the internal feed does.
    /// `(bytes, now_us)` pairs; timestamps should be monotonic.
    pub fn inject(&self, packets: Vec<(Vec<u8>, u64)>) -> Result<(), WireError> {
        self.ctl_tx
            .send(Ctl::Inject { packets })
            .map_err(|_| WireError::Closed)
    }

    /// Waits for shutdown and returns the final report. Implies
    /// [`Daemon::begin_shutdown`]. Panics only if the control thread
    /// itself panicked — engine faults are *reported*, not thrown, so
    /// that indicates a daemon bug, not an operational failure.
    pub fn join(mut self) -> DaemonReport {
        self.begin_shutdown();
        match self.control.take().map(|h| h.join()) {
            Some(Ok(report)) => report,
            _ => panic!("camusd control thread panicked"),
        }
    }
}
