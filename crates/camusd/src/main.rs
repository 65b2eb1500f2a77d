//! `camusd` binary: flag parsing, signal handling, and the exit
//! ledger, wrapped around [`camusd::Daemon`]. See README "Running
//! camusd" for the ops walkthrough.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::time::Duration;

use camus_bus::BusAddr;
use camus_engine::EngineConfig;
use camusd::{Daemon, DaemonConfig};

/// SIGTERM/SIGINT → a flag the main loop polls. Raw `signal(2)` via
/// the same extern-"C" idiom the engine uses for `sched_setaffinity`:
/// the store is async-signal-safe, and the handler does nothing else.
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static STOP: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        STOP.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGTERM, on_signal as *const () as usize);
            signal(SIGINT, on_signal as *const () as usize);
        }
    }
}

#[cfg(not(unix))]
mod sig {
    use std::sync::atomic::AtomicBool;
    pub static STOP: AtomicBool = AtomicBool::new(false);
    pub fn install() {}
}

struct Flags {
    bus: Vec<BusAddr>,
    metrics: Option<String>,
    subs: usize,
    pool: usize,
    workers: usize,
    coalesce: usize,
    feed_packets: usize,
    feed_loop: bool,
    admission: bool,
}

const USAGE: &str = "\
camusd — Camus packet-subscription daemon

USAGE:
    camusd [--bus ADDR]... [--metrics HOST:PORT] [--subs N] [--pool N]
           [--workers N] [--coalesce N] [--feed-packets N] [--feed-loop]
           [--no-admission]

OPTIONS:
    --bus ADDR          bus listener, unix:PATH or tcp:HOST:PORT
                        (repeatable; default unix:/tmp/camusd.sock)
    --metrics H:P       serve Prometheus /metrics here (port 0 = ephemeral)
    --subs N            initial ITCH subscriptions to install [64]
    --pool N            alphabet pool size (>= subs) [2*subs]
    --workers N         engine worker threads [2]
    --coalesce N        max mutation RPCs per apply_update epoch [32]
    --feed-packets N    synthesize and replay N ITCH feed packets [0]
    --feed-loop         replay the feed forever (sustained load)
    --no-admission      disable ASIC admission control
";

fn parse_flags() -> Result<Flags, String> {
    let mut flags = Flags {
        bus: Vec::new(),
        metrics: None,
        subs: 64,
        pool: 0,
        workers: 2,
        coalesce: 32,
        feed_packets: 0,
        feed_loop: false,
        admission: true,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} needs a value\n\n{USAGE}"))
        };
        match arg.as_str() {
            "--bus" => flags.bus.push(BusAddr::parse(&value("--bus")?)?),
            "--metrics" => flags.metrics = Some(value("--metrics")?),
            "--subs" => flags.subs = parse_num(&value("--subs")?)?,
            "--pool" => flags.pool = parse_num(&value("--pool")?)?,
            "--workers" => flags.workers = parse_num(&value("--workers")?)?,
            "--coalesce" => flags.coalesce = parse_num(&value("--coalesce")?)?,
            "--feed-packets" => flags.feed_packets = parse_num(&value("--feed-packets")?)?,
            "--feed-loop" => flags.feed_loop = true,
            "--no-admission" => flags.admission = false,
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}\n\n{USAGE}")),
        }
    }
    if flags.bus.is_empty() {
        flags.bus.push(BusAddr::Unix("/tmp/camusd.sock".into()));
    }
    if flags.pool == 0 {
        flags.pool = flags.subs * 2;
    }
    Ok(flags)
}

fn parse_num(s: &str) -> Result<usize, String> {
    s.parse::<usize>().map_err(|_| format!("not a number: {s}"))
}

fn main() -> ExitCode {
    let flags = match parse_flags() {
        Ok(f) => f,
        Err(e) => {
            eprintln!("camusd: {e}");
            return ExitCode::from(2);
        }
    };

    let mut cfg = match DaemonConfig::itch(flags.subs, flags.pool) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("camusd: {e}");
            return ExitCode::from(2);
        }
    };
    cfg.bus = flags.bus;
    cfg.metrics = flags.metrics;
    cfg.coalesce_max = flags.coalesce;
    cfg.feed_packets = flags.feed_packets;
    cfg.feed_loop = flags.feed_loop;
    cfg.engine = EngineConfig {
        workers: flags.workers,
        admission: if flags.admission {
            cfg.engine.admission.clone()
        } else {
            None
        },
        ..cfg.engine
    };

    sig::install();

    let daemon = match Daemon::start(cfg) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("camusd: {e}");
            return ExitCode::from(2);
        }
    };
    for addr in daemon.bus_addrs() {
        println!("camusd: bus on {addr}");
    }
    if let Some(addr) = daemon.metrics_addr() {
        println!("camusd: metrics on http://{addr}/metrics");
    }
    println!(
        "camusd: serving {} initial subscriptions, pid {}",
        flags.subs,
        std::process::id()
    );

    while !sig::STOP.load(Ordering::SeqCst) && daemon.is_running() {
        std::thread::sleep(Duration::from_millis(50));
    }
    if sig::STOP.load(Ordering::SeqCst) {
        println!("camusd: signal received, quiescing");
    }

    let report = daemon.join();
    let zero_loss = report.zero_loss();
    println!(
        "camusd: quiesced clean={} submitted={} decided={} quarantined={} epochs={} \
         mutations={} rejected={} coalesced={} rpcs={} rules={} zero_loss={}",
        report.clean_quiesce,
        report.submitted,
        report.engine.stats.packets,
        report.engine.quarantined.len(),
        report.engine.updates.published,
        report.bus.mutations_applied,
        report.bus.mutations_rejected,
        report.bus.requests_coalesced,
        report.bus.rpcs,
        report.active_rules.len(),
        zero_loss,
    );
    if zero_loss {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
