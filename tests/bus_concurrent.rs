//! The service-shell proof-by-test: N concurrent bus clients issue
//! interleaved `Subscribe`/`Unsubscribe` RPCs against a live `camusd`
//! while the packet path races them with injected market-data bursts,
//! and at the end:
//!
//! * **the oracle check** — forwarding after the last ack is
//!   bit-identical to a fresh big-switch recompile of the surviving
//!   subscription set and to the naive AST interpreter (a probe trace
//!   submitted after all churn settles must decide exactly like the
//!   fresh pipeline, packet by packet — the RCU contract: packets
//!   submitted after an ack see that ack's generation);
//! * **ack/generation reconciliation** — every accepted mutation was
//!   acked with a published generation, the acked generations are
//!   exactly `1..=final` with no gaps, and each shared (coalesced)
//!   generation's `coalesced_with` equals the number of acks that
//!   rode it;
//! * **the exact ledger** — every injected packet got a decision
//!   (zero loss, clean quiesce), and the daemon's bus counters agree
//!   with the clients' own tallies.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use camus::bus::{BusClient, BusReply, BusRequest};
use camus::compiler::{Compiler, CompilerOptions};
use camus::daemon::{Daemon, DaemonConfig};
use camus::lang::ast::Rule;
use camus::workload::{bench_feed, run_bus_churn, BusChurnConfig, EpochOracle};

const CLIENTS: usize = 6;
const SLICE: usize = 6; // pool rules per client
const INITIAL: usize = 6; // rules installed at startup
/// Odd count: each client's last op re-subscribes its rule 0, so the
/// surviving set is `initial ∪ {slice[0] of every client}` — a known
/// set the oracle can recompile.
const OPS_PER_CLIENT: usize = 13;

#[test]
fn concurrent_churn_matches_fresh_recompile_of_survivors() {
    let mut cfg = DaemonConfig::itch(INITIAL, INITIAL + CLIENTS * SLICE).expect("itch config");
    cfg.engine.record_decisions = true;
    let pool = cfg.pool.clone();
    let daemon = Daemon::start(cfg).expect("daemon starts");
    let addr = daemon.bus_addrs()[0].clone();

    // Clients churn disjoint slices of the pool *after* the initial
    // install, so no request ever conflicts: every rejection below
    // would be a daemon bug.
    let churn_pool: Vec<Rule> = pool[INITIAL..].to_vec();
    let churn = {
        let addr = addr.clone();
        let churn_pool = churn_pool.clone();
        std::thread::spawn(move || {
            run_bus_churn(
                &addr,
                &churn_pool,
                &BusChurnConfig {
                    clients: CLIENTS,
                    ops_per_client: OPS_PER_CLIENT,
                },
            )
        })
    };

    // Race the churn with market-data bursts through the same control
    // thread the RPC epochs run on. Timestamps stay monotonic across
    // every inject so the probe replay is exact.
    let race_feed = bench_feed(2_000);
    let mut clock_us: u64 = 0;
    let mut injected: u64 = 0;
    let mut bursts = race_feed.chunks(100).cycle();
    while !churn.is_finished() {
        let burst: Vec<(Vec<u8>, u64)> = bursts
            .next()
            .expect("chunks of a non-empty feed")
            .iter()
            .map(|p| {
                clock_us += 25;
                (p.bytes.clone(), clock_us)
            })
            .collect();
        injected += burst.len() as u64;
        daemon.inject(burst).expect("inject during churn");
        std::thread::sleep(Duration::from_millis(1));
    }
    let report = churn
        .join()
        .expect("churn thread")
        .expect("churn transport");

    // No contention by construction → no rejections, every op acked.
    assert_eq!(report.rejected, 0, "disjoint slices must never reject");
    assert_eq!(report.ops, (CLIENTS * OPS_PER_CLIENT) as u64);
    assert_eq!(report.accepted, report.ops);

    // Ack/generation reconciliation: acked generations are exactly
    // 1..=final with no gaps, and a generation shared by k acks was
    // stamped `coalesced_with == k` on every one of them.
    let mut by_generation: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
    for client in &report.clients {
        for &(generation, coalesced_with) in &client.acks {
            by_generation
                .entry(generation)
                .or_default()
                .push(coalesced_with);
        }
    }
    let generations: Vec<u64> = by_generation.keys().copied().collect();
    assert_eq!(
        generations,
        (1..=report.max_generation).collect::<Vec<u64>>(),
        "every published generation carries at least one ack, gap-free"
    );
    let mut coalesced_epochs = 0u64;
    for (generation, stamps) in &by_generation {
        for &stamp in stamps {
            assert_eq!(
                stamp as usize,
                stamps.len(),
                "generation {generation}: coalesced_with disagrees with the ack count"
            );
        }
        if stamps.len() > 1 {
            coalesced_epochs += 1;
        }
    }

    // The surviving set is known exactly: the initial install plus
    // each client's slice[0] (the odd final op re-subscribes it).
    let mut surviving: Vec<Rule> = pool[..INITIAL].to_vec();
    for c in 0..CLIENTS {
        surviving.push(churn_pool[c * SLICE].clone());
    }
    let mut expected_printed: Vec<String> = surviving.iter().map(|r| r.to_string()).collect();
    expected_printed.sort();

    let mut client = BusClient::connect(&addr).expect("snapshot client");
    let (snap_generation, snap_rules) = client.snapshot().expect("snapshot");
    assert_eq!(snap_generation, report.max_generation);
    assert_eq!(
        snap_rules, expected_printed,
        "snapshot is the surviving set"
    );

    // The oracle: a fresh big-switch recompile of the surviving set.
    // Port sets are sorted+deduped at compile time, so the committed
    // order (nondeterministic under coalescing) cannot matter.
    let spec = camus::lang::parse_spec(camus::lang::spec::ITCH_SPEC).expect("spec");
    let compiler = Compiler::new(spec.clone(), CompilerOptions::default()).expect("compiler");
    let mut oracle = EpochOracle::new(&spec, |r| compiler.compile(r).unwrap().pipeline);
    oracle.publish(&surviving);

    // Probe: a fresh trace submitted strictly after every ack. The RCU
    // contract pins every probe packet to the final generation.
    let probe: Vec<(Vec<u8>, u64)> = bench_feed(400)
        .iter()
        .map(|p| {
            clock_us += 25;
            oracle.submit(&p.bytes, clock_us);
            (p.bytes.clone(), clock_us)
        })
        .collect();
    daemon.inject(probe.clone()).expect("inject probe");

    let report_d = daemon.join();
    assert!(report_d.clean_quiesce, "SIGTERM-path drain is clean");
    assert!(report_d.zero_loss(), "every submitted packet accounted");
    assert!(report_d.engine.quarantined.is_empty());
    assert_eq!(report_d.submitted, injected + probe.len() as u64);
    assert_eq!(report_d.active_rules, expected_printed);

    // Daemon-side counters agree with the clients' tallies.
    assert_eq!(report_d.bus.mutations_applied, report.accepted);
    assert_eq!(report_d.bus.mutations_rejected, 0);
    assert_eq!(report_d.engine.updates.published, report.max_generation);
    // Every mutation stayed inside the pool's alphabet, so subscribes
    // and unsubscribes alike were deltas: no full rebuild.
    assert_eq!(report_d.bus.rebuilds, 0);
    if coalesced_epochs > 0 {
        assert!(
            report_d.bus.requests_coalesced > 0,
            "coalesced epochs must show in the daemon counter"
        );
    }

    let decisions = report_d.engine.decisions_in_submit_order();
    assert_eq!(decisions.len() as u64, injected + probe.len() as u64);
    let tail = &decisions[injected as usize..];
    assert_eq!(oracle.check(tail), 0);
}

/// Mutations the saturation test issues, alternating subscribe and
/// unsubscribe of one pool rule.
const SATURATED_MUTATIONS: usize = 24;
/// Packets per injected chunk.
const CHUNK: usize = 256;
/// The injector asks for `Stats` after every `QUARTER` packets and
/// stays at most four quarters ahead of the last reply.
const QUARTER: u64 = 64 * CHUNK as u64;
/// Slowest ack allowed under saturation. Measured on a 2-core host:
/// ≤ 25 ms in release and ≤ 0.2 s in a debug build when an ack waits
/// only for the packets queued ahead of it; a control loop that holds
/// the epoch until the queue runs dry acked after 2.3–9.2 s.
const ACK_BOUND: Duration = Duration::from_secs(1);
/// The injector gives up after this long, so a starved daemon fails the
/// test instead of hanging it.
const INJECT_CAP: Duration = Duration::from_secs(10);

/// A saturating injector keeps the control queue non-empty while one
/// client alternates subscribe and unsubscribe. The injector paces
/// itself on `Stats().packets`, so memory stays bounded: it asks after
/// each quarter of its backlog and never runs more than four quarters
/// past the last reply, so a request queues with packets going in
/// behind it and the queue does not run dry while the injector waits. Every ack arrives within `ACK_BOUND`, the acked generations
/// run 1, 2, 3, … with no gap and no coalescing, and the ledger
/// balances.
#[test]
fn acks_do_not_wait_behind_a_saturating_injector() {
    let mut cfg = DaemonConfig::itch(INITIAL, INITIAL + 1).expect("itch config");
    // One worker: the injector needs a core more than the engine does.
    cfg.engine.workers = 1;
    let rule = cfg.pool[INITIAL].to_string();
    let daemon = Daemon::start(cfg).expect("daemon starts");
    let addr = daemon.bus_addrs()[0].clone();
    let feed = bench_feed(16 * CHUNK);
    let (seen, done) = (AtomicU64::new(0), AtomicBool::new(false));
    let (ask, asked) = std::sync::mpsc::channel::<()>();

    let (acks, injected) = std::thread::scope(|s| {
        // Each reply counts every packet queued before its request.
        s.spawn(|| {
            let mut client = BusClient::connect(&addr).expect("poller connects");
            for () in asked {
                let stats = client.stats().expect("stats");
                seen.store(stats.packets, Ordering::Release);
            }
        });
        let injector = s.spawn(|| {
            let (mut injected, mut clock_us) = (0u64, 0u64);
            let until = Instant::now() + INJECT_CAP;
            let mut chunks = feed.chunks(CHUNK).cycle();
            while !done.load(Ordering::Acquire) && Instant::now() < until {
                if injected - seen.load(Ordering::Acquire) >= 4 * QUARTER {
                    std::thread::sleep(Duration::from_micros(100));
                    continue;
                }
                let chunk = chunks.next().expect("chunks of a non-empty feed");
                let packets: Vec<(Vec<u8>, u64)> = chunk
                    .iter()
                    .map(|p| {
                        clock_us += 25;
                        (p.bytes.clone(), clock_us)
                    })
                    .collect();
                injected += packets.len() as u64;
                daemon.inject(packets).expect("inject");
                if injected % QUARTER == 0 {
                    ask.send(()).expect("poller");
                }
            }
            drop(ask);
            injected
        });
        while seen.load(Ordering::Acquire) == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }

        let mut client = BusClient::connect(&addr).expect("mutator connects");
        let mut acks = Vec::new();
        for i in 0..SATURATED_MUTATIONS {
            let rules = vec![rule.clone()];
            let req = if i % 2 == 0 {
                BusRequest::Subscribe { rules }
            } else {
                BusRequest::Unsubscribe { rules }
            };
            let sent = Instant::now();
            let reply = client.request(&req).expect("mutation rpc");
            acks.push((reply, sent.elapsed()));
        }
        done.store(true, Ordering::Release);
        (acks, injector.join().expect("injector"))
    });

    let mut waits: Vec<Duration> = acks.iter().map(|&(_, wait)| wait).collect();
    waits.sort();
    let (p50, max) = (waits[waits.len() / 2], waits[waits.len() - 1]);
    eprintln!("saturated acks: p50 {p50:?}, max {max:?}, {injected} packets injected");
    for (i, (reply, wait)) in acks.iter().enumerate() {
        let generation = i as u64 + 1;
        let want = BusReply::Ack {
            generation,
            coalesced_with: 1,
        };
        assert_eq!(*reply, want, "mutation {i}");
        assert!(*wait <= ACK_BOUND, "mutation {i} waited {wait:?}");
    }
    let report = daemon.join();
    assert!(report.zero_loss(), "every injected packet accounted");
    assert_eq!(report.submitted, injected);
    assert_eq!(report.engine.updates.published, SATURATED_MUTATIONS as u64);
}
