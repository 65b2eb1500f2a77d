//! The service-shell proof-by-test: N concurrent bus clients issue
//! interleaved `Subscribe`/`Unsubscribe` RPCs against a live `camusd`
//! while the packet path races them with injected market-data bursts,
//! and at the end:
//!
//! * **the oracle check** — forwarding after the last ack is
//!   bit-identical to a fresh big-switch recompile of the surviving
//!   subscription set (a probe trace submitted after all churn
//!   settles must decide exactly like the fresh pipeline, packet by
//!   packet — the RCU contract: packets submitted after an ack see
//!   that ack's generation);
//! * **ack/generation reconciliation** — every accepted mutation was
//!   acked with a published generation, the acked generations are
//!   exactly `1..=final` with no gaps, and each shared (coalesced)
//!   generation's `coalesced_with` equals the number of acks that
//!   rode it;
//! * **the exact ledger** — every injected packet got a decision
//!   (zero loss, clean quiesce), and the daemon's bus counters agree
//!   with the clients' own tallies.

use std::collections::BTreeMap;
use std::time::Duration;

use camus::compiler::{Compiler, CompilerOptions};
use camus::daemon::{Daemon, DaemonConfig};
use camus::lang::ast::Rule;
use camus::pipeline::ForwardDecision;
use camus::workload::{bench_feed, run_bus_churn, BusChurnConfig};

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

    let mut client = camus::bus::BusClient::connect(&addr).expect("snapshot client");
    let (snap_generation, snap_rules) = client.snapshot().expect("snapshot");
    assert_eq!(snap_generation, report.max_generation);
    assert_eq!(
        snap_rules, expected_printed,
        "snapshot is the surviving set"
    );

    // Probe: a fresh trace submitted strictly after every ack. The RCU
    // contract pins every probe packet to the final generation.
    let probe_feed = bench_feed(400);
    let probe: Vec<(Vec<u8>, u64)> = probe_feed
        .iter()
        .map(|p| {
            clock_us += 25;
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
    assert_eq!(report_d.bus.epochs, report.max_generation);
    assert_eq!(report_d.engine.updates.published, report.max_generation);
    // Every mutation stayed inside the pool's alphabet, so subscribes
    // and unsubscribes alike were spliced: no wholesale pipeline swap.
    assert_eq!(report_d.engine.updates.full_swaps, 0);
    if coalesced_epochs > 0 {
        assert!(
            report_d.bus.requests_coalesced > 0,
            "coalesced epochs must show in the daemon counter"
        );
    }

    // The oracle: a fresh big-switch recompile of the surviving set.
    // Port sets are sorted+deduped at compile time, so the committed
    // order (nondeterministic under coalescing) cannot matter.
    let spec = camus::lang::parse_spec(camus::lang::spec::ITCH_SPEC).expect("spec");
    let compiler = Compiler::new(spec, CompilerOptions::default()).expect("compiler");
    let mut fresh = compiler
        .compile(&surviving)
        .expect("fresh recompile")
        .pipeline;

    let decisions = &report_d.engine.decisions;
    assert_eq!(decisions.len(), (injected + probe.len() as u64) as usize);
    let tail = &decisions[injected as usize..];
    for (i, ((bytes, now_us), got)) in probe.iter().zip(tail).enumerate() {
        let want: ForwardDecision = fresh.process(bytes, *now_us).expect("probe parses");
        assert_eq!(
            got, &want,
            "probe packet {i}: daemon decision diverged from the fresh recompile"
        );
    }
}
