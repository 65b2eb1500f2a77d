//! In-process daemon smoke tests: the full service loop — bus RPCs,
//! coalescing acks, typed rejections, `/metrics`, clean shutdown —
//! against a real engine over real sockets. The heavier concurrent
//! oracle test lives at the workspace level (`tests/bus_concurrent.rs`).

use std::io::{Read, Write};

use camus_bus::{BusClient, BusReply, BusRequest, RejectKind};
use camus_pipeline::AsicModel;
use camusd::{Daemon, DaemonConfig};

fn start_daemon(mut cfg: DaemonConfig) -> Daemon {
    cfg.metrics = Some("127.0.0.1:0".into());
    Daemon::start(cfg).expect("daemon starts")
}

#[test]
fn rpc_surface_end_to_end() {
    let cfg = DaemonConfig::itch(8, 32).unwrap();
    let daemon = start_daemon(cfg);
    let addr = daemon.bus_addrs()[0].clone();
    let mut client = BusClient::connect(&addr).expect("connect");

    client.ping().expect("ping");

    // Snapshot shows the initial install.
    let (gen0, rules0) = client.snapshot().expect("snapshot");
    assert_eq!(gen0, 0, "no epochs before the first mutation");
    assert_eq!(rules0.len(), 8);

    // Subscribe a brand-new rule (out of pool → full-rebuild path).
    let rule = "stock == GOOGL and price > 500 : fwd(7)";
    let reply = client
        .request(&BusRequest::Subscribe {
            rules: vec![rule.into()],
        })
        .expect("subscribe rpc");
    let BusReply::Ack {
        generation,
        coalesced_with,
    } = reply
    else {
        panic!("expected ack, got {reply:?}");
    };
    assert_eq!(generation, 1);
    assert_eq!(coalesced_with, 1);

    // It shows up in the snapshot, printed form.
    let (gen1, rules1) = client.snapshot().expect("snapshot 2");
    assert_eq!(gen1, 1);
    assert_eq!(rules1.len(), 9);
    assert!(
        rules1
            .iter()
            .any(|r| r.contains("GOOGL") && r.contains("fwd(7)")),
        "new rule missing from snapshot: {rules1:?}"
    );

    // Double-subscribe is a typed rejection; pipeline untouched.
    let reply = client
        .request(&BusRequest::Subscribe {
            rules: vec![rule.into()],
        })
        .expect("dup subscribe rpc");
    assert!(
        matches!(
            &reply,
            BusReply::Rejected {
                kind: RejectKind::Compile,
                ..
            }
        ),
        "expected compile rejection, got {reply:?}"
    );

    // Parse failures are typed too.
    let reply = client
        .request(&BusRequest::Subscribe {
            rules: vec!["this is not a rule".into()],
        })
        .expect("bad subscribe rpc");
    assert!(matches!(
        reply,
        BusReply::Rejected {
            kind: RejectKind::Parse,
            ..
        }
    ));

    // Unsubscribe brings it back down.
    let reply = client
        .request(&BusRequest::Unsubscribe {
            rules: vec![rule.into()],
        })
        .expect("unsubscribe rpc");
    assert!(matches!(reply, BusReply::Ack { generation: 2, .. }));
    let (_, rules2) = client.snapshot().expect("snapshot 3");
    assert_eq!(rules2.len(), 8);

    // Unsubscribing a rule that is not installed is a typed rejection.
    let reply = client
        .request(&BusRequest::Unsubscribe {
            rules: vec![rule.into()],
        })
        .expect("missing unsubscribe rpc");
    assert!(matches!(
        reply,
        BusReply::Rejected {
            kind: RejectKind::Compile,
            ..
        }
    ));

    // Stats reconcile with what we did: 2 epochs, 2 mutations applied,
    // 2 rejected mutations (dup + parse) + 1 (missing unsub).
    let stats = client.stats().expect("stats");
    assert_eq!(stats.generation, 2);
    assert_eq!(stats.active_rules, 8);
    assert_eq!(stats.epochs, 2);
    assert_eq!(stats.mutations_applied, 2);
    assert_eq!(stats.mutations_rejected, 3);
    assert!(stats.apply_count >= 2, "apply spans recorded");

    // /metrics serves the shared families plus the camusd_* ones.
    let metrics = scrape(daemon.metrics_addr().expect("metrics addr"));
    for family in [
        "camus_packets_total",
        "camus_span_count_total{span=\"apply_update\"} 2",
        "camusd_bus_rpcs_total",
        "camusd_mutations_applied_total",
        "camusd_active_subscriptions 8",
        "camusd_generation 2",
    ] {
        assert!(metrics.contains(family), "missing {family} in:\n{metrics}");
    }

    // Shutdown RPC → clean quiesced exit, zero-loss ledger.
    let reply = client.request(&BusRequest::Shutdown).expect("shutdown rpc");
    assert_eq!(reply, BusReply::ShuttingDown);
    let report = daemon.join();
    assert!(report.clean_quiesce);
    assert!(report.zero_loss());
    assert_eq!(report.active_rules.len(), 8);
    assert_eq!(report.bus.epochs, 2);
}

/// The standard setup under a model with almost no TCAM: the initial 4
/// rules fit, [`bomb`] does not.
fn tight_tcam_config() -> DaemonConfig {
    let mut cfg = DaemonConfig::itch(4, 16).unwrap();
    cfg.engine.admission = Some(AsicModel {
        sram_entries_per_stage: 4096,
        tcam_entries_per_stage: 48,
        ..AsicModel::tofino32()
    });
    cfg
}

/// A pile of range rules, every constant new to the session.
fn bomb() -> Vec<String> {
    (0..200)
        .map(|i| format!("stock == SYM{i:03} and price > {} : fwd(1)", 10 + i))
        .collect()
}

#[test]
fn admission_rejection_is_typed_and_leaves_the_pipeline_running() {
    let daemon = Daemon::start(tight_tcam_config()).expect("daemon starts");
    let mut client = BusClient::connect(&daemon.bus_addrs()[0]).expect("connect");

    let reply = client
        .request(&BusRequest::Subscribe { rules: bomb() })
        .expect("bomb rpc");
    let BusReply::Rejected { kind, message } = reply else {
        panic!("expected admission rejection, got {reply:?}");
    };
    assert_eq!(kind, RejectKind::Admission, "message: {message}");

    // The daemon still serves: generation unchanged, small adds work.
    let (generation, rules) = client.snapshot().expect("snapshot");
    assert_eq!(generation, 0);
    assert_eq!(rules.len(), 4);
    let reply = client
        .request(&BusRequest::Subscribe {
            rules: vec!["stock == ZZZZ : fwd(2)".into()],
        })
        .expect("small subscribe");
    assert!(
        matches!(reply, BusReply::Ack { generation: 1, .. }),
        "small add after rejection should still work, got {reply:?}"
    );

    let report = daemon.join();
    assert!(report.zero_loss());
    assert_eq!(report.engine.faults.updates_rejected, 1);
}

/// A rejected update is rolled back inside the compiler session by
/// its inverse delta — here across an out-of-alphabet rebuild, which
/// renumbers every pipeline state. Updates after it must still forward
/// correctly — adds and removals alike — which the probe checks against
/// a cold compile of the surviving rules, and must stay deltas: the
/// rejection costs no full swap.
#[test]
fn updates_after_a_rejection_forward_like_a_fresh_compile() {
    let mut cfg = tight_tcam_config();
    cfg.engine.record_decisions = true;
    let (spec, options, pool) = (cfg.spec.clone(), cfg.options.clone(), cfg.pool.clone());
    let daemon = Daemon::start(cfg).expect("daemon starts");
    let mut client = BusClient::connect(&daemon.bus_addrs()[0]).expect("connect");
    let mut mutate = |subscribe: bool, rules: Vec<String>| {
        let req = if subscribe {
            BusRequest::Subscribe { rules }
        } else {
            BusRequest::Unsubscribe { rules }
        };
        client.request(&req).expect("rpc")
    };

    // Two delta adds: the engine's tables now carry the numbering of
    // a session that has lived through deltas.
    for rule in &pool[4..6] {
        let reply = mutate(true, vec![rule.to_string()]);
        assert!(matches!(reply, BusReply::Ack { .. }), "{reply:?}");
    }
    let reply = mutate(true, bomb());
    assert!(matches!(reply, BusReply::Rejected { .. }), "{reply:?}");
    // One add and one removal on the rolled-back session.
    let reply = mutate(true, vec![pool[6].to_string()]);
    assert!(
        matches!(reply, BusReply::Ack { generation: 3, .. }),
        "{reply:?}"
    );
    let reply = mutate(false, vec![pool[4].to_string()]);
    assert!(
        matches!(reply, BusReply::Ack { generation: 4, .. }),
        "{reply:?}"
    );

    let probe: Vec<(Vec<u8>, u64)> = camus_workload::bench_feed(2_000)
        .iter()
        .enumerate()
        .map(|(i, p)| (p.bytes.clone(), 25 * (i as u64 + 1)))
        .collect();
    daemon.inject(probe.clone()).expect("inject probe");
    let report = daemon.join();
    assert!(report.zero_loss());
    assert_eq!(report.engine.updates.full_swaps, 0);
    assert_eq!(report.engine.updates.delta_updates, 4);

    let mut surviving = pool[..4].to_vec();
    surviving.extend_from_slice(&pool[5..7]);
    let mut fresh = camus_core::Compiler::new(spec, options)
        .expect("compiler")
        .compile(&surviving)
        .expect("fresh compile")
        .pipeline;
    let mut matched = 0usize;
    for (i, ((bytes, now_us), got)) in probe.iter().zip(&report.engine.decisions).enumerate() {
        let want = fresh.process(bytes, *now_us).expect("probe parses");
        matched += usize::from(!want.ports.is_empty());
        assert_eq!(got, &want, "probe packet {i}");
    }
    assert!(matched > 0, "the probe never hit a rule");
}

/// Minimal HTTP GET, std-only.
fn scrape(addr: &str) -> String {
    let mut conn = std::net::TcpStream::connect(addr).expect("connect metrics");
    conn.write_all(b"GET /metrics HTTP/1.1\r\nHost: camusd\r\nConnection: close\r\n\r\n")
        .expect("send request");
    let mut out = String::new();
    conn.read_to_string(&mut out).expect("read response");
    assert!(out.starts_with("HTTP/1.1 200"), "bad response: {out}");
    out
}
