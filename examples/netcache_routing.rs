//! Content-identifier routing for in-network caching (§4 "Other
//! applications": "Packet subscriptions would also be a useful
//! abstraction for in-network caching, which routes based on content
//! identifier (e.g., NetCache)").
//!
//! A key-value cluster partitions its key space across storage nodes;
//! hot keys are additionally mirrored to a rack-switch cache port.
//! Every rule matches on the *key* (and nothing else the parser
//! extracts), so the whole program is provably cacheable on `req.key`
//! — which lets the forwarding engine arm its decision cache: repeat
//! GETs for a hot key skip the match chain entirely. Repartitioning
//! and hot-set changes arrive as incremental rule updates, and each
//! install invalidates the cache so no stale decision ever leaks
//! across a generation.
//!
//! ```text
//! cargo run --example netcache_routing
//! ```

use std::sync::Arc;

use camus::compiler::{CompilerOptions, IncrementalCompiler};
use camus::engine::{Engine, EngineConfig};
use camus::lang::{parse_program, parse_spec};

/// GET/PUT request header: 8-bit opcode, 64-bit key id, 32-bit client.
/// The opcode stays in the spec (the parser extracts it for the
/// control plane) but no rule matches on it — a rule keyed on any
/// extracted field other than `req.key` would make decisions depend
/// on more than the key and disarm the cache.
const KV_SPEC: &str = r#"
header_type kv_req_t {
    fields {
        opcode: 8;
        key: 64;
        client: 32;
    }
}
header kv_req_t req;

@query_field_exact(req.opcode)
@query_field(req.key)
"#;

const GET: u8 = 1;

fn packet(opcode: u8, key: u64) -> Vec<u8> {
    let mut b = Vec::with_capacity(13);
    b.push(opcode);
    b.extend_from_slice(&key.to_be_bytes());
    b.extend_from_slice(&0u32.to_be_bytes());
    b
}

fn main() {
    let spec = parse_spec(KV_SPEC).expect("spec parses");

    // The alphabet session: partition boundaries and the hot keys we
    // might ever pin. (Predicates outside this set require a full
    // recompile — the paper's static/dynamic split.)
    let alphabet = parse_program(
        "key < 1000000 : fwd(10)\n\
         key >= 1000000 and key < 2000000 : fwd(11)\n\
         key >= 2000000 : fwd(12)\n\
         key == 42 : fwd(30)\n\
         key == 1500000 : fwd(30)\n\
         key == 2999999 : fwd(30)",
    )
    .expect("alphabet parses");

    let mut session =
        IncrementalCompiler::new(spec, &CompilerOptions::raw(), &alphabet).expect("session ok");

    // Generation 1: the partition map only.
    let r1 = session
        .install(
            &parse_program(
                "key < 1000000 : fwd(10)\n\
                 key >= 1000000 and key < 2000000 : fwd(11)\n\
                 key >= 2000000 : fwd(12)",
            )
            .unwrap(),
        )
        .expect("gen1 installs");
    println!(
        "gen1: {} entries installed (+{} -{} ={} kept)",
        r1.total_entries, r1.entries_added, r1.entries_removed, r1.entries_kept
    );

    // The forwarding engine, with its decision cache keyed on the
    // content identifier. Sharding also hashes the key bytes, so one
    // key always lands on one worker (and one cache).
    let cfg = EngineConfig {
        workers: 1,
        batch_packets: 8,
        record_decisions: true,
        decision_cache: Some("req.key".into()),
        ..EngineConfig::default()
    };
    let shard = Arc::new(|pkt: &[u8]| {
        let mut key = [0u8; 8];
        if pkt.len() >= 9 {
            key.copy_from_slice(&pkt[1..9]);
        }
        u64::from_be_bytes(key)
    });
    let mut engine = Engine::start(&r1.pipeline, &cfg, shard);

    // A skewed GET trace: the classic NetCache shape, most traffic on
    // a few hot keys.
    let hot = [42u64, 1_500_000];
    let trace: Vec<Vec<u8>> = (0..600)
        .map(|i| {
            let key = if i % 4 == 3 {
                2_000_000 + (i as u64 % 50) * 17 // cold tail
            } else {
                hot[i % hot.len()] // hot head
            };
            packet(GET, key)
        })
        .collect();
    for pkt in &trace {
        engine.submit(pkt, 0);
    }
    engine.quiesce().expect("trace drains");

    // Generation 2: telemetry says keys 42 and 1.5M are hot — mirror
    // their GETs to the cache port. An incremental install; the swap
    // also invalidates every worker's decision cache, so the pinned
    // keys re-miss once and then hit with their *new* decision.
    let r2 = session
        .install(&parse_program("key == 42 : fwd(30)\nkey == 1500000 : fwd(30)").unwrap())
        .expect("gen2 installs");
    println!(
        "gen2 (hot keys pinned): +{} -{} entries, {} reused in place",
        r2.entries_added, r2.entries_removed, r2.entries_kept
    );
    for t in &r2.pipeline.tables {
        println!("  {:<18} {} entries", t.name, t.len());
    }
    engine.apply_update(&r2).expect("gen2 swaps in");
    for pkt in &trace {
        engine.submit(pkt, 0);
    }

    let report = engine.finish();
    assert!(report.error.is_none(), "{:?}", report.error);
    let h = &report.hotpath;
    let total = h.cache_hits + h.cache_misses;
    println!("\n== decision cache ==");
    println!(
        "  {} lookups: {} hits, {} misses ({:.1}% hit rate)",
        total,
        h.cache_hits,
        h.cache_misses,
        100.0 * h.cache_hits as f64 / total.max(1) as f64
    );

    println!("\n== routing (second generation) ==");
    let mark = trace.len();
    for (label, idx) in [
        ("GET key 42   (hot, mirrored)", 0),
        ("GET key 1.5M (hot, mirrored)", 1),
        ("GET cold key (partition only)", 3),
    ] {
        let ports: Vec<u16> = report.decisions[mark + idx]
            .ports
            .iter()
            .map(|p| p.0)
            .collect();
        println!("  {label:<30} -> {ports:?}");
    }
}
