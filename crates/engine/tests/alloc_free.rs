//! Proof that the engine's ring data path — submit → SPSC ring →
//! worker batch → recycle ring — is allocation-free in steady state,
//! with telemetry *and* the decision cache switched on.
//!
//! A counting `#[global_allocator]` wraps the system allocator (it
//! counts allocations from every thread, workers included). Warm-up
//! passes grow each pool to its high-water mark: the batch/seq pools,
//! the workers' decision buffers and PHV scratch, the cache slots'
//! port vectors, and the telemetry histograms (fixed-size arrays).
//! After that, replaying the same trace must perform **zero**
//! allocations end to end.
//!
//! The trace is driven in lockstep — one full batch, then a quiesce —
//! so the number of batches in existence is deterministic and the
//! steady state does not depend on scheduler interleaving.
//!
//! This file holds exactly one `#[test]`: the libtest harness runs
//! tests on separate threads but the allocation counter is global, so
//! a sibling test allocating concurrently would corrupt the
//! measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use camus_engine::{Engine, EngineConfig, ShardFn};
use camus_pipeline::parser::{Extract, ParseState, ParserSpec, StateId, Transition};
use camus_pipeline::register::RegisterFile;
use camus_pipeline::{
    ActionOp, Entry, ExecState, Key, MatchKind, MatchValue, MulticastTable, PhvLayout, Pipeline,
    PortId, Table,
};

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Multi-message pipeline with a two-table chain, stateless so the
/// decision cache is provably sound and actually arms: count byte +
/// one-byte messages; symbols 1..=4 forward, symbol 1 additionally
/// mirrors to port 99.
fn cacheable_pipeline() -> Pipeline {
    let mut layout = PhvLayout::new();
    let count = layout.add("count", 8);
    let sym = layout.add("sym", 8);
    let _ = count;

    let parser = ParserSpec::new(
        vec![
            ParseState {
                name: "hdr".into(),
                extracts: vec![Extract {
                    dst: count,
                    bit_offset: 0,
                    bits: 8,
                }],
                advance_bits: 8,
                advance_bytes_from: None,
                emit: false,
                next: Transition::SelectRemaining { more: StateId(1) },
            },
            ParseState {
                name: "msg".into(),
                extracts: vec![Extract {
                    dst: sym,
                    bit_offset: 0,
                    bits: 8,
                }],
                advance_bits: 8,
                advance_bytes_from: None,
                emit: true,
                next: Transition::SelectRemaining { more: StateId(1) },
            },
        ],
        StateId(0),
    );

    let mut filter = Table::new(
        "filter",
        vec![Key {
            field: sym,
            kind: MatchKind::Exact,
            bits: 8,
        }],
        vec![],
    )
    .unwrap();
    for b in 1u64..=4 {
        filter
            .add_entry(Entry {
                priority: 0,
                matches: vec![MatchValue::Exact(b)],
                ops: vec![ActionOp::Forward(PortId(b as u16))],
            })
            .unwrap();
    }
    let mut mirror = Table::new(
        "mirror",
        vec![Key {
            field: sym,
            kind: MatchKind::Exact,
            bits: 8,
        }],
        vec![],
    )
    .unwrap();
    mirror
        .add_entry(Entry {
            priority: 0,
            matches: vec![MatchValue::Exact(1)],
            ops: vec![ActionOp::Forward(PortId(99))],
        })
        .unwrap();

    Pipeline {
        layout,
        parser,
        tables: vec![filter, mirror],
        mcast: MulticastTable::new(),
        registers: RegisterFile::new(),
        state_bindings: vec![],
        init_fields: vec![],
        exec: ExecState::default(),
    }
}

fn trace(packets: usize) -> Vec<(Vec<u8>, u64)> {
    let mut rng: u64 = 0x9e3779b97f4a7c15;
    let mut step = move || {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        rng >> 33
    };
    let mut out = Vec::with_capacity(packets);
    let mut now_us = 0u64;
    for _ in 0..packets {
        let msgs = 1 + (step() % 3) as usize;
        let mut pkt = vec![msgs as u8];
        for _ in 0..msgs {
            pkt.push((step() % 6) as u8);
        }
        now_us += 57;
        out.push((pkt, now_us));
    }
    out
}

fn first_byte_shard() -> ShardFn {
    Arc::new(|p: &[u8]| u64::from(p.get(1).copied().unwrap_or(0)))
}

/// One lockstep pass: submit a batch worth of packets, then quiesce so
/// every batch is back in a pool before the next flush.
fn pass(engine: &mut Engine, trace: &[(Vec<u8>, u64)], batch: usize) {
    for chunk in trace.chunks(batch) {
        for (p, t) in chunk {
            engine.submit(p, *t);
        }
        engine.quiesce().unwrap();
    }
}

#[test]
fn ring_and_cache_path_makes_zero_steady_state_allocations() {
    let pipeline = cacheable_pipeline();
    let batch = 64usize;
    let cfg = EngineConfig {
        workers: 2,
        batch_packets: batch,
        queue_batches: 4,
        telemetry: true,
        decision_cache: Some("sym".into()),
        ..Default::default()
    };
    let mut engine = Engine::start(&pipeline, &cfg, first_byte_shard());
    let packets = trace(512);

    // Warm-up: grow batch pools, seq pools, worker scratch, cache slot
    // port vectors and telemetry buffers to their high-water marks.
    for _ in 0..3 {
        pass(&mut engine, &packets, batch);
    }

    let before = ALLOC_CALLS.load(Ordering::SeqCst);
    pass(&mut engine, &packets, batch);
    let after = ALLOC_CALLS.load(Ordering::SeqCst);

    assert_eq!(
        after - before,
        0,
        "ring+cache hot path allocated {} time(s) for a {}-packet pass",
        after - before,
        packets.len()
    );

    let report = engine.finish();
    assert!(report.error.is_none(), "{:?}", report.error);
    // The cache was genuinely live during the measurement.
    assert!(report.hotpath.cache_hits > 0, "{:?}", report.hotpath);
    assert_eq!(
        report.hotpath.cache_hits + report.hotpath.cache_misses,
        report.stats.messages
    );
}
