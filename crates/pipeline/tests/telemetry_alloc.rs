//! Proof that telemetry keeps the batch hot path allocation-free.
//!
//! Same counting-`#[global_allocator]` harness as `alloc_free.rs`, but
//! with `ExecState::enable_telemetry` switched on: after warm-up, a
//! steady-state batch with histogram recording active (batch latency
//! plus one stage sample per batch) must still perform **zero**
//! allocations — the telemetry record is one `Box` at enable time and
//! fixed-array arithmetic thereafter.
//!
//! This file holds exactly one `#[test]`: the libtest harness runs
//! tests on separate threads but the allocation counter is global, so a
//! sibling test allocating concurrently would corrupt the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use camus_pipeline::parser::{Extract, ParseState, ParserSpec, StateId, Transition};
use camus_pipeline::register::RegisterFile;
use camus_pipeline::{
    ActionOp, DecisionBuf, Entry, ExecState, Key, MatchKind, MatchValue, MulticastTable, PhvLayout,
    Pipeline, PortId, Table,
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

/// Single-table multi-message pipeline: count byte + one-byte messages,
/// symbols 1..=4 forward (enough to exercise parse, match and the
/// multicast port union every packet).
fn simple_pipeline() -> Pipeline {
    let mut layout = PhvLayout::new();
    let count = layout.add("count", 8);
    let sym = layout.add("sym", 8);

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

    Pipeline {
        layout,
        parser,
        tables: vec![filter],
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

#[test]
fn steady_state_batch_with_telemetry_makes_zero_allocations() {
    let mut pipeline = simple_pipeline();
    let mut ctx = pipeline.new_shard_ctx();
    // All four histograms record on the hot path every batch.
    ctx.exec.enable_telemetry();
    let packets = trace(1_000);
    let mut out = DecisionBuf::default();

    // Warm-up: two passes grow every scratch buffer to steady state.
    for _ in 0..2 {
        out.clear();
        pipeline
            .process_batch_shared(
                &mut ctx,
                packets.iter().map(|(p, t)| (p.as_slice(), *t)),
                &mut out,
            )
            .unwrap();
    }
    let warm_len = out.len();

    let before = ALLOC_CALLS.load(Ordering::SeqCst);
    out.clear();
    pipeline
        .process_batch_shared(
            &mut ctx,
            packets.iter().map(|(p, t)| (p.as_slice(), *t)),
            &mut out,
        )
        .unwrap();
    let after = ALLOC_CALLS.load(Ordering::SeqCst);

    assert_eq!(out.len(), warm_len);
    let t = ctx.exec.telemetry().expect("telemetry enabled");
    assert_eq!(t.batches, 3, "three batches recorded");
    assert_eq!(t.sampled_packets, 3, "one stage sample per batch");
    assert_eq!(t.match_ns.count(), 3);
    assert_eq!(
        after - before,
        0,
        "instrumented hot path allocated {} time(s) for a {}-packet batch",
        after - before,
        packets.len()
    );
}
