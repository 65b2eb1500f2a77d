//! Bench behind the §4 line-rate claim: per-packet cost of the
//! compiled data plane (parse → per-field tables → leaf →
//! replication). On hardware this path runs at line rate by
//! construction; here it quantifies the simulator's message-processing
//! throughput, which bounds how large the Figure 7 traces can be.

use camus_bench::harness::Bench;
use camus_core::{Compiler, CompilerOptions};
use camus_lang::{parse_program, parse_spec};
use camus_workload::{synthesize_feed, TraceConfig};

fn main() {
    let bench = Bench::from_env();
    let spec = parse_spec(camus_lang::spec::ITCH_SPEC).unwrap();
    let compiler = Compiler::new(spec, CompilerOptions::default()).unwrap();

    // 200 symbols spread over 32 ports — the line-rate experiment's
    // table shape.
    let src: String = (0..200)
        .map(|i| {
            format!(
                "stock == {} : fwd({})\n",
                camus_workload::itch_subs::stock_symbol(i),
                i % 32 + 1
            )
        })
        .collect();
    let rules = parse_program(&src).unwrap();
    let prog = compiler.compile(&rules).unwrap();
    let mut pipeline = prog.pipeline;

    let trace = synthesize_feed(&TraceConfig {
        target_fraction: 0.0,
        add_order_fraction: 1.0,
        burst_multiplier: 1.0,
        ..TraceConfig::synthetic(1_000)
    });
    let packets: Vec<&[u8]> = trace.iter().map(|p| p.bytes.as_slice()).collect();
    let n = packets.len() as u64;

    bench
        .run("linerate/pipeline_process_1k_packets", n, || {
            let mut forwarded = 0usize;
            for p in &packets {
                forwarded += pipeline.process(p, 0).unwrap().ports.len();
            }
            forwarded
        })
        .report();

    // Batched path: same packets through the scratch-reusing API the
    // engine's workers run.
    let mut ctx = pipeline.new_shard_ctx();
    let mut out = camus_pipeline::DecisionBuf::default();
    bench
        .run("linerate/pipeline_process_batch_1k_packets", n, || {
            out.clear();
            pipeline
                .process_batch_shared(&mut ctx, packets.iter().map(|p| (*p, 0u64)), &mut out)
                .unwrap();
            out.len()
        })
        .report();

    // Parser alone (header extraction is the hardware-critical path).
    let layout = pipeline.layout.clone();
    let parser = pipeline.parser.clone();
    bench
        .run("linerate/parser_only_1k_packets", n, || {
            let mut msgs = 0usize;
            for p in &packets {
                msgs += parser.parse(&layout, p).unwrap().len();
            }
            msgs
        })
        .report();
}
