//! Differential testing of the hot-symbol decision cache under live
//! churn: random update sequences driven through
//! [`IncrementalCompiler::update`] and consumed by the running engine
//! (cache **on**, the paper's Ethernet/IPv4/UDP/MoldUDP64 feed), with
//! forwarding after every step — and after the whole sequence, with the
//! cache hot — judged by `camus::workload::EpochOracle`: bit-for-bit a
//! fresh full `Compiler::compile` of the cumulative rule set on the
//! sequential, uncached path, and the naive AST interpreter. A stale
//! cached decision surviving a generation bump, or a hit replaying the
//! wrong ports, shows up as a decision mismatch.
//!
//! The rule sets are symbol-only fan-outs (`stock == S : fwd(p)`) —
//! the shape the cache is *provably sound* for (the engine statically
//! refuses to cache programs whose decisions depend on more than the
//! key field; see `Pipeline::cacheable_on`).

use camus::compiler::{Compiler, CompilerOptions, IncrementalCompiler};
use camus::engine::{shard, Engine, EngineConfig};
use camus::itch::itch::{AddOrder, ItchMessage, Side};
use camus::itch::{build_feed_packet, FeedConfig};
use camus::lang::{parse_program, parse_spec, Rule};
use camus::workload::itch_subs::stock_symbol;
use camus::workload::EpochOracle;

/// `stock == SYM(i) : fwd(port)` as a parsed rule.
fn symbol_rule(i: usize, port: u16) -> Rule {
    let src = format!("stock == {} : fwd({port})\n", stock_symbol(i));
    parse_program(&src).expect("rule parses").remove(0)
}

/// A deterministic eval trace: add-orders cycling through `symbols`
/// distinct tickers (more than any rule set subscribes to, so misses
/// are exercised), with an occasional no-add-order packet thrown in.
fn eval_trace(packets: usize, symbols: usize) -> Vec<Vec<u8>> {
    let cfg = FeedConfig::default();
    (0..packets)
        .map(|k| {
            let msgs = if k % 17 == 9 {
                vec![ItchMessage::OrderDelete {
                    order_ref: k as u64,
                }]
            } else {
                vec![ItchMessage::AddOrder(AddOrder::new(
                    &stock_symbol(k % symbols),
                    if k % 2 == 0 { Side::Buy } else { Side::Sell },
                    10 + (k as u32 % 90),
                    100 + (k as u64 % 400) as u32,
                ))]
            };
            build_feed_packet(&cfg, k as u64, &msgs)
        })
        .collect()
}

/// Runs one churn sequence with the cache enabled at `workers` workers
/// and judges every recorded decision at its submission generation.
fn run_cached_churn(seed: u64, workers: usize, removes_per_step: usize) {
    let spec = parse_spec(camus::lang::spec::ITCH_SPEC).expect("spec parses");
    let opts = CompilerOptions::default();

    // Alphabet pool: 24 symbol-only rules over 12 tickers, ports
    // seeded so different sequences wire different fan-outs.
    let pool: Vec<Rule> = (0..24)
        .map(|i| symbol_rule(i % 12, ((i as u64 * 7 + seed) % 32 + 1) as u16))
        .collect();
    let initial: Vec<Rule> = pool[..8].to_vec();

    let mut session =
        IncrementalCompiler::new(spec.clone(), &opts, &pool).expect("alphabet resolves");
    let install = session.install(&initial).expect("initial install");
    let full_compiler = Compiler::new(spec.clone(), opts).expect("spec compiles");
    let mut oracle = EpochOracle::new(&spec, |r| full_compiler.compile(r).unwrap().pipeline);
    oracle.publish(&initial);

    let cfg = EngineConfig {
        workers,
        batch_packets: 16,
        record_decisions: true,
        decision_cache: Some("add_order.stock".into()),
        ..Default::default()
    };
    let mut engine = Engine::start(&install.pipeline, &cfg, shard::itch_symbol_shard());
    let trace = eval_trace(120, 30);
    let pass = |engine: &mut Engine, oracle: &mut EpochOracle| {
        for p in &trace {
            oracle.submit(p, 0);
            engine.submit(p, 0);
        }
    };
    let mut active = initial;

    // Four churn steps: forward a pass under each generation, then
    // publish the next one. Quiescing first makes the generation each
    // packet ran under exact, so the oracle is too.
    for step in 0..4usize {
        pass(&mut engine, &mut oracle);
        engine.quiesce().expect("quiesce");

        let add: Vec<Rule> = (0..2)
            .map(|j| pool[(8 + step * 2 + j) % pool.len()].clone())
            .collect();
        let remove: Vec<Rule> = active[..removes_per_step.min(active.len())].to_vec();
        let report = session.update(&add, &remove).expect("update compiles");
        for r in &remove {
            let pos = active
                .iter()
                .position(|a| a == r)
                .expect("removed rule active");
            active.remove(pos);
        }
        active.extend(add);
        engine.apply_update(&report).expect("engine adopts update");
        oracle.publish(&active);
    }

    // Post-churn: two passes under the final generation — the second
    // runs almost entirely out of the cache.
    pass(&mut engine, &mut oracle);
    pass(&mut engine, &mut oracle);

    let report = engine.finish();
    assert!(report.error.is_none(), "seed {seed}: {:?}", report.error);
    assert!(report.quarantined.is_empty(), "seed {seed}");
    let decisions = report.decisions_in_submit_order();
    assert_eq!(oracle.check(&decisions), 0, "seed {seed} w{workers}");
    let forwarded = decisions.iter().flatten().filter(|d| !d.dropped()).count();
    assert!(forwarded > 0, "seed {seed}: the trace never hit a rule");
    // The cache must have been genuinely live: the program is
    // cacheable, so every add-order message is a hit or a miss.
    assert!(
        report.hotpath.cache_hits > 0,
        "seed {seed} w{workers}: cache never hit — was it armed? {:?}",
        report.hotpath
    );
}

/// The compiled shape these tests rely on really is cacheable: the
/// spec-level `@query_*` declarations compile to state bindings even
/// for pure fan-out rule sets, and `cacheable_on` must see through
/// that (a binding no table keys on is decision-inert).
#[test]
fn symbol_only_program_is_cacheable_on_stock() {
    let spec = parse_spec(camus::lang::spec::ITCH_SPEC).expect("spec parses");
    let compiler = Compiler::new(spec, CompilerOptions::raw()).expect("spec compiles");
    let rules: Vec<Rule> = (0..8)
        .map(|i| symbol_rule(i, (i % 32 + 1) as u16))
        .collect();
    let p = compiler.compile(&rules).expect("compiles").pipeline;
    let stock = p.layout.get("add_order.stock").expect("stock field exists");
    assert!(!p.state_bindings.is_empty(), "spec declares query bindings");
    assert!(p.cacheable_on(stock));
}

#[test]
fn fifty_cached_churn_sequences_match_full_recompile() {
    // ≥ 50 sequences; worker counts and removal pressure both cycle so
    // single-worker, sharded and oversubscribed (8 workers on fewer
    // cores) engines all appear.
    for seed in 0..50u64 {
        let workers = [1usize, 2, 8][(seed % 3) as usize];
        run_cached_churn(seed, workers, (seed % 3) as usize);
    }
}

#[test]
fn post_churn_cache_identical_at_each_worker_count() {
    // The acceptance criterion spelled out: same sequence, explicitly
    // at 1, 2 and 8 workers.
    for workers in [1usize, 2, 8] {
        run_cached_churn(0xCAFE, workers, 1);
    }
}
