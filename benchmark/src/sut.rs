//! The system under test: every call the benchmark makes into the
//! `camus-*` crates is in this file and nowhere else.
//!
//! ROADMAP item 2 will reshape `Engine`/`Fabric`/`Daemon`; it may not
//! edit this package while it claims a result, so re-pointing the
//! benchmark at the new API must be a change to this one file. The
//! surface used is deliberately small: `Daemon::{start, inject,
//! bus_addrs, join}`, `BusClient`, `Compiler::{new, compile}`,
//! `IncrementalCompiler::{new, install, update}`, `Engine::{start,
//! submit, quiesce, apply_update, finish}`, `Fabric::{start, submit,
//! route, install_master, quiesce, finish}`,
//! `Pipeline::process_batch_shared`, `ParserSpec::parse_into`,
//! `PartitionPlan::{compute, slices, leaf_entries}`, the `camus-lang`
//! parsers and the `camus-workload` generators and oracle.

use std::time::Instant;

use camus_bus::{BusAddr, BusClient, BusReply, BusRequest};
use camus_core::partition::PartitionPlan;
use camus_core::{Compiler, CompilerOptions, IncrementalCompiler};
use camus_engine::{shard, Engine, EngineConfig, EngineReport};
use camus_fabric::{Fabric, FabricConfig};
use camus_itch::{parse_feed_packet, ItchMessage};
use camus_lang::Spec;
use camus_pipeline::{DecisionBuf, ForwardDecision, Phv, PhvBuf, ShardCtx, DEFAULT_CACHE_SHIFT};
use camus_telemetry::{SpanKind, TelemetrySnapshot};
use camus_workload::itch_subs::stock_symbol;
use camus_workload::{
    bench_feed, generate_itch_subscriptions, naive_ports, synthesize_feed, ItchSubsConfig,
    TraceConfig,
};
use camusd::{Daemon, DaemonConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub use camus_core::UpdateReport;
pub use camus_lang::ast::Rule;
pub use camus_pipeline::Pipeline;

/// One wire frame (Ethernet/IPv4/UDP/MoldUDP64/ITCH).
pub type Packet = Vec<u8>;

/// The field every workload shards, caches and partitions on.
const SHARD_FIELD: &str = "add_order.stock";
/// Worker threads per engine. One everywhere: with the submitting
/// thread that is `nproc` (2) busy threads on the reference host.
pub const WORKERS: usize = 1;
/// What the bus sockets are: real TCP, but the host's loopback.
pub const TRANSPORT: &str = "tcp-loopback (no real link)";

fn spec() -> Spec {
    camus_lang::parse_spec(camus_lang::spec::ITCH_SPEC).expect("built-in ITCH spec parses")
}

fn engine_config(cache: bool, telemetry: bool, record: bool) -> EngineConfig {
    EngineConfig {
        workers: WORKERS,
        record_decisions: record,
        telemetry,
        decision_cache: cache.then(|| SHARD_FIELD.to_string()),
        ..Default::default()
    }
}

// ---------------------------------------------------------------- inputs

/// `stock == S ∧ price > P : fwd(H)` draws (the paper's Fig. 5c
/// workload), deduplicated so that any two rules of the result can be
/// subscribed side by side.
pub fn price_rules(seed: u64, count: usize, symbols: usize) -> Vec<Rule> {
    let drawn = generate_itch_subscriptions(&ItchSubsConfig {
        subscriptions: count + count / 8 + 64,
        symbols,
        seed,
        ..Default::default()
    });
    let mut out: Vec<Rule> = Vec::with_capacity(count);
    let mut seen = std::collections::HashSet::new();
    for r in drawn {
        if out.len() < count && seen.insert(r.to_string()) {
            out.push(r);
        }
    }
    assert_eq!(out.len(), count, "generator produced too many duplicates");
    out
}

/// `stock == S : fwd(H)` over every symbol of the universe (a program
/// that is a pure function of the stock field, so the decision cache
/// arms), followed by `extra` more rules on seed-drawn symbols whose
/// ports lie above `ports`, so they differ from every base rule.
pub fn symbol_rules(seed: u64, symbols: usize, ports: u16, extra: usize) -> Vec<Rule> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut text = String::new();
    for i in 0..symbols {
        let port = rng.gen_range(1..=ports);
        text.push_str(&format!("stock == {} : fwd({port})\n", stock_symbol(i)));
    }
    for k in 0..extra {
        let sym = stock_symbol(rng.gen_range(0..symbols));
        let port = ports as usize + 1 + k;
        text.push_str(&format!("stock == {sym} : fwd({port})\n"));
    }
    parse_program(&text).expect("generated symbol rules parse")
}

/// A smooth add-order-only feed of `packets` distinct frames over
/// `symbols` symbols with Zipf exponent `zipf_s` (0 = uniform).
pub fn feed(seed: u64, packets: usize, symbols: usize, zipf_s: f64) -> Vec<Packet> {
    synthesize_feed(&TraceConfig {
        target_fraction: 0.0,
        add_order_fraction: 1.0,
        burst_multiplier: 1.0,
        symbols,
        zipf_s,
        seed,
        ..TraceConfig::synthetic(packets)
    })
    .into_iter()
    .map(|p| p.bytes)
    .collect()
}

/// Seeded Fisher-Yates shuffle (fixes the order mutations arrive in).
pub fn shuffle<T>(seed: u64, items: &mut [T]) {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// The feed `camusd` synthesizes for itself when `feed_packets > 0`
/// (fixed seed inside the program; the benchmark regenerates it only
/// to probe and oracle-check the same bytes).
pub fn daemon_internal_feed(packets: usize) -> Vec<Packet> {
    bench_feed(packets).into_iter().map(|p| p.bytes).collect()
}

/// Source text of a rule set, one rule per line.
pub fn program_text(rules: &[Rule]) -> String {
    rules.iter().map(|r| format!("{r}\n")).collect()
}

// --------------------------------------------------------------- compile

pub fn parse_program(text: &str) -> Result<Vec<Rule>, String> {
    camus_lang::parse_program(text).map_err(|e| e.to_string())
}

pub fn parse_rule(text: &str) -> Result<Rule, String> {
    camus_lang::parse_rule(text).map_err(|e| e.to_string())
}

/// What one cold compile produced.
pub struct Compiled {
    pub pipeline: Pipeline,
    pub stats: CompileNumbers,
}

/// A cold compile's statistics, flattened to plain numbers.
#[derive(Clone, Copy)]
pub struct CompileNumbers {
    pub table_entries: u64,
    pub bdd_nodes: u64,
    pub allocated_nodes: u64,
    pub memo_hit_ratio: f64,
    pub conjunctions: u64,
    pub mcast_groups: u64,
    /// Seconds: whole compile, shard build, shard merge, table emission
    /// (the program's own `CompiledProgram.spans`).
    pub compile_s: f64,
    pub shard_build_s: f64,
    pub shard_merge_s: f64,
    pub emit_tables_s: f64,
}

pub fn compile(rules: &[Rule]) -> Result<Compiled, String> {
    let compiler = Compiler::new(spec(), CompilerOptions::default()).map_err(|e| e.to_string())?;
    let prog = compiler.compile(rules).map_err(|e| e.to_string())?;
    let s = &prog.stats;
    let secs = |k: SpanKind| prog.spans.get(k).total_ns as f64 / 1e9;
    let memo = s.memo_hits + s.memo_misses;
    let stats = CompileNumbers {
        table_entries: s.total_entries as u64,
        bdd_nodes: s.bdd_nodes as u64,
        allocated_nodes: s.allocated_nodes as u64,
        memo_hit_ratio: if memo == 0 {
            0.0
        } else {
            s.memo_hits as f64 / memo as f64
        },
        conjunctions: s.conjunctions as u64,
        mcast_groups: s.mcast_groups as u64,
        compile_s: secs(SpanKind::Compile),
        shard_build_s: secs(SpanKind::ShardBuild),
        shard_merge_s: secs(SpanKind::ShardMerge),
        emit_tables_s: secs(SpanKind::EmitTables),
    };
    Ok(Compiled {
        pipeline: prog.pipeline,
        stats,
    })
}

/// A long-lived incremental compile session: the alphabet is fixed by
/// `pool`, the first `initial` rules are installed.
pub struct Session(IncrementalCompiler);

impl Session {
    pub fn install(pool: &[Rule], initial: usize) -> Result<(Session, UpdateReport), String> {
        let mut s = IncrementalCompiler::new(spec(), &CompilerOptions::default(), pool)
            .map_err(|e| e.to_string())?;
        let report = s.install(&pool[..initial]).map_err(|e| e.to_string())?;
        Ok((Session(s), report))
    }

    pub fn update(&mut self, add: &[Rule], remove: &[Rule]) -> Result<UpdateReport, String> {
        self.0.update(add, remove).map_err(|e| e.to_string())
    }
}

pub fn delta_entries(r: &UpdateReport) -> u64 {
    (r.entries_added + r.entries_removed) as u64
}

// ------------------------------------------------------- data-plane report

/// Stage latency medians from the program's sampled histograms.
#[derive(Clone, Copy, Default)]
pub struct Stages {
    pub parse_p50_ns: f64,
    pub match_p50_ns: f64,
    pub mcast_p50_ns: f64,
    pub batch_p50_ns: f64,
}

/// What any data plane reports once it has been shut down.
#[derive(Default)]
pub struct PlaneReport {
    pub submitted: u64,
    pub decided: u64,
    pub quarantined: u64,
    pub orphaned: u64,
    /// The program's own zero-loss verdict (`DaemonReport::zero_loss`,
    /// `FabricReport::reconciles`, engine error-free).
    pub clean: bool,
    /// Egress ports per packet in submission order (only when recording).
    pub decisions: Vec<Option<Vec<u16>>>,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub ring_full_spins: u64,
    pub ring_empty_spins: u64,
    pub adoptions: u64,
    pub generations_coalesced: u64,
    pub quiesce_ms: f64,
    pub stages: Option<Stages>,
    /// Packets per leaf (one entry for a lone engine).
    pub per_leaf: Vec<u64>,
}

impl PlaneReport {
    /// Packets that were submitted and never accounted for, plus those
    /// accounted as lost.
    pub fn lost(&self) -> u64 {
        self.submitted.saturating_sub(self.decided)
    }
}

fn ports_of(d: &ForwardDecision) -> Vec<u16> {
    d.ports.iter().map(|p| p.0).collect()
}

fn stages_of(t: &TelemetrySnapshot) -> Stages {
    Stages {
        parse_p50_ns: t.data.parse_ns.percentile(50.0) as f64,
        match_p50_ns: t.data.match_ns.percentile(50.0) as f64,
        mcast_p50_ns: t.data.mcast_ns.percentile(50.0) as f64,
        batch_p50_ns: t.data.batch_ns.percentile(50.0) as f64,
    }
}

fn absorb_engine(out: &mut PlaneReport, r: &EngineReport) {
    out.decided += r.stats.packets;
    out.quarantined += r.quarantined.len() as u64;
    out.cache_hits += r.hotpath.cache_hits;
    out.cache_misses += r.hotpath.cache_misses;
    out.cache_evictions += r.hotpath.cache_evictions;
    out.ring_full_spins += r.hotpath.ring_full_spins;
    out.ring_empty_spins += r.hotpath.ring_empty_spins;
    out.adoptions += r.updates.adoptions;
    out.generations_coalesced += r.updates.coalesced;
    out.per_leaf.push(r.stats.packets);
}

// ---------------------------------------------------------------- camusd

pub struct DaemonSpec<'a> {
    pub pool: &'a [Rule],
    pub initial: usize,
    pub cache: bool,
    pub telemetry: bool,
    pub record: bool,
    /// Packets of the daemon's own looped feed; 0 = fed by `inject`.
    pub internal_feed: usize,
}

pub struct DaemonSut {
    daemon: Daemon,
    addr: BusAddr,
}

impl DaemonSut {
    pub fn start(s: &DaemonSpec) -> Result<DaemonSut, String> {
        let cfg = DaemonConfig {
            spec: spec(),
            options: CompilerOptions::default(),
            pool: s.pool.to_vec(),
            initial: s.initial,
            engine: engine_config(s.cache, s.telemetry, s.record),
            bus: vec![BusAddr::Tcp("127.0.0.1:0".into())],
            metrics: None,
            coalesce_max: 32,
            feed_packets: s.internal_feed,
            feed_loop: s.internal_feed > 0,
        };
        let daemon = Daemon::start(cfg).map_err(|e| e.to_string())?;
        let addr = daemon.bus_addrs()[0].clone();
        Ok(DaemonSut { daemon, addr })
    }

    pub fn connect(&self) -> Result<Client, String> {
        BusClient::connect(&self.addr)
            .map(Client)
            .map_err(|e| e.to_string())
    }

    /// Hands one chunk of `(frame, now_us)` pairs to the control thread.
    pub fn inject(&self, chunk: Vec<(Packet, u64)>) -> Result<(), String> {
        self.daemon.inject(chunk).map_err(|e| e.to_string())
    }

    pub fn finish(self) -> PlaneReport {
        let rep = self.daemon.join();
        let mut out = PlaneReport {
            submitted: rep.submitted,
            clean: rep.zero_loss(),
            decisions: rep
                .engine
                .decisions
                .iter()
                .map(|d| Some(ports_of(d)))
                .collect(),
            stages: rep.engine.telemetry.as_ref().map(stages_of),
            ..Default::default()
        };
        absorb_engine(&mut out, &rep.engine);
        out
    }
}

/// Live daemon counters, as the `Stats` RPC returns them.
#[derive(Clone, Copy, Default)]
pub struct DaemonStats {
    pub packets: u64,
    pub epochs: u64,
    pub mutations_applied: u64,
    pub apply_ns_total: u64,
    pub apply_count: u64,
}

/// One bus connection (blocking request/reply).
pub struct Client(BusClient);

impl Client {
    fn mutate(&mut self, req: BusRequest) -> Result<(), String> {
        match self.0.request(&req) {
            Ok(BusReply::Ack { .. }) => Ok(()),
            Ok(other) => Err(format!("{other:?}")),
            Err(e) => Err(e.to_string()),
        }
    }

    pub fn subscribe(&mut self, rule: &str) -> Result<(), String> {
        self.mutate(BusRequest::Subscribe {
            rules: vec![rule.to_string()],
        })
    }

    pub fn unsubscribe(&mut self, rule: &str) -> Result<(), String> {
        self.mutate(BusRequest::Unsubscribe {
            rules: vec![rule.to_string()],
        })
    }

    pub fn ping(&mut self) -> Result<(), String> {
        self.0.ping().map_err(|e| e.to_string())
    }

    pub fn stats(&mut self) -> Result<DaemonStats, String> {
        let f = self.0.stats().map_err(|e| e.to_string())?;
        Ok(DaemonStats {
            packets: f.packets,
            epochs: f.epochs,
            mutations_applied: f.mutations_applied,
            apply_ns_total: f.apply_ns_total,
            apply_count: f.apply_count,
        })
    }

    /// Installed rules, printed and sorted.
    pub fn snapshot(&mut self) -> Result<Vec<String>, String> {
        self.0
            .snapshot()
            .map(|(_, rules)| rules)
            .map_err(|e| e.to_string())
    }
}

/// Encodes and decodes one `Subscribe` request and one `Ack` reply.
pub fn bus_codec_roundtrip(rule: &str) -> usize {
    let req = BusRequest::Subscribe {
        rules: vec![rule.to_string()],
    }
    .encode();
    let rep = BusReply::Ack {
        generation: 7,
        coalesced_with: 1,
    }
    .encode();
    let ok = BusRequest::decode(&req).is_ok() as usize + BusReply::decode(&rep).is_ok() as usize;
    ok + req.len() + rep.len()
}

// ---------------------------------------------------------------- engine

/// A standalone engine with the daemon's configuration and shard
/// function, no daemon around it.
pub struct EngineSut {
    engine: Engine,
    submitted: u64,
}

impl EngineSut {
    pub fn start(pipeline: &Pipeline, cache: bool, telemetry: bool) -> EngineSut {
        let cfg = engine_config(cache, telemetry, false);
        EngineSut {
            engine: Engine::start(pipeline, &cfg, shard::itch_symbol_shard()),
            submitted: 0,
        }
    }

    pub fn submit(&mut self, packet: &[u8], now_us: u64) {
        self.engine.submit(packet, now_us);
        self.submitted += 1;
    }

    pub fn apply_update(&mut self, report: &UpdateReport) -> Result<(), String> {
        self.engine.apply_update(report).map_err(|e| e.to_string())
    }

    pub fn finish(mut self) -> PlaneReport {
        let t = Instant::now();
        let drained = self.engine.quiesce();
        let quiesce_ms = t.elapsed().as_secs_f64() * 1e3;
        let rep = self.engine.finish();
        let mut out = PlaneReport {
            submitted: self.submitted,
            clean: drained.is_ok() && rep.error.is_none(),
            stages: rep.telemetry.as_ref().map(stages_of),
            quiesce_ms,
            ..Default::default()
        };
        absorb_engine(&mut out, &rep);
        out
    }
}

/// The engine's shard-key extractor on one frame.
pub fn shard_key(packet: &[u8]) -> u64 {
    shard::itch_symbol_key(packet).unwrap_or(0)
}

// ---------------------------------------------------------------- fabric

pub struct FabricSut(Fabric);

impl FabricSut {
    pub fn start(
        master: &Pipeline,
        leaves: usize,
        telemetry: bool,
        record: bool,
    ) -> Result<FabricSut, String> {
        let cfg = FabricConfig::uniform(
            leaves,
            SHARD_FIELD,
            shard::itch_symbol_shard(),
            engine_config(false, telemetry, record),
        );
        Fabric::start(master, &cfg)
            .map(FabricSut)
            .map_err(|e| e.to_string())
    }

    pub fn submit(&mut self, packet: &[u8], now_us: u64) -> usize {
        self.0.submit(packet, now_us)
    }

    pub fn route(&self, packet: &[u8]) -> usize {
        self.0.route(packet)
    }

    /// One two-phase epoch replacing the master program.
    pub fn install_master(&mut self, master: Pipeline) -> Result<(), String> {
        self.0.install_master(master).map_err(|e| e.to_string())
    }

    pub fn finish(mut self) -> PlaneReport {
        let t = Instant::now();
        let drained = self.0.quiesce();
        let quiesce_ms = t.elapsed().as_secs_f64() * 1e3;
        let rep = self.0.finish();
        let mut telemetry: Option<TelemetrySnapshot> = None;
        let mut out = PlaneReport {
            submitted: rep.submitted(),
            orphaned: rep.orphaned(),
            clean: drained.is_ok() && rep.reconciles(),
            quiesce_ms,
            ..Default::default()
        };
        if rep.leaves.iter().any(|l| !l.decisions.is_empty()) {
            out.decisions = rep
                .decisions_in_submit_order()
                .into_iter()
                .map(|d| d.map(ports_of))
                .collect();
        }
        for leaf in &rep.leaves {
            absorb_engine(&mut out, leaf);
            if let Some(t) = &leaf.telemetry {
                match &mut telemetry {
                    Some(all) => all.merge(t),
                    None => telemetry = Some(t.clone()),
                }
            }
        }
        out.stages = telemetry.as_ref().map(stages_of);
        out
    }
}

/// `PartitionPlan::compute` + `slices` over `leaves` leaves; returns
/// the largest leaf's entry count.
pub fn partition_plan(master: &Pipeline, leaves: usize) -> Result<u64, String> {
    let plan = PartitionPlan::compute(master, SHARD_FIELD, leaves).map_err(|e| e.to_string())?;
    let slices = plan.slices(master);
    std::hint::black_box(&slices);
    Ok((0..leaves)
        .map(|l| plan.leaf_entries(l) as u64)
        .max()
        .unwrap_or(0))
}

// -------------------------------------------------------- pipeline alone

/// One compiled program run on the calling thread, the way an engine
/// worker runs it (shared program, private `ShardCtx`).
pub struct PipelineProbe {
    pipeline: Pipeline,
    ctx: ShardCtx,
    out: DecisionBuf,
    work: Phv,
    phvs: PhvBuf,
}

impl PipelineProbe {
    pub fn new(pipeline: &Pipeline, cache: bool) -> PipelineProbe {
        let mut pipeline = pipeline.clone();
        if cache {
            if let Some(field) = pipeline.layout.get(SHARD_FIELD) {
                let _ = pipeline.enable_decision_cache(field, DEFAULT_CACHE_SHIFT);
            }
        }
        let ctx = pipeline.new_shard_ctx();
        let work = pipeline.layout.instantiate();
        PipelineProbe {
            pipeline,
            ctx,
            out: DecisionBuf::default(),
            work,
            phvs: PhvBuf::default(),
        }
    }

    /// Parser only; returns the messages emitted.
    pub fn parse(&mut self, packet: &[u8]) -> usize {
        self.phvs.clear();
        let _ = self.pipeline.parser.parse_into(
            &self.pipeline.layout,
            packet,
            &mut self.work,
            &mut self.phvs,
        );
        self.phvs.len()
    }

    /// Parser + match chain + multicast resolution for one batch;
    /// returns the decisions made. The decisions stay readable through
    /// [`PipelineProbe::decisions`] until the next call.
    pub fn process_batch(&mut self, batch: &[Packet], now_us: u64) -> Result<usize, String> {
        self.out.clear();
        self.pipeline
            .process_batch_shared(
                &mut self.ctx,
                batch.iter().map(|p| (p.as_slice(), now_us)),
                &mut self.out,
            )
            .map_err(|e| e.to_string())?;
        Ok(self.out.len())
    }

    pub fn decisions(&self) -> impl Iterator<Item = Vec<u16>> + '_ {
        self.out.iter().map(ports_of)
    }
}

// ---------------------------------------------------------------- oracle

/// `camus_itch::parse_feed_packet` alone (the oracle's decoder);
/// returns the number of ITCH messages.
pub fn itch_decode(packet: &[u8]) -> usize {
    parse_feed_packet(packet).map(|(_, m)| m.len()).unwrap_or(0)
}

/// Ground truth for one frame: the naive AST interpreter over the
/// add-orders `camus-itch` decodes — independent of the compiler, the
/// BDD and the pipeline's own parser.
pub fn oracle_ports(rules: &[Rule], packet: &[u8]) -> Vec<u16> {
    let Ok((_, msgs)) = parse_feed_packet(packet) else {
        return Vec::new();
    };
    let mut ports = Vec::new();
    for m in &msgs {
        let ItchMessage::AddOrder(a) = m else {
            continue;
        };
        let field = |name: &str| -> u64 {
            match name {
                "msg_type" => u64::from(b'A'),
                "stock_locate" => u64::from(a.stock_locate),
                "tracking_number" => u64::from(a.tracking_number),
                "timestamp" => a.timestamp_ns,
                "order_ref" => a.order_ref,
                "buy_sell" => u64::from(a.side.to_byte()),
                "shares" => u64::from(a.shares),
                "stock" => u64::from_be_bytes(a.stock),
                "price" => u64::from(a.price),
                other => panic!("rule names a field the ITCH spec lacks: {other}"),
            }
        };
        let bits = |name: &str| -> u32 {
            match name {
                "stock" | "order_ref" => 64,
                "timestamp" => 48,
                "shares" | "price" => 32,
                "stock_locate" | "tracking_number" => 16,
                _ => 8,
            }
        };
        ports.extend(naive_ports(rules, &field, &bits));
    }
    ports.sort_unstable();
    ports.dedup();
    ports
}
