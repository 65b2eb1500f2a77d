//! Top-level compiler driver.
//!
//! Ties the phases together: resolve → static pipeline → dynamic
//! compilation → resource optimization → placement → P4 code
//! generation, producing a [`CompiledProgram`] that executes directly
//! on the `camus-pipeline` substrate.

use camus_bdd::order::OrderHeuristic;
use camus_lang::ast::Rule;
use camus_lang::spec::Spec;
use camus_pipeline::phv::PhvLayout;
use camus_pipeline::pipeline::Pipeline;
use camus_pipeline::resources::{place_chain, AsicModel, PlacementReport};
use camus_pipeline::table::{ActionOp, Entry, Key, MatchKind, MatchValue, Table};
use camus_telemetry::{SpanKind, SpanSet, SpanTimer};

use crate::dynamic::{compile_dynamic, CompileStats, DynamicProgram};
use crate::error::CompileError;
use crate::resolve::{resolve, ResolveOptions};
use crate::statics::build_static;

pub use crate::statics::Encap;

/// Compiler configuration.
#[derive(Debug, Clone)]
pub struct CompilerOptions {
    /// Packet encapsulation of the application messages.
    pub encap: Encap,
    /// Field-ordering heuristic (§3.2: "simple heuristics often work
    /// well in practice").
    pub heuristic: OrderHeuristic,
    /// Window for aggregate macros without a matching `@query_counter`,
    /// µs.
    pub default_window_us: u64,
    /// Resource model placed against. An oversized program still
    /// compiles; read [`CompiledProgram::placement`]'s `failure`.
    pub asic: AsicModel,
    /// Low-resolution domain mapping (§3.2's third optimization): remap
    /// a range field onto a compact domain when its predicates cut the
    /// field into at most `2^bits` elementary intervals. `None` = off.
    pub compress_bits: Option<u32>,
    /// BDD reduction (iii) — same-field implication pruning. On by
    /// default; exposed for the ablation benches.
    pub semantic_pruning: bool,
    /// Shards for the parallel BDD build: rules are partitioned, built
    /// on worker threads and merged. `0` = one shard per available
    /// core. The compiled program is bit-identical at any value.
    pub compile_shards: usize,
}

impl Default for CompilerOptions {
    fn default() -> Self {
        CompilerOptions {
            // The paper's running application: ITCH add-orders inside
            // Ethernet/IPv4/UDP/MoldUDP64.
            encap: Encap::EthIpUdpMold {
                message_select: Some(("msg_type".to_string(), u64::from(b'A'))),
            },
            heuristic: OrderHeuristic::ExactFirst,
            default_window_us: 100,
            asic: AsicModel::tofino32(),
            compress_bits: None,
            semantic_pruning: true,
            compile_shards: 0,
        }
    }
}

impl CompilerOptions {
    /// Options for raw (unencapsulated) message tests.
    pub fn raw() -> Self {
        CompilerOptions {
            encap: Encap::Raw,
            ..Default::default()
        }
    }
}

/// A fully compiled program.
#[derive(Debug)]
pub struct CompiledProgram {
    /// Executable data-plane instance (parser + tables + groups +
    /// registers).
    pub pipeline: Pipeline,
    /// Compilation statistics (the Figure 5 metrics).
    pub stats: CompileStats,
    /// Resource placement against the configured ASIC.
    pub placement: PlacementReport,
    /// Generated P4-14 source for the static pipeline.
    pub p4_source: String,
    /// Generated P4-16 (v1model) source for the static pipeline.
    pub p4_16_source: String,
    /// Generated control-plane rules (one `table_add` per line).
    pub control_plane: String,
    /// The rule BDD, for introspection and DOT export.
    pub bdd: camus_bdd::Bdd,
    /// Wall-clock phase timings: the dynamic compiler's shard
    /// build/merge/emit spans plus the end-to-end compile span. Kept
    /// out of [`CompileStats`], which must stay shard-count-invariant.
    pub spans: SpanSet,
}

/// The Camus compiler (Fig. 6's "Camus compiler" box).
#[derive(Debug, Clone)]
pub struct Compiler {
    spec: Spec,
    options: CompilerOptions,
}

impl Compiler {
    /// Creates a compiler for a message-format spec.
    pub fn new(spec: Spec, options: CompilerOptions) -> Result<Self, CompileError> {
        if spec.instances.is_empty() {
            return Err(CompileError::BadSpec(
                "spec declares no header instances".into(),
            ));
        }
        if spec.query_fields.is_empty() && spec.counters.is_empty() {
            return Err(CompileError::BadSpec(
                "spec declares no @query_field or @query_counter annotations".into(),
            ));
        }
        Ok(Compiler { spec, options })
    }

    /// The spec being compiled against.
    pub fn spec(&self) -> &Spec {
        &self.spec
    }

    /// The active options.
    pub fn options(&self) -> &CompilerOptions {
        &self.options
    }

    /// Compiles a rule set end to end.
    pub fn compile(&self, rules: &[Rule]) -> Result<CompiledProgram, CompileError> {
        let compile_timer = SpanTimer::start();
        let ropts = ResolveOptions {
            heuristic: self.options.heuristic,
            default_window_us: self.options.default_window_us,
        };
        let resolved = resolve(&self.spec, rules, &ropts)?;
        let statics = build_static(&self.spec, &resolved.fields, &self.options.encap)?;
        let mut dynp = compile_dynamic(
            &resolved,
            &statics,
            rules.len(),
            self.options.semantic_pruning,
            self.options.compile_shards,
        )?;

        let mut layout = statics.layout.clone();
        if let Some(bits) = self.options.compress_bits {
            compress_domains(&mut dynp, &mut layout, bits)?;
        }

        // Dependency levels and stage placement share one convention
        // with the live update plane (`place_chain`): compression
        // tables at level 0, main tables chained behind them. That
        // keeps offline `fits()` and runtime admission byte-identical.
        let placement = place_chain(&dynp.tables, &self.options.asic);

        let p4_source = crate::p4gen::render_p4(&self.spec, &statics, &dynp, &layout);
        let p4_16_source = crate::p4gen::render_p4_16(&self.spec, &statics, &dynp, &layout);
        let control_plane = dynp.render_control_plane();

        let DynamicProgram {
            tables,
            mcast,
            stats,
            bdd,
            mut spans,
        } = dynp;
        compile_timer.stop_into(&mut spans, SpanKind::Compile);
        let pipeline = Pipeline {
            layout,
            parser: statics.parser.clone(),
            tables,
            mcast,
            registers: statics.registers.clone(),
            state_bindings: statics.state_bindings.clone(),
            init_fields: vec![(statics.state_meta, 0)],
            exec: Default::default(),
        };
        Ok(CompiledProgram {
            pipeline,
            stats,
            placement,
            p4_source,
            p4_16_source,
            control_plane,
            bdd,
            spans,
        })
    }
}

/// Applies the low-resolution domain mapping: for every per-field table
/// whose value key is a range, collect the elementary intervals cut by
/// its entries and — when few enough — route matching through a
/// compression table onto a `⌈log₂⌉`-bit compact domain.
fn compress_domains(
    dynp: &mut DynamicProgram,
    layout: &mut PhvLayout,
    max_bits: u32,
) -> Result<(), CompileError> {
    let mut out: Vec<Table> = Vec::with_capacity(dynp.tables.len() * 2);
    let tables = std::mem::take(&mut dynp.tables);
    for mut table in tables {
        let is_range_value_table = table.keys.len() == 2 && table.keys[1].kind == MatchKind::Range;
        if !is_range_value_table || table.is_empty() {
            out.push(table);
            continue;
        }
        let raw_key = table.keys[1];
        let max = if raw_key.bits >= 64 {
            u64::MAX
        } else {
            (1u64 << raw_key.bits) - 1
        };

        // Cut points: starts of every constrained region and the point
        // just past every region.
        let mut cuts: Vec<u64> = Vec::new();
        for e in table.entries() {
            match e.matches[1] {
                MatchValue::Range { lo, hi } => {
                    if lo > 0 {
                        cuts.push(lo);
                    }
                    if hi < max {
                        cuts.push(hi + 1);
                    }
                }
                MatchValue::Exact(v) => {
                    if v > 0 {
                        cuts.push(v);
                    }
                    if v < max {
                        cuts.push(v + 1);
                    }
                }
                _ => {}
            }
        }
        cuts.sort_unstable();
        cuts.dedup();
        let intervals = cuts.len() + 1;
        if intervals > (1usize << max_bits.min(32)) {
            out.push(table); // too many intervals: keep raw ranges
            continue;
        }
        let cbits = (usize::BITS - (intervals - 1).leading_zeros()).max(1);

        // idx(v) = number of cut points <= v.
        let idx = |v: u64| -> u64 { cuts.partition_point(|&c| c <= v) as u64 };

        let compact = layout.add(format!("meta.cmp_{}", table.name), cbits);
        let mut cmp_table = Table::new(
            format!("t_cmp_{}", table.name.trim_start_matches("t_")),
            vec![raw_key],
            vec![],
        );
        let mut lo = 0u64;
        for (i, &cut) in cuts.iter().enumerate() {
            cmp_table.add_entry(Entry {
                priority: 0,
                matches: vec![MatchValue::Range { lo, hi: cut - 1 }],
                ops: vec![ActionOp::SetField(compact, i as u64)],
            })?;
            lo = cut;
        }
        cmp_table.add_entry(Entry {
            priority: 0,
            matches: vec![MatchValue::Range { lo, hi: max }],
            ops: vec![ActionOp::SetField(compact, cuts.len() as u64)],
        })?;

        // Rewrite the main table onto the compact domain.
        let mut rewritten = Table::new(
            table.name.clone(),
            vec![
                table.keys[0],
                Key {
                    field: compact,
                    kind: MatchKind::Range,
                    bits: cbits,
                },
            ],
            table.default_ops.clone(),
        );
        for e in table.entries() {
            let m = match e.matches[1] {
                MatchValue::Range { lo, hi } => {
                    let (l, h) = (idx(lo), idx(hi));
                    if l == h {
                        MatchValue::Exact(l)
                    } else {
                        MatchValue::Range { lo: l, hi: h }
                    }
                }
                MatchValue::Exact(v) => MatchValue::Exact(idx(v)),
                other => other,
            };
            rewritten.add_entry(Entry {
                priority: e.priority,
                matches: vec![e.matches[0], m],
                ops: e.ops.clone(),
            })?;
        }
        // Update stats bookkeeping: the compression table adds entries.
        dynp.stats
            .table_entries
            .push((cmp_table.name.clone(), cmp_table.len()));
        dynp.stats.total_entries += cmp_table.len();
        table = rewritten;
        out.push(cmp_table);
        out.push(table);
    }
    dynp.tables = out;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use camus_lang::{parse_program, parse_spec};
    use camus_pipeline::PortId;

    fn itch_compiler(options: CompilerOptions) -> Compiler {
        let spec = parse_spec(camus_lang::spec::ITCH_SPEC).unwrap();
        Compiler::new(spec, options).unwrap()
    }

    fn raw_itch_packet(symbol: &str, shares: u32, price: u32) -> Vec<u8> {
        let mut m = vec![b'A'];
        m.extend_from_slice(&[0; 10]);
        m.extend_from_slice(&[0; 8]);
        m.push(b'B');
        m.extend_from_slice(&shares.to_be_bytes());
        let mut stock = [b' '; 8];
        for (i, c) in symbol.bytes().take(8).enumerate() {
            stock[i] = c;
        }
        m.extend_from_slice(&stock);
        m.extend_from_slice(&price.to_be_bytes());
        m
    }

    #[test]
    fn end_to_end_raw_compile_and_execute() {
        let c = itch_compiler(CompilerOptions::raw());
        let rules = parse_program(
            "stock == GOOGL : fwd(1)\n\
             stock == MSFT and price > 1000 : fwd(2,3)\n\
             shares > 100 and shares < 1000 : fwd(4)",
        )
        .unwrap();
        let prog = c.compile(&rules).unwrap();
        let mut pipe = prog.pipeline;

        let d = pipe.process(&raw_itch_packet("GOOGL", 50, 10), 0).unwrap();
        assert_eq!(d.ports, vec![PortId(1)]);
        let d = pipe.process(&raw_itch_packet("MSFT", 50, 2000), 0).unwrap();
        assert_eq!(d.ports, vec![PortId(2), PortId(3)]);
        let d = pipe.process(&raw_itch_packet("MSFT", 50, 500), 0).unwrap();
        assert!(d.dropped());
        let d = pipe.process(&raw_itch_packet("ORCL", 500, 10), 0).unwrap();
        assert_eq!(d.ports, vec![PortId(4)]);
        // Overlap: GOOGL with matching shares hits both rules.
        let d = pipe.process(&raw_itch_packet("GOOGL", 500, 10), 0).unwrap();
        assert_eq!(d.ports, vec![PortId(1), PortId(4)]);
    }

    #[test]
    fn domain_compression_preserves_semantics() {
        let rules = parse_program(
            "price > 100 and price < 200 : fwd(1)\n\
             price > 150 : fwd(2)\n\
             price == 175 : fwd(3)\n\
             shares < 60 : fwd(4)",
        )
        .unwrap();
        let plain = itch_compiler(CompilerOptions::raw())
            .compile(&rules)
            .unwrap();
        let compressed = itch_compiler(CompilerOptions {
            compress_bits: Some(8),
            ..CompilerOptions::raw()
        })
        .compile(&rules)
        .unwrap();
        // Compression added one table per range field with entries.
        assert!(compressed.pipeline.tables.len() > plain.pipeline.tables.len());

        let mut p1 = plain.pipeline;
        let mut p2 = compressed.pipeline;
        for price in [0u32, 100, 101, 149, 150, 151, 175, 199, 200, 5000] {
            for shares in [0u32, 59, 60, 1000] {
                let pkt = raw_itch_packet("X", shares, price);
                let d1 = p1.process(&pkt, 0).unwrap();
                let d2 = p2.process(&pkt, 0).unwrap();
                assert_eq!(d1.ports, d2.ports, "price={price} shares={shares}");
            }
        }
    }

    #[test]
    fn compression_reduces_tcam_charge() {
        let rules =
            parse_program("price > 100 and price < 10000 : fwd(1)\nprice > 5000 : fwd(2)").unwrap();
        let plain = itch_compiler(CompilerOptions::raw())
            .compile(&rules)
            .unwrap();
        let compressed = itch_compiler(CompilerOptions {
            compress_bits: Some(8),
            ..CompilerOptions::raw()
        })
        .compile(&rules)
        .unwrap();
        // The compacted main table's slices shrink; total TCAM charge
        // (incl. the compression table) must not explode.
        assert!(compressed.placement.tcam_slices <= plain.placement.tcam_slices * 2);
    }

    #[test]
    fn compiler_rejects_queryless_specs() {
        let spec = parse_spec("header_type t { fields { x: 8; } }\nheader t h;").unwrap();
        assert!(matches!(
            Compiler::new(spec, CompilerOptions::raw()),
            Err(CompileError::BadSpec(_))
        ));
    }

    #[test]
    fn artifacts_are_rendered() {
        let c = itch_compiler(CompilerOptions::raw());
        let rules = parse_program("stock == GOOGL : fwd(1)").unwrap();
        let prog = c.compile(&rules).unwrap();
        assert!(prog.p4_source.contains("header_type"));
        assert!(prog.control_plane.contains("table_add"));
        assert!(prog.placement.fits());
    }

    #[test]
    fn mold_encap_end_to_end() {
        let c = itch_compiler(CompilerOptions::default());
        let rules = parse_program("stock == GOOGL : fwd(7)").unwrap();
        let prog = c.compile(&rules).unwrap();
        let mut pipe = prog.pipeline;

        let msg = raw_itch_packet("GOOGL", 10, 10);
        let other = raw_itch_packet("AAPL", 10, 10);
        let pkt = feed_packet(&[&other, &msg]);
        let d = pipe.process(&pkt, 0).unwrap();
        assert_eq!(d.ports, vec![PortId(7)]);
        assert_eq!(d.messages, 2);
        assert_eq!(d.matched_messages, 1);
    }

    fn feed_packet(msgs: &[&[u8]]) -> Vec<u8> {
        let mut mold = vec![0u8; 10];
        mold.extend_from_slice(&1u64.to_be_bytes());
        mold.extend_from_slice(&(msgs.len() as u16).to_be_bytes());
        for m in msgs {
            mold.extend_from_slice(&(m.len() as u16).to_be_bytes());
            mold.extend_from_slice(m);
        }
        let mut udp = vec![0u8; 8];
        udp[4..6].copy_from_slice(&((8 + mold.len()) as u16).to_be_bytes());
        udp.extend_from_slice(&mold);
        let mut ip = vec![0x45u8, 0, 0, 0, 0, 0, 0, 0, 16, 17, 0, 0];
        ip[2..4].copy_from_slice(&((20 + udp.len()) as u16).to_be_bytes());
        ip.extend_from_slice(&[0; 8]);
        ip.extend_from_slice(&udp);
        let mut eth = vec![0u8; 12];
        eth.extend_from_slice(&0x0800u16.to_be_bytes());
        eth.extend_from_slice(&ip);
        eth
    }
}
