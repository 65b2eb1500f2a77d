//! Dynamic compilation (§3.2): rules → BDD → table entries.
//!
//! This is the paper's Algorithm 1. The resolved conjunctions are
//! inserted into a multi-terminal BDD; the BDD is sliced into per-field
//! components; every In→Out path of every component becomes one
//! match-action entry `(entry state, field constraint) → next state`,
//! and every reachable terminal becomes a leaf-table entry mapping its
//! state to the merged action set — unicast, a multicast group
//! (allocated here, deduplicated by port set), register updates, or
//! drop. This module builds the rows (`path_row`, `leaf_row`);
//! the one emitter that assembles them into tables is the row groups
//! of module `rows`, which a cold compile and every session update
//! share (`build_program`).
//!
//! ## Sharded construction
//!
//! BDD construction dominates compile time at large rule counts, so it
//! is parallelized: the normalized conjunctions are partitioned into
//! fixed-size *logical shards* (`SHARD_CHUNK` conjunctions each),
//! each shard builds its own diagram, and the shards are folded
//! together with [`camus_bdd::Bdd::union_with`] along a fixed pairwise
//! merge tree. Both the partition and the merge tree depend only on
//! the rule count — never on the worker count `K` — so every store
//! operation is the same at any `K`; the workers merely execute nodes
//! of a pinned DAG. That, plus the deterministic renumbering of
//! [`camus_bdd::Bdd::canonical_copy`], is what makes the emitted
//! tables, multicast groups and statistics bit-identical regardless of
//! `K` (pruned union itself is *not* confluent — see `SHARD_CHUNK`).

use camus_bdd::pred::{ActionId, FieldId, Pred};
use camus_bdd::slice::CompPath;
use camus_bdd::store::{ActionSetId, EMPTY_ACTIONS};
use camus_bdd::{Bdd, NodeRef};
use camus_pipeline::multicast::{GroupId, MulticastTable, PortId};
use camus_pipeline::table::{ActionOp, Entry, Key, MatchKind, MatchValue, RegOp, Table};
use camus_telemetry::{SpanKind, SpanSet, SpanTimer};
use fxhash::FxHashMap;

use crate::error::CompileError;
use crate::resolve::{CounterFunc, Resolved, ResolvedConj, RuleAction};
use crate::rows::{Emission, RowGroups};
use crate::statics::StaticPipeline;

/// Summary statistics of one dynamic compilation.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileStats {
    /// Source rules (before normalization).
    pub rules_in: usize,
    /// Normalized conjunctions inserted (including synthesized
    /// aggregate-observe rules).
    pub conjunctions: usize,
    /// Conjunctions rejected as unsatisfiable.
    pub unsat_conjunctions: usize,
    /// Reachable BDD nodes after construction.
    pub bdd_nodes: usize,
    /// Distinct reachable terminal action sets.
    pub bdd_terminals: usize,
    /// Logical entries per table, in pipeline order.
    pub table_entries: Vec<(String, usize)>,
    /// Total logical entries across all tables — the paper's Figure 5
    /// metric.
    pub total_entries: usize,
    /// Multicast groups allocated — the paper's companion metric
    /// ("21,401 table entries and 198 multicast groups").
    pub mcast_groups: usize,
    /// Distinct pipeline states (BDD entry nodes + terminals).
    pub states: usize,
    /// Worker threads the BDD build ran on (1 = sequential). The
    /// output is bit-identical at any worker count; this records the
    /// schedule.
    pub shards: usize,
    /// Nodes allocated in the final build store before canonical
    /// renumbering — a proxy for the build's peak working set
    /// (`bdd_nodes` counts reachable nodes after renumbering).
    pub allocated_nodes: usize,
    /// Cumulative apply-memo hits across all shards and merges.
    pub memo_hits: u64,
    /// Cumulative apply-memo misses across all shards and merges.
    pub memo_misses: u64,
}

/// Persistent emission state: action interning, pipeline-state
/// numbering, and multicast-group allocation. A full compilation uses a
/// fresh instance; the incremental compiler keeps one alive so that
/// unchanged BDD nodes keep their state ids and unchanged port sets
/// keep their group ids — maximizing table-entry reuse across updates
/// (§3, "state updates can benefit from table entry re-use").
#[derive(Debug, Default, Clone)]
pub struct EmissionState {
    pub(crate) actions: Vec<RuleAction>,
    pub(crate) action_ids: FxHashMap<RuleAction, ActionId>,
    pub(crate) state_of: FxHashMap<NodeRef, u64>,
    pub(crate) next_state: u64,
    pub(crate) mcast: MulticastTable,
    pub(crate) group_of: FxHashMap<Vec<PortId>, GroupId>,
}

impl EmissionState {
    /// Creates fresh emission state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns the actions of every conjunction, in order, returning
    /// their stable ids: a function of the conjunctions' order alone.
    pub(crate) fn intern_actions(&mut self, conjs: &[ResolvedConj]) -> Vec<Vec<ActionId>> {
        let mut intern = |a: &RuleAction| {
            if let Some(&id) = self.action_ids.get(a) {
                return id;
            }
            let id = ActionId(self.actions.len() as u32);
            self.actions.push(a.clone());
            self.action_ids.insert(a.clone(), id);
            id
        };
        conjs
            .iter()
            .map(|c| c.actions.iter().map(&mut intern).collect())
            .collect()
    }

    /// A state id no vertex has held before.
    pub(crate) fn fresh_state(&mut self) -> u64 {
        let s = self.next_state;
        self.next_state += 1;
        s
    }

    /// Re-keys the per-vertex state after a [`Bdd::compact`], so state
    /// ids — and therefore installed table entries — do not move.
    pub(crate) fn rekey(&mut self, map: &camus_bdd::merge::Remap) {
        self.state_of = std::mem::take(&mut self.state_of)
            .into_iter()
            .filter_map(|(r, s)| Some((map.get(r)?, s)))
            .collect();
    }
}

/// The empty match-action table a field's component translates into:
/// `(state: exact, field: exact|range)`; a miss keeps the state
/// (pass-through for skipped components).
pub(crate) fn field_table_shell(
    bdd: &Bdd,
    statics: &StaticPipeline,
    field: FieldId,
) -> Result<Table, CompileError> {
    let info = bdd.field_info(field);
    let kind = if info.exact {
        MatchKind::Exact
    } else {
        MatchKind::Range
    };
    let keys = vec![
        Key {
            field: statics.state_meta,
            kind: MatchKind::Exact,
            bits: 32,
        },
        Key {
            field: statics.field_phv[field.0 as usize],
            kind,
            bits: info.bits,
        },
    ];
    Ok(Table::new(
        format!("t_{}", info.name.replace('.', "_")),
        keys,
        vec![],
    )?)
}

/// The field constraint of an In→Out path as its row's match value.
pub(crate) fn path_match(bdd: &Bdd, p: &CompPath) -> MatchValue {
    let info = bdd.field_info(p.ctx.field);
    if let Some(v) = p.pinned() {
        MatchValue::Exact(v)
    } else if p.is_wildcard(info.max_value()) || info.exact {
        // On an exact field an exclusion-only constraint is a wildcard
        // shadowed by the higher-priority pinned entries (Figure 4's
        // `*` rows).
        MatchValue::Any
    } else {
        MatchValue::Range {
            lo: p.ctx.lo,
            hi: p.ctx.hi,
        }
    }
}

/// One In→Out path as a row of its field's table: in state `from`,
/// the path's constraint `m` moves the packet to state `to`.
///
/// A pinned row outranks the rest. That is the only order the rows of
/// one entry need: the other rows' ranges are disjoint, and a point one
/// of them excludes is a pinned row (a false `==` edge is the only way
/// to exclude a point, and its true edge pins it). A priority that
/// does not count the paths before the row keeps the row as it was
/// when an edit inserts a path ahead of it.
pub(crate) fn path_row(
    statics: &StaticPipeline,
    p: &CompPath,
    m: MatchValue,
    (from, to): (u64, u64),
) -> Entry {
    Entry {
        priority: u32::from(p.pinned().is_none()),
        matches: vec![MatchValue::Exact(from), m],
        ops: vec![ActionOp::SetField(statics.state_meta, to)],
    }
}

/// The empty leaf table: terminal state → merged actions; a miss drops.
pub(crate) fn leaf_table_shell(statics: &StaticPipeline) -> Result<Table, CompileError> {
    let key = Key {
        field: statics.state_meta,
        kind: MatchKind::Exact,
        bits: 32,
    };
    Ok(Table::new("t_actions", vec![key], vec![])?)
}

/// The leaf row of the terminal carrying `set`, at `state`: the merged
/// actions — unicast, a multicast group (allocated on first use of its
/// port set), register updates, or an explicit drop. `None` for the
/// empty set (a miss drops) and for a set that does nothing.
pub(crate) fn leaf_row(
    bdd: &Bdd,
    statics: &StaticPipeline,
    es: &mut EmissionState,
    set: ActionSetId,
    state: u64,
) -> Option<Entry> {
    if set == EMPTY_ACTIONS {
        return None;
    }
    let mut ports: Vec<PortId> = Vec::new();
    let mut ops: Vec<ActionOp> = Vec::new();
    let mut explicit_drop = false;
    for &aid in bdd.actions(set) {
        match &es.actions[aid.0 as usize] {
            RuleAction::Fwd(ps) => ports.extend(ps.iter().map(|&p| PortId(p))),
            RuleAction::Drop => explicit_drop = true,
            RuleAction::ObserveAgg { agg_field } => {
                let slot = statics.reg_slot[agg_field];
                let op = match statics.observe_src[agg_field] {
                    Some(src) => RegOp::Observe(src),
                    None => RegOp::Increment,
                };
                ops.push(ActionOp::Register { slot, op });
            }
            RuleAction::CounterUpdate {
                counter_field,
                func,
            } => {
                let slot = statics.reg_slot[counter_field];
                let op = match func {
                    CounterFunc::Increment => RegOp::Increment,
                    CounterFunc::AddField(f) => RegOp::Observe(statics.field_phv[f.0 as usize]),
                    CounterFunc::SetConst(v) => RegOp::SetConst(*v),
                    CounterFunc::SetField(f) => RegOp::SetField(statics.field_phv[f.0 as usize]),
                };
                ops.push(ActionOp::Register { slot, op });
            }
        }
    }
    ports.sort_unstable();
    ports.dedup();
    match ports.len() {
        0 => {
            if explicit_drop {
                ops.push(ActionOp::Drop);
            }
        }
        1 => ops.insert(0, ActionOp::Forward(ports[0])),
        _ => {
            let mcast = &mut es.mcast;
            let gid = *es
                .group_of
                .entry(ports.clone())
                .or_insert_with(|| mcast.allocate(ports));
            ops.insert(0, ActionOp::Multicast(gid));
        }
    }
    (!ops.is_empty()).then(|| Entry {
        priority: 0,
        matches: vec![MatchValue::Exact(state)],
        ops,
    })
}

/// Resolves a worker-thread request: 0 means one worker per available
/// core; never more workers than rules, never fewer than one.
fn resolve_shards(requested: usize, rules: usize) -> usize {
    let k = if requested == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        requested
    };
    k.clamp(1, rules.max(1))
}

/// Conjunctions per logical shard.
///
/// The rule list is partitioned into fixed-size chunks — a function of
/// the pool size alone, never of the worker count. Union under the
/// semantic-pruning reduction is *not* confluent: merging the same
/// rules along different trees can leave different (semantically
/// equivalent) residue on unsatisfiable paths, which no
/// structure-preserving renumbering can erase. Pinning the partition
/// and the merge tree pins the entire sequence of store operations, so
/// the worker count only decides which thread executes each build or
/// merge — and the output is bit-identical at any thread count by
/// construction.
const SHARD_CHUNK: usize = 512;

/// Inserts a slice of conjunctions into a (shard) BDD, counting
/// unsatisfiable ones. Satisfiability is a per-conjunction property, so
/// shard-local counts sum to the sequential total.
///
/// The built shard keeps only its diagram: every shard of the level
/// waits for the merge tree to reach it, and its construction caches
/// (interned contexts, transitions, memos) would wait with it.
fn build_shard(
    mut bdd: Bdd,
    rules: &[ResolvedConj],
    rule_actions: &[Vec<ActionId>],
) -> Result<(Bdd, usize), CompileError> {
    let mut unsat = 0usize;
    for (conj, ids) in rules.iter().zip(rule_actions) {
        if !bdd.add_rule(&conj.literals, ids)? {
            unsat += 1;
        }
    }
    bdd.release_caches();
    Ok((bdd, unsat))
}

/// A built shard: its diagram and its unsatisfiable-conjunction count.
type BuiltShard = (Bdd, usize);

/// Builds the rule BDD over the fixed logical-shard DAG on `threads`
/// worker threads and canonicalizes the result. Returns the canonical
/// diagram, the unsat-conjunction count, and the node allocation of the
/// build store before renumbering.
///
/// Logical shards are contiguous [`SHARD_CHUNK`]-sized rule ranges and
/// merge along a fixed pairwise tree (pairs per level in order; an odd
/// trailing diagram passes through to the next level). Both the
/// partition and the tree depend only on the rule count, so every
/// build and merge operation — and therefore the final store — is
/// identical at any `threads`; workers merely execute DAG nodes.
/// [`Bdd::canonical_copy`] then drops garbage from intermediate merges
/// and renumbers vertices deterministically.
fn build_sharded(
    proto: Bdd,
    rules: &[ResolvedConj],
    rule_actions: &[Vec<ActionId>],
    threads: usize,
    spans: &mut SpanSet,
) -> Result<(Bdd, usize, usize), CompileError> {
    let build_timer = SpanTimer::start();
    let bounds: Vec<(usize, usize)> = (0..rules.len())
        .step_by(SHARD_CHUNK)
        .map(|lo| (lo, (lo + SHARD_CHUNK).min(rules.len())))
        .collect();

    // Phase 1: build one diagram per logical shard.
    let mut level: Vec<BuiltShard> = if bounds.is_empty() {
        vec![(proto, 0)]
    } else {
        fan_out(bounds, threads, |(lo, hi)| {
            build_shard(proto.clone_empty(), &rules[lo..hi], &rule_actions[lo..hi])
        })
        .into_iter()
        .collect::<Result<_, _>>()?
    };
    build_timer.stop_into(spans, SpanKind::ShardBuild);

    // Phase 2: fold the fixed pairwise merge tree, level by level.
    let merge_timer = SpanTimer::start();
    while level.len() > 1 {
        let odd = if level.len() % 2 == 1 {
            level.pop()
        } else {
            None
        };
        let mut pairs = Vec::with_capacity(level.len() / 2);
        let mut it = level.into_iter();
        while let (Some(a), Some(b)) = (it.next(), it.next()) {
            pairs.push((a, b));
        }
        level = fan_out(pairs, threads, |((mut a, ua), (b, ub))| {
            a.union_with(&b);
            a.release_caches(); // it waits for the next level
            (a, ua + ub)
        });
        level.extend(odd);
    }
    let (merged, unsat) = level.pop().expect("at least one shard");
    let allocated = merged.node_count();
    let canonical = merged.canonical_copy();
    merge_timer.stop_into(spans, SpanKind::ShardMerge);
    Ok((canonical, unsat, allocated))
}

/// The empty diagram over every predicate of `resolved`: the variable
/// order every shard of a build shares, the precondition for merging.
pub(crate) fn empty_diagram(
    resolved: &Resolved,
    semantic_pruning: bool,
) -> Result<Bdd, CompileError> {
    let alphabet: Vec<Pred> = resolved
        .rules
        .iter()
        .flat_map(|r| r.literals.iter().map(|(p, _)| *p))
        .collect();
    let mut bdd = Bdd::new(resolved.fields.infos.clone(), alphabet)?;
    bdd.set_semantic_pruning(semantic_pruning);
    Ok(bdd)
}

/// A diagram built from scratch and its program.
#[derive(Debug)]
pub(crate) struct Built {
    pub bdd: Bdd,
    /// Conjunctions rejected as unsatisfiable.
    pub unsat: usize,
    /// Nodes of the build store before canonical renumbering.
    pub allocated_nodes: usize,
    /// Worker threads the build ran on.
    pub shards: usize,
    pub emission: Emission,
    /// The `ShardBuild`, `ShardMerge` and `EmitTables` spans.
    pub spans: SpanSet,
}

/// Algorithm 1 from scratch, for a cold compile and for a session's
/// first install alike: builds the diagram of `rules` (their actions
/// interned as `ids`) over `proto`'s alphabet on `shards` workers (0 =
/// one per core; [`build_sharded`]), then emits its program through
/// `rows`.
pub(crate) fn build_program(
    proto: Bdd,
    rules: &[ResolvedConj],
    ids: &[Vec<ActionId>],
    shards: usize,
    statics: &StaticPipeline,
    es: &mut EmissionState,
    rows: &mut RowGroups,
) -> Result<Built, CompileError> {
    let mut spans = SpanSet::new();
    let shards = resolve_shards(shards, rules.len());
    let (bdd, unsat, allocated_nodes) = build_sharded(proto, rules, ids, shards, &mut spans)?;
    let emit_timer = SpanTimer::start();
    let emission = rows.emit(&bdd, statics, es)?;
    emit_timer.stop_into(&mut spans, SpanKind::EmitTables);
    Ok(Built {
        bdd,
        unsat,
        allocated_nodes,
        shards,
        emission,
        spans,
    })
}

/// `f` over `items` on up to `threads` scoped worker threads, items
/// dealt round-robin; the results in item order. Which thread runs an
/// item never changes what it computes.
fn fan_out<T: Send, R: Send>(items: Vec<T>, threads: usize, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let workers = threads.clamp(1, items.len().max(1));
    if workers == 1 {
        return items.into_iter().map(f).collect();
    }
    let mut dealt: Vec<Vec<(usize, T)>> = (0..workers).map(|_| Vec::new()).collect();
    let n = items.len();
    for (i, item) in items.into_iter().enumerate() {
        dealt[i % workers].push((i, item));
    }
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = dealt
            .into_iter()
            .map(|hand| {
                s.spawn(move || {
                    hand.into_iter()
                        .map(|(i, item)| (i, f(item)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("compile worker panicked") {
                out[i] = Some(r);
            }
        }
    });
    out.into_iter()
        .map(|r| r.expect("every item ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use crate::compile::{CompiledProgram, Compiler, CompilerOptions};
    use camus_bdd::order::OrderHeuristic;
    use camus_lang::{parse_program, parse_spec};
    use camus_pipeline::table::ActionOp;

    fn compile(src: &str) -> CompiledProgram {
        let spec = parse_spec(camus_lang::spec::ITCH_SPEC).unwrap();
        let options = CompilerOptions {
            heuristic: OrderHeuristic::SpecOrder,
            ..CompilerOptions::raw()
        };
        let compiler = Compiler::new(spec, options).unwrap();
        compiler.compile(&parse_program(src).unwrap()).unwrap()
    }

    /// The paper's Figure 3/4 example: three rules over shares and
    /// stock compile to a Shares table, a Stock table and a Leaf table.
    #[test]
    fn figure4_tables() {
        let prog = compile(
            "shares < 60 and stock == AAPL : fwd(1)\n\
             stock == AAPL : fwd(2)\n\
             shares > 100 and stock == MSFT : fwd(3)",
        );
        let tables = &prog.pipeline.tables;
        assert_eq!(tables.len(), 3);
        assert_eq!(tables[0].name, "t_add_order_shares");
        assert_eq!(tables[1].name, "t_add_order_stock");
        assert_eq!(tables[2].name, "t_actions");
        // Shares: 3 paths (Fig. 4 rows). Stock: AAPL/MSFT/exclusion rows.
        assert_eq!(tables[0].len(), 3);
        assert!(tables[1].len() >= 3);
        // fwd(1,2) merged into one multicast group.
        assert_eq!(prog.stats.mcast_groups, 1);
        assert!(prog.stats.total_entries >= 9);
    }

    #[test]
    fn stats_count_rules_and_states() {
        let prog = compile("stock == GOOGL : fwd(1)\nstock == MSFT : fwd(2)");
        assert_eq!(prog.stats.rules_in, 2);
        assert_eq!(prog.stats.conjunctions, 2);
        assert_eq!(prog.stats.unsat_conjunctions, 0);
        assert!(prog.stats.states >= 3);
        assert_eq!(prog.stats.mcast_groups, 0); // unicast only
    }

    #[test]
    fn unsat_conjunctions_are_counted() {
        let prog = compile("shares < 10 and shares > 20 : fwd(1)\nstock == A : fwd(2)");
        assert_eq!(prog.stats.unsat_conjunctions, 1);
    }

    #[test]
    fn multicast_groups_dedupe_port_sets() {
        let prog = compile(
            "stock == GOOGL : fwd(1,2)\n\
             stock == MSFT : fwd(1,2)\n\
             stock == ORCL : fwd(3,4)",
        );
        assert_eq!(prog.stats.mcast_groups, 2);
    }

    #[test]
    fn empty_rule_set_compiles_to_empty_leaf() {
        let prog = compile("# nothing\n");
        assert_eq!(prog.pipeline.tables.len(), 1);
        assert_eq!(prog.pipeline.tables[0].len(), 0);
        assert_eq!(prog.stats.total_entries, 0);
    }

    #[test]
    fn control_plane_rendering_mentions_tables() {
        let cp = compile("stock == GOOGL and price > 100 : fwd(1)").control_plane();
        assert!(cp.contains("table_add t_add_order_price"));
        assert!(cp.contains("table_add t_actions"));
        assert!(cp.contains("fwd(1)"));
    }

    #[test]
    fn register_ops_link_to_slots() {
        let prog = compile("stock == GOOGL : fwd(1); my_counter <- incr()");
        assert_eq!(prog.pipeline.registers.len(), 1);
        let leaf = prog.pipeline.tables.last().unwrap();
        let has_reg = leaf.entries().any(|e| {
            e.ops
                .iter()
                .any(|op| matches!(op, ActionOp::Register { .. }))
        });
        assert!(has_reg);
    }
}
