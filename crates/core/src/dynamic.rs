//! Dynamic compilation (§3.2): rules → BDD → table entries.
//!
//! This is the paper's Algorithm 1. The resolved conjunctions are
//! inserted into a multi-terminal BDD; the BDD is sliced into per-field
//! components; every In→Out path of every component becomes one
//! match-action entry `(entry state, field constraint) → next state`,
//! and every reachable terminal becomes a leaf-table entry mapping its
//! state to the merged action set — unicast, a multicast group
//! (allocated here, deduplicated by port set), register updates, or
//! drop.
//!
//! ## Sharded construction
//!
//! BDD construction dominates compile time at large rule counts, so it
//! is parallelized: the normalized conjunctions are partitioned into
//! fixed-size *logical shards* ([`SHARD_CHUNK`] conjunctions each),
//! each shard builds its own diagram, and the shards are folded
//! together with [`camus_bdd::Bdd::union_with`] along a fixed pairwise
//! merge tree. Both the partition and the merge tree depend only on
//! the rule count — never on the worker count `K` — so every store
//! operation is the same at any `K`; the workers merely execute nodes
//! of a pinned DAG. That, plus the deterministic renumbering of
//! [`camus_bdd::Bdd::canonical_copy`], is what makes the emitted
//! tables, multicast groups and statistics bit-identical regardless of
//! `K` (pruned union itself is *not* confluent — see [`SHARD_CHUNK`]).
//! Table-entry translation (phase 2 of [`emit_tables`]) also fans out
//! across field components.

use camus_bdd::pred::{ActionId, FieldId, Pred};
use camus_bdd::slice::{component_paths, slice, CompPath};
use camus_bdd::store::{ActionSetId, EMPTY_ACTIONS};
use camus_bdd::{Bdd, NodeRef};
use camus_pipeline::multicast::{GroupId, MulticastTable, PortId};
use camus_pipeline::table::{ActionOp, Entry, Key, MatchKind, MatchValue, RegOp, Table};
use camus_telemetry::{SpanKind, SpanSet, SpanTimer};
use fxhash::FxHashMap;

use crate::error::CompileError;
use crate::resolve::{CounterFunc, Resolved, RuleAction};
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

/// The dynamic half of a compiled program.
#[derive(Debug)]
pub struct DynamicProgram {
    /// Match-action tables in pipeline order (per-field tables then the
    /// leaf table).
    pub tables: Vec<Table>,
    /// Multicast groups referenced by leaf entries.
    pub mcast: MulticastTable,
    /// Compilation statistics.
    pub stats: CompileStats,
    /// The BDD, kept for introspection (DOT export, ablations).
    pub bdd: Bdd,
    /// Wall-clock timing of the compile phases (shard build, merge,
    /// emission). Deliberately *not* part of [`CompileStats`]: stats
    /// are asserted bit-identical across shard counts, timings are not.
    pub spans: SpanSet,
}

impl DynamicProgram {
    /// Renders the control-plane rules as human-readable `table_add`
    /// lines (the second compiler output of Fig. 6).
    pub fn render_control_plane(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for t in &self.tables {
            for e in t.entries() {
                let _ = write!(s, "table_add {} prio={}", t.name, e.priority);
                for (k, m) in t.keys().iter().zip(&e.matches) {
                    let _ = match m {
                        MatchValue::Exact(v) => write!(s, " k{}={v}", k.field.0),
                        MatchValue::Range { lo, hi } => write!(s, " k{}={lo}..{hi}", k.field.0),
                        MatchValue::Any => write!(s, " k{}=*", k.field.0),
                    };
                }
                let _ = write!(s, " =>");
                for op in &e.ops {
                    let _ = match op {
                        ActionOp::SetField(f, v) => write!(s, " set f{}={v}", f.0),
                        ActionOp::Forward(p) => write!(s, " fwd({})", p.0),
                        ActionOp::Multicast(g) => write!(s, " mcast({})", g.0),
                        ActionOp::Drop => write!(s, " drop"),
                        ActionOp::Register { slot, .. } => write!(s, " reg[{slot}]"),
                    };
                }
                let _ = writeln!(s);
            }
        }
        s
    }
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

    /// Interns a rule action, returning its stable id.
    pub(crate) fn intern_action(&mut self, a: &RuleAction) -> ActionId {
        if let Some(&id) = self.action_ids.get(a) {
            return id;
        }
        let id = ActionId(self.actions.len() as u32);
        self.actions.push(a.clone());
        self.action_ids.insert(a.clone(), id);
        id
    }

    /// The state id of a vertex reached by the current emission: the
    /// one it `carried` over from the previous emission, else a new one.
    fn state(&mut self, r: NodeRef, carried: &FxHashMap<NodeRef, u64>) -> u64 {
        if let Some(&s) = self.state_of.get(&r) {
            return s;
        }
        let s = carried
            .get(&r)
            .copied()
            .unwrap_or_else(|| self.fresh_state());
        self.state_of.insert(r, s);
        s
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

/// Translates one field component's paths into its match-action table.
/// Reads — but never mutates — the emission state, so components can be
/// translated concurrently once all states are assigned.
fn field_table(
    bdd: &Bdd,
    statics: &StaticPipeline,
    es: &EmissionState,
    comp: &camus_bdd::slice::Component,
    paths: &[CompPath],
) -> Result<Table, CompileError> {
    let mut table = field_table_shell(bdd, statics, comp.field)?;
    for p in paths {
        let states = (es.state_of[&p.entry], es.state_of[&p.exit]);
        table.add_entry(path_row(statics, p, path_match(bdd, p), states))?;
    }
    Ok(table)
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

/// Runs Algorithm 1 against the current BDD: slices it into per-field
/// components and emits the table chain plus the leaf table. Returns
/// the tables, the pipeline's initial state (the root's id), and the
/// number of reachable BDD nodes.
///
/// `threads` bounds the worker count for phase 2 (path → entry
/// translation); the output is identical at any value.
pub(crate) fn emit_tables(
    bdd: &Bdd,
    statics: &StaticPipeline,
    es: &mut EmissionState,
    threads: usize,
) -> Result<(Vec<Table>, u64, usize), CompileError> {
    // Phase 1 (sequential): assign pipeline states — entry nodes and
    // terminals in deterministic traversal order. A vertex that had a
    // state in the previous emission keeps it (so its entries are
    // reused); `state_of` is rebuilt from the vertices *this* emission
    // reaches, so a long-lived session neither carries dead vertices
    // nor emits leaf rows for terminals nothing leads to any more.
    let carried = std::mem::take(&mut es.state_of);
    let comps = slice(bdd);
    let reachable_nodes = comps.iter().map(|c| c.nodes.len()).sum();
    let initial_state = es.state(bdd.root(), &carried);
    let mut comp_paths = Vec::with_capacity(comps.len());
    for comp in &comps {
        for &n in &comp.in_nodes {
            es.state(n, &carried);
        }
        let paths = component_paths(bdd, comp);
        for p in &paths {
            es.state(p.exit, &carried);
        }
        comp_paths.push(paths);
    }

    // Phase 2: per-field tables. Every state is assigned by now, so the
    // translation only *reads* the emission state and field components
    // fan out across worker threads; results are scattered back by
    // component index, keeping the table order deterministic.
    let threads = threads.clamp(1, comps.len().max(1));
    let mut tables: Vec<Table> = if threads <= 1 {
        comps
            .iter()
            .zip(&comp_paths)
            .map(|(c, p)| field_table(bdd, statics, es, c, p))
            .collect::<Result<_, _>>()?
    } else {
        let es_ro: &EmissionState = es;
        let comps_ref = &comps;
        let paths_ref = &comp_paths;
        let mut slots: Vec<Option<Result<Table, CompileError>>> =
            (0..comps.len()).map(|_| None).collect();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|w| {
                    s.spawn(move || {
                        (w..comps_ref.len())
                            .step_by(threads)
                            .map(|i| {
                                (
                                    i,
                                    field_table(bdd, statics, es_ro, &comps_ref[i], &paths_ref[i]),
                                )
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                for (i, r) in h.join().expect("emission worker panicked") {
                    slots[i] = Some(r);
                }
            }
        });
        slots
            .into_iter()
            .map(|s| s.expect("every component translated"))
            .collect::<Result<_, _>>()?
    };

    // Phase 3 (sequential): the leaf table — terminal state → merged
    // actions. Mutates the emission state (multicast-group allocation),
    // so it stays single-threaded.
    let mut leaf = leaf_table_shell(statics)?;
    let mut terminals: Vec<(ActionSetId, u64)> = es
        .state_of
        .iter()
        .filter_map(|(r, &s)| match *r {
            NodeRef::Term(set) => Some((set, s)),
            NodeRef::Node(_) => None,
        })
        .collect();
    terminals.sort_by_key(|&(_, s)| s);
    for (set, state) in terminals {
        if let Some(row) = leaf_row(bdd, statics, es, set, state) {
            leaf.add_entry(row)?;
        }
    }
    tables.push(leaf);
    Ok((tables, initial_state, reachable_nodes))
}

/// Resolves a worker-thread request: 0 means one worker per available
/// core; never more workers than rules, never fewer than one.
pub(crate) fn resolve_shards(requested: usize, rules: usize) -> usize {
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
fn build_shard(
    mut bdd: Bdd,
    rules: &[crate::resolve::ResolvedConj],
    rule_actions: &[Vec<ActionId>],
) -> Result<(Bdd, usize), CompileError> {
    let mut unsat = 0usize;
    for (conj, ids) in rules.iter().zip(rule_actions) {
        if !bdd.add_rule(&conj.literals, ids)? {
            unsat += 1;
        }
    }
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
pub(crate) fn build_sharded(
    proto: Bdd,
    rules: &[crate::resolve::ResolvedConj],
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
    } else if threads <= 1 || bounds.len() == 1 {
        let mut out = Vec::with_capacity(bounds.len());
        for &(lo, hi) in &bounds {
            out.push(build_shard(
                proto.clone_empty(),
                &rules[lo..hi],
                &rule_actions[lo..hi],
            )?);
        }
        out
    } else {
        let workers = threads.min(bounds.len());
        std::thread::scope(|s| {
            let bounds = &bounds;
            let proto = &proto;
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    s.spawn(move || {
                        let mut out = Vec::new();
                        for i in (w..bounds.len()).step_by(workers) {
                            let (lo, hi) = bounds[i];
                            let built = build_shard(
                                proto.clone_empty(),
                                &rules[lo..hi],
                                &rule_actions[lo..hi],
                            );
                            out.push((i, built));
                        }
                        out
                    })
                })
                .collect();
            let mut slots: Vec<Option<BuiltShard>> = bounds.iter().map(|_| None).collect();
            for h in handles {
                for (i, built) in h.join().expect("shard build panicked") {
                    slots[i] = Some(built?);
                }
            }
            Ok::<_, CompileError>(
                slots
                    .into_iter()
                    .map(|s| s.expect("every logical shard built"))
                    .collect(),
            )
        })?
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
        level = if threads <= 1 || pairs.len() == 1 {
            pairs
                .into_iter()
                .map(|((mut a, ua), (b, ub))| {
                    a.union_with(&b);
                    (a, ua + ub)
                })
                .collect()
        } else {
            let workers = threads.min(pairs.len());
            let per_chunk = pairs.len().div_ceil(workers);
            let mut slots: Vec<Option<BuiltShard>> = pairs.iter().map(|_| None).collect();
            let mut pairs: Vec<Option<(BuiltShard, BuiltShard)>> =
                pairs.into_iter().map(Some).collect();
            std::thread::scope(|s| {
                let handles: Vec<_> = pairs
                    .chunks_mut(per_chunk)
                    .enumerate()
                    .map(|(c, chunk)| {
                        s.spawn(move || {
                            chunk
                                .iter_mut()
                                .enumerate()
                                .map(|(j, slot)| {
                                    let ((mut a, ua), (b, ub)) =
                                        slot.take().expect("pair taken once");
                                    a.union_with(&b);
                                    (c, j, (a, ua + ub))
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                for h in handles {
                    for (c, j, merged) in h.join().expect("merge worker panicked") {
                        slots[c * per_chunk + j] = Some(merged);
                    }
                }
            });
            slots
                .into_iter()
                .map(|s| s.expect("every pair merged"))
                .collect()
        };
        level.extend(odd);
    }
    let (merged, unsat) = level.pop().expect("at least one shard");
    let allocated = merged.node_count();
    let canonical = merged.canonical_copy();
    merge_timer.stop_into(spans, SpanKind::ShardMerge);
    Ok((canonical, unsat, allocated))
}

/// Runs dynamic compilation against a static pipeline.
///
/// `shards` controls the worker-thread count of the parallel BDD build
/// (0 = one worker per available core); the emitted program is
/// bit-identical at any value.
pub fn compile_dynamic(
    resolved: &Resolved,
    statics: &StaticPipeline,
    rules_in: usize,
    semantic_pruning: bool,
    shards: usize,
) -> Result<DynamicProgram, CompileError> {
    let mut es = EmissionState::new();

    // The full predicate alphabet — every shard shares one variable
    // order, the precondition for merging.
    let alphabet: Vec<Pred> = resolved
        .rules
        .iter()
        .flat_map(|r| r.literals.iter().map(|(p, _)| *p))
        .collect();
    let mut proto = Bdd::new(resolved.fields.infos.clone(), alphabet)?;
    proto.set_semantic_pruning(semantic_pruning);

    // Intern actions sequentially, before sharding, so action ids are a
    // function of rule order alone.
    let rule_actions: Vec<Vec<ActionId>> = resolved
        .rules
        .iter()
        .map(|conj| conj.actions.iter().map(|a| es.intern_action(a)).collect())
        .collect();

    let shards = resolve_shards(shards, resolved.rules.len());
    let mut spans = SpanSet::new();
    let (bdd, unsat, allocated_nodes) =
        build_sharded(proto, &resolved.rules, &rule_actions, shards, &mut spans)?;

    let emit_timer = SpanTimer::start();
    let (tables, initial_state, _) = emit_tables(&bdd, statics, &mut es, shards)?;
    emit_timer.stop_into(&mut spans, SpanKind::EmitTables);
    debug_assert_eq!(initial_state, 0, "fresh emission numbers the root first");

    let table_entries: Vec<(String, usize)> =
        tables.iter().map(|t| (t.name.clone(), t.len())).collect();
    let total_entries = table_entries.iter().map(|(_, n)| n).sum();
    let bdd_stats = bdd.stats();
    let (memo_hits, memo_misses) = bdd.memo_stats();
    let stats = CompileStats {
        rules_in,
        conjunctions: resolved.rules.len(),
        unsat_conjunctions: unsat,
        bdd_nodes: bdd_stats.reachable_nodes,
        bdd_terminals: bdd_stats.reachable_terminals,
        table_entries,
        total_entries,
        mcast_groups: es.mcast.len(),
        states: es.next_state as usize,
        shards,
        allocated_nodes,
        memo_hits,
        memo_misses,
    };
    Ok(DynamicProgram {
        tables,
        mcast: es.mcast,
        stats,
        bdd,
        spans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolve::resolve;
    use crate::statics::{build_static, Encap};
    use camus_bdd::order::OrderHeuristic;
    use camus_lang::{parse_program, parse_spec};

    fn compile(src: &str) -> (DynamicProgram, StaticPipeline) {
        let spec = parse_spec(camus_lang::spec::ITCH_SPEC).unwrap();
        let rules = parse_program(src).unwrap();
        let resolved = resolve(&spec, &rules, OrderHeuristic::SpecOrder).unwrap();
        let statics = build_static(&spec, &resolved.fields, &Encap::Raw).unwrap();
        let dynp = compile_dynamic(&resolved, &statics, rules.len(), true, 0).unwrap();
        (dynp, statics)
    }

    /// The paper's Figure 3/4 example: three rules over shares and
    /// stock compile to a Shares table, a Stock table and a Leaf table.
    #[test]
    fn figure4_tables() {
        let (dynp, _) = compile(
            "shares < 60 and stock == AAPL : fwd(1)\n\
             stock == AAPL : fwd(2)\n\
             shares > 100 and stock == MSFT : fwd(3)",
        );
        assert_eq!(dynp.tables.len(), 3);
        assert_eq!(dynp.tables[0].name, "t_add_order_shares");
        assert_eq!(dynp.tables[1].name, "t_add_order_stock");
        assert_eq!(dynp.tables[2].name, "t_actions");
        // Shares: 3 paths (Fig. 4 rows). Stock: AAPL/MSFT/exclusion rows.
        assert_eq!(dynp.tables[0].len(), 3);
        assert!(dynp.tables[1].len() >= 3);
        // fwd(1,2) merged into one multicast group.
        assert_eq!(dynp.stats.mcast_groups, 1);
        assert!(dynp.stats.total_entries >= 9);
    }

    #[test]
    fn stats_count_rules_and_states() {
        let (dynp, _) = compile("stock == GOOGL : fwd(1)\nstock == MSFT : fwd(2)");
        assert_eq!(dynp.stats.rules_in, 2);
        assert_eq!(dynp.stats.conjunctions, 2);
        assert_eq!(dynp.stats.unsat_conjunctions, 0);
        assert!(dynp.stats.states >= 3);
        assert_eq!(dynp.stats.mcast_groups, 0); // unicast only
    }

    #[test]
    fn unsat_conjunctions_are_counted() {
        let (dynp, _) = compile("shares < 10 and shares > 20 : fwd(1)\nstock == A : fwd(2)");
        assert_eq!(dynp.stats.unsat_conjunctions, 1);
    }

    #[test]
    fn multicast_groups_dedupe_port_sets() {
        let (dynp, _) = compile(
            "stock == GOOGL : fwd(1,2)\n\
             stock == MSFT : fwd(1,2)\n\
             stock == ORCL : fwd(3,4)",
        );
        assert_eq!(dynp.stats.mcast_groups, 2);
    }

    #[test]
    fn empty_rule_set_compiles_to_empty_leaf() {
        let (dynp, _) = compile("# nothing\n");
        assert_eq!(dynp.tables.len(), 1);
        assert_eq!(dynp.tables[0].len(), 0);
        assert_eq!(dynp.stats.total_entries, 0);
    }

    #[test]
    fn control_plane_rendering_mentions_tables() {
        let (dynp, _) = compile("stock == GOOGL and price > 100 : fwd(1)");
        let cp = dynp.render_control_plane();
        assert!(cp.contains("table_add t_add_order_price"));
        assert!(cp.contains("table_add t_actions"));
        assert!(cp.contains("fwd(1)"));
    }

    #[test]
    fn register_ops_link_to_slots() {
        let (dynp, statics) = compile("stock == GOOGL : fwd(1); my_counter <- incr()");
        assert_eq!(statics.registers.len(), 1);
        let leaf = dynp.tables.last().unwrap();
        let has_reg = leaf.entries().any(|e| {
            e.ops
                .iter()
                .any(|op| matches!(op, ActionOp::Register { .. }))
        });
        assert!(has_reg);
    }
}
