//! Incremental recompilation — the extension §3 sketches:
//!
//! > "Highly dynamic queries would require an incremental algorithm,
//! > both to reduce compilation time and to minimize the number of
//! > state updates in the network. Prior work has demonstrated that
//! > such incremental algorithms are feasible. BDDs — our primary
//! > internal data structure — can leverage memoization, and state
//! > updates can benefit from table entry re-use."
//!
//! An [`IncrementalCompiler`] keeps the BDD, the pipeline-state
//! numbering and the multicast-group allocation alive across updates.
//! Both directions of a mutation are local rewrites of that one live
//! diagram:
//!
//! * **adding** a rule unions its conjunctions into the diagram
//!   (memoized `apply` — no rebuild from scratch);
//! * **removing** a rule *strips* its conjunctions — the same `apply`
//!   with set difference at the terminals ([`Bdd::strip_rule`]) — and
//!   then *re-asserts* the surviving conjunctions that could have
//!   shared an action with it. Terminals are action **sets**: stripping
//!   `fwd(1)` under the removed rule's region also deletes it where
//!   another rule forwards to port 1, and re-adding that rule (an
//!   idempotent union, [`Bdd::reassert_rule`]) puts it back. The
//!   session keeps every active rule's resolved conjunctions for
//!   exactly this;
//! * either way unchanged BDD vertices keep their state ids and
//!   unchanged port sets their group ids, so the regenerated tables
//!   share most entries with the installed ones, and the update is
//!   reported as a per-table **entry diff** (adds/removes/kept) —
//!   exactly what a control plane would push to the switch. The diff is
//!   directly executable: [`apply_delta`] splices it into a running
//!   [`Pipeline`] without reallocating the match engines, and
//!   [`UpdateReport::apply_to`] is the one-call version — the
//!   hardware-facing meaning of a report, which the differential suites
//!   hold a spliced mirror to. A data plane that swaps whole programs
//!   anyway (`camus-engine`'s RCU workers, a fabric re-slicing its
//!   master) installs [`UpdateReport::pipeline`] and never splices.
//!
//! The first install into an *empty* session is the one exception to
//! rule-by-rule insertion: it runs the cold compiler's sharded build,
//! so starting a session over N rules costs what compiling N rules
//! costs. After an update the session compacts its diagram whenever
//! dead nodes outnumber live ones (`COMPACT_RATIO`); state ids are
//! re-keyed through the compaction, so no table entry moves.
//!
//! The predicate alphabet and the field table are fixed when the
//! session is created (they determine the static pipeline). A bare
//! [`IncrementalCompiler::install`] of rules that need new predicates
//! or new state slots fails *atomically* with
//! [`CompileError::NeedsFullRecompile`] — the session is left exactly
//! as it was. [`IncrementalCompiler::update`] goes one step further
//! and round-trips that fallback through the same channel: an
//! out-of-alphabet addition triggers an internal full recompile over
//! the cumulative rule set (alphabet: the session's pool plus whatever
//! installed rule lies outside it), and the resulting [`UpdateReport`]
//! is flagged `full_rebuild` so consumers swap the whole pipeline
//! instead of splicing entries. Nothing else does.
//!
//! Both calls are **atomic on error**: everything that can reject a
//! batch — resolving it against spec and alphabet, compiling the fresh
//! session of a rebuild — runs before the first mutation, so an `Err`
//! leaves the rule set, the diagram and the baseline the next update
//! diffs against as they were. To take back an update that *succeeded*
//! (`camusd`, when admission rejects the program) apply the inverse,
//! `update(remove, add)`: the removed rules are still inside the
//! alphabet, so it is a rewrite, never a rebuild, and restores the rule
//! set as a set and every packet's forwarding — not the state ids,
//! which only a consumer of `deltas` would notice. What a taken-back
//! rebuild added to the alphabet goes at the next rebuild.

use std::collections::HashMap;

use camus_bdd::pred::{ActionId, Pred, PredOp};
use camus_bdd::Bdd;
use camus_lang::ast::Rule;
use camus_lang::spec::Spec;
use camus_pipeline::pipeline::Pipeline;
use camus_pipeline::table::{ActionOp, Entry, Key, Table};
use camus_telemetry::SpanSet;

use crate::compile::CompilerOptions;
use crate::dynamic::{build_sharded, emit_tables, resolve_shards, EmissionState};
use crate::error::CompileError;
use crate::resolve::{resolve, resolve_incremental, FieldTable, ResolveOptions, ResolvedConj};
use crate::statics::{build_static, StaticPipeline};

/// The session compacts its diagram after an update that leaves more
/// than this many allocated nodes per reachable node.
const COMPACT_RATIO: usize = 2;

/// Per-table entry delta of one update.
///
/// Carries everything a data plane needs to apply the update in place:
/// the exact entries to pull and push (multiset semantics), plus the
/// table's key/default shape so a table that first appears mid-session
/// can be created on the fly. An update's deltas enumerate the *full*
/// table list of the new program in execution order; tables that
/// vanished entirely trail the list with `dropped` set.
#[derive(Debug, Clone, PartialEq)]
pub struct TableDelta {
    /// Table name.
    pub table: String,
    /// The table's keys (to create it if the data plane lacks it).
    pub keys: Vec<Key>,
    /// The table's miss action (ditto).
    pub default_ops: Vec<ActionOp>,
    /// Entries present now but not before.
    pub adds: Vec<Entry>,
    /// Entries present before but not now.
    pub removes: Vec<Entry>,
    /// Entries unchanged (reused on the switch).
    pub kept: usize,
    /// The table no longer exists in the new program.
    pub dropped: bool,
}

impl TableDelta {
    /// Number of entries added.
    pub fn added(&self) -> usize {
        self.adds.len()
    }

    /// Number of entries removed.
    pub fn removed(&self) -> usize {
        self.removes.len()
    }
}

/// The result of one incremental installation.
#[derive(Debug)]
pub struct UpdateReport {
    /// Rules installed by this update.
    pub rules_added: usize,
    /// Rules removed by this update (stripped from the live diagram;
    /// removing a rule that is not active counts nothing).
    pub rules_removed: usize,
    /// Conjunctions rejected as unsatisfiable.
    pub unsat_conjunctions: usize,
    /// Per-table entry deltas vs. the previously installed tables.
    pub deltas: Vec<TableDelta>,
    /// Total entries now installed.
    pub total_entries: usize,
    /// Entries the control plane would add.
    pub entries_added: usize,
    /// Entries the control plane would remove.
    pub entries_removed: usize,
    /// Entries reused in place.
    pub entries_kept: usize,
    /// Cumulative BDD apply-memo (hits, misses).
    pub memo: (u64, u64),
    /// The update required a full recompile (a widened alphabet or a
    /// new state slot): the statics may have moved, so consumers must
    /// swap `pipeline` wholesale instead of splicing `deltas`.
    pub full_rebuild: bool,
    /// A fresh executable pipeline reflecting the updated program.
    pub pipeline: Pipeline,
}

impl UpdateReport {
    /// Applies this update to a running pipeline in place.
    ///
    /// Delta updates splice the per-table entry diffs (reusing the
    /// existing match-engine allocations) and refresh the multicast
    /// groups and initial-state assignment. Full rebuilds replace the
    /// whole pipeline, carrying register state over positionally so
    /// `@query_counter` windows survive the swap. Either way the
    /// pipeline comes back prepared, its tables holding exactly the
    /// entries of [`UpdateReport::pipeline`]'s, table by table.
    ///
    /// A delta only applies to the lineage it was diffed against: an
    /// error means `pipeline` was not maintained from this session's
    /// reports (an entry the delta removes is missing), and may leave
    /// it partially updated.
    pub fn apply_to(&self, pipeline: &mut Pipeline) -> Result<(), CompileError> {
        if self.full_rebuild {
            let old_registers = std::mem::take(&mut pipeline.registers);
            *pipeline = self.pipeline.clone();
            pipeline.registers.carry_from(&old_registers);
        } else {
            apply_delta(pipeline, &self.deltas)?;
            pipeline.mcast = self.pipeline.mcast.clone();
            pipeline.init_fields = self.pipeline.init_fields.clone();
        }
        pipeline.prepare();
        Ok(())
    }
}

/// Applies per-table entry deltas to a pipeline in place — the
/// reusable core of the update plane.
///
/// The delta list is treated as the complete table enumeration of the
/// new program (which is what [`IncrementalCompiler`] emits): tables
/// are reordered to match it, tables appearing for the first time are
/// created from the delta's carried keys, and `dropped` tables are
/// removed. Entry removal uses multiset semantics; kept entries keep
/// their relative order so equal-priority tie-breaks are stable. Any
/// pre-existing table the deltas do not mention is kept untouched
/// after the enumerated ones (this cannot happen for deltas from the
/// owning session).
pub fn apply_delta(pipeline: &mut Pipeline, deltas: &[TableDelta]) -> Result<(), CompileError> {
    fn take(old: &mut [Option<Table>], name: &str) -> Option<Table> {
        old.iter_mut()
            .find(|t| t.as_ref().is_some_and(|t| t.name == name))
            .and_then(Option::take)
    }
    let mut old: Vec<Option<Table>> = std::mem::take(&mut pipeline.tables)
        .into_iter()
        .map(Some)
        .collect();
    let mut tables = Vec::with_capacity(deltas.len());
    for d in deltas {
        if d.dropped {
            take(&mut old, &d.table);
            continue;
        }
        let mut t = take(&mut old, &d.table)
            .unwrap_or_else(|| Table::new(d.table.clone(), d.keys.clone(), d.default_ops.clone()));
        t.splice_entries(&d.removes, &d.adds)?;
        tables.push(t);
    }
    tables.extend(old.into_iter().flatten());
    pipeline.tables = tables;
    Ok(())
}

/// One resolved conjunction as the BDD takes it: literals and the
/// interned ids of the actions they guard.
type Conj = (Vec<(Pred, bool)>, Vec<ActionId>);

/// Whether re-adding `other` could restore something that stripping
/// `stripped` deleted: they share an action, and no literal pair proves
/// their regions disjoint. A `true` too many only costs an idempotent
/// union; the disjointness test is what keeps a removal from
/// re-adding every rule that forwards to the same port.
fn may_share_terminals(stripped: &Conj, other: &Conj) -> bool {
    let disjoint = |&(p, pol): &(Pred, bool), &(q, qpol): &(Pred, bool)| {
        (p == q && pol != qpol)
            || (pol
                && qpol
                && p.field == q.field
                && p.op == PredOp::Eq
                && q.op == PredOp::Eq
                && p.value != q.value)
    };
    stripped.1.iter().any(|a| other.1.contains(a))
        && !stripped
            .0
            .iter()
            .any(|l| other.0.iter().any(|m| disjoint(l, m)))
}

/// A long-lived compilation session supporting rule updates.
#[derive(Debug)]
pub struct IncrementalCompiler {
    spec: Spec,
    options: CompilerOptions,
    fields: FieldTable,
    statics: StaticPipeline,
    bdd: Bdd,
    es: EmissionState,
    /// Entry multisets of the currently installed tables.
    installed: HashMap<String, HashMap<Entry, usize>>,
    /// The rules that fix the predicate alphabet: the `pool` the
    /// session was created over, then what rebuilds have added since.
    alphabet: Vec<Rule>,
    pool: usize,
    /// The cumulative active rule set, in installation order.
    active: Vec<Rule>,
    /// `conjs[i]`: what `active[i]` put into the diagram — what removing
    /// it must strip, and what a neighbour's removal may re-assert.
    conjs: Vec<Vec<Conj>>,
}

impl IncrementalCompiler {
    /// Creates a session. `alphabet_rules` fix the predicate universe
    /// and the field table (they are *not* installed): every later
    /// `install` may only use predicates that appear here. Typically
    /// the initial subscription set, optionally padded with the
    /// predicates expected to arrive later.
    pub fn new(
        spec: Spec,
        options: &CompilerOptions,
        alphabet_rules: &[Rule],
    ) -> Result<Self, CompileError> {
        let ropts = ResolveOptions {
            heuristic: options.heuristic,
            default_window_us: options.default_window_us,
        };
        let resolved = resolve(&spec, alphabet_rules, &ropts)?;
        let statics = build_static(&spec, &resolved.fields, &options.encap)?;
        let alphabet: Vec<Pred> = resolved
            .rules
            .iter()
            .flat_map(|r| r.literals.iter().map(|(p, _)| *p))
            .collect();
        let mut bdd = Bdd::new(resolved.fields.infos.clone(), alphabet)?;
        bdd.set_semantic_pruning(options.semantic_pruning);
        Ok(IncrementalCompiler {
            spec,
            options: options.clone(),
            fields: resolved.fields,
            statics,
            bdd,
            es: EmissionState::new(),
            installed: HashMap::new(),
            alphabet: alphabet_rules.to_vec(),
            pool: alphabet_rules.len(),
            active: Vec::new(),
            conjs: Vec::new(),
        })
    }

    /// The cumulative active rule set, in installation order.
    pub fn active_rules(&self) -> &[Rule] {
        &self.active
    }

    /// Installs additional rules and regenerates the tables, reporting
    /// the entry diff against the previously installed version.
    ///
    /// Atomic: if any rule needs a predicate outside the session's
    /// alphabet (or a new state slot), the whole batch is rejected with
    /// [`CompileError::NeedsFullRecompile`] and the session is left
    /// untouched. Use [`IncrementalCompiler::update`] to fall back to
    /// a rebuild automatically.
    pub fn install(&mut self, rules: &[Rule]) -> Result<UpdateReport, CompileError> {
        let resolved = self.resolve_in_alphabet(rules)?;
        self.rewrite(rules, resolved, &[])
    }

    /// Applies a combined add/remove update, reporting through the
    /// same delta channel whichever path it takes.
    ///
    /// Additions and removals within the alphabet rewrite the live
    /// diagram (removals first) and come back as one entry diff.
    /// Additions needing new predicates or state slots fall back to an
    /// internal full recompile of the cumulative rule set (widening the
    /// alphabet with the new rules); the report then carries
    /// [`UpdateReport::full_rebuild`] so consumers swap the pipeline
    /// wholesale. Removing a rule that is not active is a no-op. An
    /// `Err` leaves the session untouched (module docs).
    pub fn update(&mut self, add: &[Rule], remove: &[Rule]) -> Result<UpdateReport, CompileError> {
        match self.resolve_in_alphabet(add) {
            Ok(resolved) => self.rewrite(add, resolved, remove),
            Err(CompileError::NeedsFullRecompile(_)) => self.rebuild(add, remove),
            Err(e) => Err(e),
        }
    }

    /// Resolves a batch against the frozen field table and checks every
    /// predicate against the alphabet. Mutates nothing, so a rejected
    /// batch cannot leave the BDD (or the action intern table)
    /// half-updated.
    fn resolve_in_alphabet(&self, rules: &[Rule]) -> Result<Vec<ResolvedConj>, CompileError> {
        let resolved = resolve_incremental(&self.spec, &self.fields, rules)?;
        for conj in &resolved {
            for (p, _) in &conj.literals {
                if !self.bdd.has_pred(p) {
                    return Err(CompileError::NeedsFullRecompile(format!(
                        "predicate {p} is outside the session's alphabet"
                    )));
                }
            }
        }
        Ok(resolved)
    }

    /// Rewrites the live diagram — strips `remove`, re-asserts what the
    /// strip may have taken from surviving rules, inserts `add` (already
    /// `resolved`) — and reports the resulting entry diff.
    fn rewrite(
        &mut self,
        add: &[Rule],
        resolved: Vec<ResolvedConj>,
        remove: &[Rule],
    ) -> Result<UpdateReport, CompileError> {
        let mut stripped: Vec<Conj> = Vec::new();
        let mut rules_removed = 0usize;
        for r in remove {
            if let Some(i) = self.active.iter().position(|t| t == r) {
                self.active.remove(i);
                stripped.extend(self.conjs.remove(i));
                rules_removed += 1;
            }
        }
        for (literals, ids) in &stripped {
            self.bdd.strip_rule(literals, ids)?;
        }
        for conj in self.conjs.iter().flatten() {
            if stripped.iter().any(|s| may_share_terminals(s, conj)) {
                self.bdd.reassert_rule(&conj.0, &conj.1)?;
            }
        }

        let ids: Vec<Vec<ActionId>> = resolved
            .iter()
            .map(|c| c.actions.iter().map(|a| self.es.intern_action(a)).collect())
            .collect();
        let unsat = if self.active.is_empty() && !resolved.is_empty() {
            // Nothing installed: build like the cold compiler does
            // (sharded, merged, canonical) instead of rule by rule.
            let threads = resolve_shards(self.options.compile_shards, resolved.len());
            let (built, unsat, _) = build_sharded(
                self.bdd.clone_empty(),
                &resolved,
                &ids,
                threads,
                &mut SpanSet::new(),
            )?;
            self.bdd = built;
            // State ids are keyed by vertices of the diagram just dropped.
            self.es.state_of.clear();
            unsat
        } else {
            let mut unsat = 0usize;
            for (conj, ids) in resolved.iter().zip(&ids) {
                if !self.bdd.add_rule(&conj.literals, ids)? {
                    unsat += 1;
                }
            }
            unsat
        };
        let first = self.conjs.len();
        self.conjs.resize_with(first + add.len(), Vec::new);
        for (conj, ids) in resolved.into_iter().zip(ids) {
            self.conjs[first + conj.source_rule].push((conj.literals, ids));
        }
        self.active.extend_from_slice(add);

        // Deltas are small; single-threaded translation avoids spawning
        // workers on every update.
        let (tables, initial_state, reachable) =
            emit_tables(&self.bdd, &self.statics, &mut self.es, 1)?;
        let (deltas, added, removed, kept) = diff_tables(&tables, &mut self.installed);
        self.installed = tables
            .iter()
            .map(|t| {
                let mut multiset: HashMap<Entry, usize> = HashMap::new();
                for e in t.entries() {
                    *multiset.entry(e.clone()).or_insert(0) += 1;
                }
                (t.name.clone(), multiset)
            })
            .collect();
        if self.bdd.node_count() > COMPACT_RATIO * reachable {
            self.compact();
        }

        let total_entries = tables.iter().map(Table::len).sum();
        let pipeline = Pipeline {
            layout: self.statics.layout.clone(),
            parser: self.statics.parser.clone(),
            tables,
            mcast: self.es.mcast.clone(),
            registers: self.statics.registers.clone(),
            state_bindings: self.statics.state_bindings.clone(),
            init_fields: vec![(self.statics.state_meta, initial_state)],
            exec: Default::default(),
        };
        Ok(UpdateReport {
            rules_added: add.len(),
            rules_removed,
            unsat_conjunctions: unsat,
            deltas,
            total_entries,
            entries_added: added,
            entries_removed: removed,
            entries_kept: kept,
            memo: self.bdd.memo_stats(),
            full_rebuild: false,
            pipeline,
        })
    }

    /// Drops everything the diagram no longer reaches — dead nodes and
    /// action sets, the prune memo, the interned contexts — keeping
    /// every live vertex's state id.
    fn compact(&mut self) {
        let map = self.bdd.compact();
        self.es.rekey(&map);
    }

    /// Full-recompile fallback: rebuilds a fresh session over the
    /// cumulative rule set and adopts it, re-expressing the change as
    /// a diff against *this* session's installed tables.
    fn rebuild(&mut self, add: &[Rule], remove: &[Rule]) -> Result<UpdateReport, CompileError> {
        let mut target = self.active.clone();
        let mut rules_removed = 0usize;
        for r in remove {
            if let Some(i) = target.iter().position(|t| t == r) {
                target.remove(i);
                rules_removed += 1;
            }
        }
        target.extend_from_slice(add);
        // Beyond the pool the alphabet keeps only what is installed: a
        // batch a caller took back (or unsubscribed) stops widening it.
        let mut alphabet = self.alphabet[..self.pool].to_vec();
        let grown = self.alphabet[self.pool..].iter().chain(add);
        alphabet.extend(grown.filter(|r| target.contains(r)).cloned());

        let mut fresh = IncrementalCompiler::new(self.spec.clone(), &self.options, &alphabet)?;
        fresh.pool = self.pool;
        let mut report = fresh.install(&target)?;

        // The fresh session diffed against nothing; recompute the
        // deltas against the tables this session had installed so the
        // rebuild flows through the same reporting channel. (With a
        // moved field layout entries may compare unequal even when
        // behaviourally identical — the `full_rebuild` flag tells
        // consumers to swap wholesale regardless.)
        let mut old = std::mem::take(&mut self.installed);
        let (deltas, added, removed, kept) = diff_tables(&report.pipeline.tables, &mut old);
        report.deltas = deltas;
        report.entries_added = added;
        report.entries_removed = removed;
        report.entries_kept = kept;
        report.rules_added = add.len();
        report.rules_removed = rules_removed;
        report.full_rebuild = true;
        *self = fresh;
        Ok(report)
    }
}

/// Diffs freshly emitted tables against the previously installed
/// multisets (consumed), returning the deltas — full table enumeration
/// in execution order, dropped tables trailing — plus the aggregate
/// (added, removed, kept) counts.
fn diff_tables(
    tables: &[Table],
    installed: &mut HashMap<String, HashMap<Entry, usize>>,
) -> (Vec<TableDelta>, usize, usize, usize) {
    let mut deltas = Vec::with_capacity(tables.len());
    let (mut added, mut removed, mut kept) = (0usize, 0usize, 0usize);
    for t in tables {
        let mut old = installed.remove(&t.name).unwrap_or_default();
        let mut adds = Vec::new();
        let mut kept_here = 0usize;
        for e in t.entries() {
            match old.get_mut(e) {
                Some(c) if *c > 0 => {
                    *c -= 1;
                    kept_here += 1;
                }
                _ => adds.push(e.clone()),
            }
        }
        let mut removes = Vec::new();
        for (e, c) in &old {
            for _ in 0..*c {
                removes.push(e.clone());
            }
        }
        added += adds.len();
        removed += removes.len();
        kept += kept_here;
        deltas.push(TableDelta {
            table: t.name.clone(),
            keys: t.keys.clone(),
            default_ops: t.default_ops.clone(),
            adds,
            removes,
            kept: kept_here,
            dropped: false,
        });
    }
    // Tables that disappeared entirely (a field's last predicate went
    // away): everything they held is removed.
    let mut dropped: Vec<(String, HashMap<Entry, usize>)> = installed.drain().collect();
    dropped.sort_by(|a, b| a.0.cmp(&b.0));
    for (name, old) in dropped {
        let mut removes = Vec::new();
        for (e, c) in &old {
            for _ in 0..*c {
                removes.push(e.clone());
            }
        }
        removed += removes.len();
        deltas.push(TableDelta {
            table: name,
            keys: Vec::new(),
            default_ops: Vec::new(),
            adds: Vec::new(),
            removes,
            kept: 0,
            dropped: true,
        });
    }
    (deltas, added, removed, kept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use camus_lang::{parse_program, parse_spec};
    use camus_pipeline::PortId;
    use camus_workload::entry_multisets;

    fn session(alphabet: &str) -> IncrementalCompiler {
        let spec = parse_spec(camus_lang::spec::ITCH_SPEC).unwrap();
        let options = CompilerOptions::raw();
        IncrementalCompiler::new(spec, &options, &parse_program(alphabet).unwrap()).unwrap()
    }

    fn packet(symbol: &str, shares: u32, price: u32) -> Vec<u8> {
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

    const ALPHABET: &str = "stock == GOOGL : fwd(1)\n\
                            stock == MSFT : fwd(2)\n\
                            price > 100 : fwd(3)";

    #[test]
    fn staged_installs_accumulate_behaviour() {
        let mut s = session(ALPHABET);
        let r1 = s
            .install(&parse_program("stock == GOOGL : fwd(1)").unwrap())
            .unwrap();
        let mut p1 = r1.pipeline;
        assert_eq!(
            p1.process(&packet("GOOGL", 1, 1), 0).unwrap().ports,
            vec![PortId(1)]
        );
        assert!(p1.process(&packet("MSFT", 1, 1), 0).unwrap().dropped());

        let r2 = s
            .install(&parse_program("stock == MSFT : fwd(2)").unwrap())
            .unwrap();
        let mut p2 = r2.pipeline;
        assert_eq!(
            p2.process(&packet("GOOGL", 1, 1), 0).unwrap().ports,
            vec![PortId(1)]
        );
        assert_eq!(
            p2.process(&packet("MSFT", 1, 1), 0).unwrap().ports,
            vec![PortId(2)]
        );
        assert_eq!(s.active_rules().len(), 2);
    }

    #[test]
    fn update_reuses_most_entries() {
        let mut s = session(ALPHABET);
        let _ = s
            .install(&parse_program("stock == GOOGL : fwd(1)\nprice > 100 : fwd(3)").unwrap())
            .unwrap();
        let r = s
            .install(&parse_program("stock == MSFT : fwd(2)").unwrap())
            .unwrap();
        // The GOOGL and price entries survive the update.
        assert!(r.entries_kept > 0, "{r:?}");
        assert!(r.entries_added > 0);
        assert!(
            r.entries_kept >= r.entries_removed,
            "reuse should dominate churn: {:?}",
            r.deltas
        );
    }

    #[test]
    fn incremental_matches_full_compile_semantics() {
        // Install in two steps; compare against one full compile.
        let all = "stock == GOOGL : fwd(1)\nstock == MSFT : fwd(2)\nprice > 100 : fwd(3)";
        let mut s = session(ALPHABET);
        s.install(&parse_program("stock == GOOGL : fwd(1)\nstock == MSFT : fwd(2)").unwrap())
            .unwrap();
        let inc = s
            .install(&parse_program("price > 100 : fwd(3)").unwrap())
            .unwrap();
        let mut inc_pipe = inc.pipeline;

        let spec = parse_spec(camus_lang::spec::ITCH_SPEC).unwrap();
        let full = crate::Compiler::new(spec, CompilerOptions::raw())
            .unwrap()
            .compile(&parse_program(all).unwrap())
            .unwrap();
        let mut full_pipe = full.pipeline;

        for sym in ["GOOGL", "MSFT", "ORCL"] {
            for price in [0u32, 100, 101, 5000] {
                let pkt = packet(sym, 10, price);
                assert_eq!(
                    inc_pipe.process(&pkt, 0).unwrap().ports,
                    full_pipe.process(&pkt, 0).unwrap().ports,
                    "{sym} @ {price}"
                );
            }
        }
    }

    #[test]
    fn out_of_alphabet_predicates_need_full_recompile() {
        let mut s = session(ALPHABET);
        let err = s
            .install(&parse_program("price > 999 : fwd(4)").unwrap())
            .unwrap_err();
        assert!(matches!(err, CompileError::NeedsFullRecompile(_)), "{err}");
        // New aggregates are also a static change.
        let err = s
            .install(&parse_program("avg(price) > 10 : fwd(4)").unwrap())
            .unwrap_err();
        assert!(matches!(err, CompileError::NeedsFullRecompile(_)), "{err}");
    }

    #[test]
    fn same_action_alphabet_ports_are_fine() {
        // Actions are not part of the alphabet: any fwd() target works.
        let mut s = session(ALPHABET);
        let r = s
            .install(&parse_program("stock == GOOGL : fwd(77)").unwrap())
            .unwrap();
        let mut p = r.pipeline;
        assert_eq!(
            p.process(&packet("GOOGL", 1, 1), 0).unwrap().ports,
            vec![PortId(77)]
        );
    }

    #[test]
    fn memo_accumulates_across_installs() {
        let mut s = session(ALPHABET);
        s.install(&parse_program("stock == GOOGL : fwd(1)").unwrap())
            .unwrap();
        let r = s
            .install(&parse_program("stock == MSFT : fwd(2)").unwrap())
            .unwrap();
        assert!(r.memo.1 > 0, "misses counted");
    }

    #[test]
    fn empty_install_is_a_noop_diff() {
        let mut s = session(ALPHABET);
        s.install(&parse_program("stock == GOOGL : fwd(1)").unwrap())
            .unwrap();
        let r = s.install(&[]).unwrap();
        assert_eq!(r.entries_added, 0);
        assert_eq!(r.entries_removed, 0);
        assert!(r.entries_kept > 0);
    }

    /// Drives `steps` of `(add, remove, expect)` program text through
    /// one session, replaying every report onto a mirror pipeline, and
    /// after each step checks mirror and report against a cold compile
    /// of `expect` on the probe packets. Every step must stay on the
    /// delta path except those listed in `rebuilds`. (The add-only
    /// prefix of `remove_and_add_in_one_update` is the replay the
    /// retired `deltas_replay_onto_a_running_pipeline` checked.)
    fn check_delta_steps(steps: &[(&str, &str, &str)], rebuilds: &[usize]) {
        let mut s = session(ALPHABET);
        let mut mirror = s.install(&[]).unwrap().pipeline;
        let spec = parse_spec(camus_lang::spec::ITCH_SPEC).unwrap();
        let cold = crate::Compiler::new(spec, CompilerOptions::raw()).unwrap();
        for (k, (add, remove, expect)) in steps.iter().enumerate() {
            let (add, remove) = (parse_program(add).unwrap(), parse_program(remove).unwrap());
            let r = s.update(&add, &remove).unwrap();
            assert_eq!(r.full_rebuild, rebuilds.contains(&k), "step {k}");
            r.apply_to(&mut mirror).unwrap();
            assert_eq!(entry_multisets(&mirror), entry_multisets(&r.pipeline));
            let expect = parse_program(expect).unwrap();
            assert_eq!(s.active_rules().len(), expect.len(), "step {k}");
            assert!(expect.iter().all(|r| s.active_rules().contains(r)));
            let mut want = cold.compile(&expect).unwrap().pipeline;
            let mut fresh = r.pipeline;
            for (i, pkt) in probes().iter().enumerate() {
                // The third run shares the first two's register history.
                let w = want.process(pkt, 0).unwrap().ports;
                assert_eq!(
                    mirror.process(pkt, 0).unwrap().ports,
                    w,
                    "step {k} probe {i}"
                );
                assert_eq!(
                    fresh.process(pkt, 0).unwrap().ports,
                    w,
                    "step {k} probe {i}"
                );
            }
        }
    }

    fn probes() -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        for sym in ["GOOGL", "MSFT", "ORCL"] {
            for price in [0u32, 100, 101, 5000] {
                out.push(packet(sym, 10, price));
            }
        }
        out
    }

    #[test]
    fn update_removal_is_a_delta() {
        let mut s = session(ALPHABET);
        let rules = parse_program("stock == GOOGL : fwd(1)\nstock == MSFT : fwd(2)").unwrap();
        let r0 = s.update(&rules, &[]).unwrap();
        assert!(!r0.full_rebuild);
        let mut mirror = r0.pipeline.clone();

        // Remove the GOOGL rule: a handful of entry removals, spliced.
        let remove = parse_program("stock == GOOGL : fwd(1)").unwrap();
        let r = s.update(&[], &remove).unwrap();
        assert!(!r.full_rebuild);
        assert_eq!(r.rules_removed, 1);
        assert!(r.entries_removed > 0 && r.entries_kept > 0, "{r:?}");
        assert_eq!(s.active_rules().len(), 1);
        r.apply_to(&mut mirror).unwrap();
        assert!(mirror.process(&packet("GOOGL", 1, 1), 0).unwrap().dropped());
        assert_eq!(
            mirror.process(&packet("MSFT", 1, 1), 0).unwrap().ports,
            vec![PortId(2)]
        );
        // Removing an inactive rule is a no-op delta.
        let r = s.update(&[], &remove).unwrap();
        assert!(!r.full_rebuild);
        assert_eq!(r.rules_removed, 0);
        assert_eq!((r.entries_added, r.entries_removed), (0, 0));
        assert_eq!(s.active_rules().len(), 1);
    }

    #[test]
    fn removing_one_of_two_overlapping_rules_keeps_the_shared_action() {
        // Both rules forward to port 7 and overlap on GOOGL above 100.
        // Whichever goes, port 7 must survive where the other matches.
        let (narrow, wide) = (
            "stock == GOOGL and price > 100 : fwd(7)",
            "stock == GOOGL : fwd(7)",
        );
        let both = format!("{narrow}\n{wide}");
        check_delta_steps(&[(&both, "", &both), ("", narrow, wide)], &[]);
        check_delta_steps(&[(&both, "", &both), ("", wide, narrow)], &[]);
    }

    #[test]
    fn a_rule_installed_twice_survives_one_removal() {
        let rule = "stock == GOOGL : fwd(1)";
        let twice = format!("{rule}\n{rule}");
        check_delta_steps(
            &[(&twice, "", &twice), ("", rule, rule), ("", rule, "")],
            &[],
        );
    }

    #[test]
    fn removing_a_disjunctive_rule_strips_every_conjunction() {
        let or_rule = "stock == GOOGL or price > 100 : fwd(5)";
        let other = "stock == MSFT : fwd(5)";
        let both = format!("{or_rule}\n{other}");
        check_delta_steps(
            &[
                (&both, "", &both),
                ("", or_rule, other),
                (or_rule, other, or_rule),
            ],
            &[],
        );
    }

    #[test]
    fn removing_an_aggregate_rule_removes_its_observe_conjunction() {
        let alphabet = "stock == GOOGL and avg(price) > 50 : fwd(1)\n\
                        stock == MSFT and avg(price) > 50 : fwd(2)";
        let googl = "stock == GOOGL and avg(price) > 50 : fwd(1)";
        let msft = "stock == MSFT and avg(price) > 50 : fwd(2)";
        let mut s = session(alphabet);
        let both = parse_program(alphabet).unwrap();
        let r0 = s.update(&both, &[]).unwrap();
        let observes = |p: &Pipeline| {
            p.tables
                .last()
                .unwrap()
                .entries()
                .filter(|e| {
                    e.ops
                        .iter()
                        .any(|op| matches!(op, ActionOp::Register { .. }))
                })
                .count()
        };
        // {observe}, {observe, fwd(1)} and {observe, fwd(2)}.
        assert_eq!(observes(&r0.pipeline), 3);
        let r = s.update(&[], &parse_program(googl).unwrap()).unwrap();
        assert!(!r.full_rebuild);
        assert_eq!(observes(&r.pipeline), 2, "{{observe, fwd(1)}} is gone");
        // MSFT still observes and fires; GOOGL no longer does either.
        let mut p = r.pipeline;
        assert!(p.process(&packet("MSFT", 1, 100), 0).unwrap().dropped());
        assert_eq!(
            p.process(&packet("MSFT", 1, 100), 0).unwrap().ports,
            vec![PortId(2)]
        );
        assert!(p.process(&packet("GOOGL", 1, 100), 0).unwrap().dropped());
        assert!(p.process(&packet("GOOGL", 1, 100), 0).unwrap().dropped());
        let r = s.update(&[], &parse_program(msft).unwrap()).unwrap();
        assert_eq!(r.total_entries, 0);
    }

    #[test]
    fn removing_the_last_rule_of_a_symbol_drops_its_entries() {
        let mut s = session(ALPHABET);
        let base = parse_program("stock == GOOGL : fwd(1)").unwrap();
        let before = s.install(&base).unwrap().total_entries;
        let msft = parse_program("stock == MSFT : fwd(2)").unwrap();
        assert!(s.update(&msft, &[]).unwrap().total_entries > before);
        let r = s.update(&[], &msft).unwrap();
        assert_eq!(r.total_entries, before);
        let mut p = r.pipeline;
        assert!(p.process(&packet("MSFT", 1, 1), 0).unwrap().dropped());
        assert_eq!(
            p.process(&packet("GOOGL", 1, 1), 0).unwrap().ports,
            vec![PortId(1)]
        );
    }

    #[test]
    fn remove_and_add_in_one_update() {
        let (a, b, c, novel) = (
            "stock == GOOGL : fwd(1)",
            "stock == MSFT : fwd(2)",
            "price > 100 : fwd(1)",
            "price > 999 : fwd(4)",
        );
        check_delta_steps(
            &[
                (&format!("{a}\n{b}"), "", &format!("{a}\n{b}")),
                // `c` shares fwd(1) with the rule leaving in the same step.
                (c, a, &format!("{b}\n{c}")),
                // The inverse batch — how `camusd` takes back an update
                // its engine rejected — restores the rule set, also
                // from the session a never-seen constant's rebuild left.
                (a, c, &format!("{a}\n{b}")),
                (&format!("{c}\n{novel}"), a, &format!("{b}\n{c}\n{novel}")),
                (a, &format!("{c}\n{novel}"), &format!("{a}\n{b}")),
                (a, &format!("{a}\n{b}"), a),
            ],
            &[3],
        );
    }

    /// The contract `camusd` relies on: an `Err` — from resolving the
    /// batch, or from inside the rebuild an out-of-alphabet add forces —
    /// leaves the session as if the call had never been made.
    #[test]
    fn a_failed_install_or_update_leaves_the_session_untouched() {
        let base = parse_program("stock == GOOGL : fwd(1)\nstock == MSFT : fwd(2)").unwrap();
        let removal = &base[..1];
        // `volume` is no query field. The aggregate needs a state slot
        // the session lacks, which fails a bare `install` of the second
        // batch (in-alphabet rule and all) and sends its `update` to
        // `rebuild` before the bad rule is looked at.
        let unresolvable = parse_program("volume > 5 : fwd(9)").unwrap();
        let mixed = "price > 100 : fwd(3)\navg(price) > 10 : fwd(4)\nvolume > 5 : fwd(9)";
        let via_rebuild = parse_program(mixed).unwrap();

        let (mut s, mut untouched) = (session(ALPHABET), session(ALPHABET));
        s.update(&base, &[]).unwrap();
        untouched.update(&base, &[]).unwrap();
        let needs_rebuild = s.install(&via_rebuild).unwrap_err();
        assert!(matches!(needs_rebuild, CompileError::NeedsFullRecompile(_)));
        for bad in [&unresolvable, &via_rebuild] {
            let err = s.update(bad, removal).unwrap_err();
            assert!(matches!(err, CompileError::UnresolvedField(_)), "{err}");
            assert_eq!(s.active_rules(), &base[..]);
        }

        let next = parse_program("price > 100 : fwd(3)").unwrap();
        let got = s.update(&next, removal).unwrap();
        let want = untouched.update(&next, removal).unwrap();
        assert_eq!(s.active_rules(), untouched.active_rules());
        assert_eq!(
            (got.full_rebuild, got.entries_added, got.entries_removed),
            (false, want.entries_added, want.entries_removed)
        );
        assert_eq!(
            entry_multisets(&got.pipeline),
            entry_multisets(&want.pipeline)
        );
    }

    /// Novel batches that are taken back — `camusd` under a client
    /// whose subscribes keep failing admission — do not pile up in the
    /// alphabet: each rebuild drops what the last one's inverse removed.
    #[test]
    fn taken_back_rebuilds_do_not_accumulate_in_the_alphabet() {
        let mut s = session(ALPHABET);
        for i in 0..4 {
            let bomb = parse_program(&format!("price > {} : fwd(4)", 900 + i)).unwrap();
            assert!(s.update(&bomb, &[]).unwrap().full_rebuild);
            assert!(!s.update(&[], &bomb).unwrap().full_rebuild);
            assert_eq!((s.alphabet.len(), s.bdd.vars().len()), (s.pool + 1, 4));
        }
    }

    fn itch_pool(n: usize) -> Vec<Rule> {
        camus_workload::generate_itch_subscriptions(&camus_workload::ItchSubsConfig {
            subscriptions: n,
            ..Default::default()
        })
    }

    fn table_sizes(p: &Pipeline) -> Vec<(String, usize)> {
        p.tables.iter().map(|t| (t.name.clone(), t.len())).collect()
    }

    /// Reachable non-empty terminals of the session's diagram.
    fn live_terminals(bdd: &Bdd) -> usize {
        use camus_bdd::NodeRef;
        let mut seen = std::collections::HashSet::new();
        let mut note = |r: NodeRef| {
            if let NodeRef::Term(set) = r {
                if set != camus_bdd::store::EMPTY_ACTIONS {
                    seen.insert(set);
                }
            }
        };
        note(bdd.root());
        for r in bdd.reachable() {
            let n = bdd.node(r);
            note(n.lo);
            note(n.hi);
        }
        seen.len()
    }

    #[test]
    fn first_install_builds_like_a_cold_compile() {
        let pool = itch_pool(1000);
        let spec = parse_spec(camus_lang::spec::ITCH_SPEC).unwrap();
        let cold = crate::Compiler::new(spec.clone(), CompilerOptions::raw())
            .unwrap()
            .compile(&pool)
            .unwrap();
        let mut s = IncrementalCompiler::new(spec, &CompilerOptions::raw(), &pool).unwrap();
        let r = s.install(&pool).unwrap();
        assert_eq!(table_sizes(&r.pipeline), cold.stats.table_entries);
        assert_eq!(r.total_entries, cold.stats.total_entries);
        // ... and later installs take the rule-by-rule path on top of it.
        let r = s.update(&[], &pool[..1]).unwrap();
        assert!(!r.full_rebuild);
        assert!(r.entries_kept > r.entries_removed);
    }

    #[test]
    fn add_then_remove_cycles_never_outgrow_a_fresh_session() {
        let pool = itch_pool(300 + 32);
        let (base, churn) = pool.split_at(300);
        let spec = parse_spec(camus_lang::spec::ITCH_SPEC).unwrap();
        let opts = CompilerOptions::raw();
        let mut s = IncrementalCompiler::new(spec.clone(), &opts, &pool).unwrap();
        let fresh = s.install(base).unwrap();
        let mut last = None;
        for _cycle in 0..3 {
            for rule in churn {
                s.update(std::slice::from_ref(rule), &[]).unwrap();
                let r = s.update(&[], std::slice::from_ref(rule)).unwrap();
                assert!(!r.full_rebuild);
                // The leaf table holds exactly the terminals in use.
                let leaf = r.pipeline.tables.last().unwrap();
                assert_eq!(leaf.len(), live_terminals(&s.bdd));
                last = Some(r);
            }
        }
        let last = last.unwrap();
        for ((name, cycled), (_, cold)) in table_sizes(&last.pipeline)
            .into_iter()
            .zip(table_sizes(&fresh.pipeline))
        {
            assert!(
                cycled <= cold,
                "{name}: {cycled} entries after cycling, {cold} fresh"
            );
        }
        let mut cycled = last.pipeline;
        let mut cold = fresh.pipeline;
        for sym in 0..100 {
            for price in [0u32, 250, 500, 999] {
                let pkt = packet(&camus_workload::itch_subs::stock_symbol(sym), 1, price);
                assert_eq!(
                    cycled.process(&pkt, 0).unwrap().ports,
                    cold.process(&pkt, 0).unwrap().ports
                );
            }
        }
    }

    /// `rounds` add/remove rounds over `churn` rules on top of `base`,
    /// in two sessions: one compacting when the rule says so, one
    /// compacted by force after every update. Compaction must be
    /// invisible (equal reports, no entry moves) and must keep the
    /// diagram within `COMPACT_RATIO` of its live size.
    fn churn_with_and_without_forced_compaction(base: usize, churn: usize, rounds: usize) {
        let pool = itch_pool(base + churn);
        let spec = parse_spec(camus_lang::spec::ITCH_SPEC).unwrap();
        let opts = CompilerOptions::raw();
        let mut natural = IncrementalCompiler::new(spec.clone(), &opts, &pool).unwrap();
        let mut forced = IncrementalCompiler::new(spec, &opts, &pool).unwrap();
        natural.install(&pool[..base]).unwrap();
        forced.install(&pool[..base]).unwrap();
        let mut compactions = 0usize;
        let mut allocated = natural.bdd.node_count();
        for round in 0..rounds {
            let rule = std::slice::from_ref(&pool[base + round % churn]);
            for (add, remove) in [(rule, &[][..]), (&[][..], rule)] {
                let a = natural.update(add, remove).unwrap();
                let b = forced.update(add, remove).unwrap();
                assert_eq!(
                    (
                        a.entries_added,
                        a.entries_removed,
                        a.entries_kept,
                        a.total_entries
                    ),
                    (
                        b.entries_added,
                        b.entries_removed,
                        b.entries_kept,
                        b.total_entries
                    ),
                    "round {round}"
                );
                forced.compact();
                let still = forced.install(&[]).unwrap();
                assert_eq!((still.entries_added, still.entries_removed), (0, 0));

                let now = natural.bdd.node_count();
                compactions += usize::from(now < allocated);
                allocated = now;
                let reachable = natural.bdd.stats().reachable_nodes;
                assert!(
                    now <= COMPACT_RATIO * reachable,
                    "round {round}: {now} nodes allocated, {reachable} reachable"
                );
            }
        }
        assert!(compactions > 0, "the run never compacted");
        let (mut a, mut b) = (
            natural.install(&[]).unwrap().pipeline,
            forced.install(&[]).unwrap().pipeline,
        );
        assert_eq!(table_sizes(&a), table_sizes(&b));
        for sym in 0..100 {
            let pkt = packet(&camus_workload::itch_subs::stock_symbol(sym), 1, 500);
            assert_eq!(
                a.process(&pkt, 0).unwrap().ports,
                b.process(&pkt, 0).unwrap().ports
            );
        }
    }

    #[test]
    fn compaction_bounds_the_diagram_and_moves_no_entry() {
        churn_with_and_without_forced_compaction(200, 16, 60);
    }

    /// The nightly soak of the above: the benchmark's 64-rule churn pool
    /// over its 1 000-rule program (`cargo test --release -- --ignored`).
    #[test]
    #[ignore = "nightly: 2 000 rounds, release build"]
    fn session_memory_stays_bounded_over_2000_rounds() {
        churn_with_and_without_forced_compaction(1000, 64, 2000);
    }

    /// A session must never be slower to start than a cold compile of
    /// the same rules (rule by rule it was 7× slower at this size).
    #[test]
    #[ignore = "nightly: timing, release build"]
    fn installing_20000_rules_costs_what_a_cold_compile_costs() {
        let pool = itch_pool(20_000);
        let spec = parse_spec(camus_lang::spec::ITCH_SPEC).unwrap();
        let opts = CompilerOptions::default();
        let best_of_three = |f: &dyn Fn()| {
            (0..3)
                .map(|_| {
                    let t = std::time::Instant::now();
                    f();
                    t.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min)
        };
        let cold = best_of_three(&|| {
            let c = crate::Compiler::new(spec.clone(), opts.clone()).unwrap();
            c.compile(&pool).unwrap();
        });
        let session = best_of_three(&|| {
            let mut s = IncrementalCompiler::new(spec.clone(), &opts, &pool).unwrap();
            s.install(&pool).unwrap();
        });
        assert!(
            session <= 1.5 * cold,
            "session install {session:.2} s vs cold compile {cold:.2} s"
        );
    }

    #[test]
    fn update_widens_the_alphabet_on_demand() {
        let mut s = session(ALPHABET);
        s.update(&parse_program("stock == GOOGL : fwd(1)").unwrap(), &[])
            .unwrap();
        // `price > 999` is outside the alphabet: update() rebuilds
        // where install() refuses.
        let novel = parse_program("price > 999 : fwd(4)").unwrap();
        let r = s.update(&novel, &[]).unwrap();
        assert!(r.full_rebuild);
        let mut p = r.pipeline;
        assert_eq!(
            p.process(&packet("ORCL", 1, 5000), 0).unwrap().ports,
            vec![PortId(4)]
        );
        // The widened alphabet persists: the same predicate now
        // installs incrementally.
        let r = s
            .update(&parse_program("price > 999 : fwd(5)").unwrap(), &[])
            .unwrap();
        assert!(!r.full_rebuild);
    }

    #[test]
    fn rebuild_report_diffs_against_the_old_tables() {
        let mut s = session(ALPHABET);
        s.install(&parse_program("stock == GOOGL : fwd(1)\nstock == MSFT : fwd(2)").unwrap())
            .unwrap();
        let total_before: usize = s
            .installed
            .values()
            .map(|m| m.values().sum::<usize>())
            .sum();
        assert!(total_before > 0);
        let r = s
            .update(
                &parse_program("price > 999 : fwd(4)").unwrap(),
                &parse_program("stock == MSFT : fwd(2)").unwrap(),
            )
            .unwrap();
        assert!(r.full_rebuild);
        // The delta channel reports the transition, not a from-scratch
        // install: some entries survive the rebuild unchanged.
        assert!(r.entries_kept > 0, "{r:?}");
        assert!(r.entries_removed > 0, "{r:?}");
    }
}
