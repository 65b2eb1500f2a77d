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
//! * either way the work is the change, not the program. The session
//!   keeps one row group per live vertex that holds a state id (the
//!   root, every component entry, every reached terminal — module
//!   `rows`): an update builds rows only for the vertices it made,
//!   finds the groups that died by reference counting, and counts the
//!   new rows against the dead ones. Unchanged vertices keep their
//!   state ids and unchanged port sets their group ids; the new root,
//!   and a new vertex that took a dead one's place, take the dead
//!   vertex's id, so a one-rule change rewrites the rows around the
//!   edit and little else. A report is the next program
//!   ([`UpdateReport::pipeline`]) plus its entry counts (added/removed/
//!   kept against the previous program) — the number of switch writes
//!   the update costs. Only the tables whose rows changed are rebuilt
//!   and prepared; the others are shared with the previous program, so
//!   a consumer copying the report copies pointers. Every data plane
//!   here (the engine's RCU workers, a fabric re-slicing its master,
//!   `camusd`) installs the program whole.
//!
//! The first install into an *empty* session is the one exception to
//! rule-by-rule insertion: it runs the cold compiler's sharded build
//! and emission (one function serves both), so starting a session over
//! N rules costs what compiling N rules costs and yields the same
//! program, state ids included. After an update the session compacts
//! its diagram whenever dead nodes outnumber live ones
//! (`COMPACT_RATIO`); state ids and row groups are re-keyed through the
//! compaction, so no table entry moves.
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
//! is flagged `full_rebuild`: the statics may have moved. Nothing
//! else does.
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
//! which no packet observes. What a taken-back rebuild added to the
//! alphabet goes at the next rebuild.

use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

use camus_bdd::pred::{ActionId, Pred, PredOp};
use camus_bdd::Bdd;
use camus_lang::ast::Rule;
use camus_lang::spec::Spec;
use camus_pipeline::pipeline::Pipeline;
use camus_pipeline::table::Table;
use fxhash::{FxHashMap, FxHasher};

use crate::compile::CompilerOptions;
use crate::dynamic::{build_program, empty_diagram, EmissionState};
use crate::error::CompileError;
use crate::resolve::{resolve, resolve_incremental, FieldTable, ResolvedConj};
use crate::rows::{count_rows, RowGroups};
use crate::statics::{build_static, StaticPipeline};

/// The session compacts its diagram after an update that leaves more
/// than this many allocated nodes per reachable node.
const COMPACT_RATIO: usize = 2;

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
    /// Total entries now installed.
    pub total_entries: usize,
    /// Entries the control plane would add.
    pub entries_added: usize,
    /// Entries the control plane would remove.
    pub entries_removed: usize,
    /// Entries reused in place.
    pub entries_kept: usize,
    /// The update required a full recompile (a widened alphabet or a
    /// new state slot): the statics may have moved.
    pub full_rebuild: bool,
    /// The updated program, every table prepared; tables the update
    /// did not change are shared with the previous report's.
    pub pipeline: Pipeline,
}

/// The key `IncrementalCompiler::copies` files a rule under.
fn rule_key(rule: &Rule) -> u64 {
    let mut h = FxHasher::default();
    rule.hash(&mut h);
    h.finish()
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
    /// The current program's row groups and tables.
    rows: RowGroups,
    /// The rules that fix the predicate alphabet: the `pool` the
    /// session was created over, then what rebuilds have added since.
    alphabet: Vec<Rule>,
    pool: usize,
    /// The cumulative active rule set, in installation order.
    active: Vec<Rule>,
    /// `conjs[i]`: what `active[i]` put into the diagram — what removing
    /// it must strip, and what a neighbour's removal may re-assert.
    conjs: Vec<Vec<Conj>>,
    /// `seqs[i]`: the install number of `active[i]`, ascending.
    seqs: Vec<u64>,
    /// The install numbers of the rules guarding each action, the
    /// removed ones pruned when the action is next stripped: the only
    /// rules a removal may re-assert.
    by_action: FxHashMap<ActionId, Vec<u64>>,
    /// The install numbers of the active copies of each rule, oldest
    /// first, keyed by the rule's hash (`active` tells apart the rules
    /// of a colliding hash): how many copies are active, and where
    /// the oldest sits in `active`, without cloning a rule.
    copies: FxHashMap<u64, Vec<u64>>,
}

impl IncrementalCompiler {
    /// Creates a session. `alphabet_rules` fix the predicate universe
    /// and the field table (they are *not* installed): every later
    /// `install` may only use predicates that appear here. Typically
    /// the initial subscription set, optionally padded with the
    /// predicates expected to arrive later.
    ///
    /// [`CompilerOptions::compress_bits`] is refused with
    /// [`CompileError::BadSpec`]: domain compression rewrites whole
    /// tables, which would undo the row-group patching that makes an
    /// update cost the change.
    pub fn new(
        spec: Spec,
        options: &CompilerOptions,
        alphabet_rules: &[Rule],
    ) -> Result<Self, CompileError> {
        if options.compress_bits.is_some() {
            return Err(CompileError::BadSpec(
                "compress_bits is not supported by an incremental compiler session".into(),
            ));
        }
        let resolved = resolve(&spec, alphabet_rules, options.heuristic)?;
        let statics = build_static(&spec, &resolved.fields, &options.encap)?;
        let bdd = empty_diagram(&resolved, options.semantic_pruning)?;
        Ok(IncrementalCompiler {
            spec,
            options: options.clone(),
            fields: resolved.fields,
            statics,
            bdd,
            es: EmissionState::new(),
            rows: RowGroups::default(),
            alphabet: alphabet_rules.to_vec(),
            pool: alphabet_rules.len(),
            active: Vec::new(),
            conjs: Vec::new(),
            seqs: Vec::new(),
            by_action: FxHashMap::default(),
            copies: FxHashMap::default(),
        })
    }

    /// The cumulative active rule set, in installation order.
    pub fn active_rules(&self) -> &[Rule] {
        &self.active
    }

    /// How many copies of `rule` are active (a rule installed twice
    /// survives one removal).
    pub fn active_count(&self, rule: &Rule) -> usize {
        let copies = self
            .copies
            .get(&rule_key(rule))
            .map_or(&[][..], Vec::as_slice);
        copies
            .iter()
            .filter(|&&seq| self.copy_at(seq) == rule)
            .count()
    }

    /// The active rule installed as `seq`.
    fn copy_at(&self, seq: u64) -> &Rule {
        &self.active[self.seqs.partition_point(|&s| s < seq)]
    }

    /// The current program emitted from scratch — fresh row groups
    /// over the whole diagram with the session's state ids — for
    /// checking the live row groups against: the last report's tables
    /// hold the same entries, table by table, as multisets.
    pub fn emit_whole_diagram(&self) -> Result<Pipeline, CompileError> {
        let mut es = self.es.clone();
        let emitted = RowGroups::default().emit(&self.bdd, &self.statics, &mut es)?;
        Ok(self.program(emitted.tables, emitted.initial_state))
    }

    fn program(&self, tables: Vec<Table>, initial_state: u64) -> Pipeline {
        Pipeline {
            layout: self.statics.layout.clone(),
            parser: self.statics.parser.clone(),
            tables,
            mcast: self.es.mcast.clone(),
            registers: self.statics.registers.clone(),
            state_bindings: self.statics.state_bindings.clone(),
            init_fields: vec![(self.statics.state_meta, initial_state)],
            exec: Default::default(),
        }
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

    /// Applies a combined add/remove update, reporting the same counts
    /// whichever path it takes.
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
            if let Some(i) = self.take_oldest_copy(r) {
                self.active.remove(i);
                self.seqs.remove(i);
                stripped.extend(self.conjs.remove(i));
                rules_removed += 1;
            }
        }
        for (literals, ids) in &stripped {
            self.bdd.strip_rule(literals, ids)?;
        }
        let mut sharing = BTreeSet::new();
        for a in stripped.iter().flat_map(|(_, ids)| ids) {
            let filed = self
                .by_action
                .get_mut(a)
                .expect("a stripped action is filed");
            filed.retain(|seq| self.seqs.binary_search(seq).is_ok());
            sharing.extend(filed.iter().copied());
        }
        for seq in sharing {
            for conj in &self.conjs[self.seqs.partition_point(|&s| s < seq)] {
                if stripped.iter().any(|s| may_share_terminals(s, conj)) {
                    self.bdd.reassert_rule(&conj.0, &conj.1)?;
                }
            }
        }

        let ids = self.es.intern_actions(&resolved);
        let (unsat, emitted) = if self.active.is_empty() && !resolved.is_empty() {
            // Nothing installed: build like the cold compiler does
            // (sharded, merged, canonical) instead of rule by rule. Row
            // groups and state ids are keyed by vertices of the diagram
            // this drops.
            self.rows.retire(&mut self.es);
            let built = build_program(
                self.bdd.clone_empty(),
                &resolved,
                &ids,
                self.options.compile_shards,
                &self.statics,
                &mut self.es,
                &mut self.rows,
            )?;
            self.bdd = built.bdd;
            (built.unsat, built.emission)
        } else {
            let mut unsat = 0usize;
            for (conj, ids) in resolved.iter().zip(&ids) {
                if !self.bdd.add_rule(&conj.literals, ids)? {
                    unsat += 1;
                }
            }
            (
                unsat,
                self.rows.emit(&self.bdd, &self.statics, &mut self.es)?,
            )
        };
        let first = self.conjs.len();
        let seq0 = self.seqs.last().map_or(0, |s| s + 1);
        self.conjs.resize_with(first + add.len(), Vec::new);
        for (conj, ids) in resolved.into_iter().zip(ids) {
            for &a in &ids {
                let seq = seq0 + conj.source_rule as u64;
                self.by_action.entry(a).or_default().push(seq);
            }
            self.conjs[first + conj.source_rule].push((conj.literals, ids));
        }
        for (rule, seq) in add.iter().zip(seq0..) {
            self.seqs.push(seq);
            self.copies.entry(rule_key(rule)).or_default().push(seq);
        }
        self.active.extend_from_slice(add);

        if self.bdd.node_count() > COMPACT_RATIO * self.bdd.reachable_count() {
            self.compact();
        }
        let total_entries = emitted.added + emitted.kept;
        let mut pipeline = self.program(emitted.tables, emitted.initial_state);
        pipeline.prepare();
        Ok(UpdateReport {
            rules_added: add.len(),
            rules_removed,
            unsat_conjunctions: unsat,
            total_entries,
            entries_added: emitted.added,
            entries_removed: emitted.removed,
            entries_kept: emitted.kept,
            full_rebuild: false,
            pipeline,
        })
    }

    /// Forgets the oldest active copy of `rule`, returning its position
    /// in `active`; `None` when the rule is not active.
    fn take_oldest_copy(&mut self, rule: &Rule) -> Option<usize> {
        let key = rule_key(rule);
        let copies = self.copies.get(&key)?;
        let oldest = copies.iter().position(|&seq| self.copy_at(seq) == rule)?;
        let copies = self.copies.get_mut(&key)?;
        let seq = copies.remove(oldest);
        if copies.is_empty() {
            self.copies.remove(&key);
        }
        self.seqs.binary_search(&seq).ok()
    }

    /// Drops everything the diagram no longer reaches — dead nodes and
    /// action sets, the prune memo, the interned contexts — keeping
    /// every live vertex's state id.
    fn compact(&mut self) {
        let map = self.bdd.compact();
        self.es.rekey(&map);
        self.rows.rekey(&map);
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

        // The fresh session counted against nothing; recount against
        // the tables this session had installed, so a rebuild reports
        // the transition like any update — the one whole-table count,
        // as rebuilds are rare. (With a moved field layout entries may
        // compare unequal even when behaviourally identical.)
        fn tagged(t: &Table) -> impl Iterator<Item = (&str, &camus_pipeline::table::Entry)> {
            t.entries().map(move |e| (t.name.as_str(), e))
        }
        let before = self.rows.tables().flat_map(tagged);
        let (added, removed, kept, _) =
            count_rows(before, report.pipeline.tables.iter().flat_map(tagged));
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

#[cfg(test)]
mod tests {
    use super::*;
    use camus_itch::Side;
    use camus_lang::{parse_program, parse_spec};
    use camus_pipeline::table::ActionOp;
    use camus_pipeline::PortId;
    use camus_workload::{entry_diff, entry_multisets, raw_add_order, EpochOracle};
    use std::collections::HashMap;

    /// A one-share buy of `symbol` at `price`, as a raw add-order.
    fn order(symbol: &str, price: u32) -> Vec<u8> {
        raw_add_order(symbol, Side::Buy, 1, price)
    }

    fn session(alphabet: &str) -> IncrementalCompiler {
        let spec = parse_spec(camus_lang::spec::ITCH_SPEC).unwrap();
        let options = CompilerOptions::raw();
        IncrementalCompiler::new(spec, &options, &parse_program(alphabet).unwrap()).unwrap()
    }

    const ALPHABET: &str = "stock == GOOGL : fwd(1)\n\
                            stock == MSFT : fwd(2)\n\
                            price > 100 : fwd(3)";

    #[test]
    fn a_session_refuses_compress_bits() {
        let spec = parse_spec(camus_lang::spec::ITCH_SPEC).unwrap();
        let options = CompilerOptions {
            compress_bits: Some(8),
            ..CompilerOptions::raw()
        };
        let alphabet = parse_program(ALPHABET).unwrap();
        match IncrementalCompiler::new(spec, &options, &alphabet) {
            Err(CompileError::BadSpec(msg)) => assert!(msg.contains("compress_bits"), "{msg}"),
            other => panic!("expected BadSpec, got {other:?}"),
        }
    }

    #[test]
    fn staged_installs_accumulate_behaviour() {
        let mut s = session(ALPHABET);
        let r1 = s
            .install(&parse_program("stock == GOOGL : fwd(1)").unwrap())
            .unwrap();
        let mut p1 = r1.pipeline;
        assert_eq!(
            p1.process(&order("GOOGL", 1), 0).unwrap().ports,
            vec![PortId(1)]
        );
        assert!(p1.process(&order("MSFT", 1), 0).unwrap().dropped());

        let r2 = s
            .install(&parse_program("stock == MSFT : fwd(2)").unwrap())
            .unwrap();
        let mut p2 = r2.pipeline;
        assert_eq!(
            p2.process(&order("GOOGL", 1), 0).unwrap().ports,
            vec![PortId(1)]
        );
        assert_eq!(
            p2.process(&order("MSFT", 1), 0).unwrap().ports,
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
            "reuse should dominate churn: {} kept, {} removed",
            r.entries_kept,
            r.entries_removed
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
                let pkt = order(sym, price);
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
            p.process(&order("GOOGL", 1), 0).unwrap().ports,
            vec![PortId(77)]
        );
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
    /// one session and after each step holds the report's program to a
    /// cold compile of `expect` and the interpreter on the probe
    /// packets, and its counts to the entry diff from the previous
    /// report's program. Every step must stay on the delta path except
    /// those listed in `rebuilds`.
    fn check_delta_steps(steps: &[(&str, &str, &str)], rebuilds: &[usize]) {
        let mut s = session(ALPHABET);
        let mut prev = s.install(&[]).unwrap().pipeline;
        let spec = parse_spec(camus_lang::spec::ITCH_SPEC).unwrap();
        let cold = crate::Compiler::new(spec.clone(), CompilerOptions::raw()).unwrap();
        let mut oracle = EpochOracle::new(&spec, |rules| cold.compile(rules).unwrap().pipeline);
        let probes: Vec<Vec<u8>> = ["GOOGL", "MSFT", "ORCL"]
            .iter()
            .flat_map(|sym| [0u32, 100, 101, 5000].map(|p| order(sym, p)))
            .collect();
        for (k, (add, remove, expect)) in steps.iter().enumerate() {
            let (add, remove) = (parse_program(add).unwrap(), parse_program(remove).unwrap());
            let mut r = s.update(&add, &remove).unwrap();
            assert_eq!(r.full_rebuild, rebuilds.contains(&k), "step {k}");
            assert_eq!(
                (r.entries_added, r.entries_removed, r.entries_kept),
                entry_diff(&prev, &r.pipeline),
                "step {k}"
            );
            let expect = parse_program(expect).unwrap();
            assert_eq!(s.active_rules().len(), expect.len(), "step {k}");
            assert!(expect.iter().all(|r| s.active_rules().contains(r)));
            oracle.publish(&expect);
            oracle.check_pipeline(&mut r.pipeline, &probes);
            prev = r.pipeline;
        }
    }

    #[test]
    fn update_removal_is_a_delta() {
        let mut s = session(ALPHABET);
        let rules = parse_program("stock == GOOGL : fwd(1)\nstock == MSFT : fwd(2)").unwrap();
        let r0 = s.update(&rules, &[]).unwrap();
        assert!(!r0.full_rebuild);

        // Remove the GOOGL rule: a handful of entry removals.
        let remove = parse_program("stock == GOOGL : fwd(1)").unwrap();
        let r = s.update(&[], &remove).unwrap();
        assert!(!r.full_rebuild);
        assert_eq!(r.rules_removed, 1);
        assert!(r.entries_removed > 0 && r.entries_kept > 0, "{r:?}");
        assert_eq!(
            (r.entries_added, r.entries_removed, r.entries_kept),
            entry_diff(&r0.pipeline, &r.pipeline)
        );
        assert_eq!(s.active_rules().len(), 1);
        let mut p = r.pipeline;
        assert!(p.process(&order("GOOGL", 1), 0).unwrap().dropped());
        assert_eq!(
            p.process(&order("MSFT", 1), 0).unwrap().ports,
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
        assert!(p.process(&order("MSFT", 100), 0).unwrap().dropped());
        assert_eq!(
            p.process(&order("MSFT", 100), 0).unwrap().ports,
            vec![PortId(2)]
        );
        assert!(p.process(&order("GOOGL", 100), 0).unwrap().dropped());
        assert!(p.process(&order("GOOGL", 100), 0).unwrap().dropped());
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
        assert!(p.process(&order("MSFT", 1), 0).unwrap().dropped());
        assert_eq!(
            p.process(&order("GOOGL", 1), 0).unwrap().ports,
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
        // One function builds and emits both: the same rows, state ids
        // included, and the same initial state.
        assert_eq!(
            entry_multisets(&r.pipeline),
            entry_multisets(&cold.pipeline)
        );
        assert_eq!(r.pipeline.init_fields, cold.pipeline.init_fields);
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
                let pkt = order(&camus_workload::itch_subs::stock_symbol(sym), price);
                assert_eq!(
                    cycled.process(&pkt, 0).unwrap().ports,
                    cold.process(&pkt, 0).unwrap().ports
                );
            }
        }
    }

    /// The row groups' program is what Algorithm 1 over the whole
    /// diagram emits with the session's state ids: the same initial
    /// state and, table by table, the same entries as multisets.
    fn assert_rows_match_whole_diagram(s: &IncrementalCompiler, program: &Pipeline) {
        let whole = s.emit_whole_diagram().unwrap();
        assert_eq!(program.init_fields, whole.init_fields);
        let rows = |p: &Pipeline| -> Vec<(String, HashMap<camus_pipeline::Entry, usize>)> {
            let count = |t: &Table| {
                let mut m = HashMap::new();
                for e in t.entries() {
                    *m.entry(e.clone()).or_insert(0) += 1;
                }
                (t.name.clone(), m)
            };
            p.tables.iter().map(count).collect()
        };
        assert_eq!(rows(program), rows(&whole));
    }

    /// Entries of `a` and `b` not matched one for one: the writes that
    /// turn one table into the other.
    fn table_writes(a: &Table, b: &Table) -> usize {
        let mut left: HashMap<&camus_pipeline::Entry, usize> = HashMap::new();
        for e in a.entries() {
            *left.entry(e).or_insert(0) += 1;
        }
        let mut added = 0;
        for e in b.entries() {
            match left.get_mut(e) {
                Some(n) if *n > 0 => *n -= 1,
                _ => added += 1,
            }
        }
        added + left.values().sum::<usize>()
    }

    /// Rows re-emitted, rows lowered and entries written (added +
    /// removed) by a one-rule add and its removal, for each of eight
    /// rules beyond an `n`-rule program. Along the way: the root's
    /// table — whose vertex every update replaces — changes by at most
    /// one row, and a table an update leaves alone is shared with the
    /// previous program, not copied.
    fn update_work(n: usize) -> (usize, usize, Vec<usize>) {
        let pool = itch_pool(n + 8);
        let spec = parse_spec(camus_lang::spec::ITCH_SPEC).unwrap();
        let mut s = IncrementalCompiler::new(spec, &CompilerOptions::raw(), &pool).unwrap();
        let mut prev = s.install(&pool[..n]).unwrap().pipeline;
        let (mut rows, mut lowered, mut writes) = (0, 0, Vec::new());
        for rule in &pool[n..] {
            let rule = std::slice::from_ref(rule);
            for (add, remove) in [(rule, &[][..]), (&[][..], rule)] {
                let r = s.update(add, remove).unwrap();
                assert!(!r.full_rebuild);
                // 16 updates stay far from the compaction rule, so
                // none lowers a table whole.
                assert!(s.rows.last_lowered <= s.rows.last_emitted);
                rows += s.rows.last_emitted;
                lowered += s.rows.last_lowered;
                writes.push(r.entries_added + r.entries_removed);
                for (a, b) in prev.tables.iter().zip(&r.pipeline.tables) {
                    let first = |t: &Table| t.entries().next().map(std::ptr::from_ref);
                    if table_writes(a, b) == 0 && !a.is_empty() {
                        assert_eq!(first(a), first(b), "{} was copied", a.name);
                    }
                }
                assert!(table_writes(&prev.tables[0], &r.pipeline.tables[0]) <= 2);
                prev = r.pipeline;
            }
        }
        (rows, lowered, writes)
    }

    /// An update emits rows for the vertices it made, not for the
    /// program: five times the rules re-emit at most twice the rows.
    /// And it lowers only rows it emitted, never a whole table
    /// (asserted per update): the timing-free form of "update time does
    /// not follow the program".
    /// (A state's run is lowered as a unit, so the rows lowered follow
    /// the replaced vertices' sizes: a symbol's price vertex has a row
    /// per price bound, ≈ 10 at 1 000 rules and ≈ 50 at 5 000.)
    #[test]
    fn the_work_of_an_update_does_not_grow_with_the_program() {
        let (small, small_lowered, writes) = update_work(1_000);
        let (large, large_lowered, large_writes) = update_work(5_000);
        eprintln!(
            "rows re-emitted by 8 adds + 8 removals: {small} at 1 000 rules, {large} at 5 000"
        );
        eprintln!("rows lowered: {small_lowered} at 1 000 rules, {large_lowered} at 5 000");
        eprintln!("entries written per update: {writes:?} at 1 000, {large_writes:?} at 5 000");
        assert!(
            large <= 2 * small,
            "{large} rows at 5 000 rules, {small} at 1 000"
        );
    }

    /// `rounds` add/remove rounds over `churn` rules on top of `base`,
    /// in two sessions: one compacting when the rule says so, one
    /// compacted by force after every update. Compaction must be
    /// invisible (equal reports, no entry moves) and must keep the
    /// diagram within `COMPACT_RATIO` of its live size.
    /// Returns the naturally compacting session's final program.
    fn churn_with_and_without_forced_compaction(
        base: usize,
        churn: usize,
        rounds: usize,
    ) -> Pipeline {
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
                assert_rows_match_whole_diagram(&natural, &a.pipeline);
                assert_rows_match_whole_diagram(&forced, &b.pipeline);
                forced.compact();
                let still = forced.install(&[]).unwrap();
                assert_eq!((still.entries_added, still.entries_removed), (0, 0));
                assert_rows_match_whole_diagram(&forced, &still.pipeline);

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
            let pkt = order(&camus_workload::itch_subs::stock_symbol(sym), 500);
            assert_eq!(
                a.process(&pkt, 0).unwrap().ports,
                b.process(&pkt, 0).unwrap().ports
            );
        }
        a
    }

    #[test]
    fn compaction_bounds_the_diagram_and_moves_no_entry() {
        churn_with_and_without_forced_compaction(200, 16, 60);
    }

    /// The nightly soak of the above: the benchmark's 64-rule churn pool
    /// over its 1 000-rule program (`cargo test --release -- --ignored`).
    /// Also reports, per table, how far the state ids a session hands
    /// out have drifted apart (the ids a table's rows name and the span
    /// they cover), and asserts what the prepared index costs after the
    /// churn: every state is found by indexing a `Vec`, none by
    /// hashing, and the segments hold at most twice the live starts.
    #[test]
    #[ignore = "nightly: 2 000 rounds, release build"]
    fn session_memory_stays_bounded_over_2000_rounds() {
        let program = churn_with_and_without_forced_compaction(1000, 64, 2000);
        for t in &program.tables {
            let states: std::collections::BTreeSet<u64> = t
                .entries()
                .filter_map(|e| match e.matches.first() {
                    Some(&camus_pipeline::MatchValue::Exact(s)) => Some(s),
                    _ => None,
                })
                .collect();
            let span = match (states.first(), states.last()) {
                (Some(lo), Some(hi)) => hi - lo + 1,
                _ => 0,
            };
            let (indexed, hashed) = t.probe_split().unwrap();
            let (live, held) = t.index_starts().unwrap();
            eprintln!(
                "after 2 000 rounds: {} entries={} states={} span={span} indexed={indexed} \
                 hashed={hashed} starts live={live} held={held}",
                t.name,
                t.len(),
                states.len(),
            );
            assert_eq!(hashed, 0, "{}", t.name);
            assert!(held <= 2 * live, "{}: {held} starts for {live}", t.name);
        }
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
            p.process(&order("ORCL", 5000), 0).unwrap().ports,
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
        let total_before: usize = s.rows.tables().map(Table::len).sum();
        assert!(total_before > 0);
        let r = s
            .update(
                &parse_program("price > 999 : fwd(4)").unwrap(),
                &parse_program("stock == MSFT : fwd(2)").unwrap(),
            )
            .unwrap();
        assert!(r.full_rebuild);
        // The counts report the transition, not a from-scratch
        // install: some entries survive the rebuild unchanged.
        assert!(r.entries_kept > 0, "{r:?}");
        assert!(r.entries_removed > 0, "{r:?}");
    }
}
