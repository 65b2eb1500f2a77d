//! Per-vertex row groups: what lets a long-lived session re-emit only
//! what an update changed.
//!
//! Algorithm 1's rows for one component entry are a function of the
//! entry vertex alone (its In→Out paths, [`entry_paths`]) plus the
//! state ids of the vertices it exits to, and BDD vertices never change
//! once made. So [`RowGroups`] keeps, per live vertex that holds a state
//! id — the root, every component entry, every terminal a path reaches
//! — the rows it contributes (a terminal: its leaf row) and the
//! vertices outside its component it holds live. An emission then
//!
//! 1. builds groups only for vertices it has not seen before, walking
//!    down from the root and stopping at every vertex it knows;
//! 2. finds the groups that died by reference counting: a group is held
//!    by every live group pointing at it, the root by the session;
//! 3. gives the new vertices state ids, parents first. The root, and a
//!    new vertex reached where a dead one was — the row of its parent's
//!    predecessor with the same match value exited to it — take the
//!    dead vertex's id, so the rows around an edit stay the rows they
//!    were ("state updates can benefit from table entry re-use", §3);
//! 4. counts the new rows against the dead ones as multisets, per
//!    table, and hands only the tables whose rows changed their dead
//!    states and new groups ([`Table::replace_runs`]); every other
//!    table is shared with the previous program. Preparing a changed
//!    table then lowers just those states into one new segment of its
//!    index, until dead starts outnumber live ones and it is lowered
//!    whole ([`Table::prepare`]).

use std::hash::Hash;
use std::sync::Arc;

use camus_bdd::pred::FieldId;
use camus_bdd::slice::{entry_paths, CompPath};
use camus_bdd::{Bdd, NodeRef};
use camus_pipeline::table::{ActionOp, Entry, MatchValue, Table};
use fxhash::{FxHashMap, FxHashSet};

use crate::dynamic::{
    field_table_shell, leaf_row, leaf_table_shell, path_match, path_row, EmissionState,
};
use crate::error::CompileError;
use crate::statics::StaticPipeline;

/// Which table a group's rows live in: its field's index, or [`LEAF`].
/// Tables run in slot order.
type Slot = u32;
const LEAF: Slot = Slot::MAX;

fn slot_of(bdd: &Bdd, r: NodeRef) -> Slot {
    match r {
        NodeRef::Term(_) => LEAF,
        NodeRef::Node(_) => bdd.var_pred(bdd.node(r).var).field.0,
    }
}

/// The rows one live vertex contributes, and the vertices it holds.
#[derive(Debug, Clone)]
struct Group {
    slot: Slot,
    /// One run of its table, shared with it.
    rows: Arc<[Entry]>,
    /// Vertices outside the entry's component it holds live
    /// ([`entry_paths`]); none for a terminal.
    holds: Vec<NodeRef>,
    /// Live groups holding this one, plus one for the root.
    refs: u32,
}

/// A group an emission found dead: the id and rows it gave up.
#[derive(Debug, Clone)]
struct Dead {
    state: u64,
    slot: Slot,
    rows: Arc<[Entry]>,
    /// A new vertex took over `state`.
    claimed: bool,
}

/// What one emission produced: the program's tables and entry counts
/// against the previous emission's.
#[derive(Debug)]
pub(crate) struct Emission {
    pub tables: Vec<Table>,
    pub initial_state: u64,
    pub added: usize,
    pub removed: usize,
    pub kept: usize,
}

/// The live row groups of a session's diagram and the tables they make.
#[derive(Debug, Clone, Default)]
pub(crate) struct RowGroups {
    groups: FxHashMap<NodeRef, Group>,
    root: Option<NodeRef>,
    /// Prepared, in slot order; the leaf table always last.
    tables: Vec<(Slot, Table)>,
    /// Groups of a diagram the session dropped ([`RowGroups::retire`]),
    /// dead at the next emission.
    retired: Vec<Dead>,
    /// Rows the last emission built.
    pub(crate) last_emitted: usize,
    /// Rows the last emission lowered ([`Table::prepare`]).
    pub(crate) last_lowered: usize,
}

impl RowGroups {
    /// Gives up every group (their vertices belong to a diagram the
    /// session is replacing): the next emission counts their rows as
    /// removed and builds every group anew.
    pub(crate) fn retire(&mut self, es: &mut EmissionState) {
        for (r, g) in self.groups.drain() {
            self.retired.push(Dead {
                state: es.state_of[&r],
                slot: g.slot,
                rows: g.rows,
                claimed: false,
            });
        }
        es.state_of.clear();
        self.root = None;
    }

    /// The tables of the last emission, in pipeline order.
    pub(crate) fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.iter().map(|(_, t)| t)
    }

    /// Re-keys every group after a [`Bdd::compact`], as
    /// [`EmissionState::rekey`] re-keys the state ids.
    pub(crate) fn rekey(&mut self, map: &camus_bdd::merge::Remap) {
        let moved = |r: NodeRef| map.get(r).expect("a live vertex survives compaction");
        self.groups = std::mem::take(&mut self.groups)
            .into_iter()
            .map(|(r, mut g)| {
                g.holds.iter_mut().for_each(|h| *h = moved(*h));
                (moved(r), g)
            })
            .collect();
        self.root = self.root.map(moved);
    }

    /// Emits the program of `bdd` against the previous emission (module
    /// docs).
    pub(crate) fn emit(
        &mut self,
        bdd: &Bdd,
        statics: &StaticPipeline,
        es: &mut EmissionState,
    ) -> Result<Emission, CompileError> {
        let root = bdd.root();
        let fresh = self.discover(bdd, root);
        let old_root = self.root.replace(root);
        self.hold(root);
        let (mut dead, root_pred) = self.release(old_root, es);
        let emitted = self.assign(bdd, statics, es, fresh, &mut dead, root_pred);

        // Counts: new rows cancel dead rows of the same table.
        let dead_rows = dead.iter().flat_map(|d| d.rows.iter().map(|e| (d.slot, e)));
        let new_rows = emitted.iter().flat_map(|r| {
            let g = &self.groups[r];
            g.rows.iter().map(|e| (g.slot, e))
        });
        let (added, removed, _, touched) = count_rows(dead_rows, new_rows);

        let mut slots: Vec<Slot> = touched.into_iter().collect();
        slots.sort_unstable();
        for slot in slots {
            self.rebuild(bdd, statics, slot, &dead, &emitted)?;
        }
        if self.tables.last().is_none_or(|&(slot, _)| slot != LEAF) {
            self.tables.push((LEAF, leaf_table_shell(statics)?));
        }
        // Lowered after every table is assembled (free for the tables
        // this emission left alone). Lowering each table as it was
        // rebuilt built the same index, yet a 20 000-rule cold
        // compile's lookups ran 10–15 % slower (benchmark
        // `compile_cold`, 2 vCPU): a heap-placement effect.
        self.last_lowered = self.tables.iter_mut().map(|(_, t)| t.prepare()).sum();

        self.last_emitted = emitted.iter().map(|r| self.groups[r].rows.len()).sum();
        let tables: Vec<Table> = self.tables().cloned().collect();
        let total: usize = tables.iter().map(Table::len).sum();
        Ok(Emission {
            tables,
            initial_state: es.state_of[&root],
            added,
            removed,
            kept: total - added,
        })
    }

    /// Builds an empty group for every vertex below `root` (the root
    /// included) that has none, parents before children; returns them
    /// with their paths.
    fn discover(&mut self, bdd: &Bdd, root: NodeRef) -> Vec<(NodeRef, Vec<CompPath>)> {
        let mut fresh = Vec::new();
        let mut stack = vec![root];
        while let Some(r) = stack.pop() {
            if self.groups.contains_key(&r) {
                continue;
            }
            let (paths, holds) = match r {
                NodeRef::Term(_) => (Vec::new(), Vec::new()),
                NodeRef::Node(_) => entry_paths(bdd, r),
            };
            stack.extend(holds.iter().rev().copied());
            let slot = slot_of(bdd, r);
            self.groups.insert(
                r,
                Group {
                    slot,
                    rows: Arc::new([]),
                    holds,
                    refs: 0,
                },
            );
            fresh.push((r, paths));
        }
        for (r, _) in &fresh {
            for h in self.groups[r].holds.clone() {
                self.hold(h);
            }
        }
        fresh
    }

    fn hold(&mut self, r: NodeRef) {
        if let Some(g) = self.groups.get_mut(&r) {
            g.refs += 1;
        }
    }

    /// Drops the session's hold on `old_root` and every group that
    /// leaves unheld, transitively (the retired ones included). Returns
    /// the dead, and which of them was the old root.
    fn release(
        &mut self,
        old_root: Option<NodeRef>,
        es: &mut EmissionState,
    ) -> (Vec<Dead>, Option<usize>) {
        let mut dead = std::mem::take(&mut self.retired);
        let mut root_pred = None;
        let mut stack: Vec<NodeRef> = old_root.into_iter().collect();
        while let Some(r) = stack.pop() {
            let g = self.groups.get_mut(&r).expect("a held vertex has a group");
            g.refs -= 1;
            if g.refs > 0 {
                continue;
            }
            let g = self.groups.remove(&r).expect("present");
            if Some(r) == old_root {
                root_pred = Some(dead.len());
            }
            stack.extend(&g.holds);
            dead.push(Dead {
                state: es.state_of.remove(&r).expect("a live vertex has a state"),
                slot: g.slot,
                rows: g.rows,
                claimed: false,
            });
        }
        (dead, root_pred)
    }

    /// Gives every new vertex its state id and its rows, parents first
    /// (a component only points at later fields and at terminals).
    /// Returns the new vertices in that order.
    fn assign(
        &mut self,
        bdd: &Bdd,
        statics: &StaticPipeline,
        es: &mut EmissionState,
        mut fresh: Vec<(NodeRef, Vec<CompPath>)>,
        dead: &mut [Dead],
        root_pred: Option<usize>,
    ) -> Vec<NodeRef> {
        let dead_at: FxHashMap<u64, usize> =
            dead.iter().enumerate().map(|(i, d)| (d.state, i)).collect();
        // Vertex → where the rows of the dead group whose id it took
        // went, by match value.
        let mut pred: FxHashMap<NodeRef, FxHashMap<MatchValue, u64>> = FxHashMap::default();
        let mut take_over = |es: &mut EmissionState, pred: &mut FxHashMap<_, _>, r, i: usize| {
            let d: &mut Dead = &mut dead[i];
            let free = !d.claimed && d.slot == slot_of(bdd, r);
            if free {
                d.claimed = true;
                es.state_of.insert(r, d.state);
                pred.insert(r, d.rows.iter().filter_map(exit_of).collect());
            }
            free
        };
        let root = bdd.root();
        if let Some(i) = root_pred.filter(|_| !es.state_of.contains_key(&root)) {
            take_over(es, &mut pred, root, i);
        }
        fresh.sort_by_key(|(r, _)| self.groups[r].slot);
        for (r, paths) in &fresh {
            let from = match es.state_of.get(r) {
                Some(&s) => s,
                None => {
                    let s = es.fresh_state();
                    es.state_of.insert(*r, s);
                    s
                }
            };
            let rows = match *r {
                NodeRef::Term(set) => leaf_row(bdd, statics, es, set, from).into_iter().collect(),
                NodeRef::Node(_) => {
                    let before = pred.remove(r).unwrap_or_default();
                    let mut rows = Vec::with_capacity(paths.len());
                    for p in paths {
                        let m = path_match(bdd, p);
                        if !es.state_of.contains_key(&p.exit) {
                            let dead_exit = before.get(&m).and_then(|s| dead_at.get(s));
                            if !dead_exit.is_some_and(|&i| take_over(es, &mut pred, p.exit, i)) {
                                let s = es.fresh_state();
                                es.state_of.insert(p.exit, s);
                            }
                        }
                        rows.push(path_row(statics, p, m, (from, es.state_of[&p.exit])));
                    }
                    rows.into()
                }
            };
            self.groups.get_mut(r).expect("discovered").rows = rows;
        }
        fresh.into_iter().map(|(r, _)| r).collect()
    }

    /// Replaces, in the table of `slot`, the runs of its dead states
    /// with the new groups'; unprepared. A field table left without
    /// rows goes.
    fn rebuild(
        &mut self,
        bdd: &Bdd,
        statics: &StaticPipeline,
        slot: Slot,
        dead: &[Dead],
        emitted: &[NodeRef],
    ) -> Result<(), CompileError> {
        let i = match self.tables.binary_search_by_key(&slot, |&(s, _)| s) {
            Ok(i) => i,
            Err(i) => {
                let shell = match slot {
                    LEAF => leaf_table_shell(statics)?,
                    field => field_table_shell(bdd, statics, FieldId(field))?,
                };
                self.tables.insert(i, (slot, shell));
                i
            }
        };
        let groups = emitted.iter().map(|r| &self.groups[r]);
        let runs = groups.filter(|g| g.slot == slot).map(|g| g.rows.clone());
        let dead = dead.iter().filter(|d| d.slot == slot).map(|d| d.state);
        let table = &mut self.tables[i].1;
        table.replace_runs(dead, runs.collect())?;
        if table.is_empty() && slot != LEAF {
            self.tables.remove(i);
        }
        Ok(())
    }
}

/// Counts rows `after` against rows `before`, both tagged with their
/// table, as multisets per table: `(added, removed, kept)` and the
/// tables whose rows differ.
pub(crate) fn count_rows<'a, K: Copy + Hash + Eq>(
    before: impl Iterator<Item = (K, &'a Entry)>,
    after: impl Iterator<Item = (K, &'a Entry)>,
) -> (usize, usize, usize, FxHashSet<K>) {
    let mut left: FxHashMap<(K, &Entry), usize> = FxHashMap::default();
    for row in before {
        *left.entry(row).or_insert(0) += 1;
    }
    let (mut added, mut kept) = (0, 0);
    let mut changed = FxHashSet::default();
    for row in after {
        if left.is_empty() {
            added += 1;
            changed.insert(row.0);
            continue;
        }
        match left.get_mut(&row) {
            Some(n) if *n > 0 => {
                *n -= 1;
                kept += 1;
            }
            _ => {
                added += 1;
                changed.insert(row.0);
            }
        }
    }
    let mut removed = 0;
    for (&(k, _), &n) in &left {
        removed += n;
        if n > 0 {
            changed.insert(k);
        }
    }
    (added, removed, kept, changed)
}

/// A field-table row's match value and the state it moves to.
fn exit_of(e: &Entry) -> Option<(MatchValue, u64)> {
    match (e.matches.get(1), e.ops.first()) {
        (Some(&m), Some(&ActionOp::SetField(_, s))) => Some((m, s)),
        _ => None,
    }
}
