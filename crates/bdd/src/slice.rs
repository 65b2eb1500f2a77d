//! Field-component slicing — the decomposition behind Algorithm 1.
//!
//! §3.2: "Since every path in the BDD traverses predicates that consider
//! fields in order, and that order is the same for every path, we use
//! that ordering to effectively slice the BDD into a fixed number of
//! field-specific components."
//!
//! A **component** `C_f` contains all reachable nodes predicating on
//! field `f`. Its **In set** holds the nodes of `C_f` entered from
//! outside (the paper's Algorithm 1, line 3); edges leaving `C_f` point
//! at **Out** vertices — nodes of later components or terminals (line
//! 4). [`component_paths`] enumerates every In→Out path together with
//! the value constraint accumulated along it (line 5-8) and a priority
//! rank. [`entry_paths`] finds the same paths one In node at a time,
//! without slicing; `camus-core` emits from it, turning each path into
//! one match-action table entry (line 9).

use std::collections::{HashMap, HashSet};

use fxhash::FxHashSet;

use crate::ctx::FieldCtx;
use crate::pred::FieldId;
use crate::store::NodeRef;
use crate::Bdd;

/// A field-specific component of the BDD.
#[derive(Debug, Clone)]
pub struct Component {
    /// The field all nodes of this component predicate on.
    pub field: FieldId,
    /// All reachable nodes of the component.
    pub nodes: Vec<NodeRef>,
    /// Nodes of the component with an in-edge from outside it (or the
    /// root). These become the "entry states" of the field's table.
    pub in_nodes: Vec<NodeRef>,
}

/// One In→Out path through a component (Algorithm 1's loop body).
#[derive(Debug, Clone)]
pub struct CompPath {
    /// Entry node (∈ In set).
    pub entry: NodeRef,
    /// Exit vertex (a node of a later component, or a terminal).
    pub exit: NodeRef,
    /// The accumulated constraint on the component's field: the
    /// intersection of the predicates along the path (Algorithm 1 line
    /// 8). `ctx.lo ..= ctx.hi` is the match range; `ctx.excluded` lists
    /// points carved out by false `==` branches, which the table
    /// representation handles by entry *priority* (higher-priority
    /// pinned entries shadow them).
    pub ctx: FieldCtx,
    /// Priority rank within the component: lower rank = higher
    /// priority. Ranks follow a true-edges-first DFS, which guarantees a
    /// pinned (`== v`) entry always outranks any wider entry whose range
    /// contains `v` but whose path excluded it.
    pub rank: usize,
}

impl CompPath {
    /// Whether the path pins the field to a single value (pure exact
    /// match).
    pub fn pinned(&self) -> Option<u64> {
        self.ctx.pinned()
    }

    /// Whether the path constrains the field at all (an unconstrained
    /// path is a wildcard/pass-through entry).
    pub fn is_wildcard(&self, field_max: u64) -> bool {
        self.ctx.lo == 0 && self.ctx.hi == field_max && self.ctx.excluded.is_empty()
    }
}

/// Slices the reachable part of the BDD into per-field components, in
/// field order. Fields with no reachable nodes yield no component.
///
/// The compiler emits from [`entry_paths`], which needs no slicing;
/// `slice` and [`component_paths`] are the reference it is tested
/// against.
pub fn slice(bdd: &Bdd) -> Vec<Component> {
    let reachable = bdd.reachable();
    let node_field = |r: NodeRef| -> FieldId {
        let n = bdd.node(r);
        bdd.var_pred(n.var).field
    };
    let reachable_set: HashSet<NodeRef> = reachable.iter().copied().collect();

    // Group nodes by field.
    let mut by_field: HashMap<FieldId, Vec<NodeRef>> = HashMap::new();
    for &r in &reachable {
        by_field.entry(node_field(r)).or_default().push(r);
    }

    // In set: the root plus any node whose in-edge crosses a component
    // boundary.
    let mut in_set: HashSet<NodeRef> = HashSet::new();
    if !bdd.root().is_term() {
        in_set.insert(bdd.root());
    }
    for &r in &reachable {
        let n = bdd.node(r);
        let f = node_field(r);
        for child in [n.lo, n.hi] {
            if let NodeRef::Node(_) = child {
                debug_assert!(reachable_set.contains(&child));
                if node_field(child) != f {
                    in_set.insert(child);
                }
            }
        }
    }

    let mut fields: Vec<FieldId> = by_field.keys().copied().collect();
    fields.sort_unstable();
    fields
        .into_iter()
        .map(|field| {
            let mut nodes = by_field.remove(&field).unwrap_or_default();
            nodes.sort_unstable();
            let mut in_nodes: Vec<NodeRef> = nodes
                .iter()
                .copied()
                .filter(|r| in_set.contains(r))
                .collect();
            in_nodes.sort_unstable();
            Component {
                field,
                nodes,
                in_nodes,
            }
        })
        .collect()
}

/// Enumerates every In→Out path of a component with its accumulated
/// constraint (Algorithm 1 lines 5–9).
///
/// Paths are emitted in true-edges-first DFS order per entry node;
/// `rank` is the emission index. The number of paths is at most
/// quadratic in the component size thanks to reduction (iii) — see the
/// paper's discussion after Algorithm 1.
///
/// With [`slice()`], the reference [`entry_paths`] is tested against.
pub fn component_paths(bdd: &Bdd, comp: &Component) -> Vec<CompPath> {
    let mut out = Vec::new();
    for &entry in &comp.in_nodes {
        walk_from(bdd, comp.field, entry, &mut out);
    }
    out
}

/// What one component entry contributes, found without slicing the
/// diagram: its In→Out paths, ranked from 0 exactly as
/// [`component_paths`] ranks them, and the vertices it holds live
/// outside its component — every node of another field that an edge
/// out of the entry's part of the component reaches (what makes that
/// node an In node, whether or not a path is feasible along the
/// edge), and every terminal a path exits to. Sorted, deduplicated.
///
/// A component entry's rows are a function of the entry vertex alone,
/// which is what lets an incremental compiler emit only the entries it
/// has not seen before.
pub fn entry_paths(bdd: &Bdd, entry: NodeRef) -> (Vec<CompPath>, Vec<NodeRef>) {
    let field = bdd.var_pred(bdd.node(entry).var).field;
    let mut paths = Vec::new();
    walk_from(bdd, field, entry, &mut paths);
    let mut outside: Vec<NodeRef> = paths
        .iter()
        .map(|p| p.exit)
        .filter(NodeRef::is_term)
        .collect();
    let mut seen: FxHashSet<NodeRef> = FxHashSet::default();
    let mut stack = vec![entry];
    while let Some(r) = stack.pop() {
        if !seen.insert(r) {
            continue;
        }
        let n = bdd.node(r);
        for child in [n.lo, n.hi] {
            match child {
                NodeRef::Term(_) => {}
                _ if in_field(bdd, field, child) => stack.push(child),
                _ => outside.push(child),
            }
        }
    }
    outside.sort_unstable();
    outside.dedup();
    (paths, outside)
}

fn walk_from(bdd: &Bdd, field: FieldId, entry: NodeRef, out: &mut Vec<CompPath>) {
    let full = FieldCtx::full(field, bdd.field_info(field).max_value());
    walk(bdd, field, entry, entry, full, &mut 0, out);
}

fn in_field(bdd: &Bdd, field: FieldId, r: NodeRef) -> bool {
    match r {
        NodeRef::Term(_) => false,
        NodeRef::Node(_) => bdd.var_pred(bdd.node(r).var).field == field,
    }
}

fn walk(
    bdd: &Bdd,
    field: FieldId,
    entry: NodeRef,
    cur: NodeRef,
    ctx: FieldCtx,
    rank: &mut usize,
    out: &mut Vec<CompPath>,
) {
    if !in_field(bdd, field, cur) {
        out.push(CompPath {
            entry,
            exit: cur,
            ctx,
            rank: *rank,
        });
        *rank += 1;
        return;
    }
    let n = bdd.node(cur);
    let pred = bdd.var_pred(n.var);
    // True edge first: gives pinned entries priority over the excluding
    // wildcard/range entries below them.
    match ctx.implies(&pred) {
        Some(true) => walk(bdd, field, entry, n.hi, ctx, rank, out),
        Some(false) => walk(bdd, field, entry, n.lo, ctx, rank, out),
        None => {
            walk(bdd, field, entry, n.hi, ctx.extend(&pred, true), rank, out);
            walk(bdd, field, entry, n.lo, ctx.extend(&pred, false), rank, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pred::{ActionId, FieldInfo, Pred};

    /// The running example of the paper (Figures 3 and 4).
    fn figure3() -> (Bdd, FieldId, FieldId) {
        let shares = FieldId(0);
        let stock = FieldId(1);
        let fields = vec![
            FieldInfo::range("shares", 32),
            FieldInfo::exact("stock", 64),
        ];
        let preds = vec![
            Pred::lt(shares, 60),
            Pred::gt(shares, 100),
            Pred::eq(stock, 1),
            Pred::eq(stock, 2),
        ];
        let mut bdd = Bdd::new(fields, preds).unwrap();
        bdd.add_rule(
            &[(Pred::lt(shares, 60), true), (Pred::eq(stock, 1), true)],
            &[ActionId(1)],
        )
        .unwrap();
        bdd.add_rule(&[(Pred::eq(stock, 1), true)], &[ActionId(2)])
            .unwrap();
        bdd.add_rule(
            &[(Pred::gt(shares, 100), true), (Pred::eq(stock, 2), true)],
            &[ActionId(3)],
        )
        .unwrap();
        (bdd, shares, stock)
    }

    #[test]
    fn figure3_slices_into_two_components() {
        let (bdd, shares, stock) = figure3();
        let comps = slice(&bdd);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].field, shares);
        assert_eq!(comps[1].field, stock);
        // The shares component is entered only at the root.
        assert_eq!(comps[0].in_nodes, vec![bdd.root()]);
        assert!(!comps[1].in_nodes.is_empty());
    }

    #[test]
    fn figure3_shares_paths_match_figure4() {
        let (bdd, ..) = figure3();
        let comps = slice(&bdd);
        let paths = component_paths(&bdd, &comps[0]);
        // Figure 4's Shares table: <60, >100, and the implicit middle
        // range (the paper's `*` row) — three paths.
        assert_eq!(paths.len(), 3);
        let ranges: Vec<(u64, u64)> = paths.iter().map(|p| (p.ctx.lo, p.ctx.hi)).collect();
        assert!(ranges.contains(&(0, 59)), "{ranges:?}");
        assert!(ranges.contains(&(101, u32::MAX as u64)), "{ranges:?}");
        assert!(ranges.contains(&(60, 100)), "{ranges:?}");
    }

    #[test]
    fn figure3_stock_paths_cover_entry_states() {
        let (bdd, _, stock) = figure3();
        let comps = slice(&bdd);
        let stock_comp = &comps[1];
        let paths = component_paths(&bdd, stock_comp);
        // Every path pins the stock or is an exclusion path exiting to a
        // terminal.
        for p in &paths {
            assert_eq!(p.ctx.field, stock);
            assert!(
                p.exit.is_term(),
                "stock is the last field: exits are terminals"
            );
        }
        // Pinned entries outrank their excluding wildcard within each
        // entry group.
        for p in &paths {
            if p.pinned().is_none() {
                for q in &paths {
                    if q.entry == p.entry && q.pinned().is_some() {
                        assert!(q.rank < p.rank, "pinned path must outrank exclusion path");
                    }
                }
            }
        }
    }

    #[test]
    fn ranks_are_dense_per_entry() {
        let (bdd, ..) = figure3();
        for comp in slice(&bdd) {
            let paths = component_paths(&bdd, &comp);
            for &entry in &comp.in_nodes {
                let mut ranks: Vec<usize> = paths
                    .iter()
                    .filter(|p| p.entry == entry)
                    .map(|p| p.rank)
                    .collect();
                ranks.sort_unstable();
                assert_eq!(ranks, (0..ranks.len()).collect::<Vec<_>>());
            }
        }
    }

    /// Entry by entry, `entry_paths` finds what slicing finds: the same
    /// ranked paths, and — from the root down — exactly the In nodes.
    #[test]
    fn entry_paths_agree_with_the_sliced_components() {
        let (bdd, ..) = figure3();
        let comps = slice(&bdd);
        let mut in_nodes: Vec<NodeRef> = comps.iter().flat_map(|c| c.in_nodes.clone()).collect();
        let mut found = vec![bdd.root()];
        for comp in &comps {
            let sliced = component_paths(&bdd, comp);
            for &entry in &comp.in_nodes {
                let (paths, outside) = entry_paths(&bdd, entry);
                let want: Vec<_> = sliced.iter().filter(|p| p.entry == entry).collect();
                assert_eq!(paths.len(), want.len());
                for (p, q) in paths.iter().zip(want) {
                    assert_eq!((p.exit, p.rank, &p.ctx), (q.exit, q.rank, &q.ctx));
                }
                found.extend(outside.into_iter().filter(|r| !r.is_term()));
            }
        }
        in_nodes.sort_unstable();
        found.sort_unstable();
        found.dedup();
        assert_eq!(found, in_nodes);
        assert_eq!(bdd.reachable_count(), bdd.reachable().len());
    }

    #[test]
    fn path_count_is_quadratic_bounded() {
        // With pruning on, paths through a component are at most
        // |In| * |Out| (one per pair) + exclusion tails; check the
        // figure-3 example stays tiny.
        let (bdd, ..) = figure3();
        for comp in slice(&bdd) {
            let paths = component_paths(&bdd, &comp);
            assert!(paths.len() <= comp.nodes.len() * comp.nodes.len() + comp.nodes.len() + 1);
        }
    }

    #[test]
    fn empty_bdd_has_no_components() {
        let bdd = Bdd::new(vec![FieldInfo::range("x", 8)], [Pred::lt(FieldId(0), 5)]).unwrap();
        assert!(slice(&bdd).is_empty());
    }

    /// Semantic check: simulating the component decomposition as a state
    /// machine reproduces direct BDD evaluation.
    #[test]
    fn component_walk_agrees_with_eval() {
        let (bdd, shares, _) = figure3();
        let comps = slice(&bdd);
        let all_paths: Vec<Vec<CompPath>> =
            comps.iter().map(|c| component_paths(&bdd, c)).collect();

        let simulate = |sh: u64, st: u64| -> Vec<ActionId> {
            let value = |f: FieldId| if f == shares { sh } else { st };
            let mut state = bdd.root();
            loop {
                match state {
                    NodeRef::Term(set) => return bdd.actions(set).to_vec(),
                    NodeRef::Node(_) => {
                        // Find the component owning this state.
                        let n = bdd.node(state);
                        let f = bdd.var_pred(n.var).field;
                        let ci = comps.iter().position(|c| c.field == f).unwrap();
                        let v = value(f);
                        // Best (lowest-rank) matching path from this entry.
                        let next = all_paths[ci]
                            .iter()
                            .filter(|p| p.entry == state && p.ctx.contains(v))
                            .min_by_key(|p| p.rank)
                            .expect("paths must be total per entry state");
                        state = next.exit;
                    }
                }
            }
        };

        for sh in [0u64, 30, 59, 60, 80, 100, 101, 500] {
            for st in [0u64, 1, 2, 3] {
                let direct = bdd.eval(|f| if f == shares { sh } else { st }).to_vec();
                assert_eq!(simulate(sh, st), direct, "sh={sh} st={st}");
            }
        }
    }
}
