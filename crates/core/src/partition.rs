//! Fabric partition planning: slicing one compiled program across a
//! spine/leaf topology of engines.
//!
//! The paper compiles one subscription program onto a single Tofino
//! pipeline. The fabric layer generalizes that to a two-tier topology
//! in the spirit of SNAP (Arashloo et al.): a spine that routes each
//! packet by its *sharding symbol* (the exact-match field the program
//! is content-addressed on — stock symbol, content key, Siena symbol
//! attribute) to the one leaf that owns that symbol, and leaves that
//! each hold only the table entries their owned symbols can reach.
//!
//! The plan is computed over the *compiled* tables, not the rules, so
//! it inherits the compiler's shard-count invariance: the compiled
//! program is bit-identical at any `compile_shards`, hence so is the
//! plan. Slicing works by forward state reachability:
//!
//! * The per-field tables form a chain keyed on `(meta.state, field)`;
//!   a table miss passes the state through unchanged, so the leaves
//!   that can reach a state only ever grow front-to-back. The plan
//!   keeps one leaf mask per state: the initial state reaches every
//!   live leaf, and a state set by a row reaches the leaves that hold
//!   the row. A state's rows sit after every row that sets it (the
//!   chain follows the diagram's field order), so its mask is final
//!   before they are read.
//! * Rows of the **sharding table** (the one keyed on the shard field)
//!   that pin an exact symbol live only on that symbol's owner leaf
//!   ([`owner_of`]); wildcard/exclusion rows ([`MatchValue::Any`]) go
//!   wherever their state reaches, preserving their priority
//!   shadowing — a leaf only ever sees packets whose symbol it owns,
//!   so the pinned row that would shadow a wildcard is always present
//!   where it matters.
//! * Every other state-chained row lives where its state reaches;
//!   non-state tables (domain compression) and the multicast groups
//!   are replicated in full.
//!
//! [`PartitionPlan::leaves_of`] is the one place that decides where a
//! row lives; a slice asks it once per run of rows naming one state, and
//! row by row only for the sharding table's pinned rows. A slice keeps
//! each table's rows in order, shares every run it keeps whole with the
//! master, and comes out on the master's prepared index
//! ([`Table::retain_runs`]): a leaf's prepare re-points the states the
//! leaf drops at the miss run and lowers only the runs the partition
//! splits — the sharding table's, divided by owner.
//!
//! Two invariants make the fabric provably equivalent to the big
//! switch (and are property-tested in `crates/core/tests/prop.rs`):
//! every original entry appears on at least one leaf (cover), and each
//! slice contains only original entries in original relative order
//! (soundness). Slices may *overlap* on replicated rows.

use camus_pipeline::cache::mix64;
use camus_pipeline::phv::PhvField;
use camus_pipeline::pipeline::Pipeline;
use camus_pipeline::table::{ActionOp, Entry, MatchValue, Table};

use fxhash::FxHashMap;

use crate::error::CompileError;

/// Maximum leaf count: leaf membership is a `u64` bitmask.
pub const MAX_LEAVES: usize = 64;

/// The leaf that owns a sharding-symbol value. Total over the whole
/// value domain, so every packet routes somewhere even when its symbol
/// appears in no rule — required for wildcard rules, whose entries are
/// replicated on every leaf.
#[inline]
pub fn owner_of(value: u64, leaves: usize) -> usize {
    let n = leaves.max(1) as u64;
    (mix64(value) % n) as usize
}

/// Salt for the failover rehash so a dead leaf's symbols don't all
/// collapse onto the survivor that happens to follow it mod N.
const REHASH_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// The leaf that owns `value` when only the leaves in `live_mask` (of
/// a `total`-leaf fabric) survive. Ownership is *stable for
/// survivors*: if `owner_of(value, total)` is still alive it keeps the
/// symbol — and its register state — untouched; only symbols whose
/// primary owner died are rehashed, deterministically, across the
/// survivors. With every leaf alive this is exactly [`owner_of`].
#[inline]
pub fn owner_in_subset(value: u64, total: usize, live_mask: u64) -> usize {
    let mask = live_mask & full_mask(total);
    let primary = owner_of(value, total);
    if mask == 0 || mask & (1 << primary) != 0 {
        return primary;
    }
    let live = mask.count_ones() as u64;
    let mut idx = mix64(value ^ REHASH_SALT) % live;
    let mut m = mask;
    loop {
        let bit = m.trailing_zeros() as usize;
        if idx == 0 {
            return bit;
        }
        idx -= 1;
        m &= m - 1;
    }
}

/// A computed fabric partition of one compiled program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionPlan {
    /// Number of leaf *slots* (dead ones included — slot indices are
    /// stable across failover).
    pub leaves: usize,
    /// Bitmask of the leaves this plan actually places entries on.
    /// `full_mask(leaves)` for a healthy fabric; a strict subset for a
    /// failover plan computed by [`PartitionPlan::compute_subset`].
    pub live_mask: u64,
    /// PHV-layout name of the sharding field (e.g. `"ev.sym0"`).
    pub shard_field: String,
    /// Entries whose entry state was unreachable on every leaf
    /// (cannot happen for compiler-emitted programs; such entries are
    /// replicated everywhere so the cover invariant still holds).
    pub orphan_entries: usize,
    state_phv: PhvField,
    shard_phv: PhvField,
    /// The leaves each state reaches.
    reach: FxHashMap<u64, u64>,
    /// Entries per leaf, across every table.
    entries: Vec<usize>,
}

impl PartitionPlan {
    /// Computes the partition of `pipeline` over `leaves` leaves,
    /// sharding on the PHV field named `shard_field`.
    pub fn compute(
        pipeline: &Pipeline,
        shard_field: &str,
        leaves: usize,
    ) -> Result<PartitionPlan, CompileError> {
        Self::compute_subset(pipeline, shard_field, leaves, full_mask(leaves.min(64)))
    }

    /// Computes a *failover* partition: the same slicing rules, but
    /// entries are placed only on the leaves in `live_mask`. Symbols
    /// owned by a live leaf stay put (their per-shard register state
    /// survives the epoch via `carry_from`); a dead leaf's symbols are
    /// rehashed onto survivors by [`owner_in_subset`]. Dead slots get
    /// empty slices, so slot indices — and the spine's routing table —
    /// stay stable across the failover epoch.
    pub fn compute_subset(
        pipeline: &Pipeline,
        shard_field: &str,
        leaves: usize,
        live_mask: u64,
    ) -> Result<PartitionPlan, CompileError> {
        if leaves == 0 || leaves > MAX_LEAVES {
            return Err(CompileError::BadSpec(format!(
                "fabric needs 1..={MAX_LEAVES} leaves, got {leaves}"
            )));
        }
        let live_mask = live_mask & full_mask(leaves);
        if live_mask == 0 {
            return Err(CompileError::BadSpec(
                "failover plan needs at least one live leaf".into(),
            ));
        }
        let shard_phv = pipeline.layout.get(shard_field).ok_or_else(|| {
            CompileError::BadSpec(format!("shard field `{shard_field}` not in PHV layout"))
        })?;
        let state_phv = pipeline
            .layout
            .get("meta.state")
            .ok_or_else(|| CompileError::BadSpec("pipeline has no meta.state register".into()))?;
        let init_state = pipeline
            .init_fields
            .iter()
            .find(|(f, _)| *f == state_phv)
            .map_or(0, |&(_, v)| v);

        let mut plan = PartitionPlan {
            leaves,
            live_mask,
            shard_field: shard_field.to_string(),
            orphan_entries: 0,
            state_phv,
            shard_phv,
            reach: FxHashMap::from_iter([(init_state, live_mask)]),
            entries: vec![0; leaves],
        };
        let mut exits = Vec::new();
        for table in &pipeline.tables {
            let state_keyed = plan.state_keyed(table);
            for e in table.entries() {
                let mut mask = plan.placed(table, e);
                if mask == 0 {
                    plan.orphan_entries += 1;
                    mask = live_mask;
                }
                for (l, n) in plan.entries.iter_mut().enumerate() {
                    *n += usize::from(mask & (1 << l) != 0);
                }
                if state_keyed {
                    exits.extend(e.ops.iter().filter_map(|op| match *op {
                        ActionOp::SetField(f, s) if f == state_phv => Some((s, mask)),
                        _ => None,
                    }));
                }
            }
            // A table's exits reach on only after all its rows are read.
            for (s, mask) in exits.drain(..) {
                *plan.reach.entry(s).or_default() |= mask;
            }
        }
        Ok(plan)
    }

    /// Whether `table` is chained on the state register.
    fn state_keyed(&self, table: &Table) -> bool {
        table
            .keys()
            .first()
            .is_some_and(|k| k.field == self.state_phv)
    }

    /// Whether `table` is the sharding table, whose rows pin symbols.
    fn sharding(&self, table: &Table) -> bool {
        table
            .keys()
            .get(1)
            .is_some_and(|k| k.field == self.shard_phv)
    }

    /// The leaves that can reach row `e` of `table`; 0 for an orphan.
    fn placed(&self, table: &Table, e: &Entry) -> u64 {
        if !self.state_keyed(table) {
            // Domain-compression tables (keyed on a raw field, no
            // state) run identically everywhere.
            return self.live_mask;
        }
        let mut mask = match e.matches[0] {
            MatchValue::Exact(s) => self.reach.get(&s).copied().unwrap_or(0),
            // Wildcard state rows (not emitted by the compiler) apply
            // wherever the table runs.
            _ => self.live_mask,
        };
        if let (true, Some(&MatchValue::Exact(v))) = (self.sharding(table), e.matches.get(1)) {
            // A pinned symbol row lives only on the symbol's (possibly
            // failed-over) owner; wildcard/exclusion rows replicate.
            mask &= 1 << owner_in_subset(v, self.leaves, self.live_mask);
        }
        mask
    }

    /// The leaves that hold row `e` of `table` (a table of the program
    /// the plan was computed from). An orphan row — one no leaf
    /// reaches — is replicated on every live leaf, so the cover
    /// invariant (union of slices == original) survives even
    /// degenerate inputs.
    pub fn leaves_of(&self, table: &Table, e: &Entry) -> u64 {
        match self.placed(table, e) {
            0 => self.live_mask,
            mask => mask,
        }
    }

    /// Builds leaf `leaf`'s slice of `pipeline`: the same parser,
    /// layout, registers, bindings, init fields and multicast groups,
    /// with each table filtered down to the entries this leaf holds
    /// (original relative order preserved, so priority tie-breaks are
    /// identical to the big switch).
    ///
    /// `pipeline` must be the program the plan was computed from.
    pub fn slice(&self, pipeline: &Pipeline, leaf: usize) -> Pipeline {
        assert!(leaf < self.leaves, "leaf {leaf} out of range");
        let bit = 1u64 << leaf;
        Pipeline {
            layout: pipeline.layout.clone(),
            parser: pipeline.parser.clone(),
            // The rows of a run name one state, so they share their
            // leaves, unless they pin symbols: one decision per run.
            tables: (pipeline.tables.iter())
                .map(|t| t.retain_runs(!self.sharding(t), |e| self.leaves_of(t, e) & bit != 0))
                .collect(),
            mcast: pipeline.mcast.clone(),
            registers: pipeline.registers.clone(),
            state_bindings: pipeline.state_bindings.clone(),
            init_fields: pipeline.init_fields.clone(),
            exec: Default::default(),
        }
    }

    /// All leaf slices, in leaf order.
    pub fn slices(&self, pipeline: &Pipeline) -> Vec<Pipeline> {
        (0..self.leaves).map(|l| self.slice(pipeline, l)).collect()
    }

    /// Total entries held by one leaf across every table.
    pub fn leaf_entries(&self, leaf: usize) -> usize {
        self.entries[leaf]
    }
}

/// Bitmask with the low `leaves` bits set.
#[inline]
pub fn full_mask(leaves: usize) -> u64 {
    if leaves >= 64 {
        u64::MAX
    } else {
        (1u64 << leaves) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{Compiler, CompilerOptions};
    use camus_lang::{parse_program, parse_spec};
    use camus_workload::{event, EVENT_SPEC};

    fn compile(rules: &str) -> Pipeline {
        let spec = parse_spec(EVENT_SPEC).unwrap();
        let c = Compiler::new(spec, CompilerOptions::raw()).unwrap();
        c.compile(&parse_program(rules).unwrap()).unwrap().pipeline
    }

    const RULES: &str = "sym == AA : fwd(1)\n\
                         sym == BB and val > 10 : fwd(2)\n\
                         sym == CC : fwd(3)\n\
                         val > 50 : fwd(9)\n\
                         sym == AA and val < 5 : fwd(4)";

    #[test]
    fn slices_cover_and_contain_only_original_entries() {
        let pipeline = compile(RULES);
        for leaves in [1usize, 2, 3, 4] {
            let plan = PartitionPlan::compute(&pipeline, "ev.sym", leaves).unwrap();
            assert_eq!(plan.orphan_entries, 0);
            for t in &pipeline.tables {
                for e in t.entries() {
                    let m = plan.leaves_of(t, e);
                    assert_ne!(m, 0, "entry unassigned in {}", t.name);
                    assert_eq!(m & !((1u64 << leaves) - 1), 0, "mask beyond leaf count");
                }
            }
            for (l, slice) in plan.slices(&pipeline).iter().enumerate() {
                let held: usize = slice.tables.iter().map(Table::len).sum();
                assert_eq!(plan.leaf_entries(l), held, "leaves={leaves} leaf={l}");
            }
        }
    }

    /// One leaf holds every row, so each of its tables is the master's
    /// own, prepared index included: the slice lowers nothing again.
    #[test]
    fn a_one_leaf_slice_of_a_prepared_master_is_prepared() {
        let pipeline = compile(RULES);
        assert!(pipeline.tables.iter().all(Table::is_prepared));
        let plan = PartitionPlan::compute(&pipeline, "ev.sym", 1).unwrap();
        let slice = plan.slice(&pipeline, 0);
        for (t, master) in slice.tables.iter().zip(&pipeline.tables) {
            assert!(t.is_prepared(), "{} lowered again", t.name);
            assert_eq!(t.len(), master.len());
        }
    }

    /// Per live leaf of `master` cut `leaves` ways: `(rows its slice's
    /// tables lower when prepared, rows of the sharding table whose state
    /// lost a row to another leaf)`.
    fn lowered_and_split(master: &Pipeline, leaves: usize) -> Vec<(usize, usize)> {
        let plan = PartitionPlan::compute(master, "add_order.stock", leaves).unwrap();
        let shard = master.layout.get("add_order.stock").unwrap();
        let shard_table = (master.tables.iter())
            .find(|t| t.keys().get(1).is_some_and(|k| k.field == shard))
            .unwrap();
        (0..leaves)
            .map(|l| {
                let mut slice = plan.slice(master, l);
                let lowered = slice.tables.iter_mut().map(Table::prepare).sum();
                let held = |e: &Entry| plan.leaves_of(shard_table, e) & (1 << l) != 0;
                let lost: Vec<_> = shard_table.entries().filter(|e| !held(e)).collect();
                let split = (shard_table.entries().filter(|e| held(e)))
                    .filter(|e| lost.iter().any(|d| d.matches[0] == e.matches[0]))
                    .count();
                (lowered, split)
            })
            .collect()
    }

    /// The ITCH price rules: `stock == S ∧ price > P`, 100 symbols.
    fn itch_rules(n: usize) -> Vec<camus_lang::ast::Rule> {
        let cfg = camus_workload::ItchSubsConfig {
            subscriptions: n,
            ..Default::default()
        };
        camus_workload::generate_itch_subscriptions(&cfg)
    }

    fn itch_spec() -> camus_lang::spec::Spec {
        parse_spec(camus_lang::spec::ITCH_SPEC).unwrap()
    }

    /// A leaf's slice comes out on the master's prepared index: a leaf
    /// lowers only the sharding table's runs the partition splits among
    /// leaves (at most its 100 pinned symbols and the wildcard row), and
    /// nothing at one leaf.
    #[test]
    fn an_epoch_lowers_only_the_runs_the_partition_split() {
        let compiler = Compiler::new(itch_spec(), CompilerOptions::default()).unwrap();
        let master = compiler.compile(&itch_rules(1000)).unwrap().pipeline;
        for leaves in [1, 2, 4] {
            let per_leaf = lowered_and_split(&master, leaves);
            eprintln!("1 000 rules, {leaves} leaves: (lowered, split) per leaf {per_leaf:?}");
            for (l, (lowered, split)) in per_leaf.into_iter().enumerate() {
                assert_eq!(lowered, split, "leaves={leaves} leaf={l}");
                assert!(
                    split <= 101 && (leaves > 1 || split == 0),
                    "{split} split rows"
                );
            }
        }
    }

    /// What a leaf lowers per epoch does not grow with the program: over
    /// eight session updates (one rule in and out again) on 2 leaves, at
    /// most twice as many rows at 5 000 rules as at 1 000.
    #[test]
    fn an_epoch_lowers_as_many_rows_at_5_000_rules_as_at_1_000() {
        let per_leaf_epoch = |n: usize| {
            let pool = itch_rules(n + 4);
            let opts = CompilerOptions::default();
            let mut session = crate::IncrementalCompiler::new(itch_spec(), &opts, &pool).unwrap();
            session.install(&pool[..n]).unwrap();
            let mut lowered = 0;
            for i in 0..8 {
                let rule = std::slice::from_ref(&pool[n + i / 2]);
                let (add, remove) = if i % 2 == 0 {
                    (rule, &[][..])
                } else {
                    (&[][..], rule)
                };
                let master = session.update(add, remove).unwrap().pipeline;
                lowered += (lowered_and_split(&master, 2).iter())
                    .map(|&(rows, _)| rows)
                    .sum::<usize>();
            }
            lowered as f64 / 16.0
        };
        let (small, large) = (per_leaf_epoch(1000), per_leaf_epoch(5000));
        eprintln!("rows lowered per leaf per epoch: {small} at 1 000 rules, {large} at 5 000");
        assert!(
            large <= 2.0 * small,
            "{large} rows at 5 000 rules, {small} at 1 000"
        );
    }

    #[test]
    fn pinned_symbol_entries_live_only_on_their_owner() {
        let pipeline = compile(RULES);
        let leaves = 4;
        let plan = PartitionPlan::compute(&pipeline, "ev.sym", leaves).unwrap();
        let shard_phv = pipeline.layout.get("ev.sym").unwrap();
        for t in &pipeline.tables {
            if t.keys().get(1).is_none_or(|k| k.field != shard_phv) {
                continue;
            }
            for e in t.entries() {
                if let MatchValue::Exact(v) = e.matches[1] {
                    assert_eq!(
                        plan.leaves_of(t, e),
                        1 << owner_of(v, leaves),
                        "pinned row for {v:#x} replicated beyond its owner"
                    );
                }
            }
        }
    }

    #[test]
    fn routed_slices_forward_like_the_big_switch() {
        let pipeline = compile(RULES);
        for leaves in [1usize, 2, 3, 4] {
            let plan = PartitionPlan::compute(&pipeline, "ev.sym", leaves).unwrap();
            let mut slices = plan.slices(&pipeline);
            let mut big = pipeline.clone();
            for sym in ["AA", "BB", "CC", "ZZ"] {
                for val in [0u32, 3, 20, 60, 100] {
                    let ev = event(sym, val);
                    let key = camus_lang::symbol::encode_symbol(sym, 64);
                    let leaf = owner_of(key, leaves);
                    assert_eq!(
                        slices[leaf].process(&ev, 0).unwrap(),
                        big.process(&ev, 0).unwrap(),
                        "leaves={leaves} sym={sym} val={val}"
                    );
                }
            }
        }
    }

    #[test]
    fn bad_inputs_are_typed_errors() {
        let pipeline = compile(RULES);
        assert!(PartitionPlan::compute(&pipeline, "ev.nope", 2).is_err());
        assert!(PartitionPlan::compute(&pipeline, "ev.sym", 0).is_err());
        assert!(PartitionPlan::compute(&pipeline, "ev.sym", 65).is_err());
        assert!(PartitionPlan::compute_subset(&pipeline, "ev.sym", 4, 0).is_err());
    }

    #[test]
    fn subset_plan_keeps_survivors_stable_and_forwards_like_big_switch() {
        let pipeline = compile(RULES);
        let leaves = 4;
        let live_mask = 0b1011u64; // leaf 2 is dead
        let plan = PartitionPlan::compute_subset(&pipeline, "ev.sym", leaves, live_mask).unwrap();
        assert_eq!(plan.live_mask, live_mask);
        assert_eq!(plan.leaf_entries(2), 0, "dead slot must hold nothing");
        for t in &pipeline.tables {
            for e in t.entries() {
                let m = plan.leaves_of(t, e);
                assert_ne!(m, 0, "cover: entry lost in failover");
                assert_eq!(m & !live_mask, 0, "entry placed on a dead leaf");
            }
        }
        // Symbols whose primary owner survives never move.
        for v in 0..512u64 {
            let primary = owner_of(v, leaves);
            let sub = owner_in_subset(v, leaves, live_mask);
            assert_ne!(sub, 2, "routed to the dead leaf");
            if live_mask & (1 << primary) != 0 {
                assert_eq!(sub, primary, "survivor shard moved");
            }
        }
        // Failover routing + slices ≡ big switch.
        let mut slices = plan.slices(&pipeline);
        let mut big = pipeline.clone();
        for sym in ["AA", "BB", "CC", "ZZ", "QQ"] {
            for val in [0u32, 3, 20, 60, 100] {
                let ev = event(sym, val);
                let key = camus_lang::symbol::encode_symbol(sym, 64);
                let leaf = owner_in_subset(key, leaves, live_mask);
                assert_eq!(
                    slices[leaf].process(&ev, 0).unwrap(),
                    big.process(&ev, 0).unwrap(),
                    "sym={sym} val={val}"
                );
            }
        }
        // Full-mask subset is exactly the healthy plan.
        let full = PartitionPlan::compute(&pipeline, "ev.sym", leaves).unwrap();
        let sub_full =
            PartitionPlan::compute_subset(&pipeline, "ev.sym", leaves, full_mask(leaves)).unwrap();
        assert_eq!(full, sub_full);
    }
}
