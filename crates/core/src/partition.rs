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
//!   a table miss passes the state through unchanged, so the set of
//!   states reachable on a leaf only ever grows front-to-back.
//! * Entries of the **sharding table** (the one keyed on the shard
//!   field) that pin an exact symbol live only on that symbol's owner
//!   leaf ([`owner_of`]); wildcard/exclusion rows ([`MatchValue::Any`])
//!   are replicated everywhere, preserving their priority shadowing —
//!   a leaf only ever sees packets whose symbol it owns, so the
//!   pinned row that would shadow a wildcard is always present where
//!   it matters.
//! * Every other state-chained entry is retained on a leaf iff its
//!   entry state is reachable there; non-state tables (domain
//!   compression) and the multicast groups are replicated in full.
//!
//! Two invariants make the fabric provably equivalent to the big
//! switch (and are property-tested in `crates/core/tests/prop.rs`):
//! every original entry appears on at least one leaf (cover), and each
//! slice contains only original entries in original relative order
//! (soundness). Slices may *overlap* on replicated rows; the
//! per-entry [`TableAssignment::masks`] record exactly which leaves
//! hold each entry, so the union-by-provenance reassembles the
//! original table set entry-for-entry.

use std::collections::HashSet;

use camus_pipeline::phv::PhvField;
use camus_pipeline::pipeline::Pipeline;
use camus_pipeline::table::{ActionOp, MatchValue, Table};

use crate::error::CompileError;

/// Maximum leaf count: leaf membership is a `u64` bitmask.
pub const MAX_LEAVES: usize = 64;

/// SplitMix64 finalizer — the same mix the engine's shard router uses,
/// duplicated here because `camus-core` sits below `camus-engine` in
/// the dependency order. Symbol ownership and worker sharding agreeing
/// on the mix is *not* required for correctness (any deterministic map
/// works), but using one family keeps key distribution uniform.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

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

/// Per-table entry→leaf assignment: `masks[i]` has bit `l` set iff
/// entry `i` (in the original table's insertion order) is held by
/// leaf `l`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableAssignment {
    /// Table name, matching [`Table::name`].
    pub table: String,
    /// One leaf bitmask per entry, in insertion order.
    pub masks: Vec<u64>,
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
    /// Per-table entry assignments, in pipeline table order.
    pub assignment: Vec<TableAssignment>,
    /// Entries whose entry state was unreachable on every leaf
    /// (cannot happen for compiler-emitted programs; such entries are
    /// replicated everywhere so the cover invariant still holds).
    pub orphan_entries: usize,
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
        let state_meta = pipeline
            .layout
            .get("meta.state")
            .ok_or_else(|| CompileError::BadSpec("pipeline has no meta.state register".into()))?;
        let init_state = pipeline
            .init_fields
            .iter()
            .find(|(f, _)| *f == state_meta)
            .map(|&(_, v)| v)
            .unwrap_or(0);

        // Replicated rows land on every *live* leaf; dead slots hold
        // nothing.
        let all_mask = live_mask;
        // Forward state reachability per leaf. Misses pass the state
        // through unchanged, so sets only grow. Dead leaves start (and
        // stay) unreachable.
        let mut reach: Vec<HashSet<u64>> = (0..leaves)
            .map(|l| {
                if live_mask & (1 << l) != 0 {
                    HashSet::from([init_state])
                } else {
                    HashSet::new()
                }
            })
            .collect();
        let mut assignment = Vec::with_capacity(pipeline.tables.len());
        let mut orphan_entries = 0usize;

        for table in &pipeline.tables {
            let state_keyed = table
                .keys()
                .first()
                .map(|k| k.field == state_meta)
                .unwrap_or(false);
            let shard_table = state_keyed
                && table
                    .keys()
                    .get(1)
                    .map(|k| k.field == shard_phv)
                    .unwrap_or(false);

            let mut masks = Vec::with_capacity(table.len());
            if !state_keyed {
                // Domain-compression tables (keyed on a raw field, no
                // state) run identically everywhere.
                masks.resize(table.len(), all_mask);
            } else {
                for e in table.entries() {
                    let mut mask = 0u64;
                    for (l, r) in reach.iter().enumerate() {
                        if live_mask & (1 << l) == 0 {
                            continue;
                        }
                        let state_ok = match e.matches[0] {
                            MatchValue::Exact(s) => r.contains(&s),
                            // Wildcard state rows (should not occur in
                            // emitted programs) apply on every leaf.
                            _ => true,
                        };
                        if !state_ok {
                            continue;
                        }
                        let owned = if shard_table {
                            match e.matches.get(1) {
                                // A pinned symbol row lives only on
                                // the symbol's (possibly failed-over)
                                // owner.
                                Some(MatchValue::Exact(v)) => {
                                    owner_in_subset(*v, leaves, live_mask) == l
                                }
                                // Wildcard/exclusion rows replicate.
                                _ => true,
                            }
                        } else {
                            true
                        };
                        if owned {
                            mask |= 1 << l;
                        }
                    }
                    if mask == 0 {
                        // Unreachable entry: replicate so the cover
                        // invariant (union of slices == original)
                        // survives even degenerate inputs.
                        orphan_entries += 1;
                        mask = all_mask;
                    }
                    masks.push(mask);
                }
                // Grow each leaf's reachable set with the out-states
                // of the entries it retained.
                for (e, &mask) in table.entries().zip(&masks) {
                    for op in &e.ops {
                        if let ActionOp::SetField(f, v) = op {
                            if *f == state_meta {
                                for (l, r) in reach.iter_mut().enumerate() {
                                    if mask & (1 << l) != 0 {
                                        r.insert(*v);
                                    }
                                }
                            }
                        }
                    }
                }
            }
            assignment.push(TableAssignment {
                table: table.name.clone(),
                masks,
            });
        }

        Ok(PartitionPlan {
            leaves,
            live_mask,
            shard_field: shard_field.to_string(),
            assignment,
            orphan_entries,
        })
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
        assert_eq!(
            pipeline.tables.len(),
            self.assignment.len(),
            "plan does not match this pipeline"
        );
        let bit = 1u64 << leaf;
        let tables = pipeline
            .tables
            .iter()
            .zip(&self.assignment)
            .map(|(t, a)| {
                let mut out = Table::new(t.name.clone(), t.keys().to_vec(), t.default_ops.clone())
                    .expect("keys came from a built table");
                for (e, &mask) in t.entries().zip(&a.masks) {
                    if mask & bit != 0 {
                        out.add_entry(e.clone())
                            .expect("entry came from a validated table");
                    }
                }
                out
            })
            .collect();
        Pipeline {
            layout: pipeline.layout.clone(),
            parser: pipeline.parser.clone(),
            tables,
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
        let bit = 1u64 << leaf;
        self.assignment
            .iter()
            .map(|a| a.masks.iter().filter(|&&m| m & bit != 0).count())
            .sum()
    }

    /// The PHV slot of the sharding field in `pipeline`'s layout.
    pub fn shard_phv(&self, pipeline: &Pipeline) -> Option<PhvField> {
        pipeline.layout.get(&self.shard_field)
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
            for (t, a) in pipeline.tables.iter().zip(&plan.assignment) {
                assert_eq!(t.len(), a.masks.len());
                for &m in &a.masks {
                    assert_ne!(m, 0, "entry unassigned in {}", t.name);
                    assert_eq!(m & !((1u64 << leaves) - 1), 0, "mask beyond leaf count");
                }
            }
        }
    }

    #[test]
    fn pinned_symbol_entries_live_only_on_their_owner() {
        let pipeline = compile(RULES);
        let leaves = 4;
        let plan = PartitionPlan::compute(&pipeline, "ev.sym", leaves).unwrap();
        let shard_phv = pipeline.layout.get("ev.sym").unwrap();
        for (t, a) in pipeline.tables.iter().zip(&plan.assignment) {
            let is_shard = t
                .keys()
                .get(1)
                .map(|k| k.field == shard_phv)
                .unwrap_or(false);
            if !is_shard {
                continue;
            }
            for (e, &m) in t.entries().zip(&a.masks) {
                if let MatchValue::Exact(v) = e.matches[1] {
                    assert_eq!(
                        m,
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
        for a in &plan.assignment {
            for &m in &a.masks {
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
