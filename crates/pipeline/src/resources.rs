//! ASIC resource model: SRAM/TCAM accounting, TCAM range expansion and
//! stage placement.
//!
//! §3.2 "Resource Optimizations": TCAM "consume\[s\] large area of die and
//! high power", and "matching on a range in TCAM is not scalable … as
//! each range-match requires multiple TCAM entries (O(#bits))". This
//! module makes those costs concrete: ranges are expanded into prefix
//! entries (the classic decomposition, worst case `2w−2` entries for a
//! `w`-bit field), exact tables are charged to SRAM, and the compiled
//! program is placed onto a fixed number of stages with per-stage
//! budgets patterned on a Tofino-class device.

use std::fmt;

use crate::table::{Key, MatchKind, MatchValue, Table};

/// Which memory a table consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Memory {
    /// Hash-based exact matching.
    Sram,
    /// Ternary matching (priority CAM).
    Tcam,
}

/// How the ASIC implements range matching in TCAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RangeMode {
    /// Naive prefix decomposition: one logical range becomes O(#bits)
    /// physical entries — the cost §3.2 warns about.
    PrefixExpansion,
    /// DirtCAM-style nibble encoding (what Tofino ships): one physical
    /// entry per logical range, but each 4-bit nibble of the field
    /// consumes 16 TCAM bits, quadrupling the key width.
    DirtCam,
}

/// A Tofino-class resource model. Numbers are representative of
/// published RMT/Tofino figures, not vendor-exact; what matters for the
/// reproduction is that they impose the same *shape* of constraint
/// (TCAM ≪ SRAM, fixed stages, per-stage budgets).
#[derive(Debug, Clone, PartialEq)]
pub struct AsicModel {
    /// Model name for reports.
    pub name: String,
    /// Number of match-action stages.
    pub stages: usize,
    /// Exact-match (SRAM) entries available per stage.
    pub sram_entries_per_stage: usize,
    /// Ternary (TCAM) entries available per stage.
    pub tcam_entries_per_stage: usize,
    /// Width of one TCAM slice; wider keys gang multiple slices and
    /// proportionally reduce entry capacity.
    pub tcam_slice_bits: u32,
    /// Number of front-panel ports.
    pub ports: u16,
    /// Line rate per port, Gb/s.
    pub port_gbps: f64,
    /// Minimum port-to-port latency of the pipeline, nanoseconds.
    pub pipeline_latency_ns: u64,
    /// Range-match implementation.
    pub range_mode: RangeMode,
}

impl AsicModel {
    /// The 32-port, 3.25 Tb/s configuration used in the paper's
    /// evaluation (§4: "a 32-port Barefoot Tofino switch, which can
    /// process packets at 3.25 Tbps").
    pub fn tofino32() -> Self {
        AsicModel {
            name: "tofino-32x100G".into(),
            stages: 12,
            sram_entries_per_stage: 80 * 1024,
            tcam_entries_per_stage: 24 * 512,
            tcam_slice_bits: 44,
            ports: 32,
            port_gbps: 100.0,
            pipeline_latency_ns: 400,
            range_mode: RangeMode::DirtCam,
        }
    }

    /// The same device with naive prefix-expanded ranges — the ablation
    /// baseline for §3.2's TCAM-cost discussion.
    pub fn with_prefix_expansion(mut self) -> Self {
        self.range_mode = RangeMode::PrefixExpansion;
        self
    }

    /// The 64-port, 6.5 Tb/s configuration (§4: "on the 64-port version
    /// of the switch, we would support 6.5 Tbps").
    pub fn tofino64() -> Self {
        AsicModel {
            name: "tofino-64x100G".into(),
            ports: 64,
            ..Self::tofino32()
        }
    }

    /// Aggregate switching bandwidth in Tb/s.
    pub fn total_tbps(&self) -> f64 {
        f64::from(self.ports) * self.port_gbps / 1000.0
    }
}

/// Decomposes an inclusive range into ternary prefix entries
/// (value, mask) over a `bits`-wide field — the O(#bits) expansion the
/// paper's resource discussion refers to.
pub fn range_to_prefixes(lo: u64, hi: u64, bits: u32) -> Vec<(u64, u64)> {
    assert!(lo <= hi, "empty range");
    let bits = bits.min(64);
    let full: u128 = if bits == 64 {
        1u128 << 64
    } else {
        1u128 << bits
    };
    assert!((hi as u128) < full, "range exceeds field domain");
    let mut out = Vec::new();
    let mut lo = lo as u128;
    let hi = hi as u128;
    while lo <= hi {
        // Largest power-of-two block that starts at `lo` (alignment)
        // and does not overshoot `hi`.
        let align = if lo == 0 {
            full
        } else {
            lo & lo.wrapping_neg()
        };
        let mut size = align;
        while lo + size - 1 > hi {
            size >>= 1;
        }
        let mask = ((full - 1) ^ (size - 1)) as u64;
        out.push((lo as u64, mask));
        lo += size;
        if size == full {
            break; // whole domain covered
        }
    }
    out
}

/// Resource cost of one table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableCost {
    /// Table name.
    pub name: String,
    /// Memory type (TCAM iff any key is non-exact).
    pub memory: Memory,
    /// Logical entries installed by the control plane.
    pub logical_entries: usize,
    /// Physical entries after range expansion.
    pub physical_entries: usize,
    /// TCAM slices ganged per physical entry (1 for SRAM).
    pub slices_per_entry: usize,
}

impl TableCost {
    /// Physical entries × slices: the stage-budget charge.
    pub fn charge(&self) -> usize {
        self.physical_entries * self.slices_per_entry
    }
}

/// Computes the cost of a table under a model. A row expands into
/// several physical entries only in TCAM under
/// [`RangeMode::PrefixExpansion`], so only then are the rows walked;
/// otherwise every row is one physical entry and the charge is the
/// table's length.
pub fn table_cost(table: &Table, model: &AsicModel) -> TableCost {
    let memory = if table.keys().iter().all(|k| k.kind == MatchKind::Exact) {
        Memory::Sram
    } else {
        Memory::Tcam
    };
    // Effective key width: DirtCAM quadruples range-key bits (nibble →
    // 16-bit one-hot); prefix expansion keeps the raw width but
    // multiplies entries instead.
    let key_bits: u32 = table
        .keys()
        .iter()
        .map(|k| {
            if k.kind == MatchKind::Range && model.range_mode == RangeMode::DirtCam {
                4 * k.bits
            } else {
                k.bits
            }
        })
        .sum();
    let slices_per_entry = match memory {
        Memory::Sram => 1,
        Memory::Tcam => key_bits.div_ceil(model.tcam_slice_bits) as usize,
    };
    let physical_entries =
        if memory == Memory::Tcam && model.range_mode == RangeMode::PrefixExpansion {
            table
                .entries()
                .map(|e| prefix_expansion(table.keys(), &e.matches))
                .sum()
        } else {
            table.len()
        };
    TableCost {
        name: table.name.clone(),
        memory,
        logical_entries: table.len(),
        physical_entries,
        slices_per_entry,
    }
}

/// TCAM entries one row takes under prefix expansion: the product of
/// its range keys' prefix counts.
fn prefix_expansion(keys: &[Key], matches: &[MatchValue]) -> usize {
    let mut n = 1usize;
    for (k, m) in keys.iter().zip(matches) {
        if let MatchValue::Range { lo, hi } = *m {
            n = n.saturating_mul(range_to_prefixes(lo, hi, k.bits).len());
        }
    }
    n
}

/// A typed resource-admission failure: which table could not be
/// placed, where placement gave up, and the budget arithmetic — the
/// error the live update plane rejects over-committing updates with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionError {
    /// Table that failed to place.
    pub table: String,
    /// First stage the table was eligible to start in.
    pub stage: usize,
    /// Memory pool that ran out.
    pub memory: Memory,
    /// Entry-slices the table needs.
    pub needed: usize,
    /// Entry-slices still available in the eligible stages.
    pub available: usize,
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mem = match self.memory {
            Memory::Sram => "SRAM",
            Memory::Tcam => "TCAM",
        };
        if self.available == 0 {
            write!(
                f,
                "table `{}`: out of stages ({} {mem} entry-slices needed from stage {})",
                self.table, self.needed, self.stage
            )
        } else {
            write!(
                f,
                "table `{}`: needs {} {mem} entry-slices from stage {}, only {} available",
                self.table, self.needed, self.stage, self.available
            )
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Where one table landed in the stage plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TablePlacement {
    /// Cost summary.
    pub cost: TableCost,
    /// First stage used (0-based).
    pub first_stage: usize,
    /// Last stage used.
    pub last_stage: usize,
}

/// Result of placing a program onto the ASIC.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementReport {
    /// The model placed against.
    pub model: AsicModel,
    /// Per-table placements (empty on failure).
    pub placements: Vec<TablePlacement>,
    /// Total stages used.
    pub stages_used: usize,
    /// Total SRAM entries consumed.
    pub sram_entries: usize,
    /// Total TCAM entry-slices consumed.
    pub tcam_slices: usize,
    /// `None` when the program fits; otherwise the typed admission
    /// failure (which table, which memory, needed vs available).
    pub failure: Option<AdmissionError>,
}

impl PlacementReport {
    /// Whether the program fits the device.
    pub fn fits(&self) -> bool {
        self.failure.is_none()
    }
}

/// Assigns the compiler's dependency levels to a compiled table chain:
/// `t_cmp_*` compression tables read only parser fields (level 0, so
/// they may share the earliest stages); each main table must follow
/// both the previous main table (the state-metadata chain) and its own
/// compression table, if any. This is the leveling convention both the
/// offline compiler and the live update plane charge admission with —
/// keeping them byte-identical is what makes the engine's admission
/// check authoritative.
pub fn level_chain(tables: &[Table]) -> Vec<(&Table, usize)> {
    let mut prev_main: Option<usize> = None;
    let mut last_was_cmp = false;
    tables
        .iter()
        .map(|t| {
            if t.name.starts_with("t_cmp_") {
                last_was_cmp = true;
                (t, 0)
            } else {
                let mut level = prev_main.map_or(0, |l| l + 1);
                if last_was_cmp {
                    level = level.max(1);
                }
                last_was_cmp = false;
                prev_main = Some(level);
                (t, level)
            }
        })
        .collect()
}

/// Places a compiled table chain ([`level_chain`] leveling) onto a
/// model — the shared admission charge for full compiles and live
/// updates.
pub fn place_chain(tables: &[Table], model: &AsicModel) -> PlacementReport {
    place_leveled(&level_chain(tables), model)
}

/// Greedy placement with explicit dependency levels.
///
/// Tables at the same level are independent and may share a stage;
/// a table at level `L` must start strictly after every level-`<L`
/// table has finished (match dependencies through the `state`
/// metadata). Large tables spill over consecutive stages (Tofino
/// table chaining).
pub fn place_leveled(tables: &[(&Table, usize)], model: &AsicModel) -> PlacementReport {
    let mut placements = Vec::new();
    let mut sram_left = vec![model.sram_entries_per_stage; model.stages];
    let mut tcam_left = vec![model.tcam_entries_per_stage; model.stages];
    let mut failure = None;
    // First stage each level may start in; level L+1 starts after the
    // last stage any level-<=L table used.
    let mut level_start: Vec<usize> = Vec::new();

    let mut sorted: Vec<&(&Table, usize)> = tables.iter().collect();
    sorted.sort_by_key(|(_, lvl)| *lvl);

    for &&(t, level) in &sorted {
        let cost = table_cost(t, model);
        let needed = cost.charge().max(1); // empty tables still occupy a stage
        while level_start.len() <= level {
            let prev_end = placements
                .iter()
                .zip(sorted.iter())
                .filter(|(_, (_, l)): &(&TablePlacement, _)| *l < level_start.len())
                .map(|(p, _): (&TablePlacement, _)| p.last_stage + 1)
                .max()
                .unwrap_or(0);
            level_start.push(prev_end.max(level_start.last().copied().unwrap_or(0)));
        }
        let mut stage = level_start[level];
        // Skip stages already exhausted for this memory type.
        let exhausted = |s: usize, sram: &Vec<usize>, tcam: &Vec<usize>| match cost.memory {
            Memory::Sram => sram[s] == 0,
            Memory::Tcam => tcam[s] == 0,
        };
        while stage < model.stages && exhausted(stage, &sram_left, &tcam_left) {
            stage += 1;
        }
        // Admission arithmetic up front: the table spills greedily from
        // `stage`, draining each stage's remaining budget, so it fits
        // iff the eligible window holds its whole charge. Checking
        // before consuming keeps a failed placement side-effect-free —
        // the budgets (and the report's totals) reflect only tables
        // that actually placed.
        let available: usize = (stage..model.stages)
            .map(|s| match cost.memory {
                Memory::Sram => sram_left[s],
                Memory::Tcam => tcam_left[s],
            })
            .sum();
        if stage >= model.stages || needed > available {
            failure = Some(AdmissionError {
                table: cost.name.clone(),
                stage: level_start[level].min(model.stages),
                memory: cost.memory,
                needed,
                available,
            });
            let edge = stage.min(model.stages);
            placements.push(TablePlacement {
                cost,
                first_stage: edge,
                last_stage: edge,
            });
            break;
        }
        let first_stage = stage;
        let mut remaining = needed;
        while remaining > 0 {
            let budget = match cost.memory {
                Memory::Sram => &mut sram_left[stage],
                Memory::Tcam => &mut tcam_left[stage],
            };
            let take = remaining.min(*budget);
            *budget -= take;
            remaining -= take;
            if remaining > 0 {
                stage += 1;
            }
        }
        let last_stage = stage;
        placements.push(TablePlacement {
            cost,
            first_stage,
            last_stage,
        });
    }

    let sram_entries: usize = placements
        .iter()
        .filter(|p| p.cost.memory == Memory::Sram)
        .map(|p| p.cost.charge())
        .sum();
    let tcam_slices: usize = placements
        .iter()
        .filter(|p| p.cost.memory == Memory::Tcam)
        .map(|p| p.cost.charge())
        .sum();
    let stages_used = placements
        .iter()
        .map(|p| p.last_stage + 1)
        .max()
        .unwrap_or(0);
    PlacementReport {
        model: model.clone(),
        placements,
        stages_used,
        sram_entries,
        tcam_slices,
        failure,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phv::PhvLayout;
    use crate::table::{Entry, Key, MatchKind, MatchValue, Table};

    #[test]
    fn range_expansion_covers_exactly() {
        for (lo, hi, bits) in [
            (0u64, 255u64, 8u32),
            (1, 6, 4),
            (0, 59, 8),
            (101, 255, 8),
            (60, 100, 8),
            (7, 7, 8),
        ] {
            let prefixes = range_to_prefixes(lo, hi, bits);
            for v in 0..(1u64 << bits) {
                let covered = prefixes.iter().any(|&(val, mask)| v & mask == val & mask);
                assert_eq!(covered, v >= lo && v <= hi, "v={v} range=[{lo},{hi}]");
            }
            // No overlap between prefixes.
            for v in lo..=hi {
                let n = prefixes
                    .iter()
                    .filter(|&&(val, mask)| v & mask == val & mask)
                    .count();
                assert_eq!(n, 1, "v={v} covered {n} times");
            }
        }
    }

    #[test]
    fn range_expansion_size_is_linear_in_bits() {
        // Worst case 2w−2 entries: [1, 2^w−2].
        let p = range_to_prefixes(1, (1 << 16) - 2, 16);
        assert_eq!(p.len(), 2 * 16 - 2);
        // Aligned power-of-two ranges take one entry.
        assert_eq!(range_to_prefixes(0, 255, 8).len(), 1);
        assert_eq!(range_to_prefixes(64, 127, 8).len(), 1);
        // Full 64-bit domain.
        assert_eq!(range_to_prefixes(0, u64::MAX, 64).len(), 1);
    }

    fn mk_table(name: &str, kinds: &[(MatchKind, u32)]) -> Table {
        let mut layout = PhvLayout::new();
        let keys: Vec<Key> = kinds
            .iter()
            .enumerate()
            .map(|(i, &(kind, bits))| Key {
                field: layout.add(format!("f{i}"), bits),
                kind,
                bits,
            })
            .collect();
        Table::new(name, keys, vec![]).unwrap()
    }

    #[test]
    fn exact_tables_are_sram() {
        let mut t = mk_table("t", &[(MatchKind::Exact, 16), (MatchKind::Exact, 64)]);
        t.add_entry(Entry {
            priority: 0,
            matches: vec![MatchValue::Exact(1), MatchValue::Exact(2)],
            ops: vec![],
        })
        .unwrap();
        let c = table_cost(&t, &AsicModel::tofino32());
        assert_eq!(c.memory, Memory::Sram);
        assert_eq!(c.physical_entries, 1);
        assert_eq!(c.slices_per_entry, 1);
    }

    #[test]
    fn range_tables_expand_into_tcam() {
        let mut t = mk_table("t", &[(MatchKind::Exact, 16), (MatchKind::Range, 32)]);
        t.add_entry(Entry {
            priority: 0,
            matches: vec![
                MatchValue::Exact(1),
                MatchValue::Range {
                    lo: 1,
                    hi: (1 << 32) - 2,
                },
            ],
            ops: vec![],
        })
        .unwrap();
        let model = AsicModel::tofino32().with_prefix_expansion();
        let c = table_cost(&t, &model);
        assert_eq!(c.memory, Memory::Tcam);
        assert_eq!(c.physical_entries, 2 * 32 - 2);
        // 16 + 32 = 48 bits > 44-bit slice → 2 slices.
        assert_eq!(c.slices_per_entry, 2);
        assert_eq!(c.charge(), (2 * 32 - 2) * 2);

        // DirtCAM: one physical entry, but the 32-bit range key widens to
        // 128 bits → (16 + 128) / 44 → 4 slices.
        let dirt = AsicModel::tofino32();
        let c = table_cost(&t, &dirt);
        assert_eq!(c.physical_entries, 1);
        assert_eq!(c.slices_per_entry, 4);
    }

    /// SRAM tables, and TCAM tables under DirtCAM, charge one physical
    /// entry per row (the table's length, no walk); only prefix
    /// expansion adds up each row's prefixes.
    #[test]
    fn only_prefix_expansion_charges_more_than_one_entry_per_row() {
        let range = |lo, hi| Entry {
            priority: 0,
            matches: vec![MatchValue::Exact(1), MatchValue::Range { lo, hi }],
            ops: vec![],
        };
        let mut t = mk_table("t", &[(MatchKind::Exact, 16), (MatchKind::Range, 8)]);
        // 2 + 1 + 14 prefixes.
        for row in [range(1, 2), range(0, 255), range(1, 254)] {
            t.add_entry(row).unwrap();
        }
        let dirt = table_cost(&t, &AsicModel::tofino32());
        assert_eq!((dirt.logical_entries, dirt.physical_entries), (3, 3));
        let prefix = table_cost(&t, &AsicModel::tofino32().with_prefix_expansion());
        assert_eq!((prefix.logical_entries, prefix.physical_entries), (3, 17));

        let mut sram = mk_table("s", &[(MatchKind::Exact, 16)]);
        for i in 0..5 {
            let matches = vec![MatchValue::Exact(i)];
            let ops = vec![];
            sram.add_entry(Entry {
                priority: 0,
                matches,
                ops,
            })
            .unwrap();
        }
        for model in [
            AsicModel::tofino32(),
            AsicModel::tofino32().with_prefix_expansion(),
        ] {
            let c = table_cost(&sram, &model);
            assert_eq!((c.logical_entries, c.physical_entries), (5, 5));
        }
    }

    #[test]
    fn placement_chains_dependent_tables() {
        let mk = |name: &str| {
            let mut t = mk_table(name, &[(MatchKind::Exact, 16)]);
            t.add_entry(Entry {
                priority: 0,
                matches: vec![MatchValue::Exact(0)],
                ops: vec![],
            })
            .unwrap();
            t
        };
        let model = AsicModel::tofino32();
        let rep = place_chain(&[mk("a"), mk("b"), mk("c")], &model);
        assert!(rep.fits());
        assert_eq!(rep.stages_used, 3);
        let stages: Vec<usize> = rep.placements.iter().map(|p| p.first_stage).collect();
        assert_eq!(stages, vec![0, 1, 2]);
    }

    #[test]
    fn oversized_table_spills_stages() {
        let mut t = mk_table("big", &[(MatchKind::Exact, 16)]);
        let model = AsicModel::tofino32();
        for i in 0..(model.sram_entries_per_stage + 10) {
            t.add_entry(Entry {
                priority: 0,
                matches: vec![MatchValue::Exact(i as u64)],
                ops: vec![],
            })
            .unwrap();
        }
        let rep = place_leveled(&[(&t, 0)], &model);
        assert!(rep.fits());
        assert_eq!(rep.placements[0].first_stage, 0);
        assert_eq!(rep.placements[0].last_stage, 1);
    }

    #[test]
    fn too_many_tables_fail_placement() {
        let tables: Vec<Table> = (0..20)
            .map(|i| mk_table(&format!("t{i}"), &[(MatchKind::Exact, 8)]))
            .collect();
        let rep = place_chain(&tables, &AsicModel::tofino32());
        assert!(!rep.fits());
        let err = rep.failure.as_ref().unwrap();
        assert_eq!(err.table, "t12");
        assert_eq!(err.stage, 12);
        assert_eq!(err.available, 0);
        assert!(err.to_string().contains("out of stages"));
    }

    #[test]
    fn admission_failure_reports_budget_arithmetic() {
        // One exact table larger than the whole device: the typed error
        // must carry the exact needed-vs-available arithmetic so the
        // update plane can explain rejections.
        let model = AsicModel::tofino32();
        let total = model.sram_entries_per_stage * model.stages;
        let mut t = mk_table("huge", &[(MatchKind::Exact, 16)]);
        for i in 0..(total + 1) {
            t.add_entry(Entry {
                priority: 0,
                matches: vec![MatchValue::Exact(i as u64)],
                ops: vec![],
            })
            .unwrap();
        }
        let rep = place_leveled(&[(&t, 0)], &model);
        assert!(!rep.fits());
        let err = rep.failure.as_ref().unwrap();
        assert_eq!(err.table, "huge");
        assert_eq!(err.memory, Memory::Sram);
        assert_eq!(err.stage, 0);
        assert_eq!(err.needed, total + 1);
        assert_eq!(err.available, total);
        // A failed placement must be side-effect-free on the totals:
        // nothing was actually consumed.
        assert_eq!(rep.sram_entries, total + 1); // cost summary, not consumption
        assert!(err.to_string().contains("only"));
    }

    #[test]
    fn level_chain_matches_compiler_convention() {
        let tables = vec![
            mk_table("t_cmp_price", &[(MatchKind::Exact, 32)]),
            mk_table("t_price", &[(MatchKind::Exact, 16)]),
            mk_table("t_stock", &[(MatchKind::Exact, 64)]),
            mk_table("t_leaf", &[(MatchKind::Exact, 16)]),
        ];
        let leveled = level_chain(&tables);
        let levels: Vec<usize> = leveled.iter().map(|&(_, l)| l).collect();
        assert_eq!(levels, vec![0, 1, 2, 3]);
        // No compression tables: mains start at level 0.
        let plain = vec![
            mk_table("t_a", &[(MatchKind::Exact, 16)]),
            mk_table("t_b", &[(MatchKind::Exact, 16)]),
        ];
        let levels: Vec<usize> = level_chain(&plain).iter().map(|&(_, l)| l).collect();
        assert_eq!(levels, vec![0, 1]);
    }

    #[test]
    fn model_bandwidths_match_paper() {
        assert!((AsicModel::tofino32().total_tbps() - 3.2).abs() < 0.1);
        assert!((AsicModel::tofino64().total_tbps() - 6.4).abs() < 0.2);
    }
}
