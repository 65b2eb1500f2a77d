//! Deterministic fault-injection plans for the robustness soak tests.
//!
//! A [`FaultPlan`] is generated from a clean packet trace and a seed:
//! it mutates a chosen fraction of the packets on the wire (truncation,
//! single-bit flips — the corruptions a total parse path must absorb as
//! typed drops) and scripts worker faults by submission sequence number
//! (worker panics, worker deaths).
//! Everything is a pure function of the seed, so a failing soak run
//! reproduces exactly.
//!
//! The plan is engine-agnostic: it produces plain seq sets which the
//! test wires into the engine's `FaultInjection` hooks, and the mutated
//! trace is fed identically to the engine under test and the
//! sequential oracle, so corruption never makes the comparison
//! ambiguous — both sides see the same bytes.

use std::collections::HashSet;

use camus_lang::ast::Rule;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::itch_subs::{generate_itch_subscriptions, ItchSubsConfig};

/// One on-the-wire corruption applied to a packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mutation {
    /// The packet was cut down to its first `kept` bytes.
    Truncate {
        /// Bytes kept (strictly less than the original length).
        kept: usize,
    },
    /// One bit was flipped in place.
    BitFlip {
        /// Byte offset of the flip.
        byte: usize,
        /// Bit index within the byte (0 = LSB).
        bit: u8,
    },
}

/// Fault-plan knobs. Fractions are per-packet probabilities; scripted
/// fault counts are drawn without replacement from the trace's seq
/// space.
#[derive(Debug, Clone)]
pub struct FaultPlanConfig {
    /// RNG seed; the whole plan is a pure function of it.
    pub seed: u64,
    /// Probability a packet is truncated.
    pub truncate_fraction: f64,
    /// Probability a packet gets a single-bit flip.
    pub bitflip_fraction: f64,
    /// Submission seqs scripted to panic the worker processing them.
    pub panics: usize,
    /// Submission seqs scripted to kill the worker processing them.
    pub deaths: usize,
}

impl Default for FaultPlanConfig {
    fn default() -> Self {
        FaultPlanConfig {
            seed: 0xFA017,
            truncate_fraction: 0.05,
            bitflip_fraction: 0.05,
            panics: 2,
            deaths: 1,
        }
    }
}

/// A deterministic fault schedule over one packet trace.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// The mutated trace, same length and order as the clean input.
    pub packets: Vec<Vec<u8>>,
    /// Which packets were corrupted, and how (index into `packets`).
    pub mutations: Vec<(usize, Mutation)>,
    /// Submission seqs that should panic their worker.
    pub panic_seqs: HashSet<u64>,
    /// Submission seqs that should kill their worker.
    pub die_seqs: HashSet<u64>,
}

impl FaultPlan {
    /// Builds a plan over `clean`, assuming packet `i` is submitted as
    /// seq `i`. Scripted faults never target a mutated packet, so
    /// corruption handling and supervision recovery are exercised
    /// independently.
    pub fn generate(clean: &[Vec<u8>], cfg: &FaultPlanConfig) -> FaultPlan {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut packets = Vec::with_capacity(clean.len());
        let mut mutations = Vec::new();
        for (i, p) in clean.iter().enumerate() {
            let mut bytes = p.clone();
            if !bytes.is_empty() && rng.gen_bool(cfg.truncate_fraction.clamp(0.0, 1.0)) {
                let kept = rng.gen_range(0..bytes.len());
                bytes.truncate(kept);
                mutations.push((i, Mutation::Truncate { kept }));
            } else if !bytes.is_empty() && rng.gen_bool(cfg.bitflip_fraction.clamp(0.0, 1.0)) {
                let byte = rng.gen_range(0..bytes.len());
                let bit = rng.gen_range(0..8u8);
                bytes[byte] ^= 1 << bit;
                mutations.push((i, Mutation::BitFlip { byte, bit }));
            }
            packets.push(bytes);
        }

        let corrupted: HashSet<u64> = mutations.iter().map(|(i, _)| *i as u64).collect();
        let mut taken = corrupted;
        let mut draw = |rng: &mut StdRng, n: usize| -> HashSet<u64> {
            let mut out = HashSet::new();
            let space = clean.len() as u64;
            if space == 0 {
                return out;
            }
            let mut budget = n.min(clean.len());
            let mut attempts = 0;
            while budget > 0 && attempts < 10_000 {
                attempts += 1;
                let seq = rng.gen_range(0..space);
                if taken.insert(seq) {
                    out.insert(seq);
                    budget -= 1;
                }
            }
            out
        };
        let panic_seqs = draw(&mut rng, cfg.panics);
        let die_seqs = draw(&mut rng, cfg.deaths);

        FaultPlan {
            packets,
            mutations,
            panic_seqs,
            die_seqs,
        }
    }
}

/// What a scripted node-level chaos event does to its target leaf.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeEventKind {
    /// The leaf crashes abruptly (`Engine::simulate_crash`): every
    /// in-flight batch dies with it and it never comes back.
    Kill,
    /// The leaf's next batch to start stalls its worker for `ms` — a
    /// transient wedge. Epochs commit through it (a batch carries its
    /// program); only a drain times out on it, and the detector must
    /// not mistake it for a death.
    Stall {
        /// Stall duration, milliseconds.
        ms: u64,
    },
    /// The spine loses its link to the leaf: deliveries black-hole
    /// until the fabric's detector declares the leaf dead. From the
    /// fabric's point of view a partitioned leaf is indistinguishable
    /// from a crashed one (fail-stop model) — only the accounting
    /// path differs.
    Partition,
}

/// One scripted node-level event: at global submission seq `at_seq`,
/// do `kind` to leaf `leaf`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeEvent {
    /// Global (fabric-level) submission seq that triggers the event,
    /// checked before the packet is routed.
    pub at_seq: u64,
    /// Target leaf index.
    pub leaf: usize,
    /// What happens to it.
    pub kind: NodeEventKind,
}

/// Chaos-plan knobs: how many node-level events to script over a
/// trace, across how many leaves.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// RNG seed; the schedule is a pure function of it.
    pub seed: u64,
    /// Leaf count of the target fabric.
    pub leaves: usize,
    /// Leaves to kill outright (at most `leaves - 1`, so at least one
    /// survivor always remains to fail over to).
    pub kills: usize,
    /// Transient whole-leaf stalls to script.
    pub stalls: usize,
    /// Stall duration for scripted stalls, milliseconds.
    pub stall_ms: u64,
    /// Spine-to-leaf partitions to script (counted against the same
    /// `leaves - 1` survivor budget as kills).
    pub partitions: usize,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0xC4A05,
            leaves: 2,
            kills: 1,
            stalls: 0,
            stall_ms: 50,
            partitions: 0,
        }
    }
}

/// A deterministic node-level chaos schedule for one fabric run,
/// ordered by trigger seq.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Scripted events, sorted by `at_seq` (ties broken by leaf).
    pub events: Vec<NodeEvent>,
}

impl ChaosPlan {
    /// Builds a schedule over a `trace_len`-packet run. Kill and
    /// partition targets are distinct leaves drawn without
    /// replacement, capped so at least one leaf survives; stalls may
    /// hit any leaf (including a doomed one — a stall-then-kill
    /// interleaving is exactly what the detector must not confuse).
    /// Trigger seqs land in the middle 80 % of the trace so the soak
    /// observes healthy traffic on both sides of every event.
    pub fn generate(trace_len: usize, cfg: &ChaosConfig) -> ChaosPlan {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let leaves = cfg.leaves.max(1);
        let mut events = Vec::new();
        if trace_len == 0 || leaves == 1 {
            return ChaosPlan { events };
        }
        let lo = (trace_len / 10) as u64;
        let hi = (trace_len - trace_len / 10).max(trace_len / 10 + 1) as u64;
        let seq = |rng: &mut StdRng| rng.gen_range(lo..hi);

        // Fatal events (kill/partition) consume the survivor budget.
        let mut doomed: HashSet<usize> = HashSet::new();
        let fatal_budget = leaves - 1;
        let draw_leaf = |rng: &mut StdRng, doomed: &mut HashSet<usize>| -> Option<usize> {
            if doomed.len() >= fatal_budget {
                return None;
            }
            for _ in 0..10_000 {
                let l = rng.gen_range(0..leaves);
                if doomed.insert(l) {
                    return Some(l);
                }
            }
            None
        };
        for _ in 0..cfg.kills {
            if let Some(leaf) = draw_leaf(&mut rng, &mut doomed) {
                events.push(NodeEvent {
                    at_seq: seq(&mut rng),
                    leaf,
                    kind: NodeEventKind::Kill,
                });
            }
        }
        for _ in 0..cfg.partitions {
            if let Some(leaf) = draw_leaf(&mut rng, &mut doomed) {
                events.push(NodeEvent {
                    at_seq: seq(&mut rng),
                    leaf,
                    kind: NodeEventKind::Partition,
                });
            }
        }
        for _ in 0..cfg.stalls {
            events.push(NodeEvent {
                at_seq: seq(&mut rng),
                leaf: rng.gen_range(0..leaves),
                kind: NodeEventKind::Stall { ms: cfg.stall_ms },
            });
        }
        events.sort_by_key(|e| (e.at_seq, e.leaf));
        ChaosPlan { events }
    }

    /// Events triggered by submitting seq `seq` (i.e. scheduled at it).
    pub fn at(&self, seq: u64) -> impl Iterator<Item = &NodeEvent> {
        self.events.iter().filter(move |e| e.at_seq == seq)
    }
}

/// A capacity bomb: a subscription set sized to blow past an admission
/// budget of `budget_entries` total table entries (each ITCH
/// subscription contributes at least one entry, so `2 * budget + 16`
/// subscriptions can never fit). Feed it to the compiler and the
/// resulting update must be rejected by admission control with zero
/// observable state change.
pub fn capacity_bomb(base: &ItchSubsConfig, budget_entries: usize, seed: u64) -> Vec<Rule> {
    let cfg = ItchSubsConfig {
        subscriptions: budget_entries * 2 + 16,
        seed,
        ..base.clone()
    };
    generate_itch_subscriptions(&cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| vec![i as u8; 36]).collect()
    }

    #[test]
    fn plans_are_deterministic_given_a_seed() {
        let clean = trace(200);
        let cfg = FaultPlanConfig::default();
        let a = FaultPlan::generate(&clean, &cfg);
        let b = FaultPlan::generate(&clean, &cfg);
        assert_eq!(a.packets, b.packets);
        assert_eq!(a.mutations, b.mutations);
        assert_eq!(a.panic_seqs, b.panic_seqs);
        assert_eq!(a.die_seqs, b.die_seqs);
        // And a different seed genuinely changes the plan.
        let c = FaultPlan::generate(
            &clean,
            &FaultPlanConfig {
                seed: cfg.seed + 1,
                ..cfg
            },
        );
        assert_ne!((&a.packets, &a.panic_seqs), (&c.packets, &c.panic_seqs));
    }

    #[test]
    fn mutations_match_the_mutated_trace() {
        let clean = trace(300);
        let plan = FaultPlan::generate(&clean, &FaultPlanConfig::default());
        assert_eq!(plan.packets.len(), clean.len());
        assert!(!plan.mutations.is_empty(), "5%+5% over 300 packets");
        let mutated: HashSet<usize> = plan.mutations.iter().map(|(i, _)| *i).collect();
        for (i, (got, want)) in plan.packets.iter().zip(&clean).enumerate() {
            if mutated.contains(&i) {
                assert_ne!(got, want, "packet {i} listed as mutated but unchanged");
            } else {
                assert_eq!(got, want, "packet {i} changed without being listed");
            }
        }
        for (i, m) in &plan.mutations {
            match m {
                Mutation::Truncate { kept } => {
                    assert_eq!(plan.packets[*i].len(), *kept);
                    assert!(*kept < clean[*i].len());
                }
                Mutation::BitFlip { byte, bit } => {
                    assert_eq!(plan.packets[*i][*byte] ^ (1 << bit), clean[*i][*byte]);
                }
            }
        }
    }

    #[test]
    fn scripted_faults_avoid_corrupted_packets_and_each_other() {
        let clean = trace(400);
        let cfg = FaultPlanConfig {
            panics: 4,
            deaths: 3,
            ..Default::default()
        };
        let plan = FaultPlan::generate(&clean, &cfg);
        assert_eq!(plan.panic_seqs.len(), 4);
        assert_eq!(plan.die_seqs.len(), 3);
        let corrupted: HashSet<u64> = plan.mutations.iter().map(|(i, _)| *i as u64).collect();
        let all: Vec<&HashSet<u64>> = vec![&plan.panic_seqs, &plan.die_seqs];
        for (i, s) in all.iter().enumerate() {
            assert!(
                s.is_disjoint(&corrupted),
                "scripted faults hit corrupted packets"
            );
            for t in &all[i + 1..] {
                assert!(s.is_disjoint(t), "scripted fault sets overlap");
            }
        }
    }

    #[test]
    fn capacity_bomb_exceeds_its_budget() {
        let rules = capacity_bomb(&ItchSubsConfig::default(), 100, 7);
        assert!(rules.len() > 200);
    }

    #[test]
    fn chaos_plans_are_deterministic_and_leave_a_survivor() {
        let cfg = ChaosConfig {
            leaves: 4,
            kills: 2,
            partitions: 2, // budget-capped: only 3 fatal events can land
            stalls: 3,
            ..ChaosConfig::default()
        };
        let a = ChaosPlan::generate(10_000, &cfg);
        let b = ChaosPlan::generate(10_000, &cfg);
        assert_eq!(a, b);
        assert_ne!(
            a,
            ChaosPlan::generate(10_000, &ChaosConfig { seed: 1, ..cfg })
        );

        let fatal: Vec<usize> = a
            .events
            .iter()
            .filter(|e| !matches!(e.kind, NodeEventKind::Stall { .. }))
            .map(|e| e.leaf)
            .collect();
        assert!(fatal.len() <= 3, "survivor budget violated");
        let distinct: HashSet<usize> = fatal.iter().copied().collect();
        assert_eq!(distinct.len(), fatal.len(), "one leaf doomed twice");
        assert!(distinct.len() < 4, "no survivor left");
        for e in &a.events {
            assert!(e.leaf < 4);
            assert!(
                (1_000..9_000).contains(&e.at_seq),
                "event outside mid-trace"
            );
        }
        // Sorted by trigger seq, and `at` finds exactly the scheduled.
        assert!(a.events.windows(2).all(|w| w[0].at_seq <= w[1].at_seq));
        let first = &a.events[0];
        assert!(a.at(first.at_seq).any(|e| e == first));
        assert_eq!(a.at(0).count(), 0);
    }

    #[test]
    fn degenerate_chaos_inputs_produce_empty_plans() {
        assert!(ChaosPlan::generate(0, &ChaosConfig::default())
            .events
            .is_empty());
        let one_leaf = ChaosConfig {
            leaves: 1,
            kills: 3,
            ..ChaosConfig::default()
        };
        assert!(ChaosPlan::generate(1_000, &one_leaf).events.is_empty());
    }
}
