//! Hot-symbol decision cache (the NetCache idea applied to our own
//! data plane).
//!
//! Symbol popularity in market feeds is Zipf: a handful of tickers
//! dominate the traffic. The match stage, by contrast, pays the full
//! table chain for every message. This module memoizes the chain's
//! *outcome* per key value of one designated field (the sharding
//! field, e.g. `add_order.stock`): on a hit the executor replays the
//! stored port set and per-table hit/miss counters and the message
//! never reaches the table chain.
//!
//! ## In the wave
//!
//! The cache rides the executor's one wave ([`crate::pipeline`]). The
//! parse phase [`probe`](DecisionCache::probe)s each message's key: a
//! hit replays into the packet's decision and the message never enters
//! the message pool; a miss *claims* the slot (its tag becomes the key,
//! with no decision yet) and joins the pool. The chain runs over the
//! pool as for an uncached program, and the union phase
//! [`fill`](DecisionCache::fill)s each pooled message's own ports and
//! hit mask, in arrival order. A later message of the same batch whose
//! key already claimed its slot counts a hit, as deciding one message
//! at a time would, and is evaluated in the wave — a cacheable chain
//! is a pure function of the key, so the decision is the same. Hits,
//! misses and evictions are therefore exactly those of a cache
//! consulted one message at a time. A slot replays only what it was
//! filled with: a batch that fails or unwinds between claim and fill
//! leaves claimed slots, never a decision they lack, and the next
//! message of such a key counts a hit, is evaluated and fills it.
//!
//! ## Soundness
//!
//! Caching is only armed when [`Pipeline::cacheable_on`] proves the
//! chain's decision is a pure function of the key field for the
//! *installed* program:
//!
//! * no table keys on a state binding's destination, and no binding
//!   writes the key field itself (a binding is a register read, which
//!   varies with time and traffic); bindings no table keys on are
//!   admitted;
//! * no `ActionOp::Register` anywhere (register writes are per-message
//!   side effects that must not be skipped);
//! * at most 64 tables (the per-table hit/miss replay mask is a u64);
//! * every table key field is either the cache key field itself,
//!   message-invariant (an `init_fields` constant), or never written
//!   by the parser (so its pre-chain value is the same for every
//!   message of a generation).
//!
//! Under those conditions the chain is a deterministic function of the
//! key field's value (mid-chain `SetField` writes are constants, so
//! they preserve determinism), and replaying a stored decision is
//! bit-identical to re-evaluating it — including the per-table
//! counters, which the stored hit mask reproduces exactly.
//!
//! ## Invalidation
//!
//! A cache is valid for exactly one compiled generation, and a worker's
//! cache follows the generation it runs. A program decides once
//! whether it is cacheable — [`Pipeline::enable_decision_cache`] arms
//! it or not, and the engine arms every program it installs — and
//! [`ShardCtx::adopt`] mirrors that verdict at the generation bump: an
//! armed program finds the context's cache emptied in place
//! ([`invalidate_all`](DecisionCache::invalidate_all) keeps the slot
//! storage, so adoption stays allocation-light) or given an empty one;
//! an unarmed program drops it. The sequential path's
//! [`Pipeline::prepare`] re-checks the program whenever a table was
//! mutated (`add_entry` and `replace_runs` unprepare it) and empties
//! or drops the cache the same way.
//!
//! The cache keeps no counters: [`probe`](DecisionCache::probe) counts
//! each hit, miss and eviction into the worker context's
//! [`HotPathStats`], which outlives any
//! cache the context drops or replaces.
//!
//! [`Pipeline::prepare`]: crate::pipeline::Pipeline::prepare
//! [`Pipeline::cacheable_on`]: crate::pipeline::Pipeline::cacheable_on
//! [`Pipeline::enable_decision_cache`]: crate::pipeline::Pipeline::enable_decision_cache
//! [`ShardCtx::adopt`]: crate::pipeline::ShardCtx::adopt

use camus_telemetry::HotPathStats;

use crate::multicast::PortId;
use crate::phv::PhvField;

/// Default direct-mapped size: `2^10` = 1024 slots — comfortably more
/// than the hot symbol set of a Zipf trace, small enough to stay cache
/// resident.
pub const DEFAULT_CACHE_SHIFT: u32 = 10;

/// SplitMix64 finalizer — decorrelates structured keys (ASCII stock
/// symbols) before a power-of-two mask or a modulus. The decision
/// cache, the engine's worker sharding and the fabric's symbol
/// ownership all mix with it, each under its own salt (the fabric's
/// is none), so no level reads the bits another level chose on.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Salt of [`DecisionCache::slot`]. The keys one worker sees share the
/// low bits of the spine's leaf choice, so an unsalted slot would leave
/// most of the worker's slots unreachable.
const SLOT_SALT: u64 = 0x8cb9_2ba7_2f3d_8dd7;

/// One direct-mapped slot: the key tag plus the memoized per-message
/// outcome. `ports` is recycled in place on eviction, so a warmed
/// cache refills without allocating.
#[derive(Debug, Clone, Default)]
struct Slot {
    /// The key the slot is claimed or filled for; `None` when empty.
    key: Option<u64>,
    /// Whether `hit_mask` and `ports` are `key`'s decision; a claimed
    /// slot is not filled until its batch's union phase.
    filled: bool,
    /// Bit `i` set ⇔ table `i` hit a non-default entry for this key.
    hit_mask: u64,
    /// The ports this key's message contributes (sorted, deduplicated —
    /// the packet-level union is insensitive to inner order).
    ports: Vec<PortId>,
}

/// A per-shard, direct-mapped decision cache keyed on one PHV field.
#[derive(Debug, Clone)]
pub struct DecisionCache {
    key_field: PhvField,
    mask: usize,
    slots: Vec<Slot>,
}

impl DecisionCache {
    /// An empty cache with `2^shift` slots keyed on `key_field`.
    pub fn new(key_field: PhvField, shift: u32) -> Self {
        let n = 1usize << shift.min(20);
        DecisionCache {
            key_field,
            mask: n - 1,
            slots: vec![Slot::default(); n],
        }
    }

    /// The PHV field decisions are keyed on.
    pub fn key_field(&self) -> PhvField {
        self.key_field
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the cache has zero slots (never true in practice).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Drops every memoized decision and claim but keeps the slot
    /// storage — the generation-bump invalidation path.
    pub fn invalidate_all(&mut self) {
        for s in &mut self.slots {
            s.key = None;
        }
    }

    /// The slot `key` maps to.
    #[inline]
    pub fn slot(&self, key: u64) -> usize {
        (mix64(key ^ SLOT_SALT) as usize) & self.mask
    }

    /// Looks `key` up and counts the outcome into `counts`. Returns the
    /// table hit mask when the slot holds `key`'s decision, whose ports
    /// it appends to `ports`; `None` when the message must be evaluated:
    /// its slot is claimed for `key` already (a hit — an earlier message
    /// of the batch claimed it) or is claimed for it now (a miss, and an
    /// eviction when the slot was tagged with another key).
    #[inline]
    pub fn probe(
        &mut self,
        key: u64,
        ports: &mut Vec<PortId>,
        counts: &mut HotPathStats,
    ) -> Option<u64> {
        let i = self.slot(key);
        let s = &mut self.slots[i];
        if s.key == Some(key) {
            counts.cache_hits += 1;
            if !s.filled {
                return None;
            }
            ports.extend_from_slice(&s.ports);
            return Some(s.hit_mask);
        }
        counts.cache_misses += 1;
        counts.cache_evictions += u64::from(s.key.is_some());
        (s.key, s.filled) = (Some(key), false);
        None
    }

    /// Memoizes `key`'s evaluated decision: the ports its message
    /// appended and the table hit mask it produced. Takes the slot
    /// whatever it holds; the executor fills in arrival order, so the
    /// last claim of a slot is what it keeps.
    #[inline]
    pub fn fill(&mut self, key: u64, ports: &[PortId], hit_mask: u64) {
        let i = self.slot(key);
        let s = &mut self.slots[i];
        (s.key, s.filled, s.hit_mask) = (Some(key), true, hit_mask);
        s.ports.clear();
        s.ports.extend_from_slice(ports);
        s.ports.sort_unstable();
        s.ports.dedup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Probes `key`: the replayed mask and ports, and the counts.
    fn probe(c: &mut DecisionCache, key: u64) -> (Option<u64>, Vec<PortId>, HotPathStats) {
        let (mut ports, mut counts) = (Vec::new(), HotPathStats::default());
        let mask = c.probe(key, &mut ports, &mut counts);
        (mask, ports, counts)
    }

    /// (hits, misses, evictions) of one probe.
    fn counts(h: HotPathStats) -> (u64, u64, u64) {
        (h.cache_hits, h.cache_misses, h.cache_evictions)
    }

    #[test]
    fn miss_claims_then_fill_replays_ports_and_mask() {
        let mut c = DecisionCache::new(PhvField(0), 4);
        let (mask, _, n) = probe(&mut c, 42);
        assert_eq!((mask, counts(n)), (None, (0, 1, 0)));
        // Claimed, not filled: a hit that replays nothing.
        let (mask, ports, n) = probe(&mut c, 42);
        assert_eq!((mask, ports, counts(n)), (None, vec![], (1, 0, 0)));
        c.fill(42, &[PortId(3), PortId(1), PortId(3)], 0b101);
        let (mask, ports, n) = probe(&mut c, 42);
        assert_eq!(mask, Some(0b101));
        assert_eq!(counts(n), (1, 0, 0));
        // Stored ports are sorted and deduplicated.
        assert_eq!(ports, vec![PortId(1), PortId(3)]);
    }

    #[test]
    fn conflicting_key_evicts_claims_and_decisions() {
        let mut c = DecisionCache::new(PhvField(0), 0); // one slot
        probe(&mut c, 1);
        c.fill(1, &[PortId(1)], 1);
        // A filled decision for another key is evicted…
        assert_eq!(counts(probe(&mut c, 2).2), (0, 1, 1));
        // …and so is an unfilled claim.
        assert_eq!(counts(probe(&mut c, 1).2), (0, 1, 1));
        c.fill(2, &[PortId(2)], 0);
        c.fill(1, &[PortId(1)], 1);
        // The last fill keeps the slot.
        let (mask, ports, _) = probe(&mut c, 1);
        assert_eq!((mask, ports), (Some(1), vec![PortId(1)]));
        assert_eq!(probe(&mut c, 2).0, None);
    }

    #[test]
    fn invalidate_keeps_storage() {
        let mut c = DecisionCache::new(PhvField(0), 2);
        c.fill(7, &[PortId(9)], 1);
        assert_eq!(probe(&mut c, 7).0, Some(1));
        c.invalidate_all();
        assert_eq!(c.len(), 4);
        // An invalidated slot is a miss and no eviction.
        assert_eq!(
            (probe(&mut c, 7).0, counts(probe(&mut c, 8).2)),
            (None, (0, 1, 0))
        );
    }

    #[test]
    fn empty_port_set_hits_too() {
        // A key whose message forwards nowhere is still worth caching:
        // the chain is skipped and zero ports are appended.
        let mut c = DecisionCache::new(PhvField(0), 2);
        c.fill(5, &[], 0);
        let (mask, ports, n) = probe(&mut c, 5);
        assert_eq!((mask, ports, counts(n)), (Some(0), vec![], (1, 0, 0)));
    }
}
