//! Hot-symbol decision cache (the NetCache idea applied to our own
//! data plane).
//!
//! Symbol popularity in market feeds is Zipf: a handful of tickers
//! dominate the traffic. The match stage, by contrast, pays the full
//! table chain for every message. This module memoizes the chain's
//! *outcome* per key value of one designated field (the sharding
//! field, e.g. `add_order.stock`): on a hit the executor replays the
//! stored port set and per-table hit/miss counters and skips table
//! evaluation entirely.
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
//! The cache keeps no counters. [`lookup`](DecisionCache::lookup) says
//! hit or miss, [`insert`](DecisionCache::insert) whether it evicted,
//! and the executor counts both into the worker context's
//! [`HotPathStats`](camus_telemetry::HotPathStats), which outlives any
//! cache the context drops or replaces.
//!
//! [`Pipeline::prepare`]: crate::pipeline::Pipeline::prepare
//! [`Pipeline::cacheable_on`]: crate::pipeline::Pipeline::cacheable_on
//! [`Pipeline::enable_decision_cache`]: crate::pipeline::Pipeline::enable_decision_cache
//! [`ShardCtx::adopt`]: crate::pipeline::ShardCtx::adopt

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
    key: u64,
    valid: bool,
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

    /// Drops every memoized decision but keeps the slot storage — the
    /// generation-bump invalidation path.
    pub fn invalidate_all(&mut self) {
        for s in &mut self.slots {
            s.valid = false;
        }
    }

    /// The slot `key` maps to.
    #[inline]
    pub fn slot(&self, key: u64) -> usize {
        (mix64(key ^ SLOT_SALT) as usize) & self.mask
    }

    /// Looks `key` up; on a hit appends the memoized ports to `ports`
    /// and returns the stored table hit mask, `None` on a miss.
    #[inline]
    pub fn lookup(&self, key: u64, ports: &mut Vec<PortId>) -> Option<u64> {
        let s = &self.slots[self.slot(key)];
        if s.valid && s.key == key {
            ports.extend_from_slice(&s.ports);
            Some(s.hit_mask)
        } else {
            None
        }
    }

    /// Memoizes a freshly evaluated decision: the ports the message
    /// appended (`appended`) and the table hit mask the evaluation
    /// produced. Replaces whatever occupied the slot; returns whether
    /// that was a valid decision for a different key (an eviction).
    #[inline]
    pub fn insert(&mut self, key: u64, appended: &[PortId], hit_mask: u64) -> bool {
        let i = self.slot(key);
        let s = &mut self.slots[i];
        let evicted = s.valid && s.key != key;
        s.key = key;
        s.valid = true;
        s.hit_mask = hit_mask;
        s.ports.clear();
        s.ports.extend_from_slice(appended);
        s.ports.sort_unstable();
        s.ports.dedup();
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit_replays_ports_and_mask() {
        let mut c = DecisionCache::new(PhvField(0), 4);
        let mut ports = Vec::new();
        assert_eq!(c.lookup(42, &mut ports), None);
        assert!(!c.insert(42, &[PortId(3), PortId(1), PortId(3)], 0b101));
        assert_eq!(c.lookup(42, &mut ports), Some(0b101));
        // Stored ports are sorted and deduplicated.
        assert_eq!(ports, vec![PortId(1), PortId(3)]);
        // Re-filling a key's own slot is no eviction.
        assert!(!c.insert(42, &[PortId(1)], 0b1));
    }

    #[test]
    fn conflicting_key_evicts() {
        let mut c = DecisionCache::new(PhvField(0), 0); // one slot
        assert!(!c.insert(1, &[PortId(1)], 1));
        assert!(c.insert(2, &[PortId(2)], 0));
        let mut ports = Vec::new();
        assert_eq!(c.lookup(1, &mut ports), None);
        assert_eq!(c.lookup(2, &mut ports), Some(0));
        assert_eq!(ports, vec![PortId(2)]);
    }

    #[test]
    fn invalidate_keeps_storage() {
        let mut c = DecisionCache::new(PhvField(0), 2);
        c.insert(7, &[PortId(9)], 1);
        let mut ports = Vec::new();
        assert_eq!(c.lookup(7, &mut ports), Some(1));
        c.invalidate_all();
        assert_eq!(c.lookup(7, &mut ports), None);
        assert_eq!(c.len(), 4);
        // An invalidated slot is refilled, not evicted.
        assert!(!c.insert(8, &[], 0));
    }

    #[test]
    fn empty_port_set_hits_too() {
        // A key whose message forwards nowhere is still worth caching:
        // the chain is skipped and zero ports are appended.
        let mut c = DecisionCache::new(PhvField(0), 2);
        c.insert(5, &[], 0);
        let mut ports = Vec::new();
        assert_eq!(c.lookup(5, &mut ports), Some(0));
        assert!(ports.is_empty());
    }
}
