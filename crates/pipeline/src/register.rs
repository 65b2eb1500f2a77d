//! Stateful registers with tumbling-window aggregates.
//!
//! §3.1: "the compiler statically preallocates a block of registers
//! that are then assigned to specific variables dynamically" and emits
//! "generic code for various update functions … e.g., to implement the
//! tumbling window used on line 14 in Figure 2."
//!
//! Each slot keeps enough state (count, sum, min, max, last value) for
//! every aggregate the language offers, so the dynamic compiler can
//! link any of `count`/`sum`/`avg`/`min`/`max` to a slot without
//! re-imaging the switch — exactly the static/dynamic split the paper
//! describes. Windows are *tumbling*: when a window of `window_us`
//! elapses, the slot resets before the next observation.

/// Aggregate read out of a register slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggKind {
    /// Number of observations in the window.
    Count,
    /// Sum of observed values.
    Sum,
    /// Mean of observed values (integer division; 0 when empty).
    Avg,
    /// Minimum observed value (0 when empty).
    Min,
    /// Maximum observed value (0 when empty).
    Max,
    /// The raw stored value (for `set` updates / plain counters).
    Last,
}

/// One register slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// Tumbling window length in microseconds; 0 = never reset.
    pub window_us: u64,
    window_start_us: u64,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    last: u64,
}

impl Slot {
    fn new(window_us: u64) -> Self {
        Slot {
            window_us,
            window_start_us: 0,
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            last: 0,
        }
    }

    fn roll(&mut self, now_us: u64) {
        if self.window_us > 0 && now_us.saturating_sub(self.window_start_us) >= self.window_us {
            // Tumble: align the new window start to the window grid so
            // long idle gaps don't skew boundaries.
            let elapsed = now_us - self.window_start_us;
            self.window_start_us += (elapsed / self.window_us) * self.window_us;
            self.count = 0;
            self.sum = 0;
            self.min = 0;
            self.max = 0;
        }
    }

    fn observe(&mut self, v: u64, now_us: u64) {
        self.roll(now_us);
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.last = v;
    }

    fn read(&mut self, kind: AggKind, now_us: u64) -> u64 {
        self.roll(now_us);
        match kind {
            AggKind::Count => self.count,
            AggKind::Sum => self.sum,
            AggKind::Avg => self.sum.checked_div(self.count).unwrap_or(0),
            AggKind::Min => self.min,
            AggKind::Max => self.max,
            AggKind::Last => self.last,
        }
    }
}

/// A block of register slots, indexed by the compiler's allocation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegisterFile {
    slots: Vec<Slot>,
}

impl RegisterFile {
    /// Creates an empty register file.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a slot with the given tumbling window (0 = unwindowed)
    /// and returns its index.
    pub fn allocate(&mut self, window_us: u64) -> usize {
        self.slots.push(Slot::new(window_us));
        self.slots.len() - 1
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no slots are allocated.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Folds an observation into a slot's window aggregates.
    pub fn observe(&mut self, slot: usize, v: u64, now_us: u64) -> Result<(), usize> {
        self.slots
            .get_mut(slot)
            .map(|s| s.observe(v, now_us))
            .ok_or(slot)
    }

    /// Increments a slot (a `count()`-style observation of 1).
    pub fn increment(&mut self, slot: usize, now_us: u64) -> Result<(), usize> {
        self.observe(slot, 1, now_us)
    }

    /// Overwrites a slot: the value becomes the slot's sum/min/max/last
    /// with a count of one, so `set(x)` reads back as `x` under every
    /// aggregate — the semantics counters need for `v <- set(...)`.
    pub fn set(&mut self, slot: usize, v: u64, now_us: u64) -> Result<(), usize> {
        match self.slots.get_mut(slot) {
            Some(s) => {
                s.roll(now_us);
                s.sum = v;
                s.count = 1;
                s.min = v;
                s.max = v;
                s.last = v;
                Ok(())
            }
            None => Err(slot),
        }
    }

    /// Carries state over from an old register file across a pipeline
    /// generation swap: slot contents (window position, aggregates,
    /// last value) copy positionally for slots present in both files,
    /// while each slot keeps its *own* configured window length.
    /// `@query_counter` state therefore survives rule updates instead
    /// of resetting. Positional copy is exact whenever the static
    /// register allocation is unchanged — which is every delta update,
    /// since the statics only move on a full recompile with a widened
    /// alphabet.
    pub fn carry_from(&mut self, old: &RegisterFile) {
        for (dst, src) in self.slots.iter_mut().zip(&old.slots) {
            let window_us = dst.window_us;
            *dst = *src;
            dst.window_us = window_us;
        }
    }

    /// Reads an aggregate from a slot.
    pub fn read(&mut self, slot: usize, kind: AggKind, now_us: u64) -> Result<u64, usize> {
        self.slots
            .get_mut(slot)
            .map(|s| s.read(kind, now_us))
            .ok_or(slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_within_a_window() {
        let mut rf = RegisterFile::new();
        let s = rf.allocate(100);
        rf.observe(s, 10, 0).unwrap();
        rf.observe(s, 30, 10).unwrap();
        rf.observe(s, 20, 20).unwrap();
        assert_eq!(rf.read(s, AggKind::Count, 30).unwrap(), 3);
        assert_eq!(rf.read(s, AggKind::Sum, 30).unwrap(), 60);
        assert_eq!(rf.read(s, AggKind::Avg, 30).unwrap(), 20);
        assert_eq!(rf.read(s, AggKind::Min, 30).unwrap(), 10);
        assert_eq!(rf.read(s, AggKind::Max, 30).unwrap(), 30);
        assert_eq!(rf.read(s, AggKind::Last, 30).unwrap(), 20);
    }

    #[test]
    fn window_tumbles() {
        let mut rf = RegisterFile::new();
        let s = rf.allocate(100);
        rf.observe(s, 50, 0).unwrap();
        assert_eq!(rf.read(s, AggKind::Avg, 99).unwrap(), 50);
        // At t=100 the window rolls: aggregates reset.
        assert_eq!(rf.read(s, AggKind::Avg, 100).unwrap(), 0);
        assert_eq!(rf.read(s, AggKind::Count, 100).unwrap(), 0);
        rf.observe(s, 70, 150).unwrap();
        assert_eq!(rf.read(s, AggKind::Avg, 180).unwrap(), 70);
    }

    #[test]
    fn window_start_aligns_to_grid_after_idle() {
        let mut rf = RegisterFile::new();
        let s = rf.allocate(100);
        rf.observe(s, 1, 0).unwrap();
        // Long idle: next observation at t=950 lands in window [900,1000).
        rf.observe(s, 7, 950).unwrap();
        assert_eq!(rf.read(s, AggKind::Count, 999).unwrap(), 1);
        // At t=1000 it resets again.
        assert_eq!(rf.read(s, AggKind::Count, 1000).unwrap(), 0);
    }

    #[test]
    fn unwindowed_slot_never_resets() {
        let mut rf = RegisterFile::new();
        let s = rf.allocate(0);
        rf.increment(s, 0).unwrap();
        rf.increment(s, 1_000_000_000).unwrap();
        assert_eq!(rf.read(s, AggKind::Count, u64::MAX).unwrap(), 2);
    }

    #[test]
    fn set_and_last() {
        let mut rf = RegisterFile::new();
        let s = rf.allocate(0);
        rf.set(s, 42, 0).unwrap();
        assert_eq!(rf.read(s, AggKind::Last, 0).unwrap(), 42);
        // `set` overwrites the aggregates so the value reads back
        // uniformly.
        assert_eq!(rf.read(s, AggKind::Sum, 0).unwrap(), 42);
        assert_eq!(rf.read(s, AggKind::Count, 0).unwrap(), 1);
        // A later incr() accumulates on top.
        rf.increment(s, 1).unwrap();
        assert_eq!(rf.read(s, AggKind::Sum, 2).unwrap(), 43);
    }

    #[test]
    fn carry_from_preserves_counts_across_swap() {
        let mut old = RegisterFile::new();
        let s = old.allocate(0);
        old.increment(s, 0).unwrap();
        old.increment(s, 1).unwrap();
        // A fresh generation of the same layout starts empty…
        let mut fresh = RegisterFile::new();
        fresh.allocate(0);
        assert_eq!(fresh.read(s, AggKind::Count, 2).unwrap(), 0);
        // …until the swap carries the old state over.
        fresh.carry_from(&old);
        assert_eq!(fresh.read(s, AggKind::Count, 2).unwrap(), 2);
        fresh.increment(s, 3).unwrap();
        assert_eq!(fresh.read(s, AggKind::Count, 4).unwrap(), 3);
    }

    #[test]
    fn carry_from_keeps_the_new_window_config() {
        let mut old = RegisterFile::new();
        let s = old.allocate(100);
        old.observe(s, 5, 10).unwrap();
        let mut fresh = RegisterFile::new();
        fresh.allocate(50); // reconfigured window
        fresh.carry_from(&old);
        assert_eq!(fresh.slots[s].window_us, 50);
        assert_eq!(fresh.read(s, AggKind::Sum, 20).unwrap(), 5);
        // Extra old slots beyond the new layout are ignored.
        let mut short = RegisterFile::new();
        short.carry_from(&old);
        assert!(short.is_empty());
    }

    #[test]
    fn out_of_range_slot_errors() {
        let mut rf = RegisterFile::new();
        assert_eq!(rf.observe(3, 1, 0), Err(3));
        assert_eq!(rf.read(0, AggKind::Count, 0), Err(0));
        assert_eq!(rf.set(1, 0, 0), Err(1));
    }

    #[test]
    fn sum_saturates_instead_of_wrapping() {
        let mut rf = RegisterFile::new();
        let s = rf.allocate(0);
        rf.observe(s, u64::MAX, 0).unwrap();
        rf.observe(s, u64::MAX, 1).unwrap();
        assert_eq!(rf.read(s, AggKind::Sum, 2).unwrap(), u64::MAX);
    }
}
