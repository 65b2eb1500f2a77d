//! The Packet Header Vector (PHV).
//!
//! In an RMT ASIC the parser deposits header fields into a bus of typed
//! containers that travels with the packet through the match-action
//! stages; stages match on PHV fields and actions rewrite them. Here
//! the PHV is a dense `u64` vector with validity bits, plus a few
//! well-known metadata slots the Camus compiler uses (the BDD `state`
//! register, the ingress port).

use std::collections::HashMap;

/// Index of a field in the PHV layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PhvField(pub u32);

/// The layout (name → slot mapping) of a PHV. Built once per compiled
/// program; shared by the parser, the tables and the executor.
#[derive(Debug, Clone, Default)]
pub struct PhvLayout {
    names: Vec<String>,
    bits: Vec<u32>,
    index: HashMap<String, PhvField>,
}

impl PhvLayout {
    /// Creates an empty layout.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a field; returns its slot. Re-adding a name returns the
    /// existing slot (widths must then agree).
    pub fn add(&mut self, name: impl Into<String>, bits: u32) -> PhvField {
        let name = name.into();
        if let Some(&f) = self.index.get(&name) {
            assert_eq!(
                self.bits[f.0 as usize], bits,
                "field `{name}` re-added with new width"
            );
            return f;
        }
        let f = PhvField(self.names.len() as u32);
        self.names.push(name.clone());
        self.bits.push(bits);
        self.index.insert(name, f);
        f
    }

    /// Looks a field up by name.
    pub fn get(&self, name: &str) -> Option<PhvField> {
        self.index.get(name).copied()
    }

    /// Field name for a slot.
    pub fn name(&self, f: PhvField) -> &str {
        &self.names[f.0 as usize]
    }

    /// Field width in bits.
    pub fn width(&self, f: PhvField) -> u32 {
        self.bits[f.0 as usize]
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the layout is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Creates a PHV with every field invalid.
    pub fn instantiate(&self) -> Phv {
        Phv {
            values: vec![0; self.len()],
            valid: vec![false; self.len()],
        }
    }
}

/// A packet header vector instance.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Phv {
    values: Vec<u64>,
    valid: Vec<bool>,
}

impl Phv {
    /// Number of field slots.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the PHV has no slots.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Invalidates every field without releasing storage, so one PHV
    /// can be reused across packets in the batch hot path.
    pub fn reset(&mut self) {
        self.valid.fill(false);
    }

    /// Becomes a copy of `other`, reusing this PHV's buffers (no
    /// allocation once capacities match).
    pub fn copy_from(&mut self, other: &Phv) {
        self.values.clear();
        self.values.extend_from_slice(&other.values);
        self.valid.clear();
        self.valid.extend_from_slice(&other.valid);
    }

    /// Sets a field (marks it valid).
    pub fn set(&mut self, f: PhvField, v: u64) {
        self.values[f.0 as usize] = v;
        self.valid[f.0 as usize] = true;
    }

    /// Reads a field if valid.
    pub fn get(&self, f: PhvField) -> Option<u64> {
        if self.valid[f.0 as usize] {
            Some(self.values[f.0 as usize])
        } else {
            None
        }
    }

    /// Reads a field, treating invalid as 0 — the hardware semantics of
    /// matching on an unparsed header field.
    pub fn get_or_zero(&self, f: PhvField) -> u64 {
        if self.valid[f.0 as usize] {
            self.values[f.0 as usize]
        } else {
            0
        }
    }

    /// Whether a field was parsed/written.
    pub fn is_valid(&self, f: PhvField) -> bool {
        self.valid[f.0 as usize]
    }

    /// Invalidates a field.
    pub fn invalidate(&mut self, f: PhvField) {
        self.valid[f.0 as usize] = false;
    }
}

/// A growable pool of message PHVs with cheap logical clearing.
///
/// The parser emits one PHV per application message; allocating a fresh
/// `Vec<Phv>` (and fresh `Phv`s) per packet is the single biggest
/// allocation cost on the hot path. A `PhvBuf` keeps its `Phv`s alive
/// across [`PhvBuf::clear`] calls, so steady-state parsing copies field
/// values into existing buffers instead of allocating.
#[derive(Debug, Clone, Default)]
pub struct PhvBuf {
    slots: Vec<Phv>,
    len: usize,
}

impl PhvBuf {
    /// Logically empties the buffer, keeping every `Phv`'s storage.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Number of live messages.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no live messages.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a copy of `phv`, reusing a retired slot when available.
    pub fn push_copy(&mut self, phv: &Phv) {
        if self.len < self.slots.len() {
            self.slots[self.len].copy_from(phv);
        } else {
            self.slots.push(phv.clone());
        }
        self.len += 1;
    }

    /// Drops the messages from `len` on, keeping their storage.
    pub(crate) fn truncate(&mut self, len: usize) {
        self.len = self.len.min(len);
    }

    /// The live messages, mutably.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [Phv] {
        &mut self.slots[..self.len]
    }

    /// Iterates the live messages.
    pub fn iter(&self) -> impl Iterator<Item = &Phv> {
        self.slots[..self.len].iter()
    }

    /// Converts into an owned `Vec<Phv>` of the live messages.
    pub fn into_vec(mut self) -> Vec<Phv> {
        self.slots.truncate(self.len);
        self.slots
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_get_fields() {
        let mut l = PhvLayout::new();
        let a = l.add("stock", 64);
        let b = l.add("price", 32);
        assert_ne!(a, b);
        assert_eq!(l.get("stock"), Some(a));
        assert_eq!(l.get("missing"), None);
        assert_eq!(l.name(b), "price");
        assert_eq!(l.width(a), 64);
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn re_adding_returns_same_slot() {
        let mut l = PhvLayout::new();
        let a = l.add("x", 8);
        let b = l.add("x", 8);
        assert_eq!(a, b);
        assert_eq!(l.len(), 1);
    }

    #[test]
    #[should_panic(expected = "re-added")]
    fn re_adding_with_new_width_panics() {
        let mut l = PhvLayout::new();
        l.add("x", 8);
        l.add("x", 16);
    }

    #[test]
    fn phv_validity_semantics() {
        let mut l = PhvLayout::new();
        let f = l.add("x", 8);
        let mut phv = l.instantiate();
        assert_eq!(phv.get(f), None);
        assert_eq!(phv.get_or_zero(f), 0);
        assert!(!phv.is_valid(f));
        phv.set(f, 42);
        assert_eq!(phv.get(f), Some(42));
        assert!(phv.is_valid(f));
        phv.invalidate(f);
        assert_eq!(phv.get(f), None);
    }

    #[test]
    fn reset_and_copy_reuse_storage() {
        let mut l = PhvLayout::new();
        let a = l.add("a", 8);
        let b = l.add("b", 8);
        let mut src = l.instantiate();
        src.set(a, 1);
        let mut dst = Phv::default();
        dst.copy_from(&src);
        assert_eq!(dst.get(a), Some(1));
        assert_eq!(dst.get(b), None);
        assert_eq!(dst.len(), 2);
        dst.reset();
        assert_eq!(dst.get(a), None);
        assert_eq!(dst.len(), 2);
    }

    #[test]
    fn phv_buf_recycles_slots() {
        let mut l = PhvLayout::new();
        let f = l.add("f", 8);
        let mut phv = l.instantiate();
        let mut buf = PhvBuf::default();
        phv.set(f, 7);
        buf.push_copy(&phv);
        phv.set(f, 8);
        buf.push_copy(&phv);
        assert_eq!(buf.len(), 2);
        let vals: Vec<u64> = buf.iter().map(|p| p.get(f).unwrap()).collect();
        assert_eq!(vals, vec![7, 8]);

        buf.clear();
        assert!(buf.is_empty());
        phv.set(f, 9);
        buf.push_copy(&phv);
        assert_eq!(buf.len(), 1);
        assert_eq!(buf.as_mut_slice()[0].get(f), Some(9));
        assert_eq!(buf.into_vec().len(), 1);
    }
}
