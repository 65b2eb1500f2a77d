//! Multicast group engine.
//!
//! §3.2: "The compiler translates this to forwarding to a multicast
//! group with ports 1 and 2." The switch's packet-replication engine
//! maps a group id (set by a match-action action) to a set of egress
//! ports.

use std::sync::Arc;

/// A switch port number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortId(pub u16);

/// A multicast group id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(pub u32);

/// The multicast group table. Ids come only from
/// [`MulticastTable::allocate`], so they are dense from 0 and a group
/// is found by indexing, not hashing: `groups[id]` is the group's
/// `(start, len)` run in one flat `ports` vector. Both sit behind
/// `Arc`s: a clone shares them, and an allocation into a shared table
/// copies them.
#[derive(Debug, Clone, Default)]
pub struct MulticastTable {
    groups: Arc<Vec<(u32, u32)>>,
    ports: Arc<Vec<PortId>>,
}

impl MulticastTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates the next group id for a port set (ports are sorted and
    /// deduplicated). Always creates a new group; the compiler
    /// deduplicates port sets before calling this.
    pub fn allocate(&mut self, ports: Vec<PortId>) -> GroupId {
        let mut ports = ports;
        ports.sort_unstable();
        ports.dedup();
        // A program's groups and their ports stay far below 2^32.
        let id = GroupId(self.groups.len() as u32);
        Arc::make_mut(&mut self.groups).push((self.ports.len() as u32, ports.len() as u32));
        Arc::make_mut(&mut self.ports).extend_from_slice(&ports);
        id
    }

    /// Resolves a group to its ports; `None` for an id never allocated.
    #[inline]
    pub fn ports(&self, id: GroupId) -> Option<&[PortId]> {
        let &(start, len) = self.groups.get(id.0 as usize)?;
        self.ports
            .get(start as usize..start as usize + len as usize)
    }

    /// Number of allocated groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether no groups are allocated.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_sorts_and_dedups() {
        let mut t = MulticastTable::new();
        let g = t.allocate(vec![PortId(3), PortId(1), PortId(3)]);
        assert_eq!(t.ports(g), Some(&[PortId(1), PortId(3)][..]));
    }

    #[test]
    fn allocate_ids_are_dense_from_zero() {
        let mut t = MulticastTable::new();
        assert!(t.is_empty());
        let sets = [vec![PortId(2)], vec![], vec![PortId(4), PortId(1)]];
        for (i, ports) in sets.iter().enumerate() {
            assert_eq!(t.allocate(ports.clone()), GroupId(i as u32));
            assert_eq!(t.len(), i + 1);
        }
        assert!(!t.is_empty());
        assert_eq!(t.ports(GroupId(0)), Some(&[PortId(2)][..]));
        assert_eq!(t.ports(GroupId(1)), Some(&[][..]));
        assert_eq!(t.ports(GroupId(2)), Some(&[PortId(1), PortId(4)][..]));
        // Equal port sets still get fresh ids.
        assert_eq!(t.allocate(vec![PortId(2)]), GroupId(3));
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn unknown_id_is_none() {
        let mut t = MulticastTable::new();
        assert_eq!(t.ports(GroupId(0)), None);
        t.allocate(vec![PortId(1)]);
        assert_eq!(t.ports(GroupId(1)), None);
        assert_eq!(t.ports(GroupId(u32::MAX)), None);
    }
}
