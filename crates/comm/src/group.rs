//! Group interning: a world-shared table mapping each distinct (sorted,
//! deduplicated) rank set to a small dense [`GroupId`], plus a per-handle
//! cache so the per-collective matching path never allocates.
//!
//! Before this table, every collective hashed an owned `Vec<usize>` into the
//! sequence map (`group.to_vec()` per call) and re-sorted the raw group
//! slice. Now the raw slice — in whatever order the caller passed it — hits
//! a handle-local `HashMap<Vec<usize>, _>` via its `Borrow<[usize]>` lookup
//! (zero allocation after first use), and the per-group sequence counters
//! are a flat `Vec<u64>` indexed by the interned id.
//!
//! The table is *world-shared* on purpose: ids double as wire keys for the
//! rank-pair rings, so every rank must agree on them. Whichever rank
//! interns a group first assigns its id; later ranks look it up. The shared
//! mutex is touched only on the first sighting of a group per handle.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Dense identifier of an interned rank group, consistent across all ranks
/// of one world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct GroupId(pub(crate) u32);

/// World-shared intern table: normalized member list → [`GroupId`].
#[derive(Debug, Default)]
pub(crate) struct GroupTable {
    inner: Mutex<GroupTableInner>,
}

#[derive(Debug, Default)]
struct GroupTableInner {
    ids: HashMap<Arc<[usize]>, GroupId>,
    members: Vec<Arc<[usize]>>,
}

impl GroupTable {
    /// Intern a *normalized* (sorted, deduplicated) member list, returning
    /// its id and the shared member storage.
    fn intern(&self, normalized: &[usize]) -> (GroupId, Arc<[usize]>) {
        let mut inner = self.inner.lock().unwrap();
        if let Some(&id) = inner.ids.get(normalized) {
            let members = Arc::clone(&inner.members[id.0 as usize]);
            return (id, members);
        }
        let id = GroupId(inner.members.len() as u32);
        let members: Arc<[usize]> = normalized.into();
        inner.members.push(Arc::clone(&members));
        inner.ids.insert(Arc::clone(&members), id);
        (id, members)
    }
}

/// Handle-local group state: the raw-slice → interned-group cache and the
/// per-group collective sequence counters (the matching-order clock).
#[derive(Debug)]
pub(crate) struct HandleGroups {
    rank: usize,
    world: usize,
    /// Keyed by the group slice exactly as the caller passed it, so repeat
    /// calls look up by `&[usize]` without allocating or sorting. Distinct
    /// orderings of the same group get distinct cache rows but the same id.
    cache: HashMap<Vec<usize>, (GroupId, Arc<[usize]>)>,
    /// Next sequence number per group, indexed by `GroupId`.
    seq: Vec<u64>,
}

impl HandleGroups {
    pub(crate) fn new(rank: usize, world: usize) -> Self {
        HandleGroups { rank, world, cache: HashMap::new(), seq: Vec::new() }
    }

    /// Normalize, validate, and intern `raw`, memoizing the result. Panics
    /// (once, at first sight — validity is a property of the group, not the
    /// call) if a member is out of range or this rank is not a member.
    pub(crate) fn resolve(&mut self, table: &GroupTable, raw: &[usize]) -> (GroupId, Arc<[usize]>) {
        if let Some((id, members)) = self.cache.get(raw) {
            return (*id, Arc::clone(members));
        }
        let mut g = raw.to_vec();
        g.sort_unstable();
        g.dedup();
        assert!(
            g.iter().all(|&r| r < self.world),
            "group rank out of range (world={})",
            self.world
        );
        assert!(g.contains(&self.rank), "rank {} is not in group {:?}", self.rank, g);
        let (id, members) = table.intern(&g);
        self.cache.insert(raw.to_vec(), (id, Arc::clone(&members)));
        (id, members)
    }

    /// Take the next matching-order sequence number for `gid`.
    pub(crate) fn next_seq(&mut self, gid: GroupId) -> u64 {
        let idx = gid.0 as usize;
        if idx >= self.seq.len() {
            self.seq.resize(idx + 1, 0);
        }
        let s = self.seq[idx];
        self.seq[idx] += 1;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_order_insensitive_and_stable() {
        let table = GroupTable::default();
        let mut h0 = HandleGroups::new(0, 4);
        let mut h2 = HandleGroups::new(2, 4);
        let (a, m1) = h0.resolve(&table, &[2, 0, 2]);
        let (b, m2) = h2.resolve(&table, &[0, 2]);
        assert_eq!(a, b);
        assert_eq!(&*m1, &[0, 2]);
        assert_eq!(&*m2, &[0, 2]);
        let (c, _) = h0.resolve(&table, &[0, 1, 2, 3]);
        assert_ne!(a, c);
        // Cached second lookups return the same ids.
        assert_eq!(h0.resolve(&table, &[2, 0, 2]).0, a);
        assert_eq!(h0.resolve(&table, &[0, 1, 2, 3]).0, c);
    }

    #[test]
    fn sequence_counters_are_per_group() {
        let table = GroupTable::default();
        let mut h = HandleGroups::new(0, 4);
        let (a, _) = h.resolve(&table, &[0, 1]);
        let (b, _) = h.resolve(&table, &[0, 1, 2]);
        assert_eq!(h.next_seq(a), 0);
        assert_eq!(h.next_seq(a), 1);
        assert_eq!(h.next_seq(b), 0);
        assert_eq!(h.next_seq(a), 2);
        assert_eq!(h.next_seq(b), 1);
    }

    #[test]
    #[should_panic(expected = "is not in group")]
    fn non_member_resolution_panics() {
        let table = GroupTable::default();
        let mut h = HandleGroups::new(3, 4);
        let _ = h.resolve(&table, &[0, 1]);
    }
}
