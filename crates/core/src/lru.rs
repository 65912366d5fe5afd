//! Constant-time LRU bookkeeping for directory-backed cache models.
//!
//! The adaptive schemes (group-associative and partitioned) maintain two
//! recency structures on their *access* path: an LRU set of recently
//! referenced cache sets (the SHT) and an LRU block → set directory (the
//! OUT table). Naive list/scan implementations make every cache access
//! O(capacity); with SHT capacities in the hundreds that linear work
//! dwarfs the actual cache lookup. The structures here keep the exact
//! same recency semantics — move-to-front on touch, evict the
//! least-recently-used entry when over capacity — in O(1) per
//! operation ([`LruSet`], [`LruDir`]).

use crate::hasher::{det_map_with_capacity, DetHashMap};
use std::hash::Hash;

const NIL: u32 = u32::MAX;

/// An LRU-ordered set of small integers (cache set indices) with O(1)
/// `touch`: an intrusive doubly-linked list threaded through one
/// per-index `[prev, next]` array, so a relink reads and writes both
/// neighbours' links from one line each. Exactly equivalent to keeping a
/// `VecDeque` in MRU-to-LRU order and linearly re-positioning on every
/// touch — without the linear scan.
#[derive(Debug)]
pub struct LruSet {
    member: Vec<bool>,
    /// `[prev, next]` of every member, `NIL` at either end of the list.
    links: Vec<[u32; 2]>,
    head: u32,
    tail: u32,
    len: usize,
    capacity: usize,
}

impl LruSet {
    /// An empty set over the universe `0..universe`, evicting beyond
    /// `capacity` members (minimum 1).
    ///
    /// # Panics
    /// If `universe` does not fit the `u32` links (`>= u32::MAX`).
    pub fn new(universe: usize, capacity: usize) -> Self {
        assert!(
            universe < NIL as usize,
            "LruSet universe {universe} exceeds the u32 links"
        );
        LruSet {
            member: vec![false; universe],
            links: vec![[NIL; 2]; universe],
            head: NIL,
            tail: NIL,
            len: 0,
            capacity: capacity.max(1),
        }
    }

    /// Is `set` currently a member?
    #[inline]
    pub fn contains(&self, set: usize) -> bool {
        self.member[set]
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no sets are tracked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn unlink(&mut self, set: u32) {
        let [p, n] = self.links[set as usize];
        if p == NIL {
            self.head = n;
        } else {
            self.links[p as usize][1] = n;
        }
        if n == NIL {
            self.tail = p;
        } else {
            self.links[n as usize][0] = p;
        }
        self.len -= 1;
    }

    fn push_front(&mut self, set: u32) {
        self.links[set as usize] = [NIL, self.head];
        if self.head == NIL {
            self.tail = set;
        } else {
            self.links[self.head as usize][0] = set;
        }
        self.head = set;
        self.len += 1;
    }

    /// Marks `set` most-recently used (inserting it if absent) and
    /// returns the member evicted to stay within capacity, if any.
    /// Touching the MRU member changes nothing and returns at once.
    #[inline]
    pub fn touch(&mut self, set: usize) -> Option<usize> {
        // Every set is below `NIL`, so an empty list never matches.
        if self.head as usize == set {
            return None;
        }
        self.relink(set)
    }

    fn relink(&mut self, set: usize) -> Option<usize> {
        let s = set as u32;
        if self.member[set] {
            self.unlink(s);
        } else {
            self.member[set] = true;
        }
        self.push_front(s);
        let evicted = if self.len > self.capacity {
            let old = self.tail;
            self.unlink(old);
            self.member[old as usize] = false;
            Some(old as usize)
        } else {
            None
        };
        #[cfg(feature = "checked")]
        self.debug_check();
        evicted
    }

    /// Cross-checks the intrusive list against the membership bitmap:
    /// capacity respected, list length equal to `len`, every listed set
    /// marked a member and linked back to its predecessor. O(len) per
    /// call, so gated behind `checked`.
    #[cfg(feature = "checked")]
    fn debug_check(&self) {
        debug_assert!(
            self.len <= self.capacity,
            "LruSet over capacity: {} > {}",
            self.len,
            self.capacity
        );
        let mut walked = 0;
        let (mut prev, mut s) = (NIL, self.head);
        while s != NIL {
            debug_assert!(self.member[s as usize], "listed set {s} not marked member");
            debug_assert_eq!(self.links[s as usize][0], prev, "set {s}: prev link broken");
            walked += 1;
            prev = s;
            s = self.links[s as usize][1];
        }
        debug_assert_eq!(prev, self.tail, "LruSet tail is not the last listed set");
        debug_assert_eq!(walked, self.len, "LruSet list length diverged from len");
    }

    /// Empties the set.
    pub fn clear(&mut self) {
        let mut s = self.head;
        while s != NIL {
            let n = self.links[s as usize][1];
            self.member[s as usize] = false;
            self.links[s as usize] = [NIL; 2];
            s = n;
        }
        self.head = NIL;
        self.tail = NIL;
        self.len = 0;
    }
}

/// An LRU key → set-index directory: a bounded map evicting its
/// least-recently-used entry on overflow. Implemented as a hash map
/// into a slab of intrusively linked nodes, so `get`, `insert` and the
/// eviction pick are all O(1) — the predecessor did a full-map
/// min-over-stamps scan per eviction and this orders entries exactly
/// the way those stamps did (refreshed on every hit and insert).
#[derive(Debug)]
pub struct LruDir<K> {
    map: DetHashMap<K, u32>,
    nodes: Vec<Node<K>>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
    capacity: usize,
}

#[derive(Debug)]
struct Node<K> {
    key: K,
    set: usize,
    prev: u32,
    next: u32,
}

impl<K: Copy + Eq + Hash> LruDir<K> {
    /// An empty directory holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        LruDir {
            map: det_map_with_capacity(capacity * 2),
            nodes: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    fn unlink(&mut self, i: u32) {
        let (p, n) = (self.nodes[i as usize].prev, self.nodes[i as usize].next);
        if p == NIL {
            self.head = n;
        } else {
            self.nodes[p as usize].next = n;
        }
        if n == NIL {
            self.tail = p;
        } else {
            self.nodes[n as usize].prev = p;
        }
    }

    fn push_front(&mut self, i: u32) {
        self.nodes[i as usize].prev = NIL;
        self.nodes[i as usize].next = self.head;
        if self.head == NIL {
            self.tail = i;
        } else {
            self.nodes[self.head as usize].prev = i;
        }
        self.head = i;
    }

    /// Looks `key` up, refreshing its recency on a hit.
    pub fn get(&mut self, key: K) -> Option<usize> {
        let &i = self.map.get(&key)?;
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
        Some(self.nodes[i as usize].set)
    }

    /// Removes `key`, returning its set index if present.
    pub fn remove(&mut self, key: K) -> Option<usize> {
        let i = self.map.remove(&key)?;
        self.unlink(i);
        self.free.push(i);
        #[cfg(feature = "checked")]
        self.debug_check();
        Some(self.nodes[i as usize].set)
    }

    /// Inserts (or refreshes) `key -> set`; if the directory was full and
    /// `key` is new, evicts and returns the LRU `(key, set)` entry.
    pub fn insert(&mut self, key: K, set: usize) -> Option<(K, usize)> {
        if let Some(&i) = self.map.get(&key) {
            self.nodes[i as usize].set = set;
            if self.head != i {
                self.unlink(i);
                self.push_front(i);
            }
            return None;
        }
        let mut evicted = None;
        if self.map.len() >= self.capacity {
            let i = self.tail;
            let node = &self.nodes[i as usize];
            evicted = Some((node.key, node.set));
            self.map.remove(&node.key);
            self.unlink(i);
            self.free.push(i);
        }
        let i = match self.free.pop() {
            Some(i) => {
                self.nodes[i as usize] = Node {
                    key,
                    set,
                    prev: NIL,
                    next: NIL,
                };
                i
            }
            None => {
                self.nodes.push(Node {
                    key,
                    set,
                    prev: NIL,
                    next: NIL,
                });
                (self.nodes.len() - 1) as u32
            }
        };
        self.map.insert(key, i);
        self.push_front(i);
        #[cfg(feature = "checked")]
        self.debug_check();
        evicted
    }

    /// Cross-checks the map against the intrusive list: entry count within
    /// capacity and the list threading exactly the mapped nodes. O(len)
    /// per call, so gated behind `checked`.
    #[cfg(feature = "checked")]
    fn debug_check(&self) {
        debug_assert!(
            self.map.len() <= self.capacity,
            "LruDir over capacity: {} > {}",
            self.map.len(),
            self.capacity
        );
        let mut walked = 0;
        let mut i = self.head;
        while i != NIL {
            debug_assert!(
                self.map.get(&self.nodes[i as usize].key) == Some(&i),
                "listed node not indexed by map"
            );
            walked += 1;
            i = self.nodes[i as usize].next;
        }
        debug_assert_eq!(walked, self.map.len(), "LruDir list diverged from map");
    }

    /// Iterates the live `(key, set)` pairs in unspecified order.
    pub fn entries(&self) -> impl Iterator<Item = (K, usize)> + '_ {
        self.map
            .iter()
            .map(|(&k, &i)| (k, self.nodes[i as usize].set))
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when the directory holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Empties the directory.
    pub fn clear(&mut self) {
        self.map.clear();
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// The reference implementation both adaptive caches used: a VecDeque
    /// in MRU-to-LRU order, linearly re-positioned per touch.
    struct NaiveLruSet {
        order: VecDeque<usize>,
        member: Vec<bool>,
        capacity: usize,
    }

    impl NaiveLruSet {
        fn touch(&mut self, set: usize) -> Option<usize> {
            if self.member[set] {
                if let Some(p) = self.order.iter().position(|&s| s == set) {
                    self.order.remove(p);
                }
            } else {
                self.member[set] = true;
            }
            self.order.push_front(set);
            if self.order.len() > self.capacity {
                if let Some(old) = self.order.pop_back() {
                    self.member[old] = false;
                    return Some(old);
                }
            }
            None
        }
    }

    #[test]
    fn lru_set_matches_naive_reference() {
        let (universe, capacity) = (16, 5);
        let mut fast = LruSet::new(universe, capacity);
        let mut slow = NaiveLruSet {
            order: VecDeque::new(),
            member: vec![false; universe],
            capacity,
        };
        // A deterministic but irregular touch sequence.
        let mut x = 7u64;
        for _ in 0..10_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let set = (x >> 33) as usize % universe;
            assert_eq!(fast.touch(set), slow.touch(set));
            for s in 0..universe {
                assert_eq!(fast.contains(s), slow.member[s], "member[{s}] diverged");
            }
            assert_eq!(fast.len(), slow.order.len());
        }
        fast.clear();
        assert!(fast.is_empty());
        assert!(!fast.contains(0));
    }

    #[test]
    fn lru_dir_evicts_least_recently_stamped() {
        let mut d: LruDir<u64> = LruDir::new(2);
        assert_eq!(d.insert(10, 1), None);
        assert_eq!(d.insert(20, 2), None);
        // Touch 10 so 20 becomes LRU.
        assert_eq!(d.get(10), Some(1));
        assert_eq!(d.insert(30, 3), Some((20, 2)));
        assert_eq!(d.get(20), None);
        assert_eq!(d.get(10), Some(1));
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn lru_dir_refresh_does_not_evict() {
        let mut d: LruDir<u64> = LruDir::new(2);
        d.insert(1, 10);
        d.insert(2, 20);
        // Re-inserting a live key refreshes in place: no eviction.
        assert_eq!(d.insert(1, 11), None);
        assert_eq!(d.get(1), Some(11));
        assert_eq!(d.get(2), Some(20));
        // Remove cleans the stamp index too: a later fill evicts key 1.
        assert_eq!(d.remove(2), Some(20));
        d.insert(3, 30);
        assert_eq!(d.insert(4, 40), Some((1, 11)));
        d.clear();
        assert!(d.is_empty());
        assert_eq!(d.get(3), None);
    }
}
