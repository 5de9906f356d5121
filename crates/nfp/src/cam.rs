//! Near-memory lookup structures (§4.1 "Near-memory Processing").
//!
//! The NFP exposes a content-addressable memory per FPC and hash-lookup
//! acceleration. FlexTOE builds "16-entry fully-associative local memory
//! caches that evict entries based on LRU" and a "512-entry direct-mapped
//! second-level cache in CLS". Both structures are implemented here; the
//! LRU list is reused for the EMEM SRAM cache model.

use std::hash::Hash;

use flextoe_sim::FxHashMap;

const NIL: usize = usize::MAX;

struct Entry<K, V> {
    key: K,
    val: V,
    prev: usize,
    next: usize,
}

/// A fixed-capacity LRU cache (arena-backed doubly-linked list, O(1) ops).
pub struct LruCache<K: Eq + Hash + Clone, V> {
    cap: usize,
    map: FxHashMap<K, usize>,
    entries: Vec<Entry<K, V>>,
    head: usize, // most recently used
    tail: usize, // least recently used
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0);
        LruCache {
            cap,
            map: FxHashMap::with_capacity_and_hasher(cap, Default::default()),
            entries: Vec::with_capacity(cap.min(4096)),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
    pub fn capacity(&self) -> usize {
        self.cap
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.entries[idx].prev, self.entries[idx].next);
        if prev != NIL {
            self.entries[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.entries[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.entries[idx].prev = NIL;
        self.entries[idx].next = self.head;
        if self.head != NIL {
            self.entries[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Look up and touch (promote to MRU). Counts hit/miss.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        if let Some(&idx) = self.map.get(key) {
            self.hits += 1;
            if self.head != idx {
                self.unlink(idx);
                self.push_front(idx);
            }
            Some(&self.entries[idx].val)
        } else {
            self.misses += 1;
            None
        }
    }

    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        if let Some(&idx) = self.map.get(key) {
            self.hits += 1;
            if self.head != idx {
                self.unlink(idx);
                self.push_front(idx);
            }
            Some(&mut self.entries[idx].val)
        } else {
            self.misses += 1;
            None
        }
    }

    /// Check presence without touching or counting.
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Insert (or refresh) an entry; returns the evicted LRU entry if the
    /// cache was full.
    pub fn insert(&mut self, key: K, val: V) -> Option<(K, V)> {
        if let Some(&idx) = self.map.get(&key) {
            self.entries[idx].val = val;
            if self.head != idx {
                self.unlink(idx);
                self.push_front(idx);
            }
            return None;
        }
        if self.map.len() >= self.cap {
            let victim = self.tail;
            self.unlink(victim);
            let old_key = self.entries[victim].key.clone();
            self.map.remove(&old_key);
            self.evictions += 1;
            // reuse slot
            let old = std::mem::replace(
                &mut self.entries[victim],
                Entry {
                    key: key.clone(),
                    val,
                    prev: NIL,
                    next: NIL,
                },
            );
            self.map.insert(key, victim);
            self.push_front(victim);
            Some((old.key, old.val))
        } else {
            let idx = self.entries.len();
            self.entries.push(Entry {
                key: key.clone(),
                val,
                prev: NIL,
                next: NIL,
            });
            self.map.insert(key, idx);
            self.push_front(idx);
            None
        }
    }

    pub fn remove(&mut self, key: &K) -> Option<V>
    where
        V: Default,
    {
        let idx = self.map.remove(key)?;
        self.unlink(idx);
        // Leave a tombstone in the arena (slot reuse is handled on insert
        // only for evictions; removed slots are simply abandoned, which is
        // fine for the small, long-lived caches we model).
        Some(std::mem::take(&mut self.entries[idx].val))
    }
}

/// Entries of an FPC's local CAM cache.
const CAM_ENTRIES: usize = 16;

/// The FPC-local 16-entry fully-associative CAM cache of connection ids:
/// an MRU-ordered array with [`LruCache`]'s exact hit, miss and eviction
/// order, but no hash map or linked list — a lookup scans 16 words, a
/// promotion shifts the ones ahead of the hit.
#[derive(Default)]
pub struct LocalCam {
    /// Resident ids, most recently used first; `keys[..len]` are live.
    keys: [u32; CAM_ENTRIES],
    len: usize,
}

impl LocalCam {
    /// Look `key` up and make it the most recent entry: a hit moves it to
    /// the front, a miss installs it there, evicting the least recent
    /// entry when the CAM is full. Returns whether it hit.
    pub fn access(&mut self, key: u32) -> bool {
        let hit = self.keys[..self.len].iter().position(|&k| k == key);
        let shifted = match hit {
            Some(i) => i,
            None => {
                self.len = (self.len + 1).min(CAM_ENTRIES);
                self.len - 1
            }
        };
        self.keys.copy_within(..shifted, 1);
        self.keys[0] = key;
        hit.is_some()
    }

    /// Drop `key` if resident.
    pub fn remove(&mut self, key: u32) {
        if let Some(i) = self.keys[..self.len].iter().position(|&k| k == key) {
            self.keys.copy_within(i + 1..self.len, i);
            self.len -= 1;
        }
    }
}

/// A direct-mapped tag cache: `slots[hash % n]` holds one key.
///
/// Models the 512-entry CLS second-level connection-state cache and the
/// pre-processor's 128-entry lookup cache (§4.1). Only presence is
/// tracked; the cached data itself lives in the authoritative store.
pub struct DirectMapped<K: Eq + Clone> {
    slots: Vec<Option<K>>,
    pub hits: u64,
    pub misses: u64,
}

impl<K: Eq + Clone> DirectMapped<K> {
    pub fn new(n_slots: usize) -> Self {
        assert!(n_slots > 0);
        DirectMapped {
            slots: vec![None; n_slots],
            hits: 0,
            misses: 0,
        }
    }

    pub fn n_slots(&self) -> usize {
        self.slots.len()
    }

    /// Access `key` whose hash is `hash`: returns true on hit; on miss the
    /// key is installed (evicting any conflicting occupant).
    pub fn access(&mut self, key: &K, hash: u64) -> bool {
        let slot = (hash % self.slots.len() as u64) as usize;
        if self.slots[slot].as_ref() == Some(key) {
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            self.slots[slot] = Some(key.clone());
            false
        }
    }

    pub fn invalidate(&mut self, key: &K, hash: u64) {
        let slot = (hash % self.slots.len() as u64) as usize;
        if self.slots[slot].as_ref() == Some(key) {
            self.slots[slot] = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recent() {
        let mut c: LruCache<u32, u32> = LruCache::new(3);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(3, 30);
        assert_eq!(c.get(&1), Some(&10)); // touch 1: order now 1,3,2
        let ev = c.insert(4, 40); // evicts 2
        assert_eq!(ev, Some((2, 20)));
        assert!(c.contains(&1) && c.contains(&3) && c.contains(&4));
        assert!(!c.contains(&2));
        assert_eq!(c.evictions, 1);
    }

    #[test]
    fn lru_reinsert_updates_value_and_order() {
        let mut c: LruCache<u32, &str> = LruCache::new(2);
        c.insert(1, "a");
        c.insert(2, "b");
        c.insert(1, "a2"); // refresh 1
        let ev = c.insert(3, "c"); // should evict 2, not 1
        assert_eq!(ev, Some((2, "b")));
        assert_eq!(c.get(&1), Some(&"a2"));
    }

    #[test]
    fn lru_hit_miss_accounting() {
        let mut c: LruCache<u32, ()> = LruCache::new(16);
        for i in 0..16 {
            c.insert(i, ());
        }
        for i in 0..16 {
            assert!(c.get(&i).is_some());
        }
        assert!(c.get(&99).is_none());
        assert_eq!(c.hits, 16);
        assert_eq!(c.misses, 1);
        assert_eq!(c.len(), 16);
    }

    #[test]
    fn lru_capacity_one() {
        let mut c: LruCache<u8, u8> = LruCache::new(1);
        assert!(c.insert(1, 1).is_none());
        assert_eq!(c.insert(2, 2), Some((1, 1)));
        assert_eq!(c.get(&2), Some(&2));
    }

    #[test]
    fn lru_heavy_churn_consistent() {
        // stress arena/list consistency under eviction pressure
        let mut c: LruCache<u64, u64> = LruCache::new(16);
        for i in 0..10_000u64 {
            c.insert(i % 37, i);
            if let Some(v) = c.get(&(i % 17)) {
                assert_eq!(*v % 17, (*v) % 17);
            }
            assert!(c.len() <= 16);
        }
    }

    #[test]
    fn lru_remove() {
        let mut c: LruCache<u32, u32> = LruCache::new(4);
        c.insert(1, 11);
        c.insert(2, 22);
        assert_eq!(c.remove(&1), Some(11));
        assert!(!c.contains(&1));
        assert_eq!(c.remove(&1), None);
        assert_eq!(c.len(), 1);
    }

    /// The array CAM is the arena LRU it replaces: the same hits and
    /// misses, and the same residents after every access or removal,
    /// under a key range that keeps it full and evicting.
    #[test]
    fn local_cam_matches_lru_cache() {
        let mut rng = flextoe_sim::Rng::new(0xCA4);
        let mut cam = LocalCam::default();
        let mut lru: LruCache<u32, ()> = LruCache::new(CAM_ENTRIES);
        for _ in 0..100_000 {
            let key = rng.below(40) as u32;
            if rng.chance(0.05) {
                cam.remove(key);
                lru.remove(&key);
            } else {
                let hit = lru.get(&key).is_some();
                if !hit {
                    lru.insert(key, ());
                }
                assert_eq!(cam.access(key), hit, "key {key}");
            }
            assert_eq!(cam.len, lru.len());
            for k in 0..40 {
                assert_eq!(cam.keys[..cam.len].contains(&k), lru.contains(&k));
            }
        }
    }

    #[test]
    fn direct_mapped_conflict_eviction() {
        let mut d: DirectMapped<u32> = DirectMapped::new(4);
        assert!(!d.access(&1, 1)); // cold miss, installed
        assert!(d.access(&1, 1)); // hit
        assert!(!d.access(&5, 5)); // maps to slot 1, evicts key 1
        assert!(!d.access(&1, 1)); // miss again (was evicted)
        assert_eq!(d.hits, 1);
        assert_eq!(d.misses, 3);
    }

    #[test]
    fn direct_mapped_invalidate() {
        let mut d: DirectMapped<u32> = DirectMapped::new(8);
        d.access(&3, 3);
        d.invalidate(&3, 3);
        assert!(!d.access(&3, 3));
        // invalidating a non-resident key is a no-op
        d.invalidate(&99, 99);
    }

    #[test]
    fn lru_working_set_behaviour() {
        // A working set within capacity hits ~100% after warmup; beyond
        // capacity with cyclic access it thrashes — the Fig. 13 mechanism.
        let mut c: LruCache<u64, ()> = LruCache::new(512);
        for round in 0..4 {
            for i in 0..512u64 {
                if round == 0 {
                    c.insert(i, ());
                } else {
                    assert!(c.get(&i).is_some());
                }
            }
        }
        let mut c: LruCache<u64, ()> = LruCache::new(512);
        let mut miss = 0;
        for _ in 0..4 {
            for i in 0..1024u64 {
                if c.get(&i).is_none() {
                    miss += 1;
                    c.insert(i, ());
                }
            }
        }
        assert_eq!(
            miss,
            4 * 1024,
            "cyclic scan over 2x capacity must thrash LRU"
        );
    }
}
