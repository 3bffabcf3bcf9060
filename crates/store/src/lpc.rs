//! Locality-preserved caching (LPC), adopted from DDFS (paper §3.3).
//!
//! "It first looks up the chunk in an in-memory cache ... Otherwise, it
//! looks up the disk index to find the container that stores the requested
//! chunk, reads the container to the cache, and retrieves the desired chunk
//! from the container."
//!
//! The cache maps *container → fingerprint set* with LRU replacement.
//! Because SISL stores chunks in stream order, one container fetch turns
//! the next ~1000 stream-local lookups into hits; the paper measures 99.3%
//! of random fingerprint-lookup I/Os eliminated this way (§6.2).
//!
//! **An entry is an extent set.** What is cached under a container is the
//! fingerprints its fetch brought in: all of them after the paper's
//! whole-container read, only the chunks its recipe still needed after the
//! restore walk's ranged read. [`LpcCache::insert_container`] of a
//! container that is already resident *merges* — the entry grows by the new
//! fingerprints, nobody is evicted — so the capacity counts entries of at
//! most one container each, and a partial entry only ever takes less.
//!
//! **LRU is the rule of a caller that does not know the future** — a
//! backup's prefetch, `debar-ddfs`: [`LpcCache::insert_container`] makes
//! room by dropping the coldest resident. A caller that does know it (the
//! restore walk holds its whole recipe) names its own victim with
//! [`LpcCache::evict`] before it inserts, choosing among
//! [`LpcCache::residents`] — which come coldest first, so a choice that
//! breaks its ties towards the front and knows nothing picks exactly the
//! victim LRU would.
//!
//! On the restore path the capacity is also the **read-ahead buffer**:
//! the walk fetches ahead of the client stream, and a fetch may not start
//! before the container it evicts has been streamed out. A cache of `n`
//! containers therefore bounds the containers in flight or waiting to be
//! sent at `n`; a cache of one serializes reads and sends. (The walk
//! itself runs no deeper than one container per repository node ahead of
//! the client, so the capacity only binds below the node count.)

use debar_hash::{ContainerId, Fingerprint};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LpcStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Containers evicted.
    pub evictions: u64,
}

impl LpcStats {
    /// Hit ratio in [0, 1]; 0 when no lookups.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// An LRU cache of containers' fingerprint sets.
#[derive(Debug, Clone)]
pub struct LpcCache {
    capacity: usize,
    /// fingerprint → container holding it.
    by_fp: HashMap<Fingerprint, ContainerId>,
    /// container → its fingerprints (for eviction bookkeeping).
    by_container: HashMap<ContainerId, Vec<Fingerprint>>,
    /// LRU order: front = coldest.
    lru: VecDeque<ContainerId>,
    stats: LpcStats,
}

impl LpcCache {
    /// Create a cache holding at most `capacity` containers' fingerprints.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LPC capacity must be positive");
        LpcCache {
            capacity,
            by_fp: HashMap::new(),
            by_container: HashMap::new(),
            lru: VecDeque::new(),
            stats: LpcStats::default(),
        }
    }

    /// Create from a memory budget: the paper's 128 MB LPC over 8 MB
    /// containers caches 16 containers' worth of fingerprints.
    pub fn with_memory(bytes: u64, container_bytes: u64) -> Self {
        Self::new(((bytes / container_bytes).max(1)) as usize)
    }

    /// Container capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cached containers.
    pub fn len(&self) -> usize {
        self.by_container.len()
    }

    /// Whether no containers are cached.
    pub fn is_empty(&self) -> bool {
        self.by_container.is_empty()
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> LpcStats {
        self.stats
    }

    /// Look up a fingerprint; a hit refreshes its container's recency.
    pub fn lookup(&mut self, fp: &Fingerprint) -> Option<ContainerId> {
        match self.by_fp.get(fp).copied() {
            Some(cid) => {
                self.stats.hits += 1;
                self.touch(cid);
                Some(cid)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Peek without touching recency or counters (used by tests/metrics).
    pub fn peek(&self, fp: &Fingerprint) -> Option<ContainerId> {
        self.by_fp.get(fp).copied()
    }

    /// Whether a container's fingerprints are cached.
    pub fn contains_container(&self, cid: ContainerId) -> bool {
        self.by_container.contains_key(&cid)
    }

    /// The cached containers in recency order, coldest first: the first is
    /// the one [`LpcCache::insert_container`] would evict next.
    pub fn residents(&self) -> impl Iterator<Item = ContainerId> + '_ {
        self.lru.iter().copied()
    }

    /// A cached container's fingerprints, in the order its inserts brought
    /// them. Another resident may answer for some of them
    /// ([`LpcCache::peek`] says who).
    pub fn fingerprints(&self, cid: ContainerId) -> Option<&[Fingerprint]> {
        self.by_container.get(&cid).map(Vec::as_slice)
    }

    /// Insert a container's fingerprint set (after fetching the container on
    /// a miss), evicting the least-recently-used containers if needed.
    /// Returns the evicted container IDs so callers keeping payload caches
    /// in sync (the restore path) can drop theirs too. A container that is
    /// already resident grows by the fingerprints it did not list yet and
    /// evicts nobody.
    pub fn insert_container(
        &mut self,
        cid: ContainerId,
        fps: Vec<Fingerprint>,
    ) -> Vec<ContainerId> {
        if let Some(held) = self.by_container.get_mut(&cid) {
            // A resident container is fetched again for one of two
            // reasons. A fingerprint of its missed because a younger
            // resident that also held it took the mapping over and was
            // evicted since: give every orphaned fingerprint back, or each
            // later occurrence would miss and re-read this container to no
            // effect. Or the entry is an extent set that just grew by a
            // merge: the new fingerprints are recorded with the entry, so
            // that evicting it takes their mappings along.
            for fp in fps {
                if self.by_fp.get(&fp) != Some(&cid) && !held.contains(&fp) {
                    held.push(fp);
                }
                self.by_fp.entry(fp).or_insert(cid);
            }
            self.touch(cid);
            return Vec::new();
        }
        let mut evicted = Vec::new();
        while self.by_container.len() >= self.capacity {
            let Some(&coldest) = self.lru.front() else {
                break;
            };
            self.evict(coldest);
            evicted.push(coldest);
        }
        for fp in &fps {
            self.by_fp.insert(*fp, cid);
        }
        self.by_container.insert(cid, fps);
        self.lru.push_back(cid);
        evicted
    }

    fn touch(&mut self, cid: ContainerId) {
        if let Some(pos) = self.lru.iter().position(|&c| c == cid) {
            self.lru.remove(pos);
            self.lru.push_back(cid);
        }
    }

    /// Evict one container, whatever its recency — for the caller that
    /// knows better than LRU which resident it needs last. Returns whether
    /// it was cached (and counts an eviction only then).
    pub fn evict(&mut self, victim: ContainerId) -> bool {
        let Some(fps) = self.by_container.remove(&victim) else {
            return false;
        };
        self.lru.retain(|&c| c != victim);
        for fp in fps {
            // Only remove mappings still pointing at the victim (a
            // fingerprint can be re-cached under a newer container).
            if self.by_fp.get(&fp) == Some(&victim) {
                self.by_fp.remove(&fp);
            }
        }
        self.stats.evictions += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(n: u64) -> Fingerprint {
        Fingerprint::of_counter(n)
    }

    fn cid(n: u64) -> ContainerId {
        ContainerId::new(n)
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let mut c = LpcCache::new(4);
        assert_eq!(c.lookup(&fp(1)), None);
        c.insert_container(cid(0), vec![fp(1), fp(2)]);
        assert_eq!(c.lookup(&fp(1)), Some(cid(0)));
        assert_eq!(c.lookup(&fp(2)), Some(cid(0)));
        let s = c.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 1);
        assert!((s.hit_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = LpcCache::new(2);
        c.insert_container(cid(0), vec![fp(0)]);
        c.insert_container(cid(1), vec![fp(1)]);
        // Touch container 0 so container 1 becomes the LRU victim.
        c.lookup(&fp(0));
        let evicted = c.insert_container(cid(2), vec![fp(2)]);
        assert_eq!(evicted, vec![cid(1)], "eviction must be reported");
        assert!(c.contains_container(cid(0)), "recently used survived");
        assert!(!c.contains_container(cid(1)), "LRU evicted");
        assert_eq!(c.lookup(&fp(1)), None);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn stream_locality_gives_high_hit_rate() {
        // SISL scenario: 10 containers x 100 stream-ordered chunks; a
        // sequential restore should miss once per container.
        let mut c = LpcCache::new(4);
        let mut misses = 0;
        for container in 0..10u64 {
            let fps: Vec<Fingerprint> = (0..100).map(|i| fp(container * 100 + i)).collect();
            for f in &fps {
                if c.lookup(f).is_none() {
                    misses += 1;
                    c.insert_container(cid(container), fps.clone());
                }
            }
        }
        assert_eq!(misses, 10, "exactly one miss per container");
        // 990 hits / 1000 lookups = 99% — the paper's "99.3% eliminated".
        assert!(c.stats().hit_ratio() > 0.98);
    }

    #[test]
    fn reinsert_same_container_touches_not_duplicates() {
        let mut c = LpcCache::new(2);
        c.insert_container(cid(0), vec![fp(0)]);
        c.insert_container(cid(0), vec![fp(0)]);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn stale_fp_mapping_not_removed_on_eviction() {
        let mut c = LpcCache::new(2);
        // fp(7) first cached under container 0, then re-cached under 1.
        c.insert_container(cid(0), vec![fp(7)]);
        c.insert_container(cid(1), vec![fp(7)]);
        assert_eq!(c.peek(&fp(7)), Some(cid(1)));
        // Evicting container 0 must not clobber the newer mapping.
        c.insert_container(cid(2), vec![fp(2)]);
        assert!(!c.contains_container(cid(0)));
        assert_eq!(c.peek(&fp(7)), Some(cid(1)));
    }

    #[test]
    fn a_resident_container_gets_its_orphaned_fingerprints_back() {
        // fp(0) lives in containers 0 and 1 (a rewrite's superseded copy,
        // a chunk stored again after a collection). The younger takes the
        // mapping over and is evicted first; the older stays resident
        // without it.
        let mut c = LpcCache::new(3);
        c.insert_container(cid(0), vec![fp(0), fp(1)]);
        c.insert_container(cid(1), vec![fp(0)]);
        assert_eq!(c.lookup(&fp(1)), Some(cid(0)), "touch container 0");
        c.insert_container(cid(2), vec![fp(2)]);
        assert_eq!(c.insert_container(cid(3), vec![fp(3)]), vec![cid(1)]);
        assert!(c.contains_container(cid(0)));
        assert_eq!(c.lookup(&fp(0)), None, "the mapping left with container 1");
        // The miss resolves to container 0 on the index and fetches it:
        // re-inserting a resident must restore the mapping, or every
        // later occurrence misses and re-reads the container again.
        assert!(c.insert_container(cid(0), vec![fp(0), fp(1)]).is_empty());
        assert_eq!(c.lookup(&fp(0)), Some(cid(0)));
        assert_eq!(c.len(), 3);
        // A mapping a younger resident still holds is left with it.
        c.insert_container(cid(4), vec![fp(1)]);
        c.insert_container(cid(0), vec![fp(0), fp(1)]);
        assert_eq!(c.peek(&fp(1)), Some(cid(4)));
    }

    #[test]
    fn a_resident_container_that_grows_takes_its_new_fingerprints_along() {
        // An entry is an extent set: a second fetch of a resident
        // container merges into it. What the merge added must leave with
        // the entry, or `by_fp` keeps pointing at a container that is gone.
        let mut c = LpcCache::new(2);
        c.insert_container(cid(0), vec![fp(1), fp(2)]);
        assert!(c.insert_container(cid(0), vec![fp(2), fp(3)]).is_empty());
        assert_eq!(c.fingerprints(cid(0)), Some(&[fp(1), fp(2), fp(3)][..]));
        assert_eq!((c.len(), c.peek(&fp(3))), (1, Some(cid(0))));
        assert!(c.evict(cid(0)));
        for n in 1..=3 {
            assert_eq!(c.peek(&fp(n)), None, "fp({n}) outlived its container");
        }
        // A fingerprint a younger resident answers for is listed too: when
        // that one goes, the re-insert gives the mapping back and the list
        // does not grow twice.
        c.insert_container(cid(1), vec![fp(7)]);
        c.insert_container(cid(2), vec![fp(7), fp(8)]);
        c.insert_container(cid(1), vec![fp(8)]);
        assert_eq!(c.fingerprints(cid(1)), Some(&[fp(7), fp(8)][..]));
        assert_eq!(c.peek(&fp(8)), Some(cid(2)));
        assert!(c.evict(cid(2)));
        c.insert_container(cid(1), vec![fp(7), fp(8)]);
        assert_eq!(c.fingerprints(cid(1)), Some(&[fp(7), fp(8)][..]));
        assert_eq!(c.peek(&fp(8)), Some(cid(1)));
    }

    #[test]
    fn evict_takes_the_named_container_whatever_its_recency() {
        let mut c = LpcCache::new(3);
        for n in 0..3 {
            c.insert_container(cid(n), vec![fp(n), fp(10 + n)]);
        }
        c.lookup(&fp(0));
        assert_eq!(c.residents().collect::<Vec<_>>(), [cid(1), cid(2), cid(0)]);
        assert_eq!(c.fingerprints(cid(2)), Some(&[fp(2), fp(12)][..]));
        // The hottest goes; the cold ones stay, in order.
        assert!(c.evict(cid(0)));
        assert_eq!(c.residents().collect::<Vec<_>>(), [cid(1), cid(2)]);
        assert_eq!((c.peek(&fp(0)), c.peek(&fp(10))), (None, None));
        assert_eq!((c.len(), c.stats().evictions), (2, 1));
        // Not cached: nothing happens, nothing is counted.
        assert!(!c.evict(cid(0)));
        assert_eq!((c.fingerprints(cid(0)), c.stats().evictions), (None, 1));
        // There is room again: the next insert evicts nobody.
        assert!(c.insert_container(cid(3), vec![fp(3)]).is_empty());
        assert_eq!(c.insert_container(cid(4), vec![fp(4)]), vec![cid(1)]);
    }

    #[test]
    fn with_memory_paper_configuration() {
        // 128 MB LPC / 8 MB containers = 16 containers (§6.1 DDFS setup).
        let c = LpcCache::with_memory(128 << 20, 8 << 20);
        assert_eq!(c.capacity(), 16);
    }
}
