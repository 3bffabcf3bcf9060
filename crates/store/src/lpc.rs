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
//! fingerprints.
//!
//! **The cache is bounded by what its entries weigh.** The paper's LPC is
//! a memory budget — 128 MB over 8 MB containers — and that is what
//! [`LpcCache::with_memory`] takes: an entry weighs the bytes its fetches
//! brought in ([`LpcCache::insert_extents`]), never more than one
//! container, and the entries together never more than the budget. A
//! caller that knows nothing of bytes ([`LpcCache::insert_container`])
//! inserts whole containers, each one full slot of the budget, so for it
//! the budget counts containers — [`LpcCache::new`] is that reading of the
//! same number, and a cache of whole entries holds exactly `capacity` of
//! them either way.
//!
//! **LRU is the rule of a caller that does not know the future** — a
//! backup's prefetch, `debar-ddfs`: an insert makes room by dropping the
//! coldest residents. A caller that does know it (the restore walk holds
//! its whole recipe) names its own victims with [`LpcCache::evict`] before
//! it inserts — as many as [`LpcCache::shortfall`] asks for — choosing
//! among [`LpcCache::residents`], which come coldest first, so a choice
//! that breaks its ties towards the front and knows nothing picks exactly
//! the victim LRU would.
//!
//! On the restore path the budget is also the **read-ahead window**: the
//! walk fetches ahead of the client stream, and a fetch may not start
//! before the entries it evicts have been streamed out. A budget of `n`
//! containers therefore bounds the bytes in flight or waiting to be sent
//! at `n` containers' worth; a budget of one serializes reads and sends.

use debar_hash::{ContainerId, Fingerprint};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

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

/// One resident container: what its fetches brought in.
#[derive(Debug, Clone)]
struct Entry {
    fps: Vec<Fingerprint>,
    /// What it weighs against the budget, at most one slot.
    weight: u64,
    /// Recency stamp of its last insert or hit: the coldest entry holds
    /// the smallest.
    used: u64,
}

/// An LRU cache of containers' fingerprint sets, bounded by what they
/// weigh.
#[derive(Debug, Clone)]
pub struct LpcCache {
    /// What a whole container weighs — an entry of a caller that knows
    /// nothing of bytes, and the most any entry can weigh.
    slot: u64,
    /// What the entries may weigh together: a whole number of slots.
    budget: u64,
    /// What they do weigh together (a running sum of `Entry::weight`).
    held: u64,
    /// fingerprint → container holding it.
    by_fp: HashMap<Fingerprint, ContainerId>,
    by_container: HashMap<ContainerId, Entry>,
    /// The last recency stamp handed out, and the resident that holds it:
    /// a hit on that one — nearly every hit of a stream — changes no order
    /// and needs no stamp.
    clock: u64,
    hottest: Option<ContainerId>,
    stats: LpcStats,
}

impl LpcCache {
    /// Create a cache holding at most `capacity` containers' fingerprints:
    /// the budget counted in whole containers.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LPC capacity must be positive");
        Self::with_memory(capacity as u64, 1)
    }

    /// Create from a memory budget: the paper's 128 MB LPC over 8 MB
    /// containers caches 16 whole containers' worth of fingerprints — or
    /// as many extent sets as weigh no more ([`LpcCache::insert_extents`]).
    /// A budget below one container holds one.
    ///
    /// # Panics
    /// Panics if `container_bytes == 0`.
    pub fn with_memory(bytes: u64, container_bytes: u64) -> Self {
        assert!(container_bytes > 0, "container size must be positive");
        LpcCache {
            slot: container_bytes,
            budget: (bytes / container_bytes).max(1) * container_bytes,
            held: 0,
            by_fp: HashMap::new(),
            by_container: HashMap::new(),
            clock: 0,
            hottest: None,
            stats: LpcStats::default(),
        }
    }

    /// How many whole containers the budget holds.
    pub fn capacity(&self) -> usize {
        (self.budget / self.slot) as usize
    }

    /// What the entries may weigh together, in the unit the cache was
    /// built with: bytes ([`LpcCache::with_memory`]) or containers
    /// ([`LpcCache::new`]).
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// What the entries weigh together, never more than
    /// [`LpcCache::budget`].
    pub fn weight(&self) -> u64 {
        self.held
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
                if self.hottest != Some(cid) {
                    self.touch(cid);
                }
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
    /// the one an insert that needs room would evict next.
    pub fn residents(&self) -> impl Iterator<Item = ContainerId> {
        let mut by_age: Vec<(u64, ContainerId)> = (self.by_container.iter())
            .map(|(&cid, entry)| (entry.used, cid))
            .collect();
        by_age.sort_unstable();
        by_age.into_iter().map(|(_, cid)| cid)
    }

    /// A cached container's fingerprints, in the order its inserts brought
    /// them. Another resident may answer for some of them
    /// ([`LpcCache::peek`] says who).
    pub fn fingerprints(&self, cid: ContainerId) -> Option<&[Fingerprint]> {
        self.by_container.get(&cid).map(|entry| &entry.fps[..])
    }

    /// Make a resident the most recently used.
    fn touch(&mut self, cid: ContainerId) {
        if let Some(entry) = self.by_container.get_mut(&cid) {
            self.clock += 1;
            entry.used = self.clock;
            self.hottest = Some(cid);
        }
    }

    /// By how much `bytes` more of `cid` would grow the cache: an entry
    /// never outgrows its container.
    fn growth(&self, cid: ContainerId, bytes: u64) -> u64 {
        let weighs = self.by_container.get(&cid).map_or(0, |e| e.weight);
        bytes.min(self.slot - weighs)
    }

    /// How much weight must leave before `bytes` more of `cid` fit: what
    /// the caller that names its own victims has to [`LpcCache::evict`]
    /// first (residents other than `cid` — enough of them always exist).
    pub fn shortfall(&self, cid: ContainerId, bytes: u64) -> u64 {
        (self.held + self.growth(cid, bytes)).saturating_sub(self.budget)
    }

    /// Insert a whole container's fingerprint set (after fetching the
    /// container on a miss): [`LpcCache::insert_extents`] of one full slot.
    pub fn insert_container(
        &mut self,
        cid: ContainerId,
        fps: Vec<Fingerprint>,
    ) -> Vec<ContainerId> {
        self.insert_extents(cid, fps, self.slot)
    }

    /// Insert the fingerprints a fetch of `bytes` of payload brought in,
    /// evicting the least-recently-used other containers while they do not
    /// fit. Returns the evicted container IDs so callers keeping payload
    /// caches in sync (the restore path) can drop theirs too. A container
    /// that is already resident grows by the fingerprints it did not list
    /// yet and by their weight.
    pub fn insert_extents(
        &mut self,
        cid: ContainerId,
        fps: Vec<Fingerprint>,
        bytes: u64,
    ) -> Vec<ContainerId> {
        let mut evicted = Vec::new();
        while self.shortfall(cid, bytes) > 0 {
            let coldest = (self.by_container.iter())
                .filter(|(&resident, _)| resident != cid)
                .min_by_key(|(_, entry)| entry.used)
                .map(|(&resident, _)| resident);
            let Some(coldest) = coldest else {
                break;
            };
            self.evict(coldest);
            evicted.push(coldest);
        }
        let grown = self.growth(cid, bytes);
        self.held += grown;
        if let Some(entry) = self.by_container.get_mut(&cid) {
            // A resident container is fetched again for one of two
            // reasons. A fingerprint of its missed because a younger
            // resident that also held it took the mapping over and was
            // evicted since: give every orphaned fingerprint back, or each
            // later occurrence would miss and re-read this container to no
            // effect. Or the entry is an extent set that just grew by a
            // merge: the new fingerprints are recorded with the entry, so
            // that evicting it takes their mappings along.
            for fp in fps {
                if self.by_fp.get(&fp) != Some(&cid) && !entry.fps.contains(&fp) {
                    entry.fps.push(fp);
                }
                self.by_fp.entry(fp).or_insert(cid);
            }
            entry.weight += grown;
        } else {
            for fp in &fps {
                self.by_fp.insert(*fp, cid);
            }
            let entry = Entry {
                fps,
                weight: grown,
                used: 0,
            };
            self.by_container.insert(cid, entry);
        }
        self.touch(cid);
        debug_assert!(self.held <= self.budget, "the LPC outgrew its budget");
        evicted
    }

    /// Evict one container, whatever its recency — for the caller that
    /// knows better than LRU which resident it needs last. Returns whether
    /// it was cached (and counts an eviction only then).
    pub fn evict(&mut self, victim: ContainerId) -> bool {
        let Some(entry) = self.by_container.remove(&victim) else {
            return false;
        };
        self.held -= entry.weight;
        if self.hottest == Some(victim) {
            self.hottest = None;
        }
        for fp in entry.fps {
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
        assert_eq!((c.capacity(), c.budget()), (16, 128 << 20));
        // A budget is a whole number of containers, and at least one.
        assert_eq!(LpcCache::with_memory(250, 100).budget(), 200);
        assert_eq!(LpcCache::with_memory(1, 100).budget(), 100);
        // `new` is the same budget counted in containers.
        let n = LpcCache::new(16);
        assert_eq!((n.capacity(), n.budget()), (16, 16));
    }

    #[test]
    fn whole_entries_fill_a_byte_budget_as_they_fill_slots() {
        // For a caller that inserts whole containers the byte budget is
        // the slot count: the same residents, the same victims, the same
        // counters, step by step.
        let (mut slots, mut bytes) = (LpcCache::new(3), LpcCache::with_memory(300, 100));
        for step in 0..40u64 {
            let (container, fps) = (cid(step % 7), vec![fp(step % 7), fp(100 + step % 5)]);
            assert_eq!(
                slots.insert_container(container, fps.clone()),
                bytes.insert_container(container, fps),
                "step {step}"
            );
            assert_eq!(slots.lookup(&fp(step % 3)), bytes.lookup(&fp(step % 3)));
            assert!(slots.residents().eq(bytes.residents()), "step {step}");
            assert_eq!(bytes.weight(), 100 * slots.weight());
        }
        assert_eq!(slots.stats(), bytes.stats());
        assert!(slots.stats().evictions > 20);
    }

    #[test]
    fn extent_sets_are_bounded_by_what_they_weigh() {
        // Four containers' worth of bytes holds thirteen 30-byte extent
        // sets; the fourteenth evicts the coldest.
        let mut c = LpcCache::with_memory(400, 100);
        for n in 0..13 {
            assert!(c.insert_extents(cid(n), vec![fp(n)], 30).is_empty());
        }
        assert_eq!((c.len(), c.weight(), c.capacity()), (13, 390, 4));
        assert_eq!(c.lookup(&fp(0)), Some(cid(0)), "touch the oldest");
        assert_eq!(c.shortfall(cid(13), 30), 20);
        assert_eq!(c.insert_extents(cid(13), vec![fp(13)], 30), vec![cid(1)]);
        assert_eq!((c.len(), c.weight()), (13, 390));
        // A merge grows its entry by what came in — never past one
        // container, and never at its own expense.
        assert_eq!(c.shortfall(cid(13), 50), 40);
        let evicted = c.insert_extents(cid(13), vec![fp(213)], 50);
        assert_eq!(evicted, vec![cid(2), cid(3)]);
        assert_eq!((c.len(), c.weight()), (11, 380));
        assert!(c.insert_extents(cid(13), vec![fp(313)], 50).is_empty());
        assert_eq!(c.weight(), 400, "80 + 50 weighs one container, not 130");
        assert_eq!(c.shortfall(cid(13), 1000), 0, "a full entry grows no more");
        // The caller that names its own victims evicts what `shortfall`
        // asks for, and then nothing else has to go.
        assert_eq!(c.shortfall(cid(20), 100), 100);
        let mut named = Vec::new();
        while c.shortfall(cid(20), 100) > 0 {
            let victim = c.residents().find(|&r| r != cid(13)).expect("others");
            assert!(c.evict(victim));
            named.push(victim);
        }
        assert_eq!(named, [cid(4), cid(5), cid(6), cid(7)]);
        assert!(c.insert_container(cid(20), vec![fp(20)]).is_empty());
        assert_eq!((c.len(), c.weight()), (8, 380));
        // What the entries weigh is a running sum: evicting all of them
        // leaves exactly nothing.
        for resident in c.residents().collect::<Vec<_>>() {
            assert!(c.evict(resident));
        }
        assert_eq!((c.len(), c.weight()), (0, 0));
        assert_eq!(c.peek(&fp(313)), None);
    }
}
