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
//! **An entry is an extent set and the caller's value.** What is cached
//! under a container is the fingerprints its fetch brought in — all of them
//! after the paper's whole-container read, only the chunks its recipe still
//! needed after the restore walk's ranged read — and a value of the
//! caller's type `V` that lives and leaves with them. The restore path keeps
//! the fetched chunks there, so eviction, the byte budget and invalidation
//! are one structure's: a chunk is cached exactly while its fingerprint's
//! entry is. A caller that keeps nothing beside the fingerprints
//! (`debar-ddfs`) uses `V = ()`, the default.
//! [`LpcCache::insert_container`] of a container that is already resident
//! *merges* — the entry grows by the new fingerprints and keeps its value.
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
//! **LRU is the rule of a caller that does not know the future** — the
//! backup prefetch of `debar-ddfs`: an insert makes room by dropping the
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
//!
//! **A hit names a place.** The fingerprint map answers with the
//! resident *and* the fingerprint's place in its listing
//! ([`LpcCache::find`] → [`LpcPlace`]), so a caller that keeps one value
//! per listed fingerprint in a column beside the listing — the restore
//! walk keeps its chunks so — reaches it with the probe the lookup made,
//! and [`LpcCache::resident_mut`] hands the resident's value over without
//! a second one. An insert says which fingerprints it newly listed, in
//! order, which is what such a column appends. The residents stay in
//! recency order as a list, so neither a hit nor a victim choice sorts
//! or scans them.

use debar_hash::{ContainerId, Fingerprint, FpMap};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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

/// Where the cache answers for a fingerprint: the resident, and the
/// fingerprint's place in that resident's listing
/// ([`LpcCache::fingerprints`]). It holds until the next insert or
/// eviction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LpcPlace {
    /// The resident's place in `LpcCache::residents`.
    resident: u32,
    index: u32,
}

impl LpcPlace {
    /// The fingerprint's place in its resident's listing.
    pub fn index(self) -> usize {
        self.index as usize
    }
}

/// No resident: either end of the recency list.
const NIL: u32 = u32::MAX;

/// One resident container: what its fetches brought in.
#[derive(Debug, Clone)]
struct Resident<V> {
    cid: ContainerId,
    fps: Vec<Fingerprint>,
    /// The listed fingerprints the cache does not answer for with this
    /// resident, each with its place in `fps`: a younger resident took the
    /// mapping over, and may have been evicted since with it. An insert
    /// asks this, not the listing, whether it lists a fingerprint already.
    displaced: FpMap<u32>,
    /// What it weighs against the budget, at most one slot.
    weight: u64,
    /// Its neighbours in recency order: the next colder and the next
    /// hotter resident.
    colder: u32,
    hotter: u32,
    /// The caller's value, which leaves with the entry.
    value: V,
}

/// An LRU cache of containers' fingerprint sets, each with a caller value
/// `V`, bounded by what they weigh.
#[derive(Debug, Clone)]
pub struct LpcCache<V = ()> {
    /// What a whole container weighs — an entry of a caller that knows
    /// nothing of bytes, and the most any entry can weigh.
    slot: u64,
    /// What the entries may weigh together: a whole number of slots.
    budget: u64,
    /// What they do weigh together (a running sum of `Resident::weight`).
    held: u64,
    /// fingerprint → the resident answering for it and its place there.
    by_fp: FpMap<LpcPlace>,
    /// container → its resident's place in `residents`.
    by_container: HashMap<ContainerId, u32>,
    /// The residents by place; an evicted one's place is `None` until an
    /// insert takes it back from `free`.
    residents: Vec<Option<Resident<V>>>,
    free: Vec<u32>,
    /// The ends of the recency list.
    coldest: u32,
    hottest: u32,
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

    /// Insert a whole container's fingerprint set (after fetching the
    /// container on a miss): [`LpcCache::insert_extents`] of one full slot.
    /// Returns the containers evicted to make room.
    pub fn insert_container(
        &mut self,
        cid: ContainerId,
        fps: Vec<Fingerprint>,
    ) -> Vec<ContainerId> {
        let evicted = self.insert_extents(cid, fps, self.slot).0;
        evicted.into_iter().map(|(gone, ())| gone).collect()
    }
}

impl<V> LpcCache<V> {
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
            by_fp: FpMap::default(),
            by_container: HashMap::new(),
            residents: Vec::new(),
            free: Vec::new(),
            coldest: NIL,
            hottest: NIL,
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
        let place = self.find(fp)?;
        Some(self.resident(place.resident).cid)
    }

    /// [`LpcCache::lookup`] that answers with the fingerprint's place:
    /// counted and refreshing alike.
    pub fn find(&mut self, fp: &Fingerprint) -> Option<LpcPlace> {
        match self.by_fp.get(fp).copied() {
            Some(place) => {
                self.stats.hits += 1;
                self.touch(place.resident);
                Some(place)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Peek without touching recency or counters (used by tests/metrics).
    pub fn peek(&self, fp: &Fingerprint) -> Option<ContainerId> {
        (self.place(fp)).map(|place| self.resident(place.resident).cid)
    }

    /// [`LpcCache::peek`] that answers with the fingerprint's place.
    pub fn place(&self, fp: &Fingerprint) -> Option<LpcPlace> {
        self.by_fp.get(fp).copied()
    }

    /// The container and the value of the resident at `place`; recency is
    /// not touched. A place given before the last insert or eviction may
    /// name another resident since.
    ///
    /// # Panics
    /// Panics if the resident the `place` named was evicted and its place
    /// not taken again.
    pub fn resident_mut(&mut self, place: LpcPlace) -> (ContainerId, &mut V) {
        let entry = self.resident_at(place.resident);
        (entry.cid, &mut entry.value)
    }

    /// The cached containers in recency order, coldest first: the first is
    /// the one an insert that needs room would evict next.
    pub fn residents(&self) -> impl Iterator<Item = ContainerId> + '_ {
        self.entries().map(|(cid, _)| cid)
    }

    /// The cached containers with their values, in recency order, coldest
    /// first.
    pub fn entries(&self) -> impl Iterator<Item = (ContainerId, &V)> {
        let mut next = self.coldest;
        std::iter::from_fn(move || {
            let entry = self.residents.get(next as usize)?.as_ref()?;
            next = entry.hotter;
            Some((entry.cid, &entry.value))
        })
    }

    /// A cached container's fingerprints, in the order its inserts brought
    /// them. Another resident may answer for some of them
    /// ([`LpcCache::peek`] says who).
    pub fn fingerprints(&self, cid: ContainerId) -> Option<&[Fingerprint]> {
        let r = *self.by_container.get(&cid)?;
        Some(&self.resident(r).fps[..])
    }

    /// A cached container's value.
    pub fn value(&self, cid: ContainerId) -> Option<&V> {
        let r = *self.by_container.get(&cid)?;
        Some(&self.resident(r).value)
    }

    fn resident(&self, r: u32) -> &Resident<V> {
        self.residents[r as usize]
            .as_ref()
            .expect("a resident's place")
    }

    fn resident_at(&mut self, r: u32) -> &mut Resident<V> {
        self.residents[r as usize]
            .as_mut()
            .expect("a resident's place")
    }

    /// Make a resident the most recently used.
    fn touch(&mut self, r: u32) {
        if r != self.hottest {
            self.unlink(r);
            self.link_hottest(r);
        }
    }

    /// Take a resident out of the recency list.
    fn unlink(&mut self, r: u32) {
        let entry = self.resident(r);
        let (colder, hotter) = (entry.colder, entry.hotter);
        match colder {
            NIL => self.coldest = hotter,
            c => self.resident_at(c).hotter = hotter,
        }
        match hotter {
            NIL => self.hottest = colder,
            h => self.resident_at(h).colder = colder,
        }
    }

    /// Put a resident at the hot end of the recency list.
    fn link_hottest(&mut self, r: u32) {
        let hottest = self.hottest;
        let entry = self.resident_at(r);
        (entry.colder, entry.hotter) = (hottest, NIL);
        match hottest {
            NIL => self.coldest = r,
            h => self.resident_at(h).hotter = r,
        }
        self.hottest = r;
    }

    /// By how much `bytes` more of `cid` would grow the cache: an entry
    /// never outgrows its container.
    fn growth(&self, cid: ContainerId, bytes: u64) -> u64 {
        let weighs = (self.by_container.get(&cid)).map_or(0, |&r| self.resident(r).weight);
        bytes.min(self.slot - weighs)
    }

    /// How much weight must leave before `bytes` more of `cid` fit: what
    /// the caller that names its own victims has to [`LpcCache::evict`]
    /// first (residents other than `cid` — enough of them always exist).
    pub fn shortfall(&self, cid: ContainerId, bytes: u64) -> u64 {
        (self.held + self.growth(cid, bytes)).saturating_sub(self.budget)
    }

    /// Insert the fingerprints a fetch of `bytes` of payload brought in,
    /// evicting the least-recently-used other containers while they do not
    /// fit. Returns the evicted containers with their values, the entry's
    /// own value for the caller to fill — a new entry's starts as
    /// `V::default()` — and the fingerprints the entry newly lists, in the
    /// order they came: all of them for a new entry. A container that is
    /// already resident grows by the fingerprints it did not list yet and
    /// by their weight, and keeps its value.
    pub fn insert_extents(
        &mut self,
        cid: ContainerId,
        fps: impl IntoIterator<Item = Fingerprint>,
        bytes: u64,
    ) -> (Vec<(ContainerId, V)>, &mut V, &[Fingerprint])
    where
        V: Default,
    {
        let mut evicted = Vec::new();
        while self.shortfall(cid, bytes) > 0 {
            let Some(coldest) = self.residents().find(|&resident| resident != cid) else {
                break;
            };
            evicted.extend(self.evict(coldest).map(|gone| (coldest, gone)));
        }
        let grown = self.growth(cid, bytes);
        self.held += grown;
        debug_assert!(self.held <= self.budget, "the LPC outgrew its budget");
        let (r, listed) = match self.by_container.get(&cid) {
            Some(&r) => {
                // The insert makes it the most recently used.
                self.touch(r);
                (r, self.merge(r, fps))
            }
            None => (self.admit(cid, fps.into_iter().collect()), 0),
        };
        let Resident {
            fps, weight, value, ..
        } = self.resident_at(r);
        *weight += grown;
        (evicted, value, &fps[listed..])
    }

    /// Merge what a fetch brought in into resident `r`. Returns how many
    /// fingerprints it listed before.
    ///
    /// A resident container is fetched again for one of two reasons. A
    /// fingerprint of its missed because a younger resident that also held
    /// it took the mapping over and was evicted since: give every orphaned
    /// fingerprint back, or each later occurrence would miss and re-read
    /// this container to no effect. Or the entry is an extent set that
    /// just grew by a merge: the new fingerprints are listed with the
    /// entry, so that evicting it takes their mappings along — also those
    /// another resident answers for, whose mappings come back to this one
    /// when that one goes and this is fetched again.
    fn merge(&mut self, r: u32, fps: impl IntoIterator<Item = Fingerprint>) -> usize {
        let entry = self.residents[r as usize]
            .as_mut()
            .expect("a resident's place");
        let listed = entry.fps.len();
        for fp in fps {
            let index = entry.fps.len() as u32;
            match self.by_fp.entry(fp) {
                Entry::Occupied(answered) => {
                    if answered.get().resident != r && !entry.displaced.contains_key(&fp) {
                        entry.displaced.insert(fp, index);
                        entry.fps.push(fp);
                    }
                }
                Entry::Vacant(unanswered) => {
                    let index = entry.displaced.remove(&fp).unwrap_or_else(|| {
                        entry.fps.push(fp);
                        index
                    });
                    unanswered.insert(LpcPlace { resident: r, index });
                }
            }
        }
        listed
    }

    /// Make `cid`, not yet resident, the most recently used resident,
    /// listing `fps` and answering for every one of them. Returns its
    /// place.
    fn admit(&mut self, cid: ContainerId, fps: Vec<Fingerprint>) -> u32
    where
        V: Default,
    {
        let r = self.free.pop().unwrap_or_else(|| {
            self.residents.push(None);
            (self.residents.len() - 1) as u32
        });
        for (index, fp) in fps.iter().enumerate() {
            let place = LpcPlace {
                resident: r,
                index: index as u32,
            };
            match self.by_fp.insert(*fp, place) {
                // An older resident lists it too and no longer answers.
                Some(older) if older.resident != r => {
                    self.resident_at(older.resident)
                        .displaced
                        .insert(*fp, older.index);
                }
                _ => {}
            }
        }
        self.residents[r as usize] = Some(Resident {
            cid,
            fps,
            displaced: FpMap::default(),
            weight: 0,
            colder: NIL,
            hotter: NIL,
            value: V::default(),
        });
        self.by_container.insert(cid, r);
        self.link_hottest(r);
        r
    }

    /// Evict one container, whatever its recency — for the caller that
    /// knows better than LRU which resident it needs last. Returns its
    /// value if it was cached (and counts an eviction only then).
    pub fn evict(&mut self, victim: ContainerId) -> Option<V> {
        let r = self.by_container.remove(&victim)?;
        self.unlink(r);
        let entry = self.residents[r as usize]
            .take()
            .expect("a resident's place");
        self.free.push(r);
        self.held -= entry.weight;
        for fp in &entry.fps {
            // Only remove mappings still pointing at the victim (a
            // fingerprint can be re-cached under a newer container): the
            // ones it does not list as displaced.
            if entry.displaced.is_empty() || !entry.displaced.contains_key(fp) {
                let _gone = self.by_fp.remove(fp);
                debug_assert!(_gone.is_none_or(|place| place.resident == r));
            }
        }
        self.stats.evictions += 1;
        Some(entry.value)
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
        assert!(c.fingerprints(cid(0)).is_some(), "recently used survived");
        assert!(c.fingerprints(cid(1)).is_none(), "LRU evicted");
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
        assert!(c.fingerprints(cid(0)).is_none());
        assert_eq!(c.peek(&fp(7)), Some(cid(1)));
    }

    #[test]
    fn a_resident_container_gets_its_orphaned_fingerprints_back() {
        // fp(0) lives in containers 0 and 1 (a GC output next to the
        // victim it was copied out of, a chunk stored again after a
        // collection). The younger takes the
        // mapping over and is evicted first; the older stays resident
        // without it.
        let mut c = LpcCache::new(3);
        c.insert_container(cid(0), vec![fp(0), fp(1)]);
        c.insert_container(cid(1), vec![fp(0)]);
        assert_eq!(c.lookup(&fp(1)), Some(cid(0)), "touch container 0");
        c.insert_container(cid(2), vec![fp(2)]);
        assert_eq!(c.insert_container(cid(3), vec![fp(3)]), vec![cid(1)]);
        assert!(c.fingerprints(cid(0)).is_some());
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
        assert!(c.evict(cid(0)).is_some());
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
        assert!(c.evict(cid(2)).is_some());
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
        assert!(c.evict(cid(0)).is_some());
        assert_eq!(c.residents().collect::<Vec<_>>(), [cid(1), cid(2)]);
        assert_eq!((c.peek(&fp(0)), c.peek(&fp(10))), (None, None));
        assert_eq!((c.len(), c.stats().evictions), (2, 1));
        // Not cached: nothing happens, nothing is counted.
        assert!(c.evict(cid(0)).is_none());
        assert_eq!((c.fingerprints(cid(0)), c.stats().evictions), (None, 1));
        // There is room again: the next insert evicts nobody.
        assert!(c.insert_container(cid(3), vec![fp(3)]).is_empty());
        assert_eq!(c.insert_container(cid(4), vec![fp(4)]), vec![cid(1)]);
    }

    #[test]
    fn with_memory_paper_configuration() {
        // 128 MB LPC / 8 MB containers = 16 containers (§6.1 DDFS setup).
        let c = LpcCache::<()>::with_memory(128 << 20, 8 << 20);
        assert_eq!((c.capacity(), c.budget()), (16, 128 << 20));
        // A budget is a whole number of containers, and at least one.
        assert_eq!(LpcCache::<()>::with_memory(250, 100).budget(), 200);
        assert_eq!(LpcCache::<()>::with_memory(1, 100).budget(), 100);
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
        let mut c = LpcCache::<()>::with_memory(400, 100);
        for n in 0..13 {
            assert!(c.insert_extents(cid(n), vec![fp(n)], 30).0.is_empty());
        }
        assert_eq!((c.len(), c.weight(), c.capacity()), (13, 390, 4));
        assert_eq!(c.lookup(&fp(0)), Some(cid(0)), "touch the oldest");
        assert_eq!(c.shortfall(cid(13), 30), 20);
        assert_eq!(
            c.insert_extents(cid(13), vec![fp(13)], 30).0,
            [(cid(1), ())]
        );
        assert_eq!((c.len(), c.weight()), (13, 390));
        // A merge grows its entry by what came in — never past one
        // container, and never at its own expense.
        assert_eq!(c.shortfall(cid(13), 50), 40);
        let evicted = c.insert_extents(cid(13), vec![fp(213)], 50).0;
        assert_eq!(evicted, [(cid(2), ()), (cid(3), ())]);
        assert_eq!((c.len(), c.weight()), (11, 380));
        assert!(c.insert_extents(cid(13), vec![fp(313)], 50).0.is_empty());
        assert_eq!(c.weight(), 400, "80 + 50 weighs one container, not 130");
        assert_eq!(c.shortfall(cid(13), 1000), 0, "a full entry grows no more");
        // The caller that names its own victims evicts what `shortfall`
        // asks for, and then nothing else has to go.
        assert_eq!(c.shortfall(cid(20), 100), 100);
        let mut named = Vec::new();
        while c.shortfall(cid(20), 100) > 0 {
            let victim = c.residents().find(|&r| r != cid(13)).expect("others");
            assert!(c.evict(victim).is_some());
            named.push(victim);
        }
        assert_eq!(named, [cid(4), cid(5), cid(6), cid(7)]);
        assert!(c.insert_container(cid(20), vec![fp(20)]).is_empty());
        assert_eq!((c.len(), c.weight()), (8, 380));
        // What the entries weigh is a running sum: evicting all of them
        // leaves exactly nothing.
        for resident in c.residents().collect::<Vec<_>>() {
            assert!(c.evict(resident).is_some());
        }
        assert_eq!((c.len(), c.weight()), (0, 0));
        assert_eq!(c.peek(&fp(313)), None);
    }

    #[test]
    fn a_residents_value_lives_and_leaves_with_it() {
        let mut c = LpcCache::<Vec<u64>>::with_memory(200, 100);
        let (evicted, value, _) = c.insert_extents(cid(0), vec![fp(0)], 100);
        assert!(
            evicted.is_empty() && value.is_empty(),
            "a new entry starts at the default"
        );
        value.push(0);
        c.insert_extents(cid(1), vec![fp(1)], 60).1.push(1);
        // A merge into a resident hands back that resident's value.
        let (evicted, value, _) = c.insert_extents(cid(1), vec![fp(2)], 40);
        assert_eq!((evicted, value.clone()), (vec![], vec![1]));
        value.push(2);
        let place = c.place(&fp(0)).expect("resident");
        assert_eq!(c.resident_mut(place).0, cid(0));
        c.resident_mut(place).1.push(10);
        assert_eq!(c.value(cid(0)), Some(&vec![0, 10]));
        // An LRU insert returns exactly the evicted residents' values: the
        // merge made container 1 the hotter, and `resident_mut` touched
        // nobody.
        let (evicted, ..) = c.insert_extents(cid(2), vec![fp(3)], 100);
        assert_eq!(evicted, [(cid(0), vec![0, 10])]);
        assert_eq!((c.value(cid(0)), c.peek(&fp(0))), (None, None));
        // `evict` returns it, once.
        assert_eq!(c.evict(cid(1)), Some(vec![1, 2]));
        assert_eq!(c.evict(cid(1)), None);
        assert_eq!((c.len(), c.stats().evictions), (1, 2));
    }

    #[test]
    fn a_value_moves_no_resident_victim_or_counter() {
        // The same calls on a cache that keeps a counter per resident and
        // on one that keeps nothing: the same residents, victims and
        // counters, step for step. Every insert counts one on its entry,
        // and a count leaves only with its entry, so what was handed back
        // and what is still resident add up to the inserts.
        let mut bare = LpcCache::<()>::with_memory(400, 100);
        let mut counted = LpcCache::<u32>::with_memory(400, 100);
        let mut handed_back = 0;
        for step in 0..60u64 {
            if step % 7 == 6 {
                let named = bare.residents().nth(1).expect("two residents");
                assert!(counted.residents().nth(1) == Some(named), "step {step}");
                assert!(bare.evict(named).is_some());
                handed_back += counted.evict(named).expect("resident");
            }
            let (container, fps) = (cid(step % 9), vec![fp(step % 9), fp(100 + step % 4)]);
            let bytes = 20 + step * 37 % 81;
            let victims = bare.insert_extents(container, fps.clone(), bytes).0;
            let (evicted, count, _) = counted.insert_extents(container, fps, bytes);
            *count += 1;
            assert!(victims.iter().map(|v| v.0).eq(evicted.iter().map(|e| e.0)));
            handed_back += evicted.iter().map(|e| e.1).sum::<u32>();
            assert_eq!(bare.lookup(&fp(step % 5)), counted.lookup(&fp(step % 5)));
            assert!(bare.residents().eq(counted.residents()), "step {step}");
            assert_eq!(bare.weight(), counted.weight(), "step {step}");
        }
        assert_eq!(bare.stats(), counted.stats());
        assert!(bare.stats().evictions > 10);
        let resident: u32 = counted
            .residents()
            .map(|r| counted.value(r).copied().unwrap_or(0))
            .sum();
        assert_eq!(handed_back + resident, 60);
    }

    /// The listing rule of a cache that scanned its listings: an insert
    /// into a resident appends each fingerprint the cache does not answer
    /// with it and its listing does not hold yet, and takes the mapping
    /// only of one nobody answers for; a new resident takes every mapping.
    #[derive(Default)]
    struct Scanning {
        by_fp: FpMap<ContainerId>,
        /// Resident → its listing and weight.
        listed: std::collections::BTreeMap<ContainerId, (Vec<Fingerprint>, u64)>,
    }

    impl Scanning {
        /// Returns the fingerprints the insert newly listed.
        fn insert(
            &mut self,
            cid: ContainerId,
            fps: &[Fingerprint],
            grown: u64,
        ) -> Vec<Fingerprint> {
            let Some((listing, weight)) = self.listed.get_mut(&cid) else {
                for fp in fps {
                    self.by_fp.insert(*fp, cid);
                }
                self.listed.insert(cid, (fps.to_vec(), grown));
                return fps.to_vec();
            };
            let before = listing.len();
            for fp in fps {
                if self.by_fp.get(fp) != Some(&cid) && !listing.contains(fp) {
                    listing.push(*fp);
                }
                self.by_fp.entry(*fp).or_insert(cid);
            }
            *weight += grown;
            listing[before..].to_vec()
        }

        fn evict(&mut self, cid: ContainerId) {
            let (listing, _) = self.listed.remove(&cid).expect("resident");
            for fp in listing {
                if self.by_fp.get(&fp) == Some(&cid) {
                    self.by_fp.remove(&fp);
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Merges into one resident, interleaved with younger residents
        /// that take its mappings over and with their evictions, which
        /// orphan them: the listing order, the weight, every `peek` and
        /// each insert's newly listed fingerprints are the scanning
        /// rule's, and every place names its fingerprint.
        #[test]
        fn prop_places_list_as_the_scan_did(
            ops in proptest::collection::vec((0u64..4, 0u64..1 << 40), 1..80),
        ) {
            // Sixteen fingerprints, so that residents share them; an
            // insert brings up to six, repeats included.
            let fps_of = |seed: u64| -> Vec<Fingerprint> {
                (0..seed % 7).map(|i| fp(seed >> (3 + 4 * i) & 15)).collect()
            };
            let mut cache = LpcCache::<()>::with_memory(64 * 100, 100);
            let mut model = Scanning::default();
            let mut younger = 1;
            for (step, &(kind, seed)) in ops.iter().enumerate() {
                let (target, bytes) = match kind {
                    // Evict a younger resident, if there is one.
                    3 => {
                        let others: Vec<ContainerId> = (model.listed.keys().copied())
                            .filter(|&r| r != cid(0))
                            .collect();
                        if let Some(&gone) = others.get(seed as usize % others.len().max(1)) {
                            proptest::prop_assert!(cache.evict(gone).is_some());
                            model.evict(gone);
                        }
                        (None, 0)
                    }
                    // A younger resident comes in.
                    2 => {
                        younger += 1;
                        (Some(cid(younger)), seed % 120)
                    }
                    // The one resident grows.
                    _ => (Some(cid(0)), seed % 60),
                };
                if let Some(cid) = target {
                    let fps = fps_of(seed);
                    let weighs = model.listed.get(&cid).map_or(0, |e| e.1);
                    let new = model.insert(cid, &fps, bytes.min(100 - weighs));
                    let (evicted, (), listed) = cache.insert_extents(cid, fps, bytes);
                    proptest::prop_assert!(evicted.is_empty(), "step {}", step);
                    proptest::prop_assert_eq!(listed, &new[..], "step {}", step);
                }
                for (&resident, (listing, _)) in &model.listed {
                    proptest::prop_assert_eq!(cache.fingerprints(resident), Some(&listing[..]));
                }
                let weight: u64 = model.listed.values().map(|e| e.1).sum();
                proptest::prop_assert_eq!(cache.weight(), weight, "step {}", step);
                proptest::prop_assert_eq!(cache.len(), model.listed.len());
                for n in 0..16 {
                    let answer = cache.peek(&fp(n));
                    proptest::prop_assert_eq!(answer, model.by_fp.get(&fp(n)).copied(), "fp({}) at step {}", n, step);
                    if let (Some(place), Some(resident)) = (cache.place(&fp(n)), answer) {
                        let listing = cache.fingerprints(resident).expect("resident");
                        proptest::prop_assert_eq!(listing[place.index()], fp(n));
                    }
                }
            }
        }
    }
}
