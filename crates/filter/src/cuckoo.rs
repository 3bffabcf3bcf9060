//! A deletable, growable cuckoo filter — the summary vector GC can
//! subtract from.
//!
//! The blocked Bloom filter ([`crate::BloomFilter`]) is the right
//! preliminary-filter structure for DEBAR's insert-only backup path, but
//! it cannot forget: once a fingerprint's bits are set they are set for
//! every fingerprint that shares them, so a Bloom-only summary keeps
//! advertising chunks long after garbage collection reclaimed them. A
//! cuckoo filter (Fan, Andersen, Kaminsky & Mitzenmacher, CoNEXT 2014)
//! stores small per-key *tags* in displaceable bucket slots instead of
//! shared bits, which buys the two operations deletion needs:
//!
//! * **remove** — drop one stored copy of a key's tag, so reclaimed
//!   fingerprints stop testing positive;
//! * **grow** — when the table saturates, add a segment instead of
//!   rebuilding, so the live-fingerprint summary survives arbitrarily
//!   long histories.
//!
//! Three properties the GC lifecycle leans on, all pinned by the
//! property tests at the bottom of this module:
//!
//! 1. **No false negatives, ever.** An inserted key tests positive until
//!    it is removed — insertion never fails (the filter grows instead)
//!    and a rejected displacement chain is rolled back before growing.
//! 2. **Multiset semantics.** Duplicate inserts store duplicate tags.
//!    This is what makes *remove* safe under tag collisions: removing
//!    key A can only take out a tag copy that some insert put in, so as
//!    long as every live key holds its own copy, no remove of a dead key
//!    can create a false negative for a live one.
//! 3. **Determinism.** Displacement victims come from a
//!    [`SplitMix64`] stream seeded at construction; the same insert /
//!    remove sequence yields the same table bytes on every platform.
//!
//! Like every cuckoo filter, `contains` may return false positives
//! (tags are 16-bit), which is exactly the contract of a preliminary
//! filter — positives are verified downstream by the disk index.

use debar_hash::{Fingerprint, SplitMix64};

/// Slots per bucket (the standard (2,4)-cuckoo configuration: two
/// candidate buckets, four slots each, ~95% achievable load factor).
const SLOTS_PER_BUCKET: usize = 4;

/// Displacement kicks attempted before declaring a segment saturated.
const MAX_KICKS: usize = 256;

/// The empty-slot sentinel; real tags are never 0.
const EMPTY: u16 = 0;

/// One cuckoo hash table: `buckets × SLOTS_PER_BUCKET` 16-bit tags.
///
/// The alternate bucket of tag `t` in bucket `i` is `i ^ (mix(t) & mask)`
/// — an involution, so either resident bucket recovers the other without
/// knowing which one the tag currently occupies.
#[derive(Debug, Clone)]
struct Segment {
    /// Tag slots, `buckets * SLOTS_PER_BUCKET` long; `EMPTY` = vacant.
    tags: Vec<u16>,
    /// Bucket count (power of two).
    buckets: usize,
}

impl Segment {
    fn new(buckets: usize) -> Self {
        debug_assert!(buckets.is_power_of_two());
        Segment {
            tags: vec![EMPTY; buckets * SLOTS_PER_BUCKET],
            buckets,
        }
    }

    #[inline]
    fn mask(&self) -> usize {
        self.buckets - 1
    }

    /// The key's home bucket within this segment.
    #[inline]
    fn home(&self, raw_bucket: u64) -> usize {
        (raw_bucket as usize) & self.mask()
    }

    /// The partner bucket of `bucket` for `tag` (self-inverse).
    #[inline]
    fn partner(&self, bucket: usize, tag: u16) -> usize {
        bucket ^ (mix_tag(tag) as usize & self.mask())
    }

    #[inline]
    fn slot_range(&self, bucket: usize) -> std::ops::Range<usize> {
        let base = bucket * SLOTS_PER_BUCKET;
        base..base + SLOTS_PER_BUCKET
    }

    /// Store `tag` in a free slot of `bucket`, if any.
    fn try_store(&mut self, bucket: usize, tag: u16) -> bool {
        for i in self.slot_range(bucket) {
            if self.tags[i] == EMPTY {
                self.tags[i] = tag;
                return true;
            }
        }
        false
    }

    /// Whether `bucket` holds a copy of `tag`.
    fn bucket_has(&self, bucket: usize, tag: u16) -> bool {
        self.tags[self.slot_range(bucket)].contains(&tag)
    }

    /// Remove one copy of `tag` from `bucket`, if present.
    fn bucket_remove(&mut self, bucket: usize, tag: u16) -> bool {
        for i in self.slot_range(bucket) {
            if self.tags[i] == tag {
                self.tags[i] = EMPTY;
                return true;
            }
        }
        false
    }

    /// Insert with bounded displacement. On rejection (both candidate
    /// buckets full and `MAX_KICKS` displacements found no vacancy) the
    /// kicked chain is rolled back so the segment holds exactly the tags
    /// it held before the call — a rejected insert must not evict a
    /// *different* key into limbo, or the no-false-negatives guarantee
    /// dies.
    fn insert(&mut self, raw_bucket: u64, tag: u16, rng: &mut SplitMix64) -> bool {
        let b0 = self.home(raw_bucket);
        let b1 = self.partner(b0, tag);
        if self.try_store(b0, tag) || self.try_store(b1, tag) {
            return true;
        }
        // Both candidates full: displace. Remember the chain, on the
        // stack, so a rejection can unwind it.
        let mut bucket = if rng.bool() { b1 } else { b0 };
        let mut carry = tag;
        let mut chain = [(0usize, EMPTY); MAX_KICKS];
        for kick in &mut chain {
            let slot = bucket * SLOTS_PER_BUCKET + rng.below(SLOTS_PER_BUCKET as u64) as usize;
            let victim = self.tags[slot];
            self.tags[slot] = carry;
            *kick = (slot, victim);
            carry = victim;
            bucket = self.partner(bucket, carry);
            if self.try_store(bucket, carry) {
                return true;
            }
        }
        // Saturated: unwind the displacement chain in reverse.
        for &(slot, victim) in chain.iter().rev() {
            let restored = self.tags[slot];
            self.tags[slot] = victim;
            debug_assert_ne!(restored, EMPTY);
            carry = restored;
        }
        debug_assert_eq!(carry, tag, "rollback must hand the original tag back");
        false
    }

    fn occupied(&self) -> usize {
        self.tags.iter().filter(|&&t| t != EMPTY).count()
    }
}

/// Map a tag to the bucket-offset hash of the partner computation.
///
/// Must be a pure function of the tag (both resident buckets derive each
/// other through it) and must spread 16-bit tags over 64 bits; one
/// SplitMix64 step does both.
#[inline]
fn mix_tag(tag: u16) -> u64 {
    SplitMix64::new(tag as u64).next_u64()
}

/// A growable, deletable cuckoo filter over [`Fingerprint`]s.
///
/// Segmented growth: when the newest segment rejects an insert even
/// after displacement, a fresh segment with twice the buckets is
/// appended and the key goes there — existing tags never move between
/// segments, so `remove` stays correct across growth. Lookups and
/// removals scan newest-first (later segments hold most keys once the
/// filter has grown).
#[derive(Debug, Clone)]
pub struct CuckooFilter {
    segments: Vec<Segment>,
    rng: SplitMix64,
    len: u64,
    removals: u64,
}

impl CuckooFilter {
    /// A filter pre-sized for about `capacity` keys (at the standard 95%
    /// (2,4)-cuckoo load ceiling), seeded for deterministic displacement.
    pub fn with_capacity(capacity: usize, seed: u64) -> Self {
        let want = (capacity.max(1) as f64 / 0.95 / SLOTS_PER_BUCKET as f64).ceil() as usize;
        let buckets = want.next_power_of_two().max(2);
        CuckooFilter {
            segments: vec![Segment::new(buckets)],
            rng: SplitMix64::new(seed),
            len: 0,
            removals: 0,
        }
    }

    /// The 16-bit tag of a fingerprint (never the empty sentinel).
    #[inline]
    fn tag_of(fp: &Fingerprint) -> u16 {
        let b = fp.as_bytes();
        let t = u16::from_be_bytes([b[0], b[1]]);
        if t == EMPTY {
            1
        } else {
            t
        }
    }

    /// The raw (unmasked) bucket index of a fingerprint. Drawn from
    /// digest bytes independent of the tag bytes, so tag collisions do
    /// not force bucket collisions.
    #[inline]
    fn raw_bucket_of(fp: &Fingerprint) -> u64 {
        let b = fp.as_bytes();
        u64::from_be_bytes([b[8], b[9], b[10], b[11], b[12], b[13], b[14], b[15]])
    }

    /// Insert a fingerprint. Never fails: if every segment's candidate
    /// buckets are saturated the filter grows a segment (twice the
    /// newest segment's buckets) and stores the key there. Duplicate
    /// inserts store duplicate copies (multiset semantics — see the
    /// module doc for why deletion needs that).
    pub fn insert(&mut self, fp: &Fingerprint) {
        let tag = Self::tag_of(fp);
        let raw = Self::raw_bucket_of(fp);
        let newest = self.segments.len() - 1;
        let rng = &mut self.rng;
        if self.segments[newest].insert(raw, tag, rng) {
            self.len += 1;
            return;
        }
        let grown = Segment::new(self.segments[newest].buckets * 2);
        self.segments.push(grown);
        let rng = &mut self.rng;
        let stored = self.segments[newest + 1].insert(raw, tag, rng);
        debug_assert!(stored, "a fresh segment cannot reject");
        self.len += 1;
    }

    /// Whether the filter may contain `fp` (no false negatives; false
    /// positives at the 16-bit-tag rate).
    pub fn contains(&self, fp: &Fingerprint) -> bool {
        let tag = Self::tag_of(fp);
        let raw = Self::raw_bucket_of(fp);
        self.segments.iter().rev().any(|seg| {
            let b0 = seg.home(raw);
            let b1 = seg.partner(b0, tag);
            seg.bucket_has(b0, tag) || seg.bucket_has(b1, tag)
        })
    }

    /// Remove one stored copy of `fp`'s tag (newest segment first).
    /// Returns whether a copy was found. Removing a key that was never
    /// inserted may remove a colliding key's copy — callers must only
    /// remove keys they inserted (the GC removes exactly the
    /// fingerprints it reclaims).
    pub fn remove(&mut self, fp: &Fingerprint) -> bool {
        let tag = Self::tag_of(fp);
        let raw = Self::raw_bucket_of(fp);
        for seg in self.segments.iter_mut().rev() {
            let b0 = seg.home(raw);
            let b1 = seg.partner(b0, tag);
            if seg.bucket_remove(b0, tag) || seg.bucket_remove(b1, tag) {
                self.len -= 1;
                self.removals += 1;
                return true;
            }
        }
        false
    }

    /// Stored tag copies (inserts minus successful removes).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Successful removes so far. While it has not moved, every key
    /// inserted still tests present: only a remove can withdraw a tag.
    pub fn removals(&self) -> u64 {
        self.removals
    }

    /// Whether no tags are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Segments grown so far (1 until the first saturation).
    pub fn segments(&self) -> usize {
        self.segments.len()
    }

    /// Total tag slots across segments.
    pub fn capacity_slots(&self) -> u64 {
        self.segments.iter().map(|s| s.tags.len() as u64).sum()
    }

    /// Occupied over total slots.
    pub fn load_factor(&self) -> f64 {
        let occupied: usize = self.segments.iter().map(Segment::occupied).sum();
        occupied as f64 / self.capacity_slots() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BloomFilter;

    fn fp(n: u64) -> Fingerprint {
        Fingerprint::of_counter(n)
    }

    #[test]
    fn insert_then_contains() {
        let mut f = CuckooFilter::with_capacity(64, 7);
        for n in 0..64 {
            f.insert(&fp(n));
        }
        for n in 0..64 {
            assert!(f.contains(&fp(n)), "false negative for {n}");
        }
        assert_eq!(f.len(), 64);
    }

    #[test]
    fn remove_forgets_and_reports() {
        let mut f = CuckooFilter::with_capacity(16, 7);
        f.insert(&fp(1));
        f.insert(&fp(2));
        assert_eq!(f.removals(), 0);
        assert!(f.remove(&fp(1)));
        assert!(!f.remove(&fp(1)), "second remove finds nothing");
        assert!(f.contains(&fp(2)));
        assert_eq!((f.len(), f.removals()), (1, 1));
    }

    #[test]
    fn duplicate_inserts_are_multiset() {
        let mut f = CuckooFilter::with_capacity(16, 7);
        f.insert(&fp(9));
        f.insert(&fp(9));
        assert_eq!(f.len(), 2);
        assert!(f.remove(&fp(9)));
        assert!(f.contains(&fp(9)), "one copy must survive one remove");
        assert!(f.remove(&fp(9)));
        assert!(!f.contains(&fp(9)));
    }

    #[test]
    fn growth_is_transparent() {
        // 16 slots nominal, thousands of keys: must grow, never lie.
        let mut f = CuckooFilter::with_capacity(8, 7);
        for n in 0..4096 {
            f.insert(&fp(n));
        }
        assert!(f.segments() > 1, "saturation must have grown segments");
        for n in 0..4096 {
            assert!(f.contains(&fp(n)), "false negative for {n} after growth");
        }
    }

    #[test]
    fn deterministic_across_builds() {
        let drive = || {
            let mut f = CuckooFilter::with_capacity(32, 0xDEBA);
            for n in 0..500 {
                f.insert(&fp(n));
            }
            for n in (0..500).step_by(3) {
                f.remove(&fp(n));
            }
            f
        };
        let (a, b) = (drive(), drive());
        assert_eq!(a.len(), b.len());
        assert_eq!(a.segments(), b.segments());
        for (sa, sb) in a.segments.iter().zip(&b.segments) {
            assert_eq!(sa.tags, sb.tags, "displacement must be deterministic");
        }
    }

    #[test]
    fn a_rejected_insert_leaves_the_segment_as_it_was() {
        // Fill a 16-slot segment until its displacement chains give up:
        // each rejection must hand back exactly the tags it found.
        let mut seg = Segment::new(4);
        let mut rng = SplitMix64::new(7);
        let mut rejected = 0;
        for n in 0..64 {
            let key = fp(n);
            let before = seg.tags.clone();
            let tag = CuckooFilter::tag_of(&key);
            if !seg.insert(CuckooFilter::raw_bucket_of(&key), tag, &mut rng) {
                assert_eq!(seg.tags, before, "rejected insert {n} moved tags");
                rejected += 1;
            }
        }
        assert!(seg.occupied() >= 12, "the segment saturated");
        assert!(rejected > 0, "the segment rejected an insert");
    }

    #[test]
    fn load_factor_reported() {
        let mut f = CuckooFilter::with_capacity(64, 7);
        assert!(f.is_empty());
        for n in 0..50 {
            f.insert(&fp(n));
        }
        assert!(f.load_factor() > 0.0 && f.load_factor() <= 1.0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// No false negatives, ever: every inserted key tests positive,
        /// whatever the insert order or volume.
        #[test]
        fn prop_no_false_negatives(seed in 0u64..1000, n in 1usize..600) {
            let mut f = CuckooFilter::with_capacity(64, seed);
            for i in 0..n as u64 {
                f.insert(&fp(seed * 10_000 + i));
            }
            for i in 0..n as u64 {
                proptest::prop_assert!(f.contains(&fp(seed * 10_000 + i)));
            }
        }

        /// Bloom equivalence on insert-only workloads: both summary
        /// structures answer positive for every inserted key (identical
        /// no-false-negative behavior on DEBAR's backup-path usage).
        #[test]
        fn prop_bloom_equivalence_insert_only(seed in 0u64..1000, n in 1usize..400) {
            let mut cuckoo = CuckooFilter::with_capacity(n, seed);
            // ~16 bits per key, 8 probes: comfortably low FP rate.
            let mut bloom = BloomFilter::new((n as u64).max(8) * 16, 8);
            for i in 0..n as u64 {
                let k = fp(seed * 10_000 + i);
                cuckoo.insert(&k);
                bloom.insert(&k);
            }
            for i in 0..n as u64 {
                let k = fp(seed * 10_000 + i);
                proptest::prop_assert_eq!(cuckoo.contains(&k), bloom.contains(&k));
                proptest::prop_assert!(cuckoo.contains(&k));
            }
        }

        /// Delete / re-insert roundtrip: removing a subset never creates
        /// a false negative for the survivors, and re-inserting restores
        /// positives for everything.
        #[test]
        fn prop_delete_reinsert_roundtrip(seed in 0u64..1000, n in 2usize..400) {
            let mut f = CuckooFilter::with_capacity(64, seed);
            let keys: Vec<Fingerprint> = (0..n as u64).map(|i| fp(seed * 10_000 + i)).collect();
            for k in &keys {
                f.insert(k);
            }
            let (gone, kept) = keys.split_at(n / 2);
            for k in gone {
                proptest::prop_assert!(f.remove(k), "inserted key must be removable");
            }
            for k in kept {
                proptest::prop_assert!(f.contains(k), "remove broke a survivor");
            }
            for k in gone {
                f.insert(k);
            }
            for k in &keys {
                proptest::prop_assert!(f.contains(k), "re-insert must restore positives");
            }
            proptest::prop_assert_eq!(f.len(), keys.len() as u64);
        }

        /// Growth at high load factor: overfill a deliberately tiny
        /// filter far past its nominal capacity — it must grow segments,
        /// keep every key positive, and keep the aggregate load factor
        /// sane (> 0, ≤ 1).
        #[test]
        fn prop_growth_high_load(seed in 0u64..200, n in 200usize..2000) {
            let mut f = CuckooFilter::with_capacity(8, seed);
            for i in 0..n as u64 {
                f.insert(&fp(seed * 100_000 + i));
            }
            proptest::prop_assert!(f.segments() > 1, "overfill must grow");
            for i in 0..n as u64 {
                proptest::prop_assert!(f.contains(&fp(seed * 100_000 + i)));
            }
            let lf = f.load_factor();
            proptest::prop_assert!(lf > 0.0 && lf <= 1.0);
        }
    }
}
