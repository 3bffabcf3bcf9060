//! The in-memory index cache used by SIL and SIU (paper §5.2, Fig. 4).
//!
//! "The DEBAR system first reads fingerprints from the undetermined
//! fingerprint files and inserts them to an in-memory index cache, which is
//! a hash table ... all the fingerprints are automatically sorted to the
//! buckets of the index cache in the order of their numbers."
//!
//! The cache hashes by the first `m` bits of a fingerprint, so cache bucket
//! `j` holds exactly the fingerprints that map to disk-index buckets
//! `[j·2^(n−m), (j+1)·2^(n−m))` — the alignment that lets a single
//! sequential sweep of the disk index resolve every cached fingerprint.
//!
//! Nodes carry an optional container ID (filled during chunk storing, §5.3)
//! and the set of *origin servers* that submitted the fingerprint, which is
//! what PSIL uses to route verdicts back (§5.2, Fig. 5). When several
//! servers submit the same new fingerprint in one round, the lowest origin
//! is the designated *storer* and the rest treat the chunk as a duplicate —
//! the deterministic tie-break DEBAR needs so a cross-stream duplicate is
//! stored exactly once.

use debar_hash::{ContainerId, Fingerprint};

/// The sorted set of origin servers that submitted a fingerprint.
///
/// Almost every fingerprint is submitted by one or two servers per round,
/// so the set stores up to [`OriginSet::INLINE`] origins inline and only
/// spills to a heap vector beyond that. Keeping cache nodes allocation-free
/// makes building and cloning a 64K-node [`IndexCache`] a handful of
/// `memcpy`s instead of one heap allocation per node — material on the SIL
/// hot path, which stages every undetermined fingerprint through a cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OriginSet {
    /// Up to [`OriginSet::INLINE`] origins, sorted ascending.
    Inline {
        len: u8,
        vals: [u16; OriginSet::INLINE],
    },
    /// Heap fallback for crowded fingerprints, sorted ascending.
    Spilled(Vec<u16>),
}

impl OriginSet {
    /// Inline capacity.
    pub const INLINE: usize = 3;

    /// A set holding one origin.
    pub fn single(origin: u16) -> Self {
        let mut vals = [0u16; Self::INLINE];
        vals[0] = origin;
        OriginSet::Inline { len: 1, vals }
    }

    /// The origins as a sorted slice.
    #[inline]
    pub fn as_slice(&self) -> &[u16] {
        match self {
            OriginSet::Inline { len, vals } => &vals[..*len as usize],
            OriginSet::Spilled(v) => v,
        }
    }

    /// Insert keeping ascending order; `false` if already present.
    pub fn insert_sorted(&mut self, origin: u16) -> bool {
        let pos = match self.as_slice().binary_search(&origin) {
            Ok(_) => return false,
            Err(pos) => pos,
        };
        match self {
            OriginSet::Inline { len, vals } => {
                let n = *len as usize;
                if n < Self::INLINE {
                    vals.copy_within(pos..n, pos + 1);
                    vals[pos] = origin;
                    *len += 1;
                } else {
                    let mut v = vals.to_vec();
                    v.insert(pos, origin);
                    *self = OriginSet::Spilled(v);
                }
            }
            OriginSet::Spilled(v) => v.insert(pos, origin),
        }
        true
    }
}

impl std::ops::Deref for OriginSet {
    type Target = [u16];
    fn deref(&self) -> &[u16] {
        self.as_slice()
    }
}

impl<'a> IntoIterator for &'a OriginSet {
    type Item = &'a u16;
    type IntoIter = std::slice::Iter<'a, u16>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl PartialEq<Vec<u16>> for OriginSet {
    fn eq(&self, other: &Vec<u16>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// One cached fingerprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheNode {
    /// The fingerprint.
    pub fp: Fingerprint,
    /// Container assignment; [`ContainerId::NULL`] until the chunk is
    /// stored (§5.3).
    pub cid: ContainerId,
    /// Origin servers that submitted this fingerprint, sorted ascending.
    pub origins: OriginSet,
}

impl CacheNode {
    /// The designated storer: the lowest origin server.
    pub fn storer(&self) -> Option<u16> {
        self.origins.first().copied()
    }
}

/// In-memory fingerprint hash table, bucketed by fingerprint prefix.
#[derive(Debug, Clone)]
pub struct IndexCache {
    m_bits: u32,
    buckets: Vec<Vec<CacheNode>>,
    len: usize,
    capacity: usize,
}

impl IndexCache {
    /// Create a cache with `2^m_bits` buckets and room for `capacity`
    /// fingerprints.
    pub fn new(m_bits: u32, capacity: usize) -> Self {
        assert!(m_bits <= 30, "cache bucket bits out of range");
        IndexCache {
            m_bits,
            buckets: vec![Vec::new(); 1usize << m_bits],
            len: 0,
            capacity,
        }
    }

    /// Create a cache sized for a memory budget, using the paper's
    /// ≈24 bytes/fingerprint accounting (1 GB ⇒ ~44 M fingerprints, §5.2).
    /// Bucket count is chosen to keep mean chain length ≤ 8.
    pub fn with_memory(bytes: u64) -> Self {
        let capacity = (bytes / debar_simio::models::paper::CACHE_BYTES_PER_FP).max(1) as usize;
        let want_buckets = (capacity / 8).max(1);
        let m_bits = (usize::BITS - 1 - want_buckets.leading_zeros()).min(30);
        Self::new(m_bits, capacity)
    }

    /// Bucket-number width.
    pub fn m_bits(&self) -> u32 {
        self.m_bits
    }

    /// Number of cached fingerprints.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Fingerprint capacity (the memory budget).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether the cache has reached its capacity.
    pub fn is_full(&self) -> bool {
        self.len >= self.capacity
    }

    fn bucket_of(&self, fp: &Fingerprint) -> usize {
        fp.prefix_bits(self.m_bits) as usize
    }

    /// Insert a fingerprint submitted by `origin`. Returns `true` if the
    /// fingerprint was new to the cache; duplicates just gain an origin.
    ///
    /// # Panics
    /// Panics when inserting a *new* fingerprint into a full cache — SIL
    /// batch sizing must respect [`IndexCache::capacity`].
    pub fn insert(&mut self, fp: Fingerprint, origin: u16) -> bool {
        let b = self.bucket_of(&fp);
        let bucket = &mut self.buckets[b];
        if let Some(node) = bucket.iter_mut().find(|n| n.fp == fp) {
            node.origins.insert_sorted(origin);
            return false;
        }
        assert!(self.len < self.capacity, "index cache over capacity");
        bucket.push(CacheNode {
            fp,
            cid: ContainerId::NULL,
            origins: OriginSet::single(origin),
        });
        self.len += 1;
        true
    }

    /// Look up a node.
    pub fn get(&self, fp: &Fingerprint) -> Option<&CacheNode> {
        self.buckets[self.bucket_of(fp)]
            .iter()
            .find(|n| &n.fp == fp)
    }

    /// Remove and return a node (SIL removes duplicates from the cache so
    /// that "all the new fingerprints are retained", §5.2).
    pub fn remove(&mut self, fp: &Fingerprint) -> Option<CacheNode> {
        let b = self.bucket_of(fp);
        let bucket = &mut self.buckets[b];
        let pos = bucket.iter().position(|n| &n.fp == fp)?;
        self.len -= 1;
        Some(bucket.swap_remove(pos))
    }

    /// Iterate all nodes (bucket order, i.e. fingerprint-prefix order across
    /// buckets).
    pub fn iter(&self) -> impl Iterator<Item = &CacheNode> {
        self.buckets.iter().flat_map(|b| b.iter())
    }

    /// Drain the cache into a vector of nodes, in bucket order.
    pub fn drain(&mut self) -> Vec<CacheNode> {
        let mut out = Vec::with_capacity(self.len);
        self.drain_each(|node| out.push(node));
        out
    }

    /// Empty the cache in place: hand each node to `f` in bucket order (the
    /// order of [`IndexCache::drain`]) and keep every bucket's allocation,
    /// so one cache serves batch after batch without a drained copy.
    pub fn drain_each(&mut self, mut f: impl FnMut(CacheNode)) {
        self.len = 0;
        for b in &mut self.buckets {
            b.drain(..).for_each(&mut f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(n: u64) -> Fingerprint {
        Fingerprint::of_counter(n)
    }

    #[test]
    fn insert_get_remove() {
        let mut c = IndexCache::new(4, 100);
        assert!(c.insert(fp(1), 0));
        assert!(!c.insert(fp(1), 0));
        assert_eq!(c.len(), 1);
        assert!(c.get(&fp(1)).is_some());
        assert!(c.get(&fp(2)).is_none());
        let node = c.remove(&fp(1)).unwrap();
        assert_eq!(node.fp, fp(1));
        assert!(node.cid.is_null());
        assert!(c.is_empty());
        assert!(c.remove(&fp(1)).is_none());
    }

    #[test]
    fn origins_accumulate_sorted() {
        let mut c = IndexCache::new(4, 100);
        c.insert(fp(7), 3);
        c.insert(fp(7), 1);
        c.insert(fp(7), 2);
        c.insert(fp(7), 1); // duplicate origin ignored
        let n = c.get(&fp(7)).unwrap();
        assert_eq!(n.origins, vec![1, 2, 3]);
        assert_eq!(n.storer(), Some(1));
    }

    #[test]
    #[should_panic]
    fn capacity_enforced() {
        let mut c = IndexCache::new(2, 2);
        c.insert(fp(1), 0);
        c.insert(fp(2), 0);
        c.insert(fp(3), 0);
    }

    #[test]
    fn drain_returns_all_in_bucket_order() {
        let mut c = IndexCache::new(6, 1000);
        for i in 0..100u64 {
            c.insert(fp(i), 0);
        }
        let nodes = c.drain();
        assert_eq!(nodes.len(), 100);
        assert!(c.is_empty());
        // Bucket order == ascending fingerprint-prefix order.
        let prefixes: Vec<u64> = nodes.iter().map(|n| n.fp.prefix_bits(6)).collect();
        let mut sorted = prefixes.clone();
        sorted.sort();
        assert_eq!(prefixes, sorted);
    }

    #[test]
    fn drain_each_empties_in_drain_order_and_the_cache_serves_again() {
        let fill = |c: &mut IndexCache, from: u64| {
            for i in from..from + 100 {
                c.insert(fp(i), (i % 3) as u16);
                c.insert(fp(i), 2);
            }
        };
        let mut a = IndexCache::new(6, 100);
        fill(&mut a, 0);
        let want = a.clone().drain();
        let mut got = Vec::new();
        a.drain_each(|node| got.push(node));
        assert_eq!(got, want);
        assert!(a.is_empty() && a.iter().next().is_none());
        // A second batch as full as the first fits the emptied cache.
        fill(&mut a, 1000);
        let mut fresh = IndexCache::new(6, 100);
        fill(&mut fresh, 1000);
        assert_eq!(a.drain(), fresh.drain());
    }

    #[test]
    fn with_memory_sizes_from_budget() {
        let c = IndexCache::with_memory(1 << 30);
        // 1 GB / 24 B ≈ 44.7 M fingerprints (paper §5.2).
        assert!((40_000_000..48_000_000).contains(&c.capacity()));
        let small = IndexCache::with_memory(1);
        assert_eq!(small.capacity(), 1);
    }

    #[test]
    fn cache_bucket_alignment_with_disk_buckets() {
        // Cache bucket j must cover disk buckets [j*2^(n-m), (j+1)*2^(n-m)).
        let m = 4u32;
        let n = 10u32;
        let c = IndexCache::new(m, 10_000);
        for i in 0..2000u64 {
            let f = fp(i);
            let cache_bucket = f.prefix_bits(m);
            let disk_bucket = f.bucket_number(n);
            assert_eq!(disk_bucket >> (n - m), cache_bucket);
        }
        drop(c);
    }
}
