//! Bloom filter: DDFS's in-memory summary vector (paper §1, §6.1.3).
//!
//! "DDFS exploits an in-memory Bloom filter, which compactly represents the
//! fingerprint set of the entire system ... For an expected chunk size of
//! 8KB, it needs 1GB in-memory Bloom filter to store 2^30 fingerprints of
//! about 8TB physical storage, which results in a reasonably low false
//! positive rate of 2%."
//!
//! The paper's Fig. 12 analysis fixes `k = 4` hash functions and varies the
//! bits-per-fingerprint ratio `m/n`; [`false_positive_rate`] implements the
//! `(1 − e^{−kn/m})^k` formula it quotes.
//!
//! # Blocked layout
//!
//! The filter uses a cache-line **blocked** layout (Putze, Sanders &
//! Singler's "blocked Bloom filter"): the bit array is an array of 512-bit
//! blocks, each exactly one 64-byte cache line. The first 64 bits of the
//! (already uniformly random) SHA-1 fingerprint select the *block*; all `k`
//! probe bits are then derived inside that single block by double hashing
//! over the next 64 bits. A membership test therefore touches **one cache
//! line instead of `k`** — on a gigabyte-scale summary vector, where every
//! classic probe is a DRAM miss, this cuts the memory traffic of the
//! DDFS hot path by ~`k`×. The price is a slightly higher false-positive
//! rate from per-block load variance (fractions of a percent at the
//! paper's `m/n = 8`, `k = 4` operating point), which
//! [`BloomFilter::theoretical_fp_rate`] still approximates well.
//!
//! Batch APIs ([`BloomFilter::contains_all`], [`BloomFilter::insert_all`])
//! let the preliminary-filter/summary-vector path test a whole fingerprint
//! batch in one pass; each probe's single cache line is software-prefetched
//! a fixed lookahead ahead of the cursor, so consecutive fetches overlap
//! instead of serialising behind verdict branches.
//!
//! Bits are allocated in whole 512-bit blocks: `m_bits` is reported as
//! requested (for `m/n` accounting) while storage rounds up to the next
//! block. The **documented minimum** filter size is one block (64 bytes);
//! [`BloomFilter::with_memory`] panics on a zero-byte budget instead of
//! silently degrading to a useless 1-bit filter (use
//! [`BloomFilter::try_with_memory`] to handle untrusted budgets).

// The workspace denies unsafe code; the software prefetch is one of its two exceptions.
#![allow(unsafe_code)]

use debar_hash::Fingerprint;

/// Bits per cache-line block.
pub const BLOCK_BITS: u64 = 512;

/// One 64-byte-aligned filter block: exactly one cache line, so a probe's
/// `k` bit tests can never straddle two lines.
#[derive(Debug, Clone, Copy, Default)]
#[repr(align(64))]
struct Block([u64; 8]);

/// Theoretical false-positive rate of a Bloom filter with `m` bits,
/// `n` inserted keys and `k` hash functions: `(1 − e^{−kn/m})^k`.
///
/// Degenerate configurations are pinned to their limiting behaviour: a
/// filter with no bits, or one with `k = 0` hash functions (every probe
/// vacuously passes), reports a false-positive rate of 1.
pub fn false_positive_rate(m_bits: u64, n_keys: u64, k: u32) -> f64 {
    if m_bits == 0 || k == 0 {
        return 1.0;
    }
    if n_keys == 0 {
        return 0.0;
    }
    let exponent = -(k as f64) * n_keys as f64 / m_bits as f64;
    (1.0 - exponent.exp()).powi(k as i32)
}

/// An in-memory blocked Bloom filter over chunk fingerprints.
#[derive(Debug, Clone)]
pub struct BloomFilter {
    bits: Vec<Block>,
    /// Requested size in bits (accounting); storage is `blocks × 512`.
    m_bits: u64,
    blocks: u64,
    k: u32,
    inserted: u64,
}

impl BloomFilter {
    /// Create a filter with `m_bits` bits (rounded up to whole 512-bit
    /// blocks) and `k` hash functions.
    ///
    /// # Panics
    /// Panics if `m_bits == 0` or `k == 0`.
    pub fn new(m_bits: u64, k: u32) -> Self {
        assert!(m_bits > 0, "filter must have bits");
        assert!(k > 0, "filter must have hash functions");
        let blocks = m_bits.div_ceil(BLOCK_BITS);
        BloomFilter {
            bits: vec![Block::default(); blocks as usize],
            m_bits,
            blocks,
            k,
            inserted: 0,
        }
    }

    /// Create a filter from a memory budget (the paper's "1 GB Bloom
    /// filter") with `k` hash functions. The minimum usable budget is one
    /// 64-byte block; smaller non-zero budgets round up to it.
    ///
    /// # Panics
    /// Panics if `bytes == 0` (a zero-budget filter would return `true`
    /// for everything after one insert) or `k == 0`.
    pub fn with_memory(bytes: u64, k: u32) -> Self {
        Self::try_with_memory(bytes, k)
            .expect("Bloom filter memory budget must be non-zero (minimum one 64-byte block)")
    }

    /// Non-panicking [`BloomFilter::with_memory`]: returns `None` when
    /// `bytes == 0` or `k == 0`.
    pub fn try_with_memory(bytes: u64, k: u32) -> Option<Self> {
        if bytes == 0 || k == 0 {
            return None;
        }
        Some(Self::new((bytes * 8).max(BLOCK_BITS), k))
    }

    /// Total bits as requested at construction.
    pub fn m_bits(&self) -> u64 {
        self.m_bits
    }

    /// Allocated 512-bit blocks.
    pub fn block_count(&self) -> u64 {
        self.blocks
    }

    /// Hash function count.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Keys inserted so far.
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// Bits-per-key ratio `m/n` (infinite when empty).
    pub fn bits_per_key(&self) -> f64 {
        if self.inserted == 0 {
            f64::INFINITY
        } else {
            self.m_bits as f64 / self.inserted as f64
        }
    }

    /// Current theoretical false-positive rate (the classic formula; the
    /// blocked layout adds a small load-variance correction on top).
    pub fn theoretical_fp_rate(&self) -> f64 {
        false_positive_rate(self.m_bits, self.inserted, self.k)
    }

    /// Fraction of bits set.
    pub fn fill_ratio(&self) -> f64 {
        let set: u64 = self
            .bits
            .iter()
            .flat_map(|b| b.0.iter())
            .map(|w| w.count_ones() as u64)
            .sum();
        set as f64 / (self.blocks * BLOCK_BITS) as f64
    }

    /// Block index and in-block double-hash seeds for a fingerprint: the
    /// first 64 fingerprint bits pick the cache-line block (fast-range
    /// reduction — a multiply-shift instead of a 64-bit divide), the next
    /// 64 supply `b1 + i·b2 mod 512` (with `b2` odd so the probe sequence
    /// walks the whole block).
    #[inline]
    fn block_and_seeds(&self, fp: &Fingerprint) -> (usize, u64, u64) {
        let raw = fp.as_bytes();
        let h1 = u64::from_be_bytes(raw[0..8].try_into().expect("8 bytes"));
        let h2 = u64::from_be_bytes(raw[8..16].try_into().expect("8 bytes"));
        let block = ((h1 as u128 * self.blocks as u128) >> 64) as usize;
        let b1 = h2 >> 9;
        let b2 = (h2 & (BLOCK_BITS - 1)) | 1;
        (block, b1, b2)
    }

    /// Insert a fingerprint: sets `k` bits inside one 64-byte block.
    #[inline]
    pub fn insert(&mut self, fp: &Fingerprint) {
        let (block, b1, b2) = self.block_and_seeds(fp);
        let words = &mut self.bits[block].0;
        for i in 0..self.k as u64 {
            let bit = (b1.wrapping_add(i.wrapping_mul(b2))) % BLOCK_BITS;
            words[(bit / 64) as usize] |= 1u64 << (bit % 64);
        }
        self.inserted += 1;
    }

    /// Membership test: `false` means *definitely absent*; `true` means
    /// *probably present* (with the filter's false-positive rate). Touches
    /// exactly one cache line.
    #[inline]
    pub fn contains(&self, fp: &Fingerprint) -> bool {
        let (block, b1, b2) = self.block_and_seeds(fp);
        Self::block_probe(&self.bits[block], b1, b2, self.k)
    }

    /// Test the `k` double-hash bits of one resident block.
    #[inline]
    fn block_probe(block: &Block, b1: u64, b2: u64, k: u32) -> bool {
        let words = &block.0;
        for i in 0..k as u64 {
            let bit = (b1.wrapping_add(i.wrapping_mul(b2))) % BLOCK_BITS;
            if words[(bit / 64) as usize] & (1u64 << (bit % 64)) == 0 {
                return false;
            }
        }
        true
    }

    /// Batch membership test: one verdict per fingerprint, in order.
    /// Equivalent to mapping [`BloomFilter::contains`], but each probe's
    /// (single) cache line is software-prefetched a fixed distance ahead,
    /// so the line fetches of consecutive probes overlap instead of
    /// serialising behind the verdict branches.
    pub fn contains_all(&self, fps: &[Fingerprint]) -> Vec<bool> {
        /// How far ahead of the probe cursor to prefetch.
        const LOOKAHEAD: usize = 16;
        let mut out = Vec::with_capacity(fps.len());
        for (i, fp) in fps.iter().enumerate() {
            if let Some(ahead) = fps.get(i + LOOKAHEAD) {
                let (block, _, _) = self.block_and_seeds(ahead);
                prefetch_line(&self.bits[block]);
            }
            let (block, b1, b2) = self.block_and_seeds(fp);
            out.push(Self::block_probe(&self.bits[block], b1, b2, self.k));
        }
        out
    }

    /// Batch insert: equivalent to repeated [`BloomFilter::insert`], with
    /// the same lookahead prefetch as [`BloomFilter::contains_all`].
    pub fn insert_all(&mut self, fps: &[Fingerprint]) {
        const LOOKAHEAD: usize = 16;
        for (i, fp) in fps.iter().enumerate() {
            if let Some(ahead) = fps.get(i + LOOKAHEAD) {
                let (block, _, _) = self.block_and_seeds(ahead);
                prefetch_line(&self.bits[block]);
            }
            self.insert(fp);
        }
    }
}

/// Best-effort prefetch of the cache line holding `block` (no-op on
/// architectures without an exposed prefetch intrinsic).
#[inline(always)]
fn prefetch_line(block: &Block) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch has no memory effects; any address is allowed.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(block as *const Block as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = block;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(n: u64) -> Fingerprint {
        Fingerprint::of_counter(n)
    }

    #[test]
    fn no_false_negatives() {
        let mut b = BloomFilter::new(1 << 16, 4);
        for i in 0..1000u64 {
            b.insert(&fp(i));
        }
        for i in 0..1000u64 {
            assert!(b.contains(&fp(i)), "false negative at {i}");
        }
    }

    #[test]
    fn no_false_negatives_at_scale() {
        // Satellite acceptance: zero false negatives across 10^5 inserts.
        let n = 100_000u64;
        let mut b = BloomFilter::with_memory(1 << 20, 4); // 8 Mbit, m/n ≈ 84
        for i in 0..n {
            b.insert(&fp(i));
        }
        let verdicts = b.contains_all(&(0..n).map(fp).collect::<Vec<_>>());
        let missing = verdicts.iter().filter(|v| !**v).count();
        assert_eq!(missing, 0, "{missing} false negatives out of {n}");
    }

    #[test]
    fn empty_filter_contains_nothing() {
        let b = BloomFilter::new(1 << 12, 4);
        for i in 0..100u64 {
            assert!(!b.contains(&fp(i)));
        }
        assert_eq!(b.theoretical_fp_rate(), 0.0);
    }

    #[test]
    fn paper_2_percent_operating_point() {
        // m/n = 8, k = 4: the paper's "reasonably low false positive rate of
        // 2%" — (1 − e^{−1/2})^4 ≈ 2.4%.
        let rate = false_positive_rate(8, 1, 4);
        assert!((0.019..0.03).contains(&rate), "rate {rate}");
    }

    #[test]
    fn paper_fig12_cliff_points() {
        // §6.1.3: at m/n = 4 with k = 4 the rate should be ~14.6-16%; at
        // m/n = 2 it exceeds 50% — the DDFS capacity cliff of Fig. 12.
        let at4 = false_positive_rate(4, 1, 4);
        assert!((0.13..0.18).contains(&at4), "m/n=4 rate {at4}");
        let at2 = false_positive_rate(2, 1, 4);
        assert!(at2 > 0.5, "m/n=2 rate {at2}");
    }

    #[test]
    fn degenerate_configurations_report_full_fp_rate() {
        // k = 0 means every membership test vacuously passes; m = 0 has
        // nowhere to record absence. Both must report 1.0, not NaN/0.
        assert_eq!(false_positive_rate(0, 10, 4), 1.0);
        assert_eq!(false_positive_rate(1024, 10, 0), 1.0);
        assert_eq!(false_positive_rate(0, 0, 0), 1.0);
    }

    #[test]
    fn with_memory_zero_budget_is_rejected() {
        assert!(BloomFilter::try_with_memory(0, 4).is_none());
        assert!(BloomFilter::try_with_memory(1 << 20, 0).is_none());
        // Tiny but non-zero budgets round up to the one-block minimum.
        let b = BloomFilter::try_with_memory(1, 4).expect("non-zero budget");
        assert_eq!(b.block_count(), 1);
        assert_eq!(b.m_bits(), BLOCK_BITS);
    }

    #[test]
    #[should_panic(expected = "memory budget must be non-zero")]
    fn with_memory_zero_budget_panics() {
        BloomFilter::with_memory(0, 4);
    }

    #[test]
    fn measured_fp_rate_tracks_theory() {
        let mut b = BloomFilter::new(1 << 15, 4);
        let n = (1u64 << 15) / 8; // m/n = 8
        for i in 0..n {
            b.insert(&fp(i));
        }
        let theory = b.theoretical_fp_rate();
        let probes = 20_000u64;
        let fps = (0..probes)
            .filter(|i| b.contains(&fp(1_000_000 + i)))
            .count();
        let measured = fps as f64 / probes as f64;
        assert!(
            (measured - theory).abs() < 0.02,
            "measured {measured:.4} vs theory {theory:.4}"
        );
    }

    #[test]
    fn fill_ratio_grows() {
        let mut b = BloomFilter::new(4096, 4);
        assert_eq!(b.fill_ratio(), 0.0);
        for i in 0..100u64 {
            b.insert(&fp(i));
        }
        let r = b.fill_ratio();
        assert!(r > 0.05 && r < 0.15, "fill {r}");
    }

    #[test]
    fn with_memory_bits() {
        let b = BloomFilter::with_memory(1 << 20, 4); // 1 MB
        assert_eq!(b.m_bits(), 8 << 20);
        assert_eq!(b.block_count(), (8 << 20) / BLOCK_BITS);
        assert_eq!(b.k(), 4);
    }

    #[test]
    fn bits_per_key_accounting() {
        let mut b = BloomFilter::new(800, 4);
        assert!(b.bits_per_key().is_infinite());
        for i in 0..100u64 {
            b.insert(&fp(i));
        }
        assert_eq!(b.bits_per_key(), 8.0);
    }

    #[test]
    fn batch_apis_match_scalar() {
        let keys: Vec<Fingerprint> = (0..5000u64).map(fp).collect();
        let probes: Vec<Fingerprint> = (2500..7500u64).map(fp).collect();

        let mut scalar = BloomFilter::new(1 << 16, 4);
        for k in &keys {
            scalar.insert(k);
        }
        let mut batch = BloomFilter::new(1 << 16, 4);
        batch.insert_all(&keys);

        assert_eq!(scalar.inserted(), batch.inserted());
        let scalar_verdicts: Vec<bool> = probes.iter().map(|p| scalar.contains(p)).collect();
        assert_eq!(scalar_verdicts, batch.contains_all(&probes));
    }

    proptest::proptest! {
        #[test]
        fn prop_inserted_always_found(keys: Vec<u64>) {
            let mut b = BloomFilter::new(1 << 14, 4);
            for &k in &keys {
                b.insert(&fp(k));
            }
            for &k in &keys {
                proptest::prop_assert!(b.contains(&fp(k)));
            }
        }

        #[test]
        fn prop_batch_contains_matches_scalar(keys: Vec<u64>, probes: Vec<u64>) {
            let mut b = BloomFilter::new(1 << 13, 4);
            b.insert_all(&keys.iter().map(|&k| fp(k)).collect::<Vec<_>>());
            let q: Vec<Fingerprint> = probes.iter().map(|&p| fp(p)).collect();
            let batch = b.contains_all(&q);
            for (p, got) in q.iter().zip(batch) {
                proptest::prop_assert_eq!(b.contains(p), got);
            }
        }
    }
}
