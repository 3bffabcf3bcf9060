//! Disk index geometry.

use crate::entry::{BLOCK_BYTES, ENTRIES_PER_BLOCK};

/// Geometry of a DEBAR disk index: `2^n_bits` buckets of `bucket_bytes`
/// each, where every bucket is a run of 512-byte blocks holding 20 entries
/// apiece (paper §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexParams {
    /// Bucket-number width: the index has `2^n_bits` buckets, addressed by
    /// the first `n_bits` of a fingerprint.
    pub n_bits: u32,
    /// Bucket size in bytes; must be a positive multiple of 512.
    pub bucket_bytes: usize,
}

impl IndexParams {
    /// Create and validate parameters.
    ///
    /// # Panics
    /// Panics on a zero/odd-sized bucket or an unusable bit width.
    pub fn new(n_bits: u32, bucket_bytes: usize) -> Self {
        let p = IndexParams {
            n_bits,
            bucket_bytes,
        };
        p.validate();
        p
    }

    /// Derive parameters from a total index size: `n_bits =
    /// log2(total_bytes / bucket_bytes)`.
    ///
    /// # Panics
    /// Panics unless `total_bytes` is a power-of-two multiple of
    /// `bucket_bytes`.
    pub fn from_total_size(total_bytes: u64, bucket_bytes: usize) -> Self {
        assert!(bucket_bytes > 0 && total_bytes.is_multiple_of(bucket_bytes as u64));
        let buckets = total_bytes / bucket_bytes as u64;
        assert!(
            buckets.is_power_of_two(),
            "bucket count must be a power of two"
        );
        Self::new(buckets.trailing_zeros(), bucket_bytes)
    }

    fn validate(&self) {
        assert!(self.n_bits >= 1 && self.n_bits <= 40, "n_bits out of range");
        assert!(
            self.bucket_bytes >= BLOCK_BYTES && self.bucket_bytes.is_multiple_of(BLOCK_BYTES),
            "bucket must be a positive multiple of {BLOCK_BYTES}"
        );
    }

    /// Number of buckets, `2^n_bits`.
    pub fn buckets(&self) -> u64 {
        1u64 << self.n_bits
    }

    /// Blocks per bucket.
    pub fn blocks_per_bucket(&self) -> usize {
        self.bucket_bytes / BLOCK_BYTES
    }

    /// Entry capacity of one bucket (the paper's `b`).
    pub fn bucket_capacity(&self) -> usize {
        self.blocks_per_bucket() * ENTRIES_PER_BLOCK
    }

    /// Total entry capacity of the index.
    pub fn max_entries(&self) -> u64 {
        self.buckets() * self.bucket_capacity() as u64
    }

    /// Total index size in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.buckets() * self.bucket_bytes as u64
    }

    /// Parameters after one capacity-scaling step (§4.1): bucket count
    /// doubles, bucket size unchanged.
    pub fn scaled_up(&self) -> IndexParams {
        IndexParams::new(self.n_bits + 1, self.bucket_bytes)
    }

    /// Parameters of one part after a `2^w`-way performance split (§4.1).
    ///
    /// # Panics
    /// Panics if `w_bits >= n_bits`.
    pub fn split_part(&self, w_bits: u32) -> IndexParams {
        assert!(w_bits < self.n_bits, "cannot split away all bucket bits");
        IndexParams::new(self.n_bits - w_bits, self.bucket_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_32gb_geometry() {
        // §5.2: a 32 GB index of 512-byte buckets has 2^26 buckets holding
        // up to 2^26 * 20 fingerprints.
        let p = IndexParams::from_total_size(32 << 30, 512);
        assert_eq!(p.n_bits, 26);
        assert_eq!(p.bucket_capacity(), 20);
        assert_eq!(p.max_entries(), (1u64 << 26) * 20);
    }

    #[test]
    fn paper_8kb_bucket_capacity() {
        let p = IndexParams::new(12, 8 * 1024);
        assert_eq!(p.bucket_capacity(), 320);
        assert_eq!(p.blocks_per_bucket(), 16);
        assert_eq!(p.total_bytes(), 4096 * 8 * 1024);
    }

    #[test]
    fn scaling_doubles_buckets() {
        let p = IndexParams::new(10, 1024);
        let s = p.scaled_up();
        assert_eq!(s.buckets(), 2 * p.buckets());
        assert_eq!(s.bucket_bytes, p.bucket_bytes);
    }

    #[test]
    fn split_reduces_bits() {
        let p = IndexParams::new(10, 1024);
        let part = p.split_part(4);
        assert_eq!(part.n_bits, 6);
        assert_eq!(part.total_bytes() * 16, p.total_bytes());
    }

    #[test]
    #[should_panic]
    fn split_all_bits_rejected() {
        IndexParams::new(4, 512).split_part(4);
    }

    #[test]
    #[should_panic]
    fn odd_bucket_size_rejected() {
        IndexParams::new(4, 700);
    }

    #[test]
    #[should_panic]
    fn non_pow2_total_rejected() {
        IndexParams::from_total_size(3 * 512, 512);
    }
}
