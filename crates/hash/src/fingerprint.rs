//! The 160-bit chunk fingerprint type and prefix-bit routing.
//!
//! DEBAR identifies chunks by the SHA-1 hash of their contents (paper §3.2).
//! Because SHA-1 outputs are uniformly distributed, the *first n bits* of a
//! fingerprint can directly serve as a disk-index bucket number (§4.1), and
//! in a multi-server deployment the *first w bits* select the backup server
//! that owns the fingerprint's index part while the following `n−w` bits
//! select the bucket within that part (§5.2, Fig. 5).
//!
//! The same uniformity gives the digest a third addressing: it is its own
//! key in the in-memory fingerprint tables (the preliminary filter, the
//! server's decision and pack sets, GC's range and dead sets, the LPC, the
//! restore recipe index). [`FpMap`] and [`FpSet`] are std's tables with
//! [`FpBuild`] in place of SipHash: [`Hash for Fingerprint`](Fingerprint)
//! writes one XOR-fold of the digest's 8 + 8 + 4 bytes, and [`FpHasher`]
//! spreads it with one folded 64×64→128 multiply. Each table draws its
//! multiply key from std's `RandomState` when it is built, so, exactly as
//! with std's hasher, no two tables iterate in the same order and no run
//! repeats another's: a map order that leaked into a result would show as
//! reps or seeds that disagree, which the determinism tests and the
//! benchmark's rep-agreement check catch.

use crate::sha1::{sha1_u64, Sha1};
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};

/// A 160-bit chunk fingerprint (SHA-1 digest of chunk contents).
///
/// Ordering is lexicographic over the digest bytes, which coincides with the
/// numeric order of the fingerprint read as a 160-bit big-endian integer —
/// and therefore with disk-index bucket order. This is what makes the
/// *number-ordered fingerprint distribution* (§4.1) and sequential index
/// lookups possible.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Fingerprint(pub [u8; 20]);

impl Hash for Fingerprint {
    /// One `u64`: the XOR-fold of digest bytes 0–7, 8–15 and 16–19. A
    /// SHA-1 digest is uniform, so the fold is too; the table's hasher
    /// only has to key and spread it (see the [module docs](self)).
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        let d = &self.0;
        let word = |at: usize| u64::from_le_bytes(d[at..at + 8].try_into().expect("8 bytes"));
        let tail = u32::from_le_bytes(d[16..20].try_into().expect("4 bytes"));
        state.write_u64(word(0) ^ word(8) ^ u64::from(tail));
    }
}

/// A std `HashMap` keyed by fingerprint, hashed by [`FpBuild`].
pub type FpMap<V> = HashMap<Fingerprint, V, FpBuild>;

/// A std `HashSet` of fingerprints, hashed by [`FpBuild`].
pub type FpSet = HashSet<Fingerprint, FpBuild>;

/// The [`BuildHasher`] of [`FpMap`] and [`FpSet`]: two keys drawn from
/// std's `RandomState` when the table is built, so each table hashes
/// (and iterates) differently.
#[derive(Debug, Clone, Copy)]
pub struct FpBuild {
    seed: u64,
    mul: u64,
}

impl Default for FpBuild {
    fn default() -> Self {
        let keys = RandomState::new();
        FpBuild {
            seed: keys.hash_one(0u64),
            // Odd, so the multiply never collapses the key it is given.
            mul: keys.hash_one(1u64) | 1,
        }
    }
}

impl BuildHasher for FpBuild {
    type Hasher = FpHasher;

    #[inline]
    fn build_hasher(&self) -> FpHasher {
        FpHasher {
            state: self.seed,
            mul: self.mul,
        }
    }
}

/// A fingerprint's table hasher: each `u64` written is XORed into the
/// state, which one folded 64×64→128 multiply then spreads. A
/// [`Fingerprint`] writes exactly one `u64`, so it costs one multiply.
#[derive(Debug, Clone)]
pub struct FpHasher {
    state: u64,
    mul: u64,
}

impl Hasher for FpHasher {
    #[inline]
    fn write_u64(&mut self, x: u64) {
        let product = u128::from(self.state ^ x) * u128::from(self.mul);
        self.state = product as u64 ^ (product >> 64) as u64;
    }

    /// Any other key: its bytes as little-endian `u64` words, the last
    /// zero-padded.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

impl Fingerprint {
    /// Digest width in bytes.
    pub const BYTES: usize = 20;
    /// Digest width in bits.
    pub const BITS: u32 = 160;

    /// Fingerprint of a byte slice (SHA-1).
    pub fn of_bytes(data: &[u8]) -> Self {
        Fingerprint(Sha1::digest(data))
    }

    /// Synthetic fingerprint of a 64-bit counter value (paper §4.2, §6.2):
    /// "a 64-bit variable ... as input to the SHA-1 algorithm to generate a
    /// sufficiently large number of different random fingerprints".
    pub fn of_counter(counter: u64) -> Self {
        Fingerprint(sha1_u64(counter))
    }

    /// Raw digest bytes.
    pub fn as_bytes(&self) -> &[u8; 20] {
        &self.0
    }

    /// The first 64 fingerprint bits as a big-endian integer: a sort key
    /// whose order coincides with full lexicographic fingerprint order up
    /// to 64-bit-prefix ties (used by the sweep paths to sort batches on
    /// a native integer instead of 20-byte memcmps).
    #[inline]
    pub fn prefix64(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().expect("8 bytes"))
    }

    /// The first `n` bits of the fingerprint as an integer (`n ≤ 64`).
    ///
    /// Bit 0 is the most-significant bit of byte 0, matching the paper's
    /// "first n bits of a fingerprint as the bucket number" (Fig. 3).
    #[inline]
    pub fn prefix_bits(&self, n: u32) -> u64 {
        assert!(n <= 64, "prefix limited to 64 bits");
        if n == 0 {
            return 0;
        }
        let head = u64::from_be_bytes(self.0[..8].try_into().expect("8 bytes"));
        head >> (64 - n)
    }

    /// Disk-index bucket number for an index with `2^n_bits` buckets (§4.1).
    #[inline]
    pub fn bucket_number(&self, n_bits: u32) -> u64 {
        self.prefix_bits(n_bits)
    }

    /// Multi-server routing (§5.2): for `2^w` servers and a global index of
    /// `2^n` buckets, returns `(server, local_bucket)` where `server` is the
    /// first `w` bits and `local_bucket` the following `n − w` bits.
    #[inline]
    pub fn route(&self, w_bits: u32, n_bits: u32) -> (u64, u64) {
        assert!(w_bits <= n_bits, "server bits must not exceed bucket bits");
        let prefix = self.prefix_bits(n_bits);
        let local_bits = n_bits - w_bits;
        if local_bits == 64 {
            return (0, prefix);
        }
        (prefix >> local_bits, prefix & ((1u64 << local_bits) - 1))
    }

    /// Server number (first `w` bits) for a `2^w`-server deployment.
    #[inline]
    pub fn server_number(&self, w_bits: u32) -> u64 {
        self.prefix_bits(w_bits)
    }

    /// Lowercase hex rendering of the digest.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(40);
        for b in &self.0 {
            use fmt::Write;
            write!(s, "{b:02x}").expect("writing to String cannot fail");
        }
        s
    }

    /// Parse a 40-character hex string.
    pub fn from_hex(s: &str) -> Option<Self> {
        let s = s.as_bytes();
        if s.len() != 40 {
            return None;
        }
        let nib = |c: u8| -> Option<u8> {
            match c {
                b'0'..=b'9' => Some(c - b'0'),
                b'a'..=b'f' => Some(c - b'a' + 10),
                b'A'..=b'F' => Some(c - b'A' + 10),
                _ => None,
            }
        };
        let mut out = [0u8; 20];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = (nib(s[2 * i])? << 4) | nib(s[2 * i + 1])?;
        }
        Some(Fingerprint(out))
    }
}

impl fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Short prefix keeps assertion output readable.
        write!(f, "fp:{}", &self.to_hex()[..12])
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Fingerprint {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl serde::Serialize for Fingerprint {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(&self.to_hex())
    }
}

impl<'de> serde::Deserialize<'de> for Fingerprint {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let s = String::deserialize(deserializer)?;
        Fingerprint::from_hex(&s).ok_or_else(|| serde::de::Error::custom("invalid fingerprint hex"))
    }
}

/// Generates the paper's synthetic fingerprint stream: successive SHA-1
/// digests of an incrementing 64-bit counter, optionally confined to a
/// subspace `[base, base + span)` of the counter value space (§6.2 divides
/// the 2^64 space into 64 non-intersecting contiguous subspaces, one per
/// backup client).
#[derive(Debug, Clone)]
pub struct FingerprintGenerator {
    base: u64,
    span: u64,
    next: u64,
}

impl FingerprintGenerator {
    /// Generator over the full 64-bit counter space.
    pub fn new() -> Self {
        FingerprintGenerator {
            base: 0,
            span: u64::MAX,
            next: 0,
        }
    }

    /// Generator confined to `[base, base + span)`.
    ///
    /// # Panics
    /// Panics if `span == 0`.
    pub fn subspace(base: u64, span: u64) -> Self {
        assert!(span > 0, "subspace must be non-empty");
        FingerprintGenerator {
            base,
            span,
            next: 0,
        }
    }

    /// Number of fingerprints generated so far.
    pub fn generated(&self) -> u64 {
        self.next
    }

    /// Produce the fingerprint of counter `base + offset` without advancing.
    pub fn at(&self, offset: u64) -> Fingerprint {
        Fingerprint::of_counter(self.base.wrapping_add(offset % self.span))
    }
}

impl Default for FingerprintGenerator {
    fn default() -> Self {
        Self::new()
    }
}

impl Iterator for FingerprintGenerator {
    type Item = Fingerprint;

    fn next(&mut self) -> Option<Fingerprint> {
        let fp = self.at(self.next);
        self.next = self.next.wrapping_add(1);
        Some(fp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn of_bytes_matches_sha1() {
        assert_eq!(
            Fingerprint::of_bytes(b"abc").to_hex(),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
    }

    #[test]
    fn prefix_bits_msb_first() {
        let mut raw = [0u8; 20];
        raw[0] = 0b1010_0000;
        raw[1] = 0b1100_0000;
        let fp = Fingerprint(raw);
        assert_eq!(fp.prefix_bits(1), 0b1);
        assert_eq!(fp.prefix_bits(3), 0b101);
        assert_eq!(fp.prefix_bits(4), 0b1010);
        assert_eq!(fp.prefix_bits(10), 0b10_1000_0011);
        assert_eq!(fp.prefix_bits(0), 0);
    }

    #[test]
    fn prefix_full_64_bits() {
        let mut raw = [0xffu8; 20];
        raw[7] = 0xfe;
        let fp = Fingerprint(raw);
        assert_eq!(fp.prefix_bits(64), 0xffff_ffff_ffff_fffe);
    }

    #[test]
    fn route_splits_prefix() {
        let mut raw = [0u8; 20];
        raw[0] = 0b1101_0110; // first 8 bits = 0b11010110
        let fp = Fingerprint(raw);
        let (server, bucket) = fp.route(3, 8);
        assert_eq!(server, 0b110);
        assert_eq!(bucket, 0b10110);
        // w == n: all prefix bits are the server, bucket is 0.
        let (server, bucket) = fp.route(8, 8);
        assert_eq!(server, 0b1101_0110);
        assert_eq!(bucket, 0);
        // w == 0: single-server, bucket is the full prefix.
        let (server, bucket) = fp.route(0, 8);
        assert_eq!(server, 0);
        assert_eq!(bucket, 0b1101_0110);
    }

    #[test]
    fn route_consistent_with_parts() {
        let fp = Fingerprint::of_counter(123456);
        for w in 0..6u32 {
            for n in w..20u32 {
                let (s, b) = fp.route(w, n);
                assert_eq!(s, fp.server_number(w));
                assert_eq!(fp.prefix_bits(n), (s << (n - w)) | b);
            }
        }
    }

    #[test]
    fn hex_roundtrip() {
        let fp = Fingerprint::of_counter(42);
        assert_eq!(Fingerprint::from_hex(&fp.to_hex()), Some(fp));
        assert_eq!(Fingerprint::from_hex("zz"), None);
        assert_eq!(Fingerprint::from_hex(&"a".repeat(40)).unwrap().0[0], 0xaa);
    }

    #[test]
    fn ordering_matches_bucket_order() {
        // Lexicographic byte order must equal bucket-number order for any n.
        let mut fps: Vec<Fingerprint> = (0..500u64).map(Fingerprint::of_counter).collect();
        fps.sort();
        for n in [1u32, 8, 16, 26] {
            let buckets: Vec<u64> = fps.iter().map(|f| f.bucket_number(n)).collect();
            let mut sorted = buckets.clone();
            sorted.sort();
            assert_eq!(buckets, sorted, "bucket order broken for n={n}");
        }
    }

    #[test]
    fn generator_full_space() {
        let mut g = FingerprintGenerator::new();
        let a = g.next().unwrap();
        let b = g.next().unwrap();
        assert_ne!(a, b);
        assert_eq!(a, Fingerprint::of_counter(0));
        assert_eq!(b, Fingerprint::of_counter(1));
        assert_eq!(g.generated(), 2);
    }

    #[test]
    fn generator_subspace_wraps() {
        let mut g = FingerprintGenerator::subspace(1000, 3);
        let seq: Vec<Fingerprint> = (&mut g).take(7).collect();
        assert_eq!(seq[0], Fingerprint::of_counter(1000));
        assert_eq!(seq[2], Fingerprint::of_counter(1002));
        assert_eq!(seq[3], Fingerprint::of_counter(1000)); // wrapped
        assert_eq!(seq[0], seq[3]);
        assert_eq!(seq[1], seq[4]);
    }

    #[test]
    fn generator_at_does_not_advance() {
        let g = FingerprintGenerator::subspace(5, 100);
        let before = g.generated();
        let _ = g.at(7);
        assert_eq!(g.generated(), before);
        assert_eq!(g.at(7), Fingerprint::of_counter(12));
    }

    #[test]
    fn uniform_distribution_over_buckets() {
        // SHA-1 uniformity: 64k fingerprints into 256 buckets should be flat
        // within ~5x standard deviation.
        let n_bits = 8u32;
        let mut counts = vec![0u32; 1 << n_bits];
        for c in 0..65536u64 {
            counts[Fingerprint::of_counter(c).bucket_number(n_bits) as usize] += 1;
        }
        let expected: f64 = 65536.0 / 256.0;
        let sd = expected.sqrt();
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expected).abs() < 6.0 * sd,
                "bucket {i} count {c} far from expected {expected}"
            );
        }
    }

    #[test]
    fn fp_hasher_separates_every_single_byte_variant() {
        let build = FpBuild::default();
        let base = Fingerprint::of_counter(7);
        for at in 0..Fingerprint::BYTES {
            let hashes: HashSet<u64> = (0..=u8::MAX)
                .map(|b| {
                    let mut variant = base;
                    variant.0[at] = b;
                    build.hash_one(variant)
                })
                .collect();
            assert_eq!(hashes.len(), 256, "byte {at}: variants collide");
        }
    }

    #[test]
    fn fp_hasher_spreads_counters_over_buckets_and_tags() {
        // hashbrown takes a bucket from the low bits and a 7-bit control
        // tag from the top ones: 2^16 keys over 2^16 buckets load each
        // like Poisson(1), whose maximum over 2^16 draws stays near 8.
        let build = FpBuild::default();
        let mut load = vec![0u32; 1 << 16];
        let mut tags = [false; 128];
        for c in 0..1u64 << 16 {
            let h = build.hash_one(Fingerprint::of_counter(c));
            load[(h & 0xffff) as usize] += 1;
            tags[(h >> 57) as usize] = true;
        }
        let max = load.iter().copied().max().unwrap_or(0);
        assert!(max <= 12, "a bucket holds {max} of 2^16 keys");
        assert!(tags.iter().all(|&hit| hit), "a control tag is never hit");
    }

    #[test]
    fn fp_build_keys_each_table() {
        let fp = Fingerprint::of_counter(1);
        assert_ne!(
            FpBuild::default().hash_one(fp),
            FpBuild::default().hash_one(fp)
        );
    }

    #[test]
    fn equal_fingerprints_hash_equal() {
        let build = FpBuild::default();
        for c in 0..1000u64 {
            let fp = Fingerprint::of_counter(c);
            let copy = Fingerprint::from_hex(&fp.to_hex()).expect("hex roundtrip");
            assert_eq!(build.hash_one(fp), build.hash_one(copy));
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_prefix_shift_consistency(counter: u64, n in 1u32..=64) {
            let fp = Fingerprint::of_counter(counter);
            // prefix(n) == prefix(n+1) >> 1 whenever both defined.
            if n < 64 {
                proptest::prop_assert_eq!(fp.prefix_bits(n), fp.prefix_bits(n + 1) >> 1);
            }
        }

        #[test]
        fn prop_hex_roundtrip(counter: u64) {
            let fp = Fingerprint::of_counter(counter);
            proptest::prop_assert_eq!(Fingerprint::from_hex(&fp.to_hex()), Some(fp));
        }
    }
}
