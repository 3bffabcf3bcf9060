//! Fingerprint-level chunk records.

use debar_hash::Fingerprint;
use serde::{Deserialize, Serialize};

/// One chunk of a fingerprint-level backup stream: the fingerprint plus the
/// (synthetic) chunk length it stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChunkRecord {
    /// Chunk fingerprint.
    pub fp: Fingerprint,
    /// Chunk length in bytes.
    pub len: u32,
}

impl ChunkRecord {
    /// Build the record for a synthetic counter value: fingerprint =
    /// SHA-1(counter) (paper §6.2) and a deterministic pseudo-random length
    /// derived from the fingerprint, uniform in [2 KB, 14 KB) so the mean
    /// matches the paper's 8 KB expected chunk size while staying within the
    /// CDC bounds of [2 KB, 64 KB].
    pub fn of_counter(counter: u64) -> Self {
        let fp = Fingerprint::of_counter(counter);
        ChunkRecord {
            fp,
            len: synthetic_len(&fp),
        }
    }

    /// A record with an explicit length.
    pub fn new(fp: Fingerprint, len: u32) -> Self {
        ChunkRecord { fp, len }
    }
}

/// Deterministic chunk length derived from a fingerprint: uniform in
/// [2048, 14336), mean 8192.
pub fn synthetic_len(fp: &Fingerprint) -> u32 {
    const SPAN: u64 = 12 * 1024;
    // Use fingerprint bytes 12..20 (independent of the routing prefix).
    let tail = u64::from_be_bytes(fp.as_bytes()[12..20].try_into().expect("8 bytes"));
    2048 + (tail % SPAN) as u32
}

/// Total bytes across records.
pub fn total_bytes(records: &[ChunkRecord]) -> u64 {
    records.iter().map(|r| r.len as u64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn length_is_deterministic_and_bounded() {
        for c in 0..10_000u64 {
            let a = ChunkRecord::of_counter(c);
            let b = ChunkRecord::of_counter(c);
            assert_eq!(a, b);
            assert!((2048..14336).contains(&a.len), "len {} out of range", a.len);
        }
    }

    #[test]
    fn mean_length_near_8k() {
        let mean: f64 = (0..50_000u64)
            .map(|c| ChunkRecord::of_counter(c).len as f64)
            .sum::<f64>()
            / 50_000.0;
        assert!((7900.0..8500.0).contains(&mean), "mean {mean}");
    }

    #[test]
    fn helpers() {
        let recs: Vec<ChunkRecord> = [1u64, 2, 1]
            .iter()
            .map(|&c| ChunkRecord::of_counter(c))
            .collect();
        assert_eq!(
            total_bytes(&recs),
            recs.iter().map(|r| r.len as u64).sum::<u64>()
        );
    }
}
