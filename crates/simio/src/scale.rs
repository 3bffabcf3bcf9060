//! The size-scaling rule that lets PB-scale experiments run on a laptop.
//!
//! All byte *quantities* (workload size, index size, cache size, Bloom-filter
//! size) are divided by a scale denominator (default 1024); all *rates*
//! (MB/s, IOPS, fingerprint compares/s) stay at paper values; all *per-unit*
//! sizes (8 KB chunks, 8 KB buckets, 8 MB containers, 25-byte entries) are
//! unscaled. Under this rule:
//!
//! * throughput in MB/s is invariant (work and time shrink together),
//! * fingerprints/second figures are invariant (SIL speed = `f·r/s`, and both
//!   `f` and `s` scale),
//! * count-driven effects (Bloom false positives × random-I/O cost) scale
//!   consistently with everything else.
//!
//! Reports are labelled with *nominal* (paper-scale) sizes.

/// Maps nominal (paper-scale) sizes to actual (in-memory) sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleModel {
    /// The denominator: nominal = actual × denom.
    pub denom: u64,
}

impl ScaleModel {
    /// The default 1/1024 scale used throughout the benchmark harness.
    pub const DEFAULT: ScaleModel = ScaleModel { denom: 1024 };
    /// Full scale (no scaling); usable for small unit tests.
    pub const FULL: ScaleModel = ScaleModel { denom: 1 };

    /// Create a scale with the given denominator.
    ///
    /// # Panics
    /// Panics if `denom == 0`.
    pub fn new(denom: u64) -> Self {
        assert!(denom > 0, "scale denominator must be positive");
        ScaleModel { denom }
    }

    /// Convert a nominal byte size/count to the actual one (rounds down,
    /// but never below 1 for a non-zero nominal value).
    pub fn to_actual(&self, nominal: u64) -> u64 {
        if nominal == 0 {
            0
        } else {
            (nominal / self.denom).max(1)
        }
    }
}

impl Default for ScaleModel {
    fn default() -> Self {
        Self::DEFAULT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let s = ScaleModel::DEFAULT;
        assert_eq!(s.to_actual(32 << 30), 32 << 20); // 32 GB -> 32 MB
        assert_eq!(s.to_actual(32 << 30) * s.denom, 32 << 30);
    }

    #[test]
    fn small_values_do_not_vanish() {
        let s = ScaleModel::DEFAULT;
        assert_eq!(s.to_actual(10), 1);
        assert_eq!(s.to_actual(0), 0);
    }

    #[test]
    fn full_scale_is_identity() {
        let s = ScaleModel::FULL;
        assert_eq!(s.to_actual(12345), 12345);
    }

    #[test]
    fn throughput_invariance_example() {
        // bytes/time is invariant when both scale by the same factor.
        let s = ScaleModel::DEFAULT;
        let rate = 200.0 * (1u64 << 20) as f64;
        let nominal_bytes = 17u64 << 40; // 17 TB
        let actual_bytes = s.to_actual(nominal_bytes);
        let nominal_time = nominal_bytes as f64 / rate;
        let actual_time = actual_bytes as f64 / rate;
        let nominal_tp = nominal_bytes as f64 / nominal_time;
        let actual_tp = actual_bytes as f64 / actual_time;
        assert!((nominal_tp - actual_tp).abs() / nominal_tp < 1e-9);
    }
}
