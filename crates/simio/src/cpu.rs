//! CPU timing model.
//!
//! The paper measures 2.749 million in-memory fingerprint lookups per second
//! on a Xeon DP 5365 (§4.2) and argues that SIL/SIU "judiciously exploit CPU
//! power to compensate for the low speed of disk access" (§6.3). We model
//! two CPU-bound activities: probing/comparing fingerprints in in-memory
//! hash structures, and hashing payload bytes (SHA-1 / Rabin at the client).

use crate::clock::Secs;

/// CPU rate parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuModel {
    /// In-memory fingerprint probes (hash + compare chain) per second.
    pub fp_probes_per_s: f64,
    /// Payload hashing bandwidth, bytes/second (SHA-1 + Rabin combined).
    pub hash_bw: f64,
}

impl CpuModel {
    /// Cost of `count` fingerprint probes.
    #[inline]
    pub fn probe_cost(&self, count: u64) -> Secs {
        count as f64 / self.fp_probes_per_s
    }

    /// Cost of hashing `bytes` of payload.
    #[inline]
    pub fn hash_cost(&self, bytes: u64) -> Secs {
        bytes as f64 / self.hash_bw
    }
}

/// Cumulative CPU accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CpuStats {
    /// Fingerprint probes performed.
    pub fp_probes: u64,
    /// Payload bytes hashed.
    pub hashed_bytes: u64,
    /// Total busy time.
    pub busy_s: Secs,
}

/// A simulated CPU with statistics.
#[derive(Debug, Clone)]
pub struct SimCpu {
    model: CpuModel,
    stats: CpuStats,
}

impl SimCpu {
    /// Create a CPU with the given model.
    pub fn new(model: CpuModel) -> Self {
        SimCpu {
            model,
            stats: CpuStats::default(),
        }
    }

    /// The rate model.
    pub fn model(&self) -> CpuModel {
        self.model
    }

    /// Statistics so far.
    pub fn stats(&self) -> CpuStats {
        self.stats
    }

    /// Perform `count` fingerprint probes; returns the cost.
    pub fn probe_fps(&mut self, count: u64) -> Secs {
        let c = self.model.probe_cost(count);
        self.stats.fp_probes += count;
        self.stats.busy_s += c;
        c
    }

    /// Perform `count` fingerprint probes spread over `ways` parallel
    /// workers (sharded sweep partitions); wall time is the `max` over the
    /// even partitions, i.e. a `1/ways` share. Statistics record the full
    /// probe count; busy time accrues the parallel wall time.
    pub fn probe_fps_striped(&mut self, count: u64, ways: u32) -> Secs {
        let c = self.model.probe_cost(count) / ways.max(1) as f64;
        self.stats.fp_probes += count;
        self.stats.busy_s += c;
        c
    }

    /// Hash `bytes` of payload; returns the cost.
    pub fn hash_bytes(&mut self, bytes: u64) -> Secs {
        let c = self.model.hash_cost(bytes);
        self.stats.hashed_bytes += bytes;
        self.stats.busy_s += c;
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_cost_matches_rate() {
        let mut c = SimCpu::new(CpuModel {
            fp_probes_per_s: 1e6,
            hash_bw: 1e8,
        });
        assert_eq!(c.probe_fps(1_000_000), 1.0);
        assert_eq!(c.stats().fp_probes, 1_000_000);
    }

    #[test]
    fn hash_cost_matches_bandwidth() {
        let mut c = SimCpu::new(CpuModel {
            fp_probes_per_s: 1e6,
            hash_bw: 1e8,
        });
        assert_eq!(c.hash_bytes(100_000_000), 1.0);
    }
}
