//! Calibrated hardware models.
//!
//! [`paper`] encodes the constants measured or implied by the paper's
//! evaluation (§4.2, §5.2, §6.1) on its 18-node testbed: Intel Xeon 3.0 GHz,
//! 4 GB RAM, two 1-GbE NICs and two 8-disk SATA RAID volumes per node.
//!
//! | Constant | Paper evidence |
//! |---|---|
//! | index RAID sequential read ≈ 225 MiB/s | SIL of a 32 GB index takes 2.53 min (§6.1.2) |
//! | index RAID sequential write ≈ 165 MiB/s | SIU of a 32 GB index takes 6.16 min (read + write sweep) |
//! | index random positioning ≈ 1.91 ms | random lookup ≈ 522 fingerprints/s (§6.1.3, Fig. 11) |
//! | chunk-log sustained read = 224 MiB/s | "exactly the sustained read throughput of the disk log" (§6.1.2) |
//! | NIC sustained = 210 MiB/s | "exactly the sustained throughput of the network card" (§6.1.2) |
//! | in-memory probes = 2.749 M fp/s | §4.2 measurement on Xeon DP 5365 |

use crate::cpu::CpuModel;
use crate::disk::DiskModel;
use crate::net::NetModel;

/// One mebibyte (the paper's "MB" in throughput figures).
pub const MIB: f64 = (1u64 << 20) as f64;
/// One gibibyte.
pub const GIB: u64 = 1 << 30;
/// One tebibyte.
pub const TIB: u64 = 1 << 40;

/// Paper-calibrated constants (see module docs).
pub mod paper {
    use super::*;

    /// Index entry size: 20-byte fingerprint + 5-byte container ID (§4.2).
    pub const INDEX_ENTRY_BYTES: usize = 25;
    /// Disk block size; each block stores up to 20 entries (§4.2).
    pub const DISK_BLOCK_BYTES: usize = 512;
    /// Entries per 512-byte disk block (§4.2).
    pub const ENTRIES_PER_BLOCK: usize = 20;
    /// Default disk-index bucket size chosen by the paper (§4.2): 8 KB,
    /// for >80% utilization; capacity b = 320 entries.
    pub const DEFAULT_BUCKET_BYTES: usize = 8 * 1024;
    /// Container size (§3.4): 8 MB.
    pub const CONTAINER_BYTES: u64 = 8 << 20;
    /// Expected chunk size (§3.2): 8 KB.
    pub const EXPECTED_CHUNK_BYTES: u64 = 8 * 1024;
    /// Bytes of index-cache memory consumed per cached fingerprint
    /// (derived: "about 1GB memory cache ... about 44 million fingerprints",
    /// §5.2 ⇒ ≈ 24 bytes/fingerprint).
    pub const CACHE_BYTES_PER_FP: u64 = 24;

    /// The RAID volume holding the disk index.
    pub fn index_disk() -> DiskModel {
        DiskModel {
            seek_s: 1.913e-3, // ⇒ ~522 random 512-byte lookups/s
            read_bw: 225.0 * MIB,
            write_bw: 165.0 * MIB,
        }
    }

    /// The RAID volume holding the on-disk chunk log.
    pub fn log_disk() -> DiskModel {
        DiskModel {
            seek_s: 1.913e-3,
            read_bw: 224.0 * MIB,
            write_bw: 224.0 * MIB,
        }
    }

    /// A chunk-repository storage node's volume.
    pub fn repo_disk() -> DiskModel {
        DiskModel {
            seek_s: 1.913e-3,
            read_bw: 224.0 * MIB,
            write_bw: 224.0 * MIB,
        }
    }

    /// A backup server's (bonded) NIC.
    pub fn server_nic() -> NetModel {
        NetModel {
            bandwidth: 210.0 * MIB,
            latency_s: 100e-6,
        }
    }

    /// The backup-server CPU.
    pub fn cpu() -> CpuModel {
        CpuModel {
            fp_probes_per_s: 2.749e6,
            // SHA-1 + Rabin on a 3.0 GHz Xeon of the era.
            hash_bw: 180.0 * MIB,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_lookup_rate_near_paper_measurement() {
        // Paper: ~522 random on-disk fingerprint lookups per second.
        let rate = 1.0 / paper::index_disk().rand_read_cost(512);
        assert!((rate - 522.0).abs() < 5.0, "rate {rate}");
    }

    #[test]
    fn random_update_rate_near_paper_measurement() {
        // Paper: ~270 random updates/s; an update is a read-modify-write
        // (two random I/Os).
        let m = paper::index_disk();
        let per_update = m.rand_read_cost(512) + m.rand_write_cost(512);
        let rate = 1.0 / per_update;
        assert!((rate - 270.0).abs() < 15.0, "rate {rate}");
    }

    #[test]
    fn sil_sweep_time_near_paper() {
        // Paper Fig. 10: SIL over a 32 GB index takes ~2.53 min.
        let m = paper::index_disk();
        let secs = m.seq_read_cost(32 * GIB);
        let minutes = secs / 60.0;
        assert!((2.0..3.2).contains(&minutes), "SIL sweep {minutes} min");
    }

    #[test]
    fn siu_sweep_time_near_paper() {
        // Paper Fig. 10: SIU over a 32 GB index takes ~6.16 min
        // (read sweep + write sweep).
        let m = paper::index_disk();
        let secs = m.seq_read_cost(32 * GIB) + m.seq_write_cost(32 * GIB);
        let minutes = secs / 60.0;
        assert!((5.2..7.2).contains(&minutes), "SIU sweep {minutes} min");
    }

    #[test]
    fn bucket_capacity_matches_paper() {
        // 8 KB bucket = 16 blocks * 20 entries = 320 entries (§4.2).
        let blocks = paper::DEFAULT_BUCKET_BYTES / paper::DISK_BLOCK_BYTES;
        assert_eq!(blocks * paper::ENTRIES_PER_BLOCK, 320);
    }

    #[test]
    fn gigabyte_cache_holds_44m_fingerprints() {
        // §5.2: "Using the about 1GB memory cache, we can provide lookups
        // for about 44 million fingerprints."
        let fps = GIB / paper::CACHE_BYTES_PER_FP;
        assert!((40_000_000..48_000_000).contains(&fps), "{fps}");
    }
}
