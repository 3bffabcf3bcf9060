//! Reports produced by backups, dedup-2 rounds and restores.

use crate::ids::{RunId, ServerId};
use debar_index::SiuReport;
use debar_simio::throughput::mibps;
use debar_simio::Secs;
use serde::{Deserialize, Serialize};

/// Outcome of one de-duplication phase-I backup (§3.3 File Store).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Dedup1Report {
    /// The run this report describes.
    pub run: RunId,
    /// The server that executed it.
    pub server: ServerId,
    /// Logical bytes in the backup stream.
    pub logical_bytes: u64,
    /// Logical chunks in the stream.
    pub logical_chunks: u64,
    /// Bytes actually transferred (preliminary-filter survivors).
    pub transferred_bytes: u64,
    /// Chunks actually transferred and appended to the chunk log.
    pub transferred_chunks: u64,
    /// Chunks the preliminary filter eliminated.
    pub filtered_dups: u64,
    /// Undetermined fingerprints added for dedup-2.
    pub undetermined_added: u64,
    /// Filter-missed chunks resolved as duplicates *inline* (LPC hit,
    /// pending-set hit or disk-index probe hit at backup time). Always 0
    /// under [`crate::DedupMode::OutOfLine`].
    pub inline_hits: u64,
    /// Random disk-index probes the backup path spent (inline/hybrid
    /// only; bounded by the hybrid window). Always 0 under
    /// [`crate::DedupMode::OutOfLine`].
    pub inline_index_reads: u64,
    /// Payload bytes this run left for the out-of-line sweep: bytes of
    /// chunks logged with their fingerprint still undetermined. Equals
    /// `transferred_bytes` under [`crate::DedupMode::OutOfLine`], 0 under
    /// [`crate::DedupMode::Inline`], and the cold remainder under
    /// [`crate::DedupMode::Hybrid`].
    pub backlog_bytes: u64,
    /// Virtual seconds of server time consumed.
    pub elapsed: Secs,
}

impl Dedup1Report {
    /// Dedup-1 throughput: logical bytes over elapsed server time.
    pub fn throughput_mibps(&self) -> f64 {
        mibps(self.logical_bytes, self.elapsed)
    }

    /// Phase-I compression: logical over transferred bytes.
    pub fn compression_ratio(&self) -> f64 {
        if self.transferred_bytes == 0 {
            f64::INFINITY
        } else {
            self.logical_bytes as f64 / self.transferred_bytes as f64
        }
    }
}

/// Per-server chunk-storing outcome within dedup-2 (§5.3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StoreReport {
    /// Log records processed.
    pub log_records: u64,
    /// Log bytes processed: every record the pass drained, wanted or not
    /// — not what the drain read off the log disk, which skips the
    /// duplicate runs (`chunklog.rs`). The dedup-2 throughput numerator.
    pub log_bytes: u64,
    /// Chunks written to containers.
    pub stored_chunks: u64,
    /// Bytes written to containers.
    pub stored_bytes: u64,
    /// Log records discarded as duplicates.
    pub discarded: u64,
    /// Containers sealed and stored.
    pub containers: u64,
}

/// Outcome of one dedup-2 round (§5.2-§5.4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dedup2Report {
    /// Round number (1-based).
    pub round: u32,
    /// Undetermined fingerprints submitted across servers.
    pub submitted_fps: u64,
    /// Decisions that entered the round already resolved by the *backup
    /// path* (inline/hybrid dedup staged them as carryover, bypassing
    /// PSIL). Measures the backlog shrink: under
    /// [`crate::DedupMode::Inline`] every stored chunk arrives this way
    /// and `submitted_fps` is 0.
    pub predetermined_fps: u64,
    /// Fingerprints found registered in the disk index (duplicates).
    pub dup_registered: u64,
    /// Fingerprints found pending (scheduled by an earlier SIL, awaiting
    /// SIU) or claimed by another origin in the same round.
    pub dup_pending: u64,
    /// Fingerprints determined new and assigned a storer.
    pub new_fps: u64,
    /// SIL sweeps performed (cache-capacity sub-batches summed over
    /// servers).
    pub sil_sweeps: u32,
    /// Index partitions the PSIL sweeps ran on (max over servers; the
    /// striped multi-part index of §5.2 — 1 means the paper's single
    /// index volume per server).
    pub sweep_parts: u32,
    /// Store workers each server's chunk-log drain striped across in the
    /// pipelined chunk-storing phase (1 = the paper's single log volume
    /// per server).
    pub store_workers: u32,
    /// Aggregate chunk-storing outcome.
    pub store: StoreReport,
    /// Rewrite-on-backup container-capping outcome (all-zero under the
    /// default [`crate::LayoutMode::Scatter`]; see
    /// [`crate::cluster::CapReport`]). Its wall is part of
    /// [`Dedup2Report::total_wall`].
    pub cap: crate::cluster::CapReport,
    /// Whether PSIU ran this round.
    pub siu_ran: bool,
    /// Per-server SIU reports when it ran.
    pub siu_reports: Vec<SiuReport>,
    /// Fingerprints registered by PSIU this round.
    pub siu_updates: u64,
    /// Wall time of the undetermined-exchange phase.
    pub exchange_wall: Secs,
    /// Wall time of the PSIL phase.
    pub sil_wall: Secs,
    /// Wall time of the chunk-storing phase (pack + commit, measured from
    /// the slowest server's PSIL completion — overlap already deducted).
    pub store_wall: Secs,
    /// Wall time of the PSIU phase (zero when deferred).
    pub siu_wall: Secs,
}

impl Dedup2Report {
    /// Total wall time of the round.
    pub fn total_wall(&self) -> Secs {
        self.exchange_wall + self.sil_wall + self.store_wall + self.cap.wall + self.siu_wall
    }

    /// Dedup-2 throughput over the processed log bytes.
    pub fn throughput_mibps(&self) -> f64 {
        mibps(self.store.log_bytes, self.total_wall())
    }

    /// Phase-II compression: log bytes over stored bytes.
    pub fn compression_ratio(&self) -> f64 {
        if self.store.stored_bytes == 0 {
            f64::INFINITY
        } else {
            self.store.log_bytes as f64 / self.store.stored_bytes as f64
        }
    }
}

/// Outcome of restoring one run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RestoreReport {
    /// The run restored.
    pub run: RunId,
    /// Files restored.
    pub files: u64,
    /// Bytes restored.
    pub bytes: u64,
    /// Chunks restored.
    pub chunks: u64,
    /// The locality-preserving cache's counters over this restore (hits,
    /// misses, **evictions** — the delta of `debar_store::LpcStats`
    /// across the walk), so restore-path cache regressions are
    /// observable per run, not just in aggregate. A hit serves the chunk
    /// from cache; a miss is a container fetch from the repository.
    pub lpc: debar_store::LpcStats,
    /// Container-fragmentation telemetry for this restore: distinct
    /// containers touched, containers per restored MiB and the mean
    /// run-length of consecutive chunks sharing a container (see
    /// [`crate::LayoutReport`]).
    pub layout: crate::cluster::LayoutReport,
    /// Chunks whose payload failed verification or could not be found.
    pub failures: u64,
    /// Degraded repository reads during the restore: container fetches
    /// served from a surviving replica after the preferred copy was down
    /// or faulted (the delta of `debar_store::RepoStats::failover_reads`
    /// across the walk). Zero on a healthy repository.
    pub failover_reads: u64,
    /// Corrupt container copies detected during the restore: fetches that
    /// found a copy failing its checksum and moved on to (and
    /// read-repaired from) a clean replica (the delta of
    /// `debar_store::RepoStats::corrupt_reads` across the walk). Counted
    /// separately from `failover_reads` so silent-damage incidence is
    /// visible on its own.
    pub corrupt_reads: u64,
    /// Repository I/O attempts beyond the first during the restore —
    /// transient faults absorbed by the retry policy (the delta of
    /// `debar_store::RepoStats::retried_ops` across the walk). Zero under
    /// the fail-fast default policy.
    pub retried_ops: u64,
    /// Seconds the resolver spent on index lookups (random reads on the
    /// owning parts' index disks plus, for a remote owner, the
    /// request/response hop) — the busy time of the walk's resolve lane.
    pub resolve_s: Secs,
    /// Busy seconds of the **busiest** repository node's disk during the
    /// walk: container reads, failed and retried attempts with their
    /// back-off, read-repair writes. The restore cannot finish sooner.
    pub node_read_s: Secs,
    /// Busy seconds summed over every repository node's disk.
    pub node_read_total_s: Secs,
    /// Seconds the restoring server's NIC spent streaming chunks to the
    /// client (0 for a verify walk).
    pub send_s: Secs,
    /// Virtual seconds consumed: the makespan of the pipelined walk,
    /// between the busiest single lane above and [`Self::serial_s`].
    pub elapsed: Secs,
}

impl RestoreReport {
    /// Restore throughput in MiB/s.
    pub fn throughput_mibps(&self) -> f64 {
        mibps(self.bytes, self.elapsed)
    }

    /// What the same walk costs with nothing overlapped — every lookup,
    /// node read and client send charged to one clock, one after another.
    /// `serial_s() - elapsed` is what the pipeline hid.
    pub fn serial_s(&self) -> Secs {
        self.resolve_s + self.node_read_total_s + self.send_s
    }

    /// LPC hit ratio during the restore.
    pub fn lpc_hit_ratio(&self) -> f64 {
        let total = self.lpc.hits + self.lpc.misses;
        if total == 0 {
            0.0
        } else {
            self.lpc.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::JobId;

    #[test]
    fn dedup1_derived_metrics() {
        let r = Dedup1Report {
            run: RunId {
                job: JobId(0),
                version: 0,
            },
            server: 0,
            logical_bytes: 4 << 20,
            logical_chunks: 512,
            transferred_bytes: 1 << 20,
            transferred_chunks: 128,
            filtered_dups: 384,
            undetermined_added: 128,
            inline_hits: 0,
            inline_index_reads: 0,
            backlog_bytes: 1 << 20,
            elapsed: 2.0,
        };
        assert_eq!(r.throughput_mibps(), 2.0);
        assert_eq!(r.compression_ratio(), 4.0);
    }

    #[test]
    fn dedup2_derived_metrics() {
        let r = Dedup2Report {
            round: 1,
            submitted_fps: 1000,
            predetermined_fps: 0,
            dup_registered: 400,
            dup_pending: 100,
            new_fps: 500,
            sil_sweeps: 1,
            sweep_parts: 1,
            store_workers: 1,
            store: StoreReport {
                log_records: 1000,
                log_bytes: 8 << 20,
                stored_chunks: 500,
                stored_bytes: 4 << 20,
                discarded: 500,
                containers: 1,
            },
            cap: crate::cluster::CapReport::default(),
            siu_ran: true,
            siu_reports: Vec::new(),
            siu_updates: 500,
            exchange_wall: 0.5,
            sil_wall: 1.0,
            store_wall: 2.0,
            siu_wall: 0.5,
        };
        assert_eq!(r.total_wall(), 4.0);
        assert_eq!(r.compression_ratio(), 2.0);
        assert_eq!(r.throughput_mibps(), 2.0);
    }
}
