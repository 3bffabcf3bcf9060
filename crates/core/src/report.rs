//! Reports produced by backups, dedup-2 rounds and restores.
//!
//! A backup decides nothing but what the preliminary filter catches, so
//! its [`Dedup1Report`] counts the stream, the filter's duplicates and
//! what went to the chunk log undetermined; every storage decision is the
//! dedup-2 round's and is counted in its [`Dedup2Report`].

use crate::ids::{RunId, ServerId};
use debar_index::SiuReport;
use debar_simio::throughput::mibps;
use debar_simio::Secs;

/// Outcome of one de-duplication phase-I backup (§3.3 File Store).
#[derive(Debug, Clone, Copy)]
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
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StoreReport {
    /// Log records processed: what the store commits consumed of the logs.
    pub log_records: u64,
    /// Log bytes processed: every record the store commits consumed,
    /// wanted or not — not what the drain read off the log disk, which
    /// skips the duplicate runs (`chunklog.rs`). A record an interrupted
    /// pass kept for the resumed round counts once, when it is consumed.
    /// The dedup-2 throughput numerator.
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

/// The wall time of a dedup-2 phase that no longer exists: `wall` is
/// always `0.0`. The end-to-end benchmark package (`benchmark/`, whose
/// calls into this crate are frozen) still reads
/// [`Dedup2Report::cap`]`.wall`, and this struct is kept only for it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CapReport {
    /// Always `0.0`.
    pub wall: Secs,
}

/// Outcome of one dedup-2 round (§5.2-§5.4).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dedup2Report {
    /// Round number (1-based).
    pub round: u32,
    /// Undetermined fingerprints submitted across servers.
    pub submitted_fps: u64,
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
    /// Always zero: see [`CapReport`].
    pub cap: CapReport,
    /// Whether PSIU ran this round: its own PSIU phase on the synchronous
    /// schedule, or the SIU that fell due at the end of the previous round,
    /// riding on this round's PSIL (`siu_interval > 1`). A round at whose
    /// end an SIU falls due reports `false`: its SIU runs in the next.
    pub siu_ran: bool,
    /// Per-server SIU reports when it ran (`parts = 0` for a server that
    /// had nothing pending and ran no sweep). A resumed round reports the
    /// riding SIU its interrupted attempt's PSIL commit registered.
    pub siu_reports: Vec<SiuReport>,
    /// Fingerprints registered by PSIU this round, riding or not.
    pub siu_updates: u64,
    /// Wall time of the undetermined-exchange phase.
    pub exchange_wall: Secs,
    /// Wall time of the PSIL phase: from the exchange's end to the slowest
    /// server's PSIL end, verdicts routed back to their origins. A riding
    /// SIU's merge and write pass are inside it.
    pub sil_wall: Secs,
    /// Wall time of the chunk-storing phase (pack + commit), measured from
    /// the PSIL end. A server's log drain may start before it: each worker
    /// disk streams the records a SIL sweep decided from that sweep's end
    /// (`BackupServer::pack_chunks`), so drain time spent under PSIL is in
    /// neither wall — the phase walls still add up to the round's end
    /// minus its start ([`Dedup2Report::total_wall`]), and no field counts
    /// the overlap.
    pub store_wall: Secs,
    /// Wall time of the PSIU phase of its own (synchronous schedule); zero
    /// when the SIU was deferred or rode on PSIL (its time is in
    /// [`Dedup2Report::sil_wall`]).
    pub siu_wall: Secs,
}

impl Dedup2Report {
    /// Total wall time of the round.
    pub fn total_wall(&self) -> Secs {
        self.exchange_wall + self.sil_wall + self.store_wall + self.siu_wall
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

/// Container-fragmentation telemetry for one restore walk.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayoutReport {
    /// Distinct containers the walk touched.
    pub containers_touched: u64,
    /// Fragments: maximal groups of consecutive chunks sharing one
    /// container (a perfectly sequential layout has one fragment per
    /// container; a fully scattered one has one per chunk).
    pub fragments: u64,
    /// Chunks walked.
    pub chunks: u64,
    /// Bytes restored.
    pub bytes: u64,
}

impl LayoutReport {
    /// Containers touched per restored MiB — the paper-style read
    /// amplification proxy (1 MiB containers at full utilization give
    /// exactly 1.0; growth over generations is fragmentation).
    pub fn containers_per_mib(&self) -> f64 {
        if self.bytes == 0 {
            0.0
        } else {
            self.containers_touched as f64 / (self.bytes as f64 / (1u64 << 20) as f64)
        }
    }

    /// Mean run-length of consecutive chunks sharing a container — the
    /// chunk-fragmentation level (high is sequential, 1.0 is fully
    /// scattered).
    pub fn mean_run_length(&self) -> f64 {
        if self.fragments == 0 {
            0.0
        } else {
            self.chunks as f64 / self.fragments as f64
        }
    }
}

/// Outcome of restoring one run.
#[derive(Debug, Clone, Copy, PartialEq)]
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
    /// [`LayoutReport`]).
    pub layout: LayoutReport,
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
            cap: CapReport::default(),
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
