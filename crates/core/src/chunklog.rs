//! The on-disk chunk log (paper §5.1).
//!
//! In de-duplication phase I, chunks that survive the preliminary filter
//! are "temporarily appended to a local on-disk chunk log" as
//! `<F, D(F)>` groups; phase II drains it sequentially for chunk storing
//! (§5.3), which is why its sustained read rate (224 MB/s in the paper)
//! bounds the dedup-2 chunk-storing throughput.
//!
//! What the log carries depends on [`crate::DedupMode`]: under
//! `OutOfLine` (the paper) every filter survivor is appended with its
//! fingerprint still *undetermined* — duplicates included — and the
//! sweep discards them at drain time; under `Inline` only chunks the
//! backup path already determined **new** are appended (their storage
//! decision rides along as pre-staged carryover, so nothing drained is
//! discarded); under `Hybrid` the log holds both record kinds — the
//! budget-resolved new chunks and the cold undetermined remainder.
//!
//! # Striped drains (`store_workers`)
//!
//! The pipelined chunk-storing phase can drain the log with several store
//! workers, each reading its own contiguous share of the log stripe from
//! its own spindle set. The model mirrors the striped index volume
//! (`debar_index::DiskIndex` over `debar_simio::PartDiskSet`): the
//! volume-level disk still ticks once per drain (op counting, whole-log
//! statistics, the retained even-split oracle), each **worker disk**
//! reads its own byte share, and the drain completes at the max over
//! per-worker completion times — exactly `1/W` for the even split. The
//! record *sequence* is unaffected: workers stripe the bytes, the merge
//! preserves append order, so chunk storing stays byte-identical at any
//! worker count. Appends charge the volume (the stripe's aggregate write
//! path) unchanged.
//!
//! # Fault model
//!
//! The log disk carries an armable [`debar_simio::FaultPlan`] like every
//! other simulated device, and the log's only I/O entry points
//! ([`ChunkLog::try_append`], [`ChunkLog::try_drain_striped`]) are
//! fault-checked: they surface injected faults as
//! [`DebarError::DiskFault`] — extending the typed failure story to
//! de-duplication phase I. Log appends are synchronous (the backup run
//! stalls on them), so *every* fault kind — outright failure, torn
//! write, bit flip — is detected at the faulted operation itself: a
//! failed append persists nothing and the record is **not** logged; a
//! failed drain — whether the volume or a single worker disk faulted —
//! leaves every record in place for the retry.

use crate::dataset::StreamChunk;
use crate::error::DebarError;
use debar_hash::Fingerprint;
use debar_simio::{FaultPlan, PartDiskSet, Secs, SimDisk, Timed};
use debar_store::Payload;

/// One `<F, D(F)>` group.
#[derive(Debug, Clone)]
pub struct LogRecord {
    /// The fingerprint.
    pub fp: Fingerprint,
    /// The chunk payload.
    pub payload: Payload,
}

impl LogRecord {
    /// On-disk footprint: fingerprint + length header + payload.
    pub fn record_bytes(&self) -> u64 {
        25 + self.payload.len()
    }
}

impl From<&StreamChunk> for LogRecord {
    fn from(c: &StreamChunk) -> Self {
        LogRecord {
            fp: c.fp,
            payload: c.payload.clone(),
        }
    }
}

/// A sequential chunk log on its own disk, drainable as a stripe across
/// per-worker disks (see the module docs).
#[derive(Debug)]
pub struct ChunkLog {
    disk: SimDisk,
    /// The physical drain stripe: one disk per store worker, engaged only
    /// by [`ChunkLog::try_drain_striped`] with `workers > 1`-capable
    /// shares; the volume disk above stays the op-counting and statistics
    /// surface for the whole log.
    worker_disks: PartDiskSet,
    records: Vec<LogRecord>,
    bytes: u64,
}

impl ChunkLog {
    /// Create an empty log with the paper's log-disk model.
    pub fn new() -> Self {
        let model = debar_simio::models::paper::log_disk();
        ChunkLog {
            disk: SimDisk::new(model),
            worker_disks: PartDiskSet::new(model),
            records: Vec::new(),
            bytes: 0,
        }
    }

    /// Records currently logged.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Logged bytes (records + payloads).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Arm a deterministic fault schedule on the log disk (replaces any
    /// previous plan); [`ChunkLog::try_append`] and
    /// [`ChunkLog::try_drain_striped`] check it.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.disk.set_fault_plan(plan);
    }

    /// Arm a deterministic fault schedule on **one worker disk** of the
    /// drain stripe (materializing it if no striped drain has engaged it
    /// yet): the fault fires only when a striped drain charges that
    /// worker's share, modelling the loss of a single store worker's
    /// spindle set mid-pipeline. The stripe resizes to the drain's worker
    /// count, so a plan armed on a worker the next drain does not engage
    /// is dropped by the resize — callers that know the configured count
    /// (the backup server does) validate against it.
    pub fn set_worker_fault_plan(&mut self, worker: usize, plan: FaultPlan) {
        self.worker_disks.set_fault_plan(worker, plan);
    }

    /// Disarm all log-disk faults (volume and worker disks, armed and
    /// fired-but-uncollected).
    pub fn clear_fault_plan(&mut self) {
        self.disk.clear_fault_plan();
        self.worker_disks.clear_fault_plans();
    }

    /// The log disk's operation counter (for arming `FaultPlan`s relative
    /// to "the next op"; every append and every drain is one op).
    pub fn disk_ops(&self) -> u64 {
        self.disk.ops()
    }

    /// One worker disk's operation counter (every striped drain that
    /// engages the worker is one op on its disk).
    pub fn worker_disk_ops(&self, worker: usize) -> u64 {
        self.worker_disks.ops(worker)
    }

    /// Append one record (sequential write); returns the cost. An
    /// injected fault on the append op surfaces as
    /// [`DebarError::DiskFault`] and the record is
    /// **not** logged (a failed synchronous append persists nothing) —
    /// the caller aborts its backup run and may retry it whole.
    pub fn try_append(&mut self, rec: LogRecord) -> Result<Secs, DebarError> {
        let b = rec.record_bytes();
        let cost = self
            .disk
            .checked_op(|d| d.seq_write(b))
            .map_err(|fault| DebarError::DiskFault { fault })?;
        self.bytes += b;
        self.records.push(rec);
        Ok(cost)
    }

    /// Drain the log (the phase-II replay) striped across `workers` store
    /// workers: each worker disk reads its own (even) byte share of the log
    /// concurrently and the drain completes at the slowest worker —
    /// exactly `1/W` of the single-worker drain for the even split (one
    /// large sequential read at `workers = 1`), while the returned record
    /// sequence is byte-identical at any worker count.
    ///
    /// Charging mirrors the striped index volume: the volume-level disk
    /// ticks once (op counting for volume fault plans, whole-log
    /// statistics, the retained even-split oracle), then each worker disk
    /// is charged its share. A fault on the volume *or* on any single
    /// worker disk surfaces as [`DebarError::DiskFault`] with **every
    /// record left in the log** — the read pointer never advanced, so the
    /// resumed round's drain replays the identical sequence.
    pub fn try_drain_striped(
        &mut self,
        workers: usize,
    ) -> Result<Timed<Vec<LogRecord>>, DebarError> {
        let w = workers.max(1);
        let b = self.bytes;
        let _ = self
            .disk
            .checked_op(|d| d.seq_read_striped(b, w as u32))
            .map_err(|fault| DebarError::DiskFault { fault })?;
        let shares: Vec<u64> = (0..w as u64)
            .map(|i| b * (i + 1) / w as u64 - b * i / w as u64)
            .collect();
        let cost = self.worker_disks.seq_read_split(&shares);
        if let Some((worker, fault)) = self.worker_disks.take_fault() {
            // The faulted worker's share never merged: the whole drain
            // aborts with the read pointer unadvanced, and the typed
            // error names the failing worker disk (the same attribution
            // convention as the index's `PartDiskFault`).
            return Err(DebarError::LogWorkerFault { worker, fault });
        }
        self.bytes = 0;
        Ok(Timed::new(std::mem::take(&mut self.records), cost))
    }

    /// Put records back at the *front* of the log in order (crash
    /// rollback: an interrupted chunk-storing phase re-queues the records
    /// it did not durably store, modelling a log read pointer that never
    /// advanced past them). No I/O is charged — the bytes are already on
    /// the log disk.
    pub fn requeue_front(&mut self, mut records: Vec<LogRecord>) {
        self.bytes += records.iter().map(LogRecord::record_bytes).sum::<u64>();
        records.append(&mut self.records);
        self.records = records;
    }

    /// Disk statistics.
    pub fn disk_stats(&self) -> debar_simio::DiskStats {
        self.disk.stats()
    }
}

impl Default for ChunkLog {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(n: u64, len: u32) -> LogRecord {
        LogRecord {
            fp: Fingerprint::of_counter(n),
            payload: Payload::Zero(len),
        }
    }

    #[test]
    fn append_accumulates_and_drain_clears() {
        let mut log = ChunkLog::new();
        assert!(log.is_empty());
        let c1 = log.try_append(rec(1, 1000)).expect("append");
        let c2 = log.try_append(rec(2, 2000)).expect("append");
        assert!(c1 > 0.0 && c2 > c1);
        assert_eq!(log.len(), 2);
        assert_eq!(log.bytes(), 25 + 1000 + 25 + 2000);
        let t = log.try_drain_striped(1).expect("drain");
        assert_eq!(t.value.len(), 2);
        assert!(t.cost > 0.0);
        assert!(log.is_empty());
        assert_eq!(log.bytes(), 0);
    }

    #[test]
    fn drain_preserves_append_order() {
        let mut log = ChunkLog::new();
        for i in 0..10u64 {
            log.try_append(rec(i, 100)).expect("append");
        }
        let recs = log.try_drain_striped(1).expect("drain").value;
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(r.fp, Fingerprint::of_counter(i as u64));
        }
    }

    #[test]
    fn sequential_rates_used() {
        let mut log = ChunkLog::new();
        log.try_append(rec(1, 1 << 20)).expect("append");
        let stats = log.disk_stats();
        assert_eq!(stats.rand_writes, 0, "log writes must be sequential");
        assert!(stats.seq_write_bytes > 1 << 20);
    }

    #[test]
    fn append_fault_is_typed_and_record_not_logged() {
        use debar_simio::FaultKind;
        let mut log = ChunkLog::new();
        log.try_append(rec(1, 100)).expect("clean append");
        log.set_fault_plan(FaultPlan::fail_at(log.disk_ops()));
        let err = log.try_append(rec(2, 200)).expect_err("armed fault fires");
        let DebarError::DiskFault { fault } = err else {
            panic!("expected DiskFault, got {err:?}");
        };
        assert_eq!(fault.kind, FaultKind::Fail);
        assert_eq!(log.len(), 1, "failed append persists nothing");
        assert_eq!(log.bytes(), 125);
        // Retry succeeds and the drained sequence is exactly the durable
        // appends.
        log.try_append(rec(2, 200)).expect("retry");
        let recs = log.try_drain_striped(1).expect("drain").value;
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].fp, Fingerprint::of_counter(2));
    }

    #[test]
    fn torn_and_bitflip_append_faults_also_surface_immediately() {
        // Log appends are synchronous: silent-at-write-time kinds are
        // still detected at the faulted op (no checksummed re-read to
        // defer to).
        for plan in [FaultPlan::torn_write_at(0), FaultPlan::bit_flip_at(0)] {
            let mut log = ChunkLog::new();
            log.set_fault_plan(plan);
            let err = log.try_append(rec(7, 50)).expect_err("fault fires");
            assert!(matches!(err, DebarError::DiskFault { .. }), "{err}");
            assert!(log.is_empty());
        }
    }

    #[test]
    fn drain_fault_keeps_records_for_identical_replay() {
        let mut log = ChunkLog::new();
        for i in 0..5u64 {
            log.try_append(rec(i, 100)).expect("append");
        }
        log.set_fault_plan(FaultPlan::fail_at(log.disk_ops()));
        let err = log.try_drain_striped(1).expect_err("drain fault");
        assert!(matches!(err, DebarError::DiskFault { .. }), "{err}");
        assert_eq!(log.len(), 5, "read pointer never advanced");
        assert_eq!(log.bytes(), 5 * 125);
        let recs = log.try_drain_striped(1).expect("retry drains").value;
        assert_eq!(recs.len(), 5);
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(r.fp, Fingerprint::of_counter(i as u64), "order kept");
        }
        assert!(log.is_empty());
    }

    #[test]
    fn striped_drain_divides_time_and_keeps_record_sequence() {
        let build = || {
            let mut log = ChunkLog::new();
            for i in 0..16u64 {
                log.try_append(rec(i, 1000)).expect("append");
            }
            log
        };
        let mut scalar = build();
        let t1 = scalar.try_drain_striped(1).expect("drain");
        for workers in [2usize, 4, 8] {
            let mut striped = build();
            let tw = striped.try_drain_striped(workers).expect("striped drain");
            assert_eq!(
                tw.cost,
                t1.cost / workers as f64,
                "even-split drain must cost exactly 1/{workers}"
            );
            // The record sequence is byte-identical at any worker count.
            assert_eq!(tw.value.len(), t1.value.len());
            for (a, b) in tw.value.iter().zip(&t1.value) {
                assert_eq!(a.fp, b.fp);
                assert_eq!(a.payload, b.payload);
            }
        }
    }

    #[test]
    fn single_worker_drain_fault_keeps_records_for_identical_replay() {
        let mut log = ChunkLog::new();
        for i in 0..6u64 {
            log.try_append(rec(i, 100)).expect("append");
        }
        // Arm exactly one worker disk of a 3-way drain stripe.
        log.set_worker_fault_plan(1, FaultPlan::fail_at(log.worker_disk_ops(1)));
        let err = log.try_drain_striped(3).expect_err("worker fault fires");
        assert!(
            matches!(err, DebarError::LogWorkerFault { worker: 1, .. }),
            "typed error must name the failing worker: {err}"
        );
        assert!(err.to_string().contains("worker disk 1"), "{err}");
        assert_eq!(log.len(), 6, "read pointer never advanced");
        assert_eq!(log.bytes(), 6 * 125);
        let recs = log.try_drain_striped(3).expect("retry drains").value;
        assert_eq!(recs.len(), 6);
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(r.fp, Fingerprint::of_counter(i as u64), "order kept");
        }
        assert!(log.is_empty());
    }
}
