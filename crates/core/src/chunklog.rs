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
//! (`debar_index::DiskIndex`): the log's only device bank is a
//! `debar_simio::PartDiskSet` of **worker disks**, each reads its own
//! byte share, and the drain completes at the max over per-worker
//! completion times — exactly `1/W` for the even split. The record
//! *sequence* is unaffected: workers stripe the bytes, the merge
//! preserves append order, so chunk storing stays byte-identical at any
//! worker count. **Worker disk 0 is the volume**: appends (the stripe's
//! aggregate write path) are charged to it, so at one store worker the
//! bank is the paper's single log disk.
//!
//! # Fault model
//!
//! Every worker disk carries an armable [`debar_simio::FaultPlan`] like
//! every other simulated device, and the log's only I/O entry points
//! ([`ChunkLog::try_append`], [`ChunkLog::try_drain_striped`]) are
//! fault-checked: they surface injected faults as
//! [`DebarError::DeviceFault`] naming the [`Device::LogWorker`] that
//! faulted — extending the typed failure story to de-duplication phase
//! I. Log appends are synchronous (the backup run stalls on them), so
//! *every* fault kind — outright failure, torn write, bit flip — is
//! detected at the faulted operation itself: a failed append persists
//! nothing and the record is **not** logged; a failed drain leaves every
//! record in place for the retry.

use crate::dataset::StreamChunk;
use crate::error::DebarError;
use crate::ids::{Device, ServerId};
use debar_hash::Fingerprint;
use debar_simio::{FaultPlan, InjectedFault, PartDiskSet, Secs, Timed};
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

/// A sequential chunk log on its own disks, drainable as a stripe across
/// per-worker disks (see the module docs).
#[derive(Debug)]
pub struct ChunkLog {
    /// The owning backup server (names this log's devices in errors).
    server: ServerId,
    /// The log's only devices: one disk per store worker, sized by
    /// [`ChunkLog::try_drain_striped`]; worker 0 doubles as the volume
    /// appends are charged to.
    worker_disks: PartDiskSet,
    records: Vec<LogRecord>,
    bytes: u64,
}

impl ChunkLog {
    /// Create `server`'s empty log with the paper's log-disk model.
    pub fn new(server: ServerId) -> Self {
        ChunkLog {
            server,
            worker_disks: PartDiskSet::new(debar_simio::models::paper::log_disk()),
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

    /// Arm a deterministic fault schedule on **one worker disk**
    /// (materializing it if no striped drain has engaged it yet; replaces
    /// any previous plan). A fault on worker `w > 0` fires only when a
    /// striped drain charges that worker's share, modelling the loss of a
    /// single store worker's spindle set mid-pipeline; worker 0 also
    /// carries every append. The stripe resizes to the drain's worker
    /// count, so a plan armed on a worker the next drain does not engage
    /// is dropped by the resize — [`crate::DebarCluster::arm`] validates
    /// against the configured count.
    pub fn set_worker_fault_plan(&mut self, worker: usize, plan: FaultPlan) {
        self.worker_disks.set_fault_plan(worker, plan);
    }

    /// Disarm all worker-disk faults (armed and fired-but-uncollected).
    pub fn clear_fault_plan(&mut self) {
        self.worker_disks.clear_fault_plans();
    }

    /// One worker disk's operation counter, for arming `FaultPlan`s
    /// relative to "the next op" (every drain that engages the worker is
    /// one op on its disk; on worker 0 every append is one too).
    pub fn worker_disk_ops(&self, worker: usize) -> u64 {
        self.worker_disks.ops(worker)
    }

    fn fault(&self, worker: u32, fault: InjectedFault) -> DebarError {
        DebarError::DeviceFault {
            device: Device::LogWorker {
                server: self.server,
                worker,
            },
            fault,
        }
    }

    /// Append one record (sequential write on worker disk 0); returns the
    /// cost. An injected fault on the append op surfaces as
    /// [`DebarError::DeviceFault`] and the record is
    /// **not** logged (a failed synchronous append persists nothing) —
    /// the caller aborts its backup run and may retry it whole.
    pub fn try_append(&mut self, rec: LogRecord) -> Result<Secs, DebarError> {
        let b = rec.record_bytes();
        let cost = self
            .worker_disks
            .volume_mut()
            .checked_op(|d| d.seq_write(b))
            .map_err(|fault| self.fault(0, fault))?;
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
    /// Each worker disk is charged its share (one op per engaged worker).
    /// A fault on any single worker disk surfaces as
    /// [`DebarError::DeviceFault`] naming it (lowest worker first; a
    /// sibling armed in the same window surfaces at the next drain) with
    /// **every record left in the log** — the read pointer never
    /// advanced, so the resumed round's drain replays the identical
    /// sequence.
    pub fn try_drain_striped(
        &mut self,
        workers: usize,
    ) -> Result<Timed<Vec<LogRecord>>, DebarError> {
        let w = workers.max(1);
        let b = self.bytes;
        let shares: Vec<u64> = (0..w as u64)
            .map(|i| b * (i + 1) / w as u64 - b * i / w as u64)
            .collect();
        let cost = self.worker_disks.seq_read_split(&shares);
        if let Some((worker, fault)) = self.worker_disks.take_fault() {
            // The faulted worker's share never merged: the whole drain
            // aborts with the read pointer unadvanced.
            return Err(self.fault(worker, fault));
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

    /// Disk statistics, merged over the worker disks (`busy_s` in
    /// device-seconds).
    pub fn disk_stats(&self) -> debar_simio::DiskStats {
        self.worker_disks.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The test log belongs to server 3.
    const WORKER_0: Device = Device::LogWorker {
        server: 3,
        worker: 0,
    };

    fn rec(n: u64, len: u32) -> LogRecord {
        LogRecord {
            fp: Fingerprint::of_counter(n),
            payload: Payload::Zero(len),
        }
    }

    #[test]
    fn append_accumulates_and_drain_clears() {
        let mut log = ChunkLog::new(3);
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
        let mut log = ChunkLog::new(3);
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
        let mut log = ChunkLog::new(3);
        log.try_append(rec(1, 1 << 20)).expect("append");
        let stats = log.disk_stats();
        assert_eq!(stats.rand_writes, 0, "log writes must be sequential");
        assert!(stats.seq_write_bytes > 1 << 20);
    }

    #[test]
    fn append_fault_is_typed_and_record_not_logged() {
        use debar_simio::FaultKind;
        let mut log = ChunkLog::new(3);
        log.try_append(rec(1, 100)).expect("clean append");
        log.set_worker_fault_plan(0, FaultPlan::fail_at(log.worker_disk_ops(0)));
        let err = log.try_append(rec(2, 200)).expect_err("armed fault fires");
        let DebarError::DeviceFault {
            device: WORKER_0,
            fault,
        } = err
        else {
            panic!("expected DeviceFault on worker 0, got {err:?}");
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
            let mut log = ChunkLog::new(3);
            log.set_worker_fault_plan(0, plan);
            let err = log.try_append(rec(7, 50)).expect_err("fault fires");
            assert!(
                matches!(
                    err,
                    DebarError::DeviceFault {
                        device: WORKER_0,
                        ..
                    }
                ),
                "{err}"
            );
            assert!(log.is_empty());
        }
    }

    #[test]
    fn drain_fault_keeps_records_for_identical_replay() {
        let mut log = ChunkLog::new(3);
        for i in 0..5u64 {
            log.try_append(rec(i, 100)).expect("append");
        }
        log.set_worker_fault_plan(0, FaultPlan::fail_at(log.worker_disk_ops(0)));
        let err = log.try_drain_striped(1).expect_err("drain fault");
        assert!(
            matches!(
                err,
                DebarError::DeviceFault {
                    device: WORKER_0,
                    ..
                }
            ),
            "{err}"
        );
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
            let mut log = ChunkLog::new(3);
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
        let mut log = ChunkLog::new(3);
        for i in 0..6u64 {
            log.try_append(rec(i, 100)).expect("append");
        }
        // Arm exactly one worker disk of a 3-way drain stripe.
        log.set_worker_fault_plan(1, FaultPlan::fail_at(log.worker_disk_ops(1)));
        let err = log.try_drain_striped(3).expect_err("worker fault fires");
        assert!(
            matches!(
                err,
                DebarError::DeviceFault {
                    device: Device::LogWorker {
                        server: 3,
                        worker: 1
                    },
                    ..
                }
            ),
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
