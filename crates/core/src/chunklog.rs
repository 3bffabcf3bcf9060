//! The on-disk chunk log (paper §5.1).
//!
//! In de-duplication phase I, chunks that survive the preliminary filter
//! are "temporarily appended to a local on-disk chunk log" as
//! `<F, D(F)>` groups; phase II drains it for chunk storing (§5.3).
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
//! # What a drain reads
//!
//! By the time chunk storing drains the log, PSIL has decided every record
//! in it. So the drain reads only the records the pass will pack — a
//! `Store` verdict on the first occurrence of its fingerprint, the mask
//! [`ChunkLog::try_drain_striped`] takes — and seeks over the rest, with
//! the gap law ranged container reads use (`debar_store::wanted_extents`):
//! a run of unwanted records is read through iff streaming it costs no
//! more than the seek that skipping it costs. A record's offset is its
//! place in the log's record table: the `record_bytes` of every record
//! ahead of it in the log's current order (records a crash rollback
//! re-queued sit at the front, where the read pointer stopped). The drain
//! is still one forward pass per worker disk, charged as one op by
//! `debar_simio::SimDisk::seq_read_extents`.
//!
//! The paper's "its sustained read rate (224 MB/s) bounds chunk storing"
//! is the case where every record is wanted — an inline-mode log, a first
//! backup, a log with no duplicate in it: that drain costs the whole-log
//! sequential read, to the bit. Skipping moves disk time only. Every
//! record still comes back in append order, the pack processes and counts
//! each one (`StoreReport::log_bytes`), and a crash rollback re-queues
//! them all.
//!
//! # Striped drains (`store_workers`)
//!
//! The pipelined chunk-storing phase can drain the log with several store
//! workers, each reading its own contiguous share of the log stripe from
//! its own spindle set. The model mirrors the striped index volume
//! (`debar_index::DiskIndex`): the log's only device bank is a
//! `debar_simio::PartDiskSet` of **worker disks**, each reads the wanted
//! extents inside its own even byte share (a record straddling two shares
//! is read in part by each), and the drain completes at the max over
//! per-worker completion times — exactly `1/W` for an all-wanted log. The
//! record *sequence* is unaffected: workers stripe the bytes, the merge
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
use debar_store::{wanted_extents, ChunkMeta, Payload};

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

    /// The record table: every logged record, in log order.
    pub(crate) fn records(&self) -> &[LogRecord] {
        &self.records
    }

    /// Drain the log (the phase-II replay) striped across `workers` store
    /// workers, reading only what the pass keeps: `wanted[i]` says whether
    /// the pass packs the log's `i`-th record in log order (a record past
    /// the mask's end is not wanted). Each worker disk reads the wanted
    /// extents inside its own even byte share of the log concurrently, and
    /// the drain completes at the slowest worker. With every record wanted
    /// that is one large sequential read at `workers = 1` and exactly
    /// `1/W` of it striped. The returned record sequence is the whole log,
    /// wanted or not, byte-identical at any worker count.
    ///
    /// Each engaged worker disk is charged one op, even with nothing of
    /// its share wanted. A fault on any single worker disk surfaces as
    /// [`DebarError::DeviceFault`] naming it (lowest worker first; a
    /// sibling armed in the same window surfaces at the next drain) with
    /// **every record left in the log** — the read pointer never
    /// advanced, so the resumed round's drain replays the identical
    /// sequence.
    pub fn try_drain_striped(
        &mut self,
        workers: usize,
        wanted: &[bool],
    ) -> Result<Timed<Vec<LogRecord>>, DebarError> {
        let extents = self.worker_extents(workers.max(1), wanted);
        let cost = self.worker_disks.seq_read_extents_split(&extents);
        if let Some((worker, fault)) = self.worker_disks.take_fault() {
            // The faulted worker's share never merged: the whole drain
            // aborts with the read pointer unadvanced.
            return Err(self.fault(worker, fault));
        }
        self.bytes = 0;
        Ok(Timed::new(std::mem::take(&mut self.records), cost))
    }

    /// What each of `workers` worker disks reads: the extents of the
    /// wanted records inside its byte share `[b·i/W, b·(i+1)/W)` of the
    /// log, a record straddling a share boundary split between the two.
    fn worker_extents(&self, workers: usize, wanted: &[bool]) -> Vec<Vec<u64>> {
        let (b, w) = (self.bytes, workers as u64);
        let share_end = |i: u64| b * (i + 1) / w;
        let mut shares: Vec<Vec<ChunkMeta>> = vec![Vec::new(); workers];
        let (mut offset, mut share) = (0u64, 0u64);
        for (rec, &keep) in self.records.iter().zip(wanted) {
            let end = offset + rec.record_bytes();
            let mut at = offset;
            while keep && at < end {
                while share_end(share) <= at {
                    share += 1;
                }
                let upto = end.min(share_end(share));
                shares[share as usize].push(ChunkMeta {
                    fp: rec.fp,
                    len: (upto - at) as u32,
                    offset: at,
                });
                at = upto;
            }
            offset = end;
        }
        // Only wanted pieces are listed, at their offsets in the log: the
        // gaps between them are the unwanted runs the gap law weighs.
        let model = self.worker_disks.model();
        shares
            .iter()
            .map(|metas| wanted_extents(metas, |_| true, &model))
            .collect()
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

    /// The mask of a drain that keeps every record: the paper's drain.
    fn all(log: &ChunkLog) -> Vec<bool> {
        vec![true; log.len()]
    }

    /// A log holding one record of `bytes` on-disk bytes per entry.
    fn log_of(bytes: &[u64]) -> ChunkLog {
        let mut log = ChunkLog::new(3);
        for (n, &b) in bytes.iter().enumerate() {
            let len = b.checked_sub(25).expect("a record is at least its header");
            log.try_append(rec(n as u64, len as u32)).expect("append");
        }
        log
    }

    /// Per worker disk: (ops, bytes read, busy seconds).
    fn worker_reads(log: &ChunkLog) -> Vec<(u64, u64, Secs)> {
        (0..log.worker_disks.parts())
            .map(|w| {
                let s = log.worker_disks.part_stats(w).expect("materialized");
                (log.worker_disk_ops(w), s.seq_read_bytes, s.busy_s)
            })
            .collect()
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
        let t = log.try_drain_striped(1, &all(&log)).expect("drain");
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
        let recs = log.try_drain_striped(1, &all(&log)).expect("drain").value;
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
        let recs = log.try_drain_striped(1, &all(&log)).expect("drain").value;
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
        let err = log
            .try_drain_striped(1, &all(&log))
            .expect_err("drain fault");
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
        let recs = log
            .try_drain_striped(1, &all(&log))
            .expect("retry drains")
            .value;
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
        let t1 = scalar.try_drain_striped(1, &all(&scalar)).expect("drain");
        for workers in [2usize, 4, 8] {
            let mut striped = build();
            let tw = striped
                .try_drain_striped(workers, &all(&striped))
                .expect("striped drain");
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
        let err = log
            .try_drain_striped(3, &all(&log))
            .expect_err("worker fault fires");
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
        let recs = log
            .try_drain_striped(3, &all(&log))
            .expect("retry drains")
            .value;
        assert_eq!(recs.len(), 6);
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(r.fp, Fingerprint::of_counter(i as u64), "order kept");
        }
        assert!(log.is_empty());
    }

    #[test]
    fn an_all_wanted_drain_costs_the_whole_log_read_to_the_bit() {
        // The paper's drain: with every record wanted it is one sequential
        // read of the log at W = 1 and, striped, each worker's even share
        // of it — what the drain charged before it could skip, bit for bit
        // (records straddling share boundaries included).
        let sizes: Vec<u64> = (0..37).map(|i| 1028 + 976 * (i % 7)).collect();
        let bytes: u64 = sizes.iter().sum();
        assert_eq!(bytes % 4, 0, "W = 2 and 4 split the log evenly");
        let model = debar_simio::models::paper::log_disk();
        for w in 1..=5usize {
            let mut log = log_of(&sizes);
            let cost = log.try_drain_striped(w, &all(&log)).expect("drain").cost;
            let shares: Vec<u64> = (0..w as u64)
                .map(|i| bytes * (i + 1) / w as u64 - bytes * i / w as u64)
                .collect();
            assert_eq!(
                cost,
                PartDiskSet::new(model).seq_read_split(&shares),
                "W = {w}"
            );
            let reads = worker_reads(&log);
            let read: Vec<u64> = reads.iter().map(|r| r.1).collect();
            assert_eq!(read, shares, "W = {w}: each worker reads its share");
            if w.is_power_of_two() {
                assert_eq!(cost, model.seq_read_cost(bytes) / w as f64, "W = {w}");
            }
        }
        let mut log = log_of(&sizes);
        let cost = log.try_drain_striped(1, &all(&log)).expect("drain").cost;
        assert_eq!(cost, debar_simio::SimDisk::new(model).seq_read(bytes));
    }

    #[test]
    fn a_duplicate_run_is_read_through_or_skipped_at_one_seek_as_the_gap_law_says() {
        // Two wanted records around a run of duplicates `gap` bytes long
        // are one extent iff streaming the run costs no more than the seek
        // skipping it costs (`wanted_extents`' law, on the log disk); a
        // skip is one positioning more in the same op.
        let model = debar_simio::models::paper::log_disk();
        let seek = model.rand_read_cost(0);
        let edge = (seek * model.read_bw) as u64;
        let (a, b) = (8192 + 25, 4096 + 25);
        for gap in [edge - 1, edge, edge + 1] {
            let mut log = log_of(&[a, gap / 2, gap - gap / 2, b]);
            let mask = [true, false, false, true];
            let cost = log.try_drain_striped(1, &mask).expect("drain").cost;
            let through = model.seq_read_cost(gap) <= seek;
            assert_eq!(through, gap <= edge, "the law is a byte count: {edge}");
            let (read, want) = if through {
                (a + gap + b, model.seq_read_cost(a + gap + b))
            } else {
                (a + b, model.seq_read_cost(a + b) + seek)
            };
            assert_eq!(cost, want, "gap {gap}");
            assert_eq!(worker_reads(&log)[0].1, read, "gap {gap}");
            assert_eq!(log.worker_disk_ops(0), 5, "four appends and one drain");
        }
    }

    #[test]
    fn a_drain_with_nothing_wanted_is_one_op_per_worker_reading_nothing() {
        for w in 1..=4usize {
            for mask in [Vec::new(), vec![false; 9]] {
                let mut log = log_of(&[5000; 9]);
                let before: Vec<u64> = (0..w).map(|i| log.worker_disk_ops(i)).collect();
                let t = log.try_drain_striped(w, &mask).expect("drain");
                assert_eq!(t.cost, 0.0, "W = {w}");
                assert_eq!(t.value.len(), 9, "every record comes back");
                assert!(log.is_empty() && log.bytes() == 0);
                let reads = worker_reads(&log);
                assert_eq!(reads.len(), w, "every worker is engaged");
                for (i, &(ops, read, _)) in reads.iter().enumerate() {
                    assert_eq!((ops, read), (before[i] + 1, 0), "W = {w}, worker {i}");
                }
            }
        }
    }

    #[test]
    fn a_drain_fault_fires_on_the_same_op_whatever_the_drain_reads() {
        // A drain is one op on each engaged worker whatever its mask, so a
        // plan armed at a worker's `ops + 0` fires on that op — the one it
        // fired on when every drain read the whole log — and leaves every
        // record in place for the replay.
        let sizes = [300_000u64, 600_000, 600_000, 9_000, 700_000, 25];
        let bytes: u64 = sizes.iter().sum();
        let some = [true, false, false, true, false, true];
        for w in 1..=3usize {
            for mask in [&[true; 6][..], &[], &some] {
                for worker in 0..w {
                    let mut log = log_of(&sizes);
                    let armed = log.worker_disk_ops(worker);
                    log.set_worker_fault_plan(worker, FaultPlan::fail_at(armed));
                    let err = log.try_drain_striped(w, mask).expect_err("armed op faults");
                    let DebarError::DeviceFault {
                        device: Device::LogWorker { worker: named, .. },
                        fault,
                    } = err
                    else {
                        panic!("expected a log-worker fault, got {err:?}");
                    };
                    assert_eq!((named as usize, fault.op), (worker, armed));
                    assert_eq!((log.len(), log.bytes()), (6, bytes), "nothing drained");
                    let recs = log.try_drain_striped(w, mask).expect("replay").value;
                    for (i, r) in recs.iter().enumerate() {
                        assert_eq!(r.fp, Fingerprint::of_counter(i as u64), "order kept");
                    }
                    assert_eq!(log.worker_disk_ops(worker), armed + 2);
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn prop_a_ranged_drain_returns_every_record_and_never_costs_more(
            log in proptest::collection::vec((25u64..200_000, 0u8..4), 0..120),
            w in 1usize..5,
        ) {
            // A quarter of the records wanted, so duplicate runs both
            // shorter and longer than the gap law's edge occur.
            let sizes: Vec<u64> = log.iter().map(|&(b, _)| b).collect();
            let wanted: Vec<bool> = log.iter().map(|&(_, v)| v == 0).collect();
            let (mut ranged, mut whole) = (log_of(&sizes), log_of(&sizes));
            let r = ranged.try_drain_striped(w, &wanted).expect("drain");
            let t = whole.try_drain_striped(w, &all(&whole)).expect("drain");
            proptest::prop_assert_eq!(r.value.len(), sizes.len());
            for (i, (a, b)) in r.value.iter().zip(&t.value).enumerate() {
                proptest::prop_assert_eq!(a.fp, Fingerprint::of_counter(i as u64));
                proptest::prop_assert_eq!(&a.payload, &b.payload);
            }
            proptest::prop_assert!(r.cost <= t.cost);
            // Worker by worker: never dearer than reading its whole share,
            // and exactly as dear iff it skipped nothing of it.
            let wanted_bytes: u64 = (sizes.iter().zip(&wanted))
                .filter(|(_, &keep)| keep)
                .map(|(b, _)| b)
                .sum();
            let mut read = 0;
            for (got, share) in worker_reads(&ranged).iter().zip(worker_reads(&whole)) {
                proptest::prop_assert_eq!(got.0, share.0);
                proptest::prop_assert!(got.2 <= share.2);
                proptest::prop_assert_eq!(got.2 == share.2, got.1 == share.1);
                read += got.1;
            }
            proptest::prop_assert!(read >= wanted_bytes, "every wanted byte is read");
        }
    }
}
