//! Disk timing model.
//!
//! Two regimes matter for de-duplication (paper §1, §5.2): *random small*
//! I/Os (dominated by positioning time — this is the fingerprint-lookup
//! bottleneck of Venti-style systems) and *large sequential* I/Os (dominated
//! by transfer bandwidth — what SIL/SIU exploit). The model charges
//! `seek + bytes/bandwidth` for random operations and `bytes/bandwidth` for
//! sequential ones; "the time overhead of a random small disk I/O stems
//! mainly from the disk seek rather than data transfer" (§4.2).

use crate::clock::Secs;
use crate::fault::{FaultPlan, FaultSpec, InjectedFault};
use serde::{Deserialize, Serialize};

/// Timing parameters of a disk (or RAID volume).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DiskModel {
    /// Average positioning time for a random access (seek + rotation),
    /// in seconds.
    pub seek_s: Secs,
    /// Sequential read bandwidth, bytes/second.
    pub read_bw: f64,
    /// Sequential write bandwidth, bytes/second.
    pub write_bw: f64,
}

impl DiskModel {
    /// Cost of a sequential read of `bytes`.
    #[inline]
    pub fn seq_read_cost(&self, bytes: u64) -> Secs {
        bytes as f64 / self.read_bw
    }

    /// Cost of a sequential write of `bytes`.
    #[inline]
    pub fn seq_write_cost(&self, bytes: u64) -> Secs {
        bytes as f64 / self.write_bw
    }

    /// Cost of a random read of `bytes` (one positioning + transfer).
    #[inline]
    pub fn rand_read_cost(&self, bytes: u64) -> Secs {
        self.seek_s + self.seq_read_cost(bytes)
    }

    /// Cost of a random write of `bytes` (one positioning + transfer).
    #[inline]
    pub fn rand_write_cost(&self, bytes: u64) -> Secs {
        self.seek_s + self.seq_write_cost(bytes)
    }
}

/// Cumulative I/O statistics for one simulated disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DiskStats {
    /// Bytes moved by sequential reads.
    pub seq_read_bytes: u64,
    /// Bytes moved by sequential writes.
    pub seq_write_bytes: u64,
    /// Number of random read operations.
    pub rand_reads: u64,
    /// Number of random write operations.
    pub rand_writes: u64,
    /// Bytes moved by random reads.
    pub rand_read_bytes: u64,
    /// Bytes moved by random writes.
    pub rand_write_bytes: u64,
    /// Total virtual time this disk was busy.
    pub busy_s: Secs,
}

impl DiskStats {
    /// Fold another disk's statistics into this one.
    pub fn merge(&mut self, other: &DiskStats) {
        self.seq_read_bytes += other.seq_read_bytes;
        self.seq_write_bytes += other.seq_write_bytes;
        self.rand_reads += other.rand_reads;
        self.rand_writes += other.rand_writes;
        self.rand_read_bytes += other.rand_read_bytes;
        self.rand_write_bytes += other.rand_write_bytes;
        self.busy_s += other.busy_s;
    }

    /// Bytes read, sequentially or at random.
    pub fn read_bytes(&self) -> u64 {
        self.seq_read_bytes + self.rand_read_bytes
    }

    /// Total bytes moved in either direction.
    pub fn total_bytes(&self) -> u64 {
        self.seq_read_bytes + self.seq_write_bytes + self.rand_read_bytes + self.rand_write_bytes
    }
}

/// A simulated disk: a [`DiskModel`] plus cumulative [`DiskStats`].
///
/// Methods return the operation's virtual cost; the caller charges it to its
/// clock. The disk itself holds no payload bytes — backing storage lives in
/// the data structures that use the disk (disk index, chunk log, container
/// store), keeping the timing model orthogonal to content.
#[derive(Debug, Clone)]
pub struct SimDisk {
    model: DiskModel,
    stats: DiskStats,
    /// Operations performed so far (every read/write, any flavour, counts
    /// as one op — the index the [`FaultPlan`] keys on).
    ops: u64,
    plan: FaultPlan,
    /// A fired fault not yet collected by the storage layer (see the
    /// [`crate::fault`] module docs for the "next checked boundary" rule).
    pending: Option<InjectedFault>,
}

impl SimDisk {
    /// Create a disk with the given model.
    pub fn new(model: DiskModel) -> Self {
        SimDisk {
            model,
            stats: DiskStats::default(),
            ops: 0,
            plan: FaultPlan::none(),
            pending: None,
        }
    }

    /// Arm a deterministic fault schedule (replaces any previous plan).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.plan = plan;
    }

    /// Disarm all pending faults (armed and fired-but-uncollected).
    pub fn clear_fault_plan(&mut self) {
        self.plan = FaultPlan::none();
        self.pending = None;
    }

    /// Whether any fault is still armed (not yet fired).
    pub fn has_armed_faults(&self) -> bool {
        !self.plan.is_empty()
    }

    /// Operations performed so far — the op index the next operation gets.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Collect a fired-but-uncollected fault, if any.
    pub fn take_fault(&mut self) -> Option<InjectedFault> {
        self.pending.take()
    }

    /// The first armed fault within the next `next_ops` operations, if any
    /// (without consuming it). Lets fault-aware layers plan a partial
    /// operation before charging the op that will fire the fault.
    pub fn peek_fault(&self, next_ops: u64) -> Option<FaultSpec> {
        self.plan.next_within(self.ops, self.ops + next_ops)
    }

    /// Advance the op counter by one and fire any armed fault for this op.
    fn tick(&mut self) {
        let op = self.ops;
        self.ops += 1;
        if let Some(kind) = self.plan.take(op) {
            self.pending = Some(InjectedFault { op, kind });
        }
    }

    /// The timing model.
    pub fn model(&self) -> DiskModel {
        self.model
    }

    /// Statistics so far.
    pub fn stats(&self) -> DiskStats {
        self.stats
    }

    /// Charge `secs` of busy time without performing an I/O operation —
    /// the retry-backoff wait a [`crate::RetryPolicy`] bills to the disk
    /// that failed. Not an op: the counter does not tick and no armed
    /// fault can fire (a re-armed transient stays aimed at the retried
    /// I/O itself). Returns the charged time for clock accrual.
    pub fn stall(&mut self, secs: Secs) -> Secs {
        let secs = secs.max(0.0);
        self.stats.busy_s += secs;
        secs
    }

    /// Reset statistics (model unchanged).
    pub fn reset_stats(&mut self) {
        self.stats = DiskStats::default();
    }

    /// Perform a sequential read of `bytes`; returns the cost.
    pub fn seq_read(&mut self, bytes: u64) -> Secs {
        self.seq_read_extents(&[bytes])
    }

    /// Perform a sequential write of `bytes`; returns the cost.
    pub fn seq_write(&mut self, bytes: u64) -> Secs {
        self.tick();
        let c = self.model.seq_write_cost(bytes);
        self.stats.seq_write_bytes += bytes;
        self.stats.busy_s += c;
        c
    }

    /// Perform a random read of `bytes`; returns the cost.
    pub fn rand_read(&mut self, bytes: u64) -> Secs {
        self.rand_read_extents([bytes])
    }

    /// Perform **one** operation made of several random reads — the
    /// extents of a ranged read. The op counter ticks once (a
    /// [`FaultPlan`] sees one op, whatever the extent count), every extent
    /// pays its own positioning and is counted as its own random read in
    /// the statistics, and the cost is their sum.
    pub fn rand_read_extents(&mut self, extents: impl IntoIterator<Item = u64>) -> Secs {
        self.tick();
        let mut cost = 0.0;
        for bytes in extents {
            let c = self.model.rand_read_cost(bytes);
            self.stats.rand_reads += 1;
            self.stats.rand_read_bytes += bytes;
            self.stats.busy_s += c;
            cost += c;
        }
        cost
    }

    /// Perform **one** forward pass that reads `extents` in order and
    /// seeks over the gaps between them — a sequential reader skipping
    /// what it does not need. The op counter ticks once, the bytes are
    /// sequential reads, and the cost is `seq_read_cost(Σ extents)` plus
    /// one positioning per extent after the first: one extent is
    /// [`SimDisk::seq_read`] to the bit, and none reads nothing in one op.
    pub fn seq_read_extents(&mut self, extents: &[u64]) -> Secs {
        self.tick();
        let bytes = extents.iter().sum();
        let seeks = extents.len().saturating_sub(1) as f64;
        let c = self.model.seq_read_cost(bytes) + seeks * self.model.seek_s;
        self.stats.seq_read_bytes += bytes;
        self.stats.busy_s += c;
        c
    }

    /// Run one **fault-checked** operation: collect a pending fault first
    /// (the "next checked boundary" rule — the charge does NOT run then),
    /// otherwise charge the op via `charge`; if an armed fault fires on
    /// it, consume and return it as the error — the op's time was still
    /// charged (the device was busy failing), but the caller must treat
    /// the operation as having had no effect. This is the one place the
    /// collect→charge→consume protocol lives; storage layers build their
    /// typed errors on top of it.
    pub fn checked_op(
        &mut self,
        charge: impl FnOnce(&mut SimDisk) -> Secs,
    ) -> Result<Secs, InjectedFault> {
        if let Some(fault) = self.take_fault() {
            return Err(fault);
        }
        let cost = charge(self);
        match self.take_fault() {
            Some(fault) => Err(fault),
            None => Ok(cost),
        }
    }

    /// Perform a random write of `bytes`; returns the cost.
    pub fn rand_write(&mut self, bytes: u64) -> Secs {
        self.tick();
        let c = self.model.rand_write_cost(bytes);
        self.stats.rand_writes += 1;
        self.stats.rand_write_bytes += bytes;
        self.stats.busy_s += c;
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> SimDisk {
        SimDisk::new(DiskModel {
            seek_s: 0.002,
            read_bw: 100e6,
            write_bw: 50e6,
        })
    }

    #[test]
    fn sequential_costs_scale_with_bytes() {
        let mut d = disk();
        assert_eq!(d.seq_read(100_000_000), 1.0);
        assert_eq!(d.seq_write(50_000_000), 1.0);
        assert_eq!(d.stats().seq_read_bytes, 100_000_000);
        assert_eq!(d.stats().seq_write_bytes, 50_000_000);
        assert_eq!(d.stats().busy_s, 2.0);
    }

    #[test]
    fn random_costs_include_seek() {
        let mut d = disk();
        let c = d.rand_read(512);
        assert!((c - (0.002 + 512.0 / 100e6)).abs() < 1e-12);
        assert_eq!(d.stats().rand_reads, 1);
    }

    #[test]
    fn a_ranged_read_is_one_op_of_many_seeks() {
        let (mut ranged, mut apart) = (disk(), disk());
        let cost = ranged.rand_read_extents([512, 4096, 100]);
        let sum: Secs = [512, 4096, 100].map(|b| apart.rand_read(b)).iter().sum();
        assert!((cost - sum).abs() < 1e-15);
        // Every extent is a random read in the statistics; the fault plan
        // sees one operation.
        assert_eq!(ranged.stats().rand_reads, 3);
        assert_eq!(ranged.stats().rand_read_bytes, 512 + 4096 + 100);
        assert_eq!((ranged.ops(), apart.ops()), (1, 3));
        // One extent is `rand_read`, to the bit.
        assert_eq!(disk().rand_read_extents([8192]), disk().rand_read(8192));
    }

    #[test]
    fn a_skipping_pass_is_one_op_paying_a_seek_per_extra_extent() {
        let mut d = disk();
        let cost = d.seq_read_extents(&[1000, 300_000, 0, 42]);
        let m = d.model();
        assert_eq!(cost, m.seq_read_cost(301_042) + 3.0 * m.seek_s);
        assert_eq!(d.ops(), 1);
        assert_eq!(d.stats().seq_read_bytes, 301_042);
        assert_eq!((d.stats().rand_reads, d.stats().busy_s), (0, cost));
        // One extent is `seq_read` to the bit; none is one op of nothing.
        for bytes in [0, 1, 8192, 1 << 33] {
            assert_eq!(disk().seq_read_extents(&[bytes]), disk().seq_read(bytes));
        }
        let mut idle = disk();
        assert_eq!(idle.seq_read_extents(&[]), 0.0);
        assert_eq!((idle.ops(), idle.stats().seq_read_bytes), (1, 0));
    }

    #[test]
    fn random_ops_dominated_by_seek_for_small_io() {
        let m = DiskModel {
            seek_s: 0.002,
            read_bw: 100e6,
            write_bw: 100e6,
        };
        // 512-byte and 8 KB random reads cost nearly the same (paper §4.2).
        let a = m.rand_read_cost(512);
        let b = m.rand_read_cost(8192);
        assert!(
            (b - a) / a < 0.05,
            "8KB random read should cost ~= 512B one"
        );
    }

    #[test]
    fn sequential_beats_random_by_orders_of_magnitude() {
        // Paper §5.2: sequential transfer is >10x faster than random small
        // I/O per fingerprint.
        let m = DiskModel {
            seek_s: 0.0019,
            read_bw: 225.0 * (1 << 20) as f64,
            write_bw: 165.0 * (1 << 20) as f64,
        };
        let random_fps_per_s = 1.0 / m.rand_read_cost(512);
        // One sequential sweep of a 512-byte bucket holding 20 fingerprints:
        let seq_fps_per_s = 20.0 / m.seq_read_cost(512);
        assert!(seq_fps_per_s / random_fps_per_s > 100.0);
    }

    #[test]
    fn stats_merge() {
        let mut a = disk();
        let mut b = disk();
        a.seq_read(1000);
        b.rand_write(500);
        let mut m = a.stats();
        m.merge(&b.stats());
        assert_eq!(m.seq_read_bytes, 1000);
        assert_eq!(m.rand_writes, 1);
        assert_eq!(m.total_bytes(), 1500);
    }

    #[test]
    fn fault_plan_fires_on_exact_op_and_is_one_shot() {
        use crate::fault::{FaultKind, FaultPlan};
        let mut d = disk();
        d.seq_read(10); // op 0
        d.set_fault_plan(FaultPlan::fail_at(2));
        assert!(d.has_armed_faults());
        assert_eq!(d.ops(), 1);
        d.seq_write(10); // op 1: no fault
        assert!(d.take_fault().is_none());
        assert_eq!(d.peek_fault(1).map(|s| s.kind), Some(FaultKind::Fail));
        d.rand_read(10); // op 2: fault fires
        let f = d.take_fault().expect("fault fired");
        assert_eq!(f.op, 2);
        assert_eq!(f.kind, FaultKind::Fail);
        assert!(d.take_fault().is_none(), "one-shot");
        assert!(!d.has_armed_faults());
        d.rand_read(10);
        assert!(d.take_fault().is_none());
    }

    #[test]
    fn checked_op_charges_fires_and_collects_pending() {
        use crate::fault::{FaultKind, FaultPlan};
        let mut d = disk();
        // Clean op passes the cost through.
        assert_eq!(d.checked_op(|d| d.seq_read(100_000_000)), Ok(1.0));
        // Armed op: charged, fault consumed and returned.
        d.set_fault_plan(FaultPlan::fail_at(d.ops()));
        let err = d.checked_op(|d| d.seq_write(10)).expect_err("fires");
        assert_eq!(err.kind, FaultKind::Fail);
        assert_eq!(d.ops(), 2, "the failing op was still charged");
        // Pending fault from an unchecked op: collected WITHOUT charging.
        d.set_fault_plan(FaultPlan::bit_flip_at(d.ops()));
        d.seq_read(10); // unchecked: fault fires silently
        let err = d.checked_op(|d| d.seq_read(10)).expect_err("pending");
        assert_eq!(err.kind, FaultKind::BitFlip);
        assert_eq!(d.ops(), 3, "boundary collection does not charge");
        assert!(d.checked_op(|d| d.seq_read(10)).is_ok());
    }

    #[test]
    fn clear_fault_plan_disarms_pending() {
        use crate::fault::FaultPlan;
        let mut d = disk();
        d.set_fault_plan(FaultPlan::bit_flip_at(0));
        d.seq_read(10); // fires, pending
        d.clear_fault_plan();
        assert!(d.take_fault().is_none(), "cleared plans drop fired faults");
    }

    #[test]
    fn reset_clears_stats_keeps_model() {
        let mut d = disk();
        d.seq_read(10);
        d.reset_stats();
        assert_eq!(d.stats(), DiskStats::default());
        assert_eq!(d.model().seek_s, 0.002);
    }
}
