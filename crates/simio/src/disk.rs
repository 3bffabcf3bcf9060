//! Disk timing model.
//!
//! Two regimes matter for de-duplication (paper §1, §5.2): *random small*
//! I/Os (dominated by positioning time — this is the fingerprint-lookup
//! bottleneck of Venti-style systems) and *large sequential* I/Os (dominated
//! by transfer bandwidth — what SIL/SIU exploit). The model charges
//! `seek + bytes/bandwidth` for random operations and `bytes/bandwidth` for
//! sequential ones; "the time overhead of a random small disk I/O stems
//! mainly from the disk seek rather than data transfer" (§4.2).
//!
//! A [`DiskModel`]'s parameters are private to this crate: other crates
//! price I/O through its cost methods, and the one rule that weighs a seek
//! against streaming — whether a gap between wanted byte ranges is read
//! through — is [`DiskModel::wanted_extents`], which ranged container reads
//! and the chunk-log drain both call.

use std::ops::Range;

use crate::clock::Secs;
use crate::device::Device;
use crate::fault::{Charge, FaultPlan, Faulted, InjectedFault};

/// Timing parameters of a disk (or RAID volume).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskModel {
    /// Average positioning time for a random access (seek + rotation),
    /// in seconds.
    pub(crate) seek_s: Secs,
    /// Sequential read bandwidth, bytes/second.
    pub(crate) read_bw: f64,
    /// Sequential write bandwidth, bytes/second.
    pub(crate) write_bw: f64,
}

impl DiskModel {
    /// A disk that positions in `seek_s` seconds (seek + rotation) and
    /// streams `read_bw` / `write_bw` bytes per second.
    pub const fn new(seek_s: Secs, read_bw: f64, write_bw: f64) -> Self {
        DiskModel {
            seek_s,
            read_bw,
            write_bw,
        }
    }

    /// Sequential read bandwidth, bytes/second.
    #[inline]
    pub fn read_bw(&self) -> f64 {
        self.read_bw
    }

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

    /// The reads that fetch the `wanted` byte ranges of one region of this
    /// disk (ascending starts): the range of each extent, in offset order.
    /// Adjacent wanted ranges share an extent, and the **gap law** decides
    /// the rest: the bytes between two wanted ranges are read through
    /// exactly when streaming them is no dearer than the seek that
    /// skipping them costs — `gap / read_bw <= seek_s`. Nothing before the
    /// first or after the last wanted range is read. A ranged container
    /// read's first range is its metadata section, so the law that joins
    /// two chunks also joins the metadata section to the first chunk:
    /// there is no rule for the head.
    pub fn wanted_extents(&self, wanted: impl IntoIterator<Item = Range<u64>>) -> Vec<Range<u64>> {
        let mut extents: Vec<Range<u64>> = Vec::new();
        for range in wanted {
            match extents.last_mut() {
                Some(open)
                    if self.seq_read_cost(range.start.saturating_sub(open.end)) <= self.seek_s =>
                {
                    open.end = open.end.max(range.end);
                }
                _ => extents.push(range),
            }
        }
        extents
    }
}

/// Cumulative I/O statistics for one simulated disk.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
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
}

/// A simulated disk: a [`DiskModel`] plus cumulative [`DiskStats`], built
/// with the [`Device`] address it answers to.
///
/// Every op returns a [`Charge`]: its virtual cost, which the caller
/// charges to its clock, or the fault it fired, naming this disk's
/// device. The disk itself holds no
/// payload bytes — backing storage lives in the data structures that use
/// the disk (disk index, chunk log, container store), keeping the timing
/// model orthogonal to content.
#[derive(Debug, Clone)]
pub struct SimDisk {
    device: Device,
    model: DiskModel,
    stats: DiskStats,
    /// Operations performed so far (every read/write, any flavour, counts
    /// as one op — the index the [`FaultPlan`] keys on).
    ops: u64,
    plan: FaultPlan,
}

impl SimDisk {
    /// Create the disk `device` names, with the given model.
    pub fn new(model: DiskModel, device: Device) -> Self {
        SimDisk {
            device,
            model,
            stats: DiskStats::default(),
            ops: 0,
            plan: FaultPlan::none(),
        }
    }

    /// Arm a deterministic fault schedule (replaces any previous plan).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.plan = plan;
    }

    /// Disarm every fault not yet fired.
    pub fn clear_fault_plan(&mut self) {
        self.plan = FaultPlan::none();
    }

    /// Whether any fault is still armed (not yet fired).
    pub fn has_armed_faults(&self) -> bool {
        !self.plan.is_empty()
    }

    /// Operations performed so far — the op index the next operation gets.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Count one op that cost `cost` and returned `value`: the op fails
    /// with the fault armed for its index, if any, which fires here.
    fn op<T>(&mut self, value: T, cost: Secs) -> Charge<T> {
        let op = self.ops;
        self.ops += 1;
        match self.plan.take(op) {
            Some(kind) => Err(Faulted {
                device: self.device,
                fault: InjectedFault { op, kind },
                cost,
            }),
            None => Ok(value),
        }
    }

    /// The device this disk is.
    pub fn device(&self) -> Device {
        self.device
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

    /// Perform a sequential read of `bytes`.
    pub fn seq_read(&mut self, bytes: u64) -> Charge {
        self.seq_read_extents(&[bytes])
    }

    /// Perform a sequential write of `bytes`.
    pub fn seq_write(&mut self, bytes: u64) -> Charge {
        let c = self.model.seq_write_cost(bytes);
        self.stats.seq_write_bytes += bytes;
        self.stats.busy_s += c;
        self.op(c, c)
    }

    /// Perform a random read of `bytes`.
    pub fn rand_read(&mut self, bytes: u64) -> Charge {
        self.rand_read_extents([bytes])
    }

    /// Perform **one** operation made of several random reads — the
    /// extents of a ranged read. The op counter ticks once (a
    /// [`FaultPlan`] sees one op, whatever the extent count), every extent
    /// pays its own positioning and is counted as its own random read in
    /// the statistics, and the cost is their sum.
    pub fn rand_read_extents(&mut self, extents: impl IntoIterator<Item = u64>) -> Charge {
        let mut cost = 0.0;
        for bytes in extents {
            let c = self.model.rand_read_cost(bytes);
            self.stats.rand_reads += 1;
            self.stats.rand_read_bytes += bytes;
            self.stats.busy_s += c;
            cost += c;
        }
        self.op(cost, cost)
    }

    /// Perform **one** forward pass that reads `extents` in order and
    /// seeks over the gaps between them — a sequential reader skipping
    /// what it does not need. The op counter ticks once, the bytes are
    /// sequential reads, and the cost is `seq_read_cost(Σ extents)` plus
    /// one positioning per extent after the first: one extent is
    /// [`SimDisk::seq_read`] to the bit, and none reads nothing in one op.
    pub fn seq_read_extents(&mut self, extents: &[u64]) -> Charge {
        let c = self.pass(extents.iter().sum(), extents.len());
        self.op(c, c)
    }

    /// [`SimDisk::seq_read_extents`] cut into legs: **one** forward pass
    /// over every leg's extents in order — one op, charged and counted
    /// exactly as `seq_read_extents` of their concatenation — whose cost
    /// is reported leg by leg, so a caller can start each leg once its
    /// input is ready. A leg costs its bytes' sequential read plus one
    /// positioning per extent in it, the pass's first extent excepted: a
    /// pass in one leg costs what `seq_read_extents` charges, to the bit,
    /// and the legs of a cut pass add up to it to within rounding.
    pub fn seq_read_legs(&mut self, legs: &[Vec<u64>]) -> Charge<Vec<Secs>> {
        let (mut bytes, mut extents) = (0, 0);
        let costs = (legs.iter())
            .map(|leg| {
                let b = leg.iter().sum();
                let seeks = leg.len() - usize::from(extents == 0 && !leg.is_empty());
                (bytes, extents) = (bytes + b, extents + leg.len());
                self.pass_cost(b, seeks)
            })
            .collect();
        let c = self.pass(bytes, extents);
        self.op(costs, c)
    }

    /// Account one forward pass reading `bytes` in `extents` extents: one
    /// positioning per extent after the first.
    fn pass(&mut self, bytes: u64, extents: usize) -> Secs {
        let c = self.pass_cost(bytes, extents.saturating_sub(1));
        self.stats.seq_read_bytes += bytes;
        self.stats.busy_s += c;
        c
    }

    /// What streaming `bytes` with `seeks` positionings between costs.
    fn pass_cost(&self, bytes: u64, seeks: usize) -> Secs {
        self.model.seq_read_cost(bytes) + seeks as f64 * self.model.seek_s
    }

    /// Perform a random write of `bytes`.
    pub fn rand_write(&mut self, bytes: u64) -> Charge {
        let c = self.model.rand_write_cost(bytes);
        self.stats.rand_writes += 1;
        self.stats.rand_write_bytes += bytes;
        self.stats.busy_s += c;
        self.op(c, c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> SimDisk {
        let model = DiskModel {
            seek_s: 0.002,
            read_bw: 100e6,
            write_bw: 50e6,
        };
        SimDisk::new(model, Device::RepoNode(0))
    }

    #[test]
    fn sequential_costs_scale_with_bytes() {
        let mut d = disk();
        assert_eq!(d.seq_read(100_000_000), Ok(1.0));
        assert_eq!(d.seq_write(50_000_000), Ok(1.0));
        assert_eq!(d.stats().seq_read_bytes, 100_000_000);
        assert_eq!(d.stats().seq_write_bytes, 50_000_000);
        assert_eq!(d.stats().busy_s, 2.0);
    }

    #[test]
    fn random_costs_include_seek() {
        let mut d = disk();
        let c = d.rand_read(512).expect("no fault is armed");
        assert!((c - (0.002 + 512.0 / 100e6)).abs() < 1e-12);
        assert_eq!(d.stats().rand_reads, 1);
    }

    #[test]
    fn a_ranged_read_is_one_op_of_many_seeks() {
        let (mut ranged, mut apart) = (disk(), disk());
        let cost = ranged.rand_read_extents([512, 4096, 100]).expect("clean");
        let sum: Secs = [512, 4096, 100]
            .map(|b| apart.rand_read(b).expect("clean"))
            .iter()
            .sum();
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
        let cost = d.seq_read_extents(&[1000, 300_000, 0, 42]).expect("clean");
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
        assert_eq!(idle.seq_read_extents(&[]), Ok(0.0));
        assert_eq!((idle.ops(), idle.stats().seq_read_bytes), (1, 0));
    }

    #[test]
    fn a_pass_cut_into_legs_is_the_same_op_reported_leg_by_leg() {
        let extents = [1000, 300_000, 0, 42, 77_777];
        let mut whole = disk();
        let cost = whole.seq_read_extents(&extents).expect("clean");
        let m = whole.model();
        // One leg: the pass's own cost, to the bit.
        let mut one = disk();
        assert_eq!(one.seq_read_legs(&[extents.to_vec()]), Ok(vec![cost]));
        assert_eq!((one.ops(), one.stats()), (whole.ops(), whole.stats()));
        // Cut anywhere: the same op and statistics, and each later leg
        // pays a positioning for every extent it starts.
        for cut in 0..=extents.len() {
            let legs = [extents[..cut].to_vec(), extents[cut..].to_vec()];
            let mut d = disk();
            let got = d.seq_read_legs(&legs).expect("clean");
            assert_eq!(
                (d.ops(), d.stats()),
                (whole.ops(), whole.stats()),
                "cut {cut}"
            );
            let tail: u64 = extents[cut..].iter().sum();
            let later_seeks = (extents.len() - cut) - usize::from(cut == 0);
            let tail_cost = m.seq_read_cost(tail) + later_seeks as f64 * m.seek_s;
            assert_eq!(got[1], tail_cost, "cut {cut}");
            assert!((got[0] + got[1] - cost).abs() < 1e-15, "cut {cut}");
        }
        let mut idle = disk();
        assert_eq!(idle.seq_read_legs(&[]), Ok(Vec::<Secs>::new()));
        assert_eq!((idle.ops(), idle.stats().busy_s), (1, 0.0));
    }

    #[test]
    fn a_gap_is_read_through_exactly_when_streaming_it_is_no_dearer_than_a_seek() {
        // Two wanted chunks `gap` bytes apart are one I/O iff
        // `gap / read_bw <= seek_s`, and that is the cheaper plan: the
        // extents cost the minimum of reading through and skipping.
        let round = DiskModel::new(0.002, 100e6, 100e6);
        for disk in [round, crate::models::paper::repo_disk()] {
            let edge = (disk.seek_s * disk.read_bw) as u64;
            for gap in [0, 1, edge - 1, edge, edge + 1, edge + 2, 8 << 20] {
                let (a, b) = (1000u64, 500u64);
                let end = a + gap + b;
                let extents = disk.wanted_extents([0..a, end - b..end]);
                let through = disk.seq_read_cost(gap) <= disk.seek_s;
                if through {
                    assert_eq!(extents.first().cloned(), Some(0..end), "gap {gap}");
                    assert_eq!(extents.len(), 1, "gap {gap}");
                } else {
                    assert_eq!(extents, [0..a, end - b..end], "gap {gap}");
                }
                assert_eq!(through, gap <= edge, "the law is a byte count: {edge}");
                let cost: Secs = (extents.iter())
                    .map(|e| disk.rand_read_cost(e.end - e.start))
                    .sum();
                let one = disk.rand_read_cost(end);
                let two = disk.rand_read_cost(a) + disk.rand_read_cost(b);
                assert!((cost - one.min(two)).abs() < 1e-12, "gap {gap}");
            }
        }
        // Nothing wanted, nothing read; nothing before the first or after
        // the last wanted range either.
        let disk = crate::models::paper::repo_disk();
        assert!(disk.wanted_extents([]).is_empty());
        let extents = disk.wanted_extents([4000..5000, 5000..6000]);
        assert_eq!(
            (extents.len(), extents.first().cloned()),
            (1, Some(4000..6000))
        );
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
        a.seq_read(1000).expect("clean");
        b.rand_write(500).expect("clean");
        let mut m = a.stats();
        m.merge(&b.stats());
        assert_eq!(m.seq_read_bytes, 1000);
        assert_eq!((m.rand_writes, m.rand_write_bytes), (1, 500));
    }

    #[test]
    fn fault_plan_fires_on_exact_op_and_is_one_shot() {
        use crate::fault::{FaultKind, FaultPlan};
        let mut d = disk();
        d.seq_read(10).expect("op 0 is clean");
        d.set_fault_plan(FaultPlan::fail_at(2));
        assert!(d.has_armed_faults());
        assert_eq!(d.ops(), 1);
        d.seq_write(10).expect("op 1 is clean");
        let f = d.rand_read(10).expect_err("op 2 fires");
        assert_eq!(
            f.fault,
            InjectedFault {
                op: 2,
                kind: FaultKind::Fail
            }
        );
        assert!(!d.has_armed_faults(), "one-shot");
        d.rand_read(10).expect("op 3 is clean");
    }

    #[test]
    fn a_charge_returns_its_own_fault_with_its_cost() {
        use crate::fault::{FaultKind, FaultPlan};
        let (mut armed, mut clean) = (disk(), disk());
        // Every kind of op: the fault comes back from the op it is armed
        // on, with what the op cost, and the device is charged alike.
        let ops: [fn(&mut SimDisk) -> Charge; 4] = [
            |d| d.seq_read(100_000_000),
            |d| d.seq_write(10),
            |d| d.rand_read_extents([512, 4096]),
            |d| d.rand_write(512),
        ];
        for (k, op) in ops.iter().enumerate() {
            armed.set_fault_plan(FaultPlan::bit_flip_at(armed.ops()));
            let cost = op(&mut clean).expect("clean");
            let err = op(&mut armed).expect_err("fires");
            let fault = InjectedFault {
                op: k as u64,
                kind: FaultKind::BitFlip,
            };
            let device = Device::RepoNode(0);
            assert_eq!(
                err,
                Faulted {
                    device,
                    fault,
                    cost
                }
            );
            assert_eq!((armed.ops(), armed.stats()), (clean.ops(), clean.stats()));
        }
        // A pass cut into legs faults as one op costing the whole pass.
        armed.set_fault_plan(FaultPlan::fail_at(armed.ops()));
        let legs = [vec![1000, 2000], vec![3000]];
        let costs = clean.seq_read_legs(&legs).expect("clean");
        let err = armed.seq_read_legs(&legs).expect_err("fires");
        assert_eq!(err.fault.op, 4);
        assert!((err.cost - costs.iter().sum::<Secs>()).abs() < 1e-15);
        // Nothing waits for a later op: the next one is clean.
        assert_eq!(armed.seq_read(10), clean.seq_read(10));
    }

    #[test]
    fn clear_fault_plan_disarms_pending() {
        use crate::fault::FaultPlan;
        let mut d = disk();
        d.set_fault_plan(FaultPlan::bit_flip_at(0).with(crate::fault::FaultSpec {
            at_op: 1,
            kind: crate::fault::FaultKind::Fail,
        }));
        assert!(d.seq_read(10).is_err(), "op 0 fires");
        d.clear_fault_plan();
        assert!(!d.has_armed_faults());
        assert!(d.seq_read(10).is_ok(), "op 1 was disarmed");
    }
}
