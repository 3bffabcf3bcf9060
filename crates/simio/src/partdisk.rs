//! Per-partition device bank: the one disk model behind every striped
//! component.
//!
//! The multi-part index of paper §5.2 puts each index partition on its own
//! spindle set, and the striped chunk-log drain does the same per store
//! worker. A [`PartDiskSet`] is that bank of **real devices**: one
//! [`SimDisk`] per partition, each with its own operation counter,
//! busy-time accounting and armable [`crate::FaultPlan`]. A striped sweep charges
//! each part-disk the bytes its partition *actually* covers and completes
//! at the **max over per-part completion times** — a skewed split shows a
//! straggler, and a fault armed on one part-disk spares its siblings.
//!
//! # Physical-stripe rules
//!
//! * The set is **never empty, and part 0 is the volume**: un-striped work
//!   (random bucket I/O, capacity scaling, log appends) is charged to
//!   part-disk 0 through [`PartDiskSet::volume_mut`], so a one-part set
//!   *is* the paper's single volume and no device is charged twice.
//! * The set resizes to the sweep's (clamped) partition count lazily, at
//!   charge time: growing adds fresh disks built from the base
//!   [`DiskModel`]; shrinking truncates from the top (never below part 0),
//!   dropping any faults still armed on the removed disks. A plan armed on
//!   part `p` survives as long as sweeps keep engaging `p + 1` partitions.
//! * Each sweep ticks every engaged part-disk exactly once (per direction:
//!   an SIU read-then-write sweep ticks each part twice), and fails with
//!   the [`crate::Faulted`] of the lowest part whose op faulted: a sibling that
//!   faulted on the same sweep is spent with it, so every fault comes back
//!   from the sweep that fired it.
//! * Part `p` is the device [`Device::at`]`(p)` of the set's base address,
//!   named when the disk is made, so a fault names its part itself.
//! * An **even** split over a power-of-two partition count costs exactly
//!   `DiskModel::seq_read_cost(total) / P` (`(bytes/P)/bw == (bytes/bw)/P`:
//!   dividing an IEEE double by a power of two is exact) — the even-split
//!   law the property test below pins against the closed form.

use crate::clock::Secs;
use crate::device::Device;
use crate::disk::{DiskModel, DiskStats, SimDisk};
use crate::fault::Charge;

/// A bank of per-partition [`SimDisk`]s behind one striped volume.
#[derive(Debug, Clone)]
pub struct PartDiskSet {
    model: DiskModel,
    /// Never empty: `disks[0]` is the volume.
    disks: Vec<SimDisk>,
}

impl PartDiskSet {
    /// A one-part set (the un-striped volume) of the bank `base` belongs
    /// to; further part-disks materialize on resize, charge or arming,
    /// part `p` named `base.at(p)`.
    pub fn new(model: DiskModel, base: Device) -> Self {
        PartDiskSet {
            model,
            disks: vec![SimDisk::new(model, base.at(0))],
        }
    }

    /// The base timing model new part-disks are built from.
    pub fn model(&self) -> DiskModel {
        self.model
    }

    /// Part-disks currently materialized (at least 1).
    pub fn parts(&self) -> usize {
        self.disks.len()
    }

    /// Part-disk 0, the device un-striped work is charged to.
    pub fn volume_mut(&mut self) -> &mut SimDisk {
        &mut self.disks[0]
    }

    /// Part-disk `part`, materializing it (and every part below it) if no
    /// sweep has engaged it yet, so a part can be armed before its first
    /// sweep.
    pub fn disk_mut(&mut self, part: usize) -> &mut SimDisk {
        if part >= self.disks.len() {
            self.resize(part + 1);
        }
        &mut self.disks[part]
    }

    /// Resize to exactly `parts.max(1)` disks: growth adds fresh disks with
    /// the base model, shrinking truncates from the top (dropping any armed
    /// faults on the removed disks — see the module docs).
    pub fn resize(&mut self, parts: usize) {
        let (model, base, parts) = (self.model, self.disks[0].device(), parts.max(1));
        self.disks.truncate(parts);
        let grown = (self.disks.len()..parts).map(|p| SimDisk::new(model, base.at(p as u32)));
        self.disks.extend(grown);
    }

    /// Operation counter of part `part` (0 for a disk not yet materialized:
    /// its first op will be op 0).
    pub fn ops(&self, part: usize) -> u64 {
        self.disks.get(part).map_or(0, SimDisk::ops)
    }

    /// Disarm every part-disk's faults.
    pub fn clear_fault_plans(&mut self) {
        for d in &mut self.disks {
            d.clear_fault_plan();
        }
    }

    /// Whether any part-disk still has an armed fault.
    pub fn has_armed_faults(&self) -> bool {
        self.disks.iter().any(SimDisk::has_armed_faults)
    }

    /// Charge `op` on each of the first `shares.len()` part-disks with its
    /// own share, after resizing to that many parts: every engaged part
    /// ticks once, and the result is each part's value, or the fault of
    /// the lowest part that faulted.
    fn striped<S, T>(
        &mut self,
        shares: &[S],
        op: impl Fn(&mut SimDisk, &S) -> Charge<T>,
    ) -> Charge<Vec<T>> {
        self.resize(shares.len());
        let charged: Vec<Charge<T>> = (self.disks.iter_mut().zip(shares))
            .map(|(d, share)| op(d, share))
            .collect();
        charged.into_iter().collect()
    }

    /// One striped **read** sweep: resize to `bytes.len()` parts, charge
    /// each part-disk a sequential read of its own byte share, and return
    /// the parallel wall time — the max over per-part completion times.
    pub fn seq_read_split(&mut self, bytes: &[u64]) -> Charge {
        let costs = self.striped(bytes, |d, &b| d.seq_read(b))?;
        Ok(costs.into_iter().fold(0.0, f64::max))
    }

    /// One striped **skipping** read, each part's pass cut into legs:
    /// resize to `parts.len()` parts and charge each part-disk one
    /// [`SimDisk::seq_read_legs`] over its own legs of extents (one op per
    /// engaged part, even with none to read); returns each part's leg
    /// costs in order. No wall time is folded here: the caller runs the
    /// legs on a lane per part. A part read in one leg of one extent, its
    /// whole share, costs what [`PartDiskSet::seq_read_split`] charges it,
    /// to the bit.
    pub fn seq_read_legs(&mut self, parts: &[Vec<Vec<u64>>]) -> Charge<Vec<Vec<Secs>>> {
        self.striped(parts, |d, legs| d.seq_read_legs(legs))
    }

    /// One striped **write** sweep (see [`PartDiskSet::seq_read_split`]).
    pub fn seq_write_split(&mut self, bytes: &[u64]) -> Charge {
        let costs = self.striped(bytes, |d, &b| d.seq_write(b))?;
        Ok(costs.into_iter().fold(0.0, f64::max))
    }

    /// Statistics of one part-disk, if materialized.
    pub fn part_stats(&self, part: usize) -> Option<DiskStats> {
        self.disks.get(part).map(SimDisk::stats)
    }

    /// Merged statistics across all part-disks. `busy_s` sums the per-part
    /// busy times (device-seconds), which exceeds the striped wall time
    /// whenever more than one part is engaged.
    pub fn stats(&self) -> DiskStats {
        let mut out = DiskStats::default();
        for d in &self.disks {
            out.merge(&d.stats());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultPlan};

    fn model() -> DiskModel {
        DiskModel {
            seek_s: 0.002,
            read_bw: 100e6,
            write_bw: 50e6,
        }
    }

    /// Server 5's index volume: the set's parts are its part-disks.
    fn bank() -> PartDiskSet {
        PartDiskSet::new(model(), Device::IndexPart { server: 5, part: 0 })
    }

    #[test]
    fn split_sweep_time_is_max_over_parts() {
        let mut set = bank();
        // Uneven split: the 300 MB part is the straggler.
        let t = (set.seq_read_split(&[100_000_000, 300_000_000, 100_000_000])).expect("clean");
        assert_eq!(t, 3.0, "wall time must be the slowest part");
        assert_eq!(set.parts(), 3);
        assert_eq!(
            set.part_stats(1).expect("part 1").seq_read_bytes,
            300_000_000
        );
        assert_eq!(set.stats().seq_read_bytes, 500_000_000);
        // Device-seconds exceed wall time once >1 part is busy.
        assert!(set.stats().busy_s > t);
    }

    #[test]
    fn striped_sweeps_divide_wall_time_and_keep_volume() {
        // The multi-part index contract: P part-disks sweep concurrently,
        // wall time is the even-split maximum (exactly 1/P here), and the
        // statistics still record the full byte volume moved.
        let mut scalar = bank();
        let mut striped = bank();
        let scalar_r = scalar.seq_read_split(&[100_000_000]).expect("clean");
        let striped_r = striped.seq_read_split(&[25_000_000; 4]).expect("clean");
        assert_eq!(striped_r, scalar_r / 4.0);
        let scalar_w = scalar.seq_write_split(&[50_000_000]).expect("clean");
        let striped_w = striped.seq_write_split(&[10_000_000; 5]).expect("clean");
        assert_eq!(striped_w, scalar_w / 5.0);
        assert_eq!(striped.stats().seq_read_bytes, 100_000_000);
        assert_eq!(striped.stats().seq_write_bytes, 50_000_000);
        // A one-part split is the scalar sweep on the volume.
        assert_eq!(
            scalar.seq_read_split(&[1000]).ok(),
            scalar.volume_mut().seq_read(1000).ok()
        );
    }

    proptest::proptest! {
        #[test]
        fn prop_even_power_of_two_split_costs_the_closed_form(
            total in 0u64..(1 << 40),
            pow in 0u32..5,
        ) {
            // The even-split law: P part-disks each moving total/P bytes
            // finish in exactly seq_cost(total) / P for power-of-two P —
            // bit-for-bit, both directions.
            let parts = 1u64 << pow;
            let total = total / parts * parts;
            let bytes = vec![total / parts; parts as usize];
            let mut set = bank();
            proptest::prop_assert_eq!(
                set.seq_read_split(&bytes),
                Ok(model().seq_read_cost(total) / parts as f64)
            );
            proptest::prop_assert_eq!(
                set.seq_write_split(&bytes),
                Ok(model().seq_write_cost(total) / parts as f64)
            );
            proptest::prop_assert_eq!(set.stats().seq_read_bytes, total);
        }
    }

    #[test]
    fn part_zero_is_the_volume() {
        // Never empty; un-striped work lands on part 0 and survives any
        // resize, so a one-part set is the whole volume.
        let mut set = bank();
        assert_eq!(set.parts(), 1);
        set.volume_mut().rand_read(512).expect("clean");
        set.seq_read_split(&[10, 10, 10]).expect("clean");
        set.resize(0);
        assert_eq!(set.parts(), 1, "part 0 is never dropped");
        assert_eq!(set.ops(0), 2);
        assert_eq!(set.stats(), set.part_stats(0).expect("part 0"));
        assert_eq!(set.stats().rand_reads, 1);
    }

    #[test]
    fn resize_preserves_low_parts_and_drops_high() {
        let mut set = bank();
        set.seq_read_split(&[10, 10, 10, 10]).expect("clean");
        assert_eq!(set.ops(2), 1);
        set.disk_mut(3).set_fault_plan(FaultPlan::fail_at(9));
        set.resize(2);
        assert!(!set.has_armed_faults(), "shrink drops high-part plans");
        assert_eq!(set.ops(0), 1, "surviving counters keep ticking");
        set.resize(4);
        assert_eq!(set.ops(3), 0, "regrown part is a fresh disk");
        // Every part is named by its place in the bank, however it grew.
        for part in 0..4 {
            let device = Device::IndexPart { server: 5, part };
            assert_eq!(set.disk_mut(part as usize).device(), device);
        }
    }

    #[test]
    fn single_part_fault_fires_on_that_part_only() {
        let mut set = bank();
        set.seq_write_split(&[10, 10, 10])
            .expect("op 0 on each part");
        let armed = set.ops(1);
        set.disk_mut(1).set_fault_plan(FaultPlan::fail_at(armed));
        let err = set
            .seq_write_split(&[10, 10, 10])
            .expect_err("op 1 of part 1");
        let part1 = Device::IndexPart { server: 5, part: 1 };
        assert_eq!(
            (err.device, err.fault.op, err.fault.kind),
            (part1, 1, FaultKind::Fail)
        );
        assert_eq!(
            [0, 1, 2].map(|p| set.ops(p)),
            [2, 2, 2],
            "every part ticked"
        );
        set.seq_write_split(&[10, 10, 10])
            .expect("one-shot, one part");
        // Arming pre-materializes a part before any sweep engages it.
        let mut fresh = bank();
        fresh.disk_mut(2).set_fault_plan(FaultPlan::bit_flip_at(0));
        assert_eq!(fresh.parts(), 3);
        assert!(fresh.has_armed_faults());
        fresh.clear_fault_plans();
        assert!(!fresh.has_armed_faults());
    }

    #[test]
    fn two_faulted_parts_report_the_lowest_and_spend_the_other() {
        let mut set = bank();
        for part in [2, 1] {
            set.disk_mut(part).set_fault_plan(FaultPlan::fail_at(0));
        }
        let err = set
            .seq_read_split(&[10, 10, 10])
            .expect_err("two parts fire");
        let part1 = Device::IndexPart { server: 5, part: 1 };
        assert_eq!(err.device, part1, "the lowest failing part");
        assert!(!set.has_armed_faults(), "part 2's fault was spent with it");
        set.seq_read_split(&[10, 10, 10]).expect("nothing waits");
    }
}
