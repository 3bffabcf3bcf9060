//! Per-partition device bank: the one disk model behind every striped
//! component.
//!
//! The multi-part index of paper §5.2 puts each index partition on its own
//! spindle set, and the striped chunk-log drain does the same per store
//! worker. A [`PartDiskSet`] is that bank of **real devices**: one
//! [`SimDisk`] per partition, each with its own operation counter,
//! busy-time accounting and armable [`FaultPlan`]. A striped sweep charges
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
//!   an SIU read-then-write sweep ticks each part twice).
//! * An **even** split over a power-of-two partition count costs exactly
//!   `DiskModel::seq_read_cost(total) / P` (`(bytes/P)/bw == (bytes/bw)/P`:
//!   dividing an IEEE double by a power of two is exact) — the even-split
//!   law the property test below pins against the closed form.

use crate::clock::Secs;
use crate::disk::{DiskModel, DiskStats, SimDisk};
use crate::fault::{FaultPlan, FaultSpec, InjectedFault};

/// A bank of per-partition [`SimDisk`]s behind one striped volume.
#[derive(Debug, Clone)]
pub struct PartDiskSet {
    model: DiskModel,
    /// Never empty: `disks[0]` is the volume.
    disks: Vec<SimDisk>,
}

impl PartDiskSet {
    /// A one-part set (the un-striped volume); further part-disks
    /// materialize on resize, charge or arming.
    pub fn new(model: DiskModel) -> Self {
        PartDiskSet {
            model,
            disks: vec![SimDisk::new(model)],
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

    /// Resize to exactly `parts.max(1)` disks: growth adds fresh disks with
    /// the base model, shrinking truncates from the top (dropping any armed
    /// faults on the removed disks — see the module docs).
    pub fn resize(&mut self, parts: usize) {
        let model = self.model;
        self.disks.resize_with(parts.max(1), || SimDisk::new(model));
    }

    /// Operation counter of part `part` (0 for a disk not yet materialized:
    /// its first op will be op 0).
    pub fn ops(&self, part: usize) -> u64 {
        self.disks.get(part).map_or(0, SimDisk::ops)
    }

    /// Arm a deterministic fault schedule on one part-disk (materializing
    /// it if needed, so a part can be armed before its first sweep).
    pub fn set_fault_plan(&mut self, part: usize, plan: FaultPlan) {
        if part >= self.disks.len() {
            self.resize(part + 1);
        }
        self.disks[part].set_fault_plan(plan);
    }

    /// Disarm every part-disk's faults (armed and fired-but-uncollected).
    pub fn clear_fault_plans(&mut self) {
        for d in &mut self.disks {
            d.clear_fault_plan();
        }
    }

    /// Whether any part-disk still has an armed fault.
    pub fn has_armed_faults(&self) -> bool {
        self.disks.iter().any(SimDisk::has_armed_faults)
    }

    /// Collect the first fired-but-uncollected fault across parts (lowest
    /// part first), with the part index it fired on. Siblings that fired
    /// in the same window stay pending and surface at the next collection.
    pub fn take_fault(&mut self) -> Option<(u32, InjectedFault)> {
        self.disks
            .iter_mut()
            .enumerate()
            .find_map(|(p, d)| d.take_fault().map(|f| (p as u32, f)))
    }

    /// Collect the fired-but-uncollected fault of one specific part-disk,
    /// leaving every other part's pending fault in place (the caller
    /// attributes an error to the disk it peeked; siblings surface at the
    /// next checked boundary).
    pub fn take_fault_on(&mut self, part: usize) -> Option<InjectedFault> {
        self.disks.get_mut(part).and_then(SimDisk::take_fault)
    }

    /// The first armed fault (lowest part first) that would fire within
    /// the next `ops_per_part` operations of any part-disk, without
    /// consuming it.
    pub fn peek_fault(&self, ops_per_part: u64) -> Option<(u32, FaultSpec)> {
        self.disks
            .iter()
            .enumerate()
            .find_map(|(p, d)| d.peek_fault(ops_per_part).map(|s| (p as u32, s)))
    }

    /// One striped **read** sweep: resize to `bytes.len()` parts, charge
    /// each part-disk a sequential read of its own byte share, and return
    /// the parallel wall time — the max over per-part completion times.
    pub fn seq_read_split(&mut self, bytes: &[u64]) -> Secs {
        self.resize(bytes.len());
        self.disks
            .iter_mut()
            .zip(bytes)
            .map(|(d, &b)| d.seq_read(b))
            .fold(0.0, f64::max)
    }

    /// One striped **skipping** read: resize to `extents.len()` parts and
    /// charge each part-disk one [`SimDisk::seq_read_extents`] over its own
    /// extents (one op per engaged part, even with none to read); returns
    /// the max over per-part completion times. A part whose extents are
    /// its whole share costs what [`PartDiskSet::seq_read_split`] charges
    /// it, to the bit.
    pub fn seq_read_extents_split(&mut self, extents: &[Vec<u64>]) -> Secs {
        self.resize(extents.len());
        self.disks
            .iter_mut()
            .zip(extents)
            .map(|(d, e)| d.seq_read_extents(e))
            .fold(0.0, f64::max)
    }

    /// One striped **write** sweep (see [`PartDiskSet::seq_read_split`]).
    pub fn seq_write_split(&mut self, bytes: &[u64]) -> Secs {
        self.resize(bytes.len());
        self.disks
            .iter_mut()
            .zip(bytes)
            .map(|(d, &b)| d.seq_write(b))
            .fold(0.0, f64::max)
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
    use crate::fault::FaultKind;

    fn model() -> DiskModel {
        DiskModel {
            seek_s: 0.002,
            read_bw: 100e6,
            write_bw: 50e6,
        }
    }

    #[test]
    fn split_sweep_time_is_max_over_parts() {
        let mut set = PartDiskSet::new(model());
        // Uneven split: the 300 MB part is the straggler.
        let t = set.seq_read_split(&[100_000_000, 300_000_000, 100_000_000]);
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
        let mut scalar = PartDiskSet::new(model());
        let mut striped = PartDiskSet::new(model());
        let scalar_r = scalar.seq_read_split(&[100_000_000]);
        let striped_r = striped.seq_read_split(&[25_000_000; 4]);
        assert_eq!(striped_r, scalar_r / 4.0);
        let scalar_w = scalar.seq_write_split(&[50_000_000]);
        let striped_w = striped.seq_write_split(&[10_000_000; 5]);
        assert_eq!(striped_w, scalar_w / 5.0);
        assert_eq!(striped.stats().seq_read_bytes, 100_000_000);
        assert_eq!(striped.stats().seq_write_bytes, 50_000_000);
        // A one-part split is the scalar sweep on the volume.
        assert_eq!(
            scalar.seq_read_split(&[1000]),
            scalar.volume_mut().seq_read(1000)
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
            let mut set = PartDiskSet::new(model());
            proptest::prop_assert_eq!(
                set.seq_read_split(&bytes),
                model().seq_read_cost(total) / parts as f64
            );
            proptest::prop_assert_eq!(
                set.seq_write_split(&bytes),
                model().seq_write_cost(total) / parts as f64
            );
            proptest::prop_assert_eq!(set.stats().seq_read_bytes, total);
        }
    }

    #[test]
    fn part_zero_is_the_volume() {
        // Never empty; un-striped work lands on part 0 and survives any
        // resize, so a one-part set is the whole volume.
        let mut set = PartDiskSet::new(model());
        assert_eq!(set.parts(), 1);
        set.volume_mut().rand_read(512);
        set.seq_read_split(&[10, 10, 10]);
        set.resize(0);
        assert_eq!(set.parts(), 1, "part 0 is never dropped");
        assert_eq!(set.ops(0), 2);
        assert_eq!(set.stats(), set.part_stats(0).expect("part 0"));
        assert_eq!(set.stats().rand_reads, 1);
    }

    #[test]
    fn resize_preserves_low_parts_and_drops_high() {
        let mut set = PartDiskSet::new(model());
        set.seq_read_split(&[10, 10, 10, 10]);
        assert_eq!(set.ops(2), 1);
        set.set_fault_plan(3, FaultPlan::fail_at(9));
        set.resize(2);
        assert!(!set.has_armed_faults(), "shrink drops high-part plans");
        assert_eq!(set.ops(0), 1, "surviving counters keep ticking");
        set.resize(4);
        assert_eq!(set.ops(3), 0, "regrown part is a fresh disk");
    }

    #[test]
    fn single_part_fault_fires_on_that_part_only() {
        let mut set = PartDiskSet::new(model());
        set.seq_write_split(&[10, 10, 10]); // op 0 on each part
        set.set_fault_plan(1, FaultPlan::fail_at(set.ops(1)));
        let (p, spec) = set.peek_fault(1).expect("armed");
        assert_eq!((p, spec.kind), (1, FaultKind::Fail));
        set.seq_write_split(&[10, 10, 10]); // op 1: part 1 faults
        let (part, fault) = set.take_fault().expect("fired");
        assert_eq!(part, 1);
        assert_eq!(fault.op, 1);
        assert!(set.take_fault().is_none(), "one-shot, one part");
        // Arming pre-materializes a part before any sweep engages it.
        let mut fresh = PartDiskSet::new(model());
        fresh.set_fault_plan(2, FaultPlan::bit_flip_at(0));
        assert_eq!(fresh.parts(), 3);
        assert!(fresh.has_armed_faults());
        fresh.clear_fault_plans();
        assert!(!fresh.has_armed_faults());
    }
}
