//! A device timeline for pipelined phases.
//!
//! A [`crate::VirtualClock`] models one sequential context: every cost is
//! added to the same `now`, so two devices charged to it never work at the
//! same time. A pipelined phase (the restore walk: index lookups, node
//! disk reads and the client stream) instead gives **each device its own
//! [`Lane`]** — a FIFO timeline that only knows when it is next free — and
//! threads the *data dependencies* between operations through the `ready`
//! argument of [`Lane::run`]. Nothing executes concurrently: the overlap
//! is arithmetic on `free_at`, so a schedule is a pure function of its
//! inputs, like everything else in this crate.
//!
//! Two laws bound any schedule built this way (property-tested below): its
//! makespan is at least the busiest lane's busy time and at most the
//! serial sum of every cost — and exactly the serial sum when every
//! operation goes through one lane, which is what a single clock charges.

use crate::clock::Secs;

/// One device's FIFO timeline: operations run in the order they are
/// submitted, each starting when both the device and its input are ready.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Lane {
    /// Virtual time the device finishes its last submitted operation.
    pub free_at: Secs,
    /// Total cost submitted so far (the device's busy time).
    pub busy: Secs,
}

impl Lane {
    /// An idle lane.
    pub fn new() -> Self {
        Self::default()
    }

    /// Submit an operation of `cost` seconds whose input exists at
    /// `ready`: it starts at `max(free_at, ready)` and the lane is busy
    /// until the returned completion time.
    #[inline]
    pub fn run(&mut self, ready: Secs, cost: Secs) -> Secs {
        debug_assert!(cost >= 0.0 && cost.is_finite(), "invalid cost {cost}");
        self.free_at = self.free_at.max(ready) + cost;
        self.busy += cost;
        self.free_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operations_queue_behind_each_other_and_their_inputs() {
        let mut lane = Lane::new();
        assert_eq!(lane.run(1.0, 2.0), 3.0, "idle lane waits for the input");
        assert_eq!(lane.run(0.5, 1.0), 4.0, "busy lane makes the input wait");
        assert_eq!(lane.run(10.0, 0.0), 10.0, "a free op still marks the time");
        assert_eq!(lane.busy, 3.0);
    }

    #[test]
    fn two_lanes_overlap_what_one_clock_serializes() {
        // Four equal reads alternating over two disks, each ready at 0:
        // the pair of lanes finishes in half the serial sum.
        let mut disks = [Lane::new(), Lane::new()];
        let mut end: Secs = 0.0;
        for i in 0..4 {
            end = end.max(disks[i % 2].run(0.0, 1.0));
        }
        assert_eq!(end, 2.0);
        assert_eq!(disks[0].busy + disks[1].busy, 4.0);
    }

    proptest::proptest! {
        #[test]
        fn prop_makespan_between_busiest_lane_and_serial_sum(
            ops in proptest::collection::vec(0u64..(1 << 24), 1..64),
            lanes in 1usize..5,
        ) {
            // Decode each draw into (lane, cost, which earlier op it
            // depends on — or none): costs are multiples of 1/64 s, so
            // every sum below is exact and the bounds can be asserted
            // without a tolerance.
            let mut lane_set = vec![Lane::new(); lanes];
            let mut done: Vec<Secs> = Vec::with_capacity(ops.len());
            let mut serial: Secs = 0.0;
            for (i, &op) in ops.iter().enumerate() {
                let lane = (op & 0xff) as usize % lanes;
                let cost = ((op >> 8) & 0xff) as f64 / 64.0;
                let dep = (op >> 16) as usize % (i + 1);
                let ready = if dep == i { 0.0 } else { done[dep] };
                done.push(lane_set[lane].run(ready, cost));
                serial += cost;
            }
            let makespan = done.iter().copied().fold(0.0, f64::max);
            let busiest = lane_set.iter().map(|l| l.busy).fold(0.0, f64::max);
            proptest::prop_assert!(makespan >= busiest);
            proptest::prop_assert!(makespan <= serial);
            if lanes == 1 {
                proptest::prop_assert_eq!(makespan, serial);
            }
        }
    }
}
