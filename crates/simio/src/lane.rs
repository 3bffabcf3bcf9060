//! A device timeline for pipelined phases.
//!
//! A [`crate::VirtualClock`] models one sequential context: every cost is
//! added to the same `now`, so two devices charged to it never work at the
//! same time. A pipelined phase (the restore walk: index lookups, node
//! disk reads and the client stream; GC compaction: victim reads, output
//! writes and frees) instead gives **each device its own [`Lane`]** and
//! threads the *data dependencies* between operations through the `ready`
//! argument of [`Lane::run`]. Nothing executes concurrently: the overlap
//! is arithmetic on the lane's busy intervals, so a schedule is a pure
//! function of its inputs, like everything else in this crate.
//!
//! **A device serves what is ready.** An operation starts at the earliest
//! time, no sooner than its `ready`, at which the device is idle for its
//! whole cost: in an idle interval an earlier operation left behind
//! (waiting for *its* input) if one holds it, else after the device's last
//! operation. Once started it runs to the end (non-preemptive insertion).
//! A device that ran strictly in submission order (first in, first out)
//! would hold an operation whose input is long in behind one still
//! waiting for its own — a GC output write waiting for the survivors it
//! packs would keep the victim reads queued behind it off an idle disk.
//! Two things follow from the rule, both property-tested below:
//!
//! * **Never later than FIFO.** Given the same dependencies, every
//!   operation finishes no later than it would on FIFO lanes: the slot
//!   after the lane's last operation, which is all FIFO offers, is always
//!   a candidate.
//! * **FIFO is the degenerate case.** A lane whose `ready` values never
//!   decrease has no idle interval after any `ready` but the one after its
//!   last operation, so it *is* a FIFO lane, bit for bit. A caller that
//!   needs its operations in submission order (the restore walk's client
//!   stream, which must stay in recipe order) keeps its `ready` values
//!   non-decreasing; there is no second lane type.
//!
//! Two laws bound any schedule built this way: its makespan is at least
//! the busiest lane's busy time and at most the serial sum of every cost —
//! and exactly the serial sum when every operation goes through one lane
//! in dependency order, which is what a single clock charges. At the other
//! end, operations that depend on nothing and are all ready at once — a
//! store's replica writes, a scrub's reads — end exactly when the busiest
//! lane's own costs, summed in submission order, do.

use crate::clock::Secs;

/// One device's timeline: each operation starts at the earliest time the
/// device is idle for its whole cost once its input is ready.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Lane {
    /// Virtual time the device finishes the last operation on its
    /// timeline (the latest end, whatever the order of submission).
    pub free_at: Secs,
    /// Total cost submitted so far (the device's busy time).
    pub busy: Secs,
    /// The idle intervals before `free_at`, `(from, to)` with `from < to`,
    /// ascending and disjoint: where a later operation whose input is
    /// ready early may still run.
    gaps: Vec<(Secs, Secs)>,
}

impl Lane {
    /// An idle lane.
    pub fn new() -> Self {
        Self::default()
    }

    /// Submit an operation of `cost` seconds whose input exists at
    /// `ready`: it starts at the earliest time no sooner than `ready` at
    /// which the lane is idle for `cost` — inside an idle interval if one
    /// holds it, else at `max(free_at, ready)` — and the lane is busy
    /// until the returned completion time.
    #[inline]
    pub fn run(&mut self, ready: Secs, cost: Secs) -> Secs {
        debug_assert!(cost >= 0.0 && cost.is_finite(), "invalid cost {cost}");
        self.busy += cost;
        // Gaps that end by `ready` can hold nothing that starts there — and
        // every gap ends by `free_at`, so an op ready no sooner (each op of
        // a FIFO lane) looks at none.
        let first = if ready < self.free_at {
            self.gaps.partition_point(|&(_, to)| to <= ready)
        } else {
            self.gaps.len()
        };
        for i in first..self.gaps.len() {
            let (from, to) = self.gaps[i];
            let start = from.max(ready);
            let end = start + cost;
            if end > to {
                continue;
            }
            // What is left of the interval on either side of the op.
            let left = [(from, start), (end, to)]
                .into_iter()
                .filter(|(a, b)| a < b);
            self.gaps.splice(i..=i, left);
            return end;
        }
        let start = self.free_at.max(ready);
        if start > self.free_at {
            self.gaps.push((self.free_at, start));
        }
        self.free_at = start + cost;
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
    fn an_op_ready_early_runs_in_the_idle_time_before_a_later_one() {
        let mut lane = Lane::new();
        // An output write waiting for its input leaves [0, 4) idle.
        assert_eq!(lane.run(4.0, 2.0), 6.0);
        assert_eq!(lane.run(0.0, 1.0), 1.0, "ready at once: runs first");
        assert_eq!(lane.run(0.5, 2.0), 3.0, "fills the idle time after it");
        assert_eq!(lane.run(0.0, 1.5), 7.5, "nothing holds it before the write");
        assert_eq!(lane.run(3.0, 1.0), 4.0, "the last idle second");
        assert_eq!(lane.run(0.0, 0.5), 8.0, "no gap left");
        assert_eq!((lane.free_at, lane.busy), (8.0, 8.0));
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

    /// A first-in-first-out lane: what [`Lane`] was before it served what
    /// is ready, and the bound it must never lose to.
    #[derive(Clone, Default)]
    struct Fifo {
        free_at: Secs,
    }

    impl Fifo {
        fn run(&mut self, ready: Secs, cost: Secs) -> Secs {
            self.free_at = self.free_at.max(ready) + cost;
            self.free_at
        }
    }

    /// One op of a random schedule: its lane, its cost — a multiple of
    /// 1/64 s, so every sum below is exact and the laws are asserted
    /// without a tolerance — and the earlier op it depends on, if any.
    struct Op {
        lane: usize,
        cost: Secs,
        dep: Option<usize>,
    }

    fn decode(ops: &[u64], lanes: usize) -> Vec<Op> {
        (ops.iter().enumerate())
            .map(|(i, &op)| {
                let dep = (op >> 16) as usize % (i + 1);
                Op {
                    lane: (op & 0xff) as usize % lanes,
                    cost: ((op >> 8) & 0xff) as f64 / 64.0,
                    dep: (dep != i).then_some(dep),
                }
            })
            .collect()
    }

    /// Each op's completion, submitted in order, on `lanes` lanes that run
    /// it with `run(lane, ready, cost)`.
    fn schedule(ops: &[Op], mut run: impl FnMut(usize, Secs, Secs) -> Secs) -> Vec<Secs> {
        let mut done: Vec<Secs> = Vec::with_capacity(ops.len());
        for op in ops {
            let ready = op.dep.map_or(0.0, |d| done[d]);
            done.push(run(op.lane, ready, op.cost));
        }
        done
    }

    proptest::proptest! {
        #[test]
        fn prop_makespan_between_busiest_lane_and_serial_sum(
            ops in proptest::collection::vec(0u64..(1 << 24), 1..64),
            lanes in 1usize..5,
        ) {
            let ops = decode(&ops, lanes);
            let mut lane_set = vec![Lane::new(); lanes];
            let done = schedule(&ops, |l, ready, cost| lane_set[l].run(ready, cost));
            let serial: Secs = ops.iter().map(|op| op.cost).sum();
            let makespan = done.iter().copied().fold(0.0, f64::max);
            let busiest = lane_set.iter().map(|l| l.busy).fold(0.0, f64::max);
            proptest::prop_assert!(makespan >= busiest);
            proptest::prop_assert!(makespan <= serial);
            if lanes == 1 {
                // Every dependency is on an earlier op of the one lane,
                // which is idle from 0 to the end of the last.
                proptest::prop_assert_eq!(makespan, serial);
            }
        }

        #[test]
        fn prop_every_op_finishes_no_later_than_on_fifo_lanes(
            ops in proptest::collection::vec(0u64..(1 << 24), 1..64),
            lanes in 1usize..5,
        ) {
            let ops = decode(&ops, lanes);
            let mut lane_set = vec![Lane::new(); lanes];
            let mut fifo = vec![Fifo::default(); lanes];
            let served = schedule(&ops, |l, ready, cost| lane_set[l].run(ready, cost));
            let queued = schedule(&ops, |l, ready, cost| fifo[l].run(ready, cost));
            for (i, (s, q)) in served.iter().zip(&queued).enumerate() {
                proptest::prop_assert!(s <= q, "op {}: {} > {}", i, s, q);
            }
            for (lane, f) in lane_set.iter().zip(&fifo) {
                proptest::prop_assert!(lane.free_at <= f.free_at);
            }
        }

        #[test]
        fn prop_non_decreasing_ready_is_fifo_bit_for_bit(
            steps in proptest::collection::vec(0u64..(1 << 16), 1..64),
        ) {
            // Ready times that never decrease, costs of any magnitude.
            let (mut lane, mut fifo, mut ready) = (Lane::new(), Fifo::default(), 0.0);
            for &s in &steps {
                ready += (s & 0xff) as f64 * 0.37;
                let cost = (s >> 8) as f64 * 0.11;
                proptest::prop_assert_eq!(lane.run(ready, cost), fifo.run(ready, cost));
            }
            proptest::prop_assert_eq!(lane.free_at, fifo.free_at);
        }

        #[test]
        fn prop_legs_at_one_ready_end_with_the_busiest_nodes_sum(
            legs in proptest::collection::vec(0u64..(1 << 16), 0..64),
            lanes in 1usize..5,
            at in 0u64..256,
        ) {
            // The degenerate case: independent `(node, cost)` legs, all
            // ready at once, on fresh lanes. Each node runs its own legs
            // back to back, so the last completion is the busiest node's
            // in-order sum — from 0 bit for bit for costs of any
            // magnitude, and from any `ready` for exact (1/64 s) costs.
            let decode = |unit: f64| -> Vec<(usize, Secs)> {
                (legs.iter())
                    .map(|&l| ((l & 0xff) as usize % lanes, (l >> 8) as f64 * unit))
                    .collect()
            };
            let end = |ready: Secs, legs: &[(usize, Secs)]| {
                let mut nodes = vec![Lane::new(); lanes];
                (legs.iter())
                    .map(|&(n, cost)| nodes[n].run(ready, cost))
                    .fold(ready, f64::max)
            };
            let busiest = |legs: &[(usize, Secs)]| {
                let mut sums = vec![0.0; lanes];
                for &(n, cost) in legs {
                    sums[n] += cost;
                }
                sums.into_iter().fold(0.0, f64::max)
            };
            let (any, exact) = (decode(0.11), decode(1.0 / 64.0));
            proptest::prop_assert_eq!(end(0.0, &any), busiest(&any));
            let ready = at as f64 / 64.0;
            proptest::prop_assert_eq!(end(ready, &exact), ready + busiest(&exact));
        }

        #[test]
        fn prop_no_two_ops_on_a_lane_overlap(
            ops in proptest::collection::vec(0u64..(1 << 24), 1..64),
            lanes in 1usize..5,
        ) {
            let ops = decode(&ops, lanes);
            let mut lane_set = vec![Lane::new(); lanes];
            let done = schedule(&ops, |l, ready, cost| lane_set[l].run(ready, cost));
            for lane in 0..lanes {
                let mut spans: Vec<(Secs, Secs)> = (ops.iter().zip(&done))
                    .filter(|(op, _)| op.lane == lane && op.cost > 0.0)
                    .map(|(op, &end)| (end - op.cost, end))
                    .collect();
                spans.sort_by(|a, b| a.0.total_cmp(&b.0));
                for pair in spans.windows(2) {
                    proptest::prop_assert!(pair[0].1 <= pair[1].0, "{:?}", pair);
                }
            }
            let starts_after_ready = (ops.iter().zip(&done))
                .all(|(op, &end)| end - op.cost >= op.dep.map_or(0.0, |d| done[d]));
            proptest::prop_assert!(starts_after_ready);
        }
    }
}
