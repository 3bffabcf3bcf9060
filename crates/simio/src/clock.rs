//! Virtual time.

use crate::timed::Timed;

/// Virtual seconds. `f64` keeps rate arithmetic exact enough (sub-nanosecond
/// error over month-long simulated horizons) and is deterministic across
/// platforms (IEEE 754).
pub type Secs = f64;

/// A monotonically advancing virtual clock.
///
/// Each sequential execution context (a backup server, a client, the
/// director) owns one clock; a parallel phase ends at the `max` over its
/// participants' clocks ([`VirtualClock::advance_to`] aligns them).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VirtualClock {
    now: Secs,
}

impl VirtualClock {
    /// A clock at time zero.
    pub fn new() -> Self {
        VirtualClock { now: 0.0 }
    }

    /// Current virtual time.
    pub fn now(&self) -> Secs {
        self.now
    }

    /// Advance by a non-negative duration.
    ///
    /// # Panics
    /// Panics (debug) on negative or NaN durations — a sign of a broken cost
    /// model.
    #[inline]
    pub fn advance(&mut self, dt: Secs) {
        debug_assert!(dt >= 0.0 && dt.is_finite(), "invalid duration {dt}");
        self.now += dt;
    }

    /// Consume a [`Timed`] result: advance by its cost, return its value.
    #[inline]
    pub fn charge<T>(&mut self, timed: Timed<T>) -> T {
        self.advance(timed.cost);
        timed.value
    }

    /// Jump forward so that `now() >= t` (no-op if already past `t`).
    /// Used to align a clock with a phase barrier.
    pub fn advance_to(&mut self, t: Secs) {
        if t > self.now {
            self.now = t;
        }
    }

    /// Elapsed time since an earlier reading of this clock.
    pub fn since(&self, mark: Secs) -> Secs {
        self.now - mark
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_accumulates() {
        let mut c = VirtualClock::new();
        assert_eq!(c.now(), 0.0);
        c.advance(1.5);
        c.advance(0.5);
        assert_eq!(c.now(), 2.0);
    }

    #[test]
    fn charge_returns_value() {
        let mut c = VirtualClock::new();
        let v = c.charge(Timed::new(42u32, 3.0));
        assert_eq!(v, 42);
        assert_eq!(c.now(), 3.0);
    }

    #[test]
    fn advance_to_is_monotone() {
        let mut c = VirtualClock::new();
        c.advance(5.0);
        c.advance_to(3.0); // no-op
        assert_eq!(c.now(), 5.0);
        c.advance_to(8.0);
        assert_eq!(c.now(), 8.0);
    }

    #[test]
    fn since_measures_deltas() {
        let mut c = VirtualClock::new();
        let mark = c.now();
        c.advance(2.25);
        assert_eq!(c.since(mark), 2.25);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn negative_advance_panics() {
        VirtualClock::new().advance(-1.0);
    }
}
