//! A value paired with its virtual-time cost.

use crate::clock::Secs;

/// The result of a simulated operation: the value produced and the virtual
/// time the operation consumed. Callers add the cost to their own
/// [`crate::VirtualClock`] (usually via [`crate::VirtualClock::charge`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timed<T> {
    /// The operation's result.
    pub value: T,
    /// Virtual seconds consumed.
    pub cost: Secs,
}

impl<T> Timed<T> {
    /// Pair a value with a cost.
    pub fn new(value: T, cost: Secs) -> Self {
        debug_assert!(cost >= 0.0 && cost.is_finite(), "invalid cost {cost}");
        Timed { value, cost }
    }

    /// A zero-cost value.
    pub fn free(value: T) -> Self {
        Timed { value, cost: 0.0 }
    }

    /// Transform the value, keeping the cost.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Timed<U> {
        Timed {
            value: f(self.value),
            cost: self.cost,
        }
    }

    /// Add extra cost to this result.
    pub fn plus(mut self, extra: Secs) -> Self {
        debug_assert!(extra >= 0.0 && extra.is_finite());
        self.cost += extra;
        self
    }

    /// Combine with another timed value, summing costs.
    pub fn and<U>(self, other: Timed<U>) -> Timed<(T, U)> {
        Timed {
            value: (self.value, other.value),
            cost: self.cost + other.cost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_map() {
        let t = Timed::new(10u32, 1.0).map(|v| v * 2);
        assert_eq!(t.value, 20);
        assert_eq!(t.cost, 1.0);
    }

    #[test]
    fn free_has_zero_cost() {
        assert_eq!(Timed::free("x").cost, 0.0);
    }

    #[test]
    fn plus_and_and_accumulate() {
        let t = Timed::new(1u8, 1.0).plus(0.5).and(Timed::new(2u8, 2.0));
        assert_eq!(t.value, (1, 2));
        assert_eq!(t.cost, 3.5);
    }
}
