//! Deterministic fault injection for simulated disks.
//!
//! A [`FaultPlan`] is a schedule of one-shot faults keyed by a disk's
//! operation counter: every [`crate::SimDisk`] operation (sequential or
//! random, read or write, striped or not) ticks the counter by one, and
//! when the counter reaches an armed [`FaultSpec::at_op`] the fault fires
//! exactly once. Because both the workload and the op counter are
//! deterministic, the *same* plan against the *same* workload injects the
//! *same* fault every run — which is what lets crash-consistency tests
//! assert byte-identical convergence after a re-run.
//!
//! **One checked charge.** Every op returns a [`Charge`]: its cost, or a
//! [`Faulted`] — the [`Device`] it fired on, the fault and the time the
//! device spent failing; a striped op fails with the `Faulted` of its
//! lowest faulted part, its siblings' faults spent with it. No fault
//! outlives the op that fired it. The disk holds no payload bytes, so the
//! *storage layer using the disk* (chunk repository, disk index, chunk
//! log) translates a fault into its typed error and/or data damage, the
//! device passed up as the disk named it:
//!
//! * [`FaultKind::Fail`] — the operation fails outright (device error).
//!   Nothing is persisted by a failed write; a failed read returns no data.
//! * [`FaultKind::TornWrite`] — the write *appears* to succeed (it was
//!   buffered) but only a prefix of the bytes is durable; the damage is
//!   detected later, at read time, by the container checksum trailer.
//! * [`FaultKind::BitFlip`] — the write appears to succeed but a bit of
//!   the persisted bytes rots (latent sector corruption); detected at read
//!   time by the checksum trailer.
//! * [`FaultKind::Transient { fails_for }`] — the operation fails like
//!   [`FaultKind::Fail`] but the fault *re-arms itself* for the next
//!   `fails_for - 1` operations on the same disk, then clears: a caller
//!   that retries within that budget eventually succeeds. This models
//!   transient device errors (bus resets, path flaps) that a
//!   [`RetryPolicy`] is designed to absorb.

use crate::clock::Secs;
use crate::device::Device;
use std::fmt;

/// The kind of an injected disk fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation fails outright (device error): a failed write persists
    /// nothing, a failed read returns nothing.
    Fail,
    /// A write persists only a prefix of its bytes (crash before sync).
    /// Silent at write time; detected at read time by checksums.
    TornWrite,
    /// A bit of the persisted bytes flips (latent sector corruption).
    /// Silent at write time; detected at read time by checksums.
    BitFlip,
    /// A transient device error: the operation fails like [`FaultKind::Fail`]
    /// but the fault re-arms for the next operation on the same disk until
    /// it has failed `fails_for` operations in total, then clears. A caller
    /// retrying under a [`RetryPolicy`] with `max_attempts > fails_for`
    /// never observes the fault.
    Transient {
        /// How many consecutive operations (attempts) still fail, counting
        /// this one. Always at least 1 when armed.
        fails_for: u32,
    },
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Fail => write!(f, "I/O failure"),
            FaultKind::TornWrite => write!(f, "torn write"),
            FaultKind::BitFlip => write!(f, "bit flip"),
            FaultKind::Transient { fails_for } => {
                write!(f, "transient I/O failure ({fails_for} attempts left)")
            }
        }
    }
}

/// Retry policy for fault-checked repository operations.
///
/// `max_attempts` is the *total* number of tries (1 = no retries — the
/// default, preserving fail-fast semantics). Each retry after a failed
/// attempt charges `backoff_cost` seconds of simulated time to the disk
/// that failed, modelling the backoff wait plus the re-issued I/O setup.
/// Exhausting the budget surfaces a typed retries-exhausted error naming
/// the node instead of the raw device fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per fault-checked operation; at least 1.
    pub max_attempts: u32,
    /// Simulated seconds charged to the failing disk per retry.
    pub backoff_cost: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff_cost: 0.0,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (one attempt, no backoff).
    pub fn none() -> Self {
        RetryPolicy::default()
    }

    /// A policy with `max_attempts` total attempts and `backoff_cost`
    /// simulated seconds charged per retry.
    pub fn new(max_attempts: u32, backoff_cost: f64) -> Self {
        RetryPolicy {
            max_attempts,
            backoff_cost,
        }
    }

    /// Whether this policy allows any retry at all.
    pub fn retries(&self) -> bool {
        self.max_attempts > 1
    }
}

/// One armed fault: fire `kind` when the disk's op counter reaches `at_op`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Zero-based disk-operation index the fault fires on.
    pub at_op: u64,
    /// What happens to that operation.
    pub kind: FaultKind,
}

/// A deterministic schedule of one-shot disk faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan with a single outright failure at operation `at_op`.
    pub fn fail_at(at_op: u64) -> Self {
        FaultPlan::none().with(FaultSpec {
            at_op,
            kind: FaultKind::Fail,
        })
    }

    /// A plan with a single torn write at operation `at_op`.
    pub fn torn_write_at(at_op: u64) -> Self {
        FaultPlan::none().with(FaultSpec {
            at_op,
            kind: FaultKind::TornWrite,
        })
    }

    /// A plan with a single bit flip at operation `at_op`.
    pub fn bit_flip_at(at_op: u64) -> Self {
        FaultPlan::none().with(FaultSpec {
            at_op,
            kind: FaultKind::BitFlip,
        })
    }

    /// A plan with a transient failure starting at operation `at_op` that
    /// fails `fails_for` consecutive operations, then clears. `fails_for`
    /// is clamped to at least 1.
    pub fn transient_at(at_op: u64, fails_for: u32) -> Self {
        FaultPlan::none().with(FaultSpec {
            at_op,
            kind: FaultKind::Transient {
                fails_for: fails_for.max(1),
            },
        })
    }

    /// Builder: add another armed fault.
    pub fn with(mut self, spec: FaultSpec) -> Self {
        self.faults.push(spec);
        self.faults.sort_by_key(|s| s.at_op);
        self
    }

    /// Whether any fault is still armed.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Consume (and return the kind of) the fault armed for `op`, if any.
    ///
    /// A [`FaultKind::Transient`] with more than one failure left re-arms
    /// itself for the next operation (`op + 1`) with its budget decremented,
    /// so consecutive operations on the same disk keep failing until the
    /// transient clears.
    pub(crate) fn take(&mut self, op: u64) -> Option<FaultKind> {
        let i = self.faults.iter().position(|s| s.at_op == op)?;
        let kind = self.faults.remove(i).kind;
        if let FaultKind::Transient { fails_for } = kind {
            if fails_for > 1 {
                self.faults.push(FaultSpec {
                    at_op: op + 1,
                    kind: FaultKind::Transient {
                        fails_for: fails_for - 1,
                    },
                });
                self.faults.sort_by_key(|s| s.at_op);
            }
        }
        Some(kind)
    }
}

/// A fault that has fired: the op it fired on and its kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// The disk-operation index the fault fired on.
    pub op: u64,
    /// The fault kind.
    pub kind: FaultKind,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} injected at disk op {}", self.kind, self.op)
    }
}

/// An op whose armed fault fired, the device it fired on, and what the op
/// cost: the device was busy failing all the same.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Faulted {
    /// The device the fault fired on.
    pub device: Device,
    /// The fault that fired on the op.
    pub fault: InjectedFault,
    /// What the op cost the device.
    pub cost: Secs,
}

/// What one disk op returns: its cost (or per-leg costs), or the fault
/// that fired on it.
pub type Charge<T = Secs> = Result<T, Faulted>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_consumes_one_shot() {
        let mut p = FaultPlan::fail_at(3).with(FaultSpec {
            at_op: 5,
            kind: FaultKind::BitFlip,
        });
        assert!(p.take(0).is_none());
        assert_eq!(p.take(3), Some(FaultKind::Fail));
        assert!(p.take(3).is_none(), "one-shot: consumed");
        assert_eq!(p.take(5), Some(FaultKind::BitFlip));
        assert!(p.is_empty());
    }

    #[test]
    fn transient_rearms_then_clears() {
        let mut p = FaultPlan::transient_at(4, 3);
        assert!(p.take(3).is_none());
        assert_eq!(p.take(4), Some(FaultKind::Transient { fails_for: 3 }));
        assert_eq!(p.take(5), Some(FaultKind::Transient { fails_for: 2 }));
        assert_eq!(p.take(6), Some(FaultKind::Transient { fails_for: 1 }));
        assert!(p.take(7).is_none(), "budget spent: transient cleared");
        assert!(p.is_empty());
    }

    #[test]
    fn transient_rearm_only_hits_consecutive_ops() {
        // If the caller does not re-issue the very next op, the re-armed
        // transient waits there (the standard next-op semantics of at_op).
        let mut p = FaultPlan::transient_at(2, 2);
        assert_eq!(p.take(2), Some(FaultKind::Transient { fails_for: 2 }));
        assert!(p.take(4).is_none());
        assert_eq!(
            p.take(3),
            Some(FaultKind::Transient { fails_for: 1 }),
            "re-armed at the consecutive op"
        );
        assert!(p.is_empty());
    }

    #[test]
    fn retry_policy_default_is_fail_fast() {
        let p = RetryPolicy::default();
        assert_eq!(p.max_attempts, 1);
        assert_eq!(p.backoff_cost, 0.0);
        assert!(!p.retries());
        assert!(RetryPolicy::new(3, 0.5).retries());
    }

    #[test]
    fn display_is_descriptive() {
        let f = InjectedFault {
            op: 7,
            kind: FaultKind::TornWrite,
        };
        assert_eq!(f.to_string(), "torn write injected at disk op 7");
    }
}
