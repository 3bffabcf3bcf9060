//! Typed index errors — the index-layer half of the DEBAR error taxonomy
//! (`debar_core::DebarError` wraps these).

use debar_simio::{Device, Faulted, InjectedFault};
use std::fmt;

/// A fallible disk-index sweep's error.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexError {
    /// An index disk operation failed; nothing of the batch was applied
    /// (SIL read sweeps and failed SIU write sweeps are all-or-nothing).
    SweepFault {
        /// The part-disk the fault fired on (part 0 is the volume).
        device: Device,
        /// The injected fault that fired.
        fault: InjectedFault,
    },
    /// An SIU write sweep was torn: only the first `applied` updates of
    /// the canonically sorted batch are durable. Re-running the same
    /// batch is idempotent and converges to the uninterrupted result.
    PartialSweep {
        /// Updates durable before the tear (canonical-order prefix).
        applied: u64,
        /// Updates in the batch.
        total: u64,
        /// The part-disk the tear fired on (part 0 is the volume).
        device: Device,
        /// The injected fault that fired.
        fault: InjectedFault,
    },
}

impl IndexError {
    /// The underlying injected fault.
    pub fn fault(&self) -> InjectedFault {
        match self {
            IndexError::SweepFault { fault, .. } | IndexError::PartialSweep { fault, .. } => *fault,
        }
    }

    /// The part-disk the fault fired on.
    pub fn device(&self) -> Device {
        match self {
            IndexError::SweepFault { device, .. } | IndexError::PartialSweep { device, .. } => {
                *device
            }
        }
    }
}

impl From<Faulted> for IndexError {
    fn from(f: Faulted) -> Self {
        IndexError::SweepFault {
            device: f.device,
            fault: f.fault,
        }
    }
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::SweepFault { device, fault } => {
                write!(f, "index sweep failed on {device}: {fault}")
            }
            IndexError::PartialSweep {
                applied,
                total,
                device,
                fault,
            } => write!(
                f,
                "index update sweep torn after {applied}/{total} updates on {device}: {fault}"
            ),
        }
    }
}

impl std::error::Error for IndexError {}
