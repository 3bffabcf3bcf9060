//! Typed index errors — the index-layer half of the DEBAR error taxonomy
//! (`debar_core::DebarError` wraps these).

use debar_simio::{InjectedFault, PartFault};
use std::fmt;

/// A fallible disk-index sweep's error.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexError {
    /// An index disk operation failed; nothing of the batch was applied
    /// (SIL read sweeps and failed SIU write sweeps are all-or-nothing).
    SweepFault {
        /// The injected fault that fired.
        fault: InjectedFault,
        /// The part-disk the fault fired on (part 0 is the volume).
        part: u32,
    },
    /// An SIU write sweep was torn: only the first `applied` updates of
    /// the canonically sorted batch are durable. Re-running the same
    /// batch is idempotent and converges to the uninterrupted result.
    PartialSweep {
        /// Updates durable before the tear (canonical-order prefix).
        applied: u64,
        /// Updates in the batch.
        total: u64,
        /// The injected fault that fired.
        fault: InjectedFault,
        /// The part-disk the tear fired on (part 0 is the volume).
        part: u32,
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
    pub fn part(&self) -> u32 {
        match self {
            IndexError::SweepFault { part, .. } | IndexError::PartialSweep { part, .. } => *part,
        }
    }
}

impl From<PartFault> for IndexError {
    fn from(f: PartFault) -> Self {
        IndexError::SweepFault {
            fault: f.fault,
            part: f.part,
        }
    }
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::SweepFault { fault, part } => {
                write!(f, "index sweep failed on part-disk {part}: {fault}")
            }
            IndexError::PartialSweep {
                applied,
                total,
                fault,
                part,
            } => write!(
                f,
                "index update sweep torn after {applied}/{total} updates on part-disk {part}: {fault}"
            ),
        }
    }
}

impl std::error::Error for IndexError {}
