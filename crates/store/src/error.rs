//! Typed storage errors — the store-layer half of the DEBAR error
//! taxonomy (`debar_core::DebarError` wraps these via `From`).

use crate::container::CorruptKind;
use debar_hash::ContainerId;
use debar_simio::{Device, InjectedFault};
use std::fmt;

/// A fallible chunk-storage operation's error.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreError {
    /// A container's bytes failed validation (checksum trailer, magic,
    /// version or structural bounds) — torn writes and bit rot are
    /// *detected*, never silently read.
    CorruptContainer {
        /// The corrupt container.
        container: ContainerId,
        /// What the validation found.
        reason: CorruptKind,
    },
    /// A storage-node disk operation failed outright.
    DiskFault {
        /// The repository node whose disk faulted ([`Device::RepoNode`]).
        device: Device,
        /// The injected fault that fired.
        fault: InjectedFault,
    },
    /// A container listed or referenced by metadata does not exist.
    MissingContainer {
        /// The absent container.
        container: ContainerId,
    },
    /// A node id outside the cluster was used (arm-time validation: the
    /// plan/operation could never apply to a real node).
    UnknownNode {
        /// The requested node.
        node: usize,
        /// How many nodes the repository has.
        nodes: usize,
    },
    /// The operation targeted a node that is down (unreachable until
    /// revived or repaired).
    NodeDown {
        /// The downed node.
        node: usize,
    },
    /// Every replica of a container is lost — no surviving healthy copy
    /// exists to read or repair from (the `replication = 1` node-loss
    /// case).
    Unrecoverable {
        /// The container with no surviving copy.
        container: ContainerId,
        /// The node whose loss made it unrecoverable.
        node: usize,
    },
    /// A fault-checked operation kept failing after every attempt the
    /// retry policy allows (`max_attempts` total tries with backoff).
    RetriesExhausted {
        /// The node whose disk kept failing.
        node: usize,
        /// Total attempts made before giving up.
        attempts: u32,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::CorruptContainer { container, reason } => {
                write!(f, "container {container:?} is corrupt: {reason}")
            }
            StoreError::DiskFault { device, fault } => write!(f, "{device} fault: {fault}"),
            StoreError::MissingContainer { container } => {
                write!(f, "container {container:?} does not exist")
            }
            StoreError::UnknownNode { node, nodes } => {
                write!(f, "storage node {node} outside the {nodes}-node repository")
            }
            StoreError::NodeDown { node } => {
                write!(f, "storage node {node} is down")
            }
            StoreError::Unrecoverable { container, node } => {
                write!(
                    f,
                    "container {container:?} unrecoverable: every replica lost with node {node}"
                )
            }
            StoreError::RetriesExhausted { node, attempts } => {
                write!(
                    f,
                    "storage node {node} still failing after {attempts} attempts"
                )
            }
        }
    }
}

impl std::error::Error for StoreError {}
