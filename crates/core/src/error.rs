//! The DEBAR error taxonomy: every fallible public operation across the
//! stack returns `Result<T, `[`DebarError`]`>`.
//!
//! Lower layers carry their own typed errors
//! ([`debar_store::StoreError`], [`debar_index::IndexError`]) and convert
//! into [`DebarError`] with `?`, so a fault injected on a simulated disk
//! three crates down surfaces to the caller as one typed, matchable value
//! naming the failed [`Device`] — the address the disk was built with,
//! passed up unchanged — never a panic. See the
//! crate-level "Failure model & error taxonomy" section for the full
//! contract, including which errors are *resumable* (re-running the
//! failed operation converges to the uninterrupted result).

use crate::ids::{Device, JobId, RunId, ServerId};
use debar_hash::{ContainerId, Fingerprint};
use debar_index::IndexError;
use debar_simio::{Faulted, InjectedFault};
use debar_store::{CorruptKind, StoreError};
use std::fmt;

/// Result alias for fallible DEBAR operations.
pub type DebarResult<T> = Result<T, DebarError>;

/// The dedup-2 phase an interruption occurred in (paper Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dedup2Phase {
    /// Parallel sequential index lookup (§5.2).
    Sil,
    /// Chunk storing (§5.3).
    ChunkStoring,
}

impl fmt::Display for Dedup2Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dedup2Phase::Sil => write!(f, "PSIL"),
            Dedup2Phase::ChunkStoring => write!(f, "chunk storing"),
        }
    }
}

/// A typed DEBAR failure.
///
/// The enum is `non_exhaustive`: new failure kinds may be added without a
/// breaking change, so downstream matches need a wildcard arm.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub enum DebarError {
    /// A container's persisted bytes failed validation (checksum trailer,
    /// magic, version, structural bounds, or a chunk payload that no
    /// longer hashes back to its fingerprint).
    CorruptContainer {
        /// The corrupt container.
        container: ContainerId,
        /// What the validation found.
        reason: CorruptKind,
    },
    /// An injected fault fired on one simulated device. Every component
    /// puts each partition on its own device, so a fault takes out exactly
    /// one repository node, index part-disk or chunk-log worker disk, and
    /// `device` is the address it was armed with
    /// ([`crate::DebarCluster::arm`]). Repository reads fail over to
    /// surviving replicas; every other faulted operation persists nothing
    /// and re-running it after the fault clears converges.
    DeviceFault {
        /// The device the fault fired on.
        device: Device,
        /// The injected fault that fired.
        fault: InjectedFault,
    },
    /// The operation needed a repository node that is down (unreachable
    /// until revived or repaired).
    NodeDown {
        /// The downed repository node.
        node: usize,
    },
    /// Every replica of a container is lost — no surviving healthy copy
    /// exists to read or repair from (the `replication = 1` node-loss
    /// case). Not resumable: revive the downed node or restore from a
    /// replica to proceed.
    Unrecoverable {
        /// The container with no surviving copy.
        container: ContainerId,
        /// The repository node whose loss made it unrecoverable.
        node: usize,
    },
    /// A chunk referenced by a file index could not be resolved or read.
    MissingChunk {
        /// The unresolvable fingerprint.
        fp: Fingerprint,
        /// The container the index mapped it to, if resolution succeeded.
        container: Option<ContainerId>,
    },
    /// A container listed or referenced by metadata does not exist.
    MissingContainer {
        /// The absent container.
        container: ContainerId,
    },
    /// The run is not recorded in the director's metadata.
    UnknownRun {
        /// The unknown run.
        run: RunId,
    },
    /// The run exists but holds no file at the given path.
    UnknownPath {
        /// The run searched.
        run: RunId,
        /// The path that matched no file index.
        path: String,
    },
    /// The job is not registered with the director.
    UnknownJob {
        /// The unknown job.
        job: JobId,
    },
    /// The backup server is outside the cluster (`server >= 2^w`).
    UnknownServer {
        /// The unknown server.
        server: ServerId,
    },
    /// A deployment configuration's index geometry is inconsistent.
    IndexGeometry {
        /// What the validation found.
        reason: String,
    },
    /// A dedup-2 round was interrupted mid-phase by a fault. **Resumable:**
    /// the faulted phase had not committed, so the cluster is in a
    /// crash-consistent state (undetermined fingerprints, chunk logs and
    /// decision maps hold everything no commit made durable, the round is
    /// not committed); calling `run_dedup2` again re-runs the same round
    /// and converges to the byte-identical result of an uninterrupted run.
    InterruptedDedup2 {
        /// The (uncommitted) round number.
        round: u32,
        /// The phase the fault fired in.
        phase: Dedup2Phase,
        /// The server whose device faulted.
        server: ServerId,
        /// The underlying failure.
        cause: Box<DebarError>,
    },
    /// A sequential index update was interrupted; only the first `applied`
    /// of `total` canonical updates are durable. **Resumable:** the
    /// server keeps its pending updates and checking file; re-running SIU
    /// (`force_siu` or the next dedup-2 round) re-applies the whole batch
    /// idempotently and converges byte-for-byte.
    PartialSiu {
        /// The index part-disk whose fault interrupted the update (always
        /// a [`Device::IndexPart`]; its `server` owns the index part).
        device: Device,
        /// Updates durable before the interruption (canonical order).
        applied: u64,
        /// Updates in the interrupted batch.
        total: u64,
        /// The injected fault that fired.
        fault: InjectedFault,
    },
    /// Online scaling, a scrub or garbage collection was requested while a
    /// server still holds staged dedup-2 state — an in-flight backup races
    /// the operation. It refuses the race with this typed error (GC, for
    /// one, could reclaim a chunk the staged round is about to reference);
    /// finish the round (`run_dedup2` + `force_siu`) and re-run it.
    NotQuiesced {
        /// The first non-quiesced server.
        server: ServerId,
    },
    /// `delete_run` targeted a run inside the retention window: the run is
    /// one of the newest `retention` versions of its job and is protected
    /// from deletion.
    RetainedRun {
        /// The protected run.
        run: RunId,
        /// The retention window that protects it.
        retention: u32,
    },
    /// A repository node kept failing after every attempt the configured
    /// retry policy allows (`max_attempts` total tries with backoff). The
    /// fault out-lived the retry budget — it is behaving like a permanent
    /// failure, not a transient one. Repair or revive the node (or raise
    /// the budget) and re-run.
    RetriesExhausted {
        /// The repository node whose disk kept failing.
        node: usize,
        /// Total attempts made before giving up.
        attempts: u32,
    },
}

impl fmt::Display for DebarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DebarError::CorruptContainer { container, reason } => {
                write!(f, "container {container:?} is corrupt: {reason}")
            }
            DebarError::DeviceFault { device, fault } => write!(f, "{device} fault: {fault}"),
            DebarError::NodeDown { node } => {
                write!(f, "repository node {node} is down")
            }
            DebarError::Unrecoverable { container, node } => {
                write!(
                    f,
                    "container {container:?} unrecoverable: every replica lost with node {node}"
                )
            }
            DebarError::MissingChunk { fp, container } => match container {
                Some(cid) => write!(f, "chunk {fp:?} missing from container {cid:?}"),
                None => write!(f, "chunk {fp:?} is not resolvable in any index part"),
            },
            DebarError::MissingContainer { container } => {
                write!(f, "container {container:?} does not exist")
            }
            DebarError::UnknownRun { run } => write!(f, "unknown run {run}"),
            DebarError::UnknownPath { run, path } => {
                write!(f, "run {run} holds no file at path {path:?}")
            }
            DebarError::UnknownJob { job } => write!(f, "unknown job {job:?}"),
            DebarError::UnknownServer { server } => write!(f, "unknown backup server {server}"),
            DebarError::IndexGeometry { reason } => {
                write!(f, "inconsistent index geometry: {reason}")
            }
            DebarError::InterruptedDedup2 {
                round,
                phase,
                server,
                cause,
            } => write!(
                f,
                "dedup-2 round {round} interrupted in {phase} on server {server}: {cause} \
                 (re-run dedup-2 to resume)"
            ),
            DebarError::PartialSiu {
                device,
                applied,
                total,
                fault,
            } => write!(
                f,
                "SIU interrupted on {device} after {applied}/{total} updates: {fault} \
                 (re-run SIU to resume)"
            ),
            DebarError::NotQuiesced { server } => write!(
                f,
                "server {server} holds staged dedup-2 state; \
                 run dedup-2 + force_siu before scaling, scrubbing or collecting garbage"
            ),
            DebarError::RetainedRun { run, retention } => write!(
                f,
                "run {run} is inside the {retention}-version retention window and cannot be deleted"
            ),
            DebarError::RetriesExhausted { node, attempts } => write!(
                f,
                "repository node {node} still failing after {attempts} attempts; \
                 repair the node or raise the retry budget"
            ),
        }
    }
}

impl std::error::Error for DebarError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DebarError::InterruptedDedup2 { cause, .. } => Some(cause.as_ref()),
            _ => None,
        }
    }
}

impl From<StoreError> for DebarError {
    fn from(e: StoreError) -> Self {
        match e {
            StoreError::CorruptContainer { container, reason } => {
                DebarError::CorruptContainer { container, reason }
            }
            StoreError::DiskFault { device, fault } => DebarError::DeviceFault { device, fault },
            StoreError::MissingContainer { container } => {
                DebarError::MissingContainer { container }
            }
            StoreError::UnknownNode { node, nodes } => DebarError::IndexGeometry {
                reason: format!("repository node {node} outside the {nodes}-node cluster"),
            },
            StoreError::NodeDown { node } => DebarError::NodeDown { node },
            StoreError::Unrecoverable { container, node } => {
                DebarError::Unrecoverable { container, node }
            }
            StoreError::RetriesExhausted { node, attempts } => {
                DebarError::RetriesExhausted { node, attempts }
            }
            // StoreError is non_exhaustive: a future kind surfaces with its
            // own text rather than panicking or posing as a device fault.
            other => DebarError::IndexGeometry {
                reason: other.to_string(),
            },
        }
    }
}

impl From<IndexError> for DebarError {
    fn from(e: IndexError) -> Self {
        let (device, fault) = (e.device(), e.fault());
        DebarError::DeviceFault { device, fault }
    }
}

impl From<Faulted> for DebarError {
    fn from(f: Faulted) -> Self {
        let (device, fault) = (f.device, f.fault);
        DebarError::DeviceFault { device, fault }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_descriptive() {
        let e = DebarError::UnknownRun {
            run: RunId {
                job: JobId(3),
                version: 1,
            },
        };
        assert_eq!(e.to_string(), "unknown run job3v1");
        let e = DebarError::UnknownPath {
            run: RunId {
                job: JobId(0),
                version: 0,
            },
            path: "a/b".into(),
        };
        assert!(e.to_string().contains("a/b"));
    }

    #[test]
    fn gc_errors_display_their_context() {
        let e = DebarError::NotQuiesced { server: 2 };
        assert!(e.to_string().contains("server 2"), "{e}");
        assert!(e.to_string().contains("collecting garbage"), "{e}");
        let e = DebarError::RetainedRun {
            run: RunId {
                job: JobId(1),
                version: 4,
            },
            retention: 3,
        };
        assert!(e.to_string().contains("job1v4"), "{e}");
        assert!(e.to_string().contains("3-version retention"), "{e}");
    }

    #[test]
    fn store_error_conversion_preserves_variants() {
        let cid = ContainerId::new(7);
        let e: DebarError = StoreError::MissingContainer { container: cid }.into();
        assert_eq!(e, DebarError::MissingContainer { container: cid });
    }

    #[test]
    fn store_disk_fault_conversion_names_the_repo_node() {
        let fault = InjectedFault {
            op: 9,
            kind: debar_simio::FaultKind::Fail,
        };
        let device = Device::RepoNode(3);
        let e: DebarError = StoreError::DiskFault { device, fault }.into();
        assert_eq!(e, DebarError::DeviceFault { device, fault });
        assert_eq!(e.to_string(), format!("repository node 3 fault: {fault}"));
        let cid = ContainerId::new(11);
        let e: DebarError = StoreError::Unrecoverable {
            container: cid,
            node: 1,
        }
        .into();
        assert_eq!(
            e,
            DebarError::Unrecoverable {
                container: cid,
                node: 1
            }
        );
        let e: DebarError = StoreError::NodeDown { node: 2 }.into();
        assert_eq!(e, DebarError::NodeDown { node: 2 });
    }

    #[test]
    fn index_error_conversion_keeps_its_device() {
        let fault = InjectedFault {
            op: 4,
            kind: debar_simio::FaultKind::Fail,
        };
        let device = Device::IndexPart { server: 5, part: 2 };
        let e: DebarError = IndexError::SweepFault { device, fault }.into();
        assert_eq!(e, DebarError::DeviceFault { device, fault });
        assert!(e.to_string().contains("part-disk 2 of server 5"), "{e}");
        // A torn update sweep outside an SIU of its own is a device fault
        // too.
        let torn = IndexError::PartialSweep {
            applied: 1,
            total: 2,
            device,
            fault,
        };
        assert_eq!(DebarError::from(torn), e);
    }

    #[test]
    fn self_healing_errors_convert_and_display_their_context() {
        let e: DebarError = StoreError::RetriesExhausted {
            node: 4,
            attempts: 3,
        }
        .into();
        assert_eq!(
            e,
            DebarError::RetriesExhausted {
                node: 4,
                attempts: 3
            }
        );
        assert!(e.to_string().contains("node 4"), "{e}");
        assert!(e.to_string().contains("3 attempts"), "{e}");
    }

    #[test]
    fn interrupted_error_chains_its_cause() {
        use std::error::Error;
        let cause = DebarError::DeviceFault {
            device: Device::LogWorker {
                server: 0,
                worker: 0,
            },
            fault: InjectedFault {
                op: 3,
                kind: debar_simio::FaultKind::Fail,
            },
        };
        let e = DebarError::InterruptedDedup2 {
            round: 2,
            phase: Dedup2Phase::ChunkStoring,
            server: 0,
            cause: Box::new(cause),
        };
        assert!(e.source().is_some());
        assert!(e.to_string().contains("re-run dedup-2"));
    }
}
