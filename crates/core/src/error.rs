//! The DEBAR error taxonomy: every fallible public operation across the
//! stack returns `Result<T, `[`DebarError`]`>`.
//!
//! Lower layers carry their own typed errors
//! ([`debar_store::StoreError`], [`debar_index::IndexError`]) and convert
//! into [`DebarError`] at the cluster boundary, so a fault injected on a
//! simulated disk three crates down surfaces to the caller as one typed,
//! matchable value — never a panic. See the crate-level "Failure model &
//! error taxonomy" section for the full contract, including which errors
//! are *resumable* (re-running the failed operation converges to the
//! uninterrupted result).

use crate::ids::{JobId, RunId, ServerId};
use debar_hash::{ContainerId, Fingerprint};
use debar_index::IndexError;
use debar_simio::InjectedFault;
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
    /// A simulated disk operation failed outright.
    DiskFault {
        /// The injected fault that fired.
        fault: InjectedFault,
    },
    /// A single **repository node** disk failed: the replicated physical
    /// repository puts every storage node on its own device, so a fault
    /// can take out exactly one node's read or write — this error names
    /// it. Reads fail over to surviving replicas; a store fault persists
    /// nothing anywhere and re-running the round converges.
    RepoNodeFault {
        /// The failing repository node.
        node: usize,
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
    /// A single **part-disk** of a striped index sweep failed: the
    /// physical multi-part model puts every sweep partition on its own
    /// device, so a fault can take out exactly one partition — this error
    /// names it. The stripe's other part-disks are unaffected; re-running
    /// the interrupted operation after the fault clears converges.
    PartDiskFault {
        /// The failing part-disk (partition index within the stripe).
        part: u32,
        /// The injected fault that fired.
        fault: InjectedFault,
    },
    /// A single **worker disk** of a striped chunk-log drain failed: the
    /// pipelined chunk-storing phase stripes each server's drain across
    /// `store_workers` devices, so a fault can take out exactly one
    /// worker's share — this error names it. The whole log stays intact
    /// (the read pointer never advanced on any worker); re-running the
    /// interrupted round after the fault clears replays identically.
    LogWorkerFault {
        /// The failing worker disk (index within the drain stripe).
        worker: u32,
        /// The injected fault that fired.
        fault: InjectedFault,
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
    /// the cluster rolled the round back to a crash-consistent state
    /// (undetermined fingerprints restored, chunk-log records re-queued,
    /// storage decisions carried over, the round not committed); calling
    /// `run_dedup2` again re-runs the same round and converges to the
    /// byte-identical result of an uninterrupted run.
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
        /// The server whose index-part update was interrupted.
        server: ServerId,
        /// Updates durable before the interruption (canonical order).
        applied: u64,
        /// Updates in the interrupted batch.
        total: u64,
        /// The injected fault that fired.
        fault: InjectedFault,
        /// The striped part-disk the fault fired on (`None` when the
        /// volume-level index disk faulted).
        part: Option<u32>,
    },
    /// Online scaling was requested while a server still holds staged
    /// dedup-2 state (run dedup-2 and `force_siu` first).
    NotQuiesced {
        /// The first non-quiesced server.
        server: ServerId,
    },
    /// Garbage collection was requested while a server still holds staged
    /// dedup-2 state — an in-flight backup races the collector. GC refuses
    /// the race with this typed error instead of risking reclaiming a
    /// chunk the staged round is about to reference; finish the round
    /// (`run_dedup2` + `force_siu`) and re-run GC.
    GcRace {
        /// The first server with staged (un-quiesced) dedup-2 state.
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
    /// A write targeted a repository node the health tracker has
    /// quarantined (its error count crossed the configured threshold).
    /// Writes refuse quarantined targets while enough healthy nodes
    /// remain to honor the replication factor; `repair_node` clears the
    /// quarantine.
    NodeQuarantined {
        /// The quarantined repository node.
        node: usize,
    },
}

impl fmt::Display for DebarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DebarError::CorruptContainer { container, reason } => {
                write!(f, "container {container:?} is corrupt: {reason}")
            }
            DebarError::DiskFault { fault } => write!(f, "disk fault: {fault}"),
            DebarError::RepoNodeFault { node, fault } => {
                write!(f, "repository node {node} fault: {fault}")
            }
            DebarError::NodeDown { node } => {
                write!(f, "repository node {node} is down")
            }
            DebarError::Unrecoverable { container, node } => {
                write!(
                    f,
                    "container {container:?} unrecoverable: every replica lost with node {node}"
                )
            }
            DebarError::PartDiskFault { part, fault } => {
                write!(f, "index part-disk {part} fault: {fault}")
            }
            DebarError::LogWorkerFault { worker, fault } => {
                write!(f, "chunk-log worker disk {worker} fault: {fault}")
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
                server,
                applied,
                total,
                fault,
                part,
            } => {
                let on_part = match part {
                    Some(p) => format!(" on part-disk {p}"),
                    None => String::new(),
                };
                write!(
                    f,
                    "SIU on server {server} interrupted after {applied}/{total} updates\
                     {on_part}: {fault} (re-run SIU to resume)"
                )
            }
            DebarError::NotQuiesced { server } => write!(
                f,
                "server {server} holds staged dedup-2 state; run dedup-2 + force_siu before scaling"
            ),
            DebarError::GcRace { server } => write!(
                f,
                "GC races an in-flight backup: server {server} holds staged dedup-2 state; \
                 run dedup-2 + force_siu, then re-run GC"
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
            DebarError::NodeQuarantined { node } => write!(
                f,
                "repository node {node} is quarantined; repair it before writing there"
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
            StoreError::DiskFault { node, fault } => DebarError::RepoNodeFault { node, fault },
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
            StoreError::NodeQuarantined { node } => DebarError::NodeQuarantined { node },
            // StoreError is non_exhaustive; future kinds surface as faults
            // at op 0 rather than panicking.
            _ => DebarError::DiskFault {
                fault: InjectedFault {
                    op: 0,
                    kind: debar_simio::FaultKind::Fail,
                },
            },
        }
    }
}

impl From<IndexError> for DebarError {
    fn from(e: IndexError) -> Self {
        match e.part() {
            Some(part) => DebarError::PartDiskFault {
                part,
                fault: e.fault(),
            },
            None => DebarError::DiskFault { fault: e.fault() },
        }
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
        let e = DebarError::GcRace { server: 2 };
        assert!(e.to_string().contains("server 2"), "{e}");
        assert!(e.to_string().contains("re-run GC"), "{e}");
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
        let e: DebarError = StoreError::DiskFault { node: 3, fault }.into();
        assert_eq!(e, DebarError::RepoNodeFault { node: 3, fault });
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
        let e: DebarError = StoreError::NodeQuarantined { node: 1 }.into();
        assert_eq!(e, DebarError::NodeQuarantined { node: 1 });
        assert!(e.to_string().contains("quarantined"), "{e}");
    }

    #[test]
    fn interrupted_error_chains_its_cause() {
        use std::error::Error;
        let cause = DebarError::DiskFault {
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
