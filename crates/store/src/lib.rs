//! # debar-store
//!
//! The chunk storage substrate (paper §3.4):
//!
//! * [`container`] — fixed-size (8 MB), self-describing containers: a
//!   metadata section (fingerprint, size, offset per chunk) ahead of the
//!   data section; 40-bit container IDs.
//! * [`manager`] — the Container Manager: fills containers in stream order
//!   (the SISL layout adopted from DDFS) and submits sealed containers to
//!   the repository, which assigns their IDs.
//! * [`repository`] — the chunk repository: a uniform container log across
//!   a cluster of physical, replicated storage nodes, providing the global
//!   de-duplication storage pool. Each container is written to
//!   `replication` distinct node disks; reads pick the healthiest,
//!   least-loaded replica and fail over to surviving copies past downed
//!   nodes, injected faults and corrupt copies (read-repairing corrupt
//!   ones inline); transient faults are absorbed by a retry policy with
//!   backoff; per-node error counts drive a health state machine
//!   (healthy → suspect → quarantined); and repair/scrub passes
//!   re-replicate what a lost node held or a scrub found damaged.
//! * [`lpc`] — locality-preserved caching (LPC): an LRU of containers'
//!   fingerprint sets; one container fetch turns the following stream-local
//!   chunk lookups into cache hits (paper §3.3/§6.2: 99.3% of random
//!   lookups eliminated).
//! * [`defrag`] — the defragmentation mechanism sketched in §6.3:
//!   re-aggregates a job's containers onto few storage nodes to restore
//!   read locality.
//! * [`error`] — typed storage errors ([`StoreError`]): containers carry
//!   a versioned magic byte and a SHA-1 checksum trailer, repository
//!   disks carry deterministic fault plans, and torn writes / bit rot /
//!   injected failures surface as typed errors, never panics or silent
//!   garbage.

pub mod container;
pub mod defrag;
pub mod error;
pub mod lpc;
pub mod manager;
pub mod repository;

pub use container::{ChunkMeta, Container, CorruptKind, Damage, Payload};
pub use error::StoreError;
pub use lpc::{LpcCache, LpcStats};
pub use manager::ContainerManager;
pub use repository::{
    wanted_extents, BatchAppend, ChunkRepository, Health, HealthPolicy, NodeRead, ReadLegs,
    Reclaimed, RepairReport, RepoStats, ScrubReport, ServedLeg, StorageNode,
};
