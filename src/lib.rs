//! # DEBAR
//!
//! A from-scratch Rust implementation of **DEBAR**, the scalable
//! high-performance de-duplication storage system for backup and archiving
//! (Yang, Jiang, Feng, Niu — IPDPS 2010 / UNL TR-UNL-CSE-2009-0004).
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! * [`hash`] — SHA-1, Rabin fingerprinting, the 160-bit [`Fingerprint`]
//! * [`chunk`] — content-defined chunking (CDC)
//! * [`simio`] — the calibrated virtual-time disk/network/CPU substrate
//! * [`index`] — the DEBAR disk index with SIL/SIU and capacity/performance
//!   scaling
//! * [`filter`] — the preliminary filter and the Bloom filter
//! * [`store`] — containers, the chunk repository, SISL and LPC
//! * [`workload`] — synthetic version-chain and HUSt-month workloads
//! * [`ddfs`] — the DDFS comparison baseline
//! * [`core`] — the DEBAR system: director, backup servers, TPDS,
//!   PSIL/PSIU cluster, restore
//!
//! ## Quickstart
//!
//! ```
//! use debar::{ClientId, Dataset, DebarCluster, DebarConfig};
//! use debar::workload::files::{FileTreeConfig, FileTreeGen};
//!
//! // A small single-server DEBAR deployment.
//! let mut cluster = DebarCluster::new(DebarConfig::tiny_test(0));
//! let job = cluster.define_job("documents", ClientId(0));
//!
//! // Back up a real-byte file tree (CDC + SHA-1 at the client).
//! let tree = FileTreeGen::new(FileTreeConfig::default()).initial();
//! let report = cluster.backup(job, &Dataset::from_file_specs(&tree)).expect("backup");
//! assert!(report.logical_bytes > 0);
//!
//! // Phase II: sequential index lookup, chunk storing, sequential update.
//! // Every fallible operation returns a typed `DebarError` — injected
//! // faults, corrupt containers and unknown runs never panic.
//! let d2 = cluster.run_dedup2().expect("dedup2");
//! assert_eq!(d2.store.stored_chunks as usize, report.transferred_chunks as usize);
//!
//! // Restore the run and verify every chunk by its SHA-1.
//! let restored = cluster.restore_run(report.run).expect("restore");
//! assert_eq!(restored.failures, 0);
//! ```

pub use debar_chunk as chunk;
pub use debar_core as core;
pub use debar_ddfs as ddfs;
pub use debar_filter as filter;
pub use debar_hash as hash;
pub use debar_index as index;
pub use debar_simio as simio;
pub use debar_store as store;
pub use debar_workload as workload;

pub use debar_core::{
    CapReport, ChunkedFile, ClientId, Dataset, DebarCluster, DebarConfig, DebarError, DebarResult,
    Dedup1Report, Dedup2Phase, Dedup2Report, DedupMode, Device, FileContent, FileEntry, GcReport,
    JobId, LayoutReport, RestoreReport, RunId, ServerId, StreamChunk,
};
pub use debar_hash::{ContainerId, Fingerprint};
pub use debar_simio::{FaultKind, FaultPlan, FaultSpec, InjectedFault, RetryPolicy};
pub use debar_store::{CorruptKind, Damage, Health, HealthPolicy, ScrubReport, StoreError};
