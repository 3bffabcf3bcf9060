//! # debar-ddfs
//!
//! A faithful baseline implementation of the Data Domain De-duplication
//! File System's write path, built exactly the way the DEBAR authors built
//! their comparison prototype (paper §6): from the original DDFS paper's
//! description, with an in-memory write buffer for index updates ("when the
//! buffer fills, the system pauses to flush the buffer to the disk index
//! using the SIU algorithm", the approach also used by Foundation).
//!
//! The write path per incoming chunk:
//!
//! 1. every chunk's bytes cross the network (DDFS de-duplicates at the
//!    server, so logical bandwidth is bounded by the NIC — the paper's
//!    measured 210 MB/s ceiling);
//! 2. the **summary vector** (Bloom filter) is consulted; a negative means
//!    the chunk is definitely new — no index I/O;
//! 3. a positive probes the **LPC** fingerprint cache; a hit is a duplicate;
//! 4. a miss triggers a **random disk-index lookup**; if found, the owning
//!    container's fingerprint metadata is prefetched into LPC (one more
//!    small I/O) and the chunk is a duplicate; if not found the positive was
//!    a *false positive* and the chunk is stored as new.
//!
//! New chunks fill containers in stream order (SISL); sealed containers go
//! to the chunk repository, their fingerprints enter the LPC and the write
//! buffer; a full write buffer pauses the stream for a sequential
//! read-merge-write sweep of the disk index.
//!
//! The capacity cliff of the paper's Fig. 12 emerges directly: as stored
//! fingerprints `n` grow against the fixed Bloom bits `m`, the false
//! positive rate `(1 − e^{−kn/m})^k` rises, each false positive costs a
//! random index I/O (two with overflow probing), and throughput collapses
//! past `m/n ≈ 8`.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]

pub mod server;

pub use server::{DdfsBackupReport, DdfsConfig, DdfsServer, DdfsStats};
