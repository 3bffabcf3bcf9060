//! # debar-workload
//!
//! Workload synthesis for the DEBAR evaluation:
//!
//! * [`record`] — the fingerprint-level stream unit ([`ChunkRecord`]) used
//!   by the large-scale experiments: the paper argues (§6.2) that for a
//!   de-duplication system only the *fingerprint duplication structure* of
//!   a stream matters, not payload content, and evaluates scalability with
//!   synthetic fingerprints generated from a 64-bit counter fed to SHA-1.
//! * [`synth`] — the multi-stream version-chain generator of §6.2: each
//!   backup client owns a contiguous counter subspace; each version is
//!   derived from its predecessor by deleting/reordering runs, adding new
//!   fingerprints from its own subspace, and splicing in *cross-stream*
//!   duplicate runs from other subspaces.
//! * [`hust`] — a statistical model of the paper's real-world HUSt
//!   data-center month (§6.1): 8 clients × 31 daily versions with
//!   duplication fractions calibrated to the paper's compression ratios
//!   (dedup-1 cumulative ≈ 3.6:1, dedup-2 cumulative ≈ 2.6:1, overall
//!   ≈ 9.39:1).
//! * [`files`] — real-byte synthetic file trees with version mutations, for
//!   end-to-end tests that exercise the full chunk→hash→store→restore
//!   pipeline.
//! * [`drift`] — one previous version and the elementary changes of a next
//!   one (in place, growing, shrinking, one block), each in isolation, for
//!   the preliminary filter's position-tracking laws; and the two synthetic
//!   streams everything else shares, [`drift::records`] and [`drift::churn`].

pub mod drift;
pub mod files;
pub mod hust;
pub mod record;
pub mod synth;

pub use drift::Drift;
pub use hust::{HustConfig, HustDay, HustGen};
pub use record::ChunkRecord;
pub use synth::{MultiStreamConfig, MultiStreamGen};
