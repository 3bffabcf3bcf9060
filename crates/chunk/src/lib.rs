//! # debar-chunk
//!
//! Chunking for DEBAR (paper §3.2): [`cdc`] is content-defined chunking
//! (CDC) using Rabin fingerprints of a 48-byte sliding window, with
//! configurable expected size (`2^k`), a 2 KB lower and 64 KB upper bound
//! on chunk sizes, exactly as the paper configures it (expected chunk size
//! 8 KB).

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]

pub mod cdc;
pub mod span;

pub use cdc::{CdcChunker, CdcParams, CdcStream};
pub use span::ChunkSpan;
