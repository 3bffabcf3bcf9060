//! # debar-hash
//!
//! Hashing and fingerprinting primitives for the DEBAR de-duplication storage
//! system, implemented from scratch:
//!
//! * [`sha1`] — the SHA-1 cryptographic hash (FIPS 180-1), used to compute
//!   160-bit chunk fingerprints (paper §3.2); it runs on the CPU's SHA
//!   extensions where detection finds them, with identical digests.
//! * [`gf2`] — carry-less polynomial arithmetic over GF(2), the algebraic
//!   foundation of Rabin fingerprinting, including an irreducibility test.
//! * [`rabin`] — Rabin fingerprints with a table-driven rolling window, used
//!   by the content-defined chunking algorithm (paper §3.2).
//! * [`fingerprint`] — the 160-bit [`Fingerprint`] type with the prefix-bit
//!   extraction used for disk-index bucket mapping (paper §4.1) and
//!   multi-server routing (paper §5.2), plus the counter→SHA-1 synthetic
//!   fingerprint generator the paper uses for its index utilization and
//!   scalability experiments (§4.2, §6.2), and [`FpMap`] / [`FpSet`], the
//!   in-memory fingerprint tables keyed by the digest itself.
//! * [`ids`] — small identifier types shared across the system, notably the
//!   40-bit [`ContainerId`] (paper §3.4).

#![deny(clippy::unwrap_used)]

pub mod fingerprint;
pub mod gf2;
pub mod ids;
pub mod mix;
pub mod rabin;
pub mod sha1;

pub use fingerprint::{Fingerprint, FingerprintGenerator, FpBuild, FpHasher, FpMap, FpSet};
pub use ids::ContainerId;
pub use mix::SplitMix64;
pub use rabin::{RabinParams, RabinTables, RollingHash, DEFAULT_POLY, DEFAULT_WINDOW};
pub use sha1::Sha1;
