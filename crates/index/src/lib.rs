//! # debar-index
//!
//! The DEBAR disk index (paper §4): a hash table of `2^n` fixed-size buckets
//! keyed by the first `n` bits of a fingerprint, stored as 512-byte disk
//! blocks of 25-byte entries. Thanks to SHA-1 uniformity it enjoys four
//! properties the whole system is built on:
//!
//! 1. **Uniform fingerprint distribution** — high utilization before
//!    overflow (§4.2, Tables 1 and 2, reproduced in [`theory`]).
//! 2. **Number-ordered fingerprint distribution** — fingerprints sort into
//!    buckets by numeric prefix, enabling *sequential* index lookups and
//!    updates ([`DiskIndex::try_sequential_lookup_sharded`],
//!    [`DiskIndex::try_sequential_update_sharded`], §5.2/§5.4).
//! 3. **Simple capacity scaling** — doubling bucket count by entry copying
//!    ([`DiskIndex::scale_up`], §4.1).
//! 4. **Simple performance scaling** — splitting into `2^w` parts across
//!    backup servers by the first `w` bits ([`DiskIndex::split`], §4.1).
//!
//! [`IndexCache`] is the in-memory hash table that SIL/SIU batch
//! fingerprints through (§5.2, Fig. 4), and [`theory`] reproduces the
//! overflow-probability analysis (formula (1) / Table 1) and the
//! counter-array utilization experiment (Table 2).

pub mod cache;
pub mod disk_index;
pub mod entry;
pub mod error;
pub mod params;
pub mod sweep;
pub mod theory;

pub use cache::{CacheNode, IndexCache, OriginSet};
pub use disk_index::{DiskIndex, InsertOutcome};
pub use entry::IndexEntry;
pub use error::IndexError;
pub use params::IndexParams;
pub use sweep::{SilReport, SiuReport};
