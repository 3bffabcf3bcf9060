//! # debar-filter
//!
//! In-memory duplicate filters:
//!
//! * [`prelim`] — DEBAR's **preliminary filter** (paper §5.1): a hash table
//!   that streams the *filtering fingerprints* of the previous run of the
//!   same job (job-chain semantics) past the backup stream's position, so
//!   a job may outgrow its memory. In de-duplication phase I it eliminates
//!   internal and adjacent-version duplicates before any data crosses the
//!   network, and collects the fingerprints that still need a disk-index
//!   check (the *undetermined fingerprint file*).
//! * [`bloom`] — a Bloom filter implementing DDFS's in-memory **summary
//!   vector** (paper §1, §6.1.3), used by the `debar-ddfs` baseline. The
//!   false-positive analysis in the paper's Fig. 12 discussion is exposed as
//!   [`bloom::false_positive_rate`].
//! * [`cuckoo`] — a deletable, growable **cuckoo filter**: the summary
//!   vector the garbage collector can subtract reclaimed fingerprints
//!   from (a Bloom filter cannot forget). No false negatives, multiset
//!   semantics, deterministic displacement, segmented growth.

pub mod bloom;
pub mod cuckoo;
pub mod prelim;

pub use bloom::BloomFilter;
pub use cuckoo::CuckooFilter;
pub use prelim::{FilterVerdict, PrelimFilter, PrelimStats, NODE_BYTES};
