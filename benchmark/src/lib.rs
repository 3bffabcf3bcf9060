//! Two-clock end-to-end benchmark of the DEBAR reproduction.
//!
//! Four workloads run one common script (setup → ingest → restore →
//! maintain) against `DebarCluster` and report twelve end-to-end metrics on
//! two clocks: the virtual time of the modelled hardware, which repeats
//! exactly, and the host time and memory of the simulator, which do not. A
//! traced run adds a span around every call into the system, the system's own
//! counters and a replay of each layer alone. See `README.md`.

pub mod cli;
pub mod compare;
pub mod host;
pub mod json;
pub mod metrics;
pub mod run;
pub mod script;
pub mod sut;
pub mod trace;
pub mod workloads;
