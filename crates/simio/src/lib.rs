//! # debar-simio
//!
//! The simulated hardware substrate for DEBAR: a deterministic,
//! virtual-time model of the paper's 18-node cluster testbed (§6).
//!
//! Every DEBAR algorithm in this workspace runs *for real* on real data
//! structures; only **time** is simulated. Devices ([`SimDisk`],
//! [`SimLink`], [`SimCpu`]) compute the cost of each operation from
//! calibrated rate models and the caller accrues those costs on a
//! [`VirtualClock`]. Throughput figures are then `bytes / virtual time`,
//! reproducible bit-for-bit across machines. Where devices genuinely work
//! at the same time (the pipelined restore, GC compaction), each gets a
//! [`Lane`] — a timeline that serves whatever operation is ready — instead
//! of sharing one clock; the overlap is arithmetic, never a thread.
//!
//! [`models::paper`] holds the constants calibrated from the paper's own
//! measurements (200+ MB/s sequential RAID transfer, ~522 random fingerprint
//! lookups/s, 2.749 M in-memory fingerprint compares/s, 210 MB/s sustained
//! NIC, 224 MB/s chunk-log read). [`ScaleModel`] implements the 1/1024
//! size-scaling rule described in the [`scale`] module docs: all byte *quantities* shrink,
//! all *rates* stay at paper values, so MB/s-shaped results are
//! scale-invariant.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]

pub mod clock;
pub mod cpu;
pub mod device;
pub mod disk;
pub mod fault;
pub mod lane;
pub mod models;
pub mod net;
pub mod partdisk;
pub mod scale;
pub mod throughput;
pub mod timed;

pub use clock::{Secs, VirtualClock};
pub use cpu::{CpuModel, CpuStats, SimCpu};
pub use device::Device;
pub use disk::{DiskModel, DiskStats, SimDisk};
pub use fault::{Charge, FaultKind, FaultPlan, FaultSpec, Faulted, InjectedFault, RetryPolicy};
pub use lane::Lane;
pub use net::{NetModel, NetStats, SimLink};
pub use partdisk::PartDiskSet;
pub use scale::ScaleModel;
pub use timed::Timed;
