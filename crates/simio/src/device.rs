//! Device addresses: the name every simulated disk is built with.

use std::fmt;

/// The address of one fault-injectable simulated device. A [`crate::SimDisk`]
/// is built with its address and every fault it fires carries it
/// ([`crate::Faulted`]), so the value a fault is armed on is the value each
/// layer above passes up unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Device {
    /// One repository node's disk.
    RepoNode(usize),
    /// One part-disk of a server's striped index volume. Part 0 is the
    /// volume: it also carries the un-striped index I/O — a restore's
    /// random lookups, capacity scaling, a scale-out's split — each op
    /// failing with its own fault, naming this part.
    IndexPart {
        /// The server owning the index part.
        server: u16,
        /// The part-disk within the stripe (`< sweep_parts`, clamped to
        /// the live bucket count).
        part: u32,
    },
    /// One worker disk of a server's chunk-log drain stripe. Worker 0 is
    /// the volume: it also carries every dedup-1 append.
    LogWorker {
        /// The server owning the chunk log.
        server: u16,
        /// The worker disk within the stripe (`< store_workers`).
        worker: u32,
    },
}

impl Device {
    /// Device `unit` of the bank this device belongs to: the same server's
    /// part-disk or worker disk `unit`, or repository node `unit`.
    pub fn at(self, unit: u32) -> Device {
        match self {
            Device::RepoNode(_) => Device::RepoNode(unit as usize),
            Device::IndexPart { server, .. } => Device::IndexPart { server, part: unit },
            Device::LogWorker { server, .. } => Device::LogWorker {
                server,
                worker: unit,
            },
        }
    }
}

impl fmt::Display for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Device::RepoNode(node) => write!(f, "repository node {node}"),
            Device::IndexPart { server, part } => {
                write!(f, "index part-disk {part} of server {server}")
            }
            Device::LogWorker { server, worker } => {
                write!(f, "chunk-log worker disk {worker} of server {server}")
            }
        }
    }
}
