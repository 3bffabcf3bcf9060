//! Identifier types for jobs, clients, servers, job runs and devices.

use std::fmt;

/// A backup server's index within the cluster; server `k` owns disk-index
/// part `k` (the fingerprints whose first `w` bits equal `k`, paper §5.2).
pub type ServerId = u16;

/// A backup client (a machine with data to protect).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClientId(pub u32);

/// A job object registered with the director (paper §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u32);

/// One run of a job: the `version`-th instance of the job chain
/// `Job(t_0), Job(t_1), …` (paper §5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RunId {
    /// The job.
    pub job: JobId,
    /// Zero-based version within the job chain.
    pub version: u32,
}

impl fmt::Display for RunId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job{}v{}", self.job.0, self.version)
    }
}

/// The address of one fault-injectable simulated device. The value passed
/// to [`crate::DebarCluster::arm`] is the value a fired fault reports in
/// [`crate::DebarError::DeviceFault`].
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
        server: ServerId,
        /// The part-disk within the stripe (`< sweep_parts`, clamped to
        /// the live bucket count).
        part: u32,
    },
    /// One worker disk of a server's chunk-log drain stripe. Worker 0 is
    /// the volume: it also carries every dedup-1 append.
    LogWorker {
        /// The server owning the chunk log.
        server: ServerId,
        /// The worker disk within the stripe (`< store_workers`).
        worker: u32,
    },
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_id_display_and_order() {
        let a = RunId {
            job: JobId(1),
            version: 0,
        };
        let b = RunId {
            job: JobId(1),
            version: 1,
        };
        assert_eq!(a.to_string(), "job1v0");
        assert!(a < b);
    }
}
