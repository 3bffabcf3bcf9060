//! Identifier types for jobs, clients, servers, job runs and devices.

use std::fmt;

// Every simulated disk is built with its address: the value passed to
// `DebarCluster::arm` is the value a fired fault reports.
pub use debar_simio::Device;

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
