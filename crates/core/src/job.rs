//! Job objects (paper §3.1).
//!
//! "A backup job object includes at least three attributes: a *client*
//! attribute that specifies a backup client for the job, a *dataset*
//! attribute that specifies the list of files and directories needing
//! backup, and a *schedule* attribute that specifies when the backup job
//! should be scheduled to run."

use crate::ids::{ClientId, JobId, RunId};

/// When a job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Run only when explicitly submitted.
    Manual,
    /// Run daily at the given time (e.g. the paper's "daily at 1.05am").
    Daily {
        /// Hour, 0-23.
        hour: u8,
        /// Minute, 0-59.
        minute: u8,
    },
}

/// A job definition.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Human-readable name (doubles as the dataset attribute's label).
    pub name: String,
    /// The client whose data this job protects.
    pub client: ClientId,
    /// When to run.
    pub schedule: Schedule,
}

/// A registered job and its chain of runs.
#[derive(Debug, Clone)]
pub struct JobObject {
    /// The job's ID.
    pub id: JobId,
    /// The definition.
    pub spec: JobSpec,
    /// Chronologically ordered runs (the job chain of §5.1).
    pub chain: Vec<RunId>,
}

impl JobObject {
    /// The next version number in the chain.
    pub fn next_version(&self) -> u32 {
        self.chain.len() as u32
    }

    /// The most recent run, if any.
    pub fn last_run(&self) -> Option<RunId> {
        self.chain.last().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_versioning() {
        let mut job = JobObject {
            id: JobId(3),
            spec: JobSpec {
                name: "nightly".into(),
                client: ClientId(1),
                schedule: Schedule::Daily { hour: 1, minute: 5 },
            },
            chain: Vec::new(),
        };
        assert_eq!(job.next_version(), 0);
        assert_eq!(job.last_run(), None);
        job.chain.push(RunId {
            job: job.id,
            version: 0,
        });
        assert_eq!(job.next_version(), 1);
        assert_eq!(
            job.last_run(),
            Some(RunId {
                job: JobId(3),
                version: 0
            })
        );
    }
}
