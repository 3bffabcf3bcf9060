//! The director's Metadata Manager (paper §3.1, §6.3).
//!
//! Holds job objects, run records and file indices ("a file index, which
//! facilitates retrieving files from the system, is a sequence of
//! fingerprints that reference the file chunks"). The previous run's file
//! indices supply the *filtering fingerprints* the preliminary filter is
//! primed with (§5.1).

use crate::ids::{ClientId, JobId, RunId, ServerId};
use crate::job::{JobObject, JobSpec};
use debar_hash::Fingerprint;
use std::collections::HashMap;

/// The stored index of one backed-up file.
#[derive(Debug, Clone)]
pub struct FileIndexEntry {
    /// File path within the dataset.
    pub path: String,
    /// Chunk fingerprints in file order.
    pub fingerprints: Vec<Fingerprint>,
    /// File size in bytes.
    pub bytes: u64,
}

/// Metadata of one completed job run.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// The run.
    pub run: RunId,
    /// The backup server that executed it.
    pub server: ServerId,
    /// The client that supplied the data.
    pub client: ClientId,
    /// File indices.
    pub files: Vec<FileIndexEntry>,
    /// Logical bytes backed up.
    pub logical_bytes: u64,
    /// Logical chunks backed up.
    pub logical_chunks: u64,
}

/// Job + run metadata store.
#[derive(Debug, Clone, Default)]
pub struct MetadataManager {
    jobs: Vec<JobObject>,
    runs: HashMap<RunId, RunRecord>,
}

impl MetadataManager {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a job, assigning its ID.
    pub fn register_job(&mut self, spec: JobSpec) -> JobId {
        let id = JobId(self.jobs.len() as u32);
        self.jobs.push(JobObject {
            id,
            spec,
            chain: Vec::new(),
        });
        id
    }

    /// Look up a job, `None` on an unknown ID.
    pub fn job(&self, id: JobId) -> Option<&JobObject> {
        self.jobs.get(id.0 as usize)
    }

    /// All jobs.
    pub fn jobs(&self) -> &[JobObject] {
        &self.jobs
    }

    /// Record a completed run, appending it to the job chain.
    ///
    /// # Panics
    /// Panics if the run's version is not the next in the chain.
    pub fn record_run(&mut self, rec: RunRecord) {
        let job = &mut self.jobs[rec.run.job.0 as usize];
        assert_eq!(
            rec.run.version,
            job.chain.len() as u32,
            "run out of chain order"
        );
        job.chain.push(rec.run);
        self.runs.insert(rec.run, rec);
    }

    /// A run's record.
    pub fn run(&self, run: RunId) -> Option<&RunRecord> {
        self.runs.get(&run)
    }

    /// Retire a run: drop its record while keeping the job-chain slot (the
    /// version numbering of later runs must not shift). Returns the retired
    /// record, `None` if the run was unknown or already retired.
    pub fn retire_run(&mut self, run: RunId) -> Option<RunRecord> {
        self.runs.remove(&run)
    }

    /// Run records currently retained, in no particular order.
    pub fn retained_runs(&self) -> impl Iterator<Item = &RunRecord> {
        self.runs.values()
    }

    /// The most recent **retained** run record for a job: walks the chain
    /// backwards past retired versions, so retention-driven expiry of old
    /// runs never breaks the filtering-fingerprint chain of the next
    /// backup. `None` too for an unknown job.
    pub fn last_run(&self, job: JobId) -> Option<&RunRecord> {
        (self.jobs.get(job.0 as usize)?)
            .chain
            .iter()
            .rev()
            .find_map(|r| self.runs.get(r))
    }

    /// Filtering fingerprints for a job's next run: the fingerprints of its
    /// previous run, in logical (file) order (§5.1 job-chain semantics) —
    /// the order the preliminary filter streams them in.
    pub fn filtering_fingerprints(&self, job: JobId) -> Vec<Fingerprint> {
        match self.last_run(job) {
            Some(rec) => rec
                .files
                .iter()
                .flat_map(|f| f.fingerprints.iter().copied())
                .collect(),
            None => Vec::new(),
        }
    }

    /// Remap run-record server assignments (used by cluster scale-out: old
    /// server `i` becomes server `2i`, so existing runs stay restorable).
    pub fn remap_servers(&mut self, f: impl Fn(ServerId) -> ServerId) {
        for rec in self.runs.values_mut() {
            rec.server = f(rec.server);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Schedule;

    fn spec(name: &str) -> JobSpec {
        JobSpec {
            name: name.into(),
            client: ClientId(0),
            schedule: Schedule::Manual,
        }
    }

    fn record(job: JobId, version: u32, fps: Vec<Fingerprint>) -> RunRecord {
        let bytes = fps.len() as u64 * 8192;
        RunRecord {
            run: RunId { job, version },
            server: 0,
            client: ClientId(0),
            logical_chunks: fps.len() as u64,
            files: vec![FileIndexEntry {
                path: "f".into(),
                fingerprints: fps,
                bytes,
            }],
            logical_bytes: bytes,
        }
    }

    fn fp(n: u64) -> Fingerprint {
        Fingerprint::of_counter(n)
    }

    #[test]
    fn register_and_chain() {
        let mut m = MetadataManager::new();
        let a = m.register_job(spec("a"));
        let b = m.register_job(spec("b"));
        assert_ne!(a, b);
        assert_eq!(m.jobs().len(), 2);
        m.record_run(record(a, 0, vec![fp(1)]));
        m.record_run(record(a, 1, vec![fp(2)]));
        assert_eq!(m.job(a).expect("registered").chain.len(), 2);
        assert_eq!(m.job(b).expect("registered").chain.len(), 0);
        assert_eq!(m.last_run(a).unwrap().run.version, 1);
    }

    #[test]
    fn an_unknown_job_is_none_not_a_panic() {
        let mut m = MetadataManager::new();
        let a = m.register_job(spec("a"));
        let ghost = JobId(a.0 + 1);
        assert!(m.job(ghost).is_none());
        assert!(m.last_run(ghost).is_none());
        assert!(m.filtering_fingerprints(ghost).is_empty());
        assert_eq!(m.job(a).map(|j| j.id), Some(a));
    }

    #[test]
    fn filtering_fingerprints_come_from_last_run() {
        let mut m = MetadataManager::new();
        let a = m.register_job(spec("a"));
        assert!(m.filtering_fingerprints(a).is_empty());
        m.record_run(record(a, 0, vec![fp(1), fp(2)]));
        assert_eq!(m.filtering_fingerprints(a), vec![fp(1), fp(2)]);
        m.record_run(record(a, 1, vec![fp(3)]));
        assert_eq!(m.filtering_fingerprints(a), vec![fp(3)]);
    }

    #[test]
    fn retire_keeps_chain_slots_and_last_run_walks_back() {
        let mut m = MetadataManager::new();
        let a = m.register_job(spec("a"));
        m.record_run(record(a, 0, vec![fp(1)]));
        m.record_run(record(a, 1, vec![fp(2)]));
        m.record_run(record(a, 2, vec![fp(3)]));
        // Retire the newest run: last_run must walk back to v1, and the
        // chain slot survives so v3 still records as version 3.
        let gone = m.retire_run(RunId { job: a, version: 2 }).unwrap();
        assert_eq!(gone.run.version, 2);
        assert_eq!(m.last_run(a).unwrap().run.version, 1);
        assert_eq!(m.filtering_fingerprints(a), vec![fp(2)]);
        assert!(m.run(RunId { job: a, version: 2 }).is_none());
        assert!(m.retire_run(RunId { job: a, version: 2 }).is_none());
        m.record_run(record(a, 3, vec![fp(4)]));
        assert_eq!(m.last_run(a).unwrap().run.version, 3);
        // Retire everything: no retained run, chain intact.
        for v in [0u32, 1, 3] {
            m.retire_run(RunId { job: a, version: v });
        }
        assert!(m.last_run(a).is_none());
        assert!(m.filtering_fingerprints(a).is_empty());
        assert_eq!(m.job(a).expect("registered").chain.len(), 4);
        assert_eq!(m.retained_runs().count(), 0);
    }

    #[test]
    #[should_panic]
    fn out_of_order_run_rejected() {
        let mut m = MetadataManager::new();
        let a = m.register_job(spec("a"));
        m.record_run(record(a, 1, vec![fp(1)]));
    }
}
