//! `DebarSystem`: the convenience facade the examples use.

use crate::cluster::DebarCluster;
use crate::config::DebarConfig;
use crate::dataset::Dataset;
use crate::error::{DebarError, DebarResult};
use crate::ids::{ClientId, JobId, RunId};
use crate::report::{Dedup1Report, Dedup2Report, RestoreReport};
use debar_index::SiuReport;
use debar_simio::Secs;

/// A DEBAR deployment with a simple backup/dedup/restore API.
pub struct DebarSystem {
    cluster: DebarCluster,
}

impl DebarSystem {
    /// A deployment from an explicit configuration.
    pub fn new(cfg: DebarConfig) -> Self {
        DebarSystem {
            cluster: DebarCluster::new(cfg),
        }
    }

    /// The paper's single-server deployment scaled down by `denom`
    /// (32 GB/denom index, 1 GB/denom cache; the scale rule is the
    /// `debar_simio::scale` module doc).
    pub fn single_server(denom: u64) -> Self {
        Self::new(DebarConfig::single_server_scaled(denom))
    }

    /// A `2^w`-server deployment scaled down by `denom`.
    pub fn multi_server(w_bits: u32, denom: u64) -> Self {
        Self::new(DebarConfig::cluster_scaled(w_bits, 32 << 30, denom))
    }

    /// Register a backup job for a client.
    pub fn define_job(&mut self, name: impl Into<String>, client: ClientId) -> JobId {
        self.cluster.define_job(name, client)
    }

    /// De-duplication phase I: back up a dataset.
    pub fn backup(&mut self, job: JobId, dataset: &Dataset) -> DebarResult<Dedup1Report> {
        self.cluster.backup(job, dataset)
    }

    /// De-duplication phase II: SIL → chunk storing → SIU. An injected
    /// fault surfaces as [`DebarError::InterruptedDedup2`] /
    /// [`DebarError::PartialSiu`]; calling `dedup2` again resumes the
    /// round (see [`DebarCluster::run_dedup2`]).
    pub fn dedup2(&mut self) -> DebarResult<Dedup2Report> {
        self.cluster.run_dedup2()
    }

    /// Force any deferred SIU work to complete (call before restores when
    /// using asynchronous SIU).
    pub fn finish(&mut self) -> DebarResult<(Vec<SiuReport>, Secs)> {
        self.cluster.force_siu()
    }

    /// Restore a specific run.
    pub fn restore(&mut self, run: RunId) -> DebarResult<RestoreReport> {
        self.cluster.restore_run(run)
    }

    /// Restore the latest run of a job ([`DebarError::UnknownRun`] when
    /// the job has no completed run).
    pub fn restore_latest(&mut self, job: JobId) -> DebarResult<RestoreReport> {
        let run = self
            .cluster
            .director
            .metadata
            .try_job(job)
            .ok_or(DebarError::UnknownJob { job })?
            .last_run()
            .ok_or(DebarError::UnknownRun {
                run: RunId { job, version: 0 },
            })?;
        self.cluster.restore_run(run)
    }

    /// Verify a run's integrity (every chunk resolvable, readable and
    /// hash-consistent) without streaming data to a client. Integrity
    /// problems are counted in the report, not returned as errors.
    pub fn verify(&mut self, run: RunId) -> DebarResult<RestoreReport> {
        self.cluster.verify_run(run)
    }

    /// Restore a single file of a run by its dataset path.
    pub fn restore_file(&mut self, run: RunId, path: &str) -> DebarResult<RestoreReport> {
        self.cluster.restore_file(run, path)
    }

    /// Delete one run's metadata (typed refusal inside the retention
    /// window); reclaim its unshared chunks with [`DebarSystem::gc`].
    pub fn delete_run(&mut self, run: RunId) -> DebarResult<()> {
        self.cluster.delete_run(run)
    }

    /// Retire every run outside the configured retention window.
    pub fn expire_runs(&mut self) -> Vec<RunId> {
        self.cluster.expire_runs()
    }

    /// Garbage-collect chunks no retained run references (see
    /// [`DebarCluster::run_gc`] for the crash-consistency contract).
    pub fn gc(&mut self) -> DebarResult<crate::cluster::GcReport> {
        self.cluster.run_gc()
    }

    /// Cluster-wide integrity scrub with read-repair (see
    /// [`DebarCluster::scrub`] for the quiesce contract).
    pub fn scrub(&mut self) -> DebarResult<debar_simio::Timed<debar_store::ScrubReport>> {
        self.cluster.scrub()
    }

    /// The underlying cluster (stats, metadata, repository access).
    pub fn cluster(&self) -> &DebarCluster {
        &self.cluster
    }

    /// Mutable cluster access (bench harness).
    pub fn cluster_mut(&mut self) -> &mut DebarCluster {
        &mut self.cluster
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use debar_workload::ChunkRecord;

    #[test]
    fn facade_roundtrip() {
        let mut sys = DebarSystem::new(crate::config::DebarConfig::tiny_test(0));
        let job = sys.define_job("quick", ClientId(0));
        let recs: Vec<ChunkRecord> = (0..1200).map(ChunkRecord::of_counter).collect();
        let b = sys
            .backup(job, &Dataset::from_records("data", recs))
            .expect("backup");
        assert_eq!(b.logical_chunks, 1200);
        let d = sys.dedup2().expect("dedup2");
        assert_eq!(d.store.stored_chunks, 1200);
        sys.finish().expect("siu");
        let r = sys.restore_latest(job).expect("restore");
        assert_eq!(r.failures, 0);
        assert_eq!(r.chunks, 1200);
    }
}
