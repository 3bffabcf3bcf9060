//! Restore-optimized container layout: fragmentation telemetry and
//! rewrite-on-backup container capping.
//!
//! DEBAR's out-of-line dedup (§5) keeps backups fast but lets every new
//! generation reference chunks scattered across ever-older containers:
//! restoring the *latest* backup — the one users actually read — touches
//! more containers per restored MiB with every generation. This module
//! makes the degradation **measurable** and, under
//! [`LayoutMode::Capped`](crate::config::LayoutMode), **bounded**:
//!
//! * **Telemetry** — every restore walk feeds a [`LayoutTracker`] and
//!   surfaces a [`LayoutReport`] in
//!   [`RestoreReport::layout`](crate::report::RestoreReport::layout):
//!   distinct containers touched, containers per restored MiB, and the
//!   chunk-fragmentation level (mean run-length of consecutive chunks
//!   sharing a container).
//! * **Capping** — after the chunk-storing commit of each dedup-2 round
//!   (container IDs are already canonical), the cluster walks every run
//!   recorded since the last round and counts the distinct containers its
//!   chunk sequence references. A run over its budget
//!   (`max_refs_per_mib × logical MiB`, floor 1) gets its sparsest
//!   referenced containers **rewritten**: the run's chunks are copied out
//!   of them, in stream order, into fresh containers of its own, and the
//!   owning index parts are repointed. Restore bytes are byte-identical —
//!   only placement changes — and the superseded copies stay on disk
//!   until garbage collection reclaims them (the cluster remembers the
//!   superseded containers; see `gc.rs`).
//!
//! The pass is deterministic: runs are processed in ascending
//! `(job, version)` order, victims in a fixed rank order, and fresh
//! containers are stored serially — so container IDs, index bytes and
//! restore bytes are reproducible across `sweep_parts`, `store_workers`
//! and `replication`, exactly like the scatter path.
//!
//! # Crash consistency
//!
//! Rewrites are store-new-then-repoint, the same contract as GC
//! compaction: a fresh container is durable on every replica before any
//! index entry or pending SIU mapping moves, and a faulted store consumes
//! no container ID. A fault surfaces typed, the affected runs stay queued
//! for capping, and re-running the round converges — partially rewritten
//! runs are re-examined against their current (partly repointed) mapping.

use super::DebarCluster;
use crate::config::LayoutMode;
use crate::error::{DebarError, DebarResult};
use crate::ids::RunId;
use debar_hash::{ContainerId, Fingerprint};
use debar_simio::Secs;
use debar_store::{Container, ContainerManager, Payload};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// Container-fragmentation telemetry for one restore walk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct LayoutReport {
    /// Distinct containers the walk touched.
    pub containers_touched: u64,
    /// Fragments: maximal groups of consecutive chunks sharing one
    /// container (a perfectly sequential layout has one fragment per
    /// container; a fully scattered one has one per chunk).
    pub fragments: u64,
    /// Chunks walked.
    pub chunks: u64,
    /// Bytes restored.
    pub bytes: u64,
}

impl LayoutReport {
    /// Containers touched per restored MiB — the paper-style read
    /// amplification proxy (1 MiB containers at full utilization give
    /// exactly 1.0; growth over generations is fragmentation).
    pub fn containers_per_mib(&self) -> f64 {
        if self.bytes == 0 {
            0.0
        } else {
            self.containers_touched as f64 / (self.bytes as f64 / (1u64 << 20) as f64)
        }
    }

    /// Mean run-length of consecutive chunks sharing a container — the
    /// chunk-fragmentation level (high is sequential, 1.0 is fully
    /// scattered).
    pub fn mean_run_length(&self) -> f64 {
        if self.fragments == 0 {
            0.0
        } else {
            self.chunks as f64 / self.fragments as f64
        }
    }
}

/// Accumulates [`LayoutReport`] facts chunk-by-chunk during a restore
/// walk.
#[derive(Default)]
pub(crate) struct LayoutTracker {
    seen: HashSet<ContainerId>,
    last: Option<ContainerId>,
    fragments: u64,
}

impl LayoutTracker {
    /// Record that the next restored chunk came from `cid`.
    pub(crate) fn observe(&mut self, cid: ContainerId) {
        self.seen.insert(cid);
        if self.last != Some(cid) {
            self.fragments += 1;
            self.last = Some(cid);
        }
    }

    /// Finish the walk into a report (`chunks`/`bytes` come from the
    /// restore's own counters so failures are accounted consistently).
    pub(crate) fn finish(self, chunks: u64, bytes: u64) -> LayoutReport {
        LayoutReport {
            containers_touched: self.seen.len() as u64,
            fragments: self.fragments,
            chunks,
            bytes,
        }
    }
}

/// What one rewrite-on-backup capping pass did (all-zero under
/// [`LayoutMode::Scatter`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CapReport {
    /// Runs whose container references were examined.
    pub runs_examined: u64,
    /// Runs found over budget and rewritten.
    pub runs_rewritten: u64,
    /// Duplicate chunks re-materialized into the runs' own containers.
    pub chunks_rewritten: u64,
    /// Bytes of those chunks (logical; each is stored `replication`-fold).
    pub bytes_rewritten: u64,
    /// Fresh colocated containers stored.
    pub containers_written: u64,
    /// Old containers left holding superseded copies (queued for GC).
    pub containers_superseded: u64,
    /// Wall time of the capping phase.
    pub wall: Secs,
}

impl DebarCluster {
    /// The rewrite-on-backup capping pass, run after the chunk-storing
    /// commit of each dedup-2 round (no-op under
    /// [`LayoutMode::Scatter`]). See the module docs for the plan and
    /// the crash-consistency contract.
    pub(crate) fn cap_rewrite_pass(&mut self) -> DebarResult<CapReport> {
        let mut report = CapReport::default();
        let LayoutMode::Capped { max_refs_per_mib } = self.cfg.layout else {
            return Ok(report);
        };
        if self.uncapped_runs.is_empty() {
            return Ok(report);
        }
        let w = self.cfg.w_bits;
        // Canonical processing order: ascending (job, version), so the
        // fresh-container ID sequence is a deterministic function of the
        // metadata (same rule as GC's victim order).
        let mut runs: Vec<RunId> = self.uncapped_runs.clone();
        runs.sort_unstable_by_key(|r| (r.job.0, r.version));
        // SIU hasn't run for this round yet: overlay each owner's pending
        // (unregistered) mappings over its index part, latest entry
        // winning. Repoints made by this pass update the overlay too, so
        // later runs resolve against the current layout.
        let mut overlay: Vec<HashMap<Fingerprint, ContainerId>> = self
            .servers
            .iter()
            .map(|s| s.pending_update_map())
            .collect();
        let mut done: HashSet<RunId> = HashSet::new();
        let mut fault: Option<DebarError> = None;
        'runs: for run in runs {
            let Some(record) = self.director.metadata.run(run).cloned() else {
                // Deleted before its round committed: nothing to cap.
                done.insert(run);
                continue;
            };
            report.runs_examined += 1;
            // The run's distinct fingerprints in stream order, resolved to
            // their current containers.
            let mut order: Vec<Fingerprint> = Vec::new();
            let mut seen: HashSet<Fingerprint> = HashSet::new();
            for file in &record.files {
                for fp in &file.fingerprints {
                    if seen.insert(*fp) {
                        order.push(*fp);
                    }
                }
            }
            let mut resolved: HashMap<Fingerprint, ContainerId> = HashMap::new();
            let mut refs: HashMap<ContainerId, u64> = HashMap::new();
            for fp in &order {
                let owner = fp.server_number(w) as usize;
                let cid = overlay[owner]
                    .get(fp)
                    .copied()
                    .or_else(|| self.servers[owner].index().lookup_uncharged(fp));
                let Some(cid) = cid else {
                    // Post-commit every chunk of a recorded run must
                    // resolve; a hole is a metadata bug, not a skip.
                    fault = Some(DebarError::MissingChunk {
                        fp: *fp,
                        container: None,
                    });
                    break 'runs;
                };
                resolved.insert(*fp, cid);
                *refs.entry(cid).or_insert(0) += 1;
            }
            // Budget: container references allowed for this run's logical
            // size (floor 1 so an empty-ish run never divides by zero).
            let budget = ((max_refs_per_mib as u64).saturating_mul(record.logical_bytes))
                .div_ceil(1u64 << 20)
                .max(1) as usize;
            if refs.len() <= budget {
                done.insert(run);
                continue;
            }
            report.runs_rewritten += 1;
            // Keep the `budget` densest referenced containers (newest ID
            // wins a density tie — recent containers are the locality the
            // next generation inherits); rewrite the rest.
            let mut ranked: Vec<(ContainerId, u64)> = refs.iter().map(|(c, n)| (*c, *n)).collect();
            ranked.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(b.0.cmp(&a.0)));
            let victims: HashSet<ContainerId> = ranked[budget..].iter().map(|(c, _)| *c).collect();
            // The victims now hold copies this run will stop referencing:
            // remember them for GC before any byte moves (a partial
            // rewrite must still reclaim eventually).
            for cid in &victims {
                if self.superseded.insert(*cid) {
                    report.containers_superseded += 1;
                }
            }
            // Read each victim once (ascending ID: deterministic op
            // order), collecting the payloads this run references.
            let sid = record.server as usize;
            let mut victim_ids: Vec<ContainerId> = victims.iter().copied().collect();
            victim_ids.sort_unstable();
            let mut payloads: HashMap<Fingerprint, (u32, Payload)> = HashMap::new();
            for cid in &victim_ids {
                let t = self.repo.read(*cid).timed();
                let container = match self.servers[sid].clock.charge(t) {
                    Ok(Some(c)) => c,
                    Ok(None) => {
                        fault = Some(DebarError::MissingContainer { container: *cid });
                        break 'runs;
                    }
                    Err(e) => {
                        fault = Some(e.into());
                        break 'runs;
                    }
                };
                for i in 0..container.len() {
                    let (m, p) = container.slot(i);
                    if resolved.get(&m.fp) == Some(cid) {
                        payloads.insert(m.fp, (m.len, p.clone()));
                    }
                }
            }
            // Re-materialize the victims' chunks in stream order into
            // fresh containers of the run's own; store each serially
            // (canonical ID allocation), repoint only once durable.
            let mut packer = ContainerManager::new(self.cfg.container_bytes);
            for fp in order.iter().filter(|fp| victims.contains(&resolved[*fp])) {
                let Some((len, payload)) = payloads.get(fp).cloned() else {
                    fault = Some(DebarError::MissingChunk {
                        fp: *fp,
                        container: Some(resolved[fp]),
                    });
                    break 'runs;
                };
                if let Some(sealed) = packer.append(*fp, payload) {
                    if let Err(e) = self.store_rewritten(sealed, sid, &mut overlay, &mut report) {
                        fault = Some(e);
                        break 'runs;
                    }
                }
                report.chunks_rewritten += 1;
                report.bytes_rewritten += len as u64;
            }
            if let Some(sealed) = packer.flush() {
                if let Err(e) = self.store_rewritten(sealed, sid, &mut overlay, &mut report) {
                    fault = Some(e);
                    break 'runs;
                }
            }
            done.insert(run);
        }
        self.uncapped_runs.retain(|r| !done.contains(r));
        if report.runs_rewritten > 0 {
            // Repointed mappings may shadow cached containers: drop the
            // read caches so the next restore observes the new layout.
            for srv in &mut self.servers {
                srv.invalidate_read_caches();
            }
        }
        match fault {
            Some(e) => Err(e),
            None => Ok(report),
        }
    }

    /// Store one freshly packed rewrite container (durable on every
    /// replica before anything repoints) and repoint its fingerprints on
    /// their owning parts — pending SIU mappings are overwritten in
    /// place, registered entries updated directly.
    fn store_rewritten(
        &mut self,
        fresh: Container,
        sid: usize,
        overlay: &mut [HashMap<Fingerprint, ContainerId>],
        report: &mut CapReport,
    ) -> DebarResult<()> {
        let w = self.cfg.w_bits;
        let fps: Vec<Fingerprint> = fresh.fingerprints().collect();
        let t = self.repo.store(fresh);
        let new_cid = self.servers[sid]
            .clock
            .charge(t)
            .map_err(DebarError::from)?;
        for fp in &fps {
            let owner = fp.server_number(w) as usize;
            self.servers[owner].repoint(fp, new_cid);
            overlay[owner].insert(*fp, new_cid);
        }
        report.containers_written += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DebarConfig;
    use crate::dataset::Dataset;
    use crate::ids::ClientId;
    use debar_workload::drift::churn;

    fn drive(layout: crate::config::LayoutMode, gens: u64) -> (DebarCluster, Vec<CapReport>) {
        let mut c = DebarCluster::new(DebarConfig::tiny_test(0).with_layout(layout));
        let job = c.define_job("churn", ClientId(0));
        let mut caps = Vec::new();
        for g in 0..gens {
            c.backup(job, &Dataset::from_records("s", churn(g, 600, 12)))
                .expect("backup");
            caps.push(c.run_dedup2().expect("dedup2").cap);
        }
        (c, caps)
    }

    #[test]
    fn telemetry_math() {
        let mut t = LayoutTracker::default();
        for cid in [1u64, 1, 2, 1, 3, 3] {
            t.observe(ContainerId::new(cid));
        }
        let rep = t.finish(6, 3 << 20);
        assert_eq!(rep.containers_touched, 3);
        assert_eq!(rep.fragments, 4, "runs: [1,1] [2] [1] [3,3]");
        assert_eq!(rep.mean_run_length(), 1.5);
        assert_eq!(rep.containers_per_mib(), 1.0);
        assert_eq!(LayoutReport::default().mean_run_length(), 0.0);
        assert_eq!(LayoutReport::default().containers_per_mib(), 0.0);
    }

    #[test]
    fn scatter_cap_pass_is_a_noop() {
        let (c, caps) = drive(crate::config::LayoutMode::Scatter, 3);
        for cap in caps {
            assert_eq!(cap, CapReport::default(), "scatter rounds never cap");
        }
        assert!(c.uncapped_runs.is_empty());
        assert!(c.superseded.is_empty());
    }

    #[test]
    fn capped_rewrites_over_budget_runs_and_restores_byte_identically() {
        let gens = 8u64;
        let capped_mode = crate::config::LayoutMode::Capped {
            max_refs_per_mib: 1,
        };
        let (mut scatter, _) = drive(crate::config::LayoutMode::Scatter, gens);
        let (mut capped, caps) = drive(capped_mode, gens);
        assert!(capped.uncapped_runs.is_empty(), "every run was processed");
        let total: CapReport = caps.iter().fold(CapReport::default(), |mut a, c| {
            a.runs_examined += c.runs_examined;
            a.runs_rewritten += c.runs_rewritten;
            a.chunks_rewritten += c.chunks_rewritten;
            a.containers_written += c.containers_written;
            a.containers_superseded += c.containers_superseded;
            a
        });
        assert_eq!(total.runs_examined, gens);
        assert!(total.runs_rewritten > 0, "late generations are over budget");
        assert!(total.chunks_rewritten > 0);
        assert!(total.containers_written > 0);
        assert!(total.containers_superseded > 0);
        // The rewrite trades dedup ratio for locality: the capped twin
        // stores strictly more physical bytes...
        assert!(
            capped.repository().physical_data_bytes() > scatter.repository().physical_data_bytes()
        );
        // ...and every generation restores the same bytes from fewer (or
        // equal) containers, with the latest generation decisively less
        // fragmented.
        let job = crate::ids::JobId(0);
        for version in 0..gens as u32 {
            let run = crate::ids::RunId { job, version };
            let s = scatter.restore_run(run).expect("scatter restore");
            let c = capped.restore_run(run).expect("capped restore");
            assert_eq!(s.failures, 0);
            assert_eq!(c.failures, 0);
            assert_eq!(c.bytes, s.bytes, "v{version}: restore bytes differ");
            assert_eq!(c.chunks, s.chunks);
        }
        let last = crate::ids::RunId {
            job,
            version: gens as u32 - 1,
        };
        let s = scatter.restore_run(last).expect("scatter restore");
        let c = capped.restore_run(last).expect("capped restore");
        assert!(
            c.layout.containers_touched < s.layout.containers_touched,
            "capped {} !< scatter {}",
            c.layout.containers_touched,
            s.layout.containers_touched
        );
        assert!(
            c.layout.mean_run_length() > s.layout.mean_run_length(),
            "capped layout must be more sequential"
        );
    }

    #[test]
    fn restore_surfaces_layout_telemetry_and_scatter_fragments_grow() {
        let gens = 8u64;
        let (mut c, _) = drive(crate::config::LayoutMode::Scatter, gens);
        let job = crate::ids::JobId(0);
        let first = c
            .restore_run(crate::ids::RunId { job, version: 0 })
            .expect("restore v0");
        let last = c
            .restore_run(crate::ids::RunId {
                job,
                version: gens as u32 - 1,
            })
            .expect("restore latest");
        assert_eq!(first.layout.chunks, first.chunks);
        assert_eq!(first.layout.bytes, first.bytes);
        assert!(first.layout.containers_touched > 0);
        assert!(first.layout.fragments >= first.layout.containers_touched);
        assert!(
            last.layout.containers_per_mib() > first.layout.containers_per_mib(),
            "scatter fragmentation must grow with generation: gen0 {} vs latest {}",
            first.layout.containers_per_mib(),
            last.layout.containers_per_mib()
        );
        assert!(
            last.layout.mean_run_length() < first.layout.mean_run_length(),
            "scatter chunk runs must shorten with generation"
        );
    }

    #[test]
    fn gc_reclaims_superseded_copies_exactly() {
        let gens = 8u64;
        let mode = crate::config::LayoutMode::Capped {
            max_refs_per_mib: 1,
        };
        let mut c = DebarCluster::new(
            DebarConfig::tiny_test(0)
                .with_layout(mode)
                .with_retention(1),
        );
        let job = c.define_job("churn", ClientId(0));
        for g in 0..gens {
            c.backup(job, &Dataset::from_records("s", churn(g, 600, 12)))
                .expect("backup");
            c.run_dedup2().expect("dedup2");
        }
        assert!(!c.superseded.is_empty(), "capping queued superseded copies");
        let phys_before = c.repository().physical_data_bytes();
        let expired = c.expire_runs();
        assert_eq!(expired.len() as u64, gens - 1);
        let rep = c.run_gc().expect("gc");
        // The exactness law holds with superseded copies in the mix: the
        // physical delta is replication × reclaimed chunk bytes.
        let phys_after = c.repository().physical_data_bytes();
        assert_eq!(phys_before - phys_after, rep.net_physical_reclaimed());
        assert_eq!(rep.net_physical_reclaimed(), rep.dead_chunk_bytes);
        assert!(
            rep.superseded_containers > 0,
            "GC must visit the capping queue"
        );
        assert!(c.superseded.is_empty(), "queue drained by the collection");
        // The retained run still restores clean through the rewritten
        // layout, and a second collection finds nothing.
        let r = c
            .restore_run(crate::ids::RunId {
                job,
                version: gens as u32 - 1,
            })
            .expect("restore survivor");
        assert_eq!(r.failures, 0);
        let rep2 = c.run_gc().expect("gc again");
        assert_eq!(rep2.dead_fps, 0);
        assert_eq!(rep2.freed_physical_bytes, 0);
    }

    #[test]
    fn capped_results_identical_across_sweep_parts_and_replication() {
        let gens = 6u64;
        let mode = crate::config::LayoutMode::Capped {
            max_refs_per_mib: 1,
        };
        let drive_cfg = |cfg: DebarConfig| {
            let mut c = DebarCluster::new(cfg.with_layout(mode));
            let job = c.define_job("churn", ClientId(0));
            for g in 0..gens {
                c.backup(job, &Dataset::from_records("s", churn(g, 600, 12)))
                    .expect("backup");
                c.run_dedup2().expect("dedup2");
            }
            c
        };
        let base = drive_cfg(DebarConfig::tiny_test(0));
        for cfg in [
            DebarConfig::tiny_test(0).with_sweep_parts(4),
            DebarConfig::tiny_test(0).with_replication(2),
        ] {
            let c = drive_cfg(cfg);
            assert_eq!(
                c.repository().container_ids(),
                base.repository().container_ids(),
                "capped container IDs must be canonical"
            );
            assert_eq!(
                debar_hash::Sha1::digest(c.server(0).index().raw_data()),
                debar_hash::Sha1::digest(base.server(0).index().raw_data()),
                "capped index bytes must be canonical"
            );
        }
    }
}
