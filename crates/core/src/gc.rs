//! Deletion, retention & garbage collection.
//!
//! DEBAR's dedup metadata makes deletion a *global* problem: a chunk is
//! reclaimable only when **no retained run of any job** references it.
//! This module implements the full lifecycle on [`DebarCluster`]:
//!
//! 1. **Retire** — [`DebarCluster::delete_run`] retires a single run
//!    (refusing runs inside the [`crate::DebarConfig::retention`] window
//!    with the typed [`DebarError::RetainedRun`]);
//!    [`DebarCluster::expire_runs`] retires everything outside the window
//!    in one pass. Retiring drops the run record but keeps the job-chain
//!    slot, so version numbering and the filtering-fingerprint chain of
//!    future backups are unaffected.
//! 2. **Collect** — [`DebarCluster::run_gc`] computes the live set (the
//!    union of every retained run's file fingerprints), finds dead index
//!    entries, compacts partially-dead containers (live chunks copied to
//!    a fresh container, the old one deleted on **every replica**),
//!    deletes whole-dead containers, rebuilds each server's index part
//!    without the dead entries, and withdraws the dead fingerprints from
//!    the cluster's deletable summary vector.
//!
//! # Crash consistency
//!
//! GC is resumable under the same contract as dedup-2: a fault surfaces
//! typed and re-running `run_gc` after clearing it converges to the
//! byte-identical state of an uninterrupted collection.
//!
//! * **Quiesce gate.** GC refuses to race an in-flight backup
//!   ([`DebarError::NotQuiesced`]): with staged dedup-2 state, a chunk's
//!   liveness cannot be decided (its referencing run is not yet recorded
//!   as durable).
//! * **Compaction is store-new-then-delete-old.** The fresh container is
//!   durable (on all replicas) before any index entry is repointed and
//!   before the victim is deleted. A faulted store consumes no container
//!   ID and persists nothing, so the redo stores into the same IDs an
//!   uninterrupted collection would have.
//! * **Victims are processed in ascending container-ID order**, making
//!   the plan a deterministic function of the metadata — a redo walks
//!   the same sequence.
//! * **A dead entry whose container no longer exists** (reclaimed by an
//!   interrupted earlier attempt) needs index removal only; the redo
//!   detects this instead of failing.
//! * **Index sweeps abort before mutation.** Each server's GC sweep
//!   charges its striped read+write I/O and checks fault plans *before*
//!   touching a byte ([`debar_index::DiskIndex::try_gc_sweep`]); summary
//!   removals are tied to each server's *successful* sweep, so a redo
//!   never double-removes (which could hurt a colliding live key).
//! * **Read caches are invalidated** on every exit path that may have
//!   deleted a container, so a stale LPC mapping never serves a read.

use super::DebarCluster;
use crate::error::{DebarError, DebarResult};
use crate::ids::{JobId, RunId, ServerId};
use debar_hash::{ContainerId, Fingerprint};
use debar_simio::Secs;
use debar_store::Container;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashSet};

/// What one garbage collection did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct GcReport {
    /// Fingerprints referenced by retained runs (the live set).
    pub live_fps: u64,
    /// Dead index entries found (and removed).
    pub dead_fps: u64,
    /// Candidate containers examined (read and liveness-partitioned).
    pub containers_examined: u64,
    /// Partially-dead containers compacted (live chunks moved).
    pub containers_compacted: u64,
    /// Containers deleted on every replica (whole-dead victims plus the
    /// old copies of compacted ones).
    pub containers_deleted: u64,
    /// Live chunks copied into fresh containers.
    pub moved_chunks: u64,
    /// Logical bytes of dead chunks reclaimed.
    pub dead_chunk_bytes: u64,
    /// Physical bytes freed by container deletion, summed over replicas.
    pub freed_physical_bytes: u64,
    /// Physical bytes written for compaction copies, summed over replicas.
    pub stored_physical_bytes: u64,
    /// Index entries removed across all server parts.
    pub index_removed: u64,
    /// Fingerprint copies withdrawn from the summary vector.
    pub summary_removed: u64,
    /// Containers drained from the capping queue: victims examined
    /// because a rewrite-on-backup pass superseded copies in them (see
    /// `layout.rs`; always 0 under
    /// [`crate::config::LayoutMode::Scatter`]).
    pub superseded_containers: u64,
    /// Virtual I/O time the collection charged.
    pub wall: Secs,
}

impl GcReport {
    /// Net physical bytes reclaimed: freed minus re-stored. For a clean
    /// collection this equals `replication × dead_chunk_bytes` exactly.
    pub fn net_physical_reclaimed(&self) -> u64 {
        self.freed_physical_bytes
            .saturating_sub(self.stored_physical_bytes)
    }
}

impl DebarCluster {
    /// Delete one run's metadata, making its unshared chunks reclaimable
    /// by the next [`DebarCluster::run_gc`].
    ///
    /// Typed refusals: [`DebarError::UnknownJob`] /
    /// [`DebarError::UnknownRun`] for runs that don't exist (or were
    /// already deleted), and [`DebarError::RetainedRun`] when the run is
    /// one of the newest [`crate::DebarConfig::retention`] versions of
    /// its job (retention `0` protects nothing).
    pub fn delete_run(&mut self, run: RunId) -> DebarResult<()> {
        let job = self
            .director
            .metadata
            .try_job(run.job)
            .ok_or(DebarError::UnknownJob { job: run.job })?;
        let chain_len = job.chain.len();
        if run.version as usize >= chain_len || self.director.metadata.run(run).is_none() {
            return Err(DebarError::UnknownRun { run });
        }
        let retention = self.cfg.retention;
        if retention > 0 && run.version as usize + retention as usize >= chain_len {
            return Err(DebarError::RetainedRun { run, retention });
        }
        self.director.metadata.retire_run(run);
        Ok(())
    }

    /// Retention-window expiry: retire every run older than the newest
    /// [`crate::DebarConfig::retention`] versions of each job. Returns
    /// the expired runs (ascending job, then version). Retention `0`
    /// disables expiry — nothing is retired.
    pub fn expire_runs(&mut self) -> Vec<RunId> {
        let retention = self.cfg.retention as usize;
        let mut expired = Vec::new();
        if retention == 0 {
            return expired;
        }
        let cutoffs: Vec<(JobId, usize)> = self
            .director
            .metadata
            .jobs()
            .iter()
            .map(|j| (j.id, j.chain.len().saturating_sub(retention)))
            .collect();
        for (job, cutoff) in cutoffs {
            for version in 0..cutoff as u32 {
                let run = RunId { job, version };
                if self.director.metadata.retire_run(run).is_some() {
                    expired.push(run);
                }
            }
        }
        expired
    }

    /// Collect garbage: reclaim every chunk no retained run references.
    ///
    /// See the module docs for the phase ordering and the
    /// crash-consistency contract. Faults surface typed
    /// ([`DebarError::DeviceFault`] naming the repository node or index
    /// part-disk, [`DebarError::NodeDown`] from repository I/O) and
    /// re-running after clearing them converges byte-identically with an
    /// uninterrupted collection.
    pub fn run_gc(&mut self) -> DebarResult<GcReport> {
        self.ensure_quiesced()?;
        let result = self.gc_execute();
        // Unconditional: even an aborted collection may have deleted
        // containers that a cached LPC mapping still points at.
        for srv in &mut self.servers {
            srv.invalidate_read_caches();
        }
        result
    }

    fn gc_execute(&mut self) -> DebarResult<GcReport> {
        let w = self.cfg.w_bits;
        let mut report = GcReport::default();

        // ---- Plan: live set, dead entries per owner, victim containers.
        let mut live: HashSet<Fingerprint> = HashSet::new();
        for rec in self.director.metadata.retained_runs() {
            for f in &rec.files {
                live.extend(f.fingerprints.iter().copied());
            }
        }
        report.live_fps = live.len() as u64;
        let mut dead_per_server: Vec<HashSet<Fingerprint>> =
            vec![HashSet::new(); self.servers.len()];
        let mut victims: BTreeSet<ContainerId> = BTreeSet::new();
        for (sid, srv) in self.servers.iter().enumerate() {
            for e in srv.index().iter_entries() {
                if !live.contains(&e.fp) {
                    dead_per_server[sid].insert(e.fp);
                    victims.insert(e.cid);
                }
            }
        }
        report.dead_fps = dead_per_server.iter().map(|d| d.len() as u64).sum();
        // Containers holding copies a capping rewrite superseded carry no
        // dead *entries* (the fingerprints are live, just repointed):
        // they enter the plan through the cluster's capping queue.
        victims.extend(self.superseded.iter().copied());

        // ---- Compaction/deletion, ascending container ID (deterministic
        // plan; container IDs for compaction copies allocate in the same
        // order on every redo).
        for cid in victims {
            if self.repo.locate(cid).is_none() {
                // Already reclaimed by an interrupted earlier attempt (or
                // a preloaded mapping whose container never existed): the
                // index sweep below is all that's left to do.
                self.superseded.remove(&cid);
                continue;
            }
            report.containers_examined += 1;
            let t = self.repo.read(cid).timed();
            report.wall += t.cost;
            let container = match t.value {
                Ok(Some(c)) => c,
                Ok(None) => return Err(DebarError::MissingContainer { container: cid }),
                Err(e) => return Err(e.into()),
            };
            // Copy-aware liveness: a chunk is live *in this container*
            // only if its fingerprint is live AND the owning index part
            // still resolves it here — a live fingerprint repointed by a
            // capping rewrite (or an earlier compaction) leaves a dead
            // copy behind that must reclaim.
            let live_here = |m: &debar_store::ChunkMeta| {
                live.contains(&m.fp) && self.resolve(&m.fp) == Some(cid)
            };
            let dead_bytes: u64 = container
                .metas()
                .iter()
                .filter(|m| !live_here(m))
                .map(|m| m.len as u64)
                .sum();
            if dead_bytes == 0 {
                // Every chunk is live here: the entry that named this
                // container is stale metadata (or a superseded victim
                // whose rewrite never repointed — kept queued), nothing
                // to reclaim.
                continue;
            }
            let any_live = container.metas().iter().any(&live_here);
            if any_live {
                // Partially dead: copy the live chunks into a fresh
                // container *first* — durable on all replicas before any
                // metadata moves.
                let mut fresh = Container::new(self.cfg.container_bytes);
                let mut moved: Vec<Fingerprint> = Vec::new();
                let mut live_bytes = 0u64;
                for i in 0..container.len() {
                    let (m, p) = container.slot(i);
                    if live_here(m) {
                        let fits = fresh.try_append(m.fp, p.clone());
                        debug_assert!(fits, "live subset must fit the same geometry");
                        live_bytes += m.len as u64;
                        moved.push(m.fp);
                    }
                }
                let t = self.repo.store(fresh);
                report.wall += t.cost;
                // A faulted store consumed no ID and persisted nothing:
                // the old container and the index are untouched, so the
                // typed abort is crash-consistent.
                let new_cid = t.value.map_err(DebarError::from)?;
                for fp in &moved {
                    let owner = fp.server_number(w) as usize;
                    self.servers[owner]
                        .index_mut()
                        .set_cid_uncharged(fp, new_cid);
                }
                report.containers_compacted += 1;
                report.moved_chunks += moved.len() as u64;
                report.stored_physical_bytes += live_bytes * self.cfg.replication as u64;
            }
            // Delete the victim on every replica (down-node copies are
            // purged when the node revives or repairs).
            let t = self.repo.delete_container(cid);
            report.wall += t.cost;
            let freed = t.value.map_err(DebarError::from)?;
            report.containers_deleted += 1;
            report.freed_physical_bytes += freed;
            report.dead_chunk_bytes += dead_bytes;
            if self.superseded.remove(&cid) {
                report.superseded_containers += 1;
            }
        }

        // ---- Per-server index sweep; summary withdrawal rides on each
        // server's *successful* sweep so a redo never double-removes.
        let parts = self.cfg.sweep_parts;
        for (sid, dead) in dead_per_server.iter().enumerate() {
            if dead.is_empty() {
                continue;
            }
            let t = self.servers[sid]
                .index_mut()
                .try_gc_sweep(dead, parts)
                .map_err(|e| DebarError::index_fault(sid as ServerId, e))?;
            self.servers[sid].clock.advance(t.cost);
            report.wall += t.cost;
            report.index_removed += t.value;
            for fp in dead {
                if self.summary.remove(fp) {
                    report.summary_removed += 1;
                }
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DebarConfig;
    use crate::dataset::Dataset;
    use crate::ids::{ClientId, Device};
    use debar_hash::Sha1;
    use debar_simio::FaultPlan;
    use debar_workload::drift::records;
    use debar_workload::ChunkRecord;

    fn backed_up(c: &mut DebarCluster, job: crate::ids::JobId, range: std::ops::Range<u64>) {
        c.backup(job, &Dataset::from_records("s", records(range)))
            .expect("backup");
        c.run_dedup2().expect("dedup2");
        c.force_siu().expect("siu");
    }

    #[test]
    fn delete_then_gc_reclaims_only_unshared() {
        let mut c = DebarCluster::new(DebarConfig::tiny_test(0));
        let a = c.define_job("a", ClientId(0));
        let b = c.define_job("b", ClientId(1));
        backed_up(&mut c, a, 0..1000);
        backed_up(&mut c, b, 500..1500); // shares 500..1000 with job a
        let phys_before = c.repository().physical_data_bytes();
        assert_eq!(c.index_entries(), 1500);
        c.delete_run(RunId { job: a, version: 0 }).expect("delete");
        let rep = c.run_gc().expect("gc");
        // Only 0..500 is unreferenced; the shared half must survive.
        assert_eq!(rep.dead_fps, 500);
        assert_eq!(rep.index_removed, 500);
        assert_eq!(c.index_entries(), 1000);
        assert!(rep.containers_compacted > 0, "mixed containers compact");
        // Reclaim exactness at replication 1: the physical delta equals
        // the dead chunk bytes, and the report agrees.
        let phys_after = c.repository().physical_data_bytes();
        assert_eq!(phys_before - phys_after, rep.net_physical_reclaimed());
        assert_eq!(rep.net_physical_reclaimed(), rep.dead_chunk_bytes);
        assert!(rep.dead_chunk_bytes > 0);
        assert!(rep.wall > 0.0);
        // The summary vector withdrew the dead fingerprints and still
        // advertises the live ones.
        assert!(!c.summary().contains(&ChunkRecord::of_counter(0).fp));
        assert!(c.summary().contains(&ChunkRecord::of_counter(600).fp));
        assert_eq!(rep.summary_removed, 500);
        // The surviving run restores clean through the compacted layout.
        let r = c
            .restore_run(RunId { job: b, version: 0 })
            .expect("restore");
        assert_eq!(r.failures, 0);
        assert_eq!(r.chunks, 1000);
        // The deleted run is gone as metadata.
        assert!(matches!(
            c.restore_run(RunId { job: a, version: 0 }),
            Err(DebarError::UnknownRun { .. })
        ));
        // GC is idempotent: a second collection finds nothing.
        let rep2 = c.run_gc().expect("gc again");
        assert_eq!(rep2.dead_fps, 0);
        assert_eq!(rep2.containers_deleted, 0);
        assert_eq!(rep2.freed_physical_bytes, 0);
    }

    #[test]
    fn retention_window_protects_and_expires() {
        let mut c = DebarCluster::new(DebarConfig::tiny_test(0).with_retention(2));
        let a = c.define_job("a", ClientId(0));
        backed_up(&mut c, a, 0..300);
        backed_up(&mut c, a, 100..400);
        backed_up(&mut c, a, 200..500);
        // delete_run refuses the protected newest two versions.
        for version in [1u32, 2] {
            assert_eq!(
                c.delete_run(RunId { job: a, version }),
                Err(DebarError::RetainedRun {
                    run: RunId { job: a, version },
                    retention: 2
                })
            );
        }
        // expire_runs retires exactly the rest.
        assert_eq!(c.expire_runs(), vec![RunId { job: a, version: 0 }]);
        assert!(c.expire_runs().is_empty(), "expiry is idempotent");
        assert!(matches!(
            c.delete_run(RunId { job: a, version: 0 }),
            Err(DebarError::UnknownRun { .. })
        ));
        let rep = c.run_gc().expect("gc");
        // v0's unshared prefix 0..100 is the only garbage.
        assert_eq!(rep.dead_fps, 100);
        // Both retained versions restore clean.
        for version in [1u32, 2] {
            let r = c.restore_run(RunId { job: a, version }).expect("restore");
            assert_eq!(r.failures, 0);
        }
        // The next backup still chains: the filtering fingerprints come
        // from the newest retained run and survive the summary gate.
        let rep = c
            .backup(a, &Dataset::from_records("s", records(200..500)))
            .expect("backup");
        assert_eq!(rep.filtered_dups, 300, "live chain fully advertised");
    }

    #[test]
    fn gc_refuses_to_race_staged_backup() {
        let mut c = DebarCluster::new(DebarConfig::tiny_test(0));
        let a = c.define_job("a", ClientId(0));
        c.backup(a, &Dataset::from_records("s", records(0..200)))
            .expect("backup");
        // Staged dedup-2 state: the collector must refuse, typed.
        assert_eq!(c.run_gc(), Err(DebarError::NotQuiesced { server: 0 }));
        c.run_dedup2().expect("dedup2");
        c.force_siu().expect("siu");
        c.run_gc().expect("quiesced cluster collects fine");
    }

    #[test]
    fn unknown_targets_are_typed() {
        let mut c = DebarCluster::new(DebarConfig::tiny_test(0));
        let a = c.define_job("a", ClientId(0));
        assert!(matches!(
            c.delete_run(RunId { job: a, version: 0 }),
            Err(DebarError::UnknownRun { .. })
        ));
        assert!(matches!(
            c.delete_run(RunId {
                job: crate::ids::JobId(99),
                version: 0
            }),
            Err(DebarError::UnknownJob { .. })
        ));
    }

    /// A faulted GC (index-sweep leg) aborts typed and the redo converges
    /// byte-identically with an uninterrupted collection on a twin.
    #[test]
    fn faulted_sweep_redo_converges_with_clean_twin() {
        let mut faulty = DebarCluster::new(DebarConfig::tiny_test(0));
        let mut clean = DebarCluster::new(DebarConfig::tiny_test(0));
        for c in [&mut faulty, &mut clean] {
            let a = c.define_job("a", ClientId(0));
            let b = c.define_job("b", ClientId(1));
            backed_up(c, a, 0..800);
            backed_up(c, b, 400..1200);
            c.delete_run(RunId { job: a, version: 0 }).expect("delete");
        }
        // Fault plans are absolute-op-indexed and the backups above already
        // ticked the index disk: arm on the *next* op, which is the GC
        // sweep's striped read charge.
        let part0 = Device::IndexPart { server: 0, part: 0 };
        let next_op = faulty.device_ops(part0).expect("in range");
        faulty
            .arm(part0, FaultPlan::fail_at(next_op))
            .expect("in range");
        let err = faulty.run_gc().expect_err("armed index disk must fault");
        assert!(
            matches!(err, DebarError::DeviceFault { device, .. } if device == part0),
            "{err:?}"
        );
        faulty.clear_fault_plans();
        let rep = faulty.run_gc().expect("redo");
        let rep_clean = clean.run_gc().expect("uninterrupted");
        assert_eq!(rep.index_removed, rep_clean.index_removed);
        assert_eq!(
            Sha1::digest(faulty.server(0).index().raw_data()),
            Sha1::digest(clean.server(0).index().raw_data()),
            "redo must converge to the clean index bytes"
        );
        assert_eq!(
            faulty.repository().container_ids(),
            clean.repository().container_ids()
        );
        for c in [&mut faulty, &mut clean] {
            let r = c.restore_run(RunId {
                job: crate::ids::JobId(1),
                version: 0,
            });
            assert_eq!(r.expect("restore").failures, 0);
        }
    }

    /// A faulted compaction (repository leg) aborts typed without losing
    /// any live chunk, and the redo converges with a clean twin.
    #[test]
    fn faulted_compaction_redo_converges_with_clean_twin() {
        let mut faulty = DebarCluster::new(DebarConfig::tiny_test(0));
        let mut clean = DebarCluster::new(DebarConfig::tiny_test(0));
        for c in [&mut faulty, &mut clean] {
            let a = c.define_job("a", ClientId(0));
            let b = c.define_job("b", ClientId(1));
            backed_up(c, a, 0..800);
            backed_up(c, b, 400..1200);
            c.delete_run(RunId { job: a, version: 0 }).expect("delete");
        }
        // Fault the first foreground repository op GC issues on node 0
        // (victim read or compaction store — both abort pre-mutation for
        // that victim).
        let node0 = Device::RepoNode(0);
        let next_op = faulty.device_ops(node0).expect("node exists");
        faulty
            .arm(node0, FaultPlan::fail_at(next_op))
            .expect("node exists");
        let err = faulty.run_gc().expect_err("armed repo node must fault");
        assert!(
            matches!(
                err,
                DebarError::DeviceFault { device, .. } if device == node0
            ) || matches!(err, DebarError::Unrecoverable { node: 0, .. }),
            "{err:?}"
        );
        faulty.clear_fault_plans();
        let rep = faulty.run_gc().expect("redo");
        let rep_clean = clean.run_gc().expect("uninterrupted");
        assert_eq!(rep.index_removed, rep_clean.index_removed);
        assert_eq!(
            faulty.repository().container_ids(),
            clean.repository().container_ids(),
            "container IDs must match a clean history after redo"
        );
        assert_eq!(
            faulty.repository().physical_data_bytes(),
            clean.repository().physical_data_bytes()
        );
        assert_eq!(
            Sha1::digest(faulty.server(0).index().raw_data()),
            Sha1::digest(clean.server(0).index().raw_data())
        );
        // No live chunk was lost at any point.
        for c in [&mut faulty, &mut clean] {
            let r = c.restore_run(RunId {
                job: crate::ids::JobId(1),
                version: 0,
            });
            assert_eq!(r.expect("restore").failures, 0);
        }
    }

    /// GC reclaims on every replica: at replication 2 the physical delta
    /// is exactly twice the dead bytes.
    #[test]
    fn replicated_gc_reclaims_both_copies_exactly() {
        let mut c = DebarCluster::new(DebarConfig::tiny_test(0).with_replication(2));
        let a = c.define_job("a", ClientId(0));
        let b = c.define_job("b", ClientId(1));
        backed_up(&mut c, a, 0..600);
        backed_up(&mut c, b, 300..900);
        let phys_before = c.repository().physical_data_bytes();
        c.delete_run(RunId { job: a, version: 0 }).expect("delete");
        let rep = c.run_gc().expect("gc");
        assert_eq!(rep.dead_fps, 300);
        let phys_after = c.repository().physical_data_bytes();
        assert_eq!(phys_before - phys_after, 2 * rep.dead_chunk_bytes);
        assert_eq!(rep.net_physical_reclaimed(), 2 * rep.dead_chunk_bytes);
        let r = c
            .restore_run(RunId { job: b, version: 0 })
            .expect("restore");
        assert_eq!(r.failures, 0);
        assert_eq!(r.chunks, 600);
    }
}
