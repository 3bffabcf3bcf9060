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
//!    entries, compacts partially-dead containers (their live chunks
//!    packed, victim after victim, into full fresh containers; the old
//!    ones deleted on **every replica**), deletes whole-dead containers,
//!    rebuilds each server's index part without the dead entries, and
//!    withdraws the dead fingerprints from the cluster's deletable summary
//!    vector.
//!
//! # Compaction: one packer, the node timelines
//!
//! A container is the paper's fixed-size unit (§3.4): a write costs
//! `container_bytes` however little it holds, and a whole read as much. So
//! the collection reads of a victim only what is live in it and writes
//! only full containers:
//!
//! * **The read is ranged** ([`debar_store::ChunkRepository::read_chunks`]
//!   with *wanted = live here*: the fingerprint is live and its index
//!   entry still names this container). One device op fetches the
//!   metadata section — which also says how many bytes the victim holds,
//!   so its dead bytes need no second I/O — and the extents of the live
//!   chunks; of a whole-dead victim, the metadata section alone. It
//!   verifies what it uses: header, metadata section, every survivor
//!   against its fingerprint. It does not see damage in chunks it skipped
//!   (they are dead) or in the trailer; a copy it finds corrupt fails over
//!   to a replica read whole and is read-repaired.
//! * **Survivors are packed across victims** by the one container packer
//!   ([`debar_store::ContainerManager`]), in ascending victim ID and slot
//!   order: an output is sealed by the first survivor that does not fit
//!   and at the end of the collection, so every output but the last is
//!   full and a victim's survivors may straddle two outputs.
//! * **Every charge goes on its repository node's timeline**
//!   ([`debar_simio::Lane`], as in a restore): a read's legs on the nodes
//!   that served them; each replica write of an output on its own node,
//!   ready once the reads that filled it are in; a victim's frees no
//!   sooner than the write (or, whole-dead, the read) that made them safe
//!   and after their node's last read and write, which they must not hold
//!   up. A victim
//!   read may start once the output *before the previous one* is durable:
//!   two containers of survivors in flight — one being written, one
//!   filling — and no more. [`GcReport::wall`] is when the last node falls
//!   idle, plus the index sweeps.
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
//! * **Compaction is store-new-then-delete-old.** An output is durable on
//!   all replicas before any index entry is repointed to it, and a victim
//!   is deleted only once *every* output holding one of its survivors is:
//!   a victim that straddles two outputs waits for the second, a
//!   whole-dead one goes as soon as no earlier victim is waiting. A
//!   faulted store consumes no container ID and persists nothing, so no
//!   live chunk is ever without a readable copy that the index names.
//! * **Victims are processed in ascending container-ID order**, making
//!   the plan a deterministic function of the metadata — a redo walks
//!   the same sequence.
//! * **What a redo finds.** Victims whose outputs all became durable are
//!   gone ([`debar_store::ChunkRepository::locate`] is `None`: index
//!   removal only). A victim that was waiting — for the output whose store
//!   faulted, or for a second one — is still there, and the chunks an
//!   earlier output took from it no longer resolve to it: copy-aware
//!   liveness skips them as dead copies, the redo refills the failed
//!   output with exactly the chunks it held, and the IDs, index bytes and
//!   physical bytes are those of an uninterrupted collection.
//! * **Index sweeps abort before mutation.** Each server's GC sweep
//!   charges its striped read+write I/O and checks fault plans *before*
//!   touching a byte ([`debar_index::DiskIndex::try_gc_sweep`]); summary
//!   removals are tied to each server's *successful* sweep, so a redo
//!   never double-removes (which could hurt a colliding live key).
//! * **Read caches are invalidated** on every exit path that may have
//!   deleted a container, so a stale LPC mapping never serves a read.

use super::{last_idle, DebarCluster};
use crate::error::{DebarError, DebarResult};
use crate::ids::{JobId, RunId, ServerId};
use debar_hash::{ContainerId, Fingerprint};
use debar_simio::{Lane, Secs};
use debar_store::{Container, ContainerManager};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashSet};

/// What one garbage collection did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct GcReport {
    /// Fingerprints referenced by retained runs (the live set).
    pub live_fps: u64,
    /// Dead index entries found (and removed).
    pub dead_fps: u64,
    /// Candidate containers examined: their metadata section read, and
    /// the extents of what is live in them.
    pub containers_examined: u64,
    /// Partially-dead victims compacted (live chunks moved) — not the
    /// containers written for them, which are fewer: survivors of
    /// successive victims share full outputs.
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
    /// Virtual time the collection took: the compaction's makespan over
    /// the repository nodes — each node's reads, writes and frees queue on
    /// its own timeline, so it is at least the busiest node's busy time
    /// and at most the sum of all nodes' — plus the index sweeps.
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
        // plan; the outputs fill — and so allocate their IDs — in the same
        // order on every redo).
        let mut pass = Compaction::new(self.cfg.container_bytes, self.repo.node_count());
        for cid in victims {
            if self.repo.locate(cid).is_none() {
                // Already reclaimed by an interrupted earlier attempt (or
                // a preloaded mapping whose container never existed): the
                // index sweep below is all that's left to do.
                self.superseded.remove(&cid);
                continue;
            }
            report.containers_examined += 1;
            // Copy-aware liveness: a chunk is live *in this container*
            // only if its fingerprint is live AND the owning index part
            // still resolves it here — a live fingerprint repointed by a
            // capping rewrite (or an earlier output of this or an
            // interrupted collection) leaves a dead copy behind that must
            // reclaim. The read fetches the metadata section and the
            // extents of what is live here, nothing else.
            let (servers, w) = (&self.servers, self.cfg.w_bits);
            let read = self.repo.read_chunks(cid, |fp| {
                let owner = fp.server_number(w) as usize;
                live.contains(fp) && servers[owner].index().lookup_uncharged(fp) == Some(cid)
            });
            let read_done = read.legs.run_on(&mut pass.nodes, pass.durable[0]);
            let (survivors, listed_bytes) = match (read.value, read.legs.served) {
                (Ok(Some(chunks)), Some(served)) => (chunks, served.data_bytes),
                (Err(e), _) => return Err(e.into()),
                _ => return Err(DebarError::MissingContainer { container: cid }),
            };
            let live_bytes: u64 = survivors.iter().map(|(_, p)| p.len()).sum();
            let dead_bytes = listed_bytes - live_bytes;
            if dead_bytes == 0 {
                // Every chunk is live here: the entry that named this
                // container is stale metadata (or a superseded victim
                // whose rewrite never repointed — kept queued), nothing
                // to reclaim.
                continue;
            }
            if survivors.is_empty() && pass.waiting.is_empty() {
                // Whole-dead and nothing earlier is pending: only its
                // metadata section was read, and it can go now.
                self.gc_delete(&mut pass, (cid, dead_bytes), read_done, &mut report)?;
                continue;
            }
            report.containers_compacted += u64::from(!survivors.is_empty());
            // Its survivors join the open container; one that does not fit
            // seals it, and the victim then waits for the next output too
            // (a whole-dead victim just queues behind the waiting ones, so
            // frees stay in ID order).
            for (fp, payload) in survivors {
                if let Some(sealed) = pass.packer.append(fp, payload) {
                    self.gc_store(&mut pass, sealed, &mut report)?;
                    pass.filled_at = 0.0;
                }
                pass.filled_at = pass.filled_at.max(read_done);
            }
            pass.waiting.push((cid, dead_bytes));
        }
        if let Some(last) = pass.packer.flush() {
            self.gc_store(&mut pass, last, &mut report)?;
        }
        report.wall += pass.end();

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

    /// Store one output of the compaction — durable on every replica, or
    /// nothing persisted and no ID consumed — then repoint the entries of
    /// the chunks it holds and delete the victims that were waiting for
    /// it: all of their survivors are now in durable outputs.
    fn gc_store(
        &mut self,
        pass: &mut Compaction,
        sealed: Container,
        report: &mut GcReport,
    ) -> DebarResult<()> {
        let moved: Vec<Fingerprint> = sealed.fingerprints().collect();
        let bytes = sealed.data_bytes();
        let stored = self.repo.store_batch([sealed]);
        if let Some((e, _)) = stored.fault {
            // The victims and the index are untouched by this output, so
            // the typed abort is crash-consistent.
            return Err(e.into());
        }
        // Each replica writes on its own node once the reads that filled
        // the container are in.
        let durable = (stored.node_costs.iter().enumerate())
            .filter(|(_, &cost)| cost > 0.0)
            .map(|(node, &cost)| pass.nodes[node].run(pass.filled_at, cost))
            .fold(pass.filled_at, f64::max);
        pass.durable = [pass.durable[1], durable];
        let w = self.cfg.w_bits;
        // (One ID: the batch was one container.)
        for new_cid in stored.ids {
            for fp in &moved {
                let owner = fp.server_number(w) as usize;
                self.servers[owner]
                    .index_mut()
                    .set_cid_uncharged(fp, new_cid);
            }
        }
        report.moved_chunks += moved.len() as u64;
        report.stored_physical_bytes += bytes * self.cfg.replication as u64;
        for victim in std::mem::take(&mut pass.waiting) {
            self.gc_delete(pass, victim, durable, report)?;
        }
        Ok(())
    }

    /// Delete a victim — `(id, dead chunk bytes)` — on every replica
    /// (down-node copies are purged when the node revives or repairs),
    /// each free no sooner than `safe_at` on its node: the read that found
    /// it whole-dead, or the write that made its last survivor durable.
    fn gc_delete(
        &mut self,
        pass: &mut Compaction,
        (cid, dead_bytes): (ContainerId, u64),
        safe_at: Secs,
        report: &mut GcReport,
    ) -> DebarResult<()> {
        let freed = self.repo.delete_container(cid)?;
        for &(node, cost) in &freed.node_costs {
            pass.frees.push((node, safe_at, cost));
        }
        report.containers_deleted += 1;
        report.freed_physical_bytes += freed.bytes;
        report.dead_chunk_bytes += dead_bytes;
        if self.superseded.remove(&cid) {
            report.superseded_containers += 1;
        }
        Ok(())
    }
}

/// The compaction of one collection: the one open container survivors are
/// packed into, and the repository-node timelines its I/O runs on.
struct Compaction {
    packer: ContainerManager,
    /// When the reads that filled the open container are in.
    filled_at: Secs,
    /// When the last two outputs became durable, older first. A victim
    /// read starts no sooner than the older: two containers of survivors
    /// in flight — one being written, one filling — and no more.
    durable: [Secs; 2],
    /// Victims read to the end that wait for the open container to be
    /// durable, ascending, each with its dead chunk bytes: those with a
    /// survivor in it, and whole-dead ones queued behind them.
    waiting: Vec<(ContainerId, u64)>,
    /// One timeline per repository node.
    nodes: Vec<Lane>,
    /// `(node, safe_at, cost)` of every free so far. A free is a 4 KiB
    /// log append its node fits in whenever it is idle; on a FIFO timeline
    /// it would instead hold every read queued behind it until `safe_at`
    /// (a write on *another* node, at R = 1), so the frees run last.
    frees: Vec<(usize, Secs, Secs)>,
}

impl Compaction {
    fn new(container_bytes: u64, nodes: usize) -> Self {
        Compaction {
            packer: ContainerManager::new(container_bytes),
            filled_at: 0.0,
            durable: [0.0; 2],
            waiting: Vec::new(),
            nodes: vec![Lane::new(); nodes],
            frees: Vec::new(),
        }
    }

    /// Run the frees; when the last node falls idle.
    fn end(mut self) -> Secs {
        for (node, safe_at, cost) in self.frees {
            self.nodes[node].run(safe_at, cost);
        }
        last_idle(&self.nodes)
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
    /// Records `range` with lengths that divide nothing: 1–64 KiB, mixed.
    fn mixed(range: std::ops::Range<u64>) -> Vec<ChunkRecord> {
        let len = |n: u64| 1024 + (n * 7919 % 63) as u32 * 1024 + (n % 1000) as u32;
        range
            .map(|n| ChunkRecord::new(ChunkRecord::of_counter(n).fp, len(n)))
            .collect()
    }

    /// Every other run of 24 chunks of `range`: what a second job keeps
    /// alive of the first one's containers.
    fn even_blocks(range: std::ops::Range<u64>) -> Vec<ChunkRecord> {
        let all = mixed(range);
        (all.chunks(24).step_by(2).flatten().copied()).collect()
    }

    /// Job `a` backs up `mixed(0..n)` and job `b` every other run of 24 of
    /// them, so every container of `a` is a half-live victim once `a` goes.
    fn half_live(cfg: DebarConfig, n: u64) -> (DebarCluster, JobId, JobId) {
        let mut c = DebarCluster::new(cfg);
        let a = c.define_job("a", ClientId(0));
        let b = c.define_job("b", ClientId(1));
        for (job, recs) in [(a, mixed(0..n)), (b, even_blocks(0..n))] {
            c.backup(job, &Dataset::from_records("s", recs))
                .expect("backup");
            c.run_dedup2().expect("dedup2");
            c.force_siu().expect("siu");
        }
        (c, a, b)
    }

    /// A failed append is the packer's flush, never a repoint to a
    /// container that does not hold the chunk: with survivors whose sizes
    /// do not divide the container, every moved fingerprint resolves to an
    /// output that finds it, every output but the last was full for the
    /// chunk that opened the next, and the reclaim stays exact.
    #[test]
    fn packed_outputs_hold_what_the_index_says_and_are_full() {
        for replication in [1, 2] {
            let cfg = DebarConfig::tiny_test(0).with_replication(replication);
            let (mut c, a, b) = half_live(cfg, 600);
            let before = c.repository().container_ids();
            let phys_before = c.repository().physical_data_bytes();
            c.delete_run(RunId { job: a, version: 0 }).expect("delete");
            let rep = c.run_gc().expect("gc");
            assert_eq!(
                rep.net_physical_reclaimed(),
                replication as u64 * rep.dead_chunk_bytes
            );
            assert_eq!(
                phys_before - c.repository().physical_data_bytes(),
                rep.net_physical_reclaimed()
            );
            let outputs: Vec<Container> = (c.repository().container_ids().into_iter())
                .filter(|cid| !before.contains(cid))
                .map(|cid| c.repo.read(cid).value.expect("clean").expect("stored"))
                .collect();
            assert!(outputs.len() >= 3, "{} outputs", outputs.len());
            assert!(
                (outputs.len() as u64) < rep.containers_compacted,
                "survivors of several victims share an output"
            );
            for pair in outputs.windows(2) {
                let forced = pair[1].slot(0).0.len as u64;
                assert!(
                    pair[0].remaining() < forced,
                    "sealed with room for {forced}"
                );
            }
            // A survivor is in the output its entry names; a chunk that
            // was not moved (its container had nothing dead) is where it was.
            let mut moved = 0;
            for r in even_blocks(0..600) {
                let cid = c.resolve(&r.fp).expect("live entry");
                assert!(before.contains(&cid) || outputs.iter().any(|o| o.id() == cid));
                for holder in outputs.iter().filter(|o| o.id() == cid) {
                    assert!(holder.find(&r.fp).is_some(), "{cid:?} lacks its chunk");
                    moved += 1;
                }
            }
            assert_eq!(rep.moved_chunks, moved);
            let r = c.restore_run(RunId { job: b, version: 0 });
            assert_eq!(r.expect("restore").failures, 0);
        }
    }

    /// One collection of `c`, with what it kept each repository node's
    /// disk busy for and wrote to it, and the index sweeps' share of
    /// `wall` (server 0's clock advances by exactly that).
    fn collected(c: &mut DebarCluster) -> (GcReport, Vec<(Secs, u64)>, Secs) {
        let disks = |c: &DebarCluster| -> Vec<(Secs, u64)> {
            (c.repository().nodes().iter())
                .map(|n| (n.disk_stats().busy_s, n.disk_stats().seq_write_bytes))
                .collect()
        };
        let (before, clock) = (disks(c), c.servers[0].clock.now());
        let rep = c.run_gc().expect("gc");
        let nodes = (disks(c).iter().zip(&before))
            .map(|(after, before)| (after.0 - before.0, after.1 - before.1))
            .collect();
        (rep, nodes, c.servers[0].clock.now() - clock)
    }

    fn close(a: Secs, b: Secs) -> bool {
        (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
    }

    /// The lane laws on a collection's own counters: what `wall` adds to
    /// the index sweeps lies between the busiest node's busy time and the
    /// sum of all nodes' — and is the sum when one node holds every copy.
    #[test]
    fn compaction_wall_is_bounded_by_the_busiest_node_and_the_serial_sum() {
        for (nodes, replication) in [(1, 1), (2, 1), (2, 2)] {
            let cfg = DebarConfig {
                repo_nodes: nodes,
                ..DebarConfig::tiny_test(0).with_replication(replication)
            };
            let (mut c, a, _) = half_live(cfg, 400);
            c.delete_run(RunId { job: a, version: 0 }).expect("delete");
            let (rep, busy, sweeps) = collected(&mut c);
            assert!(rep.containers_compacted >= 8 && sweeps > 0.0);
            let lanes = rep.wall - sweeps;
            let busiest = busy.iter().map(|d| d.0).fold(0.0, f64::max);
            let serial: Secs = busy.iter().map(|d| d.0).sum();
            let tag = format!("{nodes} nodes, R={replication}: {busiest} <= {lanes} <= {serial}");
            assert!(lanes >= busiest * (1.0 - 1e-9), "{tag}");
            assert!(lanes <= serial * (1.0 + 1e-9), "{tag}");
            if nodes == 1 {
                assert!(close(lanes, serial), "{tag}");
            } else {
                assert!(lanes < 0.75 * serial, "two nodes overlap: {tag}");
            }
        }
    }

    /// Victims alternate over two nodes (round-robin by ID), so their
    /// reads — all of them ahead of the one output their few survivors
    /// fill — finish in about half their serial sum.
    #[test]
    fn victim_reads_on_two_nodes_take_half_their_serial_sum() {
        let mut c = DebarCluster::new(DebarConfig::tiny_test(0));
        let a = c.define_job("a", ClientId(0));
        let b = c.define_job("b", ClientId(1));
        backed_up(&mut c, a, 0..2000);
        // One chunk in 40 survives: ~3 per victim, one output in all.
        let kept: Vec<ChunkRecord> = (0..2000).step_by(40).map(ChunkRecord::of_counter).collect();
        c.backup(b, &Dataset::from_records("s", kept))
            .expect("backup");
        c.run_dedup2().expect("dedup2");
        c.force_siu().expect("siu");
        c.delete_run(RunId { job: a, version: 0 }).expect("delete");
        let (rep, busy, sweeps) = collected(&mut c);
        assert!(rep.containers_compacted >= 12, "{rep:?}");
        // Everything that is not a read: the one output and the frees.
        let disk = debar_simio::models::paper::repo_disk();
        let writes = disk.seq_write_cost(busy.iter().map(|d| d.1).sum());
        let reads = busy.iter().map(|d| d.0).sum::<Secs>() - writes;
        let lanes = rep.wall - sweeps;
        assert!(
            lanes - writes <= 0.55 * reads,
            "{lanes} - {writes} vs {reads}"
        );
        assert!(lanes >= 0.5 * reads, "{lanes} vs {reads}");
    }
}
