//! The DEBAR cluster: TPDS orchestration across `2^w` backup servers
//! (paper §2, §5).
//!
//! Dedup-1 is `backup.rs`: one loop for every [`crate::DedupMode`], run
//! here rather than on a [`BackupServer`] because its inline rungs reach
//! other servers' index parts and checking files; out-of-line is that loop
//! with no probe budget. The rest of this file is dedup-2 and cluster
//! administration.
//!
//! Dedup-2 follows the paper's Fig. 5 phases, but the phases are a
//! **pipeline**, not a lockstep of barriers. The cluster's parallelism is
//! **charged, not executed**: every [`BackupServer`] owns its
//! [`debar_simio::VirtualClock`], so a phase is a plain loop over the
//! servers in ID order — each advances only its own clock, and a barrier
//! is `max` over the clocks. No OS thread is spawned anywhere. What
//! overlaps in virtual time, and what barriers remain:
//!
//! | phase | §, what happens | sync model |
//! |---|---|---|
//! | exchange | §5.2: undetermined fingerprints partitioned by first `w` bits and exchanged | barrier **after** (all-to-all: every owner needs every origin's batch) |
//! | PSIL | each server sweeps its index part on its own clock; verdicts routed back to origins | no exit barrier — each server's clock runs ahead on its own |
//! | chunk storing | §5.3: each origin **packs** its chunk log into containers on its own clock (`store_workers` worker disks striping each drain), then a canonical-order **commit** assigns container IDs | overlapped: server *i*'s pack starts at its own post-PSIL clock, while straggler servers are still sweeping |
//! | update routing | unregistered `(fp, container)` pairs exchanged to owner parts | barrier after (PSIU needs every origin's updates) |
//! | PSIU | §5.4: owners merge updates on their own clocks; may be deferred (asynchronous SIU) | barrier after (round commit) |
//!
//! Two rules keep a round a pure function of its inputs and the armed
//! fault plans:
//!
//! 1. **Canonical order is the schedule.** The per-server loops and the
//!    commit ([`BackupServer::commit_packed`]) walk servers in ID order and
//!    containers in seal order, and PSIL, pack
//!    ([`BackupServer::pack_chunks`]: no repository, no container IDs) and
//!    PSIU touch only the server's own state — so container IDs, placement,
//!    fault-plan op indices and all results are **byte-identical** from run
//!    to run.
//! 2. **A fault does not stop the siblings.** Every server finishes PSIL,
//!    pack or PSIU before any result is inspected; only then is the first
//!    error (lowest server ID) surfaced and the round rolled back. Sibling
//!    op counters and clocks advance as in an unfaulted round, so a redo
//!    replays from the same device state whichever server faulted.
//!
//! The remaining barriers are genuine data dependencies (all-to-all
//! exchanges and the round commit), not implementation convenience.

use crate::client::BackupClient;
use crate::config::DebarConfig;
use crate::director::Director;
use crate::error::{DebarError, DebarResult, Dedup2Phase};
use crate::ids::{ClientId, Device, JobId, RunId, ServerId};
use crate::job::{JobSpec, Schedule};
use crate::report::{Dedup2Report, StoreReport};
use crate::server::{merge_decision, BackupServer, Decision, SilPartOutput};
use debar_filter::CuckooFilter;
use debar_hash::{ContainerId, Fingerprint};
use debar_index::SiuReport;
use debar_simio::models::paper;
use debar_simio::{FaultPlan, Lane, Secs, Timed};
use debar_store::{ChunkRepository, Damage};
use std::collections::{BTreeSet, HashMap};

#[path = "backup.rs"]
mod backup;

#[path = "gc.rs"]
mod gc;
pub use gc::GcReport;

#[path = "layout.rs"]
mod layout;
pub(crate) use layout::LayoutTracker;
pub use layout::{CapReport, LayoutReport};

#[path = "restore.rs"]
mod restore;

/// When the last of a phase's repository-node timelines falls idle: the
/// makespan of what was queued on them.
fn last_idle(nodes: &[Lane]) -> Secs {
    nodes.iter().map(|n| n.free_at).fold(0.0, f64::max)
}

/// A DEBAR deployment: director + backup servers + chunk repository.
pub struct DebarCluster {
    cfg: DebarConfig,
    /// The director (public for metadata inspection).
    pub director: Director,
    servers: Vec<BackupServer>,
    repo: ChunkRepository,
    clients: HashMap<ClientId, BackupClient>,
    /// Storage statistics of an interrupted round's durable prefix, folded
    /// into the resumed round's report so crashed-plus-resumed totals
    /// match an uninterrupted history.
    carryover_store: StoreReport,
    /// The deletable summary vector: a cuckoo filter holding one copy of
    /// every fingerprint referenced by a recorded run (or preloaded as
    /// ballast). Dedup-1 filter priming is gated on it, and garbage
    /// collection *removes* reclaimed fingerprints — something the blocked
    /// Bloom preliminary filter cannot do — so the filter chain stops
    /// advertising dead chunks (see [`crate::cluster::GcReport`]).
    summary: CuckooFilter,
    /// Runs recorded since the last rewrite-on-backup capping pass
    /// (populated only under [`crate::config::LayoutMode::Capped`]; the
    /// pass after each round's chunk-storing commit drains it — see
    /// `layout.rs`). Runs survive here across a faulted pass for the
    /// redo.
    uncapped_runs: Vec<RunId>,
    /// Containers left holding superseded chunk copies by capping
    /// rewrites: the owning index parts no longer point at them, and the
    /// next [`DebarCluster::run_gc`] reclaims the dead copies (copy-aware
    /// liveness) and drains this queue.
    superseded: BTreeSet<ContainerId>,
}

impl DebarCluster {
    /// Build a cluster from a configuration.
    pub fn new(cfg: DebarConfig) -> Self {
        cfg.validate();
        let servers = (0..cfg.servers() as u16)
            .map(|id| BackupServer::new(id, cfg))
            .collect();
        DebarCluster {
            director: Director::new(&cfg),
            servers,
            repo: ChunkRepository::new(cfg.repo_nodes, paper::repo_disk(), cfg.container_bytes)
                .with_replication(cfg.replication)
                .with_retry(cfg.retry)
                .with_health_policy(cfg.health),
            clients: HashMap::new(),
            carryover_store: StoreReport::default(),
            summary: CuckooFilter::with_capacity(1024, cfg.seed ^ 0x6C1A_55E7),
            uncapped_runs: Vec::new(),
            superseded: BTreeSet::new(),
            cfg,
        }
    }

    /// The cluster's deletable summary vector (one fingerprint copy per
    /// referenced chunk; GC removes reclaimed fingerprints).
    pub fn summary(&self) -> &CuckooFilter {
        &self.summary
    }

    /// The configuration.
    pub fn config(&self) -> &DebarConfig {
        &self.cfg
    }

    /// Number of backup servers.
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// A server view.
    pub fn server(&self, id: ServerId) -> &BackupServer {
        &self.servers[id as usize]
    }

    /// The chunk repository.
    pub fn repository(&self) -> &ChunkRepository {
        &self.repo
    }

    // ------------------------------------------------------------------
    // Fault injection (deterministic; see `debar_simio::fault`)
    // ------------------------------------------------------------------

    /// Arm a deterministic fault schedule on one simulated device
    /// (replacing its previous plan). A fired fault reports this same
    /// `device`, in [`DebarError::DeviceFault`] (the cause inside
    /// [`DebarError::InterruptedDedup2`] when it interrupts a round) or
    /// [`DebarError::PartialSiu`]. An address outside the deployment is a
    /// typed error at arm time — never a panic or a plan that silently
    /// cannot fire: [`DebarError::UnknownServer`], or
    /// [`DebarError::IndexGeometry`] for a node past the repository, an
    /// index part past the stripe (`sweep_parts` clamped to the live
    /// bucket count) or a log worker past `store_workers`.
    pub fn arm(&mut self, device: Device, plan: FaultPlan) -> DebarResult<()> {
        self.check_device(device)?;
        match device {
            Device::RepoNode(node) => self.repo.set_node_fault_plan(node, plan)?,
            Device::IndexPart { server, part } => self.servers[server as usize]
                .index_mut()
                .set_part_fault_plan(part as usize, plan),
            Device::LogWorker { server, worker } => self.servers[server as usize]
                .chunk_log
                .set_worker_fault_plan(worker as usize, plan),
        }
        Ok(())
    }

    /// A device's operation counter — the index its next op gets, for
    /// `arm(d, FaultPlan::fail_at(device_ops(d)? + k))`. Validates the
    /// address like [`DebarCluster::arm`].
    pub fn device_ops(&self, device: Device) -> DebarResult<u64> {
        self.check_device(device)?;
        Ok(match device {
            Device::RepoNode(node) => self.repo.node_disk_ops(node)?,
            Device::IndexPart { server, part } => self.servers[server as usize]
                .index()
                .part_disk_ops(part as usize),
            Device::LogWorker { server, worker } => self.servers[server as usize]
                .chunk_log
                .worker_disk_ops(worker as usize),
        })
    }

    /// Reject a server-side device address outside the deployment
    /// (repository nodes are validated by the repository itself).
    fn check_device(&self, device: Device) -> DebarResult<()> {
        let (server, unit) = match device {
            Device::RepoNode(_) => return Ok(()),
            Device::IndexPart { server, part } => (server, part),
            Device::LogWorker { server, worker } => (server, worker),
        };
        let srv = self
            .servers
            .get(server as usize)
            .ok_or(DebarError::UnknownServer { server })?;
        let width = match device {
            Device::IndexPart { .. } => {
                (self.cfg.sweep_parts as u64).min(srv.index().params().buckets())
            }
            _ => self.cfg.store_workers as u64,
        };
        if u64::from(unit) < width {
            Ok(())
        } else {
            Err(DebarError::IndexGeometry {
                reason: format!(
                    "{device} is outside the {width}-way stripe: a plan armed there would never fire"
                ),
            })
        }
    }

    /// Disarm every device in the deployment (armed and
    /// fired-but-uncollected faults).
    pub fn clear_fault_plans(&mut self) {
        self.repo.clear_fault_plans();
        for s in &mut self.servers {
            s.index_mut().clear_fault_plan();
            s.chunk_log.clear_fault_plan();
        }
    }

    // ------------------------------------------------------------------
    // Repository node administration (down / revive / repair)
    // ------------------------------------------------------------------

    /// Take one repository node offline: every read prefers a surviving
    /// replica (counted in `RepoStats::failover_reads` and
    /// [`crate::RestoreReport::failover_reads`]) and stores targeting the
    /// node surface [`DebarError::NodeDown`]. The node's data is retained —
    /// [`DebarCluster::revive_repo_node`] restores access to it.
    pub fn set_repo_node_down(&mut self, node: usize) -> DebarResult<()> {
        Ok(self.repo.set_node_down(node)?)
    }

    /// Bring a downed repository node back online with its data intact.
    pub fn revive_repo_node(&mut self, node: usize) -> DebarResult<()> {
        Ok(self.repo.revive_node(node)?)
    }

    /// Repair one repository node from surviving replicas: a downed node
    /// is treated as a replaced disk (wiped and re-replicated), an online
    /// node is scrubbed in place (damaged or missing copies recopied).
    /// Maintenance I/O runs in the background and is not charged to any
    /// backup server's clock. Returns
    /// [`DebarError::Unrecoverable`] — having changed nothing — when a
    /// container's every other replica is lost too.
    pub fn repair_repo_node(&mut self, node: usize) -> DebarResult<debar_store::RepairReport> {
        Ok(self.repo.repair_node(node).value?)
    }

    /// One repository node's health as tracked by the configured
    /// [`debar_store::HealthPolicy`] (always `Healthy` when tracking is
    /// disabled). An out-of-range node is a typed error.
    pub fn repo_node_health(&mut self, node: usize) -> DebarResult<debar_store::Health> {
        Ok(self.repo.node_health(node)?)
    }

    /// Cluster-wide integrity scrub: walk every container copy on every
    /// up repository node, verify its checksummed image, and re-replicate
    /// every corrupt or missing copy from a clean survivor. Returns the
    /// [`debar_store::ScrubReport`] accounting every copy checked,
    /// corruption found, repair made and copy left unrecoverable.
    ///
    /// The scrub walks repository state that an in-flight dedup-2 round is
    /// still appending to, so — like [`DebarCluster::run_gc`] and
    /// [`DebarCluster::scale_out`] — it requires every server to be
    /// quiesced and refuses with the typed [`DebarError::NotQuiesced`]
    /// otherwise (finish the round with `run_dedup2` + `force_siu`).
    /// Maintenance I/O runs in the background: the returned cost is the
    /// slowest node's share, charged to no backup server's clock.
    pub fn scrub(&mut self) -> DebarResult<Timed<debar_store::ScrubReport>> {
        self.ensure_quiesced()?;
        Ok(self.repo.scrub_all())
    }

    /// The quiesce gate of every operation that cannot race an in-flight
    /// dedup-2 round (scrub, garbage collection, scale-out): the typed
    /// [`DebarError::NotQuiesced`] naming the first server that still holds
    /// staged dedup-2 state.
    pub(crate) fn ensure_quiesced(&self) -> DebarResult<()> {
        match self.servers.iter().position(|s| !s.is_quiesced()) {
            Some(sid) => Err(DebarError::NotQuiesced {
                server: sid as ServerId,
            }),
            None => Ok(()),
        }
    }

    /// Set (`Some`: torn write / bit rot) or clear (`None`: admin repair
    /// from a replica) injected damage against a stored container; while
    /// damaged, every read of that copy surfaces
    /// [`DebarError::CorruptContainer`]. Targeting a container that does
    /// not exist is the typed [`DebarError::MissingContainer`], never a
    /// silent no-op.
    pub fn set_damage(&mut self, cid: ContainerId, damage: Option<Damage>) -> DebarResult<()> {
        Ok(self.repo.set_damage(cid, damage)?)
    }

    /// Per-server undetermined fingerprint counts.
    pub fn undetermined_counts(&self) -> Vec<usize> {
        self.servers
            .iter()
            .map(BackupServer::undetermined_len)
            .collect()
    }

    /// Whether the director's automatic dedup-2 trigger fires.
    pub fn should_run_dedup2(&self) -> bool {
        self.director.should_run_dedup2(&self.undetermined_counts())
    }

    /// Max virtual time across server clocks (the cluster "now").
    pub fn now(&self) -> Secs {
        self.servers
            .iter()
            .map(|s| s.clock.now())
            .fold(0.0, f64::max)
    }

    /// Register a job for `client` with a manual schedule.
    pub fn define_job(&mut self, name: impl Into<String>, client: ClientId) -> JobId {
        self.director.define_job(JobSpec {
            name: name.into(),
            client,
            schedule: Schedule::Manual,
        })
    }

    /// The clock barrier: align all server clocks to the slowest and
    /// return that time. Public for experiment harnesses measuring
    /// wall-clock phases across servers (e.g. "one day of backups").
    pub fn align_clocks(&mut self) -> Secs {
        let max = self.now();
        for s in &mut self.servers {
            s.clock.advance_to(max);
        }
        max
    }

    /// Run one de-duplication phase-II round (PSIL → chunk storing → PSIU).
    ///
    /// # Failure model
    ///
    /// An injected fault mid-round surfaces as
    /// [`DebarError::InterruptedDedup2`] (PSIL or chunk storing) or
    /// [`DebarError::PartialSiu`] (PSIU), and the cluster rolls the round
    /// back to a crash-consistent state: undetermined fingerprints are
    /// restored, checking-file additions are only committed when every
    /// PSIL pass succeeded, undrained/unsealed chunks are re-queued into
    /// the chunk log with their storage decisions carried over, and the
    /// round number is **not** committed. Calling `run_dedup2` again
    /// (after clearing the fault) re-runs the same round and converges to
    /// the byte-identical index parts and restore bytes of an
    /// uninterrupted run.
    pub fn run_dedup2(&mut self) -> DebarResult<Dedup2Report> {
        let (round, run_siu) = self.director.peek_dedup2();
        let s = self.servers.len();
        let w = self.cfg.w_bits;
        // Decisions the backup path already resolved (inline/hybrid dedup):
        // they enter the round as carryover, bypassing PSIL. Counted before
        // the round so a faulted attempt reports them again on the resume;
        // the counters reset only on commit below.
        let predetermined_fps: u64 = self.servers.iter().map(BackupServer::inline_staged).sum();
        let t0 = self.align_clocks();

        // ---- Phase 1: partition undetermined fingerprints, exchange. ----
        // The per-server snapshot survives until every PSIL pass succeeds
        // so an interrupted round can restore the exact original order
        // (sub-batch boundaries must reproduce on the re-run).
        let taken: Vec<Vec<Fingerprint>> = self
            .servers
            .iter_mut()
            .map(BackupServer::take_undetermined)
            .collect();
        let mut batches: Vec<Vec<(Fingerprint, ServerId)>> = vec![Vec::new(); s];
        let mut tx_bytes = vec![0u64; s];
        let mut rx_bytes = vec![0u64; s];
        for (i, fps) in taken.iter().enumerate() {
            for &fp in fps {
                let owner = fp.server_number(w) as usize;
                if owner != i {
                    tx_bytes[i] += 25;
                    rx_bytes[owner] += 25;
                }
                batches[owner].push((fp, i as ServerId));
            }
        }
        for i in 0..s {
            self.servers[i].charge_net(tx_bytes[i] + rx_bytes[i]);
        }
        let submitted_fps: u64 = batches.iter().map(|b| b.len() as u64).sum();
        let t1 = self.align_clocks();

        // ---- Phase 2: PSIL, every server on its own clock. ----
        let results: Vec<Result<SilPartOutput, DebarError>> = self
            .servers
            .iter_mut()
            .zip(&batches)
            .map(|(srv, batch)| srv.sil_on_part(batch, s))
            .collect();
        if let Some((sid, cause)) = first_fault(&results) {
            // Crash rollback: give every origin its fingerprints back in
            // original order; no checking entry was committed.
            for (srv, fps) in self.servers.iter_mut().zip(taken) {
                srv.restore_undetermined(fps);
            }
            let _ = self.align_clocks();
            return Err(DebarError::InterruptedDedup2 {
                round,
                phase: Dedup2Phase::Sil,
                server: sid,
                cause: Box::new(cause),
            });
        }
        let outputs: Vec<SilPartOutput> = results.into_iter().flatten().collect();
        // Every PSIL pass succeeded: commit the staged checking entries.
        for (srv, out) in self.servers.iter_mut().zip(&outputs) {
            srv.commit_checking(&out.newly_checking);
        }
        // Route verdicts back to origins (charging the result exchange).
        let mut decisions: Vec<HashMap<Fingerprint, Decision>> =
            (0..s).map(|_| HashMap::new()).collect();
        let mut tx2 = vec![0u64; s];
        for (owner, out) in outputs.iter().enumerate() {
            for (origin, list) in out.verdicts.iter().enumerate() {
                if origin != owner {
                    tx2[owner] += 26 * list.len() as u64;
                    tx2[origin] += 26 * list.len() as u64;
                }
                for &(fp, d) in list {
                    // The same (fp, origin) pair can be adjudicated twice
                    // when an origin re-submitted a fingerprint and the two
                    // submissions landed in different SIL sub-batches: the
                    // first yields Store, the second a checking-file Skip.
                    // A Store designation is binding — it must never be
                    // overwritten by a later Skip.
                    merge_decision(&mut decisions[origin], fp, d);
                }
            }
        }
        for (srv, &t) in self.servers.iter_mut().zip(&tx2) {
            srv.charge_net(t);
        }
        let dup_registered: u64 = outputs.iter().map(|o| o.stats.dup_registered).sum();
        let dup_pending: u64 = outputs.iter().map(|o| o.stats.dup_pending).sum();
        let new_fps: u64 = outputs.iter().map(|o| o.stats.new_fps).sum();
        let sil_sweeps: u32 = outputs.iter().map(|o| o.stats.sweeps).sum();
        // Partitions the striped sweeps actually engaged (0 when no server
        // swept this round; report the configured mode then).
        let sweep_parts = outputs
            .iter()
            .map(|o| o.stats.parts)
            .max()
            .filter(|&p| p > 0)
            .unwrap_or(self.cfg.sweep_parts.min(u32::MAX as usize) as u32);
        // No barrier here: phase 3 is pipelined, each server's chunk
        // storing starts at its *own* post-PSIL clock while stragglers
        // are still sweeping. `t2` (the slowest server) still delimits
        // the reported PSIL wall.
        let t2 = self.now();

        // ---- Phase 3: pipelined chunk storing. ----
        // Start from the durable prefix of an interrupted attempt of this
        // round, so the (re)run's report covers the whole round.
        let mut store_total = std::mem::take(&mut self.carryover_store);
        // Stage 1 — pack: every server drains its chunk log (striped
        // over `store_workers` worker disks) and packs SISL containers,
        // starting at its own post-PSIL clock. Packing touches only the
        // server's own state (no repository access).
        let packs: Vec<Result<crate::server::PackOutput, DebarError>> = self
            .servers
            .iter_mut()
            .zip(&decisions)
            .map(|(srv, dec)| srv.pack_chunks(dec))
            .collect();
        // A drain fault interrupts the phase before any container commits:
        // the faulted server already kept its log intact and stashed its
        // decisions, and the walk below rolls every sibling pack back, so
        // the resumed round replays the identical sequence everywhere.
        let mut store_fault = first_fault(&packs);
        // Stage 2 — commit in canonical server order: container IDs are
        // assigned here, so the repository sees exactly the operation
        // sequence of the bulk-synchronous model and results stay
        // byte-identical.
        let mut routed_updates: Vec<Vec<(Fingerprint, ContainerId)>> = vec![Vec::new(); s];
        let mut tx3 = vec![0u64; s];
        for (i, pack) in packs.into_iter().enumerate() {
            let Ok(pack) = pack else { continue };
            if store_fault.is_some() {
                // An earlier fault interrupted the phase: roll this
                // server's pack back whole (its log must look as if the
                // drain never ran) and carry its decisions over.
                self.servers[i].abort_pack(pack);
                continue;
            }
            let outcome = {
                let repo = &mut self.repo;
                self.servers[i].commit_packed(pack, repo)
            };
            let rep = outcome.report;
            store_total.log_records += rep.log_records;
            store_total.log_bytes += rep.log_bytes;
            store_total.stored_chunks += rep.stored_chunks;
            store_total.stored_bytes += rep.stored_bytes;
            store_total.discarded += rep.discarded;
            store_total.containers += rep.containers;
            // Durable assignments route to their owners even when the
            // pass was interrupted — they are on disk and must register.
            for (fp, cid) in outcome.assigned {
                let owner = fp.server_number(w) as usize;
                if owner != i {
                    tx3[i] += 30;
                    tx3[owner] += 30;
                }
                routed_updates[owner].push((fp, cid));
            }
            if let Some(e) = outcome.fault {
                store_fault = Some((i as ServerId, e));
            }
        }
        for (srv, &t) in self.servers.iter_mut().zip(&tx3) {
            srv.charge_net(t);
        }
        for (i, updates) in routed_updates.into_iter().enumerate() {
            self.servers[i].queue_updates(updates);
        }
        if let Some((sid, cause)) = store_fault {
            // Keep the durable prefix's statistics for the resumed round.
            self.carryover_store = store_total;
            let _ = self.align_clocks();
            return Err(DebarError::InterruptedDedup2 {
                round,
                phase: Dedup2Phase::ChunkStoring,
                server: sid,
                cause: Box::new(cause),
            });
        }
        let t3 = self.align_clocks();

        // ---- Phase 3b: rewrite-on-backup container capping. ----
        // Runs only under `LayoutMode::Capped`, after the chunk-storing
        // commit (container IDs are canonical and every chunk of the
        // round's runs is durable) and before PSIU (repoints overwrite
        // the pending mappings in place, so the same SIU registers the
        // colocated layout). A fault keeps the affected runs queued and
        // leaves the round uncommitted, so the redo converges.
        let mut cap = match self.cap_rewrite_pass() {
            Ok(c) => c,
            Err(e) => {
                let _ = self.align_clocks();
                return Err(e);
            }
        };
        let t3b = self.align_clocks();
        cap.wall = t3b - t3;

        // ---- Phase 4: PSIU (possibly deferred: asynchronous SIU). ----
        // A faulted server keeps its pending updates; the round stays
        // uncommitted and a re-run retries the SIU.
        let (siu_reports, siu_updates) = if run_siu {
            self.psiu()?
        } else {
            (Vec::new(), 0)
        };
        let t4 = self.align_clocks();
        self.director.commit_dedup2();
        // The round committed: the staged inline decisions it consumed are
        // accounted for.
        for srv in &mut self.servers {
            srv.reset_inline_staged();
        }

        Ok(Dedup2Report {
            round,
            submitted_fps,
            predetermined_fps,
            dup_registered,
            dup_pending,
            new_fps,
            sil_sweeps,
            sweep_parts,
            store_workers: self.cfg.store_workers.min(u32::MAX as usize) as u32,
            store: store_total,
            cap,
            siu_ran: run_siu,
            siu_reports,
            siu_updates,
            exchange_wall: t1 - t0,
            sil_wall: t2 - t1,
            store_wall: t3 - t2,
            siu_wall: t4 - t3b,
        })
    }

    /// Force PSIU now (register every pending fingerprint). Used before
    /// restores and at experiment end.
    ///
    /// An injected index-disk fault surfaces as
    /// [`DebarError::PartialSiu`]; the faulted server keeps its pending
    /// updates, and calling `force_siu` again re-applies them
    /// idempotently (see [`BackupServer::run_siu`]).
    pub fn force_siu(&mut self) -> DebarResult<(Vec<SiuReport>, Secs)> {
        let t0 = self.align_clocks();
        let (reports, _) = self.psiu()?;
        Ok((reports, self.now() - t0))
    }

    /// PSIU: every server merges its pending updates on its own clock,
    /// then the clocks align. Every part runs its SIU before any result is
    /// inspected; returns the per-server reports and the update count, or
    /// the first fault (lowest server ID).
    fn psiu(&mut self) -> DebarResult<(Vec<SiuReport>, u64)> {
        let results: Vec<_> = self.servers.iter_mut().map(BackupServer::run_siu).collect();
        let _ = self.align_clocks();
        let mut reports = Vec::with_capacity(results.len());
        let mut updates = 0;
        for r in results {
            let (report, n) = r?;
            reports.push(report);
            updates += n;
        }
        Ok((reports, updates))
    }

    /// Resolve a fingerprint to its container via the owning index part
    /// (uncharged; test/verification support).
    pub fn resolve(&self, fp: &Fingerprint) -> Option<ContainerId> {
        let owner = fp.server_number(self.cfg.w_bits) as usize;
        self.servers[owner].index().lookup_uncharged(fp)
    }

    /// Capacity scaling at cluster level (§4.1): double every server's
    /// index part in place. Returns the wall-clock cost of the slowest
    /// server's rebuild.
    pub fn scale_up_indexes(&mut self) -> Secs {
        let t0 = self.align_clocks();
        for srv in &mut self.servers {
            let t = srv.index_mut().scale_up();
            srv.clock.advance(t.cost);
        }
        let t1 = self.align_clocks();
        t1 - t0
    }

    /// Performance scaling at cluster level (§4.1/§5.2): double the number
    /// of backup servers by splitting every index part on one more prefix
    /// bit. Old server `i` becomes servers `2i` and `2i+1`; existing run
    /// records are remapped so restores keep working. Requires every server
    /// to be quiesced (no staged dedup-2 work; call
    /// [`DebarCluster::force_siu`] first).
    ///
    /// Returns the wall-clock cost of the redistribution,
    /// [`DebarError::NotQuiesced`] when a server still holds staged
    /// dedup-2 state, or [`DebarError::IndexGeometry`] when the cluster
    /// cannot split again (the halves would have a single bucket, or the
    /// routing prefix is exhausted) — refused before anything changes.
    pub fn scale_out(&mut self) -> DebarResult<Secs> {
        self.ensure_quiesced()?;
        let mut new_cfg = self.cfg;
        new_cfg.w_bits += 1;
        // The index owns its geometry — SIU grows a full part in place —
        // so the halves are sized from the live parts (the smallest, when
        // they have diverged: it is the one `sweep_parts` must fit).
        let live_part = self
            .servers
            .iter()
            .map(|srv| srv.index().params().total_bytes())
            .min()
            .expect("a cluster has at least one server");
        new_cfg.index_part_bytes = live_part / 2;
        // Halving each part can leave a striped deployment with more sweep
        // partitions than buckets; apply the documented clamp rule. The
        // replication clamp rides along for the same reason (geometry must
        // stay valid without aborting a scale-out).
        new_cfg.clamp_sweep_parts();
        new_cfg.clamp_replication();
        new_cfg.try_validate()?;
        let t0 = self.align_clocks();
        let old = std::mem::take(&mut self.servers);
        for srv in old {
            let (a, b) = srv.split_for_scale_out(new_cfg);
            self.servers.push(a);
            self.servers.push(b);
        }
        self.cfg = new_cfg;
        self.director.metadata.remap_servers(|s| s * 2);
        self.director.resize_servers(self.servers.len());
        let t1 = self.align_clocks();
        Ok(t1 - t0)
    }

    /// Recover a server's disk-index part after loss/corruption by scanning
    /// the chunk repository (§4.1: "scan the chunk repository to extract
    /// necessary information from the containers to the reconstructed
    /// bucket entries ... used to recover a corrupted index").
    ///
    /// Charged as a whole, trailer-verified read of every container — the
    /// repository nodes scanning side by side, so the scan takes as long as
    /// the busiest node's share — plus one write sweep of the rebuilt part;
    /// pending (unregistered) fingerprints survive in the server's update
    /// queue and re-register at the next SIU.
    ///
    /// The repository scan validates every container: a torn or bit-rotted
    /// container aborts the rebuild with
    /// [`DebarError::CorruptContainer`] (corruption is detected on the
    /// recovery path, not silently rebuilt into the index). A failed
    /// rebuild leaves the part reset-and-partial; re-running
    /// `recover_index` after repairing the container starts from a fresh
    /// reset and converges. A `server` outside the cluster is the typed
    /// [`DebarError::UnknownServer`], returned before anything is reset.
    pub fn recover_index(&mut self, server: ServerId) -> DebarResult<Secs> {
        let sid = server as usize;
        if sid >= self.servers.len() {
            return Err(DebarError::UnknownServer { server });
        }
        let w = self.cfg.w_bits;
        self.servers[sid].index_mut().reset_empty();
        let mut entries: Vec<(Fingerprint, ContainerId)> = Vec::new();
        // The nodes scan their own containers side by side: each read's
        // legs go on the timelines of the nodes they charged.
        let mut nodes = vec![Lane::new(); self.repo.node_count()];
        for cid in self.repo.container_ids() {
            let read = self.repo.read(cid);
            read.legs.run_on(&mut nodes, 0.0);
            let container = match read.value {
                Ok(Some(c)) => c,
                Ok(None) => return Err(DebarError::MissingContainer { container: cid }),
                Err(e) => return Err(e.into()),
            };
            for meta in container.metas() {
                if meta.fp.server_number(w) == server as u64 {
                    entries.push((meta.fp, cid));
                }
            }
        }
        // The rebuilt part is written back across the deployment's sweep
        // partitions (striped part-disks recover in parallel too).
        let parts = self.cfg.sweep_parts;
        let t = self.servers[sid]
            .index_mut()
            .try_bulk_load_striped(entries, parts)
            .map_err(|e| DebarError::index_fault(server, e))?;
        let scan_cost = last_idle(&nodes);
        self.servers[sid].clock.advance(scan_cost + t.cost);
        Ok(scan_cost + t.cost)
    }

    /// Pre-load ballast fingerprints into the index parts (experiment
    /// setup: "the system already stores X TB"). No virtual time is
    /// charged; fingerprints must be distinct and absent. Each part is
    /// loaded across the deployment's sweep partitions — one write-sweep op
    /// on every part-disk, so the striped bank, its statistics and any
    /// armed plan survive — and a fault fired by the load is the typed
    /// [`DebarError::DeviceFault`].
    pub fn preload_index(
        &mut self,
        entries: impl IntoIterator<Item = (Fingerprint, ContainerId)>,
    ) -> DebarResult<()> {
        let w = self.cfg.w_bits;
        let mut per_server: Vec<Vec<(Fingerprint, ContainerId)>> =
            vec![Vec::new(); self.servers.len()];
        for (fp, cid) in entries {
            if !self.summary.contains(&fp) {
                self.summary.insert(&fp);
            }
            per_server[fp.server_number(w) as usize].push((fp, cid));
        }
        let parts = self.cfg.sweep_parts;
        for (srv, batch) in self.servers.iter_mut().zip(per_server) {
            (srv.index_mut().try_bulk_load_striped(batch, parts))
                .map_err(|e| DebarError::index_fault(srv.id, e))?;
        }
        Ok(())
    }

    /// Total index entries across parts.
    pub fn index_entries(&self) -> u64 {
        self.servers.iter().map(|s| s.index().entry_count()).sum()
    }

    /// Mean index utilization across parts.
    pub fn index_utilization(&self) -> f64 {
        let sum: f64 = self.servers.iter().map(|s| s.index().utilization()).sum();
        sum / self.servers.len() as f64
    }
}

/// The first fault (lowest server ID) of a per-server phase every server
/// has finished.
fn first_fault<T>(results: &[DebarResult<T>]) -> Option<(ServerId, DebarError)> {
    results
        .iter()
        .enumerate()
        .find_map(|(i, r)| r.as_ref().err().map(|e| (i as ServerId, e.clone())))
}

/// Random index lookup on `owner`'s part, as the requesting server `sid`
/// waits for it: the returned cost is the owner's index-disk read plus,
/// when the owner is remote, the request and the reply — one 64-byte
/// message each way. The devices tick here (the owner's index disk; for
/// a remote owner also both NICs and the owner's clock, busy serving);
/// the caller charges the returned cost to its own timeline.
fn lookup_with_owner(
    servers: &mut [BackupServer],
    sid: usize,
    owner: usize,
    fp: &Fingerprint,
) -> Timed<Option<ContainerId>> {
    if sid == owner {
        return servers[sid].index_mut().lookup_random(fp);
    }
    let request = servers[sid].nic.message(64);
    let srv = &mut servers[owner];
    let found = srv.index_mut().lookup_random(fp);
    let reply = srv.nic.message(64);
    srv.clock.advance(found.cost + reply);
    found.plus(request + reply)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::report::RestoreReport;
    use debar_hash::Sha1;
    use debar_workload::drift::records;
    use debar_workload::ChunkRecord;

    fn cluster(w: u32) -> DebarCluster {
        DebarCluster::new(DebarConfig::tiny_test(w))
    }

    /// Server 0's index volume / chunk-log volume (part / worker 0).
    const INDEX0: Device = Device::IndexPart { server: 0, part: 0 };
    const LOG0: Device = Device::LogWorker {
        server: 0,
        worker: 0,
    };

    /// Arm `device` with `plan(next op + k)`.
    fn arm_in(c: &mut DebarCluster, device: Device, k: u64, plan: fn(u64) -> FaultPlan) {
        let at = c.device_ops(device).expect("device in range") + k;
        c.arm(device, plan(at)).expect("device in range");
    }

    /// The device a round-interrupting error names.
    fn interrupting_device(err: &DebarError) -> Option<Device> {
        match err {
            DebarError::InterruptedDedup2 { cause, .. } => interrupting_device(cause),
            DebarError::DeviceFault { device, .. } | DebarError::PartialSiu { device, .. } => {
                Some(*device)
            }
            _ => None,
        }
    }

    #[test]
    fn single_server_backup_dedup2_roundtrip() {
        let mut c = cluster(0);
        let job = c.define_job("j", ClientId(0));
        let rep1 = c
            .backup(job, &Dataset::from_records("s", records(0..2000)))
            .expect("backup");
        assert_eq!(rep1.logical_chunks, 2000);
        assert_eq!(rep1.transferred_chunks, 2000, "fresh data all transfers");
        let rep2 = c.run_dedup2().expect("dedup2");
        assert_eq!(rep2.submitted_fps, 2000);
        assert_eq!(rep2.new_fps, 2000);
        assert_eq!(rep2.store.stored_chunks, 2000);
        assert!(rep2.siu_ran, "siu_interval=1 runs synchronously");
        assert_eq!(c.index_entries(), 2000);
    }

    #[test]
    fn duplicate_backup_stores_nothing_new() {
        let mut c = cluster(0);
        let job = c.define_job("j", ClientId(0));
        c.backup(job, &Dataset::from_records("s", records(0..1500)))
            .expect("backup");
        c.run_dedup2().expect("dedup2");
        // Same data again: the preliminary filter (primed from the job
        // chain) should eliminate everything before the network.
        let rep = c
            .backup(job, &Dataset::from_records("s", records(0..1500)))
            .expect("backup");
        assert_eq!(rep.filtered_dups, 1500);
        assert_eq!(rep.transferred_chunks, 0);
        let d2 = c.run_dedup2().expect("dedup2");
        assert_eq!(d2.store.stored_chunks, 0);
        assert_eq!(c.index_entries(), 1500);
    }

    #[test]
    fn dedup2_finds_cross_job_duplicates() {
        let mut c = cluster(0);
        let a = c.define_job("a", ClientId(0));
        let b = c.define_job("b", ClientId(1));
        c.backup(a, &Dataset::from_records("s", records(0..1000)))
            .expect("backup");
        c.run_dedup2().expect("dedup2");
        // Job b's data half-overlaps job a's: the filter can't see it
        // (different chain), SIL must.
        c.backup(b, &Dataset::from_records("s", records(500..1500)))
            .expect("backup");
        let d2 = c.run_dedup2().expect("dedup2");
        assert_eq!(d2.submitted_fps, 1000);
        assert_eq!(d2.dup_registered, 500);
        assert_eq!(d2.new_fps, 500);
        assert_eq!(d2.store.stored_chunks, 500);
        assert_eq!(d2.store.discarded, 500);
        assert_eq!(c.index_entries(), 1500);
    }

    #[test]
    fn multi_server_routes_by_prefix_and_dedups_cross_stream() {
        let mut c = cluster(2); // 4 servers
        let jobs: Vec<JobId> = (0..4)
            .map(|i| c.define_job(format!("j{i}"), ClientId(i)))
            .collect();
        // All four jobs share half their data (cross-stream duplicates).
        for (i, &job) in jobs.iter().enumerate() {
            let mut recs = records(0..800); // shared half
            recs.extend(records(
                10_000 * (i as u64 + 1)..10_000 * (i as u64 + 1) + 800,
            ));
            c.backup(job, &Dataset::from_records("s", recs))
                .expect("backup");
        }
        let d2 = c.run_dedup2().expect("dedup2");
        assert_eq!(d2.submitted_fps, 4 * 1600);
        // Shared 800 fingerprints: stored once each; 4×800 unique.
        assert_eq!(d2.store.stored_chunks as usize, 800 + 4 * 800);
        assert_eq!(c.index_entries() as usize, 800 + 4 * 800);
        // Every fingerprint resolvable at its owning part.
        for r in records(0..800) {
            assert!(c.resolve(&r.fp).is_some());
        }
    }

    #[test]
    fn async_siu_checking_file_prevents_double_store() {
        let mut c = DebarCluster::new(DebarConfig {
            siu_interval: 2, // SIU deferred on odd rounds
            ..DebarConfig::tiny_test(0)
        });
        let a = c.define_job("a", ClientId(0));
        let b = c.define_job("b", ClientId(1));
        c.backup(a, &Dataset::from_records("s", records(0..1000)))
            .expect("backup");
        let d1 = c.run_dedup2().expect("dedup2");
        assert!(!d1.siu_ran, "round 1 defers SIU");
        assert_eq!(d1.store.stored_chunks, 1000);
        // Same content under another job, before SIU has registered it: the
        // checking file must suppress re-storing.
        c.backup(b, &Dataset::from_records("s", records(0..1000)))
            .expect("backup");
        let d2 = c.run_dedup2().expect("dedup2");
        assert!(d2.siu_ran, "round 2 runs SIU");
        assert_eq!(d2.dup_pending, 1000, "pending duplicates detected");
        assert_eq!(d2.store.stored_chunks, 0, "no double storage");
        assert_eq!(c.index_entries(), 1000);
    }

    #[test]
    fn restore_verifies_synthetic_stream() {
        let mut c = cluster(1);
        let job = c.define_job("j", ClientId(0));
        let recs = records(0..3000);
        c.backup(job, &Dataset::from_records("s", recs.clone()))
            .expect("backup");
        c.run_dedup2().expect("dedup2");
        let run = RunId { job, version: 0 };
        let rep = c.restore_run(run).expect("restore");
        assert_eq!(rep.chunks, 3000);
        assert_eq!(rep.failures, 0);
        let expect: u64 = recs.iter().map(|r| r.len as u64).sum();
        assert_eq!(rep.bytes, expect);
        // SISL + LPC: one miss per container, everything else hits.
        assert!(
            rep.lpc_hit_ratio() > 0.9,
            "hit ratio {}",
            rep.lpc_hit_ratio()
        );
    }

    #[test]
    fn restore_real_bytes_end_to_end() {
        use debar_workload::files::{FileTreeConfig, FileTreeGen};
        let mut c = cluster(0);
        let job = c.define_job("files", ClientId(0));
        let tree = FileTreeGen::new(FileTreeConfig::default()).initial();
        let ds = Dataset::from_file_specs(&tree);
        let logical = ds.logical_bytes();
        c.backup(job, &ds).expect("backup");
        c.run_dedup2().expect("dedup2");
        let rep = c.restore_run(RunId { job, version: 0 }).expect("restore");
        assert_eq!(rep.failures, 0, "all real chunks must verify by SHA-1");
        assert_eq!(rep.bytes, logical);
    }

    #[test]
    fn phase_walls_are_positive_and_reported() {
        let mut c = cluster(1);
        let job = c.define_job("j", ClientId(0));
        c.backup(job, &Dataset::from_records("s", records(0..2000)))
            .expect("backup");
        let d2 = c.run_dedup2().expect("dedup2");
        assert!(d2.sil_wall > 0.0);
        assert!(d2.store_wall > 0.0);
        assert!(d2.siu_wall > 0.0);
        assert!(d2.total_wall() >= d2.sil_wall + d2.store_wall);
    }

    #[test]
    fn resubmitted_fingerprints_across_sil_subbatches_still_store() {
        // Regression: when the same fingerprint is submitted twice by one
        // origin (two jobs on one server) and the copies straddle two SIL
        // sub-batches, the second adjudication is a checking-file Skip that
        // must not overwrite the first sub-batch's binding Store verdict.
        let mut cfg = DebarConfig::tiny_test(0);
        cfg.cache_bytes = 24 * 100; // 100-fingerprint sub-batches
        let mut c = DebarCluster::new(cfg);
        let a = c.define_job("a", ClientId(0));
        let b = c.define_job("b", ClientId(1));
        let recs = records(0..500);
        // Two different jobs, same content: the per-run filters can't see
        // each other, so the server's undetermined set holds every
        // fingerprint twice, ~500 positions apart.
        c.backup(a, &Dataset::from_records("s", recs.clone()))
            .expect("backup");
        c.backup(b, &Dataset::from_records("s", recs.clone()))
            .expect("backup");
        let d2 = c.run_dedup2().expect("dedup2");
        assert!(d2.sil_sweeps > 1, "test needs multiple sub-batches");
        assert_eq!(
            d2.store.stored_chunks, 500,
            "every unique chunk stored once"
        );
        c.force_siu().expect("siu");
        for r in &recs {
            assert!(c.resolve(&r.fp).is_some(), "fingerprint lost: {:?}", r.fp);
        }
        let rep = c
            .restore_run(RunId { job: a, version: 0 })
            .expect("restore");
        assert_eq!(rep.failures, 0);
    }

    #[test]
    fn scale_out_preserves_data_and_routing() {
        let mut c = cluster(0);
        let job = c.define_job("j", ClientId(0));
        let recs = records(0..2000);
        c.backup(job, &Dataset::from_records("s", recs.clone()))
            .expect("backup");
        c.run_dedup2().expect("dedup2");
        c.force_siu().expect("siu");
        assert_eq!(c.server_count(), 1);
        let cost = c.scale_out().expect("scale-out");
        assert!(cost > 0.0);
        assert_eq!(c.server_count(), 2);
        assert_eq!(c.index_entries(), 2000, "entries preserved across split");
        for r in &recs {
            assert!(c.resolve(&r.fp).is_some(), "fingerprint lost in scale-out");
        }
        // Restores still route correctly after server renumbering.
        let rep = c.restore_run(RunId { job, version: 0 }).expect("restore");
        assert_eq!(rep.failures, 0);
        // New backups de-duplicate against pre-scaling content.
        c.backup(job, &Dataset::from_records("s", recs))
            .expect("backup");
        let d2 = c.run_dedup2().expect("dedup2");
        assert_eq!(d2.store.stored_chunks, 0);
        // And the cluster can scale out again.
        c.force_siu().expect("siu");
        c.scale_out().expect("scale-out");
        assert_eq!(c.server_count(), 4);
        assert_eq!(c.index_entries(), 2000);
    }

    #[test]
    fn verify_run_checks_without_network_and_file_restore_selects() {
        let mut c = cluster(0);
        let job = c.define_job("j", ClientId(0));
        // Two files in one dataset.
        let ds = Dataset {
            files: vec![
                crate::dataset::FileEntry {
                    path: "a.bin".into(),
                    content: crate::dataset::FileContent::Records(records(0..700)),
                },
                crate::dataset::FileEntry {
                    path: "b.bin".into(),
                    content: crate::dataset::FileContent::Records(records(700..1000)),
                },
            ],
        };
        c.backup(job, &ds).expect("backup");
        c.run_dedup2().expect("dedup2");
        let run = RunId { job, version: 0 };
        let v = c.verify_run(run).expect("verify");
        assert_eq!(v.failures, 0);
        assert_eq!(v.chunks, 1000);
        let f = c.restore_file(run, "b.bin").expect("restore-file");
        assert_eq!(f.failures, 0);
        assert_eq!(f.files, 1);
        assert_eq!(f.chunks, 300);
        let expect: u64 = records(700..1000).iter().map(|r| r.len as u64).sum();
        assert_eq!(f.bytes, expect);
        // Verify charges no client-bound network for payloads: it must be
        // cheaper than the real restore of the same run.
        let t0 = c.now();
        c.verify_run(run).expect("verify");
        let verify_cost = c.now() - t0;
        let t0 = c.now();
        c.restore_run(run).expect("restore");
        let restore_cost = c.now() - t0;
        assert!(
            verify_cost < restore_cost,
            "{verify_cost} !< {restore_cost}"
        );
    }

    #[test]
    fn index_recovery_from_repository_scan() {
        let mut c = cluster(1);
        let job = c.define_job("j", ClientId(0));
        let recs = records(0..2500);
        c.backup(job, &Dataset::from_records("s", recs.clone()))
            .expect("backup");
        c.run_dedup2().expect("dedup2");
        c.force_siu().expect("siu");
        // Corrupt server 1's index part.
        let before = c.index_entries();
        c.servers[1].index_mut().reset_empty();
        assert!(c.index_entries() < before);
        let lost = recs.iter().filter(|r| c.resolve(&r.fp).is_none()).count();
        assert!(lost > 0, "corruption should lose entries");
        // Rebuild from the chunk repository: the two nodes scan their
        // containers side by side, so the scan takes the busier node's
        // share of the reads, then the part is written back.
        let busy = |c: &DebarCluster| -> Vec<Secs> {
            let nodes = c.repo.nodes().iter().map(|n| n.disk_stats().busy_s);
            nodes.collect()
        };
        let (nodes_before, index_before) = (busy(&c), c.servers[1].index().disk_stats().busy_s);
        let cost = c.recover_index(1).expect("recover");
        let scans: Vec<Secs> = (busy(&c).iter().zip(&nodes_before))
            .map(|(after, before)| after - before)
            .collect();
        let load = c.servers[1].index().disk_stats().busy_s - index_before;
        assert!(scans.iter().all(|&s| s > 0.0) && load > 0.0);
        let busiest = scans.iter().copied().fold(0.0, f64::max);
        assert!(
            (cost - (busiest + load)).abs() < 1e-12,
            "{cost} != {busiest} + {load}"
        );
        assert_eq!(c.index_entries(), before);
        for r in &recs {
            assert!(c.resolve(&r.fp).is_some(), "not recovered: {:?}", r.fp);
        }
        let rep = c.restore_run(RunId { job, version: 0 }).expect("restore");
        assert_eq!(rep.failures, 0);
    }

    #[test]
    fn daily_scheduler_fires_matching_jobs() {
        use crate::job::{JobSpec, Schedule};
        let mut c = cluster(0);
        let night = c.director.define_job(JobSpec {
            name: "nightly".into(),
            client: ClientId(0),
            schedule: Schedule::Daily { hour: 1, minute: 5 },
        });
        let manual = c.define_job("manual", ClientId(1));
        assert_eq!(c.director.due_jobs(1, 5), vec![night]);
        assert!(c.director.due_jobs(2, 5).is_empty());
        let _ = manual;
    }

    #[test]
    fn repeated_scale_out_routes_by_successive_prefix_bits() {
        // Regression: the second scale-out must split each part on the bit
        // *after* the already-consumed routing prefix. A naive first-bit
        // split sends every entry of part 1 into one child and leaves the
        // sibling empty, orphaning half the fingerprint space.
        let mut c = cluster(0);
        let job = c.define_job("j", ClientId(0));
        let recs = records(0..3000);
        c.backup(job, &Dataset::from_records("s", recs.clone()))
            .expect("backup");
        c.run_dedup2().expect("dedup2");
        c.force_siu().expect("siu");
        c.scale_out().expect("scale-out"); // 1 -> 2 (split on bit 0)
                                           // New content after the first split, then split again.
        c.backup(job, &Dataset::from_records("s", records(3000..5000)))
            .expect("backup");
        c.run_dedup2().expect("dedup2");
        c.force_siu().expect("siu");
        c.scale_out().expect("scale-out"); // 2 -> 4 (split on bit 1)
        assert_eq!(c.server_count(), 4);
        for r in recs.iter().chain(records(3000..5000).iter()) {
            assert!(
                c.resolve(&r.fp).is_some(),
                "orphaned after double split: {:?}",
                r.fp
            );
        }
        // Parts must all hold a fair share (no empty siblings).
        for s in 0..4u16 {
            let n = c.server(s).index().entry_count();
            assert!(n > 500, "server {s} holds only {n} entries");
        }
        let rep = c.restore_run(RunId { job, version: 0 }).expect("restore");
        assert_eq!(rep.failures, 0);
    }

    #[test]
    fn scale_up_indexes_preserves_entries_and_halves_utilization() {
        let mut c = cluster(1);
        let job = c.define_job("j", ClientId(0));
        c.backup(job, &Dataset::from_records("s", records(0..2000)))
            .expect("backup");
        c.run_dedup2().expect("dedup2");
        let u_before = c.index_utilization();
        let cost = c.scale_up_indexes();
        assert!(cost > 0.0);
        assert_eq!(c.index_entries(), 2000);
        assert!((c.index_utilization() - u_before / 2.0).abs() < 1e-9);
        for r in records(0..2000) {
            assert!(c.resolve(&r.fp).is_some());
        }
    }

    #[test]
    fn restore_run_on_unknown_run_is_typed_error() {
        let mut c = cluster(0);
        let job = c.define_job("j", ClientId(0));
        c.backup(job, &Dataset::from_records("s", records(0..500)))
            .expect("backup");
        c.run_dedup2().expect("dedup2");
        let bogus = RunId { job, version: 9 };
        let err = c.restore_run(bogus).expect_err("unknown run");
        assert_eq!(err, DebarError::UnknownRun { run: bogus });
        let err = c
            .restore_run(RunId {
                job: JobId(42),
                version: 0,
            })
            .expect_err("unknown job's run");
        assert!(matches!(err, DebarError::UnknownRun { .. }));
        // The known run still restores.
        assert_eq!(
            c.restore_run(RunId { job, version: 0 })
                .expect("restore")
                .failures,
            0
        );
    }

    #[test]
    fn restore_file_on_unknown_path_is_typed_error() {
        let mut c = cluster(0);
        let job = c.define_job("j", ClientId(0));
        c.backup(job, &Dataset::from_records("data.bin", records(0..500)))
            .expect("backup");
        c.run_dedup2().expect("dedup2");
        let run = RunId { job, version: 0 };
        let err = c
            .restore_file(run, "no/such/file")
            .expect_err("unknown path");
        assert_eq!(
            err,
            DebarError::UnknownPath {
                run,
                path: "no/such/file".into()
            }
        );
        assert!(c.restore_file(run, "data.bin").is_ok());
    }

    #[test]
    fn backup_on_unknown_job_is_typed_error() {
        let mut c = cluster(0);
        let err = c
            .backup(JobId(7), &Dataset::from_records("s", records(0..10)))
            .expect_err("unknown job");
        assert_eq!(err, DebarError::UnknownJob { job: JobId(7) });
    }

    #[test]
    fn scale_out_on_staged_state_is_typed_error() {
        let mut c = cluster(0);
        let job = c.define_job("j", ClientId(0));
        c.backup(job, &Dataset::from_records("s", records(0..500)))
            .expect("backup");
        // Undetermined fingerprints staged, no dedup-2 yet.
        let err = c.scale_out().expect_err("not quiesced");
        assert_eq!(err, DebarError::NotQuiesced { server: 0 });
        c.run_dedup2().expect("dedup2");
        c.force_siu().expect("siu");
        assert!(c.scale_out().is_ok());
    }

    #[test]
    fn scale_out_past_the_geometry_is_refused_and_the_cluster_keeps_working() {
        let mut c = cluster(0);
        let refused = loop {
            match c.scale_out() {
                Ok(_) => continue,
                Err(e) => break e,
            }
        };
        // 256 buckets halve seven times; an eighth split would leave one.
        assert!(
            matches!(refused, DebarError::IndexGeometry { .. }),
            "{refused:?}"
        );
        assert_eq!(c.server_count(), 128);
        assert_eq!(c.scale_out().expect_err("still refused"), refused);
        let job = c.define_job("j", ClientId(0));
        let run = c
            .backup(job, &Dataset::from_records("s", records(0..500)))
            .expect("backup")
            .run;
        c.run_dedup2().expect("dedup2");
        let rep = c.restore_run(run).expect("restore");
        assert_eq!((rep.chunks, rep.failures), (500, 0));
    }

    #[test]
    fn corrupt_container_detected_on_restore_verify_and_recovery() {
        use debar_store::Damage;
        let mut c = cluster(0);
        let job = c.define_job("j", ClientId(0));
        let recs = records(0..2500);
        c.backup(job, &Dataset::from_records("s", recs))
            .expect("backup");
        c.run_dedup2().expect("dedup2");
        let run = RunId { job, version: 0 };
        let target = c.repository().container_ids()[0];
        c.set_damage(target, Some(Damage::BitFlip))
            .expect("container exists");
        // Strict restore fails fast with the typed error...
        let err = c.restore_run(run).expect_err("corruption detected");
        assert!(
            matches!(err, DebarError::CorruptContainer { container, .. } if container == target),
            "{err}"
        );
        // ...the verify audit counts the problem and keeps going...
        let v = c.verify_run(run).expect("verify walks the whole run");
        assert!(v.failures > 0, "audit must count the corrupt chunks");
        // ...and the §4.1 recovery rebuild detects it instead of silently
        // rebuilding from garbage.
        let err = c.recover_index(0).expect_err("rebuild detects corruption");
        assert!(
            matches!(err, DebarError::CorruptContainer { container, .. } if container == target),
            "{err}"
        );
        // Repair, then everything converges again.
        c.set_damage(target, None).expect("container exists");
        c.recover_index(0).expect("rebuild after repair");
        let r = c.restore_run(run).expect("restore after repair");
        assert_eq!(r.failures, 0);
    }

    #[test]
    fn torn_container_write_detected_on_restore() {
        use debar_simio::FaultPlan;
        let mut c = cluster(0);
        let job = c.define_job("j", ClientId(0));
        // Tear whichever node takes the first container write.
        for n in 0..c.repository().node_count() {
            arm_in(&mut c, Device::RepoNode(n), 0, FaultPlan::torn_write_at);
        }
        c.backup(job, &Dataset::from_records("s", records(0..1500)))
            .expect("backup");
        // The torn write is silent: the round completes...
        c.run_dedup2().expect("torn write is silent at store time");
        c.clear_fault_plans();
        // ...but the restore detects the damage via the checksum trailer.
        let err = c
            .restore_run(RunId { job, version: 0 })
            .expect_err("torn container detected");
        assert!(matches!(err, DebarError::CorruptContainer { .. }), "{err}");
    }

    #[test]
    fn node_down_restore_fails_over_and_reports_degraded_reads() {
        // Replicated repository: downing either node after the backup
        // leaves the restore byte-identical to the healthy run, with the
        // degraded reads surfaced in the report.
        let drive = |down: Option<usize>| {
            let mut c = DebarCluster::new(DebarConfig {
                replication: 2,
                ..DebarConfig::tiny_test(0)
            });
            let job = c.define_job("j", ClientId(0));
            c.backup(job, &Dataset::from_records("s", records(0..2500)))
                .expect("backup");
            c.run_dedup2().expect("dedup2");
            if let Some(n) = down {
                c.set_repo_node_down(n).expect("node in range");
            }
            let r = c
                .restore_run(RunId { job, version: 0 })
                .expect("restore survives a single node loss at R=2");
            (c, r)
        };
        let (_, healthy) = drive(None);
        assert_eq!(healthy.failover_reads, 0, "healthy restore is not degraded");
        for node in 0..2 {
            let (mut c, degraded) = drive(Some(node));
            assert_eq!(degraded.bytes, healthy.bytes, "byte-identical restore");
            assert_eq!(degraded.chunks, healthy.chunks);
            assert_eq!(degraded.failures, 0);
            assert!(
                degraded.failover_reads > 0,
                "node {node} down must surface degraded reads in the report"
            );
            // Repair re-replicates what the lost node held; the repository
            // then reports full replication again.
            let rep = c.repair_repo_node(node).expect("repair from replicas");
            assert!(rep.recopied > 0, "replacement disk is re-populated");
            assert!(c.repository().under_replicated().is_empty());
            let again = c
                .restore_run(RunId {
                    job: JobId(0),
                    version: 0,
                })
                .expect("restore after repair");
            assert_eq!(again.failover_reads, 0, "repaired repository is healthy");
            assert_eq!(again.bytes, healthy.bytes);
        }
    }

    #[test]
    fn node_down_without_replicas_is_typed_unrecoverable() {
        let mut c = cluster(0);
        assert_eq!(c.config().replication, 1);
        let job = c.define_job("j", ClientId(0));
        c.backup(job, &Dataset::from_records("s", records(0..2500)))
            .expect("backup");
        c.run_dedup2().expect("dedup2");
        // Find a node that actually holds containers.
        let node = c
            .repository()
            .locate(c.repository().container_ids()[0])
            .expect("stored container has a home");
        c.set_repo_node_down(node).expect("node in range");
        let err = c
            .restore_run(RunId { job, version: 0 })
            .expect_err("sole copy is on the downed node");
        assert!(
            matches!(err, DebarError::Unrecoverable { node: n, .. } if n == node),
            "{err}"
        );
        // The verify audit counts the problems instead of aborting.
        let v = c.verify_run(RunId { job, version: 0 }).expect("audit");
        assert!(v.failures > 0);
        // Repair of the sole copy's node refuses without replicas...
        let err = c.repair_repo_node(node).expect_err("nothing to copy from");
        assert!(matches!(err, DebarError::Unrecoverable { .. }), "{err}");
        // ...but revival restores the data untouched.
        c.revive_repo_node(node).expect("node in range");
        let r = c
            .restore_run(RunId { job, version: 0 })
            .expect("data survives a revive");
        assert_eq!(r.failures, 0);
        assert_eq!(r.failover_reads, 0);
    }

    #[test]
    fn repo_admin_apis_reject_unknown_nodes() {
        use debar_simio::FaultPlan;
        let mut c = cluster(0);
        let nodes = c.repository().node_count();
        assert!(c.set_repo_node_down(nodes).is_err());
        assert!(c.revive_repo_node(nodes).is_err());
        assert!(c.repair_repo_node(nodes).is_err());
        assert!(c.device_ops(Device::RepoNode(nodes)).is_err());
        assert!(c
            .arm(Device::RepoNode(nodes), FaultPlan::fail_at(0))
            .is_err());
        // The server-addressed twin: one server, so server 7 is unknown.
        assert_eq!(
            c.recover_index(7),
            Err(DebarError::UnknownServer { server: 7 })
        );
    }

    #[test]
    fn scale_out_after_siu_auto_scaling_sizes_parts_from_the_live_index() {
        // SIU grows a full part in place (`place_counted -> scale_up`), so
        // the deployed `index_part_bytes` goes stale; scale-out must halve
        // the *live* geometry, not the deployed number.
        let mut c = cluster(0);
        let job = c.define_job("j", ClientId(0));
        let deployed = c.config().index_part_bytes;
        let mut versions = 0u32;
        loop {
            let base = 3000 * versions as u64;
            c.backup(job, &Dataset::from_records("s", records(base..base + 3000)))
                .expect("backup");
            versions += 1;
            let d2 = c.run_dedup2().expect("dedup2");
            if d2.siu_reports.iter().any(|r| r.scale_events > 0) {
                break;
            }
            assert!(
                versions < 8,
                "5120-entry part must fill within a few rounds"
            );
        }
        c.force_siu().expect("siu");
        assert!(c.server(0).index().params().total_bytes() > deployed);
        let runs: Vec<RunId> = (0..versions)
            .map(|version| RunId { job, version })
            .collect();
        let before: Vec<RestoreReport> = runs
            .iter()
            .map(|&run| c.restore_run(run).expect("restore"))
            .collect();
        c.scale_out().expect("scale-out");
        for sid in 0..c.server_count() as ServerId {
            assert_eq!(
                c.config().index_part_bytes,
                c.server(sid).index().params().total_bytes(),
                "server {sid}: configured part size must equal the live index"
            );
        }
        for (&run, b) in runs.iter().zip(&before) {
            let a = c.restore_run(run).expect("restore after scale-out");
            assert_eq!((a.bytes, a.chunks, a.failures), (b.bytes, b.chunks, 0));
        }
    }

    #[test]
    fn interrupted_chunk_storing_resumes_byte_identically() {
        use debar_simio::FaultPlan;
        let drive = |fault: bool| {
            let mut c = cluster(0);
            let job = c.define_job("j", ClientId(0));
            c.backup(job, &Dataset::from_records("s", records(0..3000)))
                .expect("backup");
            if fault {
                // Fail whichever node takes the first container write.
                for n in 0..c.repository().node_count() {
                    arm_in(&mut c, Device::RepoNode(n), 0, FaultPlan::fail_at);
                }
                let err = c.run_dedup2().expect_err("store fault interrupts");
                assert!(
                    matches!(
                        &err,
                        DebarError::InterruptedDedup2 {
                            phase: Dedup2Phase::ChunkStoring,
                            round: 1,
                            ..
                        }
                    ),
                    "{err}"
                );
                c.clear_fault_plans();
            }
            let d2 = c.run_dedup2().expect("(re)run");
            assert_eq!(d2.round, 1, "interrupted round is re-run, not skipped");
            c
        };
        let clean = drive(false);
        let mut resumed = drive(true);
        assert_eq!(
            Sha1::digest(resumed.server(0).index().raw_data()),
            Sha1::digest(clean.server(0).index().raw_data()),
            "index parts must converge byte-identically"
        );
        assert_eq!(resumed.index_entries(), clean.index_entries());
        assert_eq!(
            resumed.repository().stats().containers,
            clean.repository().stats().containers,
            "same container IDs: a failed write consumes no ID"
        );
        let r = resumed
            .restore_run(RunId {
                job: JobId(0),
                version: 0,
            })
            .expect("restore");
        assert_eq!(r.failures, 0);
        assert_eq!(r.chunks, 3000);
    }

    #[test]
    fn mid_store_interruption_keeps_durable_prefix_and_its_statistics() {
        use debar_simio::FaultPlan;
        // Fail node 0's *second* container write: a durable prefix exists
        // before the fault, unlike the first-write crash above.
        let drive = |fault: bool| {
            let mut c = cluster(0);
            let job = c.define_job("j", ClientId(0));
            c.backup(job, &Dataset::from_records("s", records(0..3000)))
                .expect("backup");
            let mut stored_chunks = 0u64;
            let mut containers = 0u64;
            if fault {
                arm_in(&mut c, Device::RepoNode(0), 1, FaultPlan::fail_at);
                let err = c.run_dedup2().expect_err("second write faults");
                assert!(matches!(
                    err,
                    DebarError::InterruptedDedup2 {
                        phase: Dedup2Phase::ChunkStoring,
                        ..
                    }
                ));
                assert_eq!(interrupting_device(&err), Some(Device::RepoNode(0)));
                c.clear_fault_plans();
            }
            let d2 = c.run_dedup2().expect("(re)run");
            stored_chunks += d2.store.stored_chunks;
            containers += d2.store.containers;
            (c, stored_chunks, containers)
        };
        let (clean, clean_chunks, clean_containers) = drive(false);
        let (mut resumed, resumed_chunks, resumed_containers) = drive(true);
        // The resumed round's report folds in the durable prefix, so the
        // totals match an uninterrupted history exactly.
        assert_eq!(resumed_chunks, clean_chunks, "stored-chunk accounting");
        assert_eq!(resumed_containers, clean_containers, "container count");
        assert_eq!(
            Sha1::digest(resumed.server(0).index().raw_data()),
            Sha1::digest(clean.server(0).index().raw_data())
        );
        let r = resumed
            .restore_run(RunId {
                job: JobId(0),
                version: 0,
            })
            .expect("restore");
        assert_eq!(r.failures, 0);
        assert_eq!(r.chunks, 3000);
    }

    #[test]
    fn interrupted_sil_restores_undetermined_and_resumes() {
        use debar_simio::FaultPlan;
        let drive = |fault: bool| {
            let mut c = cluster(0);
            let job = c.define_job("j", ClientId(0));
            c.backup(job, &Dataset::from_records("s", records(0..2000)))
                .expect("backup");
            if fault {
                arm_in(&mut c, INDEX0, 0, FaultPlan::fail_at);
                let before = c.undetermined_counts();
                let err = c.run_dedup2().expect_err("SIL fault interrupts");
                assert!(
                    matches!(
                        &err,
                        DebarError::InterruptedDedup2 {
                            phase: Dedup2Phase::Sil,
                            ..
                        }
                    ),
                    "{err}"
                );
                assert_eq!(interrupting_device(&err), Some(INDEX0));
                assert_eq!(
                    c.undetermined_counts(),
                    before,
                    "undetermined fingerprints restored for the re-run"
                );
                c.clear_fault_plans();
            }
            c.run_dedup2().expect("(re)run");
            c
        };
        let clean = drive(false);
        let resumed = drive(true);
        assert_eq!(
            Sha1::digest(resumed.server(0).index().raw_data()),
            Sha1::digest(clean.server(0).index().raw_data())
        );
        assert_eq!(
            resumed.repository().stats().containers,
            clean.repository().stats().containers
        );
    }

    #[test]
    fn partial_siu_redo_converges_byte_identically() {
        use debar_simio::FaultPlan;
        let drive = |fault: bool| {
            let mut c = DebarCluster::new(DebarConfig {
                siu_interval: 2, // round 1 defers SIU: force_siu does the work
                ..DebarConfig::tiny_test(0)
            });
            let job = c.define_job("j", ClientId(0));
            c.backup(job, &Dataset::from_records("s", records(0..2000)))
                .expect("backup");
            let d1 = c.run_dedup2().expect("dedup2");
            assert!(!d1.siu_ran);
            if fault {
                arm_in(&mut c, INDEX0, 1, FaultPlan::torn_write_at);
                let err = c.force_siu().expect_err("torn SIU");
                let DebarError::PartialSiu {
                    device: INDEX0,
                    applied,
                    total,
                    ..
                } = err
                else {
                    panic!("expected PartialSiu on server 0's part 0, got {err:?}");
                };
                assert_eq!(total, 2000);
                assert_eq!(applied, 1000, "half the canonical batch durable");
                c.clear_fault_plans();
            }
            c.force_siu().expect("siu");
            c
        };
        let clean = drive(false);
        let mut resumed = drive(true);
        assert_eq!(
            Sha1::digest(resumed.server(0).index().raw_data()),
            Sha1::digest(clean.server(0).index().raw_data()),
            "partial SIU redo must converge byte-identically"
        );
        assert_eq!(resumed.index_entries(), 2000);
        let r = resumed
            .restore_run(RunId {
                job: JobId(0),
                version: 0,
            })
            .expect("restore");
        assert_eq!(r.failures, 0);
    }

    #[test]
    fn log_append_fault_aborts_backup_and_retry_converges() {
        use debar_simio::FaultPlan;
        let drive = |fault: bool| {
            let mut c = cluster(0);
            let job = c.define_job("j", ClientId(0));
            let ds = Dataset::from_records("s", records(0..1500));
            if fault {
                // Fail the run's 5th log append: a few records are already
                // durable in the log when the run aborts.
                arm_in(&mut c, LOG0, 4, FaultPlan::fail_at);
                let err = c.backup(job, &ds).expect_err("log fault aborts dedup-1");
                assert!(
                    matches!(err, DebarError::DeviceFault { device: LOG0, .. }),
                    "{err}"
                );
                assert_eq!(
                    c.undetermined_counts(),
                    vec![0],
                    "aborted run registers no undetermined fingerprints"
                );
                c.clear_fault_plans();
            }
            c.backup(job, &ds).expect("(re)backup");
            let d2 = c.run_dedup2().expect("dedup2");
            assert_eq!(d2.store.stored_chunks, 1500, "every chunk stored once");
            c
        };
        let clean = drive(false);
        let mut resumed = drive(true);
        // The aborted run's stray log records were discarded (no storage
        // verdict), so the index and containers converge byte-identically.
        assert_eq!(
            Sha1::digest(resumed.server(0).index().raw_data()),
            Sha1::digest(clean.server(0).index().raw_data())
        );
        assert_eq!(
            resumed.repository().stats().containers,
            clean.repository().stats().containers
        );
        let run = RunId {
            job: JobId(0),
            version: 0,
        };
        assert_eq!(resumed.director.metadata.run(run).map(|r| r.run), Some(run));
        let r = resumed.restore_run(run).expect("restore");
        assert_eq!(r.failures, 0);
        assert_eq!(r.chunks, 1500);
    }

    #[test]
    fn log_drain_fault_interrupts_round_and_resumes_byte_identically() {
        use debar_simio::FaultPlan;
        let drive = |fault: bool| {
            let mut c = cluster(0);
            let job = c.define_job("j", ClientId(0));
            c.backup(job, &Dataset::from_records("s", records(0..2000)))
                .expect("backup");
            if fault {
                // Fault the phase-II drain op (the next log-disk op after
                // the backup's appends).
                arm_in(&mut c, LOG0, 0, FaultPlan::fail_at);
                let err = c.run_dedup2().expect_err("drain fault interrupts");
                assert!(
                    matches!(
                        &err,
                        DebarError::InterruptedDedup2 {
                            phase: Dedup2Phase::ChunkStoring,
                            ..
                        }
                    ),
                    "{err}"
                );
                assert_eq!(interrupting_device(&err), Some(LOG0));
                assert!(
                    c.server(0).log_bytes() > 0,
                    "drain fault must leave the log intact for the replay"
                );
                c.clear_fault_plans();
            }
            let d2 = c.run_dedup2().expect("(re)run");
            assert_eq!(d2.round, 1, "interrupted round re-runs");
            c
        };
        let clean = drive(false);
        let mut resumed = drive(true);
        assert_eq!(
            Sha1::digest(resumed.server(0).index().raw_data()),
            Sha1::digest(clean.server(0).index().raw_data())
        );
        assert_eq!(resumed.index_entries(), clean.index_entries());
        let r = resumed
            .restore_run(RunId {
                job: JobId(0),
                version: 0,
            })
            .expect("restore");
        assert_eq!(r.failures, 0);
        assert_eq!(r.chunks, 2000);
    }

    #[test]
    fn siu_part_fault_names_part_in_partial_siu() {
        use debar_simio::FaultPlan;
        let mut c = DebarCluster::new(DebarConfig {
            siu_interval: 2, // round 1 defers SIU: force_siu does the work
            ..DebarConfig::tiny_test(0).with_sweep_parts(4)
        });
        let job = c.define_job("j", ClientId(0));
        c.backup(job, &Dataset::from_records("s", records(0..1500)))
            .expect("backup");
        let d1 = c.run_dedup2().expect("dedup2");
        assert!(!d1.siu_ran);
        // Fail part-disk 1's SIU write op (its next op is the read sweep).
        let part1 = Device::IndexPart { server: 0, part: 1 };
        arm_in(&mut c, part1, 1, FaultPlan::fail_at);
        let err = c.force_siu().expect_err("part fault interrupts SIU");
        let DebarError::PartialSiu {
            device, applied, ..
        } = err
        else {
            panic!("expected PartialSiu, got {err:?}");
        };
        assert_eq!(device, part1, "PartialSiu must name the failing part");
        assert_eq!(applied, 0, "outright write failure applies nothing");
        assert!(err.to_string().contains("part-disk 1"), "{err}");
        c.clear_fault_plans();
        c.force_siu().expect("redo");
        assert_eq!(c.index_entries(), 1500);
    }

    #[test]
    fn single_part_disk_fault_names_part_and_round_resumes() {
        use debar_simio::FaultPlan;
        let parts = 4usize;
        let drive = |fault: bool| {
            let mut c = DebarCluster::new(DebarConfig::tiny_test(0).with_sweep_parts(parts));
            let job = c.define_job("j", ClientId(0));
            c.backup(job, &Dataset::from_records("s", records(0..2000)))
                .expect("backup");
            if fault {
                // Arm exactly one part-disk of the striped PSIL sweep.
                let part2 = Device::IndexPart { server: 0, part: 2 };
                arm_in(&mut c, part2, 0, FaultPlan::fail_at);
                let err = c.run_dedup2().expect_err("part fault interrupts PSIL");
                let DebarError::InterruptedDedup2 {
                    phase: Dedup2Phase::Sil,
                    server: 0,
                    cause,
                    ..
                } = err
                else {
                    panic!("expected InterruptedDedup2(Sil), got {err}");
                };
                assert!(
                    matches!(*cause, DebarError::DeviceFault { device, .. } if device == part2),
                    "cause must name part-disk 2, got {cause}"
                );
                c.clear_fault_plans();
            }
            let d2 = c.run_dedup2().expect("(re)run");
            assert_eq!(d2.sweep_parts, parts as u32);
            c
        };
        let clean = drive(false);
        let resumed = drive(true);
        assert_eq!(
            Sha1::digest(resumed.server(0).index().raw_data()),
            Sha1::digest(clean.server(0).index().raw_data()),
            "single-part fault + re-run must converge byte-identically"
        );
        assert_eq!(
            resumed.repository().stats().containers,
            clean.repository().stats().containers
        );
    }

    #[test]
    fn store_workers_divide_store_wall_and_stay_byte_identical() {
        let drive = |workers: usize| {
            let mut c = DebarCluster::new(DebarConfig::tiny_test(0).with_store_workers(workers));
            let job = c.define_job("j", ClientId(0));
            c.backup(job, &Dataset::from_records("s", records(0..3000)))
                .expect("backup");
            let d2 = c.run_dedup2().expect("dedup2");
            assert_eq!(d2.store_workers, workers as u32);
            (c, d2)
        };
        let (base, d1) = drive(1);
        for workers in [2usize, 4] {
            let (c, dw) = drive(workers);
            assert_eq!(
                Sha1::digest(c.server(0).index().raw_data()),
                Sha1::digest(base.server(0).index().raw_data()),
                "workers={workers}: index parts must be byte-identical"
            );
            assert_eq!(c.repository().stats(), base.repository().stats());
            assert_eq!(dw.store.stored_chunks, d1.store.stored_chunks);
            assert_eq!(dw.store.containers, d1.store.containers);
            assert!(
                dw.store_wall < d1.store_wall,
                "workers={workers}: store wall {} not below single-worker {}",
                dw.store_wall,
                d1.store_wall
            );
        }
    }

    #[test]
    fn log_worker_drain_fault_interrupts_mid_pipeline_and_resumes() {
        use debar_simio::FaultPlan;
        let drive = |fault: bool| {
            let mut c = DebarCluster::new(DebarConfig::tiny_test(0).with_store_workers(2));
            let job = c.define_job("j", ClientId(0));
            c.backup(job, &Dataset::from_records("s", records(0..2000)))
                .expect("backup");
            if fault {
                // Arm exactly one worker disk of the 2-way drain stripe.
                let worker1 = Device::LogWorker {
                    server: 0,
                    worker: 1,
                };
                arm_in(&mut c, worker1, 0, FaultPlan::fail_at);
                let err = c.run_dedup2().expect_err("worker fault interrupts");
                let DebarError::InterruptedDedup2 {
                    phase: Dedup2Phase::ChunkStoring,
                    ref cause,
                    ..
                } = err
                else {
                    panic!("expected InterruptedDedup2(ChunkStoring), got {err}");
                };
                assert!(
                    matches!(**cause, DebarError::DeviceFault { device, .. } if device == worker1),
                    "cause must name worker disk 1, got {cause}"
                );
                assert!(
                    c.server(0).log_bytes() > 0,
                    "drain fault must leave the log intact for the replay"
                );
                c.clear_fault_plans();
            }
            let d2 = c.run_dedup2().expect("(re)run");
            assert_eq!(d2.round, 1, "interrupted round re-runs");
            c
        };
        let clean = drive(false);
        let mut resumed = drive(true);
        assert_eq!(
            Sha1::digest(resumed.server(0).index().raw_data()),
            Sha1::digest(clean.server(0).index().raw_data())
        );
        assert_eq!(
            resumed.repository().stats().containers,
            clean.repository().stats().containers
        );
        let r = resumed
            .restore_run(RunId {
                job: JobId(0),
                version: 0,
            })
            .expect("restore");
        assert_eq!(r.failures, 0);
        assert_eq!(r.chunks, 2000);
    }

    /// `arm` and `device_ops` must both refuse `device` with an error
    /// matching `expected`.
    fn assert_rejected(
        c: &mut DebarCluster,
        device: Device,
        expected: impl Fn(&DebarError) -> bool,
    ) {
        let arm = c
            .arm(device, FaultPlan::fail_at(0))
            .expect_err("arm must reject");
        let ops = c.device_ops(device).expect_err("device_ops must reject");
        assert!(expected(&arm), "{device}: arm -> {arm}");
        assert_eq!(arm, ops, "{device}: one validation rule for both");
    }

    #[test]
    fn log_worker_fault_plan_outside_stripe_rejected() {
        // The drain stripe resizes to store_workers at every drain, so a
        // plan armed past it would be silently dropped — reject it typed
        // instead of letting a fault-injection test go green untested.
        let mut c = DebarCluster::new(DebarConfig::tiny_test(0).with_store_workers(2));
        let outside = Device::LogWorker {
            server: 0,
            worker: 2,
        };
        assert_rejected(&mut c, outside, |e| {
            matches!(e, DebarError::IndexGeometry { reason }
                if reason.contains("outside the 2-way stripe"))
        });
        let inside = Device::LogWorker {
            server: 0,
            worker: 1,
        };
        assert_eq!(c.device_ops(inside), Ok(0));
    }

    #[test]
    fn index_part_fault_plan_outside_stripe_rejected() {
        // Same rule for the index stripe: sweeps resize the part-disk bank
        // to the clamped `sweep_parts`, dropping any plan armed past it.
        let mut c = DebarCluster::new(DebarConfig::tiny_test(0).with_sweep_parts(4));
        let outside = Device::IndexPart { server: 0, part: 4 };
        assert_rejected(&mut c, outside, |e| {
            matches!(e, DebarError::IndexGeometry { reason }
                if reason.contains("outside the 4-way stripe"))
        });
        assert_eq!(
            c.device_ops(Device::IndexPart { server: 0, part: 3 }),
            Ok(0)
        );
    }

    #[test]
    fn device_on_unknown_server_rejected() {
        // One server: server 1's devices do not exist — a typed error, not
        // an index-out-of-bounds panic.
        let mut c = cluster(0);
        for device in [
            Device::IndexPart { server: 1, part: 0 },
            Device::LogWorker {
                server: 1,
                worker: 0,
            },
        ] {
            assert_rejected(&mut c, device, |e| {
                *e == DebarError::UnknownServer { server: 1 }
            });
        }
    }

    #[test]
    fn pipelined_store_overlap_reported_and_multi_server_results_unchanged() {
        // Two servers with asymmetric load: the lightly-loaded server's
        // chunk storing starts while the straggler still sweeps, without
        // changing any stored byte.
        let mut c = cluster(1);
        let a = c.define_job("heavy", ClientId(0));
        let b = c.define_job("light", ClientId(1));
        c.backup(a, &Dataset::from_records("s", records(0..4000)))
            .expect("backup");
        c.backup(b, &Dataset::from_records("s", records(50_000..51_000)))
            .expect("backup");
        let d2 = c.run_dedup2().expect("dedup2");
        assert_eq!(d2.store.stored_chunks, 5000);
        assert!(d2.store_wall > 0.0);
        for r in records(0..4000)
            .iter()
            .chain(records(50_000..51_000).iter())
        {
            assert!(c.resolve(&r.fp).is_some());
        }
    }

    #[test]
    fn restore_report_surfaces_lpc_stats() {
        // Multi-version job: version 1 shares half its chunks with
        // version 0, and the sequential SISL layout makes the LPC hit on
        // nearly every chunk after each container fetch.
        let mut c = cluster(0);
        let job = c.define_job("j", ClientId(0));
        c.backup(job, &Dataset::from_records("s", records(0..2000)))
            .expect("backup");
        c.run_dedup2().expect("dedup2");
        c.backup(job, &Dataset::from_records("s", records(1000..3000)))
            .expect("backup");
        c.run_dedup2().expect("dedup2");
        let rep = c.restore_run(RunId { job, version: 1 }).expect("restore");
        assert_eq!(rep.failures, 0);
        assert_eq!(
            rep.lpc.hits + rep.lpc.misses,
            rep.chunks,
            "the cache adjudicates every walked chunk exactly once"
        );
        assert_eq!(
            rep.lpc_hit_ratio(),
            rep.lpc.hit_ratio(),
            "report-side ratio is backed by the embedded LpcStats"
        );
        assert!(
            rep.lpc.hit_ratio() > 0.9,
            "multi-version restore must hit the LPC, ratio {}",
            rep.lpc.hit_ratio()
        );
        // Tiny cache (8 containers) over a 2-version history: the walk
        // evicts at least once, and the report makes that observable.
        let older = c
            .restore_run(RunId { job, version: 0 })
            .expect("restore v0");
        assert!(
            rep.lpc.evictions + older.lpc.evictions > 0,
            "evictions must be surfaced"
        );
    }

    #[test]
    fn preload_index_keeps_the_striped_part_disk_bank() {
        let mut c = DebarCluster::new(DebarConfig::tiny_test(0).with_sweep_parts(4));
        let job = c.define_job("j", ClientId(0));
        c.backup(job, &Dataset::from_records("s", records(0..500)))
            .expect("backup");
        c.run_dedup2().expect("dedup2");
        let part2 = Device::IndexPart { server: 0, part: 2 };
        let ops = c.device_ops(part2).expect("in the stripe");
        assert!(ops > 0, "the round swept part 2");
        let stats = |c: &DebarCluster| c.server(0).index().part_disk_stats(2);
        let read_before = stats(&c).expect("materialized").seq_read_bytes;
        // Armed past the load's own write sweep: the next round's PSIL.
        c.arm(part2, FaultPlan::fail_at(ops + 1))
            .expect("in the stripe");
        let ballast =
            (10_000..10_100).map(|i| (ChunkRecord::of_counter(i).fp, ContainerId::new(7)));
        c.preload_index(ballast).expect("preload");
        assert_eq!(
            c.device_ops(part2),
            Ok(ops + 1),
            "the load is one write sweep on every part-disk of the stripe"
        );
        let after = stats(&c).expect("the bank is still four disks wide");
        assert_eq!(after.seq_read_bytes, read_before, "its statistics survive");
        c.backup(job, &Dataset::from_records("s", records(500..600)))
            .expect("backup");
        let err = c
            .run_dedup2()
            .expect_err("the armed plan survived the load");
        assert_eq!(interrupting_device(&err), Some(part2), "{err}");
    }

    #[test]
    fn deterministic_across_runs() {
        // 2 servers x 4 sweep parts: every virtual-time field of both
        // reports must repeat bit-for-bit on a fresh cluster.
        let run = || {
            let mut c = DebarCluster::new(DebarConfig::tiny_test(1).with_sweep_parts(4));
            let job = c.define_job("j", ClientId(0));
            c.backup(job, &Dataset::from_records("s", records(0..2500)))
                .expect("backup");
            let d = c.run_dedup2().expect("dedup2");
            let r = c.restore_run(RunId { job, version: 0 }).expect("restore");
            (d, r, c.now(), c.index_entries())
        };
        assert_eq!(run(), run());
    }

    // ------------------------------------------------------------------
    // Sibling servers on a faulted round (module docs, rule 2): a fault on
    // server 0 must not stop server 1's share of the phase — its device op
    // counters and clock are part of what a redo replays from.
    // ------------------------------------------------------------------

    /// 2 servers x 4 sweep parts x 2 store workers, one job logged on each
    /// server, dedup-2 not yet run. Three fingerprints in four belong to
    /// index part 1, so server 1 is the PSIU straggler: the cluster clock
    /// after an unfaulted PSIU *is* server 1's clock, bit for bit.
    fn two_striped_servers(siu_interval: u32) -> DebarCluster {
        let mut c = DebarCluster::new(DebarConfig {
            siu_interval,
            ..DebarConfig::tiny_test(1)
                .with_sweep_parts(4)
                .with_store_workers(2)
        });
        for (i, base) in [0u64, 50_000].into_iter().enumerate() {
            let job = c.define_job(format!("j{i}"), ClientId(i as u32));
            let mut owned = [0usize; 2];
            let recs: Vec<ChunkRecord> = records(base..base + 10_000)
                .into_iter()
                .filter(|r| {
                    let owner = r.fp.server_number(1) as usize;
                    owned[owner] += 1;
                    owned[owner] <= [500, 1500][owner]
                })
                .collect();
            assert_eq!(recs.len(), 2000);
            c.backup(job, &Dataset::from_records("s", recs))
                .expect("backup");
        }
        assert!(c.server(1).log_bytes() > 0, "server 1 needs chunks to pack");
        c
    }

    /// Op counters and busy-time statistics of one server's index devices
    /// (part-disks, probe CPU): every second a sweep charges to the
    /// server's clock is the max of a disk and a CPU time in here.
    fn index_devices(c: &DebarCluster, server: ServerId) -> impl PartialEq + std::fmt::Debug {
        let index = c.server(server).index();
        let parts: Vec<_> = (0..4)
            .map(|part| {
                (
                    c.device_ops(Device::IndexPart { server, part }),
                    index.part_disk_stats(part as usize),
                )
            })
            .collect();
        (index.cpu_stats(), parts)
    }

    /// Op counters of one server's chunk-log worker disks.
    fn log_devices(c: &DebarCluster, server: ServerId) -> Vec<DebarResult<u64>> {
        (0..2)
            .map(|worker| c.device_ops(Device::LogWorker { server, worker }))
            .collect()
    }

    fn index_digests(c: &DebarCluster) -> Vec<[u8; 20]> {
        (0..c.server_count() as ServerId)
            .map(|sid| Sha1::digest(c.server(sid).index().raw_data()))
            .collect()
    }

    /// Finish the round after a fault and require the clean outcome.
    fn assert_redo_converges(mut faulted: DebarCluster, clean: &DebarCluster) {
        faulted.clear_fault_plans();
        faulted.run_dedup2().expect("redo");
        faulted.force_siu().expect("siu");
        assert_eq!(index_digests(&faulted), index_digests(clean));
        assert_eq!(
            faulted.repository().stats().containers,
            clean.repository().stats().containers
        );
        for job in [JobId(0), JobId(1)] {
            let r = faulted
                .restore_run(RunId { job, version: 0 })
                .expect("restore");
            assert_eq!((r.chunks, r.failures), (2000, 0));
        }
    }

    #[test]
    fn armed_device_is_the_device_the_error_names_and_redo_converges() {
        // One device of each kind: arm it on its next op, run the round
        // that reaches it, and the surfaced fault must carry the very
        // address it was armed with; disarm + redo converges.
        let mut clean = two_striped_servers(1);
        clean.run_dedup2().expect("dedup2");
        for device in [
            Device::RepoNode(0),
            Device::IndexPart { server: 1, part: 3 },
            Device::LogWorker {
                server: 1,
                worker: 1,
            },
        ] {
            let mut c = two_striped_servers(1);
            arm_in(&mut c, device, 0, FaultPlan::fail_at);
            let err = c
                .run_dedup2()
                .expect_err("armed device must fault the round");
            assert!(
                matches!(err, DebarError::InterruptedDedup2 { .. }),
                "{device}: {err}"
            );
            assert_eq!(interrupting_device(&err), Some(device), "{err}");
            assert_redo_converges(c, &clean);
        }
    }

    #[test]
    fn psil_fault_on_one_server_lets_its_sibling_finish_the_phase() {
        use debar_simio::FaultPlan;
        // Round 1 defers SIU, so a clean round touches the index disks in
        // PSIL only.
        let mut clean = two_striped_servers(2);
        clean.run_dedup2().expect("dedup2");
        let arm = |c: &mut DebarCluster, server: ServerId| {
            arm_in(
                c,
                Device::IndexPart { server, part: 2 },
                0,
                FaultPlan::fail_at,
            )
        };
        let mut c = two_striped_servers(2);
        arm(&mut c, 0);
        let err = c.run_dedup2().expect_err("PSIL fault on server 0");
        assert!(
            matches!(
                err,
                DebarError::InterruptedDedup2 {
                    phase: Dedup2Phase::Sil,
                    server: 0,
                    ..
                }
            ),
            "{err}"
        );
        assert_eq!(
            interrupting_device(&err),
            Some(Device::IndexPart { server: 0, part: 2 })
        );
        assert_eq!(index_devices(&c, 1), index_devices(&clean, 1));
        // ...and the sweep is on the clock: later than when nobody swept.
        let mut nobody_swept = two_striped_servers(2);
        arm(&mut nobody_swept, 0);
        arm(&mut nobody_swept, 1);
        nobody_swept.run_dedup2().expect_err("both sweeps fault");
        assert!(c.now() > nobody_swept.now());
        clean.force_siu().expect("siu");
        assert_redo_converges(c, &clean);
    }

    #[test]
    fn drain_fault_on_one_server_lets_its_sibling_finish_the_pack() {
        use debar_simio::FaultPlan;
        let mut clean = two_striped_servers(2);
        clean.run_dedup2().expect("dedup2");
        let arm = |c: &mut DebarCluster, server: ServerId| {
            arm_in(
                c,
                Device::LogWorker { server, worker: 0 },
                0,
                FaultPlan::fail_at,
            )
        };
        let mut c = two_striped_servers(2);
        let logged = c.server(1).log_bytes();
        arm(&mut c, 0);
        let err = c.run_dedup2().expect_err("drain fault on server 0");
        assert!(
            matches!(
                err,
                DebarError::InterruptedDedup2 {
                    phase: Dedup2Phase::ChunkStoring,
                    server: 0,
                    ..
                }
            ),
            "{err}"
        );
        assert_eq!(interrupting_device(&err), Some(LOG0));
        // Server 1 drained (one op on each worker disk, as in the clean
        // round) and was charged for it, then rolled back.
        assert_eq!(log_devices(&c, 1), log_devices(&clean, 1));
        assert_eq!(c.server(1).log_bytes(), logged, "pack rolled back whole");
        let mut nobody_packed = two_striped_servers(2);
        arm(&mut nobody_packed, 0);
        arm(&mut nobody_packed, 1);
        nobody_packed.run_dedup2().expect_err("both drains fault");
        assert!(c.now() > nobody_packed.now());
        clean.force_siu().expect("siu");
        assert_redo_converges(c, &clean);
    }

    #[test]
    fn psiu_fault_on_one_server_lets_its_sibling_finish_the_update() {
        use debar_simio::FaultPlan;
        let mut clean = two_striped_servers(1);
        let d2 = clean.run_dedup2().expect("dedup2");
        assert_eq!(d2.sil_sweeps, 2, "one PSIL sweep per server");
        let mut c = two_striped_servers(1);
        // Part-disk 2's next op is the PSIL sweep; the one after is the
        // SIU read sweep.
        let part2 = Device::IndexPart { server: 0, part: 2 };
        arm_in(&mut c, part2, 1, FaultPlan::fail_at);
        let err = c.run_dedup2().expect_err("PSIU fault on server 0");
        assert!(
            matches!(err, DebarError::PartialSiu { device, .. } if device == part2),
            "{err}"
        );
        assert_eq!(index_devices(&c, 1), index_devices(&clean, 1));
        assert!(c.server(1).is_quiesced(), "server 1 registered");
        assert_eq!(index_digests(&c)[1], index_digests(&clean)[1]);
        assert_eq!(c.now(), clean.now());
        assert_redo_converges(c, &clean);
    }

    /// Bytes server 0's chunk-log disks have read so far.
    fn log_read(c: &DebarCluster) -> u64 {
        c.servers[0].chunk_log.disk_stats().seq_read_bytes
    }

    #[test]
    fn a_round_of_cross_job_duplicates_reads_little_of_its_log_and_its_redo_converges() {
        // Job 1 backs up the stream job 0 stored a round earlier. Its
        // filter has no chain to prime from, so the round's log holds only
        // cross-job duplicates, which PSIL finds registered: the drain
        // seeks past them. A fault on that drain still rolls it back
        // whole, and the redo converges.
        let build = || {
            let mut c = cluster(0);
            let a = c.define_job("a", ClientId(0));
            let b = c.define_job("b", ClientId(1));
            c.backup(a, &Dataset::from_records("s", records(0..2000)))
                .expect("backup");
            let logged = c.server(0).log_bytes();
            c.run_dedup2().expect("dedup2");
            assert_eq!(log_read(&c), logged, "a first backup's log is read whole");
            c.backup(b, &Dataset::from_records("s", records(0..2000)))
                .expect("backup");
            c
        };
        let mut clean = build();
        let (logged, before) = (clean.server(0).log_bytes(), log_read(&clean));
        let d2 = clean.run_dedup2().expect("dedup2");
        assert_eq!(d2.store.log_bytes, logged, "every record is processed");
        assert_eq!((d2.store.discarded, d2.store.stored_chunks), (2000, 0));
        let read = log_read(&clean) - before;
        assert!(2 * read < logged, "read {read} of {logged} logged bytes");
        clean.force_siu().expect("siu");

        let mut c = build();
        arm_in(&mut c, LOG0, 0, FaultPlan::fail_at);
        let err = c.run_dedup2().expect_err("drain fault");
        assert_eq!(interrupting_device(&err), Some(LOG0), "{err}");
        assert_eq!(c.server(0).log_bytes(), logged, "nothing drained");
        c.clear_fault_plans();
        c.run_dedup2().expect("redo");
        c.force_siu().expect("siu");
        assert_eq!(index_digests(&c), index_digests(&clean));
        for job in [JobId(0), JobId(1)] {
            let run = RunId { job, version: 0 };
            let got = c.restore_run(run).expect("restore");
            let want = clean.restore_run(run).expect("restore");
            assert_eq!((got.bytes, got.chunks), (want.bytes, want.chunks));
            assert_eq!((got.chunks, got.failures), (2000, 0));
        }
    }
}
