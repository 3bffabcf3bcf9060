//! The DEBAR cluster: TPDS orchestration across `2^w` backup servers
//! (paper §2, §5).
//!
//! Dedup-1 is `backup.rs`: the cluster assigns a server and records the
//! run, and the one filter → chunk-log loop runs on that server alone.
//! The rest of this file is dedup-2 and cluster administration.
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
//! | PSIL | each server sweeps its index part on its own clock, one sweep per index-cache sub-batch; verdicts, each with its sweep's end time, routed back to origins | no exit barrier — each server's clock runs ahead on its own |
//! | chunk storing | §5.3: each origin **packs** its chunk log into containers on its own clock (`store_workers` worker disks striping each drain), then a canonical-order **commit** assigns container IDs | overlapped twice: each worker disk streams its log span from the end of the sweep that decided it (on the owner's clock) while later sweeps run, and server *i*'s probes and container writes start at its own post-PSIL clock while straggler servers are still sweeping |
//! | update routing | unregistered `(fp, container)` pairs exchanged to owner parts | barrier after (PSIU needs every origin's updates) |
//! | PSIU | §5.4: owners merge updates on their own clocks. Synchronous (`siu_interval = 1`): a phase of its own here, read + write sweep per part. Asynchronous: the SIU due at the end of every `siu_interval`-th round rides on the next round's PSIL — each part's first sweep merges it in the same read pass and writes the part back, so its time is PSIL's — and the PSIL commit registers it | barrier after a phase of its own (round commit); none when riding |
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
//!    error (lowest server ID) surfaced, and what no commit took is simply
//!    dropped (see [`DebarCluster::run_dedup2`]'s failure model). Sibling
//!    op counters and clocks advance as in an unfaulted round, so a redo
//!    replays from the same device state whichever server faulted.
//!
//! The remaining barriers are genuine data dependencies (all-to-all
//! exchanges and the round commit), not implementation convenience.

use crate::client::BackupClient;
use crate::config::DebarConfig;
use crate::director::{Director, SiuPlan};
use crate::error::{DebarError, DebarResult, Dedup2Phase};
use crate::ids::{ClientId, Device, JobId, ServerId};
use crate::job::{JobSpec, Schedule};
use crate::report::Dedup2Report;
use crate::server::BackupServer;
use debar_filter::CuckooFilter;
use debar_hash::{ContainerId, Fingerprint};
use debar_index::SiuReport;
use debar_simio::models::paper;
use debar_simio::{FaultPlan, Lane, Secs, SimDisk, Timed};
use debar_store::{ChunkRepository, Damage};
use std::collections::HashMap;

#[path = "backup.rs"]
mod backup;

#[path = "fsck.rs"]
mod fsck;
pub use fsck::{Discrepancy, FsckReport};

#[path = "gc.rs"]
mod gc;
pub use gc::GcReport;

#[path = "restore.rs"]
mod restore;

/// When the last of a phase's repository-node timelines falls idle: the
/// makespan of what was queued on them.
fn last_idle(nodes: &[Lane]) -> Secs {
    nodes.iter().map(|n| n.free_at).fold(0.0, f64::max)
}

/// The dedup-2 round in flight (see [`DebarCluster::run_dedup2`]'s failure
/// model): what its commit points have made durable so far.
#[derive(Clone)]
struct Round {
    /// What the round does about the SIU that is due.
    plan: SiuPlan,
    /// The SIU the round has run on each server, in server order — its
    /// report and the updates it registered: every server's at the PSIL
    /// commit of a round the SIU rides on, each server's own PSIU as it
    /// completes. Empty until then.
    siu: Vec<Option<(SiuReport, u64)>>,
    /// The round's report as far as its commits have come: the round
    /// number, the exchange and PSIL figures and walls, the store totals
    /// and the store wall.
    report: Dedup2Report,
}

/// A DEBAR deployment: director + backup servers + chunk repository.
#[derive(Clone)]
pub struct DebarCluster {
    cfg: DebarConfig,
    /// The director (public for metadata inspection).
    pub director: Director,
    servers: Vec<BackupServer>,
    repo: ChunkRepository,
    clients: HashMap<ClientId, BackupClient>,
    /// The dedup-2 round in flight: opened by a round's first attempt,
    /// kept while it is interrupted, taken by its commit.
    round: Option<Round>,
    /// The deletable summary vector: a cuckoo filter holding one copy of
    /// every fingerprint referenced by a recorded run (or preloaded as
    /// ballast). Dedup-1 filter priming is gated on it, and garbage
    /// collection *removes* reclaimed fingerprints — something the blocked
    /// Bloom preliminary filter cannot do — so the filter chain stops
    /// advertising dead chunks (see [`crate::cluster::GcReport`]).
    summary: CuckooFilter,
}

impl DebarCluster {
    /// Build a cluster from a configuration.
    ///
    /// # Panics
    /// Panics if [`DebarConfig::validate`] refuses the configuration.
    pub fn new(cfg: DebarConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        let servers = (0..cfg.servers() as u16)
            .map(|id| BackupServer::new(id, cfg))
            .collect();
        DebarCluster {
            director: Director::new(&cfg),
            servers,
            repo: ChunkRepository::new(cfg.repo_nodes, paper::repo_disk(), cfg.container_bytes)
                .with_replication(cfg.replication)
                .with_retry(cfg.retry),
            clients: HashMap::new(),
            round: None,
            summary: CuckooFilter::with_capacity(1024, cfg.seed ^ 0x6C1A_55E7),
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
        self.disk(device)?.set_fault_plan(plan);
        Ok(())
    }

    /// A device's operation counter — the index its next op gets, for
    /// `arm(d, FaultPlan::fail_at(device_ops(d)? + k))`. Validates the
    /// address like [`DebarCluster::arm`].
    pub fn device_ops(&mut self, device: Device) -> DebarResult<u64> {
        Ok(self.disk(device)?.ops())
    }

    /// The one `Device` → disk resolver: validates the address and finds
    /// its disk, materializing a part or worker disk no sweep or drain has
    /// engaged yet (its first op will be op 0).
    fn disk(&mut self, device: Device) -> DebarResult<&mut SimDisk> {
        self.check_device(device)?;
        Ok(match device {
            Device::RepoNode(node) => self.repo.node_disk_mut(node)?,
            Device::IndexPart { server, part } => self.servers[server as usize]
                .index_mut()
                .part_disk_mut(part as usize),
            Device::LogWorker { server, worker } => self.servers[server as usize]
                .chunk_log
                .worker_disks
                .disk_mut(worker as usize),
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

    /// Disarm every device in the deployment: each bank clears its own
    /// disks.
    pub fn clear_fault_plans(&mut self) {
        self.repo.clear_fault_plans();
        for srv in &mut self.servers {
            srv.index_mut().clear_fault_plans();
            srv.chunk_log.worker_disks.clear_fault_plans();
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
        Ok(self.repo.repair_node(node)?)
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
    /// Maintenance I/O runs in the background: every read goes on its
    /// node's lane at the scrub's start — no read waits for another's data
    /// — a recopy's write on its node's lane once its source read has
    /// ended, and the returned cost is when the last node falls idle,
    /// charged to no backup server's clock.
    pub fn scrub(&mut self) -> DebarResult<Timed<debar_store::ScrubReport>> {
        self.ensure_quiesced()?;
        let (report, legs) = self.repo.scrub_all();
        let mut nodes = vec![Lane::new(); self.repo.node_count()];
        for leg in legs {
            let (node, cost) = leg.read;
            let read = nodes[node].run(0.0, cost);
            if let Some((node, cost)) = leg.write {
                nodes[node].run(read, cost);
            }
        }
        Ok(Timed::new(report, last_idle(&nodes)))
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
    /// Every phase reads the servers' dedup-2 state in place — the
    /// undetermined lists, the chunk logs, the decision maps — and the
    /// round has three commit points, the only places that state moves.
    /// The undetermined lists are taken for the attempt, so that every
    /// owner's PSIL reads them without a regrouped copy, and a PSIL fault
    /// puts each back on its server as it was, in arrival order.
    ///
    /// 1. **PSIL**, once every server's pass succeeded: the undetermined
    ///    lists are released, each owner's staged checking entries enter
    ///    its checking file, each origin's verdicts enter its decision map
    ///    (made room for once, each pass output dropped as it is taken
    ///    in) — and on a round the due SIU rides on
    ///    ([`SiuPlan::Ride`]), each owner's carried updates leave its
    ///    unregistered and checking files.
    /// 2. **Each server's store commit** ([`BackupServer::commit_packed`]),
    ///    in server order: the containers it made durable get their IDs
    ///    and route to SIU, and its log and decision map give up what
    ///    became durable (everything, on a clean batch). No server commits
    ///    after a drain fault or a sibling's store fault.
    /// 3. **The round**, after PSIU ran, rode on PSIL or was deferred: the
    ///    director's round number moves on and the round's report is
    ///    returned.
    ///
    /// The round in flight is one value. Its first attempt opens it with
    /// the round's number and [`SiuPlan`]; each commit point adds to its
    /// report what it made durable — the PSIL commit the exchange and PSIL
    /// figures and walls, each store commit its store totals, the end of a
    /// clean store phase its wall — and each server's SIU, riding or its
    /// own PSIU, is kept as it completes. The round commit takes the
    /// report, so an interrupted and redone round reports what an
    /// uninterrupted one does: its counts, its store totals, each server's
    /// SIU and, when the fault came after the PSIL commit, its exchange and
    /// PSIL walls to the bit. A phase's wall includes an interrupted
    /// attempt's time whenever the report keeps what that attempt
    /// committed — a faulted store phase's durable prefix, a faulted
    /// PSIU's completed servers. PSIL and the drain commit nothing, and
    /// the redo runs them whole: their walls are the redo's own.
    ///
    /// An injected fault surfaces as [`DebarError::InterruptedDedup2`]
    /// (PSIL — a riding SIU's sweeps included — or chunk storing) or
    /// [`DebarError::PartialSiu`] (a PSIU phase of its own). What a phase
    /// computed before its commit is dropped: nothing moved, so nothing is
    /// rolled back. Calling `run_dedup2` again (after clearing the fault)
    /// re-runs the same round from what the commits left: it runs no
    /// second SIU on a server that has one (the updates a faulted store
    /// made durable wait for the next, as in an uninterrupted history), and
    /// it converges to the byte-identical index parts, restore bytes and
    /// report of an uninterrupted run.
    pub fn run_dedup2(&mut self) -> DebarResult<Dedup2Report> {
        let mut round = self.round.take().unwrap_or_else(|| {
            let (number, plan) = self.director.peek_dedup2();
            let report = Dedup2Report {
                round: number,
                store_workers: self.cfg.store_workers.min(u32::MAX as usize) as u32,
                siu_ran: plan != SiuPlan::Defer,
                ..Dedup2Report::default()
            };
            Round {
                plan,
                siu: Vec::new(),
                report,
            }
        });
        let attempt = self.dedup2_attempt(&mut round);
        let end = self.align_clocks();
        let stored = match attempt {
            Ok(stored) => stored,
            Err(e) => {
                self.round = Some(round);
                return Err(e);
            }
        };
        // The round's commit.
        self.director.commit_dedup2();
        let Round {
            siu, mut report, ..
        } = round;
        let (reports, updates): (Vec<SiuReport>, Vec<u64>) = siu.into_iter().flatten().unzip();
        (report.siu_reports, report.siu_updates) = (reports, updates.iter().sum());
        report.siu_wall += end - stored;
        // Partitions the striped sweeps engaged (the configured mode when
        // no server swept this round).
        if report.sweep_parts == 0 {
            report.sweep_parts = self.cfg.sweep_parts.min(u32::MAX as usize) as u32;
        }
        Ok(report)
    }

    /// One attempt at the round in flight, from what its commits left:
    /// every phase, each commit adding to `round`. Returns when the chunk
    /// storing phase ended; a fault returns before the clocks align.
    fn dedup2_attempt(&mut self, round: &mut Round) -> DebarResult<Secs> {
        let number = round.report.round;
        let interrupted = |phase| {
            move |(server, cause): (ServerId, DebarError)| DebarError::InterruptedDedup2 {
                round: number,
                phase,
                server,
                cause: Box::new(cause),
            }
        };
        // An attempt after the PSIL commit of a round the SIU rides on
        // carries nothing more.
        let carry = round.plan == SiuPlan::Ride && round.siu.iter().all(Option::is_none);
        let s = self.servers.len();
        let w = self.cfg.w_bits;
        let owner_of = |fp: &Fingerprint| fp.server_number(w) as usize;
        let t0 = self.align_clocks();

        // ---- Phase 1: exchange the undetermined fingerprints. ----
        // The lists are taken for the attempt and every owner reads them
        // in place, in arrival order; a PSIL fault puts them back as they
        // were, so a redo submits the identical batches (sub-batch
        // boundaries reproduce).
        let lists: Vec<Vec<Fingerprint>> = (self.servers.iter_mut())
            .map(|srv| std::mem::take(&mut srv.undetermined))
            .collect();
        let routes = lists.iter().enumerate();
        self.exchange(
            25,
            routes.flat_map(|(from, list)| list.iter().map(move |fp| (from, owner_of(fp)))),
        );
        let t1 = self.align_clocks();

        // ---- Phase 2: PSIL, every server on its own clock. ----
        let outputs = match each_server(&mut self.servers, |srv| srv.sil_on_part(&lists, carry)) {
            Ok(outputs) => outputs,
            Err(fault) => {
                for (srv, list) in self.servers.iter_mut().zip(lists) {
                    srv.undetermined = list;
                }
                return Err(interrupted(Dedup2Phase::Sil)(fault));
            }
        };
        // The PSIL commit: the undetermined lists released, verdicts
        // routed back to their origins (charging the result exchange),
        // checking entries, and a carried SIU's updates registered. Each
        // origin's decision map makes room for all its verdicts at once,
        // and each pass output goes as it is taken in.
        let submitted: usize = lists.iter().map(Vec::len).sum();
        drop(lists);
        let routes = outputs.iter().enumerate().flat_map(|(from, out)| {
            let each = out.verdicts.iter().enumerate();
            each.flat_map(move |(to, list)| std::iter::repeat_n((from, to), list.len()))
        });
        self.exchange(26, routes);
        let mut incoming = vec![0; s];
        for out in &outputs {
            for (origin, list) in out.verdicts.iter().enumerate() {
                incoming[origin] += list.len();
            }
        }
        for (srv, n) in self.servers.iter_mut().zip(incoming) {
            srv.reserve_decisions(n);
        }
        // No barrier here: phase 3 is pipelined, each server's chunk
        // storing starts at its *own* post-PSIL clock while stragglers
        // are still sweeping. `t2` (the slowest server) still delimits
        // the reported PSIL wall.
        let t2 = self.now();
        let report = &mut round.report;
        report.submitted_fps += submitted as u64;
        let mut carried = Vec::with_capacity(s);
        for (owner, out) in outputs.into_iter().enumerate() {
            report.dup_registered += out.stats.dup_registered;
            report.dup_pending += out.stats.dup_pending;
            report.new_fps += out.stats.new_fps;
            report.sil_sweeps += out.stats.sweeps;
            report.sweep_parts = report.sweep_parts.max(out.stats.parts);
            if out.carried.is_some() {
                self.servers[owner].release_updates();
            }
            self.servers[owner].commit_checking(out.checking);
            for (origin, list) in out.verdicts.into_iter().enumerate() {
                self.servers[origin].decide(&list);
            }
            carried.push(out.carried);
        }
        report.exchange_wall += t1 - t0;
        report.sil_wall += t2 - t1;
        if carry {
            round.siu = carried;
        }

        // ---- Phase 3: pipelined chunk storing. ----
        // Stage 1 — pack: every server drains its chunk log (striped
        // over `store_workers` worker disks) and packs SISL containers,
        // starting at its own post-PSIL clock. Packing reads only the
        // server's own state and moves none of it, so a drain fault
        // interrupts the phase before any container commits.
        let packs = each_server(&mut self.servers, |srv| srv.pack_chunks(t1))
            .map_err(interrupted(Dedup2Phase::ChunkStoring))?;
        // Stage 2 — commit in canonical server order: container IDs are
        // assigned here, so the repository sees exactly the operation
        // sequence of the bulk-synchronous model and results stay
        // byte-identical. Once a commit faults, every remaining pack is
        // dropped uncommitted: its server's log and decisions never moved.
        let mut assigned = Vec::with_capacity(s);
        let mut fault = None;
        for (srv, pack) in self.servers.iter_mut().zip(packs) {
            let outcome = srv.commit_packed(pack, &mut self.repo, &mut round.report.store);
            assigned.push(outcome.assigned);
            if let Some(e) = outcome.fault {
                fault = Some((srv.id, e));
                break;
            }
        }
        // Durable assignments route to their owners even when the pass
        // was interrupted — they are on disk and must register.
        let routes = assigned.iter().enumerate();
        self.exchange(
            30,
            routes.flat_map(|(from, a)| a.iter().map(move |(fp, _)| (from, owner_of(fp)))),
        );
        let mut routed = vec![0; s];
        for (fp, _) in assigned.iter().flatten() {
            routed[owner_of(fp)] += 1;
        }
        for (srv, n) in self.servers.iter_mut().zip(routed) {
            srv.reserve_updates(n);
        }
        for (fp, cid) in assigned.into_iter().flatten() {
            self.servers[owner_of(&fp)].queue_updates([(fp, cid)]);
        }
        if let Some(fault) = fault {
            // The report keeps what the commits before the fault made
            // durable, so it keeps the time they took too.
            round.report.store_wall += self.now() - t2;
            return Err(interrupted(Dedup2Phase::ChunkStoring)(fault));
        }
        let t3 = self.align_clocks();
        round.report.store_wall += t3 - t2;

        // ---- Phase 4: PSIU, on the synchronous schedule. ----
        // A faulted server keeps its pending updates, and the redo retries
        // the SIU of every server whose SIU did not complete. A riding SIU
        // ran in PSIL; a deferred one waits.
        if round.plan == SiuPlan::AfterStore {
            let slots = &mut round.siu;
            slots.resize(s, None);
            let ran = each_server(&mut self.servers, |srv| {
                let slot = &mut slots[srv.id as usize];
                if slot.is_none() {
                    *slot = Some(srv.run_siu()?);
                }
                Ok(())
            });
            if let Err((_, e)) = ran {
                // The SIUs that completed are kept, and so is their time.
                round.report.siu_wall += self.now() - t3;
                return Err(e);
            }
        }
        Ok(t3)
    }

    /// One all-to-all exchange: every `(from, to)` route between two
    /// servers sends `bytes`, and each server's NIC streams all it sent
    /// and received as one transfer, in server order.
    fn exchange(&mut self, bytes: u64, routes: impl IntoIterator<Item = (usize, usize)>) {
        let mut load = vec![0u64; self.servers.len()];
        for (from, to) in routes {
            if from != to {
                load[from] += bytes;
                load[to] += bytes;
            }
        }
        for (srv, bytes) in self.servers.iter_mut().zip(load) {
            srv.charge_net(bytes);
        }
    }

    /// Force PSIU now (register every pending fingerprint). Used at
    /// experiment end.
    ///
    /// An injected index-disk fault surfaces as
    /// [`DebarError::PartialSiu`]; the faulted server keeps its pending
    /// updates, and calling `force_siu` again re-applies them
    /// idempotently (see [`BackupServer::run_siu`]).
    pub fn force_siu(&mut self) -> DebarResult<(Vec<SiuReport>, Secs)> {
        let t0 = self.align_clocks();
        let ran = each_server(&mut self.servers, BackupServer::run_siu);
        let t1 = self.align_clocks();
        let reports = ran.map_err(|(_, e)| e)?.into_iter().map(|(r, _)| r);
        Ok((reports.collect(), t1 - t0))
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
    pub fn scale_up_indexes(&mut self) -> DebarResult<Secs> {
        let t0 = self.align_clocks();
        for srv in &mut self.servers {
            let t = srv.index_mut().scale_up()?;
            srv.clock.advance(t.cost);
        }
        let t1 = self.align_clocks();
        Ok(t1 - t0)
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
        new_cfg.validate()?;
        let t0 = self.align_clocks();
        // A fault on a split's read leaves every server as it was.
        let mut halves = Vec::with_capacity(self.servers.len());
        for srv in &mut self.servers {
            let t = srv.index_mut().split(1)?;
            srv.clock.advance(t.cost);
            halves.push(t.value);
        }
        let old = std::mem::take(&mut self.servers);
        for (srv, parts) in old.into_iter().zip(halves) {
            let (a, b) = srv.split_for_scale_out(new_cfg, parts);
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
            .try_bulk_load_striped(entries, parts)?;
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
            srv.index_mut().try_bulk_load_striped(batch, parts)?;
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

/// Run one phase on every server in ID order, each on its own clock, then
/// surface the lowest-ID fault — or every server's output.
fn each_server<T>(
    servers: &mut [BackupServer],
    mut phase: impl FnMut(&mut BackupServer) -> DebarResult<T>,
) -> Result<Vec<T>, (ServerId, DebarError)> {
    let mut fault = None;
    let outputs = (servers.iter_mut())
        .filter_map(|srv| {
            let id = srv.id;
            phase(srv)
                .map_err(|e| _ = fault.get_or_insert((id, e)))
                .ok()
        })
        .collect();
    fault.map_or(Ok(outputs), Err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::ids::RunId;
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
            siu_interval: 2, // an SIU falls due at the end of even rounds
            ..DebarConfig::tiny_test(0)
        });
        let a = c.define_job("a", ClientId(0));
        let b = c.define_job("b", ClientId(1));
        let d = c.define_job("d", ClientId(2));
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
        assert!(!d2.siu_ran, "round 2's due SIU rides on round 3");
        assert_eq!(d2.dup_pending, 1000, "pending duplicates detected");
        assert_eq!(d2.store.stored_chunks, 0, "no double storage");
        assert_eq!(c.index_entries(), 0);
        // Round 3's PSIL carries it: its sweep merges the 1000 updates and
        // finds a third job's copy registered.
        c.backup(d, &Dataset::from_records("s", records(0..1000)))
            .expect("backup");
        let d3 = c.run_dedup2().expect("dedup2");
        assert!(d3.siu_ran, "round 3 carries the due SIU");
        assert_eq!(d3.siu_updates, 1000, "the updates it carried");
        assert_eq!(d3.siu_reports[0].inserted, 1000);
        assert_eq!(d3.dup_registered, 1000, "probed against the merge");
        assert_eq!(d3.store.stored_chunks, 0, "no double storage");
        assert_eq!(d3.siu_wall, 0.0, "the SIU's time is PSIL's");
        assert_eq!(c.index_entries(), 1000);
        assert!(c.server(0).is_quiesced(), "checking file released");
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
            rep.lpc.hit_ratio() > 0.9,
            "hit ratio {}",
            rep.lpc.hit_ratio()
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
        let cost = c.scale_up_indexes().expect("no fault is armed");
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
    fn one_client_backs_up_a_file_tree_history_that_restores_byte_for_byte() {
        use debar_workload::files::{FileTreeConfig, FileTreeGen, MutationConfig};
        let mut c = cluster(0);
        let job = c.define_job("tree", ClientId(0));
        let mut gen = FileTreeGen::new(FileTreeConfig {
            files: 12,
            ..FileTreeConfig::default()
        });
        let mut versions = vec![gen.initial()];
        for _ in 1..5 {
            let next = gen.mutate(
                versions.last().expect("a version"),
                MutationConfig::default(),
            );
            versions.push(next);
        }
        for tree in &versions {
            c.backup(job, &Dataset::from_file_specs(tree))
                .expect("backup");
            c.run_dedup2().expect("dedup2");
        }
        c.force_siu().expect("siu");
        for (version, tree) in versions.iter().enumerate() {
            let run = RunId {
                job,
                version: version as u32,
            };
            // The recipe is what a client that never saw the history cuts,
            // and every chunk of it reads back and hashes to its
            // fingerprint: the run restores these bytes.
            let ds = Dataset::from_file_specs(tree);
            let fresh = BackupClient::new(ClientId(9)).prepare(&ds).value;
            let record = c.director.metadata.run(run).expect("recorded");
            assert_eq!(record.files.len(), fresh.len());
            for (entry, file) in record.files.iter().zip(&fresh) {
                assert_eq!(entry.path, file.path);
                let fps: Vec<Fingerprint> = file.chunks.iter().map(|ch| ch.fp).collect();
                let recipe: Vec<Fingerprint> = entry.recipe.iter().copied().collect();
                assert_eq!(recipe, fps, "version {version}, {}", file.path);
            }
            let rep = c.restore_run(run).expect("restore");
            assert_eq!(rep.failures, 0);
            assert_eq!(rep.bytes, ds.logical_bytes(), "version {version}");
            assert_eq!(rep.files, tree.len() as u64);
        }
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
            Sha1::digest(&resumed.server(0).index().raw_data()),
            Sha1::digest(&clean.server(0).index().raw_data()),
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
        // before the fault, unlike the first-write crash above. A second
        // job repeats a third of the first, so the log holds duplicates
        // the pass discards on both sides of the fault.
        let drive = |fault: bool| {
            let mut c = cluster(0);
            let job = c.define_job("j", ClientId(0));
            c.backup(job, &Dataset::from_records("s", records(0..3000)))
                .expect("backup");
            let other = c.define_job("k", ClientId(1));
            c.backup(other, &Dataset::from_records("s", records(1000..4000)))
                .expect("backup");
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
            (c, d2.store)
        };
        let (clean, clean_store) = drive(false);
        let (mut resumed, resumed_store) = drive(true);
        // The resumed round's report folds in the durable prefix, and the
        // prefix counts only what its commit consumed of the log: all six
        // totals match an uninterrupted history exactly.
        assert_eq!(resumed_store, clean_store, "store accounting");
        assert_eq!(
            (clean_store.log_records, clean_store.discarded),
            (6000, 2000)
        );
        assert_eq!(
            Sha1::digest(&resumed.server(0).index().raw_data()),
            Sha1::digest(&clean.server(0).index().raw_data())
        );
        for job in [JobId(0), JobId(1)] {
            let r = resumed
                .restore_run(RunId { job, version: 0 })
                .expect("restore");
            assert_eq!(r.failures, 0);
            assert_eq!(r.chunks, 3000);
        }
    }

    #[test]
    fn interrupted_sil_restores_undetermined_and_resumes() {
        use debar_simio::FaultPlan;
        // Every server's list comes back element for element: arrival
        // order sets the sub-batch boundaries the redo must reproduce.
        let lists = |c: &DebarCluster| -> Vec<Vec<Fingerprint>> {
            c.servers
                .iter()
                .map(|srv| srv.undetermined.clone())
                .collect()
        };
        for w in [0, 1] {
            let drive = |fault: bool| {
                let mut c = cluster(w);
                let a = c.define_job("a", ClientId(0));
                let b = c.define_job("b", ClientId(1));
                c.backup(a, &Dataset::from_records("s", records(0..2000)))
                    .expect("backup");
                c.backup(b, &Dataset::from_records("t", records(1000..2500)))
                    .expect("backup");
                if fault {
                    arm_in(&mut c, INDEX0, 0, FaultPlan::fail_at);
                    let before = lists(&c);
                    assert!(before.iter().filter(|l| !l.is_empty()).count() == 1 << w);
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
                        lists(&c),
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
            assert_eq!(index_digests(&resumed), index_digests(&clean), "w = {w}");
            assert_eq!(
                resumed.repository().stats().containers,
                clean.repository().stats().containers
            );
        }
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
            Sha1::digest(&resumed.server(0).index().raw_data()),
            Sha1::digest(&clean.server(0).index().raw_data()),
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
            Sha1::digest(&resumed.server(0).index().raw_data()),
            Sha1::digest(&clean.server(0).index().raw_data())
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
            Sha1::digest(&resumed.server(0).index().raw_data()),
            Sha1::digest(&clean.server(0).index().raw_data())
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
            Sha1::digest(&resumed.server(0).index().raw_data()),
            Sha1::digest(&clean.server(0).index().raw_data()),
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
                Sha1::digest(&c.server(0).index().raw_data()),
                Sha1::digest(&base.server(0).index().raw_data()),
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
            Sha1::digest(&resumed.server(0).index().raw_data()),
            Sha1::digest(&clean.server(0).index().raw_data())
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
    fn index_devices(c: &mut DebarCluster, server: ServerId) -> impl PartialEq + std::fmt::Debug {
        let ops: Vec<_> = (0..4)
            .map(|part| c.device_ops(Device::IndexPart { server, part }))
            .collect();
        let index = c.server(server).index();
        let parts: Vec<_> = (ops.into_iter().enumerate())
            .map(|(part, ops)| (ops, index.part_disk_stats(part)))
            .collect();
        (index.cpu_stats(), parts)
    }

    /// Op counters of one server's chunk-log worker disks.
    fn log_devices(c: &mut DebarCluster, server: ServerId) -> Vec<DebarResult<u64>> {
        (0..2)
            .map(|worker| c.device_ops(Device::LogWorker { server, worker }))
            .collect()
    }

    fn index_digests(c: &DebarCluster) -> Vec<[u8; 20]> {
        (0..c.server_count() as ServerId)
            .map(|sid| Sha1::digest(&c.server(sid).index().raw_data()))
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
        // After a scale-out: the split named the devices of the servers it
        // made, so a fault armed on server 3 of 4 (server 1's second half)
        // names server 3's part-disk or worker disk.
        let grown = || {
            let mut c = two_striped_servers(1);
            c.run_dedup2().expect("dedup2");
            c.scale_out().expect("scale-out");
            for i in 0..4u32 {
                let job = c.define_job(format!("after{i}"), ClientId(2 + i));
                let base = 100_000 + 10_000 * i as u64;
                let data = Dataset::from_records("s", records(base..base + 2000));
                c.backup(job, &data).expect("backup");
            }
            assert!(c.server(3).log_bytes() > 0, "server 3 needs chunks to pack");
            c
        };
        let mut clean = grown();
        clean.run_dedup2().expect("dedup2");
        for device in [
            Device::IndexPart { server: 3, part: 1 },
            Device::LogWorker {
                server: 3,
                worker: 1,
            },
        ] {
            let mut c = grown();
            arm_in(&mut c, device, 0, FaultPlan::fail_at);
            let err = c
                .run_dedup2()
                .expect_err("armed device must fault the round");
            assert_eq!(interrupting_device(&err), Some(device), "{err}");
            c.clear_fault_plans();
            c.run_dedup2().expect("redo");
            assert_eq!(index_digests(&c), index_digests(&clean), "{device}");
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
        assert_eq!(index_devices(&mut c, 1), index_devices(&mut clean, 1));
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
        // round) and was charged for it; its pack was never committed.
        assert_eq!(log_devices(&mut c, 1), log_devices(&mut clean, 1));
        assert_eq!(c.server(1).log_bytes(), logged, "pack dropped whole");
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
        assert_eq!(index_devices(&mut c, 1), index_devices(&mut clean, 1));
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

    // ---- The drain behind PSIL: each sweep's log span as it is decided ----

    /// PSIL of a round, by hand and without its exchanges' network time:
    /// every owner sweeps what the servers submitted to it and its
    /// verdicts reach their origins' decision maps. Returns the PSIL start
    /// and each server's verdict times (the ends of its owners' sweeps),
    /// distinct and ascending.
    fn psil_by_hand(c: &mut DebarCluster) -> (Secs, Vec<Vec<Secs>>) {
        let s = c.servers.len();
        let t1 = c.align_clocks();
        let lists: Vec<Vec<Fingerprint>> = (c.servers.iter_mut())
            .map(|srv| std::mem::take(&mut srv.undetermined))
            .collect();
        let mut decided = vec![Vec::new(); s];
        for owner in 0..s {
            let out = c.servers[owner].sil_on_part(&lists, false).expect("sil");
            c.servers[owner].commit_checking(out.checking);
            for (origin, list) in out.verdicts.iter().enumerate() {
                c.servers[origin].decide(list);
                decided[origin].extend(list.iter().map(|&(_, _, at)| at));
            }
        }
        for times in &mut decided {
            times.sort_by(f64::total_cmp);
            times.dedup();
        }
        (t1, decided)
    }

    /// A single server whose log holds `n1` new chunks, a run of 200
    /// duplicates of chunks an earlier round registered — 1.6 MB, far past
    /// the gap law's ~440 KiB, so the drain seeks over it — and 200 more
    /// new chunks, each index sweep taking `sweep_fps` fingerprints.
    /// Returns it with the byte sizes of the two new blocks.
    fn new_dups_new(n1: u64, sweep_fps: u64) -> (DebarCluster, u64, u64) {
        let mut c = DebarCluster::new(DebarConfig {
            cache_bytes: sweep_fps * paper::CACHE_BYTES_PER_FP,
            ..DebarConfig::tiny_test(0)
        });
        let a = c.define_job("a", ClientId(0));
        let b = c.define_job("b", ClientId(1));
        c.backup(a, &Dataset::from_records("s", records(5000..5200)))
            .expect("backup");
        c.run_dedup2().expect("dedup2");
        let stream = [0..n1, 5000..5200, 9000..9200].map(records).concat();
        c.backup(b, &Dataset::from_records("s", stream))
            .expect("backup");
        let log = c.servers[0].chunk_log.records();
        let bytes =
            |recs: std::ops::Range<usize>| -> u64 { recs.map(|i| log.get(i).record_bytes()).sum() };
        let n1 = n1 as usize;
        assert_eq!(log.len(), n1 + 400, "every chunk of the stream is logged");
        let (first, last) = (bytes(0..n1), bytes(n1 + 200..log.len()));
        (c, first, last)
    }

    /// Server 0's clock after `from`, then one probe per log record: the
    /// pack's own arithmetic after its drain.
    fn after_probes(c: &DebarCluster, from: Secs) -> Secs {
        let probe = paper::cpu().probe_cost(1);
        let records = c.servers[0].chunk_log.len();
        (0..records).fold(from, |now, _| now + probe)
    }

    #[test]
    fn a_one_sweep_round_drains_from_its_pack_start_as_behind_a_barrier() {
        // One sweep decides every record at the pack's start, so each
        // worker's pass is one leg ready then, costed as the unsplit read:
        // by the lane law (one op on a fresh lane ends at its ready plus
        // its cost) the drain ends at start + C, the barrier's schedule to
        // the bit.
        let (mut c, first, last) = new_dups_new(200, 10_000);
        let (t1, decided) = psil_by_hand(&mut c);
        let start = c.servers[0].clock.now();
        assert_eq!(decided[0], vec![start], "one sweep, ending now");
        c.servers[0].pack_chunks(t1).expect("pack");
        let model = paper::log_disk();
        let seek = model.rand_read_cost(0);
        let whole = model.seq_read_cost(first + last) + seek;
        assert_eq!(c.servers[0].clock.now(), after_probes(&c, start + whole));
    }

    #[test]
    fn a_two_sweep_round_streams_sweep_one_while_sweep_two_runs() {
        // 300 fingerprints a sweep: the first sweep decides the first new
        // block and the head of the duplicate run, the second the rest.
        // The first block's extent is read from the first sweep's end; the
        // second block's, one seek further, once the second sweep decided
        // the duplicates it skips. Reading the first block outlasts the
        // second sweep, so the drain ends at sweep one's end plus both
        // legs — ahead of the barrier's start + C.
        let (mut c, first, last) = new_dups_new(200, 300);
        let (t1, decided) = psil_by_hand(&mut c);
        let start = c.servers[0].clock.now();
        let &[s1, s2] = &decided[0][..] else {
            panic!("two sweeps, got {:?}", decided[0]);
        };
        assert_eq!(s2, start, "the last sweep ends at the pack's start");
        c.servers[0].pack_chunks(t1).expect("pack");
        let model = paper::log_disk();
        let seek = model.rand_read_cost(0);
        let (leg1, leg2) = (model.seq_read_cost(first), model.seq_read_cost(last) + seek);
        assert!(s1 + leg1 > s2, "the first leg outlasts the second sweep");
        let drained = f64::max(s1 + leg1, s2) + leg2;
        assert_eq!(c.servers[0].clock.now(), after_probes(&c, drained));
        let barrier = start + model.seq_read_cost(first + last) + seek;
        assert!(drained < barrier, "{drained} vs {barrier}");
    }

    #[test]
    fn a_record_owned_by_a_remote_part_is_not_drained_before_its_owner_swept_it() {
        // Every chunk server 0 logs belongs to server 1's part. Server 0
        // sweeps nothing and would pack at the PSIL start; its drain waits
        // for server 1's sweep, which decides every one of its records.
        let mut c = cluster(1);
        let job = c.define_job("j", ClientId(0));
        let remote: Vec<ChunkRecord> = (records(0..4000).into_iter())
            .filter(|r| r.fp.server_number(1) == 1)
            .collect();
        c.backup(job, &Dataset::from_records("s", remote))
            .expect("backup");
        assert!(c.server(0).log_bytes() > 0 && c.server(1).log_bytes() == 0);
        let (t1, decided) = psil_by_hand(&mut c);
        let swept = c.servers[1].clock.now();
        assert_eq!(decided[0], vec![swept], "server 1 decided server 0's log");
        assert_eq!(c.servers[0].clock.now(), t1, "server 0 swept nothing");
        assert!(
            after_probes(&c, t1) < swept,
            "a barrier-free pack would be done"
        );
        let logged = c.server(0).log_bytes();
        c.servers[0].pack_chunks(t1).expect("pack");
        let read = paper::log_disk().seq_read_cost(logged);
        assert_eq!(c.servers[0].clock.now(), after_probes(&c, swept + read));
    }

    #[test]
    fn a_recopy_writes_once_its_source_read_has_ended() {
        // R = 2 on two nodes, one container, one copy damaged: the scrub
        // verifies both copies, reads the clean one again as the recopy's
        // source and writes the damaged one. The write waits for its
        // source read, so the clean node's two reads and the write run
        // back to back: the scrub's wall is read + read + write.
        let mut c = DebarCluster::new(DebarConfig {
            repo_nodes: 2,
            replication: 2,
            ..DebarConfig::tiny_test(0)
        });
        let job = c.define_job("j", ClientId(0));
        c.backup(job, &Dataset::from_records("s", records(0..50)))
            .expect("backup");
        c.run_dedup2().expect("dedup2");
        assert_eq!(c.repository().stats().containers, 1);
        let stats = |c: &DebarCluster| -> Vec<debar_simio::DiskStats> {
            (c.repository().nodes().iter())
                .map(|n| n.disk_stats())
                .collect()
        };
        let before = stats(&c);
        c.set_damage(ContainerId::new(0), Some(Damage::BitFlip))
            .expect("stored");
        let scrub = c.scrub().expect("quiesced");
        assert_eq!((scrub.value.corrupt_found, scrub.value.repaired), (1, 1));
        let after = stats(&c);
        let delta = |n: usize, f: fn(&debar_simio::DiskStats) -> u64| f(&after[n]) - f(&before[n]);
        let written: Vec<u64> = (0..2).map(|n| delta(n, |s| s.seq_write_bytes)).collect();
        let damaged = written.iter().position(|&w| w > 0).expect("a recopy wrote");
        let image = delta(1 - damaged, |s| s.rand_read_bytes) / 2;
        assert_eq!(delta(damaged, |s| s.rand_read_bytes), image);
        let disk = paper::repo_disk();
        let read = disk.rand_read_cost(image);
        let write = disk.seq_write_cost(written[damaged]);
        assert_eq!(scrub.cost, read + read + write);
    }

    // ---- The due SIU rides on the next PSIL ----

    #[test]
    fn an_empty_siu_touches_no_device() {
        // Round 1's synchronous SIU registered everything, so the forced
        // SIU after it has nothing to merge: no part-disk op, no busy
        // second, no clock movement.
        let mut c = two_striped_servers(1);
        c.run_dedup2().expect("dedup2");
        let devices = |c: &mut DebarCluster| [index_devices(c, 0), index_devices(c, 1)];
        let (before, now) = (devices(&mut c), c.now());
        let (reports, wall) = c.force_siu().expect("siu");
        assert_eq!(devices(&mut c), before);
        assert_eq!((wall, c.now()), (0.0, now));
        assert!(reports.iter().all(|r| (r.parts, r.inserted) == (0, 0)));
    }

    /// One round of the schedule-law history: every job backs up a window
    /// of the counter space that overlaps its last one (the filter's
    /// catch), the other jobs' (cross-job duplicates) and earlier rounds'
    /// (registered or pending duplicates), then dedup-2 runs.
    fn schedule_round(c: &mut DebarCluster, jobs: &[JobId], round: u64) -> Dedup2Report {
        for (j, &job) in jobs.iter().enumerate() {
            let from = round * 700 + j as u64 * 400;
            c.backup(job, &Dataset::from_records("s", records(from..from + 1500)))
                .expect("backup");
        }
        c.run_dedup2().expect("dedup2")
    }

    /// What a history ends at once its last SIU has run: index digests,
    /// container IDs, stored bytes and every run's restored bytes.
    fn schedule_end(
        mut c: DebarCluster,
        jobs: &[JobId],
        rounds: u32,
        stored: u64,
    ) -> (Vec<[u8; 20]>, Vec<ContainerId>, u64, Vec<u64>) {
        c.force_siu().expect("siu");
        let mut restored = Vec::new();
        for &job in jobs {
            for version in 0..rounds {
                let r = c.restore_run(RunId { job, version }).expect("restore");
                assert_eq!(r.failures, 0);
                restored.push(r.bytes);
            }
        }
        let ids = c.repository().container_ids();
        (index_digests(&c), ids, stored, restored)
    }

    #[test]
    fn a_riding_siu_ends_where_a_forced_one_does() {
        // The schedule law: a history whose due SIUs ride on the next
        // round's PSIL ends, after the final force_siu, where the same
        // history with force_siu after every due round ends — at every
        // interval, stripe and server count — having read each index part
        // once less per riding SIU.
        const ROUNDS: u32 = 7;
        for interval in [2u32, 3] {
            for parts in [1usize, 2] {
                for w in [0u32, 1] {
                    let leg = format!("interval {interval}, {parts} parts, w = {w}");
                    let cfg = DebarConfig {
                        siu_interval: interval,
                        ..DebarConfig::tiny_test(w).with_sweep_parts(parts)
                    };
                    let (mut riding, mut forced) = (DebarCluster::new(cfg), DebarCluster::new(cfg));
                    let jobs = |c: &mut DebarCluster| -> Vec<JobId> {
                        (0..3)
                            .map(|i| c.define_job(format!("j{i}"), ClientId(i)))
                            .collect()
                    };
                    let jobs = (jobs(&mut riding), jobs(&mut forced));
                    let (mut stored, mut rides) = ([0u64; 2], 0);
                    for round in 1..=ROUNDS {
                        let r = schedule_round(&mut riding, &jobs.0, round.into());
                        let f = schedule_round(&mut forced, &jobs.1, round.into());
                        let rides_now = round > 1 && (round - 1) % interval == 0;
                        assert_eq!(r.siu_ran, rides_now, "{leg}: round {round}");
                        if r.siu_ran {
                            rides += 1;
                            assert!(r.siu_updates > 0, "{leg}: round {round} carried");
                            assert_eq!(r.siu_wall, 0.0, "{leg}: inside PSIL");
                        }
                        // The same verdicts: what rode was registered by
                        // the forced twin before this round's PSIL.
                        let verdicts =
                            |d: &Dedup2Report| (d.dup_registered, d.dup_pending, d.new_fps);
                        assert_eq!(verdicts(&r), verdicts(&f), "{leg}: round {round}");
                        stored[0] += r.store.stored_bytes;
                        stored[1] += f.store.stored_bytes;
                        if round % interval == 0 {
                            forced.force_siu().expect("siu");
                        }
                    }
                    assert!(rides > 0, "{leg}");
                    let index_ops = |c: &mut DebarCluster| -> u64 {
                        let servers = 0..c.server_count() as ServerId;
                        (servers
                            .flat_map(|server| (0..parts as u32).map(move |part| (server, part))))
                        .map(|(server, part)| c.device_ops(Device::IndexPart { server, part }))
                        .map(|ops| ops.expect("device"))
                        .sum()
                    };
                    let disks = (riding.server_count() * parts) as u64;
                    assert_eq!(
                        index_ops(&mut forced) - index_ops(&mut riding),
                        rides * disks,
                        "{leg}: one read op less per part-disk and riding SIU"
                    );
                    let want = schedule_end(forced, &jobs.1, ROUNDS, stored[1]);
                    let got = schedule_end(riding, &jobs.0, ROUNDS, stored[0]);
                    assert_eq!(got, want, "{leg}");
                }
            }
        }
    }

    #[test]
    fn a_riding_siu_costs_one_read_and_one_write_per_part_disk() {
        // Two servers × four part-disks, an SIU due every second round:
        // round 3 carries round 2's on its single PSIL sweep per server —
        // two ops on every part-disk, where forcing the SIU and then
        // sweeping takes three — and both end at the same index bytes.
        let build = || {
            let mut c = two_striped_servers(2);
            for (round, base) in [(1u32, 100_000u64), (2, 200_000)] {
                c.run_dedup2().expect("dedup2");
                let job = c.define_job(format!("r{round}"), ClientId(round + 1));
                c.backup(job, &Dataset::from_records("s", records(base..base + 3000)))
                    .expect("backup");
            }
            c
        };
        let ops = |c: &mut DebarCluster| -> Vec<u64> {
            (0..2u16)
                .flat_map(|server| (0..4u32).map(move |part| Device::IndexPart { server, part }))
                .map(|d| c.device_ops(d).expect("device"))
                .collect()
        };
        let delta = |c: &mut DebarCluster, from: &[u64]| -> Vec<u64> {
            ops(c).iter().zip(from).map(|(a, b)| a - b).collect()
        };
        let mut riding = build();
        let before = ops(&mut riding);
        let d3 = riding.run_dedup2().expect("round 3");
        assert!(d3.siu_ran && d3.siu_updates > 0);
        assert_eq!(d3.sil_sweeps, 2, "one PSIL sweep per server");
        assert_eq!(delta(&mut riding, &before), [2; 8], "read + write");

        let mut forced = build();
        let before = ops(&mut forced);
        forced.force_siu().expect("siu");
        let d3 = forced.run_dedup2().expect("round 3");
        assert_eq!(d3.siu_updates, 0, "nothing left to carry");
        assert_eq!(
            delta(&mut forced, &before),
            [3; 8],
            "SIU read + write, SIL read"
        );
        riding.force_siu().expect("siu");
        forced.force_siu().expect("siu");
        assert_eq!(index_digests(&riding), index_digests(&forced));
    }

    #[test]
    fn a_round_resumed_after_its_store_faulted_carries_no_second_siu() {
        // Round 3 carries round 2's due SIU, then its store faults after a
        // durable prefix, whose updates queue for the next SIU. The resumed
        // round must not carry them too: it reports the SIU its first
        // attempt carried and leaves the index as an uninterrupted round 3
        // does.
        let drive = |fault: bool| {
            let mut c = DebarCluster::new(DebarConfig {
                siu_interval: 2,
                ..DebarConfig::tiny_test(0)
            });
            let job = c.define_job("j", ClientId(0));
            for round in 0..3u64 {
                let from = round * 3000;
                c.backup(job, &Dataset::from_records("s", records(from..from + 3000)))
                    .expect("backup");
                if round < 2 {
                    c.run_dedup2().expect("dedup2");
                }
            }
            if fault {
                // Node 0's second write of the round: container 2 after
                // the durable containers 0 and 1.
                arm_in(&mut c, Device::RepoNode(0), 1, FaultPlan::fail_at);
                let err = c.run_dedup2().expect_err("store fault");
                assert!(
                    matches!(
                        err,
                        DebarError::InterruptedDedup2 {
                            phase: Dedup2Phase::ChunkStoring,
                            ..
                        }
                    ),
                    "{err}"
                );
                c.clear_fault_plans();
            }
            let d3 = c.run_dedup2().expect("round 3");
            let entries = c.index_entries();
            c.force_siu().expect("siu");
            (d3.siu_ran, d3.siu_updates, entries, index_digests(&c))
        };
        let clean = drive(false);
        assert!(clean.0 && clean.1 > 0, "round 3 carries an SIU");
        assert_eq!(drive(true), clean);
    }
}
