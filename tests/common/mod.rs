//! The history harness shared by the integration suites.
//!
//! A test is a *history*: a `Vec<`[`Call`]`>` of public operations that
//! [`play`] runs on a [`DebarCluster`], recording each call's typed
//! result, the device ops it charged and the repository's physical bytes
//! after it in a [`Trace`], whose `Debug` prints the history as Rust
//! source, each call with its result. A fault is a call too: `Call::Arm {
//! device, k, kind }` arms `kind` on `device`'s `k`-th op from now, and
//! `Call::Clear` disarms every device ([`fault`] brackets one call so).
//!
//! [`Scenario::history`] is the one end-to-end workload: every client's
//! evolving file tree from [`FileTreeGen`], backed up version by version
//! under any deployment. A suite splices calls into it ([`splice`] at an
//! [`At`]), and [`finish`] holds the played trace to what the API owes and
//! collects its [`Outcome`]. The same workload under any `sweep_parts`,
//! `store_workers` or `replication` must give byte-identical index state,
//! dedup decisions and restore bytes ([`assert_equivalent`]). [`twin`]
//! plays a history's fault-free twin once per (deployment, history) per
//! test binary, and [`crash_sweep`] arms a fault at every op one call
//! charges, each on a fresh fixture, holding every leg to the clean twin.
//! [`SWEEP_PARTS`], [`STORE_WORKERS`], [`REPLICATION`] and [`RETENTION`]
//! are the one matrix every suite loops over.

// Each integration-test target compiles its own copy of this module and
// uses a different subset of it.
#![allow(dead_code)]

use debar::hash::Sha1;
use debar::index::SiuReport;
use debar::store::RepairReport;
use debar::workload::drift::churn;
use debar::workload::files::{FileSpec, FileTreeConfig, FileTreeGen, MutationConfig};
use debar::workload::ChunkRecord;
use debar::{
    ClientId, ContainerId, Damage, Dataset, DebarCluster, DebarConfig, DebarError, DebarResult,
    Dedup1Report, Dedup2Report, Device, Discrepancy, FaultKind, FaultPlan, FaultSpec, FileEntry,
    GcReport, JobId, RestoreReport, RunId, ScrubReport,
};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::Range;
use std::sync::{Arc, Mutex};

/// What a backup protects, as a value.
#[derive(Debug, Clone, PartialEq)]
pub enum Data {
    /// One stream of `ChunkRecord::of_counter` over the range.
    Counters(Range<u64>),
    /// Every other run of `run` counters of `span`, the first included.
    EveryOtherRun { span: Range<u64>, run: usize },
    /// `drift::churn(gen, n, k)`.
    Churn { gen: u64, n: u64, k: u64 },
    /// Version `version` of client `client`'s tree among `clients`
    /// (see [`Scenario`]).
    Tree {
        clients: usize,
        client: usize,
        version: usize,
    },
}

/// A file-tree workload: its generator, each client's newest tree and
/// every version generated so far.
type Trees = (FileTreeGen, Vec<Vec<FileSpec>>, Vec<Vec<Arc<Dataset>>>);

/// Every file-tree workload of the test binary, by client count.
static TREES: Mutex<BTreeMap<usize, Trees>> = Mutex::new(BTreeMap::new());

impl Data {
    /// The dataset. Every client's tree derives from one shared base tree
    /// (pool duplication + cross-client duplication), evolving by edits,
    /// insertions, deletes and creates between versions.
    pub fn dataset(&self) -> Arc<Dataset> {
        let records = |recs: Vec<ChunkRecord>| Arc::new(Dataset::from_records("s", recs));
        let counters = |span: &Range<u64>| span.clone().map(ChunkRecord::of_counter);
        let (clients, client, version) = match self {
            Data::Counters(span) => return records(counters(span).collect()),
            Data::EveryOtherRun { span, run } => {
                let all: Vec<ChunkRecord> = counters(span).collect();
                return records(all.chunks(*run).step_by(2).flatten().copied().collect());
            }
            Data::Churn { gen, n, k } => return records(churn(*gen, *n, *k)),
            Data::Tree {
                clients,
                client,
                version,
            } => (*clients, *client, *version),
        };
        let mut all = TREES.lock().expect("tree cache");
        let (gen, latest, versions) = all.entry(clients).or_insert_with(|| {
            let cfg = FileTreeConfig {
                files: 8,
                seed: 0x5CE0_A710,
                ..FileTreeConfig::default()
            };
            let mut gen = FileTreeGen::new(cfg);
            let base = gen.initial();
            let trees = (0..clients).map(|_| gen.mutate(&base, MutationConfig::default()));
            let trees = trees.collect();
            (gen, trees, Vec::new())
        });
        while versions.len() <= version {
            if !versions.is_empty() {
                let next = |t: &Vec<FileSpec>| gen.mutate(t, MutationConfig::default());
                *latest = latest.iter().map(next).collect();
            }
            let trees = latest.iter().map(|t| Arc::new(Dataset::from_file_specs(t)));
            versions.push(trees.collect());
        }
        versions[version][client].clone()
    }
}

/// One public operation of [`DebarCluster`], as a value.
#[derive(Debug, Clone, PartialEq)]
pub enum Call {
    /// `define_job`: the cluster numbers jobs from `JobId(0)`.
    DefineJob(ClientId),
    Backup(JobId, Data),
    RunDedup2,
    ForceSiu,
    DeleteRun(RunId),
    ExpireRuns,
    RunGc,
    Scrub,
    RestoreRun(RunId),
    VerifyRun(RunId),
    RestoreFile(RunId, String),
    ScaleOut,
    ScaleUpIndexes,
    RecoverIndex(u16),
    NodeDown(usize),
    ReviveNode(usize),
    RepairNode(usize),
    SetDamage(ContainerId, Option<Damage>),
    /// Arm `kind` on `device`'s op `device_ops(device) + k`.
    Arm {
        device: Device,
        k: u64,
        kind: FaultKind,
    },
    /// `clear_fault_plans`.
    Clear,
}

/// What a call returned.
#[derive(Debug, Clone)]
pub enum Value {
    Job(JobId),
    Backup(Dedup1Report),
    Dedup2(Dedup2Report),
    Restore(RestoreReport),
    Expired(Vec<RunId>),
    Gc(GcReport),
    Scrub(ScrubReport),
    Repair(RepairReport),
    /// A forced SIU's per-server reports and the virtual seconds it took.
    Siu(Vec<SiuReport>, f64),
    /// The virtual seconds a rebuild or a scaling step charged.
    Secs(f64),
    Done,
}

/// One played call.
#[derive(Clone)]
pub struct Step {
    pub call: Call,
    pub result: DebarResult<Value>,
    /// Each device the call charged, with the indices of its ops.
    pub ops: Vec<(Device, Range<u64>)>,
    /// The repository's physical bytes after the call.
    pub physical: u64,
}

/// A played history.
#[derive(Clone, Default)]
pub struct Trace {
    pub steps: Vec<Step>,
}

/// Play `calls` on `c`.
pub fn play(c: &mut DebarCluster, calls: &[Call]) -> Trace {
    let mut trace = Trace::default();
    trace.play(c, calls);
    trace
}

impl Trace {
    /// Play `calls` on `c` after the steps so far; returns their steps.
    pub fn play(&mut self, c: &mut DebarCluster, calls: &[Call]) -> &[Step] {
        let from = self.steps.len();
        for call in calls {
            let before = device_ops(c);
            let result = apply(c, call);
            let touched = device_ops(c).into_iter().filter_map(|(d, to)| {
                let from = before.iter().find(|b| b.0 == d).map_or(0, |b| b.1);
                (to > from).then_some((d, from..to))
            });
            self.steps.push(Step {
                call: call.clone(),
                result,
                ops: touched.collect(),
                physical: c.repository().physical_data_bytes(),
            });
        }
        &self.steps[from..]
    }

    /// The history played.
    pub fn calls(&self) -> Vec<Call> {
        self.steps.iter().map(|s| s.call.clone()).collect()
    }

    /// Every error a call returned, in order.
    pub fn errors(&self) -> Vec<DebarError> {
        let errors = self.steps.iter().filter_map(|s| s.result.clone().err());
        errors.collect()
    }
}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "vec![")?;
        for s in &self.steps {
            match &s.result {
                Ok(_) => writeln!(f, "    {:?}, // Ok", s.call)?,
                Err(e) => writeln!(f, "    {:?}, // Err: {e}", s.call)?,
            }
        }
        write!(f, "]")
    }
}

/// Every device address of the live deployment with its op counter (an
/// address the geometry clamped away has none).
fn device_ops(c: &mut DebarCluster) -> Vec<(Device, u64)> {
    let (cfg, nodes) = (*c.config(), c.repository().node_count());
    let mut devices: Vec<Device> = (0..nodes).map(Device::RepoNode).collect();
    for server in 0..c.server_count() as u16 {
        let parts = 0..cfg.sweep_parts as u32;
        devices.extend(parts.map(|part| Device::IndexPart { server, part }));
        let workers = 0..cfg.store_workers as u32;
        devices.extend(workers.map(|worker| Device::LogWorker { server, worker }));
    }
    let ops = |d| Some((d, c.device_ops(d).ok()?));
    devices.into_iter().filter_map(ops).collect()
}

/// Run one call.
fn apply(c: &mut DebarCluster, call: &Call) -> DebarResult<Value> {
    let done = |()| Value::Done;
    Ok(match *call {
        Call::DefineJob(client) => Value::Job(c.define_job(format!("{client:?}"), client)),
        Call::Backup(job, ref data) => Value::Backup(c.backup(job, &data.dataset())?),
        Call::RunDedup2 => Value::Dedup2(c.run_dedup2()?),
        Call::ForceSiu => {
            let (reports, secs) = c.force_siu()?;
            Value::Siu(reports, secs)
        }
        Call::DeleteRun(run) => c.delete_run(run).map(done)?,
        Call::ExpireRuns => Value::Expired(c.expire_runs()),
        Call::RunGc => Value::Gc(c.run_gc()?),
        Call::Scrub => Value::Scrub(c.scrub()?.value),
        Call::RestoreRun(run) => Value::Restore(within_lanes(c.restore_run(run))?),
        Call::VerifyRun(run) => Value::Restore(within_lanes(c.verify_run(run))?),
        Call::RestoreFile(run, ref path) => {
            Value::Restore(within_lanes(c.restore_file(run, path))?)
        }
        Call::ScaleOut => Value::Secs(c.scale_out()?),
        Call::ScaleUpIndexes => Value::Secs(c.scale_up_indexes()?),
        Call::RecoverIndex(server) => Value::Secs(c.recover_index(server)?),
        Call::NodeDown(node) => c.set_repo_node_down(node).map(done)?,
        Call::ReviveNode(node) => c.revive_repo_node(node).map(done)?,
        Call::RepairNode(node) => Value::Repair(c.repair_repo_node(node)?),
        Call::SetDamage(cid, damage) => c.set_damage(cid, damage).map(done)?,
        Call::Arm { device, k, kind } => {
            let at_op = c.device_ops(device)? + k;
            let plan = FaultPlan::none().with(FaultSpec { at_op, kind });
            c.arm(device, plan).map(done)?
        }
        Call::Clear => {
            c.clear_fault_plans();
            Value::Done
        }
    })
}

/// `call` with `kind` armed `k` ops ahead on each of `devices`, then
/// every device disarmed.
pub fn fault(devices: &[Device], k: u64, kind: FaultKind, call: Call) -> Vec<Call> {
    let arms = devices.iter().map(|&device| Call::Arm { device, k, kind });
    arms.chain([call, Call::Clear]).collect()
}

/// `DefineJob` for `clients` clients, then a backup of each `(job, data)`.
pub fn backups(clients: u32, data: impl IntoIterator<Item = (u32, Data)>) -> Vec<Call> {
    let jobs = (0..clients).map(|c| Call::DefineJob(ClientId(c)));
    let runs = data
        .into_iter()
        .map(|(job, data)| Call::Backup(JobId(job), data));
    jobs.chain(runs).collect()
}

/// Version `version` of job `job`.
pub fn run(job: u32, version: u32) -> RunId {
    let job = JobId(job);
    RunId { job, version }
}

/// The device a fault names: a device fault's, a torn SIU's, or the node
/// of a lost or retry-exhausted repository read.
pub fn named_device(err: &DebarError) -> Option<Device> {
    match err {
        DebarError::InterruptedDedup2 { cause, .. } => named_device(cause),
        DebarError::DeviceFault { device, .. } | DebarError::PartialSiu { device, .. } => {
            Some(*device)
        }
        DebarError::Unrecoverable { node, .. } | DebarError::RetriesExhausted { node, .. } => {
            Some(Device::RepoNode(*node))
        }
        _ => None,
    }
}

/// Pass a restore result through, holding every successful walk to the
/// pipeline's bounds: it can finish no sooner than its busiest device
/// lane and no later than the serial sum of all of them
/// (`RestoreReport::serial_s`, what one clock would have charged).
pub fn within_lanes(result: DebarResult<RestoreReport>) -> DebarResult<RestoreReport> {
    if let Ok(r) = &result {
        let slack = 1e-9 * r.serial_s();
        let busiest = r.resolve_s.max(r.node_read_s).max(r.send_s);
        let within = busiest <= r.elapsed + slack && r.elapsed <= r.serial_s() + slack;
        assert!(within, "outside its lanes: {r:?}");
    }
    result
}

/// A deployment and the scenario's size: `clients` clients, each with its
/// own job and an evolving 8-file tree, over `versions` versions. Restore
/// bytes must be identical across `sweep_parts`, `store_workers` and
/// `replication`; `retention > 0` adds the deletion phase.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Diagnostics only.
    pub name: &'static str,
    pub cfg: DebarConfig,
    pub clients: usize,
    pub versions: usize,
}

impl Scenario {
    /// 3 clients × 3 versions on `DebarConfig::tiny_test(w_bits)` striped
    /// over `sweep_parts`, asynchronous SIU every 2 rounds.
    pub fn tiny(name: &'static str, w_bits: u32, sweep_parts: usize) -> Self {
        let mut cfg = DebarConfig::tiny_test(w_bits).with_sweep_parts(sweep_parts);
        cfg.siu_interval = 2;
        let (clients, versions) = (3, 3);
        Scenario {
            name,
            cfg,
            clients,
            versions,
        }
    }

    /// Builder: reshape the deployment, e.g.
    /// `.with_cfg(|c| c.with_replication(2).with_retention(1))`.
    pub fn with_cfg(mut self, reshape: impl FnOnce(DebarConfig) -> DebarConfig) -> Self {
        self.cfg = reshape(self.cfg);
        self
    }

    /// Builder: override the client count.
    pub fn with_clients(mut self, clients: usize) -> Self {
        self.clients = clients;
        self
    }

    /// Builder: override the version count.
    pub fn with_versions(mut self, versions: usize) -> Self {
        self.versions = versions;
        self
    }

    /// Every run, version by version, and whether the retention window
    /// expires it.
    fn runs(&self) -> impl Iterator<Item = (RunId, bool)> + '_ {
        let window = self.cfg.retention as usize;
        (0..self.versions).flat_map(move |v| {
            let expires = window > 0 && v + window < self.versions;
            (0..self.clients as u32).map(move |c| (run(c, v as u32), expires))
        })
    }

    /// The runs the verification walk visits.
    pub fn retained(&self) -> Vec<RunId> {
        self.runs().filter(|r| !r.1).map(|r| r.0).collect()
    }

    /// The workload as a history: every client's job; per version a
    /// backup of every client's tree and a dedup-2 (with `retention > 0`
    /// a collection before the final one, which the staged state must
    /// refuse); the forced SIU; with `retention > 0` expiry, a collection,
    /// a second that finds nothing and a refused restore of every expired
    /// run; then the verification walk: per retained run a verify, a full
    /// restore and the restore of one of its files.
    pub fn history(&self) -> Vec<Call> {
        let (clients, retention) = (self.clients, self.cfg.retention > 0);
        let tree = |client, version| Data::Tree {
            clients,
            client,
            version,
        };
        let mut h = backups(clients as u32, []);
        for v in 0..self.versions {
            h.extend(backups(0, (0..clients).map(|c| (c as u32, tree(c, v)))));
            if retention && v + 1 == self.versions {
                h.push(Call::RunGc);
            }
            h.push(Call::RunDedup2);
        }
        h.push(Call::ForceSiu);
        if retention {
            h.extend([Call::ExpireRuns, Call::RunGc, Call::RunGc]);
            let expired = self.runs().filter(|r| r.1);
            h.extend(expired.map(|r| Call::RestoreRun(r.0)));
        }
        for run in self.retained() {
            let v = run.version as usize;
            let ds = tree(run.job.0 as usize, v).dataset();
            let sample = ds.files[v % ds.files.len()].path.clone();
            let walk = [Call::VerifyRun(run), Call::RestoreRun(run)];
            h.extend(walk.into_iter().chain([Call::RestoreFile(run, sample)]));
        }
        h
    }
}

/// Where a suite splices calls into a [`Scenario::history`].
#[derive(Debug, Clone, Copy)]
pub enum At {
    FirstBackup,
    FinalDedup2,
    ForceSiu,
    /// The collection after expiry.
    Gc,
    /// The verification walk.
    Walk,
}

/// The index of `point` in `history`.
pub fn at(history: &[Call], point: At) -> usize {
    let first = |is: fn(&Call) -> bool| history.iter().position(is);
    let found = match point {
        At::FirstBackup => first(|c| matches!(c, Call::Backup(..))),
        At::FinalDedup2 => history.iter().rposition(|c| *c == Call::RunDedup2),
        At::ForceSiu => first(|c| *c == Call::ForceSiu),
        At::Gc => first(|c| *c == Call::ExpireRuns).map(|i| i + 1),
        At::Walk => first(|c| matches!(c, Call::VerifyRun(_))),
    };
    found.unwrap_or_else(|| panic!("no {point:?} in {history:?}"))
}

/// Insert `calls` into `history` before `point`.
pub fn splice(history: &mut Vec<Call>, point: At, calls: impl IntoIterator<Item = Call>) {
    let i = at(history, point);
    history.splice(i..i, calls);
}

/// Everything a scenario run produced, for cross-shape comparison.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// SHA-1 of every server's raw index-part bytes, in server order.
    pub index_digests: Vec<[u8; 20]>,
    pub index_entries: u64,
    /// Chunks and bytes written to containers across dedup-2 rounds.
    pub stored_chunks: u64,
    pub stored_bytes: u64,
    /// Logical bytes backed up across all runs.
    pub logical_bytes: u64,
    /// Bytes the last full restore of each run streamed back, and its
    /// chunk failures (must be 0).
    pub restored_bytes: u64,
    pub restore_failures: u64,
    /// Bytes the last single-file restore of each run returned.
    pub file_restore_bytes: u64,
    /// Chunk failures the last verify of each run counted (must be 0).
    pub verify_failures: u64,
    /// Partitions the PSIL sweeps engaged (max over rounds).
    pub sweep_parts_engaged: u32,
    /// Dead fingerprints the first completed collection found.
    pub gc_dead_fps: u64,
    /// The repository's physical-byte drop over every collection (so a
    /// faulted-then-redone collection sums to the clean total).
    pub gc_reclaimed: u64,
    /// Final physical bytes in the repository (all replicas).
    pub physical_bytes: u64,
    /// The replication factor: every container has exactly R copies.
    pub replication: usize,
    /// Repository I/O attempts beyond the first (transients absorbed).
    pub retried_ops: u64,
    /// Summed PSIL and PSIU wall time (virtual seconds) over the rounds,
    /// PSIU's with the forced SIU.
    pub sil_wall: f64,
    pub siu_wall: f64,
}

impl Outcome {
    /// Logical over stored bytes (∞-free: 0 when nothing stored).
    pub fn dedup_ratio(&self) -> f64 {
        if self.stored_bytes == 0 {
            return 0.0;
        }
        self.logical_bytes as f64 / self.stored_bytes as f64
    }
}

/// The sweep-partition counts the suites loop over: the scalar index and
/// stripes of 2 to 16 part-disks (the tiny geometry's 256 buckets per part
/// take all of them unclamped).
pub const SWEEP_PARTS: [usize; 5] = [1, 2, 4, 8, 16];

/// The store-worker counts the suites loop over.
pub const STORE_WORKERS: [usize; 3] = [1, 2, 4];

/// The replication factors the suites loop over: with R = 2 in every run,
/// node-loss survivability is proven by `cargo test` itself. No factor may
/// exceed the tiny deployment's two repository nodes.
pub const REPLICATION: [usize; 2] = [1, 2];

/// The retention windows the GC suites loop over: with the default
/// 3-version scenario they expire 2 and 1 generations per job.
pub const RETENTION: [u32; 2] = [1, 2];

/// Play `history` on a fresh deployment of `sc` and [`finish`] it.
pub fn run_history(sc: &Scenario, history: &[Call]) -> (Outcome, Trace) {
    let mut c = DebarCluster::new(sc.cfg);
    let trace = play(&mut c, history);
    (finish(sc, &mut c, &trace), trace)
}

/// Every fault-free outcome played so far, by deployment and history.
static TWINS: Mutex<BTreeMap<String, Outcome>> = Mutex::new(BTreeMap::new());

/// The outcome of `history`'s fault-free twin: the history without its
/// `Arm` and `Clear` calls and without each call an `Arm … Clear` bracket
/// faulted (the redo after it stays). Played once per (deployment,
/// history) per test binary.
pub fn twin(sc: &Scenario, history: &[Call]) -> Outcome {
    let armed = |i: usize| i > 0 && matches!(history[i - 1], Call::Arm { .. });
    let faulted = |i: usize| armed(i) && history.get(i + 1) == Some(&Call::Clear);
    let clean: Vec<Call> = (history.iter().enumerate())
        .filter(|&(i, c)| !faulted(i) && !matches!(c, Call::Arm { .. } | Call::Clear))
        .map(|(_, call)| call.clone())
        .collect();
    let key = format!("{:?} {clean:?}", sc.cfg);
    if let Some(out) = TWINS.lock().expect("twins").get(&key) {
        return out.clone();
    }
    let (out, _) = run_history(sc, &clean);
    TWINS.lock().expect("twins").insert(key, out.clone());
    out
}

/// The outcome of the scenario's plain history.
pub fn run_scenario(sc: &Scenario) -> Outcome {
    twin(sc, &sc.history())
}

/// What the API owes a history so far.
#[derive(Default)]
struct Model {
    /// Every backed-up run's dataset, and the runs expired or deleted.
    runs: BTreeMap<RunId, Arc<Dataset>>,
    retired: BTreeSet<RunId>,
    /// A backup waits for dedup-2.
    staged: bool,
    /// Devices armed since the last `Clear`, nodes down, containers damaged.
    armed: Vec<Device>,
    down: Vec<usize>,
    damaged: Vec<ContainerId>,
    /// A retirement no collection has completed since; a collection failed
    /// since the last retirement.
    owed: bool,
    gc_failed: bool,
}

impl Model {
    /// Whether `call` failing with `err` is what the history provoked: a
    /// fault naming an armed device, a read naming a down node or damaged
    /// container, a collection or scrub refusing staged state, a restore
    /// of a retired run.
    fn excuses(&self, call: &Call, err: &DebarError) -> bool {
        let gate = matches!(call, Call::RunGc | Call::Scrub);
        match err {
            _ if named_device(err).is_some_and(|d| self.armed.contains(&d)) => true,
            DebarError::Unrecoverable { node, .. } => self.down.contains(node),
            DebarError::CorruptContainer { container, .. } => self.damaged.contains(container),
            DebarError::NotQuiesced { .. } => self.staged && gate,
            DebarError::UnknownRun { run } => self.retired.contains(run),
            _ => false,
        }
    }

    /// The runs past the retention window that are not yet retired.
    fn due(&self, retention: u32) -> BTreeSet<RunId> {
        let newer = |r: &RunId| {
            self.runs
                .keys()
                .filter(|n| n.job == r.job && n > &r)
                .count()
        };
        let live = self.runs.keys().filter(|r| !self.retired.contains(r));
        let due = live.filter(|r| retention > 0 && newer(r) >= retention as usize);
        due.copied().collect()
    }
}

/// Hold a played trace to what the API owes, and collect its outcome.
///
/// Every call succeeds unless the model excuses its error
/// ([`Model::excuses`]); a collection while a backup waits for dedup-2
/// must refuse, and so must the restore of a retired run. Every restore
/// returns its run's bytes and files, expiry retires exactly the runs
/// past the retention window, a collection never grows the repository,
/// the first after a retirement finds dead fingerprints, one no failed
/// attempt preceded reclaims exactly `R ×` its dead chunk bytes, and one
/// right after another finds nothing. Multi-version restores hit the
/// LPC, and the history ends with a clean fsck.
pub fn finish(sc: &Scenario, c: &mut DebarCluster, trace: &Trace) -> Outcome {
    let cfg = *c.config();
    let (replication, mut m) = (cfg.replication, Model::default());
    let mut out = Outcome {
        replication,
        ..Outcome::default()
    };
    // The last walk of each kind (file, restore, verify) of each run.
    let mut walks: BTreeMap<(RunId, u8), RestoreReport> = BTreeMap::new();
    let (mut lpc_hits, mut later_versions, mut physical) = (0, false, 0);
    let mut ledger = SiuLedger {
        interval: cfg.siu_interval,
        pending: Some(0),
    };
    for (i, s) in trace.steps.iter().enumerate() {
        let tag = || format!("{}: step {i} of {trace:?}", sc.name);
        let (call, gc) = (&s.call, s.call == Call::RunGc);
        let refused = matches!(s.result, Err(DebarError::NotQuiesced { .. }));
        if m.staged && gc {
            assert!(refused, "{}: GC raced dedup-2", tag());
        }
        let err = s.result.as_ref().err();
        assert!(err.is_none_or(|e| m.excuses(call, e)), "{}", tag());
        ledger.step(s, tag);
        if gc {
            assert!(s.physical <= physical, "{}: GC grew", tag());
            out.gc_reclaimed += physical - s.physical;
            m.gc_failed |= err.is_some() && !refused;
        }
        match (call, &s.result) {
            (Call::RestoreRun(r) | Call::VerifyRun(r), res) if m.retired.contains(r) => {
                let unknown = matches!(res, Err(DebarError::UnknownRun { .. }));
                assert!(unknown, "{}: a retired run restored", tag());
            }
            (Call::Backup(_, data), Ok(Value::Backup(r))) => {
                m.runs.insert(r.run, data.dataset());
                m.staged = true;
                out.logical_bytes += r.logical_bytes;
            }
            (Call::RunDedup2, Ok(Value::Dedup2(d2))) => {
                m.staged = false;
                out.stored_chunks += d2.store.stored_chunks;
                out.stored_bytes += d2.store.stored_bytes;
                out.sweep_parts_engaged = out.sweep_parts_engaged.max(d2.sweep_parts);
                out.sil_wall += d2.sil_wall;
                out.siu_wall += d2.siu_wall;
            }
            (Call::ForceSiu, Ok(Value::Siu(_, siu_wall))) => out.siu_wall += siu_wall,
            (Call::ExpireRuns, Ok(Value::Expired(expired))) => {
                let due = m.due(cfg.retention);
                let got: BTreeSet<RunId> = expired.iter().copied().collect();
                assert_eq!(got, due, "{}: expiry missed the window", tag());
                (m.owed, m.gc_failed) = (m.owed || !due.is_empty(), false);
                m.retired.extend(due);
            }
            (Call::DeleteRun(run), Ok(_)) => {
                m.retired.insert(*run);
                (m.owed, m.gc_failed) = (true, false);
            }
            (Call::RunGc, Ok(Value::Gc(rep))) => {
                if std::mem::take(&mut m.owed) {
                    out.gc_dead_fps = rep.dead_fps;
                    assert!(rep.dead_fps > 0, "{}: nothing died", tag());
                }
                let again = i > 0 && matches!(trace.steps[i - 1].result, Ok(Value::Gc(_)));
                let work = (rep.dead_fps, rep.containers_deleted, rep.index_removed);
                assert!(!again || work == (0, 0, 0), "{}: found work", tag());
                let net = rep.net_physical_reclaimed();
                let exact = net == replication as u64 * rep.dead_chunk_bytes;
                let measured = net == physical - s.physical;
                assert!(m.gc_failed || exact && measured, "{}: inexact", tag());
            }
            (Call::RestoreRun(run) | Call::VerifyRun(run), Ok(Value::Restore(r)))
            | (Call::RestoreFile(run, _), Ok(Value::Restore(r))) => {
                let (kind, path) = match call {
                    Call::RestoreFile(_, path) => (0, Some(path)),
                    Call::RestoreRun(_) => (1, None),
                    _ => (2, None),
                };
                walks.insert((*run, kind), *r);
                let ds = &m.runs[run];
                let wanted = |f: &&FileEntry| path.is_none_or(|p| f.path == *p);
                let files: Vec<FileEntry> = ds.files.iter().filter(wanted).cloned().collect();
                let (count, bytes) = (files.len() as u64, Dataset { files }.logical_bytes());
                let restored = kind == 2 || (r.bytes, r.files) == (bytes, count);
                assert!(restored, "{}: restored {:?}", tag(), r.bytes);
                lpc_hits += r.lpc.hits;
                later_versions |= kind == 1 && run.version > 0;
            }
            (Call::Arm { device, .. }, _) => m.armed.push(*device),
            (Call::Clear, _) => m.armed.clear(),
            (Call::NodeDown(node), Ok(_)) => m.down.push(*node),
            (Call::ReviveNode(n) | Call::RepairNode(n), Ok(_)) => m.down.retain(|d| d != n),
            (Call::SetDamage(cid, Some(_)), Ok(_)) => m.damaged.push(*cid),
            (Call::SetDamage(cid, None), Ok(_)) => m.damaged.retain(|d| d != cid),
            _ => {}
        }
        physical = s.physical;
    }
    // The locality-preserving cache works across a multi-version history:
    // the SISL layout makes stream-local chunks hit after each fetch.
    assert!(!later_versions || lpc_hits > 0, "{}: no LPC hit", sc.name);
    for ((_, kind), r) in walks {
        match kind {
            0 => out.file_restore_bytes += r.bytes,
            1 => out.restored_bytes += r.bytes,
            _ => out.verify_failures += r.failures,
        }
        out.restore_failures += u64::from(kind == 1) * r.failures;
    }
    out.index_entries = c.index_entries();
    out.index_digests = index_digests(c);
    out.physical_bytes = c.repository().physical_data_bytes();
    out.retried_ops = c.repository().stats().retried_ops;
    // Whatever the history injected, it ends consistent: every retained
    // run resolves to containers with R clean copies listing its chunks.
    let fsck = c.fsck();
    assert!(fsck.is_clean(), "{}: {:?}", sc.name, fsck.discrepancies);
    assert!(fsck.fingerprints > 0, "{}: fsck checked nothing", sc.name);
    out
}

/// The SIU ledger of a played history: each SIU applies exactly the
/// updates stored since the one before it, counted as its reports'
/// inserts and overwrites. A round's own SIU (`siu_interval = 1`)
/// applies those and the round's, a riding SIU those pending at its PSIL
/// — the round's own wait for the next — and `force_siu` everything
/// pending; so over the history the SIUs' updates and those still
/// pending add up to the chunks stored. A failed round or forced SIU may
/// leave updates applied that no report counts: the ledger stops there.
struct SiuLedger {
    interval: u32,
    /// Updates stored since the last SIU; `None` once the ledger stopped.
    pending: Option<u64>,
}

impl SiuLedger {
    fn step(&mut self, s: &Step, tag: impl Fn() -> String) {
        let Some(pending) = self.pending else { return };
        let (got, due, left) = match (&s.call, &s.result) {
            (Call::RunDedup2 | Call::ForceSiu, Err(_)) => {
                self.pending = None;
                return;
            }
            (Call::RunDedup2, Ok(Value::Dedup2(d2))) => {
                let reported = applied(&d2.siu_reports);
                assert_eq!(reported, d2.siu_updates, "{}: SIU reports", tag());
                let stored = d2.store.stored_chunks;
                let (due, left) = match (d2.siu_ran, self.interval) {
                    (false, _) => (0, pending + stored),
                    (true, 1) => (pending + stored, 0),
                    (true, _) => (pending, stored),
                };
                (d2.siu_updates, due, left)
            }
            (Call::ForceSiu, Ok(Value::Siu(reports, _))) => (applied(reports), pending, 0),
            _ => return,
        };
        assert_eq!(got, due, "{}: SIU updates against chunks stored", tag());
        self.pending = Some(left);
    }
}

/// The updates SIU reports say they applied: inserts and overwrites.
fn applied<'a>(reports: impl IntoIterator<Item = &'a SiuReport>) -> u64 {
    reports.into_iter().map(|r| r.inserted + r.updated).sum()
}

/// SHA-1 of every server's raw index-part bytes, in server order.
fn index_digests(c: &DebarCluster) -> Vec<[u8; 20]> {
    let digest = |s| Sha1::digest(&c.server(s).index().raw_data());
    (0..c.server_count() as u16).map(digest).collect()
}

/// A loss no clean copy covers, walked: every run strictly restored,
/// then audited. The model lets through only the error naming the
/// culprit; at least one restore fails so, and the audit, whose walks
/// complete, counts failures.
pub fn walk_loss(c: &mut DebarCluster, trace: &mut Trace, runs: &[RunId], what: &str) {
    let restores = runs.iter().map(|&r| Call::RestoreRun(r));
    let audits = runs.iter().map(|&r| Call::VerifyRun(r));
    let steps = trace.play(c, &restores.chain(audits).collect::<Vec<_>>());
    let detected = steps.iter().any(|s| s.result.is_err());
    let audited = steps.iter().any(|s| match (&s.call, &s.result) {
        (Call::VerifyRun(_), Ok(Value::Restore(v))) => v.failures > 0,
        _ => false,
    });
    assert!(detected && audited, "{what}: {detected}, {audited}");
}

/// The scenario with repository node `node` down between its lifecycle
/// and the walk; fsck names exactly the copies the node holds back. At
/// `R >= 2` every run verifies and restores off the surviving copies,
/// counted as failover reads, and the repair re-replicates; at `R = 1`
/// the loss is typed ([`walk_loss`]), the repair refuses and a revive
/// brings the data back. Either way the walk runs on a healthy repository.
pub fn node_down(sc: &Scenario, node: usize) -> Outcome {
    let h = sc.history();
    let walk = at(&h, At::Walk);
    let mut c = DebarCluster::new(sc.cfg);
    let mut t = play(&mut c, &h[..walk]);
    t.play(&mut c, &[Call::NodeDown(node)]);
    let repo = c.repository();
    let held = repo.container_ids().into_iter();
    let behind = held.filter(|&cid| repo.replica_nodes(cid).contains(&node));
    let behind = behind.map(|container| Discrepancy::UnderReplicated { container, node });
    let behind: Vec<Discrepancy> = behind.collect();
    assert!(!behind.is_empty(), "{}: node {node} holds nothing", sc.name);
    assert_eq!(c.fsck().discrepancies, behind, "{}", sc.name);
    let runs = sc.retained();
    if sc.cfg.replication < 2 {
        walk_loss(&mut c, &mut t, &runs, "downed node");
        let steps = t.play(&mut c, &[Call::RepairNode(node), Call::ReviveNode(node)]);
        assert!(steps[0].result.is_err(), "{}: repaired", sc.name);
    } else {
        let walk = |&r| [Call::VerifyRun(r), Call::RestoreRun(r)];
        let walks = runs.iter().flat_map(walk).chain([Call::RepairNode(node)]);
        let walks: Vec<Call> = walks.collect();
        let (mut failover, mut recopied) = (0, 0);
        for s in t.play(&mut c, &walks) {
            match &s.result {
                Ok(Value::Restore(r)) if r.failures == 0 => failover += r.failover_reads,
                Ok(Value::Repair(rep)) => recopied = rep.recopied,
                _ => panic!("{}: {:?} failed degraded", sc.name, s.call),
            }
        }
        let healed = failover > 0 && recopied > 0;
        assert!(healed, "{}: {failover}, {recopied}", sc.name);
    }
    t.play(&mut c, &h[walk..]);
    finish(sc, &mut c, &t)
}

/// The scenario with every index part lost and rebuilt from the
/// repository before the walk: each rebuild is charged, and the entries
/// are the clean twin's.
pub fn recovered(sc: &Scenario) -> Outcome {
    let mut h = sc.history();
    let servers = 0..1 << sc.cfg.w_bits;
    splice(&mut h, At::Walk, servers.map(Call::RecoverIndex));
    let (out, trace) = run_history(sc, &h);
    let rebuild = |s: &&Step| matches!(s.call, Call::RecoverIndex(_));
    for s in trace.steps.iter().filter(rebuild) {
        let charged = matches!(s.result, Ok(Value::Secs(cost)) if cost > 0.0);
        assert!(charged, "{}: free recovery", sc.name);
    }
    let entries = run_scenario(sc).index_entries;
    assert_eq!(out.index_entries, entries, "{}", sc.name);
    out
}

/// One leg of a [`crash_sweep`], right after the swept call ran with
/// `kind` armed at one of `device`'s ops.
pub struct Leg<'a> {
    pub cluster: &'a mut DebarCluster,
    pub device: Device,
    pub kind: FaultKind,
    /// The call's result under the fault, and the clean call's.
    pub result: &'a DebarResult<Value>,
    pub clean: &'a Value,
    /// The leg's history so far.
    pub trace: &'a Trace,
}

/// What a swept call converges to once SIU has run: index bytes,
/// containers, physical bytes and the restore of every run backed up
/// (`None` once retired).
type State = (
    Vec<[u8; 20]>,
    Vec<ContainerId>,
    u64,
    Vec<Option<(u64, u64)>>,
);

fn converged(c: &mut DebarCluster, trace: &Trace) -> State {
    c.force_siu().expect("siu");
    let runs = trace.steps.iter().filter_map(|s| match &s.result {
        Ok(Value::Backup(r)) => Some(r.run),
        _ => None,
    });
    let walk = |run| c.restore_run(run).map(|r| (r.bytes, r.failures)).ok();
    let restored = runs.map(walk).collect();
    let (repo, digests) = (c.repository(), index_digests(c));
    let physical = repo.physical_data_bytes();
    (digests, repo.container_ids(), physical, restored)
}

/// Whether a call's result after a fault (or its redo's) reports what the
/// clean call did: a round's exchange and PSIL counts, its store, and the
/// updates each server's SIU applied — a round whose own PSIU tore
/// included — and a walk's chunks.
fn agrees(got: &Value, want: &Value) -> bool {
    match (got, want) {
        (Value::Dedup2(a), Value::Dedup2(b)) => {
            let per_server = |d: &Dedup2Report| {
                let each = d.siu_reports.iter().map(|r| applied([r]));
                (d.siu_updates, each.collect::<Vec<_>>())
            };
            let counts = |d: &Dedup2Report| {
                let verdicts = (d.submitted_fps, d.dup_registered, d.dup_pending);
                (verdicts, d.new_fps, d.sil_sweeps)
            };
            a.store == b.store && per_server(a) == per_server(b) && counts(a) == counts(b)
        }
        (Value::Restore(a), Value::Restore(b)) => {
            let walked = |r: &RestoreReport| (r.files, r.chunks, r.bytes, r.failures);
            walked(a) == walked(b)
        }
        _ => true,
    }
}

/// Every crash point of `call` after the history `fixture` on `cfg`.
///
/// Plays the fixture once and `call` clean on a clone of it; then, for
/// every op the clean call charged on each device and each of
/// `kinds(device)`, on another clone of the fixture, arms the fault at
/// that op, plays the call and hands the leg to `leg_check`. The call must succeed or fail naming the armed
/// device, and a failed call's redo must succeed; either way the leg
/// reports what the clean call did ([`agrees`]), reaches its state
/// ([`converged`]) and ends with a clean fsck. Returns the ops the clean
/// call charged on each device, and its result.
pub fn crash_sweep(
    cfg: DebarConfig,
    fixture: &[Call],
    call: Call,
    kinds: impl Fn(Device) -> Vec<FaultKind>,
    mut leg_check: impl FnMut(Leg<'_>),
) -> (Vec<(Device, u64)>, Value) {
    let mut played = DebarCluster::new(cfg);
    let fixture = play(&mut played, fixture);
    assert_eq!(fixture.errors(), [], "fixture {fixture:?}");
    let fresh = || (played.clone(), fixture.clone());
    let (mut clean, mut t) = fresh();
    let step = t.play(&mut clean, std::slice::from_ref(&call))[0].clone();
    let want = step.result.unwrap_or_else(|e| panic!("clean {t:?}: {e}"));
    let state = converged(&mut clean, &t);
    let count = |(d, r): &(Device, Range<u64>)| (*d, r.end - r.start);
    let touched: Vec<(Device, u64)> = step.ops.iter().map(count).collect();
    for &(device, ops) in &touched {
        let legs = kinds(device).into_iter();
        for (kind, k) in legs.flat_map(|f| (0..ops).map(move |k| (f, k))) {
            let (mut c, mut t) = fresh();
            let at = t.steps.len() + 1;
            t.play(&mut c, &fault(&[device], k, kind, call.clone()));
            let result = t.steps[at].result.clone();
            let named = result.as_ref().err().map(named_device);
            assert!(named.is_none_or(|d| d == Some(device)), "{t:?}");
            let (cluster, clean, trace) = (&mut c, &want, &t);
            leg_check(Leg {
                cluster,
                device,
                kind,
                result: &result,
                clean,
                trace,
            });
            let redo = |_| {
                t.play(&mut c, std::slice::from_ref(&call))[0]
                    .result
                    .clone()
            };
            let got = result.clone().or_else(redo).expect("redo");
            assert!(agrees(&got, &want), "{t:?}: {got:?} vs {want:?}");
            assert_eq!(converged(&mut c, &t), state, "{t:?}: not the clean twin");
            assert_eq!(c.fsck().discrepancies, [], "{t:?}");
        }
    }
    (touched, want)
}

/// Two runs of the *same* workload under different shapes are
/// equivalent: byte-identical index parts, identical dedup decisions and
/// restore results, physical and reclaimed bytes per replica. (Virtual
/// times may differ.)
pub fn assert_equivalent(base: &Outcome, other: &Outcome, label: &str) {
    let digests = (&base.index_digests, &other.index_digests);
    assert_eq!(digests.0, digests.1, "{label}: index parts");
    // Physical bytes (and bytes GC reclaimed) scale *exactly* with R.
    let per_replica = |o: &Outcome, r: &Outcome| {
        let r = r.replication as u64;
        (o.physical_bytes * r, o.gc_reclaimed * r, o.gc_dead_fps)
    };
    let (a, b) = (per_replica(base, other), per_replica(other, base));
    assert_eq!(a, b, "{label}: physical, reclaimed (per replica) and dead");
    assert_same_dedup(base, other, label);
}

/// The shape-independent half of [`assert_equivalent`]: the same restore
/// results — bytes run for run and file for file, cleanly, from the same
/// number of index entries — *and* the same dedup decisions, but index
/// layouts may differ (as across server counts).
pub fn assert_same_dedup(base: &Outcome, other: &Outcome, label: &str) {
    let same = |o: &Outcome| {
        let restores = (o.restored_bytes, o.file_restore_bytes, o.index_entries);
        (o.logical_bytes, restores, o.stored_chunks, o.stored_bytes)
    };
    assert_eq!(same(base), same(other), "{label}: dedup or restores");
    let failures = (other.restore_failures, other.verify_failures);
    assert_eq!(failures, (0, 0), "{label}: restore and verify failures");
}
