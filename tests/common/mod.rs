//! Parameterized scenario harness shared by the integration suites.
//!
//! One deterministic, multi-job / multi-client / multi-version
//! backup-and-restore scenario, driven by real bytes from
//! [`FileTreeGen`], runnable under any cluster shape: server count
//! (`w_bits`), striped sweep partitions (`sweep_parts`), pipelined
//! store workers (`store_workers`), SIU interval, optional index-loss
//! recovery. The same [`Scenario`] run under different `sweep_parts` or
//! `store_workers` must produce **byte-identical index state** (SHA-1
//! digests of every part's bucket array), identical dedup decisions,
//! and identical restore bytes — only virtual time may differ.
//! [`assert_equivalent`] pins exactly that, and [`SWEEP_PARTS`],
//! [`STORE_WORKERS`], [`REPLICATION`] and [`RETENTION`] are the one
//! matrix every suite loops over: what `cargo test` runs is every case.

// Each integration-test target compiles its own copy of this module and
// uses a different subset of it.
#![allow(dead_code)]

use debar::hash::Sha1;
use debar::workload::files::{FileSpec, FileTreeConfig, FileTreeGen, MutationConfig};
use debar::{
    ClientId, Damage, Dataset, DebarCluster, DebarConfig, DebarError, DebarResult, Dedup2Phase,
    Device, FaultPlan, JobId, RestoreReport, RunId,
};

/// The failure kind a scenario injects (beyond plain index loss).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    /// No injected failure.
    None,
    /// After all backups: wipe every index part and rebuild it from the
    /// chunk repository before verifying/restoring.
    RecoverIndexes,
    /// Bit-flip one container after all backups: the corruption must be
    /// *detected* — typed error on restore, counted by the verify audit,
    /// typed error on the recovery rebuild — then repaired, rebuilt and
    /// fully verified.
    CorruptContainer,
    /// Fail the final round's first container write: `run_dedup2` must
    /// surface `InterruptedDedup2` and a re-run must converge to the
    /// byte-identical state of a never-interrupted scenario.
    InterruptDedup2,
    /// Tear server 0's final SIU write sweep: `force_siu` must surface
    /// `PartialSiu` (half the batch durable) and a re-run must converge
    /// byte-identically.
    PartialSiu,
    /// Fail exactly **one part-disk** of server 0's striped PSIL sweep in
    /// the final round: `run_dedup2` must surface
    /// `InterruptedDedup2(Sil)` whose cause is a `DeviceFault` naming
    /// that `IndexPart`, and a re-run must converge byte-identically. The part
    /// index must be `< sweep_parts`.
    PartDiskFault {
        /// The part-disk to fault (partition index within the stripe).
        part: usize,
    },
    /// Fail a chunk-log append during the first backup run: the backup
    /// must surface `DebarError::DeviceFault` naming the assigned server's
    /// log volume (dedup-1 is fault-checked), a
    /// retried backup must succeed, and the scenario must converge
    /// byte-identically — the aborted run's stray log records carry no
    /// storage verdict and are discarded.
    ChunkLogFault,
    /// Fail exactly **one worker disk** of server 0's striped chunk-log
    /// drain in the final round's pipelined chunk-storing phase:
    /// `run_dedup2` must surface `InterruptedDedup2(ChunkStoring)` whose
    /// cause is a `DeviceFault` naming that `LogWorker`, the log must stay byte-for-byte intact for the replay, and a re-run
    /// must converge byte-identically. The worker index must be
    /// `< store_workers`.
    ChunkLogDrainFault {
        /// The worker disk to fault (index within the drain stripe).
        worker: usize,
    },
    /// Take **one repository node** down after all backups. At
    /// `replication >= 2` every run must still verify and restore
    /// byte-identically (degraded reads counted in
    /// `RestoreReport::failover_reads`), and `repair_repo_node` must
    /// restore full replication; at `replication = 1` the loss must
    /// surface a typed `Unrecoverable` error naming the node — never a
    /// panic or silent corruption — and a revive must restore the data.
    RepoNodeDown {
        /// The repository node to take down.
        node: usize,
    },
    /// Fail every server's index volume (part-disk 0) at the GC sweep
    /// (armed on the op right after compaction): `run_gc` must abort
    /// **before any index byte moves** with a `DeviceFault` naming an
    /// index volume, and the redo must
    /// converge byte-identically with an uninterrupted collection.
    /// Requires `retention > 0` and an expiring scenario (so the sweep
    /// has dead entries to engage).
    GcFault,
    /// Fail every repository node's next disk op at GC compaction: the
    /// first victim read/store aborts typed (`DeviceFault` on a
    /// `RepoNode` / `Unrecoverable`), no live chunk is lost, and the redo converges
    /// byte-identically. Requires `retention > 0` and an expiring
    /// scenario.
    CompactionFault,
    /// Fail exactly **one repository node's** disk at the final round's
    /// chunk storing: `run_dedup2` must surface
    /// `InterruptedDedup2(ChunkStoring)` whose cause is a `DeviceFault`
    /// naming that `RepoNode`, and a re-run must converge byte-identically.
    /// When round-robin placement would not route any of the final
    /// round's writes to the requested node (possible at low replication
    /// with few new containers), the harness redirects the fault onto the
    /// node taking the round's *first* container write, so the armed
    /// fault always fires.
    RepoNodeFault {
        /// The repository node to fault.
        node: usize,
    },
    /// Seeded **transient chaos**: ahead of every round's dedup-2 and
    /// ahead of the verification walk, arm a deterministic schedule of
    /// `FaultKind::Transient` faults across every repository node, each
    /// with a failure budget strictly inside the scenario's retry policy.
    /// The whole scenario must complete with *zero* surfaced errors (the
    /// retry layer absorbs every fault), at least one retry must actually
    /// happen, and the outcome must be byte-identical to a fault-free,
    /// retry-free run of the same workload. Requires
    /// `retry.max_attempts >= 2`.
    TransientChaos {
        /// Schedule seed (same seed = same schedule, bit-for-bit).
        seed: u64,
    },
}

/// A parameterized end-to-end scenario: a deployment and the workload and
/// failure driven through it.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Name prefix for jobs (diagnostics only).
    pub name: &'static str,
    /// The deployment. [`Scenario::tiny`] builds the default; a suite moves
    /// an axis with `DebarConfig`'s own builders ([`Scenario::with_cfg`]).
    /// What the harness makes of the axes: restore bytes must be identical
    /// across `sweep_parts`, `store_workers` and `replication` for the
    /// same workload; `retention > 0` adds the
    /// deletion phase — after all backups every run but the newest
    /// `retention` versions per job is expired and garbage-collected
    /// (reclaim exactness asserted), its restore must fail with the typed
    /// `UnknownRun`, and the retained runs must still restore
    /// byte-identically; `retry` lets the chaos suite prove outcomes
    /// byte-identical to a fault-free, retry-free run.
    pub cfg: DebarConfig,
    /// Clients, each with its own job and evolving file tree.
    pub clients: usize,
    /// Backup versions per client (dedup-2 after each version round).
    pub versions: usize,
    /// Files per client tree.
    pub files: usize,
    /// Workload seed (trees are identical across cluster shapes for the
    /// same seed, which is what makes outcomes comparable).
    pub seed: u64,
    /// The injected failure kind.
    pub failure: Failure,
}

impl Scenario {
    /// The default tiny-geometry scenario: 3 clients × 3 versions of an
    /// 8-file tree on `DebarConfig::tiny_test(w_bits)` striped over
    /// `sweep_parts`, asynchronous SIU every 2 rounds.
    pub fn tiny(name: &'static str, w_bits: u32, sweep_parts: usize) -> Self {
        Scenario {
            name,
            cfg: DebarConfig {
                siu_interval: 2,
                ..DebarConfig::tiny_test(w_bits).with_sweep_parts(sweep_parts)
            },
            clients: 3,
            versions: 3,
            files: 8,
            seed: 0x5CE0_A710,
            failure: Failure::None,
        }
    }

    /// Builder: reshape the deployment, e.g.
    /// `.with_cfg(|c| c.with_replication(2).with_retention(1))`.
    pub fn with_cfg(mut self, reshape: impl FnOnce(DebarConfig) -> DebarConfig) -> Self {
        self.cfg = reshape(self.cfg);
        self
    }

    /// Builder: inject an explicit failure kind.
    pub fn with_failure(mut self, failure: Failure) -> Self {
        self.failure = failure;
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

    /// A failure kind's target must exist in this deployment.
    fn require_within(&self, what: &str, i: usize, n: usize) {
        assert!(
            i < n,
            "{}: faulted {what} {i} is out of range: the deployment has {n}",
            self.name
        );
    }
}

/// One backed-up run the harness will verify and restore.
struct LedgerEntry {
    job: JobId,
    version: u32,
    logical_bytes: u64,
    files: u64,
    /// One file of this run for the partial-restore check.
    sample_path: String,
    sample_bytes: u64,
}

impl LedgerEntry {
    fn run(&self) -> RunId {
        RunId {
            job: self.job,
            version: self.version,
        }
    }
}

/// Everything a scenario run produced, for cross-shape comparison.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// SHA-1 of every server's raw index-part bytes, in server order.
    pub index_digests: Vec<[u8; 20]>,
    /// Total index entries across parts.
    pub index_entries: u64,
    /// Chunks written to containers across all dedup-2 rounds.
    pub stored_chunks: u64,
    /// Bytes written to containers.
    pub stored_bytes: u64,
    /// Logical bytes backed up across all runs.
    pub logical_bytes: u64,
    /// Bytes streamed back by full-run restores (must equal
    /// `logical_bytes`).
    pub restored_bytes: u64,
    /// Bytes returned by the per-run single-file restores.
    pub file_restore_bytes: u64,
    /// Restore chunk failures (must be 0).
    pub restore_failures: u64,
    /// Verify-job chunk failures (must be 0).
    pub verify_failures: u64,
    /// Partitions the PSIL sweeps engaged (max over rounds).
    pub sweep_parts_engaged: u32,
    /// Dead fingerprints the GC phase found (0 when `retention == 0`).
    pub gc_dead_fps: u64,
    /// Net physical bytes the GC phase reclaimed, measured as the
    /// repository's physical-byte delta (monotone across attempts, so a
    /// faulted-then-redone collection sums to the clean total).
    pub gc_reclaimed: u64,
    /// Final physical bytes in the repository (all replicas).
    pub physical_bytes: u64,
    /// The scenario's replication factor (for normalizing physical-byte
    /// comparisons across replication legs, where every container has
    /// exactly R copies).
    pub replication: usize,
    /// Repository I/O attempts beyond the first (transient faults
    /// absorbed by the retry policy); 0 under the fail-fast default.
    pub retried_ops: u64,
    /// Summed PSIL wall time (virtual seconds) over dedup-2 rounds.
    pub sil_wall: f64,
    /// Summed PSIU wall time over dedup-2 rounds.
    pub siu_wall: f64,
    /// Summed total dedup-2 wall time.
    pub dedup2_wall: f64,
}

impl Outcome {
    /// Logical over stored bytes (∞-free: 0 when nothing stored).
    pub fn dedup_ratio(&self) -> f64 {
        if self.stored_bytes == 0 {
            0.0
        } else {
            self.logical_bytes as f64 / self.stored_bytes as f64
        }
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

/// One step of the chaos schedule's LCG (PCG-style multiplier; the high
/// bits are well mixed).
fn chaos_step(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// Arm `device` with `plan(op index k ops from now)`.
pub fn arm_in(
    cluster: &mut DebarCluster,
    device: Device,
    k: u64,
    plan: impl FnOnce(u64) -> FaultPlan,
) {
    let at = cluster.device_ops(device).expect("device in range") + k;
    cluster.arm(device, plan(at)).expect("device in range");
}

/// The operation a fault leg aborts, and so the shape of its error.
enum Faulted<'a> {
    /// A backup: dedup-1 is fault-checked and reports the bare fault.
    Backup(JobId, &'a Dataset),
    /// A dedup-2 round, which must report itself interrupted in this phase.
    Dedup2(Dedup2Phase),
    /// A collection, which reports the bare fault — or, having lost every
    /// copy of a victim to armed repository nodes, `Unrecoverable`.
    Gc,
}

const PSIL: Faulted = Faulted::Dedup2(Dedup2Phase::Sil);
const STORING: Faulted = Faulted::Dedup2(Dedup2Phase::ChunkStoring);

/// One fault leg: arm every device of `armed` to fail `k` ops from now, run
/// `op`, and require it to fail as its kind reports a fault, with a cause
/// naming an armed device. Disarms, and returns the error for the leg's own
/// checks.
fn faulted(
    cluster: &mut DebarCluster,
    sc: &Scenario,
    armed: &[Device],
    k: u64,
    op: Faulted,
) -> DebarError {
    for &device in armed {
        arm_in(cluster, device, k, FaultPlan::fail_at);
    }
    let err = match op {
        Faulted::Backup(job, ds) => cluster.backup(job, ds).map(drop),
        Faulted::Dedup2(_) => cluster.run_dedup2().map(drop),
        Faulted::Gc => cluster.run_gc().map(drop),
    }
    .expect_err("an armed fault must abort the operation");
    let cause = match (&err, &op) {
        (DebarError::InterruptedDedup2 { phase, cause, .. }, Faulted::Dedup2(p)) if phase == p => {
            cause
        }
        (_, Faulted::Dedup2(phase)) => panic!(
            "{}: expected InterruptedDedup2({phase:?}), got {err}",
            sc.name
        ),
        (err, _) => err,
    };
    let named = match cause {
        DebarError::DeviceFault { device, .. } => armed.contains(device),
        DebarError::Unrecoverable { node, .. } => {
            matches!(op, Faulted::Gc) && armed.contains(&Device::RepoNode(*node))
        }
        _ => false,
    };
    assert!(
        named,
        "{}: the cause must name an armed device ({armed:?}), got {cause}",
        sc.name
    );
    cluster.clear_fault_plans();
    err
}

/// Every repository node, as fault-leg devices.
fn repo_nodes(cluster: &DebarCluster) -> Vec<Device> {
    (0..cluster.repository().node_count())
        .map(Device::RepoNode)
        .collect()
}

/// Arm one seeded round of transient chaos: every repository node gets a
/// `Transient` fault at a near-future op with a failure budget strictly
/// inside the retry policy's `max_attempts`, so a retrying caller must
/// absorb it. Deterministic in (seed, round, node).
fn arm_transient_chaos(cluster: &mut DebarCluster, sc: &Scenario, seed: u64, round: u64) {
    assert!(
        sc.cfg.retry.max_attempts >= 2,
        "{}: transient chaos needs a retrying policy (max_attempts >= 2)",
        sc.name
    );
    for node in 0..cluster.repository().node_count() {
        let mut rng = seed
            ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (node as u64).wrapping_mul(0xD1B5_4A32_D192_ED03);
        let budget = (sc.cfg.retry.max_attempts - 1).max(1) as u64;
        let fails_for = 1 + (chaos_step(&mut rng) % budget) as u32;
        let k = chaos_step(&mut rng) % 3;
        arm_in(cluster, Device::RepoNode(node), k, |at| {
            FaultPlan::transient_at(at, fails_for)
        });
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
        assert!(
            busiest <= r.elapsed + slack && r.elapsed <= r.serial_s() + slack,
            "restore of {:?} outside its lanes: busiest {busiest} <= elapsed {} <= serial {} \
             (resolve {}, node {} of {}, send {})",
            r.run,
            r.elapsed,
            r.serial_s(),
            r.resolve_s,
            r.node_read_s,
            r.node_read_total_s,
            r.send_s
        );
    }
    result
}

/// A loss (`what`) no clean copy covers must be *typed*, never a panic or
/// silent corruption. Strictly restored, every run of the ledger restores or
/// fails with the error `lost` accepts — the one naming the culprit; anything
/// else is a panic — and at least one fails; the verify audit, whose walks
/// complete, counts failures too.
fn assert_loss_typed(
    cluster: &mut DebarCluster,
    sc: &Scenario,
    ledger: &[LedgerEntry],
    what: &str,
    lost: impl Fn(&DebarError) -> bool,
) {
    let mut detected = 0u64;
    for entry in ledger {
        match within_lanes(cluster.restore_run(entry.run())) {
            Ok(_) => {}
            Err(e) if lost(&e) => detected += 1,
            Err(e) => panic!("{}: unexpected restore error {e}", sc.name),
        }
    }
    let audit = |e: &LedgerEntry| within_lanes(cluster.verify_run(e.run())).expect("audit walks");
    let audit_failures: u64 = ledger.iter().map(audit).map(|v| v.failures).sum();
    assert!(detected > 0, "{}: no restore touched the {what}", sc.name);
    assert!(audit_failures > 0, "{}: audit missed the {what}", sc.name);
}

/// Drive one scenario end to end and collect its [`Outcome`].
///
/// Workload: every client's tree derives from one shared base tree (pool
/// duplication + cross-client duplication), evolving by edits,
/// insertions, deletes and creates between versions; each version round
/// ends with a dedup-2, the whole scenario with a forced SIU. Every run
/// is then verified (integrity walk), fully restored (byte counts
/// asserted against the ledger) and partially restored (one sample file,
/// byte count asserted).
pub fn run_scenario(sc: &Scenario) -> Outcome {
    let mut cluster = DebarCluster::new(sc.cfg);
    let jobs: Vec<JobId> = (0..sc.clients)
        .map(|i| cluster.define_job(format!("{}-c{i}", sc.name), ClientId(i as u32)))
        .collect();

    let mut gen = FileTreeGen::new(FileTreeConfig {
        files: sc.files,
        seed: sc.seed,
        ..FileTreeConfig::default()
    });
    let base = gen.initial();
    // Per-client trees share most blocks with the base (and, through the
    // block pool, with each other).
    let mut trees: Vec<Vec<FileSpec>> = (0..sc.clients)
        .map(|_| gen.mutate(&base, MutationConfig::default()))
        .collect();

    let mut ledger: Vec<LedgerEntry> = Vec::new();
    let mut out = Outcome {
        replication: sc.cfg.replication,
        ..Outcome::default()
    };

    for version in 0..sc.versions {
        for (ci, &job) in jobs.iter().enumerate() {
            if version > 0 {
                trees[ci] = gen.mutate(&trees[ci], MutationConfig::default());
            }
            let tree = &trees[ci];
            let ds = Dataset::from_file_specs(tree);
            let logical = ds.logical_bytes();
            let sample = &tree[version % tree.len()];
            if sc.failure == Failure::ChunkLogFault && version == 0 && ci == 0 {
                // Fail an early chunk-log append of the first run. The
                // director's server assignment is deterministic but not
                // known here, so arm every server's log volume; only the
                // assigned one can fire.
                let volumes: Vec<Device> = (0..cluster.server_count() as u16)
                    .map(|server| Device::LogWorker { server, worker: 0 })
                    .collect();
                faulted(&mut cluster, sc, &volumes, 2, Faulted::Backup(job, &ds));
                // The retried run below converges; the aborted run's
                // stray log records are discarded at chunk storing.
            }
            cluster.backup(job, &ds).expect("backup");
            out.logical_bytes += logical;
            ledger.push(LedgerEntry {
                job,
                version: version as u32,
                logical_bytes: logical,
                files: tree.len() as u64,
                sample_path: sample.path.clone(),
                sample_bytes: sample.data.len() as u64,
            });
        }
        // The dedup-2 fault legs all hit the final round; each resumed
        // round converges (compared byte-for-byte against the
        // Failure::None scenario by the failure_kinds suite).
        let final_round = version == sc.versions - 1;
        match sc.failure {
            Failure::PartDiskFault { part } if final_round => {
                sc.require_within("sweep part", part, sc.cfg.sweep_parts);
                // Fail exactly one part-disk of server 0's striped PSIL.
                let armed = Device::IndexPart {
                    server: 0,
                    part: part as u32,
                };
                let err = faulted(&mut cluster, sc, &[armed], 0, PSIL);
                assert!(
                    matches!(err, DebarError::InterruptedDedup2 { server: 0, .. }),
                    "{}: expected PSIL interrupted on server 0, got {err}",
                    sc.name
                );
            }
            Failure::ChunkLogDrainFault { worker } if final_round => {
                sc.require_within("store worker", worker, sc.cfg.store_workers);
                // Fail exactly one worker disk of server 0's striped
                // chunk-log drain, mid-pipeline.
                let log_before = cluster.server(0).log_bytes();
                let armed = Device::LogWorker {
                    server: 0,
                    worker: worker as u32,
                };
                faulted(&mut cluster, sc, &[armed], 0, STORING);
                assert_eq!(
                    cluster.server(0).log_bytes(),
                    log_before,
                    "{}: drain fault must leave the log byte-for-byte intact",
                    sc.name
                );
                if sc.cfg.w_bits == 0 {
                    assert!(
                        log_before > 0,
                        "{}: the single-server leg must have records to replay",
                        sc.name
                    );
                }
            }
            Failure::RepoNodeFault { node } if final_round => {
                let nodes = cluster.repository().node_count();
                sc.require_within("repository node", node, nodes);
                // Fail exactly one repository node's next container
                // write. The round's first new container gets the next
                // sequential ID (= logical containers stored so far), and
                // its replica ring covers `replication` nodes from
                // `id % nodes` — redirect onto that ring if round-robin
                // would miss the requested node entirely.
                let first = (cluster.repository().stats().containers % nodes as u64) as usize;
                let armed = if (node + nodes - first) % nodes < sc.cfg.replication {
                    Device::RepoNode(node)
                } else {
                    Device::RepoNode(first)
                };
                faulted(&mut cluster, sc, &[armed], 0, STORING);
            }
            Failure::InterruptDedup2 if final_round => {
                // Crash the final round's chunk storing: whichever
                // repository node takes the round's first container write
                // fails it.
                let nodes = repo_nodes(&cluster);
                faulted(&mut cluster, sc, &nodes, 0, STORING);
            }
            _ => {}
        }
        if sc.cfg.retention > 0 && final_round {
            // With staged dedup-2 state a chunk's liveness is undecidable:
            // GC must refuse to race the in-flight backup, typed.
            let err = cluster
                .run_gc()
                .expect_err("GC must refuse to race staged dedup-2 state");
            assert!(
                matches!(err, DebarError::NotQuiesced { .. }),
                "{}: expected NotQuiesced, got {err}",
                sc.name
            );
        }
        if let Failure::TransientChaos { seed } = sc.failure {
            // Every armed fault is transient and within the retry budget:
            // the round must complete as if nothing happened.
            arm_transient_chaos(&mut cluster, sc, seed, version as u64);
        }
        let d2 = cluster.run_dedup2().expect("dedup2");
        out.stored_chunks += d2.store.stored_chunks;
        out.stored_bytes += d2.store.stored_bytes;
        out.sweep_parts_engaged = out.sweep_parts_engaged.max(d2.sweep_parts);
        out.sil_wall += d2.sil_wall;
        out.siu_wall += d2.siu_wall;
        out.dedup2_wall += d2.total_wall();
    }
    if sc.failure == Failure::PartialSiu {
        // Tear server 0's final SIU write sweep (the asynchronous-SIU
        // schedule must leave it pending work: versions and siu_interval
        // are chosen so the last round deferred its PSIU).
        let volume = Device::IndexPart { server: 0, part: 0 };
        arm_in(&mut cluster, volume, 1, FaultPlan::torn_write_at);
        let err = cluster
            .force_siu()
            .expect_err("injected torn write must interrupt the SIU");
        let DebarError::PartialSiu {
            device,
            applied,
            total,
            ..
        } = err
        else {
            panic!("{}: expected PartialSiu, got {err}", sc.name);
        };
        assert_eq!(
            device, volume,
            "{}: PartialSiu names the torn disk",
            sc.name
        );
        assert!(
            total >= 2,
            "{}: scenario must leave server 0 pending SIU work",
            sc.name
        );
        assert_eq!(applied, total / 2, "{}: torn prefix", sc.name);
        cluster.clear_fault_plans();
        // The redo below re-applies the whole batch idempotently.
    }
    let (_, siu_wall) = cluster.force_siu().expect("siu");
    out.siu_wall += siu_wall;
    out.dedup2_wall += siu_wall;

    if sc.cfg.retention > 0 {
        // ---- Deletion lifecycle: expire, (optionally crash the) GC,
        // assert reclaim exactness, prune the ledger to retained runs.
        let expired = cluster.expire_runs();
        let expected_expired = (sc.versions as u32).saturating_sub(sc.cfg.retention) as usize;
        assert_eq!(
            expired.len(),
            expected_expired * sc.clients,
            "{}: expiry must retire exactly the pre-window generations",
            sc.name
        );
        for run in &expired {
            assert!(
                (run.version as usize) + (sc.cfg.retention as usize) < sc.versions,
                "{}: {run:?} expired inside the retention window",
                sc.name
            );
        }
        let phys_before = cluster.repository().physical_data_bytes();
        let gc_was_faulted = match sc.failure {
            Failure::GcFault => {
                // Arm every server's index volume on its *next* op:
                // compaction touches no index disk, so the first armed op
                // is the GC sweep's striped read charge.
                let volumes: Vec<Device> = (0..cluster.server_count() as u16)
                    .map(|server| Device::IndexPart { server, part: 0 })
                    .collect();
                faulted(&mut cluster, sc, &volumes, 0, Faulted::Gc);
                true
            }
            Failure::CompactionFault => {
                // Arm every repository node: whichever node takes GC's
                // first victim read (or compaction store) faults it — or
                // all of a victim's holders do, and it is unrecoverable.
                let nodes = repo_nodes(&cluster);
                faulted(&mut cluster, sc, &nodes, 0, Faulted::Gc);
                true
            }
            _ => false,
        };
        // Reclaimed bytes are monotone: an aborted attempt never grows
        // the repository.
        let phys_mid = cluster.repository().physical_data_bytes();
        assert!(
            phys_mid <= phys_before,
            "{}: a faulted GC attempt grew the repository",
            sc.name
        );
        let rep = cluster.run_gc().expect("gc");
        let phys_after = cluster.repository().physical_data_bytes();
        assert!(
            phys_after <= phys_mid,
            "{}: GC grew the repository",
            sc.name
        );
        out.gc_reclaimed = phys_before - phys_after;
        out.gc_dead_fps = rep.dead_fps;
        if expected_expired > 0 {
            assert!(
                rep.dead_fps > 0 && out.gc_reclaimed > 0,
                "{}: expiring {expected_expired} generations must reclaim something",
                sc.name
            );
        }
        if !gc_was_faulted {
            // Reclaim exactness: the net physical delta is exactly the
            // dead chunk bytes on every replica. (After a faulted attempt
            // the redo's report covers only the remaining work, so the
            // exactness claim is pinned by byte-identical convergence
            // with the clean leg instead.)
            assert_eq!(
                rep.net_physical_reclaimed(),
                sc.cfg.replication as u64 * rep.dead_chunk_bytes,
                "{}: GC must reclaim replication x dead bytes exactly",
                sc.name
            );
            assert_eq!(
                out.gc_reclaimed,
                rep.net_physical_reclaimed(),
                "{}: physical delta must match the GC report",
                sc.name
            );
        }
        // A second collection right away is a no-op: nothing dead left.
        let rep2 = cluster.run_gc().expect("idempotent gc");
        assert_eq!(
            (rep2.dead_fps, rep2.containers_deleted, rep2.index_removed),
            (0, 0, 0),
            "{}: immediate re-collection must find nothing",
            sc.name
        );
        // Expired runs are gone, typed; retained runs stay in the ledger
        // for the byte-identical verification walk below.
        for run in &expired {
            let err = within_lanes(cluster.restore_run(*run))
                .expect_err("an expired run must not restore");
            assert!(
                matches!(err, DebarError::UnknownRun { .. }),
                "{}: expected UnknownRun for expired {run:?}, got {err}",
                sc.name
            );
        }
        ledger.retain(|e| (e.version as usize) + (sc.cfg.retention as usize) >= sc.versions);
        assert!(
            !ledger.is_empty(),
            "{}: retention must keep the newest generations",
            sc.name
        );
    }

    if let Failure::RepoNodeDown { node } = sc.failure {
        let nodes = cluster.repository().node_count();
        sc.require_within("repository node", node, nodes);
        cluster.set_repo_node_down(node).expect("node in range");
        if sc.cfg.replication >= 2 {
            // Degraded but survivable: every run verifies and restores
            // byte-identically off the surviving replicas, and the
            // degraded reads are surfaced in the restore reports.
            let mut failover = 0u64;
            for entry in &ledger {
                let run = entry.run();
                let v = within_lanes(cluster.verify_run(run)).expect("degraded verify walks");
                assert_eq!(
                    v.failures, 0,
                    "{}: replicas must absorb the node loss",
                    sc.name
                );
                let r = within_lanes(cluster.restore_run(run)).expect("degraded restore");
                assert_eq!(
                    r.bytes, entry.logical_bytes,
                    "{}: degraded restore of {run:?} diverged",
                    sc.name
                );
                // The verify walk warms the LPC, so the repository
                // fetches (and their failovers) may land on either
                // report — count both.
                failover += v.failover_reads + r.failover_reads;
            }
            assert!(
                failover > 0,
                "{}: node {node} down must surface degraded reads",
                sc.name
            );
            // Repair treats the downed node as a replaced disk:
            // re-populated from surviving replicas, fully replicated again.
            let rep = cluster.repair_repo_node(node).expect("repair");
            assert!(rep.recopied > 0, "{}: nothing re-replicated", sc.name);
            assert!(
                cluster.repository().under_replicated().is_empty(),
                "{}: repair must restore full replication",
                sc.name
            );
            assert!(!cluster.repository().is_node_down(node).expect("in range"));
        } else {
            // No replicas: the loss must be *typed*, never a panic or
            // silent corruption — and a revive restores the data.
            assert_loss_typed(
                &mut cluster,
                sc,
                &ledger,
                "downed node",
                |e| matches!(e, DebarError::Unrecoverable { node: n, .. } if *n == node),
            );
            // Repair refuses — there is nothing to copy from — and the
            // refusal changes nothing.
            let err = cluster
                .repair_repo_node(node)
                .expect_err("sole copies cannot be repaired");
            assert!(
                matches!(err, DebarError::Unrecoverable { .. }),
                "{}: expected Unrecoverable from repair, got {err}",
                sc.name
            );
            cluster.revive_repo_node(node).expect("node in range");
        }
        // Fall through to the full verification walk below: the
        // repository is healthy again either way.
    }

    if sc.failure == Failure::CorruptContainer {
        // Bit-rot one container, deterministically chosen.
        let cids = cluster.repository().container_ids();
        let target = cids[cids.len() / 2];
        cluster
            .set_damage(target, Some(Damage::BitFlip))
            .expect("container exists");
        // Detected on restore and by the verify audit, naming the container.
        assert_loss_typed(
            &mut cluster,
            sc,
            &ledger,
            "corrupt container",
            |e| matches!(e, DebarError::CorruptContainer { container, .. } if *container == target),
        );
        // Detected on the §4.1 recovery rebuild: the repository scan
        // refuses to rebuild an index from a corrupt container.
        let err = cluster
            .recover_index(0)
            .expect_err("recovery rebuild must detect corruption");
        assert!(
            matches!(&err, DebarError::CorruptContainer { container, .. } if *container == target),
            "{}: expected CorruptContainer from rebuild, got {err}",
            sc.name
        );
        // Repair (admin restores the container from a replica), then
        // rebuild every part and fall through to the full verification
        // walk below.
        cluster.set_damage(target, None).expect("container exists");
        for s in 0..cluster.server_count() as u16 {
            cluster.recover_index(s).expect("rebuild after repair");
        }
    }

    if sc.failure == Failure::RecoverIndexes {
        // Lose every index part, then rebuild each from the repository.
        let entries_before = cluster.index_entries();
        for s in 0..cluster.server_count() as u16 {
            let cost = cluster.recover_index(s).expect("recover");
            assert!(cost > 0.0, "{}: free index recovery", sc.name);
        }
        assert_eq!(
            cluster.index_entries(),
            entries_before,
            "{}: recovery changed the entry count",
            sc.name
        );
    }

    if let Failure::TransientChaos { seed } = sc.failure {
        // Read-side chaos: the verification walk below must absorb a
        // fresh transient schedule too (reads retry every fault kind).
        arm_transient_chaos(&mut cluster, sc, seed, 0xFEED_FACE);
    }

    let mut lpc_hits = 0u64;
    let mut lpc_lookups = 0u64;
    for entry in &ledger {
        let run = entry.run();
        let v = within_lanes(cluster.verify_run(run)).expect("verify");
        out.verify_failures += v.failures;
        let r = within_lanes(cluster.restore_run(run)).expect("restore");
        out.restore_failures += r.failures;
        out.restored_bytes += r.bytes;
        lpc_hits += r.lpc.hits;
        lpc_lookups += r.lpc.hits + r.lpc.misses;
        assert_eq!(
            r.bytes, entry.logical_bytes,
            "{}: run {run:?} restored byte count diverged from its backup",
            sc.name
        );
        assert_eq!(r.files, entry.files, "{}: run {run:?} file count", sc.name);
        let f = within_lanes(cluster.restore_file(run, &entry.sample_path)).expect("restore-file");
        assert_eq!(
            f.bytes, entry.sample_bytes,
            "{}: partial restore of {} diverged",
            sc.name, entry.sample_path
        );
        out.file_restore_bytes += f.bytes;
    }

    // The locality-preserving cache must actually work across a
    // multi-version history: the SISL layout makes stream-local chunks
    // hit after each container fetch, and the per-restore `RestoreReport`
    // surfaces the cache's own counters.
    if sc.versions > 1 {
        assert!(
            lpc_hits > 0 && lpc_lookups > 0,
            "{}: multi-version restores must hit the LPC ({lpc_hits}/{lpc_lookups})",
            sc.name
        );
    }

    out.index_entries = cluster.index_entries();
    out.index_digests = (0..cluster.server_count() as u16)
        .map(|s| Sha1::digest(cluster.server(s).index().raw_data()))
        .collect();
    out.physical_bytes = cluster.repository().physical_data_bytes();
    out.retried_ops = cluster.repository().stats().retried_ops;
    if matches!(sc.failure, Failure::TransientChaos { .. }) {
        assert!(
            out.retried_ops > 0,
            "{}: the chaos schedule never engaged the retry layer",
            sc.name
        );
    }
    out
}

/// Assert that two runs of the *same* scenario under different
/// `sweep_parts` are equivalent: byte-identical index parts, identical
/// dedup decisions and identical restore results. (Virtual times are
/// allowed — expected — to differ.)
pub fn assert_equivalent(base: &Outcome, other: &Outcome, label: &str) {
    assert_eq!(
        base.index_digests, other.index_digests,
        "{label}: index part bytes diverged"
    );
    // Physical bytes (and bytes GC reclaimed) scale *exactly* with the
    // replication factor — every container has R copies — so the
    // comparison normalizes by R and stays valid across replication
    // legs too.
    assert_eq!(
        base.physical_bytes * other.replication as u64,
        other.physical_bytes * base.replication as u64,
        "{label}: repository physical bytes diverged (per replica)"
    );
    assert_eq!(
        base.gc_dead_fps, other.gc_dead_fps,
        "{label}: GC dead-fingerprint count diverged"
    );
    assert_eq!(
        base.gc_reclaimed * other.replication as u64,
        other.gc_reclaimed * base.replication as u64,
        "{label}: GC reclaimed bytes diverged (per replica)"
    );
    assert_same_dedup(base, other, label);
}

/// The restore half of [`assert_same_dedup`]: the same workload restores
/// the same bytes, run for run and file for file, cleanly, from the same
/// number of index entries.
pub fn assert_same_restore(base: &Outcome, other: &Outcome, label: &str) {
    assert_eq!(
        base.logical_bytes, other.logical_bytes,
        "{label}: workload drifted — scenario not deterministic"
    );
    assert_eq!(
        base.restored_bytes, other.restored_bytes,
        "{label}: restored bytes diverged"
    );
    assert_eq!(
        base.file_restore_bytes, other.file_restore_bytes,
        "{label}: partial-restore bytes diverged"
    );
    assert_eq!(other.restore_failures, 0, "{label}: restore failures");
    assert_eq!(other.verify_failures, 0, "{label}: verify failures");
    assert_eq!(
        base.index_entries, other.index_entries,
        "{label}: index entries"
    );
}

/// The shape-independent half of [`assert_equivalent`]: same restore
/// results ([`assert_same_restore`]) *and* same dedup decisions, but index
/// layouts may differ (used when comparing *different server counts* on
/// one workload, where entries split differently across parts).
pub fn assert_same_dedup(base: &Outcome, other: &Outcome, label: &str) {
    assert_same_restore(base, other, label);
    assert_eq!(
        base.stored_chunks, other.stored_chunks,
        "{label}: stored chunks"
    );
    assert_eq!(
        base.stored_bytes, other.stored_bytes,
        "{label}: stored bytes"
    );
}
