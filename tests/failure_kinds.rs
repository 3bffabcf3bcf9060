//! Failure-kind scenarios (ROADMAP: "failure kinds beyond index loss"):
//! container corruption, mid-dedup-2 crashes, partial SIU, single
//! part-disk faults, chunk-log faults, repository-node faults and
//! whole-node loss (with and without replicas), each driven through the
//! shared scenario harness across the `sweep_parts` × `replication`
//! matrices. Part-disk faults hit two part-disks of every stripe, node
//! faults every repository node.
//!
//! Two properties are pinned:
//!
//! 1. **Typed detection** — every injected fault surfaces as the matching
//!    `DebarError` (no panics on any fault path), with corruption caught
//!    on restore, by the verify audit *and* on the §4.1 recovery rebuild.
//! 2. **Crash-consistent convergence** — a crash-interrupted dedup-2 or
//!    SIU, re-run after the fault clears, converges to **byte-identical
//!    index parts and restore bytes** versus a never-interrupted run of
//!    the same scenario, for every partition count of
//!    `common::SWEEP_PARTS`.

mod common;

use common::{
    assert_equivalent, run_scenario, Failure, Outcome, Scenario, REPLICATION, STORE_WORKERS,
    SWEEP_PARTS,
};
use debar::core::report::StoreReport;
use debar::hash::Sha1;
use debar::workload::drift::churn;
use debar::workload::ChunkRecord;
use debar::{
    ClientId, Dataset, DebarCluster, DebarConfig, DebarError, Dedup2Phase, Device, FaultPlan, RunId,
};

/// Run one failure-kind scenario across the partition matrix, asserting
/// cross-partition equivalence, and return the outcomes by parts.
fn matrix(name: &'static str, w_bits: u32, failure: Failure) -> Vec<(usize, Outcome)> {
    let mut outs: Vec<(usize, Outcome)> = Vec::new();
    for parts in SWEEP_PARTS {
        let out = run_scenario(&Scenario::tiny(name, w_bits, parts).with_failure(failure));
        if let Some((p0, base)) = outs.first() {
            assert_equivalent(
                base,
                &out,
                &format!("{name}: parts={parts} vs parts={p0} diverged"),
            );
        }
        outs.push((parts, out));
    }
    outs
}

#[test]
fn container_corruption_detected_on_restore_and_recovery() {
    // The harness asserts the three detection sites internally (typed
    // restore error naming the damaged container, verify-audit failure
    // counts, typed recovery-rebuild error); here we additionally pin
    // that the post-repair state is byte-identical across partitions.
    matrix("corrupt", 0, Failure::CorruptContainer);
}

#[test]
fn container_corruption_detected_multi_server() {
    matrix("corrupt-w1", 1, Failure::CorruptContainer);
}

#[test]
fn interrupted_dedup2_converges_to_uninterrupted_run() {
    for (parts, faulted) in matrix("interrupt", 0, Failure::InterruptDedup2) {
        let clean = run_scenario(&Scenario::tiny("interrupt", 0, parts));
        assert_equivalent(
            &clean,
            &faulted,
            &format!("interrupt: resumed run (parts={parts}) vs uninterrupted"),
        );
    }
}

#[test]
fn interrupted_dedup2_converges_multi_server() {
    for (parts, faulted) in matrix("interrupt-w1", 1, Failure::InterruptDedup2) {
        let clean = run_scenario(&Scenario::tiny("interrupt-w1", 1, parts));
        assert_equivalent(
            &clean,
            &faulted,
            &format!("interrupt-w1: resumed run (parts={parts}) vs uninterrupted"),
        );
    }
}

/// The part-disks to fault in a `parts`-way stripe: part 2 (the last, in
/// a stripe narrower than three) and the last part — an inner part-disk
/// and the edge one.
fn fault_parts(parts: usize) -> Vec<usize> {
    let mut targets = vec![2.min(parts - 1), parts - 1];
    targets.dedup();
    targets
}

#[test]
fn single_part_disk_fault_names_part_and_converges() {
    // The physical multi-part model: a fault armed on exactly one
    // part-disk of a striped sweep surfaces as a typed error naming that
    // part (asserted inside the harness), and the interrupted round
    // converges on redo — byte-identical index parts and restore bytes
    // versus the never-interrupted scenario AND across partition counts.
    let mut first: Option<(usize, Outcome)> = None;
    for parts in SWEEP_PARTS {
        let clean = run_scenario(&Scenario::tiny("part-fault", 0, parts));
        for part in fault_parts(parts) {
            let faulted = run_scenario(
                &Scenario::tiny("part-fault", 0, parts)
                    .with_failure(Failure::PartDiskFault { part }),
            );
            assert_equivalent(
                &clean,
                &faulted,
                &format!("part-fault: resumed run (parts={parts}, part={part}) vs uninterrupted"),
            );
            match &first {
                Some((p0, base)) => assert_equivalent(
                    base,
                    &faulted,
                    &format!("part-fault: parts={parts}, part={part} vs parts={p0} diverged"),
                ),
                None => first = Some((parts, faulted)),
            }
        }
    }
}

#[test]
fn single_part_disk_fault_converges_multi_server() {
    for parts in SWEEP_PARTS {
        let clean = run_scenario(&Scenario::tiny("part-fault-w1", 1, parts));
        for part in fault_parts(parts) {
            let faulted = run_scenario(
                &Scenario::tiny("part-fault-w1", 1, parts)
                    .with_failure(Failure::PartDiskFault { part }),
            );
            assert_equivalent(
                &clean,
                &faulted,
                &format!(
                    "part-fault-w1: resumed run (parts={parts}, part={part}) vs uninterrupted"
                ),
            );
        }
    }
}

#[test]
fn chunk_log_fault_aborts_backup_and_retry_converges() {
    // Dedup-1's chunk log is fault-checked: the injected append fault
    // surfaces as DebarError::DeviceFault on a log volume (asserted inside
    // the harness), the retried backup succeeds, and the aborted run's
    // stray log records are discarded — outcomes byte-identical to a
    // clean run.
    for (parts, faulted) in matrix("log-fault", 0, Failure::ChunkLogFault) {
        let clean = run_scenario(&Scenario::tiny("log-fault", 0, parts));
        assert_equivalent(
            &clean,
            &faulted,
            &format!("log-fault: retried run (parts={parts}) vs clean"),
        );
    }
}

#[test]
fn chunk_log_fault_converges_multi_server() {
    // Multi-server placement is load-balanced by the director, so this
    // leg additionally pins that an aborted run leaks nothing into the
    // placement state: a faulted-then-retried history must route every
    // later job exactly like a clean one, or outcomes diverge.
    for (parts, faulted) in matrix("log-fault-w1", 1, Failure::ChunkLogFault) {
        let clean = run_scenario(&Scenario::tiny("log-fault-w1", 1, parts));
        assert_equivalent(
            &clean,
            &faulted,
            &format!("log-fault-w1: retried run (parts={parts}) vs clean"),
        );
    }
}

#[test]
fn chunk_log_drain_fault_mid_pipeline_converges() {
    // The pipelined chunk-storing phase: fail exactly one worker disk of
    // server 0's striped chunk-log drain in the final round. The harness
    // asserts the typed interruption and that the log stays byte-for-byte
    // intact; here we additionally pin that the redo converges
    // byte-identically to a never-interrupted run at every worker count.
    let mut worker_counts: Vec<usize> = STORE_WORKERS
        .into_iter()
        .map(|w| w.max(2)) // a 1-way stripe has no worker to lose
        .collect();
    worker_counts.sort_unstable();
    worker_counts.dedup();
    for workers in worker_counts {
        let faulted = run_scenario(
            &Scenario::tiny("drain-fault", 0, 2)
                .with_cfg(|c| c.with_store_workers(workers))
                .with_failure(Failure::ChunkLogDrainFault {
                    worker: workers - 1,
                }),
        );
        let clean = run_scenario(
            &Scenario::tiny("drain-fault", 0, 2).with_cfg(|c| c.with_store_workers(workers)),
        );
        assert_equivalent(
            &clean,
            &faulted,
            &format!("drain-fault: resumed run (workers={workers}) vs uninterrupted"),
        );
    }
}

#[test]
fn chunk_log_drain_fault_converges_multi_server() {
    // Multi-server: the faulted server's siblings already packed in
    // parallel; their rolled-back logs must replay identically too.
    let faulted = run_scenario(
        &Scenario::tiny("drain-fault-w1", 1, 2)
            .with_cfg(|c| c.with_store_workers(2))
            .with_failure(Failure::ChunkLogDrainFault { worker: 1 }),
    );
    let clean =
        run_scenario(&Scenario::tiny("drain-fault-w1", 1, 2).with_cfg(|c| c.with_store_workers(2)));
    assert_equivalent(&clean, &faulted, "drain-fault-w1: resumed vs uninterrupted");
}

/// Repository nodes in the tiny-geometry deployment (`tiny_test`): the
/// node tests fault or take down each of them in turn.
const TINY_REPO_NODES: usize = 2;

#[test]
fn repo_node_down_survivable_and_repaired_with_replicas() {
    // The FASTEN-style trade-off made good: with every container on
    // `replication >= 2` distinct nodes, losing any single node leaves
    // every run verifiable and restorable byte-identically (the harness
    // asserts degraded-read accounting and post-repair full replication
    // internally); here we additionally pin equivalence to the healthy
    // scenario and across the partition matrix.
    for r in REPLICATION {
        if r < 2 {
            continue; // the no-replica story is its own test below
        }
        let mut first: Option<(usize, Outcome)> = None;
        for parts in SWEEP_PARTS {
            let healthy = run_scenario(
                &Scenario::tiny("node-down", 0, parts).with_cfg(|c| c.with_replication(r)),
            );
            for node in 0..TINY_REPO_NODES {
                let degraded = run_scenario(
                    &Scenario::tiny("node-down", 0, parts)
                        .with_cfg(|c| c.with_replication(r))
                        .with_failure(Failure::RepoNodeDown { node }),
                );
                assert_equivalent(
                    &healthy,
                    &degraded,
                    &format!(
                        "node-down: degraded run (parts={parts}, r={r}, node={node}) vs healthy"
                    ),
                );
                match &first {
                    Some((p0, base)) => assert_equivalent(
                        base,
                        &degraded,
                        &format!(
                            "node-down: parts={parts}, node={node} vs parts={p0} diverged (r={r})"
                        ),
                    ),
                    None => first = Some((parts, degraded)),
                }
            }
        }
    }
}

#[test]
fn repo_node_down_survivable_multi_server() {
    let healthy =
        run_scenario(&Scenario::tiny("node-down-w1", 1, 2).with_cfg(|c| c.with_replication(2)));
    for node in 0..TINY_REPO_NODES {
        let degraded = run_scenario(
            &Scenario::tiny("node-down-w1", 1, 2)
                .with_cfg(|c| c.with_replication(2))
                .with_failure(Failure::RepoNodeDown { node }),
        );
        assert_equivalent(
            &healthy,
            &degraded,
            &format!("node-down-w1: degraded (node={node}) vs healthy"),
        );
    }
}

#[test]
fn repo_node_down_without_replicas_is_typed_unrecoverable() {
    // At replication = 1 the same node loss must surface a typed
    // `Unrecoverable` error naming the node — never a panic or silent
    // corruption (asserted inside the harness, which also pins the
    // repair refusal and the post-revive convergence).
    for parts in SWEEP_PARTS {
        let healthy = run_scenario(&Scenario::tiny("node-down-r1", 0, parts));
        for node in 0..TINY_REPO_NODES {
            let revived = run_scenario(
                &Scenario::tiny("node-down-r1", 0, parts)
                    .with_failure(Failure::RepoNodeDown { node }),
            );
            assert_equivalent(
                &healthy,
                &revived,
                &format!("node-down-r1: revived run (parts={parts}, node={node}) vs healthy"),
            );
        }
    }
}

#[test]
fn repo_node_fault_names_node_and_converges() {
    // A fault on one repository node's disk mid-chunk-storing surfaces as
    // `InterruptedDedup2(ChunkStoring)` caused by a `DeviceFault` naming
    // that node (asserted inside the harness), and the redo converges
    // byte-identically — at every replication factor in the matrix.
    for r in REPLICATION {
        for parts in SWEEP_PARTS {
            let clean = run_scenario(
                &Scenario::tiny("node-fault", 0, parts).with_cfg(|c| c.with_replication(r)),
            );
            for node in 0..TINY_REPO_NODES {
                let faulted = run_scenario(
                    &Scenario::tiny("node-fault", 0, parts)
                        .with_cfg(|c| c.with_replication(r))
                        .with_failure(Failure::RepoNodeFault { node }),
                );
                assert_equivalent(
                    &clean,
                    &faulted,
                    &format!(
                        "node-fault: resumed run (parts={parts}, r={r}, node={node}) vs uninterrupted"
                    ),
                );
            }
        }
    }
}

#[test]
fn repo_node_fault_converges_multi_server() {
    let clean =
        run_scenario(&Scenario::tiny("node-fault-w1", 1, 2).with_cfg(|c| c.with_replication(2)));
    for node in 0..TINY_REPO_NODES {
        let faulted = run_scenario(
            &Scenario::tiny("node-fault-w1", 1, 2)
                .with_cfg(|c| c.with_replication(2))
                .with_failure(Failure::RepoNodeFault { node }),
        );
        assert_equivalent(
            &clean,
            &faulted,
            &format!("node-fault-w1: resumed (node={node}) vs uninterrupted"),
        );
    }
}

#[test]
fn gc_sweep_fault_aborts_pre_mutation_and_converges() {
    // The GC index sweep is fault-checked *before* it moves a byte: the
    // armed volume-disk fault surfaces typed (asserted inside the
    // harness), the aborted attempt never grows the repository, and the
    // redone collection converges byte-identically with an
    // uninterrupted one — index parts, repository bytes and every
    // retained restore.
    for parts in SWEEP_PARTS {
        let faulted = run_scenario(
            &Scenario::tiny("gc-fault", 0, parts)
                .with_cfg(|c| c.with_retention(1))
                .with_failure(Failure::GcFault),
        );
        let clean =
            run_scenario(&Scenario::tiny("gc-fault", 0, parts).with_cfg(|c| c.with_retention(1)));
        assert_equivalent(
            &clean,
            &faulted,
            &format!("gc-fault: redone collection (parts={parts}) vs uninterrupted"),
        );
    }
}

#[test]
fn gc_sweep_fault_converges_multi_server() {
    let faulted = run_scenario(
        &Scenario::tiny("gc-fault-w1", 1, 2)
            .with_cfg(|c| c.with_retention(1))
            .with_failure(Failure::GcFault),
    );
    let clean =
        run_scenario(&Scenario::tiny("gc-fault-w1", 1, 2).with_cfg(|c| c.with_retention(1)));
    assert_equivalent(&clean, &faulted, "gc-fault-w1: redone vs uninterrupted");
}

#[test]
fn gc_compaction_fault_loses_no_live_chunk_and_converges() {
    // Compaction is store-new-then-delete-old: the armed repository
    // fault aborts the collection typed with the victim intact, and the
    // redo skips what the interrupted attempt already reclaimed — the
    // converged state is byte-identical to a clean collection at every
    // replication factor.
    for r in REPLICATION {
        for parts in SWEEP_PARTS {
            let faulted = run_scenario(
                &Scenario::tiny("gc-compact-fault", 0, parts)
                    .with_cfg(|c| c.with_retention(1).with_replication(r))
                    .with_failure(Failure::CompactionFault),
            );
            let clean = run_scenario(
                &Scenario::tiny("gc-compact-fault", 0, parts)
                    .with_cfg(|c| c.with_retention(1).with_replication(r)),
            );
            assert_equivalent(
                &clean,
                &faulted,
                &format!("gc-compact-fault: redone collection (parts={parts}, r={r}) vs clean"),
            );
        }
    }
}

#[test]
fn partial_siu_converges_to_uninterrupted_run() {
    for (parts, faulted) in matrix("partial-siu", 0, Failure::PartialSiu) {
        let clean = run_scenario(&Scenario::tiny("partial-siu", 0, parts));
        assert_equivalent(
            &clean,
            &faulted,
            &format!("partial-siu: redone run (parts={parts}) vs uninterrupted"),
        );
    }
}

#[test]
fn partial_siu_converges_multi_server() {
    for (parts, faulted) in matrix("partial-siu-w1", 1, Failure::PartialSiu) {
        let clean = run_scenario(&Scenario::tiny("partial-siu-w1", 1, parts));
        assert_equivalent(
            &clean,
            &faulted,
            &format!("partial-siu-w1: redone run (parts={parts}) vs uninterrupted"),
        );
    }
}

/// Dedup-2 crash-point fixture: two servers (`w = 1`), job `a` backs up
/// chunks 0..1200 on server 0 and job `b` chunks 400..1600 on server 1, so
/// a third of each stream is a cross-server duplicate the filter cannot
/// catch — the exchange, both PSIL owners, a sibling's pack and a
/// multi-container store commit all run in the round.
fn cross_server_cluster() -> (DebarCluster, [RunId; 2]) {
    let mut c = DebarCluster::new(DebarConfig::tiny_test(1));
    let mut runs = Vec::new();
    for (name, client, span) in [("a", 0, 0..1200u64), ("b", 1, 400..1600)] {
        let job = c.define_job(name, ClientId(client));
        let recs: Vec<ChunkRecord> = span.map(ChunkRecord::of_counter).collect();
        c.backup(job, &Dataset::from_records("s", recs))
            .expect("backup");
        runs.push(RunId { job, version: 0 });
    }
    assert!(c.undetermined_counts().iter().all(|&n| n > 0));
    (c, [runs[0], runs[1]])
}

/// What a dedup-2 round must converge to once SIU has run: every index
/// part's bytes, the containers written, the round's store totals and
/// both runs' restored bytes.
fn converged_round(
    c: &mut DebarCluster,
    store: StoreReport,
    runs: [RunId; 2],
) -> (Vec<[u8; 20]>, u64, StoreReport, [u64; 2]) {
    c.force_siu().expect("siu");
    let restored = runs.map(|run| {
        let r = c.restore_run(run).expect("restore");
        assert_eq!(r.failures, 0);
        r.bytes
    });
    (
        (0..c.server_count() as u16)
            .map(|s| Sha1::digest(c.server(s).index().raw_data()))
            .collect(),
        c.repository().stats().containers,
        store,
        restored,
    )
}

/// The device a dedup-2 or SIU fault names.
fn named_device(err: &DebarError) -> Option<Device> {
    match err {
        DebarError::InterruptedDedup2 { cause, .. } => named_device(cause),
        DebarError::DeviceFault { device, .. } | DebarError::PartialSiu { device, .. } => {
            Some(*device)
        }
        DebarError::Unrecoverable { node, .. } => Some(Device::RepoNode(*node)),
        _ => None,
    }
}

#[test]
fn dedup2_crash_point_sweep_converges_at_every_device_op() {
    // Every device op a clean round charges is a crash point: a PSIL
    // sweep or SIU sweep on an index part, a log drain, a container
    // write. Arm `Fail` at each in turn; the round ends `Ok` or typed,
    // naming the device, and the redo reaches the clean twin — index
    // parts, containers, store totals and restore bytes — whichever
    // server had committed what.
    let (mut clean, runs) = cross_server_cluster();
    let mut devices = vec![Device::RepoNode(0), Device::RepoNode(1)];
    for server in 0..clean.server_count() as u16 {
        devices.push(Device::IndexPart { server, part: 0 });
        devices.push(Device::LogWorker { server, worker: 0 });
    }
    let ops_before: Vec<u64> = (devices.iter())
        .map(|&d| clean.device_ops(d).expect("device"))
        .collect();
    let report = clean.run_dedup2().expect("clean round");
    let ops: Vec<u64> = (devices.iter())
        .map(|&d| clean.device_ops(d).expect("device"))
        .collect();
    let enumerated: Vec<u64> = (ops.iter().zip(&ops_before))
        .map(|(to, from)| to - from)
        .collect();
    // Repository nodes 0 and 1, then per server its index part and its
    // log worker.
    assert_eq!(enumerated, [7, 7, 3, 1, 3, 1], "crash points");
    assert!(report.store.discarded > 0, "cross-server duplicates");
    let want = converged_round(&mut clean, report.store, runs);

    let mut aborted = 0;
    for (i, &device) in devices.iter().enumerate() {
        for at in ops_before[i]..ops[i] {
            let leg = format!("{device:?} op {at}");
            let (mut c, _) = cross_server_cluster();
            let (undetermined, logs) = (c.undetermined_counts(), log_bytes(&c));
            c.arm(device, FaultPlan::fail_at(at)).expect("device");
            let faulted = c.run_dedup2();
            c.clear_fault_plans();
            let report = match faulted {
                Ok(report) => report,
                Err(err) => {
                    aborted += 1;
                    assert_eq!(named_device(&err), Some(device), "{leg}: {err}");
                    // Before any store commit, nothing moved: a PSIL fault
                    // leaves the undetermined lists, and a PSIL or drain
                    // fault every log, as the round found them.
                    if let DebarError::InterruptedDedup2 { phase, .. } = &err {
                        if *phase == Dedup2Phase::Sil {
                            assert_eq!(c.undetermined_counts(), undetermined, "{leg}");
                        }
                        if !matches!(device, Device::RepoNode(_)) {
                            assert_eq!(log_bytes(&c), logs, "{leg}");
                        }
                    }
                    c.run_dedup2().expect("redo")
                }
            };
            let got = converged_round(&mut c, report.store, runs);
            assert_eq!(got, want, "{leg}: redo diverged");
            assert_eq!(c.fsck().discrepancies, [], "{leg}");
        }
    }
    // With one copy of each container, no crash point is absorbed: the
    // sweep interrupted PSIL, both drains, each server's store commit
    // before and after a durable prefix, and PSIU.
    assert_eq!(aborted, enumerated.iter().sum::<u64>(), "every leg aborted");
}

/// A round that carries a due SIU: two servers, each index part striped
/// over two part-disks, an SIU due every second round. Jobs `a` and `b`
/// back up overlapping windows in rounds 1 and 2; round 2's SIU falls due
/// and rides on round 3, whose backups are logged and whose dedup-2 has
/// not run. Returns the cluster and round 3's runs.
fn riding_round_cluster() -> (DebarCluster, [RunId; 2]) {
    let mut c = DebarCluster::new(DebarConfig {
        siu_interval: 2,
        ..DebarConfig::tiny_test(1).with_sweep_parts(2)
    });
    let jobs = [
        c.define_job("a", ClientId(0)),
        c.define_job("b", ClientId(1)),
    ];
    for round in 0..3u64 {
        for (k, &job) in jobs.iter().enumerate() {
            let from = round * 1000 + k as u64 * 400;
            let recs: Vec<ChunkRecord> = (from..from + 1200).map(ChunkRecord::of_counter).collect();
            c.backup(job, &Dataset::from_records("s", recs))
                .expect("backup");
        }
        if round < 2 {
            c.run_dedup2().expect("dedup2");
        }
    }
    (c, jobs.map(|job| RunId { job, version: 2 }))
}

#[test]
fn riding_siu_crash_point_sweep_names_the_part_and_converges() {
    // The riding pass is two ops on every part-disk: the read that merges
    // the carried updates and probes the sweep's batch, and the write back.
    // Fail or tear each of them on every part-disk: the round is
    // interrupted in PSIL naming that part-disk, and the redo reaches the
    // clean twin — index parts, containers, store totals, restore bytes —
    // whichever server's merge had landed.
    let (mut clean, runs) = riding_round_cluster();
    let disks: Vec<Device> = (0..2u16)
        .flat_map(|server| (0..2u32).map(move |part| Device::IndexPart { server, part }))
        .collect();
    let before: Vec<u64> = (disks.iter())
        .map(|&d| clean.device_ops(d).expect("device"))
        .collect();
    let report = clean.run_dedup2().expect("clean round");
    assert!(report.siu_ran && report.siu_updates > 0, "round 3 carries");
    assert_eq!(report.sil_sweeps, 2, "one PSIL sweep per server");
    for (&d, &from) in disks.iter().zip(&before) {
        let ops = clean.device_ops(d).expect("device") - from;
        assert_eq!(ops, 2, "{d:?}: one read op, one write op");
    }
    let carried = report.siu_updates;
    let want = converged_round(&mut clean, report.store, runs);

    for (&device, &from) in disks.iter().zip(&before) {
        for (at, plan) in [
            (from, FaultPlan::fail_at as fn(u64) -> FaultPlan),
            (from + 1, FaultPlan::fail_at),
            (from, FaultPlan::torn_write_at),
            (from + 1, FaultPlan::torn_write_at),
        ] {
            let (mut c, _) = riding_round_cluster();
            let plan = plan(at);
            let leg = format!("{device:?} {plan:?}");
            let undetermined = c.undetermined_counts();
            c.arm(device, plan).expect("device");
            let err = c.run_dedup2().expect_err(&leg);
            assert!(
                matches!(
                    err,
                    DebarError::InterruptedDedup2 {
                        phase: Dedup2Phase::Sil,
                        ..
                    }
                ),
                "{leg}: {err}"
            );
            assert_eq!(named_device(&err), Some(device), "{leg}: {err}");
            assert_eq!(c.undetermined_counts(), undetermined, "{leg}");
            c.clear_fault_plans();
            let report = c.run_dedup2().expect("redo");
            assert_eq!(report.siu_updates, carried, "{leg}: the redo carries it");
            let got = converged_round(&mut c, report.store, runs);
            assert_eq!(got, want, "{leg}: redo diverged");
            assert_eq!(c.fsck().discrepancies, [], "{leg}");
        }
    }
}

/// Two generations of a churning job on two nodes at R = 2, the second
/// interleaving its chunks with the first's chunk by chunk, against a
/// two-slot restore cache: the latest generation's walk outgrows the
/// cache, reads by range from its first miss and evicts.
fn fragmented_r2_cluster() -> (DebarCluster, RunId) {
    let mut cfg = DebarConfig::tiny_test(0).with_replication(2);
    cfg.lpc_containers = 2;
    let mut c = DebarCluster::new(cfg);
    let job = c.define_job("churn", ClientId(0));
    for g in 0..2 {
        c.backup(job, &Dataset::from_records("s", churn(g, 1200, 2)))
            .expect("backup");
        c.run_dedup2().expect("dedup2");
    }
    c.force_siu().expect("siu");
    (c, RunId { job, version: 1 })
}

#[test]
fn restore_crash_point_sweep_at_r2_fails_over_or_names_the_device() {
    // Every device op a clean restore of the latest generation charges is
    // a crash point: a container read on either node, an index lookup.
    // Arm `Fail` at each in turn. A faulted read returns the clean walk's
    // bytes — the other copy serves it, whichever copy the node lanes
    // sent it to first — and a faulted lookup is the restore's own typed
    // error naming the index part; never a panic, never other bytes.
    let devices = [
        Device::RepoNode(0),
        Device::RepoNode(1),
        Device::IndexPart { server: 0, part: 0 },
    ];
    let ops_of = |c: &mut DebarCluster| devices.map(|d| c.device_ops(d).expect("device"));
    let (mut clean, run) = fragmented_r2_cluster();
    let before = ops_of(&mut clean);
    let want = clean.restore_run(run).expect("clean restore");
    let touched: Vec<u64> = (ops_of(&mut clean).iter().zip(&before))
        .map(|(after, before)| after - before)
        .collect();
    assert!(touched.iter().all(|&n| n > 0), "crash points {touched:?}");
    assert!(want.lpc.evictions > 0, "the walk evicts");
    assert!(
        want.layout.fragments > want.layout.containers_touched,
        "the walk returns to containers: {:?}",
        want.layout
    );

    let (mut failed_over, mut typed) = (0, 0);
    for (i, &device) in devices.iter().enumerate() {
        let node = matches!(device, Device::RepoNode(_));
        for at in before[i]..before[i] + touched[i] {
            let leg = format!("{device:?} op {at}");
            let (mut c, _) = fragmented_r2_cluster();
            c.arm(device, FaultPlan::fail_at(at)).expect("device");
            match c.restore_run(run) {
                Ok(r) => {
                    let got = (r.files, r.chunks, r.bytes, r.failures);
                    assert_eq!(got, (want.files, want.chunks, want.bytes, 0), "{leg}");
                    assert_eq!(r.layout, want.layout, "{leg}");
                    // A node's fault fails over to the other copy.
                    assert!(node, "{leg}: a faulted lookup restored");
                    assert_eq!(r.failover_reads, 1, "{leg}");
                    failed_over += 1;
                }
                Err(err) => {
                    assert!(!node, "{leg}: the other copy serves: {err}");
                    assert_eq!(named_device(&err), Some(device), "{leg}: {err}");
                    typed += 1;
                }
            }
            // Nothing waits for a later op: the next restore is clean.
            let again = c.restore_run(run).expect("the fault is spent");
            assert_eq!(again.bytes, want.bytes, "{leg}");
            assert_eq!(c.fsck().discrepancies, [], "{leg}");
        }
    }
    assert_eq!(failed_over, touched[0] + touched[1]);
    assert_eq!(typed, touched[2], "every lookup leg fails typed");
}

/// Bytes waiting in each server's chunk log.
fn log_bytes(c: &DebarCluster) -> Vec<u64> {
    (0..c.server_count() as u16)
        .map(|s| c.server(s).log_bytes())
        .collect()
}
