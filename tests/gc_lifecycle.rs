//! The GC scenario-test family (ROADMAP: deletion, retention &
//! reclamation): retention-window expiry, garbage collection with
//! container compaction, and the deletable summary vector — driven
//! through the shared scenario harness across the `sweep_parts` ×
//! `replication` × `retention` matrices, plus direct cluster scenarios
//! for the replication-aware legs the harness does not parameterize
//! (node loss *during* a collection, repair after one).
//!
//! Three properties are pinned:
//!
//! 1. **Byte-identical retained restores** — after expiring K of N
//!    generations and collecting, every retained run verifies and
//!    restores byte-identically, at every partition count, and every
//!    expired run fails typed (`UnknownRun`).
//! 2. **Reclaim exactness** — the repository's physical-byte delta is
//!    exactly `replication × dead_chunk_bytes` (asserted inside the
//!    harness), monotone across faulted attempts, and doubles from
//!    R=1 to R=2 on the same workload.
//! 3. **Crash-consistent convergence** — a collection interrupted at
//!    the index sweep or at compaction, redone after the fault clears,
//!    converges byte-identically with an uninterrupted collection; a
//!    node lost mid-collection aborts typed and the post-repair redo
//!    converges too, with no reclaimed container resurrected.

mod common;

use common::{
    assert_equivalent, run_scenario, Failure, Outcome, Scenario, REPLICATION, RETENTION,
    SWEEP_PARTS,
};
use debar::hash::Sha1;
use debar::workload::ChunkRecord;
use debar::{
    ClientId, ContainerId, Dataset, DebarCluster, DebarConfig, DebarError, Device, FaultPlan,
    JobId, RunId,
};
use std::collections::{BTreeMap, BTreeSet};

#[test]
fn expire_then_restore_byte_identical_across_sweep_parts() {
    // The harness asserts the lifecycle internally (typed NotQuiesced while
    // staged, expiry counts, reclaim exactness, idempotent
    // re-collection, typed UnknownRun for expired runs, byte-identical
    // retained restores); here we additionally pin that the post-GC
    // index parts and repository bytes are identical across partition
    // counts — the GC sweep rebuild is partition-independent.
    for retention in RETENTION {
        let mut outs: Vec<(usize, Outcome)> = Vec::new();
        for parts in SWEEP_PARTS {
            let out = run_scenario(
                &Scenario::tiny("gc", 0, parts).with_cfg(|c| c.with_retention(retention)),
            );
            if let Some((p0, base)) = outs.first() {
                assert_equivalent(
                    base,
                    &out,
                    &format!("gc: retention={retention} parts={parts} vs parts={p0} diverged"),
                );
            }
            outs.push((parts, out));
        }
    }
}

#[test]
fn expire_then_restore_multi_server() {
    for parts in SWEEP_PARTS {
        run_scenario(&Scenario::tiny("gc-w1", 1, parts).with_cfg(|c| c.with_retention(1)));
    }
}

#[test]
fn gc_reclaims_exactly_per_replication() {
    // Dedup decisions are replication-independent, so the same workload
    // must reclaim exactly twice the physical bytes at R=2: every dead
    // chunk had two copies.
    let r1 = run_scenario(&Scenario::tiny("gc-r", 0, 2).with_cfg(|c| c.with_retention(1)));
    let r2 = run_scenario(
        &Scenario::tiny("gc-r", 0, 2).with_cfg(|c| c.with_retention(1).with_replication(2)),
    );
    assert!(r1.gc_reclaimed > 0, "gc-r: nothing reclaimed at R=1");
    assert_eq!(
        r2.gc_reclaimed,
        2 * r1.gc_reclaimed,
        "gc-r: R=2 must reclaim exactly two copies of every dead chunk"
    );
    assert_eq!(
        r2.gc_dead_fps, r1.gc_dead_fps,
        "gc-r: the dead set is a logical property, not a physical one"
    );
    // And within each replication factor, the partition matrix agrees.
    for r in REPLICATION {
        let mut outs: Vec<(usize, Outcome)> = Vec::new();
        for parts in SWEEP_PARTS {
            let out = run_scenario(
                &Scenario::tiny("gc-rm", 0, parts)
                    .with_cfg(|c| c.with_retention(1).with_replication(r)),
            );
            if let Some((p0, base)) = outs.first() {
                assert_equivalent(
                    base,
                    &out,
                    &format!("gc-rm: r={r} parts={parts} vs parts={p0} diverged"),
                );
            }
            outs.push((parts, out));
        }
    }
}

#[test]
fn index_recovery_rebuild_converges_after_gc() {
    // §4.1 recovery after a collection: the rebuilt index comes from the
    // post-GC containers (compacted ones hold only live chunks), so the
    // rebuild must reproduce the swept entry count — and the whole
    // scenario stays partition-independent.
    let mut outs: Vec<(usize, Outcome)> = Vec::new();
    for parts in SWEEP_PARTS {
        let out = run_scenario(
            &Scenario::tiny("gc-recover", 0, parts)
                .with_cfg(|c| c.with_retention(1))
                .with_failure(Failure::RecoverIndexes),
        );
        if let Some((p0, base)) = outs.first() {
            assert_equivalent(
                base,
                &out,
                &format!("gc-recover: parts={parts} vs parts={p0} diverged"),
            );
        }
        outs.push((parts, out));
    }
}

/// Direct-cluster fixture: two jobs whose streams share a middle range,
/// so the collection has whole-dead victims (the unshared prefix),
/// compaction victims (the straddling containers) and survivors.
fn overlapping_cluster(cfg: DebarConfig) -> (DebarCluster, JobId, JobId) {
    let mut c = DebarCluster::new(cfg);
    let a = c.define_job("a", ClientId(0));
    let b = c.define_job("b", ClientId(1));
    for (job, range) in [(a, 0..800u64), (b, 400..1200u64)] {
        let recs: Vec<ChunkRecord> = range.map(ChunkRecord::of_counter).collect();
        c.backup(job, &Dataset::from_records("s", recs))
            .expect("backup");
        c.run_dedup2().expect("dedup2");
        c.force_siu().expect("siu");
    }
    (c, a, b)
}

/// Crash-point fixture: job `a` fills containers, job `b` keeps every
/// other run of 24 chunks of them alive, `a` is deleted — so every
/// container of `a` is a half-live victim and the survivors of about two
/// victims fill one output. Returns the cluster, quiesced and ready to
/// collect, with the retained run and its fingerprints.
fn half_live_cluster(cfg: DebarConfig) -> (DebarCluster, RunId, Vec<ChunkRecord>) {
    let mut c = DebarCluster::new(cfg);
    let a = c.define_job("a", ClientId(0));
    let b = c.define_job("b", ClientId(1));
    let all: Vec<ChunkRecord> = (0..1000u64).map(ChunkRecord::of_counter).collect();
    let kept: Vec<ChunkRecord> = (all.chunks(24).step_by(2).flatten().copied()).collect();
    for (job, recs) in [(a, all), (b, kept.clone())] {
        c.backup(job, &Dataset::from_records("s", recs))
            .expect("backup");
        c.run_dedup2().expect("dedup2");
        c.force_siu().expect("siu");
    }
    c.delete_run(RunId { job: a, version: 0 }).expect("delete");
    (c, RunId { job: b, version: 0 }, kept)
}

/// What a collection must converge to: index bytes, container set,
/// physical bytes and the retained run's restored bytes.
fn converged(c: &mut DebarCluster, retained: RunId) -> ([u8; 20], Vec<ContainerId>, u64, u64) {
    let restored = c.restore_run(retained).expect("retained run restores");
    assert_eq!(restored.failures, 0);
    (
        Sha1::digest(c.server(0).index().raw_data()),
        c.repository().container_ids(),
        c.repository().physical_data_bytes(),
        restored.bytes,
    )
}

#[test]
fn gc_crash_point_sweep_converges_at_every_device_op() {
    // Every device op of a packed collection is a crash point: a victim
    // read, a replica write of an output that holds the survivors of
    // several victims, the frees behind it, the index sweeps. Arm each in
    // turn on each device; the collection ends typed (or, with a replica
    // to fail over to, unharmed), and the redo reaches the clean twin —
    // whichever outputs were durable, whichever victim was waiting for
    // its second one.
    let devices = [
        Device::RepoNode(0),
        Device::RepoNode(1),
        Device::IndexPart { server: 0, part: 0 },
    ];
    for replication in REPLICATION {
        for parts in SWEEP_PARTS {
            let cfg = DebarConfig::tiny_test(0)
                .with_replication(replication)
                .with_sweep_parts(parts);
            let tag = format!("R={replication} parts={parts}");
            // The clean twin, and the shape the sweep is about.
            let (mut clean, retained, kept) = half_live_cluster(cfg);
            let was_in: Vec<ContainerId> =
                (kept.iter().map(|r| clean.resolve(&r.fp).expect("live"))).collect();
            let ops_before = devices.map(|d| clean.device_ops(d).expect("device"));
            let written_before = clean.repository().stats().containers;
            clean.run_gc().expect("clean collection");
            let ops = devices.map(|d| clean.device_ops(d).expect("device"));
            // Which op runs when moves with the node timelines; which ops
            // there are, and in what order, does not: the sweep arms the
            // same crash points it armed when every node ran its ops in
            // submission order and two outputs were in flight.
            let enumerated: Vec<u64> = (ops.iter().zip(&ops_before))
                .map(|(to, from)| to - from)
                .collect();
            let pinned: &[u64] = match replication {
                1 => &[10, 10, 2],
                2 => &[16, 16, 2],
                _ => &enumerated,
            };
            assert_eq!(enumerated, pinned, "{tag}: crash points");
            let mut outputs_of: BTreeMap<ContainerId, BTreeSet<ContainerId>> = BTreeMap::new();
            for (r, victim) in kept.iter().zip(&was_in) {
                let now_in = clean.resolve(&r.fp).expect("live");
                outputs_of.entry(*victim).or_default().insert(now_in);
            }
            let straddling = outputs_of.values().filter(|o| o.len() > 1).count();
            let outputs = clean.repository().stats().containers - written_before;
            assert!(
                outputs >= 3 && straddling >= 2,
                "{tag}: {outputs} outputs, {straddling} straddling"
            );
            let want = converged(&mut clean, retained);
            // Legs that aborted typed, and torn copies the sweep left.
            let (mut aborted, mut torn_copies) = (0, 0);

            for (device, (from, to)) in devices.into_iter().zip(ops_before.into_iter().zip(ops)) {
                assert!(to > from, "{tag}: {device:?} idle in the collection");
                for at in from..to {
                    let leg = format!("{tag} {device:?} op {at} of {from}..{to}");
                    // Fail: typed, naming the device — unless the other
                    // replica of a victim absorbed it, or the armed op was
                    // a free after the device's last checked op (frees
                    // check no plan): then the collection was a clean one.
                    let (mut c, ..) = half_live_cluster(cfg);
                    c.arm(device, FaultPlan::fail_at(at)).expect("device");
                    let faulted = c.run_gc();
                    c.clear_fault_plans();
                    aborted += usize::from(faulted.is_err());
                    match faulted {
                        Err(DebarError::DeviceFault { device: d, .. }) => {
                            assert_eq!(d, device, "{leg}")
                        }
                        Err(DebarError::Unrecoverable { node, .. }) => {
                            assert_eq!(Device::RepoNode(node), device, "{leg}")
                        }
                        Ok(_) => assert_eq!(converged(&mut c, retained), want, "{leg}"),
                        Err(e) => panic!("{leg}: {e}"),
                    }
                    // No live chunk is unreadable between a store and the
                    // frees it enables.
                    let mid = c.verify_run(retained).expect("verify");
                    assert_eq!(mid.failures, 0, "{leg}: a live chunk was lost");
                    c.run_gc().expect("redo");
                    assert_eq!(converged(&mut c, retained), want, "{leg}: redo diverged");

                    // TornWrite: silent on a replica write, a failed attempt
                    // on a read — either way the other copy serves.
                    if replication < 2 || !matches!(device, Device::RepoNode(_)) {
                        continue;
                    }
                    let (mut c, ..) = half_live_cluster(cfg);
                    c.arm(device, FaultPlan::torn_write_at(at)).expect("device");
                    c.run_gc().expect("a torn replica write looks durable");
                    c.clear_fault_plans();
                    let torn = c.repository().under_replicated();
                    let repairs = c.repository().stats().read_repairs;
                    assert_eq!(converged(&mut c, retained), want, "{leg}: torn copy leaked");
                    let scrub = c.scrub().expect("quiesced").value;
                    let repaired = c.repository().stats().read_repairs - repairs + scrub.repaired;
                    assert_eq!(repaired, torn.len() as u64, "{leg}: {scrub:?}");
                    torn_copies += torn.len();
                    assert_eq!(scrub.unrecoverable, 0, "{leg}");
                    assert!(c.repository().under_replicated().is_empty(), "{leg}");
                }
            }
            // Every output's replica write was a crash point of its own.
            assert!(aborted as u64 >= outputs, "{tag}: {aborted} legs aborted");
            assert!(replication < 2 || torn_copies as u64 >= outputs, "{tag}");
        }
    }
}

#[test]
fn node_loss_mid_collection_aborts_typed_and_repair_redo_converges() {
    // R=2: take a node down *mid-lifecycle*, run the collection against
    // the degraded repository — it must abort typed (a compaction store
    // cannot reach all replicas), losing nothing — then repair the node
    // and redo. The redo must converge byte-identically with a
    // never-degraded twin, and no reclaimed container may resurrect.
    let cfg = DebarConfig::tiny_test(0).with_replication(2);
    let (mut degraded, a, _) = overlapping_cluster(cfg);
    let (mut clean, ca, cb) = overlapping_cluster(cfg);
    for (c, job) in [(&mut degraded, a), (&mut clean, ca)] {
        c.delete_run(RunId { job, version: 0 }).expect("delete");
    }

    degraded.set_repo_node_down(0).expect("node in range");
    let err = degraded
        .run_gc()
        .expect_err("GC against a downed replica node must abort typed");
    assert!(
        matches!(
            err,
            DebarError::NodeDown { node: 0 }
                | DebarError::DeviceFault {
                    device: Device::RepoNode(0),
                    ..
                }
                | DebarError::Unrecoverable { node: 0, .. }
        ),
        "expected a typed node error from the degraded collection, got {err}"
    );
    // Repair re-replicates from surviving copies and purges the stale
    // copies of anything the aborted attempt already reclaimed.
    degraded.repair_repo_node(0).expect("repair");
    let rep = degraded.run_gc().expect("redo after repair");
    let rep_clean = clean.run_gc().expect("uninterrupted");
    assert_eq!(
        rep.dead_fps, rep_clean.dead_fps,
        "the dead set is decided by metadata, not by the node loss"
    );
    // Convergence: identical container sets, physical bytes and index
    // parts; the retained run restores byte-identically on both.
    assert_eq!(
        degraded.repository().container_ids(),
        clean.repository().container_ids(),
        "redo after repair must reach the clean container set"
    );
    assert_eq!(
        degraded.repository().physical_data_bytes(),
        clean.repository().physical_data_bytes(),
        "redo after repair must reclaim the same physical bytes"
    );
    assert_eq!(
        Sha1::digest(degraded.server(0).index().raw_data()),
        Sha1::digest(clean.server(0).index().raw_data()),
        "redo after repair must converge to byte-identical index parts"
    );
    assert!(
        degraded.repository().under_replicated().is_empty(),
        "repair + redo must leave full replication"
    );
    // Jobs are defined in the same order on both clusters, so the
    // surviving job's run id matches across them.
    let run = RunId {
        job: cb,
        version: 0,
    };
    let rc = clean.restore_run(run).expect("clean restore");
    let rd = degraded
        .restore_run(run)
        .expect("degraded-then-repaired restore");
    assert_eq!(rd.bytes, rc.bytes, "retained run diverged after repair");
    assert_eq!(rd.failures, 0);
}

#[test]
fn repair_after_gc_does_not_resurrect_reclaimed_containers() {
    // A node repaired *after* a collection must not bring reclaimed
    // containers back: the repair plans from the live container set, and
    // the tombstoned copies on the repaired node are purged, not copied.
    let (mut c, a, b) = overlapping_cluster(DebarConfig::tiny_test(0).with_replication(2));
    c.delete_run(RunId { job: a, version: 0 }).expect("delete");
    let rep = c.run_gc().expect("gc");
    assert!(
        rep.containers_deleted > 0,
        "fixture must reclaim containers"
    );
    let cids_after_gc = c.repository().container_ids();
    let phys_after_gc = c.repository().physical_data_bytes();

    c.set_repo_node_down(1).expect("node in range");
    c.repair_repo_node(1).expect("repair");
    assert_eq!(
        c.repository().container_ids(),
        cids_after_gc,
        "repair resurrected a reclaimed container"
    );
    assert_eq!(
        c.repository().physical_data_bytes(),
        phys_after_gc,
        "repair changed the repository's physical bytes"
    );
    assert!(
        c.repository().under_replicated().is_empty(),
        "repair must restore full replication"
    );
    let r = c
        .restore_run(RunId { job: b, version: 0 })
        .expect("restore after repair");
    assert_eq!(r.failures, 0);
}
