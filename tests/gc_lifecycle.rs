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
    assert_equivalent, backups, crash_sweep, play, recovered, run, run_scenario, Call, Data,
    Outcome, Scenario, REPLICATION, RETENTION, SWEEP_PARTS,
};
use debar::hash::Sha1;
use debar::workload::ChunkRecord;
use debar::{
    ClientId, ContainerId, Dataset, DebarCluster, DebarConfig, DebarError, Device, Discrepancy,
    FaultKind::{Fail, TornWrite},
    FileContent, JobId, RunId,
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
        let out =
            recovered(&Scenario::tiny("gc-recover", 0, parts).with_cfg(|c| c.with_retention(1)));
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

#[test]
fn gc_crash_point_sweep_converges_at_every_device_op() {
    // Job 0 fills containers, job 1 keeps every other run of 24 chunks of
    // them alive, job 0's run is deleted — so every container of job 0 is
    // a half-live victim and the survivors of about two victims fill one
    // output. Every device op of the packed collection is a crash point:
    // a victim read, a replica write of an output that holds the
    // survivors of several victims, the frees behind it, the index
    // sweeps. `Fail` ends the collection typed, naming the device — a
    // free's fault too, from the free itself — unless the other replica
    // of a victim absorbed it; either way no live chunk is unreadable
    // between a store and the frees it enables, and the redo reaches the
    // clean twin, whichever outputs were durable. At R = 2 a node's
    // `TornWrite` is silent on a replica write and a failed attempt on a
    // read: fsck names exactly the torn copies, on the armed node, the
    // other copy serves, and read-repair plus one scrub heal them all.
    let kept = Data::EveryOtherRun {
        span: 0..1000,
        run: 24,
    };
    let mut fixture = backups(2, []);
    for job in [(0, Data::Counters(0..1000)), (1, kept.clone())] {
        let round = [Call::RunDedup2, Call::ForceSiu];
        fixture.extend(backups(0, [job]).into_iter().chain(round));
    }
    fixture.push(Call::DeleteRun(run(0, 0)));
    let (retained, kept) = (run(1, 0), kept.dataset());
    let FileContent::Records(kept_records) = &kept.files[0].content else {
        unreachable!("a record stream")
    };
    for replication in REPLICATION {
        for parts in SWEEP_PARTS {
            let cfg = DebarConfig::tiny_test(0)
                .with_replication(replication)
                .with_sweep_parts(parts);
            let tag = format!("R={replication} parts={parts}");
            // The shape the sweep is about.
            let mut c = DebarCluster::new(cfg);
            play(&mut c, &fixture);
            let resolve = |c: &DebarCluster| -> Vec<ContainerId> {
                (kept_records.iter().map(|r| c.resolve(&r.fp).expect("live"))).collect()
            };
            let (was_in, written_before) = (resolve(&c), c.repository().stats().containers);
            play(&mut c, &[Call::RunGc]);
            let mut outputs_of: BTreeMap<ContainerId, BTreeSet<ContainerId>> = BTreeMap::new();
            for (victim, now_in) in was_in.into_iter().zip(resolve(&c)) {
                outputs_of.entry(victim).or_default().insert(now_in);
            }
            let straddling = outputs_of.values().filter(|o| o.len() > 1).count();
            let outputs = c.repository().stats().containers - written_before;
            assert!(
                outputs >= 3 && straddling >= 2,
                "{tag}: {outputs} outputs, {straddling} straddling"
            );

            // Every part-disk past the volume takes the same two sweep ops
            // as part 1: wider stripes sweep parts 0 and 1 alone.
            let kinds = |d| match d {
                Device::RepoNode(_) if replication > 1 => vec![Fail, TornWrite],
                Device::IndexPart { part: 2.., .. } => vec![],
                _ => vec![Fail],
            };
            let (mut aborted, mut torn_copies) = (0, 0);
            let (touched, _) = crash_sweep(cfg, &fixture, Call::RunGc, kinds, |leg| {
                let (c, label) = (leg.cluster, format!("{tag} {:?}", leg.trace));
                aborted += u64::from(leg.result.is_err());
                let mid = c.verify_run(retained).expect("verify");
                assert_eq!(mid.failures, 0, "{label}: a live chunk was lost");
                let Device::RepoNode(node) = leg.device else {
                    return;
                };
                if leg.kind != TornWrite {
                    return;
                }
                assert!(leg.result.is_ok(), "{label}: a torn write looks durable");
                let torn = c.repository().under_replicated();
                let corrupt: Vec<Discrepancy> = (torn.iter())
                    .map(|&container| Discrepancy::CorruptCopy { container, node })
                    .collect();
                assert_eq!(c.fsck().discrepancies, corrupt, "{label}");
                let repairs = c.repository().stats().read_repairs;
                let r = c.restore_run(retained).expect("the other copy serves");
                assert_eq!((r.bytes, r.failures), (kept.logical_bytes(), 0), "{label}");
                let scrub = c.scrub().expect("quiesced").value;
                let repaired = c.repository().stats().read_repairs - repairs + scrub.repaired;
                assert_eq!(repaired, torn.len() as u64, "{label}: {scrub:?}");
                assert_eq!(scrub.unrecoverable, 0, "{label}");
                torn_copies += torn.len() as u64;
            });
            // Which op runs when moves with the node timelines; which ops
            // there are, and in what order, does not: repository nodes 0
            // and 1, then the index volume.
            let ops: Vec<u64> = touched.iter().map(|t| t.1).collect();
            let pinned = [[10, 10, 2], [16, 16, 2]][replication - 1];
            assert_eq!(ops[..3], pinned, "{tag}: crash points of {touched:?}");
            // Every output's replica write was a crash point of its own;
            // with one copy of each victim, nothing absorbs a fault — a
            // free's included.
            assert!(aborted >= outputs, "{tag}: {aborted} legs aborted");
            let legs: u64 = ops.iter().take(4).sum();
            let all = replication > 1 || aborted == legs;
            assert!(all, "{tag}: {aborted}/{legs}");
            assert!(replication < 2 || torn_copies >= outputs, "{tag}");
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
        Sha1::digest(&degraded.server(0).index().raw_data()),
        Sha1::digest(&clean.server(0).index().raw_data()),
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
