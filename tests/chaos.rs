//! The self-healing scenario family (ROADMAP: robustness): seeded
//! transient-fault chaos absorbed by the retry layer, typed retry
//! exhaustion, node health walks with quarantine write refusal, and the
//! cluster-wide scrub with read-repair.
//!
//! Four properties are pinned:
//!
//! 1. **Chaos convergence** — a seeded schedule of transient faults
//!    across every repository node, each within the retry budget, never
//!    surfaces an error and converges **byte-identically** with a
//!    fault-free, retry-free run of the same workload — across the
//!    `sweep_parts` × `replication` matrix and on a multi-server
//!    cluster. A permanently-downed node at `R >= 2` converges too,
//!    retry policy or not.
//! 2. **Typed exhaustion** — a transient outliving the retry budget
//!    surfaces `DebarError::RetriesExhausted` naming the node and the
//!    attempt count, on both the read path (strict restore) and the
//!    write path (`InterruptedDedup2` whose cause names the node);
//!    clearing the fault and re-running converges.
//! 3. **Health walk** — detected corruption drives a node `Healthy` →
//!    `Suspect` → `Quarantined` at the configured thresholds; writes
//!    placed on the quarantined node refuse typed
//!    (`DebarError::NodeQuarantined`) while replication can be met
//!    elsewhere; `repair_repo_node` resets the walk and the redo
//!    converges.
//! 4. **Scrub closes the loop** — `DebarCluster::scrub` detects and
//!    repairs **every** injected corrupt copy at `R = 2` (byte-identical
//!    restores afterwards), is idempotent, refuses typed while dedup-2
//!    state is staged, and never resurrects a reclaimed container —
//!    even right after a disk-replacing `repair_repo_node`.

mod common;

use common::{
    arm_in, assert_equivalent, replication_matrix, run_scenario, sweep_parts_matrix, Failure,
    Scenario,
};
use debar::workload::ChunkRecord;
use debar::{
    ClientId, Damage, Dataset, DebarCluster, DebarConfig, DebarError, Device, FaultPlan, Health,
    HealthPolicy, JobId, RetryPolicy, RunId, ScrubReport,
};

/// The retry policy every chaos leg runs under: 4 attempts, so the
/// harness can arm transients failing up to 3 consecutive times.
fn chaos_retry() -> RetryPolicy {
    RetryPolicy::new(4, 0.002)
}

/// A quiesced cluster holding one backed-up, dedup-2'd run of `n`
/// synthetic counter chunks (~8 KiB average, so `n = 1500` spans a dozen
/// 1 MiB containers).
fn loaded_cluster(cfg: DebarConfig, n: u64) -> (DebarCluster, JobId) {
    let mut c = DebarCluster::new(cfg);
    let job = c.define_job("chaos", ClientId(0));
    let recs: Vec<ChunkRecord> = (0..n).map(ChunkRecord::of_counter).collect();
    c.backup(job, &Dataset::from_records("data", recs))
        .expect("backup");
    c.run_dedup2().expect("dedup2");
    c.force_siu().expect("siu");
    (c, job)
}

#[test]
fn transient_chaos_converges_byte_identically_across_matrix() {
    // In-budget transients must be invisible to the public API: the
    // chaotic run surfaces zero errors (asserted inside the harness),
    // actually retries, and lands on the byte-identical outcome of a
    // fault-free, retry-free run — at every partition count and
    // replication factor.
    for repl in replication_matrix() {
        for parts in sweep_parts_matrix() {
            let clean = run_scenario(
                &Scenario::tiny("chaos", 0, parts).with_cfg(|c| c.with_replication(repl)),
            );
            assert_eq!(
                clean.retried_ops, 0,
                "chaos: r={repl} parts={parts}: fault-free run must not retry"
            );
            let chaotic = run_scenario(
                &Scenario::tiny("chaos", 0, parts)
                    .with_cfg(|c| c.with_replication(repl).with_retry(chaos_retry()))
                    // Suspect-only health: errors re-rank replica reads
                    // but never gate writes, so the outcome stays
                    // comparable. (Quarantine refusal is test 3's job.)
                    .with_cfg(|c| c.with_health(HealthPolicy::new(4, 0)))
                    .with_failure(Failure::TransientChaos { seed: 0xC4A0_0001 }),
            );
            assert!(
                chaotic.retried_ops > 0,
                "chaos: r={repl} parts={parts}: the schedule never engaged the retry layer"
            );
            assert_equivalent(
                &clean,
                &chaotic,
                &format!("chaos: r={repl} parts={parts} diverged under transient chaos"),
            );
        }
    }
}

#[test]
fn transient_chaos_converges_multi_server() {
    for parts in sweep_parts_matrix() {
        let clean = run_scenario(&Scenario::tiny("chaos-w1", 1, parts));
        let chaotic = run_scenario(
            &Scenario::tiny("chaos-w1", 1, parts)
                .with_cfg(|c| {
                    c.with_retry(chaos_retry())
                        .with_health(HealthPolicy::new(4, 0))
                })
                .with_failure(Failure::TransientChaos { seed: 0xC4A0_0002 }),
        );
        assert!(chaotic.retried_ops > 0, "chaos-w1 parts={parts}: no retry");
        assert_equivalent(
            &clean,
            &chaotic,
            &format!("chaos-w1: parts={parts} diverged under transient chaos"),
        );
    }
}

#[test]
fn node_loss_with_retry_enabled_still_converges_at_r2() {
    // Retries are for *transient* faults: a permanently-down node is
    // skipped by failover reads, not retried into. A retrying policy
    // must not perturb the degraded outcome.
    for repl in replication_matrix().into_iter().filter(|&r| r >= 2) {
        for parts in sweep_parts_matrix() {
            let clean = run_scenario(
                &Scenario::tiny("chaos-down", 0, parts).with_cfg(|c| c.with_replication(repl)),
            );
            let degraded = run_scenario(
                &Scenario::tiny("chaos-down", 0, parts)
                    .with_cfg(|c| c.with_replication(repl).with_retry(chaos_retry()))
                    .with_failure(Failure::RepoNodeDown { node: 1 }),
            );
            assert_equivalent(
                &clean,
                &degraded,
                &format!("chaos-down: r={repl} parts={parts} diverged after node loss"),
            );
        }
    }
}

#[test]
fn retry_exhaustion_is_typed_on_the_read_path() {
    // A transient that outlives the budget (5 consecutive failures vs 2
    // attempts) must surface RetriesExhausted naming the node — not a
    // panic, not a silent zero-filled read.
    let (mut c, job) = loaded_cluster(
        DebarConfig::tiny_test(0).with_retry(RetryPolicy::new(2, 0.001)),
        1500,
    );
    let run = RunId { job, version: 0 };
    let nodes = c.repository().node_count();
    for node in 0..nodes {
        arm_in(&mut c, Device::RepoNode(node), 0, |at| {
            FaultPlan::transient_at(at, 5)
        });
    }
    let err = c
        .restore_run(run)
        .expect_err("a 2-attempt budget cannot absorb 5 consecutive failures");
    match err {
        DebarError::RetriesExhausted { node, attempts } => {
            assert!(node < nodes, "error must name a real node, got {node}");
            assert_eq!(attempts, 2, "error must report the exhausted budget");
        }
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
    // The fault was transient: clear it and the same restore converges.
    c.clear_fault_plans();
    let r = c.restore_run(run).expect("restore after the fault clears");
    assert_eq!(r.failures, 0);
    assert_eq!(r.chunks, 1500);
}

#[test]
fn retry_exhaustion_is_typed_on_the_write_path() {
    let mut c = DebarCluster::new(DebarConfig::tiny_test(0).with_retry(RetryPolicy::new(3, 0.001)));
    let job = c.define_job("chaos-w", ClientId(0));
    let recs: Vec<ChunkRecord> = (0..1500).map(ChunkRecord::of_counter).collect();
    c.backup(job, &Dataset::from_records("data", recs))
        .expect("backup");
    let nodes = c.repository().node_count();
    for node in 0..nodes {
        arm_in(&mut c, Device::RepoNode(node), 0, |at| {
            FaultPlan::transient_at(at, 9)
        });
    }
    let err = c
        .run_dedup2()
        .expect_err("a 3-attempt budget cannot absorb 9 consecutive failures");
    match err {
        DebarError::InterruptedDedup2 { cause, .. } => match *cause {
            DebarError::RetriesExhausted { node, attempts } => {
                assert!(node < nodes, "cause must name a real node, got {node}");
                assert_eq!(attempts, 3, "cause must report the exhausted budget");
            }
            other => panic!("expected RetriesExhausted cause, got {other:?}"),
        },
        other => panic!("expected InterruptedDedup2, got {other:?}"),
    }
    // Interrupted dedup-2 is resumable: clear the fault and converge.
    c.clear_fault_plans();
    c.run_dedup2().expect("redo after the fault clears");
    c.force_siu().expect("siu");
    let r = c
        .restore_run(RunId { job, version: 0 })
        .expect("restore after redo");
    assert_eq!(r.failures, 0);
    assert_eq!(r.chunks, 1500);
}

#[test]
fn read_failures_walk_health_to_quarantine_and_writes_refuse_typed() {
    // suspect_after=1, quarantine_after=2: each armed single-shot read
    // fault fires exactly once, so the first failed verify pass marks
    // the node Suspect and the second quarantines it.
    let (mut c, job) = loaded_cluster(
        DebarConfig::tiny_test(0).with_health(HealthPolicy::new(1, 2)),
        1500,
    );
    let run = RunId { job, version: 0 };
    for node in 0..c.repository().node_count() {
        assert_eq!(
            c.repo_node_health(node).expect("node in range"),
            Health::Healthy
        );
    }

    arm_in(&mut c, Device::RepoNode(0), 0, FaultPlan::fail_at);
    let v1 = c.verify_run(run).expect("verify is non-strict");
    assert!(v1.failures > 0, "the faulted read must fail verification");
    assert_eq!(
        v1.failover_reads, 0,
        "at R=1 there is no replica to fail over to"
    );
    assert_eq!(
        c.repo_node_health(0).expect("node in range"),
        Health::Suspect,
        "first error must cross suspect_after=1"
    );
    arm_in(&mut c, Device::RepoNode(0), 0, FaultPlan::fail_at);
    let v2 = c.verify_run(run).expect("verify");
    assert!(v2.failures > 0);
    assert_eq!(
        c.repo_node_health(0).expect("node in range"),
        Health::Quarantined,
        "second error must cross quarantine_after=2"
    );

    // New containers placed on the quarantined node refuse typed while
    // the healthy node alone can satisfy R=1.
    let recs2: Vec<ChunkRecord> = (100_000..103_000).map(ChunkRecord::of_counter).collect();
    c.backup(job, &Dataset::from_records("data", recs2))
        .expect("backup");
    let err = c
        .run_dedup2()
        .expect_err("a write placed on the quarantined node must refuse typed");
    match err {
        DebarError::InterruptedDedup2 { cause, .. } => match *cause {
            DebarError::NodeQuarantined { node } => assert_eq!(node, 0),
            other => panic!("expected NodeQuarantined cause, got {other:?}"),
        },
        other => panic!("expected InterruptedDedup2, got {other:?}"),
    }

    // Repair the node: health resets and the refused round resumes to a
    // clean, restorable state.
    c.repair_repo_node(0).expect("repair resets health");
    assert_eq!(
        c.repo_node_health(0).expect("node in range"),
        Health::Healthy
    );
    c.run_dedup2().expect("redo after repair converges");
    c.force_siu().expect("siu");
    for version in 0..2 {
        let r = c
            .restore_run(RunId { job, version })
            .expect("restore after repair");
        assert_eq!(r.failures, 0, "version {version} after repair");
    }
}

#[test]
fn scrub_detects_and_repairs_every_corrupt_copy_at_r2() {
    let (mut c, job) = loaded_cluster(DebarConfig::tiny_test(0).with_replication(2), 1500);
    let run = RunId { job, version: 0 };
    let cids = c.repository().container_ids();
    assert!(cids.len() >= 2, "fixture must span several containers");
    for &cid in &cids {
        c.set_damage(cid, Some(Damage::BitFlip)).expect("exists");
    }

    let scrubbed = c.scrub().expect("quiesced cluster scrubs");
    assert!(scrubbed.cost > 0.0, "a scrub charges real maintenance I/O");
    let rep = scrubbed.value;
    assert_eq!(
        rep.copies_checked,
        2 * cids.len() as u64,
        "the scrub must check every copy on every node"
    );
    assert_eq!(
        rep.corrupt_found,
        cids.len() as u64,
        "the scrub must detect 100% of the injected corrupt copies"
    );
    assert_eq!(
        rep.repaired,
        cids.len() as u64,
        "every corrupt copy has a clean sibling at R=2"
    );
    assert_eq!(rep.unrecoverable, 0);

    // Idempotent: a second pass checks the same copies and finds nothing.
    let rep2 = c.scrub().expect("scrub").value;
    assert_eq!(
        rep2,
        ScrubReport {
            copies_checked: rep.copies_checked,
            ..ScrubReport::default()
        },
        "an immediate re-scrub must find nothing to do"
    );

    // The heal is complete: restores are byte-identical with a pristine
    // control cluster and trip zero degraded-read counters.
    let r = c.restore_run(run).expect("restore after scrub");
    assert_eq!(r.failures, 0);
    assert_eq!(r.corrupt_reads, 0, "the scrub left no corrupt copy behind");
    assert_eq!(r.failover_reads, 0);
    let (mut control, cj) = loaded_cluster(DebarConfig::tiny_test(0).with_replication(2), 1500);
    let rc = control
        .restore_run(RunId {
            job: cj,
            version: 0,
        })
        .expect("control restore");
    assert_eq!(r.bytes, rc.bytes, "scrubbed restore diverged from control");
    assert_eq!(r.chunks, rc.chunks);
}

#[test]
fn failover_reads_repair_corrupt_copies_the_scrub_then_finds_clean() {
    // Corrupt one copy of every container at R=2, then restore: each
    // read either lands on the clean copy (corrupt sibling untouched) or
    // detects the corrupt one, fails over and read-repairs it inline.
    // Between the inline repairs and one scrub pass, every copy is
    // healed — the two mechanisms must exactly account for all of them.
    let (mut c, job) = loaded_cluster(DebarConfig::tiny_test(0).with_replication(2), 1500);
    let run = RunId { job, version: 0 };
    let cids = c.repository().container_ids();
    for &cid in &cids {
        c.set_damage(cid, Some(Damage::BitFlip)).expect("exists");
    }
    let r = c
        .restore_run(run)
        .expect("the clean replica serves every read");
    assert_eq!(r.failures, 0);
    assert!(
        r.corrupt_reads >= 1,
        "balanced reads across R=2 must trip at least one corrupt copy"
    );
    assert_eq!(
        r.failover_reads, 0,
        "corrupt-copy failovers count in corrupt_reads, not failover_reads"
    );
    let repaired_inline = c.repository().stats().read_repairs;
    assert_eq!(
        repaired_inline, r.corrupt_reads,
        "every detected corrupt copy must be read-repaired inline"
    );
    let rep = c.scrub().expect("scrub").value;
    assert_eq!(
        repaired_inline + rep.corrupt_found,
        cids.len() as u64,
        "inline read-repair and the scrub must account for every corrupt copy exactly once"
    );
    assert_eq!(rep.repaired, rep.corrupt_found);
    assert_eq!(rep.unrecoverable, 0);
    let rep2 = c.scrub().expect("scrub").value;
    assert_eq!(rep2.corrupt_found, 0, "the loop is closed: nothing left");
}

#[test]
fn scrub_refuses_typed_while_dedup2_state_is_staged() {
    let mut c = DebarCluster::new(DebarConfig::tiny_test(0));
    let job = c.define_job("chaos-q", ClientId(0));
    let recs: Vec<ChunkRecord> = (0..800).map(ChunkRecord::of_counter).collect();
    c.backup(job, &Dataset::from_records("data", recs))
        .expect("backup");
    let err = c
        .scrub()
        .expect_err("staged dedup-2 state must gate the scrub");
    assert!(
        matches!(err, DebarError::NotQuiesced { server: 0 }),
        "expected NotQuiesced, got {err:?}"
    );
    c.run_dedup2().expect("dedup2");
    c.force_siu().expect("siu");
    c.scrub().expect("quiesced cluster scrubs");
}

#[test]
fn repair_is_idempotent_and_resurrects_nothing_after_gc() {
    // Repair twice after GC reclaimed containers: the first repair
    // replaces the downed disk, the second is a no-op, the scrub finds
    // nothing, and no reclaimed container comes back.
    let mut c = DebarCluster::new(
        DebarConfig::tiny_test(0)
            .with_replication(2)
            .with_retention(1),
    );
    let job = c.define_job("chaos-gc", ClientId(0));
    for g in 0..3u64 {
        // Overlapping generations: shared chunks dedup, expired-only
        // chunks die at collection time.
        let recs: Vec<ChunkRecord> = (g * 500..g * 500 + 1500)
            .map(ChunkRecord::of_counter)
            .collect();
        c.backup(job, &Dataset::from_records("data", recs))
            .expect("backup");
        c.run_dedup2().expect("dedup2");
    }
    c.force_siu().expect("siu");
    let expired = c.expire_runs();
    assert_eq!(
        expired.len(),
        2,
        "retention 1 must expire two of three runs"
    );
    let gc = c.run_gc().expect("gc");
    assert!(gc.containers_deleted > 0, "fixture must reclaim containers");
    let cids = c.repository().container_ids();
    let phys = c.repository().physical_data_bytes();

    c.set_repo_node_down(1).expect("node in range");
    let first = c.repair_repo_node(1).expect("repair replaces the disk");
    assert!(first.recopied > 0, "a replaced disk must be repopulated");
    let second = c.repair_repo_node(1).expect("second repair");
    assert_eq!(second.recopied, 0, "a second repair must be a no-op");
    assert_eq!(
        second.scanned, first.scanned,
        "both passes must plan over the same live copy set"
    );

    let rep = c.scrub().expect("scrub after repair").value;
    assert_eq!(
        (rep.corrupt_found, rep.repaired, rep.unrecoverable),
        (0, 0, 0),
        "a scrub right after repair must find nothing"
    );
    assert_eq!(
        c.repository().container_ids(),
        cids,
        "repair/scrub resurrected a reclaimed container"
    );
    assert_eq!(
        c.repository().physical_data_bytes(),
        phys,
        "repair/scrub changed the repository's physical bytes"
    );
    assert!(
        c.repository().under_replicated().is_empty(),
        "repair must restore full replication"
    );
    let r = c
        .restore_run(RunId { job, version: 2 })
        .expect("retained run restores");
    assert_eq!(r.failures, 0);
}
