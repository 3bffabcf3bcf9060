//! Failure-injection integration tests on the parameterized scenario
//! harness: index corruption + repository-scan recovery, verify jobs and
//! partial restores — each run across the striped sweep-partition matrix
//! (`sweep_parts ∈ {1, 2, 4}` by default) and asserted byte-equivalent
//! across partitions.

mod common;

use common::{
    assert_equivalent, assert_same_dedup, recovered, run_scenario, Scenario, SWEEP_PARTS,
};
use debar::workload::files::{FileTreeConfig, FileTreeGen};
use debar::{ClientId, Dataset, DebarCluster, DebarConfig, RunId};

#[test]
fn verify_jobs_and_partial_restores_across_striped_matrix() {
    // The §3.1 verify job (integrity walk, no client stream) and the
    // single-file restore path, exercised by the harness on every run of
    // a multi-client scenario, for every partition count.
    for parts in SWEEP_PARTS {
        let out = run_scenario(&Scenario::tiny("rec-verify", 0, parts));
        assert_eq!(out.verify_failures, 0, "parts={parts}: verify failures");
        assert_eq!(out.restore_failures, 0, "parts={parts}: restore failures");
        assert_eq!(out.restored_bytes, out.logical_bytes, "parts={parts}");
        assert!(
            out.file_restore_bytes > 0,
            "parts={parts}: partial restores returned nothing"
        );
    }
}

#[test]
fn index_loss_recoverable_across_striped_matrix() {
    // Lose every index part after the backups, rebuild each from the
    // chunk repository, then verify + restore every run. The recovered
    // state must also be byte-identical across partition counts (the
    // striped rebuild writes the same bucket array, just over more
    // part-disks).
    let base = recovered(&Scenario::tiny("rec-loss", 1, 1));
    assert_eq!(base.verify_failures, 0);
    assert_eq!(base.restore_failures, 0);
    for parts in SWEEP_PARTS.into_iter().filter(|&p| p != 1) {
        let striped = recovered(&Scenario::tiny("rec-loss", 1, parts));
        assert_equivalent(&base, &striped, &format!("recovery parts={parts}"));
    }
}

#[test]
fn recovery_outcome_matches_unfailed_run() {
    // A scenario with index loss + recovery must end with the same entry
    // set and the same restore results as the same scenario without the
    // failure. (Raw index *bytes* may differ: the repository-scan rebuild
    // inserts in container order, which can place entries of an
    // overflowing bucket differently than the incremental SIU order did —
    // resolvability, not layout, is the recovery contract.)
    for parts in [1usize, 2] {
        let healthy = run_scenario(&Scenario::tiny("rec-eq", 1, parts));
        let rebuilt = recovered(&Scenario::tiny("rec-eq", 1, parts));
        assert_same_dedup(
            &healthy,
            &rebuilt,
            &format!("recovered-vs-healthy parts={parts}"),
        );
    }
}

#[test]
fn striped_recovery_rebuild_is_charged_cheaper() {
    // The rebuilt part's write sweep lands on `parts` part-disks, so the
    // recovery of a striped deployment costs less virtual time.
    let cost_of = |parts: usize| {
        let mut cluster = DebarCluster::new(DebarConfig::tiny_test(0).with_sweep_parts(parts));
        let job = cluster.define_job("docs", ClientId(0));
        let tree = FileTreeGen::new(FileTreeConfig {
            files: 12,
            ..FileTreeConfig::default()
        })
        .initial();
        cluster
            .backup(job, &Dataset::from_file_specs(&tree))
            .expect("backup");
        cluster.run_dedup2().expect("dedup2");
        cluster.force_siu().expect("siu");
        let cost = cluster.recover_index(0).expect("recover");
        let rep = cluster
            .verify_run(RunId { job, version: 0 })
            .expect("verify");
        assert_eq!(rep.failures, 0, "parts={parts}: recovery broke integrity");
        cost
    };
    let scalar = cost_of(1);
    let striped = cost_of(4);
    assert!(
        striped < scalar,
        "striped recovery {striped} not below scalar {scalar}"
    );
}
