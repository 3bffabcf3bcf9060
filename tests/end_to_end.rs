//! End-to-end integration: real bytes through the full pipeline —
//! CDC chunking → SHA-1 fingerprinting → preliminary filter → chunk log →
//! SIL → SISL containers → SIU → restore with per-chunk verification.

mod common;

use common::{assert_equivalent, run_scenario, Scenario, SWEEP_PARTS};
use debar::workload::files::{FileTreeConfig, FileTreeGen, MutationConfig};
use debar::{ClientId, Dataset, DebarCluster, DebarConfig, RunId};

fn tree_gen() -> FileTreeGen {
    FileTreeGen::new(FileTreeConfig {
        files: 16,
        ..FileTreeConfig::default()
    })
}

#[test]
fn backup_restore_roundtrip_is_byte_exact() {
    let mut cluster = DebarCluster::new(DebarConfig::tiny_test(0));
    let job = cluster.define_job("docs", ClientId(0));
    let tree = tree_gen().initial();
    let logical: u64 = tree.iter().map(|f| f.data.len() as u64).sum();

    let d1 = cluster
        .backup(job, &Dataset::from_file_specs(&tree))
        .expect("backup");
    assert_eq!(d1.logical_bytes, logical);
    let d2 = cluster.run_dedup2().expect("dedup2");
    assert!(d2.store.stored_chunks > 0);
    cluster.force_siu().expect("siu");

    let rep = cluster
        .restore_run(RunId { job, version: 0 })
        .expect("restore");
    assert_eq!(
        rep.failures, 0,
        "every chunk must re-hash to its fingerprint"
    );
    assert_eq!(rep.bytes, logical, "restored byte count differs");
    assert_eq!(rep.files, tree.len() as u64);
}

#[test]
fn incremental_versions_share_storage() {
    let mut cluster = DebarCluster::new(DebarConfig::tiny_test(0));
    let job = cluster.define_job("docs", ClientId(0));
    let mut gen = tree_gen();
    let v1 = gen.initial();
    let v2 = gen.mutate(&v1, MutationConfig::default());

    let d1 = cluster
        .backup(job, &Dataset::from_file_specs(&v1))
        .expect("backup");
    cluster.run_dedup2().expect("dedup2");
    let stored_v1 = cluster.repository().stats().data_bytes;

    let d1b = cluster
        .backup(job, &Dataset::from_file_specs(&v2))
        .expect("backup");
    cluster.run_dedup2().expect("dedup2");
    cluster.force_siu().expect("siu");
    let stored_both = cluster.repository().stats().data_bytes;

    // The second version's new storage must be far below its logical size
    // (CDC resynchronization + the job-chain preliminary filter).
    let delta = stored_both - stored_v1;
    assert!(
        (delta as f64) < 0.5 * d1b.logical_bytes as f64,
        "version 2 stored {delta} of {} logical",
        d1b.logical_bytes
    );
    assert!(d1.transferred_bytes > 0);

    // Both versions restore clean.
    for version in 0..2u32 {
        let rep = cluster
            .restore_run(RunId { job, version })
            .expect("restore");
        assert_eq!(rep.failures, 0, "version {version} failed verification");
    }
}

#[test]
fn distinct_jobs_deduplicate_against_each_other_in_phase2() {
    // Two clients back up overlapping trees under different jobs; the
    // preliminary filter cannot help (different chains), so dedup-2's SIL
    // must catch the overlap.
    let mut cluster = DebarCluster::new(DebarConfig::tiny_test(0));
    let a = cluster.define_job("a", ClientId(0));
    let b = cluster.define_job("b", ClientId(1));
    let tree = tree_gen().initial();

    cluster
        .backup(a, &Dataset::from_file_specs(&tree))
        .expect("backup");
    let d2a = cluster.run_dedup2().expect("dedup2");
    cluster
        .backup(b, &Dataset::from_file_specs(&tree))
        .expect("backup");
    let d2b = cluster.run_dedup2().expect("dedup2");
    cluster.force_siu().expect("siu");

    assert!(d2a.store.stored_chunks > 0);
    assert_eq!(
        d2b.store.stored_chunks, 0,
        "identical content must not store twice"
    );
    assert_eq!(
        d2b.dup_registered as usize,
        d2a.store.stored_chunks as usize
    );

    let rep = cluster
        .restore_run(RunId { job: b, version: 0 })
        .expect("restore");
    assert_eq!(rep.failures, 0);
}

#[test]
fn striped_pipeline_is_byte_exact_and_byte_identical() {
    // The full real-byte pipeline (CDC → SHA-1 → filter → log → SIL →
    // SISL → SIU → restore) under the striped multi-part index: every
    // partition count restores byte-exact, and all of them leave the
    // same index bytes as the single-volume run.
    let base = run_scenario(&Scenario::tiny("e2e", 0, 1).with_cfg(|c| DebarConfig {
        siu_interval: 1,
        ..c
    }));
    assert_eq!(base.restored_bytes, base.logical_bytes);
    assert!(base.dedup_ratio() > 1.0, "versions must share storage");
    for parts in SWEEP_PARTS.into_iter().filter(|&p| p != 1) {
        let striped = run_scenario(&Scenario::tiny("e2e", 0, parts).with_cfg(|c| DebarConfig {
            siu_interval: 1,
            ..c
        }));
        assert_equivalent(&base, &striped, &format!("e2e parts={parts}"));
    }
}

#[test]
fn deterministic_end_to_end() {
    let run = || {
        let mut cluster = DebarCluster::new(DebarConfig::tiny_test(1));
        let job = cluster.define_job("d", ClientId(0));
        let tree = tree_gen().initial();
        cluster
            .backup(job, &Dataset::from_file_specs(&tree))
            .expect("backup");
        let d2 = cluster.run_dedup2().expect("dedup2");
        cluster.force_siu().expect("siu");
        let rep = cluster
            .restore_run(RunId { job, version: 0 })
            .expect("restore");
        (
            d2.store.stored_chunks,
            d2.store.containers,
            rep.bytes,
            rep.elapsed.to_bits(),
            cluster.index_entries(),
        )
    };
    assert_eq!(
        run(),
        run(),
        "virtual-time results must be bit-reproducible"
    );
}
