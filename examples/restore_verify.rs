//! Restore-path deep dive: a disaster-recovery drill.
//!
//! Backs up ten mutating versions of a file tree, simulates losing the
//! client data, and restores the latest version with SHA-1 verification of
//! every chunk.
//!
//! Run: `cargo run --release --example restore_verify`

use debar::simio::throughput::human_bytes;
use debar::workload::files::{FileTreeConfig, FileTreeGen, MutationConfig};
use debar::{ClientId, Dataset, DebarCluster, DebarConfig, RunId};

fn main() {
    let mut cfg = DebarConfig::single_server_scaled(2048);
    cfg.repo_nodes = 4;
    let mut cluster = DebarCluster::new(cfg);
    let job = cluster.define_job("project-tree", ClientId(0));

    // Ten nightly versions with ongoing edits.
    let mut gen = FileTreeGen::new(FileTreeConfig {
        files: 32,
        ..FileTreeConfig::default()
    });
    let mut tree = gen.initial();
    let mut last_tree = tree.clone();
    for night in 0..10 {
        let rep = cluster
            .backup(job, &Dataset::from_file_specs(&tree))
            .expect("backup");
        if night % 3 == 2 {
            cluster.run_dedup2().expect("dedup2");
        }
        println!(
            "night {night}: {} logical, {} transferred",
            human_bytes(rep.logical_bytes),
            human_bytes(rep.transferred_bytes),
        );
        last_tree = tree.clone();
        tree = gen.mutate(&tree, MutationConfig::default());
    }
    cluster.run_dedup2().expect("dedup2");
    cluster.force_siu().expect("siu");

    // --- Disaster-recovery drill: restore the latest stored version. ---
    let latest = RunId { job, version: 9 };
    let rep = cluster.restore_run(latest).expect("restore");
    assert_eq!(
        rep.failures, 0,
        "every chunk must re-hash to its fingerprint"
    );
    println!(
        "\nrestore v10: {} files, {} — all {} chunks verified by SHA-1, \
         LPC hit ratio {:.1}%",
        rep.files,
        human_bytes(rep.bytes),
        rep.chunks,
        rep.lpc_hit_ratio() * 100.0,
    );
    // Cross-check byte totals against the client's own copy of v10.
    let expect: u64 = last_tree.iter().map(|f| f.data.len() as u64).sum();
    assert_eq!(rep.bytes, expect, "restored byte count mismatch");
    println!(
        "byte totals match the client's original copy ({})",
        human_bytes(expect)
    );
}
