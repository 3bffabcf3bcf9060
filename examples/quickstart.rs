//! Quickstart: back up a real file tree, de-duplicate it, mutate it, back
//! it up again, and restore everything with byte-exact verification.
//!
//! Run: `cargo run --release --example quickstart`

use debar::simio::throughput::{human_bytes, human_secs};
use debar::workload::files::{FileTreeConfig, FileTreeGen, MutationConfig};
use debar::{ClientId, Dataset, DebarCluster, DebarConfig, RunId};

fn main() {
    // A single-server DEBAR deployment at 1/1024 of the paper's sizes
    // (32 MB disk index standing in for 32 GB, and so on — all rates stay
    // at the paper's hardware speeds, so MB/s figures are comparable).
    let mut cluster = DebarCluster::new(DebarConfig::single_server_scaled(1024));
    let job = cluster.define_job("home-directories", ClientId(0));

    // Version 1: a synthetic file tree with realistic cross-file duplication.
    let mut gen = FileTreeGen::new(FileTreeConfig {
        files: 48,
        ..FileTreeConfig::default()
    });
    let v1 = gen.initial();
    let d1 = cluster
        .backup(job, &Dataset::from_file_specs(&v1))
        .expect("backup");
    println!(
        "backup v1: {} logical in {} chunks, {} transferred ({:.2}x phase-I compression)",
        human_bytes(d1.logical_bytes),
        d1.logical_chunks,
        human_bytes(d1.transferred_bytes),
        d1.compression_ratio(),
    );

    // De-duplication phase II: SIL -> chunk storing -> SIU.
    let d2 = cluster.run_dedup2().expect("dedup2");
    println!(
        "dedup-2 v1: {} new chunks stored in {} containers, {} duplicates discarded ({} wall)",
        d2.store.stored_chunks,
        d2.store.containers,
        d2.store.discarded,
        human_secs(d2.total_wall()),
    );

    // Version 2: edits, insertions, deletions, new files. The preliminary
    // filter (primed from the job chain) and CDC's resynchronization keep
    // the transfer tiny.
    let v2 = gen.mutate(&v1, MutationConfig::default());
    let d1b = cluster
        .backup(job, &Dataset::from_file_specs(&v2))
        .expect("backup");
    println!(
        "backup v2: {} logical, only {} transferred ({:.2}x phase-I compression)",
        human_bytes(d1b.logical_bytes),
        human_bytes(d1b.transferred_bytes),
        d1b.compression_ratio(),
    );
    let d2b = cluster.run_dedup2().expect("dedup2");
    println!(
        "dedup-2 v2: {} new chunks, {} duplicates eliminated before storage",
        d2b.store.stored_chunks,
        d2b.dup_registered + d2b.dup_pending + d2b.store.discarded,
    );
    cluster.force_siu().expect("siu");

    // Restore both versions; every chunk is re-hashed and checked against
    // its fingerprint.
    for version in 0..2u32 {
        let rep = cluster
            .restore_run(RunId { job, version })
            .expect("restore");
        assert_eq!(rep.failures, 0, "restore verification failed");
        println!(
            "restore v{}: {} across {} files at {:.1} MiB/s (LPC hit ratio {:.1}%)",
            version + 1,
            human_bytes(rep.bytes),
            rep.files,
            rep.throughput_mibps(),
            rep.lpc_hit_ratio() * 100.0,
        );
    }

    let repo = cluster.repository().stats();
    println!(
        "repository: {} containers, {} stored — overall compression {:.2}:1",
        repo.containers,
        human_bytes(repo.data_bytes),
        (d1.logical_bytes + d1b.logical_bytes) as f64 / repo.data_bytes as f64,
    );

    // Show the underlying config for orientation.
    let cfg: DebarConfig = *cluster.config();
    println!(
        "config: {} server(s), {} index/part, {} buckets of {}B, container {}",
        cfg.servers(),
        human_bytes(cfg.index_part_bytes),
        cfg.index_part_params().buckets(),
        cfg.bucket_bytes,
        human_bytes(cfg.container_bytes),
    );
}
