//! Distributed deployment scenario: start with one backup server, grow the
//! cluster live to four servers using the paper's §4.1 scaling properties
//! (capacity scaling doubles each index part; performance scaling splits
//! parts across twice the servers), while multi-client backups with
//! cross-stream duplication keep flowing and old runs stay restorable.
//!
//! Run: `cargo run --release --example distributed_cluster`

use debar::simio::throughput::{human_bytes, mibps};
use debar::workload::{MultiStreamConfig, MultiStreamGen};
use debar::{ClientId, Dataset, DebarCluster, DebarConfig, RunId};

fn main() {
    let denom = 1024u64;
    let clients = 8usize;
    let mut cfg = DebarConfig::cluster_scaled(0, 32 << 30, denom);
    cfg.siu_interval = 1;
    let mut cluster = DebarCluster::new(cfg);
    let jobs: Vec<_> = (0..clients)
        .map(|i| cluster.define_job(format!("stream-{i}"), ClientId(i as u32)))
        .collect();
    let mut gen = MultiStreamGen::new(MultiStreamConfig {
        clients,
        version_chunks: 4096,
        ..MultiStreamConfig::default()
    });

    let mut round = 0u32;
    let mut backup_round = |cluster: &mut DebarCluster, gen: &mut MultiStreamGen| {
        round += 1;
        let t0 = cluster.align_clocks();
        let mut logical = 0u64;
        for (i, v) in gen.next_round().into_iter().enumerate() {
            logical += cluster
                .backup(jobs[i], &Dataset::from_records("v", v))
                .expect("backup")
                .logical_bytes;
        }
        let d2 = cluster.run_dedup2().expect("dedup2");
        let wall = cluster.align_clocks() - t0;
        println!(
            "round {round}: {} servers, {} logical at {:.0} MiB/s aggregate, \
             {} new chunks ({} cross-stream dups adjudicated)",
            cluster.server_count(),
            human_bytes(logical),
            mibps(logical, wall),
            d2.store.stored_chunks,
            d2.dup_registered + d2.dup_pending,
        );
    };

    // Two rounds on the single-server deployment.
    backup_round(&mut cluster, &mut gen);
    backup_round(&mut cluster, &mut gen);

    // The index is filling up: capacity-scale every part (2^n -> 2^{n+1}).
    let util_before = cluster.index_utilization();
    let cost = cluster.scale_up_indexes().expect("capacity scaling");
    println!(
        "capacity scaling: utilization {:.1}% -> {:.1}%, rebuilt in {:.2}s virtual",
        util_before * 100.0,
        cluster.index_utilization() * 100.0,
        cost,
    );
    backup_round(&mut cluster, &mut gen);

    // Demand keeps growing: split into 2, then 4 backup servers. Stored
    // data and run metadata migrate with the index parts.
    for _ in 0..2 {
        cluster.force_siu().expect("siu");
        let cost = cluster.scale_out().expect("scale-out");
        println!(
            "performance scaling: now {} servers (redistribution {:.2}s virtual)",
            cluster.server_count(),
            cost,
        );
        backup_round(&mut cluster, &mut gen);
    }

    // Every version ever written — including those backed up before any
    // scaling — restores cleanly from the grown cluster.
    cluster.force_siu().expect("siu");
    let mut restored = 0u64;
    for &job in &jobs {
        let versions = cluster
            .director
            .metadata
            .job(job)
            .expect("defined")
            .chain
            .len() as u32;
        for v in 0..versions {
            let rep = cluster
                .restore_run(RunId { job, version: v })
                .expect("restore");
            assert_eq!(rep.failures, 0, "restore failed after scaling");
            restored += rep.bytes;
        }
    }
    println!(
        "restored all {} versions bit-clean: {} total",
        jobs.len() * 5,
        human_bytes(restored),
    );
    println!(
        "repository: {} containers across {} storage nodes",
        cluster.repository().stats().containers,
        cluster.repository().node_count(),
    );
}
