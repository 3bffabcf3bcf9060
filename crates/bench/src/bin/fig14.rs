//! Regenerates **Figure 14**: aggregate throughput of a 16-server DEBAR
//! cluster — (a) write throughput (dedup-1, dedup-2, total) under
//! 0.5-8 TB global indexes, and (b) read (restore) throughput per version.
//!
//! The workload follows §6.2: 64 backup clients, 10 synthetic fingerprint
//! versions each, ~90% duplicates of which ~30% are cross-stream, written
//! in parallel (4 clients per server).
//!
//! Run: `cargo run --release -p debar-bench --bin fig14 [n] [--smoke]`
//! (`n`: scale denominator, default 4096; `--smoke`: 16x deeper).

use debar_bench::table::{f, tb, TablePrinter};
use debar_core::{DebarCluster, DebarConfig, JobId, RunId};
use debar_simio::models::TIB;
use debar_simio::throughput::mibps;
use debar_workload::{MultiStreamConfig, MultiStreamGen};

const W_BITS: u32 = 4; // 16 servers
const CLIENTS: usize = 64;
const VERSIONS: usize = 10;

/// Chunks per version per client at scale 1/`denom`: nominal 50 GB (§6.2).
fn version_chunks(denom: u64) -> usize {
    ((50u64 << 30) / 8192 / denom).max(64) as usize
}

/// A 16-server cluster over a `total`-byte global index at scale
/// 1/`denom`, its 64 client jobs, and their version streams.
fn testbed(total: u64, denom: u64) -> (DebarCluster, Vec<JobId>, MultiStreamGen) {
    let version_chunks = version_chunks(denom);
    let mut cfg = DebarConfig::cluster_scaled(W_BITS, total / (1 << W_BITS), denom);
    cfg.dedup2_trigger_fps = cfg.cache_fps();
    let mut cluster = DebarCluster::new(cfg);
    let jobs = debar_bench::client_jobs(&mut cluster, CLIENTS);
    let gen = MultiStreamGen::new(MultiStreamConfig {
        clients: CLIENTS,
        version_chunks,
        run_len: (256, (version_chunks / 4).max(257)),
        ..MultiStreamConfig::default()
    });
    (cluster, jobs, gen)
}

fn main() {
    let (denom, _) = debar_bench::args(4096, 16 * 4096);
    let chunks = version_chunks(denom);
    let totals = [TIB / 2, TIB, 2 * TIB, 4 * TIB, 8 * TIB];

    println!(
        "Figure 14(a): aggregate write throughput, 16 servers, 64 clients,\n\
         {VERSIONS} versions x {chunks} chunks/client (scale 1/{denom}; MiB/s)\n"
    );
    let mut ta = TablePrinter::new(&["index total", "dedup-1", "dedup-2", "total"]);
    for total in totals {
        let (mut cluster, jobs, mut gen) = testbed(total, denom);

        let mut logical = 0u64;
        let mut d1_time = 0.0;
        let mut d2_time = 0.0;
        for _round in 0..VERSIONS {
            let versions = gen.next_round();
            let t0 = cluster.align_clocks();
            logical += debar_bench::backup_round(&mut cluster, &jobs, versions);
            d1_time += cluster.align_clocks() - t0;
            if cluster.should_run_dedup2() {
                let d2 = cluster.run_dedup2().expect("dedup2");
                d2_time += d2.total_wall();
            }
        }
        // Final round + registration barrier.
        let d2 = cluster.run_dedup2().expect("dedup2");
        d2_time += d2.total_wall();
        let (_, siu_wall) = cluster.force_siu().expect("siu");
        d2_time += siu_wall;

        ta.row(vec![
            tb(total),
            f(mibps(logical, d1_time), 0),
            f(mibps(logical, d2_time), 0),
            f(mibps(logical, d1_time + d2_time), 0),
        ]);
    }
    ta.print();
    println!(
        "\nPaper: dedup-1 >9GB/s sustained; total 4.3 / 2.5 / 1.7 GB/s at\n\
         0.5 / 4 / 8 TB (larger index => longer PSIL/PSIU sweeps).\n"
    );

    // ---- Read pass (Figure 14(b)) ----
    // Runs at a finer scale (denom/4) on the 0.5 TB configuration: read
    // throughput is index-size independent (LPC absorbs nearly all index
    // lookups) but container-fetch overhead per byte is sensitive to the
    // chunks-per-version to container-size ratio, which the finer scale
    // keeps at the paper's proportions.
    let read_denom = (denom / 4).max(256);
    let (mut cluster, jobs, mut gen) = testbed(TIB / 2, read_denom);
    eprintln!(
        "read pass at scale 1/{read_denom} ({} chunks/version)...",
        version_chunks(read_denom)
    );
    for _round in 0..VERSIONS {
        debar_bench::backup_round(&mut cluster, &jobs, gen.next_round());
        if cluster.should_run_dedup2() {
            cluster.run_dedup2().expect("dedup2");
        }
    }
    cluster.run_dedup2().expect("dedup2");
    cluster.force_siu().expect("siu");

    println!("Figure 14(b): aggregate read throughput per version (MiB/s)\n");
    let mut tb = TablePrinter::new(&["version", "read MiB/s"]);
    for v in 0..VERSIONS {
        let t0 = cluster.align_clocks();
        let mut bytes = 0u64;
        let mut failures = 0u64;
        for &job in &jobs {
            let rep = cluster
                .restore_run(RunId {
                    job,
                    version: v as u32,
                })
                .expect("restore");
            bytes += rep.bytes;
            failures += rep.failures;
        }
        let wall = cluster.align_clocks() - t0;
        assert_eq!(failures, 0, "restore must verify cleanly");
        tb.row(vec![(v + 1).to_string(), f(mibps(bytes, wall), 0)]);
    }
    tb.print();
    println!(
        "\nPaper: 1620 MB/s for version 1, declining to a stable ~1520 MB/s\n\
         (cross-stream duplicates spread chunks across storage nodes; SISL +\n\
         LPC keep the decline bounded — 99.3% of random lookups eliminated)."
    );
}
