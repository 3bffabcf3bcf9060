//! Regenerates **Figure 12**: single-server backup throughput as the system
//! capacity grows from 8 TB to 128 TB — DEBAR total, DEBAR dedup-2, and
//! DDFS.
//!
//! The index is sized with capacity (32 GB per 8 TB, §5.2) and pre-filled
//! with ballast fingerprints representing already-stored data; DDFS keeps
//! its fixed 1 GB Bloom filter, so its bits-per-key ratio m/n collapses
//! with capacity and false positives flood the disk index with random
//! lookups — the paper's capacity cliff beyond ~8 TB.
//!
//! Run: `cargo run --release -p debar-bench --bin fig12 [n] [--smoke]`
//! (`n`: scale denominator, default 1024; `--smoke`: 16x deeper).

use debar_bench::table::{f, TablePrinter};
use debar_core::{DebarCluster, DebarConfig};
use debar_ddfs::{DdfsConfig, DdfsServer};
use debar_hash::{ContainerId, Fingerprint};
use debar_simio::models::{GIB, TIB};
use debar_simio::throughput::mibps;
use debar_workload::{HustConfig, HustGen};

/// Ballast counters live far outside the HUSt client subspaces.
const BALLAST_BASE: u64 = 63u64 << 58;

fn main() {
    let (denom, _) = debar_bench::args(1024, 16 * 1024);
    // (capacity, index size): 8 TB per 32 GB of index (§5.2).
    let points: [(u64, u64); 5] = [
        (8 * TIB, 32 * GIB),
        (16 * TIB, 64 * GIB),
        (32 * TIB, 128 * GIB),
        (64 * TIB, 256 * GIB),
        (128 * TIB, 512 * GIB),
    ];
    let days = 5usize;
    let measure_from = 2usize; // skip warm-up days

    println!("Figure 12: throughput vs system capacity (single server, MiB/s)\n");
    let mut t = TablePrinter::new(&[
        "capacity",
        "DEBAR total",
        "DEBAR dedup-2",
        "DDFS",
        "DDFS m/n",
        "bloom fp %",
    ]);
    for (capacity, index_bytes) in points {
        // Ballast: the system already holds 90% of its rated capacity
        // (the paper measures DDFS "when the amount of data stored
        // increases from under 8TB to over 12TB" on a growing system).
        let ballast = (capacity * 9 / 10 / 8192 / denom).max(1);
        let ballast_entries = || {
            (0..ballast).map(|i| {
                (
                    Fingerprint::of_counter(BALLAST_BASE + i),
                    ContainerId::new(0),
                )
            })
        };
        let hust = HustConfig {
            scale: debar_simio::ScaleModel::new(denom),
            days,
            ..HustConfig::default()
        };

        // --- DEBAR ---
        let mut cfg = DebarConfig::single_server_scaled(denom);
        cfg.index_part_bytes = index_bytes / denom;
        cfg.dedup2_trigger_fps = cfg.cache_fps();
        let mut debar = DebarCluster::new(cfg);
        debar
            .preload_index(ballast_entries())
            .expect("no fault is armed");
        let jobs = debar_bench::client_jobs(&mut debar, hust.clients);
        let mut logical = 0u64;
        let mut d2_log_bytes = 0u64;
        let mut d2_time = 0.0;
        let mut total_time = 0.0;
        for day in HustGen::new(hust) {
            let measured = day.day > measure_from;
            let t0 = debar.align_clocks();
            let day_bytes = debar_bench::backup_round(&mut debar, &jobs, day.per_client);
            if measured {
                logical += day_bytes;
            }
            let d1_wall = debar.align_clocks() - t0;
            let mut d2_wall = 0.0;
            let mut log_bytes = 0;
            if debar.should_run_dedup2() || day.day == days {
                let d2 = debar.run_dedup2().expect("dedup2");
                d2_wall = d2.total_wall();
                log_bytes = d2.store.log_bytes;
            }
            if measured {
                total_time += d1_wall + d2_wall;
                d2_time += d2_wall;
                d2_log_bytes += log_bytes;
            }
        }
        let debar_total = mibps(logical, total_time);
        let debar_d2 = mibps(d2_log_bytes, d2_time);

        // --- DDFS ---
        let mut dcfg = DdfsConfig::paper_scaled(denom);
        dcfg.index = debar_index::IndexParams::from_total_size(index_bytes / denom, 512);
        let mut ddfs = DdfsServer::new(dcfg);
        ddfs.preload(ballast_entries());
        let mut dd_logical = 0u64;
        let mut dd_time = 0.0;
        for day in HustGen::new(hust) {
            let t0 = ddfs.now();
            for stream in &day.per_client {
                ddfs.backup_stream(stream).expect("backup");
            }
            if day.day > measure_from {
                dd_logical += day.logical_bytes();
                dd_time += ddfs.now() - t0;
            }
        }
        let st = ddfs.stats();
        let fp_pct = 100.0 * st.bloom_false_positives as f64 / st.logical_chunks as f64;
        t.row(vec![
            format!("{}TB", capacity / TIB),
            f(debar_total, 1),
            f(debar_d2, 1),
            f(mibps(dd_logical, dd_time), 1),
            f(ddfs.bloom_bits_per_key(), 1),
            f(fp_pct, 2),
        ]);
    }
    t.print();
    println!(
        "\nPaper shape: DEBAR total declines gently (~335 to ~214 MB/s) and\n\
         dedup-2 from ~200 to ~97 MB/s as SIL/SIU sweeps lengthen; DDFS\n\
         collapses to under 28% of its 8TB throughput once m/n drops below\n\
         ~5.3 (capacity > 12TB) because Bloom false positives turn into\n\
         random index lookups."
    );
}
