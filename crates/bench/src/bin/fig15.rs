//! Regenerates **Figure 15**: aggregate write throughput and supported
//! system capacity as the cluster grows through the paper's run modes
//! (x, y) — x backup servers each holding a y-GB disk-index part:
//! (1,32) (1,64) (2,32) (2,64) (4,32) (4,64) (8,32) (8,64) (16,32) (16,64).
//!
//! Like the paper, the system moves *between* modes using the index's
//! capacity-scaling property ((x,32) → (x,64)) and performance-scaling
//! property ((x,64) → (2x,32)), carrying all stored data along.
//!
//! Run: `cargo run --release -p debar-bench --bin fig15 [n] [--smoke]`
//! (`n`: scale denominator, default 2048; `--smoke`: 16x deeper).

use debar_bench::table::{f, TablePrinter};
use debar_core::{DebarCluster, DebarConfig};
use debar_simio::models::GIB;
use debar_simio::throughput::mibps;
use debar_workload::{MultiStreamConfig, MultiStreamGen};

fn main() {
    let (denom, _) = debar_bench::args(2048, 16 * 2048);
    let rounds_per_mode = 2usize;
    let version_chunks = ((50u64 << 30) / 8192 / denom).max(64) as usize;
    // 64 clients throughout, matching the paper's testbed.
    let clients = 64usize;

    let mut cfg = DebarConfig::cluster_scaled(0, 32 * GIB, denom);
    cfg.dedup2_trigger_fps = 0; // dedup-2 runs at the end of each mode
    let mut cluster = DebarCluster::new(cfg);
    let jobs = debar_bench::client_jobs(&mut cluster, clients);
    let mut gen = MultiStreamGen::new(MultiStreamConfig {
        clients,
        version_chunks,
        run_len: (256, (version_chunks / 4).max(257)),
        ..MultiStreamConfig::default()
    });

    println!(
        "Figure 15: write throughput and capacity vs number of servers\n\
         (mode ladder via capacity/performance scaling; scale 1/{denom}; MiB/s)\n"
    );
    let mut t = TablePrinter::new(&[
        "servers",
        "part",
        "write MiB/s",
        "capacity (TB)",
        "transition",
    ]);
    // Ladder: at y=32GB measure, scale capacity to 64GB, measure, then
    // split into twice the servers (parts halve back to 32GB).
    let mut transition = String::from("fresh");
    loop {
        for part_gb in [32u64, 64] {
            let servers = cluster.server_count();
            // Measure: a few rounds of backups + one dedup-2.
            let t0 = cluster.align_clocks();
            let mut logical = 0u64;
            for _ in 0..rounds_per_mode {
                logical += debar_bench::backup_round(&mut cluster, &jobs, gen.next_round());
            }
            cluster.run_dedup2().expect("dedup2");
            cluster.force_siu().expect("siu");
            let wall = cluster.align_clocks() - t0;
            // Supported capacity: total index entries x 8 KB chunks, at the
            // paper's 80% utilization design point, re-expressed nominally.
            let max_fps: u64 = (0..cluster.server_count())
                .map(|s| cluster.server(s as u16).index().params().max_entries())
                .sum();
            let capacity_tb = (max_fps as f64 * 0.8 * 8192.0 * denom as f64) / (1u64 << 40) as f64;
            t.row(vec![
                servers.to_string(),
                format!("{part_gb}GB"),
                f(mibps(logical, wall), 0),
                f(capacity_tb, 0),
                std::mem::take(&mut transition),
            ]);
            if part_gb == 32 {
                // (x,32) -> (x,64): capacity scaling on every part.
                cluster.scale_up_indexes();
                transition = "capacity-scale".into();
            }
        }
        if cluster.server_count() >= 16 {
            break;
        }
        // (x,64) -> (2x,32): performance scaling (split on one prefix bit).
        cluster.force_siu().expect("siu");
        cluster.scale_out().expect("scale-out");
        transition = "scale-out".into();
    }
    t.print();
    println!(
        "\nPaper shape: both throughput and capacity grow ~linearly with the\n\
         number of servers; the 64GB parts support twice the capacity of the\n\
         32GB parts at somewhat lower throughput (longer PSIL/PSIU sweeps).\n\
         All mode transitions reuse stored data via §4.1's scaling\n\
         properties — nothing is re-chunked or re-indexed from scratch."
    );
}
