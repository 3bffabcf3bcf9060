//! Ablation: asynchronous SIU.
//!
//! §5.4: "we can perform asynchronous PSIU with one PSIU servicing more
//! than one PSIL" — the checking fingerprint file keeps correctness while
//! the expensive read+write index sweep is amortized over several rounds.
//! This ablation runs the same multi-round workload with synchronous SIU
//! (every round) and asynchronous SIU (every 3rd round) and compares the
//! cumulative dedup-2 time and SIU sweep count.
//!
//! Run: `cargo run --release -p debar-bench --bin ablation_async_siu [n] [--smoke]`
//! (`n`: scale denominator, default 1024; `--smoke`: 16x deeper).

use debar_bench::table::{f, TablePrinter};
use debar_core::{DebarCluster, DebarConfig};
use debar_simio::throughput::mibps;
use debar_workload::{MultiStreamConfig, MultiStreamGen};

fn run(siu_interval: u32, denom: u64) -> (f64, f64, u32, u64) {
    let mut cfg = DebarConfig::single_server_scaled(denom);
    cfg.siu_interval = siu_interval;
    let mut cluster = DebarCluster::new(cfg);
    let clients = 4usize;
    let jobs = debar_bench::client_jobs(&mut cluster, clients);
    let mut gen = MultiStreamGen::new(MultiStreamConfig {
        clients,
        version_chunks: ((10u64 << 30) / 8192 / denom).max(64) as usize,
        ..MultiStreamConfig::default()
    });
    let mut logical = 0u64;
    let mut d2_time = 0.0;
    let mut siu_sweeps = 0u32;
    let mut stored = 0u64;
    for _ in 0..9 {
        logical += debar_bench::backup_round(&mut cluster, &jobs, gen.next_round());
        let d2 = cluster.run_dedup2().expect("dedup2");
        d2_time += d2.total_wall();
        siu_sweeps += d2.siu_reports.len() as u32;
        stored += d2.store.stored_chunks;
    }
    let (reports, wall) = cluster.force_siu().expect("siu");
    d2_time += wall;
    siu_sweeps += reports.len() as u32;
    (mibps(logical, d2_time), d2_time, siu_sweeps, stored)
}

fn main() {
    let (denom, _) = debar_bench::args(1024, 16 * 1024);
    let mut t = TablePrinter::new(&[
        "SIU policy",
        "dedup-2 MiB/s",
        "dedup-2 time (s)",
        "SIU sweeps",
        "stored chunks",
    ]);
    for (label, interval) in [
        ("synchronous (every round)", 1u32),
        ("async (every 3rd)", 3),
    ] {
        let (tp, time, sweeps, stored) = run(interval, denom);
        t.row(vec![
            label.into(),
            f(tp, 1),
            f(time, 2),
            sweeps.to_string(),
            stored.to_string(),
        ]);
    }
    t.print();
    println!(
        "\nAsynchronous SIU should cut the SIU sweep count ~3x and lift\n\
         dedup-2 throughput, while the checking fingerprint file keeps the\n\
         stored chunk count identical (no duplicate storage)."
    );
}
