//! Ablation: asynchronous SIU.
//!
//! §5.4: "we can perform asynchronous PSIU with one PSIU servicing more
//! than one PSIL" — the checking fingerprint file keeps correctness while
//! the expensive read+write index sweep is amortized over several rounds.
//! This ablation runs the same multi-round workload with synchronous SIU
//! (every round) and asynchronous SIU (due every 3rd round) and compares
//! the cumulative dedup-2 time, the SIU sweeps and the index read passes.
//!
//! An asynchronous SIU rides on the next round's PSIL: that round's first
//! sweep merges the pending updates in the same read pass that probes its
//! batch, then writes the index back, so it costs a write pass and no read
//! pass of its own — the synchronous SIU, a phase of its own, reads the
//! index once more. The round of a riding SIU reports it (`siu_reports`),
//! and it is counted among the SIU sweeps here; a round that falls due
//! last leaves its SIU to the final `force_siu`. An SIU with nothing
//! pending runs no sweep and is not counted.
//!
//! Run: `cargo run --release -p debar-bench --bin ablation_async_siu [n] [--smoke]`
//! (`n`: scale denominator, default 1024; `--smoke`: 16x deeper). A full
//! run writes `BENCH_async_siu.json`, which CI holds to its committed bytes.

use debar_bench::table::{Cell, Table};
use debar_core::{DebarCluster, DebarConfig};
use debar_index::SiuReport;
use debar_simio::throughput::mibps;
use debar_workload::{MultiStreamConfig, MultiStreamGen};

/// Dedup-2 rounds of the workload.
const ROUNDS: usize = 9;

/// What one policy's run measured.
struct Run {
    /// Logical bytes per second of dedup-2 time.
    mibps: f64,
    /// Dedup-2 time: every round plus the final forced SIU.
    dedup2_s: f64,
    /// SIU sweeps that merged something (standalone or riding).
    siu_sweeps: u64,
    /// Whole-index read passes the index disk made.
    index_read_passes: u64,
    /// Chunks stored.
    stored: u64,
}

/// SIU sweeps that ran among a phase's per-server reports (an SIU with
/// nothing pending reports `parts = 0`).
fn sweeps(reports: &[SiuReport]) -> u64 {
    reports.iter().filter(|r| r.parts > 0).count() as u64
}

fn run(siu_interval: u32, denom: u64) -> Run {
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
    let mut siu_sweeps = 0;
    let mut stored = 0u64;
    for _ in 0..ROUNDS {
        logical += debar_bench::backup_round(&mut cluster, &jobs, gen.next_round());
        let d2 = cluster.run_dedup2().expect("dedup2");
        d2_time += d2.total_wall();
        siu_sweeps += sweeps(&d2.siu_reports);
        stored += d2.store.stored_chunks;
    }
    let (reports, wall) = cluster.force_siu().expect("siu");
    d2_time += wall;
    siu_sweeps += sweeps(&reports);
    // The index never scales here, so every read pass moved its whole size.
    let index = cluster.server(0).index();
    let (read, size) = (
        index.disk_stats().seq_read_bytes,
        index.params().total_bytes(),
    );
    assert_eq!(read % size, 0, "the index scaled: count passes another way");
    Run {
        mibps: mibps(logical, d2_time),
        dedup2_s: d2_time,
        siu_sweeps,
        index_read_passes: read / size,
        stored,
    }
}

fn main() {
    let (denom, smoke) = debar_bench::args(1024, 16 * 1024);
    let mut t = Table::new(&[
        "siu_policy",
        "dedup2_mibps",
        "dedup2_s",
        "siu_sweeps",
        "index_read_passes",
        "stored_chunks",
    ]);
    for (label, interval) in [("synchronous", 1u32), ("async_every_3rd", 3)] {
        let r = run(interval, denom);
        t.row(vec![
            Cell::S(label),
            Cell::F(r.mibps, 1),
            Cell::F(r.dedup2_s, 3),
            Cell::U(r.siu_sweeps),
            Cell::U(r.index_read_passes),
            Cell::U(r.stored),
        ]);
    }
    t.print();
    println!(
        "\nAsynchronous SIU should cut the SIU sweeps ~3x and the index read\n\
         passes by one per SIU (each rides on the next PSIL's read), lift\n\
         dedup-2 throughput, and store the same chunks: the checking\n\
         fingerprint file prevents duplicate storage."
    );
    let json = format!(
        "{{\n  \"bench\": \"async_siu\",\n  \"denom\": {denom},\n  \"rounds\": {ROUNDS},\n  \
         \"policies\": {}\n}}\n",
        t.json_rows()
    );
    debar_bench::write_bench_json("async_siu", smoke, &json);
}
