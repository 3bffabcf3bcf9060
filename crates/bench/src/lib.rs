//! # debar-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! DEBAR paper's evaluation (§4.2, §6). One binary per experiment; each
//! prints the paper's reference points beside its measured table:
//!
//! | binary | regenerates |
//! |---|---|
//! | `table1` | Table 1 — formula (1) overflow-probability bounds |
//! | `table2` | Table 2 — disk-index utilization experiment |
//! | `fig6_7` | Fig. 6 (logical vs stored) and Fig. 7 (compression ratios) |
//! | `fig8_9` | Fig. 8 (DEBAR throughput) and Fig. 9 (dedup-2 vs DDFS) |
//! | `fig10_11` | Fig. 10 (SIL/SIU time) and Fig. 11 (lookup efficiencies) |
//! | `fig12` | Fig. 12 (throughput vs system capacity, DEBAR vs DDFS) |
//! | `fig13` | Fig. 13 (PSIL/PSIU speeds, 16 servers) |
//! | `fig14` | Fig. 14 (16-server aggregate write/read throughput) |
//! | `fig15` | Fig. 15 (throughput/capacity vs number of servers) |
//! | `ablation_async_siu`, `ablation_bucket_size`, `ablation_sisl_lpc` | design-choice ablations |
//! | `fig_multipart` | §5.2 multi-part index analysis: sweep time & throughput vs parts (`BENCH_multipart.json`) |
//! | `ablation_prelim_filter` | §5.1 job chains on/off, and what the filter catches vs version ÷ capacity (`BENCH_filter.json`) |
//! | `fig_modes` | out-of-line vs inline vs hybrid dedup-1 (`BENCH_modes.json`) |
//! | `fig_restore` | restore decay under `Scatter` vs `Capped` layouts (`BENCH_restore.json`) |
//! | `fig_gc` | retention expiry and garbage collection (`BENCH_gc.json`) |
//! | `fig_chaos` | what retry/backoff and scrub-repair cost (`BENCH_chaos.json`) |
//!
//! Every binary takes the same command line, `[n] [--smoke]` ([`args`]):
//! `n` is its scale denominator (its runs per bucket size for `table2` and
//! `ablation_bucket_size`; see the `ScaleModel` docs for why MB/s-shaped
//! results are scale-invariant) and `--smoke` is the cheap scale at which
//! CI runs all of them. The six that name a `BENCH_*.json` declare those
//! rows once, in a [`table::Table`] that renders as the text on stdout and
//! as the file's JSON, and write it through [`write_bench_json`]: CI holds
//! the files to their committed bytes.

pub mod month;
pub mod table;

pub use month::{MonthConfig, MonthReport};

use debar_core::{ClientId, Dataset, DebarCluster, JobId};
use debar_workload::ChunkRecord;
use std::path::PathBuf;

/// A figure's command line, `[n] [--smoke]`: the figure's one number and
/// whether this is a smoke run. Without `n` the number is `full`, or
/// `smoke` in a smoke run.
///
/// Any other argument — `n = 0` included: no denominator or run count can
/// be zero — exits with a usage line.
pub fn args(full: u64, smoke: u64) -> (u64, bool) {
    let mut n = None;
    let mut is_smoke = false;
    for arg in std::env::args().skip(1) {
        match arg.parse::<u64>() {
            Ok(v) if v > 0 && n.is_none() => n = Some(v),
            _ if arg == "--smoke" => is_smoke = true,
            _ => {
                eprintln!("unexpected argument {arg:?}; usage: [n] [--smoke]");
                std::process::exit(2);
            }
        }
    }
    (n.unwrap_or(if is_smoke { smoke } else { full }), is_smoke)
}

/// One job per client `0..clients`, in client order.
pub fn client_jobs(cluster: &mut DebarCluster, clients: usize) -> Vec<JobId> {
    (0..clients)
        .map(|i| cluster.define_job(format!("client{i}"), ClientId(i as u32)))
        .collect()
}

/// Back up one round of versions, `versions[i]` by `jobs[i]`. Returns the
/// round's logical bytes.
pub fn backup_round(
    cluster: &mut DebarCluster,
    jobs: &[JobId],
    versions: Vec<Vec<ChunkRecord>>,
) -> u64 {
    assert_eq!(jobs.len(), versions.len(), "one version per job");
    let backup = |(&job, v)| cluster.backup(job, &Dataset::from_records("v", v));
    let reports = jobs.iter().zip(versions).map(backup);
    reports.map(|r| r.expect("backup").logical_bytes).sum()
}

/// Write a bin's `BENCH_<name>.json` and say where it went. A full run
/// rewrites the committed analysis at the workspace root — virtual-time
/// fields are exact, so CI reruns the bin and holds the file to its
/// committed bytes with `git diff --exit-code`. A `--smoke` run has
/// smoke-scale numbers and writes to [`std::env::temp_dir`] instead.
///
/// # Panics
/// Panics if the file cannot be written.
pub fn write_bench_json(name: &str, smoke: bool, json: &str) {
    let file = format!("BENCH_{name}.json");
    let path = if smoke {
        std::env::temp_dir().join(file)
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(file)
    };
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("\nwrote {}", path.display());
}
