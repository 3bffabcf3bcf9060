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
//! | `fig_multipart` | §5.2 multi-part index analysis (sweep time & throughput vs parts, emits `BENCH_multipart.json`) |
//! | `ablation_prelim_filter` | §5.1 job chains on/off, and what the filter catches vs version ÷ capacity (emits `BENCH_filter.json`) |
//! | `ablation_*`, `metadata_store` | design-choice ablations |
//!
//! Everything runs at a configurable scale denominator (default 1024; see
//! the `ScaleModel` docs for why MB/s-shaped results are scale-invariant).

pub mod month;
pub mod table;

pub use month::{MonthConfig, MonthReport};

use std::path::PathBuf;

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
