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
//! | `ablation_*`, `metadata_store` | design-choice ablations |
//!
//! Everything runs at a configurable scale denominator (default 1024; see
//! the `ScaleModel` docs for why MB/s-shaped results are scale-invariant).

pub mod month;
pub mod table;

pub use month::{MonthConfig, MonthReport};
