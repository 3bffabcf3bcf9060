//! Ablation: the preliminary filter.
//!
//! Runs the HUSt month twice — with the job-chain preliminary filter and
//! with it disabled — and compares network transfer, dedup-1 throughput and
//! the dedup-2 load. The filter is DEBAR's answer to "reduce bandwidth
//! requirements for backups" (§5.1): without it every chunk crosses the
//! wire and lands in the chunk log, and phase II must adjudicate all of it.
//!
//! Run: `cargo run --release -p debar-bench --bin ablation_prelim_filter [denom]`

use debar_bench::month::{run_month, MonthConfig};
use debar_bench::table::{f, TablePrinter};
use debar_simio::throughput::human_bytes;

fn main() {
    let denom: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(MonthConfig::default().denom);
    let base = MonthConfig {
        denom,
        run_ddfs: false,
        ..MonthConfig::default()
    };
    eprintln!("with filter...");
    let with = run_month(base);
    eprintln!("without filter...");
    let without = run_month(MonthConfig {
        disable_prelim_filter: true,
        ..base
    });

    let last = with.last();
    let row = |label: &str, r: &debar_bench::month::MonthReport| {
        let i = r.last();
        vec![
            label.to_string(),
            human_bytes(r.rows[..=i].iter().map(|x| x.transferred).sum()),
            f(r.d1_cum_tp(i), 1),
            human_bytes(r.rows[..=i].iter().map(|x| x.d2_log_bytes).sum()),
            f(r.debar_total_cum_tp(i), 1),
            f(r.debar_cum_ratio(i), 2),
        ]
    };
    let mut t = TablePrinter::new(&[
        "config",
        "transferred",
        "d1 MiB/s",
        "dedup-2 load",
        "total MiB/s",
        "compression",
    ]);
    t.row(row("with filter", &with));
    t.row(row("no filter", &without));
    t.print();
    println!(
        "\nLogical data: {} over {} days. The filter should cut network\n\
         transfer and dedup-2 load by ~3x and raise dedup-1 throughput well\n\
         past the NIC line; final compression is identical (dedup-2 removes\n\
         whatever the filter missed).",
        human_bytes(with.cum_logical(last)),
        with.rows.len(),
    );
}
