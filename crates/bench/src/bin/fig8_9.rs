//! Regenerates **Figure 8** (DEBAR daily/cumulative dedup-1, dedup-2 and
//! total throughput over the month) and **Figure 9** (DEBAR dedup-2 vs
//! DDFS daily/cumulative throughput).
//!
//! Run: `cargo run --release -p debar-bench --bin fig8_9 [n] [--smoke]`
//! (`n`: scale denominator, default 256; `--smoke`: 16x deeper).

use debar_bench::month::run_month_from_args;
use debar_bench::table::{f, opt_f, TablePrinter};

fn main() {
    let (_, r) = run_month_from_args();

    println!("Figure 8: DEBAR throughput over time (MiB/s)\n");
    let mut t = TablePrinter::new(&[
        "day",
        "d1 daily",
        "d1 cum",
        "d2 daily",
        "d2 cum",
        "total cum",
    ]);
    for (i, row) in r.rows.iter().enumerate() {
        t.row(vec![
            row.day.to_string(),
            f(r.d1_daily_tp(i), 1),
            f(r.d1_cum_tp(i), 1),
            opt_f(r.d2_daily_tp(i), 1),
            f(r.d2_cum_tp(i), 1),
            f(r.debar_total_cum_tp(i), 1),
        ]);
    }
    t.print();

    println!("\nFigure 9: DEBAR dedup-2 vs DDFS throughput (MiB/s)\n");
    let mut t = TablePrinter::new(&["day", "d2 daily", "d2 cum", "DDFS daily", "DDFS cum"]);
    for (i, row) in r.rows.iter().enumerate() {
        t.row(vec![
            row.day.to_string(),
            opt_f(r.d2_daily_tp(i), 1),
            f(r.d2_cum_tp(i), 1),
            f(r.ddfs_daily_tp(i), 1),
            f(r.ddfs_cum_tp(i), 1),
        ]);
    }
    t.print();

    let last = r.last();
    println!(
        "\nSummary (paper): DEBAR d1 cum 641.6 MB/s, total cum 329.2 MB/s,\n\
         d2 cum ~197 MB/s; DDFS cum ~189 MB/s (daily >155 MB/s, NIC 210 MB/s).\n\
         Measured: d1 cum {:.1}, total cum {:.1}, d2 cum {:.1}, DDFS cum {:.1}.\n\
         The paper's d2 is its whole-log drain at the log disk's rate; this\n\
         drain reads only the records it packs and seeks over the duplicate\n\
         runs, so its d2 (and total) exceed the paper's by design.",
        r.d1_cum_tp(last),
        r.debar_total_cum_tp(last),
        r.d2_cum_tp(last),
        r.ddfs_cum_tp(last),
    );
}
