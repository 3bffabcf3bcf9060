//! Regenerates **Figure 6** (logical data backed up vs physical data
//! stored over the 31-day HUSt month) and **Figure 7** (daily/cumulative
//! compression ratios for DEBAR dedup-1, dedup-2, overall, and DDFS).
//!
//! Run: `cargo run --release -p debar-bench --bin fig6_7 [n] [--smoke]`
//! (`n`: scale denominator, default 256; `--smoke`: 16x deeper).

use debar_bench::month::run_month_from_args;
use debar_bench::table::{f, opt_f, TablePrinter};
use debar_simio::throughput::human_bytes;

fn main() {
    let (denom, r) = run_month_from_args();

    println!(
        "Figure 6: logical vs physically stored data (scale 1/{denom}; paper sizes = x{denom})\n"
    );
    let mut t = TablePrinter::new(&["day", "logical(cum)", "DEBAR stored", "DDFS stored"]);
    for (i, row) in r.rows.iter().enumerate() {
        t.row(vec![
            row.day.to_string(),
            human_bytes(r.cum_logical(i)),
            human_bytes(row.debar_stored_cum),
            human_bytes(row.ddfs_stored_cum),
        ]);
    }
    t.print();

    println!("\nFigure 7: compression ratios over time\n");
    let mut t = TablePrinter::new(&[
        "day",
        "d1 daily",
        "d1 cum",
        "d2 daily",
        "d2 cum",
        "DEBAR cum",
        "DDFS daily",
        "DDFS cum",
    ]);
    for (i, row) in r.rows.iter().enumerate() {
        t.row(vec![
            row.day.to_string(),
            f(r.d1_daily_ratio(i), 2),
            f(r.d1_cum_ratio(i), 2),
            opt_f(r.d2_daily_ratio(i), 2),
            f(r.d2_cum_ratio(i), 2),
            f(r.debar_cum_ratio(i), 2),
            f(r.ddfs_daily_ratio(i), 2),
            f(r.ddfs_cum_ratio(i), 2),
        ]);
    }
    t.print();

    let last = r.last();
    println!(
        "\nSummary (paper): logical 17.09TB, stored 1.82TB, overall 9.39:1,\n\
         d1 cumulative ~3.6:1, d2 cumulative ~2.6:1, 14 dedup-2 runs.\n\
         Measured: logical {}, DEBAR stored {}, overall {:.2}:1,\n\
         d1 cum {:.2}:1, d2 cum {:.2}:1, dedup-2 ran {} times on days {:?}.",
        human_bytes(r.cum_logical(last)),
        human_bytes(r.rows[last].debar_stored_cum),
        r.debar_cum_ratio(last),
        r.d1_cum_ratio(last),
        r.d2_cum_ratio(last),
        r.dedup2_days.len(),
        r.dedup2_days,
    );
}
