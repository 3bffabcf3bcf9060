//! Regenerates the paper's one-month HUSt experiment (§6.1) from one run of
//! the month, DDFS baseline included:
//!
//! - **Figure 6**: logical data backed up vs physical data stored;
//! - **Figure 7**: daily/cumulative compression ratios for DEBAR dedup-1,
//!   dedup-2, overall, and DDFS;
//! - **Figures 8 and 9**: DEBAR daily/cumulative dedup-1, dedup-2 and total
//!   throughput, and DDFS's beside it;
//! - the month's **summary**, each cell beside the paper's value.
//!
//! Sizes are at the run's scale (1/`denom` of the paper's); ratios and
//! MiB/s are scale-invariant. A ratio over nothing stored (a DDFS day of
//! duplicates only, dedup-2 before its first run) has no value: `-` in
//! text, `null` in JSON.
//!
//! Run: `cargo run --release -p debar-bench --bin fig_month [n] [--smoke]`
//! (`n`: scale denominator, default 256; `--smoke`: 16x deeper). A full run
//! writes `BENCH_month.json`, which CI holds to its committed bytes.

use debar_bench::month::{run_month_from_args, MonthReport};
use debar_bench::table::{paper_err, Cell, Table};
use debar_simio::models::TIB;

/// The month's summary as the paper states it (§6.1), beside the measured
/// cell of the same name: `(metric, sim, paper, decimals)`.
fn summary(r: &MonthReport, denom: u64) -> Table {
    let last = r.last();
    let paper_tb = |bytes: u64| (bytes * denom) as f64 / TIB as f64;
    let stored = r.rows[last].debar_stored_cum;
    let cells = [
        ("logical_tb", Some(paper_tb(r.cum_logical(last))), 17.09, 2),
        ("stored_tb", Some(paper_tb(stored)), 1.82, 2),
        ("overall_ratio", r.debar_cum_ratio(last), 9.39, 2),
        ("d1_cum_ratio", r.d1_cum_ratio(last), 3.6, 2),
        ("d2_cum_ratio", r.d2_cum_ratio(last), 2.6, 2),
        ("dedup2_runs", Some(r.dedup2_days.len() as f64), 14.0, 0),
        ("d1_cum_mibps", Some(r.d1_cum_tp(last)), 641.6, 1),
        (
            "total_cum_mibps",
            Some(r.debar_total_cum_tp(last)),
            329.2,
            1,
        ),
        ("d2_cum_mibps", Some(r.d2_cum_tp(last)), 197.0, 1),
        ("ddfs_cum_mibps", Some(r.ddfs_cum_tp(last)), 189.0, 1),
    ];
    let mut t = Table::new(&["metric", "sim", "paper", "paper_err"]);
    for (metric, sim, paper, prec) in cells {
        t.row(vec![
            Cell::S(metric),
            Cell::opt(sim, prec),
            Cell::F(paper, prec),
            sim.map_or(Cell::Null, |sim| paper_err(sim, paper)),
        ]);
    }
    t
}

fn main() {
    let (denom, smoke, r) = run_month_from_args();

    let mut fig6 = Table::new(&["day", "logical_cum", "debar_stored", "ddfs_stored"]);
    let mut fig7 = Table::new(&[
        "day",
        "d1_daily",
        "d1_cum",
        "d2_daily",
        "d2_cum",
        "debar_cum",
        "ddfs_daily",
        "ddfs_cum",
    ]);
    let mut fig8_9 = Table::new(&[
        "day",
        "d1_daily",
        "d1_cum",
        "d2_daily",
        "d2_cum",
        "total_cum",
        "ddfs_daily",
        "ddfs_cum",
    ]);
    for (i, row) in r.rows.iter().enumerate() {
        let day = || Cell::U(row.day as u64);
        fig6.row(vec![
            day(),
            Cell::U(r.cum_logical(i)),
            Cell::U(row.debar_stored_cum),
            Cell::U(row.ddfs_stored_cum),
        ]);
        fig7.row(vec![
            day(),
            Cell::opt(r.d1_daily_ratio(i), 2),
            Cell::opt(r.d1_cum_ratio(i), 2),
            Cell::opt(r.d2_daily_ratio(i), 2),
            Cell::opt(r.d2_cum_ratio(i), 2),
            Cell::opt(r.debar_cum_ratio(i), 2),
            Cell::opt(r.ddfs_daily_ratio(i), 2),
            Cell::opt(r.ddfs_cum_ratio(i), 2),
        ]);
        fig8_9.row(vec![
            day(),
            Cell::F(r.d1_daily_tp(i), 1),
            Cell::F(r.d1_cum_tp(i), 1),
            Cell::opt(r.d2_daily_tp(i), 1),
            Cell::F(r.d2_cum_tp(i), 1),
            Cell::F(r.debar_total_cum_tp(i), 1),
            Cell::F(r.ddfs_daily_tp(i), 1),
            Cell::F(r.ddfs_cum_tp(i), 1),
        ]);
    }
    println!("Figure 6: logical vs physically stored bytes (scale 1/{denom})\n");
    fig6.print();
    println!("\nFigure 7: compression ratios over time\n");
    fig7.print();
    println!("\nFigures 8 and 9: DEBAR and DDFS throughput over time (MiB/s)\n");
    fig8_9.print();
    println!("\nSummary beside the paper's (sizes at paper scale)\n");
    let summary = summary(&r, denom);
    summary.print();
    println!(
        "\nThe paper's d2 is its whole-log drain at the log disk's rate; this\n\
         drain reads only the records it packs and seeks over the duplicate\n\
         runs, so its d2 (and total) exceed the paper's by design."
    );

    let json = format!(
        "{{\n  \"bench\": \"month\",\n  \"denom\": {denom},\n  \"days\": {},\n  \
         \"fig6\": {},\n  \"fig7\": {},\n  \"fig8_9\": {},\n  \"summary\": {{\n{}\n  }}\n}}\n",
        r.rows.len(),
        fig6.json_rows(),
        fig7.json_rows(),
        fig8_9.json_rows(),
        summary.json_keyed(4)
    );
    debar_bench::write_bench_json("month", smoke, &json);
}
