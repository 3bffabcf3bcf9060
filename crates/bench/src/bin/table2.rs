//! Regenerates **Table 2**: the disk-index utilization experiment of §4.2 —
//! insert counter→SHA-1 fingerprints with random-adjacent overflow until a
//! bucket and both neighbours are full; report achieved utilization η
//! (min/max/avg), full-bucket fraction ρ, and the n3/n4 adjacent-run
//! counts.
//!
//! The bucket *count* is scaled down 2^10 from the paper's 512 GB index
//! (the paper's n = 30..23 would need up to 2^30 counters and ~9 G SHA-1
//! evaluations per run); the self-consistent exit prediction from formula
//! (1) is printed for both geometries so the scaled measurement can be
//! compared against the paper's.
//!
//! The last column is what a bucket's size costs a lookup that misses the
//! cache: one random bucket read on the paper's index disk. The paper's ρ
//! and n3 stand beside the measured ones; its n3 counts 50 runs, so both
//! are also given per run. The shape checks printed after the table are
//! read off its rows.
//!
//! Run: `cargo run --release -p debar-bench --bin table2 [n] [--smoke]`
//! (`n`: runs per bucket size, default 5; `--smoke`: one run at a bucket
//! count scaled a further 2^4). A full run writes `BENCH_table2.json`,
//! which CI holds to its committed bytes.

use debar_bench::table::{paper_err, Cell, Table};
use debar_index::theory::{predicted_exit_eta, UtilizationSim};
use debar_simio::models::paper;

/// Runs per bucket size behind the paper's n3 column.
const PAPER_RUNS: f64 = 50.0;

/// What one bucket size's row holds that the trailer reads.
struct Row {
    kb: f64,
    eta: f64,
    paper_eta: f64,
    pred_scaled: f64,
    pred_paper: f64,
    rho_pct: f64,
    paper_rho_pct: f64,
    n3_per_run: f64,
    paper_n3_per_run: f64,
    n4: u64,
    read_ms: f64,
}

/// The least and greatest of `f` over the rows.
fn range(rows: &[Row], f: impl Fn(&Row) -> f64) -> (f64, f64) {
    (rows.iter().map(&f)).fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
        (lo.min(v), hi.max(v))
    })
}

/// The shape checks against the paper, each read off the rows: a check
/// the rows refute says so.
fn trailer(rows: &[Row], runs: usize) -> String {
    let rising = rows.windows(2).all(|w| w[0].eta < w[1].eta);
    let n4: u64 = rows.iter().map(|r| r.n4).sum();
    let (rho_lo, rho_hi) = range(rows, |r| r.rho_pct);
    let (prho_lo, prho_hi) = range(rows, |r| r.paper_rho_pct);
    let (n3_lo, n3_hi) = range(rows, |r| r.n3_per_run);
    let (pn3_lo, pn3_hi) = range(rows, |r| r.paper_n3_per_run);
    let above = rows.iter().filter(|r| r.eta > r.paper_eta).count();
    let scaled_above = (rows.iter())
        .filter(|r| r.pred_scaled > r.pred_paper)
        .count();
    let (_, pred_err) = range(rows, |r| (r.pred_paper / r.paper_eta - 1.0).abs() * 100.0);
    let at = |kb: f64| {
        rows.iter()
            .find(|r| r.kb == kb)
            .expect("a case of the table")
    };
    let (small, eight, big) = (at(0.5), at(8.0), at(64.0));
    format!(
        "\nShape checks vs the paper, as these rows show them:\n\
         - eta_avg {} with bucket size (the paper's rises).\n\
         - 4-adjacent-full runs: {n4} in {} runs (the paper saw none in {}).\n\
         - rho {rho_lo:.3}-{rho_hi:.3} % against the paper's {prho_lo:.3}-{prho_hi:.3} %.\n\
         - n3 per run {n3_lo:.2}-{n3_hi:.2} against the paper's {pn3_lo:.2}-{pn3_hi:.2}.\n\
         - eta_avg exceeds the paper's eta in {above} of {n} rows; formula (1) predicts\n\
         \x20 the scaled geometry above the paper's (pred_scaled > pred_paper_n)\n\
         \x20 in {scaled_above} of {n}, and pred_paper_n is within {pred_err:.1} % of the\n\
         \x20 paper's measured eta.\n\
         - The paper picks 8KB: eta_avg {:.4} at a random bucket read of\n\
         \x20 {:.3} ms, against {:.3} ms at 0.5KB and {:.3} ms at 64KB.\n",
        if rising { "rises" } else { "does not rise" },
        runs * rows.len(),
        PAPER_RUNS as usize * rows.len(),
        eight.eta,
        eight.read_ms,
        small.read_ms,
        big.read_ms,
        n = rows.len(),
    )
}

fn main() {
    let (runs, smoke) = debar_bench::args(5, 1);
    // (bucket KB, b, paper n, paper eta avg, paper rho %, paper n3 over 50 runs)
    let cases = [
        (0.5, 20u32, 30u32, 0.4145, 0.068, 147u64),
        (1.0, 40, 29, 0.5679, 0.075, 124),
        (2.0, 80, 28, 0.6804, 0.088, 106),
        (4.0, 160, 27, 0.7758, 0.13, 97),
        (8.0, 320, 26, 0.8423, 0.15, 83),
        (16.0, 640, 25, 0.8825, 0.16, 78),
        (32.0, 1280, 24, 0.9214, 0.20, 67),
        (64.0, 2560, 23, 0.9443, 0.21, 62),
    ];
    let runs = runs as usize;
    let scale_bits: u32 = if smoke { 14 } else { 10 };
    println!(
        "Table 2: disk index utilization at first 3-adjacent-full event\n\
         ({runs} runs per bucket size, bucket count scaled 2^-{scale_bits})\n"
    );
    let mut t = Table::new(&[
        "bucket_kb",
        "eta_min",
        "eta_max",
        "eta_avg",
        "rho_pct",
        "paper_rho_pct",
        "n3",
        "n3_per_run",
        "paper_n3_per_run",
        "n4",
        "pred_scaled",
        "pred_paper_n",
        "paper_eta",
        "paper_err",
        "rand_read_ms",
    ]);
    let disk = paper::index_disk();
    // What the trailer says is read off these rows.
    let mut rows: Vec<Row> = Vec::new();
    for (kb, b, paper_n, paper_eta, paper_rho, paper_n3) in cases {
        let n_bits = paper_n - scale_bits;
        let sim = UtilizationSim { n_bits, b };
        let results = sim.run_many(2026, runs);
        let etas: Vec<f64> = results.iter().map(|r| r.utilization).collect();
        let min = etas.iter().copied().fold(f64::INFINITY, f64::min);
        let max = etas.iter().copied().fold(0.0, f64::max);
        let avg = etas.iter().sum::<f64>() / etas.len() as f64;
        let rho = results.iter().map(|r| r.full_fraction).sum::<f64>() / results.len() as f64;
        let n3: u64 = results.iter().map(|r| r.n3).sum();
        let n4: u64 = results.iter().map(|r| r.n4).sum();
        let bucket_bytes = (kb * 1024.0) as u64;
        let row = Row {
            kb,
            eta: avg,
            paper_eta,
            pred_scaled: predicted_exit_eta(n_bits, b),
            pred_paper: predicted_exit_eta(paper_n, b),
            rho_pct: rho * 100.0,
            paper_rho_pct: paper_rho,
            n3_per_run: n3 as f64 / runs as f64,
            paper_n3_per_run: paper_n3 as f64 / PAPER_RUNS,
            n4,
            read_ms: disk.rand_read_cost(bucket_bytes) * 1e3,
        };
        t.row(vec![
            Cell::F(kb, usize::from(kb < 1.0)),
            Cell::F(min, 4),
            Cell::F(max, 4),
            Cell::F(avg, 4),
            Cell::F(row.rho_pct, 3),
            Cell::F(row.paper_rho_pct, 3),
            Cell::U(n3),
            Cell::F(row.n3_per_run, 2),
            Cell::F(row.paper_n3_per_run, 2),
            Cell::U(n4),
            Cell::F(row.pred_scaled, 4),
            Cell::F(row.pred_paper, 4),
            Cell::F(paper_eta, 4),
            paper_err(avg, paper_eta),
            Cell::F(row.read_ms, 3),
        ]);
        rows.push(row);
    }
    t.print();
    print!("{}", trailer(&rows, runs));
    let json = format!(
        "{{\n  \"bench\": \"table2\",\n  \"runs\": {runs},\n  \"scale_bits\": {scale_bits},\n  \
         \"rows\": {}\n}}\n",
        t.json_rows()
    );
    debar_bench::write_bench_json("table2", smoke, &json);
}
