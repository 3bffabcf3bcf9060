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
//! Run: `cargo run --release -p debar-bench --bin table2 [n] [--smoke]`
//! (`n`: runs per bucket size, default 5; `--smoke`: one run at a bucket
//! count scaled a further 2^4).

use debar_bench::table::{f, TablePrinter};
use debar_index::theory::{predicted_exit_eta, UtilizationSim};

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
    let mut t = TablePrinter::new(&[
        "bucket",
        "eta(min)",
        "eta(max)",
        "eta(avg)",
        "rho %",
        "n3",
        "n4",
        "pred(scaled)",
        "pred(paper n)",
        "paper eta",
    ]);
    for (kb, b, paper_n, paper_eta, _paper_rho, _paper_n3) in cases {
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
        t.row(vec![
            format!("{kb}KB"),
            f(min, 4),
            f(max, 4),
            f(avg, 4),
            format!("{:.3}", rho * 100.0),
            n3.to_string(),
            n4.to_string(),
            f(predicted_exit_eta(n_bits, b), 4),
            f(predicted_exit_eta(paper_n, b), 4),
            f(paper_eta, 4),
        ]);
    }
    t.print();
    println!(
        "\nShape checks vs the paper: utilization rises monotonically with\n\
         bucket size; n4 = 0 (no 4-adjacent-full runs); rho stays < 1%.\n\
         The scaled measurement exceeds the paper's eta by the predictable\n\
         bucket-count effect — compare columns pred(scaled) vs pred(paper n),\n\
         the latter matching the paper's measured eta within a few percent."
    );
}
