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
//! cache: one random bucket read on the paper's index disk.
//!
//! Run: `cargo run --release -p debar-bench --bin table2 [n] [--smoke]`
//! (`n`: runs per bucket size, default 5; `--smoke`: one run at a bucket
//! count scaled a further 2^4). A full run writes `BENCH_table2.json`,
//! which CI holds to its committed bytes.

use debar_bench::table::{paper_err, Cell, Table};
use debar_index::theory::{predicted_exit_eta, UtilizationSim};
use debar_simio::models::paper;

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
        "n3",
        "n4",
        "pred_scaled",
        "pred_paper_n",
        "paper_eta",
        "paper_err",
        "rand_read_ms",
    ]);
    let disk = paper::index_disk();
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
        let bucket_bytes = (kb * 1024.0) as u64;
        t.row(vec![
            Cell::F(kb, usize::from(kb < 1.0)),
            Cell::F(min, 4),
            Cell::F(max, 4),
            Cell::F(avg, 4),
            Cell::F(rho * 100.0, 3),
            Cell::U(n3),
            Cell::U(n4),
            Cell::F(predicted_exit_eta(n_bits, b), 4),
            Cell::F(predicted_exit_eta(paper_n, b), 4),
            Cell::F(paper_eta, 4),
            paper_err(avg, paper_eta),
            Cell::F(disk.rand_read_cost(bucket_bytes) * 1e3, 3),
        ]);
    }
    t.print();
    println!(
        "\nShape checks vs the paper: utilization rises monotonically with\n\
         bucket size; n4 = 0 (no 4-adjacent-full runs); rho stays < 1%.\n\
         The scaled measurement exceeds the paper's eta by the predictable\n\
         bucket-count effect — compare columns pred_scaled vs pred_paper_n,\n\
         the latter matching the paper's measured eta within a few percent.\n\
         The paper picks 8KB: >= 80% utilization while a random bucket read\n\
         still costs ~one seek (the 64KB bucket's transfer time starts to\n\
         show)."
    );
    let json = format!(
        "{{\n  \"bench\": \"table2\",\n  \"runs\": {runs},\n  \"scale_bits\": {scale_bits},\n  \
         \"rows\": {}\n}}\n",
        t.json_rows()
    );
    debar_bench::write_bench_json("table2", smoke, &json);
}
