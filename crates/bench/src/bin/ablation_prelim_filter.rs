//! Ablation: the preliminary filter.
//!
//! **Job chains on and off.** Runs the HUSt month twice — with the job-chain
//! preliminary filter and with no chains (every client's every day a fresh
//! job, so nothing primes its filter) — and compares network transfer,
//! dedup-1 throughput and the dedup-2 load. The filter is DEBAR's answer to
//! "reduce bandwidth requirements for backups" (§5.1): without it every
//! chunk the run has not itself sent before crosses the wire and lands in
//! the chunk log, and phase II must adjudicate all of it.
//!
//! **Capacity sweep.** The filter streams the previous run's fingerprints
//! past the backup stream's position, so what it catches should not depend
//! on whether a version fits in it. The sweep backs the same versions up at
//! version ÷ capacity ∈ {0.5, 1, 2, 4, 8} — the three generators, and the
//! elementary drifts of `debar_workload::drift` one at a time — and reports,
//! over the backups that have a previous run: the share of chunks dedup-1
//! filtered, the bytes transferred, simulated backup MiB/s, and duplicates
//! caught per filtering fingerprint loaded. Every cell is also replayed
//! through a bare `PrelimFilter` primed with the previous version in stream
//! order, which must catch exactly what the system did. Beside each share
//! is what the parent's filter (one FIFO/CLOCK queue, primed once) gave on
//! the same cell.
//!
//! Laws asserted (full and `--smoke`): the share never rises with the
//! ratio; at 2× it is ≥ 0.9 of the fitting share on `MultiStreamGen` and
//! `FileTreeGen` and ≥ 0.8 on `HustGen`; in-place, growing, shrinking and
//! popular-fingerprint versions keep ≥ 0.99 of it at every ratio, one block
//! a tenth of the version long at 2×; and at full scale no cell is below
//! the parent's.
//!
//! Writes both tables to `BENCH_filter.json` in the workspace root
//! (`--smoke`: into the temp directory) and prints them.
//!
//! ```bash
//! cargo run --release -p debar-bench --bin ablation_prelim_filter [n] [--smoke]
//! ```

use debar_bench::month::{run_month, MonthConfig, MonthReport};
use debar_bench::table::{Cell, Table};
use debar_core::client::BackupClient;
use debar_core::{ChunkedFile, ClientId, Dataset, DebarCluster, DebarConfig};
use debar_filter::{PrelimFilter, NODE_BYTES};
use debar_hash::Fingerprint;
use debar_simio::throughput::mibps;
use debar_simio::ScaleModel;
use debar_workload::drift::{base_version, with_popular, Drift};
use debar_workload::files::{FileTreeConfig, FileTreeGen, MutationConfig};
use debar_workload::{ChunkRecord, HustConfig, HustGen, MultiStreamConfig, MultiStreamGen};

const RATIOS: [f64; 5] = [0.5, 1.0, 2.0, 4.0, 8.0];
const DEFAULT_DENOM: u64 = 1024;

/// The filtered share of every full-scale cell ([`DEFAULT_DENOM`]) at the
/// parent commit c4e4ceb, by workload and [`RATIOS`]. Probed once, with
/// this bin: the recipe is in `.claude/skills/verify/SKILL.md`.
const PARENT_SHARE: [(&str, [f64; 5]); 10] = [
    ("hust", [0.6731, 0.6135, 0.4262, 0.2163, 0.1058]),
    ("multistream", [0.6533, 0.6409, 0.2860, 0.1300, 0.0650]),
    ("filetree", [0.9002, 0.8999, 0.3095, 0.1629, 0.1043]),
    ("identical", [1.0000, 1.0000, 0.5000, 0.2500, 0.1250]),
    (
        "replaced-in-place",
        [0.9000, 0.9000, 0.4500, 0.2250, 0.1125],
    ),
    ("grow", [0.9091, 0.4602, 0.0057, 0.0057, 0.0057]),
    ("shrink", [1.0000, 0.9550, 0.4775, 0.2390, 0.1195]),
    ("insert-block", [0.9091, 0.3030, 0.3030, 0.2386, 0.1193]),
    ("delete-block", [1.0000, 0.9444, 0.4167, 0.2639, 0.1319]),
    ("popular", [1.0000, 1.0000, 0.5472, 0.2973, 0.1724]),
];

/// Versions of one or more job chains: `generations[g][j]` is generation
/// `g` of job `j`, chunked and fingerprinted.
struct Workload {
    name: &'static str,
    /// The law it is held to: this share of the fitting filter's filtered
    /// share is kept up to this version ÷ capacity.
    keeps: (f64, f64),
    generations: Vec<Vec<Vec<ChunkedFile>>>,
    /// Mean chunks per backup: the "version" of version ÷ capacity.
    version_chunks: usize,
}

impl Workload {
    fn from_datasets(name: &'static str, keeps: (f64, f64), datasets: Vec<Vec<Dataset>>) -> Self {
        let generations: Vec<Vec<Vec<ChunkedFile>>> = datasets
            .iter()
            .map(|jobs| {
                jobs.iter()
                    .enumerate()
                    .map(|(j, d)| BackupClient::new(ClientId(j as u32)).prepare(d).value)
                    .collect()
            })
            .collect();
        let backups = generations.iter().flatten();
        let chunks: usize = backups.clone().flatten().map(|f| f.chunks.len()).sum();
        Workload {
            name,
            keeps,
            version_chunks: chunks / backups.count(),
            generations,
        }
    }

    fn from_records(
        name: &'static str,
        keeps: (f64, f64),
        generations: Vec<Vec<Vec<ChunkRecord>>>,
    ) -> Self {
        let datasets = generations
            .into_iter()
            .map(|jobs| {
                jobs.into_iter()
                    .map(|v| Dataset::from_records("version", v))
                    .collect()
            })
            .collect();
        Self::from_datasets(name, keeps, datasets)
    }
}

fn fps(files: &[ChunkedFile]) -> Vec<Fingerprint> {
    files
        .iter()
        .flat_map(|file| file.chunks.iter().map(|c| c.fp))
        .collect()
}

/// One cell of the sweep, over the backups that have a previous run.
struct SweepCell {
    capacity: usize,
    logical_chunks: u64,
    filtered: u64,
    primed_loaded: u64,
    logical_bytes: u64,
    transferred_bytes: u64,
    backup_s: f64,
}

impl SweepCell {
    fn share(&self) -> f64 {
        self.filtered as f64 / self.logical_chunks as f64
    }
}

fn run_cell(w: &Workload, ratio: f64, denom: u64) -> SweepCell {
    let capacity = ((w.version_chunks as f64 / ratio) as usize).max(1);
    let mut cfg = DebarConfig::single_server_scaled(denom);
    cfg.filter_bytes = capacity as u64 * NODE_BYTES;
    let mut cluster = DebarCluster::new(cfg);
    let jobs = debar_bench::client_jobs(&mut cluster, w.generations[0].len());
    let mut cell = SweepCell {
        capacity,
        logical_chunks: 0,
        filtered: 0,
        primed_loaded: 0,
        logical_bytes: 0,
        transferred_bytes: 0,
        backup_s: 0.0,
    };
    for (g, generation) in w.generations.iter().enumerate() {
        let t0 = cluster.align_clocks();
        for (j, files) in generation.iter().enumerate() {
            let rep = cluster.backup_prepared(jobs[j], files).expect("backup");
            if g == 0 {
                continue;
            }
            cell.logical_chunks += rep.logical_chunks;
            cell.filtered += rep.filtered_dups;
            cell.logical_bytes += rep.logical_bytes;
            cell.transferred_bytes += rep.transferred_bytes;
            // The bare filter, handed the previous version whole and in
            // stream order, is the system's dedup-1.
            let mut filter = PrelimFilter::with_memory(cfg.filter_bytes);
            filter.prime(fps(&w.generations[g - 1][j]));
            for fp in fps(files) {
                filter.check(fp);
            }
            let stats = filter.stats();
            assert_eq!(
                stats.duplicates, rep.filtered_dups,
                "{} at {ratio}x",
                w.name
            );
            cell.primed_loaded += stats.primed_loaded;
        }
        if g > 0 {
            cell.backup_s += cluster.align_clocks() - t0;
        }
    }
    cell
}

/// The three generators, at the shapes of the end-to-end benchmark's
/// workloads (`benchmark/README.md`) and a fraction of their length.
fn generator_workloads(denom: u64, smoke: bool) -> Vec<Workload> {
    let shrink = if smoke { 4 } else { 1 };
    let mut out = Vec::new();

    let hust = HustConfig {
        days: 8,
        scale: ScaleModel::new(denom * shrink as u64),
        ..HustConfig::default()
    };
    let days = HustGen::new(hust).map(|day| day.per_client).collect();
    out.push(Workload::from_records("hust", (0.8, 2.0), days));

    let mut multi = MultiStreamGen::new(MultiStreamConfig {
        version_chunks: 16_384 / shrink,
        run_len: (64, 256),
        ..MultiStreamConfig::default()
    });
    let rounds = (0..5).map(|_| multi.next_round()).collect();
    out.push(Workload::from_records("multistream", (0.9, 2.0), rounds));

    let mut tree = FileTreeGen::new(FileTreeConfig {
        files: 768 / shrink,
        file_size: (24 * 1024, 40 * 1024),
        pool_blocks: 4096 / shrink,
        ..FileTreeConfig::default()
    });
    let mut version = tree.initial();
    let mut versions = Vec::new();
    for _ in 0..6 {
        versions.push(vec![Dataset::from_file_specs(&version)]);
        version = tree.mutate(&version, MutationConfig::default());
    }
    out.push(Workload::from_datasets("filetree", (0.9, 2.0), versions));
    out
}

/// The elementary drifts, two versions each. All are followed at every
/// ratio but the single blocks, a tenth of the version long: those only
/// while the block fits the quarter window.
fn drift_workloads(smoke: bool) -> Vec<Workload> {
    let prev = base_version(if smoke { 4000 } else { 16_000 });
    let mut out: Vec<Workload> = Drift::ALL
        .iter()
        .map(|d| {
            let block = matches!(d, Drift::InsertBlock | Drift::DeleteBlock);
            let keeps = (0.99, if block { 2.0 } else { 8.0 });
            let versions = vec![vec![prev.clone()], vec![d.apply(&prev)]];
            Workload::from_records(d.name(), keeps, versions)
        })
        .collect();
    let popular = with_popular(&prev, 0.05, 7);
    let versions = vec![vec![popular.clone()], vec![popular]];
    out.push(Workload::from_records("popular", (0.99, 8.0), versions));
    out
}

/// The month with job chains and without: what crossed the wire, how fast
/// dedup-1 ran, what dedup-2 had to adjudicate, and the final compression.
fn month_table(denom: u64, smoke: bool) -> Table {
    let base = MonthConfig {
        denom: if smoke { 16 * denom } else { denom },
        days: if smoke { 6 } else { 31 },
        run_ddfs: false,
        ..MonthConfig::default()
    };
    eprintln!("month with job chains...");
    let with = run_month(base);
    eprintln!("month without...");
    let without = run_month(MonthConfig {
        disable_prelim_filter: true,
        ..base
    });

    let mut t = Table::new(&[
        "config",
        "logical_bytes",
        "transferred_bytes",
        "d1_mibps",
        "dedup2_load_bytes",
        "total_mibps",
        "compression",
    ]);
    for (label, r) in [("job chains", &with), ("no chains", &without)] {
        let i = r.last();
        t.row(vec![
            Cell::S(label),
            Cell::U(r.cum_logical(i)),
            Cell::U(r.cum(i, |x| x.transferred)),
            Cell::F(r.d1_cum_tp(i), 1),
            Cell::U(r.cum(i, |x| x.d2_log_bytes)),
            Cell::F(r.debar_total_cum_tp(i), 1),
            Cell::opt(r.debar_cum_ratio(i), 2),
        ]);
    }
    t.print();
    println!(
        "\nJob chains should cut network transfer and dedup-2 load by more\n\
         than a third (over the whole month: more than half) and raise dedup-1\n\
         throughput well past the NIC line; final compression is identical\n\
         (dedup-2 removes whatever the filter missed).\n",
    );
    let transferred = |r: &MonthReport| r.cum(r.last(), |x| x.transferred);
    assert!(3 * transferred(&with) < 2 * transferred(&without));
    let stored = |r: &MonthReport| r.rows[r.last()].debar_stored_cum;
    assert_eq!(stored(&with), stored(&without));
    t
}

fn main() {
    let (denom, smoke) = debar_bench::args(DEFAULT_DENOM, DEFAULT_DENOM);
    let month = month_table(denom, smoke);

    let mut workloads = generator_workloads(denom, smoke);
    workloads.extend(drift_workloads(smoke));
    let mut t = Table::new(&[
        "workload",
        "version_per_capacity",
        "version_chunks",
        "capacity",
        "filtered_share",
        "parent_filtered_share",
        "transferred_bytes",
        "backup_mibps",
        "hits_per_loaded",
    ]);
    let mut shares = Vec::new();
    for w in &workloads {
        let cells: Vec<SweepCell> = RATIOS.iter().map(|&r| run_cell(w, r, denom)).collect();
        for (ri, (cell, ratio)) in cells.iter().zip(RATIOS).enumerate() {
            // The parent's column is a full-scale measurement.
            let parent = PARENT_SHARE
                .iter()
                .find(|(name, _)| !smoke && denom == DEFAULT_DENOM && *name == w.name)
                .map(|(_, shares)| shares[ri]);
            assert!(
                parent.is_none_or(|p| cell.share() + 5e-5 >= p),
                "{} at {ratio}x: {:.4} is below the parent's",
                w.name,
                cell.share()
            );
            t.row(vec![
                Cell::S(w.name),
                // Every ratio is a power of two: 0.5 needs its one
                // decimal, the rest print whole.
                Cell::F(ratio, usize::from(ratio < 1.0)),
                Cell::U(w.version_chunks as u64),
                Cell::U(cell.capacity as u64),
                Cell::F(cell.share(), 6),
                parent.map_or(Cell::Null, |p| Cell::F(p, 4)),
                Cell::U(cell.transferred_bytes),
                Cell::F(mibps(cell.logical_bytes, cell.backup_s), 2),
                Cell::F(cell.filtered as f64 / cell.primed_loaded as f64, 4),
            ]);
        }
        shares.push(cells.iter().map(SweepCell::share).collect::<Vec<f64>>());
    }
    t.print();

    // ---- Laws. ----
    for (w, s) in workloads.iter().zip(&shares) {
        assert!(
            s.windows(2).all(|p| p[1] <= p[0]),
            "{}: share rises with version/capacity: {s:?}",
            w.name
        );
        let (floor, up_to) = w.keeps;
        for (ratio, share) in RATIOS.iter().zip(s).filter(|(r, _)| **r <= up_to) {
            let kept = share / s[0];
            assert!(
                kept >= floor,
                "{} at {ratio}x keeps {kept:.4} of the fitting share, below {floor}",
                w.name
            );
        }
    }
    println!(
        "\nShape: what the filter catches is a property of the stream, not of\n\
         version / capacity: the generators keep >= 0.8 of the fitting share at 2x\n\
         and every drift that moves positions by less than a quarter of the\n\
         capacity at a time keeps >= 0.99 of it at 8x. One block longer than\n\
         the quarter window (insert-block, delete-block past 2x) is the limit:\n\
         the position is lost for the rest of that version."
    );
    let json = format!(
        "{{\n  \"bench\": \"filter\",\n  \"denom\": {denom},\n  \"parent\": \"c4e4ceb\",\n  \
         \"month\": {},\n  \"cells\": {}\n}}\n",
        month.json_rows(),
        t.json_rows()
    );
    debar_bench::write_bench_json("filter", smoke, &json);
}
