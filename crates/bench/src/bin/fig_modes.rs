//! **Dedup-mode benchmark**: out-of-line (the paper's TPDS) vs inline
//! (the DDFS-style baseline) vs hybrid resolution of filter-missed
//! fingerprints — the backlog/backup-latency trade
//! `DebarConfig::dedup_mode` exposes.
//!
//! Workload: two jobs backing up the *identical* stream for `VERSIONS`
//! generations (pure cross-job duplication the preliminary filter
//! cannot catch — job chains don't cross), with every `SHARE`-th chunk
//! stable across generations and the rest refreshed each round. Per
//! mode the bin sums dedup-1 backlog bytes, inline hits and
//! backup-path index reads, and dedup-2 submitted vs pre-staged
//! fingerprints, then asserts the mode laws:
//!
//! 1. **Byte identity** — every generation of every job restores the
//!    identical bytes and chunk count under all three modes.
//! 2. **Inline empties the backlog** — `Inline` reports zero backlog
//!    bytes and submits zero fingerprints to PSIL; every stored chunk
//!    arrives pre-staged (`predetermined_fps`).
//! 3. **Hybrid is strictly between** — its backlog bytes land strictly
//!    below `OutOfLine`'s while its backup-path index reads stay
//!    strictly below `Inline`'s and within the per-run window.
//!
//! The backup-throughput cost of inline probing and the dedup-2 wall
//! saved are reported, not asserted — they are the trade's two sides.
//! Writes `BENCH_modes.json` into the workspace root and prints the
//! table. Run:
//!
//! ```text
//! cargo run --release -p debar-bench --bin fig_modes [n] [--smoke]
//! ```
//!
//! `--smoke` (CI) shrinks the stream and generation count so the bin
//! can't rot without burning minutes. Its numbers go to the temp
//! directory, never over the committed file.

use debar_bench::table::{Cell, Table};
use debar_core::{Dataset, DebarCluster, DebarConfig, DedupMode, RunId};
use debar_workload::ChunkRecord;

const SHARE: u64 = 4;
const JOBS: u32 = 2;

/// One run's scale knobs (full vs smoke).
struct Scale {
    n: u64,
    versions: u64,
    window: u32,
}

/// The shared churn stream: every `SHARE`-th chunk is stable across
/// generations, the rest are fresh per generation; both jobs back up
/// the identical stream.
fn stream(version: u64, n: u64) -> Vec<ChunkRecord> {
    (0..n)
        .map(|i| {
            if i % SHARE == 0 {
                ChunkRecord::of_counter(i)
            } else {
                ChunkRecord::of_counter(1_000_000 * (version + 1) + i)
            }
        })
        .collect()
}

/// Per-mode totals over the whole history.
#[derive(Default)]
struct Totals {
    logical_bytes: u64,
    backup_wall: f64,
    backlog_bytes: u64,
    inline_hits: u64,
    inline_index_reads: u64,
    submitted_fps: u64,
    predetermined_fps: u64,
    dedup2_wall: f64,
    stored_bytes: u64,
    /// `(bytes, chunks)` of every (job, version) restore, in order —
    /// the byte-identity law compares these across modes.
    restores: Vec<(u64, u64)>,
}

impl Totals {
    fn backup_mibps(&self) -> f64 {
        debar_simio::throughput::mibps(self.logical_bytes, self.backup_wall)
    }
}

fn drive(mode: DedupMode, denom: u64, scale: &Scale) -> Totals {
    let mut c = DebarCluster::new(DebarConfig::single_server_scaled(denom).with_dedup_mode(mode));
    let jobs = debar_bench::client_jobs(&mut c, JOBS as usize);
    let mut t = Totals::default();
    for v in 0..scale.versions {
        let ds = Dataset::from_records("s", stream(v, scale.n));
        for &job in &jobs {
            let d1 = c.backup(job, &ds).expect("backup");
            t.logical_bytes += d1.logical_bytes;
            t.backup_wall += d1.elapsed;
            t.backlog_bytes += d1.backlog_bytes;
            t.inline_hits += d1.inline_hits;
            t.inline_index_reads += d1.inline_index_reads;
        }
        let d2 = c.run_dedup2().expect("dedup2");
        t.submitted_fps += d2.submitted_fps;
        t.predetermined_fps += d2.predetermined_fps;
        t.dedup2_wall += d2.total_wall();
        t.stored_bytes += d2.store.stored_bytes;
    }
    c.force_siu().expect("siu");
    for v in 0..scale.versions {
        for &job in &jobs {
            let r = c
                .restore_run(RunId {
                    job,
                    version: v as u32,
                })
                .expect("restore");
            assert_eq!(r.failures, 0, "{mode:?} v{v}");
            t.restores.push((r.bytes, r.chunks));
        }
    }
    t
}

fn main() {
    let (denom, smoke) = debar_bench::args(1024, 16 * 1024);
    let scale = if smoke {
        Scale {
            n: 400,
            versions: 4,
            window: 8,
        }
    } else {
        Scale {
            n: 2000,
            versions: 8,
            window: 16,
        }
    };

    println!(
        "Dedup modes: {JOBS} jobs x {} chunks x {} generations \
         (share period {SHARE}), hybrid window {}, denom {denom}\n",
        scale.n, scale.versions, scale.window
    );

    let modes = [
        ("outofline", DedupMode::OutOfLine),
        ("inline", DedupMode::Inline),
        (
            "hybrid",
            DedupMode::Hybrid {
                window: scale.window,
            },
        ),
    ];
    let totals: Vec<(&str, Totals)> = modes
        .iter()
        .map(|&(key, mode)| (key, drive(mode, denom, &scale)))
        .collect();

    let mut t = Table::new(&[
        "mode",
        "backup_mibps",
        "logical_bytes",
        "backlog_bytes",
        "inline_hits",
        "inline_index_reads",
        "submitted_fps",
        "predetermined_fps",
        "dedup2_wall",
        "stored_bytes",
    ]);
    for &(key, ref tot) in &totals {
        t.row(vec![
            Cell::S(key),
            Cell::F(tot.backup_mibps(), 2),
            Cell::U(tot.logical_bytes),
            Cell::U(tot.backlog_bytes),
            Cell::U(tot.inline_hits),
            Cell::U(tot.inline_index_reads),
            Cell::U(tot.submitted_fps),
            Cell::U(tot.predetermined_fps),
            Cell::F(tot.dedup2_wall, 4),
            Cell::U(tot.stored_bytes),
        ]);
    }
    t.print();

    let oo = &totals[0].1;
    let inl = &totals[1].1;
    let hy = &totals[2].1;

    // Law 1: byte identity — every (job, version) restore streams the
    // identical bytes and chunks under all three modes.
    assert_eq!(
        oo.restores, inl.restores,
        "inline restores diverged from out-of-line"
    );
    assert_eq!(
        oo.restores, hy.restores,
        "hybrid restores diverged from out-of-line"
    );
    assert_eq!(
        oo.stored_bytes, inl.stored_bytes,
        "modes must store the same bytes"
    );
    assert_eq!(
        oo.stored_bytes, hy.stored_bytes,
        "modes must store the same bytes"
    );

    // Law 2: inline empties the backlog.
    assert_eq!(
        (oo.inline_hits, oo.inline_index_reads, oo.predetermined_fps),
        (0, 0, 0),
        "out-of-line must report zero inline activity"
    );
    assert!(oo.backlog_bytes > 0, "out-of-line must defer its misses");
    assert_eq!(inl.backlog_bytes, 0, "inline must leave no backlog");
    assert_eq!(inl.submitted_fps, 0, "inline must submit nothing to PSIL");
    assert!(
        inl.predetermined_fps > 0,
        "inline must pre-stage its chunks"
    );
    assert!(inl.inline_index_reads > 0, "inline must probe the index");

    // Law 3: hybrid strictly between — less backlog than out-of-line,
    // fewer backup-path index reads than inline, window honored.
    assert!(
        hy.backlog_bytes < oo.backlog_bytes,
        "hybrid backlog {} must fall strictly below out-of-line's {}",
        hy.backlog_bytes,
        oo.backlog_bytes
    );
    assert!(
        hy.inline_index_reads < inl.inline_index_reads,
        "hybrid index reads {} must stay strictly below inline's {}",
        hy.inline_index_reads,
        inl.inline_index_reads
    );
    let runs = JOBS as u64 * scale.versions;
    assert!(
        hy.inline_index_reads <= scale.window as u64 * runs,
        "hybrid spent {} probes over {runs} runs (window {})",
        hy.inline_index_reads,
        scale.window
    );

    println!(
        "\nShape: out-of-line defers every filter miss to the batched\n\
         sweep — fastest backups, biggest backlog. Inline resolves each\n\
         miss at backup time with random index reads: {:.1} MiB/s vs\n\
         {:.1} MiB/s backup throughput, but dedup-2 has nothing left to\n\
         sweep ({:.2}s vs {:.2}s). Hybrid caps the probes per run and\n\
         defers only the cold remainder.",
        inl.backup_mibps(),
        oo.backup_mibps(),
        inl.dedup2_wall,
        oo.dedup2_wall
    );

    let json = format!(
        "{{\n  \"bench\": \"modes\",\n  \"denom\": {denom},\n  \"jobs\": {JOBS},\n  \
         \"chunks\": {},\n  \"generations\": {},\n  \"share_period\": {SHARE},\n  \
         \"hybrid_window\": {},\n{}\n}}\n",
        scale.n,
        scale.versions,
        scale.window,
        t.json_keyed(2)
    );
    debar_bench::write_bench_json("modes", smoke, &json);
}
