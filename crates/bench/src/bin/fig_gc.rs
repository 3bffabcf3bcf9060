//! **Deletion & reclamation benchmark**: retention-window expiry and
//! garbage collection on a generational backup history — the lifecycle
//! the paper's archival setting implies (bounded retention over an
//! ever-growing version chain) but never measures.
//!
//! Workload: `J` jobs, each backing up `G` generations of a sliding
//! content window (consecutive generations share most chunks; each
//! generation retires a fixed shift of old ones). After the history is
//! quiesced, all but the newest `retention` generations per job are
//! expired and one `run_gc` reclaims them. Three laws are asserted:
//!
//! 1. **Reclaim exactness** — the repository's physical-byte delta is
//!    exactly `replication × dead_chunk_bytes` (the report agrees), and
//!    an immediate re-collection finds nothing.
//! 2. **Partition independence** — the dead set and the reclaimed bytes
//!    are identical at every `sweep_parts`; only the GC wall moves (the
//!    striped index sweep divides its read/write time).
//! 3. **Replication accounting** — `R = 2` reclaims exactly twice the
//!    physical bytes of `R = 1` on the same history.
//!
//! Every retained run must still verify with zero failures after the
//! collection. Writes `BENCH_gc.json` into the workspace root and
//! prints the table. Run:
//!
//! ```text
//! cargo run --release -p debar-bench --bin fig_gc [denom] [--smoke]
//! ```
//!
//! `--smoke` (CI) uses a deep scale denominator so the bin can't rot
//! without burning minutes. Its numbers go to the temp directory, never
//! over the committed file.

use debar_bench::table::{f, TablePrinter};
use debar_core::{ClientId, Dataset, DebarCluster, DebarConfig, RunId};
use debar_simio::throughput::mibps;
use debar_workload::ChunkRecord;

const JOBS: u64 = 2;
const GENERATIONS: u64 = 4;
const RETENTION: u32 = 1;

fn records(range: std::ops::Range<u64>) -> Vec<ChunkRecord> {
    range.map(ChunkRecord::of_counter).collect()
}

struct GcPoint {
    parts: usize,
    replication: usize,
    live_fps: u64,
    dead_fps: u64,
    containers_compacted: u64,
    containers_deleted: u64,
    reclaimed_bytes: u64,
    gc_wall_s: f64,
    reclaim_mibps: f64,
}

/// Drive one generational history to quiescence, expire everything
/// outside the retention window, collect, and assert the reclaim laws.
fn gc_point(parts: usize, replication: usize, denom: u64) -> GcPoint {
    let cfg = DebarConfig::striped_scaled(parts, denom)
        .with_replication(replication)
        .with_retention(RETENTION);
    cfg.validate();
    let n = cfg.cache_fps() as u64;
    let shift = n / 4; // chunks each generation retires
    let mut c = DebarCluster::new(cfg);
    let jobs: Vec<_> = (0..JOBS)
        .map(|j| c.define_job(format!("gen{j}"), ClientId(j as u32)))
        .collect();
    for g in 0..GENERATIONS {
        for (j, &job) in jobs.iter().enumerate() {
            let base = j as u64 * 10 * n + g * shift;
            c.backup(job, &Dataset::from_records("s", records(base..base + n)))
                .expect("backup");
        }
        c.run_dedup2().expect("dedup2");
    }
    c.force_siu().expect("siu");

    let expired = c.expire_runs();
    assert_eq!(
        expired.len() as u64,
        JOBS * (GENERATIONS - RETENTION as u64),
        "expiry must retire every pre-window generation"
    );
    let phys_before = c.repository().physical_data_bytes();
    let rep = c.run_gc().expect("gc");
    let phys_after = c.repository().physical_data_bytes();

    // Law 1: exactness, and idempotence of the follow-up collection.
    assert_eq!(
        phys_before - phys_after,
        rep.net_physical_reclaimed(),
        "physical delta must match the GC report"
    );
    assert_eq!(
        rep.net_physical_reclaimed(),
        replication as u64 * rep.dead_chunk_bytes,
        "GC must reclaim replication x dead bytes exactly"
    );
    assert!(rep.dead_fps > 0, "the sliding window must kill chunks");
    assert!(rep.wall > 0.0, "a collection charges real I/O");
    let rep2 = c.run_gc().expect("idempotent gc");
    assert_eq!(rep2.dead_fps, 0, "re-collection must find nothing");

    // Retained generations still verify with zero failures.
    for (j, &job) in jobs.iter().enumerate() {
        for v in (GENERATIONS - RETENTION as u64)..GENERATIONS {
            let run = RunId {
                job,
                version: v as u32,
            };
            let r = c.verify_run(run).expect("retained run verifies");
            assert_eq!(r.failures, 0, "job {j} v{v} damaged by the collection");
        }
    }

    GcPoint {
        parts,
        replication,
        live_fps: rep.live_fps,
        dead_fps: rep.dead_fps,
        containers_compacted: rep.containers_compacted,
        containers_deleted: rep.containers_deleted,
        reclaimed_bytes: rep.net_physical_reclaimed(),
        gc_wall_s: rep.wall,
        reclaim_mibps: mibps(rep.net_physical_reclaimed(), rep.wall),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let denom: u64 = args
        .iter()
        .find_map(|a| a.parse().ok())
        .unwrap_or(if smoke { 16 * 1024 } else { 1024 });

    println!(
        "Deletion & reclamation: {JOBS} jobs x {GENERATIONS} generations, \
         retention {RETENTION}, denom {denom}\n"
    );
    let mut t = TablePrinter::new(&[
        "parts",
        "replication",
        "live fps",
        "dead fps",
        "compacted",
        "deleted",
        "reclaimed MiB",
        "GC wall (s)",
        "reclaim MiB/s",
    ]);
    let mut points: Vec<GcPoint> = Vec::new();
    for parts in [1usize, 2, 4] {
        points.push(gc_point(parts, 1, denom));
    }
    for r in [1usize, 2] {
        points.push(gc_point(4, r, denom));
    }
    for p in &points {
        t.row(vec![
            p.parts.to_string(),
            p.replication.to_string(),
            p.live_fps.to_string(),
            p.dead_fps.to_string(),
            p.containers_compacted.to_string(),
            p.containers_deleted.to_string(),
            f(p.reclaimed_bytes as f64 / (1 << 20) as f64, 1),
            format!("{:.6}", p.gc_wall_s),
            f(p.reclaim_mibps, 1),
        ]);
    }
    t.print();

    // Law 2: partition independence of the logical outcome.
    let base = &points[0];
    for p in points.iter().filter(|p| p.replication == 1) {
        assert_eq!(
            p.dead_fps, base.dead_fps,
            "parts={}: the dead set is partition-independent",
            p.parts
        );
        assert_eq!(
            p.reclaimed_bytes, base.reclaimed_bytes,
            "parts={}: reclaimed bytes are partition-independent",
            p.parts
        );
    }
    // Law 3: replication accounting on the fixed-parts pair.
    let r1 = points
        .iter()
        .find(|p| p.parts == 4 && p.replication == 1)
        .expect("R=1 point");
    let r2 = points
        .iter()
        .find(|p| p.parts == 4 && p.replication == 2)
        .expect("R=2 point");
    assert_eq!(
        r2.reclaimed_bytes,
        2 * r1.reclaimed_bytes,
        "R=2 must reclaim exactly two copies of every dead chunk"
    );
    assert_eq!(r2.dead_fps, r1.dead_fps, "the dead set is logical");
    println!(
        "\nShape: the dead set and reclaimed bytes are logical properties —\n\
         identical at every sweep-partition count and scaled exactly by the\n\
         replication factor — while the GC wall is physical: the striped\n\
         index sweep divides its read/write time over the part-disks, and\n\
         compaction charges the repository nodes that host each victim."
    );

    // ---- BENCH_gc.json (manual JSON: no runtime serde_json in the
    //      container). ----
    let mut out = String::from("{\n  \"bench\": \"gc\",\n");
    out.push_str(&format!(
        "  \"denom\": {denom},\n  \"jobs\": {JOBS},\n  \"generations\": {GENERATIONS},\n  \
         \"retention\": {RETENTION},\n"
    ));
    out.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"parts\": {}, \"replication\": {}, \"live_fps\": {}, \"dead_fps\": {}, \
             \"containers_compacted\": {}, \"containers_deleted\": {}, \
             \"reclaimed_bytes\": {}, \"gc_wall_s\": {:.9}, \"reclaim_mibps\": {:.2} }}{}\n",
            p.parts,
            p.replication,
            p.live_fps,
            p.dead_fps,
            p.containers_compacted,
            p.containers_deleted,
            p.reclaimed_bytes,
            p.gc_wall_s,
            p.reclaim_mibps,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    debar_bench::write_bench_json("gc", smoke, &out);
}
