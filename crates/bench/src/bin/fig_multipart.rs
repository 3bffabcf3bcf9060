//! Regenerates the paper's **§5.2 multi-part index analysis**: SIL/SIU
//! sweep time and dedup-2 throughput as the number of index parts grows —
//! the scalability argument behind DEBAR's striped index volume.
//!
//! Three measurements per partition count `P ∈ {1, 2, 4, 8, 16}`:
//!
//! 1. **Index-level sweep law** — one SIL sweep of a paper-geometry index
//!    part striped over `P` part-disks; with the physical per-partition
//!    disk model the even-split sweep time must still be exactly `1/P` of
//!    the single-volume sweep (each part-disk reads `total/P` bytes).
//! 2. **Straggler law** — the same sweep under a *deliberately skewed*
//!    layout (the first part-disk covers **half** the bucket range, the
//!    rest split the remainder): the sweep completes at the **slowest
//!    part**, i.e. half the scalar sweep regardless of `P` — not
//!    `total/P`. The analytic even-split model could never show this;
//!    the physical part-disk queues do.
//! 3. **System-level dedup-2** — the same multi-round, two-job backup
//!    workload on a [`DebarConfig::striped_scaled`] deployment; PSIL/PSIU
//!    walls shrink ≈ `1/P` while the chunk-storing phase is unchanged, so
//!    dedup-2 throughput rises and **saturates on the chunk-storing
//!    phase** — the paper's diminishing returns once sweeps stop
//!    dominating.
//! 4. **Store-worker scaling** — the saturation point (`P = 16`) re-run
//!    with the pipelined chunk-storing phase scaled in
//!    `DebarConfig::store_workers` (striped chunk-log drains) and across
//!    servers: dedup-2 throughput un-saturates (the acceptance bar is
//!    ≥ 1.5× the single-worker saturation value at `workers ≥ 2`), with
//!    per-worker efficiency and the cross-server overlap window reported
//!    alongside. Chunk-storing results stay byte-identical at any worker
//!    count — only the walls move.
//! 5. **Repository-node scaling & replication overhead** — the same
//!    saturation point with the drain striped (`W = 4`), varying the
//!    physical repository node count: the container-write commit
//!    completes at the most-loaded node, so the store wall divides as
//!    nodes are added (max over real per-node queues, not an analytic
//!    `cost / nodes`). A replication column quantifies the FASTEN-style
//!    trade-off: `R = 2` writes every container to two distinct nodes —
//!    exactly 2× the physical bytes, buying single-node-loss
//!    survivability without changing one dedup decision.
//!
//! Writes `BENCH_multipart.json` into the workspace root and prints the
//! tables. Run:
//!
//! ```text
//! cargo run --release -p debar-bench --bin fig_multipart [denom] [--smoke]
//! ```
//!
//! `--smoke` (CI) uses a deep scale denominator and one round so the bin
//! can't rot without burning minutes. Its numbers go to the temp
//! directory, never over the committed file.

use debar_bench::table::{f, TablePrinter};
use debar_core::{ClientId, Dataset, DebarCluster, DebarConfig};
use debar_hash::{ContainerId, Fingerprint};
use debar_index::{DiskIndex, IndexCache};
use debar_simio::throughput::mibps;
use debar_workload::ChunkRecord;

const PARTS: [usize; 5] = [1, 2, 4, 8, 16];

struct Point {
    parts: usize,
    index_sweep_s: f64,
    skew_sweep_s: f64,
    sil_wall_s: f64,
    siu_wall_s: f64,
    store_wall_s: f64,
    d2_wall_s: f64,
    d2_throughput_mibps: f64,
}

/// One row of the store-worker scaling table (measurement 4).
struct StorePoint {
    servers: usize,
    workers: usize,
    store_wall_s: f64,
    overlap_saved_s: f64,
    d2_wall_s: f64,
    d2_throughput_mibps: f64,
    mibps_per_worker: f64,
}

fn records(range: std::ops::Range<u64>) -> Vec<ChunkRecord> {
    range.map(ChunkRecord::of_counter).collect()
}

/// One striped SIL sweep of a paper-geometry index part (index-level
/// law) — evenly split, or under a deliberately skewed `parts`-way layout:
/// the first part-disk covers half the bucket range, the rest split the
/// remainder, and the physical model completes at the slowest part.
fn index_sweep_secs(cfg: &DebarConfig, parts: usize, skewed: bool) -> f64 {
    let mut idx = DiskIndex::with_paper_disk(cfg.index_part_params(), 0xF16);
    let ballast = (0..20_000u64).map(|i| (Fingerprint::of_counter(i), ContainerId::new(i)));
    idx.try_bulk_load_striped(ballast, 1)
        .expect("no fault is armed");
    if skewed && parts > 1 {
        let buckets = idx.params().buckets();
        let half = buckets / 2;
        let rest = buckets - half;
        let tail = (parts - 1) as u64;
        let bounds = std::iter::once(half)
            .chain((1..=tail).map(|i| half + rest * i / tail))
            .collect();
        idx.set_sweep_layout(Some(bounds));
    }
    let mut cache = IndexCache::new(8, 40_000);
    for i in 0..10_000u64 {
        cache.insert(Fingerprint::of_counter(i * 3), 0);
    }
    let rep = idx
        .try_sequential_lookup_sharded(&mut cache, parts)
        .expect("no fault is armed")
        .value;
    assert_eq!(rep.parts, parts as u32, "sweep must engage all partitions");
    rep.sweep_secs
}

/// System-level walls of one configuration: summed PSIL/PSIU/store walls,
/// overlap saved, total wall and dedup-2 throughput.
struct SystemWalls {
    sil: f64,
    siu: f64,
    store: f64,
    overlap: f64,
    wall: f64,
    mibps: f64,
}

/// The system-level workload: `rounds` rounds of two half-overlapping job
/// streams per server pair, dedup-2 after each, forced SIU at the end.
/// With `w_bits = 0` and `workers = 1` this is exactly the PR 2–4
/// workload, so the even columns reproduce unchanged.
fn system_point(w_bits: u32, parts: usize, workers: usize, denom: u64, rounds: u64) -> SystemWalls {
    let cfg = if w_bits == 0 {
        DebarConfig::striped_scaled(parts, denom).with_store_workers(workers)
    } else {
        let c = DebarConfig::cluster_scaled(w_bits, 32 << 30, denom)
            .with_sweep_parts(parts)
            .with_store_workers(workers);
        c.validate();
        c
    };
    drive_system(cfg, parts, workers, rounds).walls
}

/// Outcome of one system-level run: the walls plus the repository's
/// physical write accounting (measurement 5 quantifies node scaling and
/// the replication storage overhead with it).
struct SystemRun {
    walls: SystemWalls,
    /// Chunk-log bytes drained across rounds (the throughput numerator).
    log_bytes: u64,
    /// Physical bytes written across every repository node disk —
    /// replication multiplies this while the walls divide over nodes.
    physical_write_bytes: u64,
}

/// Drive the standard workload on an arbitrary configuration.
fn drive_system(cfg: DebarConfig, parts: usize, workers: usize, rounds: u64) -> SystemRun {
    let mut c = DebarCluster::new(cfg);
    // Two streams per server: job 2k fresh, job 2k+1 half-overlapping —
    // cross-job duplicates only dedup-2 can see. Multi-server points skew
    // the stream sizes so PSIL completion staggers across servers and the
    // pipelined store phase has an overlap window to exploit.
    let streams = 2 * cfg.servers() as u64;
    let n = cfg.cache_fps() as u64;
    let jobs: Vec<_> = (0..streams)
        .map(|k| c.define_job(format!("s{k}"), ClientId(k as u32)))
        .collect();
    let mut w = SystemWalls {
        sil: 0.0,
        siu: 0.0,
        store: 0.0,
        overlap: 0.0,
        wall: 0.0,
        mibps: 0.0,
    };
    let mut log_bytes = 0u64;
    for round in 0..rounds {
        let base = round * streams * n;
        for (k, &job) in jobs.iter().enumerate() {
            let k = k as u64;
            // Pair 2k/2k+1 shares half its content; multi-server points
            // additionally skew sizes by pair index.
            let len = if streams > 2 {
                n - (k / 2) * n / streams
            } else {
                n
            };
            let start = base + (k / 2) * 2 * n + (k % 2) * n / 2;
            c.backup(
                job,
                &Dataset::from_records("s", records(start..start + len)),
            )
            .expect("backup");
        }
        let d2 = c.run_dedup2().expect("dedup2");
        assert_eq!(d2.sweep_parts, parts as u32, "striped mode not engaged");
        assert_eq!(d2.store_workers, workers as u32, "workers not engaged");
        w.sil += d2.sil_wall;
        w.siu += d2.siu_wall;
        w.store += d2.store_wall;
        w.overlap += d2.store_overlap_saved;
        w.wall += d2.total_wall();
        log_bytes += d2.store.log_bytes;
    }
    let (_, siu_tail) = c.force_siu().expect("siu");
    w.siu += siu_tail;
    w.wall += siu_tail;
    w.mibps = mibps(log_bytes, w.wall);
    let physical_write_bytes = c
        .repository()
        .nodes()
        .iter()
        .map(|n| n.disk_stats().seq_write_bytes)
        .sum();
    SystemRun {
        walls: w,
        log_bytes,
        physical_write_bytes,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let denom: u64 = args
        .iter()
        .find_map(|a| a.parse().ok())
        .unwrap_or(if smoke { 16 * 1024 } else { 1024 });
    let rounds: u64 = if smoke { 1 } else { 3 };
    let law_cfg = DebarConfig::striped_scaled(1, denom);

    println!("Multi-part index analysis (§5.2): denom {denom}, {rounds} round(s)\n");
    let mut t = TablePrinter::new(&[
        "parts",
        "index sweep (s)",
        "sweep speedup",
        "skew sweep (s)",
        "straggler x",
        "PSIL wall (s)",
        "PSIU wall (s)",
        "store wall (s)",
        "dedup-2 wall (s)",
        "dedup-2 MiB/s",
    ]);
    let mut points = Vec::new();
    for &parts in &PARTS {
        let index_sweep_s = index_sweep_secs(&law_cfg, parts, false);
        let skew_sweep_s = index_sweep_secs(&law_cfg, parts, true);
        let w = system_point(0, parts, 1, denom, rounds);
        points.push(Point {
            parts,
            index_sweep_s,
            skew_sweep_s,
            sil_wall_s: w.sil,
            siu_wall_s: w.siu,
            store_wall_s: w.store,
            d2_wall_s: w.wall,
            d2_throughput_mibps: w.mibps,
        });
    }
    let base = &points[0];
    let base_sweep = base.index_sweep_s;
    let base_sil = base.sil_wall_s;
    for p in &points {
        let sweep_speedup = base_sweep / p.index_sweep_s;
        // The even-split law is exact in the physical model too: every
        // part-disk reads total/P bytes.
        assert!(
            (sweep_speedup - p.parts as f64).abs() / (p.parts as f64) < 1e-9,
            "parts={}: sweep speedup {sweep_speedup} != 1/P law",
            p.parts
        );
        // The straggler column must be populated and obey the physical
        // law: a skewed sweep completes at the slowest part — half the
        // scalar sweep for P >= 2 (its biggest part covers half the
        // buckets), NOT total/P.
        assert!(p.skew_sweep_s > 0.0, "straggler column unpopulated");
        let expect_skew = if p.parts == 1 {
            base_sweep
        } else {
            base_sweep / 2.0
        };
        assert!(
            (p.skew_sweep_s - expect_skew).abs() / expect_skew < 1e-9,
            "parts={}: skewed sweep {} != slowest-part law {expect_skew}",
            p.parts,
            p.skew_sweep_s
        );
        let straggler_x = p.skew_sweep_s / p.index_sweep_s;
        t.row(vec![
            p.parts.to_string(),
            format!("{:.6}", p.index_sweep_s),
            f(sweep_speedup, 2),
            format!("{:.6}", p.skew_sweep_s),
            f(straggler_x, 2),
            f(p.sil_wall_s, 3),
            f(p.siu_wall_s, 3),
            f(p.store_wall_s, 3),
            f(p.d2_wall_s, 3),
            f(p.d2_throughput_mibps, 1),
        ]);
    }
    t.print();
    println!(
        "\nShape: even-split sweep time divides exactly by P (each part-disk\n\
         reads total/P bytes; max over parts); a skewed layout straggles at\n\
         its slowest part-disk (half the scalar sweep here, straggler x =\n\
         P/2) — visible only with real per-partition disk queues. PSIL/PSIU\n\
         walls follow ≈ 1/P until the storing phase dominates, so dedup-2\n\
         throughput rises and saturates — the paper's multi-part\n\
         scalability argument."
    );

    // ---- Measurement 4: store-worker scaling at the saturation point. ----
    let sat_parts = *PARTS.last().expect("non-empty");
    let combos: [(u32, usize); 6] = [(0, 1), (0, 2), (0, 4), (0, 8), (2, 1), (2, 4)];
    println!(
        "\nPipelined chunk storing at P = {sat_parts}: scaling in store \
         workers and servers\n"
    );
    let mut st = TablePrinter::new(&[
        "servers",
        "workers",
        "store wall (s)",
        "overlap saved (s)",
        "dedup-2 wall (s)",
        "dedup-2 MiB/s",
        "MiB/s per worker",
    ]);
    let mut store_points = Vec::new();
    for &(w_bits, workers) in &combos {
        let w = system_point(w_bits, sat_parts, workers, denom, rounds);
        // Per-worker efficiency divides by the deployment's *total*
        // worker count (servers x workers per server), so the column is
        // comparable across the server axis too.
        let total_workers = ((1usize << w_bits) * workers) as f64;
        let sp = StorePoint {
            servers: 1 << w_bits,
            workers,
            store_wall_s: w.store,
            overlap_saved_s: w.overlap,
            d2_wall_s: w.wall,
            d2_throughput_mibps: w.mibps,
            mibps_per_worker: w.mibps / total_workers,
        };
        st.row(vec![
            sp.servers.to_string(),
            sp.workers.to_string(),
            f(sp.store_wall_s, 3),
            format!("{:.6}", sp.overlap_saved_s),
            f(sp.d2_wall_s, 3),
            f(sp.d2_throughput_mibps, 1),
            f(sp.mibps_per_worker, 1),
        ]);
        store_points.push(sp);
    }
    st.print();
    let single = &points[points.len() - 1];
    let base_mibps = single.d2_throughput_mibps;
    assert!(
        (store_points[0].d2_throughput_mibps - base_mibps).abs() / base_mibps < 1e-9,
        "the (1 server, 1 worker) store point must reproduce the P={sat_parts} \
         saturation row exactly"
    );
    assert_eq!(
        store_points[0].overlap_saved_s, 0.0,
        "a single server has no sibling sweep to overlap"
    );
    for sp in store_points
        .iter()
        .filter(|sp| sp.servers == 1 && sp.workers >= 2)
    {
        // The acceptance bar: the dedup-2 column no longer saturates at
        // the single-worker value — ≥ 1.5× at workers >= 2 (full scale);
        // the smoke scale keeps a strict-improvement floor so the bin
        // can't silently regress.
        let floor = if smoke { 1.05 } else { 1.5 };
        assert!(
            sp.d2_throughput_mibps >= floor * base_mibps,
            "workers={}: dedup-2 {:.1} MiB/s below {floor}x the saturation value {:.1}",
            sp.workers,
            sp.d2_throughput_mibps,
            base_mibps
        );
    }
    for sp in store_points.iter().filter(|sp| sp.servers > 1) {
        assert!(sp.overlap_saved_s >= 0.0, "overlap can never be negative");
        // At full scale the skewed streams stagger PSIL completion enough
        // for the pipeline to reclaim a visible window; the deep smoke
        // denominator can shrink it to nothing.
        assert!(
            smoke || sp.overlap_saved_s > 0.0,
            "servers={} workers={}: skewed multi-server streams must yield a \
             positive store/PSIL overlap window",
            sp.servers,
            sp.workers
        );
    }
    println!(
        "\nShape: at the saturation point the chunk-storing phase dominates;\n\
         striping the chunk-log drain over store workers divides its wall\n\
         (~1/W until container writes and probe CPU dominate, so MiB/s per\n\
         worker decays), and with multiple servers each server's store\n\
         starts at its own PSIL completion — the overlap-saved column is\n\
         wall the pipeline reclaimed from the old bulk-synchronous barrier.\n\
         Chunk-storing results are byte-identical at every point; only the\n\
         walls move."
    );

    // ---- Measurement 5: physical repository nodes and replication. ----
    // At the saturation point with the drain already striped (W = 4), the
    // wall left standing is the container-write commit: per-node batched
    // writes complete at the most-loaded node, so adding repository nodes
    // moves the wall for real. Replication then buys node-loss
    // survivability at a quantified storage overhead (the FASTEN
    // trade-off).
    let sat_workers = 4usize;
    let repo_nodes_axis: [usize; 4] = [1, 2, 4, 8];
    println!(
        "\nPhysical repository nodes at P = {sat_parts}, W = {sat_workers}: \
         store-wall scaling and replication overhead\n"
    );
    let mut rt = TablePrinter::new(&[
        "repo nodes",
        "replication",
        "store wall (s)",
        "store MiB/s",
        "dedup-2 MiB/s",
        "physical MiB",
        "overhead x",
    ]);
    struct RepoPoint {
        nodes: usize,
        replication: usize,
        store_wall_s: f64,
        store_mibps: f64,
        d2_throughput_mibps: f64,
        physical_write_bytes: u64,
    }
    let mut repo_points: Vec<RepoPoint> = Vec::new();
    let mut repl_points: Vec<RepoPoint> = Vec::new();
    let point = |nodes: usize, replication: usize| {
        let mut cfg = DebarConfig::striped_scaled(sat_parts, denom).with_store_workers(sat_workers);
        cfg.repo_nodes = nodes;
        let cfg = cfg.with_replication(replication);
        cfg.validate();
        let run = drive_system(cfg, sat_parts, sat_workers, rounds);
        RepoPoint {
            nodes,
            replication,
            store_wall_s: run.walls.store,
            store_mibps: mibps(run.log_bytes, run.walls.store),
            d2_throughput_mibps: run.walls.mibps,
            physical_write_bytes: run.physical_write_bytes,
        }
    };
    for &nodes in &repo_nodes_axis {
        repo_points.push(point(nodes, 1));
    }
    // Replication overhead at a fixed node count: R = 2 doubles the
    // physical container bytes on the node disks (every container on two
    // distinct nodes) without touching a single dedup decision.
    for r in [1usize, 2] {
        repl_points.push(point(4, r));
    }
    for p in repo_points.iter().chain(repl_points.iter()) {
        let base_phys = repl_points
            .first()
            .map_or(p.physical_write_bytes, |b| b.physical_write_bytes);
        let overhead = if p.replication == 1 {
            1.0
        } else {
            p.physical_write_bytes as f64 / base_phys as f64
        };
        rt.row(vec![
            p.nodes.to_string(),
            p.replication.to_string(),
            f(p.store_wall_s, 3),
            f(p.store_mibps, 1),
            f(p.d2_throughput_mibps, 1),
            f(p.physical_write_bytes as f64 / (1 << 20) as f64, 1),
            f(overhead, 2),
        ]);
    }
    rt.print();
    // Node scaling: the store wall must never rise as repository nodes
    // are added, and at full scale the 8-node wall must be strictly below
    // the single-node one (the W >= 4 wall moves with `repo_nodes`).
    for pair in repo_points.windows(2) {
        assert!(
            pair[1].store_wall_s <= pair[0].store_wall_s * (1.0 + 1e-9),
            "store wall rose from {} to {} nodes",
            pair[0].nodes,
            pair[1].nodes
        );
        assert!(
            pair[1].store_mibps >= pair[0].store_mibps * (1.0 - 1e-9),
            "store MiB/s fell from {} to {} nodes",
            pair[0].nodes,
            pair[1].nodes
        );
    }
    if !smoke {
        let first = repo_points.first().expect("non-empty");
        let last = repo_points.last().expect("non-empty");
        assert!(
            last.store_wall_s < first.store_wall_s,
            "adding repository nodes must move the store wall at full scale"
        );
    }
    // Replication accounting: same containers, same IDs — exactly R times
    // the physical bytes on the node disks.
    let (r1, r2) = (&repl_points[0], &repl_points[1]);
    let overhead = r2.physical_write_bytes as f64 / r1.physical_write_bytes as f64;
    assert!(
        (overhead - 2.0).abs() < 1e-9,
        "R=2 must write exactly 2x the physical container bytes, got {overhead}"
    );
    assert!(
        r2.store_wall_s >= r1.store_wall_s,
        "replica writes are charged to real disks; the wall cannot shrink"
    );
    println!(
        "\nShape: with the drain striped, the chunk-storing wall is the\n\
         container-write commit at the most-loaded repository node, so it\n\
         divides as nodes are added (max over per-node queues — a real\n\
         wall, not an analytic division). Replication R = 2 writes every\n\
         container to two distinct nodes: exactly 2x the physical bytes\n\
         (the FASTEN-style overhead buying single-node-loss survivability)\n\
         and a correspondingly loaded store phase; dedup decisions and\n\
         container IDs are untouched."
    );

    // ---- BENCH_multipart.json (manual JSON: no runtime serde_json in the
    //      container). ----
    let mut out = String::from("{\n  \"bench\": \"multipart\",\n");
    out.push_str(&format!("  \"denom\": {denom},\n  \"rounds\": {rounds},\n"));
    out.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"parts\": {}, \"index_sweep_s\": {:.9}, \"sweep_speedup\": {:.3}, \
             \"skew_sweep_s\": {:.9}, \"straggler_x\": {:.3}, \
             \"sil_wall_s\": {:.6}, \"siu_wall_s\": {:.6}, \"store_wall_s\": {:.6}, \
             \"d2_wall_s\": {:.6}, \
             \"sil_speedup\": {:.3}, \"d2_throughput_mibps\": {:.2} }}{}\n",
            p.parts,
            p.index_sweep_s,
            base_sweep / p.index_sweep_s,
            p.skew_sweep_s,
            p.skew_sweep_s / p.index_sweep_s,
            p.sil_wall_s,
            p.siu_wall_s,
            p.store_wall_s,
            p.d2_wall_s,
            base_sil / p.sil_wall_s,
            p.d2_throughput_mibps,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"store_scaling_parts\": {sat_parts},\n"));
    out.push_str("  \"store_points\": [\n");
    for (i, sp) in store_points.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"servers\": {}, \"workers\": {}, \"store_wall_s\": {:.6}, \
             \"overlap_saved_s\": {:.6}, \"d2_wall_s\": {:.6}, \
             \"d2_throughput_mibps\": {:.2}, \"mibps_per_worker\": {:.2} }}{}\n",
            sp.servers,
            sp.workers,
            sp.store_wall_s,
            sp.overlap_saved_s,
            sp.d2_wall_s,
            sp.d2_throughput_mibps,
            sp.mibps_per_worker,
            if i + 1 < store_points.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"repo_points\": [\n");
    for (i, p) in repo_points.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"repo_nodes\": {}, \"replication\": {}, \"store_wall_s\": {:.6}, \
             \"store_mibps\": {:.2}, \"d2_throughput_mibps\": {:.2}, \
             \"physical_write_bytes\": {} }}{}\n",
            p.nodes,
            p.replication,
            p.store_wall_s,
            p.store_mibps,
            p.d2_throughput_mibps,
            p.physical_write_bytes,
            if i + 1 < repo_points.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"replication_points\": [\n");
    for (i, p) in repl_points.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"repo_nodes\": {}, \"replication\": {}, \"store_wall_s\": {:.6}, \
             \"store_mibps\": {:.2}, \"d2_throughput_mibps\": {:.2}, \
             \"physical_write_bytes\": {} }}{}\n",
            p.nodes,
            p.replication,
            p.store_wall_s,
            p.store_mibps,
            p.d2_throughput_mibps,
            p.physical_write_bytes,
            if i + 1 < repl_points.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    debar_bench::write_bench_json("multipart", smoke, &out);
}
