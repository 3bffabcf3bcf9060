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
//! 2. **Straggler law** — the same sweep's bytes read by a bank of `P`
//!    index part-disks (`PartDiskSet`, the index's own device model)
//!    under a *deliberately skewed* split (the first part-disk covers
//!    **half** the bucket range, the rest split the remainder): the read
//!    completes at the **slowest part**, i.e. half the scalar sweep
//!    regardless of `P` — not `total/P`. The analytic even-split model
//!    could never show this; the physical part-disk queues do. (The index
//!    itself always splits evenly.)
//! 3. **System-level dedup-2** — the same multi-round, two-job backup
//!    workload on a single-server deployment striped by
//!    [`DebarConfig::with_sweep_parts`]; PSIL/PSIU
//!    walls shrink ≈ `1/P` while the chunk-storing phase is unchanged, so
//!    dedup-2 throughput rises and **saturates on the chunk-storing
//!    phase** — the paper's diminishing returns once sweeps stop
//!    dominating.
//! 4. **Store-worker scaling** — the saturation point (`P = 16`) re-run
//!    with the pipelined chunk-storing phase scaled in
//!    `DebarConfig::store_workers` (striped chunk-log drains) and across
//!    servers, with per-worker efficiency alongside. The drain reads only
//!    the records the pass packs and seeks over duplicate runs, so its
//!    laws are: one worker already beats the log disk's sequential rate
//!    (the paper's whole-log drain); striping wider never slows dedup-2
//!    and `W = 2` beats `W = 1`; and past `W = 4` the store wall is the
//!    repository-write floor, which no drain moves (`W = 2` is bound by
//!    the worker whose share is the round's fresh stream, with nothing in
//!    it to skip). Chunk-storing results stay byte-identical at any worker
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
//! cargo run --release -p debar-bench --bin fig_multipart [n] [--smoke]
//! ```
//!
//! `--smoke` (CI) uses a deep scale denominator and one round so the bin
//! can't rot without burning minutes. Its numbers go to the temp
//! directory, never over the committed file.

use debar_bench::table::{Cell, Table};
use debar_core::{Dataset, DebarCluster, DebarConfig};
use debar_hash::{ContainerId, Fingerprint};
use debar_index::{DiskIndex, IndexCache};
use debar_simio::models::{paper, MIB};
use debar_simio::throughput::mibps;
use debar_simio::{Device, PartDiskSet};
use debar_workload::drift::records;

const PARTS: [usize; 5] = [1, 2, 4, 8, 16];

/// One striped SIL sweep of a paper-geometry index part (index-level
/// law), evenly split over `parts` part-disks.
fn index_sweep_secs(cfg: &DebarConfig, parts: usize) -> f64 {
    let mut idx = DiskIndex::with_paper_disk(cfg.index_part_params(), 0xF16);
    let ballast = (0..20_000u64).map(|i| (Fingerprint::of_counter(i), ContainerId::new(i)));
    idx.try_bulk_load_striped(ballast, 1)
        .expect("no fault is armed");
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

/// The same index part's bytes read by `parts` paper index part-disks
/// under a deliberately skewed split: the first covers half the bucket
/// range, the rest split the remainder, and the read completes at the
/// slowest part.
fn skewed_sweep_secs(cfg: &DebarConfig, parts: usize) -> f64 {
    let params = cfg.index_part_params();
    let buckets = params.buckets();
    let bounds: Vec<u64> = if parts > 1 {
        let (half, tail) = (buckets / 2, parts as u64 - 1);
        let rest = buckets - half;
        std::iter::once(half)
            .chain((1..=tail).map(|i| half + rest * i / tail))
            .collect()
    } else {
        vec![buckets]
    };
    let shares: Vec<u64> = std::iter::once(0)
        .chain(bounds.iter().copied())
        .zip(&bounds)
        .map(|(start, end)| (end - start) * params.bucket_bytes as u64)
        .collect();
    let volume = Device::IndexPart { server: 0, part: 0 };
    (PartDiskSet::new(paper::index_disk(), volume).seq_read_split(&shares))
        .expect("no fault is armed")
}

/// System-level walls of one configuration: summed PSIL/PSIU/store walls,
/// total wall and dedup-2 throughput.
struct SystemWalls {
    sil: f64,
    siu: f64,
    store: f64,
    wall: f64,
    mibps: f64,
}

/// The system-level workload: `rounds` rounds of two half-overlapping job
/// streams per server pair, dedup-2 after each, forced SIU at the end.
/// With `w_bits = 0` and `workers = 1` this is exactly the PR 2–4
/// workload, so the even columns reproduce unchanged.
fn system_point(w_bits: u32, parts: usize, workers: usize, denom: u64, rounds: u64) -> SystemWalls {
    let cfg = if w_bits == 0 {
        DebarConfig::single_server_scaled(denom)
            .with_sweep_parts(parts)
            .with_store_workers(workers)
    } else {
        let c = DebarConfig::cluster_scaled(w_bits, 32 << 30, denom)
            .with_sweep_parts(parts)
            .with_store_workers(workers);
        c.validate().expect("a valid configuration");
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
    let jobs = debar_bench::client_jobs(&mut c, streams as usize);
    let mut w = SystemWalls {
        sil: 0.0,
        siu: 0.0,
        store: 0.0,
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

/// Chunk-log MiB stored per second of the store wall.
fn store_mibps(run: &SystemRun) -> f64 {
    mibps(run.log_bytes, run.walls.store)
}

/// One row of measurement 5: a repository geometry and what storing cost.
fn repo_row(nodes: usize, replication: usize, run: &SystemRun) -> Vec<Cell> {
    vec![
        Cell::U(nodes as u64),
        Cell::U(replication as u64),
        Cell::F(run.walls.store, 6),
        Cell::F(store_mibps(run), 2),
        Cell::F(run.walls.mibps, 2),
        Cell::U(run.physical_write_bytes),
    ]
}

fn main() {
    let (denom, smoke) = debar_bench::args(1024, 16 * 1024);
    let rounds: u64 = if smoke { 1 } else { 3 };
    let law_cfg = DebarConfig::single_server_scaled(denom);

    println!("Multi-part index analysis (§5.2): denom {denom}, {rounds} round(s)\n");
    let mut t = Table::new(&[
        "parts",
        "index_sweep_s",
        "sweep_speedup",
        "skew_sweep_s",
        "straggler_x",
        "sil_wall_s",
        "siu_wall_s",
        "store_wall_s",
        "d2_wall_s",
        "sil_speedup",
        "d2_throughput_mibps",
    ]);
    // The single-volume point (`PARTS[0] == 1`) every speedup is over, and
    // the dedup-2 MiB/s of the last, saturated one.
    let mut base = None;
    let mut sat_mibps = 0.0;
    for &parts in &PARTS {
        let index_sweep_s = index_sweep_secs(&law_cfg, parts);
        let skew_sweep_s = skewed_sweep_secs(&law_cfg, parts);
        let w = system_point(0, parts, 1, denom, rounds);
        let (base_sweep, base_sil) = *base.get_or_insert((index_sweep_s, w.sil));
        let sweep_speedup = base_sweep / index_sweep_s;
        // The even-split law is exact in the physical model too: every
        // part-disk reads total/P bytes.
        assert!(
            (sweep_speedup - parts as f64).abs() / (parts as f64) < 1e-9,
            "parts={parts}: sweep speedup {sweep_speedup} != 1/P law"
        );
        // The straggler column must be populated and obey the physical
        // law: a skewed sweep completes at the slowest part — half the
        // scalar sweep for P >= 2 (its biggest part covers half the
        // buckets), NOT total/P.
        assert!(skew_sweep_s > 0.0, "straggler column unpopulated");
        let expect_skew = if parts == 1 {
            base_sweep
        } else {
            base_sweep / 2.0
        };
        assert!(
            (skew_sweep_s - expect_skew).abs() / expect_skew < 1e-9,
            "parts={parts}: skewed sweep {skew_sweep_s} != slowest-part law {expect_skew}"
        );
        t.row(vec![
            Cell::U(parts as u64),
            Cell::F(index_sweep_s, 9),
            Cell::F(sweep_speedup, 3),
            Cell::F(skew_sweep_s, 9),
            Cell::F(skew_sweep_s / index_sweep_s, 3),
            Cell::F(w.sil, 6),
            Cell::F(w.siu, 6),
            Cell::F(w.store, 6),
            Cell::F(w.wall, 6),
            Cell::F(base_sil / w.sil, 3),
            Cell::F(w.mibps, 2),
        ]);
        sat_mibps = w.mibps;
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
    let mut st = Table::new(&[
        "servers",
        "workers",
        "store_wall_s",
        "d2_wall_s",
        "d2_throughput_mibps",
        "mibps_per_worker",
    ]);
    let mut store_points = Vec::new();
    for &(w_bits, workers) in &combos {
        let w = system_point(w_bits, sat_parts, workers, denom, rounds);
        // Per-worker efficiency divides by the deployment's *total*
        // worker count (servers x workers per server), so the column is
        // comparable across the server axis too.
        let servers = 1usize << w_bits;
        st.row(vec![
            Cell::U(servers as u64),
            Cell::U(workers as u64),
            Cell::F(w.store, 6),
            Cell::F(w.wall, 6),
            Cell::F(w.mibps, 2),
            Cell::F(w.mibps / (servers * workers) as f64, 2),
        ]);
        store_points.push((servers, workers, w));
    }
    st.print();
    let first = &store_points[0].2;
    assert!(
        (first.mibps - sat_mibps).abs() / sat_mibps < 1e-9,
        "the (1 server, 1 worker) store point must reproduce the P={sat_parts} \
         saturation row exactly"
    );
    // The worker-scaling laws of a drain that reads only what it keeps:
    // W = 1 already skips the half-overlapping stream's duplicate runs,
    // while W = 2's first worker holds the round's fresh stream — nothing
    // of its share to skip — and binds.
    let log_disk_mibps = paper::log_disk().read_bw() / MIB;
    assert!(
        first.mibps > log_disk_mibps,
        "one worker reads less than the log: dedup-2 {:.1} MiB/s must beat the whole-log \
         drain's {log_disk_mibps:.1}",
        first.mibps
    );
    let one_server: Vec<&SystemWalls> = (store_points.iter())
        .filter(|(servers, ..)| *servers == 1)
        .map(|(.., w)| w)
        .collect();
    for pair in one_server.windows(2) {
        assert!(
            pair[1].mibps >= pair[0].mibps * (1.0 - 1e-9),
            "striping the drain wider must never slow dedup-2"
        );
    }
    assert!(
        one_server[1].mibps > first.mibps,
        "W = 2 must beat W = 1: one worker is still bound by its drain"
    );
    let (w4, w8) = (one_server[2], one_server[3]);
    assert!(
        (w8.store - w4.store).abs() / w4.store < 1e-9,
        "past W = 4 the store wall is the repository-write floor, which no drain moves"
    );
    println!(
        "\nShape: at the saturation point the chunk-storing phase dominates.\n\
         The drain reads only the records it packs, so one worker already\n\
         beats the log disk's sequential rate; striping it over store workers\n\
         helps until the slowest worker's share (here the round's fresh\n\
         stream, nothing to skip) or the container writes bind — then MiB/s\n\
         per worker decays. With multiple servers each server's store starts\n\
         at its own PSIL completion. Chunk-storing results are byte-identical\n\
         at every point; only the walls move."
    );

    // ---- Measurement 5: physical repository nodes and replication. ----
    // At the saturation point with the drain already striped (W = 4), the
    // wall left standing is the container-write commit: per-node batched
    // writes complete at the most-loaded node, so adding repository nodes
    // moves the wall for real. Replication then buys node-loss
    // survivability at a quantified storage overhead (the FASTEN
    // trade-off).
    let sat_workers = 4usize;
    println!(
        "\nPhysical repository nodes at P = {sat_parts}, W = {sat_workers}: \
         store-wall scaling and replication overhead\n"
    );
    const REPO_COLUMNS: [&str; 6] = [
        "repo_nodes",
        "replication",
        "store_wall_s",
        "store_mibps",
        "d2_throughput_mibps",
        "physical_write_bytes",
    ];
    let point = |nodes: usize, replication: usize| {
        let mut cfg = DebarConfig::single_server_scaled(denom)
            .with_sweep_parts(sat_parts)
            .with_store_workers(sat_workers);
        cfg.repo_nodes = nodes;
        let cfg = cfg.with_replication(replication);
        cfg.validate().expect("a valid configuration");
        drive_system(cfg, sat_parts, sat_workers, rounds)
    };
    let mut repo_table = Table::new(&REPO_COLUMNS);
    let repo_points: Vec<(usize, SystemRun)> = [1usize, 2, 4, 8]
        .into_iter()
        .map(|nodes| (nodes, point(nodes, 1)))
        .collect();
    for (nodes, run) in &repo_points {
        repo_table.row(repo_row(*nodes, 1, run));
    }
    repo_table.print();
    // Replication overhead at a fixed node count: R = 2 doubles the
    // physical container bytes on the node disks (every container on two
    // distinct nodes) without touching a single dedup decision.
    let mut repl_table = Table::new(&REPO_COLUMNS);
    let (r1, r2) = (point(4, 1), point(4, 2));
    repl_table.row(repo_row(4, 1, &r1));
    repl_table.row(repo_row(4, 2, &r2));
    println!("\nReplication at 4 nodes:\n");
    repl_table.print();
    // Node scaling: the store wall must never rise as repository nodes
    // are added, and at full scale the 8-node wall must be strictly below
    // the single-node one (the W >= 4 wall moves with `repo_nodes`).
    for pair in repo_points.windows(2) {
        let ((n0, p0), (n1, p1)) = (&pair[0], &pair[1]);
        assert!(
            p1.walls.store <= p0.walls.store * (1.0 + 1e-9),
            "store wall rose from {n0} to {n1} nodes"
        );
        assert!(
            store_mibps(p1) >= store_mibps(p0) * (1.0 - 1e-9),
            "store MiB/s fell from {n0} to {n1} nodes"
        );
    }
    if !smoke {
        let first = &repo_points.first().expect("non-empty").1;
        let last = &repo_points.last().expect("non-empty").1;
        assert!(
            last.walls.store < first.walls.store,
            "adding repository nodes must move the store wall at full scale"
        );
    }
    // Replication accounting: same containers, same IDs — exactly R times
    // the physical bytes on the node disks.
    let overhead = r2.physical_write_bytes as f64 / r1.physical_write_bytes as f64;
    assert!(
        (overhead - 2.0).abs() < 1e-9,
        "R=2 must write exactly 2x the physical container bytes, got {overhead}"
    );
    assert!(
        r2.walls.store >= r1.walls.store,
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

    let json = format!(
        "{{\n  \"bench\": \"multipart\",\n  \"denom\": {denom},\n  \"rounds\": {rounds},\n  \
         \"points\": {},\n  \"store_scaling_parts\": {sat_parts},\n  \"store_points\": {},\n  \
         \"repo_points\": {},\n  \"replication_points\": {}\n}}\n",
        t.json_rows(),
        st.json_rows(),
        repo_table.json_rows(),
        repl_table.json_rows()
    );
    debar_bench::write_bench_json("multipart", smoke, &json);
}
