//! **Deletion & reclamation benchmark**: retention-window expiry and
//! garbage collection on a generational backup history — the lifecycle
//! the paper's archival setting implies (bounded retention over an
//! ever-growing version chain) but never measures.
//!
//! Workload (`history = sliding`): `J` jobs, each backing up `G`
//! generations of a sliding content window (consecutive generations share
//! most chunks; each generation retires a fixed shift of old ones). After
//! the history is quiesced, all but the newest `retention` generations per
//! job are expired and one `run_gc` reclaims them. Those collections are
//! mostly deletes: a few victims hold survivors. The last row
//! (`history = every_other_run`) is survivor-heavy: a second job keeps
//! every other run of 24 chunks of the first one's stream, and the first
//! job's run is deleted, so every victim moves half its bytes — the
//! compaction whose reads, output writes and frees share the repository
//! nodes (`busiest_node_s`: the busiest node's busy seconds in the
//! collection; `gc_wall_s` adds the index sweeps to the nodes' makespan).
//! Four laws are asserted:
//!
//! 1. **Reclaim exactness** — the repository's physical-byte delta is
//!    exactly `replication × dead_chunk_bytes` (the report agrees), and
//!    an immediate re-collection finds nothing.
//! 2. **Partition independence** — the dead set and the reclaimed bytes
//!    are identical at every `sweep_parts`; only the GC wall moves (the
//!    striped index sweep divides its read/write time).
//! 3. **Replication accounting** — `R = 2` reclaims exactly twice the
//!    physical bytes of `R = 1` on the same history.
//! 4. **Packed outputs** — the survivors of all compacted victims share
//!    containers: a collection writes at most `⌈moved bytes ÷
//!    (container_bytes − largest chunk)⌉` of them (an output is sealed only
//!    by a chunk that does not fit), not one per compacted victim.
//!
//! Every collection keeps laws 1 and 4 and takes no less than its busiest
//! node's busy time; laws 2 and 3 compare the sliding points. Every
//! retained run must still verify with zero failures after the
//! collection. Writes `BENCH_gc.json` into the workspace root and
//! prints the table. Run:
//!
//! ```text
//! cargo run --release -p debar-bench --bin fig_gc [n] [--smoke]
//! ```
//!
//! `--smoke` (CI) uses a deep scale denominator so the bin can't rot
//! without burning minutes. Its numbers go to the temp directory, never
//! over the committed file.

use debar_bench::table::{Cell, Table};
use debar_core::{Dataset, DebarCluster, DebarConfig, GcReport, RunId};
use debar_simio::throughput::mibps;
use debar_simio::Secs;
use debar_workload::drift::records;
use debar_workload::ChunkRecord;

const JOBS: u64 = 2;
const GENERATIONS: u64 = 4;
const RETENTION: u32 = 1;
/// The survivor-heavy history keeps every other run of this many chunks.
const RUN: usize = 24;

/// What one collection did: the report, the containers it wrote, how full
/// they are, and the busiest repository node's busy seconds in it.
struct Collected {
    rep: GcReport,
    written: u64,
    fill: f64,
    busiest_node_s: Secs,
}

/// Collect `c` and assert the laws every collection keeps: reclaim
/// exactness (law 1), idempotence, packed outputs (law 4) and a wall no
/// shorter than the busiest node's share of it.
fn collect(c: &mut DebarCluster, replication: usize, largest_chunk: u64) -> Collected {
    let node_busy = |c: &DebarCluster| -> Vec<Secs> {
        (c.repository().nodes().iter())
            .map(|n| n.disk_stats().busy_s)
            .collect()
    };
    let container_bytes = c.config().container_bytes;
    let phys_before = c.repository().physical_data_bytes();
    let stored_before = c.repository().stats().containers;
    let busy_before = node_busy(c);
    let rep = c.run_gc().expect("gc");
    let phys_after = c.repository().physical_data_bytes();
    let written = c.repository().stats().containers - stored_before;
    let busiest_node_s = (node_busy(c).iter().zip(&busy_before))
        .map(|(after, before)| after - before)
        .fold(0.0, f64::max);

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
    assert!(rep.dead_fps > 0, "the history must kill chunks");
    assert!(
        rep.wall >= busiest_node_s,
        "the nodes work side by side, never faster than the busiest"
    );
    let rep2 = c.run_gc().expect("idempotent gc");
    assert_eq!(rep2.dead_fps, 0, "re-collection must find nothing");

    // Law 4: outputs are packed across victims, each sealed only by a
    // chunk that did not fit.
    let moved_bytes = rep.stored_physical_bytes / replication as u64;
    assert!(rep.containers_compacted > 1, "nothing to pack");
    assert!(
        written <= moved_bytes.div_ceil(container_bytes - largest_chunk),
        "{written} outputs for {moved_bytes} moved bytes"
    );
    let fill = moved_bytes as f64 / (written * container_bytes) as f64;
    Collected {
        rep,
        written,
        fill,
        busiest_node_s,
    }
}

/// The scaled deployment of one point.
fn config(parts: usize, replication: usize, denom: u64) -> DebarConfig {
    let cfg = DebarConfig::striped_scaled(parts, denom).with_replication(replication);
    cfg.validate().expect("a valid configuration");
    cfg
}

/// Drive one generational history to quiescence, expire everything
/// outside the retention window and collect.
fn gc_point(parts: usize, replication: usize, denom: u64) -> Collected {
    let cfg = config(parts, replication, denom).with_retention(RETENTION);
    let n = cfg.cache_fps() as u64;
    let shift = n / 4; // chunks each generation retires
    let mut c = DebarCluster::new(cfg);
    let jobs = debar_bench::client_jobs(&mut c, JOBS as usize);
    let mut largest_chunk = 0u64;
    for g in 0..GENERATIONS {
        for (j, &job) in jobs.iter().enumerate() {
            let base = j as u64 * 10 * n + g * shift;
            let stream = records(base..base + n);
            largest_chunk = stream
                .iter()
                .fold(largest_chunk, |m, r| m.max(r.len as u64));
            c.backup(job, &Dataset::from_records("s", stream))
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
    let point = collect(&mut c, replication, largest_chunk);

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
    point
}

/// The survivor-heavy history: one job backs up a stream, a second keeps
/// every other run of [`RUN`] of its chunks, and the first job's run is
/// deleted — so every container of it is a victim half of whose bytes
/// move, and the survivors fill many outputs.
fn survivor_heavy_point(parts: usize, replication: usize, denom: u64) -> Collected {
    let cfg = config(parts, replication, denom);
    let stream = records(0..cfg.cache_fps() as u64);
    let kept: Vec<ChunkRecord> = (stream.chunks(RUN).step_by(2).flatten().copied()).collect();
    let largest_chunk = stream.iter().map(|r| r.len as u64).max().unwrap_or(0);
    let mut c = DebarCluster::new(cfg);
    let jobs = debar_bench::client_jobs(&mut c, 2);
    for (&job, recs) in jobs.iter().zip([stream, kept]) {
        c.backup(job, &Dataset::from_records("s", recs))
            .expect("backup");
        c.run_dedup2().expect("dedup2");
    }
    c.force_siu().expect("siu");
    let run = |j: usize| RunId {
        job: jobs[j],
        version: 0,
    };
    c.delete_run(run(0)).expect("delete");
    let point = collect(&mut c, replication, largest_chunk);
    let r = c.verify_run(run(1)).expect("retained run verifies");
    assert_eq!(r.failures, 0, "the kept runs damaged by the collection");
    point
}

fn main() {
    let (denom, smoke) = debar_bench::args(1024, 16 * 1024);

    println!(
        "Deletion & reclamation: {JOBS} jobs x {GENERATIONS} generations, \
         retention {RETENTION}, denom {denom}\n"
    );
    let mut t = Table::new(&[
        "history",
        "parts",
        "replication",
        "live_fps",
        "dead_fps",
        "containers_compacted",
        "containers_deleted",
        "containers_written",
        "fill",
        "reclaimed_bytes",
        "gc_wall_s",
        "busiest_node_s",
        "reclaim_mibps",
    ]);
    let mut row = |history: &'static str, parts: usize, replication: usize, p: &Collected| {
        let rep = &p.rep;
        t.row(vec![
            Cell::S(history),
            Cell::U(parts as u64),
            Cell::U(replication as u64),
            Cell::U(rep.live_fps),
            Cell::U(rep.dead_fps),
            Cell::U(rep.containers_compacted),
            Cell::U(rep.containers_deleted),
            Cell::U(p.written),
            Cell::F(p.fill, 3),
            Cell::U(rep.net_physical_reclaimed()),
            Cell::F(rep.wall, 9),
            Cell::F(p.busiest_node_s, 9),
            Cell::F(mibps(rep.net_physical_reclaimed(), rep.wall), 2),
        ]);
    };
    let mut points: Vec<(usize, usize, GcReport)> = Vec::new();
    for (parts, replication) in [(1usize, 1usize), (2, 1), (4, 1), (4, 1), (4, 2)] {
        let p = gc_point(parts, replication, denom);
        row("sliding", parts, replication, &p);
        points.push((parts, replication, p.rep));
    }
    // Outside law 2's set: another history, another dead set.
    row("every_other_run", 1, 1, &survivor_heavy_point(1, 1, denom));
    t.print();

    // Law 2: partition independence of the logical outcome.
    let base = &points[0].2;
    for (parts, _, p) in points
        .iter()
        .filter(|(_, replication, _)| *replication == 1)
    {
        assert_eq!(
            p.dead_fps, base.dead_fps,
            "parts={parts}: the dead set is partition-independent"
        );
        assert_eq!(
            p.net_physical_reclaimed(),
            base.net_physical_reclaimed(),
            "parts={parts}: reclaimed bytes are partition-independent"
        );
    }
    // Law 3: replication accounting on the fixed-parts pair, the last two
    // points.
    let (r1, r2) = (&points[3].2, &points[4].2);
    assert_eq!(
        r2.net_physical_reclaimed(),
        2 * r1.net_physical_reclaimed(),
        "R=2 must reclaim exactly two copies of every dead chunk"
    );
    assert_eq!(r2.dead_fps, r1.dead_fps, "the dead set is logical");
    println!(
        "\nShape: the dead set and reclaimed bytes are logical properties —\n\
         identical at every sweep-partition count and scaled exactly by the\n\
         replication factor — while the GC wall is physical: the striped\n\
         index sweep divides its read/write time over the part-disks, and\n\
         compaction runs on the repository nodes side by side — each victim\n\
         read for what is live in it, the survivors packed into full\n\
         containers. Where survivors are many (every_other_run), each node\n\
         serves whatever read or write is ready and the survivors in flight\n\
         may fill the restore cache, so the wall is the busiest node's\n\
         busy time plus the index sweeps."
    );

    let json = format!(
        "{{\n  \"bench\": \"gc\",\n  \"denom\": {denom},\n  \"jobs\": {JOBS},\n  \
         \"generations\": {GENERATIONS},\n  \"retention\": {RETENTION},\n  \
         \"points\": {}\n}}\n",
        t.json_rows()
    );
    debar_bench::write_bench_json("gc", smoke, &json);
}
