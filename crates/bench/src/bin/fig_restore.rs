//! **Restore-layout benchmark**: fragmentation-driven restore decay
//! under the paper's layout — the restore-path consequence of out-of-line
//! dedup the paper leaves unmeasured.
//!
//! Workload: one job backing up `GENS` generations of an `N`-chunk
//! churn stream split into `K` slices; generation `g` rewrites slice
//! `g % K` with fresh content, so the *latest* generation's chunks
//! scatter across up to `K` earlier generations' containers. After each
//! round the newest generation is restored and two laws are asserted:
//!
//! 1. **Fragmentation costs node reads** — the latest generation's
//!    containers-per-MiB, the node bytes read per byte restored
//!    (`read_amp`, *measured*: what the repository nodes' disks read over
//!    the walk) and the repository-disk seconds per restored MiB
//!    (`RestoreReport::node_read_total_s` over the bytes) grow with the
//!    generation count, and a fragmented walk that knows its recipe reads
//!    less than the whole containers it fetches.
//! 2. **GC reclaims exactly** — expiring all but the newest `RETENTION`
//!    generations and collecting reclaims the dead bytes exactly
//!    (`net = replication × dead bytes`), and every retained generation
//!    verifies clean.
//!
//! Both throughput columns are reported, not asserted: the pipelined
//! walk's (`elapsed`) and what the same walk costs with nothing overlapped
//! (`serial_s()`). The pipeline hides the extra reads behind the client
//! stream on this 2-node repository — over 30 generations the serial
//! column decays 196 → 152 MiB/s, the pipelined one 199 → 187. `lane_share`
//! (busiest device lane ÷ `elapsed`) is what the pipeline still leaves
//! idle: the walks keep their NIC busy 0.89–0.96 of the time (0.86–0.92
//! while no chunk was sent before its whole read was in). `refetch`
//! (fetches per distinct container needed) is what the walk's
//! recipe-aware eviction works on. Each generation is restored on the
//! cache the one before left; at generation 17 the working set first
//! outgrows it (33 containers, 32 slots), which cost LRU 16 fetches and
//! costs this walk 2 (`refetch` 0.06), and from there the column stays
//! under 0.15 — 0.09 at generation 29 — because the cache is counted in
//! bytes: an extent set weighs what it holds, and the 32 MiB hold the
//! extent sets of nearly the whole working set (0.36 at generation 29
//! while each took a whole slot). `read_amp` is what ranged reads work
//! on: once a walk has filled its cache it reads a container's metadata
//! section and the extents its recipe wants, so from generation 17 on the
//! measured column runs below `whole_read_amp` — what the same fetches
//! would have read as the paper's whole fixed-size containers (every miss
//! × `container_bytes`, the number this column showed before reads were
//! ranged) — 0.05 against 0.13 at generation 17, 0.18 against 0.26 at
//! generation 29:
//! this churn takes every 60th chunk of a 1 MiB container, and a gap
//! shorter than a seek's worth of streaming (~440 KiB on the repository
//! disk) is read through, so a range is the stretch from the first chunk
//! the rest of the recipe wants to the last. Rows whose walk cannot have
//! filled the cache (up to generation 16) read whole containers, and a
//! whole read reads the container's image, not its slot, so they too run
//! below the paper's column by what their containers leave unfilled: 1.00
//! against 1.04 at generation 0, where every container is read, and 0.017
//! against 0.065 at generation 16, whose one fetch is the newest,
//! early-sealed container. (The two columns were equal on those rows
//! until whole reads stopped at the image.) The same rule makes a range
//! cost no less than the image sooner, so from generation 19 a few more
//! fetches read whole and `read_amp` is up to 0.015 higher than it was —
//! in less time.
//!
//! **SISL against no locality** (`sisl_lpc`): the same chunks stored twice,
//! once in stream order (SISL) and once pre-shuffled, each restored through
//! a stream-ordered reference of the content. One container fetch serves
//! the next ~1000 stream-local lookups under SISL (LPC hit ratio 0.999
//! against the paper's "99.3% of random lookups eliminated", near the
//! network line); a shuffled layout defeats the prefetch (0.78) and
//! restore throughput collapses (1.4 MiB/s against 210). At full size the
//! walks take 65,536 chunks, 512 MiB at 8 KiB: enough that the shuffled
//! layout's containers outgrow the cache many times over (64 containers
//! against the 16 the cache holds), little enough that both walks take a
//! few seconds.
//!
//! Writes `BENCH_restore.json` into the workspace root and prints the
//! tables. Run:
//!
//! ```text
//! cargo run --release -p debar-bench --bin fig_restore [n] [--smoke]
//! ```
//!
//! `--smoke` (CI) shrinks the stream and generation count so the bin
//! can't rot without burning minutes. Its numbers go to the temp
//! directory, never over the committed file.

use debar_bench::table::{paper_err, Cell, Table};
use debar_core::{ClientId, Dataset, DebarCluster, DebarConfig, JobId, RestoreReport, RunId};
use debar_hash::SplitMix64;
use debar_simio::models::MIB;
use debar_simio::throughput::mibps;
use debar_workload::drift::{churn, records};

const RETENTION: u32 = 2;
/// Small containers + a tight LPC make fragmentation visible at bench
/// scale: the scattered working set outgrows the cache.
const CONTAINER_BYTES: u64 = 1 << 20;

/// One run's scale knobs (full vs smoke).
struct Scale {
    n: u64,
    k: u64,
    gens: u64,
    lpc_containers: usize,
}

fn cluster(denom: u64, scale: &Scale) -> (DebarCluster, JobId) {
    let mut cfg = DebarConfig::single_server_scaled(denom).with_retention(RETENTION);
    cfg.container_bytes = CONTAINER_BYTES;
    cfg.lpc_containers = scale.lpc_containers;
    cfg.siu_interval = 1;
    cfg.validate().expect("a valid configuration");
    let mut c = DebarCluster::new(cfg);
    let job = c.define_job("churn", ClientId(0));
    (c, job)
}

/// Repository-disk milliseconds per restored MiB, summed over the nodes.
fn node_ms_per_mib(r: &RestoreReport) -> f64 {
    1e3 * r.node_read_total_s / (r.bytes as f64 / MIB)
}

/// Bytes the repository nodes' disks have read so far, and the I/Os.
fn node_reads(c: &DebarCluster) -> (u64, u64) {
    (c.repository().nodes().iter())
        .map(|n| n.disk_stats())
        .fold((0, 0), |(bytes, ios), d| {
            (bytes + d.read_bytes(), ios + d.rand_reads)
        })
}

/// One restore, and the bytes and I/Os the repository nodes read for it.
struct Walk {
    report: RestoreReport,
    node_bytes: u64,
    node_ios: u64,
}

fn restore(c: &mut DebarCluster, run: RunId) -> Walk {
    let before = node_reads(c);
    let report = c.restore_run(run).expect("restore");
    let after = node_reads(c);
    Walk {
        report,
        node_bytes: after.0 - before.0,
        node_ios: after.1 - before.1,
    }
}

/// Read amplification, measured: node bytes read per byte restored.
fn read_amp(w: &Walk) -> f64 {
    w.node_bytes as f64 / w.report.bytes as f64
}

/// The paper's read amplification for the same fetches: every LPC miss a
/// whole fixed-size container, however few of its chunks the recipe needs.
fn whole_read_amp(r: &RestoreReport) -> f64 {
    (r.lpc.misses * CONTAINER_BYTES) as f64 / r.bytes as f64
}

/// Fetches per distinct container the restore needed: 1 when nothing
/// evicted had to be read again.
fn refetch(r: &RestoreReport) -> f64 {
    r.lpc.misses as f64 / r.layout.containers_touched as f64
}

/// How much of the walk its busiest device lane — resolver, one
/// repository node, or the NIC — was busy: 1.0 is a walk no pipeline
/// could shorten, the rest is what this one still leaves idle.
fn lane_share(r: &RestoreReport) -> f64 {
    r.resolve_s.max(r.node_read_s).max(r.send_s) / r.elapsed
}

/// One generation's restore. `serial_mibps` is the same walk with nothing
/// overlapped.
fn row(w: &Walk) -> Vec<Cell> {
    let r = &w.report;
    vec![
        Cell::U(r.run.version as u64),
        Cell::F(r.throughput_mibps(), 2),
        Cell::F(mibps(r.bytes, r.serial_s()), 2),
        Cell::F(lane_share(r), 4),
        Cell::F(node_ms_per_mib(r), 4),
        Cell::F(read_amp(w), 4),
        Cell::F(whole_read_amp(r), 4),
        Cell::F(refetch(r), 4),
        Cell::F(r.layout.containers_per_mib(), 4),
        Cell::F(r.layout.mean_run_length(), 4),
        Cell::F(r.lpc.hit_ratio(), 4),
    ]
}

/// The paper's LPC hit ratio under SISL: "99.3% of random lookups
/// eliminated".
const PAPER_SISL_HIT_RATIO: f64 = 0.993;

/// Store `n` stream-ordered chunks in stream order (SISL) or pre-shuffled,
/// then restore a second job that references the same content in stream
/// order. Returns `n` and the restore.
fn layout_walk(shuffled_layout: bool, denom: u64) -> (u64, RestoreReport) {
    let mut cluster = DebarCluster::new(DebarConfig::single_server_scaled(denom));
    let n = ((512u64 << 20) / 8192 / denom * 1024).max(4096);
    let ordered = records(0..n);

    // Job 1 determines the physical container layout.
    let layout_job = cluster.define_job("layout", ClientId(0));
    let mut layout = ordered.clone();
    if shuffled_layout {
        SplitMix64::new(99).shuffle(&mut layout);
    }
    cluster
        .backup(layout_job, &Dataset::from_records("layout", layout))
        .expect("backup");
    cluster.run_dedup2().expect("dedup2");
    cluster.force_siu().expect("siu");

    // Job 2 references the same content in stream order (all duplicates);
    // restoring it replays a stream-local access pattern against whatever
    // layout job 1 created.
    let ref_job = cluster.define_job("reference", ClientId(1));
    cluster
        .backup(ref_job, &Dataset::from_records("ref", ordered))
        .expect("backup");
    cluster.run_dedup2().expect("dedup2");
    cluster.force_siu().expect("siu");

    let run = RunId {
        job: ref_job,
        version: 0,
    };
    let rep = cluster.restore_run(run).expect("restore");
    assert_eq!(rep.failures, 0);
    (n, rep)
}

/// SISL against a shuffled layout of the same chunks.
fn sisl_lpc(denom: u64) -> Table {
    let mut t = Table::new(&[
        "layout",
        "chunks",
        "lpc_hit_ratio",
        "paper_lpc_hit_ratio",
        "paper_err",
        "restore_mibps",
    ]);
    let (n, sisl) = layout_walk(false, denom);
    let (_, shuffled) = layout_walk(true, denom);
    let hits = |r: &RestoreReport| r.lpc.hit_ratio();
    for (layout, r, paper) in [
        ("sisl", &sisl, Some(PAPER_SISL_HIT_RATIO)),
        ("shuffled", &shuffled, None),
    ] {
        t.row(vec![
            Cell::S(layout),
            Cell::U(n),
            Cell::F(hits(r), 4),
            Cell::opt(paper, 3),
            paper_err(hits(r), paper),
            Cell::F(r.throughput_mibps(), 1),
        ]);
    }
    // Law 3: the layout is what the prefetch works on. (A smoke run's
    // shuffled containers all fit the cache, so only its order of fetches
    // costs: the hit ratios tie.)
    assert!(
        hits(&sisl) >= hits(&shuffled) && sisl.throughput_mibps() > shuffled.throughput_mibps(),
        "SISL must hit at least as often and restore faster than no locality"
    );
    t
}

fn main() {
    let (denom, smoke) = debar_bench::args(1024, 16 * 1024);
    let scale = if smoke {
        Scale {
            n: 600,
            k: 20,
            gens: 10,
            lpc_containers: 8,
        }
    } else {
        Scale {
            n: 2000,
            k: 60,
            gens: 30,
            lpc_containers: 32,
        }
    };

    println!(
        "Restore layout: {} chunks x {} generations (churn period {}), \
         retention {RETENTION}, denom {denom}\n",
        scale.n, scale.gens, scale.k
    );

    let (mut c, job) = cluster(denom, &scale);
    let mut table = Table::new(&[
        "gen",
        "restore_mibps",
        "serial_mibps",
        "lane_share",
        "node_read_ms_per_mib",
        "read_amp",
        "whole_read_amp",
        "refetch",
        "containers_per_mib",
        "mean_run_length",
        "lpc_hit_ratio",
    ]);
    let mut walks = Vec::new();
    // Entries the restore cache holds, at most.
    let mut resident = 0u64;
    for g in 0..scale.gens {
        let ds = Dataset::from_records("s", churn(g, scale.n, scale.k));
        c.backup(job, &ds).expect("backup");
        c.run_dedup2().expect("dedup2");
        let w = restore(
            &mut c,
            RunId {
                job,
                version: g as u32,
            },
        );
        assert_eq!(w.report.failures, 0, "gen {g}");
        // A fetch never reads more than the whole container it stands for,
        // and a walk that cannot have filled its cache — had every entry
        // before it and every fetch of its own weighed a whole container,
        // there was room — read whole containers: one I/O a fetch, of the
        // container's image (header, metadata section, data, trailer — no
        // more than its slot). The first generation is the walk that reads
        // every container stored so far, and restores every byte of them.
        let lpc = &w.report.lpc;
        let whole = lpc.misses * CONTAINER_BYTES;
        assert!(w.node_bytes <= whole, "gen {g}: {} > {whole}", w.node_bytes);
        if resident + lpc.misses <= scale.lpc_containers as u64 {
            assert_eq!(
                w.node_ios, lpc.misses,
                "gen {g}: knows nothing, reads whole"
            );
        }
        if g == 0 {
            // What each copy's image weighs, read off a copy of the
            // repository so that no disk of this one is charged.
            let repo = c.repository();
            let mut probe = repo.clone();
            let images: u64 = (repo.container_ids().into_iter())
                .map(|cid| probe.read(cid).value.expect("clean").expect("stored"))
                .map(|stored| (stored.serialized_len() as u64).min(CONTAINER_BYTES))
                .sum();
            assert_eq!(
                repo.stats().data_bytes,
                w.report.bytes,
                "every byte restored"
            );
            assert_eq!(w.node_bytes, images, "gen {g}: whole reads read images");
        }
        // (An upper bound: a merge adds no entry.)
        resident += lpc.misses - lpc.evictions;
        table.row(row(&w));
        walks.push(w);
    }
    table.print();

    // Law 1: fragmentation costs node reads. Generation 1 is the
    // reference (generation 0 is the self-contained initial full).
    let (first_walk, last_walk) = (&walks[1], walks.last().expect("points"));
    let (first, last) = (&first_walk.report, &last_walk.report);
    let per_mib = |r: &RestoreReport| r.layout.containers_per_mib();
    assert!(
        per_mib(last) > 1.5 * per_mib(first),
        "read amplification must grow: gen1 {:.2}/MiB vs last {:.2}/MiB",
        per_mib(first),
        per_mib(last)
    );
    assert!(
        node_ms_per_mib(last) >= 1.5 * node_ms_per_mib(first),
        "fragmentation must cost node reads: gen1 {:.3} ms/MiB vs last {:.3} ms/MiB",
        node_ms_per_mib(first),
        node_ms_per_mib(last)
    );
    assert!(
        read_amp(last_walk) >= 1.5 * read_amp(first_walk),
        "fragmentation must cost bytes read: gen1 {:.2}x vs last {:.2}x the bytes restored",
        read_amp(first_walk),
        read_amp(last_walk)
    );
    assert!(
        read_amp(last_walk) < whole_read_amp(last),
        "a fragmented walk that knows its recipe must read less than whole \
         containers: {:.2}x vs {:.2}x",
        read_amp(last_walk),
        whole_read_amp(last)
    );

    // Law 2: expiry + collection reclaims the dead bytes exactly.
    c.force_siu().expect("siu");
    let mut gc = Table::new(&[
        "layout",
        "dead_fps",
        "dead_chunk_bytes",
        "containers_deleted",
        "containers_compacted",
        "net_physical_reclaimed",
    ]);
    let expired = c.expire_runs();
    assert_eq!(
        expired.len() as u64,
        scale.gens - RETENTION as u64,
        "expiry must retire every pre-window generation"
    );
    let before = c.repository().physical_data_bytes();
    let rep = c.run_gc().expect("gc");
    assert_eq!(
        before - c.repository().physical_data_bytes(),
        rep.net_physical_reclaimed(),
        "physical delta must match the GC report"
    );
    assert_eq!(
        rep.net_physical_reclaimed(),
        rep.dead_chunk_bytes,
        "R=1 reclaim exactness"
    );
    gc.row(vec![
        Cell::S("scatter"),
        Cell::U(rep.dead_fps),
        Cell::U(rep.dead_chunk_bytes),
        Cell::U(rep.containers_deleted),
        Cell::U(rep.containers_compacted),
        Cell::U(rep.net_physical_reclaimed()),
    ]);
    for v in (scale.gens - RETENTION as u64)..scale.gens {
        let r = c
            .verify_run(RunId {
                job,
                version: v as u32,
            })
            .expect("retained run verifies");
        assert_eq!(r.failures, 0, "gen {v} damaged by the collection");
    }

    println!(
        "\nShape: out-of-line dedup scatters each generation across its\n\
         ancestors' containers — containers-per-MiB climbs with the\n\
         generation count and, once the working set outgrows the LPC, so do\n\
         the node-disk seconds per restored MiB. The pipelined walk hides\n\
         most of them behind the client stream (serial column: what one\n\
         clock would charge).\n"
    );
    gc.print();

    println!("\nSISL against no locality: the same chunks, restored in stream order\n");
    let layouts = sisl_lpc(denom);
    layouts.print();

    let json = format!(
        "{{\n  \"bench\": \"restore\",\n  \"denom\": {denom},\n  \"chunks\": {},\n  \
         \"churn_period\": {},\n  \"generations\": {},\n  \"retention\": {RETENTION},\n  \
         \"lpc_containers\": {},\n  \"scatter\": {},\n  \"sisl_lpc\": {},\n  \
         \"gc\": {{\n{}\n  }}\n}}\n",
        scale.n,
        scale.k,
        scale.gens,
        scale.lpc_containers,
        table.json_rows(),
        layouts.json_rows(),
        gc.json_keyed(4)
    );
    debar_bench::write_bench_json("restore", smoke, &json);
}
