//! **Restore-layout benchmark**: fragmentation-driven restore decay
//! under `Scatter` vs rewrite-on-backup container capping (`Capped`) —
//! the restore-path consequence of out-of-line dedup the paper leaves
//! unmeasured.
//!
//! Workload: one job backing up `GENS` generations of an `N`-chunk
//! churn stream split into `K` slices; generation `g` rewrites slice
//! `g % K` with fresh content, so the *latest* generation's chunks
//! scatter across up to `K` earlier generations' containers. After each
//! round the newest generation is restored on both layouts and three
//! laws are asserted:
//!
//! 1. **Byte identity** — both layouts stream back identical bytes and
//!    chunk counts at every generation; capping moves chunks, never
//!    content.
//! 2. **Scatter pays for fragmentation in node reads, Capped does not**
//!    — under `Scatter` the latest generation's containers-per-MiB, the
//!    node bytes read per byte restored (`read_amp`, *measured*: what the
//!    repository nodes' disks read over the walk) and the repository-disk
//!    seconds per restored MiB (`RestoreReport::node_read_total_s` over
//!    the bytes) grow with the generation count; under `Capped` all three
//!    stay within a constant factor of generation 1, and so does its
//!    throughput.
//! 3. **GC-visible rewrites** — expiring all but the newest
//!    `RETENTION` generations and collecting reclaims the dead *and*
//!    superseded bytes exactly (`net = replication × dead bytes`), with
//!    the capping queue drained and every retained generation verifying
//!    clean.
//!
//! The dedup-ratio cost of capping (physical bytes vs `Scatter`) is
//! reported, not asserted — it is the price of the bounded restore. So
//! are both throughput columns: the pipelined walk's (`elapsed`) and what
//! the same walk costs with nothing overlapped (`serial_s()`). The
//! pipeline hides Scatter's extra reads behind the client stream on this
//! 2-node repository — over 30 generations the serial column decays
//! 189 → 149 MiB/s, the pipelined one 189 → 180 — while Capped, which
//! restores cold after every rewrite, ends below Scatter at 105: at this
//! scale it pays 2.7x the physical bytes for a bound the pipeline already
//! gives (ROADMAP item 7). `lane_share` (busiest device lane ÷ `elapsed`)
//! is what the pipeline still leaves idle: Scatter's walks keep their NIC
//! busy 0.86–0.92 of the time; Capped's late ones 0.50 — cold, they are
//! bound by the resolver's own chain (lookup, seek, metadata section,
//! next lookup), which is no lane. `refetch` (fetches per distinct
//! container needed) is what the walk's recipe-aware eviction works on.
//! Scatter restores each generation on the cache the one before left; at
//! generation 17 the working set first outgrows it (33 containers,
//! 32 slots), which cost LRU 16 fetches and costs this walk 2 (`refetch`
//! 0.06), and from there the column stays under 0.15 — 0.09 at
//! generation 29 — because the cache is counted in bytes: an extent set
//! weighs what it holds, and the 32 MiB hold the extent sets of nearly
//! the whole working set (0.36 at generation 29 while each took a whole
//! slot). `read_amp` is what ranged reads work on: once a walk has filled
//! its cache it reads a container's metadata section and the extents its
//! recipe wants, so from generation 17 on Scatter's measured column runs
//! below `whole_read_amp` — what the same fetches would have read as the
//! paper's whole fixed-size containers (every miss × `container_bytes`,
//! the number this column showed before PR 22) — 0.05 against 0.13 at
//! generation 17, 0.17 against 0.26 at generation 29: this churn takes
//! every 60th chunk of a 1 MiB container, and a gap shorter than a seek's
//! worth of streaming (~440 KiB on the repository disk) is read through,
//! so a range is the stretch from the first chunk the rest of the recipe
//! wants to the last. Rows whose walk cannot have filled the cache read
//! whole containers and show the two columns equal: every Capped row (it
//! restores cold after each rewrite) and Scatter up to generation 16.
//! Writes `BENCH_restore.json` into the workspace root and prints the
//! table. Run:
//!
//! ```text
//! cargo run --release -p debar-bench --bin fig_restore [n] [--smoke]
//! ```
//!
//! `--smoke` (CI) shrinks the stream and generation count so the bin
//! can't rot without burning minutes. Its numbers go to the temp
//! directory, never over the committed file.

use debar_bench::table::{Cell, Table};
use debar_core::{
    ClientId, Dataset, DebarCluster, DebarConfig, JobId, LayoutMode, RestoreReport, RunId,
};
use debar_simio::models::MIB;
use debar_simio::throughput::mibps;
use debar_workload::drift::churn;

const RETENTION: u32 = 2;
/// Small containers + a tight LPC make fragmentation visible at bench
/// scale: the scattered working set outgrows the cache, the capped one
/// fits it.
const CONTAINER_BYTES: u64 = 1 << 20;

/// One run's scale knobs (full vs smoke).
struct Scale {
    n: u64,
    k: u64,
    gens: u64,
    lpc_containers: usize,
}

fn cluster(layout: LayoutMode, denom: u64, scale: &Scale) -> (DebarCluster, JobId) {
    let mut cfg = DebarConfig::single_server_scaled(denom)
        .with_layout(layout)
        .with_retention(RETENTION);
    cfg.container_bytes = CONTAINER_BYTES;
    cfg.lpc_containers = scale.lpc_containers;
    cfg.siu_interval = 1;
    cfg.validate();
    let mut c = DebarCluster::new(cfg);
    let job = c.define_job("churn", ClientId(0));
    (c, job)
}

/// Repository-disk milliseconds per restored MiB, summed over the nodes.
fn node_ms_per_mib(r: &RestoreReport) -> f64 {
    1e3 * r.node_read_total_s / (r.bytes as f64 / MIB)
}

/// Bytes the repository nodes' disks have read so far.
fn node_bytes_read(c: &DebarCluster) -> u64 {
    (c.repository().nodes().iter())
        .map(|n| n.disk_stats().read_bytes())
        .sum()
}

/// One restore and the bytes the repository nodes read for it.
struct Walk {
    report: RestoreReport,
    node_bytes: u64,
}

fn restore(c: &mut DebarCluster, run: RunId, label: &str) -> Walk {
    let before = node_bytes_read(c);
    let report = c.restore_run(run).expect(label);
    Walk {
        report,
        node_bytes: node_bytes_read(c) - before,
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

/// One generation's restore on one layout, with the bytes its dedup-2
/// rewrote. `serial_mibps` is the same walk with nothing overlapped.
fn row(w: &Walk, rewritten_bytes: u64) -> Vec<Cell> {
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
        Cell::F(r.lpc_hit_ratio(), 4),
        Cell::U(rewritten_bytes),
    ]
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

    let (mut scatter, sj) = cluster(LayoutMode::Scatter, denom, &scale);
    let (mut capped, cj) = cluster(
        LayoutMode::Capped {
            max_refs_per_mib: 1,
        },
        denom,
        &scale,
    );

    const COLUMNS: [&str; 12] = [
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
        "rewritten_bytes",
    ];
    let (mut s_table, mut c_table) = (Table::new(&COLUMNS), Table::new(&COLUMNS));
    let (mut s_reps, mut c_reps) = (Vec::new(), Vec::new());
    let mut total_rewritten = 0u64;
    // Entries each cluster's restore cache holds, at most.
    let (mut s_resident, mut c_resident) = (0u64, 0u64);
    for g in 0..scale.gens {
        let ds = Dataset::from_records("s", churn(g, scale.n, scale.k));
        scatter.backup(sj, &ds).expect("scatter backup");
        let sd2 = scatter.run_dedup2().expect("scatter dedup2");
        assert_eq!(
            sd2.cap.runs_examined, 0,
            "Scatter must never engage the cap pass"
        );
        capped.backup(cj, &ds).expect("capped backup");
        let cd2 = capped.run_dedup2().expect("capped dedup2");

        let run = RunId {
            job: sj,
            version: g as u32,
        };
        let s = restore(&mut scatter, run, "scatter restore");
        let capped_run = RunId {
            job: cj,
            version: g as u32,
        };
        let c = restore(&mut capped, capped_run, "capped restore");
        for (w, resident) in [(&s, &mut s_resident), (&c, &mut c_resident)] {
            assert_eq!(w.report.failures, 0, "gen {g}");
            // A fetch never reads more than the whole container it stands
            // for, and a walk that cannot have filled its cache — had every
            // entry before it and every fetch of its own weighed a whole
            // container, there was room — read exactly that.
            let lpc = &w.report.lpc;
            let whole = lpc.misses * CONTAINER_BYTES;
            assert!(w.node_bytes <= whole, "gen {g}: {} > {whole}", w.node_bytes);
            if *resident + lpc.misses <= scale.lpc_containers as u64 {
                assert_eq!(w.node_bytes, whole, "gen {g}: knows nothing, reads whole");
            }
            // (An upper bound: a merge adds no entry, a rewrite empties
            // Capped's cache.)
            *resident += lpc.misses - lpc.evictions;
        }
        // Law 1: byte identity across layouts, every generation.
        assert_eq!(
            (s.report.bytes, s.report.chunks),
            (c.report.bytes, c.report.chunks),
            "gen {g}: layouts must stream identical restores"
        );
        s_table.row(row(&s, 0));
        c_table.row(row(&c, cd2.cap.bytes_rewritten));
        s_reps.push(s);
        c_reps.push(c);
        total_rewritten += cd2.cap.bytes_rewritten;
    }
    println!("Scatter:\n");
    s_table.print();
    println!("\nCapped:\n");
    c_table.print();

    // Law 2: fragmentation costs Scatter node reads, Capped stays
    // bounded. Generation 1 is the reference (generation 0 is the
    // self-contained initial full, fragmented on neither layout).
    let (s1_walk, s_last_walk) = (&s_reps[1], s_reps.last().expect("points"));
    let (c1_walk, c_last_walk) = (&c_reps[1], c_reps.last().expect("points"));
    let (s1, s_last) = (&s1_walk.report, &s_last_walk.report);
    let (c1, c_last) = (&c1_walk.report, &c_last_walk.report);
    let per_mib = |r: &RestoreReport| r.layout.containers_per_mib();
    assert!(
        per_mib(s_last) > 1.5 * per_mib(s1),
        "Scatter read amplification must grow: gen1 {:.2}/MiB vs last {:.2}/MiB",
        per_mib(s1),
        per_mib(s_last)
    );
    assert!(
        node_ms_per_mib(s_last) >= 1.5 * node_ms_per_mib(s1),
        "Scatter must pay for fragmentation in node reads: \
         gen1 {:.3} ms/MiB vs last {:.3} ms/MiB",
        node_ms_per_mib(s1),
        node_ms_per_mib(s_last)
    );
    assert!(
        read_amp(s_last_walk) >= 1.5 * read_amp(s1_walk),
        "Scatter must pay for fragmentation in bytes read: \
         gen1 {:.2}x vs last {:.2}x the bytes restored",
        read_amp(s1_walk),
        read_amp(s_last_walk)
    );
    assert!(
        read_amp(s_last_walk) < whole_read_amp(s_last),
        "a fragmented walk that knows its recipe must read less than whole \
         containers: {:.2}x vs {:.2}x",
        read_amp(s_last_walk),
        whole_read_amp(s_last)
    );
    assert!(
        per_mib(c_last) <= 1.5 * per_mib(c1).max(1.0),
        "Capped read amplification must stay bounded: gen1 {:.2}/MiB vs last {:.2}/MiB",
        per_mib(c1),
        per_mib(c_last)
    );
    assert!(
        node_ms_per_mib(c_last) <= 1.5 * node_ms_per_mib(c1),
        "Capped node reads must stay bounded: gen1 {:.3} ms/MiB vs last {:.3} ms/MiB",
        node_ms_per_mib(c1),
        node_ms_per_mib(c_last)
    );
    assert!(
        read_amp(c_last_walk) <= 1.5 * read_amp(c1_walk),
        "Capped read amplification must stay bounded: gen1 {:.2}x vs last {:.2}x",
        read_amp(c1_walk),
        read_amp(c_last_walk)
    );
    assert!(
        c_last.throughput_mibps() >= 0.5 * c1.throughput_mibps(),
        "Capped restore must hold within a constant factor: \
         gen1 {:.1} MiB/s vs last {:.1} MiB/s",
        c1.throughput_mibps(),
        c_last.throughput_mibps()
    );
    // The locality crossover: at the last generation the capped restore
    // touches far fewer containers per MiB. (Throughput is not compared
    // across layouts: the capped cluster restores cold — every rewrite
    // invalidates its read caches — while Scatter keeps warm caches
    // between rounds, and the pipelined walk hides Scatter's extra reads
    // behind the client stream.)
    assert!(
        per_mib(c_last) < 0.75 * per_mib(s_last),
        "at the last generation Capped ({:.2}/MiB) must beat Scatter ({:.2}/MiB)",
        per_mib(c_last),
        per_mib(s_last)
    );
    assert!(total_rewritten > 0, "the churn history must trip the cap");

    // The dedup-ratio cost of the bounded restore (reported, the price).
    let s_phys = scatter.repository().physical_data_bytes();
    let c_phys = capped.repository().physical_data_bytes();
    assert!(c_phys > s_phys, "rewrites must cost physical bytes");
    let cost = c_phys as f64 / s_phys as f64;

    // Law 3: expiry + collection reclaims dead and superseded exactly.
    scatter.force_siu().expect("siu");
    capped.force_siu().expect("siu");
    let mut gc = Table::new(&[
        "layout",
        "dead_fps",
        "dead_chunk_bytes",
        "containers_deleted",
        "containers_compacted",
        "superseded_containers",
        "net_physical_reclaimed",
    ]);
    let mut superseded = 0;
    for (label, c) in [("scatter", &mut scatter), ("capped", &mut capped)] {
        let expired = c.expire_runs();
        assert_eq!(
            expired.len() as u64,
            scale.gens - RETENTION as u64,
            "{label}: expiry must retire every pre-window generation"
        );
        let before = c.repository().physical_data_bytes();
        let rep = c.run_gc().expect("gc");
        assert_eq!(
            before - c.repository().physical_data_bytes(),
            rep.net_physical_reclaimed(),
            "{label}: physical delta must match the GC report"
        );
        assert_eq!(
            rep.net_physical_reclaimed(),
            rep.dead_chunk_bytes,
            "{label}: R=1 reclaim exactness"
        );
        gc.row(vec![
            Cell::S(label),
            Cell::U(rep.dead_fps),
            Cell::U(rep.dead_chunk_bytes),
            Cell::U(rep.containers_deleted),
            Cell::U(rep.containers_compacted),
            Cell::U(rep.superseded_containers),
            Cell::U(rep.net_physical_reclaimed()),
        ]);
        // Capped is collected last: its count is the one checked below.
        superseded = rep.superseded_containers;
    }
    assert!(
        superseded > 0,
        "the collection must drain the capping queue"
    );
    for (c, job) in [(&mut scatter, sj), (&mut capped, cj)] {
        for v in (scale.gens - RETENTION as u64)..scale.gens {
            let r = c
                .verify_run(RunId {
                    job,
                    version: v as u32,
                })
                .expect("retained run verifies");
            assert_eq!(r.failures, 0, "gen {v} damaged by the collection");
        }
    }

    println!(
        "\nShape: out-of-line dedup scatters each generation across its\n\
         ancestors' containers — Scatter's containers-per-MiB climbs with\n\
         the generation count and, once the working set outgrows the LPC,\n\
         so do the node-disk seconds per restored MiB. The pipelined walk\n\
         hides most of them behind the client stream (serial column: what\n\
         one clock would charge). Capping rewrites the sparsest references\n\
         at backup time: node reads stay within a constant factor of\n\
         generation 1 at a {cost:.2}x physical-byte cost, and GC reclaims\n\
         the superseded copies exactly ({superseded} containers drained).\n"
    );
    gc.print();

    let json = format!(
        "{{\n  \"bench\": \"restore\",\n  \"denom\": {denom},\n  \"chunks\": {},\n  \
         \"churn_period\": {},\n  \"generations\": {},\n  \"retention\": {RETENTION},\n  \
         \"lpc_containers\": {},\n  \"capped_phys_cost\": {cost:.4},\n  \
         \"scatter\": {},\n  \"capped\": {},\n  \"gc\": {{\n{}\n  }}\n}}\n",
        scale.n,
        scale.k,
        scale.gens,
        scale.lpc_containers,
        s_table.json_rows(),
        c_table.json_rows(),
        gc.json_keyed(4)
    );
    debar_bench::write_bench_json("restore", smoke, &json);
}
