//! **Self-healing benchmark**: what fault tolerance costs when nothing
//! is actually lost. The paper's cluster is built from commodity nodes
//! whose disks hiccup (transient timeouts) and rot (silent corruption);
//! this bench prices the two healing mechanisms this repo adds on top of
//! replication:
//!
//! * **Retry/backoff** — a seeded schedule of transient faults is armed
//!   across every repository node ahead of each dedup-2 round and ahead
//!   of the restores, each fault failing fewer consecutive times than
//!   the retry budget. The run must complete with *zero* surfaced
//!   errors, restore byte-identically with a fault-free run, and the
//!   retried-operation count plus the wall-time delta show what the
//!   absorbed faults cost.
//! * **Scrub + repair** — with every container holding one deliberately
//!   corrupted copy at `R = 2`, one cluster-wide scrub must detect and
//!   repair 100% of them from the clean siblings; its wall prices the
//!   full-repository integrity pass.
//!
//! Laws asserted internally: chaotic restores are byte-identical to
//! clean ones per replication factor; clean runs never retry, chaotic
//! runs always do; the scrub finds exactly the injected corruption,
//! repairs all of it, and an immediate re-scrub finds nothing. Writes
//! `BENCH_chaos.json` into the workspace root and prints the tables.
//! Run:
//!
//! ```text
//! cargo run --release -p debar-bench --bin fig_chaos [denom] [--smoke]
//! ```
//!
//! `--smoke` (CI) uses a deep scale denominator so the bin can't rot
//! without burning minutes. Its numbers go to the temp directory, never
//! over the committed file.

use debar_bench::table::{f, TablePrinter};
use debar_core::{ClientId, Dataset, DebarCluster, DebarConfig, Device, RunId};
use debar_simio::throughput::mibps;
use debar_simio::{FaultPlan, RetryPolicy};
use debar_store::Damage;
use debar_workload::ChunkRecord;

const JOBS: u64 = 2;
const GENERATIONS: u64 = 3;
const SWEEP_PARTS: usize = 2;
const MAX_ATTEMPTS: u32 = 4;
const BACKOFF_COST: f64 = 0.002;
const SEED: u64 = 0xC4A0_5EED;

fn records(range: std::ops::Range<u64>) -> Vec<ChunkRecord> {
    range.map(ChunkRecord::of_counter).collect()
}

/// One step of a splitmix-style generator: deterministic, seed-stable.
fn chaos_step(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// Arm one seeded transient on every repository node: each fails for
/// `1..MAX_ATTEMPTS` consecutive attempts starting within the node's
/// next three ops — always inside the retry budget, so the fault is the
/// retry layer's to absorb.
fn arm_transients(c: &mut DebarCluster, round: u64) {
    for node in 0..c.repository().node_count() {
        let mut rng = SEED
            ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (node as u64).wrapping_mul(0xD1B5_4A32_D192_ED03);
        let fails_for = 1 + (chaos_step(&mut rng) % (MAX_ATTEMPTS as u64 - 1)) as u32;
        let device = Device::RepoNode(node);
        let at = c.device_ops(device).expect("node in range") + chaos_step(&mut rng) % 3;
        c.arm(device, FaultPlan::transient_at(at, fails_for))
            .expect("node in range");
    }
}

struct ChaosPoint {
    replication: usize,
    chaos: bool,
    retried_ops: u64,
    dedup_wall_s: f64,
    restore_wall_s: f64,
    restored_bytes: u64,
    restore_mibps: f64,
}

/// Drive one generational history — optionally under the seeded
/// transient schedule — and measure what the retry layer absorbed.
fn chaos_point(replication: usize, chaos: bool, denom: u64) -> ChaosPoint {
    let mut cfg = DebarConfig::striped_scaled(SWEEP_PARTS, denom).with_replication(replication);
    if chaos {
        cfg = cfg.with_retry(RetryPolicy::new(MAX_ATTEMPTS, BACKOFF_COST));
    }
    cfg.validate();
    let n = cfg.cache_fps() as u64;
    let shift = n / 4;
    let mut c = DebarCluster::new(cfg);
    let jobs: Vec<_> = (0..JOBS)
        .map(|j| c.define_job(format!("chaos{j}"), ClientId(j as u32)))
        .collect();
    let mut dedup_wall = 0.0;
    for g in 0..GENERATIONS {
        for (j, &job) in jobs.iter().enumerate() {
            let base = j as u64 * 10 * n + g * shift;
            c.backup(job, &Dataset::from_records("s", records(base..base + n)))
                .expect("backup");
        }
        if chaos {
            arm_transients(&mut c, g);
        }
        let d2 = c
            .run_dedup2()
            .expect("in-budget transients must never surface");
        dedup_wall += d2.total_wall();
    }
    c.force_siu().expect("siu");
    if chaos {
        arm_transients(&mut c, 0xFEED_FACE);
    }
    let mut restore_wall = 0.0;
    let mut restored_bytes = 0u64;
    for &job in &jobs {
        for v in 0..GENERATIONS {
            let r = c
                .restore_run(RunId {
                    job,
                    version: v as u32,
                })
                .expect("restore under in-budget transients");
            assert_eq!(r.failures, 0, "restore must verify clean");
            restored_bytes += r.bytes;
            restore_wall += r.elapsed;
        }
    }
    let retried_ops = c.repository().stats().retried_ops;
    if chaos {
        assert!(
            retried_ops > 0,
            "the schedule never engaged the retry layer"
        );
    } else {
        assert_eq!(retried_ops, 0, "a fault-free run must never retry");
    }
    ChaosPoint {
        replication,
        chaos,
        retried_ops,
        dedup_wall_s: dedup_wall,
        restore_wall_s: restore_wall,
        restored_bytes,
        restore_mibps: mibps(restored_bytes, restore_wall),
    }
}

struct ScrubPoint {
    containers: u64,
    copies_checked: u64,
    corrupt_found: u64,
    repaired: u64,
    scrub_wall_s: f64,
    scrub_mibps: f64,
}

/// Corrupt one copy of every container at `R = 2` and price the scrub
/// that heals them all.
fn scrub_point(denom: u64) -> ScrubPoint {
    let cfg = DebarConfig::striped_scaled(SWEEP_PARTS, denom).with_replication(2);
    cfg.validate();
    let n = cfg.cache_fps() as u64;
    let mut c = DebarCluster::new(cfg);
    let job = c.define_job("scrub", ClientId(0));
    c.backup(job, &Dataset::from_records("s", records(0..n)))
        .expect("backup");
    c.run_dedup2().expect("dedup2");
    c.force_siu().expect("siu");

    let cids = c.repository().container_ids();
    let physical_bytes = c.repository().physical_data_bytes();
    for &cid in &cids {
        c.set_damage(cid, Some(Damage::BitFlip)).expect("exists");
    }
    let scrubbed = c.scrub().expect("quiesced cluster scrubs");
    let rep = scrubbed.value;
    assert_eq!(
        rep.corrupt_found,
        cids.len() as u64,
        "the scrub must detect every injected corrupt copy"
    );
    assert_eq!(rep.repaired, rep.corrupt_found, "R=2 heals everything");
    assert_eq!(rep.unrecoverable, 0);
    assert!(scrubbed.cost > 0.0, "a scrub charges real maintenance I/O");
    let again = c.scrub().expect("scrub").value;
    assert_eq!(
        again.corrupt_found, 0,
        "an immediate re-scrub finds nothing"
    );
    let r = c
        .restore_run(RunId { job, version: 0 })
        .expect("restore after heal");
    assert_eq!(r.failures, 0);
    assert_eq!(r.corrupt_reads, 0, "no corrupt copy left for reads to trip");
    ScrubPoint {
        containers: cids.len() as u64,
        copies_checked: rep.copies_checked,
        corrupt_found: rep.corrupt_found,
        repaired: rep.repaired,
        scrub_wall_s: scrubbed.cost,
        scrub_mibps: mibps(physical_bytes, scrubbed.cost),
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
        "Self-healing: {JOBS} jobs x {GENERATIONS} generations, retry budget \
         {MAX_ATTEMPTS} attempts @ {BACKOFF_COST}s backoff, denom {denom}\n"
    );
    let mut points: Vec<ChaosPoint> = Vec::new();
    for replication in [1usize, 2] {
        for chaos in [false, true] {
            points.push(chaos_point(replication, chaos, denom));
        }
    }
    let mut t = TablePrinter::new(&[
        "replication",
        "faults",
        "retried ops",
        "dedup wall (s)",
        "restore wall (s)",
        "restored MiB",
        "restore MiB/s",
    ]);
    for p in &points {
        t.row(vec![
            p.replication.to_string(),
            if p.chaos {
                "transient".into()
            } else {
                "none".to_string()
            },
            p.retried_ops.to_string(),
            format!("{:.6}", p.dedup_wall_s),
            format!("{:.6}", p.restore_wall_s),
            f(p.restored_bytes as f64 / (1 << 20) as f64, 1),
            f(p.restore_mibps, 1),
        ]);
    }
    t.print();

    // Law: per replication factor, the chaotic run restores the same
    // bytes as the clean one — the retry layer is invisible except in
    // time and telemetry.
    for r in [1usize, 2] {
        let clean = points
            .iter()
            .find(|p| p.replication == r && !p.chaos)
            .expect("clean point");
        let chaotic = points
            .iter()
            .find(|p| p.replication == r && p.chaos)
            .expect("chaos point");
        assert_eq!(
            clean.restored_bytes, chaotic.restored_bytes,
            "R={r}: transient chaos changed the restored bytes"
        );
    }

    let s = scrub_point(denom);
    println!(
        "\nScrub at R=2 with every container holding one corrupt copy:\n  \
         {} containers, {} copies checked, {} corrupt found, {} repaired\n  \
         scrub wall {:.6}s ({} MiB/s over the physical bytes)",
        s.containers,
        s.copies_checked,
        s.corrupt_found,
        s.repaired,
        s.scrub_wall_s,
        f(s.scrub_mibps, 1),
    );
    println!(
        "\nShape: in-budget transients cost retries and backoff, never\n\
         correctness — restored bytes are identical with the fault-free\n\
         run at every replication factor — and one scrub pass heals every\n\
         corrupt copy that has a clean sibling."
    );

    // ---- BENCH_chaos.json (manual JSON: no runtime serde_json in the
    //      container). ----
    let mut out = String::from("{\n  \"bench\": \"chaos\",\n");
    out.push_str(&format!(
        "  \"denom\": {denom},\n  \"jobs\": {JOBS},\n  \"generations\": {GENERATIONS},\n  \
         \"max_attempts\": {MAX_ATTEMPTS},\n  \"backoff_cost_s\": {BACKOFF_COST},\n"
    ));
    out.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"replication\": {}, \"chaos\": {}, \"retried_ops\": {}, \
             \"dedup_wall_s\": {:.9}, \"restore_wall_s\": {:.9}, \"restored_bytes\": {}, \
             \"restore_mibps\": {:.2} }}{}\n",
            p.replication,
            p.chaos,
            p.retried_ops,
            p.dedup_wall_s,
            p.restore_wall_s,
            p.restored_bytes,
            p.restore_mibps,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"scrub\": {{ \"containers\": {}, \"copies_checked\": {}, \"corrupt_found\": {}, \
         \"repaired\": {}, \"scrub_wall_s\": {:.9}, \"scrub_mibps\": {:.2} }}\n",
        s.containers, s.copies_checked, s.corrupt_found, s.repaired, s.scrub_wall_s, s.scrub_mibps,
    ));
    out.push_str("}\n");
    debar_bench::write_bench_json("chaos", smoke, &out);
}
