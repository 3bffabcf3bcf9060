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
//! cargo run --release -p debar-bench --bin fig_chaos [n] [--smoke]
//! ```
//!
//! `--smoke` (CI) uses a deep scale denominator so the bin can't rot
//! without burning minutes. Its numbers go to the temp directory, never
//! over the committed file.

use debar_bench::table::{Cell, Table};
use debar_core::{ClientId, Dataset, DebarCluster, DebarConfig, Device, RunId};
use debar_simio::throughput::mibps;
use debar_simio::{FaultPlan, RetryPolicy};
use debar_store::Damage;
use debar_workload::drift::records;

const JOBS: u64 = 2;
const GENERATIONS: u64 = 3;
const SWEEP_PARTS: usize = 2;
const MAX_ATTEMPTS: u32 = 4;
const BACKOFF_COST: f64 = 0.002;
const SEED: u64 = 0xC4A0_5EED;

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

/// Drive one generational history — optionally under the seeded
/// transient schedule — and add what the retry layer absorbed as a row of
/// `t`. Returns the restored bytes.
fn chaos_point(t: &mut Table, replication: usize, chaos: bool, denom: u64) -> u64 {
    let mut cfg = DebarConfig::striped_scaled(SWEEP_PARTS, denom).with_replication(replication);
    if chaos {
        cfg = cfg.with_retry(RetryPolicy::new(MAX_ATTEMPTS, BACKOFF_COST));
    }
    cfg.validate();
    let n = cfg.cache_fps() as u64;
    let shift = n / 4;
    let mut c = DebarCluster::new(cfg);
    let jobs = debar_bench::client_jobs(&mut c, JOBS as usize);
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
    t.row(vec![
        Cell::U(replication as u64),
        Cell::B(chaos),
        Cell::U(retried_ops),
        Cell::F(dedup_wall, 9),
        Cell::F(restore_wall, 9),
        Cell::U(restored_bytes),
        Cell::F(mibps(restored_bytes, restore_wall), 2),
    ]);
    restored_bytes
}

/// Corrupt one copy of every container at `R = 2` and price the scrub
/// that heals them all: a one-row table.
fn scrub_point(denom: u64) -> Table {
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
    let mut t = Table::new(&[
        "pass",
        "containers",
        "copies_checked",
        "corrupt_found",
        "repaired",
        "scrub_wall_s",
        "scrub_mibps",
    ]);
    t.row(vec![
        Cell::S("scrub"),
        Cell::U(cids.len() as u64),
        Cell::U(rep.copies_checked),
        Cell::U(rep.corrupt_found),
        Cell::U(rep.repaired),
        Cell::F(scrubbed.cost, 9),
        Cell::F(mibps(physical_bytes, scrubbed.cost), 2),
    ]);
    t
}

fn main() {
    let (denom, smoke) = debar_bench::args(1024, 16 * 1024);

    println!(
        "Self-healing: {JOBS} jobs x {GENERATIONS} generations, retry budget \
         {MAX_ATTEMPTS} attempts @ {BACKOFF_COST}s backoff, denom {denom}\n"
    );
    let mut t = Table::new(&[
        "replication",
        "chaos",
        "retried_ops",
        "dedup_wall_s",
        "restore_wall_s",
        "restored_bytes",
        "restore_mibps",
    ]);
    for replication in [1usize, 2] {
        // Law: per replication factor, the chaotic run restores the same
        // bytes as the clean one — the retry layer is invisible except in
        // time and telemetry.
        let clean = chaos_point(&mut t, replication, false, denom);
        let chaotic = chaos_point(&mut t, replication, true, denom);
        assert_eq!(
            clean, chaotic,
            "R={replication}: transient chaos changed the restored bytes"
        );
    }
    t.print();

    let scrub = scrub_point(denom);
    println!("\nScrub at R=2 with every container holding one corrupt copy:\n");
    scrub.print();
    println!(
        "\nShape: in-budget transients cost retries and backoff, never\n\
         correctness — restored bytes are identical with the fault-free\n\
         run at every replication factor — and one scrub pass heals every\n\
         corrupt copy that has a clean sibling."
    );

    let json = format!(
        "{{\n  \"bench\": \"chaos\",\n  \"denom\": {denom},\n  \"jobs\": {JOBS},\n  \
         \"generations\": {GENERATIONS},\n  \"max_attempts\": {MAX_ATTEMPTS},\n  \
         \"backoff_cost_s\": {BACKOFF_COST},\n  \"points\": {},\n{}\n}}\n",
        t.json_rows(),
        scrub.json_keyed(2)
    );
    debar_bench::write_bench_json("chaos", smoke, &json);
}
