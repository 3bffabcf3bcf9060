//! Randomized cross-crate invariants: arbitrary workloads through the full
//! system must never double-store, never lose a chunk, and always restore
//! byte counts exactly — for every sweep-partition count in the striped
//! matrix.

mod common;

use debar::hash::{FpSet, SplitMix64};
use debar::workload::ChunkRecord;
use debar::{ClientId, Dataset, DebarCluster, DebarConfig, JobId, RunId};

/// A random-but-seeded workload: several jobs, several rounds, arbitrary
/// overlap within and across jobs, dedup-2 at arbitrary points.
fn random_workload(seed: u64, w_bits: u32, sweep_parts: usize) {
    let mut rng = SplitMix64::new(seed);
    let mut cfg = DebarConfig::tiny_test(w_bits).with_sweep_parts(sweep_parts);
    cfg.siu_interval = 1 + (seed % 3) as u32;
    let mut c = DebarCluster::new(cfg);
    let jobs: Vec<JobId> = (0..3)
        .map(|i| c.define_job(format!("j{i}"), ClientId(i as u32)))
        .collect();

    let mut seen = FpSet::default();
    let mut stored_total = 0u64;
    let mut runs: Vec<(JobId, u32, u64)> = Vec::new();
    for round in 0..4 {
        for (ji, &job) in jobs.iter().enumerate() {
            // Each stream: a random mix of fresh counters and replays of
            // earlier regions (both own and other jobs').
            let mut recs = Vec::new();
            for _ in 0..rng.range(2, 6) {
                let fresh = rng.bool();
                let base = if fresh {
                    // Unique region per (job, round, segment).
                    (ji as u64) << 40 | (round as u64) << 20 | rng.below(1 << 16)
                } else {
                    rng.below(3) << 40 | rng.below(2) << 20 | rng.below(1 << 10)
                };
                let len = rng.range(50, 400);
                recs.extend((base..base + len).map(ChunkRecord::of_counter));
            }
            seen.extend(recs.iter().map(|r| r.fp));
            let version = c
                .director
                .metadata
                .job(job)
                .expect("defined")
                .next_version();
            let bytes: u64 = recs.iter().map(|r| r.len as u64).sum();
            runs.push((job, version, bytes));
            c.backup(job, &Dataset::from_records("s", recs))
                .expect("backup");
        }
        if rng.chance(0.7) || round == 3 {
            stored_total += c.run_dedup2().expect("dedup2").store.stored_chunks;
        }
    }
    stored_total += c.run_dedup2().expect("dedup2").store.stored_chunks;
    c.force_siu().expect("siu");

    // Invariant 1: stored chunks == distinct fingerprints.
    assert_eq!(
        stored_total,
        seen.len() as u64,
        "seed {seed}: duplicate or lost storage"
    );
    assert_eq!(
        c.index_entries(),
        seen.len() as u64,
        "seed {seed}: index drift"
    );

    // Invariant 2: every fingerprint resolves.
    for fp in &seen {
        assert!(c.resolve(fp).is_some(), "seed {seed}: unresolved {fp:?}");
    }

    // Invariant 3: every run restores its exact logical byte count.
    for (job, version, bytes) in runs {
        let rep = c.restore_run(RunId { job, version }).expect("restore");
        assert_eq!(rep.failures, 0, "seed {seed}: restore failures");
        assert_eq!(rep.bytes, bytes, "seed {seed}: byte mismatch");
    }
}

#[test]
fn random_workloads_single_server() {
    for seed in [1u64, 2, 3] {
        random_workload(seed, 0, 1);
    }
}

#[test]
fn random_workloads_two_servers() {
    for seed in [11u64, 12, 13] {
        random_workload(seed, 1, 1);
    }
}

#[test]
fn random_workloads_four_servers() {
    for seed in [21u64, 22, 23] {
        random_workload(seed, 2, 1);
    }
}

#[test]
fn random_workloads_striped_matrix() {
    // The same randomized invariants with the multi-part index engaged,
    // for every partition count in the matrix.
    for parts in common::SWEEP_PARTS.into_iter().filter(|&p| p != 1) {
        random_workload(31, 0, parts);
        random_workload(32, 2, parts);
    }
}
