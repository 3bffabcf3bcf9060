//! Multi-server integration: PSIL/PSIU routing, cross-stream
//! de-duplication, asynchronous SIU and restores on a 4-server cluster —
//! with the cross-stream invariants re-checked under striped sweeps.

mod common;

use common::{assert_equivalent, assert_same_dedup, run_scenario, Scenario};
use debar::workload::drift::records;
use debar::workload::{MultiStreamConfig, MultiStreamGen};
use debar::{ClientId, Dataset, DebarCluster, DebarConfig, Fingerprint, JobId, RunId};
use std::collections::HashSet;

fn cluster(w: u32) -> DebarCluster {
    DebarCluster::new(DebarConfig::tiny_test(w))
}

#[test]
fn every_unique_chunk_stored_exactly_once_across_servers() {
    for parts in [1usize, 4] {
        unique_chunk_invariant(parts);
    }
}

/// The core cross-server invariant, run per sweep-partition count: chunks
/// stored == distinct fingerprints ever seen, despite ~90% duplication,
/// cross-stream sharing and per-round adjudication.
fn unique_chunk_invariant(sweep_parts: usize) {
    let mut c = DebarCluster::new(DebarConfig::tiny_test(2).with_sweep_parts(sweep_parts));
    let clients = 8usize;
    let jobs: Vec<JobId> = (0..clients)
        .map(|i| c.define_job(format!("j{i}"), ClientId(i as u32)))
        .collect();
    let mut gen = MultiStreamGen::new(MultiStreamConfig {
        clients,
        version_chunks: 1500,
        run_len: (64, 256),
        ..MultiStreamConfig::default()
    });
    let mut all_fps: HashSet<Fingerprint> = HashSet::new();
    let mut stored_total = 0u64;
    for _round in 0..4 {
        for (i, v) in gen.next_round().into_iter().enumerate() {
            all_fps.extend(v.iter().map(|r| r.fp));
            c.backup(jobs[i], &Dataset::from_records("v", v))
                .expect("backup");
        }
        stored_total += c.run_dedup2().expect("dedup2").store.stored_chunks;
    }
    c.force_siu().expect("siu");
    // Invariant: chunks stored == distinct fingerprints ever seen, despite
    // ~90% duplication, cross-stream sharing and per-round adjudication.
    assert_eq!(stored_total, all_fps.len() as u64);
    assert_eq!(c.index_entries(), all_fps.len() as u64);
    // And every fingerprint resolves at its owning part.
    for fp in &all_fps {
        assert!(c.resolve(fp).is_some());
    }
}

#[test]
fn fingerprints_live_on_their_routing_server() {
    let mut c = cluster(2);
    let job = c.define_job("j", ClientId(0));
    c.backup(job, &Dataset::from_records("s", records(0..2000)))
        .expect("backup");
    c.run_dedup2().expect("dedup2");
    c.force_siu().expect("siu");
    for r in records(0..2000) {
        let owner = r.fp.server_number(2) as u16;
        assert!(
            c.server(owner).index().lookup_uncharged(&r.fp).is_some(),
            "fingerprint not on its routed part"
        );
    }
    // Entry counts roughly balanced across the four parts (SHA-1 uniform).
    let counts: Vec<u64> = (0..4u16)
        .map(|s| c.server(s).index().entry_count())
        .collect();
    let total: u64 = counts.iter().sum();
    assert_eq!(total, 2000);
    for (i, &n) in counts.iter().enumerate() {
        assert!(
            (n as f64) > 0.15 * total as f64,
            "server {i} underloaded: {counts:?}"
        );
    }
}

#[test]
fn async_siu_never_double_stores_across_servers() {
    let mut cfg = DebarConfig::tiny_test(2);
    cfg.siu_interval = 3;
    let mut c = DebarCluster::new(cfg);
    let a = c.define_job("a", ClientId(0));
    let b = c.define_job("b", ClientId(1));
    let d = c.define_job("d", ClientId(2));
    let recs = records(0..1800);
    // Same content through three different jobs, dedup-2 after each with
    // SIU deferred until the third round.
    for (i, job) in [a, b, d].into_iter().enumerate() {
        c.backup(job, &Dataset::from_records("s", recs.clone()))
            .expect("backup");
        let rep = c.run_dedup2().expect("dedup2");
        if i == 0 {
            assert_eq!(rep.store.stored_chunks, 1800);
        } else {
            assert_eq!(
                rep.store.stored_chunks, 0,
                "round {i} re-stored despite checking file"
            );
        }
    }
    c.force_siu().expect("siu");
    assert_eq!(c.index_entries(), 1800);
    for job in [a, b, d] {
        let rep = c.restore_run(RunId { job, version: 0 }).expect("restore");
        assert_eq!(rep.failures, 0);
    }
}

#[test]
fn cluster_wall_times_scale_with_servers() {
    // The same workload on 1 vs 4 servers: PSIL wall time should shrink
    // (each part is a quarter the size, swept in parallel).
    let run = |w: u32| {
        let mut cfg = DebarConfig::tiny_test(w);
        // Keep the *total* index size constant across configurations.
        cfg.index_part_bytes = (256 * 512) >> w;
        let mut c = DebarCluster::new(cfg);
        let job = c.define_job("j", ClientId(0));
        c.backup(job, &Dataset::from_records("s", records(0..4000)))
            .expect("backup");
        c.run_dedup2().expect("dedup2").sil_wall
    };
    let one = run(0);
    let four = run(2);
    assert!(
        four < one * 0.6,
        "4-server SIL wall {four} not meaningfully below single-server {one}"
    );
}

#[test]
fn six_client_fanout_agrees_across_striping_and_server_counts() {
    // Heavier client fan-out on 4 servers: striping must stay
    // byte-identical, and moving the same workload to 1 server must keep
    // every dedup decision (layout differs, so only the dedup half is
    // compared there).
    let base = run_scenario(&Scenario::tiny("ms6", 2, 1).with_clients(6));
    let striped = run_scenario(&Scenario::tiny("ms6", 2, 4).with_clients(6));
    assert_equivalent(&base, &striped, "6-client w=2 parts=4");
    let single = run_scenario(&Scenario::tiny("ms6", 0, 4).with_clients(6));
    assert_same_dedup(&base, &single, "6-client w=2 vs w=0");
}

#[test]
fn restore_from_any_server_resolves_remote_parts() {
    let mut c = cluster(2);
    let job = c.define_job("j", ClientId(0));
    let recs = records(0..3000);
    c.backup(job, &Dataset::from_records("s", recs.clone()))
        .expect("backup");
    c.run_dedup2().expect("dedup2");
    c.force_siu().expect("siu");
    let rep = c.restore_run(RunId { job, version: 0 }).expect("restore");
    assert_eq!(rep.failures, 0);
    assert_eq!(rep.chunks, 3000);
    let expect: u64 = recs.iter().map(|r| r.len as u64).sum();
    assert_eq!(rep.bytes, expect);
}
