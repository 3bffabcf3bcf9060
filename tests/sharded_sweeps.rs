//! End-to-end equivalence of the sharded SIL/SIU configuration: a cluster
//! whose servers sweep their index parts in `P` partitions must produce
//! exactly the same dedup decisions, stored chunks and restored bytes as
//! the scalar (`sweep_parts = 1`) configuration — only the virtual sweep
//! time changes (max-of-partitions, ≈ 1/P). Plus the `sweep_parts`
//! configuration edge cases: bucket-count validation, the runtime clamp,
//! and clamping across performance scaling.

mod common;

use common::SWEEP_PARTS;
use debar::workload::drift::records;
use debar::{ClientId, Dataset, DebarCluster, DebarConfig, DebarError, RunId};

fn run_cluster(parts: usize) -> (u64, u64, u64, f64, u64) {
    let mut c = DebarCluster::new(DebarConfig::tiny_test(2).with_sweep_parts(parts));
    let a = c.define_job("a", ClientId(0));
    let b = c.define_job("b", ClientId(1));
    // Overlapping streams: cross-stream duplicates + fresh content.
    c.backup(a, &Dataset::from_records("s1", records(0..3000)))
        .expect("backup");
    c.backup(b, &Dataset::from_records("s2", records(1500..4500)))
        .expect("backup");
    let d2 = c.run_dedup2().expect("dedup2");
    // Second round re-backs-up one stream plus new content.
    c.backup(a, &Dataset::from_records("s3", records(4000..6000)))
        .expect("backup");
    let d2b = c.run_dedup2().expect("dedup2");
    c.force_siu().expect("siu");

    let restored = c
        .restore_run(RunId { job: a, version: 0 })
        .expect("restore");
    assert_eq!(restored.failures, 0);
    (
        d2.store.stored_chunks + d2b.store.stored_chunks,
        d2.new_fps + d2b.new_fps,
        c.index_entries(),
        d2.sil_wall,
        restored.bytes,
    )
}

#[test]
fn sharded_cluster_matches_scalar_dedup_results() {
    let scalar = run_cluster(1);
    for parts in SWEEP_PARTS.into_iter().filter(|&p| p != 1) {
        let sharded = run_cluster(parts);
        assert_eq!(scalar.0, sharded.0, "stored chunks differ at parts={parts}");
        assert_eq!(
            scalar.1, sharded.1,
            "new fingerprints differ at parts={parts}"
        );
        assert_eq!(scalar.2, sharded.2, "index entries differ at parts={parts}");
        assert_eq!(
            scalar.4, sharded.4,
            "restored bytes differ at parts={parts}"
        );
        // The sharded sweep is strictly faster in virtual time.
        assert!(
            sharded.3 < scalar.3,
            "parts={parts}: sharded SIL wall {} !< scalar {}",
            sharded.3,
            scalar.3
        );
    }
}

#[test]
fn sweep_parts_validates() {
    assert!(DebarConfig::tiny_test(0)
        .with_sweep_parts(4)
        .validate()
        .is_ok());
}

/// Whether `cfg` is refused as an [`DebarError::IndexGeometry`] whose
/// reason says `why`.
fn refused_for(cfg: DebarConfig, why: &str) -> bool {
    matches!(cfg.validate(), Err(DebarError::IndexGeometry { reason }) if reason.contains(why))
}

#[test]
fn zero_sweep_parts_rejected() {
    let cfg = DebarConfig::tiny_test(0).with_sweep_parts(0);
    assert!(refused_for(cfg, "at least one partition"));
}

#[test]
fn sweep_parts_beyond_bucket_count_rejected() {
    // One tiny_test index part has 256 buckets.
    let cfg = DebarConfig::tiny_test(0).with_sweep_parts(512);
    assert!(refused_for(cfg, "exceeds"));
}

#[test]
fn striped_preset_runs_end_to_end() {
    // The §5.2 preset at a deep scale denominator: a full backup →
    // dedup-2 → restore cycle with the multi-part index engaged.
    let mut c = DebarCluster::new(DebarConfig::single_server_scaled(64 * 1024).with_sweep_parts(4));
    let job = c.define_job("striped", ClientId(0));
    c.backup(job, &Dataset::from_records("s", records(0..2000)))
        .expect("backup");
    let d2 = c.run_dedup2().expect("dedup2");
    assert_eq!(d2.sweep_parts, 4, "preset must engage 4 partitions");
    assert_eq!(d2.store.stored_chunks, 2000);
    c.force_siu().expect("siu");
    assert_eq!(
        c.restore_run(RunId { job, version: 0 })
            .expect("restore")
            .failures,
        0
    );
}

#[test]
fn dedup2_report_surfaces_engaged_partitions() {
    let mut c = DebarCluster::new(DebarConfig::tiny_test(1).with_sweep_parts(3));
    let job = c.define_job("j", ClientId(0));
    c.backup(job, &Dataset::from_records("s", records(0..1000)))
        .expect("backup");
    let d2 = c.run_dedup2().expect("dedup2");
    assert_eq!(d2.sweep_parts, 3);
    // Every server's mode matches the deployment's.
    for s in 0..c.server_count() as u16 {
        assert_eq!(c.server(s).sweep_parts(), 3);
    }
    assert_eq!(c.config().sweep_parts, 3);
    // An empty round reports the configured mode.
    let d2_empty = c.run_dedup2().expect("dedup2");
    assert_eq!(d2_empty.submitted_fps, 0);
    assert_eq!(d2_empty.sweep_parts, 3);
}

#[test]
fn scale_out_clamps_striped_parts_and_keeps_working() {
    // A maximally striped deployment (parts == bucket count) scales out:
    // each part halves to 128 buckets, so the documented rule clamps
    // sweep_parts to 128 — and backups, dedup and restores keep working.
    let mut c = DebarCluster::new(DebarConfig::tiny_test(0).with_sweep_parts(256));
    let job = c.define_job("j", ClientId(0));
    let recs = records(0..2000);
    c.backup(job, &Dataset::from_records("s", recs.clone()))
        .expect("backup");
    c.run_dedup2().expect("dedup2");
    c.force_siu().expect("siu");
    c.scale_out().expect("scale-out");
    assert_eq!(c.server_count(), 2);
    assert_eq!(
        c.config().sweep_parts,
        128,
        "scale-out must clamp sweep_parts to the halved bucket count"
    );
    for s in 0..c.server_count() as u16 {
        assert_eq!(
            c.server(s).sweep_parts(),
            128,
            "server {s} keeps no stale copy"
        );
    }
    c.backup(job, &Dataset::from_records("s", records(2000..3000)))
        .expect("backup");
    let d2 = c.run_dedup2().expect("dedup2");
    assert_eq!(d2.sweep_parts, 128);
    c.force_siu().expect("siu");
    for version in 0..2u32 {
        assert_eq!(
            c.restore_run(RunId { job, version })
                .expect("restore")
                .failures,
            0
        );
    }
}
