//! Integration tests for the §4.1 scaling properties at cluster level:
//! capacity scaling (double each part) and performance scaling (double the
//! servers), applied repeatedly while data keeps flowing — including under
//! the striped multi-part index, whose partition count must survive both
//! scaling directions via the documented clamp rule.

mod common;

use debar::workload::drift::records;
use debar::{ClientId, Dataset, DebarCluster, DebarConfig, DebarError, RunId};

#[test]
fn full_scaling_ladder_preserves_everything() {
    // (1,x) -> capacity x2 -> (2, x) -> capacity x2 -> (4, x), with new
    // backups between every transition; everything stays restorable.
    let mut c = DebarCluster::new(DebarConfig::tiny_test(0));
    let job = c.define_job("ladder", ClientId(0));
    let mut next = 0u64;
    let mut backed_up: Vec<std::ops::Range<u64>> = Vec::new();
    let step = |c: &mut DebarCluster, next: &mut u64| {
        let range = *next..*next + 1200;
        *next += 1200;
        c.backup(job, &Dataset::from_records("s", records(range.clone())))
            .expect("backup");
        c.run_dedup2().expect("dedup2");
        c.force_siu().expect("siu");
        range
    };

    backed_up.push(step(&mut c, &mut next));
    let entries = c.index_entries();
    c.scale_up_indexes();
    assert_eq!(c.index_entries(), entries, "capacity scaling lost entries");

    backed_up.push(step(&mut c, &mut next));
    c.scale_out().expect("scale-out");
    assert_eq!(c.server_count(), 2);

    backed_up.push(step(&mut c, &mut next));
    c.scale_up_indexes();
    c.scale_out().expect("scale-out");
    assert_eq!(c.server_count(), 4);

    backed_up.push(step(&mut c, &mut next));

    // All fingerprints from every era resolve; all runs restore clean.
    for range in &backed_up {
        for r in records(range.clone()) {
            assert!(c.resolve(&r.fp).is_some(), "lost {:?}", r.fp);
        }
    }
    for version in 0..backed_up.len() as u32 {
        let rep = c.restore_run(RunId { job, version }).expect("restore");
        assert_eq!(rep.failures, 0, "version {version} broken after scaling");
    }
    assert_eq!(c.index_entries(), next);
}

#[test]
fn dedup_still_works_after_scaling() {
    // Content stored before any scaling must be recognized as duplicate
    // after two scale-outs.
    let mut c = DebarCluster::new(DebarConfig::tiny_test(0));
    let job = c.define_job("j", ClientId(0));
    let recs = records(0..2500);
    c.backup(job, &Dataset::from_records("s", recs.clone()))
        .expect("backup");
    c.run_dedup2().expect("dedup2");
    c.force_siu().expect("siu");
    c.scale_out().expect("scale-out");
    c.scale_out().expect("scale-out");
    assert_eq!(c.server_count(), 4);

    c.backup(job, &Dataset::from_records("s", recs))
        .expect("backup");
    let d2 = c.run_dedup2().expect("dedup2");
    assert_eq!(d2.store.stored_chunks, 0, "pre-scaling content re-stored");
    assert_eq!(c.index_entries(), 2500);
}

#[test]
fn scale_out_requires_quiescence() {
    let mut c = DebarCluster::new(DebarConfig::tiny_test(0));
    let job = c.define_job("j", ClientId(0));
    c.backup(job, &Dataset::from_records("s", records(0..500)))
        .expect("backup");
    // Undetermined fingerprints staged: scaling must refuse with the
    // typed error, not a panic.
    assert!(
        matches!(c.scale_out(), Err(DebarError::NotQuiesced { server: 0 })),
        "scale-out must refuse non-quiesced servers"
    );
}

#[test]
fn striped_scaling_ladder_clamps_and_preserves_everything() {
    // The full ladder under every matrix partition count: capacity
    // scaling doubles buckets (more striping headroom), scale-out halves
    // each part (sweep_parts clamps); every era stays restorable.
    for parts in common::sweep_parts_matrix() {
        let mut c = DebarCluster::new(DebarConfig::tiny_test(0).with_sweep_parts(parts));
        let job = c.define_job("ladder", ClientId(0));
        c.backup(job, &Dataset::from_records("s", records(0..1500)))
            .expect("backup");
        c.run_dedup2().expect("dedup2");
        c.force_siu().expect("siu");
        c.scale_up_indexes(); // 256 -> 512 buckets per part
        c.backup(job, &Dataset::from_records("s", records(1500..3000)))
            .expect("backup");
        c.run_dedup2().expect("dedup2");
        c.force_siu().expect("siu");
        c.scale_out().expect("scale-out"); // parts halve: 256 buckets each again
        c.scale_out().expect("scale-out"); // 128 buckets each
        assert_eq!(c.server_count(), 4);
        assert!(
            c.config().sweep_parts <= 128,
            "parts={parts}: sweep_parts {} not clamped to part geometry",
            c.config().sweep_parts
        );
        assert!(c.config().sweep_parts >= parts.min(128));
        let d2 = {
            c.backup(job, &Dataset::from_records("s", records(3000..4000)))
                .expect("backup");
            c.run_dedup2().expect("dedup2")
        };
        assert_eq!(d2.store.stored_chunks, 1000, "parts={parts}");
        c.force_siu().expect("siu");
        assert_eq!(c.index_entries(), 4000, "parts={parts}");
        for version in 0..3u32 {
            let rep = c.restore_run(RunId { job, version }).expect("restore");
            assert_eq!(rep.failures, 0, "parts={parts} version={version}");
        }
    }
}

#[test]
fn siu_capacity_scaling_under_pressure() {
    // A deliberately tiny index: repeated SIU batches force repeated
    // capacity scalings; nothing is lost and utilization stays sane.
    let mut cfg = DebarConfig::tiny_test(0);
    cfg.index_part_bytes = 16 * 512; // 16 buckets of 20 entries
    let mut c = DebarCluster::new(cfg);
    let job = c.define_job("j", ClientId(0));
    for round in 0..4u64 {
        let range = round * 2000..(round + 1) * 2000;
        c.backup(job, &Dataset::from_records("s", records(range)))
            .expect("backup");
        c.run_dedup2().expect("dedup2");
    }
    c.force_siu().expect("siu");
    assert_eq!(c.index_entries(), 8000);
    let util = c.index_utilization();
    assert!(
        util > 0.05 && util < 0.95,
        "utilization {util} out of range"
    );
    for r in records(0..8000) {
        assert!(c.resolve(&r.fp).is_some());
    }
}
