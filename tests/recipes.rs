//! Recipes share their predecessor's fingerprint blocks (`metadata.rs`,
//! "Memory"): retiring the run that first wrote a block re-packs what the
//! retained runs still cover, and neither a restore nor a clone of the
//! cluster can tell.

use debar::workload::drift::records;
use debar::workload::ChunkRecord;
use debar::{ClientId, Dataset, DebarCluster, DebarConfig, Fingerprint, RunId};

/// The base run: 3,000 records. Its successor keeps the first tenth of
/// them and adds 300 new ones, so retiring the base leaves its block
/// covered a tenth.
fn versions() -> [Vec<ChunkRecord>; 2] {
    let next = records(0..300).into_iter().chain(records(10_000..10_300));
    [records(0..3000), next.collect()]
}

/// Both versions backed up, stored and registered.
fn cluster() -> (DebarCluster, [RunId; 2], [Vec<Fingerprint>; 2]) {
    let mut c = DebarCluster::new(DebarConfig::tiny_test(0).with_retention(0));
    let job = c.define_job("j", ClientId(0));
    let streams = versions().map(|v| v.iter().map(|r| r.fp).collect());
    let runs = versions().map(|v| {
        let run = c
            .backup(job, &Dataset::from_records("s", v))
            .expect("backup");
        run.run
    });
    c.run_dedup2().expect("dedup2");
    c.force_siu().expect("siu");
    (c, runs, streams)
}

fn recipe(c: &DebarCluster, run: RunId) -> Vec<Fingerprint> {
    let rec = c.director.metadata.run(run).expect("retained");
    (rec.files.iter())
        .flat_map(|f| f.recipe.iter().copied())
        .collect()
}

/// Where the first fingerprint of a run's recipe lives in memory.
fn first_entry(c: &DebarCluster, run: RunId) -> *const Fingerprint {
    let rec = c.director.metadata.run(run).expect("retained");
    rec.files[0].recipe.iter().next().expect("a chunk")
}

/// What restoring version `v` must report: one file, its chunks and bytes,
/// no failure.
fn whole(v: usize) -> (u64, u64, u64, u64) {
    let version = versions()[v].clone();
    let chunks = version.len() as u64;
    (
        1,
        chunks,
        Dataset::from_records("s", version).logical_bytes(),
        0,
    )
}

fn restored(c: &mut DebarCluster, run: RunId) -> (u64, u64, u64, u64) {
    let r = c.restore_run(run).expect("restore");
    (r.files, r.chunks, r.bytes, r.failures)
}

#[test]
fn retiring_a_base_run_leaves_its_successor_restoring_the_same() {
    let (mut c, [base, next], [_, stream]) = cluster();
    assert_eq!(recipe(&c, next), stream);
    let before = restored(&mut c, next);
    assert_eq!(before, whole(1));
    c.delete_run(base).expect("delete");
    assert_eq!(recipe(&c, next), stream);
    assert_eq!(restored(&mut c, next), before);
    assert!(c.fsck().is_clean(), "{:?}", c.fsck());
    // The collection reclaims what only the base referenced.
    c.run_gc().expect("gc");
    assert_eq!(recipe(&c, next), stream);
    assert_eq!(restored(&mut c, next), before);
    assert!(c.fsck().is_clean(), "{:?}", c.fsck());
}

#[test]
fn a_clone_keeps_its_recipes_through_the_originals_repacking() {
    let (mut c, [base, next], [base_stream, stream]) = cluster();
    let twin = c.clone();
    // The successor's first stretch is a copy: it lives in the base's block.
    let shared = first_entry(&c, next);
    assert_eq!(shared, first_entry(&c, base));
    assert_eq!(shared, first_entry(&twin, next));
    c.delete_run(base).expect("delete");
    // The original re-packed the base block; the clone still reads the old
    // one, whole, and both restore every run they retain.
    assert_ne!(first_entry(&c, next), shared);
    assert_eq!(first_entry(&twin, next), shared);
    assert_eq!(recipe(&c, next), stream);
    let mut twin = twin;
    assert_eq!(recipe(&twin, next), stream);
    assert_eq!(recipe(&twin, base), base_stream);
    assert_eq!(restored(&mut c, next), restored(&mut twin, next));
    assert_eq!(restored(&mut twin, base), whole(0));
    assert!(c.fsck().is_clean() && twin.fsck().is_clean());
}
