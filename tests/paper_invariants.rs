//! Paper-shaped invariants: small-scale checks that the headline
//! qualitative results of the evaluation hold in this implementation.

use debar::ddfs::{DdfsConfig, DdfsServer};
use debar::filter::bloom::false_positive_rate;
use debar::index::theory::{predicted_exit_eta, UtilizationSim};
use debar::index::{DiskIndex, IndexCache, IndexParams};
use debar::workload::drift::records;
use debar::{ClientId, ContainerId, Dataset, DebarCluster, DebarConfig, Fingerprint};

#[test]
fn sil_beats_random_lookup_by_orders_of_magnitude() {
    // §5.2: "such a lookup speed is over two orders of magnitude higher
    // than conventional random index lookup approaches".
    let mut idx = DiskIndex::with_paper_disk(IndexParams::new(10, 512), 1);
    idx.try_bulk_load_striped(
        (0..5000u64).map(|i| (Fingerprint::of_counter(i), ContainerId::new(0))),
        1,
    )
    .expect("no fault is armed");
    let mut cache = IndexCache::new(8, 50_000);
    for i in 0..20_000u64 {
        cache.insert(Fingerprint::of_counter(100_000 + i), 0);
    }
    let batch = cache.len() as f64;
    let t = idx
        .try_sequential_lookup_sharded(&mut cache, 1)
        .expect("no fault is armed");
    let sil_rate = batch / t.cost;
    let lookup = idx.lookup_random(&Fingerprint::of_counter(1));
    let rand_rate = 1.0 / lookup.expect("no fault is armed").cost;
    assert!(
        sil_rate > 100.0 * rand_rate,
        "SIL {sil_rate:.0} fps/s vs random {rand_rate:.0} fps/s"
    );
}

#[test]
fn ddfs_throughput_collapses_when_bloom_saturates() {
    // Fig. 12's cliff: same stream, healthy vs saturated summary vector.
    let stream = records(5_000_000..5_004_000);
    let run = |ballast: u64| {
        let mut cfg = DdfsConfig::paper_scaled(8192);
        cfg.index = IndexParams::new(12, 512);
        let mut s = DdfsServer::new(cfg);
        s.preload((0..ballast).map(|i| (Fingerprint::of_counter(i), ContainerId::new(0))));
        let rep = s.backup_stream(&stream).expect("backup");
        rep.throughput_mibps()
    };
    let healthy = run(1_000); // m/n huge
    let saturated = run(400_000); // m/n ~ 2.6: fp rate > 30%
    assert!(
        saturated < 0.5 * healthy,
        "no cliff: healthy {healthy:.0} vs saturated {saturated:.0} MiB/s"
    );
}

#[test]
fn bloom_false_positive_math_matches_paper_quotes() {
    // §1: 1GB filter / 8TB capacity -> ~2%; §6.1.3: m/n=4 -> ~14.6%.
    let two_pct = false_positive_rate(8, 1, 4);
    assert!((0.015..0.03).contains(&two_pct), "{two_pct}");
    let fourteen = false_positive_rate(4, 1, 4);
    assert!((0.12..0.18).contains(&fourteen), "{fourteen}");
}

#[test]
fn bucket_utilization_tracks_table2_ordering() {
    // Table 2: utilization strictly rises with bucket size, and the
    // formula-(1) exit prediction tracks measurement.
    let mut last = 0.0;
    for (n, b) in [(12u32, 20u32), (12, 80), (12, 320)] {
        let runs = UtilizationSim { n_bits: n, b }.run_many(3, 4);
        let eta = runs.iter().map(|r| r.utilization).sum::<f64>() / runs.len() as f64;
        assert!(eta > last, "utilization not increasing at b={b}");
        let predicted = predicted_exit_eta(n, b);
        assert!(
            (eta - predicted).abs() < 0.09,
            "b={b}: {eta} vs {predicted}"
        );
        last = eta;
    }
}

#[test]
fn preliminary_filter_cuts_network_traffic_not_compression() {
    // §5.1/Fig. 7: the filter reduces transfer; dedup-2 guarantees the
    // same final stored set either way.
    let version_a = records(0..2000);
    let mut version_b = records(0..1500); // 75% overlap with a
    version_b.extend(records(10_000..10_500));

    // "Without the filter" is what it means — no job chain: version B is
    // backed up under a fresh job, so nothing primes its filter.
    let run = |chained: bool| {
        let mut c = DebarCluster::new(DebarConfig::tiny_test(0));
        let job = c.define_job("j", ClientId(0));
        c.backup(job, &Dataset::from_records("s", version_a.clone()))
            .expect("backup");
        c.run_dedup2().expect("dedup2");
        let job_b = if chained {
            job
        } else {
            c.define_job("unchained", ClientId(0))
        };
        let rep = c
            .backup(job_b, &Dataset::from_records("s", version_b.clone()))
            .expect("backup");
        c.run_dedup2().expect("dedup2");
        c.force_siu().expect("siu");
        (rep.transferred_bytes, c.index_entries())
    };
    let (with_filter_tx, with_entries) = run(true);
    let (no_filter_tx, no_entries) = run(false);
    assert!(
        (with_filter_tx as f64) < 0.4 * no_filter_tx as f64,
        "filter saved too little: {with_filter_tx} vs {no_filter_tx}"
    );
    assert_eq!(
        with_entries, no_entries,
        "final stored set must be identical"
    );
    assert_eq!(with_entries, 2500);
}

#[test]
fn sisl_gives_lpc_high_hit_rate_on_restore() {
    // §6.2: "99.3% random small disk I/Os for fingerprint lookup were
    // eliminated by LPC."
    let mut c = DebarCluster::new(DebarConfig::tiny_test(0));
    let job = c.define_job("j", ClientId(0));
    c.backup(job, &Dataset::from_records("s", records(0..4000)))
        .expect("backup");
    c.run_dedup2().expect("dedup2");
    c.force_siu().expect("siu");
    let rep = c
        .restore_run(debar::RunId { job, version: 0 })
        .expect("restore");
    assert_eq!(rep.failures, 0);
    assert!(
        rep.lpc.hit_ratio() > 0.97,
        "LPC hit ratio {:.4} below the paper's regime",
        rep.lpc.hit_ratio()
    );
}

#[test]
fn multipart_index_divides_sweep_time_by_parts() {
    // §5.2's multi-part analysis: an index striped over P part-disks
    // sweeps in exactly 1/P of the single-volume time, with identical
    // lookup results.
    let build = || {
        let mut idx = DiskIndex::with_paper_disk(IndexParams::new(12, 512), 4);
        idx.try_bulk_load_striped(
            (0..10_000u64).map(|i| (Fingerprint::of_counter(i), ContainerId::new(i))),
            1,
        )
        .expect("no fault is armed");
        idx
    };
    let probe = |idx: &mut DiskIndex, parts: usize| {
        let mut cache = IndexCache::new(8, 20_000);
        for i in 0..8_000u64 {
            cache.insert(Fingerprint::of_counter(i * 2), 0);
        }
        idx.try_sequential_lookup_sharded(&mut cache, parts)
            .expect("no fault is armed")
            .value
    };
    let mut scalar_idx = build();
    let scalar = probe(&mut scalar_idx, 1);
    for parts in [2usize, 4, 8, 16] {
        let mut idx = build();
        let striped = probe(&mut idx, parts);
        assert_eq!(striped.parts, parts as u32);
        assert_eq!(striped.duplicates.len(), scalar.duplicates.len());
        let ratio = scalar.sweep_secs / striped.sweep_secs;
        assert!(
            (ratio - parts as f64).abs() < 1e-9,
            "sweep time at {parts} parts: ratio {ratio}"
        );
    }
}

#[test]
fn sil_time_independent_of_batch_size() {
    // §5.2/Fig. 10: SIL time is a function of index size and transfer
    // rate, not of how many fingerprints are processed.
    let mut idx = DiskIndex::with_paper_disk(IndexParams::new(12, 512), 2);
    idx.try_bulk_load_striped(
        (0..20_000u64).map(|i| (Fingerprint::of_counter(i), ContainerId::new(0))),
        1,
    )
    .expect("no fault is armed");
    let mut cost_of = |n: u64| {
        let mut cache = IndexCache::new(8, 1 << 20);
        for i in 0..n {
            cache.insert(Fingerprint::of_counter(1_000_000 + i), 0);
        }
        idx.try_sequential_lookup_sharded(&mut cache, 1)
            .expect("no fault is armed")
            .cost
    };
    let small = cost_of(100);
    let large = cost_of(5_000);
    assert!(
        (small - large).abs() / small < 0.02,
        "SIL cost varied with batch: {small} vs {large}"
    );
}
