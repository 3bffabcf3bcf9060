//! Regenerates **Figure 10** (time overheads of SIL and SIU vs disk-index
//! size, 32-512 GB) and **Figure 11** (lookup/update efficiencies in
//! fingerprints/second: SIL/SIU with 1/2/3 GB index caches vs the random
//! on-disk baseline).
//!
//! Sizes are nominal (paper-scale); structures are built at 1/1024 of them
//! and virtual times reported at the nominal scale (multiply measured sweep
//! times by the denominator — the fingerprints/second rates are
//! scale-invariant; see the scale rule in `debar_simio::scale`).
//!
//! Run: `cargo run --release -p debar-bench --bin fig10_11 [n] [--smoke]`
//! (`n`: scale denominator, default 1024; `--smoke`: 16x deeper). A full
//! run writes `BENCH_fig10_11.json`, which CI holds to its committed bytes.

use debar_bench::table::{Cell, Table};
use debar_hash::{ContainerId, Fingerprint};
use debar_index::{DiskIndex, IndexCache, IndexParams};
use debar_simio::models::{paper, GIB};

fn build_index(nominal_bytes: u64, denom: u64, fill: f64, seed: u64) -> DiskIndex {
    let params = IndexParams::from_total_size(nominal_bytes / denom, paper::DEFAULT_BUCKET_BYTES);
    let mut idx = DiskIndex::with_paper_disk(params, seed);
    let entries = (params.max_entries() as f64 * fill) as u64;
    let ballast = (0..entries).map(|i| (Fingerprint::of_counter(i), ContainerId::new(i % 1000)));
    idx.try_bulk_load_striped(ballast, 1)
        .expect("no fault is armed");
    idx
}

fn cache_for(nominal_cache: u64, denom: u64) -> IndexCache {
    IndexCache::with_memory(nominal_cache / denom)
}

fn main() {
    let (denom, smoke) = debar_bench::args(1024, 16 * 1024);
    let sizes = [32 * GIB, 64 * GIB, 128 * GIB, 256 * GIB, 512 * GIB];
    let caches = [GIB, 2 * GIB, 3 * GIB];
    let fill = 0.35;

    println!("Figure 10: SIL and SIU time overheads vs disk index size\n");
    let mut fig10 = Table::new(&["index_gb", "sil_min", "siu_min", "paper_sil", "paper_siu"]);
    let paper_sil = [2.53, 5.1, 10.1, 19.9, 38.98];
    let paper_siu = [6.16, 12.3, 24.5, 48.9, 97.07];
    // Measured speeds for Figure 11: speeds[(cache, size)] = (sil, siu).
    let mut sil_speed = vec![vec![0.0f64; sizes.len()]; caches.len()];
    let mut siu_speed = vec![vec![0.0f64; sizes.len()]; caches.len()];
    let mut sil_minutes = vec![0.0f64; sizes.len()];
    let mut siu_minutes = vec![0.0f64; sizes.len()];

    for (si, &size) in sizes.iter().enumerate() {
        for (ci, &cache_bytes) in caches.iter().enumerate() {
            // SIL: a full cache of fingerprints absent from the index.
            let mut idx = build_index(size, denom, fill, 42 + si as u64);
            let mut cache = cache_for(cache_bytes, denom);
            let batch = cache.capacity();
            for i in 0..batch {
                cache.insert(Fingerprint::of_counter(1_000_000_000 + i as u64), 0);
            }
            let t = idx
                .try_sequential_lookup_sharded(&mut cache, 1)
                .expect("no fault is armed");
            // Nominal time = actual virtual time x denom (sizes scaled,
            // rates fixed).
            let sil_nominal = t.cost * denom as f64;
            // Rates are scale-invariant: actual batch over actual time.
            sil_speed[ci][si] = batch as f64 / t.cost;
            // SIU: register the batch (all new).
            let updates: Vec<(Fingerprint, ContainerId)> = (0..batch as u64)
                .map(|i| {
                    (
                        Fingerprint::of_counter(2_000_000_000 + i),
                        ContainerId::new(1),
                    )
                })
                .collect();
            let t = idx
                .try_sequential_update_sharded(&updates, 1)
                .expect("no fault is armed");
            let siu_nominal = t.cost * denom as f64;
            siu_speed[ci][si] = batch as f64 / t.cost;
            if ci == 0 {
                sil_minutes[si] = sil_nominal / 60.0;
                siu_minutes[si] = siu_nominal / 60.0;
            }
        }
        fig10.row(vec![
            Cell::U(size / GIB),
            Cell::F(sil_minutes[si], 2),
            Cell::F(siu_minutes[si], 2),
            Cell::F(paper_sil[si], 2),
            Cell::F(paper_siu[si], 2),
        ]);
    }
    fig10.print();

    // Random-path baselines (rate is scale-invariant).
    let mut idx = build_index(32 * GIB, denom, fill, 7);
    let probes = 2000u64;
    let mut lookup_cost = 0.0;
    for i in 0..probes {
        let t = idx.lookup_random(&Fingerprint::of_counter(i * 3));
        lookup_cost += t.expect("no fault is armed").cost;
    }
    let rand_lookup = probes as f64 / lookup_cost;
    let mut update_cost = 0.0;
    for i in 0..probes {
        update_cost += idx
            .insert_random(
                Fingerprint::of_counter(3_000_000_000 + i),
                ContainerId::new(2),
            )
            .expect("no fault is armed")
            .cost;
        // An update is a read-modify-write: add the write-back of the
        // bucket (insert_random already charges it).
    }
    let rand_update = probes as f64 / update_cost;

    println!("\nFigure 11: lookup/update efficiencies (fingerprints per second)\n");
    let mut fig11 = Table::new(&[
        "index_gb",
        "sil_1gb",
        "sil_2gb",
        "sil_3gb",
        "siu_1gb",
        "siu_2gb",
        "siu_3gb",
        "rand_lookup",
        "rand_update",
    ]);
    for (si, &size) in sizes.iter().enumerate() {
        fig11.row(vec![
            Cell::U(size / GIB),
            Cell::F(sil_speed[0][si], 0),
            Cell::F(sil_speed[1][si], 0),
            Cell::F(sil_speed[2][si], 0),
            Cell::F(siu_speed[0][si], 0),
            Cell::F(siu_speed[1][si], 0),
            Cell::F(siu_speed[2][si], 0),
            Cell::F(rand_lookup, 0),
            Cell::F(rand_update, 0),
        ]);
    }
    fig11.print();
    println!(
        "\nPaper reference points: SIL-3GB@32GB ~917k fps/s, SIU-3GB@32GB ~376k;\n\
         SIL-1GB@512GB ~19.7k, SIU-1GB@512GB ~7.9k; random lookup ~522,\n\
         random update ~270 (both independent of index size).\n\
         Speedup SIL-3GB@32GB over random lookup: {:.0}x (paper: 1757x);\n\
         SIU-3GB@32GB over random update: {:.0}x (paper: 1392x).",
        sil_speed[2][0] / rand_lookup,
        siu_speed[2][0] / rand_update,
    );

    let json = format!(
        "{{\n  \"bench\": \"fig10_11\",\n  \"denom\": {denom},\n  \"fill\": {fill},\n  \
         \"fig10\": {},\n  \"fig11\": {}\n}}\n",
        fig10.json_rows(),
        fig11.json_rows()
    );
    debar_bench::write_bench_json("fig10_11", smoke, &json);
}
