//! Regenerates **Figure 13**: PSIL and PSIU speeds with 16 backup servers,
//! each holding one part of a 0.5-8 TB global disk index and a 1 GB
//! in-memory index cache.
//!
//! Each server sweeps its own index part on its own simulated disk; the
//! parallel speed is the aggregate batch over the slowest server's virtual
//! time (fingerprints/second rates are scale-invariant; see the scale rule
//! in `debar_simio::scale`).
//!
//! Run: `cargo run --release -p debar-bench --bin fig13 [n] [--smoke]`
//! (`n`: scale denominator, default 4096; `--smoke`: 16x deeper).

use debar_bench::table::{f, tb, TablePrinter};
use debar_hash::{ContainerId, Fingerprint};
use debar_index::{DiskIndex, IndexCache, IndexParams};
use debar_simio::models::{paper, GIB, TIB};

const SERVERS: usize = 16;

fn main() {
    let (denom, _) = debar_bench::args(4096, 16 * 4096);
    let totals = [TIB / 2, TIB, 2 * TIB, 4 * TIB, 8 * TIB];
    let cache_bytes = GIB / denom;
    let fill = 0.35;

    println!(
        "Figure 13: PSIL/PSIU speeds, {SERVERS} servers, 1GB cache each\n\
         (kilo-fingerprints per second; scale 1/{denom})\n"
    );
    let mut t = TablePrinter::new(&["index total", "PSIL (kfps)", "PSIU (kfps)", "sweeps"]);
    for total in totals {
        let part_bytes = total / SERVERS as u64 / denom;
        let params = IndexParams::from_total_size(part_bytes, paper::DEFAULT_BUCKET_BYTES);
        // Build the 16 parts, each pre-filled.
        let mut parts: Vec<DiskIndex> = (0..SERVERS)
            .map(|s| {
                let mut idx = DiskIndex::with_paper_disk(params, 100 + s as u64);
                let entries = (params.max_entries() as f64 * fill) as u64;
                let base = (s as u64) << 40;
                let ballast =
                    (0..entries).map(|i| (Fingerprint::of_counter(base + i), ContainerId::new(0)));
                idx.try_bulk_load_striped(ballast, 1)
                    .expect("no fault is armed");
                idx
            })
            .collect();

        // PSIL: every server looks up a full cache of fingerprints.
        let batch = IndexCache::with_memory(cache_bytes).capacity();
        let psil_wall = parts
            .iter_mut()
            .enumerate()
            .map(|(s, idx)| {
                let mut cache = IndexCache::with_memory(cache_bytes);
                let base = 0xABC0_0000_0000 + ((s as u64) << 32);
                for i in 0..batch {
                    cache.insert(Fingerprint::of_counter(base + i as u64), 0);
                }
                idx.try_sequential_lookup_sharded(&mut cache, 1)
                    .expect("no fault is armed")
                    .cost
            })
            .fold(0.0, f64::max);
        let psil = (SERVERS * batch) as f64 / psil_wall / 1e3;

        // PSIU: every server merges a full cache of new fingerprints.
        let psiu_wall = parts
            .iter_mut()
            .enumerate()
            .map(|(s, idx)| {
                let base = 0xDEF0_0000_0000 + ((s as u64) << 32);
                let updates: Vec<(Fingerprint, ContainerId)> = (0..batch as u64)
                    .map(|i| (Fingerprint::of_counter(base + i), ContainerId::new(1)))
                    .collect();
                idx.try_sequential_update_sharded(&updates, 1)
                    .expect("no fault is armed")
                    .cost
            })
            .fold(0.0, f64::max);
        let psiu = (SERVERS * batch) as f64 / psiu_wall / 1e3;

        t.row(vec![tb(total), f(psil, 0), f(psiu, 0), "1".into()]);
    }
    t.print();
    println!(
        "\nPaper reference: 0.5TB -> PSIL ~3710k, PSIU ~1524k; 8TB -> PSIL\n\
         ~338k, PSIU ~135k fingerprints/s (both decline ~1/size since sweep\n\
         time grows with the index while the cached batch stays fixed)."
    );
}
