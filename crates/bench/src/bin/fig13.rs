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
//! (`n`: scale denominator, default 4096; `--smoke`: 16x deeper). A full
//! run writes `BENCH_fig13.json`, which CI holds to its committed bytes.

use debar_bench::table::{paper_err, Cell, Table};
use debar_hash::{ContainerId, Fingerprint};
use debar_index::{DiskIndex, IndexCache, IndexParams};
use debar_simio::models::{paper, GIB, TIB};

const SERVERS: usize = 16;

fn main() {
    let (denom, smoke) = debar_bench::args(4096, 16 * 4096);
    // Index totals, and the paper's PSIL and PSIU kilo-fingerprints per
    // second at the two it quotes.
    let totals = [
        (TIB / 2, Some((3710.0, 1524.0))),
        (TIB, None),
        (2 * TIB, None),
        (4 * TIB, None),
        (8 * TIB, Some((338.0, 135.0))),
    ];
    let cache_bytes = GIB / denom;
    let fill = 0.35;

    println!(
        "Figure 13: PSIL/PSIU speeds, {SERVERS} servers, 1GB cache each\n\
         (kilo-fingerprints per second; scale 1/{denom})\n"
    );
    let mut t = Table::new(&[
        "index_tb",
        "psil_kfps",
        "psiu_kfps",
        "paper_psil_kfps",
        "paper_psil_err",
        "paper_psiu_kfps",
        "paper_psiu_err",
    ]);
    for (total, paper_kfps) in totals {
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

        let index_tb = total as f64 / TIB as f64;
        let (paper_psil, paper_psiu) = paper_kfps.unzip();
        t.row(vec![
            Cell::F(index_tb, usize::from(index_tb < 1.0)),
            Cell::F(psil, 0),
            Cell::F(psiu, 0),
            Cell::opt(paper_psil, 0),
            paper_err(psil, paper_psil),
            Cell::opt(paper_psiu, 0),
            paper_err(psiu, paper_psiu),
        ]);
    }
    t.print();
    println!(
        "\nBoth speeds decline ~1/size: sweep time grows with the index while\n\
         the cached batch stays fixed."
    );
    let json = format!(
        "{{\n  \"bench\": \"fig13\",\n  \"denom\": {denom},\n  \"servers\": {SERVERS},\n  \
         \"fill\": {fill},\n  \"rows\": {}\n}}\n",
        t.json_rows()
    );
    debar_bench::write_bench_json("fig13", smoke, &json);
}
