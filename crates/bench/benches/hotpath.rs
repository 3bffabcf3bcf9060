//! Hot-path micro-benchmarks for the PR-1 performance work, with a
//! machine-readable summary.
//!
//! Before/after pairs, each comparing the retained baseline path against
//! the optimised one on identical inputs:
//!
//! | pair | baseline | optimised |
//! |---|---|---|
//! | SIL sweep (1M-entry index, 64K batch) | `sequential_lookup_hashed` | `try_sequential_lookup_sharded` |
//! | probe kernel | per-fp hash probing | merge-join cursor |
//! | Bloom batch probe (64 MB filter) | classic `k`-line layout | blocked one-line layout |
//! | CDC (8 MB stream, paper params) | `chunk_all_reference` (per-byte ring) | `chunk_all` (four-lane scan) |
//! | SHA-1 (the 8 MB stream's ~8 KB chunks) | `Sha1::portable` | `Sha1::new` (CPU-dispatched kernel) |
//! | fingerprint table (64K inserts, 64K hits, 64K misses) | std `RandomState` (SipHash-1-3) | `FpBuild` (digest-keyed) |
//!
//! `prelim/check_64k` has no pair: it times the preliminary filter, which
//! sits on an `FpMap`, priming one 64K generation and checking the next.
//!
//! The SHA-1 pair compares kernels only when the CPU has the SHA
//! extensions; `sha1_kernel` in the summary names the one that ran.
//!
//! The `*/sharded_*` rows time the **same kernel** as `*/merge_join_*` —
//! one merge-join pass over the whole sorted batch — under `P = 4`-way
//! striped charging: partitions divide the virtual sweep and probe time,
//! not the host work, so the two rows differ only by the part-disk
//! bookkeeping.
//!
//! Writes `BENCH_hotpath.json` into the working directory with the raw
//! minimum-time samples and the derived speedups.
//!
//! Run: `cargo bench -p debar-bench --bench hotpath`

use criterion::Criterion;
use debar_chunk::{CdcChunker, CdcParams};
use debar_filter::{BloomFilter, FilterVerdict, PrelimFilter};
use debar_hash::{ContainerId, Fingerprint, FpBuild, Sha1, SplitMix64};
use debar_index::{DiskIndex, IndexCache, IndexParams};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::hint::black_box;
use std::io::Write;

/// A classic (non-blocked) Bloom filter — the pre-optimisation layout with
/// `k` independent bit positions spread over the whole array, i.e. up to
/// `k` cache-line fetches per probe. Baseline for the blocked comparison.
struct ClassicBloom {
    bits: Vec<u64>,
    m_bits: u64,
    k: u32,
}

impl ClassicBloom {
    fn with_memory(bytes: u64, k: u32) -> Self {
        let m_bits = bytes * 8;
        ClassicBloom {
            bits: vec![0u64; (m_bits / 64) as usize],
            m_bits,
            k,
        }
    }

    #[inline]
    fn positions(&self, fp: &Fingerprint) -> impl Iterator<Item = u64> + '_ {
        let raw = fp.as_bytes();
        let h1 = u64::from_be_bytes(raw[0..8].try_into().expect("8 bytes"));
        let h2 = u64::from_be_bytes(raw[8..16].try_into().expect("8 bytes")) | 1;
        let m = self.m_bits;
        (0..self.k as u64).map(move |i| (h1.wrapping_add(i.wrapping_mul(h2))) % m)
    }

    fn insert(&mut self, fp: &Fingerprint) {
        let positions: Vec<u64> = self.positions(fp).collect();
        for p in positions {
            self.bits[(p / 64) as usize] |= 1u64 << (p % 64);
        }
    }

    fn contains(&self, fp: &Fingerprint) -> bool {
        self.positions(fp)
            .all(|p| self.bits[(p / 64) as usize] & (1u64 << (p % 64)) != 0)
    }
}

fn fp(n: u64) -> Fingerprint {
    Fingerprint::of_counter(n)
}

fn test_data(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// 1M-entry index with paper-geometry 8 KB buckets (2^12 buckets ≈ 34 MB).
fn million_entry_index() -> DiskIndex {
    let mut idx = DiskIndex::with_paper_disk(IndexParams::new(12, 8 * 1024), 0xBE);
    idx.try_bulk_load_striped(
        (0..1_000_000u64).map(|i| (fp(i), ContainerId::new(i % 4096))),
        1,
    )
    .expect("no fault is armed");
    idx
}

/// A 64K-fingerprint SIL batch: ~25% duplicates of registered content
/// (typical undetermined-fingerprint mix), rest new to the system.
fn sil_batch() -> Vec<Fingerprint> {
    let mut rng = SplitMix64::new(0x5117);
    (0..65_536)
        .map(|_| {
            if rng.next_u64().is_multiple_of(4) {
                fp(rng.next_u64() % 1_000_000)
            } else {
                fp(1_000_000 + rng.next_u64() % 100_000_000)
            }
        })
        .collect()
}

fn cache_from(fps: &[Fingerprint]) -> IndexCache {
    let mut c = IndexCache::new(10, fps.len());
    for f in fps {
        c.insert(*f, 0);
    }
    c
}

fn sil_benches(c: &mut Criterion) {
    let mut idx = million_entry_index();
    let batch = sil_batch();
    let cache = cache_from(&batch);
    // Fixed stripe width: the committed numbers must not depend on the
    // host's core count.
    const P: usize = 4;

    c.bench_function("sil/hashed_64k_1m", |b| {
        b.iter(|| {
            let mut cache = cache.clone();
            black_box(
                idx.sequential_lookup_hashed(&mut cache)
                    .value
                    .duplicates
                    .len(),
            )
        })
    });
    c.bench_function("sil/merge_join_64k_1m", |b| {
        b.iter(|| {
            let mut cache = cache.clone();
            black_box(
                idx.try_sequential_lookup_sharded(&mut cache, 1)
                    .expect("no fault is armed")
                    .value
                    .duplicates
                    .len(),
            )
        })
    });
    c.bench_function("sil/sharded_64k_1m", |b| {
        b.iter(|| {
            let mut cache = cache.clone();
            black_box(
                idx.try_sequential_lookup_sharded(&mut cache, P)
                    .expect("no fault is armed")
                    .value
                    .duplicates
                    .len(),
            )
        })
    });

    // SIU on the same index geometry: register a fresh 64K batch.
    let siu_batch: Vec<(Fingerprint, ContainerId)> = {
        let mut rng = SplitMix64::new(0x5120);
        (0..65_536)
            .map(|_| {
                (
                    fp(2_000_000_000 + rng.next_u64() % 100_000_000),
                    ContainerId::new(7),
                )
            })
            .collect()
    };
    c.bench_function("siu/scalar_64k_1m", |b| {
        b.iter(|| {
            let mut idx = idx.clone();
            black_box(idx.sequential_update_scalar(&siu_batch).value.inserted)
        })
    });
    c.bench_function("siu/sharded_64k_1m", |b| {
        b.iter(|| {
            let mut idx = idx.clone();
            black_box(
                idx.try_sequential_update_sharded(&siu_batch, P)
                    .expect("no fault is armed")
                    .value
                    .inserted,
            )
        })
    });
}

fn bloom_benches(c: &mut Criterion) {
    // 64 MB filters at the paper's m/n = 8 operating point (8M keys):
    // every classic probe line is a DRAM round-trip.
    const BYTES: u64 = 64 << 20;
    const KEYS: u64 = BYTES; // bytes × 8 bits / 8 bits-per-key
    let keys: Vec<Fingerprint> = (0..KEYS).map(fp).collect();
    let mut classic = ClassicBloom::with_memory(BYTES, 4);
    for k in &keys {
        classic.insert(k);
    }
    let mut blocked = BloomFilter::with_memory(BYTES, 4);
    blocked.insert_all(&keys);

    // 64K probes, half present and half absent.
    let mut rng = SplitMix64::new(0xB100);
    let probes: Vec<Fingerprint> = (0..65_536u64)
        .map(|i| {
            if i % 2 == 0 {
                fp(rng.next_u64() % KEYS)
            } else {
                fp(KEYS + rng.next_u64() % 1_000_000_000)
            }
        })
        .collect();

    c.bench_function("bloom/classic_64k_probes", |b| {
        b.iter(|| {
            let mut hits = 0u32;
            for p in &probes {
                hits += classic.contains(p) as u32;
            }
            black_box(hits)
        })
    });
    c.bench_function("bloom/blocked_64k_probes", |b| {
        b.iter(|| black_box(blocked.contains_all(&probes).iter().filter(|v| **v).count()))
    });
}

fn cdc_benches(c: &mut Criterion) {
    let data = test_data(8 << 20, 0xCDC);
    let chunker = CdcChunker::new(CdcParams::paper());
    c.bench_function("cdc/per_byte_reference_8m", |b| {
        b.iter(|| black_box(chunker.chunk_all_reference(&data).len()))
    });
    c.bench_function("cdc/slice_kernel_8m", |b| {
        b.iter(|| black_box(chunker.chunk_all(&data).len()))
    });
}

fn sha1_benches(c: &mut Criterion) {
    let data = test_data(8 << 20, 0x5A1);
    let chunks = CdcChunker::paper().split(&data);
    let hash_all = |new: fn() -> Sha1| {
        let mut acc = 0u8;
        for chunk in &chunks {
            let mut h = new();
            h.update(black_box(chunk));
            acc ^= h.finalize()[0];
        }
        acc
    };
    c.bench_function("sha1/portable_8k_chunks_8m", |b| {
        b.iter(|| black_box(hash_all(Sha1::portable)))
    });
    c.bench_function("sha1/dispatch_8k_chunks_8m", |b| {
        b.iter(|| black_box(hash_all(Sha1::new)))
    });
}

/// Fingerprints per table kernel.
const TABLE_FPS: u64 = 1 << 16;

/// Insert `keys` into a fresh table hashed by `S`, then look every key up
/// and every one of `misses`: the in-memory tables' whole life.
fn table_life<S: BuildHasher + Default>(keys: &[Fingerprint], misses: &[Fingerprint]) -> usize {
    let mut table: HashMap<Fingerprint, u32, S> = HashMap::default();
    for (i, &k) in keys.iter().enumerate() {
        table.insert(k, i as u32);
    }
    let hits = keys.iter().filter(|k| table.contains_key(k)).count();
    let false_hits = misses.iter().filter(|k| table.contains_key(k)).count();
    hits + false_hits
}

fn fpmap_benches(c: &mut Criterion) {
    let keys: Vec<Fingerprint> = (0..TABLE_FPS).map(fp).collect();
    let misses: Vec<Fingerprint> = (TABLE_FPS..2 * TABLE_FPS).map(fp).collect();
    c.bench_function("fpmap/std_64k", |b| {
        b.iter(|| black_box(table_life::<RandomState>(&keys, &misses)))
    });
    c.bench_function("fpmap/fp_64k", |b| {
        b.iter(|| black_box(table_life::<FpBuild>(&keys, &misses)))
    });
}

fn prelim_benches(c: &mut Criterion) {
    // The next generation repeats three in four of the primed one's
    // fingerprints, in order, and brings the rest new.
    let primed: Vec<Fingerprint> = (0..TABLE_FPS).map(fp).collect();
    let mut rng = SplitMix64::new(0x9E1);
    let next: Vec<Fingerprint> = (0..TABLE_FPS)
        .map(|i| {
            if rng.below(4) == 0 {
                fp(TABLE_FPS + i)
            } else {
                fp(i)
            }
        })
        .collect();
    c.bench_function("prelim/check_64k", |b| {
        b.iter(|| {
            let mut filter = PrelimFilter::new(2 * TABLE_FPS as usize);
            filter.prime(primed.iter().copied());
            let dups = (next.iter())
                .filter(|&&f| filter.check(f) == FilterVerdict::Duplicate)
                .count();
            black_box(dups)
        })
    });
}

fn json_escape_free(name: &str) -> bool {
    name.chars()
        .all(|ch| ch.is_ascii_alphanumeric() || "/_-.".contains(ch))
}

fn write_summary(results: &[(String, criterion::Sample)]) {
    let ns = |name: &str| -> f64 {
        results
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s.min_ns)
            .unwrap_or(f64::NAN)
    };
    let speedups = [
        ("sil_sweep", "sil/hashed_64k_1m", "sil/sharded_64k_1m"),
        (
            "sil_merge_join_probe",
            "sil/hashed_64k_1m",
            "sil/merge_join_64k_1m",
        ),
        ("siu_sweep", "siu/scalar_64k_1m", "siu/sharded_64k_1m"),
        (
            "bloom_batch_probe",
            "bloom/classic_64k_probes",
            "bloom/blocked_64k_probes",
        ),
        (
            "cdc_slice_kernel",
            "cdc/per_byte_reference_8m",
            "cdc/slice_kernel_8m",
        ),
        (
            "sha1_dispatch",
            "sha1/portable_8k_chunks_8m",
            "sha1/dispatch_8k_chunks_8m",
        ),
        ("fp_hasher", "fpmap/std_64k", "fpmap/fp_64k"),
    ];

    let mut out = String::from("{\n  \"benches\": {\n");
    for (i, (name, s)) in results.iter().enumerate() {
        assert!(json_escape_free(name), "bench name needs escaping: {name}");
        out.push_str(&format!(
            "    \"{name}\": {{ \"min_ns\": {:.1}, \"mean_ns\": {:.1} }}{}\n",
            s.min_ns,
            s.mean_ns,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  },\n  \"speedups\": {\n");
    for (i, (label, base, opt)) in speedups.iter().enumerate() {
        out.push_str(&format!(
            "    \"{label}\": {:.3}{}\n",
            ns(base) / ns(opt),
            if i + 1 < speedups.len() { "," } else { "" }
        ));
    }
    out.push_str(&format!(
        "  }},\n  \"sha1_kernel\": \"{:?}\"\n}}\n",
        debar_hash::sha1::kernel()
    ));

    // Workspace root, regardless of the cwd `cargo bench` hands us.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_hotpath.json");
    std::fs::File::create(&path)
        .and_then(|mut f| f.write_all(out.as_bytes()))
        .expect("write BENCH_hotpath.json");
    println!("\nwrote {}", path.display());
    for (label, base, opt) in speedups {
        println!("speedup {label:<22} {:.2}x", ns(base) / ns(opt));
    }
}

fn main() {
    let mut c = Criterion::default().sample_size(8);
    sil_benches(&mut c);
    bloom_benches(&mut c);
    cdc_benches(&mut c);
    sha1_benches(&mut c);
    fpmap_benches(&mut c);
    prelim_benches(&mut c);
    write_summary(&c.take_results());
}
