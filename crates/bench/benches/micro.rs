//! Micro-benchmarks for the substrate primitives: hashing, chunking,
//! index operations, filters and containers.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use debar_chunk::{CdcChunker, CdcParams};
use debar_filter::{BloomFilter, PrelimFilter};
use debar_hash::rabin::{RabinTables, RollingHash};
use debar_hash::{ContainerId, Fingerprint, Sha1, SplitMix64};
use debar_index::{DiskIndex, IndexParams};
use debar_store::{Container, ContainerManager, LpcCache, Payload};
use std::hint::black_box;

fn test_data(len: usize) -> Vec<u8> {
    let mut rng = SplitMix64::new(0xBE7C);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

fn hash_benches(c: &mut Criterion) {
    let data = test_data(64 * 1024);
    let mut g = c.benchmark_group("hash");
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("sha1_64k", |b| b.iter(|| black_box(Sha1::digest(&data))));
    g.finish();

    let mut i = 0u64;
    c.bench_function("hash/fingerprint_of_counter", |b| {
        b.iter(|| {
            i += 1;
            black_box(Fingerprint::of_counter(i))
        })
    });

    let tables = RabinTables::default_tables();
    let mut g = c.benchmark_group("rabin");
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("rolling_64k", |b| {
        b.iter(|| {
            let mut r = RollingHash::new(&tables);
            let mut acc = 0u64;
            for &x in &data {
                acc ^= r.push(x);
            }
            black_box(acc)
        })
    });
    g.finish();
}

fn chunk_benches(c: &mut Criterion) {
    let data = test_data(256 * 1024);
    let cdc = CdcChunker::new(CdcParams::small());
    let mut g = c.benchmark_group("chunking");
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("cdc_256k", |b| {
        b.iter(|| black_box(cdc.chunk_all(&data).len()))
    });
    g.finish();
}

fn index_benches(c: &mut Criterion) {
    let mut idx = DiskIndex::with_paper_disk(IndexParams::new(10, 512), 3);
    let mut i = 0u64;
    c.bench_function("index/insert_random", |b| {
        b.iter(|| {
            i += 1;
            black_box(
                idx.insert_random(Fingerprint::of_counter(i), ContainerId::new(0))
                    .value,
            )
        })
    });
    c.bench_function("index/lookup_uncharged", |b| {
        b.iter(|| black_box(idx.lookup_uncharged(&Fingerprint::of_counter(i / 2))))
    });
}

fn filter_benches(c: &mut Criterion) {
    let mut filter = PrelimFilter::new(100_000);
    filter.prime((0..50_000).map(Fingerprint::of_counter));
    let mut i = 0u64;
    c.bench_function("filter/prelim_check", |b| {
        b.iter(|| {
            i += 1;
            black_box(filter.check(Fingerprint::of_counter(i % 80_000)))
        })
    });

    let mut bloom = BloomFilter::new(1 << 20, 4);
    for k in 0..10_000u64 {
        bloom.insert(&Fingerprint::of_counter(k));
    }
    c.bench_function("filter/bloom_contains", |b| {
        b.iter(|| {
            i += 1;
            black_box(bloom.contains(&Fingerprint::of_counter(i % 20_000)))
        })
    });
}

fn store_benches(c: &mut Criterion) {
    c.bench_function("store/container_fill_1024", |b| {
        b.iter(|| {
            let mut m = ContainerManager::new(8 << 20);
            let mut sealed = 0;
            for k in 0..1024u64 {
                if m.append(Fingerprint::of_counter(k), Payload::Zero(8192))
                    .is_some()
                {
                    sealed += 1;
                }
            }
            black_box(sealed)
        })
    });
    c.bench_function("store/container_serialize_roundtrip", |b| {
        let mut cont = Container::new(1 << 20);
        for k in 0..200u64 {
            cont.try_append(
                Fingerprint::of_counter(k),
                Payload::Real(bytes::Bytes::from(test_data(512))),
            );
        }
        b.iter(|| {
            let raw = cont.serialize();
            black_box(
                Container::deserialize(&raw, 1 << 20)
                    .expect("roundtrip")
                    .len(),
            )
        })
    });
    let mut lpc = LpcCache::new(16);
    for cid in 0..16u64 {
        lpc.insert_container(
            ContainerId::new(cid),
            (0..1024)
                .map(|k| Fingerprint::of_counter(cid * 1024 + k))
                .collect(),
        );
    }
    let mut i = 0u64;
    c.bench_function("store/lpc_lookup", |b| {
        b.iter(|| {
            i += 1;
            black_box(lpc.lookup(&Fingerprint::of_counter(i % 20_000)))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = hash_benches, chunk_benches, index_benches, filter_benches, store_benches
}
criterion_main!(benches);
