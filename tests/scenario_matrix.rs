//! The striped-index scenario matrix: the same deterministic multi-job,
//! multi-client, multi-version workload run under `sweep_parts ∈ {1, 2, 4}`
//! (env-overridable, see `common::sweep_parts_matrix`) and several server
//! counts must produce **byte-identical index state** and identical
//! restore bytes — while striped sweeps strictly reduce virtual PSIL/PSIU
//! time.

mod common;

use common::{
    assert_equivalent, assert_same_dedup, assert_same_restore, layout_matrix, replication_matrix,
    run_scenario, store_workers_matrix, sweep_parts_matrix, Scenario,
};
use debar::workload::files::FileSpec;
use debar::{ClientId, Dataset, DebarConfig, RunId};

/// tiny_test geometry: 256 buckets per index part (the runtime clamp
/// ceiling for `sweep_parts_engaged`).
const TINY_BUCKETS: usize = 256;

#[test]
fn striped_parts_byte_identical_single_server() {
    let base = run_scenario(&Scenario::tiny("sm-w0", 0, 1));
    assert_eq!(base.restore_failures, 0);
    assert_eq!(base.verify_failures, 0);
    assert!(
        base.dedup_ratio() > 1.5,
        "workload must actually deduplicate"
    );
    for parts in sweep_parts_matrix().into_iter().filter(|&p| p != 1) {
        let striped = run_scenario(&Scenario::tiny("sm-w0", 0, parts));
        assert_equivalent(&base, &striped, &format!("w=0 parts={parts}"));
        assert_eq!(
            striped.sweep_parts_engaged,
            parts.min(TINY_BUCKETS) as u32,
            "striped mode not engaged in the full system path"
        );
        assert!(
            striped.sil_wall < base.sil_wall,
            "parts={parts}: striped PSIL wall {} not below scalar {}",
            striped.sil_wall,
            base.sil_wall
        );
        assert!(
            striped.siu_wall < base.siu_wall,
            "parts={parts}: striped PSIU wall {} not below scalar {}",
            striped.siu_wall,
            base.siu_wall
        );
    }
}

#[test]
fn striped_parts_byte_identical_four_servers() {
    let base = run_scenario(&Scenario::tiny("sm-w2", 2, 1));
    assert_eq!(base.index_digests.len(), 4);
    for parts in sweep_parts_matrix().into_iter().filter(|&p| p != 1) {
        let striped = run_scenario(&Scenario::tiny("sm-w2", 2, parts));
        assert_equivalent(&base, &striped, &format!("w=2 parts={parts}"));
    }
}

#[test]
fn store_workers_cross_sweep_parts_byte_identical() {
    // The pipelined chunk-storing phase: any store-worker count crossed
    // with any sweep-partition count must leave byte-identical index
    // parts and restore bytes — workers stripe the drain *bytes* and the
    // serial canonical-order commit pins container IDs, so only virtual
    // time may move.
    let base = run_scenario(&Scenario::tiny("sm-sw", 0, 1));
    for parts in [1usize, 4] {
        for workers in store_workers_matrix() {
            if parts == 1 && workers == 1 {
                continue; // the base point itself
            }
            let out = run_scenario(
                &Scenario::tiny("sm-sw", 0, parts).with_cfg(|c| c.with_store_workers(workers)),
            );
            assert_equivalent(
                &base,
                &out,
                &format!("store_workers={workers} x sweep_parts={parts}"),
            );
        }
    }
}

#[test]
fn store_workers_byte_identical_multi_server() {
    let base = run_scenario(&Scenario::tiny("sm-sw2", 2, 1));
    for workers in store_workers_matrix().into_iter().filter(|&w| w != 1) {
        let out = run_scenario(
            &Scenario::tiny("sm-sw2", 2, 4).with_cfg(|c| c.with_store_workers(workers)),
        );
        assert_equivalent(&base, &out, &format!("w=2 store_workers={workers}"));
    }
}

#[test]
fn replication_factors_byte_identical() {
    // Replication is pure redundancy: writing every container to R
    // distinct repository nodes must not change a single dedup decision,
    // container ID, index byte or restored byte — only physical bytes on
    // the node disks (and virtual time) may move. Crossed with sweep
    // striping to pin the interaction.
    let base = run_scenario(&Scenario::tiny("sm-r", 0, 1));
    for r in replication_matrix().into_iter().filter(|&r| r != 1) {
        for parts in [1usize, 4] {
            let replicated =
                run_scenario(&Scenario::tiny("sm-r", 0, parts).with_cfg(|c| c.with_replication(r)));
            assert_equivalent(
                &base,
                &replicated,
                &format!("replication={r} x sweep_parts={parts}"),
            );
        }
    }
}

#[test]
fn replication_byte_identical_multi_server() {
    let base = run_scenario(&Scenario::tiny("sm-r2", 2, 2));
    for r in replication_matrix().into_iter().filter(|&r| r != 1) {
        let replicated =
            run_scenario(&Scenario::tiny("sm-r2", 2, 2).with_cfg(|c| c.with_replication(r)));
        assert_equivalent(&base, &replicated, &format!("w=2 replication={r}"));
    }
}

#[test]
fn server_counts_agree_on_dedup_decisions() {
    // The same workload on 1, 2 and 4 servers (each striped) stores the
    // same chunks and restores the same bytes; only the index *layout*
    // (and the clocks) differ.
    let one = run_scenario(&Scenario::tiny("sm-x", 0, 2));
    for w in [1u32, 2] {
        let more = run_scenario(&Scenario::tiny("sm-x", w, 2));
        assert_same_dedup(&one, &more, &format!("w={w} vs w=0"));
        assert_eq!(more.index_digests.len(), 1 << w);
    }
}

#[test]
fn striped_sweep_virtual_time_scales_inversely() {
    // §5.2's multi-part claim at system level: P part-disks divide the
    // PSIL wall ≈ 1/P (probe CPU is striped alongside, so the scaling is
    // near-exact until clamping).
    let walls: Vec<f64> = [1usize, 2, 4]
        .iter()
        .map(|&p| run_scenario(&Scenario::tiny("sm-t", 0, p)).sil_wall)
        .collect();
    for (i, &parts) in [2f64, 4.0].iter().enumerate() {
        let ratio = walls[0] / walls[i + 1];
        assert!(
            (ratio - parts).abs() / parts < 0.05,
            "PSIL wall ratio at {parts} parts: {ratio}"
        );
    }
}

#[test]
fn synchronous_and_async_siu_agree_under_striping() {
    // siu_interval ∈ {1, 3} changes *when* registrations land — which may
    // legitimately reorder insertions within overflowing buckets — but
    // never the dedup decisions or restore results. And within one
    // interval, sweep striping must stay byte-identical.
    let sync1 = run_scenario(&Scenario::tiny("sm-siu", 0, 1).with_cfg(|c| DebarConfig {
        siu_interval: 1,
        ..c
    }));
    let lazy1 = run_scenario(&Scenario::tiny("sm-siu", 0, 1).with_cfg(|c| DebarConfig {
        siu_interval: 3,
        ..c
    }));
    assert_same_dedup(&sync1, &lazy1, "siu_interval 1 vs 3");
    for parts in sweep_parts_matrix().into_iter().filter(|&p| p != 1) {
        let lazy = run_scenario(
            &Scenario::tiny("sm-siu", 0, parts).with_cfg(|c| DebarConfig {
                siu_interval: 3,
                ..c
            }),
        );
        assert_equivalent(&lazy1, &lazy, &format!("async-siu parts={parts}"));
    }
}

#[test]
fn layout_matrix_restores_byte_identical_across_layouts() {
    // The container-layout axis: `Capped` re-materializes scattered
    // duplicates into fresh containers, which legitimately moves stored
    // bytes, container IDs and index cid columns — but the restored byte
    // streams must match `Scatter` exactly, and within one layout the
    // outcome must stay byte-identical across sweep striping (the rewrite
    // pass is deterministic). Crossed with replication for the capped
    // mode, since rewrites store through the same replicated path.
    let base = run_scenario(&Scenario::tiny("sm-l", 0, 1));
    for layout in layout_matrix() {
        let one = run_scenario(&Scenario::tiny("sm-l", 0, 1).with_cfg(|c| c.with_layout(layout)));
        assert_same_restore(&base, &one, &format!("{layout:?} vs scatter"));
        let striped =
            run_scenario(&Scenario::tiny("sm-l", 0, 4).with_cfg(|c| c.with_layout(layout)));
        assert_equivalent(&one, &striped, &format!("{layout:?} parts=4"));
        for r in replication_matrix().into_iter().filter(|&r| r != 1) {
            let replicated = run_scenario(
                &Scenario::tiny("sm-l", 0, 1)
                    .with_cfg(|c| c.with_layout(layout).with_replication(r)),
            );
            assert_equivalent(&one, &replicated, &format!("{layout:?} replication={r}"));
        }
    }
}

#[test]
fn lpc_evictions_accounted_and_monotone_across_generations() {
    // LPC eviction accounting across a long churn history. Each
    // generation rewrites one of `K` file slices with fresh bytes, so
    // generation `g`'s restore reads chunks scattered over
    // `min(g+1, K)` source generations' containers. While those
    // containers fit the LPC whole (tiny_test gives it `lpc_containers`
    // containers' worth of bytes), restores evict nothing. The first
    // restore that touches one container more finds the cache full of
    // whole containers — each weighing a full slot for the 64 KiB slice
    // it holds — and must evict.
    //
    // Until the cache was counted in bytes that was the start of a
    // thrashing regime this test pinned as monotone: every later restore
    // cycled more containers than there were slots and evicted on every
    // one. A walk that has found its cache full reads extents, an extent
    // set weighs what it holds, and the whole working set — twelve
    // 64 KiB slices — is a tenth of the budget: past the boundary a
    // restore evicts only when the whole containers that each new walk
    // reads before it knows better have filled the budget again, far
    // less than once per restore. The accounting laws are unchanged.
    const K: usize = 12; // file slices = churn period
    const GENS: usize = 24; // two full churn periods
    const FILE_BYTES: usize = 64 << 10;
    let cfg = DebarConfig::tiny_test(0);
    let cap = cfg.lpc_containers as u64;
    assert!(cap < K as u64, "churn period must exceed the LPC capacity");
    let mut cluster = debar::DebarCluster::new(cfg);
    let job = cluster.define_job("lpc-churn", ClientId(0));

    // Deterministic fresh bytes per (generation, slice) — a tiny xorshift
    // keeps the content unique so rewritten slices never deduplicate.
    let fill = |seed: u64| -> Vec<u8> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..FILE_BYTES)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 24) as u8
            })
            .collect()
    };
    let mut slices: Vec<Vec<u8>> = (0..K).map(|i| fill(i as u64)).collect();
    let (mut evictions, mut over) = (Vec::with_capacity(GENS), Vec::with_capacity(GENS));
    for g in 0..GENS {
        if g > 0 {
            slices[g % K] = fill((1000 + g) as u64);
        }
        let tree: Vec<FileSpec> = slices
            .iter()
            .enumerate()
            .map(|(i, data)| FileSpec {
                path: format!("f{i:02}"),
                data: data.clone().into(),
            })
            .collect();
        cluster
            .backup(job, &Dataset::from_file_specs(&tree))
            .expect("backup");
        cluster.run_dedup2().expect("dedup2");
        let rep = cluster
            .restore_run(RunId {
                job,
                version: g as u32,
            })
            .expect("restore");
        assert_eq!(rep.failures, 0, "gen {g}");
        assert_eq!(
            rep.lpc.hits + rep.lpc.misses,
            rep.chunks,
            "gen {g}: every chunk adjudicated by the cache exactly once"
        );
        assert!(
            rep.lpc.evictions <= rep.lpc.misses,
            "gen {g}: {:?}",
            rep.lpc
        );
        if g >= K {
            assert!(
                rep.layout.containers_touched > cap,
                "gen {g}: churn must scatter past the LPC capacity \
                 ({} containers touched, cap {cap})",
                rep.layout.containers_touched
            );
        }
        over.push(rep.layout.containers_touched > cap);
        evictions.push(rep.lpc.evictions);
    }
    // Fitting regime: whole containers, a slot each, and room for all.
    let boundary = over.iter().position(|&o| o).expect("the churn outgrows");
    assert_eq!(boundary as u64, cap, "one new container a generation");
    assert!(
        evictions[..boundary].iter().all(|&e| e == 0),
        "while the containers fit nothing is evicted: {evictions:?}"
    );
    // The boundary: a cache full of whole containers gives some up.
    assert!(
        evictions[boundary] > 0,
        "the first restore past the slots must evict: {evictions:?}"
    );
    // Past it the extent sets fit: no thrash.
    let late = &evictions[K..];
    assert!(
        late.iter().sum::<u64>() < late.len() as u64 / 2,
        "a working set a tenth of the budget must not thrash: {evictions:?}"
    );
}

#[test]
fn heavier_matrix_point_restores_clean() {
    // A larger configuration (5 clients × 4 versions) as a tail check
    // that the harness scales past the default shape.
    for parts in sweep_parts_matrix() {
        let out = run_scenario(
            &Scenario::tiny("sm-big", 1, parts)
                .with_clients(5)
                .with_versions(4),
        );
        assert_eq!(out.restore_failures, 0, "parts={parts}");
        assert_eq!(out.verify_failures, 0, "parts={parts}");
        assert_eq!(out.restored_bytes, out.logical_bytes, "parts={parts}");
    }
}
