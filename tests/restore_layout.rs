//! The restore-layout scenario family (ROADMAP: restore-optimized
//! layout): fragmentation telemetry and rewrite-on-backup container
//! capping, end to end.
//!
//! Three properties are pinned:
//!
//! 1. **Byte-identical restores across layouts** — the same churn
//!    history under `Scatter` and `Capped` restores the same bytes and
//!    chunks at every generation; capping moves only *where* chunks
//!    live, never what a restore streams back.
//! 2. **Bounded fragmentation** — under `Scatter` the latest
//!    generation's containers-per-MiB grows with the generation count
//!    while its mean run length collapses toward 1; under `Capped` both
//!    stay bounded, and the latest-generation restore touches fewer
//!    containers than its scattered twin.
//!    And a restore **reads its recipe**: a recipe that cycles over one
//!    container more than the cache holds — the layout LRU cannot serve
//!    at all — costs about one fetch per cache-full of visits.
//! 3. **GC-visible rewrites** — the harness lifecycle (expiry, NotQuiesced
//!    refusal, reclaim exactness `net = replication × dead bytes`,
//!    idempotent re-collection) holds verbatim under `Capped`, across
//!    the sweep-partition matrix, with superseded scattered copies
//!    reclaimed rather than leaked.

mod common;

use common::{assert_equivalent, run_scenario, sweep_parts_matrix, within_lanes, Scenario};
use debar::hash::{ContainerId, Fingerprint};
use debar::store::LpcCache;
use debar::workload::drift::{churn, records};
use debar::{ClientId, Dataset, DebarCluster, DebarConfig, JobId, LayoutMode, RunId};

const N: u64 = 600;
const K: u64 = 12;
const GENS: u64 = 10;

fn drive(layout: LayoutMode) -> (DebarCluster, JobId) {
    let mut c = DebarCluster::new(DebarConfig::tiny_test(0).with_layout(layout));
    let job = c.define_job("churn", ClientId(0));
    for g in 0..GENS {
        c.backup(job, &Dataset::from_records("s", churn(g, N, K)))
            .expect("backup");
        c.run_dedup2().expect("dedup2");
    }
    c.force_siu().expect("siu");
    (c, job)
}

#[test]
fn capped_restores_byte_identical_and_defragmented() {
    let (mut scatter, sj) = drive(LayoutMode::Scatter);
    let (mut capped, cj) = drive(LayoutMode::Capped {
        max_refs_per_mib: 1,
    });
    for g in 0..GENS {
        let s = scatter
            .restore_run(RunId {
                job: sj,
                version: g as u32,
            })
            .expect("scatter restore");
        let c = capped
            .restore_run(RunId {
                job: cj,
                version: g as u32,
            })
            .expect("capped restore");
        assert_eq!(s.failures, 0, "gen {g}");
        assert_eq!(c.failures, 0, "gen {g}");
        assert_eq!(
            (s.bytes, s.chunks),
            (c.bytes, c.chunks),
            "gen {g}: capping must not change what a restore streams back"
        );
        // The telemetry is self-consistent on both layouts.
        for (label, r) in [("scatter", &s), ("capped", &c)] {
            assert_eq!(r.layout.chunks, r.chunks, "gen {g} {label}");
            assert_eq!(r.layout.bytes, r.bytes, "gen {g} {label}");
            assert!(r.layout.containers_touched > 0, "gen {g} {label}");
        }
    }
    // Latest generation: capping must have bought locality.
    let s = scatter
        .restore_run(RunId {
            job: sj,
            version: (GENS - 1) as u32,
        })
        .expect("scatter restore");
    let c = capped
        .restore_run(RunId {
            job: cj,
            version: (GENS - 1) as u32,
        })
        .expect("capped restore");
    assert!(
        c.layout.containers_touched < s.layout.containers_touched,
        "capped latest gen touches {} containers, scatter {}",
        c.layout.containers_touched,
        s.layout.containers_touched
    );
    assert!(
        c.layout.mean_run_length() > s.layout.mean_run_length(),
        "capped run length {} must beat scatter {}",
        c.layout.mean_run_length(),
        s.layout.mean_run_length()
    );
    // And the dedup-ratio cost is visible: capping stored strictly more.
    assert!(
        capped.repository().physical_data_bytes() > scatter.repository().physical_data_bytes(),
        "rewrites must cost physical bytes"
    );
}

#[test]
fn scatter_fragmentation_grows_with_generations_capped_stays_bounded() {
    let (mut scatter, sj) = drive(LayoutMode::Scatter);
    let (mut capped, cj) = drive(LayoutMode::Capped {
        max_refs_per_mib: 1,
    });
    let probe = |c: &mut DebarCluster, job: JobId, g: u64| {
        c.restore_run(RunId {
            job,
            version: g as u32,
        })
        .expect("restore")
        .layout
    };
    let s0 = probe(&mut scatter, sj, 0);
    let s9 = probe(&mut scatter, sj, GENS - 1);
    assert!(
        s9.containers_per_mib() > 1.5 * s0.containers_per_mib(),
        "scatter read amplification must grow with generations: \
         gen0 {:.2}/MiB vs gen{} {:.2}/MiB",
        s0.containers_per_mib(),
        GENS - 1,
        s9.containers_per_mib()
    );
    assert!(
        s9.mean_run_length() < s0.mean_run_length(),
        "scatter locality must decay: {} vs {}",
        s9.mean_run_length(),
        s0.mean_run_length()
    );
    let c0 = probe(&mut capped, cj, 0);
    let c9 = probe(&mut capped, cj, GENS - 1);
    assert!(
        c9.containers_per_mib() <= 1.5 * c0.containers_per_mib().max(1.0),
        "capped read amplification must stay bounded: \
         gen0 {:.2}/MiB vs gen{} {:.2}/MiB",
        c0.containers_per_mib(),
        GENS - 1,
        c9.containers_per_mib()
    );
    assert!(
        c9.containers_per_mib() < s9.containers_per_mib(),
        "at the latest generation capped ({:.2}/MiB) must beat scatter ({:.2}/MiB)",
        c9.containers_per_mib(),
        s9.containers_per_mib()
    );
}

#[test]
fn cap_report_surfaces_rewrite_traffic() {
    let (mut c, job) = {
        let mut c = DebarCluster::new(DebarConfig::tiny_test(0).with_layout(LayoutMode::Capped {
            max_refs_per_mib: 1,
        }));
        let job = c.define_job("churn", ClientId(0));
        (c, job)
    };
    let mut rewritten_runs = 0u64;
    let mut rewritten_bytes = 0u64;
    for g in 0..GENS {
        c.backup(job, &Dataset::from_records("s", churn(g, N, K)))
            .expect("backup");
        let d2 = c.run_dedup2().expect("dedup2");
        assert_eq!(d2.cap.runs_examined, 1, "gen {g}: one run per round");
        rewritten_runs += d2.cap.runs_rewritten;
        rewritten_bytes += d2.cap.bytes_rewritten;
        if d2.cap.runs_rewritten > 0 {
            assert!(
                d2.cap.containers_superseded > 0 && d2.cap.chunks_rewritten > 0,
                "gen {g}: a rewrite must supersede old containers"
            );
        }
    }
    assert!(
        rewritten_runs > 0 && rewritten_bytes > 0,
        "the churn history must trip the cap at least once"
    );
    // Scatter never rewrites: its cap report is identically zero.
    let mut s = DebarCluster::new(DebarConfig::tiny_test(0));
    let sj = s.define_job("churn", ClientId(0));
    for g in 0..3 {
        s.backup(sj, &Dataset::from_records("s", churn(g, N, K)))
            .expect("backup");
        let d2 = s.run_dedup2().expect("dedup2");
        assert_eq!(
            (
                d2.cap.runs_examined,
                d2.cap.runs_rewritten,
                d2.cap.bytes_rewritten
            ),
            (0, 0, 0),
            "gen {g}: Scatter must never engage the cap pass"
        );
    }
}

#[test]
fn capped_lifecycle_holds_across_sweep_parts_with_gc() {
    // The full harness lifecycle under Capped with retention: expiry,
    // NotQuiesced refusal while staged, reclaim exactness (the superseded
    // scattered copies are part of the dead bytes and reclaim exactly),
    // idempotent re-collection, byte-identical retained restores — and
    // the whole outcome is identical across sweep striping.
    let layout = LayoutMode::Capped {
        max_refs_per_mib: 2,
    };
    let mut outs = Vec::new();
    for parts in sweep_parts_matrix() {
        let out = run_scenario(
            &Scenario::tiny("rl-gc", 0, parts)
                .with_cfg(|c| c.with_layout(layout).with_retention(1)),
        );
        assert_eq!(out.restore_failures, 0, "parts={parts}");
        assert_eq!(out.verify_failures, 0, "parts={parts}");
        assert!(out.gc_reclaimed > 0, "parts={parts}: nothing reclaimed");
        if let Some((p0, base)) = outs.first() {
            assert_equivalent(
                base,
                &out,
                &format!("rl-gc: parts={parts} vs parts={p0} diverged"),
            );
        }
        outs.push((parts, out));
    }
}

#[test]
fn capped_multi_server_restores_clean() {
    // The rewrite pass repoints fingerprints across *owning servers*
    // (chunks of one run route by fingerprint bits): a 2-server capped
    // history must stay clean end to end, with replication crossed in.
    for r in [1usize, 2] {
        let out = run_scenario(&Scenario::tiny("rl-w1", 1, 2).with_cfg(|c| {
            c.with_layout(LayoutMode::Capped {
                max_refs_per_mib: 2,
            })
            .with_replication(r)
        }));
        assert_eq!(out.restore_failures, 0, "r={r}");
        assert_eq!(out.verify_failures, 0, "r={r}");
        assert_eq!(out.restored_bytes, out.logical_bytes, "r={r}");
    }
}

#[test]
fn a_recipe_that_cycles_past_the_cache_is_served_from_it() {
    // One file of LAPS laps over the same chunks, which fill one
    // container more than the restore cache holds. Every visit finds the
    // container LRU threw out a moment ago: it misses on all of them.
    const LAPS: u64 = 6;
    let lap = records(0..1100);
    let looped: Vec<_> = (0..LAPS).flat_map(|_| lap.clone()).collect();
    let backed_up = |lpc_containers| {
        let mut cfg = DebarConfig::tiny_test(0);
        cfg.lpc_containers = lpc_containers;
        let mut c = DebarCluster::new(cfg);
        let job = c.define_job("laps", ClientId(0));
        let data = Dataset::from_records("f", looped.clone());
        c.backup(job, &data).expect("backup");
        c.run_dedup2().expect("dedup2");
        (c, RunId { job, version: 0 }, data.logical_bytes())
    };
    let (mut wide, run, _) = backed_up(64);
    let containers = wide
        .restore_run(run)
        .expect("restore")
        .layout
        .containers_touched;
    let slots = containers - 1;
    let visits = LAPS * containers;

    let mut lru = LpcCache::new(slots as usize);
    for visit in 0..visits {
        let (c, f) = (
            visit % containers,
            Fingerprint::of_counter(visit % containers),
        );
        if lru.lookup(&f).is_none() {
            lru.insert_container(ContainerId::new(c), vec![f]);
        }
    }
    assert_eq!(lru.stats().misses, visits, "LRU misses every visit");

    // The walk that reads its recipe gives up the container the lap
    // returns to last — when it has the choice, which is among the
    // entries already streamed out. The audit sends nothing, so an entry
    // is free the moment its read is in: after the first lap it fetches
    // about once per `slots` visits, from the same memory (once more per
    // lap is left for the reads still in flight when a fetch is due).
    //
    // Until the depth gate went the restore met the same bound, because
    // it ran one container per node ahead of its client and found nearly
    // every resident streamed out. It now runs ahead by the whole cache:
    // when a fetch is due the entries already streamed out are the oldest
    // — on a cycle, the ones the lap returns to soonest — and giving one
    // up beats stalling the read-ahead on a busy one (`restore.rs` module
    // docs, the victim rule's first clause). So the restore fetches on
    // most visits (47 of these 54; LRU all 54; the gated walk 13) and
    // still finishes sooner, 0.248 s against 0.260 s for 0.240 s of
    // sends: what it is held to is that it beats LRU and keeps its NIC
    // busy.
    let (mut c, run, logical) = backed_up(slots as usize);
    let allowed = containers + visits / slots + LAPS;
    for to_client in [false, true] {
        let r = within_lanes(if to_client {
            c.restore_run(run)
        } else {
            c.verify_run(run)
        })
        .expect("walk");
        assert_eq!((r.bytes, r.failures), (logical, 0));
        assert_eq!(r.layout.fragments, visits);
        let misses = if to_client { visits - 1 } else { allowed };
        assert!(
            r.lpc.misses <= misses && r.lpc.evictions <= r.lpc.misses,
            "to_client {to_client}: {:?} for {visits} visits over {slots} slots",
            r.lpc
        );
        if to_client {
            assert!(r.elapsed < 1.05 * r.send_s, "{} s", r.elapsed);
        }
    }
}

#[test]
fn a_two_node_walk_that_evicts_is_gated_by_its_cache_alone() {
    // Two overlapping generations, 24 one-MiB containers on two nodes
    // against an 8 MiB cache: both walks evict. `PARENT` is each walk's
    // `elapsed` at the commit before the cache became the walk's one
    // buffer, probed there on this history — the cache counted as eight
    // entries whatever they weighed, and every fetch also held to one
    // container per node ahead of the client. With that gate gone a fetch
    // waits for the resolver and for what it evicts, so the node lanes
    // overlap the client stream for as long as the cache has room: each
    // walk finishes strictly sooner, inside the bounds of its lanes.
    const PARENT: [f64; 2] = [0.09870113242931372, 0.09329162278489073];
    let mut c = DebarCluster::new(DebarConfig::tiny_test(0));
    let job = c.define_job("j", ClientId(0));
    for range in [0..2000, 1000..3000] {
        c.backup(job, &Dataset::from_records("s", records(range)))
            .expect("backup");
        c.run_dedup2().expect("dedup2");
    }
    for (version, parent) in [(1, PARENT[0]), (0, PARENT[1])] {
        let r = within_lanes(c.restore_run(RunId { job, version })).expect("restore");
        assert!(r.lpc.evictions > 0 && r.failures == 0, "v{version}");
        assert!(
            r.elapsed < parent,
            "v{version}: {} s, the parent took {parent}",
            r.elapsed
        );
    }
}
