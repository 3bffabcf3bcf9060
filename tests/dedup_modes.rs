//! The dedup-mode scenario family (ROADMAP: inline/out-of-line dedup
//! axis): `DebarConfig::dedup_mode` selects *when* filter-missed
//! fingerprints are resolved against the disk index — out-of-line (the
//! paper's TPDS default), inline (the DDFS-style baseline) or hybrid
//! (bounded inline probes, cold remainder out-of-line).
//!
//! Four properties are pinned:
//!
//! 1. **Mode invariance** — the same workload under every mode produces
//!    byte-identical index parts and restore bytes on a single server
//!    (crossed with the sweep-partition matrix and replication), and
//!    identical dedup decisions / restore bytes on multi-server shapes
//!    (where inline's chronological storer choice may legally relocate
//!    a chunk, so raw part bytes are not compared).
//! 2. **Backlog accounting** — `Inline` leaves dedup-2 *nothing*
//!    (`backlog_bytes == 0`, `undetermined_added == 0`,
//!    `submitted_fps == 0`, every stored chunk pre-staged as
//!    `predetermined_fps`); `OutOfLine` reports zero inline activity
//!    and a backlog equal to its transferred bytes; `Hybrid` lands
//!    strictly between on backlog while its backup-path index reads
//!    honor the per-run window.
//! 3. **Crash consistency** — a chunk-log fault mid-backup under
//!    inline/hybrid rolls the staged decisions back, and the retried
//!    scenario converges byte-identically with a never-faulted one.
//! 4. **Lifecycle compatibility** — the full deletion lifecycle
//!    (expiry, NotQuiesced refusal, reclaim exactness, idempotent
//!    re-collection) holds verbatim under every mode.

mod common;

use common::{
    assert_equivalent, assert_same_dedup, mode_matrix, run_scenario, sweep_parts_matrix, Failure,
    Scenario,
};
use debar::workload::ChunkRecord;
use debar::{ClientId, Dataset, DebarCluster, DebarConfig, DebarError, DedupMode, JobId, RunId};

#[test]
fn modes_converge_byte_identically_across_sweep_parts() {
    // Single server: every mode × every sweep stripe must land on the
    // byte-identical index part and restore bytes — moving the index
    // probes to backup time must not move a single stored chunk.
    let mut outs = Vec::new();
    for parts in sweep_parts_matrix() {
        for mode in mode_matrix() {
            let out =
                run_scenario(&Scenario::tiny("dm", 0, parts).with_cfg(|c| c.with_dedup_mode(mode)));
            assert_eq!(out.restore_failures, 0, "{mode:?} parts={parts}");
            assert_eq!(out.verify_failures, 0, "{mode:?} parts={parts}");
            if let Some((m0, p0, base)) = outs.first() {
                assert_equivalent(
                    base,
                    &out,
                    &format!("dm: {mode:?}/parts={parts} vs {m0:?}/parts={p0} diverged"),
                );
            }
            outs.push((mode, parts, out));
        }
    }
}

#[test]
fn modes_converge_across_replication() {
    // Replication crossed in: per-replica physical bytes stay identical
    // across modes (assert_equivalent normalizes by R).
    let mut outs = Vec::new();
    for r in [1usize, 2] {
        for mode in mode_matrix() {
            let out = run_scenario(
                &Scenario::tiny("dm-rep", 0, 2)
                    .with_cfg(|c| c.with_dedup_mode(mode).with_replication(r)),
            );
            if let Some((m0, r0, base)) = outs.first() {
                assert_equivalent(
                    base,
                    &out,
                    &format!("dm-rep: {mode:?}/r={r} vs {m0:?}/r={r0} diverged"),
                );
            }
            outs.push((mode, r, out));
        }
    }
}

#[test]
fn multi_server_modes_agree_on_dedup_and_restore() {
    // Across servers the inline path stages the *chronologically first*
    // backup server as storer while the PSIL sweep elects the lowest
    // origin, so a cross-server duplicate may legally live in a
    // different server's container — raw part bytes can differ, but the
    // dedup decisions (entry/chunk/byte counts) and every restored byte
    // must not.
    let mut outs = Vec::new();
    for mode in mode_matrix() {
        let out =
            run_scenario(&Scenario::tiny("dm-w1", 1, 2).with_cfg(|c| c.with_dedup_mode(mode)));
        assert_eq!(out.restore_failures, 0, "{mode:?}");
        assert_eq!(out.verify_failures, 0, "{mode:?}");
        if let Some((m0, base)) = outs.first() {
            assert_same_dedup(base, &out, &format!("dm-w1: {mode:?} vs {m0:?} diverged"));
        }
        outs.push((mode, out));
    }
}

/// Two jobs backing up the *identical* stream per version: job 1 is a
/// pure cross-job duplicate of job 0 (the filter can't help — job
/// chains don't cross), and each version refreshes everything but every
/// `share`-th chunk, so adjacent-version duplicates stay filter-caught
/// while cross-job ones exercise the inline pending-set/index path.
fn shared_stream(version: u64, n: u64, share: u64) -> Vec<ChunkRecord> {
    (0..n)
        .map(|i| {
            if i % share == 0 {
                ChunkRecord::of_counter(i)
            } else {
                ChunkRecord::of_counter(1_000_000 * (version + 1) + i)
            }
        })
        .collect()
}

const N: u64 = 200;
const SHARE: u64 = 4;
const VERSIONS: u64 = 3;

/// Drive the two-job shared-stream workload under one mode, returning
/// the cluster, its jobs, and the summed dedup-1/dedup-2 accounting:
/// `(backlog_bytes, inline_hits, inline_index_reads, submitted_fps,
/// predetermined_fps)`.
fn drive(mode: DedupMode) -> (DebarCluster, Vec<JobId>, [u64; 5]) {
    let mut c = DebarCluster::new(DebarConfig::tiny_test(0).with_dedup_mode(mode));
    let jobs: Vec<JobId> = (0..2)
        .map(|i| c.define_job(format!("dm-{i}"), ClientId(i)))
        .collect();
    let mut acc = [0u64; 5];
    for v in 0..VERSIONS {
        let ds = Dataset::from_records("s", shared_stream(v, N, SHARE));
        for &job in &jobs {
            let d1 = c.backup(job, &ds).expect("backup");
            acc[0] += d1.backlog_bytes;
            acc[1] += d1.inline_hits;
            acc[2] += d1.inline_index_reads;
            // Internal consistency regardless of mode: the backlog is
            // part of (never more than) the transferred bytes.
            assert!(
                d1.backlog_bytes <= d1.transferred_bytes,
                "{mode:?} v{v}: backlog {} exceeds transferred {}",
                d1.backlog_bytes,
                d1.transferred_bytes
            );
        }
        let d2 = c.run_dedup2().expect("dedup2");
        acc[3] += d2.submitted_fps;
        acc[4] += d2.predetermined_fps;
    }
    c.force_siu().expect("siu");
    (c, jobs, acc)
}

#[test]
fn inline_leaves_no_backlog_and_out_of_line_reports_no_inline_activity() {
    let (mut oo, oo_jobs, [oo_backlog, oo_hits, oo_reads, oo_submitted, oo_pre]) =
        drive(DedupMode::OutOfLine);
    let (mut inl, inl_jobs, [in_backlog, in_hits, in_reads, in_submitted, in_pre]) =
        drive(DedupMode::Inline);

    // OutOfLine: pure two-phase — no inline activity, everything
    // transferred awaits the sweep.
    assert_eq!((oo_hits, oo_reads, oo_pre), (0, 0, 0), "OutOfLine");
    assert!(oo_backlog > 0, "OutOfLine must defer its misses");
    assert!(oo_submitted > 0, "OutOfLine must submit undetermined fps");

    // Inline: no backlog, nothing submitted to PSIL, every stored chunk
    // pre-staged; the cross-job duplicates were caught at backup time.
    assert_eq!(in_backlog, 0, "Inline must leave dedup-2 no backlog");
    assert_eq!(in_submitted, 0, "Inline must submit nothing to PSIL");
    assert!(in_pre > 0, "Inline must pre-stage its new chunks");
    assert!(in_hits > 0, "cross-job duplicates must resolve inline");
    assert!(in_reads > 0, "inline resolution must probe the index");

    // Both clusters restore every version of every job identically.
    for v in 0..VERSIONS {
        for j in 0..2 {
            let run = |job| RunId {
                job,
                version: v as u32,
            };
            let a = oo.restore_run(run(oo_jobs[j])).expect("oo restore");
            let b = inl.restore_run(run(inl_jobs[j])).expect("inline restore");
            assert_eq!((a.failures, b.failures), (0, 0), "v{v} job{j}");
            assert_eq!(
                (a.bytes, a.chunks),
                (b.bytes, b.chunks),
                "v{v} job{j}: modes must stream identical restores"
            );
        }
    }
}

#[test]
fn hybrid_shrinks_backlog_within_its_probe_window() {
    const WINDOW: u32 = 4;
    let (_, _, [oo_backlog, ..]) = drive(DedupMode::OutOfLine);
    let (_, _, [in_backlog, _, in_reads, ..]) = drive(DedupMode::Inline);
    let (_, _, [hy_backlog, hy_hits, hy_reads, hy_submitted, hy_pre]) =
        drive(DedupMode::Hybrid { window: WINDOW });

    // Strictly between: some misses resolved inline, the cold remainder
    // deferred.
    assert!(
        hy_backlog < oo_backlog,
        "hybrid backlog {hy_backlog} must shrink below out-of-line {oo_backlog}"
    );
    assert!(
        hy_backlog > in_backlog,
        "a {WINDOW}-probe window must leave a cold remainder (got {hy_backlog})"
    );
    assert!(hy_submitted > 0, "the cold remainder must reach PSIL");
    assert!(hy_pre > 0, "the hot hits must pre-stage decisions");
    assert!(hy_hits > 0, "the hot tier must resolve something");

    // The window is honored per run, and the total stays strictly below
    // inline's unbounded probing.
    let runs = 2 * VERSIONS;
    assert!(
        hy_reads <= WINDOW as u64 * runs,
        "hybrid spent {hy_reads} probes over {runs} runs (window {WINDOW})"
    );
    assert!(
        hy_reads < in_reads,
        "hybrid probes {hy_reads} must stay below inline's {in_reads}"
    );
}

#[test]
fn inline_chunk_log_fault_rolls_back_and_converges() {
    // A log fault mid-backup aborts dedup-1 typed; under inline/hybrid
    // the already-staged storage decisions must roll back with it, and
    // the retried scenario must converge byte-identically with a
    // never-faulted twin (run_scenario injects the fault and asserts
    // the typed abort; the equivalence check pins the rollback).
    for mode in [DedupMode::Inline, DedupMode::Hybrid { window: 4 }] {
        let clean =
            run_scenario(&Scenario::tiny("dm-fault", 0, 2).with_cfg(|c| c.with_dedup_mode(mode)));
        let faulted = run_scenario(
            &Scenario::tiny("dm-fault", 0, 2)
                .with_cfg(|c| c.with_dedup_mode(mode))
                .with_failure(Failure::ChunkLogFault),
        );
        assert_equivalent(
            &clean,
            &faulted,
            &format!("dm-fault: {mode:?} retried run diverged from clean"),
        );
    }
}

#[test]
fn gc_lifecycle_holds_under_every_mode() {
    // Expiry, NotQuiesced refusal while staged, reclaim exactness and
    // idempotent re-collection are all exercised inside run_scenario
    // when retention > 0 — and the whole outcome must be identical
    // across modes.
    let mut outs = Vec::new();
    for mode in mode_matrix() {
        let out = run_scenario(
            &Scenario::tiny("dm-gc", 0, 2).with_cfg(|c| c.with_dedup_mode(mode).with_retention(1)),
        );
        assert!(out.gc_reclaimed > 0, "{mode:?}: nothing reclaimed");
        if let Some((m0, base)) = outs.first() {
            assert_equivalent(base, &out, &format!("dm-gc: {mode:?} vs {m0:?} diverged"));
        }
        outs.push((mode, out));
    }
}

#[test]
fn hybrid_zero_window_is_a_typed_geometry_error() {
    let err = DebarConfig::tiny_test(0)
        .with_dedup_mode(DedupMode::Hybrid { window: 0 })
        .try_validate()
        .expect_err("a zero probe window must not validate");
    assert!(
        matches!(&err, DebarError::IndexGeometry { reason } if reason.contains("probe window")),
        "expected IndexGeometry naming the probe window, got {err}"
    );
}
