//! Failure-kind scenarios (ROADMAP: "failure kinds beyond index loss"):
//! container corruption, mid-dedup-2 crashes, partial SIU, single
//! part-disk faults, chunk-log faults, repository-node faults and
//! whole-node loss (with and without replicas), each driven through the
//! shared scenario harness across the `sweep_parts` × `replication`
//! matrices.
//!
//! Two properties are pinned:
//!
//! 1. **Typed detection** — every injected fault surfaces as the matching
//!    `DebarError` (no panics on any fault path), with corruption caught
//!    on restore, by the verify audit *and* on the §4.1 recovery rebuild.
//! 2. **Crash-consistent convergence** — a crash-interrupted dedup-2 or
//!    SIU, re-run after the fault clears, converges to **byte-identical
//!    index parts and restore bytes** versus a never-interrupted run of
//!    the same scenario, for every partition count in the matrix
//!    (`{1, 2, 4}` by default; CI widens it via `DEBAR_SWEEP_PARTS`).

mod common;

use common::{
    assert_equivalent, replication_matrix, run_scenario, store_workers_matrix, sweep_parts_matrix,
    Failure, Outcome, Scenario,
};

/// Run one failure-kind scenario across the partition matrix, asserting
/// cross-partition equivalence, and return the outcomes by parts.
fn matrix(name: &'static str, w_bits: u32, failure: Failure) -> Vec<(usize, Outcome)> {
    let mut outs: Vec<(usize, Outcome)> = Vec::new();
    for parts in sweep_parts_matrix() {
        let out = run_scenario(&Scenario::tiny(name, w_bits, parts).with_failure(failure));
        if let Some((p0, base)) = outs.first() {
            assert_equivalent(
                base,
                &out,
                &format!("{name}: parts={parts} vs parts={p0} diverged"),
            );
        }
        outs.push((parts, out));
    }
    outs
}

#[test]
fn container_corruption_detected_on_restore_and_recovery() {
    // The harness asserts the three detection sites internally (typed
    // restore error naming the damaged container, verify-audit failure
    // counts, typed recovery-rebuild error); here we additionally pin
    // that the post-repair state is byte-identical across partitions.
    matrix("corrupt", 0, Failure::CorruptContainer);
}

#[test]
fn container_corruption_detected_multi_server() {
    matrix("corrupt-w1", 1, Failure::CorruptContainer);
}

#[test]
fn interrupted_dedup2_converges_to_uninterrupted_run() {
    for (parts, faulted) in matrix("interrupt", 0, Failure::InterruptDedup2) {
        let clean = run_scenario(&Scenario::tiny("interrupt", 0, parts));
        assert_equivalent(
            &clean,
            &faulted,
            &format!("interrupt: resumed run (parts={parts}) vs uninterrupted"),
        );
    }
}

#[test]
fn interrupted_dedup2_converges_multi_server() {
    for (parts, faulted) in matrix("interrupt-w1", 1, Failure::InterruptDedup2) {
        let clean = run_scenario(&Scenario::tiny("interrupt-w1", 1, parts));
        assert_equivalent(
            &clean,
            &faulted,
            &format!("interrupt-w1: resumed run (parts={parts}) vs uninterrupted"),
        );
    }
}

/// The part-disk to fault for a `parts`-way stripe: the last part by
/// default, or `DEBAR_FAULT_PART` (clamped into the stripe) — the CI
/// `part-fault` leg selects different parts this way.
fn fault_part_for(parts: usize) -> usize {
    std::env::var("DEBAR_FAULT_PART")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .map_or(parts - 1, |p| p.min(parts - 1))
}

#[test]
fn single_part_disk_fault_names_part_and_converges() {
    // The physical multi-part model: a fault armed on exactly one
    // part-disk of a striped sweep surfaces as a typed error naming that
    // part (asserted inside the harness), and the interrupted round
    // converges on redo — byte-identical index parts and restore bytes
    // versus the never-interrupted scenario AND across partition counts.
    let mut outs: Vec<(usize, Outcome)> = Vec::new();
    for parts in sweep_parts_matrix() {
        let part = fault_part_for(parts);
        let faulted = run_scenario(
            &Scenario::tiny("part-fault", 0, parts).with_failure(Failure::PartDiskFault { part }),
        );
        let clean = run_scenario(&Scenario::tiny("part-fault", 0, parts));
        assert_equivalent(
            &clean,
            &faulted,
            &format!("part-fault: resumed run (parts={parts}, part={part}) vs uninterrupted"),
        );
        if let Some((p0, base)) = outs.first() {
            assert_equivalent(
                base,
                &faulted,
                &format!("part-fault: parts={parts} vs parts={p0} diverged"),
            );
        }
        outs.push((parts, faulted));
    }
}

#[test]
fn single_part_disk_fault_converges_multi_server() {
    for parts in sweep_parts_matrix() {
        let part = fault_part_for(parts);
        let faulted = run_scenario(
            &Scenario::tiny("part-fault-w1", 1, parts)
                .with_failure(Failure::PartDiskFault { part }),
        );
        let clean = run_scenario(&Scenario::tiny("part-fault-w1", 1, parts));
        assert_equivalent(
            &clean,
            &faulted,
            &format!("part-fault-w1: resumed run (parts={parts}, part={part}) vs uninterrupted"),
        );
    }
}

#[test]
fn chunk_log_fault_aborts_backup_and_retry_converges() {
    // Dedup-1's chunk log is fault-checked: the injected append fault
    // surfaces as DebarError::DeviceFault on a log volume (asserted inside
    // the harness), the retried backup succeeds, and the aborted run's
    // stray log records are discarded — outcomes byte-identical to a
    // clean run.
    for (parts, faulted) in matrix("log-fault", 0, Failure::ChunkLogFault) {
        let clean = run_scenario(&Scenario::tiny("log-fault", 0, parts));
        assert_equivalent(
            &clean,
            &faulted,
            &format!("log-fault: retried run (parts={parts}) vs clean"),
        );
    }
}

#[test]
fn chunk_log_fault_converges_multi_server() {
    // Multi-server placement is load-balanced by the director, so this
    // leg additionally pins that an aborted run leaks nothing into the
    // placement state: a faulted-then-retried history must route every
    // later job exactly like a clean one, or outcomes diverge.
    for (parts, faulted) in matrix("log-fault-w1", 1, Failure::ChunkLogFault) {
        let clean = run_scenario(&Scenario::tiny("log-fault-w1", 1, parts));
        assert_equivalent(
            &clean,
            &faulted,
            &format!("log-fault-w1: retried run (parts={parts}) vs clean"),
        );
    }
}

#[test]
fn chunk_log_drain_fault_mid_pipeline_converges() {
    // The pipelined chunk-storing phase: fail exactly one worker disk of
    // server 0's striped chunk-log drain in the final round. The harness
    // asserts the typed interruption and that the log stays byte-for-byte
    // intact; here we additionally pin that the redo converges
    // byte-identically to a never-interrupted run at every worker count.
    let mut worker_counts: Vec<usize> = store_workers_matrix()
        .into_iter()
        .map(|w| w.max(2)) // a 1-way stripe has no worker to lose
        .collect();
    worker_counts.sort_unstable();
    worker_counts.dedup();
    for workers in worker_counts {
        let faulted = run_scenario(
            &Scenario::tiny("drain-fault", 0, 2)
                .with_cfg(|c| c.with_store_workers(workers))
                .with_failure(Failure::ChunkLogDrainFault {
                    worker: workers - 1,
                }),
        );
        let clean = run_scenario(
            &Scenario::tiny("drain-fault", 0, 2).with_cfg(|c| c.with_store_workers(workers)),
        );
        assert_equivalent(
            &clean,
            &faulted,
            &format!("drain-fault: resumed run (workers={workers}) vs uninterrupted"),
        );
    }
}

#[test]
fn chunk_log_drain_fault_converges_multi_server() {
    // Multi-server: the faulted server's siblings already packed in
    // parallel; their rolled-back logs must replay identically too.
    let faulted = run_scenario(
        &Scenario::tiny("drain-fault-w1", 1, 2)
            .with_cfg(|c| c.with_store_workers(2))
            .with_failure(Failure::ChunkLogDrainFault { worker: 1 }),
    );
    let clean =
        run_scenario(&Scenario::tiny("drain-fault-w1", 1, 2).with_cfg(|c| c.with_store_workers(2)));
    assert_equivalent(&clean, &faulted, "drain-fault-w1: resumed vs uninterrupted");
}

/// The repository node to fault or take down in a `nodes`-node
/// deployment: the last node by default, or `DEBAR_FAULT_NODE` (clamped
/// into the cluster) — the CI `node-down` leg selects different nodes
/// this way.
fn fault_node_for(nodes: usize) -> usize {
    std::env::var("DEBAR_FAULT_NODE")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .map_or(nodes - 1, |n| n.min(nodes - 1))
}

/// Repository nodes in the tiny-geometry deployment (`tiny_test`).
const TINY_REPO_NODES: usize = 2;

#[test]
fn repo_node_down_survivable_and_repaired_with_replicas() {
    // The FASTEN-style trade-off made good: with every container on
    // `replication >= 2` distinct nodes, losing any single node leaves
    // every run verifiable and restorable byte-identically (the harness
    // asserts degraded-read accounting and post-repair full replication
    // internally); here we additionally pin equivalence to the healthy
    // scenario and across the partition matrix.
    let node = fault_node_for(TINY_REPO_NODES);
    for r in replication_matrix() {
        if r < 2 {
            continue; // the no-replica story is its own test below
        }
        let mut outs: Vec<(usize, Outcome)> = Vec::new();
        for parts in sweep_parts_matrix() {
            let degraded = run_scenario(
                &Scenario::tiny("node-down", 0, parts)
                    .with_cfg(|c| c.with_replication(r))
                    .with_failure(Failure::RepoNodeDown { node }),
            );
            let healthy = run_scenario(
                &Scenario::tiny("node-down", 0, parts).with_cfg(|c| c.with_replication(r)),
            );
            assert_equivalent(
                &healthy,
                &degraded,
                &format!("node-down: degraded run (parts={parts}, r={r}, node={node}) vs healthy"),
            );
            if let Some((p0, base)) = outs.first() {
                assert_equivalent(
                    base,
                    &degraded,
                    &format!("node-down: parts={parts} vs parts={p0} diverged (r={r})"),
                );
            }
            outs.push((parts, degraded));
        }
    }
}

#[test]
fn repo_node_down_survivable_multi_server() {
    let node = fault_node_for(TINY_REPO_NODES);
    let degraded = run_scenario(
        &Scenario::tiny("node-down-w1", 1, 2)
            .with_cfg(|c| c.with_replication(2))
            .with_failure(Failure::RepoNodeDown { node }),
    );
    let healthy =
        run_scenario(&Scenario::tiny("node-down-w1", 1, 2).with_cfg(|c| c.with_replication(2)));
    assert_equivalent(&healthy, &degraded, "node-down-w1: degraded vs healthy");
}

#[test]
fn repo_node_down_without_replicas_is_typed_unrecoverable() {
    // At replication = 1 the same node loss must surface a typed
    // `Unrecoverable` error naming the node — never a panic or silent
    // corruption (asserted inside the harness, which also pins the
    // repair refusal and the post-revive convergence).
    let node = fault_node_for(TINY_REPO_NODES);
    for parts in sweep_parts_matrix() {
        let revived = run_scenario(
            &Scenario::tiny("node-down-r1", 0, parts).with_failure(Failure::RepoNodeDown { node }),
        );
        let healthy = run_scenario(&Scenario::tiny("node-down-r1", 0, parts));
        assert_equivalent(
            &healthy,
            &revived,
            &format!("node-down-r1: revived run (parts={parts}, node={node}) vs healthy"),
        );
    }
}

#[test]
fn repo_node_fault_names_node_and_converges() {
    // A fault on one repository node's disk mid-chunk-storing surfaces as
    // `InterruptedDedup2(ChunkStoring)` caused by a `DeviceFault` naming
    // that node (asserted inside the harness), and the redo converges
    // byte-identically — at every replication factor in the matrix.
    let node = fault_node_for(TINY_REPO_NODES);
    for r in replication_matrix() {
        for parts in sweep_parts_matrix() {
            let faulted = run_scenario(
                &Scenario::tiny("node-fault", 0, parts)
                    .with_cfg(|c| c.with_replication(r))
                    .with_failure(Failure::RepoNodeFault { node }),
            );
            let clean = run_scenario(
                &Scenario::tiny("node-fault", 0, parts).with_cfg(|c| c.with_replication(r)),
            );
            assert_equivalent(
                &clean,
                &faulted,
                &format!("node-fault: resumed run (parts={parts}, r={r}) vs uninterrupted"),
            );
        }
    }
}

#[test]
fn repo_node_fault_converges_multi_server() {
    let node = fault_node_for(TINY_REPO_NODES);
    let faulted = run_scenario(
        &Scenario::tiny("node-fault-w1", 1, 2)
            .with_cfg(|c| c.with_replication(2))
            .with_failure(Failure::RepoNodeFault { node }),
    );
    let clean =
        run_scenario(&Scenario::tiny("node-fault-w1", 1, 2).with_cfg(|c| c.with_replication(2)));
    assert_equivalent(&clean, &faulted, "node-fault-w1: resumed vs uninterrupted");
}

#[test]
fn gc_sweep_fault_aborts_pre_mutation_and_converges() {
    // The GC index sweep is fault-checked *before* it moves a byte: the
    // armed volume-disk fault surfaces typed (asserted inside the
    // harness), the aborted attempt never grows the repository, and the
    // redone collection converges byte-identically with an
    // uninterrupted one — index parts, repository bytes and every
    // retained restore.
    for parts in sweep_parts_matrix() {
        let faulted = run_scenario(
            &Scenario::tiny("gc-fault", 0, parts)
                .with_cfg(|c| c.with_retention(1))
                .with_failure(Failure::GcFault),
        );
        let clean =
            run_scenario(&Scenario::tiny("gc-fault", 0, parts).with_cfg(|c| c.with_retention(1)));
        assert_equivalent(
            &clean,
            &faulted,
            &format!("gc-fault: redone collection (parts={parts}) vs uninterrupted"),
        );
    }
}

#[test]
fn gc_sweep_fault_converges_multi_server() {
    let faulted = run_scenario(
        &Scenario::tiny("gc-fault-w1", 1, 2)
            .with_cfg(|c| c.with_retention(1))
            .with_failure(Failure::GcFault),
    );
    let clean =
        run_scenario(&Scenario::tiny("gc-fault-w1", 1, 2).with_cfg(|c| c.with_retention(1)));
    assert_equivalent(&clean, &faulted, "gc-fault-w1: redone vs uninterrupted");
}

#[test]
fn gc_compaction_fault_loses_no_live_chunk_and_converges() {
    // Compaction is store-new-then-delete-old: the armed repository
    // fault aborts the collection typed with the victim intact, and the
    // redo skips what the interrupted attempt already reclaimed — the
    // converged state is byte-identical to a clean collection at every
    // replication factor.
    for r in replication_matrix() {
        for parts in sweep_parts_matrix() {
            let faulted = run_scenario(
                &Scenario::tiny("gc-compact-fault", 0, parts)
                    .with_cfg(|c| c.with_retention(1).with_replication(r))
                    .with_failure(Failure::CompactionFault),
            );
            let clean = run_scenario(
                &Scenario::tiny("gc-compact-fault", 0, parts)
                    .with_cfg(|c| c.with_retention(1).with_replication(r)),
            );
            assert_equivalent(
                &clean,
                &faulted,
                &format!("gc-compact-fault: redone collection (parts={parts}, r={r}) vs clean"),
            );
        }
    }
}

#[test]
fn partial_siu_converges_to_uninterrupted_run() {
    for (parts, faulted) in matrix("partial-siu", 0, Failure::PartialSiu) {
        let clean = run_scenario(&Scenario::tiny("partial-siu", 0, parts));
        assert_equivalent(
            &clean,
            &faulted,
            &format!("partial-siu: redone run (parts={parts}) vs uninterrupted"),
        );
    }
}

#[test]
fn partial_siu_converges_multi_server() {
    for (parts, faulted) in matrix("partial-siu-w1", 1, Failure::PartialSiu) {
        let clean = run_scenario(&Scenario::tiny("partial-siu-w1", 1, parts));
        assert_equivalent(
            &clean,
            &faulted,
            &format!("partial-siu-w1: redone run (parts={parts}) vs uninterrupted"),
        );
    }
}
