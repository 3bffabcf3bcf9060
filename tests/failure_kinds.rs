//! Failure kinds beyond index loss, each spliced into the shared
//! scenario's history across the `sweep_parts` × `replication` matrices —
//! container corruption, crashed dedup-2 rounds, partial SIU, part-disk,
//! chunk-log and repository-node faults, whole-node loss — and the
//! crash-point sweeps of dedup-2, the riding SIU, restore and scrub. Every
//! fault surfaces as its typed `DebarError` naming the device (corruption
//! on restore, in the verify audit *and* on the §4.1 recovery rebuild),
//! and the redo converges to byte-identical index parts and restore bytes
//! versus the history's fault-free twin. Part-disk faults hit two
//! part-disks of every stripe, node faults every repository node.

mod common;

use common::{
    assert_equivalent, at, backups, crash_sweep, fault, finish, named_device, node_down, play, run,
    run_history, run_scenario, twin, walk_loss, At, Call, Data, Outcome, Scenario, Trace, Value,
    REPLICATION, STORE_WORKERS, SWEEP_PARTS,
};
use debar::{
    ContainerId, Damage, DebarCluster, DebarConfig, DebarError, Dedup2Phase, Dedup2Report, Device,
    Discrepancy, FaultKind,
};
use DebarError::InterruptedDedup2;
use Dedup2Phase::{ChunkStoring, Sil};
use FaultKind::{Fail, TornWrite};

/// Play `sc`'s history to `point`, let `inject` play its calls, play the
/// rest, and hold the outcome to the fault-free twin of everything
/// played; exactly one error names a device, and `expect` accepts it.
fn probed(
    sc: &Scenario,
    point: At,
    expect: fn(&DebarError) -> bool,
    inject: impl FnOnce(&mut DebarCluster, &mut Trace),
) -> Outcome {
    let h = sc.history();
    let i = at(&h, point);
    let mut c = DebarCluster::new(sc.cfg);
    let mut t = play(&mut c, &h[..i]);
    inject(&mut c, &mut t);
    t.play(&mut c, &h[i..]);
    let out = finish(sc, &mut c, &t);
    assert_equivalent(&twin(sc, &t.calls()), &out, &format!("{}: {t:?}", sc.name));
    let faults = t.errors().into_iter().filter(|e| named_device(e).is_some());
    let faults: Vec<DebarError> = faults.collect();
    let expected = matches!(&faults[..], [e] if expect(e));
    assert!(expected, "{}: {faults:?}", sc.name);
    out
}

/// [`probed`], faulting the call at `point` with `kind` armed `k` ops
/// ahead on each of `devices`.
fn spliced(
    sc: &Scenario,
    point: At,
    (devices, k, kind): (&[Device], u64, FaultKind),
    expect: fn(&DebarError) -> bool,
) -> Outcome {
    let h = sc.history();
    let calls = fault(devices, k, kind, h[at(&h, point)].clone());
    probed(sc, point, expect, |c, t| {
        t.play(c, &calls);
    })
}

/// The server and phase of an interrupted dedup-2 round.
fn interrupted(e: &DebarError) -> Option<(u16, Dedup2Phase)> {
    match e {
        InterruptedDedup2 { server, phase, .. } => Some((*server, *phase)),
        _ => None,
    }
}

fn storing(e: &DebarError) -> bool {
    interrupted(e).is_some_and(|(_, phase)| phase == ChunkStoring)
}

/// Run `case` at every partition count, holding each outcome to the first.
fn across_parts(case: impl Fn(usize) -> Outcome) {
    let base = case(SWEEP_PARTS[0]);
    for parts in &SWEEP_PARTS[1..] {
        assert_equivalent(&base, &case(*parts), &format!("parts={parts} vs 1"));
    }
}

/// Both repository nodes, and both servers' index volumes, of the tiny
/// deployment.
const NODES: [Device; 2] = [Device::RepoNode(0), Device::RepoNode(1)];
const VOLUMES: [Device; 2] = [
    Device::IndexPart { server: 0, part: 0 },
    Device::IndexPart { server: 1, part: 0 },
];

/// Bit-rot the middle container before the walk: fsck names exactly the
/// damaged copy, restores and the verify audit detect it, the recovery
/// rebuild refuses it; then the admin repair, a rebuild of every part and
/// the walk.
fn corrupt(sc: &Scenario) -> Outcome {
    let h = sc.history();
    let walk = at(&h, At::Walk);
    let mut c = DebarCluster::new(sc.cfg);
    let mut t = play(&mut c, &h[..walk]);
    let cids = c.repository().container_ids();
    let container = cids[cids.len() / 2];
    t.play(&mut c, &[Call::SetDamage(container, Some(Damage::BitFlip))]);
    let node = c.repository().locate(container).expect("stored");
    let copy = Discrepancy::CorruptCopy { container, node };
    assert_eq!(c.fsck().discrepancies, [copy], "{}", sc.name);
    walk_loss(&mut c, &mut t, &sc.retained(), "corrupt container");
    let rebuild = t.play(&mut c, &[Call::RecoverIndex(0)])[0].result.is_err();
    assert!(rebuild, "{}: the rebuild read the rot", sc.name);
    let servers = (0..c.server_count() as u16).map(Call::RecoverIndex);
    let repair = [Call::SetDamage(container, None)].into_iter();
    t.play(&mut c, &repair.chain(servers).collect::<Vec<_>>());
    t.play(&mut c, &h[walk..]);
    finish(sc, &mut c, &t)
}

#[test]
fn container_corruption_detected_on_restore_and_recovery() {
    across_parts(|p| corrupt(&Scenario::tiny("corrupt", 0, p)));
}

#[test]
fn container_corruption_detected_multi_server() {
    across_parts(|p| corrupt(&Scenario::tiny("corrupt-w1", 1, p)));
}

/// Crash the final round's chunk storing: whichever node takes its first
/// container write fails it.
fn interrupt(name: &'static str, w: u32) {
    let fault = (&NODES[..], 0, Fail);
    across_parts(|p| spliced(&Scenario::tiny(name, w, p), At::FinalDedup2, fault, storing));
}

#[test]
fn interrupted_dedup2_converges_to_uninterrupted_run() {
    interrupt("interrupt", 0);
}

#[test]
fn interrupted_dedup2_converges_multi_server() {
    interrupt("interrupt-w1", 1);
}

/// Fail one part-disk of server 0's striped PSIL in the final round — an
/// inner part-disk (part 2, or the last of a narrower stripe) and the
/// edge one, at every stripe width — held to the first outcome too.
fn part_faults(name: &'static str, w: u32) {
    let sil0 = |e: &DebarError| interrupted(e) == Some((0, Sil));
    let mut first: Option<Outcome> = None;
    for parts in SWEEP_PARTS {
        let mut targets = vec![2.min(parts - 1) as u32, parts as u32 - 1];
        targets.dedup();
        for part in targets {
            let disk = [Device::IndexPart { server: 0, part }];
            let sc = Scenario::tiny(name, w, parts);
            let out = spliced(&sc, At::FinalDedup2, (&disk, 0, Fail), sil0);
            let label = format!("{name}: parts={parts}, part={part}");
            assert_equivalent(first.get_or_insert_with(|| out.clone()), &out, &label);
        }
    }
}

#[test]
fn single_part_disk_fault_names_part_and_converges() {
    part_faults("part-fault", 0);
}

#[test]
fn single_part_disk_fault_converges_multi_server() {
    part_faults("part-fault-w1", 1);
}

/// Fail an early chunk-log append of the first backup — on every
/// server's log volume, since only the assigned one can fire. The retried
/// backup converges: the aborted run's stray records carry no verdict and
/// are discarded, and it leaks nothing into the placement state.
fn log_fault(name: &'static str, w: u32) {
    let logs = [0, 1].map(|server| Device::LogWorker { server, worker: 0 });
    let logs = (&logs[..1 << w], 2, Fail);
    let bare = |e: &DebarError| matches!(e, DebarError::DeviceFault { .. });
    across_parts(|p| spliced(&Scenario::tiny(name, w, p), At::FirstBackup, logs, bare));
}

#[test]
fn chunk_log_fault_aborts_backup_and_retry_converges() {
    log_fault("log-fault", 0);
}

#[test]
fn chunk_log_fault_converges_multi_server() {
    log_fault("log-fault-w1", 1);
}

/// Fail the last worker disk of server 0's striped chunk-log drain in the
/// final round: the log stays byte-for-byte intact for the replay (a
/// single server's has records to replay), and siblings' logs replay too.
fn drain_fault(sc: Scenario, workers: usize) {
    let sc = sc.with_cfg(|c| c.with_store_workers(workers));
    probed(&sc, At::FinalDedup2, storing, |c, t| {
        let before = c.server(0).log_bytes();
        let replays = sc.cfg.w_bits > 0 || before > 0;
        assert!(replays, "{}: nothing to replay", sc.name);
        let (server, worker) = (0, workers as u32 - 1);
        let disk = Device::LogWorker { server, worker };
        t.play(c, &fault(&[disk], 0, Fail, Call::RunDedup2));
        assert_eq!(c.server(0).log_bytes(), before, "{}: log moved", sc.name);
    });
}

#[test]
fn chunk_log_drain_fault_mid_pipeline_converges() {
    // A 1-way stripe has no worker to lose.
    for workers in STORE_WORKERS.into_iter().filter(|&w| w > 1) {
        drain_fault(Scenario::tiny("drain-fault", 0, 2), workers);
    }
}

#[test]
fn chunk_log_drain_fault_converges_multi_server() {
    drain_fault(Scenario::tiny("drain-fault-w1", 1, 2), 2);
}

/// Each node down in turn reaches the healthy outcome (see `node_down`).
fn nodes_down(sc: Scenario) -> Outcome {
    let healthy = run_scenario(&sc);
    for node in 0..NODES.len() {
        assert_equivalent(&healthy, &node_down(&sc, node), &format!("node {node}"));
    }
    healthy
}

#[test]
fn repo_node_down_survivable_and_repaired_with_replicas() {
    for r in REPLICATION.into_iter().filter(|&r| r >= 2) {
        let sc = |p| Scenario::tiny("node-down", 0, p).with_cfg(|c| c.with_replication(r));
        across_parts(|p| nodes_down(sc(p)));
    }
}

#[test]
fn repo_node_down_survivable_multi_server() {
    nodes_down(Scenario::tiny("node-down-w1", 1, 2).with_cfg(|c| c.with_replication(2)));
}

#[test]
fn repo_node_down_without_replicas_is_typed_unrecoverable() {
    for parts in SWEEP_PARTS {
        nodes_down(Scenario::tiny("node-down-r1", 0, parts));
    }
}

/// Fail one repository node's next container write in the final round.
/// The round's first container gets the next sequential ID, whose replica
/// ring covers `replication` nodes from `id % nodes`: when that ring
/// misses `node`, the fault goes to the ring's first node, so it fires.
fn node_faults(sc: Scenario) {
    for node in 0..NODES.len() {
        probed(&sc, At::FinalDedup2, storing, |c, t| {
            let first = (c.repository().stats().containers % 2) as usize;
            let on_ring = (node + 2 - first) % 2 < sc.cfg.replication;
            let disk = NODES[if on_ring { node } else { first }];
            t.play(c, &fault(&[disk], 0, Fail, Call::RunDedup2));
        });
    }
}

#[test]
fn repo_node_fault_names_node_and_converges() {
    for r in REPLICATION {
        for parts in SWEEP_PARTS {
            node_faults(Scenario::tiny("node-fault", 0, parts).with_cfg(|c| c.with_replication(r)));
        }
    }
}

#[test]
fn repo_node_fault_converges_multi_server() {
    node_faults(Scenario::tiny("node-fault-w1", 1, 2).with_cfg(|c| c.with_replication(2)));
}

/// Fail `devices` at the collection's next op: it aborts typed, never
/// growing the repository, and the redo converges. On every index volume
/// the first armed op is the GC sweep's striped read (compaction touches
/// no index disk): it fails before any index byte moves.
fn gc_fault(sc: Scenario, devices: &[Device]) {
    let sc = sc.with_cfg(|c| c.with_retention(1));
    spliced(&sc, At::Gc, (devices, 0, Fail), |_| true);
}

#[test]
fn gc_sweep_fault_aborts_pre_mutation_and_converges() {
    for parts in SWEEP_PARTS {
        gc_fault(Scenario::tiny("gc-fault", 0, parts), &VOLUMES[..1]);
    }
}

#[test]
fn gc_sweep_fault_converges_multi_server() {
    gc_fault(Scenario::tiny("gc-fault-w1", 1, 2), &VOLUMES);
}

#[test]
fn gc_compaction_fault_loses_no_live_chunk_and_converges() {
    // Store-new-then-delete-old: whichever node takes the first victim
    // read or output store faults it — or every holder of a victim does,
    // and it is `Unrecoverable` — with the victim intact.
    for r in REPLICATION {
        for parts in SWEEP_PARTS {
            let sc = Scenario::tiny("gc-compact-fault", 0, parts);
            gc_fault(sc.with_cfg(|c| c.with_replication(r)), &NODES);
        }
    }
}

/// Tear server 0's final SIU write sweep, which the asynchronous schedule
/// left pending: half the batch is durable, and the redo re-applies the
/// whole batch idempotently.
fn partial_siu(name: &'static str, w: u32) {
    let torn = (&VOLUMES[..1], 1, TornWrite);
    let half = |e: &DebarError| {
        matches!(e, DebarError::PartialSiu { device, applied, total, .. }
            if *device == VOLUMES[0] && *total >= 2 && *applied == total / 2)
    };
    across_parts(|p| spliced(&Scenario::tiny(name, w, p), At::ForceSiu, torn, half));
}

#[test]
fn partial_siu_converges_to_uninterrupted_run() {
    partial_siu("partial-siu", 0);
}

#[test]
fn partial_siu_converges_multi_server() {
    partial_siu("partial-siu-w1", 1);
}

/// Bytes waiting in each server's chunk log.
fn log_bytes(c: &DebarCluster) -> Vec<u64> {
    let servers = 0..c.server_count() as u16;
    servers.map(|s| c.server(s).log_bytes()).collect()
}

#[test]
fn dedup2_crash_point_sweep_converges_at_every_device_op() {
    // Two servers: job 0 backs up chunks 0..1200 on server 0 and job 1
    // 400..1600 on server 1, so a third of each stream is a cross-server
    // duplicate the filter cannot catch — the exchange, both PSIL owners,
    // a sibling's pack and multi-container store commits all run. With
    // one copy of each container no crash point is absorbed: the sweep
    // interrupts PSIL, both drains, each server's store commit before and
    // after a durable prefix, and PSIU. Before any store commit nothing
    // moved: a PSIL fault leaves the undetermined lists, and a PSIL or
    // drain fault every log, as the round found them.
    let cfg = DebarConfig::tiny_test(1);
    let data = [(0, Data::Counters(0..1200)), (1, Data::Counters(400..1600))];
    let fixture = backups(2, data);
    let mut c = DebarCluster::new(cfg);
    play(&mut c, &fixture);
    let (undetermined, logs) = (c.undetermined_counts(), log_bytes(&c));
    assert!(undetermined.iter().all(|&n| n > 0));
    let (mut aborted, mut after_psil) = (0, 0);
    let kinds = |_| vec![Fail];
    let (touched, clean) = crash_sweep(cfg, &fixture, Call::RunDedup2, kinds, |leg| {
        let (c, label) = (leg.cluster, format!("{:?}", leg.trace));
        let Err(err) = leg.result else {
            panic!("{label}: the round went on")
        };
        aborted += 1;
        let (phase, node) = (interrupted(err), matches!(leg.device, Device::RepoNode(_)));
        let kept = c.undetermined_counts() == undetermined;
        assert!(phase.is_none_or(|p| p.1 != Sil) || kept, "{label}");
        assert!(phase.is_none() || node || log_bytes(c) == logs, "{label}");
        // A fault after the PSIL commit (chunk storing or the round's own
        // PSIU): the redo reports the exchange and PSIL walls the
        // interrupted attempt committed, to the bit, and the time of what
        // it made durable — a store's prefix, a PSIU's completed servers —
        // on top of the redo's own: no store wall shorter than the clean
        // round's, a longer PSIU wall, no faster round.
        if phase.is_none_or(|p| p.1 == ChunkStoring) {
            after_psil += 1;
            let redo = c.clone().run_dedup2().expect("redo");
            let Value::Dedup2(want) = leg.clean else {
                panic!()
            };
            let walls = |d: &Dedup2Report| (d.exchange_wall.to_bits(), d.sil_wall.to_bits());
            assert_eq!(walls(&redo), walls(want), "{label}: {redo:?}");
            assert!(redo.store_wall >= want.store_wall, "{label}: {redo:?}");
            assert!(
                phase.is_some() || redo.siu_wall > want.siu_wall,
                "{label}: {redo:?}"
            );
            let speed = |d: &Dedup2Report| d.throughput_mibps();
            assert!(speed(&redo) <= speed(want), "{label}: {redo:?}");
        }
    });
    let Value::Dedup2(d2) = clean else { panic!() };
    assert!(d2.store.discarded > 0, "cross-server duplicates");
    // Repository nodes 0 and 1, then per server its index part and its
    // log worker.
    let ops: Vec<u64> = touched.iter().map(|t| t.1).collect();
    assert_eq!(ops, [7, 7, 3, 1, 3, 1], "crash points of {touched:?}");
    assert_eq!(aborted, ops.iter().sum::<u64>(), "every leg aborted");
    assert_eq!(
        after_psil,
        aborted - 2,
        "every leg but each server's PSIL sweep"
    );
}

#[test]
fn riding_siu_crash_point_sweep_names_the_part_and_converges() {
    // Two servers, each index part striped over two part-disks, an SIU
    // due every second round. Jobs 0 and 1 back up overlapping windows in
    // rounds 1 and 2; round 2's SIU falls due and rides on round 3. The
    // riding pass is two ops on every part-disk: the read that merges the
    // carried updates and probes the sweep's batch, and the write back.
    // Fail or tear each: the round is interrupted in PSIL naming that
    // part-disk with the undetermined lists untouched, and the redo
    // carries the same SIU to the clean twin. (The round's other devices
    // fail as the dedup-2 sweep's do.)
    let cfg = DebarConfig {
        siu_interval: 2,
        ..DebarConfig::tiny_test(1).with_sweep_parts(2)
    };
    let window = |r: u64, job: u64| {
        let from = r * 1000 + job * 400;
        (job as u32, Data::Counters(from..from + 1200))
    };
    let mut fixture = backups(2, [window(0, 0), window(0, 1)]);
    for r in 1..3 {
        fixture.push(Call::RunDedup2);
        fixture.extend(backups(0, [window(r, 0), window(r, 1)]));
    }
    let mut c = DebarCluster::new(cfg);
    play(&mut c, &fixture);
    let undetermined = c.undetermined_counts();
    let index = |d: Device| matches!(d, Device::IndexPart { .. });
    let torn = vec![Fail, TornWrite];
    let kinds = |d| if index(d) { torn.clone() } else { vec![] };
    let (touched, clean) = crash_sweep(cfg, &fixture, Call::RunDedup2, kinds, |leg| {
        let sil = leg.result.as_ref().err().and_then(interrupted).map(|p| p.1) == Some(Sil);
        let kept = leg.cluster.undetermined_counts() == undetermined;
        assert!(sil && kept, "{:?}", leg.trace);
    });
    let Value::Dedup2(d2) = clean else { panic!() };
    assert!(d2.siu_ran && d2.siu_updates > 0, "round 3 carries");
    assert_eq!(d2.sil_sweeps, 2, "one PSIL sweep per server");
    for (d, ops) in touched.into_iter().filter(|t| index(t.0)) {
        assert_eq!(ops, 2, "{d:?}: one read op, one write op");
    }
}

#[test]
fn restore_crash_point_sweep_at_r2_fails_over_or_names_the_device() {
    // Two generations of a churning job on two nodes at R = 2, the second
    // interleaving its chunks with the first's chunk by chunk, against a
    // two-slot restore cache: the latest generation's walk outgrows the
    // cache, reads by range from its first miss and evicts. Every op its
    // restore charges is a crash point: a container read on either node,
    // an index lookup. A faulted read returns the clean walk's bytes and
    // layout — the other copy serves it — and a faulted lookup is the
    // restore's own typed error naming the index part.
    let mut cfg = DebarConfig::tiny_test(0).with_replication(2);
    cfg.lpc_containers = 2;
    let mut fixture = backups(1, []);
    for gen in 0..2 {
        let data = Data::Churn { gen, n: 1200, k: 2 };
        fixture.extend(backups(0, [(0, data)]).into_iter().chain([Call::RunDedup2]));
    }
    fixture.push(Call::ForceSiu);
    let (mut failed_over, mut typed) = (0, 0);
    let (call, kinds) = (Call::RestoreRun(run(0, 1)), |_| vec![Fail]);
    let (touched, clean) = crash_sweep(cfg, &fixture, call, kinds, |leg| {
        let node = matches!(leg.device, Device::RepoNode(_));
        let label = format!("{:?}", leg.trace);
        let (Value::Restore(want), Ok(Value::Restore(r))) = (leg.clean, leg.result) else {
            assert!(!node, "{label}: the other copy serves");
            typed += 1;
            return;
        };
        assert!(node, "{label}: a faulted lookup restored");
        assert_eq!((r.layout, r.failover_reads), (want.layout, 1), "{label}");
        failed_over += 1;
    });
    let Value::Restore(r) = clean else { panic!() };
    assert!(r.lpc.evictions > 0, "the walk evicts");
    let layout = r.layout;
    assert!(layout.fragments > layout.containers_touched, "{layout:?}");
    let ops: Vec<u64> = touched.iter().map(|t| t.1).collect();
    assert_eq!(ops.len(), 3, "both nodes and the index part: {touched:?}");
    assert_eq!((failed_over, typed), (ops[0] + ops[1], ops[2]));
}

#[test]
fn scrub_crash_point_sweep_converges_at_every_verify_read_and_recopy() {
    // R = 2, one damaged copy: the scrub reads every copy and recopies the
    // damaged one from its sibling. Fail or tear each read and the recopy
    // write: a failed scrub names the node and its redo heals, and a
    // recopy torn silently is found by fsck and healed by the next scrub.
    // Every leg ends on the clean twin's bytes with a clean fsck.
    let cfg = DebarConfig::tiny_test(0).with_replication(2);
    let mut fixture = backups(1, [(0, Data::Counters(0..300))]);
    let damage = Call::SetDamage(ContainerId::new(1), Some(Damage::BitFlip));
    fixture.extend([Call::RunDedup2, Call::ForceSiu, damage]);
    let mut torn = 0;
    let kinds = |_| vec![Fail, TornWrite];
    let (touched, clean) = crash_sweep(cfg, &fixture, Call::Scrub, kinds, |leg| {
        if leg.result.is_ok() && !leg.cluster.fsck().is_clean() {
            let rescrub = play(leg.cluster, &[Call::Scrub]);
            assert_eq!(rescrub.errors(), [], "{:?}", leg.trace);
            torn += 1;
        }
    });
    let Value::Scrub(s) = clean else { panic!() };
    assert_eq!((s.corrupt_found, s.repaired), (1, 1), "{s:?}");
    assert_eq!(touched.len(), 2, "both nodes: {touched:?}");
    assert!(torn > 0, "no recopy was torn");
}

#[test]
fn restore_before_force_siu_resolves_pending_updates() {
    // At `siu_interval = 2` one backup and one dedup-2 leave the round's
    // fingerprints pending: fsck resolves them there, and so must a
    // restore — the walks before `force_siu` are the walks after it.
    let mut h = backups(1, [(0, Data::Counters(0..600))]);
    let walk = [Call::VerifyRun(run(0, 0)), Call::RestoreRun(run(0, 0))];
    h.extend([Call::RunDedup2].into_iter().chain(walk.clone()));
    h.extend([Call::ForceSiu].into_iter().chain(walk));
    let (_, trace) = run_history(&Scenario::tiny("pending", 0, 1), &h);
    let walks: Vec<_> = (trace.steps.iter())
        .filter_map(|s| match &s.result {
            Ok(Value::Restore(r)) => Some((r.bytes, r.failures)),
            _ => None,
        })
        .collect();
    assert_eq!(walks[..2], walks[2..], "{trace:?}");
    assert_eq!(walks[0].1, 0, "{trace:?}");
}
