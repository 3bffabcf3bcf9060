//! The common script every workload runs, and its output checks.
//!
//! *setup*: generate the inputs from the seed, build the cluster, define the
//! jobs. *ingest*: per generation back up every job, then run dedup-2 when
//! due; end with a forced SIU. *restore*: the newest generation of every job,
//! then the oldest retained one. *maintain*: expire → collect garbage → scrub
//! → verify the newest generation of every job. One closed loop, one client
//! thread.

use crate::host::Stopwatch;
use crate::sut::{BackupOut, Dedup2Out, EndState, GcOut, Inputs, RestoreOut, Run, Sut};
use crate::trace::{Span, Tracer};
use crate::workloads::Workload;
use std::collections::HashSet;
use std::time::Instant;

const MIB: f64 = (1u64 << 20) as f64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepMode {
    /// Discarded for timing. Backs up through the split client/server calls
    /// and counts the distinct fingerprints the inputs hold, which later reps
    /// check the stored chunks against.
    WarmUp,
    /// `backup` as one call, no spans: the reps end-to-end numbers come from.
    Measured,
    /// Split calls with a span around each: the rep per-layer numbers come
    /// from.
    Traced,
}

/// Counts every call into the cluster and every output check, of a rep or of
/// a whole run.
#[derive(Debug, Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the log.
    pub messages: Vec<String>,
}

impl Checker {
    pub fn fail(&mut self, what: &str, why: &str) {
        self.failed += 1;
        if self.messages.len() < 8 {
            self.messages.push(format!("{what}: {why}"));
        }
    }

    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.fail(what, "check failed");
        }
    }

    fn call<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(what, &e);
                None
            }
        }
    }
}

/// What one rep measured.
#[derive(Debug)]
pub struct Rep {
    pub setup_s: f64,
    pub generate_s: f64,
    pub cluster_new_s: f64,
    pub host_wall_s: f64,
    pub host_cpu_s: f64,
    pub checker: Checker,
    /// Every simulated-clock metric and deterministic counter by name. Two
    /// reps of one seed must agree on all of them to the bit.
    pub sim: Vec<(&'static str, f64)>,
    /// Distinct fingerprints backed up (warm-up rep only).
    pub distinct_fps: Option<u64>,
    /// Chunks backed up, duplicates included, and the backups they came in.
    pub logical_chunks: u64,
    pub backups: u64,
    pub spans: Vec<Span>,
}

impl Rep {
    pub fn sim_value(&self, name: &str) -> f64 {
        self.sim
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(f64::NAN, |(_, v)| *v)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn mibps(bytes: u64, secs: f64) -> f64 {
    ratio(bytes as f64 / MIB, secs)
}

/// Sums over the restores of one phase (newest or oldest generation).
#[derive(Default)]
struct RestoreTally {
    bytes: u64,
    secs: f64,
    chunks: u64,
    fragments: f64,
    containers: f64,
    lpc_hits: u64,
    lpc_misses: u64,
    lpc_evictions: u64,
}

impl RestoreTally {
    fn add(&mut self, r: &RestoreOut) {
        self.bytes += r.bytes;
        self.secs += r.elapsed_s;
        self.chunks += r.chunks;
        self.fragments += ratio(r.chunks as f64, r.mean_run_len);
        self.containers += r.containers_per_mib * r.bytes as f64 / MIB;
        self.lpc_hits += r.lpc_hits;
        self.lpc_misses += r.lpc_misses;
        self.lpc_evictions += r.lpc_evictions;
    }

    fn containers_per_mib(&self) -> f64 {
        ratio(self.containers, self.bytes as f64 / MIB)
    }
}

/// A restore or verify must return exactly what the backup took in.
fn check_restore(c: &mut Checker, what: &str, out: &RestoreOut, backed_up: &BackupOut) {
    c.check(what, out.failures == 0);
    c.check(what, out.bytes == backed_up.logical_bytes);
    c.check(what, out.chunks == backed_up.logical_chunks);
}

/// Expire, collect, check the collection's arithmetic and add it to `total`.
fn collect_garbage(sut: &mut Sut, tr: &mut Tracer, c: &mut Checker, total: &mut GcOut) {
    tr.op("core.gc.expire_runs", || sut.expire_runs());
    c.attempted += 1;
    let before = sut.physical_bytes();
    let Some(gc) = c.call("run_gc", tr.op("core.gc.run_gc", || sut.run_gc())) else {
        return;
    };
    let dropped = before - sut.physical_bytes();
    c.check(
        "gc reclaim equals the drop in physical bytes",
        dropped == gc.net_physical_reclaimed,
    );
    c.check(
        "gc reclaim equals replication x dead chunk bytes",
        gc.net_physical_reclaimed == sut.replication() * gc.dead_chunk_bytes,
    );
    *total += gc;
}

/// Run the script once on freshly generated inputs and a fresh cluster.
pub fn run_rep(
    w: &Workload,
    seed: u64,
    mode: RepMode,
    rep: u32,
    expected_distinct: Option<u64>,
) -> Rep {
    let mut tr = match mode {
        RepMode::Traced => Tracer::enabled(rep),
        _ => Tracer::disabled(),
    };
    let mut c = Checker::default();

    // ---- setup ----
    tr.open("setup");
    let t_setup = Instant::now();
    let inputs = tr.op("workload.generate", || Inputs::generate(&w.input, seed));
    let generate_s = t_setup.elapsed().as_secs_f64();
    let t_new = Instant::now();
    let mut sut = tr.op("core.cluster.new", || Sut::new(&w.cluster, inputs.jobs()));
    let cluster_new_s = t_new.elapsed().as_secs_f64();
    let setup_s = t_setup.elapsed().as_secs_f64();
    tr.close();

    let generations = inputs.generations();
    let jobs = inputs.jobs();
    let retention = w.cluster.retention as usize;
    let oldest_retained = generations.saturating_sub(retention.max(1));
    let mut distinct: HashSet<u64> = HashSet::new();

    // ---- measured section ----
    let watch = Stopwatch::start();

    tr.open("ingest");
    let mut backups: Vec<Vec<Option<BackupOut>>> = Vec::with_capacity(generations);
    let mut logical_bytes = 0u64;
    let mut logical_chunks = 0u64;
    let mut filtered_chunks = 0u64;
    let mut transferred_chunks = 0u64;
    let mut backup_window_s = 0.0;
    let mut d2 = Dedup2Out::default();
    let mut d2_rounds = 0u64;
    let mut gc = GcOut::default();
    for g in 0..generations {
        let t0 = sut.align_clocks();
        let mut row = Vec::with_capacity(jobs);
        for job in 0..jobs {
            let result = if mode == RepMode::Measured {
                sut.backup(&inputs, g, job)
            } else {
                let files = tr.op("core.client.prepare", || sut.prepare(&inputs, g, job));
                if mode == RepMode::WarmUp {
                    distinct.extend(files.fingerprint_prefixes());
                }
                tr.op("core.cluster.backup_prepared", || {
                    sut.backup_prepared(job, &files)
                })
            };
            let out = c.call("backup", result);
            if let Some(b) = &out {
                logical_bytes += b.logical_bytes;
                logical_chunks += b.logical_chunks;
                filtered_chunks += b.filtered_dups;
                transferred_chunks += b.transferred_chunks;
                c.check(
                    "backup run is this job's next version",
                    b.run
                        == Run {
                            job: job as u32,
                            version: g as u32,
                        },
                );
            }
            row.push(out);
        }
        backups.push(row);
        backup_window_s += sut.align_clocks() - t0;

        let last = g + 1 == generations;
        if !w.cluster.dedup2_at_cache_full || sut.should_run_dedup2() || last {
            if let Some(r) = c.call(
                "run_dedup2",
                tr.op("core.cluster.run_dedup2", || sut.run_dedup2()),
            ) {
                d2_rounds += 1;
                d2 += r;
            }
        }
        if w.gc_every > 0 && (g + 1) % w.gc_every == 0 && !last {
            // Collection needs a quiesced cluster: register what is pending.
            if let Some(siu) = c.call(
                "force_siu",
                tr.op("core.cluster.force_siu", || sut.force_siu()),
            ) {
                d2.siu_updates += siu.updates;
                d2.siu_s += siu.wall_s;
                d2.total_s += siu.wall_s;
            }
            collect_garbage(&mut sut, &mut tr, &mut c, &mut gc);
        }
    }
    let siu_final = c
        .call(
            "force_siu",
            tr.op("core.cluster.force_siu", || sut.force_siu()),
        )
        .unwrap_or_default();
    tr.close();

    tr.open("restore");
    let mut latest = RestoreTally::default();
    let mut oldest = RestoreTally::default();
    for (generation, tally) in [
        (generations - 1, &mut latest),
        (oldest_retained, &mut oldest),
    ] {
        for backed_up in backups[generation].iter().flatten() {
            let result = tr.op("core.cluster.restore_run", || {
                sut.restore_run(backed_up.run)
            });
            if let Some(r) = c.call("restore_run", result) {
                check_restore(&mut c, "restore_run", &r, backed_up);
                tally.add(&r);
            }
        }
    }
    tr.close();

    tr.open("maintain");
    collect_garbage(&mut sut, &mut tr, &mut c, &mut gc);
    let scrub = c.call("scrub", tr.op("core.cluster.scrub", || sut.scrub()));
    if let Some(s) = &scrub {
        c.check(
            "scrub finds a clean repository",
            s.corrupt_found == 0 && s.unrecoverable == 0,
        );
    }
    for backed_up in backups[generations - 1].iter().flatten() {
        let result = tr.op("core.cluster.verify_run", || sut.verify_run(backed_up.run));
        if let Some(r) = c.call("verify_run", result) {
            check_restore(&mut c, "verify_run", &r, backed_up);
        }
    }
    tr.close();

    let (host_wall_s, host_cpu_s) = watch.elapsed();

    // ---- read-out, untimed ----
    let end: EndState = sut.end_state();
    let retained_logical: u64 = backups[oldest_retained..]
        .iter()
        .flatten()
        .flatten()
        .map(|b| b.logical_bytes)
        .sum();
    let distinct_fps = (mode == RepMode::WarmUp).then_some(distinct.len() as u64);
    let expected = distinct_fps.or(expected_distinct);
    let unique_excess = expected.map_or(0.0, |n| ratio(d2.stored_chunks as f64, n as f64) - 1.0);
    // A chunk that garbage collection reclaimed mid-ingest is rightly stored
    // again when a later generation brings it back, so the exactly-once
    // check holds only where collection waits for the maintain phase.
    if expected.is_some() && w.gc_every == 0 {
        c.check(
            "every distinct fingerprint is stored exactly once",
            unique_excess == 0.0,
        );
    }

    let ingest_s = backup_window_s + d2.total_s + siu_final.wall_s;
    let sim = vec![
        ("sim_backup_mibps", mibps(logical_bytes, backup_window_s)),
        ("sim_dedup2_mibps", mibps(d2.log_bytes, d2.total_s)),
        ("sim_ingest_mibps", mibps(logical_bytes, ingest_s)),
        ("sim_restore_latest_mibps", mibps(latest.bytes, latest.secs)),
        ("sim_restore_oldest_mibps", mibps(oldest.bytes, oldest.secs)),
        (
            "sim_gc_reclaim_mibps",
            mibps(gc.net_physical_reclaimed, gc.wall_s),
        ),
        (
            "stored_per_logical",
            ratio(end.physical_bytes as f64, retained_logical as f64),
        ),
        ("workload.logical_mib", logical_bytes as f64 / MIB),
        ("workload.distinct_fps", expected.unwrap_or(0) as f64),
        ("core.cluster.d2.rounds", d2_rounds as f64),
        ("core.cluster.d2.exchange_sim_s", d2.exchange_s),
        ("core.cluster.d2.sil_sim_s", d2.sil_s),
        ("core.cluster.d2.store_sim_s", d2.store_s),
        ("core.cluster.d2.cap_sim_s", d2.cap_s),
        ("core.cluster.d2.siu_sim_s", d2.siu_s),
        ("core.cluster.d2.sil_sweeps", d2.sil_sweeps as f64),
        ("core.cluster.d2.submitted_fps", d2.submitted_fps as f64),
        ("core.cluster.d2.new_fps", d2.new_fps as f64),
        ("core.cluster.d2.dup_registered", d2.dup_registered as f64),
        ("core.cluster.d2.dup_pending", d2.dup_pending as f64),
        (
            "filter.prelim.filtered_share",
            ratio(filtered_chunks as f64, logical_chunks as f64),
        ),
        (
            "core.server.transferred_share",
            ratio(transferred_chunks as f64, logical_chunks as f64),
        ),
        (
            "index.sil_fps_per_sim_s",
            ratio(d2.submitted_fps as f64, d2.sil_s),
        ),
        (
            "index.siu_fps_per_sim_s",
            ratio(
                (d2.siu_updates + siu_final.updates) as f64,
                d2.siu_s + siu_final.wall_s,
            ),
        ),
        ("index.utilization", end.index_utilization),
        ("store.containers_written", d2.containers as f64),
        ("store.discarded_chunks", d2.discarded_chunks as f64),
        ("store.unique_excess_share", unique_excess),
        (
            "store.repository.node_bytes_max_share",
            end.node_bytes_max_share,
        ),
        ("store.repository.failover_reads", end.failover_reads as f64),
        ("store.repository.retried_ops", end.retried_ops as f64),
        (
            "store.lpc.hit_share",
            ratio(
                (latest.lpc_hits + oldest.lpc_hits) as f64,
                (latest.lpc_hits + latest.lpc_misses + oldest.lpc_hits + oldest.lpc_misses) as f64,
            ),
        ),
        (
            "store.lpc.evictions",
            (latest.lpc_evictions + oldest.lpc_evictions) as f64,
        ),
        (
            "core.layout.containers_per_mib_latest",
            latest.containers_per_mib(),
        ),
        (
            "core.layout.containers_per_mib_oldest",
            oldest.containers_per_mib(),
        ),
        (
            "core.layout.mean_run_len_latest",
            ratio(latest.chunks as f64, latest.fragments),
        ),
        ("core.gc.live_fps", gc.live_fps as f64),
        ("core.gc.dead_fps", gc.dead_fps as f64),
        (
            "core.gc.containers_compacted",
            gc.containers_compacted as f64,
        ),
        ("core.gc.containers_deleted", gc.containers_deleted as f64),
        ("core.gc.moved_chunks", gc.moved_chunks as f64),
        ("core.gc.sim_s", gc.wall_s),
        (
            "store.scrub.copies_checked",
            scrub.map_or(0.0, |s| s.copies_checked as f64),
        ),
        ("store.scrub.sim_s", scrub.map_or(0.0, |s| s.wall_s)),
        ("simio.index_disk.busy_sim_s", end.index_busy_s),
        ("simio.index_disk.seq_read_mib", end.index_seq_read_mib),
        ("simio.index_disk.seq_write_mib", end.index_seq_write_mib),
        ("simio.index_disk.rand_reads", end.index_rand_reads as f64),
        ("simio.repo_node.busy_sim_s_max", end.node_busy_s_max),
        ("simio.repo_node.seq_write_mib", end.node_seq_write_mib),
        ("simio.repo_node.rand_reads", end.node_rand_reads as f64),
        ("core.cluster.siu_final_sim_s", siu_final.wall_s),
    ];

    Rep {
        setup_s,
        generate_s,
        cluster_new_s,
        host_wall_s,
        host_cpu_s,
        checker: c,
        sim,
        distinct_fps,
        logical_chunks,
        backups: backups.iter().flatten().flatten().count() as u64,
        spans: tr.spans().to_vec(),
    }
}
