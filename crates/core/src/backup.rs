//! Dedup-1 (paper §3.3/§5.1): one backup run, from the client's dataset to
//! a recorded run. The cluster picks the server and records the run; the
//! loop itself ([`run_backup`]) is the paper's filter → chunk log path and
//! touches only the assigned [`BackupServer`].

use super::DebarCluster;
use crate::chunklog::LogRecord;
use crate::client::BackupClient;
use crate::config::DebarConfig;
use crate::dataset::{ChunkedFile, Dataset};
use crate::error::{DebarError, DebarResult};
use crate::ids::{JobId, RunId};
use crate::metadata::{FileIndexEntry, RecipeBuilder, RunRecord};
use crate::report::Dedup1Report;
use crate::server::BackupServer;
use debar_filter::{FilterVerdict, PrelimFilter};
use debar_hash::Fingerprint;
use debar_simio::Secs;

impl DebarCluster {
    /// Back up a dataset under a job (de-duplication phase I): client-side
    /// chunking/fingerprinting, server assignment, preliminary filtering,
    /// chunk logging, metadata recording.
    pub fn backup(&mut self, job: JobId, dataset: &Dataset) -> DebarResult<Dedup1Report> {
        let client_id = self
            .director
            .metadata
            .job(job)
            .ok_or(DebarError::UnknownJob { job })?
            .spec
            .client;
        let client = self
            .clients
            .entry(client_id)
            .or_insert_with(|| BackupClient::new(client_id));
        let files = client.prepare(dataset).value;
        self.backup_prepared(job, &files)
    }

    /// Back up pre-chunked files (bench harness path).
    pub fn backup_prepared(
        &mut self,
        job: JobId,
        files: &[ChunkedFile],
    ) -> DebarResult<Dedup1Report> {
        let job_obj = self
            .director
            .metadata
            .job(job)
            .ok_or(DebarError::UnknownJob { job })?;
        let client = job_obj.spec.client;
        let version = job_obj.next_version();
        let run = RunId { job, version };
        let (filtering, kept) = self.filtering_file(job);
        // The run's placement load is charged when it is recorded: an
        // aborted run records nothing, so a faulted-then-retried history
        // routes later jobs as a clean one does.
        let sid = self.director.assign_server();
        let srv = &mut self.servers[sid as usize];
        let logged = srv.chunk_log.len();
        let recipes = RecipeBuilder::new(self.director.metadata.last_run(job), kept);
        let (files, report) = run_backup(srv, &self.cfg, run, filtering, recipes, files)?;
        // Advertise the run's fingerprints in the summary vector — one
        // copy per fingerprint cluster-wide (the multiset stays a set
        // here), so a GC removal of a dead fingerprint fully withdraws it.
        // Only the transfers can be missing, and the run appended exactly
        // those to the chunk log, in stream order: a filter duplicate is a
        // primed entry, which passed the gate, or a repeat of an earlier
        // transfer of this run, advertised before it.
        for fp in &self.servers[sid as usize]
            .chunk_log
            .records()
            .fingerprints()[logged..]
        {
            if !self.summary.contains(fp) {
                self.summary.insert(fp);
            }
        }
        self.director.record_run(RunRecord {
            run,
            server: sid,
            client,
            files,
            logical_bytes: report.logical_bytes,
            logical_chunks: report.logical_chunks,
            summary_removals: self.summary.removals(),
        });
        Ok(report)
    }

    /// The preliminary filter's file for `job`'s next run — its last run's
    /// fingerprints in stream order — and, when the summary gate dropped
    /// entries, the last run's position of each entry kept.
    ///
    /// The gate: a fingerprint the summary no longer advertises (GC
    /// removed it) must not prime the filter. It is the safety interlock
    /// that makes deletion sound, and it can only drop something after a
    /// removal: a run recorded since the summary's last removal has every
    /// fingerprint advertised (its primed hits passed the gate, its
    /// transfers were inserted, and an insert never fails), so then the
    /// file is the run whole and the gate is skipped.
    fn filtering_file(&self, job: JobId) -> (Vec<Fingerprint>, Option<Vec<usize>>) {
        let all = self.director.metadata.filtering_fingerprints(job);
        if !self.gate_can_drop(job) || all.iter().all(|fp| self.summary.contains(fp)) {
            return (all, None);
        }
        let kept: Vec<usize> = (0..all.len())
            .filter(|&i| self.summary.contains(&all[i]))
            .collect();
        let file = kept.iter().map(|&i| all[i]).collect();
        (file, Some(kept))
    }

    /// Whether the summary has removed anything since `job`'s last run was
    /// recorded — the only way the gate can drop one of its fingerprints.
    fn gate_can_drop(&self, job: JobId) -> bool {
        (self.director.metadata.last_run(job))
            .is_some_and(|rec| rec.summary_removals != self.summary.removals())
    }
}

/// The dedup-1 loop (paper §3.3/§5.1) — the only one. Every chunk's
/// fingerprint crosses the wire and meets the preliminary filter, which
/// streams `filtering`, the job chain's previous run in stream order. A
/// filter hit is a duplicate and its chunk is never transferred; a miss
/// is transferred, appended to the server's chunk log and its fingerprint
/// left undetermined for the dedup-2 sweep. The loop decides nothing
/// else: it writes no storage decision and no checking-file entry — the
/// PSIL commit is their only writer — and it neither reads nor touches
/// the restore cache. Every fingerprint goes to `recipes` with the
/// filter's position hint, and the run's file indices come back.
///
/// Fault-aware: a chunk-log fault aborts the run typed. Records appended
/// before the fault stay in the log but, having no storage verdict, are
/// discarded by the next chunk-storing pass, and the run — which added no
/// undetermined fingerprint and registered nothing — may be retried whole.
fn run_backup(
    srv: &mut BackupServer,
    cfg: &DebarConfig,
    run: RunId,
    filtering: Vec<Fingerprint>,
    mut recipes: RecipeBuilder<'_>,
    files: &[ChunkedFile],
) -> DebarResult<(Vec<FileIndexEntry>, Dedup1Report)> {
    let mut filter = PrelimFilter::with_memory(cfg.filter_bytes);
    filter.prime(filtering);
    let start = srv.clock.now();

    let mut report = Dedup1Report {
        run,
        server: srv.id,
        logical_bytes: 0,
        logical_chunks: 0,
        transferred_bytes: 0,
        transferred_chunks: 0,
        filtered_dups: 0,
        undetermined_added: 0,
        elapsed: 0.0,
    };
    let mut sizes = Vec::with_capacity(files.len());
    let mut log_cost: Secs = 0.0;
    for file in files {
        let mut fbytes = 0u64;
        for chunk in &file.chunks {
            let (fp, len) = (chunk.fp, chunk.len());
            report.logical_bytes += len;
            report.logical_chunks += 1;
            fbytes += len;
            // The fingerprint always crosses the wire (the negotiation of
            // §3.2 "content backup"), plus one in-memory probe.
            let c = srv.nic.stream(25) + srv.cpu.probe_fps(1);
            srv.clock.advance(c);
            let verdict = filter.check(fp);
            recipes.push(fp, filter.last_primed_hit());
            if verdict == FilterVerdict::Duplicate {
                report.filtered_dups += 1;
                continue;
            }
            // Chunk-log appends go to a dedicated disk and are pipelined
            // behind the network receive; only the excess (log slower than
            // stream) stalls the run.
            srv.charge_net(len);
            log_cost += srv.chunk_log.append(LogRecord::from(chunk))?;
            report.transferred_bytes += len;
            report.transferred_chunks += 1;
        }
        recipes.end_file();
        sizes.push(fbytes);
    }
    let produced = srv.clock.since(start);
    if log_cost > produced {
        srv.clock.advance(log_cost - produced);
    }
    let und = filter.take_undetermined();
    report.undetermined_added = und.len() as u64;
    srv.undetermined.extend(und);
    report.elapsed = srv.clock.since(start);
    let indices = (files.iter().zip(sizes).zip(recipes.finish()))
        .map(|((file, bytes), recipe)| FileIndexEntry {
            path: file.path.clone(),
            recipe,
            bytes,
        })
        .collect();
    Ok((indices, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ClientId;
    use debar_workload::drift::records;

    #[test]
    fn a_backup_neither_touches_the_restore_cache_nor_decides() {
        // One job's stream, stored; `warm` then restores it, so its LPC
        // holds the stream's last containers. A second job (a fresh chain:
        // the filter is no help) now backs the same stream up.
        let history = |restore: bool| {
            let mut c = DebarCluster::new(DebarConfig::tiny_test(0));
            let first = c.define_job("first", ClientId(0));
            c.backup(first, &Dataset::from_records("s", records(0..1500)))
                .expect("backup");
            c.run_dedup2().expect("dedup2");
            if restore {
                let run = RunId {
                    job: first,
                    version: 0,
                };
                c.restore_run(run).expect("restore");
            }
            c
        };
        let (mut warm, mut cold) = (history(true), history(false));
        let lpc_before = warm.servers[0].lpc.stats();
        assert!(lpc_before.hits > 0, "the restore warmed the LPC");
        let again = Dataset::from_records("s", records(0..1500));
        let second = warm.define_job("second", ClientId(1));
        let w = warm.backup(second, &again).expect("backup");
        let second = cold.define_job("second", ClientId(1));
        let c = cold.backup(second, &again).expect("backup");
        // An LPC hit is no duplicate to dedup-1, and the restore cache's
        // counters and LRU order are not the backup's to move.
        assert_eq!(warm.servers[0].lpc.stats(), lpc_before);
        assert_eq!(w.transferred_chunks, 1500, "every filter miss is logged");
        assert_eq!(
            (w.transferred_bytes, w.filtered_dups, w.undetermined_added),
            (c.transferred_bytes, c.filtered_dups, c.undetermined_added),
            "a warm LPC changes nothing a backup reports"
        );
        // PSIL is the one writer of decisions and checking entries.
        for srv in warm.servers.iter().chain(&cold.servers) {
            assert_eq!((srv.decided(), srv.checking.len()), (0, 0));
        }
    }

    #[test]
    fn the_summary_gate_is_skipped_only_where_it_would_drop_nothing() {
        // Two jobs of drifting streams; expiry and a collection on day 2
        // remove the dead fingerprints from the summary.
        let mut c = DebarCluster::new(DebarConfig::tiny_test(0).with_retention(1));
        let jobs = [
            c.define_job("a", ClientId(0)),
            c.define_job("b", ClientId(1)),
        ];
        let (mut skipped, mut gated) = (0, 0);
        for day in 0..6u64 {
            for (j, &job) in jobs.iter().enumerate() {
                let all = c.director.metadata.filtering_fingerprints(job);
                let kept: Vec<Fingerprint> = (all.iter().copied())
                    .filter(|fp| c.summary.contains(fp))
                    .collect();
                assert_eq!(c.filtering_file(job).0, kept, "day {day}, job {j}");
                if c.gate_can_drop(job) {
                    gated += 1;
                } else {
                    assert_eq!(kept, all, "day {day}, job {j}: skipped a gate that drops");
                    skipped += 1;
                }
                let base = 1000 * j as u64 + 300 * day;
                let ds = Dataset::from_records("s", records(base..base + 600));
                c.backup(job, &ds).expect("backup");
            }
            c.run_dedup2().expect("dedup2");
            if day == 2 {
                c.force_siu().expect("siu");
                c.expire_runs();
                assert!(c.run_gc().expect("gc").summary_removed > 0);
            }
        }
        // Day 3's backups follow runs recorded before the removals.
        assert_eq!((skipped, gated), (10, 2));
        // A live fingerprint withdrawn, as a removal of a colliding tag
        // withdraws one: the gate runs and drops it, and the recipe built
        // through the kept positions is still the stream.
        let job = jobs[0];
        let all = c.director.metadata.filtering_fingerprints(job);
        assert!(c.summary.remove(&all[10]));
        let (file, kept) = c.filtering_file(job);
        let kept = kept.expect("the gate dropped an entry");
        assert!(file.len() < all.len() && kept.len() == file.len());
        assert!(kept.iter().zip(&file).all(|(&i, fp)| all[i] == *fp));
        let stream = records(1500..2200);
        let run = (c.backup(job, &Dataset::from_records("s", stream.clone())))
            .expect("backup")
            .run;
        let rec = c.director.metadata.run(run).expect("recorded");
        let recipe: Vec<Fingerprint> = rec.files[0].recipe.iter().copied().collect();
        assert_eq!(recipe, stream.iter().map(|r| r.fp).collect::<Vec<_>>());
    }
}
