//! Dedup-1 (paper §3.3/§5.1): one backup run, from the client's dataset to
//! a recorded run — and the system's **only** dedup-1 loop
//! (`DebarCluster::run_backup`). The three [`crate::DedupMode`]s are that
//! loop at three per-run probe budgets, not three loops; the loop runs on
//! the cluster rather than on the assigned [`crate::server::BackupServer`]
//! because its inline rungs consult other servers' index parts and checking
//! files.

use super::{lookup_with_owner, DebarCluster};
use crate::chunklog::LogRecord;
use crate::client::BackupClient;
use crate::dataset::{ChunkedFile, Dataset};
use crate::error::{DebarError, DebarResult};
use crate::ids::{ClientId, JobId, RunId, ServerId};
use crate::metadata::{FileIndexEntry, RunRecord};
use crate::report::Dedup1Report;
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
            .try_job(job)
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
            .try_job(job)
            .ok_or(DebarError::UnknownJob { job })?;
        let client_id = job_obj.spec.client;
        let version = job_obj.next_version();
        let run = RunId { job, version };
        // Gate the preliminary-filter priming on the deletable summary
        // vector: a fingerprint the summary no longer advertises (GC
        // removed it) must not prime the filter. Every retained run's
        // fingerprints are in the summary (inserted at record time, only
        // removed when dead), so for live chains this retains everything
        // and dedup-1 results are byte-identical to the ungated model —
        // the gate is the safety interlock that makes deletion sound.
        let filtering: Vec<Fingerprint> = self
            .director
            .metadata
            .filtering_fingerprints(job)
            .into_iter()
            .filter(|fp| self.summary.contains(fp))
            .collect();
        let est: u64 = files.iter().map(ChunkedFile::bytes).sum();
        let sid = self.director.assign_server(est);
        // Fingerprints whose backup-time `Store` verdict this run staged,
        // undone whole if the run aborts.
        let mut staged: Vec<Fingerprint> = Vec::new();
        let result = self.run_backup(sid, run, client_id, filtering, files, &mut staged);
        let (record, report) = match result {
            Ok(r) => r,
            Err(e) => {
                // An aborted run registers nothing. Not its staged state —
                // its `Store` decisions on the assigned server, its
                // checking entries on the owner parts; only entries this
                // run added are in `staged` (a fingerprint already checking
                // or carried over is resolved as a duplicate before
                // staging), so removal cannot clobber another run's
                // scheduling — and not its placement load, or a
                // faulted-then-retried history would route later jobs
                // differently than a clean one.
                let w = self.cfg.w_bits;
                for fp in &staged {
                    self.servers[sid as usize].unstage_inline_store(fp);
                    self.servers[fp.server_number(w) as usize]
                        .checking
                        .remove(fp);
                }
                self.director.unassign_server(sid, est);
                return Err(e);
            }
        };
        // Advertise the run's fingerprints in the summary vector — one
        // copy per fingerprint cluster-wide (the multiset stays a set
        // here), so a GC removal of a dead fingerprint fully withdraws it.
        for file in &record.files {
            for fp in &file.fingerprints {
                if !self.summary.contains(fp) {
                    self.summary.insert(fp);
                }
            }
        }
        self.director.metadata.record_run(record);
        if self.cfg.layout.is_capped() {
            // Queue the run for the rewrite-on-backup capping pass of the
            // round that makes its chunks durable (see `layout.rs`).
            self.uncapped_runs.push(run);
        }
        Ok(report)
    }

    /// The dedup-1 loop (paper §3.3/§5.1) — the only one. Every chunk's
    /// fingerprint crosses the wire and meets the preliminary filter, which
    /// streams `filtering`, the job chain's previous run in stream order.
    /// A filter-missed fingerprint then walks down a ladder of ever more
    /// expensive ways to decide it *now*, as far as the mode's per-run
    /// probe budget ([`crate::DedupMode::probe_budget`]) reaches:
    ///
    /// 1. the assigned server's LPC — container fingerprints a restore or
    ///    an earlier probe hit already prefetched (inline modes only);
    /// 2. the owner part's checking file — a store is already scheduled;
    /// 3. a random disk-index probe on the owner part, whose hit prefetches
    ///    the container's fingerprints into the LPC.
    ///
    /// A fingerprint found on any rung is a duplicate and its chunk is
    /// never transferred; one the probe misses is new — its chunk is
    /// logged with a `Store` decision staged for the next chunk-storing
    /// pass. Past the budget the chunk takes the paper's cold path: logged,
    /// its fingerprint left undetermined for the dedup-2 sweep.
    /// [`crate::DedupMode::OutOfLine`] is the budget-0 case — every miss is
    /// cold, which is the paper's dedup-1 exactly — and it skips rung 1
    /// too: with nothing to spend on confirming it, an out-of-line backup
    /// must neither count an LPC hit as a duplicate nor perturb the
    /// restore cache's LRU order and counters.
    ///
    /// Fault-aware: a chunk-log or repository fault aborts the run typed.
    /// `staged` then names the verdicts to roll back; records appended
    /// before the fault stay in the log but, having no storage verdict,
    /// are discarded by the next chunk-storing pass, and the run — which
    /// registered nothing — may be retried whole.
    fn run_backup(
        &mut self,
        server: ServerId,
        run: RunId,
        client: ClientId,
        filtering: Vec<Fingerprint>,
        files: &[ChunkedFile],
        staged: &mut Vec<Fingerprint>,
    ) -> DebarResult<(RunRecord, Dedup1Report)> {
        let DebarCluster {
            servers, repo, cfg, ..
        } = self;
        let sid = server as usize;
        let w = cfg.w_bits;
        let inline = cfg.dedup_mode.is_inline();
        // `None` = unlimited (pure inline), `Some(0)` = never probe (pure
        // out-of-line); hybrid runs down its window and goes cold after.
        let budget = cfg.dedup_mode.probe_budget();
        let mut probes: u64 = 0;
        let mut filter = PrelimFilter::with_memory(cfg.filter_bytes);
        filter.prime(filtering);
        let start = servers[sid].clock.now();

        let mut report = Dedup1Report {
            run,
            server,
            logical_bytes: 0,
            logical_chunks: 0,
            transferred_bytes: 0,
            transferred_chunks: 0,
            filtered_dups: 0,
            undetermined_added: 0,
            inline_hits: 0,
            inline_index_reads: 0,
            backlog_bytes: 0,
            elapsed: 0.0,
        };
        let mut file_indices = Vec::with_capacity(files.len());
        let mut log_cost: Secs = 0.0;
        for file in files {
            let mut fps = Vec::with_capacity(file.chunks.len());
            let mut fbytes = 0u64;
            for chunk in &file.chunks {
                let (fp, len) = (chunk.fp, chunk.len());
                report.logical_bytes += len;
                report.logical_chunks += 1;
                fbytes += len;
                fps.push(fp);
                let srv = &mut servers[sid];
                // The fingerprint always crosses the wire (the negotiation
                // of §3.2 "content backup"), plus one in-memory probe.
                let c = srv.nic.stream(25) + srv.cpu.probe_fps(1);
                srv.clock.advance(c);
                if filter.check(fp) == FilterVerdict::Duplicate {
                    report.filtered_dups += 1;
                    continue;
                }
                // Rung 1, free: the assigned server's LPC.
                if inline && srv.lpc.lookup(&fp).is_some() {
                    report.inline_hits += 1;
                    filter.mark_determined(&fp);
                    continue;
                }
                if budget.is_some_and(|b| probes >= b) {
                    // The cold path, the paper's out-of-line dedup-1.
                    // Chunk-log appends go to a dedicated disk and are
                    // pipelined behind the network receive; only the
                    // excess (log slower than stream) stalls the run.
                    srv.charge_net(len);
                    log_cost += srv.chunk_log.try_append(LogRecord::from(chunk))?;
                    report.transferred_bytes += len;
                    report.transferred_chunks += 1;
                    report.backlog_bytes += len;
                    continue;
                }
                // Rung 2, the owner part's checking file: a store is
                // already scheduled (SIU pending) — probing the index would
                // miss and wrongly designate a second storer. When the
                // owner is remote and the consult short-circuits, charge
                // the request/response hop it rode on; on a miss the
                // probe's own hop carries it for free.
                let owner = fp.server_number(w) as usize;
                if servers[owner].checking.contains(&fp) {
                    if owner != sid {
                        servers[sid].charge_net(64);
                        servers[owner].charge_net(64);
                    }
                    report.inline_hits += 1;
                    filter.mark_determined(&fp);
                    continue;
                }
                // Rung 3, the budgeted random index probe (authoritative).
                probes += 1;
                report.inline_index_reads += 1;
                let found = lookup_with_owner(servers, sid, owner, &fp);
                if let Some(cid) = servers[sid].clock.charge(found) {
                    report.inline_hits += 1;
                    filter.mark_determined(&fp);
                    // Prefetch the hit container into the restore cache:
                    // nearby chunks of the same old stream now dedup on
                    // rung 1 without further probes.
                    let srv = &mut servers[sid];
                    let t = repo.read(cid).timed();
                    // `None`: reclaimed under us — the verdict stands.
                    if let Some(container) = srv.clock.charge(t)? {
                        let now = srv.clock.now();
                        // A whole container, and no victim named: one
                        // full slot, room made by the paper's LRU.
                        let (chunks, whole) = (container.chunks().collect(), cfg.container_bytes);
                        srv.cache_container(cid, chunks, whole, |_, _| None, |_| now);
                    }
                    continue;
                }
                // Determined new at backup time: transfer and log the
                // chunk, stage its Store decision for the next
                // chunk-storing pass, and suppress duplicates via the
                // owner's checking file until SIU registers it.
                let srv = &mut servers[sid];
                srv.charge_net(len);
                log_cost += srv.chunk_log.try_append(LogRecord::from(chunk))?;
                report.transferred_bytes += len;
                report.transferred_chunks += 1;
                srv.stage_inline_store(fp);
                if owner != sid {
                    servers[sid].charge_net(64);
                    servers[owner].charge_net(64);
                }
                servers[owner].checking.insert(fp);
                staged.push(fp);
                filter.mark_determined(&fp);
            }
            file_indices.push(FileIndexEntry {
                path: file.path.clone(),
                fingerprints: fps,
                bytes: fbytes,
            });
        }
        let srv = &mut servers[sid];
        let produced = srv.clock.since(start);
        if log_cost > produced {
            srv.clock.advance(log_cost - produced);
        }
        // Pure inline leaves nothing undetermined (every transfer verdict
        // was resolved and downgraded); whatever went cold awaits the
        // out-of-line sweep.
        let und = filter.take_undetermined();
        report.undetermined_added = und.len() as u64;
        srv.undetermined.extend(und);
        report.elapsed = srv.clock.since(start);
        let record = RunRecord {
            run,
            server,
            client,
            files: file_indices,
            logical_bytes: report.logical_bytes,
            logical_chunks: report.logical_chunks,
        };
        Ok((record, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DebarConfig;
    use debar_workload::drift::records;

    #[test]
    fn out_of_line_backup_neither_reads_nor_touches_the_restore_cache() {
        // One job's stream, stored; `warm` then restores it, so its LPC
        // holds the stream's last containers. A second job (a fresh chain:
        // the filter is no help) now backs the same stream up out-of-line.
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
        // The LPC rung is inline-only: with no probe budget an LPC hit
        // must not count as a duplicate, and the restore cache's counters
        // and LRU order are not the backup's to move.
        assert_eq!(warm.servers[0].lpc.stats(), lpc_before);
        assert_eq!(w.inline_hits, 0);
        assert_eq!(w.transferred_chunks, 1500, "every filter miss is cold");
        assert_eq!(
            (w.transferred_bytes, w.filtered_dups, w.undetermined_added),
            (c.transferred_bytes, c.filtered_dups, c.undetermined_added),
            "a warm LPC changes nothing an out-of-line backup reports"
        );
        assert_eq!(
            (w.backlog_bytes, w.inline_index_reads),
            (c.backlog_bytes, 0)
        );
    }
}
