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
use crate::ids::{ClientId, JobId, RunId};
use crate::metadata::{FileIndexEntry, RunRecord};
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
        let srv = &mut self.servers[sid as usize];
        let logged = srv.chunk_log.len();
        let (record, report) = match run_backup(srv, &self.cfg, run, client_id, filtering, files) {
            Ok(r) => r,
            Err(e) => {
                // An aborted run registers nothing, not even its placement
                // load, or a faulted-then-retried history would route
                // later jobs differently than a clean one.
                self.director.unassign_server(sid, est);
                return Err(e);
            }
        };
        // Advertise the run's fingerprints in the summary vector — one
        // copy per fingerprint cluster-wide (the multiset stays a set
        // here), so a GC removal of a dead fingerprint fully withdraws it.
        // Only the transfers can be missing, and the run appended exactly
        // those to the chunk log, in stream order: a filter duplicate is a
        // primed entry, which passed the gate above, or a repeat of an
        // earlier transfer of this run, advertised before it.
        for rec in &self.servers[sid as usize].chunk_log.records()[logged..] {
            if !self.summary.contains(&rec.fp) {
                self.summary.insert(&rec.fp);
            }
        }
        self.director.metadata.record_run(record);
        Ok(report)
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
/// the restore cache.
///
/// Fault-aware: a chunk-log fault aborts the run typed. Records appended
/// before the fault stay in the log but, having no storage verdict, are
/// discarded by the next chunk-storing pass, and the run — which added no
/// undetermined fingerprint and registered nothing — may be retried whole.
fn run_backup(
    srv: &mut BackupServer,
    cfg: &DebarConfig,
    run: RunId,
    client: ClientId,
    filtering: Vec<Fingerprint>,
    files: &[ChunkedFile],
) -> DebarResult<(RunRecord, Dedup1Report)> {
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
            // The fingerprint always crosses the wire (the negotiation of
            // §3.2 "content backup"), plus one in-memory probe.
            let c = srv.nic.stream(25) + srv.cpu.probe_fps(1);
            srv.clock.advance(c);
            if filter.check(fp) == FilterVerdict::Duplicate {
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
        file_indices.push(FileIndexEntry {
            path: file.path.clone(),
            fingerprints: fps,
            bytes: fbytes,
        });
    }
    let produced = srv.clock.since(start);
    if log_cost > produced {
        srv.clock.advance(log_cost - produced);
    }
    let und = filter.take_undetermined();
    report.undetermined_added = und.len() as u64;
    srv.undetermined.extend(und);
    report.elapsed = srv.clock.since(start);
    let record = RunRecord {
        run,
        server: srv.id,
        client,
        files: file_indices,
        logical_bytes: report.logical_bytes,
        logical_chunks: report.logical_chunks,
    };
    Ok((record, report))
}

#[cfg(test)]
mod tests {
    use super::*;
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
}
