//! The restore path: **one pipelined walk over device timelines**.
//!
//! Restore, verify and single-file restore share one walk
//! (`restore_impl`). It visits the run's recipe in order and touches the
//! devices in exactly the order a serial walk would — LPC lookup, on a
//! miss the owning part's random index lookup, then the container read
//! with its failover legs — so op counters, fault offsets, cache counters
//! and every byte restored are those of the serial walk. What differs is
//! **when** each device is busy. Every device is a FIFO
//! [`debar_simio::Lane`]:
//!
//! | lane | carries |
//! |---|---|
//! | resolve | index lookups (owner's index disk + the request/response hop when the owner is remote); the resolver waits for each answer, so the owners' disks never queue and share one lane |
//! | one per repository node | that node's container reads: failed and retried attempts, the serving read, read-repair writes — [`debar_store::ReadLegs`] says which node each attempt charged |
//! | send | the restoring server's NIC streaming verified chunks to the client, in recipe order |
//!
//! and the data dependencies between them are:
//!
//! * **Read-ahead on unverified metadata.** A container's metadata section
//!   precedes its data section (paper §3.4), so `data_tail` seconds before
//!   a read completes the resolver knows the container's fingerprints and
//!   walks on: the next miss's lookup and read are issued while earlier
//!   reads are still in flight on other nodes. The early metadata only
//!   ever *schedules* a fetch.
//! * **Nothing is delivered early.** A chunk enters the send lane no
//!   sooner than its container's read has completed in full — checksum
//!   trailer passed, read-repair done — and `verify_payload` accepted it.
//! * **The LPC is the read-ahead buffer.** A fetch may not start before
//!   the cached container it evicts has been fully sent, so at most
//!   `lpc_containers` containers are ever in flight or waiting to be
//!   streamed: no second buffer, no new knob.
//! * **The read-ahead runs one container per repository node ahead of the
//!   client.** Fetch `j` may not start before the client has been sent
//!   everything the walk had queued for it when fetch `j - (nodes - 1)`
//!   was issued: deep enough to keep every node disk reading, and the
//!   server never holds more than `repo_nodes` fetched containers the
//!   client has seen nothing of. With one node, reads and sends take
//!   turns; an audit sends nothing and is never held back.
//!
//! The server's clock jumps to the end of the schedule; the lanes' busy
//! times are reported beside it ([`RestoreReport::serial_s`] is what one
//! clock would have charged). Nothing runs concurrently — the overlap is
//! arithmetic on `free_at`.

use super::{lookup_with_owner, DebarCluster, LayoutTracker};
use crate::error::{DebarError, DebarResult};
use crate::ids::RunId;
use crate::report::RestoreReport;
use crate::server::BackupServer;
use debar_hash::{Fingerprint, Sha1};
use debar_simio::{Lane, Secs};
use debar_store::{ChunkRepository, CorruptKind, LpcStats, NodeRead, Payload, ReadLegs};

/// The device timelines of one restore walk, in server-clock time.
struct RestoreLanes {
    /// Where the resolver is: everything it needs to look at the next
    /// recipe entry — the answer to its last lookup, the metadata section
    /// of its last fetch — is in by this time.
    at: Secs,
    resolve: Lane,
    nodes: Vec<Lane>,
    send: Lane,
    /// `queued[j % nodes]`: where the send lane's queue ended when fetch
    /// `j` was issued — what [`Self::depth_gate`] holds later fetches to.
    queued: Vec<Secs>,
    fetches: usize,
}

impl RestoreLanes {
    fn new(start: Secs, nodes: usize) -> Self {
        RestoreLanes {
            at: start,
            resolve: Lane::new(),
            nodes: vec![Lane::new(); nodes],
            send: Lane::new(),
            queued: vec![0.0; nodes],
            fetches: 0,
        }
    }

    /// Count a fetch and return the time its read-ahead depth allows it
    /// to start: when the client has been sent everything that was queued
    /// as the fetch `nodes - 1` before this one was issued (with one
    /// node: everything queued by now).
    fn depth_gate(&mut self) -> Secs {
        let (j, n) = (self.fetches, self.queued.len());
        self.fetches += 1;
        self.queued[j % n] = self.send.free_at;
        self.queued[(j + 1) % n]
    }

    /// The resolver waits out an index lookup.
    fn lookup(&mut self, cost: Secs) {
        self.at = self.resolve.run(self.at, cost);
    }

    /// Put a container read's legs on their nodes' lanes, one after the
    /// other (a replica is only tried once the one before it has failed),
    /// starting no sooner than `gate` and the read-ahead depth allow. The
    /// resolver moves on once the serving read's metadata section is in —
    /// or, when no copy served, once the last attempt has failed. Returns
    /// the completion time of the whole read.
    fn fetch(&mut self, gate: Secs, legs: &ReadLegs) -> Secs {
        let mut t = self.at.max(gate).max(self.depth_gate());
        for &(node, cost) in &legs.failed {
            t = self.nodes[node].run(t, cost);
        }
        self.at = t;
        if let Some(served) = legs.served {
            t = self.nodes[served.node].run(t, served.cost);
            self.at = self.at.max(t - served.data_tail);
        }
        for &(node, cost) in &legs.repairs {
            t = self.nodes[node].run(t, cost);
        }
        t
    }

    /// When the last device falls idle.
    fn end(&self) -> Secs {
        (self.nodes.iter()).fold(self.at.max(self.send.free_at), |t, n| t.max(n.free_at))
    }
}

impl DebarCluster {
    /// Restore one run: file indices from the director, fingerprints
    /// resolved via LPC / owner index parts, chunks read from repository
    /// containers, payloads verified (SHA-1 for real bytes) and streamed to
    /// the client — index lookups, node reads and the client stream
    /// overlapping on their own device lanes (see the `restore.rs` module
    /// docs; the report carries each lane's busy time beside `elapsed`).
    ///
    /// Strict: an unknown run, an unresolvable chunk, a missing container
    /// or a detected corruption aborts with the matching typed
    /// [`DebarError`] (use [`DebarCluster::verify_run`] for the auditing
    /// walk that counts problems instead).
    pub fn restore_run(&mut self, run: RunId) -> DebarResult<RestoreReport> {
        self.restore_impl(run, None, true)
    }

    /// Verify one run (the director's third job kind, §3.1): walk the file
    /// indices and check that every chunk is resolvable, readable and
    /// hashes back to its fingerprint — without streaming anything to a
    /// client, so the walk is bound by the repository disks alone.
    /// Integrity problems (missing chunks, corrupt containers, injected
    /// read faults) are *counted* in [`RestoreReport::failures`], not
    /// returned as errors: a verify job is an audit and must survey the
    /// whole run.
    pub fn verify_run(&mut self, run: RunId) -> DebarResult<RestoreReport> {
        self.restore_impl(run, None, false)
    }

    /// Restore a single file of a run by its dataset path. Typed errors:
    /// [`DebarError::UnknownRun`], [`DebarError::UnknownPath`], plus the
    /// strict-restore errors of [`DebarCluster::restore_run`].
    pub fn restore_file(&mut self, run: RunId, path: &str) -> DebarResult<RestoreReport> {
        self.restore_impl(run, Some(path), true)
    }

    fn restore_impl(
        &mut self,
        run: RunId,
        only_path: Option<&str>,
        to_client: bool,
    ) -> DebarResult<RestoreReport> {
        // The recipe is read in place: the walk needs the servers and the
        // repository mutably, never the director.
        let DebarCluster {
            director,
            servers,
            repo,
            cfg,
            ..
        } = self;
        let record = (director.metadata.run(run)).ok_or(DebarError::UnknownRun { run })?;
        let sid = record.server as usize;
        let start = servers[sid].clock.now();
        let lpc_before = servers[sid].lpc.stats();
        let repo_before = repo.stats();
        let (mut files, mut chunks, mut bytes, mut failures) = (0u64, 0u64, 0u64, 0u64);
        let mut walk = RestoreWalk {
            lanes: RestoreLanes::new(start, repo.node_count()),
            tracker: LayoutTracker::default(),
            servers: &mut *servers,
            repo: &mut *repo,
            w_bits: cfg.w_bits,
            sid,
            to_client,
        };
        let walked = 'walk: {
            for file in &record.files {
                if only_path.is_some_and(|p| file.path != p) {
                    continue;
                }
                files += 1;
                for fp in &file.fingerprints {
                    chunks += 1;
                    match walk.chunk(fp) {
                        Ok(len) => bytes += len as u64,
                        // The audit counts what the strict restore dies of.
                        Err(_) if !to_client => failures += 1,
                        Err(e) => break 'walk Err(e),
                    }
                }
            }
            Ok(())
        };
        let RestoreWalk { lanes, tracker, .. } = walk;
        // The devices were busy whether or not the walk got to its end.
        servers[sid].clock.advance_to(lanes.end());
        walked?;
        if let Some(p) = only_path {
            if files == 0 {
                return Err(DebarError::UnknownPath {
                    run,
                    path: p.to_string(),
                });
            }
        }
        // The LPC's and the repository's own view of this walk: deltas of
        // their cumulative counters (evictions, degraded reads, retries).
        let lpc_after = servers[sid].lpc.stats();
        let repo_after = repo.stats();
        Ok(RestoreReport {
            run,
            files,
            bytes,
            chunks,
            lpc: LpcStats {
                hits: lpc_after.hits - lpc_before.hits,
                misses: lpc_after.misses - lpc_before.misses,
                evictions: lpc_after.evictions - lpc_before.evictions,
            },
            layout: tracker.finish(chunks, bytes),
            failures,
            failover_reads: repo_after.failover_reads - repo_before.failover_reads,
            corrupt_reads: repo_after.corrupt_reads - repo_before.corrupt_reads,
            retried_ops: repo_after.retried_ops - repo_before.retried_ops,
            resolve_s: lanes.resolve.busy,
            node_read_s: lanes.nodes.iter().map(|n| n.busy).fold(0.0, f64::max),
            node_read_total_s: lanes.nodes.iter().map(|n| n.busy).sum(),
            send_s: lanes.send.busy,
            elapsed: servers[sid].clock.since(start),
        })
    }
}

/// One restore walk in progress: the devices it touches, where it runs
/// and its timelines.
struct RestoreWalk<'a> {
    servers: &'a mut [BackupServer],
    repo: &'a mut ChunkRepository,
    w_bits: u32,
    /// The restoring server.
    sid: usize,
    /// Stream to the client (restore) or only check (verify).
    to_client: bool,
    lanes: RestoreLanes,
    tracker: LayoutTracker,
}

impl RestoreWalk<'_> {
    /// One recipe entry: resolve the chunk's container (LPC, else index
    /// lookup + container fetch), verify the payload and queue it for the
    /// client. Returns the chunk's length, or the typed error a strict
    /// restore aborts with.
    fn chunk(&mut self, fp: &Fingerprint) -> DebarResult<u32> {
        let (sid, lanes) = (self.sid, &mut self.lanes);
        let cid = match self.servers[sid].lpc.lookup(fp) {
            Some(cid) => cid,
            None => {
                let owner = fp.server_number(self.w_bits) as usize;
                let found = lookup_with_owner(self.servers, sid, owner, fp);
                lanes.lookup(found.cost);
                let cid = found.value.ok_or(DebarError::MissingChunk {
                    fp: *fp,
                    container: None,
                })?;
                let NodeRead { value, legs } = self.repo.read(cid);
                let container = match value {
                    Ok(Some(c)) => c,
                    failed => {
                        lanes.fetch(lanes.at, &legs);
                        failed?;
                        return Err(DebarError::MissingContainer { container: cid });
                    }
                };
                // The cache slot is the read-ahead buffer: the fetch waits
                // for the container it evicts to have been streamed out.
                self.servers[sid].cache_container(cid, container, |victim_sent| {
                    lanes.fetch(lanes.at.max(victim_sent), &legs)
                });
                cid
            }
        };
        self.tracker.observe(cid);
        let missing = || DebarError::MissingChunk {
            fp: *fp,
            container: Some(cid),
        };
        let srv = &mut self.servers[sid];
        let cached = srv.container_cache.get_mut(&cid).ok_or_else(missing)?;
        let (len, payload) = cached.chunk(fp).ok_or_else(missing)?;
        if !verify_payload(fp, &payload) {
            return Err(DebarError::CorruptContainer {
                container: cid,
                reason: CorruptKind::PayloadMismatch,
            });
        }
        if self.to_client {
            let ready = lanes.at.max(cached.ready_at);
            cached.last_sent = lanes.send.run(ready, srv.nic.stream(len as u64));
        }
        Ok(len)
    }
}

/// Verify a restored payload against its fingerprint: real bytes must hash
/// back to the fingerprint; synthetic zero payloads are length-checked
/// (their fingerprints are counter-derived, §6.2).
fn verify_payload(fp: &Fingerprint, payload: &Payload) -> bool {
    match payload {
        Payload::Real(bytes) => &Fingerprint(Sha1::digest(bytes)) == fp,
        Payload::Zero(len) => *len > 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::LayoutReport;
    use crate::config::DebarConfig;
    use crate::dataset::Dataset;
    use crate::ids::{ClientId, Device, JobId};
    use debar_simio::models::paper;
    use debar_simio::{FaultPlan, RetryPolicy};
    use debar_store::Damage;
    use debar_workload::drift::records;

    /// Two overlapping generations of one job, deduplicated: 24 one-MiB
    /// containers against an 8-container LPC.
    fn two_generations(cfg: DebarConfig) -> (DebarCluster, JobId) {
        let mut c = DebarCluster::new(cfg);
        let job = c.define_job("j", ClientId(0));
        for range in [0..2000, 1000..3000] {
            c.backup(job, &Dataset::from_records("s", records(range)))
                .expect("backup");
            c.run_dedup2().expect("dedup2");
        }
        (c, job)
    }

    fn close(a: Secs, b: Secs) -> bool {
        (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
    }

    /// Busy seconds of every repository node's disk so far.
    fn node_busy(c: &DebarCluster) -> Vec<Secs> {
        (c.repo.nodes().iter())
            .map(|n| n.disk_stats().busy_s)
            .collect()
    }

    /// The walk's node lanes are the node disks: the busiest and the
    /// total the report carries are those of the per-disk busy deltas.
    fn assert_lanes_are_the_disks(r: &RestoreReport, before: &[Secs], c: &DebarCluster) {
        let deltas: Vec<Secs> = (node_busy(c).iter().zip(before))
            .map(|(after, before)| after - before)
            .collect();
        let busiest = deltas.iter().copied().fold(0.0, f64::max);
        let total: Secs = deltas.iter().sum();
        assert!(
            close(r.node_read_s, busiest) && close(r.node_read_total_s, total),
            "lanes (busiest {}, total {}) vs disks {deltas:?}",
            r.node_read_s,
            r.node_read_total_s
        );
    }

    /// One walk of the serial restore at the parent commit, as it printed
    /// it: what the pipelined walk must reproduce.
    struct Probed {
        tag: &'static str,
        version: u32,
        to_client: bool,
        /// Bit-flip one copy of the first container before the walk.
        corrupt: u64,
        bytes: u64,
        /// LPC hits, misses, evictions.
        lpc: (u64, u64, u64),
        containers: u64,
        /// `device_ops` of node 0, node 1 and the index volume after.
        ops: [u64; 3],
        elapsed: Secs,
    }

    #[test]
    fn pipelined_walk_keeps_the_serial_walks_outputs_and_reports_its_time() {
        // Probed at the parent commit on this history (2 nodes, R = 2,
        // one server — so the remote-lookup hop does not enter). The
        // device op order is unchanged, so every non-time output and op
        // counter must match, and `serial_s()` must be the time the
        // serial walk charged.
        #[rustfmt::skip]
        let probed = [
            Probed { tag: "restore v1", version: 1, to_client: true, corrupt: 0, bytes: 16374979, lpc: (1983, 17, 9), containers: 17, ops: [32, 33, 23], elapsed: 0.2153417283518137 },
            Probed { tag: "restore v0", version: 0, to_client: true, corrupt: 0, bytes: 16162137, lpc: (1984, 16, 16), containers: 16, ops: [40, 41, 39], elapsed: 0.2060823280211772 },
            Probed { tag: "verify v1", version: 1, to_client: false, corrupt: 0, bytes: 16374979, lpc: (1983, 17, 17), containers: 17, ops: [49, 49, 56], elapsed: 0.14097793357090305 },
            Probed { tag: "repair v0", version: 0, to_client: true, corrupt: 1, bytes: 16162137, lpc: (1984, 16, 16), containers: 16, ops: [58, 58, 72], elapsed: 0.21692389944974833 },
        ];
        let devices = [
            Device::RepoNode(0),
            Device::RepoNode(1),
            Device::IndexPart { server: 0, part: 0 },
        ];
        let (mut c, job) = two_generations(DebarConfig::tiny_test(0).with_replication(2));
        for p in probed {
            let (tag, run) = (
                p.tag,
                RunId {
                    job,
                    version: p.version,
                },
            );
            if p.corrupt > 0 {
                let first = c.repo.container_ids()[0];
                c.set_damage(first, Some(Damage::BitFlip)).expect("exists");
            }
            let r = if p.to_client {
                c.restore_run(run)
            } else {
                c.verify_run(run)
            }
            .expect(tag);
            assert_eq!((r.files, r.bytes, r.chunks), (1, p.bytes, 2000), "{tag}");
            assert_eq!((r.lpc.hits, r.lpc.misses, r.lpc.evictions), p.lpc, "{tag}");
            let layout = LayoutReport {
                containers_touched: p.containers,
                fragments: p.containers,
                chunks: 2000,
                bytes: p.bytes,
            };
            assert_eq!(r.layout, layout, "{tag}");
            assert_eq!(
                (r.failures, r.failover_reads, r.corrupt_reads, r.retried_ops),
                (0, 0, p.corrupt, 0),
                "{tag}"
            );
            let ops = devices.map(|d| c.device_ops(d).expect("device"));
            assert_eq!(ops, p.ops, "{tag}");
            assert!(
                close(r.serial_s(), p.elapsed),
                "{tag}: serial_s {} vs the serial walk's {}",
                r.serial_s(),
                p.elapsed
            );
            assert!(
                r.elapsed < 0.75 * p.elapsed,
                "{tag}: two nodes and a NIC must overlap, elapsed {} of {}",
                r.elapsed,
                p.elapsed
            );
            assert_eq!(r.send_s > 0.0, p.to_client, "{tag}: only a restore sends");
        }
    }

    #[test]
    fn remote_lookup_costs_a_request_and_a_reply() {
        // One single-chunk run per round on a 2-server cluster, each chunk
        // in its own container: every restore is one miss, resolved on
        // the restoring server's own part or on its peer's.
        let mut c = DebarCluster::new(DebarConfig::tiny_test(1));
        let job = c.define_job("j", ClientId(0));
        for k in 0..8 {
            c.backup(job, &Dataset::from_records("s", records(k..k + 1)))
                .expect("backup");
            c.run_dedup2().expect("dedup2");
        }
        let hop = paper::server_nic().message_cost(64);
        let mut resolve = [None, None];
        for version in 0..8 {
            let run = RunId { job, version };
            let record = c.director.metadata.run(run).expect("recorded");
            let owner = record.files[0].fingerprints[0].server_number(1) as u16;
            let (sid, remote) = (record.server, owner != record.server);
            let messages = [sid, owner].map(|s| c.servers[s as usize].nic.stats().messages);
            let r = c.restore_run(run).expect("restore");
            assert_eq!((r.lpc.misses, r.failures), (1, 0));
            let sent = [sid, owner].map(|s| c.servers[s as usize].nic.stats().messages);
            if remote {
                assert_eq!(sent, messages.map(|m| m + 1), "one message each way");
            } else {
                assert_eq!(sent, messages, "a local lookup sends nothing");
            }
            let seen = resolve[remote as usize].get_or_insert(r.resolve_s);
            assert_eq!(*seen, r.resolve_s, "every lookup of a kind costs the same");
        }
        let [Some(local), Some(remote)] = resolve else {
            panic!("eight fingerprints must land on both parts: {resolve:?}");
        };
        assert_eq!(
            remote,
            local + 2.0 * hop,
            "the resolver waits for the request and for the answer"
        );
    }

    #[test]
    fn a_window_of_one_serializes_reads_and_sends() {
        // With one cache slot a fetch must wait until the container it
        // evicts has been streamed out: node reads and the client stream
        // take turns, and only the index lookups (issued off the
        // metadata section, while the read is still streaming) overlap.
        let mut narrow = DebarConfig::tiny_test(0);
        narrow.lpc_containers = 1;
        let (mut c, job) = two_generations(narrow);
        let r = c.restore_run(RunId { job, version: 1 }).expect("restore");
        let slack = 1e-9 * r.serial_s();
        assert!(
            r.serial_s() - r.resolve_s <= r.elapsed + slack && r.elapsed <= r.serial_s() + slack,
            "window 1: serial {} - resolve {} <= elapsed {} <= serial",
            r.serial_s(),
            r.resolve_s,
            r.elapsed
        );
        // The default window on the same history overlaps all three.
        let (mut c, job) = two_generations(DebarConfig::tiny_test(0));
        let wide = c.restore_run(RunId { job, version: 1 }).expect("restore");
        assert_eq!((wide.bytes, wide.lpc.misses), (r.bytes, r.lpc.misses));
        assert!(close(wide.serial_s(), r.serial_s()));
        assert!(wide.elapsed < 0.75 * r.elapsed);
    }

    #[test]
    fn verify_on_one_node_is_disk_bound() {
        // No client stream, one repository disk: after the first lookup
        // the disk never idles — each next lookup is issued off the
        // metadata section and answered long before the read in flight
        // has streamed its data section — so the walk takes the first
        // lookup plus every container read, back to back.
        let mut cfg = DebarConfig::tiny_test(0);
        cfg.repo_nodes = 1;
        let (mut c, job) = two_generations(cfg);
        let r = c.verify_run(RunId { job, version: 1 }).expect("verify");
        let lookup = paper::index_disk().rand_read_cost(cfg.bucket_bytes as u64)
            + paper::cpu().probe_cost(1);
        let read = paper::repo_disk().rand_read_cost(cfg.container_bytes);
        assert_eq!((r.failures, r.send_s), (0, 0.0));
        assert!(close(r.resolve_s, r.lpc.misses as f64 * lookup));
        assert!(close(r.node_read_s, r.lpc.misses as f64 * read));
        assert_eq!(r.node_read_s, r.node_read_total_s);
        assert!(
            close(r.elapsed, lookup + r.node_read_s),
            "elapsed {} vs first lookup {lookup} + reads {}",
            r.elapsed,
            r.node_read_s
        );
    }

    #[test]
    fn read_ahead_runs_one_container_per_node_ahead_of_the_client() {
        // One repository node, depth one: a fetch waits until everything
        // queued for the client has been sent, so the disk and the NIC
        // take turns and only the lookups (issued off the metadata
        // section) hide — all but the first.
        let mut cfg = DebarConfig::tiny_test(0);
        cfg.repo_nodes = 1;
        let (mut c, job) = two_generations(cfg);
        let one = c.restore_run(RunId { job, version: 1 }).expect("restore");
        let lookup = one.resolve_s / one.lpc.misses as f64;
        assert!(
            close(one.elapsed, lookup + one.node_read_s + one.send_s),
            "elapsed {} vs first lookup {lookup} + reads {} + sends {}",
            one.elapsed,
            one.node_read_s,
            one.send_s
        );
        // A second node deepens the read-ahead to two: the same reads now
        // overlap each other and the client stream.
        let (mut c, job) = two_generations(DebarConfig::tiny_test(0));
        let two = c.restore_run(RunId { job, version: 1 }).expect("restore");
        assert_eq!((two.bytes, two.lpc.misses), (one.bytes, one.lpc.misses));
        assert!(close(two.serial_s(), one.serial_s()));
        assert!(two.elapsed < 0.75 * one.elapsed);
        assert!(two.elapsed >= two.node_read_s.max(two.send_s));
    }

    #[test]
    fn failover_legs_land_on_their_own_nodes_lanes() {
        let cfg = DebarConfig::tiny_test(0).with_replication(2);
        let v1 = |job| RunId { job, version: 1 };

        // Preferred replica down: every read is served by the survivor,
        // whose lane alone is busy.
        let (mut c, job) = two_generations(cfg);
        c.set_repo_node_down(0).expect("node");
        let before = node_busy(&c);
        let r = c.restore_run(v1(job)).expect("degraded restore");
        assert!(r.failover_reads > 0 && r.failures == 0);
        assert_eq!(r.node_read_s, r.node_read_total_s);
        assert_lanes_are_the_disks(&r, &before, &c);

        // Preferred replica faulted past its retry budget, its sibling
        // faulted within it: the failed attempts and their back-off stay
        // on the faulted node's lane, the serving read (and its absorbed
        // retry) lands on the sibling's.
        let (mut c, job) = two_generations(cfg.with_retry(RetryPolicy::new(2, 0.002)));
        for (node, skip, fails_for) in [(0, 0, 2), (1, 1, 1)] {
            let device = Device::RepoNode(node);
            let at = c.device_ops(device).expect("node") + skip;
            c.arm(device, FaultPlan::transient_at(at, fails_for))
                .expect("arm");
        }
        let before = node_busy(&c);
        let r = c.restore_run(v1(job)).expect("failover restore");
        assert!(r.failover_reads > 0 && r.retried_ops > 1 && r.failures == 0);
        assert!(r.node_read_s < r.node_read_total_s, "both lanes worked");
        assert_lanes_are_the_disks(&r, &before, &c);

        // Corrupt copy: the full read that found it and the read-repair
        // write land on the corrupt node's lane.
        let (mut c, job) = two_generations(cfg);
        let first = c.repo.container_ids()[0];
        c.set_damage(first, Some(Damage::BitFlip)).expect("exists");
        let before = node_busy(&c);
        let repairs = c.repo.stats().read_repairs;
        let r = c.restore_run(RunId { job, version: 0 }).expect("restore");
        assert_eq!((r.corrupt_reads, r.failures), (1, 0));
        assert_eq!(c.repo.stats().read_repairs, repairs + 1);
        assert_lanes_are_the_disks(&r, &before, &c);
    }

    #[test]
    fn an_aborted_restore_still_names_the_device_and_charges_its_time() {
        // R = 1: a faulted read has no sibling to fail over to. The
        // strict restore aborts with the typed error naming the armed
        // device, the clock has paid for what the devices did up to the
        // fault, and the audit walk counts the same fault instead.
        let run = |job| RunId { job, version: 1 };
        let arm = |c: &mut DebarCluster| {
            let device = Device::RepoNode(1);
            let at = c.device_ops(device).expect("node") + 3;
            c.arm(device, FaultPlan::fail_at(at)).expect("arm");
            device
        };
        let (mut c, job) = two_generations(DebarConfig::tiny_test(0));
        let device = arm(&mut c);
        let start = c.now();
        let err = c.restore_run(run(job)).expect_err("sole copy unreadable");
        assert!(
            matches!(err, DebarError::DeviceFault { device: d, .. } if d == device),
            "expected a fault naming {device:?}, got {err}"
        );
        assert!(c.now() > start, "the devices were busy until the fault");

        let (mut c, job) = two_generations(DebarConfig::tiny_test(0));
        arm(&mut c);
        let audit = c.verify_run(run(job)).expect("the audit walks on");
        assert!(
            audit.failures > 0,
            "the audit counts what the restore died of"
        );
        assert!(audit.elapsed >= audit.node_read_s);
    }
}
