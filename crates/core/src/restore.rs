//! The restore path: **one pipelined walk over device timelines**.
//!
//! Restore, verify and single-file restore share one walk
//! (`restore_impl`). It visits the run's recipe in order and touches the
//! devices in exactly the order a serial walk would — LPC lookup, on a
//! miss the owning part's random index lookup, then the container read
//! with its failover legs — so op counters, fault offsets, cache counters
//! and every byte restored are those of a serial walk that evicts and
//! reads as this one does (the last two rules below). What differs is
//! **when** each device is busy. Every device is a
//! [`debar_simio::Lane`], which serves whatever is ready; the walk offers
//! the resolver and the send lane ready times that never decrease, and a
//! node lane too unless a read-repair write went before, so each runs its
//! operations in walk order:
//!
//! | lane | carries |
//! |---|---|
//! | resolve | index lookups (owner's index disk + the request/response hop when the owner is remote); the resolver waits for each answer, so the owners' disks never queue and share one lane |
//! | one per repository node | that node's container reads: failed and retried attempts, the serving read, read-repair writes — [`debar_store::ReadLegs`] says which node each attempt charged |
//! | send | the restoring server's NIC streaming verified chunks to the client, in recipe order |
//!
//! and the dependencies between them are:
//!
//! * **Read-ahead on unverified metadata.** A container's metadata section
//!   precedes its data section (paper §3.4), so `data_tail` seconds before
//!   a read completes the resolver knows the container's fingerprints and
//!   walks on: the next miss's lookup and read are issued while earlier
//!   reads are still in flight on other nodes. The early metadata only
//!   ever *schedules* a fetch.
//! * **A chunk goes out once its own bytes are in.** The read that
//!   serves a fetch says, for every chunk it returns, how long before it
//!   completed that chunk's last byte streamed in
//!   ([`debar_store::ServedLeg::tails`]: the rest of the I/O that read it,
//!   then every later I/O of the attempt), and the chunk enters the send
//!   lane at `max(resolver, serving read's completion − tail)` — after
//!   `verify_payload` has accepted it, like every chunk. Failed attempts
//!   precede the serving read and so are inside its completion; read-repair
//!   writes follow it and delay no chunk; a merge into a resident entry
//!   leaves the chunks already there with their own arrival. What does
//!   wait for the whole read — every extent in, every repair written — is
//!   giving the entry up (its `last_sent` starts there). The paper (§3.4)
//!   asks for no more: a container is self-described, and the data ahead
//!   of a chunk says nothing about the chunk. Until a chunk went out on
//!   its own bytes, nothing of an entry was sent before the last read into
//!   it was in — store-and-forward. Measured on `benchmark/`'s
//!   `filetree-bytes` (seed 1, latest generation, 24.3 MiB restored from 2
//!   nodes over a 210 MiB/s NIC), together with whole reads of the image
//!   rather than the slot (below): 88.1 → 125.3 MiB/s, 0.275 → 0.194 s
//!   elapsed for 0.116 s of sends; 80 → 51.5 MiB read from the nodes,
//!   busiest node 0.188 → 0.134 s. Image reads alone give 114.0,
//!   per-chunk arrival alone 119.4 (on slot reads a chunk is in before the
//!   padding behind it); `month-records` 178.3 → 197.0 and 188.5 → 205.4.
//! * **The cache is the read-ahead window, and the only one.** A fetch
//!   waits for the resolver to get to it and for the cache entries it
//!   evicts to have been fully sent — nothing else. What is resident, in
//!   flight or waiting to be streamed, the fetch coming in included,
//!   never weighs more than `lpc_containers × container_bytes` (the
//!   paper's LPC is a memory budget, §3.3): no second buffer, no new
//!   knob. While the cache has room the walk runs ahead of the client as
//!   far as the node disks take it; once it is full, every fetch is paced
//!   by the client stream freeing what it displaces. An audit sends
//!   nothing, so its entries are free the moment their read is in.
//!
//!   (Until PR 24 a second gate held fetch `j` until the client had been
//!   sent everything queued when fetch `j - (nodes - 1)` was issued — one
//!   container per repository node ahead of the client, with one node
//!   reads and sends taking turns. It was added to keep PR 14's gain
//!   under a spread bound, when it cost 8 %; once a miss was a ranged
//!   read it cost 28–31 % — `lifecycle-churn`, latest generation: 1.57 s
//!   elapsed for a busiest node of 1.04 s — and it is deleted, not
//!   switched off.)
//!
//! * **The walk chooses its victim from its recipe.** A restore, unlike a
//!   backup, holds its whole recipe before it reads a byte, so on a miss
//!   with the cache full it does not leave the eviction to recency. Among
//!   the resident containers **whose entry is already free when the fetch
//!   could start** — last chunk sent by the time the resolver is there
//!   (what a fetch waits for anyway) — it gives up the one whose next use
//!   in the rest of the recipe is farthest, one never needed again first,
//!   ties to the coldest; when no entry is free yet, the one that frees
//!   soonest (`choose_victim`). The rule is applied again, to the
//!   residents that are left and from the time the last victim frees,
//!   until the fetch fits — never to the container being fetched, whose
//!   resident entry the fetch merges into. The fetched chunks then enter
//!   their LPC entry's value through `LpcCache::insert_extents`, whose
//!   LRU has nothing left to evict. What the rule reads is a small index
//!   private to the walk (`RecipeIndex`):
//!   fingerprint → the recipe positions of the entries this walk visits
//!   (so a single-file restore and the audit index exactly what they walk), and
//!   per resident container the ascending positions it supplies *as the
//!   LPC would answer them*, with a cursor. It is built on the walk's
//!   first miss when the files it walks weigh more than the cache holds,
//!   else on the first miss that finds the cache full — no room for one
//!   more whole container (see *recipe-sized reads* below): a walk that
//!   never evicts pays nothing, and the cache holds the same bytes either
//!   way. A walk that knew no next use would take the coldest free entry
//!   — the paper's LRU is the no-knowledge case of this rule, and is what
//!   `debar-ddfs`' backup prefetch still runs.
//!
//!   The clause about free slots is not a refinement. Measured on
//!   `benchmark/`'s `lifecycle-churn` (restore of the latest generation,
//!   MiB/s, seed 1) with every gate and check of the walk kept: LRU 31.2;
//!   plain farthest-next-use 34.2 — 1.39x fewer misses, but the container
//!   needed last is time and again the one fetched or streamed a moment
//!   ago, so the fetch stalls on the cache gate above and the read-ahead
//!   with it (a restore that follows a restore got *slower* for fewer
//!   reads); exempting the `repo_nodes` most recent residents 40.3; the
//!   rule above 41.8, with no walk of any workload or figure slower than
//!   under LRU. The clause costs fetches where the walk is far ahead of
//!   its client: on a recipe that cycles, the entries already streamed
//!   out are the ones the cycle returns to soonest
//!   (`tests/restore_layout.rs::a_recipe_that_cycles_past_the_cache_…`:
//!   47 fetches for 54 visits where an audit, whose entries free at once,
//!   needs 14 — and still the faster walk, the NIC being what binds).
//!
//! * **The walk reads what its recipe needs.** The same knowledge says
//!   what a miss should fetch. A container is self-described — its
//!   metadata section lies ahead of its data — so once the walk reads its
//!   recipe (when `RecipeIndex` is built) a miss asks the repository for
//!   the metadata section and then only the extents that hold **chunks
//!   the rest of this walk's recipe still needs and no resident already
//!   answers for** (`ChunkRepository::read_chunks`). Adjacent wanted
//!   chunks share an extent, and the *gap law* settles the rest in
//!   `DiskModel` terms: the bytes between two wanted ranges are read
//!   through exactly when streaming them is no dearer than the seek that
//!   skipping them costs, `gap / read_bw <= seek_s` — and the metadata
//!   section is the first wanted range, so a first chunk close behind it
//!   comes in the same I/O; a range that would cost no less than the
//!   container in one piece is read as the container in one piece. Each
//!   I/O pays its own seek, but the attempt is one device op (fault
//!   offsets do not move), the resolver still walks on as soon as the
//!   metadata is in, and the cache gate and the victim rule above apply
//!   as they are.
//!
//!   A cache entry is therefore an **extent set, and the cache is bounded
//!   by their bytes**: the LPC maps exactly the fingerprints fetched, an
//!   entry weighs the payload bytes its fetches brought in (a whole
//!   container read by a walk that knows nothing: one full
//!   `container_bytes` slot, so a cache of whole entries holds exactly
//!   `lpc_containers` of them), and as many entries stay as weigh no more
//!   than the budget together — about six times as many as slots where a
//!   ranged fetch brings in a sixth of its container. A later miss on a
//!   fingerprint whose container is resident but does not hold it
//!   (another run's recipe, another file's, wanted other chunks) fetches
//!   the missing wanted chunks and **merges them into that entry**, which
//!   grows by them: victims only if the growth does not fit, the merged
//!   chunks each sent once in, those already there as before, and the
//!   entry not given up before the merge is in.
//!
//!   What is verified is what is read. A ranged read cannot check a
//!   checksum trailer it did not read, so the repository checks that the
//!   header and the metadata section parse and that every wanted chunk
//!   is listed there and hashes back to its fingerprint; a copy failing
//!   that is a corrupt read exactly as a failed trailer is — counted,
//!   the node's error recorded, the next replica tried, and tried
//!   *whole*, so that the read-repair writes back a trailer-verified
//!   image. Damage in bytes the walk skipped does not stop it, and is
//!   the next whole read's or scrub's to find.
//!
//! * **Recipe-sized reads.** When the walk reads its recipe is decided by
//!   the recipe's size. A walk whose files weigh more than the cache holds
//!   (`LpcCache::budget`) will fill it and evict, so it reads its recipe
//!   on its first miss and reads by range from there; a walk whose files
//!   fit does so only at the first miss that finds no room for a whole
//!   container — in a cache another walk left full. Until then it knows
//!   nothing and wants every chunk of the container, which the repository
//!   reads as the paper's whole container in one I/O: the whole-extent
//!   case of the same miss path. It reads the container's image — header,
//!   metadata section, data, trailer — not the fixed-size slot it was
//!   written to, so the last container of a round, sealed early, is not
//!   read to the end of its padding. Reading whole is not caution: LPC's
//!   locality prefetch is what makes a second restore of a small tree
//!   warm, and reading by range from the first miss of *every* walk
//!   un-warms it (`benchmark/`'s `filetree-bytes`, oldest generation:
//!   210.0 → 131.8 MiB/s, measured); its walks fit the cache and keep the
//!   whole reads, as do `month-records`'. A walk that will evict gains
//!   nothing by reading whole first: what a whole read brings in beyond
//!   its recipe only takes cache room the recipe will want. Ranged reads
//!   measured where the cache does fill (`lifecycle-churn`, seed 1,
//!   MiB/s): latest
//!   generation 41.8 → 97.4, oldest 46.2 → 105.6; `cluster-multistream`
//!   53.8 → 109.7 and 64.9 → 122.8; over their restores the repository
//!   nodes read 1.26 and 1.24 bytes per byte restored where they read
//!   8.18 and 5.80. Counting the cache in bytes and letting it be the
//!   only gate then took the same four cells to 155.5 and 166.2, 172.9
//!   and 190.0 (from 96.7 and 103.7, 109.7 and 122.8 after PR 23; the
//!   gate's removal alone 133.4 and 145.6 on `lifecycle-churn`, the byte
//!   budget alone 115.7 and 125.3), and image reads with per-chunk
//!   arrival to 157.5 and 168.1, 174.3 and 191.1.
//!
//! * **A fetch goes where the disk is free.** Of a container's copies the
//!   repository reads the one whose node lane can start the read
//!   soonest — the walk tells it, per node, `max(lane
//!   free, resolver)` — and only then the one whose disk has read least;
//!   a fetch whose lanes all start alike takes the copy byte balance
//!   names, as every reader without lanes does. Byte balance alone would
//!   queue a fetch behind an earlier read on its node while the other
//!   copy's node sits idle, and the resolver, waiting for the fetch's
//!   metadata section, with it. A faulted or corrupt copy still fails
//!   over to the next in that order.
//!
//!   The three rules together — recipe-sized reads, the gap law from the
//!   metadata section, the copy whose lane starts first — measured on
//!   `benchmark/` (seed 1, MiB/s): `lifecycle-churn` latest 157.5 →
//!   173.6, oldest 168.1 → 176.9; `cluster-multistream` 174.3 → 190.1
//!   and 191.1 → 197.1. What binds after that is node seconds per byte
//!   restored — the fragmentation GC compaction leaves.
//!
//! The server's clock jumps to the end of the schedule; the lanes' busy
//! times are reported beside it ([`RestoreReport::serial_s`] is what one
//! clock would have charged). Nothing runs concurrently — the overlap is
//! arithmetic on the lanes' busy intervals.

use super::DebarCluster;
use crate::error::{DebarError, DebarResult};
use crate::ids::RunId;
use crate::metadata::{FileIndexEntry, RunRecord};
use crate::report::{LayoutReport, RestoreReport};
use crate::server::{BackupServer, CachedContainer};
use debar_hash::{ContainerId, Fingerprint, FpMap, Sha1};
use debar_simio::{Lane, Secs, Timed};
use debar_store::{ChunkRepository, CorruptKind, LpcCache, LpcStats, NodeRead, Payload, ReadLegs};
use std::collections::{HashMap, HashSet};

/// Accumulates [`LayoutReport`] facts chunk by chunk during a restore
/// walk.
#[derive(Default)]
struct LayoutTracker {
    seen: HashSet<ContainerId>,
    last: Option<ContainerId>,
    fragments: u64,
}

impl LayoutTracker {
    /// Record that the next restored chunk came from `cid`.
    fn observe(&mut self, cid: ContainerId) {
        self.seen.insert(cid);
        if self.last != Some(cid) {
            self.fragments += 1;
            self.last = Some(cid);
        }
    }

    /// Finish the walk into a report (`chunks`/`bytes` come from the
    /// restore's own counters so failures are accounted consistently).
    fn finish(self, chunks: u64, bytes: u64) -> LayoutReport {
        LayoutReport {
            containers_touched: self.seen.len() as u64,
            fragments: self.fragments,
            chunks,
            bytes,
        }
    }
}

/// The device timelines of one restore walk, in server-clock time.
struct RestoreLanes {
    /// Where the resolver is: everything it needs to look at the next
    /// recipe entry — the answer to its last lookup, the metadata section
    /// of its last fetch — is in by this time. It is also the earliest
    /// the next fetch could start.
    at: Secs,
    resolve: Lane,
    nodes: Vec<Lane>,
    send: Lane,
}

impl RestoreLanes {
    fn new(start: Secs, nodes: usize) -> Self {
        RestoreLanes {
            at: start,
            resolve: Lane::new(),
            nodes: vec![Lane::new(); nodes],
            send: Lane::new(),
        }
    }

    /// When each node's lane could start a fetch the resolver issues now:
    /// once the resolver has got to it and the lane is through with what
    /// it already holds.
    fn starts(&self) -> Vec<Secs> {
        (self.nodes.iter())
            .map(|n| n.free_at.max(self.at))
            .collect()
    }

    /// The resolver waits out an index lookup.
    fn lookup(&mut self, cost: Secs) {
        self.at = self.resolve.run(self.at, cost);
    }

    /// Put a container read's legs on their nodes' lanes, one after the
    /// other (a replica is only tried once the one before it has failed),
    /// in the order the repository tried them: the copy whose lane
    /// [`Self::starts`] the soonest, ties to the least-read. It starts once the resolver has got to it and no
    /// sooner than `gate` (the cache entries it evicts have been streamed
    /// out) — the two things a fetch waits for. The resolver moves on
    /// once the serving read's metadata section is in — or, when no copy
    /// served, once the last attempt has failed. Returns when the serving
    /// leg completed (the last failed attempt, when none served) and when
    /// the whole read did, read-repair writes included.
    fn fetch(&mut self, gate: Secs, legs: &ReadLegs) -> (Secs, Secs) {
        let mut t = self.at.max(gate);
        for &(node, cost) in &legs.failed {
            t = self.nodes[node].run(t, cost);
        }
        self.at = t;
        if let Some(served) = &legs.served {
            t = self.nodes[served.node].run(t, served.cost);
            self.at = self.at.max(t - served.data_tail);
        }
        let served = t;
        for &(node, cost) in &legs.repairs {
            t = self.nodes[node].run(t, cost);
        }
        (served, t)
    }

    /// Stream a chunk of `cost` seconds to the client once it has
    /// `arrived` and the resolver has got to it, and after the chunk before
    /// it: the client reads a stream, in recipe order, so the send lane is
    /// never offered an idle interval an earlier chunk left — its `ready`
    /// never drops below its last send's end, which makes it FIFO.
    /// Returns when the chunk is out.
    fn send(&mut self, arrived: Secs, cost: Secs) -> Secs {
        let ready = self.at.max(arrived).max(self.send.free_at);
        self.send.run(ready, cost)
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
        let walked_bytes: u64 = walked_files(record, only_path).map(|f| f.bytes).sum();
        let outgrows_cache = walked_bytes > servers[sid].lpc.budget();
        let mut walk = RestoreWalk {
            lanes: RestoreLanes::new(start, repo.node_count()),
            tracker: LayoutTracker::default(),
            servers: &mut *servers,
            repo: &mut *repo,
            w_bits: cfg.w_bits,
            container_bytes: cfg.container_bytes,
            sid,
            to_client,
            record,
            only_path,
            outgrows_cache,
            recipe: None,
        };
        let walked = 'walk: {
            for file in walked_files(record, only_path) {
                files += 1;
                for fp in &file.fingerprints {
                    let pos = chunks as usize;
                    chunks += 1;
                    match walk.chunk(pos, fp) {
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

/// The files of a run that a walk visits, in walk order: all of them, or
/// the one `restore_file` names. A recipe *position* counts the
/// fingerprints of these files, from 0.
fn walked_files<'r>(
    record: &'r RunRecord,
    only_path: Option<&'r str>,
) -> impl DoubleEndedIterator<Item = &'r FileIndexEntry> {
    (record.files.iter()).filter(move |f| only_path.is_none_or(|p| f.path == p))
}

/// One resident container as the victim choice sees it.
struct Resident<T> {
    id: T,
    /// The next recipe position that needs it; `None` when no later one
    /// is known to.
    next_use: Option<usize>,
    /// When its cache slot falls free: its last chunk has left the NIC.
    free_at: Secs,
}

/// The victim rule. Of the residents — **coldest first** — whose slot is
/// already free when the fetch could `start`, give up the one needed
/// farthest ahead, one with no known use before any with one, ties to the
/// coldest; when every slot is still busy, the one that frees soonest
/// (ties to the coldest again). A caller that knows no next use and no
/// time gets the coldest resident: LRU.
fn choose_victim<T>(residents: impl Iterator<Item = Resident<T>>, start: Secs) -> Option<T> {
    let (mut farthest, mut soonest): (Option<Resident<T>>, Option<Resident<T>>) = (None, None);
    for r in residents {
        if r.free_at <= start {
            // No known use must rank farthest, but `None` sorts below
            // `Some`: lead with `is_none`.
            let key = |r: &Resident<T>| (r.next_use.is_none(), r.next_use);
            if farthest.as_ref().is_none_or(|best| key(&r) > key(best)) {
                farthest = Some(r);
            }
        } else if soonest.as_ref().is_none_or(|s| r.free_at < s.free_at) {
            soonest = Some(r);
        }
    }
    farthest.or(soonest).map(|r| r.id)
}

/// What a walk knows of the rest of its own recipe — built on the first
/// miss that finds the cache full, so a walk that never evicts never pays
/// for it. Only ever looked up by key: no `HashMap` order reaches a
/// victim choice. The maps' keys are drawn afresh for every build, so an
/// order that did leak would make two reps of one seed choose apart: the
/// key is what keeps this checked.
struct RecipeIndex {
    /// Fingerprint → the first and the last recipe position that hold it.
    spans: FpMap<(usize, usize)>,
    /// Position → the next position holding the same fingerprint
    /// ([`Self::END`] after the last).
    next_same: Vec<usize>,
    /// Per resident container: the positions it supplies, ascending, and
    /// how many of them the walk has passed.
    supplies: HashMap<ContainerId, (Vec<usize>, usize)>,
}

impl RecipeIndex {
    /// No position: ends a fingerprint's chain through `next_same`.
    const END: usize = usize::MAX;

    fn build(record: &RunRecord, only_path: Option<&str>) -> Self {
        let files = || walked_files(record, only_path);
        let len = files().map(|f| f.fingerprints.len()).sum();
        let mut spans = FpMap::with_capacity_and_hasher(len, Default::default());
        let mut next_same = vec![Self::END; len];
        let recipe = files().flat_map(|f| &f.fingerprints);
        for (pos, fp) in (0..len).rev().zip(recipe.rev()) {
            let (first, _last) = spans.entry(*fp).or_insert((Self::END, pos));
            next_same[pos] = std::mem::replace(first, pos);
        }
        RecipeIndex {
            spans,
            next_same,
            supplies: HashMap::new(),
        }
    }

    /// Whether the walk, standing at recipe position `pos`, still needs
    /// this fingerprint's chunk — for `pos` itself or for a later entry.
    fn needs(&self, fp: &Fingerprint, pos: usize) -> bool {
        self.spans.get(fp).is_some_and(|&(_, last)| last >= pos)
    }

    /// Note what a resident container supplies: the positions of its
    /// fingerprints the cache answers *with it* (a fingerprint two
    /// residents hold is the younger one's).
    fn admit(&mut self, cid: ContainerId, lpc: &LpcCache<CachedContainer>) {
        let fps = lpc.fingerprints(cid).unwrap_or_default();
        let mut positions = Vec::with_capacity(fps.len());
        for fp in fps {
            // Most of a container is not in the recipe: ask the recipe
            // first, the cache only about what it holds.
            let Some(&(first, _)) = self.spans.get(fp) else {
                continue;
            };
            if lpc.peek(fp) != Some(cid) {
                continue;
            }
            let mut pos = first;
            while pos != Self::END {
                positions.push(pos);
                pos = self.next_same[pos];
            }
        }
        positions.sort_unstable();
        self.supplies.insert(cid, (positions, 0));
    }

    /// The next resident to give up for the fetch of `keep` that the miss
    /// at recipe position `pos` needs and that could start at `start` —
    /// never `keep` itself, which the fetch merges into when resident.
    fn victim(
        &mut self,
        pos: usize,
        lpc: &LpcCache<CachedContainer>,
        keep: ContainerId,
        start: Secs,
    ) -> Option<ContainerId> {
        let residents = (lpc.residents().filter(|&id| id != keep)).map(|id| Resident {
            id,
            next_use: self.supplies.get_mut(&id).and_then(|(positions, passed)| {
                while positions.get(*passed).is_some_and(|&p| p <= pos) {
                    *passed += 1;
                }
                positions.get(*passed).copied()
            }),
            free_at: lpc.value(id).map_or(0.0, |c| c.last_sent),
        });
        let victim = choose_victim(residents, start)?;
        self.supplies.remove(&victim);
        Some(victim)
    }
}

/// One restore walk in progress: the devices it touches, where it runs
/// and its timelines.
struct RestoreWalk<'a> {
    servers: &'a mut [BackupServer],
    repo: &'a mut ChunkRepository,
    w_bits: u32,
    /// What a whole container weighs in the restore cache.
    container_bytes: u64,
    /// The restoring server.
    sid: usize,
    /// Stream to the client (restore) or only check (verify).
    to_client: bool,
    lanes: RestoreLanes,
    tracker: LayoutTracker,
    /// The run being walked and the one file of it `restore_file` wants.
    record: &'a RunRecord,
    only_path: Option<&'a str>,
    /// Whether the files the walk visits weigh more than the restore
    /// cache holds: then it reads its recipe from its first miss.
    outgrows_cache: bool,
    /// The walk's knowledge of its recipe, once it reads it.
    recipe: Option<RecipeIndex>,
}

impl RestoreWalk<'_> {
    /// One recipe entry, the `pos`-th of the walk: resolve the chunk's
    /// container (LPC, else index lookup + container fetch), verify the
    /// payload and queue it for the client. Returns the chunk's length,
    /// or the typed error a strict restore aborts with.
    fn chunk(&mut self, pos: usize, fp: &Fingerprint) -> DebarResult<u32> {
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
                // The walk reads its recipe — for the victims, and for what
                // to fetch — from its first miss when the files it walks
                // weigh more than the cache holds, else from the first miss
                // that finds no room for a whole container.
                let (srv, whole) = (&mut self.servers[sid], self.container_bytes);
                if self.recipe.is_none()
                    && (self.outgrows_cache || srv.lpc.shortfall(cid, whole) > 0)
                {
                    let mut index = RecipeIndex::build(self.record, self.only_path);
                    (srv.lpc.residents()).for_each(|resident| index.admit(resident, &srv.lpc));
                    self.recipe = Some(index);
                }
                // Knowing it, fetch what the rest of it needs from this
                // container and no resident already answers for; knowing
                // nothing, every chunk — which is the paper's whole
                // container, one I/O of its image. Either from the copy
                // whose node lane can start the read soonest.
                let recipe = self.recipe.as_ref();
                let starts = lanes.starts();
                let wanted = |fp: &Fingerprint| {
                    recipe.is_none_or(|recipe| recipe.needs(fp, pos) && srv.lpc.peek(fp).is_none())
                };
                let NodeRead { value, legs } = self.repo.read_chunks(cid, wanted, &starts);
                // The chunks, and how long before the serving read
                // completed each one's bytes were in.
                let (chunks, tails) = match (value, &legs.served) {
                    (Ok(Some(chunks)), Some(served)) => (chunks, served.tails.iter().copied()),
                    (failed, _) => {
                        lanes.fetch(lanes.at, &legs);
                        failed?;
                        return Err(DebarError::MissingContainer { container: cid });
                    }
                };
                // The cache is the read-ahead window, counted in bytes:
                // what is resident, in flight or waiting to be streamed,
                // this fetch included, never weighs more than the budget.
                // A whole container weighs one full slot of it, an extent
                // set its payload. Whatever must go to make room is the
                // residents the rest of the recipe needs last, among those
                // already streamed out — and the fetch waits for the last
                // of them to have been, and for nothing else.
                let bytes = match &self.recipe {
                    Some(_) => chunks.iter().map(|(_, p)| p.len()).sum(),
                    None => whole,
                };
                // The fetch waits for the last chunk of the residents it
                // evicts to have left the NIC, and merges into its own entry
                // when resident.
                let (at, lpc) = (lanes.at, &mut srv.lpc);
                let mut sent: Secs = 0.0;
                while lpc.shortfall(cid, bytes) > 0 {
                    let named = (self.recipe.as_mut())
                        .and_then(|recipe| recipe.victim(pos, lpc, cid, at.max(sent)));
                    let Some(gone) = named.and_then(|victim| lpc.evict(victim)) else {
                        break;
                    };
                    sent = sent.max(gone.last_sent);
                }
                let fps = chunks.iter().map(|(fp, _)| *fp).collect();
                let (evicted, entry) = lpc.insert_extents(cid, fps, bytes);
                let sent = (evicted.iter()).fold(sent, |sent, (_, gone)| sent.max(gone.last_sent));
                entry.merge(chunks, tails, lanes.fetch(sent, &legs));
                if let Some(recipe) = &mut self.recipe {
                    recipe.admit(cid, &srv.lpc);
                }
                cid
            }
        };
        self.tracker.observe(cid);
        let missing = || DebarError::MissingChunk {
            fp: *fp,
            container: Some(cid),
        };
        let srv = &mut self.servers[sid];
        let cached = srv.lpc.value_mut(cid).ok_or_else(missing)?;
        let (len, payload, arrived) = cached.chunk(fp).ok_or_else(missing)?;
        if !verify_payload(fp, &payload) {
            return Err(DebarError::CorruptContainer {
                container: cid,
                reason: CorruptKind::PayloadMismatch,
            });
        }
        if self.to_client {
            // A chunk goes out once its own bytes are in and the resolver
            // has got to it. Its entry may have been filled later than
            // this send ends: it stays until both.
            let sent = lanes.send(arrived, srv.nic.stream(len as u64));
            cached.last_sent = cached.last_sent.max(sent);
        }
        Ok(len)
    }
}

/// Random index lookup on `owner`'s part, as the requesting server `sid`
/// waits for it: the returned cost is the owner's index-disk read plus,
/// when the owner is remote, the request and the reply — one 64-byte
/// message each way. The devices tick here (the owner's index disk; for
/// a remote owner also both NICs and the owner's clock, busy serving);
/// the caller charges the returned cost to its own timeline.
fn lookup_with_owner(
    servers: &mut [BackupServer],
    sid: usize,
    owner: usize,
    fp: &Fingerprint,
) -> Timed<Option<ContainerId>> {
    if sid == owner {
        return servers[sid].index_mut().lookup_random(fp);
    }
    let request = servers[sid].nic.message(64);
    let srv = &mut servers[owner];
    let found = srv.index_mut().lookup_random(fp);
    let reply = srv.nic.message(64);
    srv.clock.advance(found.cost + reply);
    found.plus(request + reply)
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
    use crate::config::DebarConfig;
    use crate::dataset::Dataset;
    use crate::ids::{ClientId, Device, JobId};
    use debar_simio::models::paper;
    use debar_simio::{FaultPlan, RetryPolicy};
    use debar_store::Damage;
    use debar_workload::drift::{churn, records};
    use debar_workload::record::ChunkRecord;

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
        // Probed at the serial walk's commit on this history (2 nodes,
        // R = 2, one server — so the remote-lookup hop does not enter).
        // The device op order is unchanged, so every non-time output and
        // op counter must match, and `serial_s()` must be the time a
        // serial walk that reads what this one reads would have charged.
        //
        // The first two walks never meet a container twice, so which
        // resident they evict cannot show: their counters and op numbers
        // are the serial walk's own and must never move. The audit of v1
        // then starts with the last eight containers of v0 resident, the
        // next seven of which it needs at once: LRU flooded them out one
        // fetch ahead of their use — (1983, 17, 17), ops [49, 49, 56] —
        // while the walk that reads its recipe keeps them. That row and
        // the op counters after it were re-probed when the victim rule
        // arrived (`.claude/skills/verify/SKILL.md` says how), and again
        // when the cache came to be counted in bytes: under the slot rule
        // the audit's first fetch had to take one of the eight slots —
        // (1990, 10, 10), ops [45, 46, 49], 0.08169222067093189 s — although
        // the eight extent sets v0's walk left weigh 7.47 of the 8 MiB; its
        // own share of container 7 weighs 0.34 MiB and fits beside them,
        // so all eight stay until they have been used: one miss, lookup
        // and container read fewer. The repair row after it reads what it
        // read before (same seconds, one index op fewer behind it); that
        // its walk meets the damaged copy at all is now arranged below.
        //
        // The seconds were re-probed when ranged reads arrived: once the
        // eight slots have been full, a miss charges the metadata section
        // and the extents its recipe wants, not `container_bytes`. These
        // recipes want nearly every chunk of nearly every container, so
        // the seconds barely move — whole-container reads charged
        // 0.2153417283518137, 0.2060823280211772, 0.08292819621817746 and
        // 0.21692389944974833 — and no counter or op number moves at all:
        // a ranged attempt is still one device op.
        //
        // They were re-probed again when a whole read came to read the
        // container's image instead of its 1 MiB slot: the serial seconds
        // fell — from 0.21514107101353597, 0.20588167068289648,
        // 0.07360005838739278 and 0.21672324211146793 — and so did the
        // bytes each read adds to its node's load. A read takes the
        // replica that has read least, so which copy a read takes moved
        // with them, and with it the per-node split of the op counts:
        // [32, 33] → [33, 32], [40, 41] → [41, 40], [45, 45] → [46, 44],
        // [55, 54] → [56, 53]. The totals, every LPC counter and every byte
        // restored stay the serial walk's.
        //
        // They moved once more when a walk whose recipe outgrows the
        // cache (every walk here: 2000 chunks for 8 slots) came to read
        // by range from its first miss, the gap law to join the metadata
        // section to the first extent, and a fetch to take the copy whose
        // node lane can start it soonest. Only `restore v1`'s seconds
        // moved, by the first rule: its first fetch wants its container
        // from chunk 1000 on, and read by range instead of whole it skips
        // what lies ahead — serial 0.2123473698122333 →
        // 0.2113227591519528 s. The other walks' first fetches want every
        // chunk, which the ranged read reads whole. The lane key sends
        // reads to the idle node, so the per-node split moved again:
        // [33, 32] → [32, 33], [41, 40] → [40, 41], [46, 44] → [45, 45]
        // and [56, 53] → [54, 54] — the last total one fewer because the
        // loads the walks left take one read of the damaged container
        // fewer to level below.
        #[rustfmt::skip]
        let probed = [
            Probed { tag: "restore v1", version: 1, to_client: true, corrupt: 0, bytes: 16374979, lpc: (1983, 17, 9), containers: 17, ops: [32, 33, 23], elapsed: 0.2113227591519528 },
            Probed { tag: "restore v0", version: 0, to_client: true, corrupt: 0, bytes: 16162137, lpc: (1984, 16, 16), containers: 16, ops: [40, 41, 39], elapsed: 0.20373060973166357 },
            Probed { tag: "verify v1", version: 1, to_client: false, corrupt: 0, bytes: 16374979, lpc: (1991, 9, 9), containers: 17, ops: [45, 45, 48], elapsed: 0.07286852632458979 },
            Probed { tag: "repair v0", version: 0, to_client: true, corrupt: 1, bytes: 16162137, lpc: (1984, 16, 16), containers: 16, ops: [54, 54, 64], elapsed: 0.21457218116023502 },
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
                // The damaged copy is the primary's, and the walk's first
                // fetch — both lanes idle — takes the replica whose disk
                // has read least (ties: the primary). The walks so far
                // left that the other node: read the container from it
                // until the primary is the lighter one, or this walk would
                // never meet the damage.
                let read =
                    |c: &DebarCluster, n: usize| c.repo.nodes()[n].disk_stats().rand_read_bytes;
                let (primary, other) = (c.repo.node_of(first), 1 - c.repo.node_of(first));
                while read(&c, other) < read(&c, primary) {
                    c.repo.read(first).value.expect("the clean copy serves");
                }
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
    fn the_victim_is_the_free_slot_needed_last_else_the_one_that_frees_soonest() {
        let choose = |residents: &[(Option<usize>, Secs)], start| {
            let residents = residents
                .iter()
                .zip(0..)
                .map(|(&(next_use, free_at), id)| Resident {
                    id,
                    next_use,
                    free_at,
                });
            choose_victim(residents, start)
        };
        assert_eq!(choose(&[], 1.0), None);
        // Among free slots: the farthest next use.
        assert_eq!(
            choose(&[(Some(5), 0.0), (Some(9), 1.0), (Some(7), 0.5)], 1.0),
            Some(1)
        );
        // Never needed again goes before any needed one, however far.
        assert_eq!(
            choose(&[(Some(usize::MAX), 0.0), (None, 0.0), (Some(7), 0.0)], 1.0),
            Some(1)
        );
        // Ties go to the coldest — the first.
        assert_eq!(
            choose(&[(Some(3), 0.0), (Some(9), 0.0), (Some(9), 0.0)], 1.0),
            Some(1)
        );
        assert_eq!(choose(&[(None, 0.0), (None, 0.0)], 1.0), Some(0));
        // A busy slot is never taken while a free one exists, whatever it
        // holds: the container streamed a moment ago is the one the
        // recipe needs last, and waiting for it stalls the read-ahead.
        assert_eq!(
            choose(&[(None, 1.5), (Some(2), 1.0), (None, 2.0)], 1.0),
            Some(1)
        );
        // None free: the one that frees soonest, next uses set aside.
        assert_eq!(
            choose(&[(None, 3.0), (Some(2), 1.5), (None, 2.0)], 1.0),
            Some(1)
        );
        assert_eq!(choose(&[(Some(4), 2.0), (None, 2.0)], 1.0), Some(0));
    }

    #[test]
    fn a_choice_that_knows_nothing_is_the_lpcs_own_lru() {
        // No next use, no time: whatever the history of inserts and
        // touches, the rule names the container `insert_container` evicts.
        let fp = Fingerprint::of_counter;
        let mut lpc = LpcCache::new(4);
        for step in 0..64u64 {
            if lpc.len() == lpc.capacity() {
                let unknowing = lpc.residents().map(|id| Resident {
                    id,
                    next_use: None,
                    free_at: 0.0,
                });
                let chosen = choose_victim(unknowing, 0.0);
                let evicted = lpc.insert_container(ContainerId::new(100 + step), vec![fp(step)]);
                assert_eq!(evicted, Vec::from_iter(chosen), "step {step}");
            } else {
                lpc.insert_container(ContainerId::new(100 + step), vec![fp(step)]);
            }
            // Touch a resident picked by the step: recency is not
            // insertion order.
            lpc.lookup(&fp(step - step % 3));
        }
        assert!(lpc.stats().evictions > 50 && lpc.stats().hits > 50);
    }

    /// Misses of a `slots`-container cache over a container trace, every
    /// slot always free, evicting by [`choose_victim`] — told each
    /// resident's next use, or nothing.
    fn misses_of(trace: &[u8], slots: usize, knows_the_recipe: bool) -> usize {
        let mut cache: Vec<u8> = Vec::new();
        let mut misses = 0;
        for (pos, &c) in trace.iter().enumerate() {
            if let Some(at) = cache.iter().position(|&r| r == c) {
                cache.remove(at);
            } else {
                misses += 1;
                if cache.len() == slots {
                    let residents = cache.iter().map(|&id| Resident {
                        id,
                        next_use: (trace[pos..].iter().position(|&t| t == id))
                            .filter(|_| knows_the_recipe),
                        free_at: 0.0,
                    });
                    let victim = choose_victim(residents, 0.0).expect("a full cache");
                    cache.retain(|&r| r != victim);
                }
            }
            cache.push(c);
        }
        misses
    }

    /// The fewest misses any eviction policy can have: try every victim.
    fn optimal_misses(trace: &[u8], slots: usize, cache: &mut Vec<u8>) -> usize {
        let Some((&c, rest)) = trace.split_first() else {
            return 0;
        };
        if cache.contains(&c) {
            return optimal_misses(rest, slots, cache);
        }
        if cache.len() < slots {
            cache.push(c);
            let misses = 1 + optimal_misses(rest, slots, cache);
            cache.pop();
            return misses;
        }
        let mut best = usize::MAX;
        for slot in 0..slots {
            let victim = std::mem::replace(&mut cache[slot], c);
            best = best.min(1 + optimal_misses(rest, slots, cache));
            cache[slot] = victim;
        }
        best
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn prop_with_every_slot_free_the_rule_is_beladys(
            trace in proptest::collection::vec(0u8..6, 1..14),
            slots in 1usize..5,
        ) {
            let informed = misses_of(&trace, slots, true);
            proptest::prop_assert_eq!(informed, optimal_misses(&trace, slots, &mut Vec::new()));
            proptest::prop_assert!(informed <= misses_of(&trace, slots, false));
        }
    }

    /// The restore cache's memory law, which holds after any walk: the
    /// entries weigh no more than `lpc_containers × container_bytes`,
    /// every resident holds the chunks of exactly the fingerprints its LPC
    /// entry lists, and what they really hold is no more than what the LPC
    /// weighs them at. (That it holds at every *fetch* — the one coming in
    /// and those still in flight included — is `LpcCache::insert_extents`'
    /// own `debug_assert`, live in every test of this workspace.) Returns
    /// the number of residents.
    fn assert_cache_within_its_bytes(c: &DebarCluster, tag: &str) -> u64 {
        let (srv, cfg) = (&c.servers[0], &c.cfg);
        let budget = cfg.lpc_containers as u64 * cfg.container_bytes;
        assert_eq!(srv.lpc.budget(), budget, "{tag}");
        assert!(srv.lpc.weight() <= budget, "{tag}");
        let held = srv.restore_cache_payload(tag);
        assert!(
            held <= srv.lpc.weight(),
            "{tag}: {held} held, weighed {}",
            srv.lpc.weight()
        );
        srv.lpc.len() as u64
    }

    #[test]
    fn the_cache_never_outgrows_its_slots_and_keeps_what_the_next_walk_needs() {
        // Same memory at any budget. Until the cache was counted in bytes
        // this pinned the slot rule its name still carries — at most
        // `lpc_containers` entries, one eviction per fetch into a full
        // cache. An entry is an extent set and takes what it weighs, so
        // the law is now in bytes: after every walk each resident holds
        // the chunks its LPC entry lists, the entries weighing at most
        // `lpc_containers × container_bytes` together — there may be more
        // of them than slots, and one fetch may evict several or none;
        // every fetch enters as a new entry or merges into its own, so
        // the residents before a walk, its misses and its evictions
        // bound the residents after it; and every walk delivers every
        // byte.
        for slots in [1, 2, 8] {
            let mut cfg = DebarConfig::tiny_test(0);
            cfg.lpc_containers = slots;
            let (mut c, job) = two_generations(cfg);
            let mut resident = 0;
            for (version, to_client) in [(1, true), (0, true), (1, false), (1, true)] {
                let run = RunId { job, version };
                let r = if to_client {
                    c.restore_run(run)
                } else {
                    c.verify_run(run)
                }
                .expect("walk");
                let tag = format!("{slots} slots, v{version}, to_client {to_client}");
                assert_eq!((r.failures, r.chunks), (0, 2000), "{tag}");
                assert_eq!(r.lpc.hits + r.lpc.misses, r.chunks, "{tag}");
                let after = assert_cache_within_its_bytes(&c, &tag);
                assert!(after + r.lpc.evictions <= resident + r.lpc.misses, "{tag}");
                resident = after;
            }
        }
    }

    /// One stored container of a [`laid_out`] history: its id and, in
    /// stored order, the record counters of its chunks.
    type Stored = (ContainerId, Vec<u64>);

    /// A cluster whose first run stored `records(0..n)`, and where each
    /// record went. The layout is read back by one whole read each.
    fn laid_out(cfg: DebarConfig, n: u64) -> (DebarCluster, JobId, Vec<Stored>) {
        let mut c = DebarCluster::new(cfg);
        let job = c.define_job("j", ClientId(0));
        c.backup(job, &Dataset::from_records("base", records(0..n)))
            .expect("backup");
        c.run_dedup2().expect("dedup2");
        let counter: FpMap<u64> = (0..n).map(|i| (Fingerprint::of_counter(i), i)).collect();
        let layout = (c.repo.container_ids().into_iter())
            .map(|cid| {
                let stored = c.repo.read(cid).value.expect("clean").expect("stored");
                (cid, stored.fingerprints().map(|f| counter[&f]).collect())
            })
            .collect();
        (c, job, layout)
    }

    /// Back a dataset of stored records up as the job's next run.
    fn next_run(c: &mut DebarCluster, job: JobId, dataset: &Dataset) -> RunId {
        let run = c.backup(job, dataset).expect("backup").run;
        let d2 = c.run_dedup2().expect("dedup2");
        assert_eq!(d2.store.containers, 0, "every chunk is stored already");
        run
    }

    fn of_counters(name: &str, counters: &[u64]) -> Dataset {
        let records = counters.iter().map(|&i| ChunkRecord::of_counter(i));
        Dataset::from_records(name, records.collect())
    }

    /// Bytes the repository nodes' disks have read so far.
    fn node_bytes_read(c: &DebarCluster) -> u64 {
        (c.repo.nodes().iter())
            .map(|n| n.disk_stats().read_bytes())
            .sum()
    }

    /// What a ranged read of `counters` — chunks of one stored container
    /// — moves: the I/Os the gap law makes of its metadata section and
    /// their chunks, which read through what lies between them wherever
    /// streaming it is no dearer than a seek.
    fn ranged_bytes(stored: &Stored, counters: &[u64]) -> u64 {
        let meta = 6 + 32 * stored.1.len() as u64 + 20;
        let mut end = meta;
        let chunks = (stored.1.iter()).filter_map(|i| {
            let at = end;
            end += ChunkRecord::of_counter(*i).len as u64;
            counters.contains(i).then_some(at..end)
        });
        let ios = paper::repo_disk().wanted_extents(std::iter::once(0..meta).chain(chunks));
        ios.iter().map(|io| io.end - io.start).sum()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn prop_a_ranged_walk_restores_what_a_whole_container_walk_restores(
            visits in proptest::collection::vec((0usize..6, 0usize..100, 1usize..24), 1..14),
            slots in 1usize..5,
        ) {
            // Six containers, up to thirteen visits that each take a run
            // of chunks out of one of them, so the containers interleave.
            // The same recipe is walked twice and audited, so the second
            // and third walk start on the extent sets the one before left
            // — more of them than slots, when they are small.
            let mut cfg = DebarConfig::tiny_test(0);
            cfg.lpc_containers = slots;
            let (mut ranged, job, layout) = laid_out(cfg, 720);
            proptest::prop_assert_eq!(layout.len(), 6);
            // Eight slots never fill: that walk knows nothing and reads
            // whole containers throughout.
            let (mut whole, _, _) = laid_out(DebarConfig::tiny_test(0), 720);
            let recipe: Vec<u64> = (visits.iter())
                .flat_map(|&(container, from, len)| {
                    let held = &layout[container].1;
                    held[from.min(held.len() - 1)..(from + len).min(held.len())].to_vec()
                })
                .collect();
            let dataset = of_counters("visits", &recipe);
            let run = next_run(&mut ranged, job, &dataset);
            proptest::prop_assert_eq!(next_run(&mut whole, job, &dataset), run);
            for to_client in [true, true, false] {
                let read_before = node_bytes_read(&ranged);
                let walk = |c: &mut DebarCluster| if to_client {
                    c.restore_run(run)
                } else {
                    c.verify_run(run)
                };
                let (r, w) = (walk(&mut ranged).expect("ranged"), walk(&mut whole).expect("whole"));
                proptest::prop_assert_eq!(
                    (r.files, r.chunks, r.bytes, r.failures),
                    (w.files, w.chunks, w.bytes, w.failures)
                );
                proptest::prop_assert_eq!((r.bytes, r.failures), (dataset.logical_bytes(), 0));
                proptest::prop_assert_eq!(&r.layout, &w.layout);
                // Never more than `lpc_containers × container_bytes`,
                // both sides of the cache in step — until the cache was
                // counted in bytes this held it to `lpc_containers`
                // *entries*, and an extent set of a few chunks took a
                // whole slot. Every fetch of these walks — its incoming
                // bytes and everything resident or in flight — went
                // through `insert_extents`' own check of the same bound.
                assert_cache_within_its_bytes(&ranged, "ranged");
                // No fetch reads more than the whole container it stands
                // for, and whoever evicts nothing reads nothing twice.
                let read = node_bytes_read(&ranged) - read_before;
                proptest::prop_assert!(read <= r.lpc.misses * cfg.container_bytes);
                if r.lpc.evictions == 0 && w.lpc.misses > 0 {
                    proptest::prop_assert!(read <= w.lpc.misses * cfg.container_bytes);
                }
            }
        }
    }

    /// A [`laid_out`] two-node history with two cache slots, a container
    /// of it that `damage` hits in mid data section, and the chunk it hits.
    fn damaged_history(
        damage: Damage,
        replication: usize,
    ) -> (DebarCluster, JobId, Vec<Stored>, usize, usize) {
        let mut cfg = DebarConfig::tiny_test(0).with_replication(replication);
        cfg.lpc_containers = 2;
        let (c, job, layout) = laid_out(cfg, 1000);
        let (target, hit) = (layout.iter().enumerate().skip(2))
            .find_map(|(at, (cid, held))| {
                let meta_end = 6 + 32 * held.len();
                let lens = (held.iter()).map(|&i| ChunkRecord::of_counter(i).len as usize);
                let image = meta_end + lens.clone().sum::<usize>() + 20;
                let byte = damage.position(image, cid.raw()).checked_sub(meta_end)?;
                let mut ends = lens.scan(0, |end, len| {
                    *end += len;
                    Some(*end)
                });
                let hit = ends.position(|end| byte < end)?;
                (hit >= 10).then_some((at, hit))
            })
            .expect("a container hit in mid data section");
        (c, job, layout, target, hit)
    }

    /// Make the damaged copy of `cid` — its primary's, on one of two nodes
    /// — the one a walk that first reads two other containers whole then
    /// reads. A fetch takes the copy whose node lane can start it first,
    /// ties to the node that has read least (then the primary), and since
    /// a whole read reads the image, not the slot, one read of each
    /// container does not leave the two nodes' loads level. So with the
    /// damaged node down, read the container off the other until it has
    /// read two slots more: the walk's first read, both lanes idle, goes
    /// to the damaged node, its second to the other, idle one, and its
    /// third — the damaged container's — to the damaged node, whose lane
    /// is through with its read first.
    fn aim_at_the_damaged_copy(c: &mut DebarCluster, cid: ContainerId) {
        let damaged = c.repo.locate(cid).expect("held");
        let read = |c: &DebarCluster, n: usize| c.repo.nodes()[n].disk_stats().rand_read_bytes;
        let ahead = 2 * c.cfg.container_bytes;
        c.repo.set_node_down(damaged).expect("node");
        while read(c, 1 - damaged) < read(c, damaged) + ahead {
            c.repo.read(cid).value.expect("the clean copy serves");
        }
        c.repo.revive_node(damaged).expect("node");
    }

    #[test]
    fn a_ranged_walk_fails_over_on_damage_it_reads_and_leaves_the_rest_to_scrub() {
        for (damage, replication) in [
            (Damage::BitFlip, 2),
            (Damage::Torn, 2),
            (Damage::BitFlip, 1),
            (Damage::Torn, 1),
        ] {
            let tag = format!("{damage:?} at R = {replication}");
            // Two containers fill the cache; the third miss is the
            // damaged container's, and reads by range.
            let recipe = |layout: &[Stored], of_target: std::ops::Range<usize>, target: usize| {
                let mut recipe = layout[0].1[..5].to_vec();
                recipe.extend(&layout[1].1[..5]);
                recipe.extend(&layout[target].1[of_target]);
                recipe
            };

            // Inside a wanted extent.
            let (mut c, job, layout, target, hit) = damaged_history(damage, replication);
            let cid = layout[target].0;
            let dataset = of_counters("inside", &recipe(&layout, hit - 1..hit + 1, target));
            let run = next_run(&mut c, job, &dataset);
            c.set_damage(cid, Some(damage)).expect("stored");
            let repairs = c.repo.stats().read_repairs;
            if replication == 2 {
                aim_at_the_damaged_copy(&mut c, cid);
                let r = c.restore_run(run).expect("the replica serves");
                assert_eq!((r.corrupt_reads, r.failures), (1, 0), "{tag}");
                assert_eq!(r.bytes, dataset.logical_bytes(), "{tag}");
                assert_eq!(c.repo.stats().read_repairs, repairs + 1, "{tag}");
                assert!(c.repo.under_replicated().is_empty(), "{tag}: rewritten");
            } else {
                let err = c.restore_run(run).expect_err("sole copy");
                assert!(
                    matches!(err, DebarError::CorruptContainer { container, .. } if container == cid),
                    "{tag}: {err}"
                );
                // The audit counts it once per chunk it could not get.
                let audit = c.verify_run(run).expect("the audit walks on");
                assert_eq!((audit.failures, audit.corrupt_reads), (2, 2), "{tag}");
            }

            // Outside every wanted extent: the walk reads the metadata
            // section and the head of the data section, the damage lies
            // behind them. Exact bytes, nothing counted — and scrub finds
            // what the walk never read.
            let (mut c, job, layout, target, _) = damaged_history(damage, replication);
            let dataset = of_counters("outside", &recipe(&layout, 0..5, target));
            let run = next_run(&mut c, job, &dataset);
            c.set_damage(layout[target].0, Some(damage))
                .expect("stored");
            for audit in [false, true] {
                let r = if audit {
                    c.verify_run(run)
                } else {
                    c.restore_run(run)
                }
                .expect("the damage is not in the way");
                assert_eq!((r.corrupt_reads, r.failures), (0, 0), "{tag}");
                assert_eq!(r.bytes, dataset.logical_bytes(), "{tag}");
            }
            let scrub = c.scrub().expect("quiesced").value;
            assert_eq!(scrub.corrupt_found, 1, "{tag}");
            assert_eq!(scrub.repaired, (replication == 2) as u64, "{tag}");
        }
    }

    #[test]
    fn one_file_reads_its_own_extents_and_a_later_run_merges_into_the_slot() {
        // Three files that share every container: `a` takes chunks 0..40
        // of each of the first three, `b` chunks 40..60, `c` chunks 60..80.
        let mut cfg = DebarConfig::tiny_test(0);
        cfg.lpc_containers = 1;
        let (mut c, job, layout) = laid_out(cfg, 500);
        let of = |chunks: std::ops::Range<usize>| -> Vec<u64> {
            (layout[..3].iter())
                .flat_map(|(_, held)| held[chunks.clone()].to_vec())
                .collect()
        };
        let mut tree = of_counters("a", &of(0..40));
        tree.files.extend(of_counters("b", &of(40..60)).files);
        tree.files.extend(of_counters("c", &of(60..80)).files);
        let run = next_run(&mut c, job, &tree);

        // The middle file alone: its sixty chunks weigh less than the one
        // slot, so the first miss fills it knowing nothing (a whole
        // container); the other two take `b`'s twenty chunks — not `a`'s,
        // not `c`'s — in one I/O with the metadata section: `a`'s forty
        // chunks lie between the two and streaming them (~300 kB) is no
        // dearer than a seek (~440 KiB on `paper::repo_disk`), so the
        // gap law reads them through, as it would between two chunks.
        // Counted in slots each of them took the one slot from the entry
        // before it (two evictions); counted in bytes the whole container
        // has to go for the first, and the second — twenty chunks are a
        // sixth of a container — fits beside it.
        let before = node_bytes_read(&c);
        let b = c.restore_file(run, "b").expect("one file");
        assert_eq!((b.files, b.chunks, b.failures), (1, 60, 0));
        assert_eq!((b.lpc.misses, b.lpc.evictions), (3, 1));
        assert_eq!(assert_cache_within_its_bytes(&c, "two extent sets"), 2);
        let extents: u64 = (layout[1..3].iter())
            .map(|stored| ranged_bytes(stored, &stored.1[40..60]))
            .sum();
        assert_eq!(node_bytes_read(&c) - before, cfg.container_bytes + extents);

        // A second run shares the last of them: it needs five of the
        // chunks that entry holds and five it does not. The miss on the
        // first of those merges into the entry — five more chunks fit, so
        // no victim — and only the five missing chunks are read, nothing
        // of the entry a second time.
        let (_, last) = &layout[2];
        let shared = [&last[45..50], &last[60..65]].concat();
        let second = next_run(&mut c, job, &of_counters("second", &shared));
        let before = node_bytes_read(&c);
        let audit = c.verify_run(second).expect("audit");
        assert_eq!((audit.chunks, audit.failures), (10, 0));
        assert_eq!((audit.lpc.misses, audit.lpc.evictions), (1, 0));
        assert_eq!(
            node_bytes_read(&c) - before,
            ranged_bytes(&layout[2], &last[60..65])
        );
        assert_eq!(assert_cache_within_its_bytes(&c, "merged"), 2);
        let srv = &c.servers[0];
        assert_eq!(srv.lpc.fingerprints(layout[2].0).map(<[_]>::len), Some(25));
        // The restore after it finds everything in the merged entry.
        let before = node_bytes_read(&c);
        let again = c.restore_run(second).expect("restore");
        assert_eq!((again.bytes, again.failures), (audit.bytes, 0));
        assert_eq!((again.lpc.misses, node_bytes_read(&c)), (0, before));
        assert_eq!(again.bytes, of_counters("second", &shared).logical_bytes());
    }

    #[test]
    fn one_file_of_many_and_the_audit_after_it_read_their_own_recipes() {
        // Three files, the middle one three laps over more containers
        // than there are slots. `restore_file` indexes
        // only the entries it walks — positions count from the file's
        // first chunk — and the audit of the whole run that follows takes
        // the same choices a restore would.
        let mut cfg = DebarConfig::tiny_test(0);
        cfg.lpc_containers = 4;
        let mut c = DebarCluster::new(cfg);
        let job = c.define_job("j", ClientId(0));
        let looped = [
            records(1000..1700),
            records(1000..1700),
            records(1000..1700),
        ]
        .concat();
        let mut tree = Dataset::from_records("a", records(0..600));
        tree.files.extend(Dataset::from_records("b", looped).files);
        tree.files
            .extend(Dataset::from_records("c", records(2000..2600)).files);
        c.backup(job, &tree).expect("backup");
        c.run_dedup2().expect("dedup2");
        let run = RunId { job, version: 0 };

        let b = c.restore_file(run, "b").expect("one file");
        assert_eq!((b.files, b.chunks, b.failures), (1, 2100, 0));
        // Six containers over four slots, 3 x 6 visits. While the depth
        // gate held the walk one container per node ahead of the client,
        // nearly every resident had been streamed out when a fetch was
        // due, the victim was the one the lap returns to last, and twelve
        // fetches did where LRU needs eighteen. The walk now runs ahead by
        // the whole cache: when a fetch is due, the residents already
        // streamed out are the oldest — the ones the lap returns to
        // *soonest* — and giving one of those up beats stalling the
        // read-ahead on a busy one (the victim rule's first clause; the
        // module docs have the measurement). So this restore fetches on
        // every visit again, and is the faster for it: the NIC idled for
        // a fifth of the old walk (0.0946 s for 0.0784 s of sends) and
        // idles for an eighth of this one (0.0881 s).
        let visits = b.layout.fragments;
        assert_eq!(visits, 3 * b.layout.containers_touched);
        assert!(b.layout.containers_touched > 4 && b.lpc.misses <= visits);
        assert!(b.lpc.evictions <= b.lpc.misses);
        assert!(b.elapsed < 1.15 * b.send_s, "{} of {}", b.elapsed, b.send_s);
        assert_cache_within_its_bytes(&c, "one file");

        let whole = c.verify_run(run).expect("audit");
        assert_eq!((whole.files, whole.chunks, whole.failures), (3, 3300, 0));
        let again = c.restore_run(run).expect("restore");
        assert_eq!((again.bytes, again.failures), (whole.bytes, 0));
        assert_eq!(again.bytes, tree.logical_bytes());
        // The audit sends nothing, so an entry is free as soon as its read
        // is in and the rule has its choice: it beats one fetch per
        // visit. The restore after it, ahead of its client by the whole
        // cache, is where the one file was: a fetch per visit at most.
        let visits = whole.layout.fragments;
        assert!(whole.lpc.misses <= visits * 3 / 4 && again.lpc.misses <= visits);
        assert!(matches!(
            c.restore_file(run, "nope"),
            Err(DebarError::UnknownPath { .. })
        ));
    }

    #[test]
    fn a_walk_reads_by_range_from_its_first_miss_only_when_its_recipe_outgrows_the_cache() {
        // Forty chunks of each of the first four containers, ~1.3 MB of
        // recipe: within an eight-slot cache, past a one-slot one.
        for replication in [1, 2] {
            for slots in [8, 1] {
                let mut cfg = DebarConfig::tiny_test(0).with_replication(replication);
                cfg.lpc_containers = slots;
                let (mut c, job, layout) = laid_out(cfg, 1000);
                let first_forty = |stored: &Stored| stored.1[..40].to_vec();
                let dataset = of_counters(
                    "part",
                    &layout[..4].iter().flat_map(first_forty).collect::<Vec<_>>(),
                );
                let budget = slots as u64 * cfg.container_bytes;
                let tag = format!("{slots} slots, R = {replication}");
                assert_eq!(dataset.logical_bytes() > budget, slots == 1, "{tag}");
                let run = next_run(&mut c, job, &dataset);
                let before = node_bytes_read(&c);
                let r = c.restore_run(run).expect("restore");
                assert_eq!((r.lpc.misses, r.failures), (4, 0), "{tag}");
                // A recipe that fits reads each container's image, whole,
                // from whichever copy. One that does not reads its first
                // miss by range, as it reads every other.
                let fetched: u64 = (layout[..4].iter())
                    .map(|stored| match slots {
                        8 => image_of(stored, cfg.container_bytes).1,
                        _ => ranged_bytes(stored, &stored.1[..40]),
                    })
                    .sum();
                assert_eq!(node_bytes_read(&c) - before, fetched, "{tag}");
            }
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
        // With a budget of one container a fetch must wait until what it
        // does not fit beside has been streamed out. Counted in slots
        // that was every fetch by definition; counted in bytes it is
        // every fetch of *this* history, because v1 wants nearly every
        // chunk of every container it touches, so each extent set weighs
        // most of the budget and no two are ever resident together: one
        // fetch's read never overlaps another's, nor the sends of the
        // entry it replaces. Until a chunk could be sent as soon as its
        // own bytes were in, that was the whole law — reads and the
        // client stream took turns, and only the index lookups (issued
        // off the metadata section, while the read is still streaming)
        // overlapped: `serial - resolve <= elapsed`. Now each fetch's
        // sends overlap its own read, from its first chunk on.
        let mut narrow = DebarConfig::tiny_test(0);
        narrow.lpc_containers = 1;
        let (mut c, job) = two_generations(narrow);
        let r = c.restore_run(RunId { job, version: 1 }).expect("restore");
        assert_eq!(assert_cache_within_its_bytes(&c, "window 1"), 1);
        assert_eq!(r.lpc.evictions, r.lpc.misses - 1, "no two fit together");
        assert!(
            r.node_read_total_s < r.elapsed && r.elapsed < r.serial_s() - r.resolve_s,
            "window 1: reads {} < elapsed {} < serial {} - resolve {}",
            r.node_read_total_s,
            r.elapsed,
            r.serial_s(),
            r.resolve_s
        );
        // The default window on the same history overlaps all three. It
        // charges the same reads although it starts reading ranges seven
        // misses later (its cache fills later): v1 wants every chunk of
        // every container but its first and its last; both walks read the
        // first knowing nothing and the last by range, and a range that
        // is the whole data section is the one whole-container I/O.
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
        // Until PR 22 this pinned `misses x whole-read cost`. The walk
        // knows nothing while its cache fills — those misses still read
        // the paper's whole container — and every miss after that reads
        // the metadata section and the extents its recipe wants, never
        // more than the whole container would have cost.
        let (filling, misses) = (cfg.lpc_containers as f64, r.lpc.misses as f64);
        assert!(misses > filling, "the walk must outgrow its cache");
        assert!(
            filling * read < r.node_read_s && r.node_read_s < misses * read,
            "{} s of reads for {filling} whole containers and {} ranged",
            r.node_read_s,
            misses - filling
        );
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
        // Until the cache became the one read-ahead window this pinned a
        // second one, the depth gate its name still carries: on one
        // repository node a fetch waited until everything queued for the
        // client had been sent, so disk and NIC took turns and the walk
        // took `first lookup + reads + sends`. The gate is gone: a fetch
        // waits for the resolver and for the entries it evicts to have
        // been streamed out, and on this history — a disk slower than
        // the NIC, eight slots — no evicted entry is ever still waiting.
        // What is left is the one-node law: after the first lookup the
        // node lane never idles (each next lookup is issued off the
        // metadata section and answered before the read in flight is in),
        // and every chunk is sent behind a later read except those of the
        // last fetch, which has none behind it. Those were all sent after
        // their read — `first lookup + reads + the last fetch's sends`,
        // exactly — until a chunk could go out as soon as its own bytes
        // were in. Now they stream out behind the read's data: the walk
        // ends after the last chunk in, the container's last, has been
        // sent, and before all of the last fetch's sends could have been.
        let mut cfg = DebarConfig::tiny_test(0);
        cfg.repo_nodes = 1;
        let (mut c, job) = two_generations(cfg);
        let one = c.restore_run(RunId { job, version: 1 }).expect("restore");
        let lookup = one.resolve_s / one.lpc.misses as f64;
        let last = *c.repo.container_ids().last().expect("stored");
        let last = c.repo.read(last).value.expect("clean").expect("stored");
        let last_bytes: u64 = last.chunks().map(|(_, p)| p.len()).sum();
        let nic = paper::server_nic();
        let last_send = nic.stream_cost(last_bytes);
        let last_chunk = nic.stream_cost(last.metas().last().expect("stored").len as u64);
        assert!(
            one.send_s > 10.0 * last_send,
            "most of the stream must hide"
        );
        let reads_done = lookup + one.node_read_s;
        assert!(
            reads_done + last_chunk <= one.elapsed * (1.0 + 1e-9)
                && one.elapsed < reads_done + last_send,
            "elapsed {} vs first lookup {lookup} + reads {} + the last chunk's send {last_chunk} \
             or all of the last fetch's sends {last_send}",
            one.elapsed,
            one.node_read_s
        );
        // A second node takes half the reads, and the same walk is bound
        // by the NIC instead: it idles for the first fetch and a little
        // more, not for the reads.
        let (mut c, job) = two_generations(DebarConfig::tiny_test(0));
        let two = c.restore_run(RunId { job, version: 1 }).expect("restore");
        assert_eq!((two.bytes, two.lpc.misses), (one.bytes, one.lpc.misses));
        assert!(close(two.serial_s(), one.serial_s()));
        assert!(two.node_read_s < two.send_s && two.send_s < one.node_read_s);
        let fetch = lookup + paper::repo_disk().rand_read_cost(cfg.container_bytes);
        assert!(two.elapsed >= two.send_s && two.elapsed < two.send_s + 2.0 * fetch);
        assert!(two.elapsed < one.elapsed);
    }

    /// What a whole read of a stored container reads first — its metadata
    /// section — and in all (its image, at most the slot), and the image
    /// offset at which each of its chunks ends, in stored order.
    fn image_of(stored: &Stored, slot: u64) -> (u64, u64, Vec<u64>) {
        let meta = 6 + 32 * stored.1.len() as u64 + 20;
        let ends: Vec<u64> = (stored.1.iter())
            .scan(meta, |end, &i| {
                *end += ChunkRecord::of_counter(i).len as u64;
                Some(*end)
            })
            .collect();
        let image = ends.last().copied().unwrap_or(meta).min(slot);
        (meta, image, ends)
    }

    /// The timeline of a restore walk that never evicts, rebuilt from the
    /// devices' models: each container's first visit is an index lookup on
    /// the resolver, then a whole read of its image on its node (R = 1),
    /// the resolver walking on once the metadata section is in; every
    /// chunk goes out once the resolver has got to it and it is
    /// `ready(read done, its tail)` — `in_order`, after the chunk before
    /// it, as a stream; else wherever the send lane is idle for it.
    /// Returns the walk's makespan.
    fn never_evicting_walk(
        cfg: &DebarConfig,
        layout: &[Stored],
        recipe: &[u64],
        ready: impl Fn(Secs, Secs) -> Secs,
        in_order: bool,
    ) -> Secs {
        let (disk, nic) = (paper::repo_disk(), paper::server_nic());
        let lookup = paper::index_disk().rand_read_cost(cfg.bucket_bytes as u64)
            + paper::cpu().probe_cost(1);
        let (mut at, mut resolve, mut send) = (0.0, Lane::new(), Lane::new());
        let mut nodes = vec![Lane::new(); cfg.repo_nodes];
        let mut done: HashMap<usize, Secs> = HashMap::new();
        for &counter in recipe {
            let (container, index) = (layout.iter().enumerate())
                .find_map(|(k, (_, held))| Some((k, held.iter().position(|&i| i == counter)?)))
                .expect("stored");
            let (cid, (meta, image, ends)) = (
                layout[container].0,
                image_of(&layout[container], cfg.container_bytes),
            );
            let read_done = *done.entry(container).or_insert_with(|| {
                at = resolve.run(at, lookup);
                let node = (cid.raw() % cfg.repo_nodes as u64) as usize;
                let t = nodes[node].run(at, disk.rand_read_cost(image));
                at = f64::max(at, t - disk.seq_read_cost(image - meta));
                t
            });
            let tail = disk.seq_read_cost(image.saturating_sub(ends[index]));
            let len = ChunkRecord::of_counter(counter).len as u64;
            let ready = f64::max(at, ready(read_done, tail));
            let ready = if in_order {
                ready.max(send.free_at)
            } else {
                ready
            };
            send.run(ready, nic.stream_cost(len));
        }
        (nodes.iter()).fold(f64::max(at, send.free_at), |t, n| t.max(n.free_at))
    }

    #[test]
    fn a_chunk_goes_out_as_soon_as_its_own_bytes_are_in() {
        // One node, one container of equal chunks, one walk: the first
        // miss's lookup, then one whole read of the container's image.
        // The disk streams the data section faster than the NIC sends it
        // (224 vs 210 MiB/s), so once the first chunk is in the NIC never
        // idles: the walk takes the lookup, the read up to the end of its
        // first chunk, and every send. Store-and-forward — nothing of an
        // entry sent before its read was done — took the lookup, the
        // whole read and every send.
        let mut cfg = DebarConfig::tiny_test(0);
        cfg.repo_nodes = 1;
        let mut c = DebarCluster::new(cfg);
        let job = c.define_job("j", ClientId(0));
        let (n, len) = (100u64, 8192u64);
        let records = (0..n).map(|i| ChunkRecord::new(Fingerprint::of_counter(i), len as u32));
        let dataset = Dataset::from_records("even", records.collect());
        let run = c.backup(job, &dataset).expect("backup").run;
        c.run_dedup2().expect("dedup2");
        assert_eq!(c.repo.container_ids().len(), 1, "one container");
        let r = c.restore_run(run).expect("restore");
        assert_eq!((r.lpc.misses, r.failures, r.bytes), (1, 0, n * len));

        let disk = paper::repo_disk();
        let (meta, image) = (6 + 32 * n + 20, 6 + 32 * n + 20 + n * len);
        let lookup = paper::index_disk().rand_read_cost(cfg.bucket_bytes as u64)
            + paper::cpu().probe_cost(1);
        let read = disk.rand_read_cost(image);
        let first_in = read - disk.seq_read_cost(image - (meta + len));
        let sends = n as f64 * paper::server_nic().stream_cost(len);
        assert!(close(r.resolve_s, lookup) && close(r.node_read_s, read));
        assert!(close(r.send_s, sends));
        assert!(
            close(r.elapsed, lookup + first_in + sends),
            "elapsed {} vs lookup {lookup} + first chunk in {first_in} + sends {sends}",
            r.elapsed
        );
        assert!(r.elapsed < lookup + read + sends, "store-and-forward");
    }

    #[test]
    fn an_entry_is_not_given_up_before_the_read_that_filled_it_is_done() {
        // One container, its primary copy bit-flipped: the walk reads the
        // damaged copy, fails over to the replica and writes the repair
        // back. Every chunk goes out as soon as it is in, so the stream is
        // over before the repair write — and the entry is free only once
        // that is done too, which is where the walk ends.
        let cfg = DebarConfig::tiny_test(0).with_replication(2);
        let mut c = DebarCluster::new(cfg);
        let job = c.define_job("j", ClientId(0));
        let dataset = Dataset::from_records("s", records(0..50));
        let run = c.backup(job, &dataset).expect("backup").run;
        c.run_dedup2().expect("dedup2");
        let cid = c.repo.container_ids()[0];
        c.set_damage(cid, Some(Damage::BitFlip)).expect("stored");
        let r = c.restore_run(run).expect("the replica serves");
        assert_eq!((r.corrupt_reads, c.repo.stats().read_repairs), (1, 1));
        let entry = c.servers[0].lpc.value(cid).expect("resident");
        assert_eq!(entry.last_sent, c.servers[0].clock.now(), "free when done");
    }

    #[test]
    fn the_client_stream_stays_in_recipe_order() {
        // Container A holds ten chunks, container B twenty-one, its largest
        // first; the recipe walks A, then B, then A's smallest chunk again.
        // A's chunks are out long before B's first one is in, so the NIC
        // idles meanwhile — long enough to send A's revisited chunk, in
        // since A was read. A send lane that served what is ready would
        // put it there, ahead of B, and end the walk sooner: the client
        // reads a stream, so it goes out after B's last chunk.
        let mut cfg = DebarConfig::tiny_test(0);
        cfg.repo_nodes = 1;
        let mut c = DebarCluster::new(cfg);
        let job = c.define_job("j", ClientId(0));
        let len = |i: &u64| ChunkRecord::of_counter(*i).len;
        let a: Vec<u64> = (0..10).collect();
        let mut b: Vec<u64> = (10..31).collect();
        b.sort_by_key(|i| std::cmp::Reverse(len(i)));
        let revisit = *a.iter().min_by_key(|i| len(i)).expect("ten chunks");
        for (name, counters) in [("a", &a), ("b", &b)] {
            c.backup(job, &of_counters(name, counters)).expect("backup");
            c.run_dedup2().expect("dedup2");
        }
        let ids = c.repo.container_ids();
        let layout: Vec<Stored> = vec![(ids[0], a.clone()), (ids[1], b.clone())];
        let recipe = [a.as_slice(), b.as_slice(), &[revisit]].concat();
        let run = next_run(&mut c, job, &of_counters("visits", &recipe));
        c.servers[0].invalidate_read_caches();
        let r = c.restore_run(run).expect("restore");
        assert_eq!((r.lpc.misses, r.lpc.evictions, r.failures), (2, 0, 0));

        let per_chunk = |done: Secs, tail: Secs| done - tail;
        let stream = never_evicting_walk(&cfg, &layout, &recipe, per_chunk, true);
        let reordered = never_evicting_walk(&cfg, &layout, &recipe, per_chunk, false);
        assert!(close(r.elapsed, stream), "{} vs {stream}", r.elapsed);
        assert!(reordered < stream, "the NIC idles before B's first chunk");
        // Each entry is given up once its last chunk is out: A's only
        // after B's, by exactly the revisited chunk's send.
        let out = |cid| c.servers[0].lpc.value(cid).expect("resident").last_sent;
        let (a_out, b_out) = (out(ids[0]), out(ids[1]));
        let send = paper::server_nic().stream_cost(len(&revisit) as u64);
        assert!(close(a_out, b_out + send), "{a_out} vs {b_out} + {send}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        #[test]
        fn prop_a_walk_sends_each_chunk_once_it_is_in_and_beats_store_and_forward(
            fills in proptest::collection::vec(1u64..72, 1..7),
            visits in proptest::collection::vec((0usize..6, 0usize..72, 1usize..24), 1..14),
            nodes in 1usize..3,
        ) {
            // Up to six containers, each the one container of its own
            // dedup-2 round and sealed at a random fill (72 chunks of at
            // most 14 KiB fit 1 MiB), and a recipe of runs out of them.
            // Eight slots: the walk never evicts, so every miss is a whole
            // read of its container's image, and the walk's timeline can
            // be rebuilt from the device models. It must be the one in
            // which every chunk goes out once the resolver has got to it
            // and its own bytes are in — no sooner — which is never slower
            // than one in which it waits for its whole read.
            let mut cfg = DebarConfig::tiny_test(0);
            cfg.repo_nodes = nodes;
            let mut c = DebarCluster::new(cfg);
            let job = c.define_job("j", ClientId(0));
            let mut layout: Vec<Stored> = Vec::new();
            for &fill in &fills {
                let first = layout.iter().map(|(_, held)| held.len() as u64).sum::<u64>();
                let held: Vec<u64> = (first..first + fill).collect();
                c.backup(job, &of_counters("fill", &held)).expect("backup");
                c.run_dedup2().expect("dedup2");
                let cid = *c.repo.container_ids().last().expect("stored");
                proptest::prop_assert_eq!(cid.raw(), layout.len() as u64, "one container a round");
                layout.push((cid, held));
            }
            let recipe: Vec<u64> = (visits.iter())
                .flat_map(|&(container, from, len)| {
                    let held = &layout[container % layout.len()].1;
                    held[from % held.len()..(from % held.len() + len).min(held.len())].to_vec()
                })
                .collect();
            let run = next_run(&mut c, job, &of_counters("visits", &recipe));
            let r = c.restore_run(run).expect("restore");
            let visited: std::collections::HashSet<ContainerId> = (recipe.iter())
                .map(|i| layout.iter().find(|(_, held)| held.contains(i)).expect("stored").0)
                .collect();
            proptest::prop_assert_eq!((r.lpc.misses, r.lpc.evictions), (visited.len() as u64, 0));
            let per_chunk = never_evicting_walk(&cfg, &layout, &recipe, |done, tail| done - tail, true);
            let store_and_forward = never_evicting_walk(&cfg, &layout, &recipe, |done, _| done, true);
            proptest::prop_assert!(close(r.elapsed, per_chunk), "{} vs {per_chunk}", r.elapsed);
            proptest::prop_assert!(per_chunk <= store_and_forward);
            proptest::prop_assert!(r.elapsed <= store_and_forward * (1.0 + 1e-9));
        }
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

    #[test]
    fn telemetry_math() {
        let mut t = LayoutTracker::default();
        for cid in [1u64, 1, 2, 1, 3, 3] {
            t.observe(ContainerId::new(cid));
        }
        let rep = t.finish(6, 3 << 20);
        assert_eq!(rep.containers_touched, 3);
        assert_eq!(rep.fragments, 4, "runs: [1,1] [2] [1] [3,3]");
        assert_eq!(rep.mean_run_length(), 1.5);
        assert_eq!(rep.containers_per_mib(), 1.0);
        assert_eq!(LayoutReport::default().mean_run_length(), 0.0);
        assert_eq!(LayoutReport::default().containers_per_mib(), 0.0);
    }

    #[test]
    fn restore_surfaces_layout_telemetry_and_scatter_fragments_grow() {
        let gens = 8u64;
        let mut c = DebarCluster::new(DebarConfig::tiny_test(0));
        let job = c.define_job("churn", ClientId(0));
        for g in 0..gens {
            c.backup(job, &Dataset::from_records("s", churn(g, 600, 12)))
                .expect("backup");
            c.run_dedup2().expect("dedup2");
        }
        let first = c
            .restore_run(RunId { job, version: 0 })
            .expect("restore v0");
        let last = c
            .restore_run(RunId {
                job,
                version: gens as u32 - 1,
            })
            .expect("restore latest");
        assert_eq!(first.layout.chunks, first.chunks);
        assert_eq!(first.layout.bytes, first.bytes);
        assert!(first.layout.containers_touched > 0);
        assert!(first.layout.fragments >= first.layout.containers_touched);
        assert!(
            last.layout.containers_per_mib() > first.layout.containers_per_mib(),
            "scatter fragmentation must grow with generation: gen0 {} vs latest {}",
            first.layout.containers_per_mib(),
            last.layout.containers_per_mib()
        );
        assert!(
            last.layout.mean_run_length() < first.layout.mean_run_length(),
            "scatter chunk runs must shorten with generation"
        );
    }
}
