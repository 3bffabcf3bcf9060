//! The backup server (paper §3.3): the state of its File Store (dedup-1)
//! and the Chunk Store passes of dedup-2.
//!
//! Dedup-1 has one loop (`run_backup` in `backup.rs`), and this server is
//! all it touches: the stream is charged to its NIC, CPU and clock,
//! survivors of the preliminary filter are appended to its on-disk chunk
//! log, and their fingerprints accumulate here as *undetermined*. It
//! decides nothing; the decision map and the checking file are written by
//! the PSIL commit alone.
//!
//! Dedup-2 pieces (driven phase by phase, in server-ID order, by
//! [`crate::cluster::DebarCluster`]):
//! [`BackupServer::sil_on_part`] (SIL over this server's index part with
//! checking-fingerprint-file semantics for asynchronous SIU, §5.4, and
//! carrying a due SIU on its first sweep),
//! [`BackupServer::pack_chunks`] + [`BackupServer::commit_packed`] (drain
//! the log, write new chunks to containers per the SIL verdicts, §5.3)
//! and [`BackupServer::run_siu`] (merge the unregistered fingerprints into
//! the index part, when no PSIL carries them). Each advances only this
//! server's own clock.
//!
//! Every piece *reads* the server's dedup-2 state in place — the
//! undetermined lists (every server's, which a dedup-2 attempt takes and a
//! PSIL fault puts back), the chunk log, the decision map — and only a
//! commit moves it: the cluster's PSIL commit (checking entries, verdicts
//! into `BackupServer::decide`, the undetermined list released, a carried
//! SIU's updates released from the unregistered and checking files) and each
//! server's store commit ([`BackupServer::commit_packed`]: the log and the
//! decision map give up what became durable). A piece that faults before
//! its commit has nothing to undo, and its output is simply dropped.

use crate::chunklog::ChunkLog;
use crate::config::DebarConfig;
use crate::error::DebarError;
use crate::ids::ServerId;
use crate::report::StoreReport;
use debar_hash::{ContainerId, Fingerprint, FpMap, FpSet};
use debar_index::{DiskIndex, IndexCache, IndexError, SiuReport};
use debar_simio::models::paper;
use debar_simio::{Lane, Secs, SimCpu, SimLink, VirtualClock};
use debar_store::{ChunkRepository, Container, ContainerManager, LpcCache, Payload};

/// Per-origin storage decision for a fingerprint this origin submitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// This origin is the designated storer: write the chunk.
    Store,
    /// Skip the chunk (registered duplicate, pending duplicate, or another
    /// origin stores it).
    Skip,
}

/// Statistics of one server's SIL pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct SilPartStats {
    /// Fingerprints looked up on this part.
    pub submitted: u64,
    /// Found registered in the index.
    pub dup_registered: u64,
    /// Suppressed by the checking file (pending SIU) or claimed by a
    /// lower origin in the same round.
    pub dup_pending: u64,
    /// Determined new (a storer was designated).
    pub new_fps: u64,
    /// Cache-capacity sub-batches swept.
    pub sweeps: u32,
    /// Index partitions each sweep ran on (the striped multi-part index;
    /// 0 when the batch was empty and no sweep ran).
    pub parts: u32,
}

/// A verdict and the time it was reached: the end of the SIL sweep that
/// decided it.
pub type Verdict = (Fingerprint, Decision, Secs);

/// Output of one server's SIL pass: per-origin verdicts plus statistics.
pub struct SilPartOutput {
    /// `verdicts[origin]` = decisions for the fingerprints `origin`
    /// submitted to this part, each with the end of the sweep that made it.
    pub verdicts: Vec<Vec<Verdict>>,
    /// Pass statistics.
    pub stats: SilPartStats,
    /// Fingerprints this pass designated for storage, to be added to the
    /// checking file **only after every server's PSIL succeeds** (staged
    /// so an interrupted round leaves no stale checking entries that
    /// would suppress the re-run's stores).
    pub checking: FpSet,
    /// The SIU this pass carried, when asked to: its report and the
    /// pending updates it merged — all of them, which the PSIL commit
    /// releases from the unregistered and checking files.
    pub carried: Option<(SiuReport, u64)>,
}

/// Outcome of one server's chunk-storing pass (§5.3). `fault` is `Some`
/// when the pass was interrupted: `assigned` then covers only the durably
/// stored prefix, and the log and the decision map keep what it did not
/// make durable for the resumed round.
pub struct StoreOutcome {
    /// Durable `(fingerprint, container)` assignments awaiting SIU.
    pub assigned: Vec<(Fingerprint, ContainerId)>,
    /// The interruption, if the pass faulted.
    pub fault: Option<DebarError>,
}

/// One container packed by the pack stage
/// ([`BackupServer::pack_chunks`]) and the log position it sealed at.
struct PackedContainer {
    container: Container,
    /// Where in the log this container sealed: the index of its trigger
    /// record (the record that did not fit and opened the next container)
    /// for an overflow-sealed container, the log's length for the final
    /// flushed one. Its chunks are the wanted records from the previous
    /// container's position (0 for the first) up to this one.
    sealed_at: usize,
}

/// Output of one server's pack stage: which log records it packs and the
/// packed container sequence — what the commit
/// ([`BackupServer::commit_packed`]) needs. Packing reads the server's log
/// and decision map and moves neither, and it touches no shared state
/// (the repository is not involved): that is what lets every server's
/// pack start at its own post-PSIL clock instead of a cluster barrier, and
/// a pack that is not committed is simply dropped.
pub struct PackOutput {
    /// `wanted[i]`: whether the pass packs the log's `i`-th record.
    wanted: Vec<bool>,
    /// Containers in seal order (SISL stream order across the pass).
    containers: Vec<PackedContainer>,
    /// Virtual seconds the pack charged to this server's clock (what of
    /// the log drain ran past the pack's start, plus per-record probes) —
    /// the pipeline depth container writes hide behind.
    produced: Secs,
}

/// A DEBAR backup server.
#[derive(Clone)]
pub struct BackupServer {
    /// This server's ID (also its index-part number).
    pub id: ServerId,
    /// The server's virtual clock.
    pub clock: VirtualClock,
    cfg: DebarConfig,
    /// The server's NIC (crate-visible: the restore pipeline ticks it
    /// while scheduling the transfer on its own lane).
    pub(crate) nic: SimLink,
    /// The server's CPU (crate-visible with the chunk log, the
    /// undetermined list and the checking file: the dedup-1 loop and the
    /// dedup-2 phases work on them directly).
    pub(crate) cpu: SimCpu,
    /// The on-disk chunk log.
    pub(crate) chunk_log: ChunkLog,
    /// Fingerprints awaiting the next dedup-2 sweep, in arrival order. A
    /// dedup-2 attempt takes them and every owner's PSIL reads them in
    /// place; the PSIL commit releases them, a PSIL fault puts them back.
    pub(crate) undetermined: Vec<Fingerprint>,
    index: DiskIndex,
    /// The checking fingerprint file (§5.4): fingerprints scheduled for
    /// storage whose index registration (SIU) is still pending. Only the
    /// PSIL commit adds to it.
    pub(crate) checking: FpSet,
    /// The unregistered fingerprint file: fp → container mappings awaiting
    /// SIU on this part.
    pending_updates: Vec<(Fingerprint, ContainerId)>,
    /// Every storage decision this server has been given and has not made
    /// durable: the verdicts of each committed PSIL pass, each beside the
    /// time it was reached. The chunk log holds the matching records;
    /// [`BackupServer::pack_chunks`] reads the map in place and only a
    /// store commit ([`BackupServer::commit_packed`]) gives decisions up.
    decisions: FpMap<(Decision, Secs)>,
    /// The restore cache: the LPC, each resident carrying the chunks its
    /// fetches brought in.
    pub(crate) lpc: LpcCache<CachedContainer>,
}

/// One entry of the restore cache — the chunks fetched from one container
/// (all of them after a whole-container read, the extents its recipe
/// wanted after a ranged one), each with the server-clock time its bytes
/// were in — and its place on the restore pipeline's timeline. It is the
/// value of its container's LPC entry and holds exactly the chunks whose
/// fingerprints the entry lists, in a column beside the listing: the
/// place [`LpcCache::find`] gives a fingerprint is its chunk's place here.
#[derive(Clone, Default)]
pub(crate) struct CachedContainer {
    chunks: Vec<(Payload, Secs)>,
    /// Server-clock time the last chunk served from it left the NIC (the
    /// completion of the last read into it until one has, or if later):
    /// the fetch that evicts this container may not start before.
    pub(crate) last_sent: Secs,
}

impl CachedContainer {
    /// The payload and arrival time of the chunk at `index` of the
    /// entry's listing, if it holds one there.
    pub(crate) fn chunk(&self, index: usize) -> Option<&(Payload, Secs)> {
        self.chunks.get(index)
    }

    /// Take in what a read fetched: its serving leg completed at `served`
    /// and the whole read — read-repair writes included — at `done`. Each
    /// chunk is in its `tails` entry's seconds before `served`. Of the
    /// chunks, those whose fingerprints the insert newly `listed` are
    /// appended, in the order the listing took them; the others the entry
    /// holds already, and they keep their own arrival. The entry is not
    /// given up before the read is done.
    pub(crate) fn merge(
        &mut self,
        chunks: Vec<(Fingerprint, Payload)>,
        tails: impl Iterator<Item = Secs>,
        listed: &[Fingerprint],
        (served, done): (Secs, Secs),
    ) {
        self.chunks.reserve(listed.len());
        let mut listed = listed.iter().peekable();
        for ((fp, payload), tail) in chunks.into_iter().zip(tails) {
            if listed.next_if_eq(&&fp).is_some() {
                self.chunks.push((payload, served - tail));
            }
        }
        debug_assert!(
            listed.peek().is_none(),
            "a newly listed chunk was not fetched"
        );
        self.last_sent = self.last_sent.max(done);
    }
}

#[cfg(test)]
impl BackupServer {
    /// The one restore cache's invariant, checked: every resident holds
    /// one chunk per fingerprint its LPC entry lists, at the same place,
    /// and each is that fingerprint's payload — real bytes hash back to
    /// it, a zero-run is the one the container (while `repo` holds a copy)
    /// lists for it. Returns the payload bytes the residents hold.
    pub(crate) fn restore_cache_payload(&self, repo: &ChunkRepository, tag: &str) -> u64 {
        let mut held = 0;
        for cid in self.lpc.residents() {
            let fps = self.lpc.fingerprints(cid).expect("resident");
            let entry = self.lpc.value(cid).expect("resident");
            assert_eq!(entry.chunks.len(), fps.len(), "{tag}: {cid:?}");
            let copy = (repo.nodes().iter()).find_map(|node| node.copy(cid).map(|(c, _)| c));
            for (fp, (payload, _)) in fps.iter().zip(&entry.chunks) {
                match payload {
                    Payload::Real(bytes) => {
                        assert_eq!(
                            debar_hash::Sha1::digest(bytes),
                            fp.0,
                            "{tag}: {cid:?} slot of {fp:?}"
                        );
                    }
                    Payload::Zero(_) => {
                        let listed = copy.and_then(|c| c.find(fp)).map(|(_, p)| p);
                        assert!(
                            copy.is_none() || listed.as_ref() == Some(payload),
                            "{tag}: {cid:?} slot of {fp:?}"
                        );
                    }
                }
            }
            held += entry.chunks.iter().map(|(p, _)| p.len()).sum::<u64>();
        }
        held
    }

    /// Storage decisions the server holds (PSIL's verdicts not yet made
    /// durable).
    pub(crate) fn decided(&self) -> usize {
        self.decisions.len()
    }
}

/// An empty restore cache of the deployment's memory: the paper's LPC is
/// a byte budget, [`DebarConfig::lpc_containers`] whole containers' worth.
fn restore_cache(cfg: &DebarConfig) -> LpcCache<CachedContainer> {
    let container_bytes = cfg.container_bytes;
    LpcCache::with_memory(cfg.lpc_containers as u64 * container_bytes, container_bytes)
}

impl BackupServer {
    /// Create server `id` of a deployment described by `cfg`.
    pub fn new(id: ServerId, cfg: DebarConfig) -> Self {
        // This server owns index part `id`: the first w fingerprint bits
        // route to it, the *next* n bits are its bucket number (§5.2).
        let index = DiskIndex::with_prefix(
            id,
            cfg.index_part_params(),
            cfg.w_bits,
            paper::index_disk(),
            cfg.seed ^ (0x5e4 + id as u64),
        );
        Self::with_index(id, cfg, index, VirtualClock::new())
    }

    /// Server `id` around an index part and a clock, with nothing staged.
    fn with_index(id: ServerId, cfg: DebarConfig, index: DiskIndex, clock: VirtualClock) -> Self {
        BackupServer {
            id,
            clock,
            nic: SimLink::new(paper::server_nic()),
            cpu: SimCpu::new(paper::cpu()),
            chunk_log: ChunkLog::new(id),
            undetermined: Vec::new(),
            index,
            checking: FpSet::default(),
            pending_updates: Vec::new(),
            decisions: FpMap::default(),
            lpc: restore_cache(&cfg),
            cfg,
        }
    }

    /// Undetermined fingerprints accumulated since the last dedup-2.
    pub fn undetermined_len(&self) -> usize {
        self.undetermined.len()
    }

    /// Bytes waiting in the chunk log.
    pub fn log_bytes(&self) -> u64 {
        self.chunk_log.bytes()
    }

    /// This server's disk-index part.
    pub fn index(&self) -> &DiskIndex {
        &self.index
    }

    /// Sweep partitions this server's SIL/SIU runs on (the striped
    /// multi-part index; 1 = the paper's single index volume).
    pub fn sweep_parts(&self) -> usize {
        self.cfg.sweep_parts
    }

    /// Store workers this server's chunk-log drain stripes across (1 =
    /// the paper's single log volume).
    pub fn store_workers(&self) -> usize {
        self.cfg.store_workers
    }

    /// Mutable index access (cluster restore path, fault arming).
    pub(crate) fn index_mut(&mut self) -> &mut DiskIndex {
        &mut self.index
    }

    /// Drop the restore cache. Garbage collection calls this after
    /// reclaiming containers: a stale cached mapping to a deleted container
    /// must never serve a read.
    pub(crate) fn invalidate_read_caches(&mut self) {
        self.lpc = restore_cache(&self.cfg);
    }

    /// Charge a network transfer to this server's clock.
    pub(crate) fn charge_net(&mut self, bytes: u64) {
        let c = self.nic.stream(bytes);
        self.clock.advance(c);
    }

    // ------------------------------------------------------------------
    // Dedup-2: Chunk Store
    // ------------------------------------------------------------------

    /// Sequential index lookups over this server's part (PSIL worker,
    /// §5.2): the batch is every fingerprint of `lists` this part owns —
    /// `lists[origin]` is what server `origin` submitted, in arrival
    /// order — origin by origin, read in place.
    ///
    /// The batch is processed in index-cache-capacity sub-batches through
    /// one cache, emptied in place after each; each sub-batch costs one
    /// sequential sweep of the index part, and its verdicts carry the time
    /// that sweep ended on this server's clock — when the origins' chunk
    /// storing may act on them. Verdicts are grouped by origin for the
    /// result exchange, each origin's list allocated once: every
    /// `(fingerprint, origin)` of a sub-batch gets one verdict. The
    /// checking fingerprint file suppresses re-stores of chunks whose SIU
    /// is still pending, and the lowest origin is designated storer when
    /// several submit the same new fingerprint in one round (§5.4).
    ///
    /// With `carry_siu`, the pass also carries the SIU that fell due
    /// ([`crate::director::SiuPlan::Ride`]): the first sweep merges every
    /// pending update into the part and probes its sub-batch against the
    /// merged buckets — one read op and one write op per part-disk, where
    /// a standalone SIU and this sweep took two reads and a write — so
    /// the updates' fingerprints come back registered. A part with nothing
    /// to sweep runs the update sweep alone, and one with nothing pending
    /// sweeps as usual.
    ///
    /// Fault-aware: an injected fault on the index disk aborts the pass
    /// with a typed error naming the part-disk and **no state change** —
    /// the checking-file additions are staged in the returned
    /// [`SilPartOutput`], and a carried SIU's updates stay pending, both
    /// committed by the cluster only once every server's PSIL succeeds,
    /// and the lists are only read, so the cluster puts them back as they
    /// were and an interrupted round can be re-run verbatim (a merge that
    /// landed, whole or torn, is re-applied idempotently).
    pub fn sil_on_part(
        &mut self,
        lists: &[Vec<Fingerprint>],
        carry_siu: bool,
    ) -> Result<SilPartOutput, DebarError> {
        let (id, w) = (self.id as u64, self.cfg.w_bits);
        let owned = move |fp: &&Fingerprint| fp.server_number(w) == id;
        let mut verdicts: Vec<Vec<Verdict>> = (lists.iter())
            .map(|list| Vec::with_capacity(list.iter().filter(owned).count()))
            .collect();
        let mut batch = (lists.iter().enumerate()).flat_map(|(origin, list)| {
            (list.iter().filter(owned)).map(move |&fp| (fp, origin as ServerId))
        });
        let mut stats = SilPartStats::default();
        let cache_cap = self.cfg.cache_fps().max(1);
        let parts = self.cfg.sweep_parts;
        let mut staged = FpSet::default();
        let carries = carry_siu && !self.pending_updates.is_empty();
        let mut siu: Option<SiuReport> = None;
        let mut cache = IndexCache::with_memory(self.cfg.cache_bytes);

        loop {
            let before = stats.submitted;
            for (fp, origin) in batch.by_ref().take(cache_cap) {
                stats.submitted += 1;
                cache.insert(fp, origin);
            }
            if stats.submitted == before {
                break;
            }
            stats.sweeps += 1;
            let sil = if carries && siu.is_none() {
                let t = (self.index).try_sequential_update_lookup_sharded(
                    &self.pending_updates,
                    &mut cache,
                    parts,
                )?;
                let (report, sil) = self.clock.charge(t);
                siu = Some(report);
                sil
            } else {
                let t = (self.index).try_sequential_lookup_sharded(&mut cache, parts)?;
                self.clock.charge(t)
            };
            let swept = self.clock.now();
            stats.parts = stats.parts.max(sil.parts);
            for node in &sil.duplicates {
                stats.dup_registered += node.origins.len() as u64;
                for &origin in &node.origins {
                    verdicts[origin as usize].push((node.fp, Decision::Skip, swept));
                }
            }
            cache.drain_each(|node| {
                if self.checking.contains(&node.fp) || staged.contains(&node.fp) {
                    // Scheduled by an earlier SIL (or sub-batch); its SIU
                    // is pending.
                    stats.dup_pending += node.origins.len() as u64;
                    for &origin in &node.origins {
                        verdicts[origin as usize].push((node.fp, Decision::Skip, swept));
                    }
                    return;
                }
                staged.insert(node.fp);
                stats.new_fps += 1;
                let storer = node.storer().expect("node has at least one origin");
                for &origin in &node.origins {
                    let d = if origin == storer {
                        Decision::Store
                    } else {
                        Decision::Skip
                    };
                    if origin != storer {
                        stats.dup_pending += 1;
                    }
                    verdicts[origin as usize].push((node.fp, d, swept));
                }
            });
        }
        if carries && siu.is_none() {
            // Nothing to sweep on this part: the carried SIU is the
            // standalone update sweep.
            let t = (self.index).try_sequential_update_sharded(&self.pending_updates, parts)?;
            siu = Some(self.clock.charge(t));
        }
        let carried = carry_siu.then(|| {
            let report = siu.unwrap_or_else(|| self.idle_siu());
            (report, self.pending_updates.len() as u64)
        });
        Ok(SilPartOutput {
            verdicts,
            stats,
            checking: staged,
            carried,
        })
    }

    /// Commit a successful PSIL pass's staged checking-file additions
    /// (cluster-driven, after *all* servers' passes succeeded). An empty
    /// checking file takes the staged set as it is.
    pub(crate) fn commit_checking(&mut self, staged: FpSet) {
        if self.checking.is_empty() {
            self.checking = staged;
        } else {
            self.checking.reserve(staged.len());
            self.checking.extend(staged);
        }
    }

    /// Make room in the decision map for `n` verdicts at once, before a
    /// PSIL commit hands them over.
    pub(crate) fn reserve_decisions(&mut self, n: usize) {
        self.decisions.reserve(n);
    }

    /// Take in verdicts an owner's committed PSIL pass gave this origin.
    /// The same fingerprint can be adjudicated twice — re-submitted by
    /// this origin into two SIL sub-batches (the first yields `Store`,
    /// the second a checking-file `Skip`), or already decided in a round
    /// whose store commit faulted — and a `Store` designation is binding:
    /// a later `Skip` never overwrites it.
    pub(crate) fn decide(&mut self, verdicts: &[Verdict]) {
        for &(fp, d, at) in verdicts {
            merge_decision(&mut self.decisions, fp, d, at);
        }
    }

    /// The pack stage of chunk storing (§5.3): decide once which log
    /// records this pass packs — a `Store` decision on the first
    /// occurrence of its fingerprint — drain the chunk log reading only
    /// those (striped across [`DebarConfig::store_workers`] worker disks,
    /// each seeking over the duplicate runs of its even share; see
    /// `chunklog.rs`), and pack them into SISL containers, each recorded
    /// with the log position it sealed at. Every drained record is
    /// processed; those not packed are discarded. The log and the decision
    /// map are read in place and the repository is **not** touched — no
    /// container IDs are assigned and no shared state is read — so the
    /// pack is charged to this server's clock alone.
    ///
    /// The drain waits for no barrier: each worker disk runs its pass's
    /// legs in log order on a lane of its own, a leg once the verdicts of
    /// the records it reaches are in — the end of the SIL sweep that
    /// decided them, on the owner's clock, or `psil_start` for a record
    /// decided before the round — so the log streams sweep `j`'s records
    /// while sweep `j + 1` runs, and no record is read before its owner
    /// swept it. The clock then moves to the last leg's end (if later)
    /// and the per-record probes follow. A round whose records one sweep
    /// decided, ending at this clock's now, drains exactly as it did
    /// behind a barrier.
    ///
    /// A drain fault (on any single worker disk) surfaces as `Err` with
    /// nothing moved, so the resumed round replays identically.
    pub fn pack_chunks(&mut self, psil_start: Secs) -> Result<PackOutput, DebarError> {
        // The records this pass packs, decided once: a `Store` decision on
        // the first occurrence of its fingerprint in the log. The drain
        // reads only these, and the pack loop consults nothing else.
        let mut packed = FpSet::default();
        let fps = self.chunk_log.records().fingerprints();
        let (wanted, decided): (Vec<bool>, Vec<Secs>) = (fps.iter())
            .map(|fp| match self.decisions.get(fp) {
                Some(&(d, at)) => {
                    let keep = d == Decision::Store && packed.insert(*fp);
                    (keep, at.max(psil_start))
                }
                None => (false, psil_start),
            })
            .unzip();

        let start = self.clock.now();
        let drain = (self.chunk_log).drain_striped(self.cfg.store_workers, &wanted, &decided)?;
        for legs in &drain.legs {
            let mut disk = Lane::new();
            for leg in legs {
                self.clock.advance_to(disk.run(leg.ready, leg.cost));
            }
        }
        let records = drain.records;
        let mut manager = ContainerManager::new(self.cfg.container_bytes);
        let mut containers: Vec<PackedContainer> = Vec::new();
        for (next, &keep) in wanted.iter().enumerate() {
            let c = self.cpu.probe_fps(1);
            self.clock.advance(c);
            if !keep {
                continue;
            }
            let rec = records.get(next);
            if let Some(container) = manager.append(rec.fp, rec.payload) {
                // `rec` did not fit: the sealed container ends just
                // before it, and it opens the next one.
                containers.push(PackedContainer {
                    container,
                    sealed_at: next,
                });
            }
        }
        if let Some(container) = manager.flush() {
            containers.push(PackedContainer {
                container,
                sealed_at: records.len(),
            });
        }
        Ok(PackOutput {
            wanted,
            containers,
            produced: self.clock.since(start),
        })
    }

    /// The commit stage of chunk storing: flush the packed
    /// container batch to the repository in seal order, then commit the
    /// pass — the one place this server's log and decision map move.
    /// Container IDs are assigned here, in canonical server order across
    /// the cluster, which is what keeps the pipelined phase
    /// byte-identical to the sequential model.
    ///
    /// Crash-consistent: a clean batch consumes the whole log and every
    /// decision. When container `k`'s write faults, the log keeps what
    /// the durable prefix did not store — container `k`'s own records
    /// (the wanted records of its log span) and every record from its
    /// seal position on — and the decision map gives up only the durable
    /// fingerprints; [`StoreOutcome::fault`] reports the interruption.
    /// `totals` gains the durable prefix's containers and chunks and what
    /// the log gave up, so the prefix and the resumed round count each
    /// record once. The durable prefix's assignments still flow to SIU;
    /// re-running the round stores the kept chunks into the *same*
    /// container IDs an uninterrupted run would have used.
    pub fn commit_packed(
        &mut self,
        pack: PackOutput,
        repo: &mut ChunkRepository,
        totals: &mut StoreReport,
    ) -> StoreOutcome {
        let PackOutput {
            wanted,
            containers,
            produced,
        } = pack;
        let mut assigned: Vec<(Fingerprint, ContainerId)> = Vec::new();
        // Stage each container's fingerprints (cheap: no payload clones)
        // before the batch consumes them.
        let staged_fps: Vec<Vec<Fingerprint>> = containers
            .iter()
            .map(|p| p.container.fingerprints().collect())
            .collect();
        let sealed_at: Vec<usize> = containers.iter().map(|p| p.sealed_at).collect();
        let stored_sizes: Vec<(u64, u64)> = containers
            .iter()
            .map(|p| (p.container.len() as u64, p.container.data_bytes()))
            .collect();
        let batch = repo.store_batch(containers.into_iter().map(|p| p.container));
        // Container writes land on physical repository-node disks and are
        // pipelined behind the log drain (the paper measures chunk
        // storing at exactly the log's sustained read rate, §6.1.2 — its
        // drain read the whole log; ours skips duplicate runs); only
        // the excess stalls. Placement spreads the batch over the nodes,
        // which drain side by side: each write queues on its node's lane
        // from the pack's start (this server's post-PSIL clock), so the
        // write path completes when the most-loaded node does, and adding
        // repository nodes moves the wall for real.
        let mut nodes = vec![Lane::new(); repo.node_count()];
        let store_path = (batch.writes.iter())
            .map(|&(node, cost)| nodes[node].run(0.0, cost))
            .fold(0.0, f64::max);
        let durable = batch.ids.len();
        let mut stored_chunks = 0;
        for (k, &cid) in batch.ids.iter().enumerate() {
            totals.containers += 1;
            stored_chunks += stored_sizes[k].0;
            totals.stored_bytes += stored_sizes[k].1;
            for &fp in &staged_fps[k] {
                assigned.push((fp, cid));
            }
        }
        let (log_records, log_bytes) = match batch.fault {
            None => {
                self.decisions = FpMap::default();
                self.chunk_log.commit(|_| false)
            }
            Some(_) => {
                // Container `durable`'s write failed: its log span runs
                // from the previous container's seal position to its own.
                let from = durable.checked_sub(1).map_or(0, |k| sealed_at[k]);
                let to = sealed_at[durable];
                for fp in staged_fps[..durable].iter().flatten() {
                    self.decisions.remove(fp);
                }
                self.chunk_log
                    .commit(|i| i >= to || (i >= from && wanted[i]))
            }
        };
        totals.log_records += log_records;
        totals.log_bytes += log_bytes;
        totals.stored_chunks += stored_chunks;
        totals.discarded += log_records - stored_chunks;

        if store_path > produced {
            self.clock.advance(store_path - produced);
        }
        StoreOutcome {
            assigned,
            fault: batch.fault.map(|(e, _)| e.into()),
        }
    }

    /// Make room in the unregistered file for `n` more mappings at once,
    /// before the assignments of a round's store commits are routed here.
    pub(crate) fn reserve_updates(&mut self, n: usize) {
        self.pending_updates.reserve_exact(n);
    }

    /// Accept unregistered fingerprints routed to this index part.
    pub fn queue_updates(&mut self, updates: impl IntoIterator<Item = (Fingerprint, ContainerId)>) {
        self.pending_updates.extend(updates);
    }

    /// Sequential index update (§5.4): merge all pending `(fp, container)`
    /// mappings into this part and clear them from the checking file — the
    /// standalone SIU of `force_siu` and the synchronous schedule. With
    /// nothing pending it touches no device and costs nothing.
    ///
    /// Fault-aware and **redo-idempotent**: an injected index-disk fault
    /// surfaces as [`DebarError::PartialSiu`] (possibly with a durable
    /// canonical-order prefix applied); the pending updates and checking
    /// file are kept, so re-running SIU re-applies the whole batch —
    /// overwrites for the durable prefix, inserts for the rest — and
    /// converges to the byte-identical uninterrupted index.
    pub fn run_siu(&mut self) -> Result<(SiuReport, u64), DebarError> {
        if self.pending_updates.is_empty() {
            return Ok((self.idle_siu(), 0));
        }
        let total = self.pending_updates.len() as u64;
        let t = (self.index)
            .try_sequential_update_sharded(&self.pending_updates, self.cfg.sweep_parts)
            .map_err(|e| {
                // SIU interruptions surface uniformly as PartialSiu (the
                // redo contract is identical whichever part-disk faulted,
                // torn or outright), naming the failing part-disk.
                let applied = match e {
                    IndexError::PartialSweep { applied, .. } => applied,
                    _ => 0,
                };
                let (device, fault) = (e.device(), e.fault());
                DebarError::PartialSiu {
                    device,
                    applied,
                    total,
                    fault,
                }
            })?;
        let report = self.clock.charge(t);
        self.release_updates();
        Ok((report, total))
    }

    /// The report of an SIU with nothing to merge: no sweep ran
    /// (`parts = 0`).
    fn idle_siu(&self) -> SiuReport {
        SiuReport {
            utilization_after: self.index.utilization(),
            ..SiuReport::default()
        }
    }

    /// Give up the pending updates an SIU registered, and their checking
    /// entries: after a standalone SIU, or at the commit of a PSIL pass
    /// that carried one (nothing is queued between a pass and its commit).
    pub(crate) fn release_updates(&mut self) {
        for (fp, _) in std::mem::take(&mut self.pending_updates) {
            self.checking.remove(&fp);
        }
    }

    /// The `(fingerprint, container)` mappings the next SIU registers.
    pub(crate) fn pending_updates(&self) -> &[(Fingerprint, ContainerId)] {
        &self.pending_updates
    }

    /// Whether the server is quiescent (no staged dedup-2 work) — the
    /// precondition for online scaling.
    pub fn is_quiesced(&self) -> bool {
        self.undetermined.is_empty()
            && self.chunk_log.is_empty()
            && self.pending_updates.is_empty()
            && self.checking.is_empty()
            && self.decisions.is_empty()
    }

    /// Performance scaling (§4.1): split this server into two servers with
    /// ids `2·id` and `2·id + 1`, each owning one of `parts`, the halves
    /// [`DiskIndex::split`] made (routing gains one prefix bit). Requires
    /// quiescence.
    pub(crate) fn split_for_scale_out(
        self,
        new_cfg: DebarConfig,
        mut parts: Vec<DiskIndex>,
    ) -> (BackupServer, BackupServer) {
        assert!(self.is_quiesced(), "scale-out requires a quiesced server");
        let old_id = self.id;
        let part1 = parts.pop().expect("two parts");
        let part0 = parts.pop().expect("two parts");
        let a = Self::with_index(old_id * 2, new_cfg, part0, self.clock.clone());
        let b = Self::with_index(old_id * 2 + 1, new_cfg, part1, self.clock);
        (a, b)
    }
}

/// Merge one storage decision, reached at `at`, into a decision map: a
/// `Store` designation is binding and must never be overwritten by a
/// later `Skip`. An entry keeps the time of the decision it holds.
fn merge_decision(map: &mut FpMap<(Decision, Secs)>, fp: Fingerprint, d: Decision, at: Secs) {
    map.entry(fp)
        .and_modify(|existing| {
            if d == Decision::Store && existing.0 != Decision::Store {
                *existing = (d, at);
            }
        })
        .or_insert((d, at));
}
