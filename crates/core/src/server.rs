//! The backup server (paper §3.3): the state of its File Store (dedup-1)
//! and the Chunk Store passes of dedup-2.
//!
//! Dedup-1 has one loop, and it lives on the cluster
//! (`DebarCluster::run_backup` in `backup.rs`), because its inline rungs
//! consult *other* servers' index parts and checking files. This server
//! is where the loop's effects land: the stream is charged to its NIC,
//! CPU and clock, survivors of the preliminary filter are appended to its
//! on-disk chunk log, their fingerprints accumulate here as
//! *undetermined*, backup-time `Store` verdicts are staged in its
//! carryover (`stage_inline_store`) and prefetched containers enter its
//! restore cache (`cache_container`).
//!
//! Dedup-2 pieces (driven phase by phase, in server-ID order, by
//! [`crate::cluster::DebarCluster`]):
//! [`BackupServer::sil_on_part`] (SIL over this server's index part with
//! checking-fingerprint-file semantics for asynchronous SIU, §5.4),
//! [`BackupServer::pack_chunks`] + [`BackupServer::commit_packed`] (drain
//! the log, write new chunks to containers per the SIL verdicts, §5.3)
//! and [`BackupServer::run_siu`] (merge the unregistered fingerprints into
//! the index part). Each advances only this server's own clock.

use crate::chunklog::{ChunkLog, LogRecord};
use crate::config::DebarConfig;
use crate::error::DebarError;
use crate::ids::{Device, ServerId};
use crate::report::StoreReport;
use debar_hash::{ContainerId, Fingerprint};
use debar_index::{DiskIndex, IndexCache, IndexError, SiuReport};
use debar_simio::models::paper;
use debar_simio::{Secs, SimCpu, SimLink, VirtualClock};
use debar_store::{ChunkRepository, Container, ContainerManager, LpcCache, Payload};
use std::collections::{HashMap, HashSet};

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

/// Output of one server's SIL pass: per-origin verdicts plus statistics.
pub struct SilPartOutput {
    /// `verdicts[origin]` = decisions for the fingerprints `origin`
    /// submitted to this part.
    pub verdicts: Vec<Vec<(Fingerprint, Decision)>>,
    /// Pass statistics.
    pub stats: SilPartStats,
    /// Fingerprints this pass designated for storage, to be added to the
    /// checking file **only after every server's PSIL succeeds** (staged
    /// so an interrupted round leaves no stale checking entries that
    /// would suppress the re-run's stores).
    pub newly_checking: Vec<Fingerprint>,
}

/// Outcome of one server's chunk-storing pass (§5.3). `fault` is `Some`
/// when the pass was interrupted: `report`/`assigned` then cover only the
/// durably stored prefix, the rest of the log was re-queued and the
/// storage decisions carried over for the resumed round.
pub struct StoreOutcome {
    /// Storage statistics for the durable part of the pass.
    pub report: StoreReport,
    /// Durable `(fingerprint, container)` assignments awaiting SIU.
    pub assigned: Vec<(Fingerprint, ContainerId)>,
    /// The interruption, if the pass faulted.
    pub fault: Option<DebarError>,
}

/// One container packed by the pack stage
/// ([`BackupServer::pack_chunks`]), carrying the drain-position metadata
/// the commit needs to reproduce the sequential model's crash rollback
/// exactly if its repository write faults.
struct PackedContainer {
    container: Container,
    /// Drain index the log tail re-queues from if *this* container's
    /// write faults: for an overflow-sealed container that is the index
    /// of its trigger record (the record that did not fit and sits alone
    /// in the next open container at that moment); for the final flushed
    /// container it is `records.len()`.
    requeue_from: usize,
    /// Records discarded as duplicates up to the moment this container
    /// sealed (the sequential model's `discarded` count at the fault).
    discarded_at_seal: u64,
}

/// Output of one server's pack stage: the drained log, the packed
/// container sequence and the merged storage decisions — everything the
/// commit ([`BackupServer::commit_packed`]) or a crash rollback
/// ([`BackupServer::abort_pack`]) needs. Packing touches no shared state
/// (the repository is not involved), which is what lets every server's
/// pack start at its own post-PSIL clock instead of a cluster barrier.
pub struct PackOutput {
    /// The full drained record sequence, in log order.
    records: Vec<LogRecord>,
    /// Containers in seal order (SISL stream order across the pass).
    containers: Vec<PackedContainer>,
    /// Log statistics of the drain (records, bytes, clean-path discards).
    log_records: u64,
    log_bytes: u64,
    discarded: u64,
    /// Merged storage decisions (carryover ∪ this round's verdicts), for
    /// carryover if the commit faults.
    decisions: HashMap<Fingerprint, Decision>,
    /// Virtual seconds the pack charged to this server's clock (log
    /// drain plus per-record probes) — the pipeline depth container
    /// writes hide behind.
    produced: Secs,
}

/// A DEBAR backup server.
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
    /// undetermined set and the checking file: the cluster's dedup-1 loop
    /// works on them directly).
    pub(crate) cpu: SimCpu,
    /// The on-disk chunk log.
    pub(crate) chunk_log: ChunkLog,
    /// Fingerprints awaiting the next dedup-2 sweep.
    pub(crate) undetermined: Vec<Fingerprint>,
    index: DiskIndex,
    /// The checking fingerprint file (§5.4): fingerprints scheduled for
    /// storage whose index registration (SIU) is still pending. Dedup-1's
    /// inline rungs consult it (a pending store is a duplicate) and add
    /// the stores they schedule.
    pub(crate) checking: HashSet<Fingerprint>,
    /// The unregistered fingerprint file: fp → container mappings awaiting
    /// SIU on this part.
    pending_updates: Vec<(Fingerprint, ContainerId)>,
    /// Storage decisions carried over from an interrupted chunk-storing
    /// phase: the chunk log still holds the matching records (re-queued at
    /// crash rollback), and the resumed round's [`BackupServer::pack_chunks`]
    /// merges these ahead of the new round's verdicts. Inline/hybrid
    /// backups stage their resolved-new `Store` decisions here too — the
    /// chunk-storing pass consumes both through the same merge.
    carryover: HashMap<Fingerprint, Decision>,
    /// Store decisions staged by the *backup path* (inline/hybrid dedup)
    /// since the last completed dedup-2 round — the
    /// `Dedup2Report::predetermined_fps` source. Reset only after a round
    /// commits, so a faulted round's resume still reports them.
    inline_staged: u64,
    /// LPC read cache (fingerprint side).
    pub(crate) lpc: LpcCache,
    /// Payload side of the LPC: resident containers for chunk extraction.
    pub(crate) container_cache: HashMap<ContainerId, CachedContainer>,
}

/// One entry of the restore cache — the chunks fetched from one container
/// (all of them after a whole-container read, the extents its recipe
/// wanted after a ranged one), keyed for O(1) extraction — and its place
/// on the restore pipeline's timeline.
pub(crate) struct CachedContainer {
    chunks: HashMap<Fingerprint, Payload>,
    /// Server-clock time the last read into this slot completed and
    /// verified: no chunk of it is delivered earlier.
    pub(crate) ready_at: Secs,
    /// Server-clock time the last chunk served from it left the NIC (its
    /// `ready_at` until one has): the fetch that evicts this container
    /// may not start before.
    pub(crate) last_sent: Secs,
}

impl CachedContainer {
    /// Chunk length and payload for a fingerprint, if the slot holds it.
    pub(crate) fn chunk(&self, fp: &Fingerprint) -> Option<(u32, Payload)> {
        (self.chunks.get(fp)).map(|payload| (payload.len() as u32, payload.clone()))
    }

    /// Bytes of payload the entry holds.
    #[cfg(test)]
    pub(crate) fn payload_bytes(&self) -> u64 {
        self.chunks.values().map(Payload::len).sum()
    }

    /// Take in what a read that completed at `ready_at` fetched. Nothing
    /// of the slot is delivered, and the slot is not given up, before
    /// that read is in.
    fn merge(&mut self, chunks: Vec<(Fingerprint, Payload)>, ready_at: Secs) {
        self.chunks.extend(chunks);
        self.ready_at = self.ready_at.max(ready_at);
        self.last_sent = self.last_sent.max(ready_at);
    }
}

/// An empty restore cache of the deployment's memory: the paper's LPC is
/// a byte budget, [`DebarConfig::lpc_containers`] whole containers' worth.
fn restore_cache(cfg: &DebarConfig) -> LpcCache {
    let container_bytes = cfg.container_bytes;
    LpcCache::with_memory(cfg.lpc_containers as u64 * container_bytes, container_bytes)
}

impl BackupServer {
    /// Create server `id` of a deployment described by `cfg`.
    pub fn new(id: ServerId, cfg: DebarConfig) -> Self {
        // This server owns index part `id`: the first w fingerprint bits
        // route to it, the *next* n bits are its bucket number (§5.2).
        let index = DiskIndex::with_prefix(
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
            checking: HashSet::new(),
            pending_updates: Vec::new(),
            carryover: HashMap::new(),
            inline_staged: 0,
            lpc: restore_cache(&cfg),
            container_cache: HashMap::new(),
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

    /// Drop the restore read caches (LPC + decoded-container cache).
    /// Garbage collection calls this after reclaiming containers: a stale
    /// cached mapping to a deleted container must never serve a read.
    pub(crate) fn invalidate_read_caches(&mut self) {
        self.lpc = restore_cache(&self.cfg);
        self.container_cache.clear();
    }

    /// Admit what a container read fetched to the restore cache — the one
    /// way in. The LPC (fingerprint side) and the payload cache move in
    /// lockstep, and map exactly the chunks fetched.
    ///
    /// The cache is bounded by what it holds: `bytes` is what the fetch
    /// weighs — one whole container for a caller that read one, the
    /// payload bytes of its extents for a ranged read — and the entries
    /// together never weigh more than `lpc_containers × container_bytes`,
    /// *the fetch coming in included*. So first residents leave, both
    /// sides, until it fits: those `victim(self, sent)` names, one at a
    /// time for as long as [`LpcCache::shortfall`] says more must go
    /// (`sent` being when the last chunk of those already given up left
    /// the NIC), and whatever the LPC's own LRU still evicts once the
    /// caller names nobody. Then the fetched fingerprints enter the LPC
    /// and the chunks the payload cache, ready at `ready_at(sent)` — which
    /// the restore walk's fetch must wait for (0 when nothing was evicted).
    ///
    /// A container that **is resident** — a partial entry whose recipe
    /// wanted less than a later miss needs, or one a fingerprint of which
    /// lost its mapping to a younger resident — is merged into, in its own
    /// entry: it grows by what is new, is never its own victim, and the
    /// whole entry is ready no earlier than this read.
    ///
    /// A caller that does not know the future names no victim and gets
    /// the paper's LRU (the inline-backup prefetch). The restore walk
    /// knows its recipe and names victims until the fetch fits, so for it
    /// the LRU never has anything left to evict.
    pub(crate) fn cache_container(
        &mut self,
        cid: ContainerId,
        chunks: Vec<(Fingerprint, Payload)>,
        bytes: u64,
        mut victim: impl FnMut(&Self, Secs) -> Option<ContainerId>,
        ready_at: impl FnOnce(Secs) -> Secs,
    ) {
        let mut sent: Secs = 0.0;
        while self.lpc.shortfall(cid, bytes) > 0 {
            let Some(chosen) = victim(self, sent).filter(|&v| self.lpc.evict(v)) else {
                break;
            };
            sent = self.drop_payload(chosen, sent);
        }
        let fps = chunks.iter().map(|(fp, _)| *fp).collect();
        for evicted in self.lpc.insert_extents(cid, fps, bytes) {
            sent = self.drop_payload(evicted, sent);
        }
        let slot = self.container_cache.entry(cid).or_insert(CachedContainer {
            chunks: HashMap::new(),
            ready_at: 0.0,
            last_sent: 0.0,
        });
        slot.merge(chunks, ready_at(sent));
    }

    /// The payload side of an eviction: drop the container's chunks.
    /// Returns when the last chunk of it, and of those given up before it
    /// (`sent`), had left the NIC.
    fn drop_payload(&mut self, evicted: ContainerId, sent: Secs) -> Secs {
        let gone = self.container_cache.remove(&evicted);
        gone.map_or(sent, |gone| sent.max(gone.last_sent))
    }

    /// Charge a network transfer to this server's clock.
    pub(crate) fn charge_net(&mut self, bytes: u64) {
        let c = self.nic.stream(bytes);
        self.clock.advance(c);
    }

    /// Take the accumulated undetermined fingerprints (start of dedup-2).
    pub fn take_undetermined(&mut self) -> Vec<Fingerprint> {
        std::mem::take(&mut self.undetermined)
    }

    // ------------------------------------------------------------------
    // Backup-time verdicts (staged by the dedup-1 loop's probe rung; an
    // out-of-line run has no probe budget and never reaches them)
    // ------------------------------------------------------------------

    /// Stage an inline-resolved `Store` decision for a chunk this server
    /// just logged: the next chunk-storing pass consumes it through the
    /// same carryover merge an interrupted round uses.
    pub(crate) fn stage_inline_store(&mut self, fp: Fingerprint) {
        merge_decision(&mut self.carryover, fp, Decision::Store);
        self.inline_staged += 1;
    }

    /// Roll one staged inline `Store` back (backup abort: the stray log
    /// record must carry no verdict, exactly like an aborted out-of-line
    /// run's records).
    pub(crate) fn unstage_inline_store(&mut self, fp: &Fingerprint) {
        self.carryover.remove(fp);
        self.inline_staged = self.inline_staged.saturating_sub(1);
    }

    /// Store decisions the backup path staged since the last completed
    /// dedup-2 round (`Dedup2Report::predetermined_fps`).
    pub fn inline_staged(&self) -> u64 {
        self.inline_staged
    }

    /// Clear the inline-staged counter (cluster-driven, after the round's
    /// chunk-storing phase committed the staged decisions).
    pub(crate) fn reset_inline_staged(&mut self) {
        self.inline_staged = 0;
    }

    // ------------------------------------------------------------------
    // Dedup-2: Chunk Store
    // ------------------------------------------------------------------

    /// Sequential index lookups over this server's part for a batch of
    /// `(fingerprint, origin)` pairs (PSIL worker, §5.2).
    ///
    /// The batch is processed in index-cache-capacity sub-batches; each
    /// sub-batch costs one sequential sweep of the index part. Verdicts are
    /// grouped by origin for the result exchange. The checking fingerprint
    /// file suppresses re-stores of chunks whose SIU is still pending, and
    /// the lowest origin is designated storer when several submit the same
    /// new fingerprint in one round (§5.4).
    /// Fault-aware: an injected fault on the index disk aborts the pass
    /// with a typed error and **no state change** — the checking-file
    /// additions are staged in the returned [`SilPartOutput`] and
    /// committed by the cluster only once every server's PSIL succeeds,
    /// so an interrupted round can be re-run verbatim.
    pub fn sil_on_part(
        &mut self,
        batch: &[(Fingerprint, ServerId)],
        servers: usize,
    ) -> Result<SilPartOutput, DebarError> {
        let mut verdicts: Vec<Vec<(Fingerprint, Decision)>> = vec![Vec::new(); servers];
        let mut stats = SilPartStats::default();
        let cache_cap = self.cfg.cache_fps();
        let mut newly_checking: Vec<Fingerprint> = Vec::new();
        let mut staged: HashSet<Fingerprint> = HashSet::new();

        for sub in batch.chunks(cache_cap.max(1)) {
            stats.sweeps += 1;
            let mut cache = IndexCache::with_memory(self.cfg.cache_bytes);
            for &(fp, origin) in sub {
                stats.submitted += 1;
                cache.insert(fp, origin);
            }
            let t = self
                .index
                .try_sequential_lookup_sharded(&mut cache, self.cfg.sweep_parts)
                .map_err(|e| DebarError::index_fault(self.id, e))?;
            let sil = self.clock.charge(t);
            stats.parts = stats.parts.max(sil.parts);
            for node in &sil.duplicates {
                stats.dup_registered += node.origins.len() as u64;
                for &origin in &node.origins {
                    verdicts[origin as usize].push((node.fp, Decision::Skip));
                }
            }
            for node in cache.drain() {
                if self.checking.contains(&node.fp) || staged.contains(&node.fp) {
                    // Scheduled by an earlier SIL (or sub-batch); its SIU
                    // is pending.
                    stats.dup_pending += node.origins.len() as u64;
                    for &origin in &node.origins {
                        verdicts[origin as usize].push((node.fp, Decision::Skip));
                    }
                    continue;
                }
                staged.insert(node.fp);
                newly_checking.push(node.fp);
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
                    verdicts[origin as usize].push((node.fp, d));
                }
            }
        }
        Ok(SilPartOutput {
            verdicts,
            stats,
            newly_checking,
        })
    }

    /// Commit a successful PSIL pass's staged checking-file additions
    /// (cluster-driven, after *all* servers' passes succeeded).
    pub(crate) fn commit_checking(&mut self, fps: &[Fingerprint]) {
        self.checking.extend(fps.iter().copied());
    }

    /// Restore undetermined fingerprints after an interrupted round (exact
    /// original order — sub-batch boundaries must reproduce on re-run).
    pub(crate) fn restore_undetermined(&mut self, mut fps: Vec<Fingerprint>) {
        fps.append(&mut self.undetermined);
        self.undetermined = fps;
    }

    /// The pack stage of chunk storing (§5.3): decide once which log
    /// records this pass packs — a `Store` verdict (carryover merged with
    /// this round's) on the first occurrence of its fingerprint — drain
    /// the chunk log reading only those (striped across
    /// [`DebarConfig::store_workers`] worker disks, each seeking over the
    /// duplicate runs of its even share, wall time the slowest worker;
    /// see `chunklog.rs`), and pack them into SISL containers, each
    /// recorded with the drain position it sealed at. Every drained record
    /// is processed and counted; those not packed are discarded. The
    /// repository is **not** touched — no
    /// container IDs are assigned and no shared state is read — so the
    /// pack is charged to this server's clock alone and, in virtual time,
    /// overlaps stragglers still sweeping PSIL.
    ///
    /// A drain fault (on any single worker disk) leaves every record
    /// in the log, carries the merged storage decisions over and
    /// surfaces as `Err` — the resumed round replays identically.
    pub fn pack_chunks(
        &mut self,
        decisions: &HashMap<Fingerprint, Decision>,
    ) -> Result<PackOutput, DebarError> {
        // Merge decisions carried over from an interrupted round; a Store
        // designation is binding and never downgraded.
        let decisions = {
            let mut merged = std::mem::take(&mut self.carryover);
            for (&fp, &d) in decisions {
                merge_decision(&mut merged, fp, d);
            }
            merged
        };

        // The records this pass packs, decided once: a `Store` verdict on
        // the first occurrence of its fingerprint in the log. The drain
        // reads only these, and the pack loop consults nothing else.
        let mut packed: HashSet<Fingerprint> = HashSet::new();
        let store = |fp: &Fingerprint| matches!(decisions.get(fp), Some(Decision::Store));
        let wanted: Vec<bool> = (self.chunk_log.records().iter())
            .map(|rec| store(&rec.fp) && packed.insert(rec.fp))
            .collect();

        let start = self.clock.now();
        // Fault-checked log replay: a drain fault leaves every record in
        // the log (the read pointer never advanced), so the resumed
        // round's drain replays the identical sequence — just carry the
        // storage decisions over and report the interruption.
        let t = match self
            .chunk_log
            .try_drain_striped(self.cfg.store_workers, &wanted)
        {
            Ok(t) => t,
            Err(e) => {
                self.carryover = decisions;
                return Err(e);
            }
        };
        let log_bytes = t.value.iter().map(|r| r.record_bytes()).sum();
        let records = self.clock.charge(t);
        let mut manager = ContainerManager::new(self.cfg.container_bytes);
        let mut containers: Vec<PackedContainer> = Vec::new();
        let mut discarded = 0u64;

        for (next, (rec, &keep)) in records.iter().zip(&wanted).enumerate() {
            let c = self.cpu.probe_fps(1);
            self.clock.advance(c);
            if !keep {
                discarded += 1;
                continue;
            }
            if let Some(container) = manager.append(rec.fp, rec.payload.clone()) {
                // `rec` did not fit: it is the sealed container's trigger
                // and sits alone in the fresh open container right now —
                // the position the sequential model's crash rollback
                // re-queues from.
                containers.push(PackedContainer {
                    container,
                    requeue_from: next,
                    discarded_at_seal: discarded,
                });
            }
        }
        if let Some(container) = manager.flush() {
            // The final flushed container: no trigger record — a fault on
            // it re-queues only its own chunks.
            containers.push(PackedContainer {
                container,
                requeue_from: records.len(),
                discarded_at_seal: discarded,
            });
        }

        Ok(PackOutput {
            log_records: records.len() as u64,
            records,
            containers,
            log_bytes,
            discarded,
            decisions,
            produced: self.clock.since(start),
        })
    }

    /// The commit stage of chunk storing: flush the packed
    /// container batch to the repository in seal order. Container IDs are
    /// assigned here, in canonical server order across the cluster, which
    /// is what keeps the pipelined phase byte-identical to the sequential
    /// model.
    ///
    /// Crash-consistent: when a container write faults, the chunks of the
    /// failed container and the drained log tail from its seal position
    /// are re-queued at the front of the chunk log (exactly the records a
    /// sequential drain would not yet have consumed), the storage
    /// decisions not yet durable are carried over, and
    /// [`StoreOutcome::fault`] reports the interruption. The durable
    /// prefix's assignments still flow to SIU; re-running the round
    /// stores the re-queued chunks into the *same* container IDs an
    /// uninterrupted run would have used.
    pub fn commit_packed(&mut self, pack: PackOutput, repo: &mut ChunkRepository) -> StoreOutcome {
        let PackOutput {
            records,
            containers,
            log_records,
            log_bytes,
            discarded,
            mut decisions,
            produced,
        } = pack;
        let mut report = StoreReport {
            log_records,
            log_bytes,
            discarded,
            ..StoreReport::default()
        };
        let mut assigned: Vec<(Fingerprint, ContainerId)> = Vec::new();
        // Stage each container's fingerprints (cheap: no payload clones)
        // before the batch consumes them.
        let staged_fps: Vec<Vec<Fingerprint>> = containers
            .iter()
            .map(|p| p.container.fingerprints().collect())
            .collect();
        let meta: Vec<(usize, u64)> = containers
            .iter()
            .map(|p| (p.requeue_from, p.discarded_at_seal))
            .collect();
        let stored_sizes: Vec<(u64, u64)> = containers
            .iter()
            .map(|p| (p.container.len() as u64, p.container.data_bytes()))
            .collect();
        let batch = repo.store_batch(containers.into_iter().map(|p| p.container));
        // Container writes land on physical repository-node disks and are
        // pipelined behind the log drain (the paper measures chunk
        // storing at exactly the log's sustained read rate, §6.1.2 — its
        // drain read the whole log; ours skips duplicate runs); only
        // the excess stalls. Placement spreads the batch over the nodes
        // draining in parallel, so the write path completes at the max
        // over the nodes actually written — the most-loaded node is the
        // straggler, and adding repository nodes moves the wall for real.
        let store_cost = batch.cost;
        let durable = batch.ids.len();
        for (k, &cid) in batch.ids.iter().enumerate() {
            report.containers += 1;
            report.stored_chunks += stored_sizes[k].0;
            report.stored_bytes += stored_sizes[k].1;
            for &fp in &staged_fps[k] {
                assigned.push((fp, cid));
            }
        }
        let fault = match batch.fault {
            None => None,
            Some((e, failed)) => {
                // Crash rollback, reproducing the sequential model's log
                // state at the moment container `durable`'s write failed:
                // the failed container's chunks in stream order, then the
                // log tail from its seal position (which starts with the
                // trigger record the open container held).
                let (requeue_from, discarded_at_seal) = meta[durable];
                report.discarded = discarded_at_seal;
                let mut requeue: Vec<LogRecord> =
                    Vec::with_capacity(failed.len() + records.len().saturating_sub(requeue_from));
                requeue.extend(
                    failed
                        .chunks()
                        .map(|(fp, payload)| LogRecord { fp, payload }),
                );
                requeue.extend(records[requeue_from..].iter().map(|r| LogRecord {
                    fp: r.fp,
                    payload: r.payload.clone(),
                }));
                self.chunk_log.requeue_front(requeue);
                // Decisions for everything not yet durable carry over to
                // the resumed round.
                for fps in &staged_fps[..durable] {
                    for fp in fps {
                        decisions.remove(fp);
                    }
                }
                self.carryover = decisions;
                Some(e.into())
            }
        };

        let store_path = store_cost;
        if store_path > produced {
            self.clock.advance(store_path - produced);
        }
        StoreOutcome {
            report,
            assigned,
            fault,
        }
    }

    /// Roll a successful pack back without committing anything: re-queue
    /// the full drained record sequence at the front of the log (order
    /// preserved — the log's content is exactly what it was before the
    /// drain) and carry the merged storage decisions over. The cluster
    /// uses this when a *sibling* server's pass faulted in the same
    /// phase: this server's log state must look as if
    /// its drain never ran, so the resumed round replays identically.
    pub fn abort_pack(&mut self, pack: PackOutput) {
        self.chunk_log.requeue_front(pack.records);
        self.carryover = pack.decisions;
    }

    /// Accept unregistered fingerprints routed to this index part.
    pub fn queue_updates(&mut self, updates: impl IntoIterator<Item = (Fingerprint, ContainerId)>) {
        self.pending_updates.extend(updates);
    }

    /// Snapshot of the pending (unregistered) mappings as a map, latest
    /// entry winning — the overlay the capping pass resolves against
    /// before SIU has registered this round's assignments (see
    /// `layout.rs`).
    pub(crate) fn pending_update_map(&self) -> HashMap<Fingerprint, ContainerId> {
        self.pending_updates.iter().copied().collect()
    }

    /// Repoint one fingerprint of this part to a rewritten container:
    /// a pending SIU mapping is overwritten **in place** (keeping one
    /// mapping per fingerprint, so the SIU batch stays canonical), a
    /// registered entry is updated directly (the GC-compaction path).
    pub(crate) fn repoint(&mut self, fp: &Fingerprint, cid: ContainerId) {
        let mut pending = false;
        for (f, c) in self.pending_updates.iter_mut() {
            if f == fp {
                *c = cid;
                pending = true;
            }
        }
        if !pending {
            self.index.set_cid_uncharged(fp, cid);
        }
    }

    /// Sequential index update (§5.4): merge all pending `(fp, container)`
    /// mappings into this part and clear them from the checking file.
    ///
    /// Fault-aware and **redo-idempotent**: an injected index-disk fault
    /// surfaces as [`DebarError::PartialSiu`] (possibly with a durable
    /// canonical-order prefix applied); the pending updates and checking
    /// file are kept, so re-running SIU re-applies the whole batch —
    /// overwrites for the durable prefix, inserts for the rest — and
    /// converges to the byte-identical uninterrupted index.
    pub fn run_siu(&mut self) -> Result<(SiuReport, u64), DebarError> {
        let updates = std::mem::take(&mut self.pending_updates);
        match self
            .index
            .try_sequential_update_sharded(&updates, self.cfg.sweep_parts)
        {
            Ok(t) => {
                let report = self.clock.charge(t);
                for (fp, _) in &updates {
                    self.checking.remove(fp);
                }
                let n = updates.len() as u64;
                Ok((report, n))
            }
            Err(e) => {
                let total = updates.len() as u64;
                // SIU interruptions surface uniformly as PartialSiu (the
                // redo contract is identical whichever part-disk faulted,
                // torn or outright), naming the failing part-disk.
                let applied = match e {
                    IndexError::PartialSweep { applied, .. } => applied,
                    _ => 0,
                };
                self.pending_updates = updates;
                Err(DebarError::PartialSiu {
                    device: Device::IndexPart {
                        server: self.id,
                        part: e.part(),
                    },
                    applied,
                    total,
                    fault: e.fault(),
                })
            }
        }
    }

    /// Whether the server is quiescent (no staged dedup-2 work) — the
    /// precondition for online scaling.
    pub fn is_quiesced(&self) -> bool {
        self.undetermined.is_empty()
            && self.chunk_log.is_empty()
            && self.pending_updates.is_empty()
            && self.checking.is_empty()
            && self.carryover.is_empty()
    }

    /// Performance scaling (§4.1): split this server into two servers with
    /// ids `2·id` and `2·id + 1`, each owning half the index part (routing
    /// gains one prefix bit). Requires quiescence.
    pub(crate) fn split_for_scale_out(
        mut self,
        new_cfg: DebarConfig,
    ) -> (BackupServer, BackupServer) {
        assert!(self.is_quiesced(), "scale-out requires a quiesced server");
        let old_id = self.id;
        let t = self.index.split(1);
        self.clock.advance(t.cost);
        let mut parts = t.value;
        let part1 = parts.pop().expect("two parts");
        let part0 = parts.pop().expect("two parts");
        let a = Self::with_index(old_id * 2, new_cfg, part0, self.clock.clone());
        let b = Self::with_index(old_id * 2 + 1, new_cfg, part1, self.clock);
        (a, b)
    }
}

/// Merge one storage decision into a decision map: a `Store` designation
/// is binding and must never be overwritten by a later `Skip`.
pub(crate) fn merge_decision(
    map: &mut HashMap<Fingerprint, Decision>,
    fp: Fingerprint,
    d: Decision,
) {
    map.entry(fp)
        .and_modify(|existing| {
            if d == Decision::Store {
                *existing = Decision::Store;
            }
        })
        .or_insert(d);
}
