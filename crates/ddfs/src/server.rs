//! The DDFS backup server baseline.

use debar_filter::BloomFilter;
use debar_hash::{ContainerId, Fingerprint};
use debar_index::{DiskIndex, IndexParams};
use debar_simio::models::paper;
use debar_simio::{Secs, SimCpu, SimLink, VirtualClock};
use debar_store::{ChunkRepository, Container, ContainerManager, LpcCache, Payload, StoreError};
use debar_workload::ChunkRecord;
use serde::{Deserialize, Serialize};

/// DDFS configuration (defaults follow the paper's §6.1 testbed, scaled
/// sizes left to the caller).
#[derive(Debug, Clone, Copy)]
pub struct DdfsConfig {
    /// Bloom-filter (summary vector) memory in bytes.
    pub bloom_bytes: u64,
    /// Bloom hash function count (the paper's experiment uses k = 4).
    pub bloom_k: u32,
    /// LPC capacity in containers (128 MB / 8 MB = 16 in the paper).
    pub lpc_containers: usize,
    /// Write-buffer capacity in fingerprints (256 MB in the paper).
    pub write_buffer_fps: usize,
    /// Disk-index geometry.
    pub index: IndexParams,
    /// Container size in bytes.
    pub container_bytes: u64,
    /// Chunk-repository storage nodes.
    pub repo_nodes: usize,
    /// Seed for the index's overflow randomness.
    pub seed: u64,
}

impl DdfsConfig {
    /// The paper's single-server configuration at a given scale denominator
    /// (1 GB Bloom, 16-container LPC, 256 MB write buffer, 32 GB index).
    pub fn paper_scaled(denom: u64) -> Self {
        let scale = debar_simio::ScaleModel::new(denom);
        DdfsConfig {
            bloom_bytes: scale.to_actual(1 << 30),
            bloom_k: 4,
            lpc_containers: 16,
            write_buffer_fps: scale.to_actual((256 << 20) / 25) as usize,
            index: IndexParams::from_total_size(scale.to_actual(32 << 30), 512),
            container_bytes: 8 << 20,
            repo_nodes: 2,
            seed: 0xDDF5,
        }
    }
}

/// Cumulative DDFS statistics.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct DdfsStats {
    /// Logical bytes received.
    pub logical_bytes: u64,
    /// Logical chunks received.
    pub logical_chunks: u64,
    /// Chunks stored (including false-positive-free new chunks and any
    /// duplicates stored because the index had not yet been updated).
    pub stored_chunks: u64,
    /// Bytes stored.
    pub stored_bytes: u64,
    /// Chunks identified duplicate.
    pub dup_chunks: u64,
    /// Bloom-filter negatives (definitely-new shortcuts).
    pub bloom_negatives: u64,
    /// Bloom false positives (positive + LPC miss + index miss).
    pub bloom_false_positives: u64,
    /// Random disk-index lookups performed.
    pub index_lookups: u64,
    /// Write-buffer flushes (stream pauses).
    pub flushes: u64,
}

/// Report for one backup stream.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DdfsBackupReport {
    /// Logical bytes in this stream.
    pub logical_bytes: u64,
    /// Chunks in this stream.
    pub chunks: u64,
    /// New chunks stored.
    pub new_chunks: u64,
    /// Duplicates eliminated.
    pub dup_chunks: u64,
    /// Bloom false positives encountered.
    pub false_positives: u64,
    /// Buffer flushes during this stream.
    pub flushes: u64,
    /// Virtual seconds consumed.
    pub elapsed: Secs,
}

impl DdfsBackupReport {
    /// Stream throughput in MiB/s.
    pub fn throughput_mibps(&self) -> f64 {
        debar_simio::throughput::mibps(self.logical_bytes, self.elapsed)
    }
}

/// The DDFS backup server.
pub struct DdfsServer {
    cfg: DdfsConfig,
    bloom: BloomFilter,
    lpc: LpcCache,
    index: DiskIndex,
    repo: ChunkRepository,
    manager: ContainerManager,
    /// Fingerprints in the open (unsealed) container, awaiting an ID.
    open_fps: Vec<Fingerprint>,
    /// Membership view of `open_fps`: the in-memory fingerprint table for
    /// the current container (prevents re-storing repeats that arrive
    /// before the container seals).
    open_set: std::collections::HashSet<Fingerprint>,
    write_buffer: Vec<(Fingerprint, ContainerId)>,
    /// Membership view of the write buffer: buffered fingerprints are part
    /// of DDFS's in-memory fingerprint cache and resolve duplicates without
    /// disk I/O until the flush lands them in the index.
    buffer_set: std::collections::HashMap<Fingerprint, ContainerId>,
    /// Accumulated asynchronous container-write cost awaiting overlap
    /// accounting at stream end.
    async_store_cost: Secs,
    clock: VirtualClock,
    nic: SimLink,
    cpu: SimCpu,
    stats: DdfsStats,
}

impl DdfsServer {
    /// Create a server.
    pub fn new(cfg: DdfsConfig) -> Self {
        DdfsServer {
            bloom: BloomFilter::with_memory(cfg.bloom_bytes, cfg.bloom_k),
            lpc: LpcCache::new(cfg.lpc_containers),
            index: DiskIndex::with_paper_disk(cfg.index, cfg.seed),
            repo: ChunkRepository::new(cfg.repo_nodes, paper::repo_disk(), cfg.container_bytes),
            manager: ContainerManager::new(cfg.container_bytes),
            open_fps: Vec::new(),
            open_set: std::collections::HashSet::new(),
            write_buffer: Vec::with_capacity(cfg.write_buffer_fps.min(1 << 22)),
            buffer_set: std::collections::HashMap::new(),
            async_store_cost: 0.0,
            clock: VirtualClock::new(),
            nic: SimLink::new(paper::server_nic()),
            cpu: SimCpu::new(paper::cpu()),
            stats: DdfsStats::default(),
            cfg,
        }
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> DdfsStats {
        self.stats
    }

    /// The virtual clock.
    pub fn now(&self) -> Secs {
        self.clock.now()
    }

    /// Current Bloom bits-per-key ratio (`m/n`).
    pub fn bloom_bits_per_key(&self) -> f64 {
        self.bloom.bits_per_key()
    }

    /// The repository (for verification in tests).
    pub fn repository(&self) -> &ChunkRepository {
        &self.repo
    }

    /// Pre-load ballast fingerprints (experiment setup: the system already
    /// stores this data). Inserts into the Bloom filter and the disk index
    /// without charging virtual time.
    pub fn preload(&mut self, entries: impl IntoIterator<Item = (Fingerprint, ContainerId)>) {
        let batch: Vec<(Fingerprint, ContainerId)> = entries.into_iter().collect();
        let fps: Vec<Fingerprint> = batch.iter().map(|(fp, _)| *fp).collect();
        self.bloom.insert_all(&fps);
        self.stats.stored_chunks += batch.len() as u64;
        self.index
            .try_bulk_load_striped(batch, 1)
            .expect("no fault plan is ever armed on the baseline's index");
    }

    /// Process one backup stream inline. Injected storage faults and
    /// detected container corruption surface as typed [`StoreError`]s.
    pub fn backup_stream(
        &mut self,
        records: &[ChunkRecord],
    ) -> Result<DdfsBackupReport, StoreError> {
        let start = self.clock.now();
        let mut report = DdfsBackupReport {
            logical_bytes: 0,
            chunks: 0,
            new_chunks: 0,
            dup_chunks: 0,
            false_positives: 0,
            flushes: 0,
            elapsed: 0.0,
        };
        // Summary-vector probes run in batches through the blocked Bloom
        // filter's batch API (one cache line per probe, verdicts computed
        // up front). A fingerprint stored *within* the current batch makes
        // its precomputed verdict stale, so those are tracked and routed
        // through the positive path exactly as the record-at-a-time code
        // did.
        const BLOOM_BATCH: usize = 4096;
        let mut batch_inserted: std::collections::HashSet<Fingerprint> = Default::default();
        for batch in records.chunks(BLOOM_BATCH) {
            let batch_fps: Vec<Fingerprint> = batch.iter().map(|r| r.fp).collect();
            let verdicts = self.bloom.contains_all(&batch_fps);
            batch_inserted.clear();
            for (rec, &in_bloom) in batch.iter().zip(&verdicts) {
                report.logical_bytes += rec.len as u64;
                report.chunks += 1;
                self.stats.logical_bytes += rec.len as u64;
                self.stats.logical_chunks += 1;

                // 1. All chunk data crosses the wire (server-side dedup).
                let c = self.nic.stream(rec.len as u64 + 25);
                self.clock.advance(c);
                // 2. Summary vector.
                let c = self.cpu.probe_fps(1);
                self.clock.advance(c);
                if !in_bloom && !batch_inserted.contains(&rec.fp) {
                    self.stats.bloom_negatives += 1;
                    report.new_chunks += 1;
                    batch_inserted.insert(rec.fp);
                    let f = self.store_new(*rec)?;
                    report.flushes += f;
                    continue;
                }
                // 3. The in-memory fingerprint cache: LPC, the open
                // container's table, and the (searchable) write buffer.
                if self.lpc.lookup(&rec.fp).is_some()
                    || self.open_set.contains(&rec.fp)
                    || self.buffer_set.contains_key(&rec.fp)
                {
                    self.stats.dup_chunks += 1;
                    report.dup_chunks += 1;
                    continue;
                }
                // 4. Random index lookup.
                self.stats.index_lookups += 1;
                let t = self.index.lookup_random(&rec.fp);
                let found = self.clock.charge(t);
                match found {
                    Some(cid) => {
                        // Prefetch the container's fingerprints into LPC.
                        let metas = self.repo.read_metas(cid);
                        let cost = metas.legs.cost();
                        self.clock.advance(cost);
                        if let Some(fps) = metas.value? {
                            self.lpc.insert_container(cid, fps);
                        }
                        self.stats.dup_chunks += 1;
                        report.dup_chunks += 1;
                    }
                    None => {
                        // False positive: the chunk is actually new.
                        self.stats.bloom_false_positives += 1;
                        report.false_positives += 1;
                        report.new_chunks += 1;
                        batch_inserted.insert(rec.fp);
                        let f = self.store_new(*rec)?;
                        report.flushes += f;
                    }
                }
            }
        }
        // Settle pipelined container writes: round-robin placement spreads
        // them across repository nodes in parallel; only time exceeding the
        // inline stream stalls the backup.
        let store_path = self.async_store_cost / self.repo.node_count() as f64;
        self.async_store_cost = 0.0;
        let produced = self.clock.since(start);
        if store_path > produced {
            self.clock.advance(store_path - produced);
        }
        report.elapsed = self.clock.since(start);
        Ok(report)
    }

    /// Store a new chunk; returns the number of buffer flushes triggered.
    fn store_new(&mut self, rec: ChunkRecord) -> Result<u64, StoreError> {
        self.bloom.insert(&rec.fp);
        self.stats.stored_chunks += 1;
        self.stats.stored_bytes += rec.len as u64;
        if let Some(sealed) = self.manager.append(rec.fp, Payload::Zero(rec.len)) {
            self.seal(sealed)?;
        }
        self.open_fps.push(rec.fp);
        self.open_set.insert(rec.fp);
        if self.write_buffer.len() >= self.cfg.write_buffer_fps {
            self.flush_write_buffer();
            return Ok(1);
        }
        Ok(0)
    }

    fn seal(&mut self, sealed: Container) -> Result<(), StoreError> {
        let fps: Vec<Fingerprint> = sealed.fingerprints().collect();
        // Container writes go to repository-node disks, pipelined behind
        // the inline stream; the excess is settled at stream end.
        let t = self.repo.store(sealed);
        self.async_store_cost += t.cost;
        let cid = t.value?;
        // Fingerprints of the sealed container: into LPC (recently written
        // chunks are the hottest duplicate targets) and the write buffer.
        debug_assert_eq!(fps.len(), self.open_fps.len());
        self.open_fps.clear();
        self.open_set.clear();
        for fp in &fps {
            self.write_buffer.push((*fp, cid));
            self.buffer_set.insert(*fp, cid);
        }
        self.lpc.insert_container(cid, fps);
        Ok(())
    }

    /// Flush the write buffer: the stream pauses for a sequential
    /// read-merge-write sweep of the disk index (the paper's §6.1.2
    /// "the system pauses to flush the buffer to the disk index using the
    /// SIU algorithm").
    pub fn flush_write_buffer(&mut self) {
        if self.write_buffer.is_empty() {
            return;
        }
        self.stats.flushes += 1;
        let updates = std::mem::take(&mut self.write_buffer);
        self.buffer_set.clear();
        let t = self
            .index
            .try_sequential_update_sharded(&updates, 1)
            .expect("no fault plan is ever armed on the baseline's index");
        self.clock.advance(t.cost);
    }

    /// Seal the open container and flush the buffer (end-of-experiment
    /// barrier so every stored chunk is indexed).
    pub fn finish(&mut self) -> Result<(), StoreError> {
        if let Some(sealed) = self.manager.flush() {
            self.seal(sealed)?;
        }
        self.flush_write_buffer();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use debar_workload::drift::records;

    fn small_cfg() -> DdfsConfig {
        DdfsConfig {
            bloom_bytes: 64 << 10, // 64 KB => 512K bits
            bloom_k: 4,
            lpc_containers: 8,
            write_buffer_fps: 2000,
            index: IndexParams::new(8, 512),
            container_bytes: 1 << 20,
            repo_nodes: 2,
            seed: 1,
        }
    }

    #[test]
    fn new_data_is_stored_once() {
        let mut s = DdfsServer::new(small_cfg());
        let recs = records(0..3000);
        let rep = s.backup_stream(&recs).expect("backup");
        s.finish().expect("finish");
        assert_eq!(rep.chunks, 3000);
        assert_eq!(rep.new_chunks, 3000);
        assert_eq!(rep.dup_chunks, 0);
        assert_eq!(s.stats().stored_chunks, 3000);
        assert!(s.repository().stats().containers > 0);
    }

    #[test]
    fn duplicate_stream_is_eliminated() {
        let mut s = DdfsServer::new(small_cfg());
        let recs = records(0..3000);
        s.backup_stream(&recs).expect("backup");
        s.finish().expect("finish");
        let rep = s.backup_stream(&recs).expect("backup");
        assert_eq!(rep.dup_chunks + rep.false_positives, 3000);
        // The vast majority resolved as duplicates (LPC + index).
        assert!(rep.dup_chunks > 2900, "dups {}", rep.dup_chunks);
        // Stored data did not double.
        assert!(
            s.stats().stored_chunks < 3100,
            "stored {}",
            s.stats().stored_chunks
        );
    }

    #[test]
    fn lpc_eliminates_most_random_lookups() {
        // The paper: >99% of index lookups avoided on duplicate streams.
        let mut s = DdfsServer::new(small_cfg());
        let recs = records(0..5000);
        s.backup_stream(&recs).expect("backup");
        s.finish().expect("finish");
        let before = s.stats().index_lookups;
        s.backup_stream(&recs).expect("backup");
        let lookups = s.stats().index_lookups - before;
        assert!(
            (lookups as f64) < 0.05 * 5000.0,
            "{lookups} random lookups on a duplicate stream"
        );
    }

    #[test]
    fn bloom_negative_shortcut_for_new_data() {
        let mut s = DdfsServer::new(small_cfg());
        let rep = s.backup_stream(&records(0..1000)).expect("backup");
        // Fresh data: nearly every chunk short-circuits at the Bloom filter,
        // no random index I/O.
        assert!(rep.false_positives < 50, "fps {}", rep.false_positives);
        assert!(s.stats().index_lookups < 50);
        assert!(s.stats().bloom_negatives > 950);
    }

    #[test]
    fn write_buffer_flushes_pause_stream() {
        let mut cfg = small_cfg();
        cfg.write_buffer_fps = 500;
        let mut s = DdfsServer::new(cfg);
        let rep = s.backup_stream(&records(0..2600)).expect("backup");
        assert!(rep.flushes >= 4, "flushes {}", rep.flushes);
        // Flush time is visible in elapsed: throughput below NIC line rate.
        let nic_only = rep.logical_bytes as f64 / (210.0 * (1 << 20) as f64);
        assert!(rep.elapsed > nic_only * 1.05, "no pause visible");
    }

    #[test]
    fn false_positive_rate_rises_as_filter_fills() {
        // Overfill the Bloom filter to ~m/n = 3 and verify the false
        // positive rate on new data explodes (the Fig. 12 cliff mechanism).
        let mut cfg = small_cfg();
        cfg.bloom_bytes = 8 << 10; // 64 Kbit
        cfg.write_buffer_fps = 1 << 20;
        cfg.index = IndexParams::new(12, 512);
        let mut s = DdfsServer::new(cfg);
        let n = (8u64 << 10) * 8 / 3;
        s.backup_stream(&records(0..n)).expect("backup");
        s.finish().expect("finish");
        let rep = s
            .backup_stream(&records(1_000_000..1_000_000 + 2000))
            .expect("backup");
        let fp_rate = rep.false_positives as f64 / 2000.0;
        let theory =
            debar_filter::bloom::false_positive_rate((8 << 10) * 8, s.stats().stored_chunks, 4);
        assert!(fp_rate > 0.1, "fp rate {fp_rate}");
        assert!(
            (fp_rate - theory).abs() < 0.1,
            "measured {fp_rate} vs theory {theory}"
        );
    }

    #[test]
    fn throughput_capped_by_nic_for_clean_streams() {
        let mut s = DdfsServer::new(small_cfg());
        let rep = s.backup_stream(&records(0..4000)).expect("backup");
        let tp = rep.throughput_mibps();
        // At most the 210 MiB/s NIC; at least half of it (flushes, stores).
        assert!(tp <= 211.0, "tp {tp}");
        assert!(tp > 100.0, "tp {tp}");
    }

    #[test]
    fn restore_roundtrip() {
        let mut s = DdfsServer::new(small_cfg());
        let recs = records(0..2000);
        s.backup_stream(&recs).expect("backup");
        s.finish().expect("finish");
        // Everything backed up is retrievable: each fingerprint resolves
        // through the index to a stored container that holds its chunk.
        let mut bytes = 0u64;
        for rec in &recs {
            let cid = s.index.lookup_uncharged(&rec.fp).expect("indexed");
            let container = s.repo.read(cid).value.expect("clean").expect("stored");
            bytes += container.read_chunk(&rec.fp).expect("chunk present").len() as u64;
        }
        let expect: u64 = recs.iter().map(|r| r.len as u64).sum();
        assert_eq!(bytes, expect, "all bytes restorable");
    }
}
