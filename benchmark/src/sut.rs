//! The system under test, seen from outside.
//!
//! Every `debar::…` call of the benchmark lives in this file; the rest of the
//! package sees plain structs of numbers. When the library's API is reshaped,
//! this is the one file to follow it. It calls only `DebarConfig`'s scaled
//! presets and `with_*` builders, `DebarCluster`'s public operations,
//! `BackupClient::prepare`, the three `debar::workload` generators and, for
//! the layer replays, one public function per layer.

use debar::chunk::CdcChunker;
use debar::core::client::BackupClient;
use debar::filter::{CuckooFilter, FilterVerdict, PrelimFilter};
use debar::index::{DiskIndex, IndexCache};
use debar::simio::models::paper;
use debar::simio::ScaleModel;
use debar::store::{ChunkRepository, Container, LpcCache, Payload};
use debar::workload::files::{FileTreeConfig, FileTreeGen, MutationConfig};
use debar::workload::{HustConfig, HustGen, MultiStreamConfig, MultiStreamGen};
use debar::{
    ChunkedFile, ClientId, ContainerId, Dataset, DebarCluster, DebarConfig, FileContent,
    Fingerprint, JobId, RunId,
};
use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

const MIB: f64 = (1u64 << 20) as f64;

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// Which generator makes a workload's inputs, and how much of it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InputSpec {
    /// `HustGen`: the paper's §6.1 month, fingerprint-level records. The
    /// month itself is the generator's calibrated default; the benchmark seed
    /// only decides which client's stream feeds which job (see
    /// [`Inputs::generate`]).
    Hust {
        clients: usize,
        days: usize,
        denom: u64,
    },
    /// `FileTreeGen`: one job of real bytes, mutated between generations.
    FileTree {
        files: usize,
        file_bytes: (usize, usize),
        pool_blocks: usize,
        block_bytes: usize,
        generations: usize,
    },
    /// `MultiStreamGen`: the paper's §6.2 synthetic version chains.
    MultiStream {
        clients: usize,
        version_chunks: usize,
        dup_fraction: f64,
        cross_fraction: f64,
        run_len: (usize, usize),
        rounds: usize,
    },
}

/// SplitMix64: the benchmark's own seed arithmetic, kept apart from the
/// generators' so that the inputs depend on nothing but `--seed`.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Spread the benchmark seed over the generator's 64-bit seed space, so that
/// neighbouring `--seed` values give unrelated inputs.
fn generator_seed(seed: u64, salt: u64) -> u64 {
    splitmix(&mut (seed ^ salt))
}

/// A seeded permutation of `0..n` (Fisher–Yates).
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, (splitmix(&mut state) % (i as u64 + 1)) as usize);
    }
    order
}

/// One workload's generated inputs: a dataset per generation per job.
pub struct Inputs {
    generations: Vec<Vec<Dataset>>,
}

impl Inputs {
    /// Generate every generation of every job from `seed`.
    pub fn generate(spec: &InputSpec, seed: u64) -> Inputs {
        let generations = match *spec {
            InputSpec::Hust {
                clients,
                days,
                denom,
            } => {
                // Reseeding the generator redraws the month's 31 day sizes,
                // and with them every throughput by 10-25 %: bounds wide
                // enough for that would hide real regressions. The seed
                // permutes the schedule instead — which client's stream feeds
                // which job, and so the order the streams meet the server in.
                let order = permutation(clients, generator_seed(seed, 0x4855_5374));
                HustGen::new(HustConfig {
                    clients,
                    days,
                    scale: ScaleModel::new(denom),
                    ..HustConfig::default()
                })
                .map(|day| {
                    let mut streams: Vec<_> = day.per_client.into_iter().map(Some).collect();
                    order
                        .iter()
                        .map(|&client| {
                            let stream = streams[client]
                                .take()
                                .expect("a permutation visits each client once");
                            Dataset::from_records("daily", stream)
                        })
                        .collect()
                })
                .collect()
            }
            InputSpec::FileTree {
                files,
                file_bytes,
                pool_blocks,
                block_bytes,
                generations,
            } => {
                let mut gen = FileTreeGen::new(FileTreeConfig {
                    files,
                    file_size: file_bytes,
                    pool_blocks,
                    block_bytes,
                    seed: generator_seed(seed, 0xF11E_5EED),
                });
                let mut tree = gen.initial();
                let mut out = Vec::with_capacity(generations);
                for g in 0..generations {
                    if g > 0 {
                        tree = gen.mutate(&tree, MutationConfig::default());
                    }
                    out.push(vec![Dataset::from_file_specs(&tree)]);
                }
                out
            }
            InputSpec::MultiStream {
                clients,
                version_chunks,
                dup_fraction,
                cross_fraction,
                run_len,
                rounds,
            } => {
                let mut gen = MultiStreamGen::new(MultiStreamConfig {
                    clients,
                    version_chunks,
                    dup_fraction,
                    cross_fraction,
                    run_len,
                    seed: generator_seed(seed, 0xDEBA_2010),
                });
                (0..rounds)
                    .map(|_| {
                        gen.next_round()
                            .into_iter()
                            .map(|stream| Dataset::from_records("version", stream))
                            .collect()
                    })
                    .collect()
            }
        };
        Inputs { generations }
    }

    pub fn generations(&self) -> usize {
        self.generations.len()
    }

    pub fn jobs(&self) -> usize {
        self.generations.first().map_or(0, Vec::len)
    }

    /// Order-sensitive FNV-1a digest of the inputs (fingerprints and lengths
    /// of records; path, length and leading bytes of files). Two seeds that
    /// generate the same digest generated the same inputs.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        for ds in self.generations.iter().flatten() {
            for f in &ds.files {
                h.write(f.path.as_bytes());
                match &f.content {
                    FileContent::Bytes(b) => {
                        h.write(&(b.len() as u64).to_le_bytes());
                        h.write(&b[..b.len().min(256)]);
                    }
                    FileContent::Records(rs) => {
                        for r in rs {
                            h.write(r.fp.as_bytes());
                            h.write(&r.len.to_le_bytes());
                        }
                    }
                }
            }
        }
        h.0
    }
}

struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

// ---------------------------------------------------------------------------
// Cluster
// ---------------------------------------------------------------------------

/// The deployment a workload runs on, as the numbers the presets take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterSpec {
    /// `2^servers_log2` backup servers: 0 selects `single_server_scaled`,
    /// anything else `cluster_scaled` with the paper's 32 GiB index parts.
    pub servers_log2: u32,
    /// Scale denominator of the paper's sizes.
    pub denom: u64,
    pub sweep_parts: usize,
    pub replication: usize,
    pub retention: u32,
    /// Let the director trigger dedup-2 when a server's undetermined set
    /// fills the index cache (the §6.1 policy); otherwise the script runs
    /// dedup-2 after every generation.
    pub dedup2_at_cache_full: bool,
}

fn config(spec: &ClusterSpec) -> DebarConfig {
    let base = if spec.servers_log2 == 0 {
        DebarConfig::single_server_scaled(spec.denom)
    } else {
        DebarConfig::cluster_scaled(spec.servers_log2, 32 << 30, spec.denom)
    };
    let mut cfg = base
        .with_sweep_parts(spec.sweep_parts)
        .with_replication(spec.replication)
        .with_retention(spec.retention);
    if spec.dedup2_at_cache_full {
        cfg.dedup2_trigger_fps = cfg.cache_fps();
    }
    cfg
}

/// Sizes of the deployment's caches, for the README's cache-ratio table.
#[derive(Debug, Clone, Copy)]
pub struct Geometry {
    pub filter_fps: u64,
    pub cache_fps: u64,
    pub index_part_mib: f64,
}

pub fn geometry(spec: &ClusterSpec) -> Geometry {
    let cfg = config(spec);
    Geometry {
        filter_fps: cfg.filter_bytes / debar::filter::NODE_BYTES,
        cache_fps: cfg.cache_fps() as u64,
        index_part_mib: cfg.index_part_bytes as f64 / MIB,
    }
}

/// One run of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    pub job: u32,
    pub version: u32,
}

impl Run {
    fn id(self) -> RunId {
        RunId {
            job: JobId(self.job),
            version: self.version,
        }
    }

    fn of(id: RunId) -> Run {
        Run {
            job: id.job.0,
            version: id.version,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct BackupOut {
    pub run: Run,
    pub logical_bytes: u64,
    pub logical_chunks: u64,
    pub transferred_chunks: u64,
    pub filtered_dups: u64,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct Dedup2Out {
    pub submitted_fps: u64,
    pub new_fps: u64,
    pub dup_registered: u64,
    pub dup_pending: u64,
    pub sil_sweeps: u64,
    pub siu_updates: u64,
    pub log_bytes: u64,
    pub stored_chunks: u64,
    pub discarded_chunks: u64,
    pub containers: u64,
    pub exchange_s: f64,
    pub sil_s: f64,
    pub store_s: f64,
    pub cap_s: f64,
    pub siu_s: f64,
    pub total_s: f64,
}

impl std::ops::AddAssign for Dedup2Out {
    fn add_assign(&mut self, r: Dedup2Out) {
        self.submitted_fps += r.submitted_fps;
        self.new_fps += r.new_fps;
        self.dup_registered += r.dup_registered;
        self.dup_pending += r.dup_pending;
        self.sil_sweeps += r.sil_sweeps;
        self.siu_updates += r.siu_updates;
        self.log_bytes += r.log_bytes;
        self.stored_chunks += r.stored_chunks;
        self.discarded_chunks += r.discarded_chunks;
        self.containers += r.containers;
        self.exchange_s += r.exchange_s;
        self.sil_s += r.sil_s;
        self.store_s += r.store_s;
        self.cap_s += r.cap_s;
        self.siu_s += r.siu_s;
        self.total_s += r.total_s;
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct SiuOut {
    pub updates: u64,
    pub wall_s: f64,
}

#[derive(Debug, Clone, Copy)]
pub struct RestoreOut {
    pub bytes: u64,
    pub chunks: u64,
    pub failures: u64,
    pub elapsed_s: f64,
    pub lpc_hits: u64,
    pub lpc_misses: u64,
    pub lpc_evictions: u64,
    pub containers_per_mib: f64,
    pub mean_run_len: f64,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct GcOut {
    pub live_fps: u64,
    pub dead_fps: u64,
    pub containers_compacted: u64,
    pub containers_deleted: u64,
    pub moved_chunks: u64,
    pub dead_chunk_bytes: u64,
    pub net_physical_reclaimed: u64,
    pub wall_s: f64,
}

impl std::ops::AddAssign for GcOut {
    fn add_assign(&mut self, r: GcOut) {
        self.live_fps += r.live_fps;
        self.dead_fps += r.dead_fps;
        self.containers_compacted += r.containers_compacted;
        self.containers_deleted += r.containers_deleted;
        self.moved_chunks += r.moved_chunks;
        self.dead_chunk_bytes += r.dead_chunk_bytes;
        self.net_physical_reclaimed += r.net_physical_reclaimed;
        self.wall_s += r.wall_s;
    }
}

#[derive(Debug, Clone, Copy)]
pub struct ScrubOut {
    pub copies_checked: u64,
    pub corrupt_found: u64,
    pub unrecoverable: u64,
    pub wall_s: f64,
}

/// Device and repository counters read after the last operation.
#[derive(Debug, Clone, Copy, Default)]
pub struct EndState {
    pub physical_bytes: u64,
    pub node_bytes_max_share: f64,
    pub failover_reads: u64,
    pub retried_ops: u64,
    pub index_utilization: f64,
    pub index_busy_s: f64,
    pub index_seq_read_mib: f64,
    pub index_seq_write_mib: f64,
    pub index_rand_reads: u64,
    pub node_busy_s_max: f64,
    pub node_seq_write_mib: f64,
    pub node_rand_reads: u64,
}

/// A generation's dataset after client-side chunking and fingerprinting.
pub struct Prepared(Vec<ChunkedFile>);

impl Prepared {
    /// The leading 64 bits of every chunk's fingerprint, in stream order:
    /// enough to tell fingerprints apart when counting distinct ones.
    pub fn fingerprint_prefixes(&self) -> impl Iterator<Item = u64> + '_ {
        self.0
            .iter()
            .flat_map(|f| f.chunks.iter().map(|c| c.fp.prefix64()))
    }
}

/// A DEBAR cluster with one job per input stream.
pub struct Sut {
    cluster: DebarCluster,
    jobs: Vec<JobId>,
    clients: Vec<BackupClient>,
    replication: usize,
}

impl Sut {
    pub fn new(spec: &ClusterSpec, jobs: usize) -> Sut {
        let cfg = config(spec);
        let mut cluster = DebarCluster::new(cfg);
        let jobs: Vec<JobId> = (0..jobs as u32)
            .map(|i| cluster.define_job(format!("job-{i}"), ClientId(i)))
            .collect();
        let clients = (0..jobs.len() as u32)
            .map(|i| BackupClient::new(ClientId(i)))
            .collect();
        Sut {
            cluster,
            jobs,
            clients,
            replication: cfg.replication,
        }
    }

    pub fn replication(&self) -> u64 {
        self.replication as u64
    }

    pub fn align_clocks(&mut self) -> f64 {
        self.cluster.align_clocks()
    }

    fn backup_out(r: debar::Dedup1Report) -> BackupOut {
        BackupOut {
            run: Run::of(r.run),
            logical_bytes: r.logical_bytes,
            logical_chunks: r.logical_chunks,
            transferred_chunks: r.transferred_chunks,
            filtered_dups: r.filtered_dups,
        }
    }

    /// Dedup-1 of one job's dataset, client side included.
    pub fn backup(
        &mut self,
        inputs: &Inputs,
        generation: usize,
        job: usize,
    ) -> Result<BackupOut, String> {
        self.cluster
            .backup(self.jobs[job], &inputs.generations[generation][job])
            .map(Self::backup_out)
            .map_err(|e| e.to_string())
    }

    /// The client half of [`Sut::backup`]: CDC and SHA-1 for real bytes, a
    /// pass-through for records.
    pub fn prepare(&mut self, inputs: &Inputs, generation: usize, job: usize) -> Prepared {
        Prepared(
            self.clients[job]
                .prepare(&inputs.generations[generation][job])
                .value,
        )
    }

    /// The server half of [`Sut::backup`].
    pub fn backup_prepared(&mut self, job: usize, files: &Prepared) -> Result<BackupOut, String> {
        self.cluster
            .backup_prepared(self.jobs[job], &files.0)
            .map(Self::backup_out)
            .map_err(|e| e.to_string())
    }

    pub fn should_run_dedup2(&self) -> bool {
        self.cluster.should_run_dedup2()
    }

    pub fn run_dedup2(&mut self) -> Result<Dedup2Out, String> {
        let r = self.cluster.run_dedup2().map_err(|e| e.to_string())?;
        Ok(Dedup2Out {
            submitted_fps: r.submitted_fps,
            new_fps: r.new_fps,
            dup_registered: r.dup_registered,
            dup_pending: r.dup_pending,
            sil_sweeps: r.sil_sweeps as u64,
            siu_updates: r.siu_updates,
            log_bytes: r.store.log_bytes,
            stored_chunks: r.store.stored_chunks,
            discarded_chunks: r.store.discarded,
            containers: r.store.containers,
            exchange_s: r.exchange_wall,
            sil_s: r.sil_wall,
            store_s: r.store_wall,
            cap_s: r.cap.wall,
            siu_s: r.siu_wall,
            total_s: r.total_wall(),
        })
    }

    pub fn force_siu(&mut self) -> Result<SiuOut, String> {
        let (reports, wall_s) = self.cluster.force_siu().map_err(|e| e.to_string())?;
        Ok(SiuOut {
            updates: reports.iter().map(|r| r.inserted + r.updated).sum(),
            wall_s,
        })
    }

    fn restore_out(r: debar::RestoreReport) -> RestoreOut {
        RestoreOut {
            bytes: r.bytes,
            chunks: r.chunks,
            failures: r.failures,
            elapsed_s: r.elapsed,
            lpc_hits: r.lpc.hits,
            lpc_misses: r.lpc.misses,
            lpc_evictions: r.lpc.evictions,
            containers_per_mib: r.layout.containers_per_mib(),
            mean_run_len: r.layout.mean_run_length(),
        }
    }

    pub fn restore_run(&mut self, run: Run) -> Result<RestoreOut, String> {
        self.cluster
            .restore_run(run.id())
            .map(Self::restore_out)
            .map_err(|e| e.to_string())
    }

    pub fn verify_run(&mut self, run: Run) -> Result<RestoreOut, String> {
        self.cluster
            .verify_run(run.id())
            .map(Self::restore_out)
            .map_err(|e| e.to_string())
    }

    pub fn expire_runs(&mut self) -> Vec<Run> {
        self.cluster
            .expire_runs()
            .into_iter()
            .map(Run::of)
            .collect()
    }

    pub fn run_gc(&mut self) -> Result<GcOut, String> {
        let r = self.cluster.run_gc().map_err(|e| e.to_string())?;
        Ok(GcOut {
            live_fps: r.live_fps,
            dead_fps: r.dead_fps,
            containers_compacted: r.containers_compacted,
            containers_deleted: r.containers_deleted,
            moved_chunks: r.moved_chunks,
            dead_chunk_bytes: r.dead_chunk_bytes,
            net_physical_reclaimed: r.net_physical_reclaimed(),
            wall_s: r.wall,
        })
    }

    pub fn scrub(&mut self) -> Result<ScrubOut, String> {
        let t = self.cluster.scrub().map_err(|e| e.to_string())?;
        Ok(ScrubOut {
            copies_checked: t.value.copies_checked,
            corrupt_found: t.value.corrupt_found,
            unrecoverable: t.value.unrecoverable,
            wall_s: t.cost,
        })
    }

    /// Chunk-data bytes resident in the repository, every replica counted.
    pub fn physical_bytes(&self) -> u64 {
        self.cluster.repository().physical_data_bytes()
    }

    pub fn end_state(&self) -> EndState {
        let repo = self.cluster.repository();
        let mut s = EndState {
            physical_bytes: repo.physical_data_bytes(),
            failover_reads: repo.stats().failover_reads,
            retried_ops: repo.stats().retried_ops,
            ..EndState::default()
        };
        let mut written_total = 0u64;
        let mut written_max = 0u64;
        for node in repo.nodes() {
            let d = node.disk_stats();
            written_total += d.seq_write_bytes;
            written_max = written_max.max(d.seq_write_bytes);
            s.node_busy_s_max = s.node_busy_s_max.max(d.busy_s);
            s.node_rand_reads += d.rand_reads;
        }
        s.node_seq_write_mib = written_total as f64 / MIB;
        if written_total > 0 {
            s.node_bytes_max_share = written_max as f64 / written_total as f64;
        }
        let servers = self.cluster.server_count();
        for sid in 0..servers {
            let index = self.cluster.server(sid as u16).index();
            let d = index.disk_stats();
            s.index_utilization += index.utilization() / servers as f64;
            s.index_busy_s += d.busy_s;
            s.index_seq_read_mib += d.seq_read_bytes as f64 / MIB;
            s.index_seq_write_mib += d.seq_write_bytes as f64 / MIB;
            s.index_rand_reads += d.rand_reads;
        }
        s
    }
}

// ---------------------------------------------------------------------------
// Layer replays
// ---------------------------------------------------------------------------

/// What one pass over one layer did: units of work and the host seconds the
/// layer's own function took (set-up of the pass is not timed).
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    pub work: f64,
    pub secs: f64,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64())
}

/// The inputs every layer replay reads: the last two generations of job 0,
/// chunked and fingerprinted the way a backup client would.
pub struct ReplayInputs {
    cfg: DebarConfig,
    /// Real-byte files of the last generation (empty for record workloads).
    files: Vec<FileContent>,
    prev: Vec<(Fingerprint, Payload)>,
    next: Vec<(Fingerprint, Payload)>,
    /// The head of the last generation packed into containers in stream order.
    containers: Vec<Container>,
}

/// Replays pack at most this many containers, so a pass stays under a second.
const REPLAY_CONTAINERS: usize = 8;

/// Pack a chunk stream into containers in stream order, stopping at
/// [`REPLAY_CONTAINERS`].
fn pack(chunks: &[(Fingerprint, Payload)], container_bytes: u64) -> Vec<Container> {
    let mut out = Vec::new();
    let mut open = Container::new(container_bytes);
    for (fp, payload) in chunks {
        if !open.try_append(*fp, payload.clone()) {
            out.push(std::mem::replace(
                &mut open,
                Container::new(container_bytes),
            ));
            if out.len() == REPLAY_CONTAINERS {
                return out;
            }
            open.try_append(*fp, payload.clone());
        }
    }
    if !open.is_empty() {
        out.push(open);
    }
    out
}

impl ReplayInputs {
    pub fn new(spec: &ClusterSpec, inputs: &Inputs) -> ReplayInputs {
        let last = inputs.generations() - 1;
        let mut client = BackupClient::new(ClientId(0));
        let mut chunks = |g: usize| -> Vec<(Fingerprint, Payload)> {
            client
                .prepare(&inputs.generations[g][0])
                .value
                .into_iter()
                .flat_map(|f| f.chunks)
                .map(|c| (c.fp, c.payload))
                .collect()
        };
        let prev = chunks(last.saturating_sub(1));
        let next = chunks(last);
        let files = inputs.generations[last][0]
            .files
            .iter()
            .filter(|f| matches!(f.content, FileContent::Bytes(_)))
            .map(|f| f.content.clone())
            .collect();
        let cfg = config(spec);
        let containers = pack(&next, cfg.container_bytes);
        ReplayInputs {
            cfg,
            files,
            prev,
            next,
            containers,
        }
    }

    /// One pass over every layer, by the name of the metric it feeds. `None`:
    /// the workload's inputs never reach that layer.
    pub fn passes(&self) -> Result<Vec<(&'static str, Option<Pass>)>, String> {
        let (sil, siu) = self.index_sweeps()?;
        Ok(vec![
            ("chunk.cdc.host_mibps", self.cdc()),
            ("hash.sha1.host_mibps", self.sha1()),
            ("filter.prelim.host_mfps", Some(self.prelim())),
            ("filter.cuckoo.host_mops", Some(self.cuckoo())),
            ("index.sil.host_mfps", Some(sil)),
            ("index.siu.host_mfps", Some(siu)),
            (
                "store.container.codec_host_mibps",
                Some(self.container_codec()?),
            ),
            ("store.lpc.host_mlookups", Some(self.lpc())),
            (
                "store.repository.host_containers_per_s",
                Some(self.repository()?),
            ),
        ])
    }

    /// `chunk`: content-defined chunking of the last generation's bytes.
    fn cdc(&self) -> Option<Pass> {
        if self.files.is_empty() {
            return None;
        }
        let chunker = CdcChunker::paper();
        let mut bytes = 0u64;
        let (_, secs) = timed(|| {
            for f in &self.files {
                if let FileContent::Bytes(data) = f {
                    bytes += data.len() as u64;
                    black_box(chunker.chunk_all(black_box(data)));
                }
            }
        });
        Some(Pass {
            work: bytes as f64 / MIB,
            secs,
        })
    }

    /// `hash`: SHA-1 of every chunk of the last generation.
    fn sha1(&self) -> Option<Pass> {
        if self.files.is_empty() {
            return None;
        }
        let mut bytes = 0u64;
        let (_, secs) = timed(|| {
            for (_, payload) in &self.next {
                if let Payload::Real(data) = payload {
                    bytes += data.len() as u64;
                    black_box(Fingerprint::of_bytes(black_box(data)));
                }
            }
        });
        Some(Pass {
            work: bytes as f64 / MIB,
            secs,
        })
    }

    /// `filter.prelim`: prime with the previous generation, check the next.
    fn prelim(&self) -> Pass {
        let mut filter = PrelimFilter::with_memory(self.cfg.filter_bytes);
        let (dups, secs) = timed(|| {
            filter.prime(self.prev.iter().map(|(fp, _)| *fp));
            self.next
                .iter()
                .filter(|(fp, _)| filter.check(*fp) == FilterVerdict::Duplicate)
                .count()
        });
        black_box(dups);
        Pass {
            work: (self.prev.len() + self.next.len()) as f64 / 1e6,
            secs,
        }
    }

    /// `filter.cuckoo`: insert, query and remove the last generation.
    fn cuckoo(&self) -> Pass {
        let mut filter = CuckooFilter::with_capacity(1024, 0x6C1A_55E7);
        let (_, secs) = timed(|| {
            for (fp, _) in &self.next {
                filter.insert(fp);
            }
            let hits = self
                .next
                .iter()
                .filter(|(fp, _)| filter.contains(fp))
                .count();
            black_box(hits);
            for (fp, _) in &self.next {
                filter.remove(fp);
            }
        });
        Pass {
            work: 3.0 * self.next.len() as f64 / 1e6,
            secs,
        }
    }

    /// `index`: register the previous generation with one SIU sweep, then
    /// look the next one up with one SIL sweep (part known, part new), both
    /// at the deployment's index geometry, cache size and sweep partitions.
    /// Returns the SIL pass and the SIU pass.
    fn index_sweeps(&self) -> Result<(Pass, Pass), String> {
        let mut index = DiskIndex::with_paper_disk(self.cfg.index_part_params(), self.cfg.seed);
        let capacity = IndexCache::with_memory(self.cfg.cache_bytes).capacity();
        let mut seen = HashSet::new();
        let updates: Vec<(Fingerprint, ContainerId)> = self
            .prev
            .iter()
            .filter(|(fp, _)| seen.insert(*fp))
            .take(capacity)
            .enumerate()
            .map(|(i, (fp, _))| (*fp, ContainerId::new(1 + i as u64 / 1024)))
            .collect();
        let (siu, siu_secs) =
            timed(|| index.try_sequential_update_sharded(&updates, self.cfg.sweep_parts));
        siu.map_err(|e| e.to_string())?;
        let mut cache = IndexCache::with_memory(self.cfg.cache_bytes);
        for (fp, _) in &self.next {
            if cache.is_full() {
                break;
            }
            cache.insert(*fp, 0);
        }
        let looked_up = cache.len();
        let (sil, sil_secs) =
            timed(|| index.try_sequential_lookup_sharded(&mut cache, self.cfg.sweep_parts));
        sil.map_err(|e| e.to_string())?;
        Ok((
            Pass {
                work: looked_up as f64 / 1e6,
                secs: sil_secs,
            },
            Pass {
                work: updates.len() as f64 / 1e6,
                secs: siu_secs,
            },
        ))
    }

    /// `store.container`: wire encoding and checksummed decoding.
    fn container_codec(&self) -> Result<Pass, String> {
        let mut bytes = 0u64;
        let (decoded, secs) = timed(|| {
            self.containers.iter().try_for_each(|c| {
                let raw = c.serialize();
                bytes += raw.len() as u64;
                Container::deserialize(&raw, self.cfg.container_bytes).map(|d| {
                    black_box(d);
                })
            })
        });
        decoded.map_err(|e| format!("{e:?}"))?;
        Ok(Pass {
            work: bytes as f64 / MIB,
            secs,
        })
    }

    /// `store.lpc`: the restore walk's cache traffic — look every chunk up in
    /// stream order and load its container's fingerprints on a miss.
    fn lpc(&self) -> Pass {
        let mut lpc = LpcCache::new(self.cfg.lpc_containers);
        let mut lookups = 0u64;
        let (_, secs) = timed(|| {
            for (i, c) in self.containers.iter().enumerate() {
                let cid = ContainerId::new(1 + i as u64);
                for fp in c.fingerprints() {
                    lookups += 1;
                    if lpc.lookup(&fp).is_none() {
                        lpc.insert_container(cid, c.fingerprints().collect());
                    }
                }
            }
        });
        Pass {
            work: lookups as f64 / 1e6,
            secs,
        }
    }

    /// `store.repository`: replicated batch store, then a read of every
    /// container, at the deployment's node count and replication.
    fn repository(&self) -> Result<Pass, String> {
        let containers = self.containers.clone();
        let count = containers.len();
        let mut repo = ChunkRepository::new(
            self.cfg.repo_nodes,
            paper::repo_disk(),
            self.cfg.container_bytes,
        )
        .with_replication(self.cfg.replication);
        let (outcome, secs) = timed(|| {
            let batch = repo.store_batch(containers);
            if let Some((e, _)) = batch.fault {
                return Err(e.to_string());
            }
            for cid in batch.ids {
                match repo.read(cid).value {
                    Ok(Some(c)) => {
                        black_box(c);
                    }
                    Ok(None) => return Err(format!("container {cid:?} not found")),
                    Err(e) => return Err(e.to_string()),
                }
            }
            Ok(())
        });
        outcome?;
        Ok(Pass {
            work: count as f64,
            secs,
        })
    }
}
