//! Cluster configuration.
//!
//! Every field sizes or places a device, a cache or a policy; none picks
//! an algorithm. In particular *when* duplicates are detected is not
//! configurable: dedup-1 is always the paper's out-of-line filter →
//! chunk-log loop, and the inline baseline the paper compares against is
//! the separate `debar-ddfs` crate.
//!
//! # The striped multi-part index (`sweep_parts`)
//!
//! Paper §5.2 sizes SIL so "the lookup time is only related to the disk
//! index size and the disk transfer rate" — and then observes that a
//! *multi-part* index, each part on its own disk volume, divides that
//! sweep time by the number of parts. [`DebarConfig::striped`] makes this
//! a first-class deployment mode: each backup server's SIL/SIU sweeps run
//! on `sweep_parts` contiguous bucket partitions concurrently (one
//! part-disk each), virtual sweep time is charged as the even-split
//! maximum (≈ `1/parts`), and dedup decisions, index bytes and restores
//! are **byte-identical** to the single-volume configuration — only the
//! clock moves differently (`tests/common/` proves this over a scenario
//! matrix).
//!
//! Validation and clamping rules:
//!
//! * [`DebarConfig::validate`] rejects `sweep_parts` = 0 and
//!   `sweep_parts` greater than one index part's bucket count (a sweep
//!   needs at least one bucket per partition).
//! * Partition counts that don't divide the bucket count are allowed:
//!   partitions differ by at most one bucket.
//! * A *live* index's bucket count changes under a fixed configuration —
//!   capacity scaling doubles it, performance-scaling splits halve it —
//!   so sweeps re-clamp to `min(parts, buckets)` at run time, and
//!   cluster scale-out normalises the configuration with
//!   [`DebarConfig::clamp_sweep_parts`].
//! * The part-disks are **physical** and the index's only devices: each
//!   server's index owns one simulated disk per sweep partition
//!   (`debar_simio::PartDiskSet`), re-split to the clamped partition
//!   count at every sweep per the same rules; part-disk 0 is also the
//!   volume un-striped index I/O is charged to. A sweep charges each
//!   part-disk the bytes its bucket range covers and completes at the
//!   slowest part (exactly `1/parts` for the even split), and a fault
//!   plan armed on a single part-disk (`DebarCluster::arm` with
//!   [`crate::Device::IndexPart`]) surfaces as
//!   [`crate::DebarError::DeviceFault`] naming that part.

use debar_index::IndexParams;
use debar_simio::{RetryPolicy, ScaleModel};

/// Configuration of a DEBAR deployment.
///
/// Sizes are *actual* in-memory sizes; use the `*_scaled` constructors to
/// derive them from the paper's nominal sizes via a [`ScaleModel`]
/// denominator (the scale rule is the `debar_simio::scale` module doc).
#[derive(Debug, Clone, Copy)]
pub struct DebarConfig {
    /// `2^w_bits` backup servers; the first `w` fingerprint bits route to a
    /// server's index part (paper §5.2).
    pub w_bits: u32,
    /// Disk-index part size per server, in bytes, as deployed. The live
    /// size belongs to each part's `DiskIndex` (capacity scaling doubles it
    /// in place); `DebarCluster::scale_out` re-reads it from there.
    pub index_part_bytes: u64,
    /// Disk-index bucket size (the paper selects 8 KB; small test
    /// geometries use 512 B).
    pub bucket_bytes: usize,
    /// In-memory index-cache budget per server for SIL/SIU, in bytes
    /// (≈24 bytes/fingerprint).
    pub cache_bytes: u64,
    /// Preliminary-filter budget per backup job, in bytes.
    pub filter_bytes: u64,
    /// LPC read-cache budget, in containers' worth of bytes: the restore
    /// cache holds whole containers and extent sets weighing up to
    /// `lpc_containers × container_bytes` together.
    pub lpc_containers: usize,
    /// Container size in bytes.
    pub container_bytes: u64,
    /// Chunk-repository storage nodes.
    pub repo_nodes: usize,
    /// Replication factor of the chunk repository: every container is
    /// written to this many distinct storage nodes (the primary from the
    /// placement policy plus the next ring nodes), each replica charged to
    /// its own disk. Reads fail over to surviving replicas past downed
    /// nodes, injected faults and corrupt copies. Must satisfy
    /// `1 <= replication <= repo_nodes`; `1` (no replicas) reproduces the
    /// paper's unreplicated container log and is the default everywhere.
    pub replication: usize,
    /// An SIU falls due at the end of every `siu_interval`-th dedup-2 round
    /// (asynchronous SIU, §5.4: "one PSIU servicing more than one PSIL").
    /// `1` = synchronous: every round ends with a PSIU phase of its own.
    /// Above 1 the due SIU rides on the next round's PSIL — each index
    /// part's first sweep merges the pending updates in the read pass that
    /// probes its batch, then writes the part back — so it costs a write
    /// pass and no read pass of its own; updates stay pending (and
    /// unresolvable by a restore) until then or a `force_siu`.
    pub siu_interval: u32,
    /// Director policy: trigger dedup-2 once any server's undetermined
    /// fingerprints reach this count (0 disables the automatic trigger).
    pub dedup2_trigger_fps: usize,
    /// Partitions per SIL/SIU sweep on each server's index part (the
    /// multi-part index of §5.2 within one server): the bucket range is
    /// split into this many contiguous shards, each on its own part-disk
    /// ([`crate::Device::IndexPart`]) and swept concurrently; virtual
    /// sweep time is the max over the shards (≈ 1/parts). `1` — a
    /// one-part bank, part-disk 0 alone — is the paper's single index
    /// volume per server and the default everywhere.
    pub sweep_parts: usize,
    /// Store workers per backup server for the pipelined chunk-storing
    /// phase (§5.3): the chunk-log drain is striped across this many
    /// worker disks ([`crate::Device::LogWorker`], each reading its even
    /// byte share concurrently, wall time the max over workers ≈
    /// 1/workers), feeding the container packer, whose containers commit
    /// as one batch. Chunk-storing *results* are byte-identical at any
    /// worker count — only the virtual drain time divides. `1` — worker
    /// disk 0 alone, which also takes every append — is the paper's
    /// single log volume per server and the default everywhere.
    pub store_workers: usize,
    /// Retention window, in run versions per job: `expire_runs` retires
    /// every run except the newest `retention` versions of each job, and
    /// `delete_run` refuses to delete a protected run with the typed
    /// [`crate::DebarError::RetainedRun`]. `0` disables retention-driven
    /// expiry (nothing auto-expires; explicit `delete_run` still works on
    /// any run) and is the default everywhere.
    pub retention: u32,
    /// Retry policy for repository-node I/O: each fault-checked read or
    /// write may take up to `max_attempts` total tries, charging
    /// `backoff_cost` seconds of simulated time to the failing node's disk
    /// between tries. Transient faults that clear within the budget never
    /// surface to the caller; exhaustion is the typed
    /// [`crate::DebarError::RetriesExhausted`]. The default
    /// (`max_attempts` 1, no backoff) is fail-fast — the pre-retry
    /// behavior everywhere.
    pub retry: RetryPolicy,
    /// Master seed.
    pub seed: u64,
}

impl DebarConfig {
    /// The paper's single-server deployment (32 GB index, 1 GB index cache,
    /// 1 GB preliminary filter, 8 KB buckets, 8 MB containers), scaled down
    /// by `denom`.
    pub fn single_server_scaled(denom: u64) -> Self {
        let scale = ScaleModel::new(denom);
        DebarConfig {
            w_bits: 0,
            index_part_bytes: scale.to_actual(32 << 30),
            bucket_bytes: 8 * 1024,
            cache_bytes: scale.to_actual(1 << 30),
            filter_bytes: scale.to_actual(1 << 30),
            lpc_containers: 16,
            container_bytes: 8 << 20,
            repo_nodes: 2,
            replication: 1,
            siu_interval: 3,
            dedup2_trigger_fps: 0,
            sweep_parts: 1,
            store_workers: 1,
            retention: 0,
            retry: RetryPolicy::none(),
            seed: 0xDEBA_0001,
        }
    }

    /// A multi-server deployment: `2^w_bits` servers each holding an index
    /// part of nominal size `index_part_nominal` (scaled by `denom`), with
    /// the paper's per-server 1 GB cache and one repository node per server.
    pub fn cluster_scaled(w_bits: u32, index_part_nominal: u64, denom: u64) -> Self {
        DebarConfig {
            w_bits,
            index_part_bytes: ScaleModel::new(denom).to_actual(index_part_nominal),
            repo_nodes: (1usize << w_bits).max(2),
            siu_interval: 2,
            seed: 0xDEBA_0002,
            ..Self::single_server_scaled(denom)
        }
    }

    /// A tiny geometry for unit tests: 2 KB-bucket index parts, small
    /// caches, 1 MB containers.
    pub fn tiny_test(w_bits: u32) -> Self {
        DebarConfig {
            w_bits,
            index_part_bytes: 256 * 512,
            bucket_bytes: 512,
            cache_bytes: 24 * 10_000,
            filter_bytes: 28 * 10_000,
            lpc_containers: 8,
            container_bytes: 1 << 20,
            siu_interval: 1,
            seed: 0xDEBA_7E57,
            ..Self::single_server_scaled(1)
        }
    }

    /// The paper's §5.2 **multi-part index** deployment: the single-server
    /// geometry with every SIL/SIU sweep striped over `parts` part-disks
    /// (scaled down by the default 1/1024 denominator). Dedup results are
    /// byte-identical to [`DebarConfig::single_server_scaled`]; sweep
    /// virtual time divides by ≈ `parts`. Like every builder it returns
    /// the configuration unvalidated: [`DebarConfig::validate`] refuses a
    /// `parts` of 0 or more than the index part's bucket count.
    pub fn striped(parts: usize) -> Self {
        Self::striped_scaled(parts, 1024)
    }

    /// [`DebarConfig::striped`] at an explicit scale denominator.
    pub fn striped_scaled(parts: usize, denom: u64) -> Self {
        Self::single_server_scaled(denom).with_sweep_parts(parts)
    }

    /// Builder: shard each server's SIL/SIU sweeps into `parts` bucket
    /// partitions (striped part-disks; see the `sweep_parts` field and the
    /// module docs for the validation/clamping rules).
    pub fn with_sweep_parts(mut self, parts: usize) -> Self {
        self.sweep_parts = parts;
        self
    }

    /// Builder: drain each server's chunk log with `workers` store workers
    /// in the pipelined chunk-storing phase (see the `store_workers`
    /// field). Unlike `sweep_parts`, workers stripe the log *bytes*, not a
    /// bucket geometry, so there is no clamping rule — any positive count
    /// validates.
    pub fn with_store_workers(mut self, workers: usize) -> Self {
        self.store_workers = workers;
        self
    }

    /// Builder: write every container to `replication` distinct repository
    /// nodes (see the `replication` field; `validate` rejects 0 and
    /// values above `repo_nodes`).
    pub fn with_replication(mut self, replication: usize) -> Self {
        self.replication = replication;
        self
    }

    /// Builder: protect the newest `retention` versions of every job from
    /// expiry and deletion (see the `retention` field; `0` disables
    /// retention-driven expiry).
    pub fn with_retention(mut self, retention: u32) -> Self {
        self.retention = retention;
        self
    }

    /// Builder: absorb transient repository-node faults with up to
    /// `max_attempts` total tries per I/O, charging `backoff_cost`
    /// simulated seconds between tries (see the `retry` field;
    /// `validate` rejects 0 attempts and non-finite or negative
    /// backoff).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Re-clamp `replication` to the current repository geometry:
    /// `min(replication, repo_nodes)`, at least 1. Mirrors
    /// [`DebarConfig::clamp_sweep_parts`] — a deployment whose node count
    /// shrinks below its replication factor keeps as many replicas as
    /// nodes exist (documented rule), instead of failing validation.
    /// Scale-out applies this clamp alongside the sweep-parts one.
    pub fn clamp_replication(&mut self) {
        self.replication = self.replication.max(1).min(self.repo_nodes);
    }

    /// Re-clamp `sweep_parts` to the current part geometry. Performance
    /// scaling halves each index part, so a striped deployment that
    /// scales out keeps `min(parts, buckets)` partitions per part
    /// (documented rule) instead of failing validation. Never panics: a
    /// part geometry `validate` would refuse clamps to one partition.
    pub fn clamp_sweep_parts(&mut self) {
        let buckets = (self.index_part_bytes / self.bucket_bytes.max(1) as u64).max(1);
        self.sweep_parts = (self.sweep_parts.max(1) as u64).min(buckets) as usize;
    }

    /// Number of backup servers, `2^w_bits`.
    pub fn servers(&self) -> usize {
        1usize << self.w_bits
    }

    /// Index-cache capacity in fingerprints.
    pub fn cache_fps(&self) -> usize {
        (self.cache_bytes / debar_simio::models::paper::CACHE_BYTES_PER_FP).max(1) as usize
    }

    /// Geometry of one server's index part.
    pub fn index_part_params(&self) -> IndexParams {
        IndexParams::from_total_size(self.index_part_bytes, self.bucket_bytes)
    }

    /// Validate invariants, returning the typed
    /// [`crate::DebarError::IndexGeometry`] on inconsistency.
    pub fn validate(&self) -> Result<(), crate::error::DebarError> {
        let geometry = |reason: String| crate::error::DebarError::IndexGeometry { reason };
        if self.w_bits > 8 {
            return Err(geometry(format!(
                "w_bits {} exceeds the 8-bit routing prefix (at most 256 servers)",
                self.w_bits
            )));
        }
        // Pre-check the part geometry `IndexParams` would assert on, so a
        // bad configuration surfaces as a typed error, not a panic.
        if self.bucket_bytes == 0 {
            return Err(geometry("bucket size must be positive".into()));
        }
        if self.index_part_bytes == 0
            || !self
                .index_part_bytes
                .is_multiple_of(self.bucket_bytes as u64)
        {
            return Err(geometry(format!(
                "index part ({} B) must be a positive multiple of the bucket size ({} B)",
                self.index_part_bytes, self.bucket_bytes
            )));
        }
        let buckets = self.index_part_bytes / self.bucket_bytes as u64;
        if !buckets.is_power_of_two() {
            return Err(geometry(format!(
                "bucket count {buckets} must be a power of two"
            )));
        }
        let n_bits = buckets.trailing_zeros();
        if !(1..=40).contains(&n_bits) {
            return Err(geometry(format!(
                "bucket bits {n_bits} outside the supported 1..=40 range"
            )));
        }
        if self.bucket_bytes < 512 || !self.bucket_bytes.is_multiple_of(512) {
            return Err(geometry(format!(
                "bucket size {} must be a positive multiple of the 512-byte entry block",
                self.bucket_bytes
            )));
        }
        if self.cache_bytes < debar_simio::models::paper::CACHE_BYTES_PER_FP {
            return Err(geometry("index cache smaller than one fingerprint".into()));
        }
        if self.container_bytes == 0 {
            return Err(geometry("container size must be positive".into()));
        }
        if self.lpc_containers == 0 {
            return Err(geometry(
                "the restore cache (LPC) must hold at least one container".into(),
            ));
        }
        if self.repo_nodes == 0 {
            return Err(geometry("repository needs at least one node".into()));
        }
        if self.replication == 0 {
            return Err(geometry(
                "replication factor must be at least 1 (one copy)".into(),
            ));
        }
        if self.replication > self.repo_nodes {
            return Err(geometry(format!(
                "replication {} exceeds the {} repository nodes; \
                 replicas must land on distinct nodes",
                self.replication, self.repo_nodes
            )));
        }
        if self.siu_interval < 1 {
            return Err(geometry("siu_interval must be at least 1".into()));
        }
        if self.sweep_parts < 1 {
            return Err(geometry("sweeps need at least one partition".into()));
        }
        if self.store_workers < 1 {
            return Err(geometry(
                "chunk storing needs at least one store worker".into(),
            ));
        }
        if self.retry.max_attempts == 0 {
            return Err(geometry(
                "retry policy needs at least 1 attempt (1 = fail-fast)".into(),
            ));
        }
        if !self.retry.backoff_cost.is_finite() || self.retry.backoff_cost < 0.0 {
            return Err(geometry(format!(
                "retry backoff cost {} must be a finite non-negative duration",
                self.retry.backoff_cost
            )));
        }
        if self.filter_bytes < debar_filter::NODE_BYTES {
            return Err(geometry(format!(
                "preliminary-filter budget ({} B) below one {}-byte node",
                self.filter_bytes,
                debar_filter::NODE_BYTES
            )));
        }
        let buckets = self.index_part_params().buckets();
        if self.sweep_parts as u64 > buckets {
            return Err(geometry(format!(
                "sweep_parts ({}) exceeds the {} buckets of one index part; \
                 a sweep partition needs at least one bucket",
                self.sweep_parts, buckets
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::DebarError;

    #[test]
    fn paper_single_server_geometry() {
        let cfg = DebarConfig::single_server_scaled(1024);
        cfg.validate().expect("valid");
        assert_eq!(cfg.servers(), 1);
        // 32 GB / 1024 = 32 MB of 8 KB buckets = 2^12 buckets.
        assert_eq!(cfg.index_part_params().n_bits, 12);
        assert_eq!(cfg.index_part_params().bucket_capacity(), 320);
        // 1 GB/1024 cache ≈ 43k fingerprints.
        assert!((40_000..46_000).contains(&cfg.cache_fps()));
    }

    #[test]
    fn cluster_geometry_routing_bits() {
        let cfg = DebarConfig::cluster_scaled(4, 32 << 30, 1024);
        cfg.validate().expect("valid");
        assert_eq!(cfg.servers(), 16);
        assert_eq!(cfg.w_bits + cfg.index_part_params().n_bits, 4 + 12);
    }

    #[test]
    fn tiny_test_valid() {
        DebarConfig::tiny_test(2).validate().expect("valid");
    }

    #[test]
    fn striped_preset_is_single_server_geometry_with_parts() {
        let plain = DebarConfig::single_server_scaled(1024);
        let striped = DebarConfig::striped(4);
        assert_eq!(striped.sweep_parts, 4);
        assert_eq!(striped.w_bits, plain.w_bits);
        assert_eq!(striped.index_part_bytes, plain.index_part_bytes);
        assert_eq!(striped.bucket_bytes, plain.bucket_bytes);
        striped.validate().expect("valid");
    }

    #[test]
    fn try_validate_returns_typed_geometry_errors() {
        let geom = |cfg: DebarConfig| match cfg.validate() {
            Err(DebarError::IndexGeometry { reason }) => reason,
            other => panic!("expected IndexGeometry, got {other:?}"),
        };
        let base = DebarConfig::tiny_test(0);
        assert!(base.validate().is_ok());
        // Every arm that used to be an assert deep inside IndexParams now
        // surfaces as a typed error from the fallible validator.
        let r = geom(DebarConfig {
            bucket_bytes: 0,
            ..base
        });
        assert!(r.contains("bucket size"), "{r}");
        let r = geom(DebarConfig {
            index_part_bytes: 1000,
            ..base
        });
        assert!(r.contains("multiple"), "{r}");
        let r = geom(DebarConfig {
            index_part_bytes: 3 * 512,
            ..base
        });
        assert!(r.contains("power of two"), "{r}");
        let r = geom(DebarConfig {
            bucket_bytes: 100,
            index_part_bytes: 6400,
            ..base
        });
        assert!(r.contains("512"), "{r}");
        let r = geom(DebarConfig { w_bits: 9, ..base });
        assert!(r.contains("routing prefix"), "{r}");
        let r = geom(DebarConfig {
            cache_bytes: 8,
            ..base
        });
        assert!(r.contains("cache"), "{r}");
        let r = geom(DebarConfig {
            lpc_containers: 0,
            ..base
        });
        assert!(r.contains("LPC"), "{r}");
        let r = geom(base.with_sweep_parts(100_000));
        assert!(r.contains("exceeds"), "{r}");
        let r = geom(base.with_store_workers(0));
        assert!(r.contains("store worker"), "{r}");
        let r = geom(base.with_replication(0));
        assert!(r.contains("replication"), "{r}");
        let r = geom(base.with_replication(3)); // tiny_test has 2 repo nodes
        assert!(r.contains("distinct nodes"), "{r}");
        let r = geom(DebarConfig {
            filter_bytes: debar_filter::NODE_BYTES - 1,
            ..base
        });
        assert!(r.contains("filter budget"), "{r}");
        let r = geom(base.with_retry(RetryPolicy {
            max_attempts: 0,
            backoff_cost: 0.0,
        }));
        assert!(r.contains("attempt"), "{r}");
        let r = geom(base.with_retry(RetryPolicy::new(3, -0.5)));
        assert!(r.contains("backoff"), "{r}");
        let r = geom(base.with_retry(RetryPolicy::new(3, f64::NAN)));
        assert!(r.contains("backoff"), "{r}");
    }

    #[test]
    fn retry_defaults_off_and_builder_validates() {
        for cfg in [
            DebarConfig::single_server_scaled(1024),
            DebarConfig::cluster_scaled(2, 32 << 30, 1024),
            DebarConfig::tiny_test(0),
        ] {
            assert_eq!(cfg.retry, RetryPolicy::none(), "fail-fast by default");
            assert!(!cfg.retry.retries());
        }
        let cfg = DebarConfig::tiny_test(0).with_retry(RetryPolicy::new(3, 0.004));
        cfg.validate().expect("valid");
        assert!(cfg.retry.retries());
    }

    #[test]
    fn replication_within_node_count_validates() {
        for r in [1usize, 2] {
            DebarConfig::tiny_test(0)
                .with_replication(r)
                .validate()
                .expect("valid");
        }
    }

    #[test]
    fn clamp_replication_applies_documented_rule() {
        let mut cfg = DebarConfig::tiny_test(0).with_replication(2);
        cfg.repo_nodes = 1;
        cfg.clamp_replication();
        assert_eq!(cfg.replication, 1);
        cfg.validate().expect("valid");
        // Clamping an in-range value is a no-op; zero is lifted to 1.
        let mut cfg2 = DebarConfig::tiny_test(0).with_replication(2);
        cfg2.clamp_replication();
        assert_eq!(cfg2.replication, 2);
        let mut cfg3 = DebarConfig::tiny_test(0);
        cfg3.replication = 0;
        cfg3.clamp_replication();
        assert_eq!(cfg3.replication, 1);
    }

    #[test]
    fn store_workers_any_positive_count_validates() {
        // Workers stripe log bytes, not a bucket geometry: no upper clamp.
        for w in [1usize, 2, 7, 64] {
            DebarConfig::tiny_test(0)
                .with_store_workers(w)
                .validate()
                .expect("valid");
        }
    }

    #[test]
    fn sweep_parts_beyond_bucket_count_rejected() {
        // tiny_test parts have 256 buckets; 257 partitions can't all get
        // a bucket.
        let r = DebarConfig::tiny_test(0).with_sweep_parts(257).validate();
        assert!(
            matches!(&r, Err(DebarError::IndexGeometry { reason }) if reason.contains("exceeds")),
            "{r:?}"
        );
    }

    #[test]
    fn sweep_parts_equal_to_bucket_count_allowed() {
        DebarConfig::tiny_test(0)
            .with_sweep_parts(256)
            .validate()
            .expect("valid");
    }

    #[test]
    fn non_dividing_sweep_parts_validate() {
        // 3 does not divide 256; partitions just differ by one bucket.
        DebarConfig::tiny_test(0)
            .with_sweep_parts(3)
            .validate()
            .expect("valid");
    }

    #[test]
    fn clamp_sweep_parts_applies_documented_rule() {
        let mut cfg = DebarConfig::tiny_test(0).with_sweep_parts(256);
        cfg.validate().expect("valid");
        // A performance-scaling split halves the part: 128 buckets left.
        cfg.index_part_bytes /= 2;
        cfg.clamp_sweep_parts();
        assert_eq!(cfg.sweep_parts, 128);
        cfg.validate().expect("valid");
        // Clamping an in-range value is a no-op.
        let mut cfg2 = DebarConfig::tiny_test(0).with_sweep_parts(4);
        cfg2.clamp_sweep_parts();
        assert_eq!(cfg2.sweep_parts, 4);
    }
}
