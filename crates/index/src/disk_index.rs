//! The on-disk fingerprint index (paper §4, Fig. 3).
//!
//! A flat array of `2^n` fixed-size buckets; an entry's bucket is the first
//! `n` bits of its fingerprint. A full bucket overflows into a randomly
//! chosen adjacent bucket; when a bucket *and both its neighbours* are full
//! the index reports that it needs capacity scaling (§4.1/§4.2).
//!
//! All I/O costs are charged through one owned device bank, a
//! [`PartDiskSet`], and returned as [`Timed`] values — or as the
//! [`IndexError`] of the fault the op fired. Striped sequential
//! sweeps for SIL/SIU (implemented in [`crate::sweep`]) charge one real
//! `SimDisk` per sweep partition — each with its own op counter, queue
//! and armable fault plan — and complete at the slowest part. **Part-disk
//! 0 is the volume**: un-striped work (random per-fingerprint access, the
//! Venti regime the paper escapes; capacity scaling; splits) is charged to
//! it, so at one sweep partition the bank is the paper's single index
//! volume and no device is ever charged twice.

use crate::entry::{
    block_entries, block_find, block_full, block_push, block_set_cid, IndexEntry, BLOCK_BYTES,
};
use crate::error::IndexError;
use crate::params::IndexParams;
use debar_hash::SplitMix64;
use debar_hash::{ContainerId, Fingerprint, FpSet};
use debar_simio::models::paper;
use debar_simio::{Charge, Device, DiskModel, PartDiskSet, Secs, SimCpu, SimDisk, Timed};

/// Result of a random-path insert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// Placed in its home bucket.
    Home,
    /// Overflowed into the given adjacent bucket.
    Adjacent(u64),
    /// Home bucket and both neighbours are full: the index must be enlarged
    /// (capacity scaling) before this fingerprint can be inserted.
    NeedsScaling,
}

/// An un-striped op of `bytes` on a disk: what the volume is charged with.
type VolumeOp = fn(&mut SimDisk, u64) -> debar_simio::Charge;

/// The DEBAR disk index.
#[derive(Debug, Clone)]
pub struct DiskIndex {
    /// The backup server hosting this index: its part-disks are that
    /// server's [`Device::IndexPart`]s.
    server: u16,
    params: IndexParams,
    /// Fingerprint bits consumed by multi-server routing before this
    /// index's bucket number begins: an index part owned by one of `2^w`
    /// servers skips the first `w` bits and buckets by the *next* `n` bits
    /// ("the remaining n−w bits will be used as the bucket number", §5.2).
    skip_bits: u32,
    /// Each bucket as the prefix of its blocks that hold entries: every
    /// byte past `buckets[k].len()` (up to `bucket_bytes`) is zero. Blocks
    /// fill front to back and entries leave only when the whole index is
    /// emptied, so the prefix grows one block at a time and all but its
    /// last block are full. The disk image this stands for is
    /// [`DiskIndex::raw_data`].
    buckets: Vec<Vec<u8>>,
    /// The index's only devices: one `SimDisk` per sweep partition, each
    /// with its own op counter, queue and armable fault plan (the
    /// per-spindle decomposition of §5.2); part 0 doubles as the volume
    /// for un-striped work. Sized lazily to each sweep's clamped
    /// partition count; see [`DiskIndex::part_disk_mut`].
    pub(crate) part_disks: PartDiskSet,
    cpu: SimCpu,
    entries: u64,
    rng: SplitMix64,
}

impl DiskIndex {
    /// Create backup server `server`'s index *part*, on part-disks with the
    /// given timing model: bucket numbers use fingerprint bits
    /// `[skip_bits, skip_bits + n)` — the addressing of one part of a
    /// `2^skip_bits`-way split index (§5.2, Fig. 5).
    pub fn with_prefix(
        server: u16,
        params: IndexParams,
        skip_bits: u32,
        disk_model: DiskModel,
        seed: u64,
    ) -> Self {
        let bytes = params.total_bytes();
        assert!(
            bytes <= 8 << 30,
            "actual index larger than 8 GB; scale down"
        );
        assert!(
            skip_bits + params.n_bits <= 64,
            "prefix + bucket bits exceed 64"
        );
        DiskIndex {
            server,
            params,
            skip_bits,
            buckets: vec![Vec::new(); params.buckets() as usize],
            part_disks: PartDiskSet::new(disk_model, Device::IndexPart { server, part: 0 }),
            cpu: SimCpu::new(paper::cpu()),
            entries: 0,
            rng: SplitMix64::new(seed),
        }
    }

    /// Create server 0's whole index (no routing prefix) with the paper's
    /// index-disk model.
    pub fn with_paper_disk(params: IndexParams, seed: u64) -> Self {
        Self::with_prefix(0, params, 0, paper::index_disk(), seed)
    }

    /// Index geometry.
    pub fn params(&self) -> IndexParams {
        self.params
    }

    /// Routing bits consumed ahead of this part's bucket number.
    pub fn skip_bits(&self) -> u32 {
        self.skip_bits
    }

    /// Live entry count.
    pub fn entry_count(&self) -> u64 {
        self.entries
    }

    /// Utilization: entries / capacity.
    pub fn utilization(&self) -> f64 {
        self.entries as f64 / self.params.max_entries() as f64
    }

    /// I/O statistics merged over the part-disk bank: whole-volume byte
    /// and op totals, `busy_s` in device-seconds (summed over part-disks,
    /// so it exceeds the striped wall time at more than one partition).
    /// The per-partition view lives in [`DiskIndex::part_disk_stats`].
    pub fn disk_stats(&self) -> debar_simio::DiskStats {
        self.part_disks.stats()
    }

    /// CPU statistics (in-memory probe accounting).
    pub fn cpu_stats(&self) -> debar_simio::CpuStats {
        self.cpu.stats()
    }

    /// One part-disk, materialized if no sweep has engaged it yet — the
    /// device a `debar_simio::FaultPlan` is armed on and whose op counter
    /// says "the next op". A fault on part `p > 0` fires only when a sweep
    /// charges that partition; part 0 also carries the un-striped ops.
    /// Every op that charges the part fails with it, as an
    /// [`IndexError`] naming the part-disk's [`Device`].
    pub fn part_disk_mut(&mut self, part: usize) -> &mut SimDisk {
        self.part_disks.disk_mut(part)
    }

    /// Disarm every part-disk's faults.
    pub fn clear_fault_plans(&mut self) {
        self.part_disks.clear_fault_plans();
    }

    /// I/O statistics of one striped part-disk, if materialized.
    pub fn part_disk_stats(&self, part: usize) -> Option<debar_simio::DiskStats> {
        self.part_disks.part_stats(part)
    }

    /// Resolve a sweep's partition layout: the even split of
    /// `min(parts, buckets)` contiguous ranges. Returns cumulative
    /// end-bucket bounds (one per engaged partition) and resizes the
    /// physical part-disk bank to match.
    pub(crate) fn resolve_sweep_bounds(&mut self, parts: usize) -> Vec<u64> {
        let buckets = self.params.buckets();
        let p = crate::sweep::clamp_parts(parts, buckets);
        let bounds: Vec<u64> = (1..=p).map(|i| buckets * i as u64 / p as u64).collect();
        self.part_disks.resize(bounds.len());
        bounds
    }

    /// Per-part byte shares of a resolved sweep layout.
    fn part_bytes(&self, bounds: &[u64]) -> Vec<u64> {
        let mut start = 0u64;
        bounds
            .iter()
            .map(|&end| {
                let b = (end - start) * self.params.bucket_bytes as u64;
                start = end;
                b
            })
            .collect()
    }

    /// Charge one physical striped **read** sweep: each part-disk reads
    /// its own byte share, and the returned wall time is the max over
    /// per-part completion times.
    pub(crate) fn charge_sweep_read(&mut self, bounds: &[u64]) -> Charge {
        let bytes = self.part_bytes(bounds);
        self.part_disks.seq_read_split(&bytes)
    }

    /// Charge one physical striped **write** sweep (see
    /// [`DiskIndex::charge_sweep_read`]).
    pub(crate) fn charge_sweep_write(&mut self, bounds: &[u64]) -> Charge {
        let bytes = self.part_bytes(bounds);
        self.part_disks.seq_write_split(&bytes)
    }

    /// Charge `bytes` of un-striped I/O to the volume with `op`.
    pub(crate) fn on_volume(&mut self, op: VolumeOp, bytes: u64) -> Result<Secs, IndexError> {
        Ok(op(self.part_disks.volume_mut(), bytes)?)
    }

    /// Run `op`, which charges this index's devices and may change its
    /// contents: when it fails, the contents are what `durable` makes of
    /// those it started from, the devices keep what `op` charged. Only an
    /// index with a fault armed can fail, so only that one pays the copy.
    pub(crate) fn or_durable<T>(
        &mut self,
        op: impl FnOnce(&mut Self) -> Result<T, IndexError>,
        durable: impl FnOnce(&mut DiskIndex, &IndexError),
    ) -> Result<T, IndexError> {
        let before = self.part_disks.has_armed_faults().then(|| self.clone());
        let result = op(self);
        if let (Err(e), Some(mut before)) = (&result, before) {
            durable(&mut before, e);
            std::mem::swap(&mut before.part_disks, &mut self.part_disks);
            std::mem::swap(&mut before.cpu, &mut self.cpu);
            *self = before;
        }
        result
    }

    pub(crate) fn cpu_mut(&mut self) -> &mut SimCpu {
        &mut self.cpu
    }

    /// In-memory append to a bucket; `false` when full. No I/O charge.
    /// The entry goes into the bucket's last held block, or into a zeroed
    /// block appended behind it when that one is full (or none is held)
    /// and the bucket has room for another.
    pub(crate) fn push_to_bucket(&mut self, k: u64, e: &IndexEntry) -> bool {
        let bucket = &mut self.buckets[k as usize];
        let held = bucket.len();
        let ok = (held > 0 && block_push(&mut bucket[held - BLOCK_BYTES..], e))
            || (held < self.params.bucket_bytes && {
                bucket.reserve_exact(BLOCK_BYTES);
                bucket.resize(held + BLOCK_BYTES, 0);
                block_push(&mut bucket[held..], e)
            });
        if ok {
            self.entries += 1;
        }
        ok
    }

    /// Place an entry using home-then-adjacent overflow, without I/O
    /// charges (used by sweeps and scaling, which charge sequentially).
    ///
    /// The overflow direction is pseudo-random but *derived from the
    /// fingerprint* (uniform thanks to SHA-1) rather than drawn from
    /// mutable RNG state: placement therefore depends only on the index
    /// contents and the entry itself, which is what keeps SIU byte-identical
    /// at any partition count.
    pub(crate) fn place(&mut self, e: &IndexEntry) -> InsertOutcome {
        let home = self.view().bucket_of(&e.fp);
        if self.push_to_bucket(home, e) {
            return InsertOutcome::Home;
        }
        let (left, right) = self.view().neighbours(home);
        let (first, second) = if e.fp.as_bytes()[19] & 1 == 0 {
            (left, right)
        } else {
            (right, left)
        };
        if self.push_to_bucket(first, e) {
            return InsertOutcome::Adjacent(first);
        }
        if self.push_to_bucket(second, e) {
            return InsertOutcome::Adjacent(second);
        }
        InsertOutcome::NeedsScaling
    }

    /// Random-path insert (one bucket read + one bucket write, plus extra
    /// I/O when overflowing) — the conventional approach DEBAR's SIU
    /// replaces; kept for the random-update baseline (Fig. 11). A fault
    /// on any of its ops is [`IndexError::SweepFault`] on part 0, and the
    /// entry is not placed.
    pub fn insert_random(
        &mut self,
        fp: Fingerprint,
        cid: ContainerId,
    ) -> Result<Timed<InsertOutcome>, IndexError> {
        let bucket_bytes = self.params.bucket_bytes as u64;
        let insert = |idx: &mut Self| {
            let mut cost = idx.on_volume(SimDisk::rand_read, bucket_bytes)?;
            let outcome = idx.place(&IndexEntry::new(fp, cid));
            let then: &[VolumeOp] = match outcome {
                InsertOutcome::Home => &[SimDisk::rand_write],
                // Read the neighbour(s) + write the one that accepted.
                InsertOutcome::Adjacent(_) => &[SimDisk::rand_read, SimDisk::rand_write],
                InsertOutcome::NeedsScaling => &[SimDisk::rand_read, SimDisk::rand_read],
            };
            for &op in then {
                cost += idx.on_volume(op, bucket_bytes)?;
            }
            Ok(Timed::new(outcome, cost))
        };
        self.or_durable(insert, |_, _| {})
    }

    /// Random-path lookup (the Venti regime: one random I/O per
    /// fingerprint, two when the home bucket has overflowed, §4.2). A
    /// fault on a bucket read is [`IndexError::SweepFault`] on part 0.
    pub fn lookup_random(
        &mut self,
        fp: &Fingerprint,
    ) -> Result<Timed<Option<ContainerId>>, IndexError> {
        let bucket_bytes = self.params.bucket_bytes as u64;
        let view = self.view();
        let (found, buckets_read) = view.resolve(view.bucket_of(fp), fp, &mut None);
        let mut cost = self.on_volume(SimDisk::rand_read, bucket_bytes)?;
        cost += self.cpu.probe_fps(1);
        for _ in 1..buckets_read {
            cost += self.on_volume(SimDisk::rand_read, bucket_bytes)?;
        }
        Ok(Timed::new(found, cost))
    }

    /// In-memory lookup without I/O charges (test/verification helper).
    /// Scans the home bucket and both neighbours unconditionally — it does
    /// not lean on the overflow invariant, so equivalence tests that
    /// compare against it would expose a violation.
    pub fn lookup_uncharged(&self, fp: &Fingerprint) -> Option<ContainerId> {
        let view = self.view();
        let home = view.bucket_of(fp);
        let (left, right) = view.neighbours(home);
        [home, left, right]
            .into_iter()
            .find_map(|k| view.find_in_bucket(k, fp))
    }

    /// Overwrite an existing mapping in place (no structural change).
    /// Used by SIU's in-place update path and by GC compaction to repoint
    /// moved live chunks at their fresh container. Probes the home bucket,
    /// then the neighbours only when home is full (the overflow invariant:
    /// an entry can live in a neighbour only if its home bucket is full).
    pub fn set_cid_uncharged(&mut self, fp: &Fingerprint, cid: ContainerId) -> bool {
        let view = self.view();
        let home = view.bucket_of(fp);
        let (left, right) = view.neighbours(home);
        let reach = if view.bucket_is_full(home) { 3 } else { 1 };
        [home, left, right][..reach].iter().any(|&k| {
            self.buckets[k as usize]
                .chunks_exact_mut(BLOCK_BYTES)
                .any(|blk| block_set_cid(blk, fp, cid))
        })
    }

    /// Read-only view of the bucket array; see [`BucketView`].
    pub(crate) fn view(&self) -> BucketView<'_> {
        BucketView {
            buckets: &self.buckets,
            params: self.params,
            skip_bits: self.skip_bits,
        }
    }

    /// The index's disk image, `total_bytes` long: the buckets in order,
    /// each its held blocks padded with zeros to `bucket_bytes`
    /// (verification support: equivalence tests compare scalar and
    /// sharded sweep results byte-for-byte, and digest it). Built on every
    /// call.
    pub fn raw_data(&self) -> Vec<u8> {
        let bucket_bytes = self.params.bucket_bytes;
        let mut image = Vec::with_capacity(self.params.total_bytes() as usize);
        for bucket in &self.buckets {
            image.extend_from_slice(bucket);
            image.resize(image.len() + bucket_bytes - bucket.len(), 0);
        }
        image
    }

    /// Iterate every entry, in bucket order (no I/O charges; sweeps charge
    /// separately).
    pub fn iter_entries(&self) -> impl Iterator<Item = IndexEntry> + '_ {
        (self.buckets.iter())
            .flat_map(|bucket| bucket.chunks_exact(BLOCK_BYTES))
            .flat_map(block_entries)
    }

    /// Place an entry, transparently enlarging the index (capacity scaling)
    /// whenever the home bucket and both neighbours are full. Returns the
    /// scaling cost incurred (zero in the common case), or the fault of a
    /// scaling op.
    pub(crate) fn place_with_growth(
        &mut self,
        e: &IndexEntry,
    ) -> Result<Timed<InsertOutcome>, IndexError> {
        let mut cost = 0.0;
        loop {
            match self.place(e) {
                InsertOutcome::NeedsScaling => cost += self.scale_up()?.cost,
                out => return Ok(Timed::new(out, cost)),
            }
        }
    }

    /// Wipe all entries (simulates index loss/corruption; the geometry and
    /// routing prefix are kept). Recovery rebuilds from the chunk
    /// repository (§4.1: "such a high-cost reconstruction method is ...
    /// used to recover a corrupted index").
    pub fn reset_empty(&mut self) {
        self.clear_entries();
    }

    /// Empty the index: every bucket holds no block, so its image is all
    /// zeros. A bucket keeps its allocation, which the entries placed
    /// next (GC's survivors, a rebuild) fill again without reallocating;
    /// [`DiskIndex::push_to_bucket`] zeroes each block it takes back.
    fn clear_entries(&mut self) {
        self.buckets.iter_mut().for_each(Vec::clear);
        self.entries = 0;
    }

    /// Bulk-load pre-de-duplicated entries (experiment setup, the recovery
    /// rebuild's write path): places each entry without per-entry existence
    /// checks, growing the index if a bucket triple fills. Charged as one
    /// sequential write sweep, **physically** across `parts` striped
    /// part-disks — each writes the bytes its bucket range covers and the
    /// sweep completes at the slowest part (`parts = 1` is the single
    /// index volume; `parts` is clamped to the bucket count). Placement is
    /// the same at any `parts`. Returns the number of entries loaded.
    ///
    /// Callers must guarantee the fingerprints are distinct and absent;
    /// duplicates would be double-inserted.
    ///
    /// A fault on a capacity-scaling op on part 0 or on the striped write
    /// sweep is [`IndexError::SweepFault`] naming the failing part-disk,
    /// the load stopping there; recovery callers treat the rebuild as
    /// failed and re-run it from scratch (the rebuild resets the part
    /// first, so a retry converges).
    pub fn try_bulk_load_striped(
        &mut self,
        entries: impl IntoIterator<Item = (Fingerprint, ContainerId)>,
        parts: usize,
    ) -> Result<Timed<u64>, IndexError> {
        let mut loaded = 0u64;
        let mut extra = 0.0;
        for (fp, cid) in entries {
            extra += self.place_with_growth(&IndexEntry::new(fp, cid))?.cost;
            loaded += 1;
        }
        let bounds = self.resolve_sweep_bounds(parts);
        let cost = self.charge_sweep_write(&bounds)?;
        Ok(Timed::new(loaded, cost + extra))
    }

    /// Garbage-collection sweep: remove every entry whose fingerprint is
    /// in `dead`, charged as one striped read sweep plus one striped
    /// write sweep over `parts` partitions (the GC rewrites the part the
    /// way SIU does, sequentially). Returns the number of entries
    /// removed. In memory it empties every bucket (`clear_entries`) and
    /// re-places the survivors, so each bucket then holds only the blocks
    /// its survivors fill.
    ///
    /// **Crash consistency:** a faulted GC sweep — either sweep charge,
    /// or a scaling op as the survivors are re-placed — surfaces
    /// [`IndexError::SweepFault`] (naming the faulted part-disk) and
    /// leaves the part untouched, so re-running the sweep after clearing
    /// the fault converges to the byte-identical result of an
    /// uninterrupted sweep. The in-memory mutation is modeled as the
    /// shadow-write swap of the write sweep.
    ///
    /// **Determinism:** surviving entries are re-placed in bucket
    /// iteration order (home-then-adjacent, direction derived from the
    /// fingerprint), which restores the overflow invariant the probe
    /// paths rely on — an entry lives in a neighbour only if its home
    /// bucket is full — even when removals open holes in previously-full
    /// buckets. Placement depends only on the pre-sweep contents and the
    /// dead set, never on `parts`: striped shapes stay byte-identical.
    pub fn gc_sweep(&mut self, dead: &FpSet, parts: usize) -> Result<Timed<u64>, IndexError> {
        self.or_durable(|idx| idx.gc_pass(dead, parts), |_, _| {})
    }

    /// [`DiskIndex::gc_sweep`]'s charges and rebuild.
    fn gc_pass(&mut self, dead: &FpSet, parts: usize) -> Result<Timed<u64>, IndexError> {
        let bounds = self.resolve_sweep_bounds(parts);
        let mut cost = self.charge_sweep_read(&bounds)?;
        cost += self.charge_sweep_write(&bounds)?;
        cost += self.cpu.probe_fps(self.entries);
        let survivors: Vec<IndexEntry> = self
            .iter_entries()
            .filter(|e| !dead.contains(&e.fp))
            .collect();
        let removed = self.entries - survivors.len() as u64;
        if removed == 0 {
            return Ok(Timed::new(0, cost));
        }
        self.clear_entries();
        let mut extra = 0.0;
        for e in &survivors {
            extra += self.place_with_growth(e)?.cost;
        }
        Ok(Timed::new(removed, cost + extra))
    }

    /// Capacity scaling (§4.1): rebuild with `2^(n+1)` buckets by copying
    /// entries; entry `e` moves to the bucket named by the first `n+1` bits
    /// of its fingerprint (2k or 2k+1 for non-overflowed entries).
    ///
    /// Charged as one sequential read of the old index plus one sequential
    /// write of the new, doubled index, on the volume. A fault on either
    /// (or on a nested scaling op) is [`IndexError::SweepFault`] on part 0,
    /// and the index keeps its old geometry and entries.
    pub fn scale_up(&mut self) -> Result<Timed<()>, IndexError> {
        self.or_durable(Self::double, |_, _| {})
    }

    /// [`DiskIndex::scale_up`]'s rebuild and charges: the rebuilt index
    /// replaces this one, devices and all, even when one of its ops
    /// faults — [`DiskIndex::or_durable`] then puts the old contents back.
    fn double(&mut self) -> Result<Timed<()>, IndexError> {
        let old_bytes = self.params.total_bytes();
        let new_params = self.params.scaled_up();
        let fresh = DiskIndex {
            server: self.server,
            params: new_params,
            skip_bits: self.skip_bits,
            buckets: vec![Vec::new(); new_params.buckets() as usize],
            // Part-disks survive scaling (their queues and fault plans
            // are device state): the rebuilt index takes them over.
            part_disks: self.part_disks.clone(),
            cpu: self.cpu.clone(),
            entries: 0,
            rng: self.rng.fork(),
        };
        let old = std::mem::replace(self, fresh);
        let mut extra = 0.0;
        for e in old.iter_entries() {
            // Overflow during re-placement is essentially impossible at
            // realistic geometries (utilization halves), but tiny test
            // indexes can cluster; grow again rather than fail.
            extra += self.place_with_growth(&e)?.cost;
        }
        let new_bytes = self.params.total_bytes();
        let mut cost = self.on_volume(SimDisk::seq_read, old_bytes)?;
        cost += self.on_volume(SimDisk::seq_write, new_bytes)?;
        cost += self.cpu.probe_fps(self.entries);
        debug_assert_eq!(self.entries, old.entries);
        Ok(Timed::new((), cost + extra))
    }

    /// Performance scaling (§4.1/§5.2): split into `2^w` equal parts; part
    /// `p` receives the entries whose `w` fingerprint bits *after this
    /// index's routing prefix* equal `p`, and becomes an independent index
    /// of `2^(n−w)` buckets whose routing prefix is `skip_bits + w`, hosted
    /// by backup server `(server << w) | p` on part-disks of its own.
    ///
    /// Charged as a sequential read of the whole index plus a sequential
    /// write of each part (each charged to the new part's own volume). A
    /// fault on the read is [`IndexError::SweepFault`] on part 0, and this
    /// index is left whole.
    pub fn split(&mut self, w_bits: u32) -> Result<Timed<Vec<DiskIndex>>, IndexError> {
        let part_params = self.params.split_part(w_bits);
        let model = self.part_disks.model();
        let new_skip = self.skip_bits + w_bits;
        let mut parts: Vec<DiskIndex> = (0..(1u16 << w_bits))
            .map(|p| {
                let (server, seed) = ((self.server << w_bits) | p, self.rng.next_u64() ^ p as u64);
                DiskIndex::with_prefix(server, part_params, new_skip, model, seed)
            })
            .collect();
        let mut moved = 0u64;
        let mut extra = 0.0;
        for e in self.iter_entries() {
            // Selector: bits [skip_bits, skip_bits + w) of the fingerprint.
            let server = e.fp.route(self.skip_bits, new_skip).1;
            extra += parts[server as usize].place_with_growth(&e)?.cost;
            moved += 1;
        }
        debug_assert_eq!(moved, self.entries);
        let old_bytes = self.params.total_bytes();
        let mut cost = self.on_volume(SimDisk::seq_read, old_bytes)?;
        for part in &mut parts {
            let bytes = part.params.total_bytes();
            cost += part.on_volume(SimDisk::seq_write, bytes)?;
        }
        Ok(Timed::new(parts, cost + extra))
    }
}

/// A borrowed, read-only view of the index's bucket array, independent of
/// the simulated devices: the one implementation of bucket addressing and
/// scanning that random lookups, in-place updates and the SIL/SIU sweeps
/// all read through.
pub(crate) struct BucketView<'a> {
    buckets: &'a [Vec<u8>],
    params: IndexParams,
    skip_bits: u32,
}

impl<'a> BucketView<'a> {
    /// The bucket a fingerprint belongs to: bits
    /// `[skip_bits, skip_bits + n)` of the fingerprint.
    #[inline]
    pub(crate) fn bucket_of(&self, fp: &Fingerprint) -> u64 {
        fp.route(self.skip_bits, self.skip_bits + self.params.n_bits)
            .1
    }

    /// The held blocks of bucket `k`: the prefix of its image that holds
    /// entries (every byte past it is zero).
    #[inline]
    pub(crate) fn bucket(&self, k: u64) -> &'a [u8] {
        &self.buckets[k as usize]
    }

    /// Neighbours of bucket `k`, wrapping at the ends (the paper leaves edge
    /// behaviour unspecified; wrapping keeps the adjacency uniform).
    #[inline]
    pub(crate) fn neighbours(&self, k: u64) -> (u64, u64) {
        let n = self.params.buckets();
        ((k + n - 1) % n, (k + 1) % n)
    }

    /// Whether bucket `k` is at capacity: it holds every block it has
    /// room for, and each of them is full. (A bucket whose held blocks are
    /// full but that has room for another is not: its next entry goes
    /// into a new block.)
    #[inline]
    pub(crate) fn bucket_is_full(&self, k: u64) -> bool {
        let bucket = self.bucket(k);
        bucket.len() == self.params.bucket_bytes && bucket.chunks_exact(BLOCK_BYTES).all(block_full)
    }

    /// Scan bucket `k` for `fp`.
    #[inline]
    fn find_in_bucket(&self, k: u64, fp: &Fingerprint) -> Option<ContainerId> {
        self.bucket(k)
            .chunks_exact(BLOCK_BYTES)
            .find_map(|blk| block_find(blk, fp))
    }

    /// Resolve `fp`, homed at bucket `home`: scan the home bucket, then —
    /// only when home is full, the overflow invariant — the left and right
    /// neighbours. Returns the resolution and the number of buckets read
    /// (what the random path pays one I/O each for). `home_full` caches the
    /// fullness check so a sweep asks at most once per batch group.
    #[inline]
    pub(crate) fn resolve(
        &self,
        home: u64,
        fp: &Fingerprint,
        home_full: &mut Option<bool>,
    ) -> (Option<ContainerId>, u32) {
        if let Some(cid) = self.find_in_bucket(home, fp) {
            return (Some(cid), 1);
        }
        if !*home_full.get_or_insert_with(|| self.bucket_is_full(home)) {
            return (None, 1);
        }
        let (left, right) = self.neighbours(home);
        match self.find_in_bucket(left, fp) {
            Some(cid) => (Some(cid), 2),
            None => (self.find_in_bucket(right, fp), 3),
        }
    }

    /// Merge-join probe of a fingerprint batch **sorted ascending**: walks
    /// the bucket array once in fingerprint order, grouping batch entries
    /// by home bucket so each bucket is located (and its fullness checked)
    /// once per group, every entry compare is a native `u64` prefix
    /// compare, and the buckets are visited in ascending order. Calls
    /// `emit(index, resolution)` exactly once per fingerprint, in batch
    /// order.
    pub(crate) fn probe_sorted_map(
        &self,
        fps: &[Fingerprint],
        mut emit: impl FnMut(usize, Option<ContainerId>),
    ) {
        debug_assert!(
            fps.windows(2)
                .all(|w| self.bucket_of(&w[0]) <= self.bucket_of(&w[1])),
            "batch must be sorted in bucket order"
        );
        let mut i = 0;
        while i < fps.len() {
            let home = self.bucket_of(&fps[i]);
            let mut j = i + 1;
            while j < fps.len() && self.bucket_of(&fps[j]) == home {
                j += 1;
            }
            let mut home_full = None;
            for (g, fp) in fps[i..j].iter().enumerate() {
                emit(i + g, self.resolve(home, fp, &mut home_full).0);
            }
            i = j;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{block_len, ENTRIES_PER_BLOCK};
    use debar_hash::Sha1;

    fn small_index(seed: u64) -> DiskIndex {
        // 2^6 buckets of 512 bytes: b = 20, capacity 1280.
        DiskIndex::with_paper_disk(IndexParams::new(6, 512), seed)
    }

    fn fp(n: u64) -> Fingerprint {
        Fingerprint::of_counter(n)
    }

    /// Part-disk `part` of server 0, the index every test builds.
    fn part_disk(part: u32) -> Device {
        Device::IndexPart { server: 0, part }
    }

    #[test]
    fn insert_then_lookup() {
        let mut idx = small_index(1);
        for i in 0..100u64 {
            idx.insert_random(fp(i), ContainerId::new(i))
                .expect("no fault is armed");
        }
        assert_eq!(idx.entry_count(), 100);
        for i in 0..100u64 {
            let got = idx.lookup_random(&fp(i)).expect("no fault is armed");
            assert_eq!(got.value, Some(ContainerId::new(i)), "missing fp {i}");
            assert!(got.cost > 0.0);
        }
        assert_eq!(
            idx.lookup_random(&fp(1000))
                .expect("no fault is armed")
                .value,
            None
        );
    }

    #[test]
    fn random_ops_and_scaling_fail_with_their_own_fault() {
        use debar_simio::{FaultKind, FaultPlan, InjectedFault};
        let mut idx = small_index(9);
        let part0 = |op| IndexError::SweepFault {
            device: part_disk(0),
            fault: InjectedFault {
                op,
                kind: FaultKind::Fail,
            },
        };
        let arm = |idx: &mut DiskIndex, k: u64| {
            let at = idx.part_disks.ops(0) + k;
            idx.part_disk_mut(0).set_fault_plan(FaultPlan::fail_at(at));
            at
        };
        // An insert's bucket read, then its write: nothing is placed.
        for k in 0..2 {
            let at = arm(&mut idx, k);
            let got = idx.insert_random(fp(1), ContainerId::new(1));
            assert_eq!(got.map(|t| t.value), Err(part0(at)));
            assert_eq!(idx.entry_count(), 0, "op +{k}");
        }
        idx.insert_random(fp(1), ContainerId::new(1))
            .expect("the retry places it");
        // A lookup's bucket read.
        let at = arm(&mut idx, 0);
        assert_eq!(idx.lookup_random(&fp(1)).map(|t| t.value), Err(part0(at)));
        let found = idx.lookup_random(&fp(1)).expect("clean").value;
        assert_eq!(found, Some(ContainerId::new(1)));
        // Capacity scaling's read, then its write, and a split's read: the
        // index keeps its geometry and entries.
        let before = idx.clone();
        for k in 0..2 {
            let at = arm(&mut idx, k);
            assert_eq!(idx.scale_up().map(|t| t.value), Err(part0(at)));
            assert_eq!(idx.params(), before.params(), "op +{k}");
            assert!(idx.raw_data() == before.raw_data(), "op +{k}");
        }
        let at = arm(&mut idx, 0);
        assert_eq!(idx.split(1).map(|t| t.value.len()), Err(part0(at)));
        assert!(idx.raw_data() == before.raw_data());
        idx.scale_up().expect("clean");
        assert_eq!(idx.params().n_bits, before.params().n_bits + 1);
    }

    #[test]
    fn lookup_cost_matches_random_io_model() {
        let mut idx = small_index(2);
        idx.insert_random(fp(1), ContainerId::new(1))
            .expect("no fault is armed");
        let t = idx.lookup_random(&fp(1)).expect("no fault is armed");
        // ~1/522 s for the bucket read (+ negligible CPU probe).
        assert!(
            (t.cost - 1.0 / 522.0).abs() / t.cost < 0.05,
            "cost {}",
            t.cost
        );
    }

    #[test]
    fn overflow_goes_to_adjacent_bucket() {
        let mut idx = small_index(3);
        // Force-fill one home bucket by inserting fingerprints with the same
        // 6-bit prefix.
        let target_bucket = fp(0).bucket_number(6);
        let same_bucket: Vec<Fingerprint> = (0..100_000u64)
            .map(fp)
            .filter(|f| f.bucket_number(6) == target_bucket)
            .take(25)
            .collect();
        assert!(same_bucket.len() == 25, "need 25 colliding fingerprints");
        let mut adjacent = 0;
        for f in &same_bucket {
            match idx
                .insert_random(*f, ContainerId::new(7))
                .expect("no fault is armed")
                .value
            {
                InsertOutcome::Home => {}
                InsertOutcome::Adjacent(k) => {
                    adjacent += 1;
                    let (l, r) = idx.view().neighbours(target_bucket);
                    assert!(k == l || k == r, "overflowed to non-adjacent bucket");
                }
                InsertOutcome::NeedsScaling => panic!("premature scaling"),
            }
        }
        assert_eq!(adjacent, 5, "bucket capacity is 20; 5 must overflow");
        // All entries still findable (second random I/O for overflowed).
        for f in &same_bucket {
            assert_eq!(
                idx.lookup_random(f).expect("no fault is armed").value,
                Some(ContainerId::new(7))
            );
        }
    }

    #[test]
    fn needs_scaling_when_three_adjacent_full() {
        let mut idx = small_index(4);
        let target = fp(0).bucket_number(6);
        let (l, r) = idx.view().neighbours(target);
        // Fill home and both neighbours to the brim (20 each = 60 entries).
        let mut picked = 0;
        for i in 0..400_000u64 {
            let f = fp(i);
            let b = f.bucket_number(6);
            if b == target || b == l || b == r {
                // A full bucket (20 entries) refuses the push.
                if idx.push_to_bucket(b, &IndexEntry::new(f, ContainerId::new(1))) {
                    picked += 1;
                }
                if picked == 60 {
                    break;
                }
            }
        }
        assert_eq!(picked, 60);
        // Now any insert homed at `target` must request scaling.
        let extra = (0..1_000_000u64)
            .map(fp)
            .find(|f| f.bucket_number(6) == target && idx.lookup_uncharged(f).is_none())
            .unwrap();
        assert_eq!(
            idx.insert_random(extra, ContainerId::new(2))
                .expect("no fault is armed")
                .value,
            InsertOutcome::NeedsScaling
        );
    }

    #[test]
    fn scale_up_preserves_entries_and_rehomes() {
        let mut idx = small_index(5);
        for i in 0..800u64 {
            if idx
                .insert_random(fp(i), ContainerId::new(i))
                .expect("no fault is armed")
                .value
                == InsertOutcome::NeedsScaling
            {
                panic!("unexpected scaling at {i}")
            }
        }
        let before: Vec<(Fingerprint, ContainerId)> =
            idx.iter_entries().map(|e| (e.fp, e.cid)).collect();
        let t = idx.scale_up().expect("no fault is armed");
        assert!(t.cost > 0.0);
        assert_eq!(idx.params().n_bits, 7);
        assert_eq!(idx.entry_count(), 800);
        for (f, cid) in before {
            assert_eq!(idx.lookup_uncharged(&f), Some(cid));
            // Entry now lives in (or adjacent to) its 7-bit home.
            let home = f.bucket_number(7);
            let (l, r) = idx.view().neighbours(home);
            let found = [home, l, r].iter().any(|&k| {
                idx.view()
                    .bucket(k)
                    .chunks_exact(BLOCK_BYTES)
                    .any(|blk| block_find(blk, &f).is_some())
            });
            assert!(found);
        }
    }

    #[test]
    fn scale_up_doubles_capacity_and_halves_utilization() {
        let mut idx = small_index(6);
        for i in 0..640u64 {
            idx.insert_random(fp(i), ContainerId::new(0))
                .expect("no fault is armed");
        }
        let u_before = idx.utilization();
        idx.scale_up().expect("no fault is armed");
        let u_after = idx.utilization();
        assert!((u_after - u_before / 2.0).abs() < 1e-9);
    }

    #[test]
    fn split_partitions_by_prefix() {
        let mut idx = small_index(7);
        for i in 0..1000u64 {
            idx.insert_random(fp(i), ContainerId::new(i))
                .expect("no fault is armed");
        }
        let parts = idx.split(2).expect("no fault is armed").value;
        assert_eq!(parts.len(), 4);
        let total: u64 = parts.iter().map(|p| p.entry_count()).sum();
        assert_eq!(total, 1000);
        for (p, part) in parts.iter().enumerate() {
            assert!(
                part.params().n_bits >= 4,
                "part must keep at least n-w bits"
            );
            for e in part.iter_entries() {
                assert_eq!(
                    e.fp.server_number(2),
                    p as u64,
                    "entry routed to wrong part"
                );
                assert_eq!(part.lookup_uncharged(&e.fp), Some(e.cid));
            }
        }
        // Part `p` of server `s` split `w` ways is server `(s << w) | p`,
        // and its part-disks are that server's.
        let mut parts = parts;
        for (p, part) in parts.iter_mut().enumerate() {
            assert_eq!(
                part.part_disk_mut(1).device(),
                Device::IndexPart {
                    server: p as u16,
                    part: 1
                }
            );
        }
        let mut halves = parts[3].split(1).expect("no fault is armed").value;
        for (p, half) in halves.iter_mut().enumerate() {
            let volume = Device::IndexPart {
                server: 6 + p as u16,
                part: 0,
            };
            assert_eq!(half.part_disk_mut(0).device(), volume);
        }
    }

    #[test]
    fn set_cid_uncharged_updates_in_place() {
        let mut idx = small_index(8);
        idx.insert_random(fp(1), ContainerId::NULL)
            .expect("no fault is armed");
        assert!(idx.set_cid_uncharged(&fp(1), ContainerId::new(3)));
        assert_eq!(idx.lookup_uncharged(&fp(1)), Some(ContainerId::new(3)));
        assert_eq!(idx.entry_count(), 1, "update must not add entries");
        assert!(!idx.set_cid_uncharged(&fp(9), ContainerId::new(3)));
    }

    #[test]
    fn bulk_load_part_fault_names_part() {
        use debar_simio::FaultPlan;
        let mut idx = small_index(30);
        // Arm part 1 of a 4-way striped rebuild before any sweep exists.
        idx.part_disk_mut(1).set_fault_plan(FaultPlan::fail_at(0));
        let entries: Vec<_> = (0..100u64).map(|i| (fp(i), ContainerId::new(i))).collect();
        let err = idx
            .try_bulk_load_striped(entries.clone(), 4)
            .expect_err("part fault fires on the write sweep");
        assert!(
            matches!(err, crate::IndexError::SweepFault { device, .. } if device == part_disk(1)),
            "{err:?}"
        );
        // Retry from a reset part converges (the recovery contract).
        idx.reset_empty();
        let t = idx.try_bulk_load_striped(entries, 4).expect("clean retry");
        assert_eq!(t.value, 100);
        assert_eq!(idx.entry_count(), 100);
    }

    #[test]
    fn gc_sweep_removes_dead_and_keeps_live_reachable() {
        let mut idx = small_index(31);
        for i in 0..400u64 {
            idx.insert_random(fp(i), ContainerId::new(i))
                .expect("no fault is armed");
        }
        let dead: FpSet = (0..400u64).filter(|i| i % 3 == 0).map(fp).collect();
        let t = idx.gc_sweep(&dead, 4).expect("clean sweep");
        assert_eq!(t.value, dead.len() as u64);
        assert!(t.cost > 0.0);
        assert_eq!(idx.entry_count(), 400 - dead.len() as u64);
        for i in 0..400u64 {
            let got = idx.lookup_random(&fp(i)).expect("no fault is armed").value;
            if i % 3 == 0 {
                assert_eq!(got, None, "dead fp {i} survived the sweep");
            } else {
                assert_eq!(got, Some(ContainerId::new(i)), "live fp {i} lost");
            }
        }
    }

    #[test]
    fn gc_sweep_noop_when_nothing_dead() {
        let mut idx = small_index(32);
        for i in 0..50u64 {
            idx.insert_random(fp(i), ContainerId::new(i))
                .expect("no fault is armed");
        }
        let before = Sha1::digest(&idx.raw_data());
        let absent: FpSet = (1000..1010u64).map(fp).collect();
        let t = idx.gc_sweep(&absent, 2).expect("clean sweep");
        assert_eq!(t.value, 0);
        assert!(t.cost > 0.0, "the sweep I/O is still charged");
        assert_eq!(
            Sha1::digest(&idx.raw_data()),
            before,
            "no-op must not touch bytes"
        );
    }

    #[test]
    fn gc_sweep_part_fault_aborts_before_mutation_and_redo_converges() {
        use debar_simio::FaultPlan;
        let mut faulty = small_index(33);
        let mut clean = small_index(33);
        for i in 0..300u64 {
            faulty
                .insert_random(fp(i), ContainerId::new(i))
                .expect("no fault is armed");
            clean
                .insert_random(fp(i), ContainerId::new(i))
                .expect("no fault is armed");
        }
        let dead: FpSet = (0..300u64).filter(|i| i % 5 == 0).map(fp).collect();
        let before = Sha1::digest(&faulty.raw_data());
        faulty
            .part_disk_mut(2)
            .set_fault_plan(FaultPlan::fail_at(0));
        let err = faulty
            .gc_sweep(&dead, 4)
            .expect_err("armed part must fault the sweep");
        assert!(
            matches!(err, crate::IndexError::SweepFault { device, .. } if device == part_disk(2)),
            "{err:?}"
        );
        assert_eq!(
            Sha1::digest(&faulty.raw_data()),
            before,
            "faulted sweep must leave the part untouched"
        );
        // Redo after clearing the fault converges byte-identically with an
        // uninterrupted sweep, independent of the striping shape.
        let t = faulty.gc_sweep(&dead, 4).expect("redo");
        let tc = clean.gc_sweep(&dead, 1).expect("uninterrupted");
        assert_eq!(t.value, tc.value);
        assert_eq!(
            Sha1::digest(&faulty.raw_data()),
            Sha1::digest(&clean.raw_data())
        );
    }

    #[test]
    fn gc_sweep_restores_overflow_invariant() {
        // Fill one home bucket past capacity so entries overflow to a
        // neighbour, then GC entries out of the home bucket. The rebuild
        // must re-home the overflowed survivors so the full-bucket-gated
        // probe paths still find them.
        let mut idx = small_index(34);
        let target = fp(0).bucket_number(6);
        let same_bucket: Vec<Fingerprint> = (0..100_000u64)
            .map(fp)
            .filter(|f| f.bucket_number(6) == target)
            .take(25)
            .collect();
        for f in &same_bucket {
            idx.insert_random(*f, ContainerId::new(7))
                .expect("no fault is armed");
        }
        // Kill 10 of the colliding keys: the home bucket is no longer full.
        let dead: FpSet = same_bucket.iter().take(10).copied().collect();
        idx.gc_sweep(&dead, 1).expect("clean sweep");
        for f in same_bucket.iter().skip(10) {
            assert_eq!(
                idx.lookup_random(f).expect("no fault is armed").value,
                Some(ContainerId::new(7)),
                "survivor unreachable after rebuild"
            );
        }
    }

    #[test]
    fn gc_sweep_writes_the_bytes_a_zero_filled_rebuild_does() {
        // Two-block buckets: one home bucket takes 45 entries, so 5 spill
        // into its neighbours, and most buckets leave their second block
        // empty. The dead set frees the home bucket. Whatever blocks the
        // sweep skips, its image must be a fresh zero index with the
        // survivors re-placed in bucket order, at any striping.
        let params = IndexParams::new(6, 2 * BLOCK_BYTES);
        let mut idx = DiskIndex::with_paper_disk(params, 35);
        let home = fp(0).bucket_number(6);
        let crowd = (0..100_000u64).filter(|&i| fp(i).bucket_number(6) == home);
        let crowd: Vec<u64> = crowd.take(45).collect();
        let others = (0..300u64).filter(|i| !crowd.contains(i));
        let mut spilled = 0;
        for i in crowd.iter().copied().chain(others) {
            let placed = idx.insert_random(fp(i), ContainerId::new(i));
            let outcome = placed.expect("no fault is armed").value;
            spilled += u64::from(matches!(outcome, InsertOutcome::Adjacent(_)));
        }
        assert!(spilled >= 5, "the home bucket overflowed");
        let dead: FpSet = (crowd.iter().take(10).copied())
            .chain((0..300).filter(|i| i % 3 == 0))
            .map(fp)
            .collect();
        let mut reference = DiskIndex::with_paper_disk(params, 0);
        for e in idx.iter_entries().filter(|e| !dead.contains(&e.fp)) {
            assert_ne!(reference.place(&e), InsertOutcome::NeedsScaling);
        }
        for parts in [1, 2] {
            let mut swept = idx.clone();
            let removed = swept.gc_sweep(&dead, parts).expect("clean sweep").value;
            assert_eq!(removed, idx.entry_count() - reference.entry_count());
            assert!(swept.raw_data() == reference.raw_data(), "parts {parts}");
            assert!(!swept.view().bucket_is_full(home), "the home bucket freed");
        }
        idx.reset_empty();
        assert!(idx.raw_data().iter().all(|&b| b == 0), "reset leaves zeros");
    }

    #[test]
    fn a_bucket_with_room_for_another_block_is_not_full() {
        // Two-block buckets: a home bucket whose one held block is full
        // still has room for a second, so the overflow invariant says no
        // entry homed there lives in a neighbour. An absent fingerprint is
        // settled by the home bucket's read alone, and the next insert
        // lands home.
        let mut idx = DiskIndex::with_paper_disk(IndexParams::new(6, 2 * BLOCK_BYTES), 36);
        let home = fp(0).bucket_number(6);
        let mut homed = (0..).map(fp).filter(|f| f.bucket_number(6) == home);
        for f in homed.by_ref().take(ENTRIES_PER_BLOCK) {
            let placed = idx.place(&IndexEntry::new(f, ContainerId::new(1)));
            assert_eq!(placed, InsertOutcome::Home);
        }
        let absent = homed.next().expect("another fingerprint homed there");
        let reads = idx.disk_stats().rand_reads;
        let found = idx.lookup_random(&absent).expect("no fault is armed");
        assert_eq!(found.value, None);
        assert_eq!(idx.disk_stats().rand_reads - reads, 1, "one bucket read");
        let placed = idx.insert_random(absent, ContainerId::new(2));
        assert_eq!(
            placed.expect("no fault is armed").value,
            InsertOutcome::Home
        );
    }

    #[test]
    fn the_buckets_hold_only_the_blocks_that_hold_entries() {
        // A `cluster_scaled` index part: 32 MiB of 8 KiB buckets, filled
        // uniformly to under a tenth of its capacity. The memory the
        // buckets hold is exactly their used blocks, a quarter of the
        // image at most.
        let params = IndexParams::from_total_size(32 << 20, 8 << 10);
        let mut idx = DiskIndex::with_paper_disk(params, 37);
        for i in 0..112_031u64 {
            let placed = idx.place(&IndexEntry::new(fp(i), ContainerId::new(i)));
            assert_ne!(placed, InsertOutcome::NeedsScaling);
        }
        let image = idx.raw_data();
        let used = (image.chunks_exact(BLOCK_BYTES))
            .filter(|block| block_len(block) != 0)
            .count();
        let held: usize = idx.buckets.iter().map(Vec::capacity).sum();
        assert_eq!(held, used * BLOCK_BYTES);
        assert!(
            held as u64 <= params.total_bytes() / 4,
            "{held} bytes held of {}",
            params.total_bytes()
        );
    }

    #[test]
    fn utilization_tracks_entries() {
        let mut idx = small_index(9);
        assert_eq!(idx.utilization(), 0.0);
        for i in 0..128u64 {
            idx.insert_random(fp(i), ContainerId::new(0))
                .expect("no fault is armed");
        }
        assert!((idx.utilization() - 128.0 / 1280.0).abs() < 1e-12);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        #[test]
        fn prop_insert_lookup_roundtrip(seed: u64, count in 1u64..300) {
            let mut idx = small_index(seed);
            for i in 0..count {
                idx.insert_random(fp(i.wrapping_mul(seed | 1)), ContainerId::new(i)).expect("no fault is armed");
            }
            for i in 0..count {
                let f = fp(i.wrapping_mul(seed | 1));
                proptest::prop_assert!(idx.lookup_uncharged(&f).is_some());
            }
        }

        #[test]
        fn prop_scale_preserves_all(seed: u64, count in 1u64..400) {
            let mut idx = small_index(seed);
            for i in 0..count {
                idx.insert_random(fp(i), ContainerId::new(i % 100)).expect("no fault is armed");
            }
            idx.scale_up().expect("no fault is armed");
            for i in 0..count {
                proptest::prop_assert_eq!(idx.lookup_uncharged(&fp(i)), Some(ContainerId::new(i % 100)));
            }
        }
    }
}
