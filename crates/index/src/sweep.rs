//! Sequential index lookup (SIL, §5.2) and sequential index update
//! (SIU, §5.4).
//!
//! Both exploit the number-ordered fingerprint distribution: a batch of
//! fingerprints sorted into the [`IndexCache`] is resolved by **one
//! sequential sweep** of the disk index, turning what would be one random
//! small I/O per fingerprint into `index_bytes / sequential_bandwidth`
//! seconds of large sequential I/O — time *independent of the number of
//! fingerprints processed* (the paper's `η = f·r/s` efficiency law).
//!
//! SIL sweeps read-only: every on-disk entry probes the cache; hits are
//! *duplicates* (removed from the cache, container ID attached), and the
//! fingerprints remaining in the cache afterwards are *new* to the system.
//! SIU additionally merges a batch of `fingerprint → container` mappings
//! into the buckets and writes the index back (read sweep + write sweep).
//! If a bucket and both neighbours fill up, SIU transparently performs
//! capacity scaling (§4.1) and continues.
//!
//! # Merge-join probing
//!
//! The in-memory half of a sweep is itself organised as a **merge-join**
//! rather than a hash join: the batch is sorted once by fingerprint (it is
//! already bucketed by leading prefix bits in the [`IndexCache`], so this
//! is a cheap near-sorted sort), and a single cursor advances through the
//! bucket array in fingerprint order. Each resident bucket is located once
//! per batch *group* instead of once per fingerprint, there is no hashing
//! and no pointer-chasing through cache nodes, and memory is touched in
//! strictly ascending order — the access pattern the hardware prefetcher
//! is built for. Overflow is resolved with the *overflow invariant*: an
//! entry can live in an adjacent bucket only if its home bucket is full
//! (entries are never removed), so the two neighbour scans are skipped for
//! every non-full home bucket. The pre-merge-join path — one ungrouped
//! three-bucket probe per fingerprint — is preserved as
//! [`DiskIndex::sequential_lookup_hashed`] /
//! [`DiskIndex::sequential_update_scalar`]: the references the equivalence
//! property tests and the `hotpath` bench compare the sweeps against.
//!
//! # Striped sweeps
//!
//! [`DiskIndex::try_sequential_lookup_sharded`] and
//! [`DiskIndex::try_sequential_update_sharded`] are *the* sweeps: they
//! model the multi-part index of §5.2, the bucket range split into `P`
//! contiguous partitions, each on its own spindle set, and the paper's
//! single index volume is `parts = 1` — an argument value, not a second
//! entry point. The parallelism is **charged, not executed** — the
//! partition count decides what each part-disk and the probe CPU are
//! charged (below), while the in-memory work is the same single merge-join
//! pass over the whole sorted batch at any `P`. Results, hit order and
//! index bytes therefore cannot depend on `P`, and no OS thread is spawned.
//! Both are fault-checked: a caller that arms no [`debar_simio::FaultPlan`]
//! can never see the `Err` arm.
//!
//! # Physical part-disks
//!
//! Sweep time is charged **physically**: each partition owns a real
//! [`debar_simio::SimDisk`] in the index's
//! [`debar_simio::PartDiskSet`] — the index's only device bank — the sweep
//! charges each part-disk exactly the bytes its bucket range covers, and
//! the wall time is the **max over per-part completion times**. Part-disk
//! 0 is also the volume un-striped work (random bucket I/O, capacity
//! scaling, the reference kernels) is charged to. The rules:
//!
//! * **Even split** (the default): partitions differ by at most one
//!   bucket, so for power-of-two `P` dividing the bucket count the
//!   physical max is bit-identical to the closed form
//!   `DiskModel::seq_read_cost(total) / P` — the even-split law the
//!   property tests pin.
//! * **Skewed split** ([`DiskIndex::set_sweep_layout`]): an uneven bucket
//!   split makes the largest partition a visible *straggler* — sweep time
//!   is the slowest part, not `total/P`. Placement and results are
//!   layout-independent; only the clock (and fault targeting) changes.
//! * **Re-split**: every sweep re-resolves its layout against the live
//!   bucket count (`min(parts, buckets)` even partitions; a skewed layout
//!   is dropped when capacity scaling changes the geometry), resizing the
//!   part-disk bank — growth adds fresh disks, shrink drops the top disks
//!   (never part 0) along with any faults still armed on them.
//! * **Fault targeting**: a [`debar_simio::FaultPlan`] is armed on one
//!   part-disk ([`DiskIndex::set_part_fault_plan`]; one op per part per
//!   sweep direction, plus the un-striped ops on part 0) and takes out
//!   that partition's share of the sweep; the sweeps surface it as an
//!   [`IndexError`] whose `part` names the failing part-disk. Each
//!   checked operation reports **one** fault — the lowest armed part —
//!   and a sibling armed in the same window stays pending until the next
//!   checked boundary.
//!
//! # One kernel per sweep
//!
//! * SIL probes the sorted batch against the bucket view in one pass;
//!   hits come out in fingerprint order.
//! * SIU separates **classification** (does this fingerprint already
//!   exist? — the probe-heavy part, one grouped
//!   [`probe_sorted_map`](crate::disk_index) pass, read-only against the
//!   pre-batch state) from **application** (append/overwrite entries, in
//!   canonical order). Existence is stable under the batch's own inserts
//!   except for *repeats of the same fingerprint*, which sorting makes
//!   adjacent, so the apply pass recovers exact per-entry semantics with
//!   one previous-fingerprint comparison — including mid-batch capacity
//!   scaling, which it performs exactly where a per-entry insert loop
//!   would.
//!
//! Every SIU path canonicalises the batch by a stable sort on fingerprint
//! first — the paper's SIU input arrives through the index cache, which
//! already orders fingerprints by number, so canonical order *is* the
//! paper's order.

use crate::cache::{CacheNode, IndexCache};
use crate::disk_index::{DiskIndex, InsertOutcome};
use crate::entry::IndexEntry;
use crate::error::IndexError;
use debar_hash::{ContainerId, Fingerprint};
use debar_simio::{Secs, Timed};
use serde::{Deserialize, Serialize};

/// Outcome of one SIL sweep.
#[derive(Debug, Clone)]
pub struct SilReport {
    /// Fingerprints found in the index (removed from the cache); each node's
    /// `cid` carries the on-disk container assignment.
    pub duplicates: Vec<CacheNode>,
    /// Fingerprints submitted in the batch.
    pub submitted: usize,
    /// Time spent on the sequential read sweep.
    pub sweep_secs: Secs,
    /// CPU time spent probing buckets for the batch (overlapped with the
    /// sweep; the larger of the two is the SIL cost).
    pub probe_secs: Secs,
    /// Partitions the sweep ran on (1 = scalar).
    pub parts: u32,
}

/// Outcome of one SIU sweep.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SiuReport {
    /// Entries newly inserted.
    pub inserted: u64,
    /// Entries that already existed and had their container ID overwritten.
    pub updated: u64,
    /// Inserted entries that overflowed to an adjacent bucket.
    pub overflowed: u64,
    /// Capacity-scaling events triggered mid-update.
    pub scale_events: u32,
    /// Index utilization after the update.
    pub utilization_after: f64,
    /// Partitions the sweep ran on (1 = scalar).
    pub parts: u32,
}

/// Clamp a requested partition count to something the bucket range can
/// sustain (at least one bucket per partition).
///
/// This is the runtime half of the `sweep_parts` contract. Deployment
/// configurations reject `parts > bucket count` up front
/// (`DebarConfig::validate` in `debar-core`), but the bucket count of a
/// *live* index changes underneath a fixed configuration — capacity
/// scaling doubles it mid-batch, performance-scaling splits halve it — so
/// every sweep re-clamps. The documented rule: a sweep runs on
/// `min(parts, buckets)` partitions. Parts that don't divide the bucket
/// count evenly are fine: `DiskIndex::resolve_sweep_bounds` hands out
/// contiguous ranges differing by at most one bucket, and each part-disk
/// is charged its own range, the sweep completing at the slowest.
pub(crate) fn clamp_parts(parts: usize, buckets: u64) -> u32 {
    (parts.max(1) as u64).min(buckets).min(u32::MAX as u64) as u32
}

impl DiskIndex {
    /// Canonical SIU batch order: stable sort by `(bucket, 64-bit
    /// prefix)` — native-integer keys sort far faster than 20-byte
    /// memcmps, the leading bucket component keeps the order monotone in
    /// bucket number even when this index part's bucket bits start at
    /// `skip_bits > 0`, and stability preserves the submission order of
    /// repeated fingerprints so the last mapping wins, as in the
    /// unsorted scalar path. All SIU paths canonicalise through this one
    /// method, which is what makes them byte-identical.
    fn canonical_updates(
        &self,
        updates: &[(Fingerprint, ContainerId)],
    ) -> Vec<(Fingerprint, ContainerId)> {
        let view = self.view();
        let mut sorted = updates.to_vec();
        sorted.sort_by_key(|(fp, _)| (view.bucket_of(fp), fp.prefix64()));
        sorted
    }

    /// The pre-merge-join SIL reference: per-node hash probing through
    /// [`DiskIndex::lookup_uncharged`] (home bucket plus both neighbours on
    /// every miss, cache-node order). Kept for benchmarking and for the
    /// equivalence property tests; results are identical to
    /// [`DiskIndex::try_sequential_lookup_sharded`].
    pub fn sequential_lookup_hashed(&mut self, cache: &mut IndexCache) -> Timed<SilReport> {
        let total = self.params().total_bytes();
        let submitted = cache.len();
        let sweep = self.part_disks.volume_mut().seq_read(total);
        let mut duplicates = Vec::new();
        let mut hits = Vec::new();
        for node in cache.iter() {
            if let Some(cid) = self.lookup_uncharged(&node.fp) {
                hits.push((node.fp, cid));
            }
        }
        hits.sort_unstable_by_key(|(fp, _)| *fp);
        for (fp, cid) in hits {
            let mut node = cache.remove(&fp).expect("present above");
            node.cid = cid;
            duplicates.push(node);
        }
        let probe = self.cpu_mut().probe_fps(submitted as u64);
        Timed::new(
            SilReport {
                duplicates,
                submitted,
                sweep_secs: sweep,
                probe_secs: probe,
                parts: 1,
            },
            sweep.max(probe),
        )
    }

    /// The shared SIU kernel: classify the whole canonical batch, then
    /// apply its first `apply_limit` entries in canonical order.
    /// `apply_limit < sorted.len()` models a torn write sweep (only a
    /// prefix of the updates became durable); an unfaulted sweep passes
    /// the full length.
    fn update_kernel(
        &mut self,
        sorted: &[(Fingerprint, ContainerId)],
        bounds: &[u64],
        apply_limit: usize,
    ) -> Timed<SiuReport> {
        let parts = bounds.len() as u32;
        // ---- Classify against the pre-batch state (grouped merge-join
        //      probing). ----
        let fps: Vec<Fingerprint> = sorted.iter().map(|(fp, _)| *fp).collect();
        let mut exists = vec![false; fps.len()];
        self.view()
            .probe_sorted_map(&fps, |i, r| exists[i] = r.is_some());

        // ---- Apply in canonical order. ----
        let mut cost = self.charge_sweep_read(bounds);
        let mut report = SiuReport {
            parts,
            ..SiuReport::default()
        };
        for (k, &(fp, cid)) in sorted.iter().enumerate().take(apply_limit) {
            // A fingerprint exists at apply time iff it existed before the
            // batch or an earlier repeat of it inserted it. Repeats share a
            // prefix, so they sit inside the (almost always length-1)
            // equal-prefix run just before `k`.
            let prefix = fp.prefix64();
            let repeat = sorted[..k]
                .iter()
                .rev()
                .take_while(|(f, _)| f.prefix64() == prefix)
                .any(|(f, _)| *f == fp);
            if exists[k] || repeat {
                let ok = self.set_cid_uncharged(&fp, cid);
                debug_assert!(ok, "classified-existing fingerprint not found");
                report.updated += 1;
            } else {
                cost += self.place_counted(fp, cid, &mut report);
            }
        }
        // Capacity scaling mid-apply may have changed the bucket count;
        // the write sweep re-resolves the layout over the live geometry
        // (an explicit skewed layout was reset to even by the scaling).
        let wbounds = self.resolve_sweep_bounds(parts as usize);
        cost += self.charge_sweep_write(&wbounds);
        let merge = self.cpu_mut().probe_fps_striped(sorted.len() as u64, parts);
        report.utilization_after = self.utilization();
        Timed::new(report, cost.max(merge))
    }

    /// The pre-merge-join SIU reference: per-entry hash probing
    /// ([`DiskIndex::lookup_uncharged`] + in-place overwrite) over the
    /// canonically sorted batch. Kept for benchmarking
    /// and equivalence tests; byte-identical to
    /// [`DiskIndex::try_sequential_update_sharded`].
    pub fn sequential_update_scalar(
        &mut self,
        updates: &[(Fingerprint, ContainerId)],
    ) -> Timed<SiuReport> {
        let sorted = self.canonical_updates(updates);
        let total_before = self.params().total_bytes();
        let mut cost = self.part_disks.volume_mut().seq_read(total_before);
        let mut report = SiuReport {
            parts: 1,
            ..SiuReport::default()
        };
        for &(fp, cid) in &sorted {
            if self.lookup_uncharged(&fp).is_some() {
                let ok = self.set_cid_uncharged(&fp, cid);
                debug_assert!(ok);
                report.updated += 1;
                continue;
            }
            cost += self.place_counted(fp, cid, &mut report);
        }
        let total_after = self.params().total_bytes();
        cost += self.part_disks.volume_mut().seq_write(total_after);
        let merge = self.cpu_mut().probe_fps(sorted.len() as u64);
        report.utilization_after = self.utilization();
        Timed::new(report, cost.max(merge))
    }

    /// Sequential index lookup (§5.2, Fig. 4) with merge-join probing.
    ///
    /// One sequential read sweep of the entire index, its bucket range
    /// split into `parts` contiguous partitions, each on its own part-disk
    /// (`parts = 1` is the paper's single index volume); as buckets stream
    /// through memory, the sorted batch is resolved by a single cursor
    /// advancing in fingerprint order (see the module docs). CPU probing is
    /// pipelined with the disk sweep, so the SIL cost is the *larger* of
    /// the two — the slowest part-disk's sweep or the even `1/parts` probe
    /// share — which is why the paper finds SIL time "only related to the
    /// disk index size and the disk transfer rate" (§5.2, Fig. 10).
    ///
    /// Returns duplicates (with their container IDs) and leaves the new
    /// fingerprints in `cache`.
    ///
    /// Fault-checked: if a [`debar_simio::FaultPlan`] on any part-disk of
    /// the stripe arms a fault on this sweep's read op, the sweep charges
    /// its disk time, consumes the fault and returns
    /// [`IndexError::SweepFault`] (`part` naming the failing part-disk)
    /// **without touching the cache** — the caller re-submits the same
    /// batch after recovery and converges to the uninterrupted result.
    pub fn try_sequential_lookup_sharded(
        &mut self,
        cache: &mut IndexCache,
        parts: usize,
    ) -> Result<Timed<SilReport>, IndexError> {
        // The "next checked boundary" rule: a fault fired by an unchecked
        // operation (e.g. a capacity-scaling sweep) surfaces here.
        if let Some((part, fault)) = self.part_disks.take_fault() {
            return Err(IndexError::SweepFault { fault, part });
        }
        let bounds = self.resolve_sweep_bounds(parts);
        let sweep = self.charge_sweep_read(&bounds);
        // One error per checked op: the lowest faulted part is reported,
        // a sibling that fired on the same sweep stays pending.
        if let Some((part, fault)) = self.part_disks.take_fault() {
            return Err(IndexError::SweepFault { fault, part });
        }
        let parts = bounds.len() as u32;
        let submitted = cache.len();
        let view = self.view();
        let mut fps: Vec<Fingerprint> = cache.iter().map(|n| n.fp).collect();
        // Sort by (bucket, 64-bit prefix): native-integer keys are far
        // cheaper than 20-byte lexicographic compares, and leading with
        // the bucket number keeps the order monotone in `bucket_of` even
        // on an index *part* whose bucket bits start at `skip_bits > 0`
        // (multi-server routing) — which the grouped probe relies on.
        fps.sort_unstable_by_key(|fp| (view.bucket_of(fp), fp.prefix64()));
        let mut duplicates = Vec::new();
        view.probe_sorted_map(&fps, |i, r| {
            if let Some(cid) = r {
                let mut node = cache
                    .remove(&fps[i])
                    .expect("hit fingerprints come from the cache");
                node.cid = cid;
                duplicates.push(node);
            }
        });

        // CPU probing keeps the even-split pipelined model (probe work is
        // in-memory and balances across the parts' CPUs, not across
        // bucket ranges).
        let probe = self.cpu_mut().probe_fps_striped(submitted as u64, parts);
        Ok(Timed::new(
            SilReport {
                duplicates,
                submitted,
                sweep_secs: sweep,
                probe_secs: probe,
                parts,
            },
            sweep.max(probe),
        ))
    }

    /// Sequential index update (§5.4): merge `updates` into the index with
    /// one read sweep + one write sweep (merge CPU pipelined with the I/O),
    /// transparently scaling capacity when a bucket and both neighbours are
    /// full. The batch is canonicalised by a stable bucket-order sort,
    /// classified in one pass of the grouped merge-join cursor
    /// (`probe_sorted_map`: each home bucket located and fullness-checked
    /// once per batch group, ascending memory, `u64`-prefix compares), and
    /// applied in canonical order. Both sweeps are charged across `parts`
    /// part-disks (each its own bucket-range byte share, completing at the
    /// slowest) and the merge CPU at the even `1/parts` share; the index
    /// bytes are the same at any `parts`.
    ///
    /// Fault-checked. An SIU sweep performs two disk ops on every engaged
    /// part-disk — the read sweep, then the write sweep:
    ///
    /// * a fault on the **read** op applies nothing
    ///   ([`IndexError::SweepFault`]);
    /// * an outright failure or bit flip on the **write** op loses the
    ///   whole in-place update ([`IndexError::SweepFault`], nothing
    ///   applied);
    /// * a **torn** write op persists only the first half of the
    ///   canonically sorted batch ([`IndexError::PartialSweep`]) whichever
    ///   part-disk tore (the established crash model: what matters
    ///   downstream is that the durable set is a canonical prefix and redo
    ///   is idempotent).
    ///
    /// The error's `part` names the failing part-disk. In every case
    /// re-running the *same* batch converges to the
    /// uninterrupted result byte-for-byte: already-applied entries are
    /// overwritten in place with the same container IDs, the rest insert
    /// in the same canonical order.
    pub fn try_sequential_update_sharded(
        &mut self,
        updates: &[(Fingerprint, ContainerId)],
        parts: usize,
    ) -> Result<Timed<SiuReport>, IndexError> {
        // The "next checked boundary" rule (see the lookup counterpart).
        if let Some((part, fault)) = self.part_disks.take_fault() {
            return Err(IndexError::SweepFault { fault, part });
        }
        let bounds = self.resolve_sweep_bounds(parts);
        let Some((armed_part, spec)) = self.part_disks.peek_fault(2) else {
            let sorted = self.canonical_updates(updates);
            let limit = sorted.len();
            return Ok(self.update_kernel(&sorted, &bounds, limit));
        };
        let total = updates.len() as u64;
        let on_read = spec.at_op == self.part_disks.ops(armed_part as usize);
        let apply_limit = if !on_read && spec.kind == debar_simio::FaultKind::TornWrite {
            updates.len() / 2
        } else {
            0
        };
        if on_read {
            // The read sweep itself fails: charge it, nothing applied.
            let _ = self.charge_sweep_read(&bounds);
        } else {
            // The write sweep fails (torn or outright): the kernel runs
            // with a limited apply prefix and charges both sweeps.
            let sorted = self.canonical_updates(updates);
            let _ = self.update_kernel(&sorted, &bounds, apply_limit);
        }
        // Attribute the error to the disk whose peeked spec drove the
        // on-read/torn decision above; faults armed on other disks in the
        // same window stay pending and surface at the next checked
        // boundary (multiple simultaneously-armed disks are a harness
        // construction — one error per checked operation keeps the
        // decision and the report consistent).
        let fault = self
            .part_disks
            .take_fault_on(armed_part as usize)
            .expect("peeked fault fires within the sweep's ops");
        if !on_read && spec.kind == debar_simio::FaultKind::TornWrite {
            Err(IndexError::PartialSweep {
                applied: apply_limit as u64,
                total,
                fault,
                part: armed_part,
            })
        } else {
            Err(IndexError::SweepFault {
                fault,
                part: armed_part,
            })
        }
    }

    /// Insert a new entry, counting outcomes and scaling as needed.
    fn place_counted(&mut self, fp: Fingerprint, cid: ContainerId, report: &mut SiuReport) -> Secs {
        let mut cost = 0.0;
        loop {
            match self.place(&IndexEntry::new(fp, cid)) {
                InsertOutcome::Home => {
                    report.inserted += 1;
                    return cost;
                }
                InsertOutcome::Adjacent(_) => {
                    report.inserted += 1;
                    report.overflowed += 1;
                    return cost;
                }
                InsertOutcome::NeedsScaling => {
                    cost += self.scale_up().cost;
                    report.scale_events += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::IndexParams;
    use debar_hash::SplitMix64;

    fn index(seed: u64) -> DiskIndex {
        DiskIndex::with_paper_disk(IndexParams::new(8, 512), seed)
    }

    fn fp(n: u64) -> Fingerprint {
        Fingerprint::of_counter(n)
    }

    fn cache_of(range: std::ops::Range<u64>) -> IndexCache {
        let mut c = IndexCache::new(4, 100_000);
        for i in range {
            c.insert(fp(i), 0);
        }
        c
    }

    /// One unfaulted SIL sweep on `parts` partitions.
    fn sil(idx: &mut DiskIndex, cache: &mut IndexCache, parts: usize) -> Timed<SilReport> {
        idx.try_sequential_lookup_sharded(cache, parts)
            .expect("no fault is armed")
    }

    /// One unfaulted SIU sweep on `parts` partitions.
    fn siu(
        idx: &mut DiskIndex,
        batch: &[(Fingerprint, ContainerId)],
        parts: usize,
    ) -> Timed<SiuReport> {
        idx.try_sequential_update_sharded(batch, parts)
            .expect("no fault is armed")
    }

    #[test]
    fn try_sil_fault_leaves_cache_untouched_and_retry_matches() {
        use debar_simio::FaultPlan;
        let mut idx = index(40);
        let updates: Vec<_> = (0..400u64).map(|i| (fp(i), ContainerId::new(i))).collect();
        siu(&mut idx, &updates, 1);
        let mut cache = cache_of(200..600);
        let before = cache.len();
        idx.set_part_fault_plan(0, FaultPlan::fail_at(idx.part_disk_ops(0)));
        let err = idx
            .try_sequential_lookup_sharded(&mut cache, 2)
            .expect_err("armed fault must fire");
        assert!(matches!(err, IndexError::SweepFault { part: 0, .. }));
        assert_eq!(cache.len(), before, "failed sweep must not drain the cache");
        // Retry converges to the clean result.
        let rep = idx
            .try_sequential_lookup_sharded(&mut cache, 2)
            .expect("clean retry")
            .value;
        assert_eq!(rep.duplicates.len(), 200);
        assert_eq!(cache.len(), 200, "the new fingerprints stay in the cache");
    }

    #[test]
    fn torn_siu_applies_half_then_redo_converges_byte_identically() {
        use debar_simio::FaultPlan;
        let updates: Vec<_> = (0..500u64)
            .map(|i| (fp(i), ContainerId::new(i % 30)))
            .collect();
        // Reference: uninterrupted SIU.
        let mut clean = index(41);
        siu(&mut clean, &updates, 1);

        // Torn write sweep: only half the canonical batch lands.
        let mut torn = index(41);
        torn.set_part_fault_plan(0, FaultPlan::torn_write_at(torn.part_disk_ops(0) + 1));
        let err = torn
            .try_sequential_update_sharded(&updates, 1)
            .expect_err("torn write must surface");
        let IndexError::PartialSweep {
            applied,
            total,
            fault,
            part: 0,
        } = err
        else {
            panic!("expected PartialSweep on part 0, got {err:?}");
        };
        assert_eq!(total, 500);
        assert_eq!(applied, 250);
        assert_eq!(fault.kind, debar_simio::FaultKind::TornWrite);
        assert_eq!(torn.entry_count(), 250, "only the torn prefix is durable");
        assert_ne!(torn.raw_data(), clean.raw_data());
        // Redo the same batch: overwrites for the prefix, inserts for the
        // rest — byte-identical to the uninterrupted index.
        let rep = torn
            .try_sequential_update_sharded(&updates, 1)
            .expect("clean redo")
            .value;
        assert_eq!(rep.updated, 250);
        assert_eq!(rep.inserted, 250);
        assert_eq!(torn.raw_data(), clean.raw_data());
        assert_eq!(torn.entry_count(), clean.entry_count());
    }

    #[test]
    fn failed_siu_read_or_write_applies_nothing_and_redo_converges() {
        use debar_simio::FaultPlan;
        let updates: Vec<_> = (0..300u64).map(|i| (fp(i), ContainerId::new(i))).collect();
        let mut clean = index(42);
        siu(&mut clean, &updates, 1);
        for write_op in [0u64, 1] {
            let mut faulted = index(42);
            faulted.set_part_fault_plan(0, FaultPlan::fail_at(faulted.part_disk_ops(0) + write_op));
            let err = faulted
                .try_sequential_update_sharded(&updates, 4)
                .expect_err("fault fires");
            assert!(
                matches!(err, IndexError::SweepFault { part: 0, .. }),
                "{err:?}"
            );
            assert_eq!(faulted.entry_count(), 0, "all-or-nothing");
            faulted
                .try_sequential_update_sharded(&updates, 4)
                .expect("redo");
            assert_eq!(faulted.raw_data(), clean.raw_data());
        }
    }

    #[test]
    fn single_part_fault_names_part_and_retry_converges() {
        use debar_simio::FaultPlan;
        let mut idx = index(50);
        let updates: Vec<_> = (0..400u64).map(|i| (fp(i), ContainerId::new(i))).collect();
        siu(&mut idx, &updates, 4);
        let mut cache = cache_of(0..400);
        let before = cache.len();
        // Arm part-disk 2 only; its siblings stay clean.
        idx.set_part_fault_plan(2, FaultPlan::fail_at(idx.part_disk_ops(2)));
        let err = idx
            .try_sequential_lookup_sharded(&mut cache, 4)
            .expect_err("single-part fault must fire");
        assert!(
            matches!(err, IndexError::SweepFault { part: 2, .. }),
            "error must name the failing part-disk: {err:?}"
        );
        assert_eq!(cache.len(), before, "failed sweep must not drain the cache");
        // Retry converges to the clean result.
        let rep = idx
            .try_sequential_lookup_sharded(&mut cache, 4)
            .expect("clean retry")
            .value;
        assert_eq!(rep.duplicates.len(), 400);
    }

    #[test]
    fn siu_part_fault_on_write_op_names_part_and_redo_converges() {
        use debar_simio::{FaultKind, FaultPlan};
        let updates: Vec<_> = (0..500u64)
            .map(|i| (fp(i), ContainerId::new(i % 40)))
            .collect();
        let mut clean = index(51);
        siu(&mut clean, &updates, 4);

        // Outright failure on part 1's write op: all-or-nothing.
        let mut faulted = index(51);
        siu(&mut faulted, &[], 4); // materialize part disks
        faulted.set_part_fault_plan(1, FaultPlan::fail_at(faulted.part_disk_ops(1) + 1));
        let err = faulted
            .try_sequential_update_sharded(&updates, 4)
            .expect_err("part write fault fires");
        assert!(
            matches!(err, IndexError::SweepFault { part: 1, .. }),
            "{err:?}"
        );
        assert_eq!(faulted.entry_count(), 0, "failed write applies nothing");
        faulted
            .try_sequential_update_sharded(&updates, 4)
            .expect("redo");
        assert_eq!(faulted.raw_data(), clean.raw_data());

        // Torn write on part 3: canonical half-prefix durable, then redo.
        let mut torn = index(51);
        siu(&mut torn, &[], 4);
        torn.set_part_fault_plan(3, FaultPlan::torn_write_at(torn.part_disk_ops(3) + 1));
        let err = torn
            .try_sequential_update_sharded(&updates, 4)
            .expect_err("torn part write fires");
        let IndexError::PartialSweep {
            applied,
            total,
            fault,
            part,
        } = err
        else {
            panic!("expected PartialSweep, got {err:?}");
        };
        assert_eq!(part, 3, "tear must name its part-disk");
        assert_eq!((applied, total), (250, 500));
        assert_eq!(fault.kind, FaultKind::TornWrite);
        assert_eq!(torn.entry_count(), 250);
        torn.try_sequential_update_sharded(&updates, 4)
            .expect("redo");
        assert_eq!(torn.raw_data(), clean.raw_data());
    }

    #[test]
    fn two_parts_armed_in_one_window_report_one_at_a_time() {
        use debar_simio::FaultPlan;
        // Faults armed on two part-disks in the same sweep window: the
        // error is attributed to the peeked disk (lowest part first) and
        // the sibling's fault stays pending, surfacing at the next checked
        // boundary — decision and report always refer to the same disk.
        let mut idx = index(54);
        let updates: Vec<_> = (0..300u64).map(|i| (fp(i), ContainerId::new(i))).collect();
        siu(&mut idx, &updates, 4);
        idx.set_part_fault_plan(0, FaultPlan::fail_at(idx.part_disk_ops(0)));
        idx.set_part_fault_plan(3, FaultPlan::fail_at(idx.part_disk_ops(3)));
        let mut cache = cache_of(0..300);
        let err = idx
            .try_sequential_lookup_sharded(&mut cache, 4)
            .expect_err("lowest armed part reported first");
        assert!(
            matches!(err, IndexError::SweepFault { part: 0, .. }),
            "{err:?}"
        );
        let ops = idx.part_disk_ops(3);
        let err = idx
            .try_sequential_lookup_sharded(&mut cache, 4)
            .expect_err("sibling surfaces at the next boundary");
        assert!(
            matches!(err, IndexError::SweepFault { part: 3, .. }),
            "{err:?}"
        );
        assert_eq!(
            idx.part_disk_ops(3),
            ops,
            "boundary collection charges no op"
        );
        let rep = idx
            .try_sequential_lookup_sharded(&mut cache, 4)
            .expect("clean after both collected")
            .value;
        assert_eq!(rep.duplicates.len(), 300);
    }

    /// SIU + SIL + one random lookup + capacity scaling + a GC sweep.
    fn mixed_sequence(parts: usize) -> DiskIndex {
        let mut idx = index(60);
        let updates: Vec<_> = (0..400u64).map(|i| (fp(i), ContainerId::new(i))).collect();
        siu(&mut idx, &updates, parts);
        let mut cache = cache_of(200..600);
        sil(&mut idx, &mut cache, parts);
        idx.lookup_random(&fp(1));
        idx.scale_up();
        let dead: std::collections::HashSet<Fingerprint> =
            (0..400u64).filter(|i| i % 3 == 0).map(fp).collect();
        idx.try_gc_sweep(&dead, parts).expect("clean sweep");
        idx
    }

    #[test]
    fn part_zero_is_the_volume() {
        // One sweep partition: the bank *is* the single index volume, and
        // its op counter reads what the separate volume-level disk read
        // before the twin was dropped (2 SIU + 1 SIL + 1 random + 2 scale
        // + 2 GC), so `ops + k` arm offsets carry over.
        let one = mixed_sequence(1);
        assert!(one.part_disk_stats(1).is_none(), "a one-part bank");
        assert_eq!(Some(one.disk_stats()), one.part_disk_stats(0));
        assert_eq!(one.part_disk_ops(0), 8);
        // Four partitions: un-striped ops still land on part 0 only, and
        // the merged statistics keep the whole-volume byte totals.
        let four = mixed_sequence(4);
        assert_eq!(four.part_disk_ops(0), 8);
        assert_eq!(four.part_disk_ops(3), 5, "sweeps only");
        for stats in [one.disk_stats(), four.disk_stats()] {
            assert_eq!(stats.seq_read_bytes, 655_360);
            assert_eq!(stats.seq_write_bytes, 655_360);
            assert_eq!((stats.rand_reads, stats.rand_read_bytes), (1, 512));
        }
    }

    #[test]
    fn shrinking_stripe_drops_high_part_plans() {
        use debar_simio::FaultPlan;
        // A plan armed on part 3 of a 4-way stripe cannot fire once sweeps
        // narrow to 2 partitions: the part-disk (and its plan) is gone —
        // the documented re-split rule.
        let mut idx = index(52);
        let updates: Vec<_> = (0..200u64).map(|i| (fp(i), ContainerId::new(i))).collect();
        siu(&mut idx, &updates, 4);
        idx.set_part_fault_plan(3, FaultPlan::fail_at(idx.part_disk_ops(3)));
        let mut cache = cache_of(0..200);
        let rep = idx
            .try_sequential_lookup_sharded(&mut cache, 2)
            .expect("2-way sweep never touches part 3")
            .value;
        assert_eq!(rep.parts, 2);
        assert!(idx.part_disk_stats(2).is_none(), "parts 2 and 3 are gone");
    }

    #[test]
    fn skewed_layout_straggles_at_slowest_part_with_identical_results() {
        use debar_simio::models::paper;
        let updates: Vec<_> = (0..1200u64).map(|i| (fp(i), ContainerId::new(i))).collect();
        let mut even = index(53);
        let mut skew = index(53);
        siu(&mut even, &updates, 1);
        siu(&mut skew, &updates, 1);

        let buckets = skew.params().buckets(); // 256
                                               // 4 parts, the first covering half the bucket range: the sweep
                                               // must complete at that straggler, not at total/4.
        let half = buckets / 2;
        let rest = buckets - half;
        skew.set_sweep_layout(Some(vec![
            half,
            half + rest / 3,
            half + 2 * rest / 3,
            buckets,
        ]));

        let mut ce = cache_of(0..800);
        let mut cs = cache_of(0..800);
        let p0_before = skew.part_disk_stats(0).map_or(0, |s| s.seq_read_bytes);
        let even_rep = sil(&mut even, &mut ce, 4).value;
        let skew_rep = sil(&mut skew, &mut cs, 4).value;
        assert_eq!(skew_rep.parts, 4);
        assert_eq!(
            dup_set(&even_rep),
            dup_set(&skew_rep),
            "results are layout-independent"
        );
        let model = paper::index_disk();
        let slowest = model.seq_read_cost(half * skew.params().bucket_bytes as u64);
        assert_eq!(
            skew_rep.sweep_secs, slowest,
            "skewed sweep completes at the slowest part"
        );
        assert_eq!(
            even_rep.sweep_secs,
            model.seq_read_cost(skew.params().total_bytes()) / 4.0,
            "even sweep keeps the 1/P law"
        );
        assert!(skew_rep.sweep_secs > even_rep.sweep_secs);
        // The straggler part-disk moved half the index bytes this sweep.
        let p0 = skew.part_disk_stats(0).expect("part 0 engaged");
        assert_eq!(
            p0.seq_read_bytes - p0_before,
            half * skew.params().bucket_bytes as u64
        );
        // SIU under the same layout also stays byte-identical.
        let more: Vec<_> = (1200..1800u64)
            .map(|i| (fp(i), ContainerId::new(i)))
            .collect();
        siu(&mut even, &more, 4);
        siu(&mut skew, &more, 4);
        assert_eq!(even.raw_data(), skew.raw_data());
    }

    #[test]
    fn sil_separates_new_from_duplicate() {
        let mut idx = index(1);
        // Register fingerprints 0..500 via SIU.
        let updates: Vec<_> = (0..500u64).map(|i| (fp(i), ContainerId::new(i))).collect();
        siu(&mut idx, &updates, 1);

        // Batch 250..750: half duplicates, half new.
        let mut cache = cache_of(250..750);
        let rep = sil(&mut idx, &mut cache, 1).value;
        assert_eq!(rep.submitted, 500);
        assert_eq!(rep.duplicates.len(), 250);
        assert_eq!(cache.len(), 250);
        // Duplicates carry their on-disk container IDs.
        for d in &rep.duplicates {
            let i = (0..500u64).find(|&i| fp(i) == d.fp).expect("known fp");
            assert_eq!(d.cid, ContainerId::new(i));
        }
        // Remaining cache nodes are exactly 500..750.
        for n in cache.iter() {
            let i = (500..750u64).find(|&i| fp(i) == n.fp);
            assert!(i.is_some(), "unexpected survivor {:?}", n.fp);
        }
    }

    #[test]
    fn sil_cost_is_sweep_plus_probes_independent_of_batch() {
        let mut idx = index(2);
        let updates: Vec<_> = (0..1000u64).map(|i| (fp(i), ContainerId::new(0))).collect();
        siu(&mut idx, &updates, 1);

        let mut small = cache_of(5000..5010);
        let mut large = cache_of(10_000..10_100);
        let t_small = sil(&mut idx, &mut small, 1);
        let t_large = sil(&mut idx, &mut large, 1);
        // Sweep time dominates (CPU probing is pipelined behind the sweep)
        // and is the same for both batches on the same index size.
        let rel = (t_small.cost - t_large.cost).abs() / t_small.cost;
        assert!(
            rel < 0.01,
            "SIL cost should not depend on batch size: {rel}"
        );
        assert!(t_small.value.sweep_secs >= t_small.value.probe_secs);
    }

    #[test]
    fn sil_efficiency_beats_random_lookup_by_orders_of_magnitude() {
        // The paper's headline: SIL resolves fingerprints 2-3 orders of
        // magnitude faster than random lookups (Fig. 11).
        let mut idx = index(3);
        let updates: Vec<_> = (0..2000u64).map(|i| (fp(i), ContainerId::new(0))).collect();
        siu(&mut idx, &updates, 1);

        let mut cache = cache_of(0..4000);
        let batch = cache.len() as f64;
        let t = sil(&mut idx, &mut cache, 1);
        let sil_fps_per_s = batch / t.cost;

        let rand_cost = idx.lookup_random(&fp(1)).cost;
        let rand_fps_per_s = 1.0 / rand_cost;
        assert!(
            sil_fps_per_s > 50.0 * rand_fps_per_s,
            "SIL {sil_fps_per_s:.0} fps vs random {rand_fps_per_s:.0} fps"
        );
    }

    #[test]
    fn sharded_sil_charges_fraction_of_scalar_sweep() {
        let mut idx = index(11);
        let updates: Vec<_> = (0..2000u64).map(|i| (fp(i), ContainerId::new(i))).collect();
        siu(&mut idx, &updates, 1);

        let mut a = cache_of(0..1000);
        let scalar = sil(&mut idx, &mut a, 1);
        let mut b = cache_of(0..1000);
        let sharded = sil(&mut idx, &mut b, 4);
        assert_eq!(sharded.value.parts, 4);
        // Four partitions on four part-disks: ~1/4 the sweep wall time.
        let ratio = scalar.value.sweep_secs / sharded.value.sweep_secs;
        assert!((ratio - 4.0).abs() < 1e-9, "sweep ratio {ratio}");
        assert!(sharded.cost < scalar.cost);
    }

    #[test]
    fn siu_inserts_and_updates() {
        let mut idx = index(4);
        let first: Vec<_> = (0..100u64).map(|i| (fp(i), ContainerId::new(1))).collect();
        let rep = siu(&mut idx, &first, 1).value;
        assert_eq!(rep.inserted, 100);
        assert_eq!(rep.updated, 0);

        // Overlapping second batch: 50 updates + 50 inserts.
        let second: Vec<_> = (50..150u64).map(|i| (fp(i), ContainerId::new(2))).collect();
        let rep2 = siu(&mut idx, &second, 1).value;
        assert_eq!(rep2.inserted, 50);
        assert_eq!(rep2.updated, 50);
        assert_eq!(idx.lookup_uncharged(&fp(75)), Some(ContainerId::new(2)));
        assert_eq!(idx.lookup_uncharged(&fp(10)), Some(ContainerId::new(1)));
        assert_eq!(idx.entry_count(), 150);
    }

    #[test]
    fn siu_repeated_fingerprint_last_mapping_wins() {
        let mut idx = index(12);
        let updates = vec![
            (fp(1), ContainerId::new(10)),
            (fp(2), ContainerId::new(20)),
            (fp(1), ContainerId::new(11)),
        ];
        let rep = siu(&mut idx, &updates, 1).value;
        assert_eq!(rep.inserted, 2);
        assert_eq!(rep.updated, 1);
        assert_eq!(idx.lookup_uncharged(&fp(1)), Some(ContainerId::new(11)));
    }

    #[test]
    fn siu_cost_has_read_and_write_sweeps() {
        let mut idx = index(5);
        let updates: Vec<_> = (0..10u64).map(|i| (fp(i), ContainerId::new(0))).collect();
        let t = siu(&mut idx, &updates, 1);
        let total = idx.params().total_bytes();
        let m = idx.disk_stats();
        assert!(m.seq_read_bytes >= total);
        assert!(m.seq_write_bytes >= total);
        assert!(t.cost > 0.0);
    }

    #[test]
    fn siu_triggers_scaling_when_full() {
        // Tiny index: 2 buckets of 512 B => capacity 40. Insert far more.
        let mut idx = DiskIndex::with_paper_disk(IndexParams::new(1, 512), 6);
        let updates: Vec<_> = (0..200u64).map(|i| (fp(i), ContainerId::new(0))).collect();
        let rep = siu(&mut idx, &updates, 1).value;
        assert_eq!(rep.inserted, 200);
        assert!(
            rep.scale_events >= 2,
            "expected multiple scalings, got {}",
            rep.scale_events
        );
        assert!(idx.params().n_bits > 1);
        for i in 0..200u64 {
            assert!(
                idx.lookup_uncharged(&fp(i)).is_some(),
                "lost fp {i} across scaling"
            );
        }
    }

    #[test]
    fn sil_after_siu_roundtrip_consistency() {
        // Everything SIU registered must be reported duplicate by SIL.
        let mut idx = index(7);
        let updates: Vec<_> = (0..300u64)
            .map(|i| (fp(i), ContainerId::new(i % 7)))
            .collect();
        siu(&mut idx, &updates, 1);
        let mut cache = cache_of(0..300);
        let rep = sil(&mut idx, &mut cache, 1).value;
        assert_eq!(rep.duplicates.len(), 300);
        assert!(cache.is_empty());
    }

    #[test]
    fn parts_beyond_bucket_count_clamp_to_buckets() {
        // Documented rule: a sweep runs on min(parts, buckets) partitions.
        // A 2-bucket index asked for 64 partitions sweeps on 2.
        let mut idx = DiskIndex::with_paper_disk(IndexParams::new(1, 512), 31);
        let updates: Vec<_> = (0..30u64).map(|i| (fp(i), ContainerId::new(i))).collect();
        let rep = siu(&mut idx, &updates, 64).value;
        assert_eq!(rep.parts, 2, "parts must clamp to the bucket count");
        let mut cache = cache_of(0..30);
        let looked_up = sil(&mut idx, &mut cache, 64).value;
        assert_eq!(looked_up.parts, 2);
        assert_eq!(looked_up.duplicates.len(), 30);
    }

    #[test]
    fn non_dividing_parts_match_scalar_bytes() {
        // 256 buckets split 3/5/7 ways (none divides 256): partition bounds
        // differ by at most one bucket and results stay byte-identical.
        for parts in [3usize, 5, 7] {
            let batch = random_batch(0x11D, 900, 3000);
            let mut scalar = index(77);
            let mut shard = index(77);
            siu(&mut scalar, &batch, 1);
            siu(&mut shard, &batch, parts);
            assert!(
                scalar.raw_data() == shard.raw_data(),
                "parts={parts} diverged from scalar"
            );
        }
    }

    #[test]
    fn clamp_rule_survives_mid_batch_capacity_scaling() {
        // A 2-bucket index asked for 8 partitions: the first sweep clamps
        // to 2, capacity scaling mid-batch grows the bucket count, and the
        // *next* sweep picks up the larger clamp — placements stay
        // byte-identical to scalar throughout.
        let batch_a = random_batch(0xC1A, 150, 50_000);
        let batch_b = random_batch(0xC1B, 150, 90_000);
        let mut scalar = DiskIndex::with_paper_disk(IndexParams::new(1, 512), 13);
        let mut shard = DiskIndex::with_paper_disk(IndexParams::new(1, 512), 13);
        let a1 = siu(&mut scalar, &batch_a, 1).value;
        let b1 = siu(&mut shard, &batch_a, 8).value;
        assert!(a1.scale_events >= 1, "test must scale mid-batch");
        assert_eq!(b1.parts, 2, "pre-scaling clamp is the old bucket count");
        let b2 = siu(&mut shard, &batch_b, 8).value;
        siu(&mut scalar, &batch_b, 1);
        assert!(
            b2.parts > 2,
            "post-scaling sweep must use the grown bucket count, got {}",
            b2.parts
        );
        assert!(scalar.raw_data() == shard.raw_data());
    }

    // ------------------------------------------------------------------
    // Equivalence: merge-join and sharded paths vs the scalar reference.
    // ------------------------------------------------------------------

    /// A seeded random batch: `count` fingerprints drawn from `0..space`.
    fn random_batch(seed: u64, count: usize, space: u64) -> Vec<(Fingerprint, ContainerId)> {
        let mut rng = SplitMix64::new(seed);
        (0..count)
            .map(|_| {
                (
                    fp(rng.next_u64() % space),
                    ContainerId::new(rng.next_u64() % 1000),
                )
            })
            .collect()
    }

    fn dup_set(rep: &SilReport) -> Vec<(Fingerprint, ContainerId)> {
        let mut v: Vec<_> = rep.duplicates.iter().map(|n| (n.fp, n.cid)).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn merge_join_sil_matches_hashed_probing() {
        let mut idx = index(21);
        siu(&mut idx, &random_batch(1, 3000, 5000), 1);
        let mut a = cache_of(0..2000);
        let mut b = cache_of(0..2000);
        let hashed = idx.sequential_lookup_hashed(&mut a).value;
        let merged = sil(&mut idx, &mut b, 1).value;
        assert_eq!(dup_set(&hashed), dup_set(&merged));
        assert_eq!(a.len(), b.len());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        #[test]
        fn prop_sil_partition_is_exact(seed: u64, reg in 1u64..200, probe in 1u64..200) {
            // Register [0, reg); probe [0, probe). Duplicates must be exactly
            // the intersection, new exactly the difference.
            let mut idx = index(seed);
            let updates: Vec<_> = (0..reg).map(|i| (fp(i), ContainerId::new(0))).collect();
            siu(&mut idx, &updates, 1);
            let mut cache = cache_of(0..probe);
            let rep = sil(&mut idx, &mut cache, 1).value;
            let expect_dup = probe.min(reg);
            proptest::prop_assert_eq!(rep.duplicates.len() as u64, expect_dup);
            proptest::prop_assert_eq!(cache.len() as u64, probe - expect_dup);
        }

        #[test]
        fn prop_sil_paths_equivalent(seed: u64, reg in 1usize..2000, probe in 1usize..1500, parts in 1usize..9) {
            // Scalar hashed, merge-join and sharded SIL: identical duplicate
            // sets and survivors on a randomized registered set.
            let mut idx = index(seed ^ 0x51);
            siu(&mut idx, &random_batch(seed, reg, 4000), 1);
            let before = idx.raw_data().to_vec();

            let mut c_hashed = cache_of(0..probe as u64);
            let mut c_merge = cache_of(0..probe as u64);
            let mut c_shard = cache_of(0..probe as u64);
            let hashed = idx.sequential_lookup_hashed(&mut c_hashed).value;
            let merged = sil(&mut idx, &mut c_merge, 1).value;
            let sharded = sil(&mut idx, &mut c_shard, parts).value;

            proptest::prop_assert_eq!(dup_set(&hashed), dup_set(&merged));
            proptest::prop_assert_eq!(dup_set(&merged), dup_set(&sharded));
            proptest::prop_assert_eq!(c_hashed.len(), c_merge.len());
            proptest::prop_assert_eq!(c_merge.len(), c_shard.len());
            // SIL is read-only: the index bytes must be untouched.
            proptest::prop_assert!(idx.raw_data() == &before[..]);
        }

        #[test]
        fn prop_siu_paths_byte_identical(seed: u64, count in 1usize..1500, parts in 1usize..9) {
            // Scalar, merge-join and sharded SIU must leave byte-identical
            // index state (same placements, same overflow, same scaling) and
            // identical reports on the same randomized batch — including
            // repeated fingerprints within the batch.
            let batch = random_batch(seed, count, 2000);
            let mut scalar = index(seed ^ 0xA);
            let mut merge = index(seed ^ 0xA);
            let mut shard = index(seed ^ 0xA);

            let r_scalar = scalar.sequential_update_scalar(&batch).value;
            let r_merge = siu(&mut merge, &batch, 1).value;
            let r_shard = siu(&mut shard, &batch, parts).value;

            proptest::prop_assert!(scalar.raw_data() == merge.raw_data());
            proptest::prop_assert!(merge.raw_data() == shard.raw_data());
            proptest::prop_assert_eq!(scalar.entry_count(), merge.entry_count());
            proptest::prop_assert_eq!(merge.entry_count(), shard.entry_count());
            proptest::prop_assert_eq!(r_scalar.inserted, r_merge.inserted);
            proptest::prop_assert_eq!(r_scalar.updated, r_merge.updated);
            proptest::prop_assert_eq!(r_scalar.overflowed, r_merge.overflowed);
            proptest::prop_assert_eq!(r_merge.inserted, r_shard.inserted);
            proptest::prop_assert_eq!(r_merge.updated, r_shard.updated);
            proptest::prop_assert_eq!(r_merge.overflowed, r_shard.overflowed);
            proptest::prop_assert_eq!(r_scalar.scale_events, r_shard.scale_events);
        }

        #[test]
        fn prop_siu_grouped_kernel_handles_repeat_heavy_batches(
            seed: u64,
            count in 1usize..600,
            parts in 1usize..9,
        ) {
            // The grouped kernel classifies existence against the
            // *pre-batch* state and recovers apply-time existence with a
            // repeat scan. Stress exactly that edge: a tiny fingerprint
            // space (most batch entries repeat within the batch AND collide
            // with pre-registered entries) must still leave the hashed
            // per-entry reference, the grouped scalar path and every
            // sharding byte-identical, with identical update/insert splits.
            let mut scalar = index(seed ^ 0x1F);
            let mut merge = index(seed ^ 0x1F);
            let mut shard = index(seed ^ 0x1F);
            let pre = random_batch(seed ^ 0x77, 120, 150);
            scalar.sequential_update_scalar(&pre);
            siu(&mut merge, &pre, 1);
            siu(&mut shard, &pre, parts);

            let batch = random_batch(seed, count, 150);
            let r_scalar = scalar.sequential_update_scalar(&batch).value;
            let r_merge = siu(&mut merge, &batch, 1).value;
            let r_shard = siu(&mut shard, &batch, parts).value;

            proptest::prop_assert!(scalar.raw_data() == merge.raw_data());
            proptest::prop_assert!(merge.raw_data() == shard.raw_data());
            proptest::prop_assert_eq!(r_scalar.inserted, r_merge.inserted);
            proptest::prop_assert_eq!(r_scalar.updated, r_merge.updated);
            proptest::prop_assert_eq!(r_merge.inserted, r_shard.inserted);
            proptest::prop_assert_eq!(r_merge.updated, r_shard.updated);
            // Last mapping wins for repeated fingerprints; spot-check via
            // the hashed reference lookup on every batch fingerprint.
            for (fp, _) in &batch {
                proptest::prop_assert_eq!(
                    merge.lookup_uncharged(fp),
                    scalar.lookup_uncharged(fp)
                );
            }
        }

        #[test]
        fn prop_sharded_paths_hold_on_split_parts(seed: u64, parts in 2usize..9) {
            // On a split index *part* the bucket number starts at
            // skip_bits > 0; shard partitioning and canonical ordering must
            // stay bucket-monotone there too (regression: sorting by raw
            // 64-bit prefix is NOT bucket order once skip_bits > 0).
            let whole = {
                let mut idx = DiskIndex::with_paper_disk(IndexParams::new(8, 512), seed ^ 0x99);
                siu(&mut idx, &random_batch(seed, 1500, 6000), 1);
                idx
            };
            let part0 = whole.split(2).value.remove(0);
            proptest::prop_assert_eq!(part0.skip_bits(), 2);

            // Fingerprints routed to part 0 (leading 2 bits == 0).
            let routed: Vec<(Fingerprint, ContainerId)> = random_batch(seed ^ 0x7, 4000, 12_000)
                .into_iter()
                .filter(|(fp, _)| fp.server_number(2) == 0)
                .collect();

            // SIL: hashed vs sharded on the part.
            let mut a = part0.clone();
            let mut b = part0.clone();
            let mut cache_a = IndexCache::new(4, routed.len().max(1));
            let mut cache_b = IndexCache::new(4, routed.len().max(1));
            for (fp, _) in &routed {
                cache_a.insert(*fp, 0);
                cache_b.insert(*fp, 0);
            }
            let hashed = a.sequential_lookup_hashed(&mut cache_a).value;
            let sharded = sil(&mut b, &mut cache_b, parts).value;
            proptest::prop_assert_eq!(dup_set(&hashed), dup_set(&sharded));

            // SIU: scalar vs sharded byte-identity on the part.
            let mut c = part0.clone();
            let mut d = part0;
            siu(&mut c, &routed, 1);
            siu(&mut d, &routed, parts);
            proptest::prop_assert!(c.raw_data() == d.raw_data());
        }

        #[test]
        fn prop_physical_sweep_time_is_max_of_part_bytes(
            seed: u64,
            n_bits in 1u32..9,
            reg in 1usize..600,
            probe in 1u64..500,
            parts in 1usize..11,
        ) {
            // The physical-stripe law: for a random geometry and any
            // partition count, sweep time equals the max over the
            // per-part charged bytes — exactly, because the charge is
            // computed per part-disk from its own bucket-range share.
            use debar_simio::models::paper;
            let mut idx = DiskIndex::with_paper_disk(IndexParams::new(n_bits, 512), seed);
            siu(&mut idx, &random_batch(seed, reg, 3000), 1);
            let buckets = idx.params().buckets();
            let p = clamp_parts(parts, buckets) as u64;
            let read_before: Vec<u64> = (0..p as usize)
                .map(|i| idx.part_disk_stats(i).map_or(0, |s| s.seq_read_bytes))
                .collect();
            let mut cache = cache_of(0..probe);
            let rep = sil(&mut idx, &mut cache, parts).value;

            proptest::prop_assert_eq!(rep.parts as u64, p);
            let model = paper::index_disk();
            let expected = (0..p)
                .map(|i| {
                    let start = buckets * i / p;
                    let end = buckets * (i + 1) / p;
                    model.seq_read_cost((end - start) * idx.params().bucket_bytes as u64)
                })
                .fold(0.0, f64::max);
            proptest::prop_assert_eq!(rep.sweep_secs, expected);
            // This sweep's per-part byte shares sum to the whole volume.
            let charged: u64 = (0..p as usize)
                .filter_map(|i| idx.part_disk_stats(i))
                .map(|s| s.seq_read_bytes)
                .sum::<u64>()
                - read_before.iter().sum::<u64>();
            proptest::prop_assert_eq!(charged, idx.params().total_bytes());
        }

        #[test]
        fn prop_even_geometry_physical_matches_virtual_oracle(
            seed: u64,
            count in 1usize..800,
            probe in 1u64..600,
            pow in 0u32..4,
        ) {
            // Even power-of-two geometry: the physical per-part model must
            // reproduce the closed-form even-split cost
            // bit-for-bit — same sweep virtual time (total/bw/P), same
            // index bytes as the scalar reference.
            use debar_simio::models::paper;
            let parts = 1usize << pow; // {1, 2, 4, 8} divides 256 buckets
            let batch = random_batch(seed, count, 2500);
            let mut scalar = index(seed ^ 0xE0);
            let mut physical = index(seed ^ 0xE0);
            scalar.sequential_update_scalar(&batch);
            let updated = siu(&mut physical, &batch, parts).value;
            proptest::prop_assert_eq!(updated.parts as usize, parts);
            proptest::prop_assert!(scalar.raw_data() == physical.raw_data());

            let mut cache = cache_of(0..probe);
            let rep = sil(&mut physical, &mut cache, parts).value;
            let model = paper::index_disk();
            let oracle = model.seq_read_cost(physical.params().total_bytes()) / parts as f64;
            proptest::prop_assert_eq!(rep.sweep_secs, oracle);
        }

        #[test]
        fn prop_siu_sharded_scaling_byte_identical(seed: u64, parts in 1usize..9) {
            // Force mid-batch capacity scaling on a tiny index and verify
            // the sharded path still reproduces the scalar bytes exactly.
            let batch = random_batch(seed, 300, 100_000);
            let mut scalar = DiskIndex::with_paper_disk(IndexParams::new(1, 512), 9);
            let mut shard = DiskIndex::with_paper_disk(IndexParams::new(1, 512), 9);
            let a = siu(&mut scalar, &batch, 1).value;
            let b = siu(&mut shard, &batch, parts).value;
            proptest::prop_assert!(a.scale_events >= 1, "test must exercise scaling");
            proptest::prop_assert_eq!(a.scale_events, b.scale_events);
            proptest::prop_assert!(scalar.raw_data() == shard.raw_data());
        }
    }
}
