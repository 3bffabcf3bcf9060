//! Version drift: one previous version and the elementary ways the next
//! version of a job departs from it, each in isolation.
//!
//! The generators of this crate mix every kind of change at calibrated
//! rates; these streams take one kind at a time, so that a law about how
//! the preliminary filter follows a version through its previous one
//! ("a version that grows 10% is filtered like one that fits") can name the
//! change it is about. A version is a sequence of [`ChunkRecord`]s;
//! [`base_version`] draws the previous one and [`Drift::apply`] derives the
//! next from it. New content never collides with the base.
//!
//! The two synthetic streams the figures, suites and unit tests share live
//! here too: [`records`], the chunks of a counter range, and [`churn`], the
//! restore-fragmentation history.

use crate::record::ChunkRecord;
use debar_hash::SplitMix64;

/// First counter of the content a drift adds (the base counts from 0).
const NEW_BASE: u64 = 1 << 40;

/// The chunks of a counter range, one per counter: disjoint ranges share
/// nothing, overlapping ranges share exactly the overlap.
pub fn records(range: std::ops::Range<u64>) -> Vec<ChunkRecord> {
    range.map(ChunkRecord::of_counter).collect()
}

/// A previous version of `chunks` distinct chunks.
pub fn base_version(chunks: usize) -> Vec<ChunkRecord> {
    records(0..chunks as u64)
}

/// Generation `g` of a churn stream: `n` chunk slots in `k` slices, each
/// generation `g >= 1` rewriting slice `g % k` with fresh content, so slot
/// `i` holds what the latest generation `gp <= g` with `gp % k == i % k`
/// wrote (generation 0's content where none has). A late generation
/// references containers of up to `k` earlier ones, interleaved chunk by
/// chunk — the classic restore-fragmentation workload.
pub fn churn(g: u64, n: u64, k: u64) -> Vec<ChunkRecord> {
    (0..n)
        .map(|i| {
            let r = i % k;
            // Latest generation <= g that rewrote slice r.
            let gp = g.saturating_sub((g + k - r) % k);
            if gp >= 1 {
                ChunkRecord::of_counter(1_000_000 * gp + i)
            } else {
                ChunkRecord::of_counter(i)
            }
        })
        .collect()
}

/// `version` with a `share` of its positions, drawn at random, overwritten
/// by draws from a pool of 16 popular chunks — a version that holds the
/// same content at many far-apart positions (zero blocks, licence headers).
pub fn with_popular(version: &[ChunkRecord], share: f64, seed: u64) -> Vec<ChunkRecord> {
    let mut rng = SplitMix64::new(seed);
    let mut out = version.to_vec();
    for rec in &mut out {
        if rng.chance(share) {
            *rec = ChunkRecord::of_counter(NEW_BASE - 1 - rng.below(16));
        }
    }
    out
}

/// One kind of change between a version and the next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drift {
    /// Nothing changed.
    Identical,
    /// Every tenth run of 200 chunks is overwritten with new content:
    /// positions hold.
    ReplacedInPlace,
    /// 10 new chunks follow every 100: the version ends 10% longer and
    /// every position past the first insertion has moved.
    Grow,
    /// 10 chunks in every 110 are gone: the version ends 9% shorter.
    Shrink,
    /// One block of new chunks, a tenth of the version long, a third of
    /// the way in.
    InsertBlock,
    /// One block, a tenth of the version long, removed a third of the way
    /// in.
    DeleteBlock,
}

impl Drift {
    /// Every kind, in declaration order.
    pub const ALL: [Drift; 6] = [
        Drift::Identical,
        Drift::ReplacedInPlace,
        Drift::Grow,
        Drift::Shrink,
        Drift::InsertBlock,
        Drift::DeleteBlock,
    ];

    /// A short name for tables.
    pub fn name(self) -> &'static str {
        match self {
            Drift::Identical => "identical",
            Drift::ReplacedInPlace => "replaced-in-place",
            Drift::Grow => "grow",
            Drift::Shrink => "shrink",
            Drift::InsertBlock => "insert-block",
            Drift::DeleteBlock => "delete-block",
        }
    }

    /// The version that follows `prev` under this drift.
    pub fn apply(self, prev: &[ChunkRecord]) -> Vec<ChunkRecord> {
        let mut fresh = (NEW_BASE..).map(ChunkRecord::of_counter);
        let (block_at, block) = (prev.len() / 3, prev.len() / 10);
        let mut out = Vec::with_capacity(prev.len() + prev.len() / 10 + 10);
        match self {
            Drift::Identical => out.extend_from_slice(prev),
            Drift::ReplacedInPlace => {
                for (i, run) in prev.chunks(200).enumerate() {
                    if i % 10 == 5 {
                        out.extend(fresh.by_ref().take(run.len()));
                    } else {
                        out.extend_from_slice(run);
                    }
                }
            }
            Drift::Grow => {
                for run in prev.chunks(100) {
                    out.extend_from_slice(run);
                    out.extend(fresh.by_ref().take(10));
                }
            }
            Drift::Shrink => {
                for run in prev.chunks(110) {
                    out.extend_from_slice(&run[..run.len().min(100)]);
                }
            }
            Drift::InsertBlock => {
                out.extend_from_slice(&prev[..block_at]);
                out.extend(fresh.take(block));
                out.extend_from_slice(&prev[block_at..]);
            }
            Drift::DeleteBlock => {
                out.extend_from_slice(&prev[..block_at]);
                out.extend_from_slice(&prev[block_at + block..]);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn drifts_change_what_they_say() {
        let prev = base_version(2200);
        let old: HashSet<_> = prev.iter().map(|r| r.fp).collect();
        let shared = |v: &[ChunkRecord]| v.iter().filter(|r| old.contains(&r.fp)).count();
        for (drift, len, kept) in [
            (Drift::Identical, 2200, 2200),
            (Drift::ReplacedInPlace, 2200, 2000),
            (Drift::Grow, 2420, 2200),
            (Drift::Shrink, 2000, 2000),
            (Drift::InsertBlock, 2420, 2200),
            (Drift::DeleteBlock, 1980, 1980),
        ] {
            let next = drift.apply(&prev);
            assert_eq!((next.len(), shared(&next)), (len, kept), "{drift:?}");
        }
        // In-place replacement keeps every surviving chunk at its position.
        let next = Drift::ReplacedInPlace.apply(&prev);
        assert!(next
            .iter()
            .zip(&prev)
            .all(|(n, p)| n == p || !old.contains(&n.fp)));
    }

    #[test]
    fn popular_chunks_repeat_across_the_version() {
        let v = with_popular(&base_version(4000), 0.05, 7);
        let distinct: HashSet<_> = v.iter().map(|r| r.fp).collect();
        let repeated = v.len() - distinct.len();
        assert!((150..250).contains(&repeated), "{repeated} repeats");
        assert_eq!(v, with_popular(&base_version(4000), 0.05, 7));
    }
}
