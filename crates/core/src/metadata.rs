//! The director's Metadata Manager (paper §3.1, §6.3).
//!
//! Holds job objects, run records and file indices ("a file index, which
//! facilitates retrieving files from the system, is a sequence of
//! fingerprints that reference the file chunks"). The previous run's file
//! indices supply the *filtering fingerprints* the preliminary filter is
//! primed with (§5.1).
//!
//! # Memory
//!
//! A file index is a [`Recipe`], not a flat list of its fingerprints.
//! Consecutive runs of a job repeat each other in order — the premise of
//! the preliminary filter — so a recipe is a list of *pieces*, each a
//! range of a shared, immutable fingerprint *block*
//! (`Arc<[Fingerprint]>`):
//!
//! * **Literal fingerprints** — the filter's transfers, and every
//!   duplicate that does not continue the previous run — go into one new
//!   block per run.
//! * **Copied pieces.** Each stretch of the stream that repeats the
//!   previous run in order becomes a piece copied from the previous run's
//!   *pieces*: it names their blocks, never the previous run itself. So
//!   no piece refers through another, and retiring a run frees exactly
//!   the blocks no retained piece still covers.
//!
//! A piece weighs 24 bytes: the block's pointer, and a 32-bit start and
//! length (a block holds fewer than 2^32 entries; a run with more literal
//! fingerprints gets several blocks). A stretch copied from one piece of
//! the previous run is one piece, however long it is.
//!
//! The builder (`RecipeBuilder`) extends or opens a copy only after
//! checking that the previous run holds the incoming fingerprint at that
//! position, so a recipe is its stream by construction, whatever the
//! filter's position hint says.
//!
//! Retiring a run can leave a block mostly uncovered: a stretch that
//! survives many versions pins the whole block of the run that first
//! wrote it. [`MetadataManager::retire_run`] therefore **re-packs** every
//! block the retired run covered whose distinct covered span falls below
//! half its length: the covered spans move into a fresh block and every
//! piece over them is re-pointed. The fingerprint entries held thus stay
//! at most twice the distinct block entries that retained pieces cover,
//! however long the history grows. Blocks are never written in place, so
//! a cloned manager keeps its pieces on the old blocks, independent of the
//! original's re-packing.

use crate::ids::{ClientId, JobId, RunId, ServerId};
use crate::job::{JobObject, JobSpec};
use debar_hash::Fingerprint;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// An immutable run of fingerprints that recipes share (module docs,
/// "Memory").
type Block = Arc<[Fingerprint]>;

/// The most entries a block holds, so that a piece's start and length
/// fit its 32-bit fields.
const BLOCK_CAP: usize = u32::MAX as usize;

/// One range of a block.
#[derive(Debug, Clone)]
struct Piece {
    block: Block,
    start: u32,
    len: u32,
}

impl Piece {
    /// `start..start + len` of `block`. A block holds at most
    /// [`BLOCK_CAP`] entries, so a range of it fits.
    fn new(block: Block, start: usize, len: usize) -> Self {
        Piece {
            block,
            start: start as u32,
            len: len as u32,
        }
    }

    fn start(&self) -> usize {
        self.start as usize
    }

    fn len(&self) -> usize {
        self.len as usize
    }

    /// The block entries it covers, `None` if it does not lie inside its
    /// block.
    fn range(&self) -> Option<Range<usize>> {
        let end = self.start().checked_add(self.len())?;
        (end <= self.block.len()).then_some(self.start()..end)
    }

    /// Its fingerprints; none if it does not lie inside its block (fsck
    /// reports such a recipe).
    fn fingerprints(&self) -> &[Fingerprint] {
        (self.range())
            .and_then(|r| self.block.get(r))
            .unwrap_or_default()
    }

    /// The identity of its block.
    fn block_key(&self) -> usize {
        self.block.as_ptr() as usize
    }
}

/// One file's chunk fingerprints in file order, held as pieces of shared
/// blocks (module docs, "Memory").
#[derive(Debug, Clone, Default)]
pub struct Recipe {
    pieces: Box<[Piece]>,
}

impl Recipe {
    /// Number of fingerprints, as its pieces count them.
    pub fn len(&self) -> usize {
        self.pieces.iter().map(Piece::len).sum()
    }

    /// Whether it holds no fingerprint.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The fingerprints in file order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &Fingerprint> + '_ {
        self.pieces.iter().flat_map(Piece::fingerprints)
    }

    /// Whether every piece lies inside its block — then [`Recipe::iter`]
    /// yields [`Recipe::len`] fingerprints.
    pub(crate) fn is_sound(&self) -> bool {
        self.pieces.iter().all(|p| p.range().is_some())
    }

    /// Move the first piece to end one entry past its block.
    #[cfg(test)]
    pub(crate) fn overrun(&mut self) {
        if let Some(p) = self.pieces.first_mut() {
            p.start = (p.block.len() + 1 - p.len()) as u32;
        }
    }
}

#[cfg(test)]
impl FromIterator<Fingerprint> for Recipe {
    /// A recipe of one new block holding `fps`.
    fn from_iter<I: IntoIterator<Item = Fingerprint>>(fps: I) -> Self {
        let block: Block = fps.into_iter().collect();
        let len = block.len();
        Recipe {
            pieces: Box::new([Piece::new(block, 0, len)]),
        }
    }
}

/// Each block the pieces cover, with its covered ranges merged and
/// ascending, in block-address order. Pieces outside their block cover
/// nothing. Linear in the pieces and the blocks' lengths: each block's
/// cover is a bitmap.
fn covered_spans<'a>(
    pieces: impl Iterator<Item = &'a Piece>,
) -> Vec<(&'a Block, Vec<Range<usize>>)> {
    let covers: Vec<(&Piece, Range<usize>)> =
        pieces.filter_map(|p| Some((p, p.range()?))).collect();
    let mut blocks: Vec<&Block> = covers.iter().map(|(p, _)| &p.block).collect();
    blocks.sort_unstable_by_key(|b| b.as_ptr() as usize);
    blocks.dedup_by_key(|b| b.as_ptr() as usize);
    let mut bits: Vec<Vec<u64>> = (blocks.iter())
        .map(|b| vec![0; b.len().div_ceil(64)])
        .collect();
    for (p, r) in covers {
        if let Ok(i) = blocks.binary_search_by_key(&p.block_key(), |b| b.as_ptr() as usize) {
            set_bits(&mut bits[i], r);
        }
    }
    blocks
        .into_iter()
        .zip(bits.iter().map(|b| set_runs(b)))
        .collect()
}

/// `n` bits set from bit `at` on, for `1 <= n <= 64 - at`.
fn mask(n: usize, at: usize) -> u64 {
    (u64::MAX >> (64 - n)) << at
}

/// Set the bits `r` of a bitmap.
fn set_bits(bits: &mut [u64], r: Range<usize>) {
    let mut at = r.start;
    while at < r.end {
        let (word, bit) = (at / 64, at % 64);
        let n = (64 - bit).min(r.end - at);
        if let Some(w) = bits.get_mut(word) {
            *w |= mask(n, bit);
        }
        at += n;
    }
}

/// The runs of set bits of a bitmap, ascending.
fn set_runs(bits: &[u64]) -> Vec<Range<usize>> {
    let mut runs: Vec<Range<usize>> = Vec::new();
    for (i, &word) in bits.iter().enumerate() {
        let mut rest = word;
        while rest != 0 {
            let low = rest.trailing_zeros() as usize;
            let ones = (rest >> low).trailing_ones() as usize;
            let (start, end) = (64 * i + low, 64 * i + low + ones);
            match runs.last_mut() {
                Some(last) if last.end == start => last.end = end,
                _ => runs.push(start..end),
            }
            rest &= !mask(ones, low);
        }
    }
    runs
}

/// The stored index of one backed-up file.
#[derive(Debug, Clone)]
pub struct FileIndexEntry {
    /// File path within the dataset.
    pub path: String,
    /// Chunk fingerprints in file order.
    pub recipe: Recipe,
    /// File size in bytes.
    pub bytes: u64,
}

/// Metadata of one completed job run.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// The run.
    pub run: RunId,
    /// The backup server that executed it.
    pub server: ServerId,
    /// The client that supplied the data.
    pub client: ClientId,
    /// File indices.
    pub files: Vec<FileIndexEntry>,
    /// Logical bytes backed up.
    pub logical_bytes: u64,
    /// Logical chunks backed up.
    pub logical_chunks: u64,
    /// The summary vector's removal count when the run was recorded
    /// (`CuckooFilter::removals`): while it has not moved, the summary
    /// still advertises every fingerprint of the run.
    pub summary_removals: u64,
}

impl RunRecord {
    fn pieces(&self) -> impl Iterator<Item = &Piece> {
        self.files.iter().flat_map(|f| f.recipe.pieces.iter())
    }
}

/// Builds one run's recipes from its stream, file by file, copying the
/// previous run's pieces wherever the stream repeats it (module docs,
/// "Memory").
pub(crate) struct RecipeBuilder<'p> {
    /// The previous run's pieces in stream order, each with the run
    /// position it starts at.
    prev: Vec<(usize, &'p Piece)>,
    /// The previous run's position of each position of the filter's file,
    /// when the summary gate dropped entries from it (`None`: the same).
    kept: Option<Vec<usize>>,
    /// Where the previous run goes on after the last copied entry: a
    /// piece of `prev` and an offset in it.
    follow: Option<(usize, usize)>,
    /// The run's literal fingerprints, which `finish` makes its new
    /// block.
    literal: Vec<Fingerprint>,
    /// The finished files' drafts, then the open file's.
    files: Vec<Vec<Draft>>,
    open: Vec<Draft>,
}

/// A piece under construction: a range of the run's literal fingerprints,
/// whose blocks do not exist yet (one per [`BLOCK_CAP`] of them; a range
/// never crosses from one to the next), or a copy.
enum Draft {
    Literal { start: usize, len: usize },
    Copy(Piece),
}

impl<'p> RecipeBuilder<'p> {
    /// A builder for the run after `prev`. `kept[i]` is the position in
    /// `prev` of the filter file's entry `i`, when the file is not `prev`
    /// whole.
    pub(crate) fn new(prev: Option<&'p RunRecord>, kept: Option<Vec<usize>>) -> Self {
        let mut at = 0;
        let prev = (prev.into_iter().flat_map(RunRecord::pieces))
            .map(|p| {
                at += p.len();
                (at - p.len(), p)
            })
            .collect();
        RecipeBuilder {
            prev,
            kept,
            follow: None,
            literal: Vec::new(),
            files: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The previous run's fingerprint at a piece and offset.
    fn prev_fp(&self, (i, off): (usize, usize)) -> Option<&Fingerprint> {
        self.prev.get(i)?.1.fingerprints().get(off)
    }

    /// The piece and offset of a previous-run position.
    fn locate(&self, pos: usize) -> Option<(usize, usize)> {
        let i = (self.prev.partition_point(|&(start, _)| start <= pos)).checked_sub(1)?;
        Some((i, pos - self.prev[i].0))
    }

    /// Append the stream's next fingerprint to the open file. `primed` is
    /// the filter-file position of the primed entry its check hit
    /// (`PrelimFilter::last_primed_hit`): where the stream left the
    /// previous run, the hint where it rejoins it.
    pub(crate) fn push(&mut self, fp: Fingerprint, primed: Option<usize>) {
        let holds = |at: &(usize, usize)| self.prev_fp(*at) == Some(&fp);
        let copy = self.follow.filter(holds).or_else(|| {
            let pos = match &self.kept {
                Some(kept) => *kept.get(primed?)?,
                None => primed?,
            };
            self.locate(pos).filter(holds)
        });
        let Some((i, off)) = copy else {
            let at = self.literal.len();
            match self.open.last_mut() {
                Some(Draft::Literal { start, len })
                    if *start + *len == at && !at.is_multiple_of(BLOCK_CAP) =>
                {
                    *len += 1
                }
                _ => self.open.push(Draft::Literal { start: at, len: 1 }),
            }
            self.literal.push(fp);
            return;
        };
        let from = self.prev[i].1;
        let start = from.start() + off;
        match self.open.last_mut() {
            Some(Draft::Copy(last))
                if Arc::ptr_eq(&last.block, &from.block) && last.start() + last.len() == start =>
            {
                last.len += 1
            }
            _ => self
                .open
                .push(Draft::Copy(Piece::new(Arc::clone(&from.block), start, 1))),
        }
        self.follow = Some(if off + 1 < from.len() {
            (i, off + 1)
        } else {
            (i + 1, 0)
        });
    }

    /// Close the open file; the next push starts the next one.
    pub(crate) fn end_file(&mut self) {
        self.files.push(std::mem::take(&mut self.open));
    }

    /// Every closed file's recipe, in order.
    pub(crate) fn finish(self) -> Vec<Recipe> {
        let blocks: Vec<Block> = self.literal.chunks(BLOCK_CAP).map(Block::from).collect();
        (self.files.into_iter())
            .map(|drafts| Recipe {
                pieces: (drafts.into_iter())
                    .map(|d| match d {
                        Draft::Copy(p) => p,
                        Draft::Literal { start, len } => {
                            let block = Arc::clone(&blocks[start / BLOCK_CAP]);
                            Piece::new(block, start % BLOCK_CAP, len)
                        }
                    })
                    .collect(),
            })
            .collect()
    }
}

/// Job + run metadata store.
#[derive(Debug, Clone, Default)]
pub struct MetadataManager {
    jobs: Vec<JobObject>,
    runs: HashMap<RunId, RunRecord>,
}

impl MetadataManager {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a job, assigning its ID.
    pub fn register_job(&mut self, spec: JobSpec) -> JobId {
        let id = JobId(self.jobs.len() as u32);
        self.jobs.push(JobObject {
            id,
            spec,
            chain: Vec::new(),
        });
        id
    }

    /// Look up a job, `None` on an unknown ID.
    pub fn job(&self, id: JobId) -> Option<&JobObject> {
        self.jobs.get(id.0 as usize)
    }

    /// All jobs.
    pub fn jobs(&self) -> &[JobObject] {
        &self.jobs
    }

    /// Record a completed run, appending it to the job chain.
    ///
    /// # Panics
    /// Panics if the run's version is not the next in the chain.
    pub fn record_run(&mut self, rec: RunRecord) {
        let job = &mut self.jobs[rec.run.job.0 as usize];
        assert_eq!(
            rec.run.version,
            job.chain.len() as u32,
            "run out of chain order"
        );
        job.chain.push(rec.run);
        self.runs.insert(rec.run, rec);
    }

    /// A run's record.
    pub fn run(&self, run: RunId) -> Option<&RunRecord> {
        self.runs.get(&run)
    }

    /// Retire a run: drop its record while keeping the job-chain slot (the
    /// version numbering of later runs must not shift), and re-pack the
    /// blocks it leaves sparsely covered ([`MetadataManager::retire_runs`]).
    /// Returns the retired record, `None` if the run was unknown or already
    /// retired.
    pub fn retire_run(&mut self, run: RunId) -> Option<RunRecord> {
        self.retire_runs([run]).pop()
    }

    /// Retire runs, as [`MetadataManager::retire_run`] does one, and then
    /// re-pack every block they covered that retained pieces now cover less
    /// than half of (module docs, "Memory"). Returns the retired records in
    /// the order given, skipping unknown and already retired runs.
    pub fn retire_runs(&mut self, runs: impl IntoIterator<Item = RunId>) -> Vec<RunRecord> {
        let retired: Vec<RunRecord> = (runs.into_iter())
            .filter_map(|run| self.runs.remove(&run))
            .collect();
        let mut touched: Vec<usize> = (retired.iter().flat_map(RunRecord::pieces))
            .map(Piece::block_key)
            .collect();
        touched.sort_unstable();
        touched.dedup();
        // A copy names blocks of its own job's previous run, so a block is
        // shared along one job chain only: walk those jobs' runs alone.
        let mut jobs: Vec<JobId> = retired.iter().map(|rec| rec.run.job).collect();
        jobs.sort_unstable();
        jobs.dedup();
        let chained = |rec: &&RunRecord| jobs.binary_search(&rec.run.job).is_ok();
        let retained = (self.runs.values().filter(chained))
            .flat_map(RunRecord::pieces)
            .filter(|p| touched.binary_search(&p.block_key()).is_ok());
        // Per re-packed block, in address order: the fresh block, and each
        // covered span's old start with its start in the fresh block.
        let mut moved = Vec::new();
        for (block, spans) in covered_spans(retained) {
            let covered: usize = spans.iter().map(Range::len).sum();
            if 2 * covered >= block.len() {
                continue;
            }
            let mut fresh = Vec::with_capacity(covered);
            let map: Vec<(usize, usize)> = (spans.into_iter())
                .map(|r| {
                    let at = fresh.len();
                    let start = r.start;
                    fresh.extend_from_slice(block.get(r).unwrap_or_default());
                    (start, at)
                })
                .collect();
            moved.push((block.as_ptr() as usize, Block::from(fresh), map));
        }
        if !moved.is_empty() {
            let pieces = (self.runs.values_mut())
                .filter(|rec| jobs.binary_search(&rec.run.job).is_ok())
                .flat_map(|rec| &mut rec.files)
                .flat_map(|f| f.recipe.pieces.iter_mut());
            for p in pieces {
                let Ok(m) = moved.binary_search_by_key(&p.block_key(), |(key, ..)| *key) else {
                    continue;
                };
                let (_, fresh, map) = &moved[m];
                // Each piece lies inside one merged span: the last that
                // starts at or before it.
                let i = map.partition_point(|&(start, _)| start <= p.start());
                if let Some(&(start, at)) = i.checked_sub(1).and_then(|i| map.get(i)) {
                    *p = Piece::new(Arc::clone(fresh), at + (p.start() - start), p.len());
                }
            }
        }
        retired
    }

    /// A run's record, to damage it.
    #[cfg(test)]
    pub(crate) fn run_mut(&mut self, run: RunId) -> Option<&mut RunRecord> {
        self.runs.get_mut(&run)
    }

    /// Run records currently retained, in no particular order.
    pub fn retained_runs(&self) -> impl Iterator<Item = &RunRecord> {
        self.runs.values()
    }

    /// Every block span the retained recipes cover, each once: the set of
    /// fingerprints the retained runs reference, with no run's shared
    /// pieces streamed twice.
    pub(crate) fn referenced_spans(&self) -> Vec<&[Fingerprint]> {
        let spans = covered_spans(self.runs.values().flat_map(RunRecord::pieces));
        (spans.into_iter())
            .flat_map(|(block, ranges)| {
                (ranges.into_iter()).map(move |r| block.get(r).unwrap_or_default())
            })
            .collect()
    }

    /// The most recent **retained** run record for a job: walks the chain
    /// backwards past retired versions, so retention-driven expiry of old
    /// runs never breaks the filtering-fingerprint chain of the next
    /// backup. `None` too for an unknown job.
    pub fn last_run(&self, job: JobId) -> Option<&RunRecord> {
        (self.jobs.get(job.0 as usize)?)
            .chain
            .iter()
            .rev()
            .find_map(|r| self.runs.get(r))
    }

    /// Filtering fingerprints for a job's next run: the fingerprints of its
    /// previous run, in logical (file) order (§5.1 job-chain semantics) —
    /// the order the preliminary filter streams them in.
    pub fn filtering_fingerprints(&self, job: JobId) -> Vec<Fingerprint> {
        let Some(rec) = self.last_run(job) else {
            return Vec::new();
        };
        // Sized up front: a piece's iterator only promises its own rest.
        let mut fps = Vec::with_capacity(rec.files.iter().map(|f| f.recipe.len()).sum());
        fps.extend(rec.files.iter().flat_map(|f| f.recipe.iter().copied()));
        fps
    }

    /// Remap run-record server assignments (used by cluster scale-out: old
    /// server `i` becomes server `2i`, so existing runs stay restorable).
    pub fn remap_servers(&mut self, f: impl Fn(ServerId) -> ServerId) {
        for rec in self.runs.values_mut() {
            rec.server = f(rec.server);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Schedule;
    use debar_filter::PrelimFilter;
    use debar_hash::SplitMix64;
    use std::collections::HashSet;

    fn spec(name: &str) -> JobSpec {
        JobSpec {
            name: name.into(),
            client: ClientId(0),
            schedule: Schedule::Manual,
        }
    }

    fn record(job: JobId, version: u32, fps: Vec<Fingerprint>) -> RunRecord {
        let bytes = fps.len() as u64 * 8192;
        RunRecord {
            run: RunId { job, version },
            server: 0,
            client: ClientId(0),
            logical_chunks: fps.len() as u64,
            files: vec![FileIndexEntry {
                path: "f".into(),
                recipe: fps.into_iter().collect(),
                bytes,
            }],
            logical_bytes: bytes,
            summary_removals: 0,
        }
    }

    fn fp(n: u64) -> Fingerprint {
        Fingerprint::of_counter(n)
    }

    #[test]
    fn register_and_chain() {
        let mut m = MetadataManager::new();
        let a = m.register_job(spec("a"));
        let b = m.register_job(spec("b"));
        assert_ne!(a, b);
        assert_eq!(m.jobs().len(), 2);
        m.record_run(record(a, 0, vec![fp(1)]));
        m.record_run(record(a, 1, vec![fp(2)]));
        assert_eq!(m.job(a).expect("registered").chain.len(), 2);
        assert_eq!(m.job(b).expect("registered").chain.len(), 0);
        assert_eq!(m.last_run(a).unwrap().run.version, 1);
    }

    #[test]
    fn an_unknown_job_is_none_not_a_panic() {
        let mut m = MetadataManager::new();
        let a = m.register_job(spec("a"));
        let ghost = JobId(a.0 + 1);
        assert!(m.job(ghost).is_none());
        assert!(m.last_run(ghost).is_none());
        assert!(m.filtering_fingerprints(ghost).is_empty());
        assert_eq!(m.job(a).map(|j| j.id), Some(a));
    }

    #[test]
    fn filtering_fingerprints_come_from_last_run() {
        let mut m = MetadataManager::new();
        let a = m.register_job(spec("a"));
        assert!(m.filtering_fingerprints(a).is_empty());
        m.record_run(record(a, 0, vec![fp(1), fp(2)]));
        assert_eq!(m.filtering_fingerprints(a), vec![fp(1), fp(2)]);
        m.record_run(record(a, 1, vec![fp(3)]));
        assert_eq!(m.filtering_fingerprints(a), vec![fp(3)]);
    }

    #[test]
    fn retire_keeps_chain_slots_and_last_run_walks_back() {
        let mut m = MetadataManager::new();
        let a = m.register_job(spec("a"));
        m.record_run(record(a, 0, vec![fp(1)]));
        m.record_run(record(a, 1, vec![fp(2)]));
        m.record_run(record(a, 2, vec![fp(3)]));
        // Retire the newest run: last_run must walk back to v1, and the
        // chain slot survives so v3 still records as version 3.
        let gone = m.retire_run(RunId { job: a, version: 2 }).unwrap();
        assert_eq!(gone.run.version, 2);
        assert_eq!(m.last_run(a).unwrap().run.version, 1);
        assert_eq!(m.filtering_fingerprints(a), vec![fp(2)]);
        assert!(m.run(RunId { job: a, version: 2 }).is_none());
        assert!(m.retire_run(RunId { job: a, version: 2 }).is_none());
        m.record_run(record(a, 3, vec![fp(4)]));
        assert_eq!(m.last_run(a).unwrap().run.version, 3);
        // Retire everything: no retained run, chain intact.
        for v in [0u32, 1, 3] {
            m.retire_run(RunId { job: a, version: v });
        }
        assert!(m.last_run(a).is_none());
        assert!(m.filtering_fingerprints(a).is_empty());
        assert_eq!(m.job(a).expect("registered").chain.len(), 4);
        assert_eq!(m.retained_runs().count(), 0);
    }

    /// Back `files` up as `job`'s next run as `run_backup` does: a
    /// preliminary filter of `capacity` entries, primed with the previous
    /// run, hints every push. With `drop > 1` a gate keeps the file's
    /// entries whose position is not a multiple of `drop`.
    fn back_up(
        m: &mut MetadataManager,
        job: JobId,
        files: &[Vec<Fingerprint>],
        capacity: usize,
        drop: usize,
    ) -> RunId {
        let run = RunId {
            job,
            version: m.job(job).expect("registered").chain.len() as u32,
        };
        let all = m.filtering_fingerprints(job);
        let kept: Option<Vec<usize>> =
            (drop > 1).then(|| (0..all.len()).filter(|i| i % drop != 0).collect());
        let file: Vec<Fingerprint> = match &kept {
            Some(kept) => kept.iter().map(|&i| all[i]).collect(),
            None => all,
        };
        let mut filter = PrelimFilter::new(capacity);
        filter.prime(file);
        let mut builder = RecipeBuilder::new(m.last_run(job), kept);
        for f in files {
            for &fp in f {
                filter.check(fp);
                builder.push(fp, filter.last_primed_hit());
            }
            builder.end_file();
        }
        let files: Vec<FileIndexEntry> = (builder.finish().into_iter().enumerate())
            .map(|(i, recipe)| FileIndexEntry {
                path: format!("f{i}"),
                recipe,
                bytes: 0,
            })
            .collect();
        let chunks = files.iter().map(|f| f.recipe.len() as u64).sum();
        m.record_run(RunRecord {
            run,
            server: 0,
            client: ClientId(0),
            files,
            logical_bytes: 0,
            logical_chunks: chunks,
            summary_removals: 0,
        });
        run
    }

    /// Fingerprint entries the retained runs' blocks hold, and the
    /// distinct block entries their pieces cover.
    fn held_and_covered(m: &MetadataManager) -> (usize, usize) {
        let spans = covered_spans(m.runs.values().flat_map(RunRecord::pieces));
        let held = spans.iter().map(|(block, _)| block.len()).sum();
        let covered = spans.iter().flat_map(|(_, r)| r).map(Range::len).sum();
        (held, covered)
    }

    /// Entries of `run`'s pieces on a block no piece of `prev` names.
    fn literal_entries(m: &MetadataManager, run: RunId, prev: RunId) -> usize {
        let prev: HashSet<usize> = m.runs[&prev].pieces().map(Piece::block_key).collect();
        (m.runs[&run].pieces())
            .filter(|p| !prev.contains(&p.block_key()))
            .map(Piece::len)
            .sum()
    }

    fn stream(rec: &RunRecord) -> Vec<Vec<Fingerprint>> {
        (rec.files.iter())
            .map(|f| f.recipe.iter().copied().collect())
            .collect()
    }

    /// The next version of a file set: files kept, edited (inserts,
    /// deletes, overwrites, a chunk repeated), removed and created.
    fn next_version(
        rng: &mut SplitMix64,
        files: &[Vec<Fingerprint>],
        fresh: &mut u64,
    ) -> Vec<Vec<Fingerprint>> {
        let mut new = |n: u64| -> Vec<Fingerprint> {
            (0..n)
                .map(|_| {
                    *fresh += 1;
                    fp(*fresh)
                })
                .collect()
        };
        let mut out = Vec::new();
        for f in files {
            let mut f = f.clone();
            match rng.below(10) {
                0 => continue,
                1..=4 => {}
                _ => {
                    for _ in 0..1 + rng.below(3) {
                        let at = rng.below(f.len() as u64 + 1) as usize;
                        let n = 1 + rng.below(40);
                        let end = (at + n as usize).min(f.len());
                        match rng.below(4) {
                            0 => drop(f.splice(at..at, new(n))),
                            1 => drop(f.drain(at..end)),
                            2 => drop(f.splice(at..end, new(n))),
                            _ => {
                                if let Some(&again) = f.get(at) {
                                    f.insert(rng.below(f.len() as u64 + 1) as usize, again);
                                }
                            }
                        }
                    }
                }
            }
            out.push(f);
        }
        if out.is_empty() || rng.below(4) == 0 {
            out.push(new(1 + rng.below(300)));
        }
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Over random version histories, with runs retired in random
        /// order: every retained recipe iterates to the stream that was
        /// backed up, counts its run's chunks, and the blocks hold at
        /// most twice the entries the retained pieces cover.
        #[test]
        fn prop_recipes_are_their_streams_and_hold_at_most_twice_what_they_cover(
            seed: u64,
            capacity in 8usize..600,
            drop in 0usize..5,
        ) {
            let mut rng = SplitMix64::new(seed);
            let mut m = MetadataManager::new();
            let job = m.register_job(spec("j"));
            let mut fresh = 0;
            let mut files = next_version(&mut rng, &[], &mut fresh);
            let mut streams: HashMap<RunId, Vec<Vec<Fingerprint>>> = HashMap::new();
            let mut copied = 0;
            for step in 0..24 {
                let gate = if step % 3 == 2 { drop } else { 0 };
                let run = back_up(&mut m, job, &files, capacity, gate);
                streams.insert(run, files.clone());
                if let Some(prev) = run.version.checked_sub(1) {
                    let prev = RunId { job, version: prev };
                    if m.run(prev).is_some() {
                        let logical = m.runs[&run].logical_chunks as usize;
                        copied += logical - literal_entries(&m, run, prev);
                    }
                }
                // One run at a time, or two together (as expiry does).
                while !streams.is_empty() && rng.below(3) == 0 {
                    let mut retained: Vec<RunId> = streams.keys().copied().collect();
                    retained.sort();
                    let mut pick = || retained[rng.below(retained.len() as u64) as usize];
                    let (one, two) = (pick(), pick());
                    if step % 2 == 0 {
                        proptest::prop_assert!(m.retire_run(one).is_some());
                    } else {
                        let gone = m.retire_runs([one, two]);
                        let want = if one == two { vec![one] } else { vec![one, two] };
                        let got: Vec<RunId> = gone.iter().map(|rec| rec.run).collect();
                        proptest::prop_assert_eq!(got, want);
                        streams.remove(&two);
                    }
                    streams.remove(&one);
                }
                for rec in m.retained_runs() {
                    proptest::prop_assert_eq!(&stream(rec), &streams[&rec.run], "{:?}", rec.run);
                    let len: usize = rec.files.iter().map(|f| f.recipe.len()).sum();
                    proptest::prop_assert_eq!(len as u64, rec.logical_chunks);
                    proptest::prop_assert!(rec.files.iter().all(|f| f.recipe.is_sound()));
                }
                let (held, covered) = held_and_covered(&m);
                proptest::prop_assert!(held <= 2 * covered, "step {step}: {held} > 2 x {covered}");
                files = next_version(&mut rng, &files, &mut fresh);
            }
            proptest::prop_assert!(copied > 0, "the history shares nothing");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The bitmap cover of random pieces over three blocks is the
        /// union of their ranges, entry by entry.
        #[test]
        fn prop_covered_spans_are_the_union_of_the_pieces(
            lens in proptest::collection::vec(1usize..300, 3..4),
            cuts in proptest::collection::vec((0usize..3, 0usize..300, 0usize..140), 0..40),
        ) {
            let blocks: Vec<Block> =
                lens.iter().map(|&n| (0..n as u64).map(fp).collect()).collect();
            let pieces: Vec<Piece> = (cuts.iter())
                .map(|&(b, start, len)| Piece::new(Arc::clone(&blocks[b]), start, len))
                .collect();
            let mut want: Vec<Vec<usize>> = vec![Vec::new(); 3];
            for p in &pieces {
                if let Some(r) = p.range() {
                    let b = blocks.iter().position(|b| Arc::ptr_eq(b, &p.block)).expect("ours");
                    want[b].extend(r);
                }
            }
            for (block, ranges) in covered_spans(pieces.iter()) {
                let b = blocks.iter().position(|b| Arc::ptr_eq(b, block)).expect("ours");
                let got: Vec<usize> = ranges.iter().cloned().flatten().collect();
                want[b].sort_unstable();
                want[b].dedup();
                proptest::prop_assert_eq!(&got, &want[b]);
                // Merged: no two runs touch.
                proptest::prop_assert!(ranges.windows(2).all(|w| w[0].end < w[1].start));
                want[b].clear();
            }
            proptest::prop_assert!(want.iter().all(Vec::is_empty), "a covered block is missing");
        }
    }

    #[test]
    fn a_run_equal_to_its_predecessor_holds_no_literal_fingerprint() {
        // A stream with a chunk repeated far apart, so the filter's hint
        // for the first copy names the later position.
        let mut m = MetadataManager::new();
        let a = m.register_job(spec("a"));
        let mut v0: Vec<Fingerprint> = (0..500).map(fp).collect();
        v0.insert(400, fp(7));
        let files = vec![v0.clone(), (1000..1100).map(fp).collect()];
        let r0 = back_up(&mut m, a, &files, 1000, 0);
        let r1 = back_up(&mut m, a, &files, 1000, 0);
        assert_eq!(literal_entries(&m, r1, r0), 0);
        assert_eq!(stream(&m.runs[&r1]), files);
        // Each file is one piece of the first run's block.
        assert!(m.runs[&r1].files.iter().all(|f| f.recipe.pieces.len() == 1));
        // One chunk overwritten: that one entry is literal.
        let mut edited = files.clone();
        edited[0][250] = fp(5000);
        let r2 = back_up(&mut m, a, &edited, 1000, 0);
        assert_eq!(literal_entries(&m, r2, r1), 1);
        assert_eq!(stream(&m.runs[&r2]), edited);
    }

    #[test]
    fn retiring_runs_repacks_a_sparsely_covered_block() {
        let mut m = MetadataManager::new();
        let a = m.register_job(spec("a"));
        let base: Vec<Fingerprint> = (0..1000).map(fp).collect();
        let r0 = back_up(&mut m, a, std::slice::from_ref(&base), 2000, 0);
        // The next run keeps a tenth of the base and adds as much anew.
        let next: Vec<Fingerprint> = (base[..100].iter().copied())
            .chain((5000..5100).map(fp))
            .collect();
        let r1 = back_up(&mut m, a, std::slice::from_ref(&next), 2000, 0);
        assert_eq!(held_and_covered(&m), (1100, 1100));
        let before = m.clone();
        m.retire_run(r0).expect("retained");
        // The base block is re-packed to the 100 entries still covered;
        // a clone made before keeps the old blocks.
        assert_eq!(held_and_covered(&m), (200, 200));
        assert_eq!(stream(&m.runs[&r1]), vec![next.clone()]);
        assert_eq!(held_and_covered(&before), (1100, 1100));
        assert_eq!(stream(&before.runs[&r1]), vec![next]);
        assert_eq!(stream(&before.runs[&r0]), vec![base]);
    }

    #[test]
    fn a_recipe_whose_piece_leaves_its_block_is_unsound_and_yields_nothing_of_it() {
        let mut r: Recipe = (0..10).map(fp).collect();
        assert!(r.is_sound());
        assert_eq!((r.len(), r.iter().count()), (10, 10));
        r.pieces[0].start = 5;
        assert!(!r.is_sound());
        assert_eq!((r.len(), r.iter().count()), (10, 0));
        r.pieces[0].start = u32::MAX;
        assert!(!r.is_sound());
        assert!(Recipe::default().is_sound() && Recipe::default().is_empty());
    }

    #[test]
    #[should_panic]
    fn out_of_order_run_rejected() {
        let mut m = MetadataManager::new();
        let a = m.register_job(spec("a"));
        m.record_run(record(a, 1, vec![fp(1)]));
    }
}
