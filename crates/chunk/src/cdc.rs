//! Content-defined chunking (paper §3.2, following LBFS).
//!
//! CDC computes the Rabin fingerprint of every overlapping 48-byte window of
//! the stream. A position is an *anchor* — a chunk boundary — when the
//! low-order `k` bits of the window fingerprint equal a predetermined
//! constant; the expected chunk size is therefore `2^k` bytes. DEBAR uses
//! `2^13 = 8 KB` expected chunks with a 2 KB lower and 64 KB upper bound to
//! "eliminate the possibility of pathological cases described in LBFS".
//!
//! The rolling hash is reset at each chunk boundary, so boundary placement
//! depends only on the bytes of the current chunk; an edit therefore
//! re-synchronizes chunking at the first anchor after the edited region,
//! which is precisely the property that lets CDC detect duplicates in
//! shifted content.
//!
//! # The lane scan
//!
//! [`CdcChunker::chunk_all`] finds every anchor of the slice first
//! ([`CdcChunker::anchors`]) and then walks them under the size bounds: a
//! chunk that starts at `s` ends at the first anchor in
//! `s + min_size ..= s + max_size`, else at `s + max_size`, else at the end
//! of the data.
//!
//! Resetting the hash at a boundary changes nothing the walk can see. An
//! anchor is only taken `min_size` or more bytes into a chunk, and
//! `min_size ≥ window` is validated, so the window that ends there lies
//! inside the chunk, and its fingerprint depends on those `window` bytes
//! alone. Every position's anchor test is therefore a property of the
//! slice, not of where the chunks before it ended, and the scan may test
//! the positions in any order and start a roll anywhere.
//!
//! So the scan splits the window ends `window ..= len` into [`LANES`]
//! disjoint stretches of equal length, seeds each with the fingerprint of
//! the window that ends at its first position, and rolls all of them one
//! byte per step, side by side ([`RabinTables::roll_aligned`]). The byte
//! leaving a window is read from the slice, so there is no ring buffer and
//! no window-full test. The lanes do not depend on each other, so the CPU
//! overlaps their dependency chains, and every position costs one roll.
//! Interleaved chains do not scale the same way: a chain that tests every
//! `K`-th position must still step over all `K` bytes between its tests,
//! so `K` such chains pay `K` rolls per byte. The scan also tests the
//! `min_size − window` bytes at the head of each chunk, where no chunk can
//! end: rolling them on the lanes costs less than restarting the chains at
//! every boundary.
//!
//! The scan takes the window ends [`BLOCK`] at a time and splits each
//! block into the lanes' stretches. It marks a block's anchors in a bitset
//! on the stack, and the walk takes them from there in order, so chunking
//! allocates nothing but its output. The ends a block has left over after
//! equal stretches, and a block too short to give every lane
//! [`window`](debar_hash::RabinParams::window) ends, go on one chain.
//!
//! The per-byte reference, [`CdcChunker::chunk_all_reference`], cuts where
//! the kernel cuts; the tests hold them together.

use crate::span::ChunkSpan;
use debar_hash::rabin::{RabinParams, RabinTables, RollingHash};

/// Independent rolling chains of the lane scan (module docs).
pub const LANES: usize = 4;

/// Window ends the lane scan tests per block (module docs): its anchors
/// wait in a bitset of this many bits on the stack.
pub const BLOCK: usize = LANES * 8192;

/// Parameters of the CDC chunker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CdcParams {
    /// Rabin fingerprinting configuration (polynomial + window width).
    pub rabin: RabinParams,
    /// Number of low-order fingerprint bits compared against `magic`; the
    /// expected chunk size is `2^mask_bits` bytes.
    pub mask_bits: u32,
    /// The predetermined anchor constant. Must be below `2^mask_bits`.
    /// A non-zero default avoids anchoring inside all-zero regions.
    pub magic: u64,
    /// Minimum chunk size in bytes (paper: 2 KB).
    pub min_size: usize,
    /// Maximum chunk size in bytes (paper: 64 KB).
    pub max_size: usize,
}

impl CdcParams {
    /// The paper's configuration: 48-byte window, 8 KB expected chunks,
    /// 2 KB minimum, 64 KB maximum.
    pub fn paper() -> Self {
        CdcParams {
            rabin: RabinParams::default(),
            mask_bits: 13,
            magic: 0x0f37,
            min_size: 2 * 1024,
            max_size: 64 * 1024,
        }
    }

    /// A small configuration (64-byte expected chunks) for fast tests.
    pub fn small() -> Self {
        CdcParams {
            rabin: RabinParams {
                window: 16,
                ..RabinParams::default()
            },
            mask_bits: 6,
            magic: 0x15,
            min_size: 16,
            max_size: 256,
        }
    }

    /// Expected chunk size, `2^mask_bits`.
    pub fn expected_size(&self) -> usize {
        1usize << self.mask_bits
    }

    fn validate(&self) {
        assert!(
            self.mask_bits >= 1 && self.mask_bits < 32,
            "mask_bits out of range"
        );
        assert!(
            self.magic < (1u64 << self.mask_bits),
            "magic must fit the mask"
        );
        assert!(self.min_size >= 1, "min_size must be positive");
        assert!(self.min_size <= self.max_size, "min must not exceed max");
        assert!(
            self.min_size >= self.rabin.window,
            "min_size must cover the rolling window"
        );
    }
}

impl Default for CdcParams {
    fn default() -> Self {
        Self::paper()
    }
}

/// A reusable content-defined chunker (owns the Rabin tables).
#[derive(Debug, Clone)]
pub struct CdcChunker {
    params: CdcParams,
    tables: RabinTables,
    mask: u64,
    /// `mask` and `magic` shifted by [`RabinTables::align`]: the anchor
    /// test of the lane scan, which rolls aligned fingerprints.
    aligned_mask: u64,
    aligned_magic: u64,
}

impl CdcChunker {
    /// Build a chunker (precomputes Rabin tables).
    pub fn new(params: CdcParams) -> Self {
        params.validate();
        let tables = RabinTables::new(params.rabin);
        let mask = (1u64 << params.mask_bits) - 1;
        CdcChunker {
            params,
            aligned_mask: mask << tables.align(),
            aligned_magic: params.magic << tables.align(),
            tables,
            mask,
        }
    }

    /// Chunker with the paper's parameters.
    pub fn paper() -> Self {
        Self::new(CdcParams::paper())
    }

    /// The configured parameters.
    pub fn params(&self) -> &CdcParams {
        &self.params
    }

    /// Begin a streaming session: every byte feeds a per-byte rolling
    /// hash that resets at each boundary. Produces the spans of
    /// [`CdcChunker::chunk_all`]; kept as the reference for equivalence
    /// tests and the kernel micro-benchmark.
    pub fn stream_reference(&self) -> CdcStream<'_> {
        CdcStream {
            chunker: self,
            roll: RollingHash::new(&self.tables),
            chunk_start: 0,
            cur_len: 0,
        }
    }

    /// [`CdcChunker::chunk_all`] via the per-byte reference stream.
    pub fn chunk_all_reference(&self, data: &[u8]) -> Vec<ChunkSpan> {
        let mut out = Vec::with_capacity(data.len() / self.params.expected_size() + 1);
        let mut s = self.stream_reference();
        s.push_slice(data, |span| out.push(span));
        if let Some(tail) = s.finish() {
            out.push(tail);
        }
        out
    }

    /// Chunk an entire buffer; returned spans tile `[0, data.len())`.
    /// Each chunk ends just past the first anchor at least `min_size`
    /// bytes in, else `max_size` bytes in, else at the end of `data`.
    pub fn chunk_all(&self, data: &[u8]) -> Vec<ChunkSpan> {
        let p = &self.params;
        let (min, max) = (p.min_size as u64, p.max_size as u64);
        let mut out = Vec::with_capacity(data.len() / p.expected_size() + 1);
        let mut start = 0;
        self.scan(data, |a| {
            // Cap the chunks the anchor is out of reach of, then take it
            // if it is far enough in.
            while a > start + max {
                out.push(ChunkSpan::new(start, max as u32));
                start += max;
            }
            if a >= start + min {
                out.push(ChunkSpan::new(start, (a - start) as u32));
                start = a;
            }
        });
        let len = data.len() as u64;
        while start < len {
            let end = len.min(start + max);
            out.push(ChunkSpan::new(start, (end - start) as u32));
            start = end;
        }
        out
    }

    /// Split a buffer into chunk byte-slices.
    pub fn split<'a>(&self, data: &'a [u8]) -> Vec<&'a [u8]> {
        self.chunk_all(data).iter().map(|s| s.slice(data)).collect()
    }

    /// Every anchor of `data`, ascending: the window ends `q` (offsets
    /// `window ..= data.len()`) whose window `data[q − window..q]` has a
    /// matching fingerprint, ignoring the size bounds. Every boundary
    /// [`CdcChunker::chunk_all`] emits that is not a max-size cut or the
    /// end of the data is one.
    pub fn anchors(&self, data: &[u8]) -> Vec<u64> {
        let mut out = Vec::new();
        self.scan(data, |a| out.push(a));
        out
    }

    /// The lane scan of the module docs: hand every anchor of `data` to
    /// `emit`, in ascending order.
    fn scan(&self, data: &[u8], mut emit: impl FnMut(u64)) {
        let (w, t) = (self.params.rabin.window, &self.tables);
        let mut found = [0u64; BLOCK / 64];
        // `first` is the block's first window end, `ends` its count of them.
        let mut first = w;
        while first <= data.len() {
            let ends = (data.len() + 1 - first).min(BLOCK);
            let per_lane = ends / LANES;
            let (mut end, mut g) = if per_lane >= w {
                self.scan_lanes(data, first, per_lane, &mut found)
            } else {
                let g = t.fingerprint(&data[first - w..first]) << t.align();
                self.test(g, 0, &mut found);
                (first, g)
            };
            // One chain runs on through the ends the lanes left over (all
            // of them in a block too short for lanes).
            let last = first + ends - 1;
            for (&old, &new) in data[end - w..last - w].iter().zip(&data[end..last]) {
                end += 1;
                g = t.roll_aligned(g, old, new);
                self.test(g, end - first, &mut found);
            }
            for (i, word) in found[..ends.div_ceil(64)].iter_mut().enumerate() {
                while *word != 0 {
                    emit((first + 64 * i + word.trailing_zeros() as usize) as u64);
                    *word &= *word - 1;
                }
            }
            first += ends;
        }
    }

    /// Whether a window of aligned fingerprint `g` is an anchor.
    #[inline(always)]
    fn is_anchor(&self, g: u64) -> bool {
        g & self.aligned_mask == self.aligned_magic
    }

    /// Set bit `at` of `found` if the window of aligned fingerprint `g` is
    /// an anchor.
    #[inline(always)]
    fn test(&self, g: u64, at: usize, found: &mut [u64; BLOCK / 64]) {
        if self.is_anchor(g) {
            found[at / 64] |= 1 << (at % 64);
        }
    }

    /// Roll [`LANES`] chains side by side over the `LANES · per_lane`
    /// window ends from `first` on, lane `k` over `first + k·per_lane` and
    /// the `per_lane − 1` after it, and mark their anchors in `found`, bit
    /// `end − first`. Returns the last end tested and its aligned
    /// fingerprint, for the chain that goes on.
    fn scan_lanes(
        &self,
        data: &[u8],
        first: usize,
        per_lane: usize,
        found: &mut [u64; BLOCK / 64],
    ) -> (usize, u64) {
        let (w, t) = (self.params.rabin.window, &self.tables);
        // Lane `k`'s stretch of window ends starts at `first + at[k]`.
        let at: [usize; LANES] = std::array::from_fn(|k| k * per_lane);
        let mut g = at.map(|a| t.fingerprint(&data[first + a - w..first + a]) << t.align());
        for k in 0..LANES {
            self.test(g[k], at[k], found);
        }
        // Step `i` moves lane `k` to the end `first + at[k] + i + 1`: it
        // drops `outs[k][i]` and enters `ins[k][i]`. Every slice is exactly
        // `steps` long, so the loop indexes them without bounds checks.
        let steps = per_lane - 1;
        let outs: [&[u8]; LANES] = at.map(|a| &data[first + a - w..][..steps]);
        let ins: [&[u8]; LANES] = at.map(|a| &data[first + a..][..steps]);
        for i in 0..steps {
            for k in 0..LANES {
                g[k] = t.roll_aligned(g[k], outs[k][i], ins[k][i]);
            }
            if g.iter().any(|&g| self.is_anchor(g)) {
                self.mark_lanes(g, at, i + 1, found);
            }
        }
        (first + at[LANES - 1] + steps, g[LANES - 1])
    }

    /// [`CdcChunker::test`] every lane after `step` steps. Anchors are
    /// rare, so this stays out of the lane loop and its registers.
    #[cold]
    #[inline(never)]
    fn mark_lanes(
        &self,
        g: [u64; LANES],
        at: [usize; LANES],
        step: usize,
        found: &mut [u64; BLOCK / 64],
    ) {
        for k in 0..LANES {
            self.test(g[k], at[k] + step, found);
        }
    }
}

/// Incremental per-byte chunking state (the reference); feed bytes,
/// collect [`ChunkSpan`]s.
pub struct CdcStream<'c> {
    chunker: &'c CdcChunker,
    roll: RollingHash<'c>,
    chunk_start: u64,
    cur_len: usize,
}

impl CdcStream<'_> {
    /// Push one byte; returns the completed chunk if `b` closed one.
    #[inline]
    pub fn push(&mut self, b: u8) -> Option<ChunkSpan> {
        let p = &self.chunker.params;
        let fp = self.roll.push(b);
        self.cur_len += 1;
        let at_anchor = self.cur_len >= p.min_size
            && self.roll.window_full()
            && fp & self.chunker.mask == p.magic;
        if at_anchor || self.cur_len >= p.max_size {
            let span = ChunkSpan::new(self.chunk_start, self.cur_len as u32);
            self.chunk_start = span.end();
            self.cur_len = 0;
            self.roll.reset();
            Some(span)
        } else {
            None
        }
    }

    /// Push a slice, invoking `sink` for each completed chunk.
    pub fn push_slice(&mut self, data: &[u8], mut sink: impl FnMut(ChunkSpan)) {
        for &b in data {
            if let Some(span) = self.push(b) {
                sink(span);
            }
        }
    }

    /// Bytes accumulated in the currently open chunk.
    pub fn pending(&self) -> usize {
        self.cur_len
    }

    /// Terminate the stream, emitting the final partial chunk if non-empty.
    pub fn finish(self) -> Option<ChunkSpan> {
        if self.cur_len > 0 {
            Some(ChunkSpan::new(self.chunk_start, self.cur_len as u32))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::spans_tile;

    fn test_data(len: usize, seed: u64) -> Vec<u8> {
        // xorshift-based deterministic pseudo-random bytes.
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn chunks_tile_input() {
        let c = CdcChunker::new(CdcParams::small());
        for len in [0usize, 1, 15, 16, 17, 100, 1000, 10_000] {
            let data = test_data(len, 7);
            let spans = c.chunk_all(&data);
            assert!(spans_tile(&spans, len as u64), "bad tiling for len={len}");
        }
    }

    #[test]
    fn chunk_sizes_respect_bounds() {
        let p = CdcParams::small();
        let c = CdcChunker::new(p);
        let data = test_data(50_000, 3);
        let spans = c.chunk_all(&data);
        assert!(spans.len() > 10, "expected many chunks");
        for (i, s) in spans.iter().enumerate() {
            assert!(s.len as usize <= p.max_size, "chunk {i} exceeds max");
            if i + 1 < spans.len() {
                assert!(s.len as usize >= p.min_size, "chunk {i} below min");
            }
        }
    }

    #[test]
    fn expected_size_roughly_2k() {
        let p = CdcParams::small();
        let c = CdcChunker::new(p);
        let data = test_data(1 << 20, 11);
        let spans = c.chunk_all(&data);
        let mean = data.len() as f64 / spans.len() as f64;
        // min/max clamping biases the mean; accept a generous band around
        // the nominal 64-byte expectation.
        assert!(
            mean > 40.0 && mean < 160.0,
            "mean chunk size {mean} far from expected {}",
            p.expected_size()
        );
    }

    #[test]
    fn streaming_matches_oneshot() {
        let c = CdcChunker::new(CdcParams::small());
        let data = test_data(20_000, 5);
        let oneshot = c.chunk_all(&data);
        let mut streamed = Vec::new();
        let mut s = c.stream_reference();
        // Push in awkward increments.
        for part in data.chunks(7) {
            s.push_slice(part, |span| streamed.push(span));
        }
        if let Some(t) = s.finish() {
            streamed.push(t);
        }
        assert_eq!(oneshot, streamed);
    }

    #[test]
    fn deterministic() {
        let c = CdcChunker::new(CdcParams::small());
        let data = test_data(30_000, 9);
        assert_eq!(c.chunk_all(&data), c.chunk_all(&data));
    }

    #[test]
    fn boundaries_are_anchors_or_max_cuts() {
        let p = CdcParams::small();
        let c = CdcChunker::new(p);
        let data = test_data(40_000, 13);
        let spans = c.chunk_all(&data);
        for (i, s) in spans.iter().enumerate().take(spans.len().saturating_sub(1)) {
            if (s.len as usize) < p.max_size {
                // Verify the window fingerprint at the boundary actually
                // matches, by recomputing over the chunk's own bytes (the
                // hash resets at each chunk start).
                let chunk = s.slice(&data);
                assert_eq!(
                    reference_anchors(&c, chunk).last().copied(),
                    Some(s.len as u64),
                    "chunk {i} does not end on an anchor"
                );
            }
        }
    }

    #[test]
    fn edit_resynchronizes_chunking() {
        let p = CdcParams::small();
        let c = CdcChunker::new(p);
        let data = test_data(32_768, 21);
        let mut edited = data.clone();
        let edit_pos = 10_000usize;
        edited[edit_pos] ^= 0xff;

        let a = c.chunk_all(&data);
        let b = c.chunk_all(&edited);

        // Chunks entirely before the edit are identical.
        let before_a: Vec<_> = a.iter().filter(|s| s.end() <= edit_pos as u64).collect();
        let before_b: Vec<_> = b.iter().filter(|s| s.end() <= edit_pos as u64).collect();
        assert_eq!(before_a, before_b, "chunks before the edit changed");
        assert!(!before_a.is_empty());

        // Boundaries resynchronize within a few max-sizes after the edit.
        let bounds = |spans: &[ChunkSpan]| -> Vec<u64> { spans.iter().map(|s| s.end()).collect() };
        let ba = bounds(&a);
        let bb = bounds(&b);
        let horizon = (edit_pos + 4 * p.max_size) as u64;
        let tail_a: Vec<u64> = ba.iter().copied().filter(|&x| x > horizon).collect();
        let tail_b: Vec<u64> = bb.iter().copied().filter(|&x| x > horizon).collect();
        assert_eq!(tail_a, tail_b, "chunking did not resynchronize after edit");
        assert!(tail_a.len() > 5, "test horizon leaves too few chunks");
    }

    #[test]
    fn insertion_shifts_resynchronize() {
        // The motivating CDC property (paper §3.2): inserting data at the
        // beginning must not re-chunk the whole file.
        let p = CdcParams::small();
        let c = CdcChunker::new(p);
        let data = test_data(32_768, 33);
        let mut shifted = test_data(137, 99);
        shifted.extend_from_slice(&data);

        let orig_chunks: std::collections::HashSet<Vec<u8>> =
            c.split(&data).into_iter().map(|s| s.to_vec()).collect();
        let shifted_chunks: Vec<Vec<u8>> =
            c.split(&shifted).into_iter().map(|s| s.to_vec()).collect();
        let shared = shifted_chunks
            .iter()
            .filter(|ch| orig_chunks.contains(*ch))
            .count();
        // The vast majority of shifted chunks should be byte-identical to
        // original chunks (only those near the insertion differ).
        assert!(
            shared as f64 >= 0.9 * orig_chunks.len() as f64,
            "only {shared}/{} chunks survived an insertion",
            orig_chunks.len()
        );
    }

    #[test]
    fn zero_region_hits_max_size() {
        // All-zero data has no anchors (magic != 0), so chunks cap at max.
        for c in both_params() {
            let p = *c.params();
            let data = vec![0u8; 3 * p.max_size + 17];
            let spans = c.chunk_all(&data);
            assert_eq!(spans.len(), 4);
            assert!(spans[..3].iter().all(|s| s.len as usize == p.max_size));
            assert_eq!(spans[3].len, 17);
            assert_kernel_matches(&c, &data, "all zero");
        }
    }

    #[test]
    fn paper_params_validate() {
        let c = CdcChunker::paper();
        assert_eq!(c.params().expected_size(), 8 * 1024);
        let data = test_data(1 << 18, 17);
        let spans = c.chunk_all(&data);
        assert!(spans_tile(&spans, data.len() as u64));
    }

    #[test]
    #[should_panic]
    fn magic_must_fit_mask() {
        CdcChunker::new(CdcParams {
            magic: 1 << 13,
            ..CdcParams::paper()
        });
    }

    #[test]
    fn skip_matches_reference_on_long_streams() {
        for (seed, len) in [(1u64, 200_000), (7, 200_000), (42, 3 << 20)] {
            let data = test_data(len, seed);
            for c in both_params() {
                assert_kernel_matches(&c, &data, "random stream");
            }
        }
    }

    fn both_params() -> [CdcChunker; 2] {
        [CdcChunker::paper(), CdcChunker::new(CdcParams::small())]
    }

    /// Anchors on most positions: `mask_bits` 1–3 at the smallest
    /// `min_size` a window allows, so chunks end on every lane joint.
    fn dense_params() -> Vec<CdcChunker> {
        let dense = |window, mask_bits| {
            CdcChunker::new(CdcParams {
                rabin: RabinParams {
                    window,
                    ..RabinParams::default()
                },
                mask_bits,
                magic: 1,
                min_size: window,
                max_size: 4 * window,
            })
        };
        [16, 48]
            .into_iter()
            .flat_map(|w| (1..=3).map(move |bits| dense(w, bits)))
            .collect()
    }

    fn every_params() -> Vec<CdcChunker> {
        let mut all = dense_params();
        all.extend(both_params());
        all
    }

    /// The anchors of `data` by the per-byte rolling hash, the reference
    /// for [`CdcChunker::anchors`].
    fn reference_anchors(c: &CdcChunker, data: &[u8]) -> Vec<u64> {
        let mut roll = RollingHash::new(&c.tables);
        let mut out = Vec::new();
        for (i, &b) in data.iter().enumerate() {
            let fp = roll.push(b);
            if roll.window_full() && fp & c.mask == c.params.magic {
                out.push(i as u64 + 1); // boundary is *after* byte i
            }
        }
        out
    }

    /// `chunk_all` must cut exactly where the per-byte reference cuts, and
    /// the lane scan must find the reference's anchors.
    fn assert_kernel_matches(c: &CdcChunker, data: &[u8], what: &str) {
        let at = format!("{what} (len {}, params {:?})", data.len(), c.params);
        assert_eq!(c.anchors(data), reference_anchors(c, data), "{at}");
        assert_eq!(c.chunk_all(data), c.chunk_all_reference(data), "{at}");
    }

    /// Overwrite the `window` bytes before `end` until the window ending at
    /// `end` is an anchor and no other window ending in `from..end` is.
    fn plant_anchor(c: &CdcChunker, data: &mut [u8], from: usize, end: usize) {
        let w = c.params.rabin.window;
        for seed in 1.. {
            data[end - w..end].copy_from_slice(&test_data(w, seed));
            if c.tables.fingerprint(&data[end - w..end]) & c.mask != c.params.magic {
                continue;
            }
            // Only full windows are anchors: ends `from..=end` here.
            if reference_anchors(c, &data[from - w..end]) == [(end - from + w) as u64] {
                return;
            }
        }
    }

    /// The first and the last window end of every lane and of the chain
    /// after them, block by block, for a slice of `len` bytes.
    fn lane_joints(c: &CdcChunker, len: usize) -> Vec<usize> {
        let w = c.params.rabin.window;
        let mut joints = Vec::new();
        let mut first = w;
        while first <= len {
            let ends = (len + 1 - first).min(BLOCK);
            let per_lane = ends / LANES;
            if per_lane >= w {
                for k in 0..LANES {
                    joints.extend([first + k * per_lane, first + (k + 1) * per_lane - 1]);
                }
            }
            let chain = if per_lane >= w { LANES * per_lane } else { 0 };
            if chain < ends {
                joints.extend([first + chain, first + ends - 1]);
            }
            first += ends;
        }
        joints
    }

    #[test]
    fn kernel_matches_reference_at_the_size_edges() {
        for c in both_params() {
            let p = *c.params();
            let skip = p.min_size - p.rabin.window;
            let data = test_data(3 * p.max_size + 5, 77);
            for len in [
                0,
                1,
                skip.saturating_sub(1),
                skip,
                skip + 1,
                p.min_size - 1,
                p.min_size,
                p.min_size + 1,
                p.min_size + 2,
                p.min_size + 3,
                p.max_size - 1,
                p.max_size,
                p.max_size + 1,
                p.max_size + p.min_size,
                2 * p.max_size,
                3 * p.max_size + 5,
            ] {
                assert_kernel_matches(&c, &data[..len], "random prefix");
                assert_kernel_matches(&c, &vec![0u8; len], "all zero");
            }
        }
    }

    #[test]
    fn kernel_matches_reference_with_anchors_at_both_ends_of_the_range() {
        for c in both_params() {
            let p = *c.params();
            // Chunk ends at the first eligible byte, one past it, just
            // before and at the max-size limit, and just before and at the
            // end of the data; the rest of the data has no anchor.
            for end in [p.min_size, p.min_size + 1, p.max_size - 1, p.max_size] {
                let mut data = vec![0u8; 2 * p.max_size];
                plant_anchor(&c, &mut data, p.min_size, end);
                assert_kernel_matches(&c, &data, "planted anchor");
                assert_eq!(c.chunk_all(&data)[0].len as usize, end);
            }
            let len = p.min_size + 7;
            for end in [len - 1, len] {
                let mut data = vec![0u8; len];
                plant_anchor(&c, &mut data, p.min_size, end);
                assert_kernel_matches(&c, &data, "anchor at the end of the data");
                assert_eq!(c.chunk_all(&data)[0].len as usize, end);
            }
        }
    }

    #[test]
    fn kernel_matches_reference_on_odd_and_even_remainders() {
        // The lanes take the window ends in `LANES` equal stretches and
        // one chain the fewer than `LANES` left over: every remainder
        // ends the scan differently.
        for c in both_params() {
            let p = *c.params();
            let data = test_data(2 * p.max_size + 9, 5);
            for extra in 0..9 {
                for len in [p.min_size + extra, p.max_size + p.min_size + extra] {
                    assert_kernel_matches(&c, &data[..len], "remainder");
                }
            }
        }
    }

    #[test]
    fn kernel_matches_reference_on_every_length_across_the_lane_threshold() {
        // Below `(LANES + 1) · window − 1` bytes one chain scans the slice;
        // from there on the lanes do.
        for c in every_params() {
            let p = *c.params();
            let top = LANES * (p.rabin.window + p.min_size) + 8;
            let data = test_data(top, 0x1A4E);
            for len in 0..=top {
                assert_kernel_matches(&c, &data[..len], "every length");
            }
        }
    }

    #[test]
    fn dense_anchors_end_chunks_on_every_lane_joint() {
        for c in dense_params() {
            let p = *c.params();
            for (seed, len) in [(3u64, 4096), (4, 4099), (5, 10 * p.max_size + 3)] {
                let data = test_data(len, seed);
                assert_kernel_matches(&c, &data, "dense anchors");
                // Most chunks end on an anchor, not on the cap.
                let spans = c.chunk_all(&data);
                let capped = spans
                    .iter()
                    .filter(|s| s.len as usize == p.max_size)
                    .count();
                assert!(4 * capped < spans.len(), "{capped}/{} capped", spans.len());
            }
        }
    }

    #[test]
    fn anchors_planted_at_each_lanes_first_and_last_end_are_found() {
        for c in both_params() {
            let w = c.params().rabin.window;
            // The shortest slice the lanes take, one with a remainder, one
            // full block, and a full block and a short one.
            for len in [
                (LANES + 1) * w - 1,
                (LANES + 1) * w + 2,
                BLOCK + w - 1,
                BLOCK + (LANES + 2) * w + 1,
            ] {
                for end in lane_joints(&c, len) {
                    // All-zero data has no anchor (the magic is not 0):
                    // the planted one is the first.
                    let mut data = vec![0u8; len];
                    plant_anchor(&c, &mut data, end, end);
                    assert_eq!(c.anchors(&data).first(), Some(&(end as u64)), "end {end}");
                    assert_kernel_matches(&c, &data, "planted at a lane joint");
                }
            }
        }
    }

    #[test]
    fn kernel_matches_reference_across_block_edges() {
        for c in every_params() {
            let w = c.params().rabin.window;
            let data = test_data(2 * BLOCK + 2 * w, 0xB10C);
            for len in [
                BLOCK + w - 2,
                BLOCK + w - 1,
                BLOCK + w,
                BLOCK + (LANES + 1) * w - 2,
                BLOCK + (LANES + 1) * w - 1,
                2 * BLOCK + w - 1,
                2 * BLOCK + w + 3,
            ] {
                assert_kernel_matches(&c, &data[..len], "block edge");
            }
        }
    }

    #[test]
    fn kernel_matches_reference_on_zero_and_repeated_blocks() {
        // A file tree assembles its files from a pool of 4 KiB blocks, so
        // every window recurs at the same offset of each copy.
        let block = test_data(4096, 0xB10C);
        let repeated: Vec<u8> = block.iter().copied().cycle().take(9 * 4096 + 77).collect();
        for c in every_params() {
            for len in [0, 4095, 4096, 4097, 3 * 4096 + 5, repeated.len()] {
                assert_kernel_matches(&c, &repeated[..len], "repeated block");
                assert_kernel_matches(&c, &vec![0u8; len], "all zero");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        #[test]
        fn prop_skip_equals_reference(data: Vec<u8>) {
            // The lane scan, which rolls every window end in `LANES`
            // stretches, must cut where the reference does.
            let c = CdcChunker::new(CdcParams::small());
            proptest::prop_assert_eq!(c.chunk_all(&data), c.chunk_all_reference(&data));
        }

        #[test]
        fn prop_lanes_equal_reference_up_to_16k(
            data in proptest::collection::vec(0u8..=255, 0..16_384),
        ) {
            for c in both_params() {
                proptest::prop_assert_eq!(c.anchors(&data), reference_anchors(&c, &data));
                proptest::prop_assert_eq!(c.chunk_all(&data), c.chunk_all_reference(&data));
            }
        }

        #[test]
        fn prop_tiling(data: Vec<u8>) {
            let c = CdcChunker::new(CdcParams::small());
            let spans = c.chunk_all(&data);
            proptest::prop_assert!(spans_tile(&spans, data.len() as u64));
        }

        #[test]
        fn prop_bounds(data: Vec<u8>) {
            let p = CdcParams::small();
            let c = CdcChunker::new(p);
            let spans = c.chunk_all(&data);
            for (i, s) in spans.iter().enumerate() {
                proptest::prop_assert!((s.len as usize) <= p.max_size);
                if i + 1 < spans.len() {
                    proptest::prop_assert!((s.len as usize) >= p.min_size);
                }
            }
        }
    }
}
