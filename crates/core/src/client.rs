//! The backup client / Backup Engine (paper §3.2).
//!
//! For real-byte files the client performs *anchoring* (CDC with a 48-byte
//! Rabin window, 8 KB expected chunks, 2 KB/64 KB bounds) and *chunk
//! fingerprinting* (SHA-1 of each chunk) before negotiating transfer with
//! the backup server. Fingerprint-level datasets pass through unchanged
//! (they model already-traced streams, §6.2).
//!
//! Two clocks meet here. The chunks and digests are computed for real, by
//! the host kernels of `debar-chunk` (the four-lane CDC scan) and
//! `debar-hash` (SHA-1 on the CPU's SHA extensions where it has them):
//! they decide how long the simulator takes for the bytes it cuts, and
//! they cut and hash exactly as the portable per-byte references do. What
//! the backup costs in virtual time is `SimCpu::hash_bytes`, the paper's
//! client CPU, and it depends only on how many bytes were chunked — never
//! on which kernel or machine did it.
//!
//! The host cuts only what changed. A client keeps the chunk list of every
//! byte file of its last [`BackupClient::prepare`], by path, beside the
//! bytes it came from; a file whose path and bytes are those of last time
//! reuses it, since cutting and hashing are pure functions of the bytes.
//! The virtual clock knows nothing of this: the paper's client chunks
//! every byte of every backup, and `hash_bytes` charges every byte, reused
//! or not.
//!
//! # Re-cutting an edited file
//!
//! A file whose path is known but whose bytes changed is cut again only
//! around the edit. Say the old bytes and the new share a prefix of `p`
//! bytes and, after it, a suffix that starts at `t` in the new bytes, and
//! the new file is `d` bytes longer (`d` may be negative). Every chunk test
//! of `debar-chunk` reads only the window ending where it tests, and a
//! chunk's tests start `min_size ≥ window` bytes in, so a chunk's end
//! depends only on the bytes from its start to its end, and on whether the
//! data ends there. Three steps follow.
//!
//! 1. *Cuts inside the prefix are unchanged.* An old chunk that ends at or
//!    before `p` ended on an anchor or on the size cap, both decided by
//!    bytes before `p`, which the new file shares. The old last chunk is
//!    the exception: it may have ended only because the data did, so it is
//!    never reused this way.
//! 2. *The straddling chunk is anchor-free before `e_old`.* The first old
//!    chunk not reused starts at `s` and ends at `e_old`; no window ending
//!    in `s + min_size .. e_old` was an anchor. Those ending at or before
//!    `p` read only shared bytes, so the new file's first chunk from `s`
//!    tests window ends from `max(s + min_size, min(p, e_old − 1) + 1)` on
//!    ([`CdcChunker::chunk_end`]). Every later chunk tests from its own
//!    `start + min_size`, and each new chunk is hashed.
//! 3. *The chunking after a shared cut over equal suffix bytes is equal.*
//!    Once a new cut `c ≥ t` lands where `c − d` is an old chunk's start,
//!    the new bytes from `c` and the old from `c − d` are the same suffix
//!    to their common end, so their chunks are the same: the old chunks
//!    from there are spliced in with their fingerprints, as slices of the
//!    new buffer.
//!
//! A file with no entry is cut whole ([`CdcChunker::chunk_all`]).

use crate::dataset::{ChunkList, ChunkedFile, Dataset, FileContent, StreamChunk};
use crate::ids::ClientId;
use bytes::Bytes;
use debar_chunk::{CdcChunker, CdcParams};
use debar_hash::Fingerprint;
use debar_simio::models::paper;
use debar_simio::{SimCpu, Timed};
use debar_store::Payload;
use std::collections::HashMap;

/// A backup client.
#[derive(Clone)]
pub struct BackupClient {
    /// This client's ID.
    pub id: ClientId,
    chunker: CdcChunker,
    cpu: SimCpu,
    /// The byte files of the last [`BackupClient::prepare`], by path: the
    /// bytes and the chunks they were cut into, the list the call handed
    /// out. Each call replaces it.
    last: HashMap<String, (Bytes, ChunkList)>,
}

impl BackupClient {
    /// Create a client with the paper's chunking parameters.
    pub fn new(id: ClientId) -> Self {
        Self::with_params(id, CdcParams::paper())
    }

    /// Create a client with custom chunking parameters (small parameters
    /// keep unit tests fast).
    pub fn with_params(id: ClientId, params: CdcParams) -> Self {
        BackupClient {
            id,
            chunker: CdcChunker::new(params),
            cpu: SimCpu::new(paper::cpu()),
            last: HashMap::new(),
        }
    }

    /// Chunk and fingerprint a dataset; the cost models the client-side
    /// Rabin + SHA-1 work for real bytes — every byte of every byte file.
    ///
    /// On the host, a byte file whose path and bytes equal those of a byte
    /// file of the previous call takes that call's chunk list (its payloads
    /// slices of the buffer first cut); a byte file whose path was there
    /// with other bytes is cut again around its edit (module docs), and any
    /// other one is cut and hashed whole. The result is the same chunk list
    /// every way.
    pub fn prepare(&mut self, dataset: &Dataset) -> Timed<Vec<ChunkedFile>> {
        let mut cost = 0.0;
        let mut out = Vec::with_capacity(dataset.files.len());
        let mut last = HashMap::new();
        for file in &dataset.files {
            let chunks = match &file.content {
                FileContent::Bytes(data) => {
                    cost += self.cpu.hash_bytes(data.len() as u64);
                    let (path, chunks) = match self.last.remove_entry(&file.path) {
                        Some((path, (seen, chunks))) => (path, self.recut(&seen, chunks, data)),
                        None => (file.path.clone(), self.chunk_bytes(data)),
                    };
                    last.insert(path, (data.clone(), chunks.clone()));
                    chunks
                }
                FileContent::Records(records) => records
                    .iter()
                    .map(|r| StreamChunk {
                        fp: r.fp,
                        payload: Payload::Zero(r.len),
                    })
                    .collect(),
            };
            out.push(ChunkedFile {
                path: file.path.clone(),
                chunks,
            });
        }
        self.last = last;
        Timed::new(out, cost)
    }

    fn chunk_bytes(&self, data: &Bytes) -> ChunkList {
        (self.chunker.chunk_all(data).into_iter())
            .map(|span| hashed(data, span.offset as usize, span.end() as usize))
            .collect()
    }

    /// `data`'s chunk list, given the bytes `old` of the same path and
    /// their chunk list `chunks`: `chunks` itself when the bytes are the
    /// same, else the old chunks before and after the edit around the
    /// chunks cut again in between (module docs, *Re-cutting an edited
    /// file*).
    fn recut(&self, old: &Bytes, chunks: ChunkList, data: &Bytes) -> ChunkList {
        // The same slice of one buffer, or byte-equal buffers.
        if old.as_ptr() == data.as_ptr() && old.len() == data.len() {
            return chunks;
        }
        let p = common_prefix(old, data);
        if p == old.len() && p == data.len() {
            return chunks;
        }
        // The new bytes from `tail` on are the old ones from `tail − d`.
        let tail = data.len() - common_suffix(&old[p..], &data[p..]);
        let min = self.chunker.params().min_size;
        let mut out = Vec::with_capacity(chunks.len() + 1);
        // Step 1: the old chunks that end in the prefix, but the last.
        // `k` is the first old chunk not taken, and it starts at `at` in
        // both files.
        let (mut at, mut k) = (0, 0);
        while k + 1 < chunks.len() && at + chunks[k].len() as usize <= p {
            out.push(reused(&chunks[k], data, at));
            at += chunks[k].len() as usize;
            k += 1;
        }
        // Step 2: the straddling chunk had no anchor before its old end.
        let mut from = at + min;
        if let Some(c) = chunks.get(k) {
            from = from.max(p.min(at + c.len() as usize - 1) + 1);
        }
        // Step 3: cut until a cut in the suffix lands on an old start;
        // `old_at` is where old chunk `k` starts in the old file.
        let mut old_at = at;
        loop {
            if at >= tail {
                let o = at + old.len() - data.len();
                while old_at < o && k < chunks.len() {
                    old_at += chunks[k].len() as usize;
                    k += 1;
                }
                if old_at == o && k < chunks.len() {
                    for c in &chunks[k..] {
                        out.push(reused(c, data, at));
                        at += c.len() as usize;
                    }
                    return out.into();
                }
            }
            if at == data.len() {
                return out.into();
            }
            let end = self.chunker.chunk_end(data, at, from);
            out.push(hashed(data, at, end));
            at = end;
            from = at + min;
        }
    }
}

/// The chunk `data[start..end]`, hashed.
fn hashed(data: &Bytes, start: usize, end: usize) -> StreamChunk {
    let body = data.slice(start..end);
    StreamChunk {
        fp: Fingerprint::of_bytes(&body),
        payload: Payload::Real(body),
    }
}

/// Old chunk `c`, found again at `start` of `data`: its fingerprint, and
/// its bytes as a slice of `data`.
fn reused(c: &StreamChunk, data: &Bytes, start: usize) -> StreamChunk {
    StreamChunk {
        fp: c.fp,
        payload: Payload::Real(data.slice(start..start + c.len() as usize)),
    }
}

/// Bytes [`common_prefix`] and [`common_suffix`] compare at a time before
/// they look for the first difference byte by byte.
const CMP_BLOCK: usize = 256;

/// The length of the longest common prefix of `a` and `b`.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let mut i = 0;
    while i + CMP_BLOCK <= n && a[i..i + CMP_BLOCK] == b[i..i + CMP_BLOCK] {
        i += CMP_BLOCK;
    }
    i + (a[i..n].iter().zip(&b[i..n]))
        .take_while(|(x, y)| x == y)
        .count()
}

/// The length of the longest common suffix of `a` and `b`.
fn common_suffix(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let (a, b) = (&a[a.len() - n..], &b[b.len() - n..]);
    let mut i = n;
    while i >= CMP_BLOCK && a[i - CMP_BLOCK..i] == b[i - CMP_BLOCK..i] {
        i -= CMP_BLOCK;
    }
    n - i
        + (a[..i].iter().rev().zip(b[..i].iter().rev()))
            .take_while(|(x, y)| x == y)
            .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::FileEntry;
    use debar_workload::files::{FileTreeConfig, FileTreeGen, MutationConfig};

    fn bytes(len: usize, seed: u8) -> Bytes {
        (0..len)
            .map(|i| ((i as u64 * 131 + seed as u64) % 251) as u8)
            .collect::<Vec<u8>>()
            .into()
    }

    fn dataset(files: &[(&str, Bytes)]) -> Dataset {
        Dataset {
            files: (files.iter())
                .map(|(path, data)| FileEntry {
                    path: path.to_string(),
                    content: FileContent::Bytes(data.clone()),
                })
                .collect(),
        }
    }

    fn byte_dataset(len: usize, seed: u8) -> Dataset {
        dataset(&[("f.dat", bytes(len, seed))])
    }

    #[test]
    fn chunks_reassemble_to_original() {
        let mut c = BackupClient::with_params(ClientId(0), CdcParams::small());
        let ds = byte_dataset(50_000, 1);
        let files = c.prepare(&ds).value;
        assert_eq!(files.len(), 1);
        let mut rebuilt = Vec::new();
        for ch in &files[0].chunks {
            rebuilt.extend_from_slice(&ch.payload.materialize());
        }
        let FileContent::Bytes(orig) = &ds.files[0].content else {
            unreachable!()
        };
        assert_eq!(&rebuilt[..], &orig[..]);
    }

    #[test]
    fn fingerprints_match_chunk_contents() {
        let mut c = BackupClient::with_params(ClientId(0), CdcParams::small());
        let files = c.prepare(&byte_dataset(20_000, 2)).value;
        for ch in &files[0].chunks {
            assert_eq!(ch.fp, Fingerprint::of_bytes(&ch.payload.materialize()));
        }
    }

    #[test]
    fn identical_content_yields_identical_fingerprints() {
        let mut c = BackupClient::with_params(ClientId(0), CdcParams::small());
        let a = c.prepare(&byte_dataset(30_000, 3)).value;
        let b = c.prepare(&byte_dataset(30_000, 3)).value;
        let fps = |files: &[ChunkedFile]| -> Vec<Fingerprint> {
            files[0].chunks.iter().map(|c| c.fp).collect()
        };
        assert_eq!(fps(&a), fps(&b));
    }

    #[test]
    fn record_datasets_pass_through() {
        use debar_workload::ChunkRecord;
        let recs: Vec<ChunkRecord> = (0..100).map(ChunkRecord::of_counter).collect();
        let ds = Dataset::from_records("s", recs.clone());
        let mut c = BackupClient::new(ClientId(1));
        let t = c.prepare(&ds);
        assert_eq!(t.cost, 0.0, "trace replay is free at the client");
        let files = t.value;
        assert_eq!(files[0].chunks.len(), 100);
        for (ch, r) in files[0].chunks.iter().zip(&recs) {
            assert_eq!(ch.fp, r.fp);
            assert_eq!(ch.len(), r.len as u64);
        }
    }

    #[test]
    fn hashing_cost_charged_for_bytes() {
        let mut c = BackupClient::with_params(ClientId(0), CdcParams::small());
        let t = c.prepare(&byte_dataset(1 << 20, 4));
        assert!(t.cost > 0.0);
    }

    /// One file's chunks: fingerprint and payload bytes, in file order.
    fn cut(file: &ChunkedFile) -> Vec<(Fingerprint, Vec<u8>)> {
        (file.chunks.iter())
            .map(|c| (c.fp, c.payload.materialize().to_vec()))
            .collect()
    }

    /// The memory a buffer's bytes occupy, as an address range.
    fn span(b: &Bytes) -> std::ops::Range<usize> {
        b.as_ptr() as usize..b.as_ptr() as usize + b.len()
    }

    /// Whether every chunk of `file` lies in `data`'s buffer.
    fn cut_from(file: &ChunkedFile, data: &Bytes) -> bool {
        let buf = span(data);
        (file.chunks.iter()).all(|c| {
            let Payload::Real(b) = &c.payload else {
                return false;
            };
            buf.start <= span(b).start && span(b).end <= buf.end
        })
    }

    #[test]
    fn a_long_lived_client_prepares_what_a_fresh_one_does() {
        let mut gen = FileTreeGen::new(FileTreeConfig {
            files: 16,
            file_size: (2 * 1024, 24 * 1024),
            ..FileTreeConfig::default()
        });
        let mut tree = gen.initial();
        let mut long = BackupClient::with_params(ClientId(0), CdcParams::small());
        let mut reused = 0;
        for version in 0..6 {
            if version > 0 {
                let before = tree.clone();
                tree = gen.mutate(&tree, MutationConfig::default());
                reused += (tree.iter())
                    .filter(|f| before.iter().any(|b| b.path == f.path && b.data == f.data))
                    .count();
            }
            let ds = Dataset::from_file_specs(&tree);
            let mut fresh = BackupClient::with_params(ClientId(0), CdcParams::small());
            let (a, b) = (long.prepare(&ds), fresh.prepare(&ds));
            assert_eq!(a.cost, b.cost, "version {version}: every byte is charged");
            assert_eq!(a.value.len(), b.value.len());
            for (x, y) in a.value.iter().zip(&b.value) {
                assert_eq!(x.path, y.path);
                assert_eq!(cut(x), cut(y), "version {version}, {}", x.path);
            }
            let mut kept: Vec<&String> = long.last.keys().collect();
            kept.sort();
            let mut want: Vec<&String> = tree.iter().map(|f| &f.path).collect();
            want.sort();
            assert_eq!(kept, want, "the memo holds exactly this version's files");
        }
        assert!(reused > 0, "the history keeps some files as they were");
    }

    #[test]
    fn a_byte_equal_file_in_another_buffer_is_reused() {
        let first = bytes(40_000, 5);
        let copy = Bytes::copy_from_slice(&first);
        let again = Bytes::copy_from_slice(&first);
        let mut c = BackupClient::with_params(ClientId(0), CdcParams::small());
        let a = c.prepare(&dataset(&[("f", first.clone())])).value;
        assert!(cut_from(&a[0], &first));
        let b = c.prepare(&dataset(&[("f", copy.clone())])).value;
        assert!(
            cut_from(&b[0], &first),
            "reused: the chunks of the first cut"
        );
        assert!(!cut_from(&b[0], &copy));
        assert_eq!(cut(&a[0]), cut(&b[0]));
        let c2 = c.prepare(&dataset(&[("f", again)])).value;
        assert!(cut_from(&c2[0], &first), "kept across calls");
        // The same bytes under another path are cut again.
        let moved = c.prepare(&dataset(&[("g", copy.clone())])).value;
        assert!(cut_from(&moved[0], &copy));
        assert_eq!(cut(&moved[0]), cut(&a[0]));
    }

    #[test]
    fn a_file_with_one_flipped_byte_is_cut_again() {
        let first = bytes(40_000, 6);
        let mut flipped = first.to_vec();
        flipped[20_000] ^= 1;
        let flipped = Bytes::from(flipped);
        let mut c = BackupClient::with_params(ClientId(0), CdcParams::small());
        c.prepare(&dataset(&[("f", first)]));
        let ds = dataset(&[("f", flipped.clone())]);
        let got = c.prepare(&ds).value;
        assert!(
            cut_from(&got[0], &flipped),
            "same path and length: every chunk a slice of the new bytes"
        );
        let fresh = BackupClient::with_params(ClientId(0), CdcParams::small()).prepare(&ds);
        assert_eq!(cut(&got[0]), cut(&fresh.value[0]));
    }

    /// Prepare `data` as file `f` on `long` and on a fresh client, and
    /// check that both cut it alike and charge alike.
    fn prepares_alike(long: &mut BackupClient, data: &Bytes) -> Vec<ChunkedFile> {
        let ds = dataset(&[("f", data.clone())]);
        let mut fresh = BackupClient::with_params(ClientId(0), *long.chunker.params());
        let (a, b) = (long.prepare(&ds), fresh.prepare(&ds));
        assert_eq!(a.cost, b.cost, "every byte is charged");
        assert_eq!(cut(&a.value[0]), cut(&b.value[0]), "{} bytes", data.len());
        assert!(a.value[0].chunks.iter().all(|c| !c.is_empty()));
        a.value
    }

    #[test]
    fn a_truncation_to_an_old_cut_ends_on_it_without_an_empty_chunk() {
        let first = bytes(5_000, 8);
        let mut c = BackupClient::with_params(ClientId(0), CdcParams::small());
        let cuts: Vec<u64> = (prepares_alike(&mut c, &first)[0].chunks.iter())
            .scan(0, |end, ch| {
                *end += ch.len();
                Some(*end)
            })
            .collect();
        assert!(cuts.len() > 10);
        // Each truncation ends on an old cut, which is no longer the last.
        for &end in cuts[..cuts.len() - 1].iter().rev().step_by(4) {
            let got = prepares_alike(&mut c, &first.slice(..end as usize));
            let ends_at = |ch: &[StreamChunk]| ch.iter().map(|c| c.len()).sum::<u64>();
            assert_eq!(ends_at(&got[0].chunks), end);
        }
    }

    #[test]
    fn a_file_that_was_empty_is_cut_whole_and_one_emptied_has_no_chunk() {
        let mut c = BackupClient::with_params(ClientId(0), CdcParams::small());
        assert!(prepares_alike(&mut c, &Bytes::new())[0].chunks.is_empty());
        assert_eq!(c.last["f"].1.len(), 0, "an empty old chunk list");
        assert!(prepares_alike(&mut c, &bytes(3_000, 9))[0].chunks.len() > 10);
        assert!(prepares_alike(&mut c, &Bytes::new())[0].chunks.is_empty());
        prepares_alike(&mut c, &bytes(10, 9));
    }

    #[test]
    fn an_edit_rehashes_only_the_chunks_around_it() {
        let first = bytes(40_000, 10);
        let mut c = BackupClient::with_params(ClientId(0), CdcParams::small());
        let n = prepares_alike(&mut c, &first)[0].chunks.len();
        // Mark every remembered fingerprint: a chunk that comes back
        // marked was spliced in, not hashed.
        let marks: Vec<Fingerprint> = (0..n as u64).map(Fingerprint::of_counter).collect();
        let entry = c.last.get_mut("f").expect("remembered");
        entry.1 = (entry.1.iter().zip(&marks))
            .map(|(ch, &fp)| StreamChunk {
                fp,
                payload: ch.payload.clone(),
            })
            .collect();
        let mut edited = first.to_vec();
        edited.splice(20_000..20_040, [7u8; 100]);
        let ds = dataset(&[("f", Bytes::from(edited))]);
        let got = c.prepare(&ds).value;
        // Before the edit and after it, the marks come back in order.
        let spliced: Vec<usize> = (got[0].chunks.iter())
            .filter_map(|ch| marks.iter().position(|m| *m == ch.fp))
            .collect();
        let hashed = got[0].chunks.len() - spliced.len();
        assert!(
            hashed <= 4,
            "{hashed} of {} chunks hashed",
            got[0].chunks.len()
        );
        assert!(spliced.windows(2).all(|w| w[0] < w[1]));
        assert!(spliced.first() == Some(&0) && spliced.last() == Some(&(n - 1)));
    }

    /// xorshift bytes from `seed`.
    fn noise(len: usize, seed: u64) -> impl Iterator<Item = u8> {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len).map(move |_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 32) as u8
        })
    }

    /// Apply one edit of a history: `kind` picks it, `at` (taken modulo
    /// one past the length) says where, `n` how many bytes.
    fn edit(data: &mut Vec<u8>, (kind, at, n): (u8, usize, usize), min_size: usize) {
        let at = at % (data.len() + 1);
        let upto = data.len().min(at + n);
        let seed = (at * 1000 + n) as u64;
        match kind {
            0 => {
                let fresh: Vec<u8> = noise(upto - at, seed).collect();
                data[at..upto].copy_from_slice(&fresh);
            }
            1 => drop(data.splice(at..at, noise(n, seed))),
            2 => drop(data.drain(at..upto)),
            // A zero run has no anchor: the chunks over it end on the cap.
            3 => data.extend(std::iter::repeat_n(0, n)),
            4 => data.truncate(n % min_size),
            _ => data.truncate(at),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn prop_a_long_lived_client_cuts_every_history_as_a_fresh_one_does(
            first in proptest::collection::vec(0u8..=255, 0..4_000),
            edits in proptest::collection::vec((0u8..6, 0usize..1 << 20, 0usize..700), 1..12),
        ) {
            let params = CdcParams::small();
            let mut long = BackupClient::with_params(ClientId(0), params);
            let mut data = first;
            prepares_alike(&mut long, &Bytes::from(data.clone()));
            for &e in &edits {
                edit(&mut data, e, params.min_size);
                prepares_alike(&mut long, &Bytes::from(data.clone()));
            }
        }
    }

    #[test]
    fn record_files_never_enter_the_memo() {
        use debar_workload::ChunkRecord;
        let mut c = BackupClient::with_params(ClientId(0), CdcParams::small());
        c.prepare(&dataset(&[("f", bytes(10_000, 7))]));
        assert_eq!(c.last.len(), 1);
        let recs: Vec<ChunkRecord> = (0..10).map(ChunkRecord::of_counter).collect();
        c.prepare(&Dataset::from_records("f", recs));
        assert!(c.last.is_empty(), "replaced wholesale, records left out");
    }
}
