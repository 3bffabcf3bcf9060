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

use crate::dataset::{ChunkedFile, Dataset, FileContent, StreamChunk};
use crate::ids::ClientId;
use bytes::Bytes;
use debar_chunk::{CdcChunker, CdcParams};
use debar_hash::Fingerprint;
use debar_simio::models::paper;
use debar_simio::{SimCpu, Timed};
use debar_store::Payload;
use std::collections::HashMap;

/// A backup client.
pub struct BackupClient {
    /// This client's ID.
    pub id: ClientId,
    chunker: CdcChunker,
    cpu: SimCpu,
    /// The byte files of the last [`BackupClient::prepare`], by path: the
    /// bytes and the chunks they were cut into. Each call replaces it.
    last: HashMap<String, (Bytes, Vec<StreamChunk>)>,
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
    /// slices of the buffer first cut); every other one is cut and hashed.
    /// The result is the same chunk list either way.
    pub fn prepare(&mut self, dataset: &Dataset) -> Timed<Vec<ChunkedFile>> {
        let mut cost = 0.0;
        let mut out = Vec::with_capacity(dataset.files.len());
        let mut last = HashMap::new();
        for file in &dataset.files {
            let chunks = match &file.content {
                FileContent::Bytes(data) => {
                    cost += self.cpu.hash_bytes(data.len() as u64);
                    let chunks = match self.last.remove(&file.path) {
                        Some((seen, chunks)) if same_bytes(&seen, data) => chunks,
                        _ => self.chunk_bytes(data),
                    };
                    last.insert(file.path.clone(), (data.clone(), chunks.clone()));
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

    fn chunk_bytes(&self, data: &Bytes) -> Vec<StreamChunk> {
        self.chunker
            .chunk_all(data)
            .into_iter()
            .map(|span| {
                let body = data.slice(span.offset as usize..span.end() as usize);
                StreamChunk {
                    fp: Fingerprint::of_bytes(&body),
                    payload: Payload::Real(body),
                }
            })
            .collect()
    }
}

/// Whether two buffers hold the same bytes: the same slice of one buffer,
/// or equal byte for byte.
fn same_bytes(a: &Bytes, b: &Bytes) -> bool {
    (a.as_ptr() == b.as_ptr() && a.len() == b.len()) || a == b
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
            "same path and length: cut again"
        );
        let fresh = BackupClient::with_params(ClientId(0), CdcParams::small()).prepare(&ds);
        assert_eq!(cut(&got[0]), cut(&fresh.value[0]));
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
