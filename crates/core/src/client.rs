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
//! they decide how long the simulator takes, and they cut and hash exactly
//! as the portable per-byte references do. What the backup costs in
//! virtual time is `SimCpu::hash_bytes`, the paper's client CPU, and it
//! depends only on how many bytes were chunked — never on which kernel or
//! machine did it.

use crate::dataset::{ChunkedFile, Dataset, FileContent, StreamChunk};
use crate::ids::ClientId;
use bytes::Bytes;
use debar_chunk::{CdcChunker, CdcParams};
use debar_hash::Fingerprint;
use debar_simio::models::paper;
use debar_simio::{SimCpu, Timed};
use debar_store::Payload;

/// A backup client.
pub struct BackupClient {
    /// This client's ID.
    pub id: ClientId,
    chunker: CdcChunker,
    cpu: SimCpu,
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
        }
    }

    /// Chunk and fingerprint a dataset; the cost models the client-side
    /// Rabin + SHA-1 work for real bytes.
    pub fn prepare(&mut self, dataset: &Dataset) -> Timed<Vec<ChunkedFile>> {
        let mut cost = 0.0;
        let mut out = Vec::with_capacity(dataset.files.len());
        for file in &dataset.files {
            let chunks = match &file.content {
                FileContent::Bytes(data) => {
                    cost += self.cpu.hash_bytes(data.len() as u64);
                    self.chunk_bytes(data)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::FileEntry;

    fn byte_dataset(len: usize, seed: u8) -> Dataset {
        let data: Vec<u8> = (0..len)
            .map(|i| ((i as u64 * 131 + seed as u64) % 251) as u8)
            .collect();
        Dataset {
            files: vec![FileEntry {
                path: "f.dat".into(),
                content: FileContent::Bytes(Bytes::from(data)),
            }],
        }
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
}
