//! Datasets: what a backup job protects.
//!
//! A dataset is a list of files. File content is either real bytes (the
//! full pipeline: CDC anchoring + SHA-1 fingerprinting at the client) or a
//! pre-fingerprinted chunk-record stream (the paper's §6.2 synthetic
//! workloads, where only the duplication structure matters).

use bytes::Bytes;
use debar_hash::Fingerprint;
use debar_store::Payload;
use debar_workload::ChunkRecord;
use std::ops::Deref;
use std::sync::Arc;

/// File content source.
#[derive(Debug, Clone)]
pub enum FileContent {
    /// Real bytes; the client chunks and fingerprints them.
    Bytes(Bytes),
    /// Fingerprint-level records (synthetic payloads).
    Records(Vec<ChunkRecord>),
}

/// One file in a dataset.
#[derive(Debug, Clone)]
pub struct FileEntry {
    /// Path relative to the dataset root.
    pub path: String,
    /// Content source.
    pub content: FileContent,
}

/// A backup job's dataset.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    /// The files to protect.
    pub files: Vec<FileEntry>,
}

impl Dataset {
    /// Build from real-byte files (e.g. `debar_workload::files::FileSpec`).
    pub fn from_file_specs(specs: &[debar_workload::files::FileSpec]) -> Self {
        Dataset {
            files: specs
                .iter()
                .map(|s| FileEntry {
                    path: s.path.clone(),
                    content: FileContent::Bytes(s.data.clone()),
                })
                .collect(),
        }
    }

    /// Build from a single fingerprint-level stream (one pseudo-file).
    pub fn from_records(name: impl Into<String>, records: Vec<ChunkRecord>) -> Self {
        Dataset {
            files: vec![FileEntry {
                path: name.into(),
                content: FileContent::Records(records),
            }],
        }
    }

    /// Logical bytes of the dataset (chunk lengths for record files).
    pub fn logical_bytes(&self) -> u64 {
        self.files
            .iter()
            .map(|f| match &f.content {
                FileContent::Bytes(b) => b.len() as u64,
                FileContent::Records(r) => debar_workload::record::total_bytes(r),
            })
            .sum()
    }
}

/// One chunk of a client's prepared backup stream.
#[derive(Debug, Clone)]
pub struct StreamChunk {
    /// Chunk fingerprint (SHA-1 of payload for real bytes).
    pub fp: Fingerprint,
    /// Chunk payload.
    pub payload: Payload,
}

impl StreamChunk {
    /// Payload length.
    pub fn len(&self) -> u64 {
        self.payload.len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }
}

/// A file after client-side chunking/fingerprinting.
#[derive(Debug, Clone)]
pub struct ChunkedFile {
    /// Path relative to the dataset root.
    pub path: String,
    /// Chunks in file order.
    pub chunks: ChunkList,
}

/// A file's chunks in file order, shared: the client's memo of its last
/// [`crate::client::BackupClient::prepare`] holds the same list it hands
/// out, so a file whose bytes did not change costs no copy. Reads as a
/// slice.
#[derive(Debug, Clone)]
pub struct ChunkList(Arc<[StreamChunk]>);

impl Deref for ChunkList {
    type Target = [StreamChunk];

    fn deref(&self) -> &[StreamChunk] {
        &self.0
    }
}

impl FromIterator<StreamChunk> for ChunkList {
    fn from_iter<I: IntoIterator<Item = StreamChunk>>(iter: I) -> Self {
        ChunkList(iter.into_iter().collect())
    }
}

impl From<Vec<StreamChunk>> for ChunkList {
    fn from(chunks: Vec<StreamChunk>) -> Self {
        ChunkList(chunks.into())
    }
}

impl<'a> IntoIterator for &'a ChunkList {
    type Item = &'a StreamChunk;
    type IntoIter = std::slice::Iter<'a, StreamChunk>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// The chunks by value, for a caller that consumes a [`ChunkedFile`]:
/// copied out of the shared list (a payload copy is a reference-count
/// increment).
impl IntoIterator for ChunkList {
    type Item = StreamChunk;
    type IntoIter = std::vec::IntoIter<StreamChunk>;

    fn into_iter(self) -> Self::IntoIter {
        Vec::from(&self.0[..]).into_iter()
    }
}

impl ChunkedFile {
    /// Total bytes across chunks.
    pub fn bytes(&self) -> u64 {
        self.chunks.iter().map(StreamChunk::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_byte_accounting() {
        let d = Dataset {
            files: vec![
                FileEntry {
                    path: "a".into(),
                    content: FileContent::Bytes(Bytes::from_static(b"hello")),
                },
                FileEntry {
                    path: "b".into(),
                    content: FileContent::Records(vec![
                        ChunkRecord::of_counter(1),
                        ChunkRecord::of_counter(2),
                    ]),
                },
            ],
        };
        let rec_bytes: u64 = [1u64, 2]
            .iter()
            .map(|&c| ChunkRecord::of_counter(c).len as u64)
            .sum();
        assert_eq!(d.logical_bytes(), 5 + rec_bytes);
    }

    #[test]
    fn from_records_single_file() {
        let d = Dataset::from_records("stream", vec![ChunkRecord::of_counter(7)]);
        assert_eq!(d.files.len(), 1);
        assert_eq!(d.files[0].path, "stream");
    }
}
