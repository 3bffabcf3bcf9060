//! Self-describing, fixed-size containers (paper §3.4).
//!
//! "A container ... is fixed-sized and self-described in that a metadata
//! section located before the data section stores metadata describing the
//! chunks stored in the data section. The chunk metadata ... includes the
//! fingerprint, chunk size and storage offset." DEBAR uses 8 MB containers:
//! ~1024 chunks at the 8 KB expected chunk size.
//!
//! What is fixed is a container's *capacity* — the data section it may
//! fill — and the on-disk slot it is written to: every write charges the
//! whole slot. What a container *is* on disk is its image
//! ([`Container::serialize`]: header, metadata section, data, checksum
//! trailer — [`Container::serialized_len`] bytes), and a whole read reads
//! that, never more than the slot: the last container of a chunk-storing
//! round, sealed early, is not read to the end of its padding.
//!
//! Payloads are either real bytes (full-pipeline backups) or synthetic
//! zero-runs of a recorded length (the paper's fingerprint-level workloads
//! pad each synthetic fingerprint with a zero chunk; we keep only the
//! length and materialize zeros on read).
//!
//! # Memory: a payload column only for real bytes
//!
//! A zero-run's length is its metadata's `len`, so a container of
//! fingerprint records holds its metadata section alone (32 bytes a
//! chunk) and [`Container::slot`], [`Container::find`] and
//! [`Container::chunks`] make each [`Payload::Zero`] from it. The payload
//! column — one [`Payload`] per chunk, another 32 bytes — appears with the
//! first real-byte chunk, back-filled with the zero-runs appended before
//! it, so in a mixed container every chunk keeps its own variant. On
//! `benchmark/`'s `cluster-multistream` (seed 1) the stored containers'
//! metadata weighs 5.3 MiB at the maintain phase's collection, and their
//! payload column weighed as much again.

use bytes::Bytes;
use debar_hash::{ContainerId, Fingerprint, Sha1};
use std::fmt;

/// Default container size (paper §3.4).
pub const DEFAULT_CONTAINER_BYTES: u64 = 8 << 20;

/// Leading magic byte of the container wire format. Pre-magic encodings
/// (format v1 started directly with the little-endian chunk count) fail
/// loudly with [`CorruptKind::BadMagic`] instead of being misparsed.
pub const CONTAINER_MAGIC: u8 = 0xDB;

/// Current container wire-format version: magic + version header and a
/// SHA-1 checksum trailer over everything before it.
pub const CONTAINER_VERSION: u8 = 2;

/// Header bytes ahead of the metadata section: magic, version, chunk count.
const WIRE_HEADER: usize = 2 + 4;

/// Checksum trailer length (SHA-1).
const WIRE_TRAILER: usize = 20;

/// Why a container's bytes failed validation.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptKind {
    /// The leading magic byte is wrong (not a container, or a pre-magic
    /// fixture from an old format).
    BadMagic,
    /// The version byte names a format this build does not speak.
    UnsupportedVersion(u8),
    /// The buffer is too short for the section named.
    Truncated(&'static str),
    /// The SHA-1 checksum trailer does not match the payload.
    ChecksumMismatch,
    /// A chunk's metadata points outside the data section.
    BadGeometry(&'static str),
    /// A chunk's payload no longer hashes back to its fingerprint
    /// (detected on restore verification).
    PayloadMismatch,
}

impl fmt::Display for CorruptKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorruptKind::BadMagic => write!(f, "bad magic byte"),
            CorruptKind::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            CorruptKind::Truncated(what) => write!(f, "truncated {what}"),
            CorruptKind::ChecksumMismatch => write!(f, "checksum trailer mismatch"),
            CorruptKind::BadGeometry(what) => write!(f, "bad geometry: {what}"),
            CorruptKind::PayloadMismatch => {
                write!(f, "chunk payload does not hash back to its fingerprint")
            }
        }
    }
}

/// Deterministic damage applied to a container's persisted bytes by an
/// injected fault (see `debar_simio::fault`): the shape of the corruption
/// the checksum trailer must catch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Damage {
    /// Only a prefix of the bytes is durable (torn write): the serialized
    /// image is truncated to two thirds of its length.
    Torn,
    /// One bit of the image flips (latent sector corruption); the position
    /// is derived deterministically from `salt`.
    BitFlip,
}

impl Damage {
    /// The first byte of a `len`-byte image the damage touches: where a
    /// torn image ends, the byte a flip lands in (`salt` picks it).
    pub fn position(self, len: usize, salt: u64) -> usize {
        match self {
            Damage::Torn => len * 2 / 3,
            Damage::BitFlip => (flip_hash(salt) % len.max(1) as u64) as usize,
        }
    }

    /// Apply the damage to a serialized container image. `salt`
    /// (typically the container ID) picks the deterministic flip position.
    pub fn apply(self, raw: &mut Vec<u8>, salt: u64) {
        let at = self.position(raw.len(), salt);
        match self {
            Damage::Torn => raw.truncate(at),
            Damage::BitFlip => {
                if let Some(byte) = raw.get_mut(at) {
                    *byte ^= 1 << (flip_hash(salt) >> 61);
                }
            }
        }
    }
}

/// What a [`Damage::BitFlip`] derives its byte and bit from.
fn flip_hash(salt: u64) -> u64 {
    salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// A chunk payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// Real chunk bytes.
    Real(Bytes),
    /// A synthetic zero-filled chunk of the given length (fingerprint-level
    /// workloads, whose fingerprints are counter-derived rather than hashed
    /// from these bytes).
    Zero(u32),
}

impl Payload {
    /// Payload length in bytes.
    pub fn len(&self) -> u64 {
        match self {
            Payload::Real(b) => b.len() as u64,
            Payload::Zero(n) => *n as u64,
        }
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materialize the payload bytes (zero-runs are synthesized).
    pub fn materialize(&self) -> Bytes {
        match self {
            Payload::Real(b) => b.clone(),
            Payload::Zero(n) => Bytes::from(vec![0u8; *n as usize]),
        }
    }
}

/// Metadata describing one chunk within a container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkMeta {
    /// The chunk fingerprint.
    pub fp: Fingerprint,
    /// Chunk length in bytes.
    pub len: u32,
    /// Offset of the chunk within the container's data section.
    pub offset: u64,
}

/// A container: ID + metadata section + data section.
#[derive(Debug, Clone)]
pub struct Container {
    id: ContainerId,
    capacity: u64,
    metas: Vec<ChunkMeta>,
    /// Every chunk's payload, in metadata order — or empty while every
    /// chunk is a zero-run, each `Payload::Zero(meta.len)`.
    payloads: Vec<Payload>,
    data_bytes: u64,
}

impl Container {
    /// Create an empty container with the given data-section capacity.
    pub fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "container capacity must be positive");
        Container {
            id: ContainerId::NULL,
            capacity,
            metas: Vec::new(),
            payloads: Vec::new(),
            data_bytes: 0,
        }
    }

    /// Create an empty container with its metadata section pre-sized for
    /// `chunk_hint` chunks, so the chunk-storing drain loop appends
    /// without per-chunk buffer growth (the hint is typically
    /// `capacity / expected_chunk_size`). The payload column takes the
    /// same size when the first real-byte chunk arrives.
    pub fn with_chunk_capacity(capacity: u64, chunk_hint: usize) -> Self {
        assert!(capacity > 0, "container capacity must be positive");
        Container {
            id: ContainerId::NULL,
            capacity,
            metas: Vec::with_capacity(chunk_hint),
            payloads: Vec::new(),
            data_bytes: 0,
        }
    }

    /// The container's ID ([`ContainerId::NULL`] until the repository
    /// assigns one at store time).
    pub fn id(&self) -> ContainerId {
        self.id
    }

    pub(crate) fn set_id(&mut self, id: ContainerId) {
        self.id = id;
    }

    /// Data-section capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes of chunk data stored.
    pub fn data_bytes(&self) -> u64 {
        self.data_bytes
    }

    /// Remaining data-section room.
    pub fn remaining(&self) -> u64 {
        self.capacity - self.data_bytes
    }

    /// Number of chunks.
    pub fn len(&self) -> usize {
        self.metas.len()
    }

    /// Whether the container holds no chunks.
    pub fn is_empty(&self) -> bool {
        self.metas.is_empty()
    }

    /// The metadata section.
    pub fn metas(&self) -> &[ChunkMeta] {
        &self.metas
    }

    /// Fingerprints in stream (SISL) order.
    pub fn fingerprints(&self) -> impl Iterator<Item = Fingerprint> + '_ {
        self.metas.iter().map(|m| m.fp)
    }

    /// Append a chunk if it fits; `false` when the data section would
    /// overflow.
    ///
    /// # Panics
    /// Panics if a single chunk exceeds the container capacity.
    pub fn try_append(&mut self, fp: Fingerprint, payload: Payload) -> bool {
        let len = payload.len();
        assert!(len <= self.capacity, "chunk larger than container");
        if self.data_bytes + len > self.capacity {
            return false;
        }
        match payload {
            Payload::Zero(_) if self.payloads.is_empty() => {}
            payload => {
                if self.payloads.is_empty() {
                    // The first real bytes: back-fill the zero-runs so far.
                    self.payloads.reserve_exact(self.metas.capacity());
                    (self.payloads).extend(self.metas.iter().map(|m| Payload::Zero(m.len)));
                }
                self.payloads.push(payload);
            }
        }
        self.metas.push(ChunkMeta {
            fp,
            len: len as u32,
            offset: self.data_bytes,
        });
        self.data_bytes += len;
        true
    }

    /// The payload of the chunk at index `i` of the metadata section.
    fn payload(&self, i: usize) -> Payload {
        match self.payloads.get(i) {
            Some(payload) => payload.clone(),
            None => Payload::Zero(self.metas[i].len),
        }
    }

    /// Find a chunk by fingerprint (linear scan of the metadata section —
    /// the restore cache keys the chunks it fetched by fingerprint instead).
    pub fn find(&self, fp: &Fingerprint) -> Option<(&ChunkMeta, Payload)> {
        let i = self.metas.iter().position(|m| &m.fp == fp)?;
        Some((&self.metas[i], self.payload(i)))
    }

    /// Access a chunk by its index in the metadata section.
    pub fn slot(&self, i: usize) -> (&ChunkMeta, Payload) {
        (&self.metas[i], self.payload(i))
    }

    /// Read a chunk's payload bytes by fingerprint.
    pub fn read_chunk(&self, fp: &Fingerprint) -> Option<Bytes> {
        self.find(fp).map(|(_, p)| p.materialize())
    }

    /// Chunks in stream (SISL) order: `(fingerprint, payload)` pairs.
    /// Payload clones are cheap (`Bytes` is refcounted, zero-runs are a
    /// length).
    pub fn chunks(&self) -> impl Iterator<Item = (Fingerprint, Payload)> + '_ {
        (0..self.len()).map(|i| (self.metas[i].fp, self.payload(i)))
    }

    /// Serialized on-disk size: header + metadata section + data section +
    /// checksum trailer — the image a whole read reads (the repository
    /// caps it at the fixed slot every write charges).
    pub fn serialized_len(&self) -> usize {
        WIRE_HEADER + self.metas.len() * 32 + self.data_bytes as usize + WIRE_TRAILER
    }

    /// Encode: `[magic:1 version:1 u32 chunk count] [fp:20 len:4 offset:8]*
    /// [data section] [sha1 trailer:20]`. The trailer covers every byte
    /// before it, so torn writes and bit flips are detected at
    /// [`Container::deserialize`] time instead of being silently read.
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.serialized_len());
        out.push(CONTAINER_MAGIC);
        out.push(CONTAINER_VERSION);
        out.extend_from_slice(&(self.metas.len() as u32).to_le_bytes());
        for m in &self.metas {
            out.extend_from_slice(m.fp.as_bytes());
            out.extend_from_slice(&m.len.to_le_bytes());
            out.extend_from_slice(&m.offset.to_le_bytes());
        }
        if self.payloads.is_empty() {
            out.resize(out.len() + self.data_bytes as usize, 0);
        }
        for p in &self.payloads {
            match p {
                Payload::Real(bytes) => out.extend_from_slice(bytes),
                Payload::Zero(n) => out.resize(out.len() + *n as usize, 0),
            }
        }
        let digest = Sha1::digest(&out);
        out.extend_from_slice(&digest);
        out
    }

    /// Decode a serialized container (payloads become `Real`). Truncated,
    /// garbled, pre-magic or future-format input fails loudly with the
    /// specific [`CorruptKind`].
    pub fn deserialize(raw: &[u8], capacity: u64) -> Result<Container, CorruptKind> {
        let count = wire_header(raw)?;
        let body_end = raw.len() - WIRE_TRAILER;
        if Sha1::digest(&raw[..body_end])[..] != raw[body_end..] {
            return Err(CorruptKind::ChecksumMismatch);
        }
        let metas = wire_metas(raw, count)?;
        let mut payloads = Vec::with_capacity(count);
        let mut data_bytes = 0u64;
        for m in &metas {
            payloads.push(Payload::Real(Bytes::copy_from_slice(wire_chunk(
                raw, count, m,
            )?)));
            data_bytes += m.len as u64;
        }
        Ok(Container {
            id: ContainerId::NULL,
            capacity,
            metas,
            payloads,
            data_bytes,
        })
    }

    /// Decode what a **ranged read** sees of a serialized container: the
    /// header, the metadata section and the spans of the chunks `wanted`
    /// names, in metadata order. The checksum trailer is *not* checked — a
    /// reader that fetched a few extents never read the bytes it covers —
    /// so the caller must verify every chunk it gets against its
    /// fingerprint. What is parsed fails with the same [`CorruptKind`]s as
    /// [`Container::deserialize`].
    pub fn deserialize_chunks(
        raw: &[u8],
        wanted: impl Fn(&Fingerprint) -> bool,
    ) -> Result<Vec<(ChunkMeta, Bytes)>, CorruptKind> {
        let count = wire_header(raw)?;
        let mut chunks = Vec::new();
        for m in wire_metas(raw, count)? {
            if wanted(&m.fp) {
                chunks.push((m, Bytes::copy_from_slice(wire_chunk(raw, count, &m)?)));
            }
        }
        Ok(chunks)
    }
}

/// The header of a serialized container — magic, version — and the chunk
/// count it announces.
fn wire_header(raw: &[u8]) -> Result<usize, CorruptKind> {
    if raw.len() < WIRE_HEADER + WIRE_TRAILER {
        return Err(CorruptKind::Truncated("header"));
    }
    if raw[0] != CONTAINER_MAGIC {
        return Err(CorruptKind::BadMagic);
    }
    if raw[1] != CONTAINER_VERSION {
        return Err(CorruptKind::UnsupportedVersion(raw[1]));
    }
    let count = raw[2..6]
        .try_into()
        .map_err(|_| CorruptKind::Truncated("chunk count"))?;
    Ok(u32::from_le_bytes(count) as usize)
}

/// The metadata section of a serialized container of `count` chunks.
fn wire_metas(raw: &[u8], count: usize) -> Result<Vec<ChunkMeta>, CorruptKind> {
    let body_end = raw.len() - WIRE_TRAILER;
    if body_end < WIRE_HEADER + count * 32 {
        return Err(CorruptKind::Truncated("metadata section"));
    }
    let mut metas = Vec::with_capacity(count);
    for i in 0..count {
        let base = WIRE_HEADER + i * 32;
        let mut fpb = [0u8; 20];
        fpb.copy_from_slice(&raw[base..base + 20]);
        let len = u32::from_le_bytes(
            raw[base + 20..base + 24]
                .try_into()
                .map_err(|_| CorruptKind::Truncated("chunk length"))?,
        );
        let offset = u64::from_le_bytes(
            raw[base + 24..base + 32]
                .try_into()
                .map_err(|_| CorruptKind::Truncated("chunk offset"))?,
        );
        metas.push(ChunkMeta {
            fp: Fingerprint(fpb),
            len,
            offset,
        });
    }
    Ok(metas)
}

/// One chunk's bytes in the data section of a serialized container of
/// `count` chunks.
fn wire_chunk<'a>(raw: &'a [u8], count: usize, m: &ChunkMeta) -> Result<&'a [u8], CorruptKind> {
    let data = &raw[WIRE_HEADER + count * 32..raw.len() - WIRE_TRAILER];
    let start = m.offset as usize;
    let end = start
        .checked_add(m.len as usize)
        .ok_or(CorruptKind::BadGeometry("chunk span overflows"))?;
    if end > data.len() {
        return Err(CorruptKind::BadGeometry("chunk span outside data section"));
    }
    Ok(&data[start..end])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(n: u64) -> Fingerprint {
        Fingerprint::of_counter(n)
    }

    #[test]
    fn append_until_full() {
        let mut c = Container::new(100);
        assert!(c.try_append(fp(1), Payload::Zero(40)));
        assert!(c.try_append(fp(2), Payload::Zero(40)));
        assert!(!c.try_append(fp(3), Payload::Zero(40)), "should not fit");
        assert!(c.try_append(fp(3), Payload::Zero(20)), "exact fit allowed");
        assert_eq!(c.len(), 3);
        assert_eq!(c.data_bytes(), 100);
        assert_eq!(c.remaining(), 0);
    }

    #[test]
    fn offsets_are_cumulative_stream_order() {
        let mut c = Container::new(1000);
        c.try_append(fp(1), Payload::Zero(10));
        c.try_append(fp(2), Payload::Zero(20));
        c.try_append(fp(3), Payload::Zero(30));
        let offs: Vec<u64> = c.metas().iter().map(|m| m.offset).collect();
        assert_eq!(offs, vec![0, 10, 30]);
        // SISL: fingerprints preserved in append (stream) order.
        let fps: Vec<Fingerprint> = c.fingerprints().collect();
        assert_eq!(fps, vec![fp(1), fp(2), fp(3)]);
    }

    #[test]
    fn find_and_read_real_payload() {
        let mut c = Container::new(1000);
        let data = Bytes::from_static(b"hello chunk");
        c.try_append(fp(7), Payload::Real(data.clone()));
        let (meta, payload) = c.find(&fp(7)).unwrap();
        assert_eq!(meta.len as usize, data.len());
        assert_eq!(payload.materialize(), data);
        assert_eq!(c.read_chunk(&fp(7)).unwrap(), data);
        assert!(c.find(&fp(8)).is_none());
    }

    #[test]
    fn zero_payload_materializes_zeros() {
        let p = Payload::Zero(5);
        assert_eq!(p.len(), 5);
        assert_eq!(p.materialize(), Bytes::from(vec![0u8; 5]));
    }

    #[test]
    fn serialize_roundtrip_real_payloads() {
        let mut c = Container::new(1 << 16);
        for i in 0..20u64 {
            let body: Vec<u8> = (0..50 + i).map(|j| (i * 7 + j) as u8).collect();
            c.try_append(fp(i), Payload::Real(Bytes::from(body)));
        }
        let raw = c.serialize();
        assert_eq!(raw.len(), c.serialized_len());
        let back = Container::deserialize(&raw, 1 << 16).unwrap();
        assert_eq!(back.len(), c.len());
        for i in 0..20u64 {
            assert_eq!(back.read_chunk(&fp(i)), c.read_chunk(&fp(i)), "chunk {i}");
        }
    }

    #[test]
    fn serialize_roundtrip_zero_payloads() {
        let mut c = Container::new(1 << 16);
        c.try_append(fp(1), Payload::Zero(100));
        c.try_append(fp(2), Payload::Zero(200));
        let back = Container::deserialize(&c.serialize(), 1 << 16).unwrap();
        assert_eq!(back.read_chunk(&fp(1)).unwrap().len(), 100);
        assert_eq!(
            back.read_chunk(&fp(2)).unwrap(),
            Bytes::from(vec![0u8; 200])
        );
    }

    #[test]
    fn deserialize_rejects_truncated() {
        let mut c = Container::new(1000);
        c.try_append(fp(1), Payload::Zero(100));
        let raw = c.serialize();
        assert_eq!(
            Container::deserialize(&raw[..raw.len() - 10], 1000).unwrap_err(),
            CorruptKind::ChecksumMismatch,
            "torn tail must fail the checksum"
        );
        assert_eq!(
            Container::deserialize(&raw[..3], 1000).unwrap_err(),
            CorruptKind::Truncated("header")
        );
    }

    #[test]
    fn deserialize_rejects_old_format_and_wrong_version() {
        let mut c = Container::new(1000);
        c.try_append(fp(1), Payload::Zero(100));
        // Format v1 started directly with the LE chunk count: no magic.
        let mut old = (1u32).to_le_bytes().to_vec();
        old.extend_from_slice(fp(1).as_bytes());
        old.extend_from_slice(&100u32.to_le_bytes());
        old.extend_from_slice(&0u64.to_le_bytes());
        old.extend_from_slice(&[0u8; 100]);
        assert_eq!(
            Container::deserialize(&old, 1000).unwrap_err(),
            CorruptKind::BadMagic,
            "pre-magic fixtures must fail loudly"
        );
        let mut raw = c.serialize();
        raw[1] = 9;
        assert_eq!(
            Container::deserialize(&raw, 1000).unwrap_err(),
            CorruptKind::UnsupportedVersion(9)
        );
    }

    #[test]
    fn deserialize_detects_bit_flips_anywhere() {
        let mut c = Container::new(1 << 16);
        for i in 0..10u64 {
            let body: Vec<u8> = (0..64).map(|j| (i * 3 + j) as u8).collect();
            c.try_append(fp(i), Payload::Real(Bytes::from(body)));
        }
        let clean = c.serialize();
        // Flip one bit at several positions across header, metadata, data
        // and trailer: every flip must be detected, never silently read.
        for pos in [2usize, 10, 40, clean.len() / 2, clean.len() - 1] {
            let mut raw = clean.clone();
            raw[pos] ^= 0x10;
            assert!(
                Container::deserialize(&raw, 1 << 16).is_err(),
                "flip at {pos} must be detected"
            );
        }
        assert!(Container::deserialize(&clean, 1 << 16).is_ok());
    }

    #[test]
    fn a_ranged_decode_sees_the_header_the_metadata_and_the_chunks_it_wants() {
        let mut c = Container::new(1 << 16);
        for i in 0..10u64 {
            let body: Vec<u8> = (0..64).map(|j| (i * 3 + j) as u8).collect();
            c.try_append(fp(i), Payload::Real(Bytes::from(body)));
        }
        let clean = c.serialize();
        let odd = |f: &Fingerprint| (1..10).step_by(2).any(|i| *f == fp(i));
        let read = Container::deserialize_chunks(&clean, odd).expect("clean");
        assert_eq!(read.len(), 5);
        for (m, bytes) in &read {
            assert_eq!(Some(bytes.clone()), c.read_chunk(&m.fp));
        }
        // It never reads the trailer or a chunk it does not want: damage
        // there goes unseen, damage in what it parses or returns does not.
        let meta_end = 6 + 32 * 10;
        let mut raw = clean.clone();
        *raw.last_mut().expect("trailer") ^= 1;
        raw[meta_end + 3] ^= 1; // chunk 0, unwanted
        let unseen = Container::deserialize_chunks(&raw, odd).expect("unseen");
        assert_eq!(unseen, read);
        assert!(Container::deserialize(&raw, 1 << 16).is_err());
        let mut raw = clean.clone();
        raw[meta_end + 64 + 3] ^= 1; // chunk 1, wanted: delivered as it reads
        let flipped = Container::deserialize_chunks(&raw, odd).expect("parses");
        assert_ne!(
            flipped[0].1, read[0].1,
            "the caller's hash check is the guard"
        );
        let mut raw = clean.clone();
        raw[0] ^= 1;
        assert_eq!(
            Container::deserialize_chunks(&raw, odd).unwrap_err(),
            CorruptKind::BadMagic
        );
        // A torn image: chunks that end before the tear decode, one that
        // reaches past it is out of the data section.
        let mut torn = clean.clone();
        Damage::Torn.apply(&mut torn, 0);
        let early = |f: &Fingerprint| *f == fp(1);
        assert_eq!(
            Container::deserialize_chunks(&torn, early).expect("before the tear"),
            read[..1]
        );
        assert_eq!(
            Container::deserialize_chunks(&torn, odd).unwrap_err(),
            CorruptKind::BadGeometry("chunk span outside data section")
        );
        assert_eq!(
            Container::deserialize_chunks(&clean[..meta_end], odd).unwrap_err(),
            CorruptKind::Truncated("metadata section")
        );
    }

    #[test]
    fn damage_is_deterministic_and_detected() {
        let mut c = Container::new(1 << 16);
        c.try_append(fp(1), Payload::Zero(500));
        let clean = c.serialize();
        let mut a = clean.clone();
        let mut b = clean.clone();
        Damage::BitFlip.apply(&mut a, 42);
        Damage::BitFlip.apply(&mut b, 42);
        assert_eq!(a, b, "same salt, same damage");
        assert_ne!(a, clean);
        assert_eq!(
            Container::deserialize(&a, 1 << 16).unwrap_err(),
            CorruptKind::ChecksumMismatch
        );
        let mut t = clean.clone();
        Damage::Torn.apply(&mut t, 0);
        assert_eq!(t.len(), clean.len() * 2 / 3);
        assert!(Container::deserialize(&t, 1 << 16).is_err());
    }

    #[test]
    fn chunks_iterates_in_stream_order() {
        let mut c = Container::new(1000);
        c.try_append(fp(1), Payload::Zero(10));
        c.try_append(fp(2), Payload::Real(Bytes::from_static(b"xy")));
        let pairs: Vec<(Fingerprint, Payload)> = c.chunks().collect();
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0], (fp(1), Payload::Zero(10)));
        assert_eq!(pairs[1].0, fp(2));
        assert_eq!(pairs[1].1.len(), 2);
    }

    #[test]
    fn a_record_container_holds_no_payload_column() {
        let mut c = Container::with_chunk_capacity(1 << 16, 64);
        for i in 0..40u64 {
            assert!(c.try_append(fp(i), Payload::Zero(100 + i as u32)));
        }
        assert_eq!(c.payloads.capacity(), 0, "no column for zero-runs");
        assert_eq!(c.clone().payloads.capacity(), 0);
        assert_eq!(c.slot(7).1, Payload::Zero(107));
        // The first real bytes bring the column, the zero-runs back-filled.
        assert!(c.try_append(fp(40), Payload::Real(Bytes::from_static(b"real"))));
        assert_eq!(c.payloads.len(), 41);
        assert_eq!(c.slot(7).1, Payload::Zero(107));
        assert_eq!(c.slot(40).1, Payload::Real(Bytes::from_static(b"real")));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Zero-runs and real bytes appended in any order come back as
        /// appended — fingerprint, variant and bytes — through `chunks`,
        /// `slot` and `find`, and as the same bytes through the wire
        /// format; a container of zero-runs alone has no payload column.
        #[test]
        fn prop_chunks_come_back_as_appended(
            kinds in proptest::collection::vec(0u64..4, 0..60),
            seed: u64,
        ) {
            let mut c = Container::with_chunk_capacity(1 << 20, 16);
            let mut appended = Vec::new();
            for (i, kind) in kinds.iter().enumerate() {
                let n = seed.wrapping_add(i as u64);
                let len = 1 + (n % 97) as usize;
                let payload = if *kind == 0 {
                    Payload::Real(Bytes::from((0..len).map(|j| (n + j as u64) as u8).collect::<Vec<u8>>()))
                } else {
                    Payload::Zero(len as u32)
                };
                proptest::prop_assert!(c.try_append(fp(n), payload.clone()));
                appended.push((fp(n), payload));
            }
            let real = appended.iter().any(|(_, p)| matches!(p, Payload::Real(_)));
            proptest::prop_assert_eq!(c.payloads.capacity() == 0, !real);
            proptest::prop_assert_eq!(c.chunks().collect::<Vec<_>>(), appended.clone());
            for (i, (f, payload)) in appended.iter().enumerate() {
                let (meta, got) = c.slot(i);
                proptest::prop_assert_eq!((meta.fp, meta.len as u64), (*f, payload.len()));
                proptest::prop_assert_eq!(&got, payload);
                let (meta, found) = c.find(f).expect("appended");
                proptest::prop_assert_eq!(meta.fp, *f);
                proptest::prop_assert_eq!(&found, payload);
            }
            let back = Container::deserialize(&c.serialize(), 1 << 20).expect("roundtrip");
            let bytes = |c: &Container| -> Vec<(Fingerprint, Bytes)> {
                c.chunks().map(|(f, p)| (f, p.materialize())).collect()
            };
            proptest::prop_assert_eq!(bytes(&back), bytes(&c));
            proptest::prop_assert_eq!(back.metas(), c.metas());
        }
    }

    #[test]
    fn paper_geometry_1024_chunks() {
        // 8 MB container / 8 KB chunks ≈ 1024 chunks (paper §3.4).
        let mut c = Container::new(DEFAULT_CONTAINER_BYTES);
        let mut n = 0u64;
        while c.try_append(fp(n), Payload::Zero(8192)) {
            n += 1;
        }
        assert_eq!(n, 1024);
    }

    #[test]
    #[should_panic]
    fn oversized_chunk_rejected() {
        Container::new(10).try_append(fp(1), Payload::Zero(11));
    }
}
