//! On-disk index entry and block codecs.
//!
//! An entry is 25 bytes: a 20-byte fingerprint followed by a 5-byte
//! big-endian container ID (paper §4.2: "an entry is 25 bytes"). Entries are
//! packed into 512-byte disk blocks, each holding up to 20 entries behind a
//! 2-byte count header (20 × 25 + 2 = 502 ≤ 512, matching the paper's
//! "a 512-byte disk block ... storing up to 20 fingerprint entries").

use debar_hash::{ContainerId, Fingerprint};

/// Entry width in bytes.
pub const ENTRY_BYTES: usize = 25;
/// Disk block width in bytes.
pub const BLOCK_BYTES: usize = 512;
/// Entries per block.
pub const ENTRIES_PER_BLOCK: usize = 20;
/// Byte offset of the first entry within a block (after the count header).
const HEADER_BYTES: usize = 2;

/// A fingerprint → container mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexEntry {
    /// The chunk fingerprint.
    pub fp: Fingerprint,
    /// The container holding the chunk.
    pub cid: ContainerId,
}

impl IndexEntry {
    /// Create an entry.
    pub fn new(fp: Fingerprint, cid: ContainerId) -> Self {
        IndexEntry { fp, cid }
    }

    /// Encode into a 25-byte buffer.
    pub fn encode_into(&self, out: &mut [u8]) {
        debug_assert_eq!(out.len(), ENTRY_BYTES);
        out[..20].copy_from_slice(self.fp.as_bytes());
        out[20..25].copy_from_slice(&self.cid.to_bytes());
    }

    /// Decode from a 25-byte buffer.
    pub fn decode(raw: &[u8]) -> Self {
        debug_assert_eq!(raw.len(), ENTRY_BYTES);
        let mut fp = [0u8; 20];
        fp.copy_from_slice(&raw[..20]);
        let mut cid = [0u8; 5];
        cid.copy_from_slice(&raw[20..25]);
        IndexEntry {
            fp: Fingerprint(fp),
            cid: ContainerId::from_bytes(cid),
        }
    }
}

/// Number of entries stored in a block.
#[inline]
pub fn block_len(block: &[u8]) -> usize {
    u16::from_le_bytes([block[0], block[1]]) as usize
}

fn set_block_len(block: &mut [u8], len: usize) {
    debug_assert!(len <= ENTRIES_PER_BLOCK);
    block[..2].copy_from_slice(&(len as u16).to_le_bytes());
}

/// Whether the block is at capacity.
#[inline]
pub fn block_full(block: &[u8]) -> bool {
    block_len(block) == ENTRIES_PER_BLOCK
}

/// Byte range of entry `i` within a block.
#[inline]
fn slot(i: usize) -> std::ops::Range<usize> {
    let start = HEADER_BYTES + i * ENTRY_BYTES;
    start..start + ENTRY_BYTES
}

/// Append an entry; returns `false` if the block is full.
pub fn block_push(block: &mut [u8], entry: &IndexEntry) -> bool {
    let len = block_len(block);
    if len == ENTRIES_PER_BLOCK {
        return false;
    }
    entry.encode_into(&mut block[slot(len)]);
    set_block_len(block, len + 1);
    true
}

/// Slot of `fp` within a block — the one entry scan every reader and
/// in-place writer of the index goes through. Each entry's leading 8
/// fingerprint bytes are compared as a native `u64` and the remaining 12
/// bytes only on a prefix match: one integer compare per entry instead of a
/// 20-byte memcmp (SHA-1 uniformity makes prefix collisions vanishingly
/// rare).
#[inline]
fn block_position(block: &[u8], fp: &Fingerprint) -> Option<usize> {
    let bytes = fp.as_bytes();
    let target = u64::from_ne_bytes(bytes[..8].try_into().expect("8 bytes"));
    block[HEADER_BYTES..HEADER_BYTES + block_len(block) * ENTRY_BYTES]
        .chunks_exact(ENTRY_BYTES)
        .position(|s| {
            u64::from_ne_bytes(s[..8].try_into().expect("8 bytes")) == target
                && s[8..20] == bytes[8..]
        })
}

/// Scan a block for a fingerprint.
#[inline]
pub fn block_find(block: &[u8], fp: &Fingerprint) -> Option<ContainerId> {
    block_position(block, fp).map(|i| {
        let mut cid = [0u8; 5];
        cid.copy_from_slice(&block[slot(i)][20..25]);
        ContainerId::from_bytes(cid)
    })
}

/// Overwrite the container ID of an existing entry; returns `false` when the
/// fingerprint is not present.
pub fn block_set_cid(block: &mut [u8], fp: &Fingerprint, cid: ContainerId) -> bool {
    match block_position(block, fp) {
        Some(i) => {
            block[slot(i)][20..25].copy_from_slice(&cid.to_bytes());
            true
        }
        None => false,
    }
}

/// Iterate the entries of a block.
pub fn block_entries(block: &[u8]) -> impl Iterator<Item = IndexEntry> + '_ {
    (0..block_len(block)).map(move |i| IndexEntry::decode(&block[slot(i)]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(n: u64) -> Fingerprint {
        Fingerprint::of_counter(n)
    }

    #[test]
    fn entry_roundtrip() {
        let e = IndexEntry::new(fp(1), ContainerId::new(777));
        let mut buf = [0u8; ENTRY_BYTES];
        e.encode_into(&mut buf);
        assert_eq!(IndexEntry::decode(&buf), e);
    }

    #[test]
    fn null_cid_roundtrip() {
        let e = IndexEntry::new(fp(2), ContainerId::NULL);
        let mut buf = [0u8; ENTRY_BYTES];
        e.encode_into(&mut buf);
        assert!(IndexEntry::decode(&buf).cid.is_null());
    }

    #[test]
    fn block_push_until_full() {
        let mut block = [0u8; BLOCK_BYTES];
        for i in 0..ENTRIES_PER_BLOCK {
            assert!(!block_full(&block));
            assert!(block_push(
                &mut block,
                &IndexEntry::new(fp(i as u64), ContainerId::new(i as u64))
            ));
            assert_eq!(block_len(&block), i + 1);
        }
        assert!(block_full(&block));
        assert!(!block_push(
            &mut block,
            &IndexEntry::new(fp(99), ContainerId::new(99))
        ));
    }

    #[test]
    fn block_find_and_set() {
        let mut block = [0u8; BLOCK_BYTES];
        for i in 0..5u64 {
            block_push(&mut block, &IndexEntry::new(fp(i), ContainerId::NULL));
        }
        assert_eq!(block_find(&block, &fp(3)), Some(ContainerId::NULL));
        assert_eq!(block_find(&block, &fp(50)), None);
        assert!(block_set_cid(&mut block, &fp(3), ContainerId::new(12)));
        assert_eq!(block_find(&block, &fp(3)), Some(ContainerId::new(12)));
        assert!(!block_set_cid(&mut block, &fp(50), ContainerId::new(1)));
    }

    #[test]
    fn block_entries_iterates_in_order() {
        let mut block = [0u8; BLOCK_BYTES];
        let entries: Vec<IndexEntry> = (0..7u64)
            .map(|i| IndexEntry::new(fp(i), ContainerId::new(i * 10)))
            .collect();
        for e in &entries {
            block_push(&mut block, e);
        }
        let read: Vec<IndexEntry> = block_entries(&block).collect();
        assert_eq!(read, entries);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn capacity_math_matches_paper() {
        // 2 + 20*25 = 502 bytes used of 512.
        assert!(HEADER_BYTES + ENTRIES_PER_BLOCK * ENTRY_BYTES <= BLOCK_BYTES);
        // 8 KB bucket = 16 blocks = 320 entries (paper §4.2).
        assert_eq!((8 * 1024 / BLOCK_BYTES) * ENTRIES_PER_BLOCK, 320);
    }
}
