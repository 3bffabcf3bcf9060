//! The Container Manager (paper §3.3): fills containers with new chunks in
//! stream order (the SISL layout) and hands sealed containers to the
//! repository.
//!
//! "SISL writes new chunks to the containers in the logical order that they
//! appear in the backup stream. It hence creates a spatial locality for the
//! chunk access" — the property LPC exploits on reads.
//!
//! The manager holds exactly one container — the open one — and
//! [`ContainerManager::append`] / [`ContainerManager::flush`] hand each
//! sealed container to the caller at the moment it seals. What happens to
//! it next is the caller's: the chunk-storing pack stage collects a pass's
//! containers (with the drain position each sealed at) and commits them as
//! one `ChunkRepository::store_batch`; the capping pass and the DDFS
//! baseline store each one as it seals.
//!
//! Containers are pre-sized for `capacity / expected-chunk-size` chunks
//! (paper §3.2/§3.4: 8 MB containers, 8 KB expected chunks ⇒ ~1024 chunk
//! slots), so the drain loop appends without per-chunk buffer growth.

use crate::container::Container;
use crate::container::Payload;
use debar_hash::Fingerprint;

/// Expected chunk size used to pre-size container buffers (paper §3.2).
const EXPECTED_CHUNK_BYTES: u64 = 8 * 1024;

/// Stream-order container filler.
#[derive(Debug, Clone)]
pub struct ContainerManager {
    capacity: u64,
    /// Chunk-slot hint for pre-sizing fresh containers.
    chunk_hint: usize,
    open: Container,
}

impl ContainerManager {
    /// Create a manager producing containers of `capacity` data bytes.
    pub fn new(capacity: u64) -> Self {
        let chunk_hint = (capacity / EXPECTED_CHUNK_BYTES).clamp(1, 1 << 16) as usize;
        ContainerManager {
            capacity,
            chunk_hint,
            open: Container::with_chunk_capacity(capacity, chunk_hint),
        }
    }

    /// A fresh, pre-sized container.
    fn fresh(&self) -> Container {
        Container::with_chunk_capacity(self.capacity, self.chunk_hint)
    }

    /// Append a chunk in stream order. When the open container cannot take
    /// the chunk, it is sealed and returned (ready for repository storage)
    /// and a fresh container receives the chunk.
    pub fn append(&mut self, fp: Fingerprint, payload: Payload) -> Option<Container> {
        if self.open.try_append(fp, payload.clone()) {
            return None;
        }
        let fresh = self.fresh();
        let sealed = std::mem::replace(&mut self.open, fresh);
        let ok = self.open.try_append(fp, payload);
        debug_assert!(ok, "chunk must fit an empty container");
        Some(sealed)
    }

    /// Seal and return the open container if it holds any chunks (end of a
    /// chunk-storing pass, §5.3).
    pub fn flush(&mut self) -> Option<Container> {
        if self.open.is_empty() {
            return None;
        }
        let fresh = self.fresh();
        Some(std::mem::replace(&mut self.open, fresh))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(n: u64) -> Fingerprint {
        Fingerprint::of_counter(n)
    }

    #[test]
    fn seals_when_full() {
        let mut m = ContainerManager::new(100);
        assert!(m.append(fp(1), Payload::Zero(60)).is_none());
        // 60 + 60 > 100: seals the first container.
        let sealed = m.append(fp(2), Payload::Zero(60)).expect("should seal");
        assert_eq!(sealed.len(), 1);
        assert_eq!(sealed.fingerprints().next(), Some(fp(1)));
        let open = m
            .flush()
            .expect("the trigger chunk opened the next container");
        assert_eq!(open.fingerprints().next(), Some(fp(2)));
    }

    #[test]
    fn flush_returns_partial_container() {
        let mut m = ContainerManager::new(100);
        assert!(m.flush().is_none(), "nothing to flush");
        m.append(fp(1), Payload::Zero(10));
        let sealed = m.flush().expect("partial container");
        assert_eq!(sealed.len(), 1);
        assert!(m.flush().is_none());
    }

    #[test]
    fn sisl_stream_order_across_containers() {
        let mut m = ContainerManager::new(64);
        let mut sealed_fps = Vec::new();
        for i in 0..10u64 {
            if let Some(c) = m.append(fp(i), Payload::Zero(20)) {
                sealed_fps.extend(c.fingerprints());
            }
        }
        if let Some(c) = m.flush() {
            sealed_fps.extend(c.fingerprints());
        }
        // Every chunk present, in exactly stream order.
        assert_eq!(sealed_fps, (0..10u64).map(fp).collect::<Vec<_>>());
    }

    #[test]
    fn exact_fit_does_not_seal_early() {
        let mut m = ContainerManager::new(100);
        assert!(m.append(fp(1), Payload::Zero(50)).is_none());
        assert!(
            m.append(fp(2), Payload::Zero(50)).is_none(),
            "exact fit stays open"
        );
        let sealed = m.append(fp(3), Payload::Zero(1)).expect("now seals");
        assert_eq!(sealed.len(), 2);
    }
}
