//! The preliminary filter (paper §5.1).
//!
//! "Based on the fact that multiple running instances of the same job object
//! form a chronologically ordered job chain ... we use the fingerprints of
//! the dataset of Job(t_{n−1}) as filtering fingerprints to filter
//! duplication in the dataset of Job(t_n)."
//!
//! Semantics implemented here:
//!
//! * The filter is **primed** with the previous run's fingerprints (marked
//!   *old*). These represent chunks the system already holds (or has already
//!   scheduled for storage).
//! * For each incoming fingerprint: if present (old *or* new) the chunk is a
//!   **duplicate** — it is not transferred. If absent it is inserted marked
//!   *new* and the chunk is **transferred** to the on-disk chunk log.
//! * When the backup finishes, the *new*-marked fingerprints are collected
//!   into the **undetermined fingerprint file** — they may still duplicate
//!   older system content and must be resolved by SIL in phase II.
//!
//! (The paper's prose at this point contains an evident typo — "If it is not
//! new, its node is marked as 'new'" — which would re-submit already-stored
//! chunks to SIL; we implement the consistent reading above. Correctness is
//! insensitive to the choice: dedup-2's container-ID-null check discards any
//! chunk logged twice.)
//!
//! # Streaming the filtering fingerprints
//!
//! The filtering fingerprints are a **file the filter streams**, not a set
//! it is filled with once — the paper loads them "group by group" when a
//! job is larger than the filter's memory. [`PrelimFilter::prime`] keeps the
//! previous run's fingerprints in stream order and loads from the head
//! until the filter is full; for a file that fits, that is all that ever
//! happens. Thereafter the filter keeps an **estimate of the stream's
//! position in the file**:
//!
//! * the estimate advances one step per fingerprint checked (successive
//!   versions of a job re-send the same extents in the same order);
//! * it is re-anchored to `p + 1` whenever four checks in a row hit
//!   consecutive file positions ending at `p`, and `p` lies within a
//!   quarter of the capacity of the estimate. The run confirms that the
//!   stream really is *there* (one hit proves nothing: popular fingerprints
//!   sit at many positions); the distance bound keeps a run the file holds
//!   twice, far apart, from dragging the window away;
//! * before every lookup the filter loads on until a quarter of its
//!   capacity lies ahead of the estimate.
//!
//! So the resident primed entries are a window of the file around the
//! stream's position, and a version that grows, shrinks or is edited in
//! place keeps being filtered at any version ÷ capacity ratio. The limits:
//! one insertion or deletion larger than the quarter window moves the
//! stream out of the window before a run can confirm the new position, and
//! the rest of that version is filtered by stream-inserted nodes only; and
//! a run the file holds twice *within* a quarter of the capacity can
//! re-anchor the estimate onto the wrong copy — the next run on the
//! stream's own track pulls it back, unless wrong copies in a row have
//! carried it more than a quarter away.
//!
//! The file stands for the on-disk filtering-fingerprint file of the paper:
//! it is not part of the filter's memory budget, and reading it (20 bytes
//! per chunk of the previous run, sequentially) is not charged.
//!
//! # Replacement
//!
//! Replacement is by **position**, then the paper's "FIFO combined with
//! LRU". The victim is
//!
//! 1. a primed entry more than a quarter of the capacity *behind* the
//!    estimate, oldest first — the stream has passed it, and being *old* it
//!    is never spilled; else
//! 2. a stream-inserted node by second-chance (CLOCK): victims in insertion
//!    order, a recently referenced node gets one reprieve. Evicting a *new*
//!    node must not lose it from the undetermined set, so its fingerprint
//!    is spilled to the undetermined collection immediately (the chunk is
//!    already in the chunk log; a later re-appearance is simply re-logged
//!    and discarded as a duplicate during chunk storing); else
//! 3. the furthest-behind primed entry.
//!
//! Primed entries therefore sit in a position-ordered queue — the file
//! itself: the resident ones are a subset of the positions between the
//! oldest not yet evicted and the next to load — and only stream-inserted
//! nodes are in the CLOCK queue. A primed node needs neither flags (it is
//! old, and recency is not what protects it) nor a queue link, so its file
//! position takes their place in the 8 non-fingerprint bytes of a node and
//! [`NODE_BYTES`] covers both kinds.
//!
//! Why position and not recency. With one FIFO/CLOCK queue over both kinds
//! of node, a version larger than the filter evicts primed entries in *file
//! order* — the first victims are exactly the entries the stream is about
//! to reach — and the second chance reprieves precisely the entries the
//! stream has just hit, which it has passed and will not need again. The
//! catch rate of such a filter falls as capacity ÷ version; `BENCH_filter.json`
//! has both curves.

use debar_hash::{Fingerprint, FpMap, FpSet};
use std::collections::VecDeque;

/// Verdict for one incoming fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterVerdict {
    /// Chunk must be transferred from the client and appended to the chunk
    /// log; its fingerprint joins the undetermined set.
    Transfer,
    /// Chunk is a known duplicate; only the fingerprint reference is kept
    /// (for the file index), no data moves.
    Duplicate,
}

/// Counters describing filter behaviour during a backup.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrelimStats {
    /// Fingerprints checked.
    pub checks: u64,
    /// Verdicts that required a transfer (new chunks).
    pub transfers: u64,
    /// Duplicate verdicts.
    pub duplicates: u64,
    /// Nodes evicted by replacement.
    pub evictions: u64,
    /// Evicted *new* nodes spilled to the undetermined set.
    pub spills: u64,
    /// Filtering fingerprints loaded from the primed file into a node of
    /// their own, by [`PrelimFilter::prime`] and by streaming since.
    pub primed_loaded: u64,
}

#[derive(Debug, Clone, Copy)]
enum Node {
    /// Loaded from the filtering file, at this position. Always *old*.
    Primed(usize),
    /// Inserted by the stream; linked into the CLOCK queue.
    Stream { is_new: bool, referenced: bool },
}

/// The preliminary filter: a capacity-bounded fingerprint table that
/// streams its filtering fingerprints past the backup stream's position,
/// replaces by position and second chance, and collects the undetermined
/// fingerprints (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct PrelimFilter {
    nodes: FpMap<Node>,
    /// Insertion-order queue of the stream-inserted nodes, for
    /// FIFO/second-chance replacement.
    queue: VecDeque<Fingerprint>,
    capacity: usize,
    /// The filtering fingerprints, in the previous run's stream order.
    file: Vec<Fingerprint>,
    /// `file[tail..head]` is the position-ordered queue of primed entries:
    /// position `p` in it is resident iff `nodes[file[p]]` is `Primed(p)`
    /// (it may have been evicted, or the file holds the fingerprint again
    /// further on). `head` is the next position to load.
    tail: usize,
    head: usize,
    /// Estimated file position of the next fingerprint of the stream.
    estimate: usize,
    /// The last check hit file position `run_end`, ending `run_len`
    /// consecutive checks that hit consecutive positions (0: it did not
    /// hit a primed entry).
    run_end: usize,
    run_len: usize,
    spilled: Vec<Fingerprint>,
    stats: PrelimStats,
}

/// Memory footprint of one filter node (20-byte fingerprint + flags and
/// queue link, or file position); the unit [`PrelimFilter::with_memory`]
/// divides a budget by.
pub const NODE_BYTES: u64 = 28;

/// Checks in a row that must hit consecutive file positions before the
/// position estimate is re-anchored there.
const CONFIRM_HITS: usize = 4;

impl PrelimFilter {
    /// Create a filter holding at most `capacity` fingerprints. Its table
    /// starts empty: [`PrelimFilter::prime`] reserves room for what the
    /// file can load, and the stream grows it from there.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "filter capacity must be positive");
        PrelimFilter {
            nodes: FpMap::default(),
            queue: VecDeque::new(),
            capacity,
            file: Vec::new(),
            tail: 0,
            head: 0,
            estimate: 0,
            run_end: 0,
            run_len: 0,
            spilled: Vec::new(),
            stats: PrelimStats::default(),
        }
    }

    /// Create a filter sized for a memory budget ([`NODE_BYTES`] per node).
    ///
    /// # Panics
    /// Panics if `bytes` cannot hold even one node — mirroring
    /// `BloomFilter::with_memory`, a zero (or sub-node) budget is a
    /// configuration error, not a silent one-entry filter. Use
    /// [`PrelimFilter::try_with_memory`] for the fallible form.
    pub fn with_memory(bytes: u64) -> Self {
        match Self::try_with_memory(bytes) {
            Some(f) => f,
            None => panic!("filter memory budget below one {NODE_BYTES}-byte node: {bytes}"),
        }
    }

    /// Fallible form of [`PrelimFilter::with_memory`]: `None` if the budget
    /// cannot hold a single [`NODE_BYTES`]-sized node.
    pub fn try_with_memory(bytes: u64) -> Option<Self> {
        if bytes < NODE_BYTES {
            return None;
        }
        Some(Self::new((bytes / NODE_BYTES) as usize))
    }

    /// Number of resident fingerprints.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the filter is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Fingerprint capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Behaviour counters.
    pub fn stats(&self) -> PrelimStats {
        self.stats
    }

    /// Prime the filter with the filtering fingerprints of the previous run
    /// of the job chain, **in that run's stream order**. They are the file
    /// the filter streams (handed a `Vec`, `prime` keeps it — no copy):
    /// entries load from the head, as *old* nodes that never join the
    /// undetermined set, until the filter is full, and [`PrelimFilter::check`]
    /// loads on as the stream advances. A file that fits is resident whole
    /// from here on.
    ///
    /// A fingerprint already resident when its file position loads keeps
    /// its node: priming over a *new*-marked entry must not downgrade it
    /// (that would drop the chunk from the undetermined set and it would
    /// never reach dedup-2), and a reprieve earned via `referenced`
    /// survives too.
    ///
    /// Priming again replaces the file and restarts the position estimate
    /// at its head; entries still resident from the file before stay, as
    /// old stream-inserted nodes.
    pub fn prime(&mut self, filtering: impl IntoIterator<Item = Fingerprint>) {
        for p in self.tail..self.head {
            if self.resident_at(p) {
                let old = Node::Stream {
                    is_new: false,
                    referenced: false,
                };
                self.nodes.insert(self.file[p], old);
                self.queue.push_back(self.file[p]);
            }
        }
        self.file = filtering.into_iter().collect();
        (self.tail, self.head, self.estimate, self.run_len) = (0, 0, 0, 0);
        // Room for what the file can load; the stream grows the table past
        // it, up to the capacity.
        let room = self.capacity.saturating_sub(self.nodes.len());
        self.nodes.reserve(room.min(self.file.len()));
        while self.head < self.file.len() && self.nodes.len() < self.capacity {
            self.load_next();
        }
    }

    /// Check one incoming fingerprint and decide whether its chunk must be
    /// transferred. Streams the filtering file first, so that a quarter of
    /// the capacity lies ahead of the estimated position, and moves the
    /// estimate after (module docs).
    pub fn check(&mut self, fp: Fingerprint) -> FilterVerdict {
        self.stats.checks += 1;
        let want = (self.estimate + self.ahead()).min(self.file.len());
        while self.head < want && self.load_next() {}
        let (hit, primed) = match self.nodes.get_mut(&fp) {
            Some(Node::Primed(p)) => (true, Some(*p)),
            Some(Node::Stream { referenced, .. }) => {
                *referenced = true;
                (true, None)
            }
            None => (false, None),
        };
        self.advance_estimate(primed);
        if hit {
            self.stats.duplicates += 1;
            return FilterVerdict::Duplicate;
        }
        self.stats.transfers += 1;
        if self.nodes.len() >= self.capacity && !self.evict_one() {
            // No victim could be freed (the replacement queues were
            // exhausted, e.g. after external state corruption): the capacity
            // bound still holds. The fingerprint is not lost — it goes
            // straight to the undetermined spill, exactly as if it had been
            // inserted and immediately evicted.
            self.spilled.push(fp);
            self.stats.spills += 1;
            return FilterVerdict::Transfer;
        }
        self.nodes.insert(
            fp,
            Node::Stream {
                is_new: true,
                referenced: false,
            },
        );
        self.queue.push_back(fp);
        FilterVerdict::Transfer
    }

    /// The file position of the primed entry the last [`PrelimFilter::check`]
    /// hit, `None` if it hit none: a transfer, or a hit on a
    /// stream-inserted node. The file holds the checked fingerprint there.
    pub fn last_primed_hit(&self) -> Option<usize> {
        (self.run_len > 0).then_some(self.run_end)
    }

    /// The look-behind, and the re-anchoring tolerance.
    fn quarter(&self) -> usize {
        self.capacity / 4
    }

    /// The look-ahead: a quarter, but never nothing.
    fn ahead(&self) -> usize {
        self.quarter().max(1)
    }

    /// Load the next file position, evicting for it when the filter is
    /// full. Returns `false` if no slot could be freed.
    fn load_next(&mut self) -> bool {
        let fp = self.file[self.head];
        match self.nodes.get_mut(&fp) {
            // The file holds the fingerprint again: the entry moves up to
            // the later position.
            Some(Node::Primed(p)) => *p = self.head,
            Some(Node::Stream { .. }) => {}
            None => {
                if self.nodes.len() >= self.capacity && !self.evict_one() {
                    return false;
                }
                self.nodes.insert(fp, Node::Primed(self.head));
                self.stats.primed_loaded += 1;
            }
        }
        self.head += 1;
        true
    }

    /// One check has been looked up; it hit the primed entry of file
    /// position `primed`, if any. Step the estimate, or re-anchor it.
    fn advance_estimate(&mut self, primed: Option<usize>) {
        self.run_len = match primed {
            Some(p) if self.run_len > 0 && p == self.run_end + 1 => self.run_len + 1,
            Some(_) => 1,
            None => 0,
        };
        if let Some(p) = primed {
            self.run_end = p;
            if self.run_len >= CONFIRM_HITS && p.abs_diff(self.estimate) <= self.quarter() {
                self.estimate = p;
            }
        }
        self.estimate += 1;
    }

    /// Whether the primed entry of file position `p` is resident.
    fn resident_at(&self, p: usize) -> bool {
        matches!(self.nodes.get(&self.file[p]), Some(Node::Primed(at)) if *at == p)
    }

    /// The resident primed entry furthest behind, if any.
    fn primed_tail(&mut self) -> Option<usize> {
        while self.tail < self.head && !self.resident_at(self.tail) {
            self.tail += 1;
        }
        (self.tail < self.head).then_some(self.tail)
    }

    /// Free one slot by the three-step rule of the module docs. Returns
    /// whether a slot was freed; `false` means both queues ran dry without
    /// producing a victim, and the caller must not insert.
    fn evict_one(&mut self) -> bool {
        let tail = self.primed_tail();
        let passed = tail.filter(|p| p + self.quarter() < self.estimate);
        if passed.is_none() && self.evict_stream() {
            return true;
        }
        let Some(p) = tail else {
            return false;
        };
        self.nodes.remove(&self.file[p]);
        self.tail = p + 1;
        self.stats.evictions += 1;
        true
    }

    /// Second-chance (CLOCK) eviction of a stream-inserted node.
    fn evict_stream(&mut self) -> bool {
        while let Some(candidate) = self.queue.pop_front() {
            let Some(Node::Stream { is_new, referenced }) = self.nodes.get_mut(&candidate) else {
                continue; // stale queue slot
            };
            if *referenced {
                *referenced = false;
                self.queue.push_back(candidate);
                continue;
            }
            if *is_new {
                self.spilled.push(candidate);
                self.stats.spills += 1;
            }
            self.nodes.remove(&candidate);
            self.stats.evictions += 1;
            return true;
        }
        false
    }

    /// Collect the undetermined fingerprints accumulated since the last
    /// collection: every *new*-marked resident node (in insertion order)
    /// plus any new nodes that were evicted, de-duplicated (an evicted
    /// fingerprint can re-enter the filter and be spilled again). Residents
    /// are downgraded to *old* (they now act as filtering fingerprints for
    /// the rest of the session). Every stream-inserted node is in the CLOCK
    /// queue, so walking it reaches every *new* mark; primed nodes are
    /// never new.
    pub fn take_undetermined(&mut self) -> Vec<Fingerprint> {
        let mut out = std::mem::take(&mut self.spilled);
        for fp in &self.queue {
            if let Some(Node::Stream { is_new, .. }) = self.nodes.get_mut(fp) {
                if *is_new {
                    *is_new = false;
                    out.push(*fp);
                }
            }
        }
        let mut seen = FpSet::with_capacity_and_hasher(out.len(), Default::default());
        out.retain(|fp| seen.insert(*fp));
        out
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use debar_workload::drift::{base_version, with_popular, Drift};
    use debar_workload::ChunkRecord;

    fn fp(n: u64) -> Fingerprint {
        Fingerprint::of_counter(n)
    }

    #[test]
    fn new_fingerprint_transfers_duplicate_does_not() {
        let mut f = PrelimFilter::new(100);
        assert_eq!(f.check(fp(1)), FilterVerdict::Transfer);
        assert_eq!(f.check(fp(1)), FilterVerdict::Duplicate);
        assert_eq!(f.check(fp(2)), FilterVerdict::Transfer);
        let s = f.stats();
        assert_eq!(s.checks, 3);
        assert_eq!(s.transfers, 2);
        assert_eq!(s.duplicates, 1);
    }

    #[test]
    fn primed_fingerprints_filter_adjacent_version_dups() {
        let mut f = PrelimFilter::new(100);
        f.prime((0..50).map(fp));
        // Previous-version chunks: duplicates, no transfer.
        for i in 0..50 {
            assert_eq!(f.check(fp(i)), FilterVerdict::Duplicate, "fp {i}");
        }
        // Genuinely new content transfers.
        assert_eq!(f.check(fp(100)), FilterVerdict::Transfer);
        // Primed fingerprints never enter the undetermined set.
        let und = f.take_undetermined();
        assert_eq!(und, vec![fp(100)]);
    }

    #[test]
    fn last_primed_hit_names_the_file_position_a_check_hit() {
        let mut f = PrelimFilter::new(100);
        assert_eq!(f.last_primed_hit(), None);
        f.prime([1, 2, 3, 1, 4].map(fp));
        assert_eq!(f.check(fp(2)), FilterVerdict::Duplicate);
        assert_eq!(f.last_primed_hit(), Some(1));
        // A fingerprint the file holds twice names the later position.
        f.check(fp(1));
        assert_eq!(f.last_primed_hit(), Some(3));
        // A transfer, and a hit on the node it inserted, name none.
        assert_eq!(f.check(fp(9)), FilterVerdict::Transfer);
        assert_eq!(f.last_primed_hit(), None);
        assert_eq!(f.check(fp(9)), FilterVerdict::Duplicate);
        assert_eq!(f.last_primed_hit(), None);
        f.check(fp(4));
        assert_eq!(f.last_primed_hit(), Some(4));
        f.prime([4].map(fp));
        assert_eq!(f.last_primed_hit(), None);
    }

    #[test]
    fn undetermined_collects_new_in_insertion_order() {
        let mut f = PrelimFilter::new(100);
        f.prime((1000..1010).map(fp));
        for i in [5u64, 3, 9] {
            f.check(fp(i));
        }
        f.check(fp(1001)); // duplicate of primed — must not appear
        assert_eq!(f.take_undetermined(), vec![fp(5), fp(3), fp(9)]);
        // Second collection is empty (nodes downgraded to old).
        assert!(f.take_undetermined().is_empty());
        // But the downgraded nodes still filter duplicates.
        assert_eq!(f.check(fp(5)), FilterVerdict::Duplicate);
    }

    #[test]
    fn eviction_spills_new_fingerprints() {
        let mut f = PrelimFilter::new(4);
        for i in 0..10u64 {
            assert_eq!(f.check(fp(i)), FilterVerdict::Transfer);
        }
        assert_eq!(f.len(), 4);
        let und = f.take_undetermined();
        // All 10 must be in the undetermined set: 6 spilled + 4 resident.
        assert_eq!(und.len(), 10);
        for i in 0..10u64 {
            assert!(und.contains(&fp(i)), "lost fp {i}");
        }
        assert_eq!(f.stats().spills, 6);
    }

    #[test]
    fn second_chance_protects_hot_entries() {
        let mut f = PrelimFilter::new(4);
        for i in 0..4u64 {
            f.check(fp(i));
        }
        // Touch fp(0): referenced bit set.
        assert_eq!(f.check(fp(0)), FilterVerdict::Duplicate);
        // Inserting a 5th evicts fp(1) (fp(0) gets its second chance).
        f.check(fp(100));
        assert_eq!(
            f.check(fp(0)),
            FilterVerdict::Duplicate,
            "hot entry evicted"
        );
        assert_eq!(
            f.check(fp(1)),
            FilterVerdict::Transfer,
            "cold entry should be gone"
        );
    }

    #[test]
    fn prime_respects_capacity() {
        let mut f = PrelimFilter::new(5);
        f.prime((0..100).map(fp));
        assert_eq!(f.len(), 5);
        // No spills from priming (old nodes).
        assert_eq!(f.stats().spills, 0);
    }

    #[test]
    fn with_memory_capacity() {
        let f = PrelimFilter::with_memory(28 * 1000);
        assert_eq!(f.capacity(), 1000);
        // 1 GB filter (the paper's configuration) holds tens of millions.
        let big = PrelimFilter::with_memory(1 << 30);
        assert!(big.capacity() > 30_000_000);
    }

    #[test]
    fn with_memory_zero_budget_is_rejected() {
        // Consistent with `BloomFilter::with_memory(0, k)`: a budget that
        // cannot hold one node is a typed error, not a silent 1-entry
        // filter.
        assert!(PrelimFilter::try_with_memory(0).is_none());
        assert!(PrelimFilter::try_with_memory(NODE_BYTES - 1).is_none());
        let f = PrelimFilter::try_with_memory(NODE_BYTES).expect("one node fits");
        assert_eq!(f.capacity(), 1);
        let r = std::panic::catch_unwind(|| PrelimFilter::with_memory(0));
        assert!(r.is_err(), "with_memory(0) must panic");
    }

    #[test]
    fn check_holds_capacity_bound_when_queue_is_exhausted() {
        // Regression: with a full table but an empty replacement queue,
        // `evict_one` used to bail out silently and `check` inserted past
        // `capacity`. The state is unreachable through the public API (the
        // queue mirrors the resident set), so manufacture it directly.
        let mut f = PrelimFilter::new(4);
        for i in 0..4u64 {
            f.check(fp(i));
        }
        assert_eq!(f.len(), f.capacity());
        f.queue.clear(); // corrupt: residents with no replacement slots
        assert_eq!(f.check(fp(100)), FilterVerdict::Transfer);
        assert!(
            f.len() <= f.capacity(),
            "check must never grow past capacity (len {} > cap {})",
            f.len(),
            f.capacity()
        );
        // The fingerprint is not lost: it was spilled to the undetermined
        // set instead of being inserted.
        assert!(f.take_undetermined().contains(&fp(100)));
    }

    #[test]
    fn prime_preserves_resident_new_nodes() {
        // Regression: priming over a fingerprint already checked in as
        // *new* used to overwrite the node with `is_new: false`, silently
        // dropping the chunk from the undetermined set — it would never
        // reach dedup-2 and could never be stored.
        let mut f = PrelimFilter::new(100);
        assert_eq!(f.check(fp(7)), FilterVerdict::Transfer);
        // A later job in the same session primes with an overlapping chain.
        f.prime([fp(7), fp(8)]);
        let und = f.take_undetermined();
        assert!(
            und.contains(&fp(7)),
            "prime collision dropped a new fingerprint from the undetermined set"
        );
        // The primed-only fingerprint stays old.
        assert!(!und.contains(&fp(8)));
    }

    #[test]
    fn prime_preserves_referenced_bit() {
        let mut f = PrelimFilter::new(4);
        for i in 0..4u64 {
            f.check(fp(i));
        }
        f.check(fp(0)); // referenced
        f.prime([fp(0)]); // collision must not clear the reprieve
        f.check(fp(100)); // evicts fp(1), not the hot fp(0)
        assert_eq!(f.check(fp(0)), FilterVerdict::Duplicate, "reprieve lost");
    }

    #[test]
    fn internal_duplication_within_one_run_is_filtered() {
        // "the internal duplication of a job dataset can be easily
        // identified instead of resorting to the index lookup" (§5.1).
        let mut f = PrelimFilter::new(1000);
        let stream: Vec<u64> = vec![1, 2, 3, 1, 2, 3, 1, 2, 3, 4];
        let transfers = stream
            .iter()
            .filter(|&&i| f.check(fp(i)) == FilterVerdict::Transfer)
            .count();
        assert_eq!(transfers, 4, "only unique chunks transfer");
    }

    // ---- Streaming laws: a filter of bounded capacity against an
    // unbounded one fed the same file and stream. ----

    fn fps(version: &[ChunkRecord]) -> Vec<Fingerprint> {
        version.iter().map(|r| r.fp).collect()
    }

    /// A filter of `capacity`, primed with `file`, after checking `stream`.
    fn filtered(capacity: usize, file: &[Fingerprint], stream: &[Fingerprint]) -> PrelimFilter {
        let mut f = PrelimFilter::new(capacity);
        f.prime(file.to_vec());
        for fp in stream {
            f.check(*fp);
        }
        f
    }

    /// The share of the duplicates an unbounded filter catches that one of
    /// `capacity` catches.
    fn catch_rate(capacity: usize, file: &[Fingerprint], stream: &[Fingerprint]) -> f64 {
        let dups = |cap| filtered(cap, file, stream).stats().duplicates as f64;
        dups(capacity) / dups(file.len() + stream.len())
    }

    const CAP: usize = 1000;

    #[test]
    fn fitting_file_and_unfilled_filter_decide_like_a_set() {
        // Law (a): nothing streams and nothing is evicted, so verdicts and
        // the undetermined set are those of plain set membership — what the
        // filter gave before it streamed.
        let prev = base_version(600);
        let mut stream = fps(&Drift::Grow.apply(&prev));
        stream.extend_from_within(575..625); // a repeat of old and new chunks
        let file = fps(&prev);
        let mut f = PrelimFilter::new(2000);
        f.prime(file.clone());
        let mut known: std::collections::HashSet<_> = file.iter().copied().collect();
        let mut first_seen = Vec::new();
        for fp in &stream {
            let expect = if known.insert(*fp) {
                first_seen.push(*fp);
                FilterVerdict::Transfer
            } else {
                FilterVerdict::Duplicate
            };
            assert_eq!(f.check(*fp), expect);
        }
        let s = f.stats();
        // Probed at the parent commit (one FIFO/CLOCK queue, no streaming).
        assert_eq!((s.transfers, s.duplicates), (60, 650));
        assert_eq!((s.evictions, s.primed_loaded), (0, 600));
        assert_eq!(f.take_undetermined(), first_seen);
    }

    #[test]
    fn version_four_times_the_filter_is_followed_through_drift() {
        // Law (b). One queue over both kinds of node caught 0.25, 0.28,
        // 0.025 and 0.25 of these: it kept the head of the file and
        // evicted, in file order, what the stream was about to reach.
        let prev = base_version(4 * CAP);
        for drift in [
            Drift::Identical,
            Drift::ReplacedInPlace,
            Drift::Grow,
            Drift::Shrink,
        ] {
            let rate = catch_rate(CAP, &fps(&prev), &fps(&drift.apply(&prev)));
            assert!(rate >= 0.99, "{drift:?}: caught {rate:.4}");
        }
    }

    #[test]
    fn one_block_is_followed_while_it_fits_the_window() {
        // Law (c): a single inserted or deleted block of a tenth of the
        // version. At 2x it is shorter than the quarter window and the
        // stream is found again behind it.
        let prev = base_version(2 * CAP);
        for drift in [Drift::InsertBlock, Drift::DeleteBlock] {
            let rate = catch_rate(CAP, &fps(&prev), &fps(&drift.apply(&prev)));
            assert!(rate >= 0.99, "{drift:?} at 2x: caught {rate:.4}");
        }
        // At 4x it is longer, and the position is lost for the rest of the
        // version (the documented limit) — which still catches the third of
        // the version before the block, where one queue caught the quarter
        // that fitted: 1000 of 4000 and of 3600.
        let prev = base_version(4 * CAP);
        for (drift, one_queue) in [(Drift::InsertBlock, 0.25), (Drift::DeleteBlock, 0.2778)] {
            let rate = catch_rate(CAP, &fps(&prev), &fps(&drift.apply(&prev)));
            assert!(rate >= one_queue, "{drift:?} at 4x: caught {rate:.4}");
        }
    }

    #[test]
    fn popular_fingerprints_all_over_the_file_cost_next_to_nothing() {
        // Law (d): 5% of the file's positions repeat 16 popular
        // fingerprints. Their hits land far from the run the stream is on
        // and must neither drag the estimate along nor be missed.
        let file = fps(&with_popular(&base_version(4 * CAP), 0.05, 7));
        let rate = catch_rate(CAP, &file, &file);
        assert!(rate > 0.995, "caught {rate:.4}");
    }

    #[test]
    fn evicted_primed_entries_are_never_undetermined() {
        let file = fps(&base_version(4 * CAP));
        let mut f = filtered(CAP, &file, &file);
        let s = f.stats();
        assert!(s.evictions >= 3 * CAP as u64 - 1, "{s:?}");
        assert_eq!(s.spills, 0);
        // Every file entry was loaded once and hit once.
        assert_eq!((s.primed_loaded, s.duplicates), (4000, 4000));
        assert!(f.take_undetermined().is_empty());
    }

    #[test]
    fn second_prime_restarts_the_estimate() {
        let a = fps(&base_version(4 * CAP));
        let b: Vec<_> = (1 << 20..(1 << 20) + 4 * CAP as u64).map(fp).collect();
        let mut f = filtered(CAP, &a, &a);
        let before = f.stats().duplicates;
        // Were the estimate left at the end of `a`, the first check would
        // stream the head of `b` straight through the filter.
        f.prime(b.clone());
        for fp in &b {
            f.check(*fp);
        }
        let caught = (f.stats().duplicates - before) as f64 / b.len() as f64;
        assert!(caught >= 0.99, "caught {caught:.4} of the second file");
        assert!(f.len() <= f.capacity());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        #[test]
        fn prop_no_undetermined_fingerprint_lost(
            file in proptest::collection::vec(proptest::any::<u8>(), 16..64),
            stream: Vec<u8>,
            cap in 1usize..16,
        ) {
            // Every fingerprint that got a Transfer verdict must appear in
            // the undetermined set exactly once, regardless of evictions —
            // and of a primed file, longer than the capacity, streaming
            // through the same slots.
            let mut f = PrelimFilter::new(cap);
            f.prime(file.iter().map(|&b| fp(b as u64)));
            let mut transferred = std::collections::HashSet::new();
            for &b in &stream {
                if f.check(fp(b as u64)) == FilterVerdict::Transfer {
                    transferred.insert(fp(b as u64));
                }
            }
            let und = f.take_undetermined();
            let und_set: std::collections::HashSet<_> = und.iter().copied().collect();
            proptest::prop_assert_eq!(und.len(), und_set.len(), "duplicate in undetermined set");
            proptest::prop_assert_eq!(und_set, transferred);
        }

        #[test]
        fn prop_len_bounded_under_arbitrary_interleavings(ops: Vec<u8>, cap in 1usize..12) {
            // `len() <= capacity()` must hold after every operation, for any
            // interleaving of check / prime / take_undetermined. Each byte
            // encodes one op: low bits pick the op, high bits the fingerprint.
            let mut f = PrelimFilter::new(cap);
            for &b in &ops {
                let v = (b >> 2) as u64;
                match b & 0b11 {
                    0 | 1 => {
                        f.check(fp(v));
                    }
                    2 => f.prime((v..v + 24).map(fp)), // longer than any `cap`
                    _ => {
                        f.take_undetermined();
                    }
                }
                proptest::prop_assert!(
                    f.len() <= f.capacity(),
                    "len {} exceeded capacity {}",
                    f.len(),
                    f.capacity()
                );
            }
        }

        #[test]
        fn prop_take_undetermined_exactly_once_per_window(
            file in proptest::collection::vec(proptest::any::<u8>(), 16..64),
            windows: Vec<Vec<u8>>,
            cap in 1usize..12,
        ) {
            // Across successive take_undetermined windows, every fingerprint
            // that earned a Transfer verdict inside a window is returned by
            // that window's collection exactly once (spilled and resident
            // paths de-duplicated), and never re-returned by a later window
            // unless it transferred again — while a primed file longer than
            // the capacity streams through.
            let mut f = PrelimFilter::new(cap);
            f.prime(file.iter().map(|&b| fp(b as u64)));
            for window in &windows {
                let mut transferred = std::collections::HashSet::new();
                for &b in window {
                    if f.check(fp(b as u64)) == FilterVerdict::Transfer {
                        transferred.insert(fp(b as u64));
                    }
                }
                let und = f.take_undetermined();
                let und_set: std::collections::HashSet<_> = und.iter().copied().collect();
                proptest::prop_assert_eq!(
                    und.len(),
                    und_set.len(),
                    "duplicate within one window's undetermined set"
                );
                proptest::prop_assert_eq!(und_set, transferred);
            }
        }
    }
}
