//! Spans around the calls into the system, and the allocation counter that
//! attributes allocations to the open span.
//!
//! The tracer records from the benchmark's side of each call only; spans are
//! kept in memory and written out when the run ends. The benchmark drives the
//! system from one thread, so at most one op span is open at a time and every
//! allocation of the process — worker threads the system spawns included —
//! belongs to it.

use crate::json::Json;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// The system allocator plus counters that only a traced rep turns on.
pub struct CountingAlloc;

/// Tracers with a span open; allocations are counted while it is not zero.
static COUNTING: AtomicU32 = AtomicU32::new(0);

/// One cache line of counters. The system's per-server and per-partition
/// worker threads allocate at the same time; on one shared pair of counters
/// they slowed a traced two-server rep by a third.
#[repr(align(64))]
struct Shard {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

const SHARDS: usize = 8;
static COUNTERS: [Shard; SHARDS] = [const {
    Shard {
        allocs: AtomicU64::new(0),
        bytes: AtomicU64::new(0),
    }
}; SHARDS];
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's shard, handed out round-robin on its first counted
    /// allocation. Const-initialised and without a destructor, so reading it
    /// inside the allocator neither allocates nor outlives the thread's
    /// storage.
    static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

#[inline]
fn count(bytes: usize) {
    // Statistics only: nothing is published through these counters.
    if COUNTING.load(Ordering::Relaxed) == 0 {
        return;
    }
    let shard = SHARD.with(|slot| {
        if slot.get() == usize::MAX {
            slot.set(NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS);
        }
        slot.get()
    });
    COUNTERS[shard].allocs.fetch_add(1, Ordering::Relaxed);
    COUNTERS[shard]
        .bytes
        .fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as in `alloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_counters() -> (u64, u64) {
    COUNTERS.iter().fold((0, 0), |(allocs, bytes), shard| {
        (
            allocs + shard.allocs.load(Ordering::Relaxed),
            bytes + shard.bytes.load(Ordering::Relaxed),
        )
    })
}

/// One timed interval. `parent` is 0 for a root span; ids start at 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub rep: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Allocations made while the span was open, children included.
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; costs one branch per call when not.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    rep: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn disabled() -> Tracer {
        Tracer::new(false, 0)
    }

    pub fn enabled(rep: u32) -> Tracer {
        Tracer::new(true, rep)
    }

    fn new(enabled: bool, rep: u32) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            rep,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span under the innermost open one. Close it with
    /// [`Tracer::close`]; spans close in the reverse order they opened.
    pub fn open(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().map_or(0, |&i| self.spans[i].id);
        let (allocs, alloc_bytes) = alloc_counters();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            id: self.spans.len() as u32 + 1,
            parent,
            name,
            rep: self.rep,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            allocs,
            alloc_bytes,
        });
        if self.open.len() == 1 {
            COUNTING.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let i = self.open.pop().expect("close without a matching open");
        let (allocs, alloc_bytes) = alloc_counters();
        let span = &mut self.spans[i];
        span.end_ns = end_ns;
        span.allocs = allocs - span.allocs;
        span.alloc_bytes = alloc_bytes - span.alloc_bytes;
        if self.open.is_empty() {
            COUNTING.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Time one call into the system as a leaf span.
    pub fn op<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> T {
        self.open(name);
        let out = call();
        self.close();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// A span's self time: its duration minus the part its children cover.
pub fn self_time_ns(spans: &[Span], id: u32) -> u64 {
    let own = spans
        .iter()
        .find(|s| s.id == id)
        .map_or(0, Span::duration_ns);
    let children: u64 = spans
        .iter()
        .filter(|s| s.parent == id)
        .map(Span::duration_ns)
        .sum();
    own.saturating_sub(children)
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpTotals {
    pub calls: u64,
    pub host_s: f64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// Each call's duration in milliseconds, in call order.
    pub samples_ms: Vec<f64>,
}

pub fn totals(spans: &[Span], name: &str) -> OpTotals {
    let mut t = OpTotals::default();
    for s in spans.iter().filter(|s| s.name == name) {
        t.calls += 1;
        t.host_s += s.duration_ns() as f64 / 1e9;
        t.allocs += s.allocs;
        t.alloc_bytes += s.alloc_bytes;
        t.samples_ms.push(s.duration_ns() as f64 / 1e6);
    }
    t
}

pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> Json {
    Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::Num(seed as f64)),
        (
            "spans",
            Json::Arr(
                spans
                    .iter()
                    .map(|s| {
                        Json::obj([
                            ("id", Json::Num(s.id as f64)),
                            ("parent", Json::Num(s.parent as f64)),
                            ("name", Json::str(s.name)),
                            ("rep", Json::Num(s.rep as f64)),
                            ("start_ns", Json::Num(s.start_ns as f64)),
                            ("end_ns", Json::Num(s.end_ns as f64)),
                            ("self_ns", Json::Num(self_time_ns(spans, s.id) as f64)),
                            ("allocs", Json::Num(s.allocs as f64)),
                            ("alloc_bytes", Json::Num(s.alloc_bytes as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            rep: 0,
            start_ns,
            end_ns,
            allocs: 0,
            alloc_bytes: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 50, 70),
            span(4, 2, 15, 25), // grandchild: counts against 2, not 1
        ];
        assert_eq!(self_time_ns(&spans, 1), 100 - 30 - 20);
        assert_eq!(self_time_ns(&spans, 2), 30 - 10);
        assert_eq!(self_time_ns(&spans, 4), 10);
    }

    #[test]
    fn tracer_nests_and_attributes_allocations() {
        let mut tr = Tracer::enabled(3);
        tr.open("phase");
        let v = tr.op("op", || vec![0u8; 4096]);
        tr.close();
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].id, spans[0].parent), (1, 0));
        assert_eq!((spans[1].id, spans[1].parent, spans[1].rep), (2, 1, 3));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        // Other test threads may allocate meanwhile, so only a lower bound.
        assert!(spans[1].allocs >= 1 && spans[1].alloc_bytes >= v.len() as u64);
        assert!(spans[0].alloc_bytes >= spans[1].alloc_bytes);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::disabled();
        tr.open("phase");
        assert_eq!(tr.op("op", || 7), 7);
        tr.close();
        assert!(tr.spans().is_empty());
    }
}
