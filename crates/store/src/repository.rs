//! The chunk repository (paper §3.4): "a uniform container log storage to
//! the backup servers", built from a cluster of **physical, replicated
//! storage nodes**.
//!
//! Container IDs are assigned at store time ("When a container is written
//! into the chunk repository, a container ID will be generated") and placed
//! across nodes round-robin by ID ([`ChunkRepository::node_of`]) — the
//! paper's uniform container log — which both spreads load and makes the
//! primary node of any container derivable from its ID.
//!
//! # Replication, failover and repair
//!
//! With a replication factor `R` ([`ChunkRepository::with_replication`]),
//! every container is written to `R` distinct nodes — the primary plus the
//! next `R-1` nodes on the ring — and each
//! replica write is charged to its own node disk and reported as a
//! `(node, cost)` leg ([`BatchAppend::writes`]). The replicas land on
//! distinct disks, so a caller that puts each leg on its node's [`Lane`]
//! sees the store end with its most-loaded node. In memory the replicas
//! share one immutable image of the container — a store, a read-repair
//! and a recopy charge every copy's write but hold the image once — and
//! each copy keeps only its own [`Damage`].
//!
//! Reads **balance and fail over**: with `R >= 2` the read path picks —
//! when the caller has lanes and says when each node's lane could start
//! the read ([`ChunkRepository::read_chunks`]' `starts`) — the replica
//! that can start soonest, then the **least-loaded** (by accumulated
//! random-read bytes on the holding nodes' disks; ties keep ring order,
//! so a fresh repository still prefers the primary), spreading restore traffic
//! across the replica set instead of hammering the ring head. A downed node
//! ([`ChunkRepository::set_node_down`]), an injected [`FaultKind::Fail`],
//! or a copy whose checksum trailer detects corruption transparently
//! redirects the read to the next candidate. A degraded read that succeeds
//! this way is counted in [`RepoStats::failover_reads`] — balanced reads
//! off the primary are *not* degraded; only skips and failures are. Only when *every* copy is unreachable
//! does the read fail — with the last typed error, or
//! [`StoreError::Unrecoverable`] when all holding nodes are down (the
//! `R = 1` node-loss case).
//!
//! **Legs, not time.** Every operation reports **which node disk paid
//! what** and never a duration: a read's legs ([`NodeRead::legs`]: failed
//! attempts in failover order, the serving read, read-repair writes), a
//! store's ([`BatchAppend::writes`]), a delete's
//! ([`Reclaimed::node_costs`]), a scrub's ([`ScrubLeg`]: a read, and for
//! a recopy the write it feeds). The caller puts each leg on its node's
//! [`Lane`] — a read's one after the other ([`ReadLegs::run_on`]), a
//! recopy's write after its source read, independent I/O side by side —
//! so node time adds up in one place, and two nodes work at once.
//!
//! **One failover core, three reads.** [`ChunkRepository::read`] (the
//! paper's whole container in one I/O, verified against its checksum
//! trailer), [`ChunkRepository::read_metas`] (the metadata section alone)
//! and [`ChunkRepository::read_chunks`] (the metadata section, then only
//! the extents that hold the chunks the caller wants — [`DiskModel::wanted_extents`]
//! coalesces them by the gap law) are the same balance → attempt → fail
//! over → read-repair loop asked to fetch something else. An attempt is
//! one fault-checked disk op whatever it fetches: a ranged read's I/Os are
//! summed into its cost and counted one by one in the node's
//! [`debar_simio::DiskStats`], so its seeks stay visible, but an armed
//! `FaultPlan` sees one op. A ranged read verifies what it uses —
//! header, metadata section, every wanted chunk against its fingerprint —
//! not the trailer it never read; once it has found a copy corrupt it
//! reads the remaining replicas whole, so a read-repair always writes back
//! an image that passed its trailer.
//!
//! **A write fills a slot, a read reads an image.** Containers are
//! written to fixed-size slots of `container_bytes` (paper §3.4), and
//! every write — a store, a read-repair, a recopy — charges the whole
//! slot. A whole read (the paper's read, scrub's, a recopy's source)
//! charges the copy's *image* instead: header, metadata section, data
//! and checksum trailer — what [`Container::serialize`]
//! writes — and never more than the slot, so a container sealed early is
//! not read to the end of its padding, and one that fills its slot costs
//! exactly the slot. The serving read also says when each chunk it
//! returns was in ([`ServedLeg::tails`]): a reader may use a chunk before
//! the I/Os after it complete. (Trimming *writes* to the image too is left
//! out on purpose: it would move every dedup-2 and GC write cost.)
//!
//! [`ChunkRepository::repair_node`] is the scrub/re-replication pass: a
//! downed node is repaired by *replacing* its disk (every copy it held is
//! re-replicated from surviving healthy copies), an up node is scrubbed in
//! place (only missing or damaged copies are recopied). The pass plans
//! before it mutates: if any copy the node must hold has no surviving
//! healthy source, it refuses with [`StoreError::Unrecoverable`] and
//! changes nothing. Repair is background maintenance: it charges real
//! read/write I/O, each op failing with its own fault like any other.
//!
//! **Every copy sits on its ring.** A store writes the `R` ring nodes,
//! and a recopy (repair, scrub) or a read-repair only ever rewrites a
//! copy on one of them, so the ring is the whole of where a container can
//! be: a read, a repair's source and scrub's count of missing copies look
//! nowhere else.
//!
//! # Self-healing: retry and scrub
//!
//! Production device errors are mostly *transient*; the repository heals
//! itself instead of surfacing every blip:
//!
//! * **Retry with backoff** ([`ChunkRepository::with_retry`]): each
//!   fault-checked read/write gets up to `max_attempts` tries; every retry
//!   charges `backoff_cost` simulated seconds to the failing node's disk
//!   and is counted in [`RepoStats::retried_ops`]. A
//!   [`FaultKind::Transient`] that clears within the budget never reaches
//!   the caller; exhaustion surfaces as [`StoreError::RetriesExhausted`]
//!   naming the node. The default policy is one attempt — fail-fast,
//!   exactly the pre-retry behavior. The repository keeps no per-node
//!   error history: a failed attempt's retries and backoff sit on that
//!   node's lane, so a reader with lanes leaves a failing node for the
//!   other copy on its own, and a down or failing node is found out only
//!   when it is read.
//! * **Scrub + read-repair** ([`ChunkRepository::scrub_all`]): a
//!   cluster-wide background pass that reads every container copy on
//!   every up node, verifies the v2 checksum trailer, and re-replicates
//!   corrupt or missing copies from clean survivors ([`ScrubReport`]
//!   accounts every copy; every read, and every recopy as its source
//!   read and the write it feeds, comes back as a [`ScrubLeg`] for the
//!   caller's lanes). Independently, any
//!   failover read that detected a corrupt copy *read-repairs* it inline
//!   from the clean copy it returns ([`RepoStats::read_repairs`]).
//!
//! # Fault injection
//!
//! Every node disk carries a deterministic `FaultPlan`
//! (`debar_simio::fault`); every op on it comes back with its own fault:
//!
//! * an outright [`FaultKind::Fail`] on any replica write persists
//!   **nothing on any node** and does **not** consume the container ID
//!   (ID allocation is part of the durable commit — this is what makes an
//!   interrupted chunk-storing phase re-runnable with byte-identical
//!   results);
//! * a [`FaultKind::TornWrite`] or [`FaultKind::BitFlip`] on a replica
//!   write *appears* to succeed (buffered write) but records [`Damage`]
//!   against **that node's copy only**; every later read materializes the
//!   damaged image through the real serialize → damage → deserialize
//!   pipeline, surfaces the checksum failure, and fails over to a clean
//!   replica when one exists;
//! * a `Fail` on a read surfaces [`StoreError::DiskFault`] — or fails
//!   over, when another replica survives.

use crate::container::{ChunkMeta, Container, CorruptKind, Damage, Payload};
use crate::error::StoreError;
use debar_hash::{ContainerId, Fingerprint, Sha1};
use debar_simio::{Device, DiskModel, FaultKind, Lane, RetryPolicy, Secs, SimDisk};
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::Arc;

/// A container copy at rest on a node, with any injected damage it
/// suffered. A container's replicas share one immutable image — the
/// store writes it once and every copy, read-repair and recopy points at
/// it — while damage is per copy: one replica tearing does not corrupt
/// its siblings.
#[derive(Debug, Clone)]
struct StoredContainer {
    container: Arc<Container>,
    damage: Option<Damage>,
}

/// One storage node: a simulated disk plus its resident container copies.
#[derive(Debug, Clone)]
pub struct StorageNode {
    disk: SimDisk,
    containers: HashMap<u64, StoredContainer>,
    down: bool,
}

impl StorageNode {
    fn new(model: DiskModel, node: usize) -> Self {
        StorageNode {
            disk: SimDisk::new(model, Device::RepoNode(node)),
            containers: HashMap::new(),
            down: false,
        }
    }

    /// Container copies resident on this node.
    pub fn container_count(&self) -> usize {
        self.containers.len()
    }

    /// Disk statistics for this node.
    pub fn disk_stats(&self) -> debar_simio::DiskStats {
        self.disk.stats()
    }

    /// This node's copy of `cid` and the damage recorded against it, read
    /// in place and uncharged: a consistency check's view, not a read.
    pub fn copy(&self, cid: ContainerId) -> Option<(&Container, Option<Damage>)> {
        (self.containers.get(&cid.raw())).map(|sc| (&*sc.container, sc.damage))
    }

    /// Whether this node holds a copy free of recorded damage.
    fn clean_copy(&self, raw: u64) -> bool {
        self.containers
            .get(&raw)
            .is_some_and(|sc| sc.damage.is_none())
    }
}

/// Aggregate repository statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RepoStats {
    /// Containers stored (logical, not multiplied by replication).
    pub containers: u64,
    /// Total chunk-data bytes stored (logical container payload).
    pub data_bytes: u64,
    /// Container reads served.
    pub reads: u64,
    /// Corrupt container copies detected by reads (the corrupt-copy half
    /// of the failover split: a read that fails over past a checksum
    /// failure counts here, not in `failover_reads`, so telemetry can
    /// tell silent corruption from downed hardware).
    pub corrupt_reads: u64,
    /// Degraded reads served from a surviving replica after the preferred
    /// copy was *down or faulted* (corrupt-copy failovers are counted in
    /// `corrupt_reads` instead).
    pub failover_reads: u64,
    /// Retries performed by fault-checked operations under the
    /// [`RetryPolicy`] (attempts beyond each operation's first).
    pub retried_ops: u64,
    /// Corrupt copies rewritten inline by a failover read from the clean
    /// replica it returned (read-repair).
    pub read_repairs: u64,
    /// Containers reclaimed by garbage collection (logical, not multiplied
    /// by replication).
    pub reclaimed_containers: u64,
    /// Logical chunk-data bytes of reclaimed containers.
    pub reclaimed_bytes: u64,
    /// Physical bytes freed across every replica copy of reclaimed
    /// containers (`reclaimed_bytes × copies`; monotone — the GC exactness
    /// assertions compare its growth against the dead-container total).
    pub reclaimed_physical_bytes: u64,
}

impl RepoStats {
    /// Reads that needed no down-node/fault failover (reads degraded only
    /// by a corrupt copy are tracked in `corrupt_reads`).
    pub fn primary_reads(&self) -> u64 {
        self.reads - self.failover_reads
    }
}

/// Outcome of a multi-container batch append
/// ([`ChunkRepository::store_batch`]).
#[derive(Debug)]
pub struct BatchAppend {
    /// IDs assigned to the durably stored prefix, in batch order.
    pub ids: Vec<ContainerId>,
    /// `(node, cost)` of every replica write of the durable prefix, in
    /// charge order. The writes of one node queue on its disk and the
    /// nodes write side by side: on per-node lanes the batch ends when
    /// its most-loaded node does.
    pub writes: Vec<(usize, Secs)>,
    /// The first write fault, with the container whose write failed
    /// handed back unconsumed; `None` on a clean batch.
    pub fault: Option<(StoreError, Container)>,
}

/// Outcome of a [`ChunkRepository::delete_container`].
#[derive(Debug, Clone, PartialEq)]
pub struct Reclaimed {
    /// Physical bytes freed (logical data bytes × copies).
    pub bytes: u64,
    /// `(node, cost)` of the free on each reachable node holding a copy —
    /// the nodes free their copies side by side, so a pipelined caller
    /// puts each on its node's timeline and a sequential one sums them.
    pub node_costs: Vec<(usize, Secs)>,
}

/// The read leg that served a container ([`ReadLegs::served`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ServedLeg {
    /// The node whose copy was returned.
    pub node: usize,
    /// Seconds charged to that node's disk: the serving read plus any
    /// retried attempts and back-off before it.
    pub cost: Secs,
    /// Seconds between the container's metadata section (what
    /// [`ChunkRepository::read_metas`] alone would fetch) having streamed
    /// in and the read completing — the data section's transfer time.
    /// `cost - data_tail` into the leg a reader knows the container's
    /// fingerprints, unverified; 0 for a metadata-only read.
    pub data_tail: Secs,
    /// For every chunk the read returns, in the order it returns them:
    /// the seconds between that chunk's last byte having streamed in and
    /// the read completing — the rest of the I/O that read it, then every
    /// later I/O of the attempt. `cost - tails[i]` into the leg the
    /// `i`-th chunk is in; the last chunk of a whole read, and the last
    /// wanted chunk of a ranged one, arrive as the read completes (tail
    /// 0). Never more than `data_tail`: a chunk is listed in the metadata
    /// section that precedes it.
    pub tails: Vec<Secs>,
    /// Chunk-data bytes that metadata section lists — every chunk of the
    /// served copy, fetched or not: what a reader that wanted only some of
    /// them ([`ChunkRepository::read_chunks`]) left behind is this minus
    /// what it got, at no second I/O.
    pub data_bytes: u64,
}

/// The node-disk legs of one container read, in the order the failover
/// loop charged them: failed attempts, the serving read, read-repair
/// writes — the read-side counterpart of [`BatchAppend::writes`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReadLegs {
    /// `(node, cost)` of every attempt that did not serve the read, in
    /// failover order: a faulted attempt (its retries and back-off
    /// included) or a copy read in full and found corrupt.
    pub failed: Vec<(usize, Secs)>,
    /// The leg that served the read; `None` when the read failed or no
    /// node holds the container.
    pub served: Option<ServedLeg>,
    /// `(node, cost)` of each read-repair write, issued from the clean
    /// copy once it is in.
    pub repairs: Vec<(usize, Secs)>,
}

impl ReadLegs {
    /// Put the legs on their nodes' timelines (`nodes[n]` is node `n`'s),
    /// one after the other from `ready` — a replica is only tried once
    /// the one before it has failed, a repair written once the clean
    /// copy is in — and return when the last completes. Two reads served
    /// by different nodes overlap; on one node they queue. This is the
    /// only way a read's legs become time: a caller with one clock runs
    /// them from its `now` and advances to the result.
    pub fn run_on(&self, nodes: &mut [Lane], ready: Secs) -> Secs {
        (self.failed.iter().copied())
            .chain(self.served.as_ref().map(|s| (s.node, s.cost)))
            .chain(self.repairs.iter().copied())
            .fold(ready, |t, (node, cost)| nodes[node].run(t, cost))
    }
}

/// Outcome of one container read: the value plus **which node disk each
/// attempt charged** ([`ReadLegs`]), which the caller puts on its node
/// lanes ([`ReadLegs::run_on`]), so two nodes' reads overlap.
#[derive(Debug)]
pub struct NodeRead<T> {
    /// The container (or `None` when no node holds it), or the typed
    /// error once every copy is lost.
    pub value: Result<Option<T>, StoreError>,
    /// The node-disk legs the read charged.
    pub legs: ReadLegs,
}

impl<T> NodeRead<T> {
    /// A read that touched no disk.
    fn free(value: Result<Option<T>, StoreError>) -> Self {
        NodeRead {
            value,
            legs: ReadLegs::default(),
        }
    }
}

/// Outcome of a [`ChunkRepository::repair_node`] scrub pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Container copies the node must hold: one for every live container
    /// whose replica ring includes it.
    pub scanned: u64,
    /// Copies re-replicated onto the node from surviving healthy sources.
    pub recopied: u64,
}

/// One read a [`ChunkRepository::scrub_all`] pass charged, `(node, cost)`
/// — and, when it is a recopy's source read, the write `(node, cost)` of
/// the copy it feeds, which cannot start before the read has ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScrubLeg {
    /// The read: a copy verified, or a recopy's clean source.
    pub read: (usize, Secs),
    /// The recopy's write onto the damaged or missing copy's node.
    pub write: Option<(usize, Secs)>,
}

/// Outcome of a cluster-wide [`ChunkRepository::scrub_all`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Container copies read and checksum-verified (every copy on every
    /// up node).
    pub copies_checked: u64,
    /// Copies whose checksum verification failed.
    pub corrupt_found: u64,
    /// Copies rewritten from a clean surviving source: every corrupt copy
    /// with a clean sibling, plus missing ring copies while the container
    /// was under-replicated.
    pub repaired: u64,
    /// Corrupt copies with no clean surviving source anywhere — left in
    /// place for a later repair (the `R = 1` corruption case).
    pub unrecoverable: u64,
}

/// Per-node `(node, cost)` write charges plus the store outcome: on
/// failure the container comes back unconsumed alongside the error.
type StoreOutcome = (
    Vec<(usize, Secs)>,
    Result<ContainerId, (StoreError, Container)>,
);

/// The disk op one replica attempt charges
/// ([`ChunkRepository::io_attempts`]).
#[derive(Clone, Copy)]
enum NodeOp<'a> {
    /// One read made of these random I/Os (byte ranges of the image).
    Read(&'a [Range<u64>]),
    /// A sequential write of this many bytes.
    Write(u64),
}

/// What one container read fetches from a copy — the argument of the one
/// failover core ([`ChunkRepository::read`], [`ChunkRepository::read_metas`]
/// and [`ChunkRepository::read_chunks`] are its three values).
#[derive(Clone, Copy)]
enum Fetch<'a> {
    /// The paper's read: the whole container in one I/O — its image, not
    /// the fixed-size slot it was written to — verified against its
    /// checksum trailer.
    Whole,
    /// The metadata section alone.
    Metas,
    /// The metadata section, then the extents holding the chunks the
    /// predicate wants ([`DiskModel::wanted_extents`]). `mask[i]` is what it says of
    /// slot `i`, asked once per read: every copy holds the same metadata
    /// section. The predicate itself is asked again only of a damaged
    /// copy's metadata as read.
    Chunks {
        wanted: &'a dyn Fn(&Fingerprint) -> bool,
        mask: &'a [bool],
    },
}

/// Whether `bytes`, as read from a copy's data section, are the chunk
/// stored under `fp`: real bytes hash back to the fingerprint; a synthetic
/// zero payload (whose fingerprint is counter-derived, no hash of it) reads
/// back as that many zero bytes.
fn reads_back(fp: &Fingerprint, stored: &Payload, bytes: &[u8]) -> bool {
    match stored {
        Payload::Real(_) => Sha1::digest(bytes) == fp.0,
        Payload::Zero(len) => bytes.len() == *len as usize && bytes.iter().all(|&b| b == 0),
    }
}

/// On-disk size of a container's metadata section — header, ≈ 32 bytes
/// per chunk, checksum trailer: all a prefetch reads, and the head of a
/// full read.
fn meta_section_bytes(chunks: usize) -> u64 {
    6 + 32 * chunks as u64 + 20
}

/// Seconds between a container's image having streamed in up to byte
/// offset `at` (where a chunk, or the metadata section, ends) and the last
/// of an attempt's I/Os `ios` — byte ranges of the image, in issue order —
/// completing: the rest of the I/O that reads up to `at`, then every later
/// I/O, seek included. An `at` past the end of that I/O (a chunk of a
/// container that fills its slot, whose image is capped at the slot)
/// arrives with the I/O's last byte.
fn tail(ios: &[Range<u64>], at: u64, disk: &DiskModel) -> Secs {
    let Some(k) = ios.iter().rposition(|io| io.start < at) else {
        return 0.0;
    };
    let later: Secs = ios[k + 1..]
        .iter()
        .map(|io| disk.rand_read_cost(io.end - io.start))
        .sum();
    disk.seq_read_cost(ios[k].end.saturating_sub(at)) + later
}

/// The multi-node, replicated container log.
#[derive(Debug, Clone)]
pub struct ChunkRepository {
    nodes: Vec<StorageNode>,
    container_bytes: u64,
    next_id: u64,
    stats: RepoStats,
    replication: usize,
    retry: RetryPolicy,
    /// Tombstones of reclaimed container ids. A reclaimed container is
    /// dead *cluster-wide*, including copies stranded on nodes that were
    /// down when the deletion ran: every lookup path treats a tombstoned
    /// id as nonexistent, and revive/repair purge stale copies instead of
    /// resurrecting them.
    reclaimed: HashSet<u64>,
}

impl ChunkRepository {
    /// Create a repository of `num_nodes` storage nodes whose disks follow
    /// `model`, node `i`'s disk named [`Device::RepoNode`]`(i)`;
    /// `container_bytes` is the fixed on-disk slot a container is
    /// written to — what every write charges, and the most a whole read of
    /// one charges. Replication defaults to 1 (no replicas); see
    /// [`ChunkRepository::with_replication`].
    pub fn new(num_nodes: usize, model: DiskModel, container_bytes: u64) -> Self {
        assert!(num_nodes > 0, "repository needs at least one node");
        assert!(container_bytes > 0);
        ChunkRepository {
            nodes: (0..num_nodes).map(|n| StorageNode::new(model, n)).collect(),
            container_bytes,
            next_id: 0,
            stats: RepoStats::default(),
            replication: 1,
            retry: RetryPolicy::default(),
            reclaimed: HashSet::new(),
        }
    }

    /// Builder: set the replication factor — every container is written to
    /// `replication` distinct nodes. Must satisfy
    /// `1 <= replication <= node count` (enforced for configs by
    /// `DebarConfig::validate`).
    pub fn with_replication(mut self, replication: usize) -> Self {
        assert!(
            replication >= 1 && replication <= self.nodes.len(),
            "replication {replication} outside 1..={}",
            self.nodes.len()
        );
        self.replication = replication;
        self
    }

    /// The configured replication factor.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Builder: set the retry policy for fault-checked reads and writes
    /// (`max_attempts` is clamped to at least 1; negative backoff is
    /// clamped to 0 at charge time).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = RetryPolicy {
            max_attempts: retry.max_attempts.max(1),
            backoff_cost: retry.backoff_cost.max(0.0),
        };
        self
    }

    /// Number of storage nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> RepoStats {
        self.stats
    }

    /// Per-node views.
    pub fn nodes(&self) -> &[StorageNode] {
        &self.nodes
    }

    /// Validate a node id at arm/call time — same rule as the store
    /// workers' stripe-width check: an out-of-range id is a typed error,
    /// never an index panic.
    fn check_node(&self, node: usize) -> Result<(), StoreError> {
        if node < self.nodes.len() {
            Ok(())
        } else {
            Err(StoreError::UnknownNode {
                node,
                nodes: self.nodes.len(),
            })
        }
    }

    /// One node's disk — the device a `FaultPlan` is armed on and whose
    /// op counter says "the next op on this node".
    pub fn node_disk_mut(&mut self, node: usize) -> Result<&mut SimDisk, StoreError> {
        self.check_node(node)?;
        Ok(&mut self.nodes[node].disk)
    }

    /// Disarm every node disk's faults.
    pub fn clear_fault_plans(&mut self) {
        for node in &mut self.nodes {
            node.disk.clear_fault_plan();
        }
    }

    /// Take a node down: its copies stay on disk but every read and write
    /// targeting it is refused until [`ChunkRepository::revive_node`] or
    /// [`ChunkRepository::repair_node`].
    pub fn set_node_down(&mut self, node: usize) -> Result<(), StoreError> {
        self.check_node(node)?;
        self.nodes[node].down = true;
        Ok(())
    }

    /// Bring a downed node back with its data intact (the machine was
    /// unreachable, not lost). Copies of containers reclaimed while the
    /// node was down are purged on the way up — a revived node must not
    /// resurrect garbage-collected data.
    pub fn revive_node(&mut self, node: usize) -> Result<(), StoreError> {
        self.check_node(node)?;
        self.nodes[node].down = false;
        let reclaimed = &self.reclaimed;
        self.nodes[node]
            .containers
            .retain(|raw, _| !reclaimed.contains(raw));
        Ok(())
    }

    /// Whether a node is down.
    pub fn is_node_down(&self, node: usize) -> Result<bool, StoreError> {
        self.check_node(node)?;
        Ok(self.nodes[node].down)
    }

    /// Set (`Some`) or clear (`None`: admin repair from a replica) the
    /// injected damage of a stored container's first-located copy — the
    /// per-container corruption hook the failure-kind scenarios use; its
    /// replicas are untouched.
    ///
    /// An unknown or reclaimed container is the typed
    /// [`StoreError::MissingContainer`], never a silent no-op.
    pub fn set_damage(
        &mut self,
        cid: ContainerId,
        damage: Option<Damage>,
    ) -> Result<(), StoreError> {
        let missing = StoreError::MissingContainer { container: cid };
        let node = self.locate(cid).ok_or(missing)?;
        let copy = self.nodes[node].containers.get_mut(&cid.raw());
        copy.ok_or(missing)?.damage = damage;
        Ok(())
    }

    /// The node a container's primary copy lives on: round-robin by ID.
    pub fn node_of(&self, cid: ContainerId) -> usize {
        (cid.raw() % self.nodes.len() as u64) as usize
    }

    /// The `replication` distinct nodes a container's copies are written
    /// to: the primary plus the next ring nodes.
    pub fn replica_nodes(&self, cid: ContainerId) -> Vec<usize> {
        let n = self.nodes.len();
        let primary = self.node_of(cid);
        (0..self.replication).map(|k| (primary + k) % n).collect()
    }

    /// Store a batch of sealed containers in order — the commit of the
    /// pipelined chunk-storing phase, or one container alone — stopping
    /// at the first write fault.
    ///
    /// Each container is assigned the next ID and written to each of its
    /// `replication` placement nodes, one sequential write op on each,
    /// reported in [`BatchAppend::writes`]. A [`FaultKind::Fail`] injected
    /// on any replica write persists nothing anywhere and leaves the ID
    /// unconsumed (retrying the store converges to the same ID); torn
    /// writes and bit flips persist a damaged image *on that copy only*
    /// that later reads detect via the checksum trailer. A down placement
    /// node refuses the write with [`StoreError::NodeDown`]. On a fault,
    /// the failed container is handed back unconsumed, the remaining batch
    /// is dropped — the caller still holds every chunk not durable (the
    /// chunk log keeps them for the redo) — and the faulted container's
    /// writes are not reported: their time is the device failing, not
    /// pipeline progress.
    pub fn store_batch(&mut self, batch: impl IntoIterator<Item = Container>) -> BatchAppend {
        let mut out = BatchAppend {
            ids: Vec::new(),
            writes: Vec::new(),
            fault: None,
        };
        for container in batch {
            let (writes, result) = self.store_inner(container);
            match result {
                Ok(id) => {
                    out.ids.push(id);
                    out.writes.extend(writes);
                }
                Err((e, failed)) => {
                    out.fault = Some((e, failed));
                    break;
                }
            }
        }
        out
    }

    /// The shared store path: on a `Fail` fault (or a down placement node)
    /// the container is returned unconsumed (nothing persisted anywhere,
    /// ID unconsumed). Returns every `(node, cost)` write charged.
    fn store_inner(&mut self, mut container: Container) -> StoreOutcome {
        assert!(container.id().is_null(), "container already stored");
        assert!(
            !container.is_empty(),
            "refusing to store an empty container"
        );
        let id = ContainerId::new(self.next_id);
        let targets = self.replica_nodes(id);
        // A down placement node refuses the write before anything is
        // charged: nothing persisted, ID unconsumed.
        if let Some(&node) = targets.iter().find(|&&n| self.nodes[n].down) {
            return (Vec::new(), Err((StoreError::NodeDown { node }, container)));
        }
        let mut writes: Vec<(usize, Secs)> = Vec::with_capacity(targets.len());
        let mut damages: Vec<(usize, Option<Damage>)> = Vec::with_capacity(targets.len());
        for &node in &targets {
            let (cost, outcome) = self.io_attempts(node, NodeOp::Write(self.container_bytes));
            writes.push((node, cost));
            match outcome {
                Ok(damage) => damages.push((node, damage)),
                Err(e) => return (writes, Err((e, container))),
            }
        }
        self.next_id += 1;
        container.set_id(id);
        // One image for every replica, cloned to its exact size: the
        // packer's buffers, pre-sized for a full container, go back to
        // the allocator for the next container it packs.
        let container = Arc::new(container.clone());
        self.stats.containers += 1;
        self.stats.data_bytes += container.data_bytes();
        for (node, damage) in damages {
            self.nodes[node].containers.insert(
                id.raw(),
                StoredContainer {
                    container: Arc::clone(&container),
                    damage,
                },
            );
        }
        (writes, Ok(id))
    }

    /// Check a stored container copy as a reader fetching `fetch` sees it,
    /// running any injected damage through the real serialize → damage →
    /// deserialize pipeline so corruption is *detected*, not silently
    /// read. `Ok(false)` means the node holds no copy.
    ///
    /// A whole or metadata read verifies the checksum trailer. A ranged
    /// read cannot check a trailer it did not read, so it verifies exactly
    /// what it uses: header and metadata section parse, and every wanted
    /// chunk is listed there and hashes back to its fingerprint (a
    /// [`Payload::Zero`] stand-in, whose fingerprint is no hash, must read
    /// back as that many zero bytes). Damage in bytes it never read is
    /// [`ChunkRepository::scrub_all`]'s to find.
    fn check_copy(&self, node: usize, cid: ContainerId, fetch: Fetch) -> Result<bool, StoreError> {
        let Some(sc) = self.nodes[node].containers.get(&cid.raw()) else {
            return Ok(false);
        };
        let Some(damage) = sc.damage else {
            return Ok(true);
        };
        let mut raw = sc.container.serialize();
        damage.apply(&mut raw, cid.raw());
        let checked = match fetch {
            // Damage that missed the image (no current shape does) leaves
            // a readable copy.
            Fetch::Whole | Fetch::Metas => {
                Container::deserialize(&raw, sc.container.capacity()).map(|_| ())
            }
            Fetch::Chunks { wanted, mask } => {
                Container::deserialize_chunks(&raw, wanted).and_then(|read| {
                    let mut read = read.into_iter();
                    let stored = (sc.container.chunks().zip(mask)).filter(|(_, &w)| w);
                    for ((fp, payload), _) in stored {
                        let listed = read.find(|(m, _)| m.fp == fp);
                        if !listed.is_some_and(|(_, bytes)| reads_back(&fp, &payload, &bytes)) {
                            return Err(CorruptKind::PayloadMismatch);
                        }
                    }
                    Ok(())
                })
            }
        };
        match checked {
            Ok(()) => Ok(true),
            Err(reason) => Err(StoreError::CorruptContainer {
                container: cid,
                reason,
            }),
        }
    }

    /// One replica I/O under the retry policy: charge `op` per attempt
    /// (plus backoff between attempts) until an attempt is fault-free or
    /// the budget is spent. Returns the node's total charged time and
    /// either the silent damage a surviving *write* carries — torn writes
    /// and bit flips look successful at write time and are not retried —
    /// or the typed error after exhaustion. Any fault kind fired on a read
    /// op is a failed read; transients that clear within the budget are
    /// absorbed.
    fn io_attempts(
        &mut self,
        node: usize,
        op: NodeOp<'_>,
    ) -> (Secs, Result<Option<Damage>, StoreError>) {
        let max = self.retry.max_attempts.max(1);
        let mut cost: Secs = 0.0;
        let mut attempt = 1u32;
        loop {
            let disk = &mut self.nodes[node].disk;
            let charged = match op {
                NodeOp::Read(ios) => disk.rand_read_extents(ios.iter().map(|io| io.end - io.start)),
                NodeOp::Write(bytes) => disk.seq_write(bytes),
            };
            let faulted = match charged {
                Ok(c) => return (cost + c, Ok(None)),
                Err(f) => {
                    cost += f.cost;
                    f
                }
            };
            match (op, faulted.fault.kind) {
                (NodeOp::Write(_), FaultKind::TornWrite) => return (cost, Ok(Some(Damage::Torn))),
                (NodeOp::Write(_), FaultKind::BitFlip) => return (cost, Ok(Some(Damage::BitFlip))),
                _ => {}
            }
            if attempt < max {
                cost += self.nodes[node].disk.stall(self.retry.backoff_cost);
                self.stats.retried_ops += 1;
                attempt += 1;
                continue;
            }
            let err = if max > 1 {
                StoreError::RetriesExhausted {
                    node,
                    attempts: max,
                }
            } else {
                let (device, fault) = (faulted.device, faulted.fault);
                StoreError::DiskFault { device, fault }
            };
            return (cost, Err(err));
        }
    }

    /// The nodes holding a copy, in failover order: the replica ring
    /// (primary first), where every copy lives. Down nodes are included
    /// (the read loop skips them and counts the skip as degradation).
    fn holders(&self, cid: ContainerId) -> Vec<usize> {
        let raw = cid.raw();
        if self.reclaimed.contains(&raw) {
            // Tombstoned: stale copies on downed nodes do not count as
            // holders — a reclaimed container is gone cluster-wide.
            return Vec::new();
        }
        self.replica_nodes(cid)
            .into_iter()
            .filter(|&n| self.nodes[n].containers.contains_key(&raw))
            .collect()
    }

    /// What a whole read of `copy` reads: its image — header, metadata
    /// section, data and checksum trailer, what [`Container::serialize`]
    /// writes — and never more than the fixed-size slot it was written to.
    /// The node wrote the copy, so it knows the length: a container sealed
    /// early is not read to the end of its padding.
    fn image_bytes(&self, copy: &Container) -> u64 {
        (copy.serialized_len() as u64).min(self.container_bytes)
    }

    /// The I/Os one attempt at `fetch` issues against `node`'s copy — byte
    /// ranges of its image, in issue order — and the fetch they amount
    /// to. A ranged read wants the metadata section — the reader must
    /// parse it before it knows where the chunks lie — and then the
    /// wanted chunks, and [`DiskModel::wanted_extents`] makes I/Os of all of them by
    /// the one gap law, each I/O paying its own seek; when that would
    /// cost no less than the image in one piece, it *is* the whole read.
    fn plan<'f>(
        &self,
        node: usize,
        cid: ContainerId,
        fetch: Fetch<'f>,
    ) -> (Fetch<'f>, Vec<Range<u64>>) {
        let copy = (self.nodes[node].containers.get(&cid.raw())).map(|sc| &*sc.container);
        let metas = copy.map_or(&[][..], Container::metas);
        let meta = meta_section_bytes(metas.len());
        let image = copy.map_or(meta, |c| self.image_bytes(c));
        // The head of every read: the image from its first byte.
        let head = |len: u64| std::iter::once(0..len);
        match fetch {
            Fetch::Whole => (fetch, head(image).collect()),
            Fetch::Metas => (fetch, head(meta).collect()),
            Fetch::Chunks { mask, .. } => {
                let disk = self.nodes[node].disk.model();
                let chunks = (metas.iter().zip(mask).filter(|(_, &w)| w))
                    .map(|(m, _)| meta + m.offset..meta + m.offset + m.len as u64);
                let ios = disk.wanted_extents(head(meta).chain(chunks));
                let ranged: Secs = ios
                    .iter()
                    .map(|io| disk.rand_read_cost(io.end - io.start))
                    .sum();
                if ranged < disk.rand_read_cost(image) {
                    (fetch, ios)
                } else {
                    (Fetch::Whole, head(image).collect())
                }
            }
        }
    }

    /// The replica-failover read core — [`ChunkRepository::read`],
    /// [`ChunkRepository::read_metas`] and [`ChunkRepository::read_chunks`]
    /// are this loop asked for a different [`Fetch`]: try each holding
    /// node in failover order, skipping down nodes; an injected failure
    /// (after any retries the policy allows) or a detected-corrupt copy
    /// moves on to the next replica. A success after a down/faulted skip
    /// is a degraded read ([`RepoStats::failover_reads`]); corrupt copies
    /// are counted separately ([`RepoStats::corrupt_reads`]) and
    /// read-repaired from the clean copy the read returns — which is why
    /// every attempt after a corrupt one reads its replica **whole**,
    /// whatever was asked: the image a repair writes back has passed its
    /// checksum trailer. When every copy is exhausted the read fails with
    /// the last typed error — or [`StoreError::Unrecoverable`] when no
    /// copy could even be attempted (every holder down).
    ///
    /// Each attempt is **one** fault-checked disk op, however many I/Os
    /// it issues, and is reported as a leg on the node it charged
    /// ([`NodeRead`]). The value is what `take` makes of the copy that
    /// served, told when each of its chunks was in — how long before the
    /// attempt completed its last byte streamed in: `take` returns the
    /// caller's value and the tails of the chunks it took, in the order it
    /// took them ([`ServedLeg::tails`]).
    ///
    /// `starts[n]` is when the caller's lane for node `n` could start the
    /// read; empty (or short) when the caller has no lanes, which leaves
    /// every node at the same start.
    fn read_one<T>(
        &mut self,
        cid: ContainerId,
        fetch: Fetch,
        starts: &[Secs],
        take: impl FnOnce(&Container, &dyn Fn(&ChunkMeta) -> Secs) -> (T, Vec<Secs>),
    ) -> NodeRead<T> {
        if cid.is_null() {
            return NodeRead::free(Ok(None));
        }
        let mut candidates = self.holders(cid);
        let Some(&first) = candidates.first() else {
            return NodeRead::free(Ok(None));
        };
        // Lane, then load: prefer the candidate whose lane can start the
        // read soonest (a caller without lanes starts them all alike),
        // then the one whose disk has accumulated the least random-read
        // traffic. The sort is stable, so ties keep failover order
        // (primary first) — and down or failing nodes are *not* filtered
        // here: such a candidate is discovered at read time and counted as
        // a failover. Preferring an idle copy over a busy one is a
        // reorder, not a degradation.
        let start = |n: usize| starts.get(n).copied().unwrap_or(0.0);
        let load = |n: usize| self.nodes[n].disk.stats().rand_read_bytes;
        candidates.sort_by(|&a, &b| start(a).total_cmp(&start(b)).then(load(a).cmp(&load(b))));
        self.stats.reads += 1;
        let mut out = NodeRead::free(Ok(None));
        let mut degraded_fault = false;
        let mut corrupt_nodes: Vec<usize> = Vec::new();
        let mut last_err: Option<StoreError> = None;
        for &node in &candidates {
            if self.nodes[node].down {
                degraded_fault = true;
                continue;
            }
            let asked = if corrupt_nodes.is_empty() {
                fetch
            } else {
                Fetch::Whole
            };
            let (fetch, ios) = self.plan(node, cid, asked);
            let (read_cost, outcome) = self.io_attempts(node, NodeOp::Read(&ios));
            if let Err(e) = outcome {
                out.legs.failed.push((node, read_cost));
                degraded_fault = true;
                last_err = Some(e);
                continue;
            }
            match self.check_copy(node, cid, fetch) {
                Ok(true) => {
                    if degraded_fault {
                        self.stats.failover_reads += 1;
                    }
                    // The metadata section is the head of the first I/O:
                    // what follows it is the tail the resolver need not
                    // wait for, and each chunk the caller takes is in once
                    // the I/O that reads it has got to its last byte.
                    let copy = &self.nodes[node].containers[&cid.raw()].container;
                    let disk = self.nodes[node].disk.model();
                    let meta = meta_section_bytes(copy.len());
                    let arrived = |m: &ChunkMeta| tail(&ios, meta + m.offset + m.len as u64, &disk);
                    let (value, tails) = take(copy, &arrived);
                    out.legs.served = Some(ServedLeg {
                        node,
                        cost: read_cost,
                        data_tail: tail(&ios, meta, &disk),
                        tails,
                        data_bytes: copy.data_bytes(),
                    });
                    out.legs.repairs = self.read_repair(cid, node, &corrupt_nodes);
                    out.value = Ok(Some(value));
                    return out;
                }
                Ok(false) => out.legs.failed.push((node, read_cost)),
                Err(e) => {
                    self.stats.corrupt_reads += 1;
                    corrupt_nodes.push(node);
                    out.legs.failed.push((node, read_cost));
                    last_err = Some(e);
                }
            }
        }
        // Every replica lost: the last attempt's error, or — when every
        // holder was down and nothing could be attempted — the typed
        // unrecoverable case naming the preferred holder.
        out.value = Err(last_err.unwrap_or(StoreError::Unrecoverable {
            container: cid,
            node: first,
        }));
        out
    }

    /// Inline read-repair: rewrite every corrupt copy a failover read
    /// detected from the clean image `source` just served whole. Each
    /// repair write is charged to the corrupt node's disk, reported as a
    /// `(node, cost)` leg and, unless it failed, counted in
    /// [`RepoStats::read_repairs`].
    fn read_repair(
        &mut self,
        cid: ContainerId,
        source: usize,
        corrupt: &[usize],
    ) -> Vec<(usize, Secs)> {
        let mut writes = Vec::new();
        for &node in corrupt {
            if self.nodes[node].down {
                continue;
            }
            let clean = Arc::clone(&self.nodes[source].containers[&cid.raw()].container);
            let (cost, installed) = self.install_clean(node, cid.raw(), clean);
            writes.push((node, cost));
            self.stats.read_repairs += u64::from(installed.is_ok());
        }
        writes
    }

    /// Write `image` onto `node` as its copy of container `raw`, replacing
    /// any copy it held: one container write under the retry policy, like
    /// a store's (a failed one leaves the node's copy as it was). The new
    /// copy shares the source's image; only its damage is its own.
    fn install_clean(
        &mut self,
        node: usize,
        raw: u64,
        image: Arc<Container>,
    ) -> (Secs, Result<(), StoreError>) {
        let (cost, written) = self.io_attempts(node, NodeOp::Write(self.container_bytes));
        let installed = written.map(|damage| {
            let stored = StoredContainer {
                container: image,
                damage,
            };
            self.nodes[node].containers.insert(raw, stored);
        });
        (cost, installed)
    }

    /// Re-replicate container `raw` from `src`'s image onto `node`: one
    /// whole read of the image on `src`, then [`Self::install_clean`] on
    /// `node`. Returns the legs charged and whether the copy landed, or
    /// `None` — nothing charged — when `src` holds no copy.
    fn recopy(
        &mut self,
        raw: u64,
        src: usize,
        node: usize,
    ) -> Option<(ScrubLeg, Result<(), StoreError>)> {
        let image = Arc::clone(&self.nodes[src].containers.get(&raw)?.container);
        let bytes = self.image_bytes(&image);
        let (cost, copied) = self.io_attempts(src, NodeOp::Read(std::slice::from_ref(&(0..bytes))));
        let read = (src, cost);
        let mut leg = ScrubLeg { read, write: None };
        if let Err(e) = copied {
            return Some((leg, Err(e)));
        }
        let (cost, installed) = self.install_clean(node, raw, image);
        leg.write = Some((node, cost));
        Some((leg, installed))
    }

    /// Read a container off its replica ring (one random I/O of the
    /// copy's image per attempted copy — header, metadata, data,
    /// trailer, at most the fixed slot — each reported as a leg on the
    /// node it charged, the serving one with every chunk's
    /// [`ServedLeg::tails`] in metadata order). Returns a clone — cheap
    /// for zero payloads and refcounted for real bytes. `Ok(None)` means
    /// no node holds the container; injected faults and detected
    /// corruption fail over to surviving replicas and surface as typed
    /// errors only when every copy is lost.
    pub fn read(&mut self, cid: ContainerId) -> NodeRead<Container> {
        self.read_one(cid, Fetch::Whole, &[], |copy, arrived| {
            (copy.clone(), copy.metas().iter().map(arrived).collect())
        })
    }

    /// Read only a container's metadata section (fingerprints): the cheap
    /// prefetch LPC performs on an index hit. Charged as one small random
    /// read per attempted copy (metadata section ≈ 32 bytes/chunk), legs
    /// reported like [`ChunkRepository::read`]. Damaged copies fail over
    /// here too — the metadata section is under the same checksum.
    pub fn read_metas(&mut self, cid: ContainerId) -> NodeRead<Vec<Fingerprint>> {
        self.read_one(cid, Fetch::Metas, &[], |copy, _| {
            (copy.fingerprints().collect(), Vec::new())
        })
    }

    /// The ranged read: fetch a container's metadata section and then only
    /// the chunks `wanted` names — for a reader that knows which chunks it
    /// will use (the restore walk, from its recipe; GC compaction, from
    /// the live set). `wanted` is asked once per chunk the metadata
    /// section lists, however many copies the read tries, and again only
    /// of a copy found damaged. [`DiskModel::wanted_extents`] makes I/Os of the metadata
    /// section and the wanted chunks — a first chunk close behind the
    /// metadata section shares its I/O — all one op of the serving node's
    /// disk; same failover core, legs and counters as [`ChunkRepository::read`],
    /// and the serving leg's [`ServedLeg::tails`] follow the chunks
    /// returned. A reader that wants every chunk gets exactly the whole
    /// read: one I/O of the image is cheaper than the metadata section
    /// and the data section apart.
    /// Having read the metadata section, it also reports the chunk-data
    /// bytes listed there ([`ServedLeg::data_bytes`]), so a reader that
    /// wanted none or only some of the chunks knows what it left behind
    /// without a second I/O. What it cannot promise is the
    /// checksum trailer, which it never reads: a copy is corrupt *to this
    /// read* when its header or metadata section does not parse or a
    /// wanted chunk does not hash back to its fingerprint — damage
    /// elsewhere in the copy goes unseen until a whole read or
    /// [`ChunkRepository::scrub_all`] meets it. Once a copy has been found
    /// corrupt the remaining replicas are read whole, so the read-repair
    /// that follows writes back a trailer-verified image.
    ///
    /// A caller that puts the legs on lanes says in `starts[n]` when its
    /// lane for node `n` could start the read: the copy that can start
    /// soonest serves, and only a tie goes to the least-loaded. A caller
    /// without lanes passes `&[]`, which is the order
    /// [`ChunkRepository::read`] takes.
    pub fn read_chunks(
        &mut self,
        cid: ContainerId,
        wanted: impl Fn(&Fingerprint) -> bool,
        starts: &[Secs],
    ) -> NodeRead<Vec<(Fingerprint, Payload)>> {
        let mask: Vec<bool> = match self.holders(cid).first() {
            Some(&node) => (self.nodes[node].containers[&cid.raw()].container.metas())
                .iter()
                .map(|m| wanted(&m.fp))
                .collect(),
            None => Vec::new(),
        };
        let fetch = Fetch::Chunks {
            wanted: &wanted,
            mask: &mask,
        };
        self.read_one(cid, fetch, starts, |copy, arrived| {
            let mut tails = Vec::with_capacity(copy.len());
            let chunks = (0..copy.len())
                .filter(|&i| mask[i])
                .map(|i| copy.slot(i))
                .map(|(m, payload)| {
                    tails.push(arrived(m));
                    (m.fp, payload)
                })
                .collect();
            (chunks, tails)
        })
    }

    /// Whether any node holds a copy of the container.
    pub fn contains(&self, cid: ContainerId) -> bool {
        !cid.is_null() && !self.holders(cid).is_empty()
    }

    /// All container IDs, ascending (each counted once regardless of
    /// replication; reclaimed ids are excluded even while a stale copy
    /// lingers on a downed node).
    pub fn container_ids(&self) -> Vec<ContainerId> {
        let mut ids: Vec<ContainerId> = self
            .nodes
            .iter()
            .flat_map(|n| n.containers.keys().map(|&r| ContainerId::new(r)))
            .filter(|c| !self.reclaimed.contains(&c.raw()))
            .collect();
        ids.sort();
        ids.dedup();
        ids
    }

    /// Chunk-data bytes physically resident across every node's copies
    /// (replicated copies counted once each; reclaimed tombstoned copies
    /// stranded on downed nodes excluded). The GC exactness assertions
    /// compare this figure's drop against the dead-container total.
    pub fn physical_data_bytes(&self) -> u64 {
        self.nodes
            .iter()
            .flat_map(|n| n.containers.iter())
            .filter(|(raw, _)| !self.reclaimed.contains(raw))
            .map(|(_, sc)| sc.container.data_bytes())
            .sum()
    }

    /// Reclaim a container: free its copy on every reachable node, charge
    /// the frees to those node disks ([`Reclaimed::node_costs`]), tombstone
    /// the id so copies stranded on downed nodes are purged at
    /// revive/repair instead of resurrecting, and account the reclaimed
    /// bytes in [`RepoStats`]. Returns the physical bytes freed (logical
    /// data bytes × copies). A failed free stops the reclaim typed, the
    /// container not yet reclaimed, for a redo to free what is left.
    ///
    /// An unknown or already-reclaimed id is a typed
    /// [`StoreError::MissingContainer`] — double frees are never silent —
    /// and charges nothing.
    pub fn delete_container(&mut self, cid: ContainerId) -> Result<Reclaimed, StoreError> {
        let raw = cid.raw();
        let copies: Vec<usize> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.containers.contains_key(&raw))
            .map(|(i, _)| i)
            .collect();
        if copies.is_empty() || self.reclaimed.contains(&raw) {
            return Err(StoreError::MissingContainer { container: cid });
        }
        let data_bytes = self.nodes[copies[0]].containers[&raw]
            .container
            .data_bytes();
        let mut node_costs = Vec::with_capacity(copies.len());
        for &node in &copies {
            if self.nodes[node].down {
                // Unreachable: the tombstone purges this copy at
                // revive/repair. Its bytes still count as reclaimed —
                // the copy is dead from this moment on.
                continue;
            }
            // Freeing a container is a metadata update on the node's
            // container log, not a full rewrite.
            let (cost, freed) = self.io_attempts(node, NodeOp::Write(4096));
            freed?;
            self.nodes[node].containers.remove(&raw);
            self.stats.reclaimed_physical_bytes += data_bytes;
            node_costs.push((node, cost));
        }
        self.reclaimed.insert(raw);
        let bytes = data_bytes * copies.len() as u64;
        self.stats.reclaimed_containers += 1;
        self.stats.reclaimed_bytes += data_bytes;
        // The down copies are reclaimed now; the others as each was freed.
        self.stats.reclaimed_physical_bytes += bytes - data_bytes * node_costs.len() as u64;
        Ok(Reclaimed { bytes, node_costs })
    }

    /// Locate a container's first copy in failover order (its replica
    /// ring, primary first).
    pub fn locate(&self, cid: ContainerId) -> Option<usize> {
        self.holders(cid).into_iter().next()
    }

    /// How many healthy copies (up node, no recorded damage) exist.
    fn healthy_copies(&self, cid: ContainerId) -> usize {
        let raw = cid.raw();
        self.nodes
            .iter()
            .filter(|n| !n.down && n.clean_copy(raw))
            .count()
    }

    /// Containers with fewer healthy available copies than the replication
    /// factor — the scrub work list ([`ChunkRepository::repair_node`]).
    pub fn under_replicated(&self) -> Vec<ContainerId> {
        self.container_ids()
            .into_iter()
            .filter(|&cid| self.healthy_copies(cid) < self.replication)
            .collect()
    }

    /// The first holder in failover order, excluding `exclude`, that is up
    /// and damage-free — the source a repair copies from.
    fn healthy_source(&self, cid: ContainerId, exclude: usize) -> Option<usize> {
        self.holders(cid)
            .into_iter()
            .find(|&n| n != exclude && !self.nodes[n].down && self.nodes[n].clean_copy(cid.raw()))
    }

    /// Repair/scrub one node back to full replication.
    ///
    /// A **down** node is repaired by replacing its disk: every copy it
    /// must hold (its share of each replica set) is re-replicated from a
    /// surviving healthy source. An **up** node is scrubbed in place:
    /// clean copies are kept, missing or damaged ones recopied. Each
    /// recopy charges one whole read of the image on the source and one
    /// sequential slot write on the repaired node, seen in their
    /// [`debar_simio::DiskStats`]. A failed recopy stops the pass typed,
    /// for a redo to recopy the rest.
    ///
    /// The pass plans before it mutates: if any needed copy has no
    /// surviving healthy source (the `R = 1` node-loss case), it returns
    /// [`StoreError::Unrecoverable`] naming the container and node, and
    /// changes nothing.
    pub fn repair_node(&mut self, node: usize) -> Result<RepairReport, StoreError> {
        self.check_node(node)?;
        let replace = self.nodes[node].down;
        // What the node must hold afterwards: its ring share of the live
        // containers, ascending. Reclaimed (tombstoned) containers are not
        // live: repair must not re-replicate — or keep — garbage-collected
        // data, even when the node went down before the GC ran and still
        // holds a stale copy.
        let want: Vec<u64> = (self.container_ids().into_iter())
            .filter(|&cid| self.replica_nodes(cid).contains(&node))
            .map(|cid| cid.raw())
            .collect();
        // Plan first, mutate after.
        let mut plan: Vec<(u64, usize)> = Vec::new();
        for &raw in &want {
            let cid = ContainerId::new(raw);
            if !replace && self.nodes[node].clean_copy(raw) {
                continue;
            }
            match self.healthy_source(cid, node) {
                Some(src) => plan.push((raw, src)),
                None => {
                    return Err(StoreError::Unrecoverable {
                        container: cid,
                        node,
                    })
                }
            }
        }
        if replace {
            self.nodes[node].containers.clear();
        } else {
            // In-place scrub: drop any stale copy of a reclaimed
            // container (the replaced-disk path wipes them wholesale).
            let reclaimed = &self.reclaimed;
            self.nodes[node]
                .containers
                .retain(|raw, _| !reclaimed.contains(raw));
        }
        self.nodes[node].down = false;
        let mut recopied = 0;
        for (raw, src) in plan {
            if let Some((_, copied)) = self.recopy(raw, src, node) {
                copied?;
                recopied += 1;
            }
        }
        Ok(RepairReport {
            scanned: want.len() as u64,
            recopied,
        })
    }

    /// Cluster-wide scrub: read and checksum-verify **every container
    /// copy on every up node**, re-replicating corrupt copies (and
    /// missing ring copies of under-replicated containers) from clean
    /// surviving sources. A corrupt copy with no clean source anywhere is
    /// counted [`ScrubReport::unrecoverable`] and left in place for a
    /// later repair.
    ///
    /// A copy whose verifying read fails is counted and recopied like a
    /// corrupt one (left as it was without a source), and a failed recopy
    /// leaves its copy unrepaired. Beside the report it
    /// returns a [`ScrubLeg`] for every verifying read and every recopy,
    /// in charge order: the verifying reads wait for no one's data, so a
    /// caller that puts them on per-node lanes at one start sees the
    /// nodes scrub side by side, while a recopy's write waits for its
    /// source read to end. Down nodes are skipped entirely — their copies
    /// are [`ChunkRepository::repair_node`]'s job at revive time.
    pub fn scrub_all(&mut self) -> (ScrubReport, Vec<ScrubLeg>) {
        let mut report = ScrubReport::default();
        let mut legs: Vec<ScrubLeg> = Vec::new();
        for cid in self.container_ids() {
            let raw = cid.raw();
            // Verify every resident copy on every up node: one whole read
            // of its image.
            let holders: Vec<(usize, u64)> = (0..self.nodes.len())
                .filter(|&n| !self.nodes[n].down)
                .filter_map(|n| {
                    Some((
                        n,
                        self.image_bytes(&self.nodes[n].containers.get(&raw)?.container),
                    ))
                })
                .collect();
            // Copies to recopy, and whether each was found corrupt.
            let mut redo: Vec<(usize, bool)> = Vec::new();
            for (node, image) in holders {
                let whole = 0..image;
                let (cost, verified) =
                    self.io_attempts(node, NodeOp::Read(std::slice::from_ref(&whole)));
                let read = (node, cost);
                legs.push(ScrubLeg { read, write: None });
                report.copies_checked += 1;
                if verified.is_err() {
                    redo.push((node, false));
                } else if self.check_copy(node, cid, Fetch::Whole).is_err() {
                    report.corrupt_found += 1;
                    redo.push((node, true));
                }
            }
            // Repair those copies in place from a clean source; then
            // recopy the ring copies that are missing (a node silently
            // lost one).
            let missing = self
                .replica_nodes(cid)
                .into_iter()
                .filter(|&n| !self.nodes[n].down && !self.nodes[n].containers.contains_key(&raw))
                .map(|n| (n, false))
                .collect::<Vec<_>>();
            for (node, corrupt) in redo.into_iter().chain(missing) {
                let Some(src) = self.healthy_source(cid, node) else {
                    report.unrecoverable += u64::from(corrupt);
                    continue;
                };
                if let Some((leg, copied)) = self.recopy(raw, src, node) {
                    legs.push(leg);
                    report.repaired += u64::from(copied.is_ok());
                }
            }
        }
        (report, legs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::Payload;
    use debar_hash::Fingerprint;
    use debar_simio::models::paper;
    use debar_simio::FaultPlan;

    fn fp(n: u64) -> Fingerprint {
        Fingerprint::of_counter(n)
    }

    fn repo(nodes: usize) -> ChunkRepository {
        ChunkRepository::new(nodes, paper::repo_disk(), 1 << 20)
    }

    fn repo_r(nodes: usize, replication: usize) -> ChunkRepository {
        repo(nodes).with_replication(replication)
    }

    fn container_with(range: std::ops::Range<u64>) -> Container {
        container_of(range, 1000)
    }

    /// A container of `range`'s chunks, `len` bytes each.
    fn container_of(range: std::ops::Range<u64>, len: u32) -> Container {
        let mut c = Container::new(1 << 20);
        for i in range {
            assert!(c.try_append(fp(i), Payload::Zero(len)));
        }
        c
    }

    fn store_ok(r: &mut ChunkRepository, c: Container) -> ContainerId {
        store_one(r, c).expect("store succeeds")
    }

    /// Store one container alone: its ID, or the typed error of the write
    /// that refused it.
    fn store_one(r: &mut ChunkRepository, c: Container) -> Result<ContainerId, StoreError> {
        let out = r.store_batch([c]);
        match out.fault {
            Some((e, _)) => Err(e),
            None => Ok(out.ids[0]),
        }
    }

    fn arm(r: &mut ChunkRepository, node: usize, plan: FaultPlan) {
        r.node_disk_mut(node)
            .expect("node in range")
            .set_fault_plan(plan);
    }

    #[test]
    fn store_assigns_sequential_ids_round_robin() {
        let mut r = repo(4);
        let a = store_ok(&mut r, container_with(0..3));
        let b = store_ok(&mut r, container_with(3..6));
        let c = store_ok(&mut r, container_with(6..9));
        assert_eq!(a.raw(), 0);
        assert_eq!(b.raw(), 1);
        assert_eq!(c.raw(), 2);
        assert_eq!(r.node_of(a), 0);
        assert_eq!(r.node_of(b), 1);
        assert_eq!(r.node_of(c), 2);
        assert_eq!(r.stats().containers, 3);
    }

    #[test]
    fn read_returns_stored_container() {
        let mut r = repo(2);
        let id = store_ok(&mut r, container_with(0..5));
        let got = r.read(id).value.expect("no fault").expect("stored");
        assert_eq!(got.len(), 5);
        assert_eq!(got.id(), id);
        assert!(got.read_chunk(&fp(2)).is_some());
        assert!(r.read(ContainerId::new(999)).value.expect("ok").is_none());
        assert!(r.read(ContainerId::NULL).value.expect("ok").is_none());
    }

    #[test]
    fn read_metas_is_cheaper_than_full_read() {
        let mut r = repo(1);
        let id = store_ok(&mut r, container_with(0..100));
        let metas = r.read_metas(id);
        let full = r.read(id);
        assert_eq!(metas.value.expect("ok").expect("stored").len(), 100);
        let cost = |legs: ReadLegs| legs.served.expect("served").cost;
        assert!(
            cost(metas.legs) < cost(full.legs),
            "meta read must be cheaper"
        );
    }

    /// The first chunk of a stored container that `damage` touches —
    /// `None` when it starts in the header or the metadata section.
    fn first_damaged_chunk(c: &Container, damage: Damage) -> Option<usize> {
        let at = damage.position(c.serialized_len(), c.id().raw());
        let data_at = at.checked_sub(6 + 32 * c.len())? as u64;
        (c.metas().iter()).position(|m| data_at < m.offset + m.len as u64)
    }

    #[test]
    fn a_ranged_read_charges_the_metadata_section_and_its_extents_as_one_op() {
        // A ranged read pays a seek per I/O, so it beats the whole read
        // only where what it skips takes longer to stream than a seek. A
        // tenth of a container of 100 kB did while a whole read read the
        // 1 MiB slot; now that it reads the image it does not, and this
        // container holds 1 MB.
        let mut r = repo(1);
        let id = store_ok(&mut r, container_of(0..100, 10_000));
        let disk = paper::repo_disk();
        let before = (r.nodes()[0].disk_stats(), r.nodes[0].disk.ops());
        let tenth = |f: &Fingerprint| (30..40).any(|n| *f == fp(n));
        let read = r.read_chunks(id, tenth, &[]);
        let chunks = read.value.expect("clean").expect("stored");
        let fps: Vec<Fingerprint> = chunks.iter().map(|(f, _)| *f).collect();
        assert_eq!(fps, (30..40).map(fp).collect::<Vec<_>>());
        // One I/O in one device op: the thirty chunks between the
        // metadata section and the ten it wants stream in less time than
        // a seek, so the gap law reads them through, as it would between
        // two chunks. The resolver may go on once the metadata section is
        // in.
        let (meta, head) = (6 + 32 * 100 + 20, 40 * 10_000);
        let served = read.legs.served.expect("served");
        assert_eq!(served.cost, disk.rand_read_cost(meta + head));
        assert_eq!(
            (served.node, served.data_tail),
            (0, disk.seq_read_cost(head))
        );
        let after = (r.nodes()[0].disk_stats(), r.nodes[0].disk.ops());
        assert_eq!(after.1, before.1 + 1, "one fault-checked op");
        assert_eq!(after.0.rand_reads, before.0.rand_reads + 1, "one seek");
        assert_eq!(
            after.0.rand_read_bytes - before.0.rand_read_bytes,
            meta + head
        );
        let meta = disk.rand_read_cost(meta);
        // Wanting nothing reads the metadata section; wanting so much
        // that the extents cost no less than the image in one piece reads
        // the image in one piece.
        let none = r.read_chunks(id, |_| false, &[]);
        assert!(none.value.expect("clean").expect("stored").is_empty());
        assert_eq!(none.legs.served.map(|s| s.cost), Some(meta));
        let mut full = repo(1);
        let mut big = Container::new(1 << 20);
        (0..1000).for_each(|n| assert!(big.try_append(fp(n), Payload::Zero(1000))));
        let id = store_ok(&mut full, big);
        let all = full.read_chunks(id, |_| true, &[]);
        assert_eq!(all.value.expect("clean").expect("stored").len(), 1000);
        assert_eq!(all.legs, full.read(id).legs);
        // A fault on the op fails the whole attempt, as it does a whole
        // read's.
        arm(&mut r, 0, FaultPlan::fail_at(after.1 + 1));
        let err = r.read_chunks(id, tenth, &[]).value.expect_err("faulted");
        assert!(matches!(
            err,
            StoreError::DiskFault {
                device: Device::RepoNode(0),
                ..
            }
        ));
    }

    #[test]
    fn a_whole_read_reads_the_image_and_never_more_than_the_slot() {
        let disk = paper::repo_disk();
        let mut r = repo_r(2, 2);
        // Ten chunks of 1000 bytes: the image is what `serialize` writes —
        // header, metadata section, data, trailer — a hundredth of the
        // 1 MiB slot the container was written to.
        let small = container_with(0..10);
        let image = 6 + 32 * 10 + 20 + 10 * 1000;
        assert_eq!(small.serialized_len() as u64, image);
        let id = store_ok(&mut r, small);
        let read = r.read(id);
        let served = read.legs.served.map(|s| (s.node, s.cost));
        assert_eq!(served, Some((0, disk.rand_read_cost(image))));
        assert_eq!(r.nodes()[0].disk_stats().rand_read_bytes, image);
        // A container that fills its slot reads the slot, to the bit: its
        // image would be larger, and the slot is all there is.
        let mut full = Container::new(1 << 20);
        while full.try_append(fp(1000 + full.len() as u64), Payload::Zero(1024)) {}
        assert!(full.serialized_len() as u64 > 1 << 20);
        let id_full = store_ok(&mut r, full);
        let served = r.read(id_full).legs.served.map(|s| s.cost);
        assert_eq!(served, Some(disk.rand_read_cost(1 << 20)));
        // Writes still fill the slot: a store charges it on each replica.
        assert_eq!(r.nodes()[1].disk_stats().seq_write_bytes, 2 << 20);

        // Scrub reads every copy whole — its image — and a recopy reads
        // its source's image and writes a slot: the bit-flipped primary
        // of the small container is checked and rewritten on node 0, its
        // replica on node 1 checked and read again as the source.
        let stats =
            |r: &ChunkRepository| -> Vec<_> { r.nodes().iter().map(|n| n.disk_stats()).collect() };
        let before = stats(&r);
        r.set_damage(id, Some(Damage::BitFlip)).expect("stored");
        let (scrub, legs) = r.scrub_all();
        assert_eq!((scrub.corrupt_found, scrub.repaired), (1, 1));
        // (read bytes, written bytes) of node `n` since `before`.
        let delta = |r: &ChunkRepository, before: &[debar_simio::DiskStats], n: usize| {
            let after = r.nodes()[n].disk_stats();
            let read = after.rand_read_bytes - before[n].rand_read_bytes;
            (read, after.seq_write_bytes - before[n].seq_write_bytes)
        };
        assert_eq!(delta(&r, &before, 0), (image + (1 << 20), 1 << 20));
        assert_eq!(delta(&r, &before, 1), (2 * image + (1 << 20), 0));
        // Leg by leg, in charge order: both copies of the small container
        // verified, the recopy's read on node 1 and write on node 0, then
        // both copies of the full one.
        let (small, slot) = (disk.rand_read_cost(image), disk.rand_read_cost(1 << 20));
        let write = disk.seq_write_cost(1 << 20);
        let read = |node, cost| ScrubLeg {
            read: (node, cost),
            write: None,
        };
        let recopy = ScrubLeg {
            read: (1, small),
            write: Some((0, write)),
        };
        let expected = [
            read(0, small),
            read(1, small),
            recopy,
            read(0, slot),
            read(1, slot),
        ];
        assert_eq!(legs, expected);

        // Repairing a replaced disk recopies every copy it held the same
        // way: each image read on its source, each slot written on the
        // repaired node.
        let before = stats(&r);
        r.set_node_down(1).expect("node");
        assert_eq!(r.repair_node(1).expect("sources").recopied, 2);
        assert_eq!(delta(&r, &before, 0), (image + (1 << 20), 0));
        assert_eq!(delta(&r, &before, 1), (0, 2 << 20));
    }

    #[test]
    fn a_chunk_is_in_once_the_io_that_reads_it_has_got_to_its_end() {
        let disk = paper::repo_disk();
        let (meta, len) = (6 + 32 * 100 + 20, 10_000);
        let mut r = repo_r(2, 2);
        let id = store_ok(&mut r, container_of(0..100, len as u32));
        let at_most_data_tail = |s: &ServedLeg| s.tails.iter().all(|&t| t <= s.data_tail);

        // A whole read streams the data section in order: a chunk is in
        // once what follows it is all that is left, the last as the read
        // completes.
        let whole = r.read(id).legs.served.expect("served");
        let expected: Vec<Secs> = (0..100)
            .map(|i| disk.seq_read_cost((99 - i) * len))
            .collect();
        assert_eq!(whole.tails, expected);
        assert!(whole.tails.windows(2).all(|w| w[0] >= w[1]));
        assert_eq!(whole.tails.last(), Some(&0.0));
        assert!(at_most_data_tail(&whole));

        // A ranged read of two I/Os — the metadata section through chunks
        // 10 and 11 (the ten chunks ahead of them stream in less time than
        // a seek), chunk 80 — in one op: within an I/O the tails fall with
        // the offset, each I/O waits for every later one, the last wanted
        // chunk is in as the read completes.
        let wanted = |f: &Fingerprint| [10, 11, 80].iter().any(|&n| *f == fp(n));
        let ranged = r.read_chunks(id, wanted, &[]).legs.served.expect("served");
        let (first, second) = (
            disk.rand_read_cost(meta + 12 * len),
            disk.rand_read_cost(len),
        );
        assert_eq!(ranged.cost, first + second);
        assert_eq!(ranged.data_tail, disk.seq_read_cost(12 * len) + second);
        let expected = [disk.seq_read_cost(len) + second, second, 0.0];
        assert_eq!(ranged.tails, expected);
        assert!(at_most_data_tail(&ranged));

        // After a failover the tails are the serving leg's own: a faulted
        // whole read on node 0 leaves the replica's read to say them, and
        // a ranged attempt that found its copy corrupt leaves the whole
        // read of the replica that follows it.
        let load = |r: &ChunkRepository, n: usize| r.nodes()[n].disk_stats().rand_read_bytes;
        let preferred = usize::from(load(&r, 1) < load(&r, 0));
        let next = r.nodes[preferred].disk.ops();
        arm(&mut r, preferred, FaultPlan::fail_at(next));
        let read = r.read(id);
        assert_eq!(read.legs.failed.len(), 1);
        let served = read.legs.served.map(|s| (s.node, s.tails));
        assert_eq!(served, Some((1 - preferred, whole.tails.clone())));
        let hit = first_damaged_chunk(
            &r.read(id).value.expect("clean").expect("stored"),
            Damage::Torn,
        )
        .expect("a torn image loses its last third");
        r.set_damage(id, Some(Damage::Torn)).expect("stored");
        let on_it = |f: &Fingerprint| *f == fp(hit as u64);
        let mut read = r.read_chunks(id, on_it, &[]);
        while read.legs.failed.is_empty() {
            // Load balancing preferred the clean replica: ask again.
            read = r.read_chunks(id, on_it, &[]);
        }
        let served = read.legs.served.expect("the replica");
        assert_eq!(served.tails, [whole.tails[hit]], "read whole");
    }

    #[test]
    fn a_ranged_read_verifies_what_it_uses_and_leaves_the_rest_to_scrub() {
        // Containers of 1 MB: a whole read reads the image, so a ranged
        // read of a few chunks of a 100 kB one would be read whole — and
        // verified against its trailer — as the cheaper plan.
        let stored = |n: u64| container_of(n * 100..n * 100 + 100, 10_000);
        for damage in [Damage::BitFlip, Damage::Torn] {
            // Find a container the damage hits in mid data section.
            let mut r = repo_r(2, 2);
            let ids: Vec<ContainerId> = (0..8).map(|n| store_ok(&mut r, stored(n))).collect();
            let (id, hit) = (ids.iter())
                .find_map(|&id| {
                    let c = r.read(id).value.expect("clean").expect("stored");
                    let hit = first_damaged_chunk(&c, damage)?;
                    (hit >= 10).then_some((id, c.metas()[hit].fp))
                })
                .expect("one of eight");
            let first = id.raw() * 100;
            r.set_damage(id, Some(damage)).expect("stored");
            let damaged = r.locate(id).expect("held");
            let stats = r.stats();

            // Outside: the extents end before the damage begins. Both
            // copies serve, nothing is counted, the damage stays.
            let before_it = |f: &Fingerprint| (first..first + 5).any(|n| *f == fp(n));
            for _ in 0..2 {
                let read = r.read_chunks(id, before_it, &[]);
                assert_eq!(read.value.expect("unseen").expect("stored").len(), 5);
                assert!(read.legs.failed.is_empty() && read.legs.repairs.is_empty());
            }
            assert_eq!(r.stats().corrupt_reads, stats.corrupt_reads, "{damage:?}");
            assert_eq!(r.under_replicated(), [id], "{damage:?}: still damaged");

            // Inside: the wanted chunk does not hash back. A corrupt read
            // exactly as a whole read's — counted, the replica serves,
            // read whole so that the repair writes a verified image.
            let on_it = |f: &Fingerprint| *f == hit;
            let disk = paper::repo_disk();
            let mut read = r.read_chunks(id, on_it, &[]);
            while read.legs.failed.is_empty() {
                // Load balancing preferred the clean replica: ask again.
                read = r.read_chunks(id, on_it, &[]);
            }
            let meta = 6 + 32 * 100 + 20;
            let ranged = disk.rand_read_cost(meta) + disk.rand_read_cost(10_000);
            assert_eq!(read.legs.failed.len(), 1, "{damage:?}");
            assert_eq!(read.legs.failed[0].0, damaged);
            assert!((read.legs.failed[0].1 - ranged).abs() < 1e-15);
            let served = read.legs.served.expect("replica");
            let image = meta + 100 * 10_000;
            assert_eq!(served.cost, disk.rand_read_cost(image), "read whole");
            assert_eq!(read.legs.repairs, [(damaged, disk.seq_write_cost(1 << 20))]);
            assert_eq!(read.value.expect("served").expect("stored").len(), 1);
            assert_eq!(r.stats().corrupt_reads, stats.corrupt_reads + 1);
            assert_eq!(r.stats().read_repairs, stats.read_repairs + 1);
            assert!(r.under_replicated().is_empty(), "{damage:?}: repaired");

            // R = 1: nobody to fail over to — the typed error; and what
            // the ranged read never saw, scrub finds.
            let mut r = repo(1);
            let mut sole = ContainerId::NULL;
            while sole != id {
                let next = stored(r.stats().containers);
                sole = store_ok(&mut r, next);
            }
            r.set_damage(id, Some(damage)).expect("stored");
            assert_eq!(r.read_chunks(id, before_it, &[]).legs.failed, []);
            let err = r.read_chunks(id, on_it, &[]).value.expect_err("sole copy");
            assert!(
                matches!(err, StoreError::CorruptContainer { container, .. } if container == id),
                "{damage:?}: {err}"
            );
            assert_eq!(r.stats().corrupt_reads, 1);
            let scrub = r.scrub_all().0;
            assert_eq!((scrub.corrupt_found, scrub.unrecoverable), (1, 1));
        }
    }

    #[test]
    fn store_charges_target_node_disk() {
        let mut r = repo(2);
        let out = r.store_batch([container_with(0..2)]);
        let write = paper::repo_disk().seq_write_cost(1 << 20);
        assert_eq!(out.writes, [(0, write)], "one slot write on the primary");
        assert_eq!(r.nodes()[0].disk_stats().seq_write_bytes, 1 << 20);
        assert_eq!(r.nodes()[1].disk_stats().seq_write_bytes, 0);
    }

    #[test]
    fn replicated_store_charges_every_replica_disk() {
        let mut r = repo_r(3, 2);
        let id = store_ok(&mut r, container_with(0..2)); // primary node 0
        assert_eq!(r.replica_nodes(id), vec![0, 1]);
        assert_eq!(r.nodes()[0].disk_stats().seq_write_bytes, 1 << 20);
        assert_eq!(r.nodes()[1].disk_stats().seq_write_bytes, 1 << 20);
        assert_eq!(r.nodes()[2].disk_stats().seq_write_bytes, 0);
        // Logical stats count the container once.
        assert_eq!(r.stats().containers, 1);
        // Each replica write is its own leg, on its own node: side by side
        // on their lanes, the store costs one write, not two.
        let out = repo_r(3, 2).store_batch([container_with(0..2)]);
        let write = paper::repo_disk().seq_write_cost(1 << 20);
        assert_eq!(out.writes, [(0, write), (1, write)]);
    }

    #[test]
    fn container_ids_sorted() {
        let mut r = repo(2);
        for i in 0..5u64 {
            store_ok(&mut r, container_with(i * 2..i * 2 + 2));
        }
        let ids = r.container_ids();
        assert_eq!(ids.len(), 5);
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn container_ids_deduplicated_across_replicas() {
        let mut r = repo_r(2, 2);
        for i in 0..3u64 {
            store_ok(&mut r, container_with(i * 2..i * 2 + 2));
        }
        assert_eq!(r.container_ids().len(), 3, "each counted once");
    }

    #[test]
    fn store_fail_fault_persists_nothing_and_keeps_the_id() {
        let mut r = repo(2);
        // Node 0 receives container 0; fail its first disk op.
        arm(&mut r, 0, FaultPlan::fail_at(0));
        let err =
            store_one(&mut r, container_with(0..3)).expect_err("injected failure must surface");
        assert!(matches!(
            err,
            StoreError::DiskFault {
                device: Device::RepoNode(0),
                ..
            }
        ));
        assert_eq!(r.stats().containers, 0, "nothing persisted");
        assert_eq!(r.container_ids().len(), 0);
        // Retrying converges to the same ID: allocation is part of commit.
        let id = store_ok(&mut r, container_with(0..3));
        assert_eq!(id.raw(), 0);
        assert!(r.read(id).value.expect("ok").is_some());
    }

    #[test]
    fn replica_write_fail_fault_persists_nothing_anywhere() {
        let mut r = repo_r(2, 2);
        // The replica (second) write of container 0 lands on node 1.
        arm(&mut r, 1, FaultPlan::fail_at(0));
        let err =
            store_one(&mut r, container_with(0..3)).expect_err("replica write fault surfaces");
        assert!(matches!(
            err,
            StoreError::DiskFault {
                device: Device::RepoNode(1),
                ..
            }
        ));
        assert_eq!(r.stats().containers, 0, "no copy persisted on any node");
        assert_eq!(r.nodes()[0].container_count(), 0);
        assert_eq!(r.nodes()[1].container_count(), 0);
        // Redo converges to the same ID.
        let id = store_ok(&mut r, container_with(0..3));
        assert_eq!(id.raw(), 0);
    }

    #[test]
    fn torn_write_is_silent_then_detected_on_read() {
        let mut r = repo(1);
        arm(&mut r, 0, FaultPlan::torn_write_at(0));
        let id = store_ok(&mut r, container_with(0..10));
        // The write "succeeded" (buffered) — but every read detects it.
        let err = r.read(id).value.expect_err("corruption detected");
        assert!(
            matches!(err, StoreError::CorruptContainer { container, .. } if container == id),
            "{err}"
        );
        assert!(r.read_metas(id).value.is_err());
        assert_eq!(r.stats().corrupt_reads, 2);
        // Deterministic: the same read keeps failing the same way.
        assert_eq!(r.read(id).value.expect_err("still corrupt"), err);
    }

    #[test]
    fn corrupt_primary_fails_over_to_clean_replica() {
        let mut r = repo_r(2, 2);
        // Tear only the primary (first) write of container 0 on node 0.
        arm(&mut r, 0, FaultPlan::torn_write_at(0));
        let id = store_ok(&mut r, container_with(0..10));
        let read = r.read(id);
        // Leg by leg: the whole read that found node 0's copy corrupt, the
        // serving read on node 1 — whose metadata section (10 chunks) is
        // in `data_tail` before it completes, and each chunk as soon as
        // the data behind it is all that is left — and the repair write
        // back on node 0. A whole read reads the image — metadata section
        // and ten chunks of 1000 bytes — where it used to read the 1 MiB
        // slot; the repair still writes the slot.
        let disk = paper::repo_disk();
        let meta = 6 + 32 * 10 + 20;
        let full = disk.rand_read_cost(meta + 10 * 1000);
        assert_eq!(read.legs.failed, [(0, full)]);
        let served = ServedLeg {
            node: 1,
            cost: full,
            data_tail: disk.seq_read_cost(10 * 1000),
            tails: (0..10)
                .map(|i| disk.seq_read_cost((9 - i) * 1000))
                .collect(),
            data_bytes: 10 * 1000,
        };
        assert_eq!(read.legs.served, Some(served));
        assert_eq!(read.legs.repairs, [(0, disk.seq_write_cost(1 << 20))]);
        // On its nodes' lanes the legs run one after another: node 1 is
        // tried once node 0's copy is found corrupt, and node 0 repaired
        // once node 1's copy is in.
        let mut lanes = [Lane::new(), Lane::new()];
        let end = read.legs.run_on(&mut lanes, 0.0);
        assert_eq!(end, full + full + disk.seq_write_cost(1 << 20));
        assert_eq!(
            (lanes[0].busy, lanes[1].busy),
            (full + disk.seq_write_cost(1 << 20), full)
        );
        let got = read.value.expect("replica saves the read").expect("stored");
        assert_eq!(got.len(), 10);
        // The failover split: a checksum failure counts in corrupt_reads,
        // not failover_reads — telemetry tells corruption from downed
        // hardware apart.
        assert_eq!(r.stats().corrupt_reads, 1, "primary copy detected corrupt");
        assert_eq!(r.stats().failover_reads, 0, "not a down/fault failover");
        // The read also repaired the corrupt copy inline from the clean
        // replica it returned: the next read of either copy is healthy.
        assert_eq!(r.stats().read_repairs, 1);
        assert!(r.under_replicated().is_empty(), "read-repair healed it");
        assert!(r.read(id).value.expect("clean").is_some());
        assert_eq!(r.stats().corrupt_reads, 1, "no further corruption seen");
    }

    #[test]
    fn down_node_fails_over_and_is_counted() {
        let mut r = repo_r(2, 2);
        let id = store_ok(&mut r, container_with(0..5));
        r.set_node_down(0).expect("node in range");
        assert!(r.is_node_down(0).expect("node in range"));
        let got = r.read(id).value.expect("replica serves").expect("stored");
        assert_eq!(got.len(), 5);
        assert_eq!(r.stats().failover_reads, 1);
        // Only the replica's disk saw the read.
        assert_eq!(r.nodes()[0].disk_stats().rand_read_bytes, 0);
        r.revive_node(0).expect("node in range");
        let _ = r.read(id);
        assert_eq!(r.stats().failover_reads, 1, "healthy read is not degraded");
        assert_eq!(r.stats().primary_reads(), 1);
    }

    #[test]
    fn reads_balance_across_replicas_at_r2() {
        let mut r = repo_r(2, 2);
        let id = store_ok(&mut r, container_with(0..4));
        for _ in 0..6 {
            assert!(r.read(id).value.expect("clean").is_some());
        }
        // Least-loaded selection alternates the serving copy: both node
        // disks carry read traffic instead of the ring head taking all.
        let a = r.nodes()[0].disk_stats().rand_read_bytes;
        let b = r.nodes()[1].disk_stats().rand_read_bytes;
        assert!(a > 0 && b > 0, "reads spread across both replicas");
        assert_eq!(a, b, "equal-size reads alternate evenly: {a} vs {b}");
        // Balanced reads off the primary are healthy, not degraded.
        assert_eq!(r.stats().failover_reads, 0);
        assert_eq!(r.stats().primary_reads(), 6);
    }

    #[test]
    fn all_replicas_down_is_typed_unrecoverable() {
        let mut r = repo(2);
        let id = store_ok(&mut r, container_with(0..5)); // single copy, node 0
        r.set_node_down(0).expect("node in range");
        let err = r.read(id).value.expect_err("no surviving copy");
        assert!(
            matches!(err, StoreError::Unrecoverable { container, node: 0 } if container == id),
            "{err}"
        );
        // Reviving the node restores the data (down ≠ lost).
        r.revive_node(0).expect("node in range");
        assert!(r.read(id).value.expect("ok").is_some());
    }

    #[test]
    fn store_to_down_node_is_typed_node_down() {
        let mut r = repo(2);
        r.set_node_down(0).expect("node in range");
        let err = store_one(&mut r, container_with(0..3)).expect_err("down node refuses the write");
        assert!(matches!(err, StoreError::NodeDown { node: 0 }));
        assert_eq!(r.stats().containers, 0);
        // The ID stays unconsumed: after revival the store converges.
        r.revive_node(0).expect("node in range");
        assert_eq!(store_ok(&mut r, container_with(0..3)).raw(), 0);
    }

    #[test]
    fn unknown_node_is_typed_error_not_a_panic() {
        let mut r = repo(2);
        let expect_unknown = |e: StoreError| {
            assert!(
                matches!(e, StoreError::UnknownNode { node: 7, nodes: 2 }),
                "{e}"
            );
        };
        expect_unknown(r.node_disk_mut(7).expect_err("typed"));
        expect_unknown(r.set_node_down(7).expect_err("typed"));
        expect_unknown(r.revive_node(7).expect_err("typed"));
        expect_unknown(r.is_node_down(7).expect_err("typed"));
        expect_unknown(r.repair_node(7).expect_err("typed"));
    }

    #[test]
    fn read_fail_fault_surfaces_as_disk_fault() {
        let mut r = repo(1);
        let id = store_ok(&mut r, container_with(0..2)); // op 0: write
        arm(&mut r, 0, FaultPlan::fail_at(1));
        let err = r.read(id).value.expect_err("read fault");
        assert!(matches!(
            err,
            StoreError::DiskFault {
                device: Device::RepoNode(0),
                ..
            }
        ));
        // One-shot: the next read succeeds.
        assert!(r.read(id).value.expect("ok").is_some());
    }

    #[test]
    fn read_fail_fault_fails_over_to_replica() {
        let mut r = repo_r(2, 2);
        let id = store_ok(&mut r, container_with(0..2)); // node 0 op 0: write
        arm(&mut r, 0, FaultPlan::fail_at(1));
        let read = r.read(id);
        // The faulted attempt stays on node 0, the serving read is node
        // 1's: each a whole read of the image — two chunks of 1000 bytes
        // behind their metadata section — not of the 1 MiB slot.
        let full = paper::repo_disk().rand_read_cost(6 + 32 * 2 + 20 + 2 * 1000);
        assert_eq!(read.legs.failed, [(0, full)]);
        assert_eq!(read.legs.served.map(|s| (s.node, s.cost)), Some((1, full)));
        assert!(read.legs.repairs.is_empty());
        let got = read.value.expect("replica saves it").expect("stored");
        assert_eq!(got.len(), 2);
        assert_eq!(r.stats().failover_reads, 1);
    }

    #[test]
    fn store_batch_matches_one_at_a_time_semantics() {
        // One batch of five containers and five one-container batches:
        // identical IDs, placement, statistics, per-node op/byte
        // accounting, and the same write legs in the same order.
        let containers = || (0..5u64).map(|i| container_with(i * 3..i * 3 + 3));
        let (mut one, mut batched) = (repo_r(3, 2), repo_r(3, 2));
        let (mut ids, mut writes) = (Vec::new(), Vec::new());
        for c in containers() {
            let out = one.store_batch([c]);
            assert!(out.fault.is_none());
            ids.extend(out.ids);
            writes.extend(out.writes);
        }
        let out = batched.store_batch(containers());
        assert!(out.fault.is_none());
        assert_eq!(out.ids, ids);
        assert_eq!(out.writes, writes);
        assert_eq!(writes.len(), 2 * 5, "one leg per replica");
        assert_eq!(batched.stats(), one.stats());
        for n in 0..3 {
            let held = |r: &ChunkRepository| {
                let mut raws: Vec<u64> = r.nodes[n].containers.keys().copied().collect();
                raws.sort();
                raws
            };
            assert_eq!(held(&batched), held(&one), "node {n} placement must match");
            assert_eq!(
                batched.nodes()[n].disk_stats(),
                one.nodes()[n].disk_stats(),
                "node {n} op/byte accounting must match"
            );
        }
    }

    #[test]
    fn store_batch_fault_returns_failed_container_and_drops_rest() {
        let mut r = repo(2);
        // Node 0 takes containers 0 and 2; fail its second write (= batch
        // index 2).
        arm(&mut r, 0, FaultPlan::fail_at(1));
        let batch: Vec<Container> = (0..4u64)
            .map(|i| container_with(i * 2..i * 2 + 2))
            .collect();
        let out = r.store_batch(batch);
        assert_eq!(out.ids.len(), 2, "durable prefix before the fault");
        let write = paper::repo_disk().seq_write_cost(1 << 20);
        assert_eq!(
            out.writes,
            [(0, write), (1, write)],
            "the faulted write is not"
        );
        let (err, failed) = out.fault.expect("fault surfaced");
        assert!(matches!(
            err,
            StoreError::DiskFault {
                device: Device::RepoNode(0),
                ..
            }
        ));
        assert_eq!(failed.len(), 2, "failed container handed back");
        assert!(failed.id().is_null(), "unconsumed: no ID assigned");
        assert_eq!(r.stats().containers, 2, "rest of the batch dropped");
        // Redo of the failed container converges to the same ID.
        let id = store_ok(&mut r, failed);
        assert_eq!(id.raw(), 2);
    }

    #[test]
    fn repair_replaces_a_down_node_from_surviving_replicas() {
        let mut r = repo_r(3, 2);
        let ids: Vec<ContainerId> = (0..6u64)
            .map(|i| store_ok(&mut r, container_with(i * 2..i * 2 + 2)))
            .collect();
        r.set_node_down(1).expect("node in range");
        // Node 1 holds 4 copies: primaries of ids 1,4 + replicas of 0,3.
        assert_eq!(r.under_replicated().len(), 4);
        let before: Vec<_> = r.nodes().iter().map(|n| n.disk_stats()).collect();
        let report = r.repair_node(1).expect("recoverable");
        assert_eq!(report.scanned, 4);
        assert_eq!(report.recopied, 4, "a down node is replaced wholesale");
        // Each copy's image read once on its surviving source — node 0
        // for ids 0 and 3, node 2 for ids 1 and 4 — and a slot written
        // for each on node 1.
        let image = container_with(0..2).serialized_len() as u64;
        let delta = |n: usize| {
            let after = r.nodes()[n].disk_stats();
            let read = after.rand_read_bytes - before[n].rand_read_bytes;
            (read, after.seq_write_bytes - before[n].seq_write_bytes)
        };
        assert_eq!(delta(0), (2 * image, 0));
        assert_eq!(delta(1), (0, 4 << 20));
        assert_eq!(delta(2), (2 * image, 0));
        assert!(!r.is_node_down(1).expect("node in range"));
        assert!(r.under_replicated().is_empty(), "full replication restored");
        // Post-repair reads are healthy, not degraded.
        let before = r.stats().failover_reads;
        for &id in &ids {
            assert!(r.read(id).value.expect("clean").is_some());
        }
        assert_eq!(r.stats().failover_reads, before);
    }

    #[test]
    fn repair_scrubs_a_damaged_copy_in_place() {
        let mut r = repo_r(2, 2);
        // Tear the replica (second) copy of container 0 on node 1.
        arm(&mut r, 1, FaultPlan::torn_write_at(0));
        let id = store_ok(&mut r, container_with(0..8));
        assert_eq!(r.under_replicated(), vec![id]);
        let report = r.repair_node(1).expect("recoverable");
        assert_eq!(report.recopied, 1, "only the damaged copy is recopied");
        assert!(r.under_replicated().is_empty());
        // The scrubbed copy serves reads even with the primary down.
        r.set_node_down(0).expect("node in range");
        assert!(r.read(id).value.expect("replica clean").is_some());
    }

    #[test]
    fn repair_of_sole_copy_refuses_with_unrecoverable() {
        let mut r = repo(2); // replication = 1
        let id = store_ok(&mut r, container_with(0..4)); // node 0
        r.set_node_down(0).expect("node in range");
        let err = r.repair_node(0).expect_err("no surviving source");
        assert!(
            matches!(err, StoreError::Unrecoverable { container, node: 0 } if container == id),
            "{err}"
        );
        // Refusal changed nothing: revival restores the original copy.
        r.revive_node(0).expect("node in range");
        assert!(r.read(id).value.expect("intact").is_some());
    }

    #[test]
    #[should_panic]
    fn storing_empty_container_rejected() {
        repo(1).store_batch([Container::new(100)]);
    }

    #[test]
    #[should_panic]
    fn double_store_rejected() {
        let mut r = repo(1);
        let mut c = container_with(0..1);
        c.set_id(ContainerId::new(5));
        r.store_batch([c]);
    }

    #[test]
    #[should_panic]
    fn replication_beyond_cluster_rejected() {
        repo(2).with_replication(3);
    }

    #[test]
    fn delete_frees_every_replica_and_accounts_physical_bytes() {
        let mut r = repo_r(4, 2);
        let a = store_ok(&mut r, container_with(0..3));
        let b = store_ok(&mut r, container_with(3..6));
        let bytes = 3 * 1000u64;
        let before = r.physical_data_bytes();
        assert_eq!(before, 2 * 2 * bytes, "R=2: every container twice");
        let freed = r.delete_container(a).expect("known container");
        assert_eq!(freed.bytes, 2 * bytes);
        let free = paper::repo_disk().seq_write_cost(4096);
        assert_eq!(freed.node_costs, [(0, free), (1, free)], "each holder");
        assert_eq!(r.physical_data_bytes(), before - 2 * bytes);
        let s = r.stats();
        assert_eq!(s.reclaimed_containers, 1);
        assert_eq!(s.reclaimed_bytes, bytes);
        assert_eq!(s.reclaimed_physical_bytes, 2 * bytes);
        // Gone from every lookup path; the survivor is untouched.
        assert!(!r.contains(a));
        assert!(r.locate(a).is_none());
        assert!(r.read(a).value.expect("clean").is_none());
        assert!(!r.container_ids().contains(&a));
        assert!(r.read(b).value.expect("clean").is_some());
    }

    #[test]
    fn delete_unknown_or_double_is_typed() {
        let mut r = repo(2);
        let ghost = ContainerId::new(9);
        assert_eq!(
            r.delete_container(ghost),
            Err(StoreError::MissingContainer { container: ghost })
        );
        let a = store_ok(&mut r, container_with(0..2));
        r.delete_container(a).expect("first free");
        assert_eq!(
            r.delete_container(a),
            Err(StoreError::MissingContainer { container: a }),
            "double free must be typed, never silent"
        );
        let s = r.stats();
        assert_eq!(s.reclaimed_containers, 1, "refused frees not accounted");
    }

    #[test]
    fn delete_while_node_down_purges_stale_copy_on_revive() {
        let mut r = repo_r(2, 2);
        let a = store_ok(&mut r, container_with(0..2)); // both nodes hold a copy
        r.set_node_down(0).expect("in range");
        let freed = r.delete_container(a).expect("replica reachable");
        assert_eq!(
            freed.bytes,
            2 * 2000,
            "the stranded copy counts as reclaimed"
        );
        assert_eq!(
            freed.node_costs.len(),
            1,
            "only the reachable node is charged"
        );
        // Tombstoned cluster-wide even while node 0 still has it on disk.
        assert!(!r.contains(a));
        assert!(r.container_ids().is_empty());
        r.revive_node(0).expect("in range");
        assert_eq!(
            r.nodes()[0].container_count(),
            0,
            "revive must purge the reclaimed copy, not resurrect it"
        );
        assert!(r.read(a).value.expect("clean").is_none());
    }

    #[test]
    fn repair_after_delete_does_not_resurrect() {
        let mut r = repo_r(2, 2);
        let a = store_ok(&mut r, container_with(0..2));
        let b = store_ok(&mut r, container_with(2..4));
        r.set_node_down(0).expect("in range");
        r.delete_container(a).expect("replica reachable");
        // Replace node 0's disk: it must come back holding only the live
        // container's copy.
        let rep = r.repair_node(0).expect("repairable");
        assert_eq!(rep.scanned, 1, "the reclaimed container is not wanted");
        assert_eq!(rep.recopied, 1);
        assert!(!r.is_node_down(0).expect("in range"));
        assert!(!r.contains(a));
        assert_eq!(r.healthy_copies(b), 2);
        assert!(r.under_replicated().is_empty());
    }

    #[test]
    fn typed_damage_hooks_refuse_unknown_containers() {
        let mut r = repo(2);
        let ghost = ContainerId::new(42);
        assert_eq!(
            r.set_damage(ghost, Some(Damage::BitFlip)),
            Err(StoreError::MissingContainer { container: ghost })
        );
        assert_eq!(
            r.set_damage(ghost, None),
            Err(StoreError::MissingContainer { container: ghost })
        );
        let id = store_ok(&mut r, container_with(0..3));
        r.set_damage(id, Some(Damage::BitFlip)).expect("exists");
        assert!(r.read(id).value.is_err(), "damage landed");
        r.set_damage(id, None).expect("exists");
        assert!(r.read(id).value.expect("clean").is_some());
        // Reclaimed ids are gone for the hooks too.
        r.delete_container(id).expect("live");
        assert_eq!(
            r.set_damage(id, Some(Damage::Torn)),
            Err(StoreError::MissingContainer { container: id })
        );
    }

    #[test]
    fn transient_write_fault_is_absorbed_by_retry() {
        let mut r = repo(1).with_retry(RetryPolicy::new(3, 0.01));
        // Fails the first two attempts (ops 0 and 1), clears on the third.
        arm(&mut r, 0, FaultPlan::transient_at(0, 2));
        let id =
            store_one(&mut r, container_with(0..4)).expect("in-budget transient never surfaces");
        assert_eq!(id.raw(), 0);
        assert_eq!(r.stats().retried_ops, 2, "two retries absorbed it");
        assert!(r.read(id).value.expect("clean").is_some());
        // The two backoff waits were charged to the node disk on top of
        // the three attempted writes.
        let busy = r.nodes()[0].disk_stats().busy_s;
        assert!(busy >= 2.0 * 0.01, "backoff charged: busy {busy}");
        assert_eq!(
            r.nodes()[0].disk_stats().seq_write_bytes,
            3 << 20,
            "every attempt moved real bytes"
        );
    }

    #[test]
    fn transient_read_fault_is_absorbed_by_retry() {
        let mut r = repo(1).with_retry(RetryPolicy::new(2, 0.0));
        let id = store_ok(&mut r, container_with(0..4)); // op 0
        arm(&mut r, 0, FaultPlan::transient_at(1, 1));
        let got = r.read(id).value.expect("retry absorbs it").expect("stored");
        assert_eq!(got.len(), 4);
        assert_eq!(r.stats().retried_ops, 1);
        // The same node served it: not a failover, not corrupt.
        assert_eq!(r.stats().failover_reads, 0);
        assert_eq!(r.stats().corrupt_reads, 0);
    }

    #[test]
    fn retries_exhausted_is_typed_and_names_the_node() {
        let mut r = repo(1).with_retry(RetryPolicy::new(2, 0.0));
        // Outlasts the two-attempt budget.
        arm(&mut r, 0, FaultPlan::transient_at(0, 5));
        let err = store_one(&mut r, container_with(0..4)).expect_err("budget spent");
        assert_eq!(
            err,
            StoreError::RetriesExhausted {
                node: 0,
                attempts: 2
            },
            "{err}"
        );
        assert_eq!(r.stats().containers, 0, "nothing persisted");
        assert_eq!(r.stats().retried_ops, 1, "the one in-budget retry");
        // Same typed error on the read path.
        let mut r = repo(1).with_retry(RetryPolicy::new(2, 0.0));
        let id = store_ok(&mut r, container_with(0..4));
        arm(&mut r, 0, FaultPlan::transient_at(1, 5));
        let err = r.read(id).value.expect_err("budget spent");
        assert_eq!(
            err,
            StoreError::RetriesExhausted {
                node: 0,
                attempts: 2
            }
        );
    }

    #[test]
    fn a_read_takes_the_copy_whose_lane_starts_first_then_the_least_read() {
        // Three replicas of one container; node 1 has read the most, node
        // 2 a little, node 0 nothing.
        let mut r = repo_r(3, 3);
        let id = store_ok(&mut r, container_with(0..4));
        let other = store_ok(&mut r, container_with(4..8));
        let load = |r: &ChunkRepository| -> Vec<u64> {
            (r.nodes().iter())
                .map(|n| n.disk_stats().rand_read_bytes)
                .collect()
        };
        for (node, reads) in [(1, 3), (2, 1)] {
            for n in 0..3 {
                r.set_node_down(n).expect("node");
            }
            r.revive_node(node).expect("node");
            (0..reads).for_each(|_| assert!(r.read(other).value.is_ok()));
            (0..3).for_each(|n| r.revive_node(n).expect("node"));
        }
        let before = load(&r);
        assert!(before[0] < before[2] && before[2] < before[1], "{before:?}");
        let serving = |r: &mut ChunkRepository, starts: &[Secs]| {
            let read = r.read_chunks(id, |f| *f == fp(2), starts);
            assert!(read.legs.failed.is_empty());
            read.legs.served.map(|s| s.node)
        };
        // No preference, or every lane starting alike: the least read.
        for starts in [&[][..], &[0.5, 0.5, 0.5], &[0.5; 7]] {
            let mut twin = r.clone();
            assert_eq!(serving(&mut twin, starts), Some(0), "{starts:?}");
            assert_eq!(twin.read(id).legs.served.map(|s| s.node), Some(0));
        }
        // The lane that starts first, however much its disk has read; a
        // tie between the later two goes to the lesser load.
        assert_eq!(serving(&mut r.clone(), &[0.3, 0.1, 0.2]), Some(1));
        assert_eq!(serving(&mut r.clone(), &[0.3, 0.2, 0.2]), Some(2));
        // A failed attempt leaves no mark on the node: once node 1 has
        // failed one read, the next read whose lane for node 1 starts
        // first is served by node 1.
        let next = r.nodes[1].disk.ops();
        arm(&mut r, 1, FaultPlan::fail_at(next));
        let failed = r.read_chunks(id, |f| *f == fp(2), &[0.3, 0.1, 0.2]);
        assert_eq!(
            failed.legs.failed.iter().map(|l| l.0).collect::<Vec<_>>(),
            [1]
        );
        assert_eq!(
            failed.legs.served.map(|s| s.node),
            Some(2),
            "then the next lane"
        );
        assert_eq!(serving(&mut r, &[0.3, 0.1, 0.2]), Some(1));
    }

    #[test]
    fn the_metadata_section_joins_the_first_extent_by_the_gap_law() {
        // The mirror of the two-chunk edge test: the metadata section and
        // the first wanted chunk `gap` bytes behind it are one I/O iff
        // `gap / read_bw <= seek_s` — exactly at `seek_s × read_bw` bytes
        // and not one byte past it.
        let round = DiskModel::new(0.002, 100e6, 100e6);
        for disk in [round, paper::repo_disk()] {
            // A zero-byte random read is the seek alone.
            let seek = disk.rand_read_cost(0);
            let edge = (seek * disk.read_bw()) as u64;
            for gap in [0, 1, edge - 1, edge, edge + 1, edge + 2, 600_000] {
                let mut r = ChunkRepository::new(1, disk, 1 << 20);
                let mut c = Container::new(1 << 20);
                if gap > 0 {
                    assert!(c.try_append(fp(0), Payload::Zero(gap as u32)));
                }
                (1..=3).for_each(|n| assert!(c.try_append(fp(n), Payload::Zero(500))));
                let id = store_ok(&mut r, c);
                let meta = 6 + 32 * (3 + u64::from(gap > 0)) + 20;
                let read = r.read_chunks(id, |f| *f == fp(1), &[]);
                let served = read.legs.served.expect("served");
                let through = disk.seq_read_cost(gap) <= seek;
                assert_eq!(through, gap <= edge, "the law is a byte count: {edge}");
                // The resolver has the metadata section once what follows
                // it in its I/O has streamed in, and every later I/O.
                let (cost, data_tail, ios) = if through {
                    let one = disk.rand_read_cost(meta + gap + 500);
                    (one, disk.seq_read_cost(gap + 500), 1)
                } else {
                    let extent = disk.rand_read_cost(500);
                    (disk.rand_read_cost(meta) + extent, extent, 2)
                };
                assert_eq!(
                    (served.cost, served.data_tail),
                    (cost, data_tail),
                    "gap {gap}"
                );
                assert_eq!(r.nodes()[0].disk_stats().rand_reads, ios, "gap {gap}");
            }
        }
    }

    #[test]
    fn scrub_detects_and_repairs_every_corrupt_copy_at_r2() {
        let mut r = repo_r(3, 2);
        let ids: Vec<ContainerId> = (0..4u64)
            .map(|i| store_ok(&mut r, container_with(i * 3..i * 3 + 3)))
            .collect();
        // Damage the primary copies of two containers.
        r.set_damage(ids[0], Some(Damage::BitFlip)).expect("live");
        r.set_damage(ids[2], Some(Damage::Torn)).expect("live");
        assert_eq!(r.under_replicated().len(), 2);
        let (report, legs) = r.scrub_all();
        assert_eq!(report.copies_checked, 8, "every copy on every node");
        assert_eq!(report.corrupt_found, 2);
        assert_eq!(report.repaired, 2, "100% of corrupt copies repaired");
        assert_eq!(report.unrecoverable, 0);
        assert_eq!(legs.len(), 8 + 2, "a read per copy, a recopy per repair");
        let recopies = legs.iter().filter(|leg| leg.write.is_some()).count();
        assert_eq!(recopies, 2, "each repair's write follows its read");
        assert!(r.under_replicated().is_empty());
        for &id in &ids {
            assert!(r.read(id).value.expect("clean").is_some());
        }
        assert_eq!(r.stats().corrupt_reads, 0, "scrub reads are maintenance");
        // Idempotence: a second scrub finds a fully healthy cluster.
        let again = r.scrub_all().0;
        assert_eq!(again.corrupt_found, 0);
        assert_eq!(again.repaired, 0);
        assert_eq!(again.copies_checked, 8);
    }

    #[test]
    fn replicas_share_one_image_and_keep_their_own_damage() {
        let mut r = repo_r(2, 2);
        let cid = store_ok(&mut r, container_with(0..10));
        // Node `n`'s copy of the one container stored, container 0.
        fn copy(r: &ChunkRepository, n: usize) -> (&Container, Option<Damage>) {
            r.nodes[n].copy(ContainerId::new(0)).expect("held")
        }
        assert_eq!(cid, ContainerId::new(0));
        assert!(std::ptr::eq(copy(&r, 0).0, copy(&r, 1).0), "one image");
        r.set_damage(cid, Some(Damage::BitFlip)).expect("stored");
        let damaged = r.locate(cid).expect("held");
        let clean = 1 - damaged;
        assert_eq!(copy(&r, damaged).1, Some(Damage::BitFlip));
        assert_eq!(copy(&r, clean).1, None, "the sibling stays clean");
        let report = r.scrub_all().0;
        assert_eq!((report.corrupt_found, report.repaired), (1, 1));
        let (healed, source) = (copy(&r, damaged), copy(&r, clean));
        assert_eq!(healed.1, None, "the recopy heals");
        assert!(std::ptr::eq(healed.0, source.0), "and shares the image");
    }

    #[test]
    fn a_failed_scrub_op_is_that_scrub_s_outcome() {
        // R = 2 on 2 nodes. A `Fail` on node 0's verifying read: the copy
        // is counted and recopied from node 1. A `Fail` on the write that
        // would repair node 0's corrupt copy: the copy is counted and left
        // as it was, for the next scrub. Either way the fault is spent
        // with the scrub — the next store is not refused.
        for (damaged, op, repaired) in [(false, 0, 1), (true, 1, 0)] {
            let mut r = repo_r(2, 2);
            let cid = store_ok(&mut r, container_with(0..10));
            if damaged {
                r.set_damage(cid, Some(Damage::BitFlip)).expect("stored");
            }
            let at = r.nodes[0].disk.ops() + op;
            arm(&mut r, 0, FaultPlan::fail_at(at));
            let (report, legs) = r.scrub_all();
            let want = ScrubReport {
                copies_checked: 2,
                corrupt_found: u64::from(damaged),
                repaired,
                unrecoverable: 0,
            };
            assert_eq!(report, want, "damaged={damaged}");
            let recopy =
                (legs.last()).and_then(|leg| leg.write.map(|(node, _)| (leg.read.0, node)));
            assert_eq!((legs.len(), recopy), (3, Some((1, 0))), "damaged={damaged}");
            // The store, the verifying read and the recopy's write.
            assert_eq!(r.nodes[0].disk.ops(), 3, "damaged={damaged}");
            store_ok(&mut r, container_with(10..20));
            assert_eq!(r.under_replicated().len(), usize::from(damaged));
        }
    }

    #[test]
    fn scrub_counts_unrecoverable_sole_copies() {
        let mut r = repo(2); // R = 1
        let id = store_ok(&mut r, container_with(0..4));
        r.set_damage(id, Some(Damage::BitFlip)).expect("live");
        let report = r.scrub_all().0;
        assert_eq!(report.copies_checked, 1);
        assert_eq!(report.corrupt_found, 1);
        assert_eq!(report.repaired, 0, "no clean source anywhere");
        assert_eq!(report.unrecoverable, 1);
        // The copy is left in place: a later admin repair still works.
        r.set_damage(id, None).expect("still resident");
        assert!(r.read(id).value.expect("clean").is_some());
    }

    #[test]
    fn scrub_rebuilds_missing_ring_copies() {
        let mut r = repo_r(3, 2);
        let id = store_ok(&mut r, container_with(0..4)); // ring {0, 1}
                                                         // Node 1 silently loses its copy.
        r.nodes[1].containers.clear();
        assert_eq!(r.under_replicated(), vec![id]);
        let report = r.scrub_all().0;
        assert_eq!(report.corrupt_found, 0);
        assert_eq!(report.repaired, 1, "missing ring copy re-replicated");
        assert!(r.under_replicated().is_empty());
    }

    /// Every resident copy sits on its container's replica ring: what
    /// `holders`, `repair_node` and scrub rest on.
    fn assert_copies_on_rings(r: &ChunkRepository, step: &str) {
        for (n, node) in r.nodes.iter().enumerate() {
            for &raw in node.containers.keys() {
                let ring = r.replica_nodes(ContainerId::new(raw));
                assert!(ring.contains(&n), "{step}: {raw} on {n}, not {ring:?}");
            }
        }
    }

    #[test]
    fn repair_node_twice_is_a_noop_and_scrub_after_finds_nothing() {
        let mut r = repo_r(3, 2);
        for i in 0..5u64 {
            store_ok(&mut r, container_with(i * 2..i * 2 + 2));
        }
        assert_copies_on_rings(&r, "store");
        r.set_node_down(1).expect("in range");
        let first = r.repair_node(1).expect("repairable");
        assert!(first.recopied > 0);
        assert_copies_on_rings(&r, "repair of a down node");
        let counts: Vec<usize> = r.nodes().iter().map(|n| n.container_count()).collect();
        let stats = r.stats();
        // Second repair: same scan, zero recopies, identical state.
        let second = r.repair_node(1).expect("still repairable");
        assert_copies_on_rings(&r, "repair of an up node");
        assert_eq!(second.scanned, first.scanned);
        assert_eq!(second.recopied, 0, "repair is idempotent");
        assert_eq!(
            r.nodes()
                .iter()
                .map(|n| n.container_count())
                .collect::<Vec<_>>(),
            counts
        );
        assert_eq!(r.stats(), stats, "no stats drift from the no-op repair");
        // And a scrub right after repair finds a fully healthy cluster —
        // including after GC reclaimed containers (no resurrection).
        let a = r.container_ids()[0];
        r.delete_container(a).expect("live");
        assert_copies_on_rings(&r, "delete");
        let report = r.scrub_all().0;
        assert_eq!(report.corrupt_found, 0);
        assert_eq!(report.repaired, 0);
        assert!(!r.contains(a), "scrub does not resurrect reclaimed ids");
        // A scrub that repairs a corrupt copy and a missing one writes
        // both back onto their rings.
        let ids = r.container_ids();
        r.set_damage(ids[0], Some(Damage::BitFlip)).expect("live");
        let lost = ids[1];
        let holder = r.replica_nodes(lost)[1];
        r.nodes[holder].containers.remove(&lost.raw());
        let report = r.scrub_all().0;
        assert_eq!((report.corrupt_found, report.repaired), (1, 2));
        assert_copies_on_rings(&r, "scrub repairs");
    }
}
