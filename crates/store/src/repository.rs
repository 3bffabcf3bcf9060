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
//! replica write is charged to its own node disk. Because the replicas
//! land on distinct disks, a batch append completes at the **max over
//! per-node accumulated write time** ([`BatchAppend::cost`]), not the sum:
//! the store phase is as slow as its most-loaded node.
//!
//! Reads **balance and fail over**: with `R >= 2` the read path picks the
//! **least-loaded replica** first (by accumulated random-read bytes on the
//! holding nodes' disks; ties keep ring order, so a fresh repository still
//! prefers the primary), spreading restore traffic across the replica set
//! instead of hammering the ring head. A downed node
//! ([`ChunkRepository::set_node_down`]), an injected [`FaultKind::Fail`],
//! or a copy whose checksum trailer detects corruption transparently
//! redirects the read to the next candidate. A degraded read that succeeds
//! this way is counted in [`RepoStats::failover_reads`] — balanced reads
//! off the primary are *not* degraded; only skips and failures are. Only when *every* copy is unreachable
//! does the read fail — with the last typed error, or
//! [`StoreError::Unrecoverable`] when all holding nodes are down (the
//! `R = 1` node-loss case).
//!
//! Every read reports **which node disk each attempt charged**
//! ([`NodeRead::legs`]: failed attempts in failover order, the serving
//! read, read-repair writes — the read-side twin of
//! [`BatchAppend::node_costs`]; a delete's are
//! [`Reclaimed::node_costs`]). A sequential caller sums them onto its
//! clock ([`NodeRead::timed`]); a pipelined one — the restore walk, GC
//! compaction, the recovery scan — puts each leg on its own node's
//! timeline ([`ReadLegs::run_on`]), which is what lets two nodes read at
//! once.
//!
//! **One failover core, three reads.** [`ChunkRepository::read`] (the
//! paper's whole fixed-size container, one I/O, verified against its
//! checksum trailer), [`ChunkRepository::read_metas`] (the metadata
//! section alone) and [`ChunkRepository::read_chunks`] (the metadata
//! section, then only the extents that hold the chunks the caller wants —
//! [`wanted_extents`] coalesces them by the gap law) are the same
//! balance → attempt → fail over → read-repair loop asked to fetch
//! something else. An attempt is one fault-checked disk op whatever it
//! fetches: a ranged read's I/Os are summed into its cost and counted one
//! by one in the node's [`debar_simio::DiskStats`], so its seeks stay
//! visible, but an armed [`FaultPlan`] sees one op. A ranged read verifies
//! what it uses — header, metadata section, every wanted chunk against its
//! fingerprint — not the trailer it never read; once it has found a copy
//! corrupt it reads the remaining replicas whole, so a read-repair always
//! writes back an image that passed its trailer.
//!
//! [`ChunkRepository::repair_node`] is the scrub/re-replication pass: a
//! downed node is repaired by *replacing* its disk (every copy it held is
//! re-replicated from surviving healthy copies), an up node is scrubbed in
//! place (only missing or damaged copies are recopied). The pass plans
//! before it mutates: if any copy the node must hold has no surviving
//! healthy source, it refuses with [`StoreError::Unrecoverable`] and
//! changes nothing. Like defragmentation (§6.3), repair is background
//! maintenance: it charges real read/write I/O but does not consume armed
//! fault plans.
//!
//! # Self-healing: retry, health, quarantine, scrub
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
//!   exactly the pre-retry behavior.
//! * **Health tracking** ([`Health`], [`HealthPolicy`]): every failed
//!   attempt and every detected-corrupt copy counts against the node;
//!   crossing the configured thresholds drives it `Healthy` → `Suspect` →
//!   `Quarantined`. Replica-read balancing prefers healthier copies;
//!   writes whose placement hits a quarantined node are refused with the
//!   typed [`StoreError::NodeQuarantined`] — unless refusing would leave
//!   fewer than `replication` usable nodes, in which case availability
//!   wins and the write proceeds. [`ChunkRepository::repair_node`] resets
//!   the node to `Healthy`.
//! * **Scrub + read-repair** ([`ChunkRepository::scrub_all`]): a
//!   cluster-wide background pass that reads every container copy on
//!   every up node, verifies the v2 checksum trailer, and re-replicates
//!   corrupt or missing copies from clean survivors ([`ScrubReport`]
//!   accounts every copy; the pass cost is the max over per-node time —
//!   nodes scrub in parallel). Independently, any failover read that
//!   detected a corrupt copy *read-repairs* it inline from the clean copy
//!   it returns ([`RepoStats::read_repairs`]).
//!
//! # Fault injection
//!
//! Every node disk carries a deterministic [`FaultPlan`]
//! (`debar_simio::fault`); store and read paths are fault-checked:
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
use debar_simio::{DiskModel, FaultKind, FaultPlan, Lane, RetryPolicy, Secs, SimDisk, Timed};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// A storage node's tracked health, driven by its error count against the
/// repository's [`HealthPolicy`] thresholds. Reads prefer healthier
/// replicas; writes refuse `Quarantined` placement targets (unless the
/// replication factor could not otherwise be met);
/// [`ChunkRepository::repair_node`] resets a node to `Healthy`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Health {
    /// No concerning error history.
    #[default]
    Healthy,
    /// Error count crossed `suspect_after`: deprioritized for reads,
    /// still written to.
    Suspect,
    /// Error count crossed `quarantine_after`: skipped by read balancing,
    /// refused as a write target while enough healthy nodes exist.
    Quarantined,
}

/// Error thresholds driving a node's [`Health`]. A threshold of 0
/// disables that tier; the default (both 0) disables health tracking
/// entirely — every node stays `Healthy` no matter how it misbehaves,
/// which is the pre-health behavior.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HealthPolicy {
    /// Errors before a node becomes [`Health::Suspect`] (0 = never).
    pub suspect_after: u32,
    /// Errors before a node becomes [`Health::Quarantined`] (0 = never).
    pub quarantine_after: u32,
}

impl HealthPolicy {
    /// A policy with both thresholds set.
    pub fn new(suspect_after: u32, quarantine_after: u32) -> Self {
        HealthPolicy {
            suspect_after,
            quarantine_after,
        }
    }

    /// Whether any tier is active.
    pub fn is_enabled(&self) -> bool {
        self.suspect_after > 0 || self.quarantine_after > 0
    }
}

/// A container copy at rest on a node, with any injected damage it
/// suffered (damage is per-copy: one replica tearing does not corrupt its
/// siblings).
#[derive(Debug, Clone)]
struct StoredContainer {
    container: Container,
    damage: Option<Damage>,
}

/// One storage node: a simulated disk plus its resident container copies.
#[derive(Debug, Clone)]
pub struct StorageNode {
    disk: SimDisk,
    containers: HashMap<u64, StoredContainer>,
    down: bool,
    health: Health,
    /// Errors observed against this node (failed attempts, detected
    /// corrupt copies) — the counter the [`HealthPolicy`] thresholds
    /// compare against. Reset by repair.
    errors: u32,
}

impl StorageNode {
    fn new(model: DiskModel) -> Self {
        StorageNode {
            disk: SimDisk::new(model),
            containers: HashMap::new(),
            down: false,
            health: Health::Healthy,
            errors: 0,
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

    /// Whether the node is down (unreachable for reads and writes).
    pub fn is_down(&self) -> bool {
        self.down
    }

    /// The node's tracked health.
    pub fn health(&self) -> Health {
        self.health
    }

    /// Errors observed against this node since creation or last repair.
    pub fn error_count(&self) -> u32 {
        self.errors
    }

    /// Whether this node holds a copy free of recorded damage.
    fn clean_copy(&self, raw: u64) -> bool {
        self.containers
            .get(&raw)
            .is_some_and(|sc| sc.damage.is_none())
    }
}

/// Aggregate repository statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
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
    /// Store-phase wall for the batch: replica writes land on distinct
    /// node disks working in parallel, so the batch completes at the
    /// **max over per-node accumulated write time** — the most-loaded
    /// node is the straggler.
    pub cost: Secs,
    /// Accumulated write time per node (indexed by node id) for the
    /// durable prefix; `cost` is the max of these.
    pub node_costs: Vec<Secs>,
    /// The first write fault, with the container whose write failed
    /// handed back unconsumed for re-queueing; `None` on a clean batch.
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
#[derive(Debug, Clone, Copy, PartialEq)]
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
    /// Chunk-data bytes that metadata section lists — every chunk of the
    /// served copy, fetched or not: what a reader that wanted only some of
    /// them ([`ChunkRepository::read_chunks`]) left behind is this minus
    /// what it got, at no second I/O.
    pub data_bytes: u64,
}

/// The node-disk legs of one container read, in the order the failover
/// loop charged them: failed attempts, the serving read, read-repair
/// writes — the read-side counterpart of [`BatchAppend::node_costs`].
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
    /// Every `(node, cost)` leg in charge order.
    fn in_order(&self) -> impl Iterator<Item = (usize, Secs)> + '_ {
        (self.failed.iter().copied())
            .chain(self.served.map(|s| (s.node, s.cost)))
            .chain(self.repairs.iter().copied())
    }

    /// The serial sum of every leg, in charge order — what one clock
    /// pays for the read.
    pub fn cost(&self) -> Secs {
        self.in_order().fold(0.0, |sum, (_, c)| sum + c)
    }

    /// Put the legs on their nodes' timelines (`nodes[n]` is node `n`'s),
    /// one after the other from `ready` — a replica is only tried once
    /// the one before it has failed, a repair written once the clean
    /// copy is in — and return when the last completes. Two reads served
    /// by different nodes overlap; on one node they queue.
    pub fn run_on(&self, nodes: &mut [Lane], ready: Secs) -> Secs {
        (self.in_order()).fold(ready, |t, (node, cost)| nodes[node].run(t, cost))
    }
}

/// Outcome of one container read: the value plus **which node disk each
/// attempt charged** ([`ReadLegs`]). A sequential caller lumps the legs
/// onto its clock with [`NodeRead::timed`]; a pipelined one (the restore
/// walk, GC compaction) puts each leg on its own node's timeline
/// ([`ReadLegs::run_on`]), so two nodes' reads overlap.
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

    /// The same read, its value (when a copy served) passed through `f`.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> NodeRead<U> {
        NodeRead {
            value: self.value.map(|served| served.map(f)),
            legs: self.legs,
        }
    }

    /// The read as a sequential caller sees it: the value at the serial
    /// sum of its legs.
    pub fn timed(self) -> Timed<Result<Option<T>, StoreError>> {
        Timed::new(self.value, self.legs.cost())
    }
}

/// Outcome of a [`ChunkRepository::repair_node`] scrub pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RepairReport {
    /// Container copies the node must hold (its replica-set share plus
    /// copies migrated onto it).
    pub scanned: u64,
    /// Copies re-replicated onto the node from surviving healthy sources.
    pub recopied: u64,
}

/// Outcome of a cluster-wide [`ChunkRepository::scrub_all`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
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
    /// One read made of these random I/Os (byte lengths).
    Read(&'a [u64]),
    /// A sequential write of one container.
    Write,
}

/// What one container read fetches from a copy — the argument of the one
/// failover core ([`ChunkRepository::read`], [`ChunkRepository::read_metas`]
/// and [`ChunkRepository::read_chunks`] are its three values).
#[derive(Clone, Copy)]
enum Fetch<'a> {
    /// The paper's read: the whole fixed-size container in one I/O,
    /// verified against its checksum trailer.
    Whole,
    /// The metadata section alone.
    Metas,
    /// The metadata section, then the extents holding the chunks the
    /// predicate wants ([`wanted_extents`]).
    Chunks(&'a dyn Fn(&Fingerprint) -> bool),
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

/// The reads that fetch the `wanted` chunks of a data section laid out as
/// `metas` (stream order, ascending offsets): the byte length of each
/// extent, in offset order. Adjacent wanted chunks share an extent, and
/// the **gap law** decides the rest: the bytes between two wanted chunks
/// are read through exactly when streaming them is no dearer than the
/// seek that skipping them costs — `gap / read_bw <= seek_s`. Nothing
/// before the first or after the last wanted chunk is read.
pub fn wanted_extents(
    metas: &[ChunkMeta],
    wanted: impl Fn(&Fingerprint) -> bool,
    disk: &DiskModel,
) -> Vec<u64> {
    let mut extents = Vec::new();
    // Where the extent being grown ends.
    let mut end = 0u64;
    for m in metas.iter().filter(|m| wanted(&m.fp)) {
        let reach = m.offset + m.len as u64;
        match extents.last_mut() {
            Some(open) if disk.seq_read_cost(m.offset.saturating_sub(end)) <= disk.seek_s => {
                *open += reach.saturating_sub(end);
            }
            _ => extents.push(m.len as u64),
        }
        end = end.max(reach);
    }
    extents
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
    health_policy: HealthPolicy,
    /// Tombstones of reclaimed container ids. A reclaimed container is
    /// dead *cluster-wide*, including copies stranded on nodes that were
    /// down when the deletion ran: every lookup path treats a tombstoned
    /// id as nonexistent, and revive/repair purge stale copies instead of
    /// resurrecting them.
    reclaimed: HashSet<u64>,
}

impl ChunkRepository {
    /// Create a repository of `num_nodes` storage nodes whose disks follow
    /// `model`; `container_bytes` is the fixed on-disk container size used
    /// for I/O charging. Replication defaults to 1 (no replicas); see
    /// [`ChunkRepository::with_replication`].
    pub fn new(num_nodes: usize, model: DiskModel, container_bytes: u64) -> Self {
        assert!(num_nodes > 0, "repository needs at least one node");
        assert!(container_bytes > 0);
        ChunkRepository {
            nodes: (0..num_nodes).map(|_| StorageNode::new(model)).collect(),
            container_bytes,
            next_id: 0,
            stats: RepoStats::default(),
            replication: 1,
            retry: RetryPolicy::default(),
            health_policy: HealthPolicy::default(),
            reclaimed: HashSet::new(),
        }
    }

    /// Builder: set the replication factor — every container is written to
    /// `replication` distinct nodes. Must satisfy
    /// `1 <= replication <= node count` (enforced for configs by
    /// `DebarConfig::try_validate`).
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

    /// Builder: set the node-health thresholds (see [`HealthPolicy`]).
    pub fn with_health_policy(mut self, policy: HealthPolicy) -> Self {
        self.health_policy = policy;
        self
    }

    /// One node's tracked health, or a typed error for an id outside the
    /// cluster.
    pub fn node_health(&self, node: usize) -> Result<Health, StoreError> {
        self.check_node(node)?;
        Ok(self.nodes[node].health)
    }

    /// Record an error against a node and advance its health through the
    /// policy thresholds. Called on every failed fault-checked attempt
    /// (including absorbed transient retries) and every detected-corrupt
    /// copy.
    fn record_node_error(&mut self, node: usize) {
        let n = &mut self.nodes[node];
        n.errors = n.errors.saturating_add(1);
        let p = self.health_policy;
        if p.quarantine_after > 0 && n.errors >= p.quarantine_after {
            n.health = Health::Quarantined;
        } else if p.suspect_after > 0 && n.errors >= p.suspect_after {
            n.health = Health::Suspect;
        }
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

    /// Arm a deterministic fault schedule on one node's disk.
    pub fn set_node_fault_plan(&mut self, node: usize, plan: FaultPlan) -> Result<(), StoreError> {
        self.check_node(node)?;
        self.nodes[node].disk.set_fault_plan(plan);
        Ok(())
    }

    /// Disarm every node's fault schedule.
    pub fn clear_fault_plans(&mut self) {
        for n in &mut self.nodes {
            n.disk.clear_fault_plan();
        }
    }

    /// A node disk's operation counter (for arming `FaultPlan`s at "the
    /// next op on this node").
    pub fn node_disk_ops(&self, node: usize) -> Result<u64, StoreError> {
        self.check_node(node)?;
        Ok(self.nodes[node].disk.ops())
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

    /// Store a sealed container: assigns its ID, writes one copy to each
    /// of the `replication` placement nodes (each charged to its own
    /// disk; the cost is the max — the replicas write in parallel).
    ///
    /// A [`FaultKind::Fail`] injected on any replica write persists
    /// nothing anywhere and leaves the ID unconsumed (retrying the store
    /// converges to the same ID); torn writes and bit flips persist a
    /// damaged image *on that copy only* that later reads detect via the
    /// checksum trailer. A down placement node refuses the write with
    /// [`StoreError::NodeDown`].
    pub fn store(&mut self, container: Container) -> Timed<Result<ContainerId, StoreError>> {
        let (writes, result) = self.store_inner(container);
        let cost = writes.iter().fold(0.0, |m, &(_, c)| f64::max(m, c));
        Timed::new(result.map_err(|(e, _)| e), cost)
    }

    /// Multi-container batch append (the commit of the pipelined
    /// chunk-storing phase): store a sealed-container batch in order,
    /// stopping at the first write fault.
    ///
    /// Per-container semantics — ID assignment, placement, one sequential
    /// write op per replica on its node, the fault rules of
    /// [`ChunkRepository::store`] — are *identical* to storing the batch
    /// one container at a time; the batch amortizes the per-submit
    /// overhead and models the node disks draining behind the packer.
    /// The batch wall ([`BatchAppend::cost`]) is the max over per-node
    /// accumulated write time: the nodes drain their queues in parallel
    /// and the most-loaded node is the straggler. On a fault, the failed
    /// container is handed back unconsumed (its chunks re-queue into the
    /// chunk log) and the remaining batch is dropped — those chunks are
    /// re-derived from the log tail on redo.
    pub fn store_batch(&mut self, batch: impl IntoIterator<Item = Container>) -> BatchAppend {
        let mut out = BatchAppend {
            ids: Vec::new(),
            cost: 0.0,
            node_costs: vec![0.0; self.nodes.len()],
            fault: None,
        };
        for container in batch {
            let (writes, result) = self.store_inner(container);
            match result {
                Ok(id) => {
                    out.ids.push(id);
                    for (node, cost) in writes {
                        out.node_costs[node] += cost;
                    }
                }
                Err((e, failed)) => {
                    // The faulted op's time is the device failing, not
                    // pipeline progress: excluded from the batch cost,
                    // exactly like the one-at-a-time path.
                    out.fault = Some((e, failed));
                    break;
                }
            }
        }
        out.cost = out.node_costs.iter().fold(0.0, |m, &c| f64::max(m, c));
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
        // A quarantined placement node refuses the write the same way —
        // unless refusing would leave fewer than `replication` usable
        // nodes (availability wins over strictness: with the cluster that
        // degraded, the quarantined disk is still the best option).
        let usable = self
            .nodes
            .iter()
            .filter(|n| !n.down && n.health != Health::Quarantined)
            .count();
        if usable >= self.replication {
            if let Some(&node) = targets
                .iter()
                .find(|&&n| self.nodes[n].health == Health::Quarantined)
            {
                return (
                    Vec::new(),
                    Err((StoreError::NodeQuarantined { node }, container)),
                );
            }
        }
        let mut writes: Vec<(usize, Secs)> = Vec::with_capacity(targets.len());
        let mut damages: Vec<(usize, Option<Damage>)> = Vec::with_capacity(targets.len());
        for &node in &targets {
            let (cost, outcome) = self.io_attempts(node, NodeOp::Write);
            writes.push((node, cost));
            match outcome {
                Ok(damage) => damages.push((node, damage)),
                Err(e) => return (writes, Err((e, container))),
            }
        }
        self.next_id += 1;
        container.set_id(id);
        self.stats.containers += 1;
        self.stats.data_bytes += container.data_bytes();
        for (node, damage) in damages {
            self.nodes[node].containers.insert(
                id.raw(),
                StoredContainer {
                    container: container.clone(),
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
            Fetch::Chunks(wanted) => Container::deserialize_chunks(&raw, wanted).and_then(|read| {
                let mut read = read.into_iter();
                let stored = sc.container.chunks().filter(|(fp, _)| wanted(fp));
                for (fp, payload) in stored {
                    let listed = read.find(|(m, _)| m.fp == fp);
                    if !listed.is_some_and(|(_, bytes)| reads_back(&fp, &payload, &bytes)) {
                        return Err(CorruptKind::PayloadMismatch);
                    }
                }
                Ok(())
            }),
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
            cost += match op {
                NodeOp::Read(extents) => disk.rand_read_extents(extents),
                NodeOp::Write => disk.seq_write(self.container_bytes),
            };
            let Some(fault) = disk.take_fault() else {
                return (cost, Ok(None));
            };
            match (op, fault.kind) {
                (NodeOp::Write, FaultKind::TornWrite) => return (cost, Ok(Some(Damage::Torn))),
                (NodeOp::Write, FaultKind::BitFlip) => return (cost, Ok(Some(Damage::BitFlip))),
                _ => {}
            }
            self.record_node_error(node);
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
                StoreError::DiskFault { node, fault }
            };
            return (cost, Err(err));
        }
    }

    /// The nodes holding a copy, in failover order: the replica ring
    /// (primary first), then any node a copy was migrated onto. Down nodes
    /// are included (the read loop skips them and counts the skip as
    /// degradation).
    fn holders(&self, cid: ContainerId) -> Vec<usize> {
        let raw = cid.raw();
        if self.reclaimed.contains(&raw) {
            // Tombstoned: stale copies on downed nodes do not count as
            // holders — a reclaimed container is gone cluster-wide.
            return Vec::new();
        }
        let mut order: Vec<usize> = self
            .replica_nodes(cid)
            .into_iter()
            .filter(|&n| self.nodes[n].containers.contains_key(&raw))
            .collect();
        for (n, node) in self.nodes.iter().enumerate() {
            if node.containers.contains_key(&raw) && !order.contains(&n) {
                order.push(n);
            }
        }
        order
    }

    /// The I/Os (byte lengths) one attempt at `fetch` issues against
    /// `node`'s copy, and the fetch they amount to. A ranged read opens
    /// with the metadata section as its own I/O — the reader must parse
    /// it before it knows where the chunks lie — and pays one seek per
    /// extent; when that would cost no less than the container in one
    /// piece, it *is* the whole read.
    fn plan<'f>(&self, node: usize, cid: ContainerId, fetch: Fetch<'f>) -> (Fetch<'f>, Vec<u64>) {
        let metas = (self.nodes[node].containers.get(&cid.raw()))
            .map_or(&[][..], |sc| sc.container.metas());
        let meta_bytes = meta_section_bytes(metas.len());
        match fetch {
            Fetch::Whole => (fetch, vec![self.container_bytes]),
            Fetch::Metas => (fetch, vec![meta_bytes]),
            Fetch::Chunks(wanted) => {
                let disk = self.nodes[node].disk.model();
                let mut ios = vec![meta_bytes];
                ios.extend(wanted_extents(metas, wanted, &disk));
                let ranged: Secs = ios.iter().map(|&b| disk.rand_read_cost(b)).sum();
                if ranged < disk.rand_read_cost(self.container_bytes) {
                    (fetch, ios)
                } else {
                    (Fetch::Whole, vec![self.container_bytes])
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
    /// ([`NodeRead`]). The value is the node that served: its stored copy
    /// is what the caller reads from.
    fn read_one(&mut self, cid: ContainerId, fetch: Fetch) -> NodeRead<usize> {
        if cid.is_null() {
            return NodeRead::free(Ok(None));
        }
        let mut candidates = self.holders(cid);
        let Some(&first) = candidates.first() else {
            return NodeRead::free(Ok(None));
        };
        // Health-then-load replica selection: prefer the healthiest
        // candidate, then the one whose disk has accumulated the least
        // random-read traffic. The sort is stable, so ties keep failover
        // order (primary first) — and down nodes are *not* filtered here:
        // a down candidate is discovered at read time and counted as a
        // failover, same as before balancing. Preferring a healthy copy
        // over a suspect/quarantined one is a reorder, not a degradation.
        candidates.sort_by_key(|&n| {
            (
                self.nodes[n].health,
                self.nodes[n].disk.stats().rand_read_bytes,
            )
        });
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
                    // wait for.
                    let copy = &self.nodes[node].containers[&cid.raw()].container;
                    let disk = self.nodes[node].disk.model();
                    let head = ios[0].saturating_sub(meta_section_bytes(copy.len()));
                    let extents: Secs = ios[1..].iter().map(|&b| disk.rand_read_cost(b)).sum();
                    out.legs.served = Some(ServedLeg {
                        node,
                        cost: read_cost,
                        data_tail: disk.seq_read_cost(head) + extents,
                        data_bytes: copy.data_bytes(),
                    });
                    out.legs.repairs = self.read_repair(cid, node, &corrupt_nodes);
                    out.value = Ok(Some(node));
                    return out;
                }
                Ok(false) => out.legs.failed.push((node, read_cost)),
                Err(e) => {
                    self.stats.corrupt_reads += 1;
                    self.record_node_error(node);
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

    /// A read's value taken from the copy that served it.
    fn served_copy<T>(
        &self,
        cid: ContainerId,
        read: NodeRead<usize>,
        take: impl FnOnce(&Container) -> T,
    ) -> NodeRead<T> {
        read.map(|node| take(&self.nodes[node].containers[&cid.raw()].container))
    }

    /// Inline read-repair: rewrite every corrupt copy a failover read
    /// detected from the clean image `source` just served whole. Each
    /// repair write is charged to the corrupt node's disk as maintenance
    /// I/O (like [`ChunkRepository::repair_node`], it does not consume
    /// armed fault plans), reported as a `(node, cost)` leg and counted in
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
            let clean = self.nodes[source].containers[&cid.raw()].container.clone();
            writes.push((node, self.install_clean(node, cid.raw(), clean)));
            self.stats.read_repairs += 1;
        }
        writes
    }

    /// Write `image` onto `node` as its clean copy of container `raw` (any
    /// copy it held is replaced): one sequential container write, charged
    /// to the node's disk as maintenance I/O — no armed fault plan is
    /// consumed. Returns the write's cost.
    fn install_clean(&mut self, node: usize, raw: u64, image: Container) -> Secs {
        let stored = StoredContainer {
            container: image,
            damage: None,
        };
        self.nodes[node].containers.insert(raw, stored);
        self.nodes[node].disk.seq_write(self.container_bytes)
    }

    /// Re-replicate container `raw` from `src`'s image onto `node`: one
    /// container read on `src`, then [`Self::install_clean`] on `node`.
    /// Returns the `(read, write)` costs, or `None` — nothing charged —
    /// when `src` holds no copy.
    fn recopy(&mut self, raw: u64, src: usize, node: usize) -> Option<(Secs, Secs)> {
        let image = self.nodes[src].containers.get(&raw)?.container.clone();
        let read = self.nodes[src].disk.rand_read(self.container_bytes);
        Some((read, self.install_clean(node, raw, image)))
    }

    /// Read a container wherever a copy lives — its replica ring, then any
    /// node [`ChunkRepository::migrate`] moved one onto (one random
    /// container-sized I/O per attempted copy, each reported as a leg on
    /// the node it charged). Returns a clone — cheap for zero payloads and
    /// refcounted for real bytes. `Ok(None)` means no node holds the
    /// container; injected faults and detected corruption fail over to surviving
    /// replicas and surface as typed errors only when every copy is lost.
    pub fn read(&mut self, cid: ContainerId) -> NodeRead<Container> {
        let read = self.read_one(cid, Fetch::Whole);
        self.served_copy(cid, read, Container::clone)
    }

    /// Read only a container's metadata section (fingerprints): the cheap
    /// prefetch LPC performs on an index hit. Charged as one small random
    /// read per attempted copy (metadata section ≈ 32 bytes/chunk), legs
    /// reported like [`ChunkRepository::read`]. Damaged copies fail over
    /// here too — the metadata section is under the same checksum.
    pub fn read_metas(&mut self, cid: ContainerId) -> NodeRead<Vec<Fingerprint>> {
        let read = self.read_one(cid, Fetch::Metas);
        self.served_copy(cid, read, |c| c.fingerprints().collect())
    }

    /// The ranged read: fetch a container's metadata section and then only
    /// the chunks `wanted` names — for a reader that knows which chunks it
    /// will use (the restore walk, from its recipe; GC compaction, from
    /// the live set). The metadata section is one I/O, each extent of
    /// [`wanted_extents`] another, all one op of the serving node's disk;
    /// same failover core, legs and counters as [`ChunkRepository::read`].
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
    pub fn read_chunks(
        &mut self,
        cid: ContainerId,
        wanted: impl Fn(&Fingerprint) -> bool,
    ) -> NodeRead<Vec<(Fingerprint, Payload)>> {
        let read = self.read_one(cid, Fetch::Chunks(&wanted));
        self.served_copy(cid, read, |c| {
            c.chunks().filter(|(fp, _)| wanted(fp)).collect()
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
    /// data bytes × copies). Reclamation is background maintenance like
    /// [`ChunkRepository::migrate`] and [`ChunkRepository::repair_node`]:
    /// it charges I/O but consumes no armed fault plans (the
    /// crash-consistency window of GC lives in the compaction writes and
    /// index sweeps, which *are* fault-checked).
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
            self.nodes[node].containers.remove(&raw);
            // Freeing a container is a metadata update on the node's
            // container log, not a full rewrite.
            node_costs.push((node, self.nodes[node].disk.seq_write(4096)));
        }
        self.reclaimed.insert(raw);
        let bytes = data_bytes * copies.len() as u64;
        self.stats.reclaimed_containers += 1;
        self.stats.reclaimed_bytes += data_bytes;
        self.stats.reclaimed_physical_bytes += bytes;
        Ok(Reclaimed { bytes, node_costs })
    }

    /// Whether an id has been reclaimed (tombstoned) by
    /// [`ChunkRepository::delete_container`].
    pub fn is_reclaimed(&self, cid: ContainerId) -> bool {
        self.reclaimed.contains(&cid.raw())
    }

    /// Move a container copy onto an explicit node (defragmentation,
    /// §6.3); charges a read on the source node and a write on the target.
    /// Returns the I/O cost. Injected damage travels with the copy; fault
    /// plans are not checked here (defragmentation is background
    /// maintenance). Sibling replicas are untouched.
    ///
    /// A target outside the cluster is the typed
    /// [`StoreError::UnknownNode`] and an unknown/reclaimed container the
    /// typed [`StoreError::MissingContainer`] — never a panic or a silent
    /// no-op.
    pub fn migrate(&mut self, cid: ContainerId, target_node: usize) -> Result<Secs, StoreError> {
        self.check_node(target_node)?;
        let source = self
            .locate(cid)
            .ok_or(StoreError::MissingContainer { container: cid })?;
        if source == target_node {
            return Ok(0.0);
        }
        let stored = self.nodes[source]
            .containers
            .remove(&cid.raw())
            .ok_or(StoreError::MissingContainer { container: cid })?;
        let mut cost = self.nodes[source].disk.rand_read(self.container_bytes);
        cost += self.nodes[target_node].disk.seq_write(self.container_bytes);
        // Migrated containers keep their ID; the node mapping for migrated
        // containers is overridden by presence.
        self.nodes[target_node].containers.insert(cid.raw(), stored);
        Ok(cost)
    }

    /// Locate a container's first copy in failover order (replica ring,
    /// then migrated copies).
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
    /// must hold (its share of each replica set, plus copies migrated onto
    /// it) is re-replicated from a surviving healthy source. An **up**
    /// node is scrubbed in place: clean copies are kept, missing or
    /// damaged ones recopied. Each recopy charges one container read on
    /// the source and one sequential write on the repaired node; the
    /// returned cost is the sum (the scrub is a background serial pass and
    /// consumes no armed fault plans, like [`ChunkRepository::migrate`]).
    ///
    /// The pass plans before it mutates: if any needed copy has no
    /// surviving healthy source (the `R = 1` node-loss case), it returns
    /// [`StoreError::Unrecoverable`] naming the container and node, and
    /// changes nothing.
    pub fn repair_node(&mut self, node: usize) -> Timed<Result<RepairReport, StoreError>> {
        if let Err(e) = self.check_node(node) {
            return Timed::free(Err(e));
        }
        let replace = self.nodes[node].down;
        // What the node must hold afterwards. Reclaimed (tombstoned)
        // containers are excluded: repair must not re-replicate — or keep
        // — garbage-collected data, even when the node went down before
        // the GC ran and still holds a stale copy.
        let mut want: Vec<u64> = self.nodes[node]
            .containers
            .keys()
            .copied()
            .filter(|raw| !self.reclaimed.contains(raw))
            .collect();
        for cid in self.container_ids() {
            if self.replica_nodes(cid).contains(&node) {
                want.push(cid.raw());
            }
        }
        want.sort_unstable();
        want.dedup();
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
                    return Timed::free(Err(StoreError::Unrecoverable {
                        container: cid,
                        node,
                    }));
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
        // A repaired node starts its health history over: the operator
        // (or the healing loop) has replaced/verified the hardware.
        self.nodes[node].health = Health::Healthy;
        self.nodes[node].errors = 0;
        let mut cost: Secs = 0.0;
        let mut recopied = 0u64;
        for (raw, src) in plan {
            let Some((read, write)) = self.recopy(raw, src, node) else {
                continue;
            };
            cost += read;
            cost += write;
            recopied += 1;
        }
        Timed::new(
            Ok(RepairReport {
                scanned: want.len() as u64,
                recopied,
            }),
            cost,
        )
    }

    /// Cluster-wide scrub: read and checksum-verify **every container
    /// copy on every up node**, re-replicating corrupt copies (and
    /// missing ring copies of under-replicated containers) from clean
    /// surviving sources. A corrupt copy with no clean source anywhere is
    /// counted [`ScrubReport::unrecoverable`] and left in place for a
    /// later repair.
    ///
    /// The scrub is background maintenance like
    /// [`ChunkRepository::repair_node`]: it charges real read/write I/O
    /// per node but consumes no armed fault plans and does not change
    /// node health. Nodes scrub their own copies in parallel, so the
    /// returned cost is the **max over per-node accumulated time**, not
    /// the sum. Down nodes are skipped entirely — their copies are
    /// [`ChunkRepository::repair_node`]'s job at revive time.
    pub fn scrub_all(&mut self) -> Timed<ScrubReport> {
        let mut report = ScrubReport::default();
        let mut node_costs: Vec<Secs> = vec![0.0; self.nodes.len()];
        for cid in self.container_ids() {
            let raw = cid.raw();
            // Verify every resident copy on every up node.
            let holders: Vec<usize> = (0..self.nodes.len())
                .filter(|&n| !self.nodes[n].down && self.nodes[n].containers.contains_key(&raw))
                .collect();
            let mut bad: Vec<usize> = Vec::new();
            for &node in &holders {
                node_costs[node] += self.nodes[node].disk.rand_read(self.container_bytes);
                report.copies_checked += 1;
                if self.check_copy(node, cid, Fetch::Whole).is_err() {
                    report.corrupt_found += 1;
                    bad.push(node);
                }
            }
            // Repair corrupt copies in place from a clean source; then
            // top the container back up to its replication factor if ring
            // copies are missing (a node silently lost one). The
            // healthy-copy guard keeps scrub from undoing defragmentation:
            // a migrated copy is not "missing" while replication is met.
            for node in bad {
                let Some(src) = self.healthy_source(cid, node) else {
                    report.unrecoverable += 1;
                    continue;
                };
                if let Some((read, write)) = self.recopy(raw, src, node) {
                    node_costs[src] += read;
                    node_costs[node] += write;
                    report.repaired += 1;
                }
            }
            let missing: Vec<usize> = self
                .replica_nodes(cid)
                .into_iter()
                .filter(|&n| !self.nodes[n].down && !self.nodes[n].containers.contains_key(&raw))
                .collect();
            for node in missing {
                if self.healthy_copies(cid) >= self.replication {
                    break;
                }
                let Some(src) = self.healthy_source(cid, node) else {
                    continue;
                };
                if let Some((read, write)) = self.recopy(raw, src, node) {
                    node_costs[src] += read;
                    node_costs[node] += write;
                    report.repaired += 1;
                }
            }
        }
        let cost = node_costs.iter().fold(0.0, |m, &c| f64::max(m, c));
        Timed::new(report, cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::Payload;
    use debar_hash::Fingerprint;
    use debar_simio::models::paper;

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
        let mut c = Container::new(1 << 20);
        for i in range {
            c.try_append(fp(i), Payload::Zero(1000));
        }
        c
    }

    fn store_ok(r: &mut ChunkRepository, c: Container) -> ContainerId {
        r.store(c).value.expect("store succeeds")
    }

    fn arm(r: &mut ChunkRepository, node: usize, plan: FaultPlan) {
        r.set_node_fault_plan(node, plan).expect("node in range");
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
        assert!(
            metas.legs.cost() < full.legs.cost(),
            "meta read must be cheaper"
        );
    }

    #[test]
    fn a_gap_is_read_through_exactly_when_streaming_it_is_no_dearer_than_a_seek() {
        // Two wanted chunks `gap` bytes apart are one I/O iff
        // `gap / read_bw <= seek_s`, and that is the cheaper plan: the
        // extents cost the minimum of reading through and skipping.
        let round = DiskModel {
            seek_s: 0.002,
            read_bw: 100e6,
            write_bw: 100e6,
        };
        for disk in [round, paper::repo_disk()] {
            let edge = (disk.seek_s * disk.read_bw) as u64;
            for gap in [0, 1, edge - 1, edge, edge + 1, edge + 2, 8 << 20] {
                let (a, b) = (1000u32, 500u32);
                let at = |offset: u64, n: u64, len: u32| ChunkMeta {
                    fp: fp(n),
                    len,
                    offset,
                };
                let mut metas = vec![at(0, 0, a)];
                if gap > 0 {
                    metas.push(at(a as u64, 1, gap as u32));
                }
                metas.push(at(a as u64 + gap, 2, b));
                let ends = |f: &Fingerprint| *f != fp(1);
                let extents = wanted_extents(&metas, ends, &disk);
                let through = disk.seq_read_cost(gap) <= disk.seek_s;
                if through {
                    assert_eq!(extents, [a as u64 + gap + b as u64], "gap {gap}");
                } else {
                    assert_eq!(extents, [a as u64, b as u64], "gap {gap}");
                }
                assert_eq!(through, gap <= edge, "the law is a byte count: {edge}");
                let cost: Secs = extents.iter().map(|&e| disk.rand_read_cost(e)).sum();
                let one = disk.rand_read_cost(a as u64 + gap + b as u64);
                let two = disk.rand_read_cost(a as u64) + disk.rand_read_cost(b as u64);
                assert!((cost - one.min(two)).abs() < 1e-12, "gap {gap}");
            }
        }
        // Nothing wanted, nothing read; nothing before the first or after
        // the last wanted chunk either.
        let metas = container_with(0..10).metas().to_vec();
        let disk = paper::repo_disk();
        assert!(wanted_extents(&metas, |_| false, &disk).is_empty());
        let middle = |f: &Fingerprint| *f == fp(4) || *f == fp(5);
        assert_eq!(wanted_extents(&metas, middle, &disk), [2000]);
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
        let mut r = repo(1);
        let id = store_ok(&mut r, container_with(0..100));
        let disk = paper::repo_disk();
        let before = (r.nodes()[0].disk_stats(), r.node_disk_ops(0).expect("node"));
        let tenth = |f: &Fingerprint| (30..40).any(|n| *f == fp(n));
        let read = r.read_chunks(id, tenth);
        let chunks = read.value.expect("clean").expect("stored");
        let fps: Vec<Fingerprint> = chunks.iter().map(|(f, _)| *f).collect();
        assert_eq!(fps, (30..40).map(fp).collect::<Vec<_>>());
        // Two I/Os — the metadata section, one extent of ten adjacent
        // chunks — in one device op; the resolver may go on once the
        // first is in.
        let meta = disk.rand_read_cost(6 + 32 * 100 + 20);
        let extent = disk.rand_read_cost(10 * 1000);
        let served = read.legs.served.expect("served");
        assert!((served.cost - (meta + extent)).abs() < 1e-15);
        assert_eq!((served.node, served.data_tail), (0, extent));
        let after = (r.nodes()[0].disk_stats(), r.node_disk_ops(0).expect("node"));
        assert_eq!(after.1, before.1 + 1, "one fault-checked op");
        assert_eq!(after.0.rand_reads, before.0.rand_reads + 2, "two seeks");
        assert_eq!(
            after.0.rand_read_bytes - before.0.rand_read_bytes,
            6 + 32 * 100 + 20 + 10 * 1000
        );
        // Wanting nothing reads the metadata section; wanting so much
        // that the extents cost no less than the container in one piece
        // reads the container in one piece.
        let none = r.read_chunks(id, |_| false);
        assert!(none.value.expect("clean").expect("stored").is_empty());
        assert_eq!(none.legs.cost(), meta);
        let mut full = repo(1);
        let mut big = Container::new(1 << 20);
        (0..1000).for_each(|n| assert!(big.try_append(fp(n), Payload::Zero(1000))));
        let id = store_ok(&mut full, big);
        let all = full.read_chunks(id, |_| true);
        assert_eq!(all.value.expect("clean").expect("stored").len(), 1000);
        assert_eq!(all.legs, full.read(id).legs);
        // A fault on the op fails the whole attempt, as it does a whole
        // read's.
        arm(&mut r, 0, FaultPlan::fail_at(after.1 + 1));
        let err = r.read_chunks(id, tenth).value.expect_err("faulted");
        assert!(matches!(err, StoreError::DiskFault { node: 0, .. }));
    }

    #[test]
    fn a_ranged_read_verifies_what_it_uses_and_leaves_the_rest_to_scrub() {
        for damage in [Damage::BitFlip, Damage::Torn] {
            // Find a container the damage hits in mid data section.
            let mut r = repo_r(2, 2);
            let ids: Vec<ContainerId> = (0..8)
                .map(|n| store_ok(&mut r, container_with(n * 100..n * 100 + 100)))
                .collect();
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
                let read = r.read_chunks(id, before_it);
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
            let mut read = r.read_chunks(id, on_it);
            while read.legs.failed.is_empty() {
                // Load balancing preferred the clean replica: ask again.
                read = r.read_chunks(id, on_it);
            }
            let ranged = disk.rand_read_cost(6 + 32 * 100 + 20) + disk.rand_read_cost(1000);
            assert_eq!(read.legs.failed.len(), 1, "{damage:?}");
            assert_eq!(read.legs.failed[0].0, damaged);
            assert!((read.legs.failed[0].1 - ranged).abs() < 1e-15);
            let served = read.legs.served.expect("replica");
            assert_eq!(served.cost, disk.rand_read_cost(1 << 20), "read whole");
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
                let n = r.stats().containers;
                sole = store_ok(&mut r, container_with(n * 100..n * 100 + 100));
            }
            r.set_damage(id, Some(damage)).expect("stored");
            assert_eq!(r.read_chunks(id, before_it).legs.failed, []);
            let err = r.read_chunks(id, on_it).value.expect_err("sole copy");
            assert!(
                matches!(err, StoreError::CorruptContainer { container, .. } if container == id),
                "{damage:?}: {err}"
            );
            assert_eq!(r.stats().corrupt_reads, 1);
            let scrub = r.scrub_all().value;
            assert_eq!((scrub.corrupt_found, scrub.unrecoverable), (1, 1));
        }
    }

    #[test]
    fn store_charges_target_node_disk() {
        let mut r = repo(2);
        let t = r.store(container_with(0..2));
        assert!(t.cost > 0.0);
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
        // Replicas write in parallel: the store costs one write, not two.
        let t = repo_r(3, 2).store(container_with(0..2));
        let single = repo(3).store(container_with(0..2));
        assert_eq!(t.cost, single.cost);
    }

    #[test]
    fn migrate_moves_and_read_anywhere_finds() {
        let mut r = repo(3);
        let id = store_ok(&mut r, container_with(0..4)); // node 0
        let cost = r.migrate(id, 2).expect("exists");
        assert!(cost > 0.0);
        assert_eq!(r.locate(id), Some(2));
        // The home node no longer has it: both reads follow the copy.
        let got = r
            .read(id)
            .value
            .expect("no fault")
            .expect("found after migration");
        assert_eq!(got.len(), 4);
        let metas = r
            .read_metas(id)
            .value
            .expect("no fault")
            .expect("metadata found after migration");
        assert_eq!(metas, got.fingerprints().collect::<Vec<_>>());
        // Self-migration is free.
        assert_eq!(r.migrate(id, 2), Ok(0.0));
        // Unknown container and out-of-range target are typed, not
        // panics or silent no-ops.
        let ghost = ContainerId::new(123);
        assert_eq!(
            r.migrate(ghost, 0),
            Err(StoreError::MissingContainer { container: ghost })
        );
        assert_eq!(
            r.migrate(id, 9),
            Err(StoreError::UnknownNode { node: 9, nodes: 3 })
        );
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
        let t = r.store(container_with(0..3));
        let err = t.value.expect_err("injected failure must surface");
        assert!(matches!(err, StoreError::DiskFault { node: 0, .. }));
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
        let err = r
            .store(container_with(0..3))
            .value
            .expect_err("replica write fault surfaces");
        assert!(matches!(err, StoreError::DiskFault { node: 1, .. }));
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
        // Leg by leg: the full read that found node 0's copy corrupt, the
        // serving read on node 1 — whose metadata section (10 chunks) is
        // in `data_tail` before it completes — and the repair write back
        // on node 0.
        let disk = paper::repo_disk();
        let full = disk.rand_read_cost(1 << 20);
        assert_eq!(read.legs.failed, [(0, full)]);
        let served = ServedLeg {
            node: 1,
            cost: full,
            data_tail: disk.seq_read_cost((1 << 20) - (6 + 32 * 10 + 20)),
            data_bytes: 10 * 1000,
        };
        assert_eq!(read.legs.served, Some(served));
        assert_eq!(read.legs.repairs, [(0, disk.seq_write_cost(1 << 20))]);
        assert_eq!(
            read.legs.cost(),
            full + full + disk.seq_write_cost(1 << 20),
            "a sequential caller pays the legs one after another"
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
        let err = r
            .store(container_with(0..3))
            .value
            .expect_err("down node refuses the write");
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
        expect_unknown(
            r.set_node_fault_plan(7, FaultPlan::fail_at(0))
                .expect_err("typed"),
        );
        expect_unknown(r.node_disk_ops(7).expect_err("typed"));
        expect_unknown(r.set_node_down(7).expect_err("typed"));
        expect_unknown(r.revive_node(7).expect_err("typed"));
        expect_unknown(r.is_node_down(7).expect_err("typed"));
        expect_unknown(r.repair_node(7).value.expect_err("typed"));
    }

    #[test]
    fn read_fail_fault_surfaces_as_disk_fault() {
        let mut r = repo(1);
        let id = store_ok(&mut r, container_with(0..2)); // op 0: write
        arm(&mut r, 0, FaultPlan::fail_at(1));
        let err = r.read(id).value.expect_err("read fault");
        assert!(matches!(err, StoreError::DiskFault { node: 0, .. }));
        // One-shot: the next read succeeds.
        assert!(r.read(id).value.expect("ok").is_some());
    }

    #[test]
    fn read_fail_fault_fails_over_to_replica() {
        let mut r = repo_r(2, 2);
        let id = store_ok(&mut r, container_with(0..2)); // node 0 op 0: write
        arm(&mut r, 0, FaultPlan::fail_at(1));
        let read = r.read(id);
        // The faulted attempt stays on node 0, the serving read is node 1's.
        let full = paper::repo_disk().rand_read_cost(1 << 20);
        assert_eq!(read.legs.failed, [(0, full)]);
        assert_eq!(read.legs.served.map(|s| (s.node, s.cost)), Some((1, full)));
        assert!(read.legs.repairs.is_empty());
        let got = read.value.expect("replica saves it").expect("stored");
        assert_eq!(got.len(), 2);
        assert_eq!(r.stats().failover_reads, 1);
    }

    #[test]
    fn store_batch_matches_one_at_a_time_semantics() {
        // Same containers through both paths: identical IDs, placement,
        // per-node op/byte accounting — and the batch wall is the max
        // over per-node accumulated write time (the nodes drain in
        // parallel), where the one-at-a-time path sums serially.
        let mut one = repo(3);
        let mut costs = 0.0;
        let mut ids = Vec::new();
        for i in 0..5u64 {
            let t = one.store(container_with(i * 3..i * 3 + 3));
            costs += t.cost;
            ids.push(t.value.expect("clean store"));
        }
        let mut batched = repo(3);
        let batch: Vec<Container> = (0..5u64)
            .map(|i| container_with(i * 3..i * 3 + 3))
            .collect();
        let out = batched.store_batch(batch);
        assert!(out.fault.is_none());
        assert_eq!(out.ids, ids);
        assert_eq!(
            out.cost,
            out.node_costs.iter().fold(0.0, |m, &c| f64::max(m, c)),
            "batch wall = max over per-node write time"
        );
        let summed: Secs = out.node_costs.iter().sum();
        assert_eq!(summed, costs, "total device time matches one-at-a-time");
        assert!(out.cost < costs, "parallel nodes beat the serial sum");
        assert_eq!(batched.stats(), one.stats());
        for n in 0..3 {
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
        let (err, failed) = out.fault.expect("fault surfaced");
        assert!(matches!(err, StoreError::DiskFault { node: 0, .. }));
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
        let t = r.repair_node(1);
        let report = t.value.expect("recoverable");
        assert_eq!(report.scanned, 4);
        assert_eq!(report.recopied, 4, "a down node is replaced wholesale");
        assert!(t.cost > 0.0);
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
        let report = r.repair_node(1).value.expect("recoverable");
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
        let err = r.repair_node(0).value.expect_err("no surviving source");
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
        repo(1).store(Container::new(100));
    }

    #[test]
    #[should_panic]
    fn double_store_rejected() {
        let mut r = repo(1);
        let mut c = container_with(0..1);
        c.set_id(ContainerId::new(5));
        r.store(c);
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
        assert!(r.is_reclaimed(a));
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
        let rep = r.repair_node(0).value.expect("repairable");
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
        let t = r.store(container_with(0..4));
        let id = t.value.expect("in-budget transient never surfaces");
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
        let err = r
            .store(container_with(0..4))
            .value
            .expect_err("budget spent");
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
    fn health_walks_suspect_then_quarantined_and_repair_resets() {
        let mut r = repo(2).with_health_policy(HealthPolicy::new(1, 2));
        let id = store_ok(&mut r, container_with(0..3)); // node 0
        assert_eq!(r.node_health(0).expect("in range"), Health::Healthy);
        arm(&mut r, 0, FaultPlan::fail_at(1));
        assert!(r.read(id).value.is_err());
        assert_eq!(r.node_health(0).expect("in range"), Health::Suspect);
        arm(&mut r, 0, FaultPlan::fail_at(2));
        assert!(r.read(id).value.is_err());
        assert_eq!(r.node_health(0).expect("in range"), Health::Quarantined);
        assert_eq!(r.nodes()[0].error_count(), 2);
        // Repair wipes the history.
        r.repair_node(0).value.expect("repairable");
        assert_eq!(r.node_health(0).expect("in range"), Health::Healthy);
        assert_eq!(r.nodes()[0].error_count(), 0);
    }

    #[test]
    fn writes_refuse_quarantined_targets_unless_r_would_be_violated() {
        let mut r = repo(2).with_health_policy(HealthPolicy::new(0, 1));
        let a = store_ok(&mut r, container_with(0..3)); // id 0 -> node 0
        let _ = store_ok(&mut r, container_with(3..6)); // id 1 -> node 1
        arm(&mut r, 0, FaultPlan::fail_at(1));
        assert!(
            r.read(a).value.is_err(),
            "error drives node 0 to quarantine"
        );
        assert_eq!(r.node_health(0).expect("in range"), Health::Quarantined);
        // id 2 would land on node 0: refused typed while node 1 is usable.
        let err = r
            .store(container_with(6..9))
            .value
            .expect_err("quarantined target");
        assert_eq!(err, StoreError::NodeQuarantined { node: 0 });
        assert_eq!(r.stats().containers, 2, "nothing persisted, ID unconsumed");
        // Quarantine node 1 too: refusing both would violate R, so
        // availability wins and the write proceeds onto quarantine.
        let next = r.node_disk_ops(1).expect("in range");
        arm(&mut r, 1, FaultPlan::fail_at(next));
        assert!(r.read(ContainerId::new(1)).value.is_err());
        assert_eq!(r.node_health(1).expect("in range"), Health::Quarantined);
        let id = store_ok(&mut r, container_with(6..9));
        assert_eq!(id.raw(), 2, "last-resort write proceeds");
    }

    #[test]
    fn reads_prefer_healthy_replicas_over_suspect_ones() {
        let mut r = repo_r(2, 2).with_health_policy(HealthPolicy::new(1, 3));
        let id = store_ok(&mut r, container_with(0..4));
        // First read: balancing picks node 0 (tie, ring order), which
        // fails and marks itself Suspect; node 1 serves the failover.
        arm(&mut r, 0, FaultPlan::fail_at(1));
        assert!(r.read(id).value.expect("failover").is_some());
        assert_eq!(r.stats().failover_reads, 1);
        assert_eq!(r.node_health(0).expect("in range"), Health::Suspect);
        let node0_bytes = r.nodes()[0].disk_stats().rand_read_bytes;
        // Subsequent reads prefer the healthy replica even though it has
        // accumulated more read traffic — and they are not "degraded".
        for _ in 0..4 {
            assert!(r.read(id).value.expect("healthy copy").is_some());
        }
        assert_eq!(
            r.nodes()[0].disk_stats().rand_read_bytes,
            node0_bytes,
            "suspect node sees no more reads"
        );
        assert_eq!(r.stats().failover_reads, 1, "preference is not failover");
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
        let t = r.scrub_all();
        let report = t.value;
        assert_eq!(report.copies_checked, 8, "every copy on every node");
        assert_eq!(report.corrupt_found, 2);
        assert_eq!(report.repaired, 2, "100% of corrupt copies repaired");
        assert_eq!(report.unrecoverable, 0);
        assert!(t.cost > 0.0);
        assert!(r.under_replicated().is_empty());
        for &id in &ids {
            assert!(r.read(id).value.expect("clean").is_some());
        }
        assert_eq!(r.stats().corrupt_reads, 0, "scrub reads are maintenance");
        // Idempotence: a second scrub finds a fully healthy cluster.
        let again = r.scrub_all().value;
        assert_eq!(again.corrupt_found, 0);
        assert_eq!(again.repaired, 0);
        assert_eq!(again.copies_checked, 8);
    }

    #[test]
    fn scrub_counts_unrecoverable_sole_copies() {
        let mut r = repo(2); // R = 1
        let id = store_ok(&mut r, container_with(0..4));
        r.set_damage(id, Some(Damage::BitFlip)).expect("live");
        let report = r.scrub_all().value;
        assert_eq!(report.copies_checked, 1);
        assert_eq!(report.corrupt_found, 1);
        assert_eq!(report.repaired, 0, "no clean source anywhere");
        assert_eq!(report.unrecoverable, 1);
        // The copy is left in place: a later admin repair still works.
        r.set_damage(id, None).expect("still resident");
        assert!(r.read(id).value.expect("clean").is_some());
    }

    #[test]
    fn scrub_rebuilds_missing_ring_copies_without_undoing_migration() {
        let mut r = repo_r(3, 2);
        let id = store_ok(&mut r, container_with(0..4)); // ring {0, 1}
                                                         // Node 1 silently loses its copy.
        r.nodes[1].containers.clear();
        assert_eq!(r.under_replicated(), vec![id]);
        let report = r.scrub_all().value;
        assert_eq!(report.corrupt_found, 0);
        assert_eq!(report.repaired, 1, "missing ring copy re-replicated");
        assert!(r.under_replicated().is_empty());
        // A migrated R=1 container is NOT "missing" from its ring node:
        // scrub must not duplicate it back.
        let mut m = repo(3);
        let mid = store_ok(&mut m, container_with(0..4)); // node 0
        m.migrate(mid, 2).expect("in range");
        let report = m.scrub_all().value;
        assert_eq!(report.copies_checked, 1);
        assert_eq!(report.repaired, 0, "replication met: no resurrection");
        assert_eq!(m.locate(mid), Some(2), "migrated copy stays put");
    }

    #[test]
    fn repair_node_twice_is_a_noop_and_scrub_after_finds_nothing() {
        let mut r = repo_r(3, 2);
        for i in 0..5u64 {
            store_ok(&mut r, container_with(i * 2..i * 2 + 2));
        }
        r.set_node_down(1).expect("in range");
        let first = r.repair_node(1).value.expect("repairable");
        assert!(first.recopied > 0);
        let counts: Vec<usize> = r.nodes().iter().map(|n| n.container_count()).collect();
        let stats = r.stats();
        // Second repair: same scan, zero recopies, identical state.
        let second = r.repair_node(1).value.expect("still repairable");
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
        let report = r.scrub_all().value;
        assert_eq!(report.corrupt_found, 0);
        assert_eq!(report.repaired, 0);
        assert!(!r.contains(a), "scrub does not resurrect reclaimed ids");
    }
}
