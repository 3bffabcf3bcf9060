//! # debar-core
//!
//! The DEBAR system proper (paper §2-§5): a scalable de-duplication backup
//! architecture built from
//!
//! * a **director** ([`director`]) — job objects, scheduling, load
//!   balancing and metadata management (§3.1);
//! * **backup clients** ([`client`]) — CDC anchoring + SHA-1 chunk
//!   fingerprinting of datasets (§3.2);
//! * **backup servers** ([`server`]) — the File Store (de-duplication
//!   phase I: preliminary filtering + chunk log) and the Chunk Store
//!   (phase II: SIL, chunk storing, SIU) (§3.3, §5). An asynchronous SIU
//!   (`siu_interval > 1`) rides on the next round's first SIL sweep of
//!   each index part: one read pass merges the pending updates and probes
//!   the batch against the merged buckets, one write pass writes the part
//!   back (`debar_index::DiskIndex::try_sequential_update_lookup_sharded`).
//!   Dedup-1 is **one
//!   loop** on the assigned server. It hands the preliminary filter the
//!   previous run's fingerprints whole and in stream order: they are a
//!   file the filter streams past the backup's position, so a job larger
//!   than the filter's memory is filtered like one that fits
//!   (`debar_filter::prelim`). What the filter misses is appended to the
//!   chunk log undetermined, for dedup-2 (see *Out-of-line dedup-1*).
//!   Chunk storing then reads back only what it keeps: the drain reads
//!   the records it will pack and seeks over the duplicate runs between
//!   them by the same gap law a ranged container read uses ([`chunklog`];
//!   a log with nothing to skip is the paper's whole-log sequential
//!   drain), each extent once the PSIL sweeps that decided its records
//!   have ended, while later sweeps still run;
//! * the **chunk repository** (from `debar-store`) — the global container
//!   pool (§3.4);
//! * the **cluster** ([`cluster`]) — the two-phase de-duplication scheme
//!   (TPDS) orchestrated across `2^w` backup servers with parallel
//!   sequential index lookups/updates (PSIL/PSIU, §5.2/§5.4) — parallel in
//!   virtual time: each server advances its own clock, no OS threads —
//!   plus the restore path: one pipelined walk in which index lookups,
//!   repository-node reads and the client stream overlap on per-device
//!   timelines, with the LPC as its read-ahead buffer.
//!
//! [`DebarCluster`] is the entry point: define jobs, back up datasets,
//! run dedup-2, restore, verify, expire and collect.
//!
//! # Failure model & error taxonomy
//!
//! Every fallible public operation returns `Result<T, `[`DebarError`]`>`
//! — the stack has **no panicking fault paths**. Faults originate from
//! three sources and converge on one typed taxonomy:
//!
//! * **Injected device faults** (`debar_simio::FaultPlan`): every
//!   simulated disk carries a deterministic, op-indexed fault schedule
//!   (outright failure, torn write, bit flip, or a *transient* failure
//!   that clears after a budgeted number of attempts). One address names
//!   them all — [`Device`]: a repository node, one part-disk of a server's
//!   index stripe, one worker disk of its chunk-log stripe — with one
//!   [`DebarCluster::arm`] and one [`DebarCluster::device_ops`]. Every
//!   disk is built with its address where its bank makes it, and a fired
//!   fault carries it (`debar_simio::Faulted`) through the index and
//!   store errors into [`DebarError::DeviceFault`] unchanged, so it
//!   reports the address it was armed with; no layer names it on the way
//!   up. Each component owns one device bank whose part/worker 0 is its
//!   volume: no device is charged twice, and each bank clears its own
//!   plans ([`DebarCluster::clear_fault_plans`]).
//! * **Persisted corruption**: containers are serialized with a versioned
//!   magic byte and a SHA-1 checksum trailer; torn writes and bit rot are
//!   *detected* on every read path — restore, verify, scrub and the
//!   §4.1 recovery rebuild — as [`DebarError::CorruptContainer`],
//!   never silently read. A restore that reads *ranges* of a container
//!   (below) verifies what it reads — header, metadata section, every
//!   chunk it delivers against its fingerprint — and cannot see damage
//!   in bytes it skipped: that copy serves those chunks correctly, and
//!   the damage is the next whole read's or [`DebarCluster::scrub`]'s to
//!   find. A collection reads its victims by range too — the survivors
//!   it moves are verified, and what it skipped is dead and is deleted
//!   with the victim. [`DebarCluster::set_damage`] injects damage directly against
//!   a stored container.
//! * **Caller errors**: unknown jobs/runs/paths
//!   ([`DebarError::UnknownJob`] / [`DebarError::UnknownRun`] /
//!   [`DebarError::UnknownPath`]), inconsistent deployment geometry
//!   ([`DebarError::IndexGeometry`], from
//!   [`DebarConfig::validate`]), and scaling, scrubbing or collecting
//!   garbage on a non-quiesced cluster ([`DebarError::NotQuiesced`]).
//!
//! Two failure kinds are **resumable** — the operation rolls back to a
//! crash-consistent state and *re-running it converges to the
//! byte-identical index parts and restore bytes of an uninterrupted
//! run*, for any `sweep_parts` (proven by the failure-kind scenarios in
//! `tests/failure_kinds.rs`):
//!
//! * [`DebarError::InterruptedDedup2`] — every dedup-2 phase reads the
//!   servers' undetermined lists, chunk logs and decision maps in place,
//!   and only its commit moves them, so a faulted phase has nothing to
//!   roll back: a fault in PSIL leaves every origin's undetermined
//!   fingerprints and every checking file as they were (the PSIL commit
//!   runs only when all passes succeed); a fault in chunk storing leaves
//!   each log and decision map holding what its server's store commit did
//!   not make durable, while durable container assignments still flow to
//!   SIU. A riding SIU's sweep is a PSIL sweep: its fault interrupts PSIL
//!   and its updates stay pending until the PSIL commit. The round number
//!   is only committed on success, so the asynchronous-SIU schedule is
//!   unchanged. Container IDs are allocated
//!   as part of the durable commit (a failed write consumes no ID), so the
//!   resumed round stores into the same containers an uninterrupted run
//!   would have.
//! * [`DebarError::PartialSiu`] — an interrupted index-update sweep may
//!   leave only a canonical-order prefix of the batch durable; the server
//!   keeps its pending updates and checking file, and re-running SIU
//!   re-applies the whole batch idempotently (in-place overwrites for the
//!   prefix, same-order inserts for the rest).
//!
//! Verify jobs ([`DebarCluster::verify_run`]) are the auditing exception:
//! they *count* integrity problems in [`RestoreReport::failures`] instead
//! of aborting, because an audit must survey the entire run.
//!
//! ## Replication, failover and repair
//!
//! The chunk repository is a cluster of physical storage nodes, and
//! [`DebarConfig::replication`] writes every container to that many
//! distinct node disks (each replica write charged to its own disk; the
//! store phase completes at the most-loaded node). The replicas turn
//! whole-node loss into a *degraded* state instead of a failed one:
//!
//! * **Failover reads.** A read whose preferred copy is on a downed node
//!   ([`DebarCluster::set_repo_node_down`]), hits an injected `Fail`
//!   fault, or fails its checksum trailer is transparently retried on the
//!   surviving replicas — on every read path (restore, verify,
//!   recovery rebuild). Degraded reads are counted in
//!   `debar_store::RepoStats::failover_reads` and surfaced per restore in
//!   [`RestoreReport::failover_reads`].
//! * **Typed node errors.** A fault on a repository node's disk names the
//!   node ([`DebarError::DeviceFault`] on a [`Device::RepoNode`]); a
//!   store targeting a downed node is [`DebarError::NodeDown`]; and only
//!   when *every* replica of a container is unreachable does the read
//!   surface [`DebarError::Unrecoverable`] — at `replication = 1` that is any
//!   single node loss, at `replication >= 2` it takes multiple failures.
//! * **Repair.** [`DebarCluster::repair_repo_node`] re-replicates from
//!   surviving copies: a downed node is treated as a replaced disk (wiped,
//!   revived, re-populated), an online node is scrubbed in place. The
//!   repair plans before it mutates, so an `Unrecoverable` refusal leaves
//!   the repository unchanged. With `replication = 2` the loss of any
//!   single node is survivable end-to-end: restores stay byte-identical
//!   while degraded, and a repair restores full replication (proven by the
//!   node-down scenario legs in `tests/failure_kinds.rs`).
//!
//! ## Self-healing: transient faults, retry and scrub
//!
//! Real device errors are mostly *transient* — a path flap or a sector
//! retry, not a dead disk. The self-healing layer absorbs those without
//! surfacing them, names the persistent ones, and closes the loop with a
//! cluster-wide integrity scrub:
//!
//! * **Retry with backoff.** [`DebarConfig::retry`]
//!   (`debar_simio::RetryPolicy`) gives every fault-checked repository
//!   I/O up to `max_attempts` total tries, charging `backoff_cost`
//!   simulated seconds to the failing node's disk between tries. A
//!   `FaultKind::Transient { fails_for }` whose budget is within the
//!   policy **never reaches the caller** — the operation completes with
//!   the retries counted in `debar_store::RepoStats::retried_ops` (and
//!   per restore in [`RestoreReport::retried_ops`]). A fault that
//!   out-lives the budget is the typed
//!   [`DebarError::RetriesExhausted`]`{ node, attempts }`. The default
//!   policy (1 attempt) is fail-fast: exactly the pre-retry behavior.
//!
//!   What retries, by fault kind and direction:
//!
//!   | Fault kind   | Write path              | Read path |
//!   |--------------|-------------------------|-----------|
//!   | `Fail`       | retried                 | retried   |
//!   | `Transient`  | retried                 | retried   |
//!   | `TornWrite`  | never (silent at write) | retried   |
//!   | `BitFlip`    | never (silent at write) | retried   |
//!
//!   Torn writes and bit flips are *silent* at write time — there is
//!   nothing to retry; they are caught by the checksum trailer on the
//!   next read (and by the scrub), which is where the retry loop and
//!   failover apply.
//!
//!   A failed attempt leaves no mark on its node beyond the retries and
//!   backoff it charged to that node's lane, so a reader with lanes
//!   leaves a failing node for another copy on its own; a down or failing
//!   node is found out only when it is read.
//! * **Scrub with read-repair.** [`DebarCluster::scrub`] walks every
//!   container copy on every up node under the same quiesce gate as GC
//!   and scale-out, verifies each copy's checksummed image, rewrites
//!   corrupt copies from a clean survivor and re-replicates missing ring
//!   copies, returning a `debar_store::ScrubReport` that accounts every
//!   copy checked, corruption found, repair made and copy left
//!   unrecoverable. The failover read path performs the same repair
//!   *inline*: a read that detects a corrupt copy and then finds a clean
//!   replica rewrites the corrupt copy on its way out (counted in
//!   `RepoStats::read_repairs`, detections in
//!   [`RestoreReport::corrupt_reads`]). A scrub after repairs finds
//!   nothing; at `replication >= 2` the chaos scenarios in
//!   `tests/chaos.rs` drive seeded transient/permanent/corruption
//!   schedules and prove restores converge byte-identically after the
//!   cluster heals itself.
//!
//! ## Deletion & reclamation lifecycle
//!
//! Dedup metadata makes deletion global: a chunk dies only when **no
//! retained run of any job** references it. The lifecycle
//! (`crates/core/src/gc.rs`) is three phases, each typed and
//! crash-consistent:
//!
//! * **Retire.** [`DebarCluster::delete_run`] drops one run's metadata —
//!   refusing the newest [`DebarConfig::retention`] versions of its job
//!   with [`DebarError::RetainedRun`] — and
//!   [`DebarCluster::expire_runs`] retires everything outside the window
//!   in one pass. Retiring keeps the job-chain slot, so version
//!   numbering and the filtering-fingerprint chain of future backups are
//!   unaffected.
//! * **Collect.** [`DebarCluster::run_gc`] refuses to race staged
//!   dedup-2 state ([`DebarError::NotQuiesced`]), then: marks the index
//!   entries the retained runs reference, one fingerprint range of at
//!   most the index cache's size at a time, compacts partially-dead
//!   containers — each
//!   read for what is live in it, the survivors of successive victims
//!   packed into full containers, every read, write and free on its
//!   repository node's timeline (store-new-then-delete-old, on **every
//!   replica**: a victim goes only once every container holding one of
//!   its survivors is durable) — deletes
//!   whole-dead ones, rebuilds each server's index part with the marked
//!   entries alone ([`debar_index::DiskIndex::gc_sweep`] aborts before
//!   mutation on an armed fault), and withdraws the dead fingerprints
//!   from the cluster's deletable **cuckoo summary vector** — so the
//!   preliminary filter stops advertising dead chunks to dedup-1. The
//!   [`cluster::GcReport`] accounts the reclaim exactly: the net
//!   physical delta equals `replication × dead_chunk_bytes`.
//! * **Converge.** A collection interrupted by an injected fault — at
//!   compaction (a failed store consumes no container ID and repoints
//!   nothing) or at the index sweep (charged and fault-checked before a
//!   byte moves) — surfaces typed, loses nothing, and re-running `run_gc`
//!   converges to the byte-identical state of an uninterrupted
//!   collection: victims already reclaimed by the interrupted attempt
//!   are detected and skipped, and a victim that was still waiting for
//!   an output is read again for what still resolves to it, which
//!   refills that output with exactly the chunks it held (swept at every
//!   device op of a collection by
//!   `gc_crash_point_sweep_converges_at_every_device_op`). Node repair
//!   after a collection re-replicates only
//!   live containers — reclaimed ones are never resurrected (proven by
//!   the GC scenario family in `tests/gc_lifecycle.rs` and the GC fault
//!   legs in `tests/failure_kinds.rs`).
//!
//! ## Restore & container layout
//!
//! **The data path** (`crates/core/src/restore.rs`).
//! [`DebarCluster::restore_run`], [`DebarCluster::restore_file`] and
//! [`DebarCluster::verify_run`] are one walk over the run's recipe: LPC
//! lookup; on a miss a random lookup on the owning index part (a
//! request/response message pair when the owner is another server), then
//! the container read with replica failover; payload verification; the
//! client stream. The walk touches the devices in that order, but each
//! device keeps its own timeline (`debar_simio::Lane`): the resolver
//! walks on as soon as a fetched container's *metadata section* has
//! streamed in — the paper's container format puts it ahead of the data
//! (§3.4) — so the next miss's lookup and read are issued while earlier
//! reads are still in flight on other repository nodes, and the NIC
//! streams chunks in recipe order, each verified and sent as soon as its
//! own bytes are in — the serving read says how long before it completed
//! each chunk it returns streamed in (`ServedLeg::tails`), so a chunk
//! does not wait for the data behind it, the reads after it or a
//! read-repair. Nothing is delivered on unverified metadata,
//! and a fetch waits for the resolver and for the LPC entries it evicts
//! to have been sent, nothing else: the cache is the walk's one buffer,
//! bounded by what it holds — resident, in flight or waiting to be
//! streamed, the fetch coming in included, never more than
//! [`DebarConfig::lpc_containers`] `×` [`DebarConfig::container_bytes`]
//! (the paper's LPC is a memory budget) — so the walk runs ahead of the
//! client for as long as the cache has room and is paced by the client
//! stream once it is full. Which entries a full cache gives up is the
//! walk's own choice, because it holds the whole recipe: of the residents
//! already sent, the one the rest of the recipe needs last (never again
//! first; the paper's LRU is the same rule knowing nothing, and is what
//! `debar-ddfs`' backup prefetch gets), again until the fetch fits. And
//! *what* a miss reads is the walk's choice too, once a miss has found
//! the cache full and it has started reading its recipe: the container's
//! metadata section, then only the extents holding chunks the rest of the
//! recipe still needs and no resident answers for
//! (`ChunkRepository::read_chunks`; a gap between two of them is read
//! through when streaming it costs no more than a seek), not the whole
//! container. A cache entry is therefore an *extent set* that
//! weighs the payload it holds — a whole container one full slot — and a
//! later miss on a container that is resident but lacks the chunk merges
//! the missing extents into its entry. From the same 128 MiB, on
//! `benchmark/`'s fragmented workloads: recipe-aware eviction 1.3x,
//! ranged reads a further 2.0–2.3x, the byte budget as the one gate a
//! further 1.6x.
//! A walk whose cache never fills keeps reading the paper's whole
//! containers, which is what makes a small tree's second restore warm —
//! each one's image (header, metadata, data, trailer), not the
//! fixed-size slot it was written to; with per-chunk sends that took
//! `filetree-bytes`' latest restore from 88.1 to 125.3 MiB/s.
//! [`RestoreReport`] carries each
//! lane's busy time (`resolve_s`, `node_read_s`, `node_read_total_s`,
//! `send_s`) beside `elapsed`; their sum, [`RestoreReport::serial_s`], is
//! what one clock would charge for the same walk. GC compaction, the
//! scrub and the recovery rebuild run on the same node timelines.
//!
//! **The layout is the paper's.** A duplicate keeps referencing the
//! container that first stored it, however old, every copy of a container
//! sits on its replica ring, and the one thing that ever rewrites a live
//! chunk is GC compaction. Out-of-line dedup therefore scatters each new
//! generation's chunks across ever-older containers, and every restore
//! measures how far in a [`LayoutReport`] ([`RestoreReport::layout`]):
//! distinct containers touched, containers per restored MiB
//! ([`LayoutReport::containers_per_mib`], the read-amplification proxy)
//! and the chunk-fragmentation level ([`LayoutReport::mean_run_length`] —
//! mean run of consecutive chunks sharing a container; 1.0 is fully
//! scattered). The `fig_restore` bench tracks both over 30 generations.
//! The pipelined walk hides most of the extra reads: restore throughput
//! falls only from 199 to 187 MiB/s. That is why no layout rewrites
//! duplicates at backup time: one that bounded containers-per-MiB stored
//! 2.7x the physical bytes and still restored slower, cold.
//!
//! ## Out-of-line dedup-1
//!
//! Dedup-1 is out-of-line, as in the paper: the backup path consults only
//! the in-memory preliminary filter, logs every miss with its fingerprint
//! undetermined, and writes no storage decision and no checking-file
//! entry — the PSIL commit of the batched dedup-2 sweep is their only
//! writer. The inline baseline the paper compares against (DDFS) is the
//! separate `debar-ddfs` crate. An inline/hybrid probe ladder on this
//! loop stored the same bytes for a slower ingest, and was removed; the
//! measurement is in the repository's change log (`CHANGES.md`).

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]

pub mod chunklog;
pub mod client;
pub mod cluster;
pub mod config;
pub mod dataset;
pub mod director;
pub mod error;
pub mod ids;
pub mod job;
pub mod metadata;
pub mod report;
pub mod server;

pub use cluster::{DebarCluster, Discrepancy, FsckReport, GcReport};
pub use config::DebarConfig;
pub use dataset::{ChunkList, ChunkedFile, Dataset, FileContent, FileEntry, StreamChunk};
pub use debar_simio::RetryPolicy;
pub use debar_store::ScrubReport;
pub use error::{DebarError, DebarResult, Dedup2Phase};
pub use ids::{ClientId, Device, JobId, RunId, ServerId};
pub use report::{CapReport, Dedup1Report, Dedup2Report, LayoutReport, RestoreReport};
