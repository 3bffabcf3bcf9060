//! The multi-stream synthetic workload of paper §6.2.
//!
//! "The variable value space (0 ∼ 2^64 − 1) is divided into 64
//! non-intersecting contiguous subspaces with each backup-client computer
//! holding a subspace ... each backup client simulates a backup stream that
//! is made up of an ordered series of synthetic fingerprint versions where
//! each successor version is generated by performing a series of
//! modification operations on its predecessor: 1) reordering and deleting
//! some of the existing fingerprints, 2) adding new fingerprints using a
//! contiguous section of the variable's corresponding subspace, and
//! 3) adding duplicate fingerprints using a number of small contiguous
//! sections of the variable value space from the previous run modes of the
//! current subspace or other subspaces to simulate cross-stream
//! duplication."
//!
//! Duplicate content is spliced in as *contiguous runs*, which is what
//! gives the stream the duplicate locality that SISL preserves and LPC
//! exploits.

use crate::record::ChunkRecord;
use debar_hash::SplitMix64;
use rayon::prelude::*;

/// Configuration of a multi-client version-chain workload.
#[derive(Debug, Clone, Copy)]
pub struct MultiStreamConfig {
    /// Number of backup clients (streams).
    pub clients: usize,
    /// Chunks per version per client.
    pub version_chunks: usize,
    /// Fraction of each version (after version 0) that duplicates existing
    /// content (the paper builds ~90%).
    pub dup_fraction: f64,
    /// Fraction of the duplicate portion drawn from *other* subspaces
    /// (the paper: ~30% of duplicates are cross-stream).
    pub cross_fraction: f64,
    /// Bounds on the length of spliced duplicate/new runs, in chunks.
    pub run_len: (usize, usize),
    /// Master seed.
    pub seed: u64,
}

impl Default for MultiStreamConfig {
    fn default() -> Self {
        MultiStreamConfig {
            clients: 4,
            version_chunks: 4096,
            dup_fraction: 0.9,
            cross_fraction: 0.3,
            run_len: (256, 1024),
            seed: 0xDEBA_2010,
        }
    }
}

#[derive(Debug, Clone)]
struct ChainState {
    /// Start of this client's counter subspace.
    base: u64,
    /// Counters consumed from the subspace so far.
    used: u64,
    /// The previous version's records (own-stream duplicate source).
    prev: Vec<ChunkRecord>,
    rng: SplitMix64,
}

/// Generates synchronized rounds of versions for all clients.
#[derive(Debug, Clone)]
pub struct MultiStreamGen {
    cfg: MultiStreamConfig,
    chains: Vec<ChainState>,
    round: u32,
}

impl MultiStreamGen {
    /// Create the generator; client `i` owns the counter subspace
    /// `[i·2^58, (i+1)·2^58)` like the paper's 64-subspace split.
    pub fn new(cfg: MultiStreamConfig) -> Self {
        assert!(cfg.clients >= 1 && cfg.clients <= 64, "1..=64 clients");
        assert!(cfg.version_chunks > 0);
        assert!((0.0..1.0).contains(&cfg.dup_fraction));
        assert!((0.0..=1.0).contains(&cfg.cross_fraction));
        assert!(cfg.run_len.0 >= 1 && cfg.run_len.0 <= cfg.run_len.1);
        let mut seeder = SplitMix64::new(cfg.seed);
        let chains = (0..cfg.clients)
            .map(|i| ChainState {
                base: (i as u64) << 58,
                used: 0,
                prev: Vec::new(),
                rng: seeder.fork(),
            })
            .collect();
        MultiStreamGen {
            cfg,
            chains,
            round: 0,
        }
    }

    /// Versions generated so far.
    pub fn round(&self) -> u32 {
        self.round
    }

    /// Counters consumed by client `i` (its unique-content footprint).
    pub fn used(&self, client: usize) -> u64 {
        self.chains[client].used
    }

    /// Generate the next version for every client (clients in parallel;
    /// deterministic because each chain owns its RNG and cross-stream runs
    /// sample *before-this-round* counter ranges snapshotted up front).
    pub fn next_round(&mut self) -> Vec<Vec<ChunkRecord>> {
        let snapshot: Vec<(u64, u64)> = self.chains.iter().map(|c| (c.base, c.used)).collect();
        let cfg = self.cfg;
        let first_round = self.round == 0;
        let versions: Vec<Vec<ChunkRecord>> = self
            .chains
            .par_iter_mut()
            .enumerate()
            .map(|(i, chain)| generate_version(cfg, chain, i, &snapshot, first_round))
            .collect();
        for (chain, v) in self.chains.iter_mut().zip(&versions) {
            chain.prev = v.clone();
        }
        self.round += 1;
        versions
    }
}

/// Build one version for one chain.
fn generate_version(
    cfg: MultiStreamConfig,
    chain: &mut ChainState,
    client: usize,
    snapshot: &[(u64, u64)],
    first_round: bool,
) -> Vec<ChunkRecord> {
    let target = cfg.version_chunks;
    let mut out: Vec<ChunkRecord> = Vec::with_capacity(target);

    // Version 0 is all-new content (the paper: "The first version
    // experiences relatively high read throughput because all of its
    // fingerprints are new").
    if first_round {
        while out.len() < target {
            let run = run_length(cfg, &mut chain.rng).min(target - out.len());
            append_new_run(chain, run, &mut out);
        }
        return out;
    }

    // Later versions: start from a reorder of the predecessor's runs, then
    // compose dup/new runs to the target mix.
    while out.len() < target {
        let run = run_length(cfg, &mut chain.rng).min(target - out.len());
        let roll = chain.rng.next_f64();
        if roll < 1.0 - cfg.dup_fraction {
            append_new_run(chain, run, &mut out);
        } else if roll < 1.0 - cfg.dup_fraction * cfg.cross_fraction {
            // Own-stream duplicate: contiguous window of the previous
            // version (captures both "retained" and "reordered" chunks).
            append_window_of_prev(chain, run, &mut out);
        } else {
            // Cross-stream duplicate: contiguous counter window from another
            // client's already-used subspace region.
            append_cross_run(chain, client, snapshot, run, &mut out);
        }
    }
    out
}

fn run_length(cfg: MultiStreamConfig, rng: &mut SplitMix64) -> usize {
    rng.range(cfg.run_len.0 as u64, cfg.run_len.1 as u64 + 1) as usize
}

fn append_new_run(chain: &mut ChainState, run: usize, out: &mut Vec<ChunkRecord>) {
    for _ in 0..run {
        out.push(ChunkRecord::of_counter(chain.base + chain.used));
        chain.used += 1;
    }
}

fn append_window_of_prev(chain: &mut ChainState, run: usize, out: &mut Vec<ChunkRecord>) {
    if chain.prev.is_empty() {
        return append_new_run(chain, run, out);
    }
    // Offset-aligned window (with small jitter): successive versions re-send
    // the same extents, keeping provenance depth shallow so physical chunk
    // locality survives many generations (see the HUSt generator for the
    // full rationale).
    let len = run.min(chain.prev.len());
    let anchor = out.len().min(chain.prev.len() - len);
    let jitter = chain.rng.below((len / 8).max(1) as u64) as usize;
    let start = anchor.saturating_sub(jitter).min(chain.prev.len() - len);
    out.extend_from_slice(&chain.prev[start..start + len]);
}

fn append_cross_run(
    chain: &mut ChainState,
    client: usize,
    snapshot: &[(u64, u64)],
    run: usize,
    out: &mut Vec<ChunkRecord>,
) {
    // Pick another client with generated history.
    let candidates: Vec<usize> = snapshot
        .iter()
        .enumerate()
        .filter(|&(i, &(_, used))| i != client && used > 0)
        .map(|(i, _)| i)
        .collect();
    let Some(&donor) = chain.rng.choose(&candidates) else {
        return append_window_of_prev(chain, run, out);
    };
    let (base, used) = snapshot[donor];
    let len = (run as u64).min(used);
    let start = chain.rng.below(used - len + 1);
    for c in 0..len {
        out.push(ChunkRecord::of_counter(base + start + c));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use debar_hash::FpSet;
    use std::collections::HashSet;

    fn cfg() -> MultiStreamConfig {
        MultiStreamConfig {
            clients: 4,
            version_chunks: 4000,
            run_len: (64, 256),
            ..MultiStreamConfig::default()
        }
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = MultiStreamGen::new(cfg());
        let mut b = MultiStreamGen::new(cfg());
        for _ in 0..3 {
            assert_eq!(a.next_round(), b.next_round());
        }
    }

    #[test]
    fn version_sizes_match_target() {
        let mut g = MultiStreamGen::new(cfg());
        for _ in 0..3 {
            for v in g.next_round() {
                assert_eq!(v.len(), 4000);
            }
        }
    }

    #[test]
    fn first_round_is_all_unique_and_disjoint_across_clients() {
        let mut g = MultiStreamGen::new(cfg());
        let round0 = g.next_round();
        let mut all = FpSet::default();
        for v in &round0 {
            let distinct: FpSet = v.iter().map(|r| r.fp).collect();
            assert_eq!(distinct.len(), v.len(), "internal dup in v0");
            for r in v {
                assert!(all.insert(r.fp), "cross-client collision in round 0");
            }
        }
    }

    #[test]
    fn later_rounds_hit_duplicate_target() {
        let mut g = MultiStreamGen::new(cfg());
        let mut seen: HashSet<_> = HashSet::new();
        for v in g.next_round() {
            seen.extend(v.iter().map(|r| r.fp));
        }
        let round1 = g.next_round();
        for v in &round1 {
            let dup = v.iter().filter(|r| seen.contains(&r.fp)).count();
            let frac = dup as f64 / v.len() as f64;
            // Configured 90% duplication (within a tolerant band — runs
            // against *prev version*, which itself may contain fresh picks).
            assert!((0.75..1.0).contains(&frac), "dup fraction {frac}");
        }
    }

    #[test]
    fn cross_stream_duplicates_present() {
        let mut g = MultiStreamGen::new(cfg());
        let r0 = g.next_round();
        let own: Vec<HashSet<_>> = r0
            .iter()
            .map(|v| v.iter().map(|r| r.fp).collect())
            .collect();
        let r1 = g.next_round();
        let mut cross_total = 0usize;
        for (i, v) in r1.iter().enumerate() {
            let others: HashSet<_> = own
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .flat_map(|(_, s)| s.iter().copied())
                .collect();
            cross_total += v.iter().filter(|r| others.contains(&r.fp)).count();
        }
        let frac = cross_total as f64 / (4.0 * 4000.0);
        // ~90% dups × ~30% cross ≈ 27%; accept a broad band.
        assert!((0.1..0.5).contains(&frac), "cross fraction {frac}");
    }

    #[test]
    fn duplicate_runs_are_contiguous() {
        // Duplicate locality: repeated fingerprints should arrive in runs,
        // not shuffled singletons — measured as the probability that the
        // successor of a duplicate is also a duplicate.
        let mut g = MultiStreamGen::new(cfg());
        let mut seen: HashSet<_> = HashSet::new();
        for v in g.next_round() {
            seen.extend(v.iter().map(|r| r.fp));
        }
        let v = &g.next_round()[0];
        let flags: Vec<bool> = v.iter().map(|r| seen.contains(&r.fp)).collect();
        let mut dup_pairs = 0;
        let mut dup_follow = 0;
        for w in flags.windows(2) {
            if w[0] {
                dup_pairs += 1;
                if w[1] {
                    dup_follow += 1;
                }
            }
        }
        let locality = dup_follow as f64 / dup_pairs.max(1) as f64;
        assert!(locality > 0.9, "duplicate locality {locality}");
    }

    #[test]
    fn subspaces_do_not_collide() {
        let mut g = MultiStreamGen::new(MultiStreamConfig {
            clients: 8,
            version_chunks: 1000,
            ..cfg()
        });
        for _ in 0..5 {
            g.next_round();
        }
        for i in 0..8 {
            assert!(g.used(i) < 1 << 58, "subspace overflow");
        }
    }
}
