//! A statistical model of the HUSt data-center month (paper §6.1).
//!
//! The paper backs up 8 HUSt storage nodes daily for 31 days: ~583 GB/day of
//! logical data on average (some days > 800 GB, some < 150 GB), 17.09 TB
//! total, compressing 9.39:1 overall. We model the *duplication structure*
//! with four per-chunk source classes:
//!
//! | class | default | eliminated by |
//! |---|---|---|
//! | `p_prev` — window of the same job's previous version | 0.60 | preliminary filter (dedup-1) |
//! | `p_internal` — repeat of a window earlier in the same version | 0.12 | preliminary filter (dedup-1) |
//! | `p_hist` — window of global history ≥ 2 versions old | 0.185 | SIL (dedup-2) |
//! | new counters | remainder | stored |
//!
//! With these defaults dedup-1 passes ≈ 28% of logical bytes (cumulative
//! ratio ≈ 3.6:1) and dedup-2 removes ≈ 61% of what remains (ratio ≈
//! 2.6:1), matching Figure 7. Day 1 has no history, so its duplicates are
//! internal-only (the paper: "In the first two days, the preliminary filter
//! eliminated all the duplicate data").
//!
//! All sizes are *nominal* (paper-scale) and divided by
//! [`ScaleModel::denom`]; see the `debar_simio::scale` module docs for why
//! MB/s-shaped results are scale-invariant.

use crate::record::ChunkRecord;
use debar_hash::SplitMix64;
use debar_simio::ScaleModel;
use serde::{Deserialize, Serialize};

/// Configuration of the HUSt month model.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct HustConfig {
    /// Backup clients (the paper uses 8 HUSt storage nodes).
    pub clients: usize,
    /// Days in the trace (the paper spans 31).
    pub days: usize,
    /// Mean *nominal* logical bytes per day across all clients.
    pub mean_daily_bytes: u64,
    /// Size scaling applied to chunk counts.
    pub scale: ScaleModel,
    /// Duplicate fraction drawn from the previous version of the same job.
    pub p_prev: f64,
    /// Duplicate fraction repeated within the same version.
    pub p_internal: f64,
    /// Duplicate fraction drawn from global history (≥ 2 versions back).
    pub p_hist: f64,
    /// Spliced-run length bounds, in chunks.
    pub run_len: (usize, usize),
    /// Master seed.
    pub seed: u64,
}

impl Default for HustConfig {
    fn default() -> Self {
        HustConfig {
            clients: 8,
            days: 31,
            mean_daily_bytes: 583 << 30, // 583 GB nominal
            scale: ScaleModel::DEFAULT,
            p_prev: 0.60,
            p_internal: 0.12,
            p_hist: 0.185,
            run_len: (768, 6144),
            seed: 0x4855_5374, // "HUSt"
        }
    }
}

/// One simulated day: per-client chunk streams.
#[derive(Debug, Clone)]
pub struct HustDay {
    /// 1-based day number.
    pub day: usize,
    /// Per-client streams for this day.
    pub per_client: Vec<Vec<ChunkRecord>>,
}

impl HustDay {
    /// Total logical bytes across clients.
    pub fn logical_bytes(&self) -> u64 {
        self.per_client
            .iter()
            .map(|v| crate::record::total_bytes(v))
            .sum()
    }

    /// Total chunks across clients.
    pub fn chunks(&self) -> usize {
        self.per_client.iter().map(Vec::len).sum()
    }
}

#[derive(Debug, Clone)]
struct ClientChain {
    base: u64,
    used: u64,
    prev: Vec<ChunkRecord>,
    rng: SplitMix64,
    /// [start, end) counter windows of content at least two versions old,
    /// kept per donor client for historical duplicate sampling.
    hist_used: u64,
}

/// Iterator over the month's days.
#[derive(Debug, Clone)]
pub struct HustGen {
    cfg: HustConfig,
    chains: Vec<ClientChain>,
    day: usize,
    daily_weights: Vec<f64>,
    rng: SplitMix64,
}

impl HustGen {
    /// Create the generator.
    pub fn new(cfg: HustConfig) -> Self {
        assert!(cfg.clients >= 1 && cfg.clients <= 64);
        assert!(cfg.days >= 1);
        assert!(
            cfg.p_prev + cfg.p_internal + cfg.p_hist < 1.0,
            "fractions must leave room for new data"
        );
        let mut rng = SplitMix64::new(cfg.seed);
        let chains = (0..cfg.clients)
            .map(|i| ClientChain {
                base: (i as u64) << 58,
                used: 0,
                prev: Vec::new(),
                rng: rng.fork(),
                hist_used: 0,
            })
            .collect();
        // Daily size profile: lognormal-ish factor in [0.25, 1.45] around
        // the mean, like the paper's 150-800+ GB spread.
        let daily_weights = {
            let mut w = Vec::with_capacity(cfg.days);
            let mut r = rng.fork();
            for _ in 0..cfg.days {
                let u = r.next_f64() + r.next_f64() + r.next_f64(); // ~triangular around 1.5
                w.push(0.25 + 1.2 * (u / 3.0));
            }
            w
        };
        HustGen {
            cfg,
            chains,
            day: 0,
            daily_weights,
            rng,
        }
    }
}

impl Iterator for HustGen {
    type Item = HustDay;

    fn next(&mut self) -> Option<HustDay> {
        if self.day >= self.cfg.days {
            return None;
        }
        let cfg = self.cfg;
        let nominal_bytes = (cfg.mean_daily_bytes as f64 * self.daily_weights[self.day]) as u64;
        let actual_bytes = cfg.scale.to_actual(nominal_bytes);
        // Mean synthetic chunk is 8 KB.
        let total_chunks = (actual_bytes / 8192).max(1) as usize;
        let first_day = self.day == 0;

        // Snapshot history ranges (content at least one *completed* day old)
        // before generating, so cross-client history sampling is stable.
        let hist: Vec<(u64, u64)> = self.chains.iter().map(|c| (c.base, c.hist_used)).collect();

        // Split the day's volume unevenly across clients.
        let mut shares = vec![0usize; cfg.clients];
        for s in shares.iter_mut() {
            *s = total_chunks / cfg.clients;
        }
        for _ in 0..total_chunks % cfg.clients {
            let i = self.rng.below(cfg.clients as u64) as usize;
            shares[i] += 1;
        }

        let per_client: Vec<Vec<ChunkRecord>> = self
            .chains
            .iter_mut()
            .zip(&shares)
            .map(|(chain, &target)| generate_day_stream(cfg, chain, target, &hist, first_day))
            .collect();

        // History for day d+1 is everything consumed through day d; because
        // the snapshot is taken at day *start*, historical sampling always
        // lags the live version by at least one completed day.
        for (chain, v) in self.chains.iter_mut().zip(&per_client) {
            chain.hist_used = chain.used;
            chain.prev = v.clone();
        }
        self.day += 1;
        Some(HustDay {
            day: self.day,
            per_client,
        })
    }
}

fn generate_day_stream(
    cfg: HustConfig,
    chain: &mut ClientChain,
    target: usize,
    hist: &[(u64, u64)],
    first_day: bool,
) -> Vec<ChunkRecord> {
    let mut out: Vec<ChunkRecord> = Vec::with_capacity(target);
    while out.len() < target {
        let run = chain
            .rng
            .range(cfg.run_len.0 as u64, cfg.run_len.1 as u64 + 1)
            .min((target - out.len()) as u64) as usize;
        let roll = chain.rng.next_f64();
        if first_day {
            // Day 1: only internal duplication and new data. Real reference
            // datasets start with substantial internal redundancy (the
            // paper's day-1/2 daily ratios sit near the steady DDFS line),
            // so half of day 1 repeats earlier windows of itself.
            if roll < 0.5 && !out.is_empty() {
                append_internal(chain, &mut out, run);
            } else {
                append_new(chain, &mut out, run);
            }
            continue;
        }
        if roll < cfg.p_prev && !chain.prev.is_empty() {
            // Unchanged region of the previous version, *offset-aligned*:
            // daily incremental backups re-send the same file extents, so
            // the copied window sits at (about) the same stream position it
            // occupied yesterday. Alignment keeps provenance depth shallow —
            // content traces back to the day it was first stored instead of
            // re-fragmenting every generation — preserving the
            // container-scale duplicate locality LPC depends on (§6.2).
            let len = run.min(chain.prev.len());
            let anchor = out.len().min(chain.prev.len() - len);
            let jitter_span = (len / 8).max(1) as u64;
            let jitter = chain.rng.below(jitter_span) as usize;
            let start = anchor.saturating_sub(jitter).min(chain.prev.len() - len);
            out.extend_from_slice(&chain.prev[start..start + len]);
        } else if roll < cfg.p_prev + cfg.p_internal && !out.is_empty() {
            append_internal(chain, &mut out, run);
        } else if roll < cfg.p_prev + cfg.p_internal + cfg.p_hist {
            append_hist(chain, hist, &mut out, run);
        } else {
            append_new(chain, &mut out, run);
        }
    }
    out
}

fn append_new(chain: &mut ClientChain, out: &mut Vec<ChunkRecord>, run: usize) {
    for _ in 0..run {
        out.push(ChunkRecord::of_counter(chain.base + chain.used));
        chain.used += 1;
    }
}

fn append_internal(chain: &mut ClientChain, out: &mut Vec<ChunkRecord>, run: usize) {
    let len = run.min(out.len());
    let start = chain.rng.below((out.len() - len + 1) as u64) as usize;
    let window: Vec<ChunkRecord> = out[start..start + len].to_vec();
    out.extend(window);
}

fn append_hist(
    chain: &mut ClientChain,
    hist: &[(u64, u64)],
    out: &mut Vec<ChunkRecord>,
    run: usize,
) {
    let candidates: Vec<&(u64, u64)> = hist.iter().filter(|&&(_, used)| used > 0).collect();
    let Some(&&(base, used)) = chain.rng.choose(&candidates) else {
        return append_new(chain, out, run);
    };
    let len = (run as u64).min(used);
    let start = chain.rng.below(used - len + 1);
    for c in 0..len {
        out.push(ChunkRecord::of_counter(base + start + c));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn small_cfg() -> HustConfig {
        HustConfig {
            clients: 4,
            days: 8,
            mean_daily_bytes: 8 << 30, // 8 GB nominal -> 8 MB actual
            run_len: (32, 128),
            ..HustConfig::default()
        }
    }

    #[test]
    fn deterministic() {
        let a: Vec<HustDay> = HustGen::new(small_cfg()).collect();
        let b: Vec<HustDay> = HustGen::new(small_cfg()).collect();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.per_client, y.per_client);
        }
    }

    #[test]
    fn day_count_and_sizes() {
        let days: Vec<HustDay> = HustGen::new(small_cfg()).collect();
        assert_eq!(days.len(), 8);
        for d in &days {
            let bytes = d.logical_bytes();
            // ~8 MB actual/day within the 0.25-1.45 weight band.
            assert!(
                (1 << 20..16 << 20).contains(&bytes),
                "day {} bytes {bytes}",
                d.day
            );
        }
    }

    #[test]
    fn day1_duplicates_are_internal_only() {
        let day1 = HustGen::new(small_cfg()).next().unwrap();
        for (i, stream) in day1.per_client.iter().enumerate() {
            // Every fingerprint comes from this client's own subspace.
            let base = (i as u64) << 58;
            for r in stream {
                // Recover nothing about the counter, but cross-client
                // repeats are impossible on day 1: check disjointness below.
                let _ = r;
            }
            let _ = base;
        }
        // No fingerprint appears in two different clients' day-1 streams.
        let mut seen_by: Vec<HashSet<_>> = Vec::new();
        for stream in &day1.per_client {
            let fps: HashSet<_> = stream.iter().map(|r| r.fp).collect();
            for earlier in &seen_by {
                assert!(earlier.intersection(&fps).next().is_none());
            }
            seen_by.push(fps);
        }
    }

    #[test]
    fn filterable_fraction_matches_calibration() {
        // Fraction of a day's chunks that the preliminary filter can remove
        // (previous-version + internal dups) should track
        // p_prev + p_internal ≈ 0.72 when aggregated over enough runs.
        let mut gen = HustGen::new(HustConfig {
            mean_daily_bytes: 64 << 30, // ~64 MB actual/day
            run_len: (16, 64),
            ..small_cfg()
        });
        let day1 = gen.next().unwrap();
        let day2 = gen.next().unwrap();
        let mut filterable = 0usize;
        let mut total = 0usize;
        for (i, stream) in day2.per_client.iter().enumerate() {
            let prev: HashSet<_> = day1.per_client[i].iter().map(|r| r.fp).collect();
            let mut seen_today: HashSet<debar_hash::Fingerprint> = HashSet::new();
            for r in stream {
                if prev.contains(&r.fp) || seen_today.contains(&r.fp) {
                    filterable += 1;
                }
                seen_today.insert(r.fp);
                total += 1;
            }
        }
        let frac = filterable as f64 / total as f64;
        assert!((0.60..0.88).contains(&frac), "filterable fraction {frac}");
    }

    #[test]
    fn cumulative_compression_near_9x() {
        // Unique bytes across the month should be roughly 1/9.4 of logical
        // bytes (the paper's 17.09 TB -> 1.82 TB).
        let days: Vec<HustDay> = HustGen::new(HustConfig {
            days: 16,
            ..small_cfg()
        })
        .collect();
        let mut logical = 0u64;
        let mut unique: HashSet<_> = HashSet::new();
        let mut unique_bytes = 0u64;
        for d in &days {
            for stream in &d.per_client {
                for r in stream {
                    logical += r.len as u64;
                    if unique.insert(r.fp) {
                        unique_bytes += r.len as u64;
                    }
                }
            }
        }
        let ratio = logical as f64 / unique_bytes as f64;
        // Ratio grows with days; at 16 days expect mid-single-digit to ~12.
        assert!((5.0..14.0).contains(&ratio), "compression ratio {ratio}");
    }

    #[test]
    fn planned_daily_bytes_spread() {
        // The nominal logical size `next` gives each day.
        let g = HustGen::new(HustConfig::default());
        let plan: Vec<u64> = (g.daily_weights.iter())
            .map(|w| (g.cfg.mean_daily_bytes as f64 * w) as u64)
            .collect();
        assert_eq!(plan.len(), 31);
        let min = *plan.iter().min().unwrap();
        let max = *plan.iter().max().unwrap();
        // The paper: some days < 150 GB, some > 800 GB.
        assert!(min < 400 << 30, "min day {min}");
        assert!(max > 650u64 << 30, "max day {max}");
        let total: u64 = plan.iter().sum();
        // ~17 TB nominal.
        assert!(
            (12u64 << 40..22u64 << 40).contains(&total),
            "month total {total}"
        );
    }
}
