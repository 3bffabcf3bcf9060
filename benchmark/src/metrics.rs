//! The metric catalogue — names, units, directions, bounds — and the small
//! statistics the benchmark reports with them.
//!
//! `BENCHMARK.json` at the repository root repeats the catalogue for the
//! driver; a test keeps the two in step.

/// Which of the repository's two clocks a number is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Virtual time of the modelled hardware: repeats exactly for one seed.
    Sim,
    /// Time and memory of the simulator on this host: noisy.
    Host,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    pub clock: Clock,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse; per-layer metrics carry none.
    pub bound: Option<f64>,
}

pub const MAX_END_TO_END: usize = 16;
pub const MAX_PER_LAYER: usize = 128;

/// Simulated metrics repeat exactly for one seed. The driver compares runs of
/// different seeds, though, and the generators' sampling moves these metrics
/// from seed to seed (README, "Seeds"): each bound is about twice the widest
/// spread seen over two sets of ten seeds on any workload, or more.
/// [`SIM_SAME_SEED_BOUND`] is the bound `compare` applies between two runs of
/// one seed.
const SIM_BOUND: f64 = 0.10;
/// Restore speed follows the container layout a seed's duplicate runs leave.
const SIM_RESTORE_BOUND: f64 = 0.15;
/// What a collection reclaims hangs on the few generations that expired, so
/// it moves most with the seed.
const SIM_GC_BOUND: f64 = 0.25;
pub const SIM_SAME_SEED_BOUND: f64 = 0.005;
/// The host's speed shifts by up to a half for tens of seconds at a time; even
/// the fastest of a run's reps moves 2-9 % between runs on a quiet VM and up
/// to 25 % on a busy one (README, "Noise").
const HOST_BOUND: f64 = 0.25;
const RSS_BOUND: f64 = 0.10;

pub fn end_to_end() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    use Clock::{Host, Sim};
    [
        ("sim_backup_mibps", "MiB/s", Higher, Sim, SIM_BOUND),
        ("sim_dedup2_mibps", "MiB/s", Higher, Sim, SIM_BOUND),
        ("sim_ingest_mibps", "MiB/s", Higher, Sim, SIM_BOUND),
        (
            "sim_restore_latest_mibps",
            "MiB/s",
            Higher,
            Sim,
            SIM_RESTORE_BOUND,
        ),
        (
            "sim_restore_oldest_mibps",
            "MiB/s",
            Higher,
            Sim,
            SIM_RESTORE_BOUND,
        ),
        ("sim_gc_reclaim_mibps", "MiB/s", Higher, Sim, SIM_GC_BOUND),
        ("stored_per_logical", "ratio", Lower, Sim, SIM_BOUND),
        ("host_wall_s", "s", Lower, Host, HOST_BOUND),
        ("host_cpu_s", "s", Lower, Host, HOST_BOUND),
        ("host_peak_rss_mib", "MiB", Lower, Host, RSS_BOUND),
        ("setup_s", "s", Lower, Host, HOST_BOUND),
        ("ok_ops_share", "share", Higher, Sim, 0.001),
    ]
    .into_iter()
    .map(|(name, unit, better, clock, bound)| MetricDef {
        name: name.to_string(),
        unit,
        better,
        clock,
        bound: Some(bound),
    })
    .collect()
}

/// The public calls the script makes, as the traced rep names their spans.
pub const OPS: [&str; 9] = [
    "core.client.prepare",
    "core.cluster.backup_prepared",
    "core.cluster.run_dedup2",
    "core.cluster.force_siu",
    "core.cluster.restore_run",
    "core.gc.expire_runs",
    "core.gc.run_gc",
    "core.cluster.scrub",
    "core.cluster.verify_run",
];

/// Ops called often enough on the largest workload for a 90th percentile.
pub const OPS_WITH_P90: [&str; 2] = ["core.client.prepare", "core.cluster.backup_prepared"];

pub fn per_layer() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    use Clock::{Host, Sim};
    let mut defs = Vec::new();
    let mut add = |name: String, unit: &'static str, better: Better, clock: Clock| {
        defs.push(MetricDef {
            name,
            unit,
            better,
            clock,
            bound: None,
        })
    };
    for op in OPS {
        add(format!("{op}.calls"), "count", Lower, Sim);
        add(format!("{op}.host_s"), "s", Lower, Host);
        add(format!("{op}.host_ms_p50"), "ms", Lower, Host);
        if OPS_WITH_P90.contains(&op) {
            add(format!("{op}.host_ms_p90"), "ms", Lower, Host);
        }
        add(format!("{op}.allocs"), "count", Lower, Host);
        add(format!("{op}.alloc_mib"), "MiB", Lower, Host);
    }
    for (name, unit, better) in REPORT_COUNTERS {
        add(name.to_string(), unit, better, Sim);
    }
    for (name, unit) in REPLAYS {
        add(name.to_string(), unit, Higher, Host);
    }
    add("workload.generate.host_s".into(), "s", Lower, Host);
    add("core.cluster.new.host_s".into(), "s", Lower, Host);
    add("trace.spans".into(), "count", Lower, Sim);
    add("trace.op_span_share".into(), "share", Higher, Host);
    add("trace.overhead_share".into(), "share", Lower, Host);
    defs
}

/// Deterministic numbers read from the system's own reports and devices.
pub const REPORT_COUNTERS: [(&str, &str, Better); 45] = [
    ("workload.logical_mib", "MiB", Better::Higher),
    ("workload.distinct_fps", "count", Better::Higher),
    ("core.cluster.d2.rounds", "count", Better::Lower),
    ("core.cluster.d2.exchange_sim_s", "s", Better::Lower),
    ("core.cluster.d2.sil_sim_s", "s", Better::Lower),
    ("core.cluster.d2.store_sim_s", "s", Better::Lower),
    ("core.cluster.d2.cap_sim_s", "s", Better::Lower),
    ("core.cluster.d2.siu_sim_s", "s", Better::Lower),
    ("core.cluster.d2.sil_sweeps", "count", Better::Lower),
    ("core.cluster.d2.submitted_fps", "count", Better::Lower),
    ("core.cluster.d2.new_fps", "count", Better::Lower),
    ("core.cluster.d2.dup_registered", "count", Better::Lower),
    ("core.cluster.d2.dup_pending", "count", Better::Lower),
    ("filter.prelim.filtered_share", "share", Better::Higher),
    ("core.server.transferred_share", "share", Better::Lower),
    ("index.sil_fps_per_sim_s", "fp/s", Better::Higher),
    ("index.siu_fps_per_sim_s", "fp/s", Better::Higher),
    ("index.utilization", "share", Better::Lower),
    ("store.containers_written", "count", Better::Lower),
    ("store.discarded_chunks", "count", Better::Lower),
    ("store.unique_excess_share", "share", Better::Lower),
    (
        "store.repository.node_bytes_max_share",
        "share",
        Better::Lower,
    ),
    ("store.repository.failover_reads", "count", Better::Lower),
    ("store.repository.retried_ops", "count", Better::Lower),
    ("store.lpc.hit_share", "share", Better::Higher),
    ("store.lpc.evictions", "count", Better::Lower),
    (
        "core.layout.containers_per_mib_latest",
        "1/MiB",
        Better::Lower,
    ),
    (
        "core.layout.containers_per_mib_oldest",
        "1/MiB",
        Better::Lower,
    ),
    ("core.layout.mean_run_len_latest", "chunks", Better::Higher),
    ("core.gc.live_fps", "count", Better::Lower),
    ("core.gc.dead_fps", "count", Better::Higher),
    ("core.gc.containers_compacted", "count", Better::Lower),
    ("core.gc.containers_deleted", "count", Better::Higher),
    ("core.gc.moved_chunks", "count", Better::Lower),
    ("core.gc.sim_s", "s", Better::Lower),
    ("store.scrub.copies_checked", "count", Better::Lower),
    ("store.scrub.sim_s", "s", Better::Lower),
    ("simio.index_disk.busy_sim_s", "s", Better::Lower),
    ("simio.index_disk.seq_read_mib", "MiB", Better::Lower),
    ("simio.index_disk.seq_write_mib", "MiB", Better::Lower),
    ("simio.index_disk.rand_reads", "count", Better::Lower),
    ("simio.repo_node.busy_sim_s_max", "s", Better::Lower),
    ("simio.repo_node.seq_write_mib", "MiB", Better::Lower),
    ("simio.repo_node.rand_reads", "count", Better::Lower),
    ("core.cluster.siu_final_sim_s", "s", Better::Lower),
];

/// Host speed of one layer alone, fed the workload's own inputs. A layer the
/// workload does not reach (chunking and hashing of fingerprint records)
/// reports 0.
pub const REPLAYS: [(&str, &str); 9] = [
    ("chunk.cdc.host_mibps", "MiB/s"),
    ("hash.sha1.host_mibps", "MiB/s"),
    ("filter.prelim.host_mfps", "Mfp/s"),
    ("filter.cuckoo.host_mops", "Mop/s"),
    ("index.sil.host_mfps", "Mfp/s"),
    ("index.siu.host_mfps", "Mfp/s"),
    ("store.container.codec_host_mibps", "MiB/s"),
    ("store.lpc.host_mlookups", "Mop/s"),
    ("store.repository.host_containers_per_s", "1/s"),
];

/// The paper's §6.1 figures (MB/s, read as MiB/s like the rest of the
/// model) that `month-records` reports its error against.
pub const PAPER_BACKUP_MIBPS: f64 = 641.6;
pub const PAPER_INGEST_MIBPS: f64 = 329.2;
pub const PAPER_DEDUP2_MIBPS: f64 = 197.0;

/// Names: start with a letter or digit, then letters, digits, `_`, `.`, `-`;
/// at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

/// Units: letters, digits, `_`, `/`, `%`, `.`, `-`; at most 16 characters.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// computes them (the exclusive method), so spreads read the same here and
/// in the driver. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Distance between the quartiles; 0 for fewer than two values.
pub fn iqr(values: &[f64]) -> f64 {
    quartiles(values).map_or(0.0, |(q1, q3)| q3 - q1)
}

/// Whether `n` samples support reporting percentile `p`: at least ten samples
/// must lie beyond it.
pub fn percentile_supported(n: usize, p: u32) -> bool {
    p < 100 && n * (100 - p as usize) >= 10 * 100
}

/// Nearest-rank percentile.
pub fn percentile(values: &[f64], p: u32) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (p as usize * v.len()).div_ceil(100).clamp(1, v.len());
    v[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn catalogue_respects_the_caps_and_charsets() {
        let e2e = end_to_end();
        let layer = per_layer();
        assert_eq!(e2e.len(), 12);
        assert!(e2e.len() <= MAX_END_TO_END);
        assert!(
            layer.len() <= MAX_PER_LAYER,
            "{} per-layer metrics",
            layer.len()
        );
        let mut seen = HashSet::new();
        for m in e2e.iter().chain(&layer) {
            assert!(valid_name(&m.name), "name {:?}", m.name);
            assert!(valid_unit(m.unit), "unit {:?}", m.unit);
            assert!(seen.insert(m.name.clone()), "{} defined twice", m.name);
        }
        assert!(e2e.iter().all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(layer.iter().all(|m| m.bound.is_none()));
        let setup = e2e.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            e2e.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the widest bound"
        );
    }

    #[test]
    fn name_charset() {
        for good in [
            "a",
            "9lives",
            "core.cluster.d2.sil_sim_s",
            "x-y_z.0",
            &"a".repeat(64),
        ] {
            assert!(valid_name(good), "{good}");
        }
        for bad in [
            "",
            ".a",
            "-a",
            "_a",
            "a b",
            "a/b",
            "é",
            "a%",
            &"a".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("MiB/s") && valid_unit("%") && valid_unit("1/s"));
        assert!(!valid_unit("") && !valid_unit("per second") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert!(percentile_supported(20, 50));
        assert!(!percentile_supported(19, 50));
        assert!(percentile_supported(100, 90));
        assert!(!percentile_supported(99, 90));
        assert!(percentile_supported(200, 95) && !percentile_supported(199, 95));
        assert!(percentile_supported(1000, 99) && !percentile_supported(999, 99));
        assert!(!percentile_supported(1_000_000, 100));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50), 2.0);
        assert_eq!(percentile(&[7.0], 99), 7.0);
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1..7], n=4) == [2.0, 4.0, 6.0]
        let seven: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(quartiles(&seven), Some((2.0, 6.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(iqr(&[5.0]), 0.0);
        assert_eq!(iqr(&ten), 5.5);
    }
}
