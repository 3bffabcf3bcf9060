//! The one-month HUSt experiment (paper §6.1): DEBAR and DDFS back up the
//! same 8-client daily streams for 31 days. Regenerates the data behind
//! Figures 6, 7, 8 and 9.

use debar_core::{ClientId, Dataset, DebarCluster, DebarConfig};
use debar_ddfs::{DdfsConfig, DdfsServer};
use debar_simio::throughput::mibps;
use debar_simio::Secs;
use debar_workload::{HustConfig, HustGen};
use serde::{Deserialize, Serialize};

/// Month-experiment configuration.
#[derive(Debug, Clone, Copy)]
pub struct MonthConfig {
    /// Scale denominator (sizes = paper sizes / denom).
    pub denom: u64,
    /// Days to simulate (paper: 31).
    pub days: usize,
    /// Clients/jobs (paper: 8).
    pub clients: usize,
    /// Whether to also run the DDFS baseline.
    pub run_ddfs: bool,
    /// Disable DEBAR's preliminary filter (ablation): no job chains — every
    /// client's every day runs as a fresh job, so nothing ever primes its
    /// filter (within-run duplicates are still caught).
    pub disable_prelim_filter: bool,
}

impl Default for MonthConfig {
    fn default() -> Self {
        MonthConfig {
            denom: 256,
            days: 31,
            clients: 8,
            run_ddfs: true,
            disable_prelim_filter: false,
        }
    }
}

/// Per-day measurements.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct DayRow {
    /// 1-based day.
    pub day: usize,
    /// Logical bytes backed up this day.
    pub logical: u64,
    /// DEBAR: bytes that survived the preliminary filter (transferred).
    pub transferred: u64,
    /// DEBAR: dedup-1 wall time this day.
    pub d1_wall: Secs,
    /// DEBAR: whether dedup-2 ran at the end of this day.
    pub d2_ran: bool,
    /// DEBAR: chunk-log bytes processed by dedup-2 (0 unless it ran).
    pub d2_log_bytes: u64,
    /// DEBAR: bytes stored by dedup-2.
    pub d2_stored: u64,
    /// DEBAR: dedup-2 wall time.
    pub d2_wall: Secs,
    /// DEBAR: cumulative physically stored bytes.
    pub debar_stored_cum: u64,
    /// DDFS: bytes stored this day.
    pub ddfs_stored: u64,
    /// DDFS: day wall time.
    pub ddfs_wall: Secs,
    /// DDFS: cumulative stored bytes.
    pub ddfs_stored_cum: u64,
}

/// The full month's rows plus cumulative accounting.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MonthReport {
    /// Per-day rows.
    pub rows: Vec<DayRow>,
    /// Days on which dedup-2 ran.
    pub dedup2_days: Vec<usize>,
}

impl MonthReport {
    /// Cumulative logical bytes through day index `i` (0-based).
    pub fn cum_logical(&self, i: usize) -> u64 {
        self.rows[..=i].iter().map(|r| r.logical).sum()
    }

    /// DEBAR dedup-1 daily compression ratio.
    pub fn d1_daily_ratio(&self, i: usize) -> f64 {
        ratio(self.rows[i].logical, self.rows[i].transferred)
    }

    /// DEBAR dedup-1 cumulative compression ratio.
    pub fn d1_cum_ratio(&self, i: usize) -> f64 {
        ratio(
            self.cum_logical(i),
            self.rows[..=i].iter().map(|r| r.transferred).sum(),
        )
    }

    /// DEBAR dedup-2 daily compression (only on days it ran).
    pub fn d2_daily_ratio(&self, i: usize) -> Option<f64> {
        let r = &self.rows[i];
        r.d2_ran.then(|| ratio(r.d2_log_bytes, r.d2_stored))
    }

    /// DEBAR dedup-2 cumulative compression over processed log bytes.
    pub fn d2_cum_ratio(&self, i: usize) -> f64 {
        ratio(
            self.rows[..=i].iter().map(|r| r.d2_log_bytes).sum(),
            self.rows[..=i].iter().map(|r| r.d2_stored).sum(),
        )
    }

    /// DEBAR overall cumulative compression (logical / stored).
    pub fn debar_cum_ratio(&self, i: usize) -> f64 {
        ratio(self.cum_logical(i), self.rows[i].debar_stored_cum)
    }

    /// DDFS daily compression ratio.
    pub fn ddfs_daily_ratio(&self, i: usize) -> f64 {
        ratio(self.rows[i].logical, self.rows[i].ddfs_stored)
    }

    /// DDFS cumulative compression ratio.
    pub fn ddfs_cum_ratio(&self, i: usize) -> f64 {
        ratio(self.cum_logical(i), self.rows[i].ddfs_stored_cum)
    }

    /// DEBAR dedup-1 daily throughput (MiB/s).
    pub fn d1_daily_tp(&self, i: usize) -> f64 {
        mibps(self.rows[i].logical, self.rows[i].d1_wall)
    }

    /// DEBAR dedup-1 cumulative throughput.
    pub fn d1_cum_tp(&self, i: usize) -> f64 {
        mibps(
            self.cum_logical(i),
            self.rows[..=i].iter().map(|r| r.d1_wall).sum(),
        )
    }

    /// DEBAR dedup-2 daily throughput over its processed log bytes.
    pub fn d2_daily_tp(&self, i: usize) -> Option<f64> {
        let r = &self.rows[i];
        r.d2_ran.then(|| mibps(r.d2_log_bytes, r.d2_wall))
    }

    /// DEBAR dedup-2 cumulative throughput.
    pub fn d2_cum_tp(&self, i: usize) -> f64 {
        mibps(
            self.rows[..=i].iter().map(|r| r.d2_log_bytes).sum(),
            self.rows[..=i].iter().map(|r| r.d2_wall).sum(),
        )
    }

    /// DEBAR total cumulative throughput: logical bytes over dedup-1 +
    /// dedup-2 time (the paper's "overall DEBAR cumulative throughput").
    pub fn debar_total_cum_tp(&self, i: usize) -> f64 {
        let time: Secs = self.rows[..=i].iter().map(|r| r.d1_wall + r.d2_wall).sum();
        mibps(self.cum_logical(i), time)
    }

    /// DDFS daily throughput.
    pub fn ddfs_daily_tp(&self, i: usize) -> f64 {
        mibps(self.rows[i].logical, self.rows[i].ddfs_wall)
    }

    /// DDFS cumulative throughput.
    pub fn ddfs_cum_tp(&self, i: usize) -> f64 {
        mibps(
            self.cum_logical(i),
            self.rows[..=i].iter().map(|r| r.ddfs_wall).sum(),
        )
    }

    /// Last day index.
    pub fn last(&self) -> usize {
        self.rows.len() - 1
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        f64::INFINITY
    } else {
        num as f64 / den as f64
    }
}

/// The month Figures 6-9 are drawn from, DDFS baseline included, at the
/// scale the command line asks for ([`crate::args`]: `n` is the scale
/// denominator, 16x deeper in a smoke run). Returns the denominator too.
pub fn run_month_from_args() -> (u64, MonthReport) {
    let full = MonthConfig::default().denom;
    let (denom, _) = crate::args(full, 16 * full);
    eprintln!("running the HUSt month at scale 1/{denom} (DEBAR + DDFS)...");
    let cfg = MonthConfig {
        denom,
        ..MonthConfig::default()
    };
    (denom, run_month(cfg))
}

/// Run the month experiment.
pub fn run_month(cfg: MonthConfig) -> MonthReport {
    let hust = HustConfig {
        clients: cfg.clients,
        days: cfg.days,
        scale: debar_simio::ScaleModel::new(cfg.denom),
        ..HustConfig::default()
    };
    let mut debar_cfg = DebarConfig::single_server_scaled(cfg.denom);
    // Trigger dedup-2 when the index cache would be full (the paper: "to
    // fully utilize the index cache, DEBAR usually provides synchronous
    // lookups for more than one job").
    debar_cfg.dedup2_trigger_fps = debar_cfg.cache_fps();
    let mut debar = DebarCluster::new(debar_cfg);
    let jobs = crate::client_jobs(&mut debar, cfg.clients);

    let mut ddfs = cfg
        .run_ddfs
        .then(|| DdfsServer::new(DdfsConfig::paper_scaled(cfg.denom)));

    let mut report = MonthReport::default();
    for day in HustGen::new(hust) {
        let mut row = DayRow {
            day: day.day,
            ..DayRow::default()
        };
        // --- DEBAR dedup-1: one job per client. ---
        let t0 = debar.align_clocks();
        for (i, stream) in day.per_client.iter().enumerate() {
            let job = if cfg.disable_prelim_filter {
                debar.define_job(format!("hust-node-{i}-day-{}", day.day), ClientId(i as u32))
            } else {
                jobs[i]
            };
            let rep = debar
                .backup(job, &Dataset::from_records("daily", stream.clone()))
                .expect("backup");
            row.logical += rep.logical_bytes;
            row.transferred += rep.transferred_bytes;
        }
        row.d1_wall = debar.align_clocks() - t0;
        // --- DEBAR dedup-2 when the director's trigger fires. ---
        if debar.should_run_dedup2() || day.day == cfg.days {
            let d2 = debar.run_dedup2().expect("dedup2");
            row.d2_ran = true;
            row.d2_log_bytes = d2.store.log_bytes;
            row.d2_stored = d2.store.stored_bytes;
            row.d2_wall = d2.total_wall();
            report.dedup2_days.push(day.day);
        }
        row.debar_stored_cum = debar.repository().stats().data_bytes;
        // --- DDFS: the same streams through the baseline. ---
        if let Some(ddfs) = ddfs.as_mut() {
            let before = ddfs.stats().stored_bytes;
            let t0 = ddfs.now();
            for stream in &day.per_client {
                ddfs.backup_stream(stream).expect("backup");
            }
            row.ddfs_wall = ddfs.now() - t0;
            row.ddfs_stored = ddfs.stats().stored_bytes - before;
            row.ddfs_stored_cum = ddfs.stats().stored_bytes;
        }
        report.rows.push(row);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> MonthConfig {
        MonthConfig {
            denom: 16384,
            days: 6,
            clients: 4,
            ..MonthConfig::default()
        }
    }

    #[test]
    fn month_runs_and_accounts() {
        let r = run_month(tiny());
        assert_eq!(r.rows.len(), 6);
        let last = r.last();
        assert!(r.cum_logical(last) > 0);
        // Dedup-2 ran at least once (forced on the final day).
        assert!(!r.dedup2_days.is_empty());
        // DEBAR and DDFS converge to similar stored bytes (same dedup
        // domain); allow slack for DDFS's duplicated-store corner cases.
        let debar = r.rows[last].debar_stored_cum as f64;
        let ddfs = r.rows[last].ddfs_stored_cum as f64;
        assert!(debar > 0.0 && ddfs > 0.0);
        assert!(
            (debar - ddfs).abs() / debar < 0.1,
            "debar {debar} vs ddfs {ddfs}"
        );
    }

    #[test]
    fn compression_ratios_ordered() {
        let r = run_month(tiny());
        let last = r.last();
        // Overall ≈ d1 × d2: overall must exceed either stage alone.
        let overall = r.debar_cum_ratio(last);
        let d1 = r.d1_cum_ratio(last);
        assert!(overall >= d1, "overall {overall} < d1 {d1}");
        assert!(overall > 1.5, "no compression achieved: {overall}");
    }

    #[test]
    fn throughputs_positive_and_bounded() {
        let r = run_month(tiny());
        let last = r.last();
        let d1 = r.d1_cum_tp(last);
        let total = r.debar_total_cum_tp(last);
        let ddfs = r.ddfs_cum_tp(last);
        assert!(d1 > 0.0 && total > 0.0 && ddfs > 0.0);
        assert!(total <= d1, "total includes dedup-2 time");
        // DDFS is NIC-bound: can never exceed 210 MiB/s.
        assert!(ddfs <= 211.0, "ddfs {ddfs}");
    }
}
