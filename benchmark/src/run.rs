//! One workload, start to finish: a discarded warm-up rep, the measured reps,
//! optionally a few traced reps and the layer replays, then the report.

use crate::json::Json;
use crate::metrics::{self, Clock, MetricDef};
use crate::script::{run_rep, Checker, Rep, RepMode};
use crate::sut::{Inputs, ReplayInputs};
use crate::trace;
use crate::workloads::Workload;
use std::time::Instant;

/// How many measured reps to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    Reps(usize),
    /// Keep measuring for this many seconds, but never fewer than
    /// [`MIN_REPS`] reps.
    Seconds(f64),
}

pub const DEFAULT_REPS: usize = 7;
pub const MIN_REPS: usize = 5;
pub const DEFAULT_SEED: u64 = 1;
/// Each layer replay keeps the fastest of this many passes.
const REPLAY_PASSES: usize = 3;
/// A traced run adds this many traced reps and reports the fastest.
const TRACED_REPS: usize = 3;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Distance between the quartiles over the measured reps (host clock).
    pub iqr: f64,
    /// Reps or samples behind the value.
    pub n: usize,
}

#[derive(Debug)]
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub reps: usize,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub end_to_end: Vec<Value>,
    /// Present after a traced run.
    pub per_layer: Option<Vec<Value>>,
    /// Numbers that gate nothing: the failure count, paper errors.
    pub info: Vec<Value>,
    /// The host-clock metrics rep by rep, in the order measured.
    pub samples: Vec<(&'static str, Vec<f64>)>,
    pub spans: Vec<trace::Span>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Fold one rep's call and check counts into the run's, and check that its
/// simulated numbers equal the reference rep's to the bit.
fn account(total: &mut Checker, rep: &Rep, reference: &Rep, label: &str) {
    total.attempted += rep.checker.attempted;
    total.failed += rep.checker.failed;
    total
        .messages
        .extend(rep.checker.messages.iter().map(|m| format!("{label}: {m}")));
    for ((name, a), (_, b)) in reference.sim.iter().zip(&rep.sim) {
        total.attempted += 1;
        if a.to_bits() != b.to_bits() {
            total.fail(label, &format!("simulated {name} = {b}, first rep had {a}"));
        }
    }
}

/// A host-clock metric over the measured reps: the fastest rep, with the
/// spread of all of them beside it. Whatever else runs on the host only ever
/// slows a rep down, and does so in bursts longer than a run, so the fastest
/// rep repeats from run to run where the median does not (README, "Noise").
fn fastest(def: &MetricDef, samples: &[f64]) -> Value {
    Value {
        name: def.name.clone(),
        unit: def.unit,
        value: samples.iter().copied().fold(f64::INFINITY, f64::min),
        iqr: metrics::iqr(samples),
        n: samples.len(),
    }
}

/// A number read once.
fn single(def: &MetricDef, value: f64) -> Value {
    Value {
        name: def.name.clone(),
        unit: def.unit,
        value,
        iqr: 0.0,
        n: 1,
    }
}

/// Host speed of each layer alone, on this workload's last two generations:
/// work per second of the fastest of a few passes, 0 for a layer the
/// workload's inputs never reach.
fn replays(w: &Workload, seed: u64) -> Result<Vec<(&'static str, f64)>, String> {
    let r = ReplayInputs::new(&w.cluster, &Inputs::generate(&w.input, seed));
    let mut best: Vec<(&'static str, f64)> = Vec::new();
    for _ in 0..REPLAY_PASSES {
        for (i, (name, pass)) in r.passes()?.into_iter().enumerate() {
            let rate = pass.map_or(0.0, |p| p.work / p.secs);
            match best.get_mut(i) {
                Some(slot) => slot.1 = slot.1.max(rate),
                None => best.push((name, rate)),
            }
        }
    }
    Ok(best)
}

/// Per-layer values of a traced run: op spans, the system's own counters, the
/// layer replays and the tracer's cost.
fn per_layer(
    w: &Workload,
    seed: u64,
    traced: &Rep,
    untraced_wall_s: f64,
) -> Result<Vec<Value>, String> {
    let mut values: Vec<(String, f64, usize)> = Vec::new();
    let mut in_ops_s = 0.0;
    for op in metrics::OPS {
        let t = trace::totals(&traced.spans, op);
        in_ops_s += t.host_s;
        let n = t.samples_ms.len();
        values.push((format!("{op}.calls"), t.calls as f64, n));
        values.push((format!("{op}.host_s"), t.host_s, n));
        let p50 = if n > 0 {
            metrics::median(&t.samples_ms)
        } else {
            0.0
        };
        values.push((format!("{op}.host_ms_p50"), p50, n));
        if metrics::OPS_WITH_P90.contains(&op) {
            // Reported only where ten samples lie beyond it; 0 elsewhere.
            let p90 = if metrics::percentile_supported(n, 90) {
                metrics::percentile(&t.samples_ms, 90)
            } else {
                0.0
            };
            values.push((format!("{op}.host_ms_p90"), p90, n));
        }
        values.push((format!("{op}.allocs"), t.allocs as f64, n));
        values.push((
            format!("{op}.alloc_mib"),
            t.alloc_bytes as f64 / (1u64 << 20) as f64,
            n,
        ));
    }
    for (name, _, _) in metrics::REPORT_COUNTERS {
        values.push((name.to_string(), traced.sim_value(name), 1));
    }
    for (name, value) in replays(w, seed)? {
        values.push((name.to_string(), value, REPLAY_PASSES));
    }
    values.push(("workload.generate.host_s".into(), traced.generate_s, 1));
    values.push(("core.cluster.new.host_s".into(), traced.cluster_new_s, 1));
    values.push(("trace.spans".into(), traced.spans.len() as f64, 1));
    values.push((
        "trace.op_span_share".into(),
        in_ops_s / traced.host_wall_s,
        1,
    ));
    values.push((
        "trace.overhead_share".into(),
        traced.host_wall_s / untraced_wall_s - 1.0,
        1,
    ));

    // Emit in catalogue order, and insist the two lists agree.
    metrics::per_layer()
        .into_iter()
        .map(|def| {
            let (_, value, n) = values
                .iter()
                .find(|(name, _, _)| *name == def.name)
                .ok_or_else(|| format!("per-layer metric {} was not measured", def.name))?;
            Ok(Value {
                name: def.name,
                unit: def.unit,
                value: *value,
                iqr: 0.0,
                n: *n,
            })
        })
        .collect()
}

pub fn run_workload(
    w: &Workload,
    seed: u64,
    budget: Budget,
    traced: bool,
) -> Result<Outcome, String> {
    let warm_up = run_rep(w, seed, RepMode::WarmUp, 0, None);
    let distinct = warm_up.distinct_fps;
    // Read after one rep in a fresh process: later reps only add what the
    // allocator fails to reuse, which varies from run to run.
    let peak_rss_mib = crate::host::peak_rss_mib()?;

    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        let done = match budget {
            Budget::Reps(n) => reps.len() >= n,
            Budget::Seconds(s) => reps.len() >= MIN_REPS && started.elapsed().as_secs_f64() >= s,
        };
        if done {
            break;
        }
        reps.push(run_rep(
            w,
            seed,
            RepMode::Measured,
            reps.len() as u32 + 1,
            distinct,
        ));
    }
    let first = reps.first().ok_or("no measured rep was run")?;

    let mut total = Checker::default();
    account(&mut total, &warm_up, first, "warm-up rep");
    for (i, rep) in reps.iter().enumerate() {
        account(&mut total, rep, first, &format!("rep {}", i + 1));
    }

    let samples = |f: fn(&Rep) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
    let wall = samples(|r| r.host_wall_s);
    let cpu = samples(|r| r.host_cpu_s);
    let setup = samples(|r| r.setup_s);

    let mut layer = None;
    let mut spans = Vec::new();
    if traced {
        // The fastest of a few traced reps against the fastest of as many
        // untraced ones, the last measured: the same estimator on the same
        // number of neighbouring reps, so the difference is the tracer.
        let mut best: Option<Rep> = None;
        for _ in 0..TRACED_REPS {
            let rep = run_rep(w, seed, RepMode::Traced, reps.len() as u32 + 1, distinct);
            account(&mut total, &rep, first, "traced rep");
            if best
                .as_ref()
                .is_none_or(|b| rep.host_wall_s < b.host_wall_s)
            {
                best = Some(rep);
            }
        }
        let rep = best.ok_or("no traced rep was run")?;
        let untraced_wall_s = wall
            .iter()
            .rev()
            .take(TRACED_REPS)
            .copied()
            .fold(f64::INFINITY, f64::min);
        layer = Some(per_layer(w, seed, &rep, untraced_wall_s)?);
        spans = rep.spans;
    }

    let mut end_to_end: Vec<Value> = metrics::end_to_end()
        .iter()
        .map(|def| match def.name.as_str() {
            "host_wall_s" => fastest(def, &wall),
            "host_cpu_s" => fastest(def, &cpu),
            "setup_s" => fastest(def, &setup),
            "host_peak_rss_mib" => single(def, peak_rss_mib),
            // Filled in below, once every check has been counted.
            "ok_ops_share" => single(def, 1.0),
            sim => {
                debug_assert_eq!(def.clock, Clock::Sim);
                single(def, first.sim_value(sim))
            }
        })
        .collect();
    for v in &end_to_end {
        total.attempted += 1;
        if !(v.value.is_finite() && v.value > 0.0) {
            total.fail(&v.name, &format!("{} is not a positive number", v.value));
        }
    }
    for v in end_to_end.iter_mut().filter(|v| v.name == "ok_ops_share") {
        v.value = 1.0 - total.failed as f64 / total.attempted as f64;
    }

    let note = |name: &str, unit: &'static str, value: f64| Value {
        name: name.into(),
        unit,
        value,
        iqr: 0.0,
        n: 1,
    };
    let mut info = vec![
        note("ops_attempted", "count", total.attempted as f64),
        note(
            "failed_ops_share",
            "share",
            total.failed as f64 / total.attempted as f64,
        ),
    ];
    // Sizes against the deployment's caches, for the README's table.
    let g = crate::sut::geometry(&w.cluster);
    let per_backup = first.logical_chunks as f64 / first.backups as f64;
    let per_sweep = first.sim_value("core.cluster.d2.submitted_fps")
        / first.sim_value("core.cluster.d2.sil_sweeps");
    info.extend([
        note("size.chunks_per_backup", "count", per_backup),
        note("size.filter_fps", "count", g.filter_fps as f64),
        note("size.index_cache_fps", "count", g.cache_fps as f64),
        note("size.index_part_mib", "MiB", g.index_part_mib),
        note(
            "size.backup_per_filter",
            "ratio",
            per_backup / g.filter_fps as f64,
        ),
        note(
            "size.sil_sweep_per_index_cache",
            "ratio",
            per_sweep / g.cache_fps as f64,
        ),
    ]);
    if w.paper_month {
        // The model has no other validation; these errors are informational.
        for (name, metric, paper) in [
            (
                "paper_err.backup",
                "sim_backup_mibps",
                metrics::PAPER_BACKUP_MIBPS,
            ),
            (
                "paper_err.ingest",
                "sim_ingest_mibps",
                metrics::PAPER_INGEST_MIBPS,
            ),
            (
                "paper_err.dedup2",
                "sim_dedup2_mibps",
                metrics::PAPER_DEDUP2_MIBPS,
            ),
        ] {
            info.push(note(name, "share", first.sim_value(metric) / paper - 1.0));
        }
    }

    Ok(Outcome {
        workload: w.name,
        seed,
        reps: reps.len(),
        attempted: total.attempted,
        failed: total.failed,
        failures: total.messages,
        end_to_end,
        per_layer: layer,
        info,
        samples: vec![
            ("host_wall_s", wall),
            ("host_cpu_s", cpu),
            ("setup_s", setup),
        ],
        spans,
    })
}

/// `workload metric value unit`, one line per metric.
pub fn print_human(o: &Outcome) {
    let line = |v: &Value| {
        let mut s = format!("{} {} {} {}", o.workload, v.name, v.value, v.unit);
        if v.n > 1 && v.iqr > 0.0 {
            s.push_str(&format!(" (iqr {} over {})", v.iqr, v.n));
        }
        println!("{s}");
    };
    o.end_to_end.iter().for_each(line);
    o.info.iter().for_each(line);
    if let Some(layer) = &o.per_layer {
        layer.iter().for_each(line);
    }
    for f in &o.failures {
        println!("{} FAILED {f}", o.workload);
    }
}

fn values_json(values: &[Value]) -> Json {
    Json::obj(values.iter().map(|v| {
        (
            v.name.clone(),
            Json::obj([
                ("value", Json::Num(v.value)),
                ("unit", Json::str(v.unit)),
                ("iqr", Json::Num(v.iqr)),
                ("n", Json::Num(v.n as f64)),
            ]),
        )
    }))
}

/// The workload's entry in a results file.
pub fn outcome_json(o: &Outcome) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut fields = vec![
        ("seed", Json::Num(o.seed as f64)),
        ("reps", Json::Num(o.reps as f64)),
        ("nproc", Json::Num(nproc as f64)),
        ("correct", Json::Bool(o.correct())),
        ("attempted", Json::Num(o.attempted as f64)),
        ("failed", Json::Num(o.failed as f64)),
        ("end_to_end", values_json(&o.end_to_end)),
        ("info", values_json(&o.info)),
        (
            "samples",
            Json::obj(o.samples.iter().map(|(name, values)| {
                (
                    *name,
                    Json::Arr(values.iter().map(|v| Json::Num(*v)).collect()),
                )
            })),
        ),
    ];
    if let Some(layer) = &o.per_layer {
        fields.push(("per_layer", values_json(layer)));
    }
    Json::obj(fields)
}

/// The line the driver reads: end-to-end metrics of an untraced run,
/// per-layer metrics of a traced one.
pub fn driver_line(o: &Outcome) -> String {
    let metrics = o.per_layer.as_ref().unwrap_or(&o.end_to_end);
    Json::obj([
        ("correct", Json::Bool(o.correct())),
        ("attempted", Json::Num(o.attempted as f64)),
        ("failed", Json::Num(o.failed as f64)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|v| {
                (
                    v.name.clone(),
                    Json::obj([("value", Json::Num(v.value)), ("unit", Json::str(v.unit))]),
                )
            })),
        ),
    ])
    .emit()
}
