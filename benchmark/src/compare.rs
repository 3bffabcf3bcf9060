//! `compare A.json B.json`: B against A, one row per workload and end-to-end
//! metric, each judged by the metric's own direction and bound.

use crate::json::Json;
use crate::metrics::{self, Better, Clock, MetricDef};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    /// The run-to-run spread of either side is wider than the bound, so the
    /// two medians cannot be told apart at that resolution.
    Unresolved,
    /// A simulated number differs between two runs of one commit and seed.
    Nondeterministic,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Nondeterministic => "NONDETERMINISTIC",
        }
    }

    /// Whether this verdict makes `compare` exit non-zero.
    pub fn fails(self) -> bool {
        matches!(self, Verdict::Worse | Verdict::Nondeterministic)
    }
}

/// One side's reading of a metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub iqr: f64,
}

/// Judge B against A.
///
/// `same_seed`: both runs read the same inputs, so simulated metrics are held
/// to [`metrics::SIM_SAME_SEED_BOUND`] instead of the cross-seed bound of the
/// catalogue. `same_commit` on top of that turns any difference in a
/// simulated metric into nondeterminism.
pub fn judge(
    def: &MetricDef,
    a: Reading,
    b: Reading,
    same_seed: bool,
    same_commit: bool,
) -> Verdict {
    let sim = def.clock == Clock::Sim;
    if same_commit && sim {
        return if a.value.to_bits() == b.value.to_bits() {
            Verdict::Same
        } else {
            Verdict::Nondeterministic
        };
    }
    let bound = match def.bound {
        Some(b) if sim && same_seed => b.min(metrics::SIM_SAME_SEED_BOUND),
        Some(b) => b,
        None => 0.0,
    };
    let spread = |r: Reading| {
        if r.value != 0.0 {
            r.iqr / r.value.abs()
        } else {
            0.0
        }
    };
    if spread(a).max(spread(b)) > bound {
        return Verdict::Unresolved;
    }
    let worse_by = match def.better {
        Better::Lower => (b.value - a.value) / a.value.abs(),
        Better::Higher => (a.value - b.value) / a.value.abs(),
    };
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn reading(workload: &Json, section: &str, metric: &str) -> Option<Reading> {
    let m = workload.get(section)?.get(metric)?;
    Some(Reading {
        value: m.get("value")?.as_f64()?,
        iqr: m.get("iqr").and_then(Json::as_f64).unwrap_or(0.0),
    })
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    pub verdict: Verdict,
}

/// Compare two results files as `run --out` writes them.
pub fn compare(a: &Json, b: &Json, same_commit: bool) -> Result<Vec<Row>, String> {
    let workloads_a = a
        .get("workloads")
        .ok_or("first file has no \"workloads\"")?;
    let workloads_b = b
        .get("workloads")
        .ok_or("second file has no \"workloads\"")?;
    let mut rows = Vec::new();
    for (name, wa) in workloads_a.fields() {
        let Some(wb) = workloads_b.get(name) else {
            continue;
        };
        let same_seed = wa.get("seed") == wb.get("seed");
        if same_commit && !same_seed {
            return Err(format!(
                "{name}: --same-commit needs both runs to use one seed"
            ));
        }
        for side in [wa, wb] {
            if side.get("failed").and_then(Json::as_f64) != Some(0.0) {
                return Err(format!(
                    "{name}: a run with failed operations cannot be compared"
                ));
            }
        }
        for def in metrics::end_to_end() {
            let (Some(ra), Some(rb)) = (
                reading(wa, "end_to_end", &def.name),
                reading(wb, "end_to_end", &def.name),
            ) else {
                return Err(format!("{name}: {} is missing from a file", def.name));
            };
            rows.push(Row {
                workload: name.clone(),
                metric: def.name.clone(),
                a: ra.value,
                b: rb.value,
                verdict: judge(&def, ra, rb, same_seed, same_commit),
            });
        }
        if !same_commit {
            continue;
        }
        // Counts made by the system itself must repeat as well.
        for def in metrics::per_layer()
            .iter()
            .filter(|d| d.clock == Clock::Sim)
        {
            if let (Some(ra), Some(rb)) = (
                reading(wa, "per_layer", &def.name),
                reading(wb, "per_layer", &def.name),
            ) {
                if ra.value.to_bits() != rb.value.to_bits() {
                    rows.push(Row {
                        workload: name.clone(),
                        metric: def.name.clone(),
                        a: ra.value,
                        b: rb.value,
                        verdict: Verdict::Nondeterministic,
                    });
                }
            }
        }
    }
    if rows.is_empty() {
        return Err("the two files share no workload".to_string());
    }
    Ok(rows)
}

pub fn print_rows(rows: &[Row]) {
    for r in rows {
        let change = if r.a != 0.0 {
            (r.b / r.a - 1.0) * 100.0
        } else {
            0.0
        };
        println!(
            "{} {} {} -> {} ({:+.2}%) {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            change,
            r.verdict.as_str()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> MetricDef {
        metrics::end_to_end()
            .into_iter()
            .find(|d| d.name == name)
            .unwrap()
    }

    fn r(value: f64, iqr: f64) -> Reading {
        Reading { value, iqr }
    }

    #[test]
    fn direction_and_bound_decide_the_verdict() {
        let wall = def("host_wall_s"); // lower is better, bound 0.25
        assert_eq!(
            judge(&wall, r(2.0, 0.01), r(2.4, 0.01), false, false),
            Verdict::Same
        );
        assert_eq!(
            judge(&wall, r(2.0, 0.01), r(2.6, 0.01), false, false),
            Verdict::Worse
        );
        assert_eq!(
            judge(&wall, r(2.0, 0.01), r(1.4, 0.01), false, false),
            Verdict::Better
        );
        let backup = def("sim_backup_mibps"); // higher is better, bound 0.10
        assert_eq!(
            judge(&backup, r(600.0, 0.0), r(500.0, 0.0), false, false),
            Verdict::Worse
        );
        assert_eq!(
            judge(&backup, r(600.0, 0.0), r(700.0, 0.0), false, false),
            Verdict::Better
        );
        assert_eq!(
            judge(&backup, r(600.0, 0.0), r(570.0, 0.0), false, false),
            Verdict::Same
        );
    }

    #[test]
    fn one_seed_holds_simulated_metrics_to_the_tight_bound() {
        let backup = def("sim_backup_mibps");
        assert_eq!(
            judge(&backup, r(600.0, 0.0), r(570.0, 0.0), true, false),
            Verdict::Worse
        );
        assert_eq!(
            judge(&backup, r(600.0, 0.0), r(598.0, 0.0), true, false),
            Verdict::Same
        );
        assert_eq!(
            judge(&backup, r(600.0, 0.0), r(610.0, 0.0), true, false),
            Verdict::Better
        );
        // Host metrics keep their own bound whatever the seeds.
        let wall = def("host_wall_s");
        assert_eq!(
            judge(&wall, r(2.0, 0.0), r(2.2, 0.0), true, false),
            Verdict::Same
        );
    }

    #[test]
    fn wide_spread_is_unresolved_not_same() {
        let wall = def("host_wall_s");
        assert_eq!(
            judge(&wall, r(2.0, 0.9), r(2.0, 0.01), false, false),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&wall, r(2.0, 0.01), r(3.0, 0.9), false, false),
            Verdict::Unresolved
        );
    }

    #[test]
    fn same_commit_flags_any_simulated_difference() {
        let backup = def("sim_backup_mibps");
        let nudged = f64::from_bits(600.0f64.to_bits() + 1);
        assert_eq!(
            judge(&backup, r(600.0, 0.0), r(nudged, 0.0), true, true),
            Verdict::Nondeterministic
        );
        assert_eq!(
            judge(&backup, r(600.0, 0.0), r(600.0, 0.0), true, true),
            Verdict::Same
        );
        assert_eq!(
            judge(&backup, r(600.0, 0.0), r(nudged, 0.0), true, false),
            Verdict::Same
        );
        // Host metrics keep their bound on one commit too.
        let wall = def("host_wall_s");
        assert_eq!(
            judge(&wall, r(2.0, 0.0), r(2.05, 0.0), true, true),
            Verdict::Same
        );
        assert!(Verdict::Nondeterministic.fails() && Verdict::Worse.fails());
        assert!(!Verdict::Unresolved.fails() && !Verdict::Same.fails() && !Verdict::Better.fails());
    }

    fn file(seed: f64, wall: f64, backup: f64, failed: f64) -> Json {
        let metric = |def: &MetricDef| {
            let value = match def.name.as_str() {
                "host_wall_s" => wall,
                "sim_backup_mibps" => backup,
                _ => 1.0,
            };
            (
                def.name.clone(),
                Json::obj([("value", Json::Num(value)), ("iqr", Json::Num(0.0))]),
            )
        };
        Json::obj([(
            "workloads",
            Json::obj([(
                "month-records",
                Json::obj([
                    ("seed", Json::Num(seed)),
                    ("failed", Json::Num(failed)),
                    (
                        "end_to_end",
                        Json::obj(metrics::end_to_end().iter().map(metric)),
                    ),
                ]),
            )]),
        )])
    }

    #[test]
    fn files_compare_row_by_row() {
        let rows = compare(
            &file(1.0, 2.0, 600.0, 0.0),
            &file(1.0, 3.0, 600.0, 0.0),
            false,
        )
        .unwrap();
        assert_eq!(rows.len(), 12);
        let verdict = |metric: &str| rows.iter().find(|r| r.metric == metric).unwrap().verdict;
        assert_eq!(verdict("host_wall_s"), Verdict::Worse);
        assert_eq!(verdict("sim_backup_mibps"), Verdict::Same);
        // One commit, one seed, a simulated number that moved: nondeterminism.
        let rows = compare(
            &file(1.0, 2.0, 600.0, 0.0),
            &file(1.0, 2.0, 601.0, 0.0),
            true,
        )
        .unwrap();
        assert!(rows.iter().any(|r| r.verdict == Verdict::Nondeterministic));
        // Different seeds cannot witness determinism; failed runs compare to nothing.
        assert!(compare(
            &file(1.0, 2.0, 600.0, 0.0),
            &file(2.0, 2.0, 600.0, 0.0),
            true
        )
        .is_err());
        assert!(compare(
            &file(1.0, 2.0, 600.0, 0.0),
            &file(1.0, 2.0, 600.0, 3.0),
            false
        )
        .is_err());
        assert!(compare(
            &Json::obj([("workloads", Json::obj::<&str>([]))]),
            &file(1.0, 2.0, 600.0, 0.0),
            false
        )
        .is_err());
    }
}
