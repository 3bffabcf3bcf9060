//! The four workload scripts at a sixteenth of their size, the seed contract,
//! and the agreement between the package and `BENCHMARK.json`.

use debar_benchmark::compare::{self, Verdict};
use debar_benchmark::json::Json;
use debar_benchmark::metrics;
use debar_benchmark::run::{self, Budget, Outcome, DEFAULT_SEED};
use debar_benchmark::sut::Inputs;
use debar_benchmark::workloads::{self, Workload};

fn results_file(o: &Outcome) -> Json {
    Json::obj([("workloads", Json::obj([(o.workload, run::outcome_json(o))]))])
}

fn assert_clean(o: &Outcome) {
    assert!(o.correct(), "{}: {:?}", o.workload, o.failures);
    assert!(o.attempted > 0 && o.failed == 0);
    let names: Vec<&str> = o.end_to_end.iter().map(|v| v.name.as_str()).collect();
    let catalogue = metrics::end_to_end();
    assert_eq!(
        names,
        catalogue
            .iter()
            .map(|d| d.name.as_str())
            .collect::<Vec<_>>()
    );
    for v in &o.end_to_end {
        assert!(
            v.value.is_finite() && v.value > 0.0,
            "{} {} = {}",
            o.workload,
            v.name,
            v.value
        );
    }
}

/// Two measured reps and the traced ones: every output check passes, the reps
/// agree on every simulated number (`run_workload` counts a disagreement as a
/// failure), and every catalogue metric is reported.
fn traced_tiny_run(w: &Workload) {
    let o = run::run_workload(&w.tiny(), DEFAULT_SEED, Budget::Reps(2), true).unwrap();
    assert_clean(&o);
    assert_eq!(o.reps, 2);

    let layer = o
        .per_layer
        .as_ref()
        .expect("a traced run reports per-layer metrics");
    let catalogue = metrics::per_layer();
    assert_eq!(layer.len(), catalogue.len());
    for (v, def) in layer.iter().zip(&catalogue) {
        assert_eq!(v.name, def.name);
        assert!(
            v.value.is_finite(),
            "{} {} = {}",
            o.workload,
            v.name,
            v.value
        );
    }
    let value = |name: &str| layer.iter().find(|v| v.name == name).unwrap().value;
    assert!(value("trace.op_span_share") > 0.5);
    assert_eq!(
        value("core.cluster.run_dedup2.calls"),
        value("core.cluster.d2.rounds")
    );
    assert!(value("core.cluster.backup_prepared.allocs") > 0.0);
    assert!(
        value("core.gc.dead_fps") > 0.0,
        "retention expires something to collect"
    );
    if w.gc_every == 0 {
        assert_eq!(value("store.unique_excess_share"), 0.0);
        assert_eq!(value("core.gc.run_gc.calls"), 1.0);
    } else {
        assert!(value("core.gc.run_gc.calls") > 1.0);
    }
    // Only a workload of real bytes reaches the chunker and the hash.
    let real_bytes = w.name == "filetree-bytes";
    assert_eq!(value("chunk.cdc.host_mibps") > 0.0, real_bytes);
    assert_eq!(value("hash.sha1.host_mibps") > 0.0, real_bytes);
    assert_eq!(
        value("core.cluster.d2.exchange_sim_s") > 0.0,
        w.cluster.servers_log2 > 0
    );

    // Spans nest under setup / ingest / restore / maintain and carry the rep.
    assert!(!o.spans.is_empty());
    for s in &o.spans {
        assert!(s.end_ns >= s.start_ns && s.rep == 3);
        assert_eq!(
            s.parent == 0,
            ["setup", "ingest", "restore", "maintain"].contains(&s.name)
        );
    }

    let paper_errs = o
        .info
        .iter()
        .filter(|v| v.name.starts_with("paper_err."))
        .count();
    assert_eq!(paper_errs, if w.paper_month { 3 } else { 0 });

    // The driver's line: exactly four keys, the per-layer metrics when traced.
    let line = Json::parse(&run::driver_line(&o)).unwrap();
    let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(line.get("metrics").unwrap().fields().len(), catalogue.len());

    // A run compared with itself: simulated numbers and counters the same to
    // the bit, host metrics the same or — two reps apart — unresolved.
    let file = results_file(&o);
    let reread = Json::parse(&file.emit_pretty()).unwrap();
    assert_eq!(reread, file);
    let rows = compare::compare(&file, &reread, true).unwrap();
    assert!(
        rows.iter()
            .all(|r| matches!(r.verdict, Verdict::Same | Verdict::Unresolved)),
        "{rows:?}"
    );
    assert!(rows
        .iter()
        .filter(|r| r.metric.starts_with("sim_"))
        .all(|r| r.verdict == Verdict::Same));
}

#[test]
fn month_records_script() {
    traced_tiny_run(&workloads::ALL[0]);
}

#[test]
fn filetree_bytes_script() {
    traced_tiny_run(&workloads::ALL[1]);
}

#[test]
fn cluster_multistream_script() {
    traced_tiny_run(&workloads::ALL[2]);
}

#[test]
fn lifecycle_churn_script() {
    traced_tiny_run(&workloads::ALL[3]);
}

#[test]
fn a_second_seed_runs_clean() {
    for w in &workloads::ALL {
        let o = run::run_workload(&w.tiny(), DEFAULT_SEED + 1, Budget::Reps(1), false).unwrap();
        assert_clean(&o);
        assert!(o.per_layer.is_none());
        let line = Json::parse(&run::driver_line(&o)).unwrap();
        assert_eq!(line.get("metrics").unwrap().fields().len(), 12);
    }
}

#[test]
fn seed_changes_inputs_and_default_seed_reproduces_them() {
    for w in &workloads::ALL {
        let spec = w.tiny().input;
        let a = Inputs::generate(&spec, DEFAULT_SEED);
        let b = Inputs::generate(&spec, DEFAULT_SEED);
        let c = Inputs::generate(&spec, DEFAULT_SEED + 1);
        assert_eq!(a.digest(), b.digest(), "{}: one seed, two inputs", w.name);
        assert_ne!(a.digest(), c.digest(), "{}: two seeds, one input", w.name);
        assert_eq!((a.jobs(), a.generations()), (c.jobs(), c.generations()));
    }
}

#[test]
fn benchmark_json_repeats_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 << 10);
    let file = Json::parse(&text).unwrap();
    assert_eq!(
        file,
        debar_benchmark::cli::manifest(),
        "regenerate with the `manifest` subcommand"
    );
    let keys: Vec<&str> = file.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let paths: Vec<&str> = file
        .get("paths")
        .unwrap()
        .items()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(paths, ["benchmark"]);
    let seconds = file.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);

    let listed: Vec<(&str, &str)> = file
        .get("workloads")
        .unwrap()
        .items()
        .iter()
        .map(|w| {
            (
                w.get("name").and_then(Json::as_str).unwrap(),
                w.get("why").and_then(Json::as_str).unwrap(),
            )
        })
        .collect();
    let ours: Vec<(&str, &str)> = workloads::ALL.iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(listed, ours);

    for (section, catalogue) in [
        ("end_to_end", metrics::end_to_end()),
        ("per_layer", metrics::per_layer()),
    ] {
        let entries = file.get(section).unwrap().items();
        assert_eq!(entries.len(), catalogue.len(), "{section}");
        for (entry, def) in entries.iter().zip(&catalogue) {
            assert_eq!(
                entry.get("name").and_then(Json::as_str),
                Some(def.name.as_str())
            );
            assert_eq!(
                entry.get("unit").and_then(Json::as_str),
                Some(def.unit),
                "{}",
                def.name
            );
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(def.better.as_str()),
                "{}",
                def.name
            );
            assert_eq!(
                entry.get("bound").and_then(Json::as_f64),
                def.bound,
                "{}",
                def.name
            );
            assert_eq!(
                entry.fields().len(),
                if def.bound.is_some() { 4 } else { 3 }
            );
        }
    }
}
