//! The command line: `run` and `compare`.

use crate::json::Json;
use crate::run::{self, Budget, Outcome};
use crate::{compare, metrics, trace, workloads};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "\
usage:
  debar-benchmark run --workload <name|all> [--seed N] [--reps R | --seconds S]
                      [--trace [0|1]] [--out FILE]
  debar-benchmark compare A.json B.json [--same-commit]
  debar-benchmark manifest

run      measures one workload (or each in its own process) and prints every
         metric as `workload metric value unit`; the last line is the result
         as one JSON object. Writes FILE (default benchmark/out/<name>.json)
         and, traced, <name>.trace.json beside it.
compare  judges B against A per workload and end-to-end metric: same, better,
         worse or unresolved (spread wider than the bound). --same-commit
         reports any difference in a simulated number as nondeterminism.
         Exits non-zero on worse or nondeterministic.
manifest prints BENCHMARK.json as this package defines it; a test holds the
         committed file to it.";

#[derive(Debug, PartialEq)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub budget: Budget,
    pub trace: bool,
    pub out: Option<PathBuf>,
}

#[derive(Debug, PartialEq)]
pub enum Cmd {
    Run(RunArgs),
    Compare {
        a: PathBuf,
        b: PathBuf,
        same_commit: bool,
    },
    Manifest,
}

pub fn parse(args: &[String]) -> Result<Cmd, String> {
    let (sub, rest) = args.split_first().ok_or("no subcommand")?;
    let mut it = rest.iter().peekable();
    match sub.as_str() {
        "run" => {
            let mut workload = None;
            let mut seed = run::DEFAULT_SEED;
            let mut reps = None;
            let mut seconds = None;
            let mut trace = false;
            let mut out = None;
            while let Some(flag) = it.next() {
                let mut value = |what: &str| {
                    it.next()
                        .cloned()
                        .ok_or_else(|| format!("{flag} needs {what}"))
                };
                match flag.as_str() {
                    "--workload" => workload = Some(value("a name")?),
                    "--seed" => {
                        seed = value("a number")?
                            .parse()
                            .map_err(|e| format!("--seed: {e}"))?
                    }
                    "--reps" => {
                        let n: usize = value("a count")?
                            .parse()
                            .map_err(|e| format!("--reps: {e}"))?;
                        if n == 0 {
                            return Err("--reps must be at least 1".into());
                        }
                        reps = Some(n);
                    }
                    "--seconds" => {
                        let s: f64 = value("a duration")?
                            .parse()
                            .map_err(|e| format!("--seconds: {e}"))?;
                        if !(s.is_finite() && s > 0.0) {
                            return Err("--seconds must be positive".into());
                        }
                        seconds = Some(s);
                    }
                    "--out" => out = Some(PathBuf::from(value("a path")?)),
                    // A bare `--trace` turns tracing on; the driver spells it
                    // `--trace 0` or `--trace 1`.
                    "--trace" => {
                        trace = match it.peek().map(|s| s.as_str()) {
                            Some("0") => {
                                it.next();
                                false
                            }
                            Some("1") => {
                                it.next();
                                true
                            }
                            _ => true,
                        }
                    }
                    other => return Err(format!("unknown argument {other}")),
                }
            }
            let budget = match (reps, seconds) {
                (Some(_), Some(_)) => return Err("give --reps or --seconds, not both".into()),
                (Some(n), None) => Budget::Reps(n),
                (None, Some(s)) => Budget::Seconds(s),
                (None, None) => Budget::Reps(run::DEFAULT_REPS),
            };
            Ok(Cmd::Run(RunArgs {
                workload: workload.ok_or("run needs --workload")?,
                seed,
                budget,
                trace,
                out,
            }))
        }
        "compare" => {
            let mut files = Vec::new();
            let mut same_commit = false;
            for arg in it {
                match arg.as_str() {
                    "--same-commit" => same_commit = true,
                    flag if flag.starts_with("--") => {
                        return Err(format!("unknown argument {flag}"))
                    }
                    file => files.push(PathBuf::from(file)),
                }
            }
            let [a, b] = <[PathBuf; 2]>::try_from(files)
                .map_err(|_| "compare needs exactly two files".to_string())?;
            Ok(Cmd::Compare { a, b, same_commit })
        }
        "manifest" if rest.is_empty() => Ok(Cmd::Manifest),
        other => Err(format!("unknown subcommand {other}")),
    }
}

const OUT_DIR: &str = "benchmark/out";

/// How long the driver lets one run measure. With reps of one to two seconds
/// this is ten or so reps; the driver's 92 runs and two builds then take
/// about two thirds of the 3420 s it allows.
const RUN_SECONDS: u32 = 16;

/// `BENCHMARK.json`: the command the driver runs and the catalogue it checks.
pub fn manifest() -> Json {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(s)).collect());
    let metric = |def: metrics::MetricDef| {
        let mut fields = vec![
            ("name", Json::Str(def.name)),
            ("unit", Json::str(def.unit)),
            ("better", Json::str(def.better.as_str())),
        ];
        if let Some(bound) = def.bound {
            fields.push(("bound", Json::Num(bound)));
        }
        Json::obj(fields)
    };
    Json::obj([
        (
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
                "run",
            ]),
        ),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                workloads::ALL
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(metrics::end_to_end().into_iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(metrics::per_layer().into_iter().map(metric).collect()),
        ),
    ])
}

fn write_file(path: &Path, json: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, json.emit_pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_file(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn results_file(workloads: Vec<(String, Json)>) -> Json {
    Json::obj([
        ("schema", Json::Num(1.0)),
        ("workloads", Json::Obj(workloads)),
    ])
}

fn run_one(args: &RunArgs) -> Result<Outcome, String> {
    let w = workloads::by_name(&args.workload).ok_or_else(|| {
        let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
        format!(
            "unknown workload {}; choose from {} or all",
            args.workload,
            names.join(", ")
        )
    })?;
    // Best effort: an unpinned run is a noisier run, not a wrong one.
    if let Err(e) = crate::host::pin_to_current_cpu() {
        eprintln!("warning: not pinned to one CPU: {e}");
    }
    let outcome = run::run_workload(&w, args.seed, args.budget, args.trace)?;
    run::print_human(&outcome);
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| Path::new(OUT_DIR).join(format!("{}.json", w.name)));
    write_file(
        &out,
        &results_file(vec![(w.name.to_string(), run::outcome_json(&outcome))]),
    )?;
    if args.trace {
        let path = out.with_file_name(format!("{}.trace.json", w.name));
        write_file(&path, &trace::to_json(w.name, args.seed, &outcome.spans))?;
    }
    println!("{}", run::driver_line(&outcome));
    Ok(outcome)
}

/// Each workload in a process of its own, so one's peak memory and allocator
/// state never reach the next; then one combined results file.
fn run_all(args: &RunArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| Path::new(OUT_DIR).join("all.json"));
    let mut merged = Vec::new();
    let mut all_correct = true;
    for w in &workloads::ALL {
        let part = out.with_file_name(format!("{}.json", w.name));
        let mut cmd = Command::new(&exe);
        cmd.args([
            "run",
            "--workload",
            w.name,
            "--seed",
            &args.seed.to_string(),
        ]);
        match args.budget {
            Budget::Reps(n) => cmd.args(["--reps", &n.to_string()]),
            Budget::Seconds(s) => cmd.args(["--seconds", &s.to_string()]),
        };
        if args.trace {
            cmd.arg("--trace");
        }
        cmd.arg("--out").arg(&part);
        // `status` waits for the child to end.
        let status = cmd
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        all_correct &= status.success();
        let file = read_file(&part)?;
        let entry = file
            .get("workloads")
            .and_then(|ws| ws.get(w.name))
            .ok_or_else(|| format!("{}: no entry for {}", part.display(), w.name))?;
        merged.push((w.name.to_string(), entry.clone()));
    }
    write_file(&out, &results_file(merged))?;
    Ok(all_correct)
}

pub fn main(args: Vec<String>) -> ExitCode {
    let outcome = match parse(&args) {
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
        Ok(Cmd::Manifest) => {
            print!("{}", manifest().emit_pretty());
            Ok(true)
        }
        Ok(Cmd::Run(args)) if args.workload == "all" => run_all(&args),
        Ok(Cmd::Run(args)) => run_one(&args).map(|o| o.correct()),
        Ok(Cmd::Compare { a, b, same_commit }) => read_file(&a)
            .and_then(|a| Ok((a, read_file(&b)?)))
            .and_then(|(a, b)| compare::compare(&a, &b, same_commit))
            .map(|rows| {
                compare::print_rows(&rows);
                !rows.iter().any(|r| r.verdict.fails())
            }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_spelling_parses() {
        let cmd = parse(&args(
            "run --workload month-records --seed 7 --seconds 14 --trace 0",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Cmd::Run(RunArgs {
                workload: "month-records".into(),
                seed: 7,
                budget: Budget::Seconds(14.0),
                trace: false,
                out: None,
            })
        );
        let Cmd::Run(traced) = parse(&args("run --workload x --trace 1 --seed 2")).unwrap() else {
            panic!("not a run");
        };
        assert!(traced.trace && traced.seed == 2);
    }

    #[test]
    fn bare_trace_flag_and_defaults() {
        let Cmd::Run(a) = parse(&args("run --trace --workload all --out x/y.json")).unwrap() else {
            panic!("not a run");
        };
        assert!(a.trace);
        assert_eq!(a.seed, run::DEFAULT_SEED);
        assert_eq!(a.budget, Budget::Reps(run::DEFAULT_REPS));
        assert_eq!(a.out, Some(PathBuf::from("x/y.json")));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "",
            "run",
            "run --workload",
            "run --workload x --reps 0",
            "run --workload x --reps 3 --seconds 2",
            "run --workload x --seconds -1",
            "run --workload x --seed many",
            "run --workload x --frobnicate",
            "compare a.json",
            "compare a.json b.json c.json",
            "compare a.json b.json --loud",
            "manifest now",
            "measure",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} parsed");
        }
        assert_eq!(
            parse(&args("compare a.json --same-commit b.json")).unwrap(),
            Cmd::Compare {
                a: "a.json".into(),
                b: "b.json".into(),
                same_commit: true
            }
        );
    }
}
