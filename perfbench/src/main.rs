//! The repository benchmark: one command, two workloads, every
//! end-to-end metric by name with its unit, output correctness checked.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end set of `BENCHMARK.json`; with `--trace 1`
//! they are its per-layer set, measured in a separate run whose
//! spans are recorded around calls into each layer from this package's
//! own files. Lines before it carry the run metadata, the span table and,
//! on the runtime workloads, the "paper on hardware" table.

mod explore;
mod layers;
mod rt;
mod sim;
mod stats;
mod timed;

use std::collections::BTreeMap;
use std::process::ExitCode;

use serde::value::Value;
use tokq_obs::json;

use crate::stats::Spans;

/// `BENCHMARK.json`: the one list of the workloads and their metrics.
const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

/// The workload and metric lists read from [`BENCHMARK`].
#[derive(Debug)]
struct Catalogue {
    workloads: Vec<String>,
    /// End-to-end metrics `(name, unit)`, reported by every workload from
    /// its untraced run. An *operation* is one lock acquisition.
    end_to_end: Vec<(String, String)>,
    /// Per-layer metrics `(name, unit)`, reported by every workload from
    /// its traced run; a layer a workload does not exercise reads 0.
    per_layer: Vec<(String, String)>,
}

impl Catalogue {
    fn parse(text: &str) -> Result<Self, String> {
        let doc = json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| -> Result<&[Value], String> {
            doc.get(key)
                .and_then(Value::as_seq)
                .ok_or_else(|| format!("BENCHMARK.json has no `{key}` list"))
        };
        let field = |entry: &Value, key: &str, f: &str| -> Result<String, String> {
            entry
                .get(f)
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("BENCHMARK.json: a `{key}` entry has no `{f}`"))
        };
        let metrics = |key: &str| -> Result<Vec<(String, String)>, String> {
            list(key)?
                .iter()
                .map(|m| Ok((field(m, key, "name")?, field(m, key, "unit")?)))
                .collect()
        };
        Ok(Catalogue {
            workloads: list("workloads")?
                .iter()
                .map(|w| field(w, "workloads", "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Failed correctness checks; empty means the outputs were correct.
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// Metric values by name (end-to-end or per-layer, per `--trace`).
    pub metrics: BTreeMap<String, f64>,
    /// Spans recorded around calls into the program.
    pub spans: Spans,
    /// Extra facts for the metadata line (N, windows, transport, …).
    pub meta: Vec<(String, Value)>,
    /// Human-readable report lines printed before the result.
    pub report: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_owned(), value);
    }

    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    pub fn meta(&mut self, key: &str, value: Value) {
        self.meta.push((key.to_owned(), value));
    }
}

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String], workloads: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                if !workloads.iter().any(|w| w == value) {
                    return Err(format!(
                        "unknown workload `{value}` (one of {})",
                        workloads.join(", ")
                    ));
                }
                workload = Some(value.to_owned());
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run(args: &Args) -> Outcome {
    match args.workload.as_str() {
        "rt_chan" => rt::run(false, args.seed, args.seconds, args.trace),
        "rt_tcp" => rt::run(true, args.seed, args.seconds, args.trace),
        other => unreachable!("workload {other} was validated"),
    }
}

/// Output of a helper command, or `"unknown"` if it cannot run.
fn command_output(program: &str, args: &[&str]) -> String {
    let mut cmd = std::process::Command::new(program);
    cmd.args(args);
    // Keep git from searching above the benchmark's own directory tree.
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(std::path::Path::to_path_buf))
    {
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    match cmd.output() {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout).trim().to_owned(),
        _ => "unknown".to_owned(),
    }
}

fn metadata(args: &Args, outcome: &Outcome) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let mut meta = vec![
        ("workload".to_owned(), Value::Str(args.workload.clone())),
        ("seed".to_owned(), Value::U64(args.seed)),
        ("seconds".to_owned(), Value::F64(args.seconds)),
        ("trace".to_owned(), Value::Bool(args.trace)),
        (
            "git_rev".to_owned(),
            Value::Str(command_output("git", &["rev-parse", "--short=12", "HEAD"])),
        ),
        ("nproc".to_owned(), Value::U64(nproc)),
        (
            "profile".to_owned(),
            Value::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .to_owned(),
            ),
        ),
        (
            "rustc".to_owned(),
            Value::Str(command_output("rustc", &["-V"])),
        ),
    ];
    meta.extend(outcome.meta.iter().cloned());
    Value::Map(vec![("meta".to_owned(), Value::Map(meta))])
}

fn spans_line(spans: &Spans) -> Value {
    let rows = spans
        .iter()
        .map(|(name, agg)| {
            (
                name.clone(),
                Value::Map(vec![
                    ("calls".to_owned(), Value::U64(agg.calls)),
                    ("total_ns".to_owned(), Value::U64(agg.total_ns)),
                    ("mean_ns".to_owned(), Value::F64(agg.mean_ns())),
                    ("max_ns".to_owned(), Value::U64(agg.max_ns)),
                ]),
            )
        })
        .collect();
    Value::Map(vec![("spans".to_owned(), Value::Map(rows))])
}

/// The final result line. Every metric of the selected set is present; a
/// missing one is a bug in the workload and fails the run.
fn result_line(outcome: &mut Outcome, catalogue: &[(String, String)], trace: bool) -> Value {
    let mut metrics = Vec::with_capacity(catalogue.len());
    for (name, unit) in catalogue {
        let value = match outcome.metrics.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => {
                outcome.problems.push(format!("metric {name} is {v}"));
                0.0
            }
            None if trace => 0.0,
            None => {
                outcome
                    .problems
                    .push(format!("metric {name} was not measured"));
                0.0
            }
        };
        metrics.push((
            name.clone(),
            Value::Map(vec![
                ("value".to_owned(), Value::F64(value)),
                ("unit".to_owned(), Value::Str(unit.clone())),
            ]),
        ));
    }
    Value::Map(vec![
        (
            "correct".to_owned(),
            Value::Bool(outcome.problems.is_empty()),
        ),
        ("attempted".to_owned(), Value::U64(outcome.attempted.max(1))),
        ("failed".to_owned(), Value::U64(outcome.failed)),
        ("metrics".to_owned(), Value::Map(metrics)),
    ])
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let parsed =
        Catalogue::parse(BENCHMARK).and_then(|c| Ok((parse_args(&argv, &c.workloads)?, c)));
    let (args, catalogue) = match parsed {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = run(&args);
    println!("{}", json::render(&metadata(&args, &outcome)));
    for line in &outcome.report {
        println!("{line}");
    }
    if args.trace {
        println!("{}", json::render(&spans_line(&outcome.spans)));
    }
    let metrics = if args.trace {
        &catalogue.per_layer
    } else {
        &catalogue.end_to_end
    };
    let result = result_line(&mut outcome, metrics, args.trace);
    for p in &outcome.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    println!("{}", json::render(&result));
    if outcome.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_name;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    fn catalogue() -> Catalogue {
        Catalogue::parse(BENCHMARK).expect("BENCHMARK.json parses")
    }

    #[test]
    fn every_name_and_unit_is_valid_and_unique() {
        let c = catalogue();
        let mut seen = std::collections::BTreeSet::new();
        let names = c
            .end_to_end
            .iter()
            .chain(c.per_layer.iter())
            .map(|(name, unit)| {
                assert!(
                    !unit.is_empty()
                        && unit.len() <= 16
                        && unit
                            .chars()
                            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                    "unit {unit}"
                );
                name
            })
            .chain(c.workloads.iter());
        for name in names {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
    }

    #[test]
    fn args_parse_and_reject() {
        let workloads = catalogue().workloads;
        assert_eq!(
            parse_args(
                &argv("--workload rt_chan --seed 3 --seconds 10 --trace 1"),
                &workloads
            ),
            Ok(Args {
                workload: "rt_chan".into(),
                seed: 3,
                seconds: 10.0,
                trace: true,
            })
        );
        for bad in [
            "--workload nope --seed 3 --seconds 10 --trace 0",
            "--workload rt_chan --seed x --seconds 10 --trace 0",
            "--workload rt_chan --seed 3 --seconds 0 --trace 0",
            "--workload rt_chan --seed 3 --seconds 10 --trace 2",
            "--workload rt_chan --seed 3 --seconds 10",
            "--workload rt_chan --seed 3 --seconds 10 --trace 0 --extra 1",
            "--workload",
        ] {
            assert!(parse_args(&argv(bad), &workloads).is_err(), "{bad}");
        }
    }

    #[test]
    fn result_line_has_every_metric_and_flags_missing_ones() {
        let c = catalogue();
        let mut o = Outcome::default();
        o.set("setup_s", 0.5);
        let v = result_line(&mut o, &c.end_to_end, false);
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(false));
        assert_eq!(o.problems.len(), c.end_to_end.len() - 1);
        let metrics = v.get("metrics").and_then(Value::as_map).expect("metrics");
        assert_eq!(metrics.len(), c.end_to_end.len());

        let mut traced = Outcome::default();
        let v = result_line(&mut traced, &c.per_layer, true);
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true));
        let metrics = v.get("metrics").and_then(Value::as_map).expect("metrics");
        assert_eq!(metrics.len(), c.per_layer.len());
    }
}
