//! The LASER reproduction's benchmark: end-to-end host time of the paper's
//! figure job (cold and warm cell cache) and of inline detect and repair
//! sessions, plus a traced replay that splits the time by layer.
//!
//! ```text
//! perfbench --workload <figures_cold|figures_warm|session_detect|session_repair>
//!           --seed N --seconds S --trace 0|1
//!           [--experiments PATH] [--work-dir DIR]
//! ```
//!
//! Passes of the workload's fixed job repeat for `--seconds`; the last
//! stdout line is one JSON object with the end-to-end metrics (`--trace 0`)
//! or the per-layer metrics (`--trace 1`). Every output is checked, and any
//! failed check makes the exit code non-zero. See `README.md` beside this
//! crate for the workloads and metrics.

mod figures;
mod metrics;
mod probe;
mod session;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use serde::json::Value;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Cli {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    experiments: Option<PathBuf>,
    work_dir: PathBuf,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        experiments: None,
        work_dir: PathBuf::from(".perfbench_work"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => cli.workload = value.to_string(),
            "--seed" => cli.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                cli.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                cli.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                }
            }
            "--experiments" => cli.experiments = Some(PathBuf::from(value)),
            "--work-dir" => cli.work_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !workloads::NAMES.contains(&cli.workload.as_str()) {
        return Err(format!(
            "unknown workload '{}' (one of {})",
            cli.workload,
            workloads::NAMES.join(", ")
        ));
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let result = match workloads::run(&cli) {
        Ok(result) => result,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::FAILURE;
        }
    };
    for line in &result.report {
        println!("{line}");
    }
    for problem in &result.problems {
        println!("FAILED CHECK: {problem}");
    }
    println!("{}", result.to_json().render());
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What a run prints: human-readable report lines, then the result object.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Report lines printed before the result object.
    pub report: Vec<String>,
    /// Operations attempted: sessions run, or grid cells served, plus every
    /// output check.
    pub attempted: u64,
    /// Descriptions of the operations and checks that failed.
    pub problems: Vec<String>,
    /// The metrics of the result object, in declaration order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunResult {
    fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    fn to_json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .fold(Value::object(), |obj, (name, value, unit)| {
                obj.set(
                    name,
                    Value::object().set("value", *value).set("unit", *unit),
                )
            });
        Value::object()
            .set("correct", self.correct())
            .set("attempted", self.attempted.max(1))
            .set("failed", self.problems.len() as u64)
            .set("metrics", metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_driver_command_line_parses() {
        let cli = parse(&args(&[
            "--workload",
            "session_detect",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(cli.workload, "session_detect");
        assert_eq!(cli.seed, 7);
        assert_eq!(cli.seconds, 10.0);
        assert!(cli.trace);
    }

    #[test]
    fn bad_command_lines_are_rejected() {
        for bad in [
            &["--workload", "nope"][..],
            &["--workload", "figures_cold", "--trace", "2"],
            &["--workload", "figures_cold", "--seconds", "0"],
            &["--workload", "figures_cold", "--seed"],
            &["--workload", "figures_cold", "--colour", "red"],
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn result_object_has_exactly_the_contract_keys() {
        let result = RunResult {
            attempted: 3,
            problems: vec!["mismatch".to_string()],
            metrics: vec![("wall_s", 1.25, "s")],
            ..RunResult::default()
        };
        let json = Value::parse(&result.to_json().render()).unwrap();
        let Value::Object(pairs) = &json else {
            panic!("not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(json.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(json.get("failed"), Some(&Value::Int(1)));
        let wall = json.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(wall.get("value"), Some(&Value::Float(1.25)));
        assert_eq!(wall.get("unit"), Some(&Value::Str("s".to_string())));
    }
}
