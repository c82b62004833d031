//! The run specification: every knob a run takes, declared once.
//!
//! A [`RunSpec`] says what a campaign, a figure run, a scenario or a
//! throughput sweep runs: the cells, the workload scale, the per-cell
//! budget, the pipeline deployment, the topology, and the host-side
//! settings (worker threads, output format, cell cache). [`KNOBS`] gives
//! each knob one row — its scenario-file key, its flag on each command-line
//! front end, its argument shape, one validator and one usage line — and
//! every front end parses through that table:
//!
//! - a scenario file ([`RunSpec::parse`]) is the spec's JSON form;
//! - `experiments` flags and `bench_throughput`'s run flags
//!   ([`RunSpec::from_args`]) are sugar that builds the same spec;
//! - `--help` is rendered from the table ([`RunSpec::usage`]).
//!
//! A value is therefore accepted or rejected identically everywhere, with
//! the same message naming the knob as the user spelled it. Below the
//! front ends a spec lowers onto cells in one place
//! ([`RunSpec::campaign`]), and the cell cache fingerprints exactly what a
//! tool receives, so a knob cannot reach a cell without reaching its cache
//! key; the fingerprint test walks this table to prove it.
//!
//! ```json
//! {
//!   "name": "nightly-xsocket",
//!   "scale": 0.4,
//!   "threads": 4,
//!   "budget_steps": 40000000,
//!   "pipeline": true,
//!   "driver_lag_quanta": 1,
//!   "format": "json",
//!   "cells": [
//!     {"workload": "histogram'", "tool": "laser", "topology": "8s"}
//!   ],
//!   "sweeps": [
//!     {"kind": "xsocket"},
//!     {"kind": "grid",
//!      "workloads": ["histogram'", "swaptions"],
//!      "tools": ["native", "laser-detect"],
//!      "topologies": ["flat", "2s"]}
//!   ]
//! }
//! ```
//!
//! Parsing is fail-fast: unknown keys or flags, unknown workload/tool/
//! topology names, malformed numbers and an empty cell set are rejected
//! before anything simulates, and the binaries turn a [`SpecError`] into
//! exit code 2. A scenario's cells ([`RunSpec::plan`]) deduplicate in sorted
//! grid order, so its aggregated result is byte-identical however its cells
//! were spelled.

use std::collections::BTreeSet;
use std::sync::Arc;

use laser_core::{CellBudget, PipelineConfig, TopologySpec};
use laser_workloads::registry;
use serde::json::Value;

use crate::campaign::{validate_workload_names, Campaign};
use crate::runner::ExperimentScale;
use crate::tool::{valid_sav, ToolSpec};
use crate::topofile::CustomTopology;
use crate::xsocket::XSOCKET_WORKLOADS;

/// A run specification could not be parsed or validated. The message names
/// the offending knob; the binaries print it and exit 2 before simulating.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid run spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

/// Upper bound on the driver lag: the session keeps one in-flight charge
/// ledger per quantum of lag and sizes its job channel to match, so
/// anything past this is almost certainly a typo rather than a deployment.
pub const MAX_DRIVER_LAG: u64 = 1024;

fn err<T>(message: impl Into<String>) -> Result<T, SpecError> {
    Err(SpecError(message.into()))
}

/// Aggregate output format: the stdout format of `experiments`, and the
/// document a scenario appends after its streamed per-cell lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregateFormat {
    /// The text tables.
    Text,
    /// JSON documents (see [`crate::emit::Emit`]).
    Json,
    /// CSV tables.
    Csv,
}

impl AggregateFormat {
    /// The stable spelling used in scenario files and on the command line.
    pub fn key(&self) -> &'static str {
        match self {
            AggregateFormat::Text => "text",
            AggregateFormat::Json => "json",
            AggregateFormat::Csv => "csv",
        }
    }
}

/// A named sweep inside a scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum Sweep {
    /// The cross-socket sweep: the named workloads (default: the headline
    /// false-sharing set) under native, LASERDETECT and LASER on every
    /// preset topology — the scenario-file spelling of `experiments
    /// xsocket`.
    Xsocket {
        /// Workloads to sweep; `None` means [`XSOCKET_WORKLOADS`].
        workloads: Option<Vec<String>>,
    },
    /// An explicit cross product of workloads × tools × topologies; an
    /// explicitly named cell is the one-workload, one-tool, one-topology
    /// grid.
    Grid {
        /// Workload names (validated against the registry).
        workloads: Vec<String>,
        /// Tool keys (see [`ToolSpec::parse`]).
        tools: Vec<ToolSpec>,
        /// Topology presets; an absent `topologies` key means `[flat]`.
        topologies: Vec<TopologySpec>,
    },
}

/// A parsed, validated run specification. Each field is one [`KNOBS`] row;
/// `None` leaves the front end's default in place.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunSpec {
    /// Scenario name, echoed in every streamed result line.
    pub name: String,
    /// Workload input-scale multiplier.
    pub scale: Option<f64>,
    /// Campaign worker threads; `None` means one per available core.
    pub threads: Option<usize>,
    /// Per-cell step budget; `None` means unlimited.
    pub budget_steps: Option<u64>,
    /// Whether cells deploy the pipelined (stage-on-a-worker) session.
    pub pipeline: bool,
    /// Charge-back lag of the driver stage in quanta; `Some(n)` implies
    /// `pipeline`. Lag 0 keeps pipelined cells byte-identical to inline;
    /// lag >= 1 is run-to-run deterministic but not inline-identical — the
    /// cell cache keys on the lag, so lagged and inline results never alias.
    pub driver_lag: Option<usize>,
    /// Output format (`experiments`) or aggregate document (scenario).
    pub format: Option<AggregateFormat>,
    /// Bespoke topology every cell deploys on instead of a preset. Mutually
    /// exclusive with a non-flat preset axis: the override is run-wide, so a
    /// preset underneath it would only produce colliding cell keys.
    pub custom_topology: Option<CustomTopology>,
    /// The presets the run deploys on: one for `experiments --topology`,
    /// a list for `bench_throughput --topologies`; empty means flat.
    pub topologies: Vec<TopologySpec>,
    /// The workloads to run, as given; `None` means the suite. A campaign
    /// runs them in registry order, a throughput sweep in this order.
    pub workloads: Option<Vec<String>>,
    /// PEBS Sample-After-Value of a throughput sweep's sessions.
    pub sav: Option<u32>,
    /// Persistent cell-cache directory.
    pub cache: Option<String>,
    /// Where to write cache statistics as JSON (requires `cache`).
    pub cache_stats: Option<String>,
    /// Scenario files' sweeps, explicit `cells` included.
    pub sweeps: Vec<Sweep>,
}

/// A command-line front end that parses flags through [`KNOBS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Front {
    /// The `experiments` driver.
    Experiments,
    /// The `bench_throughput` harness.
    Bench,
}

/// How a knob's command-line argument becomes the JSON value its validator
/// checks, so a flag and a scenario key share one validator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arg {
    /// No command-line form (scenario files only).
    None,
    /// A bare flag: `true`.
    Switch,
    /// A number (anything `f64` parses, `nan` and `inf` included, so the
    /// validator is the one to reject them).
    Number(&'static str),
    /// An integer; anything else reaches the validator as a string.
    Int(&'static str),
    /// A word.
    Word(&'static str),
    /// A comma-separated list of words.
    List(&'static str),
    /// A file holding the knob's JSON value.
    File(&'static str),
}

type Apply = fn(&mut RunSpec, &Value, &str) -> Result<(), String>;

/// Which `experiments` subcommands take a knob's flag (`bench_throughput`
/// has no subcommands and takes every flag it declares).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Every subcommand except `scenario`, whose file is the whole spec.
    Run,
    /// Only `campaign`.
    Campaign,
    /// Every subcommand, `scenario` included: host-side settings a scenario
    /// file does not decide.
    Host,
}

/// What a knob's value reaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reach {
    /// What a campaign cell computes: the knob must move the cell cache's
    /// fingerprint.
    Cell,
    /// Only the host running the cells (worker threads, output format,
    /// cache paths, the scenario name): never fingerprinted.
    Host,
    /// Only `bench_throughput`'s timed sessions, which never pass through
    /// the cell cache.
    Session,
}

/// A knob default: on `front` — or only on its subcommand, when one is
/// named — the knob takes `arg`, spelled as its flag's argument and checked
/// by the same validator.
pub type KnobDefault = (Front, Option<&'static str>, &'static str);

/// One run knob: where it is spelled, how its argument parses, its
/// defaults, and the one validator every spelling goes through.
pub struct Knob {
    /// Stable identifier (normally the [`RunSpec`] field it sets).
    pub name: &'static str,
    /// Scenario-file key, if the knob has one.
    pub key: Option<&'static str>,
    /// Flag on `experiments`, if any.
    pub experiments_flag: Option<&'static str>,
    /// Flag on `bench_throughput`, if any.
    pub bench_flag: Option<&'static str>,
    arg: Arg,
    /// One-line usage text; the defaults and scope are appended to it.
    pub help: &'static str,
    /// Defaults applied by [`RunSpec::with_defaults`]. A scenario file runs
    /// under `experiments`, so a cell-reaching key it leaves out takes the
    /// `experiments` default too.
    pub defaults: &'static [KnobDefault],
    /// Which `experiments` subcommands take the flag.
    pub scope: Scope,
    /// What the knob's value reaches, and so whether the cell cache's
    /// fingerprint must cover it.
    pub reach: Reach,
    apply: Apply,
}

impl Knob {
    /// This knob's flag on `front`.
    pub fn flag(&self, front: Front) -> Option<&'static str> {
        match front {
            Front::Experiments => self.experiments_flag,
            Front::Bench => self.bench_flag,
        }
    }

    /// This knob's default on `front`: the subcommand's own if it declares
    /// one, else the front end's.
    pub fn default_arg(&self, front: Front, subcommand: Option<&str>) -> Option<&'static str> {
        let on = |sub: Option<&str>| {
            self.defaults
                .iter()
                .find(|&&(f, s, _)| f == front && s == sub)
                .map(|&(_, _, arg)| arg)
        };
        subcommand
            .and_then(|sub| on(Some(sub)))
            .or_else(|| on(None))
    }

    /// The flag with its argument metavariable, e.g. `--scale S`.
    pub fn synopsis(&self, front: Front) -> Option<String> {
        let flag = self.flag(front)?;
        Some(match self.arg {
            Arg::Number(m) | Arg::Int(m) | Arg::Word(m) | Arg::List(m) | Arg::File(m) => {
                format!("{flag} {m}")
            }
            Arg::None | Arg::Switch => flag.to_string(),
        })
    }

    /// Validate `value` (the knob's JSON form) and set it on `spec`.
    ///
    /// # Errors
    /// The validator's message, naming the knob by its scenario key.
    pub fn apply_json(&self, spec: &mut RunSpec, value: &Value) -> Result<(), SpecError> {
        let name = format!("\"{}\"", self.key.unwrap_or(self.name));
        (self.apply)(spec, value, &name).map_err(SpecError)
    }

    /// Convert a command-line argument to the knob's JSON form.
    fn cli_value(&self, flag: &str, arg: Option<&str>) -> Result<Value, SpecError> {
        if self.arg == Arg::Switch {
            return Ok(Value::Bool(true));
        }
        let Some(arg) = arg else {
            return err(format!("{flag} needs a value"));
        };
        Ok(match self.arg {
            Arg::Number(_) => arg
                .parse::<f64>()
                .map_or_else(|_| Value::from(arg), Value::Float),
            Arg::Int(_) => arg
                .parse::<i64>()
                .map_or_else(|_| Value::from(arg), Value::Int),
            Arg::List(_) => Value::Array(arg.split(',').map(Value::from).collect()),
            Arg::File(_) => {
                let text = std::fs::read_to_string(arg)
                    .map_err(|e| SpecError(format!("{flag} {arg}: cannot read: {e}")))?;
                Value::parse(&text)
                    .map_err(|e| SpecError(format!("{flag} {arg}: not valid JSON: {e}")))?
            }
            Arg::None | Arg::Switch | Arg::Word(_) => Value::from(arg),
        })
    }
}

/// Every run knob. Scenario keys, `experiments` flags and `bench_throughput`
/// run flags are all parsed, validated and documented from this one table.
pub static KNOBS: &[Knob] = &[
    Knob {
        name: "name",
        key: Some("name"),
        experiments_flag: None,
        bench_flag: None,
        arg: Arg::None,
        help: "scenario name, echoed in every streamed line",
        defaults: &[],
        scope: Scope::Run,
        reach: Reach::Host,
        apply: |spec, v, name| {
            spec.name = string(v, name)?.to_string();
            if spec.name.is_empty() {
                return Err(format!("{name} must not be empty"));
            }
            Ok(())
        },
    },
    Knob {
        name: "scale",
        key: Some("scale"),
        experiments_flag: Some("--scale"),
        bench_flag: Some("--scale"),
        arg: Arg::Number("S"),
        help: "workload input-size multiplier",
        // xsocket's repair trigger needs full-length contended phases to
        // fire early enough to matter; the throughput sweep needs runs long
        // enough for the pipeline to amortize.
        defaults: &[
            (Front::Experiments, None, "0.4"),
            (Front::Experiments, Some("xsocket"), "1.0"),
            (Front::Bench, None, "2.0"),
        ],
        scope: Scope::Run,
        reach: Reach::Cell,
        apply: |spec, v, name| {
            let scale = match v {
                Value::Float(f) => *f,
                Value::Int(i) => *i as f64,
                _ => return Err(format!("{name} must be a number")),
            };
            if !scale.is_finite() || scale <= 0.0 {
                return Err(format!("{name} must be a positive number, got {scale}"));
            }
            spec.scale = Some(scale);
            Ok(())
        },
    },
    Knob {
        name: "threads",
        key: Some("threads"),
        experiments_flag: Some("--threads"),
        bench_flag: None,
        arg: Arg::Int("N"),
        help: "campaign worker threads (default: all cores; a scenario's own wins)",
        defaults: &[],
        scope: Scope::Host,
        reach: Reach::Host,
        apply: |spec, v, name| {
            spec.threads = Some(at_least_one(v, name)? as usize);
            Ok(())
        },
    },
    Knob {
        name: "budget_steps",
        key: Some("budget_steps"),
        experiments_flag: Some("--cell-budget-steps"),
        bench_flag: None,
        arg: Arg::Int("N"),
        help: "bound every cell at N retired instructions",
        defaults: &[],
        scope: Scope::Run,
        reach: Reach::Cell,
        apply: |spec, v, name| {
            spec.budget_steps = Some(at_least_one(v, name)?);
            Ok(())
        },
    },
    Knob {
        name: "pipeline",
        key: Some("pipeline"),
        experiments_flag: Some("--pipeline"),
        bench_flag: None,
        arg: Arg::Switch,
        help: "run each LASER cell's driver+detector stage on a worker thread (same output)",
        defaults: &[],
        scope: Scope::Run,
        reach: Reach::Cell,
        apply: |spec, v, name| match v {
            Value::Bool(b) => {
                spec.pipeline = *b;
                Ok(())
            }
            _ => Err(format!("{name} must be true or false")),
        },
    },
    Knob {
        name: "driver_lag",
        key: Some("driver_lag_quanta"),
        experiments_flag: Some("--driver-lag"),
        bench_flag: Some("--driver-lag"),
        arg: Arg::Int("L"),
        help: "settle each quantum's charges L boundaries late (implies --pipeline; 0 is \
               inline-identical, L >= 1 deterministic; at most 1024)",
        defaults: &[(Front::Bench, None, "0")],
        scope: Scope::Run,
        reach: Reach::Cell,
        apply: |spec, v, name| {
            let lag = non_negative(v, name)?;
            if lag > MAX_DRIVER_LAG {
                return Err(format!(
                    "{name} must be at most {MAX_DRIVER_LAG}, got {lag}"
                ));
            }
            spec.driver_lag = Some(lag as usize);
            Ok(())
        },
    },
    Knob {
        name: "format",
        key: Some("format"),
        experiments_flag: Some("--format"),
        bench_flag: None,
        arg: Arg::Word("F"),
        help: "output format: text, json or csv",
        defaults: &[(Front::Experiments, None, "text")],
        scope: Scope::Run,
        reach: Reach::Host,
        apply: |spec, v, name| {
            spec.format = Some(match string(v, name)? {
                "text" => AggregateFormat::Text,
                "json" => AggregateFormat::Json,
                "csv" => AggregateFormat::Csv,
                other => {
                    return Err(format!(
                        "{name}: unknown format '{other}' (expected text, json or csv)"
                    ))
                }
            });
            Ok(())
        },
    },
    Knob {
        name: "custom_topology",
        key: Some("custom_topology"),
        experiments_flag: Some("--topology-file"),
        bench_flag: None,
        arg: Arg::File("FILE"),
        help: "deploy every cell on a bespoke layout (a JSON topology spec)",
        defaults: &[],
        scope: Scope::Campaign,
        reach: Reach::Cell,
        apply: |spec, v, name| {
            spec.custom_topology =
                Some(CustomTopology::from_value(v).map_err(|e| format!("{name}: {e}"))?);
            Ok(())
        },
    },
    Knob {
        name: "topology",
        key: None,
        experiments_flag: Some("--topology"),
        bench_flag: None,
        arg: Arg::Word("T"),
        help: "deploy every cell on a preset: flat, 2s, 4s, 8s or 32s",
        defaults: &[(Front::Experiments, None, "flat")],
        scope: Scope::Run,
        reach: Reach::Cell,
        apply: |spec, v, name| {
            spec.topologies = vec![topology(string(v, name)?)?];
            Ok(())
        },
    },
    Knob {
        name: "topologies",
        key: None,
        experiments_flag: None,
        bench_flag: Some("--topologies"),
        arg: Arg::List("T,..."),
        help: "topology presets to sweep",
        defaults: &[(Front::Bench, None, "flat,2s,4s")],
        scope: Scope::Run,
        reach: Reach::Cell,
        apply: |spec, v, name| {
            spec.topologies = array(v, name)?
                .iter()
                .map(|t| topology(string(t, name)?))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(())
        },
    },
    Knob {
        name: "workloads",
        key: None,
        experiments_flag: Some("--only"),
        bench_flag: Some("--workloads"),
        arg: Arg::List("W,..."),
        help: "run only the named workloads",
        defaults: &[(
            Front::Bench,
            None,
            "histogram',linear_regression,reverse_index",
        )],
        scope: Scope::Campaign,
        reach: Reach::Cell,
        apply: |spec, v, name| {
            let mut names = Vec::new();
            for item in array(v, name)? {
                names.push(workload(string(item, name)?)?);
            }
            if names.is_empty() {
                return Err(format!("{name} must not be empty"));
            }
            spec.workloads = Some(names);
            Ok(())
        },
    },
    Knob {
        name: "sav",
        key: None,
        experiments_flag: None,
        bench_flag: Some("--sav"),
        arg: Arg::Int("V"),
        help: "PEBS sample-after-value, at least 1 (1 is the detector-heaviest)",
        defaults: &[(Front::Bench, None, "1")],
        scope: Scope::Run,
        reach: Reach::Session,
        apply: |spec, v, name| {
            let sav = non_negative(v, name)?;
            spec.sav = Some(
                valid_sav(sav).ok_or_else(|| format!("{name} must be at least 1, got {sav}"))?,
            );
            Ok(())
        },
    },
    Knob {
        name: "cache",
        key: None,
        experiments_flag: Some("--cache"),
        bench_flag: None,
        arg: Arg::Word("DIR"),
        help: "persistent cell cache: load computed cells, store new ones",
        defaults: &[],
        scope: Scope::Host,
        reach: Reach::Host,
        apply: |spec, v, name| {
            spec.cache = Some(string(v, name)?.to_string());
            Ok(())
        },
    },
    Knob {
        name: "cache_stats",
        key: None,
        experiments_flag: Some("--cache-stats"),
        bench_flag: None,
        arg: Arg::Word("FILE"),
        help: "write cache hit/miss statistics as JSON to FILE (requires --cache)",
        defaults: &[],
        scope: Scope::Host,
        reach: Reach::Host,
        apply: |spec, v, name| {
            spec.cache_stats = Some(string(v, name)?.to_string());
            Ok(())
        },
    },
    Knob {
        name: "cells",
        key: Some("cells"),
        experiments_flag: None,
        bench_flag: None,
        arg: Arg::None,
        help: "explicit {workload, tool, topology} cells",
        defaults: &[],
        scope: Scope::Run,
        reach: Reach::Cell,
        apply: |spec, v, name| {
            for item in array(v, name)? {
                spec.sweeps.push(parse_cell(item)?);
            }
            Ok(())
        },
    },
    Knob {
        name: "sweeps",
        key: Some("sweeps"),
        experiments_flag: None,
        bench_flag: None,
        arg: Arg::None,
        help: "named xsocket or grid sweeps",
        defaults: &[],
        scope: Scope::Run,
        reach: Reach::Cell,
        apply: |spec, v, name| {
            for item in array(v, name)? {
                spec.sweeps.push(parse_sweep(item)?);
            }
            Ok(())
        },
    },
];

impl RunSpec {
    /// Parse and validate a scenario document: the spec's JSON form.
    ///
    /// # Errors
    /// [`SpecError`] on the first malformed or unknown field; nothing is
    /// silently ignored. Absent keys take their [`KNOBS`] defaults.
    pub fn parse(text: &str) -> Result<RunSpec, SpecError> {
        let value = match Value::parse(text) {
            Ok(value) => value,
            Err(e) => return err(format!("not valid JSON: {e}")),
        };
        let Value::Object(pairs) = &value else {
            return err("top level must be an object");
        };
        let mut spec = RunSpec::default();
        let mut given = Vec::new();
        for (key, field) in pairs {
            match KNOBS.iter().find(|k| k.key == Some(key.as_str())) {
                Some(knob) => {
                    knob.apply_json(&mut spec, field)?;
                    given.push(knob);
                }
                None => return err(format!("unknown key \"{key}\"")),
            }
        }
        // Host-side keys a scenario leaves out stay the host's business (no
        // "format" means no aggregate document); the cell-reaching ones take
        // the `experiments` defaults the file runs under.
        given.extend(
            KNOBS
                .iter()
                .filter(|k| k.key.is_none() || k.reach != Reach::Cell),
        );
        spec = spec.with_defaults(Front::Experiments, None, &given)?;
        if spec.name.is_empty() {
            return err("missing required key \"name\"");
        }
        if spec.sweeps.is_empty() || spec.plan().is_empty() {
            return err("scenario plans no cells (give \"cells\" and/or \"sweeps\")");
        }
        spec.check("\"custom_topology\"")?;
        Ok(spec)
    }

    /// Parse `args` (a command line without the program name) for `front`.
    /// Every knob flag of `front` goes through [`KNOBS`]; any other argument
    /// is offered to `other` with the rest of the line, which returns how
    /// many arguments it consumed (subcommands, files, the front end's own
    /// flags) or rejects it. Returns the spec and the knobs given.
    ///
    /// # Errors
    /// The first malformed or unknown argument, or `other`'s error.
    pub fn from_args(
        front: Front,
        args: &[String],
        mut other: impl FnMut(&[String]) -> Result<usize, SpecError>,
    ) -> Result<(RunSpec, Vec<&'static Knob>), SpecError> {
        let mut spec = RunSpec::default();
        let mut given = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let flag = args[i].as_str();
            let Some(knob) = KNOBS.iter().find(|k| k.flag(front) == Some(flag)) else {
                i += other(&args[i..])?.max(1);
                continue;
            };
            let arg = args.get(i + 1).map(String::as_str);
            let value = knob.cli_value(flag, arg)?;
            // A file knob's messages name the file, not just the flag.
            let name = match (knob.arg, arg) {
                (Arg::File(_), Some(path)) => format!("{flag} {path}"),
                _ => flag.to_string(),
            };
            (knob.apply)(&mut spec, &value, &name).map_err(SpecError)?;
            given.push(knob);
            i += if knob.arg == Arg::Switch { 1 } else { 2 };
        }
        spec.check("--topology-file")?;
        if spec.cache_stats.is_some() && spec.cache.is_none() {
            return err("--cache-stats requires --cache");
        }
        Ok((spec, given))
    }

    /// Set every knob not in `given` to its [`KNOBS`] default on `front`
    /// (for `subcommand`, when it declares its own).
    ///
    /// # Errors
    /// A default its own validator rejects (a table bug; the unit tests
    /// apply every default).
    pub fn with_defaults(
        mut self,
        front: Front,
        subcommand: Option<&str>,
        given: &[&Knob],
    ) -> Result<RunSpec, SpecError> {
        for knob in KNOBS {
            if given.iter().any(|g| g.name == knob.name) {
                continue;
            }
            if let Some(arg) = knob.default_arg(front, subcommand) {
                let name = knob.flag(front).unwrap_or(knob.name);
                let value = knob.cli_value(name, Some(arg))?;
                (knob.apply)(&mut self, &value, name).map_err(SpecError)?;
            }
        }
        Ok(self)
    }

    /// Cross-knob rules shared by every front end; `custom` names the
    /// custom-topology knob as the caller spelled it.
    fn check(&self, custom: &str) -> Result<(), SpecError> {
        if self.custom_topology.is_some()
            && self
                .plan()
                .iter()
                .any(|(_, _, topo)| *topo != TopologySpec::Flat)
        {
            return err(format!(
                "{custom} replaces the topology axis; drop the preset topologies"
            ));
        }
        Ok(())
    }

    /// The usage lines of `front`'s knob flags, rendered from [`KNOBS`]:
    /// synopsis, help, defaults and (on `experiments`) scope.
    pub fn usage(front: Front) -> String {
        let mut out = String::new();
        for knob in KNOBS {
            let Some(synopsis) = knob.synopsis(front) else {
                continue;
            };
            let mut notes: Vec<String> = knob
                .defaults
                .iter()
                .filter(|&&(f, _, _)| f == front)
                .map(|&(_, sub, arg)| format!("{} {arg}", sub.unwrap_or("default")))
                .collect();
            if front == Front::Experiments && knob.scope == Scope::Campaign {
                notes.push("campaign only".to_string());
            }
            let notes = if notes.is_empty() {
                String::new()
            } else {
                format!(" ({})", notes.join("; "))
            };
            out.push_str(&format!("  {synopsis:<22} {}{notes}\n", knob.help));
        }
        out
    }

    /// The input scale; a spec that sets none (one built by hand rather
    /// than parsed) runs at the library default.
    pub fn experiment_scale(&self) -> ExperimentScale {
        match self.scale {
            Some(workload_scale) => ExperimentScale { workload_scale },
            None => ExperimentScale::default(),
        }
    }

    /// The one preset an `experiments` run deploys on.
    pub fn topology(&self) -> TopologySpec {
        self.topologies
            .first()
            .copied()
            .unwrap_or(TopologySpec::Flat)
    }

    /// The per-cell budget the spec requests.
    pub fn budget(&self) -> CellBudget {
        self.budget_steps.map(CellBudget::steps).unwrap_or_default()
    }

    /// The pipeline deployment the spec requests: `pipeline` runs each
    /// cell's driver+detector stage on a worker thread, and a driver lag
    /// sets the charge-back lag (and implies pipelining). Only a non-zero
    /// lag diverges from an inline run.
    pub fn pipeline_config(&self) -> PipelineConfig {
        PipelineConfig {
            enabled: self.pipeline || self.driver_lag.is_some(),
            driver_lag_quanta: self.driver_lag.unwrap_or(0),
        }
    }

    /// The `(workload, tool, topology)` cells the spec runs. A scenario's
    /// explicit cells and sweeps deduplicate in sorted grid order — the order
    /// its campaign aggregates in. Without them the spec runs its workloads
    /// (default: the suite) in registry order, each under the default tool
    /// panel on each of its topologies.
    pub fn plan(&self) -> Vec<(String, ToolSpec, TopologySpec)> {
        if self.sweeps.is_empty() {
            let topologies = match self.topologies.is_empty() {
                true => vec![TopologySpec::Flat],
                false => self.topologies.clone(),
            };
            let mut plan = Vec::new();
            let selected = |name: &str| match &self.workloads {
                Some(names) => names.iter().any(|n| n == name),
                None => true,
            };
            for workload in registry().iter().filter(|w| selected(w.name)) {
                for tool in ToolSpec::PANEL {
                    for topo in &topologies {
                        plan.push((workload.name.to_string(), tool, *topo));
                    }
                }
            }
            return plan;
        }
        let mut set: BTreeSet<(String, ToolSpec, TopologySpec)> = BTreeSet::new();
        for sweep in &self.sweeps {
            match sweep {
                Sweep::Xsocket { workloads } => {
                    let names: Vec<&str> = match workloads {
                        Some(names) => names.iter().map(String::as_str).collect(),
                        None => XSOCKET_WORKLOADS.to_vec(),
                    };
                    for name in names {
                        for tool in [ToolSpec::Native, ToolSpec::LaserDetect, ToolSpec::Laser] {
                            for topo in TopologySpec::ALL {
                                set.insert((name.to_string(), tool, topo));
                            }
                        }
                    }
                }
                Sweep::Grid {
                    workloads,
                    tools,
                    topologies,
                } => {
                    for name in workloads {
                        for tool in tools {
                            for topo in topologies {
                                set.insert((name.clone(), *tool, *topo));
                            }
                        }
                    }
                }
            }
        }
        set.into_iter().collect()
    }

    /// Lower the spec onto a [`Campaign`] over its [`plan`](RunSpec::plan):
    /// the one place a spec's knobs reach its cells.
    ///
    /// # Errors
    /// A planned workload the registry does not know (only possible for a
    /// spec built by hand rather than parsed).
    pub fn campaign(&self) -> Result<Campaign, SpecError> {
        let registry = registry();
        let mut plan = Vec::new();
        for (name, tool, topo) in self.plan() {
            match registry.iter().find(|w| w.name == name) {
                Some(workload) => plan.push((workload.clone(), tool, topo)),
                None => return err(format!("unknown workload '{name}'")),
            }
        }
        let mut campaign = Campaign::from_plan(plan)
            .with_options(self.experiment_scale().options())
            .with_cell_budget(self.budget())
            .with_pipeline(self.pipeline_config());
        if let Some(threads) = self.threads {
            campaign = campaign.with_threads(threads);
        }
        if let Some(custom) = &self.custom_topology {
            campaign = campaign.with_custom_topology(Arc::new(custom.clone()));
        }
        Ok(campaign)
    }
}

fn string<'a>(value: &'a Value, name: &str) -> Result<&'a str, String> {
    match value {
        Value::Str(s) => Ok(s.as_str()),
        _ => Err(format!("{name} must be a string")),
    }
}

fn non_negative(value: &Value, name: &str) -> Result<u64, String> {
    match value {
        Value::Int(i) if *i >= 0 => Ok(*i as u64),
        _ => Err(format!("{name} must be a non-negative integer")),
    }
}

fn at_least_one(value: &Value, name: &str) -> Result<u64, String> {
    match non_negative(value, name)? {
        0 => Err(format!("{name} must be at least 1")),
        n => Ok(n),
    }
}

fn array<'a>(value: &'a Value, name: &str) -> Result<&'a [Value], String> {
    match value {
        Value::Array(items) => Ok(items),
        _ => Err(format!("{name} must be an array")),
    }
}

fn workload(name: &str) -> Result<String, String> {
    validate_workload_names(&[name], &registry()).map_err(|e| e.to_string())?;
    Ok(name.to_string())
}

fn tool(key: &str) -> Result<ToolSpec, String> {
    ToolSpec::parse(key).ok_or_else(|| {
        format!(
            "unknown tool '{key}' (expected native, native-fixed, laser, laser-detect, \
             laser-detect-raw, laser-detect-savN with N >= 1, vtune, sheriff-detect or \
             sheriff-protect)"
        )
    })
}

fn topology(key: &str) -> Result<TopologySpec, String> {
    TopologySpec::parse(key)
        .ok_or_else(|| format!("unknown topology '{key}' (expected flat, 2s, 4s, 8s or 32s)"))
}

fn parse_cell(value: &Value) -> Result<Sweep, String> {
    let Value::Object(pairs) = value else {
        return Err("each cell must be an object".to_string());
    };
    let mut workload_name = None;
    let mut tool_spec = None;
    let mut topo = TopologySpec::Flat;
    for (key, field) in pairs {
        let name = format!("\"{key}\"");
        match key.as_str() {
            "workload" => workload_name = Some(workload(string(field, &name)?)?),
            "tool" => tool_spec = Some(tool(string(field, &name)?)?),
            "topology" => topo = topology(string(field, &name)?)?,
            other => return Err(format!("unknown cell key \"{other}\"")),
        }
    }
    match (workload_name, tool_spec) {
        (Some(workload), Some(tool)) => Ok(Sweep::Grid {
            workloads: vec![workload],
            tools: vec![tool],
            topologies: vec![topo],
        }),
        (None, _) => Err("cell is missing \"workload\"".to_string()),
        (_, None) => Err("cell is missing \"tool\"".to_string()),
    }
}

fn parse_sweep(value: &Value) -> Result<Sweep, String> {
    let Value::Object(pairs) = value else {
        return Err("each sweep must be an object".to_string());
    };
    let kind = match value.get("kind") {
        Some(kind) => string(kind, "\"kind\"")?,
        None => return Err("sweep is missing \"kind\" (xsocket or grid)".to_string()),
    };
    let names = |field: &Value, name: &str, parse: fn(&str) -> Result<String, String>| {
        array(field, name)?
            .iter()
            .map(|item| parse(string(item, name)?))
            .collect::<Result<Vec<_>, _>>()
    };
    match kind {
        "xsocket" => {
            let mut workloads = None;
            for (key, field) in pairs {
                match key.as_str() {
                    "kind" => {}
                    "workloads" => {
                        let list = names(field, "\"workloads\"", workload)?;
                        if list.is_empty() {
                            return Err("xsocket sweep \"workloads\" must not be empty".to_string());
                        }
                        workloads = Some(list);
                    }
                    other => return Err(format!("unknown xsocket sweep key \"{other}\"")),
                }
            }
            Ok(Sweep::Xsocket { workloads })
        }
        "grid" => {
            let mut workloads = Vec::new();
            let mut tools = Vec::new();
            let mut topologies = vec![TopologySpec::Flat];
            for (key, field) in pairs {
                let name = format!("\"{key}\"");
                match key.as_str() {
                    "kind" => {}
                    "workloads" => workloads = names(field, &name, workload)?,
                    "tools" => {
                        for item in array(field, &name)? {
                            tools.push(tool(string(item, &name)?)?);
                        }
                    }
                    "topologies" => {
                        topologies.clear();
                        for item in array(field, &name)? {
                            topologies.push(topology(string(item, &name)?)?);
                        }
                        if topologies.is_empty() {
                            return Err("grid sweep \"topologies\" must not be empty".to_string());
                        }
                    }
                    other => return Err(format!("unknown grid sweep key \"{other}\"")),
                }
            }
            if workloads.is_empty() {
                return Err("grid sweep needs a non-empty \"workloads\" array".to_string());
            }
            if tools.is_empty() {
                return Err("grid sweep needs a non-empty \"tools\" array".to_string());
            }
            Ok(Sweep::Grid {
                workloads,
                tools,
                topologies,
            })
        }
        other => Err(format!("unknown sweep kind '{other}' (xsocket or grid)")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_scenario() {
        let s = RunSpec::parse(
            r#"{
              "name": "nightly",
              "scale": 0.25,
              "threads": 3,
              "budget_steps": 500000,
              "pipeline": true,
              "driver_lag_quanta": 1,
              "format": "csv",
              "cells": [
                {"workload": "histogram'", "tool": "laser", "topology": "8s"},
                {"workload": "swaptions", "tool": "native"}
              ],
              "sweeps": [
                {"kind": "grid", "workloads": ["kmeans"], "tools": ["native", "laser-detect-sav97"]}
              ]
            }"#,
        )
        .unwrap();
        assert_eq!(s.name, "nightly");
        assert_eq!(s.scale, Some(0.25));
        assert_eq!(s.threads, Some(3));
        assert_eq!(s.budget_steps, Some(500000));
        assert!(s.pipeline);
        assert_eq!(s.driver_lag, Some(1));
        assert_eq!(
            s.pipeline_config(),
            PipelineConfig::pipelined().with_driver_lag(1)
        );
        assert_eq!(s.format, Some(AggregateFormat::Csv));
        assert_eq!(s.sweeps.len(), 3, "two cells and a grid");
        assert_eq!(
            s.sweeps[1],
            Sweep::Grid {
                workloads: vec!["swaptions".to_string()],
                tools: vec![ToolSpec::Native],
                topologies: vec![TopologySpec::Flat],
            },
            "topology defaults"
        );
        let plan = s.plan();
        assert_eq!(plan.len(), 4);
        // Sorted grid order, independent of spelling order in the file.
        assert_eq!(
            plan,
            vec![
                (
                    "histogram'".to_string(),
                    ToolSpec::Laser,
                    TopologySpec::OctoSocket
                ),
                ("kmeans".to_string(), ToolSpec::Native, TopologySpec::Flat),
                (
                    "kmeans".to_string(),
                    ToolSpec::LaserDetectSav(97),
                    TopologySpec::Flat
                ),
                (
                    "swaptions".to_string(),
                    ToolSpec::Native,
                    TopologySpec::Flat
                ),
            ]
        );
    }

    #[test]
    fn defaults_are_the_cli_defaults() {
        let s = RunSpec::parse(
            r#"{"name": "one", "cells": [{"workload": "swaptions", "tool": "native"}]}"#,
        )
        .unwrap();
        // Cell-reaching keys take the `experiments` defaults...
        assert_eq!(s.scale, Some(0.4));
        assert_eq!(s.experiment_scale(), ExperimentScale::default());
        assert!(s.topologies.is_empty(), "cells carry their own topology");
        // ...host-side ones stay unset for the host to decide.
        assert_eq!(s.threads, None);
        assert_eq!(s.budget_steps, None);
        assert!(!s.pipeline);
        assert_eq!(s.driver_lag, None);
        assert_eq!(s.pipeline_config(), PipelineConfig::default());
        assert_eq!(s.format, None);
    }

    #[test]
    fn driver_lag_key_implies_the_pipelined_deployment() {
        // Mirrors the CLI: asking for a charge-back lag is asking for the
        // pipelined deployment, even at lag 0.
        let s = RunSpec::parse(
            r#"{"name": "l", "driver_lag_quanta": 3,
                "cells": [{"workload": "swaptions", "tool": "laser-detect"}]}"#,
        )
        .unwrap();
        assert!(!s.pipeline, "the boolean key itself stays untouched");
        assert_eq!(
            s.pipeline_config(),
            PipelineConfig::pipelined().with_driver_lag(3)
        );
        let s = RunSpec::parse(
            r#"{"name": "l0", "driver_lag_quanta": 0,
                "cells": [{"workload": "swaptions", "tool": "laser-detect"}]}"#,
        )
        .unwrap();
        assert_eq!(s.driver_lag, Some(0));
        assert_eq!(s.pipeline_config(), PipelineConfig::pipelined());
    }

    #[test]
    fn custom_topology_key_parses_and_validates_inline() {
        // The spec is the scenario spelling of `--topology-file`: the layout
        // object rides inline so parsing stays pure, and the same validation
        // runs at parse time.
        let s = RunSpec::parse(
            r#"{
              "name": "fat-thin-sweep",
              "custom_topology": {
                "name": "fat-thin",
                "core_blocks": [6, 2],
                "remote": {"remote_hitm": 220, "remote_llc": 100, "remote_dram": 310}
              },
              "cells": [{"workload": "swaptions", "tool": "laser-detect"}]
            }"#,
        )
        .unwrap();
        let custom = s.custom_topology.as_ref().unwrap();
        assert_eq!(custom.name(), "fat-thin");
        assert_eq!(custom.num_cores(), 8);
    }

    #[test]
    fn xsocket_sweep_matches_the_planner_cells() {
        let s = RunSpec::parse(r#"{"name": "x", "sweeps": [{"kind": "xsocket"}]}"#).unwrap();
        let plan = s.plan();
        // Every headline workload × 3 tools × every preset topology.
        assert_eq!(
            plan.len(),
            XSOCKET_WORKLOADS.len() * 3 * TopologySpec::ALL.len()
        );
        assert!(plan.contains(&(
            "histogram'".to_string(),
            ToolSpec::Laser,
            TopologySpec::OctoSocket
        )));
        // A restricted sweep only plans its named workloads.
        let s = RunSpec::parse(
            r#"{"name": "x", "sweeps": [{"kind": "xsocket", "workloads": ["reverse_index"]}]}"#,
        )
        .unwrap();
        assert_eq!(s.plan().len(), 3 * TopologySpec::ALL.len());
    }

    #[test]
    fn plan_deduplicates_across_cells_and_sweeps() {
        let s = RunSpec::parse(
            r#"{
              "name": "dup",
              "cells": [
                {"workload": "kmeans", "tool": "native"},
                {"workload": "kmeans", "tool": "native"}
              ],
              "sweeps": [
                {"kind": "grid", "workloads": ["kmeans"], "tools": ["native"]}
              ]
            }"#,
        )
        .unwrap();
        assert_eq!(s.plan().len(), 1);
    }

    #[test]
    fn every_malformed_field_fails_fast() {
        let cases: &[(&str, &str)] = &[
            ("[1,2]", "top level must be an object"),
            ("{\"name\": \"x\"", "not valid JSON"),
            (
                r#"{"cells": [{"workload": "swaptions", "tool": "native"}]}"#,
                "missing required key \"name\"",
            ),
            (r#"{"name": ""}"#, "\"name\" must not be empty"),
            (r#"{"name": "x", "bogus": 1}"#, "unknown key \"bogus\""),
            (r#"{"name": "x", "scale": "big"}"#, "must be a number"),
            (r#"{"name": "x", "scale": -0.5}"#, "positive"),
            (r#"{"name": "x", "scale": 0}"#, "positive"),
            (r#"{"name": "x", "threads": 0}"#, "at least 1"),
            (r#"{"name": "x", "threads": -2}"#, "non-negative integer"),
            (r#"{"name": "x", "budget_steps": 0}"#, "at least 1"),
            // The session runs one detector: `shards` is not a key.
            (r#"{"name": "x", "shards": 2}"#, "unknown key \"shards\""),
            (
                r#"{"name": "x", "driver_lag_quanta": -1}"#,
                "non-negative integer",
            ),
            (
                r#"{"name": "x", "driver_lag_quanta": "slow"}"#,
                "non-negative integer",
            ),
            (
                r#"{"name": "x", "driver_lag_quanta": 1.5}"#,
                "non-negative integer",
            ),
            (
                r#"{"name": "x", "driver_lag_quanta": 1025}"#,
                "at most 1024",
            ),
            (r#"{"name": "x", "pipeline": 1}"#, "true or false"),
            (
                r#"{"name": "x", "format": "yaml"}"#,
                "unknown format 'yaml'",
            ),
            // Front-end-only knobs have no scenario key.
            (r#"{"name": "x", "sav": 7}"#, "unknown key \"sav\""),
            (r#"{"name": "x", "cache": "d"}"#, "unknown key \"cache\""),
            (
                r#"{"name": "x", "cells": [{"workload": "swaptions", "tool": "laser-detect-sav0"}]}"#,
                "unknown tool 'laser-detect-sav0'",
            ),
            (r#"{"name": "x", "cells": {}}"#, "must be an array"),
            (r#"{"name": "x", "cells": [3]}"#, "cell must be an object"),
            (
                r#"{"name": "x", "cells": [{"tool": "native"}]}"#,
                "missing \"workload\"",
            ),
            (
                r#"{"name": "x", "cells": [{"workload": "swaptions"}]}"#,
                "missing \"tool\"",
            ),
            (
                r#"{"name": "x", "cells": [{"workload": "histogramm", "tool": "native"}]}"#,
                "unknown workload 'histogramm'",
            ),
            (
                r#"{"name": "x", "cells": [{"workload": "swaptions", "tool": "nativ"}]}"#,
                "unknown tool 'nativ'",
            ),
            (
                r#"{"name": "x", "cells": [{"workload": "swaptions", "tool": "native", "topology": "16s"}]}"#,
                "unknown topology '16s'",
            ),
            (
                r#"{"name": "x", "cells": [{"workload": "swaptions", "tool": "native", "color": "red"}]}"#,
                "unknown cell key \"color\"",
            ),
            (r#"{"name": "x", "sweeps": [{}]}"#, "missing \"kind\""),
            (
                r#"{"name": "x", "sweeps": [{"kind": "mystery"}]}"#,
                "unknown sweep kind 'mystery'",
            ),
            (
                r#"{"name": "x", "sweeps": [{"kind": "grid", "workloads": ["kmeans"]}]}"#,
                "non-empty \"tools\"",
            ),
            (
                r#"{"name": "x", "sweeps": [{"kind": "grid", "tools": ["native"]}]}"#,
                "non-empty \"workloads\"",
            ),
            (
                r#"{"name": "x", "sweeps": [{"kind": "grid", "workloads": ["kmeans"], "tools": ["native"], "topologies": []}]}"#,
                "must not be empty",
            ),
            (
                r#"{"name": "x", "sweeps": [{"kind": "xsocket", "workloads": []}]}"#,
                "must not be empty",
            ),
            (
                r#"{"name": "x", "sweeps": [{"kind": "xsocket", "depth": 2}]}"#,
                "unknown xsocket sweep key \"depth\"",
            ),
            (r#"{"name": "x"}"#, "plans no cells"),
            (
                r#"{"name": "x", "cells": [], "sweeps": []}"#,
                "plans no cells",
            ),
            (
                r#"{"name": "x", "custom_topology": "fat-thin.json",
                    "cells": [{"workload": "swaptions", "tool": "native"}]}"#,
                "\"custom_topology\": topology spec must be an object",
            ),
            (
                r#"{"name": "x",
                    "custom_topology": {"name": "fat-thin", "core_blocks": [6, 2],
                        "remote": {"remote_hitm": 1, "remote_llc": 100, "remote_dram": 310}},
                    "cells": [{"workload": "swaptions", "tool": "native"}]}"#,
                "\"custom_topology\":",
            ),
            (
                r#"{"name": "x",
                    "custom_topology": {"name": "fat-thin", "core_blocks": [6, 2],
                        "remote": {"remote_hitm": 220, "remote_llc": 100, "remote_dram": 310}},
                    "cells": [{"workload": "swaptions", "tool": "native", "topology": "2s"}]}"#,
                "\"custom_topology\" replaces the topology axis",
            ),
            (
                r#"{"name": "x",
                    "custom_topology": {"name": "fat-thin", "core_blocks": [6, 2],
                        "remote": {"remote_hitm": 220, "remote_llc": 100, "remote_dram": 310}},
                    "sweeps": [{"kind": "xsocket"}]}"#,
                "\"custom_topology\" replaces the topology axis",
            ),
        ];
        for (text, needle) in cases {
            let e = RunSpec::parse(text).unwrap_err();
            assert!(
                e.to_string().contains(needle),
                "{text} -> {e} (wanted {needle:?})"
            );
        }
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// Parse `list` for `front`, rejecting anything the table does not know.
    fn cli(front: Front, list: &[&str]) -> Result<RunSpec, SpecError> {
        RunSpec::from_args(front, &args(list), |rest| {
            err(format!("unknown argument '{}'", rest[0]))
        })
        .map(|(spec, _)| spec)
    }

    #[test]
    fn flags_and_keys_share_one_validator() {
        // The same value is accepted or rejected on every front end, and the
        // message names the knob as the user spelled it.
        let flag = cli(Front::Experiments, &["--driver-lag", "1025"]).unwrap_err();
        assert_eq!(flag.0, "--driver-lag must be at most 1024, got 1025");
        let key = RunSpec::parse(r#"{"name": "x", "driver_lag_quanta": 1025}"#).unwrap_err();
        assert_eq!(
            key.0,
            "\"driver_lag_quanta\" must be at most 1024, got 1025"
        );
        let bench = cli(Front::Bench, &["--driver-lag", "1025"]).unwrap_err();
        assert_eq!(bench, flag);
        for (front, list, needle) in [
            (
                Front::Experiments,
                &["--scale", "0"][..],
                "positive number, got 0",
            ),
            (
                Front::Experiments,
                &["--scale", "-1"],
                "positive number, got -1",
            ),
            (
                Front::Experiments,
                &["--scale", "nan"],
                "positive number, got NaN",
            ),
            (
                Front::Experiments,
                &["--scale", "inf"],
                "positive number, got inf",
            ),
            (
                Front::Experiments,
                &["--scale", "fast"],
                "--scale must be a number",
            ),
            (Front::Bench, &["--scale", "0"], "positive number, got 0"),
            (
                Front::Experiments,
                &["--threads", "0"],
                "--threads must be at least 1",
            ),
            (
                Front::Experiments,
                &["--cell-budget-steps", "0"],
                "--cell-budget-steps must be at least 1",
            ),
            (Front::Bench, &["--sav", "0"], "--sav must be at least 1"),
            (Front::Bench, &["--sav", "-3"], "non-negative integer"),
            (
                Front::Bench,
                &["--workloads", "histogramm"],
                "unknown workload",
            ),
            (
                Front::Bench,
                &["--topologies", "flat,16s"],
                "unknown topology '16s'",
            ),
            (
                Front::Experiments,
                &["--topology", "16s"],
                "unknown topology '16s'",
            ),
            (
                Front::Experiments,
                &["--only", "swaptions,"],
                "unknown workload ''",
            ),
            (
                Front::Experiments,
                &["--format", "yaml"],
                "unknown format 'yaml'",
            ),
            (Front::Experiments, &["--scale"], "--scale needs a value"),
            (
                Front::Experiments,
                &["--topology-file", "/nonexistent/topo.json"],
                "--topology-file /nonexistent/topo.json: cannot read",
            ),
            (
                Front::Experiments,
                &["--cache-stats", "s.json"],
                "requires --cache",
            ),
            // A knob is only a flag on the front ends that declare it.
            (
                Front::Experiments,
                &["--sav", "7"],
                "unknown argument '--sav'",
            ),
            (
                Front::Bench,
                &["--pipeline"],
                "unknown argument '--pipeline'",
            ),
        ] {
            let e = cli(front, list).unwrap_err();
            assert!(e.0.contains(needle), "{list:?} -> {e} (wanted {needle:?})");
        }
    }

    #[test]
    fn flags_build_the_spec_the_keys_do() {
        let spec = cli(
            Front::Experiments,
            &[
                "--scale",
                "0.25",
                "--threads",
                "3",
                "--cell-budget-steps",
                "500000",
                "--driver-lag",
                "1",
                "--format",
                "csv",
                "--only",
                "swaptions,histogram'",
            ],
        )
        .unwrap();
        assert_eq!(spec.scale, Some(0.25));
        assert_eq!(spec.threads, Some(3));
        assert_eq!(spec.budget(), CellBudget::steps(500_000));
        assert_eq!(
            spec.pipeline_config(),
            PipelineConfig::pipelined().with_driver_lag(1)
        );
        assert_eq!(spec.format, Some(AggregateFormat::Csv));
        assert_eq!(
            spec.workloads,
            Some(vec!["swaptions".to_string(), "histogram'".to_string()]),
            "as given"
        );
        // The campaign plan is registry-major over the default panel.
        let plan = spec.plan();
        assert_eq!(plan.len(), 2 * ToolSpec::PANEL.len());
        assert_eq!(
            plan[1],
            (
                "histogram'".to_string(),
                ToolSpec::Laser,
                TopologySpec::Flat
            )
        );
        assert_eq!(plan[0].0, "histogram'", "registry order");
        // A throughput sweep keeps its workloads as given, repeats included.
        let bench = cli(
            Front::Bench,
            &[
                "--sav",
                "7",
                "--topologies",
                "flat,2s",
                "--workloads",
                "swaptions,histogram',swaptions",
            ],
        )
        .unwrap();
        assert_eq!(bench.sav, Some(7));
        assert_eq!(
            bench.topologies,
            [TopologySpec::Flat, TopologySpec::DualSocket]
        );
        assert_eq!(
            bench.workloads.unwrap(),
            ["swaptions", "histogram'", "swaptions"]
        );
    }

    #[test]
    fn defaults_come_from_the_table_and_pass_their_validators() {
        for knob in KNOBS {
            for &(front, sub, arg) in knob.defaults {
                let spec = RunSpec::default().with_defaults(front, sub, &[]);
                assert!(spec.is_ok(), "{} default {arg:?}: {spec:?}", knob.name);
            }
        }
        let figures = RunSpec::default()
            .with_defaults(Front::Experiments, Some("fig10"), &[])
            .unwrap();
        assert_eq!(figures.experiment_scale(), ExperimentScale::default());
        assert_eq!(figures.format, Some(AggregateFormat::Text));
        assert_eq!(figures.topology(), TopologySpec::Flat);
        assert_eq!(figures.sav, None, "bench-only default");
        let xsocket = RunSpec::default()
            .with_defaults(Front::Experiments, Some("xsocket"), &[])
            .unwrap();
        assert_eq!(xsocket.scale, Some(1.0));
        let bench = RunSpec::default()
            .with_defaults(Front::Bench, None, &[])
            .unwrap();
        assert_eq!(bench.scale, Some(2.0));
        assert_eq!(bench.sav, Some(1));
        assert_eq!(bench.driver_lag, Some(0));
        assert_eq!(bench.topologies.len(), 3);
        assert_eq!(bench.format, None, "experiments-only default");
        // A knob the user gave keeps its value.
        let (given, knobs) = RunSpec::from_args(Front::Bench, &args(&["--scale", "0.5"]), |_| {
            err("no other arguments")
        })
        .unwrap();
        let given = given.with_defaults(Front::Bench, None, &knobs).unwrap();
        assert_eq!(given.scale, Some(0.5));
    }

    #[test]
    fn usage_is_rendered_from_the_table() {
        let usage = RunSpec::usage(Front::Experiments);
        for knob in KNOBS {
            if let Some(flag) = knob.experiments_flag {
                assert!(usage.contains(flag), "{flag} missing from usage");
            }
        }
        assert!(!usage.contains("--sav"));
        assert!(usage.contains("multiplier (default 0.4; xsocket 1.0)"));
        assert!(usage.contains("run only the named workloads (campaign only)"));
        let bench = RunSpec::usage(Front::Bench);
        assert!(bench.contains("--sav V"));
        assert!(bench.contains("multiplier (default 2.0)"));
        assert!(!bench.contains("campaign only"));
    }
}
