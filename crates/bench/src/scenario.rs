//! Declarative scenario files: the campaign-service input format.
//!
//! A scenario is a small JSON document naming the cells a campaign should
//! run — individually, or through named sweeps — plus the knobs the
//! `experiments` CLI exposes as flags (scale, worker threads, step budget,
//! pipelining, aggregate output format). `laser-serve` reads scenarios from
//! files, stdin or a watch directory and fans their cells over the
//! [`Campaign`](crate::campaign::Campaign) thread pool (see
//! [`crate::service`]).
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
//! Parsing follows the `Cli::parse` convention: **everything** is validated
//! fail-fast — unknown keys, unknown workload/tool/topology names, malformed
//! numbers, an empty cell set — before anything simulates, and the binaries
//! turn a [`ScenarioError`] into exit code 2. The resolved cell list
//! ([`Scenario::plan`]) deduplicates in sorted grid order, so the aggregated
//! result of a scenario is byte-identical however its cells were spelled.

use std::collections::BTreeSet;

use laser_core::{PipelineConfig, TopologySpec};
use laser_workloads::find;
use serde::json::Value;

use crate::tool::ToolSpec;
use crate::topofile::CustomTopology;
use crate::xsocket::XSOCKET_WORKLOADS;

/// A scenario file could not be parsed or validated. The message names the
/// offending field; the binaries print it and exit 2 before simulating.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError(pub String);

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid scenario: {}", self.0)
    }
}

impl std::error::Error for ScenarioError {}

/// Upper bound on `"driver_lag_quanta"`: the session keeps one in-flight
/// charge ledger per quantum of lag, so anything past this is almost
/// certainly a typo rather than a deployment.
pub const MAX_DRIVER_LAG: u64 = 1024;

fn err<T>(message: impl Into<String>) -> Result<T, ScenarioError> {
    Err(ScenarioError(message.into()))
}

/// Aggregate output format a scenario can request alongside the streamed
/// per-cell lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregateFormat {
    /// The campaign's text table.
    Text,
    /// The campaign's JSON document (see [`crate::emit::Emit`]).
    Json,
    /// The campaign's CSV table.
    Csv,
}

impl AggregateFormat {
    fn parse(s: &str) -> Option<AggregateFormat> {
        match s {
            "text" => Some(AggregateFormat::Text),
            "json" => Some(AggregateFormat::Json),
            "csv" => Some(AggregateFormat::Csv),
            _ => None,
        }
    }

    /// The stable spelling used in scenario files.
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
    /// An explicit cross product of workloads × tools × topologies.
    Grid {
        /// Workload names (validated against the registry).
        workloads: Vec<String>,
        /// Tool keys (see [`ToolSpec::parse`]).
        tools: Vec<ToolSpec>,
        /// Topology presets; an absent `topologies` key means `[flat]`.
        topologies: Vec<TopologySpec>,
    },
}

/// One explicitly-named cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioCell {
    /// Workload name (validated against the registry).
    pub workload: String,
    /// The tool to run it under.
    pub tool: ToolSpec,
    /// Topology preset (default: flat).
    pub topology: TopologySpec,
}

/// A parsed, validated scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name, echoed in every streamed result line.
    pub name: String,
    /// Workload input-scale multiplier (default 0.4).
    pub scale: f64,
    /// Campaign worker threads; `None` means one per available core.
    pub threads: Option<usize>,
    /// Per-cell step budget; `None` means unlimited.
    pub budget_steps: Option<u64>,
    /// Whether cells deploy the pipelined (detector-on-a-worker) session.
    pub pipeline: bool,
    /// Charge-back lag of the driver stage in quanta; `Some(n)` implies
    /// `pipeline` (mirroring the CLI, where `--driver-lag` implies
    /// `--pipeline`). Lag 0 keeps pipelined cells
    /// byte-identical to inline; lag >= 1 overlaps the machine with the
    /// driver stage and is run-to-run deterministic but not
    /// inline-identical — the cell cache keys on the lag, so lagged and
    /// inline results never alias.
    pub driver_lag: Option<usize>,
    /// Aggregate document to append after the per-cell stream, if any.
    pub format: Option<AggregateFormat>,
    /// Bespoke topology every cell deploys on instead of a preset (the
    /// scenario-file spelling of `experiments --topology-file`): the same
    /// JSON object a topology file holds, validated at parse time like
    /// everything else. Mutually exclusive with preset `"topology"` /
    /// `"topologies"` keys and xsocket sweeps — the override is
    /// campaign-wide, so a preset axis underneath it would only produce
    /// colliding cell keys.
    pub custom_topology: Option<CustomTopology>,
    /// Explicit cells.
    pub cells: Vec<ScenarioCell>,
    /// Named sweeps.
    pub sweeps: Vec<Sweep>,
}

impl Scenario {
    /// Parse and validate a scenario document.
    ///
    /// # Errors
    /// [`ScenarioError`] on the first malformed or unknown field; nothing is
    /// silently ignored or defaulted away.
    pub fn parse(text: &str) -> Result<Scenario, ScenarioError> {
        let value = match Value::parse(text) {
            Ok(value) => value,
            Err(e) => return err(format!("not valid JSON: {e}")),
        };
        Scenario::from_value(&value)
    }

    /// Validate an already-parsed JSON document as a scenario.
    ///
    /// # Errors
    /// As for [`Scenario::parse`].
    pub fn from_value(value: &Value) -> Result<Scenario, ScenarioError> {
        let pairs = match value {
            Value::Object(pairs) => pairs,
            _ => return err("top level must be an object"),
        };
        let mut scenario = Scenario {
            name: String::new(),
            scale: 0.4,
            threads: None,
            budget_steps: None,
            pipeline: false,
            driver_lag: None,
            format: None,
            custom_topology: None,
            cells: Vec::new(),
            sweeps: Vec::new(),
        };
        let mut named = false;
        for (key, field) in pairs {
            match key.as_str() {
                "name" => {
                    scenario.name = req_str(field, "name")?.to_string();
                    if scenario.name.is_empty() {
                        return err("\"name\" must not be empty");
                    }
                    named = true;
                }
                "scale" => {
                    let scale = match field {
                        Value::Float(f) => *f,
                        Value::Int(i) => *i as f64,
                        _ => return err("\"scale\" must be a number"),
                    };
                    if !scale.is_finite() || scale <= 0.0 {
                        return err(format!("\"scale\" must be a positive number, got {scale}"));
                    }
                    scenario.scale = scale;
                }
                "threads" => {
                    let threads = req_u64(field, "threads")?;
                    if threads == 0 {
                        return err("\"threads\" must be at least 1");
                    }
                    scenario.threads = Some(threads as usize);
                }
                "budget_steps" => {
                    let steps = req_u64(field, "budget_steps")?;
                    if steps == 0 {
                        return err("\"budget_steps\" must be at least 1");
                    }
                    scenario.budget_steps = Some(steps);
                }
                "pipeline" => {
                    scenario.pipeline = match field {
                        Value::Bool(b) => *b,
                        _ => return err("\"pipeline\" must be true or false"),
                    };
                }
                "driver_lag_quanta" => {
                    let lag = req_u64(field, "driver_lag_quanta")?;
                    if lag > MAX_DRIVER_LAG {
                        // req_u64 already rejected negatives and non-integers.
                        return err(format!(
                            "\"driver_lag_quanta\" must be at most {MAX_DRIVER_LAG}, got {lag}"
                        ));
                    }
                    scenario.driver_lag = Some(lag as usize);
                }
                "format" => {
                    let name = req_str(field, "format")?;
                    scenario.format = Some(AggregateFormat::parse(name).ok_or_else(|| {
                        ScenarioError(format!(
                            "unknown format '{name}' (expected text, json or csv)"
                        ))
                    })?);
                }
                "custom_topology" => {
                    scenario.custom_topology = Some(
                        CustomTopology::from_value(field)
                            .map_err(|e| ScenarioError(format!("\"custom_topology\": {e}")))?,
                    );
                }
                "cells" => {
                    let items = req_array(field, "cells")?;
                    for item in items {
                        scenario.cells.push(parse_cell(item)?);
                    }
                }
                "sweeps" => {
                    let items = req_array(field, "sweeps")?;
                    for item in items {
                        scenario.sweeps.push(parse_sweep(item)?);
                    }
                }
                other => return err(format!("unknown key \"{other}\"")),
            }
        }
        if !named {
            return err("missing required key \"name\"");
        }
        if scenario.plan().is_empty() {
            return err("scenario plans no cells (give \"cells\" and/or \"sweeps\")");
        }
        if scenario.custom_topology.is_some()
            && scenario
                .plan()
                .iter()
                .any(|(_, _, topo)| *topo != TopologySpec::Flat)
        {
            return err(
                "\"custom_topology\" replaces the topology axis; remove \"topology\"/\
                 \"topologies\" keys and xsocket sweeps",
            );
        }
        Ok(scenario)
    }

    /// The pipeline deployment the scenario requests: `"pipeline": true`
    /// runs each cell's driver+detector stage on a worker thread, and a
    /// `"driver_lag_quanta"` key sets the charge-back lag (and implies
    /// pipelining, mirroring the CLI's `--driver-lag`). Only a non-zero lag
    /// diverges from an inline run.
    pub fn pipeline_config(&self) -> PipelineConfig {
        PipelineConfig {
            enabled: self.pipeline || self.driver_lag.is_some(),
            driver_lag_quanta: self.driver_lag.unwrap_or(0),
        }
    }

    /// The resolved `(workload, tool, topology)` cells, deduplicated in
    /// sorted grid order — the order the campaign aggregates in.
    pub fn plan(&self) -> Vec<(String, ToolSpec, TopologySpec)> {
        let mut set: BTreeSet<(String, ToolSpec, TopologySpec)> = BTreeSet::new();
        for cell in &self.cells {
            set.insert((cell.workload.clone(), cell.tool, cell.topology));
        }
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
}

fn req_str<'a>(value: &'a Value, key: &str) -> Result<&'a str, ScenarioError> {
    match value {
        Value::Str(s) => Ok(s.as_str()),
        _ => err(format!("\"{key}\" must be a string")),
    }
}

fn req_u64(value: &Value, key: &str) -> Result<u64, ScenarioError> {
    match value {
        Value::Int(i) if *i >= 0 => Ok(*i as u64),
        _ => err(format!("\"{key}\" must be a non-negative integer")),
    }
}

fn req_array<'a>(value: &'a Value, key: &str) -> Result<&'a [Value], ScenarioError> {
    match value {
        Value::Array(items) => Ok(items),
        _ => err(format!("\"{key}\" must be an array")),
    }
}

fn parse_workload(name: &str) -> Result<String, ScenarioError> {
    if find(name).is_none() {
        return err(format!(
            "unknown workload '{name}' (names are case-sensitive; the alternative-input \
             histogram is \"histogram'\")"
        ));
    }
    Ok(name.to_string())
}

fn parse_tool(key: &str) -> Result<ToolSpec, ScenarioError> {
    ToolSpec::parse(key).ok_or_else(|| {
        ScenarioError(format!(
            "unknown tool '{key}' (expected native, native-fixed, laser, laser-detect, \
             laser-detect-raw, laser-detect-savN, vtune, sheriff-detect or sheriff-protect)"
        ))
    })
}

fn parse_topology(key: &str) -> Result<TopologySpec, ScenarioError> {
    TopologySpec::parse(key)
        .ok_or_else(|| ScenarioError(format!("unknown topology '{key}' (flat, 2s, 4s, 8s, 32s)")))
}

fn parse_cell(value: &Value) -> Result<ScenarioCell, ScenarioError> {
    let pairs = match value {
        Value::Object(pairs) => pairs,
        _ => return err("each cell must be an object"),
    };
    let mut workload = None;
    let mut tool = None;
    let mut topology = TopologySpec::Flat;
    for (key, field) in pairs {
        match key.as_str() {
            "workload" => workload = Some(parse_workload(req_str(field, "workload")?)?),
            "tool" => tool = Some(parse_tool(req_str(field, "tool")?)?),
            "topology" => topology = parse_topology(req_str(field, "topology")?)?,
            other => return err(format!("unknown cell key \"{other}\"")),
        }
    }
    match (workload, tool) {
        (Some(workload), Some(tool)) => Ok(ScenarioCell {
            workload,
            tool,
            topology,
        }),
        (None, _) => err("cell is missing \"workload\""),
        (_, None) => err("cell is missing \"tool\""),
    }
}

fn parse_sweep(value: &Value) -> Result<Sweep, ScenarioError> {
    let pairs = match value {
        Value::Object(pairs) => pairs,
        _ => return err("each sweep must be an object"),
    };
    let kind = match value.get("kind") {
        Some(kind) => req_str(kind, "kind")?,
        None => return err("sweep is missing \"kind\" (xsocket or grid)"),
    };
    match kind {
        "xsocket" => {
            let mut workloads = None;
            for (key, field) in pairs {
                match key.as_str() {
                    "kind" => {}
                    "workloads" => {
                        let mut names = Vec::new();
                        for item in req_array(field, "workloads")? {
                            names.push(parse_workload(req_str(item, "workloads")?)?);
                        }
                        if names.is_empty() {
                            return err("xsocket sweep \"workloads\" must not be empty");
                        }
                        workloads = Some(names);
                    }
                    other => return err(format!("unknown xsocket sweep key \"{other}\"")),
                }
            }
            Ok(Sweep::Xsocket { workloads })
        }
        "grid" => {
            let mut workloads = Vec::new();
            let mut tools = Vec::new();
            let mut topologies = vec![TopologySpec::Flat];
            for (key, field) in pairs {
                match key.as_str() {
                    "kind" => {}
                    "workloads" => {
                        for item in req_array(field, "workloads")? {
                            workloads.push(parse_workload(req_str(item, "workloads")?)?);
                        }
                    }
                    "tools" => {
                        for item in req_array(field, "tools")? {
                            tools.push(parse_tool(req_str(item, "tools")?)?);
                        }
                    }
                    "topologies" => {
                        topologies.clear();
                        for item in req_array(field, "topologies")? {
                            topologies.push(parse_topology(req_str(item, "topologies")?)?);
                        }
                        if topologies.is_empty() {
                            return err("grid sweep \"topologies\" must not be empty");
                        }
                    }
                    other => return err(format!("unknown grid sweep key \"{other}\"")),
                }
            }
            if workloads.is_empty() {
                return err("grid sweep needs a non-empty \"workloads\" array");
            }
            if tools.is_empty() {
                return err("grid sweep needs a non-empty \"tools\" array");
            }
            Ok(Sweep::Grid {
                workloads,
                tools,
                topologies,
            })
        }
        other => err(format!("unknown sweep kind '{other}' (xsocket or grid)")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_scenario() {
        let s = Scenario::parse(
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
        assert_eq!(s.scale, 0.25);
        assert_eq!(s.threads, Some(3));
        assert_eq!(s.budget_steps, Some(500000));
        assert!(s.pipeline);
        assert_eq!(s.driver_lag, Some(1));
        assert_eq!(
            s.pipeline_config(),
            PipelineConfig::pipelined().with_driver_lag(1)
        );
        assert_eq!(s.format, Some(AggregateFormat::Csv));
        assert_eq!(s.cells.len(), 2);
        assert_eq!(s.cells[1].topology, TopologySpec::Flat, "topology defaults");
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
        let s = Scenario::parse(
            r#"{"name": "one", "cells": [{"workload": "swaptions", "tool": "native"}]}"#,
        )
        .unwrap();
        assert_eq!(s.scale, 0.4);
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
        let s = Scenario::parse(
            r#"{"name": "l", "driver_lag_quanta": 3,
                "cells": [{"workload": "swaptions", "tool": "laser-detect"}]}"#,
        )
        .unwrap();
        assert!(!s.pipeline, "the boolean key itself stays untouched");
        assert_eq!(
            s.pipeline_config(),
            PipelineConfig::pipelined().with_driver_lag(3)
        );
        let s = Scenario::parse(
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
        let s = Scenario::parse(
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
        let s = Scenario::parse(r#"{"name": "x", "sweeps": [{"kind": "xsocket"}]}"#).unwrap();
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
        let s = Scenario::parse(
            r#"{"name": "x", "sweeps": [{"kind": "xsocket", "workloads": ["reverse_index"]}]}"#,
        )
        .unwrap();
        assert_eq!(s.plan().len(), 3 * TopologySpec::ALL.len());
    }

    #[test]
    fn plan_deduplicates_across_cells_and_sweeps() {
        let s = Scenario::parse(
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
            let e = Scenario::parse(text).unwrap_err();
            assert!(
                e.to_string().contains(needle),
                "{text} -> {e} (wanted {needle:?})"
            );
        }
    }
}
