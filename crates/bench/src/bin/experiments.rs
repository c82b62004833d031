//! The experiment driver: regenerates every table and figure of the paper.
//!
//! ```text
//! experiments [all|campaign|xsocket|fig2|fig3|table1|table2|fig9|fig10|fig11|fig12|fig13|fig14]
//!             [--scale S] [--threads N] [--only w1,w2,...] [--format text|json|csv]
//!             [--cell-budget-steps N] [--pipeline] [--driver-lag L]
//!             [--topology T] [--topology-file FILE] [--cache DIR] [--cache-stats FILE]
//! experiments scenario FILE... [--threads N] [--cache DIR] [--cache-stats FILE]
//! ```
//!
//! Every flag is a row of the run-specification table
//! (`laser_bench::spec::KNOBS`): it is parsed, validated and documented
//! there, exactly like the scenario-file key of the same knob, so a value
//! is accepted or rejected the same way on the command line and in a file.
//!
//! `--scale` multiplies every workload's input size (defaults in `--help`); the paper's
//! qualitative results hold across scales, larger values just take longer.
//!
//! Every figure/table runs through the shared [`Grid`] cell cache: the driver
//! plans the union of the cells the selected experiments need, runs each
//! unique `(workload, tool)` cell exactly once on the parallel campaign
//! runner (`--threads`, default: all cores), and derives each experiment from
//! the cached cells. Per-cell progress streams to **stderr** as cells
//! complete; stdout carries only the aggregated output, which is
//! byte-identical whatever the thread count.
//!
//! `--format json` emits one JSON document per experiment (JSON Lines when
//! several are selected); `--format csv` emits one CSV table per experiment,
//! prefixed with a `# name` comment line when several are selected (fig2,
//! a layout demonstration with no tabular form, is skipped under csv).
//! `campaign` runs the full `workload × tool` grid and supports `--only` to
//! restrict the workload set.
//!
//! `--cell-budget-steps N` bounds every cell at `N` retired instructions: a
//! budget observer rides the run's event stream (LASER cells are cancelled
//! mid-flight, single-event tools are marked after completion) and an
//! over-budget cell is recorded as a `budget-exceeded` outcome without
//! disturbing the rest of the grid. Step budgets are deterministic, so the
//! output stays byte-identical whatever `--threads` is.
//!
//! `--pipeline` deploys every LASER cell with its driver+detector stage on a
//! worker thread, overlapped with the simulated quantum behind a bounded job
//! channel (see `laser_core::PipelineConfig`). Pipelining raises throughput
//! when cells are fewer than worker threads; the output is **byte-identical**
//! to a non-pipelined run — CI diffs the two to prove it. `--driver-lag L`
//! settles each quantum's charges `L` boundaries late (and implies
//! `--pipeline`): deterministic, but not inline-identical for `L >= 1`.
//!
//! `--topology flat|2s|4s` deploys every cell's machine on a socket-topology
//! preset (4 cores per socket, threads scaled to match, multi-socket
//! placement round-robin across sockets); `flat` is the default and is
//! byte-identical to the pre-topology behaviour. fig2 and fig3 are derived
//! outside the workload grid, so a non-flat preset skips them (with a note)
//! rather than passing flat results off as multi-socket data. The `xsocket`
//! subcommand
//! sweeps the headline false-sharing workloads across *all* presets and
//! reports how the cross-socket HITM traffic — and repair's benefit — grows
//! with the socket count.
//!
//! Workload names in `--only` are validated up front: an unknown name in the
//! comma list (including an empty entry from a stray comma) is an error
//! before anything is simulated, never a silently smaller grid. Names are
//! exact — the alternative-input histogram really is called `histogram'`,
//! apostrophe included. Unknown `--topology` names are rejected the same
//! way.
//!
//! `--cache DIR` opens a persistent cell cache (`laser_bench::CellCache`):
//! every cell's full configuration is fingerprinted, previously-computed
//! cells are loaded instead of simulated, and new cells are written back for
//! the next invocation. Simulation is deterministic and the fingerprint
//! covers everything that feeds a cell, so a warm-cache rerun is
//! **byte-identical** to a cold one in every output format while simulating
//! zero cells — CI diffs the two to prove it. Cache statistics go to stderr
//! (never stdout), and `--cache-stats FILE` additionally writes them as JSON
//! to FILE.
//!
//! `scenario FILE...` runs scenario files — the JSON form of the same run
//! specification — and streams one JSON line per finished cell to stdout as
//! workers land them, then a `scenario-summary` line per scenario (see
//! `laser_bench::service`); diagnostics go to stderr. Every file is parsed
//! and validated before anything simulates, and an invalid one exits 2. The
//! file is the whole specification: next to it only the host-side
//! `--threads` (a scenario's own `"threads"` wins), `--cache` and
//! `--cache-stats` apply, and any other knob flag exits 2.

use std::env;
use std::io::Write as _;
use std::process::ExitCode;
use std::sync::Arc;

use laser_bench::accuracy::{
    fig9_from_grid, fig9_thresholds, plan_fig9, plan_table1, plan_table2, table1_from_grid,
    table2_from_grid,
};
use laser_bench::characterization::{fig2_layout, fig3_characterization_on};
use laser_bench::emit::Emit;
use laser_bench::performance::{
    fig10_from_grid, fig11_from_grid, fig12_from_grid, fig13_from_grid, fig13_savs,
    fig14_from_grid, plan_fig10, plan_fig11, plan_fig12, plan_fig13, plan_fig14,
};
use laser_bench::spec::{Knob, Scope, KNOBS};
use laser_bench::xsocket::{plan_xsocket, xsocket_from_grid};
use laser_bench::{
    run_scenario, AggregateFormat, CampaignProgress, CellCache, Front, Grid, GridResult, RunSpec,
    ServiceOptions, SpecError,
};
use serde::json::Value;

const FIGURES: &[&str] = &[
    "fig2", "fig3", "table1", "table2", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
];

/// Experiments beyond the paper's figures. `xsocket` is not part of `all`
/// (which regenerates exactly the paper's artifacts); it is requested by
/// name.
const EXTRAS: &[&str] = &["xsocket"];

/// The flags that may sit next to scenario files: the [`Scope::Host`]
/// knobs, host-side settings a scenario does not decide.
fn scenario_host_flags() -> impl Iterator<Item = &'static Knob> {
    KNOBS.iter().filter(|k| k.scope == Scope::Host)
}

fn usage() -> ExitCode {
    let host: String = scenario_host_flags()
        .filter_map(|k| k.synopsis(Front::Experiments))
        .map(|s| format!(" [{s}]"))
        .collect();
    eprintln!(
        "usage: experiments [all|campaign|xsocket|fig2|fig3|table1|table2|fig9|fig10|fig11|\
         fig12|fig13|fig14] [FLAG...]\n       \
         experiments scenario FILE...{host}\n\n{}",
        RunSpec::usage(Front::Experiments)
    );
    ExitCode::from(2)
}

/// Stderr progress sink: announce each cell as a worker claims it, and again
/// — with the result — when it finishes.
fn announce(progress: CampaignProgress) {
    match progress {
        CampaignProgress::Started { workload, tool, .. } => {
            eprintln!("        ... {workload} × {tool}");
        }
        CampaignProgress::Finished {
            done,
            total,
            cell,
            cached,
        } => {
            let origin = if cached { " [cached]" } else { "" };
            match &cell.outcome {
                Ok(run) => eprintln!(
                    "[{done}/{total}] {} × {}: ok ({} cycles, {} reported{}){origin}",
                    cell.workload,
                    cell.tool,
                    run.cycles,
                    run.reported.len(),
                    if run.repair_invoked { ", repaired" } else { "" }
                ),
                Err(failure) => eprintln!(
                    "[{done}/{total}] {} × {}: {failure}{origin}",
                    cell.workload, cell.tool
                ),
            }
        }
    }
}

/// Write an aggregated payload to stdout, surfacing write failures (a full
/// disk, a closed pipe) as a clean error instead of a `print!` panic.
fn write_stdout(payload: &str) -> Result<(), String> {
    let mut out = std::io::stdout().lock();
    out.write_all(payload.as_bytes())
        .and_then(|()| out.flush())
        .map_err(|e| format!("failed to write to stdout: {e}"))
}

fn run_campaign(
    spec: &RunSpec,
    format: AggregateFormat,
    cache: &Option<Arc<CellCache>>,
) -> Result<(), String> {
    let mut campaign = spec.campaign().map_err(|e| e.to_string())?;
    if let Some(cache) = cache {
        campaign = campaign.with_cache(Arc::clone(cache));
    }
    eprintln!(
        "running {} cells on {} worker threads...",
        campaign.cells(),
        campaign.threads()
    );
    let result = campaign.run_with_progress(announce);
    match format {
        AggregateFormat::Text => write_stdout(&result.render()),
        AggregateFormat::Json => write_stdout(&format!("{}\n", result.to_json().render())),
        AggregateFormat::Csv => write_stdout(&result.to_csv()),
    }
}

/// Run scenario files: parse and validate every one before anything
/// simulates, then stream each in turn. Returns `Err((exit code, message))`
/// — 2 for an unreadable or invalid scenario, 1 for a runtime failure.
fn run_scenarios(
    files: &[String],
    host: &RunSpec,
    cache: &Option<Arc<CellCache>>,
) -> Result<(), (u8, String)> {
    let mut scenarios = Vec::with_capacity(files.len());
    for file in files {
        let text = std::fs::read_to_string(file)
            .map_err(|e| (2, format!("failed to read {file}: {e}")))?;
        let scenario = RunSpec::parse(&text).map_err(|e| (2, format!("{file}: {e}")))?;
        scenarios.push((file, scenario));
    }
    let options = ServiceOptions {
        threads: host.threads,
        cache: cache.clone(),
    };
    for (file, scenario) in scenarios {
        eprintln!(
            "serving scenario '{}' from {file}: {} cells",
            scenario.name,
            scenario.plan().len()
        );
        let summary = run_scenario(&scenario, &options, std::io::stdout())
            .map_err(|e| (1, format!("{file}: {e}")))?;
        eprintln!(
            "scenario '{}' done: {} cells, {} ok, {} failed, {} cached, {} simulated",
            summary.scenario,
            summary.cells,
            summary.ok,
            summary.failed,
            summary.cached,
            summary.simulated
        );
        finish_cache(cache, &host.cache_stats).map_err(|e| (1, e))?;
    }
    Ok(())
}

/// Experiments that do not run workloads through the grid, so a topology
/// preset cannot change them.
fn topology_independent(which: &str) -> bool {
    matches!(which, "fig2" | "fig3")
}

fn plan_one(which: &str, grid: &mut Grid) {
    match which {
        "xsocket" => plan_xsocket(grid),
        "table1" => plan_table1(grid),
        "table2" => plan_table2(grid),
        "fig9" => plan_fig9(grid),
        "fig10" => plan_fig10(grid),
        "fig11" => plan_fig11(grid),
        "fig12" => plan_fig12(grid),
        "fig13" => plan_fig13(grid, &fig13_savs()),
        "fig14" => plan_fig14(grid),
        // fig2 (a layout demonstration) and fig3 (characterization cases)
        // have no workload × tool cells.
        _ => {}
    }
}

/// Derive one experiment from the shared grid and format it as `format`.
fn derive_one(
    which: &str,
    grid: &Option<GridResult>,
    workload_scale: f64,
    threads: usize,
    format: AggregateFormat,
) -> Result<String, String> {
    let grid = |name: &str| -> Result<&GridResult, String> {
        grid.as_ref()
            .ok_or_else(|| format!("experiment {name} needs a grid (internal error)"))
    };
    let emit = |text: String, report: &dyn Emit| match format {
        AggregateFormat::Text => text,
        AggregateFormat::Json => format!("{}\n", report.to_json().render()),
        AggregateFormat::Csv => report.to_csv(),
    };
    let err = |e: laser_bench::ExperimentError| format!("experiment {which} failed: {e}");
    match which {
        "fig2" => match format {
            AggregateFormat::Text => Ok(fig2_layout()),
            AggregateFormat::Json => Ok(format!(
                "{}\n",
                Value::object()
                    .set("kind", "fig2")
                    .set("text", fig2_layout())
                    .render()
            )),
            AggregateFormat::Csv => {
                Err("fig2 is a layout demonstration with no csv form".to_string())
            }
        },
        "fig3" => {
            let per_category = if workload_scale < 0.2 { 5 } else { 40 };
            let report = fig3_characterization_on(per_category, threads);
            Ok(emit(report.render(), &report))
        }
        "table1" => {
            let report = table1_from_grid(grid(which)?).map_err(err)?;
            Ok(emit(report.render(), &report))
        }
        "table2" => {
            let report = table2_from_grid(grid(which)?).map_err(err)?;
            Ok(emit(report.render(), &report))
        }
        "fig9" => {
            let report = fig9_from_grid(grid(which)?, &fig9_thresholds()).map_err(err)?;
            Ok(emit(report.render(), &report))
        }
        "fig10" => {
            let report = fig10_from_grid(grid(which)?).map_err(err)?;
            Ok(emit(report.render(), &report))
        }
        "fig11" => {
            let report = fig11_from_grid(grid(which)?).map_err(err)?;
            Ok(emit(report.render(), &report))
        }
        "fig12" => {
            let report = fig12_from_grid(grid(which)?, 0.10).map_err(err)?;
            Ok(emit(report.render(), &report))
        }
        "fig13" => {
            let report = fig13_from_grid(grid(which)?, &fig13_savs()).map_err(err)?;
            Ok(emit(report.render(), &report))
        }
        "fig14" => {
            let report = fig14_from_grid(grid(which)?).map_err(err)?;
            Ok(emit(report.render(), &report))
        }
        "xsocket" => {
            let report = xsocket_from_grid(grid(which)?).map_err(err)?;
            Ok(emit(report.render(), &report))
        }
        other => Err(format!("unknown experiment '{other}'")),
    }
}

fn run_figures(
    selected: &[&str],
    spec: &RunSpec,
    format: AggregateFormat,
    cache: &Option<Arc<CellCache>>,
) -> Result<(), String> {
    // Resolve format incompatibilities before any cell is simulated: fig2
    // has no csv form, so an `all --format csv` run skips it (with a note)
    // instead of discarding the whole grid's work at derive time, and an
    // explicit `fig2 --format csv` fails up front.
    let selected: Vec<&str> = if format == AggregateFormat::Csv && selected.contains(&"fig2") {
        if selected.len() == 1 {
            return Err("fig2 is a layout demonstration with no csv form".to_string());
        }
        eprintln!("skipping fig2: a layout demonstration with no csv form");
        selected.iter().copied().filter(|&s| s != "fig2").collect()
    } else {
        selected.to_vec()
    };

    // Same policy for the topology axis: fig2 (an allocator-layout demo) and
    // fig3 (PEBS record characterization on fixed two-thread cases) are
    // derived outside the workload grid, so a topology preset cannot apply
    // to them — skip them with a note rather than silently reporting flat
    // results as if they were 2s/4s data, and fail an explicit request.
    let flat = spec.topology() == laser_bench::TopologySpec::Flat;
    let selected: Vec<&str> = if !flat && selected.iter().any(|s| topology_independent(s)) {
        if selected.iter().all(|s| topology_independent(s)) {
            return Err(format!(
                "{} is derived outside the workload grid; --topology does not apply",
                selected.join(", ")
            ));
        }
        for s in selected.iter().filter(|s| topology_independent(s)) {
            eprintln!("skipping {s}: derived outside the workload grid, --topology does not apply");
        }
        selected
            .iter()
            .copied()
            .filter(|s| !topology_independent(s))
            .collect()
    } else {
        selected
    };

    // One grid for everything selected: shared cells (every figure wants the
    // native baseline, both tables want laser-detect, ...) are planned once
    // and simulated once.
    let scale = spec.experiment_scale();
    let mut grid = Grid::new(scale)
        .with_cell_budget(spec.budget())
        .with_pipeline(spec.pipeline_config())
        .with_topology(spec.topology());
    if let Some(n) = spec.threads {
        grid = grid.with_threads(n);
    }
    if let Some(cache) = cache {
        grid = grid.with_cache(Arc::clone(cache));
    }
    let grid_threads = grid.threads();
    for which in &selected {
        plan_one(which, &mut grid);
    }
    let total = grid.cells();
    let grid_result = if total > 0 {
        eprintln!("running {total} unique cells on {grid_threads} worker threads...");
        Some(grid.run_with_progress(announce))
    } else {
        None
    };

    let many = selected.len() > 1;
    for which in &selected {
        let payload = derive_one(
            which,
            &grid_result,
            scale.workload_scale,
            grid_threads,
            format,
        )?;
        let mut block = String::new();
        match format {
            AggregateFormat::Text => {
                block.push_str(&format!(
                    "==================== {which} ====================\n"
                ));
                block.push_str(&payload);
                block.push('\n');
            }
            AggregateFormat::Json => block.push_str(&payload),
            AggregateFormat::Csv => {
                if many {
                    block.push_str(&format!("# {which}\n"));
                }
                block.push_str(&payload);
                if many {
                    block.push('\n');
                }
            }
        }
        write_stdout(&block)?;
    }
    Ok(())
}

/// The parsed command line.
#[derive(Debug, PartialEq)]
struct Cli {
    which: String,
    /// Scenario files (`scenario` only).
    files: Vec<String>,
    /// Every knob flag, parsed through the run-spec table, with the table's
    /// defaults for the rest.
    spec: RunSpec,
    /// The output format (the `--format` knob).
    format: AggregateFormat,
}

/// Why the command line was rejected.
#[derive(Debug, PartialEq)]
enum CliError {
    /// Malformed subcommand (or an explicit `--help`): print usage, exit 2.
    Usage,
    /// A well-formed but invalid request (e.g. an unknown `--only` name):
    /// print the message, then usage, exit 2.
    Invalid(String),
}

impl Cli {
    /// Parse and validate `args` (the command line without the program name).
    ///
    /// Validation happens *up front*, before anything is simulated, through
    /// the run-spec table: every `--only` name must exist in the workload
    /// registry, every number must be in range, every preset name must
    /// exist — the same checks a scenario file's keys get.
    fn parse(args: &[String]) -> Result<Cli, CliError> {
        let mut which: Option<String> = None;
        let mut files = Vec::new();
        let mut help = false;
        let (spec, given) = RunSpec::from_args(Front::Experiments, args, |rest| {
            let arg = rest[0].as_str();
            match arg {
                "--help" | "-h" => help = true,
                flag if flag.starts_with('-') => {
                    return Err(SpecError(format!("unknown flag '{flag}'")));
                }
                _ if which.is_none() => which = Some(arg.to_string()),
                _ => files.push(arg.to_string()),
            }
            Ok(1)
        })
        .map_err(|e| CliError::Invalid(e.to_string()))?;
        if help {
            return Err(CliError::Usage);
        }
        let which = which.unwrap_or_else(|| "all".to_string());
        if which == "scenario" {
            if files.is_empty() {
                return Err(CliError::Invalid(
                    "scenario needs at least one scenario FILE".to_string(),
                ));
            }
            if let Some(knob) = given.iter().find(|k| k.scope != Scope::Host) {
                let host: Vec<&str> = scenario_host_flags().map(flag).collect();
                return Err(CliError::Invalid(format!(
                    "{}: a scenario file is the whole run specification; next to it only \
                     {} apply",
                    flag(knob),
                    host.join(", ")
                )));
            }
        } else if !files.is_empty()
            || which != "campaign"
                && which != "all"
                && !FIGURES.contains(&which.as_str())
                && !EXTRAS.contains(&which.as_str())
        {
            return Err(CliError::Usage);
        }
        if which != "campaign" {
            if let Some(knob) = given.iter().find(|k| k.scope == Scope::Campaign) {
                return Err(CliError::Invalid(format!(
                    "{} only applies to the campaign subcommand",
                    flag(knob)
                )));
            }
        }
        let spec = spec
            .with_defaults(Front::Experiments, Some(&which), &given)
            .map_err(|e| CliError::Invalid(e.to_string()))?;
        let format = spec
            .format
            .ok_or_else(|| CliError::Invalid("--format has no default".to_string()))?;
        Ok(Cli {
            which,
            files,
            spec,
            format,
        })
    }
}

fn flag(knob: &Knob) -> &'static str {
    knob.flag(Front::Experiments).unwrap_or(knob.name)
}

/// After a cached run: report statistics to stderr (never stdout — the
/// aggregated output must stay byte-identical, cold or warm), optionally
/// write them as JSON to the `--cache-stats` file, and surface any cache
/// write failure as a clean error.
fn finish_cache(cache: &Option<Arc<CellCache>>, stats_file: &Option<String>) -> Result<(), String> {
    let Some(cache) = cache else {
        return Ok(());
    };
    let stats = cache.stats();
    eprintln!("{}", stats.render());
    if let Some(path) = stats_file {
        std::fs::write(path, format!("{}\n", stats.to_json().render()))
            .map_err(|e| format!("failed to write cache stats to {path}: {e}"))?;
    }
    if let Some(message) = cache.write_error() {
        return Err(format!("cell cache write failed: {message}"));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let cli = match Cli::parse(&args) {
        Ok(cli) => cli,
        Err(CliError::Usage) => return usage(),
        Err(CliError::Invalid(msg)) => {
            eprintln!("{msg}");
            return usage();
        }
    };
    let spec = &cli.spec;
    let cache = match &spec.cache {
        Some(dir) => match CellCache::open(dir) {
            Ok(cache) => Some(Arc::new(cache)),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    let format = cli.format;
    let outcome = match cli.which.as_str() {
        "scenario" => run_scenarios(&cli.files, spec, &cache),
        "campaign" => run_campaign(spec, format, &cache)
            .and_then(|()| finish_cache(&cache, &spec.cache_stats))
            .map_err(|msg| (2, msg)),
        which => {
            let selected: Vec<&str> = if which == "all" {
                FIGURES.to_vec()
            } else {
                vec![which]
            };
            run_figures(&selected, spec, format, &cache)
                .and_then(|()| finish_cache(&cache, &spec.cache_stats))
                .map_err(|msg| (1, msg))
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err((code, msg)) => {
            eprintln!("{msg}");
            if code == 2 && cli.which == "scenario" {
                return usage();
            }
            ExitCode::from(code)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laser_bench::TopologySpec;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn invalid(list: &[&str]) -> String {
        match Cli::parse(&args(list)) {
            Err(CliError::Invalid(msg)) => msg,
            other => panic!("{list:?}: expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn defaults_parse_to_all_figures_inline() {
        let cli = Cli::parse(&[]).unwrap();
        assert_eq!(cli.which, "all");
        assert_eq!(cli.format, AggregateFormat::Text);
        assert_eq!(cli.spec.scale, Some(0.4));
        assert_eq!(cli.spec.topology(), TopologySpec::Flat);
        assert_eq!(cli.spec.pipeline_config(), Default::default());
        assert_eq!(cli.spec.threads, None);
        // xsocket has a scale default of its own; an explicit flag wins.
        let xsocket = Cli::parse(&args(&["xsocket"])).unwrap();
        assert_eq!(xsocket.spec.scale, Some(1.0));
    }

    #[test]
    fn knob_flags_build_the_run_spec() {
        let cli = Cli::parse(&args(&[
            "campaign",
            "--topology",
            "8s",
            "--pipeline",
            "--threads",
            "2",
            "--only",
            "histogram',swaptions",
        ]))
        .unwrap();
        assert_eq!(cli.spec.topology(), TopologySpec::OctoSocket);
        assert!(cli.spec.pipeline_config().enabled);
        assert_eq!(cli.spec.threads, Some(2));
        let cli = Cli::parse(&args(&["xsocket", "--scale", "0.5"])).unwrap();
        assert_eq!(cli.which, "xsocket");
        assert_eq!(cli.spec.scale, Some(0.5));
        assert!(!FIGURES.contains(&"xsocket"), "xsocket must not join `all`");
    }

    #[test]
    fn invalid_values_are_rejected_with_the_spec_message() {
        assert!(invalid(&["--scale", "0"]).contains("--scale must be a positive number"));
        assert!(invalid(&["--threads", "0"]).contains("--threads must be at least 1"));
        assert!(invalid(&["campaign", "--topology", "16s"]).contains("unknown topology '16s'"));
        assert!(invalid(&["campaign", "--only", "histogramm"]).contains("histogram'"));
        assert!(invalid(&["--cache-stats", "s.json"]).contains("requires --cache"));
        assert!(invalid(&["--bogus"]).contains("unknown flag '--bogus'"));
    }

    #[test]
    fn campaign_only_knobs_are_rejected_elsewhere() {
        assert_eq!(
            invalid(&["fig10", "--only", "swaptions"]),
            "--only only applies to the campaign subcommand"
        );
        let layout = std::env::temp_dir().join("experiments-cli-layout.json");
        std::fs::write(
            &layout,
            r#"{"name": "solo", "core_blocks": [4],
                "remote": {"remote_hitm": 220, "remote_llc": 100, "remote_dram": 310}}"#,
        )
        .unwrap();
        let layout = layout.to_str().unwrap();
        assert_eq!(
            invalid(&["xsocket", "--topology-file", layout]),
            "--topology-file only applies to the campaign subcommand"
        );
        // A bespoke layout replaces the preset axis.
        assert!(
            invalid(&["campaign", "--topology", "2s", "--topology-file", layout])
                .contains("replaces the topology axis")
        );
        assert!(Cli::parse(&args(&["campaign", "--topology-file", layout]))
            .unwrap()
            .spec
            .custom_topology
            .is_some());
    }

    #[test]
    fn scenario_takes_files_and_only_host_knobs() {
        let cli = Cli::parse(&args(&[
            "scenario",
            "a.json",
            "b.json",
            "--threads",
            "2",
            "--cache",
            "dir",
        ]))
        .unwrap();
        assert_eq!(cli.files, ["a.json", "b.json"]);
        assert_eq!(cli.spec.threads, Some(2));
        assert!(invalid(&["scenario"]).contains("at least one scenario FILE"));
        for knob in [
            &["--scale", "0.5"][..],
            &["--pipeline"],
            &["--format", "csv"],
        ] {
            let mut list = vec!["scenario", "a.json"];
            list.extend_from_slice(knob);
            assert!(
                invalid(&list).contains("whole run specification"),
                "{list:?}"
            );
        }
    }

    #[test]
    fn unknown_subcommands_and_help_are_usage_errors() {
        assert_eq!(Cli::parse(&args(&["fig99"])).unwrap_err(), CliError::Usage);
        assert_eq!(
            Cli::parse(&args(&["fig10", "fig11"])).unwrap_err(),
            CliError::Usage
        );
        assert_eq!(Cli::parse(&args(&["--help"])).unwrap_err(), CliError::Usage);
    }
}
