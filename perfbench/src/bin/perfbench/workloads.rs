//! The four workloads: how each one repeats its job for the run's seconds,
//! checks what it produced, and turns the passes into metrics.

use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

use laser_core::{LaserConfig, LaserOutcome, TopologySpec};
use laser_workloads::find;

use crate::figures;
use crate::metrics::{Values, END_TO_END, PER_LAYER};
use crate::probe::{self, Probe};
use crate::session::{self, Case, Fault};
use crate::spans::Spans;
use crate::stats::{median, percentile, quartiles};
use crate::{Cli, RunResult};

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: &[&str] = &[
    "figures_cold",
    "figures_warm",
    "session_detect",
    "session_repair",
];

/// Input scale of the figure job: the `experiments` default.
pub const FIGURE_SCALE: f64 = 0.4;

/// Passes every run makes, however short its `--seconds`, so medians and
/// the cross-pass checks always have something to work with.
const MIN_PASSES: usize = 3;

/// Run the workload `cli` names.
///
/// # Errors
/// A failure that leaves nothing to report: a cache directory that cannot
/// be reset, or a figure job that cannot complete.
pub fn run(cli: &Cli) -> Result<RunResult, String> {
    match cli.workload.as_str() {
        "figures_cold" => run_figures(cli, false),
        "figures_warm" => run_figures(cli, true),
        "session_detect" => Ok(run_sessions(cli, &session_job(false))),
        "session_repair" => Ok(run_sessions(cli, &session_job(true))),
        other => Err(format!("unknown workload {other}")),
    }
}

/// The session workloads' fixed jobs. `session_detect` samples every HITM
/// with repair off; `session_repair` runs the paper's deployment (SAV 19,
/// repair on) where the repair plan attaches in every session.
///
/// The PMU imprecision draws use the paper's configuration seed
/// (`LaserConfig::default().seed`), as the figure job does, so every run
/// simulates the same sessions whatever its `--seed`. Feeding the run's
/// seed to the imprecision draws would make the simulated metrics depend
/// on it: on seeds such as 13 and 2024 one `session_repair` session never
/// arms its repair and runs 5x the cycles.
pub fn session_job(repair: bool) -> session::Job {
    use TopologySpec::{Flat, QuadSocket};
    let (cases, scale, sav): (&[(&str, TopologySpec)], f64, u32) = if repair {
        // `linear_regression` on flat is left out: its repair trigger fires
        // on only some seeds, and its cycles grow 4.5x when it does not.
        (
            &[
                ("histogram'", Flat),
                ("histogram'", QuadSocket),
                ("linear_regression", QuadSocket),
            ],
            8.0,
            19,
        )
    } else {
        (
            &[
                ("histogram'", Flat),
                ("histogram'", QuadSocket),
                ("linear_regression", Flat),
                ("linear_regression", QuadSocket),
                ("reverse_index", Flat),
                ("reverse_index", QuadSocket),
            ],
            4.0,
            1,
        )
    };
    session::Job {
        cases: cases
            .iter()
            .map(|(name, topology)| Case {
                spec: find(name).expect("session workloads are registered"),
                topology: *topology,
            })
            .collect(),
        scale,
        config: LaserConfig {
            sav,
            enable_repair: repair,
            ..LaserConfig::default()
        },
    }
}

/// The passes of a run, and the host-speed probe time before each timed
/// untraced pass.
struct Passes<P> {
    plain: Vec<P>,
    traced: Vec<P>,
    probe_s: Vec<f64>,
}

/// After one untimed warm-up pass, alternate untraced and (with `--trace
/// 1`) traced passes until the run's seconds are spent, probing the host's
/// speed before each untraced pass. The warm-up pass comes first in the
/// untraced list, and is checked like the others but left out of every
/// timing.
fn repeat<P>(
    cli: &Cli,
    mut untraced: impl FnMut() -> Result<P, String>,
    mut traced: impl FnMut() -> Result<P, String>,
) -> Result<Passes<P>, String> {
    let mut probe = Probe::default();
    probe.time();
    let mut passes = Passes {
        plain: vec![untraced()?],
        traced: Vec::new(),
        probe_s: Vec::new(),
    };
    let deadline = Instant::now() + Duration::from_secs_f64(cli.seconds);
    while passes.plain.len() <= MIN_PASSES || Instant::now() < deadline {
        passes.probe_s.push(probe.time().0);
        passes.plain.push(untraced()?);
        if cli.trace {
            passes.traced.push(traced()?);
        }
    }
    Ok(passes)
}

/// Set the timed end-to-end metrics from the untraced passes' host times,
/// each scaled to the reference host speed by the probe taken just before
/// it (see [`probe`]), and report the spread of the raw samples.
fn set_times(
    out: &mut RunResult,
    values: &mut Values,
    walls: &[f64],
    setups: &[f64],
    probe_s: &[f64],
    sim_cycles: f64,
) {
    report_spread(out, "host wall_s", walls);
    report_spread(out, "host setup_s", setups);
    report_spread(out, "probe_s", probe_s);
    let scaled = |times: &[f64]| -> Vec<f64> {
        times
            .iter()
            .zip(probe_s)
            .map(|(t, p)| t * probe::REFERENCE_S / p)
            .collect()
    };
    let (walls, setups) = (scaled(walls), scaled(setups));
    report_spread(out, "wall_s", &walls);
    let wall = median(&walls);
    values.set("wall_s", wall);
    values.set("setup_s", median(&setups));
    values.set("sim_cycles_per_s", sim_cycles / wall);
}

fn run_sessions(cli: &Cli, job: &session::Job) -> RunResult {
    let mut spans = Spans::default();
    let Passes {
        plain,
        traced,
        probe_s,
    } = repeat(
        cli,
        || Ok(job.run()),
        || Ok(job.replay(&mut spans, Fault::None)),
    )
    .expect("session passes report errors per session");
    let mut out = RunResult::default();
    let reference = &plain[0];

    // Every pass must reproduce the first exactly, and so must the layer
    // replay: the traced passes, or one extra replay on an untraced run.
    let check_replay = if cli.trace {
        Vec::new()
    } else {
        vec![job.replay(&mut Spans::default(), Fault::None)]
    };
    let passes = plain
        .iter()
        .map(|p| ("pass", p))
        .chain(traced.iter().chain(&check_replay).map(|p| ("replay", p)));
    for (i, (kind, pass)) in passes.enumerate() {
        for ((case, got), want) in job
            .cases
            .iter()
            .zip(&pass.sessions)
            .zip(&reference.sessions)
        {
            out.attempted += 1;
            let label = format!("{kind} {i} {} on {}", case.spec.name, case.topology.key());
            match (got, want) {
                (Err(e), _) => out.problems.push(format!("{label}: {e}")),
                (Ok(got), Ok(want)) if got.fingerprint != want.fingerprint => out
                    .problems
                    .push(format!("{label}: outcome differs from the first pass")),
                _ => {}
            }
        }
    }

    let outcomes: Vec<(&Case, &LaserOutcome)> = job
        .cases
        .iter()
        .zip(&reference.sessions)
        .filter_map(|(case, s)| Some((case, &s.as_ref().ok()?.outcome)))
        .collect();
    let sum = |f: &dyn Fn(&LaserOutcome) -> u64| outcomes.iter().map(|(_, o)| f(o)).sum::<u64>();
    let counters = [
        ("steps", sum(&|o| o.run.steps)),
        ("hitm_local", sum(&|o| o.run.stats.hitm_local)),
        ("hitm_remote", sum(&|o| o.run.stats.hitm_remote)),
        ("records_sampled", sum(&|o| o.driver_stats.records_sampled)),
        ("interrupts", sum(&|o| o.driver_stats.interrupts)),
        ("detector_records", sum(&|o| o.report.total_records)),
        (
            "ssb_buffered_stores",
            sum(&|o| repair(o, |s| s.stats.buffered_stores)),
        ),
        ("ssb_flushes", sum(&|o| repair(o, |s| s.stats.flushes))),
    ];
    out.report.push(format!(
        "workload {}: {} sessions per pass at scale {}, seed {} (unused); \
         1 warm-up pass, {} timed untraced passes, {} traced",
        cli.workload,
        job.cases.len(),
        job.scale,
        cli.seed,
        plain.len() - 1,
        traced.len()
    ));
    for (name, value) in counters {
        out.report.push(format!(
            "counter {name} = {value} (identical on every pass)"
        ));
    }

    let walls: Vec<f64> = plain[1..].iter().map(|p| p.wall_s).collect();
    let mut values = Values::default();
    if cli.trace {
        let traced_wall: f64 = traced.iter().map(|p| p.wall_s).sum();
        let per_pass = traced.len() as f64;
        for span in session::SPANS {
            let secs = spans.secs(span);
            out.report.push(format!(
                "span {span}: {:.6} s per pass, {:.4} of traced wall",
                secs / per_pass,
                secs / traced_wall
            ));
        }
        let share = |span: &str| spans.secs(span) / traced_wall;
        values.set("workloads.build_frac", share("workloads.build"));
        values.set("machine.new_frac", share("machine.new"));
        values.set("core.session.build_frac", share("core.session.build"));
        values.set("machine.run_quantum_frac", share("machine.run_quantum"));
        values.set(
            "machine.hooked.run_quantum_frac",
            share("machine.hooked.run_quantum"),
        );
        values.set("pebs.ingest_frac", share("pebs.ingest"));
        values.set("pebs.read_records_frac", share("pebs.read_records"));
        values.set("core.detect.process_frac", share("core.detect.process"));
        values.set("core.detect.report_frac", share("core.detect.report"));
        values.set("core.repair.arm_frac", share("core.repair.arm"));
        // The session engine's own time: the untraced pass minus what the
        // replay spent inside the layers for the same work.
        let layers: f64 = session::SPANS
            .iter()
            .filter(|s| **s != "machine.new")
            .map(|s| spans.secs(s))
            .sum::<f64>()
            / per_pass;
        let untraced_wall = median(&walls);
        values.set(
            "core.session.self_frac",
            (untraced_wall - layers) / untraced_wall,
        );
        let rate = |steps: &str, span: &str| {
            let secs = spans.secs(span);
            if secs > 0.0 {
                spans.total(steps) as f64 / secs
            } else {
                0.0
            }
        };
        values.set(
            "machine.steps_per_s",
            rate("machine.steps", "machine.run_quantum"),
        );
        values.set(
            "machine.hooked.steps_per_s",
            rate("machine.hooked.steps", "machine.hooked.run_quantum"),
        );
        let count = |name: &str| spans.total(name) as f64 / per_pass;
        values.set("machine.steps", count("machine.steps"));
        values.set("machine.hooked.steps", count("machine.hooked.steps"));
        values.set("core.detect.records", count("core.detect.records"));
        let sum = |f: &dyn Fn(&LaserOutcome) -> u64| sum(f) as f64;
        values.set("machine.hitm_events", sum(&|o| o.run.stats.hitm_events));
        values.set("machine.hitm_local", sum(&|o| o.run.stats.hitm_local));
        values.set("machine.hitm_remote", sum(&|o| o.run.stats.hitm_remote));
        values.set(
            "pebs.events_observed",
            sum(&|o| o.driver_stats.events_observed),
        );
        values.set(
            "pebs.records_sampled",
            sum(&|o| o.driver_stats.records_sampled),
        );
        values.set("pebs.interrupts", sum(&|o| o.driver_stats.interrupts));
        values.set(
            "pebs.records_dropped",
            sum(&|o| o.driver_stats.records_dropped),
        );
        values.set(
            "core.repair.triggered_at_cycle",
            sum(&|o| repair(o, |s| s.triggered_at_cycle)),
        );
        values.set(
            "core.repair.buffered_stores",
            sum(&|o| repair(o, |s| s.stats.buffered_stores)),
        );
        values.set(
            "core.repair.flushes",
            sum(&|o| repair(o, |s| s.stats.flushes)),
        );
        let traced_walls: Vec<f64> = traced.iter().map(|p| p.wall_s).collect();
        values.set(
            "trace.overhead_frac",
            median(&traced_walls) / untraced_wall - 1.0,
        );
        out.metrics = values.emit(PER_LAYER);
    } else {
        let native = job.native_cycles().unwrap_or_else(|e| {
            out.problems.push(format!("native reference run: {e}"));
            vec![1; job.cases.len()]
        });
        let scored: Vec<(&Case, &LaserOutcome, u64)> = job
            .cases
            .iter()
            .zip(&reference.sessions)
            .zip(native)
            .filter_map(|((case, s), native)| Some((case, &s.as_ref().ok()?.outcome, native)))
            .collect();
        let fidelity = session::fidelity(&scored);
        let sim_cycles = sum(&|o| o.run.cycles) as f64;
        let setups: Vec<f64> = plain[1..].iter().map(|p| p.setup_s).collect();
        set_times(&mut out, &mut values, &walls, &setups, &probe_s, sim_cycles);
        values.set("sim_cycles", sim_cycles);
        values.set("laser_slowdown_geomean", fidelity.slowdown_geomean);
        values.set("laser_bugs_found", fidelity.bugs_found as f64);
        values.set("laser_precision", fidelity.precision);
        values.set("laser_types_correct", fidelity.types_correct as f64);
        finish_end_to_end(&mut out, values);
    }
    out
}

fn repair(outcome: &LaserOutcome, f: impl Fn(&laser_core::RepairSummary) -> u64) -> u64 {
    outcome.repair.as_ref().map_or(0, f)
}

/// Remove `dir` if it exists, so the next cache open starts empty.
fn reset(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("cannot reset {}: {e}", dir.display())),
    }
}

fn run_figures(cli: &Cli, warm: bool) -> Result<RunResult, String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let job = figures::Job {
        scale: FIGURE_SCALE,
        threads,
        cache_dir: cli.work_dir.join(format!("{}-cache", cli.workload)),
    };
    reset(&job.cache_dir)?;
    // The warm workload fills its cache before timing starts.
    let fill = if warm { Some(job.pass(None)?) } else { None };
    let mut spans = Spans::default();
    let pass = |spans: Option<&mut Spans>| {
        if !warm {
            reset(&job.cache_dir)?;
        }
        job.pass(spans)
    };
    let Passes {
        plain,
        traced,
        probe_s,
    } = repeat(cli, || pass(None), || pass(Some(&mut spans)))?;
    let mut out = RunResult::default();
    let reference = fill.as_ref().unwrap_or(&plain[0]);

    let counters = |p: &figures::Pass| {
        [
            ("cells_ok", p.cells.ok),
            ("cells_unsupported", p.cells.unsupported),
            ("cells_failed", p.cells.failed),
            ("cache_hits", p.cache.hits),
            ("cache_misses", p.cache.misses),
            ("cache_stored", p.cache.stored),
        ]
    };
    let first = &plain[0];
    for (i, p) in plain.iter().chain(&traced).enumerate() {
        out.attempted += p.cells.ok + p.cells.unsupported + p.cells.failed;
        if p.cells.failed > 0 {
            out.problems
                .push(format!("pass {i}: {} grid cells failed", p.cells.failed));
        }
        if p.json != reference.json {
            out.problems
                .push(format!("pass {i}: figure JSON differs from the first pass"));
        }
        if counters(p) != counters(first) {
            out.problems.push(format!(
                "pass {i}: work counters differ from the first pass"
            ));
        }
        let simulated = p.cache.misses + p.cache.stored;
        if warm && simulated > 0 {
            out.problems
                .push(format!("pass {i}: a warm pass simulated {simulated} cells"));
        }
        if !warm && p.cache.hits > 0 {
            out.problems.push(format!(
                "pass {i}: a cold pass was served {} cells",
                p.cache.hits
            ));
        }
    }
    if !warm {
        // The cache the last cold pass wrote must serve the same bytes.
        out.attempted += 1;
        let rerun = job.pass(None)?;
        if rerun.json != reference.json || rerun.cache.misses > 0 {
            out.problems
                .push("a warm rerun of the cold cache differs from the cold pass".to_string());
        }
    }
    out.attempted += 1;
    if let Err(e) = compare_with_experiments(cli, threads, &reference.json) {
        out.problems.push(e);
    }

    out.report.push(format!(
        "workload {}: experiments all at scale {FIGURE_SCALE} on {threads} threads; \
         1 warm-up pass, {} timed untraced passes, {} traced",
        cli.workload,
        plain.len() - 1,
        traced.len()
    ));
    for (name, value) in counters(first) {
        out.report.push(format!(
            "counter {name} = {value} (identical on every pass)"
        ));
    }

    let f = reference.fidelity;
    let walls: Vec<f64> = plain[1..].iter().map(|p| p.wall_s).collect();
    let mut values = Values::default();
    if cli.trace {
        let traced_wall: f64 = traced.iter().map(|p| p.wall_s).sum();
        let per_pass = traced.len() as f64;
        for span in FIGURE_SPANS {
            let secs = spans.secs(span);
            out.report.push(format!(
                "span {span}: {:.6} s per pass, {:.4} of traced wall",
                secs / per_pass,
                secs / traced_wall
            ));
        }
        let share = |span: &str| spans.secs(span) / traced_wall;
        values.set("bench.plan_frac", share("bench.plan"));
        values.set("bench.cache.open_frac", share("bench.cache.open"));
        values.set("bench.grid.run_frac", share("bench.grid.run"));
        values.set(
            "bench.characterization.fig3_frac",
            share("bench.characterization.fig3"),
        );
        values.set("bench.derive_frac", share("bench.derive"));
        values.set("bench.emit_frac", share("bench.emit"));

        let grid_run = spans.secs("bench.grid.run");
        let capacity = grid_run * threads as f64;
        let cells: Vec<&figures::CellTime> = traced.iter().flat_map(|p| &p.cell_times).collect();
        let cell_secs: f64 = cells.iter().map(|c| c.secs).sum();
        values.set("bench.grid.worker_busy_frac", cell_secs / capacity);
        let per_pass_grid = grid_run / per_pass;
        let all: Vec<f64> = cells.iter().map(|c| c.secs).collect();
        if !all.is_empty() {
            values.set("bench.grid.cell_p50_frac", median(&all) / per_pass_grid);
            let longest: Vec<f64> = traced
                .iter()
                .map(|p| p.cell_times.iter().map(|c| c.secs).fold(0.0, f64::max))
                .collect();
            values.set("bench.grid.cell_max_frac", median(&longest) / per_pass_grid);
        }
        for (family, metric) in figures::TOOL_FAMILIES.iter().zip(TOOL_METRICS) {
            let secs: f64 = cells
                .iter()
                .filter(|c| c.family == *family)
                .map(|c| c.secs)
                .sum();
            values.set(metric, secs / cell_secs);
        }
        // A fold from +0.0, as `sum` of no cells gives -0.0.
        let loading = cells
            .iter()
            .filter(|c| c.cached)
            .fold(0.0, |total, c| total + c.secs);
        values.set("bench.cache.cell_load_frac", loading / capacity);
        values.set("bench.cache.hits", first.cache.hits as f64);
        values.set("bench.cache.misses", first.cache.misses as f64);
        values.set("bench.cache.stored", first.cache.stored as f64);
        values.set("bench.cells.ok", first.cells.ok as f64);
        values.set("bench.cells.unsupported", first.cells.unsupported as f64);
        values.set("bench.cells.failed", first.cells.failed as f64);
        values.set("machine.hitm_events", f.hitm_events as f64);
        values.set("machine.hitm_local", (f.hitm_events - f.hitm_remote) as f64);
        values.set("machine.hitm_remote", f.hitm_remote as f64);
        let traced_walls: Vec<f64> = traced.iter().map(|p| p.wall_s).collect();
        values.set(
            "trace.overhead_frac",
            median(&traced_walls) / median(&walls) - 1.0,
        );
        out.metrics = values.emit(PER_LAYER);
    } else {
        let setups: Vec<f64> = plain[1..].iter().map(|p| p.setup_s).collect();
        let sim_cycles = f.sim_cycles as f64;
        set_times(&mut out, &mut values, &walls, &setups, &probe_s, sim_cycles);
        values.set("sim_cycles", f.sim_cycles as f64);
        values.set("laser_slowdown_geomean", f.slowdown_geomean);
        values.set("laser_bugs_found", f.bugs_found as f64);
        values.set("laser_precision", f.precision);
        values.set("laser_types_correct", f.types_correct as f64);
        finish_end_to_end(&mut out, values);
    }
    Ok(out)
}

/// The spans a traced figure pass records, in call order.
const FIGURE_SPANS: &[&str] = &[
    "bench.cache.open",
    "bench.plan",
    "bench.grid.run",
    "bench.characterization.fig3",
    "bench.derive",
    "bench.emit",
];

/// Per-family cell-time metrics, in [`figures::TOOL_FAMILIES`] order.
const TOOL_METRICS: [&str; 5] = [
    "bench.grid.tool.native_frac",
    "bench.grid.tool.laser_frac",
    "bench.grid.tool.laser-detect_frac",
    "bench.grid.tool.vtune_frac",
    "bench.grid.tool.sheriff_frac",
];

/// The figure JSON must be byte-identical to what the `experiments` binary
/// prints for the same job.
fn compare_with_experiments(cli: &Cli, threads: usize, json: &str) -> Result<(), String> {
    let binary = cli
        .experiments
        .as_ref()
        .ok_or("no --experiments binary to compare the figure JSON with")?;
    let output = Command::new(binary)
        .args(["all", "--format", "json", "--scale"])
        .arg(FIGURE_SCALE.to_string())
        .arg("--threads")
        .arg(threads.to_string())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", binary.display()))?;
    if !output.status.success() {
        return Err(format!(
            "{} all failed: {}",
            binary.display(),
            output.status
        ));
    }
    if output.stdout != json.as_bytes() {
        return Err("figure JSON differs from `experiments all --format json`".to_string());
    }
    Ok(())
}

/// Add the metrics every workload reports the same way, and emit.
fn finish_end_to_end(out: &mut RunResult, mut values: Values) {
    values.set("peak_rss_mb", peak_rss_mb());
    let failed = out.problems.len() as f64;
    values.set("ok_frac", 1.0 - failed / out.attempted.max(1) as f64);
    out.metrics = values.emit(END_TO_END);
    for (metric, (name, value, unit)) in END_TO_END.iter().zip(&out.metrics) {
        out.report.push(format!(
            "metric {name} = {value} {unit} ({} is better)",
            metric.better
        ));
    }
}

/// Print a timing's spread over the passes: median, quartiles, range, and
/// the highest percentile with at least ten samples beyond it.
fn report_spread(out: &mut RunResult, name: &str, samples: &[f64]) {
    let n = samples.len();
    let (q1, q3) = quartiles(samples);
    let (lo, hi) = samples.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), v| {
        (lo.min(*v), hi.max(*v))
    });
    let mut line = format!(
        "spread {name}: n={n} min={lo:.6} q1={q1:.6} median={:.6} q3={q3:.6} max={hi:.6}",
        median(samples)
    );
    if n >= 20 {
        let p = (100 * (n - 10) / n) as f64;
        line.push_str(&format!(" p{p}={:.6}", percentile(samples, p)));
    }
    out.report.push(line);
    let listed: Vec<String> = samples.iter().map(|v| format!("{v:.6}")).collect();
    out.report.push(format!(
        "samples {name} in pass order: {}",
        listed.join(" ")
    ));
}

/// Peak resident memory of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(0.0)
}
