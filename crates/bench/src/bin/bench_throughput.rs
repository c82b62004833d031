//! Throughput harness for the simulator hot loop: the per-commit perf
//! trajectory and its two CI gates.
//!
//! ```text
//! bench_throughput [--scale S] [--workloads w1,w2,...] [--repeats N]
//!                  [--sav V] [--driver-lag L]
//!                  [--min-ratio R] [--output PATH] [--topologies t1,t2,...]
//!                  [--hotloop-output PATH] [--hotloop-baseline PATH]
//!                  [--min-speedup R]
//! ```
//!
//! For each workload × topology the harness runs the same LASERDETECT session
//! twice per repeat — once inline, once pipelined (the machine on the
//! calling thread, the driver+detector stage on a worker) — interleaved so
//! machine-load drift
//! hits both modes equally, and scores each mode by its **best** observed
//! steps/second (robust against scheduling noise). It also asserts the
//! tentpole invariant on every pair: at `--driver-lag 0` (the default) the
//! pipelined outcome must be byte-identical to the inline one (cycles,
//! report, driver statistics), so the perf gates double as a determinism
//! check. At `--driver-lag 1+` the charge-back is deferred, so outcomes
//! legitimately diverge from inline; the harness instead asserts the
//! pipelined outcome is identical across every repeat (run-to-run
//! determinism, the lag≥1 contract).
//!
//! Each pipelined row also carries **stage occupancy**: the machine, driver
//! and detector busy times of the best pipelined run divided by its wall
//! time. The driver and detector share the stage thread, so their two
//! fractions sum to that thread's occupancy. On a single-core host all
//! three sum to at most ~1.
//!
//! Two reports come out of one measurement sweep:
//!
//! * **`BENCH_pipeline.json`** (override with `--output`) — the flat-topology
//!   rows, scored as pipelined/inline ratios. The process exits non-zero when
//!   `geomean_ratio < --min-ratio` (default 1.0: pipelining must not be slower
//!   than inline).
//! * **`BENCH_hotloop.json`** (override with `--hotloop-output`) — the perf
//!   *trajectory*: absolute steps/second for every workload × topology × mode,
//!   plus a headline number (geomean of the flat inline steps/sec across
//!   workloads). When `--hotloop-baseline PATH` names a previously committed
//!   trajectory, the harness computes `speedup = headline / baseline headline`
//!   and exits non-zero if it falls below `--min-speedup`. That is the
//!   hot-loop regression gate: every PR that touches `Machine::step`, the
//!   scheduler or the dispatch path is judged against the recorded baseline.
//!
//! ```json
//! {"kind":"bench_hotloop", "rows":[{"workload":"histogram'",
//!  "topology":"flat", "steps":..., "inline_steps_per_sec":...,
//!  "pipelined_steps_per_sec":...}], "headline_steps_per_sec":...,
//!  "baseline_headline_steps_per_sec":..., "speedup":..., "pass":true}
//! ```
//!
//! One environmental caveat: on a host with a **single hardware thread**
//! the pipeline cannot overlap anything — the driver and detector stages
//! timeslice against the machine stage — so `pipelined ≥ inline` is
//! physically out of reach and the measured ratio is pure scheduler noise
//! around 1.0. The harness reports the host's `parallelism` in the JSON and,
//! when it is 1, relaxes the effective pipeline gate to
//! `min(min_ratio, 0.90)` (the charge-back costs at most a couple of context
//! switches per quantum, and `--driver-lag 1` buys most of it back):
//! single-core hosts still catch gross regressions, while every multi-core
//! host — including every hosted CI runner — holds the strict line. The
//! hot-loop gate needs no such relaxation: it compares absolute inline
//! throughput, which a single-core host measures fine.
//!
//! The default `--sav 1` samples every HITM event, the detector-heaviest
//! configuration the hardware allows; it is where the paper's concurrency
//! claim matters most and where serializing the detector hurts most.

use std::env;
use std::process::ExitCode;
use std::time::Instant;

use laser_bench::runner::build_under_tool;
use laser_bench::{geomean, Front, PipelineConfig, RunSpec, SpecError};
use laser_core::{Laser, LaserConfig, LaserOutcome};
use laser_machine::{TopologySpec, WorkloadImage};
use laser_workloads::{find, BuildOptions, WorkloadSpec};
use serde::json::Value;

const GATE_USAGE: &str = concat!(
    "  --repeats N            timed repeats per mode, best-of scoring (default 5)\n",
    "  --min-ratio R          fail unless geomean(pipelined/inline) >= R on the flat rows\n",
    "                         (default 1.0; relaxed to 0.90 on single-core hosts)\n",
    "  --output PATH          pipeline JSON report (default BENCH_pipeline.json)\n",
    "  --hotloop-output P     trajectory JSON report (default BENCH_hotloop.json)\n",
    "  --hotloop-baseline P   committed trajectory to gate against (default: none)\n",
    "  --min-speedup R        with a baseline: fail unless headline steps/sec is at least\n",
    "                         R x the baseline headline (default 1.0)\n",
);

fn usage() -> String {
    format!(
        "usage: bench_throughput [FLAG...]\n\nrun flags (the run-spec table):\n{}\ngate flags:\n{GATE_USAGE}",
        RunSpec::usage(Front::Bench)
    )
}

#[derive(Debug)]
struct Cli {
    scale: f64,
    sav: u32,
    driver_lag: usize,
    /// Workloads to bench, in the order given (each on every topology).
    workloads: Vec<String>,
    topologies: Vec<TopologySpec>,
    repeats: usize,
    min_ratio: f64,
    output: String,
    hotloop_output: String,
    hotloop_baseline: Option<String>,
    min_speedup: f64,
}

impl Cli {
    /// Parse `args`: the run flags through the run-spec table (validated like
    /// every other front end's), the gate flags here.
    fn parse(args: &[String]) -> Result<Cli, String> {
        let mut repeats = 5;
        let mut min_ratio = 1.0;
        let mut output = "BENCH_pipeline.json".to_string();
        let mut hotloop_output = "BENCH_hotloop.json".to_string();
        let mut hotloop_baseline = None;
        let mut min_speedup = 1.0;
        let (spec, given) = RunSpec::from_args(Front::Bench, args, |rest| {
            let flag = rest[0].as_str();
            if flag == "--help" || flag == "-h" {
                return Err(SpecError(usage()));
            }
            let value = rest
                .get(1)
                .ok_or_else(|| SpecError(format!("{flag} needs a value")))?;
            let number = |v: &str| {
                v.parse::<f64>()
                    .map_err(|e| SpecError(format!("{flag}: {e}")))
            };
            match flag {
                "--repeats" => {
                    repeats = match value.parse::<usize>() {
                        Ok(n) if n >= 1 => n,
                        _ => return Err(SpecError(format!("{flag} must be at least 1"))),
                    };
                }
                "--min-ratio" => min_ratio = number(value)?,
                "--output" => output = value.clone(),
                "--hotloop-output" => hotloop_output = value.clone(),
                "--hotloop-baseline" => hotloop_baseline = Some(value.clone()),
                "--min-speedup" => min_speedup = number(value)?,
                other => {
                    return Err(SpecError(format!(
                        "unknown argument '{other}'\n{}",
                        usage()
                    )))
                }
            }
            Ok(2)
        })
        .map_err(|e| e.0)?;
        let spec = spec
            .with_defaults(Front::Bench, None, &given)
            .map_err(|e| e.0)?;
        let (Some(scale), Some(sav), Some(driver_lag), Some(workloads)) =
            (spec.scale, spec.sav, spec.driver_lag, spec.workloads)
        else {
            return Err("the run-spec table lacks a bench_throughput default".to_string());
        };
        if !spec.topologies.contains(&TopologySpec::Flat) {
            return Err(
                "--topologies must include 'flat' (the pipeline gate and the headline \
                        are scored on the flat rows)"
                    .to_string(),
            );
        }
        Ok(Cli {
            scale,
            sav,
            driver_lag,
            workloads,
            topologies: spec.topologies,
            repeats,
            min_ratio,
            output,
            hotloop_output,
            hotloop_baseline,
            min_speedup,
        })
    }
}

/// One timed run: wall seconds and the outcome it produced.
#[expect(
    clippy::disallowed_methods,
    reason = "timing runs is this binary's job; wall time only reaches its reports, never simulated state"
)]
fn timed<F: FnOnce() -> Result<LaserOutcome, String>>(f: F) -> Result<(f64, LaserOutcome), String> {
    let start = Instant::now();
    let outcome = f()?;
    Ok((start.elapsed().as_secs_f64(), outcome))
}

/// The fields whose equality makes two outcomes "the same run".
fn fingerprint(outcome: &LaserOutcome) -> String {
    format!(
        "steps={} cycles={} per_core={:?} detector_cycles={} driver={:?} report={:?}",
        outcome.run.steps,
        outcome.run.cycles,
        outcome.run.per_core_cycles,
        outcome.detector_cycles,
        outcome.driver_stats,
        outcome.report
    )
}

/// Machine / driver / detector busy fractions of one pipelined run: each
/// stage's busy time divided by the run's wall time.
#[derive(Debug, Clone, Copy, Default)]
struct Occupancy {
    machine: f64,
    driver: f64,
    detector: f64,
}

impl Occupancy {
    fn of(outcome: &LaserOutcome, wall_secs: f64) -> Option<Occupancy> {
        let busy = outcome.stage_occupancy?;
        let wall = wall_secs.max(1e-9);
        Some(Occupancy {
            machine: busy.machine_busy.as_secs_f64() / wall,
            driver: busy.driver_busy.as_secs_f64() / wall,
            detector: busy.detector_busy.as_secs_f64() / wall,
        })
    }
}

/// Best-of-N steps/sec for one workload on one topology, inline and
/// pipelined, plus the stage occupancy of the best pipelined run.
struct Score {
    workload: String,
    topology: TopologySpec,
    steps: u64,
    inline_best: f64,
    piped_best: f64,
    occupancy: Occupancy,
}

impl Score {
    fn ratio(&self) -> f64 {
        self.piped_best / self.inline_best
    }
}

fn bench_cell(
    spec: &WorkloadSpec,
    opts: &BuildOptions,
    config: &LaserConfig,
    pipeline: PipelineConfig,
    topo: TopologySpec,
    repeats: usize,
) -> Result<Score, String> {
    // Image construction is mode-independent setup; build it once outside
    // the timed window so the measured ratio reflects only session
    // execution (the pipelined leg still pays its own worker spawn — that
    // genuinely is part of the pipelined deployment).
    let opts = opts.clone().for_topology(topo);
    let image: WorkloadImage = build_under_tool(spec, &opts);
    let config = if topo == TopologySpec::Flat {
        config.clone()
    } else {
        config.clone().with_topology(topo)
    };
    let run_session = |pipelined: bool| -> Result<LaserOutcome, String> {
        Laser::builder()
            .config(config.clone())
            .pipeline_config(if pipelined {
                pipeline
            } else {
                PipelineConfig::default()
            })
            .build(&image)
            .run()
            .map_err(|e| format!("{}@{}: {e}", spec.name, topo.key()))
    };
    let mut inline_best = 0f64;
    let mut piped_best = 0f64;
    let mut steps = 0u64;
    let mut occupancy = Occupancy::default();
    let mut first_piped_fp: Option<String> = None;
    for _ in 0..repeats {
        // Interleave the modes so load drift lands on both equally.
        let (inline_secs, inline_outcome) = timed(|| run_session(false))?;
        let (piped_secs, piped_outcome) = timed(|| run_session(true))?;
        let (a, b) = (fingerprint(&inline_outcome), fingerprint(&piped_outcome));
        if pipeline.driver_lag_quanta == 0 {
            // Lag 0 contract: the pipelined run is byte-identical to inline.
            if a != b {
                return Err(format!(
                    "{}@{}: pipelined outcome diverged from inline\n inline: {a}\n piped:  {b}",
                    spec.name,
                    topo.key()
                ));
            }
        } else {
            // Lag >= 1 contract: deferring charges legitimately changes the
            // interleaving, so the pipelined run is not inline-identical —
            // but it must be identical to every other pipelined run.
            match &first_piped_fp {
                None => first_piped_fp = Some(b),
                Some(first) if *first != b => {
                    return Err(format!(
                        "{}@{}: lagged pipelined outcome varies across repeats\n first: {first}\n \
                         later: {b}",
                        spec.name,
                        topo.key()
                    ));
                }
                Some(_) => {}
            }
        }
        steps = inline_outcome.run.steps;
        inline_best = inline_best.max(steps as f64 / inline_secs.max(1e-9));
        let piped_sps = steps as f64 / piped_secs.max(1e-9);
        if piped_sps > piped_best {
            piped_best = piped_sps;
            occupancy = Occupancy::of(&piped_outcome, piped_secs).unwrap_or_default();
        }
    }
    Ok(Score {
        workload: spec.name.to_string(),
        topology: topo,
        steps,
        inline_best,
        piped_best,
        occupancy,
    })
}

/// The pipeline gate actually applied: the configured `--min-ratio` on any
/// host with two or more hardware threads; relaxed on a single-core host,
/// where the detector stage timeslices against the machine stage and
/// `>= 1.0` would be a coin flip on scheduler noise.
fn effective_min_ratio(min_ratio: f64, parallelism: usize) -> f64 {
    if parallelism >= 2 {
        min_ratio
    } else {
        min_ratio.min(0.90)
    }
}

/// The headline number of the trajectory: geomean over workloads of the
/// *inline flat* steps/sec — the raw hot-loop speed, independent of pipeline
/// overlap and topology pricing.
fn headline(scores: &[Score]) -> f64 {
    let flat: Vec<f64> = scores
        .iter()
        .filter(|s| s.topology == TopologySpec::Flat)
        .map(|s| s.inline_best)
        .collect();
    geomean(&flat)
}

/// Extract the headline steps/sec from a committed trajectory report.
fn baseline_headline(path: &str) -> Result<f64, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read hotloop baseline {path}: {e}"))?;
    let doc = Value::parse(&text).map_err(|e| format!("parse hotloop baseline {path}: {e:?}"))?;
    match doc.get("headline_steps_per_sec") {
        Some(Value::Float(f)) if *f > 0.0 => Ok(*f),
        Some(Value::Int(i)) if *i > 0 => Ok(*i as f64),
        _ => Err(format!(
            "hotloop baseline {path} has no positive headline_steps_per_sec"
        )),
    }
}

/// The flat-topology report (`BENCH_pipeline.json`): pipelined/inline ratios
/// behind the `--min-ratio` gate. Schema unchanged from when it was the only
/// report, so existing consumers keep parsing it.
fn pipeline_json(
    cli: &Cli,
    parallelism: usize,
    flat: &[&Score],
    geomean_ratio: f64,
    gate: f64,
    pass: bool,
) -> Value {
    let workloads: Vec<Value> = flat
        .iter()
        .map(|s| {
            Value::object()
                .set("workload", s.workload.as_str())
                .set("steps", s.steps as i64)
                .set("inline_steps_per_sec", s.inline_best)
                .set("pipelined_steps_per_sec", s.piped_best)
                .set("ratio", s.ratio())
                .set("machine_busy_frac", s.occupancy.machine)
                .set("driver_busy_frac", s.occupancy.driver)
                .set("detector_busy_frac", s.occupancy.detector)
        })
        .collect();
    Value::object()
        .set("kind", "bench_pipeline")
        .set("scale", cli.scale)
        .set("repeats", cli.repeats as i64)
        .set("sav", cli.sav as i64)
        .set("driver_lag", cli.driver_lag as i64)
        .set("parallelism", parallelism as i64)
        .set("min_ratio", cli.min_ratio)
        .set("effective_min_ratio", gate)
        .set("workloads", Value::Array(workloads))
        .set("geomean_ratio", geomean_ratio)
        .set("pass", pass)
}

/// The trajectory report (`BENCH_hotloop.json`): absolute steps/sec for every
/// workload × topology × mode plus the headline, gated against a committed
/// baseline when one is named.
fn hotloop_json(
    cli: &Cli,
    parallelism: usize,
    scores: &[Score],
    headline_sps: f64,
    baseline: Option<(&str, f64)>,
    pass: bool,
) -> Value {
    let rows: Vec<Value> = scores
        .iter()
        .map(|s| {
            Value::object()
                .set("workload", s.workload.as_str())
                .set("topology", s.topology.key())
                .set("steps", s.steps as i64)
                .set("inline_steps_per_sec", s.inline_best)
                .set("pipelined_steps_per_sec", s.piped_best)
        })
        .collect();
    let (baseline_path, baseline_sps, speedup) = match baseline {
        Some((path, sps)) => (
            Value::Str(path.to_string()),
            Value::Float(sps),
            Value::Float(headline_sps / sps),
        ),
        None => (Value::Null, Value::Null, Value::Null),
    };
    Value::object()
        .set("kind", "bench_hotloop")
        .set("scale", cli.scale)
        .set("repeats", cli.repeats as i64)
        .set("sav", cli.sav as i64)
        .set("parallelism", parallelism as i64)
        .set(
            "topologies",
            Value::Array(
                cli.topologies
                    .iter()
                    .map(|t| Value::Str(t.key().to_string()))
                    .collect(),
            ),
        )
        .set("rows", Value::Array(rows))
        .set("headline_steps_per_sec", headline_sps)
        .set("baseline", baseline_path)
        .set("baseline_headline_steps_per_sec", baseline_sps)
        .set("speedup", speedup)
        .set("min_speedup", cli.min_speedup)
        .set("pass", pass)
}

fn run(cli: &Cli) -> Result<bool, String> {
    // Resolve the baseline before anything simulates: a bad path or a
    // malformed file should fail the invocation immediately.
    let baseline = match &cli.hotloop_baseline {
        Some(path) => Some((path.as_str(), baseline_headline(path)?)),
        None => None,
    };
    let config = LaserConfig::detection_only().with_sav(cli.sav);
    let pipeline = PipelineConfig::pipelined().with_driver_lag(cli.driver_lag);
    let opts = BuildOptions {
        scale: cli.scale,
        ..Default::default()
    };
    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let gate = effective_min_ratio(cli.min_ratio, parallelism);
    if parallelism < 2 {
        eprintln!(
            "note: single hardware thread available; the pipeline has nothing to overlap \
             against, so the pipeline gate is relaxed to {gate:.2}"
        );
    }
    let mut scores = Vec::new();
    for name in &cli.workloads {
        let spec = find(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
        for topo in &cli.topologies {
            eprintln!(
                "benching {name}@{} ({} repeats x 2 modes)...",
                topo.key(),
                cli.repeats
            );
            let score = bench_cell(&spec, &opts, &config, pipeline, *topo, cli.repeats)?;
            eprintln!(
                "  inline {:>12.0} steps/s | pipelined {:>12.0} steps/s | ratio {:.3}",
                score.inline_best,
                score.piped_best,
                score.ratio()
            );
            scores.push(score);
        }
    }

    // Pipeline gate: flat rows only.
    let flat: Vec<&Score> = scores
        .iter()
        .filter(|s| s.topology == TopologySpec::Flat)
        .collect();
    let ratios: Vec<f64> = flat.iter().map(|s| s.ratio()).collect();
    let geomean_ratio = geomean(&ratios);
    let pipeline_pass = geomean_ratio >= gate;
    let json = pipeline_json(cli, parallelism, &flat, geomean_ratio, gate, pipeline_pass).render();
    std::fs::write(&cli.output, format!("{json}\n"))
        .map_err(|e| format!("write {}: {e}", cli.output))?;
    // Reports live in the named output files; the console copy is a
    // diagnostic and must not pollute stdout (CI pipes it).
    eprintln!("{json}");
    eprintln!(
        "geomean pipelined/inline = {geomean_ratio:.3} (gate: >= {gate:.3}) -> {}; wrote {}",
        if pipeline_pass { "pass" } else { "FAIL" },
        cli.output
    );

    // Hot-loop gate: headline vs the committed baseline, when one is named.
    let headline_sps = headline(&scores);
    let hotloop_pass = match baseline {
        Some((_, sps)) => headline_sps / sps >= cli.min_speedup,
        None => true,
    };
    let json = hotloop_json(
        cli,
        parallelism,
        &scores,
        headline_sps,
        baseline,
        hotloop_pass,
    );
    let json = json.render();
    std::fs::write(&cli.hotloop_output, format!("{json}\n"))
        .map_err(|e| format!("write {}: {e}", cli.hotloop_output))?;
    eprintln!("{json}");
    match baseline {
        Some((path, sps)) => eprintln!(
            "headline {headline_sps:.0} steps/s vs baseline {sps:.0} ({path}): speedup {:.3} \
             (gate: >= {:.3}) -> {}; wrote {}",
            headline_sps / sps,
            cli.min_speedup,
            if hotloop_pass { "pass" } else { "FAIL" },
            cli.hotloop_output
        ),
        None => eprintln!(
            "headline {headline_sps:.0} steps/s (no baseline named; trajectory recorded, not \
             gated); wrote {}",
            cli.hotloop_output
        ),
    }
    Ok(pipeline_pass && hotloop_pass)
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let cli = match Cli::parse(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    match run(&cli) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn score(workload: &str, topo: TopologySpec, inline: f64, piped: f64) -> Score {
        Score {
            workload: workload.to_string(),
            topology: topo,
            steps: 1000,
            inline_best: inline,
            piped_best: piped,
            occupancy: Occupancy {
                machine: 0.5,
                driver: 0.25,
                detector: 0.125,
            },
        }
    }

    #[test]
    fn defaults_are_the_gate_configuration() {
        let cli = Cli::parse(&[]).unwrap();
        assert_eq!(cli.sav, 1);
        assert_eq!(cli.repeats, 5);
        assert_eq!(cli.scale, 2.0);
        assert_eq!(cli.min_ratio, 1.0);
        assert_eq!(cli.driver_lag, 0, "lag 0 keeps the equality assert armed");
        assert_eq!(cli.output, "BENCH_pipeline.json");
        assert_eq!(
            cli.workloads,
            ["histogram'", "linear_regression", "reverse_index"]
        );
        assert_eq!(
            cli.topologies,
            [
                TopologySpec::Flat,
                TopologySpec::DualSocket,
                TopologySpec::QuadSocket
            ]
        );
        assert_eq!(cli.hotloop_output, "BENCH_hotloop.json");
        assert_eq!(cli.hotloop_baseline, None);
        assert_eq!(cli.min_speedup, 1.0);
    }

    #[test]
    fn gate_is_strict_on_multicore_and_relaxed_on_a_single_core() {
        // Every multi-core host holds the configured line...
        assert_eq!(effective_min_ratio(1.0, 2), 1.0);
        assert_eq!(effective_min_ratio(1.0, 64), 1.0);
        assert_eq!(effective_min_ratio(0.97, 4), 0.97);
        // ...a single-core host (nothing to overlap against) only catches
        // gross regressions — at 0.90, tightened from the two-stage
        // pipeline's 0.85 now the charge-back round-trip is the only
        // per-quantum synchronization left...
        assert_eq!(effective_min_ratio(1.0, 1), 0.90);
        // ...and an operator who asked for an even laxer gate keeps it.
        assert_eq!(effective_min_ratio(0.5, 1), 0.5);
    }

    #[test]
    fn workload_names_are_validated_up_front() {
        let err = Cli::parse(&args(&["--workloads", "histogramm"])).unwrap_err();
        assert!(err.contains("unknown workload 'histogramm'"), "{err}");
        let ok = Cli::parse(&args(&[
            "--workloads",
            "histogram',swaptions",
            "--topologies",
            "flat",
        ]))
        .unwrap();
        assert_eq!(ok.workloads, ["histogram'", "swaptions"]);
        // Names are benched in the order given, repeats included.
        let ok = Cli::parse(&args(&["--workloads", "swaptions,histogram',swaptions"])).unwrap();
        assert_eq!(ok.workloads, ["swaptions", "histogram'", "swaptions"]);
    }

    #[test]
    fn topology_names_are_validated_up_front() {
        let err = Cli::parse(&args(&["--topologies", "flat,16s"])).unwrap_err();
        assert!(err.contains("unknown topology '16s'"), "{err}");
        let ok = Cli::parse(&args(&["--topologies", "flat,8s"])).unwrap();
        assert_eq!(
            ok.topologies,
            vec![TopologySpec::Flat, TopologySpec::OctoSocket]
        );
        // The flat rows feed both the pipeline gate and the headline, so a
        // sweep without them is rejected before anything simulates.
        let err = Cli::parse(&args(&["--topologies", "2s,4s"])).unwrap_err();
        assert!(err.contains("must include 'flat'"), "{err}");
        let ok = Cli::parse(&args(&["--topologies", "flat,4s"])).unwrap();
        assert_eq!(
            ok.topologies,
            vec![TopologySpec::Flat, TopologySpec::QuadSocket]
        );
    }

    #[test]
    fn flags_override_defaults() {
        let cli = Cli::parse(&args(&[
            "--scale",
            "0.1",
            "--repeats",
            "3",
            "--min-ratio",
            "0.9",
            "--driver-lag",
            "2",
            "--output",
            "out.json",
            "--hotloop-output",
            "hot.json",
            "--hotloop-baseline",
            "base.json",
            "--min-speedup",
            "1.5",
        ]))
        .unwrap();
        assert_eq!(cli.scale, 0.1);
        assert_eq!(cli.repeats, 3);
        assert_eq!(cli.min_ratio, 0.9);
        assert_eq!(cli.driver_lag, 2);
        assert_eq!(cli.output, "out.json");
        assert_eq!(cli.hotloop_output, "hot.json");
        assert_eq!(cli.hotloop_baseline.as_deref(), Some("base.json"));
        assert_eq!(cli.min_speedup, 1.5);
    }

    #[test]
    fn out_of_range_run_values_are_rejected_before_anything_runs() {
        for (flags, needle) in [
            (&["--sav", "0"][..], "--sav must be at least 1"),
            (&["--repeats", "0"], "--repeats must be at least 1"),
            (
                &["--driver-lag", "1025"],
                "--driver-lag must be at most 1024",
            ),
            (&["--scale", "0"], "--scale must be a positive number"),
            (&["--min-ratio"], "--min-ratio needs a value"),
        ] {
            let err = Cli::parse(&args(flags)).unwrap_err();
            assert!(err.contains(needle), "{flags:?} -> {err}");
        }
        let err = Cli::parse(&args(&["--help"])).unwrap_err();
        assert!(
            err.contains("--sav V") && err.contains("--min-speedup R"),
            "{err}"
        );
    }

    #[test]
    fn stage_deployment_flags_beyond_the_lag_are_rejected() {
        for flag in ["--shards", "--capacity"] {
            let err = Cli::parse(&args(&[flag, "2"])).unwrap_err();
            assert!(err.contains(&format!("unknown argument '{flag}'")), "{err}");
        }
    }

    #[test]
    fn pipeline_report_shape_is_stable_and_parses() {
        let cli = Cli::parse(&[]).unwrap();
        let s = score("histogram'", TopologySpec::Flat, 1.0e6, 1.1e6);
        let flat = vec![&s];
        let json = pipeline_json(&cli, 4, &flat, 1.1, 1.0, true).render();
        let doc = Value::parse(&json).unwrap();
        assert_eq!(doc.get("kind"), Some(&Value::Str("bench_pipeline".into())));
        assert_eq!(doc.get("pass"), Some(&Value::Bool(true)));
        assert_eq!(doc.get("parallelism"), Some(&Value::Int(4)));
        assert_eq!(doc.get("effective_min_ratio"), Some(&Value::Float(1.0)));
        assert_eq!(doc.get("driver_lag"), Some(&Value::Int(0)));
        let Some(Value::Array(rows)) = doc.get("workloads") else {
            panic!("workloads must be an array: {json}");
        };
        assert_eq!(rows.len(), 1);
        assert_eq!(
            rows[0].get("workload"),
            Some(&Value::Str("histogram'".into()))
        );
        // Stage occupancy of the best pipelined run rides on every row.
        assert_eq!(rows[0].get("machine_busy_frac"), Some(&Value::Float(0.5)));
        assert_eq!(rows[0].get("driver_busy_frac"), Some(&Value::Float(0.25)));
        assert_eq!(
            rows[0].get("detector_busy_frac"),
            Some(&Value::Float(0.125))
        );
    }

    #[test]
    fn headline_is_the_geomean_of_flat_inline_rows() {
        let scores = vec![
            score("a", TopologySpec::Flat, 4.0, 5.0),
            score("b", TopologySpec::Flat, 9.0, 8.0),
            // Multi-socket rows are on the record but not in the headline.
            score("a", TopologySpec::DualSocket, 100.0, 100.0),
        ];
        assert!((headline(&scores) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn hotloop_report_round_trips_with_and_without_a_baseline() {
        let cli = Cli::parse(&[]).unwrap();
        let scores = vec![
            score("histogram'", TopologySpec::Flat, 2.0e6, 2.1e6),
            score("histogram'", TopologySpec::DualSocket, 1.5e6, 1.6e6),
        ];
        // Ungated: baseline fields are null, pass stands on its own.
        let json = hotloop_json(&cli, 1, &scores, 2.0e6, None, true).render();
        let doc = Value::parse(&json).unwrap();
        assert_eq!(doc.get("kind"), Some(&Value::Str("bench_hotloop".into())));
        assert_eq!(doc.get("baseline"), Some(&Value::Null));
        assert_eq!(doc.get("speedup"), Some(&Value::Null));
        assert_eq!(
            doc.get("headline_steps_per_sec"),
            Some(&Value::Float(2.0e6))
        );
        let Some(Value::Array(rows)) = doc.get("rows") else {
            panic!("rows must be an array: {json}");
        };
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].get("topology"), Some(&Value::Str("2s".into())));
        // Gated: the speedup against the named baseline is recorded.
        let json = hotloop_json(&cli, 1, &scores, 3.0e6, Some(("base.json", 2.0e6)), true).render();
        let doc = Value::parse(&json).unwrap();
        assert_eq!(doc.get("baseline"), Some(&Value::Str("base.json".into())));
        assert_eq!(doc.get("speedup"), Some(&Value::Float(1.5)));
        assert_eq!(
            doc.get("baseline_headline_steps_per_sec"),
            Some(&Value::Float(2.0e6))
        );
    }

    #[test]
    fn baseline_headline_reads_committed_reports_and_rejects_junk() {
        let dir = std::env::temp_dir();
        let good = dir.join("bench_hotloop_baseline_good.json");
        std::fs::write(
            &good,
            Value::object()
                .set("kind", "bench_hotloop")
                .set("headline_steps_per_sec", 1.25e7)
                .render(),
        )
        .unwrap();
        assert_eq!(
            baseline_headline(good.to_str().unwrap()).unwrap(),
            1.25e7_f64
        );
        let bad = dir.join("bench_hotloop_baseline_bad.json");
        std::fs::write(&bad, "{\"kind\":\"bench_hotloop\"}").unwrap();
        let err = baseline_headline(bad.to_str().unwrap()).unwrap_err();
        assert!(err.contains("headline_steps_per_sec"), "{err}");
        let err = baseline_headline("/nonexistent/baseline.json").unwrap_err();
        assert!(err.contains("read hotloop baseline"), "{err}");
    }
}
