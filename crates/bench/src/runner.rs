//! Shared plumbing for the experiments: workload selection, tool invocation
//! and scoring against the known-bug database.

use laser_core::{
    ContentionReport, Laser, LaserConfig, LaserError, LaserOutcome, Observer, PipelineConfig,
    TopologySpec,
};
use laser_machine::{Machine, RunResult, WorkloadImage};
use laser_workloads::{registry, BuildOptions, WorkloadSpec};

use crate::topofile::Deployment;

/// How large an experiment to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentScale {
    /// Input-scale multiplier applied to every workload.
    pub workload_scale: f64,
}

impl Default for ExperimentScale {
    fn default() -> Self {
        ExperimentScale {
            workload_scale: 0.4,
        }
    }
}

impl ExperimentScale {
    /// Build options for a workload at this scale.
    pub fn options(&self) -> BuildOptions {
        BuildOptions {
            scale: self.workload_scale,
            ..Default::default()
        }
    }

    /// Every workload of the suite, in registry order.
    pub fn workloads(&self) -> Vec<WorkloadSpec> {
        registry()
    }
}

/// Incidental heap-layout shift caused by running a workload under a tool
/// (driver + detector resident in the process environment). Only `lu_ncb` is
/// sensitive to it, reproducing the paper's "coincidental change in memory
/// layout caused by LASER" observation.
pub const TOOL_LAYOUT_PERTURBATION: u64 = 32;

/// Build a workload image the way it is laid out when running *under a tool*
/// (LASER or VTune). Only `lu_ncb` is sensitive to the incidental allocator
/// shift the tool environment causes (Section 7.4.2 of the paper); applying it
/// elsewhere would perturb layouts the paper reports as unchanged.
pub fn build_under_tool(spec: &WorkloadSpec, opts: &BuildOptions) -> WorkloadImage {
    if spec.name == "lu_ncb" {
        let opts = BuildOptions {
            layout_perturbation: TOOL_LAYOUT_PERTURBATION,
            ..opts.clone()
        };
        spec.build(&opts)
    } else {
        spec.build(opts)
    }
}

/// Run a workload natively (no tool attached) on `deploy`: the build
/// options are adapted to it ([`Deployment::adapt`]) and the machine is
/// deployed on its topology and core count.
///
/// # Errors
/// Propagates simulator errors (step-budget exhaustion).
pub fn run_native(
    spec: &WorkloadSpec,
    opts: &BuildOptions,
    deploy: &Deployment,
) -> Result<RunResult, LaserError> {
    let image = spec.build(&deploy.adapt(opts));
    Ok(Machine::new(deploy.machine_config(), &image).run_to_completion()?)
}

/// Run a workload under LASER with `config` on `deploy`, with the session
/// `pipeline` and, if given, `observer` attached to its event stream (see
/// [`laser_core::observe`]). Without an observer the session is genuinely
/// unobserved: no events are built and a pipelined worker never owes a
/// reply.
///
/// A preset rides on `LaserConfig::topology` (the flat default never
/// clobbers a topology the caller put in `config`); a custom layout hands
/// the session an explicit machine configuration, which the builder honours
/// over any config preset.
///
/// # Errors
/// Propagates simulator errors, and [`LaserError::Stopped`] when `observer`
/// cancelled the run.
pub fn run_laser(
    spec: &WorkloadSpec,
    opts: &BuildOptions,
    config: LaserConfig,
    pipeline: PipelineConfig,
    deploy: &Deployment,
    observer: Option<Box<dyn Observer>>,
) -> Result<LaserOutcome, LaserError> {
    let builder = match deploy {
        Deployment::Preset(TopologySpec::Flat) => Laser::builder().config(config),
        Deployment::Preset(topo) => Laser::builder().config(config.with_topology(*topo)),
        Deployment::Custom(_) => Laser::builder()
            .config(config)
            .machine(deploy.machine_config()),
    };
    let builder = match observer {
        Some(observer) => builder.boxed_observer(observer),
        None => builder,
    };
    builder
        .pipeline_config(pipeline)
        .build(&build_under_tool(spec, &deploy.adapt(opts)))
        .run()
}

/// False negatives and false positives of a report, scored against the
/// workload's known-bug database exactly as the paper's Table 1 does: a bug is
/// *found* if any reported line matches one of its locations; every reported
/// line that matches no bug is a false positive.
pub fn score_report(spec: &WorkloadSpec, report: &ContentionReport) -> (usize, usize) {
    score_locations(
        spec,
        &report
            .lines
            .iter()
            .map(|l| (l.location.file.clone(), l.location.line))
            .collect::<Vec<_>>(),
    )
}

/// Score the reported lines of a cached campaign cell against the known-bug
/// database. Only lines that attribute to source locations participate;
/// Sheriff's allocation-site reports are scored separately (see
/// `crate::accuracy`).
pub fn score_reported(
    spec: &WorkloadSpec,
    reported: &[crate::tool::ReportedLine],
) -> (usize, usize) {
    score_locations(
        spec,
        &reported
            .iter()
            .filter_map(|l| l.location().map(|(f, line)| (f.to_string(), line)))
            .collect::<Vec<_>>(),
    )
}

/// Score an arbitrary list of reported `(file, line)` locations against the
/// known-bug database.
pub fn score_locations(spec: &WorkloadSpec, reported: &[(String, u32)]) -> (usize, usize) {
    let false_negatives = spec
        .known_bugs
        .iter()
        .filter(|bug| !reported.iter().any(|(f, l)| bug.matches(f, *l)))
        .count();
    let false_positives = reported
        .iter()
        .filter(|(f, l)| !spec.known_bugs.iter().any(|bug| bug.matches(f, *l)))
        .count();
    (false_negatives, false_positives)
}

/// Geometric mean of a slice of ratios (1.0 for an empty slice).
#[expect(
    clippy::disallowed_methods,
    reason = "values is a slice summed in index order, which is fixed across runs"
)]
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use laser_workloads::find;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[]) - 1.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert!((geomean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scoring_counts_fn_and_fp() {
        let spec = find("linear_regression").unwrap();
        // Nothing reported: one false negative, no false positives.
        assert_eq!(score_locations(&spec, &[]), (1, 0));
        // The bug line plus a stray line: bug found, one false positive.
        let reported = vec![
            ("linear_regression.c".to_string(), 45),
            ("other.c".to_string(), 3),
        ];
        assert_eq!(score_locations(&spec, &reported), (0, 1));
    }

    #[test]
    fn laser_and_native_runners_work_end_to_end() {
        let spec = find("swaptions").unwrap();
        let opts = BuildOptions::scaled(0.05);
        let flat = Deployment::FLAT;
        let native = run_native(&spec, &opts, &flat).unwrap();
        let laser = run_laser(
            &spec,
            &opts,
            LaserConfig::detection_only(),
            PipelineConfig::default(),
            &flat,
            None,
        )
        .unwrap();
        assert!(native.cycles > 0);
        assert!(laser.run.cycles >= native.cycles);
    }
}
