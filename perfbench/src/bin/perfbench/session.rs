//! The session workloads: inline LASER sessions on one thread, run untraced
//! through `LaserSession::run`, and replayed layer by layer from the public
//! calls that `LaserSession` is made of.

use std::time::{Duration, Instant};

use laser_bench::geomean;
use laser_bench::runner::score_report;
use laser_core::{
    ContentionKind, Detector, LaserConfig, LaserError, LaserOutcome, RepairPlan, RepairSummary,
    SessionBuilder, SsbHook, TopologySpec,
};
use laser_machine::machine::MachineError;
use laser_machine::{CoreId, Machine, MachineConfig, RunStatus, WorkloadImage};
use laser_pebs::{Driver, ImprecisionModel, Pmu, PmuConfig};
use laser_workloads::{BugKind, BuildOptions, WorkloadSpec};

use crate::spans::Spans;

/// A deliberate defect to inject into a replay, so the cross-check against
/// `LaserSession::run` can be shown to catch a replay that drifts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Replay faithfully.
    None,
    /// Process every record batch but never charge its detector cycles to
    /// the machine.
    SkipDetectorCharge,
}

/// The session names every traced span of a replay, in call order.
pub const SPANS: &[&str] = &[
    "workloads.build",
    "core.session.build",
    "machine.new",
    "machine.run_quantum",
    "machine.hooked.run_quantum",
    "pebs.ingest",
    "pebs.read_records",
    "core.detect.process",
    "core.repair.arm",
    "core.detect.report",
];

/// Replay `LaserSession::run` for an inline, unobserved session built by
/// `SessionBuilder::new().config(config.clone()).build(image)`, timing every
/// layer call into `spans`. The outcome must equal the session's own.
///
/// # Errors
/// Returns the error the session would: the machine exhausting its step
/// budget.
pub fn replay(
    config: &LaserConfig,
    image: &WorkloadImage,
    spans: &mut Spans,
    fault: Fault,
) -> Result<LaserOutcome, LaserError> {
    // SessionBuilder::build: the machine, then the PMU, driver and detector.
    let build_start = Instant::now();
    let machine_config = MachineConfig::for_topology(config.topology);
    let max_steps = machine_config.max_steps;
    let num_cores = machine_config.num_cores;
    let mut machine = spans.time("machine.new", || Machine::new(machine_config, image));
    let program = image.program();
    let model = ImprecisionModel::new(
        config.imprecision,
        image.memory_map(),
        (program.base_pc(), program.end_pc()),
        config.seed,
    );
    let pmu = Pmu::new(
        PmuConfig {
            sav: config.sav,
            num_cores,
            ..Default::default()
        },
        model,
    );
    let mut driver = Driver::new(pmu, config.driver);
    let mut detector = Detector::new(config, program, image.memory_map());
    spans.add("core.session.build", build_start.elapsed());

    let mut detector_cycles = 0;
    let mut repair: Option<RepairSummary> = None;
    // LaserSession::advance, inline, until the machine is done.
    loop {
        let hooked = machine.has_hook();
        let (span, steps_counter) = if hooked {
            ("machine.hooked.run_quantum", "machine.hooked.steps")
        } else {
            ("machine.run_quantum", "machine.steps")
        };
        let steps_before = machine.steps();
        let quantum = spans.time(span, || machine.run_quantum(config.poll_interval_steps));
        spans.count(steps_counter, machine.steps() - steps_before);
        spans.time("pebs.ingest", || {
            driver.ingest(quantum.events, &mut machine)
        });
        let records = spans.time("pebs.read_records", || driver.read_records());
        if !records.is_empty() {
            let cycles = spans.time("core.detect.process", || {
                detector.process(&records);
                detector.processing_cycles(records.len())
            });
            spans.count("core.detect.records", records.len() as u64);
            if fault != Fault::SkipDetectorCharge {
                charge_detector(&mut machine, &mut detector_cycles, cycles, num_cores);
            }
        }
        if config.enable_repair && repair.is_none() {
            repair = spans.time("core.repair.arm", || {
                arm_repair(config, &mut machine, &detector, num_cores)
            });
        }
        if quantum.status == RunStatus::Running && machine.steps() >= max_steps {
            return Err(LaserError::Machine(MachineError::MaxStepsExceeded {
                steps: max_steps,
            }));
        }
        if quantum.status == RunStatus::Done {
            break;
        }
    }

    // LaserSession::finish: the final poll and flush, then the report.
    let records = spans.time("pebs.read_records", || {
        driver.poll(&mut machine);
        driver.flush();
        driver.read_records()
    });
    if !records.is_empty() {
        let cycles = spans.time("core.detect.process", || {
            detector.process(&records);
            detector.processing_cycles(records.len())
        });
        spans.count("core.detect.records", records.len() as u64);
        if fault != Fault::SkipDetectorCharge {
            charge_detector(&mut machine, &mut detector_cycles, cycles, num_cores);
        }
    }
    if let Some(summary) = repair.as_mut() {
        if let Some(ssb) = machine
            .hook()
            .and_then(|h| h.as_any())
            .and_then(|a| a.downcast_ref::<SsbHook>())
        {
            summary.stats = ssb.stats();
        }
    }
    let elapsed = machine.elapsed_benchmark_seconds();
    let mut report = spans.time("core.detect.report", || {
        detector.report(
            image.name(),
            elapsed,
            config.rate_threshold_hitm_per_sec,
            repair.is_some(),
        )
    });
    // As in `finish`: the socket split comes from the machine, not the
    // sampled records.
    report.remote_hitm_share = machine.stats().remote_hitm_share();
    Ok(LaserOutcome {
        report,
        run: machine.result(),
        driver_stats: driver.stats(),
        detector_cycles,
        repair,
        elapsed_benchmark_seconds: elapsed,
        stage_occupancy: None,
    })
}

/// Charge detector work to the machine the way the session does: spread
/// over the cores, the remainder one cycle each to the first cores.
fn charge_detector(machine: &mut Machine, total: &mut u64, cycles: u64, num_cores: usize) {
    *total += cycles;
    let per_core = cycles / num_cores as u64;
    if per_core > 0 {
        machine.charge_all_cores(per_core);
    }
    for core in 0..(cycles % num_cores as u64) as usize {
        machine.charge_cycles(CoreId(core), 1);
    }
}

/// The session's repair trigger: the detector's lines over the
/// cost-weighted rate threshold, planned and, when profitable, attached as
/// the SSB hook.
fn arm_repair(
    config: &LaserConfig,
    machine: &mut Machine,
    detector: &Detector,
    num_cores: usize,
) -> Option<RepairSummary> {
    let share = machine.stats().remote_hitm_share();
    let cost_factor = if share == 0.0 {
        1.0
    } else {
        let local = machine.latency().hitm.max(1) as f64;
        let remote = machine.topology().remote_latency().remote_hitm as f64;
        1.0 + share * (remote / local - 1.0)
    };
    let threshold = config.repair_rate_threshold / cost_factor;
    let pcs = detector.repair_trigger_pcs(machine.elapsed_benchmark_seconds(), threshold);
    if pcs.is_empty() {
        return None;
    }
    let plan = RepairPlan::analyze(
        machine.program(),
        &pcs,
        config.min_stores_per_flush,
        config.max_plan_blocks,
    )?;
    if !plan.profitable {
        return None;
    }
    let hook = SsbHook::new(plan.clone(), num_cores);
    let summary = RepairSummary {
        triggered_at_cycle: machine.cycles(),
        plan,
        stats: hook.stats(),
    };
    machine.attach_hook(Box::new(hook));
    Some(summary)
}

/// An exact digest of everything a session outcome holds, so outcomes can
/// be compared across passes and against a replay without keeping them.
pub fn fingerprint(outcome: &LaserOutcome) -> u64 {
    // FNV-1a over the Debug rendering, which covers every field.
    format!("{outcome:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// One session of a job: a workload on a topology.
#[derive(Debug, Clone)]
pub struct Case {
    /// The workload.
    pub spec: WorkloadSpec,
    /// The socket topology the session deploys on.
    pub topology: TopologySpec,
}

/// A fixed set of sessions run one after another on one thread: one pass
/// of a session workload.
#[derive(Debug, Clone)]
pub struct Job {
    /// The sessions, in run order.
    pub cases: Vec<Case>,
    /// Input-scale multiplier of every workload.
    pub scale: f64,
    /// LASER configuration shared by every session (topology aside).
    pub config: LaserConfig,
}

/// What one session of a pass produced.
#[derive(Debug, Clone)]
pub struct SessionResult {
    /// The outcome digest ([`fingerprint`]).
    pub fingerprint: u64,
    /// The outcome itself.
    pub outcome: LaserOutcome,
}

/// One pass of a job.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Host seconds for the whole pass.
    pub wall_s: f64,
    /// Host seconds spent building workloads and sessions.
    pub setup_s: f64,
    /// Per-session results in case order, or the error a session hit.
    pub sessions: Vec<Result<SessionResult, String>>,
}

impl Job {
    fn config(&self, topology: TopologySpec) -> LaserConfig {
        self.config.clone().with_topology(topology)
    }

    fn options(&self, topology: TopologySpec) -> BuildOptions {
        BuildOptions::scaled(self.scale).for_topology(topology)
    }

    /// Run every session through `LaserSession::run`, untraced.
    pub fn run(&self) -> Pass {
        let start = Instant::now();
        let mut setup = Duration::ZERO;
        let sessions = self
            .cases
            .iter()
            .map(|case| {
                let built = Instant::now();
                let image = case.spec.build(&self.options(case.topology));
                let session = SessionBuilder::new()
                    .config(self.config(case.topology))
                    .build(&image);
                setup += built.elapsed();
                session.run().map(result).map_err(|e| e.to_string())
            })
            .collect();
        Pass {
            wall_s: start.elapsed().as_secs_f64(),
            setup_s: setup.as_secs_f64(),
            sessions,
        }
    }

    /// Replay every session layer by layer, timing each call into `spans`.
    pub fn replay(&self, spans: &mut Spans, fault: Fault) -> Pass {
        let setup =
            |spans: &Spans| spans.secs("workloads.build") + spans.secs("core.session.build");
        let start = Instant::now();
        let setup_before = setup(spans);
        let sessions = self
            .cases
            .iter()
            .map(|case| {
                let image = spans.time("workloads.build", || {
                    case.spec.build(&self.options(case.topology))
                });
                replay(&self.config(case.topology), &image, spans, fault)
                    .map(result)
                    .map_err(|e| e.to_string())
            })
            .collect();
        Pass {
            wall_s: start.elapsed().as_secs_f64(),
            setup_s: setup(spans) - setup_before,
            sessions,
        }
    }

    /// Simulated cycles of each session run natively (no tool attached), in
    /// case order: the base of the slowdown figure.
    ///
    /// # Errors
    /// Returns the first native run's machine error.
    pub fn native_cycles(&self) -> Result<Vec<u64>, String> {
        self.cases
            .iter()
            .map(|case| {
                let image = case.spec.build(&self.options(case.topology));
                Machine::new(MachineConfig::for_topology(case.topology), &image)
                    .run_to_completion()
                    .map(|run| run.cycles)
                    .map_err(|e| e.to_string())
            })
            .collect()
    }
}

fn result(outcome: LaserOutcome) -> SessionResult {
    SessionResult {
        fingerprint: fingerprint(&outcome),
        outcome,
    }
}

/// Detection fidelity of a pass, scored against the known-bug database the
/// way the paper's Tables 1 and 2 score it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fidelity {
    /// Known bugs some reported line matches.
    pub bugs_found: usize,
    /// Reported lines that match a known bug, as a share of all reported.
    pub precision: f64,
    /// Buggy sessions whose most-sampled matching line has the bug's type.
    pub types_correct: usize,
    /// Geometric mean of LASER cycles over native cycles.
    pub slowdown_geomean: f64,
}

/// Score each session's outcome against its workload's known bugs, and
/// its cycles against the native cycles given with it.
pub fn fidelity(scored: &[(&Case, &LaserOutcome, u64)]) -> Fidelity {
    let mut bugs_found = 0;
    let mut reported = 0;
    let mut false_positives = 0;
    let mut types_correct = 0;
    let mut slowdowns = Vec::new();
    for (case, outcome, native) in scored {
        let spec = &case.spec;
        let (false_negatives, fp) = score_report(spec, &outcome.report);
        bugs_found += spec.known_bugs.len() - false_negatives;
        reported += outcome.report.lines.len();
        false_positives += fp;
        if let Some(bug) = spec.known_bugs.first() {
            let kind = outcome
                .report
                .lines
                .iter()
                .filter(|l| spec.is_known_bug_location(&l.location.file, l.location.line))
                .max_by_key(|l| l.hitm_records)
                .map(|l| l.kind);
            if matches!(
                (bug.kind, kind),
                (BugKind::FalseSharing, Some(ContentionKind::FalseSharing))
                    | (BugKind::TrueSharing, Some(ContentionKind::TrueSharing))
            ) {
                types_correct += 1;
            }
        }
        slowdowns.push(outcome.run.cycles as f64 / *native as f64);
    }
    Fidelity {
        bugs_found,
        precision: if reported == 0 {
            0.0
        } else {
            (reported - false_positives) as f64 / reported as f64
        },
        types_correct,
        slowdown_geomean: geomean(&slowdowns),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laser_workloads::find;

    fn job(repair: bool) -> Job {
        Job {
            cases: ["histogram'", "linear_regression"]
                .iter()
                .flat_map(|name| {
                    [TopologySpec::Flat, TopologySpec::QuadSocket].map(|topology| Case {
                        spec: find(name).expect("registered workload"),
                        topology,
                    })
                })
                .collect(),
            scale: 0.3,
            config: LaserConfig {
                enable_repair: repair,
                sav: if repair { 19 } else { 1 },
                seed: 7,
                ..LaserConfig::default()
            },
        }
    }

    fn fingerprints(pass: &Pass) -> Vec<u64> {
        pass.sessions
            .iter()
            .map(|s| s.as_ref().expect("session runs").fingerprint)
            .collect()
    }

    #[test]
    fn replay_reproduces_the_session_with_and_without_repair() {
        for repair in [false, true] {
            let job = job(repair);
            let mut spans = Spans::default();
            let replayed = job.replay(&mut spans, Fault::None);
            assert_eq!(fingerprints(&job.run()), fingerprints(&replayed));
            assert!(spans.total("machine.steps") > 0);
            assert!(spans.total("core.detect.records") > 0);
            assert!(spans.secs("machine.run_quantum") > 0.0);
        }
    }

    #[test]
    fn repair_runs_take_the_hooked_path() {
        let job = job(true);
        let mut spans = Spans::default();
        let pass = job.replay(&mut spans, Fault::None);
        assert!(spans.total("machine.hooked.steps") > 0);
        assert!(pass
            .sessions
            .iter()
            .any(|s| s.as_ref().is_ok_and(|s| s.outcome.repair.is_some())));
    }

    #[test]
    fn a_replay_that_skips_the_detector_charge_is_caught() {
        let job = job(false);
        let broken = job.replay(&mut Spans::default(), Fault::SkipDetectorCharge);
        let run = job.run();
        for (a, b) in fingerprints(&run).iter().zip(fingerprints(&broken)) {
            assert_ne!(*a, b);
        }
    }

    #[test]
    fn fidelity_scores_the_known_bugs() {
        let job = job(false);
        let pass = job.run();
        let native = job.native_cycles().expect("native runs finish");
        let scored: Vec<(&Case, &LaserOutcome, u64)> = job
            .cases
            .iter()
            .zip(&pass.sessions)
            .zip(native)
            .map(|((case, s), n)| (case, &s.as_ref().expect("session runs").outcome, n))
            .collect();
        let f = fidelity(&scored);
        assert!(f.bugs_found > 0);
        assert!(f.precision > 0.0 && f.precision <= 1.0);
        assert!(f.slowdown_geomean > 0.0);
    }
}
