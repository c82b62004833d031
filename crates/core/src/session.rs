//! A self-contained, movable, observable LASER run.
//!
//! [`LaserSession`] owns every piece of the deployment of the paper's
//! Figure 8 — the simulated machine, the kernel driver + PMU, the user-space
//! detector and (once triggered) the repair instrumentation. Nothing inside
//! is shared behind `Rc`/`RefCell`, so a session is `Send`: it can be built
//! on one thread, moved to a worker, and driven to completion there. That is
//! the property `laser-bench`'s campaign runner relies on to fan whole
//! `workload × tool` experiment grids across a thread pool.
//!
//! Sessions are built with [`SessionBuilder`] (obtained from
//! [`Laser::builder`](crate::system::Laser::builder)), the single
//! construction path behind every legacy constructor:
//!
//! ```no_run
//! use laser_core::{Laser, LaserConfig};
//! # fn image() -> laser_machine::WorkloadImage { unimplemented!() }
//!
//! let outcome = Laser::builder()
//!     .config(LaserConfig::detection_only())
//!     .build(&image())
//!     .run()
//!     .unwrap();
//! ```
//!
//! The session advances in *poll quanta*: the application runs
//! `poll_interval_steps` instructions, then the driver services the PMU and
//! the detector consumes the new records. Each quantum is reported to the
//! session's [`Observer`] as a stream of typed [`LaserEvent`]s, and the
//! observer can cancel the run mid-flight by returning `ControlFlow::Break`
//! (see [`crate::observe`]).
//!
//! # One engine, two deployments
//!
//! Every session runs the same engine. The machine runs a quantum and hands
//! its raw HITM batch to the *stage* — the driver (PMU sampling, imprecision,
//! record copy) and the one detector. The stage turns the batch into a
//! *quantum ledger*: the driver's interrupt/copy charges as a value
//! ([`laser_pebs::ChargeLedger`]), the number of records the detector
//! consumed, and, when the machine side needs them, the detector's per-line
//! aggregates. The machine *settles* each ledger at a quantum boundary: it
//! applies the charges, prices the detector's work, emits the batch's events
//! and evaluates the repair trigger. Charge-back, detector pricing, event
//! emission and the repair trigger therefore have exactly one implementation.
//!
//! The deployment only decides where the stage runs and when its ledger
//! settles:
//!
//! * **inline** (the default): the stage runs on the calling thread and each
//!   ledger settles at the boundary of its own quantum.
//! * **pipelined** ([`SessionBuilder::pipeline`]): the stage runs on one
//!   worker thread, fed through a bounded `std::sync::mpsc::sync_channel`, so
//!   sampling and detection overlap the machine. The ledger for quantum `k`
//!   settles at boundary `k + lag`, where the lag is
//!   [`PipelineConfig::driver_lag_quanta`]:
//!   * **lag = 0** (the default): the machine waits for each quantum's ledger
//!     before running the next quantum, so it settles at the same point an
//!     inline run does. Charges within a ledger commute (the scheduler's pick
//!     is a pure function of the final per-core clocks), so a lag-0 pipelined
//!     run is **byte-identical** to inline — outcome and event stream alike.
//!   * **lag ≥ 1**: the machine runs quantum `k + 1` while the stage is still
//!     servicing quantum `k`. Deferring the charges moves the cores' clocks
//!     relative to an inline run, which perturbs the interleaving and hence
//!     the HITM stream: lag ≥ 1 is **deterministic** (byte-for-byte
//!     repeatable for a fixed configuration) but *not* inline-identical.
//!
//! A pipelined session delivers a batch's `RecordBatch`/`DetectionUpdate`
//! events at the boundary where its ledger settles, so a `Break` returned
//! against them stops the session at that boundary — at lag 0 the same
//! boundary as inline, with the same stream bytes.

use std::collections::VecDeque;
use std::fmt;
use std::ops::ControlFlow;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use laser_isa::program::Pc;
use laser_machine::machine::MachineError;
use laser_machine::{CoreId, HitmEvent, Machine, MachineConfig, RunStatus, WorkloadImage};
use laser_pebs::driver::{ChargeLedger, Driver};
use laser_pebs::imprecision::ImprecisionModel;
use laser_pebs::pmu::{Pmu, PmuConfig};

use crate::config::LaserConfig;
use crate::detect::{self, Detector, LineAgg};
use crate::observe::{LaserEvent, NullObserver, Observer, StopReason};
use crate::repair::{RepairPlan, SsbHook};
use crate::system::{LaserError, LaserOutcome, RepairSummary};

/// What one call to [`LaserSession::advance`] left the session in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionStatus {
    /// The application has more work; call [`LaserSession::advance`] again.
    Running,
    /// The application halted; call [`LaserSession::finish`] for the outcome.
    Done,
    /// The session's [`Observer`] cancelled the run. The partial state is
    /// still inspectable, but there is no complete outcome to produce.
    Stopped(StopReason),
}

/// Where a session's driver+detector stage runs (see the
/// [module docs](self)).
///
/// ```no_run
/// use laser_core::{Laser, LaserConfig, PipelineConfig};
/// # fn image() -> laser_machine::WorkloadImage { unimplemented!() }
///
/// // Overlap the stage with the machine, settling each ledger one quantum
/// // late: deterministic, but not byte-identical to inline.
/// let lagged = Laser::builder()
///     .config(LaserConfig::detection_only())
///     .pipeline_config(PipelineConfig::pipelined().with_driver_lag(1))
///     .build(&image())
///     .run()
///     .unwrap();
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Run the stage on a worker thread, overlapping sampling and detection
    /// with the next quantum of application execution.
    pub enabled: bool,
    /// How many quantum boundaries a pipelined stage's ledger may lag behind
    /// the batch it accounts for. At the default of 0 the machine waits for
    /// each quantum's ledger before running the next quantum, and the run is
    /// byte-identical to inline; at lag ≥ 1 the machine overlaps execution
    /// with the stage — deterministic, but not inline-identical.
    pub driver_lag_quanta: usize,
}

impl PipelineConfig {
    /// The standard pipelined deployment: the stage on a worker thread,
    /// ledgers settled at lag 0.
    pub fn pipelined() -> Self {
        PipelineConfig {
            enabled: true,
            ..Default::default()
        }
    }

    /// Set the charge-back lag in quanta (builder-style). 0 (the default)
    /// keeps the run byte-identical to inline; lag ≥ 1 overlaps the machine
    /// and the stage, deterministic but not inline-identical (see the
    /// [module docs](self)).
    pub fn with_driver_lag(mut self, lag: usize) -> Self {
        self.driver_lag_quanta = lag;
        self
    }
}

/// Fluent construction of a [`LaserSession`]: LASER configuration, machine
/// configuration, an optional [`Observer`] and the pipeline deployment, in
/// any order, then [`SessionBuilder::build`].
///
/// ```no_run
/// use std::ops::ControlFlow;
/// use laser_core::{Laser, LaserConfig, LaserEvent};
/// # fn image() -> laser_machine::WorkloadImage { unimplemented!() }
///
/// let session = Laser::builder()
///     .config(LaserConfig::default().with_seed(7))
///     .machine(laser_machine::MachineConfig::default())
///     .pipeline(true)
///     .observer(|event: &LaserEvent| {
///         if let LaserEvent::RepairAttached { at_cycle, .. } = event {
///             eprintln!("repair attached at cycle {at_cycle}");
///         }
///         ControlFlow::Continue(())
///     })
///     .build(&image());
/// ```
#[derive(Default)]
pub struct SessionBuilder {
    config: LaserConfig,
    machine: MachineConfig,
    observer: Option<Box<dyn Observer>>,
    pipeline: PipelineConfig,
}

impl fmt::Debug for SessionBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionBuilder")
            .field("config", &self.config)
            .field("machine", &self.machine)
            .field("observer", &self.observer.is_some())
            .field("pipeline", &self.pipeline)
            .finish()
    }
}

impl SessionBuilder {
    /// A builder with the default LASER and machine configurations and no
    /// observer. Equivalent to [`Laser::builder`](crate::system::Laser::builder).
    pub fn new() -> Self {
        SessionBuilder::default()
    }

    /// Set the LASER configuration (default: [`LaserConfig::default`]).
    pub fn config(mut self, config: LaserConfig) -> Self {
        self.config = config;
        self
    }

    /// Set the machine configuration (default: [`MachineConfig::default`]).
    pub fn machine(mut self, machine: MachineConfig) -> Self {
        self.machine = machine;
        self
    }

    /// Run the driver+detector stage on a worker thread, overlapped with
    /// application execution (default: off). Shorthand for
    /// [`SessionBuilder::pipeline_config`] at lag 0; the results are
    /// byte-identical either way, only the wall-clock changes.
    pub fn pipeline(mut self, enabled: bool) -> Self {
        self.pipeline.enabled = enabled;
        self
    }

    /// Set the full pipeline deployment (worker thread, charge-back lag).
    pub fn pipeline_config(mut self, pipeline: PipelineConfig) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// Attach an [`Observer`] that receives the run's
    /// [`LaserEvent`] stream and may cancel the
    /// run. Without one, events go to a [`NullObserver`].
    pub fn observer(self, observer: impl Observer + 'static) -> Self {
        self.boxed_observer(Box::new(observer))
    }

    /// Like [`SessionBuilder::observer`], for an observer that is already
    /// boxed (e.g. one threaded through `dyn`-typed plumbing).
    pub fn boxed_observer(mut self, observer: Box<dyn Observer>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Construct the session for `image`. Pure setup: nothing runs until
    /// [`LaserSession::advance`] or [`LaserSession::run`] (a pipelined
    /// session's worker thread spawns here, but idles on an empty channel).
    ///
    /// A non-flat [`LaserConfig::topology`] deploys the machine on that
    /// preset (its socket topology and 4-cores-per-socket count) unless the
    /// caller supplied a machine configuration with its own non-default
    /// topology, which then wins.
    ///
    /// # Panics
    /// Panics if the machine configuration fails validation — a zero clock
    /// frequency, a non-monotone latency ladder, or cross-socket latencies
    /// cheaper than local ones — so nonsense cost models are rejected here
    /// instead of producing corrupt HITM rates downstream.
    pub fn build(self, image: &WorkloadImage) -> LaserSession {
        let SessionBuilder {
            config,
            machine: mut machine_config,
            observer,
            pipeline,
        } = self;
        if config.topology != laser_machine::TopologySpec::Flat
            && machine_config.topology == laser_machine::Topology::single_socket()
        {
            machine_config.topology = config.topology.topology();
            if machine_config.num_cores == MachineConfig::default().num_cores {
                machine_config.num_cores = config.topology.num_cores();
            }
        }
        let max_steps = machine_config.max_steps;
        let num_cores = machine_config.num_cores;
        let machine = Machine::new(machine_config, image);

        let program = image.program();
        let code_range = (program.base_pc(), program.end_pc());
        let model = ImprecisionModel::new(
            config.imprecision,
            image.memory_map(),
            code_range,
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
        let stage = Stage {
            driver: Driver::new(pmu, config.driver),
            detector: Detector::new(&config, program, image.memory_map()),
            num_cores,
            busy: None,
        };
        let mode = if pipeline.enabled {
            Mode::Piped(PipeStage::spawn(stage, pipeline.driver_lag_quanta))
        } else {
            Mode::Inline(Box::new(stage))
        };

        LaserSession {
            config,
            machine,
            mode,
            observed: observer.is_some(),
            observer: observer.unwrap_or_else(|| Box::new(NullObserver)),
            workload: image.name().to_string(),
            num_cores,
            max_steps,
            detector_cycles: 0,
            reported_dropped: 0,
            last_aggs: Vec::new(),
            repair: None,
            machine_busy: Duration::ZERO,
        }
    }
}

/// Cumulative busy time of each stage of a pipelined session, measured on
/// the stage threads themselves. Only meaningful relative to the run's wall
/// clock: `busy / wall` is the stage's occupancy, and the largest fraction
/// names the pipeline's bottleneck.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageOccupancy {
    /// Time the machine thread spent inside `run_quantum`.
    pub machine_busy: Duration,
    /// Time the stage thread spent in the driver: PMU sampling, imprecision
    /// and record copy.
    pub driver_busy: Duration,
    /// Time the stage thread spent in the detector, aggregates included.
    pub detector_busy: Duration,
}

/// A unit of work for the stage.
enum Job {
    /// One quantum's raw HITM batch, exactly as `run_quantum` yielded it.
    Batch {
        events: Vec<HitmEvent>,
        /// Whether the machine side needs the detector's per-line aggregates
        /// after this batch: while the session is observed (for
        /// `DetectionUpdate`), or while repair is enabled but not yet
        /// attached (for the trigger).
        needs_aggs: bool,
    },
    /// End of run: drain what is still sitting in the PEBS buffers. The
    /// flush takes no interrupt, so its ledger carries no driver charges.
    Flush,
}

/// What the stage hands back for one batch: everything the machine needs to
/// settle the quantum at its boundary.
struct QuantumLedger {
    /// The batch's interrupt/copy overhead, computed as a pure function of
    /// the batch by `Driver::ingest_deferred`.
    charges: ChargeLedger,
    /// Sampled records the detector consumed, priced on the machine at the
    /// per-record detector cost.
    records: usize,
    /// Cumulative `DriverStats::events_dropped` as of this batch, for the
    /// observer's `RecordBatch` drop watermark.
    events_dropped: u64,
    /// The detector's per-line aggregates after this batch, when the job
    /// asked for them (never for the final flush).
    aggs: Option<Vec<LineAgg>>,
}

/// The driver and the one detector: everything between a quantum's raw HITM
/// batch and the ledger the machine settles. Runs on the calling thread of
/// an inline session and on the worker thread of a pipelined one.
#[derive(Debug)]
struct Stage {
    driver: Driver,
    detector: Detector,
    num_cores: usize,
    /// Driver and detector busy time, measured only on a pipelined stage
    /// (`machine_busy` unused here); inline runs skip the measurement.
    busy: Option<StageOccupancy>,
}

impl Stage {
    /// Sample the job's batch (or drain the buffers), detect on the
    /// resulting records, and hand the ledger to `reply` as soon as it is
    /// complete. A job that needs no aggregates is answered *before*
    /// detection, so a pipelined machine never waits on detector work whose
    /// result it does not read; the detector's state only becomes visible
    /// again through a later ledger's aggregates or the final report.
    fn service<R>(&mut self, job: Job, reply: impl FnOnce(QuantumLedger) -> R) -> R {
        #[expect(
            clippy::disallowed_methods,
            reason = "occupancy accounting only; never feeds back into simulated state"
        )]
        let start = self.busy.is_some().then(Instant::now);
        let (charges, needs_aggs) = match job {
            Job::Batch { events, needs_aggs } => (
                self.driver.ingest_deferred(events, self.num_cores),
                needs_aggs,
            ),
            Job::Flush => {
                self.driver.flush();
                (ChargeLedger::default(), false)
            }
        };
        let records = self.driver.read_records();
        let mut ledger = QuantumLedger {
            charges,
            records: records.len(),
            events_dropped: self.driver.stats().events_dropped,
            aggs: None,
        };
        #[expect(
            clippy::disallowed_methods,
            reason = "occupancy accounting only; never feeds back into simulated state"
        )]
        let split = start.map(|_| Instant::now());
        let replied = if needs_aggs {
            self.detector.process(&records);
            ledger.aggs = Some(self.detector.line_aggregates());
            reply(ledger)
        } else {
            let replied = reply(ledger);
            self.detector.process(&records);
            replied
        };
        if let (Some(busy), Some(start), Some(split)) = (self.busy.as_mut(), start, split) {
            busy.driver_busy += split - start;
            busy.detector_busy += split.elapsed();
        }
        replied
    }
}

/// The worker end of a pipelined session: the stage's job and ledger
/// channels, the worker thread, and the bounded-lag settlement bookkeeping.
struct PipeStage {
    jobs: mpsc::SyncSender<Job>,
    /// One reply per job, in job order. A stage that panics sends its panic
    /// payload instead — possibly after its last reply, when the panic hit
    /// an already-answered job's detection — so the session re-raises the
    /// real diagnostic.
    ledgers: mpsc::Receiver<thread::Result<QuantumLedger>>,
    worker: JoinHandle<Stage>,
    /// The configured `driver_lag_quanta`.
    lag: u64,
    /// The boundary index the next quantum will settle at.
    next_quantum: u64,
    /// Boundary indices of batches whose ledgers have not settled yet, in
    /// send order. The front settles once `front + lag <= current boundary`.
    outstanding: VecDeque<u64>,
}

impl PipeStage {
    fn spawn(mut stage: Stage, lag: usize) -> Self {
        stage.busy = Some(StageOccupancy::default());
        // The job channel holds at least lag + 1 quanta so a full credit
        // window never blocks the machine on its own backpressure.
        let (jobs, jobs_rx) = mpsc::sync_channel::<Job>(2.max(lag + 1));
        let (ledgers_tx, ledgers) = mpsc::channel();
        let worker = thread::spawn(move || {
            let served = panic::catch_unwind(AssertUnwindSafe(|| {
                // Ends when the session drops its job sender. A dead ledger
                // channel means the session was dropped mid-run.
                for job in jobs_rx {
                    if !stage.service(job, |ledger| ledgers_tx.send(Ok(ledger)).is_ok()) {
                        break;
                    }
                }
            }));
            if let Err(payload) = served {
                let _ = ledgers_tx.send(Err(payload));
            }
            stage
        });
        PipeStage {
            jobs,
            ledgers,
            worker,
            lag: lag as u64,
            next_quantum: 0,
            outstanding: VecDeque::new(),
        }
    }

    /// Hand the stage `job` (if any) and collect every ledger that has come
    /// due at this quantum's boundary (front quantum + lag ≤ boundary), in
    /// quantum order. `drain` settles everything outstanding, lag or no lag.
    fn exchange(&mut self, job: Option<Job>, drain: bool) -> Vec<QuantumLedger> {
        let boundary = if drain {
            u64::MAX
        } else {
            self.next_quantum += 1;
            self.next_quantum - 1
        };
        if let Some(job) = job {
            // The worker only stops receiving once this sender is dropped or
            // after queueing its panic payload, which the `recv` below then
            // re-raises.
            let _ = self.jobs.send(job);
            self.outstanding.push_back(boundary);
        }
        let mut due = Vec::new();
        while matches!(self.outstanding.front(), Some(&q) if q.saturating_add(self.lag) <= boundary)
        {
            self.outstanding.pop_front();
            due.push(self.recv());
        }
        due
    }

    /// Block for the stage's next ledger, re-raising the stage's own panic
    /// if it died: the campaign runner's per-cell `catch_unwind` then records
    /// the true message.
    fn recv(&self) -> QuantumLedger {
        // Yield-spin before parking: at lag 0 the machine waits for the
        // stage once per quantum, and a bounded yield loop is much cheaper
        // than a futex park/unpark round-trip — on a single hardware thread
        // each yield hands the timeslice straight to the stage, and on a
        // multi-core host the ledger usually lands within a few yields.
        let mut reply = None;
        for _ in 0..64 {
            match self.ledgers.try_recv() {
                Err(mpsc::TryRecvError::Empty) => thread::yield_now(),
                received => {
                    reply = Some(received.map_err(|_| mpsc::RecvError));
                    break;
                }
            }
        }
        match reply.unwrap_or_else(|| self.ledgers.recv()) {
            Ok(Ok(ledger)) => ledger,
            Ok(Err(payload)) => panic::resume_unwind(payload),
            // The worker holds its ledger sender until it has replied to
            // every job or queued its panic, so this is a protocol bug.
            #[expect(
                clippy::panic,
                reason = "a worker exiting with replies owed is a protocol bug worth crashing the cell"
            )]
            Err(_) => panic!("laser stage worker exited with batches outstanding"),
        }
    }

    /// Close the job channel and reclaim the stage. Call once every
    /// outstanding ledger has settled: anything still queued on the ledger
    /// channel is then a panic the stage hit after its last reply.
    fn join(self) -> Stage {
        drop(self.jobs);
        let stage = match self.worker.join() {
            Ok(stage) => stage,
            Err(payload) => panic::resume_unwind(payload),
        };
        if let Ok(Err(payload)) = self.ledgers.try_recv() {
            panic::resume_unwind(payload);
        }
        stage
    }
}

/// Where a session's stage runs.
enum Mode {
    /// On the calling thread; each ledger settles at its own boundary.
    Inline(Box<Stage>),
    /// On a worker thread; each ledger settles `lag` boundaries later.
    Piped(PipeStage),
}

impl Mode {
    /// Hand the stage `job` (if any) and return the ledgers due now.
    fn exchange(&mut self, job: Option<Job>, drain: bool) -> Vec<QuantumLedger> {
        match self {
            Mode::Inline(stage) => job
                .map(|job| stage.service(job, |ledger| ledger))
                .into_iter()
                .collect(),
            Mode::Piped(pipe) => pipe.exchange(job, drain),
        }
    }
}

/// A settled ledger's observer payload, staged until the boundary's events
/// are emitted (in quantum order, after `QuantumCompleted`).
struct DueEmission {
    records: usize,
    dropped: u64,
    aggs: Option<Vec<LineAgg>>,
}

/// An in-flight LASER run: application, driver, detector, observer and
/// (optionally) repair, as one owned value.
pub struct LaserSession {
    config: LaserConfig,
    machine: Machine,
    mode: Mode,
    /// Whether an observer was attached at build time. Events are not even
    /// constructed when this is false, so unobserved runs (every legacy entry
    /// point) pay nothing for the event stream.
    observed: bool,
    observer: Box<dyn Observer>,
    workload: String,
    num_cores: usize,
    max_steps: u64,
    detector_cycles: u64,
    /// PMU drop count already reported through `RecordBatch` events.
    reported_dropped: u64,
    /// The detector's aggregates as of the last settled ledger that carried
    /// them: what the armed repair trigger evaluates at each boundary.
    last_aggs: Vec<LineAgg>,
    repair: Option<RepairSummary>,
    /// Wall time the machine thread spent inside `run_quantum` (pipelined
    /// sessions only; inline runs skip the measurement entirely).
    machine_busy: Duration,
}

impl fmt::Debug for LaserSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LaserSession")
            .field("config", &self.config)
            .field("machine", &self.machine)
            .field(
                "stage",
                &match &self.mode {
                    Mode::Inline(stage) => Some(stage),
                    Mode::Piped(_) => None,
                },
            )
            .field("pipelined", &self.is_pipelined())
            .field("workload", &self.workload)
            .field("num_cores", &self.num_cores)
            .field("max_steps", &self.max_steps)
            .field("detector_cycles", &self.detector_cycles)
            .field("repair", &self.repair)
            .finish_non_exhaustive()
    }
}

impl LaserSession {
    /// Set up a run of `image` under LASER on a machine with `machine_config`.
    ///
    /// Legacy entry point: delegates to [`SessionBuilder`], which also takes
    /// an [`Observer`].
    pub fn new(config: LaserConfig, image: &WorkloadImage, machine_config: MachineConfig) -> Self {
        SessionBuilder::new()
            .config(config)
            .machine(machine_config)
            .build(image)
    }

    /// The machine being monitored.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The detector's live state, when the stage runs inline. A pipelined
    /// session's detector lives on its worker thread, so this is `None`.
    pub fn detector(&self) -> Option<&Detector> {
        match &self.mode {
            Mode::Inline(stage) => Some(&stage.detector),
            Mode::Piped(_) => None,
        }
    }

    /// Whether the stage runs pipelined on a worker thread.
    pub fn is_pipelined(&self) -> bool {
        matches!(self.mode, Mode::Piped(_))
    }

    /// Cycles the detector process has consumed so far.
    pub fn detector_cycles(&self) -> u64 {
        self.detector_cycles
    }

    /// Whether LASERREPAIR has been attached.
    pub fn repair_triggered(&self) -> bool {
        self.repair.is_some()
    }

    /// Send one event to the observer.
    fn emit(&mut self, event: LaserEvent) -> ControlFlow<StopReason> {
        self.observer.on_event(&event)
    }

    /// Whether the repair trigger is still evaluated at each boundary.
    fn repair_armed(&self) -> bool {
        self.config.enable_repair && self.repair.is_none()
    }

    /// The mean cost of this run's HITM events relative to a local one.
    ///
    /// The paper's repair trigger is a threshold on the false-sharing *event
    /// rate*, calibrated to a single socket where every HITM costs the same.
    /// On a multi-socket part each cross-socket HITM is 2–3× dearer — and
    /// therefore *rarer per second*, because the contended line ping-pongs
    /// more slowly — so a raw event-rate trigger under-fires exactly where
    /// repair pays most. Weighting the trigger by this factor makes it a
    /// threshold on the *cost* of the false sharing, which is what repair
    /// recovers. On a single-socket topology the factor is exactly 1.0, so
    /// flat runs are byte-identical to the pre-topology trigger.
    fn hitm_cost_factor(&self) -> f64 {
        let stats = self.machine.stats();
        let share = stats.remote_hitm_share();
        if share == 0.0 {
            return 1.0;
        }
        let local = self.machine.latency().hitm.max(1) as f64;
        let remote = self.machine.topology().remote_latency().remote_hitm as f64;
        1.0 + share * (remote / local - 1.0)
    }

    /// The repair trigger threshold with the topology cost weighting applied
    /// (see [`LaserSession::hitm_cost_factor`]). Evaluated on the machine
    /// thread at the settling boundary, whatever the deployment.
    fn effective_repair_threshold(&self) -> f64 {
        self.config.repair_rate_threshold / self.hitm_cost_factor()
    }

    /// Charge `cycles` of detector work to the machine, spread over the
    /// cores. Integer division would silently drop `cycles % num_cores` — on
    /// small batches that rounds the whole charge down to zero — so the
    /// remainder is distributed one cycle each to the first cores, keeping
    /// the total charged exactly `cycles` (the same policy as the driver's
    /// record-copy charging).
    fn charge_detector_cycles(&mut self, cycles: u64) {
        self.detector_cycles += cycles;
        let per_core = cycles / self.num_cores as u64;
        if per_core > 0 {
            self.machine.charge_all_cores(per_core);
        }
        let remainder = (cycles % self.num_cores as u64) as usize;
        for core in 0..remainder {
            self.machine.charge_cycles(CoreId(core), 1);
        }
    }

    /// Run one poll quantum: `poll_interval_steps` application instructions,
    /// then hand the quantum's HITM batch to the stage (driver service pass
    /// and detector batch), settle every ledger that has come due, and —
    /// when the false-sharing rate crosses the threshold — decide whether to
    /// attach repair. The quantum is reported to the session's [`Observer`]
    /// as [`LaserEvent`]s; if the observer breaks, the quantum's remaining
    /// events are skipped and the session reports [`SessionStatus::Stopped`].
    /// Every event is emitted *after* the work it describes, so a stopped
    /// session is always in a consistent state (a later
    /// [`LaserSession::finish`] never undercounts).
    ///
    /// An inline session settles the quantum's own ledger here; a pipelined
    /// one settles the ledgers `driver_lag_quanta` boundaries old (see the
    /// [module docs](self)).
    ///
    /// # Errors
    /// Returns an error if the machine exhausts its step budget.
    pub fn advance(&mut self) -> Result<SessionStatus, LaserError> {
        let steps_before = self.machine.steps();
        let quantum = if self.is_pipelined() {
            #[expect(
                clippy::disallowed_methods,
                reason = "occupancy accounting only; never feeds back into simulated state"
            )]
            let start = Instant::now();
            let quantum = self.machine.run_quantum(self.config.poll_interval_steps);
            self.machine_busy += start.elapsed();
            quantum
        } else {
            self.machine.run_quantum(self.config.poll_interval_steps)
        };
        let status = quantum.status;
        // Capture the quantum event *before* any ledger settles, so its
        // cycle count excludes this quantum's interrupt and copy overhead.
        let quantum_event = self.observed.then(|| LaserEvent::QuantumCompleted {
            steps: self.machine.steps() - steps_before,
            cycles: self.machine.cycles(),
        });

        let job = (!quantum.events.is_empty()).then(|| Job::Batch {
            events: quantum.events,
            needs_aggs: self.observed || self.repair_armed(),
        });
        let due = self.settle(job, false);
        let flow = self.emit_boundary(quantum_event, due);
        if let ControlFlow::Break(reason) = flow {
            return Ok(SessionStatus::Stopped(reason));
        }

        if status == RunStatus::Running && self.machine.steps() >= self.max_steps {
            return Err(LaserError::Machine(MachineError::MaxStepsExceeded {
                steps: self.max_steps,
            }));
        }
        Ok(match status {
            RunStatus::Running => SessionStatus::Running,
            RunStatus::Done => SessionStatus::Done,
        })
    }

    /// Hand the stage `job` (if any) and settle every ledger that comes due
    /// (all of them when `drain`), returning their observer payloads.
    fn settle(&mut self, job: Option<Job>, drain: bool) -> Vec<DueEmission> {
        let ledgers = self.mode.exchange(job, drain);
        ledgers
            .into_iter()
            .map(|ledger| self.settle_ledger(ledger))
            .collect()
    }

    /// Apply one ledger to the machine: the driver's charges, the detector's
    /// pricing, the drop watermark and the trigger's aggregates. The
    /// ledger's charges commute (the scheduler's pick depends only on the
    /// final per-core clocks), so applying them in one shot lands the
    /// machine in exactly the state synchronous per-record charging would
    /// have produced.
    fn settle_ledger(&mut self, ledger: QuantumLedger) -> DueEmission {
        ledger.charges.apply(&mut self.machine);
        let dropped = ledger.events_dropped - self.reported_dropped;
        if ledger.records > 0 {
            let cycles = detect::batch_processing_cycles(
                self.config.detector_cycles_per_record,
                ledger.records,
            );
            self.charge_detector_cycles(cycles);
            self.reported_dropped = ledger.events_dropped;
        }
        let aggs = match ledger.aggs {
            Some(aggs) if self.observed => {
                if self.repair_armed() {
                    self.last_aggs.clone_from(&aggs);
                }
                Some(aggs)
            }
            Some(aggs) => {
                self.last_aggs = aggs;
                None
            }
            None => None,
        };
        DueEmission {
            records: ledger.records,
            dropped,
            aggs,
        }
    }

    /// Emit one boundary's events — `QuantumCompleted`, then each settled
    /// batch's `RecordBatch` and `DetectionUpdate` in quantum order — and run
    /// the repair trigger off the latest aggregates.
    fn emit_boundary(
        &mut self,
        quantum_event: Option<LaserEvent>,
        due: Vec<DueEmission>,
    ) -> ControlFlow<StopReason> {
        if let Some(event) = quantum_event {
            self.emit(event)?;
        }
        self.emit_batches(due)?;
        if self.repair_armed() {
            // Re-evaluated at every boundary, batch or not: rates decay as
            // elapsed time grows.
            let pcs = detect::trigger_pcs_from(
                &self.last_aggs,
                self.machine.elapsed_benchmark_seconds(),
                self.effective_repair_threshold(),
            );
            if let Some(attached) = self.attach_repair_from_pcs(&pcs) {
                if self.observed {
                    self.emit(attached)?;
                }
            }
        }
        ControlFlow::Continue(())
    }

    /// Emit each settled batch's `RecordBatch` and, for quantum batches,
    /// its `DetectionUpdate` (an observed session's batch ledgers always
    /// carry aggregates; the final flush's never does).
    fn emit_batches(&mut self, due: Vec<DueEmission>) -> ControlFlow<StopReason> {
        if !self.observed {
            return ControlFlow::Continue(());
        }
        for emission in due.into_iter().filter(|e| e.records > 0) {
            self.emit(LaserEvent::RecordBatch {
                n: emission.records,
                dropped: emission.dropped,
            })?;
            if let Some(aggs) = emission.aggs {
                let lines =
                    detect::line_rates_from(&aggs, self.machine.elapsed_benchmark_seconds());
                self.emit(LaserEvent::DetectionUpdate {
                    lines,
                    remote_hitm_share: self.machine.stats().remote_hitm_share(),
                })?;
            }
        }
        ControlFlow::Continue(())
    }

    /// Attach the SSB instrumentation if `pcs` (the lines over the repair
    /// trigger threshold) yields a profitable plan. Returns the event to
    /// report on attachment.
    fn attach_repair_from_pcs(&mut self, pcs: &[Pc]) -> Option<LaserEvent> {
        if pcs.is_empty() {
            return None;
        }
        let plan = RepairPlan::analyze(
            self.machine.program(),
            pcs,
            self.config.min_stores_per_flush,
            self.config.max_plan_blocks,
        )?;
        if !plan.profitable {
            return None;
        }
        let hook = SsbHook::new(plan.clone(), self.num_cores);
        let event = LaserEvent::RepairAttached {
            at_cycle: self.machine.cycles(),
            instrumented_blocks: plan.instrumented_blocks.len(),
            flush_blocks: plan.flush_blocks.len(),
            ssb_stores: plan.ssb_stores.len(),
            estimated_stores_per_flush: plan.estimated_stores_per_flush,
        };
        self.repair = Some(RepairSummary {
            triggered_at_cycle: self.machine.cycles(),
            plan,
            stats: hook.stats(),
        });
        self.machine.attach_hook(Box::new(hook));
        Some(event)
    }

    /// Drive the session to completion.
    ///
    /// # Errors
    /// Returns [`LaserError::Machine`] if the machine exhausts its step
    /// budget, and [`LaserError::Stopped`] if the session's [`Observer`]
    /// cancelled the run.
    pub fn run(mut self) -> Result<LaserOutcome, LaserError> {
        loop {
            match self.advance()? {
                SessionStatus::Running => {}
                SessionStatus::Done => return Ok(self.finish()),
                SessionStatus::Stopped(reason) => return Err(LaserError::Stopped(reason)),
            }
        }
    }

    /// Settle every outstanding ledger, flush what is still buffered in the
    /// PEBS hardware through the detector, fold the repair hook's final
    /// counters into the summary, and produce the outcome.
    ///
    /// The final flush batch is charged to the machine exactly like an
    /// [`advance`](LaserSession::advance) batch — the detector is still
    /// sharing the chip while it drains the device — so the outcome's cycle
    /// count accounts for every record the detector processed. A pipelined
    /// session settles its outstanding ledgers (emitting their deferred
    /// events) and reclaims the stage from its worker first, so the final
    /// flush and the report see every streamed batch.
    pub fn finish(mut self) -> LaserOutcome {
        // Settle everything still outstanding, then drain the PEBS buffers
        // through the stage as one last batch. The run is over: a Break
        // here has nothing left to cancel.
        for job in [None, Some(Job::Flush)] {
            let due = self.settle(job, true);
            let _ = self.emit_batches(due);
        }
        let stage = match self.mode {
            Mode::Inline(stage) => *stage,
            Mode::Piped(pipe) => pipe.join(),
        };

        if let Some(summary) = self.repair.as_mut() {
            // The hook owns its statistics; read them back out of the machine.
            if let Some(ssb) = self
                .machine
                .hook()
                .and_then(|h| h.as_any())
                .and_then(|a| a.downcast_ref::<SsbHook>())
            {
                summary.stats = ssb.stats();
            }
        }

        if self.observed {
            let finished = LaserEvent::Finished {
                steps: self.machine.steps(),
                cycles: self.machine.cycles(),
            };
            let _ = self.observer.on_event(&finished);
        }

        let elapsed = self.machine.elapsed_benchmark_seconds();
        let mut report = stage.detector.report(
            &self.workload,
            elapsed,
            self.config.rate_threshold_hitm_per_sec,
            self.repair.is_some(),
        );
        // The detector only sees sampled records; the ground-truth socket
        // split comes from the machine.
        report.remote_hitm_share = self.machine.stats().remote_hitm_share();
        LaserOutcome {
            report,
            run: self.machine.result(),
            driver_stats: stage.driver.stats(),
            detector_cycles: self.detector_cycles,
            repair: self.repair,
            elapsed_benchmark_seconds: elapsed,
            stage_occupancy: stage.busy.map(|busy| StageOccupancy {
                machine_busy: self.machine_busy,
                ..busy
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::{BudgetObserver, CellBudget, EventLog};
    use crate::system::Laser;
    use laser_isa::inst::{Operand, Reg};
    use laser_isa::ProgramBuilder;
    use laser_machine::ThreadSpec;

    /// Two threads false-sharing adjacent counters in one cache line, using
    /// the memory-destination increment compilers emit for `counter[i]++`.
    fn contended_image(name: &str, iters: u64) -> WorkloadImage {
        let mut b = ProgramBuilder::new(name);
        b.source("xthread.c", 12);
        let entry = b.block("entry");
        let body = b.block("body");
        let exit = b.block("exit");
        b.switch_to(entry);
        b.movi(Reg(2), 0);
        b.jump(body);
        b.switch_to(body);
        b.mem_add(Reg(0), 0, Operand::Imm(1), 8);
        b.source("xthread.c", 13);
        b.addi(Reg(2), Reg(2), 1);
        b.cmp_lt(Reg(3), Reg(2), Operand::Imm(iters));
        b.branch(Reg(3), body, exit);
        b.switch_to(exit);
        b.halt();
        let program = b.finish();
        let mut image = laser_machine::WorkloadImage::new(name, program);
        let base = image.layout_mut().heap_alloc(64, 64).unwrap();
        image.push_thread(ThreadSpec::new("t0", "entry").with_reg(Reg(0), base));
        image.push_thread(ThreadSpec::new("t1", "entry").with_reg(Reg(0), base + 8));
        image
    }

    /// The whole point of the session refactor: a full LASER run is one owned
    /// value that can move across threads.
    #[test]
    fn session_and_its_pieces_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<LaserSession>();
        assert_send::<Machine>();
        assert_send::<Driver>();
        assert_send::<Detector>();
        assert_send::<LaserOutcome>();
    }

    #[test]
    fn session_run_on_a_worker_thread_matches_inline_run() {
        let image = contended_image("xthread", 1500);

        let config = LaserConfig::default();
        let inline = LaserSession::new(config.clone(), &image, MachineConfig::default())
            .run()
            .unwrap();

        let session = LaserSession::new(config, &image, MachineConfig::default());
        let moved = std::thread::spawn(move || session.run().unwrap())
            .join()
            .unwrap();

        assert_eq!(inline.cycles(), moved.cycles());
        assert_eq!(inline.report, moved.report);
        assert_eq!(inline.detector_cycles, moved.detector_cycles);
    }

    /// Regression test for two charging bugs: `advance` used to drop the
    /// `cycles % num_cores` remainder when spreading detector overhead (the
    /// same bug class as the driver's record-copy charging), and `finish`
    /// accumulated the final flush batch's detector cycles without charging
    /// the cores at all. Every injected cycle must now be accounted for:
    /// driver overhead plus detector cycles, exactly.
    #[test]
    fn detector_overhead_is_charged_exactly_including_the_final_flush() {
        let image = contended_image("exact", 3000);
        // A per-record cost that is odd and coprime with the core count so
        // batch charges almost always leave a remainder.
        let config = LaserConfig {
            detector_cycles_per_record: 37,
            ..LaserConfig::detection_only()
        };
        let outcome = Laser::builder().config(config).build(&image).run().unwrap();
        assert!(outcome.detector_cycles > 0);
        // The final flush processed records too: the detector's total must be
        // per-record cost times *all* sampled records, not just the polled
        // batches.
        assert_eq!(
            outcome.detector_cycles,
            outcome.driver_stats.records_sampled * 37
        );
        assert_eq!(
            outcome.run.stats.injected_overhead_cycles,
            outcome.driver_stats.overhead_cycles + outcome.detector_cycles,
            "total charged must equal driver overhead + detector cycles"
        );
    }

    // Builder/legacy-constructor outcome equivalence is pinned by the broader
    // integration test in `tests/end_to_end.rs`, which covers all four entry
    // points under both configurations on a real workload.

    #[test]
    fn stopped_session_can_still_finish_without_undercounting() {
        // An observer that breaks on the first RecordBatch: the batch must
        // already be processed and charged when the stop surfaces, so a
        // subsequent finish() yields an outcome whose detector accounting
        // still balances.
        let image = contended_image("stopfin", 6000);
        let config = LaserConfig {
            detector_cycles_per_record: 37,
            ..LaserConfig::detection_only()
        };
        let mut session = Laser::builder()
            .config(config)
            .observer(|event: &LaserEvent| {
                if let LaserEvent::RecordBatch { .. } = event {
                    return ControlFlow::Break(StopReason::Cancelled("first batch".into()));
                }
                ControlFlow::Continue(())
            })
            .build(&image);
        loop {
            match session.advance().unwrap() {
                SessionStatus::Running => {}
                SessionStatus::Done => panic!("observer should stop before completion"),
                SessionStatus::Stopped(reason) => {
                    assert_eq!(reason, StopReason::Cancelled("first batch".into()));
                    break;
                }
            }
        }
        let outcome = session.finish();
        assert!(outcome.driver_stats.records_sampled > 0);
        assert_eq!(
            outcome.detector_cycles,
            outcome.driver_stats.records_sampled * 37,
            "every sampled record must be processed and charged exactly once"
        );
        assert_eq!(
            outcome.run.stats.injected_overhead_cycles,
            outcome.driver_stats.overhead_cycles + outcome.detector_cycles
        );
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "integer sums: exact in any order"
    )]
    fn observer_stream_narrates_the_run_and_does_not_perturb_it() {
        let image = contended_image("events", 6000);
        let baseline = Laser::builder().build(&image).run().unwrap();

        let log = EventLog::new();
        let observed = Laser::builder()
            .observer(log.clone())
            .build(&image)
            .run()
            .unwrap();
        // Observation is read-only: the outcome is identical.
        assert_eq!(baseline.cycles(), observed.cycles());
        assert_eq!(baseline.report, observed.report);

        let events = log.events();
        assert!(matches!(events.last(), Some(LaserEvent::Finished { .. })));
        let total_steps: u64 = events
            .iter()
            .filter_map(|e| match e {
                LaserEvent::QuantumCompleted { steps, .. } => Some(*steps),
                _ => None,
            })
            .sum();
        assert_eq!(total_steps, observed.run.steps);
        let batched: u64 = events
            .iter()
            .filter_map(|e| match e {
                LaserEvent::RecordBatch { n, .. } => Some(*n as u64),
                _ => None,
            })
            .sum();
        assert_eq!(batched, observed.driver_stats.records_sampled);
        // This workload contends: the detector's live view reported it before
        // the run ended, and repair attached exactly once.
        assert!(events.iter().any(|e| matches!(
            e,
            LaserEvent::DetectionUpdate { lines, .. } if !lines.is_empty()
        )));
        assert!(observed.repair.is_some(), "repair should trigger");
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e, LaserEvent::RepairAttached { .. }))
                .count(),
            1
        );
    }

    #[test]
    fn observer_break_cancels_the_run_mid_flight() {
        let image = contended_image("cancel", 50_000);
        let mut quanta = 0u32;
        let err = Laser::builder()
            .observer(move |event: &LaserEvent| {
                if let LaserEvent::QuantumCompleted { .. } = event {
                    quanta += 1;
                    if quanta >= 2 {
                        return ControlFlow::Break(StopReason::Cancelled("test".into()));
                    }
                }
                ControlFlow::Continue(())
            })
            .build(&image)
            .run()
            .unwrap_err();
        assert_eq!(
            err,
            LaserError::Stopped(StopReason::Cancelled("test".into()))
        );
    }

    #[test]
    fn budget_observer_stops_a_session_at_its_step_budget() {
        let image = contended_image("budget", 50_000);
        let config = LaserConfig::detection_only();
        let limit = config.poll_interval_steps * 3;
        let err = Laser::builder()
            .config(config)
            .observer(BudgetObserver::new(CellBudget::steps(limit)))
            .build(&image)
            .run()
            .unwrap_err();
        match err {
            LaserError::Stopped(StopReason::StepBudget { limit: l, used }) => {
                assert_eq!(l, limit);
                assert!(used > limit);
            }
            other => panic!("expected a step-budget stop, got {other:?}"),
        }
    }

    #[test]
    fn advance_reports_stopped_and_leaves_state_inspectable() {
        let image = contended_image("stopped", 50_000);
        let mut session = Laser::builder()
            .observer(|_: &LaserEvent| {
                ControlFlow::Break(StopReason::Cancelled("immediately".into()))
            })
            .build(&image);
        let status = session.advance().unwrap();
        assert_eq!(
            status,
            SessionStatus::Stopped(StopReason::Cancelled("immediately".into()))
        );
        // The partial run is still inspectable.
        assert!(session.machine().steps() > 0);
        assert!(!session.repair_triggered());
    }

    #[test]
    fn config_topology_deploys_the_machine_on_the_preset() {
        use laser_machine::{ThreadPlacement, TopologySpec};
        // Two threads false-sharing one line, pinned to different sockets:
        // the session must surface the cross-socket share in its live
        // DetectionUpdate events and in the final report.
        let mut image = contended_image("xsock", 4000);
        image.set_thread_placement(ThreadPlacement::RoundRobin);
        let log = EventLog::new();
        let mut session = Laser::builder()
            .config(LaserConfig::detection_only().with_topology(TopologySpec::DualSocket))
            .observer(log.clone())
            .build(&image);
        assert_eq!(session.machine().num_cores(), 8);
        assert_eq!(session.machine().topology().num_sockets(), 2);
        loop {
            match session.advance().unwrap() {
                SessionStatus::Running => {}
                SessionStatus::Done => break,
                SessionStatus::Stopped(r) => panic!("unexpected stop: {r}"),
            }
        }
        let outcome = session.finish();
        let stats = &outcome.run.stats;
        assert!(stats.hitm_remote > 0, "threads sit on different sockets");
        assert_eq!(stats.hitm_remote, stats.hitm_events);
        assert!((outcome.report.remote_hitm_share - 1.0).abs() < 1e-12);
        assert!(log.events().iter().any(|e| matches!(
            e,
            LaserEvent::DetectionUpdate { remote_hitm_share, .. } if *remote_hitm_share > 0.99
        )));
    }

    #[test]
    fn explicit_machine_topology_wins_over_the_config_preset() {
        use laser_machine::{MachineConfig, Topology, TopologySpec};
        let image = contended_image("topoprec", 500);
        let session = Laser::builder()
            .config(LaserConfig::detection_only().with_topology(TopologySpec::DualSocket))
            .machine(MachineConfig {
                num_cores: 16,
                topology: Topology::quad_socket(),
                ..MachineConfig::default()
            })
            .build(&image);
        assert_eq!(session.machine().topology().num_sockets(), 4);
        assert_eq!(session.machine().num_cores(), 16);
    }

    #[test]
    #[should_panic(expected = "invalid machine configuration")]
    fn build_rejects_a_nonsense_latency_model() {
        use laser_machine::{LatencyModel, MachineConfig};
        let image = contended_image("badlat", 100);
        let _ = Laser::builder()
            .machine(MachineConfig {
                latency: LatencyModel {
                    freq_hz: 0,
                    ..LatencyModel::default()
                },
                ..MachineConfig::default()
            })
            .build(&image);
    }

    // ------------------------------------------------------------------
    // Pipelined execution
    // ------------------------------------------------------------------

    #[test]
    fn pipeline_config_defaults_to_inline_at_lag_zero() {
        let config = PipelineConfig::default();
        assert!(!config.enabled);
        assert_eq!(
            config.driver_lag_quanta, 0,
            "lag defaults to 0 so pipelined runs stay byte-identical to inline"
        );
        let on = PipelineConfig::pipelined().with_driver_lag(3);
        assert!(on.enabled);
        assert_eq!(on.driver_lag_quanta, 3);
    }

    #[test]
    fn pipelined_detection_run_is_byte_identical_to_inline() {
        let image = contended_image("piped", 6000);
        let config = LaserConfig::detection_only();

        let inline = Laser::builder()
            .config(config.clone())
            .build(&image)
            .run()
            .unwrap();
        let piped = Laser::builder()
            .config(config)
            .pipeline(true)
            .build(&image)
            .run()
            .unwrap();

        assert_eq!(inline.cycles(), piped.cycles());
        assert_eq!(inline.run.per_core_cycles, piped.run.per_core_cycles);
        assert_eq!(inline.report, piped.report);
        assert_eq!(inline.detector_cycles, piped.detector_cycles);
        assert_eq!(inline.driver_stats, piped.driver_stats);
        assert_eq!(
            format!("{:?}", inline.report),
            format!("{:?}", piped.report)
        );
    }

    #[test]
    fn pipelined_repair_run_attaches_at_the_same_cycle_as_inline() {
        // With repair armed the trigger runs off each settled ledger's
        // aggregates; the attach point, plan and final outcome must match
        // inline exactly.
        let image = contended_image("piperep", 6000);
        let inline = Laser::builder().build(&image).run().unwrap();
        let piped = Laser::builder().pipeline(true).build(&image).run().unwrap();

        assert!(inline.repair.is_some(), "workload should trigger repair");
        let (a, b) = (
            inline.repair.as_ref().unwrap(),
            piped.repair.as_ref().unwrap(),
        );
        assert_eq!(a.triggered_at_cycle, b.triggered_at_cycle);
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.stats, b.stats);
        assert_eq!(inline.cycles(), piped.cycles());
        assert_eq!(inline.report, piped.report);
        assert_eq!(inline.detector_cycles, piped.detector_cycles);
    }

    #[test]
    fn pipelined_event_stream_is_byte_identical_to_inline() {
        for config in [LaserConfig::detection_only(), LaserConfig::default()] {
            let image = contended_image("pipevents", 6000);
            let inline_log = EventLog::new();
            let inline = Laser::builder()
                .config(config.clone())
                .observer(inline_log.clone())
                .build(&image)
                .run()
                .unwrap();
            let piped_log = EventLog::new();
            let piped = Laser::builder()
                .config(config.clone())
                .pipeline(true)
                .observer(piped_log.clone())
                .build(&image)
                .run()
                .unwrap();
            assert_eq!(inline.cycles(), piped.cycles());
            let (ie, pe) = (inline_log.events(), piped_log.events());
            assert!(!ie.is_empty());
            assert_eq!(ie, pe, "repair={}", config.enable_repair);
            assert_eq!(format!("{ie:?}"), format!("{pe:?}"));
        }
    }

    #[test]
    fn pipelined_session_exposes_stage_and_reclaims_detector() {
        let image = contended_image("reclaim", 1500);
        let mut session = Laser::builder()
            .config(LaserConfig::detection_only())
            .pipeline(true)
            .build(&image);
        assert!(session.is_pipelined());
        assert!(
            session.detector().is_none(),
            "the worker stage owns the detector while the pipeline runs"
        );
        loop {
            match session.advance().unwrap() {
                SessionStatus::Running => {}
                SessionStatus::Done => break,
                SessionStatus::Stopped(r) => panic!("unexpected stop: {r}"),
            }
        }
        let outcome = session.finish();
        assert!(outcome.report.lines.iter().any(|l| l.hitm_records > 0));
    }

    #[test]
    fn pipelined_budget_cancellation_matches_inline() {
        let image = contended_image("pipbudget", 50_000);
        let config = LaserConfig::detection_only();
        let limit = config.poll_interval_steps * 3;
        let run = |pipelined: bool| {
            Laser::builder()
                .config(config.clone())
                .pipeline(pipelined)
                .observer(BudgetObserver::new(CellBudget::steps(limit)))
                .build(&image)
                .run()
                .unwrap_err()
        };
        // Step budgets trip on QuantumCompleted events, which pipelining
        // emits at the same stream position with the same payloads — the
        // stop reason is identical, not merely similar.
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn stopped_pipelined_session_still_finishes_without_undercounting() {
        let image = contended_image("pipstop", 6000);
        let config = LaserConfig {
            detector_cycles_per_record: 37,
            ..LaserConfig::detection_only()
        };
        let mut session = Laser::builder()
            .config(config)
            .pipeline(true)
            .observer(|event: &LaserEvent| {
                if let LaserEvent::RecordBatch { .. } = event {
                    return ControlFlow::Break(StopReason::Cancelled("first batch".into()));
                }
                ControlFlow::Continue(())
            })
            .build(&image);
        loop {
            match session.advance().unwrap() {
                SessionStatus::Running => {}
                SessionStatus::Done => panic!("observer should stop before completion"),
                SessionStatus::Stopped(reason) => {
                    assert_eq!(reason, StopReason::Cancelled("first batch".into()));
                    break;
                }
            }
        }
        let outcome = session.finish();
        assert!(outcome.driver_stats.records_sampled > 0);
        assert_eq!(
            outcome.detector_cycles,
            outcome.driver_stats.records_sampled * 37,
            "every sampled record must be processed and charged exactly once"
        );
        assert_eq!(
            outcome.run.stats.injected_overhead_cycles,
            outcome.driver_stats.overhead_cycles + outcome.detector_cycles
        );
    }

    #[test]
    fn lagged_charge_back_is_deterministic_across_identical_runs() {
        // driver_lag_quanta ≥ 1 overlaps the machine with the driver stage:
        // charges for quantum k land at boundary k + lag, which moves the
        // cores' clocks relative to an inline run and perturbs the
        // interleaving. The contract is determinism —
        // two identical deployments produce identical bytes — NOT
        // inline-identity.
        for lag in [1usize, 3] {
            let image = contended_image("lagdet", 6000);
            let run = |config: LaserConfig| {
                let log = EventLog::new();
                let outcome = Laser::builder()
                    .config(config)
                    .pipeline_config(PipelineConfig::pipelined().with_driver_lag(lag))
                    .observer(log.clone())
                    .build(&image)
                    .run()
                    .unwrap();
                (outcome, log.events())
            };
            for config in [LaserConfig::detection_only(), LaserConfig::default()] {
                let (a, a_events) = run(config.clone());
                let (b, b_events) = run(config);
                assert_eq!(a.cycles(), b.cycles(), "lag {lag}");
                assert_eq!(a.report, b.report, "lag {lag}");
                assert_eq!(a.detector_cycles, b.detector_cycles, "lag {lag}");
                assert_eq!(a_events, b_events, "lag {lag}");
                // Every deferred cycle still lands: the ledgers conserve the
                // driver's overhead exactly, however late they settle.
                assert_eq!(
                    a.run.stats.injected_overhead_cycles,
                    a.driver_stats.overhead_cycles + a.detector_cycles,
                    "lag {lag}"
                );
            }
        }
    }

    #[test]
    fn stage_occupancy_is_reported_for_pipelined_runs_only() {
        let image = contended_image("occup", 6000);
        let piped = Laser::builder()
            .config(LaserConfig::detection_only())
            .pipeline_config(PipelineConfig::pipelined())
            .build(&image)
            .run()
            .unwrap();
        let occupancy = piped
            .stage_occupancy
            .expect("pipelined runs report occupancy");
        assert!(
            occupancy.machine_busy > Duration::ZERO,
            "the machine stage did real work"
        );
        let inline = Laser::builder()
            .config(LaserConfig::detection_only())
            .build(&image)
            .run()
            .unwrap();
        assert!(
            inline.stage_occupancy.is_none(),
            "inline runs skip the measurement"
        );
        // Occupancy is bookkeeping about the run, never an input to it.
        assert_eq!(piped.report, inline.report);
        assert_eq!(piped.cycles(), inline.cycles());
    }

    #[test]
    fn a_panicking_stage_worker_re_raises_on_the_session_thread() {
        use laser_machine::MemAccessKind;
        // A stage that believes the machine has zero cores divides by zero
        // in the driver's per-core overhead split on its first sampled
        // record: a real panic on the worker thread, with no test hook.
        let image = contended_image("stagepanic", 10);
        let config = LaserConfig::detection_only().with_sav(1);
        let program = image.program();
        let model = ImprecisionModel::new(
            config.imprecision,
            image.memory_map(),
            (program.base_pc(), program.end_pc()),
            config.seed,
        );
        let pmu = Pmu::new(
            PmuConfig {
                sav: 1,
                num_cores: 2,
                ..Default::default()
            },
            model,
        );
        let stage = Stage {
            driver: Driver::new(pmu, config.driver),
            detector: Detector::new(&config, program, image.memory_map()),
            num_cores: 0,
            busy: None,
        };
        let mut pipe = PipeStage::spawn(stage, 0);
        let event = HitmEvent {
            core: CoreId(0),
            pc: program.base_pc(),
            addr: 0x1000,
            size: 8,
            kind: MemAccessKind::Load,
            cycle: 1,
        };
        let job = Job::Batch {
            events: vec![event],
            needs_aggs: false,
        };
        let payload =
            panic::catch_unwind(AssertUnwindSafe(|| pipe.exchange(Some(job), false).len()))
                .expect_err("the worker's panic must surface here, not hang the session");
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(
            message.contains("zero"),
            "the worker's own message: {message:?}"
        );
    }

    #[test]
    fn dropping_a_pipelined_session_mid_run_shuts_the_worker_down() {
        let image = contended_image("pipdrop", 50_000);
        let mut session = Laser::builder()
            .config(LaserConfig::detection_only())
            .pipeline(true)
            .build(&image);
        for _ in 0..3 {
            assert_eq!(session.advance().unwrap(), SessionStatus::Running);
        }
        // Dropping the session drops the job sender; the worker drains and
        // exits rather than leaking a parked thread. (A deadlock here would
        // hang the test suite, which is the assertion.)
        drop(session);
    }
}
