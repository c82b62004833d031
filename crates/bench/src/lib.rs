//! # laser-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! LASER paper's evaluation (Section 7) from the simulated system:
//!
//! | Paper artifact | Planner + view | Binary sub-command |
//! |---|---|---|
//! | Figure 2 | [`characterization::fig2_layout`] | `experiments fig2` |
//! | Figure 3 | [`characterization::fig3_characterization_on`] | `experiments fig3` |
//! | Table 1 | [`accuracy::plan_table1`] + [`accuracy::table1_from_grid`] | `experiments table1` |
//! | Table 2 | [`accuracy::plan_table2`] + [`accuracy::table2_from_grid`] | `experiments table2` |
//! | Figure 9 | [`accuracy::plan_fig9`] + [`accuracy::fig9_from_grid`] | `experiments fig9` |
//! | Figure 10 | [`performance::plan_fig10`] + [`performance::fig10_from_grid`] | `experiments fig10` |
//! | Figure 11 | [`performance::plan_fig11`] + [`performance::fig11_from_grid`] | `experiments fig11` |
//! | Figure 12 | [`performance::plan_fig12`] + [`performance::fig12_from_grid`] | `experiments fig12` |
//! | Figure 13 | [`performance::plan_fig13`] + [`performance::fig13_from_grid`] | `experiments fig13` |
//! | Figure 14 | [`performance::plan_fig14`] + [`performance::fig14_from_grid`] | `experiments fig14` |
//!
//! Every table and figure is a *view over one campaign result*: a planner
//! (`plan_fig10`, `plan_table1`, …) registers the `(workload, tool)` cells
//! the experiment needs on a shared [`Grid`], the grid runs each unique cell
//! exactly once on the parallel [`Campaign`] runner, and the figure derives
//! its rows from the cached cells (`fig10_from_grid`, …). The `experiments`
//! binary plans every selected experiment into one grid, streams per-cell
//! progress to stderr while the grid is hot, and emits the aggregated results
//! as text, JSON or CSV (`--format`, see [`emit::Emit`]). Every knob of a
//! run — flag, scenario key and cache-key field alike — is declared once, in
//! the [`spec::KNOBS`] table behind [`RunSpec`].
//!
//! Absolute numbers are simulated cycles, not the paper's wall-clock seconds;
//! what is expected to match is the *shape* of each result: who wins, by
//! roughly what factor, and where the crossovers fall. `EXPERIMENTS.md` at the
//! repository root records paper-reported versus measured values side by side.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable
    )
)]

pub mod accuracy;
pub mod cache;
pub mod campaign;
pub mod characterization;
pub mod emit;
pub mod grid;
pub mod performance;
pub mod runner;
pub mod service;
pub mod spec;
pub mod tool;
pub mod topofile;
pub mod xsocket;

pub use cache::{fingerprint, CacheError, CacheStats, CellCache, CellConfig, CACHE_SALT};
pub use campaign::{
    ordered_parallel, validate_workload_names, Campaign, CampaignProgress, CampaignResult,
    CellResult, UnknownWorkload,
};
pub use emit::Emit;
pub use grid::{ExperimentError, Grid, GridResult};
pub use laser_core::{CellBudget, PipelineConfig, StopReason, TopologySpec};
pub use runner::{geomean, ExperimentScale};
pub use service::{run_scenario, ServiceError, ServiceOptions, ServiceSummary};
pub use spec::{AggregateFormat, Front, RunSpec, SpecError, Sweep};
pub use tool::{
    valid_sav, FixedNativeTool, LaserTool, NativeTool, ReportedLine, SheriffTool, Tool,
    ToolFailure, ToolRun, ToolSpec, VtuneTool,
};
pub use topofile::{CustomTopology, Deployment};
pub use xsocket::{plan_xsocket, xsocket_from_grid, XsocketReport, XsocketRow};
