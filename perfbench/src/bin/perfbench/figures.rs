//! The figure workloads: the whole `experiments all --format json` job,
//! rebuilt from the bench layer's public calls so that each phase can be
//! timed.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use laser_bench::accuracy::{
    fig9_from_grid, fig9_thresholds, plan_fig9, plan_table1, plan_table2, table1_from_grid,
    table2_from_grid, Table1Report, Table2Report,
};
use laser_bench::characterization::{fig2_layout, fig3_characterization_on};
use laser_bench::emit::Emit;
use laser_bench::performance::{
    fig10_from_grid, fig11_from_grid, fig12_from_grid, fig13_from_grid, fig13_savs,
    fig14_from_grid, plan_fig10, plan_fig11, plan_fig12, plan_fig13, plan_fig14, Fig10Report,
};
use laser_bench::runner::score_reported;
use laser_bench::{CacheStats, CampaignProgress, CellCache, ExperimentScale, Grid, GridResult};
use laser_bench::{ToolFailure, ToolSpec};
use serde::json::Value;

use crate::spans::Spans;

/// Tool families the grid's per-cell time is split by.
pub const TOOL_FAMILIES: &[&str] = &["native", "laser", "laser-detect", "vtune", "sheriff"];

/// The family of a cell's tool key (`laser-detect-sav7@2s` is
/// `laser-detect`).
pub fn tool_family(tool: &str) -> &'static str {
    let base = tool.split('@').next().unwrap_or(tool);
    if base.starts_with("native") {
        "native"
    } else if base.starts_with("laser-detect") {
        "laser-detect"
    } else if base.starts_with("laser") {
        "laser"
    } else if base.starts_with("vtune") {
        "vtune"
    } else {
        "sheriff"
    }
}

/// The paper's figures at one scale, served through one cell cache.
#[derive(Debug, Clone)]
pub struct Job {
    /// Input scale of every grid cell.
    pub scale: f64,
    /// Campaign worker threads.
    pub threads: usize,
    /// Directory of the cell cache.
    pub cache_dir: PathBuf,
}

/// Host time of one grid cell, from its progress notifications.
#[derive(Debug, Clone)]
pub struct CellTime {
    /// Tool family of the cell.
    pub family: &'static str,
    /// Seconds from `Started` to `Finished`.
    pub secs: f64,
    /// Whether the cache answered the cell.
    pub cached: bool,
}

/// Grid cells by outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellCounts {
    /// Cells that produced a run.
    pub ok: u64,
    /// Cells Sheriff cannot run: the paper's N/A entries, not failures.
    pub unsupported: u64,
    /// Cells that errored, panicked or exceeded a budget.
    pub failed: u64,
}

/// The simulated results of a pass that the end-to-end metrics carry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fidelity {
    /// Simulated cycles summed over every cell that ran.
    pub sim_cycles: u64,
    /// Ground-truth HITM events summed over every cell that ran.
    pub hitm_events: u64,
    /// Cross-socket HITM events summed over every cell that ran.
    pub hitm_remote: u64,
    /// Table 1: known bugs LASER found.
    pub bugs_found: usize,
    /// Table 1: LASER's reported source lines that match a known bug, as a
    /// share of all it reported.
    pub precision: f64,
    /// Table 2: correct LASER contention-type classifications.
    pub types_correct: usize,
    /// Figure 10: LASER's geometric-mean runtime normalized to native.
    pub slowdown_geomean: f64,
}

/// One pass of the figure job.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Host seconds for the whole pass.
    pub wall_s: f64,
    /// Host seconds from the start to the first cell: cache open and
    /// planning.
    pub setup_s: f64,
    /// The JSON Lines output, byte for byte what `experiments all --format
    /// json` prints.
    pub json: String,
    /// Cells by outcome.
    pub cells: CellCounts,
    /// Cache activity of the pass.
    pub cache: CacheStats,
    /// Simulated results.
    pub fidelity: Fidelity,
    /// Per-cell host times (traced passes only).
    pub cell_times: Vec<CellTime>,
}

/// Everything derived from the grid, in `experiments all` order.
struct Derived {
    fig2: String,
    table1: Table1Report,
    table2: Table2Report,
    fig9: laser_bench::accuracy::Fig9Report,
    fig10: Fig10Report,
    fig11: laser_bench::performance::Fig11Report,
    fig12: laser_bench::performance::Fig12Report,
    fig13: laser_bench::performance::Fig13Report,
    fig14: laser_bench::performance::Fig14Report,
}

impl Job {
    /// Run the job once. With `spans`, every phase is timed into it and each
    /// cell's progress notifications are timestamped.
    ///
    /// # Errors
    /// A cache that cannot be opened or written, or a figure that cannot be
    /// derived from the grid.
    pub fn pass(&self, mut spans: Option<&mut Spans>) -> Result<Pass, String> {
        let scale = ExperimentScale {
            workload_scale: self.scale,
            ..ExperimentScale::default()
        };
        let start = Instant::now();
        let cache = timed(&mut spans, "bench.cache.open", || {
            CellCache::open(&self.cache_dir)
        })
        .map_err(|e| e.to_string())?;
        let cache = Arc::new(cache);
        let grid = timed(&mut spans, "bench.plan", || {
            let mut grid = Grid::new(scale)
                .with_threads(self.threads)
                .with_cache(Arc::clone(&cache));
            plan_table1(&mut grid);
            plan_table2(&mut grid);
            plan_fig9(&mut grid);
            plan_fig10(&mut grid);
            plan_fig11(&mut grid);
            plan_fig12(&mut grid);
            plan_fig13(&mut grid, &fig13_savs());
            plan_fig14(&mut grid);
            grid
        });
        let setup_s = start.elapsed().as_secs_f64();

        let cell_times = Mutex::new(Vec::new());
        let grid = if spans.is_some() {
            let started = Mutex::new(BTreeMap::new());
            timed(&mut spans, "bench.grid.run", || {
                grid.run_with_progress(|p| record_cell(p, &started, &cell_times))
            })
        } else {
            grid.run()
        };
        // As `experiments` does: fewer characterization cases at tiny scales.
        let per_category = if self.scale < 0.2 { 5 } else { 40 };
        let fig3 = timed(&mut spans, "bench.characterization.fig3", || {
            fig3_characterization_on(per_category, self.threads)
        });
        let derived = timed(&mut spans, "bench.derive", || derive(&grid))
            .map_err(|e| format!("deriving the figures failed: {e}"))?;
        let json = timed(&mut spans, "bench.emit", || {
            let docs: [&dyn Emit; 9] = [
                &fig3,
                &derived.table1,
                &derived.table2,
                &derived.fig9,
                &derived.fig10,
                &derived.fig11,
                &derived.fig12,
                &derived.fig13,
                &derived.fig14,
            ];
            let mut json = Value::object()
                .set("kind", "fig2")
                .set("text", derived.fig2.as_str())
                .render();
            json.push('\n');
            for doc in docs {
                json.push_str(&doc.to_json().render());
                json.push('\n');
            }
            json
        });
        let wall_s = start.elapsed().as_secs_f64();
        if let Some(message) = cache.write_error() {
            return Err(format!("cell cache write failed: {message}"));
        }
        Ok(Pass {
            wall_s,
            setup_s,
            json,
            cells: count_cells(&grid),
            cache: cache.stats(),
            fidelity: fidelity(&grid, &derived).map_err(|e| e.to_string())?,
            cell_times: cell_times.into_inner().expect("no progress sink panicked"),
        })
    }
}

fn timed<T>(spans: &mut Option<&mut Spans>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match spans {
        Some(spans) => spans.time(name, f),
        None => f(),
    }
}

type Started = Mutex<BTreeMap<(String, String), Instant>>;

/// Progress sink of a traced pass: pair each cell's `Started` and
/// `Finished` notifications into its host time.
fn record_cell(progress: CampaignProgress, started: &Started, times: &Mutex<Vec<CellTime>>) {
    let now = Instant::now();
    match progress {
        CampaignProgress::Started { workload, tool, .. } => {
            started
                .lock()
                .expect("no progress sink panicked")
                .insert((workload.to_string(), tool.to_string()), now);
        }
        CampaignProgress::Finished { cell, cached, .. } => {
            let key = (cell.workload.clone(), cell.tool.clone());
            let begun = started
                .lock()
                .expect("no progress sink panicked")
                .remove(&key);
            if let Some(begun) = begun {
                times
                    .lock()
                    .expect("no progress sink panicked")
                    .push(CellTime {
                        family: tool_family(&cell.tool),
                        secs: (now - begun).as_secs_f64(),
                        cached,
                    });
            }
        }
    }
}

fn derive(grid: &GridResult) -> Result<Derived, laser_bench::ExperimentError> {
    Ok(Derived {
        fig2: fig2_layout(),
        table1: table1_from_grid(grid)?,
        table2: table2_from_grid(grid)?,
        fig9: fig9_from_grid(grid, &fig9_thresholds())?,
        fig10: fig10_from_grid(grid)?,
        fig11: fig11_from_grid(grid)?,
        fig12: fig12_from_grid(grid, 0.10)?,
        fig13: fig13_from_grid(grid, &fig13_savs())?,
        fig14: fig14_from_grid(grid)?,
    })
}

fn count_cells(grid: &GridResult) -> CellCounts {
    let mut counts = CellCounts::default();
    for cell in &grid.campaign().cells {
        match &cell.outcome {
            Ok(_) => counts.ok += 1,
            Err(ToolFailure::Unsupported(_)) => counts.unsupported += 1,
            Err(_) => counts.failed += 1,
        }
    }
    counts
}

fn fidelity(
    grid: &GridResult,
    derived: &Derived,
) -> Result<Fidelity, laser_bench::ExperimentError> {
    let runs = || {
        grid.campaign()
            .cells
            .iter()
            .filter_map(|c| c.outcome.as_ref().ok())
    };
    let (mut reported, mut false_positives) = (0, 0);
    for spec in grid.scale().workloads() {
        let run = grid.tool_run(spec.name, ToolSpec::LaserDetect)?;
        reported += run
            .reported
            .iter()
            .filter(|l| l.location().is_some())
            .count();
        false_positives += score_reported(&spec, &run.reported).1;
    }
    let totals = derived.table1.totals();
    Ok(Fidelity {
        sim_cycles: runs().map(|r| r.cycles).sum(),
        hitm_events: runs().map(|r| r.hitm_events).sum(),
        hitm_remote: runs().map(|r| r.hitm_remote).sum(),
        bugs_found: totals.0 - totals.1,
        precision: if reported == 0 {
            0.0
        } else {
            (reported - false_positives) as f64 / reported as f64
        },
        types_correct: derived.table2.laser_correct(),
        slowdown_geomean: derived.fig10.geomeans().0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tool_keys_map_to_their_family() {
        for (key, family) in [
            ("native", "native"),
            ("native-fixed", "native"),
            ("laser", "laser"),
            ("laser@4s", "laser"),
            ("laser-detect", "laser-detect"),
            ("laser-detect-raw", "laser-detect"),
            ("laser-detect-sav7", "laser-detect"),
            ("vtune", "vtune"),
            ("sheriff-detect", "sheriff"),
            ("sheriff-protect", "sheriff"),
        ] {
            assert_eq!(tool_family(key), family, "{key}");
            assert!(TOOL_FAMILIES.contains(&family));
        }
    }

    #[test]
    fn a_warm_pass_serves_the_cold_bytes_without_simulating() {
        let cache_dir = std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cache_dir);
        let job = Job {
            scale: 0.05,
            threads: 1,
            cache_dir: cache_dir.clone(),
        };
        let mut spans = Spans::default();
        let cold = job.pass(Some(&mut spans)).expect("cold pass");
        let warm = job.pass(None).expect("warm pass");
        std::fs::remove_dir_all(&cache_dir).expect("cache dir removable");

        assert_eq!(cold.json, warm.json);
        assert_eq!(
            cold.json.lines().count(),
            10,
            "fig2, fig3, table1, table2, fig9..fig14"
        );
        assert_eq!(cold.cells, warm.cells);
        assert_eq!(cold.cells.failed, 0);
        let cells = cold.cells.ok + cold.cells.unsupported;
        assert_eq!((cold.cache.hits, cold.cache.misses), (0, cells));
        assert_eq!(
            (warm.cache.hits, warm.cache.misses, warm.cache.stored),
            (cells, 0, 0)
        );
        assert_eq!(cold.cell_times.len() as u64, cells);
        assert!(
            warm.cell_times.is_empty(),
            "untraced passes record no cells"
        );
        assert!(spans.secs("bench.grid.run") > 0.0);
        assert_eq!(cold.fidelity, warm.fidelity);
        assert!(cold.fidelity.sim_cycles > 0);
    }
}
