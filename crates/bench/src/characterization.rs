//! Figure 2 (allocation layout) and Figure 3 (HITM record accuracy
//! characterization).

use laser_machine::{line_of, Machine, MachineConfig};
use laser_pebs::imprecision::{ImprecisionModel, ImprecisionParams};
use laser_workloads::{characterization_cases, CharacterizationCase};

/// Accuracy of the HITM records of one characterization test case.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig3Case {
    /// Case id.
    pub id: usize,
    /// Category label ("TSRW", "FSRW", "TSWW", "FSWW").
    pub label: &'static str,
    /// Fraction of records with the correct data address.
    pub addr_correct: f64,
    /// Fraction of records with the exact PC.
    pub pc_exact: f64,
    /// Fraction of records with the exact or an adjacent PC.
    pub pc_adjacent: f64,
    /// Ground-truth HITM events observed.
    pub events: u64,
}

/// The Figure 3 report: per-case accuracies plus per-category averages.
#[derive(Debug, Clone, Default)]
pub struct Fig3Report {
    /// Every test case.
    pub cases: Vec<Fig3Case>,
}

impl Fig3Report {
    /// Average of a metric over one category.
    #[expect(
        clippy::disallowed_methods,
        reason = "vals is a Vec summed in index order, which is fixed across runs"
    )]
    pub fn category_mean(&self, label: &str, metric: impl Fn(&Fig3Case) -> f64) -> f64 {
        let vals: Vec<f64> = self
            .cases
            .iter()
            .filter(|c| c.label == label)
            .map(metric)
            .collect();
        if vals.is_empty() {
            0.0
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    }

    /// Render the figure as text: one scatter row per case plus the category
    /// averages the paper quotes in prose.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "Figure 3: HITM record accuracy per test case");
        let _ = writeln!(
            out,
            "{:<6} {:>6} {:>12} {:>10} {:>12}",
            "case", "cat", "addr_ok%", "pc_ok%", "pc_adj_ok%"
        );
        for c in &self.cases {
            let _ = writeln!(
                out,
                "{:<6} {:>6} {:>12.1} {:>10.1} {:>12.1}",
                c.id,
                c.label,
                c.addr_correct * 100.0,
                c.pc_exact * 100.0,
                c.pc_adjacent * 100.0
            );
        }
        let _ = writeln!(out, "\ncategory averages:");
        for label in ["TSRW", "FSRW", "TSWW", "FSWW"] {
            let _ = writeln!(
                out,
                "  {label}: addr {:.0}%  pc {:.0}%  pc+adjacent {:.0}%",
                self.category_mean(label, |c| c.addr_correct) * 100.0,
                self.category_mean(label, |c| c.pc_exact) * 100.0,
                self.category_mean(label, |c| c.pc_adjacent) * 100.0,
            );
        }
        out
    }
}

/// Run the Figure 3 characterization over `cases_per_category` cases per
/// category (the paper uses 40; pass a smaller number for quick runs) on
/// `threads` workers. Sampling is disabled, as in the paper: every
/// ground-truth HITM event is scored after passing through the imprecision
/// model. Each test case is an independent deterministic simulation, so the cases fan out
/// over the campaign runner's [`ordered_parallel`](crate::campaign::ordered_parallel)
/// executor and the report is identical for any thread count.
pub fn fig3_characterization_on(cases_per_category: usize, threads: usize) -> Fig3Report {
    let mut selected: Vec<CharacterizationCase> = Vec::new();
    for label in ["TSRW", "FSRW", "TSWW", "FSWW"] {
        selected.extend(
            characterization_cases()
                .into_iter()
                .filter(|c| c.label() == label)
                .take(cases_per_category),
        );
    }
    let cases =
        crate::campaign::ordered_parallel(selected.len(), threads, |i| fig3_case(&selected[i]));
    Fig3Report { cases }
}

/// Score one characterization case: run it to completion, pass every
/// ground-truth HITM event through the imprecision model, and count how many
/// records keep the right address and PC.
fn fig3_case(case: &CharacterizationCase) -> Fig3Case {
    let built = case.build();
    let mut machine = Machine::new(MachineConfig::default(), &built.image);
    #[expect(
        clippy::expect_used,
        reason = "characterization cells run under an instruction budget; non-termination is a bench bug"
    )]
    let _ = machine
        .run_to_completion()
        .expect("characterization cases terminate");
    let events = machine.take_hitm_events();
    let program = built.image.program();
    let mut model = ImprecisionModel::new(
        ImprecisionParams::default(),
        built.image.memory_map(),
        (program.base_pc(), program.end_pc()),
        0xF163 + case.id as u64,
    );
    let mut addr_ok = 0u64;
    let mut pc_ok = 0u64;
    let mut pc_adj = 0u64;
    for e in &events {
        let r = model.distort(e);
        if r.data_addr == e.addr {
            addr_ok += 1;
        }
        if r.pc == e.pc {
            pc_ok += 1;
        }
        if (r.pc as i64 - e.pc as i64).unsigned_abs() <= laser_isa::program::INST_BYTES {
            pc_adj += 1;
        }
    }
    let n = events.len().max(1) as f64;
    Fig3Case {
        id: case.id,
        label: case.label(),
        addr_correct: addr_ok as f64 / n,
        pc_exact: pc_ok as f64 / n,
        pc_adjacent: pc_adj as f64 / n,
        events: events.len() as u64,
    }
}

/// The Figure 2 demonstration: how the allocator lays `lreg_args` structs out
/// across cache lines, with and without the manual alignment fix.
pub fn fig2_layout() -> String {
    use laser_workloads::{find, BuildOptions};
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 2: allocator layout of the linear_regression args array\n"
    );
    for (title, opts) in [
        ("default malloc layout (buggy)", BuildOptions::default()),
        ("cache-line aligned (manual fix)", BuildOptions::fixed()),
    ] {
        #[expect(
            clippy::expect_used,
            reason = "a missing built-in workload is a bench-table bug, not a runtime condition"
        )]
        let spec = find("linear_regression").expect("workload exists");
        let image = spec.build(&opts);
        let _ = writeln!(out, "{title}:");
        for (t, thread) in image.threads().iter().enumerate() {
            let base = thread
                .regs
                .iter()
                .find(|(r, _)| *r == laser_workloads::common::regs::DATA)
                .map(|(_, v)| *v)
                .unwrap_or(0);
            let first_line = line_of(base);
            let last_line = line_of(base + 63);
            let _ = writeln!(
                out,
                "  lreg_args[{t}] at {base:#x}: spans cache line(s) {first_line:#x}{}",
                if first_line == last_line {
                    String::new()
                } else {
                    format!(" and {last_line:#x}  <-- straddles, shared with neighbour")
                }
            );
        }
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_reproduces_the_rw_vs_ww_accuracy_gap() {
        let report = fig3_characterization_on(3, 2);
        assert_eq!(report.cases.len(), 12);
        // RW (load-triggered) records are far more accurate than WW
        // (store-triggered) ones, as in the paper's Figure 3.
        let rw_addr = (report.category_mean("TSRW", |c| c.addr_correct)
            + report.category_mean("FSRW", |c| c.addr_correct))
            / 2.0;
        let ww_addr = (report.category_mean("TSWW", |c| c.addr_correct)
            + report.category_mean("FSWW", |c| c.addr_correct))
            / 2.0;
        assert!(rw_addr > 0.6, "rw addr accuracy {rw_addr}");
        assert!(ww_addr < 0.35, "ww addr accuracy {ww_addr}");
        let rw_adj = report.category_mean("FSRW", |c| c.pc_adjacent);
        assert!(rw_adj > 0.55, "rw adjacent-pc accuracy {rw_adj}");
        assert!(!report.render().is_empty());
    }

    #[test]
    fn fig3_is_thread_count_independent() {
        let serial = fig3_characterization_on(2, 1);
        let parallel = fig3_characterization_on(2, 8);
        assert_eq!(serial.cases, parallel.cases);
        assert_eq!(serial.render(), parallel.render());
    }

    #[test]
    fn fig2_shows_straddling_without_fix_only() {
        let text = fig2_layout();
        assert!(text.contains("straddles"));
        assert!(text.contains("manual fix"));
    }
}
