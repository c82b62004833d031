//! The metric catalogue. `BENCHMARK.json` at the repository root declares
//! the same names, units and directions; a test keeps the two in step.

use std::collections::BTreeMap;

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Name in the result object.
    pub name: &'static str,
    /// Unit of its value.
    pub unit: &'static str,
    /// `lower` or `higher`: which way is better.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// End-to-end metrics, measured on untraced passes (`--trace 0`).
pub const END_TO_END: &[Metric] = &[
    m("wall_s", "s", "lower"),
    m("setup_s", "s", "lower"),
    m("sim_cycles_per_s", "1/s", "higher"),
    m("peak_rss_mb", "MB", "lower"),
    m("ok_frac", "frac", "higher"),
    m("sim_cycles", "count", "lower"),
    m("laser_slowdown_geomean", "x", "lower"),
    m("laser_bugs_found", "count", "higher"),
    m("laser_precision", "frac", "higher"),
    m("laser_types_correct", "count", "higher"),
];

/// Per-layer metrics, measured by the traced run (`--trace 1`). Time is
/// given as a share of the traced passes' wall time, so a layer a workload
/// does not use reads 0 rather than a made-up duration.
pub const PER_LAYER: &[Metric] = &[
    m("workloads.build_frac", "frac", "lower"),
    m("machine.new_frac", "frac", "lower"),
    m("core.session.build_frac", "frac", "lower"),
    m("machine.run_quantum_frac", "frac", "lower"),
    m("machine.hooked.run_quantum_frac", "frac", "lower"),
    m("pebs.ingest_frac", "frac", "lower"),
    m("pebs.read_records_frac", "frac", "lower"),
    m("core.detect.process_frac", "frac", "lower"),
    m("core.detect.report_frac", "frac", "lower"),
    m("core.repair.arm_frac", "frac", "lower"),
    m("core.session.self_frac", "frac", "lower"),
    m("machine.steps_per_s", "1/s", "higher"),
    m("machine.hooked.steps_per_s", "1/s", "higher"),
    m("machine.steps", "count", "lower"),
    m("machine.hooked.steps", "count", "lower"),
    m("machine.hitm_events", "count", "lower"),
    m("machine.hitm_local", "count", "lower"),
    m("machine.hitm_remote", "count", "lower"),
    m("pebs.events_observed", "count", "lower"),
    m("pebs.records_sampled", "count", "lower"),
    m("pebs.interrupts", "count", "lower"),
    m("pebs.records_dropped", "count", "lower"),
    m("core.detect.records", "count", "lower"),
    m("core.repair.triggered_at_cycle", "count", "lower"),
    m("core.repair.buffered_stores", "count", "higher"),
    m("core.repair.flushes", "count", "lower"),
    m("bench.plan_frac", "frac", "lower"),
    m("bench.cache.open_frac", "frac", "lower"),
    m("bench.grid.run_frac", "frac", "lower"),
    m("bench.grid.worker_busy_frac", "frac", "higher"),
    m("bench.grid.cell_p50_frac", "frac", "lower"),
    m("bench.grid.cell_max_frac", "frac", "lower"),
    m("bench.grid.tool.native_frac", "frac", "lower"),
    m("bench.grid.tool.laser_frac", "frac", "lower"),
    m("bench.grid.tool.laser-detect_frac", "frac", "lower"),
    m("bench.grid.tool.vtune_frac", "frac", "lower"),
    m("bench.grid.tool.sheriff_frac", "frac", "lower"),
    m("bench.cache.cell_load_frac", "frac", "lower"),
    m("bench.cache.hits", "count", "higher"),
    m("bench.cache.misses", "count", "lower"),
    m("bench.cache.stored", "count", "lower"),
    m("bench.cells.ok", "count", "higher"),
    m("bench.cells.unsupported", "count", "lower"),
    m("bench.cells.failed", "count", "lower"),
    m("bench.characterization.fig3_frac", "frac", "lower"),
    m("bench.derive_frac", "frac", "lower"),
    m("bench.emit_frac", "frac", "lower"),
    m("trace.overhead_frac", "frac", "lower"),
];

/// Metric values collected by name, emitted in catalogue order.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Record `value` for the metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// Every metric of `catalogue` with its value; a metric nobody set
    /// reads 0 (its layer did no work on this workload).
    ///
    /// # Panics
    /// Panics if a value was set for a name outside `catalogue`: the
    /// benchmark would be reporting a metric it never declared.
    pub fn emit(&self, catalogue: &[Metric]) -> Vec<(&'static str, f64, &'static str)> {
        for name in self.0.keys() {
            assert!(
                catalogue.iter().any(|m| m.name == *name),
                "undeclared metric {name}"
            );
        }
        catalogue
            .iter()
            .map(|m| (m.name, self.0.get(m.name).copied().unwrap_or(0.0), m.unit))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::json::Value;

    fn declared(json: &Value, key: &str) -> Vec<(String, String, String)> {
        let Some(Value::Array(items)) = json.get(key) else {
            panic!("BENCHMARK.json has no {key} list")
        };
        let field = |item: &Value, f: &str| match item.get(f) {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("{key} entry without string {f}: {other:?}"),
        };
        items
            .iter()
            .map(|i| (field(i, "name"), field(i, "unit"), field(i, "better")))
            .collect()
    }

    fn catalogue(list: &[Metric]) -> Vec<(String, String, String)> {
        list.iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_this_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = Value::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(declared(&json, "end_to_end"), catalogue(END_TO_END));
        assert_eq!(declared(&json, "per_layer"), catalogue(PER_LAYER));
        let Some(Value::Array(workloads)) = json.get("workloads") else {
            panic!("no workloads")
        };
        let names: Vec<&Value> = workloads.iter().filter_map(|w| w.get("name")).collect();
        let expected: Vec<Value> = crate::workloads::NAMES
            .iter()
            .map(|n| Value::Str(n.to_string()))
            .collect();
        assert_eq!(names, expected.iter().collect::<Vec<_>>());
    }

    #[test]
    fn emit_fills_every_declared_metric_in_order() {
        let mut values = Values::default();
        values.set("setup_s", 0.5);
        let out = values.emit(END_TO_END);
        assert_eq!(out.len(), END_TO_END.len());
        assert_eq!(out[0], ("wall_s", 0.0, "s"));
        assert_eq!(out[1], ("setup_s", 0.5, "s"));
    }

    #[test]
    #[should_panic(expected = "undeclared metric")]
    fn an_undeclared_metric_is_a_bug() {
        let mut values = Values::default();
        values.set("made_up", 1.0);
        values.emit(END_TO_END);
    }

    #[test]
    fn names_are_unique_and_within_the_contract_alphabet() {
        let all: Vec<&Metric> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, metric) in all.iter().enumerate() {
            assert!(metric.name.len() <= 64);
            assert!(metric.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(metric
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(matches!(metric.better, "lower" | "higher"));
            assert!(all[..i].iter().all(|other| other.name != metric.name));
        }
    }
}
