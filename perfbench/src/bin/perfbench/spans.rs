//! In-memory layer spans: host time and work counts keyed by layer name,
//! recorded by the benchmark around its calls into each layer.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Host time and work counts per layer, accumulated over traced passes.
#[derive(Debug, Default)]
pub struct Spans {
    time: BTreeMap<&'static str, Duration>,
    count: BTreeMap<&'static str, u64>,
}

impl Spans {
    /// Run `f`, adding its wall time to the span `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(name, start.elapsed());
        out
    }

    /// Add `elapsed` to the span `name`.
    pub fn add(&mut self, name: &'static str, elapsed: Duration) {
        *self.time.entry(name).or_default() += elapsed;
    }

    /// Add `n` to the counter `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.count.entry(name).or_default() += n;
    }

    /// Total seconds spent in span `name`.
    pub fn secs(&self, name: &str) -> f64 {
        self.time.get(name).map_or(0.0, Duration::as_secs_f64)
    }

    /// Total of counter `name`.
    pub fn total(&self, name: &str) -> u64 {
        self.count.get(name).copied().unwrap_or(0)
    }
}
