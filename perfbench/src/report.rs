//! The run's result: a human-readable report, then one JSON line.

use crate::stats::Summary;
use serde::json::{Json, ToJson};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit of `value`.
    pub unit: &'static str,
    /// The reported value.
    pub value: f64,
    /// How the value was obtained (sample count, spread).
    pub detail: String,
}

impl Metric {
    /// A value with no further detail.
    pub fn plain(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric::noted(name, unit, value, String::new())
    }

    /// A value with a note on how it was measured.
    pub fn noted(name: &str, unit: &'static str, value: f64, detail: String) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
            detail,
        }
    }

    /// The median of repeated samples, with their quartiles.
    pub fn summarised(name: &str, unit: &'static str, summary: Summary) -> Metric {
        Metric::noted(
            name,
            unit,
            summary.median,
            format!(
                "median of {} (q1 {:.6}, q3 {:.6})",
                summary.n, summary.q1, summary.q3
            ),
        )
    }
}

/// Everything a run reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Requests, jobs and output checks attempted.
    pub attempted: u64,
    /// Those that got `ok:false`, no response, or failed a check.
    pub failed: u64,
    /// The gated (or traced) metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Further report lines.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Count one attempted operation.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// The report lines, one metric per line with its unit.
    pub fn report_lines(&self) -> Vec<String> {
        let mut lines: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{:<38} {:>16.6} {:<9} {}",
                    m.name, m.value, m.unit, m.detail
                )
            })
            .collect();
        lines.extend(self.notes.iter().cloned());
        lines
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// with its unit.
    pub fn json_line(&self) -> String {
        let mut metrics = Json::object();
        for metric in &self.metrics {
            let mut entry = Json::object();
            // A metric that could not be measured fails the run below; JSON
            // has no NaN, so it is written as 0.
            let value = if metric.value.is_finite() {
                metric.value
            } else {
                0.0
            };
            entry.set("value", Json::Number(value));
            entry.set("unit", Json::String(metric.unit.to_string()));
            metrics.set(&metric.name, entry);
        }
        let correct = self.attempted > 0
            && self.failed == 0
            && self.metrics.iter().all(|metric| metric.value.is_finite());
        let mut result = Json::object();
        result.set("correct", Json::Bool(correct));
        result.set("attempted", (self.attempted.max(1) as usize).to_json());
        result.set("failed", (self.failed as usize).to_json());
        result.set("metrics", metrics);
        result.render()
    }
}
