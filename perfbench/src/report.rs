//! The fixed metric sets every workload reports, and the result line.
//!
//! Every workload prints the same names, so a metric keeps its meaning
//! across runs. A metric a workload never sets (a per-layer metric of a
//! layer it never calls) reads 0.

use std::fmt::Write as _;

/// End-to-end metrics, with units, in print order: what a caller of
/// Fast-MST or of `kdom-serve` sees.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("rounds", "count"),
    ("bits", "bits"),
    ("max_msg_bits", "bits"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("peak_rss_bytes", "bytes"),
];

/// Per-layer metrics of the traced run, with units, in print order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("generators.s", "s"),
    ("generators.graph_bytes", "bytes"),
    ("fragments.s", "s"),
    ("fragments.rounds", "count"),
    ("fragments.bits", "bits"),
    ("fragments.rounds_per_s", "1/s"),
    ("partition.s", "s"),
    ("partition.calls", "count"),
    ("partition.max_call_s", "s"),
    ("partition.charged_rounds", "count"),
    ("pipeline.s", "s"),
    ("pipeline.bfs_rounds", "count"),
    ("pipeline.rounds", "count"),
    ("pipeline.bits", "bits"),
    ("pipeline.stalls", "count"),
    ("pipeline.rounds_per_s", "1/s"),
    ("engine.accounted_peak_bytes", "bytes"),
    ("engine.accounted_over_rss", "ratio"),
    ("oracle.s", "s"),
    ("oracle.checks", "count"),
    ("oracle.failed", "count"),
    ("service.run_ms_p50.simple-mst", "ms"),
    ("service.run_ms_p50.fastdom-g", "ms"),
    ("service.run_ms_p50.bfs", "ms"),
    ("service.alpha_ms_p50", "ms"),
    ("service.retx_per_msg", "ratio"),
    ("jobs.cache_hit_ratio", "ratio"),
    ("jobs.useful_run_ratio", "ratio"),
    ("jobs.queue_wait_ms_p50", "ms"),
    ("jobs.evictions", "count"),
    ("jobs.cache_bytes", "bytes"),
    ("serve.hit_ms_p50", "ms"),
    ("serve.upload_ms_p50", "ms"),
    ("trace.overhead_s", "s"),
];

/// Values for a fixed list of named metrics; unset names read 0.
pub struct Metrics {
    names: &'static [(&'static str, &'static str)],
    values: Vec<f64>,
}

impl Metrics {
    /// Every metric of `names` at 0.
    pub fn new(names: &'static [(&'static str, &'static str)]) -> Self {
        Metrics {
            names,
            values: vec![0.0; names.len()],
        }
    }

    /// Sets one metric.
    ///
    /// # Panics
    ///
    /// Panics on a name outside the list, and on a non-finite value,
    /// which JSON cannot carry and which only a division by an
    /// unmeasured zero produces.
    pub fn put(&mut self, name: &str, value: f64) {
        let i = self
            .names
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the metric list"));
        assert!(value.is_finite(), "metric {name} = {value}");
        self.values[i] = value;
    }

    fn rows(&self) -> impl Iterator<Item = (&str, f64, &str)> {
        self.names
            .iter()
            .zip(&self.values)
            .map(|((name, unit), v)| (*name, *v, *unit))
    }

    /// Prints one `name value unit` line per metric.
    pub fn print_table(&self) {
        for (name, value, unit) in self.rows() {
            println!("  {name:<32} {value:>20} {unit}");
        }
    }

    /// The result object the last line of standard output carries.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.rows().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// Operations attempted and failed, with a description of each failure.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Operations attempted (solves, jobs, installs, checks).
    pub attempted: u64,
    /// Operations that failed: `ERR` replies, failed jobs, failed checks.
    pub failed: u64,
    /// One line per problem found, printed before the result.
    pub failures: Vec<String>,
}

impl Ledger {
    /// Counts one operation, failed when `problems` is non-empty.
    pub fn op(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.failures.extend(problems);
        }
    }

    /// Counts one operation that either passed or failed with `problem`.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.op(if ok { Vec::new() } else { vec![problem()] });
    }
}

/// What one workload run produced.
pub struct Outcome {
    /// Every [`END_TO_END`] metric.
    pub e2e: Metrics,
    /// Every [`PER_LAYER`] metric.
    pub layers: Metrics,
    pub ledger: Ledger,
}

impl Outcome {
    /// A run that stopped before it measured anything: every metric 0.
    pub fn failed(ledger: Ledger) -> Self {
        Outcome {
            e2e: Metrics::new(END_TO_END),
            layers: Metrics::new(PER_LAYER),
            ledger,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_json_shaped_and_unset_names_read_zero() {
        const NAMES: &[(&str, &str)] = &[("solve_s", "s"), ("rounds", "count")];
        let mut m = Metrics::new(NAMES);
        m.put("solve_s", 1.25);
        assert_eq!(
            m.result_line(true, 3, 0),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"solve_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"rounds\": {\"value\": 0.0, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "not in the metric list")]
    fn unknown_name_panics() {
        Metrics::new(END_TO_END).put("solve_ms", 1.0);
    }
}
