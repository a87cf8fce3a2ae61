//! The benchmark's output: a human-readable table of every metric (name,
//! value, unit, sample count) followed, as the last line of standard output,
//! by one JSON object with the keys `correct`, `attempted`, `failed` and
//! `metrics`.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// The measured value, with all its digits.
    pub value: f64,
    /// Unit, e.g. `us`, `s`, `sessions/s`, `count`.
    pub unit: &'static str,
    /// Samples the value summarizes (1 for a single reading).
    pub samples: usize,
}

/// Everything one benchmark run reports.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Whether every correctness check passed.
    pub correct: bool,
    /// Operations attempted (sessions offered, or frames stepped).
    pub attempted: u64,
    /// Operations that failed (sessions rejected or errored, frames errored).
    pub failed: u64,
    /// The metrics of this pass, in report order.
    pub metrics: Vec<Metric>,
    /// Unbounded figures printed in the table but not in the JSON line:
    /// deterministic modeled numbers and zero-on-success ratios.
    pub info: Vec<Metric>,
    /// Human-readable lines printed above the table (checks, breakdowns).
    pub notes: Vec<String>,
}

impl Report {
    /// Appends a metric.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.metrics.push(Metric { name: name.into(), value, unit, samples });
    }

    /// Appends an unbounded, table-only figure.
    pub fn push_info(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.info.push(Metric { name: name.into(), value, unit, samples });
    }

    /// Appends a human-readable note.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The human-readable table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for note in &self.notes {
            let _ = writeln!(out, "{note}");
        }
        let width = self.metrics.iter().chain(&self.info).map(|m| m.name.len()).max().unwrap_or(0);
        let mut row = |m: &Metric, tag: &str| {
            let _ = writeln!(
                out,
                "  {:<width$}  {:>16.6}  {:<12} n={}{tag}",
                m.name, m.value, m.unit, m.samples
            );
        };
        for m in &self.metrics {
            row(m, "");
        }
        for m in &self.info {
            row(m, "  (unbounded)");
        }
        let _ = writeln!(
            out,
            "  correct={} attempted={} failed={}",
            self.correct, self.attempted, self.failed
        );
        out
    }

    /// The one-line JSON result. Values are printed with Rust's shortest
    /// round-trip formatting, so every digit measured survives.
    ///
    /// # Errors
    ///
    /// Returns an error if a value is not finite (JSON has no NaN or
    /// infinity).
    pub fn json_line(&self) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite: {}", m.name, m.value));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_lists_every_metric_with_its_unit() {
        let mut report = Report { correct: true, attempted: 3, failed: 0, ..Report::default() };
        report.push("latency_ms", 1.25, "ms", 10);
        report.push("setup_s", 0.5, "s", 5);
        let line = report.json_line().unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"latency_ms\": \
             {\"value\": 1.25, \"unit\": \"ms\"}, \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn non_finite_values_are_refused() {
        let mut report = Report::default();
        report.push("x", f64::NAN, "s", 1);
        assert!(report.json_line().is_err());
    }
}
