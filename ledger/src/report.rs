//! What one workload run found, and how it is printed: named metrics with
//! units for a reader, then the one-line JSON result the driver parses.

use crate::contract::{self, MetricDef};
use crate::json;
use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Debug, Default)]
pub struct Outcome {
    metrics: BTreeMap<&'static str, f64>,
    /// Operations tried inside the measured windows.
    pub attempted: u64,
    /// `ERR`, `BUSY`, a rejected step, an I/O error, or an output that
    /// differs from the reference.  A failed operation has no latency
    /// sample.
    pub failed: u64,
    /// Anything that makes the run's numbers untrustworthy: a metric that
    /// could not be measured under the sampling rules, a failed
    /// post-window verification.
    pub problems: Vec<String>,
    /// Context for the reader (not metrics): seed, nproc, sample counts…
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            contract::unit_of(name).is_some(),
            "undeclared metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// Sets a metric that the sampling rules may have withheld (`None`):
    /// that is a contract problem, not a silent gap.
    pub fn set_measured(&mut self, name: &'static str, value: Option<f64>, samples: usize) {
        match value {
            Some(v) => self.set(name, v),
            None => self
                .problems
                .push(format!("{name}: too few samples to report ({samples})")),
        }
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// The metrics the contract asks of this pass, in declaration order.
    /// Untraced: every end-to-end metric must have been measured and be
    /// non-zero.  Traced: a per-layer metric nobody set is a layer that did
    /// no work on this workload, reported as 0.
    fn contracted(&mut self, traced: bool) -> Vec<(MetricDef, f64)> {
        let defs = if traced {
            contract::PER_LAYER
        } else {
            contract::END_TO_END
        };
        defs.iter()
            .map(|def| {
                let value = match self.metrics.get(def.name) {
                    Some(v) if v.is_finite() => *v,
                    Some(v) => {
                        self.problems
                            .push(format!("{}: not a finite number ({v})", def.name));
                        0.0
                    }
                    None if traced => 0.0,
                    None => {
                        self.problems.push(format!("{}: not measured", def.name));
                        0.0
                    }
                };
                if !traced && value <= 0.0 && self.metrics.contains_key(def.name) {
                    self.problems
                        .push(format!("{}: must be positive, got {value}", def.name));
                }
                (*def, value)
            })
            .collect()
    }

    /// The full report: readable lines, then the JSON result as the last
    /// line.
    pub fn render(&mut self, workload: &str, traced: bool) -> String {
        let contracted = self.contracted(traced);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# rtx-ledger workload={workload} trace={}",
            u8::from(traced)
        );
        for (key, value) in &self.notes {
            let _ = writeln!(out, "# {key}: {value}");
        }
        for (def, value) in &contracted {
            let _ = writeln!(out, "{:<38} {value:>16} {}", def.name, def.unit);
        }
        let _ = writeln!(
            out,
            "{:<38} {:>16} ratio   ({} failed / {} attempted)",
            "error_share",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        for problem in &self.problems {
            let _ = writeln!(out, "PROBLEM: {problem}");
        }
        let metrics: Vec<String> = contracted
            .iter()
            .map(|(def, value)| {
                format!(
                    // `{value}` prints a number as measured, with all its
                    // digits: the shortest text that reads back the same.
                    "{}: {{\"value\": {value}, \"unit\": {}}}",
                    json::quote(def.name),
                    json::quote(def.unit)
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn last_line(report: &str) -> Json {
        json::parse(report.lines().last().unwrap()).unwrap()
    }

    fn measured_end_to_end() -> Outcome {
        let mut outcome = Outcome::default();
        for (i, def) in contract::END_TO_END.iter().enumerate() {
            outcome.set(def.name, 1.5 + i as f64);
        }
        outcome.attempted = 10;
        outcome
    }

    #[test]
    fn the_last_line_is_the_contracted_result() {
        let mut outcome = measured_end_to_end();
        outcome.note("seed", 42);
        let report = outcome.render("direct_fleet", false);
        assert!(report.contains("# seed: 42"));
        let doc = last_line(&report);
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(10.0));
        assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(0.0));
        let metrics = doc.get("metrics").and_then(Json::as_object).unwrap();
        assert_eq!(metrics.len(), contract::END_TO_END.len());
        let setup = &metrics["setup_s"];
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(1.5));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        assert_eq!(doc.as_object().unwrap().len(), 4);
    }

    #[test]
    fn a_failed_operation_or_a_missing_metric_makes_the_run_incorrect() {
        let mut failed = measured_end_to_end();
        failed.failed = 1;
        let report = failed.render("wire_fleet", false);
        assert_eq!(
            last_line(&report).get("correct").and_then(Json::as_bool),
            Some(false)
        );
        assert!(report.contains("(1 failed / 10 attempted)"));

        let mut missing = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        missing.set_measured("step_p95_us", None, 12);
        let report = missing.render("wire_fleet", false);
        assert!(report.contains("PROBLEM: step_p95_us: too few samples to report (12)"));
        assert!(report.contains("PROBLEM: setup_s: not measured"));
        assert_eq!(
            last_line(&report).get("correct").and_then(Json::as_bool),
            Some(false)
        );
    }

    #[test]
    fn an_idle_layer_reads_zero_in_the_traced_pass() {
        let mut outcome = Outcome {
            attempted: 5,
            ..Outcome::default()
        };
        outcome.set("core.step_plain_us", 23.25);
        let doc = last_line(&outcome.render("direct_fleet", true));
        let metrics = doc.get("metrics").and_then(Json::as_object).unwrap();
        assert_eq!(metrics.len(), contract::PER_LAYER.len());
        assert_eq!(
            metrics["core.step_plain_us"]
                .get("value")
                .and_then(Json::as_f64),
            Some(23.25)
        );
        assert_eq!(
            metrics["front.step_rtt_us"]
                .get("value")
                .and_then(Json::as_f64),
            Some(0.0)
        );
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
    }
}
