//! What one run of one workload reports, and how it is printed.

use crate::spec::{END_TO_END, PER_LAYER};

/// Values for one of the two metric sets (`--trace 0`: end to end,
/// `--trace 1`: per layer), keyed by the names in [`crate::spec`].
#[derive(Debug, Clone)]
pub struct Metrics {
    traced: bool,
    values: Vec<Option<f64>>,
}

impl Metrics {
    pub fn end_to_end() -> Self {
        Metrics {
            traced: false,
            values: vec![None; END_TO_END.len()],
        }
    }

    /// The per-layer set. A layer a workload never enters reports 0 work,
    /// so every name starts at 0 and the workload overwrites what it has.
    pub fn per_layer() -> Self {
        Metrics {
            traced: true,
            values: vec![Some(0.0); PER_LAYER.len()],
        }
    }

    fn index(&self, name: &str) -> usize {
        let found = if self.traced {
            PER_LAYER.iter().position(|m| m.name == name)
        } else {
            END_TO_END.iter().position(|m| m.name == name)
        };
        found.unwrap_or_else(|| panic!("metric {name} is not in the benchmark's tables"))
    }

    /// # Panics
    ///
    /// Panics on a name the tables do not list, or a non-finite value.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let i = self.index(name);
        self.values[i] = Some(value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values[self.index(name)].unwrap_or(0.0)
    }

    /// `(name, unit, value)` in table order.
    ///
    /// # Panics
    ///
    /// Panics if an end-to-end metric was never set.
    pub fn rows(&self) -> Vec<(&'static str, &'static str, f64)> {
        let names: Vec<(&'static str, &'static str)> = if self.traced {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        names
            .into_iter()
            .zip(&self.values)
            .map(|((name, unit), v)| {
                (
                    name,
                    unit,
                    v.unwrap_or_else(|| panic!("metric {name} was never measured")),
                )
            })
            .collect()
    }
}

/// The result of running one workload once.
#[derive(Debug, Clone)]
pub struct RunOutput {
    pub attempted: u64,
    pub failed: u64,
    /// Set when the run itself is unusable (for example the load generator
    /// was the bottleneck), whatever the per-operation checks said.
    pub invalid: Option<String>,
    pub metrics: Metrics,
    /// Context lines printed above the metrics (digests, sample counts).
    pub notes: Vec<String>,
}

impl RunOutput {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.invalid.is_none()
    }

    /// The driver's result object: one line, the last on standard output.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .rows()
            .iter()
            .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Human-readable report followed by the result object.
    pub fn print(&self, workload: &str) {
        for n in &self.notes {
            println!("# {n}");
        }
        if let Some(why) = &self.invalid {
            println!("# INVALID RUN: {why}");
        }
        println!(
            "# {workload}: ops_attempted {} ops_failed {}",
            self.attempted, self.failed
        );
        for (name, unit, v) in self.metrics.rows() {
            println!("metric {workload} {name} {v} {unit}");
        }
        println!("{}", self.result_json());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_json_lists_every_end_to_end_metric_once() {
        let mut m = Metrics::end_to_end();
        for (i, e) in END_TO_END.iter().enumerate() {
            m.set(e.name, 1.5 + i as f64);
        }
        let out = RunOutput {
            attempted: 3,
            failed: 0,
            invalid: None,
            metrics: m,
            notes: vec![],
        };
        let json = out.result_json();
        assert!(
            json.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        for e in &END_TO_END {
            assert_eq!(json.matches(&format!("\"{}\":", e.name)).count(), 1);
        }
        assert!(json.contains("\"setup_s\": {\"value\": 2.5, \"unit\": \"s\"}"));
    }

    #[test]
    #[should_panic(expected = "not in the benchmark's tables")]
    fn unknown_metric_names_are_refused() {
        Metrics::per_layer().set("no.such.metric", 1.0);
    }
}
