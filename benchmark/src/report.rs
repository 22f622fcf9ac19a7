//! Oracle verdict bookkeeping and the result the benchmark prints.

use crate::stats::Summary;

/// Counts checked operations and keeps the first failure messages.
#[derive(Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    first: Vec<String>,
}

impl Checker {
    /// Record one checked operation; returns its value if it passed.
    pub fn record<T>(&mut self, what: &str, verdict: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match verdict {
            Ok(value) => Some(value),
            Err(e) => {
                self.failed += 1;
                if self.first.len() < 8 {
                    self.first.push(format!("{what}: {e}"));
                }
                None
            }
        }
    }

    pub fn absorb(&mut self, other: Checker) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for msg in other.first {
            if self.first.len() < 8 {
                self.first.push(msg);
            }
        }
    }
}

/// One named metric, with the sample summary it was taken from if any.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub summary: Option<Summary>,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.to_string(),
            unit,
            value,
            summary: None,
        }
    }

    pub fn with_summary(mut self, summary: Summary) -> Self {
        self.summary = Some(summary);
        self
    }
}

/// Everything one run reports.
pub struct Outcome {
    pub check: Checker,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Human-readable context lines printed before the metrics.
    pub notes: Vec<String>,
}

/// JSON has no lexeme for non-finite numbers; a metric that came out
/// non-finite is a benchmark bug, reported as such.
fn json_number(name: &str, x: f64) -> String {
    assert!(x.is_finite(), "metric {name} is not finite: {x}");
    format!("{x}")
}

impl Outcome {
    /// Print the human-readable report, then the one-line JSON result:
    /// end-to-end metrics for an untraced run, per-layer ones for a traced
    /// run.
    pub fn print(&self, workload: &str, trace: bool) {
        println!("workload {workload}");
        for note in &self.notes {
            println!("  {note}");
        }
        let rate = if self.check.attempted == 0 {
            0.0
        } else {
            self.check.failed as f64 / self.check.attempted as f64
        };
        println!(
            "  oracle: {} checked, {} failed, error_rate {rate}",
            self.check.attempted, self.check.failed
        );
        for msg in &self.check.first {
            println!("  FAILED {msg}");
        }
        let print_table = |title: &str, metrics: &[Metric]| {
            println!("  {title}");
            for m in metrics {
                match &m.summary {
                    Some(s) => println!(
                        "    {:<34} {:>14.6} {:<6} median {:.6} q1 {:.6} q3 {:.6} p90 {:.6} n {}",
                        m.name, m.value, m.unit, s.median, s.q1, s.q3, s.p90, s.n
                    ),
                    None => println!("    {:<34} {:>14.6} {}", m.name, m.value, m.unit),
                }
            }
        };
        print_table("end-to-end", &self.end_to_end);
        if trace {
            print_table("per-layer", &self.per_layer);
        }
        let metrics = if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(&m.name, m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.check.failed == 0 && self.check.attempted > 0,
            self.check.attempted,
            self.check.failed,
            body.join(", ")
        );
    }
}
