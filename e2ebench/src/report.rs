//! The run's printed result: one human-readable line per metric (value,
//! unit, sample count and notes), then the final JSON line.

use crate::ledger::Ledger;

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count and provenance, printed beside the value.
    pub note: String,
}

#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Failed correctness checks, by description.
    pub violations: Vec<String>,
    pub ledger: Ledger,
}

impl Report {
    pub fn add(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            note: note.into(),
        });
    }

    /// Record a correctness check; a failure makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// Human-readable lines, one per metric.
    pub fn lines(&self) -> Vec<String> {
        self.metrics
            .iter()
            .map(|m| {
                format!(
                    "{:<28} {:>14} {:<6} {}",
                    m.name,
                    fmt_num(m.value),
                    m.unit,
                    m.note
                )
            })
            .collect()
    }

    /// The result object: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.ledger.attempted.max(1),
            self.ledger.failed,
            metrics.join(", ")
        )
    }
}

fn fmt_num(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e6 || v.abs() < 1e-3) {
        format!("{v:.6e}")
    } else {
        format!("{v:.6}")
    }
}

/// A finite f64 with all its digits (Rust's shortest round-trip form);
/// non-finite values become `null`, which the reader rejects.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains('.') || s.contains('e') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_carries_every_digit_and_the_failure_counts() {
        let mut r = Report::default();
        r.add("latency_ms", 1.2034567891, "ms", "n=10");
        r.add("count", 3.0, "count", "");
        r.ledger.ok_n(9);
        r.ledger.fail("shed");
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034567891, \"unit\": \"ms\"}, \
             \"count\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
        r.check(false, || "boom".into());
        assert!(r.json().starts_with("{\"correct\": false"));
        assert_eq!(json_num(f64::NAN), "null");
    }
}
