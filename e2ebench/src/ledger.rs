//! Failure counting behind `ok_ratio`.
//!
//! Every operation a phase attempts lands in its [`Ledger`] as a success
//! or as a failure with a named cause. `ok_ratio` is the lowest per-phase
//! success ratio, so a failure in a low-volume phase (six fits, a few
//! hundred refit batches) is never diluted by millions of reads.

use cpr_registry::PipelineStats;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub causes: BTreeMap<&'static str, u64>,
}

impl Ledger {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, cause: &'static str) {
        self.fail_n(cause, 1);
    }

    pub fn fail_n(&mut self, cause: &'static str, n: u64) {
        if n == 0 {
            return;
        }
        self.attempted += n;
        self.failed += n;
        *self.causes.entry(cause).or_insert(0) += n;
    }

    /// Record `n` successes at once.
    pub fn ok_n(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn merge(&mut self, other: &Ledger) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (k, v) in &other.causes {
            *self.causes.entry(k).or_insert(0) += v;
        }
    }

    /// Succeeded ÷ attempted; 1 when nothing was attempted.
    pub fn ok_ratio(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }

    /// `attempted=…, failed=… (cause=n, …)`.
    pub fn describe(&self) -> String {
        let causes: Vec<String> = self
            .causes
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        format!(
            "attempted={} failed={}{}",
            self.attempted,
            self.failed,
            if causes.is_empty() {
                String::new()
            } else {
                format!(" ({})", causes.join(", "))
            }
        )
    }
}

/// What happened to one wire response, from the client's side.
pub fn classify_response(status: u16, body_matches: bool) -> Result<(), &'static str> {
    match (status, body_matches) {
        (200, true) => Ok(()),
        (200, false) => Err("wrong_body"),
        (503, _) => Err("shed"),
        (400..=499, _) => Err("rejected"),
        _ => Err("server_error"),
    }
}

/// Refit batches over a pipeline's lifetime: a batch counts as lost when
/// the pipeline dropped it after exhausting retries (panics, timeouts,
/// fit errors, corrupt installs), shed or orphaned it, or when its swap
/// failed to persist. Retried attempts that later succeed are not losses;
/// batches still queued (breaker-deferred at the run's cut-off) stay in
/// the write-ahead log and are not lost either.
pub fn refit_ledger(stats: &PipelineStats) -> Ledger {
    let mut l = Ledger::default();
    let lost = [
        ("dropped", stats.dropped_jobs),
        ("shed", stats.shed),
        ("orphaned", stats.orphaned),
        ("persist_failed", stats.persist_failed),
    ];
    let lost_total: u64 = lost.iter().map(|(_, n)| n).sum();
    l.ok_n(stats.submitted.saturating_sub(lost_total));
    for (cause, n) in lost {
        l.fail_n(cause, n);
    }
    l
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_counts_failures_against_attempts() {
        let mut l = Ledger::default();
        assert_eq!(l.ok_ratio(), 1.0);
        l.ok_n(7);
        l.fail("shed");
        l.fail("shed");
        l.fail("wrong_body");
        assert_eq!((l.attempted, l.failed), (10, 3));
        assert!((l.ok_ratio() - 0.7).abs() < 1e-12);
        assert_eq!(l.describe(), "attempted=10 failed=3 (shed=2, wrong_body=1)");
        let mut total = Ledger::default();
        total.merge(&l);
        total.merge(&l);
        assert_eq!((total.attempted, total.failed), (20, 6));
        assert_eq!(total.causes["shed"], 4);
    }

    #[test]
    fn responses_succeed_only_as_200_with_the_expected_body() {
        assert_eq!(classify_response(200, true), Ok(()));
        assert_eq!(classify_response(200, false), Err("wrong_body"));
        assert_eq!(classify_response(503, true), Err("shed"));
        assert_eq!(classify_response(404, false), Err("rejected"));
        assert_eq!(classify_response(500, false), Err("server_error"));
    }

    #[test]
    fn refit_losses_exclude_retries_and_deferrals() {
        let stats = PipelineStats {
            submitted: 100,
            swapped: 80,
            gate_rejected: 15,
            panics: 3,
            retries: 3,
            deferred: 9,
            dropped_jobs: 1,
            persisted: 78,
            persist_failed: 2,
            queued: 2,
            ..PipelineStats::default()
        };
        let l = refit_ledger(&stats);
        assert_eq!((l.attempted, l.failed), (100, 3));
        assert_eq!(l.causes["dropped"], 1);
        assert_eq!(l.causes["persist_failed"], 2);
        assert!(!l.causes.contains_key("panics"));
    }
}
