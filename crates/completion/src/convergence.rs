//! Shared optimizer configuration and convergence tracking.

/// Stopping rule shared by all completion optimizers.
#[derive(Debug, Clone, Copy)]
pub struct StopRule {
    /// Maximum number of sweeps over all modes.
    pub max_sweeps: usize,
    /// Relative objective-decrease tolerance: stop when
    /// `(g_prev - g) <= tol * max(g_prev, eps)`.
    pub tol: f64,
}

impl Default for StopRule {
    fn default() -> Self {
        // The paper caps ALS at 100 sweeps (§6.0.4).
        Self {
            max_sweeps: 100,
            tol: 1e-6,
        }
    }
}

impl StopRule {
    /// True when the objective decrease from `prev` to `curr` is below
    /// tolerance.
    pub fn converged(&self, prev: f64, curr: f64) -> bool {
        (prev - curr) <= self.tol * prev.abs().max(f64::EPSILON)
    }
}

/// Record of one optimizer run: the objective after every sweep.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Objective value after each completed sweep.
    pub objective: Vec<f64>,
    /// Whether the stop rule (rather than the sweep cap) ended the run.
    pub converged: bool,
}

impl Trace {
    /// Number of sweeps performed.
    pub fn sweeps(&self) -> usize {
        self.objective.len()
    }

    /// Final objective value (∞ when no sweep ran).
    pub fn final_objective(&self) -> f64 {
        self.objective.last().copied().unwrap_or(f64::INFINITY)
    }

    /// True if the recorded objective never increased by more than `slack`
    /// (relative). ALS is a monotone algorithm; tests assert this.
    pub fn is_monotone(&self, slack: f64) -> bool {
        self.objective
            .windows(2)
            .all(|w| w[1] <= w[0] * (1.0 + slack) + slack)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let s = StopRule::default();
        assert_eq!(s.max_sweeps, 100);
    }

    #[test]
    fn convergence_check() {
        let s = StopRule {
            max_sweeps: 10,
            tol: 1e-3,
        };
        assert!(s.converged(1.0, 0.9995));
        assert!(!s.converged(1.0, 0.5));
        // Increase also counts as converged (decrease <= tol).
        assert!(s.converged(1.0, 1.1));
    }

    #[test]
    fn trace_monotone() {
        let t = Trace {
            objective: vec![10.0, 5.0, 4.0, 4.0],
            converged: true,
        };
        assert!(t.is_monotone(0.0));
        assert_eq!(t.sweeps(), 4);
        assert_eq!(t.final_objective(), 4.0);
        let bad = Trace {
            objective: vec![1.0, 2.0],
            converged: false,
        };
        assert!(!bad.is_monotone(1e-9));
    }

    #[test]
    fn empty_trace() {
        let t = Trace::default();
        assert_eq!(t.final_objective(), f64::INFINITY);
        assert!(t.is_monotone(0.0));
    }
}
