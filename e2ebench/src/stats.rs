//! Order statistics for reported timings.
//!
//! A timing is reported as its median plus the highest requested
//! percentile that still has at least [`MIN_BEYOND`] samples above it
//! (nearest-rank), always together with the sample count. A tail that the
//! sample cannot support is clamped down to the highest percentile it can,
//! and the clamp is visible in the printed percentile.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the middle pair for even lengths); NaN if empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Arithmetic mean; NaN if empty.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// A percentile reported under the ten-beyond rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported (≤ the one asked for).
    pub q: f64,
    pub value: f64,
    /// Sample count.
    pub n: usize,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
}

impl Tail {
    /// Whether the reported percentile is the one that was asked for.
    pub fn is_full(&self, want: f64) -> bool {
        self.q >= want - 1e-12 && self.beyond >= MIN_BEYOND
    }

    /// `p99 (n=412331, 4123 beyond)`-style label.
    pub fn label(&self) -> String {
        format!(
            "p{} (n={}, {} beyond)",
            fmt_pct(self.q * 100.0),
            self.n,
            self.beyond
        )
    }
}

fn fmt_pct(p: f64) -> String {
    let s = format!("{p:.2}");
    s.trim_end_matches('0').trim_end_matches('.').to_string()
}

/// The `want` percentile of `samples` by nearest rank, clamped to the
/// highest rank with at least [`MIN_BEYOND`] samples beyond it. Sorts
/// `samples` in place. A sample too small for any such rank reports the
/// unclamped percentile, and `beyond` shows the shortfall.
pub fn tail(samples: &mut [f64], want: f64) -> Tail {
    let n = samples.len();
    if n == 0 {
        return Tail {
            q: want,
            value: f64::NAN,
            n: 0,
            beyond: 0,
        };
    }
    samples.sort_unstable_by(f64::total_cmp);
    let asked = ((want * n as f64).ceil() as usize).clamp(1, n) - 1;
    let k = if n > MIN_BEYOND {
        asked.min(n - MIN_BEYOND - 1)
    } else {
        asked
    };
    Tail {
        q: (k + 1) as f64 / n as f64,
        value: samples[k],
        n,
        beyond: n - 1 - k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so the sort inside `tail` is exercised.
        (0..n).map(|i| ((i * 7919) % n) as f64).collect()
    }

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let mut xs = ramp(1000);
        let t = tail(&mut xs, 0.99);
        assert_eq!(t.value, 989.0);
        assert_eq!(t.beyond, 10);
        assert!(t.is_full(0.99));
        assert_eq!(t.label(), "p99 (n=1000, 10 beyond)");
    }

    #[test]
    fn short_samples_clamp_to_ten_beyond() {
        let mut xs = ramp(500);
        let t = tail(&mut xs, 0.99);
        // Nearest rank 495 would leave 5 beyond; the rule backs off to 489.
        assert_eq!(t.value, 489.0);
        assert_eq!(t.beyond, MIN_BEYOND);
        assert!((t.q - 0.98).abs() < 1e-12);
        assert!(!t.is_full(0.99));
        assert_eq!(t.label(), "p98 (n=500, 10 beyond)");
    }

    #[test]
    fn p90_of_a_hundred_rounds_is_supported() {
        let mut xs = ramp(100);
        let t = tail(&mut xs, 0.90);
        assert_eq!(t.value, 89.0);
        assert_eq!(t.beyond, 10);
        assert!(t.is_full(0.90));
    }

    #[test]
    fn tiny_samples_report_the_unclamped_rank_and_the_shortfall() {
        let mut xs = vec![5.0, 1.0, 3.0];
        let t = tail(&mut xs, 0.99);
        assert_eq!(t.value, 5.0);
        assert_eq!((t.n, t.beyond), (3, 0));
        assert!(!t.is_full(0.99));
        let mut empty: Vec<f64> = Vec::new();
        assert!(tail(&mut empty, 0.5).value.is_nan());
    }
}
