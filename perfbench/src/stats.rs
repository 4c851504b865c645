//! Summary statistics for benchmark samples.
//!
//! A percentile is reported only when at least [`MIN_TAIL`] samples lie
//! beyond it, so a p99 needs at least 1 000 samples. A failed operation is
//! recorded as `f64::INFINITY`: it sorts above every real sample and so
//! counts as missing any latency limit.

use alss_core::q_error;

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_TAIL: usize = 10;

/// Sorted samples plus how many of them are failures.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    sorted: Vec<f64>,
    failed: usize,
}

impl Samples {
    /// Collect `values`; non-finite values count as failures.
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        let failed = values.iter().filter(|v| !v.is_finite()).count();
        Samples {
            sorted: values,
            failed,
        }
    }

    /// Number of samples, failures included.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Failures among the samples.
    pub fn failed(&self) -> usize {
        self.failed
    }

    /// Nearest-rank percentile `q ∈ (0, 1)`, or `None` when fewer than
    /// [`MIN_TAIL`] samples lie beyond it.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        let n = self.sorted.len();
        if n == 0 || !(0.0..1.0).contains(&q) {
            return None;
        }
        // Nearest rank: the smallest sample with at least q·n samples at
        // or below it.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        let beyond = n - rank;
        (beyond >= MIN_TAIL).then(|| self.sorted[rank - 1])
    }

    /// The median, under the same tail rule.
    pub fn median(&self) -> Option<f64> {
        self.percentile(0.5)
    }

    /// Median, or the plain middle sample when the set is too small for
    /// the tail rule (per-layer figures with few samples).
    pub fn middle(&self) -> Option<f64> {
        self.median()
            .or_else(|| self.sorted.get(self.sorted.len() / 2).copied())
    }

    /// Largest sample.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }
}

/// Median of a small set of repeats (no tail rule: used for set-up times
/// measured a handful of times per run).
pub fn median_of(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// q-errors of `(true, estimated)` count pairs, via the library's
/// definition (Eq. 1 of the paper).
pub fn q_errors(pairs: &[(f64, f64)]) -> Samples {
    Samples::new(pairs.iter().map(|&(t, e)| q_error(t, e)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Samples {
        Samples::new((1..=n).map(|i| i as f64).collect())
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // 1000 samples: p99 is the 990th, with exactly 10 beyond it.
        assert_eq!(ramp(1000).percentile(0.99), Some(990.0));
        // 999 samples leave only 9 beyond the p99 rank.
        assert_eq!(ramp(999).percentile(0.99), None);
        assert_eq!(ramp(20).median(), Some(10.0));
        assert_eq!(ramp(19).median(), None);
        assert_eq!(ramp(19).middle(), Some(10.0));
    }

    #[test]
    fn failures_sort_last_and_are_counted() {
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        v.extend([f64::INFINITY; 20]);
        let s = Samples::new(v);
        assert_eq!(s.failed(), 20);
        assert_eq!(s.len(), 1020);
        // 1% of 1020 is 10.2 samples: the 20 failures push p99 to +inf.
        assert_eq!(s.percentile(0.99), Some(f64::INFINITY));
        assert_eq!(s.median(), Some(510.0));
    }

    #[test]
    fn out_of_range_quantiles_are_refused() {
        assert_eq!(ramp(100).percentile(1.0), None);
        assert_eq!(ramp(100).percentile(-0.1), None);
        assert_eq!(Samples::new(Vec::new()).median(), None);
    }

    #[test]
    fn median_of_repeats() {
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_of(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median_of(&[]).is_nan());
    }

    #[test]
    fn q_errors_use_the_library_definition() {
        let s = q_errors(&[(10.0, 100.0), (100.0, 10.0), (5.0, 5.0)]);
        assert_eq!(s.max(), Some(10.0));
        assert_eq!(s.middle(), Some(10.0));
        // estimates below 1 are clamped like the paper's ĉ(q) ≥ 1
        assert_eq!(q_errors(&[(1.0, 0.0)]).max(), Some(1.0));
    }
}
