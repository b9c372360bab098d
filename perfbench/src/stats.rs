//! Percentiles and interquartile means over a run's samples.
//!
//! Percentiles interpolate linearly between closest ranks (the
//! `(n - 1) * p` rule), so a value carries every digit the samples give
//! it. A tail percentile is only reported when at least ten samples lie
//! beyond it; [`tail_supported`] says whether a sample count allows it.
//!
//! Read and update latency is bimodal from one published epoch to the
//! next (the same requests run about 1.5x slower on some epochs than on
//! others), so the median of a whole run flips between the modes as
//! their shares drift. Runs therefore report the interquartile mean
//! ([`iqm`]) of per-round figures, which moves smoothly with the shares
//! and ignores the odd stalled round.

/// A growing set of samples in one unit, in the order they were taken.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.sum() / self.values.len() as f64
        }
    }

    /// The `p`-quantile (`p` in `[0, 1]`); 0 for an empty set.
    pub fn percentile(&self, p: f64) -> f64 {
        percentile(&self.values, p)
    }

    pub fn median(&self) -> f64 {
        self.percentile(0.5)
    }

    /// The samples from index `start` on.
    pub fn since(&self, start: usize) -> &[f64] {
        &self.values[start..]
    }

    pub fn iqm(&self) -> f64 {
        iqm(&self.values)
    }
}

/// Interquartile mean: the mean of `values` without the lowest and the
/// highest quarter (by count, rounded down); 0 when empty.
pub fn iqm(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let k = sorted.len() / 4;
    let middle = &sorted[k..sorted.len() - k];
    if middle.is_empty() {
        0.0
    } else {
        middle.iter().sum::<f64>() / middle.len() as f64
    }
}

/// Linear-interpolated `p`-quantile of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = p.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            let frac = pos - lo as f64;
            sorted[lo] + (sorted[hi] - sorted[lo]) * frac
        }
    }
}

/// Whether `n` samples leave at least ten beyond the `p`-quantile.
pub fn tail_supported(n: usize, p: f64) -> bool {
    // The epsilon keeps 100 * (1 - 0.9) from flooring to 9.
    (n as f64 * (1.0 - p) + 1e-9).floor() >= 10.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(v: &[f64]) -> Samples {
        let mut s = Samples::default();
        for &x in v {
            s.push(x);
        }
        s
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(samples(&[5.0, 1.0, 3.0]).median(), 3.0);
        // Even count: halfway between the middle pair, 2 and 3.
        assert_eq!(samples(&[4.0, 1.0, 3.0, 2.0]).median(), 2.5);
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        // 1..=10: p90 sits at rank 0.9 * 9 = 8.1 -> 9 + 0.1 * (10 - 9).
        let s = samples(&(1..=10).map(f64::from).collect::<Vec<_>>());
        assert!((s.percentile(0.9) - 9.1).abs() < 1e-12);
        // p99 of 1..=101 is rank 99 exactly -> 100.
        let s = samples(&(1..=101).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.percentile(0.99), 100.0);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(1.0), 101.0);
    }

    #[test]
    fn empty_and_single_sample() {
        assert_eq!(Samples::default().median(), 0.0);
        assert_eq!(samples(&[7.5]).percentile(0.99), 7.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert!(tail_supported(20, 0.5));
        assert!(!tail_supported(19, 0.5));
        assert!(tail_supported(100, 0.9));
        assert!(!tail_supported(99, 0.9));
        assert!(tail_supported(1000, 0.99));
        assert!(!tail_supported(999, 0.99));
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        // 1..=8: drop 1, 2 and 7, 8 -> mean of 3, 4, 5, 6.
        assert_eq!(iqm(&[8.0, 1.0, 7.0, 2.0, 6.0, 3.0, 5.0, 4.0]), 4.5);
        // One stalled value among four is dropped with the lowest.
        assert_eq!(iqm(&[2.0, 100.0, 1.0, 3.0]), 2.5);
        // Fewer than four values: the plain mean.
        assert!((iqm(&[1.0, 2.0, 4.0]) - 7.0 / 3.0).abs() < 1e-12);
        assert_eq!(iqm(&[]), 0.0);
        assert_eq!(samples(&[5.0, 1.0, 3.0]).since(1), &[1.0, 3.0]);
    }

    #[test]
    fn sum_and_mean() {
        let s = samples(&[1.0, 2.0, 6.0]);
        assert_eq!(s.sum(), 9.0);
        assert_eq!(s.mean(), 3.0);
        assert_eq!(s.len(), 3);
    }
}
