//! Order statistics for the benchmark's records: nearest-rank
//! percentiles, the tail-percentile rule, and median-with-quartiles
//! summaries.

use eie_core::percentile;

/// Candidate tail percentiles, highest first.
const TAIL_LADDER: [usize; 5] = [99, 98, 95, 90, 75];

/// Samples a tail percentile needs beyond it before it is reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest percentile of [`TAIL_LADDER`], at most `cap` (the
/// highest that repeats between runs), that leaves at least
/// [`TAIL_MIN_BEYOND`] of `n` samples beyond its nearest rank; the
/// median when even the lowest rung does not.
pub fn tail_percentile(n: usize, cap: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .filter(|&p| p <= cap)
        .find(|p| n - (p * n).div_ceil(100) >= TAIL_MIN_BEYOND)
        .map_or(50.0, |p| p as f64)
}

/// A sample set reduced to what a record states about it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    /// Nearest-rank quartiles of `samples` (all zero when empty).
    pub fn of(samples: &[f64]) -> Self {
        Self {
            n: samples.len(),
            q1: percentile(samples, 25.0),
            median: percentile(samples, 50.0),
            q3: percentile(samples, 75.0),
        }
    }

    /// The record form: `{"n":…,"q1":…,"median":…,"q3":…}`.
    pub fn json(&self) -> String {
        format!(
            "{{\"n\":{},\"q1\":{},\"median\":{},\"q3\":{}}}",
            self.n, self.q1, self.median, self.q3
        )
    }
}

/// Median of a sample set (nearest rank; `0.0` when empty).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Arithmetic mean (`0.0` when empty).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond.
        assert_eq!(tail_percentile(1000, 99), 99.0);
        // 999 leaves 9 beyond p99, 19 beyond p98.
        assert_eq!(tail_percentile(999, 99), 98.0);
        assert_eq!(tail_percentile(500, 99), 98.0);
        assert_eq!(tail_percentile(499, 99), 95.0);
        assert_eq!(tail_percentile(200, 99), 95.0);
        assert_eq!(tail_percentile(199, 99), 90.0);
        assert_eq!(tail_percentile(40, 99), 75.0);
        assert_eq!(tail_percentile(39, 99), 50.0);
        assert_eq!(tail_percentile(0, 99), 50.0);
    }

    #[test]
    fn tail_rule_respects_the_repeatability_cap() {
        assert_eq!(tail_percentile(1_000_000, 99), 99.0);
        assert_eq!(tail_percentile(1_000_000, 97), 95.0);
        assert_eq!(tail_percentile(200, 75), 75.0);
        assert_eq!(tail_percentile(39, 75), 50.0);
    }

    #[test]
    fn summary_reports_nearest_rank_quartiles() {
        let samples: Vec<f64> = (1..=8).map(f64::from).collect();
        let s = Summary::of(&samples);
        assert_eq!((s.n, s.q1, s.median, s.q3), (8, 2.0, 4.0, 6.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
    }
}
