//! Percentiles that refuse to overreach.

/// Fewest samples that must lie beyond a reported percentile (and, for
/// the median, on each side of it).
pub const MIN_BEYOND: usize = 10;

/// Why a percentile was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooFew {
    /// Samples offered.
    pub have: usize,
    /// Samples the percentile needs.
    pub need: usize,
}

impl std::fmt::Display for TooFew {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} samples, {} needed", self.have, self.need)
    }
}

/// Samples needed before the `p`-th percentile (0 < p < 100) has
/// [`MIN_BEYOND`] samples beyond it on its thin side.
pub fn samples_needed(p: f64) -> usize {
    let thin = (p.min(100.0 - p) / 100.0).max(f64::MIN_POSITIVE);
    (MIN_BEYOND as f64 / thin).ceil() as usize
}

/// The `p`-th percentile (nearest rank) of `sorted`, ascending — or a
/// refusal when fewer than [`MIN_BEYOND`] samples lie beyond it: a p99
/// of 300 samples is the third-worst sample, not a percentile.
pub fn percentile(sorted: &[f64], p: f64) -> Result<f64, TooFew> {
    let need = samples_needed(p);
    if sorted.len() < need {
        return Err(TooFew { have: sorted.len(), need });
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Ok(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sorts `samples` ascending in place (no NaNs reach here: every sample
/// is a difference of two clock readings).
pub fn sort(samples: &mut [f64]) {
    samples.sort_unstable_by(|a, b| a.partial_cmp(b).expect("latencies are never NaN"));
}

/// Plain median of an unsorted, non-empty slice (used across runs and
/// set-up repetitions, where there are only a handful of values and the
/// [`MIN_BEYOND`] rule does not apply).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First, second and third quartile of `values` as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method
/// the driver uses); `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    Some([1usize, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    }))
}

/// Run-to-run spread: the distance between the first and third quartile
/// as a share of the median (0 with fewer than two values).
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, q2, q3]) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn needs_scale_with_the_tail() {
        assert_eq!(samples_needed(50.0), 20);
        assert_eq!(samples_needed(90.0), 100);
        assert_eq!(samples_needed(99.0), 1_000);
    }

    #[test]
    fn nearest_rank_on_enough_samples() {
        let v: Vec<f64> = (1..=1_000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Ok(500.0));
        assert_eq!(percentile(&v, 99.0), Ok(990.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(spread(&v), 1.0);
        assert_eq!(spread(&[7.0]), 0.0);
    }
}
