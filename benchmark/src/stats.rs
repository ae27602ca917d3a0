//! Order statistics over timing samples.

/// Candidate percentiles for the reported tail, highest last.
const TAIL_LADDER: [f64; 6] = [50.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// Minimum number of samples that must lie beyond a reported tail.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of `samples` (any order); `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(p, sorted.len()) - 1])
}

/// Median of `samples`; `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// The highest percentile of [`TAIL_LADDER`] that leaves at least
/// [`MIN_BEYOND`] samples beyond it: `(percentile, value, samples beyond)`.
/// `None` when there are too few samples for even the median.
pub fn tail(samples: &[f64]) -> Option<(f64, f64, usize)> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let p = TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| n - rank(p, n) >= MIN_BEYOND)?;
    Some((p, percentile(samples, p)?, n - rank(p, n)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the helpers must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 50.0), Some(50.0));
        assert_eq!(percentile(&s, 99.0), Some(99.0));
        assert_eq!(percentile(&s, 100.0), Some(100.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
        assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0, 10)));
        // 999 samples: p99 leaves 9, so the tail falls back to p95.
        let (p, v, beyond) = tail(&ramp(999)).expect("tail");
        assert_eq!((p, v), (95.0, 950.0));
        assert!(beyond >= MIN_BEYOND);
        // 100000 samples reach p99.99 (10 beyond).
        assert_eq!(tail(&ramp(100_000)).map(|t| t.0), Some(99.99));
    }

    #[test]
    fn tail_is_absent_below_twenty_samples() {
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&ramp(20)), Some((50.0, 10.0, 10)));
        assert_eq!(tail(&[]), None);
    }
}
