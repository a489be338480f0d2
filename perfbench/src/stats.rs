//! Order statistics over raw samples: medians for repeated timings and
//! exact nearest-rank percentiles for per-request latencies. Nothing here
//! buckets or interpolates, so a percentile is always one measured sample.

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile of already sorted samples: the smallest sample
/// with at least `p` percent of all samples at or below it. `None` when
/// empty.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The highest percentile whose nearest-rank sample still has at least
/// `beyond` samples above it (e.g. 99.0 for 1000 samples and 10 beyond);
/// 0 when there are not enough samples for any.
pub fn highest_supported_percentile(n: usize, beyond: usize) -> f64 {
    if n <= beyond {
        return 0.0;
    }
    100.0 * (n - beyond) as f64 / n as f64
}

/// Latencies of one open-loop phase, each measured from when its request
/// was due, plus how late the generator sent each request.
#[derive(Debug, Default, Clone)]
pub struct PhaseSamples {
    /// Per completed request: reply time minus due time, milliseconds.
    pub latency_ms: Vec<f64>,
    /// Per request: send time minus due time, milliseconds.
    pub late_ms: Vec<f64>,
    /// Requests refused (`Overloaded`) or failed; each misses any limit.
    pub missed: usize,
}

impl PhaseSamples {
    /// Requests sent in this phase.
    pub fn attempted(&self) -> usize {
        self.latency_ms.len() + self.missed
    }

    /// Nearest-rank latency percentile over every attempted request, with
    /// refused or failed requests ranked above every completed one (they
    /// never met any limit). `f64::INFINITY` when the rank lands on a miss.
    pub fn latency_percentile(&self, p: f64) -> f64 {
        let mut all = self.latency_ms.clone();
        all.sort_by(f64::total_cmp);
        all.extend(std::iter::repeat_n(f64::INFINITY, self.missed));
        percentile_sorted(&all, p).unwrap_or(f64::INFINITY)
    }

    /// Nearest-rank percentile of generator lateness.
    pub fn late_percentile(&self, p: f64) -> f64 {
        let mut all = self.late_ms.clone();
        all.sort_by(f64::total_cmp);
        percentile_sorted(&all, p).unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn nearest_rank_percentiles_match_hand_computed_values() {
        // 1..=100: p50 is the 50th sample, p99 the 99th, p100 the last.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&xs, 50.0), Some(50.0));
        assert_eq!(percentile_sorted(&xs, 99.0), Some(99.0));
        assert_eq!(percentile_sorted(&xs, 100.0), Some(100.0));
        assert_eq!(percentile_sorted(&xs, 0.0), Some(1.0));
        // Five samples: p50 → rank ceil(2.5) = 3; p90 → rank ceil(4.5) = 5.
        let five = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile_sorted(&five, 50.0), Some(30.0));
        assert_eq!(percentile_sorted(&five, 90.0), Some(50.0));
        assert_eq!(percentile_sorted(&five, 20.0), Some(10.0));
        assert_eq!(percentile_sorted(&[], 50.0), None);
    }

    #[test]
    fn supported_percentile_leaves_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(1000, 10), 99.0);
        assert_eq!(highest_supported_percentile(2000, 10), 99.5);
        assert_eq!(highest_supported_percentile(100, 10), 90.0);
        assert_eq!(highest_supported_percentile(10, 10), 0.0);
    }

    #[test]
    fn misses_rank_above_every_completed_request() {
        let phase = PhaseSamples {
            latency_ms: vec![5.0, 1.0, 3.0, 2.0, 4.0, 6.0, 7.0, 8.0, 9.0],
            late_ms: vec![0.0, 0.5, 0.0, 2.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0],
            missed: 1,
        };
        assert_eq!(phase.attempted(), 10);
        assert_eq!(phase.latency_percentile(50.0), 5.0);
        assert_eq!(phase.latency_percentile(90.0), 9.0);
        assert_eq!(phase.latency_percentile(99.0), f64::INFINITY);
        assert_eq!(phase.late_percentile(90.0), 1.0);
        assert_eq!(phase.late_percentile(100.0), 2.0);
    }
}
