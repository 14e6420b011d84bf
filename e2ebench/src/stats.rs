//! Sample summaries: the percentile rule and open-loop lateness.

use std::time::{Duration, Instant};

/// Percentiles the benchmark may report, highest first.
const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// Whether `n` samples leave at least [`MIN_BEYOND`] of them beyond the
/// `p`-th percentile. Counted in whole per-mille, so 99.9 is exact.
pub fn supports(n: usize, p: f64) -> bool {
    let beyond_per_mille = (1000.0 - p * 10.0).round() as usize;
    n * beyond_per_mille / 1000 >= MIN_BEYOND
}

/// The highest percentile of the ladder that `n` samples support, or
/// `None` when even the median has fewer than ten samples beyond it.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER.into_iter().find(|&p| supports(n, p))
}

/// A timing summary: the median and the highest supported percentile,
/// with the sample count they rest on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// The percentile `tail` is taken at.
    pub tail_pct: f64,
    pub tail: f64,
}

impl Summary {
    /// Summarises `samples`; `None` when fewer than twenty samples exist
    /// (the median itself would be unsupported).
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let tail_pct = highest_supported(samples.len())?;
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Summary {
            n: sorted.len(),
            p50: percentile(&sorted, 50.0),
            tail_pct,
            tail: percentile(&sorted, tail_pct),
        })
    }

    /// The `p`-th percentile, refused unless the sample supports it.
    pub fn at(samples: &[f64], p: f64) -> Result<f64, String> {
        if !supports(samples.len(), p) {
            return Err(format!(
                "p{p} needs {} samples beyond it; {} samples support only p{:?}",
                MIN_BEYOND,
                samples.len(),
                highest_supported(samples.len())
            ));
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Ok(percentile(&sorted, p))
    }
}

/// Nearest-rank percentile of an ascending, non-empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// One open-loop event: when it was due, when the generator actually
/// issued it, and when its result came back.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub due: Instant,
    pub issued: Instant,
    pub done: Instant,
}

impl Timed {
    /// How late the generator issued the event (zero when on time).
    pub fn late(&self) -> Duration {
        self.issued.saturating_duration_since(self.due)
    }

    /// Latency counted from the due instant, so generator lateness and
    /// any stall that delayed the issue are part of it.
    pub fn lag(&self) -> Duration {
        self.done.saturating_duration_since(self.due)
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert!(!supports(999, 99.0));
        assert!(supports(1000, 99.0));
        assert_eq!(highest_supported(999), Some(95.0));
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(9_999), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(19), None);
    }

    #[test]
    fn summary_reports_the_supported_tail_with_its_count() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let s = Summary::of(&xs).expect("200 samples support p95");
        assert_eq!(s.n, 200);
        assert_eq!(s.tail_pct, 95.0);
        assert_eq!(s.tail, 190.0);
        assert_eq!(s.p50, 100.0);
        assert!(Summary::of(&xs[..19]).is_none());
    }

    #[test]
    fn unsupported_percentile_is_refused() {
        let xs: Vec<f64> = (0..500).map(f64::from).collect();
        assert!(Summary::at(&xs, 99.0).is_err());
        assert_eq!(Summary::at(&xs, 95.0), Ok(474.0));
    }

    #[test]
    fn lateness_counts_into_lag() {
        let due = Instant::now();
        let issued = due + Duration::from_millis(7);
        let done = issued + Duration::from_millis(3);
        let t = Timed { due, issued, done };
        assert_eq!(t.late(), Duration::from_millis(7));
        assert_eq!(t.lag(), Duration::from_millis(10), "lag runs from due, not from issue");
    }

    #[test]
    fn an_early_issue_is_not_late() {
        let issued = Instant::now();
        let due = issued + Duration::from_millis(5);
        let done = due + Duration::from_millis(2);
        let t = Timed { due, issued, done };
        assert_eq!(t.late(), Duration::ZERO);
        assert_eq!(t.lag(), Duration::from_millis(2));
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
