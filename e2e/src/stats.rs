//! The one place percentiles are computed.
//!
//! Nearest-rank percentiles over sorted samples and the median that
//! combines per-cycle figures, with the sample count kept beside every
//! figure and the rule that a percentile is only worth reporting when at
//! least ten samples lie beyond it.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it.  `None` for
/// an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// How many samples lie strictly beyond the nearest-rank position of
/// percentile `p` among `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    n - rank
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median by the usual convention (mean of the middle pair for an even
/// count), for combining per-cycle figures.  0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values.to_vec());
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// One timed quantity: its count and the percentiles the reports use.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
    pub p999: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(samples: Vec<f64>) -> Summary {
        let v = sorted(samples);
        let at = |p| percentile(&v, p).unwrap_or(0.0);
        Summary {
            n: v.len(),
            p50: at(50.0),
            p99: at(99.0),
            p999: at(99.9),
            max: v.last().copied().unwrap_or(0.0),
        }
    }
}

/// Nanosecond samples as a summary in a coarser unit (`per` nanoseconds
/// to the unit: 1e3 for µs, 1e6 for ms).
pub fn summarize_ns(ns: &[u64], per: f64) -> Summary {
    Summary::of(ns.iter().map(|&x| x as f64 / per).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_hand_computed_vectors() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 99.0), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 99.9), Some(7.0));
        // 15, 20, 35, 40, 50: the classic nearest-rank example.
        let w = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&w, 30.0), Some(20.0));
        assert_eq!(percentile(&w, 40.0), Some(20.0));
        assert_eq!(percentile(&w, 50.0), Some(35.0));
    }

    #[test]
    fn median_of_odd_even_and_no_values() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn ten_beyond_rule() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(beyond(30_000, 99.0), 300);
        assert_eq!(beyond(0, 99.0), 0);
        assert!(beyond(1000, 99.0) >= MIN_BEYOND && beyond(999, 99.0) < MIN_BEYOND);
    }

    #[test]
    fn summaries_convert_the_unit() {
        let ns: Vec<u64> = (1..=200).map(|x| x * 1000).collect();
        let s = summarize_ns(&ns, 1e3);
        assert_eq!((s.n, s.p50, s.p99, s.max), (200, 100.0, 198.0, 200.0));
    }
}
