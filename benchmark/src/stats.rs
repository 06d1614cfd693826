//! Exact order statistics over a run's own samples.
//!
//! `crates/obs` histograms carry a ±2× bucket error (ROADMAP item 4), so
//! every percentile the harness reports is selected from the sorted
//! samples themselves, by nearest rank.

/// Samples below which a timing's run counts as invalid (outside `--smoke`).
pub const MIN_SAMPLES: usize = 1000;

/// Order statistics of one timing over one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub p50: f64,
    /// The tail percentile: the 99th when at least ten samples lie beyond
    /// it, else the highest percentile that still has ten beyond it.
    pub tail: f64,
    /// The quantile `tail` was actually read at (0.99 from 1 000 samples up).
    pub tail_q: f64,
    pub max: f64,
}

/// 1-based nearest-rank position of the tail percentile among `n` sorted
/// samples: the 99th percentile from 1 000 samples up (integer ceiling, so
/// exactly ten lie beyond it at 1 000), else the highest rank that still
/// leaves ten samples beyond it, else — too few for any tail — the median.
pub fn tail_rank(n: usize) -> usize {
    if n >= MIN_SAMPLES {
        (99 * n).div_ceil(100)
    } else if n >= 22 {
        n - 10
    } else {
        median_rank(n)
    }
}

fn median_rank(n: usize) -> usize {
    n.div_ceil(2).max(1)
}

/// Sorts `samples` in place and reads min / median / tail / max off them
/// by nearest rank.
pub fn summarize(samples: &mut [f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    let rank = tail_rank(n);
    Some(Summary {
        n,
        min: samples[0],
        p50: samples[median_rank(n) - 1],
        tail: samples[rank - 1],
        tail_q: if n >= MIN_SAMPLES { 0.99 } else { rank as f64 / n as f64 },
        max: samples[n - 1],
    })
}

/// The median of a handful of per-run values (mean of the middle two for
/// an even count) — the aggregation across `--runs` and across set-ups.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Relative spread of a set of runs: (max − min) / median.
pub fn rel_spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (hi - lo) / m.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1 000 samples: nearest-rank p99 sits at index 989, ten lie beyond.
        let mut s: Vec<f64> = (0..1000).map(f64::from).collect();
        let sum = summarize(&mut s).unwrap();
        assert_eq!(sum.tail_q, 0.99);
        assert_eq!(sum.tail, 989.0);
        assert_eq!(s.iter().filter(|v| **v > sum.tail).count(), 10);
    }

    #[test]
    fn fewer_samples_fall_back_to_a_lower_percentile() {
        for n in [22usize, 50, 200, 999] {
            let mut s: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let sum = summarize(&mut s).unwrap();
            assert!(sum.tail_q < 0.99, "n={n} must not claim a p99");
            let beyond = s.iter().filter(|v| **v > sum.tail).count();
            assert!(beyond >= 10, "n={n}: only {beyond} samples beyond the tail");
        }
        // Too few for any tail: the tail is the median.
        let mut s: Vec<f64> = (0..12).map(f64::from).collect();
        let sum = summarize(&mut s).unwrap();
        assert_eq!(sum.tail_q, 0.5);
        assert_eq!(sum.tail, sum.p50);
        // From 1 000 up the tail is always the 99th, ten or more beyond it.
        for n in [1000usize, 1001, 1099, 4000, 12345] {
            assert!(n - tail_rank(n) >= 10, "n={n}");
        }
    }

    #[test]
    fn ordering_invariant_holds_on_unsorted_and_constant_input() {
        let mut s = vec![9.0, 1.0, 7.5, 3.0, 3.0, 100.0, 0.5];
        let sum = summarize(&mut s).unwrap();
        assert!(sum.min <= sum.p50 && sum.p50 <= sum.tail && sum.tail <= sum.max);
        let mut c = vec![4.0; 2000];
        let sum = summarize(&mut c).unwrap();
        assert_eq!((sum.min, sum.p50, sum.tail, sum.max), (4.0, 4.0, 4.0, 4.0));
        assert!(summarize(&mut []).is_none());
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(rel_spread(&[10.0]), 0.0);
        assert!((rel_spread(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
    }
}
