//! Order statistics for the report: medians, quartiles and the tail
//! percentile rule ("the highest percentile with at least ten samples
//! beyond it").

/// Samples a tail percentile must leave beyond itself to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The percentiles a tail is chosen from, highest first.
const TAIL_LADDER: [f64; 8] = [99.99, 99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0];

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let s = sorted(xs);
    let mid = s.len() / 2;
    Some(if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    })
}

/// Median, or 0 for an empty slice (used for counters of layers a
/// workload never reaches).
pub fn median_or_zero(xs: &[f64]) -> f64 {
    median(xs).unwrap_or(0.0)
}

/// The `p`-th percentile of `xs` by nearest rank: the smallest sample with
/// at least `p` % of the samples at or below it; 0 for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let s = sorted(xs);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s.get(rank.clamp(1, s.len().max(1)) - 1)
        .copied()
        .unwrap_or(0.0)
}

/// The three quartile cut points of `xs`, computed like Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so the
/// benchmark's own spread check matches the one applied to its output.
/// `None` for fewer than two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(xs);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let m = n as f64 + 1.0;
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let pos = (i + 1) as f64 * m / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        *slot = s[j - 1] + (s[j] - s[j - 1]) * delta;
    }
    Some(out)
}

/// Inter-quartile distance as a share of the median — the spread figure
/// the benchmark's bounds are judged by.
pub fn relative_spread(xs: &[f64]) -> Option<f64> {
    let q = quartiles(xs)?;
    let med = median(xs)?;
    (med != 0.0).then(|| (q[2] - q[0]) / med.abs())
}

/// A tail percentile with the evidence behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// Which percentile (e.g. 99.0).
    pub percentile: f64,
    /// Its value (nearest-rank).
    pub value: f64,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
}

/// The highest percentile of the ladder that leaves at least
/// [`TAIL_MIN_BEYOND`] samples beyond its nearest rank; `None` when the
/// sample is too small for any of them.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let s = sorted(xs);
    let n = s.len();
    TAIL_LADDER.iter().find_map(|&p| {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        if rank == 0 || rank > n {
            return None;
        }
        let beyond = n - rank;
        (beyond >= TAIL_MIN_BEYOND).then(|| Tail {
            percentile: p,
            value: s[rank - 1],
            beyond,
            samples: n,
        })
    })
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(median_or_zero(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 10.0), 10.0);
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        // Eight samples: rank ceil(0.8) = 1, the smallest.
        let xs = [8.0, 3.0, 5.0, 1.0, 7.0, 2.0, 6.0, 4.0];
        assert_eq!(percentile(&xs, 10.0), 1.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&[], 10.0), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        let spread = relative_spread(&xs).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 39 samples: p75 has rank 30 and only 9 beyond — nothing qualifies.
        let xs: Vec<f64> = (1..=39).map(f64::from).collect();
        assert_eq!(tail(&xs), None);
        // 40 samples: p75 → rank 30, exactly 10 beyond.
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(
            (t.percentile, t.value, t.beyond, t.samples),
            (75.0, 30.0, 10, 40)
        );
        // 100 samples: p90 → rank 90 with 10 beyond; p95 would leave 5.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 90.0, 10));
        // 1000 samples: p99 → rank 990, 10 beyond.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 990.0, 10));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn tail_is_order_independent() {
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        xs.reverse();
        assert_eq!(tail(&xs).unwrap().value, 90.0);
    }
}
