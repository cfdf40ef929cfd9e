//! Order statistics for the benchmark's reports.
//!
//! Every timing is reported as a median plus a *tail*: the highest whole
//! percentile (at most p99) that still has at least [`TAIL_BEYOND`]
//! samples strictly beyond it, so a tail never rests on a handful of
//! outliers and the report can say which percentile it is.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample with at least `p`% of the samples at or below it.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank_index(sorted.len(), p)])
}

fn rank_index(n: usize, p: f64) -> usize {
    // Multiply before dividing so whole percentiles land on exact ranks.
    let rank = (p * n as f64 / 100.0).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// The highest whole percentile in `50..=99` whose nearest-rank sample has
/// at least [`TAIL_BEYOND`] samples strictly beyond it, with its value.
/// `None` when even the median has fewer than that beyond it.
pub fn tail(sorted: &[f64]) -> Option<(u32, f64)> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    (50..=99u32)
        .rev()
        .map(|p| (p, rank_index(n, p as f64)))
        .find(|&(_, idx)| n > idx && n - 1 - idx >= TAIL_BEYOND)
        .map(|(p, idx)| (p, sorted[idx]))
}

/// Sorts a sample vector in place (NaN-free input) and returns it.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Median of unsorted samples (nearest rank), `0.0` when empty.
pub fn median(v: &[f64]) -> f64 {
    nearest_rank(&sorted(v.to_vec()), 50.0).unwrap_or(0.0)
}

/// Median of per-slice medians: the samples' time span (`at`, seconds)
/// is cut into `slices` equal slices, each non-empty slice contributes its
/// median, and the median of those is returned (`0.0` when empty). A few
/// seconds of outside interference move one slice, not the result.
pub fn sliced_median(values: &[f64], at: &[f64], slices: usize) -> f64 {
    assert_eq!(values.len(), at.len(), "one time per sample");
    let (lo, hi) = at
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &t| {
            (lo.min(t), hi.max(t))
        });
    let width = (hi - lo) / slices as f64;
    let mut buckets = vec![Vec::new(); slices];
    for (&v, &t) in values.iter().zip(at) {
        let i = if width > 0.0 {
            ((t - lo) / width) as usize
        } else {
            0
        };
        buckets[i.min(slices - 1)].push(v);
    }
    let medians: Vec<f64> = buckets
        .iter()
        .filter(|b| !b.is_empty())
        .map(|b| median(b))
        .collect();
    median(&medians)
}

/// A latency distribution summarised the way the report prints it.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Tail value and its percentile (see [`tail`]).
    pub tail: Option<(u32, f64)>,
}

impl Summary {
    /// Summarises unsorted samples.
    pub fn of(samples: &[f64]) -> Summary {
        let s = sorted(samples.to_vec());
        Summary {
            n: s.len(),
            p50: nearest_rank(&s, 50.0).unwrap_or(0.0),
            tail: tail(&s),
        }
    }

    /// The tail value, `0.0` when the sample supports none.
    pub fn tail_value(&self) -> f64 {
        self.tail.map_or(0.0, |(_, v)| v)
    }

    /// The tail percentile, `0` when the sample supports none.
    pub fn tail_pct(&self) -> u32 {
        self.tail.map_or(0, |(p, _)| p)
    }

    /// `n=… p50=… pXX=…` for the report.
    pub fn describe(&self, unit: &str) -> String {
        match self.tail {
            Some((p, v)) => format!("n={} p50={:.1}{unit} p{p}={:.1}{unit}", self.n, self.p50, v),
            None => format!(
                "n={} p50={:.1}{unit} (too few samples for a tail)",
                self.n, self.p50
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|x| x as f64).collect()
    }

    #[test]
    fn nearest_rank_matches_the_definition() {
        let v = ramp(100);
        assert_eq!(nearest_rank(&v, 50.0), Some(50.0));
        assert_eq!(nearest_rank(&v, 99.0), Some(99.0));
        assert_eq!(nearest_rank(&v, 100.0), Some(100.0));
        assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
        assert_eq!(nearest_rank(&ramp(3), 50.0), Some(2.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // 2000 samples: p99 is index 1979 with 20 beyond, so p99 is allowed.
        assert_eq!(tail(&ramp(2000)), Some((99, 1980.0)));
        // 1000 samples: p99 has exactly 10 beyond (index 989).
        assert_eq!(tail(&ramp(1000)), Some((99, 990.0)));
        // 999 samples: p99 would leave 9 beyond, so the tail drops to p98.
        let (p, v) = tail(&ramp(999)).unwrap();
        assert_eq!(p, 98);
        let beyond = 999 - v as usize;
        assert!(beyond >= TAIL_BEYOND, "{beyond} beyond p{p}");
        // 450 samples (a stalled batch workload): p97 with 13 beyond.
        let (p, v) = tail(&ramp(450)).unwrap();
        assert_eq!((p, v), (97, 437.0));
        // 30 rounds: 10 beyond only down at p66.
        assert_eq!(tail(&ramp(30)), Some((66, 20.0)));
        // Too few samples for any tail at or above the median.
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn sliced_median_resists_a_burst_the_pooled_median_does_not() {
        // Five 1-second slices of 100 samples each. The last two slices
        // are a burst at 500 us; the first three run at 50 us with 40 %
        // of their samples disturbed to 500 us.
        let at: Vec<f64> = (0..500).map(|i| i as f64 / 100.0).collect();
        let v: Vec<f64> = (0..500)
            .map(|i| if i >= 300 || i % 10 < 4 { 500.0 } else { 50.0 })
            .collect();
        assert_eq!(median(&v), 500.0, "64 % of all samples are disturbed");
        assert_eq!(sliced_median(&v, &at, 5), 50.0, "3 of 5 slices are not");
        assert_eq!(sliced_median(&[], &[], 5), 0.0);
        assert_eq!(sliced_median(&[7.0, 9.0, 8.0], &[1.0, 1.0, 1.0], 5), 8.0);
    }

    #[test]
    fn summary_reports_median_and_tail() {
        let mut v = ramp(1000);
        v.reverse();
        let s = Summary::of(&v);
        assert_eq!(
            (s.n, s.p50, s.tail_pct(), s.tail_value()),
            (1000, 500.0, 99, 990.0)
        );
        assert_eq!(Summary::of(&ramp(5)).tail_value(), 0.0);
    }
}
