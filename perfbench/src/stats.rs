//! Order statistics for the benchmark's reports.
//!
//! Latency is reported as the median plus a tail percentile chosen by
//! the rank rule: the highest percentile of [`TAIL_LADDER`] that has at
//! least [`MIN_BEYOND`] samples strictly above its value. A tail the
//! sample cannot support is never reported; when no ladder entry
//! qualifies the tail falls back to the median.

/// Candidate tail percentiles, highest first. The ladder stops at p99
/// because that is the percentile the end-to-end metric is named after.
pub const TAIL_LADDER: [f64; 4] = [0.99, 0.95, 0.90, 0.75];

/// Samples that must lie strictly above a tail percentile's value.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN; callers measure before reporting.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending sample: the value at rank
/// `ceil(p·n)` (1-based).
fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// A latency summary under the rank rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarized.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile reported (0.5 when none qualifies).
    pub tail_p: f64,
    /// Its value.
    pub tail: f64,
    /// Samples strictly above `tail`.
    pub beyond: usize,
}

impl Summary {
    /// Summarizes `values` by the rank rule (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics on an empty slice or a NaN.
    pub fn of(values: &[f64]) -> Summary {
        let p50 = median(values);
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
        let above = |v: f64| sorted.len() - sorted.partition_point(|&x| x <= v);
        for p in TAIL_LADDER {
            let value = nearest_rank(&sorted, p);
            let beyond = above(value);
            if beyond >= MIN_BEYOND {
                return Summary {
                    count: sorted.len(),
                    p50,
                    tail_p: p,
                    tail: value,
                    beyond,
                };
            }
        }
        Summary {
            count: sorted.len(),
            p50,
            tail_p: 0.5,
            tail: p50,
            beyond: above(p50),
        }
    }

    /// `p99 = 1234.5 (n=5000, 50 beyond)`-style description.
    pub fn describe_tail(&self) -> String {
        format!(
            "p{} = {:.1} (n={}, {} beyond)",
            self.tail_p * 100.0,
            self.tail,
            self.count,
            self.beyond
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn thousand_distinct_samples_support_p99() {
        // Rank 990 holds 990; ranks 991..=1000 are the ten beyond it.
        let s = Summary::of(&ramp(1000));
        assert_eq!(s.tail_p, 0.99);
        assert_eq!(s.tail, 990.0);
        assert_eq!(s.beyond, 10);
        assert_eq!(s.count, 1000);
    }

    #[test]
    fn fewer_samples_step_down_the_ladder() {
        // 999 samples: p99 sits at rank 990 with only 9 beyond.
        assert_eq!(Summary::of(&ramp(999)).tail_p, 0.95);
        // 100 samples: p95 has 5 beyond, p90 has exactly 10.
        let s = Summary::of(&ramp(100));
        assert_eq!((s.tail_p, s.tail, s.beyond), (0.90, 90.0, 10));
        // 40 samples: p75 = rank 30 with 10 beyond.
        let s = Summary::of(&ramp(40));
        assert_eq!((s.tail_p, s.tail, s.beyond), (0.75, 30.0, 10));
    }

    #[test]
    fn small_samples_fall_back_to_the_median() {
        for n in [1, 2, 5, 19, 39] {
            let s = Summary::of(&ramp(n));
            assert_eq!(s.tail_p, 0.5, "n = {n}");
            assert_eq!(s.tail, s.p50, "n = {n}");
        }
    }

    #[test]
    fn ties_at_the_top_do_not_count_as_beyond() {
        // 1000 samples whose top 60 are tied: p99 and p95 both land on
        // the tie with nothing strictly above, so the rule steps down to
        // p90 (rank 900), which has the 100 larger samples beyond it.
        let mut v = ramp(1000);
        for x in v.iter_mut().skip(940) {
            *x = 5000.0;
        }
        let s = Summary::of(&v);
        assert_eq!((s.tail_p, s.tail, s.beyond), (0.90, 900.0, 100));
    }

    #[test]
    fn an_all_tied_sample_reports_its_value() {
        let s = Summary::of(&[42.0; 500]);
        assert_eq!((s.p50, s.tail_p, s.tail, s.beyond), (42.0, 0.5, 42.0, 0));
    }
}
