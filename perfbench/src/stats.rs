//! Small order-statistics helpers shared by the workloads.

use c3_metrics::LatencySummary;

/// Median of `values` (mean of the middle pair for even lengths).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Interquartile mean: the mean of `values` after dropping the lowest
/// and highest quarter. As robust to a few wild values as the median,
/// and steadier from run to run, because it averages the middle half.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let cut = v.len() / 4;
    let middle = &v[cut..v.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Estimated share of the samples behind `s` that exceed `limit_ns`.
///
/// A report carries exact order statistics (p50, p95, p99, p99.9, max),
/// not the samples, so the share is interpolated on the tail function
/// between the two order statistics that bracket the limit, linearly in
/// log(share). Above the maximum the share is exactly 0; below the
/// median it is interpolated between 1 (at latency 0) and 0.5.
pub fn share_over(s: &LatencySummary, limit_ns: u64) -> f64 {
    if s.count == 0 || limit_ns >= s.max_ns {
        return 0.0;
    }
    // (latency, share of samples above it), latency ascending.
    let points = [
        (0.0, 1.0),
        (s.p50_ns as f64, 0.5),
        (s.p95_ns as f64, 0.05),
        (s.p99_ns as f64, 0.01),
        (s.p999_ns as f64, 0.001),
        (s.max_ns as f64, 1.0 / s.count as f64),
    ];
    let x = limit_ns as f64;
    for pair in points.windows(2) {
        let ((x0, y0), (x1, y1)) = (pair[0], pair[1]);
        if x < x1 {
            if x1 <= x0 {
                return y1;
            }
            let t = ((x - x0) / (x1 - x0)).clamp(0.0, 1.0);
            return (y0.ln() + t * (y1.ln() - y0.ln())).exp();
        }
    }
    1.0 / s.count as f64
}

/// One rung of a rate ladder: the rate achieved and
/// whether the rung met the latency limit with a bounded backlog.
#[derive(Clone, Copy, Debug)]
pub struct Rung {
    /// Completed ops per second over the rung.
    pub achieved: f64,
    /// The rung's read p99, in the limit's unit.
    pub p99: f64,
    /// p99 within the limit, backlog bounded, nothing failed.
    pub meets: bool,
}

/// Highest rate on a ladder that meets `limit`, interpolated between the
/// highest passing rung and the next (failing) one where the p99 crosses
/// the limit, so the figure moves continuously instead of jumping a
/// whole rung. When the top rung passes, its achieved rate is the
/// answer; when none passes, the crossing is interpolated from the
/// origin to the first rung.
pub fn ladder_rate(rungs: &[Rung], limit: f64) -> f64 {
    assert!(!rungs.is_empty(), "empty ladder");
    let top_pass = rungs.iter().rposition(|r| r.meets);
    let (lo_rate, lo_p99, hi) = match top_pass {
        Some(k) if k + 1 == rungs.len() => return rungs[k].achieved,
        Some(k) => (rungs[k].achieved, rungs[k].p99, rungs[k + 1]),
        None => (0.0, 0.0, rungs[0]),
    };
    if hi.p99 <= limit || hi.p99 <= lo_p99 {
        // The next rung failed on backlog, not latency: there is no
        // crossing to interpolate. The passing rung's rate stands, or,
        // with none passing, what the first rung managed to complete.
        return if top_pass.is_some() {
            lo_rate
        } else {
            hi.achieved
        };
    }
    let t = ((limit - lo_p99) / (hi.p99 - lo_p99)).clamp(0.0, 1.0);
    lo_rate + t * (hi.achieved - lo_rate)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(p50: u64, p95: u64, p99: u64, p999: u64, max: u64) -> LatencySummary {
        LatencySummary {
            count: 10_000,
            mean_ns: p50 as f64,
            p50_ns: p50,
            p95_ns: p95,
            p99_ns: p99,
            p999_ns: p999,
            max_ns: max,
        }
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        assert_eq!(
            interquartile_mean(&[100.0, 1.0, 2.0, 3.0, 4.0, -50.0, 5.0, 6.0]),
            3.5
        );
        assert_eq!(interquartile_mean(&[7.0]), 7.0);
        assert_eq!(interquartile_mean(&[1.0, 2.0, 9.0]), 4.0);
    }

    #[test]
    fn share_over_hits_the_order_statistics() {
        let s = summary(1_000, 5_000, 10_000, 20_000, 40_000);
        assert!((share_over(&s, 10_000) - 0.01).abs() < 1e-12);
        assert!((share_over(&s, 5_000) - 0.05).abs() < 1e-12);
        assert_eq!(share_over(&s, 40_000), 0.0);
        let mid = share_over(&s, 7_500);
        assert!(mid < 0.05 && mid > 0.01, "{mid}");
        assert!(share_over(&s, 500) > 0.5);
    }

    #[test]
    fn ladder_interpolates_the_crossing() {
        let rung = |achieved: f64, p99: f64, meets: bool| Rung {
            achieved,
            p99,
            meets,
        };
        let ladder = [rung(4.0, 4.0, true), rung(8.0, 16.0, false)];
        assert!((ladder_rate(&ladder, 10.0) - 6.0).abs() < 1e-12);
        let all = [rung(4.0, 4.0, true), rung(8.0, 8.0, true)];
        assert_eq!(ladder_rate(&all, 10.0), 8.0);
        let none = [rung(4.0, 20.0, false), rung(8.0, 40.0, false)];
        assert!((ladder_rate(&none, 10.0) - 2.0).abs() < 1e-12);
        let backlog = [rung(4.0, 4.0, true), rung(8.0, 9.0, false)];
        assert_eq!(ladder_rate(&backlog, 10.0), 4.0);
    }
}
