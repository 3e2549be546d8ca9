//! Median, quartile spread and bound arithmetic — the rules every
//! comparison in this benchmark is judged by.

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// `(q1, median, q3)` as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method), so a spread computed here equals
/// the one the acceptance driver computes. A single value is its own
/// three quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    if len == 1 {
        return (data[0], data[0], data[0]);
    }
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Distance between the first and third quartile as a share of the
/// median (0 when the median is 0).
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// Share of `base` by which `new` is worse (negative: better).
    pub fn worsening(self, base: f64, new: f64) -> f64 {
        if base == 0.0 {
            return 0.0;
        }
        match self {
            Better::Lower => (new - base) / base.abs(),
            Better::Higher => (base - new) / base.abs(),
        }
    }

    fn beats(self, a: f64, b: f64) -> bool {
        match self {
            Better::Lower => a < b,
            Better::Higher => a > b,
        }
    }
}

/// Outcome of comparing one (metric, workload) pair between two sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    /// The run-to-run spread of a side is wider than the bound, and the
    /// two sides' samples overlap: the pair cannot be called either way.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge set `b` against base set `a` under a relative `bound`. Returns
/// the verdict and the worsening of the medians (share of `a`'s median).
///
/// A spread wider than the bound makes the pair unresolved unless every
/// sample of one side beats every sample of the other.
pub fn judge(better: Better, a: &[f64], b: &[f64], bound: f64) -> (Verdict, f64) {
    let change = better.worsening(median(a), median(b));
    let all = |x: &[f64], y: &[f64]| x.iter().all(|&p| y.iter().all(|&q| better.beats(p, q)));
    let verdict = if spread(a) > bound || spread(b) > bound {
        if all(b, a) {
            Verdict::Better
        } else if all(a, b) && change > bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if change > bound {
        Verdict::Worse
    } else if change < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    };
    (verdict, change)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[2.0]), 0.0);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn worsening_is_oriented_by_direction() {
        assert!((Better::Lower.worsening(10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((Better::Lower.worsening(10.0, 9.0) + 0.1).abs() < 1e-12);
        assert!((Better::Higher.worsening(10.0, 9.0) - 0.1).abs() < 1e-12);
        assert_eq!(Better::Lower.worsening(0.0, 3.0), 0.0);
    }

    #[test]
    fn judge_applies_the_bound() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.00];
        let within = [1.04, 1.05, 1.03, 1.04, 1.04];
        let worse = [1.20, 1.21, 1.19, 1.20, 1.20];
        let better = [0.80, 0.81, 0.79, 0.80, 0.80];
        assert_eq!(judge(Better::Lower, &a, &within, 0.08).0, Verdict::Within);
        assert_eq!(judge(Better::Lower, &a, &worse, 0.08).0, Verdict::Worse);
        assert_eq!(judge(Better::Lower, &a, &better, 0.08).0, Verdict::Better);
        // The same numbers read the other way for a higher-is-better metric.
        assert_eq!(judge(Better::Higher, &a, &worse, 0.08).0, Verdict::Better);
        assert_eq!(judge(Better::Higher, &a, &better, 0.08).0, Verdict::Worse);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_disjoint() {
        let noisy = [1.0, 1.5, 0.7, 1.2, 0.9];
        let overlapping = [1.1, 1.6, 0.8, 1.3, 1.0];
        assert_eq!(
            judge(Better::Lower, &noisy, &overlapping, 0.08).0,
            Verdict::Unresolved
        );
        let all_better = [0.5, 0.6, 0.4, 0.55, 0.45];
        assert_eq!(
            judge(Better::Lower, &noisy, &all_better, 0.08).0,
            Verdict::Better
        );
        let all_worse = [2.0, 2.5, 1.7, 2.2, 1.9];
        assert_eq!(
            judge(Better::Lower, &noisy, &all_worse, 0.08).0,
            Verdict::Worse
        );
    }
}
