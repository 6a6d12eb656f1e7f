//! Order statistics used by the protocol: medians over slices,
//! percentiles over per-op latencies, and the quartile spread the
//! acceptance rule is written in.

/// Median of `values` (mean of the two middle values for even counts);
/// 0 for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `pct`-th percentile (nearest rank) of per-op latencies in
/// nanoseconds; reorders `ns`. 0 for an empty slice.
#[must_use]
pub fn percentile_ns(ns: &mut [u32], pct: f64) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * ns.len() as f64).ceil() as usize;
    let idx = rank.clamp(1, ns.len()) - 1;
    let (_, v, _) = ns.select_nth_unstable(idx);
    f64::from(*v)
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default *exclusive* method)
/// gives them — the acceptance rule is stated in those terms, so
/// `self-check` must not use a different interpolation.
///
/// # Panics
/// Panics on fewer than two values, like the Python function.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median — the "spread" of the
/// acceptance rule.
#[must_use]
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(percentile_ns(&mut v, 50.0), 50.0);
        assert_eq!(percentile_ns(&mut v, 99.0), 99.0);
        assert_eq!(percentile_ns(&mut v, 100.0), 100.0);
        assert_eq!(percentile_ns(&mut [], 50.0), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
