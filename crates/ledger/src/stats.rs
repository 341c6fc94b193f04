//! Order statistics for latency samples and for run-to-run spreads.

/// Sorts a sample in place (total order; the ledger never records NaN).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// The `q`-quantile (`0.0..=1.0`) of an ascending sample by linear
/// interpolation between closest ranks; `0.0` for an empty sample.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of an unsorted sample (sorts a copy).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    quantile_sorted(&v, 0.5)
}

/// Median of `u32` nanosecond samples, in the same unit. Sorts in place.
pub fn median_ns(samples: &mut [u32]) -> f64 {
    quantile_ns(samples, 0.5)
}

/// `q`-quantile of `u32` nanosecond samples. Sorts in place.
pub fn quantile_ns(samples: &mut [u32], q: f64) -> f64 {
    samples.sort_unstable();
    match samples.len() {
        0 => 0.0,
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            f64::from(samples[lo])
                + (f64::from(samples[hi]) - f64::from(samples[lo])) * (pos - lo as f64)
        }
    }
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default *exclusive* method)
/// computes them — the benchmark driver judges spreads with that
/// function, so `ledger noise` must agree with it digit for digit.
/// Needs at least two values.
pub fn quartiles_exclusive(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut data = values.to_vec();
    sort(&mut data);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// `(Q3 − Q1) / median` by the driver's rule; `0.0` when the median is
/// zero or there are fewer than two values.
pub fn iqr_spread(values: &[f64]) -> f64 {
    match quartiles_exclusive(values) {
        Some([q1, _, q3]) => {
            let med = median(values);
            if med == 0.0 {
                0.0
            } else {
                (q3 - q1) / med.abs()
            }
        }
        None => 0.0,
    }
}

/// Mean of a sample; `0.0` when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_on_known_vectors() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 3.0);
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 1.0), 5.0);
        assert_eq!(quantile_sorted(&v, 0.25), 2.0);
        assert_eq!(quantile_sorted(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(median(&[9.0, 1.0, 5.0, 3.0]), 4.0);
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
        let mut ns = vec![40u32, 10, 30, 20];
        assert_eq!(median_ns(&mut ns), 25.0);
        assert_eq!(quantile_ns(&mut ns, 1.0), 40.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_exclusive(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles_exclusive(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some([1.5, 4.0, 12.0])
        );
        // statistics.quantiles([3, 7], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles_exclusive(&[3.0, 7.0]), Some([2.0, 5.0, 8.0]));
        assert_eq!(quartiles_exclusive(&[1.0]), None);
        assert!((iqr_spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_spread(&[5.0, 5.0, 5.0]), 0.0);
    }
}
