//! Order statistics shared by every workload.
//!
//! Percentiles use the server's own rank rule, so client and server
//! p50/p99 figures compare directly.

pub use oa_core::serve::percentile;

/// Ascending copy of `v` (total order, so NaN-free input sorts stably).
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median (mean of the two middle values for an even count).
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// Geometric mean of the positive values; `0.0` when there are none.
pub fn geomean(v: &[f64]) -> f64 {
    let pos: Vec<f64> = v.iter().copied().filter(|x| *x > 0.0).collect();
    if pos.is_empty() {
        return 0.0;
    }
    (pos.iter().map(|x| x.ln()).sum::<f64>() / pos.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
    }
}
