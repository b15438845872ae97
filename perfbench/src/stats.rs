//! Order statistics over timing samples.
//!
//! A tail percentile is only reported when at least ten samples lie
//! beyond it; with fewer, one slow outlier would decide the figure.

/// Samples at or beyond a percentile needed before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Linear-interpolated percentile `p` (0–100) of `values`.
///
/// Refuses (returns `Err`) when fewer than [`MIN_BEYOND`] samples lie
/// above the percentile, and for an empty sample or `p` outside 0–100.
pub fn percentile(values: &[f64], p: f64) -> Result<f64, String> {
    if values.is_empty() {
        return Err("no samples".into());
    }
    if !(0.0..=100.0).contains(&p) {
        return Err(format!("percentile {p} outside 0..=100"));
    }
    let n = values.len();
    let rank = p / 100.0 * (n - 1) as f64;
    let lo = rank.floor() as usize;
    // Samples ranked above the interpolation point.
    let beyond = n - 1 - lo;
    if p > 50.0 && beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} of {n} samples has {beyond} beyond it; need {MIN_BEYOND}"
        ));
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let hi = rank.ceil() as usize;
    Ok(v[lo] + (v[hi] - v[lo]) * (rank - lo as f64))
}

/// The higher of p99 and p90 with at least [`MIN_BEYOND`] samples beyond
/// it, as `(p, value)`; `None` for fewer than 91 samples.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    [99.0, 90.0]
        .into_iter()
        .find_map(|p| percentile(values, p).ok().map(|v| (p, v)))
}

/// Median of `values` (panics on an empty sample: every caller measures
/// at least one operation).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0).expect("median of a non-empty sample")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_interpolates_between_middle_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert!(percentile(&v, 90.0).is_ok());
        assert!(percentile(&v, 99.0).is_err());
        let v: Vec<f64> = (0..90).map(f64::from).collect();
        assert!(percentile(&v, 90.0).is_err());
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!(percentile(&v, 99.0).is_ok());
        let v: Vec<f64> = (0..900).map(f64::from).collect();
        assert!(percentile(&v, 99.0).is_err());
        assert_eq!(tail(&v).map(|(p, _)| p), Some(90.0));
        assert_eq!(tail(&v[..90]), None);
    }

    #[test]
    fn empty_and_out_of_range_requests_are_refused() {
        assert!(percentile(&[], 50.0).is_err());
        assert!(percentile(&[1.0], 101.0).is_err());
    }
}
