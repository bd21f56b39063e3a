//! Order statistics over latency samples.

/// The median (mean of the two middle values for an even count), or
/// `None` for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The tail percentiles the benchmark reports, in tenths of a percent,
/// highest first.
const TAILS_PERMILLE: [usize; 5] = [999, 990, 950, 900, 750];

/// The highest percentile in [`TAILS_PERMILLE`] that has at least ten
/// samples beyond it, as `(percentile, value)`; `None` with fewer than
/// 40 samples. The value is the nearest-rank sample.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    TAILS_PERMILLE.iter().find_map(|&p| {
        let rank = (p * n).div_ceil(1000);
        (rank >= 1 && n - rank >= 10).then(|| (p as f64 / 10.0, v[rank - 1]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99.0, 990.0)));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), Some((90.0, 90.0)));
        assert_eq!(tail(&v[..30]), None);
    }
}
