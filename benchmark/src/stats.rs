//! Medians and quartiles, computed the way Python's `statistics` module
//! does (`median`, and `quantiles(n=4)` with its default exclusive
//! method), so the numbers here match any script that re-derives them
//! from the result files.

/// The median of `xs`, or `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The first quartile, median and third quartile of `xs`, or `None` when
/// empty. A single sample is its own quartiles.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        1 => Some([s[0]; 3]),
        _ => {
            let m = n + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                // i*m - 4j may be negative after clamping: Python then
                // extrapolates from the two end samples, and so do we.
                let delta = (i * m) as f64 - (4 * j) as f64;
                (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
            };
            Some([q(1), q(2), q(3)])
        }
    }
}

/// The interquartile distance as a share of the median (0 for a zero
/// median, where a share means nothing).
pub fn relative_iqr(xs: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(xs)?;
    Some(if q2 == 0.0 { 0.0 } else { (q3 - q1) / q2.abs() })
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
    fn median_of_odd_even_and_single_inputs() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[4.0]), Some(4.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    // Expected values from Python: statistics.quantiles(data, n=4).
    #[test]
    fn quartiles_match_python_exclusive_method() {
        assert_eq!(quartiles(&[]), None);
        assert_eq!(quartiles(&[7.0]), Some([7.0, 7.0, 7.0]));
        // quantiles([1, 2]) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // quantiles([1, 2, 3, 4, 5]) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some([1.5, 3.0, 4.5]));
        // quantiles(range(1, 11)) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // quantiles([1, 2, 3, 4]) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), Some([1.25, 2.5, 3.75]));
    }

    #[test]
    fn relative_iqr_is_a_share_of_the_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(relative_iqr(&ten), Some((8.25 - 2.75) / 5.5));
        assert_eq!(relative_iqr(&[0.0, 0.0]), Some(0.0));
    }
}
