//! Central moments of per-set count distributions.
//!
//! The paper (Section IV.D) converts per-set access/hit/miss counts into a
//! distribution and reports its **skewness** (lack of symmetry; positive
//! when a few sets have far more misses than the rest) and **kurtosis**
//! (peakedness; high when misses concentrate into sharp peaks with long
//! tails). More uniform behaviour ⇒ lower skewness and kurtosis.

/// First four standardized moments of a sample.
///
/// Conventions:
/// * `variance` is the population variance (divide by `n`), matching how
///   hardware-event histograms are summarized;
/// * `skewness` is `m3 / m2^(3/2)` (Fisher–Pearson `g1`);
/// * `kurtosis` is the **excess** kurtosis `m4 / m2^2 - 3`, so a normal
///   distribution scores 0 and flatter-than-normal distributions score
///   negative — the paper's "zero kurtosis for a uniform distribution" is
///   this convention up to the constant offset, which cancels in its
///   *percent-change* figures.
/// * For a zero-variance sample (perfectly uniform counts) skewness and
///   kurtosis are defined as `0.0`, the ideal-uniformity value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Moments {
    /// Sample size.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population variance (`m2`).
    pub variance: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Fisher–Pearson skewness `g1`.
    pub skewness: f64,
    /// Excess kurtosis `g2`.
    pub kurtosis: f64,
}

impl Moments {
    /// Computes moments of a slice of `f64` samples.
    ///
    /// Returns the all-zero `Moments` for an empty slice.
    pub fn from_f64(xs: &[f64]) -> Self {
        let n = xs.len();
        if n == 0 {
            return Moments {
                n: 0,
                mean: 0.0,
                variance: 0.0,
                std_dev: 0.0,
                skewness: 0.0,
                kurtosis: 0.0,
            };
        }
        let nf = n as f64;
        let mean = xs.iter().sum::<f64>() / nf;
        // Two-pass computation for numerical stability (guides: prefer the
        // numerically robust formulation over the single-pass sum-of-squares
        // trick, which catastrophically cancels for large counts).
        let mut m2 = 0.0;
        let mut m3 = 0.0;
        let mut m4 = 0.0;
        for &x in xs {
            let d = x - mean;
            let d2 = d * d;
            m2 += d2;
            m3 += d2 * d;
            m4 += d2 * d2;
        }
        m2 /= nf;
        m3 /= nf;
        m4 /= nf;
        let std_dev = m2.sqrt();
        let (skewness, kurtosis) = if m2 > 0.0 {
            (m3 / m2.powf(1.5), m4 / (m2 * m2) - 3.0)
        } else {
            (0.0, 0.0)
        };
        Moments {
            n,
            mean,
            variance: m2,
            std_dev,
            skewness,
            kurtosis,
        }
    }

    /// Computes moments of integer counts (the per-set counters).
    pub fn from_counts(counts: &[u64]) -> Self {
        let xs: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
        Self::from_f64(&xs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9 * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn empty_sample_is_all_zero() {
        let m = Moments::from_f64(&[]);
        assert_eq!(m.n, 0);
        assert_eq!(m.mean, 0.0);
        assert_eq!(m.kurtosis, 0.0);
    }

    #[test]
    fn constant_sample_has_zero_spread() {
        let m = Moments::from_counts(&[7, 7, 7, 7]);
        assert_eq!(m.mean, 7.0);
        assert_eq!(m.variance, 0.0);
        assert_eq!(m.skewness, 0.0);
        assert_eq!(m.kurtosis, 0.0);
    }

    #[test]
    fn known_small_sample() {
        // xs = [2, 4, 4, 4, 5, 5, 7, 9]: classic example with mean 5, pop
        // std 2.
        let m = Moments::from_counts(&[2, 4, 4, 4, 5, 5, 7, 9]);
        assert!(close(m.mean, 5.0));
        assert!(close(m.variance, 4.0));
        assert!(close(m.std_dev, 2.0));
        // m3 = E[(x-5)^3] = (-27 -1 -1 -1 +0 +0 +8 +64)/8 = 42/8 = 5.25
        assert!(close(m.skewness, 5.25 / 8.0));
        // m4 = (81 +1 +1 +1 +0 +0 +16 +256)/8 = 356/8 = 44.5 ; 44.5/16 - 3
        assert!(close(m.kurtosis, 44.5 / 16.0 - 3.0));
    }

    #[test]
    fn symmetric_sample_has_zero_skew() {
        let m = Moments::from_f64(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!(close(m.skewness, 0.0));
        // Discrete uniform on 5 points: excess kurtosis = -1.3
        assert!(close(m.kurtosis, -1.3));
    }

    #[test]
    fn right_heavy_tail_gives_positive_skew_and_high_kurtosis() {
        // 1023 cold sets, one extremely hot set — the paper's motivating
        // pattern (Fig. 1).
        let mut counts = vec![1u64; 1023];
        counts.push(1_000_000);
        let m = Moments::from_counts(&counts);
        assert!(m.skewness > 10.0, "skewness {}", m.skewness);
        assert!(m.kurtosis > 100.0, "kurtosis {}", m.kurtosis);
    }

    #[test]
    fn spreading_a_spike_lowers_kurtosis() {
        let spike: Vec<u64> = {
            let mut v = vec![0u64; 63];
            v.push(6400);
            v
        };
        let spread = vec![100u64; 64];
        let k_spike = Moments::from_counts(&spike).kurtosis;
        let k_spread = Moments::from_counts(&spread).kurtosis;
        assert!(k_spike > k_spread);
    }

    proptest! {
        #[test]
        fn mean_within_range(xs in proptest::collection::vec(0u64..1_000_000, 1..512)) {
            let m = Moments::from_counts(&xs);
            let lo = *xs.iter().min().unwrap() as f64;
            let hi = *xs.iter().max().unwrap() as f64;
            prop_assert!(m.mean >= lo - 1e-9 && m.mean <= hi + 1e-9);
        }

        #[test]
        fn variance_nonnegative_and_std_consistent(
            xs in proptest::collection::vec(0u64..1_000_000, 1..512)
        ) {
            let m = Moments::from_counts(&xs);
            prop_assert!(m.variance >= 0.0);
            prop_assert!((m.std_dev * m.std_dev - m.variance).abs() < 1e-6 * (1.0 + m.variance));
        }

        #[test]
        fn shift_invariance_of_shape(
            xs in proptest::collection::vec(0u64..100_000, 2..256),
            shift in 1u64..100_000
        ) {
            // Skewness and kurtosis are location-invariant.
            let shifted: Vec<u64> = xs.iter().map(|&x| x + shift).collect();
            let a = Moments::from_counts(&xs);
            let b = Moments::from_counts(&shifted);
            prop_assert!((a.skewness - b.skewness).abs() < 1e-6,
                "skew {} vs {}", a.skewness, b.skewness);
            prop_assert!((a.kurtosis - b.kurtosis).abs() < 1e-5,
                "kurt {} vs {}", a.kurtosis, b.kurtosis);
        }

        #[test]
        fn scale_invariance_of_shape(
            xs in proptest::collection::vec(0u64..10_000, 2..256),
            scale in 2u64..50
        ) {
            let scaled: Vec<u64> = xs.iter().map(|&x| x * scale).collect();
            let a = Moments::from_counts(&xs);
            let b = Moments::from_counts(&scaled);
            prop_assert!((a.skewness - b.skewness).abs() < 1e-6);
            prop_assert!((a.kurtosis - b.kurtosis).abs() < 1e-5);
        }

        #[test]
        fn kurtosis_lower_bound(xs in proptest::collection::vec(0u64..1_000_000, 2..512)) {
            // Excess kurtosis >= skewness^2 - 2 (Pearson inequality).
            let m = Moments::from_counts(&xs);
            prop_assert!(m.kurtosis >= m.skewness * m.skewness - 2.0 - 1e-6);
        }
    }
}
