//! Binned histograms and ASCII rendering for per-set distributions.
//!
//! Used by the Figure-1 reproduction: the paper plots accesses-per-set for
//! all 1024 L1 sets; `Histogram::render_ascii` produces the terminal
//! equivalent, and `Histogram::downsample` produces CSV-ready series.

/// A fixed-bin histogram over per-set counts.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Inclusive lower edge of the first bin.
    pub min: u64,
    /// Exclusive upper edge of the last bin (min == max means a degenerate,
    /// single-valued distribution).
    pub max: u64,
    /// Number of samples per bin.
    pub bins: Vec<u64>,
}

impl Histogram {
    /// Builds a histogram of `counts` with `num_bins` equal-width bins.
    ///
    /// # Panics
    /// Panics if `num_bins == 0`.
    pub fn of_counts(counts: &[u64], num_bins: usize) -> Self {
        assert!(num_bins > 0, "histogram needs at least one bin");
        if counts.is_empty() {
            return Histogram {
                min: 0,
                max: 0,
                bins: vec![0; num_bins],
            };
        }
        let min = *counts.iter().min().unwrap();
        let max = *counts.iter().max().unwrap();
        let mut bins = vec![0u64; num_bins];
        if max == min {
            bins[0] = counts.len() as u64;
            return Histogram { min, max, bins };
        }
        let width = (max - min) as f64 / num_bins as f64;
        for &c in counts {
            let mut b = (((c - min) as f64) / width) as usize;
            if b >= num_bins {
                b = num_bins - 1;
            }
            bins[b] += 1;
        }
        Histogram { min, max, bins }
    }

    /// Total samples across all bins.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum()
    }

    /// Downsamples a raw per-set series into `points` (set-range, mean
    /// count) pairs — what a plot of 1024 sets compresses to in a paper
    /// figure.
    pub fn downsample(series: &[u64], points: usize) -> Vec<(usize, f64)> {
        if series.is_empty() || points == 0 {
            return Vec::new();
        }
        let chunk = series.len().div_ceil(points);
        series
            .chunks(chunk)
            .enumerate()
            .map(|(i, c)| {
                let mean = c.iter().sum::<u64>() as f64 / c.len() as f64;
                (i * chunk, mean)
            })
            .collect()
    }

    /// Renders the raw series as a columnar ASCII chart of `height` rows,
    /// one column per downsampled point (capped at `width`). Purely
    /// cosmetic; used by the `xp fig1` binary.
    pub fn render_ascii(series: &[u64], width: usize, height: usize) -> String {
        let pts = Self::downsample(series, width.max(1));
        if pts.is_empty() || height == 0 {
            return String::new();
        }
        let maxv = pts.iter().map(|p| p.1).fold(0.0f64, f64::max);
        let mut out = String::new();
        for row in (0..height).rev() {
            let threshold = if maxv == 0.0 {
                f64::INFINITY
            } else {
                maxv * (row as f64 + 0.5) / height as f64
            };
            for p in &pts {
                out.push(if p.1 >= threshold { '#' } else { ' ' });
            }
            out.push('\n');
        }
        out.push_str(&"-".repeat(pts.len()));
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_partitions_all_samples() {
        let counts = vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9];
        let h = Histogram::of_counts(&counts, 5);
        assert_eq!(h.total(), 10);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 9);
        assert_eq!(h.bins, vec![2, 2, 2, 2, 2]);
    }

    #[test]
    fn degenerate_distribution_lands_in_first_bin() {
        let h = Histogram::of_counts(&[5, 5, 5], 4);
        assert_eq!(h.bins, vec![3, 0, 0, 0]);
    }

    #[test]
    fn empty_input() {
        let h = Histogram::of_counts(&[], 3);
        assert_eq!(h.total(), 0);
        assert_eq!(h.bins.len(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_panics() {
        Histogram::of_counts(&[1], 0);
    }

    #[test]
    fn max_value_lands_in_last_bin() {
        let h = Histogram::of_counts(&[0, 100], 10);
        assert_eq!(h.bins[0], 1);
        assert_eq!(h.bins[9], 1);
    }

    #[test]
    fn downsample_shapes() {
        let series: Vec<u64> = (0..100).collect();
        let pts = Histogram::downsample(&series, 10);
        assert_eq!(pts.len(), 10);
        assert_eq!(pts[0].0, 0);
        assert!((pts[0].1 - 4.5).abs() < 1e-12);
        assert!(Histogram::downsample(&[], 10).is_empty());
        assert!(Histogram::downsample(&series, 0).is_empty());
        // More points than samples: one point per sample.
        let pts = Histogram::downsample(&[1, 2, 3], 10);
        assert_eq!(pts.len(), 3);
    }

    #[test]
    fn ascii_render_has_expected_shape() {
        let series = vec![0u64, 0, 10, 10, 0, 0];
        let s = Histogram::render_ascii(&series, 6, 3);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4); // 3 rows + axis
        assert!(lines[0].contains('#'));
        assert!(lines[3].starts_with('-'));
        // All-zero series renders without panicking.
        let z = Histogram::render_ascii(&[0, 0, 0], 3, 2);
        assert!(!z.is_empty());
        assert!(Histogram::render_ascii(&[], 5, 5).is_empty());
    }
}
