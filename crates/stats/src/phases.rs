//! Sliding-window phase analysis of simulation outcomes.
//!
//! Programs move through phases with different conflict behaviour; the
//! paper's Fig. 5 design (pick a technique per application) implicitly
//! assumes phases are stable enough for one choice to hold. These helpers
//! quantify that: a windowed miss-rate series and a simple
//! change-point detector over it.

/// Windowed rate series of an event stream (e.g. misses per access).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSeries {
    /// Window length in accesses.
    pub window: usize,
    /// Per-window event rate (e.g. miss rate), in `[0, 1]`.
    pub rates: Vec<f64>,
}

impl PhaseSeries {
    /// Builds the windowed rate series from per-window event counts:
    /// `events[i]` is the number of events (e.g. misses) in complete
    /// window `i` of `window` accesses. Callers drop a trailing partial
    /// window (rates are only comparable at equal window size).
    ///
    /// # Panics
    /// Panics if `window == 0`.
    pub fn from_window_counts(events: &[u64], window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        let rates = events.iter().map(|&e| e as f64 / window as f64).collect();
        PhaseSeries { window, rates }
    }

    /// Number of complete windows.
    pub fn len(&self) -> usize {
        self.rates.len()
    }

    /// True if no complete window exists.
    pub fn is_empty(&self) -> bool {
        self.rates.is_empty()
    }

    /// Mean windowed rate.
    pub fn mean(&self) -> f64 {
        if self.rates.is_empty() {
            0.0
        } else {
            self.rates.iter().sum::<f64>() / self.rates.len() as f64
        }
    }

    /// Indexes of windows whose rate jumps by at least `threshold`
    /// relative to the previous window — crude but effective phase-change
    /// markers.
    pub fn change_points(&self, threshold: f64) -> Vec<usize> {
        self.rates
            .windows(2)
            .enumerate()
            .filter(|(_, w)| (w[1] - w[0]).abs() >= threshold)
            .map(|(i, _)| i + 1)
            .collect()
    }

    /// Phase stability: 1 − (fraction of windows that are change points).
    /// 1.0 means one steady phase — the regime where the paper's
    /// one-technique-per-application selection is safest.
    pub fn stability(&self, threshold: f64) -> f64 {
        if self.rates.len() < 2 {
            return 1.0;
        }
        1.0 - self.change_points(threshold).len() as f64 / (self.rates.len() - 1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Per-window event counts of a boolean outcome stream, the trailing
    /// partial window dropped.
    fn counts(outcomes: &[bool], window: usize) -> Vec<u64> {
        outcomes
            .chunks_exact(window)
            .map(|w| w.iter().filter(|&&b| b).count() as u64)
            .collect()
    }

    #[test]
    fn one_rate_per_window() {
        // Outcomes 10 11 00 | 1: the tail of 1 never forms a window.
        let s = PhaseSeries::from_window_counts(&[1, 2, 0], 2);
        assert_eq!(s.len(), 3);
        assert_eq!(s.rates, vec![0.5, 1.0, 0.0]);
        assert!((s.mean() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn steady_stream_is_stable() {
        let s = PhaseSeries::from_window_counts(&[0; 20], 50);
        assert!(s.change_points(0.05).is_empty());
        assert_eq!(s.stability(0.05), 1.0);
    }

    #[test]
    fn step_change_is_detected_once() {
        // Phase 1: all hits; phase 2: all misses.
        let mut events = vec![0; 5];
        events.extend(vec![100; 5]);
        let s = PhaseSeries::from_window_counts(&events, 100);
        let cps = s.change_points(0.5);
        assert_eq!(cps, vec![5], "one change point at the boundary");
        assert!((s.stability(0.5) - (1.0 - 1.0 / 9.0)).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs() {
        let s = PhaseSeries::from_window_counts(&[], 10);
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.stability(0.1), 1.0);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        PhaseSeries::from_window_counts(&[0], 0);
    }

    proptest! {
        #[test]
        fn rates_bounded_and_mean_consistent(
            outcomes in proptest::collection::vec(proptest::bool::ANY, 0..2000),
            window in 1usize..100
        ) {
            let s = PhaseSeries::from_window_counts(&counts(&outcomes, window), window);
            prop_assert_eq!(s.len(), outcomes.len() / window);
            for &r in &s.rates {
                prop_assert!((0.0..=1.0).contains(&r));
            }
            // Mean over complete windows equals the event rate over the
            // covered prefix.
            let covered = s.len() * window;
            if covered > 0 {
                let events = outcomes[..covered].iter().filter(|&&b| b).count();
                let direct = events as f64 / covered as f64;
                prop_assert!((s.mean() - direct).abs() < 1e-9);
            }
        }

        #[test]
        fn stability_in_unit_interval(
            outcomes in proptest::collection::vec(proptest::bool::ANY, 0..1000),
            window in 1usize..50,
            threshold in 0.0f64..1.0
        ) {
            let s = PhaseSeries::from_window_counts(&counts(&outcomes, window), window);
            let st = s.stability(threshold);
            prop_assert!((0.0..=1.0).contains(&st));
        }
    }
}
