//! Figure 1 — non-uniform cache accesses for MiBench FFT.
//!
//! The paper plots accesses-per-set over the 1024 L1D sets and reports
//! that "about 90.43% of the cache sets get less than half of the average
//! accesses while 6.641% get twice the average accesses".

use crate::figures::paper_geom;
use crate::{SchemeId, SimStore};
use unicache_stats::{gini, normalized_entropy, Histogram, Moments, SetClassification};
use unicache_workloads::Workload;

/// The Figure-1 report: the raw per-set series plus summary statistics.
#[derive(Debug, Clone)]
pub struct Fig1Report {
    /// Workload plotted (FFT in the paper).
    pub workload: String,
    /// Accesses per set (x-axis of the paper's chart).
    pub accesses_per_set: Vec<u64>,
    /// % of sets receiving < ½ the average accesses (paper: 90.43% — at
    /// SimpleScalar trace lengths; shape, not constant, is the target).
    pub pct_below_half_avg: f64,
    /// % of sets receiving ≥ 2× the average accesses (paper: 6.641%).
    pub pct_above_twice_avg: f64,
    /// Moments of the per-set access distribution.
    pub moments: Moments,
    /// Gini coefficient of accesses (0 = uniform).
    pub gini: f64,
    /// Normalized entropy of accesses (1 = uniform).
    pub entropy: f64,
}

/// Regenerates Figure 1 for any workload (the paper uses FFT).
pub fn report(store: &SimStore, workload: Workload) -> Fig1Report {
    let stats = store.stats(workload, SchemeId::Baseline, paper_geom());
    let accesses = stats.accesses_per_set();
    let class = SetClassification::from_accesses(&accesses);
    Fig1Report {
        workload: workload.name().to_string(),
        pct_below_half_avg: class.las_pct,
        pct_above_twice_avg: class.hot_pct,
        moments: Moments::from_counts(&accesses),
        gini: gini(&accesses),
        entropy: normalized_entropy(&accesses),
        accesses_per_set: accesses,
    }
}

impl Fig1Report {
    /// Text rendering with an ASCII version of the paper's chart.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "== Fig. 1: per-set L1D accesses, {} ==\n",
            self.workload
        ));
        out.push_str(&Histogram::render_ascii(&self.accesses_per_set, 96, 12));
        out.push_str(&format!(
            "sets: {}   mean accesses/set: {:.1}   std: {:.1}\n",
            self.accesses_per_set.len(),
            self.moments.mean,
            self.moments.std_dev
        ));
        out.push_str(&format!(
            "{:.2}% of sets below half the average (paper: 90.43%)\n",
            self.pct_below_half_avg
        ));
        out.push_str(&format!(
            "{:.2}% of sets at/above twice the average (paper: 6.641%)\n",
            self.pct_above_twice_avg
        ));
        out.push_str(&format!(
            "kurtosis: {:.2}  skewness: {:.2}  gini: {:.3}  entropy: {:.3}\n",
            self.moments.kurtosis, self.moments.skewness, self.gini, self.entropy
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicache_workloads::Scale;

    #[test]
    fn fft_is_markedly_non_uniform() {
        let store = SimStore::new(Scale::Tiny);
        let r = report(&store, Workload::Fft);
        assert_eq!(r.accesses_per_set.len(), 1024);
        // The paper's qualitative claim: a majority of sets are cold while
        // a small fraction is hot.
        assert!(
            r.pct_below_half_avg > 50.0,
            "below-half: {:.1}%",
            r.pct_below_half_avg
        );
        assert!(
            r.pct_above_twice_avg < 35.0 && r.pct_above_twice_avg > 0.0,
            "above-twice: {:.1}%",
            r.pct_above_twice_avg
        );
        assert!(r.gini > 0.5, "gini {:.3}", r.gini);
        let txt = r.render();
        assert!(txt.contains("Fig. 1"));
        assert!(txt.contains("fft"));
    }

    #[test]
    fn crc_is_far_more_uniform_than_fft() {
        let store = SimStore::new(Scale::Tiny);
        let fft = report(&store, Workload::Fft);
        let crc = report(&store, Workload::Crc);
        assert!(
            crc.gini < fft.gini,
            "crc {:.3} fft {:.3}",
            crc.gini,
            fft.gini
        );
        assert!(crc.entropy > fft.entropy);
    }
}
