//! # unicache-stats
//!
//! Distribution statistics used to quantify *cache access uniformity*,
//! reproducing Section IV.C/IV.D of the paper:
//!
//! * central moments — mean, variance, standard deviation, **skewness**
//!   (third standardized moment) and **kurtosis** (fourth standardized
//!   moment) of per-set access/miss distributions (paper Figs. 9–12);
//! * Zhang's set classification — **FHS** (frequently hit), **FMS**
//!   (frequently missed) and **LAS** (least accessed) sets;
//! * additional uniformity indices (Gini coefficient, normalized Shannon
//!   entropy) used by the ablation studies;
//! * percent-change helpers matching how the paper reports every figure
//!   ("% reduction in miss rate", "% increase in kurtosis");
//! * line-generation lenses for the coherent hierarchy — dead-time /
//!   live-time totals ([`lifetime::LifetimeTotals`], kept slot by slot
//!   in the hierarchy's L1) and MRU-hit rank profiles
//!   ([`recency::RecencyLens`]).

pub mod change;
pub mod classify;
pub mod histogram;
pub mod lifetime;
pub mod moments;
pub mod phases;
pub mod recency;
pub mod uniformity;

pub use change::{percent_change, percent_reduction};
pub use classify::SetClassification;
pub use histogram::Histogram;
pub use lifetime::LifetimeTotals;
pub use moments::Moments;
pub use phases::PhaseSeries;
pub use recency::RecencyLens;
pub use uniformity::{gini, normalized_entropy};
