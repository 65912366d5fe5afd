//! # unicache-experiments
//!
//! One runner per figure of *"Evaluation of Techniques to Improve Cache
//! Access Uniformities"* (ICPP 2011). Each runner regenerates its figure's
//! data as an [`table::ExperimentTable`] that renders as text or CSV; the
//! `xp` binary exposes them all (`xp fig4`, `xp all`, …).
//!
//! | Runner | Paper figure |
//! |--------|--------------|
//! | [`figures::fig1`] | Fig. 1 — per-set access histogram (FFT) |
//! | [`figures::indexing::fig4`] | Fig. 4 — % miss reduction, indexing schemes |
//! | [`figures::assoc::fig6`] | Fig. 6 — % miss reduction, programmable associativity |
//! | [`figures::assoc::fig7`] | Fig. 7 — % AMAT reduction (Eq. 8/9) |
//! | [`figures::hybrid::fig8`] | Fig. 8 — column-associative × indexing hybrids |
//! | [`figures::indexing::fig9`]/[`figures::indexing::fig10`] | Figs. 9/10 — kurtosis/skewness, indexing |
//! | [`figures::assoc::fig11`]/[`figures::assoc::fig12`] | Figs. 11/12 — kurtosis/skewness, programmable associativity |
//! | [`figures::smt::fig13`] | Fig. 13 — per-thread indexing in SMT mixes |
//! | [`figures::smt::fig14`] | Fig. 14 — adaptive partitioned AMAT |
//! | [`figures::extras`] | §IV.C classification, Patel search, Belady bound, scheme selection; Fig. 5's profiling, online-selection and phase checks |

pub mod figures;
pub mod runner;
pub mod simstore;
pub mod store;
pub mod table;

pub use runner::{metrics_json, render_all, render_experiment, ALL_EXPERIMENTS};
pub use simstore::{CoherentGroup, CoherentKey, CoherentOutcome, FuseGroup, SchemeId, SimStore};
pub use store::TraceStore;
pub use table::ExperimentTable;
