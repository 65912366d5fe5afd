//! End-to-end and per-layer host-time benchmark of the unicache simulator.
//!
//! Workloads, metrics and bounds are declared in the repository's
//! `BENCHMARK.json`; `README.md` next to this crate explains each one and
//! the layer each per-layer metric belongs to.

mod calibrate;
pub mod cli;
pub mod compare;
pub mod digests;
pub mod json;
pub mod probes;
pub mod runner;
pub mod spec;
pub mod stats;
pub mod synth;
pub mod tracer;
pub mod workload;
