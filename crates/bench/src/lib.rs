//! # unicache-bench
//!
//! Host-time and design-choice tooling around the simulator, as three
//! binaries:
//!
//! * `perfgate` — the CI perf-regression gate comparing `xp
//!   --timing-json` artifacts against the committed baseline; its logic
//!   lives in [`gate`];
//! * `innerloop` — the inner-loop microbenchmark (fused traversal,
//!   coherent and SMT chunk loops, per-phase ns/record, roofline);
//! * `ablations` — the design-choice sweeps DESIGN.md calls out
//!   (replacement policy, odd multiplier, SHT/OUT sizing, B-cache shape,
//!   Givargis line-size sensitivity, partner-chain length), printing the
//!   swept miss rates.

pub mod gate;
