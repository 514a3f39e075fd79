//! Benchmark and experiment harness regenerating every table and figure of
//! the DSN'14 A-ABFT paper.
//!
//! * [`predict`] — exact analytic launch logs per scheme (validated against
//!   measured logs), enabling Table I at the paper's full sizes;
//! * [`table1`] — GFLOPS rows (modelled and simulated paths);
//! * [`quality`] — bound-quality rows for Tables II–IV (exact rounding
//!   error vs A-ABFT vs SEA bounds);
//! * [`fig4`] — fault-injection detection-rate sweeps for Figure 4;
//! * [`batch`] — sequential-vs-batched modelled wall time of the
//!   multi-stream batch engine;
//! * [`args`] — tiny CLI parsing for the `table*`/`figure4`/`ablation_*`
//!   binaries.
//!
//! Each binary prints the corresponding table in the paper's layout; see
//! `EXPERIMENTS.md` at the repository root for paper-vs-measured numbers.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod args;
pub mod batch;
pub mod fig4;
pub mod predict;
pub mod quality;
pub mod table1;
