//! Baseline fault-tolerance schemes the DSN'14 A-ABFT paper evaluates
//! against (Section VI-A), all running on the same simulated device:
//!
//! * [`FixedBoundAbft`] — standard ABFT with a manually chosen ε (fast, not
//!   autonomous);
//! * [`SeaAbft`] — ABFT with runtime bounds from the simplified error
//!   analysis \[28\] (autonomous, but loose bounds and poor GPU utilization);
//! * [`TmrGemm`] — triple modular redundancy with direct comparison;
//! * [`UnprotectedGemm`] — the raw-throughput reference;
//! * [`AAbftGemm`](aabft_core::AAbftGemm) — the A-ABFT operator from
//!   `aabft-core`, which implements [`ProtectedGemm`] directly.
//!
//! Every scheme's required entry point is
//! [`ProtectedGemm::multiply_on`], which takes an
//! [`ExecCtx`](aabft_gpu_sim::ExecCtx) (device + stream + observability);
//! [`batch::run_batch`] runs any scheme over a slice of requests spread
//! across device streams, so all baselines are comparable under the
//! multi-stream engine.
//!
//! # Example
//!
//! ```
//! use aabft_baselines::{ProtectedGemm, TmrGemm, UnprotectedGemm};
//! use aabft_gpu_sim::Device;
//! use aabft_matrix::Matrix;
//!
//! let device = Device::with_defaults();
//! let a = Matrix::from_fn(32, 32, |i, j| ((i + j) as f64 * 0.2).sin());
//! let b = Matrix::identity(32);
//! for scheme in [&TmrGemm::new() as &dyn ProtectedGemm, &UnprotectedGemm::new()] {
//!     let r = scheme.multiply(&device, &a, &b);
//!     assert!(!r.errors_detected);
//! }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod aabft_scheme;
pub mod batch;
pub mod fixed;
pub mod kernels;
mod pipeline;
pub mod scheme;
pub mod sea;
pub mod tmr;
pub mod unprotected;

pub use batch::run_batch;
pub use fixed::FixedBoundAbft;
pub use scheme::{ProtectedGemm, ProtectedResult};
pub use sea::SeaAbft;
pub use tmr::TmrGemm;
pub use unprotected::UnprotectedGemm;
