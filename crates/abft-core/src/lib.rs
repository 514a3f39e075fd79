//! A-ABFT: Autonomous Algorithm-Based Fault Tolerance for matrix
//! multiplications — the core scheme of Braun, Halder & Wunderlich
//! (DSN 2014), reproduced on a deterministic GPU simulator.
//!
//! A-ABFT protects `C = A · B` with partitioned checksums ([`encoding`]) and
//! — its contribution — determines the rounding-error bounds needed to
//! compare floating-point checksums *autonomously at runtime*: no
//! calibration runs, no user-supplied tolerances. The bounds come from a
//! probabilistic rounding-error model ([`bounds`], building on
//! `aabft_numerics::model`) evaluated with a data-driven upper bound on the
//! intermediate products obtained from the `p` largest absolute values per
//! row/column ([`pmax`]).
//!
//! The GPU realisation ([`kernels`], orchestrated by [`AAbftGemm`] in
//! [`aabft`]) follows the paper's four steps: fused encode+p-max kernels,
//! the blocked multiplication, a p-max reduction, and the checking kernel
//! that evaluates bounds, recomputes reference checksums and compares.
//!
//! # Quick start
//!
//! ```
//! use aabft_core::{AAbftConfig, AAbftGemm};
//! use aabft_gpu_sim::Device;
//! use aabft_matrix::Matrix;
//!
//! let a = Matrix::from_fn(32, 32, |i, j| ((i + j) as f64 * 0.1).sin());
//! let b = Matrix::from_fn(32, 32, |i, j| ((i * 2 + j) as f64 * 0.1).cos());
//!
//! let gemm = AAbftGemm::new(AAbftConfig::builder().block_size(8).build().expect("valid config"));
//! let outcome = gemm.multiply(&Device::with_defaults(), &a, &b);
//!
//! assert!(!outcome.errors_detected());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod aabft;
pub mod batch;
pub mod bounds;
pub mod check;
pub mod classify;
pub mod config;
pub mod correct;
pub mod encoding;
pub mod error;
pub mod heal;
pub mod kernels;
pub mod pmax;
pub mod recover;

pub use aabft::{AAbftGemm, AAbftOutcome, GemmPlan, MultiplyRun, RunBuffers};
pub use batch::{BatchGemm, GemmRequest, ProtectionPolicy};
pub use check::CheckReport;
pub use classify::ErrorClass;
pub use config::AAbftConfig;
pub use correct::Correction;
pub use error::AbftError;
pub use heal::{HealedOutcome, SelfHealingGemm, DEFAULT_HEAL_BUDGET};
pub use recover::{RecoveryAction, RecoveryOutcome, RecoveryPolicy};
pub use pmax::PMaxTable;
