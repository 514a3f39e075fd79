//! Floating-point substrate for the A-ABFT (DSN'14) reproduction.
//!
//! This crate provides everything the higher layers need to *reason about*
//! IEEE-754 arithmetic rather than merely perform it:
//!
//! * [`bits`] — sign/exponent/mantissa decomposition, the exponent function
//!   `E = ceil(log2 |s*|)` of the paper's Eq. 13, and the unit in the last
//!   place;
//! * [`eft`] — error-free transforms (`two_sum`, `two_prod`);
//! * [`expansion`] — Shewchuk floating-point expansions (exact adaptive
//!   arithmetic, used as a cross-validation oracle);
//! * [`superacc`] — a Kulisch superaccumulator delivering *exact*, correctly
//!   rounded dot products; the reproduction's replacement for the GMP
//!   multi-precision library the paper used;
//! * [`exact`] — rounding-error oracles built on the superaccumulator;
//! * [`model`] — the Barlow/Bareiss probabilistic rounding-error model
//!   (Section IV of the paper): per-operation mantissa-error moments and
//!   data-driven inner-product error moments;
//! * [`distribution`] — the reciprocal (Benford, base-2) mantissa
//!   distribution underpinning the model's assumptions.
//!
//! # Example: exact rounding error of a dot product
//!
//! ```
//! use aabft_numerics::exact::dot_rounding_error;
//! use aabft_numerics::model::RoundingModel;
//!
//! let a: Vec<f64> = (0..100).map(|i| (i as f64 * 0.37).sin()).collect();
//! let b: Vec<f64> = (0..100).map(|i| (i as f64 * 0.73).cos()).collect();
//!
//! let (computed, actual_err) = dot_rounding_error(&a, &b);
//! let predicted = RoundingModel::binary64().inner_product_moments(&a, &b);
//! assert!(actual_err.abs() <= predicted.confidence_radius(6.0));
//! # let _ = computed;
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bits;
pub mod distribution;
pub mod eft;
pub mod exact;
pub mod expansion;
pub mod model;
pub mod rounding;
pub mod superacc;

pub use model::{Moments, MulMode, RoundingMode, RoundingModel};
