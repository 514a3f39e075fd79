//! Fault-injection framework for the A-ABFT (DSN'14) reproduction
//! (paper Section VI-C).
//!
//! * [`bitflip`] — error vectors: single-bit flips per field (sign /
//!   exponent / mantissa) and the paper's neighbourhood multi-bit flips;
//! * [`plan`] — uniform sampling of a dynamic floating-point instruction
//!   `(SM, site, module, kInjection)` for a given multiplication shape;
//! * [`campaign`] — whole campaigns: one fault per multiplication, ground
//!   truth from a clean reference run classified at `3σ` with the
//!   probabilistic model, detection judged per scheme;
//! * [`outcome`] — trial records and the detection-rate aggregates behind
//!   Figure 4.
//!
//! # Example
//!
//! ```
//! use aabft_faults::bitflip::{single_bit_mask, BitRegion};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let mask = single_bit_mask(BitRegion::Exponent, &mut rng);
//! assert_eq!(mask.count_ones(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bitflip;
pub mod campaign;
pub mod outcome;
pub mod plan;

pub use bitflip::BitRegion;
pub use campaign::{run_campaign, run_selfheal_campaign, CampaignConfig, CampaignReport};
pub use outcome::{DetectionStats, GroundTruth, Trial};
pub use plan::{FaultSpec, GemmShape, InjectScope, MemScope};
