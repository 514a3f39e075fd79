//! # Guide: from the DSN'14 paper to this codebase
//!
//! A map from every construct in *A-ABFT: Autonomous Algorithm-Based Fault
//! Tolerance for Matrix Multiplications on GPUs* (Braun, Halder, Wunderlich,
//! DSN 2014) to the item implementing it, with runnable snippets.
//!
//! ## 1. Checksum encoding (Section II, Eq. 1–3)
//!
//! `A` gains per-block-row column-checksum rows, `B` per-block-column
//! row-checksum columns (partitioned encoding, Fig. 1):
//!
//! | Paper | Code |
//! |---|---|
//! | Eq. 1 `A_cc` | [`aabft_core::encoding::encode_columns`] |
//! | Eq. 2 `B_rc` | [`aabft_core::encoding::encode_rows`] |
//! | Eq. 3 `C_fc` | [`aabft_core::encoding::FullChecksummed`] |
//! | Eq. 4–6 check & ε-comparison | [`aabft_core::kernels::check::CheckKernel`] |
//!
//! ```
//! use aabft::core::encoding::encode_columns;
//! use aabft::matrix::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0][..], &[3.0, 4.0][..]]);
//! let acc = encode_columns(&a, 2, 1, 1);
//! // Eq. 1: the checksum row holds the column sums of its block.
//! assert_eq!(acc.matrix[(acc.rows.checksum_line(0), 1)], 6.0);
//! ```
//!
//! ## 2. The probabilistic rounding-error model (Section IV)
//!
//! | Paper | Code |
//! |---|---|
//! | Eq. 7 confidence interval `EV ± ω·σ` | [`aabft_numerics::Moments::confidence_radius`] |
//! | Eq. 9–13 mantissa error `β`, `E = ceil(log2 s*)` | [`aabft_numerics::bits::ceil_log2_abs`], [`aabft_numerics::model::RoundingModel::epsilon_for_result`] |
//! | Eq. 14 reciprocal distribution | [`aabft_numerics::distribution::reciprocal_pdf`] |
//! | Eq. 20–21 add/sub moments | [`aabft_numerics::model::RoundingModel::beta_add`] |
//! | Eq. 28 summation σ | [`aabft_core::bounds::sum_sigma`] |
//! | Eq. 34–35 mul moments | [`aabft_numerics::model::RoundingModel::beta_mul`] |
//! | Eq. 46 inner-product σ | [`aabft_core::bounds::inner_product_sigma`] |
//! | Section IV-D FMA / truncation | [`aabft_numerics::MulMode`], [`aabft_numerics::RoundingMode`], [`aabft_numerics::rounding`] |
//! | Section IV-E upper bound `y`, 3 cases | [`aabft_core::pmax::upper_bound_y`] |
//!
//! ```
//! use aabft::core::bounds::{checksum_epsilon, inner_product_sigma};
//! use aabft::numerics::RoundingModel;
//!
//! let model = RoundingModel::binary64();
//! // Eq. 46 at n = 512, y = 1:
//! let sigma = inner_product_sigma(512, 1.0, &model);
//! // Eq. 7 at the paper's conservative omega = 3:
//! let eps = checksum_epsilon(512, 1.0, 3.0, &model);
//! assert!((eps / sigma - 3.0).abs() < 1e-6);
//! ```
//!
//! ## 3. The GPU kernels (Section V, Algorithms 1–3)
//!
//! | Paper | Code |
//! |---|---|
//! | Alg. 1 encode + p-max search | [`aabft_core::kernels::encode::EncodeColumnsKernel`], [`aabft_core::kernels::encode::EncodeRowsKernel`] |
//! | step 3 global p-max reduction | [`aabft_core::kernels::reduce::ReducePMaxKernel`] |
//! | Alg. 2 bounds + checking | [`aabft_core::kernels::check::CheckKernel`] |
//! | Alg. 3 blocked GEMM + injection | [`aabft_gpu_sim::kernels::gemm::GemmKernel`] |
//! | the whole 4-step pipeline | [`aabft_core::AAbftGemm`] |
//!
//! The simulator substrate behind them: [`aabft_gpu_sim::Device`] schedules
//! thread blocks round-robin over SMs; every kernel FLOP flows through the
//! block context's FPU so instruction counting and fault injection
//! ([`aabft_gpu_sim::InjectionPlan`], Alg. 3's `(SM, site, module,
//! kInjection, errorVec)` interface) see each operation.
//!
//! ## 4. The evaluation (Section VI)
//!
//! | Paper | Code |
//! |---|---|
//! | Table I performance | `aabft-bench --bin table1`, [`aabft_gpu_sim::PerfModel`] |
//! | Tables II–IV bound quality | `--bin table2/3/4`, `aabft_bench::quality` |
//! | exact errors (GMP) | [`aabft_numerics::superacc::Superaccumulator`] |
//! | Eq. 47 input generator | [`aabft_matrix::gen::dynamic_range`] |
//! | Figure 4 fault campaigns | `--bin figure4`, [`aabft_faults::campaign::run_campaign`] |
//! | single/multi-bit flips | [`aabft_faults::bitflip`] |
//! | error classes (VI-C) | [`aabft_core::classify::classify`] |
//!
//! ## 5. Extensions beyond the paper
//!
//! * [`aabft_core::recover`] — the recovery ladder (repair / selective
//!   block recompute);
//! * [`aabft_core::heal::SelfHealingGemm`] — the verified-release loop that
//!   climbs that ladder until the check passes or the budget runs out.
//!
//! ```
//! use aabft::core::RecoveryAction;
//!
//! // The ladder's rungs, in escalation order.
//! assert!(RecoveryAction::Corrected < RecoveryAction::Recomputed);
//! assert!(RecoveryAction::Reran < RecoveryAction::Unrecovered);
//! ```
