//! The A-ABFT operator as a [`ProtectedGemm`] scheme — implemented
//! *directly* on [`AAbftGemm`], with no wrapper type, so the harnesses
//! drive all four schemes of the paper's evaluation uniformly and callers
//! keep the operator's full staged/batched API.

use crate::scheme::{ProtectedGemm, ProtectedResult};
use aabft_core::{AAbftGemm, AAbftOutcome, AbftError, RecoveryAction, SelfHealingGemm};
use aabft_gpu_sim::ExecCtx;
use aabft_matrix::Matrix;

impl From<AAbftOutcome> for ProtectedResult {
    fn from(outcome: AAbftOutcome) -> Self {
        let errors_detected = outcome.report.errors_detected();
        let recovery = if !outcome.recomputed_blocks.is_empty() {
            Some(RecoveryAction::Recomputed)
        } else if !outcome.corrections.is_empty() {
            Some(RecoveryAction::Corrected)
        } else {
            None
        };
        ProtectedResult {
            product: outcome.product,
            errors_detected,
            located: outcome.report.located,
            recovery,
        }
    }
}

impl ProtectedGemm for AAbftGemm {
    fn name(&self) -> &'static str {
        "A-ABFT"
    }

    fn multiply_on(
        &self,
        ctx: &ExecCtx<'_>,
        a: &Matrix<f64>,
        b: &Matrix<f64>,
    ) -> Result<ProtectedResult, AbftError> {
        Ok(self.execute(ctx, a, b)?.into())
    }
}

impl ProtectedGemm for SelfHealingGemm {
    fn name(&self) -> &'static str {
        "A-ABFT+heal"
    }

    /// Runs the verified self-healing pipeline. `errors_detected` reports
    /// whether *any* check pass flagged an error (the released product
    /// itself has always passed a final check); budget exhaustion surfaces
    /// as [`AbftError::Unrecovered`].
    fn multiply_on(
        &self,
        ctx: &ExecCtx<'_>,
        a: &Matrix<f64>,
        b: &Matrix<f64>,
    ) -> Result<ProtectedResult, AbftError> {
        let healed = self.execute(ctx, a, b)?;
        let detected = healed.healed();
        let located = healed.outcome.corrections.iter().map(|c| (c.row, c.col)).collect();
        Ok(ProtectedResult {
            product: healed.outcome.product,
            errors_detected: detected,
            located,
            recovery: Some(healed.action),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aabft_core::AAbftConfig;
    use aabft_gpu_sim::device::Device;
    use aabft_gpu_sim::kernels::gemm::GemmTiling;
    use aabft_matrix::gemm;

    fn config() -> AAbftConfig {
        AAbftConfig::builder()
            .block_size(4)
            .tiling(GemmTiling { bm: 8, bn: 8, bk: 4, rx: 2, ry: 2 })
            .build()
            .expect("valid test config")
    }

    #[test]
    fn aabft_gemm_runs_as_a_protected_scheme_without_a_wrapper() {
        let a: Matrix = Matrix::from_fn(8, 8, |i, j| ((i + j) as f64 * 0.41).sin());
        let b: Matrix = Matrix::from_fn(8, 8, |i, j| ((i * 3 + j) as f64 * 0.27).cos());
        let scheme: &dyn ProtectedGemm = &AAbftGemm::new(config());
        let r = scheme.multiply(&Device::with_defaults(), &a, &b);
        assert!(!r.errors_detected);
        assert!(r.product.approx_eq(&gemm::multiply(&a, &b), 1e-12));
        assert_eq!(scheme.name(), "A-ABFT");
    }

    #[test]
    fn staged_outcome_converts_into_a_protected_result() {
        let a: Matrix = Matrix::from_fn(8, 8, |i, j| ((i + j) as f64 * 0.41).sin());
        let b: Matrix = Matrix::from_fn(8, 8, |i, j| ((i * 3 + j) as f64 * 0.27).cos());
        let scheme = AAbftGemm::new(config());
        let outcome = scheme.execute(&ExecCtx::new(&Device::with_defaults()), &a, &b).unwrap();
        let r: ProtectedResult = outcome.into();
        assert!(!r.errors_detected);
    }

    #[test]
    fn trait_entry_rejects_shape_mismatch_with_typed_error() {
        let a: Matrix = Matrix::zeros(8, 8);
        let b: Matrix = Matrix::zeros(12, 8);
        let device = Device::with_defaults();
        let e = AAbftGemm::new(config()).try_multiply(&device, &a, &b).unwrap_err();
        assert!(matches!(e, AbftError::ShapeMismatch { .. }));
    }
}
