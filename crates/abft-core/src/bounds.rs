//! Closed-form probabilistic rounding-error bounds
//! (paper Sections IV-B to IV-E).
//!
//! For a checksum element computed as an inner product of length `n` whose
//! intermediate products are bounded by `y`, the model yields a standard
//! deviation for the accumulated rounding error (Eq. 28 for plain sums,
//! Eq. 46 for inner products); the comparison threshold is the confidence
//! radius `EV + ω·σ` (Eq. 7). These formulas are what the checking kernel
//! evaluates at runtime — closed-form in `n` and `y`, no calibration runs.

use aabft_numerics::{Moments, MulMode, RoundingModel};

/// `σ` of the rounding error of a summation of `n` addends bounded by
/// `|s_k| ≤ k·y` (Eq. 28): `sqrt(n(n+1)(2n+1)/48) · y · 2^-t`.
///
/// # Examples
///
/// ```
/// use aabft_core::bounds::sum_sigma;
/// use aabft_numerics::RoundingModel;
///
/// let s = sum_sigma(1000, 1.0, &RoundingModel::binary64());
/// assert!(s > 0.0 && s < 1e-9);
/// ```
pub fn sum_sigma(n: usize, y: f64, model: &RoundingModel) -> f64 {
    if n < 2 || y == 0.0 {
        return 0.0;
    }
    // Var_Sum <= Var(beta_add) * sum_k (k y)^2 (Eq. 25-26 relaxed with
    // s_k <= k y); with the paper's RN constant Var(beta) = 2^-2t/8 this is
    // exactly Eq. 28. Written against the model's moments it covers the
    // truncation constants too (Section IV-D).
    let n = n as f64;
    let series = n * (n + 1.0) * (2.0 * n + 1.0) / 6.0;
    (model.beta_add().variance * series).sqrt() * y
}

/// `σ` of the rounding error of an inner product of length `n` with
/// products bounded by `y` (Eq. 46):
/// `sqrt((n(n+1)(n+1/2) + 2n)/24) · 2^-t · y`.
///
/// Under fused multiply-add the multiplication contributes no rounding
/// (Section IV-D) and the bound reduces to [`sum_sigma`].
pub fn inner_product_sigma(n: usize, y: f64, model: &RoundingModel) -> f64 {
    if n == 0 || y == 0.0 {
        return 0.0;
    }
    if model.mul_mode == MulMode::Fused {
        return sum_sigma(n, y, model);
    }
    // Var_InProd = Var_Sum + n * Var(beta_mul) * y^2 (Eq. 33-41); with the
    // RN constants this is exactly Eq. 46.
    let nf = n as f64;
    let series = nf * (nf + 1.0) * (2.0 * nf + 1.0) / 6.0;
    ((model.beta_add().variance * series + nf * model.beta_mul().variance) * y * y).sqrt()
}

/// Expectation value of the inner product's rounding error: the
/// multiplication bias `n · y · EV(β_mul)` (Eq. 42-43; `(n/3)·2^-2t·y`
/// under symmetric rounding) plus the summation drift
/// `EV(β_add) · y · Σk` — zero under symmetric rounding (Eq. 22) but the
/// *dominant first-order term* under truncation, whose per-step bias
/// accumulates over the partial sums.
pub fn inner_product_mean(n: usize, y: f64, model: &RoundingModel) -> f64 {
    let nf = n as f64;
    let sum_drift = model.beta_add().mean * y * (nf * (nf + 1.0) / 2.0);
    let mul_bias = if model.mul_mode == MulMode::Fused {
        0.0
    } else {
        nf * y * model.beta_mul().mean
    };
    sum_drift + mul_bias
}

/// Closed-form model moments for a checksum inner product.
pub fn inner_product_bound_moments(n: usize, y: f64, model: &RoundingModel) -> Moments {
    let sigma = inner_product_sigma(n, y, model);
    Moments { mean: inner_product_mean(n, y, model), variance: sigma * sigma }
}

/// The comparison threshold `ε` used by the checking kernel
/// (`calculateEpsilon` in Algorithm 2): confidence radius `|EV| + ω·σ` of
/// the checksum element's modelled rounding error.
///
/// # Examples
///
/// ```
/// use aabft_core::bounds::checksum_epsilon;
/// use aabft_numerics::RoundingModel;
///
/// let model = RoundingModel::binary64();
/// let eps = checksum_epsilon(512, 1.0, 3.0, &model);
/// // Conservative but tight: far above one ulp, far below any significant
/// // error.
/// assert!(eps > 1e-15 && eps < 1e-9);
/// ```
pub fn checksum_epsilon(n: usize, y: f64, omega: f64, model: &RoundingModel) -> f64 {
    inner_product_bound_moments(n, y, model).confidence_radius(omega)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aabft_numerics::RoundingModel;

    fn m64() -> RoundingModel {
        RoundingModel::binary64()
    }

    #[test]
    fn sigma_grows_superlinearly_with_n() {
        let s1 = inner_product_sigma(100, 1.0, &m64());
        let s2 = inner_product_sigma(1000, 1.0, &m64());
        // ~ n^{3/2} growth.
        assert!(s2 / s1 > 20.0 && s2 / s1 < 50.0, "ratio {}", s2 / s1);
    }

    #[test]
    fn sigma_scales_linearly_with_y() {
        let s1 = inner_product_sigma(256, 1.0, &m64());
        let s2 = inner_product_sigma(256, 10.0, &m64());
        assert!((s2 - 10.0 * s1).abs() < 1e-20);
    }

    #[test]
    fn fma_bound_is_tighter() {
        let sep = inner_product_sigma(256, 1.0, &m64());
        let fma = inner_product_sigma(256, 1.0, &m64().with_fma());
        assert!(fma < sep);
        assert_eq!(fma, sum_sigma(256, 1.0, &m64()));
    }

    #[test]
    fn epsilon_scales_with_omega() {
        let e1 = checksum_epsilon(256, 1.0, 1.0, &m64());
        let e3 = checksum_epsilon(256, 1.0, 3.0, &m64());
        // mean term is ~2^-2t, vanishing: e3 ≈ 3 e1.
        assert!((e3 / e1 - 3.0).abs() < 1e-6);
    }

    #[test]
    fn degenerate_inputs_give_zero() {
        assert_eq!(sum_sigma(1, 1.0, &m64()), 0.0);
        assert_eq!(sum_sigma(100, 0.0, &m64()), 0.0);
        assert_eq!(inner_product_sigma(0, 1.0, &m64()), 0.0);
    }

    #[test]
    fn matches_paper_order_of_magnitude() {
        // Paper Table II, n = 512, inputs in [-1, 1]: A-ABFT average bound
        // 1.68e-11 with 3 sigma and y from checksum-row products (|a_cs|
        // reaches ~sqrt(BS)-ish sums). With y = 1 the raw formula gives a
        // few 1e-13 — within two orders of the paper and far above the
        // actual 2.25e-14 rounding error, far below SEA's 8.58e-10.
        let eps = checksum_epsilon(512, 1.0, 3.0, &m64());
        assert!(eps > 1e-13 && eps < 1e-11, "eps = {eps:e}");
    }

    #[test]
    fn bound_covers_actual_checksum_error_empirically() {
        use aabft_numerics::exact::dot_rounding_error;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let model = m64();
        let n = 256;
        for _ in 0..100 {
            let a: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let y = a.iter().zip(&b).map(|(x, v)| (x * v).abs()).fold(0.0f64, f64::max);
            let (_, err) = dot_rounding_error(&a, &b);
            let eps = checksum_epsilon(n, y, 3.0, &model);
            assert!(err.abs() <= eps, "err {err:e} above bound {eps:e}");
        }
    }
}
