//! Probabilistic rounding-error model (Barlow/Bareiss, paper Section IV).
//!
//! The model describes the rounding error `ε` of a floating-point operation
//! via the *mantissa error* `β` with `ε = β · 2^E`, `E = ceil(log2 |s*|)`
//! (Eq. 10–13). Under the reciprocal-distribution assumption for mantissas,
//! `β` has known mean and variance per operation class:
//!
//! * addition/subtraction (symmetric rounding): `EV(β) = 0`,
//!   `Var(β) ≤ 1/8 · 2^-2t` (Eq. 20–21);
//! * multiplication/division (symmetric rounding): `EV(β) = 1/3 · 2^-2t`,
//!   `Var(β) = 1/12 · 2^-2t` (Eq. 34–35);
//! * fused multiply-add: the multiplication is exact, only the final
//!   addition rounds (Section IV-D), so the multiplication term vanishes.
//!
//! This module provides those constants, the `2^E` scaling of Eq. 11–12,
//! and a data-driven moment accumulator that walks an actual inner product
//! and returns the model's mean/variance for *that* element — the baseline
//! used for runtime error classification (Section VI-C).

use crate::bits::ceil_log2_abs;

/// How results are rounded by the simulated arithmetic.
///
/// The paper's model targets symmetric rounding (IEEE round-to-nearest) and
/// notes truncation works "with only minor changes"; for truncation we use
/// the uniform one-sided error model (`EV = 1/2·2^-t`, `Var = 1/12·2^-2t` at
/// mantissa scale), documented in DESIGN.md.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RoundingMode {
    /// IEEE-754 round-to-nearest-even (the paper's "symmetric rounding").
    #[default]
    Nearest,
    /// Truncation toward zero.
    Truncation,
}

/// Whether multiply and add round separately or as a fused multiply-add.
///
/// GPUs implementing IEEE-754-2008 provide FMA; under FMA the product incurs
/// no rounding of its own (Section IV-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MulMode {
    /// Separate multiply and add, each rounding once.
    #[default]
    Separate,
    /// Fused multiply-add: only the addition rounds.
    Fused,
}

/// Mean and variance of a random error quantity.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Moments {
    /// Expectation value.
    pub mean: f64,
    /// Variance.
    pub variance: f64,
}

impl Moments {
    /// The zero distribution (an exact operation).
    pub const ZERO: Moments = Moments { mean: 0.0, variance: 0.0 };

    /// Standard deviation `σ = sqrt(Var)`.
    pub fn std_dev(&self) -> f64 {
        self.variance.sqrt()
    }

    /// Sum of independent error contributions (means and variances add).
    pub fn combine(self, other: Moments) -> Moments {
        Moments { mean: self.mean + other.mean, variance: self.variance + other.variance }
    }

    /// Confidence half-width `|mean| + ω·σ` (Eq. 7's interval radius around
    /// zero, conservatively shifted by the mean's magnitude).
    pub fn confidence_radius(&self, omega: f64) -> f64 {
        self.mean.abs() + omega * self.std_dev()
    }
}

/// The binary64 rounding-error model, parameterised by rounding mode and
/// multiply mode.
///
/// # Examples
///
/// ```
/// use aabft_numerics::model::RoundingModel;
///
/// let m = RoundingModel::binary64();
/// assert_eq!(RoundingModel::T, 53);
/// // Var(beta) for addition is at most 1/8 * 2^-2t:
/// let add = m.beta_add();
/// assert!(add.variance <= 0.125 * (2.0f64).powi(-106) + f64::MIN_POSITIVE);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RoundingModel {
    /// Rounding behaviour of the simulated hardware.
    pub rounding: RoundingMode,
    /// Separate vs fused multiply-add.
    pub mul_mode: MulMode,
}

impl Default for RoundingModel {
    fn default() -> Self {
        Self::binary64()
    }
}

impl RoundingModel {
    /// Mantissa digits `t` including the implicit bit: the paper's `t` in
    /// `ε_M = 2^-t`.
    pub const T: u32 = f64::MANTISSA_DIGITS;

    /// Model for IEEE binary64 with round-to-nearest and separate mul/add —
    /// the configuration of the paper's experiments.
    pub fn binary64() -> Self {
        RoundingModel { rounding: RoundingMode::Nearest, mul_mode: MulMode::Separate }
    }

    /// Returns a copy using fused multiply-add semantics.
    pub fn with_fma(mut self) -> Self {
        self.mul_mode = MulMode::Fused;
        self
    }

    /// Returns a copy using the given rounding mode.
    pub fn with_rounding(mut self, rounding: RoundingMode) -> Self {
        self.rounding = rounding;
        self
    }

    /// `2^-2t`, the squared machine unit.
    fn two_pow_m2t(&self) -> f64 {
        (2.0f64).powi(-2 * Self::T as i32)
    }

    /// Mantissa-error moments for addition/subtraction (Eq. 20–21).
    pub fn beta_add(&self) -> Moments {
        match self.rounding {
            RoundingMode::Nearest => {
                Moments { mean: 0.0, variance: 0.125 * self.two_pow_m2t() }
            }
            RoundingMode::Truncation => Moments {
                mean: 0.5 * (2.0f64).powi(-(Self::T as i32)),
                variance: self.two_pow_m2t() / 12.0,
            },
        }
    }

    /// Mantissa-error moments for multiplication/division (Eq. 34–35), or
    /// [`Moments::ZERO`] under fused multiply-add (Section IV-D).
    pub fn beta_mul(&self) -> Moments {
        if self.mul_mode == MulMode::Fused {
            return Moments::ZERO;
        }
        match self.rounding {
            RoundingMode::Nearest => Moments {
                mean: self.two_pow_m2t() / 3.0,
                variance: self.two_pow_m2t() / 12.0,
            },
            RoundingMode::Truncation => Moments {
                mean: 0.5 * (2.0f64).powi(-(Self::T as i32)),
                variance: self.two_pow_m2t() / 12.0,
            },
        }
    }

    /// Scales mantissa-error moments to rounding-error moments for a result
    /// `s*` (Eq. 11–13): `EV(ε) = sgn(s*)·2^E·EV(β)`, `Var(ε) = 2^2E·Var(β)`
    /// with `E = ceil(log2 |s*|)`.
    ///
    /// Returns [`Moments::ZERO`] for `s* == 0` (an exact zero result carries
    /// no rounding error under this model).
    pub fn epsilon_for_result(&self, s_star: f64, beta: Moments) -> Moments {
        if s_star == 0.0 {
            return Moments::ZERO;
        }
        let e = ceil_log2_abs(s_star);
        let scale = (2.0f64).powi(e);
        Moments {
            mean: s_star.signum() * scale * beta.mean,
            variance: scale * scale * beta.variance,
        }
    }

    /// Walks the floating-point inner product `Σ a_k·b_k` exactly as the
    /// hardware would execute it (sequential accumulation) and returns the
    /// model's moments for the total rounding error `Δs_n` (Eq. 30–33),
    /// using the *actual* intermediate exponents rather than the closed-form
    /// upper bound — the paper's baseline for error classification
    /// (Section VI-C) and the "error function by-product" it mentions.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn inner_product_moments(&self, a: &[f64], b: &[f64]) -> Moments {
        assert_eq!(a.len(), b.len(), "inner product requires equal lengths");
        let beta_add = self.beta_add();
        let beta_mul = self.beta_mul();
        let mut total = Moments::ZERO;
        let mut s = 0.0f64;
        for (k, (&x, &y)) in a.iter().zip(b).enumerate() {
            let p = match self.mul_mode {
                MulMode::Separate => x * y,
                MulMode::Fused => x * y, // value identical; error model differs
            };
            if p != 0.0 {
                total = total.combine(self.epsilon_for_result(p, beta_mul));
            }
            s += p;
            // The first addition (k == 0) into a zero accumulator is exact.
            if k > 0 && s != 0.0 {
                total = total.combine(self.epsilon_for_result(s, beta_add));
            }
        }
        total
    }

    /// Model moments for a plain summation `Σ x_k` using the actual
    /// intermediate exponents (Eq. 18–26 with `E_k` from the data).
    pub fn sum_moments(&self, xs: &[f64]) -> Moments {
        let beta_add = self.beta_add();
        let mut total = Moments::ZERO;
        let mut s = 0.0f64;
        for (k, &x) in xs.iter().enumerate() {
            s += x;
            if k > 0 && s != 0.0 {
                total = total.combine(self.epsilon_for_result(s, beta_add));
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_match_paper() {
        let m = RoundingModel::binary64();
        let u2 = (2.0f64).powi(-106);
        assert_eq!(m.beta_add().mean, 0.0);
        assert!((m.beta_add().variance - u2 / 8.0).abs() < 1e-40);
        assert!((m.beta_mul().mean - u2 / 3.0).abs() < 1e-40);
        assert!((m.beta_mul().variance - u2 / 12.0).abs() < 1e-40);
    }

    #[test]
    fn fma_drops_multiplication_term() {
        let m = RoundingModel::binary64().with_fma();
        assert_eq!(m.beta_mul(), Moments::ZERO);
        // And the inner-product moments shrink accordingly.
        let a = vec![0.3; 100];
        let b = vec![0.7; 100];
        let sep = RoundingModel::binary64().inner_product_moments(&a, &b);
        let fma = m.inner_product_moments(&a, &b);
        assert!(fma.variance < sep.variance);
    }

    #[test]
    fn epsilon_scaling() {
        let m = RoundingModel::binary64();
        let beta = Moments { mean: 1.0, variance: 1.0 };
        // s* = 8 -> E = 3 -> mean scaled by 8, variance by 64.
        let eps = m.epsilon_for_result(8.0, beta);
        assert_eq!(eps.mean, 8.0);
        assert_eq!(eps.variance, 64.0);
        // Negative result flips the mean's sign.
        let eps = m.epsilon_for_result(-8.0, beta);
        assert_eq!(eps.mean, -8.0);
        assert_eq!(eps.variance, 64.0);
        // Zero result: no error.
        assert_eq!(m.epsilon_for_result(0.0, beta), Moments::ZERO);
    }

    #[test]
    fn moments_combine_additively() {
        let a = Moments { mean: 1.0, variance: 2.0 };
        let b = Moments { mean: -0.5, variance: 3.0 };
        let c = a.combine(b);
        assert_eq!(c.mean, 0.5);
        assert_eq!(c.variance, 5.0);
    }

    #[test]
    fn confidence_radius_scales_with_omega() {
        let m = Moments { mean: 0.0, variance: 4.0 };
        assert_eq!(m.confidence_radius(1.0), 2.0);
        assert_eq!(m.confidence_radius(3.0), 6.0);
    }

    #[test]
    fn inner_product_variance_grows_with_n() {
        let m = RoundingModel::binary64();
        let mk = |n: usize| {
            let a = vec![0.3; n];
            let b = vec![0.7; n];
            m.inner_product_moments(&a, &b).variance
        };
        assert!(mk(100) < mk(1000));
        assert!(mk(1000) < mk(10000));
    }

    #[test]
    fn model_covers_actual_error_most_of_the_time() {
        // 3 sigma of the model should upper-bound the actual rounding error
        // for the vast majority of random inner products.
        use crate::superacc::exact_dot;
        use rand::{Rng, SeedableRng};
        let m = RoundingModel::binary64();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut covered = 0;
        let trials = 200;
        for _ in 0..trials {
            let n = 256;
            let a: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let computed: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            let exact = exact_dot(&a, &b);
            let err = (computed - exact).abs();
            let mom = m.inner_product_moments(&a, &b);
            if err <= mom.confidence_radius(3.0) {
                covered += 1;
            }
        }
        assert!(
            covered as f64 >= 0.95 * trials as f64,
            "3-sigma coverage too low: {covered}/{trials}"
        );
    }

    #[test]
    fn sum_moments_zero_for_single_element() {
        let m = RoundingModel::binary64();
        assert_eq!(m.sum_moments(&[5.0]), Moments::ZERO);
        assert_eq!(m.sum_moments(&[]), Moments::ZERO);
    }

    #[test]
    fn truncation_has_nonzero_add_mean() {
        let m = RoundingModel::binary64().with_rounding(RoundingMode::Truncation);
        assert!(m.beta_add().mean > 0.0);
    }

    #[test]
    fn truncation_model_covers_truncated_dot_errors() {
        // Execute dot products on simulated truncating hardware and verify
        // the truncation model's data-driven moments cover the actual error
        // (the drift term dominates and must be accounted for).
        use crate::rounding::{add_with_mode, mul_with_mode};
        use crate::superacc::exact_dot;
        use rand::{Rng, SeedableRng};
        let model = RoundingModel::binary64().with_rounding(RoundingMode::Truncation);
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let mut covered = 0;
        let trials = 100;
        for _ in 0..trials {
            let n = 256;
            let a: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut s = 0.0;
            for (x, y) in a.iter().zip(&b) {
                let p = mul_with_mode(*x, *y, RoundingMode::Truncation);
                s = add_with_mode(s, p, RoundingMode::Truncation);
            }
            let err = (s - exact_dot(&a, &b)).abs();
            let mom = model.inner_product_moments(&a, &b);
            if err <= mom.confidence_radius(3.0) {
                covered += 1;
            }
        }
        assert!(covered >= 95, "truncation 3-sigma coverage: {covered}/{trials}");
    }
}
