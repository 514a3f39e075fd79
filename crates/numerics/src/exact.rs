//! Exact-arithmetic oracles.
//!
//! Convenience layer over [`crate::superacc`] exposing the quantities the
//! paper obtains from GMP: exact dot products and the *exact rounding error*
//! of a floating-point computation relative to its infinitely precise value
//! (used as ground truth in Tables II–IV and for fault classification).

use crate::superacc::accumulate_dot;

/// Exact rounding error of a sequentially computed floating-point dot
/// product: `fl(Σ a_k·b_k) − Σ a_k·b_k`, with the exact part correctly
/// rounded only at the very end of the subtraction.
///
/// Returns `(computed, error)` where `computed` is the plain left-to-right
/// floating-point result (the order the simulated GPU thread uses within a
/// dot product) and `error = computed − exact`, itself correctly rounded.
///
/// # Panics
///
/// Panics if the slices differ in length.
///
/// # Examples
///
/// ```
/// use aabft_numerics::exact::dot_rounding_error;
///
/// let a = [0.1, 0.2, 0.3];
/// let b = [0.4, 0.5, 0.6];
/// let (computed, err) = dot_rounding_error(&a, &b);
/// assert!((computed - 0.32).abs() < 1e-15);
/// assert!(err.abs() < 1e-15);
/// ```
pub fn dot_rounding_error(a: &[f64], b: &[f64]) -> (f64, f64) {
    assert_eq!(a.len(), b.len(), "dot product requires equal lengths");
    let computed: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let mut acc = accumulate_dot(a, b);
    // error = computed - exact: add computed, negate exact already inside.
    acc.negate();
    acc.add(computed);
    (computed, acc.round())
}

/// Exact rounding error of an already-computed value against the exact dot
/// product of `a`/`b` (use when the computed value came from elsewhere, e.g.
/// a blocked GPU-simulator kernel with a different summation order).
pub fn rounding_error_of(computed: f64, a: &[f64], b: &[f64]) -> f64 {
    let mut acc = accumulate_dot(a, b);
    acc.negate();
    acc.add(computed);
    acc.round()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn error_zero_for_exact_cases() {
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 5.0, 6.0];
        let (c, e) = dot_rounding_error(&a, &b);
        assert_eq!(c, 32.0);
        assert_eq!(e, 0.0);
    }

    #[test]
    fn error_detects_inexactness() {
        let a = [0.1; 32];
        let b = [0.1; 32];
        let (_, e) = dot_rounding_error(&a, &b);
        assert_ne!(e, 0.0);
        assert!(e.abs() < 1e-15);
    }

    #[test]
    fn error_is_small_relative_to_model() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let n = 512;
            let a: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let (computed, e) = dot_rounding_error(&a, &b);
            // |computed - exact| <= n * eps * sum|a_k b_k| (classic bound).
            let bound: f64 =
                n as f64 * f64::EPSILON * a.iter().zip(&b).map(|(x, y)| (x * y).abs()).sum::<f64>();
            assert!(e.abs() <= bound, "err {e} bound {bound} computed {computed}");
        }
    }

    #[test]
    fn rounding_error_of_matches_dot_rounding_error() {
        let a = [0.1, 0.7, -0.3, 0.9];
        let b = [0.2, -0.8, 0.4, 0.5];
        let (c, e) = dot_rounding_error(&a, &b);
        assert_eq!(rounding_error_of(c, &a, &b), e);
    }
}
