//! Property-based tests (proptest) on the core invariants:
//! exact-arithmetic oracles, error-free transforms, p-max upper bounds,
//! checksum encodings and the no-false-positive guarantee of the bounds.

use aabft::core::bounds::checksum_epsilon;
use aabft::core::encoding::{encode_columns, encode_rows};
use aabft::core::pmax::{upper_bound_y, PMaxTable};
use aabft::numerics::eft::{two_prod, two_sum};
use aabft::numerics::exact::dot_rounding_error;
use aabft::numerics::expansion::{dot_expansion, Expansion};
use aabft::numerics::superacc::{exact_dot, exact_sum, Superaccumulator};
use aabft::numerics::RoundingModel;
use aabft::matrix::Matrix;
use proptest::prelude::*;

/// Finite, not-too-extreme doubles (products must stay in range).
fn moderate_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        -1e100..1e100f64,
        -1.0..1.0f64,
        Just(0.0),
        Just(1.0),
        Just(-1.0),
    ]
}

fn small_vec_pair() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (1usize..50).prop_flat_map(|n| {
        (
            prop::collection::vec(-1e3..1e3f64, n),
            prop::collection::vec(-1e3..1e3f64, n),
        )
    })
}

proptest! {
    #[test]
    fn two_sum_reconstructs_exactly(a in moderate_f64(), b in moderate_f64()) {
        let (s, e) = two_sum(a, b);
        // Verify with the superaccumulator: a + b - s - e == 0 exactly.
        let mut acc = Superaccumulator::new();
        acc.add(a);
        acc.add(b);
        acc.sub(s);
        acc.sub(e);
        prop_assert!(acc.is_zero(), "a={a:e} b={b:e} s={s:e} e={e:e}");
    }

    #[test]
    fn two_prod_reconstructs_exactly(a in -1e100..1e100f64, b in -1e100..1e100f64) {
        // (avoid the subnormal regime where EFT products lose exactness)
        prop_assume!(a == 0.0 || b == 0.0 || (a * b).abs() > 1e-280);
        let (p, e) = two_prod(a, b);
        let mut acc = Superaccumulator::new();
        acc.add_product(a, b);
        acc.sub(p);
        acc.sub(e);
        prop_assert!(acc.is_zero(), "a={a:e} b={b:e}");
    }

    #[test]
    fn superacc_sum_is_order_independent((xs, _) in small_vec_pair()) {
        let forward = exact_sum(&xs);
        let mut rev = xs.clone();
        rev.reverse();
        prop_assert_eq!(forward, exact_sum(&rev));
    }

    #[test]
    fn superacc_matches_expansion_dot((a, b) in small_vec_pair()) {
        prop_assert_eq!(exact_dot(&a, &b), dot_expansion(&a, &b).estimate());
    }

    #[test]
    fn expansion_add_is_exact(xs in prop::collection::vec(-1e50..1e50f64, 1..30)) {
        let e: Expansion = xs.iter().copied().collect();
        let mut acc = Superaccumulator::new();
        for &x in &xs {
            acc.add(x);
        }
        prop_assert_eq!(e.estimate(), acc.round());
    }

    #[test]
    fn aabft_bound_covers_actual_dot_error((a, b) in small_vec_pair()) {
        let n = a.len();
        let (_, err) = dot_rounding_error(&a, &b);
        let am = Matrix::from_vec(1, n, a.clone());
        let bm = Matrix::from_vec(n, 1, b.clone());
        let ta = PMaxTable::of_rows(&am, 1);
        let tb = PMaxTable::of_cols(&bm, 1);
        let y = upper_bound_y(ta.values(0), ta.indices(0), tb.values(0), tb.indices(0));
        let eps = checksum_epsilon(n, y, 3.0, &RoundingModel::binary64());
        // 3-sigma is probabilistic, but for n <= 50 the closed form is far
        // above any single dot product's error.
        prop_assert!(err.abs() <= eps.max(1e-300) || err == 0.0,
            "err {err:e} above eps {eps:e} (n={n}, y={y:e})");
    }

    #[test]
    fn pmax_y_bounds_every_product((a, b) in small_vec_pair(), p in 1usize..6) {
        let n = a.len();
        prop_assume!(p <= n);
        let am = Matrix::from_vec(1, n, a.clone());
        let bm = Matrix::from_vec(n, 1, b.clone());
        let ta = PMaxTable::of_rows(&am, p);
        let tb = PMaxTable::of_cols(&bm, p);
        let y = upper_bound_y(ta.values(0), ta.indices(0), tb.values(0), tb.indices(0));
        let true_max = a.iter().zip(&b).map(|(x, v)| (x * v).abs()).fold(0.0f64, f64::max);
        prop_assert!(y >= true_max * (1.0 - 1e-15), "y={y:e} < max={true_max:e}");
    }

    #[test]
    fn encoding_checksums_are_exact_sums(
        n in 1usize..5,
        seed in 0u64..1000,
    ) {
        let bs = 4;
        let dim = n * bs;
        let mut state = seed;
        let a: Matrix = Matrix::from_fn(dim, dim, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 13) as f64 / (1u64 << 51) as f64) - 1.0
        });
        let acc = encode_columns(&a, bs, 1, 1);
        // Every checksum element equals the float sum of its block column.
        for block in 0..acc.rows.blocks {
            for j in 0..dim {
                let mut s = 0.0;
                for i in block * bs..(block + 1) * bs {
                    s += a[(i, j)];
                }
                prop_assert_eq!(acc.matrix[(acc.rows.checksum_line(block), j)], s);
            }
        }
        let brc = encode_rows(&a, bs, 1, 1);
        for block in 0..brc.cols.blocks {
            for i in 0..dim {
                let mut s = 0.0;
                for j in block * bs..(block + 1) * bs {
                    s += a[(i, j)];
                }
                prop_assert_eq!(brc.matrix[(i, brc.cols.checksum_line(block))], s);
            }
        }
    }

    #[test]
    fn superacc_linear_combination(
        (a, b) in small_vec_pair(),
        scale in -100.0..100.0f64,
    ) {
        // exact_dot(scale*a, b) == correctly rounded scale-free combination
        // computed through the accumulator (homogeneity check at the exact
        // level: accumulate products of scaled values directly).
        let scaled: Vec<f64> = a.iter().map(|x| x * scale).collect();
        let mut acc1 = Superaccumulator::new();
        for (x, y) in scaled.iter().zip(&b) {
            acc1.add_product(*x, *y);
        }
        let mut acc2 = Superaccumulator::new();
        for (x, y) in a.iter().zip(&b) {
            // (x*scale) rounds once; accumulate the same rounded factor.
            acc2.add_product(x * scale, *y);
        }
        prop_assert_eq!(acc1.round(), acc2.round());
    }
}

#[test]
fn proptest_regression_superacc_tie() {
    // Deterministic check of a historically tricky tie case.
    let mut acc = Superaccumulator::new();
    acc.add(f64::MIN_POSITIVE);
    acc.add(-f64::MIN_POSITIVE / 2.0);
    assert_eq!(acc.round(), f64::MIN_POSITIVE / 2.0);
}
