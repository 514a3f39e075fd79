//! Table I support: GFLOPS of every scheme across matrix sizes.
//!
//! Two modes: *modelled* (analytic launch logs through the roofline model,
//! usable at the paper's full 512–8192 sweep) and *simulated* (actually run
//! the schemes on the functional simulator at feasible sizes; the launch
//! logs are then measured, not predicted — `predict` is unit-tested to
//! match them exactly).

use crate::predict::{predict_launches, PredictShape, SchemeKind};
use aabft_baselines::{FixedBoundAbft, ProtectedGemm, SeaAbft, TmrGemm, UnprotectedGemm};
use aabft_core::{AAbftConfig, AAbftGemm};
use aabft_gpu_sim::device::Device;
use aabft_gpu_sim::kernels::gemm::GemmTiling;
use aabft_gpu_sim::perf::PerfModel;
use aabft_matrix::gen::InputClass;
use rand::SeedableRng;

/// One row of Table I: GFLOPS per scheme at one matrix size.
#[derive(Debug, Clone, Copy)]
pub struct Table1Row {
    /// Matrix dimension.
    pub n: usize,
    /// Fixed-bound ABFT.
    pub abft: f64,
    /// A-ABFT.
    pub aabft: f64,
    /// SEA-ABFT.
    pub sea: f64,
    /// TMR.
    pub tmr: f64,
    /// Unprotected reference.
    pub unprotected: f64,
}

/// Useful FLOPs of the caller's `n³` multiplication.
fn useful_flops(n: usize) -> u64 {
    2 * (n as u64).pow(3)
}

/// Computes a Table I row from analytic launch logs.
pub fn modelled_row(n: usize, bs: usize, p: usize, tiling: GemmTiling) -> Table1Row {
    let model = PerfModel::k20c();
    let shape = PredictShape { n, bs, p, tiling };
    let g = |kind| model.gflops(useful_flops(n), &predict_launches(kind, &shape));
    Table1Row {
        n,
        abft: g(SchemeKind::Abft),
        aabft: g(SchemeKind::AAbft),
        sea: g(SchemeKind::SeaAbft),
        tmr: g(SchemeKind::Tmr),
        unprotected: g(SchemeKind::Unprotected),
    }
}

/// Computes a Table I row by running every scheme on the simulator and
/// modelling time from the *measured* launch log.
pub fn simulated_row(n: usize, bs: usize, p: usize, tiling: GemmTiling, seed: u64) -> Table1Row {
    let model = PerfModel::k20c();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let a = InputClass::UNIT.generate(n, &mut rng);
    let b = InputClass::UNIT.generate(n, &mut rng);

    let run = |scheme: &dyn ProtectedGemm| {
        let device = Device::with_defaults();
        scheme.multiply(&device, &a, &b);
        model.gflops(useful_flops(n), &device.take_log())
    };

    Table1Row {
        n,
        abft: run(&FixedBoundAbft::new(1e-9, bs).with_tiling(tiling)),
        aabft: run(&AAbftGemm::new(
            AAbftConfig::builder().block_size(bs).p(p).tiling(tiling).build().expect("valid config"),
        )),
        sea: run(&SeaAbft::new(bs).with_tiling(tiling)),
        tmr: run(&TmrGemm::new().with_tiling(tiling)),
        unprotected: run(&UnprotectedGemm::new().with_tiling(tiling)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modelled_ordering_matches_paper_at_large_n() {
        let t = GemmTiling::default();
        let row = modelled_row(8192, 32, 2, t);
        // Paper Table I ordering: unprotected > ABFT > A-ABFT > SEA > TMR.
        assert!(row.unprotected > row.abft, "{row:?}");
        assert!(row.abft > row.aabft, "{row:?}");
        assert!(row.aabft > row.sea, "{row:?}");
        assert!(row.sea > row.tmr, "{row:?}");
        // TMR lands near a third of unprotected.
        let ratio = row.tmr / row.unprotected;
        assert!((0.25..0.37).contains(&ratio), "TMR/unprotected = {ratio}");
    }

    #[test]
    fn aabft_gap_closes_with_n() {
        let t = GemmTiling::default();
        let small = modelled_row(512, 32, 2, t);
        let large = modelled_row(8192, 32, 2, t);
        let gap_small = small.aabft / small.abft;
        let gap_large = large.aabft / large.abft;
        assert!(
            gap_large > gap_small,
            "A-ABFT/ABFT should converge: {gap_small} -> {gap_large}"
        );
        assert!(gap_large > 0.93, "gap at 8192 should be small: {gap_large}");
    }

    #[test]
    fn simulated_and_modelled_agree() {
        // The prediction formulas are exact; both paths must produce the
        // same GFLOPS at a simulator-feasible size.
        let t = GemmTiling { bm: 16, bn: 16, bk: 8, rx: 4, ry: 4 };
        let m = modelled_row(64, 8, 2, t);
        let s = simulated_row(64, 8, 2, t, 9);
        for (a, b) in [
            (m.abft, s.abft),
            (m.aabft, s.aabft),
            (m.sea, s.sea),
            (m.tmr, s.tmr),
            (m.unprotected, s.unprotected),
        ] {
            assert!((a - b).abs() < 1e-9 * a.max(1.0), "modelled {a} vs simulated {b}");
        }
    }
}
