//! Validates the analytic launch-log predictions against the functional
//! simulator across many (n, BS, p, tiling) shapes — the guarantee that the
//! paper-scale Table I rows are derived from *exact* kernel work counts.

use aabft_baselines::{FixedBoundAbft, ProtectedGemm, SeaAbft, TmrGemm, UnprotectedGemm};
use aabft_bench::predict::{predict_launches, PredictShape, SchemeKind};
use aabft_core::{AAbftConfig, AAbftGemm};
use aabft_gpu_sim::device::Device;
use aabft_gpu_sim::kernels::gemm::GemmTiling;
use aabft_gpu_sim::stats::LaunchRecord;
use aabft_matrix::gen::InputClass;
use rand::SeedableRng;

fn measured(kind: SchemeKind, shape: &PredictShape, seed: u64) -> Vec<LaunchRecord> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let a = InputClass::UNIT.generate(shape.n, &mut rng);
    let b = InputClass::HUNDRED.generate(shape.n, &mut rng);
    let device = Device::with_defaults();
    match kind {
        SchemeKind::Unprotected => {
            UnprotectedGemm::new().with_tiling(shape.tiling).multiply(&device, &a, &b);
        }
        SchemeKind::Tmr => {
            TmrGemm::new().with_tiling(shape.tiling).multiply(&device, &a, &b);
        }
        SchemeKind::Abft => {
            FixedBoundAbft::new(1e-8, shape.bs).with_tiling(shape.tiling).multiply(&device, &a, &b);
        }
        SchemeKind::SeaAbft => {
            SeaAbft::new(shape.bs).with_tiling(shape.tiling).multiply(&device, &a, &b);
        }
        SchemeKind::AAbft => {
            AAbftGemm::new(
                AAbftConfig::builder()
                    .block_size(shape.bs)
                    .p(shape.p)
                    .tiling(shape.tiling)
                    .build().expect("valid config"),
            )
            .multiply(&device, &a, &b);
        }
    }
    device.take_log()
}

fn assert_match(kind: SchemeKind, shape: &PredictShape, seed: u64) {
    let predicted = predict_launches(kind, shape);
    let actual = measured(kind, shape, seed);
    assert_eq!(predicted.len(), actual.len(), "{kind:?} {shape:?}: launch count");
    for (p, a) in predicted.iter().zip(&actual) {
        assert_eq!(p.name, a.name, "{kind:?} {shape:?}");
        assert_eq!(p.utilization, a.utilization, "{kind:?} {shape:?} / {}", p.name);
        assert_eq!(p.stats, a.stats, "{kind:?} {shape:?} / {}", p.name);
    }
}

const ALL: [SchemeKind; 5] = [
    SchemeKind::Unprotected,
    SchemeKind::Tmr,
    SchemeKind::Abft,
    SchemeKind::SeaAbft,
    SchemeKind::AAbft,
];

#[test]
fn exact_shapes() {
    // n a clean multiple of everything.
    let shape = PredictShape {
        n: 64,
        bs: 16,
        p: 2,
        tiling: GemmTiling { bm: 16, bn: 16, bk: 8, rx: 4, ry: 4 },
    };
    for kind in ALL {
        assert_match(kind, &shape, 1);
    }
}

#[test]
fn padded_shapes() {
    // n requiring padding at every level.
    let shape = PredictShape {
        n: 50,
        bs: 8,
        p: 3,
        tiling: GemmTiling { bm: 16, bn: 16, bk: 4, rx: 2, ry: 4 },
    };
    for kind in ALL {
        assert_match(kind, &shape, 2);
    }
}

#[test]
fn default_tiling_small_bs() {
    let shape = PredictShape { n: 128, bs: 32, p: 2, tiling: GemmTiling::default() };
    for kind in ALL {
        assert_match(kind, &shape, 3);
    }
}

#[test]
fn large_p() {
    let shape = PredictShape {
        n: 48,
        bs: 12,
        p: 8,
        tiling: GemmTiling { bm: 24, bn: 24, bk: 6, rx: 3, ry: 3 },
    };
    assert_match(SchemeKind::AAbft, &shape, 4);
}

#[test]
fn asymmetric_register_tiles() {
    let shape = PredictShape {
        n: 40,
        bs: 10,
        p: 2,
        tiling: GemmTiling { bm: 8, bn: 20, bk: 5, rx: 2, ry: 5 },
    };
    for kind in ALL {
        assert_match(kind, &shape, 5);
    }
}
