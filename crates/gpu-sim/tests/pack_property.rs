//! Property tests for the packed clean-path GEMM engine (DESIGN §12).
//!
//! The packed engine re-tiles every block into 8×8 microtiles over packed
//! panels, so its correctness burden is the *edge* geometry: block shapes
//! the microkernel does not divide, panels narrower than a full microtile,
//! and degenerate one-row/one-column blocks. For every such tiling the
//! packed engine, the scalar engine and the instrumented reference path
//! must produce bit-identical products — the per-accumulator k-order is
//! part of the kernel's contract, not an implementation detail.

use aabft_gpu_sim::kernels::gemm::{GemmKernel, GemmTiling};
use aabft_gpu_sim::mem::DeviceBuffer;
use aabft_gpu_sim::pack::{self, PackPool};
use aabft_gpu_sim::{CleanEngine, Device};
use aabft_matrix::Matrix;
use aabft_numerics::MulMode;
use proptest::prelude::*;

fn inputs(m: usize, n: usize, q: usize) -> (Matrix<f64>, Matrix<f64>) {
    let a = Matrix::from_fn(m, n, |i, j| ((i * 13 + j * 7) as f64 * 0.011).sin());
    let b = Matrix::from_fn(n, q, |i, j| ((i * 3 + j * 17) as f64 * 0.019).cos());
    (a, b)
}

/// One GEMM launch with the requested engine (None = instrumented
/// reference); returns the raw C buffer.
fn run_gemm(
    a: &Matrix<f64>,
    b: &Matrix<f64>,
    tiling: GemmTiling,
    mode: MulMode,
    engine: Option<CleanEngine>,
) -> Vec<f64> {
    let (m, n, q) = (a.rows(), a.cols(), b.cols());
    let device = Device::with_defaults();
    let da = DeviceBuffer::from_matrix(a);
    let db = DeviceBuffer::from_matrix(b);
    let dc = DeviceBuffer::zeros(m * q);
    let mut kernel = GemmKernel::new(&da, &db, &dc, m, n, q, tiling).with_mul_mode(mode);
    match engine {
        Some(e) => kernel = kernel.with_clean_engine(e),
        None => device.set_force_instrumented(true),
    }
    device.launch(kernel.grid(), &kernel);
    dc.to_vec()
}

proptest! {
    #[test]
    fn packed_engine_bit_identical_across_edge_tilings(
        // Block shapes chosen so the 8×8 microkernel sees every edge case:
        // ragged edges in both dimensions (12 = 8+4, 20 = 2·8+4), whole
        // blocks smaller than one microtile (4×4), an exact single
        // microtile (8×8), and a tall-narrow mix.
        tiling in prop_oneof![
            Just(GemmTiling { bm: 12, bn: 20, bk: 4, rx: 4, ry: 4 }),
            Just(GemmTiling { bm: 4, bn: 4, bk: 2, rx: 2, ry: 2 }),
            Just(GemmTiling { bm: 8, bn: 8, bk: 8, rx: 4, ry: 4 }),
            Just(GemmTiling { bm: 24, bn: 8, bk: 4, rx: 2, ry: 4 }),
            Just(GemmTiling::default()),
        ],
        mi in 1usize..4,
        ki in 1usize..5,
        qi in 1usize..4,
        mode in prop_oneof![Just(MulMode::Separate), Just(MulMode::Fused)],
    ) {
        let tiling: GemmTiling = tiling;
        let (m, n, q) = (tiling.bm * mi, tiling.bk * ki, tiling.bn * qi);
        let (a, b) = inputs(m, n, q);
        let reference = run_gemm(&a, &b, tiling, mode, None);
        let packed = run_gemm(&a, &b, tiling, mode, Some(CleanEngine::Packed));
        let scalar = run_gemm(&a, &b, tiling, mode, Some(CleanEngine::Scalar));
        prop_assert_eq!(&packed, &reference, "packed engine must match instrumented bits");
        prop_assert_eq!(&scalar, &reference, "scalar engine must match instrumented bits");
    }
}

#[test]
fn packed_engine_reports_telemetry() {
    let before = pack::packed_blocks();
    let (a, b) = inputs(16, 16, 16);
    let tiling = GemmTiling { bm: 8, bn: 8, bk: 4, rx: 2, ry: 2 };
    run_gemm(&a, &b, tiling, MulMode::Separate, Some(CleanEngine::Packed));
    assert!(pack::packed_blocks() > before, "packed blocks counter must advance");
}

#[test]
fn pack_pool_buffers_survive_across_launches() {
    let (a, b) = inputs(16, 16, 16);
    let tiling = GemmTiling { bm: 8, bn: 8, bk: 4, rx: 2, ry: 2 };
    let device = Device::with_defaults();
    let da = DeviceBuffer::from_matrix(&a);
    let db = DeviceBuffer::from_matrix(&b);
    let dc = DeviceBuffer::zeros(16 * 16);
    let pool = PackPool::new();
    let kernel = GemmKernel::new(&da, &db, &dc, 16, 16, 16, tiling)
        .with_clean_engine(CleanEngine::Packed)
        .with_pack_pool(&pool);
    // How many workers hold a buffer at once varies from launch to launch,
    // so bound the allocations rather than pin the pool's length. A block
    // allocates only when every buffer is checked out, and every checkout
    // is returned, so the parked count is the number of allocations.
    let workers = rayon::current_num_threads();
    let launches = 50;
    for launch in 1..=launches {
        device.launch(kernel.grid(), &kernel);
        let allocations = pool.len();
        assert!(allocations > 0, "workers must return their pack buffers to the pool");
        assert!(
            allocations <= workers,
            "launch {launch}: {allocations} allocations for {workers} workers"
        );
    }
    let checkouts = launches * kernel.grid().block_count();
    assert!(pool.len() < checkouts, "relaunching must reuse pooled buffers");
}
