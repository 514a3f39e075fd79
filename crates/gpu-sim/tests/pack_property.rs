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
fn packed_engine_bit_identical_across_k_chunks() {
    // The packed engine walks k in 256-deep chunks, parking each
    // micro-tile's accumulators between them: two full chunks plus a
    // partial one must still match the instrumented bits in both modes.
    let tiling = GemmTiling::default();
    let (a, b) = inputs(64, 520 + 8, 64);
    for mode in [MulMode::Separate, MulMode::Fused] {
        let reference = run_gemm(&a, &b, tiling, mode, None);
        let packed = run_gemm(&a, &b, tiling, mode, Some(CleanEngine::Packed));
        assert_eq!(packed, reference, "{mode:?}: packed engine must match instrumented bits");
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
    // A launch checks one pack buffer out, shares it between all of its
    // workers and returns it when its last block is done; the next launch
    // (of this kernel or another) takes the parked buffer instead of
    // allocating, so the pool never holds more than one.
    let kernel = GemmKernel::new(&da, &db, &dc, 16, 16, 16, tiling)
        .with_clean_engine(CleanEngine::Packed)
        .with_pack_pool(&pool);
    for launch in 1..=25 {
        device.launch(kernel.grid(), &kernel);
        assert_eq!(pool.len(), 1, "launch {launch}: one pack buffer, reused and returned");
    }
    for launch in 1..=25 {
        let kernel = GemmKernel::new(&da, &db, &dc, 16, 16, 16, tiling)
            .with_clean_engine(CleanEngine::Packed)
            .with_pack_pool(&pool);
        device.launch(kernel.grid(), &kernel);
        assert_eq!(pool.len(), 1, "fresh kernel {launch}: the parked buffer is reused");
    }
}

#[test]
fn relaunch_after_rewriting_an_operand_multiplies_the_new_values() {
    let n = 64;
    let da = DeviceBuffer::from_vec(vec![1.0; n * n]);
    let db = DeviceBuffer::from_vec(vec![1.0; n * n]);
    let dc = DeviceBuffer::zeros(n * n);
    let device = Device::with_defaults();
    let kernel = GemmKernel::new(&da, &db, &dc, n, n, n, GemmTiling::default())
        .with_clean_engine(CleanEngine::Packed);
    device.launch(kernel.grid(), &kernel);
    assert_eq!(dc.get(0), 64.0);
    // Panels are valid for one launch only: the relaunch must re-pack the
    // rewritten A rather than multiply the panels of the first launch.
    da.write_slice(0, &vec![2.0; n * n]);
    dc.clear();
    device.launch(kernel.grid(), &kernel);
    assert_eq!(dc.get(0), 128.0, "relaunch multiplied stale panels");
    assert!(dc.to_vec().iter().all(|&c| c == 128.0));
}

#[test]
fn each_panel_group_is_packed_once_per_launch_under_any_worker_count() {
    // 3 block rows of A and 5 block columns of B: 8 panel groups a launch,
    // whichever worker reaches each group first packs it for all of them.
    // Ragged micro-tiles (12 = 8 + 4 rows, 20 = 2·8 + 4 columns) and a
    // depth of two full 256-deep k-chunks plus a partial one.
    let tiling = GemmTiling { bm: 12, bn: 20, bk: 4, rx: 4, ry: 4 };
    let (m, n, q) = (3 * tiling.bm, 520, 5 * tiling.bn);
    let groups = (m / tiling.bm + q / tiling.bn) as u64;
    let (a, b) = inputs(m, n, q);
    let run_with = |workers: usize| {
        let threads = rayon::ThreadPoolBuilder::new().num_threads(workers).build().unwrap();
        threads.install(|| {
            let device = Device::with_defaults();
            let da = DeviceBuffer::from_matrix(&a);
            let db = DeviceBuffer::from_matrix(&b);
            let dc = DeviceBuffer::zeros(m * q);
            let pool = PackPool::new();
            let kernel = GemmKernel::new(&da, &db, &dc, m, n, q, tiling)
                .with_clean_engine(CleanEngine::Packed)
                .with_pack_pool(&pool);
            for launch in 1..=3 {
                dc.clear();
                device.launch(kernel.grid(), &kernel);
                assert_eq!(
                    pool.panel_packs(),
                    launch * groups,
                    "{workers} workers, launch {launch}: each group packed exactly once"
                );
            }
            dc.to_vec()
        })
    };
    let reference = run_with(1);
    for workers in [2, 4] {
        assert_eq!(run_with(workers), reference, "product bits under {workers} workers");
    }
    let (da, db) = (DeviceBuffer::from_matrix(&a), DeviceBuffer::from_matrix(&b));
    let dc = DeviceBuffer::zeros(m * q);
    let device = Device::with_defaults();
    device.set_force_instrumented(true);
    let kernel = GemmKernel::new(&da, &db, &dc, m, n, q, tiling);
    device.launch(kernel.grid(), &kernel);
    assert_eq!(dc.to_vec(), reference, "instrumented reference bits");
}
