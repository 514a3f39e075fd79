//! Clean-path encode parity: the branch-free clean bodies of both encoding
//! kernels must write exactly what the instrumented bodies write — the
//! checksum lines, the p-max partial values and the partial indices, bit
//! for bit — including on ties, all-zero lines and a NaN element.

use aabft_core::encoding::AugmentedLayout;
use aabft_core::kernels::buffers::PMaxBuffers;
use aabft_core::kernels::encode::{EncodeColumnsKernel, EncodeRowsKernel};
use aabft_gpu_sim::device::Kernel;
use aabft_gpu_sim::{Device, DeviceBuffer};

/// An `n × n` operand drawn from three magnitudes of both signs (so every
/// scan meets ties, and checksums round differently if summed out of
/// order), with row 1 and column 2 all zero and one NaN.
fn operand(n: usize) -> Vec<f64> {
    const VALUES: [f64; 5] = [0.1, -0.3, 1.0 / 3.0, -0.1, 0.3];
    let mut m: Vec<f64> = (0..n * n)
        .map(|x| {
            let (i, j) = (x / n, x % n);
            VALUES[(i * 7 + j * 3) % 5]
        })
        .collect();
    for j in 0..n {
        m[n + j] = 0.0;
    }
    for i in 0..n {
        m[i * n + 2] = 0.0;
    }
    m[3 * n + 4] = f64::NAN;
    m
}

/// Bit patterns, so NaN compares equal to itself.
fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Launches `kernel` on a clean or a forced-instrumented device and checks
/// that the requested path ran.
fn launch(kernel: &(impl Kernel + ?Sized), grid: aabft_gpu_sim::GridDim, instrumented: bool) {
    let device = Device::with_defaults();
    device.set_force_instrumented(instrumented);
    device.launch(grid, kernel);
    assert_eq!(device.clean_path_launches() == 0, instrumented, "requested path must run");
}

/// `A` encode: the augmented operand and both partial buffers.
fn encode_a(n: usize, bs: usize, p: usize, instrumented: bool) -> [Vec<u64>; 3] {
    let rows = AugmentedLayout::new(n, bs, 1);
    let cols = n.div_ceil(bs) * bs;
    let a = DeviceBuffer::zeros(rows.total * cols);
    for (i, row) in operand(n).chunks_exact(n).enumerate() {
        a.write_slice(i * cols, row);
    }
    let pmax = PMaxBuffers::new(rows.total, cols / bs, p);
    let kernel = EncodeColumnsKernel::new(&a, &pmax, rows, cols);
    launch(&kernel, kernel.grid(), instrumented);
    [bits(&a.to_vec()), bits(&pmax.partial_vals.to_vec()), bits(&pmax.partial_idxs.to_vec())]
}

/// `B` encode: the augmented operand and both partial buffers.
fn encode_b(n: usize, bs: usize, p: usize, instrumented: bool) -> [Vec<u64>; 3] {
    let cols = AugmentedLayout::new(n, bs, 1);
    let rows = n.div_ceil(bs) * bs;
    let b = DeviceBuffer::zeros(rows * cols.total);
    for (i, row) in operand(n).chunks_exact(n).enumerate() {
        b.write_slice(i * cols.total, row);
    }
    let pmax = PMaxBuffers::new(cols.total, rows / bs, p);
    let kernel = EncodeRowsKernel::new(&b, &pmax, cols, rows);
    launch(&kernel, kernel.grid(), instrumented);
    [bits(&b.to_vec()), bits(&pmax.partial_vals.to_vec()), bits(&pmax.partial_idxs.to_vec())]
}

#[test]
fn clean_encodes_match_instrumented_bit_for_bit() {
    const PARTS: [&str; 3] = ["checksummed operand", "partial values", "partial indices"];
    for n in [64, 100, 257] {
        for bs in [4, 16, 32, 52] {
            for p in [1, 2, bs] {
                for (kernel, encode) in [("A", encode_a as fn(_, _, _, _) -> _), ("B", encode_b)] {
                    let clean = encode(n, bs, p, false);
                    let reference = encode(n, bs, p, true);
                    for (part, (c, r)) in PARTS.iter().zip(clean.iter().zip(&reference)) {
                        assert!(c == r, "encode {kernel}, n={n} bs={bs} p={p}: {part} differ");
                    }
                }
            }
        }
    }
}
