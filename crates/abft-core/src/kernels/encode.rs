//! Checksum-encoding kernels fused with the p-max search — the simulator
//! counterpart of the paper's Algorithm 1.
//!
//! One `BS × 1`-thread block processes one `BS × BS` sub-matrix: it first
//! accumulates the block's checksum line (replacing visited elements by
//! their absolute values in shared memory, Fig. 2), then performs `p`
//! scan-and-zero rounds to extract the largest absolute values and their
//! indices per line, including the checksum line itself (Fig. 3). Partials
//! land in [`PMaxBuffers`] for the subsequent reduction.

use super::buffers::PMaxBuffers;
use crate::encoding::AugmentedLayout;
use aabft_gpu_sim::device::{BlockCtx, Kernel};
use aabft_gpu_sim::dim::{BlockIdx, GridDim};
use aabft_gpu_sim::mem::{DeviceBuffer, SharedTile};
use aabft_gpu_sim::stats::KernelStats;
use std::cell::RefCell;

/// Modelled utilization of the `BS × 1`-thread encoding kernels: low
/// occupancy and strided access keep them far from peak (the paper's
/// motivation for fusing them with the p-max search).
pub const ENCODE_UTILIZATION: f64 = 0.008;

/// Per-worker-thread encode scratch (the `BS × BS` absolute-value tile, the
/// checksum accumulators and the checksum-line copy), reused across blocks
/// instead of reallocated per `run_block`.
#[derive(Debug)]
struct EncodeScratch {
    tile: SharedTile,
    sums: Vec<f64>,
    cs_abs: Vec<f64>,
}

impl EncodeScratch {
    const fn new() -> Self {
        EncodeScratch { tile: SharedTile::empty(), sums: Vec::new(), cs_abs: Vec::new() }
    }

    fn reset(&mut self, bs: usize) {
        self.tile.reset(bs, bs);
        self.sums.clear();
        self.sums.resize(bs, 0.0);
    }
}

/// The clean bodies' per-worker scratch: the absolute-value tile in scan
/// lane order, the checksum accumulators, the checksum-line copy, one
/// staged block row and the per-lane scan state. Every field is fully
/// rewritten per block, so reuse needs no zeroing pass.
#[derive(Debug, Default)]
struct CleanScratch {
    tile: Vec<f64>,
    sums: Vec<f64>,
    cs_abs: Vec<f64>,
    row: Vec<f64>,
    max_val: Vec<f64>,
    max_at: Vec<usize>,
}

impl CleanScratch {
    /// Sizes the tile and row for a `bs × bs` block and zeroes the sums.
    fn reset(&mut self, bs: usize) {
        self.tile.resize(bs * bs, 0.0);
        self.row.resize(bs, 0.0);
        self.sums.clear();
        self.sums.resize(bs, 0.0);
    }
}

thread_local! {
    static SCRATCH: RefCell<EncodeScratch> = const { RefCell::new(EncodeScratch::new()) };
    static CLEAN: RefCell<CleanScratch> = RefCell::new(CleanScratch::default());
}

/// One clean-path scan-and-zero round over a `bs × bs` absolute-value
/// tile whose lane `l` (the line a thread owns) reads its step-`s` element
/// at `tile[s·bs + l]`: finds every lane's first maximum and its step with
/// branch-free selects across the lanes, then zeroes it in the tile. The
/// select `v > max` is the instrumented scan's `max.max(v) > max`: the
/// running max starts at 0.0 and so never becomes NaN, and a NaN `v`
/// fails both tests.
fn scan_and_zero(tile: &mut [f64], bs: usize, max_val: &mut Vec<f64>, max_at: &mut Vec<usize>) {
    max_val.clear();
    max_val.resize(bs, 0.0);
    max_at.clear();
    max_at.resize(bs, 0);
    for (step, lanes) in tile.chunks_exact(bs).enumerate() {
        for ((max, at), &v) in max_val.iter_mut().zip(max_at.iter_mut()).zip(lanes) {
            let gt = v > *max;
            *max = if gt { v } else { *max };
            *at = if gt { step } else { *at };
        }
    }
    for (lane, &at) in max_at.iter().enumerate() {
        tile[at * bs + lane] = 0.0;
    }
}

/// The first maximum of a checksum line's absolute values and its
/// position, zeroed afterwards (the clean form of the instrumented
/// checksum-line scan).
fn take_line_max(cs_abs: &mut [f64]) -> (f64, usize) {
    let (mut max_val, mut max_at) = (0.0f64, 0usize);
    for (j, &v) in cs_abs.iter().enumerate() {
        if v > max_val {
            max_val = v;
            max_at = j;
        }
    }
    cs_abs[max_at] = 0.0;
    (max_val, max_at)
}

/// Closed-form per-block stats of either encoding kernel: one add + one abs
/// per element, then `p` scan-and-zero rounds over the tile and the checksum
/// line (derivation in DESIGN.md §11).
fn encode_block_stats(stats: &mut KernelStats, bs: u64, p: u64) {
    stats.threads += bs;
    stats.gmem_loads += bs * bs;
    stats.gmem_stores += bs + p * (2 * bs + 2);
    stats.fadd += bs * bs;
    stats.fcmp += bs * bs + p * (bs * bs + bs);
    stats.smem_accesses += bs * bs + bs + p * bs * bs;
    stats.fpu_ticks += 2 * bs * bs + p * (bs * bs + bs);
}

/// Encoding kernel for the `A` operand: writes the per-block-row column
/// checksums into the augmented matrix and emits p-max partials per
/// augmented row (Algorithm 1).
#[derive(Debug)]
pub struct EncodeColumnsKernel<'a> {
    a: &'a DeviceBuffer,
    pmax: &'a PMaxBuffers,
    rows: AugmentedLayout,
    cols: usize,
}

impl<'a> EncodeColumnsKernel<'a> {
    /// Creates the kernel over the augmented `A` buffer (`rows.total ×
    /// cols`, data present, checksum rows to be written).
    ///
    /// # Panics
    ///
    /// Panics if buffer/layout extents are inconsistent.
    pub fn new(a: &'a DeviceBuffer, pmax: &'a PMaxBuffers, rows: AugmentedLayout, cols: usize) -> Self {
        assert_eq!(a.len(), rows.total * cols, "A buffer size mismatch");
        assert_eq!(cols % rows.block_size, 0, "cols must be a multiple of BS");
        assert_eq!(pmax.blocks, cols / rows.block_size, "pmax blocks mismatch");
        assert!(pmax.lines >= rows.data + rows.blocks, "pmax lines too small");
        EncodeColumnsKernel { a, pmax, rows, cols }
    }

    /// Launch grid: one block per `BS × BS` sub-matrix of the data region.
    pub fn grid(&self) -> GridDim {
        GridDim::new(self.cols / self.rows.block_size, self.rows.blocks)
    }
}

impl Kernel for EncodeColumnsKernel<'_> {
    fn name(&self) -> &'static str {
        "aabft_encode_a"
    }
    fn phase(&self) -> &'static str {
        "encode"
    }

    fn utilization(&self) -> f64 {
        ENCODE_UTILIZATION
    }

    fn run_block(&self, ctx: &mut BlockCtx<'_>) {
        let bs = self.rows.block_size;
        let block_i = ctx.block().y;
        let block_k = ctx.block().x;
        let (row0, col0) = (block_i * bs, block_k * bs);
        ctx.declare_threads(bs);

        SCRATCH.with(|scratch| {
        let mut scratch = scratch.borrow_mut();
        scratch.reset(bs);
        let EncodeScratch { tile, sums, cs_abs } = &mut *scratch;

        // Phase 1 (Fig. 2): accumulate column checksums top to bottom,
        // replacing visited elements by their absolute values in shared
        // memory. Thread `tid` owns column `col0 + tid`.
        for i in 0..bs {
            for (tid, sum) in sums.iter_mut().enumerate() {
                let v = ctx.load(self.a, (row0 + i) * self.cols + col0 + tid);
                *sum = ctx.add(*sum, v);
                tile.set(i, tid, ctx.abs(v));
            }
        }
        ctx.note_smem((bs * bs) as u64);
        for (tid, &sum) in sums.iter().enumerate() {
            ctx.store(self.a, self.rows.checksum_line(block_i) * self.cols + col0 + tid, sum);
        }

        // Phase 2 (Fig. 3): p rounds of scan-and-zero per row; thread `tid`
        // owns row `row0 + tid`. The checksum line participates through its
        // absolute values (Alg. 1's `localSums` / `maxSum`).
        cs_abs.clear();
        cs_abs.extend(sums.iter().map(|&s| s.abs()));
        ctx.note_smem(bs as u64);
        for slot in 0..self.pmax.p {
            for tid in 0..bs {
                let mut max_val = 0.0f64;
                let mut max_j = 0usize;
                for j in 0..bs {
                    let v = tile.get(tid, j);
                    if ctx.max(max_val, v) > max_val {
                        max_val = v;
                        max_j = j;
                    }
                }
                let line = row0 + tid;
                let pi = self.pmax.partial_index(line, block_k, slot);
                ctx.store(&self.pmax.partial_vals, pi, max_val);
                ctx.store(&self.pmax.partial_idxs, pi, (col0 + max_j) as f64);
                tile.set(tid, max_j, 0.0);
            }
            ctx.note_smem((bs * bs) as u64);
            // Checksum line's own max (maxReduce over localSums in Alg. 1).
            let mut max_val = 0.0f64;
            let mut max_j = 0usize;
            for (j, &v) in cs_abs.iter().enumerate() {
                if ctx.max(max_val, v) > max_val {
                    max_val = v;
                    max_j = j;
                }
            }
            let line = self.rows.checksum_line(block_i);
            let pi = self.pmax.partial_index(line, block_k, slot);
            ctx.store(&self.pmax.partial_vals, pi, max_val);
            ctx.store(&self.pmax.partial_idxs, pi, (col0 + max_j) as f64);
            cs_abs[max_j] = 0.0;
        }
        });
    }

    fn supports_clean_path(&self) -> bool {
        true
    }

    fn run_block_clean(&self, block: BlockIdx, stats: &mut KernelStats) {
        let bs = self.rows.block_size;
        let block_i = block.y;
        let block_k = block.x;
        let (row0, col0) = (block_i * bs, block_k * bs);

        CLEAN.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            scratch.reset(bs);
            let CleanScratch { tile, sums, cs_abs, row, max_val, max_at } = &mut *scratch;

            // Column checksums top to bottom, as in the instrumented body.
            // The absolute values land transposed (column j, row i at
            // `j·bs + i`), so the row scans below run across contiguous
            // lanes.
            for i in 0..bs {
                self.a.read_slice((row0 + i) * self.cols + col0, row);
                for (j, (sum, &v)) in sums.iter_mut().zip(row.iter()).enumerate() {
                    *sum += v;
                    tile[j * bs + i] = v.abs();
                }
            }
            let cs_line = self.rows.checksum_line(block_i);
            for (tid, &sum) in sums.iter().enumerate() {
                self.a.set(cs_line * self.cols + col0 + tid, sum);
            }

            cs_abs.clear();
            cs_abs.extend(sums.iter().map(|&s| s.abs()));
            for slot in 0..self.pmax.p {
                scan_and_zero(tile, bs, max_val, max_at);
                for (lane, (&v, &j)) in max_val.iter().zip(max_at.iter()).enumerate() {
                    let pi = self.pmax.partial_index(row0 + lane, block_k, slot);
                    self.pmax.partial_vals.set(pi, v);
                    self.pmax.partial_idxs.set(pi, (col0 + j) as f64);
                }
                let (v, j) = take_line_max(cs_abs);
                let pi = self.pmax.partial_index(cs_line, block_k, slot);
                self.pmax.partial_vals.set(pi, v);
                self.pmax.partial_idxs.set(pi, (col0 + j) as f64);
            }
        });

        encode_block_stats(stats, bs as u64, self.pmax.p as u64);
    }
}

/// Encoding kernel for the `B` operand: writes the per-block-column row
/// checksums and emits p-max partials per augmented column (the row-checksum
/// mirror of Algorithm 1).
#[derive(Debug)]
pub struct EncodeRowsKernel<'a> {
    b: &'a DeviceBuffer,
    pmax: &'a PMaxBuffers,
    cols: AugmentedLayout,
    rows: usize,
}

impl<'a> EncodeRowsKernel<'a> {
    /// Creates the kernel over the augmented `B` buffer (`rows ×
    /// cols.total`, data present, checksum columns to be written).
    ///
    /// # Panics
    ///
    /// Panics if buffer/layout extents are inconsistent.
    pub fn new(b: &'a DeviceBuffer, pmax: &'a PMaxBuffers, cols: AugmentedLayout, rows: usize) -> Self {
        assert_eq!(b.len(), rows * cols.total, "B buffer size mismatch");
        assert_eq!(rows % cols.block_size, 0, "rows must be a multiple of BS");
        assert_eq!(pmax.blocks, rows / cols.block_size, "pmax blocks mismatch");
        assert!(pmax.lines >= cols.data + cols.blocks, "pmax lines too small");
        EncodeRowsKernel { b, pmax, cols, rows }
    }

    /// Launch grid: one block per `BS × BS` sub-matrix of the data region.
    pub fn grid(&self) -> GridDim {
        GridDim::new(self.cols.blocks, self.rows / self.cols.block_size)
    }
}

impl Kernel for EncodeRowsKernel<'_> {
    fn name(&self) -> &'static str {
        "aabft_encode_b"
    }
    fn phase(&self) -> &'static str {
        "encode"
    }

    fn utilization(&self) -> f64 {
        ENCODE_UTILIZATION
    }

    fn run_block(&self, ctx: &mut BlockCtx<'_>) {
        let bs = self.cols.block_size;
        let block_k = ctx.block().y; // row-block of B
        let block_j = ctx.block().x; // column-block of B
        let (row0, col0) = (block_k * bs, block_j * bs);
        let width = self.cols.total;
        ctx.declare_threads(bs);

        SCRATCH.with(|scratch| {
        let mut scratch = scratch.borrow_mut();
        scratch.reset(bs);
        let EncodeScratch { tile, sums, cs_abs } = &mut *scratch;

        // Phase 1: row checksums; thread `tid` owns row `row0 + tid`.
        for j in 0..bs {
            for (tid, sum) in sums.iter_mut().enumerate() {
                let v = ctx.load(self.b, (row0 + tid) * width + col0 + j);
                *sum = ctx.add(*sum, v);
                tile.set(tid, j, ctx.abs(v));
            }
        }
        ctx.note_smem((bs * bs) as u64);
        for (tid, &sum) in sums.iter().enumerate() {
            ctx.store(self.b, (row0 + tid) * width + self.cols.checksum_line(block_j), sum);
        }

        // Phase 2: p-max per column; thread `tid` owns column `col0 + tid`.
        cs_abs.clear();
        cs_abs.extend(sums.iter().map(|&s| s.abs()));
        ctx.note_smem(bs as u64);
        for slot in 0..self.pmax.p {
            for tid in 0..bs {
                let mut max_val = 0.0f64;
                let mut max_i = 0usize;
                for i in 0..bs {
                    let v = tile.get(i, tid);
                    if ctx.max(max_val, v) > max_val {
                        max_val = v;
                        max_i = i;
                    }
                }
                let line = col0 + tid;
                let pi = self.pmax.partial_index(line, block_k, slot);
                ctx.store(&self.pmax.partial_vals, pi, max_val);
                ctx.store(&self.pmax.partial_idxs, pi, (row0 + max_i) as f64);
                tile.set(max_i, tid, 0.0);
            }
            ctx.note_smem((bs * bs) as u64);
            // Checksum column's own max.
            let mut max_val = 0.0f64;
            let mut max_i = 0usize;
            for (i, &v) in cs_abs.iter().enumerate() {
                if ctx.max(max_val, v) > max_val {
                    max_val = v;
                    max_i = i;
                }
            }
            let line = self.cols.checksum_line(block_j);
            let pi = self.pmax.partial_index(line, block_k, slot);
            ctx.store(&self.pmax.partial_vals, pi, max_val);
            ctx.store(&self.pmax.partial_idxs, pi, (row0 + max_i) as f64);
            cs_abs[max_i] = 0.0;
        }
        });
    }

    fn supports_clean_path(&self) -> bool {
        true
    }

    fn run_block_clean(&self, block: BlockIdx, stats: &mut KernelStats) {
        let bs = self.cols.block_size;
        let block_k = block.y;
        let block_j = block.x;
        let (row0, col0) = (block_k * bs, block_j * bs);
        let width = self.cols.total;

        CLEAN.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            scratch.reset(bs);
            let CleanScratch { tile, sums, cs_abs, max_val, max_at, .. } = &mut *scratch;

            // Row checksums left to right, as in the instrumented body; the
            // tile keeps the block's row-major layout, which is already the
            // lane order of the column scans below.
            let cs_col = self.cols.checksum_line(block_j);
            for (i, (sum, line)) in sums.iter_mut().zip(tile.chunks_exact_mut(bs)).enumerate() {
                self.b.read_slice((row0 + i) * width + col0, line);
                *sum = line.iter().fold(0.0, |acc, &v| acc + v);
                for v in line.iter_mut() {
                    *v = v.abs();
                }
                self.b.set((row0 + i) * width + cs_col, *sum);
            }

            cs_abs.clear();
            cs_abs.extend(sums.iter().map(|&s| s.abs()));
            for slot in 0..self.pmax.p {
                scan_and_zero(tile, bs, max_val, max_at);
                for (lane, (&v, &i)) in max_val.iter().zip(max_at.iter()).enumerate() {
                    let pi = self.pmax.partial_index(col0 + lane, block_k, slot);
                    self.pmax.partial_vals.set(pi, v);
                    self.pmax.partial_idxs.set(pi, (row0 + i) as f64);
                }
                let (v, i) = take_line_max(cs_abs);
                let pi = self.pmax.partial_index(cs_col, block_k, slot);
                self.pmax.partial_vals.set(pi, v);
                self.pmax.partial_idxs.set(pi, (row0 + i) as f64);
            }
        });

        encode_block_stats(stats, bs as u64, self.pmax.p as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::{encode_columns, encode_rows};
    use crate::pmax::PMaxTable;
    use aabft_gpu_sim::device::Device;
    use aabft_matrix::Matrix;

    fn upload_padded_a(a: &Matrix<f64>, bs: usize) -> (DeviceBuffer, AugmentedLayout, usize) {
        let rows = AugmentedLayout::new(a.rows(), bs, 1);
        let cols = a.cols();
        let mut m = Matrix::zeros(rows.total, cols);
        for i in 0..a.rows() {
            m.row_mut(i)[..cols].copy_from_slice(a.row(i));
        }
        (DeviceBuffer::from_matrix(&m), rows, cols)
    }

    #[test]
    fn encode_a_matches_host_reference() {
        let bs = 4;
        let a: Matrix = Matrix::from_fn(8, 8, |i, j| ((i * 5 + j * 3) as f64 * 0.21).sin());
        let (buf, rows, cols) = upload_padded_a(&a, bs);
        let pmax = PMaxBuffers::new(rows.total, cols / bs, 2);
        let kernel = EncodeColumnsKernel::new(&buf, &pmax, rows, cols);
        Device::with_defaults().launch(kernel.grid(), &kernel);

        let host = encode_columns(&a, bs, 1, 1);
        let device_result = buf.to_matrix(rows.total, cols);
        assert!(device_result.approx_eq(&host.matrix, 0.0), "checksums must be bit-identical");
    }

    #[test]
    fn encode_a_partials_reduce_to_host_pmax() {
        let bs = 4;
        let p = 2;
        let a: Matrix = Matrix::from_fn(8, 12, |i, j| ((i * 7 + j * 11) as f64 * 0.13).cos());
        let (buf, rows, cols) = upload_padded_a(&a, bs);
        let pmax = PMaxBuffers::new(rows.total, cols / bs, p);
        let kernel = EncodeColumnsKernel::new(&buf, &pmax, rows, cols);
        Device::with_defaults().launch(kernel.grid(), &kernel);

        // Merge partials on the host and compare against the direct table
        // over the augmented matrix.
        let vals = pmax.partial_vals.to_vec();
        let idxs = pmax.partial_idxs.to_vec();
        let mut partials = vec![Vec::new(); rows.total];
        for (line, partial) in partials.iter_mut().enumerate() {
            for b in 0..pmax.blocks {
                for s in 0..p {
                    let i = pmax.partial_index(line, b, s);
                    partial.push((vals[i], idxs[i] as usize));
                }
            }
        }
        let merged = PMaxTable::merge_partials(rows.total, p, &partials);
        let augmented = buf.to_matrix(rows.total, cols);
        let direct = PMaxTable::of_rows(&augmented, p);
        for line in 0..rows.data + rows.blocks {
            assert_eq!(merged.values(line), direct.values(line), "line {line}");
            assert_eq!(merged.indices(line), direct.indices(line), "line {line}");
        }
    }

    #[test]
    fn encode_b_matches_host_reference() {
        let bs = 4;
        let b: Matrix = Matrix::from_fn(8, 8, |i, j| ((i + 3 * j) as f64 * 0.31).sin());
        let cols = AugmentedLayout::new(b.cols(), bs, 1);
        let mut m = Matrix::zeros(b.rows(), cols.total);
        for i in 0..b.rows() {
            m.row_mut(i)[..b.cols()].copy_from_slice(b.row(i));
        }
        let buf = DeviceBuffer::from_matrix(&m);
        let pmax = PMaxBuffers::new(cols.total, b.rows() / bs, 2);
        let kernel = EncodeRowsKernel::new(&buf, &pmax, cols, b.rows());
        Device::with_defaults().launch(kernel.grid(), &kernel);

        let host = encode_rows(&b, bs, 1, 1);
        assert!(buf.to_matrix(b.rows(), cols.total).approx_eq(&host.matrix, 0.0));
    }

    #[test]
    fn encode_counts_expected_work() {
        let bs = 4;
        let a: Matrix = Matrix::from_fn(8, 8, |_, _| 1.0);
        let (buf, rows, cols) = upload_padded_a(&a, bs);
        let pmax = PMaxBuffers::new(rows.total, cols / bs, 2);
        let kernel = EncodeColumnsKernel::new(&buf, &pmax, rows, cols);
        let stats = Device::with_defaults().launch(kernel.grid(), &kernel);
        // One add and one abs per element.
        assert_eq!(stats.fadd, 64);
        assert_eq!(stats.gmem_loads, 64);
        assert!(stats.fcmp > 64, "abs + scan comparisons");
        assert_eq!(stats.blocks, 4);
    }
}
