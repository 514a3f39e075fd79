//! Kernels used by the baseline schemes: plain checksum encoding (without
//! the p-max search A-ABFT fuses in), vector-norm computation for SEA-ABFT,
//! and a checking kernel whose error bound is either a fixed user constant
//! or the SEA norm formula.

use aabft_core::encoding::AugmentedLayout;
use aabft_core::kernels::check::REPORT_WORDS;
use aabft_gpu_sim::device::{BlockCtx, Kernel};
use aabft_gpu_sim::dim::GridDim;
use aabft_gpu_sim::mem::DeviceBuffer;

/// Modelled utilization of the plain encoding/checking kernels (same
/// occupancy class as A-ABFT's, minus the p-max work).
pub const BASELINE_CHECK_UTILIZATION: f64 = 0.012;

/// Modelled utilization of SEA-ABFT's norm kernels. The paper attributes
/// SEA's performance gap to the "compute-intensive evaluation of numerous
/// vector norms" at poor thread utilization: every result block evaluates
/// the full-length norms of its rows/columns without cross-block caching.
/// The redundant re-reads hit the L2 (counted as cached accesses; each
/// line's DRAM fetch is charged once), so the stage is compute-bound at
/// this low sequential-reduction utilization.
pub const NORM_UTILIZATION: f64 = 0.14;

/// Plain column-checksum encoding for `A` (no p-max search).
#[derive(Debug)]
pub struct EncodeColumnsPlain<'a> {
    a: &'a DeviceBuffer,
    rows: AugmentedLayout,
    cols: usize,
}

impl<'a> EncodeColumnsPlain<'a> {
    /// Creates the kernel over the augmented `A` buffer.
    ///
    /// # Panics
    ///
    /// Panics on extent mismatch.
    pub fn new(a: &'a DeviceBuffer, rows: AugmentedLayout, cols: usize) -> Self {
        assert_eq!(a.len(), rows.total * cols, "A buffer size mismatch");
        assert_eq!(cols % rows.block_size, 0, "cols must be a multiple of BS");
        EncodeColumnsPlain { a, rows, cols }
    }

    /// Launch grid: one block per `BS × BS` data sub-matrix.
    pub fn grid(&self) -> GridDim {
        GridDim::new(self.cols / self.rows.block_size, self.rows.blocks)
    }
}

impl Kernel for EncodeColumnsPlain<'_> {
    fn name(&self) -> &'static str {
        "abft_encode_a"
    }
    fn phase(&self) -> &'static str {
        "encode"
    }
    fn utilization(&self) -> f64 {
        BASELINE_CHECK_UTILIZATION
    }
    fn run_block(&self, ctx: &mut BlockCtx<'_>) {
        let bs = self.rows.block_size;
        let (block_i, block_k) = (ctx.block().y, ctx.block().x);
        let (row0, col0) = (block_i * bs, block_k * bs);
        ctx.declare_threads(bs);
        for tid in 0..bs {
            let mut sum = 0.0;
            for i in 0..bs {
                let v = ctx.load(self.a, (row0 + i) * self.cols + col0 + tid);
                sum = ctx.add(sum, v);
            }
            ctx.store(self.a, self.rows.checksum_line(block_i) * self.cols + col0 + tid, sum);
        }
    }
}

/// Plain row-checksum encoding for `B` (no p-max search).
#[derive(Debug)]
pub struct EncodeRowsPlain<'a> {
    b: &'a DeviceBuffer,
    cols: AugmentedLayout,
    rows: usize,
}

impl<'a> EncodeRowsPlain<'a> {
    /// Creates the kernel over the augmented `B` buffer.
    ///
    /// # Panics
    ///
    /// Panics on extent mismatch.
    pub fn new(b: &'a DeviceBuffer, cols: AugmentedLayout, rows: usize) -> Self {
        assert_eq!(b.len(), rows * cols.total, "B buffer size mismatch");
        assert_eq!(rows % cols.block_size, 0, "rows must be a multiple of BS");
        EncodeRowsPlain { b, cols, rows }
    }

    /// Launch grid: one block per `BS × BS` data sub-matrix.
    pub fn grid(&self) -> GridDim {
        GridDim::new(self.cols.blocks, self.rows / self.cols.block_size)
    }
}

impl Kernel for EncodeRowsPlain<'_> {
    fn name(&self) -> &'static str {
        "abft_encode_b"
    }
    fn phase(&self) -> &'static str {
        "encode"
    }
    fn utilization(&self) -> f64 {
        BASELINE_CHECK_UTILIZATION
    }
    fn run_block(&self, ctx: &mut BlockCtx<'_>) {
        let bs = self.cols.block_size;
        let (block_k, block_j) = (ctx.block().y, ctx.block().x);
        let (row0, col0) = (block_k * bs, block_j * bs);
        let width = self.cols.total;
        ctx.declare_threads(bs);
        for tid in 0..bs {
            let mut sum = 0.0;
            for j in 0..bs {
                let v = ctx.load(self.b, (row0 + tid) * width + col0 + j);
                sum = ctx.add(sum, v);
            }
            ctx.store(self.b, (row0 + tid) * width + self.cols.checksum_line(block_j), sum);
        }
    }
}

/// Row 2-norm kernel for SEA-ABFT. One block per (row, opposing result
/// block): every `BS`-wide block column of the result re-evaluates the
/// full-length row norms it needs (no cross-block caching — the naive
/// implementation whose cost the paper reports). Slot `[i·redundancy + r]`
/// of the norm buffer holds row `i`'s norm as computed for opposing block
/// `r`.
#[derive(Debug)]
pub struct RowNormsKernel<'a> {
    m: &'a DeviceBuffer,
    norms: &'a DeviceBuffer,
    rows: usize,
    cols: usize,
    redundancy: usize,
}

impl<'a> RowNormsKernel<'a> {
    /// Computes `norms[i·redundancy + r] = ||row i||₂` for every row and
    /// every opposing result block `r`.
    ///
    /// # Panics
    ///
    /// Panics on extent mismatch or zero redundancy.
    pub fn new(
        m: &'a DeviceBuffer,
        norms: &'a DeviceBuffer,
        rows: usize,
        cols: usize,
        redundancy: usize,
    ) -> Self {
        assert!(redundancy > 0, "redundancy must be positive");
        assert_eq!(m.len(), rows * cols, "matrix buffer size mismatch");
        assert_eq!(norms.len(), rows * redundancy, "norm buffer size mismatch");
        RowNormsKernel { m, norms, rows, cols, redundancy }
    }

    /// Launch grid: one block per (row, opposing block).
    pub fn grid(&self) -> GridDim {
        GridDim::new(self.redundancy, self.rows)
    }
}

impl Kernel for RowNormsKernel<'_> {
    fn name(&self) -> &'static str {
        "sea_row_norms"
    }
    fn phase(&self) -> &'static str {
        "encode"
    }
    fn utilization(&self) -> f64 {
        NORM_UTILIZATION
    }
    fn run_block(&self, ctx: &mut BlockCtx<'_>) {
        let r = ctx.block().x;
        let i = ctx.block().y;
        ctx.declare_threads(1);
        // DRAM traffic for the line is charged once; the redundant
        // recomputations read it through the cache.
        if r == 0 {
            ctx.note_gmem_loads(self.cols as u64);
        }
        ctx.note_smem(self.cols as u64);
        let mut s = 0.0;
        for j in 0..self.cols {
            let v = self.m.get(i * self.cols + j);
            let sq = ctx.mul(v, v);
            s = ctx.add(s, sq);
        }
        ctx.note_ops(0, 0, 1); // sqrt
        ctx.store(self.norms, i * self.redundancy + r, s.sqrt());
    }
}

/// Column 2-norm kernel for SEA-ABFT; see [`RowNormsKernel`] for the
/// redundancy layout.
#[derive(Debug)]
pub struct ColNormsKernel<'a> {
    m: &'a DeviceBuffer,
    norms: &'a DeviceBuffer,
    rows: usize,
    cols: usize,
    redundancy: usize,
}

impl<'a> ColNormsKernel<'a> {
    /// Computes `norms[j·redundancy + r] = ||column j||₂` for every column
    /// and every opposing result block `r`.
    ///
    /// # Panics
    ///
    /// Panics on extent mismatch or zero redundancy.
    pub fn new(
        m: &'a DeviceBuffer,
        norms: &'a DeviceBuffer,
        rows: usize,
        cols: usize,
        redundancy: usize,
    ) -> Self {
        assert!(redundancy > 0, "redundancy must be positive");
        assert_eq!(m.len(), rows * cols, "matrix buffer size mismatch");
        assert_eq!(norms.len(), cols * redundancy, "norm buffer size mismatch");
        ColNormsKernel { m, norms, rows, cols, redundancy }
    }

    /// Launch grid: one block per (column, opposing block).
    pub fn grid(&self) -> GridDim {
        GridDim::new(self.redundancy, self.cols)
    }
}

impl Kernel for ColNormsKernel<'_> {
    fn name(&self) -> &'static str {
        "sea_col_norms"
    }
    fn phase(&self) -> &'static str {
        "encode"
    }
    fn utilization(&self) -> f64 {
        NORM_UTILIZATION
    }
    fn run_block(&self, ctx: &mut BlockCtx<'_>) {
        let r = ctx.block().x;
        let j = ctx.block().y;
        ctx.declare_threads(1);
        if r == 0 {
            ctx.note_gmem_loads(self.rows as u64);
        }
        ctx.note_smem(self.rows as u64);
        let mut s = 0.0;
        for i in 0..self.rows {
            let v = self.m.get(i * self.cols + j);
            let sq = ctx.mul(v, v);
            s = ctx.add(s, sq);
        }
        ctx.note_ops(0, 0, 1); // sqrt
        ctx.store(self.norms, j * self.redundancy + r, s.sqrt());
    }
}

/// How the baseline checking kernel obtains its error bound.
#[derive(Debug)]
pub enum EpsilonRule<'a> {
    /// A user-supplied constant (the "manual" standard-ABFT scheme — fast
    /// but not autonomous).
    Fixed(f64),
    /// The simplified-error-analysis bound of Roy-Chowdhury/Banerjee \[28\]:
    /// `((n + 2·BS − 2)·‖b‖₂·Σᵢ‖aᵢ‖₂ + n·‖a_cs‖₂·‖b‖₂)·ε_M` per column
    /// checksum (and symmetrically per row checksum).
    Sea {
        /// 2-norms of the augmented `A` rows, one slot per (row, opposing
        /// block).
        a_row_norms: &'a DeviceBuffer,
        /// Redundancy (slots per row) of `a_row_norms`.
        a_redundancy: usize,
        /// 2-norms of the augmented `B` columns, one slot per (column,
        /// opposing block).
        b_col_norms: &'a DeviceBuffer,
        /// Redundancy (slots per column) of `b_col_norms`.
        b_redundancy: usize,
        /// Inner dimension `n` of the multiplication.
        inner: usize,
    },
}

/// Checking kernel for the fixed-bound and SEA-ABFT baselines: recomputes
/// the reference checksums per block and compares with the rule's ε.
/// Reports the same per-block bitmaps as the A-ABFT checker.
#[derive(Debug)]
pub struct BaselineCheckKernel<'a> {
    c: &'a DeviceBuffer,
    report: &'a DeviceBuffer,
    rows: AugmentedLayout,
    cols: AugmentedLayout,
    rule: EpsilonRule<'a>,
}

impl<'a> BaselineCheckKernel<'a> {
    /// Creates the checker.
    ///
    /// # Panics
    ///
    /// Panics on extent mismatch.
    pub fn new(
        c: &'a DeviceBuffer,
        report: &'a DeviceBuffer,
        rows: AugmentedLayout,
        cols: AugmentedLayout,
        rule: EpsilonRule<'a>,
    ) -> Self {
        assert_eq!(rows.block_size, cols.block_size, "row/column block sizes must agree");
        assert_eq!(c.len(), rows.total * cols.total, "C buffer size mismatch");
        assert_eq!(report.len(), REPORT_WORDS * rows.blocks * cols.blocks, "report size mismatch");
        if let EpsilonRule::Sea { a_row_norms, a_redundancy, b_col_norms, b_redundancy, .. } =
            &rule
        {
            assert!(*a_redundancy >= cols.blocks, "A norm redundancy too small");
            assert!(*b_redundancy >= rows.blocks, "B norm redundancy too small");
            assert!(
                a_row_norms.len() >= (rows.data + rows.blocks) * a_redundancy,
                "A norms too short"
            );
            assert!(
                b_col_norms.len() >= (cols.data + cols.blocks) * b_redundancy,
                "B norms too short"
            );
        }
        BaselineCheckKernel { c, report, rows, cols, rule }
    }

    /// Launch grid: one block per `BS × BS` data block.
    pub fn grid(&self) -> GridDim {
        GridDim::new(self.cols.blocks, self.rows.blocks)
    }

    /// SEA column-checksum bound for block `(bi, bj)`, column `j`.
    fn sea_col_eps(&self, ctx: &mut BlockCtx<'_>, bi: usize, bj: usize, j: usize) -> f64 {
        let EpsilonRule::Sea { a_row_norms, a_redundancy, b_col_norms, b_redundancy, inner } =
            &self.rule
        else {
            unreachable!("sea_col_eps called under fixed rule")
        };
        let bs = self.rows.block_size as f64;
        let n = *inner as f64;
        let b_norm = ctx.load(b_col_norms, j * b_redundancy + bi);
        let mut sum_a = 0.0;
        for i in bi * self.rows.block_size..(bi + 1) * self.rows.block_size {
            let a_norm = ctx.load(a_row_norms, i * a_redundancy + bj);
            sum_a = ctx.add(sum_a, a_norm);
        }
        let cs_norm = ctx.load(a_row_norms, self.rows.checksum_line(bi) * a_redundancy + bj);
        ctx.note_ops(2, 4, 0);
        ((n + 2.0 * bs - 2.0) * b_norm * sum_a + n * cs_norm * b_norm) * f64::EPSILON / 2.0
    }

    /// SEA row-checksum bound for row `i` in block `(bi, bj)`.
    fn sea_row_eps(&self, ctx: &mut BlockCtx<'_>, bi: usize, bj: usize, i: usize) -> f64 {
        let EpsilonRule::Sea { a_row_norms, a_redundancy, b_col_norms, b_redundancy, inner } =
            &self.rule
        else {
            unreachable!("sea_row_eps called under fixed rule")
        };
        let bs = self.cols.block_size as f64;
        let n = *inner as f64;
        let a_norm = ctx.load(a_row_norms, i * a_redundancy + bj);
        let mut sum_b = 0.0;
        for j in bj * self.cols.block_size..(bj + 1) * self.cols.block_size {
            let b_norm = ctx.load(b_col_norms, j * b_redundancy + bi);
            sum_b = ctx.add(sum_b, b_norm);
        }
        let cs_norm = ctx.load(b_col_norms, self.cols.checksum_line(bj) * b_redundancy + bi);
        ctx.note_ops(2, 4, 0);
        ((n + 2.0 * bs - 2.0) * a_norm * sum_b + n * cs_norm * a_norm) * f64::EPSILON / 2.0
    }
}

impl Kernel for BaselineCheckKernel<'_> {
    fn name(&self) -> &'static str {
        match self.rule {
            EpsilonRule::Fixed(_) => "abft_check_fixed",
            EpsilonRule::Sea { .. } => "sea_check",
        }
    }
    fn phase(&self) -> &'static str {
        "check"
    }
    fn utilization(&self) -> f64 {
        BASELINE_CHECK_UTILIZATION
    }

    fn run_block(&self, ctx: &mut BlockCtx<'_>) {
        let bs = self.rows.block_size;
        let (block_j, block_i) = (ctx.block().x, ctx.block().y);
        let (row0, col0) = (block_i * bs, block_j * bs);
        let width = self.cols.total;
        ctx.declare_threads(bs);

        let cs_row = self.rows.checksum_line(block_i);
        let mut col_mask = 0u64;
        for tid in 0..bs {
            let j = col0 + tid;
            let mut reference = 0.0;
            for i in 0..bs {
                let v = ctx.load(self.c, (row0 + i) * width + j);
                reference = ctx.add(reference, v);
            }
            let checksum = ctx.load(self.c, cs_row * width + j);
            let eps = match self.rule {
                EpsilonRule::Fixed(e) => e,
                EpsilonRule::Sea { .. } => self.sea_col_eps(ctx, block_i, block_j, j),
            };
            let diff = ctx.sub(reference, checksum);
            // `NaN > eps` is false: a non-finite difference or tolerance
            // (Inf − Inf from a corrupted element) must flag on its own,
            // as it does in A-ABFT's check kernel.
            let adiff = ctx.abs(diff);
            if !(diff.is_finite() && eps.is_finite()) || adiff > eps {
                col_mask |= 1 << tid;
            }
        }

        let cs_col = self.cols.checksum_line(block_j);
        let mut row_mask = 0u64;
        for tid in 0..bs {
            let i = row0 + tid;
            let mut reference = 0.0;
            for j in 0..bs {
                let v = ctx.load(self.c, i * width + col0 + j);
                reference = ctx.add(reference, v);
            }
            let checksum = ctx.load(self.c, i * width + cs_col);
            let eps = match self.rule {
                EpsilonRule::Fixed(e) => e,
                EpsilonRule::Sea { .. } => self.sea_row_eps(ctx, block_i, block_j, i),
            };
            let diff = ctx.sub(reference, checksum);
            let adiff = ctx.abs(diff);
            if !(diff.is_finite() && eps.is_finite()) || adiff > eps {
                row_mask |= 1 << tid;
            }
        }

        let slot = (block_i * self.cols.blocks + block_j) * REPORT_WORDS;
        ctx.store(self.report, slot, col_mask as f64);
        ctx.store(self.report, slot + 1, row_mask as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aabft_core::encoding::encode_columns;
    use aabft_gpu_sim::device::Device;
    use aabft_matrix::{norms, Matrix};

    #[test]
    fn plain_encode_matches_host() {
        let bs = 4;
        let a: Matrix = Matrix::from_fn(8, 8, |i, j| ((i * 5 + j) as f64 * 0.3).sin());
        let host = encode_columns(&a, bs, 1, 1);
        let rows = host.rows;
        let mut init = host.matrix.clone();
        for b in 0..rows.blocks {
            for j in 0..8 {
                init[(rows.checksum_line(b), j)] = 0.0;
            }
        }
        let buf = DeviceBuffer::from_matrix(&init);
        let k = EncodeColumnsPlain::new(&buf, rows, 8);
        Device::with_defaults().launch(k.grid(), &k);
        assert!(buf.to_matrix(rows.total, 8).approx_eq(&host.matrix, 0.0));
    }

    #[test]
    fn norm_kernels_match_host() {
        let m: Matrix = Matrix::from_fn(6, 9, |i, j| ((i * 7 + j * 5) as f64 * 0.21).sin());
        let buf = DeviceBuffer::from_matrix(&m);
        let red = 3;
        let rn = DeviceBuffer::zeros(6 * red);
        let k = RowNormsKernel::new(&buf, &rn, 6, 9, red);
        Device::with_defaults().launch(k.grid(), &k);
        let rv = rn.to_vec();
        for i in 0..6 {
            for r in 0..red {
                assert!(
                    (rv[i * red + r] - norms::norm2(m.row(i))).abs() < 1e-13,
                    "row {i} slot {r}"
                );
            }
        }
        let cn = DeviceBuffer::zeros(9 * red);
        let k = ColNormsKernel::new(&buf, &cn, 6, 9, red);
        Device::with_defaults().launch(k.grid(), &k);
        let cv = cn.to_vec();
        for j in 0..9 {
            for r in 0..red {
                assert!(
                    (cv[j * red + r] - norms::norm2(&m.col(j))).abs() < 1e-13,
                    "col {j} slot {r}"
                );
            }
        }
    }

    #[test]
    fn fixed_check_flags_above_threshold_only() {
        let bs = 4;
        let a: Matrix = Matrix::from_fn(8, 8, |i, j| ((i + j) as f64 * 0.11).sin());
        let b: Matrix = Matrix::from_fn(8, 8, |i, j| ((i * 2 + j) as f64 * 0.13).cos());
        let acc = aabft_core::encoding::encode_columns(&a, bs, 1, 1);
        let brc = aabft_core::encoding::encode_rows(&b, bs, 1, 1);
        let mut c = aabft_matrix::gemm::multiply(&acc.matrix, &brc.matrix);
        c[(2, 3)] += 1e-6;
        let dc = DeviceBuffer::from_matrix(&c);
        let report = DeviceBuffer::zeros(REPORT_WORDS * 4);
        let k = BaselineCheckKernel::new(&dc, &report, acc.rows, brc.cols, EpsilonRule::Fixed(1e-9));
        Device::with_defaults().launch(k.grid(), &k);
        let raw = report.to_vec();
        assert_eq!(raw[0] as u64, 1 << 3, "column 3 flagged in block (0,0)");
        assert_eq!(raw[1] as u64, 1 << 2, "row 2 flagged in block (0,0)");
        // With a loose threshold nothing is flagged.
        let report2 = DeviceBuffer::zeros(REPORT_WORDS * 4);
        let k = BaselineCheckKernel::new(&dc, &report2, acc.rows, brc.cols, EpsilonRule::Fixed(1e-3));
        Device::with_defaults().launch(k.grid(), &k);
        assert!(report2.to_vec().iter().all(|&w| w == 0.0));
    }

    #[test]
    fn check_flags_an_inf_minus_inf_difference() {
        // Element (2, 3) and both checksums covering it read +Inf, so each
        // checksum difference is Inf − Inf = NaN. However loose the bound,
        // that line is flagged.
        let bs = 4;
        let a: Matrix = Matrix::from_fn(8, 8, |i, j| ((i + j) as f64 * 0.11).sin());
        let b: Matrix = Matrix::from_fn(8, 8, |i, j| ((i * 2 + j) as f64 * 0.13).cos());
        let acc = aabft_core::encoding::encode_columns(&a, bs, 1, 1);
        let brc = aabft_core::encoding::encode_rows(&b, bs, 1, 1);
        let mut c = aabft_matrix::gemm::multiply(&acc.matrix, &brc.matrix);
        c[(2, 3)] = f64::INFINITY;
        c[(acc.rows.checksum_line(0), 3)] = f64::INFINITY;
        c[(2, brc.cols.checksum_line(0))] = f64::INFINITY;
        let dc = DeviceBuffer::from_matrix(&c);
        let report = DeviceBuffer::zeros(REPORT_WORDS * 4);
        let loose = EpsilonRule::Fixed(1e300);
        let k = BaselineCheckKernel::new(&dc, &report, acc.rows, brc.cols, loose);
        Device::with_defaults().launch(k.grid(), &k);
        let raw = report.to_vec();
        assert_eq!(raw[0] as u64, 1 << 3, "column 3 flagged in block (0,0)");
        assert_eq!(raw[1] as u64, 1 << 2, "row 2 flagged in block (0,0)");
        assert!(raw[2..].iter().all(|&w| w == 0.0), "no other block flagged: {raw:?}");
    }
}
