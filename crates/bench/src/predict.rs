//! Analytic launch-log prediction.
//!
//! Table I evaluates at sizes up to 8192³ — 1.1 TFLOPs of simulated work per
//! multiplication, far beyond what the functional simulator should grind
//! through. Every kernel's instruction and memory counts are, however,
//! exact closed-form functions of the launch geometry. This module builds
//! the same `LaunchRecord` log a real pipeline run would produce, purely
//! analytically; a test (and `tests/predict_validation.rs`) asserts *exact*
//! equality against measured logs at simulator-feasible sizes, so the
//! formulas cannot drift from the kernels.

use aabft_core::encoding::AugmentedLayout;
use aabft_core::kernels::check::CHECK_UTILIZATION;
use aabft_core::kernels::encode::ENCODE_UTILIZATION;
use aabft_core::kernels::reduce::REDUCE_UTILIZATION;
use aabft_baselines::kernels::{BASELINE_CHECK_UTILIZATION, NORM_UTILIZATION};
use aabft_gpu_sim::kernels::gemm::GemmTiling;
use aabft_gpu_sim::stats::{KernelStats, LaunchRecord};

/// The five schemes of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Fixed-bound standard ABFT.
    Abft,
    /// The paper's contribution.
    AAbft,
    /// Simplified-error-analysis ABFT.
    SeaAbft,
    /// Triple modular redundancy.
    Tmr,
    /// No protection (throughput reference).
    Unprotected,
}

impl SchemeKind {
    /// All schemes in Table I column order.
    pub const TABLE1: [SchemeKind; 4] =
        [SchemeKind::Abft, SchemeKind::AAbft, SchemeKind::SeaAbft, SchemeKind::Tmr];

    /// Display name matching the paper.
    pub fn label(self) -> &'static str {
        match self {
            SchemeKind::Abft => "ABFT",
            SchemeKind::AAbft => "A-ABFT",
            SchemeKind::SeaAbft => "SEA-ABFT",
            SchemeKind::Tmr => "TMR",
            SchemeKind::Unprotected => "unprotected",
        }
    }
}

/// Geometry of a protected multiplication for prediction purposes.
#[derive(Debug, Clone, Copy)]
pub struct PredictShape {
    /// Caller matrix dimension (square `n × n · n × n`).
    pub n: usize,
    /// Partitioned-encoding block size.
    pub bs: usize,
    /// Number of tracked maxima (A-ABFT only).
    pub p: usize,
    /// Multiplication tiling.
    pub tiling: GemmTiling,
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn lcm(a: usize, b: usize) -> usize {
    a / gcd(a, b) * b
}

impl PredictShape {
    /// Augmented row layout, padded inner extent and augmented column layout.
    pub fn layouts(&self) -> (AugmentedLayout, usize, AugmentedLayout) {
        let rows = AugmentedLayout::new(self.n, self.bs, self.tiling.bm);
        let cols = AugmentedLayout::new(self.n, self.bs, self.tiling.bn);
        let mult = lcm(self.bs, self.tiling.bk);
        let inner = self.n.div_ceil(mult) * mult;
        (rows, inner, cols)
    }

    /// Plain-padded extents for the unprotected/TMR GEMM.
    pub fn plain(&self) -> (usize, usize, usize) {
        let t = self.tiling;
        (
            self.n.div_ceil(t.bm) * t.bm,
            self.n.div_ceil(t.bk) * t.bk,
            self.n.div_ceil(t.bn) * t.bn,
        )
    }
}

/// Stats of the blocked GEMM kernel for an `m × n · n × q` launch.
pub fn gemm_stats(m: usize, n: usize, q: usize, t: GemmTiling) -> KernelStats {
    let blocks = (m / t.bm) as u64 * (q / t.bn) as u64;
    let tpb = t.threads_per_block() as u64;
    let k_tiles = (n / t.bk) as u64;
    let tile_words = (t.bm * t.bk + t.bk * t.bn) as u64;
    let mnq = (m * q) as u64 * n as u64;
    KernelStats {
        fmul: mnq,
        fadd: mnq + (m * q) as u64,
        fpu_ticks: 2 * mnq + (m * q) as u64,
        ffma: 0,
        fcmp: 0,
        gmem_loads: blocks * k_tiles * tile_words + (m * q) as u64,
        gmem_stores: (m * q) as u64,
        smem_accesses: blocks * k_tiles * (tile_words + tpb * (t.bk * (t.rx + t.ry)) as u64),
        blocks,
        threads: blocks * tpb,
    }
}

/// Stats of a plain (no p-max) encoding kernel over `blocks_i × blocks_k`
/// sub-matrices of size `bs`.
fn encode_plain_stats(blocks_i: usize, blocks_k: usize, bs: usize) -> KernelStats {
    let blocks = (blocks_i * blocks_k) as u64;
    let bs = bs as u64;
    KernelStats {
        fadd: blocks * bs * bs,
        fpu_ticks: blocks * bs * bs,
        gmem_loads: blocks * bs * bs,
        gmem_stores: blocks * bs,
        blocks,
        threads: blocks * bs,
        ..Default::default()
    }
}

/// Stats of an A-ABFT fused encode + p-max kernel.
fn encode_aabft_stats(blocks_i: usize, blocks_k: usize, bs: usize, p: usize) -> KernelStats {
    let blocks = (blocks_i * blocks_k) as u64;
    let (bs, p) = (bs as u64, p as u64);
    KernelStats {
        fadd: blocks * bs * bs,
        fcmp: blocks * (bs * bs + p * (bs * bs + bs)),
        fpu_ticks: blocks * (2 * bs * bs + p * (bs * bs + bs)),
        gmem_loads: blocks * bs * bs,
        gmem_stores: blocks * (bs + p * (2 * bs + 2)),
        smem_accesses: blocks * (bs * bs + bs + p * bs * bs),
        blocks,
        threads: blocks * bs,
        ..Default::default()
    }
}

/// Stats of the p-max reduction over `lines` lines with `kblocks` partials.
fn reduce_stats(lines: usize, kblocks: usize, p: usize) -> KernelStats {
    let (lines, kblocks, p) = (lines as u64, kblocks as u64, p as u64);
    KernelStats {
        fcmp: lines * p * kblocks * p,
        fpu_ticks: lines * p * kblocks * p,
        gmem_loads: lines * 2 * kblocks * p,
        gmem_stores: lines * 2 * p,
        blocks: lines,
        threads: lines * p,
        ..Default::default()
    }
}

/// Stats of the A-ABFT checking kernel.
fn check_aabft_stats(row_blocks: usize, col_blocks: usize, bs: usize, p: usize) -> KernelStats {
    let blocks = (row_blocks * col_blocks) as u64;
    let (bs, p) = (bs as u64, p as u64);
    KernelStats {
        fadd: blocks * (2 * bs * (bs + 1) + 2 * bs * 4),
        fmul: blocks * 2 * bs * (p * p + 2 + 8),
        fcmp: blocks * 2 * bs * (4 + 2 + 1),
        fpu_ticks: blocks * 2 * bs * (bs + 2),
        gmem_loads: blocks * (4 * p + 2 * bs * (bs + 1 + 2 * p)),
        gmem_stores: blocks * 2,
        smem_accesses: blocks * bs * bs,
        blocks,
        threads: blocks * bs,
        ..Default::default()
    }
}

/// Stats of the baseline checking kernel (fixed or SEA rule).
fn check_baseline_stats(row_blocks: usize, col_blocks: usize, bs: usize, sea: bool) -> KernelStats {
    let blocks = (row_blocks * col_blocks) as u64;
    let bs = bs as u64;
    // Per checked line (bs per direction, 2 directions): reference sum bs
    // adds + bs loads, checksum load, diff add, abs; SEA adds the norm
    // gathering (bs + 2 loads, bs + 2 adds, 4 muls).
    let per_tid_loads = bs + 1 + if sea { bs + 2 } else { 0 };
    let per_tid_fadd = bs + 1 + if sea { bs + 2 } else { 0 };
    let per_tid_fmul = if sea { 4 } else { 0 };
    let per_tid_noted = if sea { 2 + 4 } else { 0 };
    KernelStats {
        fadd: blocks * 2 * bs * per_tid_fadd,
        fmul: blocks * 2 * bs * per_tid_fmul,
        fcmp: blocks * 2 * bs,
        fpu_ticks: blocks * 2 * bs * (per_tid_fadd + per_tid_fmul + 1 - per_tid_noted),
        gmem_loads: blocks * 2 * bs * per_tid_loads,
        gmem_stores: blocks * 2,
        blocks,
        threads: blocks * bs,
        ..Default::default()
    }
}

/// Stats of a norm kernel over `lines` lines of length `len`, each norm
/// recomputed `red` times (once per opposing result block). DRAM traffic
/// per line is charged once; the redundant reads are cached.
fn norm_stats(lines: usize, len: usize, red: usize) -> KernelStats {
    let blocks = (lines * red) as u64;
    let len = len as u64;
    KernelStats {
        fadd: blocks * len,
        fmul: blocks * len,
        fcmp: blocks,
        fpu_ticks: 2 * blocks * len,
        gmem_loads: lines as u64 * len,
        gmem_stores: blocks,
        smem_accesses: blocks * len,
        blocks,
        threads: blocks,
        ..Default::default()
    }
}

/// Stats of the TMR comparison kernel over `len` words in `nblocks` chunks.
fn compare_stats(len: usize, nblocks: usize) -> KernelStats {
    let chunk = len.div_ceil(nblocks);
    let threads_per_block = 32.min(chunk).max(1) as u64;
    let len = len as u64;
    KernelStats {
        fadd: len,
        fcmp: len,
        fpu_ticks: 2 * len,
        gmem_loads: 2 * len,
        gmem_stores: nblocks as u64,
        blocks: nblocks as u64,
        threads: nblocks as u64 * threads_per_block,
        ..Default::default()
    }
}

fn rec(name: &str, utilization: f64, stats: KernelStats) -> LaunchRecord {
    LaunchRecord::synthetic(name, utilization, stats)
}

/// Predicts the full launch log of one protected multiplication.
pub fn predict_launches(kind: SchemeKind, shape: &PredictShape) -> Vec<LaunchRecord> {
    let (rows, inner, cols) = shape.layouts();
    let bs = shape.bs;
    let p = shape.p;
    let t = shape.tiling;
    let gemm_util = 0.896;
    match kind {
        SchemeKind::Unprotected => {
            let (pm, pn, pq) = shape.plain();
            vec![rec("gemm", gemm_util, gemm_stats(pm, pn, pq, t))]
        }
        SchemeKind::Tmr => {
            let (pm, pn, pq) = shape.plain();
            let g = gemm_stats(pm, pn, pq, t);
            let nblocks = 64.min(pm * pq);
            vec![
                rec("gemm", gemm_util, g),
                rec("gemm", gemm_util, g),
                rec("gemm", gemm_util, g),
                rec("compare", 0.05, compare_stats(pm * pq, nblocks)),
                rec("compare", 0.05, compare_stats(pm * pq, nblocks)),
            ]
        }
        SchemeKind::Abft => vec![
            rec(
                "abft_encode_a",
                BASELINE_CHECK_UTILIZATION,
                encode_plain_stats(rows.blocks, inner / bs, bs),
            ),
            rec(
                "abft_encode_b",
                BASELINE_CHECK_UTILIZATION,
                encode_plain_stats(inner / bs, cols.blocks, bs),
            ),
            rec("gemm", gemm_util, gemm_stats(rows.total, inner, cols.total, t)),
            rec(
                "abft_check_fixed",
                BASELINE_CHECK_UTILIZATION,
                check_baseline_stats(rows.blocks, cols.blocks, bs, false),
            ),
        ],
        SchemeKind::SeaAbft => vec![
            rec(
                "abft_encode_a",
                BASELINE_CHECK_UTILIZATION,
                encode_plain_stats(rows.blocks, inner / bs, bs),
            ),
            rec(
                "abft_encode_b",
                BASELINE_CHECK_UTILIZATION,
                encode_plain_stats(inner / bs, cols.blocks, bs),
            ),
            rec("gemm", gemm_util, gemm_stats(rows.total, inner, cols.total, t)),
            rec("sea_row_norms", NORM_UTILIZATION, norm_stats(rows.total, inner, cols.blocks)),
            rec("sea_col_norms", NORM_UTILIZATION, norm_stats(cols.total, inner, rows.blocks)),
            rec(
                "sea_check",
                BASELINE_CHECK_UTILIZATION,
                check_baseline_stats(rows.blocks, cols.blocks, bs, true),
            ),
        ],
        SchemeKind::AAbft => vec![
            rec(
                "aabft_encode_a",
                ENCODE_UTILIZATION,
                encode_aabft_stats(rows.blocks, inner / bs, bs, p),
            ),
            rec(
                "aabft_encode_b",
                ENCODE_UTILIZATION,
                encode_aabft_stats(inner / bs, cols.blocks, bs, p),
            ),
            rec("gemm", gemm_util, gemm_stats(rows.total, inner, cols.total, t)),
            rec("aabft_reduce_pmax", REDUCE_UTILIZATION, reduce_stats(rows.total, inner / bs, p)),
            rec("aabft_reduce_pmax", REDUCE_UTILIZATION, reduce_stats(cols.total, inner / bs, p)),
            rec(
                "aabft_check",
                CHECK_UTILIZATION,
                check_aabft_stats(rows.blocks, cols.blocks, bs, p),
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aabft_baselines::{FixedBoundAbft, ProtectedGemm, SeaAbft, TmrGemm, UnprotectedGemm};
    use aabft_core::{AAbftConfig, AAbftGemm};
    use aabft_gpu_sim::device::Device;
    use aabft_matrix::Matrix;

    fn shape() -> PredictShape {
        PredictShape {
            n: 40,
            bs: 8,
            p: 2,
            tiling: GemmTiling { bm: 16, bn: 16, bk: 8, rx: 4, ry: 4 },
        }
    }

    fn measured(kind: SchemeKind, shape: &PredictShape) -> Vec<LaunchRecord> {
        let n = shape.n;
        let a: Matrix = Matrix::from_fn(n, n, |i, j| ((i * 3 + j) as f64 * 0.1).sin());
        let b: Matrix = Matrix::from_fn(n, n, |i, j| ((i + 7 * j) as f64 * 0.1).cos());
        let device = Device::with_defaults();
        match kind {
            SchemeKind::Unprotected => {
                UnprotectedGemm::new().with_tiling(shape.tiling).multiply(&device, &a, &b);
            }
            SchemeKind::Tmr => {
                TmrGemm::new().with_tiling(shape.tiling).multiply(&device, &a, &b);
            }
            SchemeKind::Abft => {
                FixedBoundAbft::new(1e-9, shape.bs)
                    .with_tiling(shape.tiling)
                    .multiply(&device, &a, &b);
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

    #[test]
    fn predictions_match_measured_logs_exactly() {
        let s = shape();
        for kind in [
            SchemeKind::Unprotected,
            SchemeKind::Tmr,
            SchemeKind::Abft,
            SchemeKind::SeaAbft,
            SchemeKind::AAbft,
        ] {
            let predicted = predict_launches(kind, &s);
            let actual = measured(kind, &s);
            assert_eq!(predicted.len(), actual.len(), "{kind:?}: launch count");
            for (p, a) in predicted.iter().zip(&actual) {
                assert_eq!(p.name, a.name, "{kind:?}");
                assert_eq!(p.utilization, a.utilization, "{kind:?}/{}", p.name);
                assert_eq!(p.stats, a.stats, "{kind:?}/{}", p.name);
            }
        }
    }
}
