//! Block-based GEMM kernel with register tiling and fault-injection sites —
//! the simulator counterpart of the paper's Algorithm 3.
//!
//! Each thread block computes a `BM × BN` tile of `C = A · B`; within the
//! block, every thread owns an `RX × RY` register micro-tile (its
//! "functional units", the `moduleID` coordinates of the fault-injection
//! interface). Tiles of `A` and `B` stream through shared memory `BK`
//! columns at a time. All three of the paper's fault sites are exercised:
//! the inner-loop multiply, the inner-loop add, and the final merge add.

use crate::device::{BlockCtx, Kernel};
use crate::dim::{BlockIdx, GridDim};
use crate::inject::FaultSite;
use crate::mem::{DeviceBuffer, SharedTile};
use crate::pack::{self, CleanEngine, PackBuf, PackPool, MR, NR};
use crate::stats::KernelStats;
use aabft_numerics::{MulMode, RoundingMode};
use parking_lot::RwLock;
use std::cell::RefCell;

/// Depth of one k-chunk of the packed engine: a block walks k in chunks
/// of `KC` across all of its micro-tiles, so a chunk of the block's `B`
/// panels (64 columns × 256 × 8 B = 128 KiB) stays in L2 and an `A`
/// panel chunk (16 KiB) in L1 while every micro-tile sweeps them.
const KC: usize = 256;

/// Per-worker-thread GEMM scratch: the shared-memory tiles and register
/// accumulators live once per thread and are reshaped per block, instead of
/// being reallocated inside every `run_block`.
#[derive(Debug)]
struct GemmScratch {
    sm_a: SharedTile,
    sm_b: SharedTile,
    accum: Vec<f64>,
}

impl GemmScratch {
    const fn new() -> Self {
        GemmScratch { sm_a: SharedTile::empty(), sm_b: SharedTile::empty(), accum: Vec::new() }
    }

    /// Reshapes the tiles and zeroes the accumulators for one block.
    fn reset(&mut self, bm: usize, bn: usize, bk: usize) {
        self.sm_a.reset(bm, bk);
        self.sm_b.reset(bk, bn);
        self.accum.clear();
        self.accum.resize(bm * bn, 0.0);
    }
}

thread_local! {
    static SCRATCH: RefCell<GemmScratch> = const { RefCell::new(GemmScratch::new()) };
}

/// Tile-shape parameters of the blocked GEMM (the `BM/BN/BK/RX/RY` of
/// Algorithm 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmTiling {
    /// Result-tile rows per block.
    pub bm: usize,
    /// Result-tile columns per block.
    pub bn: usize,
    /// Shared-memory depth per K iteration.
    pub bk: usize,
    /// Register-tile rows per thread.
    pub rx: usize,
    /// Register-tile columns per thread.
    pub ry: usize,
}

impl Default for GemmTiling {
    fn default() -> Self {
        // 64x64 tiles with BK = 16 give 0.125 bytes of global traffic per
        // FLOP -- compute-bound on K20c-class bandwidth, like the tuned
        // kernels of Tan et al. [19] the paper builds on.
        GemmTiling { bm: 64, bn: 64, bk: 16, rx: 4, ry: 4 }
    }
}

impl GemmTiling {
    /// Threads per block implied by the tiling.
    pub fn threads_per_block(&self) -> usize {
        (self.bm / self.rx) * (self.bn / self.ry)
    }

    /// Number of per-thread functional units (`moduleID` range).
    pub fn modules(&self) -> usize {
        self.rx * self.ry
    }

    /// Validates divisibility constraints.
    ///
    /// # Panics
    ///
    /// Panics if `bm % rx != 0` or `bn % ry != 0` or any field is zero.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }

    /// Checks divisibility constraints, returning a typed error instead of
    /// panicking (validating config builders route through this).
    pub fn check(&self) -> Result<(), crate::error::ConfigError> {
        use crate::error::ConfigError;
        if self.bm == 0 || self.bn == 0 || self.bk == 0 || self.rx == 0 || self.ry == 0 {
            return Err(ConfigError::new(
                "tiling",
                format!("{self:?}"),
                "all tile-shape fields positive",
            ));
        }
        if !self.bm.is_multiple_of(self.rx) {
            return Err(ConfigError::new(
                "tiling.bm",
                format!("bm={} rx={}", self.bm, self.rx),
                "bm divisible by rx",
            ));
        }
        if !self.bn.is_multiple_of(self.ry) {
            return Err(ConfigError::new(
                "tiling.bn",
                format!("bn={} ry={}", self.bn, self.ry),
                "bn divisible by ry",
            ));
        }
        Ok(())
    }
}

/// The blocked matrix-multiplication kernel (Algorithm 3). `A` is `m × n`,
/// `B` is `n × q`, `C` (output, pre-zeroed) is `m × q`.
///
/// # Examples
///
/// ```
/// use aabft_gpu_sim::device::Device;
/// use aabft_gpu_sim::kernels::gemm::{GemmKernel, GemmTiling};
/// use aabft_gpu_sim::mem::DeviceBuffer;
/// use aabft_matrix::{gemm, Matrix};
///
/// let a = Matrix::from_fn(64, 64, |i, j| ((i + 2 * j) as f64 * 0.1).sin());
/// let b = Matrix::from_fn(64, 64, |i, j| ((3 * i + j) as f64 * 0.1).cos());
/// let device = Device::with_defaults();
/// let (da, db) = (DeviceBuffer::from_matrix(&a), DeviceBuffer::from_matrix(&b));
/// let dc = DeviceBuffer::zeros(64 * 64);
/// let kernel = GemmKernel::new(&da, &db, &dc, 64, 64, 64, GemmTiling::default());
/// device.launch(kernel.grid(), &kernel);
/// let c = dc.to_matrix(64, 64);
/// assert!(c.approx_eq(&gemm::multiply(&a, &b), 1e-12));
/// ```
#[derive(Debug)]
pub struct GemmKernel<'a> {
    a: &'a DeviceBuffer,
    b: &'a DeviceBuffer,
    c: &'a DeviceBuffer,
    m: usize,
    n: usize,
    q: usize,
    tiling: GemmTiling,
    mul_mode: MulMode,
    rounding: RoundingMode,
    utilization: f64,
    engine: Option<CleanEngine>,
    pack_pool: Option<&'a PackPool>,
    /// The packed clean launch in flight: its pack epoch (panel groups
    /// stamped with it are this launch's, anything else is stale) and the
    /// panel buffer its workers share, checked out of the pool by
    /// [`Kernel::begin_clean_launch`] and returned by
    /// [`Kernel::end_clean_launch`].
    pack: RwLock<Option<(u64, PackBuf)>>,
}

impl<'a> GemmKernel<'a> {
    /// Creates the kernel for `C = A · B` with the given tiling.
    ///
    /// # Panics
    ///
    /// Panics if buffer sizes don't match the dimensions, the dimensions are
    /// not multiples of the tile shape, or the tiling is invalid. Pad inputs
    /// first (the paper's kernels also operate on padded matrices).
    pub fn new(
        a: &'a DeviceBuffer,
        b: &'a DeviceBuffer,
        c: &'a DeviceBuffer,
        m: usize,
        n: usize,
        q: usize,
        tiling: GemmTiling,
    ) -> Self {
        tiling.validate();
        assert_eq!(a.len(), m * n, "A buffer size mismatch");
        assert_eq!(b.len(), n * q, "B buffer size mismatch");
        assert_eq!(c.len(), m * q, "C buffer size mismatch");
        assert_eq!(m % tiling.bm, 0, "m = {m} must be a multiple of bm = {}", tiling.bm);
        assert_eq!(q % tiling.bn, 0, "q = {q} must be a multiple of bn = {}", tiling.bn);
        assert_eq!(n % tiling.bk, 0, "n = {n} must be a multiple of bk = {}", tiling.bk);
        GemmKernel {
            a,
            b,
            c,
            m,
            n,
            q,
            tiling,
            mul_mode: MulMode::Separate,
            rounding: RoundingMode::Nearest,
            utilization: 0.896,
            engine: None,
            pack_pool: None,
            pack: RwLock::new(None),
        }
    }

    /// Pins the clean-path engine for this kernel instance (tests and A/B
    /// benchmarks; the default is the packed engine).
    pub fn with_clean_engine(mut self, engine: CleanEngine) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Attaches the [`PackPool`] each packed clean launch checks its panel
    /// buffer out of, instead of the process-wide [`PackPool::shared`]
    /// (panel storage of the caller's own, whose packs
    /// [`PackPool::panel_packs`] counts apart from everyone else's).
    pub fn with_pack_pool(mut self, pool: &'a PackPool) -> Self {
        self.pack_pool = Some(pool);
        self
    }

    /// Switches the kernel to fused multiply-add arithmetic
    /// (paper Section IV-D).
    pub fn with_mul_mode(mut self, mode: MulMode) -> Self {
        self.mul_mode = mode;
        self
    }

    /// Overrides the modelled utilization (occupancy class).
    pub fn with_utilization(mut self, utilization: f64) -> Self {
        self.utilization = utilization;
        self
    }

    /// Switches the arithmetic to the given rounding mode (truncating
    /// hardware, Section IV-D).
    ///
    /// # Panics
    ///
    /// Panics when combined with [`MulMode::Fused`] (unsupported).
    pub fn with_rounding(mut self, rounding: RoundingMode) -> Self {
        assert!(
            !(rounding == RoundingMode::Truncation && self.mul_mode == MulMode::Fused),
            "truncating fused multiply-add is not supported"
        );
        self.rounding = rounding;
        self
    }

    /// The launch grid covering the whole result matrix.
    pub fn grid(&self) -> GridDim {
        GridDim::new(self.q / self.tiling.bn, self.m / self.tiling.bm)
    }
}

impl Kernel for GemmKernel<'_> {
    fn name(&self) -> &'static str {
        match self.mul_mode {
            MulMode::Separate => "gemm",
            MulMode::Fused => "gemm_fma",
        }
    }

    fn phase(&self) -> &'static str {
        "gemm"
    }

    fn utilization(&self) -> f64 {
        self.utilization
    }

    fn run_block(&self, ctx: &mut BlockCtx<'_>) {
        let GemmTiling { bm, bn, bk, rx, ry } = self.tiling;
        let (row0, col0) = (ctx.block().y * bm, ctx.block().x * bn);
        let threads_y = bm / rx;
        let threads_x = bn / ry;
        ctx.declare_threads(threads_y * threads_x);

        SCRATCH.with(|scratch| {
        let mut scratch = scratch.borrow_mut();
        scratch.reset(bm, bn, bk);
        let GemmScratch { sm_a, sm_b, accum } = &mut *scratch;

        let k_tiles = self.n / bk;
        for kt in 0..k_tiles {
            let k0 = kt * bk;
            // Cooperative tile loads (counted as bulk coalesced traffic).
            for i in 0..bm {
                for kk in 0..bk {
                    sm_a.set(i, kk, self.a.get((row0 + i) * self.n + k0 + kk));
                }
            }
            for kk in 0..bk {
                for j in 0..bn {
                    sm_b.set(kk, j, self.b.get((k0 + kk) * self.q + col0 + j));
                }
            }
            ctx.note_gmem_loads((bm * bk + bk * bn) as u64);
            ctx.note_smem((bm * bk + bk * bn) as u64);

            // Inner accumulation (Alg. 3's `ki` loop), per thread.
            for ty in 0..threads_y {
                for tx in 0..threads_x {
                    let base = (ty * threads_x + tx) * rx * ry;
                    for ki in 0..bk {
                        for i in 0..rx {
                            let a_val = sm_a.get(ty * rx + i, ki);
                            for j in 0..ry {
                                let module = i * ry + j;
                                let b_val = sm_b.get(ki, tx * ry + j);
                                let idx = base + module;
                                match self.mul_mode {
                                    MulMode::Separate => {
                                        let p = ctx.mul_at_rm(
                                            FaultSite::InnerMul,
                                            module,
                                            a_val,
                                            b_val,
                                            self.rounding,
                                        );
                                        accum[idx] = ctx.add_at_rm(
                                            FaultSite::InnerAdd,
                                            module,
                                            accum[idx],
                                            p,
                                            self.rounding,
                                        );
                                    }
                                    MulMode::Fused => {
                                        accum[idx] = ctx.fma_at(
                                            FaultSite::InnerAdd,
                                            module,
                                            a_val,
                                            b_val,
                                            accum[idx],
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
            }
            ctx.note_smem((threads_y * threads_x * bk * (rx + ry)) as u64);
        }

        // Final merge into C (Alg. 3's closing accumulation — FinalAdd site).
        for ty in 0..threads_y {
            for tx in 0..threads_x {
                let base = (ty * threads_x + tx) * rx * ry;
                for i in 0..rx {
                    for j in 0..ry {
                        let module = i * ry + j;
                        let gi = row0 + ty * rx + i;
                        let gj = col0 + tx * ry + j;
                        let idx = gi * self.q + gj;
                        let cur = ctx.load(self.c, idx);
                        let merged = ctx.add_at_rm(
                            FaultSite::FinalAdd,
                            module,
                            cur,
                            accum[base + module],
                            self.rounding,
                        );
                        ctx.store(self.c, idx, merged);
                    }
                }
            }
        }
        });
    }

    fn supports_clean_path(&self) -> bool {
        // Truncating arithmetic goes through error-free transforms whose
        // cost is the whole point of measuring — no fast path for it.
        self.rounding == RoundingMode::Nearest
    }

    fn begin_clean_launch(&self) {
        if self.engine() == CleanEngine::Packed {
            let mut buf = self.pool().take();
            buf.ensure(self.m / self.tiling.bm, self.q / self.tiling.bn);
            *self.pack.write() = Some((pack::next_epoch(), buf));
        }
    }

    fn end_clean_launch(&self) {
        if let Some((_, buf)) = self.pack.write().take() {
            self.pool().put(buf);
        }
    }

    fn run_block_clean(&self, block: BlockIdx, stats: &mut KernelStats) {
        match self.engine() {
            CleanEngine::Packed => {
                self.run_block_packed(block);
                self.account_clean_block(stats);
            }
            CleanEngine::Scalar => self.run_block_scalar(block, stats),
        }
    }
}

impl GemmKernel<'_> {
    /// The clean-path engine this kernel runs.
    fn engine(&self) -> CleanEngine {
        self.engine.unwrap_or(CleanEngine::Packed)
    }

    /// The pool this kernel's panel buffer comes from.
    fn pool(&self) -> &PackPool {
        self.pack_pool.unwrap_or(PackPool::shared())
    }

    /// Packed clean block: fetch the block row's `A` panels and the block
    /// column's `B` panels (packed once per launch by whichever worker
    /// needs them first), then walk k in [`KC`]-deep chunks, running the
    /// 8×8 microkernel over every micro-tile per chunk with the tiles'
    /// accumulators parked in worker scratch between chunks. Each
    /// accumulator still consumes its products in ascending-`k` order —
    /// the same per-accumulator sequence as the instrumented tile loops —
    /// so results are bit-identical for any tiling; only the iteration
    /// order *across* independent accumulators changes, which round-to-
    /// nearest arithmetic cannot observe.
    fn run_block_packed(&self, block: BlockIdx) {
        let GemmTiling { bm, bn, .. } = self.tiling;
        let (row0, col0) = (block.y * bm, block.x * bn);
        let (n, q) = (self.n, self.q);
        let packs = self.pool().pack_counter();
        let launch = self.pack.read();
        let (epoch, buf) = launch.as_ref().expect("packed clean launch begun");
        let a_panels = buf.a_group(*epoch, self.a, block.y, bm, n, n, packs);
        let b_panels = buf.b_group(*epoch, self.b, block.x, bn, n, q, packs);
        pack::note_packed_block();
        let (ppa, ppb) = (bm.div_ceil(MR), bn.div_ceil(NR));

        SCRATCH.with(|scratch| {
            let tiles = &mut scratch.borrow_mut().accum;
            tiles.clear();
            tiles.resize(ppa * ppb * MR * NR, 0.0);

            for k0 in (0..n).step_by(KC) {
                let k1 = n.min(k0 + KC);
                let mut tile_of = tiles.chunks_exact_mut(MR * NR);
                for pi in 0..ppa {
                    let mr = MR.min(bm - pi * MR);
                    let ap = &a_panels.panel(pi, mr, n)[k0 * mr..k1 * mr];
                    for pj in 0..ppb {
                        let nr = NR.min(bn - pj * NR);
                        let bp = &b_panels.panel(pj, nr, n)[k0 * nr..k1 * nr];
                        let tile = tile_of.next().expect("one tile per micro-tile");
                        self.micro_tile(ap, bp, mr, nr, tile.try_into().expect("MR×NR tile"));
                    }
                }
            }

            for (t, tile) in tiles.chunks_exact(MR * NR).enumerate() {
                let (pi, pj) = (t / ppb, t % ppb);
                let (mr, nr) = (MR.min(bm - pi * MR), NR.min(bn - pj * NR));
                for i in 0..mr {
                    let base = (row0 + pi * MR + i) * q + col0 + pj * NR;
                    for j in 0..nr {
                        self.c.set(base + j, self.c.get(base + j) + tile[i * NR + j]);
                    }
                }
            }
        });
    }

    /// Advances one `mr × nr` micro-tile's accumulators (row-major at an
    /// [`NR`] pitch in `tile`) over one k-chunk of its `A` panel `ap` and
    /// `B` panel `bp`.
    #[inline(always)]
    fn micro_tile(&self, ap: &[f64], bp: &[f64], mr: usize, nr: usize, tile: &mut [f64; MR * NR]) {
        if mr == MR && nr == NR {
            // Hot case: full 8×8 micro-tile, computed as two 4×8 register
            // sub-tiles. A sub-tile's 32 live accumulators plus the loaded
            // panel fragments fit a 16×256-bit vector register file (the
            // full 8×8 tile alone would consume it and spill every
            // iteration); its four rows of two vectors give 8 independent
            // FMA chains. Each accumulator still consumes its products in
            // ascending k — splitting rows only reorders work *across*
            // accumulators.
            for half in 0..2 {
                let i0 = half * 4;
                let mut sub = [0.0f64; 4 * NR];
                sub.copy_from_slice(&tile[i0 * NR..(i0 + 4) * NR]);
                match self.mul_mode {
                    MulMode::Separate => {
                        for (af, bf) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
                            for i in 0..4 {
                                let av = af[i0 + i];
                                for j in 0..NR {
                                    sub[i * NR + j] += av * bf[j];
                                }
                            }
                        }
                    }
                    MulMode::Fused => {
                        for (af, bf) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
                            for i in 0..4 {
                                let av = af[i0 + i];
                                for j in 0..NR {
                                    sub[i * NR + j] = av.mul_add(bf[j], sub[i * NR + j]);
                                }
                            }
                        }
                    }
                }
                tile[i0 * NR..(i0 + 4) * NR].copy_from_slice(&sub);
            }
        } else {
            // Edge micro-tiles (bm or bn not a multiple of 8).
            match self.mul_mode {
                MulMode::Separate => {
                    for (af, bf) in ap.chunks_exact(mr).zip(bp.chunks_exact(nr)) {
                        for (i, &av) in af.iter().enumerate() {
                            for (j, &bv) in bf.iter().enumerate() {
                                tile[i * NR + j] += av * bv;
                            }
                        }
                    }
                }
                MulMode::Fused => {
                    for (af, bf) in ap.chunks_exact(mr).zip(bp.chunks_exact(nr)) {
                        for (i, &av) in af.iter().enumerate() {
                            for (j, &bv) in bf.iter().enumerate() {
                                tile[i * NR + j] = av.mul_add(bv, tile[i * NR + j]);
                            }
                        }
                    }
                }
            }
        }
    }

    /// The PR-4 clean body (4×4 register blocking over direct buffer
    /// reads), kept as the `CleanEngine::Scalar` baseline `bench_gemm`
    /// measures the packed engine against.
    fn run_block_scalar(&self, block: BlockIdx, stats: &mut KernelStats) {
        let GemmTiling { bm, bn, bk, rx, ry } = self.tiling;
        let (row0, col0) = (block.y * bm, block.x * bn);
        let threads_y = bm / rx;
        let threads_x = bn / ry;

        if rx == 4 && ry == 4 {
            // Register-blocked specialization of the default micro-tile: the
            // 4×4 accumulator lives in a fixed-size array (registers), and
            // the k loop walks 0..n directly — the same per-accumulator
            // order as the instrumented path's kt-outer/ki-inner loops, so
            // results stay bit-identical while skipping the tile staging.
            let (n, q) = (self.n, self.q);
            for ty in 0..threads_y {
                let r0 = row0 + ty * 4;
                for tx in 0..threads_x {
                    let c0 = col0 + tx * 4;
                    let mut acc = [0.0f64; 16];
                    match self.mul_mode {
                        MulMode::Separate => {
                            for k in 0..n {
                                let bb = k * q + c0;
                                let b0 = self.b.get(bb);
                                let b1 = self.b.get(bb + 1);
                                let b2 = self.b.get(bb + 2);
                                let b3 = self.b.get(bb + 3);
                                for i in 0..4 {
                                    let av = self.a.get((r0 + i) * n + k);
                                    acc[i * 4] += av * b0;
                                    acc[i * 4 + 1] += av * b1;
                                    acc[i * 4 + 2] += av * b2;
                                    acc[i * 4 + 3] += av * b3;
                                }
                            }
                        }
                        MulMode::Fused => {
                            for k in 0..n {
                                let bb = k * q + c0;
                                let b0 = self.b.get(bb);
                                let b1 = self.b.get(bb + 1);
                                let b2 = self.b.get(bb + 2);
                                let b3 = self.b.get(bb + 3);
                                for i in 0..4 {
                                    let av = self.a.get((r0 + i) * n + k);
                                    acc[i * 4] = av.mul_add(b0, acc[i * 4]);
                                    acc[i * 4 + 1] = av.mul_add(b1, acc[i * 4 + 1]);
                                    acc[i * 4 + 2] = av.mul_add(b2, acc[i * 4 + 2]);
                                    acc[i * 4 + 3] = av.mul_add(b3, acc[i * 4 + 3]);
                                }
                            }
                        }
                    }
                    for i in 0..4 {
                        for j in 0..4 {
                            let idx = (r0 + i) * q + c0 + j;
                            self.c.set(idx, self.c.get(idx) + acc[i * 4 + j]);
                        }
                    }
                }
            }
            self.account_clean_block(stats);
            return;
        }

        SCRATCH.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            scratch.reset(bm, bn, bk);
            let GemmScratch { sm_a, sm_b, accum } = &mut *scratch;
            let sm_a = sm_a.as_mut_slice();
            let sm_b = sm_b.as_mut_slice();

            let k_tiles = self.n / bk;
            for kt in 0..k_tiles {
                let k0 = kt * bk;
                for i in 0..bm {
                    self.a.read_slice((row0 + i) * self.n + k0, &mut sm_a[i * bk..(i + 1) * bk]);
                }
                for kk in 0..bk {
                    self.b.read_slice((k0 + kk) * self.q + col0, &mut sm_b[kk * bn..(kk + 1) * bn]);
                }

                // Same ty → tx → ki → i → j order as the instrumented path:
                // each accumulator sees its products in the identical
                // sequence, so round-to-nearest results are bit-identical.
                for ty in 0..threads_y {
                    for tx in 0..threads_x {
                        let base = (ty * threads_x + tx) * rx * ry;
                        let acc = &mut accum[base..base + rx * ry];
                        for ki in 0..bk {
                            let b_row = &sm_b[ki * bn + tx * ry..ki * bn + tx * ry + ry];
                            for i in 0..rx {
                                let a_val = sm_a[(ty * rx + i) * bk + ki];
                                let acc_row = &mut acc[i * ry..i * ry + ry];
                                match self.mul_mode {
                                    MulMode::Separate => {
                                        for (c, &b_val) in acc_row.iter_mut().zip(b_row) {
                                            *c += a_val * b_val;
                                        }
                                    }
                                    MulMode::Fused => {
                                        for (c, &b_val) in acc_row.iter_mut().zip(b_row) {
                                            *c = a_val.mul_add(b_val, *c);
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }

            for ty in 0..threads_y {
                for tx in 0..threads_x {
                    let base = (ty * threads_x + tx) * rx * ry;
                    for i in 0..rx {
                        let gi = row0 + ty * rx + i;
                        for j in 0..ry {
                            let gj = col0 + tx * ry + j;
                            let idx = gi * self.q + gj;
                            self.c.set(idx, self.c.get(idx) + accum[base + i * ry + j]);
                        }
                    }
                }
            }
        });

        self.account_clean_block(stats);
    }
}

impl GemmKernel<'_> {
    /// Closed-form accounting for one clean-path block, mirroring exactly
    /// what the instrumented path counts (derivation in DESIGN.md §11).
    fn account_clean_block(&self, stats: &mut KernelStats) {
        let GemmTiling { bm, bn, bk, rx, ry } = self.tiling;
        let threads = ((bm / rx) * (bn / ry)) as u64;
        let elems = (bm * bn) as u64;
        let k_tiles = (self.n / bk) as u64;
        let n = self.n as u64;
        stats.threads += threads;
        stats.gmem_loads += k_tiles * (bm * bk + bk * bn) as u64 + elems;
        stats.gmem_stores += elems;
        stats.smem_accesses += k_tiles * ((bm * bk + bk * bn) as u64 + threads * (bk * (rx + ry)) as u64);
        match self.mul_mode {
            MulMode::Separate => {
                stats.fmul += n * elems;
                stats.fadd += n * elems + elems;
                stats.fpu_ticks += 2 * n * elems + elems;
            }
            MulMode::Fused => {
                stats.ffma += n * elems;
                stats.fadd += elems;
                stats.fpu_ticks += n * elems + elems;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;
    use aabft_matrix::{gemm, Matrix};

    fn run(m: usize, n: usize, q: usize, tiling: GemmTiling, mode: MulMode) -> (Matrix<f64>, Matrix<f64>) {
        let a = Matrix::from_fn(m, n, |i, j| ((i * 7 + j * 3) as f64 * 0.017).sin());
        let b = Matrix::from_fn(n, q, |i, j| ((i * 5 + j * 11) as f64 * 0.013).cos());
        let device = Device::with_defaults();
        let (da, db) = (DeviceBuffer::from_matrix(&a), DeviceBuffer::from_matrix(&b));
        let dc = DeviceBuffer::zeros(m * q);
        let kernel = GemmKernel::new(&da, &db, &dc, m, n, q, tiling).with_mul_mode(mode);
        device.launch(kernel.grid(), &kernel);
        (dc.to_matrix(m, q), gemm::multiply(&a, &b))
    }

    #[test]
    fn matches_reference_default_tiling() {
        let (c, expect) = run(64, 64, 64, GemmTiling::default(), MulMode::Separate);
        assert!(c.approx_eq(&expect, 1e-12), "max diff {}", c.max_abs_diff(&expect));
    }

    #[test]
    fn matches_reference_rectangular() {
        let t = GemmTiling { bm: 16, bn: 8, bk: 4, rx: 2, ry: 2 };
        let (c, expect) = run(32, 20, 24, t, MulMode::Separate);
        assert!(c.approx_eq(&expect, 1e-12));
    }

    #[test]
    fn fma_mode_close_to_reference() {
        let (c, expect) = run(64, 64, 64, GemmTiling::default(), MulMode::Fused);
        assert!(c.approx_eq(&expect, 1e-12));
    }

    #[test]
    fn stats_count_expected_flops() {
        let m = 64;
        let a = Matrix::from_fn(m, m, |_, _| 1.0);
        let device = Device::with_defaults();
        let (da, db) = (DeviceBuffer::from_matrix(&a), DeviceBuffer::from_matrix(&a));
        let dc = DeviceBuffer::zeros(m * m);
        let kernel = GemmKernel::new(&da, &db, &dc, m, m, m, GemmTiling::default());
        let stats = device.launch(kernel.grid(), &kernel);
        // n^3 multiplies, n^3 inner adds, n^2 final adds.
        assert_eq!(stats.fmul, (m * m * m) as u64);
        assert_eq!(stats.fadd, (m * m * m + m * m) as u64);
        assert_eq!(stats.gmem_stores, (m * m) as u64);
    }

    #[test]
    #[should_panic(expected = "multiple of bm")]
    fn non_multiple_dims_panic() {
        let da = DeviceBuffer::zeros(65 * 64);
        let db = DeviceBuffer::zeros(64 * 64);
        let dc = DeviceBuffer::zeros(65 * 64);
        GemmKernel::new(&da, &db, &dc, 65, 64, 64, GemmTiling::default());
    }
}
