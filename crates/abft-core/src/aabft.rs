//! The complete A-ABFT protected matrix multiplication (paper Section V).
//!
//! Pipeline, exactly as the paper stages it:
//!
//! 1. encoding kernels — checksum encoding fused with the per-block p-max
//!    search, for `A` (column checksums) and `B` (row checksums);
//! 2. the block-based multiplication kernel over the augmented operands;
//! 3. reduction of the block-wise p-max partials to global per-line tables;
//! 4. the checking kernel — autonomous rounding-error bounds, reference
//!    checksums and comparison.
//!
//! The host then decodes the report and (optionally) repairs located single
//! errors.
//!
//! Entry points: [`AAbftGemm::execute`] runs the whole pipeline on an
//! [`ExecCtx`] (device + stream + observability) and returns a typed error
//! on shape mismatch; [`AAbftGemm::multiply`] is the historical convenience
//! wrapper on the default stream. The pipeline is also exposed *staged* —
//! [`AAbftGemm::begin`] returns a [`MultiplyRun`] whose phase methods the
//! batch engine ([`crate::batch`]) interleaves across requests on separate
//! streams, reusing pooled [`RunBuffers`].

use crate::check::CheckReport;
use crate::config::AAbftConfig;
use crate::correct::Correction;
use crate::encoding::{AugmentedLayout, FullChecksummed};
use crate::error::AbftError;
use crate::kernels::buffers::PMaxBuffers;
use crate::kernels::check::{CheckKernel, DIAG_WORDS, REPORT_WORDS};
use crate::kernels::encode::{EncodeColumnsKernel, EncodeRowsKernel};
use crate::kernels::reduce::ReducePMaxKernel;
use crate::recover::{apply_policy, RecomputeBlocksKernel, RecoveryOutcome};
use aabft_gpu_sim::device::{Device, Kernel};
use aabft_gpu_sim::kernels::gemm::GemmKernel;
use aabft_gpu_sim::mem::DeviceBuffer;
use aabft_gpu_sim::{ConfigError, ExecCtx};
use aabft_matrix::Matrix;

/// Smoothing factor for the `abft.fault_rate_ewma` gauge: each check
/// verdict contributes a 0/1 "flagged" sample with this weight, so the
/// gauge tracks the recent per-check detected-fault probability over
/// roughly the last `1/α = 10` checks.
const FAULT_RATE_EWMA_ALPHA: f64 = 0.1;

/// Feeds one check verdict into the online fault-rate estimator
/// (`abft.fault_rate_ewma`): an EWMA of the flagged/clean bit, seeded by
/// the first sample. Plain runs sample once per multiply (in
/// `conclude`); the self-healing loop samples every decoded verdict,
/// including re-checks after repair. The read-modify-write is not
/// atomic; under a rayon campaign concurrent updates may drop samples,
/// which only slows convergence — the gauge always stays a convex
/// combination of 0/1 samples, hence within [0, 1].
pub(crate) fn observe_fault_rate(metrics: &aabft_obs::Metrics, flagged: bool) {
    let sample = f64::from(u8::from(flagged));
    let ewma = match metrics.gauge("abft.fault_rate_ewma") {
        Some(prev) => prev + FAULT_RATE_EWMA_ALPHA * (sample - prev),
        None => sample,
    };
    metrics.gauge_set("abft.fault_rate_ewma", ewma);
}

/// Result of one protected multiplication.
#[derive(Debug)]
pub struct AAbftOutcome {
    /// The caller-visible product (corrected when correction is enabled).
    pub product: Matrix<f64>,
    /// The raw full-checksum product with its layouts.
    pub full: FullChecksummed,
    /// Decoded checksum-check findings.
    pub report: CheckReport,
    /// Corrections applied (empty unless enabled and errors were located).
    pub corrections: Vec<Correction>,
    /// Result blocks recomputed from the operands (only under
    /// [`crate::recover::RecoveryPolicy::CorrectOrRecompute`]).
    pub recomputed_blocks: Vec<(usize, usize)>,
}

impl AAbftOutcome {
    /// `true` if the check flagged any checksum.
    pub fn errors_detected(&self) -> bool {
        self.report.errors_detected()
    }
}

/// Shape-dependent execution plan for operands `m × n · n × q` under a
/// fixed configuration: the augmented axis layouts and the padded inner
/// extent. Pure geometry — the batch engine caches plans keyed by
/// `(m, n, q, BS)` so repeated shapes skip the layout computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmPlan {
    /// Row-axis layout (from `A`).
    pub rows: AugmentedLayout,
    /// Padded inner extent.
    pub inner: usize,
    /// Column-axis layout (from `B`).
    pub cols: AugmentedLayout,
}

/// The device buffers one protected multiplication works in. Sized by a
/// [`GemmPlan`], so the batch engine pools them per plan key and reuses
/// them across requests of the same shape ([`RunBuffers::reset`] rezeros
/// between uses; freshly allocated buffers start zeroed and skip it).
#[derive(Debug)]
pub struct RunBuffers {
    /// Augmented `A` operand (`rows.total × inner`).
    pub a: DeviceBuffer,
    /// Augmented `B` operand (`inner × cols.total`).
    pub b: DeviceBuffer,
    /// Augmented product (`rows.total × cols.total`).
    pub c: DeviceBuffer,
    /// p-max buffers for `A`'s rows.
    pub pmax_a: PMaxBuffers,
    /// p-max buffers for `B`'s columns.
    pub pmax_b: PMaxBuffers,
    /// Check-report words per result block.
    pub report: DeviceBuffer,
    /// Check diagnostics words per result block.
    pub diag: DeviceBuffer,
    /// Whether a run has used the buffers since they were allocated
    /// zeroed; only used buffers need rezeroing before the next upload.
    used: bool,
}

impl RunBuffers {
    /// Allocates zeroed buffers sized for `plan` with `p` tracked maxima.
    pub fn for_plan(plan: &GemmPlan, p: usize) -> Self {
        let bs = plan.rows.block_size;
        RunBuffers {
            a: DeviceBuffer::zeros(plan.rows.total * plan.inner),
            b: DeviceBuffer::zeros(plan.inner * plan.cols.total),
            c: DeviceBuffer::zeros(plan.rows.total * plan.cols.total),
            pmax_a: PMaxBuffers::new(plan.rows.total, plan.inner / bs, p),
            pmax_b: PMaxBuffers::new(plan.cols.total, plan.inner / bs, p),
            report: DeviceBuffer::zeros(REPORT_WORDS * plan.rows.blocks * plan.cols.blocks),
            diag: DeviceBuffer::zeros(DIAG_WORDS * plan.rows.blocks * plan.cols.blocks),
            used: false,
        }
    }

    /// `true` if these buffers fit `plan` with `p` tracked maxima exactly.
    pub fn fits(&self, plan: &GemmPlan, p: usize) -> bool {
        let bs = plan.rows.block_size;
        self.a.len() == plan.rows.total * plan.inner
            && self.b.len() == plan.inner * plan.cols.total
            && self.c.len() == plan.rows.total * plan.cols.total
            && self.pmax_a.lines == plan.rows.total
            && self.pmax_a.blocks == plan.inner / bs
            && self.pmax_a.p == p
            && self.pmax_b.lines == plan.cols.total
            && self.report.len() == REPORT_WORDS * plan.rows.blocks * plan.cols.blocks
    }

    /// Rezeros every buffer (before reusing pooled buffers for a new
    /// request).
    pub fn reset(&self) {
        self.a.clear();
        self.b.clear();
        self.c.clear();
        self.pmax_a.partial_vals.clear();
        self.pmax_a.partial_idxs.clear();
        self.pmax_a.final_vals.clear();
        self.pmax_a.final_idxs.clear();
        self.pmax_b.partial_vals.clear();
        self.pmax_b.partial_idxs.clear();
        self.pmax_b.final_vals.clear();
        self.pmax_b.final_idxs.clear();
        self.report.clear();
        self.diag.clear();
    }
}

/// The A-ABFT protected GEMM operator.
///
/// # Examples
///
/// ```
/// use aabft_core::{AAbftConfig, AAbftGemm};
/// use aabft_gpu_sim::Device;
/// use aabft_matrix::Matrix;
///
/// let a = Matrix::from_fn(8, 8, |i, j| ((i + j) as f64 * 0.3).sin());
/// let b = Matrix::from_fn(8, 8, |i, j| ((i * 2 + j) as f64 * 0.2).cos());
/// let config = AAbftConfig::builder().block_size(4).build().unwrap();
/// let gemm = AAbftGemm::new(config);
/// let device = Device::with_defaults();
/// let outcome = gemm.multiply(&device, &a, &b);
/// assert!(!outcome.errors_detected()); // fault-free run, no false positives
/// assert_eq!(outcome.product.shape(), (8, 8));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct AAbftGemm {
    config: AAbftConfig,
}

impl Default for AAbftGemm {
    /// The paper's evaluation configuration ([`AAbftConfig::default`]).
    fn default() -> Self {
        AAbftGemm { config: AAbftConfig::default() }
    }
}

impl AAbftGemm {
    /// Creates the operator.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; [`AAbftGemm::try_new`] is
    /// the non-panicking variant.
    pub fn new(config: AAbftConfig) -> Self {
        match Self::try_new(config) {
            Ok(g) => g,
            Err(e) => panic!("{e}"),
        }
    }

    /// Creates the operator, rejecting invalid configurations with a typed
    /// error.
    pub fn try_new(config: AAbftConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        Ok(AAbftGemm { config })
    }

    /// The active configuration.
    pub fn config(&self) -> &AAbftConfig {
        &self.config
    }

    /// Axis layouts and padded inner extent for operand shapes `m × n · n × q`.
    pub fn layouts(&self, m: usize, n: usize, q: usize) -> (AugmentedLayout, usize, AugmentedLayout) {
        let bs = self.config.block_size;
        let t = self.config.tiling;
        let rows = AugmentedLayout::new(m, bs, t.bm);
        let cols = AugmentedLayout::new(q, bs, t.bn);
        let inner = n.div_ceil(lcm(bs, t.bk)) * lcm(bs, t.bk);
        (rows, inner, cols)
    }

    /// The execution plan for operand shapes `m × n · n × q`.
    pub fn plan(&self, m: usize, n: usize, q: usize) -> GemmPlan {
        let (rows, inner, cols) = self.layouts(m, n, q);
        GemmPlan { rows, inner, cols }
    }

    /// Runs the protected multiplication `C = A · B` on `device` (default
    /// stream, device observability) — the convenience form of
    /// [`AAbftGemm::execute`].
    ///
    /// # Panics
    ///
    /// Panics if `a.cols() != b.rows()`.
    pub fn multiply(&self, device: &Device, a: &Matrix<f64>, b: &Matrix<f64>) -> AAbftOutcome {
        match self.execute(&ExecCtx::new(device), a, b) {
            Ok(outcome) => outcome,
            Err(e) => panic!("{e}"),
        }
    }

    /// Runs the protected multiplication `C = A · B` on an execution
    /// context (device + stream + observability sink).
    ///
    /// Rejects mismatched operand shapes with a typed error instead of
    /// panicking.
    pub fn execute(
        &self,
        ctx: &ExecCtx<'_>,
        a: &Matrix<f64>,
        b: &Matrix<f64>,
    ) -> Result<AAbftOutcome, AbftError> {
        let _pipeline = aabft_obs::span!(
            ctx.obs,
            "abft",
            "aabft_multiply",
            "m" => a.rows() as u64,
            "n" => a.cols() as u64,
            "q" => b.cols() as u64,
            "p" => self.config.p as u64,
        );
        let run = self.begin(ctx, a, b)?;
        run.encode_and_gemm(ctx);
        run.reduce(ctx);
        run.check(ctx);
        let (outcome, _bufs) = run.finish(ctx);
        Ok(outcome)
    }

    /// Starts a staged multiplication: checks shapes, allocates fresh
    /// [`RunBuffers`] and uploads the operands. The caller then drives
    /// [`MultiplyRun::encode`], [`MultiplyRun::gemm`],
    /// [`MultiplyRun::reduce`], [`MultiplyRun::check`] and
    /// [`MultiplyRun::finish`] — in that order.
    pub fn begin(
        &self,
        ctx: &ExecCtx<'_>,
        a: &Matrix<f64>,
        b: &Matrix<f64>,
    ) -> Result<MultiplyRun, AbftError> {
        if a.cols() != b.rows() {
            return Err(AbftError::ShapeMismatch {
                op: "multiply",
                left: a.shape(),
                right: b.shape(),
            });
        }
        let plan = self.plan(a.rows(), a.cols(), b.cols());
        let bufs = RunBuffers::for_plan(&plan, self.config.p);
        self.begin_with(ctx, a, b, bufs)
    }

    /// [`AAbftGemm::begin`] with caller-provided (pooled) buffers, which
    /// are rezeroed (unless fresh from [`RunBuffers::for_plan`]) and
    /// refilled in place.
    ///
    /// # Panics
    ///
    /// Panics if `bufs` was not sized for these operands' plan (a pool
    /// bookkeeping bug, not user input).
    pub fn begin_with(
        &self,
        ctx: &ExecCtx<'_>,
        a: &Matrix<f64>,
        b: &Matrix<f64>,
        mut bufs: RunBuffers,
    ) -> Result<MultiplyRun, AbftError> {
        if a.cols() != b.rows() {
            return Err(AbftError::ShapeMismatch {
                op: "multiply",
                left: a.shape(),
                right: b.shape(),
            });
        }
        let (m, n, q) = (a.rows(), a.cols(), b.cols());
        let plan = self.plan(m, n, q);
        assert!(bufs.fits(&plan, self.config.p), "run buffers do not fit the plan");

        // Upload operands into their augmented, padded layouts (checksum
        // regions zeroed; the encoding kernels fill them).
        let _s = aabft_obs::span!(ctx.obs, "phase", "upload");
        if bufs.used {
            bufs.reset();
        }
        bufs.used = true;
        for i in 0..m {
            bufs.a.write_slice(i * plan.inner, a.row(i));
        }
        for i in 0..n {
            bufs.b.write_slice(i * plan.cols.total, b.row(i));
        }
        let run = MultiplyRun {
            config: self.config,
            m,
            n,
            q,
            plan,
            bufs,
            launch_base: ctx.device.launches_issued(),
        };
        run.land_memory_faults(ctx, "upload");
        Ok(run)
    }
}

/// In-flight state of one staged protected multiplication (see
/// [`AAbftGemm::begin`]). Phase methods must be called in pipeline order on
/// the same stream; different runs on different streams may have their
/// phases interleaved freely — that is exactly what the batch engine does.
#[derive(Debug)]
pub struct MultiplyRun {
    config: AAbftConfig,
    m: usize,
    n: usize,
    q: usize,
    plan: GemmPlan,
    bufs: RunBuffers,
    /// Device launch-sequence frontier when this run began; the distance
    /// from here to a completed check is the run's detection latency in
    /// launches (on a shared device, interleaved runs' launches count —
    /// that is the real distance to detection the host observes).
    launch_base: u64,
}

impl MultiplyRun {
    /// The plan this run was laid out with.
    pub fn plan(&self) -> &GemmPlan {
        &self.plan
    }

    /// Gives armed memory-at-rest faults ([`aabft_gpu_sim::MemoryFaultPlan`])
    /// their chance to land after `phase`. A pure host-side hook: no kernel
    /// launch, no span, so the observability and launch-count contracts of a
    /// fault-free run are untouched.
    fn land_memory_faults(&self, ctx: &ExecCtx<'_>, phase: &str) {
        ctx.device.apply_memory_faults(
            phase,
            &[("a", &self.bufs.a), ("b", &self.bufs.b), ("c", &self.bufs.c)],
        );
    }

    /// Step 1: encoding + per-block p-max for both operands.
    pub fn encode(&self, ctx: &ExecCtx<'_>) {
        let _s = aabft_obs::span!(ctx.obs, "phase", "encode");
        let encode_a =
            EncodeColumnsKernel::new(&self.bufs.a, &self.bufs.pmax_a, self.plan.rows, self.plan.inner);
        ctx.launch(encode_a.grid(), &encode_a);
        let encode_b =
            EncodeRowsKernel::new(&self.bufs.b, &self.bufs.pmax_b, self.plan.cols, self.plan.inner);
        ctx.launch(encode_b.grid(), &encode_b);
        self.land_memory_faults(ctx, "encode");
    }

    /// The multiplication kernel over this run's augmented operands,
    /// wired to the device's clean engine (the per-device
    /// [`DeviceConfig`] choice). Its panels come from the process-wide
    /// pack pool, so every multiply reuses the panel storage of the last.
    ///
    /// [`DeviceConfig`]: aabft_gpu_sim::device::DeviceConfig
    fn gemm_kernel(&self, ctx: &ExecCtx<'_>) -> GemmKernel<'_> {
        GemmKernel::new(
            &self.bufs.a,
            &self.bufs.b,
            &self.bufs.c,
            self.plan.rows.total,
            self.plan.inner,
            self.plan.cols.total,
            self.config.tiling,
        )
        .with_mul_mode(self.config.mul_mode)
        .with_rounding(self.config.rounding)
        .with_clean_engine(ctx.device.clean_engine())
    }

    /// Step 2: the multiplication over the augmented operands.
    pub fn gemm(&self, ctx: &ExecCtx<'_>) {
        let _s = aabft_obs::span!(ctx.obs, "phase", "gemm");
        let gemm = self.gemm_kernel(ctx);
        ctx.launch(gemm.grid(), &gemm);
        self.land_memory_faults(ctx, "gemm");
    }

    /// Steps 1+2 as one fused dispatch: both encode kernels run as the
    /// first stage and the packed GEMM as the second of a single
    /// [`aabft_gpu_sim::Device::launch_fused_on`] call, dropping the clean
    /// path of a protected multiply from 6 dispatches to 4 (the analogue
    /// of paper Alg. 1 fusing encoding with the p-max search). Falls back
    /// to the classic separate [`MultiplyRun::encode`] +
    /// [`MultiplyRun::gemm`] phases whenever any fault plan is armed, the
    /// instrumented path is forced, or the GEMM configuration has no clean
    /// body — campaigns keep the exact 6-launch shape (and the
    /// inter-phase memory-fault landing points) they calibrate against.
    pub fn encode_and_gemm(&self, ctx: &ExecCtx<'_>) {
        let gemm = self.gemm_kernel(ctx);
        if !ctx.device.fusion_viable() || !gemm.supports_clean_path() {
            self.encode(ctx);
            self.gemm(ctx);
            return;
        }
        let _se = aabft_obs::span!(ctx.obs, "phase", "encode");
        let _sg = aabft_obs::span!(ctx.obs, "phase", "gemm");
        let encode_a =
            EncodeColumnsKernel::new(&self.bufs.a, &self.bufs.pmax_a, self.plan.rows, self.plan.inner);
        let encode_b =
            EncodeRowsKernel::new(&self.bufs.b, &self.bufs.pmax_b, self.plan.cols, self.plan.inner);
        ctx.launch_fused(&[
            &[(encode_a.grid(), &encode_a as &dyn Kernel), (encode_b.grid(), &encode_b)],
            &[(gemm.grid(), &gemm)],
        ]);
        // Parity with the separate phases: nothing is armed here (fusion
        // viability was just checked), so these are no-ops, but the hook
        // order stays identical.
        self.land_memory_faults(ctx, "encode");
        self.land_memory_faults(ctx, "gemm");
    }

    /// Step 3: global p-max reduction (the paper overlaps this with the
    /// multiplication; the performance model charges it separately).
    pub fn reduce(&self, ctx: &ExecCtx<'_>) {
        let _s = aabft_obs::span!(ctx.obs, "phase", "pmax_reduce");
        let reduce_a = ReducePMaxKernel::new(&self.bufs.pmax_a);
        ctx.launch(reduce_a.grid(), &reduce_a);
        let reduce_b = ReducePMaxKernel::new(&self.bufs.pmax_b);
        ctx.launch(reduce_b.grid(), &reduce_b);
        self.land_memory_faults(ctx, "pmax_reduce");
    }

    /// Step 4: bounds + reference checksums + comparison. The diagnostics
    /// buffer captures each block's worst residual against its autonomous
    /// bound for the metrics histograms emitted by
    /// [`MultiplyRun::finish`].
    pub fn check(&self, ctx: &ExecCtx<'_>) {
        let _s = aabft_obs::span!(ctx.obs, "phase", "check");
        let check = CheckKernel::new(
            &self.bufs.c,
            &self.bufs.pmax_a,
            &self.bufs.pmax_b,
            &self.bufs.report,
            self.plan.rows,
            self.plan.cols,
            self.plan.inner,
            self.config.omega,
            self.config.rounding_model(),
        )
        .with_diag(&self.bufs.diag);
        ctx.launch(check.grid(), &check);
        // Detection latency: launches issued between pipeline start and
        // the comparison that could flag. Heal re-checks observe again at
        // their larger distance, so the histogram's tail shows how much
        // of the ladder ran before the verdict.
        ctx.obs.metrics.observe(
            "check.detection_latency_launches",
            ctx.device.launches_issued().saturating_sub(self.launch_base) as f64,
        );
        self.land_memory_faults(ctx, "check");
    }

    /// Host epilogue: decode the report, apply the recovery policy, strip
    /// to the caller's shape and emit the per-multiplication metrics.
    /// Returns the outcome together with the buffers, so pooled buffers
    /// can be recycled.
    pub fn finish(self, ctx: &ExecCtx<'_>) -> (AAbftOutcome, RunBuffers) {
        let _s = aabft_obs::span!(ctx.obs, "phase", "recover");
        let report = self.decode_report();
        let GemmPlan { rows, inner, cols } = self.plan;
        let config = self.config;
        let bufs = &self.bufs;
        let mut full =
            FullChecksummed { matrix: bufs.c.to_matrix(rows.total, cols.total), rows, cols };
        let RecoveryOutcome { corrections, recomputed_blocks } =
            apply_policy(config.recovery, &mut full, &report, |blocks, prod| {
                // Selective block recompute on the device, then refresh the
                // host copy of the product.
                let kernel = RecomputeBlocksKernel::new(
                    &bufs.a,
                    &bufs.b,
                    &bufs.c,
                    inner,
                    cols.total,
                    config.block_size,
                    rows.data,
                    cols.data,
                    blocks,
                );
                ctx.launch(kernel.grid(), &kernel);
                prod.matrix = bufs.c.to_matrix(rows.total, cols.total);
            });
        drop(_s);
        self.conclude(ctx, Some(full), report, corrections, recomputed_blocks)
    }

    /// Like [`MultiplyRun::finish`] but for the self-healing executor, which
    /// has already run its own recovery ladder: no policy is applied, the
    /// repair history is taken as given and the product is read back as-is.
    pub(crate) fn finish_healed(
        self,
        ctx: &ExecCtx<'_>,
        report: CheckReport,
        corrections: Vec<Correction>,
        recomputed_blocks: Vec<(usize, usize)>,
    ) -> (AAbftOutcome, RunBuffers) {
        self.conclude(ctx, None, report, corrections, recomputed_blocks)
    }

    /// Epilogue for an unprotected run (no reduce/check phases were
    /// issued): reads the product back and strips it to the caller's
    /// shape without decoding the report buffer — it holds stale data
    /// from whatever run last used these pooled buffers. No detector
    /// metrics are emitted; the outcome carries an empty report, so
    /// `errors_detected()` is `false` by construction, meaning
    /// "unverified", not "verified clean".
    pub(crate) fn finish_unchecked(self, ctx: &ExecCtx<'_>) -> (AAbftOutcome, RunBuffers) {
        let _s = aabft_obs::span!(ctx.obs, "phase", "readback");
        let MultiplyRun { m, q, plan, bufs, .. } = self;
        let GemmPlan { rows, cols, .. } = plan;
        let full =
            FullChecksummed { matrix: bufs.c.to_matrix(rows.total, cols.total), rows, cols };
        let product = full.matrix.block(0, 0, m, q);
        ctx.obs.metrics.counter_inc("abft.unprotected_multiplies");
        (
            AAbftOutcome {
                product,
                full,
                report: CheckReport::default(),
                corrections: Vec::new(),
                recomputed_blocks: Vec::new(),
            },
            bufs,
        )
    }

    /// Shared tail of [`MultiplyRun::finish`]/[`MultiplyRun::finish_healed`]:
    /// strip to the caller's shape and emit the per-multiplication metrics.
    fn conclude(
        self,
        ctx: &ExecCtx<'_>,
        full: Option<FullChecksummed>,
        report: CheckReport,
        corrections: Vec<Correction>,
        recomputed_blocks: Vec<(usize, usize)>,
    ) -> (AAbftOutcome, RunBuffers) {
        // `finish` passes the readback it already holds; `finish_healed`
        // passes None — which also tells us the healing loop owns the
        // fault-rate samples for this run.
        let sample_fault_rate = full.is_some();
        let MultiplyRun { config, m, q, plan, bufs, .. } = self;
        let GemmPlan { rows, cols, .. } = plan;
        let full = full.unwrap_or_else(|| FullChecksummed {
            matrix: bufs.c.to_matrix(rows.total, cols.total),
            rows,
            cols,
        });
        let product = full.matrix.block(0, 0, m, q);

        // ABFT-domain metrics: one sample per protected multiplication.
        let metrics = &ctx.obs.metrics;
        metrics.counter_inc("abft.multiplies");
        metrics.counter_add("abft.detections", u64::from(report.errors_detected()));
        metrics.counter_add(
            "abft.mismatches",
            (report.col_mismatches.len() + report.row_mismatches.len()) as u64,
        );
        metrics.counter_add("abft.located", report.located.len() as u64);
        metrics.counter_add("abft.corrections", corrections.len() as u64);
        metrics.counter_add("abft.recomputed_blocks", recomputed_blocks.len() as u64);
        metrics.gauge_set("abft.pmax_p", config.p as f64);
        let mut eps_lo = f64::INFINITY;
        let mut eps_hi = 0.0_f64;
        for block in bufs.diag.to_vec().chunks_exact(DIAG_WORDS) {
            metrics.observe("check.residual", block[0]);
            metrics.observe("check.bound_y", block[1]);
            metrics.observe("check.epsilon", block[2]);
            // Detector headroom: the fraction of its autonomous tolerance
            // ε the block's worst residual consumed. Passing blocks
            // (residual ≤ ε) feed `check.headroom`, whose p99 stays
            // strictly below 1 on a healthy run; flagged blocks feed
            // `check.exceedance` instead, so fault campaigns cannot smear
            // the headroom tail they are supposed to leave intact.
            let (resid, eps) = (block[0], block[2]);
            if eps > 0.0 {
                if resid <= eps {
                    metrics.observe("check.headroom", resid / eps);
                } else {
                    metrics.observe("check.exceedance", resid / eps);
                }
                eps_lo = eps_lo.min(eps);
                eps_hi = eps_hi.max(eps);
            }
        }
        // Epsilon drift: spread of the per-block autonomous tolerances
        // within one multiply (max ε / min ε ≥ 1). A drifting bound —
        // e.g. a p-max estimate degrading across blocks — widens this.
        if eps_lo.is_finite() && eps_lo > 0.0 {
            metrics.observe("check.epsilon_drift", eps_hi / eps_lo);
        }
        // Plain runs sample the fault-rate estimator here, with the check
        // verdict recovery acted on. Healed runs sampled every decoded
        // verdict inside the healing loop already — their `report` is the
        // final clean re-check, which the loop has sampled, so sampling
        // again would double-count it.
        if sample_fault_rate {
            observe_fault_rate(metrics, report.errors_detected());
        }

        (AAbftOutcome { product, full, report, corrections, recomputed_blocks }, bufs)
    }

    // ---- self-healing executor hooks (crate-internal) ----------------------

    /// Decodes the current contents of the report buffer.
    pub(crate) fn decode_report(&self) -> CheckReport {
        CheckReport::from_raw(&self.bufs.report.to_vec(), self.plan.rows, self.plan.cols)
    }

    /// Rezeros the report/diagnostic buffers so the check can be re-run
    /// after a repair.
    pub(crate) fn clear_check(&self) {
        self.bufs.report.clear();
        self.bufs.diag.clear();
    }

    /// Rung 0 of the recovery ladder: repairs the single located error from
    /// the checksums on the host and writes the repaired elements back into
    /// the device product, so the next check pass verifies the repair.
    pub(crate) fn correct_on_device(&self, report: &CheckReport) -> Vec<Correction> {
        let GemmPlan { rows, cols, .. } = self.plan;
        let mut full =
            FullChecksummed { matrix: self.bufs.c.to_matrix(rows.total, cols.total), rows, cols };
        let applied = crate::correct::correct_located_errors(&mut full, report);
        for c in &applied {
            self.bufs.c.set(c.row * cols.total + c.col, c.after);
        }
        applied
    }

    /// Rung 1: recomputes the given result blocks (plus their checksum
    /// segments) from the operand buffers on the device.
    pub(crate) fn recompute_on_device(&self, ctx: &ExecCtx<'_>, blocks: &[(usize, usize)]) {
        let GemmPlan { rows, inner, cols } = self.plan;
        let kernel = RecomputeBlocksKernel::new(
            &self.bufs.a,
            &self.bufs.b,
            &self.bufs.c,
            inner,
            cols.total,
            self.config.block_size,
            rows.data,
            cols.data,
            blocks,
        );
        ctx.launch(kernel.grid(), &kernel);
    }

    /// Rung 2: rezeros every buffer and re-uploads the operands, exactly as
    /// [`AAbftGemm::begin_with`] does — the caller then re-runs
    /// encode/gemm/reduce before re-checking.
    pub(crate) fn reupload(&self, ctx: &ExecCtx<'_>, a: &Matrix<f64>, b: &Matrix<f64>) {
        assert_eq!((a.rows(), a.cols(), b.cols()), (self.m, self.n, self.q), "reupload shape");
        let _s = aabft_obs::span!(ctx.obs, "phase", "upload");
        self.bufs.reset();
        for i in 0..self.m {
            self.bufs.a.write_slice(i * self.plan.inner, a.row(i));
        }
        for i in 0..self.n {
            self.bufs.b.write_slice(i * self.plan.cols.total, b.row(i));
        }
        self.land_memory_faults(ctx, "upload");
    }

    /// Abandons the run (budget exhausted), returning the buffers for
    /// recycling without releasing any product.
    pub(crate) fn into_buffers(self) -> RunBuffers {
        self.bufs
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Least common multiple (used for inner-dimension padding).
fn lcm(a: usize, b: usize) -> usize {
    a / gcd(a, b) * b
}

#[cfg(test)]
mod tests {
    use super::*;
    use aabft_gpu_sim::inject::{FaultSite, InjectionPlan};
    use aabft_gpu_sim::kernels::gemm::GemmTiling;
    use aabft_matrix::gemm::multiply as host_multiply;

    fn small_config() -> AAbftConfig {
        AAbftConfig::builder()
            .block_size(4)
            .tiling(GemmTiling { bm: 8, bn: 8, bk: 4, rx: 2, ry: 2 })
            .build()
            .expect("valid test config")
    }

    fn inputs(m: usize, n: usize, q: usize) -> (Matrix<f64>, Matrix<f64>) {
        (
            Matrix::from_fn(m, n, |i, j| ((i * 3 + j * 7) as f64 * 0.19).sin()),
            Matrix::from_fn(n, q, |i, j| ((i * 11 + j) as f64 * 0.23).cos()),
        )
    }

    #[test]
    fn clean_multiply_matches_reference_and_reports_clean() {
        let (a, b) = inputs(16, 16, 16);
        let outcome = AAbftGemm::new(small_config()).multiply(&Device::with_defaults(), &a, &b);
        assert!(!outcome.errors_detected(), "report: {:?}", outcome.report);
        let expect = host_multiply(&a, &b);
        assert!(outcome.product.approx_eq(&expect, 1e-12));
    }

    #[test]
    fn non_square_and_non_aligned_shapes() {
        let (a, b) = inputs(10, 13, 18);
        let outcome = AAbftGemm::new(small_config()).multiply(&Device::with_defaults(), &a, &b);
        assert!(!outcome.errors_detected());
        assert_eq!(outcome.product.shape(), (10, 18));
        assert!(outcome.product.approx_eq(&host_multiply(&a, &b), 1e-12));
    }

    #[test]
    fn execute_rejects_shape_mismatch_with_typed_error() {
        let (a, _) = inputs(8, 8, 8);
        let (_, b) = inputs(8, 12, 8);
        let device = Device::with_defaults();
        let err = AAbftGemm::new(small_config())
            .execute(&ExecCtx::new(&device), &a, &b)
            .unwrap_err();
        assert!(matches!(err, AbftError::ShapeMismatch { op: "multiply", .. }), "{err}");
    }

    #[test]
    #[should_panic(expected = "inner dimensions must agree")]
    fn multiply_convenience_still_panics_on_shape_mismatch() {
        let (a, _) = inputs(8, 8, 8);
        let (_, b) = inputs(8, 12, 8);
        AAbftGemm::new(small_config()).multiply(&Device::with_defaults(), &a, &b);
    }

    #[test]
    fn execute_on_a_non_default_stream_matches_multiply_bitwise() {
        let (a, b) = inputs(16, 16, 16);
        let gemm = AAbftGemm::new(small_config());
        let base = gemm.multiply(&Device::with_defaults(), &a, &b);
        let device = Device::with_defaults();
        let stream = device.create_stream();
        let streamed = gemm.execute(&ExecCtx::on_stream(&device, stream), &a, &b).unwrap();
        assert_eq!(base.product, streamed.product, "streams must not change results");
        let log = device.take_log();
        assert!(log.iter().all(|r| r.stream == stream.raw()), "launches carry the stream");
    }

    #[test]
    fn pooled_buffers_reproduce_fresh_buffers_bitwise() {
        let (a, b) = inputs(16, 16, 16);
        let gemm = AAbftGemm::new(small_config());
        let device = Device::with_defaults();
        let ctx = ExecCtx::new(&device);
        let fresh = gemm.execute(&ctx, &a, &b).unwrap();

        // Run a different multiplication into the buffers, then reuse them.
        let plan = gemm.plan(16, 16, 16);
        let bufs = RunBuffers::for_plan(&plan, gemm.config().p);
        let (c, d) = inputs(16, 16, 16);
        let run = gemm.begin_with(&ctx, &d, &c, bufs).unwrap();
        run.encode(&ctx);
        run.gemm(&ctx);
        run.reduce(&ctx);
        run.check(&ctx);
        let (_, recycled) = run.finish(&ctx);

        let run = gemm.begin_with(&ctx, &a, &b, recycled).unwrap();
        run.encode(&ctx);
        run.gemm(&ctx);
        run.reduce(&ctx);
        run.check(&ctx);
        let (reused, _) = run.finish(&ctx);
        assert_eq!(fresh.product, reused.product, "pooled buffers must be bit-identical");
        assert!(!reused.errors_detected());
    }

    #[test]
    fn injected_fault_is_detected_and_located() {
        let (a, b) = inputs(16, 16, 16);
        let device = Device::with_defaults();
        // Flip a high exponent bit of a final-merge addition on SM 0 — an
        // unmissable error in one element. (A mantissa flip of a
        // zero-valued operand would be legitimately masked.)
        device.arm_injection(InjectionPlan {
            sm: 0,
            site: FaultSite::FinalAdd,
            module: 0,
            k_injection: 3,
            mask: 1 << 62,
        });
        let outcome = AAbftGemm::new(small_config()).multiply(&device, &a, &b);
        assert!(device.disarm_injection(), "fault must strike");
        assert!(outcome.errors_detected(), "fault must be detected");
        // Verify the located coordinate really is a corrupted element.
        let expect = host_multiply(&a, &b);
        if let Some(&(i, j)) = outcome.report.located.first() {
            if i < 16 && j < 16 {
                assert!(
                    (outcome.product[(i, j)] - expect[(i, j)]).abs() > 1e-12,
                    "located element should differ"
                );
            }
        }
    }

    #[test]
    fn correction_restores_the_product() {
        let (a, b) = inputs(16, 16, 16);
        let device = Device::with_defaults();
        // SM 1 runs grid block (1, 0): rows 0-7, columns 8-15 — data region.
        device.arm_injection(InjectionPlan {
            sm: 1,
            site: FaultSite::FinalAdd,
            module: 0,
            k_injection: 3,
            mask: 1 << 51,
        });
        let config = AAbftConfig::builder()
            .block_size(4)
            .tiling(GemmTiling { bm: 8, bn: 8, bk: 4, rx: 2, ry: 2 })
            .correct(true)
            .build()
            .expect("valid test config");
        let outcome = AAbftGemm::new(config).multiply(&device, &a, &b);
        assert!(device.disarm_injection());
        if outcome.report.single_error() {
            assert_eq!(outcome.corrections.len(), 1);
            let expect = host_multiply(&a, &b);
            assert!(
                outcome.product.approx_eq(&expect, 1e-11),
                "corrected product should match reference, max diff {}",
                outcome.product.max_abs_diff(&expect)
            );
        }
    }

    #[test]
    fn multiply_reports_metrics_and_phase_spans() {
        let (a, b) = inputs(16, 16, 16);
        let mut device = Device::with_defaults();
        let obs = aabft_obs::Obs::new_shared();
        obs.recorder.set_enabled(true);
        device.set_obs(obs.clone());
        let outcome = AAbftGemm::new(small_config()).multiply(&device, &a, &b);
        assert!(!outcome.errors_detected());

        let snap = obs.metrics.snapshot();
        assert_eq!(snap.counter("abft.multiplies"), 1);
        assert_eq!(snap.counter("abft.detections"), 0);
        // encode A, encode B, gemm, reduce A, reduce B, check.
        assert_eq!(snap.counter("sim.launches"), 6);

        // One residual/bound/epsilon sample per 4x4 block of the product.
        let resid = obs.metrics.histogram("check.residual").expect("residual histogram");
        assert_eq!(resid.count, 16);
        let eps = obs.metrics.histogram("check.epsilon").expect("epsilon histogram");
        assert!(resid.max <= eps.max, "clean-run residuals stay within tolerance");

        // Detector-health telemetry: every block passed, so each one
        // contributes a headroom sample strictly below 1, no exceedance
        // samples exist, epsilon drift is >= 1, the check observed its
        // latency in launches (6-launch pipeline, check last), and the
        // clean run seeds the fault-rate EWMA at zero.
        let headroom = obs.metrics.histogram("check.headroom").expect("headroom histogram");
        assert_eq!(headroom.count, 16);
        assert!(headroom.max < 1.0, "clean-run headroom max {}", headroom.max);
        assert!(headroom.p99() < 1.0, "clean-run headroom p99 {}", headroom.p99());
        assert!(obs.metrics.histogram("check.exceedance").is_none());
        let drift = obs.metrics.histogram("check.epsilon_drift").expect("drift histogram");
        assert_eq!(drift.count, 1);
        assert!(drift.min >= 1.0);
        let latency = obs
            .metrics
            .histogram("check.detection_latency_launches")
            .expect("latency histogram");
        assert_eq!(latency.count, 1);
        assert_eq!(latency.max, 6.0);
        assert_eq!(obs.metrics.gauge("abft.fault_rate_ewma"), Some(0.0));

        let spans = obs.recorder.spans();
        assert!(spans.iter().any(|s| s.cat == "abft" && s.name == "aabft_multiply"));
        for phase in ["upload", "encode", "gemm", "pmax_reduce", "check", "recover"] {
            assert!(
                spans.iter().any(|s| s.cat == "phase" && s.name == phase),
                "missing phase span {phase}"
            );
        }
        assert_eq!(spans.iter().filter(|s| s.cat == "kernel").count(), 6);
    }

    #[test]
    fn lcm_helper() {
        assert_eq!(lcm(4, 6), 12);
        assert_eq!(lcm(32, 8), 32);
        assert_eq!(lcm(1, 7), 7);
    }
}
