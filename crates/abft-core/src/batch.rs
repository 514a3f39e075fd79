//! Multi-stream batched execution of protected multiplications.
//!
//! [`BatchGemm`] accepts N GEMM requests ([`GemmRequest`]) and runs them
//! through the A-ABFT pipeline with four forms of reuse/overlap a loop of
//! [`AAbftGemm::multiply`] calls cannot get:
//!
//! * **plan caching** — augmented layouts are computed once per distinct
//!   `(m, n, q, BS)` and reused for every request of that shape;
//! * **buffer pooling** — device buffers ([`RunBuffers`]) are recycled
//!   across requests of the same shape instead of reallocated;
//! * **stream overlap** — requests are spread round-robin over a set of
//!   streams, so the stream scheduler
//!   ([`aabft_gpu_sim::PerfModel::schedule`]) overlaps different requests'
//!   kernels on the device's SMs in the modelled timeline;
//! * **macro-parallel dispatch** — on a fault-free device every request's
//!   device phases run on a separate worker thread (whole-request
//!   dispatch), so N requests use N host workers end to end instead of
//!   funneling through one thread pool launch by launch. Whenever any
//!   fault plan is armed or the instrumented path is forced, the batch
//!   falls back to the sequential interleaved issue order, which keeps
//!   memory-fault landing points and the launch log exactly as campaigns
//!   calibrate them.
//!
//! Kernels execute functionally at issue time, so batching never changes
//! numeric results: the products are bit-identical to sequential execution
//! whatever the worker count or arrival order (a property the tests pin
//! down). Host epilogues (report decoding, correction) run in parallel
//! under the rayon shim — except when a request heals or the policy is
//! [`RecoveryPolicy::CorrectOrRecompute`], where the epilogue launches
//! recovery kernels and stays sequential to keep the launch log
//! deterministic.
//!
//! Each request carries a [`ProtectionPolicy`] choosing its pipeline:
//! unprotected (multiply only), plain A-ABFT detection, or verified
//! self-healing with a per-request budget. Plain `(A, B)` pairs convert
//! into requests with the default policy, so untyped call sites migrate
//! mechanically.

use crate::aabft::{AAbftGemm, AAbftOutcome, GemmPlan, MultiplyRun, RunBuffers};
use crate::error::AbftError;
use crate::heal::{heal_run, HealedOutcome, DEFAULT_HEAL_BUDGET};
use crate::recover::{RecoveryAction, RecoveryPolicy};
use aabft_gpu_sim::device::Device;
use aabft_gpu_sim::stream::{ExecCtx, StreamId};
use aabft_matrix::Matrix;
use parking_lot::Mutex;
use rayon::prelude::*;
use std::collections::HashMap;

/// Cache key of a request shape: `(m, n, q, block_size)`.
pub type PlanKey = (usize, usize, usize, usize);

/// Per-request fault-tolerance policy: what the batch engine owes this
/// multiplication.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProtectionPolicy {
    /// Multiply only: no checksum verification runs (the reduce and check
    /// phases are skipped). The outcome's report is empty by construction
    /// — `errors_detected()` returning `false` means "unverified", not
    /// "verified clean".
    Unprotected,
    /// The full A-ABFT detection pipeline (encode → multiply → p-max
    /// reduce → autonomous check), with the operator's recovery policy
    /// applied in the epilogue. The default, and the semantics untyped
    /// `(A, B)` call sites get.
    #[default]
    AAbft,
    /// Verified self-healing ([`crate::heal::SelfHealingGemm`] semantics)
    /// with a per-request retry budget overriding the batch-level
    /// [`BatchGemm::with_heal_budget`] default.
    SelfHealing {
        /// Recovery attempts before the request fails with
        /// [`AbftError::Unrecovered`]; 0 makes any detected error
        /// immediately unrecoverable.
        budget: u32,
    },
}

/// One typed batch-admission request: compute `C = A · B` under `policy`.
///
/// # Examples
///
/// ```
/// use aabft_core::{GemmRequest, ProtectionPolicy};
/// use aabft_matrix::Matrix;
///
/// let a = Matrix::from_fn(8, 8, |i, j| (i + j) as f64);
/// let b = Matrix::from_fn(8, 8, |i, j| (i * j) as f64);
/// // Default policy is full A-ABFT detection…
/// let protected = GemmRequest::new(a.clone(), b.clone());
/// assert_eq!(protected.policy, ProtectionPolicy::AAbft);
/// // …and plain pairs convert mechanically.
/// let from_pair: GemmRequest = (a.clone(), b.clone()).into();
/// assert_eq!(from_pair.policy, ProtectionPolicy::AAbft);
/// // Per-request overrides:
/// let fast = GemmRequest::new(a, b).with_policy(ProtectionPolicy::Unprotected);
/// assert_eq!(fast.policy, ProtectionPolicy::Unprotected);
/// ```
#[derive(Debug, Clone)]
pub struct GemmRequest {
    /// Left operand (`m × n`).
    pub a: Matrix<f64>,
    /// Right operand (`n × q`).
    pub b: Matrix<f64>,
    /// Fault-tolerance policy for this request.
    pub policy: ProtectionPolicy,
}

impl GemmRequest {
    /// A request under the default policy ([`ProtectionPolicy::AAbft`]).
    pub fn new(a: Matrix<f64>, b: Matrix<f64>) -> Self {
        GemmRequest { a, b, policy: ProtectionPolicy::default() }
    }

    /// Overrides the policy.
    pub fn with_policy(mut self, policy: ProtectionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Whether the verification phases (reduce, check) run for this
    /// request.
    fn verified_phases(&self) -> bool {
        self.policy != ProtectionPolicy::Unprotected
    }
}

impl From<(Matrix<f64>, Matrix<f64>)> for GemmRequest {
    fn from((a, b): (Matrix<f64>, Matrix<f64>)) -> Self {
        GemmRequest::new(a, b)
    }
}

/// Borrowed pairs clone their operands — the migration path for call
/// sites holding `&[(Matrix, Matrix)]`. Pass owned requests to avoid the
/// copies.
impl From<&(Matrix<f64>, Matrix<f64>)> for GemmRequest {
    fn from((a, b): &(Matrix<f64>, Matrix<f64>)) -> Self {
        GemmRequest::new(a.clone(), b.clone())
    }
}

impl From<&GemmRequest> for GemmRequest {
    fn from(req: &GemmRequest) -> Self {
        req.clone()
    }
}

/// Batched protected-GEMM service (see the module docs).
///
/// # Examples
///
/// ```
/// use aabft_core::{AAbftConfig, AAbftGemm, BatchGemm, GemmRequest, ProtectionPolicy};
/// use aabft_gpu_sim::Device;
/// use aabft_matrix::Matrix;
///
/// let config = AAbftConfig::builder().block_size(4).build().unwrap();
/// let batch = BatchGemm::new(AAbftGemm::new(config)).with_streams(4);
/// let device = Device::with_defaults();
/// let requests: Vec<GemmRequest> = (0..6)
///     .map(|r| {
///         let a = Matrix::from_fn(8, 8, |i, j| ((r + i + j) as f64 * 0.1).sin());
///         let b = Matrix::from_fn(8, 8, |i, j| ((r + i * 2 + j) as f64 * 0.1).cos());
///         // Every third request skips verification.
///         let policy = if r % 3 == 0 {
///             ProtectionPolicy::Unprotected
///         } else {
///             ProtectionPolicy::AAbft
///         };
///         GemmRequest::new(a, b).with_policy(policy)
///     })
///     .collect();
/// let outcomes = batch.execute(&device, requests).unwrap();
/// assert_eq!(outcomes.len(), 6);
/// assert!(outcomes.iter().all(|o| !o.errors_detected()));
/// ```
#[derive(Debug)]
pub struct BatchGemm {
    gemm: AAbftGemm,
    streams: usize,
    heal_budget: u32,
    plans: Mutex<HashMap<PlanKey, GemmPlan>>,
    pool: Mutex<HashMap<PlanKey, Vec<RunBuffers>>>,
}

impl BatchGemm {
    /// Default number of streams requests are spread over.
    pub const DEFAULT_STREAMS: usize = 8;

    /// Creates the service around a configured A-ABFT operator.
    pub fn new(gemm: AAbftGemm) -> Self {
        BatchGemm {
            gemm,
            streams: Self::DEFAULT_STREAMS,
            heal_budget: DEFAULT_HEAL_BUDGET,
            plans: Mutex::new(HashMap::new()),
            pool: Mutex::new(HashMap::new()),
        }
    }

    /// Sets the number of streams requests are spread over (at least 1).
    pub fn with_streams(mut self, streams: usize) -> Self {
        self.streams = streams.max(1);
        self
    }

    /// Sets the per-request self-healing retry budget used by
    /// [`BatchGemm::execute_verified`] for requests that do not carry
    /// their own ([`ProtectionPolicy::SelfHealing`]). A budget of 0 makes
    /// any detected error immediately unrecoverable for its request.
    pub fn with_heal_budget(mut self, budget: u32) -> Self {
        self.heal_budget = budget;
        self
    }

    /// The underlying protected-GEMM operator.
    pub fn gemm(&self) -> &AAbftGemm {
        &self.gemm
    }

    /// Number of pooled buffer sets currently available for reuse.
    pub fn pooled_buffers(&self) -> usize {
        self.pool.lock().values().map(Vec::len).sum()
    }

    fn plan_for(&self, key: PlanKey, obs: &aabft_obs::Obs) -> GemmPlan {
        let mut plans = self.plans.lock();
        match plans.get(&key) {
            Some(&plan) => {
                obs.metrics.counter_inc("batch.plan_hits");
                plan
            }
            None => {
                obs.metrics.counter_inc("batch.plan_misses");
                let plan = self.gemm.plan(key.0, key.1, key.2);
                plans.insert(key, plan);
                plan
            }
        }
    }

    fn buffers_for(&self, key: PlanKey, plan: &GemmPlan, obs: &aabft_obs::Obs) -> RunBuffers {
        if let Some(bufs) = self.pool.lock().get_mut(&key).and_then(Vec::pop) {
            obs.metrics.counter_inc("batch.buffer_reuses");
            return bufs;
        }
        obs.metrics.counter_inc("batch.buffer_allocs");
        RunBuffers::for_plan(plan, self.gemm.config().p)
    }

    /// Issues the device phases of every admitted run.
    ///
    /// On a fault-free device ([`Device::fusion_viable`]) this is the
    /// macro-parallel path: requests are dispatched whole onto worker
    /// threads in three phase waves — every request's fused encode+gemm,
    /// then (for verifying policies) every reduction, then every check.
    /// Within a wave each worker runs its requests' full phase; the
    /// nested-parallelism guard in the rayon shim keeps each launch's
    /// block loop serial on its worker, so request-level parallelism owns
    /// the thread budget. [`Device::in_item_order`] files each wave's
    /// launches in request order, so the launch log, and with it the
    /// modelled timeline, is the one a single worker produces whatever the
    /// worker count.
    ///
    /// With any fault plan armed (or instrumentation forced) the same
    /// phase order is issued sequentially from the host thread,
    /// preserving the exact pre-macro-parallel launch order and the
    /// inter-phase memory-fault landing points campaigns calibrate
    /// against.
    fn run_device_phases(
        &self,
        device: &Device,
        runs: &[(StreamId, &MultiplyRun)],
        policies: &[&GemmRequest],
    ) {
        debug_assert_eq!(runs.len(), policies.len());
        let parallel = device.fusion_viable();
        let wave = |phase: fn(&MultiplyRun, &ExecCtx<'_>), verified_only: bool| {
            let item = |i: usize| {
                if verified_only && !policies[i].verified_phases() {
                    return;
                }
                let (stream, run) = runs[i];
                phase(run, &ExecCtx::on_stream(device, stream));
            };
            if parallel {
                device.in_item_order(runs.len(), item);
            } else {
                (0..runs.len()).for_each(item);
            }
        };
        wave(MultiplyRun::encode_and_gemm, false);
        wave(MultiplyRun::reduce, true);
        wave(MultiplyRun::check, true);
    }

    /// Epilogue of one request under its policy, for [`BatchGemm::execute`].
    fn finish_one(
        &self,
        device: &Device,
        stream: StreamId,
        run: MultiplyRun,
        req: &GemmRequest,
    ) -> (Result<AAbftOutcome, AbftError>, RunBuffers) {
        let ctx = ExecCtx::on_stream(device, stream);
        match req.policy {
            ProtectionPolicy::Unprotected => {
                let (outcome, bufs) = run.finish_unchecked(&ctx);
                (Ok(outcome), bufs)
            }
            ProtectionPolicy::AAbft => {
                let (outcome, bufs) = run.finish(&ctx);
                (Ok(outcome), bufs)
            }
            ProtectionPolicy::SelfHealing { budget } => {
                let (result, bufs) = heal_run(&self.gemm, budget, &ctx, &req.a, &req.b, run);
                (result.map(|healed| healed.outcome), bufs)
            }
        }
    }

    /// Executes `requests` and returns their outcomes in request order.
    ///
    /// Accepts anything that converts into [`GemmRequest`]s — typed
    /// requests, or plain `(A, B)` pairs (owned or borrowed), which get
    /// the default [`ProtectionPolicy::AAbft`].
    ///
    /// Rejects any shape-mismatched request with a typed error before a
    /// single kernel is issued; this all-or-nothing surface also fails
    /// wholesale when a [`ProtectionPolicy::SelfHealing`] request
    /// exhausts its budget (per-request fault isolation lives in
    /// [`BatchGemm::execute_verified`]). Sibling outcomes are computed
    /// and their buffers pooled before the error returns.
    pub fn execute<I>(&self, device: &Device, requests: I) -> Result<Vec<AAbftOutcome>, AbftError>
    where
        I: IntoIterator,
        I::Item: Into<GemmRequest>,
    {
        let requests: Vec<GemmRequest> = requests.into_iter().map(Into::into).collect();
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        for req in &requests {
            if req.a.cols() != req.b.rows() {
                return Err(AbftError::ShapeMismatch {
                    op: "batch",
                    left: req.a.shape(),
                    right: req.b.shape(),
                });
            }
        }

        let obs = device.obs().clone();
        let bs = self.gemm.config().block_size;
        let streams: Vec<StreamId> =
            (0..self.streams.min(requests.len())).map(|_| device.create_stream()).collect();
        let _batch = aabft_obs::span!(
            obs,
            "batch",
            "batch_execute",
            "requests" => requests.len() as u64,
            "streams" => streams.len() as u64,
        );
        obs.metrics.counter_add("batch.requests", requests.len() as u64);
        obs.metrics.gauge_set("batch.streams", streams.len() as f64);

        // Upload phase (host-side): plan lookup, pooled buffers, operand
        // upload. Sequential so the plan/pool cache counters stay
        // deterministic whatever the worker count. Each request gets a
        // per-request span carrying its stream.
        let mut keys = Vec::with_capacity(requests.len());
        let mut runs: Vec<(StreamId, MultiplyRun)> = Vec::with_capacity(requests.len());
        for (i, req) in requests.iter().enumerate() {
            let stream = streams[i % streams.len()];
            let ctx = ExecCtx::on_stream(device, stream);
            let _req = aabft_obs::span!(
                obs,
                "batch",
                "request",
                "request" => i as u64,
                "stream" => stream.raw(),
                "m" => req.a.rows() as u64,
                "n" => req.a.cols() as u64,
                "q" => req.b.cols() as u64,
            );
            obs.metrics.counter_inc(&format!("batch.stream.{}.requests", stream.raw()));
            let key: PlanKey = (req.a.rows(), req.a.cols(), req.b.cols(), bs);
            let plan = self.plan_for(key, &obs);
            let bufs = self.buffers_for(key, &plan, &obs);
            keys.push(key);
            runs.push((stream, self.gemm.begin_with(&ctx, &req.a, &req.b, bufs)?));
        }

        let policies: Vec<&GemmRequest> = requests.iter().collect();
        let pairs: Vec<(StreamId, &MultiplyRun)> = runs.iter().map(|(s, r)| (*s, r)).collect();
        self.run_device_phases(device, &pairs, &policies);

        // Host epilogue. Parallel under the rayon shim, except when a
        // request may launch recovery kernels (self-healing policies, or
        // the operator-wide CorrectOrRecompute) — then sequential, so the
        // launch log (and the modelled timeline) stays deterministic.
        let sequential_epilogue = self.gemm.config().recovery == RecoveryPolicy::CorrectOrRecompute
            || requests.iter().any(|r| matches!(r.policy, ProtectionPolicy::SelfHealing { .. }));
        let finished: Vec<(Result<AAbftOutcome, AbftError>, RunBuffers)> = if sequential_epilogue {
            runs.into_iter()
                .zip(&requests)
                .map(|((stream, run), req)| self.finish_one(device, stream, run, req))
                .collect()
        } else {
            let slots: Vec<Mutex<Option<(StreamId, MultiplyRun)>>> =
                runs.into_iter().map(|r| Mutex::new(Some(r))).collect();
            (0..slots.len())
                .into_par_iter()
                .map(|i| {
                    let (stream, run) = slots[i].lock().take().expect("each slot taken once");
                    self.finish_one(device, stream, run, &requests[i])
                })
                .collect()
        };

        // Pool every request's buffers — including those of a failed
        // self-healing request — before propagating the first error.
        let mut outcomes = Vec::with_capacity(finished.len());
        let mut first_err = None;
        let mut pool = self.pool.lock();
        for ((result, bufs), key) in finished.into_iter().zip(keys) {
            pool.entry(key).or_default().push(bufs);
            match result {
                Ok(outcome) => outcomes.push(outcome),
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        drop(pool);
        match first_err {
            None => Ok(outcomes),
            Some(e) => Err(e),
        }
    }

    /// Executes `requests` with **fault isolation**: every request gets
    /// its own `Result` slot, in request order.
    ///
    /// Verifying requests run the self-healing executor
    /// ([`crate::heal::SelfHealingGemm`] semantics) — under the batch
    /// budget ([`BatchGemm::with_heal_budget`]) for the default policy,
    /// or their own for [`ProtectionPolicy::SelfHealing`].
    /// [`ProtectionPolicy::Unprotected`] requests skip verification and
    /// report `attempts == 0` with an empty outcome report.
    ///
    /// A request whose shape is invalid, or whose recovery exhausts its
    /// budget, fails alone with a typed error — sibling requests'
    /// results are unaffected (the device phases run on per-request
    /// streams and disjoint buffers, so a poisoned request cannot
    /// perturb another's product). Pooled buffers are recycled on both
    /// the success and the failure path.
    pub fn execute_verified<I>(
        &self,
        device: &Device,
        requests: I,
    ) -> Vec<Result<HealedOutcome, AbftError>>
    where
        I: IntoIterator,
        I::Item: Into<GemmRequest>,
    {
        let requests: Vec<GemmRequest> = requests.into_iter().map(Into::into).collect();
        self.execute_verified_slice(device, &requests)
    }

    /// [`BatchGemm::execute_verified`] over borrowed requests: the caller
    /// keeps the operands (for a retry, say) without copying them in.
    pub fn execute_verified_slice(
        &self,
        device: &Device,
        requests: &[GemmRequest],
    ) -> Vec<Result<HealedOutcome, AbftError>> {
        if requests.is_empty() {
            return Vec::new();
        }
        let obs = device.obs().clone();
        let bs = self.gemm.config().block_size;
        let streams: Vec<StreamId> =
            (0..self.streams.min(requests.len())).map(|_| device.create_stream()).collect();
        let _batch = aabft_obs::span!(
            obs,
            "batch",
            "batch_execute_verified",
            "requests" => requests.len() as u64,
            "streams" => streams.len() as u64,
            "budget" => u64::from(self.heal_budget),
        );
        obs.metrics.counter_add("batch.requests", requests.len() as u64);
        obs.metrics.gauge_set("batch.streams", streams.len() as f64);

        // Upload phase: a shape-mismatched request fails in place *before*
        // pulling pooled buffers, so it cannot strand or consume pool
        // capacity; the remaining requests proceed normally.
        let mut results: Vec<Option<Result<HealedOutcome, AbftError>>> =
            requests.iter().map(|_| None).collect();
        let mut runs: Vec<(usize, StreamId, PlanKey, MultiplyRun)> =
            Vec::with_capacity(requests.len());
        for (i, req) in requests.iter().enumerate() {
            if req.a.cols() != req.b.rows() {
                results[i] = Some(Err(AbftError::ShapeMismatch {
                    op: "batch",
                    left: req.a.shape(),
                    right: req.b.shape(),
                }));
                continue;
            }
            let stream = streams[i % streams.len()];
            let ctx = ExecCtx::on_stream(device, stream);
            let _req = aabft_obs::span!(
                obs,
                "batch",
                "request",
                "request" => i as u64,
                "stream" => stream.raw(),
                "m" => req.a.rows() as u64,
                "n" => req.a.cols() as u64,
                "q" => req.b.cols() as u64,
            );
            obs.metrics.counter_inc(&format!("batch.stream.{}.requests", stream.raw()));
            let key: PlanKey = (req.a.rows(), req.a.cols(), req.b.cols(), bs);
            let plan = self.plan_for(key, &obs);
            let bufs = self.buffers_for(key, &plan, &obs);
            match self.gemm.begin_with(&ctx, &req.a, &req.b, bufs) {
                Ok(run) => runs.push((i, stream, key, run)),
                Err(e) => results[i] = Some(Err(e)),
            }
        }

        // Device phases over the admitted runs, over `(stream, &run)` views
        // because the runs stay in their `(index, key)` context here.
        let policies: Vec<&GemmRequest> = runs.iter().map(|&(i, ..)| &requests[i]).collect();
        let pairs: Vec<(StreamId, &MultiplyRun)> = runs.iter().map(|(_, s, _, r)| (*s, r)).collect();
        self.run_device_phases(device, &pairs, &policies);

        // Verified epilogue: each request runs its own healing loop on its
        // own stream. Sequential, because healing may launch repair kernels
        // and the launch log must stay deterministic. The buffers come back
        // on *both* paths — an unrecoverable request still returns its
        // pooled buffers instead of leaking them.
        for (i, stream, key, run) in runs {
            let ctx = ExecCtx::on_stream(device, stream);
            let req = &requests[i];
            let (result, bufs) = match req.policy {
                ProtectionPolicy::Unprotected => {
                    let (outcome, bufs) = run.finish_unchecked(&ctx);
                    obs.metrics.counter_inc("batch.unprotected_requests");
                    (
                        Ok(HealedOutcome {
                            outcome,
                            attempts: 0,
                            escalations: 0,
                            // Nothing was checked, so nothing needed repair
                            // — by decree, not by verification.
                            action: RecoveryAction::NoneNeeded,
                        }),
                        bufs,
                    )
                }
                ProtectionPolicy::AAbft => {
                    heal_run(&self.gemm, self.heal_budget, &ctx, &req.a, &req.b, run)
                }
                ProtectionPolicy::SelfHealing { budget } => {
                    heal_run(&self.gemm, budget, &ctx, &req.a, &req.b, run)
                }
            };
            if req.verified_phases() {
                match &result {
                    Ok(_) => obs.metrics.counter_inc("batch.verified_requests"),
                    Err(_) => obs.metrics.counter_inc("batch.unrecovered"),
                }
            }
            self.pool.lock().entry(key).or_default().push(bufs);
            results[i] = Some(result);
        }

        results
            .into_iter()
            .map(|r| r.expect("every request slot is filled"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AAbftConfig;
    use aabft_gpu_sim::kernels::gemm::GemmTiling;
    use aabft_gpu_sim::PerfModel;

    fn small_gemm() -> AAbftGemm {
        AAbftGemm::new(
            AAbftConfig::builder()
                .block_size(4)
                .tiling(GemmTiling { bm: 8, bn: 8, bk: 4, rx: 2, ry: 2 })
                .build()
                .expect("valid test config"),
        )
    }

    fn requests(n: usize) -> Vec<(Matrix<f64>, Matrix<f64>)> {
        (0..n)
            .map(|r| {
                (
                    Matrix::from_fn(16, 16, |i, j| ((r * 5 + i * 3 + j) as f64 * 0.17).sin()),
                    Matrix::from_fn(16, 16, |i, j| ((r * 7 + i + j * 2) as f64 * 0.13).cos()),
                )
            })
            .collect()
    }

    #[test]
    fn batch_is_bit_identical_to_sequential() {
        let reqs = requests(6);
        let gemm = small_gemm();
        let sequential: Vec<_> = {
            let device = Device::with_defaults();
            reqs.iter().map(|(a, b)| gemm.multiply(&device, a, b)).collect()
        };
        let batched = BatchGemm::new(gemm)
            .with_streams(3)
            .execute(&Device::with_defaults(), &reqs)
            .unwrap();
        for (s, b) in sequential.iter().zip(&batched) {
            assert_eq!(s.product, b.product, "batching must not change results");
            assert_eq!(s.report, b.report);
        }
    }

    #[test]
    fn plans_and_buffers_are_reused_across_rounds() {
        let batch = BatchGemm::new(small_gemm()).with_streams(2);
        let mut device = Device::with_defaults();
        let obs = aabft_obs::Obs::new_shared();
        device.set_obs(obs.clone());

        let reqs = requests(4);
        batch.execute(&device, &reqs).unwrap();
        assert_eq!(obs.metrics.counter("batch.plan_misses"), 1, "one distinct shape");
        assert_eq!(obs.metrics.counter("batch.plan_hits"), 3);
        assert_eq!(obs.metrics.counter("batch.buffer_allocs"), 4);
        assert_eq!(batch.pooled_buffers(), 4);

        batch.execute(&device, &reqs).unwrap();
        assert_eq!(obs.metrics.counter("batch.plan_misses"), 1, "plan cache hit");
        assert_eq!(obs.metrics.counter("batch.buffer_reuses"), 4, "buffers recycled");
        assert_eq!(obs.metrics.counter("batch.requests"), 8);
    }

    #[test]
    fn batched_timeline_beats_sequential() {
        let reqs = requests(8);
        let gemm = small_gemm();
        let model = PerfModel::k20c();

        let device = Device::with_defaults();
        for (a, b) in &reqs {
            gemm.multiply(&device, a, b);
        }
        let sequential = model.pipeline_time(&device.take_log());

        let device = Device::with_defaults();
        BatchGemm::new(gemm).with_streams(8).execute(&device, &reqs).unwrap();
        let log = device.take_log();
        let batched = model.stream_makespan(&log, device.config().num_sms);
        assert!(
            batched < sequential / 1.5,
            "batched {batched} vs sequential {sequential}"
        );
    }

    #[test]
    fn verified_batch_matches_plain_batch_when_fault_free() {
        let reqs = requests(5);
        let batch = BatchGemm::new(small_gemm()).with_streams(3);
        let plain = batch.execute(&Device::with_defaults(), &reqs).unwrap();
        let verified = batch.execute_verified(&Device::with_defaults(), &reqs);
        assert_eq!(verified.len(), 5);
        for (p, v) in plain.iter().zip(&verified) {
            let healed = v.as_ref().expect("fault-free request verifies");
            assert_eq!(healed.attempts, 0);
            assert_eq!(p.product, healed.outcome.product, "verified path must be bit-identical");
        }
    }

    #[test]
    fn outcomes_are_independent_of_worker_count_and_arrival_order() {
        let reqs = requests(6);
        let batch = BatchGemm::new(small_gemm()).with_streams(3);
        let baseline = batch.execute(&Device::with_defaults(), &reqs).unwrap();

        for workers in [1usize, 2, 4, 8] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(workers).build().unwrap();

            let outcomes =
                pool.install(|| batch.execute(&Device::with_defaults(), &reqs).unwrap());
            for (i, (base, out)) in baseline.iter().zip(&outcomes).enumerate() {
                assert_eq!(
                    base.product, out.product,
                    "request {i} product drifted under {workers} workers"
                );
                assert_eq!(base.report, out.report);
            }

            // Arrival order: the same requests submitted reversed come back
            // reversed — each outcome is a pure function of its request.
            let mut reversed = reqs.clone();
            reversed.reverse();
            let outcomes =
                pool.install(|| batch.execute(&Device::with_defaults(), &reversed).unwrap());
            for (i, out) in outcomes.iter().enumerate() {
                let base = &baseline[reqs.len() - 1 - i];
                assert_eq!(
                    base.product, out.product,
                    "request {i} depends on arrival order under {workers} workers"
                );
                assert_eq!(base.report, out.report);
            }
        }
    }

    #[test]
    fn policies_select_pipeline_per_request() {
        let reqs = requests(2);
        let batch = BatchGemm::new(small_gemm()).with_streams(2);
        let protected = batch.execute(&Device::with_defaults(), &reqs).unwrap();

        // Same operands, first request unprotected: its product's data
        // region is bit-identical (same multiply kernel), its report is
        // empty, and it files fewer launches (no reduce, no check).
        let device = Device::with_defaults();
        let typed: Vec<GemmRequest> = reqs
            .iter()
            .enumerate()
            .map(|(i, pair)| {
                let req = GemmRequest::from(pair);
                if i == 0 {
                    req.with_policy(ProtectionPolicy::Unprotected)
                } else {
                    req
                }
            })
            .collect();
        let outcomes = batch.execute(&device, typed).unwrap();
        let log = device.take_log();
        assert_eq!(outcomes[0].product, protected[0].product);
        assert_eq!(outcomes[1].product, protected[1].product);
        assert!(!outcomes[0].errors_detected());
        assert!(outcomes[0].report.col_mismatches.is_empty());
        // Protected request: encode ×2 + gemm + reduce ×2 + check = 6
        // records; unprotected: encode ×2 + gemm = 3.
        assert_eq!(log.len(), 9, "3 unprotected + 6 protected launch records");
        assert_eq!(log.iter().filter(|r| r.phase == "check").count(), 1);
        assert_eq!(log.iter().filter(|r| r.phase == "pmax_reduce").count(), 2);

        // Verified surface: an unprotected request reports a no-op heal.
        let verified = batch.execute_verified(&Device::with_defaults(), {
            let mut t: Vec<GemmRequest> = reqs.iter().map(GemmRequest::from).collect();
            t[0].policy = ProtectionPolicy::Unprotected;
            t[1].policy = ProtectionPolicy::SelfHealing { budget: 2 };
            t
        });
        let unprotected = verified[0].as_ref().unwrap();
        assert_eq!(unprotected.attempts, 0);
        assert_eq!(unprotected.action, RecoveryAction::NoneNeeded);
        assert_eq!(unprotected.outcome.product, protected[0].product);
        let healed = verified[1].as_ref().unwrap();
        assert_eq!(healed.attempts, 0, "fault-free self-healing request verifies clean");
        assert_eq!(healed.outcome.product, protected[1].product);
    }

    #[test]
    fn budget_zero_policy_fails_fast_without_recovery_launches() {
        use aabft_gpu_sim::MemoryFaultPlan;

        let reqs = requests(3);
        let clean = BatchGemm::new(small_gemm()).execute(&Device::with_defaults(), &reqs).unwrap();

        // The engine keeps its default budget; only request 0 opts into
        // budget 0, so the fail-fast below is the per-request policy, not
        // an engine-wide setting. One stream: the first "gemm" boundary —
        // where the fault lands — is deterministically request 0's.
        let batch = BatchGemm::new(small_gemm()).with_streams(1);
        let device = Device::with_defaults();
        let plan = small_gemm().plan(16, 16, 16);
        device.arm_memory_fault(MemoryFaultPlan {
            buffer: "c",
            word: 2 * plan.cols.total + 3,
            mask: 1 << 62,
            after_phase: "gemm",
        });
        let typed: Vec<GemmRequest> = reqs
            .iter()
            .enumerate()
            .map(|(i, pair)| {
                let req = GemmRequest::from(pair);
                if i == 0 {
                    req.with_policy(ProtectionPolicy::SelfHealing { budget: 0 })
                } else {
                    req
                }
            })
            .collect();
        let results = batch.execute_verified(&device, typed);
        assert_eq!(device.disarm_count(), 1, "memory fault must land");
        match &results[0] {
            Err(AbftError::Unrecovered { attempts: 0, residual }) => {
                assert!(residual.errors_detected());
            }
            other => panic!("request 0 should fail fast, got {other:?}"),
        }
        // Fail-fast means zero recovery work was launched: three protected
        // first runs file 6 records each and no recompute kernel appears.
        let log = device.take_log();
        assert_eq!(log.len(), 18, "no launches beyond the three first runs");
        assert!(log.iter().all(|r| r.phase != "recompute"), "no recompute attempts");
        for (i, clean_outcome) in clean.iter().enumerate().skip(1) {
            let healed = results[i].as_ref().expect("sibling requests verify");
            assert_eq!(healed.attempts, 0);
            assert_eq!(
                clean_outcome.product, healed.outcome.product,
                "sibling request {i} must stay bit-identical to the clean batch"
            );
        }
    }

    #[test]
    fn exhausted_request_fails_alone_without_poisoning_siblings() {
        use aabft_gpu_sim::MemoryFaultPlan;

        let reqs = requests(4);
        let clean = BatchGemm::new(small_gemm())
            .with_streams(2)
            .execute(&Device::with_defaults(), &reqs)
            .unwrap();

        // The fault fires once, at the first "gemm" phase boundary — i.e.
        // deterministically in request 0's product buffer (data region,
        // high exponent bit: unmissable).
        let arm = |device: &Device| {
            let plan = small_gemm().plan(16, 16, 16);
            device.arm_memory_fault(MemoryFaultPlan {
                buffer: "c",
                word: 2 * plan.cols.total + 3,
                mask: 1 << 62,
                after_phase: "gemm",
            });
        };

        // Budget 0: the poisoned request is immediately unrecoverable. It
        // must fail alone; siblings stay bit-identical to the clean batch,
        // and its pooled buffers come back for reuse.
        let batch = BatchGemm::new(small_gemm()).with_streams(2).with_heal_budget(0);
        let device = Device::with_defaults();
        arm(&device);
        let results = batch.execute_verified(&device, &reqs);
        assert_eq!(device.disarm_count(), 1, "memory fault must land");
        match &results[0] {
            Err(AbftError::Unrecovered { attempts: 0, residual }) => {
                assert!(residual.errors_detected());
            }
            other => panic!("request 0 should be unrecovered, got {other:?}"),
        }
        for (i, clean_outcome) in clean.iter().enumerate().skip(1) {
            let healed = results[i].as_ref().expect("sibling requests verify");
            assert_eq!(healed.attempts, 0, "siblings see no faults");
            assert_eq!(
                clean_outcome.product, healed.outcome.product,
                "sibling request {i} must be bit-identical to the clean batch"
            );
        }
        assert_eq!(batch.pooled_buffers(), 4, "failed request's buffers are recycled");

        // Default budget: the same fault heals and every request verifies.
        let batch = BatchGemm::new(small_gemm()).with_streams(2);
        let device = Device::with_defaults();
        arm(&device);
        let results = batch.execute_verified(&device, &reqs);
        assert_eq!(device.disarm_count(), 1);
        let healed = results[0].as_ref().expect("poisoned request heals under budget");
        assert!(healed.attempts > 0);
        // Checksum-based repair reconstructs the element through a different
        // rounding path, so request 0 matches to tolerance, not bitwise.
        assert!(
            clean[0].product.approx_eq(&healed.outcome.product, 1e-11),
            "healed to the clean product, max diff {}",
            clean[0].product.max_abs_diff(&healed.outcome.product)
        );
        for (i, clean_outcome) in clean.iter().enumerate().skip(1) {
            assert_eq!(clean_outcome.product, results[i].as_ref().unwrap().outcome.product);
        }
    }

    #[test]
    fn mismatched_request_fails_in_place_in_verified_mode() {
        let batch = BatchGemm::new(small_gemm());
        let device = Device::with_defaults();
        let good = requests(1).remove(0);
        let bad = (Matrix::zeros(16, 16), Matrix::zeros(12, 16));
        let results = batch.execute_verified(&device, &[bad, good]);
        assert!(matches!(results[0], Err(AbftError::ShapeMismatch { op: "batch", .. })));
        assert!(results[1].is_ok(), "valid sibling still runs");
        assert_eq!(batch.pooled_buffers(), 1, "only the valid request consumed buffers");
    }

    #[test]
    fn mismatched_request_is_rejected_before_any_launch() {
        let batch = BatchGemm::new(small_gemm());
        let device = Device::with_defaults();
        let good = requests(1).remove(0);
        let bad = (Matrix::zeros(16, 16), Matrix::zeros(12, 16));
        let err = batch.execute(&device, &[good, bad]).unwrap_err();
        assert!(matches!(err, AbftError::ShapeMismatch { op: "batch", .. }), "{err}");
        assert!(device.take_log().is_empty(), "no kernels issued");
    }
}
