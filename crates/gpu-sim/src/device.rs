//! The simulated GPU device and its block scheduler.
//!
//! A [`Device`] owns a number of streaming multiprocessors (SMs). A kernel
//! launch distributes the grid's thread blocks round-robin over the SMs;
//! blocks assigned to the *same* SM execute sequentially (so dynamic
//! instruction counts per SM are deterministic — the coordinate system of
//! the paper's `kInjection` fault targeting), while distinct SMs execute in
//! parallel on host cores. All floating-point arithmetic inside a kernel
//! flows through the block context's FPU methods, which count instructions
//! and apply armed fault injections.

use crate::dim::{BlockIdx, GridDim};
use crate::error::ConfigError;
use crate::inject::{
    FaultSite, InjectionPlan, InjectionState, KernelFaultPlan, KernelFaultState, MemoryFaultPlan,
    MemoryFaultState,
};
use crate::mem::DeviceBuffer;
use crate::stats::{KernelStats, LaunchRecord};
use crate::stream::{Event, StreamId, StreamTable};
use aabft_obs::Obs;
use parking_lot::Mutex;
use rayon::prelude::*;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Hardware-shape parameters of the simulated device.
///
/// Defaults model the Nvidia K20c (GK110) used in the paper: 13 SMX units.
/// Construct via [`DeviceConfig::builder`] to get typed validation errors
/// instead of panics; raw-struct construction is kept for literals that are
/// correct by inspection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceConfig {
    /// Number of streaming multiprocessors.
    pub num_sms: usize,
    /// Maximum `moduleID` (per-thread functional-unit index) kernels may
    /// target; bounds the per-SM dynamic-instance counter table.
    pub max_modules: usize,
    /// Clean-path GEMM engine for kernels launched on this device. `None`
    /// means the packed default; set it explicitly so two devices in one
    /// process can run different engines.
    pub clean_engine: Option<crate::pack::CleanEngine>,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig { num_sms: 13, max_modules: 64, clean_engine: None }
    }
}

impl DeviceConfig {
    /// Starts building a configuration from the K20c-like defaults.
    ///
    /// # Examples
    ///
    /// ```
    /// use aabft_gpu_sim::device::DeviceConfig;
    ///
    /// let config = DeviceConfig::builder().num_sms(4).build().unwrap();
    /// assert_eq!(config.num_sms, 4);
    /// assert!(DeviceConfig::builder().num_sms(0).build().is_err());
    /// ```
    pub fn builder() -> DeviceConfigBuilder {
        DeviceConfigBuilder { config: DeviceConfig::default() }
    }

    /// Checks invariants, returning a typed error naming the offending
    /// parameter.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_sms == 0 {
            return Err(ConfigError::new("num_sms", self.num_sms, "at least one SM"));
        }
        if self.max_modules == 0 {
            return Err(ConfigError::new("max_modules", self.max_modules, "at least one module"));
        }
        Ok(())
    }
}

/// Validating builder for [`DeviceConfig`].
#[derive(Debug, Clone)]
pub struct DeviceConfigBuilder {
    config: DeviceConfig,
}

impl DeviceConfigBuilder {
    /// Sets the number of streaming multiprocessors.
    pub fn num_sms(mut self, n: usize) -> Self {
        self.config.num_sms = n;
        self
    }

    /// Sets the per-thread functional-unit index bound.
    pub fn max_modules(mut self, n: usize) -> Self {
        self.config.max_modules = n;
        self
    }

    /// Pins the clean-path GEMM engine for devices built from this
    /// configuration (the packed engine when left unset).
    ///
    /// # Examples
    ///
    /// ```
    /// use aabft_gpu_sim::device::DeviceConfig;
    /// use aabft_gpu_sim::pack::CleanEngine;
    ///
    /// let config =
    ///     DeviceConfig::builder().clean_engine(CleanEngine::Scalar).build().unwrap();
    /// assert_eq!(config.clean_engine, Some(CleanEngine::Scalar));
    /// ```
    pub fn clean_engine(mut self, engine: crate::pack::CleanEngine) -> Self {
        self.config.clean_engine = Some(engine);
        self
    }

    /// Finalises the configuration, rejecting invalid shapes with a typed
    /// error.
    pub fn build(self) -> Result<DeviceConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// A simulated GPU.
///
/// # Examples
///
/// ```
/// use aabft_gpu_sim::device::{Device, Kernel, BlockCtx};
/// use aabft_gpu_sim::dim::GridDim;
/// use aabft_gpu_sim::mem::DeviceBuffer;
///
/// struct Doubler<'a> {
///     buf: &'a DeviceBuffer,
/// }
/// impl Kernel for Doubler<'_> {
///     fn name(&self) -> &'static str { "doubler" }
///     fn run_block(&self, ctx: &mut BlockCtx<'_>) {
///         let i = ctx.block().x;
///         let v = ctx.load(self.buf, i);
///         let doubled = ctx.add(v, v);
///         ctx.store(self.buf, i, doubled);
///     }
/// }
///
/// let device = Device::with_defaults();
/// let buf = DeviceBuffer::from_vec(vec![1.0, 2.0, 3.0]);
/// let stats = device.launch(GridDim::linear_1d(3), &Doubler { buf: &buf });
/// assert_eq!(buf.to_vec(), vec![2.0, 4.0, 6.0]);
/// assert_eq!(stats.fadd, 3);
/// ```
#[derive(Debug)]
pub struct Device {
    config: DeviceConfig,
    injections: Mutex<Vec<Arc<InjectionState>>>,
    /// Per-SM dynamic-instance counters for fault targeting. They persist
    /// across launches while an injection is armed (arming resets them), so
    /// `kInjection` addresses an instruction within the whole armed window
    /// — e.g. any of TMR's three replica launches.
    sm_counts: Vec<Mutex<Vec<[u64; FaultSite::COUNT]>>>,
    /// Kernel-scope faults: bit flips armed against whole pipeline phases
    /// (encode/reduce/check/recompute/...), ticking along each SM's dynamic
    /// FPU-operation count within the scope.
    kernel_faults: Mutex<Vec<Arc<KernelFaultState>>>,
    /// Memory-at-rest faults, applied by the pipeline between launches via
    /// [`Device::apply_memory_faults`].
    memory_faults: Mutex<Vec<Arc<MemoryFaultState>>>,
    log: Mutex<Vec<LaunchRecord>>,
    launch_seq: AtomicU64,
    /// Stream bookkeeping: id allocation, per-stream launch frontiers and
    /// pending event waits.
    streams: Mutex<StreamTable>,
    /// Observability sink: kernel spans and hardware counters land here.
    /// Defaults to the process-global context; tests attach fresh ones.
    obs: Arc<Obs>,
    /// Number of *dispatches* that took the clean (uninstrumented) path.
    /// A fused dispatch ([`Device::launch_fused_on`]) counts once however
    /// many launch records it files.
    clean_path_launches: AtomicU64,
    /// Number of physical dispatch events: one per [`Device::launch_on`]
    /// call plus one per fused clean dispatch (which files several launch
    /// records but crosses the host→device boundary once).
    dispatches: AtomicU64,
    /// When set, every launch uses the instrumented per-op path even if no
    /// fault plan is armed (path-equivalence tests and benchmarks).
    force_instrumented: AtomicBool,
}

impl Device {
    /// Creates a device with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `num_sms` or `max_modules` is zero.
    pub fn new(config: DeviceConfig) -> Self {
        assert!(config.num_sms > 0, "need at least one SM");
        assert!(config.max_modules > 0, "need at least one module");
        let sm_counts = (0..config.num_sms)
            .map(|_| Mutex::new(vec![[0u64; FaultSite::COUNT]; config.max_modules]))
            .collect();
        Device {
            config,
            injections: Mutex::new(Vec::new()),
            sm_counts,
            kernel_faults: Mutex::new(Vec::new()),
            memory_faults: Mutex::new(Vec::new()),
            log: Mutex::new(Vec::new()),
            launch_seq: AtomicU64::new(0),
            streams: Mutex::new(StreamTable::default()),
            obs: aabft_obs::global(),
            clean_path_launches: AtomicU64::new(0),
            dispatches: AtomicU64::new(0),
            force_instrumented: AtomicBool::new(false),
        }
    }

    /// Creates a device with the K20c-like default configuration.
    pub fn with_defaults() -> Self {
        Self::new(DeviceConfig::default())
    }

    /// The device configuration.
    pub fn config(&self) -> DeviceConfig {
        self.config
    }

    /// The clean-path GEMM engine this device runs: the configured
    /// per-device choice, defaulting to the packed engine when the
    /// configuration leaves it unset.
    pub fn clean_engine(&self) -> crate::pack::CleanEngine {
        self.config.clean_engine.unwrap_or(crate::pack::CleanEngine::Packed)
    }

    /// Points this device at a specific observability context (tests use
    /// a fresh context so parallel test threads never share counters).
    pub fn set_obs(&mut self, obs: Arc<Obs>) {
        self.obs = obs;
    }

    /// The observability context this device reports into.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// How many *dispatches* so far took the clean (uninstrumented) fast
    /// path. Zero whenever any fault plan was armed across all launches.
    /// A fused clean dispatch counts once even though it files one launch
    /// record per fused kernel (DESIGN §12), so a fused protected multiply
    /// reports 4 here against 6 launch-log records.
    pub fn clean_path_launches(&self) -> u64 {
        self.clean_path_launches.load(Ordering::Relaxed)
    }

    /// Total physical dispatch events: one per [`Device::launch_on`] call
    /// plus one per fused clean dispatch. A fused protected multiply shows
    /// 4 dispatches; the same pipeline with any fault plan armed falls back
    /// to the 6-dispatch shape.
    pub fn dispatches(&self) -> u64 {
        self.dispatches.load(Ordering::Relaxed)
    }

    /// Total kernel launches issued so far — the launch-log sequence
    /// frontier. Detector telemetry reads this to express detection
    /// latency in launches (seq distance from pipeline start to the
    /// check that flagged).
    pub fn launches_issued(&self) -> u64 {
        self.launch_seq.load(Ordering::Relaxed)
    }

    /// Whether a fused clean dispatch is currently possible: no fault plan
    /// of any kind armed and the instrumented path not forced. Pipelines
    /// consult this *before* issuing a fused dispatch so armed campaigns
    /// keep the exact separate-launch shape (including the inter-phase
    /// memory-fault landing points) they calibrate against.
    pub fn fusion_viable(&self) -> bool {
        !self.force_instrumented.load(Ordering::Relaxed)
            && self.injections.lock().is_empty()
            && self.kernel_faults.lock().is_empty()
            && self.memory_faults.lock().is_empty()
    }

    /// Forces every launch through the instrumented per-op path regardless
    /// of fault-plan state. Benchmarks and path-equivalence tests use this
    /// to obtain the reference execution on an otherwise clean device.
    pub fn set_force_instrumented(&self, force: bool) {
        self.force_instrumented.store(force, Ordering::Relaxed);
    }

    /// Whether the instrumented path is currently forced.
    pub fn force_instrumented(&self) -> bool {
        self.force_instrumented.load(Ordering::Relaxed)
    }

    /// Arms a fault injection; it strikes (at most once) during subsequent
    /// launches until [`Device::disarm_injection`] is called.
    ///
    /// # Panics
    ///
    /// Panics if the plan targets an SM or module outside the device shape.
    pub fn arm_injection(&self, plan: InjectionPlan) {
        self.arm_injections(&[plan]);
    }

    /// Arms several simultaneous faults (multi-fault campaigns); each
    /// strikes at most once. Replaces any previously armed set and resets
    /// the dynamic-instance counters.
    ///
    /// # Panics
    ///
    /// Panics if any plan targets an SM or module outside the device shape.
    pub fn arm_injections(&self, plans: &[InjectionPlan]) {
        for plan in plans {
            assert!(
                plan.sm < self.config.num_sms,
                "plan targets SM {} of {}",
                plan.sm,
                self.config.num_sms
            );
            assert!(
                plan.module < self.config.max_modules,
                "plan targets module {} of {}",
                plan.module,
                self.config.max_modules
            );
        }
        for counts in &self.sm_counts {
            for slot in counts.lock().iter_mut() {
                *slot = [0; FaultSite::COUNT];
            }
        }
        *self.injections.lock() =
            plans.iter().map(|&p| Arc::new(InjectionState::new(p))).collect();
    }

    /// Arms a kernel-scope fault: a bit flip in the `k_injection`-th FPU
    /// operation SM `sm` executes inside launches of the plan's scope. It
    /// strikes at most once; arming replaces any previous kernel-scope set.
    ///
    /// # Panics
    ///
    /// Panics if the plan targets an SM outside the device shape or a zero
    /// `k_injection` (the count is 1-based).
    pub fn arm_kernel_fault(&self, plan: KernelFaultPlan) {
        self.arm_kernel_faults(&[plan]);
    }

    /// Arms several simultaneous kernel-scope faults, replacing any
    /// previously armed set (and its operation counters).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Device::arm_kernel_fault`].
    pub fn arm_kernel_faults(&self, plans: &[KernelFaultPlan]) {
        for plan in plans {
            assert!(
                plan.sm < self.config.num_sms,
                "plan targets SM {} of {}",
                plan.sm,
                self.config.num_sms
            );
            assert!(plan.k_injection > 0, "k_injection is 1-based");
        }
        *self.kernel_faults.lock() =
            plans.iter().map(|&p| Arc::new(KernelFaultState::new(p))).collect();
    }

    /// Arms a memory-at-rest fault; the pipeline lands it via
    /// [`Device::apply_memory_faults`] at the matching phase boundary.
    pub fn arm_memory_fault(&self, plan: MemoryFaultPlan) {
        self.arm_memory_faults(&[plan]);
    }

    /// Arms several memory-at-rest faults, replacing any previous set.
    pub fn arm_memory_faults(&self, plans: &[MemoryFaultPlan]) {
        *self.memory_faults.lock() =
            plans.iter().map(|&p| Arc::new(MemoryFaultState::new(p))).collect();
    }

    /// Applies armed memory faults whose `after_phase` matches `phase` to
    /// the named `buffers`; returns how many flips landed. Pipelines call
    /// this after each phase with the device buffers they expose; each
    /// fault lands at most once, at the first matching boundary.
    pub fn apply_memory_faults(&self, phase: &str, buffers: &[(&str, &DeviceBuffer)]) -> usize {
        let armed = self.memory_faults.lock().clone();
        if armed.is_empty() {
            return 0;
        }
        let mut landed = 0usize;
        for state in &armed {
            if state.has_fired() || state.plan.after_phase != phase {
                continue;
            }
            let Some((_, buf)) = buffers.iter().find(|(name, _)| *name == state.plan.buffer)
            else {
                continue;
            };
            if buf.is_empty() || !state.mark_fired() {
                continue;
            }
            buf.flip_bits(state.plan.word % buf.len(), state.plan.mask);
            landed += 1;
        }
        if landed > 0 {
            self.obs.metrics.counter_add("sim.memory_faults", landed as u64);
        }
        landed
    }

    /// Disarms all injections; returns `true` if at least one fault struck.
    pub fn disarm_injection(&self) -> bool {
        self.disarm_count() > 0
    }

    /// Disarms all armed faults of every kind (GEMM-site injections,
    /// kernel-scope faults, memory faults); returns how many struck.
    pub fn disarm_count(&self) -> usize {
        let sites =
            std::mem::take(&mut *self.injections.lock()).iter().filter(|s| s.has_fired()).count();
        let kernels = std::mem::take(&mut *self.kernel_faults.lock())
            .iter()
            .filter(|s| s.has_fired())
            .count();
        let mems = std::mem::take(&mut *self.memory_faults.lock())
            .iter()
            .filter(|s| s.has_fired())
            .count();
        sites + kernels + mems
    }

    /// The SM a given linear block index is scheduled on (round-robin).
    pub fn sm_of_block(&self, linear_block: usize) -> usize {
        linear_block % self.config.num_sms
    }

    /// The device's default stream (stream 0).
    pub fn default_stream(&self) -> StreamId {
        StreamId::DEFAULT
    }

    /// Creates a fresh stream: an independent ordered launch queue whose
    /// launches may overlap other streams' in the modelled timeline.
    pub fn create_stream(&self) -> StreamId {
        self.streams.lock().create()
    }

    /// Records an event at `stream`'s current launch frontier.
    pub fn record_event(&self, stream: StreamId) -> Event {
        self.streams.lock().record(stream)
    }

    /// Orders `stream`'s *subsequent* launches after `event` in the
    /// modelled timeline (CUDA `cudaStreamWaitEvent` analogue).
    pub fn wait_event(&self, stream: StreamId, event: &Event) {
        self.streams.lock().wait(stream, event);
    }

    /// Launches `kernel` over `grid` on the default stream and returns the
    /// merged stats. The launch is also appended to the device's launch log
    /// for performance modelling.
    pub fn launch<K: Kernel + ?Sized>(&self, grid: GridDim, kernel: &K) -> KernelStats {
        self.launch_on(StreamId::DEFAULT, grid, kernel)
    }

    /// Launches `kernel` over `grid` on `stream`.
    ///
    /// Functionally the kernel executes immediately (host-side, exactly as
    /// [`Device::launch`] always has), so results never depend on stream
    /// assignment; the stream and the dependency edges it implies are
    /// recorded in the launch log, where
    /// [`PerfModel::schedule`](crate::perf::PerfModel::schedule) uses them
    /// to overlap independent streams in the modelled timeline.
    pub fn launch_on<K: Kernel + ?Sized>(
        &self,
        stream: StreamId,
        grid: GridDim,
        kernel: &K,
    ) -> KernelStats {
        let injections = self.injections.lock().clone();
        let scoped: Vec<Arc<KernelFaultState>> = self
            .kernel_faults
            .lock()
            .iter()
            .filter(|s| s.plan.scope.matches(kernel.phase()))
            .cloned()
            .collect();
        // Clean-path dispatch: a launch may skip per-op instrumentation only
        // when *no* fault plan of any kind is armed on the device — not just
        // none matching this phase — so campaigns always observe the
        // instrumented execution they calibrate against.
        let clean = kernel.supports_clean_path()
            && !self.force_instrumented.load(Ordering::Relaxed)
            && injections.is_empty()
            && self.kernel_faults.lock().is_empty()
            && self.memory_faults.lock().is_empty();
        let num_sms = self.config.num_sms;
        let max_modules = self.config.max_modules;
        let blocks: Vec<BlockIdx> = grid.iter().collect();
        let mut span = self
            .obs
            .recorder
            .span("kernel", kernel.name())
            .attr("phase", kernel.phase())
            .attr("stream", stream.raw());

        let per_sm: Vec<KernelStats> = if clean {
            // Fast path: no dynamic-instance counters to maintain and no
            // injection tables to probe, so the partition unit is the
            // *block*, not the SM — every worker thread claims blocks from
            // the shared cursor instead of 13 SM-sized batches gating the
            // fan-out. Blocks write disjoint outputs (the kernel author's
            // contract for clean bodies) and account their work in closed
            // form into per-block stats records, which fold back into the
            // round-robin per-SM split the instrumented path reports.
            kernel.begin_clean_launch();
            let per_block: Vec<KernelStats> = (0..blocks.len())
                .into_par_iter()
                .map(|linear| {
                    let mut block_stats = KernelStats { blocks: 1, ..Default::default() };
                    kernel.run_block_clean(blocks[linear], &mut block_stats);
                    block_stats
                })
                .collect();
            kernel.end_clean_launch();
            fold_per_sm(num_sms, &per_block)
        } else {
            (0..num_sms)
                .into_par_iter()
                .map(|sm_id| {
                    let mut stats = KernelStats::default();
                    let mut counts_guard = self.sm_counts[sm_id].lock();
                    debug_assert_eq!(counts_guard.len(), max_modules);
                    for (linear, &block) in blocks.iter().enumerate() {
                        if linear % num_sms != sm_id {
                            continue;
                        }
                        let mut ctx = BlockCtx {
                            block,
                            sm_id,
                            stats: KernelStats { blocks: 1, ..Default::default() },
                            sm_counts: &mut counts_guard,
                            injections: &injections,
                            scoped: &scoped,
                        };
                        kernel.run_block(&mut ctx);
                        stats.merge(&ctx.stats);
                    }
                    stats
                })
                .collect()
        };

        let mut total = KernelStats::default();
        for s in &per_sm {
            total.merge(s);
        }
        span.add_attr("flops", total.flops());
        span.add_attr("blocks", total.blocks);
        let m = &self.obs.metrics;
        if clean {
            self.clean_path_launches.fetch_add(1, Ordering::Relaxed);
            m.counter_inc("sim.clean_launches");
        }
        self.dispatches.fetch_add(1, Ordering::Relaxed);
        m.counter_inc("sim.dispatches");
        m.counter_inc("sim.launches");
        m.counter_add("sim.flops", total.flops());
        m.counter_add("sim.gmem_bytes", total.gmem_bytes());
        m.counter_add("sim.blocks", total.blocks);
        let filed = self.file(LaunchRecord {
            seq: 0,
            stream: stream.raw(),
            deps: Vec::new(),
            name: kernel.name().to_string(),
            phase: kernel.phase().to_string(),
            utilization: kernel.utilization(),
            stats: total,
            per_sm,
            clean,
        });
        if let Some(seq) = filed {
            span.add_attr("seq", seq);
        }
        total
    }

    /// Numbers `rec`, chains it on its stream and appends it to the launch
    /// log, returning its sequence number. Inside
    /// [`Device::in_item_order`] the record is held back instead (`None`)
    /// and filed when the wave ends.
    fn file(&self, rec: LaunchRecord) -> Option<u64> {
        let me = self as *const Device as usize;
        let rec = HELD.with(|held| match &*held.borrow() {
            Some((device, slots, item)) if *device == me => {
                slots.lock()[*item].push(rec);
                None
            }
            _ => Some(rec),
        })?;
        Some(self.file_now(rec))
    }

    fn file_now(&self, mut rec: LaunchRecord) -> u64 {
        let stream = StreamId(rec.stream);
        let mut table = self.streams.lock();
        rec.seq = self.launch_seq.fetch_add(1, Ordering::Relaxed);
        rec.deps = table.take_deps(stream);
        table.advance(stream, rec.seq);
        let seq = rec.seq;
        self.log.lock().push(rec);
        seq
    }

    /// Runs `item(i)` for every `i < n` on the worker pool and files the
    /// launches each item issues as if the items had run one after another
    /// in index order. Sequence numbers, stream chains and log order are
    /// then a function of the items alone, not of thread timing, so the
    /// modelled timeline ([`PerfModel::schedule`](crate::perf::PerfModel::schedule))
    /// is too. Kernels still execute when issued; only the filing waits
    /// for the wave to end, so [`Device::launches_issued`] does not count
    /// the wave's own launches while it runs.
    ///
    /// Every launch an item makes must come from the thread running that
    /// item (kernel blocks may fan out; launches may not).
    pub fn in_item_order<R: Send>(&self, n: usize, item: impl Fn(usize) -> R + Sync) -> Vec<R> {
        let me = self as *const Device as usize;
        let slots: HeldSlots = Arc::new(Mutex::new(vec![Vec::new(); n]));
        let out: Vec<R> = (0..n)
            .into_par_iter()
            .map(|i| {
                let _restore = HeldGuard(HELD.with(|held| {
                    held.borrow_mut().replace((me, Arc::clone(&slots), i))
                }));
                item(i)
            })
            .collect();
        let held = std::mem::take(&mut *slots.lock());
        for rec in held.into_iter().flatten() {
            self.file_now(rec);
        }
        out
    }

    /// Drains the launch log (records since the last call).
    pub fn take_log(&self) -> Vec<LaunchRecord> {
        std::mem::take(&mut *self.log.lock())
    }

    /// Issues several kernels as **one fused dispatch** when every kernel
    /// supports the clean path and no fault plan is armed; otherwise every
    /// kernel is launched separately through [`Device::launch_on`] in
    /// order (the exact pre-fusion shape, instrumented as required).
    ///
    /// `stages` is a barrier-separated schedule: kernels within one stage
    /// are independent (disjoint outputs) and execute in the same parallel
    /// pass; a stage only starts after the previous stage completed — this
    /// is how the fused encode→GEMM epilogue orders the checksum-line
    /// writes before the multiplication reads them, like a grid-wide sync
    /// inside a megakernel.
    ///
    /// The fused dispatch still files **one launch record and one kernel
    /// span per kernel**, with the same seq/dep chain, names, phases,
    /// stats and per-SM splits as separate launches — launch logs,
    /// `PerfModel`, traces and tick calibration cannot tell the difference
    /// (DESIGN §12). What changes is the dispatch count:
    /// [`Device::dispatches`] and [`Device::clean_path_launches`] advance
    /// once per fused dispatch.
    ///
    /// Returns the merged stats of every kernel in issue order.
    pub fn launch_fused_on(
        &self,
        stream: StreamId,
        stages: &[&[(GridDim, &dyn Kernel)]],
    ) -> Vec<KernelStats> {
        let fused = self.fusion_viable()
            && stages.iter().all(|stage| stage.iter().all(|(_, k)| k.supports_clean_path()));
        if !fused {
            return stages
                .iter()
                .flat_map(|stage| stage.iter().map(|&(grid, kernel)| self.launch_on(stream, grid, kernel)))
                .collect();
        }

        let num_sms = self.config.num_sms;
        let m = &self.obs.metrics;
        self.dispatches.fetch_add(1, Ordering::Relaxed);
        m.counter_inc("sim.dispatches");
        self.clean_path_launches.fetch_add(1, Ordering::Relaxed);
        m.counter_inc("sim.clean_launches");

        let mut out = Vec::new();
        for stage in stages {
            let blocks: Vec<Vec<BlockIdx>> =
                stage.iter().map(|(grid, _)| grid.iter().collect()).collect();
            let spans: Vec<_> = stage
                .iter()
                .map(|&(_, kernel)| {
                    self.obs
                        .recorder
                        .span("kernel", kernel.name())
                        .attr("phase", kernel.phase())
                        .attr("stream", stream.raw())
                })
                .collect();

            // One parallel pass executes every block of every kernel in the
            // stage, partitioned at block granularity (same flat work-list
            // the single-kernel clean launch uses — kernels in a stage have
            // disjoint outputs by the stage contract, so their blocks can
            // interleave freely across workers). Folding each kernel's
            // per-block records by `linear % num_sms` reproduces the
            // round-robin per-SM split separate launches report.
            for (_, kernel) in stage.iter() {
                kernel.begin_clean_launch();
            }
            let items: Vec<(usize, usize)> = blocks
                .iter()
                .enumerate()
                .flat_map(|(part, bl)| (0..bl.len()).map(move |linear| (part, linear)))
                .collect();
            let per_item: Vec<KernelStats> = (0..items.len())
                .into_par_iter()
                .map(|idx| {
                    let (part, linear) = items[idx];
                    let mut block_stats = KernelStats { blocks: 1, ..Default::default() };
                    stage[part].1.run_block_clean(blocks[part][linear], &mut block_stats);
                    block_stats
                })
                .collect();
            for (_, kernel) in stage.iter() {
                kernel.end_clean_launch();
            }
            let mut by_kernel: Vec<Vec<KernelStats>> =
                stage.iter().map(|_| vec![KernelStats::default(); num_sms]).collect();
            for (&(part, linear), s) in items.iter().zip(&per_item) {
                by_kernel[part][linear % num_sms].merge(s);
            }

            // Records are filed per kernel in issue order, exactly as
            // separate launches would have been.
            for (part, (&(_, kernel), mut span)) in stage.iter().zip(spans).enumerate() {
                let per_sm: Vec<KernelStats> = std::mem::take(&mut by_kernel[part]);
                let mut total = KernelStats::default();
                for s in &per_sm {
                    total.merge(s);
                }
                span.add_attr("flops", total.flops());
                span.add_attr("blocks", total.blocks);
                m.counter_inc("sim.launches");
                m.counter_add("sim.flops", total.flops());
                m.counter_add("sim.gmem_bytes", total.gmem_bytes());
                m.counter_add("sim.blocks", total.blocks);
                let filed = self.file(LaunchRecord {
                    seq: 0,
                    stream: stream.raw(),
                    deps: Vec::new(),
                    name: kernel.name().to_string(),
                    phase: kernel.phase().to_string(),
                    utilization: kernel.utilization(),
                    stats: total,
                    per_sm,
                    // Fused dispatches only exist on the clean path
                    // (fusion_viable() gates them).
                    clean: true,
                });
                if let Some(seq) = filed {
                    span.add_attr("seq", seq);
                }
                out.push(total);
            }
        }
        out
    }
}

/// Folds per-block stats (in linear block order) into the round-robin
/// per-SM split (`linear % num_sms`) the instrumented path reports, so
/// block-partitioned clean launches file indistinguishable records.
fn fold_per_sm(num_sms: usize, per_block: &[KernelStats]) -> Vec<KernelStats> {
    let mut per_sm = vec![KernelStats::default(); num_sms];
    for (linear, s) in per_block.iter().enumerate() {
        per_sm[linear % num_sms].merge(s);
    }
    per_sm
}

/// Held-back launch records of a [`Device::in_item_order`] wave, one list
/// per item.
type HeldSlots = Arc<Mutex<Vec<Vec<LaunchRecord>>>>;

thread_local! {
    /// Set while this thread runs item `i` of an [`Device::in_item_order`]
    /// wave: the device's address, the wave's slots and `i`.
    static HELD: RefCell<Option<(usize, HeldSlots, usize)>> = const { RefCell::new(None) };
}

/// Restores the thread's previous [`HELD`] state when an item ends, also
/// when it unwinds.
struct HeldGuard(Option<(usize, HeldSlots, usize)>);

impl Drop for HeldGuard {
    fn drop(&mut self) {
        let prev = self.0.take();
        HELD.with(|held| *held.borrow_mut() = prev);
    }
}

/// A GPU kernel: code executed once per thread block.
///
/// Kernels are written in "block-sequential" style — the body iterates over
/// the block's threads explicitly, exactly like the pseudocode of the
/// paper's Algorithms 1–3 ("each thread calculates…"). All floating-point
/// arithmetic must go through the [`BlockCtx`] FPU methods so instruction
/// counting and fault injection see every operation.
pub trait Kernel: Sync {
    /// Kernel name for the launch log.
    fn name(&self) -> &'static str;
    /// Pipeline phase this kernel belongs to (`"encode"`, `"gemm"`,
    /// `"check"`, ...); groups launches in traces and the profile
    /// breakdown. Defaults to the kernel name.
    fn phase(&self) -> &'static str {
        self.name()
    }
    /// Executes one thread block.
    fn run_block(&self, ctx: &mut BlockCtx<'_>);
    /// Whether this kernel provides a clean-path [`Kernel::run_block_clean`]
    /// that is bit-identical to [`Kernel::run_block`] under the current
    /// kernel configuration (e.g. only for round-to-nearest arithmetic).
    /// The device only dispatches to the clean path when this returns `true`
    /// *and* no fault plan of any kind is armed.
    fn supports_clean_path(&self) -> bool {
        false
    }
    /// Called once per clean-path launch (for a fused dispatch: once per
    /// stage, after the previous stage completed), before any of the
    /// launch's [`Kernel::run_block_clean`] calls. Kernels that share
    /// per-launch state across blocks — the packed GEMM's operand panels —
    /// set it up here, fresh each launch, since the buffers may have been
    /// rewritten since the last one.
    fn begin_clean_launch(&self) {}
    /// Called once per clean-path launch after its last
    /// [`Kernel::run_block_clean`] call returned; releases what
    /// [`Kernel::begin_clean_launch`] set up.
    fn end_clean_launch(&self) {}
    /// Executes one thread block on the clean path: identical arithmetic in
    /// identical order, but operating on buffers directly and accounting
    /// `stats` (including `fpu_ticks`) in closed form instead of per-op.
    /// `stats` arrives with `blocks == 1` already set, mirroring the
    /// instrumented per-block context.
    fn run_block_clean(&self, _block: BlockIdx, _stats: &mut KernelStats) {
        unreachable!("kernel declares supports_clean_path() but provides no run_block_clean()")
    }
    /// Fraction of peak FP throughput this kernel can reach (occupancy /
    /// utilization class used by the performance model). Defaults to a
    /// well-utilised compute kernel.
    fn utilization(&self) -> f64 {
        0.9
    }
}

/// Execution context of one thread block: identity, counters and the
/// injectable FPU.
#[derive(Debug)]
pub struct BlockCtx<'a> {
    block: BlockIdx,
    sm_id: usize,
    stats: KernelStats,
    sm_counts: &'a mut Vec<[u64; FaultSite::COUNT]>,
    injections: &'a [Arc<InjectionState>],
    /// Kernel-scope faults whose scope matched this launch's phase.
    scoped: &'a [Arc<KernelFaultState>],
}

impl BlockCtx<'_> {
    /// This block's index in the launch grid.
    pub fn block(&self) -> BlockIdx {
        self.block
    }

    /// The streaming multiprocessor executing this block.
    pub fn sm_id(&self) -> usize {
        self.sm_id
    }

    /// Declares `n` threads for this block (geometry bookkeeping only).
    pub fn declare_threads(&mut self, n: usize) {
        self.stats.threads += n as u64;
    }

    /// Routes an FPU result through the kernel-scope fault channel: every
    /// arithmetic method calls this, so `stats.fpu_ticks` counts dynamic FPU
    /// operations in issue order and armed in-scope faults ([`KernelFaultState`])
    /// tick along the exact same sequence.
    #[inline]
    fn scoped_tick(&mut self, value: f64) -> f64 {
        self.stats.fpu_ticks += 1;
        if self.scoped.is_empty() {
            return value;
        }
        let mut v = value;
        for fault in self.scoped {
            v = fault.tick(self.sm_id, v);
        }
        v
    }

    // ---- plain FPU ops (counted; injectable via kernel-scope faults) -------

    /// Floating-point addition.
    #[inline]
    pub fn add(&mut self, a: f64, b: f64) -> f64 {
        self.stats.fadd += 1;
        self.scoped_tick(a + b)
    }

    /// Floating-point subtraction.
    #[inline]
    pub fn sub(&mut self, a: f64, b: f64) -> f64 {
        self.stats.fadd += 1;
        self.scoped_tick(a - b)
    }

    /// Floating-point multiplication.
    #[inline]
    pub fn mul(&mut self, a: f64, b: f64) -> f64 {
        self.stats.fmul += 1;
        self.scoped_tick(a * b)
    }

    /// Fused multiply-add `a·b + c` (one instruction, two FLOPs).
    #[inline]
    pub fn fma(&mut self, a: f64, b: f64, c: f64) -> f64 {
        self.stats.ffma += 1;
        self.scoped_tick(a.mul_add(b, c))
    }

    /// Absolute value / comparison-class op (counted as simple FP op).
    #[inline]
    pub fn abs(&mut self, a: f64) -> f64 {
        self.stats.fcmp += 1;
        self.scoped_tick(a.abs())
    }

    /// Max-class op (counted as simple FP op).
    #[inline]
    pub fn max(&mut self, a: f64, b: f64) -> f64 {
        self.stats.fcmp += 1;
        self.scoped_tick(a.max(b))
    }

    // ---- injectable FPU ops (Alg. 3 fault targets) -------------------------

    /// Inner-loop / final-sum addition executed on functional unit `module`;
    /// an armed matching injection corrupts the result (Alg. 3).
    #[inline]
    pub fn add_at(&mut self, site: FaultSite, module: usize, a: f64, b: f64) -> f64 {
        self.stats.fadd += 1;
        let r = a + b;
        let r = self.apply_injection(site, module, r);
        self.scoped_tick(r)
    }

    /// Inner-loop multiplication on functional unit `module`.
    #[inline]
    pub fn mul_at(&mut self, site: FaultSite, module: usize, a: f64, b: f64) -> f64 {
        self.stats.fmul += 1;
        let r = a * b;
        let r = self.apply_injection(site, module, r);
        self.scoped_tick(r)
    }

    /// Inner-loop / final-sum addition under an explicit rounding mode
    /// (truncating hardware is simulated bit-exactly via error-free
    /// transforms).
    #[inline]
    pub fn add_at_rm(
        &mut self,
        site: FaultSite,
        module: usize,
        a: f64,
        b: f64,
        mode: aabft_numerics::RoundingMode,
    ) -> f64 {
        self.stats.fadd += 1;
        let r = aabft_numerics::rounding::add_with_mode(a, b, mode);
        let r = self.apply_injection(site, module, r);
        self.scoped_tick(r)
    }

    /// Inner-loop multiplication under an explicit rounding mode.
    #[inline]
    pub fn mul_at_rm(
        &mut self,
        site: FaultSite,
        module: usize,
        a: f64,
        b: f64,
        mode: aabft_numerics::RoundingMode,
    ) -> f64 {
        self.stats.fmul += 1;
        let r = aabft_numerics::rounding::mul_with_mode(a, b, mode);
        let r = self.apply_injection(site, module, r);
        self.scoped_tick(r)
    }

    /// Fused multiply-add on functional unit `module` (fault strikes the
    /// fused result; under FMA there is no separate multiply to target).
    #[inline]
    pub fn fma_at(&mut self, site: FaultSite, module: usize, a: f64, b: f64, c: f64) -> f64 {
        self.stats.ffma += 1;
        let r = a.mul_add(b, c);
        let r = self.apply_injection(site, module, r);
        self.scoped_tick(r)
    }

    #[inline]
    fn apply_injection(&mut self, site: FaultSite, module: usize, value: f64) -> f64 {
        if self.injections.is_empty() {
            return value;
        }
        debug_assert!(module < self.sm_counts.len(), "module {module} out of range");
        let c = &mut self.sm_counts[module][site.index()];
        *c += 1;
        let mut v = value;
        for inj in self.injections {
            v = inj.apply(self.sm_id, site, module, *c, v);
        }
        v
    }

    // ---- memory ------------------------------------------------------------

    /// Loads one word from global memory.
    #[inline]
    pub fn load(&mut self, buf: &DeviceBuffer, idx: usize) -> f64 {
        self.stats.gmem_loads += 1;
        buf.get(idx)
    }

    /// Stores one word to global memory.
    #[inline]
    pub fn store(&mut self, buf: &DeviceBuffer, idx: usize, v: f64) {
        self.stats.gmem_stores += 1;
        buf.set(idx, v);
    }

    /// Records `n` shared-memory accesses performed as bulk array work.
    #[inline]
    pub fn note_smem(&mut self, n: u64) {
        self.stats.smem_accesses += n;
    }

    /// Records `n` global-memory loads performed as a bulk (coalesced) copy.
    #[inline]
    pub fn note_gmem_loads(&mut self, n: u64) {
        self.stats.gmem_loads += n;
    }

    /// Records `n` global-memory stores performed as a bulk (coalesced) copy.
    #[inline]
    pub fn note_gmem_stores(&mut self, n: u64) {
        self.stats.gmem_stores += n;
    }

    /// Records floating-point work performed through host helpers (e.g. a
    /// closed-form bound evaluation) without routing each op individually.
    #[inline]
    pub fn note_ops(&mut self, fadd: u64, fmul: u64, fcmp: u64) {
        self.stats.fadd += fadd;
        self.stats.fmul += fmul;
        self.stats.fcmp += fcmp;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FillKernel<'a> {
        out: &'a DeviceBuffer,
    }
    impl Kernel for FillKernel<'_> {
        fn name(&self) -> &'static str {
            "fill"
        }
        fn run_block(&self, ctx: &mut BlockCtx<'_>) {
            let i = ctx.block().y * 4 + ctx.block().x;
            let v = ctx.mul(i as f64, 2.0);
            ctx.store(self.out, i, v);
        }
    }

    #[test]
    fn launch_runs_every_block_once() {
        let device = Device::with_defaults();
        let out = DeviceBuffer::zeros(8);
        let stats = device.launch(GridDim::new(4, 2), &FillKernel { out: &out });
        assert_eq!(stats.blocks, 8);
        assert_eq!(stats.fmul, 8);
        assert_eq!(stats.gmem_stores, 8);
        assert_eq!(out.to_vec(), vec![0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0]);
    }

    #[test]
    fn launch_log_records() {
        let device = Device::with_defaults();
        let out = DeviceBuffer::zeros(8);
        device.launch(GridDim::new(4, 2), &FillKernel { out: &out });
        let log = device.take_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].name, "fill");
        assert!(device.take_log().is_empty());
    }

    struct AccumKernel<'a> {
        out: &'a DeviceBuffer,
    }
    impl Kernel for AccumKernel<'_> {
        fn name(&self) -> &'static str {
            "accum"
        }
        fn run_block(&self, ctx: &mut BlockCtx<'_>) {
            let i = ctx.block().x;
            let mut s = 0.0;
            for k in 1..=4 {
                let p = ctx.mul_at(FaultSite::InnerMul, 0, k as f64, 1.0);
                s = ctx.add_at(FaultSite::InnerAdd, 0, s, p);
            }
            ctx.store(self.out, i, s);
        }
    }

    #[test]
    fn injection_strikes_exactly_once_and_is_deterministic() {
        let device = Device::new(DeviceConfig { num_sms: 2, max_modules: 4, clean_engine: None });
        let out = DeviceBuffer::zeros(4);
        // Blocks 0 and 2 run on SM 0; blocks 1 and 3 on SM 1 (round-robin).
        // Target the 6th InnerAdd on SM 1 => second add of block 3.
        device.arm_injection(InjectionPlan {
            sm: 1,
            site: FaultSite::InnerAdd,
            module: 0,
            k_injection: 6,
            mask: 1 << 63, // sign flip
        });
        device.launch(GridDim::linear_1d(4), &AccumKernel { out: &out });
        assert!(device.disarm_injection());
        let v = out.to_vec();
        // Unaffected blocks sum to 1+2+3+4 = 10.
        assert_eq!(v[0], 10.0);
        assert_eq!(v[1], 10.0);
        assert_eq!(v[2], 10.0);
        // Block 3: after 2nd add the partial sum 3 becomes -3; remaining
        // adds give -3 + 3 + 4 = 4.
        assert_eq!(v[3], 4.0);
    }

    #[test]
    fn disarm_reports_unfired() {
        let device = Device::new(DeviceConfig { num_sms: 2, max_modules: 4, clean_engine: None });
        device.arm_injection(InjectionPlan {
            sm: 1,
            site: FaultSite::FinalAdd,
            module: 0,
            k_injection: 1,
            mask: 1,
        });
        // No launch executes a FinalAdd: the fault never strikes.
        let out = DeviceBuffer::zeros(4);
        device.launch(GridDim::linear_1d(4), &AccumKernel { out: &out });
        assert!(!device.disarm_injection());
    }

    #[test]
    fn fpu_ticks_count_dynamic_ops_in_issue_order() {
        let device = Device::new(DeviceConfig { num_sms: 2, max_modules: 4, clean_engine: None });
        let out = DeviceBuffer::zeros(4);
        let stats = device.launch(GridDim::linear_1d(4), &AccumKernel { out: &out });
        // Each block issues 4 mul_at + 4 add_at = 8 FPU operations.
        assert_eq!(stats.fpu_ticks, 32);
        let log = device.take_log();
        let per_sm_ticks: u64 = log[0].per_sm.iter().map(|s| s.fpu_ticks).sum();
        assert_eq!(per_sm_ticks, 32, "per-SM split carries the tick counts");
    }

    #[test]
    fn kernel_scope_fault_strikes_kth_op_deterministically() {
        use crate::inject::{FaultScope, KernelFaultPlan};
        let run = |armed: bool| {
            let device = Device::new(DeviceConfig { num_sms: 2, max_modules: 4, clean_engine: None });
            let out = DeviceBuffer::zeros(4);
            if armed {
                // Blocks 1 and 3 run on SM 1; each issues mul,add,... pairs.
                // Tick 10 on SM 1 is the first add of block 3 (partial sum 1).
                device.arm_kernel_fault(KernelFaultPlan {
                    scope: FaultScope::Any,
                    sm: 1,
                    k_injection: 10,
                    mask: 1 << 63, // sign flip
                });
            }
            device.launch(GridDim::linear_1d(4), &AccumKernel { out: &out });
            (device.disarm_count(), out.to_vec())
        };
        let (fired, v) = run(true);
        assert_eq!(fired, 1);
        assert_eq!(v[..3], [10.0, 10.0, 10.0]);
        // Block 3: first partial sum 1 becomes -1; -1 + 2 + 3 + 4 = 8.
        assert_eq!(v[3], 8.0);
        assert_eq!(run(true), (fired, v), "kernel-scope faults are deterministic");
        assert_eq!(run(false).1[3], 10.0);
    }

    #[test]
    fn kernel_scope_fault_respects_phase_filter() {
        use crate::inject::{FaultScope, KernelFaultPlan};
        let device = Device::new(DeviceConfig { num_sms: 2, max_modules: 4, clean_engine: None });
        let out = DeviceBuffer::zeros(4);
        // AccumKernel's phase is its name ("accum"); an encode-scope fault
        // never matches, so the counter never advances and nothing fires.
        device.arm_kernel_fault(KernelFaultPlan {
            scope: FaultScope::Encode,
            sm: 1,
            k_injection: 1,
            mask: 1 << 63,
        });
        device.launch(GridDim::linear_1d(4), &AccumKernel { out: &out });
        assert_eq!(out.to_vec(), vec![10.0; 4]);
        assert_eq!(device.disarm_count(), 0);
    }

    #[test]
    fn memory_fault_lands_once_at_phase_boundary() {
        use crate::inject::MemoryFaultPlan;
        let device = Device::new(DeviceConfig { num_sms: 2, max_modules: 4, clean_engine: None });
        let out = DeviceBuffer::zeros(4);
        device.arm_memory_fault(MemoryFaultPlan {
            buffer: "out",
            word: 6, // taken modulo the buffer length: word 2
            mask: 1 << 63,
            after_phase: "accum",
        });
        device.launch(GridDim::linear_1d(4), &AccumKernel { out: &out });
        // Wrong phase or unknown buffer: nothing lands.
        assert_eq!(device.apply_memory_faults("gemm", &[("out", &out)]), 0);
        assert_eq!(device.apply_memory_faults("accum", &[("other", &out)]), 0);
        assert_eq!(device.apply_memory_faults("accum", &[("out", &out)]), 1);
        assert_eq!(out.to_vec(), vec![10.0, 10.0, -10.0, 10.0]);
        // Fire-once: a second matching boundary is a no-op.
        assert_eq!(device.apply_memory_faults("accum", &[("out", &out)]), 0);
        assert_eq!(device.disarm_count(), 1);
    }

    #[test]
    fn launch_records_seq_phase_per_sm_and_reports_to_obs() {
        let mut device = Device::with_defaults();
        let obs = aabft_obs::Obs::new_shared();
        device.set_obs(obs.clone());
        obs.recorder.set_enabled(true);
        let out = DeviceBuffer::zeros(8);
        device.launch(GridDim::new(4, 2), &FillKernel { out: &out });
        device.launch(GridDim::new(4, 2), &FillKernel { out: &out });
        let log = device.take_log();
        assert_eq!((log[0].seq, log[1].seq), (0, 1));
        assert_eq!(log[0].phase, "fill", "default phase is the kernel name");
        assert_eq!(log[0].per_sm.len(), device.config().num_sms);
        let mut merged = KernelStats::default();
        for s in &log[0].per_sm {
            merged.merge(s);
        }
        assert_eq!(merged, log[0].stats, "per-SM split sums to the merged stats");
        assert_eq!(obs.metrics.counter("sim.launches"), 2);
        assert_eq!(
            obs.metrics.counter("sim.flops"),
            log[0].stats.flops() + log[1].stats.flops()
        );
        let spans = obs.recorder.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].cat, "kernel");
        assert!(spans[0].args.iter().any(|(k, _)| k == "phase"));
    }

    #[test]
    fn launch_on_records_stream_and_dep_chain() {
        let device = Device::with_defaults();
        let out = DeviceBuffer::zeros(8);
        let s = device.create_stream();
        device.launch_on(s, GridDim::new(4, 2), &FillKernel { out: &out });
        device.launch_on(s, GridDim::new(4, 2), &FillKernel { out: &out });
        device.launch(GridDim::new(4, 2), &FillKernel { out: &out });
        let log = device.take_log();
        assert_eq!(log[0].stream, s.raw());
        assert!(log[0].deps.is_empty(), "first launch on a fresh stream");
        assert_eq!(log[1].deps, vec![log[0].seq], "chained to its stream predecessor");
        assert_eq!(log[2].stream, 0, "plain launch goes to the default stream");
        assert!(log[2].deps.is_empty(), "default stream had no prior launch");
    }

    #[test]
    fn events_order_launches_across_streams() {
        let device = Device::with_defaults();
        let out = DeviceBuffer::zeros(8);
        let s1 = device.create_stream();
        let s2 = device.create_stream();
        assert_ne!(s1, s2);
        device.launch_on(s1, GridDim::new(4, 2), &FillKernel { out: &out });
        let e = device.record_event(s1);
        device.wait_event(s2, &e);
        device.launch_on(s2, GridDim::new(4, 2), &FillKernel { out: &out });
        device.launch_on(s2, GridDim::new(4, 2), &FillKernel { out: &out });
        let log = device.take_log();
        assert_eq!(log[1].deps, vec![log[0].seq], "wait turned into a cross-stream dep");
        assert_eq!(log[2].deps, vec![log[1].seq], "waits drain after one launch");
    }

    #[test]
    fn stream_assignment_never_changes_results() {
        let sequential = {
            let device = Device::with_defaults();
            let out = DeviceBuffer::zeros(8);
            device.launch(GridDim::new(4, 2), &FillKernel { out: &out });
            out.to_vec()
        };
        let streamed = {
            let device = Device::with_defaults();
            let out = DeviceBuffer::zeros(8);
            let s = device.create_stream();
            device.launch_on(s, GridDim::new(4, 2), &FillKernel { out: &out });
            out.to_vec()
        };
        assert_eq!(sequential, streamed);
    }

    #[test]
    fn results_deterministic_across_runs() {
        let run = || {
            let device = Device::with_defaults();
            let out = DeviceBuffer::zeros(8);
            device.launch(GridDim::new(4, 2), &FillKernel { out: &out });
            out.to_vec()
        };
        assert_eq!(run(), run());
    }

    struct DualFill<'a> {
        out: &'a DeviceBuffer,
    }
    impl Kernel for DualFill<'_> {
        fn name(&self) -> &'static str {
            "dualfill"
        }
        fn run_block(&self, ctx: &mut BlockCtx<'_>) {
            let i = ctx.block().y * 4 + ctx.block().x;
            let v = ctx.mul(i as f64, 2.0);
            ctx.store(self.out, i, v);
        }
        fn supports_clean_path(&self) -> bool {
            true
        }
        fn run_block_clean(&self, block: BlockIdx, stats: &mut KernelStats) {
            let i = block.y * 4 + block.x;
            self.out.set(i, i as f64 * 2.0);
            stats.fmul += 1;
            stats.fpu_ticks += 1;
            stats.gmem_stores += 1;
        }
    }

    #[test]
    fn clean_path_engages_only_when_nothing_is_armed() {
        use crate::inject::{FaultScope, KernelFaultPlan, MemoryFaultPlan};
        let device = Device::new(DeviceConfig { num_sms: 2, max_modules: 4, clean_engine: None });
        let out = DeviceBuffer::zeros(8);
        let clean = device.launch(GridDim::new(4, 2), &DualFill { out: &out });
        assert_eq!(device.clean_path_launches(), 1);
        let clean_vals = out.to_vec();

        device.set_force_instrumented(true);
        let forced = device.launch(GridDim::new(4, 2), &DualFill { out: &out });
        device.set_force_instrumented(false);
        assert_eq!(device.clean_path_launches(), 1, "forced launch stays instrumented");
        assert_eq!(clean, forced, "closed-form stats match per-op accounting");
        assert_eq!(clean_vals, out.to_vec());
        let log = device.take_log();
        assert_eq!(log[0].per_sm, log[1].per_sm, "per-SM split matches too");

        // Any armed plan — GEMM-site, kernel-scope or memory — forces the
        // instrumented path, even when its scope can never match.
        device.arm_kernel_fault(KernelFaultPlan {
            scope: FaultScope::Encode,
            sm: 0,
            k_injection: 1,
            mask: 1,
        });
        device.launch(GridDim::new(4, 2), &DualFill { out: &out });
        device.disarm_count();
        device.arm_memory_fault(MemoryFaultPlan {
            buffer: "unused",
            word: 0,
            mask: 1,
            after_phase: "never",
        });
        device.launch(GridDim::new(4, 2), &DualFill { out: &out });
        device.disarm_count();
        assert_eq!(device.clean_path_launches(), 1);

        device.launch(GridDim::new(4, 2), &DualFill { out: &out });
        assert_eq!(device.clean_path_launches(), 2, "clean path resumes after disarm");
    }

    #[test]
    fn kernels_without_clean_path_always_instrument() {
        let device = Device::with_defaults();
        let out = DeviceBuffer::zeros(8);
        device.launch(GridDim::new(4, 2), &FillKernel { out: &out });
        assert_eq!(device.clean_path_launches(), 0);
    }

    #[test]
    #[should_panic(expected = "targets SM")]
    fn arming_out_of_range_sm_panics() {
        let device = Device::new(DeviceConfig { num_sms: 2, max_modules: 4, clean_engine: None });
        device.arm_injection(InjectionPlan {
            sm: 7,
            site: FaultSite::InnerMul,
            module: 0,
            k_injection: 1,
            mask: 1,
        });
    }
}
