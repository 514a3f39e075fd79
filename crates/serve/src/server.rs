//! The server: per-replica dispatchers pulling costed, shape-sharded
//! waves from the admission plane through the batch engine, with retry,
//! escalation and circuit breaking around every wave.
//!
//! One OS thread per replica. Each iteration a dispatcher:
//!
//! 1. asks its breaker for admission (full wave / probe / quarantined) —
//!    quarantine transitions flip the replica's liveness in the sharded
//!    queue, so its shard affinity redistributes immediately;
//! 2. asks the [`queue`](crate::queue) for the shard it should serve —
//!    its calibrated argmin, or a steal when idle (sweeping
//!    deadline-expired entries, which it resolves as
//!    [`ServeOutcome::DeadlineMissed`]);
//! 3. ticks the escalation ladder and applies the resulting protection
//!    floor to every request in the wave;
//! 4. runs the wave through [`BatchGemm::execute_verified`] on its own
//!    device (plan cache and buffer pools shared across replicas
//!    through the one engine), charging the wave's calibrated
//!    cost to its inflight account for the duration and feeding the
//!    measured wall latency back into the placement plane's
//!    per-(replica, shape-class) calibration EWMA;
//! 5. resolves each result: completions resolve their ticket,
//!    `Unrecovered` results retry with exponential backoff until
//!    [`ServeConfig::max_retries`], then resolve as
//!    [`ServeOutcome::Unrecovered`] and feed the breaker.
//!
//! Shutdown closes the queue; dispatchers drain the remainder placement-free
//! (so every accepted ticket resolves) and exit.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use aabft_core::batch::{BatchGemm, GemmRequest, ProtectionPolicy};
use aabft_core::error::AbftError;
use aabft_core::AAbftGemm;
use aabft_gpu_sim::device::Device;
use aabft_matrix::Matrix;
use aabft_obs::Obs;

use crate::breaker::{Admission, BreakerConfig, CircuitBreaker};
use crate::ladder::{EscalationLadder, LadderConfig};
use crate::placement::{Placement, ReplicaSpec};
use crate::queue::{Pending, ShardedQueue, Taken};
use crate::request::{Completed, DeadlineClass, Rejected, ServeOutcome, ServeRequest, Slot, Ticket};

/// Server tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Bounded submission-queue capacity; submissions beyond it are shed
    /// with [`Rejected::QueueFull`].
    pub queue_capacity: usize,
    /// Maximum requests coalesced into one dispatch wave.
    pub max_wave: usize,
    /// Deadline for [`DeadlineClass::Interactive`] requests.
    pub interactive_deadline: Duration,
    /// Deadline for [`DeadlineClass::Batch`] requests.
    pub batch_deadline: Duration,
    /// Whole-request retries after an `Unrecovered` result.
    pub max_retries: u32,
    /// Base retry backoff; doubles per retry.
    pub retry_backoff: Duration,
    /// Dispatcher park time when the queue has nothing dispatchable.
    pub park: Duration,
    /// Escalation-ladder thresholds.
    pub ladder: LadderConfig,
    /// Per-replica circuit-breaker thresholds.
    pub breaker: BreakerConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 256,
            max_wave: 8,
            interactive_deadline: Duration::from_millis(20),
            batch_deadline: Duration::from_millis(500),
            max_retries: 2,
            retry_backoff: Duration::from_micros(500),
            park: Duration::from_millis(1),
            ladder: LadderConfig::default(),
            breaker: BreakerConfig::default(),
        }
    }
}

/// Typed startup rejection: the configuration cannot run a correct
/// server, so [`Server::start`] refuses it synchronously instead of
/// letting a dispatcher thread panic later.
#[derive(Debug)]
pub enum ServeError {
    /// A [`ServeConfig`] field is out of range.
    Config {
        /// Offending field.
        field: &'static str,
        /// The rejected value.
        got: String,
        /// What the field needs to be.
        need: &'static str,
    },
    /// A replica's device configuration failed validation.
    Replica {
        /// Replica index in the spec list.
        index: usize,
        /// The device-config error.
        source: aabft_gpu_sim::error::ConfigError,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Config { field, got, need } => {
                write!(f, "invalid ServeConfig: {field} = {got} (need {need})")
            }
            ServeError::Replica { index, source } => {
                write!(f, "invalid replica spec {index}: {source}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Replica { source, .. } => Some(source),
            ServeError::Config { .. } => None,
        }
    }
}

fn validate(cfg: &ServeConfig, specs: &[ReplicaSpec]) -> Result<(), ServeError> {
    if cfg.queue_capacity == 0 {
        return Err(ServeError::Config {
            field: "queue_capacity",
            got: "0".into(),
            need: "at least 1 queued request",
        });
    }
    if cfg.max_wave == 0 {
        return Err(ServeError::Config {
            field: "max_wave",
            got: "0".into(),
            need: "at least 1 request per wave",
        });
    }
    if specs.is_empty() {
        return Err(ServeError::Config {
            field: "replicas",
            got: "[]".into(),
            need: "at least one replica spec",
        });
    }
    for (index, spec) in specs.iter().enumerate() {
        spec.device.validate().map_err(|source| ServeError::Replica { index, source })?;
    }
    Ok(())
}

/// One replica: its device, breaker, and busy-time account.
struct Replica {
    spec: ReplicaSpec,
    device: Device,
    breaker: CircuitBreaker,
    /// Cumulative wall time spent executing waves, microseconds.
    busy_us: AtomicU64,
    /// Waves dispatched (stolen or not).
    waves: AtomicU64,
    /// Waves this replica stole.
    steals: AtomicU64,
}

struct Shared {
    cfg: ServeConfig,
    queue: ShardedQueue,
    placement: Arc<Placement>,
    ladder: EscalationLadder,
    engine: BatchGemm,
    replicas: Vec<Replica>,
    obs: Arc<Obs>,
    accepted: AtomicU64,
    resolved: AtomicU64,
    /// Calibration counts already mirrored into the obs counters, so
    /// `placement.cal.{updates,cold_hits}` advance by deltas.
    cal_updates_exported: AtomicU64,
    cal_cold_exported: AtomicU64,
}

impl Shared {
    fn resolve(&self, p: Pending, outcome: ServeOutcome) {
        self.obs.metrics.counter_inc(&format!("serve.{}", outcome.label()));
        self.resolved.fetch_add(1, Ordering::Relaxed);
        p.slot.resolve(outcome);
    }

    fn resolve_expired(&self, expired: Vec<Pending>) {
        let now = Instant::now();
        for p in expired {
            let waited = now.duration_since(p.submitted);
            self.obs.metrics.observe("serve.queue_wait_ms", waited.as_secs_f64() * 1e3);
            let outcome = ServeOutcome::DeadlineMissed { class: p.class, waited };
            self.resolve(p, outcome);
        }
    }

    /// Refreshes the placement-balance gauges: total and per-shard queue
    /// depth, per-shard observed queueing delay, per-replica inflight
    /// calibrated cost, and the calibration-plane counters.
    fn refresh_gauges(&self) {
        let metrics = &self.obs.metrics;
        metrics.gauge_set("serve.queue_depth", self.queue.len() as f64);
        let depths = self.queue.shard_depths();
        metrics.gauge_set("serve.shards", depths.len() as f64);
        for d in depths {
            let (m, n, q) = d.class;
            metrics.gauge_set(&format!("serve.shard.{m}x{n}x{q}.depth"), d.depth as f64);
        }
        for (class, delay) in self.queue.queue_delays() {
            let (m, n, q) = class;
            metrics.gauge_set(&format!("serve.shard.{m}x{n}x{q}.queue_delay_us"), delay * 1e6);
        }
        for (idx, cost) in self.queue.inflight().iter().enumerate() {
            metrics.gauge_set(&format!("serve.replica.{idx}.inflight_cost"), *cost);
        }
        export_counter_delta(
            metrics,
            "placement.cal.updates",
            self.placement.cal_updates(),
            &self.cal_updates_exported,
        );
        export_counter_delta(
            metrics,
            "placement.cal.cold_hits",
            self.placement.cal_cold_hits(),
            &self.cal_cold_exported,
        );
    }
}

/// Advances a monotonic obs counter to `total` by adding the delta since
/// the last export (`exported` remembers what has been mirrored).
fn export_counter_delta(
    metrics: &aabft_obs::Metrics,
    name: &str,
    total: u64,
    exported: &AtomicU64,
) {
    let mut prev = exported.load(Ordering::Relaxed);
    while total > prev {
        match exported.compare_exchange_weak(prev, total, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => {
                metrics.counter_add(name, total - prev);
                return;
            }
            Err(seen) => prev = seen,
        }
    }
}

/// The ABFT service front end over a set of heterogeneous replicas.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("replicas", &self.shared.replicas.len())
            .field("queue_len", &self.shared.queue.len())
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Validates `cfg` and the replica specs, builds one device per
    /// spec, and starts one dispatcher thread per replica. All devices
    /// are pointed at `obs`, so their metrics (including
    /// `abft.fault_rate_ewma`, the ladder's input) aggregate in one
    /// place.
    pub fn start(
        cfg: ServeConfig,
        gemm: AAbftGemm,
        replicas: Vec<ReplicaSpec>,
        obs: Arc<Obs>,
    ) -> Result<Server, ServeError> {
        validate(&cfg, &replicas)?;
        let replicas: Vec<Replica> = replicas
            .into_iter()
            .map(|spec| {
                let mut device = spec.build_device();
                device.set_obs(obs.clone());
                Replica {
                    spec,
                    device,
                    breaker: CircuitBreaker::new(cfg.breaker),
                    busy_us: AtomicU64::new(0),
                    waves: AtomicU64::new(0),
                    steals: AtomicU64::new(0),
                }
            })
            .collect();
        let placement = Arc::new(Placement::new(
            replicas.iter().map(|r| r.spec.clone()).collect(),
        ));
        let shared = Arc::new(Shared {
            cfg,
            queue: ShardedQueue::new(cfg.queue_capacity, placement.clone()),
            placement,
            ladder: EscalationLadder::new(cfg.ladder),
            engine: BatchGemm::new(gemm).with_streams(cfg.max_wave),
            replicas,
            obs,
            accepted: AtomicU64::new(0),
            resolved: AtomicU64::new(0),
            cal_updates_exported: AtomicU64::new(0),
            cal_cold_exported: AtomicU64::new(0),
        });
        let workers = (0..shared.replicas.len())
            .map(|idx| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("aabft-serve-{idx}"))
                    .spawn(move || dispatch_loop(&shared, idx))
                    .expect("spawning dispatcher")
            })
            .collect();
        Ok(Server { shared, workers })
    }

    /// Admits `req` or sheds it. An `Ok` ticket is guaranteed to resolve
    /// to exactly one [`ServeOutcome`]; an `Err` means the request was
    /// never enqueued.
    pub fn submit(&self, req: ServeRequest) -> Result<Ticket, Rejected> {
        let metrics = &self.shared.obs.metrics;
        metrics.counter_inc("serve.submitted");
        if req.a.cols() != req.b.rows() {
            metrics.counter_inc("serve.rejected_shape");
            return Err(Rejected::ShapeMismatch(AbftError::ShapeMismatch {
                op: "serve",
                left: req.a.shape(),
                right: req.b.shape(),
            }));
        }
        let now = Instant::now();
        let deadline = match req.class {
            DeadlineClass::Interactive => Some(now + self.shared.cfg.interactive_deadline),
            DeadlineClass::Batch => Some(now + self.shared.cfg.batch_deadline),
            DeadlineClass::Unbounded => None,
        };
        let slot = Arc::new(Slot::default());
        let pending = Pending {
            a: req.a,
            b: req.b,
            policy: req.policy,
            class: req.class,
            slot: slot.clone(),
            submitted: now,
            deadline,
            not_before: None,
            retries: 0,
        };
        match self.shared.queue.submit(pending) {
            Ok(()) => {
                metrics.counter_inc("serve.accepted");
                self.shared.accepted.fetch_add(1, Ordering::Relaxed);
                self.shared.refresh_gauges();
                Ok(Ticket { slot })
            }
            Err(rej) => {
                metrics.counter_inc("serve.shed");
                Err(rej)
            }
        }
    }

    /// Number of replicas.
    pub fn replicas(&self) -> usize {
        self.shared.replicas.len()
    }

    /// Replica `idx`'s device — the chaos generator's fault-arming
    /// surface.
    pub fn device(&self, idx: usize) -> &Device {
        &self.shared.replicas[idx].device
    }

    /// Replica `idx`'s spec (as costed by the placement plane).
    pub fn replica_spec(&self, idx: usize) -> &ReplicaSpec {
        &self.shared.replicas[idx].spec
    }

    /// Cumulative wall time replica `idx` has spent executing waves.
    pub fn replica_busy(&self, idx: usize) -> Duration {
        Duration::from_micros(self.shared.replicas[idx].busy_us.load(Ordering::Relaxed))
    }

    /// Waves replica `idx` has dispatched.
    pub fn replica_waves(&self, idx: usize) -> u64 {
        self.shared.replicas[idx].waves.load(Ordering::Relaxed)
    }

    /// Waves replica `idx` stole from shards affined elsewhere.
    pub fn replica_steals(&self, idx: usize) -> u64 {
        self.shared.replicas[idx].steals.load(Ordering::Relaxed)
    }

    /// Waves stolen across all replicas.
    pub fn steals(&self) -> u64 {
        self.shared.queue.steals()
    }

    /// The placement plane — calibration snapshots
    /// ([`Placement::calibration`]) and counter surface.
    pub fn placement(&self) -> Arc<Placement> {
        self.shared.placement.clone()
    }

    /// Replica `idx`'s breaker trip count.
    pub fn breaker_trips(&self, idx: usize) -> u32 {
        self.shared.replicas[idx].breaker.trips()
    }

    /// Replica `idx`'s current breaker state.
    pub fn breaker_state(&self, idx: usize) -> crate::breaker::BreakerState {
        self.shared.replicas[idx].breaker.state()
    }

    /// The escalation ladder (shared across dispatchers).
    pub fn ladder(&self) -> &EscalationLadder {
        &self.shared.ladder
    }

    /// Requests accepted and requests resolved so far. After
    /// [`Server::shutdown`] these are equal: every accepted ticket has
    /// its terminal outcome.
    pub fn accounting(&self) -> (u64, u64) {
        (
            self.shared.accepted.load(Ordering::Relaxed),
            self.shared.resolved.load(Ordering::Relaxed),
        )
    }

    /// Current queue depth (across all shards).
    pub fn queue_len(&self) -> usize {
        self.shared.queue.len()
    }

    /// Closes admission, drains every queued request to its terminal
    /// outcome, and joins the dispatchers.
    ///
    /// # Panics
    ///
    /// Propagates a dispatcher panic (none are expected). The requests of
    /// the wave that dispatcher held have already resolved as
    /// [`ServeOutcome::Unrecovered`], so no ticket is stranded by it.
    pub fn shutdown(self) {
        self.shared.queue.close();
        for w in self.workers {
            w.join().expect("dispatcher thread panicked");
        }
        let (accepted, resolved) = (
            self.shared.accepted.load(Ordering::Relaxed),
            self.shared.resolved.load(Ordering::Relaxed),
        );
        debug_assert_eq!(accepted, resolved, "every accepted request must resolve");
    }
}

fn dispatch_loop(shared: &Shared, idx: usize) {
    let replica = &shared.replicas[idx];
    let metrics = &shared.obs.metrics;
    // Tracks the last liveness communicated to the queue so quarantine
    // transitions redistribute shard affinity exactly once.
    let mut alive = true;
    loop {
        let max = match replica.breaker.admit() {
            Admission::Full => shared.cfg.max_wave,
            Admission::Probe => 1,
            Admission::Quarantined => {
                metrics.gauge_set(&format!("serve.replica.{idx}.quarantined"), 1.0);
                if alive {
                    alive = false;
                    shared.queue.set_alive(idx, false);
                }
                if shared.queue.is_drained() {
                    return;
                }
                std::thread::sleep(shared.cfg.park);
                continue;
            }
        };
        metrics.gauge_set(&format!("serve.replica.{idx}.quarantined"), 0.0);
        if !alive {
            alive = true;
            shared.queue.set_alive(idx, true);
        }
        match shared.queue.take_wave(idx, max, shared.cfg.park) {
            Taken::Drained => return,
            Taken::Empty { expired } => {
                shared.resolve_expired(expired);
            }
            Taken::Wave { batch, expired, cost, modelled, stolen } => {
                shared.resolve_expired(expired);
                run_wave(shared, idx, batch, cost, modelled, stolen);
            }
        }
    }
}

/// Cumulative scheduled CPU time of the calling thread, in seconds,
/// from Linux CFS accounting (`/proc/thread-self/schedstat`, first
/// field, nanoseconds). `None` off Linux or when the kernel doesn't
/// expose schedstats; callers fall back to wall time.
fn thread_runtime_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let ns: u64 = stat.split_whitespace().next()?.parse().ok()?;
    Some(ns as f64 / 1e9)
}

/// The requests of one wave that have not reached an outcome yet. A
/// request leaves through [`OpenWave::take`] to be resolved or requeued;
/// if the dispatcher unwinds mid-wave, dropping the guard resolves every
/// request it still holds as [`ServeOutcome::Unrecovered`], counted like
/// any other resolution. No ticket then waits on a dead dispatcher, and
/// [`Server::accounting`] still balances.
struct OpenWave<'a> {
    shared: &'a Shared,
    open: Vec<Option<Pending>>,
}

impl<'a> OpenWave<'a> {
    fn new(shared: &'a Shared, batch: Vec<Pending>) -> Self {
        OpenWave { shared, open: batch.into_iter().map(Some).collect() }
    }

    fn get(&self, i: usize) -> &Pending {
        self.open[i].as_ref().expect("request still in the wave")
    }

    fn take(&mut self, i: usize) -> Pending {
        self.open[i].take().expect("request still in the wave")
    }
}

impl Drop for OpenWave<'_> {
    fn drop(&mut self) {
        for pending in self.open.iter_mut().filter_map(Option::take) {
            let outcome = ServeOutcome::Unrecovered { attempts: 0, retries: pending.retries };
            self.shared.resolve(pending, outcome);
        }
    }
}

fn run_wave(
    shared: &Shared,
    idx: usize,
    batch: Vec<Pending>,
    cost: f64,
    modelled: f64,
    stolen: bool,
) {
    let mut wave = OpenWave::new(shared, batch);
    let replica = &shared.replicas[idx];
    let metrics = &shared.obs.metrics;
    let level = shared.ladder.observe(metrics);
    let (m, n, q) = wave.get(0).shape_key();
    let _wave = aabft_obs::span!(
        shared.obs,
        "serve",
        "wave",
        "replica" => idx as u64,
        "requests" => wave.open.len() as u64,
        "level" => format!("{level:?}"),
        "stolen" => u64::from(stolen),
        "m" => m as u64,
        "n" => n as u64,
        "q" => q as u64,
    );
    metrics.counter_inc("serve.waves");
    metrics.counter_inc(&format!("serve.replica.{idx}.waves"));
    replica.waves.fetch_add(1, Ordering::Relaxed);
    if stolen {
        metrics.counter_inc("serve.steals");
        metrics.counter_inc(&format!("serve.replica.{idx}.steals"));
        replica.steals.fetch_add(1, Ordering::Relaxed);
    }
    metrics.observe("serve.wave_size", wave.open.len() as f64);
    metrics.gauge_set(&format!("serve.replica.{idx}.busy"), 1.0);

    let effective: Vec<ProtectionPolicy> =
        wave.open.iter().flatten().map(|p| shared.ladder.apply(p.policy, level)).collect();
    // Move the operands into the requests rather than copy them: a 256³
    // pair is 1 MB, and under a burst both dispatchers' allocators would
    // each have to hold a wave's worth of copies. A failed request gets
    // its operands back for the retry.
    let requests: Vec<GemmRequest> = wave
        .open
        .iter_mut()
        .flatten()
        .zip(&effective)
        .map(|(p, &policy)| {
            let a = std::mem::replace(&mut p.a, Matrix::zeros(1, 1));
            let b = std::mem::replace(&mut p.b, Matrix::zeros(1, 1));
            GemmRequest::new(a, b).with_policy(policy)
        })
        .collect();
    let cpu_started = thread_runtime_s();
    let helpers_started = rayon::helper_cpu_time();
    let started = Instant::now();
    let results = shared.engine.execute_verified_slice(&replica.device, &requests);
    let busy = started.elapsed();
    // Close the cost loop: this wave's measured latency against its
    // pure-model price becomes one calibration sample for (replica,
    // shape class), exported as a ratio gauge. The sample wants the
    // wave's *device occupancy*, and on a host-simulated device that is
    // the CPU time the whole wave took, not its wall: when several
    // dispatchers share cores, wall charges this replica for time the
    // scheduler gave its peers, inflating every concurrent measurement
    // alike and compressing the very ratios calibration exists to
    // expose. The dispatcher runs only its own share of each multi-block
    // launch; the rayon pool's helpers run the rest and credit their CPU
    // time to this thread, so the sample adds theirs to its own. Wall is
    // the fallback where the kernel doesn't account per-thread runtime.
    let helper_busy = (rayon::helper_cpu_time() - helpers_started).as_secs_f64();
    let cpu_busy = match (cpu_started, thread_runtime_s()) {
        (Some(before), Some(after)) if after > before => after - before + helper_busy,
        _ => busy.as_secs_f64(),
    };
    // The host also serializes work the simulated device would spread
    // across its SMs, so device seconds are host seconds over SM width
    // — without that normalization every replica measures alike per
    // engine and calibration would erase the fleet's legitimate
    // SM-count differences along with the spec lies.
    let device_s = cpu_busy / replica.device.config().num_sms.max(1) as f64;
    let ratio = shared.placement.record_measured(idx, (m, n, q), device_s, modelled);
    let (cm, cn, cq) = crate::placement::shape_class((m, n, q));
    metrics.gauge_set(&format!("serve.replica.{idx}.cal.{cm}x{cn}x{cq}"), ratio);
    replica.busy_us.fetch_add(busy.as_micros() as u64, Ordering::Relaxed);
    metrics.gauge_set(
        &format!("serve.replica.{idx}.busy_us"),
        replica.busy_us.load(Ordering::Relaxed) as f64,
    );
    metrics.gauge_set(&format!("serve.replica.{idx}.busy"), 0.0);
    shared.queue.finish(idx, cost);
    // Tick the ladder on this wave's own verdicts too: the dispatch-time
    // observation reads the fault EWMA from *before* the wave executed,
    // so a storm whose last faulty wave sees no successor dispatch would
    // decay away unobserved and never raise the floor.
    shared.ladder.observe(metrics);
    shared.refresh_gauges();
    // Bound memory under sustained traffic: the launch log is per-device
    // telemetry that nobody drains in service mode.
    let _ = replica.device.take_log();

    let now = Instant::now();
    for (i, (result, request)) in results.into_iter().zip(requests).enumerate() {
        match result {
            Ok(healed) => {
                replica.breaker.record_success();
                let pending = wave.get(i);
                let latency = now.duration_since(pending.submitted);
                let late = pending.deadline.is_some_and(|d| now > d);
                if late {
                    metrics.counter_inc("serve.late_completions");
                }
                metrics.observe("serve.latency_ms", latency.as_secs_f64() * 1e3);
                let policy = shared.ladder.apply(pending.policy, level);
                let outcome = ServeOutcome::Completed(Completed {
                    product: healed.outcome.product,
                    policy,
                    attempts: healed.attempts,
                    retries: pending.retries,
                    late,
                    latency,
                    replica: idx,
                });
                shared.resolve(wave.take(i), outcome);
            }
            Err(err) => {
                let attempts = match err {
                    AbftError::Unrecovered { attempts, .. } => attempts,
                    // Shapes are validated at admission; anything else
                    // here is an engine invariant violation.
                    _ => {
                        metrics.counter_inc("serve.internal_errors");
                        0
                    }
                };
                let tripped = replica.breaker.record_unrecovered();
                if tripped {
                    metrics.counter_inc("serve.breaker_trips");
                }
                let mut pending = wave.take(i);
                pending.a = request.a;
                pending.b = request.b;
                if pending.retries < shared.cfg.max_retries {
                    pending.retries += 1;
                    let backoff = shared.cfg.retry_backoff * 2u32.pow(pending.retries - 1);
                    pending.not_before = Some(now + backoff);
                    metrics.counter_inc("serve.retries");
                    shared.queue.requeue(pending);
                } else {
                    let outcome =
                        ServeOutcome::Unrecovered { attempts, retries: pending.retries };
                    shared.resolve(pending, outcome);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aabft_core::AAbftConfig;

    fn pending(n: usize) -> Pending {
        Pending {
            a: Matrix::from_fn(n, n, |i, j| (i + j) as f64),
            b: Matrix::from_fn(n, n, |i, j| (i * j + 1) as f64),
            policy: ProtectionPolicy::AAbft,
            class: DeadlineClass::Unbounded,
            slot: Arc::new(Slot::default()),
            submitted: Instant::now(),
            deadline: None,
            not_before: None,
            retries: 0,
        }
    }

    #[test]
    fn unwinding_dispatcher_resolves_every_open_request_of_its_wave() {
        let gemm = AAbftGemm::new(AAbftConfig::builder().block_size(4).build().unwrap());
        let server =
            Server::start(ServeConfig::default(), gemm, ReplicaSpec::defaults(1), Obs::new_shared())
                .expect("valid test config");
        let shared = &*server.shared;
        let batch: Vec<Pending> = (0..3).map(|_| pending(8)).collect();
        let tickets: Vec<Ticket> = batch.iter().map(|p| Ticket { slot: p.slot.clone() }).collect();
        shared.accepted.fetch_add(batch.len() as u64, Ordering::Relaxed);

        // The dispatcher resolves the wave's first request, then dies.
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut wave = OpenWave::new(shared, batch);
            let first = wave.take(0);
            let outcome =
                ServeOutcome::DeadlineMissed { class: first.class, waited: Duration::ZERO };
            shared.resolve(first, outcome);
            panic!("dispatcher fault mid-wave");
        }));
        assert!(died.is_err());

        let outcomes: Vec<&str> = tickets
            .iter()
            .map(|t| {
                let outcome = t.try_wait().expect("ticket resolved").label();
                assert!(t.try_wait().is_none(), "a ticket resolves exactly once");
                outcome
            })
            .collect();
        assert_eq!(outcomes, ["deadline-missed", "unrecovered", "unrecovered"]);
        assert_eq!(server.accounting(), (3, 3));
        assert_eq!(shared.obs.metrics.counter("serve.unrecovered"), 2);
        server.shutdown();
    }
}
