//! The server: per-replica dispatchers pulling shape-sharded waves from
//! the admission plane through the batch engine, with retry, escalation
//! and circuit breaking around every wave.
//!
//! One OS thread per replica. Each iteration a dispatcher:
//!
//! 1. asks its breaker for admission (full wave / probe / quarantined);
//!    a quarantined replica does not pull, so its peers take the work;
//! 2. pulls the wave led by the oldest ready entry from the
//!    [`queue`](crate::queue), sweeping deadline-expired entries, which
//!    it resolves as [`ServeOutcome::DeadlineMissed`];
//! 3. ticks the escalation ladder and applies the resulting protection
//!    floor to every request in the wave;
//! 4. runs the wave through [`BatchGemm::execute_verified`] on its own
//!    device (plan cache and buffer pools shared across replicas
//!    through the one engine);
//! 5. resolves each result: completions resolve their ticket,
//!    `Unrecovered` results retry with exponential backoff until
//!    [`ServeConfig::max_retries`], then resolve as
//!    [`ServeOutcome::Unrecovered`] and feed the breaker.
//!
//! Shutdown closes the queue; dispatchers drain the remainder (so every
//! accepted ticket resolves) and exit. A dispatcher that panics resolves
//! its own wave as `Unrecovered`; if it was the last one running, it also
//! closes admission and resolves everything still queued the same way.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
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
    device: Device,
    breaker: CircuitBreaker,
    /// Cumulative wall time spent executing waves, microseconds.
    busy_us: AtomicU64,
}

struct Shared {
    cfg: ServeConfig,
    queue: ShardedQueue,
    ladder: EscalationLadder,
    engine: BatchGemm,
    replicas: Vec<Replica>,
    obs: Arc<Obs>,
    accepted: AtomicU64,
    resolved: AtomicU64,
    /// Dispatchers that have not exited yet.
    live: AtomicUsize,
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

    /// Refreshes the queue gauges: total and per-shard depth.
    fn refresh_gauges(&self) {
        let metrics = &self.obs.metrics;
        metrics.gauge_set("serve.queue_depth", self.queue.len() as f64);
        let depths = self.queue.shard_depths();
        metrics.gauge_set("serve.shards", depths.len() as f64);
        for d in depths {
            let (m, n, q) = d.class;
            metrics.gauge_set(&format!("serve.shard.{m}x{n}x{q}.depth"), d.depth as f64);
        }
    }

    /// Validates `cfg` and the replica specs and builds one device per
    /// spec, every device pointed at `obs`. No dispatcher runs yet.
    fn new(
        cfg: ServeConfig,
        gemm: AAbftGemm,
        replicas: Vec<ReplicaSpec>,
        obs: Arc<Obs>,
    ) -> Result<Shared, ServeError> {
        validate(&cfg, &replicas)?;
        let replicas: Vec<Replica> = replicas
            .into_iter()
            .map(|spec| {
                let mut device = spec.build_device();
                device.set_obs(obs.clone());
                Replica {
                    device,
                    breaker: CircuitBreaker::new(cfg.breaker),
                    busy_us: AtomicU64::new(0),
                }
            })
            .collect();
        Ok(Shared {
            cfg,
            queue: ShardedQueue::new(cfg.queue_capacity),
            ladder: EscalationLadder::new(cfg.ladder),
            engine: BatchGemm::new(gemm).with_streams(cfg.max_wave),
            live: AtomicUsize::new(replicas.len()),
            replicas,
            obs,
            accepted: AtomicU64::new(0),
            resolved: AtomicU64::new(0),
        })
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
        let shared = Arc::new(Shared::new(cfg, gemm, replicas, obs)?);
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

    /// Cumulative wall time replica `idx` has spent executing waves.
    pub fn replica_busy(&self, idx: usize) -> Duration {
        Duration::from_micros(self.shared.replicas[idx].busy_us.load(Ordering::Relaxed))
    }

    /// Always 0: under pull no wave is stolen. Nothing in the server
    /// reads it; it stays for `perfbench`'s `serve.steals` metric until a
    /// change to the benchmark retires it.
    pub fn steals(&self) -> u64 {
        0
    }

    /// The benchmark-facing calibration residue (all zero, see
    /// [`Placement`]).
    pub fn placement(&self) -> Placement {
        Placement
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
    /// [`ServeOutcome::Unrecovered`], and so has the whole queue if no
    /// other dispatcher was left, so no ticket is stranded by it.
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
    let _live = LiveDispatcher(shared);
    while dispatch(shared, idx) {}
}

/// One dispatcher iteration for replica `idx`; `false` once the queue is
/// closed and drained.
fn dispatch(shared: &Shared, idx: usize) -> bool {
    let replica = &shared.replicas[idx];
    let metrics = &shared.obs.metrics;
    let max = match replica.breaker.admit() {
        Admission::Full => shared.cfg.max_wave,
        Admission::Probe => 1,
        Admission::Quarantined => {
            metrics.gauge_set(&format!("serve.replica.{idx}.quarantined"), 1.0);
            if shared.queue.is_drained() {
                return false;
            }
            std::thread::sleep(shared.cfg.park);
            return true;
        }
    };
    metrics.gauge_set(&format!("serve.replica.{idx}.quarantined"), 0.0);
    match shared.queue.take_wave(max, shared.cfg.park) {
        Taken::Drained => return false,
        Taken::Empty { expired } => shared.resolve_expired(expired),
        Taken::Wave { batch, expired } => {
            shared.resolve_expired(expired);
            run_wave(shared, idx, batch);
        }
    }
    true
}

/// Counts one running dispatcher. The last one to exit closes admission
/// and resolves whatever is still queued as [`ServeOutcome::Unrecovered`].
/// After a normal drain that is nothing; after the last dispatcher
/// panics, it is every queued ticket, which would otherwise wait forever.
struct LiveDispatcher<'a>(&'a Shared);

impl Drop for LiveDispatcher<'_> {
    fn drop(&mut self) {
        let shared = self.0;
        if shared.live.fetch_sub(1, Ordering::AcqRel) == 1 {
            for pending in shared.queue.close_and_take_all() {
                let outcome = ServeOutcome::Unrecovered { attempts: 0, retries: pending.retries };
                shared.resolve(pending, outcome);
            }
        }
    }
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

fn run_wave(shared: &Shared, idx: usize, batch: Vec<Pending>) {
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
        "m" => m as u64,
        "n" => n as u64,
        "q" => q as u64,
    );
    metrics.counter_inc("serve.waves");
    metrics.counter_inc(&format!("serve.replica.{idx}.waves"));
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
    let started = Instant::now();
    let results = shared.engine.execute_verified_slice(&replica.device, &requests);
    let busy = started.elapsed();
    replica.busy_us.fetch_add(busy.as_micros() as u64, Ordering::Relaxed);
    metrics.gauge_set(
        &format!("serve.replica.{idx}.busy_us"),
        replica.busy_us.load(Ordering::Relaxed) as f64,
    );
    metrics.gauge_set(&format!("serve.replica.{idx}.busy"), 0.0);
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

    /// A server over `fleet` with no dispatcher thread: the test drives
    /// each replica's dispatcher by hand, so nothing depends on timing.
    fn idle_server(fleet: Vec<ReplicaSpec>) -> Server {
        let gemm = AAbftGemm::new(AAbftConfig::builder().block_size(4).build().unwrap());
        let shared = Shared::new(ServeConfig::default(), gemm, fleet, Obs::new_shared())
            .expect("valid test config");
        Server { shared: Arc::new(shared), workers: Vec::new() }
    }

    fn request(n: usize) -> ServeRequest {
        ServeRequest::new(
            Matrix::from_fn(n, n, |i, j| (i + j) as f64),
            Matrix::from_fn(n, n, |i, j| (i * j + 1) as f64),
        )
        .with_class(DeadlineClass::Unbounded)
    }

    /// Replica `idx` pulls once; returns the replica that completed the
    /// ticket.
    fn served_by(server: &Server, idx: usize, ticket: &Ticket) -> usize {
        assert!(dispatch(&server.shared, idx), "the queue is open");
        match ticket.try_wait().expect("the one pull resolved the ticket") {
            ServeOutcome::Completed(c) => c.replica,
            other => panic!("a fault-free request completes, got {other:?}"),
        }
    }

    #[test]
    fn a_cold_twin_replica_takes_a_fresh_wave() {
        // Twin replicas, neither has run a wave. Replica 1 asks first and
        // takes the wave: there is no price for a tie to break.
        let server = idle_server(ReplicaSpec::defaults(2));
        let ticket = server.submit(request(8)).expect("admitted");
        assert_eq!(served_by(&server, 1, &ticket), 1);
        server.shutdown();
    }

    #[test]
    fn the_scalar_replica_takes_a_wave_when_it_asks() {
        let fleet = vec!["26:packed".parse().unwrap(), "6:scalar".parse().unwrap()];
        let server = idle_server(fleet);
        let ticket = server.submit(request(64)).expect("admitted");
        assert_eq!(served_by(&server, 1, &ticket), 1);
        let ticket = server.submit(request(64)).expect("admitted");
        assert_eq!(served_by(&server, 0, &ticket), 0);
        server.shutdown();
    }

    #[test]
    fn unwinding_dispatcher_resolves_every_open_request_of_its_wave() {
        // One replica, five queued tickets. Its dispatcher takes a
        // two-request wave, resolves the first request, then dies: the
        // wave's other request and the three still queued must all
        // resolve, because no dispatcher is left to drain the queue.
        let server = idle_server(ReplicaSpec::defaults(1));
        let shared = &*server.shared;
        let tickets: Vec<Ticket> =
            (0..5).map(|_| server.submit(request(8)).expect("admitted")).collect();

        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _live = LiveDispatcher(shared);
            let Taken::Wave { batch, .. } = shared.queue.take_wave(2, Duration::ZERO) else {
                panic!("five tickets are queued");
            };
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
        let unrecovered = ["unrecovered"; 4];
        assert_eq!(outcomes[0], "deadline-missed");
        assert_eq!(outcomes[1..], unrecovered, "the wave's other request and the queued three");
        assert_eq!(server.accounting(), (5, 5));
        assert_eq!(shared.obs.metrics.counter("serve.unrecovered"), 4);
        assert_eq!(server.queue_len(), 0);
        assert!(
            matches!(server.submit(request(8)), Err(Rejected::ShuttingDown)),
            "with no dispatcher left, admission is closed"
        );
        server.shutdown();
    }
}
