//! Open-loop load-and-chaos generator: drives seeded traffic (and
//! optional fault storms) at a ladder of offered rates through a fresh
//! [`Server`] per level, then judges every released product against a
//! host-computed reference.
//!
//! The generator is open-loop: submissions are paced by the offered
//! rate alone, never by completions, so overload genuinely overloads —
//! the bounded queue sheds and deadline classes miss, exactly the
//! behaviour under test. Latency is measured server-side (submit →
//! resolve) and recorded in each outcome, so the generator can collect
//! tickets after the fact without distorting the measurement.
//!
//! SDC judgment reuses the campaign classifier: a released product
//! whose deviation from the host reference exceeds the `ω·σ` bound
//! ([`GroundTruth::Critical`]) is a silent data corruption. Verified
//! completions passed the checksum check, so any `Critical` among them
//! is the exact failure A-ABFT exists to prevent — the zero-SDC gate.

use std::sync::Arc;
use std::time::{Duration, Instant};

use aabft_core::batch::ProtectionPolicy;
use aabft_core::{AAbftConfig, AAbftGemm};
use aabft_faults::campaign::classify_product;
use aabft_faults::GroundTruth;
use aabft_matrix::gen::InputClass;
use aabft_matrix::Matrix;
use aabft_numerics::RoundingModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use aabft_obs::json::JsonObject;
use aabft_obs::Obs;

use crate::chaos::{Storm, StormConfig};
use crate::ladder::LadderLevel;
use crate::placement::ReplicaSpec;
use crate::request::{DeadlineClass, Rejected, ServeOutcome, ServeRequest};
use crate::server::{ServeConfig, Server};

/// Tenant-policy mix cycled across submissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantMix {
    /// Every tenant at least verifies (A-ABFT or self-healing). The mix
    /// for zero-SDC-gated chaos runs: every released product is
    /// checksum-checked, whatever the ladder does.
    Verified,
    /// Includes unprotected tenants (the economic baseline the ladder
    /// exists to upgrade during storms). A storm fault can strike an
    /// unprotected request before the ladder reacts, so this mix makes
    /// no zero-SDC promise — the report simply counts what happened.
    Mixed,
}

impl std::str::FromStr for TenantMix {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "verified" => Ok(TenantMix::Verified),
            "mixed" => Ok(TenantMix::Mixed),
            other => Err(format!("unknown tenant mix {other:?} (verified|mixed)")),
        }
    }
}

impl TenantMix {
    /// The policy of submission `t` (deterministic 4-cycle).
    fn policy(self, t: usize) -> ProtectionPolicy {
        match (self, t % 4) {
            (TenantMix::Mixed, 1) => ProtectionPolicy::Unprotected,
            (_, 2) => ProtectionPolicy::SelfHealing { budget: 2 },
            _ => ProtectionPolicy::AAbft,
        }
    }
}

/// The deadline class of submission `t`: every fourth request is
/// interactive, the rest batch.
fn class_of(t: usize) -> DeadlineClass {
    if t % 4 == 3 {
        DeadlineClass::Interactive
    } else {
        DeadlineClass::Batch
    }
}

/// Bench shape: one run = one level per offered rate.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Square operand size.
    pub n: usize,
    /// The replica fleet each level's server runs on.
    pub replicas: Vec<ReplicaSpec>,
    /// Offered rates (requests/second); `0` = submit as fast as
    /// possible (deterministic overload).
    pub rates: Vec<f64>,
    /// Submissions per level (before the cooldown trickle).
    pub requests: usize,
    /// Arm a seeded fault storm over the middle third of each level.
    pub storm: bool,
    /// During the storm window, strike on every `storm_every`-th
    /// submission.
    pub storm_every: usize,
    /// Extra post-storm submissions that feed the ladder's quiet window
    /// (only used when `storm` is set).
    pub cooldown: usize,
    /// Tenant-policy mix.
    pub mix: TenantMix,
    /// Storm seed.
    pub seed: u64,
    /// Server tuning.
    pub serve: ServeConfig,
    /// Protected-GEMM configuration shared by the engine, the storm
    /// calibration and the SDC classifier.
    pub config: AAbftConfig,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            n: 48,
            replicas: ReplicaSpec::defaults(2),
            rates: vec![200.0, 0.0],
            requests: 160,
            storm: false,
            storm_every: 3,
            cooldown: 96,
            mix: TenantMix::Verified,
            seed: 7,
            serve: ServeConfig::default(),
            config: AAbftConfig::default(),
        }
    }
}

/// Everything one level reports into `BENCH_serve.json`.
#[derive(Debug)]
pub struct LevelReport {
    /// Offered rate (0 = open blast).
    pub rate: f64,
    /// Submissions attempted (including the cooldown trickle).
    pub submitted: u64,
    /// Accepted into the queue.
    pub accepted: u64,
    /// Shed at admission (`Rejected::QueueFull`).
    pub shed: u64,
    /// Completed (product released).
    pub completed: u64,
    /// Completions that arrived after their deadline.
    pub late: u64,
    /// Cancelled in queue at deadline.
    pub deadline_missed: u64,
    /// Terminal heal-budget exhaustions.
    pub unrecovered: u64,
    /// Whole-request retries performed.
    pub retries: u64,
    /// Released products judged critically wrong — silent data
    /// corruptions.
    pub sdc: u64,
    /// Faults the storm armed on replica devices.
    pub strikes: u64,
    /// Median submit-to-resolve latency of completions, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile latency, milliseconds.
    pub p99_ms: f64,
    /// Completions per wall-clock second, submission start to drain.
    pub gemms_per_sec: f64,
    /// Level wall time, seconds.
    pub wall_s: f64,
    /// Ladder escalations during the level.
    pub escalations: u64,
    /// Ladder de-escalations during the level.
    pub deescalations: u64,
    /// Strongest protection floor reached.
    pub ladder_peak: LadderLevel,
    /// Floor at level end (after cooldown).
    pub ladder_end: LadderLevel,
    /// Peak `abft.fault_rate_ewma` observed by the generator.
    pub ewma_peak: f64,
    /// Circuit-breaker trips across replicas.
    pub breaker_trips: u64,
}

impl LevelReport {
    /// Flat JSON record (one element of the `BENCH_serve.json` array),
    /// tagged `kind: "load"` so mixed-record files filter cleanly.
    pub fn to_json(&self) -> JsonObject {
        JsonObject::new()
            .str("kind", "load")
            .num("rate", self.rate)
            .int("submitted", self.submitted)
            .int("accepted", self.accepted)
            .int("shed", self.shed)
            .int("completed", self.completed)
            .int("late", self.late)
            .int("deadline_missed", self.deadline_missed)
            .int("unrecovered", self.unrecovered)
            .int("retries", self.retries)
            .int("sdc", self.sdc)
            .int("strikes", self.strikes)
            .num("p50_ms", self.p50_ms)
            .num("p99_ms", self.p99_ms)
            .num("gemms_per_sec", self.gemms_per_sec)
            .num("wall_s", self.wall_s)
            .int("escalations", self.escalations)
            .int("deescalations", self.deescalations)
            .str("ladder_peak", &format!("{:?}", self.ladder_peak))
            .str("ladder_end", &format!("{:?}", self.ladder_end))
            .num("ewma_peak", self.ewma_peak)
            .int("breaker_trips", self.breaker_trips)
    }
}

/// Seeded input pool: a few distinct operand pairs with host-computed
/// references, reused round-robin so SDC judgment stays O(pool), not
/// O(traffic). Operands are the paper's `[-1, 1]` uniform class —
/// structured lattice inputs (e.g. `sin(i·c)` grids) can sit above the
/// probabilistic `ω·σ` bound and fail the check with no fault present,
/// which would read as a phantom fault storm here.
struct InputPool {
    pairs: Vec<(Matrix<f64>, Matrix<f64>, Matrix<f64>)>,
}

impl InputPool {
    fn new(n: usize, count: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let pairs = (0..count)
            .map(|_| {
                let a = InputClass::UNIT.generate(n, &mut rng);
                let b = InputClass::UNIT.generate(n, &mut rng);
                let clean = aabft_matrix::gemm::multiply(&a, &b);
                (a, b, clean)
            })
            .collect();
        InputPool { pairs }
    }

    fn get(&self, t: usize) -> &(Matrix<f64>, Matrix<f64>, Matrix<f64>) {
        &self.pairs[t % self.pairs.len()]
    }
}

/// Exact percentile of a sorted latency vector (nearest-rank).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Runs every configured load level and returns one report per level.
/// All levels share `obs` (spans and metrics accumulate; the report
/// diffs counters per level).
pub fn run_bench(cfg: &BenchConfig, obs: &Arc<Obs>) -> Vec<LevelReport> {
    let pool = InputPool::new(cfg.n, 4, cfg.seed);
    cfg.rates.iter().map(|&rate| run_level(cfg, rate, &cfg.config, &pool, obs)).collect()
}

fn run_level(
    cfg: &BenchConfig,
    rate: f64,
    gemm_config: &AAbftConfig,
    pool: &InputPool,
    obs: &Arc<Obs>,
) -> LevelReport {
    let _level = aabft_obs::span!(obs, "serve", "bench_level", "rate" => rate, "n" => cfg.n);
    let metrics = &obs.metrics;
    let esc0 = metrics.counter("serve.escalations");
    let dees0 = metrics.counter("serve.deescalations");
    let retries0 = metrics.counter("serve.retries");
    let late0 = metrics.counter("serve.late_completions");

    let gemm = AAbftGemm::new(*gemm_config);
    let server =
        Server::start(cfg.serve, AAbftGemm::new(*gemm_config), cfg.replicas.clone(), obs.clone())
        .expect("bench ServeConfig is valid");
    let mut storm = cfg.storm.then(|| {
        let storm_cfg = StormConfig { seed: cfg.seed, ..StormConfig::default() };
        let fleet: Vec<_> = cfg.replicas.iter().map(|r| r.device).collect();
        Storm::calibrate(&storm_cfg, &gemm, cfg.n, &fleet)
    });

    let period = (rate > 0.0).then(|| Duration::from_secs_f64(1.0 / rate));
    let storm_window = cfg.requests / 3..2 * cfg.requests / 3;
    let total = cfg.requests + if cfg.storm { cfg.cooldown } else { 0 };

    let start = Instant::now();
    let mut tickets = Vec::with_capacity(total);
    let mut submitted = 0u64;
    let mut shed = 0u64;
    let mut ewma_peak = 0.0f64;
    let mut cooled = false;
    for t in 0..total {
        if cfg.storm && t >= cfg.requests && !cooled {
            // Cooldown boundary: clear unfired leftovers so the tail of
            // the storm does not bleed into the quiet window.
            for r in 0..server.replicas() {
                server.device(r).disarm_count();
            }
            cooled = true;
        }
        if let Some(storm) = storm.as_mut() {
            if storm_window.contains(&t) && t % cfg.storm_every == 0 {
                storm.strike(server.device(t % server.replicas()));
            }
        }
        let (a, b, _) = pool.get(t);
        let req = ServeRequest::new(a.clone(), b.clone())
            .with_policy(cfg.mix.policy(t))
            .with_class(class_of(t));
        submitted += 1;
        match server.submit(req) {
            Ok(ticket) => tickets.push((t, ticket)),
            Err(Rejected::QueueFull { .. }) => shed += 1,
            Err(rej) => panic!("unexpected rejection: {rej}"),
        }
        if let Some(e) = metrics.gauge("abft.fault_rate_ewma") {
            ewma_peak = ewma_peak.max(e);
        }
        if let Some(p) = period {
            std::thread::sleep(p);
        } else if cfg.storm && t >= storm_window.start {
            // Even in blast mode, the storm and cooldown phases are paced:
            // strikes must land on live waves (a microsecond blast would
            // arm every fault after the queue already drained), and the
            // ladder needs distinct quiet waves to step back down.
            std::thread::sleep(cfg.serve.park);
        }
    }

    let accepted = tickets.len() as u64;
    let ladder_peak = server.ladder().peak();
    // Drain: every accepted ticket resolves before shutdown returns.
    let breakers: u64 = (0..server.replicas()).map(|i| u64::from(server.breaker_trips(i))).sum();
    let strikes = storm.as_ref().map_or(0, Storm::strikes);
    let ladder_end = server.ladder().level();
    server.shutdown();
    let wall = start.elapsed();

    let model = RoundingModel::binary64();
    let bs = gemm_config.block_size;
    let mut completed = 0u64;
    let mut deadline_missed = 0u64;
    let mut unrecovered = 0u64;
    let mut sdc = 0u64;
    let mut latencies_ms = Vec::with_capacity(tickets.len());
    for (t, ticket) in tickets {
        match ticket.wait() {
            ServeOutcome::Completed(c) => {
                completed += 1;
                latencies_ms.push(c.latency.as_secs_f64() * 1e3);
                let (a, b, clean) = pool.get(t);
                let repair = c.healed().then_some(bs);
                let (truth, _) = classify_product(
                    &c.product,
                    clean,
                    a,
                    b,
                    &model,
                    gemm_config.omega,
                    repair,
                );
                if truth == GroundTruth::Critical {
                    sdc += 1;
                    metrics.counter_inc("serve.sdc");
                }
            }
            ServeOutcome::DeadlineMissed { .. } => deadline_missed += 1,
            ServeOutcome::Unrecovered { .. } => unrecovered += 1,
        }
    }
    latencies_ms.sort_by(f64::total_cmp);

    LevelReport {
        rate,
        submitted,
        accepted,
        shed,
        completed,
        late: metrics.counter("serve.late_completions") - late0,
        deadline_missed,
        unrecovered,
        retries: metrics.counter("serve.retries") - retries0,
        sdc,
        strikes,
        p50_ms: percentile(&latencies_ms, 0.50),
        p99_ms: percentile(&latencies_ms, 0.99),
        gemms_per_sec: completed as f64 / wall.as_secs_f64(),
        wall_s: wall.as_secs_f64(),
        escalations: metrics.counter("serve.escalations") - esc0,
        deescalations: metrics.counter("serve.deescalations") - dees0,
        ladder_peak,
        ladder_end,
        ewma_peak,
        breaker_trips: breakers,
    }
}
