//! The sharded admission plane: bounded admission, deadline sweeping,
//! per-shape-class shards, and wave extraction under the one placement
//! rule — calibrated costed placement with work stealing.
//!
//! Admitted requests land in *shards* keyed by their rounded shape class
//! ([`shape_class`]), so the batch engine's plan/pack caches stay hot
//! per shard, and each dispatcher asks the queue (`take_wave`) for the
//! shard it is *best suited for*:
//!
//! * **Own take.** A dispatcher takes a shard when it is the argmin of
//!   `inflight + wave_cost` over live replicas, where wave costs are
//!   *calibrated*: each replica's scaled [`PerfModel`] estimate blended
//!   with the measured/modelled EWMA for that shape class (see
//!   [`Placement::calibrated_wave_costs`]).
//! * **Steal.** Otherwise an idle, warm dispatcher drains the heaviest
//!   *eligible* shard instead of parking. A shard is eligible when its
//!   backlog on its best replica outlasts the thief's own calibrated
//!   wave cost, **or** when its observed queueing delay — the per-class
//!   EWMA of admit→dispatch age — exceeds that cost: if work
//!   demonstrably waits longer than the thief needs to run it, the
//!   thief runs it, whatever the model claims about the backlog.
//!
//! The queue also maintains the observed-delay signal itself: every
//! dispatched entry contributes its admit→dispatch age to its shard
//! class's EWMA, which the [`Server`] exports as
//! `serve.shard.{class}.queue_delay_us` gauges.
//!
//! Built on `std::sync::{Mutex, Condvar}` (the parking_lot shim carries
//! no condvar); one mutex guards all shards, which keeps placement
//! decisions atomic with extraction. A closed queue drains placement-free:
//! any dispatcher takes the oldest ready wave, so no entry can strand
//! behind a placement decision during shutdown.
//!
//! [`Placement`]: crate::placement::Placement
//! [`Server`]: crate::server::Server
//! [`PerfModel`]: aabft_gpu_sim::perf::PerfModel

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use aabft_core::batch::ProtectionPolicy;
use aabft_matrix::Matrix;

use crate::placement::{shape_class, Placement};
use crate::request::{DeadlineClass, Rejected, Slot};

/// Coalescing key: requests of equal `(m, n, q)` share a cached plan and
/// pooled buffers in the batch engine, so a wave sticks to one key.
pub(crate) type ShapeKey = (usize, usize, usize);

/// EWMA smoothing for the per-class observed queueing delay; matched to
/// the calibration plane's pace so the steal signal and the cost signal
/// adapt on the same timescale.
const DELAY_ALPHA: f64 = 0.25;

/// Hysteresis on the observed-delay steal: the thief must beat the
/// class's observed wait by this factor, not merely undercut it. A
/// steal moves a whole wave off the replica the cost model still thinks
/// is best, and the observed-delay signal is the noisiest input the
/// scheduler has (a dispatch-age EWMA on a shared host), so it should
/// only override the model when the gap is clear — EWMA noise alone
/// must not open it.
const STEAL_MARGIN: f64 = 2.0;

/// Cycle-efficiency bound on any steal: the thief's host-cycle cost for
/// the wave (calibrated device cost × SM width) may exceed the best
/// replica's by at most this factor. Stealing buys latency with *spare*
/// capacity; a thief that would burn several times the silicon — e.g. a
/// scalar-engine replica grabbing work a packed-engine peer will drain
/// shortly — converts queueing delay into fleet-wide waste, slowing
/// every other tenant to rescue one.
const STEAL_EFFICIENCY: f64 = 1.5;

/// One admitted request waiting for dispatch.
#[derive(Debug)]
pub(crate) struct Pending {
    pub a: Matrix<f64>,
    pub b: Matrix<f64>,
    /// The tenant's requested policy (ladder floor OR-ed in at dispatch).
    pub policy: ProtectionPolicy,
    pub class: DeadlineClass,
    pub slot: Arc<Slot>,
    pub submitted: Instant,
    /// Absolute cancellation time (`None` = unbounded).
    pub deadline: Option<Instant>,
    /// Earliest dispatch time — retry backoff parks the entry without
    /// blocking the queue behind it.
    pub not_before: Option<Instant>,
    /// Whole-request retries already performed.
    pub retries: u32,
}

impl Pending {
    pub(crate) fn shape_key(&self) -> ShapeKey {
        (self.a.rows(), self.a.cols(), self.b.cols())
    }

    fn ready(&self, now: Instant) -> bool {
        self.not_before.is_none_or(|t| t <= now)
    }

    fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| d <= now)
    }
}

/// What a dispatcher got back from one [`ShardedQueue::take_wave`] call.
pub(crate) enum Taken {
    /// A coalesced wave (nonempty) plus any entries whose deadline
    /// expired during the sweep — the caller resolves those as missed.
    Wave {
        batch: Vec<Pending>,
        expired: Vec<Pending>,
        /// Calibrated cost of this wave on the taking replica; charged
        /// to its inflight account until [`ShardedQueue::finish`].
        cost: f64,
        /// Pure analytic-model cost of this wave on the taking replica —
        /// the denominator for the measured/modelled calibration sample
        /// the server records once the wave completes.
        modelled: f64,
        /// `true` when the wave was stolen (the taker was not the
        /// modelled best replica for its shard).
        stolen: bool,
    },
    /// Nothing dispatchable for this replica right now (park elapsed, or
    /// only backed-off / other-replica entries remain); expired entries
    /// are still swept and returned.
    Empty { expired: Vec<Pending> },
    /// The queue is closed and fully drained: the dispatcher exits.
    Drained,
}

/// One shape-class shard.
#[derive(Debug)]
struct Shard {
    class: ShapeKey,
    items: VecDeque<Pending>,
}

#[derive(Debug)]
struct Inner {
    shards: Vec<Shard>,
    /// Total queued entries across shards (capacity accounting).
    len: usize,
    closed: bool,
    /// Per-replica modelled cost of waves currently executing.
    inflight: Vec<f64>,
    /// Replicas currently accepting work (breaker-closed or probing).
    alive: Vec<bool>,
    /// Waves stolen so far (telemetry mirror).
    steals: u64,
    /// Observed queueing delay per shard class: EWMA of admit→dispatch
    /// age in seconds, fed at every wave extraction.
    delay: HashMap<ShapeKey, f64>,
}

impl Inner {
    fn shard_mut(&mut self, class: ShapeKey) -> &mut Shard {
        if let Some(i) = self.shards.iter().position(|s| s.class == class) {
            return &mut self.shards[i];
        }
        self.shards.push(Shard { class, items: VecDeque::new() });
        self.shards.last_mut().expect("just pushed")
    }

    /// Live replicas to cost against; falls back to *all* replicas when
    /// every breaker is open so placement stays total.
    fn live(&self) -> Vec<usize> {
        let live: Vec<usize> =
            (0..self.alive.len()).filter(|&r| self.alive[r]).collect();
        if live.is_empty() {
            (0..self.alive.len()).collect()
        } else {
            live
        }
    }
}

/// Bounded, sharded MPMC submission queue.
#[derive(Debug)]
pub(crate) struct ShardedQueue {
    inner: Mutex<Inner>,
    nonempty: Condvar,
    capacity: usize,
    placement: Arc<Placement>,
}

/// Per-shard depth snapshot for gauges.
pub(crate) struct ShardDepth {
    pub class: ShapeKey,
    pub depth: usize,
}

impl ShardedQueue {
    pub(crate) fn new(capacity: usize, placement: Arc<Placement>) -> Self {
        let replicas = placement.replicas();
        let inner = Inner {
            shards: Vec::new(),
            len: 0,
            closed: false,
            inflight: vec![0.0; replicas],
            alive: vec![true; replicas],
            steals: 0,
            delay: HashMap::new(),
        };
        ShardedQueue { inner: Mutex::new(inner), nonempty: Condvar::new(), capacity, placement }
    }

    pub(crate) fn len(&self) -> usize {
        self.inner.lock().expect("queue lock").len
    }

    /// Depth of every shard (placement-balance gauges).
    pub(crate) fn shard_depths(&self) -> Vec<ShardDepth> {
        let inner = self.inner.lock().expect("queue lock");
        inner
            .shards
            .iter()
            .map(|s| ShardDepth { class: s.class, depth: s.items.len() })
            .collect()
    }

    /// Admits `p` or sheds it: full queue → [`Rejected::QueueFull`],
    /// closed queue → [`Rejected::ShuttingDown`]. Files the entry in its
    /// shape-class shard.
    pub(crate) fn submit(&self, p: Pending) -> Result<(), Rejected> {
        let mut inner = self.inner.lock().expect("queue lock");
        if inner.closed {
            return Err(Rejected::ShuttingDown);
        }
        if inner.len >= self.capacity {
            return Err(Rejected::QueueFull { capacity: self.capacity });
        }
        let class = shape_class(p.shape_key());
        inner.shard_mut(class).items.push_back(p);
        inner.len += 1;
        drop(inner);
        self.nonempty.notify_one();
        Ok(())
    }

    /// Re-enqueues a retrying entry at the front of its shard. Bypasses
    /// the capacity bound: the entry already holds an outstanding
    /// ticket, and dropping it here would break the exactly-one-outcome
    /// guarantee.
    pub(crate) fn requeue(&self, p: Pending) {
        let mut inner = self.inner.lock().expect("queue lock");
        let class = shape_class(p.shape_key());
        inner.shard_mut(class).items.push_front(p);
        inner.len += 1;
        drop(inner);
        self.nonempty.notify_one();
    }

    /// Closes admission; dispatchers drain the remainder (placement-free)
    /// and then see [`Taken::Drained`].
    pub(crate) fn close(&self) {
        self.inner.lock().expect("queue lock").closed = true;
        self.nonempty.notify_all();
    }

    pub(crate) fn is_drained(&self) -> bool {
        let inner = self.inner.lock().expect("queue lock");
        inner.closed && inner.len == 0
    }

    /// Marks a replica (not) accepting work. A quarantined replica's
    /// shard affinity redistributes immediately: the argmin simply stops
    /// considering it. Waking parked dispatchers lets them re-evaluate.
    pub(crate) fn set_alive(&self, replica: usize, alive: bool) {
        let mut inner = self.inner.lock().expect("queue lock");
        if inner.alive[replica] == alive {
            return;
        }
        inner.alive[replica] = alive;
        drop(inner);
        self.nonempty.notify_all();
    }

    /// Credits back a completed wave's modelled cost and wakes parked
    /// dispatchers (the argmin may have shifted).
    pub(crate) fn finish(&self, replica: usize, cost: f64) {
        let mut inner = self.inner.lock().expect("queue lock");
        inner.inflight[replica] = (inner.inflight[replica] - cost).max(0.0);
        drop(inner);
        self.nonempty.notify_all();
    }

    /// Per-replica inflight modelled cost (gauges).
    pub(crate) fn inflight(&self) -> Vec<f64> {
        self.inner.lock().expect("queue lock").inflight.clone()
    }

    /// Waves stolen so far.
    pub(crate) fn steals(&self) -> u64 {
        self.inner.lock().expect("queue lock").steals
    }

    /// Observed queueing delay per shard class (EWMA of admit→dispatch
    /// age, seconds), sorted by class. Gauge surface.
    pub(crate) fn queue_delays(&self) -> Vec<(ShapeKey, f64)> {
        let inner = self.inner.lock().expect("queue lock");
        let mut out: Vec<_> = inner.delay.iter().map(|(&k, &v)| (k, v)).collect();
        out.sort_unstable_by_key(|&(k, _)| k);
        out
    }

    /// Sweeps expired entries, then extracts up to `max` ready entries of
    /// one exact shape from the shard this replica should serve (see
    /// module docs). Parks up to `park` when nothing is dispatchable for
    /// this replica.
    pub(crate) fn take_wave(&self, replica: usize, max: usize, park: Duration) -> Taken {
        debug_assert!(max >= 1);
        let mut inner = self.inner.lock().expect("queue lock");
        let now = Instant::now();

        let mut expired = Vec::new();
        for si in 0..inner.shards.len() {
            let mut i = 0;
            while i < inner.shards[si].items.len() {
                if inner.shards[si].items[i].expired(now) {
                    expired.push(inner.shards[si].items.remove(i).expect("index in bounds"));
                    inner.len -= 1;
                } else {
                    i += 1;
                }
            }
        }

        if inner.closed && inner.len == 0 {
            return if expired.is_empty() { Taken::Drained } else { Taken::Empty { expired } };
        }

        let choice = self.choose_shard(&inner, replica, max, now);
        let Some((si, stolen)) = choice else {
            if expired.is_empty() {
                // Nothing for this replica: park until a submit/requeue/
                // finish/close or timeout. Parking while closed is fine —
                // only backed-off entries remain, and they come ready
                // within a backoff period.
                let (_guard, _timeout) =
                    self.nonempty.wait_timeout(inner, park).expect("queue lock");
            }
            return Taken::Empty { expired };
        };

        // Extract the wave: the shard's oldest ready entry leads; up to
        // `max - 1` ready same-exact-shape followers coalesce behind it.
        let items = &mut inner.shards[si].items;
        let first = items
            .iter()
            .position(|p| p.ready(now))
            .expect("choose_shard found a ready entry");
        let lead = items.remove(first).expect("index in bounds");
        let key = lead.shape_key();
        let mut batch = vec![lead];
        let mut i = first; // entries before `first` were not eligible
        while batch.len() < max && i < items.len() {
            if items[i].ready(now) && items[i].shape_key() == key {
                batch.push(items.remove(i).expect("index in bounds"));
            } else {
                i += 1;
            }
        }
        inner.len -= batch.len();
        // Every dispatched entry is one admit→dispatch sample for its
        // class's observed-delay EWMA (the adaptive steal signal).
        let class = shape_class(key);
        for p in &batch {
            let waited = now.duration_since(p.submitted).as_secs_f64();
            let delay = inner.delay.entry(class).or_insert(waited);
            *delay += DELAY_ALPHA * (waited - *delay);
        }
        let cost = self.placement.calibrated_wave_costs(key, batch.len())[replica];
        let modelled = self.placement.wave_costs(key, batch.len())[replica];
        inner.inflight[replica] += cost;
        if stolen {
            inner.steals += 1;
        }
        Taken::Wave { batch, expired, cost, modelled, stolen }
    }

    /// Picks the shard `replica` should serve, or `None` to park.
    /// Returns `(shard index, stolen)`.
    fn choose_shard(
        &self,
        inner: &Inner,
        replica: usize,
        max: usize,
        now: Instant,
    ) -> Option<(usize, bool)> {
        // Draining: take the oldest ready wave regardless of placement so
        // shutdown cannot strand work behind a placement decision.
        if inner.closed {
            return self.oldest_ready_shard(inner, now).map(|si| (si, false));
        }
        let live = inner.live();
        // A steal is the thief betting its own price against the victim's
        // backlog — a replica that has never produced a measured sample
        // hasn't earned that trust (its spec may be the lie calibration
        // exists to catch), so it serves only waves routed to it until
        // its first measurement lands.
        let may_steal = self.placement.is_warm(replica);
        // Own takes: shards whose calibrated best replica is us.
        let mut own: Option<(usize, Instant)> = None;
        // Steal candidates: (shard, pressure) for shards whose wait —
        // modelled or observed — outlasts our own wave.
        let mut steal: Option<(usize, f64)> = None;
        for (si, shard) in inner.shards.iter().enumerate() {
            let Some(lead) = shard.items.iter().find(|p| p.ready(now)) else {
                continue;
            };
            let key = lead.shape_key();
            let count = shard
                .items
                .iter()
                .filter(|p| p.ready(now) && p.shape_key() == key)
                .count()
                .min(max);
            let costs = self.placement.calibrated_wave_costs(key, count);
            let best = live
                .iter()
                .copied()
                .min_by(|&a, &b| {
                    (inner.inflight[a] + costs[a])
                        .partial_cmp(&(inner.inflight[b] + costs[b]))
                        .expect("costs are finite")
                })
                .expect("at least one live replica");
            if best == replica {
                let oldest = lead.submitted;
                if own.is_none_or(|(_, t)| oldest < t) {
                    own = Some((si, oldest));
                }
            } else if may_steal {
                // Eligible when either signal says waiting beats doing it
                // ourselves: (a) the calibrated backlog, drained by its
                // best replica after that replica's current inflight
                // work, outlasts our own wave; or (b) the shard's
                // *observed* queueing delay already exceeds our
                // calibrated cost. (b) is what fires when the model lies:
                // the backlog looks cheap on a replica that in truth
                // drains it slowly, and only measured wait exposes that.
                let backlog: f64 = shard
                    .items
                    .iter()
                    .map(|p| self.placement.calibrated_request_cost(p.shape_key(), best))
                    .sum();
                let modelled_wait = inner.inflight[best] + backlog;
                // Observed signal: the class's dispatch-age EWMA — what
                // entries like this one *actually* waited recently.
                // Deliberately not the lead entry's current age: under a
                // blast every shard's lead is as old as the run, and that
                // signal would tell every idle replica to steal
                // everything.
                let observed_wait = inner.delay.get(&shard.class).copied().unwrap_or(0.0);
                let ours = costs[replica];
                // The observed comparison crosses unit systems: delays
                // are host wall seconds, prices are calibrated
                // device-seconds. Scale our price to host wall before
                // comparing.
                let ours_host = ours * self.placement.host_scale(replica);
                let best_host = costs[best] * self.placement.host_scale(best);
                let efficient = ours_host <= best_host * STEAL_EFFICIENCY;
                let pressure = modelled_wait.max(observed_wait);
                if efficient
                    && (ours < modelled_wait || ours_host * STEAL_MARGIN < observed_wait)
                    && steal.is_none_or(|(_, heaviest)| pressure > heaviest)
                {
                    steal = Some((si, pressure));
                }
            }
        }
        own.map(|(si, _)| (si, false)).or(steal.map(|(si, _)| (si, true)))
    }

    /// The shard holding the oldest ready entry.
    fn oldest_ready_shard(&self, inner: &Inner, now: Instant) -> Option<usize> {
        let mut found: Option<(usize, Instant)> = None;
        for (si, shard) in inner.shards.iter().enumerate() {
            if let Some(p) = shard.items.iter().find(|p| p.ready(now)) {
                if found.is_none_or(|(_, t)| p.submitted < t) {
                    found = Some((si, p.submitted));
                }
            }
        }
        found.map(|(si, _)| si)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::ReplicaSpec;

    fn pending(n: usize) -> Pending {
        let a = Matrix::from_fn(n, n, |i, j| (i + j) as f64);
        let b = Matrix::from_fn(n, n, |i, j| (i * j + 1) as f64);
        Pending {
            a,
            b,
            policy: ProtectionPolicy::AAbft,
            class: DeadlineClass::Unbounded,
            slot: Arc::new(Slot::default()),
            submitted: Instant::now(),
            deadline: None,
            not_before: None,
            retries: 0,
        }
    }

    fn queue(capacity: usize, specs: Vec<ReplicaSpec>) -> ShardedQueue {
        ShardedQueue::new(capacity, Arc::new(Placement::new(specs)))
    }

    const NO_PARK: Duration = Duration::from_millis(0);

    #[test]
    fn capacity_and_shutdown_shed() {
        let q = queue(2, ReplicaSpec::defaults(1));
        assert!(q.submit(pending(8)).is_ok());
        assert!(q.submit(pending(8)).is_ok());
        assert!(matches!(q.submit(pending(8)), Err(Rejected::QueueFull { capacity: 2 })));
        q.close();
        assert!(matches!(q.submit(pending(8)), Err(Rejected::ShuttingDown)));
        // Requeue bypasses the bound: the entry holds a live ticket.
        q.requeue(pending(8));
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn waves_coalesce_exact_shape_within_a_shard() {
        // 48³ and 64³ share the (64,64,64) shard class but must not mix
        // in one wave (the engine plans per exact shape).
        let q = queue(16, ReplicaSpec::defaults(1));
        q.submit(pending(48)).unwrap();
        q.submit(pending(64)).unwrap();
        q.submit(pending(48)).unwrap();
        assert_eq!(q.shard_depths().len(), 1, "one shared shard class");
        let Taken::Wave { batch, .. } = q.take_wave(0, 8, NO_PARK) else {
            panic!("expected a wave");
        };
        assert_eq!(batch.len(), 2, "the two 48³ entries coalesce past the 64³");
        assert!(batch.iter().all(|p| p.shape_key() == (48, 48, 48)));
    }

    #[test]
    fn costed_placement_keeps_heavy_shapes_off_slow_replicas() {
        let specs: Vec<ReplicaSpec> =
            vec!["26:packed".parse().unwrap(), "4:scalar".parse().unwrap()];
        let q = queue(16, specs);
        q.submit(pending(256)).unwrap();
        // The slow scalar replica is not the argmin: it parks.
        assert!(matches!(q.take_wave(1, 8, NO_PARK), Taken::Empty { .. }));
        let Taken::Wave { batch, cost, stolen, .. } = q.take_wave(0, 8, NO_PARK) else {
            panic!("fast replica takes the heavy shard");
        };
        assert_eq!(batch.len(), 1);
        assert!(cost > 0.0);
        assert!(!stolen);
        assert_eq!(q.inflight()[0], cost);
        q.finish(0, cost);
        assert_eq!(q.inflight()[0], 0.0);
    }

    #[test]
    fn idle_replica_steals_heavy_backlog_from_busy_best() {
        // 512³ puts the modelled cost well past the launch-overhead
        // floor, so the 8-SM thief runs ~2.5× the 26-SM replica's cost:
        // never the argmin while the fast replica holds one wave
        // (2.5s > 2s), yet far cheaper than waiting out an 11-deep
        // backlog.
        let specs: Vec<ReplicaSpec> =
            vec!["26:packed".parse().unwrap(), "8:packed".parse().unwrap()];
        let placement = Arc::new(Placement::new(specs));
        // One neutral sample (measured == modelled, ratio 1) warms the
        // thief without moving its price: a cold replica may not steal.
        placement.record_measured(1, (512, 512, 512), 1.0, 1.0);
        let q = ShardedQueue::new(16, placement);
        for _ in 0..12 {
            q.submit(pending(512)).unwrap();
        }
        // Fast replica takes a wave and is now busy (inflight charged).
        let Taken::Wave { stolen, .. } = q.take_wave(0, 1, NO_PARK) else {
            panic!("fast replica takes first");
        };
        assert!(!stolen);
        // The slower replica is not the argmin, but the backlog on the
        // busy fast replica outlasts its own wave cost: it steals.
        let Taken::Wave { batch, stolen, .. } = q.take_wave(1, 1, NO_PARK) else {
            panic!("idle replica steals the backlog");
        };
        assert!(stolen);
        assert_eq!(batch.len(), 1);
        assert_eq!(q.steals(), 1);
    }

    #[test]
    fn closed_queue_drains_to_a_replica_that_is_not_the_argmin() {
        let specs: Vec<ReplicaSpec> =
            vec!["26:packed".parse().unwrap(), "4:scalar".parse().unwrap()];
        let q = queue(16, specs);
        q.submit(pending(256)).unwrap();
        // Open: the slow cold replica is not the argmin and parks.
        assert!(matches!(q.take_wave(1, 8, NO_PARK), Taken::Empty { .. }));
        // Draining: a closed queue hands the wave to whoever asks.
        q.close();
        let Taken::Wave { batch, stolen, .. } = q.take_wave(1, 8, NO_PARK) else {
            panic!("drain ignores placement");
        };
        assert_eq!(batch.len(), 1);
        assert!(!stolen);
        assert!(matches!(q.take_wave(0, 8, NO_PARK), Taken::Drained));
        assert!(q.is_drained());
    }

    #[test]
    fn measured_feedback_flips_the_costed_argmin() {
        // Replica 0 lies: it runs the scalar engine but its spec prices
        // it as packed, so the static model routes heavy work to it.
        let placement = Arc::new(Placement::new(vec![
            "6:scalar@packed".parse().unwrap(),
            "6:scalar".parse().unwrap(),
        ]));
        let q = ShardedQueue::new(16, placement.clone());
        q.submit(pending(256)).unwrap();
        // Cold calibration: the liar is the modelled argmin; the honest
        // replica parks, and the wave's calibrated cost equals modelled.
        assert!(matches!(q.take_wave(1, 8, NO_PARK), Taken::Empty { .. }));
        let Taken::Wave { batch, cost, modelled, .. } = q.take_wave(0, 8, NO_PARK) else {
            panic!("liar takes the wave while the model is trusted");
        };
        assert_eq!(batch.len(), 1);
        assert_eq!(cost, modelled, "cold ratio is 1.0");
        q.finish(0, cost);
        // Measured truth arrives: the liar ran 5× slower than modelled,
        // the honest replica exactly as modelled. (Both sides must be
        // measured: an unmeasured replica borrows the fleet-median
        // ratio — here the liar's own 5× — precisely so that cold
        // replicas don't look artificially cheap next to warm ones.)
        placement.record_measured(0, (256, 256, 256), 5.0 * modelled, modelled);
        let honest = placement.request_cost((256, 256, 256), 1);
        placement.record_measured(1, (256, 256, 256), honest, honest);
        q.submit(pending(256)).unwrap();
        // The calibrated argmin flips to the honest replica.
        assert!(matches!(q.take_wave(0, 8, NO_PARK), Taken::Empty { .. }));
        let Taken::Wave { batch, stolen, .. } = q.take_wave(1, 8, NO_PARK) else {
            panic!("honest replica wins once the lie is measured");
        };
        assert_eq!(batch.len(), 1);
        assert!(!stolen, "an argmin take is not a steal");
    }

    #[test]
    fn observed_queue_delay_triggers_adaptive_steal() {
        // 256³ on the 4-SM thief is ~6.5× pricier than on the fast
        // replica, so the modelled-backlog rule never fires (ours >
        // one-deep backlog-on-best). But this class's entries have
        // demonstrably waited ~30 s to dispatch — the observed
        // dispatch-age EWMA says the model is wrong about this shard,
        // and the warm, cycle-efficient (same engine) thief steals.
        let specs: Vec<ReplicaSpec> =
            vec!["26:packed".parse().unwrap(), "4:packed".parse().unwrap()];
        let placement = Arc::new(Placement::new(specs));
        placement.record_measured(1, (256, 256, 256), 1.0, 1.0);
        let q = ShardedQueue::new(16, placement);
        // Seed the class's delay EWMA with a genuinely ancient dispatch.
        let mut stale = pending(256);
        stale.submitted = Instant::now() - Duration::from_secs(30);
        q.submit(stale).unwrap();
        let Taken::Wave { stolen, .. } = q.take_wave(0, 8, NO_PARK) else {
            panic!("fast replica drains the seed entry");
        };
        assert!(!stolen);
        // Fast replica is now loaded; the next entry of the class would
        // be its take again (still the argmin), but the observed wait
        // dwarfs the thief's host-scaled price.
        q.submit(pending(256)).unwrap();
        let Taken::Wave { batch, stolen, .. } = q.take_wave(1, 8, NO_PARK) else {
            panic!("observed wait must trigger the adaptive steal");
        };
        assert!(stolen);
        assert_eq!(batch.len(), 1);
        assert_eq!(q.steals(), 1);
    }

    #[test]
    fn dispatch_feeds_the_queue_delay_ewma() {
        let q = queue(16, ReplicaSpec::defaults(1));
        assert!(q.queue_delays().is_empty(), "no samples before any dispatch");
        let mut p = pending(64);
        p.submitted = Instant::now() - Duration::from_millis(250);
        q.submit(p).unwrap();
        let Taken::Wave { .. } = q.take_wave(0, 8, NO_PARK) else {
            panic!("expected a wave");
        };
        let delays = q.queue_delays();
        assert_eq!(delays.len(), 1);
        assert_eq!(delays[0].0, (64, 64, 64));
        assert!(delays[0].1 >= 0.25, "EWMA seeds from the first sample: {delays:?}");
    }

    #[test]
    fn deadline_sweep_returns_expired_entries() {
        let q = queue(16, ReplicaSpec::defaults(1));
        let mut dead = pending(8);
        dead.deadline = Some(Instant::now() - Duration::from_millis(1));
        q.submit(dead).unwrap();
        q.submit(pending(8)).unwrap();
        let Taken::Wave { batch, expired, .. } = q.take_wave(0, 8, NO_PARK) else {
            panic!("live entry still dispatches");
        };
        assert_eq!(batch.len(), 1);
        assert_eq!(expired.len(), 1);
        assert_eq!(q.len(), 0);
    }
}
