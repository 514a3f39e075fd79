//! The sharded admission plane: bounded admission, deadline sweeping,
//! per-shape-class shards, and wave extraction under one pull rule.
//!
//! Admitted requests land in *shards* keyed by their rounded shape class
//! ([`shape_class`]), so the batch engine's plan and pack caches stay
//! warm per shard. A dispatcher that asks the queue for work
//! (`take_wave`) gets the wave whose lead entry is the oldest ready one,
//! whichever replica it serves: the queue knows nothing of replicas. The
//! wave coalesces up to `max` ready entries of the lead's exact shape.
//! The server keeps a quarantined replica from asking, so the breaker,
//! not the queue, decides who may pull.
//!
//! Built on `std::sync::{Mutex, Condvar}` (the parking_lot shim carries
//! no condvar); one mutex guards all shards.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use aabft_core::batch::ProtectionPolicy;
use aabft_matrix::Matrix;

use crate::placement::shape_class;
use crate::request::{DeadlineClass, Rejected, Slot};

/// Coalescing key: requests of equal `(m, n, q)` share a cached plan and
/// pooled buffers in the batch engine, so a wave sticks to one key.
pub(crate) type ShapeKey = (usize, usize, usize);

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
    Wave { batch: Vec<Pending>, expired: Vec<Pending> },
    /// Nothing dispatchable right now (park elapsed, or only backed-off
    /// entries remain); expired entries are still swept and returned.
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
}

impl Inner {
    fn shard_mut(&mut self, class: ShapeKey) -> &mut Shard {
        if let Some(i) = self.shards.iter().position(|s| s.class == class) {
            return &mut self.shards[i];
        }
        self.shards.push(Shard { class, items: VecDeque::new() });
        self.shards.last_mut().expect("just pushed")
    }

    /// The shard whose first ready entry is the oldest ready entry.
    fn oldest_ready_shard(&self, now: Instant) -> Option<usize> {
        let mut found: Option<(usize, Instant)> = None;
        for (si, shard) in self.shards.iter().enumerate() {
            if let Some(p) = shard.items.iter().find(|p| p.ready(now)) {
                if found.is_none_or(|(_, t)| p.submitted < t) {
                    found = Some((si, p.submitted));
                }
            }
        }
        found.map(|(si, _)| si)
    }
}

/// Bounded, sharded MPMC submission queue.
#[derive(Debug)]
pub(crate) struct ShardedQueue {
    inner: Mutex<Inner>,
    nonempty: Condvar,
    capacity: usize,
}

/// Per-shard depth snapshot for gauges.
pub(crate) struct ShardDepth {
    pub class: ShapeKey,
    pub depth: usize,
}

impl ShardedQueue {
    pub(crate) fn new(capacity: usize) -> Self {
        let inner = Inner { shards: Vec::new(), len: 0, closed: false };
        ShardedQueue { inner: Mutex::new(inner), nonempty: Condvar::new(), capacity }
    }

    pub(crate) fn len(&self) -> usize {
        self.inner.lock().expect("queue lock").len
    }

    /// Depth of every shard (gauges).
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

    /// Closes admission; dispatchers drain the remainder and then see
    /// [`Taken::Drained`].
    pub(crate) fn close(&self) {
        self.inner.lock().expect("queue lock").closed = true;
        self.nonempty.notify_all();
    }

    pub(crate) fn is_drained(&self) -> bool {
        let inner = self.inner.lock().expect("queue lock");
        inner.closed && inner.len == 0
    }

    /// Closes admission and removes every queued entry, ready or not.
    /// The last dispatcher calls it as it exits: after it nothing would
    /// ever take what is left.
    pub(crate) fn close_and_take_all(&self) -> Vec<Pending> {
        let mut inner = self.inner.lock().expect("queue lock");
        inner.closed = true;
        inner.len = 0;
        let left = inner.shards.iter_mut().flat_map(|s| s.items.drain(..)).collect();
        drop(inner);
        self.nonempty.notify_all();
        left
    }

    /// Sweeps expired entries, then extracts up to `max` ready entries of
    /// one exact shape, led by the oldest ready entry in the queue. Parks
    /// up to `park` when nothing is dispatchable.
    pub(crate) fn take_wave(&self, max: usize, park: Duration) -> Taken {
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

        let Some(si) = inner.oldest_ready_shard(now) else {
            if expired.is_empty() {
                // Nothing ready: park until a submit/requeue/close or
                // timeout. Parking while closed is fine — only backed-off
                // entries remain, and they come ready within a backoff
                // period.
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
            .expect("the oldest ready shard has a ready entry");
        let lead = items.remove(first).expect("index in bounds");
        let key = lead.shape_key();
        let mut batch = vec![lead];
        let mut i = first; // entries before `first` were not ready
        while batch.len() < max && i < items.len() {
            if items[i].ready(now) && items[i].shape_key() == key {
                batch.push(items.remove(i).expect("index in bounds"));
            } else {
                i += 1;
            }
        }
        inner.len -= batch.len();
        Taken::Wave { batch, expired }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    const NO_PARK: Duration = Duration::from_millis(0);

    #[test]
    fn capacity_and_shutdown_shed() {
        let q = ShardedQueue::new(2);
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
        let q = ShardedQueue::new(16);
        q.submit(pending(48)).unwrap();
        q.submit(pending(64)).unwrap();
        q.submit(pending(48)).unwrap();
        assert_eq!(q.shard_depths().len(), 1, "one shared shard class");
        let Taken::Wave { batch, .. } = q.take_wave(8, NO_PARK) else {
            panic!("expected a wave");
        };
        assert_eq!(batch.len(), 2, "the two 48³ entries coalesce past the 64³");
        assert!(batch.iter().all(|p| p.shape_key() == (48, 48, 48)));
    }

    #[test]
    fn the_oldest_ready_entry_leads_whoever_asks() {
        // A 256³ entry filed before a 64³ one, in different shards: no
        // replica is priced for either shape, so whichever dispatcher asks
        // first gets the older 256³ wave, and the next gets the 64³ one.
        let q = ShardedQueue::new(16);
        let filed = Instant::now();
        let mut heavy = pending(256);
        heavy.submitted = filed;
        let mut light = pending(64);
        light.submitted = filed + Duration::from_micros(1);
        q.submit(heavy).unwrap();
        q.submit(light).unwrap();
        assert_eq!(q.shard_depths().len(), 2, "one shard per class");
        let Taken::Wave { batch, .. } = q.take_wave(8, NO_PARK) else {
            panic!("the first ask takes a wave");
        };
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].shape_key(), (256, 256, 256), "the older entry leads");
        let Taken::Wave { batch, .. } = q.take_wave(8, NO_PARK) else {
            panic!("the next ask takes a wave");
        };
        assert_eq!(batch[0].shape_key(), (64, 64, 64));
        assert!(matches!(q.take_wave(8, NO_PARK), Taken::Empty { .. }));
    }

    #[test]
    fn closed_queue_drains_to_a_replica_that_is_not_the_argmin() {
        // Under pull there is no argmin to wait for: a closed queue hands
        // what it holds to whichever dispatcher asks, by the same
        // oldest-ready rule as an open one, then reports itself drained.
        let q = ShardedQueue::new(16);
        let filed = Instant::now();
        let mut heavy = pending(256);
        heavy.submitted = filed;
        let mut light = pending(64);
        light.submitted = filed + Duration::from_micros(1);
        q.submit(heavy).unwrap();
        q.submit(light).unwrap();
        q.close();
        assert!(matches!(q.submit(pending(64)), Err(Rejected::ShuttingDown)));
        for shape in [(256, 256, 256), (64, 64, 64)] {
            let Taken::Wave { batch, .. } = q.take_wave(8, NO_PARK) else {
                panic!("a closed queue still hands out what it holds");
            };
            assert_eq!(batch.len(), 1);
            assert_eq!(batch[0].shape_key(), shape, "the older entry leads the drain");
        }
        assert!(matches!(q.take_wave(8, NO_PARK), Taken::Drained));
        assert!(q.is_drained());
    }

    #[test]
    fn close_and_take_all_empties_every_shard_and_sheds_later_submissions() {
        let q = ShardedQueue::new(16);
        q.submit(pending(8)).unwrap();
        q.submit(pending(64)).unwrap();
        let mut backed_off = pending(8);
        backed_off.not_before = Some(Instant::now() + Duration::from_secs(3600));
        q.requeue(backed_off);
        assert_eq!(q.close_and_take_all().len(), 3, "ready or backed off, every entry leaves");
        assert_eq!(q.len(), 0);
        assert!(q.is_drained());
        assert!(matches!(q.submit(pending(8)), Err(Rejected::ShuttingDown)));
    }

    #[test]
    fn deadline_sweep_returns_expired_entries() {
        let q = ShardedQueue::new(16);
        let mut dead = pending(8);
        dead.deadline = Some(Instant::now() - Duration::from_millis(1));
        q.submit(dead).unwrap();
        q.submit(pending(8)).unwrap();
        let Taken::Wave { batch, expired } = q.take_wave(8, NO_PARK) else {
            panic!("live entry still dispatches");
        };
        assert_eq!(batch.len(), 1);
        assert_eq!(expired.len(), 1);
        assert_eq!(q.len(), 0);
    }
}
