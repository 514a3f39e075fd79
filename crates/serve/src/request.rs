//! Request, admission-rejection and terminal-outcome types, plus the
//! [`Ticket`] a caller waits on.
//!
//! Every request accepted by [`Server::submit`] resolves to **exactly
//! one** [`ServeOutcome`]; a request that is not accepted is rejected
//! synchronously with a [`Rejected`] (load shedding happens at the
//! admission edge, never silently inside the server).
//!
//! [`Server::submit`]: crate::server::Server::submit

use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

use aabft_core::batch::ProtectionPolicy;
use aabft_core::error::AbftError;
use aabft_matrix::Matrix;

/// Latency class of a request: how long it may sit in the queue before
/// the server cancels it with [`ServeOutcome::DeadlineMissed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeadlineClass {
    /// Interactive traffic: the short deadline
    /// ([`ServeConfig::interactive_deadline`]).
    ///
    /// [`ServeConfig::interactive_deadline`]: crate::server::ServeConfig::interactive_deadline
    Interactive,
    /// Throughput traffic: the long deadline
    /// ([`ServeConfig::batch_deadline`]). The default.
    ///
    /// [`ServeConfig::batch_deadline`]: crate::server::ServeConfig::batch_deadline
    #[default]
    Batch,
    /// No deadline: waits however long the queue takes.
    Unbounded,
}

impl DeadlineClass {
    /// Short label for metrics and report tables.
    pub fn label(self) -> &'static str {
        match self {
            DeadlineClass::Interactive => "interactive",
            DeadlineClass::Batch => "batch",
            DeadlineClass::Unbounded => "unbounded",
        }
    }
}

/// One service request: compute `C = A · B` under the tenant's protection
/// policy and deadline class.
///
/// The `policy` is the tenant's *requested* baseline; the escalation
/// ladder ([`crate::ladder::EscalationLadder`]) may upgrade it at
/// dispatch time while the observed fault rate is elevated (it never
/// downgrades below the request).
#[derive(Debug, Clone)]
pub struct ServeRequest {
    /// Left operand (`m × n`).
    pub a: Matrix<f64>,
    /// Right operand (`n × q`).
    pub b: Matrix<f64>,
    /// Requested fault-tolerance policy (the ladder's floor is OR-ed in).
    pub policy: ProtectionPolicy,
    /// Deadline class.
    pub class: DeadlineClass,
}

impl ServeRequest {
    /// A request under the default policy (full A-ABFT) and the default
    /// class ([`DeadlineClass::Batch`]).
    pub fn new(a: Matrix<f64>, b: Matrix<f64>) -> Self {
        ServeRequest { a, b, policy: ProtectionPolicy::default(), class: DeadlineClass::default() }
    }

    /// Overrides the protection policy.
    pub fn with_policy(mut self, policy: ProtectionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Overrides the deadline class.
    pub fn with_class(mut self, class: DeadlineClass) -> Self {
        self.class = class;
        self
    }
}

/// Synchronous admission rejection: the request was **not** enqueued and
/// will produce no outcome.
#[derive(Debug)]
pub enum Rejected {
    /// The bounded submission queue is full — explicit load shedding.
    QueueFull {
        /// The queue's configured capacity at the time of rejection.
        capacity: usize,
    },
    /// The server is shutting down and admits no new work.
    ShuttingDown,
    /// Operand shapes are incompatible (`A.cols != B.rows`); checked at
    /// the admission edge so the queue only ever holds executable work.
    ShapeMismatch(AbftError),
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejected::QueueFull { capacity } => {
                write!(f, "queue full (capacity {capacity}): request shed")
            }
            Rejected::ShuttingDown => write!(f, "server shutting down"),
            Rejected::ShapeMismatch(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for Rejected {}

/// A completed (verified or unverified per policy) multiplication.
#[derive(Debug)]
pub struct Completed {
    /// The product released to the caller.
    pub product: Matrix<f64>,
    /// The policy the request actually ran under (after ladder upgrades).
    pub policy: ProtectionPolicy,
    /// Recovery attempts performed by the heal loop (0 = clean first
    /// check, or unverified).
    pub attempts: u32,
    /// Whole-request retries performed by the resilience controller.
    pub retries: u32,
    /// `true` when the result arrived after the request's deadline (the
    /// product is still valid; the latency budget was missed).
    pub late: bool,
    /// Submit-to-resolve latency.
    pub latency: Duration,
    /// Replica (device index) that produced the result.
    pub replica: usize,
}

impl Completed {
    /// `true` if the heal loop had to repair anything.
    pub fn healed(&self) -> bool {
        self.attempts > 0
    }
}

/// The single terminal outcome of an accepted request.
#[derive(Debug)]
pub enum ServeOutcome {
    /// The product was computed (and verified, unless the effective
    /// policy was [`ProtectionPolicy::Unprotected`]).
    Completed(Completed),
    /// The request's deadline expired while it waited in the queue; it
    /// was cancelled without running.
    DeadlineMissed {
        /// The request's deadline class.
        class: DeadlineClass,
        /// How long it waited before cancellation.
        waited: Duration,
    },
    /// Every retry exhausted its heal budget: no trustworthy product
    /// exists and none is released (the fail-safe).
    Unrecovered {
        /// Heal attempts of the final try.
        attempts: u32,
        /// Whole-request retries performed before giving up.
        retries: u32,
    },
}

impl ServeOutcome {
    /// Short label for metrics and report tables.
    pub fn label(&self) -> &'static str {
        match self {
            ServeOutcome::Completed(_) => "completed",
            ServeOutcome::DeadlineMissed { .. } => "deadline-missed",
            ServeOutcome::Unrecovered { .. } => "unrecovered",
        }
    }
}

/// One-shot outcome slot shared between a [`Ticket`] and the dispatcher
/// that resolves it. `std::sync` primitives: the parking_lot shim has no
/// `Condvar`.
#[derive(Debug, Default)]
pub(crate) struct Slot {
    outcome: Mutex<Option<ServeOutcome>>,
    ready: Condvar,
}

impl Slot {
    /// Stores the outcome and wakes the waiter. Tolerates a poisoned lock
    /// (the slot holds a plain `Option`, valid after any store), because a
    /// dispatcher that unwinds resolves its wave from a `Drop`, which must
    /// not panic.
    pub(crate) fn resolve(&self, outcome: ServeOutcome) {
        let mut guard = self.outcome.lock().unwrap_or_else(PoisonError::into_inner);
        debug_assert!(guard.is_none(), "a request must resolve exactly once");
        *guard = Some(outcome);
        self.ready.notify_all();
    }
}

/// Handle to one accepted request; [`Ticket::wait`] blocks until the
/// server resolves it.
#[derive(Debug)]
pub struct Ticket {
    pub(crate) slot: Arc<Slot>,
}

impl Ticket {
    /// Blocks until the request reaches its terminal outcome.
    pub fn wait(self) -> ServeOutcome {
        let mut guard = self.slot.outcome.lock().expect("slot lock");
        loop {
            if let Some(outcome) = guard.take() {
                return outcome;
            }
            guard = self.slot.ready.wait(guard).expect("slot lock");
        }
    }

    /// Non-blocking poll: the outcome if the request already resolved.
    pub fn try_wait(&self) -> Option<ServeOutcome> {
        self.slot.outcome.lock().expect("slot lock").take()
    }
}
