//! ABFT-as-a-service: a multi-tenant serving layer over the batch
//! engine, for the A-ABFT (DSN'14) reproduction.
//!
//! The library crates answer "is this one product trustworthy?"; this
//! crate answers the operational question that follows — what a service
//! does when trust costs latency and faults arrive in storms:
//!
//! * [`request`] — the tenant surface: [`ServeRequest`] (operands +
//!   protection policy + deadline class), synchronous [`Rejected`]
//!   admission errors, the exactly-once [`ServeOutcome`], and the
//!   [`Ticket`] a caller waits on;
//! * [`queue`] — the bounded, shape-sharded admission plane: explicit
//!   load shedding at capacity, deadline sweeping, and one pull rule:
//!   whichever dispatcher asks takes the wave led by the oldest ready
//!   entry;
//! * [`placement`] — [`ReplicaSpec`]s (per-replica SM count and clean
//!   engine) and the shard [`shape_class`]. No replica is priced: SM
//!   count does not change host time, so the fleet simply pulls;
//! * [`ladder`] — the [`EscalationLadder`]: maps the
//!   `abft.fault_rate_ewma` gauge to a protection floor
//!   (`Base → Verify → Heal`) with hysteresis on the way down;
//! * [`breaker`] — per-replica [`CircuitBreaker`] quarantining a device
//!   after consecutive heal-budget exhaustions; a quarantined replica
//!   stops pulling, so healthy replicas take its share;
//! * [`server`] — [`Server`]: one dispatcher thread per replica device,
//!   waves through [`BatchGemm`], retry-with-backoff around heal
//!   budgets;
//! * [`chaos`] + [`mod@bench`] — the seeded fault [`Storm`] and the
//!   open-loop load generator behind `aabft serve` and
//!   `BENCH_serve.json`.
//!
//! [`BatchGemm`]: aabft_core::batch::BatchGemm
//!
//! # Example
//!
//! ```
//! use aabft_matrix::Matrix;
//! use aabft_serve::{ReplicaSpec, ServeConfig, ServeOutcome, ServeRequest, Server};
//!
//! let server = Server::start(
//!     ServeConfig::default(),
//!     aabft_core::AAbftGemm::default(),
//!     ReplicaSpec::defaults(1),
//!     aabft_obs::Obs::new_shared(),
//! )
//! .expect("valid config");
//! let a = Matrix::from_fn(8, 8, |i, j| (i + 2 * j) as f64);
//! let b = Matrix::from_fn(8, 8, |i, j| (i * j + 1) as f64);
//! let ticket = server.submit(ServeRequest::new(a, b)).expect("admitted");
//! match ticket.wait() {
//!     ServeOutcome::Completed(done) => assert_eq!(done.product.rows(), 8),
//!     other => panic!("unexpected outcome: {other:?}"),
//! }
//! server.shutdown();
//! ```

#![warn(missing_docs)]

pub mod bench;
pub mod breaker;
pub mod chaos;
pub mod ladder;
pub mod placement;
pub mod queue;
pub mod request;
pub mod server;

pub use bench::{BenchConfig, LevelReport, TenantMix};
pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use chaos::{Storm, StormConfig};
pub use ladder::{EscalationLadder, LadderConfig, LadderLevel};
pub use placement::{shape_class, Placement, ReplicaSpec};
pub use request::{
    Completed, DeadlineClass, Rejected, ServeOutcome, ServeRequest, Ticket,
};
pub use server::{ServeConfig, ServeError, Server};
