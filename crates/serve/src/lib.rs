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
//!   load shedding at capacity, deadline sweeping, and wave extraction
//!   from per-shape-class shards;
//! * [`placement`] — heterogeneous [`ReplicaSpec`]s (per-replica SM
//!   count and clean engine) and the [`Placement`] plane that costs
//!   ready waves against each replica's own `PerfModel`, with online
//!   calibration: per-(replica, shape-class) EWMAs of
//!   measured/modelled latency blend into every price, so placement
//!   corrects model error — including a replica whose spec lies about
//!   its engine — as it serves. There is one placement rule and no
//!   option: a replica takes the shards it is the calibrated argmin for
//!   and, when idle, steals work that would wait longer than it takes;
//! * [`ladder`] — the [`EscalationLadder`]: maps the
//!   `abft.fault_rate_ewma` gauge to a protection floor
//!   (`Base → Verify → Heal`) with hysteresis on the way down;
//! * [`breaker`] — per-replica [`CircuitBreaker`] quarantining a device
//!   after consecutive heal-budget exhaustions, draining its queue share
//!   to healthy replicas;
//! * [`server`] — [`Server`]: one dispatcher thread per replica device,
//!   waves through [`BatchGemm`], retry-with-backoff around heal
//!   budgets;
//! * [`chaos`] + [`mod@bench`] — the seeded fault [`Storm`], the
//!   open-loop load generator behind `aabft serve` and
//!   `BENCH_serve.json`, and the placement matrix that races the server
//!   against a blind round-robin baseline built in the harness.
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

pub use bench::{BenchConfig, LevelReport, MatrixBenchConfig, PolicyReport, TenantMix};
pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use chaos::{Storm, StormConfig};
pub use ladder::{EscalationLadder, LadderConfig, LadderLevel};
pub use placement::{shape_class, Placement, ReplicaSpec};
pub use request::{
    Completed, DeadlineClass, Rejected, ServeOutcome, ServeRequest, Ticket,
};
pub use server::{ServeConfig, ServeError, Server};
