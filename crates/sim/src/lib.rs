//! # ss-sim — discrete-event simulation primitives
//!
//! The survey observes that "computer simulation remains the most widely
//! used tool in applications of these models"; this crate is that tool for
//! the workspace.  It provides:
//!
//! * [`events`] — a deterministic event calendar (one vector of
//!   `(time, payload)` entries sorted latest first, so simultaneous events
//!   are processed in insertion order and runs are exactly reproducible);
//! * [`rng`] — reproducible per-replication random-number streams derived
//!   from a single master seed (ChaCha8, stream-split by replication index),
//!   the registry of the workspace's stream ids, and [`rng::ExpStream`],
//!   which draws a stream's exponentials 32 at a time with the bits of
//!   drawing them one by one;
//! * [`stats`] — Welford online moments, confidence intervals and the
//!   deterministic quantile sketch;
//! * [`replication`] — serial and parallel replication runners that return
//!   summary statistics with confidence intervals;
//! * [`pool`] — the execution pool every parallel workload schedules on,
//!   through one order-preserving map ([`pool::parallel_indexed`]) whose
//!   lanes are scoped threads started per call, with a scoped lane count
//!   ([`pool::with_threads`]), an `SS_THREADS` override and a bit-for-bit
//!   serial/parallel determinism contract.
//!
//! The simulators in `ss-queueing`, `ss-batch` and `ss-fabric` are built
//! on these primitives; each runs its own event loop.

pub mod events;
#[allow(unsafe_code)]
mod neg_ln;
pub mod pool;
pub mod replication;
pub mod rng;
pub mod stats;

pub use events::EventQueue;
pub use replication::{run_replications, run_replications_parallel, ReplicationSummary};
pub use rng::RngStreams;
pub use stats::OnlineStats;
