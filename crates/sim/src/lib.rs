//! # ss-sim — discrete-event simulation engine
//!
//! The survey observes that "computer simulation remains the most widely
//! used tool in applications of these models"; this crate is that tool for
//! the workspace.  It provides:
//!
//! * [`events`] — a deterministic event calendar (a binary heap of packed
//!   integer `(time, sequence)` keys over a payload slab, so simultaneous
//!   events are processed in insertion order and runs are exactly
//!   reproducible);
//! * [`engine`] — a small generic driver for event-oriented models;
//! * [`rng`] — reproducible per-replication random-number streams derived
//!   from a single master seed (ChaCha8, stream-split by replication index);
//! * [`stats`] — Welford online moments, confidence intervals,
//!   time-weighted averages for queue-length processes, and batch means for
//!   steady-state output analysis;
//! * [`replication`] — serial, parallel and chunked replication runners
//!   that return summary statistics with confidence intervals;
//! * [`pool`] — explicit controls over the multi-threaded execution pool
//!   the parallel runners schedule on (thread count via `SS_THREADS`,
//!   scoped pools, join), with a bit-for-bit serial/parallel determinism
//!   contract;
//! * [`json`] — the one JSON escaper + host/`SS_THREADS` preamble shared
//!   by every harness binary's hand-assembled output (no serde offline).
//!
//! The queueing and batch-scheduling simulators in `ss-queueing` and
//! `ss-batch` are built on these primitives.

pub mod engine;
pub mod events;
pub mod json;
pub mod pool;
pub mod replication;
pub mod rng;
pub mod stats;

pub use engine::{Engine, EventHandler};
pub use events::EventQueue;
pub use replication::{
    run_replications, run_replications_chunked, run_replications_parallel, ChunkedReplications,
    ReplicationSummary,
};
pub use rng::RngStreams;
pub use stats::{BatchMeans, OnlineStats, TimeWeighted};
