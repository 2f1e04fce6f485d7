//! # ss-fabric — a service-fabric discrete-event simulator
//!
//! The survey's queueing-control chapter studies index disciplines one
//! station at a time; this crate assembles them into the system they are
//! used in practice: a **service fabric** — open arrival sources feeding a
//! chain of load-balanced multi-server tiers, with bounded queues, server
//! failures and client retries, reporting true end-to-end round-trip
//! latency percentiles.
//!
//! | piece | module |
//! |---|---|
//! | Scenario schema: classes, tiers, LB policies, failures, retries | [`config`] |
//! | Event taxonomy + the request record | [`events`] |
//! | The simulator, which owns its calendar and event loop, and the replication runner | [`sim`] |
//! | Per-run metrics: counters, waits, utilization, RTT quantile sketch | [`metrics`] |
//! | Overload resilience: deadlines, breakers, shedding, slowdown epochs | [`resilience`] |
//! | The committed scenario suite and the parallel deterministic runner | [`scenarios`] |
//!
//! Queue disciplines are pluggable through
//! [`ss_core::discipline::Discipline`]: global FIFO, the cµ rule
//! (`ss_queueing::discipline`), the Gittins service index
//! (`ss_batch::discipline`) and the Whittle rule
//! (`ss_bandits::discipline`) all drive the same server loop.
//!
//! Everything is deterministic by construction: each replication owns an
//! `RngStreams` family keyed by `(scenario, rep)`, the calendar breaks
//! ties in schedule order, and the suite runner aggregates in scenario
//! order whatever the thread count — `fabric --check` output is diffed
//! byte-for-byte across `SS_THREADS` values in CI.
//!
//! The single-tier FIFO M/M/c corner of this simulator is cross-validated
//! against the Erlang-C mean-wait formula by `ss-verify`'s
//! `fabric-vs-erlangc` oracle pair, and the finite-queue corner against
//! the M/M/c/K blocking formula by `fabric-vs-mmck`.

pub mod config;
pub mod events;
pub mod metrics;
pub mod resilience;
pub mod scenarios;
pub mod sim;

pub use config::{
    ArrivalProcess, ClassConfig, DisciplineKind, FabricConfig, FailureConfig, LbPolicy,
    RetryPolicy, TierConfig,
};
pub use metrics::{FabricReport, SlaWindowReport, TierReport};
pub use resilience::{
    BreakerConfig, BreakerState, CircuitBreaker, DeadlineConfig, ShedderConfig, SlowdownConfig,
    TokenBucket,
};
pub use scenarios::{
    aggregate, render_suite_report, retry_storm_config, run_suite, scenario_list, Budget,
    DEFAULT_SEED,
};
pub use sim::{replication_seed, run_fabric, run_fabric_with, FABRIC_SIM_STREAM};
