//! # stochastic-scheduling
//!
//! A reproduction of the survey **"Stochastic Scheduling"** (José Niño-Mora)
//! as a Rust workspace.  This facade crate re-exports every member crate so
//! downstream users (and the `examples/` binaries) can depend on a single
//! package:
//!
//! * [`distributions`] — processing-time / inter-arrival distributions,
//!   hazard-rate classification, stochastic orderings.
//! * [`sim`] — discrete-event simulation primitives: the event calendar,
//!   reproducible RNG streams, statistics, replication runners, and the
//!   multi-threaded execution pool (`sim::pool`, `SS_THREADS`) with
//!   bit-for-bit serial/parallel determinism.
//! * [`lp`] — dense two-phase simplex LP solver (Whittle / achievable-region
//!   relaxations).
//! * [`mdp`] — finite Markov decision process solvers (discounted and
//!   average criteria, optimal stopping).
//! * [`core`] — shared scheduling vocabulary: jobs, instances, priority
//!   indices, the adaptive-greedy algorithm, comparison tables.
//! * [`batch`] — §1 of the survey: scheduling a batch of stochastic jobs
//!   (WSEPT, SEPT/LEPT, preemptive Gittins-type indices, parallel and
//!   uniform machines, turnpike asymptotics).
//! * [`bandits`] — §2: multi-armed and restless bandits (Gittins index,
//!   Whittle index, marginal productivity indices, branching bandits,
//!   LP relaxation bounds, switching costs).
//! * [`queueing`] — §3: queueing scheduling control (multiclass M/G/1 and
//!   the cµ-rule, the achievable-region LP and adaptive-greedy indices,
//!   Klimov networks, parallel servers, multistation networks, stability,
//!   fluid models, polling and setup thresholds).
//! * [`fabric`] — service-fabric discrete-event simulator: open arrival
//!   sources (Poisson / MMPP) feeding load-balanced multi-server tiers with
//!   pluggable index disciplines (FIFO / cµ / Gittins / Whittle), failures,
//!   bounded queues, retries, and end-to-end RTT percentiles (`fabric`
//!   binary, `--check` CI gate).
//! * [`verify`] — analytic-oracle cross-validation: the Monte-Carlo
//!   simulators checked against the exact solvers (Pollaczek–Khinchine,
//!   Cobham, conservation laws, joint-MDP value iteration, LP duality)
//!   over a generated scenario corpus (`verify` binary, `--check` CI gate).
//!
//! See `DESIGN.md` for the full system inventory (including the execution
//! pool's architecture) and `EXPERIMENTS.md` for the measured results of
//! experiments E1–E22, regenerated via
//! `cargo run --release -p ss-bench --bin experiments`.
//!
//! ## Quickstart
//!
//! ```
//! use stochastic_scheduling::batch::policies::wsept_order;
//! use stochastic_scheduling::batch::single_machine::expected_weighted_flowtime;
//! use stochastic_scheduling::core::instance::BatchInstance;
//! use stochastic_scheduling::distributions::{dyn_dist, Exponential};
//!
//! // Three stochastic jobs on one machine: WSEPT sequences them optimally.
//! let instance = BatchInstance::builder()
//!     .job(1.0, dyn_dist(Exponential::with_mean(2.0)))
//!     .job(4.0, dyn_dist(Exponential::with_mean(1.0)))
//!     .job(2.0, dyn_dist(Exponential::with_mean(3.0)))
//!     .build();
//! let order = wsept_order(&instance);
//! let cost = expected_weighted_flowtime(&instance, &order);
//! assert!(cost > 0.0);
//! ```

pub use ss_bandits as bandits;
pub use ss_batch as batch;
pub use ss_conform as conform;
pub use ss_core as core;
pub use ss_distributions as distributions;
pub use ss_fabric as fabric;
pub use ss_lint as lint;
pub use ss_lp as lp;
pub use ss_mdp as mdp;
pub use ss_queueing as queueing;
pub use ss_sim as sim;
pub use ss_verify as verify;
