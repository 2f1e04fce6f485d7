//! # ss-core — shared stochastic-scheduling vocabulary
//!
//! The unifying theme of the survey is that across all three model families
//! (batch scheduling, bandits, queueing control) the good policies are
//! **priority-index rules**: compute an index per job/class/project state,
//! serve the largest.  This crate provides the shared vocabulary the domain
//! crates build on:
//!
//! * [`adaptive_greedy`](mod@adaptive_greedy) — the adaptive-greedy index algorithm of the
//!   conservation-law / extended-polymatroid framework, shared by the
//!   cµ/Klimov/branching-bandit index computations;
//! * [`exhaustive`] — the exact solvers' enumerations: the best of all
//!   `n!` orders (Heap's algorithm) and the `k`-subsets of a set;
//! * [`job`] — stochastic jobs (weight + processing-time distribution) and
//!   job classes;
//! * [`instance`] — batch-scheduling problem instances, builders and random
//!   generators with documented seeds;
//! * [`index`] — the "serve highest index first" sort of `f64` priority
//!   indices;
//! * [`result`] — comparison tables (policy → value ± CI) shared by the
//!   experiment harness and the examples.

pub mod adaptive_greedy;
pub mod discipline;
pub mod exhaustive;
pub mod index;
pub mod instance;
pub mod job;
pub mod linalg;
pub mod result;

pub use adaptive_greedy::{adaptive_greedy, AdaptiveGreedyResult, WorkMeasure};
pub use discipline::Discipline;
pub use instance::{BatchInstance, BatchInstanceBuilder};
pub use job::{Job, JobClass};
pub use result::{ComparisonRow, ComparisonTable};
