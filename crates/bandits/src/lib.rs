//! # ss-bandits — multi-armed and restless bandit models (§2 of the survey)
//!
//! The multi-armed bandit problem allocates one unit of effort per period
//! among `N` projects whose states evolve only while engaged; Gittins and
//! Jones (1974) showed that the optimal policy is a priority-index rule.
//! This crate implements that result and the two major extensions the
//! survey discusses:
//!
//! | Survey claim | Module |
//! |---|---|
//! | The Gittins index rule is optimal for the discounted multi-armed bandit | [`gittins`] (three independent index algorithms), [`exact`] (joint-state DP verification), [`simulate`] |
//! | With switching costs the Gittins rule is no longer optimal; a partial characterisation / heuristics exist (Asawa–Teneketzis 1996) | [`switching`] |
//! | Restless bandits: Whittle's LP relaxation and index heuristic, asymptotic optimality (Whittle 1988, Weber–Weiss 1990), relaxation performance bounds (Bertsimas–Niño-Mora 2000) | [`restless`], [`restless_exact`] (exact joint-chain oracles) |
//! | Partial conservation laws and marginal productivity indices — the polyhedral computation of the Whittle index (Niño-Mora 2001, 2002) | [`mpi`] |
//! | Branching bandit processes unifying batch scheduling and Klimov's queue (Weiss 1988) | [`branching`] |
//!
//! Instance generators (random projects, Bernoulli-sampling projects and
//! machine-maintenance restless projects) live in [`instances`].
//!
//! ## Index conventions
//!
//! The Gittins index used throughout is the *rate-normalised* discounted
//! index
//!
//! ```text
//! γ(i) = sup_{τ > 0}  E[ Σ_{t<τ} β^t R_{x(t)} | x(0)=i ]
//!                     ---------------------------------
//!                     E[ Σ_{t<τ} β^t           | x(0)=i ]
//! ```
//!
//! so a project that pays a constant reward `R` forever has index exactly
//! `R`.  The Whittle index is the passivity subsidy `λ` that makes active
//! and passive equally attractive in the single-project average-reward
//! subsidy problem.

pub mod branching;
pub mod discipline;
pub mod exact;
pub mod gittins;
pub mod instances;
pub mod mpi;
pub mod project;
pub mod restless;
pub mod restless_exact;
pub mod simulate;
pub mod switching;

pub use branching::BranchingBandit;
pub use discipline::{discounted_whittle_table, WhittleQueueDiscipline, WHITTLE_DISCOUNT};
pub use gittins::{gittins_indices_calibration, gittins_indices_restart, gittins_indices_vwb};
pub use mpi::{marginal_productivity_indices, MpiResult};
pub use project::BanditProject;
pub use restless::{whittle_indices, RestlessProject};
pub use restless_exact::{restless_optimal_gain, whittle_policy_gain};
