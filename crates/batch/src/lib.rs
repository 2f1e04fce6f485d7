//! # ss-batch — scheduling a batch of stochastic jobs (§1 of the survey)
//!
//! A fixed batch of `n` jobs with random processing times (known
//! distributions) must be completed by `m` machines.  This crate implements
//! the survey's model variants whose claims a test pins against something
//! exact, together with the exact methods that verify them:
//!
//! | Survey claim | Module |
//! |---|---|
//! | WSEPT (Smith's rule on means) is optimal for `E[Σ w C]` on one machine, nonpreemptive (Rothkopf 1966) | [`single_machine`], [`policies`] |
//! | The preemptive optimum is a Gittins-type index in attained service (Sevcik 1974) | [`preemptive`] |
//! | SEPT minimises `E[Σ C]` on identical parallel machines for exponential / common-IHR / stochastically ordered jobs | [`parallel`], [`exact_exp`] |
//! | LEPT minimises `E[max C]` for exponential / common-DHR jobs | [`parallel`], [`exact_exp`] |
//! | Two-point jobs on two machines break the simple index rules (Coffman–Hofri–Weiss 1989) | [`two_point_exact`] |
//! | Uniform (speed-scaled) machines: when jobs commit to a machine, a very slow machine should be used only while enough jobs remain (threshold structure, Agrawala et al. 1984) | [`uniform_machines`] |
//! | WSEPT is asymptotically optimal on parallel machines: additive gap `O(1)`, relative gap `→ 0` (Weiss 1992) | [`turnpike`] |
//!
//! The experiment harness (`ss-bench`, experiments E1–E6) drives these
//! modules to regenerate the tables in `EXPERIMENTS.md`.

pub mod discipline;
pub mod exact_exp;
pub mod parallel;
pub mod policies;
pub mod preemptive;
pub mod single_machine;
pub mod turnpike;
pub mod two_point_exact;
pub mod uniform_machines;

pub use discipline::gittins_discipline;
pub use policies::{lept_order, random_order, sept_order, wsept_order};
pub use single_machine::{exhaustive_optimal_order, expected_weighted_flowtime};
