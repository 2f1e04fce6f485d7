//! # ss-mdp — finite Markov decision process solvers
//!
//! The survey repeatedly contrasts index policies with the "curse of
//! dimensionality" of straightforward dynamic programming.  This crate
//! supplies that dynamic-programming substrate so the workspace can
//! *verify* the index-policy optimality claims exactly on small instances:
//!
//! * discounted value iteration and policy iteration
//!   ([`value_iteration`](mod@value_iteration),
//!   [`policy_iteration`](mod@policy_iteration)) — used to compute the
//!   optimal value of small multi-armed bandit problems (experiment E7) and
//!   switching-cost bandits (E9);
//! * average-cost relative value iteration ([`average`]) — used for the
//!   restless-bandit subsidy problems behind the Whittle index (E10);
//! * optimal stopping ([`stopping`]) — the retirement formulation used by
//!   the calibration method for the Gittins index (E8);
//! * Markov-chain utilities ([`chain`]) — stationary distributions,
//!   absorption probabilities and expected occupancy, used by Klimov's
//!   algorithm and the exact parallel-machine recursions.
//!
//! The MDP representation is deliberately simple (dense per-action rows of
//! `(next_state, probability)` pairs): every exact model in this workspace
//! has at most a few hundred thousand state-action pairs.

pub mod average;
pub mod chain;
pub mod mdp;
pub mod policy_iteration;
pub mod stopping;
pub mod value_iteration;

pub use average::{relative_value_iteration, AverageSolution};
pub use chain::MarkovChain;
pub use mdp::{Mdp, MdpBuilder, Transition};
pub use policy_iteration::policy_iteration;
pub use stopping::{optimal_stopping, StoppingProblem, StoppingSolution};
pub use value_iteration::{value_iteration, DiscountedSolution, ValueIterationOptions};
