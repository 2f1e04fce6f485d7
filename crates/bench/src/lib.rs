//! # ss-bench — benchmarks and the experiment harness
//!
//! Two deliverables live here:
//!
//! * the **experiment harness** ([`experiments`]) — one function per
//!   experiment E1–E22 of `DESIGN.md`; each regenerates the corresponding
//!   table/series of `EXPERIMENTS.md`.  Run all of them with
//!   `cargo run --release -p ss-bench --bin experiments` (concurrently on
//!   `--jobs` pool lanes, reports buffered and printed in E-id order), a
//!   subset with `-- E7 E10`, or the whole `EXPERIMENTS.md` document with
//!   `-- --markdown`.  E21 is the pool-scaling record: it times the
//!   replication engine at 1/2/4/8 threads;
//! * the **Criterion benchmarks** (`benches/`) — micro/meso benchmarks of
//!   the solver kernels (Gittins, Whittle, Klimov, branching-bandit and
//!   marginal-productivity index computation, the achievable-region LP,
//!   the simplex solver, MDP value iteration, the M/G/1 and setup-threshold
//!   simulators, batch policy evaluation and the turnpike sweep).
//!
//! End-to-end and per-layer cost of the fabric and the oracle corpus is
//! recorded by the separate `perfbench` package at the repository root,
//! not here.  The serial/parallel bit-identity gate for the replication
//! and sweep workloads is [`conformance`], run by `ss-conform`'s
//! `replications-check` and `sweeps-check` targets.
//!
//! [`workloads`] holds the shared instance builders so that the harness and
//! the benches exercise exactly the same configurations.

pub mod conformance;
pub mod experiments;
mod sweeps;
pub mod workloads;
