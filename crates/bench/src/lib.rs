//! # ss-bench — benchmarks and the experiment harness
//!
//! Three deliverables live here:
//!
//! * the **experiment harness** ([`experiments`]) — one function per
//!   experiment E1–E22 of `DESIGN.md`; each regenerates the corresponding
//!   table/series of `EXPERIMENTS.md`.  Run all of them with
//!   `cargo run --release -p ss-bench --bin experiments` (concurrently on
//!   `--jobs` pool lanes, reports buffered and printed in E-id order), a
//!   subset with `-- E7 E10`, a timing summary with `-- --json`, or the
//!   whole `EXPERIMENTS.md` document with `-- --markdown`;
//! * the **Criterion benchmarks** (`benches/`) — micro/meso benchmarks of
//!   the computational kernels (Gittins/Whittle/Klimov index computation,
//!   the simplex solver, MDP value iteration, the event calendar, the
//!   M/G/1 simulator, batch index evaluation, the turnpike sweep, the
//!   Monte-Carlo sweep kernels, and the parallel replication engine's
//!   threads × replications throughput);
//! * the **`parallel_replications` and `sweeps` binaries** — record the
//!   serial-vs-parallel wall-clock trajectories to
//!   `BENCH_parallel_replications.json` / `BENCH_sweeps.json` (`sweeps`
//!   covers the turnpike / heavy-traffic / asymptotic sweeps plus the full
//!   concurrent E1–E22 harness); the serial/parallel bit-identity gate
//!   for the same workloads is [`conformance`], run by `ss-conform`'s
//!   `replications-check` and `sweeps-check` targets.
//!
//! [`workloads`] holds the shared instance builders so that the harness and
//! the benches exercise exactly the same configurations.

pub mod conformance;
pub mod experiments;
pub mod json;
pub mod sweeps;
pub mod workloads;
