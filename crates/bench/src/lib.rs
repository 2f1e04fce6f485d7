//! # ss-bench — the experiment harness
//!
//! The **experiment harness** ([`experiments`]) has one function per
//! experiment E1–E22 of `DESIGN.md`; each regenerates the corresponding
//! table/series of `EXPERIMENTS.md`.  Run all of them with
//! `cargo run --release -p ss-bench --bin experiments` (concurrently on
//! the pool's lanes, reports buffered and printed in E-id order), a
//! subset with `-- E7 E10`, or the whole `EXPERIMENTS.md` document with
//! `-- --markdown`.  E21 is the pool-scaling record: it times the
//! replication engine at 1/2/4/8 threads.
//!
//! The crate times nothing else.  End-to-end and per-layer cost of the
//! fabric and the oracle corpus is recorded by the separate `perfbench`
//! package at the repository root.  The serial/parallel bit-identity gate
//! for the replication and sweep workloads is [`conformance`], run by
//! `ss-conform`'s `replications-check` and `sweeps-check` targets.
//!
//! [`workloads`] holds the instance builders the experiments share.

pub mod conformance;
pub mod experiments;
mod sweeps;
pub mod workloads;
