//! # ss-conform — multi-replica determinism conformance
//!
//! The workspace's core correctness claim is the **determinism contract**:
//! every artifact-producing check target emits bit-identical output for any
//! `SS_THREADS` value.  This crate turns that claim from a pile of
//! per-binary CI shell into a first-class subsystem:
//!
//! * every conformance target is declared once, as a [`Target`] variant
//!   ([`targets`]) that knows its key, its renderer, its committed golden
//!   fixture (`fixtures/conform/<key>.txt`) and its structural expectations
//!   (the oracle-pair keys `verify` must report, the corpus scenario count
//!   and master seed read from the machine-readable trailer);
//! * the **harness** ([`harness`]) runs one replica of each target per
//!   pool size in [`REPLICA_THREADS`] (1, 2 and 4) and compares every
//!   artifact byte-for-byte, against the other replicas *and* against the
//!   committed golden fixture under `fixtures/conform/`;
//! * on mismatch, [`divergence`] reports the **first divergent byte
//!   offset** with a 16-byte hex window from each side and a **root-cause
//!   hint** (float-formatting drift, hash-map ordering, timestamp leakage,
//!   truncation);
//! * `conform --bless` is the single audited path for updating fixtures;
//!   CI re-runs it and fails if the tree changes (bless-drift gate), so a
//!   stale fixture cannot survive review unnoticed.
//!
//! ```text
//! cargo run --release -p ss-conform --bin conform -- --all
//!     # run every target, compare replicas + golden fixtures
//! cargo run --release -p ss-conform --bin conform -- --target verify-check
//!     # one target, for local iteration
//! cargo run --release -p ss-conform --bin conform -- --bless
//!     # rewrite golden fixtures (refuses if replicas diverge)
//! cargo run --release -p ss-conform --bin conform -- --list
//!     # print the targets
//! ```
//!
//! A new artifact producer (index service, lab runner, async backend)
//! adds a `Target` variant and one `--bless` instead of re-proving the
//! determinism guarantee in YAML.

pub mod divergence;
pub mod harness;
pub mod targets;

pub use divergence::{first_divergence, Divergence, RootCause};
pub use harness::{run_target, FixtureStatus, RunMode, TargetOutcome};
pub use targets::{Target, REPLICA_THREADS};

use std::path::PathBuf;

/// The workspace root this crate was compiled in — the default `--root` for
/// resolving the fixture paths, correct for `cargo run` and `cargo test`
/// from anywhere inside the workspace.
pub fn default_root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}
