//! The audited suppression list.
//!
//! Each [`Allow`] names one rule at one file with a **mandatory reason**:
//! an allow is a reviewed claim that the flagged pattern cannot reach an
//! artifact byte, and the reason is where that claim lives.  A missing
//! field fails the build; an unknown rule, a duplicate `(rule, path)` pair
//! or an empty reason fails a unit test (`crates/lint/tests/allows_suite.rs`).
//! Allows that suppress nothing are *stale* and fail the run: a fixed site
//! must shrink the list, so the list can only describe the present tree.
//!
//! Run locally:  `cargo run --release -p ss-lint --bin lint -- --allows`
//! Rule table:   `cargo run --release -p ss-lint --bin lint -- --list`

/// One suppression: `rule` findings in `path` are intentional.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Allow {
    /// Rule ID (`L001`…).
    pub rule: &'static str,
    /// Workspace-relative file path the allow applies to.
    pub path: &'static str,
    /// Why the pattern is legitimate at this site (mandatory).
    pub reason: &'static str,
}

/// Every allow, grouped by rule.
pub const ALLOWS: &[Allow] = &[
    // ------------------------------------------------------------ L002 —
    // wall-clock reads.  The audited sites: the binaries' timing lines and
    // E21's thread sweep, which never enter a --check rendering (the
    // conformance renderers strip or omit them).
    Allow {
        rule: "L002",
        path: "crates/verify/src/bin/verify.rs",
        reason: "Wall-clock line of the full-budget human run only; render_check_report (the \
                 conformance/CI artifact) never includes it.",
    },
    Allow {
        rule: "L002",
        path: "crates/fabric/src/bin/fabric.rs",
        reason: "Wall-clock line of the human run only; render_suite_report (the conformance/CI \
                 artifact) never includes it.",
    },
    Allow {
        rule: "L002",
        path: "crates/bench/src/experiments.rs",
        reason: "Per-experiment wall-clock ([-prefixed lines) and E21's measured thread sweep; \
                 harness_subset_report strips [-lines and rejects timing-sensitive experiments \
                 as conformance artifacts.",
    },
    Allow {
        rule: "L002",
        path: "crates/bench/src/bin/experiments.rs",
        reason: "Binary wall-clock summary line; stripped from every conformance artifact \
                 (harness_subset_report) and absent from EXPERIMENTS.md tables.",
    },
    // ------------------------------------------------------------ L006 —
    // seed arithmetic outside sim/src/rng.rs.
    Allow {
        rule: "L006",
        path: "crates/bench/src/workloads.rs",
        reason: "seed_for's xor/wrapping derivation predates RngStreams and its outputs are \
                 frozen into every committed artifact (EXPERIMENTS.md, conform fixtures); \
                 rederiving via RngStreams would re-baseline all of them for zero benefit. It \
                 derives workload master seeds, not streams — every stream under such a seed \
                 still goes through RngStreams.",
    },
];
