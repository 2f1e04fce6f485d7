//! The determinism-contract rule set.
//!
//! Every rule is anchored on a bug class this repo has actually shipped
//! (or a divergence class `ss-conform` localizes).  The IDs are stable:
//! the allows in `crates/lint/src/allows.rs`, the conform root-cause hints
//! and DESIGN.md's rule table all refer to them.
//!
//! | ID   | Bug class it encodes |
//! |------|----------------------|
//! | L001 | HashMap/HashSet in artifact-producing crates → map-ordering divergence (conform hint "map ordering") |
//! | L002 | `SystemTime::now` / `Instant::now` outside audited wall-clock sites → timestamp leakage (conform hint "timestamp") |
//! | L003 | `debug_assert!` guarding numeric validity/ordering → compiles out in release (the PR 6 horizon-drop and PR 9 NaN-selection bugs) |
//! | L004 | `*_STREAM`/`*_FAMILY` u64 constant outside the `stream_ids!` registry in `sim/src/rng.rs` → stream id that escapes the registry's compile-time distinctness check (stream collision) |
//! | L005 | bare `{}` / `{:?}` float formatting in render modules → float-formatting divergence (conform hint "float formatting") |
//! | L006 | hand-rolled seed arithmetic outside `sim/src/rng.rs` → ad-hoc stream derivation (the pattern PR 3 eradicated) |

use crate::scan::SourceFile;

pub mod l001;
pub mod l002;
pub mod l003;
pub mod l004;
pub mod l005;
pub mod l006;

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule ID (`L001`…).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable message (what broke historically, what to do).
    pub message: String,
}

impl Finding {
    /// Canonical single-line rendering: `path:line rule message`.
    pub fn render(&self) -> String {
        format!("{}:{} {} {}", self.path, self.line, self.rule, self.message)
    }
}

/// Static metadata of one rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleMeta {
    /// Stable ID.
    pub id: &'static str,
    /// Short title.
    pub title: &'static str,
    /// One-line description (shown by `lint --list`).
    pub summary: &'static str,
}

/// Every rule, in ID order.
pub const RULES: &[RuleMeta] = &[
    RuleMeta {
        id: "L001",
        title: "hash-map ordering",
        summary: "HashMap/HashSet in artifact-producing crates: iteration order can leak into \
                  artifact bytes (conform hint: map ordering)",
    },
    RuleMeta {
        id: "L002",
        title: "wall-clock leakage",
        summary: "SystemTime::now/Instant::now outside audited sites: timestamps leak into \
                  otherwise deterministic output (conform hint: timestamp)",
    },
    RuleMeta {
        id: "L003",
        title: "debug-only numeric guard",
        summary: "debug_assert! guarding numeric validity or ordering compiles out in release \
                  (the PR 9 NaN-selection bug class); promote to a release-mode check",
    },
    RuleMeta {
        id: "L004",
        title: "unregistered stream id",
        summary: "const *_STREAM/*_FAMILY: u64 outside the stream_ids! registry in \
                  sim/src/rng.rs: the registry's compile-time check keeps ids distinct only for \
                  its own entries",
    },
    RuleMeta {
        id: "L005",
        title: "unpinned float formatting",
        summary: "bare {} / {:?} float formatting in check-report/render modules: pin the \
                  rendering ({:.17e}, to_bits hex) at the artifact boundary (conform hint: \
                  float formatting)",
    },
    RuleMeta {
        id: "L006",
        title: "hand-rolled seed arithmetic",
        summary: "xor/wrapping arithmetic on seeds outside sim/src/rng.rs: derive streams via \
                  RngStreams instead (the pattern PR 3 eradicated)",
    },
];

/// Metadata of rule `id`, if it exists.
pub fn meta(id: &str) -> Option<&'static RuleMeta> {
    RULES.iter().find(|r| r.id == id)
}

/// Run `selected` rules (or all) over the scan set, and return findings
/// sorted by `(path, line, rule)`.
pub fn run(files: &[SourceFile], selected: Option<&str>) -> Vec<Finding> {
    let wants = |id: &str| selected.is_none() || selected == Some(id);
    let mut findings: Vec<Finding> = Vec::new();
    for file in files {
        if wants("L001") {
            l001::check(file, &mut findings);
        }
        if wants("L002") {
            l002::check(file, &mut findings);
        }
        if wants("L003") {
            l003::check(file, &mut findings);
        }
        if wants("L004") {
            l004::check(file, &mut findings);
        }
        if wants("L005") {
            l005::check(file, &mut findings);
        }
        if wants("L006") {
            l006::check(file, &mut findings);
        }
    }
    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    findings.dedup();
    findings
}
