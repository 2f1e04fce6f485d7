//! `ss-lint` — the workspace determinism-contract static analyzer.
//!
//! The repo's core invariant — every artifact is bit-identical across
//! `SS_THREADS`, seeds are pure, check reports are byte-stable — was
//! historically enforced only *dynamically*: conform replicas, fixture
//! diffs and `--check` gates catch a violation hours after it is written,
//! and only when a fixture happens to exercise it.  Yet every divergence
//! class conform localizes (map ordering, timestamp leakage, float
//! formatting, truncation) and both recent real bugs (PR 6's
//! debug-only horizon guard, PR 9's `debug_assert!`-only NaN guard) are
//! *statically recognizable in source*.  This crate rejects them at
//! review time instead.
//!
//! Architecture (pure `std`, consistent with the offline vendor policy):
//!
//! * [`lexer`] — a small hand-rolled Rust lexer that strips comments and
//!   understands string/raw-string/char/lifetime literals, so no rule can
//!   fire inside a string or a comment;
//! * [`scan`] — workspace file discovery (`src/` trees only; `vendor/`,
//!   tests, benches out of scope) and `#[cfg(test)]` masking;
//! * [`rules`] — the six token-level rules L001–L006, each anchored on a
//!   historical bug class (see the table in [`rules`]);
//! * [`allows`] — the suppression list, a Rust table with mandatory
//!   reasons and a hard error on stale allows.
//!
//! The `lint` binary (`--list`, `--rule KEY`, `--allows`) prints findings
//! as deterministic sorted `file:line rule message` lines and is a
//! blocking CI job.

pub mod allows;
pub mod lexer;
pub mod rules;
pub mod scan;

use allows::{Allow, ALLOWS};
use rules::Finding;
use std::path::Path;

/// Outcome of a lint run.
#[derive(Debug)]
pub struct Report {
    /// Findings that survived the allow list, sorted by (path, line, rule).
    pub findings: Vec<Finding>,
    /// Number of findings suppressed by allows.
    pub suppressed: usize,
    /// Per-allow suppression counts, in allow-list order ([`ALLOWS`] for a
    /// workspace run).  `None` means the allow's rule was outside a
    /// `--rule` selection (exempt from the staleness check — it had no
    /// chance to match).
    pub allow_uses: Vec<(Allow, Option<usize>)>,
}

impl Report {
    /// Allows that suppressed nothing — each is a hard error.
    pub fn stale_allows(&self) -> Vec<&Allow> {
        self.allow_uses
            .iter()
            .filter(|(_, n)| *n == Some(0))
            .map(|(a, _)| a)
            .collect()
    }

    /// Whether the run is clean: no findings, no stale allows.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && self.stale_allows().is_empty()
    }

    /// The deterministic report text the binary prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.render());
            out.push('\n');
        }
        for a in self.stale_allows() {
            out.push_str(&format!(
                "crates/lint/src/allows.rs: stale allow: {} at {} suppressed nothing — the site \
                 was fixed or moved; remove the entry (reason was: {})\n",
                a.rule, a.path, a.reason
            ));
        }
        out.push_str(&format!(
            "lint: {} finding(s), {} suppressed by {} allow(s), {} stale allow(s)\n",
            self.findings.len(),
            self.suppressed,
            self.allow_uses.len(),
            self.stale_allows().len()
        ));
        out
    }
}

/// Run the analyzer over the workspace at `root`.
///
/// `selected` restricts the run to one rule ID; allows for unselected
/// rules are then exempt from the staleness check (they had no chance to
/// match).
pub fn run_workspace(root: &Path, selected: Option<&str>) -> Result<Report, String> {
    if let Some(rule) = selected {
        if rules::meta(rule).is_none() {
            return Err(format!("unknown rule {rule:?} (see `lint --list`)"));
        }
    }
    let files = scan::workspace_files(root)?;
    Ok(apply_allows(rules::run(&files, selected), ALLOWS, selected))
}

/// Partition raw findings through the allow list.
pub fn apply_allows(raw: Vec<Finding>, allows: &[Allow], selected: Option<&str>) -> Report {
    let mut counts = vec![0usize; allows.len()];
    let mut findings = Vec::new();
    let mut suppressed = 0usize;
    for f in raw {
        match allows
            .iter()
            .position(|a| a.rule == f.rule && a.path == f.path)
        {
            Some(i) => {
                counts[i] += 1;
                suppressed += 1;
            }
            None => findings.push(f),
        }
    }
    // Allows for rules outside the selected set could not have matched;
    // exempt them from the staleness check.
    let allow_uses = allows
        .iter()
        .copied()
        .zip(counts)
        .map(|(a, n)| {
            let exempt = selected.is_some_and(|rule| a.rule != rule);
            let n = if exempt { None } else { Some(n) };
            (a, n)
        })
        .collect();
    Report {
        findings,
        suppressed,
        allow_uses,
    }
}
