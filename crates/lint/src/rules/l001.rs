//! L001 — `HashMap`/`HashSet` in artifact-producing crates.
//!
//! **Historical bug class:** map-ordering divergence, the second hint
//! `ss-conform` classifies (`divergence.rs`): iterating a `HashMap` or
//! `HashSet` while building artifact text makes the byte order depend on
//! the hasher's per-process state.  The rule over-approximates — it flags
//! every *use* of the types in artifact-producing crates, not just
//! iteration, because at token level "this map is never iterated" is a
//! claim only a reviewer can make.  That claim is exactly what an allow in
//! `crates/lint/src/allows.rs` records (e.g. an exact-bits-keyed cache
//! that is only ever read with `get` and written with `insert`).
//!
//! Scope: the artifact dataflow — every crate whose output can reach a
//! committed fixture, bench artifact or CI-diffed report.  `ss-conform`
//! (which *consumes* artifacts; its comparison log is not an artifact) and
//! `ss-lint` itself are out of scope, as is test code (masked by the
//! scanner).

use crate::rules::Finding;
use crate::scan::SourceFile;

/// Path prefixes of the artifact-producing crates (plus the facade).
pub const ARTIFACT_PATHS: &[&str] = &[
    "src/",
    "crates/core/",
    "crates/distributions/",
    "crates/sim/",
    "crates/lp/",
    "crates/mdp/",
    "crates/batch/",
    "crates/bandits/",
    "crates/queueing/",
    "crates/fabric/",
    "crates/verify/",
    "crates/bench/",
];

/// Run the rule over one file.
pub fn check(file: &SourceFile, findings: &mut Vec<Finding>) {
    if !ARTIFACT_PATHS.iter().any(|p| file.rel_path.starts_with(p)) {
        return;
    }
    let mut last_line = 0u32;
    for t in &file.tokens {
        let hit = t.is_ident("HashMap") || t.is_ident("HashSet");
        if hit && t.line != last_line {
            last_line = t.line;
            findings.push(Finding {
                rule: "L001",
                path: file.rel_path.clone(),
                line: t.line,
                message: format!(
                    "{} in an artifact-producing crate: iteration order is \
                     per-process and can leak into artifact bytes — use BTreeMap/BTreeSet or a \
                     sorted Vec, or add an allow to crates/lint/src/allows.rs stating why \
                     ordering cannot escape",
                    t.text
                ),
            });
        }
    }
}
