//! L002 — wall-clock reads outside audited sites.
//!
//! **Historical bug class:** timestamp leakage, the third hint
//! `ss-conform` classifies: a `SystemTime::now()` or `Instant::now()`
//! value that reaches report text diverges on every run.  The legitimate
//! sites are few and audited: the binaries' wall-clock timing lines and
//! E21's measured thread sweep, which the conformance renderers already
//! strip or omit (`harness_subset_report` drops `[`-prefixed lines and
//! rejects E21; `--check` renderings never include them).  Each of those
//! is an allow in `crates/lint/src/allows.rs` with its reason; any *new*
//! wall-clock read fails the lint until reviewed.

use crate::rules::Finding;
use crate::scan::SourceFile;

/// Run the rule over one file.
pub fn check(file: &SourceFile, findings: &mut Vec<Finding>) {
    let toks = &file.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if !(t.is_ident("SystemTime") || t.is_ident("Instant")) {
            continue;
        }
        // `SystemTime :: now` / `Instant :: now`.
        let now = toks.get(i + 1).is_some_and(|a| a.is_punct(':'))
            && toks.get(i + 2).is_some_and(|a| a.is_punct(':'))
            && toks.get(i + 3).is_some_and(|a| a.is_ident("now"));
        if now {
            findings.push(Finding {
                rule: "L002",
                path: file.rel_path.clone(),
                line: t.line,
                message: format!(
                    "{}::now() outside an audited wall-clock site: clock values must never \
                     reach deterministic report bytes — keep them on a stripped timing line, \
                     then add an allow to crates/lint/src/allows.rs with the reason",
                    t.text
                ),
            });
        }
    }
}
