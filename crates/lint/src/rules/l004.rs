//! L004 — a stream id declared outside the registry.
//!
//! **Historical bug class:** the whole determinism architecture hangs on
//! stream disjointness — every subsystem keys its streams with `*_STREAM`
//! / `*_FAMILY` `u64` ids so that adding an entity never perturbs another's
//! draws, and a colliding id would silently correlate two "independent"
//! streams.  Every id is an entry of the `stream_ids!` registry in
//! `crates/sim/src/rng.rs`, whose compile-time assert rejects a repeated id
//! and whose `$id:literal` matcher rejects a computed one.  An id declared
//! anywhere else escapes that check, so the rule flags every
//! `const NAME_STREAM: u64` / `const NAME_FAMILY: u64` in the scan set.

use crate::lexer::TokKind;
use crate::rules::Finding;
use crate::scan::SourceFile;

/// Run the rule over one file.
pub fn check(file: &SourceFile, findings: &mut Vec<Finding>) {
    for w in file.tokens.windows(4) {
        let [kw, name, colon, ty] = w else {
            continue;
        };
        let is_id = name.kind == TokKind::Ident
            && (name.text.ends_with("_STREAM") || name.text.ends_with("_FAMILY"));
        if kw.is_ident("const") && is_id && colon.is_punct(':') && ty.is_ident("u64") {
            findings.push(Finding {
                rule: "L004",
                path: file.rel_path.clone(),
                line: name.line,
                message: format!(
                    "stream id {} is declared outside the registry: make it an entry of \
                     `stream_ids!` in crates/sim/src/rng.rs, whose compile-time check keeps \
                     every id distinct",
                    name.text
                ),
            });
        }
    }
}
