//! L003 — `debug_assert!` guarding numeric validity on release paths.
//!
//! **Historical bug class:** twice shipped.  PR 6 found the engine's
//! nondecreasing-time guard was debug-only while the over-horizon event
//! drop it would have caught ran in release; PR 9 found `select_class`
//! guarded NaN indices with a `debug_assert!` while release builds
//! silently mis-selected on NaN.  Both times the guard *knew* the
//! invariant and the release binary ignored it.
//!
//! The rule flags `debug_assert!` (not the `_eq`/`_ne` variants — integer
//! equality checks on structurally-derived values are the usual legitimate
//! residents) whose predicate involves numeric validity or ordering:
//! `is_nan` / `is_finite` / `is_infinite`, or a `<` `>` `<=` `>=`
//! comparison.  The fix is to promote the guard to `assert!` (the PR 6 /
//! PR 9 precedent) or restructure so the invariant holds by construction;
//! an allow in `crates/lint/src/allows.rs` records the rare hot-path
//! exception.

use crate::lexer::Tok;
use crate::rules::Finding;
use crate::scan::SourceFile;

/// Run the rule over one file.
pub fn check(file: &SourceFile, findings: &mut Vec<Finding>) {
    let toks = &file.tokens;
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("debug_assert")
            && toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
        {
            let line = toks[i].line;
            let end = matching_paren(toks, i + 2);
            if predicate_is_numeric(&toks[i + 3..end]) {
                findings.push(Finding {
                    rule: "L003",
                    path: file.rel_path.clone(),
                    line,
                    message: "debug_assert! guarding numeric validity/ordering compiles out in \
                              release builds (the PR 6 horizon-drop / PR 9 NaN-selection bug \
                              class) — promote to assert! or make the invariant hold by \
                              construction"
                        .to_string(),
                });
            }
            i = end;
        } else {
            i += 1;
        }
    }
}

/// Index of the `)` matching the `(` at `open` (or `toks.len()`).
fn matching_paren(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    toks.len()
}

/// Whether the predicate tokens involve numeric validity or ordering.
fn predicate_is_numeric(pred: &[Tok]) -> bool {
    for (j, t) in pred.iter().enumerate() {
        if t.is_ident("is_nan") || t.is_ident("is_finite") || t.is_ident("is_infinite") {
            return true;
        }
        if (t.is_punct('<') || t.is_punct('>')) && is_comparison(pred, j) {
            return true;
        }
    }
    false
}

/// Disambiguate a `<`/`>` at `j` from turbofish, shifts and arrows.
fn is_comparison(pred: &[Tok], j: usize) -> bool {
    let prev = j.checked_sub(1).and_then(|k| pred.get(k));
    let next = pred.get(j + 1);
    let this_lt = pred[j].is_punct('<');
    // Shift operators: `<<` / `>>` (either neighbour matches).
    if next.is_some_and(|t| t.is_punct('<')) && this_lt {
        return false;
    }
    if prev.is_some_and(|t| t.is_punct('<')) && this_lt {
        return false;
    }
    if next.is_some_and(|t| t.is_punct('>')) && !this_lt {
        return false;
    }
    if prev.is_some_and(|t| t.is_punct('>')) && !this_lt {
        return false;
    }
    // Fat arrow `=>` and thin arrow `->`.
    if !this_lt && prev.is_some_and(|t| t.is_punct('=') || t.is_punct('-')) {
        return false;
    }
    // Turbofish / qualified generics: `::<` … `>`; conservatively skip a
    // `<` directly preceded by `:` and a `>` directly followed by `(` or
    // `::` (end of a generic path).
    if this_lt && prev.is_some_and(|t| t.is_punct(':')) {
        return false;
    }
    if !this_lt && next.is_some_and(|t| t.is_punct(':')) {
        return false;
    }
    true
}
