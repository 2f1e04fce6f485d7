//! L005 — bare `{}` / `{:?}` float formatting in render modules.
//!
//! **Historical bug class:** float-formatting divergence, the fourth hint
//! `ss-conform` classifies: two renderers printing the same `f64` through
//! different (or version-dependent) `Display` paths produce different
//! bytes for the same value.  The repo's convention is to pin the
//! rendering at the artifact boundary — `{v:.17e}` plus `{:016x}` raw
//! bits in conformance artifacts, explicit `{:.6}`/`{:.3e}` in report
//! lines — so formatting can never drift independently of the value.
//!
//! The rule runs only over the designated check-report/render modules
//! ([`RENDER_PATHS`]) and flags, inside format-macro calls:
//!
//! * every `{:?}` placeholder — `Debug` output is explicitly not a stable
//!   artifact rendering;
//! * every bare `{}` (or `{name}`) placeholder whose argument *smells
//!   like a float*: a float literal, an `f64`/`f32` token, or an
//!   identifier from the float-accessor vocabulary these modules actually
//!   render ([`FLOAT_HINTS`]).
//!
//! Type-blind token rules cannot prove floatness, so the vocabulary is an
//! over-approximation tuned to this workspace; a false positive is
//! silenced with a `lint.toml` allow carrying the reviewer's reasoning.

use crate::lexer::{num_is_float, Tok, TokKind};
use crate::rules::Finding;
use crate::scan::SourceFile;

/// The check-report / render modules the rule polices: every module whose
/// format calls produce bytes that land in a committed fixture or a
/// `--check` report.
pub const RENDER_PATHS: &[&str] = &[
    "crates/verify/src/run.rs",
    "crates/fabric/src/metrics.rs",
    "crates/fabric/src/scenarios.rs",
    "crates/bench/src/conformance.rs",
];

/// Identifier vocabulary that marks an argument as float-valued in these
/// modules (field/method names the render code actually passes).
pub const FLOAT_HINTS: &[&str] = &[
    "mean",
    "mean_wait",
    "std_dev",
    "ci95",
    "ci_half_width",
    "half_width",
    "utilization",
    "p50",
    "p90",
    "p95",
    "p99",
    "quantile",
    "simulated",
    "exact",
    "abs_error",
    "allowed",
    "rtt_mean",
    "goodput",
    "speedup",
];

/// Format-macro names whose first string literal is a format string.
const FORMAT_MACROS: &[&str] = &[
    "format",
    "format_args",
    "print",
    "println",
    "eprint",
    "eprintln",
    "write",
    "writeln",
    "panic",
    "assert",
    "debug_assert",
];

/// Run the rule over one file.
pub fn check(file: &SourceFile, findings: &mut Vec<Finding>) {
    if !RENDER_PATHS.contains(&file.rel_path.as_str()) {
        return;
    }
    let toks = &file.tokens;
    let mut i = 0;
    while i < toks.len() {
        let is_macro = toks[i].kind == TokKind::Ident
            && FORMAT_MACROS.contains(&toks[i].text.as_str())
            && toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
            && toks
                .get(i + 2)
                .is_some_and(|t| t.is_punct('(') || t.is_punct('['));
        if !is_macro {
            i += 1;
            continue;
        }
        let open = i + 2;
        let close = matching_delim(toks, open);
        check_call(file, &toks[open + 1..close], findings);
        i = close + 1;
    }
}

/// Index of the delimiter matching the one at `open`.
fn matching_delim(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    toks.len()
}

/// Inspect one format-macro argument list.
fn check_call(file: &SourceFile, args: &[Tok], findings: &mut Vec<Finding>) {
    // The format string: the first string literal at top level.  For
    // `write!(w, "…", …)` that skips the writer expression.
    let Some(fmt_idx) = args.iter().position(|t| t.kind == TokKind::Str) else {
        return;
    };
    let fmt = &args[fmt_idx];
    let positional = split_args(&args[fmt_idx + 1..]);
    for ph in placeholders(&fmt.text) {
        match ph.spec.as_str() {
            "?" | "#?" => findings.push(Finding {
                rule: "L005",
                path: file.rel_path.clone(),
                line: fmt.line,
                message: format!(
                    "{{:{}}} in a render module: Debug formatting is not a pinned artifact \
                     rendering — print values with an explicit format ({{:.17e}}, {{:016x}}) \
                     or keep them out of artifact bytes",
                    ph.spec
                ),
            }),
            "" => {
                let float = match &ph.name {
                    // `{name}` inline capture: the argument *is* the name.
                    Some(name) if !positional_named(&positional, name) => {
                        FLOAT_HINTS.contains(&name.as_str())
                    }
                    Some(name) => named_arg_is_float(&positional, name),
                    None => positional
                        .get(ph.index)
                        .is_some_and(|a| arg_smells_float(a)),
                };
                if float {
                    findings.push(Finding {
                        rule: "L005",
                        path: file.rel_path.clone(),
                        line: fmt.line,
                        message: "bare {} float formatting in a render module: Display output \
                                  is not a pinned artifact rendering — use {:.17e} (or to_bits \
                                  via {:016x}) at the artifact boundary"
                            .to_string(),
                    });
                }
            }
            _ => {} // explicit spec ({:.6}, {:.3e}, {:016x}, {:>3}, …) is pinned
        }
    }
}

/// One parsed placeholder.
struct Placeholder {
    /// Inline / named argument, if any (`{seed}` → `Some("seed")`).
    name: Option<String>,
    /// Positional index among unnamed placeholders.
    index: usize,
    /// Format spec after `:` (empty for bare `{}`).
    spec: String,
}

/// Parse `{…}` placeholders out of a format string (escaped `{{`/`}}`
/// skipped).
fn placeholders(fmt: &str) -> Vec<Placeholder> {
    let b = fmt.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    let mut positional = 0usize;
    while i < b.len() {
        if b[i] == b'{' {
            if b.get(i + 1) == Some(&b'{') {
                i += 2;
                continue;
            }
            let end = match fmt[i + 1..].find('}') {
                Some(off) => i + 1 + off,
                None => break,
            };
            let body = &fmt[i + 1..end];
            let (head, spec) = match body.find(':') {
                Some(c) => (&body[..c], &body[c + 1..]),
                None => (body, ""),
            };
            let (name, index) = if head.is_empty() {
                let idx = positional;
                positional += 1;
                (None, idx)
            } else if head.bytes().all(|c| c.is_ascii_digit()) {
                (None, head.parse().unwrap_or(0))
            } else {
                (Some(head.to_string()), 0)
            };
            out.push(Placeholder {
                name,
                index,
                spec: spec.to_string(),
            });
            i = end + 1;
        } else if b[i] == b'}' && b.get(i + 1) == Some(&b'}') {
            i += 2;
        } else {
            i += 1;
        }
    }
    out
}

/// Split trailing macro arguments at top-level commas.
fn split_args(toks: &[Tok]) -> Vec<Vec<Tok>> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut current: Vec<Tok> = Vec::new();
    for t in toks {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth = depth.saturating_sub(1);
        } else if t.is_punct(',') && depth == 0 {
            if !current.is_empty() {
                out.push(std::mem::take(&mut current));
            }
            continue;
        }
        current.push(t.clone());
    }
    if !current.is_empty() {
        out.push(current);
    }
    out
}

/// Whether a `name = expr` trailing argument exists for `name`.
fn positional_named(args: &[Vec<Tok>], name: &str) -> bool {
    args.iter().any(|a| {
        a.first().is_some_and(|t| t.is_ident(name)) && a.get(1).is_some_and(|t| t.is_punct('='))
    })
}

/// Float-smell of a `name = expr` argument's expression.
fn named_arg_is_float(args: &[Vec<Tok>], name: &str) -> bool {
    args.iter()
        .filter(|a| {
            a.first().is_some_and(|t| t.is_ident(name)) && a.get(1).is_some_and(|t| t.is_punct('='))
        })
        .any(|a| arg_smells_float(&a[2..]))
}

/// The float-smell heuristic over one argument expression.
fn arg_smells_float(arg: &[Tok]) -> bool {
    arg.iter().any(|t| match t.kind {
        TokKind::Num => num_is_float(&t.text),
        TokKind::Ident => {
            t.text == "f64" || t.text == "f32" || FLOAT_HINTS.contains(&t.text.as_str())
        }
        _ => false,
    })
}
