//! L006 — hand-rolled seed arithmetic outside `sim/src/rng.rs`.
//!
//! **Historical bug class:** before PR 3, sweeps derived per-point seeds
//! with ad-hoc expressions like `seed ^ n * 0x9E37_79B9`, which (a) has no
//! disjointness story against any other stream and (b) silently collides
//! the moment someone reuses the multiplier.  PR 3 eradicated the pattern
//! by routing every derivation through `ss_sim::rng::RngStreams`
//! (`stream` / `substream`), whose SplitMix64 mixing is the audited,
//! single home of seed arithmetic.
//!
//! The rule flags xor / wrapping arithmetic within a two-token window of
//! any identifier mentioning `seed` — the signature of an inline seed
//! derivation — everywhere except `crates/sim/src/rng.rs`.  The lone
//! grandfathered site (`ss_bench::workloads::seed_for`, whose derived
//! seeds are frozen into every committed artifact) carries an allow in
//! `crates/lint/src/allows.rs` explaining exactly that.

use crate::lexer::TokKind;
use crate::rules::Finding;
use crate::scan::SourceFile;

/// The audited home of seed mixing.
pub const ALLOWED_PATH: &str = "crates/sim/src/rng.rs";

/// Arithmetic identifiers that mark a derivation.
const ARITH_IDENTS: &[&str] = &[
    "wrapping_mul",
    "wrapping_add",
    "wrapping_sub",
    "rotate_left",
    "rotate_right",
];

/// Run the rule over one file.
pub fn check(file: &SourceFile, findings: &mut Vec<Finding>) {
    if file.rel_path == ALLOWED_PATH {
        return;
    }
    let toks = &file.tokens;
    let mut last_line = 0u32;
    for (i, t) in toks.iter().enumerate() {
        let is_op = t.is_punct('^')
            || (t.kind == TokKind::Ident && ARITH_IDENTS.contains(&t.text.as_str()));
        if !is_op {
            continue;
        }
        let lo = i.saturating_sub(2);
        let hi = (i + 3).min(toks.len());
        let near_seed = toks[lo..hi]
            .iter()
            .any(|n| n.kind == TokKind::Ident && n.text.to_ascii_lowercase().contains("seed"));
        if near_seed && t.line != last_line {
            last_line = t.line;
            findings.push(Finding {
                rule: "L006",
                path: file.rel_path.clone(),
                line: t.line,
                message: "hand-rolled seed arithmetic outside sim/src/rng.rs: derive streams \
                          via RngStreams::stream/substream (the audited SplitMix64 mixer) so \
                          disjointness stays provable — the pattern PR 3 eradicated"
                    .to_string(),
            });
        }
    }
}
