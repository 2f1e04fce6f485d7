//! Lexer correctness suite: the whole point of lexing (rather than
//! grepping) is that no rule can fire inside a string literal, a raw
//! string, a comment or a doc comment — and that chars, lifetimes and
//! numbers stay classified apart.  Each test here seeds rule-trigger
//! text into one of those contexts and asserts total silence.

use ss_lint::lexer::{lex, num_is_float, TokKind};
use ss_lint::rules;
use ss_lint::scan::SourceFile;

/// Run *all* rules over `source` scanned under a path that is both an
/// artifact crate and an L005 render module, so any token leak out of a
/// literal or comment would fire something.
fn all_findings(source: &str) -> Vec<String> {
    let file = SourceFile::from_source("crates/fabric/src/metrics.rs", source);
    rules::run(std::slice::from_ref(&file), None)
        .into_iter()
        .map(|f| f.render())
        .collect()
}

#[test]
fn string_contents_do_not_trigger_rules() {
    let src = r#"
pub fn banner() -> &'static str {
    "SystemTime::now() HashMap HashSet debug_assert!(x.is_nan()) seed ^ 1"
}
"#;
    assert_eq!(all_findings(src), Vec::<String>::new());
}

#[test]
fn raw_string_contents_do_not_trigger_rules() {
    let src = r##"
pub fn raw() -> &'static str {
    r"Instant::now() in a raw string, const FAKE_STREAM: u64 = 1;"
}
"##;
    assert_eq!(all_findings(src), Vec::<String>::new());
}

#[test]
fn hashed_raw_string_contents_do_not_trigger_rules() {
    let src = r###"
pub fn hashed() -> &'static str {
    r#"a "quoted" SystemTime::now() and seed ^ mix inside r#-hashes"#
}
"###;
    assert_eq!(all_findings(src), Vec::<String>::new());
}

#[test]
fn byte_string_contents_do_not_trigger_rules() {
    let src = r#"
pub fn bytes() -> &'static [u8] {
    b"HashMap Instant::now() wrapping_mul(seed)"
}
"#;
    assert_eq!(all_findings(src), Vec::<String>::new());
}

#[test]
fn escaped_quotes_do_not_leak_the_rest_of_the_string() {
    // If the lexer mishandled `\"`, the tail of the literal would lex as
    // code and `HashMap` / `SystemTime::now()` would fire.
    let src = r#"
pub fn tricky() -> &'static str {
    "prefix \" HashMap SystemTime::now() still inside \\"
}
"#;
    assert_eq!(all_findings(src), Vec::<String>::new());
}

#[test]
fn comments_produce_no_tokens_and_no_findings() {
    let src = "
// SystemTime::now() in a line comment
/// HashMap in a doc comment
/** HashSet in a block doc comment */
/* debug_assert!(t.is_nan()) in /* a nested */ block comment */
pub fn noop() {}
";
    assert_eq!(all_findings(src), Vec::<String>::new());
    // And the token stream really is just the item.
    let kinds: Vec<String> = lex(src).iter().map(|t| t.text.clone()).collect();
    assert_eq!(kinds, vec!["pub", "fn", "noop", "(", ")", "{", "}"]);
}

#[test]
fn cfg_test_items_are_masked() {
    let src = "
use std::collections::BTreeMap;

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    fn helper() {
        let _ = HashMap::new();
        let _ = std::time::Instant::now();
        let _ = 1u64 ^ test_seed();
    }
}

pub fn keep() -> BTreeMap<u64, u64> {
    BTreeMap::new()
}
";
    assert_eq!(all_findings(src), Vec::<String>::new());
}

#[test]
fn cfg_all_test_declarations_are_masked() {
    // `cfg(all(test, …))` predicates and `;`-terminated gated items.
    let src = "
#[cfg(all(test, feature = \"slow\"))]
use std::collections::HashSet;

pub fn keep() {}
";
    assert_eq!(all_findings(src), Vec::<String>::new());
}

#[test]
fn non_test_cfg_is_not_masked() {
    // A cfg gate that can hold outside test builds must stay in the
    // stream: one that does not mention `test`, `not(test)` (compiled only
    // in release builds) and `any(test, …)`.
    for gate in [
        "feature = \"extra\"",
        "not(test)",
        "any(test, feature = \"x\")",
    ] {
        let src = format!("\n#[cfg({gate})]\nuse std::collections::HashMap;\n");
        let findings = all_findings(&src);
        assert_eq!(findings.len(), 1, "cfg({gate}): {findings:?}");
        assert!(findings[0].contains("L001"), "cfg({gate}): {findings:?}");
    }
}

#[test]
fn char_literals_and_lifetimes_are_distinguished() {
    let toks = lex("fn f<'a>(x: &'a str) -> char { 'x' }");
    let lifetimes: Vec<&str> = toks
        .iter()
        .filter(|t| t.kind == TokKind::Lifetime)
        .map(|t| t.text.as_str())
        .collect();
    assert_eq!(lifetimes, vec!["a", "a"]);
    let chars: Vec<&str> = toks
        .iter()
        .filter(|t| t.kind == TokKind::Char)
        .map(|t| t.text.as_str())
        .collect();
    assert_eq!(chars, vec!["x"]);
    // No string token: the quotes were not misread as a string.
    assert!(toks.iter().all(|t| t.kind != TokKind::Str));
}

#[test]
fn escaped_char_literals_lex_as_chars() {
    let toks = lex(r"let c = '\n'; let s = 'static_lifetime_free';");
    assert!(toks.iter().any(|t| t.kind == TokKind::Char));
}

#[test]
fn raw_identifiers_are_not_strings() {
    // `r#type` must not be misread as the start of a raw string.
    let toks = lex("fn take(r#type: u64) -> u64 { r#type }");
    assert!(toks.iter().all(|t| t.kind != TokKind::Str));
    assert!(toks.iter().any(|t| t.is_ident("type")));
}

#[test]
fn token_lines_are_one_based_and_accurate() {
    let toks = lex("alpha\nbeta gamma\n\ndelta");
    let lines: Vec<(String, u32)> = toks.iter().map(|t| (t.text.clone(), t.line)).collect();
    assert_eq!(
        lines,
        vec![
            ("alpha".to_string(), 1),
            ("beta".to_string(), 2),
            ("gamma".to_string(), 2),
            ("delta".to_string(), 4),
        ]
    );
}

#[test]
fn numeric_literal_classification() {
    for float in [
        "1.5", "1.", "1e9", "2E-3", "6.02e23", "3f64", "1_000.5", "9f32",
    ] {
        assert!(num_is_float(float), "{float} should classify as float");
    }
    for int in [
        "1",
        "1_000",
        "0x4641_0001",
        "0b1010",
        "0o777",
        "10usize",
        "7u64",
        "255u8",
    ] {
        assert!(!num_is_float(int), "{int} should classify as integer");
    }
}

#[test]
fn ranges_and_method_calls_are_not_swallowed_by_numbers() {
    // `0..n` must lex as Num(0) `.` `.` Ident(n), not a malformed float.
    let toks = lex("for i in 0..n { x.0.count_ones(); }");
    let nums: Vec<&str> = toks
        .iter()
        .filter(|t| t.kind == TokKind::Num)
        .map(|t| t.text.as_str())
        .collect();
    assert_eq!(nums, vec!["0", "0"]);
}
