//! `lint.toml` — the audited suppression list.
//!
//! A schema-versioned TOML subset, parsed strictly (unknown keys, unknown
//! rule IDs, duplicate entries and missing fields are hard errors, not
//! warnings).  Each `[[allow]]` names one rule at one file with a
//! **mandatory reason** — an allow is a reviewed claim that the flagged
//! pattern cannot reach an artifact byte, and the reason is where that
//! claim lives.  Allows that suppress nothing are *stale* and fail the
//! run: a fixed site must shrink the list, so the list can only describe
//! the present tree.

use crate::rules;
use std::collections::BTreeSet;

/// The schema this parser understands.
pub const SCHEMA: u32 = 1;

/// One suppression: `rule` findings in `path` are intentional.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// Rule ID (`L001`…).
    pub rule: String,
    /// Workspace-relative file path the allow applies to.
    pub path: String,
    /// Why the pattern is legitimate at this site (mandatory).
    pub reason: String,
    /// 1-based `lint.toml` line of the `[[allow]]` header (for messages).
    pub line: u32,
}

/// Parse `lint.toml` content.
pub fn parse(content: &str) -> Result<Vec<Allow>, String> {
    let mut schema_seen = false;
    let mut allows: Vec<Allow> = Vec::new();
    let mut current: Option<Allow> = None;
    for (idx, raw) in content.lines().enumerate() {
        let lineno = (idx + 1) as u32;
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if line == "[[allow]]" {
            finish(&mut current, &mut allows)?;
            current = Some(Allow {
                rule: String::new(),
                path: String::new(),
                reason: String::new(),
                line: lineno,
            });
            continue;
        }
        if line.starts_with('[') {
            return Err(format!("lint.toml:{lineno}: unknown section {line:?}"));
        }
        let (key, value) = split_kv(&line)
            .ok_or_else(|| format!("lint.toml:{lineno}: expected `key = value`, got {line:?}"))?;
        match (&mut current, key) {
            (None, "schema") => {
                let v: u32 = value
                    .parse()
                    .map_err(|_| format!("lint.toml:{lineno}: schema must be an integer"))?;
                if v != SCHEMA {
                    return Err(format!(
                        "lint.toml:{lineno}: schema {v} unsupported (this binary understands {SCHEMA})"
                    ));
                }
                schema_seen = true;
            }
            (None, other) => {
                return Err(format!(
                    "lint.toml:{lineno}: unknown top-level key {other:?}"
                ));
            }
            (Some(a), "rule") => a.rule = parse_string(value, lineno)?,
            (Some(a), "path") => a.path = parse_string(value, lineno)?,
            (Some(a), "reason") => a.reason = parse_string(value, lineno)?,
            (Some(_), other) => {
                return Err(format!(
                    "lint.toml:{lineno}: unknown [[allow]] key {other:?}"
                ));
            }
        }
    }
    finish(&mut current, &mut allows)?;
    if !schema_seen {
        return Err("lint.toml: missing `schema = 1` line".to_string());
    }
    let mut seen: BTreeSet<(String, String)> = BTreeSet::new();
    for a in &allows {
        if !seen.insert((a.rule.clone(), a.path.clone())) {
            return Err(format!(
                "lint.toml:{}: duplicate allow for {} at {}",
                a.line, a.rule, a.path
            ));
        }
    }
    Ok(allows)
}

/// Validate and push a completed `[[allow]]` block.
fn finish(current: &mut Option<Allow>, allows: &mut Vec<Allow>) -> Result<(), String> {
    if let Some(a) = current.take() {
        if a.rule.is_empty() {
            return Err(format!("lint.toml:{}: [[allow]] missing `rule`", a.line));
        }
        if rules::meta(&a.rule).is_none() {
            return Err(format!(
                "lint.toml:{}: unknown rule {:?} (see `lint --list`)",
                a.line, a.rule
            ));
        }
        if a.path.is_empty() {
            return Err(format!("lint.toml:{}: [[allow]] missing `path`", a.line));
        }
        if a.reason.trim().is_empty() {
            return Err(format!(
                "lint.toml:{}: [[allow]] missing `reason` — every suppression must say why \
                 the pattern cannot reach an artifact byte",
                a.line
            ));
        }
        allows.push(a);
    }
    Ok(())
}

/// Strip a `#` comment, respecting `"…"` quoting.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut prev_backslash = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' if !prev_backslash => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        prev_backslash = c == '\\' && !prev_backslash;
    }
    line
}

fn split_kv(line: &str) -> Option<(&str, &str)> {
    let eq = line.find('=')?;
    Some((line[..eq].trim(), line[eq + 1..].trim()))
}

/// Parse a double-quoted TOML string value (basic escapes only).
fn parse_string(value: &str, lineno: u32) -> Result<String, String> {
    let inner = value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .ok_or_else(|| format!("lint.toml:{lineno}: expected a double-quoted string"))?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some(other) => {
                    return Err(format!("lint.toml:{lineno}: unsupported escape \\{other}"));
                }
                None => return Err(format!("lint.toml:{lineno}: dangling backslash")),
            }
        } else {
            out.push(c);
        }
    }
    Ok(out)
}
