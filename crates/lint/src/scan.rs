//! Workspace file discovery and test-code masking.
//!
//! The scan set is every `.rs` file under the facade's `src/` and under
//! `crates/*/src/` (binaries included) — the code that can reach an
//! artifact boundary.  `vendor/` shims, `tests/`, `benches/`, `examples/`
//! and fixture trees are deliberately out of scope: the determinism
//! contract binds artifact-producing source, and test code routinely does
//! things (wall clocks in timing assertions, HashSets for uniqueness
//! checks) that are fine exactly because their output is never an
//! artifact.  For the same reason `#[cfg(test)]` items inside `src/`
//! files are masked out of the token stream before rules run.

use crate::lexer::{lex, Tok};
use std::fs;
use std::path::{Path, PathBuf};

/// One lexed source file, test items masked, ready for rules.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with forward slashes (stable across hosts).
    pub rel_path: String,
    /// Token stream with `#[cfg(test)]` item bodies removed.
    pub tokens: Vec<Tok>,
}

impl SourceFile {
    /// Lex `source` as the file `rel_path` — the constructor the fixture
    /// tests use to run a rule against synthetic content under a chosen
    /// workspace-relative path.
    pub fn from_source(rel_path: &str, source: &str) -> Self {
        let mut tokens = lex(source);
        mask_cfg_test(&mut tokens);
        Self {
            rel_path: rel_path.to_string(),
            tokens,
        }
    }
}

/// Remove every `#[cfg(test)]`-gated item (attribute included) from the
/// token stream.  Handles the common shapes: a gated `mod tests { … }`
/// block, a gated item with a braced body, and a gated `mod tests;` /
/// `use …;` declaration.  Nested braces are balanced.  Only predicates that
/// hold in test builds alone count as test-gated (see
/// [`holds_only_in_tests`]).
fn mask_cfg_test(tokens: &mut Vec<Tok>) {
    let mut out: Vec<Tok> = Vec::with_capacity(tokens.len());
    let mut i = 0;
    while i < tokens.len() {
        if let Some(end) = cfg_test_item_end(tokens, i) {
            i = end;
            continue;
        }
        out.push(tokens[i].clone());
        i += 1;
    }
    *tokens = out;
}

/// Whether a `cfg` predicate (the tokens inside `cfg( … )`) holds in test
/// builds alone: `test` itself, or `all(…)` with `test` as one of its
/// direct arguments.  Anything else — `not(test)`, `any(test, …)` — can
/// hold in a release build, so the item it gates stays in the scan.
fn holds_only_in_tests(pred: &[Tok]) -> bool {
    match pred {
        [t] => t.is_ident("test"),
        [all, open, args @ .., close]
            if all.is_ident("all") && open.is_punct('(') && close.is_punct(')') =>
        {
            let mut depth = 0usize;
            args.iter().any(|t| {
                if t.is_punct('(') {
                    depth += 1;
                } else if t.is_punct(')') {
                    depth = depth.saturating_sub(1);
                }
                depth == 0 && t.is_ident("test")
            })
        }
        _ => false,
    }
}

/// If `tokens[i..]` starts a test-only `#[cfg(…)]` attribute, return the
/// index one past the end of the gated item; `None` otherwise.
fn cfg_test_item_end(tokens: &[Tok], i: usize) -> Option<usize> {
    // `#` `[` `cfg` `(` predicate `)` `]`
    if !(tokens.get(i)?.is_punct('#') && tokens.get(i + 1)?.is_punct('[')) {
        return None;
    }
    if !tokens.get(i + 2)?.is_ident("cfg") || !tokens.get(i + 3)?.is_punct('(') {
        return None;
    }
    // Find the matching `)`.
    let mut depth = 1usize;
    let mut j = i + 4;
    while j < tokens.len() && depth > 0 {
        let t = &tokens[j];
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
        }
        j += 1;
    }
    if depth > 0 || !holds_only_in_tests(&tokens[i + 4..j - 1]) || !tokens.get(j)?.is_punct(']') {
        return None;
    }
    j += 1; // past `]`
            // Skip any further attributes on the same item.
    while j + 1 < tokens.len() && tokens[j].is_punct('#') && tokens[j + 1].is_punct('[') {
        let mut depth = 1usize;
        let mut k = j + 2;
        while k < tokens.len() && depth > 0 {
            if tokens[k].is_punct('[') {
                depth += 1;
            } else if tokens[k].is_punct(']') {
                depth -= 1;
            }
            k += 1;
        }
        j = k;
    }
    // The gated item: either ends at a top-level `;` (declaration) or at
    // the close of its first top-level `{ … }` block (body).
    let mut k = j;
    while k < tokens.len() {
        let t = &tokens[k];
        if t.is_punct(';') {
            return Some(k + 1);
        }
        if t.is_punct('{') {
            let mut depth = 1usize;
            let mut m = k + 1;
            while m < tokens.len() && depth > 0 {
                if tokens[m].is_punct('{') {
                    depth += 1;
                } else if tokens[m].is_punct('}') {
                    depth -= 1;
                }
                m += 1;
            }
            return Some(m);
        }
        k += 1;
    }
    Some(tokens.len())
}

/// Collect the workspace scan set under `root`, sorted by relative path.
pub fn workspace_files(root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut paths: Vec<PathBuf> = Vec::new();
    let facade_src = root.join("src");
    if facade_src.is_dir() {
        collect_rs(&facade_src, &mut paths)?;
    }
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = Vec::new();
    if crates_dir.is_dir() {
        for entry in
            fs::read_dir(&crates_dir).map_err(|e| format!("read {}: {e}", crates_dir.display()))?
        {
            let entry = entry.map_err(|e| format!("read {}: {e}", crates_dir.display()))?;
            if entry.path().is_dir() {
                crate_dirs.push(entry.path());
            }
        }
    }
    crate_dirs.sort();
    for dir in crate_dirs {
        let src = dir.join("src");
        if src.is_dir() {
            collect_rs(&src, &mut paths)?;
        }
    }
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for path in paths {
        let source =
            fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy().into_owned())
            .collect::<Vec<_>>()
            .join("/");
        files.push(SourceFile::from_source(&rel, &source));
    }
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    for entry in fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| format!("read {}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}
