//! The `lint` binary — the blocking CI entry point of `ss-lint`.
//!
//! ```text
//! lint                 run every rule over the workspace
//! lint --rule L004     run one rule (allows for other rules exempt)
//! lint --list          print the rule table
//! lint --allows        print per-allow suppression counts (audit view)
//! lint --root PATH     explicit workspace root (default: the workspace
//!                      this binary was built from)
//! ```
//!
//! Output is deterministic: findings sorted by `(path, line, rule)`, one
//! `file:line rule message` line each, then a summary line.  Exit status
//! is nonzero on any finding or stale allow, so the CI job needs no
//! output parsing.

use std::path::PathBuf;
use std::process::exit;

fn usage_error(msg: &str) -> ! {
    eprintln!("lint: {msg}");
    eprintln!("usage: lint [--list] [--allows] [--rule KEY] [--root PATH]");
    exit(2);
}

fn main() {
    let mut list_mode = false;
    let mut allows_mode = false;
    let mut rule: Option<String> = None;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => list_mode = true,
            "--allows" => allows_mode = true,
            "--rule" => match args.next() {
                Some(r) => rule = Some(r),
                None => usage_error("--rule requires a rule ID"),
            },
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => usage_error("--root requires a path"),
            },
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }

    if list_mode {
        for r in ss_lint::rules::RULES {
            println!("{}  {:<28} {}", r.id, r.title, r.summary);
        }
        println!("[{} rules]", ss_lint::rules::RULES.len());
        return;
    }

    let root = root.unwrap_or_else(|| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")));

    let report = match ss_lint::run_workspace(&root, rule.as_deref()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lint: {e}");
            exit(2);
        }
    };

    if allows_mode {
        for (a, n) in &report.allow_uses {
            let used = match n {
                None => "exempt (rule not selected)".to_string(),
                Some(n) => format!("{n} suppressed"),
            };
            println!("{} {} — {used}\n  reason: {}", a.rule, a.path, a.reason);
        }
        println!("[{} allows]", report.allow_uses.len());
    }

    print!("{}", report.render());
    if !report.is_clean() {
        exit(1);
    }
}
