//! Multi-replica determinism conformance binary.
//!
//! ```text
//! cargo run --release -p ss-conform --bin conform -- --all
//!     # every target: three replicas each, byte-compared against each
//!     # other and the committed golden fixture; exits nonzero on any
//!     # divergence, expectation failure or stale fixture
//! cargo run --release -p ss-conform --bin conform -- --target verify-check
//!     # restrict to named targets (repeatable) for local iteration
//! cargo run --release -p ss-conform --bin conform -- --bless
//!     # rewrite the golden fixtures from fresh canonical artifacts;
//!     # refuses to bless a target whose replicas disagree
//! cargo run --release -p ss-conform --bin conform -- --list
//!     # print the targets without running anything
//! cargo run --release -p ss-conform --bin conform -- --root PATH
//!     # resolve the fixtures under PATH (default: the workspace root
//!     # this binary was compiled in)
//! ```

use ss_conform::harness::replica_label;
use ss_conform::targets::fixture_path;
use ss_conform::{default_root, run_target, RunMode, Target, REPLICA_THREADS};

fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    eprintln!("usage: conform [--all] [--target KEY]... [--bless] [--list] [--root PATH]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut all = false;
    let mut bless = false;
    let mut list = false;
    let mut targets: Vec<Target> = Vec::new();
    let mut root = default_root();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--all" => all = true,
            "--bless" => bless = true,
            "--list" => list = true,
            "--target" => {
                let key = it
                    .next()
                    .unwrap_or_else(|| usage_error("--target needs a target key"));
                targets.push(Target::from_key(key).unwrap_or_else(|| {
                    usage_error(&format!(
                        "unknown target {key:?}; known targets: {}",
                        Target::ALL.map(Target::key).join(" ")
                    ))
                }));
            }
            "--root" => {
                let value = it
                    .next()
                    .unwrap_or_else(|| usage_error("--root needs a path"));
                root = value.into();
            }
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }
    if all && !targets.is_empty() {
        usage_error("--all and --target are mutually exclusive");
    }

    let selected: Vec<Target> = Target::ALL
        .into_iter()
        .filter(|t| targets.is_empty() || targets.contains(t))
        .collect();

    if list {
        let replicas = REPLICA_THREADS.map(replica_label).join(" ");
        for t in &selected {
            println!(
                "{:<20} replicas=[{replicas}] fixture={}",
                t.key(),
                fixture_path(t.key())
            );
            println!("{:<20} {}", "", t.description());
        }
        println!("[{} targets]", selected.len());
        return;
    }

    let mode = if bless {
        RunMode::Bless
    } else {
        RunMode::Check
    };
    let mut failed = 0usize;
    for &t in &selected {
        let outcome = run_target(
            t.key(),
            &|| t.render(),
            &|artifact| t.check(artifact),
            &root,
            mode,
        );
        print!("{}", outcome.report());
        if !outcome.pass() {
            failed += 1;
        }
    }
    println!(
        "conform: {}/{} targets conform{}",
        selected.len() - failed,
        selected.len(),
        if bless { " (bless mode)" } else { "" }
    );
    if failed > 0 {
        eprintln!("conform FAILED: {failed} target(s) diverged");
        std::process::exit(1);
    }
}
