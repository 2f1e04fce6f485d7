//! Experiment harness binary.
//!
//! ```text
//! cargo run --release -p ss-bench --bin experiments                 # run everything
//! cargo run --release -p ss-bench --bin experiments -- E7 E10       # run a subset
//! cargo run --release -p ss-bench --bin experiments -- --list       # list experiments
//! cargo run --release -p ss-bench --bin experiments -- --markdown   # emit EXPERIMENTS.md
//! ```
//!
//! Experiments run concurrently on the pool's lanes (`SS_THREADS` or the
//! host's parallelism); every report is buffered and printed in E-id order
//! once all runs finish, so the report text is byte-for-byte identical for
//! any lane count, and `SS_THREADS=1` runs the experiments strictly
//! sequentially.  Two things vary run to run: the `[`-prefixed wall-clock
//! lines (`[Ex finished in ...]` and `[harness total ...]`), which the
//! conformance subset strips, and E21's report body, which embeds its own
//! measured thread-sweep timings — byte-identity consumers must exclude
//! E21 (the conformance subset does).
//!
//! A panicking experiment does not abort the harness: its report is
//! replaced by a `PANICKED:` line, everything that finished still prints,
//! and the binary exits nonzero at the end.

use ss_bench::experiments::{
    all_experiments, markdown_document, run_experiments, select_experiments, Experiment,
};

fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    eprintln!("usage: experiments [--list] [--markdown] [E1 E2 ...]");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let experiments = all_experiments();

    let mut markdown_mode = false;
    let mut list_mode = false;
    let mut ids: Vec<String> = Vec::new();
    for arg in &args {
        match arg.as_str() {
            "--list" => list_mode = true,
            "--markdown" => markdown_mode = true,
            flag if flag.starts_with("--") => usage_error(&format!("unknown flag {flag:?}")),
            id => ids.push(id.to_string()),
        }
    }
    if markdown_mode && !ids.is_empty() {
        // The markdown document's header claims the full E1-E22 suite; a
        // subset would silently overwrite EXPERIMENTS.md with partial data.
        usage_error("--markdown regenerates the full document; don't combine it with ids");
    }

    if list_mode {
        for e in &experiments {
            println!("{:<4} {}", e.id, e.description);
        }
        return;
    }

    let selected: Vec<&Experiment> = if ids.is_empty() {
        experiments.iter().collect()
    } else {
        select_experiments(&experiments, &ids)
            .unwrap_or_else(|e| usage_error(&format!("{e}; use --list to see the available ids")))
    };

    let lanes = ss_sim::pool::num_threads();
    let start = std::time::Instant::now();
    let reports = run_experiments(&selected);
    let total = start.elapsed();
    let panicked: Vec<&str> = reports
        .iter()
        .filter(|r| r.panicked)
        .map(|r| r.id)
        .collect();

    if markdown_mode {
        // Never emit a partial document: this mode's stdout is usually
        // redirected straight over EXPERIMENTS.md.
        if !panicked.is_empty() {
            eprintln!("refusing to emit markdown: experiments panicked: {panicked:?}");
            std::process::exit(1);
        }
        print!("{}", markdown_document(&reports));
        return;
    }

    for r in &reports {
        println!("\n================================================================");
        println!("{} — {}", r.id, r.description);
        println!("================================================================\n");
        println!("{}", r.report);
        println!("[{} finished in {:.1?}]", r.id, r.wall);
    }
    println!("\n[harness total: {total:.1?} on {lanes} lanes]");
    if !panicked.is_empty() {
        eprintln!("experiments panicked: {panicked:?}");
        std::process::exit(1);
    }
}
