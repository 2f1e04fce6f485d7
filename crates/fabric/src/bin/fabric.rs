//! Service-fabric scenario-suite binary.
//!
//! ```text
//! cargo run --release -p ss-fabric --bin fabric
//!     # full-budget suite: report lines + wall-clock
//! cargo run --release -p ss-fabric --bin fabric -- --check
//!     # fast budget, deterministic output only (no wall-clock); the
//!     # `fabric-check` conform target pins these bytes across pool sizes
//! SS_THREADS=4 cargo run --release -p ss-fabric --bin fabric -- --check
//!     # the same bytes from a 4-thread pool
//! cargo run --release -p ss-fabric --bin fabric -- --list
//!     # print the scenario suite without running it
//! cargo run --release -p ss-fabric --bin fabric -- --seed 7
//!     # run the suite from another master seed
//! ```
//!
//! Report lines are bit-identical for any thread count: each
//! `(scenario, replication)` cell owns an RNG stream keyed by
//! `(FABRIC_SIM_STREAM, scenario · 2^16 + rep)` and cells aggregate in
//! suite order.

use ss_fabric::scenarios::{render_suite_report, run_suite, scenario_list, Budget, DEFAULT_SEED};

fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    eprintln!("usage: fabric [--check] [--seed S] [--list]");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut check_mode = false;
    let mut list_mode = false;
    let mut seed = DEFAULT_SEED;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check" => check_mode = true,
            "--list" => list_mode = true,
            "--seed" => {
                let value = it
                    .next()
                    .unwrap_or_else(|| usage_error("--seed needs a value"));
                match value.parse::<u64>() {
                    Ok(s) => seed = s,
                    _ => usage_error(&format!("invalid --seed value {value:?}")),
                }
            }
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }

    let budget = if check_mode {
        Budget::check()
    } else {
        Budget::full()
    };
    if list_mode {
        let scenarios = scenario_list(&budget);
        for (i, s) in scenarios.iter().enumerate() {
            let disciplines: Vec<&str> = s.tiers.iter().map(|t| t.discipline.key()).collect();
            println!(
                "#{i:<3} {:<24} classes={} tiers={} disciplines={}",
                s.name,
                s.classes.len(),
                s.tiers.len(),
                disciplines.join(",")
            );
        }
        println!("[{} scenarios]", scenarios.len());
        return;
    }

    let start = std::time::Instant::now();
    let results = run_suite(seed, &budget);
    let wall = start.elapsed();

    // Rendered by the same function the ss-conform subsystem replays across
    // thread counts (`ss_fabric::scenarios::render_suite_report`).
    print!("{}", render_suite_report(seed, &results));
    if !check_mode {
        // Wall-clock is informational and varies run to run; keep it out of
        // the deterministic --check output that conform pins.
        println!("[suite finished in {wall:.1?}]");
    }
}
