//! Serial-vs-parallel sweep throughput recorder.
//!
//! ```text
//! cargo run --release -p ss-bench --bin sweeps
//!     # full recording: threads x {turnpike, heavy_traffic, asymptotic}
//!     # sweeps plus the concurrent E1-E22 harness at --jobs 1 vs 4;
//!     # prints tables and writes BENCH_sweeps.json
//! cargo run --release -p ss-bench --bin sweeps -- --json out.json
//!     # same, custom output path
//! ```
//!
//! The binary exits nonzero if any parallel run's outputs differ from the
//! serial run's; the timings are informational.  The determinism gate
//! proper is `conform --target sweeps-check`.

use ss_bench::experiments::{all_experiments, run_experiments, Experiment};
use ss_bench::json;
use ss_bench::sweeps::sweep_workloads;
use ss_sim::pool;
use std::time::Instant;

const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];
const HARNESS_JOBS: [usize; 2] = [1, 4];

struct SweepPoint {
    workload: &'static str,
    threads: usize,
    seconds: f64,
    speedup: f64,
    identical: bool,
}

struct HarnessPoint {
    jobs: usize,
    seconds: f64,
    speedup: f64,
    identical: bool,
}

/// Best-of-3 wall-clock of `run` on a dedicated pool of `threads`.
fn timed(threads: usize, run: fn() -> Vec<f64>) -> (f64, Vec<f64>) {
    // Pool built outside the timer: thread spawn/join is setup cost, not
    // workload cost.
    let pool = pool::ThreadPool::new(threads);
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..3 {
        let start = Instant::now();
        let values = pool.install(run);
        best = best.min(start.elapsed().as_secs_f64());
        last = Some(values);
    }
    (best, last.expect("three runs completed"))
}

/// Bitwise fingerprint of a value vector (`==` on f64 would treat -0.0 and
/// 0.0 as equal and NaN as unequal to itself; the gate wants raw bits).
fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// One run of the full E1-E22 harness at `jobs` lanes; returns wall-clock
/// and the concatenated report text.
fn harness_run(jobs: usize) -> (f64, String) {
    let experiments = all_experiments();
    let selected: Vec<&Experiment> = experiments.iter().collect();
    let start = Instant::now();
    let reports = run_experiments(&selected, jobs);
    let seconds = start.elapsed().as_secs_f64();
    let mut combined = String::new();
    for r in &reports {
        // A panic would produce an identical PANICKED line at every jobs
        // value and silently satisfy the byte-identity comparison; the
        // recorder must fail hard instead.
        assert!(
            !r.panicked,
            "{} panicked during the harness timing run",
            r.id
        );
        // E21's report embeds its own wall-clock measurements, which vary
        // run to run by construction; exclude it from the byte-identity
        // fingerprint (its value-determinism is asserted by its own test).
        if r.id == "E21" {
            continue;
        }
        combined.push_str(r.id);
        combined.push('\n');
        combined.push_str(&r.report);
    }
    (seconds, combined)
}

fn write_json(
    path: &str,
    sweep_points: &[SweepPoint],
    harness_points: &[HarnessPoint],
) -> std::io::Result<()> {
    let mut body = String::from("{\n");
    body.push_str("  \"benchmark\": \"sweeps\",\n");
    body.push_str(&format!(
        "  \"generated_unix_time\": {},\n",
        json::unix_time()
    ));
    body.push_str(&json::host_env_fields());
    body.push_str(
        "  \"workloads\": \"pool-parallelised Monte-Carlo sweeps (turnpike = E6, \
         heavy_traffic = E13, asymptotic = E10 configurations) and the concurrent \
         E1-E22 experiment harness\",\n",
    );
    body.push_str(
        "  \"timing\": \"sweeps: best of 3 runs on a dedicated pool; harness: one \
         full E1-E22 run per jobs value, seconds of wall-clock\",\n",
    );
    body.push_str("  \"sweeps\": [\n");
    for (i, p) in sweep_points.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"workload\": \"{}\", \"threads\": {}, \"seconds\": {:.6}, \
             \"speedup_vs_serial\": {:.3}, \"bit_identical_to_serial\": {}}}{}\n",
            json::escape(p.workload),
            p.threads,
            p.seconds,
            p.speedup,
            p.identical,
            if i + 1 < sweep_points.len() { "," } else { "" }
        ));
    }
    body.push_str("  ],\n");
    body.push_str("  \"harness\": [\n");
    for (i, p) in harness_points.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"jobs\": {}, \"seconds\": {:.6}, \"speedup_vs_serial\": {:.3}, \
             \"reports_identical_to_serial\": {}}}{}\n",
            p.jobs,
            p.seconds,
            p.speedup,
            p.identical,
            if i + 1 < harness_points.len() {
                ","
            } else {
                ""
            }
        ));
    }
    body.push_str("  ]\n}\n");
    std::fs::write(path, body)
}

fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    eprintln!("usage: sweeps [--json PATH]");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => match it.next() {
                Some(path) if !path.starts_with("--") => json_path = Some(path.clone()),
                _ => usage_error("--json needs an output path"),
            },
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }

    let json_path = json_path.as_deref().unwrap_or("BENCH_sweeps.json");

    println!(
        "host logical CPUs: {}",
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    );
    println!("| workload | threads | wall-clock | speedup vs serial | bit-identical |");
    println!("|---|---|---|---|---|");

    let mut sweep_points = Vec::new();
    let mut all_identical = true;
    for w in sweep_workloads() {
        let (serial_secs, serial) = timed(1, w.run);
        for &threads in &THREAD_SWEEP {
            // The threads=1 row *is* the serial baseline; re-timing it
            // would waste three full runs and record timer noise as a
            // "speedup".
            let (seconds, values) = if threads == 1 {
                (serial_secs, serial.clone())
            } else {
                timed(threads, w.run)
            };
            let identical = bits(&values) == bits(&serial);
            all_identical &= identical;
            let speedup = serial_secs / seconds;
            println!(
                "| {} | {threads} | {:.1} ms | {speedup:.2}x | {identical} |",
                w.name,
                seconds * 1e3
            );
            sweep_points.push(SweepPoint {
                workload: w.name,
                threads,
                seconds,
                speedup,
                identical,
            });
        }
    }

    println!("\n| harness | jobs | wall-clock | speedup vs serial | reports identical |");
    println!("|---|---|---|---|---|");
    let mut harness_points = Vec::new();
    let mut serial_harness: Option<(f64, String)> = None;
    for &jobs in &HARNESS_JOBS {
        let (seconds, combined) = harness_run(jobs);
        let (serial_secs, identical) = match &serial_harness {
            None => {
                serial_harness = Some((seconds, combined));
                (seconds, true)
            }
            Some((serial_secs, serial_combined)) => (*serial_secs, combined == *serial_combined),
        };
        all_identical &= identical;
        let speedup = serial_secs / seconds;
        println!(
            "| E1-E22 | {jobs} | {:.1} s | {speedup:.2}x | {identical} |",
            seconds
        );
        harness_points.push(HarnessPoint {
            jobs,
            seconds,
            speedup,
            identical,
        });
    }

    if let Err(e) = write_json(json_path, &sweep_points, &harness_points) {
        eprintln!("failed to write {json_path}: {e}");
        std::process::exit(2);
    }
    println!("\nwrote {json_path}");
    if !all_identical {
        eprintln!("determinism check FAILED: parallel outputs diverged from serial");
        std::process::exit(1);
    }
}
