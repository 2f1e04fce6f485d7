//! Serial-vs-parallel replication throughput recorder.
//!
//! ```text
//! cargo run --release -p ss-bench --bin parallel_replications
//!     # full sweep (threads x replication counts), prints a table and
//!     # writes BENCH_parallel_replications.json
//! cargo run --release -p ss-bench --bin parallel_replications -- --json out.json
//!     # same, custom output path
//! ```
//!
//! The binary exits nonzero if any parallel run's per-replication values
//! differ from the serial run's; the timings are informational.  The
//! determinism gate proper is `conform --target replications-check`.

use ss_bench::experiments::parallel_replication_workload;
use ss_bench::json;
use ss_sim::pool;
use std::time::Instant;

const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];
const REPLICATION_SWEEP: [usize; 2] = [100, 500];

struct Point {
    threads: usize,
    replications: usize,
    seconds: f64,
    speedup: f64,
    identical: bool,
}

/// Best-of-3 wall-clock of the workload on a dedicated pool of `threads`.
fn timed(threads: usize, replications: usize) -> (f64, ss_sim::ReplicationSummary) {
    // Pool built outside the timer: thread spawn/join is setup cost, not
    // workload cost.
    let pool = pool::ThreadPool::new(threads);
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..3 {
        let start = Instant::now();
        let summary = pool.install(|| parallel_replication_workload(replications));
        best = best.min(start.elapsed().as_secs_f64());
        last = Some(summary);
    }
    (best, last.expect("three runs completed"))
}

fn write_json(path: &str, points: &[Point]) -> std::io::Result<()> {
    let mut body = String::from("{\n");
    body.push_str("  \"benchmark\": \"parallel_replications\",\n");
    body.push_str(&format!(
        "  \"generated_unix_time\": {},\n",
        json::unix_time()
    ));
    body.push_str(&json::host_env_fields());
    body.push_str(
        "  \"workload\": \"ss-batch list-schedule simulation: 200 mixed-distribution jobs on 4 \
         machines, E[sum C] by independent replications (experiment E21 workload)\",\n",
    );
    body.push_str("  \"timing\": \"best of 3 runs, seconds of wall-clock per full summary\",\n");
    body.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"threads\": {}, \"replications\": {}, \"seconds\": {:.6}, \
             \"speedup_vs_serial\": {:.3}, \"bit_identical_to_serial\": {}}}{}\n",
            p.threads,
            p.replications,
            p.seconds,
            p.speedup,
            p.identical,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    body.push_str("  ]\n}\n");
    std::fs::write(path, body)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = match args.as_slice() {
        [] => "BENCH_parallel_replications.json",
        [flag, path] if flag == "--json" => path.as_str(),
        _ => {
            eprintln!("usage: parallel_replications [--json PATH]");
            std::process::exit(1);
        }
    };

    let host = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    println!("host logical CPUs: {host}");
    println!("| threads | replications | wall-clock | speedup vs serial | bit-identical |");
    println!("|---|---|---|---|---|");

    let mut points = Vec::new();
    let mut all_identical = true;
    for &replications in &REPLICATION_SWEEP {
        let (serial_secs, serial) = timed(1, replications);
        for &threads in &THREAD_SWEEP {
            let (seconds, summary) = timed(threads, replications);
            let identical = summary.values == serial.values;
            all_identical &= identical;
            let speedup = serial_secs / seconds;
            println!(
                "| {threads} | {replications} | {:.1} ms | {speedup:.2}x | {identical} |",
                seconds * 1e3
            );
            points.push(Point {
                threads,
                replications,
                seconds,
                speedup,
                identical,
            });
        }
    }

    if let Err(e) = write_json(json_path, &points) {
        eprintln!("failed to write {json_path}: {e}");
        std::process::exit(2);
    }
    println!("\nwrote {json_path}");
    if !all_identical {
        eprintln!("determinism check FAILED: parallel values diverged from serial");
        std::process::exit(1);
    }
}
