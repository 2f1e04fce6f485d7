//! perfbench: the repository's benchmark.  It times the service-fabric
//! simulator and the oracle corpus from outside, end to end and layer by
//! layer.  README.md explains the workloads, the metrics and how to
//! re-record the goldens.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--record]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod check;
mod fabric;
mod layers;
mod timing;
mod trace;
mod verify;

use std::hint::black_box;
use std::ops::Range;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use ss_fabric::{FabricConfig, FabricReport};
use ss_sim::pool::with_threads;
use ss_verify::{Corpus, ScenarioReport};

use check::Checker;
use layers::{LayerCosts, Replays};
use timing::{calibration_after, fastest, peak_rss_mib, quantile, CALIBRATION_REF_NS};
use trace::{since, within, Trace};

/// Pool lanes of every run.  The run installs its own pool, so
/// `SS_THREADS` has no effect.  One lane: on a shared host a second lane
/// doubles the run-to-run spread, because a round then waits on whichever
/// lane a co-tenant slows.
const THREADS: usize = 1;
/// Timed rounds per run, at least.
const MIN_ROUNDS: usize = 5;
/// A set-up sample times a batch of set-ups lasting at least this long, so
/// that even a set-up of microseconds reads steadily.
const SETUP_BATCH: Duration = Duration::from_millis(10);
/// `setup_s` is the median of this many slices of a run, each read from its
/// fastest set-up batch and fastest calibration.  A busy host slows a
/// set-up of allocations more than the calibration loop (1.9× against 1.4×
/// in one run), so a per-batch ratio does not cancel it; a slice's fastest
/// batch ran while the host was calm.
const SETUP_SLICES: usize = 9;
/// Traced builds of every scenario's disciplines, and traced corpus
/// generations, in a traced run.
const BUILD_REPEATS: usize = 9;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    FabricIndexed,
    FabricFaults,
    VerifyCorpus,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::FabricIndexed,
        Workload::FabricFaults,
        Workload::VerifyCorpus,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::FabricIndexed => "fabric-indexed",
            Workload::FabricFaults => "fabric-faults",
            Workload::VerifyCorpus => "verify-corpus",
        }
    }

    fn scenarios(self) -> &'static [&'static str] {
        match self {
            Workload::FabricIndexed => &fabric::INDEXED,
            Workload::FabricFaults => &fabric::FAULTS,
            Workload::VerifyCorpus => &[],
        }
    }
}

/// The result of one round of any workload.
pub struct RoundOutcome {
    pub wall_ns: u64,
    /// The round's span, when traced.
    pub root: Option<usize>,
    pub text: String,
    /// Per operation (a fabric cell or a corpus scenario): why it failed.
    pub op_errors: Vec<Option<String>>,
    /// A failed check of the output as a whole.
    pub round_error: Option<String>,
    /// Per rendered line: the operations that produced it.
    pub line_ops: Vec<Option<Range<usize>>>,
    pub results: Results,
}

pub enum Results {
    Fabric(Vec<(String, FabricReport)>),
    Verify(Vec<ScenarioReport>),
}

impl RoundOutcome {
    /// Units of work done: calendar events (fabric) or oracle verdicts
    /// (the corpus solvers count no events).
    fn units(&self) -> u64 {
        match &self.results {
            Results::Fabric(r) => r.iter().map(|(_, r)| r.events).sum(),
            Results::Verify(v) => v.len() as u64,
        }
    }
}

/// A workload ready to run rounds, with the checker of its outputs.
struct Bench {
    seed: u64,
    prepared: Prepared,
    checker: Checker,
}

enum Prepared {
    Fabric(fabric::Suite),
    Verify {
        corpus: Corpus,
        exact_bits: Option<Vec<u64>>,
    },
}

const EXACT_FILE: &str = "verify-corpus-exact.txt";

fn exact_header() -> String {
    format!(
        "verify-corpus exact oracle values, ids 0..{}",
        verify::CORPUS_IDS
    )
}

impl Bench {
    fn new(workload: Workload, seed: u64) -> Self {
        let mut errors = Vec::new();
        let prepared = match workload {
            Workload::VerifyCorpus => {
                let exact_bits = check::load(EXACT_FILE, &exact_header()).unwrap_or_else(|e| {
                    errors.push(e);
                    None
                });
                Prepared::Verify {
                    corpus: verify::setup(seed),
                    exact_bits,
                }
            }
            w => Prepared::Fabric(fabric::setup(
                w.scenarios(),
                &ss_fabric::Budget::full(),
                None,
            )),
        };
        let golden = check::load(&golden_file(workload, seed), &golden_header(workload, seed))
            .unwrap_or_else(|e| {
                errors.push(e);
                None
            });
        let mut checker = Checker::new(golden);
        checker.errors = errors;
        Self {
            seed,
            prepared,
            checker,
        }
    }

    /// Run one round and check it.
    fn round(&mut self, trace: Option<&mut Trace>) -> RoundOutcome {
        let out = match &self.prepared {
            Prepared::Fabric(suite) => fabric::round(suite, self.seed, trace),
            Prepared::Verify { corpus, exact_bits } => {
                verify::round(corpus, exact_bits.as_deref(), trace)
            }
        };
        self.checker.check(&out);
        out
    }
}

fn golden_file(workload: Workload, seed: u64) -> String {
    format!("{}-{seed}.txt", workload.name())
}

/// Pins the shape of the round a golden was recorded from.
fn golden_header(workload: Workload, seed: u64) -> String {
    match workload {
        Workload::VerifyCorpus => format!(
            "verify-corpus seed={seed} ids=0..{} budget=check",
            verify::CORPUS_IDS
        ),
        w => {
            let b = ss_fabric::Budget::full();
            format!(
                "{} seed={seed} reps={} warmup={} horizon={}",
                w.name(),
                b.replications,
                b.warmup,
                b.horizon
            )
        }
    }
}

/// Run the workload's code on the committed fixture's inputs and compare
/// the output with the fixture byte for byte.
fn self_test(workload: Workload) -> Result<(), String> {
    let (fixture, text) = match workload {
        Workload::VerifyCorpus => {
            let corpus = verify::setup(ss_verify::DEFAULT_SEED);
            let out = verify::round(&corpus, None, None);
            ("verify-check.txt", out.text)
        }
        _ => {
            let budget = ss_fabric::Budget::check();
            let names = fabric::all_names(&budget);
            let names: Vec<&str> = names.iter().map(String::as_str).collect();
            let suite = fabric::setup(&names, &budget, None);
            let out = fabric::round(&suite, ss_fabric::DEFAULT_SEED, None);
            ("fabric-check.txt", out.text)
        }
    };
    let expected = check::fixture(fixture).map_err(|e| format!("read fixture {fixture}: {e}"))?;
    if text == expected {
        return Ok(());
    }
    let line = text
        .lines()
        .zip(expected.lines())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| text.lines().count().min(expected.lines().count()));
    Err(format!(
        "self-test output differs from fixtures/conform/{fixture} at line {}",
        line + 1
    ))
}

/// Times the workload's cold set-up in batches of at least `SETUP_BATCH`.
struct SetupTimer {
    workload: Workload,
    batch: usize,
}

impl SetupTimer {
    fn once(&self) {
        match self.workload {
            Workload::VerifyCorpus => {
                black_box(verify::setup(ss_verify::DEFAULT_SEED));
            }
            w => {
                black_box(fabric::setup(
                    w.scenarios(),
                    &ss_fabric::Budget::full(),
                    None,
                ));
            }
        }
    }

    fn new(workload: Workload) -> Self {
        let mut timer = Self { workload, batch: 1 };
        while timer.batch_ns() < SETUP_BATCH.as_nanos() as u64 {
            timer.batch *= 2;
        }
        timer
    }

    fn batch_ns(&self) -> u64 {
        let t0 = Instant::now();
        (0..self.batch).for_each(|_| self.once());
        since(t0)
    }

    /// Seconds of one set-up, from one batch.
    fn sample(&self) -> f64 {
        self.batch_ns() as f64 / 1e9 / self.batch as f64
    }
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What a run reports.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn new(checkers: &[&Checker], self_test: Result<(), String>, metrics: Vec<Metric>) -> Self {
        let mut correct = true;
        if let Err(why) = self_test {
            eprintln!("perfbench: {why}");
            correct = false;
        }
        for why in checkers.iter().flat_map(|c| &c.errors) {
            eprintln!("perfbench: {why}");
            correct = false;
        }
        for m in &metrics {
            if !m.value.is_finite() {
                eprintln!("perfbench: metric {} is not finite", m.name);
                correct = false;
            }
        }
        Self {
            correct,
            attempted: checkers.iter().map(|c| c.attempted).sum(),
            failed: checkers.iter().map(|c| c.failed).sum(),
            metrics,
        }
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// An untraced run: the end-to-end metrics.  Rounds alternate with set-up
/// samples, so both see the same spread of host conditions.
fn timed_run(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let self_test = self_test(workload);
    let setup = SetupTimer::new(workload);
    let mut bench = Bench::new(workload, seed);
    bench.round(None); // warm-up: caches and allocator settle
    let t0 = Instant::now();
    // Per round, in turn: the round's host seconds, one set-up batch's host
    // seconds per set-up, and the calibration loop's nanoseconds.
    let (mut samples, mut units) = (Vec::<(f64, f64, f64)>::new(), 0);
    while samples.len() < MIN_ROUNDS || t0.elapsed().as_secs_f64() < seconds {
        let out = bench.round(None);
        units = out.units();
        let setup_s = setup.sample();
        let calibration = calibration_after(out.wall_ns);
        samples.push((out.wall_ns as f64 / 1e9, setup_s, calibration));
    }
    let column = |f: &dyn Fn(&(f64, f64, f64)) -> f64| samples.iter().map(f).collect::<Vec<_>>();
    let (n, walls) = (samples.len(), column(&|s| s.0));
    let tail = (1.0 - 10.0 / n as f64).max(0.5);
    eprintln!(
        "perfbench: workload={} seed={seed} threads={THREADS} rounds={n}; host seconds: round median={:.5} p{:.0}={:.5}, set-up median={:.3e}; calibration median={:.0} ns",
        workload.name(),
        quantile(&walls, 0.5),
        tail * 100.0,
        quantile(&walls, tail),
        quantile(&column(&|s| s.1), 0.5),
        quantile(&column(&|s| s.2), 0.5),
    );
    // Each round over the calibration time right after it: a slow phase of
    // the host slows both, and the ratio cancels it.
    let wall_s = quantile(&column(&|s| s.0 / s.2 * CALIBRATION_REF_NS), 0.5);
    let slices: Vec<f64> = samples
        .chunks(n.div_ceil(SETUP_SLICES))
        .map(|c| {
            fastest(c.iter().map(|s| s.1)) / fastest(c.iter().map(|s| s.2)) * CALIBRATION_REF_NS
        })
        .collect();
    let setup_s = quantile(&slices, 0.5);
    let mut metrics = vec![
        metric("wall_s", wall_s, "s"),
        metric("events_per_s", units as f64 / wall_s, "events/s"),
        metric("setup_s", setup_s, "s"),
    ];
    match peak_rss_mib() {
        Ok(mib) => metrics.push(metric("peak_rss_mib", mib, "MiB")),
        Err(why) => bench.checker.errors.push(why),
    }
    Outcome::new(&[&bench.checker], self_test, metrics)
}

/// The untraced and traced rounds of one workload in a traced run.
struct WorkloadTrace {
    workload: Workload,
    untraced_ns: Vec<u64>,
    traced: Vec<RoundOutcome>,
    checker: Checker,
}

impl WorkloadTrace {
    /// The fastest traced round, which every per-round metric reads.
    fn best(&self) -> &RoundOutcome {
        self.traced
            .iter()
            .min_by_key(|r| r.wall_ns)
            .expect("every workload runs a traced round")
    }

    fn root(&self) -> usize {
        self.best().root.expect("traced rounds have a span")
    }
}

/// A traced run: the per-layer metrics.
fn traced_run(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let start = Instant::now();
    let self_test = self_test(workload);
    let mut trace = Trace::new();

    // Index builds of the whole suite (the replays use its distributions
    // and tables), and corpus generations.
    let full = ss_fabric::Budget::full();
    let names = fabric::all_names(&full);
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    let suite = (0..BUILD_REPEATS)
        .map(|_| fabric::setup(&names, &full, Some(&mut trace)))
        .last()
        .expect("BUILD_REPEATS > 0");
    let configs: Vec<FabricConfig> = suite.scenarios.iter().map(|(_, c)| c.clone()).collect();
    let mut replays = Replays::new(seed, &configs, &suite.disciplines);
    for _ in 0..BUILD_REPEATS {
        black_box(within(
            Some(&mut trace),
            "generate_corpus",
            "verify",
            None,
            || ss_verify::generate_corpus(ss_verify::DEFAULT_SEED),
        ));
    }

    // Every workload, the run's own last, gets an equal share of the time
    // for pairs of one untraced and one traced round, each pair followed by
    // a pass of the layer replays.
    let mut order: Vec<Workload> = Workload::ALL
        .into_iter()
        .filter(|w| *w != workload)
        .collect();
    order.push(workload);
    let share = Duration::from_secs_f64(seconds / order.len() as f64);
    let (mut traces, mut cals) = (Vec::new(), Vec::new());
    for w in order {
        let until = Instant::now() + share;
        let mut bench = Bench::new(w, seed);
        bench.round(None); // warm-up
        let (mut untraced_ns, mut traced) = (Vec::new(), Vec::new());
        while traced.len() < 2 || Instant::now() < until {
            let untraced = bench.round(None).wall_ns;
            let round = bench.round(Some(&mut trace));
            replays.pass(&mut trace);
            cals.push(calibration_after(untraced + round.wall_ns));
            untraced_ns.push(untraced);
            traced.push(round);
        }
        traces.push(WorkloadTrace {
            workload: w,
            untraced_ns,
            traced,
            checker: bench.checker,
        });
    }
    traces.sort_by_key(|t| Workload::ALL.iter().position(|w| *w == t.workload));

    let costs = LayerCosts::from_trace(&trace);
    let mut metrics = layer_metrics(&trace, &costs, &configs, &traces);
    let calibration = fastest(cals);
    for m in metrics.iter_mut().filter(|m| matches!(m.unit, "ns" | "ms")) {
        m.value *= CALIBRATION_REF_NS / calibration;
    }
    metrics.push(metric("trace.calibration_ns", calibration, "ns"));
    let path = check::bench_dir()
        .join("out")
        .join(format!("trace-{}-{seed}.jsonl", workload.name()));
    if let Err(e) = trace.write_jsonl(&path) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
    eprintln!(
        "perfbench: workload={} seed={seed} threads={THREADS} traced run took {:.1} s, {} spans in {}",
        workload.name(),
        start.elapsed().as_secs_f64(),
        trace.spans().len(),
        path.display()
    );
    let checkers: Vec<&Checker> = traces.iter().map(|t| &t.checker).collect();
    Outcome::new(&checkers, self_test, metrics)
}

/// Every per-layer metric, from the spans of a traced run.  Repeated
/// measurements (replays, builds, rounds) report their fastest sample, and
/// per-round metrics come from each workload's fastest traced round.
fn layer_metrics(
    trace: &Trace,
    costs: &LayerCosts,
    configs: &[FabricConfig],
    traces: &[WorkloadTrace],
) -> Vec<Metric> {
    let ms = |ns: f64| ns / 1e6;
    let mut m = Vec::new();
    for (n, ns) in layers::HOLD_SIZES.iter().zip(costs.hold_ns) {
        m.push(metric(format!("sim.events.hold_ns.n{n}"), ns, "ns"));
    }
    m.push(metric("sim.rng.f64_ns", costs.rng_f64_ns, "ns"));
    for ((name, _), ns) in layers::SAMPLED.iter().zip(costs.sample_ns) {
        m.push(metric(format!("distributions.sample_ns.{name}"), ns, "ns"));
    }
    for cfg in configs {
        let builds = trace
            .named("build_disciplines")
            .filter(|(_, s)| s.tag == cfg.name)
            .map(|(_, s)| s.ns() as f64);
        m.push(metric(
            format!("index.build_ms.{}", cfg.name),
            ms(fastest(builds)),
            "ms",
        ));
    }
    for (name, ns) in layers::LOOKUPS.iter().zip(costs.lookup_ns) {
        m.push(metric(format!("index.lookup_ns.{name}"), ns, "ns"));
    }
    m.push(metric(
        "sim.stats.sketch_record_ns",
        costs.sketch_record_ns,
        "ns",
    ));

    // Summed duration of the children of `root` named `name` (and tagged
    // `tag`, if given).
    let child_ns = |root: usize, name: &str, tag: Option<&str>| -> f64 {
        trace
            .children(root)
            .filter(|s| s.name == name && tag.is_none_or(|t| s.tag == t))
            .map(|s| s.ns() as f64)
            .sum()
    };

    let (mut aggregate_ms, mut render_ms) = (0.0, 0.0);
    for wt in traces
        .iter()
        .filter(|t| t.workload != Workload::VerifyCorpus)
    {
        let (best, root) = (wt.best(), wt.root());
        let Results::Fabric(results) = &best.results else {
            unreachable!("a fabric workload returns fabric results")
        };
        let reps = ss_fabric::Budget::full().replications as f64;
        for (name, report) in results {
            let cells = child_ns(root, "run_fabric_with", Some(name));
            m.push(metric(
                format!("fabric.cell_ms.{name}"),
                ms(cells / reps),
                "ms",
            ));
            m.push(metric(
                format!("fabric.events.{name}"),
                report.events as f64,
                "count",
            ));
            m.push(metric(
                format!("fabric.ns_per_event.{name}"),
                cells / report.events as f64,
                "ns",
            ));
        }
        let events: u64 = results.iter().map(|(_, r)| r.events).sum();
        let modelled: f64 = results
            .iter()
            .map(|(name, report)| {
                let cfg = configs
                    .iter()
                    .find(|c| c.name == *name)
                    .expect("every result has a config");
                modelled_ns(cfg, report, costs)
            })
            .sum();
        m.push(metric(
            format!("fabric.residual_ns_per_event.{}", wt.workload.name()),
            (child_ns(root, "run_fabric_with", None) - modelled) / events as f64,
            "ns",
        ));
        aggregate_ms += ms(child_ns(root, "aggregate", None));
        render_ms += ms(child_ns(root, "render_suite_report", None));
    }
    m.push(metric("fabric.aggregate_ms", aggregate_ms, "ms"));
    m.push(metric("fabric.render_ms", render_ms, "ms"));

    for wt in traces {
        let root = wt.root();
        let busy: u64 = trace
            .spans()
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                s.parent == Some(root) && matches!(s.name, "run_fabric_with" | "run_scenario")
            })
            .map(|(id, _)| trace.self_ns(id))
            .sum();
        m.push(metric(
            format!("sim.pool.busy_frac.{}", wt.workload.name()),
            busy as f64 / (trace.spans()[root].ns() as f64 * THREADS as f64),
            "fraction",
        ));
    }

    let corpus_builds = trace.named("generate_corpus").map(|(_, s)| s.ns() as f64);
    m.push(metric(
        "verify.generate_corpus_ms",
        ms(fastest(corpus_builds)),
        "ms",
    ));
    let vt = traces
        .iter()
        .find(|t| t.workload == Workload::VerifyCorpus)
        .expect("every traced run covers the corpus");
    for pair in ss_verify::OraclePair::ALL {
        m.push(metric(
            format!("verify.pair_ms.{}", pair.key()),
            ms(child_ns(vt.root(), "run_scenario", Some(pair.key()))),
            "ms",
        ));
    }
    let Results::Verify(verdicts) = &vt.best().results else {
        unreachable!("the corpus workload returns verdicts")
    };
    let failed_verdicts = verdicts.iter().filter(|r| !r.verdict.pass).count();
    m.push(metric(
        "verify.failed_verdicts",
        failed_verdicts as f64,
        "count",
    ));

    for wt in traces {
        let untraced = fastest(wt.untraced_ns.iter().map(|&w| w as f64));
        m.push(metric(
            format!("trace.overhead_frac.{}", wt.workload.name()),
            wt.best().wall_ns as f64 / untraced - 1.0,
            "fraction",
        ));
    }
    m
}

/// Host time a scenario's report accounts for through the replayed layers:
/// one calendar hold (n = 8) per event, one sample per arrival, retry and
/// service start, one lookup per class per service start, one sketch record
/// per RTT and SLA-window record.  The report's counters cover the
/// post-warmup window; they are scaled to the whole run.
fn modelled_ns(cfg: &FabricConfig, r: &FabricReport, costs: &LayerCosts) -> f64 {
    let scale = cfg.horizon / (cfg.horizon - cfg.warmup);
    let exp = costs.sample_ns[0];
    let mut ns = r.events as f64 * costs.hold_ns[0];
    ns += scale * (r.arrivals + r.retries) as f64 * exp;
    for (tier, report) in cfg.tiers.iter().zip(&r.tiers) {
        let served = scale * report.served as f64;
        let sample = tier
            .service
            .iter()
            .map(|d| costs.sample_cost(d.kind()))
            .sum::<f64>()
            / tier.service.len() as f64;
        ns += served * sample;
        ns += served * cfg.classes.len() as f64 * costs.lookup_cost(tier.discipline.key());
    }
    let records = r.rtt.count() + r.windows.iter().map(|w| w.rtt.count()).sum::<u64>();
    ns + scale * records as f64 * costs.sketch_record_ns
}

/// Maintenance mode: record the goldens of `(workload, seed)` from one
/// round (and, for the corpus, its exact oracle values).
fn record(workload: Workload, seed: u64) -> Result<(), String> {
    let mut bench = Bench::new(workload, seed);
    bench.checker = Checker::new(None);
    if let Prepared::Verify { exact_bits, .. } = &mut bench.prepared {
        *exact_bits = None; // re-recorded below
    }
    let out = bench.round(None);
    if let Some(why) = bench.checker.errors.first() {
        return Err(format!("not recording a failing round: {why}"));
    }
    let file = golden_file(workload, seed);
    let path = check::record(
        &file,
        &golden_header(workload, seed),
        &check::line_digests(&out.text),
    )
    .map_err(|e| format!("write golden {file}: {e}"))?;
    eprintln!("perfbench: wrote {}", path.display());
    if let Results::Verify(reports) = &out.results {
        let bits: Vec<u64> = reports.iter().map(|r| r.verdict.exact.to_bits()).collect();
        let path = check::record(EXACT_FILE, &exact_header(), &bits)
            .map_err(|e| format!("write {EXACT_FILE}: {e}"))?;
        eprintln!("perfbench: wrote {}", path.display());
    }
    Ok(())
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
}

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--record]";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut record) =
        (None, None, 10.0, false, false);
    while let Some(flag) = args.next() {
        if flag == "--record" {
            record = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(format!("--seconds {value} is out of range"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        record,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    with_threads(THREADS, || {
        if args.record {
            return match record(args.workload, args.seed) {
                Ok(()) => ExitCode::SUCCESS,
                Err(why) => {
                    eprintln!("perfbench: {why}");
                    ExitCode::FAILURE
                }
            };
        }
        let outcome = if args.trace {
            traced_run(args.workload, args.seed, args.seconds)
        } else {
            timed_run(args.workload, args.seed, args.seconds)
        };
        println!("{}", outcome.json());
        ExitCode::SUCCESS
    })
}
