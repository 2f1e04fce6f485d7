//! Deterministic scenario-corpus generation.
//!
//! The corpus is a pure function of the master seed: scenario `i` draws its
//! parameters from the dedicated generation substream
//! `RngStreams::substream(GENERATION_STREAM, i)`, keyed by the registered
//! id [`ss_sim::rng::GENERATION_STREAM`], so **appending** scenario
//! blocks at the end never perturbs the parameters of existing scenarios
//! (inserting or re-ordering blocks shifts the ids — and therefore the
//! substreams — of everything after the edit, re-baselining that tail; grow
//! the corpus by appending).  The run-time replication streams (keyed by
//! `(scenario_id, rep)` in [`crate::run`]) are disjoint from generation
//! because scenario ids stay far below every registered id.  Diversity
//! axes: service-distribution family x load level x priority structure x
//! class/project count.

use crate::scenario::{QueueMode, Scenario, Spec};
use rand::seq::SliceRandom;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use ss_bandits::instances::{random_project, random_restless_project};
use ss_batch::parallel::ParallelMetric::{Makespan, TotalFlowtime, WeightedFlowtime};
use ss_batch::policies::{lept_order, sept_order, wsept_order};
use ss_core::instance::BatchInstance;
use ss_core::job::JobClass;
use ss_distributions::{
    dyn_dist, Deterministic, DynDist, Erlang, Exponential, HyperExponential, LogNormal, TwoPoint,
    Uniform, Weibull,
};
use ss_lp::{standard_dual, standard_primal, LinearProgram};
use ss_queueing::klimov::{klimov_order, KlimovNetwork};
use ss_sim::rng::{RngStreams, GENERATION_STREAM};

/// Number of service-distribution families [`service_family`] cycles over.
pub const NUM_FAMILIES: usize = 10;

/// The `which`-th service-distribution family with the given mean.
/// Families cover the SCV spectrum from 0 (deterministic) to 4
/// (hyperexponential), plus non-phase-type laws (Weibull, log-normal,
/// two-point).
pub fn service_family(which: usize, mean: f64) -> (DynDist, &'static str) {
    match which % NUM_FAMILIES {
        0 => (dyn_dist(Exponential::with_mean(mean)), "Exp"),
        1 => (dyn_dist(Erlang::with_mean(2, mean)), "Erlang2"),
        2 => (dyn_dist(Erlang::with_mean(4, mean)), "Erlang4"),
        3 => (dyn_dist(HyperExponential::with_mean_scv(mean, 2.0)), "H2s2"),
        4 => (dyn_dist(HyperExponential::with_mean_scv(mean, 4.0)), "H2s4"),
        5 => (dyn_dist(Deterministic::new(mean)), "Det"),
        6 => (dyn_dist(Uniform::new(0.4 * mean, 1.6 * mean)), "Unif"),
        7 => (dyn_dist(Weibull::with_mean(1.5, mean)), "Weib"),
        8 => (dyn_dist(LogNormal::with_mean_scv(mean, 0.5)), "LogN"),
        // Mean p*0.4m + (1-p)*1.2m = m at p = 0.25.
        _ => (dyn_dist(TwoPoint::new(0.25, 0.4 * mean, 1.2 * mean)), "Two"),
    }
}

/// Generate `k` job classes with total load exactly `rho`, cycling service
/// families starting at `fam_base`.  Returns the classes and a label piece
/// naming the families used.
fn queue_classes(
    rng: &mut ChaCha8Rng,
    k: usize,
    rho: f64,
    fam_base: usize,
) -> (Vec<JobClass>, String) {
    let means: Vec<f64> = (0..k).map(|_| rng.gen_range(0.5..2.0)).collect();
    let shares: Vec<f64> = (0..k).map(|_| rng.gen_range(0.5..1.5)).collect();
    let share_total: f64 = shares.iter().sum();
    let mut fams = String::new();
    let classes = (0..k)
        .map(|j| {
            let (dist, name) = service_family(fam_base + j, means[j]);
            if j > 0 {
                fams.push('+');
            }
            fams.push_str(name);
            let lambda = rho * shares[j] / share_total / means[j];
            let cost = rng.gen_range(0.5..4.0);
            JobClass::new(j, lambda, dist, cost)
        })
        .collect();
    (classes, fams)
}

/// A uniformly random priority order.
fn random_order(rng: &mut ChaCha8Rng, k: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..k).collect();
    order.shuffle(rng);
    order
}

/// A random `k`-class Klimov network with total load exactly `rho`,
/// cycling service families from `fam_base`.  With `feedback`, every class
/// routes to one random target with probability 0.15–0.45 (row sums stay
/// well below 1, so chains terminate fast); arrival rates are rescaled
/// through the traffic equations so the *effective* load hits `rho`.
fn klimov_network(
    rng: &mut ChaCha8Rng,
    k: usize,
    rho: f64,
    fam_base: usize,
    feedback: bool,
) -> (KlimovNetwork, String) {
    let means: Vec<f64> = (0..k).map(|_| rng.gen_range(0.5..2.0)).collect();
    let shares: Vec<f64> = (0..k).map(|_| rng.gen_range(0.5..1.5)).collect();
    let costs: Vec<f64> = (0..k).map(|_| rng.gen_range(0.5..4.0)).collect();
    let mut fams = String::new();
    let services: Vec<DynDist> = (0..k)
        .map(|j| {
            let (dist, name) = service_family(fam_base + j, means[j]);
            if j > 0 {
                fams.push('+');
            }
            fams.push_str(name);
            dist
        })
        .collect();
    let mut routing = vec![vec![0.0; k]; k];
    if feedback {
        for row in routing.iter_mut() {
            let target = rng.gen_range(0..k);
            row[target] = rng.gen_range(0.15..0.45);
        }
    }
    // Scale the external rates so the effective load (through the traffic
    // equations) is exactly rho: the load is linear in the arrival vector.
    let provisional = KlimovNetwork::new(
        shares.clone(),
        services.clone(),
        costs.clone(),
        routing.clone(),
    );
    let scale = rho / provisional.total_load();
    let arrivals: Vec<f64> = shares.iter().map(|s| s * scale).collect();
    (KlimovNetwork::new(arrivals, services, costs, routing), fams)
}

/// A random feasible-and-bounded primal LP (`min c·x, A x >= b, x >= 0`
/// with strictly positive data) together with its standard-form dual
/// (`max b·y, Aᵀ y <= c, y >= 0`), both built by `ss_lp::duality`.
fn lp_duality_pair(
    rng: &mut ChaCha8Rng,
    vars: usize,
    cons: usize,
) -> (LinearProgram, LinearProgram) {
    let a: Vec<Vec<f64>> = (0..cons)
        .map(|_| (0..vars).map(|_| rng.gen_range(0.1..1.0)).collect())
        .collect();
    let b: Vec<f64> = (0..cons).map(|_| rng.gen_range(0.5..2.0)).collect();
    let c: Vec<f64> = (0..vars).map(|_| rng.gen_range(0.5..2.5)).collect();
    (standard_primal(&a, &b, &c), standard_dual(&a, &b, &c))
}

/// A generated corpus together with the master seed it was derived from.
///
/// Carrying the seed with the scenarios makes the run-time stream contract
/// unbreakable: [`crate::run::run_corpus`] derives replication streams from
/// `self.seed`, so a corpus can never be run against mismatched streams.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// The master seed the scenarios were generated from.
    pub seed: u64,
    /// The scenarios, with `scenarios[i].id == i`.
    pub scenarios: Vec<Scenario>,
}

impl Corpus {
    /// Number of scenarios.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// Whether the corpus is empty (it never is for a generated corpus).
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// The machine-readable shape of this corpus — the one source of truth
    /// the `verify --check` trailer, ss-conform's expectations and the
    /// corpus-pin tests all read.
    pub fn stats(&self) -> CorpusStats {
        let pairs: std::collections::BTreeSet<_> =
            self.scenarios.iter().map(|s| s.spec.pair().key()).collect();
        CorpusStats {
            pairs: pairs.len(),
            scenarios: self.scenarios.len(),
            seed: self.seed,
        }
    }
}

/// Distinct-oracle-pair count, scenario count and master seed of a corpus,
/// rendered by `verify --check` as a single trailer line so downstream
/// consumers (the `ss-conform` subsystem, the corpus-pin tests) parse one
/// declared value instead of scraping `PASS <pair>` report lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorpusStats {
    /// Number of distinct oracle pairs the scenarios cover.
    pub pairs: usize,
    /// Total scenario count.
    pub scenarios: usize,
    /// Master seed the corpus was generated from.
    pub seed: u64,
}

impl CorpusStats {
    /// The fixed prefix of the trailer line.
    pub const TRAILER_PREFIX: &'static str = "corpus-trailer:";

    /// Render the machine-readable trailer line (no newline).
    pub fn trailer(&self) -> String {
        format!(
            "{} pairs={} scenarios={} seed={}",
            Self::TRAILER_PREFIX,
            self.pairs,
            self.scenarios,
            self.seed
        )
    }

    /// Parse the first trailer line found in `text` (a full report or a
    /// single line).  Returns `None` when no well-formed trailer is present.
    pub fn parse(text: &str) -> Option<CorpusStats> {
        let line = text
            .lines()
            .find(|l| l.trim_start().starts_with(Self::TRAILER_PREFIX))?;
        let mut pairs = None;
        let mut scenarios = None;
        let mut seed = None;
        for field in line.trim_start()[Self::TRAILER_PREFIX.len()..].split_whitespace() {
            let (key, value) = field.split_once('=')?;
            match key {
                "pairs" => pairs = value.parse::<usize>().ok(),
                "scenarios" => scenarios = value.parse::<usize>().ok(),
                "seed" => seed = value.parse::<u64>().ok(),
                _ => return None,
            }
        }
        Some(CorpusStats {
            pairs: pairs?,
            scenarios: scenarios?,
            seed: seed?,
        })
    }
}

/// Generate the full cross-validation corpus for `seed`.
pub fn generate_corpus(seed: u64) -> Corpus {
    let streams = RngStreams::new(seed);
    let mut scenarios: Vec<Scenario> = Vec::new();
    let push = |scenarios: &mut Vec<Scenario>, label: String, spec: Spec| {
        let id = scenarios.len();
        scenarios.push(Scenario { id, label, spec });
    };

    // FIFO vs Pollaczek-Khinchine: one scenario per service family, loads
    // cycling over light / moderate / heavy traffic, 1-3 classes.  The
    // class-count and load cycles are staggered (f % 3 vs f / 3) so the
    // block spans the full k x rho cross product, not just its diagonal.
    for f in 0..NUM_FAMILIES {
        let mut rng = streams.substream(GENERATION_STREAM, scenarios.len() as u64);
        let rho = [0.30, 0.50, 0.70][(f / 3) % 3];
        let k = 1 + f % 3;
        let (classes, fams) = queue_classes(&mut rng, k, rho, f);
        push(
            &mut scenarios,
            format!("mg1-fifo k={k} rho={rho:.2} {fams}"),
            Spec::Queue {
                classes,
                order: (0..k).collect(),
                mode: QueueMode::Fifo,
            },
        );
    }

    // Nonpreemptive priority vs Cobham: 2-4 classes, random priority orders.
    for t in 0..8 {
        let mut rng = streams.substream(GENERATION_STREAM, scenarios.len() as u64);
        let k = 2 + t % 3;
        let rho = [0.45, 0.60, 0.72][(t / 3) % 3];
        let (classes, fams) = queue_classes(&mut rng, k, rho, 2 * t + 1);
        let order = random_order(&mut rng, k);
        push(
            &mut scenarios,
            format!("mg1-np k={k} rho={rho:.2} {fams} order={order:?}"),
            Spec::Queue {
                classes,
                order,
                mode: QueueMode::Nonpreemptive,
            },
        );
    }

    // Preemptive-resume priority vs the classical formulas.
    for t in 0..4 {
        let mut rng = streams.substream(GENERATION_STREAM, scenarios.len() as u64);
        let k = 2 + t % 2;
        let rho = [0.50, 0.65][(t / 2) % 2];
        let (classes, fams) = queue_classes(&mut rng, k, rho, 3 * t);
        let order = random_order(&mut rng, k);
        push(
            &mut scenarios,
            format!("mg1-preempt k={k} rho={rho:.2} {fams} order={order:?}"),
            Spec::Queue {
                classes,
                order,
                mode: QueueMode::Preemptive,
            },
        );
    }

    // Conservation-law identity under nonpreemptive priority simulation.
    for t in 0..6 {
        let mut rng = streams.substream(GENERATION_STREAM, scenarios.len() as u64);
        let k = 3;
        let rho = [0.40, 0.60, 0.72][t % 3];
        let (classes, fams) = queue_classes(&mut rng, k, rho, 4 * t + 2);
        let order = random_order(&mut rng, k);
        push(
            &mut scenarios,
            format!("conservation k={k} rho={rho:.2} {fams} order={order:?}"),
            Spec::Queue {
                classes,
                order,
                mode: QueueMode::Conservation,
            },
        );
    }

    // Gittins roll-outs vs the exact joint DP on small bandits.
    for t in 0..6 {
        let mut rng = streams.substream(GENERATION_STREAM, scenarios.len() as u64);
        let n_projects = 2 + t % 2;
        let states = 2 + t % 3;
        let discount = [0.80, 0.90][(t / 2) % 2];
        let projects: Vec<_> = (0..n_projects)
            .map(|_| random_project(states, &mut rng))
            .collect();
        push(
            &mut scenarios,
            format!("bandit projects={n_projects} states={states} beta={discount:.2}"),
            Spec::Bandit { projects, discount },
        );
    }

    // Strong duality on random feasible primal/dual pairs.
    for &(vars, cons) in &[(4usize, 3usize), (6, 4), (8, 6), (5, 5)] {
        let mut rng = streams.substream(GENERATION_STREAM, scenarios.len() as u64);
        let (primal, dual) = lp_duality_pair(&mut rng, vars, cons);
        push(
            &mut scenarios,
            format!("lp-duality {vars}x{cons}"),
            Spec::LpDuality { primal, dual },
        );
    }

    // Achievable-region LP optimum vs the exact cµ cost.
    for t in 0..4 {
        let mut rng = streams.substream(GENERATION_STREAM, scenarios.len() as u64);
        let k = 3 + t % 2;
        let rho = [0.50, 0.62, 0.70, 0.75][t % 4];
        let (classes, fams) = queue_classes(&mut rng, k, rho, 3 * t + 2);
        push(
            &mut scenarios,
            format!("achievable-lp k={k} rho={rho:.2} {fams}"),
            Spec::AchievableLp { classes },
        );
    }

    // Klimov networks under the Klimov index order: feedback-free vs
    // Cobham's cost, feedback vs the exact chain-workload constant.
    for t in 0..5 {
        let mut rng = streams.substream(GENERATION_STREAM, scenarios.len() as u64);
        let k = 2 + t % 3;
        let rho = [0.45, 0.60, 0.70][t % 3];
        let feedback = t >= 2;
        let (network, fams) = klimov_network(&mut rng, k, rho, 5 * t + 1, feedback);
        let order = klimov_order(&network);
        push(
            &mut scenarios,
            format!(
                "klimov k={k} rho={rho:.2} {fams} {}",
                if feedback { "feedback" } else { "no-feedback" }
            ),
            Spec::Klimov {
                network,
                order,
                feedback,
            },
        );
    }

    // Whittle-priority restless bandits vs the exact joint-chain policy
    // value (dense random projects keep every induced chain unichain).
    for t in 0..4 {
        let mut rng = streams.substream(GENERATION_STREAM, scenarios.len() as u64);
        let n_projects = 2 + t % 2;
        let states = 2 + t % 3;
        let m = if t == 3 { 2 } else { 1 };
        let projects: Vec<_> = (0..n_projects)
            .map(|_| random_restless_project(states, &mut rng))
            .collect();
        push(
            &mut scenarios,
            format!("restless projects={n_projects} states={states} m={m}"),
            Spec::Restless { projects, m },
        );
    }

    // SEPT/LEPT/WSEPT list schedules on identical machines vs the exact
    // subset DP for exponential jobs.
    for t in 0..5 {
        let mut rng = streams.substream(GENERATION_STREAM, scenarios.len() as u64);
        let n_jobs = 5 + t % 4;
        let machines = 2 + t % 2;
        let rates: Vec<f64> = (0..n_jobs).map(|_| rng.gen_range(0.4..2.5)).collect();
        let metric = [
            TotalFlowtime,
            Makespan,
            TotalFlowtime,
            WeightedFlowtime,
            Makespan,
        ][t];
        let weights: Vec<f64> = if metric == WeightedFlowtime {
            (0..n_jobs).map(|_| rng.gen_range(0.5..3.0)).collect()
        } else {
            vec![1.0; n_jobs]
        };
        let mut builder = BatchInstance::builder();
        for (rate, weight) in rates.into_iter().zip(weights) {
            builder = builder.job(weight, dyn_dist(Exponential::new(rate)));
        }
        let instance = builder.build();
        let (rule, order) = match metric {
            TotalFlowtime => ("sept", sept_order(&instance)),
            WeightedFlowtime => ("wsept", wsept_order(&instance)),
            Makespan => ("lept", lept_order(&instance)),
        };
        push(
            &mut scenarios,
            format!("list-schedule {rule} n={n_jobs} m={machines}"),
            Spec::ListSchedule {
                instance,
                machines,
                order,
                metric,
            },
        );
    }

    // The fabric-vs-Erlang-C pair: the service-fabric DES as a single
    // central-queue FIFO M/M/c tier across server counts and loads.  The
    // per-server rate is drawn from the generation substream (the pair must
    // hold for any µ); λ is then set to hit the target load exactly.
    for &(servers, rho) in &[(2usize, 0.60), (3, 0.75), (4, 0.55), (5, 0.70), (8, 0.65)] {
        let mut rng = streams.substream(GENERATION_STREAM, scenarios.len() as u64);
        let mu = rng.gen_range(0.5..2.0);
        let lambda = rho * servers as f64 * mu;
        push(
            &mut scenarios,
            format!("fabric-mmc c={servers} rho={rho:.2}"),
            Spec::Fabric {
                servers,
                lambda,
                mu,
            },
        );
    }

    // The fabric-vs-M/M/c/K pair: the same single-tier configuration with a
    // bounded waiting room, checked on the blocking probability.  Shapes
    // span the family's reductions and regimes: a small Erlang-like buffer,
    // a single-server chain (the geometric closed form), a near-critical
    // load, and one deliberate overload point — the regime where Erlang-C
    // diverges but the finite-buffer formula (and the simulator's drop
    // accounting) stay well defined.  µ is drawn from the generation
    // substream as above; λ is set from the target ρ = λ/(cµ).
    for &(servers, queue_cap, rho) in &[
        (2usize, 2usize, 0.85),
        (3, 3, 0.90),
        (1, 4, 0.90),
        (4, 4, 1.10),
        (6, 2, 0.80),
    ] {
        let mut rng = streams.substream(GENERATION_STREAM, scenarios.len() as u64);
        let mu = rng.gen_range(0.5..2.0);
        let lambda = rho * servers as f64 * mu;
        push(
            &mut scenarios,
            format!(
                "fabric-mmck c={servers} K={} rho={rho:.2}",
                servers + queue_cap
            ),
            Spec::FabricFinite {
                servers,
                queue_cap,
                lambda,
                mu,
            },
        );
    }

    Corpus { seed, scenarios }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn corpus_is_large_and_diverse() {
        let corpus = generate_corpus(1);
        assert!(corpus.len() >= 30, "corpus has {} scenarios", corpus.len());
        assert_eq!(corpus.seed, 1);
        let pairs: HashSet<_> = corpus.scenarios.iter().map(|s| s.spec.pair()).collect();
        assert!(
            pairs.len() >= 5,
            "only {} oracle pairs covered",
            pairs.len()
        );
        // ids are the corpus indices (the RNG stream contract).
        for (i, s) in corpus.scenarios.iter().enumerate() {
            assert_eq!(s.id, i);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_corpus(7);
        let b = generate_corpus(7);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.scenarios.iter().zip(&b.scenarios) {
            assert_eq!(x.label, y.label);
            assert_eq!(x.spec.pair(), y.spec.pair());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate_corpus(1);
        let b = generate_corpus(2);
        // Same structure, different parameters: at least the queue labels
        // stay equal only if the drawn means coincide, which they must not.
        let diff = a
            .scenarios
            .iter()
            .zip(&b.scenarios)
            .filter(|(x, y)| match (&x.spec, &y.spec) {
                (Spec::Queue { classes: ca, .. }, Spec::Queue { classes: cb, .. }) => {
                    ca[0].arrival_rate != cb[0].arrival_rate
                }
                _ => false,
            })
            .count();
        assert!(diff > 0);
    }

    #[test]
    fn queue_loads_are_stable() {
        for s in generate_corpus(3).scenarios {
            if let Spec::Queue { classes, .. } = &s.spec {
                let rho: f64 = classes.iter().map(|c| c.load()).sum();
                assert!(rho < 0.95, "{}: unstable rho {rho}", s.label);
            }
        }
    }

    #[test]
    fn trailer_round_trips_through_parse() {
        let stats = generate_corpus(9).stats();
        assert_eq!(CorpusStats::parse(&stats.trailer()), Some(stats));
        // Embedded in a report, surrounded by other lines.
        let report = format!("#0 PASS ...\n{}\nextra\n", stats.trailer());
        assert_eq!(CorpusStats::parse(&report), Some(stats));
        // Malformed trailers must not parse.
        assert_eq!(CorpusStats::parse("corpus-trailer: pairs=x"), None);
        assert_eq!(CorpusStats::parse("no trailer here"), None);
    }

    #[test]
    fn family_cycle_covers_all_kinds() {
        let names: HashSet<_> = (0..NUM_FAMILIES)
            .map(|f| service_family(f, 1.0).1)
            .collect();
        assert_eq!(names.len(), NUM_FAMILIES);
    }
}
