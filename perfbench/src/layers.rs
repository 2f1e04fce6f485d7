//! Fabric-shaped replays of single layers, each timed by its own spans.
//!
//! Every replay calls one public function of a layer in a tight loop, with
//! the sizes, payloads and tables the fabric really uses: the calendar at
//! the queue sizes a fabric replication keeps (n = 8 and 64) holding the
//! fabric's own event type, the service distributions of the suite, the
//! suite's own discipline tables, and the sketch the fabric records RTTs
//! into.  Inputs are drawn before timing starts, so a replay times the
//! layer and not the input generation.

use std::hint::black_box;
use std::sync::Arc;

use rand::Rng;
use rand_chacha::ChaCha8Rng;
use ss_core::discipline::Discipline;
use ss_distributions::{DistKind, DynDist};
use ss_fabric::events::{FabricEvent, Request};
use ss_fabric::FabricConfig;
use ss_sim::events::EventQueue;
use ss_sim::rng::RngStreams;
use ss_sim::stats::QuantileSketch;

use crate::trace::{within, Trace};

/// Operations per replay span.
const ITERS: usize = 100_000;
/// Pre-drawn inputs, cycled through (a power of two).
const INPUTS: usize = 4096;

/// Sampled service families of the suite, under their metric names.
pub const SAMPLED: [(&str, DistKind); 3] = [
    ("exponential", DistKind::Exponential),
    ("hyperexponential", DistKind::HyperExponential),
    ("erlang", DistKind::Erlang),
];

/// Discipline kinds of the suite, as `Discipline::name` reports them.
pub const LOOKUPS: [&str; 4] = ["fifo", "cmu", "gittins", "whittle"];

/// Calendar sizes of the hold replay.
pub const HOLD_SIZES: [usize; 2] = [8, 64];

const HOLD: &str = "EventQueue::hold";
const RNG: &str = "ChaCha8Rng::gen_f64";
const SAMPLE: &str = "DynDist::sample";
const RECORD: &str = "QuantileSketch::record";
const LOOKUP: &str = "Discipline::class_index";

/// Per-operation costs in nanoseconds.
pub struct LayerCosts {
    pub hold_ns: [f64; HOLD_SIZES.len()],
    pub rng_f64_ns: f64,
    pub sample_ns: [f64; SAMPLED.len()],
    pub sketch_record_ns: f64,
    pub lookup_ns: [f64; LOOKUPS.len()],
}

impl LayerCosts {
    /// Read every replay's cost from its fastest span in `trace`.
    pub fn from_trace(trace: &Trace) -> Self {
        let cost = |name: &str, tag: &str| {
            let spans = trace
                .named(name)
                .filter(|(_, s)| s.tag == tag)
                .map(|(_, s)| s.ns() as f64);
            crate::timing::fastest(spans) / ITERS as f64
        };
        Self {
            hold_ns: HOLD_SIZES.map(|n| cost(HOLD, &format!("n{n}"))),
            rng_f64_ns: cost(RNG, "f64"),
            sample_ns: SAMPLED.map(|(name, _)| cost(SAMPLE, name)),
            sketch_record_ns: cost(RECORD, "rtt"),
            lookup_ns: LOOKUPS.map(|name| cost(LOOKUP, name)),
        }
    }

    /// Cost of one `DynDist::sample` of a distribution of kind `kind`
    /// (exponential for any family the replays do not cover).
    pub fn sample_cost(&self, kind: DistKind) -> f64 {
        SAMPLED
            .iter()
            .position(|(_, k)| *k == kind)
            .map_or(self.sample_ns[0], |i| self.sample_ns[i])
    }

    /// Cost of one `class_index` lookup on a table named `name`.
    pub fn lookup_cost(&self, name: &str) -> f64 {
        LOOKUPS
            .iter()
            .position(|k| *k == name)
            .map_or(self.lookup_ns[0], |i| self.lookup_ns[i])
    }
}

/// The replays' state and pre-drawn inputs.  [`Replays::pass`] runs one
/// span of every replay; a traced run interleaves passes with its rounds,
/// so replays and rounds see the same host conditions.
pub struct Replays<'a> {
    rng: ChaCha8Rng,
    exp_draws: Vec<f64>,
    calendars: Vec<EventQueue<FabricEvent>>,
    dists: Vec<&'a DynDist>,
    sketch: QuantileSketch,
    /// Each looked-up table with its `(class, waiting)` queries.
    tables: Vec<(&'a Arc<dyn Discipline>, Vec<Query>)>,
}

type Query = (usize, usize);

impl<'a> Replays<'a> {
    /// `scenarios` and `disciplines` are the whole suite; the replays use
    /// its distributions and tables.
    pub fn new(
        seed: u64,
        scenarios: &'a [FabricConfig],
        disciplines: &'a [Vec<Arc<dyn Discipline>>],
    ) -> Self {
        let mut rng = RngStreams::new(seed).stream(0);
        let exp_draws: Vec<f64> = (0..INPUTS)
            .map(|_| -(1.0 - rng.gen::<f64>()).ln())
            .collect();
        let calendars = HOLD_SIZES
            .iter()
            .map(|&n| {
                let mut queue = EventQueue::new();
                for (i, &dt) in exp_draws.iter().take(n).enumerate() {
                    queue.schedule(dt, payload(i));
                }
                queue
            })
            .collect();
        let services: Vec<&DynDist> = scenarios
            .iter()
            .flat_map(|c| c.tiers.iter().flat_map(|t| t.service.iter()))
            .collect();
        let dists = SAMPLED
            .iter()
            .map(|(name, kind)| {
                *services
                    .iter()
                    .find(|d| d.kind() == *kind)
                    .unwrap_or_else(|| panic!("no {name} service distribution in the suite"))
            })
            .collect();
        let suite_tables: Vec<(&Arc<dyn Discipline>, usize)> = scenarios
            .iter()
            .zip(disciplines)
            .flat_map(|(c, ds)| ds.iter().map(|d| (d, c.classes.len())))
            .collect();
        let tables = LOOKUPS
            .iter()
            .map(|name| {
                let &(table, classes) = suite_tables
                    .iter()
                    .find(|(d, _)| d.name() == *name)
                    .unwrap_or_else(|| panic!("no {name} table in the suite"));
                let queries = (0..INPUTS)
                    .map(|_| (rng.gen_range(0..classes), rng.gen_range(1..=12)))
                    .collect();
                (table, queries)
            })
            .collect();
        Self {
            rng,
            exp_draws,
            calendars,
            dists,
            sketch: QuantileSketch::new(1e-3, 1e3, 1024),
            tables,
        }
    }

    /// One span of `ITERS` calls of every replay.
    pub fn pass(&mut self, trace: &mut Trace) {
        let draws = &self.exp_draws;
        for (queue, n) in self.calendars.iter_mut().zip(HOLD_SIZES) {
            span(trace, HOLD, &format!("n{n}"), |i| {
                let (t, event) = queue
                    .pop_at_or_before(f64::INFINITY)
                    .expect("the hold calendar never drains");
                queue.schedule(t + draws[i % INPUTS], event);
            });
        }
        let rng = &mut self.rng;
        span(trace, RNG, "f64", |_| {
            black_box(rng.gen::<f64>());
        });
        for (dist, (name, _)) in self.dists.iter().zip(SAMPLED) {
            span(trace, SAMPLE, name, |_| {
                black_box(dist.sample(rng));
            });
        }
        let sketch = &mut self.sketch;
        span(trace, RECORD, "rtt", |i| {
            sketch.record(2.0 * draws[i % INPUTS])
        });
        black_box(sketch.count());
        for ((table, queries), name) in self.tables.iter().zip(LOOKUPS) {
            span(trace, LOOKUP, name, |i| {
                let (class, waiting) = queries[i % INPUTS];
                black_box(table.class_index(class, waiting));
            });
        }
    }
}

/// Time `op` over `ITERS` calls in one span.
fn span(trace: &mut Trace, name: &'static str, tag: &str, mut op: impl FnMut(usize)) {
    within(Some(trace), name, tag, None, || {
        (0..ITERS).for_each(&mut op)
    });
}

/// A calendar payload in the mix a fabric replication schedules.
fn payload(i: usize) -> FabricEvent {
    let req = Request {
        class: i % 2,
        id: i as u64,
        born: 0.0,
        attempt: 0,
        enqueued: 0.0,
    };
    match i % 4 {
        0 => FabricEvent::NextArrival { class: 0, epoch: 0 },
        1 => FabricEvent::ArriveAtTier { tier: 0, req },
        2 => FabricEvent::Complete {
            tier: 0,
            server: i % 3,
            epoch: 0,
        },
        _ => FabricEvent::ReturnHop { tier: 0, req },
    }
}
