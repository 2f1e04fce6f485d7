//! Crate-private bookkeeping shared by the event-driven simulators: the
//! Poisson arrival clocks, the number in system per class and its time
//! integral over the measured window (warm-up deletion), and the
//! holding-cost rate.  The ledger draws only where a simulator asks it to,
//! so each simulator keeps its own draw order.

use rand::{Rng, RngCore};

/// Sample an `Exp(rate)` inter-event time by inversion.
fn sample_exp(rng: &mut dyn RngCore, rate: f64) -> f64 {
    let u: f64 = rng.gen::<f64>();
    -(1.0 - u).ln() / rate
}

/// Priority rank per class (lower = served first) from `order`, which
/// lists the classes from highest to lowest priority.
pub(crate) fn ranks(order: &[usize]) -> Vec<usize> {
    let mut rank = vec![0usize; order.len()];
    for (pos, &c) in order.iter().enumerate() {
        rank[c] = pos;
    }
    rank
}

/// The index and value of the earliest of `times`; the lowest index on
/// ties.
pub(crate) fn earliest(times: &[f64]) -> (usize, f64) {
    times
        .iter()
        .cloned()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("event times are not NaN"))
        .expect("at least one clock")
}

/// The holding-cost rate `Σ_j c_j L_j`, summed in class order.
pub(crate) fn holding_cost_rate(costs: impl IntoIterator<Item = f64>, mean_number: &[f64]) -> f64 {
    costs.into_iter().zip(mean_number).map(|(c, l)| c * l).sum()
}

/// The next external arrival per class, one Poisson clock each.
pub(crate) struct Arrivals {
    rates: Vec<f64>,
    next: Vec<f64>,
}

impl Arrivals {
    /// Draw each positive-rate class's first arrival, in class order; a
    /// class of rate 0 never arrives and draws nothing.
    pub(crate) fn new(rates: impl IntoIterator<Item = f64>, rng: &mut dyn RngCore) -> Self {
        let rates: Vec<f64> = rates.into_iter().collect();
        let next = rates
            .iter()
            .map(|&r| {
                if r > 0.0 {
                    sample_exp(rng, r)
                } else {
                    f64::INFINITY
                }
            })
            .collect();
        Self { rates, next }
    }

    /// The class whose arrival comes first and its time; the lowest class
    /// on ties.
    pub(crate) fn earliest(&self) -> (usize, f64) {
        earliest(&self.next)
    }

    /// Draw `class`'s next arrival after the one it had at `clock`.
    pub(crate) fn renew(&mut self, class: usize, clock: f64, rng: &mut dyn RngCore) {
        self.next[class] = clock + sample_exp(rng, self.rates[class]);
    }
}

/// Number in system per class, integrated over the measured window.
///
/// The window opens at the first event at or after the warm-up
/// ([`Population::advance`]); the areas accumulated before it are dropped.
pub(crate) struct Population {
    counts: Vec<usize>,
    /// Per class: the integral of its count over the window up to `since`.
    area: Vec<f64>,
    /// Per class: the time of its last change (or of the window's opening).
    since: Vec<f64>,
    warmup: f64,
    /// Where the measured window opened; `None` before it has.
    start: Option<f64>,
}

impl Population {
    /// An empty system of `classes` classes, measured after `warmup`.
    pub(crate) fn new(classes: usize, warmup: f64) -> Self {
        Self {
            counts: vec![0; classes],
            area: vec![0.0; classes],
            since: vec![0.0; classes],
            warmup,
            start: None,
        }
    }

    /// Move to the event at `clock`, opening the measured window there if
    /// this is the first event at or after the warm-up.
    pub(crate) fn advance(&mut self, clock: f64) {
        if self.start.is_none() && clock >= self.warmup {
            self.area.fill(0.0);
            self.since.fill(clock);
            self.start = Some(clock);
        }
    }

    /// A class-`class` job enters at `clock`.
    pub(crate) fn add(&mut self, class: usize, clock: f64) {
        self.integrate(class, clock);
        self.counts[class] += 1;
    }

    /// A class-`class` job leaves at `clock`.
    pub(crate) fn remove(&mut self, class: usize, clock: f64) {
        self.integrate(class, clock);
        self.counts[class] -= 1;
    }

    fn integrate(&mut self, class: usize, clock: f64) {
        let last = self.since[class];
        assert!(
            clock + 1e-12 >= last,
            "time went backwards: {last} -> {clock}"
        );
        self.area[class] += self.counts[class] as f64 * (clock - last).max(0.0);
        self.since[class] = clock;
    }

    /// Jobs in system, all classes together.
    pub(crate) fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Time-average number in system per class over the measured window,
    /// closed at `horizon`.  A window that no event opened, or that opened
    /// at the horizon, saw no change: its average is the current count.
    pub(crate) fn mean_number(&self, horizon: f64) -> Vec<f64> {
        let span = self.start.map_or(0.0, |start| horizon - start);
        (0..self.counts.len())
            .map(|c| {
                let n = self.counts[c] as f64;
                if span <= 0.0 {
                    n
                } else {
                    (self.area[c] + n * (horizon - self.since[c]).max(0.0)) / span
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_number_is_the_time_average() {
        // 0 on [0, 1), 2 on [1, 3), 1 on [3, 5]: (0 + 4 + 2) / 5.
        let mut p = Population::new(1, 0.0);
        p.advance(0.0);
        p.advance(1.0);
        p.add(0, 1.0);
        p.add(0, 1.0);
        p.advance(3.0);
        p.remove(0, 3.0);
        assert!((p.mean_number(5.0)[0] - 1.2).abs() < 1e-12);
        assert_eq!(p.total(), 1);
    }

    #[test]
    fn the_warmup_is_deleted() {
        // 10 on [0, 5), then 1: the window (5, 10] sees only the 1.
        let mut p = Population::new(1, 5.0);
        p.advance(0.0);
        (0..10).for_each(|_| p.add(0, 0.0));
        p.advance(5.0);
        (0..9).for_each(|_| p.remove(0, 5.0));
        assert!((p.mean_number(10.0)[0] - 1.0).abs() < 1e-12);
    }
}
