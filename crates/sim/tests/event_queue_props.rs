//! Property tests of the event calendar's determinism contract.
//!
//! The service fabric (and every hand-written simulator) rests on two
//! calendar invariants: events always pop in time order, ties in schedule
//! order, whatever the interleaving of schedules and pops, and
//! simultaneous events resolve in first-scheduled-first-served order
//! however many of them pile up.  These tests pin both under generated
//! workloads, and a differential test replays random operations against a
//! plain reference model of the same contract.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use ss_sim::events::EventQueue;

/// Decode one raw op word: low bits pick the coarse time bucket (so time
/// collisions are common), bit 31 decides pop vs schedule (biased 1:3
/// towards scheduling so the queue actually fills up).
fn decode(raw: u32, buckets: u32) -> (bool, f64) {
    let do_pop = raw.is_multiple_of(4);
    let time = ((raw >> 2) % buckets) as f64 * 0.5;
    (do_pop, time)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Interleaved schedule/pop sequences always pop in `(time, seq)`
    /// order: within any run of pops (no intervening schedules), times are
    /// nondecreasing, and equal times pop in increasing payload (insertion)
    /// order.
    #[test]
    fn interleaved_ops_pop_in_time_then_seq_order(
        ops in prop::collection::vec(0u32..u32::MAX, 1..300),
        buckets in 1u32..25,
    ) {
        let mut q = EventQueue::new();
        let mut payload = 0u64;
        let mut scheduled_at: Vec<f64> = Vec::new();
        let mut last: Option<(f64, u64)> = None;
        for &raw in &ops {
            let (do_pop, time) = decode(raw, buckets);
            if do_pop {
                if let Some((t, p)) = q.pop() {
                    // The popped event really was scheduled at that time.
                    prop_assert_eq!(scheduled_at[p as usize].to_bits(), t.to_bits());
                    if let Some((lt, lp)) = last {
                        prop_assert!(
                            t > lt || (t == lt && p > lp),
                            "pop order violated: ({}, {}) then ({}, {})", lt, lp, t, p
                        );
                    }
                    last = Some((t, p));
                }
            } else {
                q.schedule(time, payload);
                scheduled_at.push(time);
                payload += 1;
                // A schedule may introduce an earlier event; the intra-run
                // monotonicity chain restarts.
                last = None;
            }
        }
        // Draining the rest is globally sorted by (time, seq).
        let mut drained = Vec::new();
        while let Some(pair) = q.pop() {
            drained.push(pair);
        }
        for w in drained.windows(2) {
            let ((t1, p1), (t2, p2)) = (w[0], w[1]);
            prop_assert!(t1 < t2 || (t1 == t2 && p1 < p2));
        }
    }

    /// Every scheduled event is popped exactly once, whatever the
    /// interleaving: the calendar neither loses nor duplicates events.
    #[test]
    fn no_event_is_lost_or_duplicated(
        ops in prop::collection::vec(0u32..u32::MAX, 1..200),
        buckets in 1u32..12,
    ) {
        let mut q = EventQueue::new();
        let mut payload = 0u64;
        let mut popped: Vec<u64> = Vec::new();
        for &raw in &ops {
            let (do_pop, time) = decode(raw, buckets);
            if do_pop {
                if let Some((_, p)) = q.pop() {
                    popped.push(p);
                }
            } else {
                q.schedule(time, payload);
                payload += 1;
            }
        }
        while let Some((_, p)) = q.pop() {
            popped.push(p);
        }
        popped.sort_unstable();
        prop_assert_eq!(popped, (0..payload).collect::<Vec<_>>());
    }

    /// Tie-break stability under mass simultaneity: hundreds of events at
    /// the same instant pop in exactly insertion order, even interleaved
    /// with events at other times.
    #[test]
    fn simultaneous_events_pop_in_insertion_order(
        n_ties in 50usize..400,
        tie_time in 0u32..10,
        spread in prop::collection::vec(0u32..10, 0..50),
    ) {
        let mut q = EventQueue::new();
        let tie = tie_time as f64;
        let mut payload = 0u64;
        let mut tied: Vec<u64> = Vec::new();
        let mut spread_it = spread.iter();
        for i in 0..n_ties {
            q.schedule(tie, payload);
            tied.push(payload);
            payload += 1;
            // Interleave unrelated events so the insertion walk passes them.
            if i % 3 == 0 {
                if let Some(&s) = spread_it.next() {
                    q.schedule(s as f64, payload);
                    payload += 1;
                }
            }
        }
        let tied_set: std::collections::HashSet<u64> = tied.iter().copied().collect();
        let mut got: Vec<u64> = Vec::new();
        while let Some((t, p)) = q.pop() {
            if t == tie && tied_set.contains(&p) {
                got.push(p);
            }
        }
        prop_assert_eq!(got, tied);
    }

    /// `pop_at_or_before` never loses events: popping everything through a
    /// staircase of growing horizons equals popping with no horizon at all.
    #[test]
    fn horizon_staircase_equals_unbounded_pop(
        times in prop::collection::vec(0u32..40, 1..150),
        step in 1u32..7,
    ) {
        let mut bounded = EventQueue::new();
        let mut unbounded = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            bounded.schedule(t as f64 * 0.25, i);
            unbounded.schedule(t as f64 * 0.25, i);
        }
        let mut via_horizons = Vec::new();
        let mut horizon = 0.0f64;
        while !bounded.is_empty() {
            while let Some(pair) = bounded.pop_at_or_before(horizon) {
                via_horizons.push(pair);
            }
            horizon += step as f64 * 0.25;
        }
        let mut direct = Vec::new();
        while let Some(pair) = unbounded.pop() {
            direct.push(pair);
        }
        prop_assert_eq!(via_horizons, direct);
    }
}

/// Event times of the differential test: ties, both zeros, negatives,
/// subnormals, the extremes, and neighbouring floats.
const TIMES: [f64; 20] = [
    0.0,
    -0.0,
    1.0,
    -1.0,
    2.5,
    -2.5,
    1e300,
    -1e300,
    f64::MAX,
    f64::MIN,
    f64::from_bits(f64::MAX.to_bits() - 1),
    f64::MIN_POSITIVE,
    -f64::MIN_POSITIVE,
    f64::MIN_POSITIVE / 2.0,
    f64::from_bits(1),
    -f64::from_bits(1),
    f64::from_bits(1.0f64.to_bits() + 1),
    f64::from_bits(1.0f64.to_bits() - 1),
    f64::from_bits((-1.0f64).to_bits() + 1),
    f64::from_bits((-1.0f64).to_bits() - 1),
];

/// The calendar's contract written out on its own terms: pending
/// `(time, seq, payload)` triples, the minimum popped by `partial_cmp` on
/// the time and then by `seq`.  It counts the cases it meets in `census`.
#[derive(Default)]
struct Reference {
    pending: Vec<(f64, u64, u64)>,
    next_seq: u64,
    census: Census,
}

/// How often [`Reference`] met each case that the calendar's insertion
/// walk and horizon test must get right.  A schedule's case depends on the
/// pending times alone: it is where the new event enters the calendar's
/// sorted vector.
#[derive(Debug, Default)]
struct Census {
    /// A schedule into an empty calendar.
    into_empty: usize,
    /// A schedule before every pending event, such as a zero-delay hold.
    new_earliest: usize,
    /// A schedule after every pending event.
    new_latest: usize,
    /// A schedule strictly between two pending times.
    between: usize,
    /// A schedule at the time of a pending event.
    among_equal: usize,
    /// A `pop_at_or_before` whose horizon lies before the earliest event.
    horizon_before_earliest: usize,
}

impl Reference {
    fn schedule(&mut self, time: f64, payload: u64) {
        let census = &mut self.census;
        let mut times = self.pending.iter().map(|&(t, _, _)| t);
        let case = if self.pending.is_empty() {
            &mut census.into_empty
        } else if times.clone().any(|t| t == time) {
            &mut census.among_equal
        } else if times.clone().all(|t| time < t) {
            &mut census.new_earliest
        } else if times.all(|t| t < time) {
            &mut census.new_latest
        } else {
            &mut census.between
        };
        *case += 1;
        self.pending.push((time, self.next_seq, payload));
        self.next_seq += 1;
    }

    fn earliest(&self) -> Option<usize> {
        (0..self.pending.len()).min_by(|&a, &b| {
            let (ta, sa, _) = self.pending[a];
            let (tb, sb, _) = self.pending[b];
            ta.partial_cmp(&tb)
                .expect("reference times are finite")
                .then(sa.cmp(&sb))
        })
    }

    fn pop(&mut self) -> Option<(f64, u64)> {
        let i = self.earliest()?;
        let (time, _, payload) = self.pending.remove(i);
        Some((time, payload))
    }

    fn pop_at_or_before(&mut self, horizon: f64) -> Option<(f64, u64)> {
        let i = self.earliest()?;
        let earliest = self.pending[i].0;
        if earliest <= horizon {
            self.pop()
        } else {
            self.census.horizon_before_earliest += usize::from(horizon < earliest);
            None
        }
    }
}

/// Replay op words on an [`EventQueue`] and on [`Reference`]: every pop
/// must return the same `(time bits, payload)`, and `len` must agree after
/// every step.  `raw % 32` picks the op: a schedule at an awkward time
/// (0..=13) or at the last popped time (14..=17; 0.0 before any pop),
/// which right after a pop is a zero-delay hold, the fabric's return-hop
/// pattern; `pop` (18..=24); or `pop_at_or_before` (25..=31) at −∞, NaN,
/// +∞ or an awkward time.  `raw >> 5` picks the time.  Adds the
/// reference's counts to `census`.
fn replay(ops: &[u32], census: &mut Census) -> Result<(), TestCaseError> {
    let mut q = EventQueue::new();
    let mut reference = Reference {
        census: std::mem::take(census),
        ..Reference::default()
    };
    let mut payload = 0u64;
    let mut last_popped = 0.0;
    let bits = |popped: Option<(f64, u64)>| popped.map(|(t, p)| (t.to_bits(), p));
    for (step, &raw) in ops.iter().enumerate() {
        let pick = (raw >> 5) as usize;
        let op = raw % 32;
        let (got, want) = match op {
            0..=17 => {
                let time = if op <= 13 {
                    TIMES[pick % TIMES.len()]
                } else {
                    last_popped
                };
                q.schedule(time, payload);
                reference.schedule(time, payload);
                payload += 1;
                (None, None)
            }
            18..=24 => (q.pop(), reference.pop()),
            _ => {
                let horizon = match pick % 8 {
                    0 => f64::INFINITY,
                    1 => f64::NEG_INFINITY,
                    2 => f64::NAN,
                    _ => TIMES[(pick >> 3) % TIMES.len()],
                };
                let got = q.pop_at_or_before(horizon);
                (got, reference.pop_at_or_before(horizon))
            }
        };
        prop_assert_eq!(bits(got), bits(want), "step {}: op word {}", step, raw);
        prop_assert_eq!(q.len(), reference.pending.len(), "step {}", step);
        if let Some((time, _)) = want {
            last_popped = time;
        }
    }
    *census = reference.census;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Differential test against [`Reference`] (see [`replay`]): random
    /// mixes of schedules, zero-delay holds, `pop` and `pop_at_or_before`
    /// over awkward floats.  The grid-time properties above never see a
    /// negative time or `-0.0`; this one does.
    #[test]
    fn matches_the_reference_calendar_on_awkward_times(
        ops in prop::collection::vec(0u32..u32::MAX, 1..600),
    ) {
        replay(&ops, &mut Census::default())?;
    }
}

/// The differential replay schedules into every position of the
/// calendar's sorted vector: into an empty calendar, as the new earliest
/// or the new latest event, strictly between two pending times, and among
/// equal times.  It also stops `pop_at_or_before` at a horizon before the
/// earliest event.  Each case comes often enough that a calendar
/// mishandling it fails [`replay`].
#[test]
fn the_replay_schedules_into_every_position() {
    let mut rng = ChaCha8Rng::seed_from_u64(21);
    let mut census = Census::default();
    for case in 0..64 {
        let ops: Vec<u32> = (0..rng.gen_range(1..600)).map(|_| rng.gen()).collect();
        if let Err(e) = replay(&ops, &mut census) {
            panic!("case {case}: {e:?}");
        }
    }
    assert!(
        census.into_empty > 100
            && census.new_earliest > 1_000
            && census.new_latest > 100
            && census.between > 500
            && census.among_equal > 2_000
            && census.horizon_before_earliest > 500,
        "{census:?}"
    );
}
