//! Deterministic event calendar.
//!
//! Events pop in time order, and events due at the same time pop in the
//! order they were scheduled.  This makes simultaneous events (common in
//! preemptive schedulers and in deterministic-service models) resolve in a
//! deterministic first-scheduled-first-served order, so every simulation
//! built on the calendar is exactly reproducible from its seed.
//!
//! # Layout
//!
//! The calendar is one vector of `(time, payload)` entries sorted latest
//! first, so the earliest event is the last entry:
//!
//! - a pop takes the last entry, in O(1), and returns the time it was
//!   scheduled at, bit for bit (`-0.0` included);
//! - `schedule` walks back from the earliest end past every entry due at
//!   or before the new time and inserts there.  So the new event pops
//!   after every pending event due at its time: equal times, `-0.0`
//!   against `+0.0` included, pop in schedule order with no sequence
//!   number.  The walk and the insert each touch the entries due at or
//!   before the new time, so a schedule is O(pending), and a new earliest
//!   event, such as a zero-delay hold, is a push.
//!
//! Finite times are totally ordered by `<=`, so the insertion point is
//! unique and the pop order is a function of the scheduled events alone.
//! Infinities and NaN never enter: `schedule` rejects them.
//!
//! A service-fabric replication keeps few events pending: a mean of
//! 1.2–5.8 before a schedule, and at most 49 in any scenario.  At those
//! sizes a sorted list beats a heap.  A calendar holding thousands of
//! events would pay for each schedule in proportion; no caller keeps one.

/// A future-event list.
pub struct EventQueue<E> {
    /// The pending events, latest first.
    events: Vec<(f64, E)>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty calendar.
    pub fn new() -> Self {
        Self { events: Vec::new() }
    }

    /// Schedule `event` at absolute time `time` (must be finite, not NaN).
    pub fn schedule(&mut self, time: f64, event: E) {
        assert!(time.is_finite(), "event time must be finite, got {time}");
        let mut at = self.events.len();
        while at > 0 && self.events[at - 1].0 <= time {
            at -= 1;
        }
        self.events.insert(at, (time, event));
    }

    /// Remove and return the earliest event as `(time, event)`.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        self.pop_at_or_before(f64::INFINITY)
    }

    /// Remove and return the earliest event only if it occurs at or before
    /// `horizon`; otherwise leave the pending events as they are and return
    /// `None`.
    ///
    /// This is the horizon-respecting pop a simulation loop runs on (the
    /// service fabric's `run_fabric_with` is one): an event past the
    /// horizon stays scheduled instead of being lost.
    pub fn pop_at_or_before(&mut self, horizon: f64) -> Option<(f64, E)> {
        if self.events.last()?.0 <= horizon {
            self.events.pop()
        } else {
            None
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(3.0, "c");
        q.schedule(1.0, "a");
        q.schedule(2.0, "b");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((2.0, "b")));
        assert_eq!(q.pop(), Some((3.0, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_broken_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(1.0, 1);
        q.schedule(1.0, 2);
        q.schedule(1.0, 3);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    #[should_panic]
    fn rejects_nan_times() {
        let mut q = EventQueue::new();
        q.schedule(f64::NAN, ());
    }

    #[test]
    fn many_events_sorted() {
        let mut q = EventQueue::new();
        // Insert pseudo-random times and verify the pop order is sorted.
        let mut t = 0.5f64;
        for _ in 0..1000 {
            t = (t * 997.0 + 0.123).fract() * 100.0;
            q.schedule(t, t);
        }
        let mut prev = f64::NEG_INFINITY;
        while let Some((time, _)) = q.pop() {
            assert!(time >= prev);
            prev = time;
        }
    }

    /// perfbench's hold replay at n = 64: a pop then a schedule keeps the
    /// pending count, so the vector never reallocates.
    #[test]
    fn holds_keep_the_vector_capacity() {
        let mut q = EventQueue::new();
        for i in 0..64u64 {
            q.schedule(i as f64, i);
        }
        let capacity = q.events.capacity();
        let mut t = 0.5f64;
        for i in 0..100_000u64 {
            let (time, _) = q.pop().unwrap();
            t = (t * 997.0 + 0.123).fract();
            q.schedule(time + t, i);
            assert_eq!(q.len(), 64, "hold {i}");
            assert_eq!(q.events.capacity(), capacity, "hold {i}");
        }
    }

    #[test]
    #[should_panic(expected = "event time must be finite")]
    fn rejects_positive_infinity() {
        EventQueue::new().schedule(f64::INFINITY, ());
    }

    #[test]
    #[should_panic(expected = "event time must be finite")]
    fn rejects_negative_infinity() {
        EventQueue::new().schedule(f64::NEG_INFINITY, ());
    }
}
