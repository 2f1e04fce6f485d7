//! Deterministic event calendar.
//!
//! Events are ordered by `(time, sequence)`, where the sequence number is
//! assigned at insertion.  This makes simultaneous events (common in
//! preemptive schedulers and in deterministic-service models) resolve in a
//! deterministic first-scheduled-first-served order, so every simulation
//! built on the calendar is exactly reproducible from its seed.
//!
//! # Layout
//!
//! The calendar is a binary min-heap of small `Copy` nodes over a payload
//! slab.  A node holds one `u128` sort key and the index of the slab slot
//! that owns the event's `(time, payload)`:
//!
//! - the key's high 64 bits are `time_key` of the event time, its low
//!   64 bits the event's sequence number;
//! - a payload is moved into a free slot by `schedule` and out of it by
//!   `pop`, which returns the slot to a free list, so sifting moves only
//!   nodes and the slab never holds more slots than the most events ever
//!   pending at once;
//! - `pop` returns the time stored in the slab, bit for bit (`-0.0`
//!   included), not a value decoded from the key.
//!
//! `pop` sifts the last node down from the root, choosing the smaller
//! child without a branch.
//!
//! # Why the integer order is the `(time, seq)` order
//!
//! Read as an unsigned integer, the bits of a non-negative double grow with
//! its value, and the bits of a negative double grow with its magnitude.
//! `time_key` keeps the first order and sets the sign bit, which lifts
//! every non-negative time above every negative one; it flips every bit of
//! a negative time, which reverses the magnitude order and clears the sign
//! bit.  `-0.0` is folded into `+0.0` first, because the two compare equal
//! as times and must tie.  So for any two finite times `a < b` exactly when
//! `time_key(a) < time_key(b)`, and `a == b` exactly when the keys are
//! equal, in which case the low halves, the sequence numbers, decide.
//! Infinities and NaN never reach a key: `schedule` rejects them.  Every
//! key is unique because every sequence number is, so the pop order is a
//! function of the scheduled events alone, not of the heap's shape.

/// A heap node: the packed `(time, seq)` key and the payload's slab slot.
#[derive(Clone, Copy)]
struct Node {
    key: u128,
    slot: usize,
}

/// Map a finite time onto a `u64` whose unsigned order is the time order
/// (see the module docs).
fn time_key(time: f64) -> u64 {
    let bits = if time == 0.0 { 0 } else { time.to_bits() };
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// A future-event list.
pub struct EventQueue<E> {
    heap: Vec<Node>,
    slab: Vec<Option<(f64, E)>>,
    free: Vec<usize>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty calendar.
    pub fn new() -> Self {
        Self {
            heap: Vec::new(),
            slab: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
        }
    }

    /// Schedule `event` at absolute time `time` (must be finite, not NaN).
    pub fn schedule(&mut self, time: f64, event: E) {
        assert!(time.is_finite(), "event time must be finite, got {time}");
        let key = u128::from(time_key(time)) << 64 | u128::from(self.next_seq);
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot] = Some((time, event));
                slot
            }
            None => {
                self.slab.push(Some((time, event)));
                self.slab.len() - 1
            }
        };
        // Sift up: move parents down until the new node's place is found.
        let node = Node { key, slot };
        let heap = &mut self.heap;
        let mut pos = heap.len();
        heap.push(node);
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if heap[parent].key < node.key {
                break;
            }
            heap[pos] = heap[parent];
            pos = parent;
        }
        heap[pos] = node;
    }

    /// Remove and return the earliest event as `(time, event)`.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap.swap_remove(0);
        // Sift the former last node down from the root: move the smaller
        // child up until the node is smaller than both children.
        let heap = &mut self.heap[..];
        if let Some(&node) = heap.first() {
            let end = heap.len();
            let mut pos = 0;
            loop {
                let l = 2 * pos + 1;
                let child = if l + 1 < end {
                    l + usize::from(heap[l + 1].key < heap[l].key)
                } else if l < end {
                    l
                } else {
                    break;
                };
                if node.key < heap[child].key {
                    break;
                }
                heap[pos] = heap[child];
                pos = child;
            }
            heap[pos] = node;
        }
        self.free.push(top.slot);
        let entry = self.slab[top.slot].take();
        Some(entry.expect("a pending event's slab slot is occupied"))
    }

    /// Remove and return the earliest event only if it occurs at or before
    /// `horizon`; otherwise leave the calendar untouched and return `None`.
    ///
    /// This is the horizon-respecting pop [`crate::engine::Engine::run`] is
    /// built on: an event past the horizon stays scheduled, so a run can be
    /// resumed later with a larger horizon without losing events.
    pub fn pop_at_or_before(&mut self, horizon: f64) -> Option<(f64, E)> {
        match self.peek_time() {
            Some(time) if time <= horizon => self.pop(),
            _ => None,
        }
    }

    /// Time of the next event without removing it.
    pub fn peek_time(&self) -> Option<f64> {
        let top = self.heap.first()?;
        self.slab[top.slot].as_ref().map(|&(time, _)| time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drop all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.slab.clear();
        self.free.clear();
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
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.schedule(5.0, ());
        assert_eq!(q.peek_time(), Some(5.0));
        assert_eq!(q.len(), 1);
    }

    #[test]
    #[should_panic]
    fn rejects_nan_times() {
        let mut q = EventQueue::new();
        q.schedule(f64::NAN, ());
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        q.schedule(1.0, ());
        q.schedule(2.0, ());
        q.clear();
        assert!(q.is_empty());
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

    #[test]
    fn holds_reuse_slab_slots() {
        let mut q = EventQueue::new();
        for i in 0..64u64 {
            q.schedule(i as f64, i);
        }
        let capacity = q.slab.capacity();
        let mut t = 0.5f64;
        for i in 0..100_000u64 {
            let (time, _) = q.pop().unwrap();
            t = (t * 997.0 + 0.123).fract();
            q.schedule(time + t, i);
        }
        assert_eq!(q.len(), 64);
        assert_eq!(q.slab.len(), 64, "a hold must reuse the popped slot");
        assert_eq!(q.slab.capacity(), capacity);
        assert!(q.free.is_empty());
    }

    #[test]
    fn cleared_queue_is_reusable() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(f64::from(i), i);
        }
        q.pop();
        q.clear();
        assert_eq!((q.len(), q.peek_time(), q.pop()), (0, None, None));
        for i in 0..5 {
            q.schedule(2.0, i);
        }
        q.schedule(1.0, 5);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, [5, 0, 1, 2, 3, 4]);
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
