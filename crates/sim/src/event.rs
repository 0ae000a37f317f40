//! The timed event queue: a time wheel in front of a binary heap.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::Cycle;

/// Cycles in the wheel's window, one bucket each: one bit per bucket of
/// the `u64` occupancy word.
const SLOTS: u64 = 64;

/// A deterministic, stable priority queue of `(time, event)` pairs.
///
/// Events pop in nondecreasing time order; events scheduled for the *same*
/// cycle pop in the order they were pushed (FIFO among ties). This
/// stability is what makes the whole simulation suite deterministic — a
/// plain `BinaryHeap` over time alone would pop equal-time events in
/// arbitrary order.
///
/// # Layout
///
/// The queue is a time wheel — a calendar queue whose days are single
/// cycles (R. Brown, "Calendar Queues", CACM 31(10), 1988) — in front of
/// a binary heap:
///
/// - The *window* is the 64 cycles starting at the latest time popped so
///   far. An event due inside it joins the FIFO bucket `time % 64`, so
///   push and pop are O(1). Every event in a bucket is due at the same
///   cycle, because the window is exactly 64 cycles wide. A one-word
///   occupancy bitmap, rotated to start at the window, finds the
///   earliest non-empty bucket with one `trailing_zeros`.
/// - An event outside the window — due 64 or more cycles ahead, or
///   earlier than the latest pop — goes to the heap, ordered by time and
///   then push order.
/// - `pop` takes whichever of the heap's head and the earliest bucket is
///   due first, and the heap's on a tie.
///
/// The heap may win ties because of one invariant: when the heap and a
/// bucket both hold events due at cycle `t`, each heap event at `t` was
/// pushed before each bucket event at `t`. The window's start never
/// moves back, so a heap event at `t` was pushed either while `t` lay
/// beyond the window, and so before any push could put `t` in a bucket;
/// or after the window had passed `t`, when no bucket can hold `t`
/// (bucketed events are never due before the latest pop). The pop order
/// is therefore exactly that of a heap over `(time, push order)`, for
/// every pattern of pushes and pops.
///
/// The window is 64 cycles so that the occupancy bitmap is one `u64`.
/// That covers the timed machine's common case (DESIGN.md §17): on the
/// repository benchmark's `timed-fib`, every event is due within 13
/// cycles of the latest pop and the heap is never used. Long-latency
/// configurations, such as `matmul` on a bit-serial hypercube or on an
/// `Ideal` network at 100 cycles, send 6–8% of their events to the heap.
///
/// # Example
///
/// ```
/// use ttda_sim::{Cycle, EventQueue};
///
/// let mut q = EventQueue::new();
/// q.push(Cycle(3), 'x');
/// q.push(Cycle(1), 'y');
/// assert_eq!(q.peek_time(), Some(Cycle(1)));
/// assert_eq!(q.pop(), Some((Cycle(1), 'y')));
/// assert_eq!(q.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// `SLOTS` FIFO buckets; bucket `t % SLOTS` holds the events due at
    /// `t`, for `t` in `[base, base + SLOTS)`.
    wheel: Vec<VecDeque<E>>,
    /// Bit `k` is set exactly when `wheel[k]` is non-empty.
    occupied: u64,
    /// Events in the wheel.
    in_wheel: usize,
    /// Start of the window: the latest time popped (zero before the
    /// first pop). Never decreases while events are pending.
    base: Cycle,
    /// Events that were outside the window when pushed.
    heap: BinaryHeap<Entry<E>>,
    /// Heap pushes so far: the tie-break among equal-time heap events.
    seq: u64,
}

#[derive(Debug, Clone)]
struct Entry<E> {
    key: Reverse<(Cycle, u64)>,
    event: E,
}

impl<E> Entry<E> {
    fn at(&self) -> Cycle {
        (self.key.0).0
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue::with_capacity(0)
    }

    /// Creates an empty queue whose heap — the store for events outside
    /// the 64-cycle window — has room for `cap` events. The window's
    /// buckets grow as they fill.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            wheel: (0..SLOTS).map(|_| VecDeque::new()).collect(),
            occupied: 0,
            in_wheel: 0,
            base: Cycle::ZERO,
            heap: BinaryHeap::with_capacity(cap),
            seq: 0,
        }
    }

    /// Schedules `event` to fire at time `at`.
    // Inlined, as are `pop` and `wheel_head`: out of line, `push` reloads
    // whole the small event its caller has just stored field by field,
    // and that stall was the timed machine's costliest instruction
    // (DESIGN.md §17).
    #[inline]
    pub fn push(&mut self, at: Cycle, event: E) {
        if at >= self.base && at.0 - self.base.0 < SLOTS {
            let slot = at.0 % SLOTS;
            self.wheel[slot as usize].push_back(event);
            self.occupied |= 1 << slot;
            self.in_wheel += 1;
        } else {
            let seq = self.seq;
            self.seq += 1;
            self.heap.push(Entry {
                key: Reverse((at, seq)),
                event,
            });
        }
    }

    /// Removes and returns the earliest event, if any.
    // Always: its heap path is large enough that, with two callers in one
    // codegen unit, a plain `#[inline]` leaves it out of line.
    #[inline(always)]
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        let bucketed = self.wheel_head();
        if let Some(top) = self.heap.peek() {
            let at = top.at();
            if bucketed.is_none_or(|b| at <= b) {
                let event = self.heap.pop().expect("peeked").event;
                self.base = self.base.max(at);
                return Some((at, event));
            }
        }
        let at = bucketed?;
        let slot = at.0 % SLOTS;
        let bucket = &mut self.wheel[slot as usize];
        let event = bucket.pop_front().expect("occupied bucket");
        if bucket.is_empty() {
            self.occupied &= !(1 << slot);
        }
        self.in_wheel -= 1;
        self.base = at;
        Some((at, event))
    }

    /// The due time of the earliest bucketed event.
    #[inline]
    fn wheel_head(&self) -> Option<Cycle> {
        if self.occupied == 0 {
            return None;
        }
        let ahead = self
            .occupied
            .rotate_right((self.base.0 % SLOTS) as u32)
            .trailing_zeros();
        Some(Cycle(self.base.0 + u64::from(ahead)))
    }

    /// Returns the time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<Cycle> {
        let heaped = self.heap.peek().map(Entry::at);
        match (heaped, self.wheel_head()) {
            (Some(h), Some(b)) => Some(h.min(b)),
            (h, b) => h.or(b),
        }
    }

    /// Removes and returns the earliest event only if it fires at or before
    /// `now`. Useful for cycle-stepped models that interleave an event
    /// queue with a per-cycle loop.
    pub fn pop_due(&mut self, now: Cycle) -> Option<(Cycle, E)> {
        if self.peek_time()? <= now {
            self.pop()
        } else {
            None
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.in_wheel + self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all pending events; the window restarts at cycle zero.
    pub fn clear(&mut self) {
        self.wheel.iter_mut().for_each(VecDeque::clear);
        self.occupied = 0;
        self.in_wheel = 0;
        self.base = Cycle::ZERO;
        self.heap.clear();
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Cycle(30), 3);
        q.push(Cycle(10), 1);
        q.push(Cycle(20), 2);
        assert_eq!(q.pop(), Some((Cycle(10), 1)));
        assert_eq!(q.pop(), Some((Cycle(20), 2)));
        assert_eq!(q.pop(), Some((Cycle(30), 3)));
        assert!(q.is_empty());
    }

    #[test]
    fn fifo_among_equal_times() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Cycle(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Cycle(5), i)));
        }
    }

    #[test]
    fn heap_events_keep_their_place_among_ties() {
        // 100 lies beyond the first window, so `a` goes to the heap; once
        // the window has moved to 50, `b` joins a bucket at the same
        // time and must still pop after `a`.
        let mut q = EventQueue::new();
        q.push(Cycle(100), 'a');
        q.push(Cycle(50), 'x');
        assert_eq!(q.pop(), Some((Cycle(50), 'x')));
        q.push(Cycle(100), 'b');
        // Earlier than the latest pop: also the heap's, and due first.
        q.push(Cycle(7), 'p');
        assert_eq!(q.peek_time(), Some(Cycle(7)));
        assert_eq!(q.pop(), Some((Cycle(7), 'p')));
        assert_eq!(q.pop(), Some((Cycle(100), 'a')));
        assert_eq!(q.pop(), Some((Cycle(100), 'b')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn window_wraps_around_the_wheel() {
        // Times that straddle a multiple of 64 share bucket indices with
        // earlier laps of the wheel.
        let mut q = EventQueue::new();
        q.push(Cycle(60), 0);
        assert_eq!(q.pop(), Some((Cycle(60), 0)));
        for (k, t) in [123, 64, 61, 100].into_iter().enumerate() {
            q.push(Cycle(t), k);
        }
        assert_eq!(q.pop(), Some((Cycle(61), 2)));
        assert_eq!(q.pop(), Some((Cycle(64), 1)));
        assert_eq!(q.pop(), Some((Cycle(100), 3)));
        assert_eq!(q.pop(), Some((Cycle(123), 0)));
        assert!(q.is_empty());
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = EventQueue::new();
        q.push(Cycle(10), "later");
        assert_eq!(q.pop_due(Cycle(9)), None);
        assert_eq!(q.pop_due(Cycle(10)), Some((Cycle(10), "later")));
        assert_eq!(q.pop_due(Cycle(10)), None);
    }

    #[test]
    fn clear_and_len() {
        let mut q = EventQueue::new();
        q.push(Cycle(1), ());
        q.push(Cycle(2), ());
        q.push(Cycle(500), ());
        assert_eq!(q.len(), 3);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }
}
