//! The discrete-event scheduler.
//!
//! rootcast simulations are driven by a single-threaded event loop: handlers
//! pop timestamped events in order and may schedule further events. Ties on
//! the timestamp are broken by insertion order (FIFO), which — together with
//! the seeded RNG in [`crate::rng`] — makes every run deterministic.
//!
//! The scheduler is generic over the event payload `E` so each layer of the
//! stack can define its own event enum without boxing.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scheduled event: a payload due at a virtual instant.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    due: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first,
        // and break timestamp ties by insertion sequence (FIFO).
        other
            .due
            .cmp(&self.due)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic event queue with a virtual clock.
///
/// ```
/// use rootcast_netsim::event::EventQueue;
/// use rootcast_netsim::time::SimTime;
///
/// let mut q: EventQueue<&str> = EventQueue::new();
/// q.schedule(SimTime::from_secs(2), "second");
/// q.schedule(SimTime::from_secs(1), "first");
/// assert_eq!(q.pop().unwrap().1, "first");
/// assert_eq!(q.now(), SimTime::from_secs(1));
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    now: SimTime,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            next_seq: 0,
        }
    }

    /// Current virtual time: the timestamp of the last popped event, or
    /// zero before any event has run.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events waiting.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are waiting.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `payload` at absolute time `due`.
    ///
    /// # Panics
    /// Panics if `due` is in the virtual past: the simulation would no
    /// longer be causally consistent.
    pub fn schedule(&mut self, due: SimTime, payload: E) {
        assert!(
            due >= self.now,
            "cannot schedule into the past: due={due} now={}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { due, seq, payload });
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let ev = self.heap.pop()?;
        debug_assert!(ev.due >= self.now);
        self.now = ev.due;
        Some((ev.due, ev.payload))
    }

    /// Peek the timestamp of the next event without popping it.
    pub fn peek_due(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.due)
    }

    /// Pop the next event only if it is due at or before `horizon`.
    ///
    /// This is the primitive used to interleave the event loop with
    /// fixed-step fluid updates: drain all events up to the step boundary,
    /// then advance the fluid state.
    pub fn pop_until(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        match self.peek_due() {
            Some(due) if due <= horizon => self.pop(),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), 'c');
        q.schedule(SimTime::from_secs(1), 'a');
        q.schedule(SimTime::from_secs(2), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(5));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), ());
        q.pop();
        q.schedule(SimTime::from_secs(1), ());
    }

    #[test]
    fn pop_until_respects_horizon() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), 1);
        q.schedule(SimTime::from_secs(10), 2);
        assert_eq!(
            q.pop_until(SimTime::from_secs(5)),
            Some((SimTime::from_secs(1), 1))
        );
        assert_eq!(q.pop_until(SimTime::from_secs(5)), None);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn schedule_while_draining() {
        // Handlers may schedule follow-ups; a chain of events each
        // scheduling the next must run to completion.
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, 0u32);
        let mut count = 0;
        while let Some((t, n)) = q.pop() {
            count += 1;
            if n < 9 {
                q.schedule(t + SimDuration::from_secs(1), n + 1);
            }
        }
        assert_eq!(count, 10);
        assert_eq!(q.now(), SimTime::from_secs(9));
    }
}
