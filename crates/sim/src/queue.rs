//! The pending-event set.
//!
//! Two interchangeable implementations sit behind the [`Scheduler`] trait:
//!
//! * [`CalendarQueue`](crate::calendar::CalendarQueue) — a two-level
//!   calendar/timing-wheel scheduler with amortised `O(1)` scheduling for the
//!   near future: the one the windowed engine runs on.
//! * [`EventQueue`] — a binary heap keyed on `(timestamp, EventId)`, the
//!   reference implementation. Simple, allocation-light, `O(log n)` per
//!   operation; kept as the oracle the calendar queue is checked against.
//!
//! Both deliver events in strictly increasing `(time, EventId)` order, so a
//! model that picks stable ids gets the same same-instant order on every
//! run. The property test in `tests/scheduler_equivalence.rs` checks the two
//! implementations agree on arbitrary schedule/cancel sequences.
//!
//! Cancellation is lazy: cancelled ids are kept in a set and skipped when
//! popped, which is O(1) per cancellation and avoids a heap rebuild. A
//! second set tracks the ids that are actually pending, so cancelling an id
//! that was already delivered (or never scheduled) is a detectable no-op
//! instead of silently corrupting the live count.

use crate::event::EventId;
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// One scheduled entry. Shared with the calendar scheduler.
pub(crate) struct Entry<E> {
    pub(crate) at: SimTime,
    pub(crate) id: EventId,
    pub(crate) event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.id == other.id
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest (time, id) pops first.
        other.at.cmp(&self.at).then_with(|| other.id.cmp(&self.id))
    }
}

/// A fast multiply-mix hasher for [`EventId`] sets. Event ids are dense
/// sequence numbers, so SipHash's DoS resistance buys nothing on this hot
/// path; a single splitmix round distributes them well.
#[derive(Default, Clone)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = crate::rng::mix64(n.wrapping_add(0x9E37_79B9_7F4A_7C15));
    }
}

/// A hash set of event ids using the fast id hasher.
pub(crate) type IdSet = HashSet<EventId, BuildHasherDefault<IdHasher>>;

/// The pending-event set interface. Implementations must deliver events in
/// strictly increasing `(time, EventId)` order; ids pushed must be unique
/// among pending events (the windowed engine's content-derived keys
/// guarantee this).
pub trait Scheduler<E> {
    /// Inserts an event at `at` with identity `id`.
    fn push(&mut self, at: SimTime, id: EventId, event: E);
    /// Marks a pending event as cancelled. Returns true only if the id was
    /// actually pending (not yet delivered, not already cancelled).
    fn cancel(&mut self, id: EventId) -> bool;
    /// Removes and returns the earliest live event, skipping cancelled ones.
    fn pop(&mut self) -> Option<(SimTime, EventId, E)>;
    /// Timestamp of the earliest live event without removing it. Takes
    /// `&mut self` so implementations may prune cancelled entries.
    fn peek_time(&mut self) -> Option<SimTime>;
    /// Number of live (non-cancelled) pending events.
    fn len(&self) -> usize;
    /// True if there are no live pending events.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Discards every pending event.
    fn clear(&mut self);
}

/// A timestamp-ordered binary-heap queue of pending events with lazy
/// cancellation — the reference [`Scheduler`] implementation.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Ids cancelled while still sitting in the heap; skipped on pop.
    cancelled: IdSet,
    /// Ids scheduled and not yet delivered or cancelled.
    pending: IdSet,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            cancelled: IdSet::default(),
            pending: IdSet::default(),
        }
    }

    /// Inserts an event at `at` with identity `id`.
    pub fn push(&mut self, at: SimTime, id: EventId, event: E) {
        self.heap.push(Entry { at, id, event });
        self.pending.insert(id);
    }

    /// Marks an event as cancelled. Returns true only if the id was still
    /// pending; cancelling a delivered, unknown or already-cancelled id is a
    /// no-op that returns false.
    pub fn cancel(&mut self, id: EventId) -> bool {
        if self.pending.remove(&id) {
            self.cancelled.insert(id);
            true
        } else {
            false
        }
    }

    /// Removes and returns the earliest live event, skipping cancelled ones.
    pub fn pop(&mut self) -> Option<(SimTime, EventId, E)> {
        while let Some(entry) = self.heap.pop() {
            if self.cancelled.remove(&entry.id) {
                continue;
            }
            self.pending.remove(&entry.id);
            return Some((entry.at, entry.id, entry.event));
        }
        None
    }

    /// Timestamp of the earliest live event without removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        // Drop cancelled heads so the peek is accurate.
        while let Some(head) = self.heap.peek() {
            if self.cancelled.contains(&head.id) {
                let popped = self.heap.pop().expect("peeked entry must pop");
                self.cancelled.remove(&popped.id);
            } else {
                return Some(head.at);
            }
        }
        None
    }

    /// Number of live (non-cancelled) pending events.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True if there are no live pending events.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Discards every pending event.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.cancelled.clear();
        self.pending.clear();
    }
}

impl<E> Scheduler<E> for EventQueue<E> {
    fn push(&mut self, at: SimTime, id: EventId, event: E) {
        EventQueue::push(self, at, id, event)
    }
    fn cancel(&mut self, id: EventId) -> bool {
        EventQueue::cancel(self, id)
    }
    fn pop(&mut self) -> Option<(SimTime, EventId, E)> {
        EventQueue::pop(self)
    }
    fn peek_time(&mut self) -> Option<SimTime> {
        EventQueue::peek_time(self)
    }
    fn len(&self) -> usize {
        EventQueue::len(self)
    }
    fn clear(&mut self) {
        EventQueue::clear(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(30), EventId(2), "c");
        q.push(t(10), EventId(0), "a");
        q.push(t(20), EventId(1), "b");
        assert_eq!(q.pop().unwrap().2, "a");
        assert_eq!(q.pop().unwrap().2, "b");
        assert_eq!(q.pop().unwrap().2, "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn equal_timestamps_are_fifo_by_id() {
        let mut q = EventQueue::new();
        q.push(t(5), EventId(7), "second");
        q.push(t(5), EventId(3), "first");
        q.push(t(5), EventId(9), "third");
        assert_eq!(q.pop().unwrap().2, "first");
        assert_eq!(q.pop().unwrap().2, "second");
        assert_eq!(q.pop().unwrap().2, "third");
    }

    #[test]
    fn cancellation_skips_events() {
        let mut q = EventQueue::new();
        q.push(t(1), EventId(0), "keep");
        q.push(t(2), EventId(1), "drop");
        q.push(t(3), EventId(2), "keep2");
        assert!(q.cancel(EventId(1)));
        assert!(!q.cancel(EventId(1)), "double cancel reports false");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().2, "keep");
        assert_eq!(q.pop().unwrap().2, "keep2");
        assert!(q.pop().is_none());
    }

    /// Regression test: cancelling an id that was already delivered used to
    /// report success, permanently leak the id into the cancelled set, and
    /// undercount the live total (making `is_empty` lie and stopping
    /// simulations early).
    #[test]
    fn cancelling_a_delivered_id_is_a_no_op() {
        let mut q = EventQueue::new();
        q.push(t(1), EventId(0), "a");
        q.push(t(2), EventId(1), "b");
        assert_eq!(q.pop().unwrap().2, "a");
        // Id 0 has been delivered: cancelling it must fail and must not
        // affect the still-pending id 1.
        assert!(!q.cancel(EventId(0)), "delivered ids cannot be cancelled");
        assert_eq!(q.len(), 1, "live count must not be corrupted");
        assert!(!q.is_empty());
        assert_eq!(q.pop().unwrap().2, "b", "pending event must still deliver");
        assert!(q.pop().is_none());
        // Cancelling an id that was never scheduled is also a no-op.
        assert!(!q.cancel(EventId(99)));
        assert_eq!(q.len(), 0);
    }

    /// The delivered-id leak also corrupted a later push/pop cycle when the
    /// cancelled set was consulted; pushing fresh events after a bogus cancel
    /// must still deliver all of them.
    #[test]
    fn bogus_cancels_do_not_leak_into_later_cycles() {
        let mut q = EventQueue::new();
        q.push(t(1), EventId(0), 0u32);
        assert!(q.pop().is_some());
        assert!(!q.cancel(EventId(0)));
        q.push(t(2), EventId(1), 1u32);
        q.push(t(3), EventId(2), 2u32);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().2, 1);
        assert_eq!(q.pop().unwrap().2, 2);
        assert!(q.is_empty());
    }

    #[test]
    fn peek_time_ignores_cancelled_head() {
        let mut q = EventQueue::new();
        q.push(t(1), EventId(0), 1u32);
        q.push(t(2), EventId(1), 2u32);
        q.cancel(EventId(0));
        assert_eq!(q.peek_time(), Some(t(2)));
        assert_eq!(q.pop().unwrap().2, 2);
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        for i in 0..10u64 {
            q.push(t(i), EventId(i), i);
        }
        assert_eq!(q.len(), 10);
        q.clear();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn large_interleaved_workload_stays_ordered() {
        let mut q = EventQueue::new();
        // Insert in a scrambled but deterministic order.
        let mut id = 0u64;
        for round in 0..100u64 {
            for k in [7u64, 3, 9, 1, 5] {
                q.push(t(round * 10 + k), EventId(id), round * 10 + k);
                id += 1;
            }
        }
        let mut last = 0u64;
        let mut count = 0;
        while let Some((at, _, v)) = q.pop() {
            assert_eq!(at, t(v));
            assert!(v >= last, "events must pop in non-decreasing time order");
            last = v;
            count += 1;
        }
        assert_eq!(count, 500);
    }
}
