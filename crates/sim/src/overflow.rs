//! Far-future overflow ring backing the timing-wheel event calendar.
//!
//! Events due beyond the wheel horizon (see [`crate::event`]) park here
//! until they are popped. The ring is a min-heap keyed on `(due, seq)`,
//! so the wheel can compare its own earliest entry against
//! [`OverflowRing::peek_key`] and the merged pop stream stays globally
//! (time, FIFO-within-time) ordered — bit-identical to the plain binary
//! heap the wheel replaced.
//!
//! This is the single sanctioned `BinaryHeap` in the workspace: the
//! clippy `disallowed_types` ban (see `clippy.toml` and docs/LINTS.md)
//! steers all other scheduling code through [`crate::EventQueue`], whose
//! wheel keeps near-future operations O(1).
#![allow(clippy::disallowed_types)]

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::Ns;

/// A far-future event: its absolute due time, global insertion sequence
/// number, and payload.
#[derive(Debug)]
struct Entry<E> {
    due: Ns,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (and, within a
        // tie, the first-inserted) entry surfaces first.
        other
            .due
            .cmp(&self.due)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Min-heap of events beyond the wheel horizon, ordered by `(due, seq)`.
#[derive(Debug)]
pub(crate) struct OverflowRing<E> {
    heap: BinaryHeap<Entry<E>>,
}

impl<E> OverflowRing<E> {
    pub(crate) fn new() -> Self {
        OverflowRing {
            heap: BinaryHeap::new(),
        }
    }

    pub(crate) fn push(&mut self, due: Ns, seq: u64, event: E) {
        self.heap.push(Entry { due, seq, event });
    }

    /// The `(due, seq)` key of the earliest parked event, if any.
    pub(crate) fn peek_key(&self) -> Option<(Ns, u64)> {
        self.heap.peek().map(|e| (e.due, e.seq))
    }

    pub(crate) fn pop(&mut self) -> Option<(Ns, E)> {
        self.heap.pop().map(|e| (e.due, e.event))
    }

    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_by_due_then_seq() {
        let mut r = OverflowRing::new();
        r.push(Ns::from_nanos(20), 1, 'b');
        r.push(Ns::from_nanos(10), 2, 'c');
        r.push(Ns::from_nanos(10), 0, 'a');
        assert_eq!(r.peek_key(), Some((Ns::from_nanos(10), 0)));
        assert_eq!(r.pop(), Some((Ns::from_nanos(10), 'a')));
        assert_eq!(r.pop(), Some((Ns::from_nanos(10), 'c')));
        assert_eq!(r.pop(), Some((Ns::from_nanos(20), 'b')));
        assert_eq!(r.pop(), None);
        assert_eq!(r.len(), 0);
    }
}
