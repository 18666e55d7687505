//! Deterministic event calendar: a hierarchical timing wheel.
//!
//! [`EventQueue`] delivers events in `(time, sequence)` order. The
//! sequence number is assigned at insertion, so two events scheduled for
//! the same instant are delivered in insertion order. This tie-break rule
//! is what makes whole-simulation runs bit-for-bit reproducible, which in
//! turn is what the calibration test suite relies on.
//!
//! # Architecture
//!
//! Near-future events — within [`EventQueue::HORIZON`] of the causality
//! watermark — go into a timing wheel: `WHEEL_SLOTS` (8192) buckets of
//! `SLOT_NS` (4096) nanoseconds each, about 33.5 ms in all, with a
//! one-bit-per-slot occupancy bitmap for O(words) next-event scans.
//! Every wheel entry is a node in one slab; each slot holds only the
//! `u32` index of its chain's first node, and nodes link to the next
//! node of their slot. Popped nodes go onto a LIFO free list and are
//! reused by later pushes, so there are no per-slot buffers and
//! steady-state scheduling allocates nothing once the slab has grown to
//! the run's working set. Push and pop are O(1) amortized. Events beyond
//! the horizon park in the `overflow` module's ring (the workspace's one
//! sanctioned `BinaryHeap`); every pop compares the wheel's earliest
//! entry with the ring's `(due, seq)` key, so the merged stream is
//! exactly the order a single global heap would produce.
//!
//! Two invariants make the wheel sound:
//!
//! 1. every wheel-resident event lies in `[watermark, watermark +
//!    HORIZON)` — enforced at push time, and preserved as the watermark
//!    only advances toward pending events;
//! 2. within that window each slot index maps to exactly one absolute
//!    `due >> SLOT_SHIFT` value, so scanning slots upward from the
//!    watermark's slot visits events in non-decreasing time order.

use crate::overflow::OverflowRing;
use crate::time::Ns;

/// Log2 of the wheel granularity: each slot covers 2^12 = 4096 ns.
const SLOT_SHIFT: u32 = 12;
/// Nanoseconds covered by one wheel slot.
const SLOT_NS: u64 = 1 << SLOT_SHIFT;
/// Number of wheel slots (power of two for mask arithmetic).
const WHEEL_SLOTS: usize = 8192;
const WHEEL_MASK: u64 = WHEEL_SLOTS as u64 - 1;
/// Occupancy bitmap: one bit per slot.
const BITMAP_WORDS: usize = WHEEL_SLOTS / 64;
/// End-of-chain marker for slot chains and the free list.
const NIL: u32 = u32::MAX;

/// One wheel entry in the node slab. A live node sits on its slot's
/// chain and holds its event; a free node sits on the free list with
/// `event == None`.
#[derive(Debug)]
struct Node<E> {
    due: Ns,
    seq: u64,
    /// Next node of the same slot chain (or of the free list), or [`NIL`].
    next: u32,
    event: Option<E>,
}

/// A deterministic discrete-event calendar.
///
/// Events are popped in non-decreasing time order; simultaneous events are
/// popped in the order they were pushed (FIFO within an instant).
///
/// # Example
///
/// ```
/// use hiss_sim::{EventQueue, Ns};
///
/// let mut q = EventQueue::new();
/// q.push(Ns::from_nanos(10), 'b');
/// q.push(Ns::from_nanos(10), 'c'); // same instant: FIFO order
/// q.push(Ns::from_nanos(5), 'a');
///
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Every wheel entry ever allocated, live or free.
    nodes: Vec<Node<E>>,
    /// Head of the LIFO free list of slab nodes, or [`NIL`].
    free: u32,
    /// First node of each slot's chain (or [`NIL`]), indexed by
    /// `(due >> SLOT_SHIFT) % WHEEL_SLOTS`. Chains are unordered.
    heads: Box<[u32]>,
    /// One occupancy bit per slot.
    occupied: [u64; BITMAP_WORDS],
    /// Events due at or beyond `watermark + HORIZON`.
    overflow: OverflowRing<E>,
    /// Pending events resident in the wheel (excludes the overflow ring).
    wheel_len: usize,
    next_seq: u64,
    /// Time of the most recently popped event; pushes earlier than this
    /// indicate a causality bug in the caller.
    watermark: Ns,
    /// High-watermark of [`EventQueue::len`], for capacity planning
    /// (published as `run.events_peak`).
    peak: usize,
}

impl<E> EventQueue<E> {
    /// Span of simulated time the wheel covers ahead of the watermark
    /// (~33.5 ms). Events beyond it go to the overflow ring until popped.
    pub const HORIZON: Ns = Ns::from_nanos(SLOT_NS * WHEEL_SLOTS as u64);

    /// Creates an empty calendar.
    ///
    /// The node slab grows to the run's working set on demand and then
    /// recycles its nodes.
    pub fn new() -> Self {
        EventQueue {
            nodes: Vec::new(),
            free: NIL,
            heads: vec![NIL; WHEEL_SLOTS].into_boxed_slice(),
            occupied: [0; BITMAP_WORDS],
            overflow: OverflowRing::new(),
            wheel_len: 0,
            next_seq: 0,
            watermark: Ns::ZERO,
            peak: 0,
        }
    }

    /// Schedules `event` at absolute time `due`.
    ///
    /// # Panics
    ///
    /// Panics if `due` is earlier than the time of the last popped event —
    /// scheduling into the past would silently corrupt causality.
    #[inline]
    pub fn push(&mut self, due: Ns, event: E) {
        // Keep the check branch-cheap: no formatting machinery on the
        // hot path, just a compare and a never-inlined cold call.
        if due < self.watermark {
            Self::causality_violation(due, self.watermark);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let due_slot = due.as_nanos() >> SLOT_SHIFT;
        let base_slot = self.watermark.as_nanos() >> SLOT_SHIFT;
        if due_slot - base_slot < WHEEL_SLOTS as u64 {
            let slot = (due_slot & WHEEL_MASK) as usize;
            let next = self.heads[slot];
            let node = Node {
                due,
                seq,
                next,
                event: Some(event),
            };
            let at = if self.free == NIL {
                assert!(self.nodes.len() < NIL as usize, "event wheel is full");
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            } else {
                let at = self.free;
                self.free = self.nodes[at as usize].next;
                self.nodes[at as usize] = node;
                at
            };
            self.heads[slot] = at;
            self.occupied[slot / 64] |= 1 << (slot % 64);
            self.wheel_len += 1;
        } else {
            self.overflow.push(due, seq, event);
        }
        let len = self.len();
        if len > self.peak {
            self.peak = len;
        }
    }

    #[cold]
    #[inline(never)]
    fn causality_violation(due: Ns, watermark: Ns) -> ! {
        panic!("event scheduled at {due} is before current time {watermark}");
    }

    /// Index of the first occupied slot at or after the watermark's slot
    /// (wrapping), which — by wheel invariant 2 — holds the earliest
    /// wheel-resident events.
    fn first_occupied_slot(&self) -> Option<usize> {
        if self.wheel_len == 0 {
            return None;
        }
        let cur = ((self.watermark.as_nanos() >> SLOT_SHIFT) & WHEEL_MASK) as usize;
        let (cur_word, cur_bit) = (cur / 64, cur % 64);
        let head = self.occupied[cur_word] & (!0u64 << cur_bit);
        if head != 0 {
            return Some(cur_word * 64 + head.trailing_zeros() as usize);
        }
        for step in 1..=BITMAP_WORDS {
            let w = (cur_word + step) % BITMAP_WORDS;
            let mut word = self.occupied[w];
            if w == cur_word {
                // Wrapped all the way around: only bits below the start.
                word &= (1u64 << cur_bit) - 1;
            }
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
        }
        unreachable!("wheel_len > 0 but no slot occupied")
    }

    /// The earliest node of `slot`'s chain by `(due, seq)`, and the node
    /// linking to it ([`NIL`] when it is the chain's head). Chains are
    /// unordered, so this is a linear scan — slots are small by
    /// construction.
    fn slot_min(&self, slot: usize) -> (u32, u32) {
        let mut at = self.heads[slot];
        debug_assert_ne!(at, NIL);
        let (mut best, mut best_prev) = (at, NIL);
        let first = &self.nodes[at as usize];
        let mut best_key = (first.due, first.seq);
        let mut prev = at;
        at = first.next;
        while at != NIL {
            let node = &self.nodes[at as usize];
            if (node.due, node.seq) < best_key {
                best_key = (node.due, node.seq);
                best = at;
                best_prev = prev;
            }
            prev = at;
            at = node.next;
        }
        (best, best_prev)
    }

    /// Removes and returns the earliest event, advancing the causality
    /// watermark to its due time.
    pub fn pop(&mut self) -> Option<(Ns, E)> {
        let wheel_min = self
            .first_occupied_slot()
            .map(|slot| (slot, self.slot_min(slot)));
        let take_wheel = match (wheel_min, self.overflow.peek_key()) {
            (Some((_, (best, _))), Some(okey)) => {
                let node = &self.nodes[best as usize];
                (node.due, node.seq) < okey
            }
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return None,
        };
        let (due, event) = if take_wheel {
            let (slot, (best, best_prev)) = wheel_min.expect("wheel side chosen");
            let node = &mut self.nodes[best as usize];
            let (due, next) = (node.due, node.next);
            let event = node.event.take().expect("chained nodes hold an event");
            node.next = self.free;
            self.free = best;
            if best_prev == NIL {
                self.heads[slot] = next;
                if next == NIL {
                    self.occupied[slot / 64] &= !(1 << (slot % 64));
                }
            } else {
                self.nodes[best_prev as usize].next = next;
            }
            self.wheel_len -= 1;
            (due, event)
        } else {
            self.overflow.pop().expect("overflow side chosen")
        };
        debug_assert!(due >= self.watermark);
        self.watermark = due;
        Some((due, event))
    }

    /// The due time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Ns> {
        let wheel = self
            .first_occupied_slot()
            .map(|slot| self.nodes[self.slot_min(slot).0 as usize].due);
        let over = self.overflow.peek_key().map(|(due, _)| due);
        match (wheel, over) {
            (Some(w), Some(o)) => Some(w.min(o)),
            (w, o) => w.or(o),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.wheel_len + self.overflow.len()
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The current causality watermark (time of the last popped event).
    pub fn now(&self) -> Ns {
        self.watermark
    }

    /// Lifetime number of events pushed into this calendar (the
    /// insertion sequence counter, so it costs nothing extra to track).
    /// A deterministic work counter: two identical simulations push
    /// exactly the same events, whatever the host looks like.
    pub fn pushed(&self) -> u64 {
        self.next_seq
    }

    /// Lifetime number of events popped from this calendar
    /// (`pushed() - len()`, both already tracked).
    pub fn popped(&self) -> u64 {
        self.next_seq - self.len() as u64
    }

    /// High-watermark of simultaneously pending events over the
    /// calendar's lifetime (deterministic; published as
    /// `run.events_peak` and the input to capacity planning).
    pub fn peak(&self) -> u64 {
        self.peak as u64
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// A component that can report the absolute time of its next
/// self-scheduled event, given the current simulated time.
///
/// This is the scheduling discipline the SoC event loop is built on:
/// instead of stepping every component every tick, each component
/// *analytically* computes when it next needs the loop's attention
/// (`None` = it will only wake via an external stimulus), and the loop
/// schedules exactly one event there. Idle spans cost nothing.
pub trait NextTick {
    /// Absolute time of the component's next self-event at-or-after
    /// `now`, or `None` if it is quiescent until externally stimulated.
    fn next_tick(&self, now: Ns) -> Option<Ns>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Ns::from_nanos(30), 3);
        q.push(Ns::from_nanos(10), 1);
        q.push(Ns::from_nanos(20), 2);
        let got: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Ns::from_nanos(42), i);
        }
        let got: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        let want: Vec<i32> = (0..100).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn watermark_tracks_pops() {
        let mut q = EventQueue::new();
        q.push(Ns::from_nanos(7), ());
        assert_eq!(q.now(), Ns::ZERO);
        q.pop();
        assert_eq!(q.now(), Ns::from_nanos(7));
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.push(Ns::from_nanos(10), ());
        q.pop();
        q.push(Ns::from_nanos(5), ());
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.push(Ns::from_nanos(4), 'x');
        assert_eq!(q.peek_time(), Some(Ns::from_nanos(4)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn push_pop_work_counters_track_lifetime_totals() {
        let mut q = EventQueue::new();
        assert_eq!((q.pushed(), q.popped()), (0, 0));
        for i in 0..5 {
            q.push(Ns::from_nanos(i), i);
        }
        assert_eq!((q.pushed(), q.popped()), (5, 0));
        q.pop();
        q.pop();
        assert_eq!((q.pushed(), q.popped()), (5, 2));
        while q.pop().is_some() {}
        assert_eq!((q.pushed(), q.popped()), (5, 5));
    }

    #[test]
    fn interleaved_push_pop_remains_ordered() {
        let mut q = EventQueue::new();
        q.push(Ns::from_nanos(10), "a");
        q.push(Ns::from_nanos(50), "d");
        assert_eq!(q.pop().unwrap().1, "a");
        // now = 10; schedule more in the future
        q.push(Ns::from_nanos(20), "b");
        q.push(Ns::from_nanos(30), "c");
        let got: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(got, vec!["b", "c", "d"]);
    }

    #[test]
    fn peak_tracks_the_pending_high_watermark() {
        let mut q = EventQueue::new();
        assert_eq!(q.peak(), 0);
        q.push(Ns::from_nanos(1), 1);
        q.push(Ns::from_nanos(2), 2);
        q.push(EventQueue::<i32>::HORIZON * 3, 3); // overflow counts too
        assert_eq!(q.peak(), 3);
        while q.pop().is_some() {}
        assert_eq!(q.peak(), 3, "peak is a lifetime high-watermark");
        q.push(q.now() + Ns::from_nanos(1), 4);
        assert_eq!(q.peak(), 3);
    }

    #[test]
    fn events_at_the_horizon_boundary_stay_ordered() {
        let g = Ns::from_nanos(SLOT_NS);
        let h = EventQueue::<u32>::HORIZON;
        let mut q = EventQueue::new();
        q.push(h - g, 0); // last wheel slot
        q.push(h, 1); // first overflow event
        q.push(h + g, 2);
        q.push(Ns::from_nanos(1), 3); // near event, pushed last
        let got: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(got, vec![3, 0, 1, 2]);
    }

    #[test]
    fn overflow_event_keeps_fifo_priority_over_later_wheel_push() {
        // An event parked in the overflow ring must still beat a
        // same-instant event pushed later (lower seq wins), even though
        // the later push lands in the wheel once the window has moved.
        let h = EventQueue::<&str>::HORIZON;
        let mut q = EventQueue::new();
        let t = h + Ns::from_nanos(100);
        q.push(t, "first"); // beyond horizon: overflow
        q.push(h - Ns::from_nanos(1), "opener");
        assert_eq!(q.pop().unwrap().1, "opener"); // watermark ≈ horizon
        q.push(t, "second"); // now within the window: wheel
        assert_eq!(q.pop(), Some((t, "first")));
        assert_eq!(q.pop(), Some((t, "second")));
    }

    #[test]
    fn far_jumps_rebase_the_wheel_correctly() {
        // Pop an overflow event that jumps the watermark many horizons
        // ahead, then keep scheduling: the wheel must stay consistent.
        let h = EventQueue::<u32>::HORIZON;
        let mut q = EventQueue::new();
        q.push(h * 10, 0);
        assert_eq!(q.pop(), Some((h * 10, 0)));
        q.push(h * 10 + Ns::from_nanos(5), 1);
        q.push(h * 11, 2); // beyond the rebased window: overflow
        q.push(h * 10 + Ns::from_nanos(3), 3);
        let got: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(got, vec![3, 1, 2]);
        assert_eq!(q.now(), h * 11);
    }

    #[test]
    fn slots_recycle_their_buffers() {
        // Drain-and-refill of the same slot must not lose or reorder
        // anything (its nodes go back to the free list and are reused).
        let mut q = EventQueue::new();
        for round in 0u64..4 {
            for i in 0..8 {
                q.push(q.now() + Ns::from_nanos(i + 1), round * 100 + i);
            }
            let mut last = (q.now(), 0u64);
            while let Some((t, v)) = q.pop() {
                assert!((t, v) >= last || t > last.0);
                last = (t, v);
            }
            assert!(q.is_empty());
        }
        assert_eq!(q.pushed(), 32);
        assert_eq!(q.popped(), 32);
    }

    /// Reference model of the calendar: a plain vector whose `(due, seq)`
    /// minimum is the next pop — the order one global heap would give.
    pub(super) struct Reference<T> {
        entries: Vec<(Ns, u64, T)>,
        pushed: u64,
    }

    impl<T: Copy> Reference<T> {
        pub(super) fn new() -> Self {
            Reference {
                entries: Vec::new(),
                pushed: 0,
            }
        }

        pub(super) fn push(&mut self, due: Ns, id: T) {
            self.entries.push((due, self.pushed, id));
            self.pushed += 1;
        }

        pub(super) fn pop(&mut self) -> Option<(Ns, T)> {
            let at = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, &(due, seq, _))| (due, seq))?
                .0;
            let (due, _, id) = self.entries.remove(at);
            Some((due, id))
        }

        pub(super) fn pushed(&self) -> u64 {
            self.pushed
        }
    }

    #[test]
    fn node_slab_reuses_freed_nodes_across_drains_and_refills() {
        let h = EventQueue::<u64>::HORIZON.as_nanos();
        let mut rng = crate::Rng::new(29);
        let mut q = EventQueue::new();
        let mut reference = Reference::new();
        for round in 0u64..6 {
            // Refill with same-instant bursts, same-slot neighbours, gaps
            // across the wheel and gaps beyond the horizon, popping one
            // event in three on the way.
            for i in 0..500 {
                let gap = match i % 4 {
                    0 => 0,
                    1 => rng.gen_range(0, SLOT_NS),
                    2 => rng.gen_range(0, h),
                    _ => rng.gen_range(0, 2 * h),
                };
                let due = q.now() + Ns::from_nanos(gap);
                q.push(due, round * 1_000 + i);
                reference.push(due, round * 1_000 + i);
                if i % 3 == 0 {
                    assert_eq!(q.pop(), reference.pop());
                }
            }
            // Drain: the tails must agree too.
            while let Some(want) = reference.pop() {
                assert_eq!(q.pop(), Some(want));
            }
            assert_eq!(q.pop(), None);
            // Every node is back on the free list, and the slab never
            // outgrew the pending high-watermark: freed nodes were reused.
            let mut free = 0;
            let mut at = q.free;
            while at != NIL {
                free += 1;
                at = q.nodes[at as usize].next;
            }
            assert_eq!(free, q.nodes.len(), "round {round}");
            assert!(q.nodes.len() as u64 <= q.peak(), "round {round}");
            assert!(q.heads.iter().all(|&head| head == NIL));
        }
        assert_eq!(q.pushed(), reference.pushed());
        assert_eq!(q.popped(), 3_000);
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::Reference;
    use super::*;
    use proptest::prelude::*;

    /// The wheel horizon in nanoseconds: gap draws are multiples of it,
    /// so the properties keep reaching the overflow ring.
    const HORIZON_NS: u64 = EventQueue::<()>::HORIZON.as_nanos();

    proptest! {
        /// Popping the whole queue yields times in non-decreasing order,
        /// regardless of insertion order.
        #[test]
        fn pop_order_is_monotone(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.push(Ns::from_nanos(*t), i);
            }
            let mut last = Ns::ZERO;
            while let Some((t, _)) = q.pop() {
                prop_assert!(t >= last);
                last = t;
            }
        }

        /// FIFO within an instant: events with equal timestamps come out in
        /// insertion order.
        #[test]
        fn equal_times_preserve_insertion_order(
            times in proptest::collection::vec(0u64..16, 1..200)
        ) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.push(Ns::from_nanos(*t), i);
            }
            let mut last: Option<(Ns, usize)> = None;
            while let Some((t, i)) = q.pop() {
                if let Some((lt, li)) = last {
                    if lt == t {
                        prop_assert!(i > li, "FIFO violated: {li} then {i} at {t}");
                    }
                }
                last = Some((t, i));
            }
        }

        /// len() always equals pushes minus pops.
        #[test]
        fn len_is_conserved(n in 0usize..100, pops in 0usize..100) {
            let mut q = EventQueue::new();
            for i in 0..n {
                q.push(Ns::from_nanos(i as u64), i);
            }
            let pops = pops.min(n);
            for _ in 0..pops {
                q.pop();
            }
            prop_assert_eq!(q.len(), n - pops);
        }

        /// Differential check against a reference model (a sorted scan of
        /// a plain vector — the semantics the old global heap had): any
        /// interleaving of pushes and pops, with due times spanning
        /// several wheel horizons so events cross the wheel/overflow
        /// boundary in both directions, produces the identical
        /// `(time, payload)` pop stream.
        #[test]
        fn wheel_matches_reference_model(
            ops in proptest::collection::vec(
                // (gap ahead of the watermark, pops to attempt after the
                // push). Gaps reach 2.5 horizons.
                (0u64..HORIZON_NS * 5 / 2, 0usize..3),
                1..300,
            )
        ) {
            let mut q = EventQueue::new();
            let mut reference = Reference::new();
            for (i, &(gap, pops)) in ops.iter().enumerate() {
                let due = q.now() + Ns::from_nanos(gap);
                q.push(due, i);
                reference.push(due, i);
                for _ in 0..pops {
                    prop_assert_eq!(q.pop(), reference.pop());
                }
            }
            // Drain: the tails must agree too.
            while let Some(want) = reference.pop() {
                prop_assert_eq!(q.pop(), Some(want));
            }
            prop_assert_eq!(q.pop(), None);
            prop_assert_eq!(q.pushed(), reference.pushed());
            prop_assert_eq!(q.popped(), reference.pushed());
        }

        /// Differential check under a *multi-device* event mix: several
        /// devices each push with their own cadence class — GPU-like
        /// mid-range gaps, NIC-like bursts of (often identical) near-zero
        /// gaps, and DMA-like regular periods, plus a far-future arm
        /// beyond the wheel horizon. Same-time events from *different*
        /// devices are where FIFO-within-time matters most (the SoC's
        /// device-indexed arming relies on it), so the pop stream must
        /// match the reference model's `(due, seq)` order exactly.
        #[test]
        fn wheel_matches_reference_model_for_multi_device_mixes(
            ops in proptest::collection::vec(
                // (device, burst length, base gap selector, pops after).
                (0usize..6, 1usize..5, 0u64..4, 0usize..4),
                1..200,
            )
        ) {
            let mut q = EventQueue::new();
            // Payload: (device, device_seq).
            let mut reference = Reference::new();
            let mut dev_seq = [0u64; 6];
            for &(dev, burst, gap_sel, pops) in &ops {
                // Cadence class by device index: 0/1 GPU-ish, 2/3 NIC-ish
                // bursts at one instant, 4 DMA-ish period, 5 far-future.
                let gap = match dev {
                    0 | 1 => 1_000 + gap_sel * 45_000,
                    2 | 3 => 0,
                    4 => 1_600,
                    _ => HORIZON_NS + gap_sel * (HORIZON_NS / 4), // beyond horizon
                };
                let due = q.now() + Ns::from_nanos(gap);
                for _ in 0..burst {
                    q.push(due, (dev, dev_seq[dev]));
                    reference.push(due, (dev, dev_seq[dev]));
                    dev_seq[dev] += 1;
                }
                for _ in 0..pops {
                    prop_assert_eq!(q.pop(), reference.pop());
                }
            }
            while let Some(want) = reference.pop() {
                prop_assert_eq!(q.pop(), Some(want));
            }
            prop_assert_eq!(q.pop(), None);
            prop_assert_eq!(q.pushed(), reference.pushed());
            prop_assert_eq!(q.popped(), reference.pushed());
        }
    }
}
