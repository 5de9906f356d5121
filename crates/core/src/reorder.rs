//! Sequencing and reordering (§3.2).
//!
//! "We assign a sequence number to each segment entering the pipeline. The
//! parallel pipeline stages can operate on each segment in any order. The
//! protocol stage requires in-order processing and we buffer and re-order
//! segments that arrive out-of-order before admitting them to the protocol
//! stage. Similarly, we buffer and re-order segments for transmission
//! before admitting them to the NBI."
//!
//! Items that leave the pipeline early (redirected to the control plane,
//! dropped by an XDP module, or filtered) are *skipped* so the stream
//! doesn't stall on a hole.

use std::collections::VecDeque;

/// Window capacity in sequence numbers, allocated with the reorderer. The
/// window spans from the next expected number to the highest one held or
/// skipped: at most 12 on the benchmark workloads (seed 17). A wider gap
/// still works; it grows the ring.
const WINDOW: usize = 32;

/// What the window knows about one sequence number.
enum Entry<T> {
    /// Not seen yet.
    Empty,
    /// Arrived ahead of the stream, held for release.
    Item(T),
    /// Left the pipeline early; released as nothing.
    Skipped,
}

/// An in-order release buffer over dense sequence numbers.
///
/// A ring of entries indexed from the next expected number: an arrival
/// ahead of the stream is written at its offset, and an in-order arrival
/// pops the run it completes, so each sequence number costs a constant
/// amount of work. The ring allocates only when the gap outgrows it.
pub struct Reorder<T> {
    next: u64,
    /// `window[i]` is the entry of sequence number `next + i`; empty
    /// whenever nothing is held or skipped ahead of `next`.
    window: VecDeque<Entry<T>>,
}

impl<T> Default for Reorder<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Reorder<T> {
    pub fn new() -> Reorder<T> {
        Reorder {
            next: 0,
            window: VecDeque::with_capacity(WINDOW),
        }
    }

    pub fn held(&self) -> usize {
        (self.window.iter())
            .filter(|e| matches!(e, Entry::Item(_)))
            .count()
    }

    pub fn next_expected(&self) -> u64 {
        self.next
    }

    /// `next` is released (or skipped): retire its entry and append the
    /// run of held items and skips that now follow it.
    fn advance(&mut self, out: &mut Vec<T>) {
        self.next += 1;
        if self.window.pop_front().is_none() {
            return;
        }
        while let Some(front) = self.window.front() {
            if matches!(front, Entry::Empty) {
                break;
            }
            if let Some(Entry::Item(item)) = self.window.pop_front() {
                out.push(item);
            }
            self.next += 1;
        }
    }

    /// Record `entry` for `seq`, which is ahead of `next`.
    fn hold(&mut self, seq: u64, entry: Entry<T>) {
        let at = (seq - self.next) as usize;
        if at >= self.window.len() {
            self.window.resize_with(at + 1, || Entry::Empty);
        }
        self.window[at] = entry;
    }

    /// Offer item with sequence `seq`, appending all items now releasable
    /// (possibly none, possibly several, in order) to `out`. The caller
    /// owns `out` so the in-order fast path — by far the common case —
    /// allocates nothing: hot callers keep one scratch buffer alive across
    /// deliveries. A stale `seq` (already released) drops the item.
    pub fn push_into(&mut self, seq: u64, item: T, out: &mut Vec<T>) {
        debug_assert!(seq >= self.next, "sequence {seq} already released");
        if seq == self.next {
            out.push(item);
            self.advance(out);
        } else if seq > self.next {
            self.hold(seq, Entry::Item(item));
        }
    }

    /// Mark `seq` as never arriving (item left the pipeline early),
    /// appending any items this unblocks to `out`.
    pub fn skip_into(&mut self, seq: u64, out: &mut Vec<T>) {
        if seq == self.next {
            self.advance(out);
        } else if seq > self.next {
            self.hold(seq, Entry::Skipped);
        }
    }

    /// Allocating convenience wrapper over [`Reorder::push_into`].
    pub fn push(&mut self, seq: u64, item: T) -> Vec<T> {
        let mut out = Vec::new();
        self.push_into(seq, item, &mut out);
        out
    }

    /// Allocating convenience wrapper over [`Reorder::skip_into`].
    pub fn skip(&mut self, seq: u64) -> Vec<T> {
        let mut out = Vec::new();
        self.skip_into(seq, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_passthrough() {
        let mut r = Reorder::new();
        assert_eq!(r.push(0, "a"), vec!["a"]);
        assert_eq!(r.push(1, "b"), vec!["b"]);
        assert_eq!(r.held(), 0);
    }

    #[test]
    fn out_of_order_buffered_and_released_together() {
        let mut r = Reorder::new();
        assert!(r.push(2, "c").is_empty());
        assert!(r.push(1, "b").is_empty());
        assert_eq!(r.held(), 2);
        assert_eq!(r.push(0, "a"), vec!["a", "b", "c"]);
        assert_eq!(r.held(), 0);
    }

    #[test]
    fn skip_unblocks_stream() {
        let mut r = Reorder::new();
        assert!(r.push(1, "b").is_empty());
        assert_eq!(r.skip(0), vec!["b"]);
        assert_eq!(r.next_expected(), 2);
    }

    #[test]
    fn skip_in_the_middle() {
        let mut r = Reorder::new();
        assert!(r.push(3, "d").is_empty());
        r.skip(1);
        r.skip(2);
        assert_eq!(r.push(0, "a"), vec!["a", "d"]);
    }

    #[test]
    fn interleaved_skips_and_items() {
        let mut r = Reorder::new();
        let mut released = Vec::new();
        // arrival order: 4, skip 2, 0, 3, skip 1
        released.extend(r.push(4, 4));
        released.extend(r.skip(2));
        released.extend(r.push(0, 0));
        released.extend(r.push(3, 3));
        released.extend(r.skip(1));
        assert_eq!(released, vec![0, 3, 4]);
        assert_eq!(r.next_expected(), 5);
    }

    #[test]
    fn large_random_permutation_releases_in_order() {
        let mut r = Reorder::new();
        let n = 1000u64;
        // deterministic pseudo-random permutation
        let mut order: Vec<u64> = (0..n).collect();
        let mut s = 12345u64;
        for i in (1..order.len()).rev() {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (s >> 33) as usize % (i + 1);
            order.swap(i, j);
        }
        let mut released = Vec::new();
        for seq in order {
            released.extend(r.push(seq, seq));
        }
        assert_eq!(released, (0..n).collect::<Vec<_>>());
        assert_eq!(r.held(), 0);
    }

    /// The map-and-set reorderer the ring replaced: the reference for
    /// `matches_map_reference`.
    struct MapReorder<T> {
        next: u64,
        pending: std::collections::BTreeMap<u64, T>,
        skipped: std::collections::BTreeSet<u64>,
    }

    impl<T> MapReorder<T> {
        fn new() -> MapReorder<T> {
            MapReorder {
                next: 0,
                pending: Default::default(),
                skipped: Default::default(),
            }
        }

        fn drain_ready(&mut self, out: &mut Vec<T>) {
            loop {
                if let Some(item) = self.pending.remove(&self.next) {
                    out.push(item);
                    self.next += 1;
                } else if self.skipped.remove(&self.next) {
                    self.next += 1;
                } else {
                    break;
                }
            }
        }

        fn push_into(&mut self, seq: u64, item: T, out: &mut Vec<T>) {
            if seq == self.next {
                out.push(item);
                self.next += 1;
                self.drain_ready(out);
            } else {
                self.pending.insert(seq, item);
            }
        }

        fn skip_into(&mut self, seq: u64, out: &mut Vec<T>) {
            if seq == self.next {
                self.next += 1;
                self.drain_ready(out);
            } else if seq > self.next {
                self.skipped.insert(seq);
            }
        }
    }

    /// The ring releases exactly what the map reference releases, call by
    /// call, over random arrival orders with interleaved skips. Each
    /// arrival is drawn from the `span` lowest sequence numbers not yet
    /// offered, so the gaps the window covers run from adjacent swaps up
    /// past four times the preallocated window (which makes the ring
    /// grow).
    #[test]
    fn matches_map_reference() {
        let mut rng = flextoe_sim::Rng::new(0x2E0);
        for span in [1, 2, 3, 8, WINDOW / 2, WINDOW, 4 * WINDOW] {
            for _case in 0..20 {
                let mut ring = Reorder::new();
                let mut map = MapReorder::new();
                let (mut got, mut want) = (Vec::new(), Vec::new());
                let mut unsent: Vec<u64> = Vec::new();
                let mut fresh = 0u64;
                for _ in 0..2_000 {
                    while unsent.len() < span {
                        unsent.push(fresh);
                        fresh += 1;
                    }
                    let seq = unsent.swap_remove(rng.below(span as u64) as usize);
                    if rng.chance(0.2) {
                        ring.skip_into(seq, &mut got);
                        map.skip_into(seq, &mut want);
                    } else {
                        ring.push_into(seq, seq, &mut got);
                        map.push_into(seq, seq, &mut want);
                    }
                    assert_eq!(got, want, "span {span}");
                    assert_eq!(ring.next_expected(), map.next);
                    assert_eq!(ring.held(), map.pending.len());
                    got.clear();
                    want.clear();
                }
            }
        }
    }

    /// Gaps within the preallocated window never reallocate the ring.
    #[test]
    fn window_of_preallocated_width_does_not_grow() {
        let mut r = Reorder::new();
        let capacity = r.window.capacity();
        let mut out = Vec::new();
        for base in (0..10_000u64).step_by(WINDOW) {
            for seq in (base..base + WINDOW as u64).rev() {
                r.push_into(seq, seq, &mut out);
            }
        }
        assert_eq!(
            out,
            (0..10_000u64.next_multiple_of(WINDOW as u64)).collect::<Vec<_>>()
        );
        assert_eq!(r.window.capacity(), capacity);
    }

    /// A stale sequence number (already released) is dropped: it neither
    /// panics an optimised build nor grows the window.
    #[cfg(not(debug_assertions))]
    #[test]
    fn stale_sequence_is_dropped() {
        let mut r = Reorder::new();
        assert_eq!(r.push(0, 0), vec![0]);
        assert!(r.push(3, 3).is_empty());
        let len = r.window.len();
        assert!(r.push(0, 99).is_empty());
        assert!(r.skip(0).is_empty());
        assert_eq!(r.window.len(), len);
        assert_eq!(r.held(), 1);
        r.skip(2);
        assert_eq!(r.push(1, 1), vec![1, 3]);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "already released")]
    fn stale_sequence_is_a_debug_error() {
        let mut r = Reorder::new();
        r.push(0, 0);
        r.push(0, 0);
    }
}
