//! Bucketed event wheel (calendar queue) for the discrete-event engine.
//!
//! Classic event-driven network simulators get their scale from cheap
//! scheduling: most events land a few ten to a few thousand nanoseconds in
//! the future (pipeline hops, DMA completions, line-rate serialization),
//! so a calendar of fixed-width time buckets turns the O(log n) heap
//! push/pop into O(1) bucket appends plus an occupancy-bitmap scan. The
//! rare far-future timers (retransmission timeouts, millisecond pacing)
//! overflow into a small binary heap and migrate into the wheel when their
//! window arrives.
//!
//! # Ordering contract
//!
//! Every pop yields the minimum queued `(time, seq)` key — byte-identical
//! to the `BinaryHeap` reference scheduler, including the banded-seq
//! tie-break at equal timestamps. The integration suite proves this
//! differentially.
//!
//! # Windowing
//!
//! The wheel covers the fixed window `[base, base + N·W)`; `cursor` walks
//! its buckets in time order. Events inside the window go to bucket
//! `(t - base) / W`; later events go to the overflow heap (which is
//! therefore always strictly after every wheeled event). When the wheel
//! and its staging area drain, the window rotates: `base` jumps to the
//! earliest overflow timestamp and due overflow events migrate in.
//!
//! Because a bucket spans `W` picoseconds, its events are staged as a
//! sorted `ready` run when the cursor reaches it (the 4 ns bucket width
//! makes multi-event buckets rare, so the sort usually short-circuits).
//!
//! # Storage
//!
//! Queued events live in one arena (`slab`), linked into per-bucket FIFO
//! lists through `u32` indices; a bucket is just a `(head, tail)` pair and
//! freed slots go onto a LIFO free list. The arena therefore holds as many
//! slots as were ever queued *at once* — a few hundred in-flight events
//! that stay cache-resident — no matter how many of the 16384 buckets a
//! run sweeps through. Staging unlinks a bucket's list into `ready` as
//! slot indices sorted by key — an event is copied twice in its life, into
//! its slot on push and out of it on pop, which frees the slot. Overflow
//! migration links into the same lists.
//!
//! # Same-slot direct drain
//!
//! A handler that schedules new work due inside the *current* bucket — a
//! zero-delay hop, a doorbell, an `FsUpdate`, a same-cycle stage handoff —
//! takes the **hot deque** instead of the wheel proper: no bucket hashing,
//! no occupancy-bitmap update, no staging sort. Seq keys are banded per
//! source node (engine docs), so they are not globally monotone; the deque
//! is kept `(time, seq)`-sorted by full-key insertion, where zero-delay
//! self-sends — the common case — still append in O(1) (one source's keys
//! are monotone within one timestamp). Popping merges the deque with the
//! staged `ready` run by comparing fronts — two sorted runs, so every pop
//! yields the minimum queued key: exactly the reference heap's greedy
//! order. The deque is always empty by the time the cursor advances past
//! its bucket, so hot events can never be overtaken by later buckets or
//! the overflow heap.
//!
//! Pushes below `base` cannot happen — `base` never passes the sim clock
//! (rotation happens only while delivering an event at the new base), and
//! every push (including cross-shard imports, which a conservative
//! synchronizer admits strictly after the shard's clock) is at or after
//! the clock. `bucket_of` debug-asserts this. `EventWheel::pop_due`
//! keeps the rule under a deadline: it stages or rotates only when the
//! next bucket's start (or the overflow front) is itself due, so a
//! declined pop never moves `base` or the cursor past the instant the
//! engine's clock stops at.

use std::collections::{BinaryHeap, VecDeque};

use crate::engine::{Ev, Msg, NodeId};
use crate::time::Time;

/// log2 of the bucket width in picoseconds (4096 ps ≈ 4 ns).
const SHIFT: u32 = 12;
/// Number of buckets (must be a power of two). 16384 × 4 ns ≈ 67 µs of
/// horizon — wide enough for every data-path latency; RTO-scale timers
/// take the overflow path.
const NBUCKETS: usize = 16384;
const SPAN: u64 = (NBUCKETS as u64) << SHIFT;

/// Placeholder left in an arena slot once its event is popped.
fn dummy_ev() -> Ev {
    Ev {
        time: Time(0),
        seq: 0,
        to: 0,
        msg: Msg::FreeDesc,
    }
}

/// End-of-list marker of the arena's `u32` links.
const NIL: u32 = u32::MAX;

/// One bucket of the current window: an intrusive FIFO list in the arena
/// (`head == NIL` when empty; `tail` is meaningful only otherwise).
#[derive(Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

const EMPTY: Bucket = Bucket {
    head: NIL,
    tail: NIL,
};

/// An arena slot: a queued event plus its list link — the next event of
/// its bucket, or the next free slot while on the free list (where `ev`
/// is a `dummy_ev`).
struct Slot {
    ev: Ev,
    next: u32,
}

/// The slots of the list starting at `head`, in link order.
fn chain(slab: &[Slot], head: u32) -> impl Iterator<Item = u32> + '_ {
    let live = |slot: u32| (slot != NIL).then_some(slot);
    std::iter::successors(live(head), move |&slot| live(slab[slot as usize].next))
}

pub(crate) struct EventWheel {
    /// Unsorted per-bucket event lists for the current window.
    buckets: Vec<Bucket>,
    /// The arena behind every bucket list; grows only when the free list
    /// is empty, so its length is the peak number of wheeled events.
    slab: Vec<Slot>,
    /// Head of the LIFO free list threaded through `Slot::next`.
    free: u32,
    /// One occupancy bit per bucket, for fast next-bucket scans.
    occ: Vec<u64>,
    /// Absolute time (ps) of bucket 0 of the current window.
    base: u64,
    /// Bucket currently staged in `ready`.
    cursor: usize,
    /// True once bucket `cursor` has been drained into `ready`; new events
    /// due in that bucket must then merge into `ready`, not the bucket.
    ready_active: bool,
    /// The staged events of bucket `cursor`: their arena slots, sorted by
    /// `(time, seq)`; `ready_pos` is the next undelivered index. An event
    /// stays in its slot until it is popped.
    ready: Vec<u32>,
    ready_pos: usize,
    /// Same-slot direct-drain lane: events pushed into bucket `cursor`
    /// *while it is being drained*, kept `(time, seq)`-sorted (append-only
    /// in the common zero-delay case). Merged with `ready` on pop; always
    /// empty when the cursor moves on.
    hot: VecDeque<Ev>,
    /// Far-future events (time >= base + SPAN). `Ev`'s reversed `Ord`
    /// makes this max-heap pop earliest-first.
    overflow: BinaryHeap<Ev>,
    len: usize,
}

impl EventWheel {
    pub(crate) fn new() -> EventWheel {
        EventWheel {
            buckets: vec![EMPTY; NBUCKETS],
            slab: Vec::new(),
            free: NIL,
            occ: vec![0; NBUCKETS / 64],
            base: 0,
            cursor: 0,
            ready_active: false,
            ready: Vec::new(),
            ready_pos: 0,
            hot: VecDeque::new(),
            overflow: BinaryHeap::new(),
            len: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn bucket_of(&self, t: u64) -> usize {
        debug_assert!(t >= self.base && t - self.base < SPAN);
        ((t - self.base) >> SHIFT) as usize
    }

    #[inline]
    fn unmark(&mut self, idx: usize) {
        self.occ[idx >> 6] &= !(1 << (idx & 63));
    }

    /// Append `ev` to bucket `idx`'s list, reusing a freed slot if any.
    #[inline]
    fn link(&mut self, idx: usize, ev: Ev) {
        let slot = if self.free != NIL {
            let slot = self.free;
            let s = &mut self.slab[slot as usize];
            self.free = s.next;
            *s = Slot { ev, next: NIL };
            slot
        } else {
            let slot = self.slab.len();
            assert!(slot < NIL as usize, "event arena outgrew its u32 links");
            self.slab.push(Slot { ev, next: NIL });
            slot as u32
        };
        let b = &mut self.buckets[idx];
        if b.head == NIL {
            b.head = slot;
            self.occ[idx >> 6] |= 1 << (idx & 63);
        } else {
            self.slab[b.tail as usize].next = slot;
        }
        b.tail = slot;
    }

    #[inline]
    pub(crate) fn push(&mut self, ev: Ev) {
        let t = ev.time.ps();
        self.len += 1;
        if t >= self.base + SPAN {
            self.overflow.push(ev);
            return;
        }
        let idx = self.bucket_of(t);
        if idx == self.cursor && self.ready_active {
            // Same-slot direct drain: the cursor bucket is already staged,
            // so the event joins the hot deque instead of the wheel. Seq
            // keys are banded per source (not globally monotone), so the
            // deque is kept `(time, seq)`-sorted by full-key comparison;
            // zero-delay self-sends — the common case — still append,
            // since one source's keys are monotone at one timestamp.
            let key = (ev.time, ev.seq);
            if self.hot.back().is_none_or(|b| (b.time, b.seq) <= key) {
                self.hot.push_back(ev);
            } else {
                let pos = self.hot.partition_point(|e| (e.time, e.seq) <= key);
                self.hot.insert(pos, ev);
            }
        } else {
            self.link(idx, ev);
        }
    }

    /// The first bucket not yet staged: the cursor's, or the one after it
    /// once the cursor's has been.
    #[inline]
    fn scan_from(&self) -> usize {
        self.cursor + self.ready_active as usize
    }

    /// Find the next occupied bucket at or after `from` (bitmap scan).
    fn next_occupied(&self, from: usize) -> Option<usize> {
        if from >= NBUCKETS {
            return None;
        }
        let mut word_i = from >> 6;
        let mut word = self.occ[word_i] & (!0u64 << (from & 63));
        loop {
            if word != 0 {
                return Some((word_i << 6) + word.trailing_zeros() as usize);
            }
            word_i += 1;
            if word_i >= self.occ.len() {
                return None;
            }
            word = self.occ[word_i];
        }
    }

    /// Make the staged front (`ready[ready_pos]` merged with the hot
    /// deque) the globally earliest event, staging / rotating as needed —
    /// but only onto work that starts at or before `limit` (ps). Returns
    /// false when nothing is staged and nothing stageable is due (always
    /// the case for an empty queue). Split so the staged-run hit — the
    /// per-pop common case — inlines into the engine's step loop.
    #[inline(always)]
    fn ensure_front(&mut self, limit: u64) -> bool {
        if self.ready_pos < self.ready.len() || !self.hot.is_empty() {
            return true;
        }
        self.ensure_front_slow(limit)
    }

    /// Stage the next bucket / rotate the window (out-of-line). Neither
    /// happens past `limit`: the caller's clock stops there, later pushes
    /// may land anywhere after it, and they must still find their bucket
    /// at or after the cursor of a window whose `base` is not in their
    /// future.
    fn ensure_front_slow(&mut self, limit: u64) -> bool {
        loop {
            if self.len == 0 {
                return false;
            }
            if let Some(idx) = self.next_occupied(self.scan_from()) {
                if self.base + ((idx as u64) << SHIFT) > limit {
                    return false;
                }
                self.cursor = idx;
                self.ready_active = true;
                self.unmark(idx);
                self.stage(idx);
                return true;
            }
            // wheel empty: rotate the window to the earliest overflow event
            debug_assert!(!self.overflow.is_empty(), "len > 0 but nothing queued");
            let front = self.overflow.peek().expect("overflow non-empty").time.ps();
            if front > limit {
                return false;
            }
            self.base = front;
            self.cursor = 0;
            self.ready_active = false;
            while let Some(ev) = self.overflow.peek() {
                if ev.time.ps() >= self.base + SPAN {
                    break;
                }
                let ev = self.overflow.pop().expect("peeked");
                let idx = self.bucket_of(ev.time.ps());
                self.link(idx, ev);
            }
        }
    }

    /// Unlink bucket `idx`'s list into the (exhausted) `ready` run, sorted.
    fn stage(&mut self, idx: usize) {
        self.ready.clear();
        self.ready_pos = 0;
        let head = std::mem::replace(&mut self.buckets[idx], EMPTY).head;
        self.ready.extend(chain(&self.slab, head));
        if self.ready.len() > 1 {
            let slab = &self.slab;
            self.ready.sort_unstable_by_key(|&s| {
                let e = &slab[s as usize].ev;
                (e.time, e.seq)
            });
        }
    }

    /// The front of the staged `ready` run, if any is left.
    #[inline]
    fn ready_front(&self) -> Option<&Ev> {
        let slot = *self.ready.get(self.ready_pos)?;
        Some(&self.slab[slot as usize].ev)
    }

    /// Does the hot deque hold the earliest staged event? Both runs are
    /// `(time, seq)`-sorted, so comparing fronts suffices.
    #[inline]
    fn hot_first(&self) -> bool {
        match (self.ready_front(), self.hot.front()) {
            (Some(r), Some(h)) => (h.time, h.seq) < (r.time, r.seq),
            (None, _) => true,
            (_, None) => false,
        }
    }

    /// Remove and return the staged front — the earlier of the `ready`
    /// remainder's and the hot deque's fronts — if there is one and it
    /// satisfies `want`. The hot deque is empty in the vastly common case,
    /// so that test guards the merge logic.
    #[inline(always)]
    fn take_staged_if(&mut self, want: impl FnOnce(&Ev) -> bool) -> Option<Ev> {
        let hot_first = !self.hot.is_empty() && self.hot_first();
        let front = if hot_first {
            // hot events live in the cursor bucket, which precedes every
            // unstaged bucket and the overflow heap: with `ready`
            // exhausted the hot front is still the global front
            self.hot.front().expect("checked non-empty")
        } else {
            self.ready_front()?
        };
        if !want(front) {
            return None;
        }
        self.len -= 1;
        Some(if hot_first {
            self.hot.pop_front().expect("checked non-empty")
        } else {
            let slot = self.ready[self.ready_pos];
            self.ready_pos += 1;
            let s = &mut self.slab[slot as usize];
            s.next = std::mem::replace(&mut self.free, slot);
            std::mem::replace(&mut s.ev, dummy_ev())
        })
    }

    /// Pop the earliest event if it is due no later than `deadline` — the
    /// engine's per-step pop (`Time::MAX` for an unbounded run). A declined
    /// pop leaves `base` and the cursor at or before `deadline` (see
    /// `ensure_front_slow`), which is where the caller's clock stops.
    #[inline(always)]
    pub(crate) fn pop_due(&mut self, deadline: Time) -> Option<Ev> {
        if !self.ensure_front(deadline.ps()) {
            return None;
        }
        self.take_staged_if(|e| e.time <= deadline)
    }

    /// Pop the front event only if it is addressed to `to` and due no
    /// later than `limit` — the engine's burst-continuation probe.
    /// Deliberately looks only at the *staged* runs (the `ready` remainder
    /// and the hot deque): when both are exhausted it declines rather than
    /// rotating the window, so a failed probe — the common case — costs a
    /// bounds check and a compare, and never disturbs the wheel. Declining
    /// to coalesce is always order-safe; the next `pop_due` does the
    /// staging work instead.
    #[inline(always)]
    pub(crate) fn pop_front_if(&mut self, to: NodeId, limit: Time) -> Option<Ev> {
        self.take_staged_if(|e| e.to == to && e.time <= limit)
    }

    /// Earliest queued timestamp without mutating the wheel (public
    /// `next_event_time` API; the hot path uses `pop_due`).
    pub(crate) fn next_time(&self) -> Option<Time> {
        let staged = match (self.ready_front(), self.hot.front()) {
            (Some(r), Some(h)) => Some(r.time.min(h.time)),
            (Some(e), None) | (None, Some(e)) => Some(e.time),
            (None, None) => None,
        };
        if staged.is_some() {
            return staged;
        }
        if let Some(idx) = self.next_occupied(self.scan_from()) {
            return chain(&self.slab, self.buckets[idx].head)
                .map(|slot| self.slab[slot as usize].ev.time)
                .min();
        }
        self.overflow.peek().map(|e| e.time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl EventWheel {
        fn pop(&mut self) -> Option<Ev> {
            self.pop_due(Time::MAX)
        }

        /// Events linked into bucket `idx` (not yet staged).
        fn list_len(&self, idx: usize) -> usize {
            chain(&self.slab, self.buckets[idx].head).count()
        }
    }

    fn ev(t: u64, seq: u64) -> Ev {
        Ev {
            time: Time(t),
            seq,
            to: 0,
            msg: Msg::Tick,
        }
    }

    /// Differential test against a sorted reference, with pushes
    /// interleaved into pops the way a running simulation does it — and
    /// `next_time` checked against the reference before every pop. The
    /// delay mix crowds events into shared buckets, both near ones (linked
    /// lists longer than one) and far ones (overflow siblings that migrate
    /// into one bucket); the coverage flags prove both were hit.
    #[test]
    fn matches_sorted_reference_under_interleaving() {
        use std::collections::BTreeSet;
        let mut rng = crate::rng::Rng::new(0xCAFE);
        let mut peeked_multi_event_bucket = false;
        let mut migrated_into_shared_bucket = false;
        for _case in 0..50 {
            let mut wheel = EventWheel::new();
            let mut pending: BTreeSet<(u64, u64)> = BTreeSet::new();
            let mut seq = 0u64;
            let mut delivered = 0;
            // seed a few initial events
            for _ in 0..10 {
                let t = rng.below(1000) * 100;
                wheel.push(ev(t, seq));
                pending.insert((t, seq));
                seq += 1;
            }
            loop {
                assert_eq!(
                    wheel.next_time(),
                    pending.first().map(|&(t, _)| Time(t)),
                    "next_time disagrees with the reference"
                );
                if wheel.ready_pos >= wheel.ready.len() && wheel.hot.is_empty() {
                    peeked_multi_event_bucket |= wheel
                        .next_occupied(wheel.scan_from())
                        .is_some_and(|idx| wheel.list_len(idx) > 1);
                }
                let base = wheel.base;
                let popped = wheel.pop().map(|e| (e.time.ps(), e.seq));
                assert_eq!(popped, pending.pop_first());
                let Some((now, _)) = popped else { break };
                if wheel.base != base {
                    // the window rotated, so everything wheeled (bucket 0
                    // staged into `ready`, the rest linked) just migrated
                    migrated_into_shared_bucket |=
                        wheel.ready.len() > 1 || (0..NBUCKETS).any(|i| wheel.list_len(i) > 1);
                }
                delivered += 1;
                // occasionally schedule follow-ups relative to now,
                // spanning zero-delay, in-window and overflow distances
                if delivered < 400 && rng.chance(0.7) {
                    let n = rng.below(3) + 1;
                    for _ in 0..n {
                        let d = match rng.below(6) {
                            0 => 0,
                            1 => rng.below(1 << SHIFT),
                            2 => rng.below(SPAN),
                            3 => SPAN + rng.below(SPAN * 4),
                            // a handful of nearby buckets, shared
                            4 => ((2 + rng.below(4)) << SHIFT) + rng.below(1 << SHIFT),
                            // far-future siblings within one bucket width
                            _ => SPAN * 2 + rng.below(1 << SHIFT),
                        };
                        wheel.push(ev(now + d, seq));
                        pending.insert((now + d, seq));
                        seq += 1;
                    }
                }
            }
            assert_eq!(wheel.len(), 0);
        }
        assert!(peeked_multi_event_bucket && migrated_into_shared_bucket);
    }

    /// Arena slots recycle: storage tracks the events queued at once, not
    /// the buckets or windows a run sweeps through.
    #[test]
    fn arena_is_bounded_by_peak_occupancy() {
        const K: usize = 64;
        let mut rng = crate::rng::Rng::new(0xA2E4A);
        let mut wheel = EventWheel::new();
        for seq in 0..K as u64 {
            wheel.push(ev(rng.below(SPAN), seq));
        }
        let mut rotations = 0;
        for seq in K as u64..K as u64 + 1_000_000 {
            let base = wheel.base;
            let now = wheel.pop().expect("K events queued").time.ps();
            rotations += (wheel.base != base) as u32;
            // mostly in-window delays over many distinct buckets, with a
            // steady trickle through the overflow heap
            let d = if rng.chance(0.05) {
                SPAN + rng.below(SPAN)
            } else {
                rng.below(SPAN / 4)
            };
            wheel.push(ev(now + d, seq));
            assert_eq!(wheel.len(), K);
        }
        assert!(rotations > 100, "only {rotations} window rotations");
        assert!(
            wheel.slab.len() <= K,
            "{} arena slots for {K} events",
            wheel.slab.len()
        );
    }

    #[test]
    fn next_time_is_nondestructive_and_correct() {
        let mut wheel = EventWheel::new();
        assert_eq!(wheel.next_time(), None);
        wheel.push(ev(SPAN * 3 + 17, 0)); // overflow
        assert_eq!(wheel.next_time(), Some(Time(SPAN * 3 + 17)));
        wheel.push(ev(500, 1));
        wheel.push(ev(300, 2));
        assert_eq!(wheel.next_time(), Some(Time(300)));
        assert_eq!(wheel.pop().map(|e| e.seq), Some(2));
        assert_eq!(wheel.next_time(), Some(Time(500)));
        assert_eq!(wheel.pop().map(|e| e.seq), Some(1));
        assert_eq!(wheel.next_time(), Some(Time(SPAN * 3 + 17)));
        assert_eq!(wheel.pop().map(|e| e.seq), Some(0));
        assert_eq!(wheel.next_time(), None);
    }

    #[test]
    fn same_bucket_different_times_sort() {
        let mut wheel = EventWheel::new();
        // all land in bucket 0 (width 4096 ps), pushed out of order
        wheel.push(ev(4000, 0));
        wheel.push(ev(100, 1));
        wheel.push(ev(100, 2));
        wheel.push(ev(2000, 3));
        let order: Vec<(u64, u64)> =
            std::iter::from_fn(|| wheel.pop().map(|e| (e.time.ps(), e.seq))).collect();
        assert_eq!(order, vec![(100, 1), (100, 2), (2000, 3), (4000, 0)]);
    }

    #[test]
    fn zero_delay_insert_into_staged_bucket() {
        let mut wheel = EventWheel::new();
        wheel.push(ev(100, 0));
        wheel.push(ev(120, 1));
        assert_eq!(wheel.pop().map(|e| e.seq), Some(0));
        // bucket 0 is staged now; a zero-delay follow-up at t=100 must
        // still come before the t=120 event (hot-deque direct drain)
        wheel.push(ev(100, 2));
        assert_eq!(wheel.pop().map(|e| (e.time.ps(), e.seq)), Some((100, 2)));
        assert_eq!(wheel.pop().map(|e| (e.time.ps(), e.seq)), Some((120, 1)));
    }

    /// The hot deque merges with the staged run in exact `(time, seq)`
    /// order, including the rare out-of-time-order same-slot insert.
    #[test]
    fn hot_deque_merges_with_staged_run() {
        let mut wheel = EventWheel::new();
        for (t, q) in [(100u64, 0u64), (200, 1), (300, 2)] {
            wheel.push(ev(t, q));
        }
        assert_eq!(wheel.pop().map(|e| e.seq), Some(0));
        // same-slot sends while draining: monotone appends...
        wheel.push(ev(150, 3));
        wheel.push(ev(250, 4));
        // ...and one earlier-time insert that must sort into the deque
        wheel.push(ev(120, 5));
        let order: Vec<(u64, u64)> =
            std::iter::from_fn(|| wheel.pop().map(|e| (e.time.ps(), e.seq))).collect();
        assert_eq!(
            order,
            vec![(120, 5), (150, 3), (200, 1), (250, 4), (300, 2)]
        );
        assert_eq!(wheel.len(), 0);
    }

    /// Banded seq keys are not globally monotone: a same-slot send from a
    /// low-band source must insert before staged higher-band events at
    /// the same timestamp, and the hot deque must order same-time pushes
    /// by full key, not arrival.
    #[test]
    fn hot_deque_orders_banded_seqs_at_equal_time() {
        const BAND: u64 = 1 << 40;
        let mut wheel = EventWheel::new();
        wheel.push(ev(100, 9 * BAND));
        wheel.push(ev(100, 7 * BAND));
        assert_eq!(wheel.pop().map(|e| e.seq), Some(7 * BAND));
        // while bucket 0 is staged, same-time sends arrive from sources
        // whose bands straddle the staged front's band
        wheel.push(ev(100, 8 * BAND));
        wheel.push(ev(100, 2 * BAND));
        wheel.push(ev(100, 2 * BAND + 1));
        let order: Vec<u64> = std::iter::from_fn(|| wheel.pop().map(|e| e.seq)).collect();
        assert_eq!(order, vec![2 * BAND, 2 * BAND + 1, 8 * BAND, 9 * BAND]);
    }

    /// Greedy differential against the reference heap under banded keys:
    /// follow-up events carry `(random source band | per-band counter)`
    /// seqs, so the final key multiset is *not* delivered in sorted order
    /// (a later send can key below an already-delivered event). Wheel and
    /// heap must still realize the identical greedy order.
    #[test]
    fn matches_reference_heap_under_banded_seqs() {
        const BAND: u64 = 1 << 40;
        let mut rng = crate::rng::Rng::new(0xBA2D);
        for _case in 0..50 {
            let run = |heap: bool, rng: &mut crate::rng::Rng| {
                let mut wheel = EventWheel::new();
                let mut heapq: BinaryHeap<Ev> = BinaryHeap::new();
                let push = |e: Ev, w: &mut EventWheel, h: &mut BinaryHeap<Ev>| {
                    if heap {
                        h.push(e)
                    } else {
                        w.push(e)
                    }
                };
                let mut counters = [0u64; 8];
                let mut out = Vec::new();
                for i in 0..10u64 {
                    let t = rng.below(1000) * 100;
                    push(ev(t, i), &mut wheel, &mut heapq);
                }
                loop {
                    let e = if heap { heapq.pop() } else { wheel.pop() };
                    let Some(e) = e else { break };
                    let now = e.time.ps();
                    out.push((now, e.seq));
                    if out.len() < 400 && rng.chance(0.7) {
                        for _ in 0..rng.below(3) + 1 {
                            let d = match rng.below(4) {
                                0 => 0,
                                1 => rng.below(1 << SHIFT),
                                2 => rng.below(SPAN),
                                _ => SPAN + rng.below(SPAN * 4),
                            };
                            let band = rng.below(8) as usize;
                            let seq = (band as u64 + 1) * BAND + counters[band];
                            counters[band] += 1;
                            push(ev(now + d, seq), &mut wheel, &mut heapq);
                        }
                    }
                }
                out
            };
            // identical rng streams drive both runs
            let mut r1 = rng.fork();
            let mut r2 = r1.clone();
            assert_eq!(run(false, &mut r1), run(true, &mut r2));
        }
    }

    /// `pop_front_if` only surfaces staged-front events for the right
    /// node, never rotates the window, and honors the deadline limit.
    #[test]
    fn pop_front_if_is_a_safe_probe() {
        let mut wheel = EventWheel::new();
        let mk = |t: u64, seq: u64, to: usize| Ev {
            time: Time(t),
            seq,
            to,
            msg: Msg::Tick,
        };
        wheel.push(mk(100, 0, 1));
        wheel.push(mk(110, 1, 2));
        // nothing staged yet: the probe declines rather than staging
        assert!(wheel.pop_front_if(1, Time::MAX).is_none());
        assert_eq!(wheel.pop().map(|e| e.seq), Some(0));
        // staged front is for node 2: probe for node 1 fails, node 2 hits
        assert!(wheel.pop_front_if(1, Time::MAX).is_none());
        // deadline below the front time declines too
        assert!(wheel.pop_front_if(2, Time(105)).is_none());
        assert_eq!(wheel.pop_front_if(2, Time(110)).map(|e| e.seq), Some(1));
        assert_eq!(wheel.len(), 0);
        // hot-deque front is probe-visible after the staged run empties
        wheel.push(mk(100, 2, 7));
        assert_eq!(wheel.pop().map(|e| e.seq), Some(2));
        wheel.push(mk(100, 3, 7));
        assert_eq!(wheel.pop_front_if(7, Time::MAX).map(|e| e.seq), Some(3));
    }
}
