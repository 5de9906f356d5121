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
//! sorted `ready` run when the cursor reaches it (at the 4 ns bucket width
//! 58–79% of the buckets staged on the benchmark workloads hold a single
//! event and skip the sort).
//!
//! # Storage
//!
//! Queued events live in one arena (`slab`), linked into per-bucket FIFO
//! lists through `u32` indices; a bucket is just a `(head, tail)` pair and
//! freed slots go onto a LIFO free list. The arena therefore holds as many
//! slots as were ever queued *at once* — a few hundred in-flight events
//! that stay cache-resident — no matter how many of the 16384 buckets a
//! run sweeps through. Staging unlinks a bucket's list into `ready` as
//! `(time, seq, slot)` entries sorted by key, so the sort, a same-bucket
//! insert and the pop's deadline check read keys inline rather than
//! through the arena. An event is written into its slot once on push (the
//! push path inlines into the engine's one send function, which builds the
//! event there) and copied out once on pop: a slot holds `Option<Ev>` and
//! a pop `take`s it, writing back nothing but the `None` tag. Overflow
//! migration links into the same lists.
//!
//! # Sends into the staged bucket
//!
//! A handler that schedules work due inside the *current* bucket — a
//! zero-delay hop, a doorbell, an `FsUpdate`, a same-cycle stage handoff —
//! finds that bucket already unlinked into `ready`. The event takes an
//! arena slot like any other and is inserted by `(time, seq)` into the
//! undelivered part of `ready`, so there is one sorted run and a pop is
//! always `ready[ready_pos]`. Seq keys are banded per source node (engine
//! docs), so they are not globally monotone and the insert searches by
//! full key; the common case, a zero-delay chain with nothing later left
//! in its bucket, lands at the end. The delivered prefix of `ready` is
//! reclaimed on the same path, once it outweighs the undelivered tail, so
//! a zero-delay chain that never leaves its bucket runs in constant space.
//! `ready` is always exhausted by the time the cursor advances, so a
//! same-bucket send can never be overtaken by later buckets or the
//! overflow heap.
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

use std::collections::BinaryHeap;

use crate::engine::Ev;
use crate::time::Time;

/// log2 of the bucket width in picoseconds (4096 ps ≈ 4 ns).
const SHIFT: u32 = 12;
/// Number of buckets (must be a power of two). 16384 × 4 ns ≈ 67 µs of
/// horizon — wide enough for every data-path latency; RTO-scale timers
/// take the overflow path.
const NBUCKETS: usize = 16384;
const SPAN: u64 = (NBUCKETS as u64) << SHIFT;

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
/// is `None`).
struct Slot {
    ev: Option<Ev>,
    next: u32,
}

/// A staged event: its arena slot behind its `(time, seq)` key.
#[derive(Clone, Copy)]
struct Staged {
    time: Time,
    seq: u64,
    slot: u32,
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
    /// due in that bucket are then inserted into `ready`, not the bucket.
    ready_active: bool,
    /// The staged events of bucket `cursor`, sorted by `(time, seq)`;
    /// `ready_pos` is the next undelivered index. An event stays in its
    /// arena slot until it is popped.
    ready: Vec<Staged>,
    ready_pos: usize,
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

    /// Store `ev` in the arena, reusing a freed slot if any (written field
    /// by field, once its free-list link is read).
    #[inline(always)]
    fn alloc(&mut self, ev: Ev) -> u32 {
        if self.free != NIL {
            let slot = self.free;
            let s = &mut self.slab[slot as usize];
            self.free = s.next;
            debug_assert!(s.ev.is_none(), "free slot holds an event");
            s.ev = Some(ev);
            s.next = NIL;
            slot
        } else {
            let slot = self.slab.len();
            assert!(slot < NIL as usize, "event arena outgrew its u32 links");
            self.slab.push(Slot {
                ev: Some(ev),
                next: NIL,
            });
            slot as u32
        }
    }

    /// Append `ev` to bucket `idx`'s list.
    #[inline(always)]
    fn link(&mut self, idx: usize, ev: Ev) {
        let slot = self.alloc(ev);
        let b = &mut self.buckets[idx];
        if b.head == NIL {
            b.head = slot;
            self.occ[idx >> 6] |= 1 << (idx & 63);
        } else {
            self.slab[b.tail as usize].next = slot;
        }
        b.tail = slot;
    }

    #[inline(always)]
    pub(crate) fn push(&mut self, ev: Ev) {
        let t = ev.time.ps();
        self.len += 1;
        if t >= self.base + SPAN {
            self.overflow.push(ev);
            return;
        }
        let idx = self.bucket_of(t);
        if idx == self.cursor && self.ready_active {
            self.insert_staged(ev);
        } else {
            self.link(idx, ev);
        }
    }

    /// Insert `ev`, due in the already staged cursor bucket, into the
    /// undelivered part of `ready` by `(time, seq)`. Seq keys are banded
    /// per source (not globally monotone), so the position comes from a
    /// full-key search; a zero-delay chain with nothing later left in its
    /// bucket — the common case — lands at the end. Not `#[inline]`: 6% of
    /// the benchmark workloads' pushes come here, and this body inlined
    /// into every `send` measured 2% slower on `echo_pair`.
    fn insert_staged(&mut self, ev: Ev) {
        // The only path that grows `ready` between two stagings, so the
        // delivered prefix is reclaimed here once it outweighs the tail it
        // precedes (each shift moves fewer slots than were popped since
        // the last; an exhausted run is simply cleared).
        let live = self.ready.len() - self.ready_pos;
        if self.ready_pos > live {
            self.ready.drain(..self.ready_pos);
            self.ready_pos = 0;
        }
        let (time, seq) = (ev.time, ev.seq);
        let slot = self.alloc(ev);
        let at = self.ready[self.ready_pos..].partition_point(|s| (s.time, s.seq) <= (time, seq));
        self.ready
            .insert(self.ready_pos + at, Staged { time, seq, slot });
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

    /// With `ready` exhausted, stage the next occupied bucket, rotating
    /// the window if the wheel is empty — but only onto work that starts
    /// at or before `limit` (ps): the caller's clock stops there, later
    /// pushes may land anywhere after it, and they must still find their
    /// bucket at or after the cursor of a window whose `base` is not in
    /// their future. Returns false when nothing stageable is due (always
    /// the case for an empty queue). Out of line, so that the staged-run
    /// hit — the per-pop common case — inlines into the engine's step loop.
    fn stage_next(&mut self, limit: u64) -> bool {
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
        let slab = &self.slab;
        self.ready.extend(chain(slab, head).map(|slot| {
            let ev = slab[slot as usize]
                .ev
                .as_ref()
                .expect("linked slot holds an event");
            Staged {
                time: ev.time,
                seq: ev.seq,
                slot,
            }
        }));
        if self.ready.len() > 1 {
            self.ready.sort_unstable_by_key(|s| (s.time, s.seq));
        }
    }

    /// Pop the earliest event if it is due no later than `deadline` — the
    /// engine's per-step pop (`Time::MAX` for an unbounded run). A declined
    /// pop leaves `base` and the cursor at or before `deadline` (see
    /// `stage_next`), which is where the caller's clock stops.
    #[inline(always)]
    pub(crate) fn pop_due(&mut self, deadline: Time) -> Option<Ev> {
        if self.ready_pos >= self.ready.len() && !self.stage_next(deadline.ps()) {
            return None;
        }
        let Staged { time, slot, .. } = self.ready[self.ready_pos];
        if time > deadline {
            return None;
        }
        self.ready_pos += 1;
        self.len -= 1;
        let s = &mut self.slab[slot as usize];
        s.next = std::mem::replace(&mut self.free, slot);
        debug_assert!(s.ev.is_some(), "staged slot holds an event");
        s.ev.take()
    }

    /// Earliest queued timestamp without mutating the wheel (public
    /// `next_event_time` API; the hot path uses `pop_due`).
    pub(crate) fn next_time(&self) -> Option<Time> {
        if let Some(staged) = self.ready.get(self.ready_pos) {
            return Some(staged.time);
        }
        if let Some(idx) = self.next_occupied(self.scan_from()) {
            return chain(&self.slab, self.buckets[idx].head)
                .filter_map(|slot| self.slab[slot as usize].ev.as_ref())
                .map(|ev| ev.time)
                .min();
        }
        self.overflow.peek().map(|e| e.time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Msg;

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
                if wheel.ready_pos >= wheel.ready.len() {
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
        // still come before the t=120 event
        wheel.push(ev(100, 2));
        assert_eq!(wheel.pop().map(|e| (e.time.ps(), e.seq)), Some((100, 2)));
        assert_eq!(wheel.pop().map(|e| (e.time.ps(), e.seq)), Some((120, 1)));
    }

    /// Sends into the staged bucket join its run in exact `(time, seq)`
    /// order, including the rare insert ahead of earlier same-bucket sends.
    #[test]
    fn same_bucket_sends_insert_into_staged_run() {
        let mut wheel = EventWheel::new();
        for (t, q) in [(100u64, 0u64), (200, 1), (300, 2)] {
            wheel.push(ev(t, q));
        }
        assert_eq!(wheel.pop().map(|e| e.seq), Some(0));
        // same-bucket sends while draining: one between the staged
        // events, one more later on...
        wheel.push(ev(150, 3));
        wheel.push(ev(250, 4));
        // ...and one that must sort in ahead of both
        wheel.push(ev(120, 5));
        let order: Vec<(u64, u64)> =
            std::iter::from_fn(|| wheel.pop().map(|e| (e.time.ps(), e.seq))).collect();
        assert_eq!(
            order,
            vec![(120, 5), (150, 3), (200, 1), (250, 4), (300, 2)]
        );
        assert_eq!(wheel.len(), 0);
    }

    /// Banded seq keys are not globally monotone: a same-bucket send from
    /// a low-band source must insert before staged higher-band events at
    /// the same timestamp, and same-time pushes must order by full key,
    /// not arrival.
    #[test]
    fn staged_run_orders_banded_seqs_at_equal_time() {
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

    /// Reclaiming the delivered prefix shifts the undelivered tail to the
    /// front of `ready`; an insert on the same push must still land at its
    /// key's place in that tail.
    #[test]
    fn reclaiming_the_prefix_keeps_the_tail_in_order() {
        let mut wheel = EventWheel::new();
        for (t, q) in [(100u64, 0u64), (110, 1), (120, 2), (140, 3), (150, 4)] {
            wheel.push(ev(t, q));
        }
        for q in 0..3 {
            assert_eq!(wheel.pop().map(|e| e.seq), Some(q));
        }
        // three delivered, two left: this push compacts, then inserts
        // between the two survivors
        wheel.push(ev(145, 5));
        assert_eq!((wheel.ready_pos, wheel.ready.len()), (0, 3));
        // and this one lands ahead of all of them
        wheel.push(ev(130, 6));
        let order: Vec<(u64, u64)> =
            std::iter::from_fn(|| wheel.pop().map(|e| (e.time.ps(), e.seq))).collect();
        assert_eq!(order, vec![(130, 6), (140, 3), (145, 5), (150, 4)]);
        assert_eq!(wheel.len(), 0);
    }

    /// A zero-delay chain that never leaves its bucket runs in constant
    /// space. Two tokens are in flight, so `ready` is never exhausted when
    /// a send arrives: only reclaiming the delivered prefix bounds it.
    #[test]
    fn zero_delay_chain_runs_in_constant_space() {
        let mut wheel = EventWheel::new();
        wheel.push(ev(100, 0));
        wheel.push(ev(100, 1));
        for seq in 2..1_000_002u64 {
            let e = wheel.pop().expect("two tokens in flight");
            assert_eq!((e.time.ps(), e.seq), (100, seq - 2));
            wheel.push(ev(100, seq));
            assert!(wheel.ready_pos < wheel.ready.len(), "left the staged run");
            assert!(wheel.ready.len() <= 4, "ready: {}", wheel.ready.len());
            assert!(wheel.slab.len() <= 3, "arena: {}", wheel.slab.len());
        }
        assert_eq!(wheel.len(), 2);
    }
}
