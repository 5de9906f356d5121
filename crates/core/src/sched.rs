//! The Carousel flow scheduler (§3.4).
//!
//! "We implement our flow scheduler based on Carousel. Carousel schedules
//! a large number of flows using a time wheel. Based on the next
//! transmission time, as computed from rate limits and windows, we enqueue
//! flows into corresponding slots in the time wheel. … To conserve work,
//! the flow scheduler only adds flows with a non-zero transmit window into
//! the time wheel and bypasses the rate limiter for uncongested flows.
//! These flows are scheduled round-robin."
//!
//! Rates are programmed by the control plane in *interval-per-byte* units
//! (cycles/byte in hardware — the NFP has no division; here ps/byte),
//! "enabl\[ing\] the flow scheduler to compute the time slot using only
//! multiplication".

use std::collections::VecDeque;

use flextoe_sim::{Duration, Time};

#[derive(Clone, Copy, Debug, Default)]
struct ConnSched {
    registered: bool,
    /// Bytes currently eligible (FS feedback from the protocol stage).
    sendable: u32,
    /// Pacing interval in ps/byte; 0 = uncongested (round-robin bypass).
    interval_ps_per_byte: u64,
    /// Earliest next transmission (pacing state).
    next_send: Time,
    /// Whether the connection currently sits in the wheel or RR queue.
    queued: bool,
}

/// A TX trigger emitted by the scheduler: "transmission is triggered by
/// the flow scheduler when a connection can send segments" (§3.1.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Trigger {
    pub conn: u32,
    /// Estimated segment payload (actual length decided by the protocol
    /// stage, which is authoritative).
    pub bytes_est: u32,
}

/// End-of-list / empty-slot marker in the entry arena.
const NIL: u32 = u32::MAX;

/// One queued wheel entry, linked to the next one in its slot (or, when
/// free, to the next free entry). Entries are linked rather than the
/// connections themselves because lazy removal lets a connection sit in
/// two places for a while: `unregister` leaves its entry queued, and a
/// `register` that reuses the id before that entry is popped starts a
/// fresh one.
#[derive(Clone, Copy)]
struct Entry {
    conn: u32,
    next: u32,
}

/// A wheel slot: FIFO of entries as `(head, tail)` links into the arena.
#[derive(Clone, Copy)]
struct Slot {
    head: u32,
    tail: u32,
}

pub struct Carousel {
    granularity: Duration,
    slots: Vec<Slot>,
    /// Entry arena shared by every slot; grows to the peak number of
    /// wheel-queued entries and recycles through `free` (LIFO), so a
    /// paced flow's first visit to a slot costs nothing.
    entries: Vec<Entry>,
    free: u32,
    /// One bit per slot: set iff the slot's queue is non-empty. Keeps
    /// [`Carousel::earliest_work`] and [`Carousel::advance`] off the
    /// O(slots) linear scan that used to dominate simulation wall time —
    /// a wake-up probe touches at most `slots/64` words and typically one.
    occupied: Vec<u64>,
    /// Index of the slot covering `wheel_base`.
    cur_slot: usize,
    wheel_base: Time,
    rr: VecDeque<u32>,
    /// Connections currently queued in wheel slots (not the RR queue).
    /// Zero — the uncongested steady state — lets `advance` and
    /// `earliest_work` skip the occupancy-bitmap scan entirely.
    wheel_len: usize,
    conns: Vec<ConnSched>,
    pub triggers: u64,
    pub empty_pops: u64,
}

/// Default slot granularity: 1 µs ("a time wheel with a small slot
/// granularity and large horizon", §4 "Flow scheduler").
pub const DEFAULT_GRANULARITY: Duration = Duration::from_us(1);
/// Default horizon: 4096 slots ≈ 4 ms.
pub const DEFAULT_SLOTS: usize = 4096;

impl Carousel {
    pub fn new(granularity: Duration, n_slots: usize) -> Carousel {
        assert!(n_slots >= 2 && granularity > Duration::ZERO);
        Carousel {
            granularity,
            slots: vec![
                Slot {
                    head: NIL,
                    tail: NIL
                };
                n_slots
            ],
            entries: Vec::new(),
            free: NIL,
            occupied: vec![0; n_slots.div_ceil(64)],
            cur_slot: 0,
            wheel_base: Time::ZERO,
            rr: VecDeque::new(),
            wheel_len: 0,
            conns: Vec::new(),
            triggers: 0,
            empty_pops: 0,
        }
    }

    #[inline]
    fn mark_slot(&mut self, slot: usize) {
        self.occupied[slot / 64] |= 1 << (slot % 64);
    }

    #[inline]
    fn sync_slot(&mut self, slot: usize) {
        if self.slots[slot].head == NIL {
            self.occupied[slot / 64] &= !(1 << (slot % 64));
        }
    }

    /// Append `conn` to `slot`'s FIFO.
    fn slot_push(&mut self, slot: usize, conn: u32) {
        let entry = Entry { conn, next: NIL };
        let idx = if self.free != NIL {
            let idx = self.free;
            self.free = self.entries[idx as usize].next;
            self.entries[idx as usize] = entry;
            idx
        } else {
            self.entries.push(entry);
            (self.entries.len() - 1) as u32
        };
        let s = &mut self.slots[slot];
        if s.head == NIL {
            s.head = idx;
        } else {
            self.entries[s.tail as usize].next = idx;
        }
        s.tail = idx;
    }

    /// The connection at the head of `slot`'s FIFO.
    #[inline]
    fn slot_front(&self, slot: usize) -> Option<u32> {
        let head = self.slots[slot].head;
        (head != NIL).then(|| self.entries[head as usize].conn)
    }

    /// Pop the head of `slot`'s FIFO, returning its entry to the free list.
    fn slot_pop(&mut self, slot: usize) -> Option<u32> {
        let head = self.slots[slot].head;
        if head == NIL {
            return None;
        }
        let Entry { conn, next } = self.entries[head as usize];
        self.slots[slot].head = next;
        self.entries[head as usize].next = self.free;
        self.free = head;
        Some(conn)
    }

    /// Offset (in slots, from `cur_slot`) of the nearest occupied slot,
    /// scanning the bitmap word-wise with wrap-around. `None` when the
    /// wheel is empty.
    fn next_occupied_offset(&self) -> Option<usize> {
        let n = self.slots.len();
        let words = self.occupied.len();
        let (start_w, start_b) = (self.cur_slot / 64, self.cur_slot % 64);
        // first examined word: mask off bits before cur_slot
        let mut w = self.occupied[start_w] & (!0u64 << start_b);
        for i in 0..=words {
            if w != 0 {
                let slot = ((start_w + i) % words) * 64 + w.trailing_zeros() as usize;
                debug_assert!(slot < n, "occupancy bit beyond wheel");
                return Some((slot + n - self.cur_slot) % n);
            }
            if i == words {
                break;
            }
            let wi = (start_w + i + 1) % words;
            w = self.occupied[wi];
            if wi == start_w {
                // wrapped back onto the start word: only the bits before
                // cur_slot remain unexamined
                w &= !(!0u64 << start_b);
            }
        }
        None
    }

    pub fn with_defaults() -> Carousel {
        Carousel::new(DEFAULT_GRANULARITY, DEFAULT_SLOTS)
    }

    fn conn_mut(&mut self, conn: u32) -> &mut ConnSched {
        let idx = conn as usize;
        if idx >= self.conns.len() {
            self.conns.resize(idx + 1, ConnSched::default());
        }
        &mut self.conns[idx]
    }

    pub fn register(&mut self, conn: u32) {
        let c = self.conn_mut(conn);
        *c = ConnSched {
            registered: true,
            ..Default::default()
        };
    }

    pub fn unregister(&mut self, conn: u32) {
        // Lazy removal: stale queue entries are discarded on pop.
        if let Some(c) = self.conns.get_mut(conn as usize) {
            c.registered = false;
            c.sendable = 0;
        }
    }

    /// Control-plane MMIO: program the pacing interval (0 = uncongested).
    pub fn set_rate(&mut self, conn: u32, interval_ps_per_byte: u64) {
        self.conn_mut(conn).interval_ps_per_byte = interval_ps_per_byte;
    }

    /// FS feedback: absolute sendable-byte count from the protocol stage.
    pub fn update_sendable(&mut self, conn: u32, sendable: u32, now: Time) {
        let c = self.conn_mut(conn);
        if !c.registered {
            return;
        }
        c.sendable = sendable;
        if sendable > 0 && !c.queued {
            c.queued = true;
            let (uncongested, next_send) = (c.interval_ps_per_byte == 0, c.next_send);
            if uncongested {
                self.rr.push_back(conn);
            } else {
                self.enqueue_wheel(conn, next_send.max(now), now);
            }
        }
    }

    fn enqueue_wheel(&mut self, conn: u32, at: Time, now: Time) {
        self.advance(now);
        let n = self.slots.len();
        let offset_slots = if at <= self.wheel_base {
            0
        } else {
            (((at - self.wheel_base).ps()) / self.granularity.ps()) as usize
        };
        // Clamp beyond-horizon deadlines to the furthest slot.
        let offset = offset_slots.min(n - 1);
        let slot = (self.cur_slot + offset) % n;
        self.slot_push(slot, conn);
        self.wheel_len += 1;
        self.mark_slot(slot);
    }

    /// Rotate the wheel so `cur_slot` covers `now`, spilling due flows
    /// into the RR (ready) queue. Runs of empty slots are skipped in one
    /// step via the occupancy bitmap.
    fn advance(&mut self, now: Time) {
        let n = self.slots.len();
        if self.wheel_len == 0 {
            // nothing queued anywhere: rotate the base directly — same
            // arithmetic as the scan path's "no occupied slot" case,
            // without touching the bitmap
            if self.wheel_base + self.granularity <= now {
                let elapsed_slots = ((now - self.wheel_base).ps() / self.granularity.ps()) as usize;
                self.cur_slot = (self.cur_slot + elapsed_slots) % n;
                self.wheel_base += self.granularity * elapsed_slots as u64;
            }
            return;
        }
        while self.wheel_base + self.granularity <= now {
            let elapsed_slots = ((now - self.wheel_base).ps() / self.granularity.ps()) as usize;
            if self.slots[self.cur_slot].head == NIL {
                // jump straight to the next occupied slot (or to `now` if
                // nothing is due before it)
                let skip = match self.next_occupied_offset() {
                    Some(0) => unreachable!("empty slot marked occupied"),
                    Some(off) => off.min(elapsed_slots),
                    None => elapsed_slots,
                };
                self.cur_slot = (self.cur_slot + skip) % n;
                self.wheel_base += self.granularity * skip as u64;
                continue;
            }
            // everything in the current slot is due
            while let Some(conn) = self.slot_pop(self.cur_slot) {
                self.wheel_len -= 1;
                self.rr.push_back(conn);
            }
            self.sync_slot(self.cur_slot);
            self.cur_slot = (self.cur_slot + 1) % n;
            self.wheel_base += self.granularity;
        }
    }

    /// Emit the next TX trigger if any connection is due.
    pub fn next_trigger(&mut self, now: Time, mss: u32) -> Option<Trigger> {
        self.advance(now);
        // Current slot's flows are due too (deadline passed within slot).
        while self.wheel_len > 0 {
            let Some(conn) = self.slot_front(self.cur_slot) else {
                break;
            };
            let due = self
                .conns
                .get(conn as usize)
                .map(|c| c.next_send <= now)
                .unwrap_or(true);
            if due {
                self.slot_pop(self.cur_slot);
                self.wheel_len -= 1;
                self.rr.push_back(conn);
            } else {
                break;
            }
        }
        self.sync_slot(self.cur_slot);
        while let Some(conn) = self.rr.pop_front() {
            let c = &mut self.conns[conn as usize];
            if !c.registered || c.sendable == 0 {
                c.queued = false;
                self.empty_pops += 1;
                continue;
            }
            let bytes = c.sendable.min(mss);
            c.sendable -= bytes;
            if c.interval_ps_per_byte > 0 {
                c.next_send =
                    c.next_send.max(now) + Duration::from_ps(bytes as u64 * c.interval_ps_per_byte);
            }
            if c.sendable > 0 {
                let (uncongested, next_send) = (c.interval_ps_per_byte == 0, c.next_send);
                if uncongested {
                    self.rr.push_back(conn);
                } else {
                    self.enqueue_wheel(conn, next_send, now);
                }
            } else {
                c.queued = false;
            }
            self.triggers += 1;
            return Some(Trigger {
                conn,
                bytes_est: bytes,
            });
        }
        None
    }

    /// No flow queued anywhere (ready or in the wheel): no trigger can
    /// appear before the next [`Carousel::update_sendable`].
    pub fn is_idle(&self) -> bool {
        self.rr.is_empty() && self.wheel_len == 0
    }

    /// Earliest instant at which a trigger may become available, for the
    /// scheduler node's wake-up timer. `None` when completely idle.
    pub fn earliest_work(&self, now: Time) -> Option<Time> {
        if self.is_idle() {
            return None;
        }
        if !self.rr.is_empty() {
            return Some(now);
        }
        let i = self.next_occupied_offset()?;
        let t = self.wheel_base + self.granularity * (i as u64);
        Some(t.max(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: u32 = 1448;

    #[test]
    fn uncongested_flow_round_robin() {
        let mut c = Carousel::with_defaults();
        for conn in 0..3 {
            c.register(conn);
            c.update_sendable(conn, 2 * MSS, Time::ZERO);
        }
        let order: Vec<u32> = (0..6)
            .map(|_| c.next_trigger(Time::ZERO, MSS).unwrap().conn)
            .collect();
        assert_eq!(order, vec![0, 1, 2, 0, 1, 2], "round-robin fairness");
        assert!(c.next_trigger(Time::ZERO, MSS).is_none(), "all drained");
    }

    #[test]
    fn trigger_sizes_track_sendable() {
        let mut c = Carousel::with_defaults();
        c.register(1);
        c.update_sendable(1, MSS + 100, Time::ZERO);
        assert_eq!(
            c.next_trigger(Time::ZERO, MSS),
            Some(Trigger {
                conn: 1,
                bytes_est: MSS
            })
        );
        assert_eq!(
            c.next_trigger(Time::ZERO, MSS),
            Some(Trigger {
                conn: 1,
                bytes_est: 100
            })
        );
        assert_eq!(c.next_trigger(Time::ZERO, MSS), None);
    }

    #[test]
    fn rate_limited_flow_paced_by_wheel() {
        let mut c = Carousel::with_defaults();
        c.register(7);
        // 1448 B at ~10 µs per segment -> ~6.9 ps/byte… use 7 ps/byte ≈ 10.1µs/MSS
        c.set_rate(7, 7_000); // 7000 ps/byte -> MSS takes ~10.1 ms? no: 1448*7000ps = 10.1us
        c.update_sendable(7, 10 * MSS, Time::ZERO);
        let t0 = c.next_trigger(Time::ZERO, MSS).unwrap();
        assert_eq!(t0.conn, 7);
        // immediately after, the flow is paced — not eligible yet
        assert!(c.next_trigger(Time::from_us(1), MSS).is_none());
        // after the pacing interval it fires again
        let t = c.next_trigger(Time::from_us(11), MSS);
        assert!(t.is_some(), "flow due after pacing interval");
    }

    #[test]
    fn work_conserving_mix() {
        let mut c = Carousel::with_defaults();
        c.register(1); // paced hard
        c.set_rate(1, 1_000_000); // 1.448ms per MSS
        c.register(2); // uncongested
        c.update_sendable(1, 10 * MSS, Time::ZERO);
        c.update_sendable(2, 3 * MSS, Time::ZERO);
        // flow 1 fires once (first segment unpaced), then flow 2 dominates
        let mut seen = Vec::new();
        let mut now = Time::ZERO;
        for _ in 0..4 {
            if let Some(t) = c.next_trigger(now, MSS) {
                seen.push(t.conn);
            }
            now += Duration::from_us(1);
        }
        assert_eq!(seen.iter().filter(|&&x| x == 2).count(), 3);
        assert_eq!(seen.iter().filter(|&&x| x == 1).count(), 1);
    }

    #[test]
    fn zero_window_flows_not_in_wheel() {
        // "the flow scheduler only adds flows with a non-zero transmit
        // window into the time wheel"
        let mut c = Carousel::with_defaults();
        c.register(3);
        c.update_sendable(3, 0, Time::ZERO);
        assert!(c.earliest_work(Time::ZERO).is_none());
        assert!(c.next_trigger(Time::ZERO, MSS).is_none());
        c.update_sendable(3, 500, Time::ZERO);
        assert_eq!(c.earliest_work(Time::ZERO), Some(Time::ZERO));
    }

    #[test]
    fn unregistered_conn_never_triggers() {
        let mut c = Carousel::with_defaults();
        c.register(5);
        c.update_sendable(5, MSS, Time::ZERO);
        c.unregister(5);
        assert!(c.next_trigger(Time::ZERO, MSS).is_none());
        assert_eq!(c.empty_pops, 1);
        // updates after unregister are ignored
        c.update_sendable(5, MSS, Time::ZERO);
        assert!(c.next_trigger(Time::ZERO, MSS).is_none());
    }

    #[test]
    fn earliest_work_points_at_wheel_slot() {
        let mut c = Carousel::with_defaults();
        c.register(9);
        c.set_rate(9, 10_000); // 14.48us per MSS
        c.update_sendable(9, 2 * MSS, Time::ZERO);
        // first trigger immediate
        c.next_trigger(Time::ZERO, MSS).unwrap();
        let next = c.earliest_work(Time::ZERO).unwrap();
        assert!(next > Time::ZERO && next <= Time::from_us(15), "{next:?}");
    }

    #[test]
    fn beyond_horizon_clamped_not_lost() {
        let mut c = Carousel::new(Duration::from_us(1), 16); // 16us horizon
        c.register(2);
        c.set_rate(2, 1_000_000); // MSS pacing 1.448ms >> horizon
        c.update_sendable(2, 2 * MSS, Time::ZERO);
        c.next_trigger(Time::ZERO, MSS).unwrap();
        // the second segment is clamped to the horizon's far edge; it must
        // still fire eventually.
        let mut fired = false;
        let mut now = Time::ZERO;
        for _ in 0..2000 {
            now += Duration::from_us(2);
            if c.next_trigger(now, MSS).is_some() {
                fired = true;
                break;
            }
        }
        assert!(fired, "clamped flow starved");
    }

    /// The scheduler as first written: one `VecDeque` per slot, the wheel
    /// rotated one slot at a time. The oracle for the arena-linked slots
    /// and the occupancy-bitmap skips.
    struct DequeModel {
        granularity: Duration,
        slots: Vec<VecDeque<u32>>,
        cur_slot: usize,
        wheel_base: Time,
        rr: VecDeque<u32>,
        conns: Vec<ConnSched>,
        empty_pops: u64,
    }

    impl DequeModel {
        fn new(granularity: Duration, n_slots: usize) -> DequeModel {
            DequeModel {
                granularity,
                slots: vec![VecDeque::new(); n_slots],
                cur_slot: 0,
                wheel_base: Time::ZERO,
                rr: VecDeque::new(),
                conns: Vec::new(),
                empty_pops: 0,
            }
        }

        fn conn_mut(&mut self, conn: u32) -> &mut ConnSched {
            let idx = conn as usize;
            if idx >= self.conns.len() {
                self.conns.resize(idx + 1, ConnSched::default());
            }
            &mut self.conns[idx]
        }

        fn register(&mut self, conn: u32) {
            *self.conn_mut(conn) = ConnSched {
                registered: true,
                ..Default::default()
            };
        }

        fn unregister(&mut self, conn: u32) {
            if let Some(c) = self.conns.get_mut(conn as usize) {
                c.registered = false;
                c.sendable = 0;
            }
        }

        fn set_rate(&mut self, conn: u32, interval: u64) {
            self.conn_mut(conn).interval_ps_per_byte = interval;
        }

        fn enqueue(&mut self, conn: u32, at: Time, now: Time) {
            if self.conns[conn as usize].interval_ps_per_byte == 0 {
                self.rr.push_back(conn);
                return;
            }
            self.advance(now);
            let n = self.slots.len();
            let offset = if at <= self.wheel_base {
                0
            } else {
                ((at - self.wheel_base).ps() / self.granularity.ps()) as usize
            };
            self.slots[(self.cur_slot + offset.min(n - 1)) % n].push_back(conn);
        }

        fn update_sendable(&mut self, conn: u32, sendable: u32, now: Time) {
            let c = self.conn_mut(conn);
            if !c.registered {
                return;
            }
            c.sendable = sendable;
            if sendable > 0 && !c.queued {
                c.queued = true;
                let at = c.next_send.max(now);
                self.enqueue(conn, at, now);
            }
        }

        fn advance(&mut self, now: Time) {
            while self.wheel_base + self.granularity <= now {
                let due = std::mem::take(&mut self.slots[self.cur_slot]);
                self.rr.extend(due);
                self.cur_slot = (self.cur_slot + 1) % self.slots.len();
                self.wheel_base += self.granularity;
            }
        }

        fn next_trigger(&mut self, now: Time, mss: u32) -> Option<Trigger> {
            self.advance(now);
            while let Some(&conn) = self.slots[self.cur_slot].front() {
                if self.conns[conn as usize].next_send > now {
                    break;
                }
                self.slots[self.cur_slot].pop_front();
                self.rr.push_back(conn);
            }
            while let Some(conn) = self.rr.pop_front() {
                let c = &mut self.conns[conn as usize];
                if !c.registered || c.sendable == 0 {
                    c.queued = false;
                    self.empty_pops += 1;
                    continue;
                }
                let bytes = c.sendable.min(mss);
                c.sendable -= bytes;
                if c.interval_ps_per_byte > 0 {
                    c.next_send = c.next_send.max(now)
                        + Duration::from_ps(bytes as u64 * c.interval_ps_per_byte);
                }
                if c.sendable > 0 {
                    let at = c.next_send;
                    self.enqueue(conn, at, now);
                } else {
                    c.queued = false;
                }
                return Some(Trigger {
                    conn,
                    bytes_est: bytes,
                });
            }
            None
        }

        fn earliest_work(&self, now: Time) -> Option<Time> {
            if !self.rr.is_empty() {
                return Some(now);
            }
            let n = self.slots.len();
            (0..n)
                .find(|i| !self.slots[(self.cur_slot + i) % n].is_empty())
                .map(|i| (self.wheel_base + self.granularity * i as u64).max(now))
        }
    }

    /// Random register / unregister / `set_rate` / `update_sendable` /
    /// `next_trigger` streams, ids re-registered while a stale entry is
    /// still queued included: the arena-linked wheel emits the identical
    /// trigger sequence, wake-up times and stale-pop count, and its entry
    /// arena holds exactly the peak number of wheel-queued entries.
    #[test]
    fn linked_slots_match_the_deque_model() {
        for seed in 0..8u64 {
            let mut rng = flextoe_sim::Rng::new(0xca70 + seed);
            // a short horizon makes beyond-horizon clamping and wrap-around
            // routine; 4 to 64 ids keep slots shared
            let n_slots = [16, 64, 200][seed as usize % 3];
            let n_conns = 4 + 4 * seed as u32 * seed as u32 % 61;
            let mut wheel = Carousel::new(Duration::from_us(1), n_slots);
            let mut model = DequeModel::new(Duration::from_us(1), n_slots);
            let mut now = Time::ZERO;
            let mut triggers = 0u64;
            let mut peak_queued = 0;
            for step in 0..20_000 {
                now += Duration::from_ns(rng.range(0, 1500));
                let conn = rng.below(n_conns as u64) as u32;
                match rng.below(16) {
                    0 => {
                        wheel.register(conn);
                        model.register(conn);
                    }
                    1 => {
                        wheel.unregister(conn);
                        model.unregister(conn);
                    }
                    2 | 3 => {
                        // uncongested, lightly paced, or paced past the horizon
                        let interval = [0, 700, 5_000, 400_000][rng.below(4) as usize];
                        wheel.set_rate(conn, interval);
                        model.set_rate(conn, interval);
                    }
                    4..=8 => {
                        let sendable = rng.range(0, 4 * MSS as u64) as u32;
                        wheel.update_sendable(conn, sendable, now);
                        model.update_sendable(conn, sendable, now);
                    }
                    _ => {
                        let (a, b) = (wheel.next_trigger(now, MSS), model.next_trigger(now, MSS));
                        assert_eq!(a, b, "seed {seed} step {step}");
                        triggers += a.is_some() as u64;
                    }
                }
                assert_eq!(
                    wheel.earliest_work(now),
                    model.earliest_work(now),
                    "seed {seed} step {step}"
                );
                peak_queued = peak_queued.max(wheel.wheel_len);
            }
            assert_eq!(wheel.empty_pops, model.empty_pops, "seed {seed}");
            assert_eq!(wheel.triggers, triggers);
            assert!(triggers > 1000, "seed {seed}: only {triggers} triggers");
            assert_eq!(wheel.entries.len(), peak_queued, "arena == peak queued");
        }
    }

    #[test]
    fn fairness_across_many_flows() {
        // 64 uncongested flows with equal backlog drain near-equally —
        // the Fig. 16 property at small scale.
        let mut c = Carousel::with_defaults();
        let n = 64u32;
        for conn in 0..n {
            c.register(conn);
            c.update_sendable(conn, 100 * MSS, Time::ZERO);
        }
        let mut counts = vec![0u32; n as usize];
        for _ in 0..(n * 10) {
            let t = c.next_trigger(Time::ZERO, MSS).unwrap();
            counts[t.conn as usize] += 1;
        }
        assert!(counts.iter().all(|&x| x == 10), "{counts:?}");
    }
}
