//! Recycled frame buffers.
//!
//! The NFP has one packet-buffer memory: the NBI DMAs a frame into it and
//! the DMA stage "transmits and frees it" (FlexTOE §3.1.2). The model
//! keeps that shape. Each [`crate::Sim`] owns one [`PktBufPool`], the
//! free list every frame buffer in the simulation recycles through,
//! exposed to every node as [`crate::Ctx::pool`]. Host stacks and the
//! control plane emit from it; switches, links and MAC queues return
//! dropped frames to it; and each FlexTOE NIC's stages take and return
//! their packet buffers through it too ([`PktBufPool::take_for`]). A
//! frame taken on one NIC and consumed on its peer, or dropped in the
//! fabric, is back on the list the next emitter takes from, so a
//! steady-state run allocates nothing per frame anywhere, lossy or not.
//!
//! The storage is shared and the counters are not. The fabric's own
//! takes and returns count on the pool itself, and each NIC keeps a
//! [`PoolCounters`] of its own, so a NIC's gauges read what that NIC
//! emitted and consumed.
//!
//! The list is size-classed. A buffer whose capacity exceeds
//! [`REPORT_CLASS`] (a telemetry sweep report; no frame comes near it)
//! idles on a second list that only [`PktBufPool::take_report`] draws
//! from, so a few hundred kilobytes of sketch report never stand in for a
//! 1.5 KB packet buffer.

use std::ops::Deref;

/// Capacity above which a returned buffer is report-class: ten MTU frames
/// and then some, far below a default sketch report (~295 KB).
pub const REPORT_CLASS: usize = 16 * 1024;

/// One user's traffic through a [`PktBufPool`].
#[derive(Clone, Copy, Debug, Default)]
pub struct PoolCounters {
    pub takes: u64,
    /// Takes the free list could not serve (a new buffer was allocated).
    pub fresh_allocs: u64,
    pub returns: u64,
    /// Returns the full free list handed back to the allocator.
    pub dropped_returns: u64,
    /// Most buffers simultaneously outstanding (taken, not yet returned) —
    /// the pool-pressure gauge the connection-scalability sweep records.
    pub high_water: u64,
}

impl PoolCounters {
    /// Buffers currently outstanding (taken and not yet returned).
    /// Saturating: a user can return more foreign buffers than it took
    /// (frames allocated on one NIC are consumed — and returned — on the
    /// peer's).
    pub fn in_flight(&self) -> u64 {
        self.takes.saturating_sub(self.returns)
    }

    /// Fraction of takes served from the free list (1.0 = fully recycled).
    pub fn reuse_ratio(&self) -> f64 {
        if self.takes == 0 {
            return 1.0;
        }
        1.0 - self.fresh_allocs as f64 / self.takes as f64
    }

    fn hand_out(&mut self, idle: Option<Vec<u8>>) -> Vec<u8> {
        self.takes += 1;
        self.high_water = self.high_water.max(self.in_flight());
        match idle {
            Some(mut buf) => {
                buf.clear();
                buf
            }
            None => {
                self.fresh_allocs += 1;
                Vec::new()
            }
        }
    }

    fn count_return(&mut self, kept: bool) {
        self.returns += 1;
        if !kept {
            self.dropped_returns += 1;
        }
    }
}

/// A simulation's frame-buffer free list. Buffers are recycled with their
/// capacity, so the steady-state data path performs no per-packet heap
/// allocation. [`PktBufPool::take`] / [`PktBufPool::put`] count on the
/// pool's own [`PoolCounters`] (the fabric's, read through `Deref`:
/// `sim.frame_pool.takes`); the `_for` variants count on the caller's.
#[derive(Debug, Default)]
pub struct PktBufPool {
    packets: Vec<Vec<u8>>,
    reports: Vec<Vec<u8>>,
    /// Bound on idle buffers across both classes; returns beyond it are
    /// dropped to the allocator, modelling the finite packet memory.
    max_idle: usize,
    fabric: PoolCounters,
}

impl Deref for PktBufPool {
    type Target = PoolCounters;

    fn deref(&self) -> &PoolCounters {
        &self.fabric
    }
}

impl PktBufPool {
    /// An empty free list holding at most `max_idle` buffers.
    pub fn new(max_idle: usize) -> PktBufPool {
        PktBufPool {
            max_idle,
            ..Default::default()
        }
    }

    /// Take a cleared packet buffer, reusing idle capacity when available.
    /// Never hands out a report-class buffer.
    pub fn take(&mut self) -> Vec<u8> {
        self.fabric.hand_out(self.packets.pop())
    }

    /// [`PktBufPool::take`], counted on `who`.
    pub fn take_for(&mut self, who: &mut PoolCounters) -> Vec<u8> {
        who.hand_out(self.packets.pop())
    }

    /// Take a cleared buffer for a telemetry report: an idle report-class
    /// buffer if there is one, else whatever [`PktBufPool::take`] gives.
    pub fn take_report(&mut self) -> Vec<u8> {
        match self.reports.pop() {
            Some(buf) => self.fabric.hand_out(Some(buf)),
            None => self.take(),
        }
    }

    /// Return a buffer to the free list (capacity kept for reuse).
    pub fn put(&mut self, buf: Vec<u8>) {
        let kept = self.shelve(buf);
        self.fabric.count_return(kept);
    }

    /// [`PktBufPool::put`], counted on `who`.
    pub fn put_for(&mut self, who: &mut PoolCounters, buf: Vec<u8>) {
        who.count_return(self.shelve(buf));
    }

    /// File `buf` under its size class; false if the list is full.
    fn shelve(&mut self, buf: Vec<u8>) -> bool {
        if self.idle() >= self.max_idle {
            return false;
        }
        let class = if buf.capacity() > REPORT_CLASS {
            &mut self.reports
        } else {
            &mut self.packets
        };
        class.push(buf);
        true
    }

    /// Buffers currently idle, both classes.
    pub fn idle(&self) -> usize {
        self.packets.len() + self.reports.len()
    }
}

/// Default bound on a simulation's idle frame buffers: enough for every
/// in-flight frame of a multi-switch fabric with margin.
pub const SIM_POOL_BOUND: usize = 8192;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycles_capacity() {
        let mut pool = PktBufPool::new(4);
        let mut a = pool.take();
        assert_eq!(pool.fresh_allocs, 1);
        a.extend_from_slice(&[1, 2, 3]);
        let cap = a.capacity();
        pool.put(a);
        let b = pool.take();
        assert!(b.is_empty(), "recycled buffer must come back cleared");
        assert_eq!(b.capacity(), cap, "capacity survives the round-trip");
        assert_eq!(pool.fresh_allocs, 1, "second take reused the buffer");
        assert!(pool.reuse_ratio() > 0.49);
    }

    #[test]
    fn bounds_idle_buffers() {
        let mut pool = PktBufPool::new(2);
        for _ in 0..4 {
            let b = pool.take();
            pool.put(b);
        }
        let (x, y, z) = (pool.take(), pool.take(), pool.take());
        pool.put(x);
        pool.put(y);
        pool.put(z);
        assert_eq!(pool.idle(), 2);
        assert_eq!(pool.dropped_returns, 1);
    }

    #[test]
    fn a_buffer_put_by_one_user_is_taken_by_another() {
        let mut pool = PktBufPool::new(4);
        let mut nic = PoolCounters::default();
        let mut frame = pool.take_for(&mut nic);
        frame.extend_from_slice(&[0u8; 1514]);
        let cap = frame.capacity();
        // dropped in the fabric: returned on the fabric's counters
        pool.put(frame);
        let again = pool.take_for(&mut nic);
        assert_eq!(
            again.capacity(),
            cap,
            "the NIC got the fabric's idle buffer"
        );
        assert_eq!(nic.fresh_allocs, 1, "only the first take allocated");
        assert_eq!(pool.fresh_allocs, 0);
        assert_eq!((nic.takes, nic.returns), (2, 0), "counters stay per user");
        assert_eq!((pool.takes, pool.returns), (0, 1));
    }

    #[test]
    fn a_packet_take_never_returns_a_report_buffer() {
        let mut pool = PktBufPool::new(8);
        let mut nic = PoolCounters::default();
        let mut report = pool.take_report();
        report.reserve(4 * REPORT_CLASS);
        let report_cap = report.capacity();
        pool.put(report);
        for _ in 0..3 {
            let b = pool.take_for(&mut nic);
            assert!(b.capacity() <= REPORT_CLASS, "a packet take got a report");
            pool.put_for(&mut nic, b);
        }
        let b = pool.take();
        assert!(b.capacity() <= REPORT_CLASS, "a packet take got a report");
        let again = pool.take_report();
        assert_eq!(
            again.capacity(),
            report_cap,
            "reports recycle among themselves"
        );
        assert_eq!(pool.fresh_allocs + nic.fresh_allocs, 2);
    }

    #[test]
    fn the_idle_bound_covers_every_user_and_class() {
        let mut pool = PktBufPool::new(2);
        let mut nic = PoolCounters::default();
        let (x, y, z) = (
            pool.take(),
            pool.take_for(&mut nic),
            pool.take_for(&mut nic),
        );
        let mut big = pool.take();
        big.reserve(2 * REPORT_CLASS);
        pool.put(x);
        pool.put_for(&mut nic, big);
        pool.put_for(&mut nic, y);
        pool.put(z);
        assert_eq!(pool.idle(), 2, "one bound for both users and both classes");
        assert_eq!((pool.dropped_returns, nic.dropped_returns), (1, 1));
    }
}
