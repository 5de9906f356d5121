//! Wake-on-demand transmit state for serializing ports.

use crate::engine::{Ctx, Msg};
use crate::time::{Duration, Time};

/// The transmit side of a port that serializes one frame at a time (a
/// switch egress port, a NIC MAC): when the frame on the wire finishes,
/// and the self-wake that starts the next one. A wake is armed only while
/// a frame waits behind a busy port, so an idle port forwards a frame
/// without a self-event.
///
/// The tie rule. An event's key is `(time, sender band, sender count)`,
/// so a self-wake for `end` sits among the events of that instant by the
/// port's own band alone, whenever it was armed. Events from lower node
/// ids precede it and must see the port busy; events from higher ids
/// follow it and must see it idle. The port therefore counts as busy at
/// exactly `end` until its wake for `end` has run. A frame queued in that
/// window arms the wake at `now`, and greedy-minimum delivery runs it
/// before any higher-id event of the same instant.
#[derive(Clone, Copy, Debug)]
pub struct TxGate {
    /// When the frame last started finishes serializing.
    end: Time,
    /// The wake for `end` has run (true until the first frame starts).
    woken: bool,
    /// A wake for `end` is queued.
    armed: bool,
}

impl Default for TxGate {
    fn default() -> Self {
        TxGate {
            end: Time::ZERO,
            woken: true,
            armed: false,
        }
    }
}

impl TxGate {
    /// Is a frame still on the wire at `now` (see the tie rule)?
    #[inline]
    pub fn busy(&self, now: Time) -> bool {
        now < self.end || (now == self.end && !self.woken)
    }

    /// A frame starts serializing at `now` for `d`.
    #[inline]
    pub fn start(&mut self, now: Time, d: Duration) {
        debug_assert!(
            !self.busy(now) && !self.armed,
            "frame started on a busy port"
        );
        self.end = now + d;
        self.woken = false;
    }

    /// Make sure a wake carrying `token` arrives at the end of the
    /// current frame. Call only while [`TxGate::busy`].
    #[inline]
    pub fn arm(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if !self.armed {
            self.armed = true;
            ctx.send_at(ctx.self_id(), self.end, Msg::Token(token));
        }
    }

    /// The armed wake arrived: the port is idle from here on.
    #[inline]
    pub fn woke(&mut self, now: Time) {
        debug_assert!(self.armed && now == self.end, "stray transmit wake");
        self.woken = true;
        self.armed = false;
    }
}
