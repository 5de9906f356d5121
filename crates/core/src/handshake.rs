//! TCP connection setup, written once for every host.
//!
//! [`Handshake`] holds the listener table and the pending opens, and
//! decides what each segment outside an installed connection's data path
//! means. The FlexTOE control plane (on redirected frames) and the
//! baseline host stacks (on every frame their data path does not take)
//! both drive it. Like [`crate::proto`] it does no I/O and owns no timer:
//! the caller draws the ISS, picks ports, emits segments, installs
//! connections and retries SYNs on its own clock.

use flextoe_sim::FxHashMap;
use flextoe_wire::{FourTuple, SegmentView};

use crate::transport::SYN_ATTEMPTS;

/// An active open waiting for its SYN-ACK.
pub struct ActiveOpen<A> {
    pub iss: u32,
    /// SYNs transmitted so far (1 after the initial send).
    pub attempts: u32,
    /// The caller's record of who asked.
    pub app: A,
}

/// Why a segment is answered with an RST.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Refusal {
    /// A SYN to a port nobody listens on.
    NoListener,
    /// A SYN past [`crate::TransportPolicy::max_conns`].
    Admission,
    /// A SYN-ACK for no open of ours.
    UnknownSynAck,
    /// An ACK for an unknown connection. Real TCP resets it too: a peer
    /// retransmitting its FIN out of LAST-ACK would otherwise retry
    /// against silence.
    Stray,
}

/// What one segment means for connection setup.
#[derive(Debug, PartialEq, Eq)]
pub enum Verdict<L, A> {
    /// Peer reset: tear down the installed connection, if any, and fail
    /// the pending active open it refused, if any.
    PeerReset { failed: Option<A> },
    /// Answer with an RST.
    Refuse(Refusal),
    /// A duplicate of a step already taken: drop it, leave the peer be.
    Duplicate,
    /// Answer with a SYN-ACK from `iss`. A `duplicate` SYN of a pending
    /// open gets the pending ISS: a fresh one would desynchronize the
    /// final ACK.
    SynAck { iss: u32, duplicate: bool },
    /// The SYN-ACK completed an active open: final ACK, install, report.
    Connected { iss: u32, open: A },
    /// The final ACK completed a passive open: install, announce to
    /// `listener`, and when `replay` (payload or FIN rode on the ACK) hand
    /// the segment to the data path.
    Accepted { iss: u32, listener: L, replay: bool },
    /// A segment of an installed connection that raced the handshake past
    /// the connection lookup: hand it to the data path.
    Replay,
    /// Neither SYN, ACK nor RST.
    Ignore,
}

/// What a SYN retransmission timer means.
#[derive(Debug, PartialEq, Eq)]
pub enum SynTimeout<'a, A> {
    /// Send SYN number `attempts` again, from the same `iss`.
    Resend {
        iss: u32,
        attempts: u32,
        app: &'a mut A,
    },
    /// [`SYN_ATTEMPTS`] SYNs went unanswered: the open is gone.
    GiveUp(A),
}

/// One host's listeners (`L`: what an accepted connection is handed to)
/// and pending opens (`A`: who an active open reports to).
pub struct Handshake<L, A> {
    listeners: FxHashMap<u16, L>,
    /// Active opens by the receive tuple their SYN-ACK will carry.
    active: FxHashMap<FourTuple, ActiveOpen<A>>,
    /// Passive opens awaiting the final ACK: their ISS by receive tuple.
    passive: FxHashMap<FourTuple, u32>,
    /// Admission cap on installed + pending passive connections.
    max_conns: Option<u32>,
}

impl<L: Clone, A> Handshake<L, A> {
    pub fn new(max_conns: Option<u32>) -> Self {
        Handshake {
            listeners: FxHashMap::default(),
            active: FxHashMap::default(),
            passive: FxHashMap::default(),
            max_conns,
        }
    }

    pub fn listen(&mut self, port: u16, listener: L) {
        self.listeners.insert(port, listener);
    }

    /// Record an active open whose first SYN, from `iss`, went out; `key`
    /// is the receive tuple of its SYN-ACK.
    pub fn connect(&mut self, key: FourTuple, iss: u32, app: A) {
        let open = ActiveOpen {
            iss,
            attempts: 1,
            app,
        };
        self.active.insert(key, open);
    }

    /// The active opens still waiting, in map order.
    pub fn pending(&self) -> impl Iterator<Item = (&FourTuple, &ActiveOpen<A>)> {
        self.active.iter()
    }

    /// The SYN timer of the open at `key` fired; `None` if the open
    /// completed or failed meanwhile.
    pub fn syn_timeout(&mut self, key: &FourTuple) -> Option<SynTimeout<'_, A>> {
        if self.active.get(key)?.attempts >= SYN_ATTEMPTS {
            return self.active.remove(key).map(|p| SynTimeout::GiveUp(p.app));
        }
        let p = self.active.get_mut(key)?;
        p.attempts += 1;
        let (iss, attempts, app) = (p.iss, p.attempts, &mut p.app);
        Some(SynTimeout::Resend { iss, attempts, app })
    }

    /// Decide one segment. `installed`: its tuple has an installed
    /// connection; `live`: installed connections (for admission);
    /// `draw_iss` runs only for an admitted new SYN, so the caller's RNG
    /// sees no other draw.
    pub fn on_segment(
        &mut self,
        seg: &SegmentView,
        installed: bool,
        live: usize,
        draw_iss: impl FnOnce() -> u32,
    ) -> Verdict<L, A> {
        let (tuple, flags) = (seg.four_tuple(), seg.flags);
        if flags.rst() {
            self.passive.remove(&tuple);
            let failed = self.active.remove(&tuple).map(|p| p.app);
            return Verdict::PeerReset { failed };
        }
        if flags.syn() && !flags.ack() {
            if !self.listeners.contains_key(&tuple.dst_port) {
                return Verdict::Refuse(Refusal::NoListener);
            }
            if installed {
                return Verdict::Duplicate;
            }
            if let Some(&iss) = self.passive.get(&tuple) {
                let duplicate = true;
                return Verdict::SynAck { iss, duplicate };
            }
            // refuse at the cap instead of wedging: the peer sees a failed
            // connect, and admission recovers as connections go
            let pending = self.passive.len();
            if self
                .max_conns
                .is_some_and(|max| live + pending >= max as usize)
            {
                return Verdict::Refuse(Refusal::Admission);
            }
            let iss = draw_iss();
            self.passive.insert(tuple, iss);
            let duplicate = false;
            return Verdict::SynAck { iss, duplicate };
        }
        if flags.syn() {
            return match self.active.remove(&tuple) {
                Some(p) => Verdict::Connected {
                    iss: p.iss,
                    open: p.app,
                },
                None if installed => Verdict::Duplicate,
                None => Verdict::Refuse(Refusal::UnknownSynAck),
            };
        }
        if !flags.ack() {
            return Verdict::Ignore;
        }
        let pending = self.passive.remove(&tuple);
        if let Some((iss, l)) = pending.zip(self.listeners.get(&tuple.dst_port)) {
            let replay = seg.payload_len > 0 || flags.fin();
            return Verdict::Accepted {
                iss,
                listener: l.clone(),
                replay,
            };
        }
        if installed {
            Verdict::Replay
        } else {
            Verdict::Refuse(Refusal::Stray)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flextoe_wire::{Ip4, SegmentSpec, TcpFlags};

    const PORT: u16 = 80;

    type Hs = Handshake<&'static str, u64>;

    fn host(max_conns: Option<u32>) -> Hs {
        let mut hs = Hs::new(max_conns);
        hs.listen(PORT, "server");
        hs
    }

    /// A segment from host `peer`, port 40000, to local port `port`.
    fn seg(peer: u8, port: u16, flags: TcpFlags, payload_len: usize) -> SegmentView {
        let spec = SegmentSpec {
            src_ip: Ip4::host(peer),
            dst_ip: Ip4::host(1),
            src_port: 40_000,
            dst_port: port,
            flags,
            payload_len,
            ..Default::default()
        };
        let mut frame = Vec::new();
        spec.emit_zeroed_into(&mut frame);
        SegmentView::parse(&frame, true).expect("a well-formed segment")
    }

    fn syn(peer: u8) -> SegmentView {
        seg(peer, PORT, TcpFlags::SYN, 0)
    }

    fn ack(peer: u8, payload_len: usize) -> SegmentView {
        seg(peer, PORT, TcpFlags::ACK, payload_len)
    }

    fn synack() -> SegmentView {
        seg(2, 42_000, TcpFlags::SYN | TcpFlags::ACK, 0)
    }

    /// `on_segment` with an ISS source that records how often it is
    /// drawn.
    fn decide(
        hs: &mut Hs,
        s: SegmentView,
        installed: bool,
        draws: &mut u32,
    ) -> Verdict<&'static str, u64> {
        hs.on_segment(&s, installed, 0, || {
            *draws += 1;
            1000 + *draws
        })
    }

    #[test]
    fn syn_to_a_listener_draws_an_iss_and_answers() {
        let (mut hs, mut draws) = (host(None), 0);
        let v = decide(&mut hs, syn(2), false, &mut draws);
        assert_eq!(
            v,
            Verdict::SynAck {
                iss: 1001,
                duplicate: false
            }
        );
        assert_eq!(draws, 1);
    }

    #[test]
    fn duplicated_syn_reuses_the_pending_iss_without_drawing() {
        let (mut hs, mut draws) = (host(None), 0);
        decide(&mut hs, syn(2), false, &mut draws);
        let v = decide(&mut hs, syn(2), false, &mut draws);
        assert_eq!(
            v,
            Verdict::SynAck {
                iss: 1001,
                duplicate: true
            }
        );
        assert_eq!(draws, 1, "a duplicated SYN must not draw a fresh ISS");
    }

    #[test]
    fn syn_to_a_closed_port_is_refused() {
        let (mut hs, mut draws) = (host(None), 0);
        let v = decide(&mut hs, seg(2, 81, TcpFlags::SYN, 0), false, &mut draws);
        assert_eq!(v, Verdict::Refuse(Refusal::NoListener));
        assert_eq!(draws, 0);
    }

    #[test]
    fn syn_for_an_installed_connection_is_absorbed() {
        let (mut hs, mut draws) = (host(None), 0);
        assert_eq!(
            decide(&mut hs, syn(2), true, &mut draws),
            Verdict::Duplicate
        );
        assert_eq!(draws, 0);
    }

    #[test]
    fn admission_counts_installed_and_pending_opens() {
        let mut hs = host(Some(2));
        let draw = || 7;
        // one installed + one pending reaches the cap of 2
        assert!(matches!(
            hs.on_segment(&syn(2), false, 1, draw),
            Verdict::SynAck { .. }
        ));
        assert_eq!(
            hs.on_segment(&syn(3), false, 1, draw),
            Verdict::Refuse(Refusal::Admission)
        );
        // the pending open's own duplicate is still answered
        assert!(matches!(
            hs.on_segment(&syn(2), false, 1, draw),
            Verdict::SynAck {
                duplicate: true,
                ..
            }
        ));
        // with room again (the installed one went), a new SYN is admitted
        assert!(matches!(
            hs.on_segment(&syn(3), false, 0, draw),
            Verdict::SynAck {
                duplicate: false,
                ..
            }
        ));
    }

    #[test]
    fn final_ack_accepts_and_replays_only_with_payload_or_fin() {
        let (mut hs, mut draws) = (host(None), 0);
        decide(&mut hs, syn(2), false, &mut draws);
        assert_eq!(
            decide(&mut hs, ack(2, 0), false, &mut draws),
            Verdict::Accepted {
                iss: 1001,
                listener: "server",
                replay: false
            }
        );
        decide(&mut hs, syn(3), false, &mut draws);
        assert_eq!(
            decide(&mut hs, ack(3, 100), false, &mut draws),
            Verdict::Accepted {
                iss: 1002,
                listener: "server",
                replay: true
            }
        );
        decide(&mut hs, syn(4), false, &mut draws);
        let fin = seg(4, PORT, TcpFlags::ACK | TcpFlags::FIN, 0);
        assert!(matches!(
            decide(&mut hs, fin, false, &mut draws),
            Verdict::Accepted { replay: true, .. }
        ));
    }

    #[test]
    fn ack_for_an_installed_connection_is_replayed() {
        let (mut hs, mut draws) = (host(None), 0);
        assert_eq!(
            decide(&mut hs, ack(2, 100), true, &mut draws),
            Verdict::Replay
        );
    }

    #[test]
    fn stray_ack_is_refused() {
        let (mut hs, mut draws) = (host(None), 0);
        assert_eq!(
            decide(&mut hs, ack(2, 0), false, &mut draws),
            Verdict::Refuse(Refusal::Stray)
        );
    }

    #[test]
    fn synack_completes_the_active_open_once() {
        let (mut hs, mut draws) = (host(None), 0);
        hs.connect(synack().four_tuple(), 555, 9);
        assert_eq!(
            decide(&mut hs, synack(), false, &mut draws),
            Verdict::Connected { iss: 555, open: 9 }
        );
        // its duplicate after the install is absorbed
        assert_eq!(
            decide(&mut hs, synack(), true, &mut draws),
            Verdict::Duplicate
        );
    }

    #[test]
    fn unknown_synack_is_refused() {
        let (mut hs, mut draws) = (host(None), 0);
        assert_eq!(
            decide(&mut hs, synack(), false, &mut draws),
            Verdict::Refuse(Refusal::UnknownSynAck)
        );
    }

    #[test]
    fn peer_reset_fails_a_pending_open_and_forgets_a_passive_one() {
        let (mut hs, mut draws) = (host(None), 0);
        hs.connect(synack().four_tuple(), 555, 9);
        let rst = seg(2, 42_000, TcpFlags::RST | TcpFlags::ACK, 0);
        assert_eq!(
            decide(&mut hs, rst, false, &mut draws),
            Verdict::PeerReset { failed: Some(9) }
        );
        assert_eq!(
            decide(&mut hs, synack(), false, &mut draws),
            Verdict::Refuse(Refusal::UnknownSynAck)
        );
        // a reset passive open no longer completes
        decide(&mut hs, syn(3), false, &mut draws);
        let rst = seg(3, PORT, TcpFlags::RST, 0);
        assert_eq!(
            decide(&mut hs, rst, false, &mut draws),
            Verdict::PeerReset { failed: None }
        );
        assert_eq!(
            decide(&mut hs, ack(3, 0), false, &mut draws),
            Verdict::Refuse(Refusal::Stray)
        );
    }

    #[test]
    fn segment_without_syn_ack_or_rst_is_ignored() {
        let (mut hs, mut draws) = (host(None), 0);
        assert_eq!(
            decide(&mut hs, seg(2, PORT, TcpFlags(0), 0), false, &mut draws),
            Verdict::Ignore
        );
    }

    #[test]
    fn syn_timeouts_resend_the_same_iss_then_give_up() {
        let mut hs = host(None);
        let key = synack().four_tuple();
        hs.connect(key, 555, 9);
        for attempt in 2..=SYN_ATTEMPTS {
            match hs.syn_timeout(&key) {
                Some(SynTimeout::Resend { iss, attempts, .. }) => {
                    assert_eq!((iss, attempts), (555, attempt));
                }
                other => panic!("attempt {attempt}: {other:?}"),
            }
        }
        assert_eq!(hs.syn_timeout(&key), Some(SynTimeout::GiveUp(9)));
        assert_eq!(hs.syn_timeout(&key), None, "a failed open is gone");
        assert_eq!(hs.pending().count(), 0);
    }
}
