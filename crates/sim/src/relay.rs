//! Fault-free links as engine relays.
//!
//! A fault-free link node does one thing with a frame: it sends it on to
//! its far end `propagation` after it arrived, keyed `(arrival +
//! propagation, band(link) | link's own counter)`. It draws no random
//! number and counts nothing, so the delivery in between is pure delay.
//! A node registered as a relay ([`crate::Sim::set_relay`]) skips it: a
//! `Frame` sent to the link is pushed at send time straight to the far
//! end, under exactly the key the link node would have produced. The
//! sender's counter still advances once, so every other delivered event
//! keeps its `(time, seq)` key and only the link's own delivery is gone.
//!
//! That is exact under two conditions, and the table checks both instead
//! of assuming them:
//!
//! - **Feed order.** The link node would hand out its counter in the
//!   order it receives frames, i.e. by their `(arrival, sender seq)`
//!   keys; the relay hands it out in send order. The two agree exactly
//!   when each link's feed keys strictly increase in send order, which
//!   holds for the FIFO feeders that drive links (switch ports, NIC MACs,
//!   host-stack egress). Every frame sent to a registered link is checked
//!   against the last one, relayed or not, and a feed out of order panics.
//! - **Demotion.** Any other message sent to a relay (an admin message
//!   such as a fault reconfiguration) turns it back into its node for the
//!   rest of the run: later frames queue for the node, which handles them
//!   and the message in key order. That is only exact if no frame already
//!   relayed has a key behind the message's (the node would have seen the
//!   message first), so such a message panics instead. Messages scheduled
//!   before the run demote a link before any frame reaches it.

use crate::engine::{node_band, Msg, NodeId, SEQ_BAND_SPAN};
use crate::time::{Duration, Time};

/// `Relays::of` entry of a node that is not a registered link.
const NOT_A_RELAY: u32 = u32::MAX;

/// An event's delivery key.
type Key = (Time, u64);

struct Relay {
    far: NodeId,
    delay: Duration,
    /// Forwarding at send time; cleared for good by the first non-`Frame`
    /// message.
    active: bool,
    /// Key of the last frame fed to the link, relayed or not.
    last_feed: Option<Key>,
    /// Key of the last frame relayed at send time (frozen by demotion).
    relayed_upto: Option<Key>,
}

/// The engine's relay table: per node, the index of its relay entry.
#[derive(Default)]
pub(crate) struct Relays {
    of: Vec<u32>,
    table: Vec<Relay>,
}

impl Relays {
    /// Extend the per-node index for a new node slot.
    pub(crate) fn add_slot(&mut self) {
        self.of.push(NOT_A_RELAY);
    }

    pub(crate) fn register(&mut self, link: NodeId, far: NodeId, delay: Duration) {
        assert_eq!(self.of[link], NOT_A_RELAY, "node {link} is already a relay");
        self.of[link] = self.table.len() as u32;
        self.table.push(Relay {
            far,
            delay,
            active: true,
            last_feed: None,
            relayed_upto: None,
        });
    }

    /// Is `to` a registered link (active or demoted)? The one check on
    /// the common send path.
    #[inline(always)]
    pub(crate) fn contains(&self, to: NodeId) -> bool {
        self.of[to] != NOT_A_RELAY
    }

    /// Route an event addressed to a registered link: check feed order
    /// (frames) or demote (anything else), and while the target is an
    /// active relay, forward under the link's own band and counter.
    /// Returns the key and target the event is queued under.
    #[cold]
    pub(crate) fn route(
        &mut self,
        send_seqs: &mut [u64],
        mut time: Time,
        mut seq: u64,
        mut to: NodeId,
        msg: &Msg,
    ) -> (Time, u64, NodeId) {
        let is_frame = matches!(msg, Msg::Frame(_));
        while self.contains(to) {
            let r = &mut self.table[self.of[to] as usize];
            let key = (time, seq);
            if !is_frame {
                if let Some(upto) = r.relayed_upto.filter(|&upto| upto > key) {
                    panic!(
                        "relay link node {to}: {} message at {} (seq {:#x}) falls behind \
                         a frame already relayed at {} (seq {:#x})",
                        msg.variant_name(),
                        time,
                        seq,
                        upto.0,
                        upto.1
                    );
                }
                r.active = false;
                break;
            }
            let last = r.last_feed.replace(key);
            assert!(
                last < Some(key),
                "relay link node {to}: feed out of order, a frame arriving at {} (seq {:#x}) \
                 after one arriving at {:?}",
                time,
                seq,
                last.map(|(t, s)| format!("{t} (seq {s:#x})"))
            );
            if !r.active {
                break;
            }
            r.relayed_upto = Some(key);
            let count = &mut send_seqs[to];
            seq = node_band(to) | *count;
            *count += 1;
            debug_assert!(*count < SEQ_BAND_SPAN, "per-source seq band overflow");
            time += r.delay;
            to = r.far;
        }
        (time, seq, to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Ctx, Node, QueueKind, Sim};
    use crate::rng::Rng;
    use crate::Tick;
    use flextoe_wire::Frame;

    /// What a fault-free `Link` node does: forward every frame
    /// `delay` later, ignore admin messages.
    struct Fwd {
        to: NodeId,
        delay: Duration,
    }
    impl Node for Fwd {
        fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            if let Msg::Frame(f) = msg {
                ctx.send(self.to, self.delay, f);
            }
        }
    }

    /// Frame payload: `[id lo, id hi, hops left]`.
    fn frame(id: u16, hops: u8) -> Frame {
        let [lo, hi] = id.to_le_bytes();
        Frame::raw(vec![lo, hi, hops])
    }

    /// A FIFO feeder: each port transmits in arrival order, a random
    /// serialization time (0-2 ns) after the port frees, like a switch
    /// port, a MAC or host-stack egress. It also sends straight to other
    /// hubs (no link, any delay), and now and then an admin `Tick` to one
    /// of its links, timed at the port's free instant so it sorts after
    /// every frame the port already sent.
    struct Hub {
        ports: Vec<(NodeId, Time)>,
        peers: Vec<NodeId>,
        admin: bool,
    }
    impl Node for Hub {
        fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            let Msg::Frame(mut f) = msg else { return };
            let hops = f.bytes[2];
            if hops == 0 {
                return;
            }
            f.bytes[2] = hops - 1;
            let now = ctx.now();
            if ctx.rng.below(4) == 0 {
                let peer = self.peers[ctx.rng.below(self.peers.len() as u64) as usize];
                let delay = Duration::from_ns(ctx.rng.below(3));
                ctx.send(peer, delay, f);
                return;
            }
            let p = ctx.rng.below(self.ports.len() as u64) as usize;
            let (link, free) = self.ports[p];
            let depart = free.max(now) + Duration::from_ns(ctx.rng.below(3));
            self.ports[p].1 = depart;
            ctx.send_at(link, depart, f);
            if self.admin && ctx.rng.below(50) == 0 {
                ctx.send_at(link, depart, Tick);
            }
        }
    }

    /// Delivery log: `(ps, seq, to, payload)`.
    type Log = Vec<crate::engine::Delivery>;

    /// One random graph of hubs and links, run with every link a `Fwd`
    /// node (`relay == false`) or a relay over that same node. Returns
    /// the non-link delivery log and the number of delivered events.
    fn run_graph(case: u64, kind: QueueKind, relay: bool) -> (Log, u64) {
        let mut g = Rng::new(0xfeed ^ case);
        let n_hubs = 2 + g.below(5) as usize;
        let mut sim = Sim::with_queue(case, kind);
        let hubs: Vec<NodeId> = (0..n_hubs).map(|_| sim.reserve_node()).collect();
        let mut links = Vec::new();
        let mut add_link = |sim: &mut Sim, g: &mut Rng, to: NodeId| {
            let delay = Duration::from_ns(g.below(4));
            let id = sim.add_node(Fwd { to, delay });
            if relay {
                sim.set_relay(id, to, delay);
            }
            links.push(id);
            id
        };
        let mut ports = vec![Vec::new(); n_hubs];
        for hub_ports in ports.iter_mut() {
            for _ in 0..1 + g.below(3) {
                let far = hubs[g.below(n_hubs as u64) as usize];
                // now and then a chain of two links
                let far = if g.below(5) == 0 {
                    add_link(&mut sim, &mut g, far)
                } else {
                    far
                };
                hub_ports.push((add_link(&mut sim, &mut g, far), Time::ZERO));
            }
        }
        // links fed by pre-run schedules only
        let fed: Vec<NodeId> = (0..g.below(3))
            .map(|_| {
                let far = hubs[g.below(n_hubs as u64) as usize];
                add_link(&mut sim, &mut g, far)
            })
            .collect();
        // admin messages scheduled before any frame demote their links
        for &link in &links {
            if g.below(6) == 0 {
                sim.schedule(Time::from_ns(g.below(40)), link, Tick);
            }
        }
        let mut id = 0u16;
        for link in fed {
            let mut at = 0;
            for _ in 0..8 {
                at += g.below(3);
                sim.schedule(Time::from_ns(at), link, frame(id, 6));
                id += 1;
            }
        }
        for (i, &hub) in hubs.iter().enumerate() {
            let hub_node = Hub {
                ports: std::mem::take(&mut ports[i]),
                peers: hubs.clone(),
                admin: g.below(2) == 0,
            };
            sim.fill_node(hub, hub_node);
        }
        for _ in 0..40 {
            let hub = hubs[g.below(n_hubs as u64) as usize];
            sim.schedule(Time::from_ns(g.below(20)), hub, frame(id, 12));
            id += 1;
        }
        sim.delivery_log = Some(Vec::new());
        sim.run_with_limit(1_000_000);
        let log = sim.delivery_log.take().expect("log enabled");
        let log = log.into_iter().filter(|d| !links.contains(&d.2)).collect();
        (log, sim.events_processed())
    }

    /// Relays deliver exactly what forwarding nodes deliver: the same
    /// `(time, seq, to, payload)` sequence at every non-link node, on
    /// both queues, over random feeder graphs with same-instant ties,
    /// link chains, schedule-fed links and pre-run and runtime demotions.
    #[test]
    fn relays_match_forwarding_nodes() {
        let mut saved = 0;
        for case in 0..64 {
            for kind in [QueueKind::Wheel, QueueKind::Heap] {
                let (want, fwd_events) = run_graph(case, kind, false);
                let (got, relay_events) = run_graph(case, kind, true);
                assert!(want.len() > 40, "case {case}: too little traffic");
                assert_eq!(got, want, "case {case} on {kind:?}");
                assert!(relay_events <= fwd_events);
                saved += fwd_events - relay_events;
            }
        }
        assert!(saved > 1000, "relays elided only {saved} deliveries");
    }

    struct Sink(Vec<(u64, u8)>);
    impl Node for Sink {
        fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            let Msg::Frame(f) = msg else {
                panic!("expected a frame")
            };
            self.0.push((ctx.now().as_ns(), f.bytes[0]));
        }
    }

    /// A feeder that sends each `(at ns, msg)` of its script when kicked.
    struct Script(NodeId, Vec<(u64, Option<u8>)>);
    impl Node for Script {
        fn on_msg(&mut self, ctx: &mut Ctx<'_>, _msg: Msg) {
            for &(at, byte) in &self.1 {
                let at = Time::from_ns(at);
                match byte {
                    Some(b) => ctx.send_at(self.0, at, Frame::raw(vec![b])),
                    None => ctx.send_at(self.0, at, Tick),
                }
            }
        }
    }

    /// `(sim, feeder, link, sink)`: a scripted feeder into a 10 ns relay.
    fn scripted(script: Vec<(u64, Option<u8>)>) -> (Sim, NodeId, NodeId, NodeId) {
        let mut sim = Sim::new(1);
        let sink = sim.add_node(Sink(vec![]));
        let delay = Duration::from_ns(10);
        let link = sim.add_node(Fwd { to: sink, delay });
        sim.set_relay(link, sink, delay);
        let feeder = sim.add_node(Script(link, script));
        sim.schedule(Time::ZERO, feeder, Tick);
        (sim, feeder, link, sink)
    }

    #[test]
    #[should_panic(expected = "relay link node 1: feed out of order")]
    fn out_of_order_feed_panics() {
        let (mut sim, ..) = scripted(vec![(20, Some(1)), (5, Some(2))]);
        sim.run();
    }

    /// A message scheduled after a frame was relayed past its key would
    /// have reached the node first: the relay cannot honour it.
    #[test]
    #[should_panic(expected = "relay link node 1: Tick message at 50.000ns")]
    fn scheduled_admin_behind_a_relayed_frame_panics() {
        let (mut sim, _, link, _) = scripted(vec![(100, Some(1))]);
        sim.run_until(Time::from_ns(1));
        sim.schedule(Time::from_ns(50), link, Tick);
    }

    #[test]
    #[should_panic(expected = "falls behind a frame already relayed at 100.000ns")]
    fn runtime_admin_behind_a_relayed_frame_panics() {
        let (mut sim, ..) = scripted(vec![(100, Some(1)), (50, None)]);
        sim.run();
    }

    /// An admin message at or after every relayed frame demotes the relay:
    /// later frames pass through the node (one more delivery each) and
    /// every frame reaches the sink when the node would have sent it.
    #[test]
    fn runtime_admin_after_the_relayed_frames_demotes() {
        let script = vec![(10, Some(1)), (30, None), (40, Some(2)), (41, Some(3))];
        let (mut sim, _, _, sink) = scripted(script);
        sim.run();
        assert_eq!(
            sim.node_ref::<Sink>(sink).0,
            vec![(20, 1), (50, 2), (51, 3)]
        );
        // kick-off, frame 1 at the sink, the admin and frames 2 and 3 at
        // the demoted node, frames 2 and 3 at the sink
        assert_eq!(sim.events_processed(), 7);
    }
}
