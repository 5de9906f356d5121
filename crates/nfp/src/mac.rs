//! The MAC island / network block interface (NBI).
//!
//! Egress frames serialize at line rate (40 Gbps on the Agilio CX40);
//! ingress frames are handed to the pipeline entry (the sequencer) after a
//! small fixed NBI latency. "After DMA completes, it issues the segment to
//! the NBI (TX), which transmits and frees it" (§3.1.2). The port wakes
//! itself only when a frame waits behind the one on the wire
//! ([`TxGate`]); a frame reaching an idle port leaves without a
//! self-event.

use flextoe_sim::{BoundedQueue, CounterHandle, Ctx, Duration, Msg, Node, NodeId, Stats, TxGate};
use flextoe_wire::Frame;

/// A frame submitted by the data-path for transmission (re-exported from
/// the engine's typed message vocabulary).
pub use flextoe_sim::MacTx;

/// Ingress handoff latency (NBI packet-buffer to first pipeline stage).
const NBI_INGRESS_LATENCY: Duration = Duration::from_ns(120);

/// Self-wake token: the frame on the wire finished and another waits.
const TOK_TX_DONE: u64 = 0;

pub struct MacPort {
    bps: u64,
    /// Where serialized egress frames go (a link endpoint).
    pub wire_out: NodeId,
    /// Where ingress frames go (pipeline entry / sequencer).
    pub rx_to: NodeId,
    egress_q: BoundedQueue<Frame>,
    tx: TxGate,
    pub tx_frames: u64,
    pub tx_bytes: u64,
    pub rx_frames: u64,
    tx_drops: Option<CounterHandle>,
}

impl MacPort {
    pub fn new(bps: u64, wire_out: NodeId, rx_to: NodeId) -> MacPort {
        MacPort {
            bps,
            wire_out,
            rx_to,
            egress_q: BoundedQueue::new(4096),
            tx: TxGate::default(),
            tx_frames: 0,
            tx_bytes: 0,
            rx_frames: 0,
            tx_drops: None,
        }
    }

    fn start_tx(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        if !self.tx.busy(now) {
            if let Some(frame) = self.egress_q.pop() {
                let d = Duration::line_rate(frame.len(), self.bps);
                self.tx_frames += 1;
                self.tx_bytes += frame.len() as u64;
                self.tx.start(now, d);
                // The frame "appears on the wire" when serialization completes.
                ctx.send(self.wire_out, d, frame);
            }
        }
        if !self.egress_q.is_empty() {
            // the wake at the end of this frame starts the next one
            self.tx.arm(ctx, TOK_TX_DONE);
        }
    }
}

impl Node for MacPort {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        match msg {
            Msg::MacTx(tx) => {
                if let Err(frame) = self.egress_q.push(tx.0) {
                    ctx.stats.inc(self.tx_drops.expect("mac attached to a sim"));
                    ctx.pool.put(frame.into_bytes());
                }
                self.start_tx(ctx);
            }
            Msg::Token(TOK_TX_DONE) => {
                self.tx.woke(ctx.now());
                self.start_tx(ctx);
            }
            Msg::Frame(frame) => {
                // ingress frame from the wire
                self.rx_frames += 1;
                ctx.send(self.rx_to, NBI_INGRESS_LATENCY, frame);
            }
            m => panic!("mac-port: unexpected message {}", m.variant_name()),
        }
    }

    fn on_attach(&mut self, stats: &mut Stats) {
        self.tx_drops = Some(stats.counter("mac.tx_drops"));
    }

    fn name(&self) -> String {
        "mac-port".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flextoe_sim::{QueueKind, Sim, Time};

    const QUEUES: [QueueKind; 2] = [QueueKind::Wheel, QueueKind::Heap];

    struct Probe {
        frames: Vec<(u64, usize)>, // (ns, len)
    }
    impl Node for Probe {
        fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            let Msg::Frame(f) = msg else {
                panic!("expected a frame")
            };
            self.frames.push((ctx.now().as_ns(), f.len()));
        }
    }

    #[test]
    fn egress_serializes_at_line_rate() {
        let mut sim = Sim::new(1);
        let wire = sim.add_node(Probe { frames: vec![] });
        let rx = sim.add_node(Probe { frames: vec![] });
        let mac = sim.add_node(MacPort::new(40_000_000_000, wire, rx));
        // two back-to-back 1514B frames: 302.8ns each
        sim.schedule(Time::ZERO, mac, MacTx(Frame::raw(vec![0; 1514])));
        sim.schedule(Time::ZERO, mac, MacTx(Frame::raw(vec![0; 1514])));
        sim.run();
        let w = &sim.node_ref::<Probe>(wire).frames;
        assert_eq!(w.len(), 2);
        assert!((300..=305).contains(&w[0].0), "{}", w[0].0);
        assert!((603..=610).contains(&w[1].0), "{}", w[1].0);
        let m = sim.node_ref::<MacPort>(mac);
        assert_eq!(m.tx_frames, 2);
        assert_eq!(m.tx_bytes, 3028);
    }

    #[test]
    fn ingress_forwards_to_pipeline() {
        let mut sim = Sim::new(1);
        let wire = sim.add_node(Probe { frames: vec![] });
        let rx = sim.add_node(Probe { frames: vec![] });
        let mac = sim.add_node(MacPort::new(40_000_000_000, wire, rx));
        sim.schedule(Time::from_ns(50), mac, Frame::raw(vec![1, 2, 3]));
        sim.run();
        let r = &sim.node_ref::<Probe>(rx).frames;
        assert_eq!(r.len(), 1);
        assert_eq!(r[0], (170, 3)); // 50 + 120ns NBI latency
        assert_eq!(sim.node_ref::<MacPort>(mac).rx_frames, 1);
    }

    #[test]
    fn interleaved_tx_keeps_order() {
        let mut sim = Sim::new(1);
        let wire = sim.add_node(Probe { frames: vec![] });
        let rx = sim.add_node(Probe { frames: vec![] });
        let mac = sim.add_node(MacPort::new(10_000_000_000, wire, rx));
        for len in [100usize, 200, 300] {
            sim.schedule(Time::ZERO, mac, MacTx(Frame::raw(vec![0; len])));
        }
        sim.run();
        let lens: Vec<usize> = sim
            .node_ref::<Probe>(wire)
            .frames
            .iter()
            .map(|f| f.1)
            .collect();
        assert_eq!(lens, vec![100, 200, 300]);
        // one wake per frame queued behind another, none for the first
        assert_eq!(sim.events_processed(), 3 + 3 + 2);
    }

    /// Frames that find the port idle leave without a self-event.
    #[test]
    fn spaced_frames_need_no_wake() {
        for kind in QUEUES {
            let mut sim = Sim::with_queue(1, kind);
            let wire = sim.add_node(Probe { frames: vec![] });
            let mac = sim.add_node(MacPort::new(40_000_000_000, wire, wire));
            for i in 0..10 {
                sim.schedule(Time::from_us(i), mac, MacTx(Frame::raw(vec![0; 64])));
            }
            sim.run();
            assert_eq!(sim.node_ref::<Probe>(wire).frames.len(), 10);
            assert_eq!(sim.events_processed(), 10 + 10, "{kind:?}");
        }
    }

    /// Passes every message on to `to` in the same instant, so it reaches
    /// `to` under this node's band.
    struct Feeder {
        to: NodeId,
    }
    impl Node for Feeder {
        fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            ctx.send(self.to, Duration::ZERO, msg);
        }
    }

    /// The tie rule at the end of a frame (see [`TxGate`]): two frames
    /// handed over at exactly that instant by feeders with lower node ids
    /// than the MAC both queue (the end-of-frame wake follows them);
    /// from higher ids the first finds the port idle. Wire times agree.
    #[test]
    fn frames_at_tx_end_see_the_port_busy_only_from_lower_ids() {
        for kind in QUEUES {
            let run = |feeders_below: bool| {
                let mut sim = Sim::with_queue(1, kind);
                let feeders = |sim: &mut Sim| [sim.reserve_node(), sim.reserve_node()];
                let below = feeders_below.then(|| feeders(&mut sim));
                let wire = sim.add_node(Probe { frames: vec![] });
                let mac = sim.add_node(MacPort::new(10_000_000_000, wire, wire));
                let end = Time::ZERO + Duration::line_rate(64, 10_000_000_000);
                let ids = below.unwrap_or_else(|| feeders(&mut sim));
                for id in ids {
                    sim.fill_node(id, Feeder { to: mac });
                }
                sim.schedule(Time::ZERO, mac, MacTx(Frame::raw(vec![0; 64])));
                sim.schedule(end, ids[0], MacTx(Frame::raw(vec![0; 100])));
                sim.schedule(end, ids[1], MacTx(Frame::raw(vec![0; 300])));
                sim.run();
                sim.node_ref::<Probe>(wire).frames.clone()
            };
            assert_eq!(run(true), run(false), "{kind:?}");
        }
    }
}
