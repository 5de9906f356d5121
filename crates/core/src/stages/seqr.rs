//! The sequencing / reordering node (§3.2).
//!
//! Three functions on one node (a further island in the real layout):
//!
//! 1. **Entry sequencing**: every work item entering the pipeline — RX
//!    frames from the NBI, TX triggers from the flow scheduler, HC
//!    descriptors from the context-queue stage — receives a pipeline
//!    sequence number.
//! 2. **Protocol admission**: after the (replicated, parallel)
//!    pre-processing stage, items are restored to entry order before
//!    being steered to their flow-group's protocol stage.
//! 3. **NBI admission**: finished frames are restored to protocol-stage
//!    emission order (per flow-group) before transmission.
//!
//! Work items live in the NIC's shared `WorkPool`; only `WorkToken`
//! slot indices travel through the event queue.

use flextoe_sim::{CounterHandle, Ctx, MacTx, Msg, Node, NodeId, Stats, WorkToken};
use flextoe_wire::Frame;

use crate::costs;
use crate::reorder::Reorder;
use crate::segment::{RxWork, SharedWorkPool, Work, WorkPool};
use crate::stages::SharedCfg;
use flextoe_nfp::FpcTimer;

pub struct SeqrNode {
    cfg: SharedCfg,
    fpc: FpcTimer,
    next_entry: u64,
    pool: SharedWorkPool,
    /// Protocol-admission reorderers, one per flow group… but entry
    /// sequencing is global, so admission ordering is global too: a single
    /// reorderer releases to the right group's protocol stage.
    admit: Reorder<u32>,
    /// NBI-admission reorderers, one lane per flow group.
    nbi: Vec<Reorder<Frame>>,
    /// Reused release buffers: the reorderers' in-order fast path appends
    /// here instead of allocating a fresh `Vec` per delivery.
    scratch_slots: Vec<u32>,
    scratch_frames: Vec<Frame>,
    /// Routing.
    pub pre_pool: Vec<NodeId>,
    /// Next `pre_pool` index, wrapped in place (no `%` per item).
    pre_rr: usize,
    pub protos: Vec<NodeId>,
    pub mac: NodeId,
    /// `nic.pool_exhausted`: RX frames shed at ingress because a capped
    /// work pool was full — backpressure as a counted degraded mode
    /// instead of unbounded slab growth (or a panic).
    exhausted_counter: Option<CounterHandle>,
}

impl SeqrNode {
    pub fn new(cfg: SharedCfg, pool: SharedWorkPool, _mac: NodeId) -> SeqrNode {
        let n_groups = cfg.n_groups;
        SeqrNode {
            fpc: FpcTimer::new(cfg.platform.clock, cfg.platform.threads_per_fpc),
            cfg,
            next_entry: 0,
            pool,
            admit: Reorder::new(),
            nbi: (0..n_groups).map(|_| Reorder::new()).collect(),
            scratch_slots: Vec::new(),
            scratch_frames: Vec::new(),
            pre_pool: Vec::new(),
            pre_rr: 0,
            protos: Vec::new(),
            mac: 0,
            exhausted_counter: None,
        }
    }

    fn enter(&mut self, ctx: &mut Ctx<'_>, slot: u32) {
        let entry_seq = self.next_entry;
        self.next_entry += 1;
        let done = self
            .fpc
            .execute(ctx.now(), costs::SEQR + self.cfg.trace_cost());
        let delay = done.saturating_since(ctx.now()) + self.cfg.hop_intra();
        // round-robin across the pre-processor pool ("pre-processors
        // handle segments for any flow", §4.1)
        let to = self.pre_pool[self.pre_rr];
        self.pre_rr += 1;
        if self.pre_rr == self.pre_pool.len() {
            self.pre_rr = 0;
        }
        ctx.send(
            to,
            delay,
            WorkToken {
                slot,
                entry_seq: Some(entry_seq),
            },
        );
    }

    fn admit_proto(&mut self, ctx: &mut Ctx<'_>, released: &mut Vec<u32>, pool: &WorkPool) {
        for slot in released.drain(..) {
            let group = pool.get(slot).group();
            let done = self.fpc.execute(ctx.now(), costs::SEQR);
            let delay = done.saturating_since(ctx.now()) + self.cfg.hop_cross();
            ctx.send(
                self.protos[group],
                delay,
                WorkToken {
                    slot,
                    entry_seq: None,
                },
            );
        }
    }

    fn admit_nbi(&mut self, ctx: &mut Ctx<'_>, frames: &mut Vec<Frame>) {
        for frame in frames.drain(..) {
            // an empty frame is an NBI skip: the item died after its slot
            // was allocated (connection teardown mid-pipeline); the slot
            // advanced the reorderer and there is nothing to transmit
            if frame.is_empty() {
                continue;
            }
            let done = self.fpc.execute(ctx.now(), costs::SEQR);
            let delay = done.saturating_since(ctx.now()) + self.cfg.hop_cross();
            ctx.send(self.mac, delay, MacTx(frame));
        }
    }
}

impl SeqrNode {
    /// One delivery against the borrowed work pool.
    fn deliver(&mut self, ctx: &mut Ctx<'_>, msg: Msg, pool: &mut WorkPool) {
        match msg {
            // raw ingress frame from the MAC
            Msg::Frame(frame) => {
                // pool-exhaustion backpressure: a capped work pool with
                // no free slot sheds the frame at ingress (the NBI's
                // behavior when its work memory is gone) — a counted
                // drop, recycled to the fabric pool so the conservation
                // invariant holds through exhaustion
                if pool.at_capacity() {
                    if let Some(c) = self.exhausted_counter {
                        ctx.stats.inc(c);
                    }
                    ctx.pool.put(frame.into_bytes());
                    return;
                }
                let slot = pool.alloc(Work::Rx(RxWork {
                    corrupted: frame.corrupted,
                    frame: frame.bytes,
                    view: None,
                    summary: Default::default(),
                    conn: 0,
                    group: 0,
                    outcome: None,
                    ack_frame: None,
                    nbi_seq: None,
                    notify_ctx: 0,
                    notify_rx: None,
                    notify_tx: None,
                    arrival: ctx.now(),
                }));
                self.enter(ctx, slot);
            }
            Msg::Work(token) => match token.entry_seq {
                // work entering from scheduler (TX) or context-queue
                // stage (HC): no entry sequence yet
                None => self.enter(ctx, token.slot),
                // pre-processing finished: admit to protocol in entry order
                Some(entry_seq) => {
                    let mut released = std::mem::take(&mut self.scratch_slots);
                    if self.cfg.reorder {
                        self.admit.push_into(entry_seq, token.slot, &mut released);
                    } else {
                        released.push(token.slot);
                    }
                    self.admit_proto(ctx, &mut released, pool);
                    self.scratch_slots = released;
                }
            },
            // pre-processing dropped/redirected an item
            Msg::Skip(entry_seq) => {
                if self.cfg.reorder {
                    let mut released = std::mem::take(&mut self.scratch_slots);
                    self.admit.skip_into(entry_seq, &mut released);
                    self.admit_proto(ctx, &mut released, pool);
                    self.scratch_slots = released;
                }
            }
            // finished frame for transmission
            Msg::Nbi(sub) => {
                let mut frames = std::mem::take(&mut self.scratch_frames);
                if self.cfg.reorder {
                    self.nbi[sub.group as usize].push_into(sub.nbi_seq, sub.frame, &mut frames);
                } else {
                    frames.push(sub.frame);
                }
                self.admit_nbi(ctx, &mut frames);
                self.scratch_frames = frames;
            }
            m => panic!("seqr: unexpected message {}", m.variant_name()),
        }
    }
}

impl Node for SeqrNode {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let pool = std::rc::Rc::clone(&self.pool);
        self.deliver(ctx, msg, &mut pool.borrow_mut());
    }

    fn on_attach(&mut self, stats: &mut Stats) {
        self.exhausted_counter = Some(stats.counter("nic.pool_exhausted"));
    }

    fn name(&self) -> String {
        "seqr".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::shared_work_pool;
    use crate::stages::PipeCfg;
    use flextoe_sim::{NbiFrame, Sim, Time};
    use std::rc::Rc;

    struct MacProbe {
        frames: Vec<Vec<u8>>,
    }
    impl Node for MacProbe {
        fn on_msg(&mut self, _ctx: &mut Ctx<'_>, msg: Msg) {
            let Msg::MacTx(tx) = msg else {
                panic!("probe expects egress frames")
            };
            self.frames.push(tx.0.into_bytes());
        }
    }

    /// A work item that dies after its NBI slot was allocated (connection
    /// teardown mid-pipeline) releases the slot with an empty skip frame:
    /// later frames of the lane still transmit, and the skip itself never
    /// reaches the MAC.
    #[test]
    fn empty_nbi_frame_skips_without_stalling_the_lane() {
        let mut sim = Sim::new(1);
        let mac = sim.add_node(MacProbe { frames: vec![] });
        let cfg = Rc::new(PipeCfg::agilio_full());
        let mut seqr = SeqrNode::new(cfg, shared_work_pool(), mac);
        seqr.mac = mac;
        let seqr = sim.add_node(seqr);

        // nbi_seq 1 arrives first and must wait for nbi_seq 0
        sim.schedule(
            Time::from_ns(10),
            seqr,
            NbiFrame {
                group: 0,
                nbi_seq: 1,
                frame: Frame::raw(vec![0xAB; 64]),
            },
        );
        sim.run();
        assert!(
            sim.node_ref::<MacProbe>(mac).frames.is_empty(),
            "held for reordering"
        );

        // nbi_seq 0 died mid-pipeline: its empty skip frame releases the lane
        sim.schedule(
            Time::from_ns(20),
            seqr,
            NbiFrame {
                group: 0,
                nbi_seq: 0,
                frame: Frame::raw(Vec::new()),
            },
        );
        sim.run();
        let frames = &sim.node_ref::<MacProbe>(mac).frames;
        assert_eq!(
            frames.len(),
            1,
            "skip released the buffered frame, emitted nothing itself"
        );
        assert_eq!(frames[0], vec![0xAB; 64]);
    }
}
