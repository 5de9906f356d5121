//! The flow-scheduler node (§3.4) wrapping the Carousel time wheel.
//!
//! Emits TX triggers into the pipeline, paced by the SCH FPCs' decision
//! throughput and by line-rate serialization of the estimated segment —
//! keeping the MAC egress queue shallow while staying work-conserving.

use flextoe_sim::{Ctx, Duration, Msg, Node, NodeId, Tick, Time, WorkToken};

use crate::costs;
use crate::sched::Carousel;
use crate::segment::{SharedWorkPool, TxWork, Work};
use crate::stages::{FpcPool, SchedCtl, SharedCfg};

pub struct SchedNode {
    cfg: SharedCfg,
    fpcs: FpcPool,
    pool: SharedWorkPool,
    pub carousel: Carousel,
    /// Flow group per connection (for steering TX work).
    groups: Vec<usize>,
    /// Routing.
    pub seqr: NodeId,
    /// A wake tick is already scheduled for this time.
    armed: Option<Time>,
    /// Global emission gate: next instant a trigger may be emitted
    /// (line-rate pacing shared by all flows).
    next_allowed: Time,
}

impl SchedNode {
    pub fn new(cfg: SharedCfg, pool: SharedWorkPool, seqr: NodeId) -> SchedNode {
        SchedNode {
            fpcs: FpcPool::new(&cfg, cfg.sched_fpcs),
            cfg,
            pool,
            carousel: Carousel::with_defaults(),
            groups: Vec::new(),
            seqr,
            armed: None,
            next_allowed: Time::ZERO,
        }
    }

    fn group_of(&self, conn: u32) -> usize {
        self.groups.get(conn as usize).copied().unwrap_or(0)
    }

    /// Emit at most one trigger, then re-arm.
    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        if now < self.next_allowed {
            self.arm(ctx, self.next_allowed);
            return;
        }
        if let Some(trigger) = self.carousel.next_trigger(now, self.cfg.mss) {
            // SCH decision cost on one of the scheduler FPCs
            let decision = self.fpcs.exec(now, costs::SCHED_DECISION);
            let slot = self.pool.borrow_mut().alloc(Work::Tx(TxWork {
                conn: trigger.conn,
                group: self.group_of(trigger.conn),
                seg: None,
                spec: None,
                sendable_after: None,
                nbi_seq: None,
                arrival: now,
            }));
            let d = decision + self.cfg.hop_cross();
            ctx.send(
                self.seqr,
                d,
                WorkToken {
                    slot,
                    entry_seq: None,
                },
            );

            // pace the next decision: SCH throughput and line-rate of the
            // frame just scheduled (whichever is slower)
            let frame_bytes = trigger.bytes_est as usize + flextoe_wire::FRAME_OVERHEAD_TS;
            let wire = self.cfg.platform.mac_serialize(frame_bytes);
            self.next_allowed = now + wire.max(decision);
            self.arm(ctx, self.next_allowed);
        } else if let Some(at) = self.carousel.earliest_work(now) {
            self.arm(ctx, at.max(now + Duration::from_ns(200)));
        }
    }

    fn arm(&mut self, ctx: &mut Ctx<'_>, at: Time) {
        let at = at.max(ctx.now());
        if let Some(armed) = self.armed {
            if armed <= at && armed >= ctx.now() {
                return; // an earlier-or-equal tick is already pending
            }
        }
        if self.carousel.is_idle() {
            // no flow to pop: the next FsUpdate or SchedCtl pumps again
            // (the Carousel's rotation is path-independent, so the tick
            // skipped here would have changed nothing)
            self.armed = None;
            return;
        }
        self.armed = Some(at);
        ctx.send_at(ctx.self_id(), at, Tick);
    }
}

impl Node for SchedNode {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        match msg {
            Msg::Tick => {
                self.armed = None;
                self.pump(ctx);
            }
            Msg::FsUpdate(up) => {
                self.carousel
                    .update_sendable(up.conn, up.sendable, ctx.now());
                self.pump(ctx);
            }
            Msg::SchedCtl(ctl) => {
                match ctl {
                    SchedCtl::Register { conn, group } => {
                        self.carousel.register(conn);
                        if self.groups.len() <= conn as usize {
                            self.groups.resize(conn as usize + 1, 0);
                        }
                        self.groups[conn as usize] = group;
                    }
                    SchedCtl::Unregister { conn } => self.carousel.unregister(conn),
                    SchedCtl::SetRate {
                        conn,
                        interval_ps_per_byte,
                    } => self.carousel.set_rate(conn, interval_ps_per_byte),
                }
                self.pump(ctx);
            }
            m => flextoe_sim::mismatch("Tick, FsUpdate or SchedCtl", &m),
        }
    }

    fn name(&self) -> String {
        "sched".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::shared_work_pool;
    use crate::stages::PipeCfg;
    use flextoe_sim::{FsUpdate, SchedCtl, Sim};
    use std::rc::Rc;

    /// Logs when TX triggers reach the sequencer.
    struct Seqr {
        at: Vec<Time>,
    }
    impl Node for Seqr {
        fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            let Msg::Work(_) = msg else {
                flextoe_sim::mismatch("Work", &msg)
            };
            self.at.push(ctx.now());
        }
    }

    /// A scheduler with connection 0 registered at time zero.
    fn sched_with_one_conn() -> (Sim, NodeId, NodeId) {
        let mut sim = Sim::new(1);
        let seqr = sim.add_node(Seqr { at: vec![] });
        let cfg = Rc::new(PipeCfg::agilio_full());
        let sched = sim.add_node(SchedNode::new(cfg, shared_work_pool(), seqr));
        sim.schedule(Time::ZERO, sched, SchedCtl::Register { conn: 0, group: 0 });
        (sim, sched, seqr)
    }

    /// A trigger that empties the Carousel arms no tick: the only
    /// deliveries are the registration, the update and the one trigger.
    #[test]
    fn trigger_that_empties_the_carousel_arms_no_tick() {
        let (mut sim, sched, seqr) = sched_with_one_conn();
        let update = FsUpdate {
            conn: 0,
            sendable: 64,
        };
        sim.schedule(Time::from_us(1), sched, update);
        sim.run();
        assert_eq!(sim.node_ref::<Seqr>(seqr).at.len(), 1);
        assert_eq!(sim.events_processed(), 3);
    }

    /// A paced flow keeps its polling ticks: three MSS at ~1 Gbit/s leave
    /// as three triggers at least one pacing interval apart.
    #[test]
    fn paced_flow_still_rearms() {
        let (mut sim, sched, seqr) = sched_with_one_conn();
        let rate = SchedCtl::SetRate {
            conn: 0,
            interval_ps_per_byte: 8_000,
        };
        sim.schedule(Time::ZERO, sched, rate);
        let mss = PipeCfg::agilio_full().mss;
        let update = FsUpdate {
            conn: 0,
            sendable: 3 * mss,
        };
        sim.schedule(Time::from_us(1), sched, update);
        sim.run();
        let at = &sim.node_ref::<Seqr>(seqr).at;
        assert_eq!(at.len(), 3);
        let interval = Duration::from_ps(u64::from(mss) * 8_000);
        assert!(
            at.windows(2).all(|w| w[1].since(w[0]) >= interval),
            "{at:?}"
        );
    }
}
