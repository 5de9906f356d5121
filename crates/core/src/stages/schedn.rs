//! The flow-scheduler node (§3.4) wrapping the Carousel time wheel.
//!
//! Emits TX triggers into the pipeline, paced by the SCH FPCs' decision
//! throughput and by line-rate serialization of the estimated segment —
//! keeping the MAC egress queue shallow while staying work-conserving.

use flextoe_nfp::FpcTimer;
use flextoe_sim::{Ctx, Duration, Msg, Node, NodeId, Tick, Time, WorkToken};

use crate::costs;
use crate::sched::Carousel;
use crate::segment::{SharedWorkPool, TxWork, Work};
use crate::stages::{SchedCtl, SharedCfg};

pub struct SchedNode {
    cfg: SharedCfg,
    fpcs: Vec<FpcTimer>,
    rr: usize,
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
    pub triggers_emitted: u64,
}

impl SchedNode {
    pub fn new(cfg: SharedCfg, pool: SharedWorkPool, seqr: NodeId) -> SchedNode {
        let fpcs = (0..cfg.sched_fpcs.max(1))
            .map(|_| FpcTimer::new(cfg.platform.clock, cfg.threads_per_fpc))
            .collect();
        SchedNode {
            cfg,
            fpcs,
            rr: 0,
            pool,
            carousel: Carousel::with_defaults(),
            groups: Vec::new(),
            seqr,
            armed: None,
            next_allowed: Time::ZERO,
            triggers_emitted: 0,
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
            let i = self.rr % self.fpcs.len();
            self.rr += 1;
            let done = self.fpcs[i].execute(now, costs::SCHED_DECISION + self.cfg.trace_cost());
            self.triggers_emitted += 1;
            let slot = self.pool.borrow_mut().alloc(Work::Tx(TxWork {
                conn: trigger.conn,
                group: self.group_of(trigger.conn),
                seg: None,
                spec: None,
                sendable_after: None,
                nbi_seq: None,
                arrival: now,
            }));
            let d = done.saturating_since(now) + self.cfg.hop_cross();
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
            let decision = done.saturating_since(now);
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
