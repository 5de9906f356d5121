//! The context-queue stage (§3.1.1, §4 "Context queues").
//!
//! Polls doorbells, fetches HC descriptors from host context queues over
//! PCIe, and delivers notification descriptors back — "the limited pool
//! size flow-controls host interactions. If allocation fails, processing
//! stops and is retried later." Applications are woken via MSI-X
//! interrupts converted to eventfds by the driver (§4 "Driver") when a
//! queue transitions from empty.
//!
//! DMA continuations (descriptor fetches, notification writes) are kept
//! in a local slab indexed by the transfer token (free slots recycle, so
//! the steady state neither allocates nor hashes), keeping the engine
//! round trip allocation-free.

use std::collections::VecDeque;

use flextoe_nfp::{dma_req, DmaDir, FpcTimer};
use flextoe_sim::{
    cast, CounterHandle, Ctx, Duration, FxHashMap, Msg, Node, NodeId, Stats, WorkToken,
};

use crate::costs;
use crate::hostmem::{AppToNic, NicToApp, SharedCtxQueue};
use crate::segment::{HcWork, SharedWorkPool, Work};
use crate::stages::{AppNotify, RegisterCtx, SharedCfg};

/// Descriptor-buffer pool size (flow control of host interactions).
pub const DESC_POOL: usize = 256;
/// HC descriptors fetched per DMA batch ("HC requests may be batched").
pub const FETCH_BATCH: usize = 16;
/// Size of one descriptor on the wire.
const DESC_BYTES: usize = 32;

pub struct CtxRegistration {
    pub queue: SharedCtxQueue,
    /// Application node to wake on notification (None = pure polling).
    pub app: Option<NodeId>,
}

/// Continuation of an outstanding PCIe transfer.
enum Pending {
    Fetch { descs: Vec<AppToNic> },
    Notify { ctx: u16, desc: NicToApp },
}

pub struct CtxqStage {
    cfg: SharedCfg,
    fpc: FpcTimer,
    contexts: FxHashMap<u16, CtxRegistration>,
    work_pool: SharedWorkPool,
    pool: usize,
    /// Contexts with undrained to-NIC entries, waiting for pool space.
    dirty: VecDeque<u16>,
    /// Outstanding transfer continuations: a slab indexed by the transfer
    /// token, with freed slots recycled through a free list.
    pending: Vec<Option<Pending>>,
    pending_free: Vec<u32>,
    /// Recycled descriptor-batch buffers (fetch continuations return
    /// their emptied `Vec` here instead of the allocator).
    desc_bufs: Vec<Vec<AppToNic>>,
    /// Routing.
    pub engine: NodeId,
    pub seqr: NodeId,
    notify_drops: Option<CounterHandle>,
}

impl CtxqStage {
    pub fn new(
        cfg: SharedCfg,
        work_pool: SharedWorkPool,
        engine: NodeId,
        seqr: NodeId,
    ) -> CtxqStage {
        CtxqStage {
            fpc: FpcTimer::new(cfg.platform.clock, cfg.platform.threads_per_fpc),
            cfg,
            contexts: FxHashMap::default(),
            work_pool,
            pool: DESC_POOL,
            dirty: VecDeque::new(),
            pending: Vec::new(),
            pending_free: Vec::new(),
            desc_bufs: Vec::new(),
            engine,
            seqr,
            notify_drops: None,
        }
    }

    pub fn register(&mut self, ctx_id: u16, reg: CtxRegistration) {
        self.contexts.insert(ctx_id, reg);
    }

    fn exec(&mut self, ctx: &mut Ctx<'_>, cost: flextoe_nfp::Cost) -> Duration {
        let done = self.fpc.execute(ctx.now(), cost + self.cfg.trace_cost());
        done.saturating_since(ctx.now())
    }

    fn issue(&mut self, ctx: &mut Ctx<'_>, bytes: usize, dir: DmaDir, cont: Pending, d: Duration) {
        let token = match self.pending_free.pop() {
            Some(slot) => {
                self.pending[slot as usize] = Some(cont);
                u64::from(slot)
            }
            None => {
                self.pending.push(Some(cont));
                (self.pending.len() - 1) as u64
            }
        };
        if self.cfg.platform.hw_dma {
            ctx.send(self.engine, d, dma_req(bytes, dir, ctx.self_id(), token));
        } else {
            ctx.wake(d, flextoe_sim::XferDone { token });
        }
    }

    /// Start fetching descriptors for `ctx_id` if pool space allows.
    fn pump_fetch(&mut self, ctx: &mut Ctx<'_>, ctx_id: u16) {
        let Some(reg) = self.contexts.get(&ctx_id) else {
            return;
        };
        if self.pool == 0 {
            if !self.dirty.contains(&ctx_id) {
                self.dirty.push_back(ctx_id);
            }
            return;
        }
        let mut batch = self.desc_bufs.pop().unwrap_or_default();
        {
            let mut q = reg.queue.borrow_mut();
            let n = FETCH_BATCH.min(self.pool);
            q.to_nic.pop_batch_into(n, &mut batch);
        }
        if batch.is_empty() {
            self.desc_bufs.push(batch);
            return;
        }
        self.pool -= batch.len();
        let bytes = batch.len() * DESC_BYTES;
        let d = self.exec(ctx, costs::CTXQ_STAGE);
        self.issue(
            ctx,
            bytes,
            DmaDir::HostToNic,
            Pending::Fetch { descs: batch },
            d,
        );
        // more waiting? re-check after this batch completes
        let more = self
            .contexts
            .get(&ctx_id)
            .map(|r| !r.queue.borrow().to_nic.is_empty())
            .unwrap_or(false);
        if more && !self.dirty.contains(&ctx_id) {
            self.dirty.push_back(ctx_id);
        }
    }

    fn resume_dirty(&mut self, ctx: &mut Ctx<'_>) {
        if self.pool == 0 {
            return;
        }
        if let Some(ctx_id) = self.dirty.pop_front() {
            self.pump_fetch(ctx, ctx_id);
        }
    }

    fn conn_of(desc: &AppToNic) -> u32 {
        match *desc {
            AppToNic::TxAppend { conn, .. }
            | AppToNic::RxConsumed { conn, .. }
            | AppToNic::Close { conn }
            | AppToNic::Retransmit { conn } => conn,
        }
    }

    /// Descriptors arrived in NIC memory: enter the pipeline.
    fn complete_fetch(&mut self, ctx: &mut Ctx<'_>, mut descs: Vec<AppToNic>) {
        let d = self.exec(ctx, costs::CTXQ_STAGE);
        for desc in descs.drain(..) {
            let slot = self.work_pool.borrow_mut().alloc(Work::Hc(HcWork {
                conn: Self::conn_of(&desc),
                desc,
                group: 0,
                sendable_after: None,
                window_update: false,
                win_ack: None,
                ack_frame: None,
                nbi_seq: None,
                arrival: ctx.now(),
            }));
            ctx.send(
                self.seqr,
                d + self.cfg.hop_cross(),
                WorkToken {
                    slot,
                    entry_seq: None,
                },
            );
        }
        self.desc_bufs.push(descs);
    }

    /// A notification descriptor reached the host context queue.
    fn complete_notify(&mut self, ctx: &mut Ctx<'_>, ctx_id: u16, desc: NicToApp) {
        let Some(reg) = self.contexts.get(&ctx_id) else {
            return;
        };
        let was_empty = reg.queue.borrow().to_app.is_empty();
        let accepted = reg.queue.borrow_mut().to_app.push(desc).is_ok();
        if !accepted {
            ctx.stats
                .inc(self.notify_drops.expect("ctxq stage attached"));
            return;
        }
        // interrupt on empty->nonempty transition (MSI-X -> eventfd)
        if was_empty {
            if let Some(app) = reg.app {
                // driver interrupt handling + eventfd wake
                let irq_latency = self.cfg.platform.pcie.write_latency + Duration::from_us(2);
                ctx.send(app, irq_latency, AppNotify { ctx: ctx_id });
            }
        }
    }
}

impl Node for CtxqStage {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        match msg {
            Msg::Doorbell(db) => self.pump_fetch(ctx, db.ctx),
            Msg::FreeDesc => {
                self.pool = (self.pool + 1).min(DESC_POOL);
                self.resume_dirty(ctx);
            }
            Msg::XferDone(done) => {
                let cont = self
                    .pending
                    .get_mut(done.token as usize)
                    .and_then(Option::take);
                if cont.is_some() {
                    self.pending_free.push(done.token as u32);
                }
                match cont {
                    Some(Pending::Fetch { descs, .. }) => self.complete_fetch(ctx, descs),
                    Some(Pending::Notify { ctx: ctx_id, desc }) => {
                        self.complete_notify(ctx, ctx_id, desc)
                    }
                    None => {}
                }
            }
            Msg::Notify(job) => {
                // DMA the notification descriptor into the host queue
                let d = self.exec(ctx, costs::CTXQ_STAGE);
                self.issue(
                    ctx,
                    DESC_BYTES,
                    DmaDir::NicToHost,
                    Pending::Notify {
                        ctx: job.ctx,
                        desc: job.desc,
                    },
                    d,
                );
            }
            msg => {
                let reg = cast::<RegisterCtx>(msg);
                self.register(
                    reg.ctx,
                    CtxRegistration {
                        queue: reg.queue,
                        app: reg.app,
                    },
                );
            }
        }
    }

    fn on_attach(&mut self, stats: &mut Stats) {
        self.notify_drops = Some(stats.counter("ctxq.notify_drops"));
    }

    fn name(&self) -> String {
        "ctxq-stage".to_string()
    }
}
