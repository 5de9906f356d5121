//! The protocol stage — the pipeline's only hazard (§3.1).
//!
//! One node per flow group; it "executes data-path code that must
//! atomically modify protocol state" and "cannot execute in parallel with
//! other stages" *for the same connection*: the FPC's eight hardware
//! threads still interleave different connections, but items of one
//! connection serialize (modeled with a per-connection busy time).
//!
//! The connection-state cache hierarchy of §4.1 (local CAM → CLS →
//! EMEM-SRAM → EMEM-DRAM) charges the state-fetch cost — the mechanism
//! behind Fig. 13's connection-scalability curve.

use flextoe_nfp::{ConnStateCache, FpcTimer};
use flextoe_sim::{CounterHandle, Ctx, Msg, Node, NodeId, Stats, Time, WorkToken};

use crate::costs;
use crate::hostmem::AppToNic;
use crate::proto::{self, Reassembly};
use crate::segment::{SharedConnTable, SharedSegPool, SharedWorkPool, Work, WorkPool};
use crate::stages::SharedCfg;

pub struct ProtoStage {
    cfg: SharedCfg,
    pub group: usize,
    fpc: FpcTimer,
    cache: ConnStateCache,
    /// Per-connection atomic-section serialization, indexed by connection
    /// id (dense per NIC — a vector beats hashing on the hottest path).
    conn_busy: Vec<Time>,
    table: SharedConnTable,
    pool: SharedWorkPool,
    seg_pool: SharedSegPool,
    /// Monotone per-group NBI sequence (frames emitted in protocol order).
    next_nbi: u64,
    /// Routing: this group's post-processing stage.
    pub post: NodeId,
    counters: Option<ProtoCounters>,
}

#[derive(Clone, Copy)]
struct ProtoCounters {
    ooo: CounterHandle,
    fast_retx: CounterHandle,
    rto_retx: CounterHandle,
}

impl ProtoStage {
    pub fn new(
        cfg: SharedCfg,
        group: usize,
        table: SharedConnTable,
        pool: SharedWorkPool,
        seg_pool: SharedSegPool,
        post: NodeId,
    ) -> ProtoStage {
        ProtoStage {
            fpc: FpcTimer::new(cfg.platform.clock, cfg.threads_per_fpc),
            cache: ConnStateCache::with_defaults(&cfg.platform),
            cfg,
            group,
            conn_busy: Vec::new(),
            table,
            pool,
            seg_pool,
            next_nbi: 0,
            post,
            counters: None,
        }
    }

    pub fn state_cache(&self) -> &ConnStateCache {
        &self.cache
    }

    fn exec(
        &mut self,
        ctx: &mut Ctx<'_>,
        conn: u32,
        logic_cost: flextoe_nfp::Cost,
    ) -> flextoe_sim::Duration {
        let (fetch, _) = self.cache.access(conn);
        let busy = self
            .conn_busy
            .get(conn as usize)
            .copied()
            .unwrap_or(Time::ZERO);
        let arrival = ctx.now().max(busy);
        let done = self
            .fpc
            .execute(arrival, logic_cost + fetch + self.cfg.trace_cost());
        if self.conn_busy.len() <= conn as usize {
            self.conn_busy.resize(conn as usize + 1, Time::ZERO);
        }
        self.conn_busy[conn as usize] = done;
        done.saturating_since(ctx.now())
    }

    /// Retire an in-flight item that dies in this stage, recycling its
    /// buffers (the cold path; live items are mutated in place).
    fn retire(&mut self, ctx: &mut Ctx<'_>, pool: &mut WorkPool, slot: u32) {
        if let Work::Rx(w) = pool.retire(slot) {
            ctx.pool.put_for(&mut self.seg_pool.borrow_mut(), w.frame);
        }
    }
}

impl ProtoStage {
    /// One delivery against the borrowed work pool.
    fn deliver(&mut self, ctx: &mut Ctx<'_>, msg: Msg, pool: &mut WorkPool) {
        let Msg::Work(token) = msg else {
            panic!("proto-stage: unexpected message {}", msg.variant_name())
        };
        let slot = token.slot;
        // In-place processing: the item stays resident in the pool slab —
        // only the cold death paths move the 300-byte Work out.
        match pool.get_mut(slot) {
            Work::Rx(_) => self.rx(ctx, pool, slot),
            Work::Tx(_) => self.tx(ctx, pool, slot),
            Work::Hc(_) => self.hc(ctx, pool, slot),
        }
    }

    fn rx(&mut self, ctx: &mut Ctx<'_>, pool: &mut WorkPool, slot: u32) {
        let w = pool.rx_mut(slot);
        let logic = if w.summary.payload_len == 0 && !w.summary.flags.fin() {
            costs::PROTO_RX_ACK
        } else {
            costs::PROTO_RX
        };
        let conn = w.conn;
        let d = self.exec(ctx, conn, logic);
        let mut table = self.table.borrow_mut();
        let Some(entry) = table.get_mut(conn) else {
            drop(table);
            self.retire(ctx, pool, slot); // torn down while in flight
            return;
        };
        let out = proto::rx_segment(&mut entry.proto, &w.summary, &mut Reassembly::OneInterval);
        drop(table);
        let counters = self.counters.expect("proto stage attached to a sim");
        if out.out_of_order {
            ctx.stats.inc(counters.ooo);
        }
        if out.fast_retransmit {
            ctx.stats.inc(counters.fast_retx);
        }
        if out.send_ack {
            w.nbi_seq = Some(self.next_nbi);
            self.next_nbi += 1;
        }
        w.outcome = Some(out);
        ctx.send(
            self.post,
            d + self.cfg.hop_intra(),
            WorkToken {
                slot,
                entry_seq: None,
            },
        );
        // A fast retransmit re-opens sendable bytes immediately:
        // the post stage forwards the FS update from the outcome.
    }

    fn tx(&mut self, ctx: &mut Ctx<'_>, pool: &mut WorkPool, slot: u32) {
        let w = pool.tx_mut(slot);
        let conn = w.conn;
        let d = self.exec(ctx, conn, costs::PROTO_TX);
        let mut table = self.table.borrow_mut();
        let Some(entry) = table.get_mut(conn) else {
            drop(table);
            self.retire(ctx, pool, slot);
            return;
        };
        let seg = proto::tx_next(&mut entry.proto, self.cfg.mss);
        let sendable = entry.proto.sendable();
        drop(table);
        match seg {
            Some(seg) => {
                w.seg = Some(seg);
                w.sendable_after = Some(sendable);
                w.nbi_seq = Some(self.next_nbi);
                self.next_nbi += 1;
                ctx.send(
                    self.post,
                    d + self.cfg.hop_intra(),
                    WorkToken {
                        slot,
                        entry_seq: None,
                    },
                );
            }
            None => {
                // scheduler raced an ACK/window change; item dies
                self.retire(ctx, pool, slot);
            }
        }
    }

    fn hc(&mut self, ctx: &mut Ctx<'_>, pool: &mut WorkPool, slot: u32) {
        let w = pool.hc_mut(slot);
        let conn = w.conn;
        let d = self.exec(ctx, conn, costs::PROTO_HC);
        let mut table = self.table.borrow_mut();
        let Some(entry) = table.get_mut(conn) else {
            drop(table);
            self.retire(ctx, pool, slot);
            return;
        };
        match w.desc {
            AppToNic::TxAppend { len, .. } => {
                proto::hc_tx_append(&mut entry.proto, len);
            }
            AppToNic::RxConsumed { len, .. } => {
                w.window_update = proto::hc_rx_consumed(&mut entry.proto, len, self.cfg.mss);
                if w.window_update {
                    w.win_ack = Some(crate::proto::TxSeg {
                        seq: entry.proto.seq,
                        ack: entry.proto.ack,
                        buf_pos: 0,
                        len: 0,
                        fin: false,
                        window: proto::advertised_window(&entry.proto),
                        ts_echo: entry.proto.next_ts,
                    });
                }
            }
            AppToNic::Close { .. } => {
                proto::hc_close(&mut entry.proto);
            }
            AppToNic::Retransmit { .. } => {
                proto::go_back_n(&mut entry.proto);
                ctx.stats
                    .inc(self.counters.expect("proto stage attached").rto_retx);
            }
        }
        w.sendable_after = Some(entry.proto.sendable_with_fin());
        drop(table);
        if w.win_ack.is_some() {
            w.nbi_seq = Some(self.next_nbi);
            self.next_nbi += 1;
        }
        ctx.send(
            self.post,
            d + self.cfg.hop_intra(),
            WorkToken {
                slot,
                entry_seq: None,
            },
        );
    }
}

impl Node for ProtoStage {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let pool = std::rc::Rc::clone(&self.pool);
        self.deliver(ctx, msg, &mut pool.borrow_mut());
    }

    fn on_attach(&mut self, stats: &mut Stats) {
        self.counters = Some(ProtoCounters {
            ooo: stats.counter("proto.ooo"),
            fast_retx: stats.counter("proto.fast_retx"),
            rto_retx: stats.counter("proto.rto_retx"),
        });
    }

    fn name(&self) -> String {
        format!("proto-stage[{}]", self.group)
    }
}
