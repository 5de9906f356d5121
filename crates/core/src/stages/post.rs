//! The post-processing stage (§3.1.3).
//!
//! RX: **Ack** — prepare the acknowledgment segment; **ECN/Stamp** — ECN
//! feedback and timestamps for RTT estimation; **Stats** — congestion
//! statistics for the control plane and flow-scheduler updates; **Pos** —
//! host buffer placement for the DMA stage; allocate the context-queue
//! notification.
//!
//! Post-processor state is "read-only after connection establishment,
//! enabl\[ing\] coordination-free scaling" — the stage is replicated
//! per flow group.

use flextoe_ccp::{AckEvent, SharedCcp};
use flextoe_nfp::Cost;
use flextoe_sim::{CounterHandle, Ctx, FreeDesc, FsUpdate, Msg, Node, NodeId, Stats, WorkToken};
use flextoe_wire::{Ecn, SegmentSpec, TcpFlags, TcpOptions};

use crate::costs;
use crate::hostmem::NicToApp;
use crate::proto::TxSeg;
use crate::segment::{SharedConnTable, SharedSegPool, SharedWorkPool, Work, WorkPool};
use crate::stages::{FpcPool, SharedCfg};
use crate::transport;

pub struct PostStage {
    cfg: SharedCfg,
    pub group: usize,
    fpcs: FpcPool,
    table: SharedConnTable,
    pool: SharedWorkPool,
    seg_pool: SharedSegPool,
    /// Congestion-measurement layer (fold state + report batching, §D).
    ccp: SharedCcp,
    /// Routing.
    pub dma: NodeId,
    pub sched: NodeId,
    pub ctxq: NodeId,
    /// Control-plane node sealed report batches are sent to.
    pub ctrl: NodeId,
    ccp_events: Option<CounterHandle>,
}

impl PostStage {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        cfg: SharedCfg,
        group: usize,
        table: SharedConnTable,
        pool: SharedWorkPool,
        seg_pool: SharedSegPool,
        ccp: SharedCcp,
        dma: NodeId,
        sched: NodeId,
        ctxq: NodeId,
        ctrl: NodeId,
    ) -> PostStage {
        let fpcs = FpcPool::new(&cfg, cfg.post_replicas);
        PostStage {
            cfg,
            group,
            fpcs,
            table,
            pool,
            seg_pool,
            ccp,
            dma,
            sched,
            ctxq,
            ctrl,
            ccp_events: None,
        }
    }

    /// Build an ACK frame into `buf` by reversing the identity of a
    /// received segment and stamping ECN/timestamp feedback (Ack + ECN +
    /// Stamp).
    fn build_ack(
        buf: Vec<u8>,
        now_us: u32,
        view: &flextoe_wire::SegmentView,
        out: &crate::proto::RxOutcome,
        tsval_peer: u32,
    ) -> flextoe_wire::Frame {
        let mut flags = TcpFlags::ACK;
        if out.ecn_echo {
            flags = flags | TcpFlags::ECE;
        }
        let spec = SegmentSpec {
            src_mac: view.dst_mac,
            dst_mac: view.src_mac,
            src_ip: view.dst_ip,
            dst_ip: view.src_ip,
            src_port: view.dst_port,
            dst_port: view.src_port,
            seq: out.ack_seq,
            ack: out.ack_no,
            flags,
            window: out.ack_window,
            ecn: Ecn::NotEct,
            options: TcpOptions {
                timestamp: Some((now_us, tsval_peer)),
                ..Default::default()
            },
            payload_len: 0,
        };
        spec.emit_frame_into(buf, |_| {})
    }
}

impl PostStage {
    /// One delivery against the borrowed work pool.
    fn deliver(&mut self, ctx: &mut Ctx<'_>, msg: Msg, pool: &mut WorkPool) {
        let Msg::Work(token) = msg else {
            panic!("post-stage: unexpected message {}", msg.variant_name())
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
        let now_us = ctx.now().as_us() as u32;
        let w = pool.rx_mut(slot);
        let out = *w.outcome.as_ref().expect("post stage after protocol");
        let mut cost = costs::POST_RX;

        // ---- Stats: congestion counters + RTT estimate ----------
        let conn = w.conn;
        let mut table = self.table.borrow_mut();
        let Some(entry) = table.get_mut(conn) else {
            drop(table);
            let w = pool.rx_mut(slot);
            if w.nbi_seq.is_some() {
                // the connection vanished between the protocol stage
                // (which allocated an NBI slot for the ACK) and here:
                // forward the item to the DMA stage anyway so the slot
                // is released as an NBI skip — retiring it would stall
                // the flow group's egress reorderer forever
                if let Some(out) = w.outcome.as_mut() {
                    out.placement = None; // no payload movement for a dead conn
                }
                let d = self.fpcs.exec(ctx.now(), costs::POST_RX);
                ctx.send(
                    self.dma,
                    d + self.cfg.hop_cross(),
                    WorkToken {
                        slot,
                        entry_seq: None,
                    },
                );
            } else if let Work::Rx(w) = pool.retire(slot) {
                ctx.pool.put_for(&mut self.seg_pool.borrow_mut(), w.frame);
            }
            return;
        };
        let post = &mut entry.post;
        // free-running counters (the fold layer below snapshots
        // and resets its own window; these mirror the Table 5
        // fields and wrap like hardware counters)
        post.cnt_ackb = post.cnt_ackb.wrapping_add(out.acked_bytes);
        // the DCTCP numerator is *bytes acknowledged under an
        // ECE echo* — the receiver's Ack step reflected CE as
        // ECE (§3.1.3) and this ACK carried it back. CE-marked
        // payload received here is deliberately NOT counted: it
        // concerns the opposite direction's path and reaches
        // that sender through the ACK we generate.
        let ecn_bytes = if w.summary.flags.ece() {
            out.acked_bytes
        } else {
            0
        };
        post.cnt_ecnb = post.cnt_ecnb.wrapping_add(ecn_bytes);
        if out.fast_retransmit {
            post.cnt_fretx = post.cnt_fretx.wrapping_add(1);
        }
        if let Some(tsecr) = out.rtt_sample_ts {
            // our ACK stamps carry microseconds
            transport::rtt_sample(&mut post.rtt_est, now_us, tsecr);
        }
        let ctx_id = post.context;
        let rtt_est = post.rtt_est;
        drop(table);

        // ---- Fold: congestion measurement (flextoe-ccp, §D) ------
        // Aggregates this event into the flow's fold state; when
        // the flow's report interval elapses (or a fast retransmit
        // makes it urgent) the sealed batch travels out-of-band to
        // the control plane as one pooled message.
        let folded = self.ccp.borrow_mut().on_ack(
            conn,
            &AckEvent {
                acked_bytes: out.acked_bytes,
                ecn_bytes,
                rtt_us: rtt_est,
                fast_retx: out.fast_retransmit,
                now_us,
            },
        );
        if folded.folded {
            ctx.stats.inc(self.ccp_events.expect("post stage attached"));
            cost += if folded.vm_insns > 0 {
                Cost::new(
                    costs::ext::EBPF_PER_INSN.compute * folded.vm_insns,
                    costs::FOLD_NATIVE.mem,
                )
            } else {
                costs::FOLD_NATIVE
            };
        }
        // batch/report counters are bumped where batches are
        // consumed (ControlPlane::on_report_batch) so the
        // control-plane flush paths are counted too
        if let Some(token) = folded.sealed {
            ctx.send(self.ctrl, self.cfg.platform.pcie.write_latency, token);
        }

        // ---- FS update -------------------------------------------
        if out.update_scheduler {
            ctx.send(
                self.sched,
                self.cfg.hop_cross(),
                FsUpdate {
                    conn,
                    sendable: out.sendable,
                },
            );
        }

        // ---- Ack + ECN + Stamp -----------------------------------
        if out.send_ack {
            cost += costs::CHECKSUM;
            let buf = ctx.pool.take_for(&mut self.seg_pool.borrow_mut());
            let w = pool.rx_mut(slot);
            let frame = {
                let view = w.view.as_ref().expect("post stage after pre");
                Self::build_ack(buf, now_us, view, &out, w.summary.tsval)
            };
            w.ack_frame = Some(frame);
        }

        // ---- Notifications ---------------------------------------
        let w = pool.rx_mut(slot);
        w.notify_ctx = ctx_id;
        if out.delivered > 0 || out.fin_delivered {
            w.notify_rx = Some(NicToApp::RxAvail {
                conn,
                len: out.delivered,
                fin: out.fin_delivered,
            });
        }
        if out.acked_bytes > 0 {
            w.notify_tx = Some(NicToApp::TxFreed {
                conn,
                len: out.acked_bytes,
            });
        }

        // ---- Pos: hand off to the DMA stage -----------------------
        let d = self.fpcs.exec(ctx.now(), cost);
        ctx.send(
            self.dma,
            d + self.cfg.hop_cross(),
            WorkToken {
                slot,
                entry_seq: None,
            },
        );
    }

    fn tx(&mut self, ctx: &mut Ctx<'_>, pool: &mut WorkPool, slot: u32) {
        let w = pool.tx_mut(slot);
        debug_assert!(w.seg.is_some(), "post stage after protocol");
        debug_assert!(w.spec.is_some(), "post stage after pre");
        if let Some(sendable) = w.sendable_after {
            let conn = w.conn;
            ctx.send(
                self.sched,
                self.cfg.hop_cross(),
                FsUpdate { conn, sendable },
            );
        }
        let d = self.fpcs.exec(ctx.now(), costs::POST_TX);
        ctx.send(
            self.dma,
            d + self.cfg.hop_cross(),
            WorkToken {
                slot,
                entry_seq: None,
            },
        );
    }

    fn hc(&mut self, ctx: &mut Ctx<'_>, pool: &mut WorkPool, slot: u32) {
        let now_us = ctx.now().as_us() as u32;
        let w = pool.hc_mut(slot);
        // FS + Free (Figure 4)
        if let Some(sendable) = w.sendable_after {
            let conn = w.conn;
            ctx.send(
                self.sched,
                self.cfg.hop_cross(),
                FsUpdate { conn, sendable },
            );
        }
        let mut cost = costs::POST_HC;
        let w = pool.hc_mut(slot);
        // Window-update ACK (receive window re-opened).
        if let (Some(seg), Some(_)) = (w.win_ack.as_ref(), w.nbi_seq) {
            cost += costs::CHECKSUM;
            let conn = w.conn;
            let seg = *seg;
            let table = self.table.borrow();
            if let Some(entry) = table.get(conn) {
                let buf = ctx.pool.take_for(&mut self.seg_pool.borrow_mut());
                let frame = ack_from_identity(&table.nic, &entry.pre, &seg, now_us, buf);
                drop(table);
                pool.hc_mut(slot).ack_frame = Some(frame);
                let d = self.fpcs.exec(ctx.now(), cost);
                ctx.send(
                    self.dma,
                    d + self.cfg.hop_cross(),
                    WorkToken {
                        slot,
                        entry_seq: None,
                    },
                );
                ctx.send(self.ctxq, self.cfg.hop_cross(), FreeDesc);
                return;
            }
        }
        let d = self.fpcs.exec(ctx.now(), cost);
        if pool.hc_mut(slot).nbi_seq.is_some() {
            // the connection vanished between the protocol stage
            // (which allocated an NBI slot for the window-update
            // ACK) and here: forward the item to the DMA stage
            // anyway so the slot is released as an NBI skip
            ctx.send(
                self.dma,
                d + self.cfg.hop_cross(),
                WorkToken {
                    slot,
                    entry_seq: None,
                },
            );
        } else {
            pool.retire(slot);
        }
        // return the HC descriptor to the pool (Free)
        ctx.send(self.ctxq, d + self.cfg.hop_cross(), FreeDesc);
    }
}

impl Node for PostStage {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let pool = std::rc::Rc::clone(&self.pool);
        self.deliver(ctx, msg, &mut pool.borrow_mut());
    }

    fn on_attach(&mut self, stats: &mut Stats) {
        self.ccp_events = Some(stats.counter("ccp.events"));
    }

    fn name(&self) -> String {
        format!("post-stage[{}]", self.group)
    }
}

/// Build a bare ACK from connection identity (window updates).
fn ack_from_identity(
    nic: &crate::segment::NicConfig,
    pre: &crate::state::PreState,
    seg: &TxSeg,
    now_us: u32,
    buf: Vec<u8>,
) -> flextoe_wire::Frame {
    SegmentSpec {
        src_mac: nic.mac,
        dst_mac: pre.peer_mac,
        src_ip: nic.ip,
        dst_ip: pre.peer_ip,
        src_port: pre.local_port,
        dst_port: pre.remote_port,
        seq: seg.seq,
        ack: seg.ack,
        flags: TcpFlags::ACK,
        window: seg.window,
        ecn: Ecn::NotEct,
        options: TcpOptions {
            timestamp: Some((now_us, seg.ts_echo)),
            ..Default::default()
        },
        payload_len: 0,
    }
    .emit_frame_into(buf, |_| {})
}
