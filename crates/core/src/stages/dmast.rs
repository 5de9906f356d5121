//! The DMA stage (§3.1).
//!
//! Stateless: enqueues payload transactions to the PCIe block and, once a
//! transfer completes, moves the bytes and releases downstream effects in
//! the mandated order — "this ordering is necessary to prevent the host
//! and the peer from receiving notifications before the data transfer to
//! the host socket receive buffer is complete" (§3.1.3).
//!
//! The in-flight work item stays in the NIC work pool while its DMA is
//! outstanding; the pool slot index doubles as the transfer continuation
//! token, so the round trip through the DMA engine is allocation-free.
//!
//! On the x86/BlueField ports there is no DMA engine: payload is copied
//! through shared memory on the stage's own core (§E).

use flextoe_nfp::{dma_req, Cost, DmaDir};
use flextoe_sim::{Ctx, Msg, NbiFrame, Node, NodeId, XferDone};
use flextoe_wire::{Frame, TcpOptions};

use crate::costs;
use crate::segment::{
    RxWork, SharedConnTable, SharedSegPool, SharedWorkPool, TxWork, Work, WorkPool,
};
use crate::stages::{FpcPool, NotifyJob, SharedCfg};

pub struct DmaStage {
    cfg: SharedCfg,
    fpcs: FpcPool,
    table: SharedConnTable,
    pool: SharedWorkPool,
    seg_pool: SharedSegPool,
    /// Routing.
    pub engine: NodeId,
    pub seqr: NodeId,
    pub ctxq: NodeId,
}

impl DmaStage {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        cfg: SharedCfg,
        table: SharedConnTable,
        pool: SharedWorkPool,
        seg_pool: SharedSegPool,
        engine: NodeId,
        seqr: NodeId,
        ctxq: NodeId,
    ) -> DmaStage {
        // "DMA managers are replicated to hide PCIe latencies" (§4.1).
        let fpcs = FpcPool::new(&cfg, 2);
        DmaStage {
            cfg,
            fpcs,
            table,
            pool,
            seg_pool,
            engine,
            seqr,
            ctxq,
        }
    }

    /// Software-copy latency on ports without a DMA engine (§E).
    fn sw_copy_cost(&self, bytes: usize) -> Cost {
        Cost::new(
            bytes as u64 / self.cfg.platform.copy_bytes_per_cycle.max(1) + 20,
            0,
        )
    }

    /// Issue the payload transaction for the work in `slot` (which stays
    /// in the pool as the in-flight continuation).
    fn issue(&mut self, ctx: &mut Ctx<'_>, slot: u32, bytes: usize, dir: DmaDir) {
        if self.cfg.platform.hw_dma {
            let d = self.fpcs.exec(ctx.now(), costs::DMA_STAGE);
            ctx.send(
                self.engine,
                d,
                dma_req(bytes, dir, ctx.self_id(), slot as u64),
            );
        } else {
            // software copy: the stage core does the move itself
            let d = self
                .fpcs
                .exec(ctx.now(), costs::DMA_STAGE + self.sw_copy_cost(bytes));
            ctx.wake(d, XferDone { token: slot as u64 });
        }
    }

    /// The RX payload (if any) reached host memory: move the bytes,
    /// recycle the frame buffer and release ACK + notifications.
    fn complete_rx(&mut self, ctx: &mut Ctx<'_>, w: RxWork, group: usize) {
        let RxWork {
            frame,
            conn,
            outcome,
            ack_frame,
            nbi_seq,
            notify_ctx,
            notify_rx,
            notify_tx,
            ..
        } = w;
        if let Some(placement) = outcome.and_then(|o| o.placement) {
            let table = self.table.borrow();
            if let Some(entry) = table.get(conn) {
                let base = placement.frame_off as usize + payload_base(&frame);
                let src = &frame[base..base + placement.len as usize];
                entry.rx_buf.borrow_mut().write(placement.buf_pos, src);
            }
        }
        ctx.pool.put_for(&mut self.seg_pool.borrow_mut(), frame);

        let d = self.fpcs.exec(ctx.now(), costs::DMA_STAGE);
        if let Some(nbi_seq) = nbi_seq {
            // ack_frame None = the connection vanished before post could
            // build the ACK; an empty frame still releases the allocated
            // NBI slot (seqr skips it) so the egress lane never stalls
            ctx.send(
                self.seqr,
                d,
                NbiFrame {
                    group: group as u32,
                    nbi_seq,
                    frame: ack_frame.unwrap_or_default(),
                },
            );
        }
        for desc in [notify_rx, notify_tx].into_iter().flatten() {
            ctx.send(
                self.ctxq,
                d,
                NotifyJob {
                    ctx: notify_ctx,
                    desc,
                },
            );
        }
    }

    /// The TX payload arrived in NIC memory: finalize and emit the frame.
    fn complete_tx(&mut self, ctx: &mut Ctx<'_>, w: TxWork) {
        let seg = w.seg.expect("dma stage after protocol");
        let nbi_seq = w.nbi_seq.expect("proto assigned nbi for tx");
        let mut spec = w.spec.expect("dma stage after pre");
        let now_us = ctx.now().as_us() as u32;
        let table = self.table.borrow();
        let Some(entry) = table.get(w.conn) else {
            // connection torn down mid-flight: the protocol stage already
            // allocated this frame's NBI slot, so release it with an empty
            // skip frame or the flow group's egress reorderer stalls
            drop(table);
            let d = self.fpcs.exec(ctx.now(), costs::DMA_STAGE);
            ctx.send(
                self.seqr,
                d,
                NbiFrame {
                    group: w.group as u32,
                    nbi_seq,
                    frame: Frame::raw(Vec::new()),
                },
            );
            return;
        };
        // finalize the frame: protocol fields + timestamps + payload
        spec.seq = seg.seq;
        spec.ack = seg.ack;
        spec.window = seg.window;
        spec.flags = flextoe_wire::TcpFlags::ACK
            | flextoe_wire::TcpFlags::PSH
            | if seg.fin {
                flextoe_wire::TcpFlags::FIN
            } else {
                flextoe_wire::TcpFlags(0)
            };
        spec.options = TcpOptions {
            timestamp: Some((now_us, seg.ts_echo)),
            ..Default::default()
        };
        spec.payload_len = seg.len as usize;
        let buf = ctx.pool.take_for(&mut self.seg_pool.borrow_mut());
        let tx_buf = entry.tx_buf.borrow();
        let frame = spec.emit_frame_into(buf, |payload| tx_buf.read(seg.buf_pos, payload));
        drop(tx_buf);
        drop(table);
        let d = self.fpcs.exec(ctx.now(), costs::CHECKSUM);
        ctx.send(
            self.seqr,
            d,
            NbiFrame {
                group: w.group as u32,
                nbi_seq,
                frame,
            },
        );
    }
}

/// Byte offset of the TCP payload in one of our frames.
fn payload_base(frame: &[u8]) -> usize {
    use flextoe_wire::{TcpPacket, ETH_HDR_LEN, IPV4_HDR_LEN};
    let tcp_off = ETH_HDR_LEN + IPV4_HDR_LEN;
    TcpPacket::new_checked(&frame[tcp_off..])
        .map(|t| tcp_off + t.data_offset())
        .unwrap_or(tcp_off + 20)
}

impl DmaStage {
    /// One delivery against the borrowed work pool.
    fn deliver(&mut self, ctx: &mut Ctx<'_>, msg: Msg, pool: &mut WorkPool) {
        match msg {
            // a work item arriving from post-processing
            Msg::Work(token) => {
                let slot = token.slot;
                enum Plan {
                    Issue(usize, DmaDir),
                    /// Bare FIN / window probe: nothing to fetch, but the
                    /// emit still waits one stage cycle for symmetry.
                    TxZeroLen,
                    /// No payload movement: finish immediately.
                    Finish,
                }
                let plan = match pool.get(slot) {
                    Work::Rx(w) => match w.outcome.as_ref().and_then(|o| o.placement) {
                        // the placement length was trimmed by the protocol
                        // stage to fit the receive window
                        Some(p) => Plan::Issue(p.len as usize, DmaDir::NicToHost),
                        None => Plan::Finish,
                    },
                    Work::Tx(w) => {
                        let len = w.seg.as_ref().expect("dma stage after protocol").len;
                        if len == 0 {
                            Plan::TxZeroLen
                        } else {
                            Plan::Issue(len as usize, DmaDir::HostToNic)
                        }
                    }
                    // window-update ACK: no payload movement at all
                    Work::Hc(_) => Plan::Finish,
                };
                match plan {
                    Plan::Issue(bytes, dir) => self.issue(ctx, slot, bytes, dir),
                    Plan::TxZeroLen => {
                        let d = self.fpcs.exec(ctx.now(), costs::DMA_STAGE);
                        ctx.wake(d, XferDone { token: slot as u64 });
                    }
                    Plan::Finish => {
                        let work = pool.retire(slot);
                        match work {
                            Work::Rx(w) => {
                                let group = w.group;
                                self.complete_rx(ctx, w, group);
                            }
                            Work::Hc(w) => {
                                // ack_frame None = the connection vanished
                                // before post could build the window-update
                                // ACK; an empty frame still releases the
                                // allocated NBI slot (seqr skips it)
                                let d = self.fpcs.exec(ctx.now(), costs::DMA_STAGE);
                                ctx.send(
                                    self.seqr,
                                    d,
                                    NbiFrame {
                                        group: w.group as u32,
                                        nbi_seq: w.nbi_seq.expect("proto assigned nbi"),
                                        frame: w.ack_frame.unwrap_or_default(),
                                    },
                                );
                            }
                            Work::Tx(_) => unreachable!("handled by TxZeroLen/Issue"),
                        }
                    }
                }
            }
            // a payload transaction completed
            Msg::XferDone(done) => {
                let slot = done.token as u32;
                let work = pool.retire(slot);
                match work {
                    Work::Rx(w) => {
                        let group = w.group;
                        self.complete_rx(ctx, w, group);
                    }
                    Work::Tx(w) => self.complete_tx(ctx, w),
                    Work::Hc(_) => unreachable!("HC items never enter the DMA engine"),
                }
            }
            m => panic!("dma-stage: unexpected message {}", m.variant_name()),
        }
    }
}

impl Node for DmaStage {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let pool = std::rc::Rc::clone(&self.pool);
        self.deliver(ctx, msg, &mut pool.borrow_mut());
    }

    fn name(&self) -> String {
        "dma-stage".to_string()
    }
}
