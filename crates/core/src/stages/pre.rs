//! The pre-processing stage (§3.1).
//!
//! RX (Figure 6): **Val** — validate the segment header and filter
//! non-data-path segments to the control plane; **Id** — resolve the
//! connection index via the active-connection database; **Sum** — build
//! the header summary; **Steer** — route to the flow-group's protocol
//! stage. XDP ingress modules run here, on the raw frame.
//!
//! TX (Figure 5): **Alloc** — allocate a segment in NIC memory; **Head** —
//! prepare Ethernet and IP headers from pre-processor connection state;
//! **Steer**.
//!
//! HC (Figure 4): **Steer** the fetched descriptor to its flow group.

use std::cell::RefCell;
use std::rc::Rc;

use flextoe_nfp::{ConnDb, LookupCache, MacTx};
use flextoe_sim::{CounterHandle, Ctx, Msg, Node, NodeId, Stats, WorkToken};
use flextoe_wire::{Ecn, Frame, SegmentSpec, SegmentView, TcpOptions};

use crate::costs;
use crate::module::{ModuleChain, ModuleVerdict};
use crate::proto::RxSummary;
use crate::segment::{SharedConnTable, SharedSegPool, SharedWorkPool, Work, WorkPool};
use crate::stages::{FpcPool, Redirect, SharedCfg};

pub struct PreStage {
    cfg: SharedCfg,
    fpcs: FpcPool,
    table: SharedConnTable,
    pool: SharedWorkPool,
    seg_pool: SharedSegPool,
    db: Rc<RefCell<ConnDb>>,
    lookup: LookupCache,
    /// XDP / extension modules at the RX-ingress hook (§3.3).
    pub ingress: ModuleChain,
    /// Routing.
    pub seqr: NodeId,
    pub ctrl: NodeId,
    pub mac: NodeId,
    /// Frames an ingress module dropped.
    pub dropped: u64,
    malformed_ctr: Option<CounterHandle>,
}

impl PreStage {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        cfg: SharedCfg,
        table: SharedConnTable,
        pool: SharedWorkPool,
        seg_pool: SharedSegPool,
        db: Rc<RefCell<ConnDb>>,
        seqr: NodeId,
        ctrl: NodeId,
        mac: NodeId,
    ) -> PreStage {
        let fpcs = FpcPool::new(&cfg, cfg.pre_replicas);
        let lookup = LookupCache::new(&cfg.platform);
        PreStage {
            cfg,
            fpcs,
            table,
            pool,
            seg_pool,
            db,
            lookup,
            ingress: ModuleChain::new(),
            seqr,
            ctrl,
            mac,
            dropped: 0,
            malformed_ctr: None,
        }
    }

    /// Tell the sequencer this entry left the pipeline early; the item is
    /// still in flight in the pool, so retire it here (recycling an RX
    /// frame buffer when one is attached).
    fn skip(
        &mut self,
        ctx: &mut Ctx<'_>,
        pool: &mut WorkPool,
        slot: u32,
        entry_seq: u64,
        delay: flextoe_sim::Duration,
    ) {
        if let Work::Rx(w) = pool.retire(slot) {
            // exit paths that forwarded the frame elsewhere left an empty
            // buffer behind (mem::take) — only real buffers recycle
            if !w.frame.is_empty() {
                ctx.pool.put_for(&mut self.seg_pool.borrow_mut(), w.frame);
            }
        }
        ctx.send(self.seqr, delay, Msg::Skip(entry_seq));
    }

    fn process_rx(&mut self, ctx: &mut Ctx<'_>, pool: &mut WorkPool, slot: u32, entry_seq: u64) {
        let mut cost = costs::PRE_RX;
        let w = pool.rx_mut(slot);

        // --- XDP / extension ingress modules (raw frame) ---
        if !self.ingress.is_empty() {
            let (verdict, mcost) = self.ingress.run(ctx.now(), &mut w.frame);
            cost += mcost;
            match verdict {
                ModuleVerdict::Pass => {}
                ModuleVerdict::Drop => {
                    self.dropped += 1;
                    let d = self.fpcs.exec(ctx.now(), cost);
                    self.skip(ctx, pool, slot, entry_seq, d);
                    return;
                }
                ModuleVerdict::Tx => {
                    // send out the MAC, bypassing the TCP data-path
                    // the harness re-checksums spliced frames
                    fixup_checksums(&mut w.frame);
                    let frame = std::mem::take(&mut w.frame);
                    let d = self.fpcs.exec(ctx.now(), cost + costs::CHECKSUM);
                    ctx.send(self.mac, d, MacTx(Frame::raw(frame)));
                    self.skip(ctx, pool, slot, entry_seq, d);
                    return;
                }
                ModuleVerdict::Redirect => {
                    let frame = std::mem::take(&mut w.frame);
                    let d = self.fpcs.exec(ctx.now(), cost);
                    let pcie = self.cfg.platform.pcie.write_latency;
                    ctx.send(self.ctrl, d + pcie, Redirect(Frame::raw(frame)));
                    self.skip(ctx, pool, slot, entry_seq, d);
                    return;
                }
            }
        }

        // --- Val ---
        // Every in-sim emitter fills its checksums, so only bytes changed
        // since emission can fail them: a link corrupted the frame, or an
        // ingress module may have rewritten it.
        let verify = w.corrupted || !self.ingress.is_empty();
        let view = match SegmentView::parse(&w.frame, verify) {
            Ok(v) => v,
            Err(_) => {
                ctx.stats
                    .inc(self.malformed_ctr.expect("pre stage attached"));
                let d = self.fpcs.exec(ctx.now(), cost);
                self.skip(ctx, pool, slot, entry_seq, d);
                return;
            }
        };
        // Non-data-path segments (SYN/RST/…) go to the control plane.
        if !view.flags.is_datapath() {
            let frame = std::mem::take(&mut w.frame);
            let d = self.fpcs.exec(ctx.now(), cost);
            let pcie = self.cfg.platform.pcie.write_latency;
            ctx.send(self.ctrl, d + pcie, Redirect(Frame::raw(frame)));
            self.skip(ctx, pool, slot, entry_seq, d);
            return;
        }

        // --- Id (active-connection database lookup, §4.1) ---
        let tuple = view.four_tuple();
        let (conn, lcost) = self.lookup.resolve(&tuple, &mut self.db.borrow_mut());
        cost += lcost;
        let Some(conn) = conn else {
            // segment for an unknown connection -> control plane
            let frame = std::mem::take(&mut w.frame);
            let d = self.fpcs.exec(ctx.now(), cost);
            let pcie = self.cfg.platform.pcie.write_latency;
            ctx.send(self.ctrl, d + pcie, Redirect(Frame::raw(frame)));
            self.skip(ctx, pool, slot, entry_seq, d);
            return;
        };

        // --- Sum ---
        w.summary = RxSummary::from(&view);
        w.conn = conn;
        w.group = self
            .table
            .borrow()
            .get(conn)
            .map(|e| e.pre.flow_group as usize)
            .unwrap_or(0)
            % self.cfg.n_groups;
        w.view = Some(view);

        // --- Steer: back to the sequencer for in-order protocol admission
        let d = self.fpcs.exec(ctx.now(), cost);
        ctx.send(
            self.seqr,
            d,
            WorkToken {
                slot,
                entry_seq: Some(entry_seq),
            },
        );
    }

    fn process_tx(&mut self, ctx: &mut Ctx<'_>, pool: &mut WorkPool, slot: u32, entry_seq: u64) {
        let w = pool.tx_mut(slot);
        // --- Alloc + Head: Ethernet/IP identity from pre-processor state
        let table = self.table.borrow();
        let Some(entry) = table.get(w.conn) else {
            drop(table);
            let d = self.fpcs.exec(ctx.now(), costs::PRE_TX);
            self.skip(ctx, pool, slot, entry_seq, d);
            return;
        };
        let nic = table.nic;
        w.spec = Some(SegmentSpec {
            src_mac: nic.mac,
            dst_mac: entry.pre.peer_mac,
            src_ip: nic.ip,
            dst_ip: entry.pre.peer_ip,
            src_port: entry.pre.local_port,
            dst_port: entry.pre.remote_port,
            // DCTCP: data segments are ECT-marked (§3.1.3, [1])
            ecn: Ecn::Ect0,
            options: TcpOptions::default(),
            ..Default::default()
        });
        w.group = entry.pre.flow_group as usize % self.cfg.n_groups;
        drop(table);
        let d = self.fpcs.exec(ctx.now(), costs::PRE_TX);
        ctx.send(
            self.seqr,
            d,
            WorkToken {
                slot,
                entry_seq: Some(entry_seq),
            },
        );
    }

    fn process_hc(&mut self, ctx: &mut Ctx<'_>, pool: &mut WorkPool, slot: u32, entry_seq: u64) {
        let w = pool.hc_mut(slot);
        w.group = self
            .table
            .borrow()
            .get(w.conn)
            .map(|e| e.pre.flow_group as usize)
            .unwrap_or(0)
            % self.cfg.n_groups;
        let d = self.fpcs.exec(ctx.now(), costs::PRE_HC);
        ctx.send(
            self.seqr,
            d,
            WorkToken {
                slot,
                entry_seq: Some(entry_seq),
            },
        );
    }
}

/// Recompute IP + TCP checksums after a module rewrote headers.
pub fn fixup_checksums(frame: &mut [u8]) {
    use flextoe_wire::{Ipv4Packet, TcpPacket, ETH_HDR_LEN, IPV4_HDR_LEN};
    if frame.len() < ETH_HDR_LEN + IPV4_HDR_LEN {
        return;
    }
    let (src, dst, total) = {
        let Ok(ip) = Ipv4Packet::new_checked(&frame[ETH_HDR_LEN..]) else {
            return;
        };
        (ip.src(), ip.dst(), ip.total_len() as usize)
    };
    {
        let mut ip = Ipv4Packet(&mut frame[ETH_HDR_LEN..]);
        ip.fill_checksum();
    }
    let tcp_range = ETH_HDR_LEN + IPV4_HDR_LEN..ETH_HDR_LEN + total;
    if frame.len() >= tcp_range.end {
        if let Ok(mut tcp) = TcpPacket::new_checked(&mut frame[tcp_range]) {
            tcp.fill_checksum(src, dst);
        }
    }
}

impl PreStage {
    /// One delivery against the borrowed work pool.
    fn deliver(&mut self, ctx: &mut Ctx<'_>, msg: Msg, pool: &mut WorkPool) {
        let Msg::Work(token) = msg else {
            panic!("pre-stage: unexpected message {}", msg.variant_name())
        };
        let entry_seq = token.entry_seq.expect("pre-stage items carry an entry seq");
        // In-place processing: the item stays resident in the pool slab —
        // only the cold exit paths move the 300-byte Work out.
        match pool.get_mut(token.slot) {
            Work::Rx(_) => self.process_rx(ctx, pool, token.slot, entry_seq),
            Work::Tx(_) => self.process_tx(ctx, pool, token.slot, entry_seq),
            Work::Hc(_) => self.process_hc(ctx, pool, token.slot, entry_seq),
        }
    }
}

impl Node for PreStage {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let pool = std::rc::Rc::clone(&self.pool);
        self.deliver(ctx, msg, &mut pool.borrow_mut());
    }

    fn on_attach(&mut self, stats: &mut Stats) {
        self.malformed_ctr = Some(stats.counter("pre.malformed"));
    }

    fn name(&self) -> String {
        "pre-stage".to_string()
    }
}
