//! # flextoe-control — the FlexTOE control plane (§D, Figure 2)
//!
//! "Connection management, retransmission, and congestion control are part
//! of a separate control-plane, which executes in its own protection
//! domain, either on control cores of the SmartNIC or on the host."
//!
//! This crate implements that control plane as a simulation node:
//!
//! * **Connection control**: the TCP handshake state machine for passive
//!   (listen/accept) and active (connect) opens, port and buffer
//!   allocation, data-path state install/teardown (§D "Connection
//!   control"). Non-data-path segments reach it via the pre-processing
//!   stage's redirect path.
//! * **Congestion control**: an event-driven runtime (`flextoe-ccp`, the
//!   CCP architecture): the data-path folds per-ACK measurements in-line
//!   and sends batched reports out-of-band; per-flow algorithm instances
//!   (DCTCP, TIMELY, CUBIC, Reno — selected by name from [`CtrlConfig`])
//!   consume them and program pacing intervals into the NIC flow
//!   scheduler via MMIO (§3.4).
//! * **Retransmission timeouts**: the shared
//!   [`flextoe_core::transport::RtoTracker`], driven from the control
//!   iteration, injecting HC retransmit descriptors (§3.1.1).
//!
//! ARP is statically configured (`add_peer`) — the testbed's address
//! resolution, not an experiment subject.

use flextoe_ccp::{
    rate_to_interval, Algorithm, FlowReport, FlowStats, FoldSpec, Insn, Registry, Urgent,
};
use flextoe_core::handshake::{Handshake, Refusal, SynTimeout, Verdict};
use flextoe_core::hostmem::{shared_buf, AppToNic, SharedBuf, SharedCtxQueue};
use flextoe_core::segment::ConnEntry;
use flextoe_core::stages::{Doorbell, NotifyJob, Redirect, RegisterCtx, SchedCtl};
use flextoe_core::transport::{RtoTracker, RtoVerdict};
use flextoe_core::{NicHandle, PostState, PreState, ProtoState, TransportPolicy};
use flextoe_nfp::MacTx;
use flextoe_sim::{
    try_cast, CounterHandle, Ctx, Duration, FxHashMap, Msg, Node, NodeId, ReportBatchToken, Stats,
    Tick,
};
use flextoe_wire::{
    FourTuple, Frame, Ip4, MacAddr, SegmentSpec, SegmentView, SeqNum, TcpFlags, TcpOptions,
};

/// The control plane's own context-queue id (for HC injections).
pub const CTRL_CTX: u16 = u16::MAX;

/// Control-loop iteration interval (RTO monitoring, teardown detection,
/// stale-report flushing).
const CONTROL_INTERVAL: Duration = Duration::from_us(50);

/// Which congestion-control policy the control plane runs. Resolution
/// goes through the `flextoe-ccp` algorithm registry by [`CcAlgo::name`];
/// custom registrations use [`ControlPlane::register_algorithm`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CcAlgo {
    Dctcp,
    Timely,
    Cubic,
    Reno,
    /// Congestion control disabled — the Table 4 "off" rows.
    None,
}

impl CcAlgo {
    /// The registry key this policy resolves to.
    pub fn name(self) -> &'static str {
        match self {
            CcAlgo::Dctcp => "dctcp",
            CcAlgo::Timely => "timely",
            CcAlgo::Cubic => "cubic",
            CcAlgo::Reno => "reno",
            CcAlgo::None => "none",
        }
    }

    /// Parse a registry key (experiment CLI / config files).
    pub fn by_name(name: &str) -> Option<CcAlgo> {
        match name {
            "dctcp" => Some(CcAlgo::Dctcp),
            "timely" => Some(CcAlgo::Timely),
            "cubic" => Some(CcAlgo::Cubic),
            "reno" => Some(CcAlgo::Reno),
            "none" => Some(CcAlgo::None),
            _ => None,
        }
    }

    /// All selectable algorithms (the `cc` experiment sweep).
    pub fn all() -> [CcAlgo; 4] {
        [CcAlgo::Dctcp, CcAlgo::Timely, CcAlgo::Cubic, CcAlgo::Reno]
    }
}

#[derive(Clone, Debug)]
pub struct CtrlConfig {
    pub cc: CcAlgo,
    /// Datapath fold installed for new flows: the built-in native fold,
    /// or a custom program compiled to eBPF.
    pub fold: FoldSpec,
    /// RTO floor and give-up budget, the SYN retry base and the SYN
    /// admission cap. SYN retries here add ±25% jitter drawn from the
    /// simulation's seeded generator — deterministic per seed, but
    /// reconnection storms don't phase-lock; after
    /// [`flextoe_core::transport::SYN_ATTEMPTS`] transmissions the
    /// connect fails with [`AppReply::ConnectFailed`]. An abort sends an
    /// RST, tears down, and hands the app a typed `NicToApp::Aborted`.
    /// Admission refusals count in `ctrl.admission_refused`.
    pub transport: TransportPolicy,
}

impl Default for CtrlConfig {
    fn default() -> Self {
        CtrlConfig {
            cc: CcAlgo::Dctcp,
            fold: FoldSpec::Builtin,
            transport: TransportPolicy::default(),
        }
    }
}

// ---- application interface (used by libTOE) ------------------------------

pub enum AppRequest {
    /// Listen on `port`; incoming connections are auto-accepted and
    /// announced with [`AppReply::Accepted`].
    Listen {
        port: u16,
        ctx: u16,
        queue: SharedCtxQueue,
        reply_to: NodeId,
    },
    Connect {
        remote_ip: Ip4,
        remote_port: u16,
        ctx: u16,
        queue: SharedCtxQueue,
        reply_to: NodeId,
        /// Application cookie echoed in the reply.
        opaque: u64,
    },
    /// Fully tear down a closed connection's data-path state.
    Teardown { conn: u32 },
}

pub enum AppReply {
    Accepted {
        conn: u32,
        port: u16,
        peer: (Ip4, u16),
        rx_buf: SharedBuf,
        tx_buf: SharedBuf,
    },
    Connected {
        conn: u32,
        opaque: u64,
        rx_buf: SharedBuf,
        tx_buf: SharedBuf,
    },
    ConnectFailed {
        opaque: u64,
    },
}

flextoe_sim::custom_msg!(AppRequest, AppReply);

/// Where a connection's events go: the application's context queue and
/// the node that hears the control plane's replies.
#[derive(Clone)]
struct AppCtx {
    ctx: u16,
    queue: SharedCtxQueue,
    reply_to: NodeId,
}

struct SynRetry {
    key: FourTuple,
}
flextoe_sim::custom_msg!(SynRetry);

/// Work lists of one [`ControlPlane::control_iteration`], kept between
/// ticks for their storage.
#[derive(Default)]
struct ScanScratch {
    conns: Vec<u32>,
    to_teardown: Vec<u32>,
    to_abort: Vec<u32>,
}

pub struct ControlPlane {
    counters: Option<CtrlCounters>,
    cfg: CtrlConfig,
    nic: NicHandle,
    arp: FxHashMap<Ip4, MacAddr>,
    /// Listeners and pending opens; an active open carries its app
    /// cookie.
    hs: Handshake<AppCtx, (AppCtx, u64)>,
    next_port: u16,
    cc: Vec<Option<Box<dyn Algorithm>>>,
    registry: Registry,
    /// `cfg.fold` compiled once for every flow install.
    compiled_fold: Option<(std::rc::Rc<Vec<Insn>>, [u32; flextoe_ccp::fold::N_STATE])>,
    rto: RtoTracker,
    scan: ScanScratch,
    kernel_q: SharedCtxQueue,
    registered_kernel_q: bool,
    cc_armed: bool,
    pub established: u64,
}

impl ControlPlane {
    pub fn new(cfg: CtrlConfig, nic: NicHandle) -> ControlPlane {
        let compiled_fold = cfg.fold.compile_for_install();
        let rto = RtoTracker::new(cfg.transport);
        let hs = Handshake::new(cfg.transport.max_conns);
        ControlPlane {
            counters: None,
            cfg,
            nic,
            arp: FxHashMap::default(),
            hs,
            next_port: 40_000,
            cc: Vec::new(),
            registry: Registry::builtin(),
            compiled_fold,
            rto,
            scan: ScanScratch::default(),
            kernel_q: flextoe_core::hostmem::shared_ctxq(1024),
            registered_kernel_q: false,
            cc_armed: false,
            established: 0,
        }
    }

    /// Register a custom congestion-control algorithm; select it by
    /// constructing a config whose [`CcAlgo::name`] matches, or use the
    /// registry name directly via [`CcAlgo::by_name`].
    pub fn register_algorithm(
        &mut self,
        name: &str,
        factory: impl Fn(u64) -> Box<dyn Algorithm> + 'static,
    ) {
        self.registry.add(name, factory);
    }

    /// Static ARP entry (testbed configuration).
    pub fn add_peer(&mut self, ip: Ip4, mac: MacAddr) {
        self.arp.insert(ip, mac);
    }

    fn local_ip(&self) -> Ip4 {
        self.nic.table.borrow().nic.ip
    }
    fn local_mac(&self) -> MacAddr {
        self.nic.table.borrow().nic.mac
    }

    /// Host → NIC frame injection latency (driver + MMIO + DMA).
    fn inject_latency(&self) -> Duration {
        self.nic.cfg.platform.pcie.write_latency + Duration::from_ns(600)
    }

    fn mmio(&self, ctx: &mut Ctx<'_>, msg: SchedCtl) {
        ctx.send(self.nic.sched, self.nic.cfg.platform.pcie.mmio_latency, msg);
    }

    /// Inject one control segment of the connection whose receive-side
    /// tuple is `rx`. SYN and SYN-ACK carry the MSS option.
    fn send_segment(
        &self,
        ctx: &mut Ctx<'_>,
        dst_mac: MacAddr,
        rx: FourTuple,
        seq: SeqNum,
        ack: SeqNum,
        flags: TcpFlags,
    ) {
        let spec = SegmentSpec {
            src_mac: self.local_mac(),
            dst_mac,
            src_ip: self.local_ip(),
            dst_ip: rx.src_ip,
            src_port: rx.dst_port,
            dst_port: rx.src_port,
            seq,
            ack,
            flags,
            window: u16::MAX,
            options: TcpOptions {
                mss: flags.syn().then_some(self.nic.cfg.mss as u16),
                ..Default::default()
            },
            ..Default::default()
        };
        let mut frame = ctx.pool.take();
        spec.emit_zeroed_into(&mut frame);
        ctx.send(
            self.nic.mac,
            self.inject_latency(),
            MacTx(Frame::raw(frame)),
        );
    }

    fn ensure_kernel_q(&mut self, ctx: &mut Ctx<'_>) {
        if !self.registered_kernel_q {
            self.registered_kernel_q = true;
            ctx.send(
                self.nic.ctxq,
                self.nic.cfg.platform.pcie.mmio_latency,
                RegisterCtx {
                    ctx: CTRL_CTX,
                    queue: self.kernel_q.clone(),
                    app: None,
                },
            );
        }
    }

    fn arm_cc(&mut self, ctx: &mut Ctx<'_>) {
        if !self.cc_armed {
            self.cc_armed = true;
            ctx.wake(CONTROL_INTERVAL, Tick);
        }
    }

    /// The policy's SYN timeout after attempt `attempts`, with ±25%
    /// jitter from the seeded generator. Deterministic per seed; the
    /// jitter keeps a reconnection storm's retries from phase-locking.
    fn syn_backoff(&self, ctx: &mut Ctx<'_>, attempts: u32) -> Duration {
        let d = self.cfg.transport.syn_timeout(attempts).as_ns().max(1);
        Duration::from_ns(ctx.rng.range(d - d / 4, d + d / 4))
    }

    // ---- handshake ---------------------------------------------------------

    /// Send the first SYN of an active open. The ISS is drawn from the
    /// seeded generator (a real stack uses a clock + hash; determinism
    /// matters more here).
    fn start_connect(
        &mut self,
        ctx: &mut Ctx<'_>,
        remote_ip: Ip4,
        remote_port: u16,
        app: AppCtx,
        opaque: u64,
    ) {
        let Some(&dst_mac) = self.arp.get(&remote_ip) else {
            ctx.send(
                app.reply_to,
                Duration::ZERO,
                AppReply::ConnectFailed { opaque },
            );
            return;
        };
        let local_port = self.next_port;
        self.next_port = self.next_port.wrapping_add(1).max(40_000);
        let iss = ctx.rng.next_u32();
        // key: the SYN-ACK we expect (src = peer)
        let key = FourTuple::new(remote_ip, remote_port, self.local_ip(), local_port);
        self.send_segment(ctx, dst_mac, key, SeqNum(iss), SeqNum(0), TcpFlags::SYN);
        self.hs.connect(key, iss, (app, opaque));
        let delay = self.syn_backoff(ctx, 1);
        ctx.wake(delay, SynRetry { key });
    }

    fn retry_syn(&mut self, ctx: &mut Ctx<'_>, key: FourTuple) {
        let (iss, attempts) = match self.hs.syn_timeout(&key) {
            None => return, // established or failed meanwhile
            Some(SynTimeout::GiveUp((app, opaque))) => {
                ctx.send(
                    app.reply_to,
                    Duration::ZERO,
                    AppReply::ConnectFailed { opaque },
                );
                return;
            }
            Some(SynTimeout::Resend { iss, attempts, .. }) => (iss, attempts),
        };
        let Some(&dst_mac) = self.arp.get(&key.src_ip) else {
            return;
        };
        self.send_segment(ctx, dst_mac, key, SeqNum(iss), SeqNum(0), TcpFlags::SYN);
        let delay = self.syn_backoff(ctx, attempts);
        ctx.wake(delay, SynRetry { key });
    }

    /// Install an established connection, whose segments arrive on `rx`,
    /// into the data path (§D).
    fn install(
        &mut self,
        ctx: &mut Ctx<'_>,
        rx: FourTuple,
        iss: u32,
        peer_iss: u32,
        remote_win: u16,
        app: &AppCtx,
    ) -> (u32, SharedBuf, SharedBuf) {
        let (peer_ip, peer_port, local_port) = (rx.src_ip, rx.src_port, rx.dst_port);
        let peer_mac = *self.arp.get(&peer_ip).expect("peer in arp table");
        let cfg = self.nic.cfg.clone();
        let tuple_rx = FourTuple::new(peer_ip, peer_port, self.local_ip(), local_port);
        let group = (tuple_rx.flow_hash() as usize) % cfg.n_groups;
        let rx_buf = shared_buf(cfg.rx_buf_size);
        let tx_buf = shared_buf(cfg.tx_buf_size);

        let proto = ProtoState {
            seq: SeqNum(iss.wrapping_add(1)),
            snd_max: SeqNum(iss.wrapping_add(1)),
            ack: SeqNum(peer_iss.wrapping_add(1)),
            rx_avail: cfg.rx_buf_size,
            remote_win,
            ..Default::default()
        };
        let entry = ConnEntry {
            pre: PreState {
                peer_mac,
                peer_ip,
                local_port,
                remote_port: peer_port,
                flow_group: group as u8,
            },
            proto,
            post: PostState {
                context: app.ctx,
                rx_size: cfg.rx_buf_size,
                tx_size: cfg.tx_buf_size,
                ..Default::default()
            },
            tuple_rx,
            tx_buf: tx_buf.clone(),
            rx_buf: rx_buf.clone(),
            ctxq: app.queue.clone(),
            active: true,
        };
        let conn = self.nic.table.borrow_mut().install(entry);
        self.nic.db.borrow_mut().insert(tuple_rx, conn);
        self.mmio(ctx, SchedCtl::Register { conn, group });

        // per-flow congestion control (via the ccp registry) + fold
        // install + RTO monitoring
        let line = self.nic.cfg.platform.mac_bps / 8;
        let algo: Option<Box<dyn Algorithm>> = match self.cfg.cc {
            CcAlgo::None => None,
            named => self.registry.create(named.name(), line),
        };
        if self.cc.len() <= conn as usize {
            self.cc.resize_with(conn as usize + 1, || None);
        }
        let has_cc = algo.is_some();
        self.cc[conn as usize] = algo;
        if has_cc {
            self.nic.ccp.borrow_mut().install(
                conn,
                self.compiled_fold.clone(),
                ctx.now().as_us() as u32,
            );
        }
        self.rto.register(conn);
        self.established += 1;
        self.ensure_kernel_q(ctx);
        self.arm_cc(ctx);
        (conn, rx_buf, tx_buf)
    }

    /// Slow-path frame handling: every segment the pre-processor does not
    /// take goes through the shared handshake rules
    /// ([`flextoe_core::handshake`]). The frame buffer is pooled: every
    /// path that consumes the frame here returns it to the pool, and the
    /// two replay paths hand it back to the NIC (which recycles it after
    /// RX processing) — the conservation invariant the chaos suite audits.
    fn on_redirect(&mut self, ctx: &mut Ctx<'_>, frame: Vec<u8>) {
        let Ok(view) = SegmentView::parse(&frame, true) else {
            ctx.pool.put(frame);
            return;
        };
        let c = self.counters.expect("control plane attached");
        let tuple = view.four_tuple();
        let installed = self.nic.db.borrow().get(&tuple);
        let live = self.nic.table.borrow().len();
        let verdict = self
            .hs
            .on_segment(&view, installed.is_some(), live, || ctx.rng.next_u32());
        match verdict {
            Verdict::PeerReset { failed } => {
                if let Some((app, opaque)) = failed {
                    ctx.send(
                        app.reply_to,
                        Duration::ZERO,
                        AppReply::ConnectFailed { opaque },
                    );
                }
                if let Some(conn) = installed {
                    self.teardown_now(ctx, conn);
                }
            }
            Verdict::Refuse(why) => {
                match why {
                    Refusal::Admission => ctx.stats.inc(c.admission_refused),
                    Refusal::Stray => ctx.stats.inc(c.stray_rst),
                    Refusal::NoListener | Refusal::UnknownSynAck => {}
                }
                let flags = TcpFlags::RST | TcpFlags::ACK;
                self.send_segment(ctx, view.src_mac, tuple, view.ack, view.seq_end(), flags);
            }
            // absorbed without side effects: a healthy peer is never RST
            // for a duplicate (the dup-storm hazard)
            Verdict::Duplicate => ctx.stats.inc(c.dup_handshake),
            Verdict::SynAck { iss, duplicate } => {
                if duplicate {
                    ctx.stats.inc(c.dup_handshake);
                }
                let flags = TcpFlags::SYN | TcpFlags::ACK;
                self.send_segment(ctx, view.src_mac, tuple, SeqNum(iss), view.seq + 1, flags);
            }
            Verdict::Connected {
                iss,
                open: (app, opaque),
            } => {
                let seq = SeqNum(iss.wrapping_add(1));
                self.send_segment(ctx, view.src_mac, tuple, seq, view.seq + 1, TcpFlags::ACK);
                let (conn, rx_buf, tx_buf) =
                    self.install(ctx, tuple, iss, view.seq.0, view.window, &app);
                let reply = AppReply::Connected {
                    conn,
                    opaque,
                    rx_buf,
                    tx_buf,
                };
                ctx.send(app.reply_to, Duration::ZERO, reply);
            }
            Verdict::Accepted {
                iss,
                listener,
                replay,
            } => {
                let peer_iss = view.seq.0.wrapping_sub(1);
                let (conn, rx_buf, tx_buf) =
                    self.install(ctx, tuple, iss, peer_iss, view.window, &listener);
                let reply = AppReply::Accepted {
                    conn,
                    port: view.dst_port,
                    peer: (view.src_ip, view.src_port),
                    rx_buf,
                    tx_buf,
                };
                ctx.send(listener.reply_to, Duration::ZERO, reply);
                if replay {
                    ctx.send(self.nic.mac, self.inject_latency(), Frame::raw(frame));
                    return;
                }
            }
            Verdict::Replay => {
                ctx.send(self.nic.mac, self.inject_latency(), Frame::raw(frame));
                return;
            }
            Verdict::Ignore => {}
        }
        ctx.pool.put(frame);
    }

    // ---- CC runtime (event-driven, flextoe-ccp) -----------------------------

    /// Program the scheduler if the algorithm's rate decision changed.
    fn apply_rate(&mut self, ctx: &mut Ctx<'_>, conn: u32, old: u64, new: u64) {
        if new != old {
            let line = self.nic.cfg.platform.mac_bps / 8;
            self.mmio(
                ctx,
                SchedCtl::SetRate {
                    conn,
                    interval_ps_per_byte: rate_to_interval(new, line),
                },
            );
        }
    }

    /// Consume one sealed report batch from the shared pool.
    fn on_report_batch(&mut self, ctx: &mut Ctx<'_>, token: ReportBatchToken) {
        let entries = self.nic.ccp.borrow_mut().take(token.slot);
        // every sealed batch funnels through here (post-stage seals and
        // control-plane flushes alike), so these are the authoritative
        // batching counters
        let c = self.counters.expect("control plane attached to a sim");
        ctx.stats.inc(c.ccp_batches);
        ctx.stats.add(c.ccp_reports, entries.len() as u64);
        self.process_reports(ctx, &entries);
        self.nic.ccp.borrow_mut().release(token.slot, entries);
    }

    fn process_reports(&mut self, ctx: &mut Ctx<'_>, entries: &[FlowReport]) {
        for r in entries {
            // connection ids are reused: a report folded under an older
            // install generation must not feed the id's next flow
            if self.nic.ccp.borrow().flow_epoch(r.conn) != r.epoch {
                continue;
            }
            let Some(Some(algo)) = self.cc.get_mut(r.conn as usize) else {
                continue; // torn down since the batch was sealed
            };
            let stats = FlowStats {
                acked_bytes: r.acked_bytes,
                ecn_bytes: r.ecn_bytes,
                fast_retx: r.fast_retx.min(u8::MAX as u32) as u8,
                rtt_us: r.rtt_us,
                rto_fired: false,
                elapsed_us: r.elapsed_us,
            };
            let old = algo.rate();
            let new = algo.on_report(&stats);
            self.apply_rate(ctx, r.conn, old, new);
        }
    }

    // ---- control loop (RTO / teardown; no longer a stats harvest) -----------

    fn control_iteration(&mut self, ctx: &mut Ctx<'_>) {
        // the three work lists are members so a tick reuses their storage
        let mut scan = std::mem::take(&mut self.scan);
        scan.conns.clear();
        scan.conns
            .extend(self.nic.table.borrow().iter().map(|(c, _)| c));
        if scan.conns.is_empty() {
            self.scan = scan;
            // going quiet: deliver any still-open batch now — with no
            // flows and no further ticks, nothing else would flush it
            let open = self.nic.ccp.borrow_mut().flush_open();
            if let Some(token) = open {
                self.on_report_batch(ctx, token);
            }
            self.cc_armed = false;
            return;
        }
        for &conn in &scan.conns {
            let table = self.nic.table.borrow();
            let Some(entry) = table.get(conn) else {
                continue;
            };
            let srtt_us = entry.post.rtt_est;
            let verdict = self.rto.observe(conn, &entry.proto, srtt_us, ctx.now());
            drop(table);

            // RTO monitoring — the urgent-event path into the algorithm
            match verdict {
                RtoVerdict::Idle => {}
                RtoVerdict::Reclaim => scan.to_teardown.push(conn),
                RtoVerdict::Fire => {
                    ctx.stats
                        .inc(self.counters.expect("control plane attached").rto_fired);
                    let ok = self
                        .kernel_q
                        .borrow_mut()
                        .to_nic
                        .push(AppToNic::Retransmit { conn })
                        .is_ok();
                    debug_assert!(ok, "kernel context queue overflow: RTO descriptor lost");
                    ctx.send(
                        self.nic.ctxq,
                        self.nic.cfg.platform.pcie.mmio_latency,
                        Doorbell { ctx: CTRL_CTX },
                    );
                    if let Some(Some(algo)) = self.cc.get_mut(conn as usize) {
                        let old = algo.rate();
                        let new = algo.on_urgent(Urgent::Rto);
                        self.apply_rate(ctx, conn, old, new);
                    }
                }
                RtoVerdict::GiveUp => scan.to_abort.push(conn),
            }
        }
        for conn in scan.to_teardown.drain(..) {
            self.teardown_now(ctx, conn);
        }
        for conn in scan.to_abort.drain(..) {
            self.abort_now(ctx, conn);
        }
        self.scan = scan;
        // backstop: a report appended by a flow that then went idle would
        // otherwise sit in the open batch forever
        let now_us = ctx.now().as_us() as u32;
        let stale = self.nic.ccp.borrow_mut().flush_stale(now_us);
        if let Some(token) = stale {
            self.on_report_batch(ctx, token);
        }
        ctx.wake(CONTROL_INTERVAL, Tick);
    }

    /// Abort an established connection whose retry budget is spent: send
    /// an RST built from our own connection state (there is no inbound
    /// segment to echo — the path is blackholed), surface a typed
    /// [`flextoe_core::hostmem::NicToApp::Aborted`] descriptor to the
    /// owning application context, and reclaim all data-path state.
    fn abort_now(&mut self, ctx: &mut Ctx<'_>, conn: u32) {
        let info = {
            let table = self.nic.table.borrow();
            table.get(conn).map(|e| {
                (
                    e.pre.peer_mac,
                    e.pre.peer_ip,
                    e.pre.local_port,
                    e.pre.remote_port,
                    e.proto.seq,
                    e.proto.ack,
                    e.post.context,
                )
            })
        };
        let Some((peer_mac, peer_ip, local_port, remote_port, seq, ack, app_ctx)) = info else {
            return; // raced a teardown
        };
        let rx = FourTuple::new(peer_ip, remote_port, self.local_ip(), local_port);
        self.send_segment(ctx, peer_mac, rx, seq, ack, TcpFlags::RST | TcpFlags::ACK);
        // typed error to the app, through the normal notification DMA
        // path so it serializes behind any in-flight completions
        ctx.send(
            self.nic.ctxq,
            self.nic.cfg.platform.pcie.mmio_latency,
            NotifyJob {
                ctx: app_ctx,
                desc: flextoe_core::hostmem::NicToApp::Aborted { conn },
            },
        );
        ctx.stats
            .inc(self.counters.expect("control plane attached").abort);
        self.teardown_now(ctx, conn);
    }

    fn teardown_now(&mut self, ctx: &mut Ctx<'_>, conn: u32) {
        let mut table = self.nic.table.borrow_mut();
        if let Some(entry) = table.remove(conn) {
            self.nic.db.borrow_mut().remove(&entry.tuple_rx);
        }
        drop(table);
        self.mmio(ctx, SchedCtl::Unregister { conn });
        self.rto.unregister(conn);
        self.nic.ccp.borrow_mut().uninstall(conn);
        if let Some(slot) = self.cc.get_mut(conn as usize) {
            *slot = None;
        }
        ctx.stats
            .inc(self.counters.expect("control plane attached").teardown);
    }
}

#[derive(Clone, Copy)]
struct CtrlCounters {
    ccp_batches: CounterHandle,
    ccp_reports: CounterHandle,
    rto_fired: CounterHandle,
    teardown: CounterHandle,
    stray_rst: CounterHandle,
    abort: CounterHandle,
    admission_refused: CounterHandle,
    dup_handshake: CounterHandle,
}

impl Node for ControlPlane {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        // batched congestion reports and the control tick are the warm
        // control-plane messages: match the typed variants directly, no
        // downcast (which would box the payload to hand it over)
        let msg = match msg {
            Msg::Report(token) => {
                self.on_report_batch(ctx, token);
                return;
            }
            Msg::Tick => {
                self.control_iteration(ctx);
                return;
            }
            m => m,
        };
        let msg = match try_cast::<Redirect>(msg) {
            Ok(r) => {
                self.on_redirect(ctx, r.0.into_bytes());
                return;
            }
            Err(m) => m,
        };
        let msg = match try_cast::<SynRetry>(msg) {
            Ok(r) => {
                self.retry_syn(ctx, r.key);
                return;
            }
            Err(m) => m,
        };
        let req = flextoe_sim::cast::<AppRequest>(msg);
        match *req {
            AppRequest::Listen {
                port,
                ctx: app_ctx,
                ref queue,
                reply_to,
            } => {
                let app = AppCtx {
                    ctx: app_ctx,
                    queue: queue.clone(),
                    reply_to,
                };
                self.hs.listen(port, app);
            }
            AppRequest::Connect {
                remote_ip,
                remote_port,
                ctx: app_ctx,
                ref queue,
                reply_to,
                opaque,
            } => {
                let app = AppCtx {
                    ctx: app_ctx,
                    queue: queue.clone(),
                    reply_to,
                };
                self.start_connect(ctx, remote_ip, remote_port, app, opaque);
            }
            AppRequest::Teardown { conn } => self.teardown_now(ctx, conn),
        }
    }

    fn on_attach(&mut self, stats: &mut Stats) {
        self.counters = Some(CtrlCounters {
            ccp_batches: stats.counter("ccp.batches"),
            ccp_reports: stats.counter("ccp.reports"),
            rto_fired: stats.counter("ctrl.rto_fired"),
            teardown: stats.counter("ctrl.teardown"),
            stray_rst: stats.counter("ctrl.stray_rst"),
            abort: stats.counter("ctrl.abort"),
            admission_refused: stats.counter("ctrl.admission_refused"),
            dup_handshake: stats.counter("ctrl.dup_handshake"),
        });
    }

    fn name(&self) -> String {
        "control-plane".to_string()
    }
}
