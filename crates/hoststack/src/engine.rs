//! The baseline host TCP engine: a complete run-to-completion TCP stack
//! (handshake, data path, recovery, AIMD congestion control) in one
//! simulation node, parameterized by [`StackKind`].
//!
//! The *protocol* logic reuses `flextoe_core::proto` — the same code the
//! FlexTOE protocol stage executes — so baselines interoperate with
//! FlexTOE on the wire byte-for-byte. The differences the paper measures
//! are expressed as policies:
//!
//! * **receiver reassembly** — a `proto` [`Reassembly`] policy each
//!   connection takes from its [`StackKind`]: one OOO interval (TAS /
//!   Flex-Baseline), up to 31 more (Linux: "more sophisticated reassembly
//!   and recovery"), or in-order only (Chelsio, §5.3: "Chelsio has a very
//!   steep decline in throughput"). This engine writes whatever `proto`
//!   places and runs one post-processing path for all of them. Every
//!   sender is `proto`'s go-back-N; the stacks differ only as receivers,
//! * **cost model** — per-packet cycles on the processing core
//!   ([`StackCosts`]), which is the application core for in-kernel stacks.
//!
//! Connection setup is `flextoe_core::handshake`, the rules the FlexTOE
//! control plane runs, so both stack families answer, refuse and absorb
//! handshake segments alike. The retransmission timer is its
//! `transport::RtoTracker` too, scanned here once per millisecond.

use flextoe_core::handshake::{Handshake, Refusal, SynTimeout, Verdict};
use flextoe_core::hostmem::{shared_buf, AppToNic, SharedBuf};
use flextoe_core::proto::{self, Reassembly, RxSummary};
use flextoe_core::transport::{self, RtoTracker, RtoVerdict, TransportPolicy};
use flextoe_core::ProtoState;
use flextoe_nfp::{Cost, FpcTimer};
use flextoe_sim::{try_cast, AppNotify, Ctx, Duration, FxHashMap, Msg, Node, NodeId, Tick, Time};
use flextoe_wire::{
    Ecn, FourTuple, Frame, Ip4, MacAddr, SegmentSpec, SegmentView, SeqNum, TcpFlags, TcpOptions,
    MSS_WITH_TS,
};

use crate::costs::{StackCosts, StackKind};
use crate::shared::{HostConnect, HostListen, SharedAppSide, SocketBufs};
use flextoe_apps::SockEvent;

const MSS: u32 = MSS_WITH_TS as u32;
const INIT_CWND: u32 = 10 * MSS;
/// Socket buffer size, each direction, of every connection.
pub const BUF_SIZE: u32 = 64 * 1024;

struct HostConn {
    ps: ProtoState,
    tuple_rx: FourTuple,
    peer_mac: MacAddr,
    rx_buf: SharedBuf,
    tx_buf: SharedBuf,
    side: SharedAppSide,
    app: NodeId,
    /// Peer's true advertised window (ps.remote_win is clamped by cwnd).
    peer_win: u16,
    cwnd: u32,
    ssthresh: u32,
    /// The receiver's policy, with a Linux connection's extra intervals.
    reasm: Reassembly,
    srtt_us: u32,
}

impl HostConn {
    fn clamp_window(&mut self) {
        let cwnd16 = self.cwnd.min(u16::MAX as u32) as u16;
        self.ps.remote_win = self.peer_win.min(cwnd16);
    }
}

/// Who an active open reports to, until its SYN-ACK installs it.
struct Dial {
    side: SharedAppSide,
    app: NodeId,
    opaque: u64,
    /// When the most recent SYN went out (the scan's retry timer).
    sent_at: Time,
}

pub struct HostStackNode {
    pub kind: StackKind,
    costs: StackCosts,
    /// RTO, SYN retry and admission knobs, shared with the FlexTOE
    /// control plane.
    transport: TransportPolicy,
    clock: flextoe_sim::Clock,
    pub mac: MacAddr,
    pub ip: Ip4,
    link_out: NodeId,
    mac_bps: u64,
    mac_free: Time,
    /// Processing core(s) for TCP work.
    core: FpcTimer,
    /// Extra fixed latency per packet (Chelsio's ASIC pipeline).
    nic_latency: Duration,
    conns: Vec<Option<HostConn>>,
    /// Application sides by the context id assigned at their first
    /// listen/connect ([`crate::AppSide::ctx`]).
    sides: Vec<SharedAppSide>,
    lookup: FxHashMap<FourTuple, u32>,
    /// Listeners (app side, app node) and pending opens.
    hs: Handshake<(SharedAppSide, NodeId), Dial>,
    arp: FxHashMap<Ip4, MacAddr>,
    next_port: u16,
    rto_armed: bool,
    /// Each connection's RTO timer: the tracker the FlexTOE control plane
    /// drives too.
    rto: RtoTracker,
    /// The RTO and SYN scans' work lists, kept between scans for their
    /// storage.
    rto_fire: Vec<(u32, RtoVerdict)>,
    syn_due: Vec<(FourTuple, u32)>,
    /// Lock-contention multiplier (set by multi-core experiments).
    pub n_app_cores: u32,
    /// Payload-copy cycles per byte (socket-buffer copies; §E's
    /// TAS-nocopy variant sets this to zero).
    pub copy_cycles_per_byte: f64,
    pub retransmits: u64,
    /// Active opens abandoned after
    /// [`flextoe_core::transport::SYN_ATTEMPTS`] transmissions.
    pub connect_give_ups: u64,
}

impl HostStackNode {
    pub fn new(
        kind: StackKind,
        mac: MacAddr,
        ip: Ip4,
        link_out: NodeId,
        transport: TransportPolicy,
    ) -> Self {
        let (clock, threads, mac_bps, nic_latency) = match kind {
            StackKind::FlexBaselineFpc => (
                flextoe_sim::clocks::FPC_800MHZ,
                1,
                40_000_000_000,
                Duration::ZERO,
            ),
            StackKind::Chelsio => (
                flextoe_sim::clocks::HOST_2GHZ,
                1,
                100_000_000_000, // Terminator T62100: 100 Gbps
                Duration::from_us(2),
            ),
            _ => (
                flextoe_sim::clocks::HOST_2GHZ,
                1,
                40_000_000_000,
                Duration::ZERO,
            ),
        };
        HostStackNode {
            kind,
            costs: kind.costs(),
            transport,
            clock,
            mac,
            ip,
            link_out,
            mac_bps,
            mac_free: Time::ZERO,
            core: FpcTimer::new(clock, threads),
            nic_latency,
            conns: Vec::new(),
            sides: Vec::new(),
            lookup: FxHashMap::default(),
            hs: Handshake::new(transport.max_conns),
            arp: FxHashMap::default(),
            next_port: 42_000,
            rto_armed: false,
            rto: RtoTracker::new(transport),
            rto_fire: Vec::new(),
            syn_due: Vec::new(),
            n_app_cores: 1,
            copy_cycles_per_byte: 0.07,
            retransmits: 0,
            connect_give_ups: 0,
        }
    }

    pub fn add_peer(&mut self, ip: Ip4, mac: MacAddr) {
        self.arp.insert(ip, mac);
    }

    /// RTOs fired so far. [`HostStackNode::retransmits`] also counts fast
    /// and app-requested retransmits.
    pub fn rto_fired(&self) -> u64 {
        self.rto.fired
    }

    /// Each live connection's id, protocol state and application side.
    pub fn connections(&self) -> impl Iterator<Item = (u32, &ProtoState, &SharedAppSide)> {
        let live = self.conns.iter().enumerate();
        live.filter_map(|(id, c)| c.as_ref().map(|c| (id as u32, &c.ps, &c.side)))
    }

    /// Per-packet TCP processing cost with lock contention and the
    /// payload-length-dependent copy share.
    fn pkt_cost_len(&self, payload: usize) -> Cost {
        let scale = 1.0 + self.costs.contention * (self.n_app_cores.saturating_sub(1)) as f64;
        Cost::new(
            (self.costs.per_packet_stack as f64 * scale) as u64
                + (payload as f64 * self.copy_cycles_per_byte) as u64,
            self.costs.per_packet_mem,
        )
    }

    /// Re-platform this stack (Fig. 14 ports): change the processing
    /// clock and NIC rate.
    pub fn set_platform(&mut self, clock: flextoe_sim::Clock, mac_bps: u64) {
        self.clock = clock;
        self.core = FpcTimer::new(clock, 1);
        self.mac_bps = mac_bps;
    }

    fn charge(&mut self, now: Time, cost: Cost) -> Duration {
        let done = self.core.execute(now, cost);
        done.saturating_since(now)
    }

    /// Transmit a frame, serialized on the NIC at line rate.
    fn emit(&mut self, ctx: &mut Ctx<'_>, after: Duration, frame: Frame) {
        let ser = Duration::line_rate(frame.len(), self.mac_bps);
        let start = (ctx.now() + after + self.nic_latency).max(self.mac_free);
        self.mac_free = start + ser;
        ctx.send_at(self.link_out, self.mac_free, frame);
    }

    fn take(&mut self, id: u32) -> Option<HostConn> {
        self.conns.get_mut(id as usize)?.take()
    }

    fn put(&mut self, id: u32, c: HostConn) {
        self.conns[id as usize] = Some(c);
    }

    fn arm_rto(&mut self, ctx: &mut Ctx<'_>) {
        if !self.rto_armed {
            self.rto_armed = true;
            ctx.wake(Duration::from_ms(1), Tick);
        }
    }

    // ---- transmission -------------------------------------------------------

    fn pump_tx(&mut self, ctx: &mut Ctx<'_>, id: u32) {
        let Some(mut c) = self.take(id) else { return };
        let (my_mac, my_ip) = (self.mac, self.ip);
        let mut budget = 64;
        let now = ctx.now();
        let mut sent_any = false;
        loop {
            c.clamp_window();
            if budget == 0 {
                // self-wake: resume this connection after backpressure
                ctx.wake(Duration::from_us(1), u64::from(id));
                break;
            }
            let Some(seg) = proto::tx_next(&mut c.ps, MSS) else {
                break;
            };
            budget -= 1;
            sent_any = true;
            let mut spec = spec_for(my_mac, my_ip, &c);
            spec.seq = seg.seq;
            spec.ack = seg.ack;
            spec.window = seg.window;
            spec.flags =
                TcpFlags::ACK | TcpFlags::PSH | if seg.fin { TcpFlags::FIN } else { TcpFlags(0) };
            spec.options = TcpOptions {
                timestamp: Some((now.as_us() as u32, seg.ts_echo)),
                ..Default::default()
            };
            spec.payload_len = seg.len as usize;
            let tx_buf = c.tx_buf.borrow();
            let frame = spec.emit_frame_into(ctx.pool.take(), |b| tx_buf.read(seg.buf_pos, b));
            drop(tx_buf);
            let cost = self.pkt_cost_len(seg.len as usize);
            let d = self.charge(now, cost);
            self.emit(ctx, d, frame);
        }
        self.put(id, c);
        if sent_any {
            self.arm_rto(ctx);
        }
    }

    /// Go-back-N retransmission: an RTO, the app's retransmit request, or
    /// a fast retransmit `proto` already rewound.
    fn retransmit(&mut self, ctx: &mut Ctx<'_>, id: u32) {
        self.retransmits += 1;
        if let Some(Some(c)) = self.conns.get_mut(id as usize) {
            proto::go_back_n(&mut c.ps);
        }
        self.pump_tx(ctx, id);
    }

    // ---- receive --------------------------------------------------------------

    fn on_data_segment(&mut self, ctx: &mut Ctx<'_>, id: u32, view: &SegmentView, frame: &[u8]) {
        let now = ctx.now();
        let cost = self.pkt_cost_len(view.payload_len);
        let d = self.charge(now, cost);
        let Some(mut conn) = self.take(id) else {
            return;
        };
        let c = &mut conn;
        let sum = RxSummary::from(view);
        // Track the peer's true window; cwnd clamping happens on send.
        if sum.flags.ack() {
            c.peer_win = sum.window;
        }

        let out = proto::rx_segment(&mut c.ps, &sum, &mut c.reasm);

        // payload placement into the host receive buffer
        if let Some(p) = out.placement {
            let base = view.payload_off;
            let src = &frame[base + p.frame_off as usize..base + (p.frame_off + p.len) as usize];
            c.rx_buf.borrow_mut().write(p.buf_pos, src);
        }

        // AIMD congestion control
        if out.acked_bytes > 0 {
            if c.cwnd < c.ssthresh {
                c.cwnd += out.acked_bytes.min(MSS); // slow start
            } else {
                c.cwnd += (MSS as u64 * out.acked_bytes as u64 / c.cwnd as u64) as u32;
            }
            c.cwnd = c.cwnd.min(BUF_SIZE);
        }
        if let Some(tsecr) = out.rtt_sample_ts {
            transport::rtt_sample(&mut c.srtt_us, now.as_us() as u32, tsecr);
        }
        if out.fast_retransmit {
            c.ssthresh = (c.cwnd / 2).max(2 * MSS);
            c.cwnd = c.ssthresh;
        }

        // application notifications: the app's socket takes them
        if out.delivered > 0 {
            let available = out.delivered;
            wake_app(
                ctx,
                c,
                d,
                SockEvent::Readable {
                    conn: id,
                    available,
                },
            );
        }
        if out.acked_bytes > 0 {
            let free = out.acked_bytes;
            wake_app(ctx, c, d, SockEvent::Writable { conn: id, free });
        }
        if out.fin_delivered {
            wake_app(ctx, c, d, SockEvent::Eof { conn: id });
        }

        self.put(id, conn);
        if out.send_ack {
            self.send_ack(ctx, id, d, out.ecn_echo);
        }
        if out.fast_retransmit {
            self.retransmit(ctx, id);
        }
        // window/ack progress may allow more transmission
        self.pump_tx(ctx, id);
    }

    fn send_ack(&mut self, ctx: &mut Ctx<'_>, id: u32, after: Duration, ece: bool) {
        let now_us = ctx.now().as_us() as u32;
        let Some(c) = self.take(id) else {
            return;
        };
        let mut spec = spec_for(self.mac, self.ip, &c);
        spec.ecn = Ecn::NotEct;
        spec.seq = c.ps.seq;
        spec.ack = c.ps.ack;
        spec.window = proto::advertised_window(&c.ps);
        spec.flags = if ece {
            TcpFlags::ACK | TcpFlags::ECE
        } else {
            TcpFlags::ACK
        };
        spec.options = TcpOptions {
            timestamp: Some((now_us, c.ps.next_ts)),
            ..Default::default()
        };
        let frame = spec.emit_frame_into(ctx.pool.take(), |_| {});
        self.put(id, c);
        self.emit(ctx, after, frame);
    }

    // ---- handshake --------------------------------------------------------------

    /// Send one handshake segment of the connection whose receive-side
    /// tuple is `rx`. SYN and SYN-ACK carry the MSS option; the final ACK
    /// carries none.
    fn emit_handshake(
        &mut self,
        ctx: &mut Ctx<'_>,
        dst_mac: MacAddr,
        rx: FourTuple,
        seq: SeqNum,
        ack: SeqNum,
        flags: TcpFlags,
    ) {
        let spec = SegmentSpec {
            src_mac: self.mac,
            dst_mac,
            src_ip: self.ip,
            dst_ip: rx.src_ip,
            src_port: rx.dst_port,
            dst_port: rx.src_port,
            seq,
            ack,
            flags,
            window: u16::MAX,
            options: TcpOptions {
                mss: flags.syn().then_some(MSS as u16),
                ..Default::default()
            },
            ..Default::default()
        };
        let f = spec.emit_frame_into(ctx.pool.take(), |_| {});
        self.emit(ctx, Duration::ZERO, f);
    }

    /// Install an established connection whose segments arrive on `rx`.
    fn install(
        &mut self,
        rx: FourTuple,
        iss: u32,
        peer_iss: u32,
        peer_win: u16,
        side: SharedAppSide,
        app: NodeId,
    ) -> u32 {
        let peer_mac = *self.arp.get(&rx.src_ip).expect("arp");
        let tuple_rx = FourTuple::new(rx.src_ip, rx.src_port, self.ip, rx.dst_port);
        let mut conn = HostConn {
            ps: ProtoState {
                seq: SeqNum(iss.wrapping_add(1)),
                snd_max: SeqNum(iss.wrapping_add(1)),
                ack: SeqNum(peer_iss.wrapping_add(1)),
                rx_avail: BUF_SIZE,
                remote_win: peer_win,
                ..Default::default()
            },
            tuple_rx,
            peer_mac,
            rx_buf: shared_buf(BUF_SIZE),
            tx_buf: shared_buf(BUF_SIZE),
            side,
            app,
            peer_win,
            cwnd: INIT_CWND,
            ssthresh: BUF_SIZE,
            reasm: self.kind.reassembly(),
            srtt_us: 0,
        };
        conn.clamp_window();
        let id = self
            .conns
            .iter()
            .position(|c| c.is_none())
            .unwrap_or(self.conns.len());
        if id == self.conns.len() {
            self.conns.push(None);
        }
        self.conns[id] = Some(conn);
        // a reused id starts with a fresh timer; the scan only observes
        // live slots, so teardown leaves the tracker alone
        self.rto.register(id as u32);
        self.lookup.insert(tuple_rx, id as u32);
        id as u32
    }

    /// Hand installed connection `id` to its application: queue `ev`
    /// (`Accepted` or `Connected`) with the buffers its socket opens with.
    fn open_socket(&self, ctx: &mut Ctx<'_>, id: u32, ev: SockEvent) {
        let c = self.conns[id as usize].as_ref().expect("installed");
        let bufs = (c.rx_buf.clone(), c.tx_buf.clone());
        notify(ctx, &c.side, c.app, Duration::ZERO, ev, Some(bufs));
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, frame: Frame) {
        // every in-sim emitter fills its checksums: only a frame a link
        // corrupted can fail them
        let verify = frame.corrupted;
        let frame = frame.bytes;
        if let Ok(view) = SegmentView::parse(&frame, verify) {
            let installed = self.lookup.get(&view.four_tuple()).copied();
            match installed {
                Some(id) if view.flags.is_datapath() => {
                    self.on_data_segment(ctx, id, &view, &frame)
                }
                _ => self.on_setup_segment(ctx, &view, &frame, installed),
            }
        }
        // any payload is in a socket buffer by now: every frame's bytes go
        // back to the sim-wide pool, exactly once
        ctx.pool.put(frame);
    }

    /// A segment the data path does not take, decided by the handshake
    /// rules every host shares. `installed` is its connection, if any.
    fn on_setup_segment(
        &mut self,
        ctx: &mut Ctx<'_>,
        view: &SegmentView,
        frame: &[u8],
        installed: Option<u32>,
    ) {
        let tuple = view.four_tuple();
        let live = self.lookup.len();
        let verdict = self
            .hs
            .on_segment(view, installed.is_some(), live, || ctx.rng.next_u32());
        match verdict {
            Verdict::PeerReset { failed } => {
                if let Some(id) = installed {
                    self.teardown(id);
                }
                if let Some(d) = failed {
                    let ev = SockEvent::ConnectFailed { opaque: d.opaque };
                    notify(ctx, &d.side, d.app, Duration::ZERO, ev, None);
                }
            }
            Verdict::Refuse(why) => {
                // a passive open refused at the policy's `max_conns`
                if why == Refusal::Admission {
                    ctx.stats.bump("ctrl.admission_refused", 1);
                }
                let flags = TcpFlags::RST | TcpFlags::ACK;
                self.emit_handshake(ctx, view.src_mac, tuple, view.ack, view.seq_end(), flags);
            }
            Verdict::Duplicate | Verdict::Ignore => {}
            Verdict::SynAck { iss, .. } => {
                let flags = TcpFlags::SYN | TcpFlags::ACK;
                self.emit_handshake(ctx, view.src_mac, tuple, SeqNum(iss), view.seq + 1, flags);
            }
            Verdict::Connected { iss, open } => {
                let seq = SeqNum(iss.wrapping_add(1));
                self.emit_handshake(ctx, view.src_mac, tuple, seq, view.seq + 1, TcpFlags::ACK);
                let id = self.install(tuple, iss, view.seq.0, view.window, open.side, open.app);
                let ev = SockEvent::Connected {
                    conn: id,
                    opaque: open.opaque,
                };
                self.open_socket(ctx, id, ev);
            }
            Verdict::Accepted {
                iss,
                listener: (side, app),
                replay,
            } => {
                let peer_iss = view.seq.0.wrapping_sub(1);
                let id = self.install(tuple, iss, peer_iss, view.window, side, app);
                let ev = SockEvent::Accepted {
                    conn: id,
                    port: view.dst_port,
                    peer: (view.src_ip, view.src_port),
                };
                self.open_socket(ctx, id, ev);
                if replay {
                    self.on_data_segment(ctx, id, view, frame);
                }
            }
            Verdict::Replay => {
                if let Some(id) = installed {
                    self.on_data_segment(ctx, id, view, frame);
                }
            }
        }
    }

    fn teardown(&mut self, id: u32) {
        if let Some(c) = self.take(id) {
            self.lookup.remove(&c.tuple_rx);
        }
    }

    fn rto_scan(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let mut fire = std::mem::take(&mut self.rto_fire);
        for (id, slot) in self.conns.iter_mut().enumerate() {
            let Some(c) = slot else { continue };
            let verdict = self.rto.observe(id as u32, &c.ps, c.srtt_us, now);
            if verdict == RtoVerdict::Fire {
                c.ssthresh = (c.cwnd / 2).max(2 * MSS);
                c.cwnd = 2 * MSS;
            }
            if verdict != RtoVerdict::Idle {
                fire.push((id as u32, verdict));
            }
        }
        for (id, verdict) in fire.drain(..) {
            match verdict {
                RtoVerdict::Reclaim => self.teardown(id),
                RtoVerdict::Fire => self.retransmit(ctx, id),
                RtoVerdict::GiveUp => self.abort(ctx, id),
                RtoVerdict::Idle => {}
            }
        }
        self.rto_fire = fire;
        self.syn_scan(ctx, now);
        if self.conns.iter().any(|c| c.is_some()) || self.hs.pending().next().is_some() {
            ctx.wake(Duration::from_ms(1), Tick);
        } else {
            self.rto_armed = false;
        }
    }

    /// Abort an established connection whose RTO budget is spent: RST the
    /// peer, surface [`SockEvent::Aborted`], reclaim the state.
    fn abort(&mut self, ctx: &mut Ctx<'_>, id: u32) {
        let Some(c) = self.take(id) else { return };
        ctx.stats.bump("ctrl.abort", 1);
        let mut spec = spec_for(self.mac, self.ip, &c);
        spec.seq = c.ps.seq;
        spec.ack = c.ps.ack;
        spec.flags = TcpFlags::RST | TcpFlags::ACK;
        let frame = spec.emit_frame_into(ctx.pool.take(), |_| {});
        wake_app(ctx, &c, Duration::ZERO, SockEvent::Aborted { conn: id });
        self.emit(ctx, Duration::ZERO, frame);
        // the slot is already vacated by `take`; drop the demux entry too
        self.lookup.remove(&c.tuple_rx);
    }

    /// Connect-phase loss recovery: a SYN unanswered for the policy's
    /// [`TransportPolicy::syn_timeout`] goes out again, until the shared
    /// handshake gives the open up and the app hears `ConnectFailed`.
    fn syn_scan(&mut self, ctx: &mut Ctx<'_>, now: Time) {
        let transport = self.transport;
        let mut due = std::mem::take(&mut self.syn_due);
        due.extend(
            self.hs
                .pending()
                .filter(|(_, p)| {
                    now.saturating_since(p.app.sent_at) >= transport.syn_timeout(p.attempts)
                })
                .map(|(&key, p)| (key, p.iss)),
        );
        // give-ups notify first, then the retries go out, each in map order
        due.retain(|(key, _)| match self.hs.syn_timeout(key) {
            Some(SynTimeout::Resend { app, .. }) => {
                app.sent_at = now;
                true
            }
            Some(SynTimeout::GiveUp(d)) => {
                self.connect_give_ups += 1;
                let ev = SockEvent::ConnectFailed { opaque: d.opaque };
                notify(ctx, &d.side, d.app, Duration::ZERO, ev, None);
                false
            }
            None => false,
        });
        for (key, iss) in due.drain(..) {
            if let Some(&dst_mac) = self.arp.get(&key.src_ip) {
                self.emit_handshake(ctx, dst_mac, key, SeqNum(iss), SeqNum(0), TcpFlags::SYN);
            }
        }
        self.syn_due = due;
    }

    /// Send the first SYN of an active open; [`Self::syn_scan`] retries
    /// it. Without an ARP entry the connect fails at once.
    fn connect(&mut self, ctx: &mut Ctx<'_>, c: HostConnect) {
        self.register_side(&c.side);
        let local_port = self.next_port;
        self.next_port = self.next_port.wrapping_add(1).max(42_000);
        let iss = ctx.rng.next_u32();
        let Some(&dst_mac) = self.arp.get(&c.ip) else {
            let ev = SockEvent::ConnectFailed { opaque: c.opaque };
            notify(ctx, &c.side, c.app, Duration::ZERO, ev, None);
            return;
        };
        let key = FourTuple::new(c.ip, c.port, self.ip, local_port);
        let dial = Dial {
            side: c.side,
            app: c.app,
            opaque: c.opaque,
            sent_at: ctx.now(),
        };
        self.hs.connect(key, iss, dial);
        self.emit_handshake(ctx, dst_mac, key, SeqNum(iss), SeqNum(0), TcpFlags::SYN);
        self.arm_rto(ctx);
    }

    /// First listen/connect of an application side: assign its context id.
    fn register_side(&mut self, side: &SharedAppSide) {
        if !self.sides.iter().any(|s| std::rc::Rc::ptr_eq(s, side)) {
            side.borrow_mut().ctx = u16::try_from(self.sides.len()).expect("context ids are u16");
            self.sides.push(side.clone());
        }
    }

    fn on_syscall(&mut self, ctx: &mut Ctx<'_>, side_ctx: u16) {
        let side = self.sides[side_ctx as usize].clone();
        // one descriptor at a time (handling one never queues another);
        // the `let` ends the borrow before a handler re-borrows the side
        loop {
            let Some(desc) = side.borrow_mut().to_stack.pop_front() else {
                break;
            };
            match desc {
                AppToNic::TxAppend { conn, len } => {
                    if let Some(Some(c)) = self.conns.get_mut(conn as usize) {
                        proto::hc_tx_append(&mut c.ps, len);
                    }
                    self.pump_tx(ctx, conn);
                }
                AppToNic::RxConsumed { conn, len } => {
                    if let Some(Some(c)) = self.conns.get_mut(conn as usize) {
                        if proto::hc_rx_consumed(&mut c.ps, len, MSS) {
                            self.send_ack(ctx, conn, Duration::ZERO, false);
                        }
                    }
                }
                AppToNic::Close { conn } => {
                    if let Some(Some(c)) = self.conns.get_mut(conn as usize) {
                        proto::hc_close(&mut c.ps);
                    }
                    self.pump_tx(ctx, conn);
                }
                AppToNic::Retransmit { conn } => self.retransmit(ctx, conn),
            }
        }
    }
}

impl Node for HostStackNode {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        // everything per packet or per request is a typed variant; only
        // listen/connect take the downcast chain below
        let msg = match msg {
            Msg::Frame(frame) => {
                self.on_frame(ctx, frame);
                return;
            }
            Msg::Tick => {
                self.rto_scan(ctx);
                return;
            }
            Msg::Doorbell(db) => {
                self.on_syscall(ctx, db.ctx);
                return;
            }
            Msg::Token(conn) => {
                self.pump_tx(ctx, conn as u32);
                return;
            }
            m => m,
        };
        let msg = match try_cast::<HostListen>(msg) {
            Ok(l) => {
                self.register_side(&l.side);
                self.hs.listen(l.port, (l.side, l.app));
                return;
            }
            Err(m) => m,
        };
        let msg = match try_cast::<HostConnect>(msg) {
            Ok(c) => {
                self.connect(ctx, *c);
                return;
            }
            Err(m) => m,
        };
        flextoe_sim::mismatch(
            "Frame, Tick, Doorbell, Token, HostListen or HostConnect",
            &msg,
        )
    }

    fn name(&self) -> String {
        format!("hoststack-{}", self.kind.name())
    }
}

fn spec_for(mac: MacAddr, ip: Ip4, conn: &HostConn) -> SegmentSpec {
    SegmentSpec {
        src_mac: mac,
        dst_mac: conn.peer_mac,
        src_ip: ip,
        dst_ip: conn.tuple_rx.src_ip,
        src_port: conn.tuple_rx.dst_port,
        dst_port: conn.tuple_rx.src_port,
        ecn: Ecn::Ect0,
        ..Default::default()
    }
}

fn wake_app(ctx: &mut Ctx<'_>, conn: &HostConn, after: Duration, ev: SockEvent) {
    notify(ctx, &conn.side, conn.app, after, ev, None);
}

/// Queue `ev` (with the buffers of the socket it opens, if any) on an
/// application side and wake its node 1 µs after `after`.
fn notify(
    ctx: &mut Ctx<'_>,
    side: &SharedAppSide,
    app: NodeId,
    after: Duration,
    ev: SockEvent,
    open: Option<SocketBufs>,
) {
    let mut side = side.borrow_mut();
    side.events.push_back((ev, open));
    let wake = AppNotify { ctx: side.ctx };
    ctx.send(app, after + Duration::from_us(1), wake);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_kind_wiring() {
        let host = |kind| {
            HostStackNode::new(
                kind,
                MacAddr::local(1),
                Ip4::host(1),
                0,
                TransportPolicy::default(),
            )
        };
        let n = host(StackKind::Chelsio);
        assert_eq!(n.mac_bps, 100_000_000_000, "Chelsio is a 100G NIC");
        assert_eq!(n.nic_latency, Duration::from_us(2));
        let n = host(StackKind::FlexBaselineFpc);
        assert_eq!(n.clock.hz(), 800_000_000);
        // the receivers of Fig. 15
        use Reassembly::{InOrderOnly, Intervals, OneInterval};
        assert!(matches!(StackKind::Linux.reassembly(), Intervals(_)));
        assert!(matches!(StackKind::Chelsio.reassembly(), InOrderOnly));
        assert!(matches!(StackKind::Tas.reassembly(), OneInterval));
        assert!(matches!(
            StackKind::FlexBaselineFpc.reassembly(),
            OneInterval
        ));
    }
}
