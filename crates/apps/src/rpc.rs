//! RPC workloads: echo/sink servers and closed/open-loop clients — the
//! machinery behind Figures 9–16 and Tables 2–4.

use std::collections::VecDeque;

use flextoe_nfp::{Cost, FpcTimer};
use flextoe_sim::{Ctx, Duration, FxHashMap, Histogram, Msg, Node, NodeId, Tick, Time};
use flextoe_wire::Ip4;

use crate::stack::{SockEvent, StackApi, StackOp};

/// Deferred stack construction (stack setup needs a `Ctx`).
pub type StackInit<S> = Box<dyn FnOnce(&mut Ctx<'_>, NodeId) -> S>;

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    pub port: u16,
    /// Request size; a request is complete once this many bytes arrived.
    pub msg_size: u32,
    /// Response size (== msg_size for echo).
    pub resp_size: u32,
    /// Artificial application processing per RPC (Fig. 10's 250/1,000
    /// cycles), on the host clock.
    pub app_cycles: u64,
    /// Byte-exact echo (copies data; requires resp_size == msg_size).
    pub echo_data: bool,
    pub host_clock: flextoe_sim::Clock,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            port: 7777,
            msg_size: 64,
            resp_size: 64,
            app_cycles: 0,
            echo_data: false,
            host_clock: flextoe_sim::clocks::HOST_2GHZ,
        }
    }
}

struct ServerConn {
    /// Request bytes accumulated but not yet a complete request.
    pending_in: u32,
    /// Echo payload queue (only with echo_data).
    data: VecDeque<u8>,
    /// Response bytes still to transmit (socket buffer was full).
    backlog: u32,
}

/// An RPC server: accepts connections, consumes fixed-size requests,
/// responds after simulated application processing.
pub struct RpcServerApp<S: StackApi> {
    cfg: ServerConfig,
    stack: Option<S>,
    init: Option<StackInit<S>>,
    core: FpcTimer,
    conns: FxHashMap<u32, ServerConn>,
    /// Readiness events of the message being handled (storage reused).
    events: Vec<SockEvent>,
    /// Echo bytes between `recv` and `send` (storage reused).
    scratch: Vec<u8>,
    pub requests: u64,
    pub accepted: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
}

impl<S: StackApi + 'static> RpcServerApp<S> {
    pub fn new(cfg: ServerConfig, init: StackInit<S>) -> Self {
        RpcServerApp {
            core: FpcTimer::new(cfg.host_clock, 1),
            cfg,
            stack: None,
            init: Some(init),
            conns: FxHashMap::default(),
            events: Vec::new(),
            scratch: Vec::new(),
            requests: 0,
            accepted: 0,
            bytes_in: 0,
            bytes_out: 0,
        }
    }

    /// Host-core utilization so far (busy cycles as time).
    pub fn core_busy(&self) -> Duration {
        self.core.busy
    }

    fn handle_events(&mut self, ctx: &mut Ctx<'_>, events: &mut Vec<SockEvent>) {
        for ev in events.drain(..) {
            match ev {
                SockEvent::Accepted { conn, .. } => {
                    self.accepted += 1;
                    self.conns.insert(
                        conn,
                        ServerConn {
                            pending_in: 0,
                            data: VecDeque::new(),
                            backlog: 0,
                        },
                    );
                }
                SockEvent::Readable { conn, .. } => self.drain_rx(ctx, conn),
                SockEvent::Writable { conn, .. } => self.push_response(ctx, conn, 0),
                SockEvent::Eof { conn } => {
                    if let Some(stack) = self.stack.as_mut() {
                        stack.close(ctx, conn);
                    }
                    self.conns.remove(&conn);
                }
                _ => {}
            }
        }
    }

    fn drain_rx(&mut self, ctx: &mut Ctx<'_>, conn: u32) {
        let stack = self.stack.as_mut().unwrap();
        let Some(st) = self.conns.get_mut(&conn) else {
            return;
        };
        if self.cfg.echo_data {
            self.scratch.clear();
            let n = stack.recv(ctx, conn, u32::MAX, &mut self.scratch);
            self.bytes_in += n as u64;
            st.pending_in += n as u32;
            st.data.extend(&self.scratch);
        } else {
            let n = stack.recv_bytes(ctx, conn, u32::MAX);
            self.bytes_in += n as u64;
            st.pending_in += n;
        }
        // process complete requests through the application core
        while st.pending_in >= self.cfg.msg_size {
            st.pending_in -= self.cfg.msg_size;
            self.requests += 1;
            let cycles = self.cfg.app_cycles
                + stack.host_overhead(StackOp::Recv)
                + stack.host_overhead(StackOp::Send)
                + stack.host_overhead(StackOp::Poll);
            let done = self.core.execute(ctx.now(), Cost::new(cycles, 0));
            // self-wake: the response is ready once processing finishes
            ctx.wake(done.saturating_since(ctx.now()), u64::from(conn));
        }
    }

    /// Transmit `extra` fresh response bytes plus any backlog.
    fn push_response(&mut self, ctx: &mut Ctx<'_>, conn: u32, extra: u32) {
        let stack = self.stack.as_mut().unwrap();
        let Some(st) = self.conns.get_mut(&conn) else {
            return;
        };
        st.backlog += extra;
        while st.backlog > 0 {
            let sent = if self.cfg.echo_data {
                let n = st.backlog.min(st.data.len() as u32);
                if n == 0 {
                    break;
                }
                self.scratch.clear();
                self.scratch.extend(st.data.range(..n as usize));
                let sent = stack.send(ctx, conn, &self.scratch);
                st.data.drain(..sent);
                sent as u32
            } else {
                stack.send_bytes(ctx, conn, st.backlog)
            };
            if sent == 0 {
                break; // socket buffer full: resume on Writable
            }
            st.backlog -= sent;
            self.bytes_out += sent as u64;
        }
    }
}

impl<S: StackApi + 'static> Node for RpcServerApp<S> {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        if self.stack.is_none() {
            let init = self.init.take().expect("first message starts the app");
            let mut stack = init(ctx, ctx.self_id());
            stack.listen(ctx, self.cfg.port);
            self.stack = Some(stack);
            return;
        }
        if let Msg::Token(conn) = msg {
            let resp = self.cfg.resp_size;
            self.push_response(ctx, conn as u32, resp);
            return;
        }
        let mut events = std::mem::take(&mut self.events);
        let handed_back = self.stack.as_mut().unwrap().on_msg(ctx, msg, &mut events);
        self.handle_events(ctx, &mut events);
        self.events = events;
        if let Err(m) = handed_back {
            flextoe_sim::mismatch("a stack message or a response wake", &m);
        }
    }

    fn name(&self) -> String {
        "rpc-server".to_string()
    }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
pub enum LoadMode {
    /// Each connection keeps `pipeline` requests in flight.
    Closed { pipeline: u32 },
    /// Poisson arrivals at `rate_rps` across all connections.
    Open { rate_rps: f64 },
}

#[derive(Clone, Copy, Debug)]
pub struct ClientConfig {
    pub server_ip: Ip4,
    pub server_port: u16,
    pub n_conns: u32,
    pub msg_size: u32,
    pub resp_size: u32,
    pub mode: LoadMode,
    /// Responses completed before this instant are not recorded.
    pub warmup: Time,
    /// Stop the simulation after this many measured responses (tests/
    /// fixed-work experiments). `None` = run until the deadline.
    pub stop_after: Option<u64>,
    /// Stagger connection establishment to avoid a SYN burst.
    pub connect_spacing: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            server_ip: Ip4::host(2),
            server_port: 7777,
            n_conns: 1,
            msg_size: 64,
            resp_size: 64,
            mode: LoadMode::Closed { pipeline: 1 },
            warmup: Time::ZERO,
            stop_after: None,
            connect_spacing: Duration::from_us(5),
        }
    }
}

struct ClientConn {
    conn: u32,
    /// Measured response bytes on this connection (fairness experiments).
    measured_bytes: u64,
    /// Send timestamps of in-flight requests (responses return in order).
    outstanding: VecDeque<Time>,
    /// Response bytes received toward the head-of-line response.
    rx_pending: u32,
    /// Request bytes not yet accepted by the socket buffer.
    tx_backlog: u32,
}

/// Self-wake of the open-loop arrival process.
const NEXT_ARRIVAL: u64 = 0;

pub struct RpcClientApp<S: StackApi> {
    cfg: ClientConfig,
    stack: Option<S>,
    init: Option<StackInit<S>>,
    conns: Vec<ClientConn>,
    by_id: FxHashMap<u32, usize>,
    /// Readiness events of the message being handled (storage reused).
    events: Vec<SockEvent>,
    rr: usize,
    started_conns: u32,
    pub connected: u32,
    pub failed: u32,
    /// Latency of measured responses, in nanoseconds.
    pub latency: Histogram,
    pub completed: u64,
    pub measured: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
    pub first_measured_at: Time,
    pub last_measured_at: Time,
}

impl<S: StackApi + 'static> RpcClientApp<S> {
    pub fn new(cfg: ClientConfig, init: StackInit<S>) -> Self {
        RpcClientApp {
            cfg,
            stack: None,
            init: Some(init),
            conns: Vec::new(),
            by_id: FxHashMap::default(),
            events: Vec::new(),
            rr: 0,
            started_conns: 0,
            connected: 0,
            failed: 0,
            latency: Histogram::new(),
            completed: 0,
            measured: 0,
            bytes_in: 0,
            bytes_out: 0,
            first_measured_at: Time::ZERO,
            last_measured_at: Time::ZERO,
        }
    }

    /// Measured throughput in responses/second over the measurement window.
    pub fn throughput_rps(&self) -> f64 {
        if self.measured < 2 {
            return 0.0;
        }
        let span = self
            .last_measured_at
            .saturating_since(self.first_measured_at);
        if span == Duration::ZERO {
            return 0.0;
        }
        (self.measured - 1) as f64 / span.as_secs_f64()
    }

    /// Measured goodput (response bytes) in bits/second.
    pub fn goodput_bps(&self) -> f64 {
        self.throughput_rps() * self.cfg.resp_size as f64 * 8.0
    }

    /// Per-connection measured response bytes (Fig. 16 fairness).
    pub fn per_conn_bytes(&self) -> Vec<u64> {
        self.conns.iter().map(|c| c.measured_bytes).collect()
    }

    fn connect_next(&mut self, ctx: &mut Ctx<'_>) {
        if self.started_conns >= self.cfg.n_conns {
            return;
        }
        let idx = self.started_conns as u64;
        self.started_conns += 1;
        let stack = self.stack.as_mut().unwrap();
        stack.connect(ctx, self.cfg.server_ip, self.cfg.server_port, idx);
        if self.started_conns < self.cfg.n_conns {
            ctx.wake(self.cfg.connect_spacing, Tick);
        }
    }

    fn issue(&mut self, ctx: &mut Ctx<'_>, slot: usize) {
        let st = &mut self.conns[slot];
        st.outstanding.push_back(ctx.now());
        st.tx_backlog += self.cfg.msg_size;
        self.drain_tx(ctx, slot);
    }

    fn drain_tx(&mut self, ctx: &mut Ctx<'_>, slot: usize) {
        let st = &mut self.conns[slot];
        if st.tx_backlog == 0 {
            return;
        }
        let stack = self.stack.as_mut().unwrap();
        let sent = stack.send_bytes(ctx, st.conn, st.tx_backlog);
        st.tx_backlog -= sent;
        self.bytes_out += sent as u64;
    }

    fn on_response(&mut self, ctx: &mut Ctx<'_>, slot: usize) {
        let st = &mut self.conns[slot];
        let sent_at = st.outstanding.pop_front().unwrap_or(ctx.now());
        if ctx.now() >= self.cfg.warmup {
            st.measured_bytes += self.cfg.resp_size as u64;
        }
        self.completed += 1;
        if ctx.now() >= self.cfg.warmup {
            if self.measured == 0 {
                self.first_measured_at = ctx.now();
            }
            self.last_measured_at = ctx.now();
            self.measured += 1;
            self.latency
                .record(ctx.now().saturating_since(sent_at).as_ns());
            if let Some(limit) = self.cfg.stop_after {
                if self.measured >= limit {
                    ctx.halt();
                    return;
                }
            }
        }
        if let LoadMode::Closed { .. } = self.cfg.mode {
            self.issue(ctx, slot);
        }
    }

    fn handle_events(&mut self, ctx: &mut Ctx<'_>, events: &mut Vec<SockEvent>) {
        for ev in events.drain(..) {
            match ev {
                SockEvent::Connected { conn, .. } => {
                    self.connected += 1;
                    let slot = self.conns.len();
                    self.conns.push(ClientConn {
                        conn,
                        measured_bytes: 0,
                        outstanding: VecDeque::new(),
                        rx_pending: 0,
                        tx_backlog: 0,
                    });
                    self.by_id.insert(conn, slot);
                    match self.cfg.mode {
                        LoadMode::Closed { pipeline } => {
                            for _ in 0..pipeline {
                                self.issue(ctx, slot);
                            }
                        }
                        LoadMode::Open { rate_rps } => {
                            // one arrival process, started by the first conn
                            if self.connected == 1 {
                                let gap = ctx.rng.exp(1.0 / rate_rps);
                                ctx.wake(Duration::from_secs_f64(gap), NEXT_ARRIVAL);
                            }
                        }
                    }
                }
                SockEvent::ConnectFailed { .. } => {
                    self.failed += 1;
                }
                SockEvent::Readable { conn, .. } => {
                    let Some(&slot) = self.by_id.get(&conn) else {
                        continue;
                    };
                    let stack = self.stack.as_mut().unwrap();
                    let n = stack.recv_bytes(ctx, conn, u32::MAX);
                    self.bytes_in += n as u64;
                    self.conns[slot].rx_pending += n;
                    while self.conns[slot].rx_pending >= self.cfg.resp_size
                        && !self.conns[slot].outstanding.is_empty()
                        && self.cfg.stop_after.is_none_or(|l| self.measured < l)
                    {
                        self.conns[slot].rx_pending -= self.cfg.resp_size;
                        self.on_response(ctx, slot);
                    }
                }
                SockEvent::Writable { conn, .. } => {
                    if let Some(&slot) = self.by_id.get(&conn) {
                        self.drain_tx(ctx, slot);
                    }
                }
                SockEvent::Eof { .. } | SockEvent::Aborted { .. } | SockEvent::Accepted { .. } => {}
            }
        }
    }
}

impl<S: StackApi + 'static> Node for RpcClientApp<S> {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        if self.stack.is_none() {
            let init = self.init.take().expect("first message starts the app");
            let stack = init(ctx, ctx.self_id());
            self.stack = Some(stack);
            self.connect_next(ctx);
            return;
        }
        match msg {
            Msg::Tick => self.connect_next(ctx),
            Msg::Token(NEXT_ARRIVAL) => {
                if let LoadMode::Open { rate_rps } = self.cfg.mode {
                    if !self.conns.is_empty() {
                        let slot = self.rr % self.conns.len();
                        self.rr += 1;
                        self.issue(ctx, slot);
                    }
                    let gap = ctx.rng.exp(1.0 / rate_rps);
                    ctx.wake(Duration::from_secs_f64(gap), NEXT_ARRIVAL);
                }
            }
            msg => {
                let mut events = std::mem::take(&mut self.events);
                let handed_back = self.stack.as_mut().unwrap().on_msg(ctx, msg, &mut events);
                self.handle_events(ctx, &mut events);
                self.events = events;
                if let Err(m) = handed_back {
                    flextoe_sim::mismatch("a stack message, Tick or an arrival wake", &m);
                }
            }
        }
    }

    fn name(&self) -> String {
        "rpc-client".to_string()
    }
}
