//! Reconnecting session client: long-lived closed-loop sessions that
//! survive faults. Each session keeps exactly one framed request in
//! flight; when its connection dies — peer reset, control-plane abort
//! (RTO give-up), or connect failure — the session backs off with seeded
//! exponential backoff + jitter and reconnects, resuming where it left
//! off. A leaf-switch kill therefore produces a *reconnection storm*
//! when the switch heals: every session on that leaf retries on its own
//! jittered schedule.
//!
//! Speaks the same framed protocol as [`crate::openloop`]
//! (16-byte header, descriptor-only bulk), so it targets
//! [`crate::FramedServerApp`] unchanged.

use std::collections::VecDeque;

use flextoe_sim::{Ctx, Duration, FxHashMap, Histogram, Msg, Node, Time};
use flextoe_wire::Ip4;

use crate::openloop::{frame_header, pack_token, unpack_token, CloseAll, TxChunk, FRAME_HDR};
use crate::rpc::StackInit;
use crate::stack::{SockEvent, StackApi};

#[derive(Clone, Copy, Debug)]
pub struct SessionConfig {
    pub server_ip: Ip4,
    pub server_port: u16,
    pub n_sessions: u32,
    /// Total request size including the 16-byte header (clamped up).
    pub req_size: u32,
    pub resp_size: u32,
    /// Gap between receiving a response and issuing the next request.
    pub think: Duration,
    /// Reconnect backoff: `base × 2^(attempt-1)` (capped at `backoff_cap`),
    /// ±25% seeded jitter.
    pub backoff_base: Duration,
    pub backoff_cap: Duration,
    /// Stagger initial connects to avoid a SYN burst.
    pub connect_spacing: Duration,
    /// Responses completed before this instant are not recorded.
    pub warmup: Time,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            server_ip: Ip4::host(2),
            server_port: 7979,
            n_sessions: 4,
            req_size: 64,
            resp_size: 256,
            think: Duration::from_us(10),
            backoff_base: Duration::from_us(200),
            backoff_cap: Duration::from_ms(5),
            connect_spacing: Duration::from_us(1),
            warmup: Time::ZERO,
        }
    }
}

enum SessState {
    /// `connect()` posted, waiting for Connected/ConnectFailed.
    Connecting,
    Live {
        conn: u32,
    },
    /// Waiting out a backoff timer before reconnecting.
    BackedOff,
    /// CloseAll received: the session is done for good.
    Parked,
}

struct Session {
    state: SessState,
    /// Invalidates stale timers across state transitions.
    epoch: u32,
    /// Consecutive failed/aborted attempts since the last good response
    /// (reset on response, not on connect, so a flapping path keeps
    /// growing its backoff).
    attempt: u32,
    ever_connected: bool,
    /// (issued-at, expected response bytes) — at most one (closed loop).
    outstanding: Option<(Time, u32)>,
    rx_pending: u32,
    tx: VecDeque<TxChunk>,
}

/// Closed-loop framed-RPC client with automatic reconnect.
pub struct SessionClientApp<S: StackApi> {
    cfg: SessionConfig,
    stack: Option<S>,
    init: Option<StackInit<S>>,
    sessions: Vec<Session>,
    by_conn: FxHashMap<u32, usize>,
    /// Readiness events of the message being handled (storage reused).
    events: Vec<SockEvent>,
    started: u32,
    seq: u32,
    closing: bool,
    pub issued: u64,
    pub completed: u64,
    pub measured: u64,
    /// Requests written off because their connection died under them.
    pub dead_requests: u64,
    /// Connections the control plane aborted (RTO give-up).
    pub aborted_conns: u64,
    /// Connections the peer closed/reset (EOF while we expected more).
    pub peer_closed: u64,
    /// Successful re-establishments (not counting each session's first).
    pub reconnects: u64,
    pub connect_failures: u64,
    pub bytes_out: u64,
    pub bytes_in: u64,
    /// Issue→completion latency of measured responses, nanoseconds.
    pub latency: Histogram,
    pub first_measured_at: Time,
    pub last_measured_at: Time,
}

impl<S: StackApi + 'static> SessionClientApp<S> {
    pub fn new(cfg: SessionConfig, init: StackInit<S>) -> Self {
        SessionClientApp {
            cfg,
            stack: None,
            init: Some(init),
            sessions: Vec::new(),
            by_conn: FxHashMap::default(),
            events: Vec::new(),
            started: 0,
            seq: 0,
            closing: false,
            issued: 0,
            completed: 0,
            measured: 0,
            dead_requests: 0,
            aborted_conns: 0,
            peer_closed: 0,
            reconnects: 0,
            connect_failures: 0,
            bytes_out: 0,
            bytes_in: 0,
            latency: Histogram::new(),
            first_measured_at: Time::ZERO,
            last_measured_at: Time::ZERO,
        }
    }

    /// Requests issued but not yet answered or written off.
    pub fn in_flight(&self) -> usize {
        self.sessions
            .iter()
            .filter(|s| s.outstanding.is_some())
            .count()
    }

    /// Sessions currently holding a live connection.
    pub fn live_sessions(&self) -> usize {
        self.sessions
            .iter()
            .filter(|s| matches!(s.state, SessState::Live { .. }))
            .count()
    }

    fn connect_next(&mut self, ctx: &mut Ctx<'_>) {
        if self.started >= self.cfg.n_sessions || self.closing {
            return;
        }
        let idx = self.started as u64;
        self.started += 1;
        self.sessions.push(Session {
            state: SessState::Connecting,
            epoch: 0,
            attempt: 1,
            ever_connected: false,
            outstanding: None,
            rx_pending: 0,
            tx: VecDeque::new(),
        });
        let stack = self.stack.as_mut().unwrap();
        stack.connect(ctx, self.cfg.server_ip, self.cfg.server_port, idx);
        if self.started < self.cfg.n_sessions {
            ctx.wake(self.cfg.connect_spacing, flextoe_sim::Tick);
        }
    }

    /// Seeded exponential backoff with ±25% jitter for attempt `n` (1-based).
    fn backoff(&self, ctx: &mut Ctx<'_>, attempt: u32) -> Duration {
        let base = self.cfg.backoff_base.as_ns().max(1);
        let d = base
            .saturating_mul(1u64 << attempt.saturating_sub(1).min(6))
            .min(self.cfg.backoff_cap.as_ns().max(1));
        Duration::from_ns(ctx.rng.range(d - d / 4, d + d / 4))
    }

    /// The session's connection died; write off its request and schedule a
    /// jittered reconnect.
    fn back_off(&mut self, ctx: &mut Ctx<'_>, session: usize) {
        let s = &mut self.sessions[session];
        if let SessState::Live { conn } = s.state {
            self.by_conn.remove(&conn);
        }
        if s.outstanding.take().is_some() {
            self.dead_requests += 1;
        }
        s.tx.clear();
        s.rx_pending = 0;
        s.epoch = s.epoch.wrapping_add(1);
        if self.closing {
            s.state = SessState::Parked;
            return;
        }
        s.state = SessState::BackedOff;
        s.attempt += 1;
        let (epoch, attempt) = (s.epoch, s.attempt);
        let delay = self.backoff(ctx, attempt);
        ctx.wake(delay, pack_token(session as u32, epoch));
    }

    /// Issue the session's next request (closed loop: exactly one out).
    fn issue(&mut self, ctx: &mut Ctx<'_>, session: usize) {
        let req = self.cfg.req_size.max(FRAME_HDR);
        let resp = self.cfg.resp_size.max(1);
        self.seq = self.seq.wrapping_add(1);
        let hdr = frame_header(req - FRAME_HDR, resp, self.seq);
        let s = &mut self.sessions[session];
        debug_assert!(s.outstanding.is_none(), "closed loop: one request out");
        s.outstanding = Some((ctx.now(), resp));
        s.tx.push_back(TxChunk::Lit(hdr, 0));
        if req > FRAME_HDR {
            s.tx.push_back(TxChunk::Pad(req - FRAME_HDR));
        }
        self.issued += 1;
        self.drain_tx(ctx, session);
    }

    fn drain_tx(&mut self, ctx: &mut Ctx<'_>, session: usize) {
        let s = &mut self.sessions[session];
        let SessState::Live { conn } = s.state else {
            return;
        };
        let stack = self.stack.as_mut().unwrap();
        while let Some(chunk) = s.tx.front_mut() {
            match chunk {
                TxChunk::Lit(data, off) => {
                    let sent = stack.send(ctx, conn, &data[*off..]);
                    *off += sent;
                    self.bytes_out += sent as u64;
                    if *off < data.len() {
                        return; // buffer full: resume on Writable
                    }
                }
                TxChunk::Pad(n) => {
                    let sent = stack.send_bytes(ctx, conn, *n);
                    *n -= sent;
                    self.bytes_out += sent as u64;
                    if *n > 0 {
                        return;
                    }
                }
            }
            s.tx.pop_front();
        }
    }

    fn on_readable(&mut self, ctx: &mut Ctx<'_>, conn: u32) {
        let Some(&session) = self.by_conn.get(&conn) else {
            return;
        };
        let stack = self.stack.as_mut().unwrap();
        let n = stack.recv_bytes(ctx, conn, u32::MAX);
        self.bytes_in += n as u64;
        let s = &mut self.sessions[session];
        s.rx_pending += n;
        let Some((sent_at, resp)) = s.outstanding else {
            return;
        };
        if s.rx_pending < resp {
            return;
        }
        s.rx_pending -= resp;
        s.outstanding = None;
        s.attempt = 0; // good response: fresh backoff schedule next failure
        self.completed += 1;
        if ctx.now() >= self.cfg.warmup {
            if self.measured == 0 {
                self.first_measured_at = ctx.now();
            }
            self.last_measured_at = ctx.now();
            self.measured += 1;
            self.latency
                .record(ctx.now().saturating_since(sent_at).as_ns());
        }
        if self.closing {
            return;
        }
        // think, then issue the next request
        let s = &mut self.sessions[session];
        s.epoch = s.epoch.wrapping_add(1);
        let epoch = s.epoch;
        ctx.wake(self.cfg.think, pack_token(session as u32, epoch));
    }

    /// A per-session timer fired (reconnect backoff or think time, sent
    /// as the self-wake token `(session, epoch)`); `epoch` must match the
    /// session's current epoch or the wake is stale and ignored.
    fn on_wake(&mut self, ctx: &mut Ctx<'_>, session: u32, epoch: u32) {
        let session = session as usize;
        let s = &mut self.sessions[session];
        if s.epoch != epoch || self.closing {
            return; // stale timer (state changed since it was armed)
        }
        match s.state {
            SessState::BackedOff => {
                s.state = SessState::Connecting;
                let stack = self.stack.as_mut().unwrap();
                stack.connect(
                    ctx,
                    self.cfg.server_ip,
                    self.cfg.server_port,
                    session as u64,
                );
            }
            SessState::Live { .. } => {
                if s.outstanding.is_none() {
                    self.issue(ctx, session);
                }
            }
            SessState::Connecting | SessState::Parked => {}
        }
    }

    /// CloseAll: park every session for good and FIN the live connections.
    fn close_all(&mut self, ctx: &mut Ctx<'_>) {
        self.closing = true;
        let stack = self.stack.as_mut().unwrap();
        for s in &mut self.sessions {
            if let SessState::Live { conn } = s.state {
                self.by_conn.remove(&conn);
                stack.close(ctx, conn);
            }
            s.state = SessState::Parked;
            if s.outstanding.take().is_some() {
                self.dead_requests += 1;
            }
            s.tx.clear();
        }
    }

    fn handle_events(&mut self, ctx: &mut Ctx<'_>, events: &mut Vec<SockEvent>) {
        for ev in events.drain(..) {
            match ev {
                SockEvent::Connected { conn, opaque } => {
                    let session = opaque as usize;
                    let s = &mut self.sessions[session];
                    if self.closing {
                        s.state = SessState::Parked;
                        self.stack.as_mut().unwrap().close(ctx, conn);
                        continue;
                    }
                    if s.ever_connected {
                        self.reconnects += 1;
                    }
                    s.ever_connected = true;
                    s.state = SessState::Live { conn };
                    s.epoch = s.epoch.wrapping_add(1);
                    self.by_conn.insert(conn, session);
                    self.issue(ctx, session);
                }
                SockEvent::ConnectFailed { opaque } => {
                    self.connect_failures += 1;
                    self.back_off(ctx, opaque as usize);
                }
                SockEvent::Readable { conn, .. } => self.on_readable(ctx, conn),
                SockEvent::Writable { conn, .. } => {
                    if let Some(&session) = self.by_conn.get(&conn) {
                        self.drain_tx(ctx, session);
                    }
                }
                SockEvent::Eof { conn } => {
                    if let Some(&session) = self.by_conn.get(&conn) {
                        self.peer_closed += 1;
                        if let Some(stack) = self.stack.as_mut() {
                            stack.close(ctx, conn);
                        }
                        self.back_off(ctx, session);
                    }
                }
                SockEvent::Aborted { conn } => {
                    if let Some(&session) = self.by_conn.get(&conn) {
                        self.aborted_conns += 1;
                        // no close: the flow is already torn down NIC-side
                        self.back_off(ctx, session);
                    }
                }
                SockEvent::Accepted { .. } => {}
            }
        }
    }
}

impl<S: StackApi + 'static> Node for SessionClientApp<S> {
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
            Msg::Token(t) => {
                let (session, epoch) = unpack_token(t);
                self.on_wake(ctx, session, epoch);
            }
            msg => {
                let mut events = std::mem::take(&mut self.events);
                let handed_back = self.stack.as_mut().unwrap().on_msg(ctx, msg, &mut events);
                self.handle_events(ctx, &mut events);
                self.events = events;
                let Err(msg) = handed_back else { return };
                let _ = flextoe_sim::cast::<CloseAll>(msg);
                self.close_all(ctx);
            }
        }
    }

    fn name(&self) -> String {
        "session-client".to_string()
    }
}
