//! The one RPC client: `n_conns` connections to one server, driven by one
//! of three arrival processes ([`Arrival`]) over either [`Wire`] format.
//!
//! Latency runs from a request's generation to its response's
//! completion, so under open-loop overload the queueing delay shows in
//! the tail. A connection that dies — peer close, stack abort (RTO
//! give-up), or failed connect — writes off its unanswered requests
//! (`dead_requests`) and leaves the rotation; a session reconnects after a
//! seeded, jittered backoff, so a healed fault produces a *reconnection
//! storm* with every session on its own schedule.

use std::collections::VecDeque;

use flextoe_sim::{Ctx, Duration, FxHashMap, Histogram, Msg, Node, Tick, Time};
use flextoe_wire::Ip4;

use crate::stack::{SockEvent, StackApi, StackInit};
use crate::wire::{frame_header, pack_token, unpack_token, TxChunk, Wire, ECHO_PORT, FRAME_HDR};

/// When the client issues requests.
#[derive(Clone, Copy, Debug)]
pub enum Arrival {
    /// Each connection keeps `pipeline` requests in flight.
    Closed { pipeline: u32 },
    /// Poisson arrivals at `rate_rps` across all connections, spread
    /// round-robin over the live ones.
    Open { rate_rps: f64 },
    /// Each connection is a session with one request in flight, issued
    /// `think` after the previous response; a dead connection reconnects
    /// after `backoff_base × 2^(attempt-1)` (capped at `backoff_cap`),
    /// ±25% seeded jitter.
    Sessions {
        think: Duration,
        backoff_base: Duration,
        backoff_cap: Duration,
    },
}

#[derive(Clone, Copy, Debug)]
pub struct ClientSpec {
    pub server_ip: Ip4,
    pub server_port: u16,
    pub n_conns: u32,
    pub arrival: Arrival,
    pub wire: Wire,
    /// Responses completed before this instant are not recorded.
    pub warmup: Time,
    /// Halt the simulation after this many measured responses, and issue
    /// nothing more (tests and fixed-work experiments). `None` = run to
    /// the deadline.
    pub stop_after: Option<u64>,
    /// Stagger connection establishment to avoid a SYN burst.
    pub connect_spacing: Duration,
}

impl Default for ClientSpec {
    fn default() -> Self {
        ClientSpec {
            server_ip: Ip4::host(2),
            server_port: ECHO_PORT,
            n_conns: 1,
            arrival: Arrival::Closed { pipeline: 1 },
            wire: Wire::Fixed { req: 64, resp: 64 },
            warmup: Time::ZERO,
            stop_after: None,
            connect_spacing: Duration::from_us(5),
        }
    }
}

/// Test/experiment control: stop generating and close every connection
/// (FIN; the stacks tear the flows down once both sides drain). Open and
/// closed loops still complete what is in flight; sessions write it off.
pub struct CloseAll;
flextoe_sim::custom_msg!(CloseAll);

#[derive(Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// `connect()` posted, waiting for Connected/ConnectFailed.
    Connecting,
    Live(u32),
    /// A session waiting out its backoff before reconnecting.
    BackedOff,
    /// Dead, or closed by `CloseAll`, for good.
    Down,
}

struct Slot {
    state: ConnState,
    /// Invalidates a session's stale timers across state transitions.
    epoch: u32,
    /// A session's consecutive failed attempts since its last good
    /// response (reset on response, not on connect, so a flapping path
    /// keeps growing its backoff).
    attempt: u32,
    ever_connected: bool,
    /// (generated-at, response bytes), FIFO.
    outstanding: VecDeque<(Time, u32)>,
    /// Response bytes received toward the head-of-line response.
    rx_pending: u32,
    tx: VecDeque<TxChunk>,
    /// Measured response bytes (fairness).
    measured_bytes: u64,
}

/// Self-wake of the open-loop arrival process.
const NEXT_ARRIVAL: u64 = 0;

pub struct Client<S: StackApi> {
    cfg: ClientSpec,
    stack: Option<S>,
    init: Option<StackInit<S>>,
    /// One per connection slot, indexed by the `connect` opaque.
    slots: Vec<Slot>,
    /// Slots in the order they first came up (the open-loop rotation).
    order: Vec<usize>,
    by_conn: FxHashMap<u32, usize>,
    /// Readiness events of the message being handled (storage reused).
    events: Vec<SockEvent>,
    rr: usize,
    seq: u32,
    closing: bool,
    /// Connections established (a session's reconnects included).
    pub connected: u32,
    /// Connects that failed (SYN retries gave up, or refused).
    pub failed: u32,
    pub issued: u64,
    pub completed: u64,
    pub measured: u64,
    /// Requests written off because their connection died under them.
    pub dead_requests: u64,
    /// Connections the stack aborted (RTO give-up).
    pub aborted_conns: u64,
    /// Connections the peer closed or reset.
    pub peer_closed: u64,
    /// Session re-establishments (not counting each session's first).
    pub reconnects: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
    /// Generation→completion latency of measured responses, nanoseconds.
    pub latency: Histogram,
    pub first_measured_at: Time,
    pub last_measured_at: Time,
}

impl<S: StackApi + 'static> Client<S> {
    pub fn new(cfg: impl Into<ClientSpec>, init: StackInit<S>) -> Self {
        Client {
            cfg: cfg.into(),
            stack: None,
            init: Some(init),
            slots: Vec::new(),
            order: Vec::new(),
            by_conn: FxHashMap::default(),
            events: Vec::new(),
            rr: 0,
            seq: 0,
            closing: false,
            connected: 0,
            failed: 0,
            issued: 0,
            completed: 0,
            measured: 0,
            dead_requests: 0,
            aborted_conns: 0,
            peer_closed: 0,
            reconnects: 0,
            bytes_in: 0,
            bytes_out: 0,
            latency: Histogram::new(),
            first_measured_at: Time::ZERO,
            last_measured_at: Time::ZERO,
        }
    }

    /// Measured responses/second over the measurement window.
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
        if self.measured == 0 {
            return 0.0;
        }
        let mean_resp = self.measured_resp_bytes() as f64 / self.measured as f64;
        self.throughput_rps() * mean_resp * 8.0
    }

    /// Per-connection measured response bytes (Fig. 16 fairness).
    pub fn per_conn_bytes(&self) -> Vec<u64> {
        self.order
            .iter()
            .map(|&i| self.slots[i].measured_bytes)
            .collect()
    }

    /// Measured response bytes over all connections.
    pub fn measured_resp_bytes(&self) -> u64 {
        self.slots.iter().map(|s| s.measured_bytes).sum()
    }

    /// Requests generated but neither answered nor written off.
    pub fn in_flight(&self) -> usize {
        self.slots.iter().map(|s| s.outstanding.len()).sum()
    }

    /// The `stop_after` work is done: the halt fired once, and from then
    /// on the client issues nothing and measures nothing; what is in
    /// flight still completes, so a run resumed past the halt quiesces.
    fn done(&self) -> bool {
        self.cfg.stop_after.is_some_and(|l| self.measured >= l)
    }

    fn connect_next(&mut self, ctx: &mut Ctx<'_>) {
        let started = self.slots.len() as u32;
        if started >= self.cfg.n_conns || self.closing {
            return;
        }
        self.slots.push(Slot {
            state: ConnState::Connecting,
            epoch: 0,
            attempt: 1,
            ever_connected: false,
            outstanding: VecDeque::new(),
            rx_pending: 0,
            tx: VecDeque::new(),
            measured_bytes: 0,
        });
        let stack = self.stack.as_mut().unwrap();
        stack.connect(
            ctx,
            self.cfg.server_ip,
            self.cfg.server_port,
            started as u64,
        );
        if started + 1 < self.cfg.n_conns {
            ctx.wake(self.cfg.connect_spacing, Tick);
        }
    }

    fn schedule_arrival(&mut self, ctx: &mut Ctx<'_>, rate_rps: f64) {
        let gap = ctx.rng.exp(1.0 / rate_rps);
        ctx.wake(Duration::from_secs_f64(gap), NEXT_ARRIVAL);
    }

    /// An open-loop arrival: one request on the next live connection.
    fn arrive(&mut self, ctx: &mut Ctx<'_>) {
        for _ in 0..self.order.len() {
            let slot = self.order[self.rr % self.order.len()];
            self.rr += 1;
            if matches!(self.slots[slot].state, ConnState::Live(_)) {
                self.issue(ctx, slot);
                return;
            }
        }
        // every connection is dead (or none is up yet): drop the arrival
    }

    /// Queue one request on `slot` and send what the socket takes.
    fn issue(&mut self, ctx: &mut Ctx<'_>, slot: usize) {
        let s = &mut self.slots[slot];
        let (body, resp) = match self.cfg.wire {
            Wire::Fixed { req, resp } => (req, resp),
            Wire::Framed { req, resp } => {
                let req = req.sample(ctx.rng).max(FRAME_HDR);
                let resp = resp.sample(ctx.rng).max(1);
                self.seq = self.seq.wrapping_add(1);
                let hdr = frame_header(req - FRAME_HDR, resp, self.seq);
                s.tx.push_back(TxChunk::Lit(hdr, 0));
                (req - FRAME_HDR, resp)
            }
        };
        // bulk merges into the bulk queued before it: one send covers it
        if body > 0 {
            match s.tx.back_mut() {
                Some(TxChunk::Pad(n)) => *n += body,
                _ => s.tx.push_back(TxChunk::Pad(body)),
            }
        }
        s.outstanding.push_back((ctx.now(), resp));
        self.issued += 1;
        self.drain_tx(ctx, slot);
    }

    fn drain_tx(&mut self, ctx: &mut Ctx<'_>, slot: usize) {
        let s = &mut self.slots[slot];
        let ConnState::Live(conn) = s.state else {
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
                        return; // socket buffer full: resume on Writable
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
        let Some(&slot) = self.by_conn.get(&conn) else {
            return;
        };
        let stack = self.stack.as_mut().unwrap();
        let n = stack.recv_bytes(ctx, conn, u32::MAX);
        self.bytes_in += n as u64;
        self.slots[slot].rx_pending += n;
        loop {
            let measuring = !self.done();
            let s = &mut self.slots[slot];
            let Some(&(sent_at, resp)) = s.outstanding.front() else {
                return;
            };
            if s.rx_pending < resp {
                return;
            }
            s.rx_pending -= resp;
            s.outstanding.pop_front();
            s.attempt = 0; // good response: fresh backoff schedule
            self.completed += 1;
            if ctx.now() >= self.cfg.warmup && measuring {
                if self.measured == 0 {
                    self.first_measured_at = ctx.now();
                }
                self.last_measured_at = ctx.now();
                self.measured += 1;
                s.measured_bytes += resp as u64;
                self.latency
                    .record(ctx.now().saturating_since(sent_at).as_ns());
                if self.done() {
                    ctx.halt();
                }
            }
            if self.done() {
                continue;
            }
            match self.cfg.arrival {
                Arrival::Closed { .. } => self.issue(ctx, slot),
                Arrival::Open { .. } => {}
                Arrival::Sessions { think, .. } => {
                    if !self.closing {
                        let s = &mut self.slots[slot];
                        s.epoch = s.epoch.wrapping_add(1);
                        ctx.wake(think, pack_token(slot as u32, s.epoch));
                    }
                }
            }
        }
    }

    /// `slot`'s connection is gone: write off its unanswered requests, and
    /// back a session off toward a reconnect.
    fn conn_died(&mut self, ctx: &mut Ctx<'_>, slot: usize) {
        let s = &mut self.slots[slot];
        if let ConnState::Live(conn) = s.state {
            self.by_conn.remove(&conn);
        }
        self.dead_requests += s.outstanding.len() as u64;
        s.outstanding.clear();
        s.tx.clear();
        s.rx_pending = 0;
        s.epoch = s.epoch.wrapping_add(1);
        s.state = ConnState::Down;
        let Arrival::Sessions {
            backoff_base,
            backoff_cap,
            ..
        } = self.cfg.arrival
        else {
            return;
        };
        if self.closing {
            return;
        }
        s.state = ConnState::BackedOff;
        s.attempt += 1;
        let base = backoff_base.as_ns().max(1);
        let d = base
            .saturating_mul(1u64 << s.attempt.saturating_sub(1).min(6))
            .min(backoff_cap.as_ns().max(1));
        let delay = Duration::from_ns(ctx.rng.range(d - d / 4, d + d / 4));
        ctx.wake(delay, pack_token(slot as u32, s.epoch));
    }

    /// A session timer fired (reconnect backoff or think time); `epoch`
    /// must match the session's or the wake is stale and ignored.
    fn on_session_wake(&mut self, ctx: &mut Ctx<'_>, slot: usize, epoch: u32) {
        if self.slots[slot].epoch != epoch || self.closing || self.done() {
            return;
        }
        let s = &mut self.slots[slot];
        match s.state {
            ConnState::BackedOff => {
                s.state = ConnState::Connecting;
                let stack = self.stack.as_mut().unwrap();
                stack.connect(ctx, self.cfg.server_ip, self.cfg.server_port, slot as u64);
            }
            ConnState::Live(_) if s.outstanding.is_empty() => self.issue(ctx, slot),
            _ => {}
        }
    }

    /// `CloseAll`: stop issuing and FIN every live connection. A session
    /// is done for good: its request is written off.
    fn close_all(&mut self, ctx: &mut Ctx<'_>) {
        self.closing = true;
        let sessions = matches!(self.cfg.arrival, Arrival::Sessions { .. });
        for slot in 0..self.slots.len() {
            if let ConnState::Live(conn) = self.slots[slot].state {
                self.stack.as_mut().unwrap().close(ctx, conn);
            }
            if sessions {
                self.conn_died(ctx, slot);
            }
        }
    }

    fn handle_events(&mut self, ctx: &mut Ctx<'_>, events: &mut Vec<SockEvent>) {
        for ev in events.drain(..) {
            match ev {
                SockEvent::Connected { conn, opaque } => {
                    let slot = opaque as usize;
                    if self.closing {
                        self.slots[slot].state = ConnState::Down;
                        self.stack.as_mut().unwrap().close(ctx, conn);
                        continue;
                    }
                    self.connected += 1;
                    let s = &mut self.slots[slot];
                    if s.ever_connected {
                        self.reconnects += 1;
                    } else {
                        self.order.push(slot);
                    }
                    s.ever_connected = true;
                    s.state = ConnState::Live(conn);
                    s.epoch = s.epoch.wrapping_add(1);
                    self.by_conn.insert(conn, slot);
                    match self.cfg.arrival {
                        Arrival::Closed { pipeline } => {
                            for _ in 0..pipeline {
                                self.issue(ctx, slot);
                            }
                        }
                        // one arrival process, started by the first conn
                        Arrival::Open { rate_rps } => {
                            if self.connected == 1 {
                                self.schedule_arrival(ctx, rate_rps);
                            }
                        }
                        Arrival::Sessions { .. } => self.issue(ctx, slot),
                    }
                }
                SockEvent::ConnectFailed { opaque } => {
                    self.failed += 1;
                    self.conn_died(ctx, opaque as usize);
                }
                SockEvent::Readable { conn, .. } => self.on_readable(ctx, conn),
                SockEvent::Writable { conn, .. } => {
                    if let Some(&slot) = self.by_conn.get(&conn) {
                        self.drain_tx(ctx, slot);
                    }
                }
                SockEvent::Eof { conn } => {
                    if let Some(&slot) = self.by_conn.get(&conn) {
                        self.peer_closed += 1;
                        self.stack.as_mut().unwrap().close(ctx, conn);
                        self.conn_died(ctx, slot);
                    }
                }
                SockEvent::Aborted { conn } => {
                    if let Some(&slot) = self.by_conn.get(&conn) {
                        // no close: the flow is already torn down
                        self.aborted_conns += 1;
                        self.conn_died(ctx, slot);
                    }
                }
                SockEvent::Accepted { .. } => {}
            }
        }
    }
}

impl<S: StackApi + 'static> Node for Client<S> {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        if self.stack.is_none() {
            let init = self.init.take().expect("first message starts the app");
            self.stack = Some(init(ctx, ctx.self_id()));
            self.connect_next(ctx);
            return;
        }
        match (msg, self.cfg.arrival) {
            (Msg::Tick, _) => self.connect_next(ctx),
            (Msg::Token(NEXT_ARRIVAL), Arrival::Open { rate_rps }) => {
                if self.closing || self.done() {
                    return; // arrival process parked
                }
                self.arrive(ctx);
                self.schedule_arrival(ctx, rate_rps);
            }
            (Msg::Token(t), Arrival::Sessions { .. })
                if (unpack_token(t).0 as usize) < self.slots.len() =>
            {
                let (slot, epoch) = unpack_token(t);
                self.on_session_wake(ctx, slot as usize, epoch);
            }
            (msg, _) => {
                let mut events = std::mem::take(&mut self.events);
                let handed_back = self.stack.as_mut().unwrap().on_msg(ctx, msg, &mut events);
                self.handle_events(ctx, &mut events);
                self.events = events;
                let Err(msg) = handed_back else { return };
                if let Err(m) = flextoe_sim::try_cast::<CloseAll>(msg) {
                    flextoe_sim::mismatch("a stack message, Tick, a wake or CloseAll", &m);
                }
                self.close_all(ctx);
            }
        }
    }

    fn name(&self) -> String {
        match (self.cfg.arrival, self.cfg.wire) {
            (Arrival::Sessions { .. }, _) => "session-client",
            (_, Wire::Framed { .. }) => "openloop-client",
            (_, Wire::Fixed { .. }) => "rpc-client",
        }
        .to_string()
    }
}
