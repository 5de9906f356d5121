//! Open-loop traffic generation: Poisson arrival processes driving
//! hundreds-to-thousands of concurrent connections per host with
//! heavy-tailed RPC sizes — the load pattern that pressures the per-flow
//! state hierarchy (WorkPool, PktBufPool, connection-state caches) the
//! way the paper's connection-scalability experiment (Fig. 13) does.
//!
//! Unlike the closed-loop echo client, arrivals here do not wait for
//! completions: a request is *generated* by the Poisson process and its
//! latency is measured from generation to response completion, so queueing
//! delay under overload is visible in the tail.
//!
//! ## Framing
//!
//! Requests and responses vary in size per RPC, so the byte stream is
//! framed: every request starts with a 16-byte header (magic, extra
//! request bytes, response length, sequence cookie) written as real data;
//! the remaining request bytes and the entire response travel as
//! descriptor-only bulk (`send_bytes`). Responses complete strictly in
//! request order per connection — TCP byte-stream order — which the
//! client's per-connection FIFO relies on.

use std::collections::VecDeque;

use flextoe_nfp::{Cost, FpcTimer};
use flextoe_sim::{Ctx, Duration, FxHashMap, Histogram, Msg, Node, Rng, Tick, Time};
use flextoe_wire::Ip4;

use crate::rpc::StackInit;
use crate::stack::{SockEvent, StackApi, StackOp};

/// Bytes of real framing data at the head of every request.
pub const FRAME_HDR: u32 = 16;
const MAGIC: u32 = 0x4652_5043; // "FRPC"

/// RPC size distribution. `Pareto` is the heavy-tailed option (bounded
/// Pareto via inverse-CDF sampling): most RPCs are small, a fat tail is
/// large — the classic datacenter mix.
#[derive(Clone, Copy, Debug)]
pub enum SizeDist {
    Fixed(u32),
    /// Uniform in `[lo, hi]`.
    Uniform {
        lo: u32,
        hi: u32,
    },
    /// Bounded Pareto on `[min, max]` with shape `alpha` (smaller alpha =
    /// heavier tail; alpha ≤ 1 has unbounded mean on the unbounded form).
    Pareto {
        alpha: f64,
        min: u32,
        max: u32,
    },
}

impl SizeDist {
    pub fn sample(&self, rng: &mut Rng) -> u32 {
        match *self {
            SizeDist::Fixed(v) => v,
            SizeDist::Uniform { lo, hi } => rng.range(lo as u64, hi as u64) as u32,
            SizeDist::Pareto { alpha, min, max } => {
                let (xm, xx) = (min.max(1) as f64, max.max(min.max(1)) as f64);
                let u = rng.f64();
                let ratio = (xm / xx).powf(alpha);
                let x = xm / (1.0 - u * (1.0 - ratio)).powf(1.0 / alpha);
                (x as u32).clamp(min, max)
            }
        }
    }

    /// Expected value (experiment load accounting).
    pub fn mean(&self) -> f64 {
        match *self {
            SizeDist::Fixed(v) => v as f64,
            SizeDist::Uniform { lo, hi } => (lo as f64 + hi as f64) / 2.0,
            SizeDist::Pareto { alpha, min, max } => {
                // mean of the bounded Pareto on [xm, xx]
                let (xm, xx) = (min.max(1) as f64, max.max(min.max(1)) as f64);
                if (alpha - 1.0).abs() < 1e-9 {
                    let h = xm / (1.0 - xm / xx);
                    return h * (xx / xm).ln();
                }
                let num = xm.powf(alpha) / (1.0 - (xm / xx).powf(alpha));
                num * alpha / (alpha - 1.0)
                    * (1.0 / xm.powf(alpha - 1.0) - 1.0 / xx.powf(alpha - 1.0))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
pub struct FramedServerConfig {
    pub port: u16,
    /// Artificial application processing per RPC (host cycles).
    pub app_cycles: u64,
    pub host_clock: flextoe_sim::Clock,
}

impl Default for FramedServerConfig {
    fn default() -> Self {
        FramedServerConfig {
            port: 7979,
            app_cycles: 0,
            host_clock: flextoe_sim::clocks::HOST_2GHZ,
        }
    }
}

struct FramedConn {
    hdr: [u8; FRAME_HDR as usize],
    hdr_have: usize,
    /// Request payload bytes still to consume for the current request.
    req_remaining: u32,
    /// Response length parsed from the current request's header.
    resp_next: u32,
    /// Response bytes accepted for transmission but blocked on buffer
    /// space.
    backlog: u32,
}

/// Two words in one self-wake `Msg::Token`. The framed server's wake is
/// `(conn, resp)`: "application processing of one request on `conn`
/// finished; transmit its `resp` bytes".
pub(crate) fn pack_token(hi: u32, lo: u32) -> u64 {
    u64::from(hi) << 32 | u64::from(lo)
}

pub(crate) fn unpack_token(t: u64) -> (u32, u32) {
    ((t >> 32) as u32, t as u32)
}

/// Serves the framed open-loop protocol: parses request headers, consumes
/// request payloads, responds with the requested number of bytes after
/// simulated application processing.
pub struct FramedServerApp<S: StackApi> {
    cfg: FramedServerConfig,
    stack: Option<S>,
    init: Option<StackInit<S>>,
    core: FpcTimer,
    conns: FxHashMap<u32, FramedConn>,
    /// Readiness events of the message being handled (storage reused).
    events: Vec<SockEvent>,
    /// Header bytes on their way from `recv` into a connection's `hdr`.
    scratch: Vec<u8>,
    pub requests: u64,
    pub accepted: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
    /// Requests whose header failed the magic check (0 on a healthy run).
    pub bad_frames: u64,
    /// Connections the control plane aborted under us (RTO give-up).
    pub aborted: u64,
}

impl<S: StackApi + 'static> FramedServerApp<S> {
    pub fn new(cfg: FramedServerConfig, init: StackInit<S>) -> Self {
        FramedServerApp {
            core: FpcTimer::new(cfg.host_clock, 1),
            cfg,
            stack: None,
            init: Some(init),
            conns: FxHashMap::default(),
            events: Vec::new(),
            scratch: Vec::with_capacity(FRAME_HDR as usize),
            requests: 0,
            accepted: 0,
            bytes_in: 0,
            bytes_out: 0,
            bad_frames: 0,
            aborted: 0,
        }
    }

    /// Host-core utilization so far (busy cycles as time).
    pub fn core_busy(&self) -> Duration {
        self.core.busy
    }

    pub fn open_conns(&self) -> usize {
        self.conns.len()
    }

    fn handle_events(&mut self, ctx: &mut Ctx<'_>, events: &mut Vec<SockEvent>) {
        for ev in events.drain(..) {
            match ev {
                SockEvent::Accepted { conn, .. } => {
                    self.accepted += 1;
                    self.conns.insert(
                        conn,
                        FramedConn {
                            hdr: [0; FRAME_HDR as usize],
                            hdr_have: 0,
                            req_remaining: 0,
                            resp_next: 0,
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
                SockEvent::Aborted { conn } => {
                    // control plane already tore the flow down; just drop
                    // the framing state (no FIN to send on a dead conn)
                    self.aborted += 1;
                    self.conns.remove(&conn);
                }
                _ => {}
            }
        }
    }

    /// Advance the framing state machine as far as the readable bytes go.
    fn drain_rx(&mut self, ctx: &mut Ctx<'_>, conn: u32) {
        loop {
            let stack = self.stack.as_mut().unwrap();
            let Some(st) = self.conns.get_mut(&conn) else {
                return;
            };
            if st.hdr_have < FRAME_HDR as usize {
                // the header travels as real bytes: read exactly the rest
                let want = FRAME_HDR - st.hdr_have as u32;
                self.scratch.clear();
                let got = stack.recv(ctx, conn, want, &mut self.scratch);
                if got == 0 {
                    return;
                }
                st.hdr[st.hdr_have..st.hdr_have + got].copy_from_slice(&self.scratch);
                st.hdr_have += got;
                self.bytes_in += got as u64;
                if st.hdr_have < FRAME_HDR as usize {
                    continue; // maybe more readable bytes
                }
                let hdr = st.hdr;
                let word =
                    |i: usize| u32::from_le_bytes([hdr[i], hdr[i + 1], hdr[i + 2], hdr[i + 3]]);
                if word(0) != MAGIC {
                    // byte-stream desync: the length fields are garbage
                    // (up to ~4 GiB) — kill the connection rather than
                    // consume and answer a garbage-sized request
                    self.bad_frames += 1;
                    stack.close(ctx, conn);
                    self.conns.remove(&conn);
                    return;
                }
                st.req_remaining = word(4);
                st.resp_next = word(8);
            }
            let st = self.conns.get_mut(&conn).unwrap();
            if st.req_remaining > 0 {
                let n = stack.recv_bytes(ctx, conn, st.req_remaining);
                if n == 0 {
                    return;
                }
                st.req_remaining -= n;
                self.bytes_in += n as u64;
                if st.req_remaining > 0 {
                    return;
                }
            }
            // request complete: charge the application core, then respond
            let resp = st.resp_next;
            st.hdr_have = 0;
            self.requests += 1;
            let cycles = self.cfg.app_cycles
                + stack.host_overhead(StackOp::Recv)
                + stack.host_overhead(StackOp::Send)
                + stack.host_overhead(StackOp::Poll);
            let done = self.core.execute(ctx.now(), Cost::new(cycles, 0));
            ctx.wake(done.saturating_since(ctx.now()), pack_token(conn, resp));
        }
    }

    fn push_response(&mut self, ctx: &mut Ctx<'_>, conn: u32, extra: u32) {
        let stack = self.stack.as_mut().unwrap();
        let Some(st) = self.conns.get_mut(&conn) else {
            return;
        };
        st.backlog += extra;
        while st.backlog > 0 {
            let sent = stack.send_bytes(ctx, conn, st.backlog);
            if sent == 0 {
                break; // socket buffer full: resume on Writable
            }
            st.backlog -= sent;
            self.bytes_out += sent as u64;
        }
    }
}

impl<S: StackApi + 'static> Node for FramedServerApp<S> {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        if self.stack.is_none() {
            let init = self.init.take().expect("first message starts the app");
            let mut stack = init(ctx, ctx.self_id());
            stack.listen(ctx, self.cfg.port);
            self.stack = Some(stack);
            return;
        }
        if let Msg::Token(t) = msg {
            let (conn, resp) = unpack_token(t);
            self.push_response(ctx, conn, resp);
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
        "framed-server".to_string()
    }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
pub struct OpenLoopConfig {
    pub server_ip: Ip4,
    pub server_port: u16,
    pub n_conns: u32,
    /// Aggregate Poisson arrival rate (requests/second over all conns).
    pub rate_rps: f64,
    /// Total request size including the 16-byte header (clamped up).
    pub req_size: SizeDist,
    pub resp_size: SizeDist,
    /// Responses completed before this instant are not recorded.
    pub warmup: Time,
    /// Halt the simulation after this many measured responses.
    pub stop_after: Option<u64>,
    /// Stagger connection establishment to avoid a SYN burst.
    pub connect_spacing: Duration,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        OpenLoopConfig {
            server_ip: Ip4::host(2),
            server_port: 7979,
            n_conns: 1,
            rate_rps: 100_000.0,
            req_size: SizeDist::Fixed(FRAME_HDR),
            resp_size: SizeDist::Fixed(64),
            warmup: Time::ZERO,
            stop_after: None,
            connect_spacing: Duration::from_us(1),
        }
    }
}

/// Unsent request bytes: the literal header (and how much of it went
/// out), then descriptor-only bulk.
pub(crate) enum TxChunk {
    Lit([u8; FRAME_HDR as usize], usize),
    Pad(u32),
}

/// The 16 bytes of real data at the head of a framed request.
pub(crate) fn frame_header(extra_req: u32, resp: u32, seq: u32) -> [u8; FRAME_HDR as usize] {
    let mut hdr = [0; FRAME_HDR as usize];
    for (word, v) in hdr.chunks_exact_mut(4).zip([MAGIC, extra_req, resp, seq]) {
        word.copy_from_slice(&v.to_le_bytes());
    }
    hdr
}

struct OlConn {
    conn: u32,
    /// (generated-at, expected response bytes), FIFO per connection.
    outstanding: VecDeque<(Time, u32)>,
    rx_pending: u32,
    tx: VecDeque<TxChunk>,
    measured_resp_bytes: u64,
    /// Dead connections (peer closed / reset) leave the rotation; their
    /// unanswered requests are written off.
    alive: bool,
}

/// Self-wake of the Poisson arrival process.
const NEXT_ARRIVAL: u64 = 0;

/// Test/experiment control: stop generating and close every connection
/// (FIN; the control planes tear the flows down once both sides drain).
pub struct CloseAll;
flextoe_sim::custom_msg!(CloseAll);

/// Open-loop framed-RPC client: one Poisson arrival process spreads
/// requests round-robin over `n_conns` connections.
pub struct OpenLoopClientApp<S: StackApi> {
    cfg: OpenLoopConfig,
    stack: Option<S>,
    init: Option<StackInit<S>>,
    conns: Vec<OlConn>,
    by_id: FxHashMap<u32, usize>,
    /// Readiness events of the message being handled (storage reused).
    events: Vec<SockEvent>,
    rr: usize,
    started_conns: u32,
    seq: u32,
    closing: bool,
    pub connected: u32,
    pub failed: u32,
    /// Generation→completion latency of measured responses, nanoseconds.
    pub latency: Histogram,
    pub issued: u64,
    /// Requests written off because their connection died.
    pub dead_requests: u64,
    /// Connections the control plane aborted (RTO give-up on a blackholed
    /// path); their unanswered requests land in `dead_requests`.
    pub aborted_conns: u64,
    pub completed: u64,
    pub measured: u64,
    pub bytes_out: u64,
    pub bytes_in: u64,
    pub first_measured_at: Time,
    pub last_measured_at: Time,
}

impl<S: StackApi + 'static> OpenLoopClientApp<S> {
    pub fn new(cfg: OpenLoopConfig, init: StackInit<S>) -> Self {
        OpenLoopClientApp {
            cfg,
            stack: None,
            init: Some(init),
            conns: Vec::new(),
            by_id: FxHashMap::default(),
            events: Vec::new(),
            rr: 0,
            started_conns: 0,
            seq: 0,
            closing: false,
            connected: 0,
            failed: 0,
            latency: Histogram::new(),
            issued: 0,
            dead_requests: 0,
            aborted_conns: 0,
            completed: 0,
            measured: 0,
            bytes_out: 0,
            bytes_in: 0,
            first_measured_at: Time::ZERO,
            last_measured_at: Time::ZERO,
        }
    }

    /// Measured response throughput over the measurement window.
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

    /// Measured (post-warmup) response bytes, host-fairness numerator.
    pub fn measured_resp_bytes(&self) -> u64 {
        self.conns.iter().map(|c| c.measured_resp_bytes).sum()
    }

    /// Requests generated but not yet answered (open-loop backlog).
    pub fn in_flight(&self) -> usize {
        self.conns.iter().map(|c| c.outstanding.len()).sum()
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

    fn schedule_arrival(&mut self, ctx: &mut Ctx<'_>) {
        let gap = ctx.rng.exp(1.0 / self.cfg.rate_rps);
        ctx.wake(Duration::from_secs_f64(gap), NEXT_ARRIVAL);
    }

    /// Generate one request on the next live connection (round-robin).
    fn generate(&mut self, ctx: &mut Ctx<'_>) {
        if self.conns.is_empty() {
            return;
        }
        let mut slot = self.rr % self.conns.len();
        let mut scanned = 0;
        while !self.conns[slot].alive {
            self.rr += 1;
            slot = self.rr % self.conns.len();
            scanned += 1;
            if scanned == self.conns.len() {
                return; // every connection is dead: drop the arrival
            }
        }
        self.rr += 1;
        let req = self.cfg.req_size.sample(ctx.rng).max(FRAME_HDR);
        let resp = self.cfg.resp_size.sample(ctx.rng).max(1);
        self.seq = self.seq.wrapping_add(1);
        let hdr = frame_header(req - FRAME_HDR, resp, self.seq);
        let st = &mut self.conns[slot];
        st.outstanding.push_back((ctx.now(), resp));
        st.tx.push_back(TxChunk::Lit(hdr, 0));
        if req > FRAME_HDR {
            st.tx.push_back(TxChunk::Pad(req - FRAME_HDR));
        }
        self.issued += 1;
        self.drain_tx(ctx, slot);
    }

    fn drain_tx(&mut self, ctx: &mut Ctx<'_>, slot: usize) {
        let st = &mut self.conns[slot];
        let stack = self.stack.as_mut().unwrap();
        while let Some(chunk) = st.tx.front_mut() {
            match chunk {
                TxChunk::Lit(data, off) => {
                    let sent = stack.send(ctx, st.conn, &data[*off..]);
                    *off += sent;
                    self.bytes_out += sent as u64;
                    if *off < data.len() {
                        return; // socket buffer full: resume on Writable
                    }
                }
                TxChunk::Pad(n) => {
                    let sent = stack.send_bytes(ctx, st.conn, *n);
                    *n -= sent;
                    self.bytes_out += sent as u64;
                    if *n > 0 {
                        return;
                    }
                }
            }
            st.tx.pop_front();
        }
    }

    fn on_readable(&mut self, ctx: &mut Ctx<'_>, conn: u32) {
        let Some(&slot) = self.by_id.get(&conn) else {
            return;
        };
        let stack = self.stack.as_mut().unwrap();
        let n = stack.recv_bytes(ctx, conn, u32::MAX);
        self.bytes_in += n as u64;
        let st = &mut self.conns[slot];
        st.rx_pending += n;
        while let Some(&(sent_at, resp)) = st.outstanding.front() {
            if st.rx_pending < resp {
                break;
            }
            st.rx_pending -= resp;
            st.outstanding.pop_front();
            self.completed += 1;
            if ctx.now() >= self.cfg.warmup {
                if self.measured == 0 {
                    self.first_measured_at = ctx.now();
                }
                self.last_measured_at = ctx.now();
                self.measured += 1;
                st.measured_resp_bytes += resp as u64;
                self.latency
                    .record(ctx.now().saturating_since(sent_at).as_ns());
                if let Some(limit) = self.cfg.stop_after {
                    if self.measured >= limit {
                        // one-shot: a test that clears the halt to drain
                        // (e.g. teardown) must not be re-halted by every
                        // late response
                        self.cfg.stop_after = None;
                        ctx.halt();
                        return;
                    }
                }
            }
        }
    }

    /// Remove a dead connection from the rotation and write off its
    /// unanswered requests (counted in `dead_requests`).
    fn write_off(&mut self, conn: u32) {
        if let Some(&slot) = self.by_id.get(&conn) {
            let st = &mut self.conns[slot];
            st.alive = false;
            st.tx.clear();
            self.dead_requests += st.outstanding.len() as u64;
            st.outstanding.clear();
            st.rx_pending = 0;
        }
    }

    fn handle_events(&mut self, ctx: &mut Ctx<'_>, events: &mut Vec<SockEvent>) {
        for ev in events.drain(..) {
            match ev {
                SockEvent::Connected { conn, .. } => {
                    self.connected += 1;
                    let slot = self.conns.len();
                    self.conns.push(OlConn {
                        conn,
                        outstanding: VecDeque::new(),
                        rx_pending: 0,
                        tx: VecDeque::new(),
                        measured_resp_bytes: 0,
                        alive: true,
                    });
                    self.by_id.insert(conn, slot);
                    // one arrival process, started by the first connection
                    if self.connected == 1 {
                        self.schedule_arrival(ctx);
                    }
                }
                SockEvent::ConnectFailed { .. } => {
                    self.failed += 1;
                }
                SockEvent::Readable { conn, .. } => self.on_readable(ctx, conn),
                SockEvent::Writable { conn, .. } => {
                    if let Some(&slot) = self.by_id.get(&conn) {
                        self.drain_tx(ctx, slot);
                    }
                }
                SockEvent::Eof { conn } => {
                    // the peer closed (or reset) this connection: take it
                    // out of the rotation and write off its unanswered
                    // requests so in-flight accounting doesn't inflate
                    self.write_off(conn);
                    if let Some(stack) = self.stack.as_mut() {
                        stack.close(ctx, conn);
                    }
                }
                SockEvent::Aborted { conn } => {
                    // control plane gave up on the flow (RTO budget spent):
                    // same write-off, but no close — the flow is already
                    // torn down NIC-side
                    self.aborted_conns += 1;
                    self.write_off(conn);
                }
                SockEvent::Accepted { .. } => {}
            }
        }
    }
}

impl<S: StackApi + 'static> Node for OpenLoopClientApp<S> {
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
                if self.closing {
                    return; // arrival process parked
                }
                self.generate(ctx);
                self.schedule_arrival(ctx);
            }
            msg => {
                let mut events = std::mem::take(&mut self.events);
                let handed_back = self.stack.as_mut().unwrap().on_msg(ctx, msg, &mut events);
                self.handle_events(ctx, &mut events);
                self.events = events;
                let Err(msg) = handed_back else { return };
                let _ = flextoe_sim::cast::<CloseAll>(msg);
                self.closing = true;
                let stack = self.stack.as_mut().unwrap();
                for c in &self.conns {
                    stack.close(ctx, c.conn);
                }
            }
        }
    }

    fn name(&self) -> String {
        "openloop-client".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_dists_stay_in_bounds_and_hit_their_mean() {
        let mut rng = Rng::new(5);
        let dists = [
            SizeDist::Fixed(100),
            SizeDist::Uniform { lo: 10, hi: 90 },
            SizeDist::Pareto {
                alpha: 1.2,
                min: 64,
                max: 65_536,
            },
        ];
        for d in dists {
            let n = 200_000;
            let mut sum = 0.0;
            let (mut lo, mut hi) = (u32::MAX, 0u32);
            for _ in 0..n {
                let v = d.sample(&mut rng);
                sum += v as f64;
                lo = lo.min(v);
                hi = hi.max(v);
            }
            let mean = sum / n as f64;
            let want = d.mean();
            assert!(
                (mean - want).abs() / want < 0.05,
                "{d:?}: empirical mean {mean} vs analytic {want}"
            );
            match d {
                SizeDist::Fixed(v) => assert_eq!((lo, hi), (v, v)),
                SizeDist::Uniform { lo: l, hi: h } => {
                    assert!(lo >= l && hi <= h);
                }
                SizeDist::Pareto { min, max, .. } => {
                    assert!(lo >= min && hi <= max);
                    // heavy tail: the max draw dwarfs the mean
                    assert!(hi as f64 > 10.0 * mean, "tail: max {hi} mean {mean}");
                }
            }
        }
    }

    #[test]
    fn pareto_is_heavy_tailed_vs_uniform_of_same_mean() {
        let mut rng = Rng::new(9);
        let p = SizeDist::Pareto {
            alpha: 1.1,
            min: 64,
            max: 1 << 20,
        };
        let n = 100_000;
        let draws: Vec<u32> = (0..n).map(|_| p.sample(&mut rng)).collect();
        let mean = draws.iter().map(|&v| v as f64).sum::<f64>() / n as f64;
        let over_10x = draws.iter().filter(|&&v| v as f64 > 10.0 * mean).count();
        // a meaningful fraction of probability mass far above the mean
        assert!(
            over_10x > n / 1000,
            "heavy tail: {over_10x} draws > 10x mean"
        );
        let median = {
            let mut s = draws.clone();
            s.sort_unstable();
            s[n / 2]
        };
        assert!(
            (median as f64) < mean,
            "skew: median {median} < mean {mean}"
        );
    }
}
