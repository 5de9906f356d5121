//! The one RPC server: accepts connections, consumes requests in either
//! [`Wire`] format, and responds after simulated application processing
//! on one host core.

use std::collections::VecDeque;

use flextoe_nfp::{Cost, FpcTimer};
use flextoe_sim::{Ctx, Duration, FxHashMap, Msg, Node};

use crate::stack::{SockEvent, StackApi, StackInit, StackOp};
use crate::wire::{
    pack_token, parse_header, unpack_token, SizeDist, Wire, ECHO_PORT, FRAMED_PORT, FRAME_HDR,
};

#[derive(Clone, Copy, Debug)]
pub struct ServerSpec {
    pub port: u16,
    pub wire: Wire,
    /// Artificial application processing per RPC (Fig. 10's 250/1,000
    /// cycles), on the host clock.
    pub app_cycles: u64,
    /// Byte-exact echo: copies the request bytes back (fixed-size wire
    /// with `req == resp` only).
    pub echo_data: bool,
    pub host_clock: flextoe_sim::Clock,
}

impl Default for ServerSpec {
    fn default() -> Self {
        ServerSpec {
            port: ECHO_PORT,
            wire: Wire::Fixed { req: 64, resp: 64 },
            app_cycles: 0,
            echo_data: false,
            host_clock: flextoe_sim::clocks::HOST_2GHZ,
        }
    }
}

impl ServerSpec {
    /// The framed server as the fabric experiments run it (the sizes in
    /// `wire` are the client's; the server reads each request's header).
    pub fn framed() -> Self {
        ServerSpec {
            port: FRAMED_PORT,
            wire: Wire::Framed {
                req: SizeDist::Fixed(FRAME_HDR),
                resp: SizeDist::Fixed(64),
            },
            ..Default::default()
        }
    }
}

#[derive(Default)]
struct ServerConn {
    /// Fixed: request bytes received toward the next request. Framed:
    /// body bytes of the current request still to consume.
    pending: u32,
    /// Framed: the current request's header so far, and its response
    /// length once parsed.
    hdr: [u8; FRAME_HDR as usize],
    hdr_have: usize,
    resp_next: u32,
    /// Echo payload queue (only with `echo_data`).
    data: VecDeque<u8>,
    /// Response bytes accepted for transmission but blocked on buffer
    /// space.
    backlog: u32,
}

pub struct Server<S: StackApi> {
    cfg: ServerSpec,
    stack: Option<S>,
    init: Option<StackInit<S>>,
    core: FpcTimer,
    conns: FxHashMap<u32, ServerConn>,
    /// Readiness events of the message being handled (storage reused).
    events: Vec<SockEvent>,
    /// Bytes between `recv` and their destination (storage reused).
    scratch: Vec<u8>,
    pub requests: u64,
    pub accepted: u64,
    /// Framed requests whose header failed the magic check (0 on a
    /// healthy run).
    pub bad_frames: u64,
    /// Connections the stack aborted under us (RTO give-up).
    pub aborted: u64,
}

impl<S: StackApi + 'static> Server<S> {
    pub fn new(cfg: impl Into<ServerSpec>, init: StackInit<S>) -> Self {
        let cfg = cfg.into();
        Server {
            core: FpcTimer::new(cfg.host_clock, 1),
            cfg,
            stack: None,
            init: Some(init),
            conns: FxHashMap::default(),
            events: Vec::new(),
            scratch: Vec::new(),
            requests: 0,
            accepted: 0,
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
                    self.conns.insert(conn, ServerConn::default());
                }
                SockEvent::Readable { conn, .. } => match self.cfg.wire {
                    Wire::Fixed { req, resp } => self.drain_fixed(ctx, conn, req, resp),
                    Wire::Framed { .. } => self.drain_framed(ctx, conn),
                },
                SockEvent::Writable { conn, .. } => self.push_response(ctx, conn, 0),
                SockEvent::Eof { conn } => {
                    if let Some(stack) = self.stack.as_mut() {
                        stack.close(ctx, conn);
                    }
                    self.conns.remove(&conn);
                }
                SockEvent::Aborted { conn } => {
                    // the stack already tore the flow down: just drop the
                    // state (no FIN to send on a dead conn)
                    self.aborted += 1;
                    self.conns.remove(&conn);
                }
                SockEvent::Connected { .. } | SockEvent::ConnectFailed { .. } => {}
            }
        }
    }

    /// Charge one complete request to the application core; the response
    /// goes out on the self-wake `(conn, resp)` once processing finishes.
    fn complete(&mut self, ctx: &mut Ctx<'_>, conn: u32, resp: u32) {
        let stack = self.stack.as_ref().unwrap();
        self.requests += 1;
        let cycles = self.cfg.app_cycles
            + stack.host_overhead(StackOp::Recv)
            + stack.host_overhead(StackOp::Send)
            + stack.host_overhead(StackOp::Poll);
        let done = self.core.execute(ctx.now(), Cost::new(cycles, 0));
        ctx.wake(done.saturating_since(ctx.now()), pack_token(conn, resp));
    }

    /// Fixed-size requests: read everything readable in one call, then
    /// answer every complete request.
    fn drain_fixed(&mut self, ctx: &mut Ctx<'_>, conn: u32, req: u32, resp: u32) {
        let stack = self.stack.as_mut().unwrap();
        let Some(st) = self.conns.get_mut(&conn) else {
            return;
        };
        let n = if self.cfg.echo_data {
            self.scratch.clear();
            let n = stack.recv(ctx, conn, u32::MAX, &mut self.scratch) as u32;
            st.data.extend(&self.scratch);
            n
        } else {
            stack.recv_bytes(ctx, conn, u32::MAX)
        };
        st.pending += n;
        let complete = st.pending / req;
        st.pending %= req;
        for _ in 0..complete {
            self.complete(ctx, conn, resp);
        }
    }

    /// Framed requests: advance the header/body state machine as far as
    /// the readable bytes go.
    fn drain_framed(&mut self, ctx: &mut Ctx<'_>, conn: u32) {
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
                if st.hdr_have < FRAME_HDR as usize {
                    continue; // maybe more readable bytes
                }
                let Some((extra, resp)) = parse_header(&st.hdr) else {
                    // byte-stream desync: the length fields are garbage
                    // (up to ~4 GiB) — kill the connection rather than
                    // consume and answer a garbage-sized request
                    self.bad_frames += 1;
                    stack.close(ctx, conn);
                    self.conns.remove(&conn);
                    return;
                };
                st.pending = extra;
                st.resp_next = resp;
            }
            if st.pending > 0 {
                let n = stack.recv_bytes(ctx, conn, st.pending);
                if n == 0 {
                    return;
                }
                st.pending -= n;
                if st.pending > 0 {
                    return;
                }
            }
            st.hdr_have = 0;
            let resp = st.resp_next;
            self.complete(ctx, conn, resp);
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
        }
    }
}

impl<S: StackApi + 'static> Node for Server<S> {
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
        match self.cfg.wire {
            Wire::Fixed { .. } => "rpc-server",
            Wire::Framed { .. } => "framed-server",
        }
        .to_string()
    }
}
