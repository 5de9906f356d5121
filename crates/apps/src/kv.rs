//! A memcached-like key-value store and a memtier-like load generator
//! (§2.1, §5.1): "a single-threaded Memcached server … 32 B keys and
//! values, using as many clients as necessary to saturate the server,
//! executing closed-loop KV transactions on persistent connections."
//!
//! The server speaks a real text protocol (a memcached subset) and keeps a
//! real hash table, so request parsing and store access are genuine work;
//! the per-request *cycle* budget charged to the host core is the Table 1
//! application share.

use std::collections::VecDeque;

use flextoe_nfp::{Cost, FpcTimer};
use flextoe_sim::{Ctx, Duration, FxHashMap, Histogram, Msg, Node, Time};
use flextoe_wire::Ip4;

use crate::rpc::StackInit;
use crate::stack::{SockEvent, StackApi, StackOp};

/// Table 1: Memcached spends 0.89 kc per request on FlexTOE (the true
/// application work, identical across stacks).
pub const KV_APP_CYCLES: u64 = 890;

#[derive(Clone, Copy, Debug)]
pub struct KvServerConfig {
    pub port: u16,
    pub host_clock: flextoe_sim::Clock,
    /// Application cycles per request beyond the real parse/lookup work.
    pub app_cycles: u64,
}

impl Default for KvServerConfig {
    fn default() -> Self {
        KvServerConfig {
            port: 11211,
            host_clock: flextoe_sim::clocks::HOST_2GHZ,
            app_cycles: KV_APP_CYCLES,
        }
    }
}

struct KvConn {
    rx: Vec<u8>,
    /// Pending response bytes (socket buffer was full).
    backlog: Vec<u8>,
}

/// A parsed request's response, parked until its processing-done
/// self-wake (`Msg::Token(conn)`) fires. The single application core
/// finishes requests in issue order, so the wakes pop this queue FIFO.
struct KvRespond {
    conn: u32,
    resp: Vec<u8>,
}

pub struct KvServerApp<S: StackApi> {
    cfg: KvServerConfig,
    stack: Option<S>,
    init: Option<StackInit<S>>,
    core: FpcTimer,
    store: FxHashMap<Vec<u8>, Vec<u8>>,
    conns: FxHashMap<u32, KvConn>,
    responses: VecDeque<KvRespond>,
    /// Readiness events of the message being handled (storage reused).
    events: Vec<SockEvent>,
    pub gets: u64,
    pub sets: u64,
    pub hits: u64,
    pub errors: u64,
}

impl<S: StackApi + 'static> KvServerApp<S> {
    pub fn new(cfg: KvServerConfig, init: StackInit<S>) -> Self {
        KvServerApp {
            core: FpcTimer::new(cfg.host_clock, 1),
            cfg,
            stack: None,
            init: Some(init),
            store: FxHashMap::default(),
            conns: FxHashMap::default(),
            responses: VecDeque::new(),
            events: Vec::new(),
            gets: 0,
            sets: 0,
            hits: 0,
            errors: 0,
        }
    }

    pub fn core_busy(&self) -> Duration {
        self.core.busy
    }
    pub fn requests(&self) -> u64 {
        self.gets + self.sets
    }

    /// Parse one complete request off the front of `rx`; returns the
    /// response, or None if the request is incomplete.
    fn parse_request(&mut self, rx: &mut Vec<u8>) -> Option<Vec<u8>> {
        let line_end = rx.windows(2).position(|w| w == b"\r\n")?;
        let line: Vec<u8> = rx[..line_end].to_vec();
        let mut parts = line.split(|&b| b == b' ');
        let cmd = parts.next()?;
        match cmd {
            b"get" => {
                let key = parts.next()?.to_vec();
                rx.drain(..line_end + 2);
                self.gets += 1;
                match self.store.get(&key) {
                    Some(val) => {
                        self.hits += 1;
                        let mut resp = Vec::with_capacity(val.len() + 48);
                        resp.extend_from_slice(b"VALUE ");
                        resp.extend_from_slice(&key);
                        resp.extend_from_slice(format!(" 0 {}\r\n", val.len()).as_bytes());
                        resp.extend_from_slice(val);
                        resp.extend_from_slice(b"\r\nEND\r\n");
                        Some(resp)
                    }
                    None => Some(b"END\r\n".to_vec()),
                }
            }
            b"set" => {
                let key = parts.next()?.to_vec();
                let _flags = parts.next()?;
                let _exp = parts.next()?;
                let len: usize = std::str::from_utf8(parts.next()?).ok()?.parse().ok()?;
                let need = line_end + 2 + len + 2;
                if rx.len() < need {
                    return None; // wait for the data block
                }
                let val = rx[line_end + 2..line_end + 2 + len].to_vec();
                rx.drain(..need);
                self.sets += 1;
                self.store.insert(key, val);
                Some(b"STORED\r\n".to_vec())
            }
            _ => {
                rx.drain(..line_end + 2);
                self.errors += 1;
                Some(b"ERROR\r\n".to_vec())
            }
        }
    }

    fn drain_rx(&mut self, ctx: &mut Ctx<'_>, conn: u32) {
        let stack = self.stack.as_mut().unwrap();
        // receive straight onto the connection's unparsed bytes
        let mut rx = match self.conns.get_mut(&conn) {
            Some(st) => std::mem::take(&mut st.rx),
            None => Vec::new(),
        };
        stack.recv(ctx, conn, u32::MAX, &mut rx);
        let overhead = stack.host_overhead(StackOp::Recv)
            + stack.host_overhead(StackOp::Send)
            + stack.host_overhead(StackOp::Poll);
        if !self.conns.contains_key(&conn) {
            return;
        }
        while let Some(resp) = self.parse_request(&mut rx) {
            let cycles = self.cfg.app_cycles + overhead;
            let done = self.core.execute(ctx.now(), Cost::new(cycles, 0));
            self.responses.push_back(KvRespond { conn, resp });
            ctx.wake(done.saturating_since(ctx.now()), u64::from(conn));
        }
        if let Some(st) = self.conns.get_mut(&conn) {
            st.rx = rx;
        }
    }

    fn push(&mut self, ctx: &mut Ctx<'_>, conn: u32, resp: Vec<u8>) {
        let stack = self.stack.as_mut().unwrap();
        let Some(st) = self.conns.get_mut(&conn) else {
            return;
        };
        st.backlog.extend_from_slice(&resp);
        if st.backlog.is_empty() {
            return;
        }
        let sent = stack.send(ctx, conn, &st.backlog);
        st.backlog.drain(..sent);
    }
}

impl<S: StackApi + 'static> Node for KvServerApp<S> {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        if self.stack.is_none() {
            let init = self.init.take().unwrap();
            let mut stack = init(ctx, ctx.self_id());
            stack.listen(ctx, self.cfg.port);
            self.stack = Some(stack);
            return;
        }
        if let Msg::Token(conn) = msg {
            let r = self.responses.pop_front().expect("a response per wake");
            debug_assert_eq!(u64::from(r.conn), conn, "wakes fire in issue order");
            self.push(ctx, r.conn, r.resp);
            return;
        }
        let mut events = std::mem::take(&mut self.events);
        let handed_back = self.stack.as_mut().unwrap().on_msg(ctx, msg, &mut events);
        for ev in events.drain(..) {
            match ev {
                SockEvent::Accepted { conn, .. } => {
                    self.conns.insert(
                        conn,
                        KvConn {
                            rx: Vec::new(),
                            backlog: Vec::new(),
                        },
                    );
                }
                SockEvent::Readable { conn, .. } => self.drain_rx(ctx, conn),
                SockEvent::Writable { conn, .. } => self.push(ctx, conn, Vec::new()),
                SockEvent::Eof { conn } => {
                    self.stack.as_mut().unwrap().close(ctx, conn);
                    self.conns.remove(&conn);
                }
                _ => {}
            }
        }
        self.events = events;
        if let Err(m) = handed_back {
            flextoe_sim::mismatch("a stack message or a response wake", &m);
        }
    }

    fn name(&self) -> String {
        "kv-server".to_string()
    }
}

// ---------------------------------------------------------------------------
// memtier-like client
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
pub struct MemtierConfig {
    pub server_ip: Ip4,
    pub server_port: u16,
    pub n_conns: u32,
    pub key_size: usize,
    pub value_size: usize,
    pub key_space: u32,
    /// GETs per SET (memtier's 1:10 inverted — Table 1 uses GET-heavy).
    pub gets_per_set: u32,
    pub warmup: Time,
    pub stop_after: Option<u64>,
}

impl Default for MemtierConfig {
    fn default() -> Self {
        MemtierConfig {
            server_ip: Ip4::host(2),
            server_port: 11211,
            n_conns: 8,
            key_size: 32,
            value_size: 32,
            key_space: 1000,
            gets_per_set: 9,
            warmup: Time::ZERO,
            stop_after: None,
        }
    }
}

struct MtConn {
    conn: u32,
    sent_at: Time,
    rx: Vec<u8>,
    expect_get: bool,
}

pub struct MemtierApp<S: StackApi> {
    cfg: MemtierConfig,
    stack: Option<S>,
    init: Option<StackInit<S>>,
    conns: Vec<MtConn>,
    by_id: FxHashMap<u32, usize>,
    /// Readiness events of the message being handled (storage reused).
    events: Vec<SockEvent>,
    op_counter: u64,
    pub latency: Histogram,
    pub completed: u64,
    pub measured: u64,
    pub first_measured_at: Time,
    pub last_measured_at: Time,
}

impl<S: StackApi + 'static> MemtierApp<S> {
    pub fn new(cfg: MemtierConfig, init: StackInit<S>) -> Self {
        MemtierApp {
            cfg,
            stack: None,
            init: Some(init),
            conns: Vec::new(),
            by_id: FxHashMap::default(),
            events: Vec::new(),
            op_counter: 0,
            latency: Histogram::new(),
            completed: 0,
            measured: 0,
            first_measured_at: Time::ZERO,
            last_measured_at: Time::ZERO,
        }
    }

    pub fn throughput_ops(&self) -> f64 {
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

    fn key(&self, i: u32) -> Vec<u8> {
        let mut k = format!("key-{i:08}").into_bytes();
        k.resize(self.cfg.key_size, b'k');
        k
    }

    fn next_request(&mut self, ctx: &mut Ctx<'_>, slot: usize) {
        self.op_counter += 1;
        let is_set = self
            .op_counter
            .is_multiple_of(self.cfg.gets_per_set as u64 + 1);
        let keyid = ctx.rng.below(self.cfg.key_space as u64) as u32;
        let key = self.key(keyid);
        let req = if is_set {
            let mut v = vec![b'v'; self.cfg.value_size];
            v[0] = (keyid & 0xff) as u8;
            let mut r = Vec::with_capacity(64 + v.len());
            r.extend_from_slice(b"set ");
            r.extend_from_slice(&key);
            r.extend_from_slice(format!(" 0 0 {}\r\n", v.len()).as_bytes());
            r.extend_from_slice(&v);
            r.extend_from_slice(b"\r\n");
            r
        } else {
            let mut r = Vec::with_capacity(key.len() + 8);
            r.extend_from_slice(b"get ");
            r.extend_from_slice(&key);
            r.extend_from_slice(b"\r\n");
            r
        };
        let st = &mut self.conns[slot];
        st.sent_at = ctx.now();
        st.expect_get = !is_set;
        let stack = self.stack.as_mut().unwrap();
        let sent = stack.send(ctx, st.conn, &req);
        debug_assert_eq!(sent, req.len(), "KV request didn't fit socket buffer");
    }

    /// A response is complete when it ends with one of the terminators.
    fn response_complete(rx: &[u8]) -> bool {
        rx.ends_with(b"END\r\n") || rx.ends_with(b"STORED\r\n") || rx.ends_with(b"ERROR\r\n")
    }

    fn on_readable(&mut self, ctx: &mut Ctx<'_>, conn: u32) {
        let Some(&slot) = self.by_id.get(&conn) else {
            return;
        };
        let stack = self.stack.as_mut().unwrap();
        let st = &mut self.conns[slot];
        stack.recv(ctx, conn, u32::MAX, &mut st.rx);
        if Self::response_complete(&st.rx) {
            if st.expect_get {
                debug_assert!(
                    st.rx.starts_with(b"VALUE") || st.rx == b"END\r\n",
                    "bad GET response"
                );
            }
            st.rx.clear();
            self.completed += 1;
            if ctx.now() >= self.cfg.warmup {
                if self.measured == 0 {
                    self.first_measured_at = ctx.now();
                }
                self.last_measured_at = ctx.now();
                self.measured += 1;
                self.latency
                    .record(ctx.now().saturating_since(st.sent_at).as_ns());
                if let Some(limit) = self.cfg.stop_after {
                    if self.measured >= limit {
                        ctx.halt();
                        return;
                    }
                }
            }
            self.next_request(ctx, slot);
        }
    }
}

impl<S: StackApi + 'static> Node for MemtierApp<S> {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        if self.stack.is_none() {
            let init = self.init.take().unwrap();
            let mut stack = init(ctx, ctx.self_id());
            for i in 0..self.cfg.n_conns {
                stack.connect(ctx, self.cfg.server_ip, self.cfg.server_port, i as u64);
            }
            self.stack = Some(stack);
            return;
        }
        let mut events = std::mem::take(&mut self.events);
        // anything the stack hands back is not for this client: ignored
        let _ = self.stack.as_mut().unwrap().on_msg(ctx, msg, &mut events);
        for ev in events.drain(..) {
            match ev {
                SockEvent::Connected { conn, .. } => {
                    let slot = self.conns.len();
                    self.conns.push(MtConn {
                        conn,
                        sent_at: ctx.now(),
                        rx: Vec::new(),
                        expect_get: false,
                    });
                    self.by_id.insert(conn, slot);
                    self.next_request(ctx, slot);
                }
                SockEvent::Readable { conn, .. } => self.on_readable(ctx, conn),
                _ => {}
            }
        }
        self.events = events;
    }

    fn name(&self) -> String {
        "memtier".to_string()
    }
}
