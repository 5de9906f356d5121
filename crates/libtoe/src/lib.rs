//! # flextoe-libtoe — the socket library of every stack family
//!
//! "Applications interface directly but transparently with the FlexTOE
//! datapath through the libTOE library that implements POSIX sockets"
//! (§1). libTOE "intercepts POSIX socket calls … and communicates directly
//! with the data-path" through per-thread context queues and per-socket
//! payload buffers in host memory (Figure 2).
//!
//! "We use identical application binaries across all baselines" (§5):
//! application nodes are generic over [`StackApi`], and one socket table
//! ([`Sockets`]) sits under every implementation of it. The table owns
//! each socket's positions in its shared payload buffers, turns `send`,
//! `recv` and `close` into [`AppToNic`] descriptors, and applies a
//! readiness event ([`SockEvent`]) when the application takes it. A stack
//! family supplies only the rest: where descriptors go and how the stack
//! is kicked, where events come from, `listen`/`connect`, and its host
//! cost per operation. [`LibToe`] is FlexTOE's family: descriptors go on
//! a context queue with an MMIO doorbell to the NIC (zero kernel
//! involvement, the §4 communication scheme), and events arrive as
//! MSI-X→eventfd wakeups ([`flextoe_core::AppNotify`]) so applications can
//! sleep instead of polling (§4 "Driver"). The baseline host stacks in
//! `flextoe-hoststack` are the other.

use flextoe_control::{AppReply, AppRequest};
use flextoe_core::hostmem::{shared_ctxq, AppToNic, NicToApp, SharedBuf, SharedCtxQueue};
use flextoe_core::stages::{Doorbell, RegisterCtx};
use flextoe_core::NicHandle;
use flextoe_sim::{try_cast, Ctx, Duration, FxHashMap, Msg, NodeId};
use flextoe_wire::Ip4;

/// Events surfaced to the application, epoll-style.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SockEvent {
    /// A connection was accepted on a listening port.
    Accepted {
        conn: u32,
        port: u16,
        peer: (Ip4, u16),
    },
    /// An active open completed.
    Connected {
        conn: u32,
        opaque: u64,
    },
    ConnectFailed {
        opaque: u64,
    },
    /// `available` more bytes are readable (a delta, not a total).
    Readable {
        conn: u32,
        available: u32,
    },
    /// `free` more bytes of TX buffer were freed (a delta, not a total):
    /// previously-blocked writes may proceed.
    Writable {
        conn: u32,
        free: u32,
    },
    /// Peer closed its direction (EOF after draining readable bytes).
    Eof {
        conn: u32,
    },
    /// The transport aborted the connection (RTO retry budget exhausted —
    /// the path was blackholed). The stack side is already torn down;
    /// taking the event closes the socket, and the application must treat
    /// outstanding requests as failed.
    Aborted {
        conn: u32,
    },
}

impl SockEvent {
    /// The socket the event is about (`None` for a failed connect).
    pub fn conn(&self) -> Option<u32> {
        match *self {
            SockEvent::ConnectFailed { .. } => None,
            SockEvent::Accepted { conn, .. }
            | SockEvent::Connected { conn, .. }
            | SockEvent::Readable { conn, .. }
            | SockEvent::Writable { conn, .. }
            | SockEvent::Eof { conn }
            | SockEvent::Aborted { conn } => Some(conn),
        }
    }
}

/// Socket-layer operations with distinct host costs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StackOp {
    /// `send()` of one request/response.
    Send,
    /// `recv()` of one request/response.
    Recv,
    /// One readiness-poll / epoll round.
    Poll,
}

/// One socket call on a context's table: the descriptor it produced, if
/// any.
pub type SockCall<'a> = &'a mut dyn FnMut(&mut Sockets) -> Option<AppToNic>;

/// The stack-agnostic socket interface. A stack family implements
/// `submit` (its descriptor sink and kick), `on_msg` (its event source),
/// `listen`/`connect` and its costs; the socket calls are provided, run
/// on the one table.
///
/// Each implementation also reports its **host-core overhead** per socket
/// operation — the Table 1 "NIC driver / TCP/IP stack / POSIX sockets"
/// cycles that execute on the application core for that stack.
/// Application nodes charge these against their core model, which is what
/// makes the Fig. 8 scalability and Table 1 breakdowns emerge.
pub trait StackApi {
    fn listen(&mut self, ctx: &mut Ctx<'_>, port: u16);
    fn connect(&mut self, ctx: &mut Ctx<'_>, ip: Ip4, port: u16, opaque: u64);
    /// Intercept stack-owned messages (control replies, wakeups): takes
    /// each readiness event into the socket table and appends it to the
    /// application's `events`, or gives the message back if it isn't
    /// ours.
    fn on_msg(
        &mut self,
        ctx: &mut Ctx<'_>,
        msg: Msg,
        events: &mut Vec<SockEvent>,
    ) -> Result<(), Msg>;
    /// Run `call` on this context's socket table and hand the descriptor
    /// it produced to the stack; returns the bytes it moved.
    fn submit(&mut self, ctx: &mut Ctx<'_>, call: SockCall<'_>) -> u32;
    /// POSIX `send()`: copy up to `data.len()` bytes into the TX buffer;
    /// returns the count (0 when full: wait for `Writable`).
    fn send(&mut self, ctx: &mut Ctx<'_>, conn: u32, data: &[u8]) -> usize {
        self.submit(ctx, &mut |t| t.write(conn, data.len() as u32, Some(data))) as usize
    }
    /// `send` without the bytes (bulk traffic that only measures
    /// transport behaviour still moves the descriptor and the window).
    fn send_bytes(&mut self, ctx: &mut Ctx<'_>, conn: u32, len: u32) -> u32 {
        self.submit(ctx, &mut |t| t.write(conn, len, None))
    }
    /// POSIX `recv()`: append up to `max` readable bytes to the
    /// application's `out`; returns the count.
    fn recv(&mut self, ctx: &mut Ctx<'_>, conn: u32, max: u32, out: &mut Vec<u8>) -> usize {
        self.submit(ctx, &mut |t| t.read(conn, max, Some(&mut *out))) as usize
    }
    /// `recv` without copying (bulk traffic).
    fn recv_bytes(&mut self, ctx: &mut Ctx<'_>, conn: u32, max: u32) -> u32 {
        self.submit(ctx, &mut |t| t.read(conn, max, None))
    }
    /// POSIX `close()`/`shutdown(WR)`: FIN after pending data.
    fn close(&mut self, ctx: &mut Ctx<'_>, conn: u32) {
        self.submit(ctx, &mut |t| t.close(conn));
    }
    /// Host-core cycles this stack spends per operation (driver + TCP/IP
    /// + sockets shares that run on the application core).
    fn host_overhead(&self, op: StackOp) -> u64;
    fn stack_name(&self) -> &'static str;
}

/// Forwarding impl so applications can be generic over `Box<dyn StackApi>`
/// (one binary, any stack — the experiment harness relies on this).
impl StackApi for Box<dyn StackApi> {
    fn listen(&mut self, ctx: &mut Ctx<'_>, port: u16) {
        (**self).listen(ctx, port)
    }
    fn connect(&mut self, ctx: &mut Ctx<'_>, ip: Ip4, port: u16, opaque: u64) {
        (**self).connect(ctx, ip, port, opaque)
    }
    fn on_msg(
        &mut self,
        ctx: &mut Ctx<'_>,
        msg: Msg,
        events: &mut Vec<SockEvent>,
    ) -> Result<(), Msg> {
        (**self).on_msg(ctx, msg, events)
    }
    fn submit(&mut self, ctx: &mut Ctx<'_>, call: SockCall<'_>) -> u32 {
        (**self).submit(ctx, call)
    }
    fn host_overhead(&self, op: StackOp) -> u64 {
        (**self).host_overhead(op)
    }
    fn stack_name(&self) -> &'static str {
        (**self).stack_name()
    }
}

/// One socket: the application's view of its shared payload buffers.
pub struct Socket {
    rx_buf: SharedBuf,
    tx_buf: SharedBuf,
    /// Application's read position (free-running, matches data-path
    /// `rx_pos` semantics).
    rx_pos: u32,
    /// Readable bytes (grown by taken `Readable` events).
    rx_ready: u32,
    /// Application's write position.
    tx_pos: u32,
    /// Free TX buffer space (shrunk by writes, grown by taken `Writable`
    /// events).
    tx_free: u32,
    /// No more writes: closed by the application, or aborted.
    closed: bool,
}

impl Socket {
    pub fn readable(&self) -> u32 {
        self.rx_ready
    }
    pub fn writable(&self) -> u32 {
        self.tx_free
    }
}

/// One application context's socket table, the same for every stack
/// family. Each call returns the descriptor it produced for the family
/// to hand to its stack, or `None` when there is nothing to tell it.
#[derive(Default)]
pub struct Sockets {
    map: FxHashMap<u32, Socket>,
}

impl Sockets {
    /// Open `conn` over the payload buffers the stack allocated for it
    /// (replacing whatever socket held the id before).
    pub fn open(&mut self, conn: u32, rx_buf: SharedBuf, tx_buf: SharedBuf) {
        let tx_free = tx_buf.borrow().size();
        let s = Socket {
            rx_buf,
            tx_buf,
            rx_pos: 0,
            rx_ready: 0,
            tx_pos: 0,
            tx_free,
            closed: false,
        };
        self.map.insert(conn, s);
    }

    pub fn get(&self, conn: u32) -> Option<&Socket> {
        self.map.get(&conn)
    }

    /// Sockets opened on this context (a closed one stays until its id is
    /// reused).
    pub fn count(&self) -> usize {
        self.map.len()
    }

    /// `send()`: append up to `len` bytes to the TX buffer — copying them
    /// from `data` when given (it holds at least `len` bytes), or only
    /// moving the window for descriptor-only bulk traffic. Nothing is
    /// appended when the buffer is full: wait for `Writable`.
    pub fn write(&mut self, conn: u32, len: u32, data: Option<&[u8]>) -> Option<AppToNic> {
        let s = self.map.get_mut(&conn).filter(|s| !s.closed)?;
        let n = len.min(s.tx_free);
        if n == 0 {
            return None;
        }
        if let Some(data) = data {
            s.tx_buf.borrow_mut().write(s.tx_pos, &data[..n as usize]);
        }
        s.tx_pos = s.tx_pos.wrapping_add(n);
        s.tx_free -= n;
        Some(AppToNic::TxAppend { conn, len: n })
    }

    /// `recv()`: consume up to `max` readable bytes, appending them to
    /// `out` when given (descriptor-only bulk traffic copies nothing).
    pub fn read(&mut self, conn: u32, max: u32, out: Option<&mut Vec<u8>>) -> Option<AppToNic> {
        let s = self.map.get_mut(&conn)?;
        let n = s.rx_ready.min(max);
        if n == 0 {
            return None;
        }
        if let Some(out) = out {
            let at = out.len();
            out.resize(at + n as usize, 0);
            s.rx_buf.borrow().read(s.rx_pos, &mut out[at..]);
        }
        s.rx_pos = s.rx_pos.wrapping_add(n);
        s.rx_ready -= n;
        Some(AppToNic::RxConsumed { conn, len: n })
    }

    /// `close()`/`shutdown(WR)`: FIN after pending data, once.
    pub fn close(&mut self, conn: u32) -> Option<AppToNic> {
        let s = self.map.get_mut(&conn).filter(|s| !s.closed)?;
        s.closed = true;
        Some(AppToNic::Close { conn })
    }

    /// Apply what `ev` means to its socket: `Readable` and `Writable` add
    /// their delta, and `Aborted` closes the socket and discards its
    /// unread bytes, as a reset connection's are. False when `ev` names a
    /// socket this table does not hold: the application never sees it.
    pub fn take(&mut self, ev: &SockEvent) -> bool {
        let Some(conn) = ev.conn() else { return true };
        let Some(s) = self.map.get_mut(&conn) else {
            return false;
        };
        match *ev {
            SockEvent::Readable { available, .. } => s.rx_ready += available,
            SockEvent::Writable { free, .. } => s.tx_free += free,
            SockEvent::Aborted { .. } => {
                s.closed = true;
                s.rx_ready = 0;
            }
            _ => {}
        }
        // a delta applied twice overfills the buffer
        debug_assert!(
            s.rx_ready <= s.rx_buf.borrow().size() && s.tx_free <= s.tx_buf.borrow().size(),
            "socket {conn}: {} readable, {} free past its buffers after {ev:?}",
            s.rx_ready,
            s.tx_free,
        );
        true
    }
}

/// One application thread's libTOE context (one context queue): FlexTOE's
/// stack family. All TCP processing is offloaded; only the POSIX-sockets
/// layer runs on the host.
pub struct LibToe {
    ctx_id: u16,
    queue: SharedCtxQueue,
    nic: NicHandle,
    ctrl: NodeId,
    /// The owning application node (wake target).
    app: NodeId,
    sockets: Sockets,
}

impl LibToe {
    /// Create a context and register it with the NIC's context-queue
    /// manager. `ctx_id` must be unique per NIC.
    pub fn new(
        ctx: &mut Ctx<'_>,
        ctx_id: u16,
        nic: NicHandle,
        ctrl: NodeId,
        app: NodeId,
    ) -> LibToe {
        let queue = shared_ctxq(4096);
        ctx.send(
            nic.ctxq,
            nic.cfg.platform.pcie.mmio_latency,
            RegisterCtx {
                ctx: ctx_id,
                queue: queue.clone(),
                app: Some(app),
            },
        );
        LibToe {
            ctx_id,
            queue,
            nic,
            ctrl,
            app,
            sockets: Sockets::default(),
        }
    }

    /// Feed a control-plane reply (delivered to the app node) into the
    /// library; returns the corresponding socket event.
    pub fn on_reply(&mut self, reply: AppReply) -> SockEvent {
        match reply {
            AppReply::Accepted {
                conn,
                port,
                peer,
                rx_buf,
                tx_buf,
            } => {
                self.sockets.open(conn, rx_buf, tx_buf);
                SockEvent::Accepted { conn, port, peer }
            }
            AppReply::Connected {
                conn,
                opaque,
                rx_buf,
                tx_buf,
            } => {
                self.sockets.open(conn, rx_buf, tx_buf);
                SockEvent::Connected { conn, opaque }
            }
            AppReply::ConnectFailed { opaque } => SockEvent::ConnectFailed { opaque },
        }
    }

    /// Drain notification descriptors from the context queue (called on
    /// wake-up or when polling), taking each readiness event and
    /// appending it to the caller's `events`.
    pub fn poll(&mut self, events: &mut Vec<SockEvent>) {
        loop {
            let desc = self.queue.borrow_mut().to_app.pop();
            let Some(desc) = desc else { break };
            take_notification(&mut self.sockets, desc, events);
        }
    }
}

/// Take the readiness events a NIC notification carries into `sockets`,
/// appending those about sockets it holds to `events`.
fn take_notification(sockets: &mut Sockets, desc: NicToApp, events: &mut Vec<SockEvent>) {
    let mut take = |ev: SockEvent| {
        if sockets.take(&ev) {
            events.push(ev);
        }
    };
    match desc {
        NicToApp::RxAvail { conn, len, fin } => {
            if len > 0 {
                take(SockEvent::Readable {
                    conn,
                    available: len,
                });
            }
            if fin {
                take(SockEvent::Eof { conn });
            }
        }
        NicToApp::TxFreed { conn, len } => take(SockEvent::Writable { conn, free: len }),
        // NIC-side state is already reclaimed
        NicToApp::Aborted { conn } => take(SockEvent::Aborted { conn }),
    }
}

impl StackApi for LibToe {
    /// POSIX `listen()` (connections are auto-accepted; `Accepted` events
    /// arrive via [`LibToe::on_reply`]).
    fn listen(&mut self, ctx: &mut Ctx<'_>, port: u16) {
        let msg = AppRequest::Listen {
            port,
            ctx: self.ctx_id,
            queue: self.queue.clone(),
            reply_to: self.app,
        };
        ctx.send(self.ctrl, Duration::from_us(1), msg);
    }

    /// POSIX `connect()` (non-blocking; completion via `Connected`).
    fn connect(&mut self, ctx: &mut Ctx<'_>, ip: Ip4, port: u16, opaque: u64) {
        let msg = AppRequest::Connect {
            remote_ip: ip,
            remote_port: port,
            ctx: self.ctx_id,
            queue: self.queue.clone(),
            reply_to: self.app,
            opaque,
        };
        ctx.send(self.ctrl, Duration::from_us(1), msg);
    }

    fn on_msg(
        &mut self,
        _ctx: &mut Ctx<'_>,
        msg: Msg,
        events: &mut Vec<SockEvent>,
    ) -> Result<(), Msg> {
        match msg {
            Msg::AppNotify(_) => self.poll(events),
            msg => events.push(self.on_reply(*try_cast::<AppReply>(msg)?)),
        }
        Ok(())
    }

    /// The descriptor goes on the context queue, and an MMIO doorbell
    /// tells the NIC.
    fn submit(&mut self, ctx: &mut Ctx<'_>, call: SockCall<'_>) -> u32 {
        let Some(desc) = call(&mut self.sockets) else {
            return 0;
        };
        let ok = self.queue.borrow_mut().to_nic.push(desc).is_ok();
        debug_assert!(ok, "to-NIC context queue overflow");
        ctx.send(
            self.nic.ctxq,
            self.nic.cfg.platform.pcie.mmio_latency,
            Doorbell { ctx: self.ctx_id },
        );
        desc.bytes()
    }

    fn host_overhead(&self, op: StackOp) -> u64 {
        // Table 1 FlexTOE column: 0.74 kc sockets + 0.04 kc other per
        // request-response pair, and no driver or TCP/IP stack cycles.
        match op {
            StackOp::Send => 280,
            StackOp::Recv => 280,
            StackOp::Poll => 220,
        }
    }

    fn stack_name(&self) -> &'static str {
        "flextoe"
    }
}

#[cfg(test)]
mod tests {
    //! The socket table is covered here; the full application loop
    //! (handshake + echo over the pipeline) lives in the workspace
    //! integration tests.
    use super::*;
    use flextoe_core::hostmem::shared_buf;

    /// A table holding socket 1 over two 64-byte buffers.
    fn table() -> Sockets {
        let mut t = Sockets::default();
        t.open(1, shared_buf(64), shared_buf(64));
        t
    }

    fn readable(available: u32) -> SockEvent {
        SockEvent::Readable { conn: 1, available }
    }

    #[test]
    fn partial_writes_and_reads_clamp_to_the_buffers() {
        let mut t = table();
        let data = [7u8; 100];
        let append = |len| Some(AppToNic::TxAppend { conn: 1, len });
        assert_eq!(t.write(1, 100, Some(&data)), append(64));
        assert_eq!(t.get(1).unwrap().writable(), 0);
        assert_eq!(
            t.write(1, 100, Some(&data)),
            None,
            "full: wait for Writable"
        );
        assert!(t.take(&SockEvent::Writable { conn: 1, free: 10 }));
        assert_eq!(t.write(1, 100, None), append(10));

        let consume = |len| Some(AppToNic::RxConsumed { conn: 1, len });
        assert_eq!(t.read(1, 100, None), None, "nothing readable yet");
        assert!(t.take(&readable(20)));
        let mut out = vec![9];
        assert_eq!(t.read(1, 15, Some(&mut out)), consume(15));
        assert_eq!(out.len(), 16, "appends to the caller's bytes");
        assert_eq!(t.read(1, 100, None), consume(5));
        assert_eq!(t.get(1).unwrap().readable(), 0);

        assert_eq!(t.write(2, 1, None), None, "an unknown socket");
        assert!(!t.take(&SockEvent::Eof { conn: 2 }));
    }

    #[test]
    fn descriptor_only_calls_copy_no_payload_byte() {
        let (rx_buf, tx_buf) = (shared_buf(64), shared_buf(64));
        tx_buf.borrow_mut().write(0, &[0xaa; 64]);
        let mut t = Sockets::default();
        t.open(1, rx_buf.clone(), tx_buf.clone());
        assert!(t.write(1, 40, None).is_some());
        let mut bytes = [0; 64];
        tx_buf.borrow().read(0, &mut bytes);
        assert_eq!(bytes, [0xaa; 64], "send_bytes only moves the window");

        rx_buf.borrow_mut().write(0, &[0xbb; 40]);
        assert!(t.take(&readable(40)));
        let mut out = vec![1, 2];
        assert!(t.read(1, 30, None).is_some());
        assert!(t.read(1, 10, Some(&mut out)).is_some());
        assert_eq!(
            out,
            [1, 2, 0xbb, 0xbb, 0xbb, 0xbb, 0xbb, 0xbb, 0xbb, 0xbb, 0xbb, 0xbb]
        );
    }

    #[test]
    fn a_taken_abort_silences_the_socket() {
        let mut t = table();
        assert!(t.write(1, 8, None).is_some());
        assert!(t.take(&readable(8)));
        assert!(t.take(&SockEvent::Aborted { conn: 1 }));
        assert_eq!(t.write(1, 8, None), None);
        assert_eq!(t.read(1, 8, None), None, "unread bytes are discarded");
        assert_eq!(t.close(1), None);

        let mut t = table();
        assert_eq!(t.close(1), Some(AppToNic::Close { conn: 1 }));
        assert_eq!(t.close(1), None, "one FIN");
        assert!(t.take(&readable(8)));
        assert!(t.read(1, 8, None).is_some(), "a closed socket still reads");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "past its buffers")]
    fn a_delta_taken_twice_trips_the_debug_check() {
        let mut t = table();
        assert!(t.write(1, 64, None).is_some());
        let freed = SockEvent::Writable { conn: 1, free: 64 };
        t.take(&freed);
        t.take(&freed);
    }

    /// `Readable.available` and `Writable.free` are deltas on FlexTOE as
    /// on the host stacks: two notifications report each `len`, and a
    /// notification for a socket the context does not hold is dropped.
    #[test]
    fn notifications_report_deltas() {
        let mut t = table();
        let mut events = Vec::new();
        for desc in [
            NicToApp::RxAvail {
                conn: 1,
                len: 10,
                fin: false,
            },
            NicToApp::RxAvail {
                conn: 1,
                len: 20,
                fin: true,
            },
            NicToApp::TxFreed { conn: 1, len: 0 },
            NicToApp::RxAvail {
                conn: 2,
                len: 5,
                fin: true,
            },
        ] {
            take_notification(&mut t, desc, &mut events);
        }
        assert_eq!(
            events,
            [
                readable(10),
                readable(20),
                SockEvent::Eof { conn: 1 },
                SockEvent::Writable { conn: 1, free: 0 },
            ]
        );
        assert_eq!(t.get(1).unwrap().readable(), 30);
    }
}
