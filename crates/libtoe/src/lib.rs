//! # flextoe-libtoe — the libTOE application library
//!
//! "Applications interface directly but transparently with the FlexTOE
//! datapath through the libTOE library that implements POSIX sockets"
//! (§1). libTOE "intercepts POSIX socket calls … and communicates directly
//! with the data-path" through per-thread context queues and per-socket
//! payload buffers in host memory (Figure 2).
//!
//! In the simulation, an application is a `Node` that owns a [`LibToe`]
//! context. Socket calls write/read the shared payload buffers directly
//! (zero kernel involvement) and post descriptors + MMIO doorbells to the
//! NIC — exactly the §4 communication scheme. Blocking is modeled with
//! MSI-X→eventfd wakeups ([`flextoe_core::AppNotify`]) so applications can
//! sleep instead of polling (§4 "Driver").

use std::collections::HashMap;

use flextoe_control::{AppReply, AppRequest};
use flextoe_core::hostmem::{shared_ctxq, AppToNic, NicToApp, SharedBuf, SharedCtxQueue};
use flextoe_core::stages::{Doorbell, RegisterCtx};
use flextoe_core::NicHandle;
use flextoe_sim::{Ctx, Duration, NodeId};
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
    /// New bytes are readable.
    Readable {
        conn: u32,
        available: u32,
    },
    /// TX buffer space was freed (previously-blocked writes may proceed).
    Writable {
        conn: u32,
        free: u32,
    },
    /// Peer closed its direction (EOF after draining readable bytes).
    Eof {
        conn: u32,
    },
    /// The control plane aborted the connection (RTO retry budget
    /// exhausted — the path was blackholed). The socket is already torn
    /// down on the NIC side; the library marks it closed and the
    /// application must treat outstanding requests as failed.
    Aborted {
        conn: u32,
    },
}

/// Per-socket bookkeeping (the application's view of the shared buffers).
pub struct Socket {
    pub conn: u32,
    rx_buf: SharedBuf,
    tx_buf: SharedBuf,
    /// Application's read position (free-running, matches data-path
    /// `rx_pos` semantics).
    rx_pos: u32,
    /// Readable bytes (grown by RxAvail notifications).
    rx_ready: u32,
    /// Application's write position.
    tx_pos: u32,
    /// Free TX buffer space (shrunk by send, grown by TxFreed).
    tx_free: u32,
    pub eof: bool,
    pub closed: bool,
}

impl Socket {
    pub fn readable(&self) -> u32 {
        self.rx_ready
    }
    pub fn writable(&self) -> u32 {
        self.tx_free
    }
}

/// One application thread's libTOE context (one context queue).
pub struct LibToe {
    pub ctx_id: u16,
    queue: SharedCtxQueue,
    nic: NicHandle,
    ctrl: NodeId,
    /// The owning application node (wake target).
    app: NodeId,
    sockets: HashMap<u32, Socket>,
    /// Doorbell coalescing: descriptors pushed since the last doorbell.
    pending_db: bool,
    pub doorbells_sent: u64,
    pub bytes_sent: u64,
    pub bytes_received: u64,
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
            sockets: HashMap::new(),
            pending_db: false,
            doorbells_sent: 0,
            bytes_sent: 0,
            bytes_received: 0,
        }
    }

    pub fn socket(&self, conn: u32) -> Option<&Socket> {
        self.sockets.get(&conn)
    }

    pub fn n_sockets(&self) -> usize {
        self.sockets.len()
    }

    /// POSIX `listen()` (connections are auto-accepted; `Accepted` events
    /// arrive via [`LibToe::on_reply`]).
    pub fn listen(&mut self, ctx: &mut Ctx<'_>, port: u16) {
        let msg = AppRequest::Listen {
            port,
            ctx: self.ctx_id,
            queue: self.queue.clone(),
            reply_to: self.app,
        };
        ctx.send(self.ctrl, Duration::from_us(1), msg);
    }

    /// POSIX `connect()` (non-blocking; completion via `Connected`).
    pub fn connect(&mut self, ctx: &mut Ctx<'_>, ip: Ip4, port: u16, opaque: u64) {
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
                self.add_socket(conn, rx_buf, tx_buf);
                SockEvent::Accepted { conn, port, peer }
            }
            AppReply::Connected {
                conn,
                opaque,
                rx_buf,
                tx_buf,
            } => {
                self.add_socket(conn, rx_buf, tx_buf);
                SockEvent::Connected { conn, opaque }
            }
            AppReply::ConnectFailed { opaque } => SockEvent::ConnectFailed { opaque },
        }
    }

    fn add_socket(&mut self, conn: u32, rx_buf: SharedBuf, tx_buf: SharedBuf) {
        let tx_free = tx_buf.borrow().size();
        self.sockets.insert(
            conn,
            Socket {
                conn,
                rx_buf,
                tx_buf,
                rx_pos: 0,
                rx_ready: 0,
                tx_pos: 0,
                tx_free,
                eof: false,
                closed: false,
            },
        );
    }

    /// Drain notification descriptors from the context queue (called on
    /// wake-up or when polling), appending readiness events to the
    /// caller's `events`.
    pub fn poll(&mut self, events: &mut Vec<SockEvent>) {
        loop {
            let desc = self.queue.borrow_mut().to_app.pop();
            let Some(desc) = desc else { break };
            match desc {
                NicToApp::RxAvail { conn, len, fin } => {
                    if let Some(s) = self.sockets.get_mut(&conn) {
                        s.rx_ready += len;
                        if len > 0 {
                            events.push(SockEvent::Readable {
                                conn,
                                available: s.rx_ready,
                            });
                        }
                        if fin {
                            s.eof = true;
                            events.push(SockEvent::Eof { conn });
                        }
                    }
                }
                NicToApp::TxFreed { conn, len } => {
                    if let Some(s) = self.sockets.get_mut(&conn) {
                        s.tx_free += len;
                        events.push(SockEvent::Writable {
                            conn,
                            free: s.tx_free,
                        });
                    }
                }
                NicToApp::Aborted { conn } => {
                    // NIC-side state is already reclaimed; mark the socket
                    // dead so further send/recv are no-ops, and surface the
                    // abort exactly once.
                    if let Some(s) = self.sockets.get_mut(&conn) {
                        s.closed = true;
                        s.eof = true;
                        events.push(SockEvent::Aborted { conn });
                    }
                }
            }
        }
    }

    fn push_desc(&mut self, desc: AppToNic) {
        let ok = self.queue.borrow_mut().to_nic.push(desc).is_ok();
        debug_assert!(ok, "to-NIC context queue overflow");
        self.pending_db = true;
    }

    /// Ring the doorbell for any descriptors queued since the last ring
    /// (MMIO write). Callers batch several sends before one flush.
    pub fn flush(&mut self, ctx: &mut Ctx<'_>) {
        if !self.pending_db {
            return;
        }
        self.pending_db = false;
        self.doorbells_sent += 1;
        ctx.send(
            self.nic.ctxq,
            self.nic.cfg.platform.pcie.mmio_latency,
            Doorbell { ctx: self.ctx_id },
        );
    }

    /// POSIX `send()`: copy into the socket TX buffer; returns bytes
    /// accepted (0 when the buffer is full — wait for `Writable`).
    pub fn send(&mut self, ctx: &mut Ctx<'_>, conn: u32, data: &[u8]) -> usize {
        let Some(s) = self.sockets.get_mut(&conn) else {
            return 0;
        };
        if s.closed {
            return 0;
        }
        let n = (data.len() as u32).min(s.tx_free);
        if n == 0 {
            return 0;
        }
        s.tx_buf.borrow_mut().write(s.tx_pos, &data[..n as usize]);
        s.tx_pos = s.tx_pos.wrapping_add(n);
        s.tx_free -= n;
        self.bytes_sent += n as u64;
        self.push_desc(AppToNic::TxAppend { conn, len: n });
        self.flush(ctx);
        n as usize
    }

    /// Like `send` but without copying real data (bulk benchmarks that
    /// only measure transport behaviour still move the descriptor and
    /// window state, and the payload region is part of the buffer).
    pub fn send_bytes(&mut self, ctx: &mut Ctx<'_>, conn: u32, len: u32) -> u32 {
        let Some(s) = self.sockets.get_mut(&conn) else {
            return 0;
        };
        if s.closed {
            return 0;
        }
        let n = len.min(s.tx_free);
        if n == 0 {
            return 0;
        }
        s.tx_pos = s.tx_pos.wrapping_add(n);
        s.tx_free -= n;
        self.bytes_sent += n as u64;
        self.push_desc(AppToNic::TxAppend { conn, len: n });
        self.flush(ctx);
        n
    }

    /// POSIX `recv()`: append up to `max` readable bytes to the caller's
    /// `out`; returns the count.
    pub fn recv(&mut self, ctx: &mut Ctx<'_>, conn: u32, max: u32, out: &mut Vec<u8>) -> usize {
        let Some(s) = self.sockets.get_mut(&conn) else {
            return 0;
        };
        let n = s.rx_ready.min(max);
        if n == 0 {
            return 0;
        }
        let at = out.len();
        out.resize(at + n as usize, 0);
        s.rx_buf.borrow().read(s.rx_pos, &mut out[at..]);
        s.rx_pos = s.rx_pos.wrapping_add(n);
        s.rx_ready -= n;
        self.bytes_received += n as u64;
        self.push_desc(AppToNic::RxConsumed { conn, len: n });
        self.flush(ctx);
        n as usize
    }

    /// Consume readable bytes without copying (bulk benchmarks).
    pub fn recv_bytes(&mut self, ctx: &mut Ctx<'_>, conn: u32, max: u32) -> u32 {
        let Some(s) = self.sockets.get_mut(&conn) else {
            return 0;
        };
        let n = s.rx_ready.min(max);
        if n == 0 {
            return 0;
        }
        s.rx_pos = s.rx_pos.wrapping_add(n);
        s.rx_ready -= n;
        self.bytes_received += n as u64;
        self.push_desc(AppToNic::RxConsumed { conn, len: n });
        self.flush(ctx);
        n
    }

    /// POSIX `close()`/`shutdown(WR)`: FIN after pending data.
    pub fn close(&mut self, ctx: &mut Ctx<'_>, conn: u32) {
        if let Some(s) = self.sockets.get_mut(&conn) {
            if s.closed {
                return;
            }
            s.closed = true;
        } else {
            return;
        }
        self.push_desc(AppToNic::Close { conn });
        self.flush(ctx);
    }

    /// Forget a fully-closed socket (the control plane reclaims data-path
    /// state on its own once both directions are done).
    pub fn drop_socket(&mut self, conn: u32) {
        self.sockets.remove(&conn);
    }
}

#[cfg(test)]
mod tests {
    //! Socket bookkeeping is covered here; the full application loop
    //! (handshake + echo over the pipeline) lives in the workspace
    //! integration tests.
    use super::*;
    use flextoe_core::hostmem::shared_buf;

    fn sock() -> Socket {
        Socket {
            conn: 1,
            rx_buf: shared_buf(64),
            tx_buf: shared_buf(64),
            rx_pos: 0,
            rx_ready: 0,
            tx_pos: 0,
            tx_free: 64,
            eof: false,
            closed: false,
        }
    }

    #[test]
    fn socket_accessors() {
        let mut s = sock();
        assert_eq!(s.readable(), 0);
        assert_eq!(s.writable(), 64);
        s.rx_ready = 10;
        s.tx_free = 20;
        assert_eq!(s.readable(), 10);
        assert_eq!(s.writable(), 20);
    }

    #[test]
    fn event_equality() {
        assert_eq!(
            SockEvent::Readable {
                conn: 1,
                available: 5
            },
            SockEvent::Readable {
                conn: 1,
                available: 5
            }
        );
        assert_ne!(SockEvent::Eof { conn: 1 }, SockEvent::Eof { conn: 2 });
    }
}
