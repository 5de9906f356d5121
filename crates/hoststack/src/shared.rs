//! The application-side interface of a baseline host stack: shared-memory
//! state between the application node and the stack node, plus the
//! [`StackApi`] implementation so the same application binaries run
//! unmodified (§5 "We use identical application binaries across all
//! baselines").

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use flextoe_apps::{SockEvent, StackApi, StackOp};
use flextoe_core::hostmem::{AppToNic, SharedBuf};
use flextoe_sim::{Ctx, Doorbell, Duration, FxHashMap, Msg, NodeId};
use flextoe_wire::Ip4;

use crate::costs::StackCosts;

/// Application-side view of one socket.
pub struct AppSock {
    pub rx_buf: SharedBuf,
    pub tx_buf: SharedBuf,
    pub rx_pos: u32,
    pub rx_ready: u32,
    pub tx_pos: u32,
    pub tx_free: u32,
    pub closed: bool,
}

/// Shared between `HostSocketApi` (application node) and `HostStackNode`:
/// the baseline's context-queue pair (`to_stack` / `events`) plus the
/// per-socket state.
#[derive(Default)]
pub struct AppSide {
    /// Context id the stack node assigned when it first saw this side
    /// (listen/connect); the "syscall" [`Doorbell`] and the wake-up
    /// [`flextoe_sim::AppNotify`] carry it instead of the `Rc`.
    pub ctx: u16,
    pub events: VecDeque<SockEvent>,
    pub socks: FxHashMap<u32, AppSock>,
    pub to_stack: VecDeque<AppToNic>,
}

pub type SharedAppSide = Rc<RefCell<AppSide>>;

pub fn shared_app_side() -> SharedAppSide {
    Rc::new(RefCell::new(AppSide::default()))
}

// ---- messages app -> stack node ------------------------------------------

pub struct HostListen {
    pub port: u16,
    pub side: SharedAppSide,
    pub app: NodeId,
}
flextoe_sim::custom_msg!(HostListen);

pub struct HostConnect {
    pub ip: Ip4,
    pub port: u16,
    pub opaque: u64,
    pub side: SharedAppSide,
    pub app: NodeId,
}
flextoe_sim::custom_msg!(HostConnect);

// The two per-request messages are typed `Msg` variants shared with the
// FlexTOE path: a "syscall" (descriptors are waiting in `to_stack`) is a
// `Doorbell { ctx }`, the epoll wake-up (events are waiting) an
// `AppNotify { ctx }`, `ctx` being [`AppSide::ctx`].

/// The [`StackApi`] implementation for the baseline stacks.
pub struct HostSocketApi {
    pub side: SharedAppSide,
    stack_node: NodeId,
    app: NodeId,
    costs: StackCosts,
    name: &'static str,
    /// Syscall latency (mode switch) for in-kernel stacks.
    syscall_latency: Duration,
}

impl HostSocketApi {
    pub fn new(
        side: SharedAppSide,
        stack_node: NodeId,
        app: NodeId,
        costs: StackCosts,
        name: &'static str,
        syscall_latency: Duration,
    ) -> Self {
        HostSocketApi {
            side,
            stack_node,
            app,
            costs,
            name,
            syscall_latency,
        }
    }

    fn syscall(&self, ctx: &mut Ctx<'_>) {
        // only reachable with a socket, i.e. after the stack node handled
        // this side's listen/connect and assigned its context id
        let db = Doorbell {
            ctx: self.side.borrow().ctx,
        };
        ctx.send(self.stack_node, self.syscall_latency, db);
    }
}

impl StackApi for HostSocketApi {
    fn listen(&mut self, ctx: &mut Ctx<'_>, port: u16) {
        ctx.send(
            self.stack_node,
            self.syscall_latency,
            HostListen {
                port,
                side: self.side.clone(),
                app: self.app,
            },
        );
    }

    fn connect(&mut self, ctx: &mut Ctx<'_>, ip: Ip4, port: u16, opaque: u64) {
        ctx.send(
            self.stack_node,
            self.syscall_latency,
            HostConnect {
                ip,
                port,
                opaque,
                side: self.side.clone(),
                app: self.app,
            },
        );
    }

    fn on_msg(
        &mut self,
        _ctx: &mut Ctx<'_>,
        msg: Msg,
        events: &mut Vec<SockEvent>,
    ) -> Result<(), Msg> {
        match msg {
            Msg::AppNotify(_) => {
                events.extend(self.side.borrow_mut().events.drain(..));
                Ok(())
            }
            m => Err(m),
        }
    }

    fn send(&mut self, ctx: &mut Ctx<'_>, conn: u32, data: &[u8]) -> usize {
        let n = {
            let mut side = self.side.borrow_mut();
            let Some(s) = side.socks.get_mut(&conn) else {
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
            side.to_stack.push_back(AppToNic::TxAppend { conn, len: n });
            n
        };
        self.syscall(ctx);
        n as usize
    }

    fn send_bytes(&mut self, ctx: &mut Ctx<'_>, conn: u32, len: u32) -> u32 {
        let n = {
            let mut side = self.side.borrow_mut();
            let Some(s) = side.socks.get_mut(&conn) else {
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
            side.to_stack.push_back(AppToNic::TxAppend { conn, len: n });
            n
        };
        self.syscall(ctx);
        n
    }

    fn recv(&mut self, ctx: &mut Ctx<'_>, conn: u32, max: u32, out: &mut Vec<u8>) -> usize {
        let n = {
            let mut side = self.side.borrow_mut();
            let Some(s) = side.socks.get_mut(&conn) else {
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
            side.to_stack
                .push_back(AppToNic::RxConsumed { conn, len: n });
            n
        };
        self.syscall(ctx);
        n as usize
    }

    fn recv_bytes(&mut self, ctx: &mut Ctx<'_>, conn: u32, max: u32) -> u32 {
        let n = {
            let mut side = self.side.borrow_mut();
            let Some(s) = side.socks.get_mut(&conn) else {
                return 0;
            };
            let n = s.rx_ready.min(max);
            if n == 0 {
                return 0;
            }
            s.rx_pos = s.rx_pos.wrapping_add(n);
            s.rx_ready -= n;
            side.to_stack
                .push_back(AppToNic::RxConsumed { conn, len: n });
            n
        };
        self.syscall(ctx);
        n
    }

    fn close(&mut self, ctx: &mut Ctx<'_>, conn: u32) {
        {
            let mut side = self.side.borrow_mut();
            let Some(s) = side.socks.get_mut(&conn) else {
                return;
            };
            if s.closed {
                return;
            }
            s.closed = true;
            side.to_stack.push_back(AppToNic::Close { conn });
        }
        self.syscall(ctx);
    }

    fn host_overhead(&self, op: StackOp) -> u64 {
        let n_conns = self.side.borrow().socks.len() as u64;
        match op {
            StackOp::Send => self.costs.sockets_send,
            StackOp::Recv => self.costs.sockets_recv,
            StackOp::Poll => {
                self.costs.sockets_poll
                    + self.costs.other_per_req
                    + self.costs.poll_per_conn * n_conns
            }
        }
    }

    fn stack_name(&self) -> &'static str {
        self.name
    }
}
