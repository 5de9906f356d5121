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
use flextoe_sim::{try_cast, Ctx, Duration, FxHashMap, Msg, NodeId};
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

/// Shared between `HostSocketApi` (application node) and `HostStackNode`.
#[derive(Default)]
pub struct AppSide {
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

/// "Syscall": descriptors are waiting in `to_stack`.
pub struct HostSyscall {
    pub side: SharedAppSide,
}
flextoe_sim::custom_msg!(HostSyscall);

/// Stack -> app: events are waiting (the baseline's epoll wakeup).
pub struct HostWake;
flextoe_sim::custom_msg!(HostWake);

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
        ctx.send(
            self.stack_node,
            self.syscall_latency,
            HostSyscall {
                side: self.side.clone(),
            },
        );
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

    fn on_msg(&mut self, _ctx: &mut Ctx<'_>, msg: Msg) -> Result<Vec<SockEvent>, Msg> {
        match try_cast::<HostWake>(msg) {
            Ok(_) => Ok(self.side.borrow_mut().events.drain(..).collect()),
            Err(m) => Err(m),
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

    fn recv(&mut self, ctx: &mut Ctx<'_>, conn: u32, max: u32) -> Vec<u8> {
        let data = {
            let mut side = self.side.borrow_mut();
            let Some(s) = side.socks.get_mut(&conn) else {
                return Vec::new();
            };
            let n = s.rx_ready.min(max);
            if n == 0 {
                return Vec::new();
            }
            let data = s.rx_buf.borrow().read_vec(s.rx_pos, n);
            s.rx_pos = s.rx_pos.wrapping_add(n);
            s.rx_ready -= n;
            side.to_stack
                .push_back(AppToNic::RxConsumed { conn, len: n });
            data
        };
        self.syscall(ctx);
        data
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
