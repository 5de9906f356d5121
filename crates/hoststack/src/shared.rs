//! The application-side interface of a baseline host stack: shared-memory
//! state between the application node and the stack node, plus the
//! [`StackApi`] implementation so the same application binaries run
//! unmodified (§5 "We use identical application binaries across all
//! baselines"). The sockets are the one table every stack family uses
//! ([`Sockets`]); this family supplies its descriptor queue and syscall,
//! its event queue, listen/connect and its host costs.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use flextoe_apps::{SockCall, SockEvent, Sockets, StackApi, StackOp};
use flextoe_core::hostmem::{AppToNic, SharedBuf};
use flextoe_sim::{Ctx, Doorbell, Duration, Msg, NodeId};
use flextoe_wire::Ip4;

use crate::costs::{StackCosts, StackKind};

/// The payload buffers (RX, TX) a socket opens with.
pub type SocketBufs = (SharedBuf, SharedBuf);

/// Shared between `HostSocketApi` (application node) and `HostStackNode`:
/// the baseline's context-queue pair (`to_stack` / `events`) plus the
/// application's socket table.
#[derive(Default)]
pub struct AppSide {
    /// Context id the stack node assigned when it first saw this side
    /// (listen/connect); the "syscall" [`Doorbell`] and the wake-up
    /// [`flextoe_sim::AppNotify`] carry it instead of the `Rc`.
    pub ctx: u16,
    /// Events the stack queued and the application has not taken yet;
    /// an `Accepted` or `Connected` one carries its socket's buffers.
    pub events: VecDeque<(SockEvent, Option<SocketBufs>)>,
    /// Written by the application only: the stack's events apply when
    /// the application takes them.
    pub socks: Sockets,
    pub to_stack: VecDeque<AppToNic>,
}

pub type SharedAppSide = Rc<RefCell<AppSide>>;

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
    side: SharedAppSide,
    stack_node: NodeId,
    app: NodeId,
    kind: StackKind,
    costs: StackCosts,
    /// Syscall latency: a mode switch for in-kernel stacks, a
    /// shared-memory poll for user-level ones.
    syscall_latency: Duration,
}

impl HostSocketApi {
    /// The endpoint of application node `app` on the `kind` stack node
    /// `stack_node`, with a fresh [`AppSide`].
    pub fn new(kind: StackKind, stack_node: NodeId, app: NodeId) -> Self {
        let syscall_latency = match kind {
            StackKind::Linux | StackKind::Chelsio => Duration::from_ns(600),
            _ => Duration::from_ns(80),
        };
        HostSocketApi {
            side: SharedAppSide::default(),
            stack_node,
            app,
            kind,
            costs: kind.costs(),
            syscall_latency,
        }
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
        let Msg::AppNotify(_) = msg else {
            return Err(msg);
        };
        let mut side = self.side.borrow_mut();
        let AppSide {
            events: queued,
            socks,
            ..
        } = &mut *side;
        for (ev, bufs) in queued.drain(..) {
            if let (Some(conn), Some((rx_buf, tx_buf))) = (ev.conn(), bufs) {
                socks.open(conn, rx_buf, tx_buf);
            }
            if socks.take(&ev) {
                events.push(ev);
            }
        }
        Ok(())
    }

    /// The descriptor goes on `to_stack`, and a syscall tells the stack.
    fn submit(&mut self, ctx: &mut Ctx<'_>, call: SockCall<'_>) -> u32 {
        let mut side = self.side.borrow_mut();
        let Some(desc) = call(&mut side.socks) else {
            return 0;
        };
        side.to_stack.push_back(desc);
        // only reachable with a socket, i.e. after the stack node handled
        // this side's listen/connect and assigned its context id
        let db = Doorbell { ctx: side.ctx };
        drop(side);
        ctx.send(self.stack_node, self.syscall_latency, db);
        desc.bytes()
    }

    fn host_overhead(&self, op: StackOp) -> u64 {
        let n_conns = self.side.borrow().socks.count() as u64;
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
        self.kind.name()
    }
}
