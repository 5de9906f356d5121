//! The stack-agnostic socket interface.
//!
//! "We use identical application binaries across all baselines" (§5) —
//! application nodes are generic over [`StackApi`], implemented by
//! FlexTOE's libTOE here and by the Linux/TAS/Chelsio models in
//! `flextoe-hoststack`.
//!
//! Each implementation also reports its **host-core overhead** per socket
//! operation — the Table 1 "NIC driver / TCP/IP stack / POSIX sockets"
//! cycles that execute on the application core for that stack. Application
//! nodes charge these against their core model, which is what makes the
//! Fig. 8 scalability and Table 1 breakdowns emerge.

use flextoe_control::AppReply;
use flextoe_core::NicHandle;
use flextoe_libtoe::LibToe;
pub use flextoe_libtoe::SockEvent;
use flextoe_sim::{try_cast, Ctx, Msg, NodeId};
use flextoe_wire::Ip4;

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

pub trait StackApi {
    fn listen(&mut self, ctx: &mut Ctx<'_>, port: u16);
    fn connect(&mut self, ctx: &mut Ctx<'_>, ip: Ip4, port: u16, opaque: u64);
    /// Intercept stack-owned messages (control replies, wakeups):
    /// appends readiness events to the application's `events`, or gives
    /// the message back if it isn't ours.
    fn on_msg(
        &mut self,
        ctx: &mut Ctx<'_>,
        msg: Msg,
        events: &mut Vec<SockEvent>,
    ) -> Result<(), Msg>;
    fn send(&mut self, ctx: &mut Ctx<'_>, conn: u32, data: &[u8]) -> usize;
    fn send_bytes(&mut self, ctx: &mut Ctx<'_>, conn: u32, len: u32) -> u32;
    /// Append up to `max` readable bytes to the application's `out`;
    /// returns the count.
    fn recv(&mut self, ctx: &mut Ctx<'_>, conn: u32, max: u32, out: &mut Vec<u8>) -> usize;
    fn recv_bytes(&mut self, ctx: &mut Ctx<'_>, conn: u32, max: u32) -> u32;
    fn close(&mut self, ctx: &mut Ctx<'_>, conn: u32);
    /// Host-core cycles this stack spends per operation (driver + TCP/IP
    /// + sockets shares that run on the application core).
    fn host_overhead(&self, op: StackOp) -> u64;
    fn stack_name(&self) -> &'static str;
}

/// FlexTOE: all TCP processing is offloaded; only the POSIX-sockets layer
/// runs on the host (Table 1: 0.74 kc sockets, 0 driver, 0 stack, 0.04 kc
/// other per request⁠—split across send/recv/poll below).
pub struct FlexToeStack {
    lib: LibToe,
}

impl FlexToeStack {
    pub fn new(ctx: &mut Ctx<'_>, ctx_id: u16, nic: NicHandle, ctrl: NodeId, app: NodeId) -> Self {
        FlexToeStack {
            lib: LibToe::new(ctx, ctx_id, nic, ctrl, app),
        }
    }

    pub fn lib(&self) -> &LibToe {
        &self.lib
    }
}

impl StackApi for FlexToeStack {
    fn listen(&mut self, ctx: &mut Ctx<'_>, port: u16) {
        self.lib.listen(ctx, port);
    }
    fn connect(&mut self, ctx: &mut Ctx<'_>, ip: Ip4, port: u16, opaque: u64) {
        self.lib.connect(ctx, ip, port, opaque);
    }
    fn on_msg(
        &mut self,
        _ctx: &mut Ctx<'_>,
        msg: Msg,
        events: &mut Vec<SockEvent>,
    ) -> Result<(), Msg> {
        match msg {
            Msg::AppNotify(_) => self.lib.poll(events),
            msg => events.push(self.lib.on_reply(*try_cast::<AppReply>(msg)?)),
        }
        Ok(())
    }
    fn send(&mut self, ctx: &mut Ctx<'_>, conn: u32, data: &[u8]) -> usize {
        self.lib.send(ctx, conn, data)
    }
    fn send_bytes(&mut self, ctx: &mut Ctx<'_>, conn: u32, len: u32) -> u32 {
        self.lib.send_bytes(ctx, conn, len)
    }
    fn recv(&mut self, ctx: &mut Ctx<'_>, conn: u32, max: u32, out: &mut Vec<u8>) -> usize {
        self.lib.recv(ctx, conn, max, out)
    }
    fn recv_bytes(&mut self, ctx: &mut Ctx<'_>, conn: u32, max: u32) -> u32 {
        self.lib.recv_bytes(ctx, conn, max)
    }
    fn close(&mut self, ctx: &mut Ctx<'_>, conn: u32) {
        self.lib.close(ctx, conn);
    }
    fn host_overhead(&self, op: StackOp) -> u64 {
        // Table 1 FlexTOE column: 0.74 kc sockets + 0.04 kc other per
        // request-response pair.
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
    fn send(&mut self, ctx: &mut Ctx<'_>, conn: u32, data: &[u8]) -> usize {
        (**self).send(ctx, conn, data)
    }
    fn send_bytes(&mut self, ctx: &mut Ctx<'_>, conn: u32, len: u32) -> u32 {
        (**self).send_bytes(ctx, conn, len)
    }
    fn recv(&mut self, ctx: &mut Ctx<'_>, conn: u32, max: u32, out: &mut Vec<u8>) -> usize {
        (**self).recv(ctx, conn, max, out)
    }
    fn recv_bytes(&mut self, ctx: &mut Ctx<'_>, conn: u32, max: u32) -> u32 {
        (**self).recv_bytes(ctx, conn, max)
    }
    fn close(&mut self, ctx: &mut Ctx<'_>, conn: u32) {
        (**self).close(ctx, conn)
    }
    fn host_overhead(&self, op: StackOp) -> u64 {
        (**self).host_overhead(op)
    }
    fn stack_name(&self) -> &'static str {
        (**self).stack_name()
    }
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use flextoe_sim::{Doorbell, FsUpdate, IntoMsg, Node, Sim, Tick, Time};

    use super::*;
    use crate::{
        FramedServerApp, KvServerApp, OpenLoopClientApp, RpcClientApp, RpcServerApp,
        SessionClientApp,
    };

    /// A stack that owns no message: everything is handed back.
    struct Unplugged;

    impl StackApi for Unplugged {
        fn listen(&mut self, _: &mut Ctx<'_>, _: u16) {}
        fn connect(&mut self, _: &mut Ctx<'_>, _: Ip4, _: u16, _: u64) {}
        fn on_msg(&mut self, _: &mut Ctx<'_>, msg: Msg, _: &mut Vec<SockEvent>) -> Result<(), Msg> {
            Err(msg)
        }
        fn send(&mut self, _: &mut Ctx<'_>, _: u32, _: &[u8]) -> usize {
            0
        }
        fn send_bytes(&mut self, _: &mut Ctx<'_>, _: u32, _: u32) -> u32 {
            0
        }
        fn recv(&mut self, _: &mut Ctx<'_>, _: u32, _: u32, _: &mut Vec<u8>) -> usize {
            0
        }
        fn recv_bytes(&mut self, _: &mut Ctx<'_>, _: u32, _: u32) -> u32 {
            0
        }
        fn close(&mut self, _: &mut Ctx<'_>, _: u32) {}
        fn host_overhead(&self, _: StackOp) -> u64 {
            0
        }
        fn stack_name(&self) -> &'static str {
            "unplugged"
        }
    }

    /// Start `app`, then hand it `msg`; the panic text if it panics.
    fn deliver(app: impl Node, msg: impl IntoMsg) -> Option<String> {
        let mut sim = Sim::new(1);
        let id = sim.add_node(app);
        sim.schedule(Time::ZERO, id, Tick); // first message starts the app
        sim.schedule(Time::from_us(1), id, msg);
        let panic = catch_unwind(AssertUnwindSafe(|| sim.run())).err()?;
        Some(
            panic
                .downcast_ref::<String>()
                .expect("formatted panic")
                .clone(),
        )
    }

    /// With the per-request messages typed, an application matches on
    /// `Msg` instead of downcasting — and a typed variant nobody sends it
    /// (a wiring bug) still dies loudly, naming the variant, instead of
    /// being taken for a self-wake or dropped.
    #[test]
    fn apps_reject_typed_variants_they_have_no_handler_for() {
        fn init() -> crate::StackInit<Unplugged> {
            Box::new(|_, _| Unplugged)
        }
        let panics = [
            deliver(
                RpcServerApp::new(Default::default(), init()),
                Doorbell { ctx: 0 },
            ),
            deliver(
                RpcClientApp::new(Default::default(), init()),
                Doorbell { ctx: 0 },
            ),
            // the arrival self-wake is `Token(0)`; any other token is foreign
            deliver(RpcClientApp::new(Default::default(), init()), 7u64),
            deliver(
                FramedServerApp::new(Default::default(), init()),
                FsUpdate {
                    conn: 0,
                    sendable: 1,
                },
            ),
            deliver(
                OpenLoopClientApp::new(Default::default(), init()),
                Doorbell { ctx: 0 },
            ),
            deliver(
                SessionClientApp::new(Default::default(), init()),
                Doorbell { ctx: 0 },
            ),
            deliver(
                KvServerApp::new(Default::default(), init()),
                Doorbell { ctx: 0 },
            ),
        ];
        for (i, p) in panics.iter().enumerate() {
            let text = p.as_deref().unwrap_or("no panic");
            assert!(
                text.starts_with("message type mismatch: expected ")
                    && text.ends_with(" variant")
                    && (text.contains("got Doorbell")
                        || text.contains("got FsUpdate")
                        || text.contains("got Token")),
                "app {i}: {text}"
            );
        }
        // and the self-wakes they do own are still accepted
        assert_eq!(
            deliver(RpcServerApp::new(Default::default(), init()), 7u64),
            None
        );
        assert_eq!(
            deliver(RpcClientApp::new(Default::default(), init()), 0u64),
            None
        );
    }
}
