//! The stack-agnostic socket interface, re-exported from the one socket
//! library (`flextoe-libtoe`): application nodes are generic over
//! [`StackApi`], implemented by FlexTOE's [`LibToe`] and by the
//! Linux/TAS/Chelsio models in `flextoe-hoststack`, every one over the
//! same [`Sockets`] table.

use flextoe_sim::{Ctx, NodeId};

pub use flextoe_libtoe::{LibToe, SockCall, SockEvent, Sockets, StackApi, StackOp};

/// Deferred stack construction (stack setup needs a `Ctx`).
pub type StackInit<S> = Box<dyn FnOnce(&mut Ctx<'_>, NodeId) -> S>;

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use flextoe_sim::{Ctx, Doorbell, Duration, FsUpdate, IntoMsg, Msg, Node, Sim, Tick, Time};
    use flextoe_wire::Ip4;

    use super::*;
    use crate::{Arrival, Client, ClientSpec, Server, ServerSpec};

    /// A stack that owns no message: everything is handed back.
    struct Unplugged;

    impl StackApi for Unplugged {
        fn listen(&mut self, _: &mut Ctx<'_>, _: u16) {}
        fn connect(&mut self, _: &mut Ctx<'_>, _: Ip4, _: u16, _: u64) {}
        fn on_msg(&mut self, _: &mut Ctx<'_>, msg: Msg, _: &mut Vec<SockEvent>) -> Result<(), Msg> {
            Err(msg)
        }
        fn submit(&mut self, _: &mut Ctx<'_>, _: SockCall<'_>) -> u32 {
            0
        }
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
    /// being taken for a self-wake or dropped. One case per arrival
    /// process of the client and per wire format of the server.
    #[test]
    fn apps_reject_typed_variants_they_have_no_handler_for() {
        fn init() -> StackInit<Unplugged> {
            Box::new(|_, _| Unplugged)
        }
        let client = |arrival| {
            Client::new(
                ClientSpec {
                    arrival,
                    ..Default::default()
                },
                init(),
            )
        };
        let closed = Arrival::Closed { pipeline: 1 };
        let open = Arrival::Open { rate_rps: 1e3 };
        let sessions = Arrival::Sessions {
            think: Duration::from_us(1),
            backoff_base: Duration::from_us(1),
            backoff_cap: Duration::from_us(1),
        };
        let fixed = ServerSpec::default;
        let panics = [
            deliver(Server::new(fixed(), init()), Doorbell { ctx: 0 }),
            deliver(
                Server::new(ServerSpec::framed(), init()),
                FsUpdate {
                    conn: 0,
                    sendable: 1,
                },
            ),
            deliver(client(closed), Doorbell { ctx: 0 }),
            // a closed loop sets no timer: every token is foreign
            deliver(client(closed), 0u64),
            deliver(client(open), Doorbell { ctx: 0 }),
            // the arrival self-wake is `Token(0)`; any other token is foreign
            deliver(client(open), 7u64),
            deliver(
                client(sessions),
                FsUpdate {
                    conn: 0,
                    sendable: 1,
                },
            ),
            // a session timer names its session: slot 5 was never opened
            deliver(client(sessions), 5u64 << 32),
        ];
        for (i, p) in panics.iter().enumerate() {
            let text = p.as_deref().unwrap_or("no panic");
            assert!(
                text.starts_with("message type mismatch: expected ")
                    && text.ends_with(" variant")
                    && (text.contains("got Doorbell")
                        || text.contains("got FsUpdate")
                        || text.contains("got Token")),
                "case {i}: {text}"
            );
        }
        // and the self-wakes they do own are still accepted
        assert_eq!(deliver(Server::new(fixed(), init()), 7u64), None);
        assert_eq!(
            deliver(Server::new(ServerSpec::framed(), init()), 7u64),
            None
        );
    }
}
