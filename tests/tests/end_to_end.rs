//! End-to-end integration: handshake + data transfer through the complete
//! FlexTOE pipeline (MAC → sequencer → pre → protocol → post → DMA →
//! context queues → libTOE) on both hosts, over a simulated link.

use flextoe_control::AppReply;
use flextoe_core::NicHandle;
use flextoe_integration::default_setup;
use flextoe_libtoe::{LibToe, SockEvent, StackApi};
use flextoe_sim::{try_cast, Ctx, Msg, Node, NodeId, Sim, Tick, Time};
use flextoe_wire::Ip4;

/// Test server: listens, echoes everything it reads, closes on EOF.
struct EchoServer {
    nic: NicHandle,
    ctrl: NodeId,
    lib: Option<LibToe>,
    port: u16,
    pub echoed: u64,
    pub accepted: u32,
    pub eofs: u32,
}

impl EchoServer {
    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        let lib = self.lib.as_mut().unwrap();
        let mut events = Vec::new();
        lib.poll(&mut events);
        for ev in events {
            match ev {
                SockEvent::Readable { conn, .. } => {
                    let mut data = Vec::new();
                    lib.recv(ctx, conn, u32::MAX, &mut data);
                    self.echoed += data.len() as u64;
                    let sent = lib.send(ctx, conn, &data);
                    assert_eq!(sent, data.len(), "echo server tx buffer full");
                }
                SockEvent::Eof { conn } => {
                    self.eofs += 1;
                    lib.close(ctx, conn);
                }
                _ => {}
            }
        }
    }
}

impl Node for EchoServer {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        if self.lib.is_none() {
            // first message is the start tick
            let mut lib = LibToe::new(ctx, 1, self.nic.clone(), self.ctrl, ctx.self_id());
            lib.listen(ctx, self.port);
            self.lib = Some(lib);
            return;
        }
        let msg = match try_cast::<AppReply>(msg) {
            Ok(reply) => {
                if let SockEvent::Accepted { .. } = self.lib.as_mut().unwrap().on_reply(*reply) {
                    self.accepted += 1;
                }
                return;
            }
            Err(m) => m,
        };
        assert!(matches!(msg, Msg::AppNotify(_)), "{}", msg.variant_name());
        self.pump(ctx);
    }
}

/// Test client: connects, sends `req` bytes patterned, validates the echo.
struct EchoClient {
    nic: NicHandle,
    ctrl: NodeId,
    server: (Ip4, u16),
    lib: Option<LibToe>,
    msg_size: usize,
    rounds: u32,
    sent_rounds: u32,
    conn: Option<u32>,
    rx: Vec<u8>,
    pub completed: u32,
    pub connected: bool,
    pub failed: bool,
    pub finished_at: Time,
    pub got_eof: bool,
}

impl EchoClient {
    fn pattern(&self, round: u32) -> Vec<u8> {
        (0..self.msg_size)
            .map(|i| (i as u8) ^ (round as u8) ^ 0x5a)
            .collect()
    }

    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        let Some(conn) = self.conn else { return };
        let lib = self.lib.as_mut().unwrap();
        let mut events = Vec::new();
        lib.poll(&mut events);
        for ev in events {
            match ev {
                SockEvent::Readable { .. } => {
                    lib.recv(ctx, conn, u32::MAX, &mut self.rx);
                }
                SockEvent::Eof { .. } => {
                    self.got_eof = true;
                }
                _ => {}
            }
        }
        while self.rx.len() >= self.msg_size {
            let echo: Vec<u8> = self.rx.drain(..self.msg_size).collect();
            assert_eq!(
                echo,
                self.pattern(self.completed),
                "echo payload corrupted in round {}",
                self.completed
            );
            self.completed += 1;
            if self.sent_rounds < self.rounds {
                let req = self.pattern(self.sent_rounds);
                let lib = self.lib.as_mut().unwrap();
                let n = lib.send(ctx, conn, &req);
                assert_eq!(n, req.len());
                self.sent_rounds += 1;
            } else if self.completed == self.rounds {
                self.finished_at = ctx.now();
                let lib = self.lib.as_mut().unwrap();
                lib.close(ctx, conn);
            }
        }
    }
}

impl Node for EchoClient {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        if self.lib.is_none() {
            let mut lib = LibToe::new(ctx, 1, self.nic.clone(), self.ctrl, ctx.self_id());
            lib.connect(ctx, self.server.0, self.server.1, 42);
            self.lib = Some(lib);
            return;
        }
        let msg = match try_cast::<AppReply>(msg) {
            Ok(reply) => {
                match self.lib.as_mut().unwrap().on_reply(*reply) {
                    SockEvent::Connected { conn, opaque } => {
                        assert_eq!(opaque, 42);
                        self.connected = true;
                        self.conn = Some(conn);
                        // send the first request
                        let req = self.pattern(0);
                        let lib = self.lib.as_mut().unwrap();
                        let n = lib.send(ctx, conn, &req);
                        assert_eq!(n, req.len());
                        self.sent_rounds = 1;
                    }
                    SockEvent::ConnectFailed { .. } => self.failed = true,
                    _ => {}
                }
                return;
            }
            Err(m) => m,
        };
        assert!(matches!(msg, Msg::AppNotify(_)), "{}", msg.variant_name());
        self.pump(ctx);
    }
}

fn run_echo(msg_size: usize, rounds: u32) -> (Sim, NodeId, NodeId) {
    let mut sim = Sim::new(42);
    let (a, b) = default_setup(&mut sim);
    let server = sim.add_node(EchoServer {
        nic: b.nic.handle(),
        ctrl: b.ctrl,
        lib: None,
        port: 7777,
        echoed: 0,
        accepted: 0,
        eofs: 0,
    });
    let client = sim.add_node(EchoClient {
        nic: a.nic.handle(),
        ctrl: a.ctrl,
        server: (b.ip, 7777),
        lib: None,
        msg_size,
        rounds,
        sent_rounds: 0,
        conn: None,
        rx: Vec::new(),
        completed: 0,
        connected: false,
        failed: false,
        finished_at: Time::ZERO,
        got_eof: false,
    });
    sim.schedule(Time::ZERO, server, Tick);
    sim.schedule(Time::from_us(10), client, Tick);
    sim.run_until(Time::from_ms(500));
    (sim, server, client)
}

#[test]
fn handshake_and_small_echo() {
    let (sim, server, client) = run_echo(64, 1);
    let c = sim.node_ref::<EchoClient>(client);
    let s = sim.node_ref::<EchoServer>(server);
    assert!(c.connected, "handshake failed");
    assert_eq!(s.accepted, 1);
    assert_eq!(c.completed, 1, "echo round incomplete");
    assert_eq!(s.echoed, 64);
}

#[test]
fn multi_round_echo_with_data_integrity() {
    let (sim, server, client) = run_echo(200, 50);
    let c = sim.node_ref::<EchoClient>(client);
    assert_eq!(c.completed, 50);
    assert_eq!(sim.node_ref::<EchoServer>(server).echoed, 50 * 200);
}

#[test]
fn multi_segment_messages() {
    // 8 KB spans 6 MSS-sized segments each way
    let (sim, server, client) = run_echo(8192, 10);
    let c = sim.node_ref::<EchoClient>(client);
    assert_eq!(c.completed, 10);
    assert_eq!(sim.node_ref::<EchoServer>(server).echoed, 10 * 8192);
}

#[test]
fn fin_teardown_reaches_both_sides() {
    let (mut sim, server, client) = run_echo(64, 3);
    // client closed after round 3; server echoes EOF with its own close
    sim.run_until(Time::from_ms(600));
    let s = sim.node_ref::<EchoServer>(server);
    assert_eq!(s.eofs, 1, "server saw client FIN");
    let c = sim.node_ref::<EchoClient>(client);
    assert!(c.got_eof, "client saw server FIN");
    // control planes reclaimed data-path state on both hosts
    assert_eq!(sim.stats.get_named("ctrl.teardown"), 2);
}

#[test]
fn single_rpc_latency_is_microseconds() {
    // sanity: one 64 B echo over 2 us links through both pipelines should
    // complete in tens of microseconds, not milliseconds (Fig. 11 scale).
    let (sim, _server, client) = run_echo(64, 1);
    let c = sim.node_ref::<EchoClient>(client);
    let rtt = c.finished_at;
    assert!(
        rtt > Time::from_us(10) && rtt < Time::from_us(300),
        "unexpected end-to-end completion time {rtt:?}"
    );
}
