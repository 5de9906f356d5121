//! Quickstart: two FlexTOE hosts, one echo round-trip, annotated.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Builds the full system of the paper — two simulated Agilio-CX40 NICs
//! running the offloaded TCP data-path, host control planes, libTOE
//! sockets — connects them with a 2 µs link, performs a TCP handshake,
//! echoes a message, and tears the connection down with FINs.

use flextoe_apps::{LibToe, SockEvent, StackApi};
use flextoe_control::{ControlPlane, CtrlConfig};
use flextoe_core::{FlexToeNic, NicConfig, PipeCfg};
use flextoe_netsim::{fill_link, Link};
use flextoe_sim::{Ctx, Duration, Msg, Node, NodeId, Sim, Tick, Time};
use flextoe_wire::{Ip4, MacAddr};

type MakeStack = Box<dyn FnOnce(&mut Ctx<'_>, NodeId) -> LibToe>;

/// A minimal server: echoes one message, closes on EOF.
struct Echo {
    make_stack: Option<MakeStack>,
    stack: Option<LibToe>,
    is_server: bool,
    peer_ip: Ip4,
    done: bool,
}

impl Node for Echo {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        // First message: set up libTOE and listen/connect.
        if self.stack.is_none() {
            let mut stack = (self.make_stack.take().unwrap())(ctx, ctx.self_id());
            if self.is_server {
                stack.listen(ctx, 7); // echo port
            } else {
                stack.connect(ctx, self.peer_ip, 7, 0);
            }
            self.stack = Some(stack);
            assert!(matches!(msg, Msg::Tick), "first message is the start tick");
            return;
        }
        let stack = self.stack.as_mut().unwrap();
        // the application owns the event and payload buffers; a long-lived
        // app keeps them as members so the steady state never allocates
        let mut events = Vec::new();
        if stack.on_msg(ctx, msg, &mut events).is_err() {
            return;
        }
        for ev in events {
            match ev {
                SockEvent::Connected { conn, .. } => {
                    println!("[{:>9}] client: connected (conn {conn})", ctx.now());
                    stack.send(ctx, conn, b"hello, flextoe!");
                }
                SockEvent::Accepted { conn, peer, .. } => {
                    println!("[{:>9}] server: accepted {}:{}", ctx.now(), peer.0, peer.1);
                    let _ = conn;
                }
                SockEvent::Readable { conn, .. } => {
                    let mut data = Vec::new();
                    stack.recv(ctx, conn, 1024, &mut data);
                    let text = String::from_utf8_lossy(&data);
                    if self.is_server {
                        println!("[{:>9}] server: got {:?}, echoing", ctx.now(), text);
                        stack.send(ctx, conn, &data);
                    } else {
                        println!("[{:>9}] client: echo = {:?}", ctx.now(), text);
                        assert_eq!(&*data, b"hello, flextoe!");
                        stack.close(ctx, conn);
                        self.done = true;
                    }
                }
                SockEvent::Eof { conn } => {
                    println!("[{:>9}] peer closed conn {conn}", ctx.now());
                    stack.close(ctx, conn);
                }
                _ => {}
            }
        }
    }
}

fn main() {
    let mut sim = Sim::new(2022);

    // --- two hosts: NICs (the offloaded data-path) + control planes ----
    let ips = [Ip4::host(1), Ip4::host(2)];
    let macs = [MacAddr::local(1), MacAddr::local(2)];
    let l_ab = sim.reserve_node();
    let l_ba = sim.reserve_node();
    let ctrl_a = sim.reserve_node();
    let ctrl_b = sim.reserve_node();
    let nic_a = FlexToeNic::build(
        &mut sim,
        PipeCfg::agilio_full(),
        NicConfig {
            mac: macs[0],
            ip: ips[0],
        },
        l_ab,
        ctrl_a,
    );
    let nic_b = FlexToeNic::build(
        &mut sim,
        PipeCfg::agilio_full(),
        NicConfig {
            mac: macs[1],
            ip: ips[1],
        },
        l_ba,
        ctrl_b,
    );
    fill_link(&mut sim, l_ab, Link::new(nic_b.mac, Duration::from_us(2)));
    fill_link(&mut sim, l_ba, Link::new(nic_a.mac, Duration::from_us(2)));
    let mut cp_a = ControlPlane::new(CtrlConfig::default(), nic_a.handle());
    cp_a.add_peer(ips[1], macs[1]);
    let mut cp_b = ControlPlane::new(CtrlConfig::default(), nic_b.handle());
    cp_b.add_peer(ips[0], macs[0]);
    sim.fill_node(ctrl_a, cp_a);
    sim.fill_node(ctrl_b, cp_b);

    // --- applications over libTOE ---------------------------------------
    let (ha, hb) = (nic_a.handle(), nic_b.handle());
    let server = sim.add_node(Echo {
        make_stack: Some(Box::new(move |ctx, app| {
            LibToe::new(ctx, 1, hb.clone(), ctrl_b, app)
        })),
        stack: None,
        is_server: true,
        peer_ip: ips[0],
        done: false,
    });
    let client = sim.add_node(Echo {
        make_stack: Some(Box::new(move |ctx, app| {
            LibToe::new(ctx, 1, ha.clone(), ctrl_a, app)
        })),
        stack: None,
        is_server: false,
        peer_ip: ips[1],
        done: false,
    });

    sim.schedule(Time::ZERO, server, Tick);
    sim.schedule(Time::from_us(10), client, Tick);
    sim.run_until(Time::from_ms(100));

    assert!(sim.node_ref::<Echo>(client).done, "echo did not complete");
    println!(
        "\nsimulated {} in {} events — connection closed cleanly on both sides ({} teardowns)",
        sim.now(),
        sim.events_processed(),
        sim.stats.get_named("ctrl.teardown"),
    );
}
