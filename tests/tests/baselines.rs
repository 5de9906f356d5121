//! Baseline-stack integration: Linux/TAS/Chelsio models run the *same*
//! application binaries, interoperate with each other and with FlexTOE on
//! the wire (§5.1 Fig. 9 runs all server×client combinations).

use flextoe_apps::{Arrival, ClientSpec, ServerSpec, SizeDist, SockEvent, Wire};
use flextoe_core::hostmem::AppToNic;
use flextoe_hoststack::engine::BUF_SIZE;
use flextoe_hoststack::HostStackNode;
use flextoe_netsim::Faults;
use flextoe_sim::{Duration, NodeId, Sim, Tick, Time};
use flextoe_topo::{
    build_fabric, build_pair, DynClient, DynServer, Fabric, PairOpts, Role, Scenario, Stack,
};
use flextoe_wire::SeqNum;

type Client = DynClient;
type Server = DynServer;

/// A `client_stack` host and a `server_stack` host joined by the 2 µs
/// link pair `opts` describes; the server echoes `msg`-byte requests, the
/// client runs `conns` closed-loop connections for `rounds` requests.
fn run_pair(
    seed: u64,
    (server_stack, client_stack): (Stack, Stack),
    opts: &PairOpts,
    msg: u32,
    conns: u32,
    rounds: u64,
) -> (Sim, NodeId) {
    let mut sim = Sim::new(seed);
    let (a, b) = build_pair(&mut sim, client_stack, server_stack, opts);
    let server = sim.add_node(Server::new(
        ServerSpec {
            wire: Wire::Fixed {
                req: msg,
                resp: msg,
            },
            echo_data: true,
            ..Default::default()
        },
        b.stack_init(server_stack, 1),
    ));
    let client = sim.add_node(Client::new(
        ClientSpec {
            server_ip: b.ip,
            n_conns: conns,
            wire: Wire::Fixed {
                req: msg,
                resp: msg,
            },
            arrival: Arrival::Closed { pipeline: 1 },
            stop_after: Some(rounds),
            ..Default::default()
        },
        a.stack_init(client_stack, 1),
    ));
    sim.schedule(Time::ZERO, server, Tick);
    sim.schedule(Time::from_us(10), client, Tick);
    sim.run_until(Time::from_ms(3000));
    (sim, client)
}

fn run_combo(server_kind: Stack, client_kind: Stack, msg: u32, rounds: u64) -> (Sim, NodeId) {
    let stacks = (server_kind, client_kind);
    run_pair(21, stacks, &PairOpts::default(), msg, 2, rounds)
}

#[test]
fn linux_to_linux_echo() {
    let (sim, client) = run_combo(Stack::Linux, Stack::Linux, 64, 500);
    assert_eq!(sim.node_ref::<Client>(client).measured, 500);
}

#[test]
fn tas_to_tas_echo() {
    let (sim, client) = run_combo(Stack::Tas, Stack::Tas, 64, 500);
    assert_eq!(sim.node_ref::<Client>(client).measured, 500);
}

#[test]
fn chelsio_to_chelsio_echo() {
    let (sim, client) = run_combo(Stack::Chelsio, Stack::Chelsio, 64, 500);
    assert_eq!(sim.node_ref::<Client>(client).measured, 500);
}

#[test]
fn cross_stack_combinations_interoperate() {
    for (s, c) in [
        (Stack::Linux, Stack::Tas),
        (Stack::Tas, Stack::Chelsio),
        (Stack::Chelsio, Stack::Linux),
    ] {
        let (sim, client) = run_combo(s, c, 128, 100);
        assert_eq!(
            sim.node_ref::<Client>(client).measured,
            100,
            "{:?} server with {:?} client failed",
            s,
            c
        );
    }
}

#[test]
fn multi_segment_transfer_on_baselines() {
    let (sim, client) = run_combo(Stack::Tas, Stack::Tas, 8192, 50);
    let c = sim.node_ref::<Client>(client);
    assert_eq!(c.measured, 50);
    assert!(c.goodput_bps() > 1e8);
}

#[test]
fn tas_latency_below_linux() {
    // Fig. 9/11: Linux median RPC latency is several times everyone else's.
    let (sim_tas, c_tas) = run_combo(Stack::Tas, Stack::Tas, 64, 300);
    let (sim_lnx, c_lnx) = run_combo(Stack::Linux, Stack::Linux, 64, 300);
    let tas = sim_tas.node_ref::<Client>(c_tas).latency.median();
    let lnx = sim_lnx.node_ref::<Client>(c_lnx).latency.median();
    assert!(
        lnx > tas,
        "linux median {lnx}ns should exceed tas median {tas}ns"
    );
}

/// FlexTOE server with a Linux client — the Fig. 9 interop matrix.
#[test]
fn flextoe_interoperates_with_linux_on_the_wire() {
    let stacks = (Stack::FlexToe, Stack::Linux);
    let (sim, client) = run_pair(33, stacks, &PairOpts::default(), 256, 1, 200);
    assert_eq!(
        sim.node_ref::<Client>(client).measured,
        200,
        "FlexTOE<->Linux interop failed"
    );
}

/// Bulk echo under 1% loss in both directions drains on every one of 200
/// seeds, on every stack family: TAS, FlexTOE, Linux and Chelsio hosts. A
/// cumulative ACK for bytes sent before a go-back-N rewind must count:
/// ignoring it wedged a connection until RTO give-up whenever the
/// receiver was further ahead than the sender's window after the rewind.
#[test]
#[ignore = "99 s in a debug build: CI runs it in release, on the wheel and on the heap"]
fn bulk_under_loss_drains_on_every_seed() {
    let opts = PairOpts {
        faults: Faults {
            drop_chance: 0.01,
            ..Default::default()
        },
        ..Default::default()
    };
    let rounds = 20;
    for stack in [Stack::Tas, Stack::FlexToe, Stack::Linux, Stack::Chelsio] {
        let wedged: Vec<u64> = (0..200)
            .filter(|&seed| {
                let (sim, client) = run_pair(seed, (stack, stack), &opts, 32 * 1024, 2, rounds);
                sim.node_ref::<Client>(client).measured < rounds
            })
            .collect();
        assert!(
            wedged.is_empty(),
            "{stack:?}: seeds that did not drain: {wedged:?}"
        );
    }
}

/// Fig. 15a's Chelsio cell at 2% loss (seed 81, 100 connections, 64 B
/// echo x8 pipelined, 24 ms), on `stack` hosts. Every live connection
/// conserves its TX buffer: what the app may still write once it takes
/// its queued events, plus what it queued, plus what is unsent, plus what
/// is in flight, is `BUF_SIZE`. And every sender rewind is a counted
/// retransmit. On Chelsio both hold only if the in-order-only receiver
/// runs the ACK side of each out-of-order segment it drops with the
/// segment's real payload: the bytes its ACK frees reach the app, and the
/// segment is no duplicate ACK.
fn conserves_tx_bytes_and_counts_every_rewind(stack: Stack) {
    let opts = PairOpts {
        faults: Faults {
            drop_chance: 0.02,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut sim = Sim::new(81);
    let (a, b) = build_pair(&mut sim, stack, stack, &opts);
    let server = sim.add_node(Server::new(ServerSpec::default(), b.stack_init(stack, 1)));
    let client = sim.add_node(Client::new(
        ClientSpec {
            server_ip: b.ip,
            n_conns: 100,
            arrival: Arrival::Closed { pipeline: 8 },
            warmup: Time::from_ms(4),
            connect_spacing: Duration::from_us(3),
            ..Default::default()
        },
        a.stack_init(stack, 1),
    ));
    sim.schedule(Time::ZERO, server, Tick);
    sim.schedule(Time::from_us(20), client, Tick);

    let hosts = [a.baseline.unwrap(), b.baseline.unwrap()];
    // per host: each connection's snd_nxt and the retransmit count, as of
    // the previous event
    let mut snd_nxt: [Vec<Option<SeqNum>>; 2] = Default::default();
    let mut retransmits = [0u64; 2];
    let mut uncounted = 0;
    while sim.now() < Time::from_ms(24) && sim.step() {
        for (h, &node) in hosts.iter().enumerate() {
            let host = sim.node_ref::<HostStackNode>(node);
            let mut rewinds = 0;
            for (id, ps, _) in host.connections() {
                let id = id as usize;
                if snd_nxt[h].len() <= id {
                    snd_nxt[h].resize(id + 1, None);
                }
                let prev = snd_nxt[h][id].replace(ps.seq);
                rewinds += u64::from(prev.is_some_and(|p| ps.seq.before(p)));
            }
            uncounted += rewinds.saturating_sub(host.retransmits - retransmits[h]);
            retransmits[h] = host.retransmits;
        }
    }
    assert!(sim.node_ref::<Client>(client).measured > 0);

    let mut short = Vec::new();
    for &node in &hosts {
        for (id, ps, side) in sim.node_ref::<HostStackNode>(node).connections() {
            let side = side.borrow();
            // the app's free TX space once it takes every queued event: an
            // open (re)starts the socket, each `Writable` adds its delta
            let mut tx_free = side.socks.get(id).map_or(0, |s| s.writable());
            for (ev, open) in side.events.iter().filter(|(ev, _)| ev.conn() == Some(id)) {
                if let Some((_, tx_buf)) = open {
                    tx_free = tx_buf.borrow().size();
                }
                if let SockEvent::Writable { free, .. } = *ev {
                    tx_free += free;
                }
            }
            let queued: u32 = side
                .to_stack
                .iter()
                .map(|d| match *d {
                    AppToNic::TxAppend { conn, len } if conn == id => len,
                    _ => 0,
                })
                .sum();
            let fin_in_flight = u32::from(ps.fin_sent && ps.fin_pending);
            let held = tx_free + queued + ps.tx_avail + ps.tx_sent - fin_in_flight;
            if held != BUF_SIZE {
                short.push((node, id, i64::from(BUF_SIZE) - i64::from(held)));
            }
        }
    }
    assert!(
        short.is_empty() && uncounted == 0,
        "{stack:?}: TX bytes lost (host, conn, bytes): {short:?}; uncounted rewinds: {uncounted}"
    );
}

#[test]
fn chelsio_conserves_tx_bytes_and_counts_every_rewind() {
    conserves_tx_bytes_and_counts_every_rewind(Stack::Chelsio);
}

#[test]
fn tas_conserves_tx_bytes_and_counts_every_rewind() {
    conserves_tx_bytes_and_counts_every_rewind(Stack::Tas);
}

#[test]
fn linux_conserves_tx_bytes_and_counts_every_rewind() {
    conserves_tx_bytes_and_counts_every_rewind(Stack::Linux);
}

#[test]
fn flex_baseline_conserves_tx_bytes_and_counts_every_rewind() {
    conserves_tx_bytes_and_counts_every_rewind(Stack::FlexBaselineFpc);
}

/// A loss-free TAS leaf-spine (the benchmark's `fabric_tas` shape, scaled
/// down): 256 open-loop connections, each sending a 64 B request about
/// every 2 ms, so most of them are idle at most 1 ms RTO scans. Nothing
/// is lost, so no RTO may fire. One did whenever a request went out
/// shortly before the scan after an idle one, while the host's stall
/// clock still ran from the idle scan (or from install, for a connection
/// no scan had seen): the RTO timer must arm at the first scan that sees
/// data in flight.
#[test]
fn loss_free_idle_connections_fire_no_rto() {
    let fabric = Fabric::LeafSpine {
        leaves: 4,
        spines: 2,
        hosts_per_leaf: 2,
    };
    let mut sc = Scenario::idle(17, fabric, Stack::Tas);
    for (i, host) in sc.hosts.iter_mut().enumerate() {
        host.role = if i % 2 == 0 {
            Role::Client {
                cfg: ClientSpec {
                    n_conns: 64,
                    arrival: Arrival::Open { rate_rps: 32_000.0 },
                    wire: Wire::Framed {
                        req: SizeDist::Fixed(64),
                        resp: SizeDist::Pareto {
                            alpha: 1.15,
                            min: 64,
                            max: 16_384,
                        },
                    },
                    connect_spacing: Duration::from_ns(400),
                    ..Default::default()
                },
                target: (i / 2 + 1) % 4 * 2 + 1,
            }
        } else {
            Role::Server(ServerSpec::framed())
        };
    }
    let mut sim = Sim::new(sc.seed);
    let fab = build_fabric(&mut sim, &sc);
    sim.run_until(Time::from_ms(12));

    let mut measured = 0;
    let mut fired = Vec::new();
    for (i, h) in fab.hosts.iter().enumerate() {
        if let Some(app) = h.client() {
            let c = sim.node_ref::<DynClient>(app);
            assert_eq!(c.connected, 64, "host {i}: every connection up");
            measured += c.measured;
        }
        let host = sim.node_ref::<HostStackNode>(h.ep.baseline.unwrap());
        fired.push(host.rto_fired());
    }
    assert!(measured > 1_000, "{measured} responses");
    assert!(
        fired.iter().all(|&n| n == 0),
        "RTOs fired per host on a loss-free fabric: {fired:?}"
    );
}

/// Fig. 15a's Linux cell at 0% loss (seed 81: 100 connections, 64 B
/// echoes pipelined 8 deep, 24 ms): nothing is lost, so no RTO may fire.
/// While the first 800 requests queue behind the server core a flow has
/// data in flight and no RTT sample yet; when such a flow waited only
/// the 1 ms `min_rto` floor, the two hosts fired 14 + 66 RTOs. Before
/// its first sample a flow now waits what an unanswered SYN waits.
#[test]
fn no_rto_before_the_first_rtt_sample() {
    let linux = Stack::Linux;
    let mut sim = Sim::new(81);
    let (cli_ep, srv_ep) = build_pair(&mut sim, linux, linux, &PairOpts::default());
    let wire = Wire::Fixed { req: 64, resp: 64 };
    let server = sim.add_node(Server::new(
        ServerSpec {
            wire,
            ..Default::default()
        },
        srv_ep.stack_init(linux, 1),
    ));
    let client = sim.add_node(Client::new(
        ClientSpec {
            server_ip: srv_ep.ip,
            n_conns: 100,
            wire,
            arrival: Arrival::Closed { pipeline: 8 },
            warmup: Time::from_ms(4),
            connect_spacing: Duration::from_us(3),
            ..Default::default()
        },
        cli_ep.stack_init(linux, 1),
    ));
    sim.schedule(Time::ZERO, server, Tick);
    sim.schedule(Time::from_us(20), client, Tick);
    sim.run_until(Time::from_ms(24));

    let c = sim.node_ref::<Client>(client);
    assert_eq!(c.connected, 100);
    assert!(c.measured > 1_000, "{} responses", c.measured);
    let fired = [cli_ep, srv_ep].map(|ep| {
        let host = sim.node_ref::<HostStackNode>(ep.baseline.unwrap());
        host.rto_fired()
    });
    assert_eq!(fired, [0, 0], "RTOs fired (client, server) at 0% loss");
}
