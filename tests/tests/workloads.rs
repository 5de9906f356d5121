//! Workload-level integration: the one RPC client and server running on
//! the FlexTOE stack over the full pipeline.

use flextoe_apps::{Arrival, ClientSpec, LibToe, ServerSpec, Wire};
use flextoe_integration::{default_setup, Host};
use flextoe_sim::{Duration, NodeId, Sim, Tick, Time};
use flextoe_topo::{
    build_fabric, DynClient, DynServer, Fabric, FaultEvent, FaultTarget, Role, Scenario, Stack,
};

type Client = flextoe_apps::Client<LibToe>;
type Server = flextoe_apps::Server<LibToe>;

fn stack_init(host: &Host, ctx_id: u16) -> flextoe_apps::StackInit<LibToe> {
    let nic = host.nic.handle();
    let ctrl = host.ctrl;
    Box::new(move |ctx, app| LibToe::new(ctx, ctx_id, nic, ctrl, app))
}

fn echo_setup(sim: &mut Sim, server_cfg: ServerSpec, client_cfg: ClientSpec) -> (NodeId, NodeId) {
    let (a, b) = default_setup(sim);
    let server = sim.add_node(Server::new(server_cfg, stack_init(&b, 1)));
    let client = sim.add_node(Client::new(
        ClientSpec {
            server_ip: b.ip,
            ..client_cfg
        },
        stack_init(&a, 1),
    ));
    sim.schedule(Time::ZERO, server, Tick);
    sim.schedule(Time::from_us(20), client, Tick);
    (server, client)
}

#[test]
fn closed_loop_echo_fixed_work() {
    let mut sim = Sim::new(7);
    let (server, client) = echo_setup(
        &mut sim,
        ServerSpec {
            wire: Wire::Fixed { req: 64, resp: 64 },
            ..Default::default()
        },
        ClientSpec {
            n_conns: 4,
            wire: Wire::Fixed { req: 64, resp: 64 },
            arrival: Arrival::Closed { pipeline: 2 },
            stop_after: Some(2000),
            ..Default::default()
        },
    );
    sim.run_until(Time::from_ms(2000));
    let c = sim.node_ref::<Client>(client);
    assert_eq!(c.connected, 4);
    assert_eq!(c.measured, 2000, "fixed work completed");
    assert!(c.latency.median() > 0);
    let s = sim.node_ref::<Server>(server);
    assert!(s.requests >= 2000);
    // 8 in flight at all times, tens-of-us RTTs => at least ~100k ops/s
    assert!(
        c.throughput_rps() > 50_000.0,
        "throughput {} rps",
        c.throughput_rps()
    );
}

#[test]
fn pipelined_large_messages_exercise_windows() {
    // 16 KB echo with 64 KB buffers forces window-limited operation.
    let mut sim = Sim::new(8);
    let (_server, client) = echo_setup(
        &mut sim,
        ServerSpec {
            wire: Wire::Fixed {
                req: 16 * 1024,
                resp: 16 * 1024,
            },
            ..Default::default()
        },
        ClientSpec {
            n_conns: 1,
            wire: Wire::Fixed {
                req: 16 * 1024,
                resp: 16 * 1024,
            },
            arrival: Arrival::Closed { pipeline: 2 },
            stop_after: Some(100),
            ..Default::default()
        },
    );
    sim.run_until(Time::from_ms(2000));
    let c = sim.node_ref::<Client>(client);
    assert_eq!(c.measured, 100);
    // goodput should be well into the Gbps range on a 40G link
    assert!(
        c.goodput_bps() > 1e9,
        "goodput {:.2} Gbps",
        c.goodput_bps() / 1e9
    );
}

#[test]
fn open_loop_generator_offers_requested_rate() {
    let mut sim = Sim::new(9);
    let (_server, client) = echo_setup(
        &mut sim,
        ServerSpec::default(),
        ClientSpec {
            n_conns: 8,
            arrival: Arrival::Open {
                rate_rps: 200_000.0,
            },
            warmup: Time::from_ms(2),
            ..Default::default()
        },
    );
    sim.run_until(Time::from_ms(30));
    let c = sim.node_ref::<Client>(client);
    let rate = c.throughput_rps();
    assert!(
        (150_000.0..260_000.0).contains(&rate),
        "offered 200k, got {rate:.0} rps"
    );
}

/// A fixed-size echo whose server is cut off for good: the RTO give-up
/// aborts the connections on both ends, the server frees their state,
/// and the closed-loop client writes off the requests it had in flight
/// instead of holding them forever.
#[test]
fn aborted_echo_connections_are_written_off() {
    let fabric = Fabric::LeafSpine {
        leaves: 2,
        spines: 1,
        hosts_per_leaf: 1,
    };
    let mut sc = Scenario::idle(23, fabric, Stack::FlexToe);
    sc.opts.min_rto = Duration::from_us(200);
    sc.opts.rto_give_up = Some(3);
    // 8 KiB echoes keep both ends mid-transfer (unACKed data) most of the
    // time, so the cut trips the give-up on the server as well
    let wire = Wire::Fixed {
        req: 8192,
        resp: 8192,
    };
    sc.hosts[0].role = Role::Client {
        cfg: ClientSpec {
            n_conns: 2,
            arrival: Arrival::Closed { pipeline: 2 },
            wire,
            ..Default::default()
        },
        target: 1,
    };
    sc.hosts[1].role = Role::Server(ServerSpec {
        wire,
        ..Default::default()
    });
    sc.fault_schedule = vec![FaultEvent::down(
        Time::from_ms(1),
        FaultTarget::EdgeLink { host: 1 },
    )];
    let mut sim = Sim::new(sc.seed);
    let fab = build_fabric(&mut sim, &sc);
    sim.run_until(Time::from_ms(16));

    let c = sim.node_ref::<DynClient>(fab.hosts[0].app.unwrap());
    assert!(c.completed > 0, "the echo ran before the cut");
    assert_eq!(c.aborted_conns, 2, "both connections gave up");
    assert!(c.dead_requests > 0, "in-flight requests were written off");
    assert_eq!(c.in_flight(), 0, "nothing stays outstanding on a dead conn");
    assert_eq!(c.issued, c.completed + c.dead_requests);
    let s = sim.node_ref::<DynServer>(fab.hosts[1].app.unwrap());
    assert_eq!(s.accepted, 2);
    assert_eq!(s.aborted, 2, "the server saw both aborts");
    assert_eq!(s.open_conns(), 0, "and freed every connection's state");
}
