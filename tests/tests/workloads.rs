//! Workload-level integration: the generic RPC/KV applications running on
//! the FlexTOE stack over the full pipeline.

use flextoe_apps::{
    ClientConfig, KvServerApp, KvServerConfig, LibToe, LoadMode, MemtierApp, MemtierConfig,
    RpcClientApp, RpcServerApp, ServerConfig,
};
use flextoe_integration::{default_setup, Host};
use flextoe_sim::{NodeId, Sim, Tick, Time};

type Client = RpcClientApp<LibToe>;
type Server = RpcServerApp<LibToe>;

fn stack_init(host: &Host, ctx_id: u16) -> flextoe_apps::StackInit<LibToe> {
    let nic = host.nic.handle();
    let ctrl = host.ctrl;
    Box::new(move |ctx, app| LibToe::new(ctx, ctx_id, nic, ctrl, app))
}

fn echo_setup(
    sim: &mut Sim,
    server_cfg: ServerConfig,
    client_cfg: ClientConfig,
) -> (NodeId, NodeId) {
    let (a, b) = default_setup(sim);
    let server = sim.add_node(Server::new(server_cfg, stack_init(&b, 1)));
    let client = sim.add_node(Client::new(
        ClientConfig {
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
        ServerConfig {
            msg_size: 64,
            resp_size: 64,
            ..Default::default()
        },
        ClientConfig {
            n_conns: 4,
            msg_size: 64,
            resp_size: 64,
            mode: LoadMode::Closed { pipeline: 2 },
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
        ServerConfig {
            msg_size: 16 * 1024,
            resp_size: 16 * 1024,
            ..Default::default()
        },
        ClientConfig {
            n_conns: 1,
            msg_size: 16 * 1024,
            resp_size: 16 * 1024,
            mode: LoadMode::Closed { pipeline: 2 },
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
        ServerConfig::default(),
        ClientConfig {
            n_conns: 8,
            mode: LoadMode::Open {
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

#[test]
fn kv_store_end_to_end() {
    let mut sim = Sim::new(11);
    let (a, b) = default_setup(&mut sim);
    let server = sim.add_node(KvServerApp::new(
        KvServerConfig::default(),
        stack_init(&b, 1),
    ));
    let client = sim.add_node(MemtierApp::new(
        MemtierConfig {
            server_ip: b.ip,
            n_conns: 4,
            key_space: 50,
            gets_per_set: 2, // set-heavy so GETs hit
            stop_after: Some(1500),
            ..Default::default()
        },
        stack_init(&a, 1),
    ));
    sim.schedule(Time::ZERO, server, Tick);
    sim.schedule(Time::from_us(20), client, Tick);
    sim.run_until(Time::from_ms(2000));

    let c = sim.node_ref::<MemtierApp<LibToe>>(client);
    assert_eq!(c.measured, 1500);
    let s = sim.node_ref::<KvServerApp<LibToe>>(server);
    assert!(s.sets > 300, "sets {}", s.sets);
    assert!(s.gets > 600, "gets {}", s.gets);
    // with a tiny keyspace and set-heavy mix, most GETs must hit
    assert!(
        s.hits as f64 / s.gets as f64 > 0.5,
        "hit rate {}/{}",
        s.hits,
        s.gets
    );
    assert_eq!(s.errors, 0);
    assert!(s.core_busy() > flextoe_sim::Duration::ZERO);
}
