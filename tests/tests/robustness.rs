//! Robustness integration (§5.3): loss, corruption, XDP filtering, and
//! the reordering ablation, all through the complete pipeline.

use flextoe_apps::{ClientConfig, LibToe, LoadMode, RpcClientApp, RpcServerApp, ServerConfig};
use flextoe_core::module::{xdp_with_maps, Hook};
use flextoe_core::stages::pre::PreStage;
use flextoe_core::PipeCfg;
use flextoe_ebpf::{programs, Map};
use flextoe_integration::{two_flextoe_hosts, Host};
use flextoe_netsim::Faults;
use flextoe_sim::{NodeId, Sim, Tick, Time};
use flextoe_topo::PairOpts;

type Client = RpcClientApp<LibToe>;
type Server = RpcServerApp<LibToe>;

fn stack_init(host: &Host, ctx_id: u16) -> flextoe_apps::StackInit<LibToe> {
    let nic = host.nic.handle();
    let ctrl = host.ctrl;
    Box::new(move |ctx, app| LibToe::new(ctx, ctx_id, nic, ctrl, app))
}

fn lossy_echo(cfg: PipeCfg, faults: Faults, msg: u32, rounds: u64, seed: u64) -> (Sim, NodeId) {
    let mut sim = Sim::new(seed);
    let (a, b) = two_flextoe_hosts(
        &mut sim,
        &PairOpts {
            cfg,
            faults,
            ..Default::default()
        },
    );
    let server = sim.add_node(Server::new(
        ServerConfig {
            msg_size: msg,
            resp_size: msg,
            echo_data: true,
            ..Default::default()
        },
        stack_init(&b, 1),
    ));
    let client = sim.add_node(Client::new(
        ClientConfig {
            server_ip: b.ip,
            n_conns: 4,
            msg_size: msg,
            resp_size: msg,
            mode: LoadMode::Closed { pipeline: 2 },
            stop_after: Some(rounds),
            ..Default::default()
        },
        stack_init(&a, 1),
    ));
    sim.schedule(Time::ZERO, server, Tick);
    sim.schedule(Time::from_us(10), client, Tick);
    sim.run_until(Time::from_ms(4000));
    (sim, client)
}

#[test]
fn transfer_completes_under_one_percent_loss() {
    let (sim, client) = lossy_echo(
        PipeCfg::agilio_full(),
        Faults {
            drop_chance: 0.01,
            ..Default::default()
        },
        4096,
        100,
        1234,
    );
    let c = sim.node_ref::<Client>(client);
    assert_eq!(c.measured, 100, "go-back-N + OOO interval must recover");
    // recovery machinery actually fired
    let retx = sim.stats.get_named("proto.fast_retx") + sim.stats.get_named("proto.rto_retx");
    assert!(retx > 0, "loss was injected but nothing retransmitted");
}

#[test]
fn corruption_is_dropped_by_checksums_and_recovered() {
    let (sim, client) = lossy_echo(
        PipeCfg::agilio_full(),
        Faults {
            corrupt_chance: 0.01,
            ..Default::default()
        },
        2048,
        60,
        77,
    );
    let c = sim.node_ref::<Client>(client);
    assert_eq!(c.measured, 60, "corrupted frames must not corrupt streams");
    assert!(
        sim.stats.get_named("pre.malformed") > 0,
        "checksum verification rejected corrupted frames"
    );
}

#[test]
fn reorder_ablation_still_correct_just_noisier() {
    // §3.2: without sequencing/reordering the pipeline may present
    // segments to the protocol stage out of order. TCP still recovers
    // (correctness), at the cost of spurious OOO processing.
    let cfg = PipeCfg {
        reorder: false,
        ..PipeCfg::agilio_full()
    };
    let (sim, client) = lossy_echo(cfg, Faults::default(), 4096, 80, 5);
    let c = sim.node_ref::<Client>(client);
    assert_eq!(c.measured, 80, "data integrity must survive the ablation");
}

#[test]
fn xdp_firewall_blocks_in_the_pipeline() {
    // Install a firewall that blacklists the client's IP on the server
    // NIC: the handshake must never complete.
    let mut sim = Sim::new(9);
    let (a, b) = two_flextoe_hosts(&mut sim, &PairOpts::default());
    let (fw, maps) = xdp_with_maps("firewall", Hook::RxIngress, |m| {
        let fd = m.add(Map::hash(4, 8, 64));
        programs::firewall(fd)
    });
    maps.borrow_mut()
        .get_mut(0)
        .unwrap()
        .update(&a.ip.octets(), &[0; 8])
        .unwrap();
    let pre = b.nic.pre;
    sim.node_mut::<PreStage>(pre).ingress.push(Box::new(fw));

    let server = sim.add_node(Server::new(ServerConfig::default(), stack_init(&b, 1)));
    let client = sim.add_node(Client::new(
        ClientConfig {
            server_ip: b.ip,
            n_conns: 1,
            ..Default::default()
        },
        stack_init(&a, 1),
    ));
    sim.schedule(Time::ZERO, server, Tick);
    sim.schedule(Time::from_us(10), client, Tick);
    sim.run_until(Time::from_ms(100));
    let c = sim.node_ref::<Client>(client);
    assert_eq!(c.connected, 0, "firewalled SYNs must never establish");
    assert!(
        sim.node_ref::<PreStage>(pre).dropped > 0,
        "drops happened at the XDP hook"
    );
}

#[test]
fn deterministic_replay() {
    // Same seed => byte-identical behaviour (event counts, latencies).
    let run = |seed| {
        let (sim, client) = lossy_echo(
            PipeCfg::agilio_full(),
            Faults {
                drop_chance: 0.03,
                ..Default::default()
            },
            1024,
            40,
            seed,
        );
        let c = sim.node_ref::<Client>(client);
        (sim.events_processed(), c.latency.median(), c.measured)
    };
    assert_eq!(run(42), run(42));
    assert_ne!(run(42).0, run(43).0);
}
