//! The datacenter-fabric subsystem end to end: leaf-spine and fat-tree
//! scenarios built from declarative specs, ECMP path spreading, byte-
//! identical determinism of the whole `scale` sweep, and declarative
//! fault schedules on fabric links.

use flextoe_apps::{Arrival, ClientSpec, ServerSpec, SizeDist, Wire};
use flextoe_bench::driver::{execute, Experiment};
use flextoe_bench::scale::{run_scale_point, ScalePlan};
use flextoe_netsim::{Faults, Link, Switch};
use flextoe_sim::{Duration, Sim, Time};
use flextoe_topo::{
    build_fabric, BuiltRole, DynClient, DynServer, Fabric, FaultEvent, LinkScope, Role, Scenario,
    Stack,
};

/// A small leaf-spine scenario: every even host open-loops to the server
/// on the next leaf (the same pattern the scale sweep uses).
fn mini_leaf_spine(seed: u64) -> Scenario {
    let fabric = Fabric::LeafSpine {
        leaves: 4,
        spines: 2,
        hosts_per_leaf: 2,
    };
    let mut sc = Scenario::idle(seed, fabric, Stack::FlexToe);
    for i in 0..sc.hosts.len() {
        sc.hosts[i].role = if i % 2 == 0 {
            let leaf = i / 2;
            Role::Client {
                cfg: ClientSpec {
                    n_conns: 8,
                    arrival: Arrival::Open { rate_rps: 50_000.0 },
                    wire: Wire::Framed {
                        req: SizeDist::Fixed(64),
                        resp: SizeDist::Uniform { lo: 64, hi: 2048 },
                    },
                    warmup: Time::from_us(500),
                    connect_spacing: Duration::from_us(1),
                    ..Default::default()
                },
                target: ((leaf + 1) % 4) * 2 + 1,
            }
        } else {
            Role::Server(ServerSpec::framed())
        };
    }
    sc
}

/// Traffic between leaves spreads over *both* spines (ECMP), and every
/// client's RPCs complete across the fabric.
#[test]
fn leaf_spine_ecmp_spreads_flows_across_spines() {
    let sc = mini_leaf_spine(3);
    let mut sim = Sim::new(sc.seed);
    let fab = build_fabric(&mut sim, &sc);
    sim.run_until(Time::from_ms(3));

    for h in &fab.hosts {
        match h.role {
            BuiltRole::Client => {
                let c = sim.node_ref::<DynClient>(h.app.unwrap());
                assert_eq!(c.connected, 8, "all conns established");
                assert!(c.measured > 20, "client measured {}", c.measured);
            }
            BuiltRole::Server => {
                let s = sim.node_ref::<DynServer>(h.app.unwrap());
                assert_eq!(s.bad_frames, 0, "framing intact through the fabric");
                assert!(s.requests > 0);
            }
            BuiltRole::Idle => {}
        }
    }
    // both spines forwarded traffic, each via the L3 ECMP route path
    for s in 4..6 {
        let sw = sim.node_ref::<Switch>(fab.switches[s]);
        assert!(sw.routed > 100, "spine {s} routed {} frames", sw.routed);
        assert_eq!(sw.flooded, 0, "no unroutable frames on spine {s}");
    }
    // and the per-spine split is genuinely shared, not all-one-path
    let spine_tx: Vec<u64> = (4..6)
        .map(|s| {
            let sw = sim.node_ref::<Switch>(fab.switches[s]);
            (0..4).map(|p| sw.port_stats(p).0).sum()
        })
        .collect();
    assert!(
        spine_tx.iter().all(|&t| t > 0),
        "ECMP must use both spines: {spine_tx:?}"
    );
}

/// A 4-ary fat-tree delivers across pods (through the core tier) with the
/// same declarative spec.
#[test]
fn fat_tree_delivers_cross_pod_through_core() {
    let fabric = Fabric::FatTree { k: 4 };
    let mut sc = Scenario::idle(5, fabric, Stack::FlexToe);
    // host 0 (pod 0) open-loops to host 15 (pod 3); everyone else idles
    sc.hosts[0].role = Role::Client {
        cfg: ClientSpec {
            n_conns: 4,
            arrival: Arrival::Open { rate_rps: 50_000.0 },
            wire: Wire::Framed {
                req: SizeDist::Fixed(64),
                resp: SizeDist::Fixed(512),
            },
            connect_spacing: Duration::from_us(1),
            ..Default::default()
        },
        target: 15,
    };
    sc.hosts[15].role = Role::Server(ServerSpec::framed());
    let mut sim = Sim::new(sc.seed);
    let fab = build_fabric(&mut sim, &sc);
    assert_eq!(fab.switches.len(), 20, "4 pods x (2+2) + 4 cores");
    sim.run_until(Time::from_ms(2));

    let c = sim.node_ref::<DynClient>(fab.hosts[0].app.unwrap());
    assert_eq!(c.connected, 4);
    assert!(c.measured > 20, "cross-pod RPCs completed: {}", c.measured);
    let s = sim.node_ref::<DynServer>(fab.hosts[15].app.unwrap());
    assert_eq!(s.bad_frames, 0);
    // cross-pod traffic must transit at least one core switch
    let core_routed: u64 = (16..20)
        .map(|i| sim.node_ref::<Switch>(fab.switches[i]).routed)
        .sum();
    assert!(core_routed > 50, "core tier routed {core_routed} frames");
}

/// Two runs of the same fabric seed produce identical results; a
/// different seed shifts ECMP path selection.
#[test]
fn fabric_runs_are_deterministic_per_seed() {
    let run = |seed: u64| -> (u64, Vec<u64>) {
        let sc = mini_leaf_spine(seed);
        let mut sim = Sim::new(sc.seed);
        let fab = build_fabric(&mut sim, &sc);
        sim.run_until(Time::from_ms(2));
        let measured = fab
            .hosts
            .iter()
            .filter_map(|h| h.client())
            .map(|app| sim.node_ref::<DynClient>(app).measured)
            .sum();
        let spine_split = (4..6)
            .flat_map(|s| {
                let sw = sim.node_ref::<Switch>(fab.switches[s]);
                (0..4).map(move |p| sw.port_stats(p).0).collect::<Vec<_>>()
            })
            .collect();
        (measured, spine_split)
    };
    let a = run(11);
    let b = run(11);
    assert_eq!(a, b, "same seed, same everything");
    let c = run(12);
    assert_ne!(
        a.1, c.1,
        "a different seed should re-salt ECMP and shift the spine split"
    );
}

/// The whole `scale` sweep serializes byte-identically for one seed —
/// the acceptance contract on `BENCH_scale.json`.
#[test]
fn scale_sweep_json_is_byte_identical_per_seed() {
    let a = execute::<ScalePlan>(17, true, Some(1), 1).body;
    let b = execute::<ScalePlan>(17, true, Some(1), 1).body;
    assert_eq!(a, b);
    assert!(a.contains("\"fabric\": \"leafspine-4x2\""));
}

/// The parallel runner is a pure scheduling change: any `--jobs` value
/// merges results in configuration order and serializes byte-identically
/// to the serial reference run (each point builds its own `Sim`).
#[test]
fn parallel_scale_sweep_is_byte_identical_to_serial() {
    let serial = execute::<ScalePlan>(17, true, Some(1), 1).body;
    for jobs in [2, 4, 8] {
        let par = execute::<ScalePlan>(17, true, Some(jobs), 1).body;
        assert_eq!(serial, par, "jobs={jobs} diverged from the serial run");
    }
}

/// Regression guard for the cache-gauge column of `BENCH_scale.json`:
/// a hot, reused connection set large enough to overflow the per-island
/// CLS (conns/NIC > 2048, i.e. ≥ 2 contenders per direct-mapped slot on
/// the same island) must report nonzero EMEM-SRAM hits. The sweep once
/// reported `conn_cache_sram_hits: 0` on every row: its 12 ms window
/// offered each connection at most one request, so no access ever
/// *revisited* a connection after its CAM/CLS residency was evicted.
/// (Below that size the zero is real: dense id allocation keeps the
/// direct-mapped CLS conflict-free, exactly the paper's §4.1 claim.)
#[test]
fn scale_point_beyond_cls_capacity_reports_sram_hits() {
    let mut plan = ScalePlan::full();
    plan.duration = Time::from_ms(24);
    let r = run_scale_point(17, Stack::FlexToe, 8192, &plan, 1).row;
    assert!(
        r["pools.conn_cache_sram_hits"].num() > 0.0,
        "8192-conn sweep point must engage the EMEM-SRAM tier, gauges: {}",
        r["pools"]
    );
    assert!(
        r["pools.conn_cache_dram"].num() >= 16_384.0,
        "every (nic, conn) pays at least its cold miss"
    );
}

/// The full sweep plan satisfies the experiment contract: at least four
/// connection counts, reaching at least 4096 flows.
#[test]
fn full_scale_plan_meets_sweep_contract() {
    let plan = ScalePlan::full();
    let flex_counts: Vec<u32> = plan
        .points
        .iter()
        .filter(|(s, _)| *s == Stack::FlexToe)
        .map(|&(_, c)| c)
        .collect();
    assert!(flex_counts.len() >= 4, "{flex_counts:?}");
    assert!(*flex_counts.iter().max().unwrap() >= 4096);
    // and it records more than one stack
    assert!(plan.points.iter().any(|(s, _)| *s != Stack::FlexToe));
}

/// A declarative fault schedule: fabric links degrade mid-run and heal;
/// recovery (retransmission) keeps the RPC stream alive end to end.
#[test]
fn fault_schedule_degrades_and_heals_fabric_links() {
    let mut sc = mini_leaf_spine(9);
    sc.fault_schedule = vec![
        FaultEvent::degrade(
            Time::from_us(800),
            LinkScope::Fabric,
            Faults {
                drop_chance: 0.05,
                ..Default::default()
            },
        ),
        FaultEvent::degrade(Time::from_us(1600), LinkScope::Fabric, Faults::default()),
    ];
    let mut sim = Sim::new(sc.seed);
    let fab = build_fabric(&mut sim, &sc);
    sim.run_until(Time::from_ms(4));
    let dropped: u64 = fab
        .fabric_links
        .iter()
        .map(|&l| sim.node_ref::<Link>(l).dropped)
        .sum();
    assert!(dropped > 0, "the degradation window dropped frames");
    for h in &fab.hosts {
        if let Some(app) = h.client() {
            let c = sim.node_ref::<DynClient>(app);
            assert!(
                c.measured > 20,
                "traffic survived the fault window: {}",
                c.measured
            );
        }
    }
}
