//! The chaos plane end to end: hard link/switch failures and explicit
//! healing, ECMP failover around dead ports, RTO give-up → session abort
//! → reconnection after heal, corrupted-frame exactly-once accounting,
//! deterministic same-timestamp fault ordering, and the conservation
//! invariant + byte-identity contract of the `faults` chaos sweep.

use flextoe_apps::{CloseAll, FramedServerConfig, SessionConfig};
use flextoe_bench::driver::{execute, Experiment};
use flextoe_bench::faults::{buf_balance, check_row, run_faults_point, FaultsPlan};
use flextoe_hoststack::HostStackNode;
use flextoe_netsim::{Faults, Link, Switch};
use flextoe_sim::{Duration, NodeId, Sim, Time};
use flextoe_topo::{
    build_fabric, BuiltFabric, DynFramedServer, DynSessionClient, Fabric, FaultEvent, FaultTarget,
    LinkScope, Role, Scenario, Stack,
};

/// A 4-leaf/2-spine fabric where every even host runs reconnecting
/// sessions toward the server on the next leaf — the same traffic
/// pattern as the `faults` sweep, with the chaos-grade RTO tuning
/// (shrunk floor + give-up budget so a blackholed flow aborts in ~3 ms).
/// `req_size` sets the stall surface: multi-segment requests keep the
/// client mid-transfer (unACKed data) most of the cycle, so a cut path
/// reliably trips the *client-side* RTO give-up, not just the server's.
/// Every host runs `stack`.
fn session_fabric(seed: u64, stack: Stack, req_size: u32, schedule: Vec<FaultEvent>) -> Scenario {
    let fabric = Fabric::LeafSpine {
        leaves: 4,
        spines: 2,
        hosts_per_leaf: 2,
    };
    let mut sc = Scenario::idle(seed, fabric, stack);
    sc.opts.min_rto = Duration::from_us(200);
    sc.opts.syn_retry = Duration::from_us(400);
    sc.opts.rto_give_up = Some(3);
    for i in 0..sc.hosts.len() {
        sc.hosts[i].role = if i % 2 == 0 {
            let leaf = i / 2;
            Role::Session {
                cfg: SessionConfig {
                    n_sessions: 4,
                    req_size,
                    resp_size: 512,
                    think: Duration::from_us(20),
                    backoff_base: Duration::from_us(200),
                    backoff_cap: Duration::from_ms(2),
                    warmup: Time::from_us(500),
                    ..Default::default()
                },
                target: ((leaf + 1) % 4) * 2 + 1,
            }
        } else {
            Role::FramedServer(FramedServerConfig::default())
        };
    }
    sc.fault_schedule = schedule;
    sc
}

fn session_nodes(fab: &BuiltFabric) -> Vec<NodeId> {
    fab.hosts.iter().filter_map(|h| h.session()).collect()
}

fn total_completed(sim: &Sim, sessions: &[NodeId]) -> u64 {
    sessions
        .iter()
        .map(|&n| sim.node_ref::<DynSessionClient>(n).completed)
        .sum()
}

/// A hard fabric-link failure fails over via ECMP at the leaf (the dead
/// uplink port is excluded and the pick re-finalized). Flows whose
/// *spine-side* hash lands on the severed spine→leaf direction blackhole
/// there until the heal — a short outage, so retransmission rides it out
/// without any session aborting, and traffic keeps completing.
#[test]
fn fabric_link_down_fails_over_without_aborts() {
    let link = FaultTarget::FabricLink { index: 0 };
    let sc = session_fabric(
        7,
        Stack::FlexToe,
        128,
        vec![
            FaultEvent::down(Time::from_ms(1), link),
            FaultEvent::up(Time::from_ms(2), link),
        ],
    );
    let mut sim = Sim::new(sc.seed);
    let fab = build_fabric(&mut sim, &sc);
    sim.run_until(Time::from_ms(1));
    let before = total_completed(&sim, &session_nodes(&fab));
    sim.run_until(Time::from_ms(4));

    let rerouted: u64 = fab
        .switches
        .iter()
        .map(|&s| sim.node_ref::<Switch>(s).rerouted)
        .sum();
    assert!(rerouted > 0, "ECMP must re-finalize around the dead port");
    for &n in &session_nodes(&fab) {
        let c = sim.node_ref::<DynSessionClient>(n);
        assert_eq!(c.aborted_conns, 0, "failover must not abort sessions");
    }
    let after = total_completed(&sim, &session_nodes(&fab));
    assert!(after > before + 100, "traffic flowed through the outage");
}

/// Killing a whole spine drops its in-flight frames (counted at the dead
/// switch) while the surviving spine carries every flow; the heal
/// restores both paths and nobody aborted.
#[test]
fn spine_kill_fails_over_and_heals() {
    let spine0 = FaultTarget::Switch { index: 4 };
    let sc = session_fabric(
        13,
        Stack::FlexToe,
        128,
        vec![
            FaultEvent::down(Time::from_ms(1), spine0),
            FaultEvent::up(Time::from_ms(2), spine0),
        ],
    );
    let mut sim = Sim::new(sc.seed);
    let fab = build_fabric(&mut sim, &sc);
    sim.run_until(Time::from_ms(4));

    let rerouted: u64 = fab
        .switches
        .iter()
        .map(|&s| sim.node_ref::<Switch>(s).rerouted)
        .sum();
    assert!(rerouted > 0, "leaf uplink picks moved to the live spine");
    for &n in &session_nodes(&fab) {
        let c = sim.node_ref::<DynSessionClient>(n);
        assert_eq!(c.aborted_conns, 0);
        assert!(c.completed > 0);
    }
    // after the heal the killed spine routes again
    let spine0_routed = sim.node_ref::<Switch>(fab.switches[4]).routed;
    assert!(spine0_routed > 0, "healed spine rejoined the ECMP spread");
}

/// A blackholed flow gives up: with the server's edge link hard-down and
/// never healed, the client's RTO manager exhausts its give-up budget
/// mid-request, the stack aborts the connection, and the session client
/// observes the typed abort, writes off in-flight requests, and its
/// reconnects fail cleanly (SYN retries give up → `connect_failures`)
/// instead of hanging. 8 KiB requests keep the client mid-transfer so
/// the cut reliably lands on unACKed client data. FlexTOE and TAS hosts
/// read the same RTO floor, give-up budget and SYN retry base, so both
/// abort inside the same 16 ms.
#[test]
fn blackholed_flow_gives_up_and_aborts_to_the_app() {
    for stack in [Stack::FlexToe, Stack::Tas] {
        blackholed_flow_gives_up(stack);
    }
}

fn blackholed_flow_gives_up(stack: Stack) {
    // host 0 (leaf 0) targets host 3 (leaf 1): kill host 3's edge link
    let sc = session_fabric(
        19,
        stack,
        8192,
        vec![FaultEvent::down(
            Time::from_ms(1),
            FaultTarget::EdgeLink { host: 3 },
        )],
    );
    let mut sim = Sim::new(sc.seed);
    let fab = build_fabric(&mut sim, &sc);
    sim.run_until(Time::from_ms(16));

    if let Some(node) = fab.hosts[0].ep.baseline {
        let host = sim.node_ref::<HostStackNode>(node);
        assert!(host.retransmits > 0, "{stack:?}");
        assert!(host.aborts > 0, "{stack:?}: give-up must abort");
        assert!(host.connect_give_ups > 0, "{stack:?}");
    } else {
        assert!(sim.stats.get_named("ctrl.rto_fired") > 0);
        assert!(sim.stats.get_named("ctrl.abort") > 0, "give-up must abort");
    }
    let victim = fab.hosts[0].session().unwrap();
    let c = sim.node_ref::<DynSessionClient>(victim);
    assert!(c.aborted_conns > 0, "{stack:?}: client saw the typed abort");
    assert!(
        c.dead_requests > 0,
        "{stack:?}: in-flight requests were written off"
    );
    assert!(
        c.connect_failures > 0,
        "{stack:?}: reconnects into the blackhole must fail cleanly, not hang"
    );
    // the other clients' paths never crossed the dead edge link
    for (i, h) in fab.hosts.iter().enumerate() {
        if i != 0 {
            if let Some(n) = h.session() {
                assert_eq!(sim.node_ref::<DynSessionClient>(n).aborted_conns, 0);
            }
        }
    }
}

/// The full leaf-kill arc through the bench driver: sessions into the
/// dead leaf abort inside the fault window, reconnect after the heal
/// (the reconnection storm), goodput recovers to ≥95% of baseline, and
/// the conservation audit holds.
#[test]
fn leaf_kill_aborts_then_reconnects_and_conserves() {
    let plan = FaultsPlan::full();
    let row = plan
        .rows
        .iter()
        .find(|r| r.name == "leaf-kill")
        .expect("full plan has a leaf-kill row");
    let r = run_faults_point(23, row, &plan, 1).row;
    assert!(
        r["blackholed"].num() > 0.0,
        "leaf death blackholes its hosts"
    );
    assert!(
        r["ctrl_aborts"].num() > 0.0,
        "RTO give-up fired during the outage"
    );
    assert!(r["aborted_conns"].num() > 0.0, "sessions saw the abort");
    assert!(
        r["reconnects"].num() > 0.0,
        "sessions reconnected after the heal"
    );
    assert!(r["recover_us"].num() >= 0.0);
    // goodput back to ≥95% of baseline, and the conservation audit
    assert_eq!(check_row(&r), Ok(()), "{r}");
}

/// Corrupted frames are dropped exactly once: the link marks the frame
/// corrupted, the receiver's Val step verifies its checksums, the frame
/// dies there (counted in `pre.malformed`) and its
/// buffer is recycled — never delivered, never double-freed. Corruption
/// cannot leak into the byte streams, and the global buffer balance
/// still drains to zero.
#[test]
fn corrupted_frames_drop_exactly_once_and_conserve() {
    let sc = session_fabric(
        29,
        Stack::FlexToe,
        128,
        vec![
            FaultEvent::degrade(
                Time::from_ms(1),
                LinkScope::Fabric,
                Faults {
                    corrupt_chance: 0.02,
                    ..Default::default()
                },
            ),
            FaultEvent::degrade(Time::from_us(2500), LinkScope::Fabric, Faults::default()),
        ],
    );
    let mut sim = Sim::new(sc.seed);
    let fab = build_fabric(&mut sim, &sc);
    sim.run_until(Time::from_ms(4));
    let sessions = session_nodes(&fab);
    for &n in &sessions {
        sim.schedule(sim.now(), n, CloseAll);
    }
    sim.run_until(Time::from_ms(6));

    let corrupted: u64 = fab
        .fabric_links
        .iter()
        .map(|&l| sim.node_ref::<Link>(l).corrupted)
        .sum();
    let malformed = sim.stats.get_named("pre.malformed");
    assert!(corrupted > 0, "the window corrupted frames");
    assert!(malformed > 0, "checksum re-verification caught them");
    // ≤: a flip can land in the (unchecksummed) Ethernet MAC bytes and
    // survive; every checksummed flip dies exactly once at Val
    assert!(
        malformed <= corrupted,
        "a frame must not be counted malformed twice ({malformed} > {corrupted})"
    );
    for h in &fab.hosts {
        if let Some(app) = h.app {
            if h.role == flextoe_topo::BuiltRole::Server {
                let s = sim.node_ref::<DynFramedServer>(app);
                assert_eq!(s.bad_frames, 0, "corruption leaked into a stream");
            }
        }
    }
    // exactly-once in buffer terms: dropped corrupt frames were recycled,
    // not leaked or double-freed
    assert_eq!(buf_balance(&sim, &fab), 0);
    let (mut issued, mut completed, mut dead) = (0u64, 0u64, 0u64);
    for &n in &sessions {
        let c = sim.node_ref::<DynSessionClient>(n);
        issued += c.issued;
        completed += c.completed;
        dead += c.dead_requests;
    }
    assert_eq!(issued, completed + dead, "every request accounted once");
}

/// Same-timestamp fault events apply in schedule order (the builder
/// sorts by `(at, index)`): `down` then `up` at one instant leaves the
/// link healthy, the reverse leaves it dead — deterministically.
#[test]
fn same_timestamp_fault_events_apply_in_schedule_order() {
    let link = FaultTarget::FabricLink { index: 0 };
    let t = Time::from_ms(1);
    let run = |schedule: Vec<FaultEvent>| -> (u64, u64) {
        let sc = session_fabric(11, Stack::FlexToe, 128, schedule);
        let mut sim = Sim::new(sc.seed);
        let fab = build_fabric(&mut sim, &sc);
        sim.run_until(Time::from_ms(3));
        let rerouted = fab
            .switches
            .iter()
            .map(|&s| sim.node_ref::<Switch>(s).rerouted)
            .sum();
        let down_drops = fab
            .fabric_links
            .iter()
            .map(|&l| sim.node_ref::<Link>(l).down_drops)
            .sum();
        (rerouted, down_drops)
    };
    let (rr_up, dd_up) = run(vec![FaultEvent::down(t, link), FaultEvent::up(t, link)]);
    assert_eq!((rr_up, dd_up), (0, 0), "down;up at one instant = healthy");
    let (rr_down, _) = run(vec![FaultEvent::up(t, link), FaultEvent::down(t, link)]);
    assert!(rr_down > 0, "up;down at one instant = dead, ECMP rerouted");
}

/// The chaos sweep's acceptance contract: every smoke row passes the
/// conservation audit, and `BENCH_faults.json` is byte-identical across
/// runs and `--jobs` values for one seed.
#[test]
fn faults_sweep_conserves_and_is_byte_identical() {
    let a = execute::<FaultsPlan>(23, true, Some(1), 1);
    // every row conserved and recovered (and left its fault's signature)
    assert_eq!(FaultsPlan::check(&a.rows), Ok(()));
    let ja = a.body;
    let jb = execute::<FaultsPlan>(23, true, Some(2), 1).body;
    assert_eq!(ja, jb, "jobs=2 diverged from the serial run");
    assert!(ja.contains("\"benchmark\": \"faults\""));
    assert!(ja.contains("\"conserved\": true"));
    assert!(!ja.contains("\"conserved\": false"));
}
