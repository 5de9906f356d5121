//! The gray-failure plane end to end: duplicated segments and ACKs,
//! reorder-inducing jitter, Gilbert–Elliott bursty loss, pool-exhaustion
//! backpressure, and SYN admission control — every scenario must shed
//! load as *counted* degraded modes, keep exactly-once delivery, hold
//! the buffer-conservation invariant through exhaustion and recovery,
//! and never panic. The handshake cases run on FlexTOE and TAS hosts:
//! both families set connections up by the same rules. Runs on both
//! event queues (CI repeats the suite on the heap oracle with
//! `FLEXTOE_SIM_REFERENCE=1`).

use flextoe_apps::{Arrival, ClientSpec, CloseAll, ServerSpec, SizeDist, Wire};
use flextoe_bench::faults::buf_balance;
use flextoe_hoststack::HostStackNode;
use flextoe_netsim::{Faults, GeParams, Link};
use flextoe_sim::{Duration, NodeId, Sim, Time};
use flextoe_topo::{
    build_fabric, BuiltFabric, DynClient, DynServer, Fabric, FaultEvent, LinkScope, Role, Scenario,
    Stack,
};

/// The chaos-grade 4-leaf/2-spine session fabric (same shape as the
/// `faults` sweep): even hosts run reconnecting sessions toward the
/// server on the next leaf. `req_size` controls how many segments are
/// in flight per request (8 KiB ≈ 6 MSS keeps a window's worth of
/// unACKed data exposed to duplication and reordering). Every host runs
/// `stack`.
fn session_fabric(stack: Stack, seed: u64, req_size: u32, schedule: Vec<FaultEvent>) -> Scenario {
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
            Role::Client {
                cfg: ClientSpec {
                    n_conns: 4,
                    arrival: Arrival::Sessions {
                        think: Duration::from_us(20),
                        backoff_base: Duration::from_us(200),
                        backoff_cap: Duration::from_ms(2),
                    },
                    wire: Wire::Framed {
                        req: SizeDist::Fixed(req_size),
                        resp: SizeDist::Fixed(512),
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
    sc.fault_schedule = schedule;
    sc
}

fn session_nodes(fab: &BuiltFabric) -> Vec<NodeId> {
    fab.hosts.iter().filter_map(|h| h.client()).collect()
}

/// A control-plane counter plus its twin on every baseline host, so one
/// assertion reads either stack family.
fn stack_count(sim: &Sim, fab: &BuiltFabric, ctrl: &str, host: fn(&HostStackNode) -> u64) -> u64 {
    let hosts: u64 = fab
        .hosts
        .iter()
        .filter_map(|h| h.ep.baseline)
        .map(|n| host(sim.node_ref::<HostStackNode>(n)))
        .sum();
    sim.stats.get_named(ctrl) + hosts
}

/// Drain the fabric (`CloseAll` now, run to `until`) and assert the
/// PR 6 conservation contract: every request accounted exactly once, no
/// live work-pool slots, global packet-buffer balance zero, and no
/// corruption leaked into any server's byte stream.
fn drain_and_audit(sim: &mut Sim, fab: &BuiltFabric, until: Time) {
    for &n in &session_nodes(fab) {
        sim.schedule(sim.now(), n, CloseAll);
    }
    sim.run_until(until);
    let (mut issued, mut completed, mut dead) = (0u64, 0u64, 0u64);
    for &n in &session_nodes(fab) {
        let c = sim.node_ref::<DynClient>(n);
        issued += c.issued;
        completed += c.completed;
        dead += c.dead_requests;
        assert_eq!(c.in_flight(), 0, "no session may hold a live request");
    }
    assert!(completed > 0, "the scenario must make progress");
    assert_eq!(issued, completed + dead, "every request accounted once");
    let mut work_in_use = 0;
    for h in &fab.hosts {
        if let Some((nic, _)) = &h.ep.flextoe {
            work_in_use += nic.pool_gauges(sim).work_in_use;
        }
        if let Some(app) = h.app {
            if h.role == flextoe_topo::BuiltRole::Server {
                let s = sim.node_ref::<DynServer>(app);
                assert_eq!(s.bad_frames, 0, "gray faults leaked into a stream");
            }
        }
    }
    assert_eq!(work_in_use, 0, "work-pool slots leaked");
    assert_eq!(buf_balance(sim, fab), 0, "packet buffers leaked");
}

/// Duplicated segments and duplicated ACKs (a 50% duplication storm
/// across *every* link, covering handshakes, data, and ACKs in both
/// directions) are absorbed exactly once: streams stay intact, duplicate
/// handshake deliveries don't double-install connections, and every
/// buffer — original and copy — drains back to a pool.
#[test]
fn duplicate_segments_and_acks_conserve_buffers() {
    let sc = session_fabric(
        Stack::FlexToe,
        31,
        8192,
        vec![
            // from t=0: the connection handshakes themselves run under
            // duplication, exercising the dup-SYN/dup-SYN-ACK paths
            FaultEvent::degrade(
                Time::ZERO,
                LinkScope::All,
                Faults {
                    dup_chance: 0.5,
                    ..Default::default()
                },
            ),
            FaultEvent::degrade(Time::from_ms(2), LinkScope::All, Faults::default()),
        ],
    );
    let mut sim = Sim::new(sc.seed);
    let fab = build_fabric(&mut sim, &sc);
    sim.run_until(Time::from_ms(3));

    assert!(
        sim.stats.get_named("link.duplicated") > 0,
        "the storm duplicated frames"
    );
    assert!(
        sim.stats.get_named("ctrl.dup_handshake") > 0,
        "duplicated SYNs reached the control plane and were absorbed"
    );
    drain_and_audit(&mut sim, &fab, Time::from_ms(5));
}

/// A 50% duplication storm that covers only the handshakes (0-150 µs)
/// must leave both ends of every connection in sync: a duplicated SYN is
/// answered with the pending ISS, never a fresh one, so no connection
/// aborts and every session completes requests. Every duplicated
/// handshake frame goes back to the pool.
#[test]
fn handshake_duplicates_keep_connections_in_sync() {
    for stack in [Stack::FlexToe, Stack::Tas] {
        let storm = Faults {
            dup_chance: 0.5,
            ..Default::default()
        };
        let sc = session_fabric(
            stack,
            32,
            512,
            vec![
                FaultEvent::degrade(Time::ZERO, LinkScope::All, storm),
                FaultEvent::degrade(Time::from_us(150), LinkScope::All, Faults::default()),
            ],
        );
        let mut sim = Sim::new(sc.seed);
        let fab = build_fabric(&mut sim, &sc);
        sim.run_until(Time::from_ms(5));

        assert!(
            sim.stats.get_named("link.duplicated") > 0,
            "{stack:?}: the storm duplicated frames"
        );
        let aborts = stack_count(&sim, &fab, "ctrl.abort", |h| h.aborts);
        assert_eq!(
            aborts, 0,
            "{stack:?}: a duplicated handshake broke a connection"
        );
        for &n in &session_nodes(&fab) {
            let c = sim.node_ref::<DynClient>(n);
            assert!(
                c.completed > 0,
                "{stack:?}: session node {n} made no progress"
            );
        }
        drain_and_audit(&mut sim, &fab, Time::from_ms(8));
    }
}

/// Reorder-via-jitter: ±6 µs of per-frame jitter on the fabric links
/// reorders in-flight segments of multi-segment requests; the protocol
/// stages buffer and later accept them (`proto.ooo`), streams stay
/// intact, and the fabric still drains to a zero buffer balance.
#[test]
fn jitter_reorders_segments_and_proto_accepts_ooo() {
    let sc = session_fabric(
        Stack::FlexToe,
        37,
        8192,
        vec![
            FaultEvent::degrade(
                Time::from_us(500),
                LinkScope::Fabric,
                Faults {
                    jitter: Duration::from_us(6),
                    ..Default::default()
                },
            ),
            FaultEvent::degrade(Time::from_ms(2), LinkScope::Fabric, Faults::default()),
        ],
    );
    let mut sim = Sim::new(sc.seed);
    let fab = build_fabric(&mut sim, &sc);
    sim.run_until(Time::from_ms(3));

    assert!(
        sim.stats.get_named("proto.ooo") > 0,
        "jitter must reorder segments into the OOO buffer"
    );
    drain_and_audit(&mut sim, &fab, Time::from_ms(5));
}

/// Gilbert–Elliott bursty loss: long good spells, concentrated bad
/// bursts. Retransmission rides out the bursts, goodput keeps flowing
/// after the heal, and the loss is counted (`link.ge_drops`, folded
/// into each link's `dropped`) without breaking conservation.
#[test]
fn ge_burst_loss_retransmits_and_conserves() {
    let sc = session_fabric(
        Stack::FlexToe,
        41,
        8192,
        vec![
            FaultEvent::degrade(
                Time::from_us(500),
                LinkScope::Fabric,
                Faults {
                    ge: Some(GeParams {
                        p_enter: 0.02,
                        p_exit: 0.2,
                        loss_good: 0.0,
                        loss_bad: 0.5,
                    }),
                    ..Default::default()
                },
            ),
            FaultEvent::degrade(Time::from_ms(2), LinkScope::Fabric, Faults::default()),
        ],
    );
    let mut sim = Sim::new(sc.seed);
    let fab = build_fabric(&mut sim, &sc);
    sim.run_until(Time::from_ms(2));
    let ge_drops = sim.stats.get_named("link.ge_drops");
    assert!(ge_drops > 0, "the bad state must drop frames");
    let dropped: u64 = fab
        .fabric_links
        .iter()
        .map(|&l| sim.node_ref::<Link>(l).dropped)
        .sum();
    assert!(
        dropped >= ge_drops,
        "GE drops fold into the links' degrade-drop totals"
    );
    assert!(
        sim.stats.get_named("proto.rto_retx") + sim.stats.get_named("proto.fast_retx") > 0,
        "retransmission must recover the bursts"
    );
    // after the heal, sessions keep completing on the clean fabric
    let sessions = session_nodes(&fab);
    let healed: u64 = sessions
        .iter()
        .map(|&n| sim.node_ref::<DynClient>(n).completed)
        .sum();
    sim.run_until(Time::from_ms(3));
    let after: u64 = sessions
        .iter()
        .map(|&n| sim.node_ref::<DynClient>(n).completed)
        .sum();
    assert!(after > healed, "goodput must resume after the heal");
    drain_and_audit(&mut sim, &fab, Time::from_ms(5));
}

/// Pool-exhaustion backpressure: with the work pool capped far below
/// the offered burst size, RX frames are shed at the sequencer as
/// counted `nic.pool_exhausted` drops instead of growing the slab (or
/// panicking). Retransmission absorbs the sheds, pressure subsides as
/// requests complete, and the conservation invariant holds through
/// exhaustion and recovery.
#[test]
fn pool_exhaustion_sheds_counted_and_recovers() {
    let mut sc = session_fabric(Stack::FlexToe, 43, 8192, vec![]);
    sc.opts.cfg.work_pool_cap = Some(8);
    let mut sim = Sim::new(sc.seed);
    let fab = build_fabric(&mut sim, &sc);
    sim.run_until(Time::from_ms(2));

    let shed = sim.stats.get_named("nic.pool_exhausted");
    assert!(shed > 0, "the capped pool must shed RX frames");
    let sessions = session_nodes(&fab);
    let mid: u64 = sessions
        .iter()
        .map(|&n| sim.node_ref::<DynClient>(n).completed)
        .sum();
    assert!(mid > 0, "the fabric must make progress while shedding");
    // recovery: completions keep accumulating under sustained pressure
    sim.run_until(Time::from_ms(3));
    let late: u64 = sessions
        .iter()
        .map(|&n| sim.node_ref::<DynClient>(n).completed)
        .sum();
    assert!(late > mid, "backpressure must degrade, not wedge");
    drain_and_audit(&mut sim, &fab, Time::from_ms(6));
}

/// SYN admission control: with the per-host connection cap below the
/// offered session count, surplus passive opens are refused with an RST
/// (counted in `ctrl.admission_refused` or
/// `HostStackNode::admission_refused`) instead of wedging the handshake;
/// refused clients observe clean connect failures and keep retrying,
/// admitted sessions complete, and the fabric drains conserved.
#[test]
fn syn_admission_cap_refuses_with_rst_not_wedge() {
    for stack in [Stack::FlexToe, Stack::Tas] {
        admission_cap_case(stack);
    }
}

fn admission_cap_case(stack: Stack) {
    let mut sc = session_fabric(stack, 47, 512, vec![]);
    // each server host sees 4 incoming sessions; admit only 2
    sc.opts.max_conns = Some(2);
    let mut sim = Sim::new(sc.seed);
    let fab = build_fabric(&mut sim, &sc);
    sim.run_until(Time::from_ms(3));

    let refused = stack_count(&sim, &fab, "ctrl.admission_refused", |h| {
        h.admission_refused
    });
    assert!(refused > 0, "{stack:?}: the cap must refuse surplus SYNs");
    let (mut completed, mut failed) = (0u64, 0u64);
    for &n in &session_nodes(&fab) {
        let c = sim.node_ref::<DynClient>(n);
        completed += c.completed;
        failed += u64::from(c.failed);
    }
    assert!(
        completed > 0,
        "{stack:?}: admitted sessions must complete requests"
    );
    assert!(
        failed > 0,
        "{stack:?}: refused sessions must fail cleanly, not hang"
    );
    drain_and_audit(&mut sim, &fab, Time::from_ms(6));
}
