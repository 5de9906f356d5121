//! The gray-failure plane end to end: duplicated segments and ACKs,
//! reorder-inducing jitter, Gilbert–Elliott bursty loss, pool-exhaustion
//! backpressure, and SYN admission control — every scenario must shed
//! load as *counted* degraded modes, keep exactly-once delivery, hold
//! the buffer-conservation invariant through exhaustion and recovery,
//! and never panic. The handshake cases run on FlexTOE and TAS hosts:
//! both families set connections up by the same rules. Runs on both
//! event queues (CI repeats the suite on the heap oracle with
//! `FLEXTOE_SIM_REFERENCE=1`).

use flextoe_bench::faults::{completed, drain_and_audit, SessionFabric};
use flextoe_bench::harness::FabricRun;
use flextoe_netsim::{Faults, GeParams, Link};
use flextoe_sim::{Duration, Time};
use flextoe_topo::{DynClient, FaultEvent, LinkScope, Stack};

/// Duplicated segments and duplicated ACKs (a 50% duplication storm
/// across *every* link, covering handshakes, data, and ACKs in both
/// directions) are absorbed exactly once: streams stay intact, duplicate
/// handshake deliveries don't double-install connections, and every
/// buffer — original and copy — drains back to a pool.
#[test]
fn duplicate_segments_and_acks_conserve_buffers() {
    let mut run = SessionFabric {
        seed: 31,
        req_size: 8192,
        schedule: vec![
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
        ..Default::default()
    }
    .launch(1);
    let (sim, _) = run.mono();
    sim.run_until(Time::from_ms(3));

    assert!(
        sim.stats.get_named("link.duplicated") > 0,
        "the storm duplicated frames"
    );
    assert!(
        sim.stats.get_named("ctrl.dup_handshake") > 0,
        "duplicated SYNs reached the control plane and were absorbed"
    );
    drain_and_audit(&mut run, Time::from_ms(3), Time::from_ms(5)).unwrap_or_else(|e| panic!("{e}"));
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
        let mut run = SessionFabric {
            stack,
            seed: 32,
            req_size: 512,
            schedule: vec![
                FaultEvent::degrade(Time::ZERO, LinkScope::All, storm),
                FaultEvent::degrade(Time::from_us(150), LinkScope::All, Faults::default()),
            ],
            ..Default::default()
        }
        .launch(1);
        let (sim, fab) = run.mono();
        sim.run_until(Time::from_ms(5));

        assert!(
            sim.stats.get_named("link.duplicated") > 0,
            "{stack:?}: the storm duplicated frames"
        );
        let aborts = sim.stats.get_named("ctrl.abort");
        assert_eq!(
            aborts, 0,
            "{stack:?}: a duplicated handshake broke a connection"
        );
        for n in fab.hosts.iter().filter_map(|h| h.client()) {
            let c = sim.node_ref::<DynClient>(n);
            assert!(
                c.completed > 0,
                "{stack:?}: session node {n} made no progress"
            );
        }
        drain_and_audit(&mut run, Time::from_ms(5), Time::from_ms(8))
            .unwrap_or_else(|e| panic!("{stack:?}: {e}"));
    }
}

/// Reorder-via-jitter: ±6 µs of per-frame jitter on the fabric links
/// reorders in-flight segments of multi-segment requests; the protocol
/// stages buffer and later accept them (`proto.ooo`), streams stay
/// intact, and the fabric still drains to a zero buffer balance.
#[test]
fn jitter_reorders_segments_and_proto_accepts_ooo() {
    let mut run = SessionFabric {
        seed: 37,
        req_size: 8192,
        schedule: vec![
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
        ..Default::default()
    }
    .launch(1);
    let (sim, _) = run.mono();
    sim.run_until(Time::from_ms(3));

    assert!(
        sim.stats.get_named("proto.ooo") > 0,
        "jitter must reorder segments into the OOO buffer"
    );
    drain_and_audit(&mut run, Time::from_ms(3), Time::from_ms(5)).unwrap_or_else(|e| panic!("{e}"));
}

/// Gilbert–Elliott bursty loss: long good spells, concentrated bad
/// bursts. Retransmission rides out the bursts, goodput keeps flowing
/// after the heal, and the loss is counted (`link.ge_drops`, folded
/// into each link's `dropped`) without breaking conservation.
#[test]
fn ge_burst_loss_retransmits_and_conserves() {
    let mut run = SessionFabric {
        seed: 41,
        req_size: 8192,
        schedule: vec![
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
        ..Default::default()
    }
    .launch(1);
    let (sim, fab) = run.mono();
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
    let healed = completed(sim, fab);
    sim.run_until(Time::from_ms(3));
    let after = completed(sim, fab);
    assert!(after > healed, "goodput must resume after the heal");
    drain_and_audit(&mut run, Time::from_ms(3), Time::from_ms(5)).unwrap_or_else(|e| panic!("{e}"));
}

/// Pool-exhaustion backpressure: with the work pool capped far below
/// the offered burst size, RX frames are shed at the sequencer as
/// counted `nic.pool_exhausted` drops instead of growing the slab (or
/// panicking). Retransmission absorbs the sheds, pressure subsides as
/// requests complete, and the conservation invariant holds through
/// exhaustion and recovery.
#[test]
fn pool_exhaustion_sheds_counted_and_recovers() {
    let fabric = SessionFabric {
        seed: 43,
        req_size: 8192,
        ..Default::default()
    };
    let mut run = FabricRun::launch(1, move || {
        let mut sc = fabric.scenario();
        sc.opts.cfg.work_pool_cap = Some(8);
        sc
    });
    let (sim, fab) = run.mono();
    sim.run_until(Time::from_ms(2));

    let shed = sim.stats.get_named("nic.pool_exhausted");
    assert!(shed > 0, "the capped pool must shed RX frames");
    let mid = completed(sim, fab);
    assert!(mid > 0, "the fabric must make progress while shedding");
    // recovery: completions keep accumulating under sustained pressure
    sim.run_until(Time::from_ms(3));
    let late = completed(sim, fab);
    assert!(late > mid, "backpressure must degrade, not wedge");
    drain_and_audit(&mut run, Time::from_ms(3), Time::from_ms(6)).unwrap_or_else(|e| panic!("{e}"));
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
    let fabric = SessionFabric {
        stack,
        seed: 47,
        req_size: 512,
        ..Default::default()
    };
    let mut run = FabricRun::launch(1, move || {
        let mut sc = fabric.scenario();
        // each server host sees 4 incoming sessions; admit only 2
        sc.opts.max_conns = Some(2);
        sc
    });
    let (sim, fab) = run.mono();
    sim.run_until(Time::from_ms(3));

    let refused = sim.stats.get_named("ctrl.admission_refused");
    assert!(refused > 0, "{stack:?}: the cap must refuse surplus SYNs");
    let failed: u64 = fab
        .hosts
        .iter()
        .filter_map(|h| h.client())
        .map(|n| u64::from(sim.node_ref::<DynClient>(n).failed))
        .sum();
    assert!(
        completed(sim, fab) > 0,
        "{stack:?}: admitted sessions must complete requests"
    );
    assert!(
        failed > 0,
        "{stack:?}: refused sessions must fail cleanly, not hang"
    );
    drain_and_audit(&mut run, Time::from_ms(3), Time::from_ms(6))
        .unwrap_or_else(|e| panic!("{stack:?}: {e}"));
}
