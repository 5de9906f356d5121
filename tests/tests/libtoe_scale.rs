//! libTOE under many concurrent connections: accept/connect churn with
//! connection-id reuse, context-queue ordering (the framed protocol's
//! per-request magic check fails on any byte misordering), and pool
//! balance after quiescence — no WorkPool or descriptor leaks.

use flextoe_apps::{Arrival, ClientSpec, CloseAll, ServerSpec, SizeDist, Wire, FRAMED_PORT};
use flextoe_control::ControlPlane;
use flextoe_sim::{Duration, Sim, Tick, Time};
use flextoe_topo::{build_pair, DynClient, DynServer, PairOpts, Stack};

fn client_cfg(n_conns: u32, stop_after: u64) -> ClientSpec {
    ClientSpec {
        server_port: FRAMED_PORT,
        n_conns,
        arrival: Arrival::Open {
            rate_rps: 400_000.0,
        },
        wire: Wire::Framed {
            req: SizeDist::Uniform { lo: 64, hi: 512 },
            resp: SizeDist::Uniform { lo: 64, hi: 2048 },
        },
        stop_after: Some(stop_after),
        connect_spacing: Duration::from_ns(500),
        ..Default::default()
    }
}

/// 128 concurrent connections of framed traffic; every request's header
/// magic must verify (any context-queue/doorbell misordering would shift
/// the byte stream and scramble headers), responses complete in per-conn
/// FIFO order, and the work pools balance to zero at quiescence.
#[test]
fn many_connections_byte_exact_and_pools_balance() {
    let opts = PairOpts::default();
    let mut sim = Sim::new(77);
    let (ec, es) = build_pair(&mut sim, Stack::FlexToe, Stack::FlexToe, &opts);
    let server = sim.add_node(DynServer::new(
        ServerSpec::framed(),
        es.stack_init(Stack::FlexToe, 1),
    ));
    let client = sim.add_node(DynClient::new(
        ClientSpec {
            server_ip: es.ip,
            ..client_cfg(128, 2000)
        },
        ec.stack_init(Stack::FlexToe, 1),
    ));
    sim.schedule(Time::ZERO, server, Tick);
    sim.schedule(Time::from_us(20), client, Tick);
    sim.run_until(Time::from_ms(50));

    let c = sim.node_ref::<DynClient>(client);
    assert_eq!(c.connected, 128);
    assert_eq!(c.failed, 0);
    assert!(c.measured >= 2000, "measured {}", c.measured);
    let s = sim.node_ref::<DynServer>(server);
    assert_eq!(s.bad_frames, 0, "byte stream stayed framed");
    assert_eq!(s.accepted, 128);

    // quiesce: park the arrival process, close everything, drain
    sim.clear_halt();
    sim.schedule(sim.now(), client, CloseAll);
    sim.run_until(sim.now() + Duration::from_ms(20));
    for ep in [&ec, &es] {
        let nic = &ep.flextoe.as_ref().unwrap().0;
        let pool = nic.work_pool.borrow();
        assert_eq!(pool.in_use(), 0, "work pool leak: {:?}", pool.live_slots());
        assert!(pool.allocated > 0 && pool.allocated == pool.released);
    }
}

/// Connect/close churn: waves of connections open, exchange RPCs, and
/// close; connection ids and pool slots are reused wave after wave and
/// nothing leaks. Each wave uses a fresh libTOE context (a new app
/// thread), like real clients coming and going.
#[test]
fn accept_connect_churn_reuses_ids_without_leaks() {
    let opts = PairOpts::default();
    let mut sim = Sim::new(31);
    let (ec, es) = build_pair(&mut sim, Stack::FlexToe, Stack::FlexToe, &opts);
    let server = sim.add_node(DynServer::new(
        ServerSpec::framed(),
        es.stack_init(Stack::FlexToe, 1),
    ));
    sim.schedule(Time::ZERO, server, Tick);

    let mut total_established = 0u64;
    for wave in 0..3u64 {
        let client = sim.add_node(DynClient::new(
            ClientSpec {
                server_ip: es.ip,
                ..client_cfg(32, 300)
            },
            ec.stack_init(Stack::FlexToe, (wave + 2) as u16),
        ));
        sim.schedule(sim.now() + Duration::from_us(10), client, Tick);
        sim.run_until(sim.now() + Duration::from_ms(20));
        let c = sim.node_ref::<DynClient>(client);
        assert_eq!(c.connected, 32, "wave {wave} connected");
        assert!(c.measured >= 300, "wave {wave} measured {}", c.measured);
        total_established += 32;

        // close everything and drain the teardown (FIN both ways + the
        // control loop's reclaim)
        sim.clear_halt();
        sim.schedule(sim.now(), client, CloseAll);
        sim.run_until(sim.now() + Duration::from_ms(15));
        let table = ec.flextoe.as_ref().unwrap().0.table.borrow();
        assert!(
            table.is_empty(),
            "wave {wave}: client table still has {} conns",
            table.len()
        );
        drop(table);
        assert!(
            es.flextoe.as_ref().unwrap().0.table.borrow().is_empty(),
            "wave {wave}: server table not reclaimed"
        );
    }

    // id reuse: three waves of 32 conns never grew the table beyond one
    // wave's width (install reuses the lowest free index)
    let ctrl = ec.flextoe.as_ref().unwrap().1;
    assert_eq!(
        sim.node_ref::<ControlPlane>(ctrl).established,
        total_established
    );
    for ep in [&ec, &es] {
        let nic = &ep.flextoe.as_ref().unwrap().0;
        let pool = nic.work_pool.borrow();
        assert_eq!(pool.in_use(), 0, "churn leak: {:?}", pool.live_slots());
        drop(pool);
        // gauges read zero in-use and real high-water marks after churn
        let g = nic.pool_gauges(&sim);
        assert_eq!(g.work_in_use, 0);
        assert!(g.work_high_water > 0);
        assert!(g.cache_high_water > 0);
    }
}

/// The server's per-connection response order matches the request order
/// even when many conns interleave: the client's FIFO accounting would
/// desync (and latencies go absurd / measured stall) otherwise. Driven
/// hard: responses larger than the socket buffer force partial sends and
/// Writable resumption.
#[test]
fn interleaved_large_responses_preserve_per_conn_fifo() {
    let mut opts = PairOpts::default();
    opts.cfg.rx_buf_size = 4 * 1024;
    opts.cfg.tx_buf_size = 4 * 1024;
    let mut sim = Sim::new(55);
    let (ec, es) = build_pair(&mut sim, Stack::FlexToe, Stack::FlexToe, &opts);
    let server = sim.add_node(DynServer::new(
        ServerSpec::framed(),
        es.stack_init(Stack::FlexToe, 1),
    ));
    let client = sim.add_node(DynClient::new(
        ClientSpec {
            server_ip: es.ip,
            server_port: FRAMED_PORT,
            n_conns: 16,
            arrival: Arrival::Open {
                rate_rps: 200_000.0,
            },
            wire: Wire::Framed {
                req: SizeDist::Fixed(64),
                // responses up to 4x the socket buffer: guaranteed
                // Writable backpressure inside the server
                resp: SizeDist::Uniform {
                    lo: 1024,
                    hi: 16 * 1024,
                },
            },
            stop_after: Some(400),
            connect_spacing: Duration::from_us(1),
            ..Default::default()
        },
        ec.stack_init(Stack::FlexToe, 1),
    ));
    sim.schedule(Time::ZERO, server, Tick);
    sim.schedule(Time::from_us(20), client, Tick);
    sim.run_until(Time::from_ms(80));
    let c = sim.node_ref::<DynClient>(client);
    assert!(c.measured >= 400, "measured {}", c.measured);
    // FIFO intact: nothing left over that shouldn't be, no stuck conns
    let s = sim.node_ref::<DynServer>(server);
    assert_eq!(s.bad_frames, 0);
    assert!(
        c.latency.max() < 20_000_000,
        "p-max latency sane: {} ns",
        c.latency.max()
    );
}
