//! Scheduler equivalence: the bucketed event wheel must deliver *exactly*
//! the order the `BinaryHeap` reference scheduler delivers — timestamp
//! order, ties broken by enqueue order, byte-identical results from the
//! same seed — plus pool-hygiene checks on the zero-allocation fast path.

use std::cell::RefCell;
use std::rc::Rc;

use flextoe_apps::{ClientConfig, LibToe, LoadMode, RpcClientApp, RpcServerApp, ServerConfig};
use flextoe_integration::{default_setup, Host};
use flextoe_sim::{Ctx, Duration, Msg, Node, NodeId, QueueKind, Sim, Tick, Time};

type Client = RpcClientApp<LibToe>;
type Server = RpcServerApp<LibToe>;

// ---- property: random workloads deliver identically ----------------------

type Log = Rc<RefCell<Vec<(u64, usize, u64)>>>;

/// A node that logs every delivery and schedules a random number of
/// follow-ups at random distances (zero-delay, in-bucket, in-window and
/// far-overflow), drawing randomness from the engine's deterministic RNG.
struct Hopper {
    peers: Vec<NodeId>,
    log: Log,
    budget: Rc<RefCell<u32>>,
}

impl Node for Hopper {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let Msg::Token(v) = msg else {
            panic!("hopper: unexpected {}", msg.variant_name())
        };
        self.log
            .borrow_mut()
            .push((ctx.now().ps(), ctx.self_id(), v));
        let mut budget = self.budget.borrow_mut();
        if *budget == 0 {
            return;
        }
        let n = ctx.rng.below(3);
        for _ in 0..n {
            if *budget == 0 {
                break;
            }
            *budget -= 1;
            let d = match ctx.rng.below(5) {
                0 => Duration::ZERO,
                1 => Duration::from_ps(ctx.rng.below(4_096)),
                2 => Duration::from_ns(ctx.rng.below(1_000)),
                3 => Duration::from_us(ctx.rng.below(60)),
                _ => Duration::from_ms(1 + ctx.rng.below(5)),
            };
            let to = *ctx.rng.pick(&self.peers);
            let val = ctx.rng.next_u64();
            ctx.send(to, d, val);
        }
    }
}

fn random_workload(seed: u64, kind: QueueKind) -> (Vec<(u64, usize, u64)>, u64, u64) {
    let mut sim = Sim::with_queue(seed, kind);
    let log: Log = Rc::new(RefCell::new(Vec::new()));
    let budget = Rc::new(RefCell::new(20_000u32));
    let ids: Vec<NodeId> = (0..8).map(|_| sim.reserve_node()).collect();
    for &id in &ids {
        sim.fill_node(
            id,
            Hopper {
                peers: ids.clone(),
                log: log.clone(),
                budget: budget.clone(),
            },
        );
    }
    for (i, &id) in ids.iter().enumerate() {
        sim.schedule(Time::from_ns(i as u64), id, i as u64);
    }
    sim.run();
    let events = sim.events_processed();
    let end = sim.now().ps();
    let entries = log.borrow().clone();
    (entries, events, end)
}

/// The wheel delivers byte-identically to the heap reference on random
/// node graphs whose handlers mix zero-delay, same-bucket, in-window and
/// far-future (overflow) sends: same delivery log (time, node, payload),
/// same event count, same end time.
#[test]
fn wheel_matches_heap_on_random_workloads() {
    for seed in [1u64, 7, 42, 0xDEAD, 991, 2, 11, 77, 4242, 0xBEEF] {
        let wheel = random_workload(seed, QueueKind::Wheel);
        let heap = random_workload(seed, QueueKind::Heap);
        assert_eq!(wheel.1, heap.1, "event counts diverged for seed {seed}");
        assert_eq!(wheel.2, heap.2, "end times diverged for seed {seed}");
        assert_eq!(wheel.0, heap.0, "delivery order diverged for seed {seed}");
    }
}

/// Determinism: the same seed gives the same run, twice, on the wheel.
#[test]
fn wheel_is_deterministic_across_runs() {
    let a = random_workload(123, QueueKind::Wheel);
    let b = random_workload(123, QueueKind::Wheel);
    assert_eq!(a, b);
    let c = random_workload(124, QueueKind::Wheel);
    assert_ne!(a.0, c.0);
}

// ---- property: the full data-path is scheduler-independent ---------------

fn echo_fingerprint(kind: QueueKind) -> (u64, u64, u64, u64, u64, u64, usize, usize) {
    let mut sim = Sim::with_queue(7, kind);
    let (a, b) = default_setup(&mut sim);
    let server = sim.add_node(Server::new(
        ServerConfig {
            msg_size: 64,
            resp_size: 64,
            ..Default::default()
        },
        stack_init(&b, 1),
    ));
    let client = sim.add_node(Client::new(
        ClientConfig {
            server_ip: b.ip,
            n_conns: 4,
            msg_size: 64,
            resp_size: 64,
            mode: LoadMode::Closed { pipeline: 2 },
            stop_after: Some(500),
            ..Default::default()
        },
        stack_init(&a, 1),
    ));
    sim.schedule(Time::ZERO, server, Tick);
    sim.schedule(Time::from_us(20), client, Tick);
    sim.run_until(Time::from_ms(500));

    let c = sim.node_ref::<Client>(client);
    let s = sim.node_ref::<Server>(server);
    let fp = (
        sim.events_processed(),
        c.measured,
        c.latency.median(),
        c.latency.quantile(0.99),
        s.requests,
        sim.now().ps(),
        a.nic.work_pool.borrow().in_use(),
        b.nic.work_pool.borrow().in_use(),
    );
    assert_eq!(c.connected, 4);
    assert_eq!(c.measured, 500);
    fp
}

fn stack_init(host: &Host, ctx_id: u16) -> flextoe_apps::StackInit<LibToe> {
    let nic = host.nic.handle();
    let ctrl = host.ctrl;
    Box::new(move |ctx, app| LibToe::new(ctx, ctx_id, nic, ctrl, app))
}

/// A complete two-host echo run (handshake, pipeline, DMA, context
/// queues, RPC latency measurement) produces identical statistics on both
/// schedulers.
#[test]
fn full_pipeline_identical_on_both_schedulers() {
    let wheel = echo_fingerprint(QueueKind::Wheel);
    let heap = echo_fingerprint(QueueKind::Heap);
    assert_eq!(wheel, heap, "wheel and heap runs diverged");
}

// ---- pool hygiene --------------------------------------------------------

/// After a quiescent run, every pipeline work item was returned to the
/// pool (no leaks, no stuck slots) and the packet-buffer pool was
/// actually recycling buffers on the data path.
#[test]
fn pools_balance_after_end_to_end_run() {
    let mut sim = Sim::new(7);
    let (a, b) = default_setup(&mut sim);
    let server = sim.add_node(Server::new(
        ServerConfig {
            msg_size: 512,
            resp_size: 512,
            ..Default::default()
        },
        stack_init(&b, 1),
    ));
    let client = sim.add_node(Client::new(
        ClientConfig {
            server_ip: b.ip,
            n_conns: 2,
            msg_size: 512,
            resp_size: 512,
            mode: LoadMode::Closed { pipeline: 2 },
            stop_after: Some(300),
            ..Default::default()
        },
        stack_init(&a, 1),
    ));
    sim.schedule(Time::ZERO, server, Tick);
    sim.schedule(Time::from_us(20), client, Tick);
    sim.run_until(Time::from_ms(500));
    assert_eq!(sim.node_ref::<Client>(client).measured, 300);
    // the client halts the sim the instant it finishes measuring, which
    // strands whatever was in flight at that instant — clear the halt and
    // let the pipeline quiesce before auditing the pools
    sim.clear_halt();
    sim.run_until(Time::from_ms(501));

    for (name, host) in [("client", &a), ("server", &b)] {
        let pool = host.nic.work_pool.borrow();
        assert_eq!(
            pool.in_use(),
            0,
            "{name} NIC leaked {} work slots (allocated {}, released {}): {:?}",
            pool.in_use(),
            pool.allocated,
            pool.released,
            pool.live_slots()
        );
        assert!(pool.allocated > 0, "{name} pipeline processed work");
        assert_eq!(pool.allocated, pool.released);
        assert!(
            pool.high_water < 4096,
            "{name} high water {} suspiciously large",
            pool.high_water
        );

        let seg = host.nic.seg_pool.borrow();
        assert!(
            seg.reuse_ratio() > 0.5,
            "{name} seg pool barely recycling: ratio {:.2} (takes {}, fresh {})",
            seg.reuse_ratio(),
            seg.takes,
            seg.fresh_allocs
        );
    }
}
