//! The allocation-free steady state, as a test: once connections are up,
//! pools are warm and every socket buffer has wrapped once, a request
//! costs zero heap allocations on the FlexTOE path and on the baseline
//! host stack, and so does a paced bulk segment. Each scenario counts the
//! allocations of two back-to-back windows of simulated time; the first
//! may still see a straggling high-water mark (a queue reaching its peak
//! depth), the second must add none at all. The FlexTOE echo also bounds
//! the events delivered per request, so a self-event that returns on
//! every frame fails here too. The 1 ms telemetry sweep, the one piece of
//! periodic control work on the fabrics, is pinned the same way: a warm
//! sweep's encode and merge allocate nothing. Under loss, the frame pools
//! must recycle what the links drop: fresh pool buffers stay a small
//! fraction of the dropped frames.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use flextoe_apps::{Arrival, ClientSpec, ServerSpec, Wire};
use flextoe_control::CcAlgo;
use flextoe_netsim::{Faults, PortConfig, SetPortUp, Switch};
use flextoe_sim::{Ctx, Duration, Msg, Node, NodeId, SchedCtl, Sim, Tick, Time};
use flextoe_telemetry::{mix64, MergedView, ReportView, SketchCfg, SwitchSketch};
use flextoe_topo::{build_pair, DynClient, DynServer, Endpoint, PairOpts, Stack};
use flextoe_wire::{Frame, Ip4, MacAddr, SegmentSpec};

type Client = DynClient;
type Server = DynServer;

/// Counts this thread's heap allocations (the test harness runs the
/// scenarios on parallel threads of one process).
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // a thread being torn down has no counter any more: not ours to count
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter (a const-
// initialised thread-local `Cell`, so touching it never allocates) has no
// bearing on the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`; the caller guarantees `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// What one window of simulated time cost.
#[derive(Debug)]
struct Window {
    allocs: u64,
    requests: u64,
    /// Events the engine delivered.
    events: u64,
}

/// A client/server pair on `stack`, scheduled to start: the client
/// endpoint, the server endpoint and the client node.
fn client_server(
    sim: &mut Sim,
    stack: Stack,
    opts: &PairOpts,
    server_cfg: ServerSpec,
    client_cfg: ClientSpec,
) -> (Endpoint, Endpoint, NodeId) {
    let (ea, eb) = build_pair(sim, stack, stack, opts);
    let server = sim.add_node(Server::new(server_cfg, eb.stack_init(stack, 1)));
    let client = sim.add_node(Client::new(
        ClientSpec {
            server_ip: eb.ip,
            ..client_cfg
        },
        ea.stack_init(stack, 1),
    ));
    sim.schedule(Time::ZERO, server, Tick);
    sim.schedule(Time::from_us(20), client, Tick);
    (ea, eb, client)
}

/// A client/server pair on `stack`, run through a warm-up and then two
/// equal windows.
fn two_windows(
    stack: Stack,
    opts: PairOpts,
    server_cfg: ServerSpec,
    client_cfg: ClientSpec,
    pace_ps_per_byte: Option<u64>,
    warm: Time,
    window: Duration,
) -> [Window; 2] {
    let mut sim = Sim::new(11);
    let (ea, _, client) = client_server(&mut sim, stack, &opts, server_cfg, client_cfg);
    if let Some(interval_ps_per_byte) = pace_ps_per_byte {
        // program the sender's flow scheduler the way the control plane's
        // congestion control would (CC itself is off in this scenario)
        let (nic, _) = ea.flextoe.as_ref().expect("pacing needs a FlexTOE sender");
        for conn in 0..client_cfg.n_conns {
            let rate = SchedCtl::SetRate {
                conn,
                interval_ps_per_byte,
            };
            sim.schedule(Time::from_us(500), nic.handle().sched, rate);
        }
    }
    sim.run_until(warm);
    let mut at = warm;
    [(); 2].map(|()| {
        let (a0, r0) = (allocs(), sim.node_ref::<Client>(client).completed);
        let e0 = sim.events_processed();
        at += window;
        sim.run_until(at);
        Window {
            allocs: allocs() - a0,
            requests: sim.node_ref::<Client>(client).completed - r0,
            events: sim.events_processed() - e0,
        }
    })
}

/// The first window tolerates this many straggling high-water marks.
const STRAGGLERS: u64 = 4;

fn assert_steady(what: &str, [first, second]: [Window; 2], min_requests: u64) {
    assert!(
        first.requests >= min_requests && second.requests >= min_requests,
        "{what}: too little work to mean anything: {first:?} then {second:?}"
    );
    assert!(
        first.allocs <= STRAGGLERS,
        "{what}: {first:?} allocates in the steady state"
    );
    assert_eq!(
        second.allocs, 0,
        "{what}: doubling the window must add nothing, got {second:?}"
    );
}

/// Delivered events per FlexTOE echo in the second window (49.77
/// measured, 55.52 with every port, DMA and scheduler self-event
/// unconditional). Any one of those coming back crosses it: the MAC's
/// end-of-frame token reads 50.77, an idle scheduler tick 51.02.
const EVENTS_PER_ECHO: f64 = 50.5;

fn echo_cfgs() -> (ServerSpec, ClientSpec) {
    (
        ServerSpec {
            echo_data: true,
            ..Default::default()
        },
        ClientSpec {
            n_conns: 4,
            arrival: Arrival::Closed { pipeline: 4 },
            ..Default::default()
        },
    )
}

/// 64-byte byte-exact echo over the full FlexTOE pipeline on both hosts:
/// notification jobs, application wake-ups, the response self-wake, the
/// `poll` / `recv` buffers and the control tick all stay off the heap.
#[test]
fn flextoe_echo_allocates_nothing_per_request() {
    let (server, client) = echo_cfgs();
    // 64 KiB socket buffers wrap (and so finish committing) after 1024
    // echoes per connection: ~7 ms at this load
    let w = two_windows(
        Stack::FlexToe,
        PairOpts::default(),
        server,
        client,
        None,
        Time::from_ms(12),
        Duration::from_ms(3),
    );
    let per_request = w[1].events as f64 / w[1].requests.max(1) as f64;
    assert_steady("FlexTOE echo", w, 1000);
    assert!(
        per_request < EVENTS_PER_ECHO,
        "FlexTOE echo: {per_request:.2} events per request, bound {EVENTS_PER_ECHO}"
    );
}

/// The same echo with both hosts on the TAS host stack: the syscall
/// doorbell, the epoll wake-up, the connection check-out on every data
/// segment and the payload copies into frames stay off the heap.
#[test]
fn tas_echo_allocates_nothing_per_request() {
    let (server, client) = echo_cfgs();
    let w = two_windows(
        Stack::Tas,
        PairOpts::default(),
        server,
        client,
        None,
        Time::from_ms(12),
        Duration::from_ms(3),
    );
    assert_steady("TAS echo", w, 1000);
}

/// One-directional bulk (16 KiB requests, 32-byte replies) with the
/// sender paced to ~1 Gbit/s, so every segment goes through a Carousel
/// wheel slot: over two windows the flow visits every one of the 4096
/// slots, and none of those first visits may allocate.
#[test]
fn paced_flextoe_bulk_allocates_nothing_per_segment() {
    let w = two_windows(
        Stack::FlexToe,
        PairOpts {
            cc: CcAlgo::None,
            ..Default::default()
        },
        ServerSpec {
            wire: Wire::Fixed {
                req: 16 * 1024,
                resp: 32,
            },
            ..Default::default()
        },
        ClientSpec {
            n_conns: 2,
            wire: Wire::Fixed {
                req: 16 * 1024,
                resp: 32,
            },
            arrival: Arrival::Closed { pipeline: 2 },
            ..Default::default()
        },
        Some(8_000),
        Time::from_ms(10),
        Duration::from_ms(6),
    );
    assert_steady("paced FlexTOE bulk", w, 20);
}

/// A FlexTOE echo losing 1% of its frames on each wire. A frame taken
/// from one NIC's packet memory and dropped on the link goes back through
/// the fabric pool; both NICs share that pool's free list, so the next
/// emission on either side reuses it. Fresh buffers then track the peak
/// number in flight, not the drops. This counts pool allocations, not
/// allocator calls, because a new high-water mark is a legitimate fresh
/// buffer.
#[test]
fn dropped_frames_refill_the_nic_packet_memory() {
    let mut sim = Sim::new(11);
    let opts = PairOpts {
        faults: Faults {
            drop_chance: 0.01,
            ..Default::default()
        },
        ..Default::default()
    };
    let (server, client) = echo_cfgs();
    let (ea, eb, client) = client_server(&mut sim, Stack::FlexToe, &opts, server, client);
    sim.run_until(Time::from_ms(40));

    let drops = sim.stats.get_named("link.drops");
    let nics = [&ea, &eb].map(|ep| {
        let (nic, _) = ep.flextoe.as_ref().expect("a FlexTOE pair");
        nic.seg_pool.borrow().fresh_allocs
    });
    let fresh = sim.frame_pool.fresh_allocs + nics.iter().sum::<u64>();
    assert!(
        sim.node_ref::<Client>(client).completed > 1000 && drops >= 100,
        "too little loss to mean anything: {drops} drops"
    );
    assert!(
        fresh * 10 < drops,
        "{fresh} fresh buffers (sim pool {}, NICs {nics:?}) for {drops} dropped frames",
        sim.frame_pool.fresh_allocs
    );
}

/// One switch's telemetry sweep at the default 4x4096 shape with 3,000
/// flows, encoded into a report buffer and merged the way the collector
/// merges it (in place from the bytes, keys sorted in a shared scratch).
/// Once the buffer, the view's key union and the scratch have seen one
/// sweep, the next one allocates nothing.
#[test]
fn telemetry_sweep_allocates_nothing_once_warm() {
    let cfg = SketchCfg::default();
    let mut sketch = SwitchSketch::new(cfg);
    let mut view = MergedView::new(&cfg);
    let mut scratch = Vec::new();
    let mut report = Vec::new();
    let mut sweep = |epoch: u32, rounds: u64| {
        for _ in 0..rounds {
            for f in 1..=3_000u64 {
                sketch.update(mix64(f), 64 + f % 1_400);
            }
        }
        sketch.encode_sweep(0, epoch, &mut report);
        let rep = ReportView::parse(&report).expect("a sweep parses");
        assert!(view.absorb(&rep, &mut scratch));
    };
    sweep(0, 1);
    let a0 = allocs();
    sweep(1, 1);
    assert_eq!(allocs() - a0, 0, "a warm sweep allocated");
    // 12,000 updates overflow the epoch's log: the fold into the dense
    // sketches and their copy-out at the sweep allocate nothing either
    sweep(2, 4);
    assert_eq!(allocs() - a0, 0, "a warm sweep past the log allocated");
    assert!(view.keys.len() > 2_000, "the key union saw the flows");
}

/// Sends one pooled copy of each flow's frame in turn, one every `gap`.
struct FramePump {
    to: NodeId,
    flows: Vec<Vec<u8>>,
    sent: usize,
    gap: Duration,
}

impl Node for FramePump {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, _: Msg) {
        let mut buf = ctx.pool.take();
        buf.extend_from_slice(&self.flows[self.sent % self.flows.len()]);
        self.sent += 1;
        ctx.send(self.to, Duration::ZERO, Frame::raw(buf));
        ctx.wake(self.gap, Tick);
    }
}

/// Returns every frame's buffer to the pool.
struct FrameSink;

impl Node for FrameSink {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        match msg {
            Msg::Frame(frame) => ctx.pool.put(frame.into_bytes()),
            m => flextoe_sim::mismatch("Frame", &m),
        }
    }
}

/// A leaf with uplinks to two spines, the first uplink down: every flow
/// the hash puts on it is re-finalized onto the survivor. Once warm, the
/// pair forwards those frames without allocating.
#[test]
fn rerouting_leaf_allocates_nothing_once_warm() {
    let mut sim = Sim::new(5);
    let host = Ip4::host(2);
    let sink = sim.add_node(FrameSink);
    let spines = [(); 2].map(|()| {
        let mut spine = Switch::new();
        let port = spine.add_port(sink, PortConfig::default());
        spine.learn(MacAddr::local(2), port);
        sim.add_node(spine)
    });
    let mut leaf = Switch::new();
    let uplinks = spines.map(|s| leaf.add_port(s, PortConfig::default()));
    leaf.route(host, uplinks.to_vec());
    leaf.set_ecmp_salt(sim.rng.next_u64());
    let leaf = sim.add_node(leaf);
    sim.schedule(
        Time::ZERO,
        leaf,
        SetPortUp {
            port: uplinks[0],
            up: false,
        },
    );
    let flows = (0..64)
        .map(|i| {
            SegmentSpec {
                src_mac: MacAddr::local(1),
                // not in the leaf's MAC table: the L3 route
                dst_mac: MacAddr::local(2),
                src_ip: Ip4::host(1),
                dst_ip: host,
                src_port: 10_000 + i,
                dst_port: 7777,
                payload_len: 64,
                ..Default::default()
            }
            .emit_zeroed()
        })
        .collect();
    let gap = Duration::from_ns(100);
    let pump = sim.add_node(FramePump {
        to: leaf,
        flows,
        sent: 0,
        gap,
    });
    sim.schedule(Time::from_ns(1), pump, Tick);
    sim.run_until(Time::from_us(100));
    let rerouted = |sim: &Sim| sim.node_ref::<Switch>(leaf).rerouted;
    let (a0, r0) = (allocs(), rerouted(&sim));
    sim.run_until(Time::from_us(300));
    let moved = rerouted(&sim) - r0;
    assert!(
        moved > 500,
        "too few rerouted frames to mean anything: {moved}"
    );
    assert_eq!(allocs() - a0, 0, "{moved} rerouted frames allocated");
}
