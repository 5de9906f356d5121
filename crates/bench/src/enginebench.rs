//! The engine event-core benchmark: a synthetic FlexTOE-shaped pipeline
//! ring (SEQR → PRE → PROTO → POST → DMA → NBI → back) with realistic hop
//! latencies, plus a slow control timer that exercises the wheel's
//! overflow path.
//!
//! Run by `benches/micro.rs` (`cargo bench -p flextoe-bench -- engine`).

use std::time::Instant;

use flextoe_sim::{Ctx, Duration, Msg, Node, NodeId, QueueKind, Sim, Time, WorkToken};

struct Stage {
    next: NodeId,
    hop: Duration,
    seen: u64,
}

impl Node for Stage {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        self.seen += 1;
        match msg {
            Msg::Work(tok) => ctx.send(self.next, self.hop, tok),
            m => panic!("stage: unexpected {}", m.variant_name()),
        }
    }
}

/// Slow control-plane timer: far-future events through the overflow heap.
struct SlowTimer;
impl Node for SlowTimer {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, _msg: Msg) {
        ctx.wake(Duration::from_ms(1), flextoe_sim::Tick);
    }
}

pub const PIPE_EVENTS: u64 = 2_000_000;

/// Build and run the synthetic pipeline; returns events/sec of wall time.
pub fn pipeline_events_per_sec(kind: QueueKind) -> f64 {
    let mut sim = Sim::with_queue(7, kind);
    // FlexTOE-ish stage hops: intra-island CLS hops, a PCIe DMA hop and
    // the wire serialization of an MTU frame at 40 Gbps
    let hops_ns: [u64; 6] = [20, 30, 25, 40, 900, 300];
    let stages: Vec<NodeId> = (0..hops_ns.len()).map(|_| sim.reserve_node()).collect();
    for (i, &h) in hops_ns.iter().enumerate() {
        sim.fill_node(
            stages[i],
            Stage {
                next: stages[(i + 1) % stages.len()],
                hop: Duration::from_ns(h),
                seen: 0,
            },
        );
    }
    let timer = sim.add_node(SlowTimer);
    sim.schedule(Time::ZERO, timer, flextoe_sim::Tick);
    // 64 packets in flight, entering staggered like line-rate arrivals
    for p in 0..64u64 {
        sim.schedule(
            Time::from_ns(p * 300),
            stages[0],
            WorkToken {
                slot: p as u32,
                entry_seq: Some(p),
            },
        );
    }
    let t0 = Instant::now();
    while sim.events_processed() < PIPE_EVENTS && sim.step() {}
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(sim.events_processed(), PIPE_EVENTS);
    PIPE_EVENTS as f64 / secs
}

/// Best-of-n measurement (benchmarks want the least-disturbed run).
pub fn best_of(n: u32, measure: impl Fn() -> f64) -> f64 {
    (0..n).map(|_| measure()).fold(0.0f64, f64::max)
}

// ---- engine-dispatch micro -----------------------------------------------
//
// Raw delivery overhead, stripped of all protocol work: nodes that do
// nothing but forward a token. `nodes = 1` is a zero-delay self-send chain
// — every send lands in the wheel bucket currently being drained, so the
// whole run is inserts into the staged run and never stages or rotates.
// `nodes = 8` hands the token round-robin with a small hop, so every
// delivery links into a later bucket and stages it.

/// Events per dispatch-micro measurement.
pub const DISPATCH_EVENTS: u64 = 2_000_000;

struct Forwarder {
    next: NodeId,
    hop: Duration,
}

impl Node for Forwarder {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let Msg::Token(v) = msg else {
            panic!("forwarder: unexpected {}", msg.variant_name())
        };
        ctx.send(self.next, self.hop, v);
    }
}

/// Events/sec of wall time for the dispatch micro.
pub fn dispatch_events_per_sec(nodes: usize) -> f64 {
    assert!(nodes >= 1);
    let mut sim = Sim::with_queue(7, QueueKind::Wheel);
    let ids: Vec<NodeId> = (0..nodes).map(|_| sim.reserve_node()).collect();
    let hop = if nodes == 1 {
        Duration::ZERO
    } else {
        Duration::from_ns(25)
    };
    for (i, &id) in ids.iter().enumerate() {
        sim.fill_node(
            id,
            Forwarder {
                next: ids[(i + 1) % nodes],
                hop,
            },
        );
    }
    sim.schedule(Time::ZERO, ids[0], 1u64);
    let t0 = Instant::now();
    while sim.events_processed() < DISPATCH_EVENTS && sim.step() {}
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(sim.events_processed(), DISPATCH_EVENTS);
    DISPATCH_EVENTS as f64 / secs
}

// ---- switch-forwarding micro ---------------------------------------------
//
// Frames/s through one ECMP leaf hop: a pump cycles through a set of
// pre-built flows, the switch routes each frame to one of two uplink
// sinks, and the sinks recycle the buffers into the sim pool — the
// regression guard for the fabric forwarding path, one header parse per
// frame. `sketched` additionally arms the telemetry sketch on it (no
// ground-truth map, no sweeps — the marginal cost of the sketch update
// alone), the guard for the <5% telemetry-overhead budget.

use flextoe_netsim::{PortConfig, Switch, TelemetrySpec};
use flextoe_sim::Tick;
use flextoe_wire::{Ecn, Frame, Ip4, MacAddr, SegmentSpec};

/// Frames pushed through the switch per measurement.
pub const SWITCH_FRAMES: u64 = 1_000_000;
/// Distinct flows the pump cycles through (spreads over both uplinks).
const SWITCH_FLOWS: usize = 64;

struct SwitchSink;
impl Node for SwitchSink {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let Msg::Frame(frame) = msg else {
            panic!("sink expects frames")
        };
        ctx.pool.put(frame.into_bytes());
    }
}

struct SwitchPump {
    sw: NodeId,
    flows: Vec<Vec<u8>>,
    next_flow: usize,
    remaining: u64,
    gap: Duration,
}

impl Node for SwitchPump {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, _msg: Msg) {
        if self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        let bytes = &self.flows[self.next_flow];
        self.next_flow = (self.next_flow + 1) % self.flows.len();
        let mut buf = ctx.pool.take();
        buf.extend_from_slice(bytes);
        ctx.send(self.sw, Duration::ZERO, Frame::raw(buf));
        if self.remaining > 0 {
            ctx.wake(self.gap, Tick);
        }
    }
}

/// Frames/s of wall time through one leaf-spine hop.
pub fn switch_forwarding_fps(sketched: bool) -> f64 {
    let mut sim = Sim::with_queue(7, QueueKind::Wheel);
    let up0 = sim.add_node(SwitchSink);
    let up1 = sim.add_node(SwitchSink);
    let mut sw = Switch::new();
    let p0 = sw.add_port(up0, PortConfig::default());
    let p1 = sw.add_port(up1, PortConfig::default());
    sw.route(Ip4::host(2), vec![p0, p1]);
    sw.set_ecmp_salt(sim.rng.next_u64());
    if sketched {
        // sketch-only telemetry: no exact per-flow map, and no sweep is
        // ever scheduled, so the nominal collector (a sink) stays idle —
        // the run isolates the per-frame sketch update
        let spec = TelemetrySpec {
            ground_truth: false,
            ..Default::default()
        };
        sw.enable_telemetry(0, up0, &spec);
    }
    let sw = sim.add_node(sw);

    let flows: Vec<Vec<u8>> = (0..SWITCH_FLOWS)
        .map(|i| {
            SegmentSpec {
                src_mac: MacAddr::local(1),
                dst_mac: MacAddr::local(2), // not in the MAC table: L3 route
                src_ip: Ip4::host(1),
                dst_ip: Ip4::host(2),
                src_port: 10_000 + i as u16,
                dst_port: 7777,
                ecn: Ecn::Ect0,
                payload_len: 64,
                ..Default::default()
            }
            .emit_zeroed()
        })
        .collect();
    // 130-byte frames serialize in ~10ns at 100G; a 20ns gap keeps the
    // queue shallow so the run measures forwarding, not queueing
    let pump = sim.add_node(SwitchPump {
        sw,
        flows,
        next_flow: 0,
        remaining: SWITCH_FRAMES,
        gap: Duration::from_ns(20),
    });
    sim.schedule(Time::ZERO, pump, Tick);
    let t0 = Instant::now();
    sim.run();
    let secs = t0.elapsed().as_secs_f64();
    let routed = sim.node_ref::<Switch>(sw).routed;
    assert_eq!(routed, SWITCH_FRAMES, "every frame must route");
    routed as f64 / secs
}

// ---- telemetry-sweep micro -----------------------------------------------
//
// One switch's epoch at the default 4x4096 shape, timed whole: feed the
// epoch's flows into the sketch (the per-frame hook), encode the sketch
// into a report buffer (the sweep renders the epoch's cells there), then
// merge the report into a collector view straight from its bytes. The
// per-frame cost lives in the feed or in the encode depending on how the
// sketch defers its updates, so only the per-epoch sum compares across
// designs; the three parts are detail. The same flows are fed before
// every report, so each one carries the same load and the view's key
// union stops growing after the first.

use flextoe_telemetry::{mix64, MergedView, ReportView, SketchCfg, SwitchSketch};

/// Flows in every swept epoch.
pub const SWEEP_FLOWS: u64 = 3_000;
/// Reports per measurement.
const SWEEP_REPORTS: u32 = 100;

/// Mean µs per epoch, as (feed, encode, merge).
pub fn sweep_us_per_epoch() -> (f64, f64, f64) {
    let cfg = SketchCfg::default();
    let mut sketch = SwitchSketch::new(cfg);
    let mut view = MergedView::new(&cfg);
    let (mut report, mut scratch) = (Vec::new(), Vec::new());
    let (mut feed, mut encode, mut merge) = (0.0, 0.0, 0.0);
    for epoch in 0..SWEEP_REPORTS {
        let t0 = Instant::now();
        for f in 1..=SWEEP_FLOWS {
            sketch.update(mix64(f), 64 + f % 1_400);
        }
        let t1 = Instant::now();
        sketch.encode_sweep(0, epoch, &mut report);
        let t2 = Instant::now();
        let rep = ReportView::parse(&report).expect("a sweep parses");
        assert!(view.absorb(&rep, &mut scratch), "report shape matches");
        merge += t2.elapsed().as_secs_f64();
        encode += (t2 - t1).as_secs_f64();
        feed += (t1 - t0).as_secs_f64();
    }
    let per_epoch = 1e6 / SWEEP_REPORTS as f64;
    (feed * per_epoch, encode * per_epoch, merge * per_epoch)
}
