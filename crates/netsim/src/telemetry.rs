//! The telemetry plane: a collector node that drives epoch sweeps,
//! merges per-switch sketch reports, tracks heavy hitters, and (opt-in)
//! feeds confirmed elephants back to the switches for load-aware ECMP.
//!
//! Data flow per epoch:
//!
//! ```text
//!   collector --Tick--> SweepNow to every switch (index order)
//!   switch: encode_sweep() -> pooled report frame -> collector
//!   collector: ReportView::parse, MergedView::absorb, update counters
//!             `-- hh_ecmp on: SetElephants(sorted basis list) back
//! ```
//!
//! Report frames are plain pooled byte buffers (`Frame::raw`), sent
//! point-to-point switch→collector — the telemetry channel is
//! out-of-band, like the CCP report plane. The collector returns every
//! buffer to the sim pool, so the fault suite's buffer-conservation
//! invariant holds with telemetry enabled.

use flextoe_sim::{CounterHandle, Ctx, Duration, Msg, Node, NodeId, Stats};
use flextoe_telemetry::{heavy_hitters, MergedView, ReportView, SketchCfg};
use flextoe_wire::Frame;

/// Scenario knob: presence turns the telemetry plane on (the default
/// `Scenario` has none — fabrics without it are wired byte-identically
/// to before the plane existed).
#[derive(Clone, Copy, Debug)]
pub struct TelemetrySpec {
    /// Sweep period.
    pub epoch: Duration,
    /// Number of sweeps the builder schedules (sweeps are pre-scheduled
    /// so an idle fabric still terminates).
    pub sweeps: u32,
    pub sketch: SketchCfg,
    /// Heavy-hitter threshold as a fraction of observed bytes.
    pub hh_theta: f64,
    /// Load-aware ECMP: push collector-confirmed elephants back to the
    /// switches, which steer them by rank instead of hash. Default off —
    /// and when off, forwarding is bit-for-bit the historical hash.
    pub hh_ecmp: bool,
    /// Record exact per-flow byte counts beside the sketch on every
    /// switch (the ground-truth differential; costs a hash map insert
    /// per frame, so benchmarks measuring sketch cost turn it off).
    pub ground_truth: bool,
}

impl Default for TelemetrySpec {
    fn default() -> TelemetrySpec {
        TelemetrySpec {
            epoch: Duration::from_ms(1),
            sweeps: 8,
            sketch: SketchCfg::default(),
            hh_theta: 0.001,
            hh_ecmp: false,
            ground_truth: true,
        }
    }
}

/// Collector→switch: snapshot-and-report your sketch epoch now.
pub struct SweepNow;
flextoe_sim::custom_msg!(SweepNow);

/// Collector→switch: the current confirmed-elephant set (sorted
/// `flow_basis` values) for rank-steered ECMP.
pub struct SetElephants(pub Vec<u64>);
flextoe_sim::custom_msg!(SetElephants);

#[derive(Clone, Copy)]
struct CollectorCounters {
    reports: CounterHandle,
    report_bytes: CounterHandle,
    sweeps: CounterHandle,
    bad_reports: CounterHandle,
}

/// The telemetry collector node: one per fabric, wired by
/// `topo::build_fabric` when the scenario carries a [`TelemetrySpec`].
pub struct Collector {
    spec: TelemetrySpec,
    /// Switch nodes in `BuiltFabric::switches` order; report index i is
    /// switch i.
    switch_nodes: Vec<NodeId>,
    views: Vec<MergedView>,
    /// Sort buffer for one report's keys, shared by every view.
    key_scratch: Vec<u64>,
    counters: Option<CollectorCounters>,
}

impl Collector {
    pub fn new(spec: TelemetrySpec, switch_nodes: Vec<NodeId>) -> Collector {
        let views = switch_nodes
            .iter()
            .map(|_| MergedView::new(&spec.sketch))
            .collect();
        Collector {
            spec,
            switch_nodes,
            views,
            key_scratch: Vec::new(),
            counters: None,
        }
    }

    /// Merged per-switch views, switch order.
    pub fn views(&self) -> &[MergedView] {
        &self.views
    }

    /// Collector-confirmed elephants of one switch's merged view:
    /// candidate keys whose count-min estimate clears `hh_theta` of the
    /// switch's observed bytes. Sorted ascending (deterministic).
    pub fn elephants(&self, switch: usize) -> Vec<u64> {
        let v = &self.views[switch];
        let flows: Vec<(u64, u64)> = v.keys.iter().map(|&k| (k, v.cm.estimate(k))).collect();
        heavy_hitters(&flows, v.bytes, self.spec.hh_theta)
    }

    fn on_report(&mut self, ctx: &mut Ctx<'_>, frame: Frame) {
        let counters = self.counters.expect("collector attached to a sim");
        match ReportView::parse(frame.bytes()) {
            Some(rep) if (rep.switch as usize) < self.views.len() => {
                let idx = rep.switch as usize;
                ctx.stats.inc(counters.reports);
                ctx.stats.add(counters.report_bytes, frame.len() as u64);
                if !self.views[idx].absorb(&rep, &mut self.key_scratch) {
                    ctx.stats.inc(counters.bad_reports);
                } else if self.spec.hh_ecmp {
                    let hh = self.elephants(idx);
                    ctx.send(self.switch_nodes[idx], Duration::ZERO, SetElephants(hh));
                }
            }
            _ => {
                ctx.stats.inc(counters.bad_reports);
            }
        }
        ctx.pool.put(frame.into_bytes());
    }
}

impl Node for Collector {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        match msg {
            Msg::Tick => {
                let counters = self.counters.expect("collector attached to a sim");
                ctx.stats.inc(counters.sweeps);
                for i in 0..self.switch_nodes.len() {
                    ctx.send(self.switch_nodes[i], Duration::ZERO, SweepNow);
                }
            }
            Msg::Frame(frame) => self.on_report(ctx, frame),
            m => panic!("collector: unexpected message {}", m.variant_name()),
        }
    }

    fn on_attach(&mut self, stats: &mut Stats) {
        self.counters = Some(CollectorCounters {
            reports: stats.counter("telemetry.reports"),
            report_bytes: stats.counter("telemetry.report_bytes"),
            sweeps: stats.counter("telemetry.sweeps"),
            bad_reports: stats.counter("telemetry.bad_reports"),
        });
    }

    fn name(&self) -> String {
        "telemetry-collector".to_string()
    }
}
