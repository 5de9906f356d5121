//! The telemetry plane end to end: fast-path sketches feeding the
//! collector over real report frames, exactness of the merged views
//! against per-switch ground truth, the count-min no-underestimate
//! guarantee surviving the sweep/merge pipeline, sketch loss under a
//! switch kill (while truth survives — the differential measurement),
//! default-off wiring, malformed reports counted instead of merged, and
//! byte-identity of the `telemetry` sweep across `--jobs` values.

use flextoe_bench::driver::{execute, Experiment};
use flextoe_bench::telemetry::TelemetryPlan;
use flextoe_netsim::{Collector, Switch, TelemetrySpec};
use flextoe_sim::{Ctx, Msg, Node, NodeId, Sim, Time};
use flextoe_telemetry::SwitchSketch;
use flextoe_topo::{build_fabric, BuiltFabric, Fabric, FaultEvent, FaultTarget, Scenario, Stack};
use flextoe_wire::{Frame, Ip4, MacAddr, SegmentSpec};

/// A small idle fabric with the telemetry plane wired: 2 leaves, 1
/// spine, 1 host per leaf (hosts stay idle; tests inject frames
/// directly into the switches).
fn telemetry_fabric(seed: u64, spec: TelemetrySpec) -> (Sim, BuiltFabric) {
    let mut sc = Scenario::idle(
        seed,
        Fabric::LeafSpine {
            leaves: 2,
            spines: 1,
            hosts_per_leaf: 1,
        },
        Stack::FlexToe,
    );
    sc.telemetry = Some(spec);
    let mut sim = Sim::new(seed);
    let fab = build_fabric(&mut sim, &sc);
    (sim, fab)
}

/// Pre-built frame for synthetic flow `f`: unique 5-tuple, dst IP
/// unrouted on every switch so the fast path observes it, then
/// flood-drops the buffer.
fn flow_frame(f: u32) -> Vec<u8> {
    SegmentSpec {
        src_mac: MacAddr::local(200),
        dst_mac: MacAddr::local(201),
        src_ip: Ip4::host(220),
        dst_ip: Ip4::host(240),
        src_port: 1_024 + f as u16,
        dst_port: 7_000,
        payload_len: 64 + (f as usize % 4) * 64,
        ..Default::default()
    }
    .emit_zeroed()
}

/// Sweep reports merge into views that match per-switch exact truth:
/// byte totals are equal, every truth key was captured, and neither
/// sketch ever under-estimates a flow (count-min's guarantee must
/// survive encode → report frame → decode → epoch merge).
#[test]
fn collector_merges_exact_fabric_truth() {
    let (mut sim, fab) = telemetry_fabric(11, TelemetrySpec::default());
    // 30 flows, skewed 1 + 60/(f+1) frames, interleaved across the 3
    // switches at a 500ns spacing — all inside the first 1ms epoch
    let mut at = Time::ZERO;
    for f in 0..30u32 {
        let bytes = flow_frame(f);
        for _ in 0..(1 + 60 / (f + 1)) {
            let sw = fab.switches[f as usize % fab.switches.len()];
            sim.schedule(at, sw, Frame::raw(bytes.clone()));
            at += flextoe_sim::Duration::from_ns(500);
        }
    }
    sim.run();

    let col = sim.node_ref::<Collector>(fab.collector.expect("collector wired"));
    let named = |name| sim.stats.get_named(name);
    assert_eq!(named("telemetry.bad_reports"), 0);
    assert_eq!(
        named("telemetry.reports"),
        named("telemetry.sweeps") * fab.switches.len() as u64,
        "every sweep of every live switch must report"
    );
    for (i, &s) in fab.switches.iter().enumerate() {
        let sw = sim.node_ref::<Switch>(s);
        let truth = sw.telemetry_truth().expect("ground truth enabled");
        let truth_bytes: u64 = truth.values().sum();
        let v = &col.views()[i];
        assert_eq!(v.bytes, truth_bytes, "switch {i}: swept bytes != truth");
        for (&k, &exact) in truth {
            assert!(v.keys.contains(&k), "switch {i}: key table lost a flow");
            assert!(
                v.cm.estimate(k) >= exact,
                "switch {i}: count-min under-estimated"
            );
            assert!(
                v.lsb.estimate(k) >= exact,
                "switch {i}: lsb sketch under-estimated"
            );
        }
    }
    // default theta (0.1%) makes every one of these fat flows a heavy
    // hitter candidate on its switch
    assert!(!col.elephants(0).is_empty());
}

/// Killing a switch mid-epoch resets its sketch: the un-swept bytes are
/// gone from the merged view while the exact truth map survives — the
/// loss is visible as a view-vs-truth deficit. The other switches stay
/// exact, and the collector counts the missed sweeps.
#[test]
fn dead_switch_loses_epoch_but_truth_survives() {
    let spec = TelemetrySpec::default(); // 1ms epochs, 8 sweeps
    let mut sc = Scenario::idle(
        11,
        Fabric::LeafSpine {
            leaves: 2,
            spines: 1,
            hosts_per_leaf: 1,
        },
        Stack::FlexToe,
    );
    sc.telemetry = Some(spec);
    // spine (switch index 2) dies at 1.5ms — mid-epoch, after the 1ms
    // sweep — and heals at 2.6ms, missing the 2ms sweep entirely
    let spine = FaultTarget::Switch { index: 2 };
    sc.fault_schedule = vec![
        FaultEvent::down(Time::from_us(1_500), spine),
        FaultEvent::up(Time::from_us(2_600), spine),
    ];
    let mut sim = Sim::new(sc.seed);
    let fab = build_fabric(&mut sim, &sc);
    // 20 flows × 100 frames each into the spine, spread over [0, 1.4ms]:
    // the [1.0, 1.4ms] tail sits un-swept in the sketch when it dies
    let mut at = Time::ZERO;
    for r in 0..100u32 {
        for f in 0..20u32 {
            sim.schedule(at, fab.switches[2], Frame::raw(flow_frame(f)));
            let _ = r;
            at += flextoe_sim::Duration::from_ns(700);
        }
    }
    assert!(at < Time::from_us(1_500), "all frames land before the kill");
    sim.run();

    let col = sim.node_ref::<Collector>(fab.collector.expect("collector wired"));
    let sw = sim.node_ref::<Switch>(fab.switches[2]);
    let truth_bytes: u64 = sw.telemetry_truth().unwrap().values().sum();
    let v = &col.views()[2];
    assert!(
        v.bytes < truth_bytes,
        "kill must lose the un-swept epoch: view {} vs truth {truth_bytes}",
        v.bytes
    );
    assert!(v.bytes > 0, "the pre-kill sweep was merged");
    let named = |name| sim.stats.get_named(name);
    assert!(
        named("telemetry.reports") < named("telemetry.sweeps") * fab.switches.len() as u64,
        "dead switch must miss sweeps"
    );
    assert_eq!(named("telemetry.bad_reports"), 0);
}

/// Stands in for a switch the collector never has to message.
struct Idle;
impl Node for Idle {
    fn on_msg(&mut self, _ctx: &mut Ctx<'_>, _msg: Msg) {}
}

/// A lone collector (one idle switch, no sweeps) that was fed `report`
/// as a frame.
fn collect_one(spec: TelemetrySpec, report: Vec<u8>) -> (Sim, NodeId) {
    let mut sim = Sim::new(1);
    let switch = sim.add_node(Idle);
    let col = sim.add_node(Collector::new(spec, vec![switch]));
    sim.schedule(Time::ZERO, col, Frame::raw(report));
    sim.run();
    (sim, col)
}

/// The collector's merged and rejected report counts.
fn reports_and_bad(sim: &Sim) -> (u64, u64) {
    let named = |name| sim.stats.get_named(name);
    (named("telemetry.reports"), named("telemetry.bad_reports"))
}

/// A report header that sizes its sections past the buffer — a shape
/// whose cell count overflows, a key count of 2^40 or of u64::MAX — is
/// one bad report: no panic, no allocation sized from the header, and
/// the view stays empty.
#[test]
fn oversized_report_headers_count_as_bad_reports() {
    let spec = TelemetrySpec::default();
    let mut sketch = SwitchSketch::new(spec.sketch);
    sketch.update(0xfeed_f00d, 100);
    let mut report = Vec::new();
    sketch.encode_sweep(0, 0, &mut report);
    let (sim, col) = collect_one(spec, report.clone());
    let good = sim.node_ref::<Collector>(col);
    assert_eq!(reports_and_bad(&sim), (1, 0));
    assert_eq!(good.views()[0].keys, [0xfeed_f00d]);

    let nkeys_word = 7 + 2 * spec.sketch.depth * spec.sketch.width;
    for (word, value) in [(nkeys_word, u64::MAX), (5, 1 << 62), (nkeys_word, 1 << 40)] {
        let mut bad = report.clone();
        bad[8 * word..8 * word + 8].copy_from_slice(&value.to_le_bytes());
        let (sim, col) = collect_one(spec, bad);
        let col = sim.node_ref::<Collector>(col);
        let what = format!("header word {word} = {value:#x}");
        assert_eq!(reports_and_bad(&sim), (0, 1), "{what}");
        let v = &col.views()[0];
        assert_eq!((v.epochs, v.frames, v.bytes), (0, 0, 0), "{what}");
        assert!(v.keys.is_empty(), "{what}");
        assert!(v.cm.cells().iter().all(|&c| c == 0), "{what}");
        assert!(v.lsb.cells().iter().all(|&c| c == 0), "{what}");
    }
}

/// Telemetry is strictly opt-in: a scenario without the knob builds no
/// collector and arms no switch, so the fast path carries zero sketch
/// state — the default fabrics of the other benchmarks are untouched.
#[test]
fn telemetry_is_default_off() {
    let sc = Scenario::idle(
        11,
        Fabric::LeafSpine {
            leaves: 2,
            spines: 1,
            hosts_per_leaf: 1,
        },
        Stack::FlexToe,
    );
    assert!(
        sc.telemetry.is_none(),
        "idle scenario must not wire telemetry"
    );
    let mut sim = Sim::new(sc.seed);
    let fab = build_fabric(&mut sim, &sc);
    assert!(fab.collector.is_none());
    for &s in &fab.switches {
        let sw = sim.node_ref::<Switch>(s);
        assert!(sw.telemetry_truth().is_none());
        assert!(sw.telemetry_elephants().is_empty());
    }
}

/// The telemetry sweep's acceptance contract: smoke accuracy rows are
/// complete (every observed byte swept) with zero count-min
/// under-estimates, report frames obey buffer conservation, and
/// `BENCH_telemetry.json` is byte-identical across `--jobs` values.
#[test]
fn telemetry_sweep_is_complete_and_byte_identical() {
    let a = execute::<TelemetryPlan>(29, true, Some(1), 1);
    // accuracy rows complete with zero count-min under-estimates, every
    // row that audits conservation conserved
    assert_eq!(TelemetryPlan::check(&a.rows), Ok(()));
    let ja = a.body;
    let jb = execute::<TelemetryPlan>(29, true, Some(2), 1).body;
    assert_eq!(ja, jb, "jobs=2 diverged from the serial run");
    assert!(ja.contains("\"benchmark\": \"telemetry\""));
    assert!(ja.contains("\"kind\": \"faults\""));
    assert!(ja.contains("\"kind\": \"hh_ecmp\""));
}
