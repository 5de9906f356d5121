//! The telemetry experiment: ground-truth differential accuracy of the
//! per-switch fast-path sketches, and the heavy-hitter ECMP ablation.
//! This is the one evaluation a hardware testbed cannot run — the sim
//! records exact per-flow byte counts next to every switch's sketch, so
//! sketch error is measured against truth instead of estimated.
//!
//! Three row kinds share `BENCH_telemetry.json`:
//!
//! * **accuracy** — a pump injects pre-built frames for 1k→100k
//!   synthetic flows straight into the switches (dst IP deliberately
//!   unrouted: the fast path observes each frame, then flood-drops the
//!   buffer back into the pool). Flow sizes follow a harmonic skew
//!   (`1 + C/(rank+1)`) or an adversarial uniform spread — the count-min
//!   worst case, where no flow clears the heavy-hitter threshold and
//!   collision noise dominates the small-flow relative error. Rows score
//!   the collector's merged per-switch views against per-switch truth:
//!   ARE for the plain count-min and the LSB-sharing variant,
//!   heavy-hitter recall/precision, and an exactness check that every
//!   observed byte landed in a swept epoch.
//! * **faults** — the chaos plane's spine-kill and link-flap schedules
//!   re-run with telemetry enabled (the reconnecting-session workload of
//!   `BENCH_faults.json`). A killed switch loses its un-swept epoch while
//!   ground truth survives, so sketch-vs-truth error *is* the blast
//!   radius; the rows also audit that report frames obey the
//!   buffer-conservation invariant under fire.
//! * **hh_ecmp** — elephants (bulk sessions) and mice (small RPC
//!   sessions) share the fabric with collector-fed heavy-hitter ECMP off
//!   vs on; rows report goodput, Jain fairness over the client hosts, and
//!   how many frames were rank-steered.
//!
//! `BENCH_telemetry.json` is byte-identical per seed across runs,
//! `--jobs` values, and the wheel vs. reference-heap queue.

use flextoe_apps::{Arrival, ClientSpec, CloseAll, SizeDist, Wire};
use flextoe_netsim::{Collector, Switch, TelemetrySpec};
use flextoe_sim::{Ctx, Duration, Msg, Node, NodeId, Sim, Tick, Time};
use flextoe_telemetry::score_sketch;
use flextoe_topo::{build_fabric, BuiltFabric, DynClient, FaultTarget, Role, Scenario, Stack};
use flextoe_wire::{Frame, Ip4, MacAddr, SegmentSpec};

use crate::driver::{has_rows, holds, Experiment, PointRun};
use crate::faults::{
    buf_balance, chaos_scenario, flap_schedule, kill_schedule, ChaosRow, FaultsPlan,
};
use crate::harness::{cross_tier_scenario, jain_index};
use crate::json::{fixed, Json};
use crate::scale::{leaf_spine_name, LEAF_SPINE, LEAVES, SPINES};

const N_SWITCHES: usize = LEAVES + SPINES;

/// One experiment row, led by its name.
#[derive(Clone, Copy)]
pub enum TRow {
    /// Synthetic pump `(name, flows, skew_c, uniform_frames)`: `flows`
    /// distinct flows, sized `1 + skew_c/(rank+1)` frames each, or
    /// `uniform_frames` each when `skew_c == 0`.
    Accuracy(&'static str, u32, u32, u32),
    /// A chaos schedule re-run with telemetry enabled.
    Fault(&'static str),
    /// Elephants + mice with heavy-hitter ECMP off/on.
    Hh(&'static str, bool),
}

/// Row sweep + the chaos plan its fault rows reuse.
pub struct TelemetryPlan {
    rows: Vec<TRow>,
    faults: FaultsPlan,
    hh_t_end: Time,
    hh_t_drain: Time,
}

/// The fault and heavy-hitter rows every plan carries after its accuracy
/// rows.
const COMMON_ROWS: [TRow; 4] = [
    TRow::Fault("faults-spine-kill"),
    TRow::Fault("faults-link-flap"),
    TRow::Hh("hh-ecmp-off", false),
    TRow::Hh("hh-ecmp-on", true),
];

fn xorshift64(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

// ---- accuracy rows --------------------------------------------------------

/// One pre-built flow: its target switch and a ready-to-clone frame.
struct PumpFlow {
    to: NodeId,
    bytes: Vec<u8>,
}

/// Paced frame injector: walks a pre-shuffled flow schedule, one pooled
/// frame per wake, straight into the switches.
struct AccuracyPump {
    flows: Vec<PumpFlow>,
    schedule: Vec<u32>,
    pos: usize,
    gap: Duration,
}

impl Node for AccuracyPump {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, _msg: Msg) {
        let Some(&f) = self.schedule.get(self.pos) else {
            return;
        };
        self.pos += 1;
        let fl = &self.flows[f as usize];
        let mut buf = ctx.pool.take();
        buf.extend_from_slice(&fl.bytes);
        ctx.send(fl.to, Duration::ZERO, Frame::raw(buf));
        if self.pos < self.schedule.len() {
            ctx.wake(self.gap, Tick);
        }
    }

    fn name(&self) -> String {
        "telemetry-pump".to_string()
    }
}

/// Per-fabric accuracy aggregate: per-switch `score_sketch` results
/// combined flow-weighted (ARE) and set-size-weighted (recall/precision).
#[derive(Default)]
struct AggScore {
    flows: u64,
    truth_bytes: u64,
    cm_are: f64,
    lsb_are: f64,
    cm_under: u64,
    lsb_under: u64,
    hh_truth: u64,
    hh_est: u64,
    hh_recall: f64,
    hh_precision: f64,
    candidates: u64,
    /// Every switch's merged-view byte total equals its exact truth —
    /// i.e. no observed traffic was lost to an un-swept or killed epoch.
    complete: bool,
}

fn score_fabric(sim: &Sim, fab: &BuiltFabric, theta: f64) -> AggScore {
    let col = sim.node_ref::<Collector>(fab.collector.expect("telemetry plane wired"));
    let mut agg = AggScore {
        hh_recall: 1.0,
        hh_precision: 1.0,
        complete: true,
        ..Default::default()
    };
    let (mut cm_are_w, mut lsb_are_w) = (0.0f64, 0.0f64);
    let (mut recall_w, mut precision_w) = (0.0f64, 0.0f64);
    for (i, &s) in fab.switches.iter().enumerate() {
        let sw = sim.node_ref::<Switch>(s);
        let Some(truth_map) = sw.telemetry_truth() else {
            continue;
        };
        let mut truth: Vec<(u64, u64)> = truth_map.iter().map(|(&k, &v)| (k, v)).collect();
        truth.sort_unstable();
        let truth_bytes: u64 = truth.iter().map(|&(_, v)| v).sum();
        let v = &col.views()[i];
        let cands = &v.keys;
        let s_cm = score_sketch(&truth, |k| v.cm.estimate(k), cands, v.bytes, theta);
        let s_lsb = score_sketch(&truth, |k| v.lsb.estimate(k), cands, v.bytes, theta);
        let n = truth.len() as f64;
        agg.flows += truth.len() as u64;
        agg.truth_bytes += truth_bytes;
        cm_are_w += s_cm.are * n;
        lsb_are_w += s_lsb.are * n;
        agg.cm_under += s_cm.underestimates;
        agg.lsb_under += s_lsb.underestimates;
        recall_w += s_cm.hh_recall * s_cm.hh_truth as f64;
        precision_w += s_cm.hh_precision * s_cm.hh_est as f64;
        agg.hh_truth += s_cm.hh_truth as u64;
        agg.hh_est += s_cm.hh_est as u64;
        agg.candidates += cands.len() as u64;
        agg.complete &= v.bytes == truth_bytes;
    }
    if agg.flows > 0 {
        agg.cm_are = cm_are_w / agg.flows as f64;
        agg.lsb_are = lsb_are_w / agg.flows as f64;
    }
    if agg.hh_truth > 0 {
        agg.hh_recall = recall_w / agg.hh_truth as f64;
    }
    if agg.hh_est > 0 {
        agg.hh_precision = precision_w / agg.hh_est as f64;
    }
    agg
}

fn run_accuracy(
    seed: u64,
    name: &'static str,
    n_flows: u32,
    skew_c: u32,
    uniform_frames: u32,
) -> Json {
    let mut sc = Scenario::idle(seed, LEAF_SPINE, Stack::FlexToe);
    let spec = TelemetrySpec::default(); // 1ms epochs, 8 sweeps: covers the pump
    sc.telemetry = Some(spec);
    let mut sim = Sim::new(sc.seed);
    let fab = build_fabric(&mut sim, &sc);

    // flow f lands on switch f % 6 (injected directly, every tier gets
    // its own disjoint population); the 5-tuple is unique per flow and
    // the dst IP is deliberately unrouted — observe, then flood-drop
    let flows: Vec<PumpFlow> = (0..n_flows)
        .map(|f| {
            let seg = SegmentSpec {
                src_mac: MacAddr::local(200),
                dst_mac: MacAddr::local(201), // in no MAC table
                src_ip: Ip4::host(220),
                dst_ip: Ip4::host(240), // no route on any switch
                src_port: 1_024 + (f % 60_000) as u16,
                dst_port: 7_000 + (f / 60_000) as u16,
                payload_len: 64 + (f as usize % 4) * 64,
                ..Default::default()
            };
            PumpFlow {
                to: fab.switches[f as usize % N_SWITCHES],
                bytes: seg.emit_zeroed(),
            }
        })
        .collect();

    // harmonic skew (rank 0 is the biggest elephant) or adversarial
    // uniform, then a seeded Fisher–Yates shuffle so epochs interleave
    let mut schedule: Vec<u32> = Vec::new();
    for f in 0..n_flows {
        let n = if skew_c > 0 {
            1 + skew_c / (f + 1)
        } else {
            uniform_frames
        };
        for _ in 0..n {
            schedule.push(f);
        }
    }
    let mut st = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for i in (1..schedule.len()).rev() {
        let j = (xorshift64(&mut st) % (i as u64 + 1)) as usize;
        schedule.swap(i, j);
    }
    let frames = schedule.len() as u64;

    let pump = sim.add_node(AccuracyPump {
        flows,
        schedule,
        pos: 0,
        gap: Duration::from_ns(20),
    });
    sim.schedule(Time::ZERO, pump, Tick);
    sim.run();

    let agg = score_fabric(&sim, &fab, spec.hh_theta);
    let col = sim.node_ref::<Collector>(fab.collector.expect("telemetry plane wired"));
    let (reports, report_bytes) = (col.reports, col.report_bytes);
    Json::obj([
        ("name", name.into()),
        ("kind", "accuracy".into()),
        ("flows", agg.flows.into()),
        ("frames", frames.into()),
        ("truth_bytes", agg.truth_bytes.into()),
        ("complete", agg.complete.into()),
        ("cm_are", fixed(agg.cm_are, 4)),
        ("lsb_are", fixed(agg.lsb_are, 4)),
        ("cm_underestimates", agg.cm_under.into()),
        ("lsb_underestimates", agg.lsb_under.into()),
        ("hh_truth", agg.hh_truth.into()),
        ("hh_est", agg.hh_est.into()),
        ("hh_recall", fixed(agg.hh_recall, 4)),
        ("hh_precision", fixed(agg.hh_precision, 4)),
        ("candidates", agg.candidates.into()),
        ("reports", reports.into()),
        ("report_bytes", report_bytes.into()),
        ("sim_events", sim.events_processed().into()),
    ])
}

// ---- session rows (fault, heavy-hitter) -------------------------------------

/// Build `sc` on one `Sim`, run its session clients to `t_end`, `CloseAll`
/// and drain to `t_drain`. Returns the sim, the fabric, each client's
/// `bytes_in` and the requests they completed in total.
fn run_sessions(sc: &Scenario, t_end: Time, t_drain: Time) -> (Sim, BuiltFabric, Vec<u64>, u64) {
    let mut sim = Sim::new(sc.seed);
    let fab = build_fabric(&mut sim, sc);
    let sessions: Vec<NodeId> = fab.hosts.iter().filter_map(|h| h.client()).collect();
    sim.run_until(t_end);
    for &n in &sessions {
        sim.schedule(sim.now(), n, CloseAll);
    }
    sim.run_until(t_drain);
    let clients = sessions.iter().map(|&n| sim.node_ref::<DynClient>(n));
    let bytes_in = clients.clone().map(|c| c.bytes_in).collect();
    let completed = clients.map(|c| c.completed).sum();
    (sim, fab, bytes_in, completed)
}

/// Telemetry spec for the chaos rows: fast epochs, sweeps ending 1ms
/// before the drain checkpoint so every report lands inside the run.
fn fault_spec(plan: &FaultsPlan) -> TelemetrySpec {
    let epoch = Duration::from_us(500);
    TelemetrySpec {
        epoch,
        sweeps: ((plan.t_drain.as_ns() - 1_000_000) / epoch.as_ns()) as u32,
        hh_theta: 0.01,
        ..Default::default()
    }
}

fn run_fault(seed: u64, name: &'static str, plan: &FaultsPlan) -> Json {
    let schedule = match name {
        "faults-spine-kill" => {
            let spine0 = FaultTarget::Switch { index: LEAVES };
            kill_schedule(plan.t_fault, plan.t_heal, &[spine0])
        }
        "faults-link-flap" => flap_schedule(plan.t_fault, plan.t_heal, 4),
        other => panic!("unknown fault row {other}"),
    };
    let row = ChaosRow { name, schedule };
    let mut sc = chaos_scenario(seed, &row, plan);
    let spec = fault_spec(plan);
    sc.telemetry = Some(spec);
    let (sim, fab, _, completed) = run_sessions(&sc, plan.t_end, plan.t_drain);

    let agg = score_fabric(&sim, &fab, spec.hh_theta);
    let col = sim.node_ref::<Collector>(fab.collector.expect("telemetry plane wired"));
    let (reports, bad_reports, sweeps_sent) = (col.reports, col.bad_reports, col.sweeps_sent);
    // a dead switch ignores SweepNow, so kill windows show up as holes
    let missed_reports = sweeps_sent * N_SWITCHES as u64 - reports;
    let buf_delta = buf_balance(&sim, &fab);
    Json::obj([
        ("name", name.into()),
        ("kind", "faults".into()),
        ("flows", agg.flows.into()),
        ("truth_bytes", agg.truth_bytes.into()),
        ("complete", agg.complete.into()),
        ("cm_are", fixed(agg.cm_are, 4)),
        ("cm_underestimates", agg.cm_under.into()),
        ("hh_recall", fixed(agg.hh_recall, 4)),
        ("hh_precision", fixed(agg.hh_precision, 4)),
        ("reports", reports.into()),
        ("bad_reports", bad_reports.into()),
        ("missed_reports", missed_reports.into()),
        ("completed", completed.into()),
        ("buf_delta", buf_delta.into()),
        ("conserved", (buf_delta == 0).into()),
        ("sim_events", sim.events_processed().into()),
    ])
}

// ---- heavy-hitter ECMP rows -----------------------------------------------

/// Elephants + mice: bulk sessions (big responses) and small-RPC
/// sessions share every leaf pair across the spines.
fn hh_scenario(seed: u64, on: bool, t_drain: Time) -> Scenario {
    let mut sc = cross_tier_scenario(seed, LEAF_SPINE, Stack::FlexToe, |i, target| {
        let bulk = i % 4 == 0;
        Role::Client {
            cfg: ClientSpec {
                n_conns: if bulk { 2 } else { 8 },
                arrival: Arrival::Sessions {
                    think: Duration::from_us(10),
                    backoff_base: Duration::from_us(200),
                    backoff_cap: Duration::from_ms(5),
                },
                wire: Wire::Framed {
                    req: SizeDist::Fixed(128),
                    resp: SizeDist::Fixed(if bulk { 16_384 } else { 256 }),
                },
                warmup: Time::from_us(500),
                connect_spacing: Duration::from_us(1),
                ..Default::default()
            },
            target,
        }
    });
    let epoch = Duration::from_us(250);
    // (the telemetry plane is not shardable: collector fan-in crosses
    // non-link edges, and `partition_fabric` enforces it)
    sc.telemetry = Some(TelemetrySpec {
        epoch,
        sweeps: ((t_drain.as_ns() - 1_000_000) / epoch.as_ns()) as u32,
        hh_theta: 0.05,
        hh_ecmp: on,
        ground_truth: false,
        ..Default::default()
    });
    sc
}

fn run_hh(seed: u64, name: &'static str, on: bool, t_end: Time, t_drain: Time) -> Json {
    let sc = hh_scenario(seed, on, t_drain);
    let (sim, fab, per_client_bytes, completed) = run_sessions(&sc, t_end, t_drain);
    let bytes_in: u64 = per_client_bytes.iter().sum();
    let goodput_gbps = bytes_in as f64 * 8.0 / t_end.as_ns() as f64; // bits/ns == Gbps
    let jfi = jain_index(&per_client_bytes);
    let steered = sim.stats.get_named("switch.hh_steered");
    let reroutes = sim.stats.get_named("switch.ecmp_rerouted");
    let elephants: usize = fab
        .switches
        .iter()
        .map(|&s| sim.node_ref::<Switch>(s).telemetry_elephants().len())
        .sum();
    let buf_delta = buf_balance(&sim, &fab);
    Json::obj([
        ("name", name.into()),
        ("kind", "hh_ecmp".into()),
        ("hh_ecmp", on.into()),
        ("completed", completed.into()),
        ("bytes_in", bytes_in.into()),
        ("goodput_gbps", fixed(goodput_gbps, 3)),
        ("jfi", fixed(jfi, 4)),
        ("steered", steered.into()),
        ("reroutes", reroutes.into()),
        ("elephants", elephants.into()),
        ("buf_delta", buf_delta.into()),
        ("conserved", (buf_delta == 0).into()),
        ("sim_events", sim.events_processed().into()),
    ])
}

/// The `telemetry` experiment: sketch accuracy vs ground truth across
/// flow scales, under chaos schedules, and the heavy-hitter ECMP
/// ablation.
impl Experiment for TelemetryPlan {
    const NAME: &'static str = "telemetry";
    const TITLE: &'static str =
        "sketch accuracy vs exact truth on the 4-leaf/2-spine fabric, and heavy-hitter ECMP";
    const SEED: u64 = 29;
    const ROWS_KEY: &'static str = "rows";
    const COLUMNS: &'static str = "name kind flows cm_are lsb_are hh_recall hh_precision \
        missed_reports completed goodput_gbps jfi steered complete conserved";
    type Point = TRow;

    fn full() -> TelemetryPlan {
        let mut rows = vec![
            TRow::Accuracy("skew-1k", 1_000, 2_000, 0),
            TRow::Accuracy("skew-10k", 10_000, 5_000, 0),
            TRow::Accuracy("skew-100k", 100_000, 20_000, 0),
            TRow::Accuracy("adversarial-uniform-100k", 100_000, 0, 3),
        ];
        rows.extend(COMMON_ROWS);
        TelemetryPlan {
            rows,
            faults: FaultsPlan::full(),
            hh_t_end: Time::from_ms(10),
            hh_t_drain: Time::from_ms(14),
        }
    }

    fn smoke() -> TelemetryPlan {
        let mut rows = vec![
            TRow::Accuracy("skew-1k", 1_000, 2_000, 0),
            TRow::Accuracy("skew-5k", 5_000, 3_000, 0),
            TRow::Accuracy("adversarial-uniform-20k", 20_000, 0, 3),
        ];
        rows.extend(COMMON_ROWS);
        TelemetryPlan {
            rows,
            faults: FaultsPlan::smoke(),
            hh_t_end: Time::from_ms(4),
            hh_t_drain: Time::from_ms(6),
        }
    }

    fn points(&self) -> Vec<TRow> {
        self.rows.clone()
    }

    fn run_point(&self, seed: u64, row: &TRow, _: usize) -> PointRun {
        match *row {
            TRow::Accuracy(name, flows, skew_c, uniform_frames) => {
                run_accuracy(seed, name, flows, skew_c, uniform_frames)
            }
            TRow::Fault(name) => run_fault(seed, name, &self.faults),
            TRow::Hh(name, on) => run_hh(seed, name, on, self.hh_t_end, self.hh_t_drain),
        }
        .into()
    }

    fn scenario_json(&self, seed: u64) -> Json {
        let cfg = flextoe_telemetry::SketchCfg::default();
        Json::obj([
            ("seed", seed.into()),
            ("fabric", leaf_spine_name()),
            ("switches", N_SWITCHES.into()),
            (
                "sketch",
                Json::obj([
                    ("depth", cfg.depth.into()),
                    ("width", cfg.width.into()),
                    ("key_slots", cfg.key_slots.into()),
                ]),
            ),
        ])
    }

    /// Every row passes [`check_row`] and all three kinds are present.
    fn check(rows: &[Json]) -> Result<(), String> {
        rows.iter().try_for_each(check_row)?;
        let required = ["skew-1k", "faults-spine-kill", "hh-ecmp-off", "hh-ecmp-on"];
        has_rows(rows, "name", &required)
    }
}

/// The invariants of one row: accuracy rows swept every byte and count-min
/// never under-estimates; report frames obey buffer conservation under
/// faults, and a kill window shows up as missed reports; heavy-hitter
/// steering happens exactly when it is switched on.
pub fn check_row(r: &Json) -> Result<(), String> {
    let n = |key: &str| r[key].num();
    let yes = |key: &str| r[key] == Json::Bool(true);
    let unit = |v: f64| (0.0..=1.0).contains(&v);
    let name = r["name"].as_str();
    let mut checks = vec![(n("sim_events") > 0.0, "ran no events")];
    checks.extend(match r["kind"].as_str() {
        "accuracy" => [
            (yes("complete"), "bytes left unswept"),
            (
                n("cm_underestimates") == 0.0,
                "count-min under-estimated (cm_underestimates != 0)",
            ),
            (
                unit(n("hh_recall")) && unit(n("hh_precision")),
                "recall/precision outside [0, 1]",
            ),
        ],
        "faults" => [
            (yes("conserved"), "report frames leaked"),
            (n("bad_reports") == 0.0, "bad reports"),
            (
                name != "faults-spine-kill" || n("missed_reports") > 0.0,
                "a kill window must drop sweeps",
            ),
        ],
        "hh_ecmp" => [
            (yes("conserved"), "buffers leaked"),
            (
                n("completed") > 0.0 && n("jfi") > 0.0 && n("jfi") <= 1.0,
                "no load carried, or jfi outside (0, 1]",
            ),
            (
                (n("steered") > 0.0) == yes("hh_ecmp"),
                "frames are rank-steered exactly when hh_ecmp is on",
            ),
        ],
        _ => [(false, "unknown kind"); 3],
    });
    holds(format_args!("row {name}"), &checks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_row_names_an_accuracy_row_that_underestimates() {
        let mut row = run_accuracy(TelemetryPlan::SEED, "skew-1k", 1_000, 2_000, 0);
        assert_eq!(check_row(&row), Ok(()));
        row.set("cm_underestimates", 1u64);
        let err = check_row(&row).unwrap_err();
        assert!(
            err.contains("row skew-1k") && err.contains("cm_underestimates"),
            "{err}"
        );
    }
}
