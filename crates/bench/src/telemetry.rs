//! The telemetry experiment: ground-truth differential accuracy of the
//! per-switch fast-path sketches, and the heavy-hitter ECMP ablation.
//! This is the one evaluation a hardware testbed cannot run — the sim
//! records exact per-flow byte counts next to every switch's sketch, so
//! sketch error is measured against truth instead of estimated.
//!
//! Three row kinds share `BENCH_telemetry.json`:
//!
//! * **accuracy** — a pump injects pre-built tagged frames for 1k→100k
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
//! `BENCH_telemetry.json` minus its wall block is byte-identical per seed
//! across runs, `--jobs` values, and the wheel vs. reference-heap queue.

use flextoe_apps::{CloseAll, FramedServerConfig, SessionConfig};
use flextoe_netsim::{Collector, Switch, TelemetrySpec};
use flextoe_sim::{Ctx, Duration, Msg, Node, NodeId, Sim, Tick, Time};
use flextoe_telemetry::score_sketch;
use flextoe_topo::{
    build_fabric, BuiltFabric, DynSessionClient, Fabric, FaultEvent, FaultTarget, HostSpec, Role,
    Scenario, Stack,
};
use flextoe_wire::{Frame, FrameMeta, Ip4, MacAddr, SegmentSpec};

use crate::cli::RunOpts;
use crate::faults::{buf_balance, chaos_scenario, ChaosRow, FaultsPlan};
use crate::harness::jain_index;
use crate::par::run_indexed;
use crate::scale::{with_wall_block, HOSTS_PER_LEAF, LEAVES, SPINES};

const N_SWITCHES: usize = LEAVES + SPINES;

/// One experiment row.
enum TRow {
    /// Synthetic pump: `flows` distinct flows, sized `1 + skew_c/(rank+1)`
    /// frames each, or `uniform_frames` each when `skew_c == 0`.
    Accuracy {
        name: &'static str,
        flows: u32,
        skew_c: u32,
        uniform_frames: u32,
    },
    /// A chaos schedule re-run with telemetry enabled.
    Fault { name: &'static str },
    /// Elephants + mice with heavy-hitter ECMP off/on.
    Hh { name: &'static str, on: bool },
}

/// Row sweep + the chaos plan its fault rows reuse.
pub struct TelemetryPlan {
    rows: Vec<TRow>,
    faults: FaultsPlan,
    hh_t_end: Time,
    hh_t_drain: Time,
}

impl TelemetryPlan {
    pub fn full() -> TelemetryPlan {
        TelemetryPlan {
            rows: vec![
                TRow::Accuracy {
                    name: "skew-1k",
                    flows: 1_000,
                    skew_c: 2_000,
                    uniform_frames: 0,
                },
                TRow::Accuracy {
                    name: "skew-10k",
                    flows: 10_000,
                    skew_c: 5_000,
                    uniform_frames: 0,
                },
                TRow::Accuracy {
                    name: "skew-100k",
                    flows: 100_000,
                    skew_c: 20_000,
                    uniform_frames: 0,
                },
                TRow::Accuracy {
                    name: "adversarial-uniform-100k",
                    flows: 100_000,
                    skew_c: 0,
                    uniform_frames: 3,
                },
                TRow::Fault {
                    name: "faults-spine-kill",
                },
                TRow::Fault {
                    name: "faults-link-flap",
                },
                TRow::Hh {
                    name: "hh-ecmp-off",
                    on: false,
                },
                TRow::Hh {
                    name: "hh-ecmp-on",
                    on: true,
                },
            ],
            faults: FaultsPlan::full(),
            hh_t_end: Time::from_ms(10),
            hh_t_drain: Time::from_ms(14),
        }
    }

    pub fn smoke() -> TelemetryPlan {
        TelemetryPlan {
            rows: vec![
                TRow::Accuracy {
                    name: "skew-1k",
                    flows: 1_000,
                    skew_c: 2_000,
                    uniform_frames: 0,
                },
                TRow::Accuracy {
                    name: "skew-5k",
                    flows: 5_000,
                    skew_c: 3_000,
                    uniform_frames: 0,
                },
                TRow::Accuracy {
                    name: "adversarial-uniform-20k",
                    flows: 20_000,
                    skew_c: 0,
                    uniform_frames: 3,
                },
                TRow::Fault {
                    name: "faults-spine-kill",
                },
                TRow::Fault {
                    name: "faults-link-flap",
                },
                TRow::Hh {
                    name: "hh-ecmp-off",
                    on: false,
                },
                TRow::Hh {
                    name: "hh-ecmp-on",
                    on: true,
                },
            ],
            faults: FaultsPlan::smoke(),
            hh_t_end: Time::from_ms(4),
            hh_t_drain: Time::from_ms(6),
        }
    }
}

/// One finished row: a console line and a JSON object string. Both are
/// derived purely from simulated state, so the JSON is deterministic.
pub struct TelemetryRow {
    pub line: String,
    pub json: String,
    pub sim_events: u64,
}

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
    meta: FrameMeta,
}

/// Paced frame injector: walks a pre-shuffled flow schedule, one pooled
/// tagged frame per wake, straight into the switches.
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
        ctx.send(fl.to, Duration::ZERO, Frame::tagged(buf, fl.meta));
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
        flows: 0,
        truth_bytes: 0,
        cm_are: 0.0,
        lsb_are: 0.0,
        cm_under: 0,
        lsb_under: 0,
        hh_truth: 0,
        hh_est: 0,
        hh_recall: 1.0,
        hh_precision: 1.0,
        candidates: 0,
        complete: true,
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
        let cands: Vec<u64> = v.keys.iter().copied().collect();
        let s_cm = score_sketch(&truth, |k| v.cm.estimate(k), &cands, v.bytes, theta);
        let s_lsb = score_sketch(&truth, |k| v.lsb.estimate(k), &cands, v.bytes, theta);
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
) -> TelemetryRow {
    let mut sc = Scenario::idle(
        seed,
        Fabric::LeafSpine {
            leaves: LEAVES,
            spines: SPINES,
            hosts_per_leaf: HOSTS_PER_LEAF,
        },
        Stack::FlexToe,
    );
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
                meta: seg.meta(),
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
    let sim_events = sim.events_processed();
    TelemetryRow {
        line: format!(
            "{:<24} {:>7} {:>8} {:>9.4} {:>9.4} {:>7.3} {:>7.3} {:>9}",
            name, agg.flows, frames, agg.cm_are, agg.lsb_are, agg.hh_recall, agg.hh_precision,
            agg.complete
        ),
        json: format!(
            "{{\"name\": \"{}\", \"kind\": \"accuracy\", \"flows\": {}, \"frames\": {}, \"truth_bytes\": {}, \"complete\": {}, \"cm_are\": {:.4}, \"lsb_are\": {:.4}, \"cm_underestimates\": {}, \"lsb_underestimates\": {}, \"hh_truth\": {}, \"hh_est\": {}, \"hh_recall\": {:.4}, \"hh_precision\": {:.4}, \"candidates\": {}, \"reports\": {}, \"report_bytes\": {}, \"sim_events\": {}}}",
            name,
            agg.flows,
            frames,
            agg.truth_bytes,
            agg.complete,
            agg.cm_are,
            agg.lsb_are,
            agg.cm_under,
            agg.lsb_under,
            agg.hh_truth,
            agg.hh_est,
            agg.hh_recall,
            agg.hh_precision,
            agg.candidates,
            reports,
            report_bytes,
            sim_events,
        ),
        sim_events,
    }
}

// ---- fault rows -----------------------------------------------------------

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

fn fault_schedule(name: &str, plan: &FaultsPlan) -> Vec<FaultEvent> {
    match name {
        "faults-spine-kill" => {
            let spine0 = FaultTarget::Switch { index: LEAVES };
            vec![
                FaultEvent::down(plan.t_fault, spine0),
                FaultEvent::up(plan.t_heal, spine0),
            ]
        }
        "faults-link-flap" => {
            // 4 down/up cycles on the first leaf↔spine link pair
            let link = FaultTarget::FabricLink { index: 0 };
            let n = 4u64;
            let period = Duration::from_ns(plan.t_heal.saturating_since(plan.t_fault).as_ns() / n);
            let half = Duration::from_ns(period.as_ns() / 2);
            (0..n)
                .flat_map(|k| {
                    let t0 = plan.t_fault + period * k;
                    [FaultEvent::down(t0, link), FaultEvent::up(t0 + half, link)]
                })
                .collect()
        }
        other => panic!("unknown fault row {other}"),
    }
}

fn run_fault(seed: u64, name: &'static str, plan: &FaultsPlan) -> TelemetryRow {
    let row = ChaosRow {
        name,
        schedule: fault_schedule(name, plan),
    };
    let mut sc = chaos_scenario(seed, &row, plan);
    let spec = fault_spec(plan);
    sc.telemetry = Some(spec);
    let mut sim = Sim::new(sc.seed);
    let fab = build_fabric(&mut sim, &sc);
    let sessions: Vec<NodeId> = fab.hosts.iter().filter_map(|h| h.session()).collect();
    sim.run_until(plan.t_end);
    for &n in &sessions {
        sim.schedule(sim.now(), n, CloseAll);
    }
    sim.run_until(plan.t_drain);

    let agg = score_fabric(&sim, &fab, spec.hh_theta);
    let col = sim.node_ref::<Collector>(fab.collector.expect("telemetry plane wired"));
    let (reports, bad_reports, sweeps_sent) = (col.reports, col.bad_reports, col.sweeps_sent);
    // a dead switch ignores SweepNow, so kill windows show up as holes
    let missed_reports = sweeps_sent * N_SWITCHES as u64 - reports;
    let completed: u64 = sessions
        .iter()
        .map(|&n| sim.node_ref::<DynSessionClient>(n).completed)
        .sum();
    let buf_delta = buf_balance(&sim, &fab);
    let sim_events = sim.events_processed();
    TelemetryRow {
        line: format!(
            "{:<24} {:>7} {:>8} {:>9.4} {:>9} {:>7.3} {:>7.3} {:>9}",
            name,
            agg.flows,
            missed_reports,
            agg.cm_are,
            agg.cm_under,
            agg.hh_recall,
            agg.hh_precision,
            buf_delta == 0,
        ),
        json: format!(
            "{{\"name\": \"{}\", \"kind\": \"faults\", \"flows\": {}, \"truth_bytes\": {}, \"complete\": {}, \"cm_are\": {:.4}, \"cm_underestimates\": {}, \"hh_recall\": {:.4}, \"hh_precision\": {:.4}, \"reports\": {}, \"bad_reports\": {}, \"missed_reports\": {}, \"completed\": {}, \"buf_delta\": {}, \"conserved\": {}, \"sim_events\": {}}}",
            name,
            agg.flows,
            agg.truth_bytes,
            agg.complete,
            agg.cm_are,
            agg.cm_under,
            agg.hh_recall,
            agg.hh_precision,
            reports,
            bad_reports,
            missed_reports,
            completed,
            buf_delta,
            buf_delta == 0,
            sim_events,
        ),
        sim_events,
    }
}

// ---- heavy-hitter ECMP rows -----------------------------------------------

/// Elephants + mice: bulk sessions (big responses) and small-RPC
/// sessions share every leaf pair across the spines.
fn hh_scenario(seed: u64, on: bool, t_drain: Time) -> Scenario {
    let fabric = Fabric::LeafSpine {
        leaves: LEAVES,
        spines: SPINES,
        hosts_per_leaf: HOSTS_PER_LEAF,
    };
    let hosts = (0..fabric.n_hosts())
        .map(|i| {
            let role = if i % 2 == 0 {
                let leaf = i / HOSTS_PER_LEAF;
                let target = ((leaf + 1) % LEAVES) * HOSTS_PER_LEAF + 1;
                let bulk = i % 4 == 0;
                Role::Session {
                    cfg: SessionConfig {
                        n_sessions: if bulk { 2 } else { 8 },
                        req_size: 128,
                        resp_size: if bulk { 16_384 } else { 256 },
                        think: Duration::from_us(10),
                        warmup: Time::from_us(500),
                        ..Default::default()
                    },
                    target,
                }
            } else {
                Role::FramedServer(FramedServerConfig::default())
            };
            HostSpec {
                stack: Stack::FlexToe,
                role,
            }
        })
        .collect();
    let epoch = Duration::from_us(250);
    Scenario {
        seed,
        fabric,
        hosts,
        links: Default::default(),
        opts: Default::default(),
        fault_schedule: Vec::new(),
        telemetry: Some(TelemetrySpec {
            epoch,
            sweeps: ((t_drain.as_ns() - 1_000_000) / epoch.as_ns()) as u32,
            hh_theta: 0.05,
            hh_ecmp: on,
            ground_truth: false,
            ..Default::default()
        }),
        client_start: Time::from_us(20),
        client_stagger: Duration::from_us(1),
        // the telemetry plane is not shardable (collector fan-in
        // crosses non-link edges) — partition_fabric enforces this
        shards: 1,
    }
}

fn run_hh(seed: u64, name: &'static str, on: bool, t_end: Time, t_drain: Time) -> TelemetryRow {
    let sc = hh_scenario(seed, on, t_drain);
    let mut sim = Sim::new(sc.seed);
    let fab = build_fabric(&mut sim, &sc);
    let sessions: Vec<NodeId> = fab.hosts.iter().filter_map(|h| h.session()).collect();
    sim.run_until(t_end);
    for &n in &sessions {
        sim.schedule(sim.now(), n, CloseAll);
    }
    sim.run_until(t_drain);

    let mut per_client_bytes = Vec::with_capacity(sessions.len());
    let mut completed = 0u64;
    for &n in &sessions {
        let c = sim.node_ref::<DynSessionClient>(n);
        per_client_bytes.push(c.bytes_in);
        completed += c.completed;
    }
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
    let sim_events = sim.events_processed();
    TelemetryRow {
        line: format!(
            "{:<24} {:>7} {:>8} {:>9.3} {:>9.4} {:>7} {:>7} {:>9}",
            name,
            completed,
            elephants,
            goodput_gbps,
            jfi,
            steered,
            reroutes,
            buf_delta == 0,
        ),
        json: format!(
            "{{\"name\": \"{}\", \"kind\": \"hh_ecmp\", \"hh_ecmp\": {}, \"completed\": {}, \"bytes_in\": {}, \"goodput_gbps\": {:.3}, \"jfi\": {:.4}, \"steered\": {}, \"reroutes\": {}, \"elephants\": {}, \"buf_delta\": {}, \"conserved\": {}, \"sim_events\": {}}}",
            name,
            on,
            completed,
            bytes_in,
            goodput_gbps,
            jfi,
            steered,
            reroutes,
            elephants,
            buf_delta,
            buf_delta == 0,
            sim_events,
        ),
        sim_events,
    }
}

// ---- driver ---------------------------------------------------------------

fn run_row(seed: u64, row: &TRow, plan: &TelemetryPlan) -> TelemetryRow {
    match *row {
        TRow::Accuracy {
            name,
            flows,
            skew_c,
            uniform_frames,
        } => run_accuracy(seed, name, flows, skew_c, uniform_frames),
        TRow::Fault { name } => run_fault(seed, name, &plan.faults),
        TRow::Hh { name, on } => run_hh(seed, name, on, plan.hh_t_end, plan.hh_t_drain),
    }
}

/// The whole sweep over `jobs` worker threads; every row builds its own
/// `Sim` from the same seed, so any `--jobs` merges byte-identically.
pub fn run_telemetry_jobs(seed: u64, plan: &TelemetryPlan, jobs: usize) -> Vec<TelemetryRow> {
    run_indexed(jobs, plan.rows.len(), |i| {
        run_row(seed, &plan.rows[i], plan)
    })
}

/// Serialize the sweep deterministically (byte-identical per seed — the
/// acceptance contract on `BENCH_telemetry.json`).
pub fn telemetry_json(seed: u64, results: &[TelemetryRow]) -> String {
    let cfg = flextoe_telemetry::SketchCfg::default();
    let mut s = String::new();
    s.push_str("{\n  \"benchmark\": \"telemetry\",\n");
    s.push_str(&format!(
        "  \"scenario\": {{\n    \"seed\": {seed},\n    \"fabric\": \"leafspine-{LEAVES}x{SPINES}\",\n    \"switches\": {N_SWITCHES},\n    \"sketch\": {{\"depth\": {}, \"width\": {}, \"key_slots\": {}}}\n  }},\n",
        cfg.depth, cfg.width, cfg.key_slots,
    ));
    s.push_str("  \"rows\": [\n");
    for (i, r) in results.iter().enumerate() {
        s.push_str("    ");
        s.push_str(&r.json);
        s.push_str(if i + 1 == results.len() { "\n" } else { ",\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

/// The `telemetry` experiment: sketch accuracy vs ground truth across
/// flow scales, under chaos schedules, and the heavy-hitter ECMP
/// ablation. Writes `BENCH_telemetry.json`.
pub fn telemetry(opts: &RunOpts) {
    let plan = if opts.smoke {
        TelemetryPlan::smoke()
    } else {
        TelemetryPlan::full()
    };
    let seed = opts.seed.unwrap_or(29);
    let jobs = opts.jobs();
    println!(
        "# telemetry — sketch accuracy vs exact truth on the {LEAVES}-leaf/{SPINES}-spine fabric{} [jobs={jobs}]",
        if opts.smoke { " [smoke]" } else { "" }
    );
    println!(
        "{:<24} {:>7} {:>8} {:>9} {:>9} {:>7} {:>7} {:>9}",
        "row", "flows", "frames*", "cm_are*", "lsb_are*", "recall", "precis", "ok"
    );
    println!("# (* fault rows: missed reports / underestimates; hh rows: completed / elephants / goodput / jfi / steered)");
    let wall0 = std::time::Instant::now();
    let results = run_telemetry_jobs(seed, &plan, jobs);
    let wall = wall0.elapsed().as_secs_f64();
    for r in &results {
        println!("{}", r.line);
    }
    let sim_events: u64 = results.iter().map(|r| r.sim_events).sum();
    println!(
        "sweep wall: {:.2}s, {} events ({:.2}M events/s, jobs={})",
        wall,
        sim_events,
        sim_events as f64 / wall / 1e6,
        jobs
    );
    let json = with_wall_block(telemetry_json(seed, &results), wall, sim_events, jobs);
    let path = opts.out_path("BENCH_telemetry.json");
    std::fs::write(&path, &json).expect("write BENCH_telemetry.json");
    println!("wrote {}", path.display());
}
