//! The congested-fabric scenario: N FlexTOE senders incast through one
//! ECN-marking, WRED-armed switch port into a single receiver — the
//! fabric the out-of-band congestion-control plane exists for. The `cc`
//! experiment sweeps every registry algorithm (dctcp, timely, cubic,
//! reno — plus dctcp once more on the compiled-eBPF fold path) over the
//! same seed and records per-algorithm convergence time, Jain fairness,
//! switch-queue occupancy, and report-batching counters to
//! `BENCH_cc.json`.

use flextoe_apps::{Arrival, ClientSpec, ServerSpec, Wire};
use flextoe_ccp::{FoldProg, FoldSpec};
use flextoe_control::CcAlgo;
use flextoe_netsim::{PortConfig, Switch, WredParams};
use flextoe_sim::{Duration, Sim, Time};

use crate::driver::{has_rows, holds, Experiment, PointRun};
use crate::harness::*;
use crate::json::{fixed, Json};

/// ECN step-marking threshold K on the bottleneck port (bytes).
pub const ECN_K: usize = 24 * 1024;
/// Bottleneck port rate (bits/s): the 40G endpoints incast into 10G.
pub const BOTTLENECK_BPS: u64 = 10_000_000_000;
/// Request size of each sender (the incast unit).
const MSG: u32 = 65_536;

/// Windowed-fairness threshold and hold requirement for convergence.
const JAIN_CONVERGED: f64 = 0.95;
const HOLD_WINDOWS: usize = 3;

/// Scenario scale: the CI smoke configuration shrinks senders and time.
#[derive(Clone, Copy, Debug)]
pub struct CcScale {
    pub senders: u8,
    pub duration: Time,
    pub warmup: Time,
    /// Fairness-sampling window: wide enough that several 64 KB requests
    /// complete per flow per window, or discreteness drowns the signal.
    pub window: Duration,
}

/// Run one algorithm over the incast fabric; returns its sweep row.
pub fn run_cc_one(seed: u64, algo: CcAlgo, fold: FoldSpec, scale: CcScale) -> Json {
    let fold_label = match fold {
        FoldSpec::Builtin => "native",
        FoldSpec::Program(_) => "ebpf",
    };
    // shallow enough that loss-based algorithms (cubic, reno) actually
    // reach the WRED band and tail: their signal is loss, not marks
    let port = PortConfig {
        rate_bps: BOTTLENECK_BPS,
        buf_bytes: 192 * 1024,
        ecn_threshold: Some(ECN_K),
        wred: Some(WredParams {
            min_bytes: 64 * 1024,
            max_bytes: 192 * 1024,
            max_p: 0.3,
        }),
    };
    let opts = PairOpts {
        cc: algo,
        fold,
        ..Default::default()
    };
    let mut sim = Sim::new(seed);
    let (clients, srv_ep, sw) = build_star(&mut sim, Stack::FlexToe, scale.senders, port, &opts);
    let wire = Wire::Fixed { req: MSG, resp: 32 };
    let server = ServerSpec {
        wire,
        ..Default::default()
    };
    let client = ClientSpec {
        n_conns: 1,
        wire,
        arrival: Arrival::Closed { pipeline: 2 },
        warmup: scale.warmup,
        connect_spacing: Duration::from_us(3),
        ..Default::default()
    };
    let client_nodes = incast(&mut sim, (&clients, &srv_ep), server, client);

    // windowed sampling from outside the simulation: per-flow delivered
    // bytes per window drive the convergence detector
    let window = scale.window;
    let n_windows = (scale.duration.as_ns() / window.as_ns()) as usize;
    let warmup_windows = (scale.warmup.as_ns() / window.as_ns()) as usize;
    let mut prev = vec![0u64; client_nodes.len()];
    let mut at_warmup = vec![0u64; client_nodes.len()];
    let mut window_deltas: Vec<Vec<u64>> = Vec::with_capacity(n_windows);
    for w in 0..n_windows {
        sim.run_until(Time::ZERO + window * (w as u64 + 1));
        let totals: Vec<u64> = client_nodes
            .iter()
            .map(|&c| sim.node_ref::<DynClient>(c).per_conn_bytes().iter().sum())
            .collect();
        let deltas: Vec<u64> = totals
            .iter()
            .zip(&prev)
            .map(|(t, p)| t.saturating_sub(*p))
            .collect();
        window_deltas.push(deltas);
        prev = totals.clone();
        if w + 1 == warmup_windows {
            at_warmup = totals;
        }
    }

    // convergence: Jain over sliding two-window sums (the per-flow
    // sawtooth plus 64 KB request granularity makes single windows too
    // noisy) holds ≥ threshold for HOLD_WINDOWS consecutive positions
    let pair_jain: Vec<f64> = window_deltas
        .windows(2)
        .map(|pair| {
            let sums: Vec<u64> = pair[0].iter().zip(&pair[1]).map(|(a, b)| a + b).collect();
            jain_index(&sums)
        })
        .collect();
    let mut convergence_ms = -1.0;
    for start in warmup_windows..pair_jain.len().saturating_sub(HOLD_WINDOWS - 1) {
        if pair_jain[start..start + HOLD_WINDOWS]
            .iter()
            .all(|&j| j >= JAIN_CONVERGED)
        {
            convergence_ms = (start + 2) as f64 * window.as_us_f64() / 1_000.0;
            break;
        }
    }

    // post-warmup fairness + goodput
    let post: Vec<u64> = prev
        .iter()
        .zip(&at_warmup)
        .map(|(t, w)| t.saturating_sub(*w))
        .collect();
    let jain = jain_index(&post);
    let measured: u64 = client_nodes
        .iter()
        .map(|&c| sim.node_ref::<DynClient>(c).measured)
        .sum();
    let span = scale.duration.saturating_since(scale.warmup);
    let goodput_gbps = measured as f64 * MSG as f64 * 8.0 / span.as_secs_f64() / 1e9;

    let switch = sim.node_ref::<Switch>(sw);
    let (_tx, drops, ecn_marked) = switch.port_stats(0);
    let (peak, avg) = switch.queue_occupancy(0, sim.now().as_ns());

    Json::obj([
        ("algo", algo.name().into()),
        ("fold", fold_label.into()),
        ("goodput_gbps", fixed(goodput_gbps, 3)),
        // Jain fairness over post-warmup per-flow goodput
        ("jain", fixed(jain, 4)),
        // first time (ms from start) windowed Jain ≥ 0.95 held for
        // HOLD_WINDOWS consecutive sampling windows; -1 if never
        ("convergence_ms", fixed(convergence_ms, 1)),
        ("peak_queue_kb", fixed(peak as f64 / 1024.0, 1)),
        ("avg_queue_kb", fixed(avg / 1024.0, 2)),
        ("ecn_marked", ecn_marked.into()),
        ("drops", drops.into()),
        // batching proof: batches ≪ folded ACK events, reports ≥ batches
        ("report_batches", sim.stats.get_named("ccp.batches").into()),
        ("flow_reports", sim.stats.get_named("ccp.reports").into()),
        ("acks_folded", sim.stats.get_named("ccp.events").into()),
        ("sim_events", sim.events_processed().into()),
    ])
}

/// The `cc` experiment: every registry algorithm on the native fold, plus
/// DCTCP once more on the compiled-eBPF fold path, over one seed.
impl Experiment for CcScale {
    const NAME: &'static str = "cc";
    const TITLE: &'static str = "congested fabric: senders incast into one 10G ECN/WRED port";
    const SEED: u64 = 11;
    const ROWS_KEY: &'static str = "algorithms";
    const COLUMNS: &'static str = "algo fold goodput_gbps jain convergence_ms peak_queue_kb \
        avg_queue_kb ecn_marked drops report_batches acks_folded";
    type Point = (CcAlgo, FoldSpec);

    fn full() -> CcScale {
        CcScale {
            senders: 4,
            duration: Time::from_ms(30),
            warmup: Time::from_ms(4),
            window: Duration::from_ms(2),
        }
    }

    fn smoke() -> CcScale {
        CcScale {
            senders: 2,
            duration: Time::from_ms(10),
            warmup: Time::from_ms(2),
            window: Duration::from_ms(1),
        }
    }

    fn points(&self) -> Vec<(CcAlgo, FoldSpec)> {
        let mut configs: Vec<(CcAlgo, FoldSpec)> = CcAlgo::all()
            .into_iter()
            .map(|algo| (algo, FoldSpec::Builtin))
            .collect();
        configs.push((CcAlgo::Dctcp, FoldSpec::Program(FoldProg::builtin())));
        configs
    }

    fn run_point(&self, seed: u64, (algo, fold): &Self::Point, _: usize) -> PointRun {
        run_cc_one(seed, *algo, fold.clone(), *self).into()
    }

    fn scenario_json(&self, seed: u64) -> Json {
        Json::obj([
            ("seed", seed.into()),
            ("senders", self.senders.into()),
            ("bottleneck_gbps", (BOTTLENECK_BPS / 1_000_000_000).into()),
            ("ecn_threshold_kb", (ECN_K / 1024).into()),
            ("duration_ms", (self.duration.as_us() / 1_000).into()),
            ("warmup_ms", (self.warmup.as_us() / 1_000).into()),
        ])
    }

    /// Every registry algorithm ran, and each one's reports reached the
    /// control plane batched (far fewer batches than folded ACKs).
    fn check(rows: &[Json]) -> Result<(), String> {
        has_rows(rows, "algo", &["dctcp", "timely", "cubic", "reno"])?;
        rows.iter().try_for_each(|r| {
            let batches = r["report_batches"].num();
            holds(
                format_args!("row {}/{}", r["algo"].as_str(), r["fold"].as_str()),
                &[
                    (r["sim_events"].num() > 0.0, "ran no events"),
                    (batches > 0.0, "no report batch arrived"),
                    (
                        r["acks_folded"].num() > batches,
                        "a batch per folded ACK is not batching",
                    ),
                ],
            )
        })
    }
}
