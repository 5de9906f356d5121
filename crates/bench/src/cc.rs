//! The congested-fabric scenario: N FlexTOE senders incast through one
//! ECN-marking, WRED-armed switch port into a single receiver — the
//! fabric the out-of-band congestion-control plane exists for. The `cc`
//! experiment sweeps every registry algorithm (dctcp, timely, cubic,
//! reno — plus dctcp once more on the compiled-eBPF fold path) over the
//! same seed and records per-algorithm convergence time, Jain fairness,
//! switch-queue occupancy, and report-batching counters to
//! `BENCH_cc.json`.

use flextoe_apps::{ClientConfig, LoadMode, ServerConfig};
use flextoe_ccp::{FoldProg, FoldSpec};
use flextoe_control::CcAlgo;
use flextoe_netsim::{PortConfig, Switch, WredParams};
use flextoe_sim::{Duration, Sim, Tick, Time};

use crate::harness::*;
use crate::par::run_indexed;

/// ECN step-marking threshold K on the bottleneck port (bytes).
pub const ECN_K: usize = 24 * 1024;
/// Bottleneck port rate (bits/s): the 40G endpoints incast into 10G.
pub const BOTTLENECK_BPS: u64 = 10_000_000_000;
/// Request size of each sender (the incast unit).
const MSG: u32 = 65_536;

/// Windowed-fairness threshold and hold requirement for convergence.
const JAIN_CONVERGED: f64 = 0.95;
const HOLD_WINDOWS: usize = 3;

/// One algorithm's outcome on the congested fabric.
pub struct AlgoOutcome {
    pub algo: &'static str,
    pub fold: &'static str,
    pub goodput_gbps: f64,
    /// Jain fairness over post-warmup per-flow goodput.
    pub jain: f64,
    /// First time (ms from start) windowed Jain ≥ 0.95 held for
    /// `HOLD_WINDOWS` consecutive sampling windows; -1 if never.
    pub convergence_ms: f64,
    pub peak_queue_kb: f64,
    pub avg_queue_kb: f64,
    pub ecn_marked: u64,
    pub drops: u64,
    /// Report batches / flow reports / folded ACK events (batching proof:
    /// batches ≪ events, reports ≥ batches).
    pub report_batches: u64,
    pub flow_reports: u64,
    pub acks_folded: u64,
    /// Simulation events this run processed (deterministic per seed).
    pub sim_events: u64,
}

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

impl CcScale {
    pub fn full() -> CcScale {
        CcScale {
            senders: 4,
            duration: Time::from_ms(30),
            warmup: Time::from_ms(4),
            window: Duration::from_ms(2),
        }
    }

    pub fn smoke() -> CcScale {
        CcScale {
            senders: 2,
            duration: Time::from_ms(10),
            warmup: Time::from_ms(2),
            window: Duration::from_ms(1),
        }
    }
}

/// Run one algorithm over the incast fabric.
pub fn run_cc_one(seed: u64, algo: CcAlgo, fold: FoldSpec, scale: CcScale) -> AlgoOutcome {
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
    let srv = sim.add_node(DynServer::new(
        ServerConfig {
            msg_size: MSG,
            resp_size: 32,
            app_cycles: 0,
            ..Default::default()
        },
        srv_ep.stack_init(Stack::FlexToe, 1),
    ));
    sim.schedule(Time::ZERO, srv, Tick);
    let mut client_nodes = Vec::new();
    for (i, ep) in clients.iter().enumerate() {
        let c = sim.add_node(DynClient::new(
            ClientConfig {
                server_ip: srv_ep.ip,
                n_conns: 1,
                msg_size: MSG,
                resp_size: 32,
                mode: LoadMode::Closed { pipeline: 2 },
                warmup: scale.warmup,
                connect_spacing: Duration::from_us(3),
                ..Default::default()
            },
            ep.stack_init(Stack::FlexToe, 1),
        ));
        sim.schedule(Time::from_us(30 + i as u64), c, Tick);
        client_nodes.push(c);
    }

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

    AlgoOutcome {
        algo: algo.name(),
        fold: fold_label,
        sim_events: sim.events_processed(),
        goodput_gbps,
        jain,
        convergence_ms,
        peak_queue_kb: peak as f64 / 1024.0,
        avg_queue_kb: avg / 1024.0,
        ecn_marked,
        drops,
        report_batches: sim.stats.get_named("ccp.batches"),
        flow_reports: sim.stats.get_named("ccp.reports"),
        acks_folded: sim.stats.get_named("ccp.events"),
    }
}

/// The full sweep: every registry algorithm on the native fold, plus
/// DCTCP once more on the compiled-eBPF fold path. Runs are independent
/// sims fanned out over `jobs` threads; results merge in configuration
/// order, byte-identical to a serial run.
pub fn run_cc_jobs(seed: u64, scale: CcScale, jobs: usize) -> Vec<AlgoOutcome> {
    let mut configs: Vec<(CcAlgo, FoldSpec)> = CcAlgo::all()
        .into_iter()
        .map(|algo| (algo, FoldSpec::Builtin))
        .collect();
    configs.push((CcAlgo::Dctcp, FoldSpec::Program(FoldProg::builtin())));
    run_indexed(jobs, configs.len(), |i| {
        let (algo, fold) = configs[i].clone();
        run_cc_one(seed, algo, fold, scale)
    })
}

/// The serial reference sweep.
pub fn run_cc(seed: u64, scale: CcScale) -> Vec<AlgoOutcome> {
    run_cc_jobs(seed, scale, 1)
}

/// Serialize a sweep deterministically (the integration suite asserts
/// byte-identical output for identical seeds).
pub fn cc_json(seed: u64, scale: CcScale, results: &[AlgoOutcome]) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"benchmark\": \"cc\",\n");
    s.push_str(&format!(
        "  \"scenario\": {{\n    \"seed\": {seed},\n    \"senders\": {},\n    \"bottleneck_gbps\": {},\n    \"ecn_threshold_kb\": {},\n    \"duration_ms\": {},\n    \"warmup_ms\": {}\n  }},\n",
        scale.senders,
        BOTTLENECK_BPS / 1_000_000_000,
        ECN_K / 1024,
        scale.duration.as_us() / 1_000,
        scale.warmup.as_us() / 1_000,
    ));
    s.push_str("  \"algorithms\": [\n");
    for (i, r) in results.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"algo\": \"{}\", \"fold\": \"{}\", \"goodput_gbps\": {:.3}, \"jain\": {:.4}, \"convergence_ms\": {:.1}, \"peak_queue_kb\": {:.1}, \"avg_queue_kb\": {:.2}, \"ecn_marked\": {}, \"drops\": {}, \"report_batches\": {}, \"flow_reports\": {}, \"acks_folded\": {}, \"sim_events\": {}}}{}\n",
            r.algo,
            r.fold,
            r.goodput_gbps,
            r.jain,
            r.convergence_ms,
            r.peak_queue_kb,
            r.avg_queue_kb,
            r.ecn_marked,
            r.drops,
            r.report_batches,
            r.flow_reports,
            r.acks_folded,
            r.sim_events,
            if i + 1 == results.len() { "" } else { "," },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// The `cc` experiment: sweep, print, write `BENCH_cc.json`.
/// `--smoke` selects the short CI configuration; `--seed`/`--out`
/// override the defaults.
pub fn cc(opts: &crate::cli::RunOpts) {
    let scale = if opts.smoke {
        CcScale::smoke()
    } else {
        CcScale::full()
    };
    let seed = opts.seed.unwrap_or(11);
    let jobs = opts.jobs();
    println!(
        "# cc — congested fabric: {} senders incast into {} Gbps (K = {} KB){}",
        scale.senders,
        BOTTLENECK_BPS / 1_000_000_000,
        ECN_K / 1024,
        if opts.smoke { " [smoke]" } else { "" }
    );
    println!(
        "{:<8} {:<7} {:>9} {:>7} {:>9} {:>9} {:>9} {:>7} {:>7} {:>9} {:>9}",
        "algo",
        "fold",
        "goodput",
        "JFI",
        "conv ms",
        "peak KB",
        "avg KB",
        "marks",
        "drops",
        "batches",
        "acks"
    );
    let wall0 = std::time::Instant::now();
    let results = run_cc_jobs(seed, scale, jobs);
    let wall = wall0.elapsed().as_secs_f64();
    for r in &results {
        println!(
            "{:<8} {:<7} {:>8.2}G {:>7.3} {:>9.1} {:>9.1} {:>9.2} {:>7} {:>7} {:>9} {:>9}",
            r.algo,
            r.fold,
            r.goodput_gbps,
            r.jain,
            r.convergence_ms,
            r.peak_queue_kb,
            r.avg_queue_kb,
            r.ecn_marked,
            r.drops,
            r.report_batches,
            r.acks_folded,
        );
    }
    let sim_events: u64 = results.iter().map(|r| r.sim_events).sum();
    println!(
        "sweep wall: {:.2}s, {} events ({:.2}M events/s, jobs={})",
        wall,
        sim_events,
        sim_events as f64 / wall / 1e6,
        jobs
    );
    let json =
        crate::scale::with_wall_block(cc_json(seed, scale, &results), wall, sim_events, jobs);
    let path = opts.out_path("BENCH_cc.json");
    std::fs::write(&path, &json).expect("write BENCH_cc.json");
    println!("wrote {}", path.display());
}
