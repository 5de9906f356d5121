//! One repetition of one workload, in a process of its own: build, warm
//! up, drive the measured window slice by slice, harvest, and report a
//! [`Record`]. Everything is observed from outside, through public API.

use std::collections::BTreeMap;
use std::time::Instant;

use flextoe_netsim::{Collector, Switch};
use flextoe_sim::{Duration, Sim, Time};
use flextoe_telemetry::score_sketch;

use crate::alloc;
use crate::calib::{normalise, reference_ns};
use crate::estimator::{interp_quantile, Slice, Slices};
use crate::record::{Record, Span};
use crate::workloads::{build, Harvest, Progress, Spec, World};

/// The benchmark's own phase spans, kept in memory until the child ends.
pub struct SpanLog {
    t0: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(t0: Instant) -> SpanLog {
        SpanLog {
            t0,
            spans: Vec::new(),
        }
    }

    pub fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Close a span that started at `start_ns` (from [`SpanLog::now`]).
    pub fn close(&mut self, name: &str, start_ns: u64, parent: &str) {
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: self.now(),
            parent: parent.to_string(),
        });
    }
}

/// Jain's fairness index over per-flow delivered bytes.
pub fn jain_index(xs: &[u64]) -> f64 {
    let sum: f64 = xs.iter().map(|&x| x as f64).sum();
    let sum_sq: f64 = xs.iter().map(|&x| (x as f64) * (x as f64)).sum();
    if xs.is_empty() || sum_sq == 0.0 {
        return 1.0;
    }
    sum * sum / (xs.len() as f64 * sum_sq)
}

/// The engine profiler's tables at one instant (they only ever grow, so
/// the measured window is the difference of two snapshots).
struct ProfSnap {
    nodes: BTreeMap<String, (u64, u64)>,
    kinds: BTreeMap<&'static str, u64>,
    bursts: BTreeMap<usize, u64>,
}

impl ProfSnap {
    fn take(sim: &Sim) -> ProfSnap {
        ProfSnap {
            nodes: sim
                .prof_dump()
                .into_iter()
                .map(|(name, ns, ev)| (name, (ns, ev)))
                .collect(),
            kinds: sim.prof_kind_dump().into_iter().collect(),
            bursts: sim.prof_burst_hist().into_iter().collect(),
        }
    }

    /// Write `later - self` into `rec`.
    fn diff_into(&self, later: &ProfSnap, rec: &mut Record) {
        for (name, &(ns, ev)) in &later.nodes {
            let (ns0, ev0) = self.nodes.get(name).copied().unwrap_or((0, 0));
            if ev > ev0 {
                rec.nodes.push((name.clone(), ns - ns0, ev - ev0));
            }
        }
        for (&kind, &n) in &later.kinds {
            let n0 = self.kinds.get(kind).copied().unwrap_or(0);
            if n > n0 {
                rec.kinds.push((kind.to_string(), n - n0));
            }
        }
        for (&len, &n) in &later.bursts {
            let n0 = self.bursts.get(&len).copied().unwrap_or(0);
            if n > n0 {
                rec.bursts.push((len as u64, n - n0));
            }
        }
    }
}

/// Named engine counters at one instant.
fn counters(sim: &Sim) -> BTreeMap<String, u64> {
    sim.stats.dump_counters().into_iter().collect()
}

/// Run the simulation to each of `ends` in turn, timing every step
/// between two reference readings (`ref_before` carries the last one
/// over), and call `at_end` after each.
fn drive(
    world: &mut World,
    ends: &[Time],
    ref_before: &mut u64,
    out: &mut Slices,
    mut at_end: impl FnMut(&World, Time),
) {
    for &end in ends {
        let ev = world.sim.events_processed();
        let t = Instant::now();
        world.sim.run_until(end);
        let ns = t.elapsed().as_nanos() as u64;
        let ref_after = reference_ns();
        out.push(Slice {
            raw_ns: ns,
            ns: normalise(ns, *ref_before, ref_after),
            events: world.sim.events_processed() - ev,
        });
        *ref_before = ref_after;
        at_end(world, end);
    }
}

/// Run one repetition. `t0` is the child's start; `traced` turns on the
/// engine profiler and the telemetry ground truth (both observational).
pub fn run(spec: &'static Spec, seed: u64, traced: bool, t0: Instant) -> Result<Record, String> {
    let mut rec = Record::default();
    let mut log = SpanLog::new(t0);
    let mut ref_before = reference_ns();

    // ---- set-up: build, then warm-up slice by slice ----
    let at = log.now();
    let mut world = build(spec, seed, traced);
    world.sim.set_prof(traced);
    log.close("build", at, "round");
    rec.set("host.topo_build_s", (log.now() - at) as f64 / 1e9);
    rec.set("aux.topo_nodes", world.sim.n_nodes() as f64);
    // the build is set-up's first "slice"; its work is the nodes wired
    let build_ns = t0.elapsed().as_nanos() as u64;
    let ref_after = reference_ns();
    rec.setup_slices.push(Slice {
        raw_ns: build_ns,
        ns: normalise(build_ns, ref_before, ref_after),
        events: world.sim.n_nodes() as u64,
    });
    ref_before = ref_after;
    let at = log.now();
    drive(
        &mut world,
        &spec.setup_ends(),
        &mut ref_before,
        &mut rec.setup_slices,
        |_, _| {},
    );
    log.close("connect_warmup", at, "round");

    // ---- measured window ----
    let ends = spec.slice_ends();
    let guard_at = Time::from_ns(spec.deadline.as_ns() - spec.guard.as_ns());
    rec.slices.reserve(ends.len());
    let mut at_guard = Progress::default();
    let counters0 = counters(&world.sim);
    let gauges0 = world.gauges();
    let fresh0 = world.pool_fresh_allocs();
    let prof0 = traced.then(|| ProfSnap::take(&world.sim));
    let at = log.now();
    let allocs0 = alloc::allocs();
    drive(
        &mut world,
        &ends,
        &mut ref_before,
        &mut rec.slices,
        |world, end| {
            if end == guard_at {
                at_guard = world.progress();
            }
        },
    );
    let window_allocs = alloc::allocs() - allocs0;
    log.close("measure", at, "round");
    if let Some(p0) = &prof0 {
        p0.diff_into(&ProfSnap::take(&world.sim), &mut rec);
    }

    // ---- harvest at the deadline ----
    let at = log.now();
    let end = world.progress();
    let h = world.harvest();
    if h.measured == 0 {
        return Err(format!("{}: no request completed in the window", spec.name));
    }
    let cdf = h.latency.cdf();
    let samples = h.latency.count();
    let beyond = (samples as f64 * (1.0 - spec.tail_q)).floor();
    let overdue = at_guard.issued.saturating_sub(end.completed + end.dead);
    let failed = overdue + end.dead + h.bad_frames + h.conns_failed;
    let attempted = at_guard.issued.max(1);
    let window_s = spec.window_s();
    rec.set("e2e.sim_rps", h.measured as f64 / window_s);
    rec.set(
        "e2e.sim_goodput_gbps",
        h.payload_bytes as f64 * 8.0 / window_s / 1e9,
    );
    rec.set(
        "e2e.sim_lat_p50_us",
        interp_quantile(&cdf, samples, 0.5) / 1e3,
    );
    rec.set(
        "e2e.sim_lat_tail_us",
        interp_quantile(&cdf, samples, spec.tail_q) / 1e3,
    );
    rec.set("e2e.sim_jain", jain_index(&h.flows));
    rec.set(
        "e2e.ok_frac",
        1.0 - (failed.min(attempted) as f64 / attempted as f64),
    );
    rec.set(
        "e2e.allocs_per_req",
        window_allocs as f64 / h.measured as f64,
    );
    rec.set("aux.attempted", attempted as f64);
    rec.set("aux.failed", failed as f64);
    rec.set("aux.overdue", overdue as f64);
    rec.set("aux.bad_frames", h.bad_frames as f64);
    rec.set("aux.measured", h.measured as f64);
    rec.set("aux.samples_beyond_tail", beyond);
    rec.set("aux.lat_max_us", h.latency.max() as f64 / 1e3);
    rec.set(
        "aux.events",
        rec.slices.iter().map(|s| s.events).sum::<u64>() as f64,
    );

    if traced {
        layer_counts(&world, &counters0, &gauges0, fresh0, &h, &mut rec);
        rec.set("layer.apps.latency_samples", samples as f64);
    }
    log.close("harvest", at, "round");

    // ---- drain and audit ----
    if spec.drain > Duration::ZERO {
        let at = log.now();
        world.stop_clients();
        world.sim.run_until(spec.deadline + spec.drain);
        log.close("drain", at, "round");
        rec.set("aux.buf_balance", world.buf_balance() as f64);
    }

    rec.set("host.peak_rss_mb", peak_rss_mb()?);
    log.close("round", 0, "-");
    rec.spans = log.spans;
    Ok(rec)
}

/// Simulated-side per-layer counts over the measured window (high-water
/// marks are over the whole run). Keys become `layer.<metric>` scalars.
fn layer_counts(
    world: &World,
    counters0: &BTreeMap<String, u64>,
    gauges0: &flextoe_core::PoolGauges,
    fresh0: u64,
    h: &Harvest,
    rec: &mut Record,
) {
    let sim = &world.sim;
    let now = counters(sim);
    let delta = |name: &str| -> f64 {
        let a = now.get(name).copied().unwrap_or(0);
        a.saturating_sub(counters0.get(name).copied().unwrap_or(0)) as f64
    };
    let measured = rec.get("aux.measured");
    let mut set = |name: &str, v: f64| rec.set(&format!("layer.{name}"), v);

    set("core.proto.ooo", delta("proto.ooo"));
    set("core.proto.fast_retx", delta("proto.fast_retx"));
    set("core.proto.rto_retx", delta("proto.rto_retx"));
    set("core.pool_exhausted", delta("nic.pool_exhausted"));
    set("core.pre.malformed", delta("pre.malformed"));
    set("core.ctxq.notify_drops", delta("ctxq.notify_drops"));

    let g = world.gauges();
    set("core.work_pool_hwm", g.work_high_water as f64);
    set("nfp.pktbuf_hwm", g.seg_high_water as f64);
    set("nfp.conn_cache.hwm", g.cache_high_water as f64);
    let dram = (g.cache_dram_accesses - gauges0.cache_dram_accesses) as f64;
    let hits = (g.cache_local_hits + g.cache_cls_hits + g.cache_sram_hits)
        - (gauges0.cache_local_hits + gauges0.cache_cls_hits + gauges0.cache_sram_hits);
    let accesses = dram + hits as f64;
    set(
        "nfp.conn_cache.dram_frac",
        if accesses > 0.0 { dram / accesses } else { 0.0 },
    );
    set("nfp.mac.tx_drops", delta("mac.tx_drops"));

    // every (switch, port) the builder wired, for the queue gauges
    let (mut peak, mut busiest_avg) = (0usize, 0.0f64);
    if let Some(fab) = world.fabric() {
        let ports = fab.edge_recs.iter().map(|r| (r.edge, r.down_port)).chain(
            fab.fabric_pairs
                .iter()
                .flat_map(|p| [(p.a, p.port_a), (p.b, p.port_b)]),
        );
        for (sw, port) in ports {
            let (p, avg) = sim
                .node_ref::<Switch>(fab.switches[sw])
                .queue_occupancy(port, sim.now().as_ns());
            peak = peak.max(p);
            busiest_avg = busiest_avg.max(avg);
        }
    }
    set("netsim.switch.queue_peak_kb", peak as f64 / 1024.0);
    set("netsim.switch.queue_avg_kb", busiest_avg / 1024.0);
    set(
        "netsim.switch.drops",
        delta("switch.tail_drops") + delta("switch.wred_drops"),
    );
    set("netsim.switch.ecn_marked", delta("switch.ecn_marked"));
    set(
        "netsim.switch.frames_per_req",
        delta("switch.routed") / measured,
    );
    set(
        "netsim.link.drops",
        [
            "link.drops",
            "link.ge_drops",
            "link.size_drops",
            "link.down_drops",
        ]
        .iter()
        .map(|n| delta(n))
        .sum(),
    );
    set("netsim.link.duplicated", delta("link.duplicated"));

    set("telemetry.sweeps", delta("telemetry.sweeps"));
    set("telemetry.report_bytes", delta("telemetry.report_bytes"));
    let (are_cm, are_lsb) = sketch_error(world);
    set("telemetry.are_cm", are_cm);
    set("telemetry.are_lsb", are_lsb);

    set("control.rto_fired", delta("ctrl.rto_fired"));
    set("control.aborts", delta("ctrl.abort"));
    set("control.teardowns", delta("ctrl.teardown"));
    set("control.admission_refused", delta("ctrl.admission_refused"));

    let (acks, reports) = (delta("ccp.events"), delta("ccp.reports"));
    set("ccp.acks_folded", acks);
    set("ccp.reports", reports);
    set("ccp.batches", delta("ccp.batches"));
    set(
        "ccp.acks_per_report",
        if reports > 0.0 { acks / reports } else { 0.0 },
    );

    set("apps.backlog_end", h.backlog_end as f64);
    set("apps.conns_failed", h.conns_failed as f64);
    set(
        "sim.pool_fresh_allocs",
        (world.pool_fresh_allocs() - fresh0) as f64,
    );
}

/// Flow-weighted average relative error of the collector's merged
/// count-min and LSB views against each switch's exact per-flow bytes
/// (whole run; needs the ground-truth maps, i.e. a traced run).
fn sketch_error(world: &World) -> (f64, f64) {
    let Some(fab) = world.fabric() else {
        return (0.0, 0.0);
    };
    let Some(col) = fab.collector else {
        return (0.0, 0.0);
    };
    let col = world.sim.node_ref::<Collector>(col);
    let (mut cm_w, mut lsb_w, mut flows) = (0.0, 0.0, 0.0);
    for (i, &s) in fab.switches.iter().enumerate() {
        let Some(truth_map) = world.sim.node_ref::<Switch>(s).telemetry_truth() else {
            continue;
        };
        let mut truth: Vec<(u64, u64)> = truth_map.iter().map(|(&k, &v)| (k, v)).collect();
        truth.sort_unstable();
        let v = &col.views()[i];
        let cands: Vec<u64> = v.keys.iter().copied().collect();
        let n = truth.len() as f64;
        cm_w += score_sketch(&truth, |k| v.cm.estimate(k), &cands, v.bytes, 0.001).are * n;
        lsb_w += score_sketch(&truth, |k| v.lsb.estimate(k), &cands, v.bytes, 0.001).are * n;
        flows += n;
    }
    if flows == 0.0 {
        (0.0, 0.0)
    } else {
        (cm_w / flows, lsb_w / flows)
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jain_is_one_when_even_and_falls_with_skew() {
        assert_eq!(jain_index(&[5, 5, 5, 5]), 1.0);
        assert_eq!(jain_index(&[]), 1.0);
        assert!((jain_index(&[10, 0, 0, 0]) - 0.25).abs() < 1e-12);
    }
}
