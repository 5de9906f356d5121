//! The metric tables: one source of truth for the names, units,
//! directions and bounds that `BENCHMARK.json`, the README and the
//! program's own output all use. `--emit-benchmark-json` prints the
//! manifest from these tables and a unit test pins the committed file to
//! that text.

use crate::kernels::KERNELS;
use crate::rollup::LAYERS;
use crate::workloads::SPECS;

/// How long one driver run measures (`--seconds`).
pub const RUN_SECONDS: u32 = 30;

pub struct E2eMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// The end-to-end metrics, same names on every workload.
///
/// The bounds are what this box can hold, not what one would wish for:
/// the driver measures each run on a *different* seed, so a bound has to
/// cover seed-to-seed variation of the workload (Poisson counts, Pareto
/// byte totals, loss draws) on top of host noise, on the worst of the
/// four workloads. Each is at least three times the widest interquartile
/// spread seen over ten seeds (README, "End-to-end metrics"). On a fixed
/// seed every `sim_*` metric repeats exactly.
pub const E2E: [E2eMetric; 10] = [
    E2eMetric {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    E2eMetric {
        name: "host_run_s",
        unit: "s",
        better: "lower",
        bound: 0.2,
    },
    E2eMetric {
        name: "host_peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.05,
    },
    E2eMetric {
        name: "allocs_per_req",
        unit: "count",
        better: "lower",
        bound: 0.04,
    },
    E2eMetric {
        name: "sim_rps",
        unit: "req/s",
        better: "higher",
        bound: 0.12,
    },
    E2eMetric {
        name: "sim_goodput_gbps",
        unit: "Gbit/s",
        better: "higher",
        bound: 0.12,
    },
    E2eMetric {
        name: "sim_lat_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.1,
    },
    E2eMetric {
        name: "sim_lat_tail_us",
        unit: "us",
        better: "lower",
        bound: 0.2,
    },
    E2eMetric {
        name: "sim_jain",
        unit: "ratio",
        better: "higher",
        bound: 0.01,
    },
    E2eMetric {
        name: "ok_frac",
        unit: "ratio",
        better: "higher",
        bound: 0.001,
    },
];

pub fn e2e(name: &str) -> &'static E2eMetric {
    E2E.iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no end-to-end metric {name}"))
}

/// `(name, unit, better)` of the per-layer counts the traced child
/// reports as `layer.<name>` scalars.
pub const LAYER_COUNTS: [(&str, &str, &str); 34] = [
    ("core.proto.ooo", "count", "lower"),
    ("core.proto.fast_retx", "count", "lower"),
    ("core.proto.rto_retx", "count", "lower"),
    ("core.work_pool_hwm", "count", "lower"),
    ("core.pool_exhausted", "count", "lower"),
    ("core.pre.malformed", "count", "lower"),
    ("core.ctxq.notify_drops", "count", "lower"),
    ("nfp.conn_cache.hwm", "count", "lower"),
    ("nfp.conn_cache.dram_frac", "ratio", "lower"),
    ("nfp.pktbuf_hwm", "count", "lower"),
    ("nfp.mac.tx_drops", "count", "lower"),
    ("netsim.switch.queue_peak_kb", "KiB", "lower"),
    ("netsim.switch.queue_avg_kb", "KiB", "lower"),
    ("netsim.switch.drops", "count", "lower"),
    ("netsim.switch.ecn_marked", "count", "lower"),
    ("netsim.switch.frames_per_req", "count", "lower"),
    ("netsim.link.drops", "count", "lower"),
    ("netsim.link.duplicated", "count", "lower"),
    ("telemetry.sweeps", "count", "lower"),
    ("telemetry.report_bytes", "B", "lower"),
    ("telemetry.are_cm", "ratio", "lower"),
    ("telemetry.are_lsb", "ratio", "lower"),
    ("control.rto_fired", "count", "lower"),
    ("control.aborts", "count", "lower"),
    ("control.teardowns", "count", "lower"),
    ("control.admission_refused", "count", "lower"),
    ("ccp.acks_folded", "count", "lower"),
    ("ccp.reports", "count", "lower"),
    ("ccp.batches", "count", "lower"),
    ("ccp.acks_per_report", "count", "higher"),
    ("apps.backlog_end", "count", "lower"),
    ("apps.conns_failed", "count", "lower"),
    ("apps.latency_samples", "count", "higher"),
    ("sim.pool_fresh_allocs", "count", "lower"),
];

/// `(name, unit, better)` of the engine- and build-level extras.
pub const SIM_EXTRAS: [(&str, &str, &str); 6] = [
    ("sim.host_events_per_s", "1/s", "higher"),
    ("sim.burst_singleton_frac", "ratio", "lower"),
    ("sim.msg_kind_top", "count", "lower"),
    ("sim.trace_overhead_frac", "ratio", "lower"),
    ("topo.build_s", "s", "lower"),
    ("topo.nodes", "count", "lower"),
];

/// Every per-layer metric a `--trace 1` run prints, in report order.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut v = Vec::new();
    for layer in LAYERS {
        v.push((format!("{layer}.host_share"), "ratio", "lower"));
        v.push((format!("{layer}.events_per_req"), "count", "lower"));
        v.push((format!("{layer}.host_ns_per_event"), "ns", "lower"));
    }
    for (name, unit, better) in SIM_EXTRAS.iter().chain(&LAYER_COUNTS) {
        v.push((name.to_string(), *unit, *better));
    }
    for (name, unit) in KERNELS {
        v.push((name.to_string(), unit, "lower"));
    }
    v
}

/// How the metrics interact: which end-to-end metric each layer metric
/// should move, on which workload — predictions, written down before any
/// optimisation and to be checked by the issues that make them. (Kept
/// here and in `results.json` because `BENCHMARK.json` has a fixed set
/// of keys.)
pub const MOVES: [(&str, &str); 16] = [
    (
        "sim.host_ns_per_event, sim.kernel.dispatch_*",
        "down => host_run_s down on all four workloads by about sim.host_share; every sim_* identical",
    ),
    (
        "core.<stage>.host_share / host_ns_per_event, nfp.*.host_share",
        "down => host_run_s down on echo_pair, fabric_flextoe, incast_lossy; no change on fabric_tas",
    ),
    (
        "hoststack.host_share / host_ns_per_event",
        "down => host_run_s down on fabric_tas only",
    ),
    (
        "netsim.switch.host_ns_per_event, netsim.link.host_ns_per_event",
        "down => host_run_s down on both fabric workloads and incast_lossy; no change on echo_pair (no switch)",
    ),
    (
        "telemetry.kernel.sketch_update_ns, telemetry.collector.*",
        "down => host_run_s down on both fabric workloads only; telemetry.are_cm / are_lsb must not rise",
    ),
    (
        "control.*, ccp.*, ebpf.kernel.fold_vm_ns_per_ack, ccp.kernel.fold_native_ns_per_ack",
        "=> host_run_s on incast_lossy only; ccp.acks_per_report up => fewer control events per ACK",
    ),
    (
        "core.proto.ooo / fast_retx / rto_retx, control.rto_fired, netsim.link.drops",
        "=> sim_goodput_gbps, sim_lat_tail_us, sim_jain, ok_frac on incast_lossy",
    ),
    (
        "nfp.conn_cache.dram_frac, nfp.kernel.conn_cache_access_ns",
        "state-cache misses => sim_lat_p50_us on fabric_flextoe (2048 conns spill CLS to EMEM SRAM); no effect on echo_pair (16 conns); dram_frac is 0 on all four after warm-up and shows a working-set change",
    ),
    (
        "netsim.switch.queue_peak_kb / queue_avg_kb / ecn_marked / drops",
        "=> sim_lat_tail_us on the fabric workloads and incast_lossy",
    ),
    (
        "<layer>.events_per_req, sim.msg_kind_top, netsim.switch.frames_per_req",
        "down at constant ns/event => host_run_s down in proportion to the layer's host_share",
    ),
    (
        "sim.pool_fresh_allocs, allocs_per_req",
        "up => host_run_s and host_peak_rss_mb up",
    ),
    (
        "sim.burst_singleton_frac",
        "down => more events ride a burst: sim.host_ns_per_event down where bursts pay (not echo_pair, ~96% singletons)",
    ),
    (
        "topo.build_s, topo.nodes",
        "=> setup_s on the fabric workloads",
    ),
    (
        "wire.kernel.*, core.kernel.reorder_push_ns",
        "down => core.pre / core.proto / nfp.mac host_ns_per_event down; reorder matters on incast_lossy",
    ),
    (
        "sim.trace_overhead_frac",
        "cost of observing: end-to-end numbers come from untraced runs only",
    ),
    (
        "shard",
        "exercised by no workload (one single-threaded child at a time; with 2 shared vCPUs a 2-thread run measures the scheduler)",
    ),
];

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit the value has (`{}` on f64 prints the
/// shortest text that round-trips). JSON has no NaN or infinity.
pub fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not a JSON number");
    format!("{v}")
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, w) in SPECS.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": {}, \"why\": {}}}{}\n",
            json_str(w.name),
            json_str(w.why),
            if i + 1 == SPECS.len() { "" } else { "," }
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in E2E.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{}\n",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better),
            json_num(m.bound),
            if i + 1 == E2E.len() { "" } else { "," }
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer();
    for (i, (name, unit, better)) in layers.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{}\n",
            json_str(name),
            json_str(unit),
            json_str(better),
            if i + 1 == layers.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_manifest_limits() {
        let layers = per_layer();
        assert!((1..=128).contains(&layers.len()), "{}", layers.len());
        assert!((2..=8).contains(&SPECS.len()));
        let mut names: Vec<&str> = E2E.iter().map(|m| m.name).collect();
        names.extend(layers.iter().map(|l| l.0.as_str()));
        names.extend(SPECS.iter().map(|w| w.name));
        for n in &names {
            assert!(valid_name(n), "bad name {n}");
        }
        let unique: std::collections::BTreeSet<&&str> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for m in &E2E {
            assert!(valid_unit(m.unit), "{}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(["lower", "higher"].contains(&m.better));
        }
        for (_, unit, better) in &layers {
            assert!(valid_unit(unit), "{unit}");
            assert!(["lower", "higher"].contains(better));
        }
        let setup = e2e("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(E2E.iter().all(|m| m.bound <= setup.bound));
        for w in &SPECS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(!w.why.contains("  "), "{}", w.name);
        }
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `run.sh --emit-benchmark-json > BENCHMARK.json`"
        );
    }

    #[test]
    fn json_strings_escape() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_num(0.25), "0.25");
    }
}
