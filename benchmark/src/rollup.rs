//! Roll the engine profiler's per-node rows up into layers (layer =
//! crate, the FlexTOE pipeline split by stage) and derive the host-side
//! per-layer metrics: share of traced host time, events per request, and
//! host ns per event. Shares, not absolute traced ns, are the stable
//! numbers: they hold to a few tenths of a percent while wall time
//! moves by 30% between runs.

/// Every layer the roll-up reports, in report order. `sim` is the engine
/// itself (queue, dispatch, the profiler's own clock reads): traced wall
/// time minus everything attributed to a node. `other` catches node
/// types this table does not know, so a new node shows up as a share
/// instead of vanishing.
pub const LAYERS: [&str; 17] = [
    "sim",
    "core.seqr",
    "core.pre",
    "core.proto",
    "core.post",
    "core.dma",
    "core.ctxq",
    "core.sched",
    "nfp.dma_engine",
    "nfp.mac",
    "netsim.switch",
    "netsim.link",
    "telemetry.collector",
    "hoststack",
    "control",
    "apps",
    "other",
];

/// The layer a node name (as `Node::name()` reports it) belongs to.
pub fn layer_of(node: &str) -> &'static str {
    // flow-group replicas carry an index: "proto-stage[2]"
    let base = node.split('[').next().unwrap_or(node);
    match base {
        "seqr" => "core.seqr",
        "pre-stage" => "core.pre",
        "proto-stage" => "core.proto",
        "post-stage" => "core.post",
        "dma-stage" => "core.dma",
        "ctxq-stage" => "core.ctxq",
        "sched" => "core.sched",
        "dma-engine" => "nfp.dma_engine",
        "mac-port" => "nfp.mac",
        "switch" => "netsim.switch",
        "link" => "netsim.link",
        "telemetry-collector" => "telemetry.collector",
        "control-plane" => "control",
        // the libtoe shim runs inside the app nodes
        "openloop-client" | "framed-server" => "apps",
        _ if base.starts_with("hoststack-") => "hoststack",
        _ if base.starts_with("rpc-") => "apps",
        _ => "other",
    }
}

/// One layer's share of the traced window.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerRow {
    pub host_ns: u64,
    pub events: u64,
}

/// Per-layer `(host ns, events)` in [`LAYERS`] order. `traced_wall_ns` is
/// the host time of the traced window; what no node accounts for is the
/// engine's own, and the engine's event count is every event delivered.
pub fn roll_up(nodes: &[(String, u64, u64)], traced_wall_ns: u64) -> Vec<LayerRow> {
    let mut rows = vec![LayerRow::default(); LAYERS.len()];
    let (mut node_ns, mut events) = (0u64, 0u64);
    for (name, ns, ev) in nodes {
        let layer = layer_of(name);
        let row = &mut rows[LAYERS.iter().position(|&l| l == layer).unwrap()];
        row.host_ns += ns;
        row.events += ev;
        node_ns += ns;
        events += ev;
    }
    rows[0] = LayerRow {
        host_ns: traced_wall_ns.saturating_sub(node_ns),
        events,
    };
    rows
}

/// The three host-side metrics of every layer, as
/// `(metric name, value, unit)`, from a roll-up over a window in which
/// `requests` requests completed.
pub fn layer_metrics(
    rows: &[LayerRow],
    traced_wall_ns: u64,
    requests: f64,
) -> Vec<(String, f64, &'static str)> {
    let mut out = Vec::with_capacity(rows.len() * 3);
    for (layer, row) in LAYERS.iter().zip(rows) {
        out.push((
            format!("{layer}.host_share"),
            row.host_ns as f64 / traced_wall_ns.max(1) as f64,
            "ratio",
        ));
        out.push((
            format!("{layer}.events_per_req"),
            row.events as f64 / requests,
            "count",
        ));
        out.push((
            format!("{layer}.host_ns_per_event"),
            row.host_ns as f64 / row.events.max(1) as f64,
            "ns",
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_node_name_in_the_repo_lands_in_its_layer() {
        for (node, layer) in [
            ("seqr", "core.seqr"),
            ("pre-stage", "core.pre"),
            ("proto-stage[0]", "core.proto"),
            ("proto-stage[3]", "core.proto"),
            ("post-stage[1]", "core.post"),
            ("dma-stage", "core.dma"),
            ("ctxq-stage", "core.ctxq"),
            ("sched", "core.sched"),
            ("dma-engine", "nfp.dma_engine"),
            ("mac-port", "nfp.mac"),
            ("switch", "netsim.switch"),
            ("link", "netsim.link"),
            ("telemetry-collector", "telemetry.collector"),
            ("hoststack-tas", "hoststack"),
            ("hoststack-linux", "hoststack"),
            ("control-plane", "control"),
            ("rpc-client", "apps"),
            ("rpc-server", "apps"),
            ("openloop-client", "apps"),
            ("framed-server", "apps"),
            ("a-node-from-the-future", "other"),
        ] {
            assert_eq!(layer_of(node), layer, "{node}");
            assert!(LAYERS.contains(&layer));
        }
    }

    #[test]
    fn roll_up_accounts_for_all_traced_time() {
        let nodes = vec![
            ("proto-stage[0]".to_string(), 300, 3),
            ("proto-stage[1]".to_string(), 100, 1),
            ("switch".to_string(), 200, 4),
            ("mystery".to_string(), 50, 2),
        ];
        let wall = 1_000;
        let rows = roll_up(&nodes, wall);
        let at = |l: &str| rows[LAYERS.iter().position(|&x| x == l).unwrap()];
        assert_eq!(
            at("core.proto"),
            LayerRow {
                host_ns: 400,
                events: 4
            }
        );
        assert_eq!(at("netsim.switch").events, 4);
        assert_eq!(at("other").host_ns, 50);
        assert_eq!(at("hoststack"), LayerRow::default());
        // the engine gets the remainder and sees every event
        assert_eq!(
            at("sim"),
            LayerRow {
                host_ns: 350,
                events: 10
            }
        );
        assert_eq!(rows.iter().map(|r| r.host_ns).sum::<u64>(), wall);

        let m = layer_metrics(&rows, wall, 2.0);
        assert_eq!(m.len(), LAYERS.len() * 3);
        let get = |n: &str| m.iter().find(|x| x.0 == n).unwrap().1;
        assert_eq!(get("core.proto.host_share"), 0.4);
        assert_eq!(get("core.proto.events_per_req"), 2.0);
        assert_eq!(get("core.proto.host_ns_per_event"), 100.0);
        assert_eq!(get("hoststack.host_share"), 0.0);
        let shares: f64 = LAYERS.iter().map(|l| get(&format!("{l}.host_share"))).sum();
        assert!((shares - 1.0).abs() < 1e-12);
    }
}
