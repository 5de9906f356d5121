//! Shared experiment harness: scenario runners and metric helpers used by
//! every table/figure reproduction and sweep. Topology building
//! (endpoints, the pair and star testbeds, and the declarative
//! leaf-spine/fat-tree fabrics) lives in `flextoe-topo`; the
//! long-standing names are re-exported here so experiments keep reading
//! naturally.

use flextoe_apps::{ClientSpec, ServerSpec};
use flextoe_core::PoolGauges;
use flextoe_shard::{ShardedSim, SyncStats};
use flextoe_sim::{Histogram, Sim, Tick, Time};
use flextoe_topo::{partition_fabric, Fabric, Role, Scenario};

pub use flextoe_topo::{
    add_arp, build_endpoint, build_fabric, build_pair, build_star, BuiltFabric, DynClient,
    DynServer, Endpoint, PairOpts, Stack,
};

/// Result metrics of one echo scenario.
pub struct EchoResult {
    pub rps: f64,
    pub goodput_bps: f64,
    pub latency: Histogram,
    pub per_conn_bytes: Vec<u64>,
}

/// Run a client/server echo scenario between two stacks and harvest
/// client-side metrics.
pub fn run_echo(
    seed: u64,
    client_stack: Stack,
    server_stack: Stack,
    opts: PairOpts,
    server_cfg: ServerSpec,
    client_cfg: ClientSpec,
    deadline: Time,
) -> (Sim, EchoResult) {
    let mut sim = Sim::new(seed);
    let (ea, eb) = build_pair(&mut sim, client_stack, server_stack, &opts);
    let ends = ((&ea, client_stack), (&eb, server_stack));
    let res = echo_between(&mut sim, ends, server_cfg, client_cfg, deadline);
    (sim, res)
}

/// The echo itself, between the two ends of an already built pair (for
/// callers that adjust the endpoints first): `(client, server)`, each
/// with the stack it was built as.
pub fn echo_between(
    sim: &mut Sim,
    ((ea, client_stack), (eb, server_stack)): ((&Endpoint, Stack), (&Endpoint, Stack)),
    server_cfg: ServerSpec,
    client_cfg: ClientSpec,
    deadline: Time,
) -> EchoResult {
    let server = sim.add_node(DynServer::new(server_cfg, eb.stack_init(server_stack, 1)));
    let client = sim.add_node(DynClient::new(
        ClientSpec {
            server_ip: eb.ip,
            ..client_cfg
        },
        ea.stack_init(client_stack, 1),
    ));
    sim.schedule(Time::ZERO, server, Tick);
    sim.schedule(Time::from_us(20), client, Tick);
    sim.run_until(deadline);
    let c = sim.node_ref::<DynClient>(client);
    EchoResult {
        rps: c.throughput_rps(),
        goodput_bps: c.goodput_bps(),
        latency: c.latency.clone(),
        per_conn_bytes: c.per_conn_bytes(),
    }
}

/// The traffic matrix `scale`, `faults` and `telemetry` share. Hosts come
/// in groups (a leaf's hosts, a fat-tree pod's); every even host is a
/// client — `client(host, target)` builds its role — of the odd host at
/// the same offset in the *next* group, so every RPC crosses the fabric's
/// spreading tier, and every odd host is a framed server.
pub fn cross_tier_scenario(
    seed: u64,
    fabric: Fabric,
    stack: Stack,
    client: impl Fn(usize, usize) -> Role,
) -> Scenario {
    let per_group = match fabric {
        Fabric::LeafSpine { hosts_per_leaf, .. } => hosts_per_leaf,
        Fabric::FatTree { k } => k * k / 4,
    };
    let mut sc = Scenario::idle(seed, fabric, stack);
    let n = sc.hosts.len();
    for (i, host) in sc.hosts.iter_mut().enumerate() {
        host.role = if i % 2 == 0 {
            client(i, (i / per_group + 1) * per_group % n + i % per_group + 1)
        } else {
            Role::Server(ServerSpec::framed())
        };
    }
    sc
}

/// Pool/cache gauges summed over the FlexTOE NICs this `Sim` owns (zero
/// for baseline stacks, which have no NIC pools).
pub fn owned_gauges(sim: &Sim, fab: &BuiltFabric) -> PoolGauges {
    let mut gauges = PoolGauges::default();
    for h in fab.hosts.iter().filter(|h| sim.owns(h.ep.ingress)) {
        if let Some((nic, _)) = &h.ep.flextoe {
            gauges.merge(&nic.pool_gauges(sim));
        }
    }
    gauges
}

/// One fabric scenario, running as a single `Sim` (the reference) or
/// split across conservative-PDES shards. The experiments drive both the
/// same way: [`FabricRun::run_until`], then [`FabricRun::each`] to read
/// or poke every part; whatever they sum over the parts is byte-identical
/// for any shard count.
pub enum FabricRun {
    Mono(Box<Sim>, BuiltFabric),
    Sharded(ShardedSim<BuiltFabric>),
}

impl FabricRun {
    /// Build `scenario()` once (`shards <= 1`) or once per shard worker,
    /// each worker masking to the nodes `partition_fabric` assigns it.
    pub fn launch(
        shards: usize,
        scenario: impl Fn() -> Scenario + Send + Sync + 'static,
    ) -> FabricRun {
        let build = move || {
            let mut sc = scenario();
            sc.shards = shards.max(1);
            let mut sim = Sim::new(sc.seed);
            let fab = build_fabric(&mut sim, &sc);
            (sim, fab, sc)
        };
        if shards <= 1 {
            let (sim, fab, _) = build();
            return FabricRun::Mono(Box::new(sim), fab);
        }
        FabricRun::Sharded(ShardedSim::launch(shards, move |_| {
            let (sim, fab, sc) = build();
            let part = partition_fabric(&sim, &sc, &fab, sc.shards);
            (sim, fab, part)
        }))
    }

    pub fn run_until(&mut self, deadline: Time) {
        match self {
            FabricRun::Mono(sim, _) => sim.run_until(deadline),
            FabricRun::Sharded(sharded) => sharded.run_until(deadline),
        }
    }

    /// Run `f` against every part — the one `Sim`, or every shard's in
    /// parallel — and collect the results in shard order. A part must
    /// only read nodes its `Sim` owns (`Sim::owns`; everything, for the
    /// monolithic run).
    pub fn each<R: Send + 'static>(
        &mut self,
        f: impl Fn(&mut Sim, &mut BuiltFabric) -> R + Send + Sync + 'static,
    ) -> Vec<R> {
        match self {
            FabricRun::Mono(sim, fab) => vec![f(sim, fab)],
            FabricRun::Sharded(sharded) => sharded.each(move |_, sim, fab| f(sim, fab)),
        }
    }

    /// Conservative-sync counters (`None` for the monolithic run).
    pub fn sync_stats(&self) -> Option<SyncStats> {
        match self {
            FabricRun::Mono(..) => None,
            FabricRun::Sharded(sharded) => Some(sharded.sync_stats()),
        }
    }
}

/// Format bits/second.
pub fn fmt_bps(bps: f64) -> String {
    if bps >= 1e9 {
        format!("{:6.2} Gbps", bps / 1e9)
    } else if bps >= 1e6 {
        format!("{:6.2} Mbps", bps / 1e6)
    } else {
        format!("{:6.2} Kbps", bps / 1e3)
    }
}

pub fn fmt_ops(ops: f64) -> String {
    if ops >= 1e6 {
        format!("{:5.2} MOps", ops / 1e6)
    } else {
        format!("{:5.1} kOps", ops / 1e3)
    }
}

/// Jain's fairness index over per-flow goodputs (Fig. 16, Table 4).
pub fn jain_index(xs: &[u64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let n = xs.len() as f64;
    let sum: f64 = xs.iter().map(|&x| x as f64).sum();
    let sum_sq: f64 = xs.iter().map(|&x| (x as f64) * (x as f64)).sum();
    if sum_sq == 0.0 {
        return 1.0;
    }
    sum * sum / (n * sum_sq)
}
