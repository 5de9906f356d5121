//! Fabric instantiation: turn a [`Scenario`] into a wired simulation —
//! switches with ECMP routing tables, bidirectional links, host
//! endpoints, full-mesh ARP, application nodes, kick-off events, and the
//! fault schedule.
//!
//! ```text
//!        spine0          spine1            ┐ routes: host ip → leaf port
//!       ╱  |  ╲  ╳      ╱  |  ╲            ┘ (single path down)
//!   leaf0  leaf1  leaf2  leaf3             ┐ local hosts: MAC table
//!    │ │    │ │    │ │    │ │              │ remote hosts: ECMP over
//!   h0 h1  h2 h3  h4 h5  h6 h7             ┘ all spine uplinks
//! ```
//!
//! Every switch gets its own ECMP hash salt drawn from the simulation's
//! seeded generator, so path selection is deterministic per seed but
//! decorrelated between switches (no fabric-wide polarization).

use flextoe_apps::{Client, Server, StackApi};
use flextoe_netsim::{
    Collector, Link, SetFaults, SetLinkUp, SetPortUp, SetSwitchAlive, SetSwitchLimp, Switch,
};
use flextoe_sim::{NodeId, Sim, Tick, Time};
use flextoe_wire::{Ip4, MacAddr};

use crate::host::{add_arp, build_endpoint, Endpoint, PairOpts, Stack};
use crate::spec::{Fabric, FaultKind, FaultTarget, LinkClass, LinkScope, Scenario};

/// The client and the server over any stack (the builder erases the
/// stack type).
pub type DynClient = Client<Box<dyn StackApi>>;
pub type DynServer = Server<Box<dyn StackApi>>;
/// The older names `benchmark/` reads.
pub type DynOpenLoopClient = DynClient;
pub type DynFramedServer = DynServer;

/// What kind of application a built host ended up with (consumers select
/// client/server nodes by this instead of re-deriving the scenario's
/// host-layout convention).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BuiltRole {
    Idle,
    Server,
    Client,
}

/// Wiring record for one bidirectional switch↔switch connection: which
/// switch/port feeds which link node. Hard fault events resolve through
/// these so a link going down also marks the feeding port dead (and ECMP
/// finalization stops hashing onto it).
#[derive(Clone, Copy, Debug)]
pub struct FabricPair {
    /// Switch indices (into [`BuiltFabric::switches`]).
    pub a: usize,
    pub b: usize,
    /// Port on `a` feeding `l_ab`, port on `b` feeding `l_ba`.
    pub port_a: usize,
    pub port_b: usize,
    /// Link nodes a→b and b→a.
    pub l_ab: NodeId,
    pub l_ba: NodeId,
}

/// Wiring record for one host's edge attachment.
#[derive(Clone, Copy, Debug)]
pub struct EdgeRec {
    pub host: usize,
    /// Index of the edge switch (into [`BuiltFabric::switches`]).
    pub edge: usize,
    /// Host→switch link node.
    pub uplink: NodeId,
    /// Switch→host link node and the edge-switch port feeding it.
    pub downlink: NodeId,
    pub down_port: usize,
}

pub struct BuiltHost {
    pub ep: Endpoint,
    pub stack: Stack,
    /// The host's application node, if its role has one.
    pub app: Option<NodeId>,
    pub role: BuiltRole,
    /// Index into [`BuiltFabric::switches`] of the host's edge switch.
    pub edge_switch: usize,
}

impl BuiltHost {
    /// The client node, if this host runs one.
    pub fn client(&self) -> Option<NodeId> {
        (self.role == BuiltRole::Client)
            .then_some(self.app)
            .flatten()
    }
}

/// A fully wired fabric. Switch order: leaf-spine lists leaves then
/// spines; fat-tree lists edges (pod-major), then aggregations
/// (pod-major), then cores.
pub struct BuiltFabric {
    pub hosts: Vec<BuiltHost>,
    pub switches: Vec<NodeId>,
    /// Host↔edge-switch links (both directions).
    pub edge_links: Vec<NodeId>,
    /// Switch↔switch links (both directions).
    pub fabric_links: Vec<NodeId>,
    /// Switch↔switch wiring records, in wiring order —
    /// `FaultTarget::FabricLink { index }` indexes this list.
    pub fabric_pairs: Vec<FabricPair>,
    /// Per-host edge wiring records (one per host, host order).
    pub edge_recs: Vec<EdgeRec>,
    /// The telemetry collector node, when the scenario wires a
    /// telemetry plane ([`crate::spec::Scenario::telemetry`]).
    pub collector: Option<NodeId>,
}

impl BuiltFabric {
    pub fn host_ips(&self) -> Vec<Ip4> {
        self.hosts.iter().map(|h| h.ep.ip).collect()
    }
}

/// In-flight switch state while the topology is being wired (the node id
/// is reserved up front because links point at switches and vice versa).
struct Sw {
    node: NodeId,
    sw: Switch,
}

fn make_switches(sim: &mut Sim, count: usize) -> Vec<Sw> {
    (0..count)
        .map(|_| {
            let node = sim.reserve_node();
            let mut sw = Switch::new();
            // key the ECMP hash off the sim's seeded xoshiro stream: one
            // salt per switch, drawn in wiring order
            sw.set_ecmp_salt(sim.rng.next_u64());
            Sw { node, sw }
        })
        .collect()
}

/// Bidirectional switch↔switch connection; returns the port ids
/// `(on_a, on_b)` and records the two link nodes.
fn connect_switches(
    sim: &mut Sim,
    switches: &mut [Sw],
    a: usize,
    b: usize,
    class: &LinkClass,
    links: &mut Vec<NodeId>,
    pairs: &mut Vec<FabricPair>,
) -> (usize, usize) {
    let l_ab = sim.reserve_node();
    let l_ba = sim.reserve_node();
    let pa = switches[a].sw.add_port(l_ab, class.port);
    let pb = switches[b].sw.add_port(l_ba, class.port);
    sim.fill_node(
        l_ab,
        Link::with_faults(switches[b].node, class.propagation, class.faults),
    );
    sim.fill_node(
        l_ba,
        Link::with_faults(switches[a].node, class.propagation, class.faults),
    );
    links.push(l_ab);
    links.push(l_ba);
    pairs.push(FabricPair {
        a,
        b,
        port_a: pa,
        port_b: pb,
        l_ab,
        l_ba,
    });
    (pa, pb)
}

/// Attach every host to its edge switch (uplink + downlink links, MAC
/// learning). Returns endpoints and the edge link nodes.
fn attach_hosts(
    sim: &mut Sim,
    sc: &Scenario,
    edge_of_host: &[usize],
    switches: &mut [Sw],
) -> (Vec<Endpoint>, Vec<NodeId>, Vec<EdgeRec>) {
    let class = &sc.links.edge;
    let mut eps = Vec::new();
    let mut links = Vec::new();
    let mut recs = Vec::new();
    for (i, spec) in sc.hosts.iter().enumerate() {
        let edge = edge_of_host[i];
        let uplink = sim.reserve_node();
        let ep = build_endpoint(sim, spec.stack, (i + 1) as u8, uplink, &sc.opts);
        sim.fill_node(
            uplink,
            Link::with_faults(switches[edge].node, class.propagation, class.faults),
        );
        let downlink = sim.reserve_node();
        let port = switches[edge].sw.add_port(downlink, class.port);
        switches[edge].sw.learn(ep.mac, port);
        sim.fill_node(
            downlink,
            Link::with_faults(ep.ingress, class.propagation, class.faults),
        );
        links.push(uplink);
        links.push(downlink);
        recs.push(EdgeRec {
            host: i,
            edge,
            uplink,
            downlink,
            down_port: port,
        });
        eps.push(ep);
    }
    (eps, links, recs)
}

/// ARP full mesh, app instantiation, kick-off events, fault schedule —
/// everything downstream of the wiring, shared by both fabric shapes.
#[allow(clippy::too_many_arguments)]
fn finalize(
    sim: &mut Sim,
    sc: &Scenario,
    eps: Vec<Endpoint>,
    edge_of_host: Vec<usize>,
    mut switches: Vec<Sw>,
    edge_links: Vec<NodeId>,
    fabric_links: Vec<NodeId>,
    fabric_pairs: Vec<FabricPair>,
    edge_recs: Vec<EdgeRec>,
) -> BuiltFabric {
    let switch_ids: Vec<NodeId> = switches.iter().map(|s| s.node).collect();

    // Telemetry plane: a collector node, per-switch sketch state, and
    // pre-scheduled epoch sweeps (pre-scheduled so an idle fabric still
    // terminates — the collector never self-wakes). Everything here is
    // conditional on the knob: a telemetry-less scenario reserves no
    // node and draws nothing from the RNG, keeping existing fabrics
    // byte-identical.
    let mut collector = None;
    if let Some(tel) = &sc.telemetry {
        let col_node = sim.reserve_node();
        for (i, s) in switches.iter_mut().enumerate() {
            s.sw.enable_telemetry(i as u32, col_node, tel);
        }
        sim.fill_node(col_node, Collector::new(*tel, switch_ids.clone()));
        for k in 1..=tel.sweeps {
            sim.schedule(Time::ZERO + tel.epoch * k as u64, col_node, Tick);
        }
        collector = Some(col_node);
    }

    for s in switches {
        sim.fill_node(s.node, s.sw);
    }

    // every host resolves every other host
    let all: Vec<(Ip4, MacAddr)> = eps.iter().map(|e| (e.ip, e.mac)).collect();
    for ep in &eps {
        for &(ip, mac) in &all {
            if ip != ep.ip {
                add_arp(sim, ep, ip, mac);
            }
        }
    }

    // applications
    let mut hosts = Vec::new();
    let mut n_clients = 0u64;
    for ((i, spec), ep) in sc.hosts.iter().enumerate().zip(eps) {
        let (app, role) = if let Some(cfg) = spec.role.server() {
            let node = sim.add_node(DynServer::new(cfg, ep.stack_init(spec.stack, 1)));
            sim.schedule(Time::ZERO, node, Tick);
            (Some(node), BuiltRole::Server)
        } else if let Some((mut cfg, target)) = spec.role.client() {
            assert!(target < sc.hosts.len(), "client target out of range");
            assert_ne!(target, i, "client targeting itself");
            cfg.server_ip = Ip4::host((target + 1) as u8);
            // the target's address is authoritative — port included, so a
            // reconfigured server port can't silently strand every connect
            // on the default
            if let Some(server) = sc.hosts[target].role.server() {
                cfg.server_port = server.port;
            }
            let node = sim.add_node(DynClient::new(cfg, ep.stack_init(spec.stack, 1)));
            sim.schedule(sc.client_start + sc.client_stagger * n_clients, node, Tick);
            n_clients += 1;
            (Some(node), BuiltRole::Client)
        } else {
            (None, BuiltRole::Idle)
        };
        hosts.push(BuiltHost {
            ep,
            stack: spec.stack,
            app,
            role,
            edge_switch: edge_of_host[i],
        });
    }

    // Fault schedule. Same-timestamp events must apply in a deterministic
    // order: sort by (at, schedule index) — the event wheel preserves
    // enqueue order within a timestamp, so scheduling in this order fixes
    // the application order of flap trains touching one target at one
    // instant. Overlapping targets are last-writer-wins; healing is
    // always an explicit scheduled `Up`/`Degrade(default)` event.
    let mut schedule: Vec<(usize, &crate::spec::FaultEvent)> =
        sc.fault_schedule.iter().enumerate().collect();
    schedule.sort_by_key(|&(i, ev)| (ev.at, i));
    for (_, ev) in schedule {
        apply_fault_event(sim, ev, &switch_ids, &fabric_pairs, &edge_recs);
    }

    BuiltFabric {
        hosts,
        switches: switch_ids,
        edge_links,
        fabric_links,
        fabric_pairs,
        edge_recs,
        collector,
    }
}

/// Expand one [`crate::spec::FaultEvent`] into the admin messages the
/// netsim nodes understand: `SetFaults` for probabilistic degradation,
/// `SetLinkUp` + `SetPortUp` for hard link state (the feeding switch port
/// dies with its link so ECMP finalization excludes it), and
/// `SetSwitchAlive` + neighbor `SetPortUp` for switch kill/heal.
fn apply_fault_event(
    sim: &mut Sim,
    ev: &crate::spec::FaultEvent,
    switch_ids: &[NodeId],
    fabric_pairs: &[FabricPair],
    edge_recs: &[EdgeRec],
) {
    // (link node, Some((switch node, port)) feeding it) sets per target
    let scope_links = |scope: LinkScope| -> Vec<(NodeId, Option<(NodeId, usize)>)> {
        let edge = edge_recs.iter().flat_map(|r| {
            [
                (r.uplink, None), // host→switch: the NIC has no port health
                (r.downlink, Some((switch_ids[r.edge], r.down_port))),
            ]
        });
        let fabric = fabric_pairs.iter().flat_map(|p| {
            [
                (p.l_ab, Some((switch_ids[p.a], p.port_a))),
                (p.l_ba, Some((switch_ids[p.b], p.port_b))),
            ]
        });
        match scope {
            LinkScope::Edge => edge.collect(),
            LinkScope::Fabric => fabric.collect(),
            LinkScope::All => edge.chain(fabric).collect(),
        }
    };
    let targets: Vec<(NodeId, Option<(NodeId, usize)>)> = match ev.target {
        FaultTarget::Links(scope) => scope_links(scope),
        FaultTarget::EdgeLink { host } => {
            let r = edge_recs[host];
            vec![
                (r.uplink, None),
                (r.downlink, Some((switch_ids[r.edge], r.down_port))),
            ]
        }
        FaultTarget::FabricLink { index } => {
            let p = fabric_pairs[index];
            vec![
                (p.l_ab, Some((switch_ids[p.a], p.port_a))),
                (p.l_ba, Some((switch_ids[p.b], p.port_b))),
            ]
        }
        FaultTarget::Switch { index } => {
            let alive = match ev.kind {
                FaultKind::Up => true,
                FaultKind::Down => false,
                FaultKind::Degrade(_) => {
                    panic!("FaultKind::Degrade needs a link target, not a switch")
                }
                FaultKind::Limp { factor } => {
                    // gray: the switch keeps forwarding, just slower —
                    // neighbor ports stay up so ECMP keeps hashing onto it
                    sim.schedule(ev.at, switch_ids[index], SetSwitchLimp(factor));
                    return;
                }
            };
            sim.schedule(ev.at, switch_ids[index], SetSwitchAlive(alive));
            // every neighbor's facing port follows the switch state, so
            // surviving switches reroute/blackhole instead of queueing
            // onto a dead path; attached hosts' links stay up (frames
            // reaching the dead switch are dropped and counted there)
            for p in fabric_pairs {
                if p.a == index {
                    sim.schedule(
                        ev.at,
                        switch_ids[p.b],
                        SetPortUp {
                            port: p.port_b,
                            up: alive,
                        },
                    );
                } else if p.b == index {
                    sim.schedule(
                        ev.at,
                        switch_ids[p.a],
                        SetPortUp {
                            port: p.port_a,
                            up: alive,
                        },
                    );
                }
            }
            return;
        }
    };
    match ev.kind {
        FaultKind::Degrade(faults) => {
            for (link, _) in targets {
                sim.schedule(ev.at, link, SetFaults(faults));
            }
        }
        FaultKind::Down | FaultKind::Up => {
            let up = matches!(ev.kind, FaultKind::Up);
            for (link, feed) in targets {
                sim.schedule(ev.at, link, SetLinkUp(up));
                if let Some((sw, port)) = feed {
                    sim.schedule(ev.at, sw, SetPortUp { port, up });
                }
            }
        }
        FaultKind::Limp { .. } => {
            panic!("FaultKind::Limp needs a switch target; limp a link via Degrade + latency_mult")
        }
    }
}

/// Instantiate a scenario into `sim`. Panics on malformed specs (host
/// count mismatch, degenerate fabric shapes, pair-only link options) —
/// scenario bugs, not inputs.
pub fn build_fabric(sim: &mut Sim, sc: &Scenario) -> BuiltFabric {
    let pair = PairOpts::default();
    assert!(
        sc.opts.propagation == pair.propagation && sc.opts.faults == pair.faults,
        "Scenario.opts.propagation/faults configure hand-wired pairs only; \
         set link delays and faults in Scenario.links"
    );
    let n = sc.fabric.n_hosts();
    assert_eq!(
        sc.hosts.len(),
        n,
        "scenario must specify exactly one host per fabric slot"
    );
    assert!(n > 0 && n <= 250, "host id space is 1..=250");
    match sc.fabric {
        Fabric::LeafSpine {
            leaves,
            spines,
            hosts_per_leaf,
        } => build_leaf_spine(sim, sc, leaves, spines, hosts_per_leaf),
        Fabric::FatTree { k } => build_fat_tree(sim, sc, k),
    }
}

fn build_leaf_spine(
    sim: &mut Sim,
    sc: &Scenario,
    leaves: usize,
    spines: usize,
    hosts_per_leaf: usize,
) -> BuiltFabric {
    assert!(leaves >= 1 && spines >= 1 && hosts_per_leaf >= 1);
    let mut switches = make_switches(sim, leaves + spines);
    let mut fabric_links = Vec::new();
    let mut fabric_pairs = Vec::new();

    // leaf l ↔ spine s, remembering the uplink/downlink port ids
    let mut uplinks = vec![Vec::new(); leaves]; // leaf → its spine ports
    let mut downs = vec![vec![0usize; leaves]; spines]; // spine → leaf port
    for l in 0..leaves {
        for (s, down) in downs.iter_mut().enumerate() {
            let (pl, ps) = connect_switches(
                sim,
                &mut switches,
                l,
                leaves + s,
                &sc.links.fabric,
                &mut fabric_links,
                &mut fabric_pairs,
            );
            uplinks[l].push(pl);
            down[l] = ps;
        }
    }

    let edge_of_host: Vec<usize> = (0..sc.hosts.len()).map(|i| i / hosts_per_leaf).collect();
    let (eps, edge_links, edge_recs) = attach_hosts(sim, sc, &edge_of_host, &mut switches);

    // routes: leaves ECMP remote hosts over all spines; spines route each
    // host down its leaf
    for (i, ep) in eps.iter().enumerate() {
        let leaf = edge_of_host[i];
        for (l, sw) in switches.iter_mut().enumerate().take(leaves) {
            if l != leaf {
                sw.sw.route(ep.ip, uplinks[l].clone());
            }
        }
        for (s, down) in downs.iter().enumerate() {
            switches[leaves + s].sw.route(ep.ip, vec![down[leaf]]);
        }
    }

    finalize(
        sim,
        sc,
        eps,
        edge_of_host,
        switches,
        edge_links,
        fabric_links,
        fabric_pairs,
        edge_recs,
    )
}

fn build_fat_tree(sim: &mut Sim, sc: &Scenario, k: usize) -> BuiltFabric {
    assert!(k >= 2 && k.is_multiple_of(2), "fat-tree arity must be even");
    let half = k / 2;
    let n_edge = k * half;
    let n_agg = k * half;
    let n_core = half * half;
    // switch index layout: [edges (pod-major) | aggs (pod-major) | cores]
    let edge_idx = |pod: usize, e: usize| pod * half + e;
    let agg_idx = |pod: usize, a: usize| n_edge + pod * half + a;
    let core_idx = |c: usize| n_edge + n_agg + c;

    let mut switches = make_switches(sim, n_edge + n_agg + n_core);
    let mut fabric_links = Vec::new();
    let mut fabric_pairs = Vec::new();

    // edge(p,e) ↔ agg(p,a): full bipartite per pod
    let mut edge_up = vec![Vec::new(); n_edge]; // edge → agg ports
    let mut agg_down = vec![vec![0usize; half]; n_agg]; // agg → edge e port
    for p in 0..k {
        for e in 0..half {
            for a in 0..half {
                let (pe, pa) = connect_switches(
                    sim,
                    &mut switches,
                    edge_idx(p, e),
                    agg_idx(p, a),
                    &sc.links.fabric,
                    &mut fabric_links,
                    &mut fabric_pairs,
                );
                edge_up[edge_idx(p, e)].push(pe);
                agg_down[pod_local_agg(p, a, half)][e] = pa;
            }
        }
    }
    // agg(p,a) ↔ core group a: cores a*half..(a+1)*half
    let mut agg_up = vec![Vec::new(); n_agg]; // agg → core ports
    let mut core_down = vec![vec![0usize; k]; n_core]; // core → pod port
    for p in 0..k {
        for a in 0..half {
            for j in 0..half {
                let c = a * half + j;
                let (pa, pc) = connect_switches(
                    sim,
                    &mut switches,
                    agg_idx(p, a),
                    core_idx(c),
                    &sc.links.fabric,
                    &mut fabric_links,
                    &mut fabric_pairs,
                );
                agg_up[pod_local_agg(p, a, half)].push(pa);
                core_down[c][p] = pc;
            }
        }
    }

    // host i lives in pod i/(half²), under edge (i mod half²)/half
    let hosts_per_pod = half * half;
    let edge_of_host: Vec<usize> = (0..sc.hosts.len())
        .map(|i| edge_idx(i / hosts_per_pod, (i % hosts_per_pod) / half))
        .collect();
    let (eps, edge_links, edge_recs) = attach_hosts(sim, sc, &edge_of_host, &mut switches);

    for (i, ep) in eps.iter().enumerate() {
        let pod = i / hosts_per_pod;
        let edge = edge_of_host[i];
        // edges: every non-local host ECMPs over all pod aggregations
        for e in 0..n_edge {
            if e != edge {
                switches[e].sw.route(ep.ip, edge_up[e].clone());
            }
        }
        // aggregations: down within the pod, up (ECMP over cores) across
        let host_edge_local = (i % hosts_per_pod) / half;
        for p in 0..k {
            for a in 0..half {
                let gi = pod_local_agg(p, a, half);
                let sw = &mut switches[agg_idx(p, a)].sw;
                if p == pod {
                    sw.route(ep.ip, vec![agg_down[gi][host_edge_local]]);
                } else {
                    sw.route(ep.ip, agg_up[gi].clone());
                }
            }
        }
        // cores: straight down to the host's pod
        for c in 0..n_core {
            switches[core_idx(c)]
                .sw
                .route(ep.ip, vec![core_down[c][pod]]);
        }
    }

    finalize(
        sim,
        sc,
        eps,
        edge_of_host,
        switches,
        edge_links,
        fabric_links,
        fabric_pairs,
        edge_recs,
    )
}

/// Index into the pod-major aggregation-switch arrays.
fn pod_local_agg(pod: usize, a: usize, half: usize) -> usize {
    pod * half + a
}
