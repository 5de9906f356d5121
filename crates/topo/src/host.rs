//! Host endpoint construction — one FlexTOE NIC + control plane, or one
//! baseline stack node — plus the two hand-wired topologies the paper's
//! point experiments use (a link pair and a single-switch star). The
//! declarative multi-switch fabrics live in [`crate::build`].

use flextoe_apps::{LibToe, StackApi};
use flextoe_ccp::FoldSpec;
use flextoe_control::{CcAlgo, ControlPlane, CtrlConfig};
use flextoe_core::{FlexToeNic, NicConfig, PipeCfg, TransportPolicy};
use flextoe_hoststack::{build_host, HostSocketApi, HostStackNode, StackKind};
use flextoe_netsim::{fill_link, Faults, Link, PortConfig, Switch};
use flextoe_sim::{Duration, NodeId, Sim};
use flextoe_wire::{Ip4, MacAddr};

/// Which transport stack a host runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stack {
    FlexToe,
    Linux,
    Tas,
    Chelsio,
    FlexBaselineFpc,
}

impl Stack {
    pub fn name(self) -> &'static str {
        match self {
            Stack::FlexToe => "FlexTOE",
            Stack::Linux => "Linux",
            Stack::Tas => "TAS",
            Stack::Chelsio => "Chelsio",
            Stack::FlexBaselineFpc => "Flex-Baseline",
        }
    }
    pub fn all4() -> [Stack; 4] {
        [Stack::Linux, Stack::Chelsio, Stack::Tas, Stack::FlexToe]
    }
    fn kind(self) -> StackKind {
        match self {
            Stack::Linux => StackKind::Linux,
            Stack::Tas => StackKind::Tas,
            Stack::Chelsio => StackKind::Chelsio,
            Stack::FlexBaselineFpc => StackKind::FlexBaselineFpc,
            Stack::FlexToe => unreachable!(),
        }
    }
}

/// One host endpoint: either a FlexTOE NIC + control plane, or a baseline
/// stack node. `ingress` is where the peer's frames must be delivered.
pub struct Endpoint {
    pub ip: Ip4,
    pub mac: MacAddr,
    pub ingress: NodeId,
    pub flextoe: Option<(FlexToeNic, NodeId)>, // (nic, ctrl)
    pub baseline: Option<NodeId>,
}

impl Endpoint {
    /// Stack factory for an application node on this endpoint.
    pub fn stack_init(
        &self,
        stack: Stack,
        ctx_id: u16,
    ) -> flextoe_apps::StackInit<Box<dyn StackApi>> {
        match stack {
            Stack::FlexToe => {
                let (nic, ctrl) = self.flextoe.as_ref().expect("flextoe endpoint");
                let handle = nic.handle();
                let ctrl = *ctrl;
                Box::new(move |ctx, app| {
                    Box::new(LibToe::new(ctx, ctx_id, handle, ctrl, app)) as Box<dyn StackApi>
                })
            }
            other => {
                let node = self.baseline.expect("baseline endpoint");
                let kind = other.kind();
                Box::new(move |_ctx, app| {
                    Box::new(HostSocketApi::new(kind, node, app)) as Box<dyn StackApi>
                })
            }
        }
    }
}

/// Per-host transport options. `propagation`/`faults` configure the links
/// of the hand-wired pair/star topologies; [`crate::build_fabric`] refuses
/// them and takes link parameters from its [`crate::LinkSpec`] instead.
///
/// `min_rto`, `rto_give_up`, `syn_retry` and `max_conns` form the
/// [`TransportPolicy`] every host runs, FlexTOE and baseline alike. `cfg`,
/// `cc` and `fold` configure FlexTOE hosts only: the baseline stacks model
/// their own buffers and congestion control.
pub struct PairOpts {
    pub cfg: PipeCfg,
    pub cc: CcAlgo,
    /// Fold installed for new flows (native builtin or compiled eBPF).
    pub fold: FoldSpec,
    /// Consecutive no-progress RTOs before a host aborts a flow (`None` =
    /// retry forever).
    pub rto_give_up: Option<u32>,
    /// RTO floor (`RTO = max(min_rto, 4 × sRTT)`, or `max(min_rto,
    /// syn_retry)` before the first RTT sample). The chaos experiments
    /// shrink this so give-up fits inside a millisecond-scale fault window.
    pub min_rto: Duration,
    /// Base SYN retransmission interval (exponential backoff; FlexTOE
    /// hosts add jitter), and the RTO of data sent before the first RTT
    /// sample.
    pub syn_retry: Duration,
    /// SYN admission cap: refuse passive opens with an RST past this many
    /// installed + pending connections (`None` = unbounded; see
    /// [`TransportPolicy::max_conns`]).
    pub max_conns: Option<u32>,
    pub propagation: Duration,
    pub faults: Faults,
}

impl Default for PairOpts {
    fn default() -> Self {
        let ctrl = CtrlConfig::default();
        PairOpts {
            cfg: PipeCfg::agilio_full(),
            cc: CcAlgo::Dctcp,
            fold: FoldSpec::Builtin,
            rto_give_up: ctrl.transport.rto_give_up,
            min_rto: ctrl.transport.min_rto,
            syn_retry: ctrl.transport.syn_retry,
            max_conns: ctrl.transport.max_conns,
            propagation: Duration::from_us(2),
            faults: Faults::default(),
        }
    }
}

/// Build one endpoint of kind `stack` whose egress goes to `link_out`.
pub fn build_endpoint(
    sim: &mut Sim,
    stack: Stack,
    id: u8,
    link_out: NodeId,
    opts: &PairOpts,
) -> Endpoint {
    let ip = Ip4::host(id);
    let mac = MacAddr::local(id);
    let transport = TransportPolicy {
        min_rto: opts.min_rto,
        rto_give_up: opts.rto_give_up,
        syn_retry: opts.syn_retry,
        max_conns: opts.max_conns,
    };
    match stack {
        Stack::FlexToe => {
            let ctrl = sim.reserve_node();
            let nic =
                FlexToeNic::build(sim, opts.cfg.clone(), NicConfig { mac, ip }, link_out, ctrl);
            let cp = ControlPlane::new(
                CtrlConfig {
                    cc: opts.cc,
                    fold: opts.fold.clone(),
                    transport,
                },
                nic.handle(),
            );
            sim.fill_node(ctrl, cp);
            Endpoint {
                ip,
                mac,
                ingress: nic.mac,
                flextoe: Some((nic, ctrl)),
                baseline: None,
            }
        }
        other => {
            let node = build_host(sim, other.kind(), mac, ip, link_out, transport);
            Endpoint {
                ip,
                mac,
                ingress: node,
                flextoe: None,
                baseline: Some(node),
            }
        }
    }
}

/// Static ARP: make `ep` resolve `peer_ip` to `peer_mac`.
pub fn add_arp(sim: &mut Sim, ep: &Endpoint, peer_ip: Ip4, peer_mac: MacAddr) {
    if let Some((_, ctrl)) = &ep.flextoe {
        sim.node_mut::<ControlPlane>(*ctrl)
            .add_peer(peer_ip, peer_mac);
    }
    if let Some(node) = ep.baseline {
        sim.node_mut::<HostStackNode>(node)
            .add_peer(peer_ip, peer_mac);
    }
}

/// Two hosts of possibly different stacks, joined by a link pair.
pub fn build_pair(sim: &mut Sim, a: Stack, b: Stack, opts: &PairOpts) -> (Endpoint, Endpoint) {
    let l_ab = sim.reserve_node();
    let l_ba = sim.reserve_node();
    let ea = build_endpoint(sim, a, 1, l_ab, opts);
    let eb = build_endpoint(sim, b, 2, l_ba, opts);
    fill_link(
        sim,
        l_ab,
        Link::with_faults(eb.ingress, opts.propagation, opts.faults),
    );
    fill_link(
        sim,
        l_ba,
        Link::with_faults(ea.ingress, opts.propagation, opts.faults),
    );
    add_arp(sim, &ea, eb.ip, eb.mac);
    add_arp(sim, &eb, ea.ip, ea.mac);
    (ea, eb)
}

/// N client hosts and one server host through a switch (incast topology).
pub fn build_star(
    sim: &mut Sim,
    stack: Stack,
    n_clients: u8,
    server_port_cfg: PortConfig,
    opts: &PairOpts,
) -> (Vec<Endpoint>, Endpoint, NodeId) {
    let sw = sim.reserve_node();
    let mut switch = Switch::new();
    // server = host id 1
    let server_link = sim.reserve_node();
    let server = build_endpoint(sim, stack, 1, sw, opts);
    fill_link(
        sim,
        server_link,
        Link::new(server.ingress, opts.propagation),
    );
    let sport = switch.add_port(server_link, server_port_cfg);
    switch.learn(server.mac, sport);

    let mut clients = Vec::new();
    for i in 0..n_clients {
        let id = 2 + i;
        let clink = sim.reserve_node();
        let ep = build_endpoint(sim, stack, id, sw, opts);
        fill_link(sim, clink, Link::new(ep.ingress, opts.propagation));
        let p = switch.add_port(clink, PortConfig::default());
        switch.learn(ep.mac, p);
        clients.push(ep);
    }
    sim.fill_node(sw, switch);
    // everybody resolves everybody
    let all: Vec<(Ip4, MacAddr)> = std::iter::once((server.ip, server.mac))
        .chain(clients.iter().map(|c| (c.ip, c.mac)))
        .collect();
    for ep in clients.iter().chain(std::iter::once(&server)) {
        for &(ip, mac) in &all {
            if ip != ep.ip {
                add_arp(sim, ep, ip, mac);
            }
        }
    }
    (clients, server, sw)
}
