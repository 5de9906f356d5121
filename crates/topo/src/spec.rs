//! The declarative scenario spec: a complete multi-host experiment —
//! fabric shape, per-host stack choice, applications and traffic mix,
//! link rates/latencies, and fault schedules — as one value handed to
//! [`crate::build_fabric`]. Everything downstream (switch wiring, ECMP
//! routing tables, ARP, app nodes, kick-off events) is derived from it,
//! in the simulator-composition style of the NS-2 tutorials: describe the
//! scenario, let the builder instantiate it.

use flextoe_apps::{ClientSpec, FramedServerConfig, OpenLoopConfig, ServerSpec};
use flextoe_netsim::{Faults, PortConfig, TelemetrySpec};
use flextoe_sim::{Duration, Time};

use crate::host::{PairOpts, Stack};

/// Fabric shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fabric {
    /// Two-tier Clos: every leaf connects to every spine; hosts hang off
    /// leaves. Flows between leaves spread across spines by ECMP.
    LeafSpine {
        leaves: usize,
        spines: usize,
        hosts_per_leaf: usize,
    },
    /// Three-tier k-ary fat-tree (k even): k pods of k/2 edge + k/2
    /// aggregation switches, (k/2)² core switches, k³/4 hosts.
    FatTree { k: usize },
}

impl Fabric {
    /// Number of hosts this fabric attaches.
    pub fn n_hosts(&self) -> usize {
        match *self {
            Fabric::LeafSpine {
                leaves,
                hosts_per_leaf,
                ..
            } => leaves * hosts_per_leaf,
            Fabric::FatTree { k } => k * k * k / 4,
        }
    }
}

/// What a host does in the scenario.
pub enum Role {
    /// Attached but idle (background state pressure, future workloads).
    Idle,
    /// Runs the RPC server.
    Server(ServerSpec),
    /// Runs the RPC client toward host `target` (a host index into
    /// [`Scenario::hosts`]; the builder fills `cfg.server_ip`, and the
    /// port from the target's server).
    Client { cfg: ClientSpec, target: usize },
    /// `Server` with the older framed-server config `benchmark/` builds.
    FramedServer(FramedServerConfig),
    /// `Client` with the older open-loop config `benchmark/` builds.
    OpenLoop { cfg: OpenLoopConfig, target: usize },
}

impl Role {
    /// The server this role runs, if any.
    pub fn server(&self) -> Option<ServerSpec> {
        match self {
            Role::Server(cfg) => Some(*cfg),
            Role::FramedServer(cfg) => Some((*cfg).into()),
            _ => None,
        }
    }

    /// The client this role runs and its target host, if any.
    pub fn client(&self) -> Option<(ClientSpec, usize)> {
        match self {
            Role::Client { cfg, target } => Some((*cfg, *target)),
            Role::OpenLoop { cfg, target } => Some(((*cfg).into(), *target)),
            _ => None,
        }
    }
}

/// One host: its transport stack and its application.
pub struct HostSpec {
    pub stack: Stack,
    pub role: Role,
}

impl HostSpec {
    pub fn idle(stack: Stack) -> HostSpec {
        HostSpec {
            stack,
            role: Role::Idle,
        }
    }
}

/// One class of links (edge = host↔leaf, fabric = switch↔switch).
#[derive(Clone, Copy, Debug)]
pub struct LinkClass {
    /// One-way propagation delay per link.
    pub propagation: Duration,
    /// Switch egress port configuration on this tier (rate, buffer, ECN,
    /// WRED).
    pub port: PortConfig,
    /// Initial fault model on the links.
    pub faults: Faults,
}

impl Default for LinkClass {
    fn default() -> Self {
        LinkClass {
            propagation: Duration::from_ns(500),
            port: PortConfig::default(),
            faults: Faults::default(),
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
pub struct LinkSpec {
    pub edge: LinkClass,
    pub fabric: LinkClass,
}

/// Which links a fault event applies to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkScope {
    Edge,
    Fabric,
    All,
}

/// What a fault event targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultTarget {
    /// Every link in a [`LinkScope`] (the probabilistic-degradation
    /// scope the `SetFaults` schedule has always used).
    Links(LinkScope),
    /// The bidirectional edge link pair of one host (by host index).
    EdgeLink { host: usize },
    /// One bidirectional fabric link (by index into the builder's
    /// fabric-link pair list — wiring order, see `BuiltFabric::fabric_pairs`).
    FabricLink { index: usize },
    /// A whole switch (by index into `BuiltFabric::switches`).
    Switch { index: usize },
}

/// What happens to the target.
#[derive(Clone, Copy, Debug)]
pub enum FaultKind {
    /// Probabilistic degradation: set the `Faults` model on the target
    /// links (`Faults::default()` heals). Only valid for link targets.
    Degrade(Faults),
    /// Hard failure: links go down (and the feeding switch ports are
    /// marked dead so ECMP stops hashing onto them); a switch target is
    /// killed outright (all its ports and attached links die with it).
    Down,
    /// Explicit heal of a prior `Down`. **Healing is never implicit** —
    /// a fault persists until a scheduled `Up` event restores it.
    Up,
    /// Gray failure: the target switch limps — every egress serializes
    /// `factor`× slower without the switch being dead. `Limp { factor: 1 }`
    /// heals. Only valid for switch targets (limping *links* are expressed
    /// as `Degrade` with `Faults::latency_mult`).
    Limp { factor: u32 },
}

/// A scheduled fault-plane change. Same-timestamp events apply in
/// schedule order: the builder sorts the schedule by `(at, index)` —
/// index being the position in [`Scenario::fault_schedule`] — so flap
/// trains touching the same target at one instant stay deterministic.
#[derive(Clone, Copy, Debug)]
pub struct FaultEvent {
    pub at: Time,
    pub target: FaultTarget,
    pub kind: FaultKind,
}

impl FaultEvent {
    /// Probabilistic degradation of every link in `scope` (the
    /// historical schedule shape).
    pub fn degrade(at: Time, scope: LinkScope, faults: Faults) -> FaultEvent {
        FaultEvent {
            at,
            target: FaultTarget::Links(scope),
            kind: FaultKind::Degrade(faults),
        }
    }

    /// Hard-fail `target` at `at`.
    pub fn down(at: Time, target: FaultTarget) -> FaultEvent {
        FaultEvent {
            at,
            target,
            kind: FaultKind::Down,
        }
    }

    /// Explicitly heal `target` at `at`.
    pub fn up(at: Time, target: FaultTarget) -> FaultEvent {
        FaultEvent {
            at,
            target,
            kind: FaultKind::Up,
        }
    }

    /// Make switch `index` limp at `factor`× slower serialization from
    /// `at` (factor 1 heals).
    pub fn limp(at: Time, index: usize, factor: u32) -> FaultEvent {
        FaultEvent {
            at,
            target: FaultTarget::Switch { index },
            kind: FaultKind::Limp { factor },
        }
    }
}

/// A complete declarative scenario.
pub struct Scenario {
    /// Simulation seed — also salts every switch's ECMP hash, so path
    /// selection reruns byte-identically.
    pub seed: u64,
    pub fabric: Fabric,
    /// One spec per host; must have exactly `fabric.n_hosts()` entries.
    pub hosts: Vec<HostSpec>,
    pub links: LinkSpec,
    /// Transport options shared by all hosts (pipeline config, CC
    /// algorithm, fold, RTO and SYN policy). The pair/star-only
    /// `propagation` and `faults` fields must keep their defaults:
    /// [`crate::build_fabric`] refuses them, since `links` governs the
    /// fabric.
    pub opts: PairOpts,
    /// Scheduled fault-plane changes: probabilistic degradation and hard
    /// link/switch down/up events. Applied in `(at, index)` order.
    pub fault_schedule: Vec<FaultEvent>,
    /// Sketch telemetry plane: `Some` wires per-switch fast-path
    /// sketches, a collector node, and pre-scheduled epoch sweeps.
    /// `None` (the default) builds the fabric byte-identically to a
    /// telemetry-less build — no extra nodes, no extra RNG draws.
    pub telemetry: Option<TelemetrySpec>,
    /// When client applications start (servers start at t = 0; clients
    /// are staggered one `client_stagger` apart from `client_start`).
    pub client_start: Time,
    pub client_stagger: Duration,
    /// How many conservative-PDES shards to run the scenario across
    /// (see `crate::partition_fabric` and the `flextoe-shard` crate).
    /// 1 (the default) runs the classic monolithic engine; any value
    /// produces byte-identical results by construction.
    pub shards: usize,
}

impl Scenario {
    /// A scenario with every host idle on `stack` — attach apps by
    /// editing `hosts`, or drive the endpoints directly from a test.
    pub fn idle(seed: u64, fabric: Fabric, stack: Stack) -> Scenario {
        Scenario {
            seed,
            fabric,
            hosts: (0..fabric.n_hosts())
                .map(|_| HostSpec::idle(stack))
                .collect(),
            links: LinkSpec::default(),
            opts: PairOpts::default(),
            fault_schedule: Vec::new(),
            telemetry: None,
            client_start: Time::from_us(20),
            client_stagger: Duration::from_us(1),
            shards: 1,
        }
    }
}
