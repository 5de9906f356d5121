//! The four workloads, each built from `--seed` through the crates'
//! public API only, and the harvest that turns a finished simulation
//! into the simulated-clock metrics.
//!
//! Why these four (the `why` strings below go into `BENCHMARK.json`):
//! every optimisation to one layer needs a workload that exercises it
//! and one that bypasses it, on which the prediction is *no change*.

use flextoe_apps::{
    ClientConfig, CloseAll, FramedServerConfig, LoadMode, OpenLoopConfig, RpcClientApp,
    RpcServerApp, ServerConfig, SizeDist, StackApi,
};
use flextoe_ccp::{FoldProg, FoldSpec};
use flextoe_control::CcAlgo;
use flextoe_core::PoolGauges;
use flextoe_netsim::{Faults, GeParams, PortConfig, SetFaults, TelemetrySpec};
use flextoe_sim::{Duration, Histogram, NodeId, Sim, Tick, Time};
use flextoe_topo::{
    build_fabric, build_pair, BuiltFabric, BuiltRole, DynFramedServer, DynOpenLoopClient, Endpoint,
    Fabric, HostSpec, LinkClass, LinkSpec, PairOpts, Role, Scenario, Stack,
};

type DynClient = RpcClientApp<Box<dyn StackApi>>;
type DynServer = RpcServerApp<Box<dyn StackApi>>;

/// The measured window is driven in slices of this much simulated time.
pub const SLICE: Duration = Duration::from_us(500);

/// What a workload is and when it is measured. Times are simulated.
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    /// Closed or open loop, with its client count or rate.
    pub load: &'static str,
    /// End of set-up: connections are up and caches are warm.
    pub warmup: Time,
    /// End of the measured window.
    pub deadline: Time,
    /// A request issued at least this long before the deadline and not
    /// completed by it counts as failed.
    pub guard: Duration,
    /// The tail percentile `sim_lat_tail_us` reports (highest with at
    /// least ten samples beyond it).
    pub tail_q: f64,
    pub tail_label: &'static str,
    /// Post-deadline quiesce before the buffer-conservation audit
    /// (clients are told to stop first); zero = no drain.
    pub drain: Duration,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "echo_pair",
        why: "small-RPC headline: core stages + nfp dominate, no switch, no host stack, \
              16 conns fit on-chip; bypass workload for switch/telemetry/hoststack/ccp work",
        load: "closed loop, 16 connections x pipeline 4, 64 B request / 64 B reply",
        warmup: Time::from_ms(2),
        deadline: Time::from_ms(30),
        guard: Duration::from_ms(1),
        tail_q: 0.999,
        tail_label: "p99.9",
        drain: Duration::ZERO,
    },
    Spec {
        name: "fabric_flextoe",
        why: "adds ECMP switches, queues, sketch fast path, open-loop apps, topo build; \
              2048 conns spill the on-chip CLS state cache to EMEM",
        load: "open loop, Poisson 240k req/s per client host x 4 hosts over 2048 connections, \
               64 B requests, bounded-Pareto(1.15, 64, 16384) replies",
        warmup: Time::from_ms(4),
        deadline: Time::from_ms(24),
        guard: Duration::from_ms(1),
        tail_q: 0.999,
        tail_label: "p99.9",
        drain: Duration::ZERO,
    },
    Spec {
        name: "fabric_tas",
        why: "fabric_flextoe with every host on the TAS host stack: hoststack does the \
              transport work and core/nfp none, so a pipeline-stage change predicts no change here",
        load: "as fabric_flextoe",
        warmup: Time::from_ms(4),
        deadline: Time::from_ms(24),
        guard: Duration::from_ms(1),
        tail_q: 0.999,
        tail_label: "p99.9",
        drain: Duration::ZERO,
    },
    Spec {
        name: "incast_lossy",
        why: "bulk writes into a 10G ECN port, replies over lossy links: MSS segments, per-byte DMA, \
              RTO recovery, and the only workload where control, ccp and the eBPF fold work",
        load: "open loop, 6 client hosts x 1 connection at 50% of the 10 Gbit/s server port, \
               32 KiB requests / 32 B replies",
        warmup: Time::from_ms(10),
        deadline: Time::from_ms(100),
        // four RTOs in a row (1 + 2 + 4 + 8 ms) still complete inside it
        guard: Duration::from_ms(20),
        tail_q: 0.99,
        tail_label: "p99",
        drain: Duration::from_ms(30),
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

impl Spec {
    pub fn window_s(&self) -> f64 {
        self.deadline.saturating_since(self.warmup).as_secs_f64()
    }

    /// Slice boundaries of the measured window, in order; the last is the
    /// deadline and one of them is `deadline - guard`.
    pub fn slice_ends(&self) -> Vec<Time> {
        let n = self.deadline.saturating_since(self.warmup).as_ns() / SLICE.as_ns();
        (1..=n).map(|k| self.warmup + SLICE * k).collect()
    }

    /// Slice boundaries of warm-up, in order; the last is its end.
    pub fn setup_ends(&self) -> Vec<Time> {
        let n = self.warmup.as_ns() / SLICE.as_ns();
        (1..=n).map(|k| Time::ZERO + SLICE * k).collect()
    }
}

/// splitmix64: one well-mixed word per (seed, stream) pair, so every
/// workload's inputs derive from `--seed` and nothing else.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---- builders --------------------------------------------------------------

enum Kind {
    /// Two hand-wired hosts: the rpc client's node and both endpoints.
    Pair {
        client: NodeId,
        eps: Box<[Endpoint; 2]>,
    },
    Fabric(BuiltFabric),
}

/// A built workload: the simulation and the handles the harvest needs.
pub struct World {
    pub sim: Sim,
    kind: Kind,
    /// Request size when fixed (the open-loop client does not expose the
    /// request bytes of completed requests).
    req_bytes: u64,
}

/// Build workload `spec` from `seed`. `observe` turns on the telemetry
/// ground-truth maps (observational; the traced run scores the sketches
/// against them).
pub fn build(spec: &'static Spec, seed: u64, observe: bool) -> World {
    let stream = SPECS.iter().position(|s| s.name == spec.name).unwrap() as u64;
    let seed = derive_seed(seed, stream);
    match spec.name {
        "echo_pair" => build_echo_pair(spec, seed),
        "fabric_flextoe" => build_fabric_rpc(spec, seed, Stack::FlexToe, observe),
        "fabric_tas" => build_fabric_rpc(spec, seed, Stack::Tas, observe),
        "incast_lossy" => build_incast(spec, seed),
        other => unreachable!("no builder for workload {other}"),
    }
}

fn build_echo_pair(spec: &'static Spec, seed: u64) -> World {
    let mut sim = Sim::new(seed);
    let opts = PairOpts::default();
    let (a, b) = build_pair(&mut sim, Stack::FlexToe, Stack::FlexToe, &opts);
    let server = sim.add_node(DynServer::new(
        ServerConfig {
            msg_size: 64,
            resp_size: 64,
            app_cycles: 0,
            ..Default::default()
        },
        b.stack_init(Stack::FlexToe, 1),
    ));
    // A closed loop draws no random numbers, so the seed shapes the
    // arrival schedule instead: when the client starts and how far apart
    // its connections open, which sets the phase of the 64 in-flight
    // requests against each other for the whole run.
    let start = Time::from_ns(20_000 + derive_seed(seed, 1) % 4_000);
    let spacing = Duration::from_ns(3_000 + derive_seed(seed, 2) % 1_000);
    let client = sim.add_node(DynClient::new(
        ClientConfig {
            server_ip: b.ip,
            n_conns: 16,
            msg_size: 64,
            resp_size: 64,
            mode: LoadMode::Closed { pipeline: 4 },
            warmup: spec.warmup,
            connect_spacing: spacing,
            ..Default::default()
        },
        a.stack_init(Stack::FlexToe, 1),
    ));
    sim.schedule(Time::ZERO, server, Tick);
    sim.schedule(start, client, Tick);
    World {
        sim,
        kind: Kind::Pair {
            client,
            eps: Box::new([a, b]),
        },
        req_bytes: 64,
    }
}

/// Leaf-spine 4x2 with 2 hosts per leaf; even hosts are open-loop
/// clients, odd hosts serve; a client on leaf L targets the server on
/// leaf L+1, so every RPC crosses the spines (the `scale` experiment's
/// fabric, with the telemetry plane armed).
fn build_fabric_rpc(spec: &'static Spec, seed: u64, stack: Stack, observe: bool) -> World {
    const LEAVES: usize = 4;
    const HOSTS_PER_LEAF: usize = 2;
    let fabric = Fabric::LeafSpine {
        leaves: LEAVES,
        spines: 2,
        hosts_per_leaf: HOSTS_PER_LEAF,
    };
    let n = fabric.n_hosts();
    let mut opts = PairOpts::default();
    // 512 sockets per client host: 8 KiB buffers keep the footprint flat
    opts.cfg.rx_buf_size = 8 * 1024;
    opts.cfg.tx_buf_size = 8 * 1024;
    let hosts = (0..n)
        .map(|i| {
            let role = if i % 2 == 0 {
                let target_leaf = (i / HOSTS_PER_LEAF + 1) % LEAVES;
                Role::OpenLoop {
                    cfg: OpenLoopConfig {
                        n_conns: 2048 / (n as u32 / 2),
                        rate_rps: 240_000.0,
                        req_size: SizeDist::Fixed(64),
                        resp_size: SizeDist::Pareto {
                            alpha: 1.15,
                            min: 64,
                            max: 16_384,
                        },
                        warmup: spec.warmup,
                        connect_spacing: Duration::from_ns(400),
                        ..Default::default()
                    },
                    target: target_leaf * HOSTS_PER_LEAF + 1,
                }
            } else {
                Role::FramedServer(FramedServerConfig::default())
            };
            HostSpec { stack, role }
        })
        .collect();
    let epoch = Duration::from_ms(1);
    let sc = Scenario {
        hosts,
        opts,
        telemetry: Some(TelemetrySpec {
            epoch,
            // one sweep per epoch up to the deadline
            sweeps: (spec.deadline.as_ns() / epoch.as_ns()) as u32,
            hh_ecmp: false,
            ground_truth: observe,
            ..Default::default()
        }),
        ..Scenario::idle(seed, fabric, stack)
    };
    let mut sim = Sim::new(sc.seed);
    let fab = build_fabric(&mut sim, &sc);
    World {
        sim,
        kind: Kind::Fabric(fab),
        req_bytes: 64,
    }
}

/// Leaf-spine 2x2 with 4 hosts per leaf: hosts 0..=5 write 32 KiB
/// requests to host 7 (host 6 idles), so four senders cross the spines
/// and two share the server's leaf. Every switch→host port runs at
/// 10 Gbit/s with ECN step-marking at K = 24 KiB; only the server's
/// carries enough traffic to queue.
///
/// Loss is confined to the *reply* path (every link a server→client
/// frame crosses: Gilbert–Elliott bursts, ~1% mean per link, plus 2 us
/// of jitter), and the request path is loss-free by construction (no
/// WRED, and a 1 MiB port buffer that six 64 KiB windows cannot fill).
/// That is a finding, not a preference: with loss on the request path
/// about one seed in ten wedges a connection for the rest of the run.
/// `proto::go_back_n` rewinds `snd_nxt` to `snd_una`, `rx_segment` then
/// ignores every ACK beyond the rewound `snd_nxt`, and once the receiver
/// holds more than one RTO's worth of resent bytes past `snd_una` (rate
/// halves per RTO while the RTO doubles, so every attempt resends the
/// same few KiB) the sender never catches up — no abort, no progress.
/// Replies are 32 B, so on the reply path that gap stays far below what
/// a single RTO resends even at the DCTCP rate floor, while lost replies
/// still take the RTO path through `control` and land in the tail.
///
/// The loss is armed at `LOSS_FROM`, once every connection is up. The
/// Gilbert–Elliott chain steps per frame, and before the first request a
/// client's downlink carries nothing but its SYN-ACKs: a chain that turns
/// bad there stays bad from one 5 ms SYN retry to the next; 3 seeds of
/// 1300 lost all four attempts that way and ran the window a client short.
fn build_incast(spec: &'static Spec, seed: u64) -> World {
    /// ARP and the six handshakes end within 100 us of simulated time.
    const LOSS_FROM: Time = Time::from_ms(1);
    const REQ: u32 = 32 * 1024;
    const SERVER: usize = 7;
    const HOSTS_PER_LEAF: usize = 4;
    let fabric = Fabric::LeafSpine {
        leaves: 2,
        spines: 2,
        hosts_per_leaf: HOSTS_PER_LEAF,
    };
    let bottleneck_bps = 10_000_000_000u64;
    // Half the bottleneck in request payload, split over six clients. At
    // 75% the DCTCP rate dynamics leave the queue so close to unstable
    // that median latency ranges from 160 us to 1.7 ms between seeds.
    let rate_rps = 0.5 * bottleneck_bps as f64 / (REQ as f64 * 8.0) / 6.0;
    let hosts = (0..fabric.n_hosts())
        .map(|i| {
            let role = match i {
                SERVER => Role::FramedServer(FramedServerConfig::default()),
                0..=5 => Role::OpenLoop {
                    cfg: OpenLoopConfig {
                        n_conns: 1,
                        rate_rps,
                        req_size: SizeDist::Fixed(REQ),
                        resp_size: SizeDist::Fixed(32),
                        warmup: spec.warmup,
                        ..Default::default()
                    },
                    target: SERVER,
                },
                _ => Role::Idle,
            };
            HostSpec {
                stack: Stack::FlexToe,
                role,
            }
        })
        .collect();
    let sc = Scenario {
        hosts,
        links: LinkSpec {
            edge: LinkClass {
                port: PortConfig {
                    rate_bps: bottleneck_bps,
                    buf_bytes: 1024 * 1024,
                    ecn_threshold: Some(24 * 1024),
                    wred: None,
                },
                ..Default::default()
            },
            fabric: LinkClass::default(),
        },
        opts: PairOpts {
            cc: CcAlgo::Dctcp,
            fold: FoldSpec::Program(FoldProg::builtin()),
            // reachable inside the run: 8 RTOs of >= 1 ms each
            rto_give_up: Some(8),
            ..Default::default()
        },
        ..Scenario::idle(seed, fabric, Stack::FlexToe)
    };
    let mut sim = Sim::new(sc.seed);
    let fab = build_fabric(&mut sim, &sc);

    // bad-state share p_enter/(p_enter+p_exit) = 1/76, times 0.75 loss
    // while bad: ~1% mean loss per link, in bursts of ~3 frames. That
    // puts 2-4% of requests on the RTO path, so the p99 sits on the RTO
    // plateau (steady to 2% between seeds) and not on the cliff at its
    // edge (23% between seeds at half this loss).
    let lossy = Faults {
        jitter: Duration::from_us(2),
        ge: Some(GeParams {
            p_enter: 0.004,
            p_exit: 0.3,
            loss_good: 0.0,
            loss_bad: 0.75,
        }),
        ..Default::default()
    };
    let server_leaf = SERVER / HOSTS_PER_LEAF;
    let mut reply_path = vec![fab.edge_recs[SERVER].uplink];
    reply_path.extend(
        fab.edge_recs
            .iter()
            .filter(|r| r.host != SERVER)
            .map(|r| r.downlink),
    );
    for p in &fab.fabric_pairs {
        // leaf→spine out of the server's leaf, spine→leaf into the other
        // (switch order is leaves, then spines; `a` is always the leaf)
        reply_path.push(if p.a == server_leaf { p.l_ab } else { p.l_ba });
    }
    for link in reply_path {
        sim.schedule(LOSS_FROM, link, SetFaults(lossy));
    }
    World {
        sim,
        kind: Kind::Fabric(fab),
        req_bytes: REQ as u64,
    }
}

// ---- harvest ---------------------------------------------------------------

/// Request counters that can be snapshotted mid-run without allocating.
#[derive(Clone, Copy, Debug, Default)]
pub struct Progress {
    pub issued: u64,
    pub completed: u64,
    /// Requests written off on dead connections.
    pub dead: u64,
}

/// Everything the simulated-clock metrics are computed from.
pub struct Harvest {
    /// Correctly completed requests inside the measured window.
    pub measured: u64,
    /// Application payload bytes of those requests, both directions.
    pub payload_bytes: u64,
    pub latency: Histogram,
    /// Delivered bytes per fairness unit (connection, or client host on
    /// the fabric workloads).
    pub flows: Vec<u64>,
    /// Server-side framing errors (byte-stream desync).
    pub bad_frames: u64,
    /// Connections that failed to open, were refused, or were aborted.
    pub conns_failed: u64,
    /// Requests generated and unanswered at the deadline.
    pub backlog_end: u64,
}

impl World {
    fn clients(&self) -> impl Iterator<Item = &DynOpenLoopClient> {
        let hosts = match &self.kind {
            Kind::Fabric(fab) => fab.hosts.as_slice(),
            Kind::Pair { .. } => &[],
        };
        hosts
            .iter()
            .filter_map(|h| h.client())
            .map(|n| self.sim.node_ref::<DynOpenLoopClient>(n))
    }

    pub fn progress(&self) -> Progress {
        match &self.kind {
            Kind::Pair { client, .. } => {
                let c = self.sim.node_ref::<DynClient>(*client);
                Progress {
                    // the closed-loop client exposes no issue counter;
                    // request bytes accepted by the socket count them
                    issued: c.bytes_out / self.req_bytes,
                    completed: c.completed,
                    dead: 0,
                }
            }
            Kind::Fabric(_) => self.clients().fold(Progress::default(), |p, c| Progress {
                issued: p.issued + c.issued,
                completed: p.completed + c.completed,
                dead: p.dead + c.dead_requests,
            }),
        }
    }

    pub fn harvest(&self) -> Harvest {
        match &self.kind {
            Kind::Pair { client, .. } => {
                let c = self.sim.node_ref::<DynClient>(*client);
                let p = self.progress();
                Harvest {
                    measured: c.measured,
                    payload_bytes: c.measured * 2 * self.req_bytes,
                    latency: c.latency.clone(),
                    flows: c.per_conn_bytes(),
                    bad_frames: 0,
                    conns_failed: c.failed as u64,
                    backlog_end: p.issued - p.completed,
                }
            }
            Kind::Fabric(fab) => {
                let mut h = Harvest {
                    measured: 0,
                    payload_bytes: 0,
                    latency: Histogram::new(),
                    flows: Vec::new(),
                    bad_frames: 0,
                    conns_failed: 0,
                    backlog_end: 0,
                };
                for c in self.clients() {
                    h.measured += c.measured;
                    h.payload_bytes += c.measured * self.req_bytes + c.measured_resp_bytes();
                    h.latency.merge(&c.latency);
                    h.flows.push(c.measured_resp_bytes());
                    h.conns_failed += c.failed as u64 + c.aborted_conns;
                    h.backlog_end += c.in_flight() as u64;
                }
                for host in fab.hosts.iter().filter(|h| h.role == BuiltRole::Server) {
                    let s = self
                        .sim
                        .node_ref::<DynFramedServer>(host.app.expect("server app"));
                    h.bad_frames += s.bad_frames;
                    h.conns_failed += s.aborted;
                }
                h
            }
        }
    }

    /// Tell every open-loop client to stop generating and close, so the
    /// fabric can quiesce for the buffer audit.
    pub fn stop_clients(&mut self) {
        if let Kind::Fabric(fab) = &self.kind {
            let now = self.sim.now();
            for n in fab.hosts.iter().filter_map(|h| h.client()) {
                self.sim.schedule(now, n, CloseAll);
            }
        }
    }

    fn endpoints(&self) -> Vec<&Endpoint> {
        match &self.kind {
            Kind::Pair { eps, .. } => eps.iter().collect(),
            Kind::Fabric(fab) => fab.hosts.iter().map(|h| &h.ep).collect(),
        }
    }

    /// Buffers taken minus buffers returned, summed over the fabric-wide
    /// pool and every NIC's packet memory (frames allocated on one NIC
    /// are returned on the peer's, so only the sum is invariant): zero
    /// once the fabric has drained.
    pub fn buf_balance(&self) -> i64 {
        let (mut takes, mut returns) = (self.sim.frame_pool.takes, self.sim.frame_pool.returns);
        for ep in self.endpoints() {
            if let Some((nic, _)) = &ep.flextoe {
                let p = nic.seg_pool.borrow();
                takes += p.takes;
                returns += p.returns;
            }
        }
        takes as i64 - returns as i64
    }

    /// Buffers the pools had to allocate because the free list was empty.
    pub fn pool_fresh_allocs(&self) -> u64 {
        let nics: u64 = self
            .endpoints()
            .iter()
            .filter_map(|ep| ep.flextoe.as_ref())
            .map(|(nic, _)| nic.seg_pool.borrow().fresh_allocs)
            .sum();
        self.sim.frame_pool.fresh_allocs + nics
    }

    /// Pool and connection-state-cache gauges summed over all NICs.
    pub fn gauges(&self) -> PoolGauges {
        let mut g = PoolGauges::default();
        for ep in self.endpoints() {
            if let Some((nic, _)) = &ep.flextoe {
                g.merge(&nic.pool_gauges(&self.sim));
            }
        }
        g
    }

    pub fn fabric(&self) -> Option<&BuiltFabric> {
        match &self.kind {
            Kind::Fabric(fab) => Some(fab),
            Kind::Pair { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_tile_the_window_and_hit_the_guard() {
        for s in &SPECS {
            let ends = s.slice_ends();
            assert_eq!(*s.setup_ends().last().unwrap(), s.warmup, "{}", s.name);
            assert_eq!(*ends.last().unwrap(), s.deadline, "{}", s.name);
            assert_eq!(ends[0], s.warmup + SLICE, "{}", s.name);
            let guard_at = Time::from_ns(s.deadline.as_ns() - s.guard.as_ns());
            assert!(ends.contains(&guard_at), "{}", s.name);
            assert!(s.drain == Duration::ZERO || s.name == "incast_lossy");
        }
    }

    #[test]
    fn derived_seeds_differ_by_stream_and_repeat() {
        assert_eq!(derive_seed(17, 3), derive_seed(17, 3));
        assert_ne!(derive_seed(17, 0), derive_seed(17, 1));
        assert_ne!(derive_seed(17, 0), derive_seed(18, 0));
    }
}
