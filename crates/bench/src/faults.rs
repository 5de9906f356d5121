//! The chaos experiment: hard fault injection on the 4-leaf/2-spine
//! fabric under a reconnecting closed-loop session workload. Each row
//! fails part of the fabric at `t_fault` — probabilistic drop storms,
//! fabric-link flap trains, spine kills (ECMP failover), leaf kills
//! (blackholed hosts → RTO give-up → abort → reconnection storm) — and
//! explicitly heals it at `t_heal`. The driver samples goodput in fixed
//! time buckets around the window and reports recovery metrics: dip
//! depth, time-to-recover after heal, and the reroute / retransmit /
//! abort / reconnect counts behind them.
//!
//! Every row ends with a conservation audit: after `CloseAll` + drain,
//! each issued request is accounted exactly once (`issued == completed +
//! dead_requests`), no session holds an in-flight request, and the
//! FlexTOE pool gauges (work slots, pktbuf segments) are back to zero
//! in-flight across every NIC. `BENCH_faults.json` is byte-identical per
//! seed across runs, `--jobs` values, and the wheel vs. reference-heap queue.

use flextoe_apps::{CloseAll, FramedServerConfig, SessionConfig};
use flextoe_core::PoolGauges;
use flextoe_netsim::{Faults, GeParams, Link, Switch};
use flextoe_shard::{ShardedSim, SyncStats};
use flextoe_sim::{Duration, Histogram, NodeId, Sim, Stats, Time};
use flextoe_topo::{
    build_fabric, partition_fabric, BuiltFabric, DynSessionClient, Fabric, FaultEvent, FaultTarget,
    HostSpec, LinkScope, PairOpts, Role, Scenario, Stack,
};

use crate::cli::RunOpts;
use crate::par::run_indexed;
use crate::scale::{with_wall_extras, HOSTS_PER_LEAF, LEAVES, SPINES};

/// One chaos case: a named fault schedule over the shared timeline.
#[derive(Clone)]
pub struct ChaosRow {
    pub name: &'static str,
    pub schedule: Vec<FaultEvent>,
}

/// Chaos-sweep configuration. All instants must be multiples of
/// `bucket` (the goodput series is sampled on bucket boundaries).
#[derive(Clone)]
pub struct FaultsPlan {
    pub rows: Vec<ChaosRow>,
    pub n_sessions_per_host: u32,
    pub req_size: u32,
    pub resp_size: u32,
    /// Closed-loop think time between a response and the next request.
    pub think: Duration,
    /// RTO floor and give-up budget, sized so a blackholed flow aborts
    /// *inside* the fault window (stall → abort ≈ `min_rto × 2^give_up`).
    pub min_rto: Duration,
    pub rto_give_up: u32,
    /// Base SYN retransmission interval for reconnect attempts.
    pub syn_retry: Duration,
    /// Goodput sampling bucket.
    pub bucket: Duration,
    /// Pre-fault baseline goodput is averaged over `[warmup, t_fault)`.
    pub warmup: Time,
    pub t_fault: Time,
    pub t_heal: Time,
    /// Clients stop (`CloseAll`) here; recovery is judged on
    /// `[t_heal, t_end)`.
    pub t_end: Time,
    /// Conservation checkpoint: everything must have drained by here.
    pub t_drain: Time,
}

/// The fault-intensity sweep: drop percentage, flap rate, kill count.
fn chaos_rows(t_fault: Time, t_heal: Time, full: bool) -> Vec<ChaosRow> {
    let spine0 = FaultTarget::Switch { index: LEAVES };
    let leaf1 = FaultTarget::Switch { index: 1 };
    let degrade = |p: f64| {
        vec![
            FaultEvent::degrade(
                t_fault,
                LinkScope::Fabric,
                Faults {
                    drop_chance: p,
                    ..Default::default()
                },
            ),
            FaultEvent::degrade(t_heal, LinkScope::Fabric, Faults::default()),
        ]
    };
    let kill = |targets: &[FaultTarget]| -> Vec<FaultEvent> {
        let mut v: Vec<FaultEvent> = targets
            .iter()
            .map(|&t| FaultEvent::down(t_fault, t))
            .collect();
        v.extend(targets.iter().map(|&t| FaultEvent::up(t_heal, t)));
        v
    };
    // flap train on one leaf0↔spine0 link: n down/up cycles across the
    // window, each link down for half its period, healed by the last Up
    let flap = |n: u64| -> Vec<ChaosRow> {
        let link = FaultTarget::FabricLink { index: 0 };
        let period = Duration::from_ns(t_heal.saturating_since(t_fault).as_ns() / n);
        let half = Duration::from_ns(period.as_ns() / 2);
        let schedule = (0..n)
            .flat_map(|k| {
                let t0 = t_fault + period * k;
                [FaultEvent::down(t0, link), FaultEvent::up(t0 + half, link)]
            })
            .collect();
        vec![ChaosRow {
            name: if n == 1 {
                "link-flap-x1"
            } else {
                "link-flap-x4"
            },
            schedule,
        }]
    };
    let mut rows = vec![
        ChaosRow {
            name: "baseline",
            schedule: vec![],
        },
        ChaosRow {
            name: "drop-10pct",
            schedule: degrade(0.10),
        },
        ChaosRow {
            name: "spine-kill",
            schedule: kill(&[spine0]),
        },
    ];
    if full {
        rows.insert(
            1,
            ChaosRow {
                name: "drop-1pct",
                schedule: degrade(0.01),
            },
        );
        rows.extend(flap(1));
        rows.extend(flap(4));
        rows.push(ChaosRow {
            name: "leaf-kill",
            schedule: kill(&[leaf1]),
        });
        rows.push(ChaosRow {
            name: "spine-leaf-kill",
            schedule: kill(&[spine0, leaf1]),
        });
    }
    rows
}

/// The gray-failure rows (`--gray`): faults that degrade without
/// killing anything — bursty Gilbert–Elliott loss, a duplication storm,
/// reorder-inducing jitter, and spine0 limping at 8× serialization
/// latency. All heal at `t_heal`. Every probabilistic draw comes from
/// the afflicted link's own RNG stream, so the rows are byte-identical
/// per seed across engines, `--jobs`, and `--shards`.
fn gray_rows(t_fault: Time, t_heal: Time) -> Vec<ChaosRow> {
    let degrade = |name, faults: Faults| ChaosRow {
        name,
        schedule: vec![
            FaultEvent::degrade(t_fault, LinkScope::Fabric, faults),
            FaultEvent::degrade(t_heal, LinkScope::Fabric, Faults::default()),
        ],
    };
    vec![
        degrade(
            "dup-storm",
            Faults {
                dup_chance: 0.3,
                ..Default::default()
            },
        ),
        degrade(
            "reorder",
            Faults {
                jitter: Duration::from_us(5),
                ..Default::default()
            },
        ),
        degrade(
            "ge-loss",
            Faults {
                ge: Some(GeParams {
                    p_enter: 0.02,
                    p_exit: 0.2,
                    loss_good: 0.0,
                    loss_bad: 0.5,
                }),
                ..Default::default()
            },
        ),
        // 512× serialization on spine0 turns its 100G ports into ~200M
        // ones: slow enough to queue and dip the flows ECMP pinned to
        // it, while spine1's flows sail through — the canonical
        // differential gray failure (no port ever reports down).
        ChaosRow {
            name: "limping-spine",
            schedule: vec![
                FaultEvent::limp(t_fault, LEAVES, 512),
                FaultEvent::limp(t_heal, LEAVES, 1),
            ],
        },
    ]
}

impl FaultsPlan {
    pub fn full() -> FaultsPlan {
        let (t_fault, t_heal) = (Time::from_ms(4), Time::from_ms(8));
        FaultsPlan {
            rows: chaos_rows(t_fault, t_heal, true),
            n_sessions_per_host: 8,
            req_size: 128,
            resp_size: 512,
            think: Duration::from_us(20),
            min_rto: Duration::from_us(200),
            rto_give_up: 3,
            syn_retry: Duration::from_us(400),
            bucket: Duration::from_us(250),
            warmup: Time::from_us(1500),
            t_fault,
            t_heal,
            t_end: Time::from_ms(16),
            t_drain: Time::from_ms(20),
        }
    }

    pub fn smoke() -> FaultsPlan {
        let (t_fault, t_heal) = (Time::from_us(1500), Time::from_ms(3));
        FaultsPlan {
            rows: chaos_rows(t_fault, t_heal, false),
            n_sessions_per_host: 4,
            req_size: 128,
            resp_size: 512,
            think: Duration::from_us(20),
            min_rto: Duration::from_us(200),
            rto_give_up: 3,
            syn_retry: Duration::from_us(400),
            bucket: Duration::from_us(250),
            warmup: Time::from_us(750),
            t_fault,
            t_heal,
            t_end: Time::from_ms(5),
            t_drain: Time::from_ms(8),
        }
    }

    /// Append the gray-failure rows (`--gray`). The hard rows stay
    /// first and unchanged, so sweeps without the flag keep their exact
    /// artifact bytes.
    pub fn with_gray(mut self) -> FaultsPlan {
        let extra = gray_rows(self.t_fault, self.t_heal);
        self.rows.extend(extra);
        self
    }
}

/// One chaos row's outcome.
pub struct FaultsOutcome {
    pub name: &'static str,
    /// Completed responses per goodput bucket, `[0, t_end)`.
    pub timeline: Vec<u64>,
    /// Pre-fault baseline goodput (responses/s over `[warmup, t_fault)`).
    pub pre_rps: f64,
    /// Worst bucket inside the fault window, as responses/s.
    pub dip_rps: f64,
    /// `dip_rps / pre_rps` (1.0 = no dip).
    pub dip_frac: f64,
    /// Heal → first bucket back at ≥95% of baseline (µs; -1 = never).
    pub recover_us: i64,
    /// Goodput over the last 4 pre-`CloseAll` buckets ≥ 95% of baseline.
    pub recovered: bool,
    pub p50_us: f64,
    pub p99_us: f64,
    // session accounting
    pub issued: u64,
    pub completed: u64,
    pub dead_requests: u64,
    pub aborted_conns: u64,
    pub peer_closed: u64,
    pub reconnects: u64,
    pub connect_failures: u64,
    // control plane + fabric
    pub rto_fired: u64,
    pub ctrl_aborts: u64,
    pub reroutes: u64,
    pub blackholed: u64,
    pub dead_drops: u64,
    pub down_drops: u64,
    pub degrade_drops: u64,
    // gray-failure plane
    /// Frames the links delivered twice (`link.duplicated`).
    pub dup_frames: u64,
    /// Frames lost to the Gilbert–Elliott bursty-loss model
    /// (`link.ge_drops`; also included in `degrade_drops`).
    pub ge_drops: u64,
    /// Out-of-order segments the protocol stages buffered and later
    /// accepted (`proto.ooo`) — the reorder row's signature.
    pub ooo_accepted: u64,
    /// RX frames shed at the sequencer because a capped work/pktbuf
    /// pool had no headroom (`nic.pool_exhausted`).
    pub pool_exhausted: u64,
    /// Passive opens refused with an RST at the SYN admission cap
    /// (`ctrl.admission_refused`).
    pub admission_refused: u64,
    /// Duplicate SYN / SYN-ACK deliveries the control plane absorbed
    /// instead of double-installing (`ctrl.dup_handshake`) — the
    /// dup-storm row's handshake-path signature.
    pub dup_handshake: u64,
    // conservation audit
    pub in_flight_end: u64,
    pub gauges: PoolGauges,
    /// Global packet-buffer balance (takes − returns over the sim-wide
    /// pool and every NIC pool); 0 once everything drained.
    pub buf_delta: i64,
    pub conserved: bool,
    /// Per-switch field sums match the `Stats` named-counter totals
    /// (`switch.ecmp_rerouted` / `switch.blackholed` /
    /// `switch.dead_drops`) — the cross-check the aggregate-only rows
    /// never had.
    pub counters_consistent: bool,
    /// Name-sorted per-switch counter object (`Stats::export_json`):
    /// `faults.swNN.{reroutes,blackholed,dead_drops,down_drops}`, with
    /// each link's down-drops attributed to the switch that feeds it
    /// (host uplinks attribute to the edge switch).
    pub per_switch_json: String,
    pub sim_events: u64,
    /// Conservative-sync counters when the row ran sharded (`None` for
    /// the monolithic path). Never serialized into the body.
    pub sync: Option<SyncStats>,
}

/// The chaos scenario: every even host runs reconnecting sessions toward
/// the server on the next leaf (all traffic crosses the spines, same
/// pattern as the scale sweep), under `row`'s fault schedule. Public so
/// the telemetry experiment can run sketch accuracy under the exact
/// same fault rows.
pub fn chaos_scenario(seed: u64, row: &ChaosRow, plan: &FaultsPlan) -> Scenario {
    let fabric = Fabric::LeafSpine {
        leaves: LEAVES,
        spines: SPINES,
        hosts_per_leaf: HOSTS_PER_LEAF,
    };
    let opts = PairOpts {
        min_rto: plan.min_rto,
        syn_retry: plan.syn_retry,
        rto_give_up: Some(plan.rto_give_up),
        ..Default::default()
    };
    let hosts = (0..fabric.n_hosts())
        .map(|i| {
            let role = if i % 2 == 0 {
                let leaf = i / HOSTS_PER_LEAF;
                let target = ((leaf + 1) % LEAVES) * HOSTS_PER_LEAF + 1;
                Role::Session {
                    cfg: SessionConfig {
                        n_sessions: plan.n_sessions_per_host,
                        req_size: plan.req_size,
                        resp_size: plan.resp_size,
                        think: plan.think,
                        backoff_base: Duration::from_us(200),
                        backoff_cap: Duration::from_ms(2),
                        warmup: plan.warmup,
                        ..Default::default()
                    },
                    target,
                }
            } else {
                Role::FramedServer(FramedServerConfig::default())
            };
            HostSpec {
                stack: Stack::FlexToe,
                role,
            }
        })
        .collect();
    Scenario {
        seed,
        fabric,
        hosts,
        links: Default::default(),
        opts,
        fault_schedule: row.schedule.clone(),
        telemetry: None,
        client_start: Time::from_us(20),
        client_stagger: Duration::from_us(1),
        shards: 1,
    }
}

/// Global packet-buffer balance (takes − returns) over the simulation-
/// wide pool and every FlexTOE NIC segment pool. Buffers migrate between
/// pools — taken from the sending NIC's pool, returned to the receiver's,
/// or to the sim-wide pool when a switch or link drops the frame — so
/// only this global sum is invariant: zero once the fabric has drained.
/// Under sharding each shard contributes only its own activity (ghost
/// nodes never run, so their pools stay untouched), and the invariant
/// holds on the *sum over shards* — PR 6's conservation contract,
/// extended across shard pools.
pub fn buf_balance(sim: &Sim, fab: &BuiltFabric) -> i64 {
    let (mut takes, mut returns) = (sim.frame_pool.takes, sim.frame_pool.returns);
    for h in &fab.hosts {
        if let Some((nic, _)) = &h.ep.flextoe {
            let p = nic.seg_pool.borrow();
            takes += p.takes;
            returns += p.returns;
        }
    }
    takes as i64 - returns as i64
}

/// Commutative per-shard harvest of one chaos row after the drain.
/// The monolithic path runs the same harvest over a fully-owned `Sim`,
/// so sharded and single-shard outcomes are byte-identical merges.
struct FaultsPartial {
    latency: Histogram,
    issued: u64,
    completed: u64,
    dead_requests: u64,
    aborted_conns: u64,
    peer_closed: u64,
    reconnects: u64,
    connect_failures: u64,
    in_flight_end: u64,
    gauges: PoolGauges,
    buf_delta: i64,
    /// reroutes, blackholed, dead_drops, down_drops per switch (full
    /// length; zero rows for switches another shard owns).
    per_sw: Vec<[u64; 4]>,
    degrade_drops: u64,
    dup_frames: u64,
    ge_drops: u64,
    ooo_accepted: u64,
    pool_exhausted: u64,
    admission_refused: u64,
    dup_handshake: u64,
    rto_fired: u64,
    ctrl_aborts: u64,
    named_rerouted: u64,
    named_blackholed: u64,
    named_dead: u64,
    events: u64,
}

fn harvest_faults(sim: &Sim, fab: &BuiltFabric) -> FaultsPartial {
    let mut p = FaultsPartial {
        latency: Histogram::new(),
        issued: 0,
        completed: 0,
        dead_requests: 0,
        aborted_conns: 0,
        peer_closed: 0,
        reconnects: 0,
        connect_failures: 0,
        in_flight_end: 0,
        gauges: PoolGauges::default(),
        buf_delta: buf_balance(sim, fab),
        per_sw: vec![[0; 4]; fab.switches.len()],
        degrade_drops: 0,
        dup_frames: sim.stats.get_named("link.duplicated"),
        ge_drops: sim.stats.get_named("link.ge_drops"),
        ooo_accepted: sim.stats.get_named("proto.ooo"),
        pool_exhausted: sim.stats.get_named("nic.pool_exhausted"),
        admission_refused: sim.stats.get_named("ctrl.admission_refused"),
        dup_handshake: sim.stats.get_named("ctrl.dup_handshake"),
        rto_fired: sim.stats.get_named("ctrl.rto_fired"),
        ctrl_aborts: sim.stats.get_named("ctrl.abort"),
        named_rerouted: sim.stats.get_named("switch.ecmp_rerouted"),
        named_blackholed: sim.stats.get_named("switch.blackholed"),
        named_dead: sim.stats.get_named("switch.dead_drops"),
        events: sim.events_processed(),
    };
    for h in &fab.hosts {
        let Some(n) = h.session() else { continue };
        if !sim.owns(n) {
            continue;
        }
        let c = sim.node_ref::<DynSessionClient>(n);
        p.latency.merge(&c.latency);
        p.issued += c.issued;
        p.completed += c.completed;
        p.dead_requests += c.dead_requests;
        p.aborted_conns += c.aborted_conns;
        p.peer_closed += c.peer_closed;
        p.reconnects += c.reconnects;
        p.connect_failures += c.connect_failures;
        p.in_flight_end += c.in_flight() as u64;
    }
    for h in &fab.hosts {
        if !sim.owns(h.ep.ingress) {
            continue;
        }
        if let Some((nic, _)) = &h.ep.flextoe {
            p.gauges.merge(&nic.pool_gauges(sim));
        }
    }
    // Per-switch fields, each link's down-drops attributed to the
    // switch feeding it (host uplinks to the edge switch). The feeder
    // discipline of the partitioner guarantees a link and its feeding
    // switch share a shard, so each per_sw row is filled by one shard.
    for (i, &s) in fab.switches.iter().enumerate() {
        if !sim.owns(s) {
            continue;
        }
        let sw = sim.node_ref::<Switch>(s);
        p.per_sw[i][0] = sw.rerouted;
        p.per_sw[i][1] = sw.blackholed;
        p.per_sw[i][2] = sw.dead_drops;
    }
    let link_drops = |l: NodeId| -> u64 {
        if sim.owns(l) {
            sim.node_ref::<Link>(l).down_drops
        } else {
            0
        }
    };
    for pair in &fab.fabric_pairs {
        p.per_sw[pair.a][3] += link_drops(pair.l_ab);
        p.per_sw[pair.b][3] += link_drops(pair.l_ba);
    }
    for r in &fab.edge_recs {
        p.per_sw[r.edge][3] += link_drops(r.uplink) + link_drops(r.downlink);
    }
    for &l in fab.edge_links.iter().chain(fab.fabric_links.iter()) {
        if sim.owns(l) {
            p.degrade_drops += sim.node_ref::<Link>(l).dropped;
        }
    }
    p
}

/// Merge shard partials + the goodput timeline into one outcome —
/// identical math to what the pre-sharding monolithic harvest computed
/// inline.
fn assemble_faults(
    row: &ChaosRow,
    plan: &FaultsPlan,
    timeline: Vec<u64>,
    partials: Vec<FaultsPartial>,
    sync: Option<SyncStats>,
) -> FaultsOutcome {
    let bucket_ns = plan.bucket.as_ns();
    // goodput series → recovery metrics (bucket k covers
    // [k·bucket, (k+1)·bucket) in nanoseconds)
    let b = |t: Time| (t.as_ns() / bucket_ns) as usize;
    let bucket_secs = plan.bucket.as_secs_f64();
    let pre: Vec<u64> = timeline[b(plan.warmup)..b(plan.t_fault)].to_vec();
    let pre_avg = pre.iter().sum::<u64>() as f64 / pre.len().max(1) as f64;
    let pre_rps = pre_avg / bucket_secs;
    let window_end = (b(plan.t_heal) + 1).min(timeline.len());
    let dip = timeline[b(plan.t_fault)..window_end]
        .iter()
        .copied()
        .min()
        .unwrap_or(0);
    let dip_rps = dip as f64 / bucket_secs;
    let recover_us = timeline[b(plan.t_heal)..]
        .iter()
        .position(|&c| c as f64 >= 0.95 * pre_avg)
        .map(|i| ((i as u64 + 1) * bucket_ns / 1_000) as i64)
        .unwrap_or(-1);
    let tail = &timeline[timeline.len().saturating_sub(4)..];
    let tail_avg = tail.iter().sum::<u64>() as f64 / tail.len().max(1) as f64;
    let recovered = tail_avg >= 0.95 * pre_avg;

    let n_switches = partials[0].per_sw.len();
    let mut latency = Histogram::new();
    let (mut issued, mut completed, mut dead_requests) = (0u64, 0u64, 0u64);
    let (mut aborted_conns, mut peer_closed) = (0u64, 0u64);
    let (mut reconnects, mut connect_failures) = (0u64, 0u64);
    let mut in_flight_end = 0u64;
    let mut gauges = PoolGauges::default();
    let mut buf_delta = 0i64;
    let mut per_sw: Vec<[u64; 4]> = vec![[0; 4]; n_switches];
    let mut degrade_drops = 0u64;
    let (mut dup_frames, mut ge_drops, mut ooo_accepted) = (0u64, 0u64, 0u64);
    let (mut pool_exhausted, mut admission_refused, mut dup_handshake) = (0u64, 0u64, 0u64);
    let (mut rto_fired, mut ctrl_aborts) = (0u64, 0u64);
    let (mut named_rerouted, mut named_blackholed, mut named_dead) = (0u64, 0u64, 0u64);
    let mut sim_events = 0u64;
    for p in partials {
        latency.merge(&p.latency);
        issued += p.issued;
        completed += p.completed;
        dead_requests += p.dead_requests;
        aborted_conns += p.aborted_conns;
        peer_closed += p.peer_closed;
        reconnects += p.reconnects;
        connect_failures += p.connect_failures;
        in_flight_end += p.in_flight_end;
        gauges.merge(&p.gauges);
        buf_delta += p.buf_delta;
        for (acc, row_counts) in per_sw.iter_mut().zip(&p.per_sw) {
            for (a, v) in acc.iter_mut().zip(row_counts) {
                *a += v;
            }
        }
        degrade_drops += p.degrade_drops;
        dup_frames += p.dup_frames;
        ge_drops += p.ge_drops;
        ooo_accepted += p.ooo_accepted;
        pool_exhausted += p.pool_exhausted;
        admission_refused += p.admission_refused;
        dup_handshake += p.dup_handshake;
        rto_fired += p.rto_fired;
        ctrl_aborts += p.ctrl_aborts;
        named_rerouted += p.named_rerouted;
        named_blackholed += p.named_blackholed;
        named_dead += p.named_dead;
        sim_events += p.events;
    }
    let conserved = issued == completed + dead_requests
        && in_flight_end == 0
        && gauges.work_in_use == 0
        && buf_delta == 0;

    // land the per-switch fields on a fresh named-stats registry so the
    // row carries the name-sorted `Stats::export_json` snapshot
    let mut stats = Stats::new();
    let (mut reroutes, mut blackholed, mut dead_drops, mut down_drops) = (0u64, 0u64, 0u64, 0u64);
    for (i, row_counts) in per_sw.iter().enumerate() {
        let [rr, bh, dd, ld] = *row_counts;
        reroutes += rr;
        blackholed += bh;
        dead_drops += dd;
        down_drops += ld;
        for (field, v) in [
            ("reroutes", rr),
            ("blackholed", bh),
            ("dead_drops", dd),
            ("down_drops", ld),
        ] {
            stats.bump(&format!("faults.sw{i:02}.{field}"), v);
        }
    }
    let per_switch_json = stats.export_json("faults.sw");
    // the cross-check: per-switch field sums must equal what the
    // switches reported through their attached counter handles
    let counters_consistent =
        reroutes == named_rerouted && blackholed == named_blackholed && dead_drops == named_dead;

    FaultsOutcome {
        name: row.name,
        timeline,
        pre_rps,
        dip_rps,
        dip_frac: if pre_avg > 0.0 {
            dip as f64 / pre_avg
        } else {
            0.0
        },
        recover_us,
        recovered,
        p50_us: latency.median() as f64 / 1000.0,
        p99_us: latency.p99() as f64 / 1000.0,
        issued,
        completed,
        dead_requests,
        aborted_conns,
        peer_closed,
        reconnects,
        connect_failures,
        rto_fired,
        ctrl_aborts,
        reroutes,
        blackholed,
        dead_drops,
        down_drops,
        degrade_drops,
        dup_frames,
        ge_drops,
        ooo_accepted,
        pool_exhausted,
        admission_refused,
        dup_handshake,
        in_flight_end,
        gauges,
        buf_delta,
        conserved,
        counters_consistent,
        per_switch_json,
        sim_events,
        sync,
    }
}

/// Run one chaos row across `shards` conservative-PDES shards (`1` =
/// the classic monolithic path): sample goodput per bucket to `t_end`,
/// `CloseAll`, drain to `t_drain`, then audit conservation and harvest
/// counters. Every field of the outcome except `sync` is byte-identical
/// for any shard count.
pub fn run_faults_point(
    seed: u64,
    row: &ChaosRow,
    plan: &FaultsPlan,
    shards: usize,
) -> FaultsOutcome {
    let shards = shards.max(1);
    let bucket_ns = plan.bucket.as_ns();
    let n_buckets = (plan.t_end.as_ns() / bucket_ns) as usize;
    let mut timeline = Vec::with_capacity(n_buckets);
    let mut prev = 0u64;

    if shards == 1 {
        let sc = chaos_scenario(seed, row, plan);
        let mut sim = Sim::new(sc.seed);
        let fab = build_fabric(&mut sim, &sc);
        let sessions: Vec<NodeId> = fab.hosts.iter().filter_map(|h| h.session()).collect();
        for k in 1..=n_buckets {
            sim.run_until(Time::from_ns(k as u64 * bucket_ns));
            let done: u64 = sessions
                .iter()
                .map(|&n| sim.node_ref::<DynSessionClient>(n).completed)
                .sum();
            timeline.push(done - prev);
            prev = done;
        }
        for &n in &sessions {
            sim.schedule(plan.t_end, n, CloseAll);
        }
        sim.run_until(plan.t_drain);
        let partial = harvest_faults(&sim, &fab);
        return assemble_faults(row, plan, timeline, vec![partial], None);
    }

    let row_shard = row.clone();
    let plan_shard = plan.clone();
    let mut sharded = ShardedSim::launch(shards, move |_| {
        let mut sc = chaos_scenario(seed, &row_shard, &plan_shard);
        sc.shards = shards;
        let mut sim = Sim::new(sc.seed);
        let fab = build_fabric(&mut sim, &sc);
        let part = partition_fabric(&sim, &sc, &fab, sc.shards);
        (sim, fab, part)
    });
    for k in 1..=n_buckets {
        sharded.run_until(Time::from_ns(k as u64 * bucket_ns));
        let done: u64 = sharded
            .each(|_, sim, fab| {
                fab.hosts
                    .iter()
                    .filter_map(|h| h.session())
                    .filter(|&n| sim.owns(n))
                    .map(|n| sim.node_ref::<DynSessionClient>(n).completed)
                    .sum::<u64>()
            })
            .iter()
            .sum();
        timeline.push(done - prev);
        prev = done;
    }
    // CloseAll for *every* session on *every* shard: ghost externals
    // are dropped at the mask but still consume an external sequence
    // number, keeping admission order aligned with the monolithic run.
    let t_end = plan.t_end;
    sharded.each(move |_, sim, fab| {
        for n in fab.hosts.iter().filter_map(|h| h.session()) {
            sim.schedule(t_end, n, CloseAll);
        }
    });
    sharded.run_until(plan.t_drain);
    let partials = sharded.each(|_, sim, fab| harvest_faults(sim, fab));
    let sync = sharded.sync_stats();
    assemble_faults(row, plan, timeline, partials, Some(sync))
}

/// Run one chaos row (monolithic — the reference the sharded path is
/// proven byte-identical against).
pub fn run_faults_one(seed: u64, row: &ChaosRow, plan: &FaultsPlan) -> FaultsOutcome {
    run_faults_point(seed, row, plan, 1)
}

/// The whole sweep over `jobs` worker threads with each row split
/// across `shards` PDES shards; each row builds its own `Sim`(s) from
/// the same seed, so any `--jobs`/`--shards` merges byte-identically.
pub fn run_faults_jobs_shards(
    seed: u64,
    plan: &FaultsPlan,
    jobs: usize,
    shards: usize,
) -> Vec<FaultsOutcome> {
    run_indexed(jobs, plan.rows.len(), |i| {
        run_faults_point(seed, &plan.rows[i], plan, shards)
    })
}

/// The whole sweep over `jobs` worker threads.
pub fn run_faults_jobs(seed: u64, plan: &FaultsPlan, jobs: usize) -> Vec<FaultsOutcome> {
    run_faults_jobs_shards(seed, plan, jobs, 1)
}

pub fn run_faults(seed: u64, plan: &FaultsPlan) -> Vec<FaultsOutcome> {
    run_faults_jobs(seed, plan, 1)
}

/// Serialize the sweep deterministically (byte-identical per seed — the
/// acceptance contract on `BENCH_faults.json`).
pub fn faults_json(seed: u64, plan: &FaultsPlan, results: &[FaultsOutcome]) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"benchmark\": \"faults\",\n");
    s.push_str(&format!(
        "  \"scenario\": {{\n    \"seed\": {seed},\n    \"fabric\": \"leafspine-{LEAVES}x{SPINES}\",\n    \"hosts\": {},\n    \"sessions_per_client\": {},\n    \"req_size\": {},\n    \"resp_size\": {},\n    \"think_us\": {},\n    \"min_rto_us\": {},\n    \"rto_give_up\": {},\n    \"syn_retry_us\": {},\n    \"bucket_us\": {},\n    \"t_fault_us\": {},\n    \"t_heal_us\": {},\n    \"t_end_us\": {},\n    \"t_drain_us\": {}\n  }},\n",
        LEAVES * HOSTS_PER_LEAF,
        plan.n_sessions_per_host,
        plan.req_size,
        plan.resp_size,
        plan.think.as_us(),
        plan.min_rto.as_us(),
        plan.rto_give_up,
        plan.syn_retry.as_us(),
        plan.bucket.as_us(),
        plan.t_fault.as_us(),
        plan.t_heal.as_us(),
        plan.t_end.as_us(),
        plan.t_drain.as_us(),
    ));
    s.push_str("  \"rows\": [\n");
    for (i, r) in results.iter().enumerate() {
        let g = &r.gauges;
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"pre_rps\": {:.0}, \"dip_rps\": {:.0}, \"dip_frac\": {:.4}, \"recover_us\": {}, \"recovered\": {}, \"p50_us\": {:.2}, \"p99_us\": {:.2}, \"issued\": {}, \"completed\": {}, \"dead_requests\": {}, \"aborted_conns\": {}, \"peer_closed\": {}, \"reconnects\": {}, \"connect_failures\": {}, \"rto_fired\": {}, \"ctrl_aborts\": {}, \"reroutes\": {}, \"blackholed\": {}, \"dead_drops\": {}, \"down_drops\": {}, \"degrade_drops\": {}, \"dup_frames\": {}, \"ge_drops\": {}, \"ooo_accepted\": {}, \"pool_exhausted\": {}, \"admission_refused\": {}, \"dup_handshake\": {}, \"in_flight_end\": {}, \"pools\": {{\"work_in_use\": {}, \"buf_delta\": {}}}, \"conserved\": {}, \"counters_consistent\": {}, \"per_switch\": {}, \"sim_events\": {}, \"timeline\": [{}]}}{}\n",
            r.name,
            r.pre_rps,
            r.dip_rps,
            r.dip_frac,
            r.recover_us,
            r.recovered,
            r.p50_us,
            r.p99_us,
            r.issued,
            r.completed,
            r.dead_requests,
            r.aborted_conns,
            r.peer_closed,
            r.reconnects,
            r.connect_failures,
            r.rto_fired,
            r.ctrl_aborts,
            r.reroutes,
            r.blackholed,
            r.dead_drops,
            r.down_drops,
            r.degrade_drops,
            r.dup_frames,
            r.ge_drops,
            r.ooo_accepted,
            r.pool_exhausted,
            r.admission_refused,
            r.dup_handshake,
            r.in_flight_end,
            g.work_in_use,
            r.buf_delta,
            r.conserved,
            r.counters_consistent,
            r.per_switch_json,
            r.sim_events,
            r.timeline
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(", "),
            if i + 1 == results.len() { "" } else { "," },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// The `faults` experiment: run the chaos sweep (fanned out under
/// `--jobs`), print a recovery table, write `BENCH_faults.json`.
pub fn faults(opts: &RunOpts) {
    let mut plan = if opts.smoke {
        FaultsPlan::smoke()
    } else {
        FaultsPlan::full()
    };
    if opts.gray {
        plan = plan.with_gray();
    }
    let seed = opts.seed.unwrap_or(23);
    let shards = opts.shards.max(1);
    let jobs = opts.point_jobs();
    println!(
        "# faults — chaos plane on the {LEAVES}-leaf/{SPINES}-spine fabric, reconnecting sessions{}{} [jobs={jobs} shards={shards}]",
        if opts.smoke { " [smoke]" } else { "" },
        if opts.gray { " [gray]" } else { "" }
    );
    println!(
        "{:<16} {:>9} {:>9} {:>6} {:>9} {:>6} {:>7} {:>7} {:>8} {:>8} {:>9}",
        "row",
        "pre rps",
        "dip rps",
        "dip",
        "recov us",
        "aborts",
        "reconn",
        "reroute",
        "blackh",
        "rto",
        "conserved"
    );
    let wall0 = std::time::Instant::now();
    let results = run_faults_jobs_shards(seed, &plan, jobs, shards);
    let wall = wall0.elapsed().as_secs_f64();
    for r in &results {
        println!(
            "{:<16} {:>9.0} {:>9.0} {:>6.3} {:>9} {:>6} {:>7} {:>7} {:>8} {:>8} {:>9}",
            r.name,
            r.pre_rps,
            r.dip_rps,
            r.dip_frac,
            r.recover_us,
            r.aborted_conns,
            r.reconnects,
            r.reroutes,
            r.blackholed,
            r.rto_fired,
            r.conserved,
        );
    }
    let sim_events: u64 = results.iter().map(|r| r.sim_events).sum();
    println!(
        "sweep wall: {:.2}s, {} events ({:.2}M events/s, jobs={}, shards={})",
        wall,
        sim_events,
        sim_events as f64 / wall / 1e6,
        jobs,
        shards
    );
    let mut extras = vec![
        format!("\"shards\": {shards}"),
        format!("\"threads_total\": {}", jobs * shards),
    ];
    if shards > 1 {
        let windows: u64 = results
            .iter()
            .filter_map(|r| r.sync.as_ref())
            .map(|s| s.windows)
            .sum();
        let envelopes: u64 = results
            .iter()
            .filter_map(|r| r.sync.as_ref())
            .map(|s| s.envelopes.iter().sum::<u64>())
            .sum();
        let blocked: u64 = results
            .iter()
            .filter_map(|r| r.sync.as_ref())
            .map(|s| s.blocked_ns.iter().sum::<u64>())
            .sum();
        extras.push(format!("\"shard_windows\": {windows}"));
        extras.push(format!("\"shard_envelopes\": {envelopes}"));
        extras.push(format!("\"shard_blocked_ns\": {blocked}"));
    }
    let json = with_wall_extras(
        faults_json(seed, &plan, &results),
        wall,
        sim_events,
        jobs,
        &extras,
    );
    let path = opts.out_path("BENCH_faults.json");
    std::fs::write(&path, &json).expect("write BENCH_faults.json");
    println!("wrote {}", path.display());
}
