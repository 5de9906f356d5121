//! The chaos experiment: fault injection on the 4-leaf/2-spine fabric
//! under a reconnecting closed-loop session workload. Each row fails part
//! of the fabric at `t_fault` — probabilistic drop storms, fabric-link
//! flap trains, spine kills (ECMP failover), leaf kills (blackholed hosts
//! → RTO give-up → abort → reconnection storm), and the gray failures that
//! degrade without killing anything — and explicitly heals it at
//! `t_heal`. The driver samples goodput in fixed time buckets around the
//! window and reports recovery metrics: dip depth, time-to-recover after
//! heal, and the reroute / retransmit / abort / reconnect counts behind
//! them.
//!
//! Every row ends with a conservation audit: after `CloseAll` + drain,
//! each issued request is accounted exactly once (`issued == completed +
//! dead_requests`), no session holds an in-flight request, and the
//! FlexTOE pool gauges (work slots, pktbuf segments) are back to zero
//! in-flight across every NIC. `BENCH_faults.json` is byte-identical per
//! seed across runs, `--jobs` and `--shards` values, and the wheel vs.
//! reference-heap queue.

use flextoe_apps::{Arrival, ClientSpec, CloseAll, SizeDist, Wire};
use flextoe_core::PoolGauges;
use flextoe_netsim::{Faults, GeParams, Link, Switch};
use flextoe_sim::{Duration, Histogram, NodeId, Sim, Time};
use flextoe_topo::{
    BuiltFabric, DynClient, FaultEvent, FaultTarget, LinkScope, PairOpts, Role, Scenario, Stack,
};

use crate::driver::{has_rows, holds, Experiment, PointRun};
use crate::harness::{cross_tier_scenario, owned_gauges, FabricRun};
use crate::json::{fixed, Json};
use crate::scale::{leaf_spine_name, LEAF_SPINE, LEAVES};

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

/// Hard-fail `targets` at `t_fault`, heal them all at `t_heal`.
pub fn kill_schedule(t_fault: Time, t_heal: Time, targets: &[FaultTarget]) -> Vec<FaultEvent> {
    let mut v: Vec<FaultEvent> = targets
        .iter()
        .map(|&t| FaultEvent::down(t_fault, t))
        .collect();
    v.extend(targets.iter().map(|&t| FaultEvent::up(t_heal, t)));
    v
}

/// Flap train on the first leaf0↔spine0 link: `n` down/up cycles across
/// the window, the link down for half of each period, healed by the last
/// `Up`.
pub fn flap_schedule(t_fault: Time, t_heal: Time, n: u64) -> Vec<FaultEvent> {
    let link = FaultTarget::FabricLink { index: 0 };
    let period = Duration::from_ns(t_heal.saturating_since(t_fault).as_ns() / n);
    let half = Duration::from_ns(period.as_ns() / 2);
    (0..n)
        .flat_map(|k| {
            let t0 = t_fault + period * k;
            [FaultEvent::down(t0, link), FaultEvent::up(t0 + half, link)]
        })
        .collect()
}

/// The sweep: the fault-intensity rows (drop percentage, flap rate, kill
/// count; `full` adds the long ones), then the gray-failure rows.
fn chaos_rows(t_fault: Time, t_heal: Time, full: bool) -> Vec<ChaosRow> {
    let spine0 = FaultTarget::Switch { index: LEAVES };
    let leaf1 = FaultTarget::Switch { index: 1 };
    let degrade = |name, faults: Faults| ChaosRow {
        name,
        schedule: vec![
            FaultEvent::degrade(t_fault, LinkScope::Fabric, faults),
            FaultEvent::degrade(t_heal, LinkScope::Fabric, Faults::default()),
        ],
    };
    let drop = |name, p: f64| {
        degrade(
            name,
            Faults {
                drop_chance: p,
                ..Default::default()
            },
        )
    };
    let kill = |name, targets: &[FaultTarget]| ChaosRow {
        name,
        schedule: kill_schedule(t_fault, t_heal, targets),
    };
    let mut rows = vec![ChaosRow {
        name: "baseline",
        schedule: vec![],
    }];
    if full {
        rows.push(drop("drop-1pct", 0.01));
    }
    rows.push(drop("drop-10pct", 0.10));
    rows.push(kill("spine-kill", &[spine0]));
    if full {
        for (name, n) in [("link-flap-x1", 1), ("link-flap-x4", 4)] {
            rows.push(ChaosRow {
                name,
                schedule: flap_schedule(t_fault, t_heal, n),
            });
        }
        rows.push(kill("leaf-kill", &[leaf1]));
        rows.push(kill("spine-leaf-kill", &[spine0, leaf1]));
    }
    // The gray failures degrade without killing anything. Every
    // probabilistic draw comes from the afflicted link's own RNG stream,
    // so these rows too are byte-identical per seed across engines,
    // `--jobs`, and `--shards`.
    rows.push(degrade(
        "dup-storm",
        Faults {
            dup_chance: 0.3,
            ..Default::default()
        },
    ));
    rows.push(degrade(
        "reorder",
        Faults {
            jitter: Duration::from_us(5),
            ..Default::default()
        },
    ));
    rows.push(degrade(
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
    ));
    // 512× serialization on spine0 turns its 100G ports into ~200M
    // ones: slow enough to queue and dip the flows ECMP pinned to
    // it, while spine1's flows sail through — the canonical
    // differential gray failure (no port ever reports down).
    rows.push(ChaosRow {
        name: "limping-spine",
        schedule: vec![
            FaultEvent::limp(t_fault, LEAVES, 512),
            FaultEvent::limp(t_heal, LEAVES, 1),
        ],
    });
    rows
}

/// The rows that must degrade without hard-killing anything.
const GRAY_ROWS: [&str; 4] = ["dup-storm", "reorder", "ge-loss", "limping-spine"];

/// The commutative harvest of one chaos row after the drain: what one
/// part of the run (the whole `Sim`, or one shard) counted. Every field
/// merges by addition, so the merged row is the monolithic one whatever
/// the shard count.
#[derive(Default)]
struct FaultsCounts {
    latency: Histogram,
    // session accounting
    issued: u64,
    completed: u64,
    dead_requests: u64,
    aborted_conns: u64,
    peer_closed: u64,
    reconnects: u64,
    connect_failures: u64,
    in_flight_end: u64,
    // control plane + links
    rto_fired: u64,
    ctrl_aborts: u64,
    degrade_drops: u64,
    // gray-failure plane
    /// Frames the links delivered twice (`link.duplicated`).
    dup_frames: u64,
    /// Frames lost to the Gilbert–Elliott bursty-loss model
    /// (`link.ge_drops`; also included in `degrade_drops`).
    ge_drops: u64,
    /// Out-of-order segments the protocol stages buffered and later
    /// accepted (`proto.ooo`) — the reorder row's signature.
    ooo_accepted: u64,
    /// RX frames shed at the sequencer because a capped work pool had no
    /// free slot (`nic.pool_exhausted`).
    pool_exhausted: u64,
    /// Passive opens refused with an RST at the SYN admission cap
    /// (`ctrl.admission_refused`).
    admission_refused: u64,
    /// Duplicate SYN / SYN-ACK deliveries the control plane absorbed
    /// instead of double-installing (`ctrl.dup_handshake`) — the
    /// dup-storm row's handshake-path signature.
    dup_handshake: u64,
    // conservation audit
    gauges: PoolGauges,
    /// Global packet-buffer balance (takes − returns over the sim-wide
    /// pool and every NIC pool); 0 once everything drained.
    buf_delta: i64,
    /// Per switch, in [`SWITCH_FIELDS`] order, with each link's
    /// down-drops attributed to the switch that feeds it (host uplinks
    /// attribute to the edge switch). Full length on every part; zero
    /// rows for switches another shard owns.
    per_switch: Vec<[u64; 4]>,
    /// What the switches reported through their named counters
    /// (`switch.ecmp_rerouted` / `.blackholed` / `.dead_drops`).
    named: [u64; 3],
    sim_events: u64,
}

/// Column meaning of [`FaultsCounts::per_switch`].
const SWITCH_FIELDS: [&str; 4] = ["reroutes", "blackholed", "dead_drops", "down_drops"];

impl FaultsCounts {
    fn merge(&mut self, o: &FaultsCounts) {
        self.latency.merge(&o.latency);
        self.issued += o.issued;
        self.completed += o.completed;
        self.dead_requests += o.dead_requests;
        self.aborted_conns += o.aborted_conns;
        self.peer_closed += o.peer_closed;
        self.reconnects += o.reconnects;
        self.connect_failures += o.connect_failures;
        self.in_flight_end += o.in_flight_end;
        self.rto_fired += o.rto_fired;
        self.ctrl_aborts += o.ctrl_aborts;
        self.degrade_drops += o.degrade_drops;
        self.dup_frames += o.dup_frames;
        self.ge_drops += o.ge_drops;
        self.ooo_accepted += o.ooo_accepted;
        self.pool_exhausted += o.pool_exhausted;
        self.admission_refused += o.admission_refused;
        self.dup_handshake += o.dup_handshake;
        self.gauges.merge(&o.gauges);
        self.buf_delta += o.buf_delta;
        self.per_switch.resize(o.per_switch.len(), [0; 4]);
        for (acc, counts) in self.per_switch.iter_mut().zip(&o.per_switch) {
            for (a, v) in acc.iter_mut().zip(counts) {
                *a += v;
            }
        }
        for (a, v) in self.named.iter_mut().zip(o.named) {
            *a += v;
        }
        self.sim_events += o.sim_events;
    }
}

/// The chaos scenario: every even host runs reconnecting sessions toward
/// the server on the next leaf (all traffic crosses the spines, same
/// pattern as the scale sweep), under `row`'s fault schedule. Public so
/// the telemetry experiment can run sketch accuracy under the exact
/// same fault rows.
pub fn chaos_scenario(seed: u64, row: &ChaosRow, plan: &FaultsPlan) -> Scenario {
    let mut sc = cross_tier_scenario(seed, LEAF_SPINE, Stack::FlexToe, |_, target| Role::Client {
        cfg: ClientSpec {
            n_conns: plan.n_sessions_per_host,
            arrival: Arrival::Sessions {
                think: plan.think,
                backoff_base: Duration::from_us(200),
                backoff_cap: Duration::from_ms(2),
            },
            wire: Wire::Framed {
                req: SizeDist::Fixed(plan.req_size),
                resp: SizeDist::Fixed(plan.resp_size),
            },
            warmup: plan.warmup,
            connect_spacing: Duration::from_us(1),
            ..Default::default()
        },
        target,
    });
    sc.opts = PairOpts {
        min_rto: plan.min_rto,
        syn_retry: plan.syn_retry,
        rto_give_up: Some(plan.rto_give_up),
        ..Default::default()
    };
    sc.fault_schedule = row.schedule.clone();
    sc
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

/// Count what this `Sim` owns of a drained chaos row.
fn harvest(sim: &Sim, fab: &BuiltFabric) -> FaultsCounts {
    let named = |name| sim.stats.get_named(name);
    let mut p = FaultsCounts {
        gauges: owned_gauges(sim, fab),
        buf_delta: buf_balance(sim, fab),
        per_switch: vec![[0; 4]; fab.switches.len()],
        dup_frames: named("link.duplicated"),
        ge_drops: named("link.ge_drops"),
        ooo_accepted: named("proto.ooo"),
        pool_exhausted: named("nic.pool_exhausted"),
        admission_refused: named("ctrl.admission_refused"),
        dup_handshake: named("ctrl.dup_handshake"),
        rto_fired: named("ctrl.rto_fired"),
        ctrl_aborts: named("ctrl.abort"),
        named: [
            named("switch.ecmp_rerouted"),
            named("switch.blackholed"),
            named("switch.dead_drops"),
        ],
        sim_events: sim.events_processed(),
        ..Default::default()
    };
    for h in &fab.hosts {
        let Some(n) = h.client() else { continue };
        if !sim.owns(n) {
            continue;
        }
        let c = sim.node_ref::<DynClient>(n);
        p.latency.merge(&c.latency);
        p.issued += c.issued;
        p.completed += c.completed;
        p.dead_requests += c.dead_requests;
        p.aborted_conns += c.aborted_conns;
        p.peer_closed += c.peer_closed;
        p.reconnects += c.reconnects;
        p.connect_failures += c.failed as u64;
        p.in_flight_end += c.in_flight() as u64;
    }
    // The feeder discipline of the partitioner guarantees a link and its
    // feeding switch share a shard, so each per_switch row is filled by
    // one shard.
    for (i, &s) in fab.switches.iter().enumerate() {
        if !sim.owns(s) {
            continue;
        }
        let sw = sim.node_ref::<Switch>(s);
        p.per_switch[i][..3].copy_from_slice(&[sw.rerouted, sw.blackholed, sw.dead_drops]);
    }
    let link_drops = |l: NodeId| -> u64 {
        if sim.owns(l) {
            sim.node_ref::<Link>(l).down_drops
        } else {
            0
        }
    };
    for pair in &fab.fabric_pairs {
        p.per_switch[pair.a][3] += link_drops(pair.l_ab);
        p.per_switch[pair.b][3] += link_drops(pair.l_ba);
    }
    for r in &fab.edge_recs {
        p.per_switch[r.edge][3] += link_drops(r.uplink) + link_drops(r.downlink);
    }
    for &l in fab.edge_links.iter().chain(fab.fabric_links.iter()) {
        if sim.owns(l) {
            p.degrade_drops += sim.node_ref::<Link>(l).dropped;
        }
    }
    p
}

/// The row: the goodput timeline's recovery metrics, the merged counts,
/// and their audits.
fn row_json(row: &ChaosRow, plan: &FaultsPlan, timeline: Vec<u64>, c: FaultsCounts) -> Json {
    let bucket_ns = plan.bucket.as_ns();
    // goodput series → recovery metrics (bucket k covers
    // [k·bucket, (k+1)·bucket) in nanoseconds)
    let b = |t: Time| (t.as_ns() / bucket_ns) as usize;
    let bucket_secs = plan.bucket.as_secs_f64();
    // pre-fault baseline goodput, over [warmup, t_fault)
    let pre: Vec<u64> = timeline[b(plan.warmup)..b(plan.t_fault)].to_vec();
    let pre_avg = pre.iter().sum::<u64>() as f64 / pre.len().max(1) as f64;
    // the worst bucket inside the fault window
    let window_end = (b(plan.t_heal) + 1).min(timeline.len());
    let dip = timeline[b(plan.t_fault)..window_end]
        .iter()
        .copied()
        .min()
        .unwrap_or(0);
    let dip_frac = if pre_avg > 0.0 {
        dip as f64 / pre_avg
    } else {
        0.0
    };
    // heal → first bucket back at ≥95% of baseline (µs; -1 = never)
    let recover_us = timeline[b(plan.t_heal)..]
        .iter()
        .position(|&c| c as f64 >= 0.95 * pre_avg)
        .map(|i| ((i as u64 + 1) * bucket_ns / 1_000) as i64)
        .unwrap_or(-1);
    // recovered: the last 4 pre-`CloseAll` buckets are at ≥95% of baseline
    let tail = &timeline[timeline.len().saturating_sub(4)..];
    let tail_avg = tail.iter().sum::<u64>() as f64 / tail.len().max(1) as f64;

    // fabric totals are the column sums of the per-switch counts, which
    // land name-sorted (the order `Stats::dump_counters` lists counters in)
    let mut totals = [0u64; 4];
    let mut per_switch: Vec<(String, Json)> = Vec::new();
    for (i, counts) in c.per_switch.iter().enumerate() {
        for ((field, total), &v) in SWITCH_FIELDS.iter().zip(&mut totals).zip(counts) {
            *total += v;
            per_switch.push((format!("faults.sw{i:02}.{field}"), v.into()));
        }
    }
    per_switch.sort_by(|a, b| a.0.cmp(&b.0));
    let [reroutes, blackholed, dead_drops, down_drops] = totals;
    let conserved = c.issued == c.completed + c.dead_requests
        && c.in_flight_end == 0
        && c.gauges.work_in_use == 0
        && c.buf_delta == 0;
    // the cross-check the aggregate-only rows never had: per-switch sums
    // equal what the switches reported through their named counters
    let counters_consistent = [reroutes, blackholed, dead_drops] == c.named;
    Json::obj([
        ("name", row.name.into()),
        ("pre_rps", fixed(pre_avg / bucket_secs, 0)),
        ("dip_rps", fixed(dip as f64 / bucket_secs, 0)),
        ("dip_frac", fixed(dip_frac, 4)),
        ("recover_us", recover_us.into()),
        ("recovered", (tail_avg >= 0.95 * pre_avg).into()),
        ("p50_us", fixed(c.latency.median() as f64 / 1000.0, 2)),
        ("p99_us", fixed(c.latency.p99() as f64 / 1000.0, 2)),
        ("issued", c.issued.into()),
        ("completed", c.completed.into()),
        ("dead_requests", c.dead_requests.into()),
        ("aborted_conns", c.aborted_conns.into()),
        ("peer_closed", c.peer_closed.into()),
        ("reconnects", c.reconnects.into()),
        ("connect_failures", c.connect_failures.into()),
        ("rto_fired", c.rto_fired.into()),
        ("ctrl_aborts", c.ctrl_aborts.into()),
        ("reroutes", reroutes.into()),
        ("blackholed", blackholed.into()),
        ("dead_drops", dead_drops.into()),
        ("down_drops", down_drops.into()),
        ("degrade_drops", c.degrade_drops.into()),
        ("dup_frames", c.dup_frames.into()),
        ("ge_drops", c.ge_drops.into()),
        ("ooo_accepted", c.ooo_accepted.into()),
        ("pool_exhausted", c.pool_exhausted.into()),
        ("admission_refused", c.admission_refused.into()),
        ("dup_handshake", c.dup_handshake.into()),
        ("in_flight_end", c.in_flight_end.into()),
        (
            "pools",
            Json::obj([
                ("work_in_use", c.gauges.work_in_use.into()),
                ("buf_delta", c.buf_delta.into()),
            ]),
        ),
        ("conserved", conserved.into()),
        ("counters_consistent", counters_consistent.into()),
        ("per_switch", Json::Obj(per_switch)),
        ("sim_events", c.sim_events.into()),
        // completed responses per goodput bucket, [0, t_end)
        ("timeline", Json::arr(timeline)),
    ])
}

/// Run one chaos row across `shards` conservative-PDES shards (`1` =
/// the monolithic reference): sample goodput per bucket to `t_end`,
/// `CloseAll`, drain to `t_drain`, then audit conservation and harvest
/// counters. The returned row is identical for any shard count; only the
/// sync counters beside it differ.
pub fn run_faults_point(seed: u64, row: &ChaosRow, plan: &FaultsPlan, shards: usize) -> PointRun {
    let (r, p) = (row.clone(), plan.clone());
    let mut run = FabricRun::launch(shards, move || chaos_scenario(seed, &r, &p));
    let bucket_ns = plan.bucket.as_ns();
    let n_buckets = (plan.t_end.as_ns() / bucket_ns) as usize;
    let mut timeline = Vec::with_capacity(n_buckets);
    let mut prev = 0u64;
    for k in 1..=n_buckets {
        run.run_until(Time::from_ns(k as u64 * bucket_ns));
        let done: u64 = run
            .each(|sim, fab| {
                fab.hosts
                    .iter()
                    .filter_map(|h| h.client())
                    .filter(|&n| sim.owns(n))
                    .map(|n| sim.node_ref::<DynClient>(n).completed)
                    .sum::<u64>()
            })
            .iter()
            .sum();
        timeline.push(done - prev);
        prev = done;
    }
    // CloseAll for *every* session on *every* part: ghost externals
    // are dropped at the mask but still consume an external sequence
    // number, keeping admission order aligned with the monolithic run.
    let t_end = plan.t_end;
    run.each(move |sim, fab| {
        for n in fab.hosts.iter().filter_map(|h| h.client()) {
            sim.schedule(t_end, n, CloseAll);
        }
    });
    run.run_until(plan.t_drain);
    let mut counts = FaultsCounts::default();
    for part in run.each(|sim, fab| harvest(sim, fab)) {
        counts.merge(&part);
    }
    PointRun {
        gauges: counts.gauges,
        row: row_json(row, plan, timeline, counts),
        sync: run.sync_stats(),
    }
}

/// The invariants of one chaos row: it conserves, it recovers, its
/// fault left the signature it exists to produce, and a gray fault
/// never hard-kills.
pub fn check_row(r: &Json) -> Result<(), String> {
    let n = |key: &str| r[key].num();
    let yes = |key: &str| r[key] == Json::Bool(true);
    let name = r["name"].as_str();
    let signature = match name {
        "spine-kill" => n("reroutes") > 0.0,
        "drop-10pct" => n("rto_fired") > 0.0,
        "dup-storm" => n("dup_frames") > 0.0,
        "ge-loss" => n("ge_drops") > 0.0 && n("rto_fired") > 0.0,
        _ => true,
    };
    let hard_killed = n("dead_drops") > 0.0 || n("blackholed") > 0.0;
    holds(
        format_args!("row {name}"),
        &[
            (yes("conserved"), "conservation violated"),
            (
                n("issued") == n("completed") + n("dead_requests"),
                "issued != completed + dead_requests",
            ),
            (
                n("pools.work_in_use") == 0.0 && n("pools.buf_delta") == 0.0,
                "pools not drained",
            ),
            (yes("recovered"), "goodput never recovered"),
            (n("pre_rps") > 0.0, "no pre-fault goodput"),
            (
                yes("counters_consistent"),
                "per-switch counters disagree with the named totals",
            ),
            (
                signature,
                "no failover / retransmit / duplicate / GE drop: the fault left no signature",
            ),
            (
                !(GRAY_ROWS.contains(&name) && hard_killed),
                "a gray fault hard-killed",
            ),
        ],
    )
}

/// The `faults` experiment: the chaos sweep and its recovery table.
impl Experiment for FaultsPlan {
    const NAME: &'static str = "faults";
    const TITLE: &'static str =
        "chaos plane on the 4-leaf/2-spine fabric, reconnecting sessions, hard + gray faults";
    const SEED: u64 = 23;
    const ROWS_KEY: &'static str = "rows";
    const COLUMNS: &'static str =
        "name pre_rps dip_rps dip_frac recover_us aborted_conns reconnects \
        reroutes blackholed rto_fired conserved";
    const SHARDS: &'static [usize] = &[2];
    type Point = ChaosRow;

    fn full() -> FaultsPlan {
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

    fn smoke() -> FaultsPlan {
        let (t_fault, t_heal) = (Time::from_us(1500), Time::from_ms(3));
        FaultsPlan {
            rows: chaos_rows(t_fault, t_heal, false),
            n_sessions_per_host: 4,
            warmup: Time::from_us(750),
            t_fault,
            t_heal,
            t_end: Time::from_ms(5),
            t_drain: Time::from_ms(8),
            ..FaultsPlan::full()
        }
    }

    fn points(&self) -> Vec<ChaosRow> {
        self.rows.clone()
    }

    fn run_point(&self, seed: u64, row: &ChaosRow, shards: usize) -> PointRun {
        run_faults_point(seed, row, self, shards)
    }

    fn scenario_json(&self, seed: u64) -> Json {
        Json::obj([
            ("seed", seed.into()),
            ("fabric", leaf_spine_name()),
            ("hosts", LEAF_SPINE.n_hosts().into()),
            ("sessions_per_client", self.n_sessions_per_host.into()),
            ("req_size", self.req_size.into()),
            ("resp_size", self.resp_size.into()),
            ("think_us", self.think.as_us().into()),
            ("min_rto_us", self.min_rto.as_us().into()),
            ("rto_give_up", self.rto_give_up.into()),
            ("syn_retry_us", self.syn_retry.as_us().into()),
            ("bucket_us", self.bucket.as_us().into()),
            ("t_fault_us", self.t_fault.as_us().into()),
            ("t_heal_us", self.t_heal.as_us().into()),
            ("t_end_us", self.t_end.as_us().into()),
            ("t_drain_us", self.t_drain.as_us().into()),
        ])
    }

    /// Every row passes [`check_row`], the rows CI has always asked for
    /// are there, and the limping spine dips goodput.
    fn check(rows: &[Json]) -> Result<(), String> {
        rows.iter().try_for_each(check_row)?;
        has_rows(rows, "name", &["baseline", "drop-10pct", "spine-kill"])?;
        has_rows(rows, "name", &GRAY_ROWS)?;
        let dip = |name: &str| {
            let row = rows.iter().find(|r| r["name"].as_str() == name);
            row.map_or(f64::NAN, |r| r["dip_frac"].num())
        };
        let limps = dip("limping-spine") < dip("baseline");
        holds(
            "row limping-spine",
            &[(limps, "a 512x limping spine must dip goodput")],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The conservation checks fire on a doctored row and name it.
    #[test]
    fn check_row_names_a_row_that_does_not_conserve() {
        let plan = FaultsPlan::smoke();
        let mut r = run_faults_point(FaultsPlan::SEED, &plan.rows[0], &plan, 1).row;
        assert_eq!(check_row(&r), Ok(()));
        r.set("conserved", false);
        let err = check_row(&r).unwrap_err();
        assert_eq!(err, "row baseline: conservation violated");
        r.set("conserved", true);
        r.set("issued", r["issued"].num() as u64 + 1);
        let err = check_row(&r).unwrap_err();
        assert_eq!(err, "row baseline: issued != completed + dead_requests");
    }
}
