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
//! The fault harness is defined here once for the sweep, the
//! `telemetry` fault rows and the chaos, gray-failure and fuzz suites:
//! one workload builder ([`SessionFabric`]) and one drain ([`drain`])
//! whose merged counts one audit ([`FaultsCounts::audit`]) checks. After
//! `CloseAll` + drain, each issued request is accounted exactly once
//! (`issued == completed + dead_requests`), no session holds an
//! in-flight request, the work pools and the global packet-buffer
//! balance are back to zero, no server saw a bad frame, and the run made
//! progress. `BENCH_faults.json` is byte-identical per seed across runs,
//! `--jobs` and `--shards` values, and the wheel vs. reference-heap
//! queue.

use flextoe_apps::{Arrival, ClientSpec, CloseAll, SizeDist, Wire};
use flextoe_core::PoolGauges;
use flextoe_netsim::{Faults, GeParams, Link, Switch};
use flextoe_sim::{Duration, Histogram, NodeId, Sim, Time};
use flextoe_topo::{
    BuiltFabric, BuiltRole, DynClient, DynServer, Fabric, FaultEvent, FaultTarget, LinkScope, Role,
    Scenario, Stack,
};

use crate::driver::{expect, has_rows, holds, Experiment, PointRun};
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
/// `BUCKET` (the goodput series is sampled on bucket boundaries).
#[derive(Clone)]
pub struct FaultsPlan {
    pub rows: Vec<ChaosRow>,
    pub n_sessions_per_host: u32,
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

/// The chaos-grade RTO tuning every fault experiment runs: floor and
/// give-up budget sized so a blackholed flow aborts *inside* the fault
/// window (stall → abort ≈ `MIN_RTO × 2^RTO_GIVE_UP`, ~1.6 ms).
const MIN_RTO: Duration = Duration::from_us(200);
const RTO_GIVE_UP: u32 = 3;
/// Base SYN retransmission interval for reconnect attempts.
const SYN_RETRY: Duration = Duration::from_us(400);
/// Closed-loop think time between a response and the next request.
const THINK: Duration = Duration::from_us(20);
/// A session's jittered reconnect backoff, from base up to the cap.
const BACKOFF_BASE: Duration = Duration::from_us(200);
const BACKOFF_CAP: Duration = Duration::from_ms(2);
/// The sweep's request size (the builder's default), and every
/// session's response size.
const REQ_SIZE: u32 = 128;
const RESP_SIZE: u32 = 512;
/// The sweep's goodput sampling bucket.
const BUCKET: Duration = Duration::from_us(250);

/// The reconnecting-session fabric every fault experiment runs: every
/// even host runs `n_conns` sessions toward the server on the next leaf
/// (all traffic crosses the spines, the scale sweep's pattern, through
/// [`cross_tier_scenario`]), every host runs `stack`, with the
/// chaos-grade RTO tuning, under `schedule`. `req_size` sets the stall
/// surface: multi-segment requests keep the client mid-transfer
/// (unACKed data) most of the cycle, so a cut path reliably trips the
/// *client-side* RTO give-up, not just the server's, and 8 KiB (≈ 6
/// MSS) keeps a window's worth of data exposed to duplication and
/// reordering. The default is the 4-leaf/2-spine fabric, four FlexTOE
/// sessions per client, 128 B requests, a 500 µs warmup and no faults.
#[derive(Clone)]
pub struct SessionFabric {
    pub stack: Stack,
    pub seed: u64,
    pub shape: Fabric,
    pub n_conns: u32,
    pub req_size: u32,
    pub warmup: Time,
    pub schedule: Vec<FaultEvent>,
}

impl Default for SessionFabric {
    fn default() -> SessionFabric {
        SessionFabric {
            stack: Stack::FlexToe,
            seed: 0,
            shape: LEAF_SPINE,
            n_conns: 4,
            req_size: REQ_SIZE,
            warmup: Time::from_us(500),
            schedule: Vec::new(),
        }
    }
}

impl SessionFabric {
    pub fn scenario(&self) -> Scenario {
        let mut sc = cross_tier_scenario(self.seed, self.shape, self.stack, |_, target| {
            Role::Client {
                cfg: ClientSpec {
                    n_conns: self.n_conns,
                    arrival: Arrival::Sessions {
                        think: THINK,
                        backoff_base: BACKOFF_BASE,
                        backoff_cap: BACKOFF_CAP,
                    },
                    wire: Wire::Framed {
                        req: SizeDist::Fixed(self.req_size),
                        resp: SizeDist::Fixed(RESP_SIZE),
                    },
                    warmup: self.warmup,
                    connect_spacing: Duration::from_us(1),
                    ..Default::default()
                },
                target,
            }
        });
        sc.opts.min_rto = MIN_RTO;
        sc.opts.syn_retry = SYN_RETRY;
        sc.opts.rto_give_up = Some(RTO_GIVE_UP);
        sc.fault_schedule = self.schedule.clone();
        sc
    }

    /// Build it on one `Sim` (`shards <= 1`) or across `shards` shards.
    pub fn launch(self, shards: usize) -> FabricRun {
        FabricRun::launch(shards, move || self.scenario())
    }
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

/// The commutative harvest of a drained session fabric: what one part
/// of the run (the whole `Sim`, or one shard) counted. Every field
/// merges by addition, so the merged counts are the monolithic run's
/// whatever the shard count.
#[derive(Default)]
pub struct FaultsCounts {
    latency: Histogram,
    // session accounting
    issued: u64,
    pub(crate) completed: u64,
    dead_requests: u64,
    aborted_conns: u64,
    peer_closed: u64,
    reconnects: u64,
    connect_failures: u64,
    in_flight_end: u64,
    // control plane + links
    rto_fired: u64,
    /// Aborted flows (`ctrl.abort` plus the host stacks' `aborts`).
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
    /// (`ctrl.admission_refused` plus the host stacks' count).
    admission_refused: u64,
    /// Duplicate SYN / SYN-ACK deliveries the control plane absorbed
    /// instead of double-installing (`ctrl.dup_handshake`) — the
    /// dup-storm row's handshake-path signature.
    dup_handshake: u64,
    // conservation audit
    gauges: PoolGauges,
    /// Global packet-buffer balance (takes − returns over the sim-wide
    /// pool and every NIC pool); 0 once everything drained.
    pub(crate) buf_delta: i64,
    /// Frames the servers could not parse: corruption or gray faults
    /// that reached a byte stream.
    bad_frames: u64,
    /// Per switch, in [`SWITCH_FIELDS`] order, with each link's
    /// down-drops attributed to the switch that feeds it (host uplinks
    /// attribute to the edge switch). Full length on every part; zero
    /// rows for switches another shard owns.
    per_switch: Vec<[u64; 4]>,
    /// What the switches reported through their named counters
    /// (`switch.ecmp_rerouted` / `.blackholed` / `.dead_drops`).
    named: [u64; 3],
    pub(crate) sim_events: u64,
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
        self.bad_frames += o.bad_frames;
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

    /// The conservation audit of a drained run. It reads the counts
    /// merged over every part: buffers migrate between shards' pools,
    /// so conservation holds only on the sum. `Err` names the first
    /// violated clause.
    pub fn audit(&self) -> Result<(), String> {
        let c = self;
        let clauses = [
            (
                c.issued == c.completed + c.dead_requests,
                "accounting: request accounting broke, not every request accounted once",
            ),
            (
                c.in_flight_end == 0,
                "live request after drain: no session may hold a live request",
            ),
            (
                c.gauges.work_in_use == 0,
                "work pool: work-pool slots leaked",
            ),
            (c.buf_delta == 0, "buffers: packet buffers leaked"),
            (
                c.bad_frames == 0,
                "bad frame: corruption leaked into a stream, or gray faults leaked into a stream",
            ),
            (
                c.completed > 0,
                "progress: no progress, the scenario must make progress",
            ),
        ];
        match clauses.iter().find(|(ok, _)| !ok) {
            None => Ok(()),
            Some((_, what)) => Err(format!(
                "{what} (issued {}, completed {}, dead {}, in flight {}, work in use {}, \
                buf_balance {}, bad frames {})",
                c.issued,
                c.completed,
                c.dead_requests,
                c.in_flight_end,
                c.gauges.work_in_use,
                c.buf_delta,
                c.bad_frames
            )),
        }
    }
}

/// `CloseAll` every client at `at` (no part may have run past it),
/// drain to `until`, and harvest every part into one merged count.
pub fn drain(run: &mut FabricRun, at: Time, until: Time) -> FaultsCounts {
    // CloseAll for *every* session on *every* part: ghost externals
    // are dropped at the mask but still consume an external sequence
    // number, keeping admission order aligned with the monolithic run.
    run.each(move |sim, fab| {
        for n in fab.hosts.iter().filter_map(|h| h.client()) {
            sim.schedule(at, n, CloseAll);
        }
    });
    run.run_until(until);
    let mut counts = FaultsCounts::default();
    for part in run.each(|sim, fab| harvest(sim, fab)) {
        counts.merge(&part);
    }
    counts
}

/// [`drain`], then [`FaultsCounts::audit`] the merged counts.
pub fn drain_and_audit(run: &mut FabricRun, at: Time, until: Time) -> Result<FaultsCounts, String> {
    let counts = drain(run, at, until);
    counts.audit().map(|()| counts)
}

/// The clients this `Sim` owns.
fn owned_clients<'a>(sim: &'a Sim, fab: &'a BuiltFabric) -> impl Iterator<Item = &'a DynClient> {
    fab.hosts
        .iter()
        .filter_map(|h| h.client())
        .filter(|&n| sim.owns(n))
        .map(|n| sim.node_ref::<DynClient>(n))
}

/// Requests completed so far by the clients this `Sim` owns.
pub fn completed(sim: &Sim, fab: &BuiltFabric) -> u64 {
    owned_clients(sim, fab).map(|c| c.completed).sum()
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

/// Count what this `Sim` owns of a drained session fabric.
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
    for c in owned_clients(sim, fab) {
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
    for h in &fab.hosts {
        match h.app {
            Some(n) if h.role == BuiltRole::Server && sim.owns(n) => {
                p.bad_frames += sim.node_ref::<DynServer>(n).bad_frames;
            }
            _ => {}
        }
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
    let bucket_ns = BUCKET.as_ns();
    // goodput series → recovery metrics (bucket k covers
    // [k·bucket, (k+1)·bucket) in nanoseconds)
    let b = |t: Time| (t.as_ns() / bucket_ns) as usize;
    let bucket_secs = BUCKET.as_secs_f64();
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
    let conserved = c.audit().is_ok();
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

impl FaultsPlan {
    /// The plan's session fabric for one seed and fault schedule.
    pub fn fabric(&self, seed: u64, schedule: Vec<FaultEvent>) -> SessionFabric {
        SessionFabric {
            seed,
            n_conns: self.n_sessions_per_host,
            warmup: self.warmup,
            schedule,
            ..Default::default()
        }
    }
}

/// Run one chaos row across `shards` conservative-PDES shards (`1` =
/// the monolithic reference): sample goodput per bucket to `t_end`,
/// then [`drain`] to `t_drain` and audit the merged counts. The
/// returned row is identical for any shard count; only the sync
/// counters beside it differ.
pub fn run_faults_point(seed: u64, row: &ChaosRow, plan: &FaultsPlan, shards: usize) -> PointRun {
    let mut run = plan.fabric(seed, row.schedule.clone()).launch(shards);
    let bucket_ns = BUCKET.as_ns();
    let n_buckets = (plan.t_end.as_ns() / bucket_ns) as usize;
    let mut timeline = Vec::with_capacity(n_buckets);
    let mut prev = 0u64;
    for k in 1..=n_buckets {
        run.run_until(Time::from_ns(k as u64 * bucket_ns));
        let done: u64 = run.each(|sim, fab| completed(sim, fab)).iter().sum();
        timeline.push(done - prev);
        prev = done;
    }
    let counts = drain(&mut run, plan.t_end, plan.t_drain);
    PointRun {
        gauges: counts.gauges,
        row: row_json(row, plan, timeline, counts),
        sync: run.sync_stats(),
    }
}

/// Rows known not to recover, each with why: the known-miss rule of
/// `driver::expect`, so a fix that makes one recover fails the check
/// until its line goes.
const KNOWN_UNRECOVERED: [(&str, &str); 1] = [(
    "link-flap-x1",
    "one flap leaves goodput below its pre-fault rate, unexplained (ROADMAP item 5)",
)];

/// The invariants of one chaos row: it conserves, it recovers (or is a
/// known miss), its fault left the signature it exists to produce, and a
/// gray fault never hard-kills.
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
    )?;
    let known_miss = KNOWN_UNRECOVERED.iter().find(|(row, _)| *row == name);
    expect(
        format_args!("row {name}"),
        "goodput recovers",
        yes("recovered"),
        known_miss.map(|(_, why)| *why),
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
            ("req_size", REQ_SIZE.into()),
            ("resp_size", RESP_SIZE.into()),
            ("think_us", THINK.as_us().into()),
            ("min_rto_us", MIN_RTO.as_us().into()),
            ("rto_give_up", RTO_GIVE_UP.into()),
            ("syn_retry_us", SYN_RETRY.as_us().into()),
            ("bucket_us", BUCKET.as_us().into()),
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

    /// A full-mode row goes through the same check: a row that does not
    /// recover fails unless it is a known miss, and a known miss that
    /// recovers fails until its reason goes.
    #[test]
    fn full_rows_follow_the_known_miss_rule() {
        let plan = FaultsPlan::smoke();
        let mut r = run_faults_point(FaultsPlan::SEED, &plan.rows[0], &plan, 1).row;
        r.set("recovered", false);
        let err = check_row(&r).unwrap_err();
        assert_eq!(err, "row baseline: does not hold: goodput recovers");
        // the committed full link-flap-x1 row: unrecovered, a known miss
        r.set("name", "link-flap-x1");
        assert_eq!(check_row(&r), Ok(()));
        r.set("recovered", true);
        let err = check_row(&r).unwrap_err();
        assert!(
            err.starts_with("row link-flap-x1: holds, yet is recorded as a known miss")
                && err.contains("ROADMAP item 5"),
            "{err}"
        );
    }

    /// The drain audit names each clause that doctored counts violate.
    #[test]
    fn audit_names_each_violated_clause() {
        let clean = || FaultsCounts {
            issued: 10,
            completed: 8,
            dead_requests: 2,
            ..Default::default()
        };
        assert_eq!(clean().audit(), Ok(()));
        type Doctor = fn(&mut FaultsCounts);
        let cases: [(&str, Doctor); 6] = [
            ("accounting", |c| c.issued += 1),
            ("live request", |c| c.in_flight_end = 1),
            ("work pool", |c| c.gauges.work_in_use = 1),
            ("buffers", |c| c.buf_delta = -1),
            ("bad frame", |c| c.bad_frames = 1),
            ("progress", |c| {
                c.completed = 0;
                c.dead_requests = c.issued;
            }),
        ];
        for (clause, doctor) in cases {
            let mut c = clean();
            doctor(&mut c);
            let err = c.audit().unwrap_err();
            assert!(err.starts_with(clause), "{clause}: {err}");
        }
    }
}
