//! The connection-scalability sweep: open-loop traffic over a 4-leaf /
//! 2-spine fabric, connection counts swept from dozens to thousands —
//! the regime where FlexTOE's per-flow state hierarchy (WorkPool,
//! PktBufPool, the CLS/EMEM connection-state caches) comes under
//! pressure and Fig. 13's scalability story plays out.
//!
//! Four client hosts each run a Poisson arrival process with heavy-tailed
//! (bounded-Pareto) response sizes toward a server on a *different* leaf,
//! so every RPC crosses the spine tier and ECMP spreads the flows. The
//! offered load is held constant across the sweep: what changes with the
//! connection count is per-request cache locality, exactly the variable
//! the paper isolates.
//!
//! Records per-stack achieved throughput, p50/p99 RPC latency (generation
//! to completion — open-loop, so queueing is visible), Jain fairness
//! across client hosts, and the pool/cache high-water gauges to
//! `BENCH_scale.json`. Byte-identical across runs of one seed.

use flextoe_apps::{FramedServerConfig, OpenLoopConfig, SizeDist};
use flextoe_core::PoolGauges;
use flextoe_netsim::Switch;
use flextoe_shard::{ShardedSim, SyncStats};
use flextoe_sim::{Duration, Histogram, Sim, Time};
use flextoe_topo::{
    build_fabric, partition_fabric, BuiltFabric, Fabric, HostSpec, PairOpts, Role, Scenario, Stack,
};

use crate::cli::RunOpts;
use crate::harness::{jain_index, DynOpenLoopClient};
use crate::par::run_indexed;

/// The fabric every sweep point runs on.
pub const LEAVES: usize = 4;
pub const SPINES: usize = 2;
pub const HOSTS_PER_LEAF: usize = 2;

/// Sweep configuration (the CI smoke configuration shrinks everything).
#[derive(Clone, Debug)]
pub struct ScalePlan {
    /// (stack, total client connections) sweep points.
    pub points: Vec<(Stack, u32)>,
    pub duration: Time,
    pub warmup: Time,
    /// Poisson arrival rate per client host (requests/second).
    pub rate_rps_per_host: f64,
    /// Request size (including the 16-byte frame header).
    pub req_size: SizeDist,
    /// Response size — the heavy-tailed half of the generator pair.
    pub resp_size: SizeDist,
}

impl ScalePlan {
    pub fn full() -> ScalePlan {
        let flex = [64u32, 512, 2048, 4096, 8192];
        let mut points: Vec<(Stack, u32)> = flex.iter().map(|&c| (Stack::FlexToe, c)).collect();
        // one baseline rides along at the low end for per-stack contrast
        points.push((Stack::Tas, 64));
        points.push((Stack::Tas, 512));
        ScalePlan {
            points,
            // long enough (at this rate) that every connection is
            // re-touched several times after its CAM/CLS residency has
            // been evicted — the regime where the EMEM-SRAM tier (and
            // Fig. 13's cliff) actually engages. The old 12 ms / 120 krps
            // window gave most connections a single cold burst, so
            // conn_cache_sram_hits sat at zero across the whole sweep.
            duration: Time::from_ms(40),
            warmup: Time::from_ms(4),
            rate_rps_per_host: 240_000.0,
            req_size: SizeDist::Fixed(64),
            resp_size: SizeDist::Pareto {
                alpha: 1.15,
                min: 64,
                max: 16_384,
            },
        }
    }

    pub fn smoke() -> ScalePlan {
        ScalePlan {
            points: vec![(Stack::FlexToe, 16), (Stack::FlexToe, 64)],
            duration: Time::from_ms(4),
            warmup: Time::from_ms(2),
            rate_rps_per_host: 60_000.0,
            req_size: SizeDist::Fixed(64),
            resp_size: SizeDist::Pareto {
                alpha: 1.15,
                min: 64,
                max: 4_096,
            },
        }
    }
}

/// One sweep point's outcome.
pub struct ScaleOutcome {
    pub stack: &'static str,
    pub conns: u32,
    pub offered_rps: f64,
    pub achieved_rps: f64,
    pub goodput_gbps: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    /// Jain fairness over per-client-host measured response bytes.
    pub jain_hosts: f64,
    /// Requests still unanswered at the deadline (open-loop backlog).
    pub backlog: u64,
    /// Aggregated pool/cache gauges over all FlexTOE NICs (zero for
    /// baseline stacks, which have no NIC pools).
    pub gauges: PoolGauges,
    /// Frames each spine forwarded (ECMP spread proof).
    pub spine_frames: Vec<u64>,
    /// Simulation events this point processed (deterministic per seed —
    /// the numerator of the sweep's wall-clock events/sec). Identical
    /// under any `--shards` value.
    pub sim_events: u64,
    /// Conservative-sync counters when the point ran sharded (`None`
    /// for the monolithic path). `windows`/`envelopes`/`events` are
    /// deterministic; `blocked_ns` is wall clock.
    pub sync: Option<SyncStats>,
}

/// The scenario for one sweep point.
fn scenario(seed: u64, stack: Stack, conns: u32, plan: &ScalePlan, shards: usize) -> Scenario {
    let fabric = Fabric::LeafSpine {
        leaves: LEAVES,
        spines: SPINES,
        hosts_per_leaf: HOSTS_PER_LEAF,
    };
    let n = fabric.n_hosts();
    let client_hosts = n / 2;
    let conns_per_host = (conns / client_hosts as u32).max(1);
    // thousands of sockets: shrink the per-socket shared buffers so the
    // footprint stays bounded (64 KB × 16 K sockets would be gigabytes)
    let mut opts = PairOpts::default();
    opts.cfg.rx_buf_size = 8 * 1024;
    opts.cfg.tx_buf_size = 8 * 1024;
    let hosts = (0..n)
        .map(|i| {
            // even hosts are clients, odd hosts are servers; a client on
            // leaf L targets the server on leaf (L+1) mod LEAVES, so all
            // traffic crosses the spines
            let role = if i % 2 == 0 {
                let leaf = i / HOSTS_PER_LEAF;
                let target_leaf = (leaf + 1) % LEAVES;
                let target = target_leaf * HOSTS_PER_LEAF + 1;
                Role::OpenLoop {
                    cfg: OpenLoopConfig {
                        n_conns: conns_per_host,
                        rate_rps: plan.rate_rps_per_host,
                        req_size: plan.req_size,
                        resp_size: plan.resp_size,
                        warmup: plan.warmup,
                        connect_spacing: Duration::from_ns(400),
                        ..Default::default()
                    },
                    target,
                }
            } else {
                Role::FramedServer(FramedServerConfig::default())
            };
            HostSpec { stack, role }
        })
        .collect();
    Scenario {
        seed,
        fabric,
        hosts,
        links: Default::default(),
        opts,
        fault_schedule: Vec::new(),
        telemetry: None,
        client_start: Time::from_us(20),
        client_stagger: Duration::from_us(1),
        shards,
    }
}

/// Per-shard harvest of one run. Every field is either a commutative
/// merge (histograms, sums, gauges) or tagged with its global index
/// (per-host bytes, per-switch frames) so [`assemble_scale`] can
/// reassemble the exact monolithic ordering. The monolithic path runs
/// the *same* harvest over a fully-owned `Sim`, so sharded and
/// single-shard outcomes are byte-identical by construction.
struct ScalePartial {
    latency: Histogram,
    measured: u64,
    resp_bytes: u64,
    backlog: u64,
    host_bytes: Vec<(usize, u64)>,
    first: Time,
    last: Time,
    gauges: PoolGauges,
    sw_frames: Vec<(usize, u64)>,
    events: u64,
}

/// Harvest the client / NIC-gauge / switch-frame state this `Sim` owns.
/// `sw_range`/`sw_ports` select which switches count as the spreading
/// tier (spines for leaf-spine, cores for the fat-tree headline).
fn harvest_scale(
    sim: &Sim,
    fab: &BuiltFabric,
    sw_range: std::ops::Range<usize>,
    sw_ports: usize,
) -> ScalePartial {
    let mut p = ScalePartial {
        latency: Histogram::new(),
        measured: 0,
        resp_bytes: 0,
        backlog: 0,
        host_bytes: Vec::new(),
        first: Time::from_ms(1 << 20),
        last: Time::ZERO,
        gauges: PoolGauges::default(),
        sw_frames: Vec::new(),
        events: sim.events_processed(),
    };
    for (i, h) in fab.hosts.iter().enumerate() {
        let Some(app) = h.client() else { continue };
        if !sim.owns(app) {
            continue;
        }
        let c = sim.node_ref::<DynOpenLoopClient>(app);
        p.latency.merge(&c.latency);
        p.measured += c.measured;
        p.resp_bytes += c.measured_resp_bytes();
        p.backlog += c.in_flight() as u64;
        p.host_bytes.push((i, c.measured_resp_bytes()));
        if c.measured > 0 {
            p.first = p.first.min(c.first_measured_at);
            p.last = p.last.max(c.last_measured_at);
        }
    }
    for h in &fab.hosts {
        if !sim.owns(h.ep.ingress) {
            continue;
        }
        if let Some((nic, _)) = &h.ep.flextoe {
            p.gauges.merge(&nic.pool_gauges(sim));
        }
    }
    for s in sw_range {
        if !sim.owns(fab.switches[s]) {
            continue;
        }
        let sw = sim.node_ref::<Switch>(fab.switches[s]);
        p.sw_frames
            .push((s, (0..sw_ports).map(|q| sw.port_stats(q).0).sum()));
    }
    p
}

/// Merge shard partials into one outcome — identical math to what the
/// pre-sharding monolithic harvest computed inline.
fn assemble_scale(
    stack: Stack,
    conns: u32,
    plan: &ScalePlan,
    partials: Vec<ScalePartial>,
    sync: Option<SyncStats>,
) -> ScaleOutcome {
    let mut latency = Histogram::new();
    let mut measured = 0u64;
    let mut resp_bytes = 0u64;
    let mut backlog = 0u64;
    let mut host_bytes = Vec::new();
    let mut sw_frames = Vec::new();
    let mut first = Time::from_ms(1 << 20);
    let mut last = Time::ZERO;
    let mut gauges = PoolGauges::default();
    let mut sim_events = 0u64;
    for p in partials {
        latency.merge(&p.latency);
        measured += p.measured;
        resp_bytes += p.resp_bytes;
        backlog += p.backlog;
        host_bytes.extend(p.host_bytes);
        sw_frames.extend(p.sw_frames);
        first = first.min(p.first);
        last = last.max(p.last);
        gauges.merge(&p.gauges);
        sim_events += p.events;
    }
    host_bytes.sort_unstable_by_key(|&(i, _)| i);
    sw_frames.sort_unstable_by_key(|&(i, _)| i);
    let per_host_bytes: Vec<u64> = host_bytes.iter().map(|&(_, v)| v).collect();

    let span = last.saturating_since(first);
    let achieved_rps = if measured >= 2 && span > Duration::ZERO {
        (measured - 1) as f64 / span.as_secs_f64()
    } else {
        0.0
    };
    let goodput_gbps = if span > Duration::ZERO {
        resp_bytes as f64 * 8.0 / span.as_secs_f64() / 1e9
    } else {
        0.0
    };
    ScaleOutcome {
        stack: stack.name(),
        sim_events,
        conns,
        offered_rps: plan.rate_rps_per_host * per_host_bytes.len() as f64,
        achieved_rps,
        goodput_gbps,
        p50_us: latency.median() as f64 / 1000.0,
        p99_us: latency.p99() as f64 / 1000.0,
        jain_hosts: jain_index(&per_host_bytes),
        backlog,
        gauges,
        spine_frames: sw_frames.into_iter().map(|(_, v)| v).collect(),
        sync,
    }
}

/// Run one sweep point across `shards` conservative-PDES shards
/// (`1` = the classic monolithic path). Every field of the returned
/// outcome except `sync` is byte-identical for any shard count.
pub fn run_scale_point(
    seed: u64,
    stack: Stack,
    conns: u32,
    plan: &ScalePlan,
    shards: usize,
) -> ScaleOutcome {
    let shards = shards.max(1);
    let spines = LEAVES..LEAVES + SPINES;
    if shards == 1 {
        let sc = scenario(seed, stack, conns, plan, 1);
        let mut sim = Sim::new(sc.seed);
        let fab = build_fabric(&mut sim, &sc);
        sim.run_until(plan.duration);
        let partial = harvest_scale(&sim, &fab, spines, LEAVES);
        return assemble_scale(stack, conns, plan, vec![partial], None);
    }
    let plan_shard = plan.clone();
    let mut sharded = ShardedSim::launch(shards, move |_| {
        let sc = scenario(seed, stack, conns, &plan_shard, shards);
        let mut sim = Sim::new(sc.seed);
        let fab = build_fabric(&mut sim, &sc);
        let part = partition_fabric(&sim, &sc, &fab, sc.shards);
        (sim, fab, part)
    });
    sharded.run_until(plan.duration);
    let partials = sharded.each(move |_, sim, fab| harvest_scale(sim, fab, spines.clone(), LEAVES));
    assemble_scale(stack, conns, plan, partials, Some(sharded.sync_stats()))
}

/// Run one sweep point (monolithic — the reference the sharded path is
/// proven byte-identical against).
pub fn run_scale_one(seed: u64, stack: Stack, conns: u32, plan: &ScalePlan) -> ScaleOutcome {
    run_scale_point(seed, stack, conns, plan, 1)
}

/// The whole sweep, fanned out over `jobs` worker threads with each
/// point split across `shards` PDES shards. Each point builds its own
/// `Sim`(s) from the same seed, so the merged (input-order) results are
/// byte-identical to a serial monolithic run for any `jobs`/`shards`.
pub fn run_scale_jobs_shards(
    seed: u64,
    plan: &ScalePlan,
    jobs: usize,
    shards: usize,
) -> Vec<ScaleOutcome> {
    run_indexed(jobs, plan.points.len(), |i| {
        let (stack, conns) = plan.points[i];
        run_scale_point(seed, stack, conns, plan, shards)
    })
}

/// The whole sweep, fanned out over `jobs` worker threads.
pub fn run_scale_jobs(seed: u64, plan: &ScalePlan, jobs: usize) -> Vec<ScaleOutcome> {
    run_scale_jobs_shards(seed, plan, jobs, 1)
}

/// The whole sweep, serially (the reference path `--jobs N` is proven
/// byte-identical against).
pub fn run_scale(seed: u64, plan: &ScalePlan) -> Vec<ScaleOutcome> {
    run_scale_jobs(seed, plan, 1)
}

// ---------------------------------------------------------------------------
// Fat-tree headline: the sharding result the PR exists for. One k=8
// fat-tree (128 hosts, 64 clients × 1564 conns = 100,096 connections)
// run at shards ∈ {1, 2, 4, 8}; the deterministic metrics row must
// serialize byte-identically at every shard count (asserted here, every
// full run), and the per-shard sync counters are recorded alongside it.
// Wall-clock speedup is honest: on a 1-CPU container the sharded runs
// measure sync *overhead*, not speedup — `physical_cores` in the wall
// block says which regime a given artifact was produced in.
// ---------------------------------------------------------------------------

/// k=8 fat tree: 128 hosts, 16 per pod, 16 core switches.
pub const FT_K: usize = 8;
/// Connections per client host; 64 clients × 1564 = 100,096 total.
pub const FT_CONNS_PER_CLIENT: u32 = 1564;

fn fattree_plan() -> ScalePlan {
    ScalePlan {
        points: Vec::new(),
        // short window: the run is handshake-dominated by design (the
        // claim under test is *connection scale*, ~100k three-way
        // handshakes plus steady-state traffic, not throughput)
        duration: Time::from_ms(3),
        warmup: Time::from_ms(2),
        rate_rps_per_host: 40_000.0,
        req_size: SizeDist::Fixed(64),
        resp_size: SizeDist::Fixed(512),
    }
}

/// The headline scenario: every even host opens 1564 connections to the
/// odd host at the same offset in the *next* pod, so all traffic
/// crosses the core tier (and, at 8 shards = one pod per shard, every
/// RPC crosses shard boundaries).
fn fattree_scenario(seed: u64, shards: usize) -> Scenario {
    let fabric = Fabric::FatTree { k: FT_K };
    let n = fabric.n_hosts();
    let per_pod = FT_K * FT_K / 4;
    let plan = fattree_plan();
    let mut opts = PairOpts::default();
    // 100k sockets × 2 sides: shrink per-socket buffers to keep the
    // footprint in the low gigabytes
    opts.cfg.rx_buf_size = 4 * 1024;
    opts.cfg.tx_buf_size = 4 * 1024;
    let hosts = (0..n)
        .map(|i| {
            let role = if i % 2 == 0 {
                let pod = i / per_pod;
                let target = ((pod + 1) % FT_K) * per_pod + (i % per_pod) + 1;
                Role::OpenLoop {
                    cfg: OpenLoopConfig {
                        n_conns: FT_CONNS_PER_CLIENT,
                        rate_rps: plan.rate_rps_per_host,
                        req_size: plan.req_size,
                        resp_size: plan.resp_size,
                        warmup: plan.warmup,
                        connect_spacing: Duration::from_ns(400),
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
        fault_schedule: Vec::new(),
        telemetry: None,
        client_start: Time::from_us(20),
        client_stagger: Duration::from_us(1),
        shards,
    }
}

/// One fat-tree run at a given shard count.
pub struct FatTreeRun {
    pub shards: usize,
    /// Barrier windows the conservative synchronizer executed
    /// (deterministic; 0 for the monolithic run).
    pub windows: u64,
    /// Cross-shard envelopes shipped (deterministic; 0 monolithic).
    pub envelopes: u64,
    /// Events each shard processed (deterministic; sums to the
    /// monolithic event count).
    pub events_per_shard: Vec<u64>,
    /// Wall nanoseconds shards spent blocked at barriers (wall-only).
    pub blocked_ns: u64,
    /// Wall seconds for the whole run (wall-only).
    pub wall_secs: f64,
    /// The serialized deterministic metrics row — asserted identical
    /// across all shard counts.
    pub row_json: String,
}

fn fattree_row_json(o: &ScaleOutcome) -> String {
    let g = &o.gauges;
    format!(
        "{{\"fabric\": \"fattree-k{FT_K}\", \"hosts\": {}, \"conns\": {}, \"offered_rps\": {:.0}, \"achieved_rps\": {:.0}, \"goodput_gbps\": {:.3}, \"p50_us\": {:.2}, \"p99_us\": {:.2}, \"jain_hosts\": {:.4}, \"backlog\": {}, \"sim_events\": {}, \"core_frames\": [{}], \"pools\": {{\"work_hwm\": {}, \"work_in_use\": {}, \"pktbuf_hwm\": {}, \"pktbuf_in_flight\": {}, \"conn_cache_hwm\": {}, \"conn_cache_dram\": {}, \"conn_cache_sram_hits\": {}}}}}",
        FT_K * FT_K * FT_K / 4,
        o.conns,
        o.offered_rps,
        o.achieved_rps,
        o.goodput_gbps,
        o.p50_us,
        o.p99_us,
        o.jain_hosts,
        o.backlog,
        o.sim_events,
        o.spine_frames
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(", "),
        g.work_high_water,
        g.work_in_use,
        g.seg_high_water,
        g.seg_in_flight,
        g.cache_high_water,
        g.cache_dram_accesses,
        g.cache_sram_hits,
    )
}

/// Run the headline scenario once at `shards`.
pub fn run_fattree_point(seed: u64, shards: usize) -> FatTreeRun {
    let plan = fattree_plan();
    let n_edge = FT_K * FT_K / 2;
    let cores = 2 * n_edge..2 * n_edge + FT_K * FT_K / 4;
    let conns = FT_CONNS_PER_CLIENT * (FT_K * FT_K * FT_K / 8) as u32;
    let wall0 = std::time::Instant::now();
    let (outcome, sync) = if shards <= 1 {
        let sc = fattree_scenario(seed, 1);
        let mut sim = Sim::new(sc.seed);
        let fab = build_fabric(&mut sim, &sc);
        sim.run_until(plan.duration);
        let partial = harvest_scale(&sim, &fab, cores, FT_K);
        (
            assemble_scale(Stack::FlexToe, conns, &plan, vec![partial], None),
            None,
        )
    } else {
        let mut sharded = ShardedSim::launch(shards, move |_| {
            let sc = fattree_scenario(seed, shards);
            let mut sim = Sim::new(sc.seed);
            let fab = build_fabric(&mut sim, &sc);
            let part = partition_fabric(&sim, &sc, &fab, sc.shards);
            (sim, fab, part)
        });
        sharded.run_until(plan.duration);
        let partials =
            sharded.each(move |_, sim, fab| harvest_scale(sim, fab, cores.clone(), FT_K));
        let sync = sharded.sync_stats();
        (
            assemble_scale(Stack::FlexToe, conns, &plan, partials, None),
            Some(sync),
        )
    };
    let wall_secs = wall0.elapsed().as_secs_f64();
    let row_json = fattree_row_json(&outcome);
    match sync {
        None => FatTreeRun {
            shards: 1,
            windows: 0,
            envelopes: 0,
            events_per_shard: vec![outcome.sim_events],
            blocked_ns: 0,
            wall_secs,
            row_json,
        },
        Some(s) => FatTreeRun {
            shards,
            windows: s.windows,
            envelopes: s.envelopes.iter().sum(),
            events_per_shard: s.events,
            blocked_ns: s.blocked_ns.iter().sum(),
            wall_secs,
            row_json,
        },
    }
}

/// The full headline: shards ∈ {1, 2, 4, 8}, metrics row asserted
/// byte-identical across all four. Runs regardless of `--shards` so the
/// BENCH body never depends on the flag.
pub fn run_fattree_headline(seed: u64) -> Vec<FatTreeRun> {
    let mut runs: Vec<FatTreeRun> = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        let r = run_fattree_point(seed, shards);
        println!(
            "fattree-k{FT_K} shards={}: wall {:.2}s, {} windows, {} envelopes, blocked {:.2}s{}",
            r.shards,
            r.wall_secs,
            r.windows,
            r.envelopes,
            r.blocked_ns as f64 / 1e9,
            if r.shards == 1 { " (reference)" } else { "" },
        );
        if let Some(first) = runs.first() {
            assert_eq!(
                first.row_json, r.row_json,
                "fat-tree metrics diverged between 1 and {shards} shards"
            );
        }
        runs.push(r);
    }
    runs
}

/// Splice the fat-tree block into the (deterministic) scale body.
fn splice_fattree(json: String, runs: &[FatTreeRun]) -> String {
    let body = json
        .strip_suffix("}\n")
        .expect("BENCH json ends with its closing brace");
    let mut s = format!(
        "{body}  ,\"fattree\": {{\n    \"row\": {},\n    \"shard_sweep\": [\n",
        runs[0].row_json
    );
    for (i, r) in runs.iter().enumerate() {
        s.push_str(&format!(
            "      {{\"n_shards\": {}, \"windows\": {}, \"envelopes\": {}, \"events_per_shard\": [{}]}}{}\n",
            r.shards,
            r.windows,
            r.envelopes,
            r.events_per_shard
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(", "),
            if i + 1 == runs.len() { "" } else { "," },
        ));
    }
    s.push_str("    ]\n  }\n}\n");
    s
}

fn dist_label(d: SizeDist) -> String {
    match d {
        SizeDist::Fixed(v) => format!("fixed({v})"),
        SizeDist::Uniform { lo, hi } => format!("uniform({lo},{hi})"),
        SizeDist::Pareto { alpha, min, max } => format!("pareto({alpha},{min},{max})"),
    }
}

/// Serialize a sweep deterministically (two runs of one seed must be
/// byte-identical — asserted by the integration suite and CI).
pub fn scale_json(seed: u64, plan: &ScalePlan, results: &[ScaleOutcome]) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"benchmark\": \"scale\",\n");
    s.push_str(&format!(
        "  \"scenario\": {{\n    \"seed\": {seed},\n    \"fabric\": \"leafspine-{LEAVES}x{SPINES}\",\n    \"hosts\": {},\n    \"client_hosts\": {},\n    \"rate_rps_per_host\": {},\n    \"req_size\": \"{}\",\n    \"resp_size\": \"{}\",\n    \"duration_ms\": {},\n    \"warmup_ms\": {}\n  }},\n",
        LEAVES * HOSTS_PER_LEAF,
        LEAVES * HOSTS_PER_LEAF / 2,
        plan.rate_rps_per_host,
        dist_label(plan.req_size),
        dist_label(plan.resp_size),
        plan.duration.as_us() / 1_000,
        plan.warmup.as_us() / 1_000,
    ));
    s.push_str("  \"sweep\": [\n");
    for (i, r) in results.iter().enumerate() {
        let g = &r.gauges;
        s.push_str(&format!(
            "    {{\"stack\": \"{}\", \"conns\": {}, \"offered_rps\": {:.0}, \"achieved_rps\": {:.0}, \"goodput_gbps\": {:.3}, \"p50_us\": {:.2}, \"p99_us\": {:.2}, \"jain_hosts\": {:.4}, \"backlog\": {}, \"sim_events\": {}, \"spine_frames\": [{}], \"pools\": {{\"work_hwm\": {}, \"work_in_use\": {}, \"pktbuf_hwm\": {}, \"pktbuf_in_flight\": {}, \"conn_cache_hwm\": {}, \"conn_cache_dram\": {}, \"conn_cache_sram_hits\": {}}}}}{}\n",
            r.stack,
            r.conns,
            r.offered_rps,
            r.achieved_rps,
            r.goodput_gbps,
            r.p50_us,
            r.p99_us,
            r.jain_hosts,
            r.backlog,
            r.sim_events,
            r.spine_frames
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(", "),
            g.work_high_water,
            g.work_in_use,
            g.seg_high_water,
            g.seg_in_flight,
            g.cache_high_water,
            g.cache_dram_accesses,
            g.cache_sram_hits,
            if i + 1 == results.len() { "" } else { "," },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// The `scale` experiment: sweep (in parallel under `--jobs`, each
/// point split across `--shards` PDES shards), plus — in full mode —
/// the k=8 fat-tree / 100k-connection headline swept over shards
/// {1, 2, 4, 8}. Writes `BENCH_scale.json`; the body is byte-identical
/// for any `--jobs` / `--shards` combination.
pub fn scale(opts: &RunOpts) {
    let plan = if opts.smoke {
        ScalePlan::smoke()
    } else {
        ScalePlan::full()
    };
    let seed = opts.seed.unwrap_or(17);
    let shards = opts.shards.max(1);
    let jobs = opts.point_jobs();
    println!(
        "# scale — {LEAVES}-leaf/{SPINES}-spine fabric, open-loop Poisson + heavy-tailed RPCs{} [jobs={jobs} shards={shards}]",
        if opts.smoke { " [smoke]" } else { "" }
    );
    println!(
        "{:<14} {:>6} {:>10} {:>10} {:>9} {:>9} {:>9} {:>7} {:>9} {:>10} {:>10}",
        "stack",
        "conns",
        "offered",
        "achieved",
        "Gbps",
        "p50 us",
        "p99 us",
        "JFI",
        "work hwm",
        "cache hwm",
        "cache dram"
    );
    let wall0 = std::time::Instant::now();
    let results = run_scale_jobs_shards(seed, &plan, jobs, shards);
    let wall = wall0.elapsed().as_secs_f64();
    for r in &results {
        println!(
            "{:<14} {:>6} {:>10.0} {:>10.0} {:>9.3} {:>9.2} {:>9.2} {:>7.3} {:>9} {:>10} {:>10}",
            r.stack,
            r.conns,
            r.offered_rps,
            r.achieved_rps,
            r.goodput_gbps,
            r.p50_us,
            r.p99_us,
            r.jain_hosts,
            r.gauges.work_high_water,
            r.gauges.cache_high_water,
            r.gauges.cache_dram_accesses,
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
    let fattree = if opts.smoke {
        Vec::new()
    } else {
        run_fattree_headline(seed)
    };

    let mut body = scale_json(seed, &plan, &results);
    if !fattree.is_empty() {
        body = splice_fattree(body, &fattree);
    }
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
    if !fattree.is_empty() {
        extras.push(format!(
            "\"fattree_wall\": [{}]",
            fattree
                .iter()
                .map(|r| format!(
                    "{{\"n_shards\": {}, \"secs\": {:.3}, \"blocked_ns\": {}}}",
                    r.shards, r.wall_secs, r.blocked_ns
                ))
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
    let json = with_wall_extras(body, wall, sim_events, jobs, &extras);
    let path = opts.out_path("BENCH_scale.json");
    std::fs::write(&path, &json).expect("write BENCH_scale.json");
    println!("wrote {}", path.display());
}

/// Regex CI uses to strip every wall-clock-dependent line out of a
/// BENCH JSON before byte-comparing bodies. Everything
/// [`with_wall_extras`] emits must be covered here (and the body must
/// never use these key names).
pub const WALL_KEYS_RE: &str = "\"(wall_secs|wall_events_per_sec|jobs|physical_cores|shards|threads_total|shard_windows|shard_envelopes|shard_blocked_ns|fattree_wall)\"";

/// Append the wall-clock block to a deterministic BENCH JSON body. Each
/// key lives on its own line at the very end so determinism checks can
/// strip them (`grep -vE` with [`WALL_KEYS_RE`]) and compare the rest
/// byte-for-byte. (`sim_events` is deterministic and is *not* stripped.)
pub fn with_wall_block(json: String, wall_secs: f64, sim_events: u64, jobs: usize) -> String {
    with_wall_extras(json, wall_secs, sim_events, jobs, &[])
}

/// [`with_wall_block`] plus experiment-specific wall lines (`extras`
/// are raw `"key": value` fragments, one line each — every key must be
/// matched by [`WALL_KEYS_RE`]).
pub fn with_wall_extras(
    json: String,
    wall_secs: f64,
    sim_events: u64,
    jobs: usize,
    extras: &[String],
) -> String {
    let body = json
        .strip_suffix("}\n")
        .expect("BENCH json ends with its closing brace");
    let mut s = format!(
        "{body}  ,\"sim_events\": {sim_events},\n  \"wall_secs\": {wall_secs:.3},\n  \"wall_events_per_sec\": {:.0},\n  \"jobs\": {jobs},\n  \"physical_cores\": {}",
        sim_events as f64 / wall_secs.max(1e-9),
        crate::par::physical_cores(),
    );
    for e in extras {
        s.push_str(",\n  ");
        s.push_str(e);
    }
    s.push_str("\n}\n");
    s
}

#[cfg(test)]
mod tests {
    /// CI strips wall lines with the one shell definition in
    /// `ci/strip_wall.sh`; it must carry exactly this key list.
    #[test]
    fn ci_strip_wall_carries_wall_keys_re() {
        let script = include_str!("../../../ci/strip_wall.sh");
        assert!(script.contains(super::WALL_KEYS_RE));
    }
}
