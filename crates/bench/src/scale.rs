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

use std::ops::Range;
use std::time::Instant;

use flextoe_apps::{Arrival, ClientSpec, SizeDist, Wire};
use flextoe_core::PoolGauges;
use flextoe_netsim::Switch;
use flextoe_shard::SyncStats;
use flextoe_sim::{Duration, Histogram, Sim, Time};
use flextoe_topo::{BuiltFabric, Fabric, Role, Scenario, Stack};

use crate::driver::{holds, Experiment, Extras, PointRun};
use crate::harness::{cross_tier_scenario, jain_index, owned_gauges, DynClient, FabricRun};
use crate::json::{fixed, Json};

/// The fabric every sweep point (and every `faults` / `telemetry` row)
/// runs on.
pub const LEAVES: usize = 4;
pub const SPINES: usize = 2;
pub const HOSTS_PER_LEAF: usize = 2;
pub const LEAF_SPINE: Fabric = Fabric::LeafSpine {
    leaves: LEAVES,
    spines: SPINES,
    hosts_per_leaf: HOSTS_PER_LEAF,
};

/// [`LEAF_SPINE`]'s name in the artifacts.
pub fn leaf_spine_name() -> Json {
    format!("leafspine-{LEAVES}x{SPINES}").into()
}

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
    /// Also run the k=8 fat-tree / 100k-connection headline (full mode).
    pub fattree_headline: bool,
}

/// Open-loop clients against framed servers on `fabric`: every client
/// host opens `conns_per_host` connections, each socket with `buf` bytes
/// of shared buffer per direction (thousands of sockets: the 64 KB
/// default × 16 K sockets would be gigabytes).
fn open_loop_scenario(
    seed: u64,
    fabric: Fabric,
    stack: Stack,
    conns_per_host: u32,
    buf: u32,
    plan: &ScalePlan,
) -> Scenario {
    let mut sc = cross_tier_scenario(seed, fabric, stack, |_, target| Role::Client {
        cfg: ClientSpec {
            n_conns: conns_per_host,
            arrival: Arrival::Open {
                rate_rps: plan.rate_rps_per_host,
            },
            wire: Wire::Framed {
                req: plan.req_size,
                resp: plan.resp_size,
            },
            warmup: plan.warmup,
            connect_spacing: Duration::from_ns(400),
            ..Default::default()
        },
        target,
    });
    sc.opts.cfg.rx_buf_size = buf;
    sc.opts.cfg.tx_buf_size = buf;
    sc
}

/// What one part of a run (the whole `Sim`, or one shard) contributes to
/// a point. Every field merges commutatively or is tagged with its global
/// index (per-host bytes, per-switch frames), so the merged point is the
/// monolithic one whatever the shard count.
#[derive(Default)]
struct ScaleCounts {
    latency: Histogram,
    measured: u64,
    resp_bytes: u64,
    backlog: u64,
    host_bytes: Vec<(usize, u64)>,
    /// First and last measured completion over the part's clients.
    first: Option<Time>,
    last: Time,
    gauges: PoolGauges,
    tier_frames: Vec<(usize, u64)>,
    sim_events: u64,
}

impl ScaleCounts {
    fn merge(&mut self, o: ScaleCounts) {
        self.latency.merge(&o.latency);
        self.measured += o.measured;
        self.resp_bytes += o.resp_bytes;
        self.backlog += o.backlog;
        self.host_bytes.extend(o.host_bytes);
        self.first = [self.first, o.first].into_iter().flatten().min();
        self.last = self.last.max(o.last);
        self.gauges.merge(&o.gauges);
        self.tier_frames.extend(o.tier_frames);
        self.sim_events += o.sim_events;
    }
}

/// Harvest the client / NIC-gauge / switch-frame state this `Sim` owns.
/// `tier`/`tier_ports` select which switches count as the spreading
/// tier (spines for leaf-spine, cores for the fat-tree headline).
fn harvest(sim: &Sim, fab: &BuiltFabric, tier: Range<usize>, tier_ports: usize) -> ScaleCounts {
    let mut p = ScaleCounts {
        gauges: owned_gauges(sim, fab),
        sim_events: sim.events_processed(),
        ..Default::default()
    };
    for (i, h) in fab.hosts.iter().enumerate() {
        let Some(app) = h.client() else { continue };
        if !sim.owns(app) {
            continue;
        }
        let c = sim.node_ref::<DynClient>(app);
        p.latency.merge(&c.latency);
        p.measured += c.measured;
        p.resp_bytes += c.measured_resp_bytes();
        p.backlog += c.in_flight() as u64;
        p.host_bytes.push((i, c.measured_resp_bytes()));
        if c.measured > 0 {
            let first = c.first_measured_at;
            p.first = Some(p.first.map_or(first, |f| f.min(first)));
            p.last = p.last.max(c.last_measured_at);
        }
    }
    for s in tier {
        if !sim.owns(fab.switches[s]) {
            continue;
        }
        let sw = sim.node_ref::<Switch>(fab.switches[s]);
        p.tier_frames
            .push((s, (0..tier_ports).map(|q| sw.port_stats(q).0).sum()));
    }
    p
}

/// Run a launched scenario to the plan's deadline, merge what its parts
/// harvested and derive the point's row: `lead` identifies it (stack, or
/// fabric and host count), `frames_key` names the spreading tier
/// (`spine_frames`, `core_frames`; ECMP spread proof).
fn finish_point(
    mut run: FabricRun,
    lead: Vec<(&'static str, Json)>,
    conns: u32,
    plan: &ScalePlan,
    frames_key: &'static str,
    tier: Range<usize>,
    tier_ports: usize,
) -> PointRun {
    run.run_until(plan.duration);
    let mut t = ScaleCounts::default();
    for part in run.each(move |sim, fab| harvest(sim, fab, tier.clone(), tier_ports)) {
        t.merge(part);
    }
    t.host_bytes.sort_unstable_by_key(|&(i, _)| i);
    t.tier_frames.sort_unstable_by_key(|&(i, _)| i);
    let per_host_bytes: Vec<u64> = t.host_bytes.iter().map(|&(_, v)| v).collect();

    let span = t
        .first
        .map_or(Duration::ZERO, |first| t.last.saturating_since(first));
    let achieved_rps = if t.measured >= 2 && span > Duration::ZERO {
        (t.measured - 1) as f64 / span.as_secs_f64()
    } else {
        0.0
    };
    let goodput_gbps = if span > Duration::ZERO {
        t.resp_bytes as f64 * 8.0 / span.as_secs_f64() / 1e9
    } else {
        0.0
    };
    let offered_rps = plan.rate_rps_per_host * per_host_bytes.len() as f64;
    let g = t.gauges;
    let metrics = [
        ("conns", conns.into()),
        ("offered_rps", fixed(offered_rps, 0)),
        ("achieved_rps", fixed(achieved_rps, 0)),
        ("goodput_gbps", fixed(goodput_gbps, 3)),
        ("p50_us", fixed(t.latency.median() as f64 / 1000.0, 2)),
        ("p99_us", fixed(t.latency.p99() as f64 / 1000.0, 2)),
        // Jain fairness over per-client-host measured response bytes
        ("jain_hosts", fixed(jain_index(&per_host_bytes), 4)),
        // requests still unanswered at the deadline (open-loop backlog)
        ("backlog", t.backlog.into()),
        ("sim_events", t.sim_events.into()),
        (
            frames_key,
            Json::arr(t.tier_frames.iter().map(|&(_, frames)| frames)),
        ),
        // pool/cache gauges summed over all FlexTOE NICs (zero for
        // baseline stacks, which have no NIC pools)
        (
            "pools",
            Json::obj([
                ("work_hwm", g.work_high_water.into()),
                ("work_in_use", g.work_in_use.into()),
                ("pktbuf_hwm", g.seg_high_water.into()),
                ("pktbuf_in_flight", g.seg_in_flight.into()),
                ("conn_cache_hwm", g.cache_high_water.into()),
                ("conn_cache_dram", g.cache_dram_accesses.into()),
                ("conn_cache_sram_hits", g.cache_sram_hits.into()),
            ]),
        ),
    ];
    PointRun {
        row: Json::obj(lead.into_iter().chain(metrics)),
        gauges: g,
        sync: run.sync_stats(),
    }
}

/// Run one sweep point across `shards` conservative-PDES shards
/// (`1` = the monolithic reference). The returned row is identical for
/// any shard count; only the sync counters beside it differ.
pub fn run_scale_point(
    seed: u64,
    stack: Stack,
    conns: u32,
    plan: &ScalePlan,
    shards: usize,
) -> PointRun {
    let conns_per_host = (conns / (LEAF_SPINE.n_hosts() / 2) as u32).max(1);
    let p = plan.clone();
    let run = FabricRun::launch(shards, move || {
        open_loop_scenario(seed, LEAF_SPINE, stack, conns_per_host, 8 * 1024, &p)
    });
    let lead = vec![("stack", stack.name().into())];
    let spines = LEAVES..LEAVES + SPINES;
    finish_point(run, lead, conns, plan, "spine_frames", spines, LEAVES)
}

// ---------------------------------------------------------------------------
// Fat-tree headline: the sharding result. One k=8 fat-tree (128 hosts,
// 64 clients × 1564 conns = 100,096 connections) run at shards ∈
// {1, 2, 4, 8}; the deterministic metrics row must be identical at every
// shard count (asserted here, every full run), and the per-shard sync
// counters are recorded alongside it. Wall-clock speedup is honest: on a
// 1-CPU container the sharded runs measure sync *overhead*, not speedup —
// `physical_cores` in the host block says which regime a given artifact
// was produced in.
// ---------------------------------------------------------------------------

/// k=8 fat tree: 128 hosts, 16 per pod, 16 core switches.
pub const FT_K: usize = 8;
const FT_HOSTS: usize = FT_K * FT_K * FT_K / 4;
/// Connections per client host; 64 clients × 1564 = 100,096 total.
pub const FT_CONNS_PER_CLIENT: u32 = 1564;

/// The headline scenario at `shards`: every even host opens 1564
/// connections to the odd host at the same offset in the *next* pod, so
/// all traffic crosses the core tier (and, at 8 shards = one pod per
/// shard, every RPC crosses shard boundaries).
fn run_fattree_point(seed: u64, shards: usize) -> PointRun {
    let plan = ScalePlan {
        points: Vec::new(),
        // short window: the run is handshake-dominated by design (the
        // claim under test is *connection scale*, ~100k three-way
        // handshakes plus steady-state traffic, not throughput)
        duration: Time::from_ms(3),
        warmup: Time::from_ms(2),
        rate_rps_per_host: 40_000.0,
        req_size: SizeDist::Fixed(64),
        resp_size: SizeDist::Fixed(512),
        fattree_headline: false,
    };
    let n_edge = FT_K * FT_K / 2;
    let cores = 2 * n_edge..2 * n_edge + FT_K * FT_K / 4;
    let lead = vec![
        ("fabric", format!("fattree-k{FT_K}").into()),
        ("hosts", FT_HOSTS.into()),
    ];
    let p = plan.clone();
    let run = FabricRun::launch(shards, move || {
        // 100k sockets × 2 sides: 4 KB buffers keep the footprint down
        let fabric = Fabric::FatTree { k: FT_K };
        open_loop_scenario(
            seed,
            fabric,
            Stack::FlexToe,
            FT_CONNS_PER_CLIENT,
            4 * 1024,
            &p,
        )
    });
    let conns = FT_CONNS_PER_CLIENT * (FT_HOSTS / 2) as u32;
    finish_point(run, lead, conns, &plan, "core_frames", cores, FT_K)
}

/// The full headline: shards ∈ {1, 2, 4, 8}, metrics row asserted
/// identical across all four. Runs regardless of `--shards` so the body
/// never depends on the flag; the deterministic sync counters go to the
/// body, wall time and time blocked at barriers to the host block.
fn fattree_headline(seed: u64) -> Extras {
    let mut reference: Option<(Json, String)> = None;
    let (mut sweep, mut wall) = (Vec::new(), Vec::new());
    for shards in [1usize, 2, 4, 8] {
        let t0 = Instant::now();
        let PointRun { row, gauges, sync } = run_fattree_point(seed, shards);
        let secs = t0.elapsed().as_secs_f64();
        // the row and every gauge, published or not
        let digest = (row.clone(), format!("{gauges:?}"));
        assert_eq!(
            *reference.get_or_insert_with(|| digest.clone()),
            digest,
            "fat-tree metrics diverged between 1 and {shards} shards"
        );
        // the monolithic run has no synchronizer: one "shard", no windows
        let sync = sync.unwrap_or_else(|| SyncStats {
            events: vec![row["sim_events"].num() as u64],
            ..Default::default()
        });
        sweep.push(Json::obj([
            ("n_shards", shards.into()),
            ("windows", sync.windows.into()),
            ("envelopes", sync.envelopes.iter().sum::<u64>().into()),
            ("events_per_shard", Json::arr(sync.events)),
        ]));
        wall.push(Json::obj([
            ("n_shards", shards.into()),
            ("secs", fixed(secs, 3)),
            ("blocked_ns", sync.blocked_ns.iter().sum::<u64>().into()),
        ]));
    }
    let (row, _) = reference.expect("the headline ran");
    Extras {
        body: vec![(
            "fattree",
            Json::obj([("row", row), ("shard_sweep", Json::Arr(sweep))]),
        )],
        host: vec![("fattree_wall", Json::Arr(wall))],
    }
}

fn dist_label(d: SizeDist) -> String {
    match d {
        SizeDist::Fixed(v) => format!("fixed({v})"),
        SizeDist::Uniform { lo, hi } => format!("uniform({lo},{hi})"),
        SizeDist::Pareto { alpha, min, max } => format!("pareto({alpha},{min},{max})"),
    }
}

/// The `scale` experiment: the connection-count sweep, plus — in full
/// mode — the k=8 fat-tree / 100k-connection headline swept over shards
/// {1, 2, 4, 8}.
impl Experiment for ScalePlan {
    const NAME: &'static str = "scale";
    const TITLE: &'static str =
        "4-leaf/2-spine fabric, open-loop Poisson + heavy-tailed RPCs, connection-count sweep";
    const SEED: u64 = 17;
    const ROWS_KEY: &'static str = "sweep";
    const COLUMNS: &'static str =
        "stack conns offered_rps achieved_rps goodput_gbps p50_us p99_us \
        jain_hosts pools.work_hwm pools.conn_cache_hwm pools.conn_cache_dram";
    const SHARDS: &'static [usize] = &[2, 4, 8];
    type Point = (Stack, u32);

    fn full() -> ScalePlan {
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
            fattree_headline: true,
        }
    }

    fn smoke() -> ScalePlan {
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
            fattree_headline: false,
        }
    }

    fn points(&self) -> Vec<(Stack, u32)> {
        self.points.clone()
    }

    fn run_point(&self, seed: u64, &(stack, conns): &(Stack, u32), shards: usize) -> PointRun {
        run_scale_point(seed, stack, conns, self, shards)
    }

    fn scenario_json(&self, seed: u64) -> Json {
        Json::obj([
            ("seed", seed.into()),
            ("fabric", leaf_spine_name()),
            ("hosts", LEAF_SPINE.n_hosts().into()),
            ("client_hosts", (LEAF_SPINE.n_hosts() / 2).into()),
            ("rate_rps_per_host", fixed(self.rate_rps_per_host, 0)),
            ("req_size", dist_label(self.req_size).into()),
            ("resp_size", dist_label(self.resp_size).into()),
            ("duration_ms", (self.duration.as_us() / 1_000).into()),
            ("warmup_ms", (self.warmup.as_us() / 1_000).into()),
        ])
    }

    /// Every point carried load, spread it over every spine by ECMP and
    /// left its pressure gauges readable.
    fn check(rows: &[Json]) -> Result<(), String> {
        holds("sweep", &[(rows.len() >= 2, "fewer than two points")])?;
        rows.iter().try_for_each(|r| {
            let (jain, frames) = (r["jain_hosts"].num(), &r["spine_frames"]);
            let Json::Arr(frames) = frames else {
                return Err(format!("row {}: no spine_frames", r["stack"].as_str()));
            };
            holds(
                format_args!("row {}/{}", r["stack"].as_str(), r["conns"]),
                &[
                    (
                        r["sim_events"].num() > 0.0 && r["achieved_rps"].num() > 0.0,
                        "no load carried",
                    ),
                    (jain > 0.0 && jain <= 1.0, "jain_hosts outside (0, 1]"),
                    (
                        frames.iter().all(|f| f.num() > 0.0),
                        "ECMP left a spine idle (a zero in spine_frames)",
                    ),
                    (
                        r["pools.work_hwm"].num() > 0.0 && r["pools.conn_cache_hwm"].num() > 0.0,
                        "pool gauges read zero",
                    ),
                ],
            )
        })
    }

    fn extras(&self, seed: u64) -> Extras {
        if self.fattree_headline {
            fattree_headline(seed)
        } else {
            Extras::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_names_the_row_whose_spine_sat_idle() {
        let mut rows = crate::driver::execute::<ScalePlan>(ScalePlan::SEED, true, Some(1), 1).rows;
        assert_eq!(ScalePlan::check(&rows), Ok(()));
        rows[1].set("spine_frames", Json::arr([0u64, 4200]));
        let err = ScalePlan::check(&rows).unwrap_err();
        assert!(
            err.contains("row FlexTOE/64") && err.contains("spine"),
            "{err}"
        );
    }
}
