//! Sharded conservative-PDES engine vs the monolithic engine.
//!
//! The determinism contract (ARCHITECTURE.md "Sharded execution") says a
//! sharded run is *byte-identical* to the single-shard run under ANY
//! partitioning: cross-shard arrivals replay in exact global
//! `(time, seq)` order, per-node RNG streams are stable no matter which
//! shard hosts the node, and ghost-dropped externals keep the external
//! sequence numbering aligned. These tests drive that contract two ways:
//! proptest-style random node graphs under random group→shard maps
//! (including the degenerate 1-shard cut and one-node-per-shard), and
//! the real topo-level scale/faults scenarios.
//!
//! Queue coverage: the whole file is queue-agnostic — CI runs it once on
//! the event wheel and once with `FLEXTOE_SIM_REFERENCE=1` (the
//! `BinaryHeap` ordering oracle), so both prove the same identity.

use flextoe_bench::driver::{Experiment, PointRun};
use flextoe_bench::faults::{check_row, run_faults_point, FaultsPlan};
use flextoe_bench::json::Json;
use flextoe_bench::scale::run_scale_point;
use flextoe_shard::{Partition, ShardedSim};
use flextoe_sim::{Ctx, Duration, Msg, Node, Sim, Time};
use flextoe_topo::Stack;
use flextoe_wire::Frame;

// ---------------------------------------------------------------------
// Random node graphs: groups with arbitrary internal edges (including
// zero-delay same-bucket sends); inter-group edges only carry Frames with
// delay ≥ the lookahead, mirroring the link-cut discipline
// `partition_fabric` enforces on real fabrics.
// ---------------------------------------------------------------------

/// Minimum inter-group (cuttable) edge delay — the partition lookahead.
const LOOKAHEAD_NS: u64 = 400;

/// Test-local deterministic generator for the *structure* (groups,
/// edges, kick schedule). Every shard worker rebuilds the same graph
/// from the same seed, exactly like bench shards rebuild one scenario.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> XorShift {
        XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Logs every arrival `(time, payload, per-node rng draw)` and forwards
/// the frame along its next out-edge until its budget runs out. The rng
/// draw is the satellite check for per-node RNG stream stability: if a
/// node's stream depended on which shard hosts it, the logged draws
/// would diverge from the monolithic run.
struct Chatter {
    edges: Vec<(usize, u64)>,
    rr: usize,
    budget: u32,
    log: Vec<(u64, u8, u32)>,
}

impl Node for Chatter {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let Msg::Frame(frame) = msg else {
            panic!("expected a frame")
        };
        let draw = ctx.rng.next_u32();
        self.log.push((ctx.now().ps(), frame.bytes[0], draw));
        if self.budget == 0 || self.edges.is_empty() {
            return;
        }
        self.budget -= 1;
        let (to, delay_ns) = self.edges[self.rr % self.edges.len()];
        self.rr += 1;
        let mut next = frame;
        next.bytes[0] = next.bytes[0].wrapping_add(1);
        ctx.send(to, Duration::from_ns(delay_ns), Msg::Frame(next));
    }
}

/// Group sizes for `seed`: every third seed uses singleton groups so
/// the one-group-per-shard map degenerates to one *node* per shard.
fn group_sizes(seed: u64) -> Vec<usize> {
    let mut rng = XorShift::new(seed);
    let n_groups = 2 + (rng.below(7) as usize); // 2..=8
    (0..n_groups)
        .map(|_| {
            if seed.is_multiple_of(3) {
                1
            } else {
                1 + rng.below(3) as usize // 1..=3
            }
        })
        .collect()
}

/// Build the random graph for `seed`. Identical for every caller with
/// the same seed (structure comes from the test rng, runtime randomness
/// from the sim's per-node streams). Returns the sim plus each node's
/// group index.
fn build_graph(seed: u64) -> (Sim, Vec<u32>) {
    let sizes = group_sizes(seed);
    let mut rng = XorShift::new(seed);
    let _ = rng.below(7); // re-consume the n_groups draw
    for _ in &sizes {
        let _ = rng.below(3); // re-consume the size draws (seed%3==0 drew too)
    }
    let n_groups = sizes.len();
    let mut group_of = Vec::new();
    for (g, &sz) in sizes.iter().enumerate() {
        for _ in 0..sz {
            group_of.push(g as u32);
        }
    }
    let n = group_of.len();

    // Edge lists: intra-group edges may be zero-delay (inserts into the
    // wheel's staged bucket); inter-group edges respect lookahead.
    let mut edges: Vec<Vec<(usize, u64)>> = vec![Vec::new(); n];
    for (node, item) in edges.iter_mut().enumerate() {
        let g = group_of[node] as usize;
        let n_edges = 1 + rng.below(3);
        for _ in 0..n_edges {
            let intra: Vec<usize> = (0..n).filter(|&m| group_of[m] as usize == g).collect();
            if rng.below(2) == 0 && intra.len() > 1 {
                let to = intra[rng.below(intra.len() as u64) as usize];
                item.push((to, rng.below(200))); // 0..200 ns, zero included
            } else if n_groups > 1 {
                let to = loop {
                    let m = rng.below(n as u64) as usize;
                    if group_of[m] as usize != g {
                        break m;
                    }
                };
                item.push((to, LOOKAHEAD_NS + rng.below(2 * LOOKAHEAD_NS)));
            }
        }
    }

    let mut sim = Sim::new(seed);
    for item in edges.into_iter() {
        let budget = 20 + rng.below(30) as u32;
        sim.add_node(Chatter {
            edges: item,
            rr: 0,
            budget,
            log: Vec::new(),
        });
    }

    // External kick schedule (band-0 events): early kicks start the
    // chatter, later ones land mid-run like a fault schedule would.
    // Every shard schedules ALL kicks — ghosts are dropped at the
    // ownership mask but still consume an external sequence number, so
    // the numbering stays aligned with the monolithic run.
    let n_kicks = 8 + rng.below(8);
    for k in 0..n_kicks {
        let node = rng.below(n as u64) as usize;
        let at = if k < 4 {
            rng.below(2_000)
        } else {
            rng.below(400_000)
        };
        sim.schedule(
            Time::from_ns(at),
            node,
            Msg::Frame(Frame::raw(vec![(k as u8) << 4; 8])),
        );
    }
    (sim, group_of)
}

fn harvest_logs(sim: &Sim) -> Vec<Vec<(u64, u8, u32)>> {
    (0..sim.n_nodes())
        .map(|id| {
            if sim.owns(id) {
                sim.node_ref::<Chatter>(id).log.clone()
            } else {
                Vec::new()
            }
        })
        .collect()
}

/// Run `seed`'s graph monolithically and under `map` (group → shard),
/// and assert the per-node logs and total event count are identical.
fn check_map(seed: u64, n_shards: usize, map: Vec<u32>) {
    let deadline = Time::from_ms(1);
    let (mut mono, group_of) = build_graph(seed);
    mono.run_until(deadline);
    let want = harvest_logs(&mono);
    let want_events = mono.events_processed();

    let owner: Vec<u32> = group_of.iter().map(|&g| map[g as usize]).collect();
    let mut sharded = ShardedSim::launch(n_shards, move |_idx| {
        let (sim, group_of) = build_graph(seed);
        let partition = Partition {
            owner: group_of.iter().map(|&g| map[g as usize]).collect(),
            lookahead: Duration::from_ns(LOOKAHEAD_NS),
        };
        (sim, (), partition)
    });
    sharded.run_until(deadline);
    let per_shard = sharded.each(|_idx, sim, _| harvest_logs(sim));
    let merged: Vec<Vec<(u64, u8, u32)>> = (0..want.len())
        .map(|node| per_shard[owner[node] as usize][node].clone())
        .collect();
    assert_eq!(
        merged, want,
        "seed {seed} / {n_shards} shards: delivery logs diverged"
    );
    assert_eq!(
        sharded.total_events(),
        want_events,
        "seed {seed} / {n_shards} shards: event counts diverged"
    );
}

#[test]
fn random_partitions_byte_identical_to_monolithic() {
    for seed in 0..8u64 {
        let n_groups = group_sizes(seed).len();
        let mut rng = XorShift::new(seed ^ 0xDEAD_BEEF);

        // Degenerate 1-shard cut.
        check_map(seed, 1, vec![0; n_groups]);
        // One group per shard (singleton groups on every third seed
        // make this one *node* per shard).
        check_map(seed, n_groups, (0..n_groups as u32).collect());
        // Two random maps at random shard counts 2..=8 (shards may end
        // up empty — owning nothing but ghosts must also be exact).
        for _ in 0..2 {
            let n_shards = 2 + rng.below(7) as usize;
            let map: Vec<u32> = (0..n_groups)
                .map(|_| rng.below(n_shards as u64) as u32)
                .collect();
            check_map(seed, n_shards, map);
        }
    }
}

// ---------------------------------------------------------------------
// Topo-level: the real leaf-spine scale point and a chaos row, sharded
// vs monolithic. A point returns its artifact row (every deterministic
// field, floats at full precision until rendered), the merged pool/cache
// gauges (all of them, not only the ones the row publishes) and the sync
// counters, whose `blocked_ns` is wall clock and stays out of the digest.
// ---------------------------------------------------------------------

/// Every deterministic output of a point: the row, then every
/// `PoolGauges` field. High-water marks and cache-hit splits are what a
/// same-timestamp ordering slip between shards would move first.
fn digest(p: &PointRun) -> (Json, String) {
    (p.row.clone(), format!("{:?}", p.gauges))
}

#[test]
fn scale_point_sharded_matches_monolithic() {
    let plan = flextoe_bench::scale::ScalePlan::smoke();
    let mono = run_scale_point(4242, Stack::FlexToe, 16, &plan, 1);
    assert!(mono.sync.is_none(), "monolithic path must not sync");
    assert!(
        mono.gauges.cache_local_hits + mono.gauges.cache_cls_hits > 0,
        "the unpublished gauges are harvested: {:?}",
        mono.gauges
    );
    for shards in [2usize, 4] {
        let got = run_scale_point(4242, Stack::FlexToe, 16, &plan, shards);
        assert_eq!(digest(&got), digest(&mono), "{shards} shards diverged");
        let sync = got.sync.expect("sharded path records sync stats");
        assert!(sync.windows > 0);
        assert_eq!(sync.events.len(), shards);
        assert_eq!(
            sync.events.iter().sum::<u64>() as f64,
            got.row["sim_events"].num(),
            "per-shard events must sum to the monolithic count"
        );
    }
}

#[test]
fn faults_row_sharded_matches_monolithic_and_conserves() {
    let plan = FaultsPlan::smoke();
    let row = plan.rows[0].clone();
    let mono = run_faults_point(99, &row, &plan, 1);
    assert_eq!(
        check_row(&mono.row),
        Ok(()),
        "monolithic chaos row must conserve"
    );
    assert!(
        mono.gauges.work_high_water > 0 && mono.gauges.seg_high_water > 0,
        "the unpublished gauges are harvested: {:?}",
        mono.gauges
    );
    let got = run_faults_point(99, &row, &plan, 2);
    assert_eq!(digest(&got), digest(&mono), "sharded chaos row diverged");
    // global conservation must hold summed over shard pools
    assert_eq!(check_row(&got.row), Ok(()));
    let sync = got.sync.expect("sharded path records sync stats");
    assert!(sync.windows > 0);
}
