//! The seeded chaos fuzzer: random small fabrics under random gray+hard
//! fault schedules, every trial run to drain and audited against the
//! conservation invariant. The meta-RNG is the deterministic
//! `flextoe_sim::Rng` with a pinned base seed, so CI replays the exact
//! same trial set every run (and under `FLEXTOE_SIM_REFERENCE=1`); any
//! violation reports its trial seed for standalone reproduction.

use flextoe_apps::{Arrival, ClientSpec, CloseAll, ServerSpec, SizeDist, Wire};
use flextoe_bench::faults::buf_balance;
use flextoe_netsim::{Faults, GeParams};
use flextoe_sim::{Duration, Rng, Sim, Time};
use flextoe_topo::{
    build_fabric, DynClient, Fabric, FaultEvent, FaultTarget, LinkScope, Role, Scenario, Stack,
};

/// Pinned fuzzer namespace: trial `k` derives everything from
/// `Rng::new(FUZZ_SEED ^ k)`.
const FUZZ_SEED: u64 = 0xF1EC_70E0;

/// Trials per run. Sized for the CI smoke budget; every trial is
/// independent, so raising this locally widens coverage linearly.
const TRIALS: u64 = 30;

/// One random gray or hard fault on a random target, with its heal.
/// Every fault scheduled at `t_fault` is healed at `t_heal` — the
/// drain-phase audit then checks full recovery.
fn random_fault(
    meta: &mut Rng,
    n_fabric_links: usize,
    n_switches: usize,
    t_fault: Time,
    t_heal: Time,
) -> Vec<FaultEvent> {
    match meta.below(6) {
        // gray: probabilistic degradation of the fabric links
        0 => {
            let faults = Faults {
                drop_chance: meta.below(8) as f64 / 100.0,
                dup_chance: meta.below(30) as f64 / 100.0,
                jitter: Duration::from_ns(meta.below(6_000)),
                latency_mult: 1 + meta.below(4) as u32,
                ..Default::default()
            };
            vec![
                FaultEvent::degrade(t_fault, LinkScope::Fabric, faults),
                FaultEvent::degrade(t_heal, LinkScope::Fabric, Faults::default()),
            ]
        }
        // gray: bursty Gilbert–Elliott loss
        1 => {
            let ge = GeParams {
                p_enter: (1 + meta.below(4)) as f64 / 100.0,
                p_exit: (10 + meta.below(30)) as f64 / 100.0,
                loss_good: 0.0,
                loss_bad: (30 + meta.below(70)) as f64 / 100.0,
            };
            vec![
                FaultEvent::degrade(
                    t_fault,
                    LinkScope::Fabric,
                    Faults {
                        ge: Some(ge),
                        ..Default::default()
                    },
                ),
                FaultEvent::degrade(t_heal, LinkScope::Fabric, Faults::default()),
            ]
        }
        // gray: a limping switch
        2 => {
            let sw = meta.below(n_switches as u64) as usize;
            let factor = 1u32 << (1 + meta.below(9)); // 2..=512
            vec![
                FaultEvent::limp(t_fault, sw, factor),
                FaultEvent::limp(t_heal, sw, 1),
            ]
        }
        // hard: one fabric link down/up
        3 => {
            let link = FaultTarget::FabricLink {
                index: meta.below(n_fabric_links as u64) as usize,
            };
            vec![
                FaultEvent::down(t_fault, link),
                FaultEvent::up(t_heal, link),
            ]
        }
        // hard: a whole switch down/up
        4 => {
            let sw = FaultTarget::Switch {
                index: meta.below(n_switches as u64) as usize,
            };
            vec![FaultEvent::down(t_fault, sw), FaultEvent::up(t_heal, sw)]
        }
        // flap: two short down/up cycles inside the window
        _ => {
            let link = FaultTarget::FabricLink {
                index: meta.below(n_fabric_links as u64) as usize,
            };
            let quarter = Duration::from_ns(t_heal.saturating_since(t_fault).as_ns() / 4);
            vec![
                FaultEvent::down(t_fault, link),
                FaultEvent::up(t_fault + quarter, link),
                FaultEvent::down(t_fault + quarter * 2, link),
                FaultEvent::up(t_heal, link),
            ]
        }
    }
}

/// Build one random trial: a random small leaf/spine fabric with the
/// reconnecting-session workload and 1–3 random fault arcs.
fn random_scenario(trial: u64) -> (Scenario, u64) {
    let mut meta = Rng::new(FUZZ_SEED ^ trial);
    let seed = meta.next_u64();
    let leaves = 2 + meta.below(2) as usize; // 2..=3
    let spines = 1 + meta.below(2) as usize; // 1..=2
    let hosts_per_leaf = 2usize;
    let fabric = Fabric::LeafSpine {
        leaves,
        spines,
        hosts_per_leaf,
    };
    let n_fabric_links = leaves * spines;
    let n_switches = leaves + spines;

    let mut sc = Scenario::idle(seed, fabric, Stack::FlexToe);
    sc.opts.min_rto = Duration::from_us(200);
    sc.opts.syn_retry = Duration::from_us(400);
    sc.opts.rto_give_up = Some(3);
    // one in four trials also caps the work pool: exhaustion shedding
    // must compose with whatever faults the schedule draws
    if meta.below(4) == 0 {
        sc.opts.cfg.work_pool_cap = Some(8 + meta.below(24) as usize);
    }
    for i in 0..sc.hosts.len() {
        sc.hosts[i].role = if i % 2 == 0 {
            let leaf = i / hosts_per_leaf;
            Role::Client {
                cfg: ClientSpec {
                    n_conns: 2 + meta.below(3) as u32,
                    arrival: Arrival::Sessions {
                        think: Duration::from_us(20),
                        backoff_base: Duration::from_us(200),
                        backoff_cap: Duration::from_ms(2),
                    },
                    wire: Wire::Framed {
                        req: SizeDist::Fixed(if meta.below(2) == 0 { 512 } else { 8192 }),
                        resp: SizeDist::Fixed(512),
                    },
                    warmup: Time::from_us(300),
                    connect_spacing: Duration::from_us(1),
                    ..Default::default()
                },
                target: ((leaf + 1) % leaves) * hosts_per_leaf + 1,
            }
        } else {
            Role::Server(ServerSpec::framed())
        };
    }
    let n_faults = 1 + meta.below(3);
    for _ in 0..n_faults {
        let t_fault = Time::from_ns(300_000 + meta.below(500_000));
        let t_heal = t_fault + Duration::from_ns(300_000 + meta.below(600_000));
        sc.fault_schedule.extend(random_fault(
            &mut meta,
            n_fabric_links,
            n_switches,
            t_fault,
            t_heal,
        ));
    }
    (sc, seed)
}

/// ≥ 25 random gray+hard schedules: every trial must run to drain
/// without panicking, account every request exactly once, release every
/// work slot and packet buffer, and have made progress.
#[test]
fn random_gray_and_hard_schedules_conserve_and_drain() {
    for trial in 0..TRIALS {
        let (sc, seed) = random_scenario(trial);
        let mut sim = Sim::new(sc.seed);
        let fab = build_fabric(&mut sim, &sc);
        // all faults are healed by ~1.7 ms; close at 2 ms, drain to 5 ms
        // (give-up budget ≈ min_rto × 2^3 = 1.6 ms bounds abort latency)
        sim.run_until(Time::from_ms(2));
        for h in &fab.hosts {
            if let Some(n) = h.client() {
                sim.schedule(sim.now(), n, CloseAll);
            }
        }
        sim.run_until(Time::from_ms(5));

        let ctx = format!(
            "trial {trial} (seed {seed}, schedule {:?})",
            sc.fault_schedule
        );
        let (mut issued, mut completed, mut dead) = (0u64, 0u64, 0u64);
        for h in &fab.hosts {
            let Some(n) = h.client() else { continue };
            let c = sim.node_ref::<DynClient>(n);
            issued += c.issued;
            completed += c.completed;
            dead += c.dead_requests;
            assert_eq!(c.in_flight(), 0, "live request after drain in {ctx}");
        }
        assert!(completed > 0, "no progress in {ctx}");
        assert_eq!(
            issued,
            completed + dead,
            "request accounting broke in {ctx}"
        );
        let mut work_in_use = 0;
        for h in &fab.hosts {
            if let Some((nic, _)) = &h.ep.flextoe {
                work_in_use += nic.pool_gauges(&sim).work_in_use;
            }
        }
        assert_eq!(work_in_use, 0, "work-pool slots leaked in {ctx}");
        assert_eq!(buf_balance(&sim, &fab), 0, "buffers leaked in {ctx}");
    }
}
