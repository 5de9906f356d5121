//! Point-to-point links with propagation delay and fault injection.
//!
//! Fault injection follows the smoltcp example conventions: a drop
//! probability, a corruption probability (one octet mutated), and an
//! optional size limit. The §5.3 loss experiments "artificially induce
//! packet losses in the network by randomly dropping packets … with a
//! fixed probability" — that is this node.

use flextoe_sim::{CounterHandle, Ctx, Duration, Msg, Node, NodeId, Sim, Stats};
use flextoe_wire::Frame;

/// Gilbert–Elliott two-state bursty-loss parameters. The link is in a
/// *good* or *bad* state; each frame first draws a state transition
/// (`p_enter`: good→bad, `p_exit`: bad→good), then a loss draw at the
/// state's loss probability. Correlated loss bursts emerge from low
/// `p_exit` with high `loss_bad` — the gray-failure signature a uniform
/// `drop_chance` cannot produce.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GeParams {
    /// Per-frame probability of entering the bad state from good.
    pub p_enter: f64,
    /// Per-frame probability of returning to the good state from bad.
    pub p_exit: f64,
    /// Loss probability while in the good state (usually 0).
    pub loss_good: f64,
    /// Loss probability while in the bad state.
    pub loss_bad: f64,
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Faults {
    /// Probability a frame is silently dropped.
    pub drop_chance: f64,
    /// Probability one random octet is flipped.
    pub corrupt_chance: f64,
    /// Frames larger than this are dropped (None = no limit).
    pub size_limit: Option<usize>,
    /// Probability a surviving frame is delivered twice.
    pub dup_chance: f64,
    /// Per-delivery extra-delay bound: each delivered copy draws a
    /// uniform extra delay in `[0, jitter)`, which can invert delivery
    /// order on this link (reordering without a separate queue model).
    pub jitter: Duration,
    /// Limping-link factor: propagation is multiplied by this (1 =
    /// healthy). Models a half-alive component serving at N× latency.
    pub latency_mult: u32,
    /// Gilbert–Elliott bursty loss (None = no burst-loss process).
    pub ge: Option<GeParams>,
}

impl Default for Faults {
    fn default() -> Self {
        Faults {
            drop_chance: 0.0,
            corrupt_chance: 0.0,
            size_limit: None,
            dup_chance: 0.0,
            jitter: Duration::ZERO,
            latency_mult: 1,
            ge: None,
        }
    }
}

pub struct Link {
    pub to: NodeId,
    pub propagation: Duration,
    pub faults: Faults,
    /// Hard administrative state. A down link drops every frame (counted
    /// in `down_drops`); coming back up is an explicit `SetLinkUp(true)`
    /// event — there is no implicit healing.
    pub up: bool,
    pub dropped: u64,
    pub corrupted: u64,
    /// Frames blackholed while the link was administratively down.
    pub down_drops: u64,
    /// Frames lost to the Gilbert–Elliott burst process (also counted in
    /// `dropped`, so degradation totals aggregate uniformly).
    pub ge_drops: u64,
    /// Extra copies emitted by the duplication model.
    pub duplicated: u64,
    /// Gilbert–Elliott state: currently in the bad (bursty-loss) state.
    /// Reset to good whenever a `SetFaults` reconfigures the model.
    ge_bad: bool,
    counters: Option<LinkCounters>,
}

#[derive(Clone, Copy)]
struct LinkCounters {
    size_drops: CounterHandle,
    drops: CounterHandle,
    down_drops: CounterHandle,
    ge_drops: CounterHandle,
    duplicated: CounterHandle,
}

/// Reconfigure a link's fault model mid-run. Topology builders schedule
/// these from a `Scenario` fault schedule — e.g. a fabric link degrading
/// at t₁ and healing at t₂ — so experiments stay declarative and
/// deterministic.
pub struct SetFaults(pub Faults);
flextoe_sim::custom_msg!(SetFaults);

/// Hard link state change: `SetLinkUp(false)` takes the link down (every
/// frame blackholed, buffers recycled), `SetLinkUp(true)` restores it.
/// Like [`SetFaults`], healing is always an explicit scheduled event.
pub struct SetLinkUp(pub bool);
flextoe_sim::custom_msg!(SetLinkUp);

impl Link {
    pub fn new(to: NodeId, propagation: Duration) -> Link {
        Link {
            to,
            propagation,
            faults: Faults::default(),
            up: true,
            dropped: 0,
            corrupted: 0,
            down_drops: 0,
            ge_drops: 0,
            duplicated: 0,
            ge_bad: false,
            counters: None,
        }
    }

    pub fn with_faults(to: NodeId, propagation: Duration, faults: Faults) -> Link {
        Link {
            faults,
            ..Link::new(to, propagation)
        }
    }

    /// One-way delivery delay for one copy: propagation inflated by the
    /// limp factor plus a fresh jitter draw (when a jitter bound is set).
    /// Jitter is the *only* per-copy draw, so the draw order stays fixed:
    /// GE → size → drop → corrupt → jitter(original) → dup →
    /// jitter(duplicate).
    #[inline]
    fn copy_delay(&self, ctx: &mut Ctx<'_>) -> Duration {
        let base = self.propagation * self.faults.latency_mult.max(1) as u64;
        if self.faults.jitter == Duration::ZERO {
            base
        } else {
            base + Duration::from_ns(ctx.rng.below(self.faults.jitter.as_ns()))
        }
    }
}

/// Fill the reserved slot `id` with `link`. A link that is up with
/// default [`Faults`] draws nothing and counts nothing per frame, so it
/// also becomes an engine relay ([`Sim::set_relay`]): its frames reach
/// the far end with the keys this node would have given them, without
/// the delivery to it. An admin message ([`SetFaults`], [`SetLinkUp`])
/// hands it back to the node; a faulty link is the node from the start.
pub fn fill_link(sim: &mut Sim, id: NodeId, link: Link) {
    let relay = link.up && link.faults == Faults::default();
    let (far, delay) = (link.to, link.propagation);
    sim.fill_node(id, link);
    if relay {
        sim.set_relay(id, far, delay);
    }
}

impl Node for Link {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let mut frame = match msg {
            Msg::Frame(frame) => frame,
            msg => {
                let msg = match flextoe_sim::try_cast::<SetFaults>(msg) {
                    Ok(sf) => {
                        self.faults = sf.0;
                        // a reconfigured model starts from the good state;
                        // healing (Faults::default) must not leave the link
                        // stuck mid-burst
                        self.ge_bad = false;
                        return;
                    }
                    Err(m) => m,
                };
                match flextoe_sim::try_cast::<SetLinkUp>(msg) {
                    Ok(s) => {
                        self.up = s.0;
                        return;
                    }
                    Err(m) => panic!("link: unexpected message {}", m.variant_name()),
                }
            }
        };
        let counters = self.counters.expect("link attached to a sim");
        if !self.up {
            self.dropped += 1;
            self.down_drops += 1;
            ctx.stats.inc(counters.down_drops);
            ctx.pool.put(frame.into_bytes());
            return;
        }
        if let Some(ge) = self.faults.ge {
            // state transition first, then the loss draw at the new
            // state's probability — both from this link's RNG stream, so
            // the burst schedule is byte-identical per seed, across
            // engines, and under sharding
            self.ge_bad = if self.ge_bad {
                !ctx.rng.chance(ge.p_exit)
            } else {
                ctx.rng.chance(ge.p_enter)
            };
            let loss = if self.ge_bad {
                ge.loss_bad
            } else {
                ge.loss_good
            };
            if ctx.rng.chance(loss) {
                self.dropped += 1;
                self.ge_drops += 1;
                ctx.stats.inc(counters.ge_drops);
                ctx.pool.put(frame.into_bytes());
                return;
            }
        }
        if let Some(limit) = self.faults.size_limit {
            if frame.len() > limit {
                self.dropped += 1;
                ctx.stats.inc(counters.size_drops);
                ctx.pool.put(frame.into_bytes());
                return;
            }
        }
        if ctx.rng.chance(self.faults.drop_chance) {
            self.dropped += 1;
            ctx.stats.inc(counters.drops);
            ctx.pool.put(frame.into_bytes());
            return;
        }
        if ctx.rng.chance(self.faults.corrupt_chance) && !frame.is_empty() {
            let idx = ctx.rng.below(frame.len() as u64) as usize;
            let bit = 1u8 << ctx.rng.below(8);
            frame.bytes[idx] ^= bit;
            // the bytes no longer match the emitter's checksums: mark the
            // frame so its receiver verifies them and drops it
            frame.corrupted = true;
            self.corrupted += 1;
        }
        let delay = self.copy_delay(ctx);
        let dup = if ctx.rng.chance(self.faults.dup_chance) {
            // clone into a pooled buffer so the extra copy participates in
            // the global take/return balance like any other frame; each
            // copy draws its own jitter, so duplication composes with
            // reordering
            let mut bytes = ctx.pool.take();
            bytes.extend_from_slice(frame.bytes());
            let copy = Frame {
                bytes,
                corrupted: frame.corrupted,
            };
            self.duplicated += 1;
            ctx.stats.inc(counters.duplicated);
            Some((copy, self.copy_delay(ctx)))
        } else {
            None
        };
        ctx.send(self.to, delay, frame);
        if let Some((copy, dup_delay)) = dup {
            ctx.send(self.to, dup_delay, copy);
        }
    }

    fn on_attach(&mut self, stats: &mut Stats) {
        self.counters = Some(LinkCounters {
            size_drops: stats.counter("link.size_drops"),
            drops: stats.counter("link.drops"),
            down_drops: stats.counter("link.down_drops"),
            ge_drops: stats.counter("link.ge_drops"),
            duplicated: stats.counter("link.duplicated"),
        });
    }

    fn name(&self) -> String {
        "link".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flextoe_sim::{Sim, Time};
    use flextoe_wire::Frame;

    /// `(ns, frame bytes)` of one arrival.
    type Arrival = (u64, Vec<u8>);

    struct Probe {
        frames: Vec<Arrival>,
    }
    impl Node for Probe {
        fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            let Msg::Frame(f) = msg else {
                panic!("expected a frame")
            };
            self.frames.push((ctx.now().as_ns(), f.into_bytes()));
        }
    }

    #[test]
    fn propagation_delay_applied() {
        let mut sim = Sim::new(1);
        let probe = sim.add_node(Probe { frames: vec![] });
        let link = sim.add_node(Link::new(probe, Duration::from_us(1)));
        sim.schedule(Time::from_ns(100), link, Frame::raw(vec![1, 2]));
        sim.run();
        let p = sim.node_ref::<Probe>(probe);
        assert_eq!(p.frames[0].0, 1100);
        assert_eq!(p.frames[0].1, vec![1, 2]);
    }

    #[test]
    fn drop_rate_respected() {
        let mut sim = Sim::new(7);
        let probe = sim.add_node(Probe { frames: vec![] });
        let link = sim.add_node(Link::with_faults(
            probe,
            Duration::ZERO,
            Faults {
                drop_chance: 0.25,
                ..Default::default()
            },
        ));
        for i in 0..10_000u64 {
            sim.schedule(Time::from_ns(i), link, Frame::raw(vec![0]));
        }
        sim.run();
        let got = sim.node_ref::<Probe>(probe).frames.len() as f64;
        assert!((got / 10_000.0 - 0.75).abs() < 0.02, "{got}");
        assert_eq!(sim.node_ref::<Link>(link).dropped, 10_000 - got as u64);
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let mut sim = Sim::new(3);
        let probe = sim.add_node(Probe { frames: vec![] });
        let link = sim.add_node(Link::with_faults(
            probe,
            Duration::ZERO,
            Faults {
                corrupt_chance: 1.0,
                ..Default::default()
            },
        ));
        sim.schedule(Time::ZERO, link, Frame::raw(vec![0u8; 32]));
        sim.run();
        let p = &sim.node_ref::<Probe>(probe).frames[0].1;
        let set_bits: u32 = p.iter().map(|b| b.count_ones()).sum();
        assert_eq!(set_bits, 1);
    }

    /// The corrupted mark is what makes a receiver verify checksums: a
    /// flipped frame carries it, and so does its duplicate.
    #[test]
    fn corruption_marks_the_frame_and_its_duplicate() {
        struct Marks(Vec<bool>);
        impl Node for Marks {
            fn on_msg(&mut self, _ctx: &mut Ctx<'_>, msg: Msg) {
                let Msg::Frame(f) = msg else {
                    panic!("expected a frame")
                };
                self.0.push(f.corrupted);
            }
        }
        let mut sim = Sim::new(3);
        let probe = sim.add_node(Marks(vec![]));
        let link = sim.add_node(Link::with_faults(
            probe,
            Duration::ZERO,
            Faults {
                corrupt_chance: 1.0,
                dup_chance: 1.0,
                ..Default::default()
            },
        ));
        sim.schedule(Time::ZERO, link, Frame::raw(vec![0u8; 32]));
        sim.run();
        assert_eq!(sim.node_ref::<Marks>(probe).0, vec![true, true]);

        let clean = sim.add_node(Marks(vec![]));
        let link = sim.add_node(Link::with_faults(
            clean,
            Duration::ZERO,
            Faults {
                dup_chance: 1.0,
                ..Default::default()
            },
        ));
        sim.schedule(sim.now(), link, Frame::raw(vec![0u8; 32]));
        sim.run();
        assert_eq!(sim.node_ref::<Marks>(clean).0, vec![false, false]);
    }

    #[test]
    fn set_faults_reconfigures_mid_run() {
        let mut sim = Sim::new(1);
        let probe = sim.add_node(Probe { frames: vec![] });
        let link = sim.add_node(Link::new(probe, Duration::ZERO));
        sim.schedule(Time::from_ns(0), link, Frame::raw(vec![1]));
        sim.schedule_in(
            Duration::from_ns(5),
            link,
            SetFaults(Faults {
                drop_chance: 1.0,
                ..Default::default()
            }),
        );
        sim.schedule(Time::from_ns(10), link, Frame::raw(vec![2]));
        sim.schedule_in(Duration::from_ns(15), link, SetFaults(Faults::default()));
        sim.schedule(Time::from_ns(20), link, Frame::raw(vec![3]));
        sim.run();
        let got: Vec<u8> = sim
            .node_ref::<Probe>(probe)
            .frames
            .iter()
            .map(|(_, f)| f[0])
            .collect();
        assert_eq!(got, vec![1, 3], "frame 2 dropped while degraded");
        assert_eq!(sim.node_ref::<Link>(link).dropped, 1);
    }

    #[test]
    fn hard_down_blackholes_until_explicit_up() {
        let mut sim = Sim::new(1);
        let probe = sim.add_node(Probe { frames: vec![] });
        let link = sim.add_node(Link::new(probe, Duration::ZERO));
        sim.schedule(Time::from_ns(0), link, Frame::raw(vec![1]));
        sim.schedule_in(Duration::from_ns(5), link, SetLinkUp(false));
        sim.schedule(Time::from_ns(10), link, Frame::raw(vec![2]));
        sim.schedule(Time::from_ns(11), link, Frame::raw(vec![3]));
        // healing is an explicit event: nothing forwards before it fires
        sim.schedule_in(Duration::from_ns(20), link, SetLinkUp(true));
        sim.schedule(Time::from_ns(30), link, Frame::raw(vec![4]));
        sim.run();
        let got: Vec<u8> = sim
            .node_ref::<Probe>(probe)
            .frames
            .iter()
            .map(|(_, f)| f[0])
            .collect();
        assert_eq!(got, vec![1, 4], "frames 2 and 3 blackholed while down");
        let l = sim.node_ref::<Link>(link);
        assert_eq!(l.down_drops, 2);
        assert_eq!(l.dropped, 2);
    }

    #[test]
    fn ge_loss_is_bursty_and_counted() {
        let mut sim = Sim::new(11);
        let probe = sim.add_node(Probe { frames: vec![] });
        let link = sim.add_node(Link::with_faults(
            probe,
            Duration::ZERO,
            Faults {
                ge: Some(GeParams {
                    p_enter: 0.02,
                    p_exit: 0.2,
                    loss_good: 0.0,
                    loss_bad: 1.0,
                }),
                ..Default::default()
            },
        ));
        for i in 0..20_000u64 {
            sim.schedule(Time::from_ns(i), link, Frame::raw(vec![(i % 251) as u8]));
        }
        sim.run();
        let l = sim.node_ref::<Link>(link);
        assert!(l.ge_drops > 0, "bad state never lost a frame");
        assert_eq!(l.ge_drops, l.dropped, "GE losses aggregate into dropped");
        // steady-state bad-state occupancy is p_enter/(p_enter+p_exit) ≈ 9%;
        // with loss_bad = 1.0 the loss rate tracks it
        let rate = l.ge_drops as f64 / 20_000.0;
        assert!(
            (0.04..0.18).contains(&rate),
            "loss rate {rate} not bursty-plausible"
        );
        // burstiness: delivered frames must show at least one loss run ≥ 3
        // (uniform 9% loss makes runs of 3+ common only under correlation;
        // GE guarantees them by construction with p_exit = 0.2)
        let got: Vec<u64> = sim
            .node_ref::<Probe>(probe)
            .frames
            .iter()
            .map(|(t, _)| *t)
            .collect();
        let max_gap = got.windows(2).map(|w| w[1] - w[0]).max().unwrap();
        assert!(
            max_gap >= 4,
            "no loss burst ≥ 3 consecutive frames (max gap {max_gap})"
        );
    }

    #[test]
    fn duplication_delivers_twice_and_balances_buffers() {
        let mut sim = Sim::new(5);
        let probe = sim.add_node(Probe { frames: vec![] });
        let link = sim.add_node(Link::with_faults(
            probe,
            Duration::from_us(1),
            Faults {
                dup_chance: 1.0,
                ..Default::default()
            },
        ));
        sim.schedule(Time::ZERO, link, Frame::raw(vec![7, 8, 9]));
        sim.run();
        let p = sim.node_ref::<Probe>(probe);
        assert_eq!(
            p.frames.len(),
            2,
            "dup_chance=1 delivers exactly two copies"
        );
        assert_eq!(p.frames[0].1, p.frames[1].1, "copies are byte-identical");
        assert_eq!(sim.node_ref::<Link>(link).duplicated, 1);
        // the Probe consumed (dropped) both buffers without returning them;
        // the extra copy came from the sim pool, so takes-over-returns
        // accounts exactly for the duplicate's allocation
        assert_eq!(
            sim.frame_pool.takes, 1,
            "only the duplicate drew from the pool"
        );
    }

    #[test]
    fn jitter_can_reorder_frames_on_one_link() {
        let mut sim = Sim::new(2);
        let probe = sim.add_node(Probe { frames: vec![] });
        let link = sim.add_node(Link::with_faults(
            probe,
            Duration::from_us(1),
            Faults {
                jitter: Duration::from_us(10),
                ..Default::default()
            },
        ));
        for i in 0..64u64 {
            sim.schedule(Time::from_ns(i * 100), link, Frame::raw(vec![i as u8]));
        }
        sim.run();
        let order: Vec<u8> = sim
            .node_ref::<Probe>(probe)
            .frames
            .iter()
            .map(|(_, f)| f[0])
            .collect();
        assert_eq!(order.len(), 64, "jitter must not lose frames");
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_ne!(
            order, sorted,
            "a 10us jitter over 100ns spacing must invert some pair"
        );
    }

    #[test]
    fn latency_mult_inflates_delivery_without_loss() {
        let mut sim = Sim::new(1);
        let probe = sim.add_node(Probe { frames: vec![] });
        let link = sim.add_node(Link::with_faults(
            probe,
            Duration::from_us(1),
            Faults {
                latency_mult: 8,
                ..Default::default()
            },
        ));
        sim.schedule(Time::ZERO, link, Frame::raw(vec![1]));
        sim.run();
        let p = sim.node_ref::<Probe>(probe);
        assert_eq!(p.frames[0].0, 8_000, "8x limp on a 1us link lands at 8us");
        assert_eq!(sim.node_ref::<Link>(link).dropped, 0);
    }

    #[test]
    fn set_faults_resets_ge_state() {
        let mut sim = Sim::new(9);
        let probe = sim.add_node(Probe { frames: vec![] });
        let link = sim.add_node(Link::with_faults(
            probe,
            Duration::ZERO,
            Faults {
                ge: Some(GeParams {
                    p_enter: 1.0,
                    p_exit: 0.0,
                    loss_good: 0.0,
                    loss_bad: 1.0,
                }),
                ..Default::default()
            },
        ));
        // first frame forces the bad state and is lost
        sim.schedule(Time::ZERO, link, Frame::raw(vec![1]));
        // healing resets to the good state; with the model cleared no
        // further frame can be GE-dropped
        sim.schedule_in(Duration::from_ns(5), link, SetFaults(Faults::default()));
        sim.schedule(Time::from_ns(10), link, Frame::raw(vec![2]));
        sim.run();
        let got: Vec<u8> = sim
            .node_ref::<Probe>(probe)
            .frames
            .iter()
            .map(|(_, f)| f[0])
            .collect();
        assert_eq!(got, vec![2]);
        assert_eq!(sim.node_ref::<Link>(link).ge_drops, 1);
    }

    /// A feeder that sends a train of frames to a link, one every 3 ns.
    struct Train {
        link: NodeId,
        n: u8,
    }
    impl Node for Train {
        fn on_msg(&mut self, ctx: &mut Ctx<'_>, _msg: Msg) {
            for i in 0..self.n {
                let at = ctx.now() + Duration::from_ns(3 * i as u64);
                ctx.send_at(self.link, at, Frame::raw(vec![i]));
            }
        }
    }

    /// A fault-free link filled with `fill_link` (a relay) or as a plain
    /// node, fed a 40-frame train from t = 0 with `admin` scheduled at
    /// 31 ns before the run: the probe's log, the link's drop counts and
    /// the delivered event count.
    fn admin_run(relay: bool, admin: Msg) -> (Vec<Arrival>, [u64; 3], u64) {
        let mut sim = Sim::new(4);
        let probe = sim.add_node(Probe { frames: vec![] });
        let link = sim.reserve_node();
        let l = Link::new(probe, Duration::from_ns(100));
        if relay {
            fill_link(&mut sim, link, l);
        } else {
            sim.fill_node(link, l);
        }
        let train = sim.add_node(Train { link, n: 40 });
        sim.schedule(Time::from_ns(31), link, admin);
        sim.schedule(Time::ZERO, train, flextoe_sim::Tick);
        sim.run();
        let l = sim.node_ref::<Link>(link);
        let counts = [l.dropped, l.down_drops, l.corrupted];
        let frames = sim.node_ref::<Probe>(probe).frames.clone();
        (frames, counts, sim.events_processed())
    }

    /// An admin message scheduled before the run demotes the relay, and
    /// the demoted link then drops or degrades frames exactly as the node
    /// does: same arrivals, same bytes, same counts, same events.
    #[test]
    fn scheduled_admin_demotes_a_relay_to_the_node() {
        let degrade = || {
            Msg::custom(SetFaults(Faults {
                drop_chance: 0.3,
                corrupt_chance: 0.3,
                jitter: Duration::from_ns(7),
                ..Default::default()
            }))
        };
        let down = || Msg::custom(SetLinkUp(false));
        for admin in [degrade, down] {
            let node = admin_run(false, admin());
            // equal event counts: every frame went through the node
            assert_eq!(admin_run(true, admin()), node);
            assert!(node.1[0] > 0, "the admin message took effect");
        }
        // without an admin message the frames skip the link's delivery
        let mut sim = Sim::new(4);
        let probe = sim.add_node(Probe { frames: vec![] });
        let link = sim.reserve_node();
        fill_link(&mut sim, link, Link::new(probe, Duration::from_ns(100)));
        let train = sim.add_node(Train { link, n: 40 });
        sim.schedule(Time::ZERO, train, flextoe_sim::Tick);
        sim.run();
        assert_eq!(sim.events_processed(), 1 + 40, "no delivery to the link");
        assert_eq!(sim.node_ref::<Probe>(probe).frames[39].0, 217);
    }

    /// A link with faults, or one that starts down, keeps its node.
    #[test]
    fn faulty_links_are_not_relays() {
        for l in [
            Link::with_faults(
                0,
                Duration::from_ns(100),
                Faults {
                    latency_mult: 2,
                    ..Default::default()
                },
            ),
            Link {
                up: false,
                ..Link::new(0, Duration::from_ns(100))
            },
        ] {
            let mut sim = Sim::new(4);
            let probe = sim.add_node(Probe { frames: vec![] });
            let link = sim.reserve_node();
            fill_link(&mut sim, link, Link { to: probe, ..l });
            let train = sim.add_node(Train { link, n: 4 });
            sim.schedule(Time::ZERO, train, flextoe_sim::Tick);
            sim.run();
            assert_eq!(
                sim.events_processed(),
                1 + 4 + 4 * sim.node_ref::<Link>(link).up as u64
            );
        }
    }

    #[test]
    fn size_limit_drops_jumbo() {
        let mut sim = Sim::new(1);
        let probe = sim.add_node(Probe { frames: vec![] });
        let link = sim.add_node(Link::with_faults(
            probe,
            Duration::ZERO,
            Faults {
                size_limit: Some(100),
                ..Default::default()
            },
        ));
        sim.schedule(Time::ZERO, link, Frame::raw(vec![0; 101]));
        sim.schedule(Time::ZERO, link, Frame::raw(vec![0; 100]));
        sim.run();
        assert_eq!(sim.node_ref::<Probe>(probe).frames.len(), 1);
    }
}
