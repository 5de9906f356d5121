//! An output-queued Ethernet switch with ECN marking, WRED, and per-port
//! shaping — the testbed's "100 Gbps Ethernet switch" plus the knobs the
//! paper turns: random drops for §5.3, and for the incast experiment
//! (Table 4) "traffic shaping on the switch to restrict port bandwidth …
//! and WRED to perform tail drops when the switch buffer is exhausted."
//!
//! DCTCP needs the switch to mark ECN-capable packets with CE once the
//! output queue exceeds the step threshold K \[1\]; marking rewrites the IP
//! header ECN bits and refreshes the IPv4 checksum.
//!
//! For multi-switch fabrics (leaf-spine, fat-tree) the switch also routes
//! at L3: [`Switch::route`] installs a destination-IP → candidate-port set
//! and [`ecmp_hash`] picks among equal-cost ports by a flow hash, so one
//! connection always rides one path (no reordering) while distinct flows
//! spread across the fabric. The hash is salted from the simulation's
//! xoshiro seed ([`Switch::set_ecmp_salt`]), keeping path selection — and
//! therefore every delivery log — byte-identical across reruns of a seed.

use std::collections::VecDeque;

use flextoe_sim::{CounterHandle, Ctx, Duration, FxHashMap, Msg, Node, NodeId, Stats, TxGate};
use flextoe_telemetry::SwitchSketch;
use flextoe_wire::{
    ecmp_basis, ecmp_hash_with_basis, Ecn, Frame, FrameMeta, Ip4, Ipv4Packet, MacAddr, ETH_HDR_LEN,
};

use crate::telemetry::{SetElephants, SweepNow, TelemetrySpec};

/// Flow hash for ECMP port selection: a splitmix64 finalizer over the
/// directed 4-tuple mixed with a per-switch `salt` derived from the sim
/// seed. Deterministic for (flow, salt); different salts decorrelate
/// switches so a fabric doesn't polarize onto one spine.
///
/// Split into [`ecmp_basis`] (salt-independent, computed by the hop's
/// one parse into [`FrameMeta::flow_basis`], which the sketch shares) and
/// [`ecmp_hash_with_basis`] (per-switch finalize); this composition is
/// bit-identical to the historical whole-header hash.
pub fn ecmp_hash(src_ip: Ip4, dst_ip: Ip4, src_port: u16, dst_port: u16, salt: u64) -> u64 {
    ecmp_hash_with_basis(ecmp_basis(src_ip, dst_ip, src_port, dst_port), salt)
}

#[derive(Clone, Copy, Debug)]
pub struct WredParams {
    /// Queue depth (bytes) where random early drop begins.
    pub min_bytes: usize,
    /// Depth where the drop probability reaches `max_p` (beyond: tail drop).
    pub max_bytes: usize,
    pub max_p: f64,
}

#[derive(Clone, Copy, Debug)]
pub struct PortConfig {
    /// Egress rate in bits/second.
    pub rate_bps: u64,
    /// Output buffer capacity in bytes.
    pub buf_bytes: usize,
    /// DCTCP step-marking threshold K in bytes (None = no ECN marking).
    pub ecn_threshold: Option<usize>,
    pub wred: Option<WredParams>,
}

impl Default for PortConfig {
    fn default() -> Self {
        PortConfig {
            rate_bps: 100_000_000_000,
            buf_bytes: 512 * 1024,
            // K ≈ 65 packets at 100G per the DCTCP guideline, scaled down
            // to our shallow-buffer testbed switch.
            ecn_threshold: Some(96 * 1024),
            wred: None,
        }
    }
}

struct Port {
    cfg: PortConfig,
    to: NodeId,
    queue: VecDeque<Frame>,
    queue_bytes: usize,
    /// Serialization state; the port wakes itself only to start a frame
    /// queued behind the one on the wire.
    tx: TxGate,
    /// Port health: a down port is excluded from ECMP finalization and
    /// transmits nothing; taking it down flushes its output queue.
    up: bool,
    pub tx_frames: u64,
    pub drops: u64,
    pub ecn_marked: u64,
    /// Occupancy tracking for the congestion experiments: highest depth
    /// seen, and the byte·ns integral for the time-weighted average.
    peak_bytes: usize,
    occ_integral: u128,
    occ_since_ns: u64,
}

impl Port {
    /// Integrate occupancy up to `now` before `queue_bytes` changes.
    fn occ_update(&mut self, now_ns: u64) {
        self.occ_integral +=
            self.queue_bytes as u128 * now_ns.saturating_sub(self.occ_since_ns) as u128;
        self.occ_since_ns = now_ns;
    }

    /// Put `frame` on the wire now. A limping switch serializes N×
    /// slower on every port — reduced effective rate is the gray
    /// signature (forwarding latency is charged on the adjacent links,
    /// so rate is the right lever here).
    fn transmit(&mut self, ctx: &mut Ctx<'_>, limp: u32, frame: Frame) {
        self.tx_frames += 1;
        let d = Duration::line_rate(frame.len(), self.cfg.rate_bps) * limp.max(1) as u64;
        self.tx.start(ctx.now(), d);
        ctx.send(self.to, d, frame);
    }
}

pub struct Switch {
    ports: Vec<Port>,
    mac_table: FxHashMap<MacAddr, usize>,
    /// L3 routes: destination IP → equal-cost candidate ports (consulted
    /// on MAC-table miss; fabrics route remote hosts by IP).
    routes: FxHashMap<Ip4, Vec<usize>>,
    /// Per-switch ECMP hash salt (derived from the sim seed by topology
    /// builders).
    ecmp_salt: u64,
    /// Forwarding latency (lookup + crossbar).
    pub latency: Duration,
    /// Hard administrative state: a killed switch drops every arriving
    /// frame and its port queues are flushed. Heal is an explicit
    /// [`SetSwitchAlive`] event.
    pub alive: bool,
    /// Limp factor: every port's serialization delay is multiplied by
    /// this, modelling a half-alive switch forwarding at 1/N of its rate
    /// without being dead (gray failure). 1 = healthy; heal is an
    /// explicit [`SetSwitchLimp`]`(1)`.
    pub limp: u32,
    pub flooded: u64,
    /// Frames forwarded through an L3 route (ECMP or single-path).
    pub routed: u64,
    /// Frames whose primary ECMP pick was a dead port and that were
    /// re-finalized onto a surviving candidate.
    pub rerouted: u64,
    /// Frames dropped because no live egress remained (every ECMP
    /// candidate down, or the learned MAC port down).
    pub blackholed: u64,
    /// Frames dropped because the switch itself was dead, plus queued
    /// frames flushed by a port-down/switch-kill event.
    pub dead_drops: u64,
    /// Sketch telemetry state, present only when the scenario wires a
    /// telemetry plane ([`Switch::enable_telemetry`]). Boxed so the
    /// telemetry-off fast path carries one pointer, not sketch arrays.
    telemetry: Option<Box<SwitchTelemetry>>,
    /// Counter handles resolved at attach — per-frame paths never do a
    /// string-keyed stats lookup.
    counters: Option<SwitchCounters>,
}

/// Per-switch telemetry plane state (see `crate::telemetry`).
struct SwitchTelemetry {
    sketch: SwitchSketch,
    /// Exact per-flow byte counts observed since attach — the ground
    /// truth for the differential harness. Never reset: sweep loss and
    /// kill-time state loss show up as sketch-vs-truth error, which is
    /// the measurement. `None` when the scenario doesn't need it (it
    /// costs a hash-map upsert per frame).
    truth: Option<FxHashMap<u64, u64>>,
    collector: NodeId,
    index: u32,
    epoch_seq: u32,
    hh_ecmp: bool,
    /// Collector-confirmed elephants (sorted `flow_basis` values).
    elephants: Vec<u64>,
}

impl SwitchTelemetry {
    /// The fast-path update: the hop's flow basis and length go into the
    /// sketch's epoch log (`SwitchSketch::update` touches no cell; the
    /// sweep renders them). No alloc, no new hash of key material.
    #[inline]
    fn observe(&mut self, basis: u64, len: u64) {
        self.sketch.update(basis, len);
        if let Some(t) = &mut self.truth {
            *t.entry(basis).or_insert(0) += len;
        }
    }
}

#[derive(Clone, Copy)]
struct SwitchCounters {
    tail_drops: CounterHandle,
    wred_drops: CounterHandle,
    ecn_marked: CounterHandle,
    routed: CounterHandle,
    rerouted: CounterHandle,
    blackholed: CounterHandle,
    dead_drops: CounterHandle,
    /// `switch.hh_steered`: elephant flows routed by collector rank
    /// instead of hash (the heavy-hitter ECMP mode; 0 when `hh_ecmp` is
    /// off).
    steered: CounterHandle,
}

/// Take one switch port administratively down (`up: false`) or up.
/// Topology builders schedule these alongside the neighbor link's
/// [`crate::SetLinkUp`] so ECMP finalization stops hashing onto a dead
/// path. Taking a port down flushes its output queue (counted in
/// [`Switch::dead_drops`]); bringing it up is always explicit.
pub struct SetPortUp {
    pub port: usize,
    pub up: bool,
}
flextoe_sim::custom_msg!(SetPortUp);

/// Kill (`false`) or heal (`true`) a whole switch. Killing flushes every
/// port queue and blackholes all arriving frames; healing restores
/// forwarding (per-port `up` state is tracked separately and survives a
/// kill/heal cycle).
pub struct SetSwitchAlive(pub bool);
flextoe_sim::custom_msg!(SetSwitchAlive);

/// Set the switch's limp factor: `SetSwitchLimp(n)` makes every egress
/// serialize n× slower (effective rate divided by n) without taking the
/// switch down — the "limping component" gray failure. `SetSwitchLimp(1)`
/// heals; like every fault in the plane, healing is always explicit.
pub struct SetSwitchLimp(pub u32);
flextoe_sim::custom_msg!(SetSwitchLimp);

/// Egress resolution outcome for an L3-routed frame.
enum RouteOutcome {
    /// The primary ECMP pick (byte-identical to the healthy-fabric hash).
    Port(usize),
    /// Primary pick was down; re-finalized over the live candidates.
    Rerouted(usize),
    /// A collector-confirmed elephant steered by rank (heavy-hitter
    /// ECMP mode) instead of by hash.
    Steered(usize),
    /// A route exists but every candidate port is down.
    Blackhole,
    /// No route (or unparseable headers): flood-and-drop as before.
    NoRoute,
}

impl Switch {
    pub fn new() -> Switch {
        Switch {
            ports: Vec::new(),
            mac_table: FxHashMap::default(),
            routes: FxHashMap::default(),
            ecmp_salt: 0,
            latency: Duration::from_ns(500),
            alive: true,
            limp: 1,
            flooded: 0,
            routed: 0,
            rerouted: 0,
            blackholed: 0,
            dead_drops: 0,
            telemetry: None,
            counters: None,
        }
    }

    /// Add a port facing `to` (a link or MAC node); returns the port id.
    pub fn add_port(&mut self, to: NodeId, cfg: PortConfig) -> usize {
        self.ports.push(Port {
            cfg,
            to,
            // a frame that finds the port idle never enters the queue, so
            // its first slots are allocated here rather than by whichever
            // frame first waits behind another mid-run
            queue: VecDeque::with_capacity(4),
            queue_bytes: 0,
            tx: TxGate::default(),
            up: true,
            tx_frames: 0,
            drops: 0,
            ecn_marked: 0,
            peak_bytes: 0,
            occ_integral: 0,
            occ_since_ns: 0,
        });
        self.ports.len() - 1
    }

    /// Static MAC learning (testbed configuration).
    pub fn learn(&mut self, mac: MacAddr, port: usize) {
        self.mac_table.insert(mac, port);
    }

    /// Install an L3 route: frames for `ip` whose MAC is not directly
    /// attached leave through one of `ports`, chosen per-flow by
    /// [`ecmp_hash`]. A single-element set is a plain next-hop route.
    pub fn route(&mut self, ip: Ip4, ports: Vec<usize>) {
        debug_assert!(!ports.is_empty(), "route with no candidate ports");
        self.routes.insert(ip, ports);
    }

    /// Salt the ECMP hash (topology builders derive this from the sim
    /// seed, one value per switch).
    pub fn set_ecmp_salt(&mut self, salt: u64) {
        self.ecmp_salt = salt;
    }

    /// Attach the telemetry plane: sketch every parseable IPv4 frame on
    /// the forwarding path, answer [`SweepNow`] with epoch reports to
    /// `collector` (this switch is report index `index`), and — when
    /// `spec.hh_ecmp` — steer [`SetElephants`]-confirmed flows by rank.
    pub fn enable_telemetry(&mut self, index: u32, collector: NodeId, spec: &TelemetrySpec) {
        self.telemetry = Some(Box::new(SwitchTelemetry {
            sketch: SwitchSketch::new(spec.sketch),
            truth: spec.ground_truth.then(FxHashMap::default),
            collector,
            index,
            epoch_seq: 0,
            hh_ecmp: spec.hh_ecmp,
            elephants: Vec::new(),
        }));
    }

    /// Exact per-flow byte counts this switch observed (ground truth),
    /// if telemetry with `ground_truth` is enabled.
    pub fn telemetry_truth(&self) -> Option<&FxHashMap<u64, u64>> {
        self.telemetry.as_deref().and_then(|t| t.truth.as_ref())
    }

    /// The confirmed-elephant set currently steering this switch.
    pub fn telemetry_elephants(&self) -> &[u64] {
        self.telemetry
            .as_deref()
            .map(|t| t.elephants.as_slice())
            .unwrap_or(&[])
    }

    /// Resolve the egress port for an IP-routed frame from the hop's
    /// parse, if a route exists. A frame that does not parse (`None`: not
    /// IPv4, or an L4 header a fault corrupted) is not routed on garbage
    /// port bytes — it counts as `flooded` and is dropped here instead of
    /// at the receiving host's checksum.
    /// ECMP finalization excludes dead ports: while every candidate is
    /// live the pick is the historical hash (byte-identical fabrics when
    /// nothing has failed); a dead primary pick re-finalizes the same
    /// hash over the surviving candidates (flows stay path-stable for a
    /// given health state); no live candidate is a total blackhole.
    fn route_port(&self, meta: Option<&FrameMeta>) -> RouteOutcome {
        let Some(m) = meta else {
            return RouteOutcome::NoRoute;
        };
        let Some(candidates) = self.routes.get(&m.dst_ip) else {
            return RouteOutcome::NoRoute;
        };
        // Heavy-hitter ECMP: collector-confirmed elephants are spread
        // round-robin by their rank in the (sorted, deterministic)
        // elephant set instead of hashed — two elephants can no longer
        // collide onto one uplink. Everything else (and everything,
        // when the mode is off) takes the historical hash unchanged.
        if let Some(tel) = self.telemetry.as_deref() {
            if tel.hh_ecmp && !tel.elephants.is_empty() {
                if let Ok(rank) = tel.elephants.binary_search(&m.flow_basis) {
                    let pick = candidates[rank % candidates.len()];
                    if self.ports[pick].up {
                        return RouteOutcome::Steered(pick);
                    }
                    return match nth_live(candidates, |p| self.ports[p].up, rank as u64) {
                        Some(port) => RouteOutcome::Steered(port),
                        None => RouteOutcome::Blackhole,
                    };
                }
            }
        }
        let h = ecmp_hash_with_basis(m.flow_basis, self.ecmp_salt);
        let pick = candidates[(h % candidates.len() as u64) as usize];
        if self.ports[pick].up {
            return RouteOutcome::Port(pick);
        }
        match nth_live(candidates, |p| self.ports[p].up, h) {
            Some(port) => RouteOutcome::Rerouted(port),
            None => RouteOutcome::Blackhole,
        }
    }

    pub fn port_stats(&self, port: usize) -> (u64, u64, u64) {
        let p = &self.ports[port];
        (p.tx_frames, p.drops, p.ecn_marked)
    }

    /// Output-queue occupancy of `port` over the run so far:
    /// `(peak_bytes, time-weighted average bytes)` — the Table 4 /
    /// congested-fabric view of how close the queue rides to the ECN
    /// threshold K.
    pub fn queue_occupancy(&self, port: usize, now_ns: u64) -> (usize, f64) {
        let p = &self.ports[port];
        let integral =
            p.occ_integral + p.queue_bytes as u128 * now_ns.saturating_sub(p.occ_since_ns) as u128;
        let avg = if now_ns == 0 {
            0.0
        } else {
            integral as f64 / now_ns as f64
        };
        (p.peak_bytes, avg)
    }

    fn start_tx(&mut self, ctx: &mut Ctx<'_>, port: usize) {
        let now = ctx.now();
        let p = &mut self.ports[port];
        if !p.up {
            return;
        }
        if !p.tx.busy(now) {
            if let Some(frame) = p.queue.pop_front() {
                p.occ_update(now.as_ns());
                p.queue_bytes -= frame.len();
                p.transmit(ctx, self.limp, frame);
            }
        }
        if !p.queue.is_empty() {
            // the wake at the end of this frame starts the next one
            p.tx.arm(ctx, port as u64);
        }
    }

    /// Queue `frame` on `port`. `meta` is the hop's parse when it made
    /// one; CE marking parses for itself otherwise.
    fn enqueue(
        &mut self,
        ctx: &mut Ctx<'_>,
        port: usize,
        mut frame: Frame,
        meta: Option<FrameMeta>,
        counters: SwitchCounters,
    ) {
        let p = &mut self.ports[port];
        let len = frame.len();

        // tail drop at capacity — the buffer goes back to the sim pool
        if p.queue_bytes + len > p.cfg.buf_bytes {
            p.drops += 1;
            ctx.stats.inc(counters.tail_drops);
            ctx.pool.put(frame.into_bytes());
            return;
        }
        // WRED random early drop
        if let Some(w) = p.cfg.wred {
            if p.queue_bytes > w.min_bytes {
                let span = (w.max_bytes - w.min_bytes).max(1) as f64;
                let x = ((p.queue_bytes - w.min_bytes) as f64 / span).min(1.0);
                if ctx.rng.chance(x * w.max_p) {
                    p.drops += 1;
                    ctx.stats.inc(counters.wred_drops);
                    ctx.pool.put(frame.into_bytes());
                    return;
                }
            }
        }
        // DCTCP step marking: CE above K, for ECN-capable packets
        if let Some(k) = p.cfg.ecn_threshold {
            if p.queue_bytes > k && mark_ce(&mut frame, meta) {
                p.ecn_marked += 1;
                ctx.stats.inc(counters.ecn_marked);
            }
        }
        let now = ctx.now();
        p.occ_update(now.as_ns());
        // a frame that starts at once counts toward the peak as if it
        // were queued for an instant, so both paths read the same peak
        p.peak_bytes = p.peak_bytes.max(p.queue_bytes + len);
        if p.up && p.queue.is_empty() && !p.tx.busy(now) {
            // idle port: start the transmit without the queue round trip
            p.transmit(ctx, self.limp, frame);
            return;
        }
        p.queue_bytes += len;
        p.queue.push_back(frame);
        self.start_tx(ctx, port);
    }

    /// Recycle everything queued on `port` — a dead port (or switch)
    /// cannot transmit, and leaked buffers would break the pool-gauge
    /// conservation invariant.
    fn flush_port(&mut self, ctx: &mut Ctx<'_>, port: usize, counters: SwitchCounters) {
        let now_ns = ctx.now().as_ns();
        self.ports[port].occ_update(now_ns);
        while let Some(frame) = self.ports[port].queue.pop_front() {
            self.dead_drops += 1;
            ctx.stats.inc(counters.dead_drops);
            ctx.pool.put(frame.into_bytes());
        }
        self.ports[port].queue_bytes = 0;
    }

    /// Hard fault-state admin messages ([`SetPortUp`], [`SetSwitchAlive`])
    /// and the telemetry plane's sweep/steering control
    /// ([`SweepNow`], [`SetElephants`]).
    fn admin(&mut self, ctx: &mut Ctx<'_>, msg: Msg, counters: SwitchCounters) {
        let msg = match flextoe_sim::try_cast::<SetPortUp>(msg) {
            Ok(s) => {
                self.ports[s.port].up = s.up;
                if s.up {
                    self.start_tx(ctx, s.port);
                } else {
                    self.flush_port(ctx, s.port, counters);
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match flextoe_sim::try_cast::<SetSwitchAlive>(msg) {
            Ok(s) => {
                self.alive = s.0;
                if !s.0 {
                    for port in 0..self.ports.len() {
                        self.flush_port(ctx, port, counters);
                    }
                    // the monitoring plane dies with the switch: the
                    // un-swept partial epoch is lost (ground truth
                    // survives — that gap is what the differential
                    // harness measures under fault schedules)
                    if let Some(tel) = self.telemetry.as_deref_mut() {
                        tel.sketch.reset();
                    }
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match flextoe_sim::try_cast::<SetSwitchLimp>(msg) {
            Ok(s) => {
                self.limp = s.0.max(1);
                return;
            }
            Err(m) => m,
        };
        let msg = match flextoe_sim::try_cast::<SweepNow>(msg) {
            Ok(_) => {
                self.sweep(ctx);
                return;
            }
            Err(m) => m,
        };
        match flextoe_sim::try_cast::<SetElephants>(msg) {
            Ok(e) => {
                if let Some(tel) = self.telemetry.as_deref_mut() {
                    tel.elephants = e.0;
                }
            }
            Err(m) => panic!("switch: unexpected message {}", m.variant_name()),
        }
    }

    /// Answer a collector [`SweepNow`]: snapshot-and-reset the sketch
    /// epoch into a pooled report frame. A dead switch reports nothing
    /// (the epoch number still advances, so the loss is visible in the
    /// collector's per-switch epoch counts); a telemetry-less switch
    /// ignores the sweep.
    fn sweep(&mut self, ctx: &mut Ctx<'_>) {
        let latency = self.latency;
        let Some(tel) = self.telemetry.as_deref_mut() else {
            return;
        };
        if !self.alive {
            tel.epoch_seq += 1;
            return;
        }
        let mut buf = ctx.pool.take_report();
        tel.sketch.encode_sweep(tel.index, tel.epoch_seq, &mut buf);
        tel.epoch_seq += 1;
        ctx.send(tel.collector, latency, Frame::raw(buf));
    }
}

/// ECMP re-finalization over the live candidates without collecting
/// them: the `(i % n_live)`-th candidate that is `up`, in candidate
/// order; `None` when every candidate is down.
fn nth_live(candidates: &[usize], up: impl Fn(usize) -> bool, i: u64) -> Option<usize> {
    let live = || candidates.iter().copied().filter(|&p| up(p));
    // with none live, nth(0) of the empty walk is the None we want
    let n_live = live().count().max(1) as u64;
    live().nth((i % n_live) as usize)
}

impl Default for Switch {
    fn default() -> Self {
        Self::new()
    }
}

/// Set CE on an ECN-capable IPv4 frame, rewriting the ECN bits and the
/// IPv4 checksum at the parsed header offset (an 802.1Q tag moves it);
/// returns whether the frame leaves CE-marked. `meta` is the hop's parse
/// when it already made one.
fn mark_ce(frame: &mut Frame, meta: Option<FrameMeta>) -> bool {
    let Some(m) = meta.or_else(|| FrameMeta::parse(frame.bytes())) else {
        return false;
    };
    match m.ecn {
        Ecn::Ect0 | Ecn::Ect1 => {
            let mut ip = Ipv4Packet(&mut frame.bytes[m.ip_off as usize..]);
            ip.set_ecn(Ecn::Ce);
            ip.fill_checksum();
            true
        }
        Ecn::Ce => true,
        Ecn::NotEct => false,
    }
}

impl Node for Switch {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let counters = self.counters.expect("switch attached to a sim");
        let frame = match msg {
            Msg::Token(port) => {
                // the frame on the wire finished and another one waits
                // (unless a kill or port-down flushed it meanwhile)
                self.ports[port as usize].tx.woke(ctx.now());
                self.start_tx(ctx, port as usize);
                return;
            }
            Msg::Frame(frame) => frame,
            m => {
                self.admin(ctx, m, counters);
                return;
            }
        };
        if !self.alive {
            self.dead_drops += 1;
            ctx.stats.inc(counters.dead_drops);
            ctx.pool.put(frame.into_bytes());
            return;
        }
        // destination MAC: the first six bytes — no header parse needed
        if frame.len() < ETH_HDR_LEN {
            return;
        }
        let dst = MacAddr(frame.bytes()[0..6].try_into().unwrap());
        let direct = self.mac_table.get(&dst).copied();
        // one parse per L3 or telemetry hop feeds ECMP, the sketch and CE
        // marking; a MAC-table hop without telemetry parses only to mark
        let meta = if direct.is_none() || self.telemetry.is_some() {
            FrameMeta::parse(frame.bytes())
        } else {
            None
        };
        // telemetry observes every parseable frame a live switch handles;
        // the rest are invisible to the sketch *and* to the truth map, so
        // the differential stays exact
        if let (Some(tel), Some(m)) = (self.telemetry.as_deref_mut(), &meta) {
            tel.observe(m.flow_basis, frame.len() as u64);
        }
        match direct {
            Some(port) if self.ports[port].up => {
                // forwarding latency is not a self-delay here: the
                // topology builders add the 500 ns to the adjacent links,
                // and the frame enqueues at once
                self.enqueue(ctx, port, frame, meta, counters);
            }
            Some(_) => {
                self.blackholed += 1;
                ctx.stats.inc(counters.blackholed);
                ctx.pool.put(frame.into_bytes());
            }
            None => match self.route_port(meta.as_ref()) {
                RouteOutcome::Port(port) => {
                    self.routed += 1;
                    ctx.stats.inc(counters.routed);
                    self.enqueue(ctx, port, frame, meta, counters);
                }
                RouteOutcome::Rerouted(port) => {
                    self.routed += 1;
                    self.rerouted += 1;
                    ctx.stats.inc(counters.routed);
                    ctx.stats.inc(counters.rerouted);
                    self.enqueue(ctx, port, frame, meta, counters);
                }
                RouteOutcome::Steered(port) => {
                    self.routed += 1;
                    ctx.stats.inc(counters.routed);
                    ctx.stats.inc(counters.steered);
                    self.enqueue(ctx, port, frame, meta, counters);
                }
                RouteOutcome::Blackhole => {
                    self.blackholed += 1;
                    ctx.stats.inc(counters.blackholed);
                    ctx.pool.put(frame.into_bytes());
                }
                RouteOutcome::NoRoute => {
                    self.flooded += 1;
                    ctx.pool.put(frame.into_bytes());
                }
            },
        }
    }

    fn on_attach(&mut self, stats: &mut Stats) {
        self.counters = Some(SwitchCounters {
            tail_drops: stats.counter("switch.tail_drops"),
            wred_drops: stats.counter("switch.wred_drops"),
            ecn_marked: stats.counter("switch.ecn_marked"),
            routed: stats.counter("switch.routed"),
            rerouted: stats.counter("switch.ecmp_rerouted"),
            blackholed: stats.counter("switch.blackholed"),
            dead_drops: stats.counter("switch.dead_drops"),
            steered: stats.counter("switch.hh_steered"),
        });
    }

    fn name(&self) -> String {
        "switch".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flextoe_sim::{QueueKind, Sim, Time};
    use flextoe_wire::{insert_vlan, Ecn, SegmentSpec, SegmentView};

    struct Probe {
        frames: Vec<(u64, Vec<u8>)>,
    }
    impl Node for Probe {
        fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            let Msg::Frame(f) = msg else {
                panic!("expected a frame")
            };
            self.frames.push((ctx.now().as_ns(), f.into_bytes()));
        }
    }

    fn tcp_frame(ecn: Ecn, len: usize) -> Vec<u8> {
        SegmentSpec {
            src_mac: MacAddr::local(1),
            dst_mac: MacAddr::local(2),
            src_ip: flextoe_wire::Ip4::host(1),
            dst_ip: flextoe_wire::Ip4::host(2),
            ecn,
            payload_len: len,
            ..Default::default()
        }
        .emit_zeroed()
    }

    fn one_port_switch(cfg: PortConfig) -> (Sim, flextoe_sim::NodeId, flextoe_sim::NodeId) {
        let mut sim = Sim::new(1);
        let probe = sim.add_node(Probe { frames: vec![] });
        let mut sw = Switch::new();
        let port = sw.add_port(probe, cfg);
        sw.learn(MacAddr::local(2), port);
        let swid = sim.add_node(sw);
        (sim, swid, probe)
    }

    #[test]
    fn forwards_by_mac_and_serializes() {
        let (mut sim, sw, probe) = one_port_switch(PortConfig {
            rate_bps: 10_000_000_000, // 10G
            ..Default::default()
        });
        let f = tcp_frame(Ecn::NotEct, 1000);
        let flen = f.len();
        sim.schedule(Time::ZERO, sw, Frame::raw(f.clone()));
        sim.schedule(Time::ZERO, sw, Frame::raw(f));
        sim.run();
        let p = sim.node_ref::<Probe>(probe);
        assert_eq!(p.frames.len(), 2);
        let ser_ns = (flen as u64 * 8) / 10; // bits / 10Gbps in ns
        assert_eq!(p.frames[0].0, ser_ns);
        assert_eq!(p.frames[1].0, 2 * ser_ns);
    }

    const QUEUES: [QueueKind; 2] = [QueueKind::Wheel, QueueKind::Heap];

    /// Passes every frame it is handed on to `to` in the same instant,
    /// so the frame reaches `to` under this node's band.
    struct Feeder {
        to: flextoe_sim::NodeId,
    }
    impl Node for Feeder {
        fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            ctx.send(self.to, Duration::ZERO, msg);
        }
    }

    /// A small frame occupies the 10G port until `end`; at exactly `end`
    /// two feeders hand the switch a 100 B- and a 300 B-payload frame.
    /// Returns the port's peak occupancy and the probe's arrival times.
    fn frames_at_tx_end(feeders_below: bool, kind: QueueKind) -> (usize, usize, Vec<u64>) {
        let cfg = PortConfig {
            rate_bps: 10_000_000_000,
            ..Default::default()
        };
        let mut sim = Sim::with_queue(1, kind);
        let feeders = |sim: &mut Sim| [sim.reserve_node(), sim.reserve_node()];
        let below = feeders_below.then(|| feeders(&mut sim));
        let probe = sim.add_node(Probe { frames: vec![] });
        let mut sw = Switch::new();
        let port = sw.add_port(probe, cfg);
        sw.learn(MacAddr::local(2), port);
        let swid = sim.add_node(sw);
        let ids = below.unwrap_or_else(|| feeders(&mut sim));
        for id in ids {
            sim.fill_node(id, Feeder { to: swid });
        }
        let first = tcp_frame(Ecn::NotEct, 0);
        let end = Time::ZERO + Duration::line_rate(first.len(), cfg.rate_bps);
        sim.schedule(Time::ZERO, swid, Frame::raw(first));
        let (a, b) = (tcp_frame(Ecn::NotEct, 100), tcp_frame(Ecn::NotEct, 300));
        let lens = (a.len(), b.len());
        sim.schedule(end, ids[0], Frame::raw(a));
        sim.schedule(end, ids[1], Frame::raw(b));
        sim.run();
        let (peak, _) = sim.node_ref::<Switch>(swid).queue_occupancy(port, 1);
        let arrivals = sim.node_ref::<Probe>(probe).frames.iter().map(|f| f.0);
        (peak, lens.0 + lens.1, arrivals.collect())
    }

    /// The tie rule at `end`: senders with lower node ids than the switch
    /// are delivered before the end-of-frame wake and find the port busy,
    /// so both frames queue; senders with higher ids find it idle, so the
    /// first one starts at once and only the second queues. Timing is the
    /// same either way.
    #[test]
    fn frames_at_tx_end_see_the_port_busy_only_from_lower_ids() {
        for kind in QUEUES {
            let (below_peak, both, below_times) = frames_at_tx_end(true, kind);
            assert_eq!(
                below_peak, both,
                "{kind:?}: lower ids queue behind the wire"
            );
            let (above_peak, _, above_times) = frames_at_tx_end(false, kind);
            let second = tcp_frame(Ecn::NotEct, 300).len();
            assert_eq!(
                above_peak, second,
                "{kind:?}: higher ids find the port idle"
            );
            assert_eq!(below_times, above_times);
            assert_eq!(below_times.len(), 3);
        }
    }

    /// Wake on demand: frames that find the port idle leave without a
    /// self-event; a burst takes one wake per frame queued behind another
    /// and still drains in FIFO order at line rate.
    #[test]
    fn port_wakes_only_for_queued_frames() {
        for kind in QUEUES {
            let cfg = PortConfig {
                rate_bps: 10_000_000_000,
                ..Default::default()
            };
            let mut sim = Sim::with_queue(1, kind);
            let probe = sim.add_node(Probe { frames: vec![] });
            let mut sw = Switch::new();
            let port = sw.add_port(probe, cfg);
            sw.learn(MacAddr::local(2), port);
            let sw = sim.add_node(sw);
            for i in 0..10 {
                sim.schedule(Time::from_us(i), sw, Frame::raw(tcp_frame(Ecn::NotEct, 64)));
            }
            sim.run();
            assert_eq!(sim.events_processed(), 10 + 10, "{kind:?}: spaced frames");

            let burst: Vec<Vec<u8>> = (1..=5).map(|i| tcp_frame(Ecn::NotEct, 100 * i)).collect();
            let start = sim.now() + Duration::from_us(1);
            for f in &burst {
                sim.schedule(start, sw, Frame::raw(f.clone()));
            }
            sim.run();
            assert_eq!(sim.events_processed(), 20 + 5 + 5 + 4, "{kind:?}: burst");
            let got = &sim.node_ref::<Probe>(probe).frames[10..];
            let mut at = start;
            for (f, (ns, bytes)) in burst.iter().zip(got) {
                at += Duration::line_rate(f.len(), cfg.rate_bps);
                assert_eq!((*ns, bytes), (at.as_ns(), f), "{kind:?}: FIFO at line rate");
            }
        }
    }

    /// Today's port accounting, pinned with hand-computed values on a
    /// 1 Gbit/s port (a 100 B frame serializes in 800 ns): a frame at an
    /// idle port, two back to back, one at exactly the transmit end (the
    /// port still counts as busy there, so it queues and takes a wake),
    /// one after a port-down/port-up heal, and two under
    /// `SetSwitchLimp(3)`.
    #[test]
    fn idle_port_sends_at_once_and_keeps_the_accounting() {
        for kind in QUEUES {
            let mut sim = Sim::with_queue(1, kind);
            let probe = sim.add_node(Probe { frames: vec![] });
            let mut sw = Switch::new();
            let cfg = PortConfig {
                rate_bps: 1_000_000_000,
                ecn_threshold: None,
                ..Default::default()
            };
            let port = sw.add_port(probe, cfg);
            sw.learn(MacAddr::local(2), port);
            let sw = sim.add_node(sw);
            let frame = || Frame::raw(tcp_frame(Ecn::NotEct, 46));
            assert_eq!(frame().len(), 100);
            let at = Time::from_ns;
            sim.schedule(at(0), sw, frame()); // idle: 0..800
            sim.schedule(at(1_000), sw, frame()); // idle: 1000..1800
            sim.schedule(at(1_000), sw, frame()); // queued 800 ns: 1800..2600
            sim.schedule(at(2_600), sw, frame()); // at the end: 2600..3400
            sim.schedule(at(4_000), sw, SetPortUp { port, up: false });
            sim.schedule(at(4_500), sw, frame()); // blackholed
            sim.schedule(at(5_000), sw, SetPortUp { port, up: true });
            sim.schedule(at(5_100), sw, frame()); // healed, idle: 5100..5900
            sim.schedule(at(6_000), sw, SetSwitchLimp(3));
            sim.schedule(at(7_000), sw, frame()); // 3x: 7000..9400
            sim.schedule(at(7_000), sw, frame()); // queued 2400 ns: 9400..11800
            sim.run();
            // 11 arrivals at the switch, 7 at the probe, and one wake for
            // each frame that queued: at 1800, 2600 and 9400
            assert_eq!(sim.events_processed(), 11 + 7 + 3, "{kind:?}");
            let times: Vec<u64> = sim
                .node_ref::<Probe>(probe)
                .frames
                .iter()
                .map(|f| f.0)
                .collect();
            assert_eq!(
                times,
                [800, 1_800, 2_600, 3_400, 5_900, 9_400, 11_800],
                "{kind:?}"
            );
            let s = sim.node_ref::<Switch>(sw);
            assert_eq!(s.port_stats(port), (7, 0, 0), "{kind:?}");
            assert_eq!(s.blackholed, 1, "{kind:?}");
            // 100 B queued for 800 ns and for 2400 ns: 320,000 B·ns over
            // 16 µs; the peak counts a frame that starts at once (100 B),
            // never the one on the wire under a queued one
            assert_eq!(s.queue_occupancy(port, 16_000), (100, 20.0), "{kind:?}");
        }
    }

    /// Walking the live candidates picks exactly what indexing the
    /// collected live set picked, for every up/down mask of 1-8
    /// candidates and 1,000 hashes each.
    #[test]
    fn nth_live_matches_the_collected_live_set() {
        for n in 1..=8usize {
            let candidates: Vec<usize> = (0..n).map(|i| 3 * i + 1).collect();
            for mask in 0..1u32 << n {
                let up = |p: usize| mask >> ((p - 1) / 3) & 1 == 1;
                let live: Vec<usize> = candidates.iter().copied().filter(|&p| up(p)).collect();
                for i in 0..1_000u64 {
                    let h = flextoe_telemetry::mix64(i);
                    let old = (!live.is_empty()).then(|| live[(h % live.len() as u64) as usize]);
                    assert_eq!(
                        nth_live(&candidates, up, h),
                        old,
                        "{candidates:?} mask {mask:#b}"
                    );
                }
            }
        }
    }

    #[test]
    fn unknown_mac_counted_not_forwarded() {
        let (mut sim, sw, probe) = one_port_switch(Default::default());
        let mut f = tcp_frame(Ecn::NotEct, 10);
        f[0..6].copy_from_slice(&[9; 6]); // unknown dst
        sim.schedule(Time::ZERO, sw, Frame::raw(f));
        sim.run();
        assert!(sim.node_ref::<Probe>(probe).frames.is_empty());
        assert_eq!(sim.node_ref::<Switch>(sw).flooded, 1);
    }

    #[test]
    fn tail_drop_at_buffer_cap() {
        let (mut sim, sw, probe) = one_port_switch(PortConfig {
            rate_bps: 1_000_000, // 1 Mbps: queue builds instantly
            buf_bytes: 3000,
            ecn_threshold: None,
            wred: None,
        });
        for _ in 0..10 {
            sim.schedule(Time::ZERO, sw, Frame::raw(tcp_frame(Ecn::NotEct, 1000)));
        }
        sim.run_until(Time::from_ms(1));
        let s = sim.node_ref::<Switch>(sw);
        assert!(s.port_stats(0).1 >= 7, "drops {}", s.port_stats(0).1);
        let _ = probe;
    }

    #[test]
    fn ecn_marking_above_threshold() {
        let (mut sim, sw, probe) = one_port_switch(PortConfig {
            rate_bps: 1_000_000,
            buf_bytes: 1 << 20,
            ecn_threshold: Some(2000),
            wred: None,
        });
        for _ in 0..10 {
            sim.schedule(Time::ZERO, sw, Frame::raw(tcp_frame(Ecn::Ect0, 1000)));
        }
        sim.run_until(Time::from_ms(1000));
        let marked = sim.node_ref::<Switch>(sw).port_stats(0).2;
        assert!(marked >= 7, "marked {marked}");
        // marked frames carry CE and still parse with a valid checksum
        let p = sim.node_ref::<Probe>(probe);
        let mut ce = 0;
        for (_, f) in &p.frames {
            let v = SegmentView::parse(f, true).expect("checksum refreshed");
            if v.ecn == Ecn::Ce {
                ce += 1;
            }
        }
        assert_eq!(ce as u64, marked);
    }

    /// Behind an 802.1Q tag the IPv4 header starts at byte 18, not 14:
    /// marking must rewrite the ECN bits and checksum there.
    #[test]
    fn ecn_marks_vlan_tagged_frames_at_the_ip_header() {
        let (mut sim, sw, probe) = one_port_switch(PortConfig {
            rate_bps: 1_000_000,
            buf_bytes: 1 << 20,
            ecn_threshold: Some(2000),
            wred: None,
        });
        let mut f = tcp_frame(Ecn::Ect0, 1000);
        insert_vlan(&mut f, 42);
        for _ in 0..5 {
            sim.schedule(Time::ZERO, sw, Frame::raw(f.clone()));
        }
        sim.run_until(Time::from_ms(1000));
        let marked = sim.node_ref::<Switch>(sw).port_stats(0).2;
        assert_eq!(marked, 2, "the 4th and 5th frames find the queue above K");
        let mut ce = 0;
        for (_, f) in &sim.node_ref::<Probe>(probe).frames {
            let ip = Ipv4Packet::new_checked(&f[ETH_HDR_LEN + 4..]).expect("ip at 18");
            assert!(ip.verify_checksum(), "checksum refreshed at offset 18");
            if ip.ecn() == Ecn::Ce {
                ce += 1;
            }
        }
        assert_eq!(ce, marked);
    }

    #[test]
    fn not_ect_frames_never_marked() {
        let (mut sim, sw, _probe) = one_port_switch(PortConfig {
            rate_bps: 1_000_000,
            buf_bytes: 1 << 20,
            ecn_threshold: Some(0),
            wred: None,
        });
        for _ in 0..5 {
            sim.schedule(Time::ZERO, sw, Frame::raw(tcp_frame(Ecn::NotEct, 500)));
        }
        sim.run_until(Time::from_ms(1000));
        assert_eq!(sim.node_ref::<Switch>(sw).port_stats(0).2, 0);
    }

    #[test]
    fn queue_occupancy_tracks_peak_and_average() {
        let (mut sim, sw, _probe) = one_port_switch(PortConfig {
            rate_bps: 1_000_000, // slow: the burst queues up
            buf_bytes: 1 << 20,
            ecn_threshold: None,
            wred: None,
        });
        for _ in 0..5 {
            sim.schedule(Time::ZERO, sw, Frame::raw(tcp_frame(Ecn::NotEct, 1000)));
        }
        sim.run_until(Time::from_ms(100)); // long past full drain
        let s = sim.node_ref::<Switch>(sw);
        let (peak, avg) = s.queue_occupancy(0, sim.now().as_ns());
        // one frame is in serialization immediately; four sit queued
        assert!(peak >= 4_000, "peak {peak}");
        assert!(avg > 0.0 && avg < peak as f64, "avg {avg}");
        // a fully idle port reports zero
        let (mut sim2, sw2, _p2) = one_port_switch(PortConfig::default());
        sim2.run_until(Time::from_ms(1));
        let (peak2, avg2) = sim2
            .node_ref::<Switch>(sw2)
            .queue_occupancy(0, sim2.now().as_ns());
        assert_eq!((peak2, avg2), (0, 0.0));
    }

    /// Two-uplink "leaf": frames for a remote host IP leave through one of
    /// two ECMP candidate ports, each feeding a probe.
    fn ecmp_leaf(seed: u64) -> (Sim, flextoe_sim::NodeId, [flextoe_sim::NodeId; 2]) {
        let mut sim = Sim::new(seed);
        let up0 = sim.add_node(Probe { frames: vec![] });
        let up1 = sim.add_node(Probe { frames: vec![] });
        let mut sw = Switch::new();
        let p0 = sw.add_port(up0, PortConfig::default());
        let p1 = sw.add_port(up1, PortConfig::default());
        sw.route(flextoe_wire::Ip4::host(2), vec![p0, p1]);
        sw.set_ecmp_salt(sim.rng.next_u64());
        let swid = sim.add_node(sw);
        (sim, swid, [up0, up1])
    }

    fn flow_frame(src_port: u16) -> Vec<u8> {
        SegmentSpec {
            src_mac: MacAddr::local(1),
            // unknown to the MAC table: forces the L3 route path
            dst_mac: MacAddr::local(2),
            src_ip: flextoe_wire::Ip4::host(1),
            dst_ip: flextoe_wire::Ip4::host(2),
            src_port,
            dst_port: 7777,
            payload_len: 64,
            ..Default::default()
        }
        .emit_zeroed()
    }

    /// The delivery logs of every ECMP port are byte-identical across
    /// reruns of the same seed — the fabric determinism contract.
    #[test]
    fn ecmp_delivery_log_identical_across_reruns_of_same_seed() {
        let run = |seed: u64| -> Vec<Vec<(u64, Vec<u8>)>> {
            let (mut sim, sw, probes) = ecmp_leaf(seed);
            for i in 0..200u16 {
                sim.schedule(
                    Time::from_ns(i as u64 * 1000),
                    sw,
                    Frame::raw(flow_frame(10_000 + i)),
                );
            }
            sim.run();
            probes
                .iter()
                .map(|&p| sim.node_ref::<Probe>(p).frames.clone())
                .collect()
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b, "same seed must reproduce identical delivery logs");
        // both uplinks carry traffic (the hash actually spreads flows)
        assert!(!a[0].is_empty() && !a[1].is_empty(), "ECMP spreads flows");
        // a different seed salts the hash differently: some flow moves
        let c = run(43);
        assert_ne!(
            (a[0].len(), a[1].len()),
            (c[0].len(), c[1].len()),
            "different seeds should shuffle the port split (200 flows)"
        );
    }

    /// One flow always takes one path: no packet reordering via ECMP.
    #[test]
    fn ecmp_is_per_flow_stable() {
        let (mut sim, sw, probes) = ecmp_leaf(7);
        for i in 0..50u64 {
            sim.schedule(Time::from_ns(i * 1000), sw, Frame::raw(flow_frame(5555)));
        }
        sim.run();
        let counts: Vec<usize> = probes
            .iter()
            .map(|&p| sim.node_ref::<Probe>(p).frames.len())
            .collect();
        assert!(
            counts.contains(&50) && counts.contains(&0),
            "one flow pinned to one port, got {counts:?}"
        );
    }

    /// A limping switch serializes N× slower (delivery time scales with
    /// the limp factor) without dropping anything; `SetSwitchLimp(1)`
    /// restores the healthy rate exactly.
    #[test]
    fn limping_switch_inflates_serialization_without_loss() {
        let arrival = |limp: Option<u32>| -> u64 {
            let mut sim = Sim::new(1);
            let probe = sim.add_node(Probe { frames: vec![] });
            let mut sw = Switch::new();
            // 1 Gbps: serialization is a whole number of ns, so the ×N
            // arithmetic below is exact in the probe's ns timestamps
            let cfg = PortConfig {
                rate_bps: 1_000_000_000,
                ..Default::default()
            };
            let p = sw.add_port(probe, cfg);
            sw.learn(MacAddr::local(2), p);
            let swid = sim.add_node(sw);
            if let Some(n) = limp {
                sim.schedule(Time::ZERO, swid, SetSwitchLimp(n));
            }
            sim.schedule(Time::from_ns(10), swid, Frame::raw(flow_frame(1)));
            sim.run();
            let pr = sim.node_ref::<Probe>(probe);
            assert_eq!(pr.frames.len(), 1, "limping must not drop");
            pr.frames[0].0
        };
        let healthy = arrival(None);
        let limped = arrival(Some(8));
        let healed = arrival(Some(1));
        assert_eq!(healed, healthy, "SetSwitchLimp(1) is the healthy rate");
        assert_eq!(
            limped - 10,
            (healthy - 10) * 8,
            "8x limp scales serialization"
        );
    }

    /// A directly-attached MAC wins over an IP route for the same host.
    #[test]
    fn mac_table_takes_precedence_over_route() {
        let mut sim = Sim::new(1);
        let direct = sim.add_node(Probe { frames: vec![] });
        let up = sim.add_node(Probe { frames: vec![] });
        let mut sw = Switch::new();
        let pd = sw.add_port(direct, PortConfig::default());
        let pu = sw.add_port(up, PortConfig::default());
        sw.learn(MacAddr::local(2), pd);
        sw.route(flextoe_wire::Ip4::host(2), vec![pu]);
        let swid = sim.add_node(sw);
        sim.schedule(Time::ZERO, swid, Frame::raw(flow_frame(1)));
        sim.run();
        assert_eq!(sim.node_ref::<Probe>(direct).frames.len(), 1);
        assert!(sim.node_ref::<Probe>(up).frames.is_empty());
    }

    /// ECMP failover: killing one uplink port moves every flow onto the
    /// survivor (counted as rerouted); killing both blackholes; healing
    /// restores the original hash-based split exactly.
    #[test]
    fn ecmp_excludes_dead_ports_and_blackholes_when_none_live() {
        let (mut sim, sw, probes) = ecmp_leaf(42);
        // establish the healthy split
        for i in 0..100u16 {
            sim.schedule(
                Time::from_ns(i as u64 * 1000),
                sw,
                Frame::raw(flow_frame(10_000 + i)),
            );
        }
        sim.run();
        let healthy: Vec<usize> = probes
            .iter()
            .map(|&p| sim.node_ref::<Probe>(p).frames.len())
            .collect();
        assert!(healthy[0] > 0 && healthy[1] > 0);

        // port 0 down: everything lands on port 1
        sim.schedule_in(Duration::from_ns(10), sw, SetPortUp { port: 0, up: false });
        for i in 0..100u16 {
            sim.schedule_in(
                Duration::from_ns(1000 + i as u64 * 1000),
                sw,
                Frame::raw(flow_frame(10_000 + i)),
            );
        }
        sim.run();
        {
            let s = sim.node_ref::<Switch>(sw);
            assert_eq!(s.rerouted as usize, healthy[0], "port-0 flows rerouted");
            assert_eq!(s.blackholed, 0);
        }
        assert_eq!(
            sim.node_ref::<Probe>(probes[0]).frames.len(),
            healthy[0],
            "no new frames on the dead port"
        );
        assert_eq!(
            sim.node_ref::<Probe>(probes[1]).frames.len(),
            healthy[1] + 100
        );

        // both down: total blackhole
        sim.schedule_in(Duration::from_ns(10), sw, SetPortUp { port: 1, up: false });
        for i in 0..10u16 {
            sim.schedule_in(
                Duration::from_ns(1000 + i as u64 * 1000),
                sw,
                Frame::raw(flow_frame(10_000 + i)),
            );
        }
        sim.run();
        assert_eq!(sim.node_ref::<Switch>(sw).blackholed, 10);

        // heal both: the original split comes back byte-for-byte
        sim.schedule_in(Duration::from_ns(10), sw, SetPortUp { port: 0, up: true });
        sim.schedule_in(Duration::from_ns(10), sw, SetPortUp { port: 1, up: true });
        for i in 0..100u16 {
            sim.schedule_in(
                Duration::from_ns(1000 + i as u64 * 1000),
                sw,
                Frame::raw(flow_frame(10_000 + i)),
            );
        }
        sim.run();
        assert_eq!(
            sim.node_ref::<Probe>(probes[0]).frames.len(),
            2 * healthy[0],
            "healed fabric re-selects the healthy paths"
        );
    }

    /// A killed switch drops everything (flushing queued frames back to
    /// the pool) and resumes forwarding after an explicit heal.
    #[test]
    fn switch_kill_flushes_and_heal_restores() {
        let (mut sim, sw, probe) = one_port_switch(PortConfig {
            rate_bps: 1_000_000, // slow: frames queue up before the kill
            buf_bytes: 1 << 20,
            ecn_threshold: None,
            wred: None,
        });
        for _ in 0..5 {
            sim.schedule(Time::ZERO, sw, Frame::raw(tcp_frame(Ecn::NotEct, 1000)));
        }
        sim.schedule(Time::from_us(1), sw, SetSwitchAlive(false));
        // arrives while dead: dropped at the door
        sim.schedule(
            Time::from_us(2),
            sw,
            Frame::raw(tcp_frame(Ecn::NotEct, 1000)),
        );
        sim.schedule(Time::from_ms(50), sw, SetSwitchAlive(true));
        sim.schedule(
            Time::from_ms(51),
            sw,
            Frame::raw(tcp_frame(Ecn::NotEct, 1000)),
        );
        sim.run_until(Time::from_ms(100));
        let s = sim.node_ref::<Switch>(sw);
        assert!(s.dead_drops >= 5, "flushed + at-the-door: {}", s.dead_drops);
        let delivered = sim.node_ref::<Probe>(probe).frames.len();
        assert!(
            (2..=3).contains(&delivered),
            "one in-flight at kill plus one after heal, got {delivered}"
        );
    }

    #[test]
    fn wred_drops_between_thresholds() {
        let (mut sim, sw, probe) = one_port_switch(PortConfig {
            rate_bps: 1_000_000,
            buf_bytes: 1 << 20,
            ecn_threshold: None,
            wred: Some(WredParams {
                min_bytes: 1000,
                max_bytes: 20_000,
                max_p: 1.0,
            }),
        });
        for _ in 0..50 {
            sim.schedule(Time::ZERO, sw, Frame::raw(tcp_frame(Ecn::NotEct, 1000)));
        }
        sim.run_until(Time::from_ms(2000));
        let drops = sim.node_ref::<Switch>(sw).port_stats(0).1;
        assert!(drops > 10, "wred drops {drops}");
        assert!(!sim.node_ref::<Probe>(probe).frames.is_empty());
    }
}
