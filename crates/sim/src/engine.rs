//! The discrete-event engine.
//!
//! A simulation is a set of [`Node`]s (pipeline-stage FPCs, host cores,
//! links, switch ports, …) exchanging timestamped messages through a global
//! event queue. Execution is single-threaded per [`Sim`] and fully
//! deterministic: delivery follows the total `(time, seq)` key order, and
//! randomness flows from seeded per-node generators.
//!
//! # Partition-independent event keys
//!
//! Event sequence numbers are **banded** so that the same simulation
//! produces the same keys no matter how it is partitioned across shards
//! (`flextoe-shard` runs one scenario as N communicating `Sim`s):
//!
//! - band 0 — events scheduled from outside any handler
//!   ([`Sim::schedule`] / [`Sim::schedule_in`]): `seq` is a global
//!   schedule-call counter, so externally scheduled ties deliver in call
//!   order, as they always have.
//! - band `id+1` — events sent from inside a handler ([`Ctx::send`] and
//!   friends): `seq = (source id + 1) << 40 | per-source counter`. The key
//!   depends only on the sending node's own history, never on the global
//!   interleaving — which is what makes a sharded run byte-identical to
//!   the monolithic one.
//!
//! A frame sent to a fault-free link registered as a relay
//! ([`Sim::set_relay`]) is queued for the link's far end under the link's
//! band and counter: the key the link node would have given it had it
//! been delivered there and forwarded ([`crate::relay`]).
//!
//! At equal timestamps this orders all externally scheduled events first,
//! then runtime sends by `(source id, per-source send count)`. Every
//! scheduler (wheel, reference heap, sharded) delivers the greedy minimum
//! of the queued keys, so all of them realize the identical order.
//!
//! Latency travels in messages; genuinely shared memory (socket payload
//! buffers, context queues, NIC memories) is shared via `Rc<RefCell<…>>`
//! outside the engine, mirroring the real system's shared-memory design,
//! with *access costs* charged through the hardware model.
//!
//! # Messages
//!
//! [`Msg`] is an enum whose variants cover the data-path's hot message
//! vocabulary — raw frames, MAC egress submissions, pooled pipeline work
//! tokens, DMA transfer requests/completions, scheduler and context-queue
//! tokens, notification descriptors, application wake-ups, scheduler MMIO
//! — so nothing sent once per frame, per request or per CC report touches
//! the heap. Cold control (connection set-up, fault injection, test
//! fixtures) rides in [`Msg::Custom`], a type-erased box. There is one way
//! to read a message: receivers `match` on [`Msg`] for the typed variants,
//! and [`cast`] / [`try_cast`] downcast `Custom` payloads only (a typed
//! variant comes back unchanged from `try_cast`, and `cast` panics on it).
//!
//! # Scheduling
//!
//! The default event queue is a bucketed event wheel (calendar queue,
//! [`crate::wheel`]) with a binary-heap overflow for far-future timers;
//! [`QueueKind::Heap`] (or `FLEXTOE_SIM_REFERENCE=1`) selects the plain
//! `BinaryHeap` reference scheduler instead. Both run under the same step
//! loop — pop, borrow the node in place, [`Node::on_msg`] — and deliver
//! the exact same total order, `(time, enqueue seq)`, which the
//! integration suite proves by differential testing.

use std::any::Any;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::pool::{PktBufPool, SIM_POOL_BOUND};
use crate::relay::Relays;
use crate::rng::Rng;
use crate::stats::Stats;
use crate::time::{Duration, Time};
use crate::wheel::EventWheel;
use flextoe_wire::Frame;

/// Identifies a node within one simulation.
pub type NodeId = usize;

// ---- partition-independent event keys -----------------------------------

/// Bits of per-source sequence space below the band id (see the module
/// docs): 2^40 sends per source, 2^24 - 1 bands.
const SEQ_BAND_SHIFT: u32 = 40;
/// Per-band counter capacity.
pub(crate) const SEQ_BAND_SPAN: u64 = 1 << SEQ_BAND_SHIFT;
/// Highest admissible node id (band `id + 1` must fit above the shift).
const MAX_NODE_ID: usize = (1 << (64 - SEQ_BAND_SHIFT as usize)) - 2;

/// The seq band of runtime sends from node `id`.
#[inline]
pub(crate) fn node_band(id: NodeId) -> u64 {
    ((id as u64) + 1) << SEQ_BAND_SHIFT
}

/// A cross-shard event in flight: a frame crossing a cut link, carrying
/// the exact delivery key the monolithic engine would have used. Produced
/// by a send to a non-owned node (see [`Sim::set_owned`]), consumed by
/// [`Sim::import`] on the owning shard.
#[derive(Debug)]
pub struct Envelope {
    pub time: Time,
    pub seq: u64,
    pub to: NodeId,
    pub frame: Frame,
}

// ---- typed message vocabulary -------------------------------------------

/// A pooled pipeline work item: a slot in the owning NIC's work pool plus
/// the pipeline entry sequence number (`None` until the sequencer assigns
/// one). The engine never looks inside the pool — stages of one NIC share
/// it outside the message, exactly like the real system's NIC memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkToken {
    pub slot: u32,
    pub entry_seq: Option<u64>,
}

/// A frame submitted by the data-path to a MAC block for egress.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MacTx(pub Frame);

/// A finished frame travelling to the sequencer for NBI admission (§3.2
/// of the paper): restored to protocol-emission order per flow group.
#[derive(Clone, Debug)]
pub struct NbiFrame {
    pub group: u32,
    pub nbi_seq: u64,
    pub frame: Frame,
}

/// An asynchronous transfer request to an engine node (the PCIe DMA
/// block). On completion the engine sends [`Msg::XferDone`] carrying
/// `token` back to `reply_to`; the token is an index the requester
/// interprets against its own pending table (no allocation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct XferReq {
    pub bytes: u32,
    /// Direction: true = device writes host memory, false = reads it.
    pub write: bool,
    pub reply_to: NodeId,
    pub token: u64,
}

/// Completion of an [`XferReq`], delivered to its `reply_to`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct XferDone {
    pub token: u64,
}

/// Flow-scheduler feedback: the authoritative sendable-byte count for a
/// connection after the protocol stage ran.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FsUpdate {
    pub conn: u32,
    pub sendable: u32,
}

/// MMIO doorbell to the context-queue stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Doorbell {
    pub ctx: u16,
}

/// Return one HC descriptor credit to the context-queue stage pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FreeDesc;

/// A generic unit tick message for self-scheduled polling loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tick;

/// A sealed congestion-report batch travelling out-of-band from the
/// data-path measurement layer to the control plane. The payload is a
/// slot index into the NIC's shared report pool (`flextoe-ccp`): many
/// flow reports ride one message, and the buffers are pooled — no
/// allocation on the hot path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReportBatchToken {
    pub slot: u32,
    /// The batch carries an urgent event (fast retransmit).
    pub urgent: bool,
}

/// Notifications the NIC data-path delivers to libTOE (§3.1.3 "Notify").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NicToApp {
    /// `len` new bytes are readable in the socket RX buffer.
    RxAvail { conn: u32, len: u32, fin: bool },
    /// `len` bytes of the socket TX buffer were acknowledged and freed.
    TxFreed { conn: u32, len: u32 },
    /// The control plane gave up on the connection (RTO retry budget
    /// exhausted) and tore it down; the application must stop using it.
    Aborted { conn: u32 },
}

/// DMA stage → context-queue stage: deliver a notification descriptor to
/// an application context queue (after its payload DMA completed).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NotifyJob {
    pub ctx: u16,
    pub desc: NicToApp,
}

/// Stack → application node: entries are waiting in context queue `ctx`
/// (FlexTOE's MSI-X/eventfd wake-up, a baseline stack's epoll wake-up).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AppNotify {
    pub ctx: u16,
}

/// Control plane → flow scheduler (rate programming is MMIO, §3.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedCtl {
    Register {
        conn: u32,
        group: usize,
    },
    Unregister {
        conn: u32,
    },
    /// Pacing interval in ps/byte (0 = uncongested). The control plane
    /// precomputes this — the NFP cannot divide.
    SetRate {
        conn: u32,
        interval_ps_per_byte: u64,
    },
}

/// A simulation message. Everything sent per frame, per request or per
/// report is an inline enum payload (no heap allocation per event); cold
/// control is `Custom`.
#[derive(Debug)]
pub enum Msg {
    /// Generic tick for self-scheduled polling loops.
    Tick,
    /// A raw Ethernet frame on the wire / NBI ingress.
    Frame(Frame),
    /// A frame handed to a MAC block for egress.
    MacTx(MacTx),
    /// A pooled pipeline work item travelling between data-path stages.
    Work(WorkToken),
    /// A pipeline entry sequence number that left the pipeline early
    /// (dropped / redirected) — the sequencer's reorderer skips it.
    Skip(u64),
    /// A finished frame for NBI admission.
    Nbi(NbiFrame),
    /// Asynchronous transfer request (PCIe DMA).
    Xfer(XferReq),
    /// Transfer completion token, delivered to the requester.
    XferDone(XferDone),
    /// A small scalar token (self-wake markers, port ids, …).
    Token(u64),
    /// Flow-scheduler sendable update.
    FsUpdate(FsUpdate),
    /// Context-queue doorbell.
    Doorbell(Doorbell),
    /// Context-queue descriptor credit return.
    FreeDesc,
    /// A sealed congestion-report batch (pooled slot token).
    Report(ReportBatchToken),
    /// A notification descriptor on its way to a context queue.
    Notify(NotifyJob),
    /// Application wake-up: a context queue went non-empty.
    AppNotify(AppNotify),
    /// Flow-scheduler MMIO from the control plane.
    SchedCtl(SchedCtl),
    /// Cold control: connection set-up, fault injection, test messages.
    Custom(Box<dyn Any>),
}

impl Msg {
    /// Wrap an arbitrary value as a custom (type-erased) message.
    pub fn custom<T: Any>(value: T) -> Msg {
        Msg::Custom(Box::new(value))
    }

    pub fn variant_name(&self) -> &'static str {
        MSG_KIND_NAMES[self.kind_idx()]
    }

    /// Dense variant index (profiler bucketing; order of
    /// [`MSG_KIND_NAMES`]).
    #[inline]
    pub fn kind_idx(&self) -> usize {
        match self {
            Msg::Tick => 0,
            Msg::Frame(_) => 1,
            Msg::MacTx(_) => 2,
            Msg::Work(_) => 3,
            Msg::Skip(_) => 4,
            Msg::Nbi(_) => 5,
            Msg::Xfer(_) => 6,
            Msg::XferDone(_) => 7,
            Msg::Token(_) => 8,
            Msg::FsUpdate(_) => 9,
            Msg::Doorbell(_) => 10,
            Msg::FreeDesc => 11,
            Msg::Report(_) => 12,
            Msg::Notify(_) => 13,
            Msg::AppNotify(_) => 14,
            Msg::SchedCtl(_) => 15,
            Msg::Custom(_) => 16,
        }
    }
}

/// Number of [`Msg`] variants (profiler bucket count).
pub const N_MSG_KINDS: usize = 17;

/// Variant names, indexed by [`Msg::kind_idx`].
pub const MSG_KIND_NAMES: [&str; N_MSG_KINDS] = [
    "Tick",
    "Frame",
    "MacTx",
    "Work",
    "Skip",
    "Nbi",
    "Xfer",
    "XferDone",
    "Token",
    "FsUpdate",
    "Doorbell",
    "FreeDesc",
    "Report",
    "Notify",
    "AppNotify",
    "SchedCtl",
    "Custom",
];

/// Conversion of a concrete message value into [`Msg`]. Hot data-path
/// types map to inline variants; custom message types opt in with
/// [`crate::custom_msg!`], which wraps them in [`Msg::Custom`].
pub trait IntoMsg {
    fn into_msg(self) -> Msg;
}

impl IntoMsg for Msg {
    #[inline]
    fn into_msg(self) -> Msg {
        self
    }
}

macro_rules! inline_msg {
    ($($ty:ident => $variant:ident),* $(,)?) => {
        $(impl IntoMsg for $ty {
            #[inline]
            fn into_msg(self) -> Msg {
                Msg::$variant(self)
            }
        })*
    };
}

inline_msg!(
    Frame => Frame,
    MacTx => MacTx,
    WorkToken => Work,
    NbiFrame => Nbi,
    XferReq => Xfer,
    XferDone => XferDone,
    FsUpdate => FsUpdate,
    Doorbell => Doorbell,
    ReportBatchToken => Report,
    NotifyJob => Notify,
    AppNotify => AppNotify,
    SchedCtl => SchedCtl,
);

impl IntoMsg for Tick {
    #[inline]
    fn into_msg(self) -> Msg {
        Msg::Tick
    }
}

impl IntoMsg for FreeDesc {
    #[inline]
    fn into_msg(self) -> Msg {
        Msg::FreeDesc
    }
}

impl IntoMsg for u64 {
    #[inline]
    fn into_msg(self) -> Msg {
        Msg::Token(self)
    }
}

/// Register custom message types: generates [`IntoMsg`] impls that route
/// the value through [`Msg::Custom`]. Use in the crate that owns the type.
#[macro_export]
macro_rules! custom_msg {
    ($($ty:ty),* $(,)?) => {
        $(impl $crate::IntoMsg for $ty {
            #[inline]
            fn into_msg(self) -> $crate::Msg {
                $crate::Msg::Custom(Box::new(self))
            }
        })*
    };
}

// u32 is the conventional scalar payload in unit tests.
custom_msg!(u32);

/// Downcast a [`Msg::Custom`] payload, returning the message back on
/// mismatch. Typed variants always come back unchanged: receivers read
/// them by matching on [`Msg`].
pub fn try_cast<T: 'static>(msg: Msg) -> Result<Box<T>, Msg> {
    match msg {
        Msg::Custom(b) => b.downcast::<T>().map_err(Msg::Custom),
        msg => Err(msg),
    }
}

/// Downcast a [`Msg::Custom`] payload to a concrete type, panicking with
/// a useful message on mismatch or on a typed variant (a mismatch is
/// always a wiring bug, never a runtime input).
pub fn cast<T: 'static>(msg: Msg) -> Box<T> {
    try_cast::<T>(msg).unwrap_or_else(|m| mismatch(std::any::type_name::<T>(), &m))
}

/// The panic of [`cast`], for receivers that `match` on [`Msg`] and fall
/// through to a message they have no handler for.
pub fn mismatch(expected: &str, got: &Msg) -> ! {
    panic!(
        "message type mismatch: expected {expected}, got {} variant",
        got.variant_name()
    )
}

// ---- nodes and delivery context -----------------------------------------

/// A simulation actor.
///
/// `Any` is a supertrait so the harness can reach into concrete nodes
/// between runs (trait upcasting) for configuration and result collection.
pub trait Node: Any {
    /// Handle a message delivered at the current simulation time.
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg);

    /// Called once when the node joins a simulation
    /// ([`Sim::add_node`] / [`Sim::fill_node`]). Nodes resolve their
    /// [`crate::CounterHandle`]s here so per-event paths never pay a
    /// string-keyed counter lookup.
    fn on_attach(&mut self, _stats: &mut Stats) {}

    /// Diagnostic name (used in panics and traces).
    fn name(&self) -> String {
        std::any::type_name::<Self>().to_string()
    }
}

/// Per-delivery context handed to a node. Outgoing sends are pushed
/// straight into the event queue, keyed `(time, band | per-source seq)`:
/// same-time sends from one node deliver in call order, and the key never
/// depends on what other nodes are doing (partition independence).
///
/// `rng` is the *receiving node's* private random stream, seeded from
/// `(sim seed, node id)` — stable across runs, engines, and shardings.
pub struct Ctx<'a> {
    now: Time,
    self_id: NodeId,
    queue: &'a mut Queue,
    /// Per-source send counters (low bits of the seq key): `self_id`'s
    /// for every send, a relay's for the frames it forwards.
    send_seqs: &'a mut [u64],
    /// `node_band(self_id)`, precomputed.
    seq_base: u64,
    relays: &'a mut Relays,
    /// Shard ownership mask (`None` in monolithic runs).
    owned: Option<&'a [bool]>,
    /// Outbox for sends addressed to nodes another shard owns.
    exports: &'a mut Vec<Envelope>,
    pub rng: &'a mut Rng,
    pub stats: &'a mut Stats,
    /// The simulation-wide frame-buffer pool: emitters outside the NICs
    /// (host stacks, the control plane) draw buffers here; fabric
    /// elements (switches, links, MAC queues) return dropped frames; NIC
    /// stages take and return theirs on their own counters
    /// ([`PktBufPool::take_for`]).
    pub pool: &'a mut PktBufPool,
    halt: &'a mut bool,
}

impl<'a> Ctx<'a> {
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }
    #[inline]
    pub fn self_id(&self) -> NodeId {
        self.self_id
    }

    /// The one send path. Out of line: inlined into each of the send
    /// sites across the stage crates it measured 1.4% slower on
    /// `echo_pair` than one shared copy. The queue's push inlines into it
    /// down to the arena slot (all but the wheel's `insert_staged`), so
    /// the event is written once, in place.
    ///
    /// A send to a relay ([`Sim::set_relay`]) is queued for the relay's
    /// far end under the key the link node would have produced.
    #[inline(never)]
    fn push(&mut self, time: Time, to: NodeId, msg: Msg) {
        let count = &mut self.send_seqs[self.self_id];
        let seq = self.seq_base | *count;
        *count += 1;
        debug_assert!(*count < SEQ_BAND_SPAN, "per-source seq band overflow");
        let (time, seq, to) = if self.relays.contains(to) {
            self.relays.route(self.send_seqs, time, seq, to, &msg)
        } else {
            (time, seq, to)
        };
        if let Some(owned) = self.owned {
            if !owned[to] {
                // Cross-shard hop: only link traversals (frames with
                // nonzero propagation — the conservative lookahead) may
                // cross a cut; anything else is a partitioning bug.
                match msg {
                    Msg::Frame(frame) => self.exports.push(Envelope {
                        time,
                        seq,
                        to,
                        frame,
                    }),
                    m => panic!(
                        "cross-shard send to node {to} must be a Frame on a cut link, got {}",
                        m.variant_name()
                    ),
                }
                return;
            }
        }
        self.queue.push(Ev { time, seq, to, msg });
    }

    /// Send `msg` to node `to`, arriving `delay` from now.
    #[inline]
    pub fn send<M: IntoMsg>(&mut self, to: NodeId, delay: Duration, msg: M) {
        self.push(self.now + delay, to, msg.into_msg());
    }

    /// Send `msg` to node `to` at an absolute instant (>= now).
    #[inline]
    pub fn send_at<M: IntoMsg>(&mut self, to: NodeId, at: Time, msg: M) {
        debug_assert!(at >= self.now, "scheduling into the past");
        self.push(at.max(self.now), to, msg.into_msg());
    }

    /// Schedule a message to self.
    #[inline]
    pub fn wake<M: IntoMsg>(&mut self, delay: Duration, msg: M) {
        let id = self.self_id;
        self.send(id, delay, msg);
    }

    /// Stop the simulation after this handler returns (used by experiment
    /// terminators, e.g. "stop after N requests").
    pub fn halt(&mut self) {
        *self.halt = true;
    }
}

// ---- the event queue -----------------------------------------------------

pub(crate) struct Ev {
    pub(crate) time: Time,
    pub(crate) seq: u64,
    pub(crate) to: NodeId,
    pub(crate) msg: Msg,
}

// Copied once per event on each side of the queue. A send builds it in
// its arena slot: `Ctx::push`, the one out-of-line send path, inlines the
// queue's push down to the slot write. A pop copies it out to the handler
// (it `take`s the slot's `Option<Ev>`, so nothing is written back but the
// `None` tag). `Msg` is 48 bytes, set by
// `Nbi(NbiFrame)`: a 32-byte `Frame` (a `Vec` plus the `corrupted` bit)
// and 16 bytes of group / sequence number, the enum tag riding in the
// bit's niche — as does `Option<Ev>`'s, so an arena slot costs no more
// than its event. A fatter variant should be boxed or pooled instead of
// growing every event.
const _: () = assert!(std::mem::size_of::<Ev>() <= 72);
const _: () = assert!(std::mem::size_of::<Option<Ev>>() == std::mem::size_of::<Ev>());

impl PartialEq for Ev {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Ev {}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ev {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Which event-queue implementation a [`Sim`] runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueKind {
    /// Bucketed event wheel (calendar queue) — the default.
    Wheel,
    /// Plain `BinaryHeap` — the reference scheduler, kept for
    /// differential ordering tests and benchmarking.
    Heap,
}

enum Queue {
    Wheel(EventWheel),
    Heap(BinaryHeap<Ev>),
}

impl Queue {
    #[inline(always)]
    fn push(&mut self, ev: Ev) {
        match self {
            Queue::Wheel(w) => w.push(ev),
            Queue::Heap(h) => h.push(ev),
        }
    }

    /// Pop the earliest event if it is due no later than `deadline`
    /// (`Time::MAX`: unconditionally). One call per engine step — the
    /// wheel never stages or rotates past a deadline it declines at.
    #[inline]
    fn pop_due(&mut self, deadline: Time) -> Option<Ev> {
        match self {
            Queue::Wheel(w) => w.pop_due(deadline),
            Queue::Heap(h) => {
                if h.peek()?.time > deadline {
                    return None;
                }
                h.pop()
            }
        }
    }

    fn next_time(&self) -> Option<Time> {
        match self {
            Queue::Wheel(w) => w.next_time(),
            Queue::Heap(h) => h.peek().map(|e| e.time),
        }
    }

    fn len(&self) -> usize {
        match self {
            Queue::Wheel(w) => w.len(),
            Queue::Heap(h) => h.len(),
        }
    }
}

/// `node_mut` / `node_ref` asked for `N`, but slot `id` holds the node
/// registered as `name` (a harness wiring bug).
fn wrong_node_type<N>(id: NodeId, name: &str) -> ! {
    panic!("node {id} is {name}, not {}", std::any::type_name::<N>())
}

/// One delivery: `(ps, seq, to, frame bytes or variant name)`.
#[cfg(test)]
pub(crate) type Delivery = (u64, u64, NodeId, Vec<u8>);

/// The simulation: event queue + nodes + RNG streams and statistics.
pub struct Sim {
    time: Time,
    /// Band-0 counter: externally scheduled events (schedule-call order).
    ext_seq: u64,
    queue: Queue,
    nodes: Vec<Option<Box<dyn Node>>>,
    node_names: Vec<String>,
    /// The constructor seed; per-node streams derive from it.
    seed: u64,
    /// Per-source runtime send counters (seq key low bits).
    send_seqs: Vec<u64>,
    /// Per-node random streams, seeded from `(seed, node id)` — delivery
    /// handlers draw from their own stream only ([`Ctx::rng`]), so draws
    /// are independent of global event interleaving.
    node_rngs: Vec<Rng>,
    /// Shard ownership mask (`None` = monolithic: this sim owns every
    /// node). Sends to non-owned nodes become [`Envelope`] exports;
    /// external schedules to them are dropped (the owning shard makes the
    /// identical call).
    owned: Option<Vec<bool>>,
    exports: Vec<Envelope>,
    /// Fault-free links that forward at send time ([`Sim::set_relay`]).
    relays: Relays,
    /// Build-time random stream (ECMP salts, wiring-order draws).
    /// Delivery handlers use [`Ctx::rng`] — their per-node streams —
    /// instead.
    pub rng: Rng,
    pub stats: Stats,
    /// The simulation's one frame-buffer free list (see [`Ctx::pool`]).
    pub frame_pool: PktBufPool,
    events_processed: u64,
    halt: bool,
    /// Wall-clock self-profiling (`FLEXTOE_SIM_PROF=1`): per-node
    /// (ns, events) accumulated around each delivery. Off by default —
    /// the check is one predictable branch per event.
    prof_enabled: bool,
    pub prof: Vec<(u64, u64)>,
    /// Delivered-event counts per [`Msg`] kind (profiling only).
    prof_kinds: [u64; N_MSG_KINDS],
    /// Every delivery, when set (the relay differential test).
    #[cfg(test)]
    pub(crate) delivery_log: Option<Vec<Delivery>>,
}

impl Sim {
    /// New simulation on the default (event wheel) scheduler.
    pub fn new(seed: u64) -> Sim {
        Sim::with_queue(seed, QueueKind::Wheel)
    }

    pub fn with_queue(seed: u64, kind: QueueKind) -> Sim {
        let env_on = |name: &str| std::env::var_os(name).is_some_and(|v| v == "1");
        // FLEXTOE_SIM_REFERENCE=1 forces the reference `BinaryHeap`
        // scheduler regardless of what the caller selected — CI uses it
        // to diff whole experiments against the wheel.
        let reference = env_on("FLEXTOE_SIM_REFERENCE");
        let kind = if reference { QueueKind::Heap } else { kind };
        Sim {
            time: Time::ZERO,
            ext_seq: 0,
            queue: match kind {
                QueueKind::Wheel => Queue::Wheel(EventWheel::new()),
                QueueKind::Heap => Queue::Heap(BinaryHeap::new()),
            },
            nodes: Vec::new(),
            node_names: Vec::new(),
            seed,
            send_seqs: Vec::new(),
            node_rngs: Vec::new(),
            owned: None,
            exports: Vec::new(),
            relays: Relays::default(),
            rng: Rng::new(seed),
            stats: Stats::new(),
            frame_pool: PktBufPool::new(SIM_POOL_BOUND),
            events_processed: 0,
            halt: false,
            prof_enabled: env_on("FLEXTOE_SIM_PROF"),
            prof: Vec::new(),
            prof_kinds: [0; N_MSG_KINDS],
            #[cfg(test)]
            delivery_log: None,
        }
    }

    /// Enable/disable the event profiler programmatically (same switch
    /// as `FLEXTOE_SIM_PROF=1`; the profile vectors grow lazily, so
    /// this works any time before `run`). Simulated results are
    /// identical either way — profiling only observes wall time and
    /// event counts.
    pub fn set_prof(&mut self, on: bool) {
        self.prof_enabled = on;
    }

    /// Per-node-name wall-time totals (requires `FLEXTOE_SIM_PROF=1`),
    /// sorted by time descending: `(name, ns, events)`.
    pub fn prof_dump(&self) -> Vec<(String, u64, u64)> {
        let mut agg: std::collections::HashMap<String, (u64, u64)> = Default::default();
        for (i, &(ns, n)) in self.prof.iter().enumerate() {
            if n > 0 {
                let e = agg.entry(self.node_names[i].clone()).or_default();
                e.0 += ns;
                e.1 += n;
            }
        }
        let mut v: Vec<(String, u64, u64)> = agg.into_iter().map(|(k, (a, b))| (k, a, b)).collect();
        v.sort_by_key(|x| std::cmp::Reverse(x.1));
        v
    }

    /// Delivered-event counts per message kind (requires
    /// `FLEXTOE_SIM_PROF=1`), non-zero kinds sorted descending:
    /// `(kind name, events)`.
    pub fn prof_kind_dump(&self) -> Vec<(&'static str, u64)> {
        let mut v: Vec<(&'static str, u64)> = MSG_KIND_NAMES
            .iter()
            .zip(self.prof_kinds.iter())
            .filter(|(_, &n)| n > 0)
            .map(|(&name, &n)| (name, n))
            .collect();
        v.sort_by_key(|x| std::cmp::Reverse(x.1));
        v
    }

    /// Shim for `benchmark/`, which still reads a delivery-length
    /// histogram and was out of bounds for the PR that removed delivery
    /// coalescing: every delivery is one event, so this is
    /// `[(1, profiled deliveries)]`. Goes with the benchmark's
    /// `sim.burst_singleton_frac`.
    pub fn prof_burst_hist(&self) -> Vec<(usize, u64)> {
        vec![(1, self.prof.iter().map(|&(_, n)| n).sum())]
    }

    pub fn now(&self) -> Time {
        self.time
    }

    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Events currently queued (diagnostics).
    pub fn events_pending(&self) -> usize {
        self.queue.len()
    }

    /// Register per-node engine state for a new slot: the private random
    /// stream (a pure function of `(seed, id)`) and the send counter.
    fn register_slot(&mut self) -> NodeId {
        let id = self.nodes.len();
        assert!(id <= MAX_NODE_ID, "node id {id} exceeds the seq band space");
        assert!(
            self.owned.is_none(),
            "add every node before set_owned (ownership mask is fixed-size)"
        );
        self.send_seqs.push(0);
        self.relays.add_slot();
        self.node_rngs.push(Rng::new(
            self.seed ^ (id as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ));
        id
    }

    /// Add a node; returns its id.
    pub fn add_node<N: Node>(&mut self, mut node: N) -> NodeId {
        let id = self.register_slot();
        node.on_attach(&mut self.stats);
        self.node_names.push(node.name());
        self.nodes.push(Some(Box::new(node)));
        id
    }

    /// Reserve a node slot to be filled later (for cyclic wiring).
    pub fn reserve_node(&mut self) -> NodeId {
        let id = self.register_slot();
        self.node_names.push("<reserved>".to_string());
        self.nodes.push(None);
        id
    }

    /// Fill a reserved slot.
    pub fn fill_node<N: Node>(&mut self, id: NodeId, mut node: N) {
        assert!(self.nodes[id].is_none(), "slot {id} already filled");
        node.on_attach(&mut self.stats);
        self.node_names[id] = node.name();
        self.nodes[id] = Some(Box::new(node));
    }

    /// Mutable access to a concrete node (configuration, result harvest).
    pub fn node_mut<N: Node>(&mut self, id: NodeId) -> &mut N {
        let node = self.nodes[id]
            .as_mut()
            .unwrap_or_else(|| panic!("node {id} is vacant"));
        let any: &mut dyn Any = node.as_mut();
        any.downcast_mut::<N>()
            .unwrap_or_else(|| wrong_node_type::<N>(id, &self.node_names[id]))
    }

    /// Shared access to a concrete node.
    pub fn node_ref<N: Node>(&self, id: NodeId) -> &N {
        let node = self.nodes[id]
            .as_ref()
            .unwrap_or_else(|| panic!("node {id} is vacant"));
        let any: &dyn Any = node.as_ref();
        any.downcast_ref::<N>()
            .unwrap_or_else(|| wrong_node_type::<N>(id, &self.node_names[id]))
    }

    /// Schedule a message from outside any handler (experiment kick-off).
    pub fn schedule<M: IntoMsg>(&mut self, at: Time, to: NodeId, msg: M) {
        self.push(at.max(self.time), to, msg.into_msg());
    }

    pub fn schedule_in<M: IntoMsg>(&mut self, delay: Duration, to: NodeId, msg: M) {
        self.push(self.time + delay, to, msg.into_msg());
    }

    #[inline]
    fn push(&mut self, time: Time, to: NodeId, msg: Msg) {
        // Band 0: externally scheduled ties deliver in schedule-call
        // order. Under sharding every shard makes the identical schedule
        // calls, so the counter stays aligned; calls addressed to nodes
        // another shard owns are dropped here (the owner enqueues them).
        let seq = self.ext_seq;
        self.ext_seq += 1;
        debug_assert!(seq < SEQ_BAND_SPAN, "external event band overflow");
        if let Some(owned) = &self.owned {
            if !owned[to] {
                return;
            }
        }
        let (time, seq, to) = if self.relays.contains(to) {
            let routed = self.relays.route(&mut self.send_seqs, time, seq, to, &msg);
            assert!(
                self.owns(routed.2),
                "scheduled frame relayed across a shard cut to node {}",
                routed.2
            );
            routed
        } else {
            (time, seq, to)
        };
        self.queue.push(Ev { time, seq, to, msg });
    }

    /// Make node `link` a relay: a `Frame` sent to it is queued straight
    /// for `far`, `delay` after it arrives at `link`, under the key
    /// `(arrival + delay, band(link) | link's own counter)` that the node
    /// would have produced by forwarding it. The node keeps its slot; the
    /// first other message sent to it demotes the relay back to it for
    /// the rest of the run. Exactness conditions and their checks:
    /// [`crate::relay`]. Register before anything is sent to `link`.
    pub fn set_relay(&mut self, link: NodeId, far: NodeId, delay: Duration) {
        self.relays.register(link, far, delay);
    }

    // ---- shard ownership (see `flextoe-shard`) ---------------------------

    /// Restrict this sim to the nodes marked `true`: runtime frames sent
    /// to other nodes become [`Envelope`] exports ([`Sim::take_exports`]),
    /// external schedules to them are dropped (counting the band-0 seq
    /// either way). Call once, after the full — and partition-independent
    /// — build. Monolithic runs never call this.
    pub fn set_owned(&mut self, owned: Vec<bool>) {
        assert_eq!(
            owned.len(),
            self.nodes.len(),
            "ownership mask must cover every node"
        );
        assert_eq!(self.time, Time::ZERO, "set_owned must precede the run");
        // Build-time schedules (app kickoffs, fault events) are already
        // queued: purge the ones addressed to ghost nodes, keys intact,
        // on a fresh queue (draining may have rotated the wheel window).
        let mut kept = Vec::with_capacity(self.queue.len());
        while let Some(ev) = self.queue.pop_due(Time::MAX) {
            if owned[ev.to] {
                kept.push(ev);
            }
        }
        self.queue = match self.queue {
            Queue::Wheel(_) => Queue::Wheel(EventWheel::new()),
            Queue::Heap(_) => Queue::Heap(BinaryHeap::new()),
        };
        for ev in kept {
            self.queue.push(ev);
        }
        self.owned = Some(owned);
    }

    /// Does this sim own (execute) node `id`? Always true in monolithic
    /// runs, so harvest code can filter by ownership unconditionally.
    #[inline]
    pub fn owns(&self, id: NodeId) -> bool {
        self.owned.as_ref().is_none_or(|o| o[id])
    }

    /// Admit a cross-shard envelope under its original delivery key. The
    /// conservative synchronizer guarantees `env.time` is not in this
    /// shard's past.
    pub fn import(&mut self, env: Envelope) {
        debug_assert!(env.time >= self.time, "cross-shard import in the past");
        self.queue.push(Ev {
            time: env.time,
            seq: env.seq,
            to: env.to,
            msg: Msg::Frame(env.frame),
        });
    }

    /// Drain the envelopes exported since the last call.
    pub fn take_exports(&mut self) -> Vec<Envelope> {
        std::mem::take(&mut self.exports)
    }

    /// Number of node slots (partitioners size ownership maps from this).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Deliver the next event. Returns `false` when the queue is empty or
    /// the simulation was halted.
    pub fn step(&mut self) -> bool {
        self.step_limit(Time::MAX)
    }

    /// [`Sim::step`] under a deadline: also returns `false` when the
    /// earliest queued event is due after `limit`.
    fn step_limit(&mut self, limit: Time) -> bool {
        if self.halt {
            return false;
        }
        let Some(ev) = self.queue.pop_due(limit) else {
            return false;
        };
        debug_assert!(ev.time >= self.time, "event queue time reversal");
        self.time = ev.time;

        let to = ev.to;
        // Borrowed in place: the context below borrows only the other
        // fields of `self`, never `nodes`.
        let Some(node) = self.nodes[to].as_mut() else {
            panic!(
                "message delivered to vacant node {} ({})",
                to, self.node_names[to]
            )
        };
        #[cfg(test)]
        if let Some(log) = self.delivery_log.as_mut() {
            let payload = match &ev.msg {
                Msg::Frame(f) => f.bytes.clone(),
                m => m.variant_name().as_bytes().to_vec(),
            };
            log.push((ev.time.ps(), ev.seq, to, payload));
        }
        let t0 = self.prof_enabled.then(std::time::Instant::now);
        if self.prof_enabled {
            self.prof_kinds[ev.msg.kind_idx()] += 1;
        }
        let mut ctx = Ctx {
            now: self.time,
            self_id: to,
            queue: &mut self.queue,
            send_seqs: &mut self.send_seqs,
            seq_base: node_band(to),
            relays: &mut self.relays,
            owned: self.owned.as_deref(),
            exports: &mut self.exports,
            rng: &mut self.node_rngs[to],
            stats: &mut self.stats,
            pool: &mut self.frame_pool,
            halt: &mut self.halt,
        };
        node.on_msg(&mut ctx, ev.msg);
        self.events_processed += 1;
        if let Some(t0) = t0 {
            if self.prof.len() <= to {
                self.prof.resize(to + 1, (0, 0));
            }
            let p = &mut self.prof[to];
            p.0 += t0.elapsed().as_nanos() as u64;
            p.1 += 1;
        }
        true
    }

    /// Run until the queue drains, the halt flag is set, or `deadline` is
    /// reached. Events at exactly `deadline` are delivered — including
    /// ones a handler schedules for that instant while it is being drained.
    pub fn run_until(&mut self, deadline: Time) {
        while self.step_limit(deadline) {}
        if !self.halt {
            // nothing due at or before `deadline` is left queued
            self.time = self.time.max(deadline);
        }
    }

    /// Run until nothing is left or halted. Panics after `limit` events to
    /// catch runaway zero-delay loops.
    pub fn run_with_limit(&mut self, limit: u64) {
        let start = self.events_processed;
        while self.step() {
            if self.events_processed - start > limit {
                panic!("event limit {limit} exceeded — zero-delay loop?");
            }
        }
    }

    pub fn run(&mut self) {
        while self.step() {}
    }

    pub fn next_event_time(&self) -> Option<Time> {
        self.queue.next_time()
    }

    pub fn halted(&self) -> bool {
        self.halt
    }

    pub fn clear_halt(&mut self) {
        self.halt = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn both_kinds(f: impl Fn(QueueKind)) {
        f(QueueKind::Wheel);
        f(QueueKind::Heap);
    }

    struct Echo {
        peer: Option<NodeId>,
        hops_left: u32,
        log: Vec<(u64, u32)>, // (ns, hops_left at receipt)
    }

    struct Ball(u32);
    crate::custom_msg!(Ball);

    impl Node for Echo {
        fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            let ball = cast::<Ball>(msg);
            self.log.push((ctx.now().as_ns(), ball.0));
            self.hops_left = ball.0;
            if ball.0 > 0 {
                if let Some(peer) = self.peer {
                    ctx.send(peer, Duration::from_ns(10), Ball(ball.0 - 1));
                }
            }
        }
    }

    #[test]
    fn ping_pong_timing() {
        both_kinds(|kind| {
            let mut sim = Sim::with_queue(1, kind);
            let a = sim.reserve_node();
            let b = sim.add_node(Echo {
                peer: Some(a),
                hops_left: 0,
                log: vec![],
            });
            sim.fill_node(
                a,
                Echo {
                    peer: Some(b),
                    hops_left: 0,
                    log: vec![],
                },
            );
            sim.schedule(Time::ZERO, a, Ball(4));
            sim.run();
            let ea = sim.node_ref::<Echo>(a);
            let eb = sim.node_ref::<Echo>(b);
            assert_eq!(ea.log, vec![(0, 4), (20, 2), (40, 0)]);
            assert_eq!(eb.log, vec![(10, 3), (30, 1)]);
            assert_eq!(sim.now().as_ns(), 40);
            assert_eq!(sim.events_processed(), 5);
        });
    }

    struct Recorder {
        seen: Vec<u32>,
    }
    impl Node for Recorder {
        fn on_msg(&mut self, _ctx: &mut Ctx<'_>, msg: Msg) {
            self.seen.push(*cast::<u32>(msg));
        }
    }

    #[test]
    fn fifo_tiebreak_at_same_time() {
        both_kinds(|kind| {
            let mut sim = Sim::with_queue(1, kind);
            let r = sim.add_node(Recorder { seen: vec![] });
            for i in 0..10u32 {
                sim.schedule(Time::from_ns(5), r, i);
            }
            sim.run();
            assert_eq!(
                sim.node_ref::<Recorder>(r).seen,
                (0..10).collect::<Vec<_>>()
            );
        });
    }

    #[test]
    fn run_until_stops_at_deadline() {
        both_kinds(|kind| {
            let mut sim = Sim::with_queue(1, kind);
            let r = sim.add_node(Recorder { seen: vec![] });
            sim.schedule(Time::from_ns(10), r, 1u32);
            sim.schedule(Time::from_ns(20), r, 2u32);
            sim.schedule(Time::from_ns(30), r, 3u32);
            sim.run_until(Time::from_ns(20));
            assert_eq!(sim.node_ref::<Recorder>(r).seen, vec![1, 2]);
            sim.run();
            assert_eq!(sim.node_ref::<Recorder>(r).seen, vec![1, 2, 3]);
        });
    }

    /// A deadline that declines the only queued event must leave the
    /// wheel where the clock stops: the next schedule lands *before* the
    /// declined event. Rotating the window to a far-future (overflow-heap)
    /// event would put `base` past it; staging a later in-window bucket
    /// would put the cursor past it; a bucket that *starts* by the deadline
    /// may be staged, and the new event is then inserted ahead of its run.
    #[test]
    fn run_until_short_of_the_next_event_keeps_earlier_times_schedulable() {
        let cases = [
            // (deadline, declined event): ms-scale is beyond the ~67 us window
            (Time::from_us(5), Time::from_ms(3)),
            (Time::from_us(5), Time::from_us(50)),
            (Time(4500), Time(5000)),
        ];
        for (d, far) in cases {
            both_kinds(|kind| {
                let mut sim = Sim::with_queue(1, kind);
                let r = sim.add_node(Recorder { seen: vec![] });
                sim.schedule(far, r, 2u32);
                sim.run_until(d);
                assert_eq!(sim.now(), d);
                assert_eq!(sim.next_event_time(), Some(far));
                sim.schedule(d + Duration::from_ps(100), r, 1u32);
                assert_eq!(sim.next_event_time(), Some(d + Duration::from_ps(100)));
                sim.run();
                assert_eq!(sim.node_ref::<Recorder>(r).seen, vec![1, 2]);
                assert_eq!(sim.now(), far);
            });
        }
    }

    struct Halter;
    impl Node for Halter {
        fn on_msg(&mut self, ctx: &mut Ctx<'_>, _msg: Msg) {
            ctx.halt();
        }
    }

    #[test]
    fn halt_stops_immediately() {
        let mut sim = Sim::new(1);
        let h = sim.add_node(Halter);
        let r = sim.add_node(Recorder { seen: vec![] });
        sim.schedule(Time::from_ns(1), h, Tick);
        sim.schedule(Time::from_ns(2), r, 9u32);
        sim.run();
        assert!(sim.halted());
        assert!(sim.node_ref::<Recorder>(r).seen.is_empty());
    }

    struct SelfWaker {
        fired: u32,
    }
    impl Node for SelfWaker {
        fn on_msg(&mut self, ctx: &mut Ctx<'_>, _msg: Msg) {
            self.fired += 1;
            if self.fired < 5 {
                ctx.wake(Duration::from_us(1), Tick);
            }
        }
    }

    #[test]
    fn self_wake_polling_loop() {
        let mut sim = Sim::new(1);
        let w = sim.add_node(SelfWaker { fired: 0 });
        sim.schedule(Time::ZERO, w, Tick);
        sim.run();
        assert_eq!(sim.node_ref::<SelfWaker>(w).fired, 5);
        assert_eq!(sim.now().as_us(), 4);
    }

    #[test]
    fn determinism_across_runs_and_queues() {
        let run = |seed, kind| {
            let mut sim = Sim::with_queue(seed, kind);
            let r = sim.add_node(Recorder { seen: vec![] });
            for _ in 0..100 {
                let d = Duration::from_ns(sim.rng.below(1000));
                let v = sim.rng.next_u32();
                sim.schedule_in(d, r, v);
            }
            sim.run();
            sim.node_ref::<Recorder>(r).seen.clone()
        };
        assert_eq!(run(99, QueueKind::Wheel), run(99, QueueKind::Wheel));
        assert_ne!(run(99, QueueKind::Wheel), run(100, QueueKind::Wheel));
        // the wheel and the reference heap deliver identical orders
        assert_eq!(run(99, QueueKind::Wheel), run(99, QueueKind::Heap));
        assert_eq!(run(1234, QueueKind::Wheel), run(1234, QueueKind::Heap));
    }

    /// One event per step on either queue, so a zero-delay self-send loop
    /// — which never leaves the wheel's staged bucket — still runs into
    /// `run_with_limit`'s guard.
    #[test]
    fn zero_delay_loop_detected() {
        struct Looper;
        impl Node for Looper {
            fn on_msg(&mut self, ctx: &mut Ctx<'_>, _msg: Msg) {
                ctx.wake(Duration::ZERO, Tick);
            }
        }
        both_kinds(|kind| {
            let mut sim = Sim::with_queue(1, kind);
            let l = sim.add_node(Looper);
            sim.schedule(Time::ZERO, l, Tick);
            let run = std::panic::AssertUnwindSafe(|| sim.run_with_limit(1000));
            let err = std::panic::catch_unwind(run).expect_err("the guard must trip");
            let text = err.downcast_ref::<String>().expect("formatted panic");
            assert!(text.contains("event limit 1000 exceeded"), "{text}");
        });
    }

    /// A type mismatch names what the slot holds (its registered name)
    /// and what the caller asked for.
    struct Named;
    impl Node for Named {
        fn on_msg(&mut self, _ctx: &mut Ctx<'_>, _msg: Msg) {}
        fn name(&self) -> String {
            "named-node".to_string()
        }
    }

    #[test]
    #[should_panic(expected = "node 0 is named-node, not flextoe_sim::engine::tests::Halter")]
    fn node_mut_type_mismatch_names_both_types() {
        let mut sim = Sim::new(1);
        let id = sim.add_node(Named);
        sim.node_mut::<Halter>(id);
    }

    #[test]
    #[should_panic(expected = "node 0 is named-node, not flextoe_sim::engine::tests::Halter")]
    fn node_ref_type_mismatch_names_both_types() {
        let mut sim = Sim::new(1);
        let id = sim.add_node(Named);
        sim.node_ref::<Halter>(id);
    }

    /// An event reaching a slot that was reserved but never filled is a
    /// wiring bug the dispatch names.
    #[test]
    #[should_panic(expected = "message delivered to vacant node 1 (<reserved>)")]
    fn delivery_to_reserved_slot_panics() {
        let mut sim = Sim::new(1);
        sim.add_node(Named);
        let hole = sim.reserve_node();
        sim.schedule(Time::from_ns(1), hole, Tick);
        sim.run();
    }

    #[test]
    fn try_cast_returns_msg_on_mismatch() {
        let m: Msg = Msg::custom(42u32);
        let m = try_cast::<String>(m).unwrap_err();
        assert_eq!(*cast::<u32>(m), 42);
        // a typed variant is never downcast, even to its payload type
        let m = try_cast::<Frame>(Frame::raw(vec![1, 2, 3]).into_msg()).unwrap_err();
        assert!(matches!(m, Msg::Frame(f) if f.bytes == [1, 2, 3]));
    }

    #[test]
    fn per_request_variants_round_trip_inline() {
        let job = NotifyJob {
            ctx: 3,
            desc: NicToApp::RxAvail {
                conn: 9,
                len: 64,
                fin: false,
            },
        };
        let wake = AppNotify { ctx: 3 };
        let rate = SchedCtl::SetRate {
            conn: 9,
            interval_ps_per_byte: 800,
        };
        for (msg, name) in [
            (job.into_msg(), "Notify"),
            (wake.into_msg(), "AppNotify"),
            (rate.into_msg(), "SchedCtl"),
        ] {
            assert!(!matches!(msg, Msg::Custom(_)), "{name} must not box");
            assert_eq!(MSG_KIND_NAMES[msg.kind_idx()], name);
            assert_eq!(msg.variant_name(), name);
        }
        assert!(matches!(job.into_msg(), Msg::Notify(j) if j == job));
        assert!(matches!(wake.into_msg(), Msg::AppNotify(w) if w == wake));
        assert!(matches!(rate.into_msg(), Msg::SchedCtl(r) if r == rate));
        // every kind has a distinct name, `Custom` last
        assert_eq!(Msg::custom(1u8).kind_idx(), N_MSG_KINDS - 1);
        let mut names = MSG_KIND_NAMES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), N_MSG_KINDS);
    }

    #[test]
    #[should_panic(expected = "message type mismatch")]
    fn cast_mismatch_panics_with_variant() {
        let _ = cast::<Frame>(Tick.into_msg());
    }

    /// A handler that fires at exactly the `run_until` deadline and
    /// schedules zero-delay work (which the wheel inserts into its staged
    /// bucket) still gets that work delivered inside the same `run_until`
    /// call — events at exactly `deadline` are in scope no matter which
    /// path they took into the queue.
    #[test]
    fn run_until_delivers_zero_delay_sends_at_the_deadline() {
        struct Chain {
            peer: NodeId,
            left: u32,
        }
        impl Node for Chain {
            fn on_msg(&mut self, ctx: &mut Ctx<'_>, _msg: Msg) {
                if self.left > 0 {
                    self.left -= 1;
                    ctx.send(self.peer, Duration::ZERO, Tick);
                }
            }
        }
        both_kinds(|kind| {
            let mut sim = Sim::with_queue(1, kind);
            let r = sim.reserve_node();
            let a = sim.add_node(Chain { peer: r, left: 3 });
            sim.fill_node(r, Chain { peer: a, left: 3 });
            let deadline = Time::from_ns(50);
            sim.schedule(deadline, a, Tick);
            // a later event that must stay queued
            sim.schedule(Time::from_ns(60), a, Tick);
            sim.run_until(deadline);
            // kickoff + 6 zero-delay hops, all at exactly t=deadline
            assert_eq!(sim.events_processed(), 7);
            assert_eq!(sim.now(), deadline);
            assert_eq!(sim.events_pending(), 1);
        });
    }

    /// `ctx.halt()` in the middle of a same-timestamp train stops the run
    /// there and leaves the rest of the train queued.
    #[test]
    fn halt_mid_train_leaves_the_rest_queued() {
        struct HaltOnSecond {
            seen: u32,
        }
        impl Node for HaltOnSecond {
            fn on_msg(&mut self, ctx: &mut Ctx<'_>, _msg: Msg) {
                self.seen += 1;
                if self.seen == 2 {
                    ctx.halt();
                }
            }
        }
        both_kinds(|kind| {
            let mut sim = Sim::with_queue(1, kind);
            let h = sim.add_node(HaltOnSecond { seen: 0 });
            for _ in 0..5 {
                sim.schedule(Time::from_ns(1), h, Tick);
            }
            sim.run();
            assert!(sim.halted());
            assert_eq!(sim.node_ref::<HaltOnSecond>(h).seen, 2);
            assert_eq!(sim.events_processed(), 2);
            assert_eq!(sim.events_pending(), 3);
            // the run resumes where it stopped
            sim.clear_halt();
            sim.run();
            assert_eq!(sim.node_ref::<HaltOnSecond>(h).seen, 5);
            assert_eq!(sim.events_pending(), 0);
        });
    }

    /// Ownership masks turn cross-boundary frames into exports with the
    /// key a monolithic run would have used, and `import` delivers them
    /// under that key. External schedules to ghost nodes burn their
    /// band-0 seq but deliver nothing.
    #[test]
    fn ownership_exports_and_imports_round_trip() {
        struct Fwd {
            peer: NodeId,
        }
        impl Node for Fwd {
            fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
                let Msg::Frame(f) = msg else {
                    panic!("expected a frame")
                };
                ctx.send(self.peer, Duration::from_ns(500), f);
            }
        }
        struct Sink {
            got: Vec<(u64, Vec<u8>)>,
        }
        impl Node for Sink {
            fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
                let Msg::Frame(f) = msg else {
                    panic!("expected a frame")
                };
                self.got.push((ctx.now().as_ns(), f.bytes.clone()));
            }
        }

        // shard 0 owns the forwarder, shard 1 owns the sink; both build
        // the identical two-node sim
        let build = || {
            let mut sim = Sim::new(5);
            let sink = sim.reserve_node();
            let fwd = sim.add_node(Fwd { peer: sink });
            sim.fill_node(sink, Sink { got: vec![] });
            sim.schedule(Time::from_ns(10), fwd, Frame::raw(vec![7, 7]));
            // ghost-dropped on shard 0, delivered on shard 1
            sim.schedule(Time::from_ns(5), sink, Frame::raw(vec![1]));
            (sim, sink, fwd)
        };
        let (mut s0, sink, fwd) = build();
        s0.set_owned({
            let mut m = vec![false; s0.n_nodes()];
            m[fwd] = true;
            m
        });
        let (mut s1, _, _) = build();
        s1.set_owned({
            let mut m = vec![false; s1.n_nodes()];
            m[sink] = true;
            m
        });

        s0.run_until(Time::from_us(1));
        let exports = s0.take_exports();
        assert_eq!(exports.len(), 1);
        assert_eq!(exports[0].to, sink);
        assert_eq!(exports[0].time, Time::from_ns(510));
        s1.run_until(Time::from_ns(400));
        for env in exports {
            s1.import(env);
        }
        s1.run_until(Time::from_us(1));
        assert_eq!(
            s1.node_ref::<Sink>(sink).got,
            vec![(5, vec![1]), (510, vec![7, 7])]
        );
        // each event ran on exactly one shard
        assert_eq!(s0.events_processed() + s1.events_processed(), 3);
    }

    /// Per-node RNG streams depend only on `(seed, node id)` — a node
    /// draws the same values no matter what other nodes do around it.
    #[test]
    fn node_rng_streams_are_interleaving_independent() {
        struct Drawer {
            vals: Vec<u64>,
        }
        impl Node for Drawer {
            fn on_msg(&mut self, ctx: &mut Ctx<'_>, _msg: Msg) {
                self.vals.push(ctx.rng.next_u64());
            }
        }
        let run = |noise: bool| {
            let mut sim = Sim::new(42);
            let a = sim.add_node(Drawer { vals: vec![] });
            let b = sim.add_node(Drawer { vals: vec![] });
            for i in 0..5u64 {
                sim.schedule(Time::from_ns(10 * i), a, Tick);
                if noise {
                    sim.schedule(Time::from_ns(10 * i), b, Tick);
                    sim.schedule(Time::from_ns(10 * i + 5), b, Tick);
                }
            }
            sim.run();
            sim.node_ref::<Drawer>(a).vals.clone()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn far_future_timers_through_overflow() {
        // exercise the wheel's overflow heap: ms-scale timers (RTO) far
        // beyond the wheel horizon, interleaved with near events
        let mut sim = Sim::new(1);
        let r = sim.add_node(Recorder { seen: vec![] });
        sim.schedule(Time::from_ms(250), r, 4u32);
        sim.schedule(Time::from_ns(5), r, 1u32);
        sim.schedule(Time::from_ms(2), r, 3u32);
        sim.schedule(Time::from_us(80), r, 2u32);
        sim.run();
        assert_eq!(sim.node_ref::<Recorder>(r).seen, vec![1, 2, 3, 4]);
        assert_eq!(sim.now().as_us(), 250_000);
    }
}
