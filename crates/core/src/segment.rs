//! Work items flowing through the data-path pipeline, the slab pool that
//! recycles them, and the connection table shared by the stages.
//!
//! Work items never travel inside messages: they live in the NIC-shared
//! [`WorkPool`] and stages pass [`flextoe_sim::WorkToken`]s (slot indices)
//! through the event queue — the zero-allocation fast path. Per-packet
//! byte buffers are recycled through the simulation's
//! [`flextoe_nfp::PktBufPool`], counted per NIC in a [`SharedSegPool`].

use std::cell::RefCell;
use std::rc::Rc;

use flextoe_sim::{PoolCounters, Time};
use flextoe_wire::{FourTuple, Frame, Ip4, MacAddr, SegmentView};

use crate::hostmem::{AppToNic, SharedBuf, SharedCtxQueue};
use crate::proto::{RxOutcome, RxSummary, TxSeg};
use crate::state::{PostState, PreState, ProtoState};

/// NIC-level identity (shared by all connections of this NIC).
#[derive(Clone, Copy, Debug)]
pub struct NicConfig {
    pub mac: MacAddr,
    pub ip: Ip4,
}

/// Everything the data-path knows about one established connection.
/// The control plane installs an entry at connection setup (§D) and the
/// stage nodes access their own partitions of it.
pub struct ConnEntry {
    pub pre: PreState,
    pub proto: ProtoState,
    pub post: PostState,
    /// 4-tuple as it appears on *incoming* segments (src = peer).
    pub tuple_rx: FourTuple,
    pub tx_buf: SharedBuf,
    pub rx_buf: SharedBuf,
    pub ctxq: SharedCtxQueue,
    pub active: bool,
}

/// The connection table in NIC memory. Index = connection id, allocated by
/// the control plane "in such a way that we minimize collisions on the
/// direct-mapped CLS cache" (§4.1) — i.e. densely.
pub struct ConnTable {
    pub nic: NicConfig,
    conns: Vec<Option<ConnEntry>>,
    /// Installed entries: the control plane reads the count on every
    /// redirected handshake segment, so it is kept, not counted.
    live: usize,
}

impl ConnTable {
    pub fn new(nic: NicConfig) -> ConnTable {
        ConnTable {
            nic,
            conns: Vec::new(),
            live: 0,
        }
    }

    pub fn install(&mut self, entry: ConnEntry) -> u32 {
        self.live += 1;
        // reuse the lowest free index to keep ids dense (a table with no
        // holes has none to search for)
        if self.live <= self.conns.len() {
            if let Some(i) = self.conns.iter().position(Option::is_none) {
                self.conns[i] = Some(entry);
                return i as u32;
            }
        }
        self.conns.push(Some(entry));
        (self.conns.len() - 1) as u32
    }

    pub fn remove(&mut self, conn: u32) -> Option<ConnEntry> {
        let entry = self.conns.get_mut(conn as usize)?.take();
        self.live -= entry.is_some() as usize;
        entry
    }

    pub fn get(&self, conn: u32) -> Option<&ConnEntry> {
        self.conns.get(conn as usize)?.as_ref()
    }

    pub fn get_mut(&mut self, conn: u32) -> Option<&mut ConnEntry> {
        self.conns.get_mut(conn as usize)?.as_mut()
    }

    pub fn len(&self) -> usize {
        self.live
    }
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    pub fn iter(&self) -> impl Iterator<Item = (u32, &ConnEntry)> {
        self.conns
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.as_ref().map(|e| (i as u32, e)))
    }
}

pub type SharedConnTable = Rc<RefCell<ConnTable>>;

pub fn shared_conn_table(nic: NicConfig) -> SharedConnTable {
    Rc::new(RefCell::new(ConnTable::new(nic)))
}

/// A receive-workflow item (Figure 6).
pub struct RxWork {
    pub frame: Vec<u8>,
    /// The frame arrived with [`Frame::corrupted`] set: the Val step
    /// verifies its checksums.
    pub corrupted: bool,
    /// Filled by pre-processing (Val/Id/Sum).
    pub view: Option<SegmentView>,
    pub summary: RxSummary,
    pub conn: u32,
    pub group: usize,
    /// Filled by the protocol stage (Win).
    pub outcome: Option<RxOutcome>,
    /// Filled by post-processing (Ack/ECN/Stamp): a pooled frame.
    pub ack_frame: Option<Frame>,
    /// Assigned by the protocol stage when an ACK will be emitted.
    pub nbi_seq: Option<u64>,
    /// Filled by post-processing: context queue + notifications released
    /// after payload DMA completes (§3.1.3 ordering constraint).
    pub notify_ctx: u16,
    pub notify_rx: Option<crate::hostmem::NicToApp>,
    pub notify_tx: Option<crate::hostmem::NicToApp>,
    pub arrival: Time,
}

/// A transmit-workflow item (Figure 5).
pub struct TxWork {
    pub conn: u32,
    pub group: usize,
    /// Filled by the protocol stage (Seq): sequence range + buffer pos.
    pub seg: Option<TxSeg>,
    /// Prepared by pre-processing (Alloc/Head): Ethernet/IP identity of
    /// the segment. The DMA stage emits the final frame once the payload
    /// has been fetched from host memory.
    pub spec: Option<flextoe_wire::SegmentSpec>,
    /// Authoritative sendable-byte count after the protocol stage ran
    /// (flow-scheduler resync).
    pub sendable_after: Option<u32>,
    pub nbi_seq: Option<u64>,
    pub arrival: Time,
}

/// A host-control item (Figure 4).
pub struct HcWork {
    pub desc: AppToNic,
    pub conn: u32,
    pub group: usize,
    /// Authoritative sendable-byte count after the protocol stage (the
    /// post-processor's FS step, Figure 4).
    pub sendable_after: Option<u32>,
    /// A window-update ACK should be pushed (receive window re-opened).
    pub window_update: bool,
    /// Snapshot for that window-update ACK (zero-length TxSeg) and its
    /// NBI ordering slot, filled by the protocol stage.
    pub win_ack: Option<TxSeg>,
    /// The emitted window-update ACK frame (post-processing).
    pub ack_frame: Option<Frame>,
    pub nbi_seq: Option<u64>,
    pub arrival: Time,
}

/// One unit travelling the pipeline with its sequencing tag (§3.2).
pub enum Work {
    Rx(RxWork),
    Tx(TxWork),
    Hc(HcWork),
}

impl Work {
    pub fn kind(&self) -> &'static str {
        match self {
            Work::Rx(_) => "rx",
            Work::Tx(_) => "tx",
            Work::Hc(_) => "hc",
        }
    }
    pub fn group(&self) -> usize {
        match self {
            Work::Rx(w) => w.group,
            Work::Tx(w) => w.group,
            Work::Hc(w) => w.group,
        }
    }

    /// One-line debug description (pool leak reports).
    pub fn describe(&self) -> String {
        match self {
            Work::Rx(w) => format!("rx conn={} arrival={}ns", w.conn, w.arrival.as_ns()),
            Work::Tx(w) => format!(
                "tx conn={} arrival={}ns seg={} nbi={:?}",
                w.conn,
                w.arrival.as_ns(),
                w.seg.is_some(),
                w.nbi_seq
            ),
            Work::Hc(w) => format!("hc conn={} arrival={}ns", w.conn, w.arrival.as_ns()),
        }
    }
}

// ---- pools ---------------------------------------------------------------

// Free/CheckedOut carry no data on purpose: the slab IS the storage, so
// the size difference against `InFlight(Work)` is the point, not waste.
#[allow(clippy::large_enum_variant)]
enum Slot {
    Free,
    /// Owned by an in-flight [`flextoe_sim::WorkToken`].
    InFlight(Work),
    /// Temporarily taken out by the stage processing it.
    CheckedOut,
}

/// Slab of in-flight pipeline work items. Stages pass slot indices
/// (`WorkToken`s) through the event queue; the item itself stays here —
/// allocated once, recycled via a free list. The slot state machine
/// (`Free → InFlight → CheckedOut → Free`) turns leaks and double-frees
/// into panics, which the integration suite asserts on.
pub struct WorkPool {
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Optional bound on live slots — the finite work-item memory of the
    /// NIC. `alloc` stays infallible; admission points (the sequencer's
    /// RX ingress) consult [`WorkPool::at_capacity`] and shed load with a
    /// counted drop instead of growing the slab past the cap.
    pub capacity: Option<usize>,
    pub allocated: u64,
    pub released: u64,
    pub high_water: usize,
}

impl WorkPool {
    pub fn new() -> WorkPool {
        WorkPool {
            slots: Vec::new(),
            free: Vec::new(),
            capacity: None,
            allocated: 0,
            released: 0,
            high_water: 0,
        }
    }

    /// True when a capped pool has no free slot left: another `alloc`
    /// would exceed the configured bound. Uncapped pools never are.
    pub fn at_capacity(&self) -> bool {
        self.capacity.is_some_and(|c| self.in_use() >= c)
    }

    /// Place a work item, returning its slot.
    pub fn alloc(&mut self, work: Work) -> u32 {
        self.allocated += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Slot::InFlight(work);
                slot
            }
            None => {
                self.slots.push(Slot::InFlight(work));
                (self.slots.len() - 1) as u32
            }
        };
        self.high_water = self.high_water.max(self.in_use());
        slot
    }

    /// Check the item out for processing (the slot stays reserved).
    pub fn take(&mut self, slot: u32) -> Work {
        match std::mem::replace(&mut self.slots[slot as usize], Slot::CheckedOut) {
            Slot::InFlight(work) => work,
            Slot::Free => panic!("work pool: take on free slot {slot}"),
            Slot::CheckedOut => panic!("work pool: take on checked-out slot {slot}"),
        }
    }

    /// Put a checked-out item back (it stays in flight under the same
    /// token).
    pub fn restore(&mut self, slot: u32, work: Work) {
        match &self.slots[slot as usize] {
            Slot::CheckedOut => self.slots[slot as usize] = Slot::InFlight(work),
            _ => panic!("work pool: restore on slot {slot} that is not checked out"),
        }
    }

    /// Retire a checked-out slot to the free list.
    pub fn release(&mut self, slot: u32) {
        match &self.slots[slot as usize] {
            Slot::CheckedOut => {
                self.slots[slot as usize] = Slot::Free;
                self.free.push(slot);
                self.released += 1;
            }
            Slot::Free => panic!("work pool: double free of slot {slot}"),
            Slot::InFlight(_) => panic!("work pool: release of in-flight slot {slot}"),
        }
    }

    /// Read-only peek at an in-flight item.
    /// In-place access to an in-flight item: stages mutate the work item
    /// where it lives instead of paying a 300-byte move out and back per
    /// hop ([`Work`] is the pool's largest resident). The slot stays
    /// `InFlight` throughout — use [`WorkPool::retire`] when the item
    /// dies in the stage.
    pub fn get_mut(&mut self, slot: u32) -> &mut Work {
        match &mut self.slots[slot as usize] {
            Slot::InFlight(work) => work,
            Slot::Free => panic!("work pool: get_mut on free slot {slot}"),
            Slot::CheckedOut => panic!("work pool: get_mut on checked-out slot {slot}"),
        }
    }

    /// [`WorkPool::get_mut`] narrowed to an RX item (wiring bug otherwise).
    pub fn rx_mut(&mut self, slot: u32) -> &mut RxWork {
        match self.get_mut(slot) {
            Work::Rx(w) => w,
            _ => panic!("slot {slot} does not hold RX work"),
        }
    }

    /// [`WorkPool::get_mut`] narrowed to a TX item.
    pub fn tx_mut(&mut self, slot: u32) -> &mut TxWork {
        match self.get_mut(slot) {
            Work::Tx(w) => w,
            _ => panic!("slot {slot} does not hold TX work"),
        }
    }

    /// [`WorkPool::get_mut`] narrowed to an HC item.
    pub fn hc_mut(&mut self, slot: u32) -> &mut HcWork {
        match self.get_mut(slot) {
            Work::Hc(w) => w,
            _ => panic!("slot {slot} does not hold HC work"),
        }
    }

    /// Free an in-flight slot, returning the item for buffer recycling —
    /// `take` + `release` in one step for the in-place processing flow.
    pub fn retire(&mut self, slot: u32) -> Work {
        match std::mem::replace(&mut self.slots[slot as usize], Slot::Free) {
            Slot::InFlight(work) => {
                self.free.push(slot);
                self.released += 1;
                work
            }
            Slot::Free => panic!("work pool: double free of slot {slot}"),
            Slot::CheckedOut => panic!("work pool: retire of checked-out slot {slot}"),
        }
    }

    pub fn get(&self, slot: u32) -> &Work {
        match &self.slots[slot as usize] {
            Slot::InFlight(work) => work,
            _ => panic!("work pool: get on vacant slot {slot}"),
        }
    }

    /// Slots currently holding (or checked out for) live work.
    pub fn in_use(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Diagnostic: the live slots and their work kinds (leak reports).
    pub fn live_slots(&self) -> Vec<String> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match s {
                Slot::Free => None,
                Slot::InFlight(w) => Some(format!("slot {i}: in-flight {}", w.describe())),
                Slot::CheckedOut => Some(format!("slot {i}: checked out")),
            })
            .collect()
    }
}

impl Default for WorkPool {
    fn default() -> Self {
        Self::new()
    }
}

pub type SharedWorkPool = Rc<RefCell<WorkPool>>;
/// The NIC's packet-memory counters. The buffers themselves recycle
/// through the simulation's one free list, `Ctx::pool`
/// (`take_for` / `put_for`).
pub type SharedSegPool = Rc<RefCell<PoolCounters>>;

pub fn shared_work_pool() -> SharedWorkPool {
    Rc::new(RefCell::new(WorkPool::new()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hostmem::{shared_buf, shared_ctxq};

    fn entry() -> ConnEntry {
        ConnEntry {
            pre: PreState::default(),
            proto: ProtoState::default(),
            post: PostState::default(),
            tuple_rx: FourTuple::new(Ip4::host(2), 1000, Ip4::host(1), 80),
            tx_buf: shared_buf(1024),
            rx_buf: shared_buf(1024),
            ctxq: shared_ctxq(64),
            active: true,
        }
    }

    #[test]
    fn install_reuses_lowest_free_slot() {
        let mut t = ConnTable::new(NicConfig {
            mac: MacAddr::local(1),
            ip: Ip4::host(1),
        });
        let a = t.install(entry());
        let b = t.install(entry());
        let c = t.install(entry());
        assert_eq!((a, b, c), (0, 1, 2));
        t.remove(b);
        assert_eq!(t.len(), 2);
        let d = t.install(entry());
        assert_eq!(d, 1, "freed slot reused to keep ids dense");
        assert_eq!(t.len(), 3);
    }

    /// `len`/`is_empty` are a kept count: they must track installs,
    /// removals (including of absent or already removed ids) and slot
    /// reuse exactly as a count of the occupied slots would, and the
    /// no-holes shortcut in `install` must still hand out the lowest free id.
    #[test]
    fn len_tracks_installs_removals_and_reuse() {
        let mut t = ConnTable::new(NicConfig {
            mac: MacAddr::local(1),
            ip: Ip4::host(1),
        });
        let occupied = |t: &ConnTable| t.iter().count();
        assert!(t.is_empty());
        let mut rng = flextoe_sim::Rng::new(0x7AB1E);
        let mut ids = Vec::new();
        for _ in 0..2_000 {
            if rng.chance(0.55) {
                let lowest_free = (0..).find(|i| !ids.contains(i));
                let id = t.install(entry());
                assert_eq!(Some(id), lowest_free, "ids stay dense");
                ids.push(id);
            } else {
                // sometimes an id that was never installed or is gone
                let id = rng.below(ids.len() as u64 + 3) as u32;
                let was = ids.iter().position(|&i| i == id);
                assert_eq!(t.remove(id).is_some(), was.is_some());
                if let Some(at) = was {
                    ids.swap_remove(at);
                }
            }
            assert_eq!(t.len(), ids.len());
            assert_eq!(t.len(), occupied(&t));
            assert_eq!(t.is_empty(), ids.is_empty());
        }
    }

    fn hc(conn: u32) -> Work {
        Work::Hc(HcWork {
            desc: crate::hostmem::AppToNic::Close { conn },
            conn,
            group: 0,
            sendable_after: None,
            window_update: false,
            win_ack: None,
            ack_frame: None,
            nbi_seq: None,
            arrival: Time::ZERO,
        })
    }

    #[test]
    fn work_pool_recycles_slots() {
        let mut pool = WorkPool::new();
        let a = pool.alloc(hc(1));
        let b = pool.alloc(hc(2));
        assert_eq!((a, b), (0, 1));
        assert_eq!(pool.in_use(), 2);
        let w = pool.take(a);
        assert!(matches!(w, Work::Hc(ref h) if h.conn == 1));
        pool.restore(a, w);
        let _ = pool.take(a);
        pool.release(a);
        assert_eq!(pool.in_use(), 1);
        // freed slot is reused
        let c = pool.alloc(hc(3));
        assert_eq!(c, a);
        assert_eq!(pool.high_water, 2);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn work_pool_catches_double_free() {
        let mut pool = WorkPool::new();
        let a = pool.alloc(hc(1));
        let _ = pool.take(a);
        pool.release(a);
        pool.release(a);
    }

    #[test]
    #[should_panic(expected = "take on free slot")]
    fn work_pool_catches_use_after_free() {
        let mut pool = WorkPool::new();
        let a = pool.alloc(hc(1));
        let _ = pool.take(a);
        pool.release(a);
        let _ = pool.take(a);
    }

    #[test]
    fn get_and_iter() {
        let mut t = ConnTable::new(NicConfig {
            mac: MacAddr::local(1),
            ip: Ip4::host(1),
        });
        let a = t.install(entry());
        assert!(t.get(a).is_some());
        assert!(t.get(99).is_none());
        t.get_mut(a).unwrap().proto.tx_avail = 7;
        assert_eq!(t.get(a).unwrap().proto.tx_avail, 7);
        assert_eq!(t.iter().count(), 1);
    }
}
