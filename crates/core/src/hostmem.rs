//! Host-memory structures shared between libTOE, the control plane, and
//! the NIC data-path: per-socket payload buffers and per-thread context
//! queues (Figure 2).
//!
//! In the real system these live in 1 GB hugepages mapped into all three
//! protection domains, accessed by the NIC through DMA; here they are
//! `Rc<RefCell<…>>` shared by the simulation nodes, with DMA/MMIO *timing*
//! charged through `flextoe-nfp`. Segments are never buffered on the NIC —
//! one-shot offload (§3 design principle 1) — so these buffers are the
//! only payload storage in the system.

use flextoe_sim::BoundedQueue;
use std::cell::RefCell;
use std::rc::Rc;

/// A per-socket circular payload buffer (RX or TX PAYLOAD-BUF).
///
/// Positions are *free-running* u32 byte counters (wrapping mod 2³²); the
/// buffer index is `pos % size`. Producers and consumers track their own
/// positions; the buffer itself is raw storage, exactly like a hugepage
/// region.
///
/// Like a hugepage region it is committed lazily: `size` is the logical
/// extent every position wraps at, `data` the prefix that has ever been
/// written, grown geometrically by [`PayloadBuf::write`]. Bytes beyond it
/// read as zero, so a lazy buffer is indistinguishable from a zero-filled
/// one — a descriptor-only socket (`send_bytes`) never commits a byte.
#[derive(Debug)]
pub struct PayloadBuf {
    size: u32,
    data: Vec<u8>,
}

/// Smallest non-empty commit, one page: keeps 16-byte header writes from
/// walking the doubling ladder one rung per request (four doublings take
/// a 64 KiB socket buffer from here to fully committed).
const MIN_COMMIT: usize = 4096;

impl PayloadBuf {
    pub fn new(size: u32) -> PayloadBuf {
        assert!(
            size > 0 && size.is_power_of_two(),
            "size must be a power of two"
        );
        PayloadBuf {
            size,
            data: Vec::new(),
        }
    }

    pub fn size(&self) -> u32 {
        self.size
    }

    /// Split `len` bytes at linear position `pos` into the run up to the
    /// wrap point and the run after it: `(start, first, rest)`.
    #[inline]
    fn split(&self, pos: u32, len: usize) -> (usize, usize, usize) {
        let size = self.size as usize;
        assert!(len <= size, "access larger than buffer");
        let start = (pos as usize) & (size - 1);
        let first = (size - start).min(len);
        (start, first, len - first)
    }

    /// Copy `src` into the buffer at linear position `pos` (wraps).
    pub fn write(&mut self, pos: u32, src: &[u8]) {
        if src.is_empty() {
            return;
        }
        let (start, first, rest) = self.split(pos, src.len());
        // a wrapping write touches the last byte: commit everything
        let end = if rest > 0 {
            self.size as usize
        } else {
            start + first
        };
        if end > self.data.len() {
            // powers of two, so at least doubling and never past `size`
            let floor = MIN_COMMIT.min(self.size as usize);
            self.data.resize(end.next_power_of_two().max(floor), 0);
        }
        self.data[start..start + first].copy_from_slice(&src[..first]);
        self.data[..rest].copy_from_slice(&src[first..]);
    }

    /// Copy `dst.len()` bytes at linear position `pos` into `dst` (wraps).
    pub fn read(&self, pos: u32, dst: &mut [u8]) {
        let (start, first, _) = self.split(pos, dst.len());
        let (head, tail) = dst.split_at_mut(first);
        self.read_run(start, head);
        self.read_run(0, tail);
    }

    /// One non-wrapping run: committed bytes, then zeros.
    fn read_run(&self, start: usize, dst: &mut [u8]) {
        let committed = self.data.get(start..).unwrap_or(&[]);
        let have = committed.len().min(dst.len());
        dst[..have].copy_from_slice(&committed[..have]);
        dst[have..].fill(0);
    }
}

/// Shared handle to a payload buffer.
pub type SharedBuf = Rc<RefCell<PayloadBuf>>;

pub fn shared_buf(size: u32) -> SharedBuf {
    Rc::new(RefCell::new(PayloadBuf::new(size)))
}

/// Descriptors the application/control-plane sends to the NIC (via a
/// context queue + doorbell; §3.1.1 "HC requests may be batched").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AppToNic {
    /// libTOE appended `len` bytes to the socket TX buffer.
    TxAppend { conn: u32, len: u32 },
    /// libTOE consumed `len` bytes from the socket RX buffer.
    RxConsumed { conn: u32, len: u32 },
    /// Application closed the connection (FIN after pending data).
    Close { conn: u32 },
    /// Control plane: retransmission timeout — reset to go-back-N.
    Retransmit { conn: u32 },
}

impl AppToNic {
    /// Bytes the descriptor moves through a socket buffer (0 for the
    /// others).
    pub fn bytes(&self) -> u32 {
        match *self {
            AppToNic::TxAppend { len, .. } | AppToNic::RxConsumed { len, .. } => len,
            AppToNic::Close { .. } | AppToNic::Retransmit { .. } => 0,
        }
    }
}

// Defined beside `Msg::Notify`, which carries one inline.
pub use flextoe_sim::NicToApp;

/// A per-thread context-queue pair (Figure 2: "pairs of context queues,
/// one for each communication direction"), bounded, in host shared
/// memory.
#[derive(Debug)]
pub struct CtxQueuePair {
    pub to_nic: BoundedQueue<AppToNic>,
    pub to_app: BoundedQueue<NicToApp>,
}

impl CtxQueuePair {
    pub fn new(capacity: usize) -> CtxQueuePair {
        CtxQueuePair {
            to_nic: BoundedQueue::new(capacity),
            to_app: BoundedQueue::new(capacity),
        }
    }
}

pub type SharedCtxQueue = Rc<RefCell<CtxQueuePair>>;

pub fn shared_ctxq(capacity: usize) -> SharedCtxQueue {
    Rc::new(RefCell::new(CtxQueuePair::new(capacity)))
}

#[cfg(test)]
mod tests {
    use super::*;

    impl PayloadBuf {
        fn read_vec(&self, pos: u32, len: u32) -> Vec<u8> {
            let mut v = vec![0xAA; len as usize];
            self.read(pos, &mut v);
            v
        }
    }

    /// Lazy commit is invisible: against an eagerly zero-filled model,
    /// random wrapping writes and reads (free-running positions, lengths
    /// up to the whole buffer) return identical bytes, and the committed
    /// prefix never exceeds the logical size.
    #[test]
    fn lazy_commit_matches_eager_buffer() {
        let mut rng = flextoe_sim::Rng::new(0x1a2b);
        for size in [1u32, 16, 2048, 1 << 16] {
            let mut lazy = PayloadBuf::new(size);
            let mut eager = vec![0u8; size as usize];
            assert!(lazy.data.is_empty(), "nothing committed before a write");
            for step in 0..400u32 {
                let pos = rng.next_u32();
                // mostly small accesses, sometimes the whole buffer
                let max = if step % 7 == 0 { size } else { size.min(64) };
                let len = rng.range(0, max as u64) as u32;
                if rng.below(2) == 0 {
                    let src: Vec<u8> = (0..len).map(|_| rng.next_u32() as u8 | 1).collect();
                    lazy.write(pos, &src);
                    for (i, b) in src.iter().enumerate() {
                        eager[(pos.wrapping_add(i as u32) % size) as usize] = *b;
                    }
                } else {
                    let want: Vec<u8> = (0..len)
                        .map(|i| eager[(pos.wrapping_add(i) % size) as usize])
                        .collect();
                    assert_eq!(lazy.read_vec(pos, len), want, "size {size} step {step}");
                }
                assert!(lazy.data.len() <= size as usize);
                assert_eq!(lazy.size(), size);
            }
            assert_eq!(lazy.read_vec(0, size), eager, "size {size} final");
        }
    }

    #[test]
    fn descriptor_only_traffic_commits_nothing() {
        let b = PayloadBuf::new(1 << 16);
        assert_eq!(b.read_vec(u32::MAX - 3, 8), vec![0; 8]);
        assert_eq!(b.data.capacity(), 0);
    }

    #[test]
    fn write_read_roundtrip() {
        let mut b = PayloadBuf::new(64);
        b.write(10, b"hello");
        let mut out = [0u8; 5];
        b.read(10, &mut out);
        assert_eq!(&out, b"hello");
    }

    #[test]
    fn wrapping_write_and_read() {
        let mut b = PayloadBuf::new(16);
        b.write(12, b"abcdefgh"); // wraps: 12..16 then 0..4
        assert_eq!(b.read_vec(12, 8), b"abcdefgh");
        assert_eq!(b.read_vec(14, 2), b"cd");
        assert_eq!(b.read_vec(0, 4), b"efgh");
    }

    #[test]
    fn free_running_positions_wrap_mod_size() {
        let mut b = PayloadBuf::new(16);
        b.write(5, b"xy");
        // position 5 + k*16 aliases the same cells
        assert_eq!(b.read_vec(5 + 32, 2), b"xy");
        b.write(u32::MAX - 1, b"zw"); // positions 2^32-2, 2^32-1 -> idx 14,15
        assert_eq!(b.read_vec(14, 2), b"zw");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        PayloadBuf::new(100);
    }

    #[test]
    fn ctx_queue_fifo_and_capacity() {
        let mut q = CtxQueuePair::new(2).to_nic;
        let close = |conn| AppToNic::Close { conn };
        q.push(close(1)).unwrap();
        q.push(close(2)).unwrap();
        assert_eq!(q.push(close(3)), Err(close(3)));
        assert_eq!(q.pop(), Some(close(1)));
        q.push(close(3)).unwrap();
        let mut batch = Vec::new();
        q.pop_batch_into(10, &mut batch);
        assert_eq!(batch, vec![close(2), close(3)]);
        assert!(q.is_empty());
    }

    #[test]
    fn ctx_queue_pair_directions_independent() {
        let pair = shared_ctxq(8);
        pair.borrow_mut()
            .to_nic
            .push(AppToNic::TxAppend { conn: 1, len: 64 })
            .unwrap();
        pair.borrow_mut()
            .to_app
            .push(NicToApp::TxFreed { conn: 1, len: 64 })
            .unwrap();
        assert_eq!(pair.borrow().to_nic.len(), 1);
        assert_eq!(pair.borrow().to_app.len(), 1);
        assert_eq!(
            pair.borrow_mut().to_nic.pop(),
            Some(AppToNic::TxAppend { conn: 1, len: 64 })
        );
    }
}
