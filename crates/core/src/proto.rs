//! The protocol stage's TCP logic (§3.1.1–3.1.3), as pure state-machine
//! functions over [`ProtoState`] — no I/O, no clocks (sans-IO, the smoltcp
//! idiom). The pipeline stages charge hardware cost models and move bytes;
//! all sequence/window/reassembly decisions live here, which makes the
//! logic unit- and property-testable in isolation and lets the baseline
//! host stacks (`flextoe-hoststack`) reuse the exact same code
//! run-to-completion — the "Baseline" row of Table 3.
//!
//! Semantics follow TAS, the stack the data-path derives from (§3):
//! go-back-N retransmission, a single receiver out-of-order interval with
//! reassembly directly in the host receive buffer, duplicate-ACK fast
//! retransmit, and an ACK for every received data segment. What the
//! paper's receivers differ in (Fig. 15) is a [`Reassembly`] policy.

use std::mem;

use flextoe_wire::{SegmentView, SeqNum, TcpFlags};

use crate::state::ProtoState;

/// The header summary the pre-processor forwards (§3.1.3 "Sum"): "only
/// relevant header fields required by later pipeline stages".
#[derive(Clone, Copy, Debug, Default)]
pub struct RxSummary {
    pub seq: SeqNum,
    pub ack: SeqNum,
    pub flags: TcpFlags,
    pub window: u16,
    pub payload_len: u32,
    pub tsval: u32,
    pub tsecr: u32,
    pub has_ts: bool,
    /// IP ECN field carried Congestion Experienced.
    pub ecn_ce: bool,
}

impl From<&SegmentView> for RxSummary {
    fn from(view: &SegmentView) -> Self {
        RxSummary {
            seq: view.seq,
            ack: view.ack,
            flags: view.flags,
            window: view.window,
            payload_len: view.payload_len as u32,
            tsval: view.tsval,
            tsecr: view.tsecr,
            has_ts: view.has_ts,
            ecn_ce: view.ecn.is_ce(),
        }
    }
}

/// Where received payload lands in the host receive buffer: a linear
/// (free-running, wrapping) buffer position plus the byte range of the
/// frame payload to copy. The DMA stage applies `mod rx_size`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Placement {
    pub buf_pos: u32,
    pub frame_off: u32,
    pub len: u32,
}

/// Result of protocol-stage RX processing ("Win" in Figure 6) — the
/// "snapshot of relevant connection state" forwarded to post-processing.
#[derive(Clone, Copy, Debug, Default)]
pub struct RxOutcome {
    /// Payload byte placement (at most one range; trims applied).
    pub placement: Option<Placement>,
    /// Bytes newly available to the application, including any flushed
    /// out-of-order interval (drives the RX context-queue notification).
    pub delivered: u32,
    /// Peer FIN consumed in order (application sees EOF).
    pub fin_delivered: bool,
    /// TX-buffer bytes newly acknowledged (freed back to the app).
    pub acked_bytes: u32,
    /// Generate an acknowledgment segment (Ack step in post-processing).
    pub send_ack: bool,
    /// Echo congestion (set ECE on the generated ACK — DCTCP feedback).
    pub ecn_echo: bool,
    /// A fast retransmit was triggered (transmission state was reset).
    pub fast_retransmit: bool,
    /// Segment was dropped (outside window / unusable duplicate).
    pub dropped: bool,
    /// The segment was received out of order (tracepoint counter).
    pub out_of_order: bool,
    /// Peer's timestamp echo (TSecr) for RTT estimation, if present.
    pub rtt_sample_ts: Option<u32>,
    /// Sendability may have changed (window opened / data acked): the
    /// post-processor must update the flow scheduler (FS step).
    pub update_scheduler: bool,
    /// Snapshot fields for the post-processor's Ack step — the protocol
    /// stage "forwards a snapshot of relevant connection state" (§3.1.3)
    /// so later stages never touch protocol state.
    pub ack_seq: SeqNum,
    pub ack_no: SeqNum,
    pub ack_window: u16,
    /// Bytes currently sendable (flow-scheduler FS feedback).
    pub sendable: u32,
}

/// A transmit descriptor produced by the protocol stage ("Seq" in Fig. 5):
/// everything later stages need without touching protocol state again.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TxSeg {
    pub seq: SeqNum,
    pub ack: SeqNum,
    /// Linear TX-buffer position of the payload (DMA wraps mod tx_size).
    pub buf_pos: u32,
    pub len: u32,
    pub fin: bool,
    pub window: u16,
    /// Peer timestamp to echo (TSecr of our segment).
    pub ts_echo: u32,
}

/// Advertised receive window, clamped to 16 bits (no window scaling —
/// consistent with Table 5's 16-bit `remote_win`).
pub fn advertised_window(ps: &ProtoState) -> u16 {
    ps.rx_avail.min(u16::MAX as u32) as u16
}

/// Reset transmission state to the last acknowledged position —
/// go-back-N: the HC "Reset" step when the control plane's retransmission
/// timeout fires (§3.1.1), and the §3.1.3 fast retransmit.
pub fn go_back_n(ps: &mut ProtoState) {
    let rollback = ps.tx_sent;
    if rollback == 0 {
        return;
    }
    let fin_unacked = ps.fin_sent && ps.fin_pending;
    let data_rollback = rollback - u32::from(fin_unacked);
    ps.seq = SeqNum(ps.seq.0.wrapping_sub(rollback));
    ps.tx_pos = ps.tx_pos.wrapping_sub(data_rollback);
    ps.tx_avail += data_rollback;
    ps.tx_sent = 0;
    if fin_unacked {
        ps.fin_sent = false;
    }
    ps.dupack_cnt = 0;
}

/// An ACK past `snd_nxt` but within `snd_max` covers bytes sent before a
/// go-back-N rewind: move them from unsent back to in flight, as if
/// [`tx_next`] had sent them again, so the ACK frees them. The last one
/// may be the FIN.
fn resend_acked(ps: &mut ProtoState, ack: SeqNum) {
    let data = (ack - ps.seq).min(ps.tx_avail);
    ps.seq += data;
    ps.tx_pos = ps.tx_pos.wrapping_add(data);
    ps.tx_avail -= data;
    ps.tx_sent += data;
    if ack.after(ps.seq) && ps.fin_pending && !ps.fin_sent {
        ps.seq += 1;
        ps.tx_sent += 1;
        ps.fin_sent = true;
    }
}

/// Extra out-of-order intervals a Linux receiver keeps beyond
/// [`ProtoState`]'s primary one.
pub const LINUX_INTERVALS: usize = 31;

/// What a receiver keeps of out-of-order data.
#[derive(Debug)]
pub enum Reassembly {
    /// Chelsio's TOE (§5.3): out-of-order payload and FIN are dropped.
    InOrderOnly,
    /// FlexTOE, TAS and Flex-Baseline (§3.1.3): one interval, reassembled
    /// in the host receive buffer.
    OneInterval,
    /// Linux: the primary interval plus up to [`LINUX_INTERVALS`] more,
    /// boxed so that the other policies carry none.
    Intervals(Box<IntervalSet>),
}

/// Linux's extra out-of-order intervals as `(start, len)` slots, pairwise
/// disjoint and not adjacent; a free slot has length 0.
#[derive(Debug, Default)]
pub struct IntervalSet([(SeqNum, u32); LINUX_INTERVALS]);

impl Reassembly {
    /// Store `[start, start + len)` as an extra interval, coalesced with
    /// every one it overlaps or touches. Stores nothing and returns false
    /// unless the policy is [`Reassembly::Intervals`] with a free slot.
    fn store(&mut self, start: SeqNum, len: u32) -> bool {
        let Reassembly::Intervals(set) = self else {
            return false;
        };
        let Some(free) = set.0.iter().position(|iv| iv.1 == 0) else {
            return false;
        };
        let (mut s, mut e) = (start, start + len);
        for iv in set.0.iter_mut().filter(|iv| iv.1 > 0) {
            let end = iv.0 + iv.1;
            if iv.0.before_eq(e) && s.before_eq(end) {
                (s, e) = (s.min(iv.0), e.max(end));
                *iv = (SeqNum(0), 0);
            }
        }
        set.0[free] = (s, e - s);
        true
    }
}

/// Remove and return a buffered interval that `rcv_nxt` reached, the
/// primary one first.
fn take_reached(ps: &mut ProtoState, reasm: &mut Reassembly) -> Option<(SeqNum, u32)> {
    if ps.ooo_len > 0 && ps.ooo_start.before_eq(ps.ack) {
        return Some((mem::take(&mut ps.ooo_start), mem::take(&mut ps.ooo_len)));
    }
    let Reassembly::Intervals(set) = reasm else {
        return None;
    };
    let iv = set
        .0
        .iter_mut()
        .find(|iv| iv.1 > 0 && iv.0.before_eq(ps.ack))?;
    Some(mem::take(iv))
}

/// Protocol-stage processing of one received data-path segment, under the
/// receiver's reassembly policy.
pub fn rx_segment(ps: &mut ProtoState, sum: &RxSummary, reasm: &mut Reassembly) -> RxOutcome {
    let mut out = rx_segment_inner(ps, sum, reasm);
    out.ack_seq = ps.seq;
    out.ack_no = ps.ack;
    out.ack_window = advertised_window(ps);
    out.sendable = ps.sendable_with_fin();
    out
}

fn rx_segment_inner(ps: &mut ProtoState, sum: &RxSummary, reasm: &mut Reassembly) -> RxOutcome {
    let mut out = RxOutcome::default();

    // ---- ACK-side processing -------------------------------------------
    if sum.flags.ack() {
        if sum.ack.after(ps.seq) && sum.ack.before_eq(ps.snd_max) {
            resend_acked(ps, sum.ack);
        }
        let una = ps.snd_una();
        let snd_nxt = ps.seq;
        if sum.ack.after(una) && sum.ack.before_eq(snd_nxt) {
            let mut acked = sum.ack - una;
            // The FIN occupies the final sequence number; freeing TX-buffer
            // bytes must not count it.
            if ps.fin_sent && ps.fin_pending && sum.ack == snd_nxt {
                ps.fin_pending = false; // our FIN is acknowledged
                acked -= 1;
            }
            ps.tx_sent -= sum.ack - una;
            out.acked_bytes = acked;
            ps.dupack_cnt = 0;
            out.update_scheduler = true;
            if sum.has_ts {
                out.rtt_sample_ts = Some(sum.tsecr);
            }
        } else if sum.ack == una && sum.payload_len == 0 && !sum.flags.fin() && ps.tx_sent > 0 {
            // Duplicate ACK: peer is missing something we sent.
            ps.dupack_cnt = (ps.dupack_cnt + 1).min(0x0f);
            if ps.dupack_cnt >= 3 {
                go_back_n(ps);
                out.fast_retransmit = true;
                out.update_scheduler = true;
            }
        }
        // Window updates apply regardless of ACK advancement.
        if ps.remote_win != sum.window {
            ps.remote_win = sum.window;
            out.update_scheduler = true;
        }
    }
    if sum.has_ts {
        ps.next_ts = sum.tsval;
    }
    if sum.ecn_ce {
        out.ecn_echo = true;
    }

    // ---- Data / FIN processing -----------------------------------------
    let mut seg_seq = sum.seq;
    let mut len = sum.payload_len;
    let mut frame_off = 0u32;
    let mut fin = sum.flags.fin();
    let had_payload = len > 0;

    // Trim bytes we already have.
    if seg_seq.before(ps.ack) {
        let dup = (ps.ack - seg_seq).min(len);
        seg_seq += dup;
        len -= dup;
        frame_off += dup;
        if len == 0 && !fin {
            // Complete duplicate: re-ACK so the peer converges.
            out.dropped = true;
            out.send_ack = had_payload;
            return out;
        }
        if fin && seg_seq.before(ps.ack) {
            // FIN below rcv_nxt: already consumed.
            out.dropped = true;
            out.send_ack = true;
            return out;
        }
    }

    if len == 0 && !fin {
        // Pure ACK / window update: no receive-side work, no ACK reply
        // (replying would loop).
        return out;
    }

    // Right-trim to the receive window ("trimming the payload to fit the
    // receive window if necessary", §3.1.3).
    let win_end = ps.ack + ps.rx_avail;
    if (seg_seq + len).after(win_end) {
        let overflow = (seg_seq + len) - win_end;
        let overflow = overflow.min(len);
        len -= overflow;
        fin = false; // trimmed FIN will be retransmitted
        if len == 0 {
            out.dropped = true;
            out.send_ack = true; // tell the peer our window/ack state
            return out;
        }
    }

    // Where the payload lands in the host buffer, in order or not. Every
    // data segment is ACKed; out of order, that is a duplicate ACK.
    let placement = Some(Placement {
        buf_pos: ps.rx_pos.wrapping_add(seg_seq - ps.ack),
        frame_off,
        len,
    });
    out.send_ack = true;
    if seg_seq == ps.ack {
        // ---- In-order ---------------------------------------------------
        if len > 0 {
            out.placement = placement;
        }
        // Advance rcv_nxt over this segment, then over every buffered
        // interval it reaches; one wholly below it was delivered already.
        let mut reached = Some((seg_seq, len));
        while let Some((start, ilen)) = reached {
            let end = start + ilen;
            if end.after(ps.ack) {
                let n = end - ps.ack;
                ps.ack += n;
                ps.rx_pos = ps.rx_pos.wrapping_add(n);
                ps.rx_avail -= n;
                out.delivered += n;
            }
            reached = take_reached(ps, reasm);
        }
        if fin && ps.ooo_len == 0 {
            ps.ack += 1;
            ps.fin_received = true;
            out.fin_delivered = true;
        }
        out.update_scheduler |= out.delivered > 0;
    } else {
        // ---- Out of order ------------------------------------------------
        out.out_of_order = true;
        let seg_end = seg_seq + len;
        if let Reassembly::InOrderOnly = reasm {
            out.dropped = true;
        } else if ps.ooo_len == 0 {
            // Start a new interval; reassemble directly in the host buffer.
            ps.ooo_start = seg_seq;
            ps.ooo_len = len;
            out.placement = placement;
        } else {
            let ooo_end = ps.ooo_start + ps.ooo_len;
            // Merge only if overlapping or adjacent — a disjoint segment
            // would create a hole inside the single tracked interval.
            if seg_seq.before_eq(ooo_end) && ps.ooo_start.before_eq(seg_end) {
                let new_start = ps.ooo_start.min(seg_seq);
                let new_end = ooo_end.max(seg_end);
                ps.ooo_start = new_start;
                ps.ooo_len = new_end - new_start;
                out.placement = placement;
            } else if len > 0
                && len == sum.payload_len // not trimmed to the window
                && reasm.store(seg_seq, len)
            {
                out.placement = placement;
            } else {
                // "Segments outside of the interval are dropped and
                // generate acknowledgments with the expected sequence
                // number to trigger retransmissions at the sender."
                out.dropped = true;
            }
        }
    }
    out
}

/// Protocol-stage processing of one TX trigger ("Seq" in Figure 5):
/// allocate a sequence range and buffer position for the next segment.
/// Returns `None` when nothing can be sent (scheduler raced an ACK).
pub fn tx_next(ps: &mut ProtoState, mss: u32) -> Option<TxSeg> {
    let len = ps.sendable().min(mss);
    let fin_now = ps.fin_pending && !ps.fin_sent && len == ps.tx_avail;
    if len == 0 && !fin_now {
        return None;
    }
    let seg = TxSeg {
        seq: ps.seq,
        ack: ps.ack,
        buf_pos: ps.tx_pos,
        len,
        fin: fin_now,
        window: advertised_window(ps),
        ts_echo: ps.next_ts,
    };
    ps.seq += len;
    ps.tx_pos = ps.tx_pos.wrapping_add(len);
    ps.tx_avail -= len;
    ps.tx_sent += len;
    if fin_now {
        ps.seq += 1;
        ps.tx_sent += 1;
        ps.fin_sent = true;
    }
    if ps.seq.after(ps.snd_max) {
        ps.snd_max = ps.seq;
    }
    Some(seg)
}

/// HC "Win" step for a transmit doorbell: the application appended `len`
/// bytes to the socket TX buffer (§3.1.1).
pub fn hc_tx_append(ps: &mut ProtoState, len: u32) {
    ps.tx_avail += len;
}

/// HC step for a receive doorbell: the application consumed `len` bytes
/// from the socket RX buffer, opening the advertised window. Returns true
/// when a window-update ACK should be pushed to the peer (the window was
/// effectively closed and has now re-opened).
pub fn hc_rx_consumed(ps: &mut ProtoState, len: u32, mss: u32) -> bool {
    let before = ps.rx_avail;
    ps.rx_avail += len;
    before < mss && ps.rx_avail >= mss
}

/// HC "Fin" step: connection close requested (§3.1.1).
pub fn hc_close(ps: &mut ProtoState) {
    ps.fin_pending = true;
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: u32 = 1448;

    fn established() -> ProtoState {
        ProtoState {
            seq: SeqNum(10_000),
            snd_max: SeqNum(10_000),
            ack: SeqNum(50_000),
            rx_avail: 65_536,
            remote_win: 65_535,
            rx_pos: 0,
            tx_pos: 0,
            ..Default::default()
        }
    }

    fn data(seq: u32, len: u32) -> RxSummary {
        RxSummary {
            seq: SeqNum(seq),
            ack: SeqNum(10_000),
            flags: TcpFlags::ACK | TcpFlags::PSH,
            window: 65_535,
            payload_len: len,
            ..Default::default()
        }
    }

    /// A receiver under test: protocol state plus its reassembly policy.
    struct Rx {
        ps: ProtoState,
        reasm: Reassembly,
    }

    impl Rx {
        fn seg(&mut self, sum: &RxSummary) -> RxOutcome {
            rx_segment(&mut self.ps, sum, &mut self.reasm)
        }

        /// Whether this receiver keeps any out-of-order data.
        fn keeps_ooo(&self) -> bool {
            !matches!(self.reasm, Reassembly::InOrderOnly)
        }

        /// Linux's extra intervals (none under the other policies).
        fn extra(&self) -> Vec<(SeqNum, u32)> {
            match &self.reasm {
                Reassembly::Intervals(set) => set.0.iter().copied().filter(|iv| iv.1 > 0).collect(),
                _ => Vec::new(),
            }
        }
    }

    /// `ps` under each of the three policies.
    fn receivers_with(ps: ProtoState) -> [Rx; 3] {
        [
            Reassembly::InOrderOnly,
            Reassembly::OneInterval,
            Reassembly::Intervals(Box::default()),
        ]
        .map(|reasm| Rx { ps, reasm })
    }

    fn receivers() -> [Rx; 3] {
        receivers_with(established())
    }

    /// `rx_segment` under FlexTOE's policy, for the ACK-side tests.
    fn rx(ps: &mut ProtoState, sum: &RxSummary) -> RxOutcome {
        rx_segment(ps, sum, &mut Reassembly::OneInterval)
    }

    // ---------------- RX: in-order -------------------------------------

    #[test]
    fn in_order_delivery() {
        for mut rx in receivers() {
            let out = rx.seg(&data(50_000, 100));
            assert_eq!(out.delivered, 100);
            assert_eq!(
                out.placement,
                Some(Placement {
                    buf_pos: 0,
                    frame_off: 0,
                    len: 100
                })
            );
            assert!(out.send_ack);
            assert!(!out.out_of_order);
            assert_eq!(rx.ps.ack, SeqNum(50_100));
            assert_eq!(rx.ps.rx_pos, 100);
            assert_eq!(rx.ps.rx_avail, 65_436);
        }
    }

    #[test]
    fn pure_ack_generates_no_ack() {
        for mut rx in receivers() {
            let out = rx.seg(&data(50_000, 0));
            assert!(!out.send_ack);
            assert_eq!(out.delivered, 0);
            assert!(out.placement.is_none());
        }
    }

    #[test]
    fn duplicate_data_reacked_not_delivered() {
        for mut rx in receivers() {
            rx.seg(&data(50_000, 100));
            let out = rx.seg(&data(50_000, 100));
            assert!(out.dropped);
            assert!(out.send_ack);
            assert_eq!(out.delivered, 0);
            assert_eq!(rx.ps.ack, SeqNum(50_100));
        }
    }

    #[test]
    fn partial_overlap_trims_leading_bytes() {
        for mut rx in receivers() {
            rx.seg(&data(50_000, 100));
            // retransmission covering [50_050, 50_250): first 50 are dupes
            let out = rx.seg(&data(50_050, 200));
            assert_eq!(out.delivered, 150);
            assert_eq!(
                out.placement,
                Some(Placement {
                    buf_pos: 100,
                    frame_off: 50,
                    len: 150
                })
            );
            assert_eq!(rx.ps.ack, SeqNum(50_250));
        }
    }

    #[test]
    fn window_overflow_right_trimmed() {
        for mut rx in receivers() {
            rx.ps.rx_avail = 80;
            let out = rx.seg(&data(50_000, 100));
            assert_eq!(out.delivered, 80);
            assert_eq!(rx.ps.rx_avail, 0);
            assert!(out.send_ack);
            // a further segment is fully outside the closed window
            let out = rx.seg(&data(50_080, 50));
            assert!(out.dropped);
            assert!(out.send_ack);
            assert_eq!(out.delivered, 0);
        }
    }

    // ---------------- RX: out-of-order ---------------------------------

    #[test]
    fn out_of_order_starts_interval_and_places_at_offset() {
        for mut rx in receivers() {
            let out = rx.seg(&data(50_200, 100));
            assert!(out.out_of_order);
            assert!(out.send_ack); // duplicate ACK
            assert_eq!(out.delivered, 0);
            assert_eq!(rx.ps.ack, SeqNum(50_000)); // unchanged
            if rx.keeps_ooo() {
                let at = Placement {
                    buf_pos: 200,
                    frame_off: 0,
                    len: 100,
                };
                assert_eq!(out.placement, Some(at));
                assert_eq!((rx.ps.ooo_start, rx.ps.ooo_len), (SeqNum(50_200), 100));
            } else {
                assert!(out.dropped && out.placement.is_none());
                assert_eq!(rx.ps.ooo_len, 0);
            }
        }
    }

    #[test]
    fn gap_fill_flushes_interval() {
        for mut rx in receivers() {
            rx.seg(&data(50_100, 100)); // ooo [50100, 50200)
            let out = rx.seg(&data(50_000, 100)); // fills the gap
            let kept = if rx.keeps_ooo() { 100 } else { 0 };
            assert_eq!(out.delivered, 100 + kept); // 100 new + the flushed interval
            assert_eq!(rx.ps.ack, SeqNum(50_100 + kept));
            assert_eq!(rx.ps.ooo_len, 0);
            assert_eq!(rx.ps.rx_pos, 100 + kept);
            assert_eq!(rx.ps.rx_avail, 65_536 - 100 - kept);
        }
    }

    #[test]
    fn adjacent_ooo_segments_merge() {
        for mut rx in receivers() {
            let keeps = rx.keeps_ooo();
            rx.seg(&data(50_100, 100)); // [50100,50200)
            let out = rx.seg(&data(50_200, 50)); // adjacent right
            assert_eq!(out.placement.is_some(), keeps);
            let out = rx.seg(&data(50_050, 50)); // adjacent left
            assert_eq!(out.placement.is_some(), keeps);
            if keeps {
                assert_eq!((rx.ps.ooo_start, rx.ps.ooo_len), (SeqNum(50_050), 200));
            } else {
                assert_eq!(rx.ps.ooo_len, 0);
            }
            assert!(rx.extra().is_empty());
        }
    }

    #[test]
    fn disjoint_ooo_segment_dropped() {
        for mut rx in receivers() {
            rx.seg(&data(50_100, 100)); // [50100,50200)
            let out = rx.seg(&data(50_400, 100)); // hole at 50200
            assert!(out.send_ack); // still duplicate-ACKs
            match rx.reasm {
                // Linux keeps it as an extra interval, in place
                Reassembly::Intervals(_) => {
                    assert!(!out.dropped);
                    assert_eq!(out.placement.map(|p| p.buf_pos), Some(400));
                    assert_eq!(rx.extra(), [(SeqNum(50_400), 100)]);
                }
                _ => {
                    assert!(out.dropped);
                    assert!(out.placement.is_none());
                }
            }
            let primary = if rx.keeps_ooo() { 100 } else { 0 };
            assert_eq!(rx.ps.ooo_len, primary); // interval unchanged
        }
    }

    #[test]
    fn overlapping_ooo_merges_without_double_count() {
        for mut rx in receivers() {
            rx.seg(&data(50_100, 100)); // [50100,50200)
            rx.seg(&data(50_150, 100)); // [50150,50250) overlaps
            let kept = if rx.keeps_ooo() { 150 } else { 0 };
            if rx.keeps_ooo() {
                assert_eq!((rx.ps.ooo_start, rx.ps.ooo_len), (SeqNum(50_100), 150));
            }
            // fill the gap: delivered = 100 in-order + 150 interval
            let out = rx.seg(&data(50_000, 100));
            assert_eq!(out.delivered, 100 + kept);
            assert_eq!(rx.ps.ack, SeqNum(50_100 + kept));
        }
    }

    #[test]
    fn in_order_overlapping_interval_does_not_redeliver() {
        for mut rx in receivers() {
            rx.seg(&data(50_100, 100)); // ooo [50100,50200)
                                        // retransmission covers [50000, 50150): overlaps interval head
            let out = rx.seg(&data(50_000, 150));
            // delivered = 150 new in-order + 50 remaining interval flush
            let kept = if rx.keeps_ooo() { 50 } else { 0 };
            assert_eq!(out.delivered, 150 + kept);
            assert_eq!(rx.ps.ack, SeqNum(50_150 + kept));
            assert_eq!(rx.ps.ooo_len, 0);
        }
    }

    #[test]
    fn in_order_only_drops_ooo_data_without_rewinding() {
        // three out-of-order data segments carrying ack == snd_una are not
        // duplicate ACKs: the data-carrying segment is dropped, the sender
        // keeps its window
        let mut rx = Rx {
            ps: with_inflight(1000),
            reasm: Reassembly::InOrderOnly,
        };
        for off in [100, 200, 300] {
            let mut sum = data(50_000 + off, 50);
            sum.ack = rx.ps.snd_una();
            let out = rx.seg(&sum);
            assert!(out.dropped && out.send_ack && out.out_of_order);
            assert!(!out.fast_retransmit);
        }
        assert_eq!(
            (rx.ps.seq, rx.ps.tx_sent, rx.ps.dupack_cnt),
            (SeqNum(10_000), 1000, 0)
        );
        // the ACK side still runs: a dropped segment's ACK frees bytes
        let mut sum = data(50_400, 50);
        sum.ack = SeqNum(9_500);
        let out = rx.seg(&sum);
        assert!(out.dropped);
        assert_eq!((out.acked_bytes, rx.ps.tx_sent), (500, 500));
    }

    // ---------------- RX: Linux's extra intervals -------------------------

    fn linux() -> Rx {
        Rx {
            ps: established(),
            reasm: Reassembly::Intervals(Box::default()),
        }
    }

    #[test]
    fn interval_set_coalesces() {
        let mut rx = linux();
        assert!(rx.reasm.store(SeqNum(100), 50));
        assert!(rx.reasm.store(SeqNum(200), 50));
        assert_eq!(rx.extra().len(), 2);
        assert!(rx.reasm.store(SeqNum(150), 50)); // bridges both
        assert_eq!(rx.extra(), [(SeqNum(100), 150)]);
        // overlapping extension
        assert!(rx.reasm.store(SeqNum(240), 20));
        assert_eq!(rx.extra(), [(SeqNum(100), 160)]);
        // only a Linux receiver stores extra intervals
        assert!(!Reassembly::OneInterval.store(SeqNum(100), 50));
        assert!(!Reassembly::InOrderOnly.store(SeqNum(100), 50));
    }

    #[test]
    fn interval_set_capacity_limit() {
        let mut rx = linux();
        for i in 0..LINUX_INTERVALS as u32 {
            assert!(rx.reasm.store(SeqNum(60_000 + i * 100), 10));
        }
        // full: neither a new interval nor an extension is stored
        assert!(!rx.reasm.store(SeqNum(70_000), 10));
        assert!(!rx.reasm.store(SeqNum(60_010), 10));
        assert_eq!(rx.extra().len(), LINUX_INTERVALS);
        assert!(rx.extra().contains(&(SeqNum(60_000), 10)));
        // the receiver then drops a disjoint segment like a one-interval one
        rx.seg(&data(50_100, 10)); // the primary interval
        let out = rx.seg(&data(50_300, 10));
        assert!(out.dropped && out.placement.is_none());
    }

    #[test]
    fn intervals_keep_only_what_fits_the_window() {
        let mut rx = linux();
        rx.ps.rx_avail = 300;
        rx.seg(&data(50_100, 50)); // primary [50100, 50150)
        let out = rx.seg(&data(50_200, 200)); // trimmed to [50200, 50300)
        assert!(out.dropped);
        assert!(rx.extra().is_empty());
    }

    #[test]
    fn flush_spans_an_extra_interval_then_the_primary() {
        let mut rx = linux();
        rx.seg(&data(50_300, 100)); // primary [50300, 50400)
        rx.seg(&data(50_100, 100)); // extra [50100, 50200)
        rx.seg(&data(50_600, 100)); // extra [50600, 50700), stays
        rx.seg(&data(50_200, 100)); // joins the primary: [50200, 50400)
        assert_eq!((rx.ps.ooo_start, rx.ps.ooo_len), (SeqNum(50_200), 200));
        assert_eq!(rx.extra().len(), 2);
        // rcv_nxt reaches the extra interval, whose end reaches the primary
        let out = rx.seg(&data(50_000, 100));
        assert_eq!(out.delivered, 400);
        assert_eq!(rx.ps.ack, SeqNum(50_400));
        assert_eq!((rx.ps.rx_pos, rx.ps.rx_avail), (400, 65_536 - 400));
        assert_eq!(rx.ps.ooo_len, 0);
        assert_eq!(rx.extra(), [(SeqNum(50_600), 100)]);
    }

    // ---------------- ACK / retransmit side -----------------------------

    fn with_inflight(tx_sent: u32) -> ProtoState {
        let mut ps = established();
        ps.tx_avail = 0;
        ps.tx_sent = tx_sent;
        // seq stays 10_000 => snd_una = 10_000 - tx_sent
        ps
    }

    fn ack_only(ackno: u32) -> RxSummary {
        RxSummary {
            seq: SeqNum(50_000),
            ack: SeqNum(ackno),
            flags: TcpFlags::ACK,
            window: 65_535,
            payload_len: 0,
            ..Default::default()
        }
    }

    #[test]
    fn ack_frees_tx_bytes() {
        let mut ps = with_inflight(1000);
        let out = rx(&mut ps, &ack_only(9_500)); // half acked
        assert_eq!(out.acked_bytes, 500);
        assert_eq!(ps.tx_sent, 500);
        assert!(out.update_scheduler);
        // old (already-seen) ACK is ignored
        let out = rx(&mut ps, &ack_only(9_400));
        assert_eq!(out.acked_bytes, 0);
        // future ACK beyond snd_nxt is ignored too
        let out = rx(&mut ps, &ack_only(11_000));
        assert_eq!(out.acked_bytes, 0);
    }

    #[test]
    fn ack_after_go_back_n_counts_bytes_sent_before_the_rewind() {
        let mut ps = with_inflight(1000);
        go_back_n(&mut ps);
        let out = rx(&mut ps, &ack_only(10_000));
        assert_eq!(out.acked_bytes, 1000);
        assert_eq!((ps.seq, ps.tx_sent, ps.tx_avail), (SeqNum(10_000), 0, 0));
        // a partial ACK frees only what it covers, the rest goes out again
        let mut ps = with_inflight(1000);
        go_back_n(&mut ps);
        let out = rx(&mut ps, &ack_only(9_600));
        assert_eq!(out.acked_bytes, 600);
        assert_eq!((ps.seq, ps.tx_sent, ps.tx_avail), (SeqNum(9_600), 0, 400));
    }

    #[test]
    fn ack_after_go_back_n_covers_the_fin() {
        let mut ps = established();
        ps.tx_avail = 100;
        hc_close(&mut ps);
        tx_next(&mut ps, MSS);
        go_back_n(&mut ps);
        assert!(!ps.fin_sent);
        let out = rx(&mut ps, &ack_only(10_101));
        assert_eq!(out.acked_bytes, 100);
        assert!(ps.fin_sent && !ps.fin_pending, "FIN acknowledged");
        assert_eq!(ps.tx_sent, 0);
        assert!(tx_next(&mut ps, MSS).is_none());
    }

    #[test]
    fn three_dupacks_trigger_fast_retransmit() {
        let mut ps = with_inflight(1000);
        ps.tx_pos = 5000; // pretend buffer position advanced with the send
        let una = 9_000;
        assert!(!rx(&mut ps, &ack_only(una)).fast_retransmit);
        assert!(!rx(&mut ps, &ack_only(una)).fast_retransmit);
        let out = rx(&mut ps, &ack_only(una));
        assert!(out.fast_retransmit);
        // go-back-N: snd_nxt reset to snd_una, bytes back in tx_avail
        assert_eq!(ps.seq, SeqNum(9_000));
        assert_eq!(ps.tx_sent, 0);
        assert_eq!(ps.tx_avail, 1000);
        assert_eq!(ps.tx_pos, 4000);
        assert_eq!(ps.dupack_cnt, 0);
    }

    #[test]
    fn advancing_ack_resets_dupack_count() {
        let mut ps = with_inflight(1000);
        rx(&mut ps, &ack_only(9_000));
        rx(&mut ps, &ack_only(9_000));
        assert_eq!(ps.dupack_cnt, 2);
        rx(&mut ps, &ack_only(9_500));
        assert_eq!(ps.dupack_cnt, 0);
    }

    #[test]
    fn dupack_requires_inflight_data() {
        let mut ps = established(); // tx_sent == 0
        for _ in 0..5 {
            let out = rx(&mut ps, &ack_only(10_000));
            assert!(!out.fast_retransmit);
        }
        assert_eq!(ps.dupack_cnt, 0);
    }

    #[test]
    fn window_update_signals_scheduler() {
        let mut ps = with_inflight(100);
        let mut sum = ack_only(9_900); // snd_una
        sum.window = 123;
        // ack == una with payload 0 counts as dupack but window changed
        let out = rx(&mut ps, &sum);
        assert_eq!(ps.remote_win, 123);
        assert!(out.update_scheduler);
    }

    #[test]
    fn rto_retransmit_resets_state() {
        let mut ps = with_inflight(2000);
        ps.tx_pos = 2000;
        go_back_n(&mut ps);
        assert_eq!(ps.seq, SeqNum(8_000));
        assert_eq!(ps.tx_avail, 2000);
        assert_eq!(ps.tx_pos, 0);
        // idempotent when nothing is in flight
        go_back_n(&mut ps);
        assert_eq!(ps.seq, SeqNum(8_000));
    }

    // ---------------- TX ------------------------------------------------

    #[test]
    fn tx_respects_mss_and_windows() {
        let mut ps = established();
        ps.tx_avail = 4000;
        let seg = tx_next(&mut ps, MSS).unwrap();
        assert_eq!(seg.len, MSS);
        assert_eq!(seg.seq, SeqNum(10_000));
        assert_eq!(seg.buf_pos, 0);
        assert!(!seg.fin);
        assert_eq!(ps.seq, SeqNum(10_000 + MSS));
        assert_eq!(ps.tx_sent, MSS);
        assert_eq!(ps.tx_avail, 4000 - MSS);

        // remote window limits the next segment
        ps.remote_win = (MSS + 100) as u16; // 100 left after in-flight MSS
        let seg = tx_next(&mut ps, MSS).unwrap();
        assert_eq!(seg.len, 100);

        // window exhausted -> nothing sendable
        assert!(tx_next(&mut ps, MSS).is_none());
    }

    #[test]
    fn tx_sequence_of_segments_is_contiguous() {
        let mut ps = established();
        ps.tx_avail = 3 * MSS + 10;
        let mut expect = 10_000;
        for want in [MSS, MSS, MSS, 10] {
            let seg = tx_next(&mut ps, MSS).unwrap();
            assert_eq!(seg.seq, SeqNum(expect));
            assert_eq!(seg.len, want);
            expect += want;
        }
        assert!(tx_next(&mut ps, MSS).is_none());
    }

    #[test]
    fn fin_sent_after_data_drains() {
        let mut ps = established();
        ps.tx_avail = 100;
        hc_close(&mut ps);
        let seg = tx_next(&mut ps, MSS).unwrap();
        assert_eq!(seg.len, 100);
        assert!(seg.fin, "FIN rides the last data segment");
        assert!(ps.fin_sent);
        assert_eq!(ps.seq, SeqNum(10_101)); // 100 data + 1 FIN
        assert_eq!(ps.tx_sent, 101);
        assert!(tx_next(&mut ps, MSS).is_none());
    }

    #[test]
    fn bare_fin_when_no_data() {
        let mut ps = established();
        hc_close(&mut ps);
        let seg = tx_next(&mut ps, MSS).unwrap();
        assert_eq!(seg.len, 0);
        assert!(seg.fin);
        assert_eq!(ps.tx_sent, 1);
    }

    #[test]
    fn ack_of_fin_does_not_free_buffer_byte() {
        let mut ps = established();
        ps.tx_avail = 100;
        hc_close(&mut ps);
        tx_next(&mut ps, MSS);
        let out = rx(&mut ps, &ack_only(10_101));
        assert_eq!(out.acked_bytes, 100); // not 101
        assert_eq!(ps.tx_sent, 0);
        assert!(!ps.fin_pending, "FIN acknowledged");
    }

    #[test]
    fn lost_fin_retransmitted_after_reset() {
        let mut ps = established();
        ps.tx_avail = 50;
        hc_close(&mut ps);
        tx_next(&mut ps, MSS);
        assert!(ps.fin_sent);
        go_back_n(&mut ps); // RTO: FIN + data lost
        assert!(!ps.fin_sent);
        assert_eq!(ps.tx_avail, 50);
        let seg = tx_next(&mut ps, MSS).unwrap();
        assert_eq!(seg.len, 50);
        assert!(seg.fin);
    }

    // ---------------- FIN receive ----------------------------------------

    #[test]
    fn fin_with_data_delivered_in_order() {
        for mut rx in receivers() {
            let mut sum = data(50_000, 10);
            sum.flags = TcpFlags::ACK | TcpFlags::FIN | TcpFlags::PSH;
            let out = rx.seg(&sum);
            assert_eq!(out.delivered, 10);
            assert!(out.fin_delivered);
            assert!(rx.ps.fin_received);
            assert_eq!(rx.ps.ack, SeqNum(50_011)); // 10 data + 1 FIN
            assert!(out.send_ack);
        }
    }

    #[test]
    fn ooo_fin_not_consumed_until_gap_fills() {
        for mut rx in receivers() {
            let mut sum = data(50_100, 10);
            sum.flags = TcpFlags::ACK | TcpFlags::FIN;
            let out = rx.seg(&sum);
            assert!(!out.fin_delivered);
            assert!(!rx.ps.fin_received);
            // gap fill delivers the buffered bytes but not the dropped FIN —
            // the peer retransmits its FIN (with the data an in-order-only
            // receiver dropped too).
            let out = rx.seg(&data(50_000, 100));
            let kept = if rx.keeps_ooo() { 10 } else { 0 };
            assert_eq!(out.delivered, 100 + kept);
            assert!(!out.fin_delivered);
            let mut refin = data(50_100 + kept, 10 - kept);
            refin.flags = TcpFlags::ACK | TcpFlags::FIN;
            let out = rx.seg(&refin);
            assert!(out.fin_delivered);
            assert_eq!(rx.ps.ack, SeqNum(50_111));
        }
    }

    // ---------------- HC -------------------------------------------------

    #[test]
    fn hc_append_and_consume() {
        let mut ps = established();
        hc_tx_append(&mut ps, 5000);
        assert_eq!(ps.tx_avail, 5000);
        ps.rx_avail = 0;
        assert!(!hc_rx_consumed(&mut ps, 100, MSS)); // still < MSS
        assert!(hc_rx_consumed(&mut ps, 2000, MSS)); // crossed: window update
        assert!(!hc_rx_consumed(&mut ps, 2000, MSS)); // already open
    }

    // ---------------- ECN / timestamps ------------------------------------

    #[test]
    fn ce_mark_echoes_ecn() {
        for mut rx in receivers() {
            let mut sum = data(50_000, 100);
            sum.ecn_ce = true;
            let out = rx.seg(&sum);
            assert!(out.ecn_echo);
            assert!(out.send_ack);
        }
    }

    #[test]
    fn timestamp_echo_bookkeeping() {
        let mut ps = with_inflight(100);
        let mut sum = ack_only(9_950);
        sum.has_ts = true;
        sum.tsval = 777;
        sum.tsecr = 555;
        let out = rx(&mut ps, &sum);
        assert_eq!(ps.next_ts, 777);
        assert_eq!(out.rtt_sample_ts, Some(555));
    }

    // ---------------- Sequence wraparound ---------------------------------

    #[test]
    fn everything_works_across_seq_wrap() {
        let ps = ProtoState {
            seq: SeqNum(u32::MAX - 100),
            snd_max: SeqNum(u32::MAX - 100),
            ack: SeqNum(u32::MAX - 50),
            rx_avail: 65_536,
            remote_win: 65_535,
            tx_avail: 400,
            ..Default::default()
        };
        for mut rx in receivers_with(ps) {
            let seg = tx_next(&mut rx.ps, 300).unwrap();
            assert_eq!(seg.seq, SeqNum(u32::MAX - 100));
            assert_eq!(rx.ps.seq, SeqNum(199)); // wrapped
                                                // in-order data across the wrap
            let sum = RxSummary {
                seq: SeqNum(u32::MAX - 50),
                ack: SeqNum(150), // acks 251 of our 300
                flags: TcpFlags::ACK | TcpFlags::PSH,
                window: 65_535,
                payload_len: 100,
                ..Default::default()
            };
            let out = rx.seg(&sum);
            assert_eq!(out.delivered, 100);
            assert_eq!(rx.ps.ack, SeqNum(49)); // wrapped
                                               // snd_una was 2^32-101; distance to 150 is 251
            assert_eq!(out.acked_bytes, 251);
            assert_eq!(rx.ps.tx_sent, 49);
        }
    }

    #[test]
    fn advertised_window_clamps() {
        let mut ps = established();
        ps.rx_avail = 100_000;
        assert_eq!(advertised_window(&ps), u16::MAX);
        ps.rx_avail = 100;
        assert_eq!(advertised_window(&ps), 100);
    }
}
