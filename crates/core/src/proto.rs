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
//! retransmit, and an ACK for every received data segment.

use flextoe_wire::{SeqNum, TcpFlags};

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
/// go-back-N (§3.1.1 "Reset", §3.1.3 fast retransmit).
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

/// Protocol-stage processing of one received data-path segment.
pub fn rx_segment(ps: &mut ProtoState, sum: &RxSummary) -> RxOutcome {
    let mut out = rx_segment_inner(ps, sum);
    out.ack_seq = ps.seq;
    out.ack_no = ps.ack;
    out.ack_window = advertised_window(ps);
    out.sendable = ps.sendable_with_fin();
    out
}

fn rx_segment_inner(ps: &mut ProtoState, sum: &RxSummary) -> RxOutcome {
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

    if seg_seq == ps.ack {
        // ---- In-order ---------------------------------------------------
        if len > 0 {
            out.placement = Some(Placement {
                buf_pos: ps.rx_pos,
                frame_off,
                len,
            });
            ps.ack += len;
            ps.rx_pos = ps.rx_pos.wrapping_add(len);
            ps.rx_avail -= len;
            out.delivered = len;
        }
        // Merge with the out-of-order interval if we reached it.
        if ps.ooo_len > 0 && ps.ooo_start.before_eq(ps.ack) {
            let ooo_end = ps.ooo_start + ps.ooo_len;
            if ooo_end.after(ps.ack) {
                let flush = ooo_end - ps.ack;
                ps.ack += flush;
                ps.rx_pos = ps.rx_pos.wrapping_add(flush);
                ps.rx_avail -= flush;
                out.delivered += flush;
            }
            ps.ooo_len = 0;
            ps.ooo_start = SeqNum(0);
        }
        if fin && ps.ooo_len == 0 {
            ps.ack += 1;
            ps.fin_received = true;
            out.fin_delivered = true;
        }
        out.send_ack = true;
        out.update_scheduler |= out.delivered > 0;
    } else {
        // ---- Out of order ------------------------------------------------
        out.out_of_order = true;
        let seg_end = seg_seq + len;
        if ps.ooo_len == 0 {
            // Start a new interval; reassemble directly in the host buffer.
            ps.ooo_start = seg_seq;
            ps.ooo_len = len;
            out.placement = Some(Placement {
                buf_pos: ps.rx_pos.wrapping_add(seg_seq - ps.ack),
                frame_off,
                len,
            });
        } else {
            let ooo_end = ps.ooo_start + ps.ooo_len;
            // Merge only if overlapping or adjacent — a disjoint segment
            // would create a hole inside the single tracked interval.
            if seg_seq.before_eq(ooo_end) && ps.ooo_start.before_eq(seg_end) {
                let new_start = ps.ooo_start.min(seg_seq);
                let new_end = ooo_end.max(seg_end);
                ps.ooo_start = new_start;
                ps.ooo_len = new_end - new_start;
                out.placement = Some(Placement {
                    buf_pos: ps.rx_pos.wrapping_add(seg_seq - ps.ack),
                    frame_off,
                    len,
                });
            } else {
                // "Segments outside of the interval are dropped and
                // generate acknowledgments with the expected sequence
                // number to trigger retransmissions at the sender."
                out.dropped = true;
            }
        }
        // Every out-of-order arrival generates a duplicate ACK.
        out.send_ack = true;
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

/// HC "Reset" step: retransmission timeout fired in the control plane —
/// go-back-N (§3.1.1).
pub fn hc_retransmit(ps: &mut ProtoState) {
    go_back_n(ps);
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

    // ---------------- RX: in-order -------------------------------------

    #[test]
    fn in_order_delivery() {
        let mut ps = established();
        let out = rx_segment(&mut ps, &data(50_000, 100));
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
        assert_eq!(ps.ack, SeqNum(50_100));
        assert_eq!(ps.rx_pos, 100);
        assert_eq!(ps.rx_avail, 65_436);
    }

    #[test]
    fn pure_ack_generates_no_ack() {
        let mut ps = established();
        let out = rx_segment(&mut ps, &data(50_000, 0));
        assert!(!out.send_ack);
        assert_eq!(out.delivered, 0);
        assert!(out.placement.is_none());
    }

    #[test]
    fn duplicate_data_reacked_not_delivered() {
        let mut ps = established();
        rx_segment(&mut ps, &data(50_000, 100));
        let out = rx_segment(&mut ps, &data(50_000, 100));
        assert!(out.dropped);
        assert!(out.send_ack);
        assert_eq!(out.delivered, 0);
        assert_eq!(ps.ack, SeqNum(50_100));
    }

    #[test]
    fn partial_overlap_trims_leading_bytes() {
        let mut ps = established();
        rx_segment(&mut ps, &data(50_000, 100));
        // retransmission covering [50_050, 50_250): first 50 are dupes
        let out = rx_segment(&mut ps, &data(50_050, 200));
        assert_eq!(out.delivered, 150);
        assert_eq!(
            out.placement,
            Some(Placement {
                buf_pos: 100,
                frame_off: 50,
                len: 150
            })
        );
        assert_eq!(ps.ack, SeqNum(50_250));
    }

    #[test]
    fn window_overflow_right_trimmed() {
        let mut ps = established();
        ps.rx_avail = 80;
        let out = rx_segment(&mut ps, &data(50_000, 100));
        assert_eq!(out.delivered, 80);
        assert_eq!(ps.rx_avail, 0);
        assert!(out.send_ack);
        // a further segment is fully outside the closed window
        let out = rx_segment(&mut ps, &data(50_080, 50));
        assert!(out.dropped);
        assert!(out.send_ack);
        assert_eq!(out.delivered, 0);
    }

    // ---------------- RX: out-of-order ---------------------------------

    #[test]
    fn out_of_order_starts_interval_and_places_at_offset() {
        let mut ps = established();
        let out = rx_segment(&mut ps, &data(50_200, 100));
        assert!(out.out_of_order);
        assert!(out.send_ack); // duplicate ACK
        assert_eq!(out.delivered, 0);
        assert_eq!(
            out.placement,
            Some(Placement {
                buf_pos: 200,
                frame_off: 0,
                len: 100
            })
        );
        assert_eq!(ps.ooo_start, SeqNum(50_200));
        assert_eq!(ps.ooo_len, 100);
        assert_eq!(ps.ack, SeqNum(50_000)); // unchanged
    }

    #[test]
    fn gap_fill_flushes_interval() {
        let mut ps = established();
        rx_segment(&mut ps, &data(50_100, 100)); // ooo [50100, 50200)
        let out = rx_segment(&mut ps, &data(50_000, 100)); // fills the gap
        assert_eq!(out.delivered, 200); // 100 new + 100 flushed
        assert_eq!(ps.ack, SeqNum(50_200));
        assert_eq!(ps.ooo_len, 0);
        assert_eq!(ps.rx_pos, 200);
        assert_eq!(ps.rx_avail, 65_536 - 200);
    }

    #[test]
    fn adjacent_ooo_segments_merge() {
        let mut ps = established();
        rx_segment(&mut ps, &data(50_100, 100)); // [50100,50200)
        let out = rx_segment(&mut ps, &data(50_200, 50)); // adjacent right
        assert!(out.placement.is_some());
        assert_eq!(ps.ooo_start, SeqNum(50_100));
        assert_eq!(ps.ooo_len, 150);
        let out = rx_segment(&mut ps, &data(50_050, 50)); // adjacent left
        assert!(out.placement.is_some());
        assert_eq!(ps.ooo_start, SeqNum(50_050));
        assert_eq!(ps.ooo_len, 200);
    }

    #[test]
    fn disjoint_ooo_segment_dropped() {
        let mut ps = established();
        rx_segment(&mut ps, &data(50_100, 100)); // [50100,50200)
        let out = rx_segment(&mut ps, &data(50_400, 100)); // hole at 50200
        assert!(out.dropped);
        assert!(out.send_ack); // still duplicate-ACKs
        assert_eq!(ps.ooo_len, 100); // interval unchanged
    }

    #[test]
    fn overlapping_ooo_merges_without_double_count() {
        let mut ps = established();
        rx_segment(&mut ps, &data(50_100, 100)); // [50100,50200)
        rx_segment(&mut ps, &data(50_150, 100)); // [50150,50250) overlaps
        assert_eq!(ps.ooo_start, SeqNum(50_100));
        assert_eq!(ps.ooo_len, 150);
        // fill the gap: delivered = 100 in-order + 150 interval
        let out = rx_segment(&mut ps, &data(50_000, 100));
        assert_eq!(out.delivered, 250);
        assert_eq!(ps.ack, SeqNum(50_250));
    }

    #[test]
    fn in_order_overlapping_interval_does_not_redeliver() {
        let mut ps = established();
        rx_segment(&mut ps, &data(50_100, 100)); // ooo [50100,50200)
                                                 // retransmission covers [50000, 50150): overlaps interval head
        let out = rx_segment(&mut ps, &data(50_000, 150));
        // delivered = 150 new in-order + 50 remaining interval flush
        assert_eq!(out.delivered, 200);
        assert_eq!(ps.ack, SeqNum(50_200));
        assert_eq!(ps.ooo_len, 0);
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
        let out = rx_segment(&mut ps, &ack_only(9_500)); // half acked
        assert_eq!(out.acked_bytes, 500);
        assert_eq!(ps.tx_sent, 500);
        assert!(out.update_scheduler);
        // old (already-seen) ACK is ignored
        let out = rx_segment(&mut ps, &ack_only(9_400));
        assert_eq!(out.acked_bytes, 0);
        // future ACK beyond snd_nxt is ignored too
        let out = rx_segment(&mut ps, &ack_only(11_000));
        assert_eq!(out.acked_bytes, 0);
    }

    #[test]
    fn ack_after_go_back_n_counts_bytes_sent_before_the_rewind() {
        let mut ps = with_inflight(1000);
        go_back_n(&mut ps);
        let out = rx_segment(&mut ps, &ack_only(10_000));
        assert_eq!(out.acked_bytes, 1000);
        assert_eq!((ps.seq, ps.tx_sent, ps.tx_avail), (SeqNum(10_000), 0, 0));
        // a partial ACK frees only what it covers, the rest goes out again
        let mut ps = with_inflight(1000);
        go_back_n(&mut ps);
        let out = rx_segment(&mut ps, &ack_only(9_600));
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
        let out = rx_segment(&mut ps, &ack_only(10_101));
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
        assert!(!rx_segment(&mut ps, &ack_only(una)).fast_retransmit);
        assert!(!rx_segment(&mut ps, &ack_only(una)).fast_retransmit);
        let out = rx_segment(&mut ps, &ack_only(una));
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
        rx_segment(&mut ps, &ack_only(9_000));
        rx_segment(&mut ps, &ack_only(9_000));
        assert_eq!(ps.dupack_cnt, 2);
        rx_segment(&mut ps, &ack_only(9_500));
        assert_eq!(ps.dupack_cnt, 0);
    }

    #[test]
    fn dupack_requires_inflight_data() {
        let mut ps = established(); // tx_sent == 0
        for _ in 0..5 {
            let out = rx_segment(&mut ps, &ack_only(10_000));
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
        let out = rx_segment(&mut ps, &sum);
        assert_eq!(ps.remote_win, 123);
        assert!(out.update_scheduler);
    }

    #[test]
    fn rto_retransmit_resets_state() {
        let mut ps = with_inflight(2000);
        ps.tx_pos = 2000;
        hc_retransmit(&mut ps);
        assert_eq!(ps.seq, SeqNum(8_000));
        assert_eq!(ps.tx_avail, 2000);
        assert_eq!(ps.tx_pos, 0);
        // idempotent when nothing is in flight
        hc_retransmit(&mut ps);
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
        let out = rx_segment(&mut ps, &ack_only(10_101));
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
        hc_retransmit(&mut ps); // RTO: FIN + data lost
        assert!(!ps.fin_sent);
        assert_eq!(ps.tx_avail, 50);
        let seg = tx_next(&mut ps, MSS).unwrap();
        assert_eq!(seg.len, 50);
        assert!(seg.fin);
    }

    // ---------------- FIN receive ----------------------------------------

    #[test]
    fn fin_with_data_delivered_in_order() {
        let mut ps = established();
        let mut sum = data(50_000, 10);
        sum.flags = TcpFlags::ACK | TcpFlags::FIN | TcpFlags::PSH;
        let out = rx_segment(&mut ps, &sum);
        assert_eq!(out.delivered, 10);
        assert!(out.fin_delivered);
        assert!(ps.fin_received);
        assert_eq!(ps.ack, SeqNum(50_011)); // 10 data + 1 FIN
        assert!(out.send_ack);
    }

    #[test]
    fn ooo_fin_not_consumed_until_gap_fills() {
        let mut ps = established();
        let mut sum = data(50_100, 10);
        sum.flags = TcpFlags::ACK | TcpFlags::FIN;
        let out = rx_segment(&mut ps, &sum);
        assert!(!out.fin_delivered);
        assert!(!ps.fin_received);
        // gap fill delivers the buffered bytes but not the dropped FIN —
        // the peer retransmits its FIN.
        let out = rx_segment(&mut ps, &data(50_000, 100));
        assert_eq!(out.delivered, 110);
        assert!(!out.fin_delivered);
        let mut refin = data(50_110, 0);
        refin.flags = TcpFlags::ACK | TcpFlags::FIN;
        let out = rx_segment(&mut ps, &refin);
        assert!(out.fin_delivered);
        assert_eq!(ps.ack, SeqNum(50_111));
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
        let mut ps = established();
        let mut sum = data(50_000, 100);
        sum.ecn_ce = true;
        let out = rx_segment(&mut ps, &sum);
        assert!(out.ecn_echo);
        assert!(out.send_ack);
    }

    #[test]
    fn timestamp_echo_bookkeeping() {
        let mut ps = with_inflight(100);
        let mut sum = ack_only(9_950);
        sum.has_ts = true;
        sum.tsval = 777;
        sum.tsecr = 555;
        let out = rx_segment(&mut ps, &sum);
        assert_eq!(ps.next_ts, 777);
        assert_eq!(out.rtt_sample_ts, Some(555));
    }

    // ---------------- Sequence wraparound ---------------------------------

    #[test]
    fn everything_works_across_seq_wrap() {
        let mut ps = ProtoState {
            seq: SeqNum(u32::MAX - 100),
            snd_max: SeqNum(u32::MAX - 100),
            ack: SeqNum(u32::MAX - 50),
            rx_avail: 65_536,
            remote_win: 65_535,
            ..Default::default()
        };
        ps.tx_avail = 400;
        let seg = tx_next(&mut ps, 300).unwrap();
        assert_eq!(seg.seq, SeqNum(u32::MAX - 100));
        assert_eq!(ps.seq, SeqNum(199)); // wrapped
                                         // in-order data across the wrap
        let sum = RxSummary {
            seq: SeqNum(u32::MAX - 50),
            ack: SeqNum(150), // acks 251 of our 300
            flags: TcpFlags::ACK | TcpFlags::PSH,
            window: 65_535,
            payload_len: 100,
            ..Default::default()
        };
        let out = rx_segment(&mut ps, &sum);
        assert_eq!(out.delivered, 100);
        assert_eq!(ps.ack, SeqNum(49)); // wrapped
                                        // snd_una was 2^32-101; distance to 150 is 251
        assert_eq!(out.acked_bytes, 251);
        assert_eq!(ps.tx_sent, 49);
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
