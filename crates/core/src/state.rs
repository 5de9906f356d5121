//! Per-connection state, partitioned across pipeline stages exactly as in
//! Table 5 of the paper (Appendix A).
//!
//! "To enable fine-grained parallelism, we partition connection state
//! across pipeline stages": the pre-processor holds connection identifiers
//! (15 B), the protocol stage holds the TCP state machine (43 B), and the
//! post-processor holds application-interface and congestion-control state
//! (51 B) — 108 B per connection in aggregate, which is what lets the NIC
//! "offload millions of connections".
//!
//! Each partition has an explicit byte encoding whose size is asserted to
//! match the paper's figures, so the partitioning claim is checkable.

use flextoe_wire::{Ip4, MacAddr, SeqNum};

/// Pre-processor partition: connection identification — 15 B (Table 5).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PreState {
    /// Remote MAC address (48 bits).
    pub peer_mac: MacAddr,
    /// Remote IP address (32 bits).
    pub peer_ip: Ip4,
    /// Local TCP port (16 bits).
    pub local_port: u16,
    /// Remote TCP port (16 bits).
    pub remote_port: u16,
    /// `hash(4-tuple) % 4` (2 bits in hardware; a byte here).
    pub flow_group: u8,
}

impl PreState {
    /// Table 5: 15 bytes.
    pub const WIRE_SIZE: usize = 15;

    pub fn encode(&self) -> [u8; Self::WIRE_SIZE] {
        let mut b = [0u8; Self::WIRE_SIZE];
        b[0..6].copy_from_slice(&self.peer_mac.0);
        b[6..10].copy_from_slice(&self.peer_ip.octets());
        b[10..12].copy_from_slice(&self.local_port.to_be_bytes());
        b[12..14].copy_from_slice(&self.remote_port.to_be_bytes());
        b[14] = self.flow_group & 0b11;
        b
    }

    pub fn decode(b: &[u8; Self::WIRE_SIZE]) -> PreState {
        PreState {
            peer_mac: MacAddr(b[0..6].try_into().unwrap()),
            peer_ip: Ip4(u32::from_be_bytes(b[6..10].try_into().unwrap())),
            local_port: u16::from_be_bytes([b[10], b[11]]),
            remote_port: u16::from_be_bytes([b[12], b[13]]),
            flow_group: b[14] & 0b11,
        }
    }
}

/// Protocol partition: the TCP state machine — 43 B in Table 5, 47 B
/// here: `snd_max` is a known deviation (see [`ProtoState::WIRE_SIZE`]).
///
/// Field semantics follow the TAS fast path the data-path is derived from:
///
/// * `seq` is the next sequence number to transmit (`snd_nxt`);
///   `tx_sent` is `snd_nxt − snd_una` (sent but unacknowledged), so
///   `snd_una = seq − tx_sent`. `snd_max` is the highest `snd_nxt` ever
///   reached: after a go-back-N rewind an ACK up to it still counts.
/// * `tx_pos` is the socket TX-buffer offset of byte `snd_nxt`;
///   `tx_avail` counts appended-but-unsent bytes.
/// * `ack` is the next expected receive sequence (`rcv_nxt`); `rx_pos` is
///   the RX-buffer offset where byte `rcv_nxt` lands; `rx_avail` is free
///   RX-buffer space (the advertised window).
/// * `ooo_start`/`ooo_len` track the single out-of-order interval
///   (§3.1.3): reassembly happens directly in the host receive buffer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProtoState {
    pub rx_pos: u32,
    pub tx_pos: u32,
    pub tx_avail: u32,
    pub rx_avail: u32,
    pub remote_win: u16,
    pub tx_sent: u32,
    pub seq: SeqNum,
    pub ack: SeqNum,
    pub ooo_start: SeqNum,
    pub ooo_len: u32,
    /// Duplicate-ACK count (4 bits in hardware).
    pub dupack_cnt: u8,
    /// Peer timestamp to echo in our next ACK (TSecr).
    pub next_ts: u32,
    pub snd_max: SeqNum,
    // -- packed into the dupack byte of the wire image --
    /// FIN requested by local application (queued behind in-flight data).
    pub fin_pending: bool,
    /// Sequence of our FIN once sent (consumes one sequence number).
    pub fin_sent: bool,
    /// Peer's FIN has been received in order.
    pub fin_received: bool,
}

impl ProtoState {
    /// Table 5's 43 bytes plus 4 for `snd_max`, which bounds the ACKs
    /// accepted after a go-back-N rewind (without it a cumulative ACK for
    /// bytes sent before the rewind is ignored and the flow can wedge).
    pub const WIRE_SIZE: usize = 47;

    /// First unacknowledged sequence number (`snd_una`).
    pub fn snd_una(&self) -> SeqNum {
        SeqNum(self.seq.0.wrapping_sub(self.tx_sent))
    }

    /// Effective send window left: bytes the peer + local buffer allow.
    pub fn send_window(&self) -> u32 {
        (self.remote_win as u32).saturating_sub(self.tx_sent)
    }

    /// Bytes eligible for transmission right now.
    pub fn sendable(&self) -> u32 {
        self.tx_avail.min(self.send_window())
    }

    /// Both FINs exchanged and nothing of ours in flight: the connection
    /// can be reclaimed.
    pub fn fully_closed(&self) -> bool {
        self.fin_received && self.fin_sent && !self.fin_pending && self.tx_sent == 0
    }

    /// Flow-scheduler view of sendable bytes: an unsent FIN counts as one
    /// pseudo-byte so the scheduler still triggers the (possibly empty)
    /// segment that carries it. Every FS feedback path must use this —
    /// a path reporting plain [`ProtoState::sendable`] after `close()`
    /// would overwrite the scheduler's count with 0 and discard the
    /// queued FIN trigger, deadlocking the teardown.
    pub fn sendable_with_fin(&self) -> u32 {
        self.sendable() + u32::from(self.fin_pending && !self.fin_sent)
    }

    pub fn encode(&self) -> [u8; Self::WIRE_SIZE] {
        let mut b = [0u8; Self::WIRE_SIZE];
        b[0..4].copy_from_slice(&self.rx_pos.to_be_bytes());
        b[4..8].copy_from_slice(&self.tx_pos.to_be_bytes());
        b[8..12].copy_from_slice(&self.tx_avail.to_be_bytes());
        b[12..16].copy_from_slice(&self.rx_avail.to_be_bytes());
        b[16..18].copy_from_slice(&self.remote_win.to_be_bytes());
        b[18..22].copy_from_slice(&self.tx_sent.to_be_bytes());
        b[22..26].copy_from_slice(&self.seq.0.to_be_bytes());
        b[26..30].copy_from_slice(&self.ack.0.to_be_bytes());
        b[30..34].copy_from_slice(&self.ooo_start.0.to_be_bytes());
        b[34..38].copy_from_slice(&self.ooo_len.to_be_bytes());
        b[38] = (self.dupack_cnt & 0x0f)
            | ((self.fin_pending as u8) << 4)
            | ((self.fin_sent as u8) << 5)
            | ((self.fin_received as u8) << 6);
        b[39..43].copy_from_slice(&self.next_ts.to_be_bytes());
        b[43..47].copy_from_slice(&self.snd_max.0.to_be_bytes());
        b
    }

    pub fn decode(b: &[u8; Self::WIRE_SIZE]) -> ProtoState {
        ProtoState {
            rx_pos: u32::from_be_bytes(b[0..4].try_into().unwrap()),
            tx_pos: u32::from_be_bytes(b[4..8].try_into().unwrap()),
            tx_avail: u32::from_be_bytes(b[8..12].try_into().unwrap()),
            rx_avail: u32::from_be_bytes(b[12..16].try_into().unwrap()),
            remote_win: u16::from_be_bytes([b[16], b[17]]),
            tx_sent: u32::from_be_bytes(b[18..22].try_into().unwrap()),
            seq: SeqNum(u32::from_be_bytes(b[22..26].try_into().unwrap())),
            ack: SeqNum(u32::from_be_bytes(b[26..30].try_into().unwrap())),
            ooo_start: SeqNum(u32::from_be_bytes(b[30..34].try_into().unwrap())),
            ooo_len: u32::from_be_bytes(b[34..38].try_into().unwrap()),
            dupack_cnt: b[38] & 0x0f,
            next_ts: u32::from_be_bytes(b[39..43].try_into().unwrap()),
            snd_max: SeqNum(u32::from_be_bytes(b[43..47].try_into().unwrap())),
            fin_pending: b[38] & 0x10 != 0,
            fin_sent: b[38] & 0x20 != 0,
            fin_received: b[38] & 0x40 != 0,
        }
    }
}

/// Post-processor partition: context queue + congestion control — 51 B.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PostState {
    /// Application connection id (opaque to the NIC).
    pub opaque: u64,
    /// Context-queue id (which per-thread queue to notify).
    pub context: u16,
    /// Host physical addresses of the RX/TX payload buffers.
    pub rx_base: u64,
    pub tx_base: u64,
    pub rx_size: u32,
    pub tx_size: u32,
    /// ACK'd bytes, free-running (DCTCP numerator base; the ccp fold
    /// layer keeps the windowed view, these wrap like hardware counters).
    pub cnt_ackb: u32,
    /// Bytes acknowledged under an ECE echo, free-running (DCTCP
    /// numerator).
    pub cnt_ecnb: u32,
    /// Fast retransmits, free-running (wraps like its siblings).
    pub cnt_fretx: u8,
    /// Smoothed RTT estimate in microseconds (TIMELY input).
    pub rtt_est: u32,
    /// Programmed pacing rate, in the scheduler's cycles/byte units.
    pub rate: u32,
}

impl PostState {
    /// Table 5: 51 bytes.
    pub const WIRE_SIZE: usize = 51;

    pub fn encode(&self) -> [u8; Self::WIRE_SIZE] {
        let mut b = [0u8; Self::WIRE_SIZE];
        b[0..8].copy_from_slice(&self.opaque.to_be_bytes());
        b[8..10].copy_from_slice(&self.context.to_be_bytes());
        b[10..18].copy_from_slice(&self.rx_base.to_be_bytes());
        b[18..26].copy_from_slice(&self.tx_base.to_be_bytes());
        b[26..30].copy_from_slice(&self.rx_size.to_be_bytes());
        b[30..34].copy_from_slice(&self.tx_size.to_be_bytes());
        b[34..38].copy_from_slice(&self.cnt_ackb.to_be_bytes());
        b[38..42].copy_from_slice(&self.cnt_ecnb.to_be_bytes());
        b[42] = self.cnt_fretx;
        b[43..47].copy_from_slice(&self.rtt_est.to_be_bytes());
        b[47..51].copy_from_slice(&self.rate.to_be_bytes());
        b
    }

    pub fn decode(b: &[u8; Self::WIRE_SIZE]) -> PostState {
        PostState {
            opaque: u64::from_be_bytes(b[0..8].try_into().unwrap()),
            context: u16::from_be_bytes([b[8], b[9]]),
            rx_base: u64::from_be_bytes(b[10..18].try_into().unwrap()),
            tx_base: u64::from_be_bytes(b[18..26].try_into().unwrap()),
            rx_size: u32::from_be_bytes(b[26..30].try_into().unwrap()),
            tx_size: u32::from_be_bytes(b[30..34].try_into().unwrap()),
            cnt_ackb: u32::from_be_bytes(b[34..38].try_into().unwrap()),
            cnt_ecnb: u32::from_be_bytes(b[38..42].try_into().unwrap()),
            cnt_fretx: b[42],
            rtt_est: u32::from_be_bytes(b[43..47].try_into().unwrap()),
            rate: u32::from_be_bytes(b[47..51].try_into().unwrap()),
        }
    }
}

/// Aggregate per-connection footprint. Table 5 reports 108 B, counting
/// the sub-byte fields bit-exactly (2-bit `flow_group`, 4-bit
/// `dupack_cnt`); our byte-aligned encodings sum to 113 B, 109 B of them
/// the paper's fields and 4 B `snd_max`.
pub const CONN_STATE_BYTES: usize = 108;
/// Byte-aligned sum of the three partition encodings.
pub const CONN_STATE_BYTES_ALIGNED: usize =
    PreState::WIRE_SIZE + ProtoState::WIRE_SIZE + PostState::WIRE_SIZE;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_sizes_match_table5() {
        assert_eq!(PreState::WIRE_SIZE, 15);
        assert_eq!(ProtoState::WIRE_SIZE, 43 + 4, "Table 5 + snd_max");
        assert_eq!(PostState::WIRE_SIZE, 51);
        assert_eq!(CONN_STATE_BYTES, 108);
        assert_eq!(CONN_STATE_BYTES_ALIGNED, 109 + 4);
        // bit-exact total matches the paper: 114 + 340 + 408 bits -> 108 B
        let bits: usize = (6 + 4 + 2 + 2) * 8 + 2 // pre
            + (8 + 4 + 4 + 2 + 4 + 4 + 4 + 8 + 4) * 8 + 4 // proto
            + 51 * 8; // post
        assert_eq!(bits.div_ceil(8), 108);
    }

    #[test]
    fn capacity_claims_of_appendix_a() {
        // "16 connections per protocol FPC, 512 connections per flow-group,
        //  and 16K connections in the EMEM cache. Using all of EMEM, we can
        //  support up to 8M connections."
        let emem_bytes: usize = 2 * 1024 * 1024 * 1024;
        assert!(emem_bytes / CONN_STATE_BYTES >= 8_000_000);
        let emem_sram_cache: usize = 3 * 1024 * 1024 / 2; // shared with other uses
        assert!(emem_sram_cache / CONN_STATE_BYTES >= 14_000);
    }

    #[test]
    fn pre_state_roundtrip() {
        let s = PreState {
            peer_mac: MacAddr::local(9),
            peer_ip: Ip4::host(3),
            local_port: 11211,
            remote_port: 40123,
            flow_group: 3,
        };
        assert_eq!(PreState::decode(&s.encode()), s);
    }

    #[test]
    fn proto_state_roundtrip() {
        let s = ProtoState {
            rx_pos: 1,
            tx_pos: 2,
            tx_avail: 3,
            rx_avail: 4,
            remote_win: 5,
            tx_sent: 6,
            seq: SeqNum(7),
            ack: SeqNum(8),
            ooo_start: SeqNum(9),
            ooo_len: 10,
            dupack_cnt: 3,
            next_ts: 12,
            snd_max: SeqNum(13),
            fin_pending: true,
            fin_sent: false,
            fin_received: true,
        };
        assert_eq!(ProtoState::decode(&s.encode()), s);
    }

    #[test]
    fn post_state_roundtrip() {
        let s = PostState {
            opaque: 0xdead_beef_cafe_f00d,
            context: 3,
            rx_base: 1 << 30,
            tx_base: (1 << 30) + 65536,
            rx_size: 65536,
            tx_size: 65536,
            cnt_ackb: 123,
            cnt_ecnb: 45,
            cnt_fretx: 2,
            rtt_est: 150,
            rate: 800,
        };
        assert_eq!(PostState::decode(&s.encode()), s);
    }

    #[test]
    fn derived_window_arithmetic() {
        let s = ProtoState {
            seq: SeqNum(1000),
            tx_sent: 300,
            tx_avail: 500,
            remote_win: 400,
            ..Default::default()
        };
        assert_eq!(s.snd_una(), SeqNum(700));
        assert_eq!(s.send_window(), 100);
        assert_eq!(s.sendable(), 100); // window-limited
        let s2 = ProtoState {
            tx_avail: 50,
            remote_win: 400,
            ..s
        };
        assert_eq!(s2.sendable(), 50); // data-limited
    }

    #[test]
    fn snd_una_wraps() {
        let s = ProtoState {
            seq: SeqNum(10),
            tx_sent: 20,
            ..Default::default()
        };
        assert_eq!(s.snd_una(), SeqNum(u32::MAX - 9));
    }
}
