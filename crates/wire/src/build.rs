//! Whole-segment construction and parsing: Ethernet + IPv4 + TCP in one
//! contiguous buffer, checksums filled.
//!
//! The data-path works on raw frames (XDP modules see bytes), so the
//! canonical representation of a segment "on the wire" is a `Vec<u8>`
//! built and inspected through these helpers.

use crate::ethernet::{ethertype, EthFrame, MacAddr, ETH_HDR_LEN};
use crate::flow::FourTuple;
use crate::ipv4::{protocol, Ecn, Ip4, Ipv4Packet, IPV4_HDR_LEN};
use crate::tcp::{SeqNum, TcpFlags, TcpOptions, TcpPacket, TCP_HDR_LEN};
use crate::WireError;

/// Everything needed to emit one TCP/IPv4/Ethernet segment.
#[derive(Clone, Debug, Default)]
pub struct SegmentSpec {
    pub src_mac: MacAddr,
    pub dst_mac: MacAddr,
    pub src_ip: Ip4,
    pub dst_ip: Ip4,
    pub src_port: u16,
    pub dst_port: u16,
    pub seq: SeqNum,
    pub ack: SeqNum,
    pub flags: TcpFlags,
    pub window: u16,
    pub ecn: Ecn,
    pub options: TcpOptions,
    pub payload_len: usize,
}

impl SegmentSpec {
    pub fn total_len(&self) -> usize {
        ETH_HDR_LEN + IPV4_HDR_LEN + TCP_HDR_LEN + self.options.len() + self.payload_len
    }

    /// Emit a [`crate::Frame`] into a recycled buffer — the pooled
    /// emission path.
    pub fn emit_frame_into(
        &self,
        mut buf: Vec<u8>,
        fill_payload: impl FnOnce(&mut [u8]),
    ) -> crate::Frame {
        self.emit_into(&mut buf, fill_payload);
        crate::Frame::raw(buf)
    }

    /// Emit the frame; `fill_payload` writes the TCP payload bytes.
    pub fn emit_with(&self, fill_payload: impl FnOnce(&mut [u8])) -> Vec<u8> {
        let mut buf = Vec::new();
        self.emit_into(&mut buf, fill_payload);
        buf
    }

    /// Emit into an existing buffer (cleared first, capacity reused) —
    /// the allocation-free path for pooled segment buffers.
    pub fn emit_into(&self, buf: &mut Vec<u8>, fill_payload: impl FnOnce(&mut [u8])) {
        let tcp_hdr = TCP_HDR_LEN + self.options.len();
        let ip_len = IPV4_HDR_LEN + tcp_hdr + self.payload_len;
        buf.clear();
        buf.resize(ETH_HDR_LEN + ip_len, 0);

        {
            let mut eth = EthFrame(&mut buf[..]);
            eth.set_dst(self.dst_mac);
            eth.set_src(self.src_mac);
            eth.set_ethertype(ethertype::IPV4);
        }
        {
            let mut ip = Ipv4Packet(&mut buf[ETH_HDR_LEN..]);
            ip.set_version_ihl();
            ip.set_ecn(self.ecn);
            ip.set_total_len(ip_len as u16);
            ip.set_flags_df();
            ip.set_ttl(64);
            ip.set_protocol(protocol::TCP);
            ip.set_src(self.src_ip);
            ip.set_dst(self.dst_ip);
            ip.fill_checksum();
        }
        {
            let tcp_buf = &mut buf[ETH_HDR_LEN + IPV4_HDR_LEN..];
            let mut tcp = TcpPacket(&mut tcp_buf[..]);
            tcp.set_src_port(self.src_port);
            tcp.set_dst_port(self.dst_port);
            tcp.set_seq(self.seq);
            tcp.set_ack(self.ack);
            tcp.set_data_offset(tcp_hdr);
            tcp.set_flags(self.flags);
            tcp.set_window(self.window);
            tcp.set_urgent(0);
            self.options.emit(&mut tcp_buf[TCP_HDR_LEN..tcp_hdr]);
            fill_payload(&mut tcp_buf[tcp_hdr..]);
            let mut tcp = TcpPacket(&mut tcp_buf[..]);
            tcp.fill_checksum(self.src_ip, self.dst_ip);
        }
    }

    /// Emit with a payload copied from a slice.
    pub fn emit(&self, payload: &[u8]) -> Vec<u8> {
        assert_eq!(payload.len(), self.payload_len);
        self.emit_with(|buf| buf.copy_from_slice(payload))
    }

    /// Emit into an existing buffer with a payload copied from a slice.
    pub fn emit_payload_into(&self, buf: &mut Vec<u8>, payload: &[u8]) {
        assert_eq!(payload.len(), self.payload_len);
        self.emit_into(buf, |b| b.copy_from_slice(payload));
    }

    /// Emit a zero-payload frame into an existing buffer.
    pub fn emit_zeroed_into(&self, buf: &mut Vec<u8>) {
        self.emit_into(buf, |_| {});
    }

    /// Emit with a zero payload (bulk-transfer benchmarks where content is
    /// irrelevant still materialize real frames).
    pub fn emit_zeroed(&self) -> Vec<u8> {
        self.emit_with(|_| {})
    }
}

/// A parsed view of a received frame: the "header summary" the FlexTOE
/// pre-processor forwards to later stages (§3.1.3 "Sum"), plus payload
/// location in the original buffer.
#[derive(Clone, Copy, Debug)]
pub struct SegmentView {
    pub src_mac: MacAddr,
    pub dst_mac: MacAddr,
    pub src_ip: Ip4,
    pub dst_ip: Ip4,
    pub src_port: u16,
    pub dst_port: u16,
    pub seq: SeqNum,
    pub ack: SeqNum,
    pub flags: TcpFlags,
    pub window: u16,
    pub ecn: Ecn,
    pub tsval: u32,
    pub tsecr: u32,
    pub has_ts: bool,
    /// Byte offset of the TCP payload within the frame.
    pub payload_off: usize,
    pub payload_len: usize,
}

impl SegmentView {
    /// Parse and validate a frame (the pre-processor's "Val" step). With
    /// `verify` the IP and TCP checksums are checked in software and a
    /// corrupted frame is rejected. In-sim emitters fill their checksums,
    /// so receivers verify only bytes changed after emission
    /// ([`crate::Frame::corrupted`], ingress-module rewrites).
    pub fn parse(frame: &[u8], verify: bool) -> Result<SegmentView, WireError> {
        let eth = EthFrame::new_checked(frame)?;
        if eth.inner_ethertype() != ethertype::IPV4 {
            return Err(WireError::NotTcp);
        }
        let ip_off = frame.len() - eth.inner_payload().len();
        let ip = Ipv4Packet::new_checked(&frame[ip_off..])?;
        if ip.protocol() != protocol::TCP {
            return Err(WireError::NotTcp);
        }
        if verify && !ip.verify_checksum() {
            return Err(WireError::BadChecksum("ipv4"));
        }
        let tcp_off = ip_off + IPV4_HDR_LEN;
        let tcp_end = ip_off + ip.total_len() as usize;
        let tcp = TcpPacket::new_checked(&frame[tcp_off..tcp_end])?;
        if verify && !tcp.verify_checksum(ip.src(), ip.dst()) {
            return Err(WireError::BadChecksum("tcp"));
        }
        let opts = tcp.options()?;
        let (tsval, tsecr) = opts.timestamp.unwrap_or((0, 0));
        Ok(SegmentView {
            src_mac: eth.src(),
            dst_mac: eth.dst(),
            src_ip: ip.src(),
            dst_ip: ip.dst(),
            src_port: tcp.src_port(),
            dst_port: tcp.dst_port(),
            seq: tcp.seq(),
            ack: tcp.ack(),
            flags: tcp.flags(),
            window: tcp.window(),
            ecn: ip.ecn(),
            tsval,
            tsecr,
            has_ts: opts.timestamp.is_some(),
            payload_off: tcp_off + tcp.data_offset(),
            payload_len: tcp_end - tcp_off - tcp.data_offset(),
        })
    }

    pub fn four_tuple(&self) -> FourTuple {
        FourTuple::new(self.src_ip, self.src_port, self.dst_ip, self.dst_port)
    }

    pub fn payload<'a>(&self, frame: &'a [u8]) -> &'a [u8] {
        &frame[self.payload_off..self.payload_off + self.payload_len]
    }

    /// Sequence number of the byte after this segment (incl. SYN/FIN).
    pub fn seq_end(&self) -> SeqNum {
        let mut n = self.payload_len as u32;
        if self.flags.syn() {
            n += 1;
        }
        if self.flags.fin() {
            n += 1;
        }
        self.seq + n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(payload_len: usize) -> SegmentSpec {
        SegmentSpec {
            src_mac: MacAddr::local(1),
            dst_mac: MacAddr::local(2),
            src_ip: Ip4::host(1),
            dst_ip: Ip4::host(2),
            src_port: 40000,
            dst_port: 11211,
            seq: SeqNum(111),
            ack: SeqNum(222),
            flags: TcpFlags::ACK | TcpFlags::PSH,
            window: 0x8000,
            ecn: Ecn::Ect0,
            options: TcpOptions {
                timestamp: Some((7, 9)),
                ..Default::default()
            },
            payload_len,
        }
    }

    #[test]
    fn emit_parse_roundtrip() {
        let payload = b"hello flextoe";
        let frame = spec(payload.len()).emit(payload);
        let v = SegmentView::parse(&frame, true).unwrap();
        assert_eq!(v.src_ip, Ip4::host(1));
        assert_eq!(v.dst_port, 11211);
        assert_eq!(v.seq, SeqNum(111));
        assert_eq!(v.ack, SeqNum(222));
        assert!(v.flags.psh());
        assert_eq!(v.window, 0x8000);
        assert_eq!(v.ecn, Ecn::Ect0);
        assert_eq!((v.tsval, v.tsecr), (7, 9));
        assert!(v.has_ts);
        assert_eq!(v.payload(&frame), payload);
        assert_eq!(v.seq_end(), SeqNum(111 + payload.len() as u32));
    }

    #[test]
    fn corruption_detected_when_verifying() {
        let frame = spec(32).emit(&[0x5a; 32]);
        for idx in [20usize, 40, 60] {
            let mut bad = frame.clone();
            bad[idx] ^= 0x01;
            assert!(
                SegmentView::parse(&bad, true).is_err(),
                "corruption at byte {idx} undetected"
            );
        }
        // without verification, header-intact corruption passes through
        let mut bad = frame.clone();
        let n = bad.len();
        bad[n - 1] ^= 1; // payload byte
        assert!(SegmentView::parse(&bad, false).is_ok());
    }

    #[test]
    fn non_tcp_rejected() {
        let mut frame = spec(0).emit(&[]);
        frame[12..14].copy_from_slice(&ethertype::ARP.to_be_bytes());
        assert!(matches!(
            SegmentView::parse(&frame, true),
            Err(WireError::NotTcp)
        ));
    }

    #[test]
    fn syn_fin_consume_sequence_space() {
        let mut s = spec(0);
        s.flags = TcpFlags::SYN;
        s.options.mss = Some(1448);
        let frame = s.emit_zeroed();
        let v = SegmentView::parse(&frame, true).unwrap();
        assert_eq!(v.seq_end(), SeqNum(112));
        let mut s = spec(3);
        s.flags = TcpFlags::FIN | TcpFlags::ACK;
        let frame = s.emit(b"xyz");
        let v = SegmentView::parse(&frame, true).unwrap();
        assert_eq!(v.seq_end(), SeqNum(111 + 3 + 1));
    }

    #[test]
    fn parse_through_vlan_tag() {
        let mut frame = spec(5).emit(b"taggd");
        crate::ethernet::insert_vlan(&mut frame, 42);
        let v = SegmentView::parse(&frame, true).unwrap();
        assert_eq!(v.payload(&frame), b"taggd");
        assert_eq!(v.src_port, 40000);
    }

    #[test]
    fn mtu_sized_frame() {
        // 1448 MSS + 12B ts option + 20 TCP + 20 IP + 14 ETH = 1514 (MTU frame)
        let s = spec(1448);
        let frame = s.emit_zeroed();
        assert_eq!(frame.len(), 1514);
        let v = SegmentView::parse(&frame, true).unwrap();
        assert_eq!(v.payload_len, 1448);
    }
}
