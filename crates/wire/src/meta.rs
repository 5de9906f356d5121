//! Frames on the simulated wire and the header summary hops read off
//! them.
//!
//! A frame carries its bytes and nothing parsed: each consumer parses at
//! the point of use, as the paper's pre-processor does in its Val/Id/Sum
//! steps (§3.1.3) and as a switch does per hop. [`FrameMeta::parse`] is
//! the switch's parse — one call per L3 or telemetry hop feeds ECMP, the
//! sketch and CE marking. The only thing carried is
//! [`Frame::corrupted`], which says whether checksums need verifying.

use crate::ethernet::{ethertype, EthFrame, ETH_HDR_LEN, VLAN_TAG_LEN};
use crate::ipv4::{protocol, Ecn, Ip4, Ipv4Packet};
use crate::tcp::TcpPacket;

/// Compact per-frame routing/queueing summary: what a switch hop reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameMeta {
    /// Inner ethertype (after any single 802.1Q tag).
    pub ethertype: u16,
    /// Byte offset of the IPv4 header within the frame.
    pub ip_off: u8,
    /// IP protocol number.
    pub protocol: u8,
    /// ECN codepoint of the IP header.
    pub ecn: Ecn,
    pub src_ip: Ip4,
    pub dst_ip: Ip4,
    /// TCP/UDP ports; 0 for other protocols (matches the ECMP hash the
    /// switch historically computed for those frames).
    pub src_port: u16,
    pub dst_port: u16,
    /// L4 payload bytes (TCP: after the data offset; UDP: after the 8-byte
    /// header; otherwise the IP payload length).
    pub payload_len: u16,
    /// Salt-independent ECMP flow-hash basis over the directed 4-tuple;
    /// see [`crate::flow::ecmp_basis`]. Switches mix in their per-switch
    /// salt and finalize.
    pub flow_basis: u64,
}

impl FrameMeta {
    /// Parse the summary from raw frame bytes. `None` for truncated,
    /// non-IPv4, or malformed-IP frames (those are not routable).
    pub fn parse(frame: &[u8]) -> Option<FrameMeta> {
        let eth = EthFrame::new_checked(frame).ok()?;
        let inner_et = eth.inner_ethertype();
        if inner_et != ethertype::IPV4 {
            return None;
        }
        let ip_off = if eth.vlan_id().is_some() {
            ETH_HDR_LEN + VLAN_TAG_LEN
        } else {
            ETH_HDR_LEN
        };
        let ip = Ipv4Packet::new_checked(frame.get(ip_off..)?).ok()?;
        let (src_ip, dst_ip) = (ip.src(), ip.dst());
        let proto = ip.protocol();
        let l4 = ip.payload();
        let (src_port, dst_port, payload_len) = match proto {
            protocol::TCP => {
                let tcp = TcpPacket::new_checked(l4).ok()?;
                (
                    tcp.src_port(),
                    tcp.dst_port(),
                    l4.len().saturating_sub(tcp.data_offset()),
                )
            }
            protocol::UDP if l4.len() >= 8 => (
                u16::from_be_bytes([l4[0], l4[1]]),
                u16::from_be_bytes([l4[2], l4[3]]),
                l4.len() - 8,
            ),
            _ => (0, 0, l4.len()),
        };
        Some(FrameMeta {
            ethertype: inner_et,
            ip_off: ip_off as u8,
            protocol: proto,
            ecn: ip.ecn(),
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            payload_len: payload_len.min(u16::MAX as usize) as u16,
            flow_basis: crate::flow::ecmp_basis(src_ip, dst_ip, src_port, dst_port),
        })
    }
}

/// A raw frame travelling between simulation nodes (MAC blocks, links,
/// switch ports). Every consumer parses what it needs at the point of
/// use; the one fact a parse cannot recover travels as a bit.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Frame {
    pub bytes: Vec<u8>,
    /// Set by a link that flipped a byte in flight (and copied onto its
    /// duplicate). Every in-sim emitter fills its checksums, so only a
    /// marked frame needs them verified.
    pub corrupted: bool,
}

impl Frame {
    /// A frame as its emitter built it.
    pub fn raw(bytes: Vec<u8>) -> Frame {
        Frame {
            bytes,
            corrupted: false,
        }
    }

    pub fn len(&self) -> usize {
        self.bytes.len()
    }
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::SegmentSpec;
    use crate::ethernet::{insert_vlan, MacAddr};
    use crate::flow::ecmp_basis;

    fn spec() -> SegmentSpec {
        SegmentSpec {
            src_mac: MacAddr::local(1),
            dst_mac: MacAddr::local(2),
            src_ip: Ip4::host(1),
            dst_ip: Ip4::host(2),
            src_port: 40_000,
            dst_port: 80,
            ecn: Ecn::Ect0,
            payload_len: 33,
            ..Default::default()
        }
    }

    #[test]
    fn parse_matches_spec() {
        let s = spec();
        let m = FrameMeta::parse(&s.emit_zeroed()).unwrap();
        assert_eq!(m.ethertype, ethertype::IPV4);
        assert_eq!(m.ip_off as usize, ETH_HDR_LEN);
        assert_eq!(m.protocol, protocol::TCP);
        assert_eq!((m.src_ip, m.dst_ip), (Ip4::host(1), Ip4::host(2)));
        assert_eq!(m.ecn, Ecn::Ect0);
        assert_eq!((m.src_port, m.dst_port), (40_000, 80));
        assert_eq!(m.payload_len, 33);
        assert_eq!(
            m.flow_basis,
            ecmp_basis(Ip4::host(1), Ip4::host(2), 40_000, 80)
        );
    }

    #[test]
    fn parse_sees_through_vlan() {
        let s = spec();
        let mut bytes = s.emit_zeroed();
        insert_vlan(&mut bytes, 42);
        let m = FrameMeta::parse(&bytes).unwrap();
        assert_eq!(m.ip_off as usize, ETH_HDR_LEN + VLAN_TAG_LEN);
        assert_eq!(m.src_ip, Ip4::host(1));
        assert_eq!((m.src_port, m.dst_port), (40_000, 80));
    }

    #[test]
    fn non_ip_and_short_frames_unparsed() {
        assert_eq!(FrameMeta::parse(&[0u8; 10]), None);
        let mut arp = spec().emit_zeroed();
        arp[12..14].copy_from_slice(&ethertype::ARP.to_be_bytes());
        assert_eq!(FrameMeta::parse(&arp), None);
    }
}
