//! Flow identification: 4-tuples, CRC-32 flow hashing, flow groups.
//!
//! FlexTOE steers each connection to one of four flow-group pipelines via a
//! hash on the 4-tuple (§3.1: "each pipeline handles a fixed flow-group,
//! determined by a hash on the flow's 4-tuple"). Both directions of a
//! connection must land in the same group so protocol state stays local,
//! so the hash is computed over the *canonically ordered* tuple.

use core::fmt;

use crate::crc32::crc32;
use crate::ipv4::Ip4;

/// A directed TCP 4-tuple as seen on a segment.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FourTuple {
    pub src_ip: Ip4,
    pub dst_ip: Ip4,
    pub src_port: u16,
    pub dst_port: u16,
}

impl FourTuple {
    pub fn new(src_ip: Ip4, src_port: u16, dst_ip: Ip4, dst_port: u16) -> FourTuple {
        FourTuple {
            src_ip,
            dst_ip,
            src_port,
            dst_port,
        }
    }

    /// The tuple of traffic flowing the opposite way.
    pub fn reverse(self) -> FourTuple {
        FourTuple {
            src_ip: self.dst_ip,
            dst_ip: self.src_ip,
            src_port: self.dst_port,
            dst_port: self.src_port,
        }
    }

    /// Canonical (direction-independent) byte encoding: the (ip, port)
    /// endpoint pairs sorted, so a tuple and its reverse encode identically.
    fn canonical_bytes(self) -> [u8; 12] {
        let a = (self.src_ip.0, self.src_port);
        let b = (self.dst_ip.0, self.dst_port);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let mut out = [0u8; 12];
        out[0..4].copy_from_slice(&lo.0.to_be_bytes());
        out[4..6].copy_from_slice(&lo.1.to_be_bytes());
        out[6..10].copy_from_slice(&hi.0.to_be_bytes());
        out[10..12].copy_from_slice(&hi.1.to_be_bytes());
        out
    }

    /// CRC-32 flow hash (the pre-processor's lookup key, §4.1).
    pub fn flow_hash(self) -> u32 {
        crc32(&self.canonical_bytes())
    }

    /// Flow-group assignment: `hash % n_groups` (Table 5: `flow_group =
    /// hash(4-tuple) % 4` on the Agilio CX).
    pub fn flow_group(self, n_groups: usize) -> usize {
        debug_assert!(n_groups > 0);
        (self.flow_hash() as usize) % n_groups
    }
}

/// Salt-independent basis of the fabric ECMP flow hash: the directed
/// 4-tuple folded into one word. Switches finish the hash by XORing in
/// their per-switch salt and running the splitmix64 finalizer
/// ([`ecmp_hash_with_basis`]); a hop's one parse computes the basis into
/// [`crate::FrameMeta::flow_basis`], which ECMP and the sketch share.
#[inline]
pub fn ecmp_basis(src_ip: Ip4, dst_ip: Ip4, src_port: u16, dst_port: u16) -> u64 {
    ((src_ip.0 as u64) << 32 | dst_ip.0 as u64)
        ^ ((src_port as u64) << 16 | dst_port as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Finalize an ECMP flow hash from a precomputed basis and a per-switch
/// salt (splitmix64 finalizer). `ecmp_hash_with_basis(ecmp_basis(..), s)`
/// is bit-identical to the historical whole-header hash, so delivery
/// logs stay byte-identical per seed.
#[inline]
pub fn ecmp_hash_with_basis(basis: u64, salt: u64) -> u64 {
    let mut z = basis ^ salt;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl fmt::Debug for FourTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} -> {}:{}",
            self.src_ip, self.src_port, self.dst_ip, self.dst_port
        )
    }
}
impl fmt::Display for FourTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> FourTuple {
        FourTuple::new(Ip4::host(1), 40000, Ip4::host(2), 11211)
    }

    #[test]
    fn reverse_twice_is_identity() {
        assert_eq!(t().reverse().reverse(), t());
        assert_ne!(t().reverse(), t());
    }

    #[test]
    fn hash_is_direction_independent() {
        assert_eq!(t().flow_hash(), t().reverse().flow_hash());
        for n in [1usize, 2, 4, 8] {
            assert_eq!(t().flow_group(n), t().reverse().flow_group(n));
        }
    }

    #[test]
    fn different_flows_usually_differ() {
        let a = t().flow_hash();
        let b = FourTuple::new(Ip4::host(1), 40001, Ip4::host(2), 11211).flow_hash();
        let c = FourTuple::new(Ip4::host(3), 40000, Ip4::host(2), 11211).flow_hash();
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn groups_cover_range_and_distribute() {
        let n = 4;
        let mut counts = [0usize; 4];
        for port in 0..4000u16 {
            let ft = FourTuple::new(Ip4::host(1), 1024 + port, Ip4::host(2), 80);
            counts[ft.flow_group(n)] += 1;
        }
        for (g, &c) in counts.iter().enumerate() {
            // CRC-32 should be near-uniform: each group within 20% of fair share
            assert!(
                (c as f64 - 1000.0).abs() < 200.0,
                "group {g} got {c} of 4000"
            );
        }
    }

    #[test]
    fn single_group_always_zero() {
        assert_eq!(t().flow_group(1), 0);
    }
}
