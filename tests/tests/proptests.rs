//! Property-based tests on the core data structures and protocol
//! invariants.
//!
//! The container has no third-party crates, so instead of `proptest` we
//! drive each property from the simulator's own deterministic xoshiro
//! generator: every case is reproducible from the iteration index, and a
//! failure message names the seed that produced it.

use flextoe_core::proto::{self, Reassembly, RxSummary};
use flextoe_core::reorder::Reorder;
use flextoe_core::sched::Carousel;
use flextoe_core::ProtoState;
use flextoe_sim::{Duration, Histogram, Rng, Time};
use flextoe_wire::{
    checksum, ecmp_basis, ethertype, insert_vlan, protocol, strip_vlan, Ecn, FrameMeta, Ip4,
    MacAddr, SegmentSpec, SegmentView, SeqNum, TcpFlags, TcpOptions, ETH_HDR_LEN,
};

const CASES: u64 = 200;

/// Run `f` once per case with an independently seeded generator.
fn for_cases(name: &str, f: impl Fn(&mut Rng)) {
    for case in 0..CASES {
        let mut rng = Rng::new(0xF1E2_0000 ^ case);
        // A panic inside f already aborts the test; print the seed first
        // so the failing case can be replayed in isolation.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut rng)));
        if let Err(e) = result {
            panic!("property {name} failed at case {case}: {e:?}");
        }
    }
}

/// Whatever order items enter the reorderer, they exit in order.
#[test]
fn reorder_releases_in_order() {
    for_cases("reorder_releases_in_order", |rng| {
        let mut order: Vec<u64> = (0..64).collect();
        rng.shuffle(&mut order);
        let mut r = Reorder::new();
        let mut out = Vec::new();
        for seq in order {
            out.extend(r.push(seq, seq));
        }
        assert_eq!(out, (0..64u64).collect::<Vec<_>>());
    });
}

/// Random skip/push interleavings never deliver out of order or twice.
#[test]
fn reorder_with_random_skips() {
    for_cases("reorder_with_random_skips", |rng| {
        let n_skips = rng.below(40);
        let skips: std::collections::BTreeSet<u64> = (0..n_skips).map(|_| rng.below(100)).collect();
        let mut r = Reorder::new();
        let mut released = Vec::new();
        // push items high-to-low so everything buffers, skipping `skips`
        for seq in (0..100u64).rev() {
            if skips.contains(&seq) {
                released.extend(r.skip(seq));
            } else {
                released.extend(r.push(seq, seq));
            }
        }
        let expect: Vec<u64> = (0..100u64).filter(|s| !skips.contains(s)).collect();
        assert_eq!(released, expect);
    });
}

/// TCP segments survive emit -> parse for arbitrary field values.
#[test]
fn segment_roundtrip() {
    for_cases("segment_roundtrip", |rng| {
        let seq = rng.next_u32();
        let ack = rng.next_u32();
        let window = rng.next_u32() as u16;
        let sport = rng.range(1, u16::MAX as u64 - 1) as u16;
        let dport = rng.range(1, u16::MAX as u64 - 1) as u16;
        let payload: Vec<u8> = (0..rng.below(256)).map(|_| rng.next_u32() as u8).collect();
        let (tsval, tsecr) = (rng.next_u32(), rng.next_u32());
        let spec = SegmentSpec {
            src_port: sport,
            dst_port: dport,
            seq: SeqNum(seq),
            ack: SeqNum(ack),
            flags: TcpFlags::ACK | TcpFlags::PSH,
            window,
            options: TcpOptions {
                timestamp: Some((tsval, tsecr)),
                ..Default::default()
            },
            payload_len: payload.len(),
            ..Default::default()
        };
        let frame = spec.emit(&payload);
        let v = SegmentView::parse(&frame, true).unwrap();
        assert_eq!(v.seq, SeqNum(seq));
        assert_eq!(v.ack, SeqNum(ack));
        assert_eq!(v.window, window);
        assert_eq!(v.payload(&frame), &payload[..]);
        assert_eq!((v.tsval, v.tsecr), (tsval, tsecr));
    });
}

/// What a switch hop reads off a frame is what its emitter wrote:
/// `FrameMeta::parse` of an emitted frame equals the spec's fields —
/// through VLAN tagging/stripping, after checksum corruption (the summary
/// holds routing fields, which a checksum flip doesn't change), and
/// `None` exactly when the frame is not parseable IPv4.
#[test]
fn frame_meta_parse_equals_spec_fields() {
    for_cases("frame_meta_parse_equals_spec_fields", |rng| {
        let spec = SegmentSpec {
            src_mac: MacAddr::local(rng.range(1, 200) as u8),
            dst_mac: MacAddr::local(rng.range(1, 200) as u8),
            src_ip: Ip4::host(rng.range(1, 250) as u8),
            dst_ip: Ip4::host(rng.range(1, 250) as u8),
            src_port: rng.range(1, u16::MAX as u64 - 1) as u16,
            dst_port: rng.range(1, u16::MAX as u64 - 1) as u16,
            seq: SeqNum(rng.next_u32()),
            ack: SeqNum(rng.next_u32()),
            flags: TcpFlags::ACK | TcpFlags::PSH,
            window: rng.next_u32() as u16,
            ecn: match rng.below(4) {
                0 => Ecn::NotEct,
                1 => Ecn::Ect0,
                2 => Ecn::Ect1,
                _ => Ecn::Ce,
            },
            options: TcpOptions {
                timestamp: Some((rng.next_u32(), rng.next_u32())),
                ..Default::default()
            },
            payload_len: rng.below(512) as usize,
        };
        let mut frame = spec.emit_with(|b| b.fill(0x5a));

        let meta = FrameMeta {
            ethertype: ethertype::IPV4,
            ip_off: ETH_HDR_LEN as u8,
            protocol: protocol::TCP,
            ecn: spec.ecn,
            src_ip: spec.src_ip,
            dst_ip: spec.dst_ip,
            src_port: spec.src_port,
            dst_port: spec.dst_port,
            payload_len: spec.payload_len as u16,
            flow_basis: ecmp_basis(spec.src_ip, spec.dst_ip, spec.src_port, spec.dst_port),
        };
        assert_eq!(FrameMeta::parse(&frame), Some(meta));

        // VLAN insertion shifts the IP header; a reparse must follow it
        insert_vlan(&mut frame, rng.range(1, 4094) as u16);
        let tagged = FrameMeta::parse(&frame).expect("vlan frame parses");
        assert_eq!(
            FrameMeta {
                ip_off: meta.ip_off + 4,
                ethertype: meta.ethertype,
                ..meta
            },
            tagged
        );

        // …and stripping restores the original summary exactly
        strip_vlan(&mut frame).expect("tag present");
        assert_eq!(FrameMeta::parse(&frame), Some(meta));

        // corrupting the TCP checksum bytes doesn't change any routing
        // field, so a switch still reads the spec's summary (the *data
        // path* rejects the frame via checksum verification — which is why
        // links mark corrupted frames)
        let ck_off = 14 + 20 + 16;
        frame[ck_off] ^= 0xff;
        assert_eq!(FrameMeta::parse(&frame), Some(meta));
        frame[ck_off] ^= 0xff;

        // non-IP (ARP) and truncated frames have no summary
        frame[12..14].copy_from_slice(&ethertype::ARP.to_be_bytes());
        assert_eq!(FrameMeta::parse(&frame), None);
        frame[12..14].copy_from_slice(&ethertype::IPV4.to_be_bytes());
        assert_eq!(FrameMeta::parse(&frame[..rng.below(14) as usize]), None);

        // mangling the IP version makes the frame unparseable -> None
        frame[14] = 0x65;
        assert_eq!(FrameMeta::parse(&frame), None);
    });
}

/// Single-bit corruption anywhere in a frame is always detected by
/// the IP or TCP checksum.
#[test]
fn checksums_catch_single_bit_flips() {
    for_cases("checksums_catch_single_bit_flips", |rng| {
        let payload: Vec<u8> = (0..rng.range(1, 63))
            .map(|_| rng.next_u32() as u8)
            .collect();
        let spec = SegmentSpec {
            src_port: 1000,
            dst_port: 2000,
            flags: TcpFlags::ACK,
            payload_len: payload.len(),
            ..Default::default()
        };
        let mut frame = spec.emit(&payload);
        // flip one bit outside the Ethernet header (not checksummed)
        let idx = 14 + rng.below(frame.len() as u64 - 14) as usize;
        let bit = rng.below(8) as u8;
        frame[idx] ^= 1 << bit;
        assert!(SegmentView::parse(&frame, true).is_err());
    });
}

/// Incremental checksum update equals full recomputation.
#[test]
fn incremental_checksum_equivalence() {
    for_cases("incremental_checksum_equivalence", |rng| {
        let mut data: Vec<u8> = (0..rng.range(20, 63))
            .map(|_| rng.next_u32() as u8)
            .collect();
        if data.len() % 2 == 1 {
            data.pop();
        }
        let new_val = rng.next_u32() as u16;
        let pos = rng.below(data.len() as u64 / 2 - 1) as usize * 2;
        let ck = checksum::checksum(&data);
        let old = u16::from_be_bytes([data[pos], data[pos + 1]]);
        data[pos..pos + 2].copy_from_slice(&new_val.to_be_bytes());
        assert_eq!(
            checksum::checksum(&data),
            checksum::update16(ck, old, new_val)
        );
    });
}

/// The three receivers: Chelsio, FlexTOE/TAS and Linux.
fn receivers() -> [Reassembly; 3] {
    [
        Reassembly::InOrderOnly,
        Reassembly::OneInterval,
        Reassembly::Intervals(Box::default()),
    ]
}

/// Receiving arbitrary in-window segment sequences never corrupts the
/// protocol invariants, under every reassembly policy: rcv_nxt only
/// advances, rx_avail never underflows, the OOO interval stays ahead of
/// rcv_nxt.
#[test]
fn rx_state_invariants() {
    for_cases("rx_state_invariants", |rng| {
        let n_segs = rng.range(1, 59);
        let segs: Vec<(u32, u32)> = (0..n_segs)
            .map(|_| (rng.below(20_000) as u32, rng.range(1, 1999) as u32))
            .collect();
        for mut reasm in receivers() {
            let mut ps = ProtoState {
                seq: SeqNum(1),
                ack: SeqNum(10_000),
                rx_avail: 16_384,
                remote_win: u16::MAX,
                ..Default::default()
            };
            let mut last_ack = ps.ack;
            let mut budget = ps.rx_avail;
            for &(off, len) in &segs {
                let sum = RxSummary {
                    seq: SeqNum(10_000u32.wrapping_add(off)),
                    ack: SeqNum(1),
                    flags: TcpFlags::ACK | TcpFlags::PSH,
                    window: u16::MAX,
                    payload_len: len,
                    ..Default::default()
                };
                let out = proto::rx_segment(&mut ps, &sum, &mut reasm);
                // monotone rcv_nxt
                assert!(ps.ack.after_eq(last_ack));
                assert!(out.delivered == ps.ack - last_ack);
                last_ack = ps.ack;
                // rx_avail accounting: shrinks exactly by delivered bytes
                assert!(out.delivered <= budget);
                budget -= out.delivered;
                assert_eq!(ps.rx_avail, budget);
                // OOO interval is strictly ahead of rcv_nxt
                if ps.ooo_len > 0 {
                    assert!(ps.ooo_start.after(ps.ack), "{reasm:?}");
                    assert!((ps.ooo_start + ps.ooo_len) - ps.ack <= budget, "{reasm:?}");
                }
            }
        }
    });
}

/// Under every reassembly policy, a stream whose segments arrive
/// shuffled, duplicated, overlapping and past the window reaches the app
/// in order and byte-exact, and its FIN is consumed once, after the last
/// byte. Each round carries one segment at rcv_nxt (the sender's
/// go-back-N), so every round makes progress.
#[test]
fn every_receiver_delivers_the_stream_byte_exact() {
    const RX_SIZE: u32 = 4096;
    for_cases("every_receiver_delivers_the_stream_byte_exact", |rng| {
        let stream: Vec<u8> = (0..rng.range(1, 12_000))
            .map(|_| rng.next_u32() as u8)
            .collect();
        let total = stream.len() as u32;
        let isn = SeqNum(rng.next_u32());
        let draws = rng.next_u64();
        for mut reasm in receivers() {
            let mut rng = Rng::new(draws);
            let mut ps = ProtoState {
                ack: isn,
                rx_avail: RX_SIZE,
                remote_win: u16::MAX,
                ..Default::default()
            };
            let mut ring = vec![0u8; RX_SIZE as usize];
            let (mut got, mut app_pos, mut eof) = (0u32, 0u32, false);
            let mut rounds = 0;
            while !eof {
                rounds += 1;
                assert!(rounds <= total + 1, "{reasm:?} stalled at {got}/{total}");
                // one segment at rcv_nxt plus a few anywhere in 2 windows
                let mut batch = vec![got];
                for _ in 0..rng.below(6) {
                    batch.push((got + rng.below(2 * RX_SIZE as u64) as u32).min(total));
                }
                if rng.chance(0.3) {
                    batch.push(batch[rng.below(batch.len() as u64) as usize]);
                }
                rng.shuffle(&mut batch);
                for off in batch {
                    let len = (rng.range(1, 1448) as u32).min(total - off);
                    let fin = off + len == total;
                    let sum = RxSummary {
                        seq: isn + off,
                        flags: TcpFlags::ACK | if fin { TcpFlags::FIN } else { TcpFlags(0) },
                        window: u16::MAX,
                        payload_len: len,
                        ..Default::default()
                    };
                    let out = proto::rx_segment(&mut ps, &sum, &mut reasm);
                    if let Some(p) = out.placement {
                        let src = &stream[(off + p.frame_off) as usize..][..p.len as usize];
                        for (i, &b) in src.iter().enumerate() {
                            ring[(p.buf_pos.wrapping_add(i as u32) % RX_SIZE) as usize] = b;
                        }
                    }
                    // the app reads what was delivered, then frees it
                    for _ in 0..out.delivered {
                        let b = ring[(app_pos % RX_SIZE) as usize];
                        assert_eq!(b, stream[got as usize], "{reasm:?} byte {got}");
                        app_pos = app_pos.wrapping_add(1);
                        got += 1;
                    }
                    proto::hc_rx_consumed(&mut ps, out.delivered, 1448);
                    if out.fin_delivered {
                        assert!(!eof && got == total, "{reasm:?}: FIN at {got}/{total}");
                        eof = true;
                    }
                    let fin_seq = u32::from(eof);
                    assert_eq!(ps.ack, isn + (got + fin_seq), "{reasm:?}");
                }
            }
        }
    });
}

/// TX then cumulative-ACK sequences keep sender invariants:
/// tx_sent == seq - snd_una, buffers never double-free.
#[test]
fn tx_ack_invariants() {
    for_cases("tx_ack_invariants", |rng| {
        let n_ops = rng.range(1, 79);
        let mut ps = ProtoState {
            seq: SeqNum(5_000),
            ack: SeqNum(1),
            rx_avail: 4096,
            remote_win: 20_000,
            tx_avail: 100_000,
            ..Default::default()
        };
        let mut freed_total: u64 = 0;
        let mut sent_total: u64 = 0;
        for _ in 0..n_ops {
            if rng.chance(0.5) {
                if let Some(seg) = proto::tx_next(&mut ps, 1448) {
                    sent_total += seg.len as u64;
                }
            } else if ps.tx_sent > 0 {
                // peer cumulatively acks half of what is in flight
                let ackno = SeqNum(ps.snd_una().0.wrapping_add((ps.tx_sent / 2).max(1)));
                let sum = RxSummary {
                    seq: ps.ack,
                    ack: ackno,
                    flags: TcpFlags::ACK,
                    window: 20_000,
                    payload_len: 0,
                    ..Default::default()
                };
                let out = proto::rx_segment(&mut ps, &sum, &mut Reassembly::OneInterval);
                freed_total += out.acked_bytes as u64;
            }
            assert_eq!(ps.seq - ps.snd_una(), ps.tx_sent);
            assert!(ps.tx_sent <= 20_000, "never exceeds the peer window");
            assert!(freed_total <= sent_total);
        }
    });
}

/// The Carousel never duplicates a connection trigger beyond its
/// sendable bytes, and fairness holds for equal backlogs.
#[test]
fn carousel_conservation() {
    for_cases("carousel_conservation", |rng| {
        let n_conns = rng.range(1, 39) as usize;
        let backlog = rng.range(1, 19_999) as u32;
        let mut c = Carousel::with_defaults();
        for conn in 0..n_conns as u32 {
            c.register(conn);
            c.update_sendable(conn, backlog, Time::ZERO);
        }
        let mut per = vec![0u64; n_conns];
        let mut now = Time::ZERO;
        for _ in 0..(n_conns * 32) {
            if let Some(t) = c.next_trigger(now, 1448) {
                per[t.conn as usize] += t.bytes_est as u64;
            }
            now += Duration::from_us(1);
        }
        for (conn, &bytes) in per.iter().enumerate() {
            assert!(bytes <= backlog as u64, "conn {conn} over-triggered");
        }
        // everything drained exactly
        assert!(per.iter().all(|&b| b == backlog as u64));
    });
}

/// Histogram quantiles stay within the configured relative error.
#[test]
fn histogram_quantile_error() {
    for_cases("histogram_quantile_error", |rng| {
        let n = rng.range(10, 499) as usize;
        let values: Vec<u64> = (0..n).map(|_| rng.range(1, 999_999)).collect();
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in [0.25, 0.5, 0.9, 0.99] {
            let exact = sorted[((q * sorted.len() as f64).floor() as usize).min(sorted.len() - 1)];
            let approx = h.quantile(q);
            let rel = (approx as f64 - exact as f64).abs() / exact as f64;
            assert!(rel < 0.05, "q={q} exact={exact} approx={approx}");
        }
    });
}
