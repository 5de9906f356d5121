//! Workload-independent kernels: the hot inner operation of each layer,
//! timed alone. Each is repeated [`REPS`] times and the cheapest
//! repetition is reported (the slice floor with one slice per rep), so a
//! later issue that claims "the sketch update got cheaper" has a number
//! to point at that no workload's noise can hide.

use std::hint::black_box;
use std::time::Instant;

use flextoe_ccp::fold::{builtin_step, compile, encode_state, AckEvent, FOLD_BUF_SIZE, N_STATE};
use flextoe_ccp::FoldProg;
use flextoe_core::reorder::Reorder;
use flextoe_ebpf::{MapSet, Vm};
use flextoe_nfp::ConnStateCache;
use flextoe_sim::{Ctx, Duration, Msg, Node, NodeId, Sim, Time};
use flextoe_telemetry::{SketchCfg, SwitchSketch};
use flextoe_wire::checksum::checksum;
use flextoe_wire::{FrameMeta, SegmentSpec, TcpFlags};

use crate::child::SpanLog;

/// Repetitions per kernel.
pub const REPS: usize = 15;

/// `(metric name, unit)` of every kernel, in report order.
pub const KERNELS: [(&str, &str); 10] = [
    ("sim.kernel.dispatch_self_ns", "ns"),
    ("sim.kernel.dispatch_ring8_ns", "ns"),
    ("wire.kernel.emit_ns_per_frame", "ns"),
    ("wire.kernel.meta_parse_ns_per_frame", "ns"),
    ("wire.kernel.checksum_ns_per_kib", "ns"),
    ("telemetry.kernel.sketch_update_ns", "ns"),
    ("ccp.kernel.fold_native_ns_per_ack", "ns"),
    ("ebpf.kernel.fold_vm_ns_per_ack", "ns"),
    ("core.kernel.reorder_push_ns", "ns"),
    ("nfp.kernel.conn_cache_access_ns", "ns"),
];

/// Cheapest of [`REPS`] timings of `f`, which performs `ops` operations;
/// ns per operation.
fn floor_ns_per_op(ops: u64, mut f: impl FnMut()) -> f64 {
    f(); // fill caches, size buffers
    let best = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as u64
        })
        .min()
        .expect("REPS > 0");
    best as f64 / ops as f64
}

/// A node that forwards every token to `next` after `hop`.
struct Forwarder {
    next: NodeId,
    hop: Duration,
}

impl Node for Forwarder {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let Msg::Token(v) = msg else {
            panic!("forwarder: unexpected {}", msg.variant_name())
        };
        ctx.send(self.next, self.hop, v);
    }
}

/// Raw engine delivery cost: `nodes` token forwarders in a ring (as the
/// repo's `enginebench`). One node self-sends with zero delay — the
/// same-slot drain lane, long bursts; eight hand the token on after a
/// 25 ns hop — every delivery a singleton whose burst probe fails.
fn dispatch(nodes: usize, events: u64) {
    let mut sim = Sim::new(7);
    let ids: Vec<NodeId> = (0..nodes).map(|_| sim.reserve_node()).collect();
    let hop = if nodes == 1 {
        Duration::ZERO
    } else {
        Duration::from_ns(25)
    };
    for (i, &id) in ids.iter().enumerate() {
        sim.fill_node(
            id,
            Forwarder {
                next: ids[(i + 1) % nodes],
                hop,
            },
        );
    }
    sim.schedule(Time::ZERO, ids[0], 1u64);
    while sim.events_processed() < events && sim.step() {}
    assert!(sim.events_processed() >= events);
}

fn small_segment() -> SegmentSpec {
    SegmentSpec {
        src_port: 10_000,
        dst_port: 7_777,
        flags: TcpFlags::ACK | TcpFlags::PSH,
        payload_len: 64,
        ..Default::default()
    }
}

/// Time every kernel; returns `(metric name, ns per op)` in
/// [`KERNELS`] order and logs one span per kernel.
pub fn run(log: &mut SpanLog) -> Vec<(&'static str, f64)> {
    const N: u64 = 20_000;
    let mut out = Vec::with_capacity(KERNELS.len());
    let mut timed = |log: &mut SpanLog, ops: u64, f: &mut dyn FnMut()| {
        let name = KERNELS[out.len()].0;
        let at = log.now();
        let v = floor_ns_per_op(ops, f);
        log.close(name, at, "kernels");
        out.push((name, v));
    };

    let all = log.now();
    timed(log, 100_000, &mut || dispatch(1, 100_000));
    timed(log, 100_000, &mut || dispatch(8, 100_000));

    let spec = small_segment();
    let mut buf = Vec::new();
    timed(log, N, &mut || {
        for _ in 0..N {
            spec.emit_zeroed_into(black_box(&mut buf));
        }
    });
    let frame = spec.emit_zeroed();
    timed(log, N, &mut || {
        for _ in 0..N {
            black_box(FrameMeta::parse(black_box(&frame)).expect("well-formed frame"));
        }
    });
    let kib = vec![0xa5u8; 1024];
    timed(log, N, &mut || {
        for _ in 0..N {
            black_box(checksum(black_box(&kib)));
        }
    });

    let mut sketch = SwitchSketch::new(SketchCfg::default());
    timed(log, N, &mut || {
        for i in 0..N {
            // 4096 distinct flows, MTU-ish lengths
            let basis = (i % 4096).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            sketch.update(black_box(basis), 1_514);
        }
    });

    let ev = AckEvent {
        acked_bytes: 1_448,
        ecn_bytes: 0,
        rtt_us: 40,
        fast_retx: false,
        now_us: 1_000,
    };
    let mut state = [0u32; N_STATE];
    timed(log, N, &mut || {
        for _ in 0..N {
            builtin_step(black_box(&mut state), black_box(&ev));
        }
    });
    let prog = compile(&FoldProg::builtin());
    let (mut vm, mut maps) = (Vm::new(), MapSet::new());
    let mut fold_buf = [0u8; FOLD_BUF_SIZE];
    encode_state(&[0u32; N_STATE], &mut fold_buf);
    timed(log, N, &mut || {
        for _ in 0..N {
            // as the datapath does per ACK: encode the event, run the fold
            ev.encode_into(&mut fold_buf);
            black_box(
                vm.run(&prog, &mut fold_buf, &mut maps)
                    .expect("builtin fold does not trap"),
            );
        }
    });

    let mut released = Vec::with_capacity(8);
    timed(log, N, &mut || {
        let mut r: Reorder<u64> = Reorder::new();
        for base in (0..N).step_by(8) {
            // one adjacent pair in eight arrives swapped
            for seq in [
                base + 1,
                base,
                base + 2,
                base + 3,
                base + 4,
                base + 5,
                base + 6,
                base + 7,
            ] {
                released.clear();
                r.push_into(seq, seq, &mut released);
                black_box(&released);
            }
        }
    });

    let platform = flextoe_nfp::agilio_cx40();
    let mut cache = ConnStateCache::with_defaults(&platform);
    timed(log, N, &mut || {
        // half on a working set that fits the on-chip tiers (16 conns),
        // half on one that walks out to EMEM (4096 conns)
        for i in 0..N as u32 / 2 {
            black_box(cache.access(i % 16));
            black_box(cache.access(i % 4096));
        }
    });
    log.close("kernels", all, "-");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_is_per_operation_and_positive() {
        let mut calls = 0;
        let v = floor_ns_per_op(1_000, || {
            calls += 1;
            black_box((0..1_000u64).sum::<u64>());
        });
        assert_eq!(calls, REPS + 1, "one warm-up plus REPS timed runs");
        assert!(v >= 0.0);
    }

    #[test]
    fn dispatch_rings_deliver_the_events_asked_for() {
        dispatch(1, 1_000);
        dispatch(8, 1_000);
    }
}
