//! Microbenchmarks on the data-path's hot structures — the engine's event
//! core (the event wheel vs. its binary-heap ordering oracle), the FPC
//! timing model and local CAM,
//! the checksum/CRC paths, segment build/parse, the reorder buffer, the
//! Carousel wheel, the protocol state machine, and the eBPF VM.
//!
//! The container has no third-party crates, so this is a hand-rolled
//! harness (`harness = false`): each benchmark reports its median ns/op
//! over several timed runs. Run with:
//!
//! ```sh
//! cargo bench -p flextoe-bench
//! # engine comparison only:
//! cargo bench -p flextoe-bench -- engine
//! ```

use std::hint::black_box;
use std::time::Instant;

use flextoe_core::proto::{self, Reassembly, RxSummary};
use flextoe_core::reorder::Reorder;
use flextoe_core::sched::Carousel;
use flextoe_core::ProtoState;
use flextoe_ebpf::{programs, Map, MapSet, Vm};
use flextoe_nfp::{Cost, FpcTimer, LocalCam};
use flextoe_sim::{clocks, Duration, QueueKind, Rng, Time};
use flextoe_wire::{crc32, SegmentSpec, SegmentView, SeqNum, TcpFlags};

// ---- harness -------------------------------------------------------------

const RUNS: usize = 5;

/// Time `f` (which performs `iters` operations) RUNS times; report the
/// median ns/op.
fn bench_n(name: &str, iters: u64, mut f: impl FnMut()) -> f64 {
    f(); // warmup
    let mut samples: Vec<f64> = (0..RUNS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    let med = samples[RUNS / 2];
    println!("{name:<44} {med:>10.1} ns/op   ({:.1} Mops/s)", 1e3 / med);
    med
}

// ---- engine pipeline benchmark --------------------------------------------

use flextoe_bench::enginebench::{
    best_of, dispatch_events_per_sec, pipeline_events_per_sec, sweep_us_per_epoch,
    switch_forwarding_fps, DISPATCH_EVENTS, PIPE_EVENTS, SWEEP_FLOWS, SWITCH_FRAMES,
};

fn bench_engine() {
    let mut by_queue = Vec::new();
    println!("-- engine: {PIPE_EVENTS} events through a 6-stage pipeline ring --");
    for (name, kind) in [
        ("engine/heap_typed (ordering oracle)", QueueKind::Heap),
        (
            "engine/wheel_typed (default configuration)",
            QueueKind::Wheel,
        ),
    ] {
        let eps = best_of(3, || pipeline_events_per_sec(kind));
        println!("{name:<44} {:>10.2} M events/s", eps / 1e6);
        by_queue.push(eps);
    }
    let (heap_typed, wheel_typed) = (by_queue[0], by_queue[1]);

    // Both switch rows run one hop back to back, so the sketch's cells
    // stay in cache between frames: forward_sketched cannot see what the
    // per-frame update costs in situ, where a fabric's other events evict
    // them. The telemetry/epoch row times that work wherever it lands.
    println!("-- switch: {SWITCH_FRAMES} frames through one ECMP leaf hop --");
    for (name, sketched) in [
        ("switch/forward (one parse per hop)", false),
        ("switch/forward_sketched (telemetry armed)", true),
    ] {
        let fps = best_of(2, || switch_forwarding_fps(sketched));
        println!("{name:<44} {:>10.2} M frames/s", fps / 1e6);
    }
    // best of three by total; no gate, the reading is too noisy for one
    let (feed, encode, merge) = (0..3)
        .map(|_| sweep_us_per_epoch())
        .min_by(|a, b| (a.0 + a.1 + a.2).total_cmp(&(b.0 + b.1 + b.2)))
        .expect("three runs");
    println!(
        "{:<44} {:>10.1} us/epoch   (feed {feed:.1} + encode {encode:.1} + merge {merge:.1}, \
         {SWEEP_FLOWS} flows)",
        "telemetry/epoch (4x4096 feed + encode + merge)",
        feed + encode + merge
    );

    println!("-- dispatch: {DISPATCH_EVENTS} raw token deliveries --");
    for (name, nodes) in [
        ("dispatch/self_send (staged-bucket inserts)", 1),
        ("dispatch/ring8 (one bucket per delivery)", 8),
    ] {
        let eps = best_of(2, || dispatch_events_per_sec(nodes));
        println!("{name:<44} {:>10.2} M events/s", eps / 1e6);
    }

    // The timing-model kernels every FlexTOE stage event pays on top of
    // its dispatch: the FPC issue/thread model and the local CAM lookup.
    println!("-- timing kernels: ns per call --");
    bench_n("fpc/execute (8 threads, back-to-back)", 100_000, || {
        let mut fpc = FpcTimer::new(clocks::FPC_800MHZ, 8);
        let mut now = Time::ZERO;
        for i in 0..100_000u64 {
            now += Duration::from_ns(40);
            black_box(fpc.execute(now, Cost::new(60, 160 * (i & 1))));
        }
    });
    let mut rng = Rng::new(0xCA4);
    let keys: Vec<u32> = (0..4096).map(|_| rng.below(18) as u32).collect();
    bench_n("cam/local (18 ids over 16 entries)", 100_000, || {
        let mut cam = LocalCam::default();
        for &key in keys.iter().cycle().take(100_000) {
            black_box(cam.access(key));
        }
    });

    // The heap is the wheel's ordering oracle; if it also wins on speed it
    // should be the production queue. Same process, same messages.
    if wheel_typed < heap_typed {
        eprintln!(
            "FAIL: engine/wheel_typed ({:.2} M events/s) is slower than its oracle \
             engine/heap_typed ({:.2} M events/s)",
            wheel_typed / 1e6,
            heap_typed / 1e6
        );
        std::process::exit(1);
    }
}

// ---- data-structure microbenchmarks (ported from the criterion suite) ----

fn bench_wire() {
    let payload = vec![0xabu8; 1448];
    let spec = SegmentSpec {
        src_port: 1,
        dst_port: 2,
        flags: TcpFlags::ACK | TcpFlags::PSH,
        payload_len: payload.len(),
        ..Default::default()
    };
    let frame = spec.emit(&payload);

    bench_n("wire/emit_mtu_segment", 10_000, || {
        for _ in 0..10_000 {
            black_box(spec.emit(black_box(&payload)));
        }
    });
    bench_n("wire/emit_mtu_segment_pooled", 10_000, || {
        let mut buf = Vec::new();
        for _ in 0..10_000 {
            spec.emit_payload_into(&mut buf, black_box(&payload));
            black_box(&buf);
        }
    });
    bench_n("wire/parse_mtu_segment", 10_000, || {
        for _ in 0..10_000 {
            black_box(SegmentView::parse(black_box(&frame), true).unwrap());
        }
    });
    bench_n("wire/crc32_4tuple", 100_000, || {
        for _ in 0..100_000 {
            black_box(crc32(black_box(&frame[26..38])));
        }
    });
}

fn bench_proto() {
    bench_n("proto/rx_in_order", 100_000, || {
        let mut ps = ProtoState {
            ack: SeqNum(0),
            rx_avail: u32::MAX / 2,
            remote_win: u16::MAX,
            ..Default::default()
        };
        let (mut seq, mut reasm) = (0u32, Reassembly::OneInterval);
        for _ in 0..100_000 {
            let sum = RxSummary {
                seq: SeqNum(seq),
                flags: TcpFlags::ACK | TcpFlags::PSH,
                window: u16::MAX,
                payload_len: 1448,
                ..Default::default()
            };
            seq = seq.wrapping_add(1448);
            black_box(proto::rx_segment(&mut ps, &sum, &mut reasm));
        }
    });
    bench_n("proto/tx_next", 100_000, || {
        let mut ps = ProtoState {
            remote_win: u16::MAX,
            tx_avail: u32::MAX / 2,
            ..Default::default()
        };
        for _ in 0..100_000 {
            if ps.tx_sent > 40_000 {
                ps.tx_sent = 0; // "ack" everything
            }
            black_box(proto::tx_next(&mut ps, 1448));
        }
    });
}

fn bench_reorder() {
    bench_n("reorder/in_order_push", 100_000, || {
        let mut r = Reorder::new();
        for seq in 0..100_000u64 {
            black_box(r.push(seq, seq));
        }
    });
    bench_n("reorder/window_of_8_shuffled", 100_000, || {
        let mut r: Reorder<u64> = Reorder::new();
        let mut base = 0u64;
        for _ in 0..100_000 / 8 {
            for i in (0..8).rev() {
                black_box(r.push(base + i, base + i));
            }
            base += 8;
        }
    });
}

fn bench_carousel() {
    bench_n("carousel/trigger_uncongested", 100_000, || {
        let mut car = Carousel::with_defaults();
        for conn in 0..64 {
            car.register(conn);
            car.update_sendable(conn, u32::MAX / 2, Time::ZERO);
        }
        for _ in 0..100_000 {
            black_box(car.next_trigger(Time::ZERO, 1448));
        }
    });
    bench_n("carousel/trigger_paced", 100_000, || {
        let mut car = Carousel::with_defaults();
        for conn in 0..64 {
            car.register(conn);
            car.set_rate(conn, 100); // 100 ps/byte
            car.update_sendable(conn, u32::MAX / 2, Time::ZERO);
        }
        let mut now = Time::ZERO;
        for _ in 0..100_000 {
            now += Duration::from_ns(200);
            black_box(car.next_trigger(now, 1448));
        }
    });
}

fn bench_ebpf() {
    let mut frame = vec![0u8; 64];
    frame[12..14].copy_from_slice(&0x0800u16.to_be_bytes());
    frame[14] = 0x45;
    frame[23] = 6;
    bench_n("ebpf/null_program", 100_000, || {
        let prog = programs::null_pass();
        let mut vm = Vm::new();
        let mut maps = MapSet::new();
        for _ in 0..100_000 {
            black_box(vm.run(&prog, &mut frame, &mut maps).unwrap());
        }
    });
    bench_n("ebpf/splice_miss", 100_000, || {
        let mut maps = MapSet::new();
        let fd = maps.add(Map::hash(
            programs::SPLICE_KEY_SIZE,
            programs::SPLICE_VALUE_SIZE,
            64,
        ));
        let prog = programs::splice(fd);
        let mut vm = Vm::new();
        for _ in 0..100_000 {
            black_box(vm.run(&prog, &mut frame, &mut maps).unwrap());
        }
    });
}

fn main() {
    let filter: Option<String> = std::env::args()
        .skip(1)
        .find(|a| !a.starts_with('-') && a != "--bench");
    let groups: [(&str, fn()); 6] = [
        ("engine", bench_engine),
        ("wire", bench_wire),
        ("proto", bench_proto),
        ("reorder", bench_reorder),
        ("carousel", bench_carousel),
        ("ebpf", bench_ebpf),
    ];
    for (group, run) in groups {
        if filter.as_deref().is_none_or(|f| group.contains(f)) {
            run();
        }
    }
}
