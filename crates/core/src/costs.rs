//! Per-stage cycle budgets — the calibration layer between the real TCP
//! logic and the simulated hardware.
//!
//! Compute budgets are instruction-execution cycles on the stage's FPC;
//! memory budgets are overlappable wait cycles charged *in addition to*
//! the modeled cache-hierarchy and lookup-engine costs.
//!
//! Anchors from the paper:
//! * Table 2 "Baseline 11.35 MOps": a data-path echo op traverses
//!   RX-request + HC-doorbell + TX-response + RX-ack through one
//!   flow-group's protocol FPC, so the protocol budgets below put one
//!   island at ≈ 2.9 M ops/s and four islands at ≈ 11.5 M ops/s.
//! * §2.3: the DCTCP gradient costs 1,500 cycles on an FPC — far above
//!   any per-segment budget here, which is why congestion control lives
//!   in the control plane.
//! * Table 6: TAS's *host* per-packet costs (used by `flextoe-hoststack`,
//!   not here).

use flextoe_nfp::Cost;

/// Pre-processing, RX direction: Val + Id + Sum + Steer (Fig. 6).
/// (The connection-lookup cost is modeled separately by `LookupCache`.)
pub const PRE_RX: Cost = Cost {
    compute: 70,
    mem: 40,
};

/// Pre-processing, TX direction: Alloc + Head + Steer (Fig. 5). Segment
/// buffers are allocated in island CTM.
pub const PRE_TX: Cost = Cost {
    compute: 60,
    mem: 80,
};

/// Pre-processing, HC direction: Steer only (Fig. 4).
pub const PRE_HC: Cost = Cost {
    compute: 20,
    mem: 10,
};

/// Protocol stage, RX: Win — window/reassembly/dup-ACK bookkeeping.
/// (Connection-state fetch cost is modeled by `ConnStateCache`.)
pub const PROTO_RX: Cost = Cost {
    compute: 110,
    mem: 30,
};

/// Protocol stage, RX of a pure ACK (no payload placement math).
pub const PROTO_RX_ACK: Cost = Cost {
    compute: 60,
    mem: 20,
};

/// Protocol stage, TX: Seq — sequence/position assignment.
pub const PROTO_TX: Cost = Cost {
    compute: 70,
    mem: 20,
};

/// Protocol stage, HC: Win / Fin / Reset.
pub const PROTO_HC: Cost = Cost {
    compute: 45,
    mem: 15,
};

/// Post-processing, RX: Ack + ECN + Stamp + Stats + Pos (Fig. 6).
pub const POST_RX: Cost = Cost {
    compute: 110,
    mem: 50,
};

/// Post-processing, TX: Pos (Fig. 5).
pub const POST_TX: Cost = Cost {
    compute: 40,
    mem: 20,
};

/// Post-processing, HC: FS + Free (Fig. 4).
pub const POST_HC: Cost = Cost {
    compute: 30,
    mem: 15,
};

/// DMA stage descriptor handling (enqueue to the PCIe block); the
/// transfer itself is timed by `flextoe_nfp::DmaEngine`.
pub const DMA_STAGE: Cost = Cost {
    compute: 35,
    mem: 25,
};

/// Context-queue stage: descriptor alloc / notify / free.
pub const CTXQ_STAGE: Cost = Cost {
    compute: 60,
    mem: 30,
};

/// Sequencer / reorderer handling per segment (§3.2 "We leverage
/// additional FPCs for sequencing, buffering, and reordering").
pub const SEQR: Cost = Cost {
    compute: 20,
    mem: 10,
};

/// Flow-scheduler work per scheduling decision (Carousel enqueue/dequeue
/// on EMEM hardware queues, §3.4).
pub const SCHED_DECISION: Cost = Cost {
    compute: 80,
    mem: 60,
};

/// TCP/IP checksum of an MTU segment (CRC/checksum acceleration on the
/// packet engines; charged on the DMA stage at emit time).
pub const CHECKSUM: Cost = Cost {
    compute: 25,
    mem: 0,
};

/// Built-in congestion-measurement fold, native fast path (per-ACK state
/// accumulation in the post-processor — a handful of adds; far below the
/// §2.3 1,500-cycle control computation it replaces on the FPC). Custom
/// folds instead charge `ext::EBPF_PER_INSN` per executed instruction.
pub const FOLD_NATIVE: Cost = Cost {
    compute: 10,
    mem: 6,
};

/// Extension-module overheads (Table 2).
pub mod ext {
    use flextoe_nfp::Cost;
    /// All 48 tracepoints enabled: counters on every stage transition.
    /// Table 2: 11.35 -> 8.67 MOps (-24%).
    pub const TRACEPOINTS_PER_STAGE: Cost = Cost {
        compute: 22,
        mem: 8,
    };
    /// tcpdump logging, per packet (filter eval + capture copy).
    /// Table 2: -43% with all packets logged.
    pub const TCPDUMP_CAPTURE: Cost = Cost {
        compute: 150,
        mem: 160,
    };
    /// Per-eBPF-instruction interpretation cost (NFP executes compiled
    /// eBPF natively; a small multiple of native cost models the
    /// marshalling + map helpers).
    pub const EBPF_PER_INSN: Cost = Cost { compute: 2, mem: 0 };
    /// XDP harness overhead per packet (Table 2: null program -4%).
    pub const XDP_HARNESS: Cost = Cost {
        compute: 30,
        mem: 10,
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use flextoe_sim::clocks::FPC_800MHZ;

    #[test]
    fn protocol_island_rate_matches_table2_anchor() {
        // One echo op ≈ RX(data) + HC + TX + RX(ack) on the protocol FPC.
        let per_op = PROTO_RX.compute + PROTO_HC.compute + PROTO_TX.compute + PROTO_RX_ACK.compute;
        let island_ops = FPC_800MHZ.hz() / per_op;
        let total = island_ops * 4; // four flow-group islands
        assert!(
            (10_000_000..=13_000_000).contains(&total),
            "4-island echo rate {total} ops/s should be ≈ 11.35 MOps (Table 2)"
        );
    }

    #[test]
    fn per_segment_budgets_are_far_below_cc_cost() {
        // §2.3: congestion avoidance costs 1,500 cycles — data-path stages
        // must be an order of magnitude cheaper.
        for c in [PRE_RX, PROTO_RX, POST_RX, DMA_STAGE, CTXQ_STAGE] {
            assert!(c.total() < 300, "{c:?}");
        }
    }

    #[test]
    fn tracepoint_overhead_near_paper_ratio() {
        // Tracepoints add cost at ~5 stage transitions per op on the
        // protocol-path; Table 2 reports 11.35 -> 8.67 MOps (ratio 0.764).
        let base = PROTO_RX.compute + PROTO_HC.compute + PROTO_TX.compute + PROTO_RX_ACK.compute;
        let with = base + 4 * ext::TRACEPOINTS_PER_STAGE.compute;
        let ratio = base as f64 / with as f64;
        assert!((0.70..=0.83).contains(&ratio), "ratio {ratio}");
    }
}
