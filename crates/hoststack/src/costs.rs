//! Per-stack host-CPU cost models, calibrated to Table 1 (per-request
//! cycle breakdowns at 2 GHz) and Table 6 (TAS per-packet fast path).
//!
//! Category semantics:
//! * `per_packet_stack` — TCP/IP + driver cycles per data packet,
//!   executed on the stack's processing core (the *application* core for
//!   in-kernel stacks; dedicated fast-path cores for TAS).
//! * `sockets_per_op` — POSIX-sockets cycles per send/recv/poll, always on
//!   the application core.
//! * `other_per_req` — Table 1's "Other" row (mode switches, scheduling).

use flextoe_core::proto::Reassembly;

/// Which baseline a host-stack node models.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StackKind {
    /// In-kernel Linux TCP: bulky but robust (multi-interval reassembly).
    Linux,
    /// TAS: user-space fast path on dedicated cores; go-back-N.
    Tas,
    /// Chelsio Terminator TOE: TCP in NIC ASIC; kernel socket interface;
    /// drops all out-of-order segments.
    Chelsio,
    /// FlexTOE's Table 3 "Baseline": the same data-path run-to-completion
    /// on a single FPC, no pipelining.
    FlexBaselineFpc,
}

#[derive(Clone, Copy, Debug)]
pub struct StackCosts {
    /// TCP/IP + driver cycles per data packet on the stack core.
    pub per_packet_stack: u64,
    /// Memory-wait share of per-packet processing (overlappable on
    /// multi-threaded cores; stalls single-threaded ones).
    pub per_packet_mem: u64,
    /// Sockets cycles per send/recv call on the app core.
    pub sockets_send: u64,
    pub sockets_recv: u64,
    /// Readiness-poll cycles per round on the app core (Chelsio's epoll
    /// pain grows with connection count — see `poll_per_conn`).
    pub sockets_poll: u64,
    /// Additional poll cycles per open connection (epoll scan factor).
    pub poll_per_conn: u64,
    /// "Other" per request on the app core.
    pub other_per_req: u64,
    /// Kernel-lock contention: stack cycles multiply by
    /// `1 + contention * (cores - 1)` when the stack runs on n app cores.
    pub contention: f64,
}

/// Linux (Table 1): 12.13 kc/request total — driver 0.71, stack 4.25,
/// sockets 2.48, other 3.42. A memcached request is ~2 data packets +
/// 1 ACK at the server, so stack+driver ≈ 1.9 kc/packet.
pub const LINUX: StackCosts = StackCosts {
    per_packet_stack: 1900,
    per_packet_mem: 700,
    sockets_send: 1240,
    sockets_recv: 1240,
    sockets_poll: 600,
    poll_per_conn: 2,
    other_per_req: 3420,
    contention: 0.35,
};

/// TAS (Tables 1 and 6): fast path 1.44 kc + driver 0.18 kc per request on
/// dedicated cores; sockets 0.79 kc, other 0.09 kc on the app core.
pub const TAS: StackCosts = StackCosts {
    per_packet_stack: 640, // (1440+180)/2.5 packets
    per_packet_mem: 220,
    sockets_send: 395,
    sockets_recv: 395,
    sockets_poll: 90,
    poll_per_conn: 0,
    other_per_req: 90,
    contention: 0.0,
};

/// Chelsio (Table 1): host TCP cycles nearly gone (0.40 kc) but the
/// kernel interface stays: driver 1.28, sockets 2.61, other 3.28 kc.
/// The ASIC data path itself is fast (per-packet cost charged on the NIC
/// engine at 100 ns/packet equivalent).
pub const CHELSIO_HOST: StackCosts = StackCosts {
    per_packet_stack: 670, // (0.40+1.28) kc per ~2.5 packets
    per_packet_mem: 250,
    sockets_send: 1300,
    sockets_recv: 1300,
    sockets_poll: 900,
    poll_per_conn: 12, // epoll dominates at high connection counts (§5.2)
    other_per_req: 3280,
    contention: 0.25,
};

/// FlexTOE Table 3 Baseline: the entire TCP processing run-to-completion
/// on one 800 MHz FPC, including serialized PCIe waits. Cycle budget is
/// the sum of all pipeline-stage budgets (no overlap) plus descriptor
/// management.
pub const FLEX_BASELINE_FPC: StackCosts = StackCosts {
    per_packet_stack: 900,
    per_packet_mem: 2600, // every memory/PCIe wait fully exposed
    sockets_send: 280,
    sockets_recv: 280,
    sockets_poll: 220,
    poll_per_conn: 0,
    other_per_req: 40,
    contention: 0.0,
};

impl StackKind {
    pub fn costs(self) -> StackCosts {
        match self {
            StackKind::Linux => LINUX,
            StackKind::Tas => TAS,
            StackKind::Chelsio => CHELSIO_HOST,
            StackKind::FlexBaselineFpc => FLEX_BASELINE_FPC,
        }
    }

    /// What this stack's receiver keeps of out-of-order data (Fig. 15).
    pub fn reassembly(self) -> Reassembly {
        match self {
            StackKind::Linux => Reassembly::Intervals(Box::default()),
            StackKind::Chelsio => Reassembly::InOrderOnly,
            StackKind::Tas | StackKind::FlexBaselineFpc => Reassembly::OneInterval,
        }
    }

    /// Does TCP processing share the application core? (In-kernel stacks.)
    pub fn stack_on_app_core(self) -> bool {
        matches!(self, StackKind::Linux | StackKind::Chelsio)
    }

    pub fn name(self) -> &'static str {
        match self {
            StackKind::Linux => "linux",
            StackKind::Tas => "tas",
            StackKind::Chelsio => "chelsio",
            StackKind::FlexBaselineFpc => "flextoe-baseline",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_per_request_totals_roughly_match() {
        // request ≈ recv + send + poll + other (app core) + 2.5 packets of
        // stack processing. Check each stack's total against Table 1.
        let total = |c: &StackCosts| {
            c.sockets_send
                + c.sockets_recv
                + c.sockets_poll
                + c.other_per_req
                + (2.5 * c.per_packet_stack as f64) as u64
        };
        let linux = total(&LINUX) + 1260; // + app cycles (Table 1: 1.26 kc)
        assert!(
            (11_000..=13_500).contains(&linux),
            "linux {linux} vs 12.13 kc"
        );
        let tas = total(&TAS) + 850;
        assert!((3_000..=3_800).contains(&tas), "tas {tas} vs 3.34 kc");
        let chelsio = total(&CHELSIO_HOST) + 1310;
        assert!(
            (8_000..=9_800).contains(&chelsio),
            "chelsio {chelsio} vs 8.89 kc"
        );
    }

    #[test]
    fn host_tcp_cycles_ordering_matches_paper() {
        // Table 1 TCP/IP+driver rows: Linux 4.96 >> Chelsio 1.68 > TAS's
        // host share (TAS's stack cycles run on dedicated cores).
        const { assert!(LINUX.per_packet_stack > CHELSIO_HOST.per_packet_stack) };
        const { assert!(LINUX.per_packet_stack > TAS.per_packet_stack) };
    }

    #[test]
    fn kind_properties() {
        assert!(StackKind::Linux.stack_on_app_core());
        assert!(StackKind::Chelsio.stack_on_app_core());
        assert!(!StackKind::Tas.stack_on_app_core());
        assert_eq!(StackKind::Tas.name(), "tas");
    }
}
