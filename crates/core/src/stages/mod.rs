//! The data-path pipeline stages as simulation nodes (§3.1, Figure 3).
//!
//! Each stage node owns one or more FPC timers (replication, §3.3) and the
//! stage-private state of §A. Stages communicate through timestamped
//! messages; inter-stage queue latencies (CLS rings intra-island, IMEM
//! work queues across islands, §4.1 "FPC mapping") are charged on the
//! sending side.

pub mod ctxq;
pub mod dmast;
pub mod post;
pub mod pre;
pub mod proto_stage;
pub mod schedn;
pub mod seqr;

use std::rc::Rc;

use flextoe_nfp::{Cost, FpcTimer, Platform};
use flextoe_sim::{Duration, Time};

/// Pipeline configuration — the knobs behind Table 3, Figure 14 and the
/// Table 2 extension rows.
#[derive(Clone)]
pub struct PipeCfg {
    pub platform: Platform,
    pub mss: u32,
    /// Flow-group pipelines (protocol islands). Agilio CX40: 4.
    pub n_groups: usize,
    /// Pre-processor FPC pool size (pre-processors "handle segments for
    /// any flow", §4.1), shared across groups.
    pub pre_replicas: usize,
    /// Post-processor replicas per flow-group.
    pub post_replicas: usize,
    /// Hardware threads per FPC (1 disables intra-FPC parallelism —
    /// the Table 3 ablation knob).
    pub threads_per_fpc: usize,
    /// Sequencing + reordering enabled (§3.2; ablation knob).
    pub reorder: bool,
    /// Table 2 "Statistics and profiling": all 48 tracepoints enabled.
    pub tracepoints: bool,
    /// FPCs running the flow scheduler.
    pub sched_fpcs: usize,
    /// Default per-socket buffer sizes installed by the control plane.
    pub rx_buf_size: u32,
    pub tx_buf_size: u32,
    /// Cap on live [`crate::segment::WorkPool`] slots (None = unbounded,
    /// the historical behavior). When the pool is full, RX ingress sheds
    /// frames with a counted `nic.pool_exhausted` drop instead of growing
    /// the slab — backpressure as a degraded mode, not a panic.
    pub work_pool_cap: Option<usize>,
}

impl PipeCfg {
    /// The full Agilio CX40 configuration (§4.1): four flow-group islands,
    /// 4 FPCs on pre/post per island, 8 hardware threads.
    pub fn agilio_full() -> PipeCfg {
        PipeCfg {
            platform: flextoe_nfp::agilio_cx40(),
            mss: flextoe_wire::MSS_WITH_TS as u32,
            n_groups: 4,
            pre_replicas: 8, // 2 per island
            post_replicas: 2,
            threads_per_fpc: 8,
            reorder: true,
            tracepoints: false,
            sched_fpcs: 4,
            rx_buf_size: 64 * 1024,
            tx_buf_size: 64 * 1024,
            work_pool_cap: None,
        }
    }

    /// Table 3 "+ Pipelining": one island, no replication, single-threaded
    /// FPCs.
    pub fn agilio_pipelined_only() -> PipeCfg {
        PipeCfg {
            n_groups: 1,
            pre_replicas: 1,
            post_replicas: 1,
            threads_per_fpc: 1,
            sched_fpcs: 1,
            ..Self::agilio_full()
        }
    }

    /// Table 3 "+ Intra-FPC parallelism".
    pub fn agilio_intra_fpc() -> PipeCfg {
        PipeCfg {
            threads_per_fpc: 8,
            ..Self::agilio_pipelined_only()
        }
    }

    /// Table 3 "+ Replicated pre/post".
    pub fn agilio_replicated() -> PipeCfg {
        PipeCfg {
            pre_replicas: 2,
            post_replicas: 2,
            sched_fpcs: 2,
            ..Self::agilio_intra_fpc()
        }
    }

    /// §E ports: single pipeline, platform-specific costs. `replicated`
    /// gives the FlexTOE-2x configuration (9 cores) vs FlexTOE-scalar (7).
    pub fn port(platform: Platform, replicated: bool) -> PipeCfg {
        PipeCfg {
            platform,
            n_groups: 1,
            pre_replicas: if replicated { 2 } else { 1 },
            post_replicas: if replicated { 2 } else { 1 },
            threads_per_fpc: platform.threads_per_fpc,
            sched_fpcs: 1,
            ..Self::agilio_full()
        }
    }

    /// Intra-island hop latency (CLS ring).
    pub fn hop_intra(&self) -> Duration {
        self.platform.cycles(self.platform.mem.cls)
    }

    /// Cross-island hop latency (IMEM/EMEM work queue).
    pub fn hop_cross(&self) -> Duration {
        self.platform.cycles(self.platform.mem.imem)
    }

    /// Tracepoint overhead per stage transition, when enabled.
    pub fn trace_cost(&self) -> flextoe_nfp::Cost {
        if self.tracepoints {
            crate::costs::ext::TRACEPOINTS_PER_STAGE
        } else {
            flextoe_nfp::Cost::ZERO
        }
    }
}

pub type SharedCfg = Rc<PipeCfg>;

/// A stage's replicated FPCs (§3.3), taking work items round robin.
pub(crate) struct FpcPool {
    fpcs: Vec<FpcTimer>,
    rr: usize,
    /// Tracepoint overhead added to every item ([`PipeCfg::trace_cost`]).
    trace: Cost,
}

impl FpcPool {
    /// `n` FPCs (at least one) of `cfg.threads_per_fpc` threads each.
    pub(crate) fn new(cfg: &PipeCfg, n: usize) -> FpcPool {
        FpcPool {
            fpcs: (0..n.max(1))
                .map(|_| FpcTimer::new(cfg.platform.clock, cfg.threads_per_fpc))
                .collect(),
            rr: 0,
            trace: cfg.trace_cost(),
        }
    }

    /// Run one item of `cost` on the next FPC; the delay from `now` until
    /// it completes.
    pub(crate) fn exec(&mut self, now: Time, cost: Cost) -> Duration {
        let i = self.rr % self.fpcs.len();
        self.rr += 1;
        let done = self.fpcs[i].execute(now, cost + self.trace);
        done.saturating_since(now)
    }
}

// ---- inter-stage messages ------------------------------------------------
//
// Everything sent per frame, per request or per CC report (work tokens,
// NBI frames, transfer completions, FS updates, doorbells, descriptor
// credits, notification jobs, application wake-ups, scheduler MMIO) is a
// typed `flextoe_sim::Msg` variant — allocation-free. Only the cold
// set-up messages below travel as `Msg::Custom`.

// Re-exported so `flextoe_core::stages::{Doorbell, …}` imports work.
pub use flextoe_sim::{AppNotify, Doorbell, FreeDesc, FsUpdate, NotifyJob, SchedCtl};

/// A frame redirected to the control plane (non-data-path segments,
/// XDP_REDIRECT verdicts).
pub struct Redirect(pub flextoe_wire::Frame);

/// Register an application context with the context-queue stage (done by
/// the control plane at application startup, §D).
pub struct RegisterCtx {
    pub ctx: u16,
    pub queue: crate::hostmem::SharedCtxQueue,
    /// Application node to wake via MSI-X/eventfd (None = pure polling).
    pub app: Option<flextoe_sim::NodeId>,
}

flextoe_sim::custom_msg!(Redirect, RegisterCtx);
