//! # flextoe-core — the FlexTOE TCP data-path
//!
//! The paper's primary contribution (§3): a TCP data-path decomposed into
//! fine-grained modules organized as a data-parallel pipeline —
//! pre-processing, protocol, post-processing, DMA, and context-queue
//! stages — with segment sequencing/reordering, a Carousel flow scheduler,
//! per-stage connection-state partitioning (Table 5), and an extension
//! module/XDP API.
//!
//! The protocol logic itself ([`proto`]) is pure, sans-IO state-machine
//! code; the pipeline stages ([`stages`]) execute it under the simulated
//! NFP-4000 hardware model of `flextoe-nfp`, and [`pipeline::FlexToeNic`]
//! wires a complete NIC into a `flextoe-sim` simulation.

pub mod costs;
pub mod handshake;
pub mod hostmem;
pub mod module;
pub mod pipeline;
pub mod proto;
pub mod reorder;
pub mod sched;
pub mod segment;
pub mod stages;
pub mod state;
pub mod transport;

pub use hostmem::{
    shared_buf, shared_ctxq, AppToNic, CtxQueuePair, NicToApp, PayloadBuf, SharedBuf,
    SharedCtxQueue,
};
pub use module::{DataPathModule, Hook, ModuleChain, ModuleVerdict, TcpdumpModule, XdpModule};
pub use pipeline::{FlexToeNic, NicHandle, PoolGauges};
pub use proto::{RxOutcome, RxSummary, TxSeg};
pub use segment::{
    shared_work_pool, ConnEntry, ConnTable, NicConfig, SharedConnTable, SharedSegPool,
    SharedWorkPool, WorkPool,
};
pub use stages::{AppNotify, Doorbell, PipeCfg, Redirect, RegisterCtx, SchedCtl};
pub use state::{PostState, PreState, ProtoState, CONN_STATE_BYTES};
pub use transport::TransportPolicy;
