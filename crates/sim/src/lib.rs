//! # flextoe-sim — deterministic discrete-event simulation engine
//!
//! The substrate for the FlexTOE reproduction. The original system runs on
//! a Netronome Agilio-CX40 SmartNIC; that hardware is replaced here by a
//! cycle-cost model executed inside this engine (see `flextoe-nfp`), while
//! the TCP data-path logic itself is real code (see `flextoe-core`).
//!
//! Design (following the sans-IO idiom of smoltcp): protocol code never
//! performs I/O or reads clocks — the engine injects time through message
//! delivery, so every run is exactly reproducible from its seed.
//!
//! ```
//! use flextoe_sim::{Sim, Node, Ctx, Msg, cast, Time, Duration};
//!
//! struct Counter { n: u32 }
//! impl Node for Counter {
//!     fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
//!         self.n += *cast::<u32>(msg);
//!         if self.n < 10 { ctx.wake(Duration::from_us(1), 1u32); }
//!     }
//! }
//!
//! let mut sim = Sim::new(42);
//! let c = sim.add_node(Counter { n: 0 });
//! sim.schedule(Time::ZERO, c, 1u32);
//! sim.run();
//! assert_eq!(sim.node_ref::<Counter>(c).n, 10);
//! assert_eq!(sim.now().as_us(), 9);
//! ```

pub mod engine;
pub mod fxhash;
pub mod hist;
pub mod pool;
pub mod queue;
pub mod relay;
pub mod rng;
pub mod stats;
pub mod time;
pub mod txgate;
pub mod wheel;

pub use engine::{
    cast, mismatch, try_cast, AppNotify, Ctx, Doorbell, Envelope, FreeDesc, FsUpdate, IntoMsg,
    MacTx, Msg, NbiFrame, NicToApp, Node, NodeId, NotifyJob, QueueKind, ReportBatchToken, SchedCtl,
    Sim, Tick, WorkToken, XferDone, XferReq, MSG_KIND_NAMES, N_MSG_KINDS,
};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use hist::Histogram;
pub use pool::{PktBufPool, PoolCounters};
pub use queue::BoundedQueue;
pub use rng::Rng;
pub use stats::{CounterHandle, Stats};
pub use time::{clocks, Clock, Duration, Time};
pub use txgate::TxGate;
