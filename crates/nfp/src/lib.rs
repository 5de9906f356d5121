//! # flextoe-nfp — the SmartNIC hardware substrate, simulated
//!
//! The paper's target is the Netronome Agilio-CX40 (NFP-4000 NPU). That
//! hardware cannot be expressed directly in Rust, so this crate provides
//! the closest synthetic equivalent (ARCHITECTURE.md): cycle-cost models of
//! the FPCs (with 8-thread memory-latency hiding), the CLS/CTM/IMEM/EMEM
//! memory hierarchy and its caches, the IMEM lookup engine, the PCIe DMA
//! engine, and the 40 Gbps MAC/NBI — all driven by the `flextoe-sim`
//! discrete-event engine. The TCP data-path in `flextoe-core` charges its
//! work against these models, which is what makes Table 3 (parallelism
//! breakdown) and Fig. 13 (connection scalability) reproducible.

pub mod cam;
pub mod dma;
pub mod fpc;
pub mod lookup;
pub mod mac;
pub mod memory;
pub mod params;

pub use cam::{DirectMapped, LocalCam, LruCache};
pub use dma::{dma_req, DmaDir, DmaEngine};
pub use fpc::{Cost, FpcTimer};
pub use lookup::{ConnDb, LookupCache};
pub use mac::{MacPort, MacTx};
pub use memory::{ConnStateCache, PktBufPool, StateHit};
pub use params::{
    agilio_cx40, agilio_lx, bluefield_port, host_xeon, x86_port, MemLatencies, MemLevel,
    PcieParams, Platform,
};
