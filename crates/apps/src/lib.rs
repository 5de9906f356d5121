//! # flextoe-apps — application workloads
//!
//! The memcached-like KV store, memtier-like generator, and RPC echo
//! machinery the paper's evaluation runs, written once against the
//! stack-agnostic [`stack::StackApi`] so "identical application binaries"
//! run on FlexTOE and every baseline stack (§5).

pub mod kv;
pub mod openloop;
pub mod rpc;
pub mod session;
pub mod stack;

pub use kv::{KvServerApp, KvServerConfig, MemtierApp, MemtierConfig, KV_APP_CYCLES};
pub use openloop::{
    CloseAll, FramedServerApp, FramedServerConfig, OpenLoopClientApp, OpenLoopConfig, SizeDist,
    FRAME_HDR,
};
pub use rpc::{ClientConfig, LoadMode, RpcClientApp, RpcServerApp, ServerConfig, StackInit};
pub use session::{SessionClientApp, SessionConfig};
pub use stack::{LibToe, SockCall, SockEvent, Sockets, StackApi, StackOp};
