//! # flextoe-apps — application workloads
//!
//! One RPC [`Client`] and one RPC [`Server`], written once against the
//! stack-agnostic [`stack::StackApi`] so "identical application binaries"
//! run on FlexTOE and every baseline stack (§5). The client's arrival
//! process is one [`Arrival`] (closed loop with a pipeline depth, open
//! Poisson at a rate, or reconnecting sessions with think time); what
//! travels on a connection is one [`Wire`] decision both sides read (the
//! fixed-size echo behind Figures 9–16, or 16-byte-header framing for
//! per-request sizes).

pub mod client;
pub mod compat;
pub mod server;
pub mod stack;
pub mod wire;

pub use client::{Arrival, Client, ClientSpec, CloseAll};
pub use compat::{
    ClientConfig, FramedServerConfig, LoadMode, OpenLoopConfig, RpcClientApp, RpcServerApp,
    ServerConfig,
};
pub use server::{Server, ServerSpec};
pub use stack::{LibToe, SockCall, SockEvent, Sockets, StackApi, StackInit, StackOp};
pub use wire::{SizeDist, Wire, ECHO_PORT, FRAMED_PORT, FRAME_HDR};
