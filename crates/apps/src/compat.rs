//! The older spellings `benchmark/` still builds: one alias or one config
//! conversion each into the one [`Client`] or [`Server`]. Nothing else in
//! the workspace uses them; they go with the next change to the benchmark
//! (ROADMAP item 8).

use flextoe_sim::{Duration, Time};
use flextoe_wire::Ip4;

use crate::client::{Arrival, Client, ClientSpec};
use crate::server::{Server, ServerSpec};
use crate::wire::{SizeDist, Wire, FRAMED_PORT, FRAME_HDR};

pub type RpcClientApp<S> = Client<S>;
pub type RpcServerApp<S> = Server<S>;
pub type LoadMode = Arrival;

/// A fixed-size echo server.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    pub port: u16,
    pub msg_size: u32,
    pub resp_size: u32,
    pub app_cycles: u64,
    pub echo_data: bool,
    pub host_clock: flextoe_sim::Clock,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let s = ServerSpec::default();
        ServerConfig {
            port: s.port,
            msg_size: 64,
            resp_size: 64,
            app_cycles: s.app_cycles,
            echo_data: s.echo_data,
            host_clock: s.host_clock,
        }
    }
}

impl From<ServerConfig> for ServerSpec {
    fn from(c: ServerConfig) -> Self {
        ServerSpec {
            port: c.port,
            wire: Wire::Fixed {
                req: c.msg_size,
                resp: c.resp_size,
            },
            app_cycles: c.app_cycles,
            echo_data: c.echo_data,
            host_clock: c.host_clock,
        }
    }
}

/// A framed server.
#[derive(Clone, Copy, Debug)]
pub struct FramedServerConfig {
    pub port: u16,
    pub app_cycles: u64,
    pub host_clock: flextoe_sim::Clock,
}

impl Default for FramedServerConfig {
    fn default() -> Self {
        let s = ServerSpec::framed();
        FramedServerConfig {
            port: s.port,
            app_cycles: s.app_cycles,
            host_clock: s.host_clock,
        }
    }
}

impl From<FramedServerConfig> for ServerSpec {
    fn from(c: FramedServerConfig) -> Self {
        ServerSpec {
            port: c.port,
            app_cycles: c.app_cycles,
            host_clock: c.host_clock,
            ..ServerSpec::framed()
        }
    }
}

/// A fixed-size echo client.
#[derive(Clone, Copy, Debug)]
pub struct ClientConfig {
    pub server_ip: Ip4,
    pub server_port: u16,
    pub n_conns: u32,
    pub msg_size: u32,
    pub resp_size: u32,
    pub mode: LoadMode,
    pub warmup: Time,
    pub stop_after: Option<u64>,
    pub connect_spacing: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        let c = ClientSpec::default();
        ClientConfig {
            server_ip: c.server_ip,
            server_port: c.server_port,
            n_conns: c.n_conns,
            msg_size: 64,
            resp_size: 64,
            mode: c.arrival,
            warmup: c.warmup,
            stop_after: c.stop_after,
            connect_spacing: c.connect_spacing,
        }
    }
}

impl From<ClientConfig> for ClientSpec {
    fn from(c: ClientConfig) -> Self {
        ClientSpec {
            server_ip: c.server_ip,
            server_port: c.server_port,
            n_conns: c.n_conns,
            arrival: c.mode,
            wire: Wire::Fixed {
                req: c.msg_size,
                resp: c.resp_size,
            },
            warmup: c.warmup,
            stop_after: c.stop_after,
            connect_spacing: c.connect_spacing,
        }
    }
}

/// A framed open-loop client.
#[derive(Clone, Copy, Debug)]
pub struct OpenLoopConfig {
    pub server_ip: Ip4,
    pub server_port: u16,
    pub n_conns: u32,
    pub rate_rps: f64,
    pub req_size: SizeDist,
    pub resp_size: SizeDist,
    pub warmup: Time,
    pub stop_after: Option<u64>,
    pub connect_spacing: Duration,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        OpenLoopConfig {
            server_ip: Ip4::host(2),
            server_port: FRAMED_PORT,
            n_conns: 1,
            rate_rps: 100_000.0,
            req_size: SizeDist::Fixed(FRAME_HDR),
            resp_size: SizeDist::Fixed(64),
            warmup: Time::ZERO,
            stop_after: None,
            connect_spacing: Duration::from_us(1),
        }
    }
}

impl From<OpenLoopConfig> for ClientSpec {
    fn from(c: OpenLoopConfig) -> Self {
        ClientSpec {
            server_ip: c.server_ip,
            server_port: c.server_port,
            n_conns: c.n_conns,
            arrival: Arrival::Open {
                rate_rps: c.rate_rps,
            },
            wire: Wire::Framed {
                req: c.req_size,
                resp: c.resp_size,
            },
            warmup: c.warmup,
            stop_after: c.stop_after,
            connect_spacing: c.connect_spacing,
        }
    }
}
