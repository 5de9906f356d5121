//! # flextoe-netsim — the network substrate
//!
//! Links with propagation delay and smoltcp-style fault injection, plus an
//! output-queued switch with per-port shaping, DCTCP ECN marking, and
//! WRED — everything the paper's robustness experiments (§5.3) exercise.
//! For multi-switch fabrics the switch additionally routes by destination
//! IP with seeded-deterministic ECMP flow hashing (`flextoe-topo` builds
//! leaf-spine and fat-tree topologies on top of it).

pub mod link;
pub mod switch;
pub mod telemetry;

pub use link::{fill_link, Faults, GeParams, Link, SetFaults, SetLinkUp};
pub use switch::{
    ecmp_hash, PortConfig, SetPortUp, SetSwitchAlive, SetSwitchLimp, Switch, WredParams,
};
pub use telemetry::{Collector, SetElephants, SweepNow, TelemetrySpec};
