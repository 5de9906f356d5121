//! # flextoe-hoststack — the baseline TCP stacks (§2.1, §5)
//!
//! Linux, TAS, and the Chelsio Terminator TOE as interoperating simulation
//! models, plus FlexTOE's own Table 3 "Baseline" (the data-path
//! run-to-completion on one FPC). All share one TCP engine built on the
//! same `flextoe_core::proto` logic as the offloaded data-path, so every
//! stack speaks the same bytes on the wire; what differs is what the paper
//! measures — host cycle costs (Table 1), recovery policy (Fig. 15), NIC
//! capability (Chelsio's 100 Gbps streaming), and interface overheads
//! (Chelsio's epoll wall, Fig. 13).

pub mod costs;
pub mod engine;
pub mod shared;

use flextoe_core::TransportPolicy;
use flextoe_sim::{Duration, NodeId, Sim};
use flextoe_wire::{Ip4, MacAddr};

pub use costs::{StackCosts, StackKind};
pub use engine::HostStackNode;
pub use shared::{shared_app_side, AppSide, HostSocketApi, SharedAppSide};

/// Build a baseline host (stack node) running `transport`, the RTO, SYN
/// retry and admission policy FlexTOE's control plane runs too, and
/// return its node id. Apps attach via [`host_socket_api`].
pub fn build_host(
    sim: &mut Sim,
    kind: StackKind,
    mac: MacAddr,
    ip: Ip4,
    link_out: NodeId,
    transport: TransportPolicy,
) -> NodeId {
    sim.add_node(HostStackNode::new(kind, mac, ip, link_out, transport))
}

/// Create the [`flextoe_apps::StackApi`] endpoint for an application node
/// attached to a baseline stack.
pub fn host_socket_api(kind: StackKind, stack_node: NodeId, app: NodeId) -> HostSocketApi {
    let syscall_latency = match kind {
        // in-kernel stacks pay a mode switch; user-level stacks poll shm
        StackKind::Linux | StackKind::Chelsio => Duration::from_ns(600),
        _ => Duration::from_ns(80),
    };
    HostSocketApi::new(
        shared_app_side(),
        stack_node,
        app,
        kind.costs(),
        kind.name(),
        syscall_latency,
    )
}
