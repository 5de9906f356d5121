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
//!
//! Applications reach a host through the socket library FlexTOE uses too:
//! [`HostSocketApi`] is this family's [`flextoe_apps::StackApi`] over the
//! one socket table (`flextoe_libtoe::Sockets`, kept in the shared
//! [`AppSide`]). It supplies a `to_stack` queue plus a syscall, the
//! stack's event queue, listen/connect and the per-kind host costs; the
//! stack node only queues events, and the table applies them when the
//! application takes them.

pub mod costs;
pub mod engine;
pub mod shared;

use flextoe_core::TransportPolicy;
use flextoe_sim::{NodeId, Sim};
use flextoe_wire::{Ip4, MacAddr};

pub use costs::{StackCosts, StackKind};
pub use engine::HostStackNode;
pub use shared::{AppSide, HostSocketApi, SharedAppSide};

/// Build a baseline host (stack node) running `transport`, the RTO, SYN
/// retry and admission policy FlexTOE's control plane runs too, and
/// return its node id. Apps attach via [`HostSocketApi::new`].
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
