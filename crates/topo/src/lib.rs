//! # flextoe-topo — declarative multi-host fabrics
//!
//! The paper's testbed is two hosts and one switch; its *claims* are about
//! scale. This crate closes that gap: a [`Scenario`] declares a complete
//! experiment — fabric shape (leaf-spine or fat-tree), per-host stack
//! choice, applications and traffic mix, link rates/latencies, fault
//! schedules — and [`build_fabric`] instantiates it into a `flextoe-sim`
//! simulation: switches with seeded-deterministic ECMP routing tables,
//! bidirectional links, host endpoints (FlexTOE NIC + control plane, or a
//! baseline stack), full-mesh ARP, application nodes, and kick-off events.
//!
//! The hand-wired point topologies the paper's tables use (`build_pair`,
//! `build_star`) live here too, shared with the bench harness.
//!
//! Determinism: all randomness — ECMP path selection included — flows from
//! the scenario seed, so two runs of the same `Scenario` produce
//! byte-identical results.

pub mod build;
pub mod host;
pub mod shard;
pub mod spec;

pub use build::{
    build_fabric, BuiltFabric, BuiltHost, BuiltRole, DynClient, DynFramedServer, DynOpenLoopClient,
    DynServer, EdgeRec, FabricPair,
};
pub use host::{add_arp, build_endpoint, build_pair, build_star, Endpoint, PairOpts, Stack};
pub use shard::partition_fabric;
pub use spec::{
    Fabric, FaultEvent, FaultKind, FaultTarget, HostSpec, LinkClass, LinkScope, LinkSpec, Role,
    Scenario,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fabric_host_counts() {
        assert_eq!(
            Fabric::LeafSpine {
                leaves: 4,
                spines: 2,
                hosts_per_leaf: 2
            }
            .n_hosts(),
            8
        );
        assert_eq!(Fabric::FatTree { k: 4 }.n_hosts(), 16);
        assert_eq!(Fabric::FatTree { k: 8 }.n_hosts(), 128);
    }

    #[test]
    fn idle_scenario_is_well_formed() {
        let sc = Scenario::idle(
            1,
            Fabric::LeafSpine {
                leaves: 2,
                spines: 2,
                hosts_per_leaf: 1,
            },
            Stack::FlexToe,
        );
        assert_eq!(sc.hosts.len(), 2);
        let mut sim = flextoe_sim::Sim::new(sc.seed);
        let fab = build_fabric(&mut sim, &sc);
        assert_eq!(fab.hosts.len(), 2);
        assert_eq!(fab.switches.len(), 4);
        // 2 hosts × 2 links + 2 leaves × 2 spines × 2 directions
        assert_eq!(fab.edge_links.len(), 4);
        assert_eq!(fab.fabric_links.len(), 8);
        sim.run_until(flextoe_sim::Time::from_ms(1));
    }

    /// The fabric's links come from `Scenario.links`; a pair-only link
    /// option set on `Scenario.opts` is refused, not silently dropped.
    #[test]
    #[should_panic(expected = "Scenario.links")]
    fn fabric_refuses_pair_only_link_options() {
        let mut sc = Scenario::idle(
            1,
            Fabric::LeafSpine {
                leaves: 2,
                spines: 1,
                hosts_per_leaf: 1,
            },
            Stack::FlexToe,
        );
        sc.opts.faults.drop_chance = 0.01;
        build_fabric(&mut flextoe_sim::Sim::new(sc.seed), &sc);
    }
}
