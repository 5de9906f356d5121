//! Shared topology builders for the integration tests.

use flextoe_core::FlexToeNic;
use flextoe_sim::{NodeId, Sim};
use flextoe_topo::{build_pair, PairOpts, Stack};
use flextoe_wire::{Ip4, MacAddr};

/// One FlexTOE host: NIC + control plane (applications attach separately).
pub struct Host {
    pub nic: FlexToeNic,
    pub ctrl: NodeId,
    pub ip: Ip4,
    pub mac: MacAddr,
}

/// Two FlexTOE hosts joined by the link pair `opts` describes.
pub fn two_flextoe_hosts(sim: &mut Sim, opts: &PairOpts) -> (Host, Host) {
    let (a, b) = build_pair(sim, Stack::FlexToe, Stack::FlexToe, opts);
    let host = |ep: flextoe_topo::Endpoint| {
        let (nic, ctrl) = ep.flextoe.expect("FlexTOE endpoint");
        Host {
            nic,
            ctrl,
            ip: ep.ip,
            mac: ep.mac,
        }
    };
    (host(a), host(b))
}

/// Default experiment knobs for tests: full Agilio config, DCTCP, 2 µs
/// one-way propagation, no faults.
pub fn default_setup(sim: &mut Sim) -> (Host, Host) {
    two_flextoe_hosts(sim, &PairOpts::default())
}
