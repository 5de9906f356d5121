//! The FlexTOE module API (§3.3).
//!
//! "The FlexTOE module API provides developers one-shot access to TCP
//! segments and associated meta-data. … Modules may also keep private
//! state. For scalability, private state cannot be accessed by other
//! modules or replicas of the same module."
//!
//! Modules are hooked into pipeline stages; each invocation returns an
//! action plus the hardware cost to charge to the stage's FPC. XDP
//! programs (eBPF) are adapted to the same interface.

use flextoe_ebpf::{verify, Insn, MapSet, SharedMaps, Vm, XdpAction};
use flextoe_nfp::Cost;
use flextoe_sim::Time;
use flextoe_wire::PcapWriter;

use crate::costs::ext;

/// Where a module is hooked (§3.3: modules are "hooked into the
/// data-flow" at a stage boundary).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Hook {
    /// On raw ingress frames, before pre-processing (XDP's position).
    RxIngress,
    /// On fully-formed egress frames, before NBI admission.
    TxEgress,
}

/// What the pipeline should do with the segment after the module ran.
#[derive(Debug, PartialEq, Eq)]
pub enum ModuleVerdict {
    /// Forward to the next pipeline stage.
    Pass,
    /// Drop the segment.
    Drop,
    /// Send the segment out the MAC immediately (bypass the data-path).
    Tx,
    /// Redirect the segment to the control plane.
    Redirect,
}

/// A data-path module instance. `process` may rewrite the frame in place.
pub trait DataPathModule {
    fn name(&self) -> &str;
    fn hook(&self) -> Hook;
    /// Process one frame; returns the verdict and the FPC cost to charge.
    fn process(&mut self, now: Time, frame: &mut Vec<u8>) -> (ModuleVerdict, Cost);
    /// Concrete-type access for result harvesting (pcap buffers, map
    /// handles); modules that expose state override this.
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        None
    }
}

/// Adapter: run an eBPF/XDP program as a data-path module. "FlexTOE
/// automatically reorders processed segments after a parallel XDP stage"
/// — the pipeline's sequencing layer takes care of that (§3.2).
pub struct XdpModule {
    name: String,
    hook: Hook,
    prog: Vec<Insn>,
    vm: Vm,
    maps: SharedMaps,
    pub runs: u64,
}

impl XdpModule {
    /// Load (and verify) a program. Fails exactly like the NFP offload
    /// toolchain would at load time.
    pub fn load(
        name: &str,
        hook: Hook,
        prog: Vec<Insn>,
        maps: SharedMaps,
    ) -> Result<XdpModule, flextoe_ebpf::VerifyError> {
        verify(&prog)?;
        Ok(XdpModule {
            name: name.to_string(),
            hook,
            prog,
            vm: Vm::new(),
            maps,
            runs: 0,
        })
    }

    pub fn maps(&self) -> &SharedMaps {
        &self.maps
    }
}

impl DataPathModule for XdpModule {
    fn name(&self) -> &str {
        &self.name
    }
    fn hook(&self) -> Hook {
        self.hook
    }

    fn process(&mut self, _now: Time, frame: &mut Vec<u8>) -> (ModuleVerdict, Cost) {
        self.runs += 1;
        let mut maps = self.maps.borrow_mut();
        let result = self.vm.run(&self.prog, frame, &mut maps);
        drop(maps);
        match result {
            Ok(res) => {
                if res.head_adjust > 0 {
                    frame.drain(..res.head_adjust as usize);
                }
                let cost = Cost::new(
                    ext::XDP_HARNESS.compute + res.insns * ext::EBPF_PER_INSN.compute,
                    ext::XDP_HARNESS.mem,
                );
                let verdict = match XdpAction::from_ret(res.ret) {
                    XdpAction::Pass => ModuleVerdict::Pass,
                    XdpAction::Tx => ModuleVerdict::Tx,
                    XdpAction::Redirect => ModuleVerdict::Redirect,
                    XdpAction::Drop | XdpAction::Aborted => ModuleVerdict::Drop,
                };
                (verdict, cost)
            }
            Err(_) => {
                // A trapping program drops the packet (XDP_ABORTED).
                (ModuleVerdict::Drop, ext::XDP_HARNESS)
            }
        }
    }
}

/// Predicate selecting which frames a capture module records.
pub type FrameFilter = Box<dyn Fn(&[u8]) -> bool>;

/// tcpdump-style traffic logging with an optional header filter
/// (Table 2's "tcpdump (no filter)" row: every packet captured).
pub struct TcpdumpModule {
    hook: Hook,
    pub pcap: PcapWriter,
    /// Optional filter over the raw frame; `None` captures everything.
    filter: Option<FrameFilter>,
}

impl TcpdumpModule {
    pub fn new(hook: Hook) -> TcpdumpModule {
        TcpdumpModule {
            hook,
            pcap: PcapWriter::new(),
            filter: None,
        }
    }

    pub fn with_filter(hook: Hook, filter: FrameFilter) -> TcpdumpModule {
        TcpdumpModule {
            hook,
            pcap: PcapWriter::new(),
            filter: Some(filter),
        }
    }
}

impl DataPathModule for TcpdumpModule {
    fn name(&self) -> &str {
        "tcpdump"
    }
    fn hook(&self) -> Hook {
        self.hook
    }
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
    fn process(&mut self, now: Time, frame: &mut Vec<u8>) -> (ModuleVerdict, Cost) {
        let capture = self.filter.as_ref().map(|f| f(frame)).unwrap_or(true);
        if capture {
            self.pcap.record(now.as_us(), frame);
            (ModuleVerdict::Pass, ext::TCPDUMP_CAPTURE)
        } else {
            // filter evaluation alone is much cheaper
            (
                ModuleVerdict::Pass,
                Cost::new(ext::TCPDUMP_CAPTURE.compute / 4, 0),
            )
        }
    }
}

/// A chain of modules at one hook point.
#[derive(Default)]
pub struct ModuleChain {
    modules: Vec<Box<dyn DataPathModule>>,
}

impl ModuleChain {
    pub fn new() -> ModuleChain {
        ModuleChain::default()
    }

    pub fn push(&mut self, m: Box<dyn DataPathModule>) {
        self.modules.push(m);
    }

    pub fn is_empty(&self) -> bool {
        self.modules.is_empty()
    }
    pub fn len(&self) -> usize {
        self.modules.len()
    }

    /// Run the chain; the first non-Pass verdict wins. Returns the verdict
    /// and the total cost of all modules executed.
    pub fn run(&mut self, now: Time, frame: &mut Vec<u8>) -> (ModuleVerdict, Cost) {
        let mut total = Cost::ZERO;
        for m in &mut self.modules {
            let (verdict, cost) = m.process(now, frame);
            total += cost;
            if verdict != ModuleVerdict::Pass {
                return (verdict, total);
            }
        }
        (ModuleVerdict::Pass, total)
    }

    /// Borrow a module by name (result harvest, e.g. the pcap buffer).
    pub fn get_mut(&mut self, name: &str) -> Option<&mut (dyn DataPathModule + '_)> {
        self.modules
            .iter_mut()
            .find(|m| m.name() == name)
            .map(|b| &mut **b as _)
    }
}

/// Convenience: build an XDP module from one of the prebuilt programs
/// with a fresh map set; returns the module and its maps handle.
pub fn xdp_with_maps(
    name: &str,
    hook: Hook,
    build: impl FnOnce(&mut MapSet) -> Vec<Insn>,
) -> (XdpModule, SharedMaps) {
    let maps = flextoe_ebpf::shared_maps();
    let prog = build(&mut maps.borrow_mut());
    let m = XdpModule::load(name, hook, prog, maps.clone()).expect("prebuilt program verifies");
    (m, maps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flextoe_ebpf::programs;

    #[test]
    fn xdp_null_module_passes_with_small_cost() {
        let (mut m, _) = xdp_with_maps("null", Hook::RxIngress, |_| programs::null_pass());
        let mut frame = vec![0u8; 64];
        let (v, cost) = m.process(Time::ZERO, &mut frame);
        assert_eq!(v, ModuleVerdict::Pass);
        assert!(cost.compute >= ext::XDP_HARNESS.compute);
        assert!(cost.compute < 100, "null program must be cheap: {cost:?}");
        assert_eq!(m.runs, 1);
    }

    #[test]
    fn xdp_drop_module_drops() {
        let (mut m, _) = xdp_with_maps("drop", Hook::RxIngress, |_| programs::drop_all());
        let mut frame = vec![0u8; 64];
        assert_eq!(m.process(Time::ZERO, &mut frame).0, ModuleVerdict::Drop);
    }

    #[test]
    fn chain_short_circuits_on_drop() {
        let mut chain = ModuleChain::new();
        let (drop_m, _) = xdp_with_maps("drop", Hook::RxIngress, |_| programs::drop_all());
        let (null_m, _) = xdp_with_maps("null", Hook::RxIngress, |_| programs::null_pass());
        chain.push(Box::new(drop_m));
        chain.push(Box::new(null_m));
        let mut frame = vec![0u8; 64];
        let (v, _) = chain.run(Time::ZERO, &mut frame);
        assert_eq!(v, ModuleVerdict::Drop);
        // second module never ran
        assert_eq!(
            chain.get_mut("null").map(|_| ()),
            Some(()),
            "modules addressable by name"
        );
    }

    #[test]
    fn tcpdump_captures_and_charges() {
        let mut m = TcpdumpModule::new(Hook::RxIngress);
        let mut f1 = vec![1u8; 100];
        let mut f2 = vec![2u8; 200];
        m.process(Time::from_us(1), &mut f1);
        let (v, cost) = m.process(Time::from_us(2), &mut f2);
        assert_eq!(v, ModuleVerdict::Pass);
        assert_eq!(cost, ext::TCPDUMP_CAPTURE);
        assert_eq!(m.pcap.packets(), 2);
        let recs = flextoe_wire::pcap::parse(m.pcap.bytes()).unwrap();
        assert_eq!(recs[1].data.len(), 200);
    }

    #[test]
    fn tcpdump_filter_reduces_cost() {
        let mut m = TcpdumpModule::with_filter(Hook::RxIngress, Box::new(|f| f[0] == 0x55));
        let mut nomatch = vec![0u8; 64];
        let (_, cheap) = m.process(Time::ZERO, &mut nomatch);
        let mut hit = vec![0x55u8; 64];
        let (_, full) = m.process(Time::ZERO, &mut hit);
        assert!(cheap.compute < full.compute);
        assert_eq!(m.pcap.packets(), 1);
    }

    #[test]
    fn broken_program_rejected_at_load() {
        let maps = flextoe_ebpf::shared_maps();
        let res = XdpModule::load("bad", Hook::RxIngress, vec![], maps);
        assert!(res.is_err());
    }
}
