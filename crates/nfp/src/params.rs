//! Platform parameters for the data-path's execution substrates.
//!
//! §2.3 of the paper gives the NFP-4000 numbers we model directly:
//! 60 FPCs at 800 MHz with 8 hardware threads, island-local CLS/CTM at up
//! to 100 cycles, IMEM SRAM at up to 250 cycles, EMEM DRAM at up to 500
//! cycles fronted by a 3 MB SRAM cache, PCIe Gen3 x8 with a 256-deep DMA
//! engine, and a 40 Gbps MAC. The x86 and BlueField ports (§E) replace the
//! exotic memory hierarchy with hardware-managed caches and software
//! copies instead of a DMA engine.

use flextoe_sim::{clocks, Clock, Duration};

/// A memory level of the NFP-4000 (§2.3 "Memory").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MemLevel {
    /// FPC-local memory / registers (LMEM): effectively free.
    Local,
    /// Island-local scratch (64 KB).
    Cls,
    /// Island target memory (256 KB).
    Ctm,
    /// Internal SRAM (4 MB).
    Imem,
    /// External DRAM (2 GB) behind a 3 MB SRAM cache — this latency is the
    /// *miss* path; hits in the SRAM cache cost [`MemLatencies::emem_sram`].
    Emem,
}

/// Access latencies in cycles of the owning clock domain.
#[derive(Clone, Copy, Debug)]
pub struct MemLatencies {
    pub local: u64,
    pub cls: u64,
    pub ctm: u64,
    pub imem: u64,
    /// Hit in the 3 MB SRAM cache in front of EMEM DRAM.
    pub emem_sram: u64,
    /// Miss to EMEM DRAM.
    pub emem_dram: u64,
}

impl MemLatencies {
    pub fn cycles(&self, level: MemLevel) -> u64 {
        match level {
            MemLevel::Local => self.local,
            MemLevel::Cls => self.cls,
            MemLevel::Ctm => self.ctm,
            MemLevel::Imem => self.imem,
            MemLevel::Emem => self.emem_dram,
        }
    }
}

/// PCIe interconnect between NIC and host (§2.3, \[41\]).
#[derive(Clone, Copy, Debug)]
pub struct PcieParams {
    /// One-way posted-write latency.
    pub write_latency: Duration,
    /// Read (round-trip) latency: request crosses, completion returns.
    pub read_latency: Duration,
    /// Usable data bandwidth in bytes/second (Gen3 x8 ≈ 7.88 GB/s).
    pub bytes_per_sec: u64,
    /// DMA engine transaction queue depth ("up to 256 asynchronous DMA
    /// transactions", §2.3).
    pub max_inflight: usize,
    /// MMIO doorbell latency (host write reaching NIC logic).
    pub mmio_latency: Duration,
}

/// A data-path execution platform (§4 Agilio, §E x86 and BlueField ports).
#[derive(Clone, Copy, Debug)]
pub struct Platform {
    pub name: &'static str,
    pub clock: Clock,
    /// General-purpose islands available for flow-group pipelines.
    pub flow_group_islands: usize,
    pub fpcs_per_island: usize,
    /// Hardware threads per FPC that can hide memory latency.
    pub threads_per_fpc: usize,
    pub mem: MemLatencies,
    pub pcie: PcieParams,
    /// MAC line rate in bits/second.
    pub mac_bps: u64,
    /// True when a hardware DMA engine moves payload (Agilio); the x86 and
    /// BlueField ports copy through shared memory on a core instead (§E).
    pub hw_dma: bool,
    /// Per-core software memcpy throughput for ports without a DMA engine.
    pub copy_bytes_per_cycle: u64,
}

impl Platform {
    pub fn mem_cycles(&self, level: MemLevel) -> u64 {
        self.mem.cycles(level)
    }
    /// Wall-clock of `n` cycles on this platform.
    pub fn cycles(&self, n: u64) -> Duration {
        self.clock.cycles(n)
    }
    /// Serialization time of `bytes` on the MAC.
    pub fn mac_serialize(&self, bytes: usize) -> Duration {
        Duration::line_rate(bytes, self.mac_bps)
    }
}

/// Netronome Agilio CX40 (NFP-4000) — the paper's primary target (§4).
pub fn agilio_cx40() -> Platform {
    Platform {
        name: "agilio-cx40",
        clock: clocks::FPC_800MHZ,
        flow_group_islands: 4, // 5 GP islands; one is the service island
        fpcs_per_island: 12,
        threads_per_fpc: 8,
        mem: MemLatencies {
            local: 2,
            cls: 30,
            ctm: 80,
            imem: 200,
            emem_sram: 250,
            emem_dram: 500,
        },
        pcie: PcieParams {
            write_latency: Duration::from_ns(450),
            read_latency: Duration::from_ns(900),
            bytes_per_sec: 7_880_000_000,
            max_inflight: 256,
            mmio_latency: Duration::from_ns(350),
        },
        mac_bps: 40_000_000_000,
        hw_dma: true,
        copy_bytes_per_cycle: 4,
    }
}

/// Agilio LX (footnote 7): 1.2 GHz FPCs, double the islands.
pub fn agilio_lx() -> Platform {
    Platform {
        name: "agilio-lx",
        clock: clocks::FPC_1200MHZ,
        flow_group_islands: 8,
        fpcs_per_island: 12,
        ..agilio_cx40()
    }
}

/// x86 port (§E): EPYC 7452 cores, hardware caches, software copies,
/// shared-memory context queues (no PCIe between data-path and apps).
pub fn x86_port() -> Platform {
    Platform {
        name: "x86",
        clock: clocks::X86_2350MHZ,
        flow_group_islands: 1, // §E: one pipeline instance, no flow groups
        fpcs_per_island: 9,
        threads_per_fpc: 1, // big OoO cores; latency hiding is the core's job
        mem: MemLatencies {
            // hardware-managed caches: model L1/L2/LLC-ish costs
            local: 1,
            cls: 4,
            ctm: 12,
            imem: 40,
            emem_sram: 40,
            emem_dram: 90,
        },
        pcie: PcieParams {
            // context queues are plain shared memory on the ports (§E)
            write_latency: Duration::from_ns(60),
            read_latency: Duration::from_ns(90),
            bytes_per_sec: 30_000_000_000,
            max_inflight: 64,
            mmio_latency: Duration::from_ns(50),
        },
        mac_bps: 100_000_000_000,
        hw_dma: false,
        copy_bytes_per_cycle: 16,
    }
}

/// BlueField port (§E): wimpy A72 cores — closest to the target NPU (§5.2).
pub fn bluefield_port() -> Platform {
    Platform {
        name: "bluefield",
        clock: clocks::BLUEFIELD_800MHZ,
        flow_group_islands: 1,
        fpcs_per_island: 9,
        threads_per_fpc: 1,
        mem: MemLatencies {
            local: 1,
            cls: 6,
            ctm: 20,
            imem: 60,
            emem_sram: 60,
            emem_dram: 160,
        },
        pcie: PcieParams {
            write_latency: Duration::from_ns(90),
            read_latency: Duration::from_ns(140),
            bytes_per_sec: 12_000_000_000,
            max_inflight: 64,
            mmio_latency: Duration::from_ns(80),
        },
        mac_bps: 25_000_000_000,
        hw_dma: false,
        copy_bytes_per_cycle: 8,
    }
}

/// Host CPU parameters for applications + libTOE (testbed Xeon @ 2 GHz).
pub fn host_xeon() -> Platform {
    Platform {
        name: "host-xeon",
        clock: clocks::HOST_2GHZ,
        flow_group_islands: 1,
        fpcs_per_island: 20,
        threads_per_fpc: 1,
        mem: MemLatencies {
            local: 1,
            cls: 4,
            ctm: 12,
            imem: 40,
            emem_sram: 40,
            emem_dram: 90,
        },
        pcie: agilio_cx40().pcie,
        mac_bps: 40_000_000_000,
        hw_dma: false,
        copy_bytes_per_cycle: 16,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agilio_matches_paper_architecture() {
        let p = agilio_cx40();
        // §2.3: 60 FPCs in 5 GP islands of 12; we use 4 for flow groups.
        assert_eq!(p.fpcs_per_island, 12);
        assert_eq!(p.flow_group_islands, 4);
        assert_eq!(p.threads_per_fpc, 8);
        assert_eq!(p.clock.hz(), 800_000_000);
        // memory ladder is monotone
        assert!(p.mem.local < p.mem.cls);
        assert!(p.mem.cls < p.mem.ctm);
        assert!(p.mem.ctm < p.mem.imem);
        assert!(p.mem.imem < p.mem.emem_dram);
        assert!(p.mem.emem_sram <= p.mem.emem_dram);
    }

    #[test]
    fn mac_serialization_40g() {
        let p = agilio_cx40();
        // 1514-byte frame at 40 Gbps ≈ 302.8 ns
        let d = p.mac_serialize(1514);
        assert!(d.as_ns() >= 300 && d.as_ns() <= 305, "{d}");
    }

    #[test]
    fn congestion_computation_cost_anchor() {
        // §2.3: the ECN-ratio gradient takes 1,500 cycles = 1.875 us on FPCs.
        let p = agilio_cx40();
        let d = p.cycles(1500);
        assert_eq!(d.as_ns(), 1875);
    }

    #[test]
    fn ports_have_no_hw_dma() {
        assert!(agilio_cx40().hw_dma);
        assert!(!x86_port().hw_dma);
        assert!(!bluefield_port().hw_dma);
    }

    #[test]
    fn mem_level_lookup() {
        let p = agilio_cx40();
        assert_eq!(p.mem_cycles(MemLevel::Local), 2);
        assert_eq!(p.mem_cycles(MemLevel::Emem), 500);
    }
}
