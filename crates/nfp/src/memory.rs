//! Connection-state cache hierarchy of the protocol stage (§4.1 "Caching").
//!
//! "We use each FPC's CAM to build 16-entry fully-associative local memory
//! caches … The protocol stage adds a 512-entry direct-mapped second-level
//! cache in CLS. Across four islands, we can accommodate up to 2K flows …
//! The final level of memory is in EMEM", whose 3 MB SRAM front cache is
//! "increasingly strained as the number of connections increases"
//! (Fig. 13). This module turns a connection-state access into a cycle
//! cost by walking that hierarchy.

use crate::cam::{DirectMapped, LocalCam, LruCache};
use crate::fpc::Cost;
use crate::params::Platform;

/// Which level served a state access (for tracepoints/stats).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StateHit {
    Local,
    Cls,
    EmemSram,
    EmemDram,
}

/// Per-island connection-state cache for the protocol stage.
pub struct ConnStateCache {
    /// 16-entry fully-associative FPC-local CAM cache.
    local: LocalCam,
    /// 512-entry direct-mapped CLS cache.
    cls: DirectMapped<u32>,
    /// Model of the shared 3 MB EMEM SRAM cache (entries of conn state +
    /// metadata; the effective share for connection state is configurable).
    emem_sram: LruCache<u32, ()>,
    lat_local: u64,
    lat_cls: u64,
    lat_sram: u64,
    lat_dram: u64,
    pub local_hits: u64,
    pub cls_hits: u64,
    pub sram_hits: u64,
    pub dram_accesses: u64,
    /// Most connection-state entries simultaneously resident in the EMEM
    /// SRAM front cache — every connection's first access lands here, so
    /// this tracks the distinct-connection footprint until the cache caps
    /// out and Fig. 13's cliff begins.
    pub occ_high_water: usize,
}

/// Default share of the EMEM SRAM cache available for connection state.
/// 3 MB total, but work queues, descriptors, and payload staging compete;
/// FlexTOE reports throughput decline by 8K connections (Fig. 13).
pub const DEFAULT_EMEM_SRAM_CONNS: usize = 6144;

impl ConnStateCache {
    pub fn new(p: &Platform, emem_sram_conns: usize) -> ConnStateCache {
        ConnStateCache {
            local: LocalCam::default(),
            cls: DirectMapped::new(512),
            emem_sram: LruCache::new(emem_sram_conns.max(1)),
            lat_local: p.mem.local,
            lat_cls: p.mem.cls,
            lat_sram: p.mem.emem_sram,
            lat_dram: p.mem.emem_dram,
            local_hits: 0,
            cls_hits: 0,
            sram_hits: 0,
            dram_accesses: 0,
            occ_high_water: 0,
        }
    }

    pub fn with_defaults(p: &Platform) -> ConnStateCache {
        Self::new(p, DEFAULT_EMEM_SRAM_CONNS)
    }

    /// Charge a full connection-state fetch + writeback for `conn`.
    ///
    /// FlexTOE allocates connection identifiers "such that we minimize
    /// collisions on the direct-mapped CLS cache" (§4.1) — we index the
    /// CLS cache by connection id directly, which is exactly that scheme.
    pub fn access(&mut self, conn: u32) -> (Cost, StateHit) {
        // A miss fetches into the local CAM (evicting LRU), from wherever
        // the state lives.
        if self.local.access(conn) {
            self.local_hits += 1;
            return (Cost::new(0, self.lat_local), StateHit::Local);
        }
        if self.cls.access(&conn, conn as u64) {
            self.cls_hits += 1;
            return (Cost::new(0, self.lat_cls), StateHit::Cls);
        }
        // CLS miss walks to EMEM; the SRAM front cache may still hold it.
        if self.emem_sram.get(&conn).is_some() {
            self.sram_hits += 1;
            return (Cost::new(0, self.lat_sram), StateHit::EmemSram);
        }
        self.emem_sram.insert(conn, ());
        self.occ_high_water = self.occ_high_water.max(self.emem_sram.len());
        self.dram_accesses += 1;
        (Cost::new(0, self.lat_dram), StateHit::EmemDram)
    }

    /// Connection-state entries currently resident in the EMEM SRAM cache.
    pub fn occupancy(&self) -> usize {
        self.emem_sram.len()
    }

    /// Remove a connection's cached state (teardown).
    pub fn evict(&mut self, conn: u32) {
        self.local.remove(conn);
        self.cls.invalidate(&conn, conn as u64);
        self.emem_sram.remove(&conn);
    }

    pub fn accesses(&self) -> u64 {
        self.local_hits + self.cls_hits + self.sram_hits + self.dram_accesses
    }
}

pub use flextoe_sim::PktBufPool;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::agilio_cx40;

    fn cache() -> ConnStateCache {
        ConnStateCache::with_defaults(&agilio_cx40())
    }

    #[test]
    fn few_connections_stay_local() {
        let mut c = cache();
        // 8 conns round-robin: after the first pass everything is in CAM.
        for round in 0..10 {
            for conn in 0..8u32 {
                let (cost, hit) = c.access(conn);
                if round > 0 {
                    assert_eq!(hit, StateHit::Local, "round {round} conn {conn}");
                    assert_eq!(cost.mem, 2);
                }
            }
        }
        assert_eq!(c.dram_accesses, 8); // cold misses only
    }

    #[test]
    fn medium_working_set_served_by_cls() {
        let mut c = cache();
        // 256 conns round-robin exceed the 16-entry CAM but fit CLS.
        for _ in 0..5 {
            for conn in 0..256u32 {
                c.access(conn);
            }
        }
        assert!(c.cls_hits > 800, "cls_hits {}", c.cls_hits);
        assert_eq!(c.dram_accesses, 256); // cold only
    }

    #[test]
    fn huge_working_set_hits_dram() {
        let mut c = ConnStateCache::new(&agilio_cx40(), 2048);
        // 16K conns cycling: SRAM (2048) thrashes, DRAM dominates.
        for _ in 0..2 {
            for conn in 0..16_384u32 {
                c.access(conn);
            }
        }
        assert!(
            c.dram_accesses as f64 / c.accesses() as f64 > 0.9,
            "dram fraction too low: {}/{}",
            c.dram_accesses,
            c.accesses()
        );
    }

    #[test]
    fn cost_ladder_matches_platform() {
        let p = agilio_cx40();
        let mut c = ConnStateCache::with_defaults(&p);
        let (cold, hit) = c.access(7);
        assert_eq!(hit, StateHit::EmemDram);
        assert_eq!(cold.mem, p.mem.emem_dram);
        let (warm, hit) = c.access(7);
        assert_eq!(hit, StateHit::Local);
        assert_eq!(warm.mem, p.mem.local);
    }

    /// A hot, reused connection set that overflows the direct-mapped CLS
    /// must be served by the EMEM SRAM tier — `sram_hits` may not stay
    /// zero. Regression guard for the scale sweep's cache gauges: the
    /// sweep once reported `conn_cache_sram_hits: 0` on every row
    /// because its window gave each connection a single cold burst (no
    /// revisits ever reached below the local CAM).
    #[test]
    fn hot_reused_set_beyond_cls_hits_emem_sram() {
        let mut c = cache();
        // 1024 conns with dense ids: two contenders per CLS slot. Three
        // round-robin passes: pass 1 is cold (DRAM), later passes miss
        // local (16 entries) and CLS (conflicting pairs) but find the
        // state resident in the 6144-entry EMEM SRAM cache.
        for _ in 0..3 {
            for conn in 0..1024u32 {
                c.access(conn);
            }
        }
        assert_eq!(c.dram_accesses, 1024, "cold misses only");
        assert!(
            c.sram_hits >= 1024,
            "revisits past a conflicted CLS must hit EMEM SRAM, got {}",
            c.sram_hits
        );
    }

    #[test]
    fn evict_forces_refetch() {
        let mut c = cache();
        c.access(3);
        c.access(3);
        c.evict(3);
        let (_, hit) = c.access(3);
        assert_eq!(hit, StateHit::EmemDram);
    }
}
