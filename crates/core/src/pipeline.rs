//! Pipeline assembly: wires the data-path stages, the hardware models,
//! and the MAC into a simulation (Figure 2 + §4.1 "FPC mapping").

use std::cell::RefCell;
use std::rc::Rc;

use flextoe_ccp::{shared_datapath, MeasureCfg, SharedCcp};
use flextoe_nfp::{ConnDb, DmaEngine, MacPort};
use flextoe_sim::{NodeId, Sim};

use crate::segment::{
    shared_conn_table, shared_work_pool, NicConfig, SharedConnTable, SharedSegPool, SharedWorkPool,
};
use crate::stages::{
    ctxq::CtxqStage, dmast::DmaStage, post::PostStage, pre::PreStage, proto_stage::ProtoStage,
    schedn::SchedNode, seqr::SeqrNode, PipeCfg, SharedCfg,
};

/// All node ids and shared handles of one FlexTOE NIC instance.
pub struct FlexToeNic {
    pub cfg: SharedCfg,
    pub seqr: NodeId,
    pub pre: NodeId,
    pub protos: Vec<NodeId>,
    pub posts: Vec<NodeId>,
    pub dma_stage: NodeId,
    pub dma_engine: NodeId,
    pub ctxq: NodeId,
    pub sched: NodeId,
    pub mac: NodeId,
    /// The control-plane node this NIC redirects non-data-path traffic to.
    pub ctrl: NodeId,
    pub table: SharedConnTable,
    pub db: Rc<RefCell<ConnDb>>,
    /// Slab of in-flight pipeline work items (tokens travel the queue).
    pub work_pool: SharedWorkPool,
    /// The NIC's packet-memory counters (the buffers recycle through the
    /// simulation's one free list, `Sim::frame_pool`).
    pub seg_pool: SharedSegPool,
    /// Congestion-measurement layer: per-flow fold state + the pooled
    /// report batches shared with the control plane (flextoe-ccp).
    pub ccp: SharedCcp,
}

impl FlexToeNic {
    /// Build a NIC into `sim`. `wire_out` is where egress frames go (a
    /// link endpoint); `ctrl` is the control-plane node (may be a
    /// reserved id filled later). Ingress frames must be delivered to the
    /// returned `mac` node.
    pub fn build(
        sim: &mut Sim,
        cfg: PipeCfg,
        nic_cfg: NicConfig,
        wire_out: NodeId,
        ctrl: NodeId,
    ) -> FlexToeNic {
        let cfg: SharedCfg = Rc::new(cfg);
        let table = shared_conn_table(nic_cfg);
        let db = Rc::new(RefCell::new(ConnDb::new(&cfg.platform)));
        let work_pool = shared_work_pool();
        let seg_pool = SharedSegPool::default();
        // pool-exhaustion knob: a capped work pool turns overload into
        // counted RX sheds at the sequencer instead of unbounded growth
        work_pool.borrow_mut().capacity = cfg.work_pool_cap;
        let ccp = shared_datapath(MeasureCfg::default());

        // reserve everything first (the graph is cyclic)
        let seqr = sim.reserve_node();
        let pre = sim.reserve_node();
        let protos: Vec<NodeId> = (0..cfg.n_groups).map(|_| sim.reserve_node()).collect();
        let posts: Vec<NodeId> = (0..cfg.n_groups).map(|_| sim.reserve_node()).collect();
        let dma_stage = sim.reserve_node();
        let dma_engine = sim.reserve_node();
        let ctxq = sim.reserve_node();
        let sched = sim.reserve_node();
        let mac = sim.reserve_node();

        sim.fill_node(mac, MacPort::new(cfg.platform.mac_bps, wire_out, seqr));
        sim.fill_node(dma_engine, DmaEngine::new(cfg.platform.pcie));

        let mut seqr_node = SeqrNode::new(cfg.clone(), work_pool.clone(), mac);
        seqr_node.pre_pool = vec![pre];
        seqr_node.protos = protos.clone();
        seqr_node.mac = mac;
        sim.fill_node(seqr, seqr_node);

        sim.fill_node(
            pre,
            PreStage::new(
                cfg.clone(),
                table.clone(),
                work_pool.clone(),
                seg_pool.clone(),
                db.clone(),
                seqr,
                ctrl,
                mac,
            ),
        );

        for g in 0..cfg.n_groups {
            sim.fill_node(
                protos[g],
                ProtoStage::new(
                    cfg.clone(),
                    g,
                    table.clone(),
                    work_pool.clone(),
                    seg_pool.clone(),
                    posts[g],
                ),
            );
            sim.fill_node(
                posts[g],
                PostStage::new(
                    cfg.clone(),
                    g,
                    table.clone(),
                    work_pool.clone(),
                    seg_pool.clone(),
                    ccp.clone(),
                    dma_stage,
                    sched,
                    ctxq,
                    ctrl,
                ),
            );
        }

        sim.fill_node(
            dma_stage,
            DmaStage::new(
                cfg.clone(),
                table.clone(),
                work_pool.clone(),
                seg_pool.clone(),
                dma_engine,
                seqr,
                ctxq,
            ),
        );
        sim.fill_node(
            ctxq,
            CtxqStage::new(cfg.clone(), work_pool.clone(), dma_engine, seqr),
        );
        sim.fill_node(sched, SchedNode::new(cfg.clone(), work_pool.clone(), seqr));

        FlexToeNic {
            cfg,
            seqr,
            pre,
            protos,
            posts,
            dma_stage,
            dma_engine,
            ctxq,
            sched,
            mac,
            ctrl,
            table,
            db,
            work_pool,
            seg_pool,
            ccp,
        }
    }

    /// Snapshot the NIC's pool and cache pressure gauges. Reads the
    /// shared pools directly and the per-group protocol stages through
    /// `sim`, so call it between runs (not from inside a handler).
    pub fn pool_gauges(&self, sim: &Sim) -> PoolGauges {
        let work = self.work_pool.borrow();
        let seg = self.seg_pool.borrow();
        let mut g = PoolGauges {
            work_in_use: work.in_use(),
            work_high_water: work.high_water,
            seg_in_flight: seg.in_flight(),
            seg_high_water: seg.high_water,
            ..Default::default()
        };
        for &p in &self.protos {
            let cache = sim
                .node_ref::<crate::stages::proto_stage::ProtoStage>(p)
                .state_cache();
            g.cache_occupancy += cache.occupancy();
            g.cache_high_water += cache.occ_high_water;
            g.cache_local_hits += cache.local_hits;
            g.cache_cls_hits += cache.cls_hits;
            g.cache_sram_hits += cache.sram_hits;
            g.cache_dram_accesses += cache.dram_accesses;
        }
        g
    }

    /// Lightweight handle for the control plane and libTOE.
    pub fn handle(&self) -> NicHandle {
        NicHandle {
            cfg: self.cfg.clone(),
            table: self.table.clone(),
            db: self.db.clone(),
            ccp: self.ccp.clone(),
            sched: self.sched,
            ctxq: self.ctxq,
            mac: self.mac,
        }
    }
}

/// Pool and connection-state-cache pressure gauges of one NIC: work-pool
/// and packet-buffer high-water marks plus the protocol stages' cache
/// hierarchy counters (summed across flow groups). The scale sweep — and
/// any future experiment — reads pressure from here instead of debug
/// prints.
#[derive(Clone, Copy, Debug, Default)]
pub struct PoolGauges {
    /// Work-pool slots holding live items right now (0 after quiescence).
    pub work_in_use: usize,
    /// Most work-pool slots ever simultaneously live.
    pub work_high_water: usize,
    /// Packet buffers outstanding right now.
    pub seg_in_flight: u64,
    /// Most packet buffers ever simultaneously outstanding.
    pub seg_high_water: u64,
    /// Connection-state entries resident in the EMEM SRAM caches.
    pub cache_occupancy: usize,
    /// High-water mark of that residency (distinct-connection footprint).
    pub cache_high_water: usize,
    pub cache_local_hits: u64,
    pub cache_cls_hits: u64,
    pub cache_sram_hits: u64,
    pub cache_dram_accesses: u64,
}

impl PoolGauges {
    /// Accumulate another NIC's gauges (fleet-wide aggregation). Lives
    /// next to the struct so a new field cannot be silently dropped from
    /// aggregates.
    pub fn merge(&mut self, other: &PoolGauges) {
        self.work_in_use += other.work_in_use;
        self.work_high_water += other.work_high_water;
        self.seg_in_flight += other.seg_in_flight;
        self.seg_high_water += other.seg_high_water;
        self.cache_occupancy += other.cache_occupancy;
        self.cache_high_water += other.cache_high_water;
        self.cache_local_hits += other.cache_local_hits;
        self.cache_cls_hits += other.cache_cls_hits;
        self.cache_sram_hits += other.cache_sram_hits;
        self.cache_dram_accesses += other.cache_dram_accesses;
    }
}

/// The subset of NIC access the control plane and libTOE need.
#[derive(Clone)]
pub struct NicHandle {
    pub cfg: SharedCfg,
    pub table: SharedConnTable,
    pub db: Rc<RefCell<ConnDb>>,
    /// Measurement layer: fold install/uninstall + report-pool access.
    pub ccp: SharedCcp,
    pub sched: NodeId,
    pub ctxq: NodeId,
    pub mac: NodeId,
}
