//! The datapath measurement layer: per-flow fold state, report batching,
//! and the pooled report buffers shared with the control plane.
//!
//! The post-processing stage calls [`CcpDatapath::on_ack`] for every
//! ACK/ECN/retransmit event. The fold aggregates in place; when a flow's
//! report interval elapses (or an urgent event — fast retransmit — fires)
//! its fold snapshot is appended to the currently-open batch. A batch is
//! sealed when it fills, lingers too long, or carries an urgent report,
//! and travels to the control plane as a single `Msg::Report` carrying
//! only a slot index into this pool — many flows per message, no per-ACK
//! control-plane event, no per-report heap allocation on the hot path.

use std::cell::RefCell;
use std::rc::Rc;

use flextoe_ebpf::{Insn, MapSet, Vm};
use flextoe_sim::{Duration, ReportBatchToken};

use crate::fold::{
    builtin_step, decode_state, encode_state, AckEvent, StateField, FOLD_BUF_SIZE, N_STATE,
};

/// One flow's folded measurements, snapshotted into a report batch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlowReport {
    pub conn: u32,
    /// Install generation of `conn` when this report was folded.
    /// Connection ids are reused (lowest-free-index allocation); a
    /// report that lingered across a teardown must not feed the id's
    /// *next* flow — consumers check `epoch` against
    /// [`CcpDatapath::flow_epoch`].
    pub epoch: u32,
    /// Bytes acknowledged over the report window.
    pub acked_bytes: u32,
    /// ECN-marked bytes over the report window.
    pub ecn_bytes: u32,
    /// Fast retransmits over the report window.
    pub fast_retx: u32,
    /// Latest smoothed RTT estimate, microseconds.
    pub rtt_us: u32,
    /// Wall-clock span the report covers, microseconds.
    pub elapsed_us: u32,
    /// Custom-fold scratch registers (`StateField::User`), snapshotted
    /// but *not* reset per window — flow-persistent accumulators.
    pub user: [u32; 4],
    /// Sealed out-of-interval by an urgent event (fast retransmit).
    pub urgent: bool,
}

/// A pooled batch buffer. `entries` keeps its capacity across reuse, so
/// steady-state batching never allocates.
#[derive(Debug, Default)]
struct Batch {
    entries: Vec<FlowReport>,
    urgent: bool,
    opened_at_us: u32,
}

/// How a flow's fold executes.
enum Exec {
    /// Native fast path for the built-in fold.
    Native,
    /// A custom fold program, compiled to eBPF, on the shared VM.
    Vm(Rc<Vec<Insn>>),
}

struct FlowFold {
    exec: Exec,
    init: [u32; N_STATE],
    state: [u32; N_STATE],
    /// When this flow's current report window opened. Due-ness is a
    /// `wrapping_sub` against this, so µs timestamps may wrap (u32 µs
    /// wraps after ~71 minutes of simulated time).
    last_report_us: u32,
}

/// Measurement-layer configuration, fixed when the NIC is built.
#[derive(Clone, Copy, Debug)]
pub struct MeasureCfg {
    /// Per-flow report interval.
    pub report_interval: Duration,
    /// Seal an open batch once it holds this many flow reports.
    pub batch_capacity: usize,
    /// Seal an open batch after this long even if not full.
    pub linger: Duration,
}

impl Default for MeasureCfg {
    fn default() -> Self {
        MeasureCfg {
            report_interval: Duration::from_us(50),
            batch_capacity: 32,
            linger: Duration::from_us(10),
        }
    }
}

/// Result of feeding one ACK event into the measurement layer.
#[derive(Debug, Default)]
pub struct AckOutcome {
    /// A batch was sealed: send this token to the control plane.
    pub sealed: Option<ReportBatchToken>,
    /// eBPF instructions executed (0 on the native fast path) — charged
    /// against the FPC cost model by the post stage.
    pub vm_insns: u64,
    /// Whether a fold was installed for this flow at all.
    pub folded: bool,
}

/// The per-NIC measurement state. Shared (`Rc<RefCell>`) between the
/// post-processing stages and the control plane — the simulation analogue
/// of NIC-memory fold state plus a host-shared report ring.
pub struct CcpDatapath {
    cfg: MeasureCfg,
    flows: Vec<Option<FlowFold>>,
    /// Per-conn install generation (bumped on every install).
    epochs: Vec<u32>,
    pool: Vec<Batch>,
    free: Vec<u32>,
    open: Option<u32>,
    vm: Vm,
    maps: MapSet,
    buf: [u8; FOLD_BUF_SIZE],
    /// Flow reports emitted.
    pub reports: u64,
}

impl CcpDatapath {
    pub fn new(cfg: MeasureCfg) -> CcpDatapath {
        CcpDatapath {
            cfg,
            flows: Vec::new(),
            epochs: Vec::new(),
            pool: Vec::new(),
            free: Vec::new(),
            open: None,
            vm: Vm::new(),
            maps: MapSet::new(),
            buf: [0u8; FOLD_BUF_SIZE],
            reports: 0,
        }
    }

    /// Install a fold for `conn`. `None` selects the built-in fold's
    /// native fast path; `Some` runs a compiled custom fold on the VM.
    pub fn install(
        &mut self,
        conn: u32,
        prog: Option<(Rc<Vec<Insn>>, [u32; N_STATE])>,
        now_us: u32,
    ) {
        let idx = conn as usize;
        if idx >= self.flows.len() {
            self.flows.resize_with(idx + 1, || None);
            self.epochs.resize(idx + 1, 0);
        }
        self.epochs[idx] = self.epochs[idx].wrapping_add(1);
        let (exec, init) = match prog {
            None => (Exec::Native, [0u32; N_STATE]),
            Some((p, init)) => (Exec::Vm(p), init),
        };
        self.flows[idx] = Some(FlowFold {
            exec,
            init,
            state: init,
            last_report_us: now_us,
        });
    }

    pub fn uninstall(&mut self, conn: u32) {
        if let Some(slot) = self.flows.get_mut(conn as usize) {
            *slot = None;
        }
    }

    /// Current install generation of `conn` (0 = never installed).
    pub fn flow_epoch(&self, conn: u32) -> u32 {
        self.epochs.get(conn as usize).copied().unwrap_or(0)
    }

    /// Fold one ACK event into `conn`'s state; snapshot/batch when due.
    pub fn on_ack(&mut self, conn: u32, ev: &AckEvent) -> AckOutcome {
        let Some(Some(flow)) = self.flows.get_mut(conn as usize) else {
            return AckOutcome::default();
        };
        let vm_insns = match &flow.exec {
            Exec::Native => {
                builtin_step(&mut flow.state, ev);
                0
            }
            Exec::Vm(prog) => {
                ev.encode_into(&mut self.buf);
                encode_state(&flow.state, &mut self.buf);
                match self.vm.run(prog.as_slice(), &mut self.buf, &mut self.maps) {
                    Ok(res) => {
                        flow.state = decode_state(&self.buf);
                        res.insns
                    }
                    // a trapping fold is a programming error; fail safe by
                    // keeping the previous state
                    Err(_) => 0,
                }
            }
        };

        let urgent = flow.state[StateField::Urgent.idx()] != 0;
        // wraparound-safe: elapsed-since-window-open, not an absolute
        // deadline comparison
        let due = urgent
            || ev.now_us.wrapping_sub(flow.last_report_us)
                >= self.cfg.report_interval.as_us() as u32;
        if !due {
            return AckOutcome {
                vm_insns,
                folded: true,
                ..Default::default()
            };
        }

        let report = FlowReport {
            conn,
            epoch: self.epochs[conn as usize],
            acked_bytes: flow.state[StateField::Acked.idx()],
            ecn_bytes: flow.state[StateField::Ecn.idx()],
            fast_retx: flow.state[StateField::Fretx.idx()],
            rtt_us: flow.state[StateField::Rtt.idx()],
            elapsed_us: ev.now_us.wrapping_sub(flow.last_report_us),
            user: [
                flow.state[StateField::User(0).idx()],
                flow.state[StateField::User(1).idx()],
                flow.state[StateField::User(2).idx()],
                flow.state[StateField::User(3).idx()],
            ],
            urgent,
        };
        // reset the windowed accumulators; the RTT estimate and the User
        // scratch registers persist across windows (flow-scoped state)
        for f in [
            StateField::Acked,
            StateField::Ecn,
            StateField::Fretx,
            StateField::Urgent,
        ] {
            flow.state[f.idx()] = flow.init[f.idx()];
        }
        flow.last_report_us = ev.now_us;

        // nothing to tell the algorithm about: just restart the window
        if report.acked_bytes == 0 && report.ecn_bytes == 0 && report.fast_retx == 0 && !urgent {
            return AckOutcome {
                vm_insns,
                folded: true,
                ..Default::default()
            };
        }

        AckOutcome {
            sealed: self.append(report, ev.now_us),
            vm_insns,
            folded: true,
        }
    }

    fn append(&mut self, report: FlowReport, now_us: u32) -> Option<ReportBatchToken> {
        let slot = match self.open {
            Some(s) => s,
            None => {
                let s = self.free.pop().unwrap_or_else(|| {
                    self.pool.push(Batch::default());
                    (self.pool.len() - 1) as u32
                });
                self.pool[s as usize].opened_at_us = now_us;
                self.open = Some(s);
                s
            }
        };
        let urgent = report.urgent;
        let batch = &mut self.pool[slot as usize];
        batch.entries.push(report);
        batch.urgent |= urgent;
        self.reports += 1;
        let full = batch.entries.len() >= self.cfg.batch_capacity;
        let lingered = now_us.wrapping_sub(batch.opened_at_us) >= self.cfg.linger.as_us() as u32;
        if urgent || full || lingered {
            Some(self.seal(slot))
        } else {
            None
        }
    }

    fn seal(&mut self, slot: u32) -> ReportBatchToken {
        self.open = None;
        ReportBatchToken {
            slot,
            urgent: self.pool[slot as usize].urgent,
        }
    }

    /// Control-plane backstop: seal the open batch if it has lingered
    /// (covers flows that went idle right after appending a report).
    pub fn flush_stale(&mut self, now_us: u32) -> Option<ReportBatchToken> {
        let slot = self.open?;
        let batch = &self.pool[slot as usize];
        if batch.entries.is_empty() {
            return None;
        }
        if now_us.wrapping_sub(batch.opened_at_us) >= self.cfg.linger.as_us() as u32 {
            return Some(self.seal(slot));
        }
        None
    }

    /// Seal the open batch unconditionally — used when the control loop
    /// goes quiet (last flow torn down): no further ACK or tick would
    /// ever flush it.
    pub fn flush_open(&mut self) -> Option<ReportBatchToken> {
        let slot = self.open?;
        if self.pool[slot as usize].entries.is_empty() {
            return None;
        }
        Some(self.seal(slot))
    }

    /// Take a sealed batch's entries for processing (no copy: the `Vec`
    /// moves out and must come back through [`CcpDatapath::release`]).
    pub fn take(&mut self, slot: u32) -> Vec<FlowReport> {
        std::mem::take(&mut self.pool[slot as usize].entries)
    }

    /// Return a processed batch buffer to the pool (capacity retained).
    pub fn release(&mut self, slot: u32, mut entries: Vec<FlowReport>) {
        entries.clear();
        let batch = &mut self.pool[slot as usize];
        batch.entries = entries;
        batch.urgent = false;
        self.free.push(slot);
    }

    /// Pool capacity in batch buffers (diagnostics: should plateau at the
    /// in-flight working set, not grow with runtime).
    pub fn pool_size(&self) -> usize {
        self.pool.len()
    }
}

pub type SharedCcp = Rc<RefCell<CcpDatapath>>;

pub fn shared_datapath(cfg: MeasureCfg) -> SharedCcp {
    Rc::new(RefCell::new(CcpDatapath::new(cfg)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(acked: u32, now_us: u32) -> AckEvent {
        AckEvent {
            acked_bytes: acked,
            rtt_us: 40,
            now_us,
            ..Default::default()
        }
    }

    fn dp() -> CcpDatapath {
        CcpDatapath::new(MeasureCfg {
            report_interval: Duration::from_us(50),
            batch_capacity: 4,
            linger: Duration::from_us(10),
        })
    }

    #[test]
    fn no_report_before_interval() {
        let mut d = dp();
        d.install(1, None, 0);
        for t in (0..45).step_by(5) {
            assert!(d.on_ack(1, &ev(1000, t)).sealed.is_none());
        }
        assert_eq!(d.reports, 0, "aggregation only inside the interval");
    }

    #[test]
    fn interval_elapsed_emits_batched_report() {
        let mut d = dp();
        d.install(1, None, 0);
        d.install(2, None, 0);
        for t in (0..50).step_by(5) {
            d.on_ack(1, &ev(1000, t));
            d.on_ack(2, &ev(500, t));
        }
        // both flows due at t=50; second append hits capacity? no — seals by
        // linger only after 10us; at t=50 batch opens, still one entry
        let o1 = d.on_ack(1, &ev(1000, 50));
        assert!(o1.sealed.is_none());
        let o2 = d.on_ack(2, &ev(500, 50));
        assert!(o2.sealed.is_none(), "no linger yet");
        // linger expires: next due report seals a batch holding all three
        let o3 = d.on_ack(1, &ev(1000, 105));
        let tok = o3.sealed.expect("lingered batch seals");
        let entries = d.take(tok.slot);
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].conn, 1);
        assert_eq!(entries[0].acked_bytes, 11_000);
        assert_eq!(entries[1].conn, 2);
        assert_eq!(entries[1].acked_bytes, 5_500);
        assert!(entries.iter().all(|r| !r.urgent));
        d.release(tok.slot, entries);
        assert_eq!(d.pool_size(), 1, "pooled, not reallocated");
    }

    #[test]
    fn urgent_event_seals_immediately() {
        let mut d = dp();
        d.install(3, None, 0);
        let out = d.on_ack(
            3,
            &AckEvent {
                acked_bytes: 100,
                fast_retx: true,
                now_us: 5,
                ..Default::default()
            },
        );
        let tok = out.sealed.expect("fast-retx is urgent");
        assert!(tok.urgent);
        let entries = d.take(tok.slot);
        assert_eq!(entries.len(), 1);
        assert!(entries[0].urgent);
        assert_eq!(entries[0].fast_retx, 1);
        d.release(tok.slot, entries);
    }

    #[test]
    fn capacity_seals_batch() {
        let mut d = dp();
        for c in 0..8 {
            d.install(c, None, 0);
        }
        let mut sealed = Vec::new();
        for c in 0..8 {
            if let Some(t) = d.on_ack(c, &ev(100, 60)).sealed {
                sealed.push((t, d.take(t.slot).len()));
            }
        }
        assert_eq!(sealed.len(), 2, "8 due flows / capacity 4");
        assert!(sealed.iter().all(|&(_, n)| n == 4));
    }

    #[test]
    fn pool_buffers_are_reused() {
        let mut d = dp();
        d.install(1, None, 0);
        for round in 1..50u32 {
            let t = round * 60;
            // urgent seals every time → one batch in flight at once
            let out = d.on_ack(
                1,
                &AckEvent {
                    acked_bytes: 10,
                    fast_retx: true,
                    now_us: t,
                    ..Default::default()
                },
            );
            let tok = out.sealed.unwrap();
            let e = d.take(tok.slot);
            d.release(tok.slot, e);
        }
        assert_eq!(d.pool_size(), 1, "single buffer recycled {} times", 49);
    }

    #[test]
    fn flush_stale_covers_idle_flows() {
        let mut d = dp();
        d.install(1, None, 0);
        // due report appended at t=55, flow goes idle
        assert!(d.on_ack(1, &ev(1000, 55)).sealed.is_none());
        assert!(d.flush_stale(56).is_none(), "not lingered yet");
        let tok = d.flush_stale(70).expect("stale batch flushed");
        assert_eq!(d.take(tok.slot).len(), 1);
    }

    #[test]
    fn report_cadence_survives_timestamp_wrap() {
        let mut d = dp();
        let start = u32::MAX - 20;
        d.install(1, None, start);
        // 10 µs into the window (still pre-wrap): not due
        assert!(d
            .on_ack(1, &ev(100, start.wrapping_add(10)))
            .sealed
            .is_none());
        assert_eq!(d.reports, 0);
        // 55 µs elapsed — now_us has wrapped past zero — due
        d.on_ack(1, &ev(100, start.wrapping_add(55)));
        assert_eq!(d.reports, 1, "report window spans the µs wrap");
        let tok = d.flush_open().expect("open batch seals");
        let entries = d.take(tok.slot);
        assert_eq!(entries[0].acked_bytes, 200);
        assert_eq!(entries[0].elapsed_us, 55);
        d.release(tok.slot, entries);
    }

    #[test]
    fn epoch_guards_connection_id_reuse() {
        let mut d = dp();
        d.install(1, None, 0);
        let e1 = d.flow_epoch(1);
        // due report appended; batch still open when the flow tears down
        assert!(d.on_ack(1, &ev(1000, 55)).sealed.is_none());
        d.uninstall(1);
        d.install(1, None, 60); // connection id reused by a new flow
        assert_ne!(d.flow_epoch(1), e1, "reinstall bumps the generation");
        let tok = d.flush_open().expect("stale batch still delivered");
        let entries = d.take(tok.slot);
        assert_eq!(entries[0].epoch, e1, "report carries its fold-time epoch");
        assert_ne!(
            entries[0].epoch,
            d.flow_epoch(1),
            "consumers can reject the stale report"
        );
        d.release(tok.slot, entries);
    }

    #[test]
    fn user_registers_persist_across_report_windows() {
        use crate::fold::{compile, Bind, EventField, FoldOp, FoldProg, Operand};
        // custom fold: User(0) accumulates acked bytes and is never reset
        let mut prog = FoldProg::builtin();
        prog.binds.push(Bind {
            dst: StateField::User(0),
            op: FoldOp::Add,
            arg: Operand::Event(EventField::AckedBytes),
        });
        let compiled = Rc::new(compile(&prog));
        let mut d = dp();
        d.install(1, Some((compiled, prog.init)), 0);
        assert!(d.on_ack(1, &ev(1000, 55)).sealed.is_none()); // 1st window
        let tok = d
            .on_ack(1, &ev(1000, 110)) // 2nd window: lingered batch seals
            .sealed
            .expect("reports batched");
        let entries = d.take(tok.slot);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].acked_bytes, 1000, "windowed field resets");
        assert_eq!(entries[1].acked_bytes, 1000);
        assert_eq!(entries[0].user[0], 1000);
        assert_eq!(entries[1].user[0], 2000, "User scratch persists");
        d.release(tok.slot, entries);
    }

    #[test]
    fn flush_open_seals_unconditionally() {
        let mut d = dp();
        d.install(1, None, 0);
        assert!(d.flush_open().is_none(), "nothing open yet");
        assert!(d.on_ack(1, &ev(1000, 55)).sealed.is_none());
        // no linger elapsed — stale flush refuses, open flush delivers
        assert!(d.flush_stale(56).is_none());
        let tok = d.flush_open().expect("sealed on quiesce");
        assert_eq!(d.take(tok.slot).len(), 1);
    }

    #[test]
    fn uninstalled_flow_is_ignored() {
        let mut d = dp();
        let out = d.on_ack(9, &ev(1000, 100));
        assert!(!out.folded && out.sealed.is_none());
        d.install(9, None, 100);
        assert!(d.on_ack(9, &ev(1000, 120)).folded);
        d.uninstall(9);
        assert!(!d.on_ack(9, &ev(1000, 140)).folded);
    }

    #[test]
    fn vm_fold_reports_match_native() {
        use crate::fold::{compile, FoldProg};
        let prog = FoldProg::builtin();
        let compiled = Rc::new(compile(&prog));
        let mut native = dp();
        let mut vm = dp();
        native.install(1, None, 0);
        vm.install(1, Some((compiled, prog.init)), 0);
        for t in 0..200u32 {
            let e = AckEvent {
                acked_bytes: 1448,
                ecn_bytes: if t % 7 == 0 { 1448 } else { 0 },
                rtt_us: 30 + (t % 5),
                fast_retx: false,
                now_us: t * 3,
            };
            let a = native.on_ack(1, &e);
            let b = vm.on_ack(1, &e);
            assert!(b.vm_insns > 0, "custom folds run on the VM");
            assert_eq!(a.sealed.map(|s| s.slot), b.sealed.map(|s| s.slot));
            if let (Some(x), Some(y)) = (a.sealed, b.sealed) {
                let ea = native.take(x.slot);
                let eb = vm.take(y.slot);
                assert_eq!(ea, eb, "identical report streams");
                native.release(x.slot, ea);
                vm.release(y.slot, eb);
            }
        }
    }
}
