//! # flextoe-shard — conservative-PDES sharding of one scenario
//!
//! Runs ONE scenario as N communicating [`Sim`] shards, one OS thread
//! each, synchronized with a **barrier-window** protocol (the
//! builder's-choice alternative to null messages — see ARCHITECTURE.md
//! "Sharded execution" for the full invariant list):
//!
//! 1. The coordinator computes `t` = the minimum next-event time across
//!    all shards and all in-flight cross-shard envelopes.
//! 2. Every shard is advanced to `window_end = min(deadline,
//!    t + lookahead − 1)` where `lookahead` is the minimum propagation
//!    delay of any cut link. Any event executed inside the window sits
//!    at time ≥ `t`, so a frame it sends across a cut arrives at
//!    ≥ `t + lookahead` > `window_end` — no shard can receive an event
//!    in its past, no matter how shards interleave within the window.
//! 3. Exports are collected, routed to their owner shard's pending
//!    queue, and shipped with the next `Advance`.
//!
//! Determinism contract: because every event (internal or imported)
//! carries the banded `(time, seq)` key the monolithic engine would
//! have assigned (see `flextoe_sim::engine` module docs), each shard's
//! delivery sequence is exactly the restriction of the monolithic
//! delivery sequence to the nodes it owns — byte-identical stats under
//! any partitioning, including the degenerate 1-shard cut.
//!
//! `Sim` is deliberately `!Send` (nodes are plain `Box<dyn Node>`), so
//! each worker thread *builds* its own full copy of the scenario from a
//! shared build closure, then masks ownership with [`Sim::set_owned`].
//! Build work is replicated, run work is partitioned.

use std::any::Any;
use std::panic::resume_unwind;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use flextoe_sim::{Duration, Envelope, Sim, Time};

// Envelopes cross thread boundaries; Frame is plain bytes + Copy meta.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Envelope>();
};

/// `ctx.halt()` fired inside a shard worker. Halting is a monolithic-only
/// facility: a local halt cannot be ordered against other shards'
/// events (the halting shard has no way to know whether an envelope in
/// flight would have preceded it), so sharded runs surface it as this
/// typed error instead of silently diverging — fuzzer schedules can't
/// hit undefined behavior.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HaltUnsupported {
    /// Which shard halted.
    pub shard: usize,
    /// The barrier-window end at which the halt was observed.
    pub at: Time,
}

impl std::fmt::Display for HaltUnsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ctx.halt() is unsupported under sharding: shard {} halted at {} \
             and a local halt cannot be ordered against other shards' events",
            self.shard, self.at
        )
    }
}

impl std::error::Error for HaltUnsupported {}

/// How a fabric is cut across shards: `owner[node]` is the shard index
/// that runs the node, `lookahead` is the minimum propagation delay of
/// any link whose endpoints live on different shards (the conservative
/// synchronization window). Produced by `topo::partition_fabric`.
#[derive(Clone, Debug)]
pub struct Partition {
    pub owner: Vec<u32>,
    pub lookahead: Duration,
}

impl Partition {
    /// The trivial 1-shard partition (everything owned by shard 0).
    pub fn monolithic(n_nodes: usize) -> Partition {
        Partition {
            owner: vec![0; n_nodes],
            lookahead: Duration::from_ns(1),
        }
    }
}

/// Deterministic + wall-clock synchronization counters for one sharded
/// run. `windows` and `envelopes` depend only on the event schedule and
/// partition (identical across repeat runs); `blocked_ns` is wall time
/// each worker spent parked waiting for its next command and belongs in
/// the host block (`BENCH_<name>.host.json`), never in an artifact body.
#[derive(Clone, Debug, Default)]
pub struct SyncStats {
    /// Barrier rounds executed (each advances every shard one window).
    pub windows: u64,
    /// Cross-shard envelopes exported, per source shard.
    pub envelopes: Vec<u64>,
    /// Events processed, per shard (sums to the monolithic count).
    pub events: Vec<u64>,
    /// Wall nanoseconds each worker spent blocked on the command
    /// channel — nondeterministic, wall-block only.
    pub blocked_ns: Vec<u64>,
}

type CallFn<B> = Box<dyn FnOnce(usize, &mut Sim, &mut B) -> Box<dyn Any + Send> + Send>;

enum Cmd<B> {
    /// Import the envelopes, then `run_until(to)`.
    Advance {
        to: Time,
        imports: Vec<Envelope>,
    },
    /// Run a closure against the worker's `(Sim, B)` pair.
    Call(CallFn<B>),
    Stop,
}

enum Reply {
    Ready {
        partition: Partition,
        next_time: Option<Time>,
    },
    Advanced {
        exports: Vec<Envelope>,
        next_time: Option<Time>,
        events: u64,
        blocked_ns: u64,
        /// `ctx.halt()` fired inside this window — the coordinator turns
        /// it into a [`HaltUnsupported`] error.
        halted: bool,
    },
    /// `each` closures may schedule fresh events, so `Call` also
    /// refreshes the coordinator's view of the shard's next event.
    Called(Box<dyn Any + Send>, Option<Time>),
}

struct Worker<B> {
    cmds: Sender<Cmd<B>>,
    replies: Receiver<Reply>,
    handle: Option<JoinHandle<()>>,
}

fn worker_loop<B>(
    idx: usize,
    build: Arc<dyn Fn(usize) -> (Sim, B, Partition) + Send + Sync>,
    cmds: Receiver<Cmd<B>>,
    replies: Sender<Reply>,
) {
    let (mut sim, mut aux, partition) = build(idx);
    assert_eq!(
        partition.owner.len(),
        sim.n_nodes(),
        "partition must cover every node"
    );
    let mask: Vec<bool> = partition.owner.iter().map(|&s| s as usize == idx).collect();
    sim.set_owned(mask);
    let ready = Reply::Ready {
        partition,
        next_time: sim.next_event_time(),
    };
    if replies.send(ready).is_err() {
        return;
    }
    let mut blocked_ns = 0u64;
    loop {
        let parked = Instant::now();
        let cmd = match cmds.recv() {
            Ok(c) => c,
            Err(_) => return, // coordinator dropped
        };
        blocked_ns += parked.elapsed().as_nanos() as u64;
        match cmd {
            Cmd::Advance { to, imports } => {
                for env in imports {
                    sim.import(env);
                }
                sim.run_until(to);
                let halted = sim.halted();
                let reply = Reply::Advanced {
                    exports: sim.take_exports(),
                    next_time: sim.next_event_time(),
                    events: sim.events_processed(),
                    blocked_ns,
                    halted,
                };
                if replies.send(reply).is_err() {
                    return;
                }
            }
            Cmd::Call(f) => {
                let out = f(idx, &mut sim, &mut aux);
                if replies
                    .send(Reply::Called(out, sim.next_event_time()))
                    .is_err()
                {
                    return;
                }
            }
            Cmd::Stop => return,
        }
    }
}

/// One scenario spread over `n` shard threads. `B` is per-shard builder
/// baggage (app handles, stats registries) the driver wants to consult
/// after the run via [`ShardedSim::each`].
pub struct ShardedSim<B> {
    workers: Vec<Worker<B>>,
    owner: Arc<Vec<u32>>,
    lookahead_ps: u64,
    now: Time,
    /// Per-destination-shard envelopes awaiting the next window.
    pending: Vec<Vec<Envelope>>,
    next_times: Vec<Option<Time>>,
    windows: u64,
    envelopes: Vec<u64>,
    events: Vec<u64>,
    blocked_ns: Vec<u64>,
}

impl<B: 'static> ShardedSim<B> {
    /// Spawn `n` workers, each building its own full copy of the
    /// scenario via `build(shard_idx)` and masking to the nodes the
    /// returned [`Partition`] assigns it. All shards must return the
    /// same partition (it is derived from the scenario, not the shard).
    pub fn launch(
        n: usize,
        build: impl Fn(usize) -> (Sim, B, Partition) + Send + Sync + 'static,
    ) -> ShardedSim<B> {
        assert!(n >= 1, "need at least one shard");
        let build: Arc<dyn Fn(usize) -> (Sim, B, Partition) + Send + Sync> = Arc::new(build);
        let mut workers = Vec::with_capacity(n);
        for idx in 0..n {
            let (cmd_tx, cmd_rx) = channel::<Cmd<B>>();
            let (rep_tx, rep_rx) = channel::<Reply>();
            let build = Arc::clone(&build);
            let handle = std::thread::Builder::new()
                .name(format!("shard-{idx}"))
                .spawn(move || worker_loop(idx, build, cmd_rx, rep_tx))
                .expect("spawn shard worker");
            workers.push(Worker {
                cmds: cmd_tx,
                replies: rep_rx,
                handle: Some(handle),
            });
        }
        let mut sharded = ShardedSim {
            workers,
            owner: Arc::new(Vec::new()),
            lookahead_ps: 0,
            now: Time::ZERO,
            pending: (0..n).map(|_| Vec::new()).collect(),
            next_times: vec![None; n],
            windows: 0,
            envelopes: vec![0; n],
            events: vec![0; n],
            blocked_ns: vec![0; n],
        };
        let mut first: Option<Partition> = None;
        for i in 0..n {
            match sharded.recv(i) {
                Reply::Ready {
                    partition,
                    next_time,
                } => {
                    sharded.next_times[i] = next_time;
                    match &first {
                        None => first = Some(partition),
                        Some(p) => {
                            assert_eq!(
                                p.owner, partition.owner,
                                "shard {i} derived a different partition"
                            );
                            assert_eq!(p.lookahead, partition.lookahead);
                        }
                    }
                }
                _ => unreachable!("first reply must be Ready"),
            }
        }
        let p = first.expect("at least one shard");
        assert!(
            p.owner.iter().all(|&s| (s as usize) < n),
            "partition references shard >= n"
        );
        assert!(p.lookahead > Duration::ZERO, "lookahead must be positive");
        sharded.lookahead_ps = p.lookahead.ps();
        sharded.owner = Arc::new(p.owner);
        sharded
    }

    pub fn n_shards(&self) -> usize {
        self.workers.len()
    }

    pub fn now(&self) -> Time {
        self.now
    }

    fn recv(&mut self, i: usize) -> Reply {
        match self.workers[i].replies.recv() {
            Ok(r) => r,
            Err(_) => {
                // Worker is gone: join it and re-raise its panic so the
                // failure surfaces at the coordinator with the original
                // message instead of a bare RecvError.
                let handle = self.workers[i]
                    .handle
                    .take()
                    .expect("worker reply channel closed twice");
                match handle.join() {
                    Err(payload) => resume_unwind(payload),
                    Ok(()) => panic!("shard worker {i} exited without a reply"),
                }
            }
        }
    }

    /// Advance every shard to `deadline` in conservative barrier
    /// windows. On return all shards' clocks equal `deadline` and every
    /// cross-shard envelope with time ≤ `deadline` has been delivered.
    ///
    /// Panics with the [`HaltUnsupported`] message if any shard calls
    /// `ctx.halt()`; use [`ShardedSim::try_run_until`] to handle that as
    /// a typed error instead.
    pub fn run_until(&mut self, deadline: Time) {
        if let Err(halt) = self.try_run_until(deadline) {
            panic!("{halt}");
        }
    }

    /// [`ShardedSim::run_until`], but `ctx.halt()` inside a shard is
    /// reported as a typed [`HaltUnsupported`] error instead of a panic.
    /// The window in which the halt fired is still fully synchronized
    /// (all shards advanced, all replies drained) before returning, so
    /// the coordinator's channels stay consistent and the error is
    /// deterministic per seed.
    pub fn try_run_until(&mut self, deadline: Time) -> Result<(), HaltUnsupported> {
        assert!(deadline >= self.now, "run_until moving backwards");
        let n = self.workers.len();
        loop {
            // Earliest outstanding work: a shard's local queue or an
            // envelope still in flight between shards.
            let mut t = u64::MAX;
            for nt in self.next_times.iter().flatten() {
                t = t.min(nt.ps());
            }
            for q in &self.pending {
                for env in q {
                    t = t.min(env.time.ps());
                }
            }
            let window_end = if t <= deadline.ps() {
                deadline.ps().min(t + self.lookahead_ps - 1)
            } else {
                deadline.ps()
            };
            for i in 0..n {
                let imports = std::mem::take(&mut self.pending[i]);
                self.workers[i]
                    .cmds
                    .send(Cmd::Advance {
                        to: Time(window_end),
                        imports,
                    })
                    .unwrap_or_else(|_| {
                        // Surface the worker's panic, not the send error.
                        let _ = self.recv(i);
                        unreachable!("recv after closed cmd channel must panic")
                    });
            }
            self.windows += 1;
            let owner = Arc::clone(&self.owner);
            let mut halted_shard: Option<usize> = None;
            for i in 0..n {
                match self.recv(i) {
                    Reply::Advanced {
                        exports,
                        next_time,
                        events,
                        blocked_ns,
                        halted,
                    } => {
                        self.envelopes[i] += exports.len() as u64;
                        self.events[i] = events;
                        self.blocked_ns[i] = blocked_ns;
                        self.next_times[i] = next_time;
                        for env in exports {
                            self.pending[owner[env.to] as usize].push(env);
                        }
                        if halted && halted_shard.is_none() {
                            halted_shard = Some(i);
                        }
                    }
                    _ => unreachable!("Advance must be answered by Advanced"),
                }
            }
            self.now = Time(window_end);
            if let Some(shard) = halted_shard {
                return Err(HaltUnsupported {
                    shard,
                    at: self.now,
                });
            }
            if window_end == deadline.ps() {
                // Any envelope produced in the final window has time
                // > window_end == deadline; it stays pending for a
                // later run_until call.
                debug_assert!(self
                    .pending
                    .iter()
                    .all(|q| q.iter().all(|e| e.time > deadline)));
                return Ok(());
            }
        }
    }

    /// Run `f` once per shard (in parallel, in shard order) against the
    /// worker's `(Sim, B)` and collect the results in shard order. This
    /// is how drivers harvest stats after (or between) `run_until`s.
    pub fn each<R: Send + 'static>(
        &mut self,
        f: impl Fn(usize, &mut Sim, &mut B) -> R + Send + Sync + 'static,
    ) -> Vec<R> {
        let f = Arc::new(f);
        let n = self.workers.len();
        for worker in &self.workers {
            let f = Arc::clone(&f);
            let call: CallFn<B> =
                Box::new(move |idx, sim, aux| Box::new(f(idx, sim, aux)) as Box<dyn Any + Send>);
            // A dead worker is reported by the recv below.
            let _ = worker.cmds.send(Cmd::Call(call));
        }
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            match self.recv(i) {
                Reply::Called(any, next_time) => {
                    self.next_times[i] = next_time;
                    out.push(
                        *any.downcast::<R>()
                            .expect("each() closure returned a foreign type"),
                    );
                }
                _ => unreachable!("Call must be answered by Called"),
            }
        }
        out
    }

    /// Synchronization counters accumulated so far. `windows`,
    /// `envelopes` and `events` are deterministic; `blocked_ns` is wall
    /// clock.
    pub fn sync_stats(&self) -> SyncStats {
        SyncStats {
            windows: self.windows,
            envelopes: self.envelopes.clone(),
            events: self.events.clone(),
            blocked_ns: self.blocked_ns.clone(),
        }
    }

    /// Total events processed across shards (matches the monolithic
    /// engine's `events_processed` for the same scenario).
    pub fn total_events(&self) -> u64 {
        self.events.iter().sum()
    }
}

impl<B> Drop for ShardedSim<B> {
    fn drop(&mut self) {
        for w in &self.workers {
            let _ = w.cmds.send(Cmd::Stop);
        }
        for w in &mut self.workers {
            if let Some(h) = w.handle.take() {
                // Don't double-panic during unwinding; the panic that
                // killed the worker has already been surfaced by recv()
                // if the coordinator was still listening.
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flextoe_sim::{Ctx, Msg, Node};
    use flextoe_wire::Frame;

    /// Echoes every received frame back to a peer on another shard
    /// after `delay`, up to `hops` times, logging receipt times.
    struct PingPong {
        peer: usize,
        delay: Duration,
        hops: u32,
        log: Vec<(u64, u8)>,
    }
    impl Node for PingPong {
        fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            let Msg::Frame(frame) = msg else {
                panic!("expected a frame")
            };
            self.log.push((ctx.now().ps(), frame.bytes[0]));
            if self.hops > 0 {
                self.hops -= 1;
                let mut next = frame;
                next.bytes[0] = next.bytes[0].wrapping_add(1);
                ctx.send(self.peer, self.delay, Msg::Frame(next));
            }
        }
    }

    fn build_pair(seed: u64) -> (Sim, Vec<usize>) {
        let mut sim = Sim::new(seed);
        let a = sim.add_node(PingPong {
            peer: 1,
            delay: Duration::from_ns(500),
            hops: 4,
            log: Vec::new(),
        });
        let b = sim.add_node(PingPong {
            peer: 0,
            delay: Duration::from_ns(500),
            hops: 4,
            log: Vec::new(),
        });
        sim.schedule(Time::ZERO, a, Msg::Frame(Frame::raw(vec![0u8; 8])));
        (sim, vec![a, b])
    }

    fn logs_of(sim: &Sim, ids: &[usize]) -> Vec<Vec<(u64, u8)>> {
        ids.iter()
            .map(|&id| {
                if sim.owns(id) {
                    sim.node_ref::<PingPong>(id).log.clone()
                } else {
                    Vec::new()
                }
            })
            .collect()
    }

    #[test]
    fn two_shard_ping_pong_matches_monolithic() {
        let deadline = Time::from_us(10);
        let (mut mono, ids) = build_pair(7);
        mono.run_until(deadline);
        let want = logs_of(&mono, &ids);
        let want_events = mono.events_processed();

        let mut sharded = ShardedSim::launch(2, |_idx| {
            let (sim, ids) = build_pair(7);
            let partition = Partition {
                owner: vec![0, 1],
                lookahead: Duration::from_ns(500),
            };
            (sim, ids, partition)
        });
        sharded.run_until(deadline);
        let got = sharded.each(|_idx, sim, ids| logs_of(sim, ids));
        // Each shard holds the log restriction for the nodes it owns;
        // merging (elementwise, empty-for-ghost) rebuilds the whole.
        let merged: Vec<Vec<(u64, u8)>> = (0..2)
            .map(|node| {
                got.iter()
                    .map(|per_shard| per_shard[node].clone())
                    .find(|l| !l.is_empty())
                    .unwrap_or_default()
            })
            .collect();
        assert_eq!(merged, want);
        assert_eq!(sharded.total_events(), want_events);
        // Each node forwards `hops = 4` times, all across the cut.
        let stats = sharded.sync_stats();
        assert!(stats.windows >= 8, "8 hops need at least 8 windows");
        assert_eq!(stats.envelopes.iter().sum::<u64>(), 8);
        assert_eq!(stats.envelopes, vec![4, 4]);
    }

    #[test]
    fn one_shard_degenerate_cut_is_exact() {
        let deadline = Time::from_us(10);
        let (mut mono, ids) = build_pair(11);
        mono.run_until(deadline);
        let want = logs_of(&mono, &ids);

        let mut sharded = ShardedSim::launch(1, |_| {
            let (sim, ids) = build_pair(11);
            (sim, ids, Partition::monolithic(2))
        });
        sharded.run_until(deadline);
        let got = sharded.each(|_, sim, ids| logs_of(sim, ids));
        assert_eq!(got[0], want);
        assert_eq!(sharded.sync_stats().envelopes.iter().sum::<u64>(), 0);
    }

    /// A node that halts its local engine on the first message — the
    /// monolithic-only facility the sharded coordinator must reject.
    struct Halter;
    impl Node for Halter {
        fn on_msg(&mut self, ctx: &mut Ctx<'_>, _msg: Msg) {
            ctx.halt();
        }
    }

    fn build_halting(_idx: usize) -> (Sim, (), Partition) {
        let mut sim = Sim::new(5);
        let h = sim.add_node(Halter);
        sim.add_node(PingPong {
            peer: h,
            delay: Duration::from_ns(500),
            hops: 0,
            log: Vec::new(),
        });
        sim.schedule(Time::from_ns(100), h, Msg::Frame(Frame::raw(vec![1u8; 8])));
        let partition = Partition {
            owner: vec![0, 1],
            lookahead: Duration::from_ns(500),
        };
        (sim, (), partition)
    }

    #[test]
    fn halt_under_sharding_is_a_typed_error() {
        let mut sharded = ShardedSim::launch(2, build_halting);
        let err = sharded
            .try_run_until(Time::from_us(1))
            .expect_err("ctx.halt() inside a shard must surface as an error");
        assert_eq!(err.shard, 0, "the Halter lives on shard 0");
        assert!(
            err.to_string().contains("unsupported under sharding"),
            "got: {err}"
        );

        // The panicking wrapper re-raises the same typed message.
        let result = std::panic::catch_unwind(|| {
            let mut sharded = ShardedSim::launch(2, build_halting);
            sharded.run_until(Time::from_us(1));
        });
        let payload = result.expect_err("run_until must panic on a shard halt");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(
            msg.contains("ctx.halt() is unsupported under sharding"),
            "got: {msg}"
        );
    }

    #[test]
    fn worker_panic_surfaces_at_coordinator() {
        let result = std::panic::catch_unwind(|| {
            let mut sharded = ShardedSim::launch(2, |_| {
                let (sim, ids) = build_pair(3);
                let partition = Partition {
                    owner: vec![0, 1],
                    lookahead: Duration::from_ns(500),
                };
                (sim, ids, partition)
            });
            sharded.each(|idx, _sim, _ids| {
                if idx == 1 {
                    panic!("boom from shard 1");
                }
            });
        });
        let payload = result.expect_err("coordinator must re-raise");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("boom from shard 1"), "got: {msg}");
    }
}
