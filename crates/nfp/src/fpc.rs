//! Flow-processing-core timing model.
//!
//! An FPC is a single-issue 32-bit core with 8 hardware threads (§2.3).
//! Compute serializes on the issue pipeline; memory waits park the thread,
//! letting sibling threads run. This is the mechanism behind Table 3's
//! "+Intra-FPC parallelism 2.25×" row: with multithreading on, memory
//! latency overlaps compute of other segments; with it off, every memory
//! reference stalls the whole core.
//!
//! The model: each work item costs `compute` cycles (exclusive use of the
//! issue pipeline) followed by `mem` cycles of memory waiting (thread
//! parked). At most `threads` items are in flight; further arrivals queue.
//!
//! Each hardware thread is a slot holding the completion of the last item
//! it ran. Every result depends only on the multiset of slot values, so
//! the slots are kept sorted: the thread that frees up first is always
//! `slots[0]`, and an item's completion usually sorts last, where it
//! lands without a search.

use flextoe_sim::{Duration, Time};

/// Cost of one work item on an FPC.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Cost {
    /// Instruction-execution cycles (occupy the issue pipeline).
    pub compute: u64,
    /// Memory-wait cycles (overlappable across hardware threads).
    pub mem: u64,
}

impl Cost {
    pub const ZERO: Cost = Cost { compute: 0, mem: 0 };

    pub fn new(compute: u64, mem: u64) -> Cost {
        Cost { compute, mem }
    }

    pub fn total(&self) -> u64 {
        self.compute + self.mem
    }
}

impl core::ops::Add for Cost {
    type Output = Cost;
    fn add(self, rhs: Cost) -> Cost {
        Cost {
            compute: self.compute + rhs.compute,
            mem: self.mem + rhs.mem,
        }
    }
}
impl core::ops::AddAssign for Cost {
    fn add_assign(&mut self, rhs: Cost) {
        *self = *self + rhs;
    }
}

/// Timing state of one FPC (or one host core).
#[derive(Clone, Debug)]
pub struct FpcTimer {
    cycle: Duration,
    /// When the issue pipeline frees up.
    core_free: Time,
    /// When each hardware thread frees up: the completion of the last item
    /// it ran (one slot per thread, allocated once), in ascending order.
    slots: Box<[Time]>,
    /// Total cycles of compute issued (utilization accounting).
    pub busy: Duration,
}

impl FpcTimer {
    pub fn new(clock: flextoe_sim::Clock, threads: usize) -> FpcTimer {
        assert!(threads >= 1);
        FpcTimer {
            cycle: clock.cycles(1),
            core_free: Time::ZERO,
            slots: vec![Time::ZERO; threads].into_boxed_slice(),
            busy: Duration::ZERO,
        }
    }

    fn cycles(&self, n: u64) -> Duration {
        Duration::from_ps(self.cycle.ps().saturating_mul(n))
    }

    /// Admit a work item arriving at `now`; returns its completion time.
    ///
    /// With `threads == 1` the item also blocks the core during its memory
    /// wait (no latency hiding) — the Table 3 "pipelining only" config.
    ///
    /// Arrivals need not be monotone (the protocol stage holds an item
    /// back until its connection's previous one completes). The item takes
    /// the thread that frees up first. A slot that an earlier arrival
    /// already saw free ends no later than that arrival, and so no later
    /// than `core_free`: an earlier `now` cannot make it delay the item.
    pub fn execute(&mut self, now: Time, cost: Cost) -> Time {
        let start = self.slots[0].max(now).max(self.core_free);
        let compute_end = start + self.cycles(cost.compute);
        let done = compute_end + self.cycles(cost.mem);
        // single-threaded: memory stalls the issue pipeline too
        self.core_free = if self.slots.len() == 1 {
            done
        } else {
            compute_end
        };
        // retire the first free thread and insert `done` from the back
        self.slots.copy_within(1.., 0);
        let mut at = self.slots.len() - 1;
        while at > 0 && self.slots[at - 1] > done {
            self.slots[at] = self.slots[at - 1];
            at -= 1;
        }
        self.slots[at] = done;
        self.busy += self.cycles(cost.compute);
        done
    }

    /// Earliest time a new arrival could *start* executing.
    pub fn next_free(&self, now: Time) -> Time {
        self.slots[0].max(now).max(self.core_free)
    }

    pub fn threads(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flextoe_sim::clocks::FPC_800MHZ;

    fn t_ns(ns: u64) -> Time {
        Time::from_ns(ns)
    }

    #[test]
    fn single_item_cost() {
        let mut f = FpcTimer::new(FPC_800MHZ, 8);
        // 100 compute + 400 mem cycles at 1.25ns/cyc = 125ns + 500ns
        let done = f.execute(Time::ZERO, Cost::new(100, 400));
        assert_eq!(done.as_ns(), 625);
    }

    #[test]
    fn multithreading_hides_memory_latency() {
        // 8 items of (100 compute, 700 mem) cycles on 8 threads:
        // compute serializes (8 * 100 = 800 cyc), memory overlaps.
        // Item k completes at (k+1)*100 + 700 cycles.
        let mut mt = FpcTimer::new(FPC_800MHZ, 8);
        let mut last = Time::ZERO;
        for _ in 0..8 {
            last = mt.execute(Time::ZERO, Cost::new(100, 700));
        }
        assert_eq!(last.as_ns(), (8 * 100 + 700) * 125 / 100); // 1500 cyc = 1875ns

        // Single-threaded: fully serialized: 8 * 800 cycles.
        let mut st = FpcTimer::new(FPC_800MHZ, 1);
        let mut last = Time::ZERO;
        for _ in 0..8 {
            last = st.execute(Time::ZERO, Cost::new(100, 700));
        }
        assert_eq!(last.as_ns(), 8 * 800 * 125 / 100); // 6400 cyc = 8000ns
    }

    #[test]
    fn throughput_ratio_approaches_paper_gain() {
        // Table 3 reports 2.25x from enabling 8 threads. With a
        // compute:mem split like the protocol stage's (~1:1.3), sustained
        // throughput improves by about that factor.
        let run = |threads: usize| {
            let mut f = FpcTimer::new(FPC_800MHZ, threads);
            let mut now = Time::ZERO;
            let mut done = Time::ZERO;
            for _ in 0..10_000 {
                done = f.execute(now, Cost::new(120, 160));
                // arrivals are back-to-back (saturated stage)
                now = f.next_free(now);
            }
            done
        };
        let st = run(1).as_ns() as f64;
        let mt = run(8).as_ns() as f64;
        let speedup = st / mt;
        assert!(
            (1.8..=2.6).contains(&speedup),
            "speedup {speedup} out of expected band"
        );
    }

    #[test]
    fn queueing_when_all_threads_busy() {
        let mut f = FpcTimer::new(FPC_800MHZ, 2);
        let a = f.execute(Time::ZERO, Cost::new(10, 1000));
        let b = f.execute(Time::ZERO, Cost::new(10, 1000));
        // third item must wait for a thread (the earliest of a, b)
        let c = f.execute(Time::ZERO, Cost::new(10, 0));
        assert!(c >= a.min(b));
    }

    #[test]
    fn retires_old_items() {
        let mut f = FpcTimer::new(FPC_800MHZ, 1);
        let a = f.execute(Time::ZERO, Cost::new(100, 0));
        // long after completion, the core is free immediately
        let later = a + Duration::from_us(10);
        let b = f.execute(later, Cost::new(100, 0));
        assert_eq!((b - later).as_ns(), 125);
    }

    #[test]
    fn next_free_reflects_backlog() {
        let mut f = FpcTimer::new(FPC_800MHZ, 1);
        assert_eq!(f.next_free(t_ns(5)), t_ns(5));
        let done = f.execute(t_ns(5), Cost::new(800, 0)); // 1us busy
        assert_eq!(f.next_free(t_ns(5)), done);
    }

    #[test]
    fn busy_accounts_compute_only() {
        let mut f = FpcTimer::new(FPC_800MHZ, 8);
        f.execute(Time::ZERO, Cost::new(100, 900));
        assert_eq!(f.busy.as_ns(), 125);
    }

    /// An in-flight list with a retire scan on every call: the reference
    /// for `matches_eager_reference`.
    struct EagerFpc {
        cycle: Duration,
        threads: usize,
        core_free: Time,
        inflight: Vec<Time>,
        busy: Duration,
    }

    impl EagerFpc {
        fn new(threads: usize) -> EagerFpc {
            EagerFpc {
                cycle: FPC_800MHZ.cycles(1),
                threads,
                core_free: Time::ZERO,
                inflight: Vec::new(),
                busy: Duration::ZERO,
            }
        }

        fn cycles(&self, n: u64) -> Duration {
            Duration::from_ps(self.cycle.ps() * n)
        }

        fn execute(&mut self, now: Time, cost: Cost) -> Time {
            self.inflight.retain(|&t| t > now);
            let thread_free = if self.inflight.len() < self.threads {
                now
            } else {
                let (idx, &t) = (self.inflight.iter().enumerate())
                    .min_by_key(|(_, &t)| t)
                    .unwrap();
                self.inflight.swap_remove(idx);
                t
            };
            let start = thread_free.max(now).max(self.core_free);
            let compute_end = start + self.cycles(cost.compute);
            let done = compute_end + self.cycles(cost.mem);
            self.core_free = if self.threads == 1 { done } else { compute_end };
            self.inflight.push(done);
            self.busy += self.cycles(cost.compute);
            done
        }
    }

    /// The per-thread slots compute what an in-flight list retired on
    /// every call computes, under the arrivals the protocol stage makes:
    /// the clock only moves forward, but an item arrives no earlier than
    /// its connection's previous completion, so successive arrivals go
    /// back and forth in time. A slot the list would already have retired
    /// ends before `core_free`, so completions, busy time and `next_free`
    /// agree on every call. Half the cases draw costs from a short list
    /// with no memory wait in one of them, so completions tie and the
    /// sorted insert walks past equal and later slots.
    #[test]
    fn matches_eager_reference() {
        let tied_costs = [
            Cost::new(40, 0),
            Cost::new(40, 0),
            Cost::ZERO,
            Cost::new(40, 400),
        ];
        let mut rng = flextoe_sim::Rng::new(0xF9C);
        let (mut tied, mut walked) = (false, false);
        for threads in [1, 2, 3, 4, 8, 16] {
            for case in 0..200 {
                let mut fast = FpcTimer::new(FPC_800MHZ, threads);
                let mut eager = EagerFpc::new(threads);
                let mut conn_busy = [Time::ZERO; 6];
                let mut now = Time::ZERO;
                for _ in 0..300 {
                    now += Duration::from_ps(rng.below(2_000) * rng.below(2));
                    let conn = rng.below(conn_busy.len() as u64) as usize;
                    let arrival = now.max(conn_busy[conn]);
                    let cost = if case % 2 == 0 {
                        Cost::new(rng.below(200), rng.below(3) * rng.below(600))
                    } else {
                        tied_costs[rng.below(tied_costs.len() as u64) as usize]
                    };
                    let last = fast.slots[threads - 1];
                    let done = fast.execute(arrival, cost);
                    assert_eq!(done, eager.execute(arrival, cost), "threads {threads}");
                    walked |= threads > 1 && done < last;
                    tied |= fast
                        .slots
                        .windows(2)
                        .any(|w| w[0] == w[1] && w[0] > Time::ZERO);
                    conn_busy[conn] = done;
                    assert_eq!(fast.busy, eager.busy);
                    let probe = now + Duration::from_ps(rng.below(1_000));
                    let mut live: Vec<Time> = (eager.inflight.iter().copied())
                        .filter(|&t| t > probe)
                        .collect();
                    live.sort();
                    let eager_next_free = if live.len() < threads {
                        probe.max(eager.core_free)
                    } else {
                        live[live.len() - threads].max(eager.core_free)
                    };
                    assert_eq!(fast.next_free(probe), eager_next_free);
                }
            }
        }
        assert!(tied && walked, "tied {tied}, walked {walked}");
    }

    #[test]
    fn cost_addition() {
        let c = Cost::new(10, 20) + Cost::new(1, 2);
        assert_eq!(c, Cost::new(11, 22));
        assert_eq!(c.total(), 33);
    }
}
