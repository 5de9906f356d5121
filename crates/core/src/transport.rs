//! The retransmit and connect policy every host runs, and the one RTT
//! estimator and retransmission-timeout tracker both stack families drive.
//!
//! [`TransportPolicy`] is the one copy of the connection-control knobs:
//! the FlexTOE control plane (`flextoe-control`: its RTO monitor and SYN
//! retry) and the baseline host stacks (`flextoe-hoststack`) both read
//! it, so a FlexTOE-vs-TAS comparison compares data paths, not timer
//! policies. [`RtoTracker`] is the one copy of the per-connection state
//! around the RTO rule (§D: "We also monitor retransmission timeouts in
//! the control iteration"), fed by the one sRTT update, [`rtt_sample`].
//! Like [`crate::proto`] neither owns a timer: callers scan on their own
//! cadence and act on the verdict.

use flextoe_sim::{Duration, Time};
use flextoe_wire::SeqNum;

use crate::ProtoState;

/// Upper bound on one backed-off RTO.
pub const MAX_RTO: Duration = Duration::from_ms(200);

/// Total SYN transmissions before an active open reports a failed connect.
pub const SYN_ATTEMPTS: u32 = 4;

/// The transport knobs both stack families read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TransportPolicy {
    /// RTO floor: `RTO = max(min_rto, 4 × sRTT)` before backoff, or
    /// `max(min_rto, syn_retry)` while the flow has no RTT sample.
    pub min_rto: Duration,
    /// Consecutive no-progress RTO firings before an established
    /// connection is aborted (RST + a typed abort to the app) instead of
    /// retrying forever. `None` retries forever.
    pub rto_give_up: Option<u32>,
    /// Base SYN retransmission interval; attempt `n` waits
    /// `syn_retry << min(n - 1, 5)`.
    pub syn_retry: Duration,
    /// SYN admission cap: a passive open past this many installed +
    /// pending connections is refused with an RST
    /// ([`crate::handshake::Refusal::Admission`]). `None` admits every
    /// SYN.
    pub max_conns: Option<u32>,
}

impl Default for TransportPolicy {
    fn default() -> Self {
        TransportPolicy {
            min_rto: Duration::from_ms(1),
            rto_give_up: Some(8),
            syn_retry: Duration::from_ms(5),
            max_conns: None,
        }
    }
}

impl TransportPolicy {
    /// The RTO after `backoff` consecutive firings:
    /// `max(min_rto, 4 × sRTT) << min(backoff, 6)`, capped at [`MAX_RTO`].
    /// sRTT 0 means "no sample yet": the base is then the wait an
    /// unanswered SYN gets, `max(min_rto, syn_retry)`.
    pub fn rto(&self, srtt_us: u32, backoff: u32) -> Duration {
        let base = if srtt_us == 0 {
            self.syn_retry
        } else {
            Duration::from_us(4 * u64::from(srtt_us))
        };
        (base.max(self.min_rto) * (1u64 << backoff.min(6))).min(MAX_RTO)
    }

    /// Whether a flow that has fired `backoff` RTOs without progress has
    /// spent its retry budget.
    pub fn gives_up(&self, backoff: u32) -> bool {
        self.rto_give_up.is_some_and(|limit| backoff >= limit)
    }

    /// The wait after SYN transmission `attempts` (1-based) before the
    /// next one, before any jitter.
    pub fn syn_timeout(&self, attempts: u32) -> Duration {
        self.syn_retry * (1u64 << attempts.saturating_sub(1).min(5))
    }
}

/// Folds the RTT that the echo `tsecr` measures at `now_us` (µs stamps)
/// into `srtt_us` (0 = no sample yet): the first sample as is, then the
/// 7/8 EWMA (as TAS). An echo 1 s or more old is ignored.
pub fn rtt_sample(srtt_us: &mut u32, now_us: u32, tsecr: u32) {
    let rtt = now_us.wrapping_sub(tsecr);
    if rtt < 1_000_000 {
        *srtt_us = if *srtt_us == 0 {
            rtt
        } else {
            (*srtt_us * 7 + rtt) / 8
        };
    }
}

/// What one scan asks the caller to do with a connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RtoVerdict {
    /// Nothing (the timer armed, reset, or is still running).
    Idle,
    /// The RTO expired: retransmit (go-back-N) and cut the rate. The
    /// tracker has backed off.
    Fire,
    /// The retry budget is spent ([`TransportPolicy::rto_give_up`] RTOs
    /// without progress): abort the connection.
    GiveUp,
    /// Both FINs are exchanged and nothing is in flight
    /// ([`ProtoState::fully_closed`]): tear the connection down.
    Reclaim,
}

#[derive(Clone, Copy, Debug)]
struct FlowRto {
    last_una: SeqNum,
    /// When `last_una` last advanced, or the scan that armed the timer.
    since: Time,
    backoff: u32,
    armed: bool,
}

/// Per-connection RTO state, indexed by the caller's connection id.
///
/// The timer arms on the first scan that sees data in flight and disarms
/// (clearing the backoff) on any scan that sees none, so an RTO fires
/// between `rto` and `rto` plus one scan interval after the scan that
/// first saw the stalled data. Progress of `snd_una` restarts the timer
/// and clears the backoff.
pub struct RtoTracker {
    flows: Vec<Option<FlowRto>>,
    policy: TransportPolicy,
    pub fired: u64,
    pub gave_up: u64,
}

impl RtoTracker {
    pub fn new(policy: TransportPolicy) -> RtoTracker {
        RtoTracker {
            flows: Vec::new(),
            policy,
            fired: 0,
            gave_up: 0,
        }
    }

    pub fn register(&mut self, conn: u32) {
        let idx = conn as usize;
        if idx >= self.flows.len() {
            self.flows.resize(idx + 1, None);
        }
        self.flows[idx] = Some(FlowRto {
            last_una: SeqNum(0),
            since: Time::ZERO,
            backoff: 0,
            armed: false,
        });
    }

    pub fn unregister(&mut self, conn: u32) {
        if let Some(slot) = self.flows.get_mut(conn as usize) {
            *slot = None;
        }
    }

    /// One scan of connection `conn` at `now`. A fully closed connection
    /// is [`RtoVerdict::Reclaim`] whether or not it is registered; an
    /// unregistered one is otherwise always [`RtoVerdict::Idle`].
    pub fn observe(&mut self, conn: u32, ps: &ProtoState, srtt_us: u32, now: Time) -> RtoVerdict {
        if ps.fully_closed() {
            return RtoVerdict::Reclaim;
        }
        let Some(Some(f)) = self.flows.get_mut(conn as usize) else {
            return RtoVerdict::Idle;
        };
        if ps.tx_sent == 0 {
            f.armed = false;
            return RtoVerdict::Idle;
        }
        let snd_una = ps.snd_una();
        if !f.armed || snd_una != f.last_una {
            // newly armed, or progress: restart the timer
            f.armed = true;
            f.backoff = 0;
            f.last_una = snd_una;
            f.since = now;
            return RtoVerdict::Idle;
        }
        if now.saturating_since(f.since) >= self.policy.rto(srtt_us, f.backoff) {
            if self.policy.gives_up(f.backoff) {
                self.gave_up += 1;
                return RtoVerdict::GiveUp;
            }
            f.since = now;
            f.backoff += 1;
            self.fired += 1;
            return RtoVerdict::Fire;
        }
        RtoVerdict::Idle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Once a flow has a sample, the shared rule at the defaults is the
    /// baseline stacks' historical `4 × max(sRTT, 250 µs) << min(backoff,
    /// 6)`; it differs only where the 200 ms cap bites (sRTT above 781 µs
    /// at full backoff). sRTT 0 is the pre-sample rule, tested below.
    #[test]
    fn default_rule_matches_the_old_host_stack_formula() {
        let p = TransportPolicy::default();
        for srtt_us in [1, 20, 249, 250, 251, 400, 781] {
            for backoff in 0..10 {
                let old =
                    Duration::from_us(4 * u64::from(srtt_us.max(250))) * (1u64 << backoff.min(6));
                assert_eq!(p.rto(srtt_us, backoff), old, "{srtt_us} us, {backoff}");
            }
        }
        assert_eq!(p.rto(782, 6), MAX_RTO);
        assert_eq!(p.rto(10_000, 0), Duration::from_ms(40));
    }

    /// Before its first RTT sample a flow waits what an unanswered SYN
    /// waits, not the `min_rto` floor: 5 ms at the defaults, 400 µs at
    /// the chaos experiments' 200 µs floor and 400 µs SYN retry.
    #[test]
    fn no_sample_waits_the_syn_timeout() {
        let p = TransportPolicy::default();
        for backoff in 0..6 {
            assert_eq!(p.rto(0, backoff), p.syn_timeout(backoff + 1));
        }
        assert_eq!((p.rto(0, 0), p.rto(0, 6)), (Duration::from_ms(5), MAX_RTO));
        let chaos = TransportPolicy {
            min_rto: Duration::from_us(200),
            syn_retry: Duration::from_us(400),
            ..p
        };
        assert_eq!(chaos.rto(0, 0), Duration::from_us(400));
        let fast_syn = TransportPolicy {
            syn_retry: Duration::from_us(100),
            ..p
        };
        assert_eq!(fast_syn.rto(0, 0), p.min_rto, "the floor still holds");
    }

    #[test]
    fn rtt_sample_takes_the_first_then_the_7_8_ewma() {
        let mut srtt = 0;
        rtt_sample(&mut srtt, 1_000, 920);
        assert_eq!(srtt, 80, "the first sample as is");
        rtt_sample(&mut srtt, 2_000, 1_840);
        assert_eq!(srtt, (80 * 7 + 160) / 8);
        rtt_sample(&mut srtt, 40, u32::MAX - 59); // the µs stamps wrap
        assert_eq!(srtt, (90 * 7 + 100) / 8);
    }

    #[test]
    fn rtt_sample_ignores_an_echo_of_a_second_or_more() {
        let mut srtt = 0;
        rtt_sample(&mut srtt, 1_000_000, 0);
        assert_eq!(srtt, 0, "still no sample");
        rtt_sample(&mut srtt, 1_999_999, 1_000_000);
        rtt_sample(&mut srtt, 3_000_000, 1_000_000);
        assert_eq!(srtt, 999_999);
    }

    #[test]
    fn syn_timeout_doubles_to_32x() {
        let p = TransportPolicy::default();
        assert_eq!(p.syn_timeout(1), Duration::from_ms(5));
        assert_eq!(p.syn_timeout(2), Duration::from_ms(10));
        assert_eq!(p.syn_timeout(6), Duration::from_ms(160));
        assert_eq!(p.syn_timeout(9), Duration::from_ms(160));
    }

    mod rto {
        use super::*;
        use RtoVerdict::{Fire, Idle, Reclaim};

        const MIN: Duration = Duration::from_ms(1);

        /// A 1 ms floor with the given retry budget.
        fn tracker(rto_give_up: Option<u32>) -> RtoTracker {
            RtoTracker::new(TransportPolicy {
                min_rto: MIN,
                rto_give_up,
                ..Default::default()
            })
        }

        /// A connection with `snd_una` at `una` and `in_flight` bytes sent.
        fn ps(una: u32, in_flight: u32) -> ProtoState {
            ProtoState {
                seq: SeqNum(una.wrapping_add(in_flight)),
                tx_sent: in_flight,
                ..Default::default()
            }
        }

        #[test]
        fn fires_after_stall() {
            let mut t = tracker(None);
            t.register(1);
            let s = ps(1000, 500);
            assert_eq!(t.observe(1, &s, 100, Time::from_us(0)), Idle); // arms
            assert_eq!(t.observe(1, &s, 100, Time::from_us(500)), Idle);
            assert_eq!(t.observe(1, &s, 100, Time::from_us(1100)), Fire);
            assert_eq!(t.fired, 1);
        }

        #[test]
        fn progress_resets_timer() {
            let mut t = tracker(None);
            t.register(1);
            t.observe(1, &ps(1000, 500), 100, Time::from_us(0));
            // ack progress at 900us
            let s = ps(1500, 500);
            assert_eq!(t.observe(1, &s, 100, Time::from_us(900)), Idle);
            // 0.95ms after progress (not 1.85ms after arming): no fire yet
            assert_eq!(t.observe(1, &s, 100, Time::from_us(1850)), Idle);
            // 1.05ms after progress: fires
            assert_eq!(t.observe(1, &s, 100, Time::from_us(1950)), Fire);
        }

        #[test]
        fn backoff_doubles() {
            let mut t = tracker(None);
            t.register(1);
            let s = ps(0, 100);
            t.observe(1, &s, 10, Time::from_us(0));
            // first RTO at 1ms
            assert_eq!(t.observe(1, &s, 10, Time::from_ms(1)), Fire);
            // second RTO needs 2ms more
            assert_eq!(t.observe(1, &s, 10, Time::from_us(2500)), Idle);
            assert_eq!(t.observe(1, &s, 10, Time::from_ms(3)), Fire);
            // third needs 4ms
            assert_eq!(t.observe(1, &s, 10, Time::from_ms(6)), Idle);
            assert_eq!(t.observe(1, &s, 10, Time::from_ms(7)), Fire);
        }

        #[test]
        fn empty_flight_disarms_and_clears_backoff() {
            let mut t = tracker(None);
            t.register(1);
            t.observe(1, &ps(0, 100), 10, Time::from_us(0));
            assert_eq!(t.observe(1, &ps(0, 100), 10, Time::from_ms(1)), Fire);
            // drained
            assert_eq!(t.observe(1, &ps(100, 0), 10, Time::from_ms(2)), Idle);
            // re-armed fresh: base RTO again
            let s = ps(100, 50);
            assert_eq!(t.observe(1, &s, 10, Time::from_ms(3)), Idle);
            assert_eq!(t.observe(1, &s, 10, Time::from_us(3900)), Idle);
            assert_eq!(t.observe(1, &s, 10, Time::from_us(4100)), Fire);
        }

        #[test]
        fn srtt_scales_rto() {
            let mut t = tracker(None);
            t.register(1);
            let s = ps(0, 100);
            t.observe(1, &s, 1000, Time::ZERO); // srtt 1ms -> rto 4ms
            assert_eq!(t.observe(1, &s, 1000, Time::from_ms(2)), Idle);
            assert_eq!(t.observe(1, &s, 1000, Time::from_ms(4)), Fire);
        }

        #[test]
        fn unregistered_never_fires() {
            let mut t = tracker(None);
            let s = ps(0, 100);
            assert_eq!(t.observe(7, &s, 10, Time::from_ms(100)), Idle);
            t.register(7);
            t.unregister(7);
            assert_eq!(t.observe(7, &s, 10, Time::from_ms(100)), Idle);
        }

        /// Regression: a blackholed flow (100% loss, `snd_una` never
        /// moves) used to saturate at backoff shift 6 and retransmit
        /// forever. With a give-up threshold it fires exactly
        /// `rto_give_up` times and then reports `GiveUp` so the caller
        /// aborts the connection.
        #[test]
        fn blackholed_flow_gives_up_after_budget() {
            let mut t = tracker(Some(3));
            t.register(1);
            let s = ps(0, 100);
            t.observe(1, &s, 10, Time::ZERO); // arms
            let mut fires = 0;
            let mut now = Time::ZERO;
            let verdict = loop {
                now += Duration::from_ms(300); // > the 200 ms cap: always expired
                match t.observe(1, &s, 10, now) {
                    Fire => fires += 1,
                    v => break v,
                }
                assert!(fires < 100, "must give up eventually");
            };
            assert_eq!(verdict, RtoVerdict::GiveUp);
            assert_eq!(fires, 3, "retry budget honored exactly");
            assert_eq!(t.gave_up, 1);
            // progress after the verdict (e.g. the path healed right at
            // the boundary) re-opens the budget
            let healed = ps(500, 100);
            t.observe(1, &healed, 10, now + Duration::from_ms(1));
            assert_eq!(
                t.observe(1, &healed, 10, now + Duration::from_ms(301)),
                Fire
            );
        }

        /// `rto_give_up: None` retries forever.
        #[test]
        fn no_threshold_retries_forever() {
            let mut t = tracker(None);
            t.register(1);
            let s = ps(0, 100);
            t.observe(1, &s, 10, Time::ZERO);
            let mut now = Time::ZERO;
            for _ in 0..50 {
                now += Duration::from_ms(300);
                assert_eq!(t.observe(1, &s, 10, now), Fire);
            }
            assert_eq!(t.gave_up, 0);
        }

        /// A connection idle at one scan that sends just before the next
        /// is armed by that next scan, not by the idle one: the earliest
        /// RTO is one full RTO after the first scan that saw the data.
        #[test]
        fn arms_on_the_first_scan_with_data_in_flight() {
            let mut t = tracker(None);
            t.register(1);
            let scan = Duration::from_ms(1);
            let k = Time::from_ms(5);
            assert_eq!(t.observe(1, &ps(0, 0), 10, k), Idle); // idle at scan k
            let s = ps(0, 64); // a request sent just before scan k+1
            assert_eq!(t.observe(1, &s, 10, k + scan), Idle);
            assert_eq!(
                t.observe(1, &s, 10, k + scan + MIN - Duration::from_ns(1)),
                Idle
            );
            assert_eq!(t.observe(1, &s, 10, k + scan + MIN), Fire);
        }

        #[test]
        fn reclaims_a_fully_closed_flow() {
            let mut t = tracker(None);
            t.register(1);
            let closed = ProtoState {
                fin_sent: true,
                fin_received: true,
                ..ps(0, 0)
            };
            assert!(closed.fully_closed());
            assert_eq!(t.observe(1, &closed, 10, Time::from_ms(1)), Reclaim);
            // the predicate is the connection's, not the tracker's
            assert_eq!(t.observe(9, &closed, 10, Time::from_ms(1)), Reclaim);
        }

        #[test]
        fn no_reclaim_while_our_fin_or_data_is_outstanding() {
            let mut t = tracker(None);
            t.register(1);
            let both_fins = ProtoState {
                fin_sent: true,
                fin_received: true,
                ..ps(0, 0)
            };
            let fin_pending = ProtoState {
                fin_pending: true,
                ..both_fins
            };
            let data_in_flight = ProtoState {
                tx_sent: 10,
                ..both_fins
            };
            for s in [fin_pending, data_in_flight] {
                assert!(!s.fully_closed());
                assert_ne!(t.observe(1, &s, 10, Time::from_ms(1)), Reclaim);
            }
        }
    }
}
