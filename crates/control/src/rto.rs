//! Retransmission-timeout monitoring (§D: "We also monitor retransmission
//! timeouts in the control iteration").
//!
//! The control plane watches each flow's `snd_una` progress; when a flow
//! has unacknowledged data and no progress for an RTO, it injects an HC
//! retransmit descriptor (§3.1.1: "Retransmissions in response to timeouts
//! are triggered by the control-plane"). The timeout itself is the
//! [`TransportPolicy::rto`] rule the baseline host stacks run too.

use flextoe_core::transport::TransportPolicy;
use flextoe_sim::Time;
use flextoe_wire::SeqNum;

/// Outcome of one control-loop RTO observation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RtoVerdict {
    /// Nothing to do (timer armed/reset/idle).
    Idle,
    /// RTO expired: inject a retransmit and back off.
    Fire,
    /// The flow has exhausted its retry budget
    /// ([`TransportPolicy::rto_give_up`] consecutive RTOs with zero
    /// progress): abort the connection instead of retrying forever.
    GiveUp,
}

#[derive(Clone, Copy, Debug)]
struct FlowRto {
    last_una: SeqNum,
    /// When `last_una` last advanced (or data first appeared).
    since: Time,
    backoff: u32,
    armed: bool,
}

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

    /// One control-loop observation of a flow. [`RtoVerdict::Fire`] means
    /// the caller injects a retransmit and halves the rate;
    /// [`RtoVerdict::GiveUp`] means the retry budget is spent and the
    /// caller must abort the connection.
    pub fn observe(
        &mut self,
        conn: u32,
        snd_una: SeqNum,
        in_flight: u32,
        now: Time,
        srtt_us: u32,
    ) -> RtoVerdict {
        let Some(Some(f)) = self.flows.get_mut(conn as usize) else {
            return RtoVerdict::Idle;
        };
        if in_flight == 0 {
            f.armed = false;
            f.backoff = 0;
            f.last_una = snd_una;
            return RtoVerdict::Idle;
        }
        if !f.armed || snd_una != f.last_una {
            // progress (or newly armed): reset the timer
            let progressed = f.armed && snd_una != f.last_una;
            f.armed = true;
            f.last_una = snd_una;
            f.since = now;
            if progressed {
                f.backoff = 0;
            }
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
    use flextoe_sim::Duration;
    use RtoVerdict::{Fire, Idle};

    const MIN: Duration = Duration::from_ms(1);

    /// A 1 ms floor with the given retry budget.
    fn tracker(rto_give_up: Option<u32>) -> RtoTracker {
        RtoTracker::new(TransportPolicy {
            min_rto: MIN,
            rto_give_up,
            ..Default::default()
        })
    }

    #[test]
    fn fires_after_stall() {
        let mut t = tracker(None);
        t.register(1);
        let una = SeqNum(1000);
        assert_eq!(t.observe(1, una, 500, Time::from_us(0), 100), Idle); // arms
        assert_eq!(t.observe(1, una, 500, Time::from_us(500), 100), Idle);
        assert_eq!(t.observe(1, una, 500, Time::from_us(1100), 100), Fire);
        assert_eq!(t.fired, 1);
    }

    #[test]
    fn progress_resets_timer() {
        let mut t = tracker(None);
        t.register(1);
        t.observe(1, SeqNum(1000), 500, Time::from_us(0), 100);
        // ack progress at 900us
        assert_eq!(
            t.observe(1, SeqNum(1500), 500, Time::from_us(900), 100),
            Idle
        );
        // 0.95ms after progress (not 1.85ms after arming): no fire yet
        assert_eq!(
            t.observe(1, SeqNum(1500), 500, Time::from_us(1850), 100),
            Idle
        );
        // 1.05ms after progress: fires
        assert_eq!(
            t.observe(1, SeqNum(1500), 500, Time::from_us(1950), 100),
            Fire
        );
    }

    #[test]
    fn backoff_doubles() {
        let mut t = tracker(None);
        t.register(1);
        let una = SeqNum(0);
        t.observe(1, una, 100, Time::from_us(0), 10);
        assert_eq!(t.observe(1, una, 100, Time::from_ms(1), 10), Fire); // first RTO at 1ms
                                                                        // second RTO needs 2ms more
        assert_eq!(t.observe(1, una, 100, Time::from_us(2500), 10), Idle);
        assert_eq!(t.observe(1, una, 100, Time::from_ms(3), 10), Fire);
        // third needs 4ms
        assert_eq!(t.observe(1, una, 100, Time::from_ms(6), 10), Idle);
        assert_eq!(t.observe(1, una, 100, Time::from_ms(7), 10), Fire);
    }

    #[test]
    fn empty_flight_disarms_and_clears_backoff() {
        let mut t = tracker(None);
        t.register(1);
        t.observe(1, SeqNum(0), 100, Time::from_us(0), 10);
        assert_eq!(t.observe(1, SeqNum(0), 100, Time::from_ms(1), 10), Fire);
        assert_eq!(t.observe(1, SeqNum(100), 0, Time::from_ms(2), 10), Idle); // drained
                                                                              // re-armed fresh: base RTO again
        assert_eq!(t.observe(1, SeqNum(100), 50, Time::from_ms(3), 10), Idle);
        assert_eq!(t.observe(1, SeqNum(100), 50, Time::from_us(3900), 10), Idle);
        assert_eq!(t.observe(1, SeqNum(100), 50, Time::from_us(4100), 10), Fire);
    }

    #[test]
    fn srtt_scales_rto() {
        let mut t = tracker(None);
        t.register(1);
        t.observe(1, SeqNum(0), 100, Time::ZERO, 1000); // srtt 1ms -> rto 4ms
        assert_eq!(t.observe(1, SeqNum(0), 100, Time::from_ms(2), 1000), Idle);
        assert_eq!(t.observe(1, SeqNum(0), 100, Time::from_ms(4), 1000), Fire);
    }

    #[test]
    fn unregistered_never_fires() {
        let mut t = tracker(None);
        assert_eq!(t.observe(7, SeqNum(0), 100, Time::from_ms(100), 10), Idle);
        t.register(7);
        t.unregister(7);
        assert_eq!(t.observe(7, SeqNum(0), 100, Time::from_ms(100), 10), Idle);
    }

    /// Regression: a blackholed flow (100% loss, `snd_una` never moves)
    /// used to saturate at backoff shift 6 and retransmit forever. With a
    /// give-up threshold it fires exactly `rto_give_up` times and then
    /// reports `GiveUp` so the caller aborts the connection.
    #[test]
    fn blackholed_flow_gives_up_after_budget() {
        let mut t = tracker(Some(3));
        t.register(1);
        let una = SeqNum(0);
        t.observe(1, una, 100, Time::ZERO, 10); // arms
        let mut fires = 0;
        let mut now = Time::ZERO;
        let verdict = loop {
            now += Duration::from_ms(300); // > the 200 ms cap: always expired
            match t.observe(1, una, 100, now, 10) {
                Fire => fires += 1,
                v => break v,
            }
            assert!(fires < 100, "must give up eventually");
        };
        assert_eq!(verdict, RtoVerdict::GiveUp);
        assert_eq!(fires, 3, "retry budget honored exactly");
        assert_eq!(t.gave_up, 1);
        // progress after the verdict (e.g. the path healed right at the
        // boundary) re-opens the budget
        t.observe(1, SeqNum(500), 100, now + Duration::from_ms(1), 10);
        assert_eq!(
            t.observe(1, SeqNum(500), 100, now + Duration::from_ms(301), 10),
            Fire
        );
    }

    /// `rto_give_up: None` retries forever.
    #[test]
    fn no_threshold_retries_forever() {
        let mut t = tracker(None);
        t.register(1);
        let una = SeqNum(0);
        t.observe(1, una, 100, Time::ZERO, 10);
        let mut now = Time::ZERO;
        for _ in 0..50 {
            now += Duration::from_ms(300);
            assert_eq!(t.observe(1, una, 100, now, 10), Fire);
        }
        assert_eq!(t.gave_up, 0);
    }
}
