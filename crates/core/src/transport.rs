//! The retransmit and connect policy every host runs.
//!
//! [`TransportPolicy`] is the one copy of the connection-control knobs:
//! the FlexTOE control plane (`flextoe-control`: its RTO monitor and SYN
//! retry) and the baseline host stacks (`flextoe-hoststack`) both read
//! it, so a FlexTOE-vs-TAS comparison compares data paths, not timer
//! policies. Like [`crate::proto`] it owns no timer: callers keep their
//! own clocks and ask it how long to wait.

use flextoe_sim::Duration;

/// Upper bound on one backed-off RTO.
pub const MAX_RTO: Duration = Duration::from_ms(200);

/// Total SYN transmissions before an active open reports a failed connect.
pub const SYN_ATTEMPTS: u32 = 4;

/// The transport knobs both stack families read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TransportPolicy {
    /// RTO floor: `RTO = max(min_rto, 4 × sRTT)` before backoff.
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
    pub fn rto(&self, srtt_us: u32, backoff: u32) -> Duration {
        let base = Duration::from_us(4 * u64::from(srtt_us)).max(self.min_rto);
        (base * (1u64 << backoff.min(6))).min(MAX_RTO)
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

#[cfg(test)]
mod tests {
    use super::*;

    /// At the defaults the shared rule is the baseline stacks' historical
    /// `4 × max(sRTT, 250 µs) << min(backoff, 6)`; it differs only where
    /// the 200 ms cap bites (sRTT above 781 µs at full backoff).
    #[test]
    fn default_rule_matches_the_old_host_stack_formula() {
        let p = TransportPolicy::default();
        for srtt_us in [0, 1, 20, 249, 250, 251, 400, 781] {
            for backoff in 0..10 {
                let old =
                    Duration::from_us(4 * u64::from(srtt_us.max(250))) * (1u64 << backoff.min(6));
                assert_eq!(p.rto(srtt_us, backoff), old, "{srtt_us} us, {backoff}");
            }
        }
        assert_eq!(p.rto(782, 6), MAX_RTO);
        assert_eq!(p.rto(10_000, 0), Duration::from_ms(40));
    }

    #[test]
    fn syn_timeout_doubles_to_32x() {
        let p = TransportPolicy::default();
        assert_eq!(p.syn_timeout(1), Duration::from_ms(5));
        assert_eq!(p.syn_timeout(2), Duration::from_ms(10));
        assert_eq!(p.syn_timeout(6), Duration::from_ms(160));
        assert_eq!(p.syn_timeout(9), Duration::from_ms(160));
    }
}
