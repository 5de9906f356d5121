//! Host-time estimators that survive a noisy 2-vCPU box.
//!
//! Slice times arrive already scaled to a nominal core (`calib`), which
//! takes out the box's seconds-long gear changes. What is left is short
//! disturbance, and this is how it is shed. The measured window of every
//! repetition ("round") is driven in fixed slices of *simulated* time, so
//! slice `k` does bit-identical work in every round. Short disturbance
//! only ever adds time, so the cheapest observation of each slice is the
//! best estimate of what that slice costs, and the sum of those per-slice
//! minima — the **slice floor** — is far steadier than the minimum or
//! median of whole-run totals: one preemption spoils a whole run, but
//! only one slice of it.

/// One slice of one round's measured window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Slice {
    /// Host ns as the clock read them.
    pub raw_ns: u64,
    /// Host ns scaled to the nominal core (`calib::normalise`); the
    /// estimators below work on these.
    pub ns: u64,
    /// Events the engine delivered.
    pub events: u64,
}

/// One round's measured window, slice by slice.
pub type Slices = Vec<Slice>;

/// Why two rounds cannot be combined.
#[derive(Debug, PartialEq, Eq)]
pub enum FloorError {
    NoRounds,
    /// Round `round` has a different number of slices than round 0.
    SliceCount {
        round: usize,
    },
    /// Slice `slice` of round `round` delivered a different number of
    /// events than in round 0: the simulation is not deterministic.
    Events {
        round: usize,
        slice: usize,
    },
}

impl std::fmt::Display for FloorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            FloorError::NoRounds => write!(f, "no rounds to combine"),
            FloorError::SliceCount { round } => {
                write!(f, "round {round} has a different slice count than round 0")
            }
            FloorError::Events { round, slice } => write!(
                f,
                "determinism: slice {slice} of round {round} delivered a different \
                 event count than in round 0"
            ),
        }
    }
}

/// Sum over slices of the minimum host ns any round spent in that slice.
/// Fails if the rounds did not do identical work slice by slice.
pub fn slice_floor_ns<'a>(rounds: impl IntoIterator<Item = &'a Slices>) -> Result<u64, FloorError> {
    let mut rounds = rounds.into_iter();
    let first = rounds.next().ok_or(FloorError::NoRounds)?;
    let mut floor: Vec<u64> = first.iter().map(|s| s.ns).collect();
    for (r, round) in rounds.enumerate().map(|(i, round)| (i + 1, round)) {
        if round.len() != first.len() {
            return Err(FloorError::SliceCount { round: r });
        }
        for (k, (s, s0)) in round.iter().zip(first).enumerate() {
            if s.events != s0.events {
                return Err(FloorError::Events { round: r, slice: k });
            }
            floor[k] = floor[k].min(s.ns);
        }
    }
    Ok(floor.iter().sum())
}

/// Whole-run normalised host ns of one round (what the floor is compared
/// against).
pub fn total_ns(round: &Slices) -> u64 {
    round.iter().map(|s| s.ns).sum()
}

/// Whole-run host ns of one round as the clock read them.
pub fn total_raw_ns(round: &Slices) -> u64 {
    round.iter().map(|s| s.raw_ns).sum()
}

/// Median of `xs` (mean of the middle pair for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The three quartile cut points of `xs`, as Python's
/// `statistics.quantiles(xs, n=4)` (the "exclusive" method) gives them —
/// the driver computes spreads this way, so `--check-repeat` does too.
/// Needs at least two values.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(xs.len() >= 2, "quartiles need two values");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let pos = (i + 1) * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        *q = v[j - 1] + (v[j] - v[j - 1]) * delta;
    }
    out
}

/// Quantile `q` of a log-bucketed `flextoe_sim::Histogram`, read from its
/// public `cdf()` (bucket midpoint, cumulative fraction) and interpolated
/// linearly inside the bucket that holds the rank. The histogram's own
/// `quantile()` returns the bucket midpoint — a 1.6%-wide staircase on
/// which a real 1% move can read as 0% or as 1.6%; interpolating by rank
/// gives a value that moves with every sample that crosses the bucket.
pub fn interp_quantile(cdf: &[(u64, f64)], total: u64, q: f64) -> f64 {
    if cdf.is_empty() || total == 0 {
        return 0.0;
    }
    let rank = q.clamp(0.0, 1.0) * total as f64;
    let mut below = 0.0;
    for &(mid, cum_frac) in cdf {
        let cum = cum_frac * total as f64;
        if cum >= rank {
            let (lo, width) = bucket_bounds(mid);
            let inside = (cum - below).max(1.0);
            return lo + width * ((rank - below) / inside).clamp(0.0, 1.0);
        }
        below = cum;
    }
    let (lo, width) = bucket_bounds(cdf[cdf.len() - 1].0);
    lo + width
}

/// `(lower edge, width)` of the histogram bucket whose midpoint is `mid`:
/// values below 64 have their own unit-wide bucket; above, each power of
/// two `2^m` is cut into 64 buckets of width `2^(m-6)`.
fn bucket_bounds(mid: u64) -> (f64, f64) {
    if mid < 64 {
        return (mid as f64, 1.0);
    }
    let width = 1u64 << (63 - mid.leading_zeros() - 6);
    ((mid - width / 2) as f64, width as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A round from `(ns, events)` pairs, normalisation a no-op.
    fn round(pairs: &[(u64, u64)]) -> Slices {
        pairs
            .iter()
            .map(|&(ns, events)| Slice {
                raw_ns: ns,
                ns,
                events,
            })
            .collect()
    }

    #[test]
    fn floor_takes_the_cheapest_observation_of_each_slice() {
        // round 0 is disturbed in slice 1, round 1 in slice 0: neither
        // whole run is clean, the floor still is
        let rounds = vec![
            round(&[(10, 5), (90, 7), (10, 3)]),
            round(&[(80, 5), (12, 7), (11, 3)]),
        ];
        let floor = slice_floor_ns(&rounds).unwrap();
        assert_eq!(floor, 10 + 12 + 10);
        let best_whole = rounds.iter().map(total_ns).min().unwrap();
        assert!(floor < best_whole);
    }

    #[test]
    fn floor_of_identical_rounds_is_their_total() {
        let r = round(&[(5, 1), (6, 1), (7, 1)]);
        assert_eq!(slice_floor_ns(&[r.clone(), r.clone(), r]).unwrap(), 18);
    }

    #[test]
    fn floor_never_exceeds_any_whole_run() {
        let rounds = vec![
            round(&[(31, 2), (17, 2), (29, 2), (40, 2)]),
            round(&[(30, 2), (19, 2), (33, 2), (38, 2)]),
            round(&[(35, 2), (18, 2), (28, 2), (41, 2)]),
        ];
        let floor = slice_floor_ns(&rounds).unwrap();
        for r in &rounds {
            assert!(floor <= total_ns(r));
        }
    }

    #[test]
    fn floor_rejects_rounds_that_did_different_work() {
        assert_eq!(
            slice_floor_ns(&Vec::<Slices>::new()),
            Err(FloorError::NoRounds)
        );
        let a = round(&[(1, 4), (1, 4)]);
        assert_eq!(
            slice_floor_ns(&[a.clone(), round(&[(1, 4)])]),
            Err(FloorError::SliceCount { round: 1 })
        );
        assert_eq!(
            slice_floor_ns(&[a.clone(), a.clone(), round(&[(1, 4), (1, 5)])]),
            Err(FloorError::Events { round: 2, slice: 1 })
        );
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), [0.5, 2.0, 3.5]);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn interpolated_quantile_moves_inside_a_bucket() {
        let mut h = flextoe_sim::Histogram::new();
        // 1000 samples in the bucket [1024, 1040), then 10 far above
        h.record_n(1030, 1000);
        h.record_n(5000, 10);
        let cdf = h.cdf();
        let p25 = interp_quantile(&cdf, h.count(), 0.25);
        let p75 = interp_quantile(&cdf, h.count(), 0.75);
        assert!((1024.0..1040.0).contains(&p25), "{p25}");
        assert!((1024.0..1040.0).contains(&p75), "{p75}");
        assert!(p25 < p75, "rank moves the value inside the bucket");
        // the staircase reads both as the one midpoint
        assert_eq!(h.quantile(0.25), h.quantile(0.75));
        let top = interp_quantile(&cdf, h.count(), 0.999);
        assert!((4992.0..=5056.0).contains(&top), "{top}");
        assert_eq!(interp_quantile(&[], 0, 0.5), 0.0);
    }
}
