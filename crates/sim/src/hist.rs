//! Log-bucketed latency histograms (HDR-histogram style).
//!
//! The paper reports medians and deep tails (99p, 99.99p — Fig. 9, Fig. 11,
//! Table 3, Table 4). An HDR-style histogram records values with bounded
//! relative error at O(1) cost, which keeps multi-million-sample experiment
//! runs cheap while giving accurate tail percentiles.

/// Histogram over `u64` values with ~1.5 % worst-case relative error.
///
/// Layout: values are grouped by magnitude (position of the highest set
/// bit); each magnitude is split into `SUB` linear sub-buckets.
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

const SUB_BITS: u32 = 6; // 64 sub-buckets per power of two -> <= 1.56% error
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

#[inline]
fn index_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let mag = 63 - v.leading_zeros(); // >= SUB_BITS
    let shift = mag - SUB_BITS;
    let sub = (v >> shift) - SUB; // 0..SUB
    (((mag - SUB_BITS + 1) as u64 * SUB) + sub) as usize
}

/// Midpoint value represented by a bucket index (inverse of `index_of`).
#[inline]
fn value_of(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUB {
        return idx;
    }
    let block = idx / SUB - 1;
    let sub = idx % SUB;
    let base = (SUB + sub) << block;
    let width = 1u64 << block;
    base + width / 2
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[index_of(v)] += 1;
        self.total += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    #[inline]
    pub fn record_n(&mut self, v: u64, n: u64) {
        self.counts[index_of(v)] += n;
        self.total += n;
        self.sum += v as u128 * n as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.total
    }
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }
    pub fn max(&self) -> u64 {
        self.max
    }
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Value at quantile `q` in [0, 1]. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // 1-based nearest-rank (upper) convention: floor(q*n)+1, clamped.
        let rank = ((q * self.total as f64).floor() as u64 + 1).min(self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // clamp to observed extremes for exactness at the edges
                return value_of(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    pub fn median(&self) -> u64 {
        self.quantile(0.50)
    }
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
    pub fn p9999(&self) -> u64 {
        self.quantile(0.9999)
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// CDF points `(value, cum_fraction)` for plotting (Fig. 9), skipping
    /// empty buckets.
    pub fn cdf(&self) -> Vec<(u64, f64)> {
        let mut out = Vec::new();
        if self.total == 0 {
            return out;
        }
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            cum += c;
            out.push((value_of(i), cum as f64 / self.total as f64));
        }
        out
    }

    pub fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_value_roundtrip_error_bounded() {
        for v in [
            0u64,
            1,
            17,
            63,
            64,
            65,
            127,
            128,
            1000,
            65_535,
            1 << 20,
            u64::MAX / 2,
        ] {
            let mid = value_of(index_of(v));
            let err = (mid as i128 - v as i128).unsigned_abs() as f64;
            let rel = if v == 0 { 0.0 } else { err / v as f64 };
            assert!(rel <= 0.016, "v={v} mid={mid} rel={rel}");
        }
    }

    #[test]
    fn small_values_exact() {
        let mut h = Histogram::new();
        for v in 0..SUB {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), SUB - 1);
    }

    #[test]
    fn quantiles_of_uniform_range() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let med = h.median();
        assert!((med as f64 - 5000.0).abs() / 5000.0 < 0.02, "median {med}");
        let p99 = h.p99();
        assert!((p99 as f64 - 9900.0).abs() / 9900.0 < 0.02, "p99 {p99}");
        assert_eq!(h.count(), 10_000);
        assert!((h.mean() - 5000.5).abs() < 1.0);
    }

    #[test]
    fn empty_histogram_is_sane() {
        let h = Histogram::new();
        assert_eq!(h.median(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert!(h.cdf().is_empty());
    }

    #[test]
    fn single_value_all_quantiles() {
        let mut h = Histogram::new();
        h.record(777);
        for q in [0.0, 0.5, 0.99, 0.9999, 1.0] {
            let v = h.quantile(q);
            assert!((v as f64 - 777.0).abs() / 777.0 < 0.016, "q={q} v={v}");
        }
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut c = Histogram::new();
        for v in 0..1000u64 {
            a.record(v * 3);
            c.record(v * 3);
        }
        for v in 0..500u64 {
            b.record(v * 7 + 1);
            c.record(v * 7 + 1);
        }
        a.merge(&b);
        assert_eq!(a.count(), c.count());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.quantile(q), c.quantile(q));
        }
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let mut h = Histogram::new();
        for v in [5u64, 10, 10, 1000, 50_000] {
            h.record(v);
        }
        let cdf = h.cdf();
        assert!(!cdf.is_empty());
        for w in cdf.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record_n(12345, 10);
        for _ in 0..10 {
            b.record(12345);
        }
        assert_eq!(a.count(), b.count());
        assert_eq!(a.median(), b.median());
        assert_eq!(a.mean(), b.mean());
    }

    #[test]
    fn tail_quantile_reaches_max_bucket() {
        let mut h = Histogram::new();
        for _ in 0..9999 {
            h.record(100);
        }
        h.record(1_000_000);
        let p9999 = h.p9999();
        assert!(p9999 >= 990_000, "p9999 {p9999}");
    }
}
