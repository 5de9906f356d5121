//! The wire format the one client and the one server speak: a single
//! decision, [`Wire`], that both read.
//!
//! ## Fixed-size echo
//!
//! Every request is `req` bytes and is answered with `resp` bytes, with
//! no header: the server counts bytes. One socket read and one write per
//! request on each side — the small-RPC echo behind Figures 9–16.
//!
//! ## Framing
//!
//! Sizes vary per RPC, so every request starts with a 16-byte header
//! (magic, extra request bytes, response length, sequence cookie) written
//! as real data; the remaining request bytes and the entire response
//! travel as descriptor-only bulk (`send_bytes`). The server reads the
//! header and the body separately, so a framed request costs it two reads
//! where the echo costs one. Responses complete strictly in request order
//! per connection — TCP byte-stream order — which the client's
//! per-connection FIFO relies on.

use flextoe_sim::Rng;

/// Bytes of real framing data at the head of every framed request.
pub const FRAME_HDR: u32 = 16;
const MAGIC: u32 = 0x4652_5043; // "FRPC"

/// The port the fixed-size echo listens on by default.
pub const ECHO_PORT: u16 = 7777;
/// The port the framed server listens on in the fabric experiments.
pub const FRAMED_PORT: u16 = 7979;

/// What travels on a connection, for client and server alike.
#[derive(Clone, Copy, Debug)]
pub enum Wire {
    /// Unframed: `req` request bytes, answered by `resp` bytes.
    Fixed { req: u32, resp: u32 },
    /// The 16-byte header, then the rest of the request; the client draws
    /// each request's total size (clamped up to the header) and response
    /// size from these, and the server reads them from the header.
    Framed { req: SizeDist, resp: SizeDist },
}

/// RPC size distribution. `Pareto` is the heavy-tailed option (bounded
/// Pareto via inverse-CDF sampling): most RPCs are small, a fat tail is
/// large — the classic datacenter mix.
#[derive(Clone, Copy, Debug)]
pub enum SizeDist {
    Fixed(u32),
    /// Uniform in `[lo, hi]`.
    Uniform {
        lo: u32,
        hi: u32,
    },
    /// Bounded Pareto on `[min, max]` with shape `alpha` (smaller alpha =
    /// heavier tail; alpha ≤ 1 has unbounded mean on the unbounded form).
    Pareto {
        alpha: f64,
        min: u32,
        max: u32,
    },
}

impl SizeDist {
    pub fn sample(&self, rng: &mut Rng) -> u32 {
        match *self {
            SizeDist::Fixed(v) => v,
            SizeDist::Uniform { lo, hi } => rng.range(lo as u64, hi as u64) as u32,
            SizeDist::Pareto { alpha, min, max } => {
                let (xm, xx) = (min.max(1) as f64, max.max(min.max(1)) as f64);
                let u = rng.f64();
                let ratio = (xm / xx).powf(alpha);
                let x = xm / (1.0 - u * (1.0 - ratio)).powf(1.0 / alpha);
                (x as u32).clamp(min, max)
            }
        }
    }

    /// Expected value (experiment load accounting).
    pub fn mean(&self) -> f64 {
        match *self {
            SizeDist::Fixed(v) => v as f64,
            SizeDist::Uniform { lo, hi } => (lo as f64 + hi as f64) / 2.0,
            SizeDist::Pareto { alpha, min, max } => {
                // mean of the bounded Pareto on [xm, xx]
                let (xm, xx) = (min.max(1) as f64, max.max(min.max(1)) as f64);
                if (alpha - 1.0).abs() < 1e-9 {
                    let h = xm / (1.0 - xm / xx);
                    return h * (xx / xm).ln();
                }
                let num = xm.powf(alpha) / (1.0 - (xm / xx).powf(alpha));
                num * alpha / (alpha - 1.0)
                    * (1.0 / xm.powf(alpha - 1.0) - 1.0 / xx.powf(alpha - 1.0))
            }
        }
    }
}

/// The 16 bytes of real data at the head of a framed request.
pub(crate) fn frame_header(extra_req: u32, resp: u32, seq: u32) -> [u8; FRAME_HDR as usize] {
    let mut hdr = [0; FRAME_HDR as usize];
    for (word, v) in hdr.chunks_exact_mut(4).zip([MAGIC, extra_req, resp, seq]) {
        word.copy_from_slice(&v.to_le_bytes());
    }
    hdr
}

/// `(extra request bytes, response bytes)` of a framed request's header,
/// or `None` when the magic is wrong (the byte stream lost sync).
pub(crate) fn parse_header(hdr: &[u8; FRAME_HDR as usize]) -> Option<(u32, u32)> {
    let word = |i: usize| u32::from_le_bytes([hdr[i], hdr[i + 1], hdr[i + 2], hdr[i + 3]]);
    (word(0) == MAGIC).then(|| (word(4), word(8)))
}

/// Unsent request bytes: a literal framing header (and how much of it
/// went out), or descriptor-only bulk.
pub(crate) enum TxChunk {
    Lit([u8; FRAME_HDR as usize], usize),
    Pad(u32),
}

/// Two words in one self-wake `Msg::Token`.
pub(crate) fn pack_token(hi: u32, lo: u32) -> u64 {
    u64::from(hi) << 32 | u64::from(lo)
}

pub(crate) fn unpack_token(t: u64) -> (u32, u32) {
    ((t >> 32) as u32, t as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_dists_stay_in_bounds_and_hit_their_mean() {
        let mut rng = Rng::new(5);
        let dists = [
            SizeDist::Fixed(100),
            SizeDist::Uniform { lo: 10, hi: 90 },
            SizeDist::Pareto {
                alpha: 1.2,
                min: 64,
                max: 65_536,
            },
        ];
        for d in dists {
            let n = 200_000;
            let mut sum = 0.0;
            let (mut lo, mut hi) = (u32::MAX, 0u32);
            for _ in 0..n {
                let v = d.sample(&mut rng);
                sum += v as f64;
                lo = lo.min(v);
                hi = hi.max(v);
            }
            let mean = sum / n as f64;
            let want = d.mean();
            assert!(
                (mean - want).abs() / want < 0.05,
                "{d:?}: empirical mean {mean} vs analytic {want}"
            );
            match d {
                SizeDist::Fixed(v) => assert_eq!((lo, hi), (v, v)),
                SizeDist::Uniform { lo: l, hi: h } => {
                    assert!(lo >= l && hi <= h);
                }
                SizeDist::Pareto { min, max, .. } => {
                    assert!(lo >= min && hi <= max);
                    // heavy tail: the max draw dwarfs the mean
                    assert!(hi as f64 > 10.0 * mean, "tail: max {hi} mean {mean}");
                }
            }
        }
    }

    #[test]
    fn pareto_is_heavy_tailed_vs_uniform_of_same_mean() {
        let mut rng = Rng::new(9);
        let p = SizeDist::Pareto {
            alpha: 1.1,
            min: 64,
            max: 1 << 20,
        };
        let n = 100_000;
        let draws: Vec<u32> = (0..n).map(|_| p.sample(&mut rng)).collect();
        let mean = draws.iter().map(|&v| v as f64).sum::<f64>() / n as f64;
        let over_10x = draws.iter().filter(|&&v| v as f64 > 10.0 * mean).count();
        // a meaningful fraction of probability mass far above the mean
        assert!(
            over_10x > n / 1000,
            "heavy tail: {over_10x} draws > 10x mean"
        );
        let median = {
            let mut s = draws.clone();
            s.sort_unstable();
            s[n / 2]
        };
        assert!(
            (median as f64) < mean,
            "skew: median {median} < mean {mean}"
        );
    }
}
