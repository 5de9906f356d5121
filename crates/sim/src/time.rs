//! Simulated time.
//!
//! The simulator counts **picoseconds** in a `u64`, which spans ~213 days of
//! simulated time — far more than any experiment needs — while still being
//! able to represent a single cycle of the fastest clock domain we model
//! (2.35 GHz x86 ≈ 425 ps) without rounding the per-cycle cost to zero.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant of simulated time, in picoseconds since the start of
/// the simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

/// A span of simulated time, in picoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

pub const PS_PER_NS: u64 = 1_000;
pub const PS_PER_US: u64 = 1_000_000;
pub const PS_PER_MS: u64 = 1_000_000_000;
pub const PS_PER_S: u64 = 1_000_000_000_000;

impl Time {
    pub const ZERO: Time = Time(0);
    /// The largest representable instant; used as an "infinitely far" deadline.
    pub const MAX: Time = Time(u64::MAX);

    #[inline]
    pub const fn from_ns(ns: u64) -> Time {
        Time(ns * PS_PER_NS)
    }
    #[inline]
    pub const fn from_us(us: u64) -> Time {
        Time(us * PS_PER_US)
    }
    #[inline]
    pub const fn from_ms(ms: u64) -> Time {
        Time(ms * PS_PER_MS)
    }
    #[inline]
    pub fn ps(self) -> u64 {
        self.0
    }
    #[inline]
    pub fn as_ns(self) -> u64 {
        self.0 / PS_PER_NS
    }
    #[inline]
    pub fn as_us(self) -> u64 {
        self.0 / PS_PER_US
    }
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }
    /// Duration since an earlier instant. Panics (in debug) on time reversal.
    #[inline]
    pub fn since(self, earlier: Time) -> Duration {
        debug_assert!(self >= earlier, "time went backwards");
        Duration(self.0 - earlier.0)
    }
    #[inline]
    pub fn saturating_since(self, earlier: Time) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
    #[inline]
    pub fn min(self, other: Time) -> Time {
        Time(self.0.min(other.0))
    }
    #[inline]
    pub fn max(self, other: Time) -> Time {
        Time(self.0.max(other.0))
    }
}

impl Duration {
    pub const ZERO: Duration = Duration(0);
    pub const MAX: Duration = Duration(u64::MAX);

    #[inline]
    pub const fn from_ps(ps: u64) -> Duration {
        Duration(ps)
    }
    #[inline]
    pub const fn from_ns(ns: u64) -> Duration {
        Duration(ns * PS_PER_NS)
    }
    #[inline]
    pub const fn from_us(us: u64) -> Duration {
        Duration(us * PS_PER_US)
    }
    #[inline]
    pub const fn from_ms(ms: u64) -> Duration {
        Duration(ms * PS_PER_MS)
    }
    #[inline]
    pub const fn from_secs(s: u64) -> Duration {
        Duration(s * PS_PER_S)
    }
    #[inline]
    pub fn from_secs_f64(s: f64) -> Duration {
        Duration((s * PS_PER_S as f64) as u64)
    }
    /// Time to serialize `bytes` at a line rate of `bps` bits per second
    /// (truncated to whole ps).
    #[inline]
    pub fn line_rate(bytes: usize, bps: u64) -> Duration {
        Duration((bytes as u64 * 8).saturating_mul(PS_PER_S) / bps)
    }
    #[inline]
    pub fn ps(self) -> u64 {
        self.0
    }
    #[inline]
    pub fn as_ns(self) -> u64 {
        self.0 / PS_PER_NS
    }
    #[inline]
    pub fn as_us(self) -> u64 {
        self.0 / PS_PER_US
    }
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }
    #[inline]
    pub fn saturating_sub(self, other: Duration) -> Duration {
        Duration(self.0.saturating_sub(other.0))
    }
    #[inline]
    pub fn min(self, other: Duration) -> Duration {
        Duration(self.0.min(other.0))
    }
    #[inline]
    pub fn max(self, other: Duration) -> Duration {
        Duration(self.0.max(other.0))
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Duration) -> Time {
        Time(self.0.saturating_add(rhs.0))
    }
}
impl AddAssign<Duration> for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}
impl Sub<Duration> for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Duration) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }
}
impl Sub<Time> for Time {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Time) -> Duration {
        self.since(rhs)
    }
}
impl Add for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }
}
impl AddAssign for Duration {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}
impl Sub for Duration {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Duration) -> Duration {
        debug_assert!(self.0 >= rhs.0, "negative duration");
        Duration(self.0 - rhs.0)
    }
}
impl SubAssign for Duration {
    #[inline]
    fn sub_assign(&mut self, rhs: Duration) {
        *self = *self - rhs;
    }
}
impl Mul<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0.saturating_mul(rhs))
    }
}
impl Div<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", fmt_ps(self.0))
    }
}
impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", fmt_ps(self.0))
    }
}
impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", fmt_ps(self.0))
    }
}
impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", fmt_ps(self.0))
    }
}

fn fmt_ps(ps: u64) -> String {
    if ps >= PS_PER_S {
        format!("{:.3}s", ps as f64 / PS_PER_S as f64)
    } else if ps >= PS_PER_MS {
        format!("{:.3}ms", ps as f64 / PS_PER_MS as f64)
    } else if ps >= PS_PER_US {
        format!("{:.3}us", ps as f64 / PS_PER_US as f64)
    } else if ps >= PS_PER_NS {
        format!("{:.3}ns", ps as f64 / PS_PER_NS as f64)
    } else {
        format!("{}ps", ps)
    }
}

/// A clock domain: converts between cycle counts and simulated time.
///
/// The paper's platforms: FPCs at 800 MHz, the host Xeon at 2 GHz, the x86
/// port's EPYC at 2.35 GHz, BlueField A72 cores at 800 MHz.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Clock {
    hz: u64,
    /// `PS_PER_S / hz` when that divides exactly (800 MHz, 2 GHz), else 0
    /// (2.35 GHz): a cycle is then a whole number of picoseconds and
    /// [`Clock::cycles`] multiplies instead of dividing.
    ps_per_cycle: u64,
}

impl Clock {
    pub const fn new(hz: u64) -> Clock {
        assert!(hz > 0);
        let ps_per_cycle = if PS_PER_S.is_multiple_of(hz) {
            PS_PER_S / hz
        } else {
            0
        };
        Clock { hz, ps_per_cycle }
    }
    pub const fn mhz(mhz: u64) -> Clock {
        Clock::new(mhz * 1_000_000)
    }
    pub const fn hz(&self) -> u64 {
        self.hz
    }
    /// Duration of `n` cycles in this domain (rounded up to whole ps).
    #[inline]
    pub fn cycles(&self, n: u64) -> Duration {
        // ps = n * 1e12 / hz. Per-event cycle counts (hops, stage costs) are
        // small, so the product fits a u64: a whole-ps cycle makes it one
        // multiply, any other clock a hardware divide; only huge counts pay
        // the 128-bit (`__udivti3`) path.
        if n <= Self::NARROW_MAX_CYCLES {
            if self.ps_per_cycle != 0 {
                Duration(n * self.ps_per_cycle)
            } else {
                Duration((n * PS_PER_S).div_ceil(self.hz))
            }
        } else {
            self.cycles_wide(n)
        }
    }
    /// Largest `n` for which `n * PS_PER_S` fits a `u64` (18_446_744).
    const NARROW_MAX_CYCLES: u64 = u64::MAX / PS_PER_S;
    /// [`Clock::cycles`] with a 128-bit intermediate: exact for every `n`.
    fn cycles_wide(&self, n: u64) -> Duration {
        let ps = (n as u128 * PS_PER_S as u128).div_ceil(self.hz as u128);
        Duration(ps as u64)
    }
    /// Number of whole cycles that fit in `d`.
    #[inline]
    pub fn to_cycles(&self, d: Duration) -> u64 {
        ((d.0 as u128 * self.hz as u128) / PS_PER_S as u128) as u64
    }
    /// Cycles per second expressed per-byte rate conversion helper:
    /// given a rate in bytes/sec, returns cycles/byte (floor, min 1).
    ///
    /// The NFP-4000 has no division unit, so the FlexTOE control plane
    /// converts rates to cycles/byte *on the host* and programs the result
    /// into NIC memory (§3.4). This helper is that host-side computation.
    #[inline]
    pub fn cycles_per_byte(&self, bytes_per_sec: u64) -> u64 {
        if bytes_per_sec == 0 {
            return u64::MAX;
        }
        (self.hz / bytes_per_sec).max(1)
    }
}

/// Well-known clock domains used across the workspace.
pub mod clocks {
    use super::Clock;
    /// NFP-4000 flow-processing core (Agilio CX40).
    pub const FPC_800MHZ: Clock = Clock::mhz(800);
    /// Agilio LX FPCs (the paper's footnote 7 upgrade path).
    pub const FPC_1200MHZ: Clock = Clock::mhz(1200);
    /// Testbed host: Intel Xeon Gold 6138 @ 2 GHz.
    pub const HOST_2GHZ: Clock = Clock::mhz(2000);
    /// x86 port host: AMD EPYC 7452 @ 2.35 GHz.
    pub const X86_2350MHZ: Clock = Clock::mhz(2350);
    /// BlueField MBF1M332A ARM A72 cores.
    pub const BLUEFIELD_800MHZ: Clock = Clock::mhz(800);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = Time::from_us(3) + Duration::from_ns(500);
        assert_eq!(t.ps(), 3_500_000);
        assert_eq!(t.as_ns(), 3_500);
        assert_eq!((t - Time::from_us(3)).as_ns(), 500);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(Duration::from_ms(1), Duration::from_us(1000));
        assert_eq!(Duration::from_secs(1), Duration::from_ms(1000));
        assert_eq!(Duration::from_secs_f64(0.5), Duration::from_ms(500));
    }

    #[test]
    fn clock_cycle_conversion() {
        let c = clocks::FPC_800MHZ;
        // 800 MHz -> 1.25 ns/cycle = 1250 ps.
        assert_eq!(c.cycles(1), Duration::from_ps(1250));
        assert_eq!(c.cycles(800_000_000), Duration::from_secs(1));
        assert_eq!(c.to_cycles(Duration::from_ns(125)), 100);
    }

    #[test]
    fn clock_cycles_rounds_up() {
        // 3 cycles at 2.35GHz = 1276.59..ps, must not round to zero-loss 1276.
        let c = clocks::X86_2350MHZ;
        let d = c.cycles(3);
        assert!(d.ps() * c.hz() >= 3 * 1_000_000_000_000 - c.hz());
        assert_eq!(c.cycles(0), Duration::ZERO);
    }

    /// The 64-bit fast path and the 128-bit path are the same function:
    /// every clock domain, small counts, a pseudo-random sweep, and both
    /// sides of the overflow boundary.
    #[test]
    fn clock_cycles_narrow_and_wide_paths_agree() {
        let all = [
            clocks::FPC_800MHZ,
            clocks::FPC_1200MHZ,
            clocks::HOST_2GHZ,
            clocks::X86_2350MHZ,
            clocks::BLUEFIELD_800MHZ,
            Clock::new(1),
            Clock::new(333_333_333),
        ];
        const EDGE: u64 = Clock::NARROW_MAX_CYCLES;
        assert_eq!(EDGE, 18_446_744);
        let mut rng = crate::rng::Rng::new(0xC10C);
        for c in all {
            let sweep = (0..4096)
                .chain((0..4096).map(|_| rng.below(EDGE + 1)))
                .chain(EDGE - 64..=EDGE + 64);
            for n in sweep {
                assert_eq!(c.cycles(n), c.cycles_wide(n), "{c:?} n={n}");
            }
        }
    }

    /// The multiply path is the `div_ceil` it replaces, on every clock
    /// domain the platforms use: the whole-ps ones (800 MHz, 2 GHz) take
    /// it, 1.2 and 2.35 GHz keep dividing.
    #[test]
    fn clock_cycles_multiply_path_matches_div_ceil() {
        let reference = |c: Clock, n: u64| {
            if n <= Clock::NARROW_MAX_CYCLES {
                Duration((n * PS_PER_S).div_ceil(c.hz()))
            } else {
                c.cycles_wide(n)
            }
        };
        let all = [
            (clocks::FPC_800MHZ, 1250),
            (clocks::FPC_1200MHZ, 0),
            (clocks::HOST_2GHZ, 500),
            (clocks::X86_2350MHZ, 0),
            (clocks::BLUEFIELD_800MHZ, 1250),
        ];
        const EDGE: u64 = Clock::NARROW_MAX_CYCLES;
        let mut rng = crate::rng::Rng::new(0x3A17);
        for (c, ps_per_cycle) in all {
            assert_eq!(c.ps_per_cycle, ps_per_cycle, "{c:?}");
            let sample = (0..1024).map(|_| rng.below(EDGE + 1));
            for n in [0, 1, 1250, EDGE, EDGE + 1].into_iter().chain(sample) {
                assert_eq!(c.cycles(n), reference(c, n), "{c:?} n={n}");
            }
        }
    }

    #[test]
    fn cycles_per_byte_for_scheduler() {
        let c = clocks::FPC_800MHZ;
        // 40 Gbps = 5e9 B/s -> 800e6/5e9 < 1 -> clamped to 1 cycle/byte.
        assert_eq!(c.cycles_per_byte(5_000_000_000), 1);
        // 1 MB/s -> 800 cycles/byte.
        assert_eq!(c.cycles_per_byte(1_000_000), 800);
        assert_eq!(c.cycles_per_byte(0), u64::MAX);
    }

    #[test]
    fn saturating_behaviour() {
        assert_eq!(Time::MAX + Duration::from_secs(1), Time::MAX);
        assert_eq!(Time::ZERO - Duration::from_secs(1), Time::ZERO);
        assert_eq!(Duration::MAX + Duration::from_secs(1), Duration::MAX);
    }

    #[test]
    fn display_formats() {
        assert_eq!(
            format!("{}", Duration::from_ns(1500)),
            "1.500us".to_string()
        );
        assert_eq!(format!("{}", Duration::from_ps(999)), "999ps".to_string());
        assert_eq!(format!("{}", Duration::from_secs(2)), "2.000s".to_string());
    }
}
