//! A speed reference for a box whose cores change gear under you.
//!
//! This container's two vCPUs run in one of two modes for seconds at a
//! time — a dependent ALU chain takes 1.43 ns per step in the fast one
//! and 1.8 ns in the slow one, and the simulator slows by nearly the same
//! factor (1.23x against 1.26x). Nothing in `/proc/stat` shows it (steal
//! stays 0), and the fast mode can be absent from a whole 20 s run, so no
//! choice among raw samples — minimum, median, floor — escapes it: raw
//! slice floors of six rounds range over 29%.
//!
//! So every timed interval is bracketed by a ~150 us run of that chain,
//! and its host time is scaled to what it would be on a core running the
//! chain at [`NOMINAL_NS`]. The chain lives here, touches no memory and
//! calls no code of the repo, so no change to the simulator can move it.

use std::hint::black_box;
use std::time::Instant;

const CHUNKS: u32 = 4;
const STEPS_PER_CHUNK: u32 = 25_000;

/// What one chunk of the chain costs on this box's undisturbed core:
/// three dependent shift-xor pairs, three cycles a step at 2.1 GHz.
pub const NOMINAL_NS: f64 = STEPS_PER_CHUNK as f64 * 1.428;

/// Host ns of the cheapest of [`CHUNKS`] back-to-back runs of the chain.
/// A mode change slows all of them alike; an interrupt lands on one.
pub fn reference_ns() -> u64 {
    (0..CHUNKS)
        .map(|_| {
            let t = Instant::now();
            let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
            for _ in 0..STEPS_PER_CHUNK {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            black_box(x);
            t.elapsed().as_nanos() as u64
        })
        .min()
        .expect("CHUNKS > 0")
}

/// Scale `ns`, measured between two reference readings, to the nominal
/// core. The *faster* of the two readings is believed — if the core
/// changed gear inside the interval this under-corrects, and the floor
/// over rounds then prefers another round's sample; believing the slower
/// one would over-correct and the floor would seek that error out. The
/// factor is clamped, so a reading that is garbage cannot do much.
pub fn normalise(ns: u64, ref_before: u64, ref_after: u64) -> u64 {
    let speed = ref_before.min(ref_after) as f64 / NOMINAL_NS;
    (ns as f64 / speed.clamp(0.5, 2.0)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalise_believes_the_faster_reading_and_clamps() {
        let nominal = NOMINAL_NS as u64;
        assert_eq!(normalise(1_000, nominal, nominal), 1_000);
        // a core 25% slow on both sides: time shrinks by that factor
        let slow = (NOMINAL_NS * 1.25) as u64;
        assert_eq!(normalise(1_000, slow, slow), 800);
        // gear change inside the interval: the faster side wins
        assert_eq!(normalise(1_000, nominal, slow), 1_000);
        assert_eq!(normalise(1_000, slow, nominal), 1_000);
        // garbage readings are clamped to a factor of two either way
        assert_eq!(normalise(1_000, nominal * 50, nominal * 50), 500);
        assert_eq!(normalise(1_000, 1, 1), 2_000);
    }

    #[test]
    fn reference_takes_measurable_time() {
        assert!(reference_ns() > 0);
    }
}
