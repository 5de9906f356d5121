//! The sketches themselves: count-min, the LSB-sharing variant, and the
//! direct-mapped candidate-key table that makes heavy-hitter *identity*
//! recoverable (a sketch alone only answers point queries).

/// splitmix64 finalizer: the one extra mix the fast path is allowed on
/// top of the already-computed `ecmp_basis`. One multiply-shift chain,
/// no key-material re-read.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    z = (z ^ (z >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    z ^ (z >> 33)
}

/// Per-row odd multipliers for count-min's multiply-shift indexing.
/// Eight rows is far more depth than any configuration here uses.
const ROW_ODD: [u64; 8] = [
    0x9E37_79B9_7F4A_7C15,
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
    0x27D4_EB2F_1656_67C5,
    0x85EB_CA77_C2B2_AE63,
    0xA24B_AED4_963E_E407,
    0x9FB2_1C65_1E98_DF25,
    0xCC9E_2D51_0B5E_1B87,
];

/// Append `cells` to `out` as little-endian words, zeroing each as it is
/// read: a sweep's snapshot and reset in one pass.
fn take_le(cells: &mut [u64], out: &mut Vec<u8>) {
    let start = out.len();
    out.resize(start + 8 * cells.len(), 0);
    for (dst, c) in out[start..].as_chunks_mut::<8>().0.iter_mut().zip(cells) {
        *dst = std::mem::take(c).to_le_bytes();
    }
}

/// Shape shared by every sketch instance in one scenario. `width` and
/// `key_slots` must be powers of two (indexing is mask/shift only).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SketchCfg {
    /// Rows per sketch (hash functions).
    pub depth: usize,
    /// Counters per row; power of two.
    pub width: usize,
    /// Slots in the candidate-key table; power of two.
    pub key_slots: usize,
}

impl SketchCfg {
    pub fn validate(&self) {
        assert!(
            self.depth >= 1 && self.depth <= ROW_ODD.len(),
            "sketch depth {} out of range 1..={}",
            self.depth,
            ROW_ODD.len()
        );
        assert!(
            self.width.is_power_of_two() && self.width >= 2,
            "sketch width {} must be a power of two >= 2",
            self.width
        );
        assert!(
            self.key_slots.is_power_of_two(),
            "key_slots {} must be a power of two",
            self.key_slots
        );
    }
}

impl Default for SketchCfg {
    fn default() -> SketchCfg {
        SketchCfg {
            depth: 4,
            width: 4096,
            key_slots: 4096,
        }
    }
}

/// Count-min's row-index rule: row `r` takes cell
/// `r * width + (key * ROW_ODD[r] >> shift)`, row-major. The one
/// definition the dense update, the point query and a sweep's replay
/// into report bytes share.
#[derive(Clone, Copy)]
pub(crate) struct CmIndex {
    depth: usize,
    width: usize,
    shift: u32,
}

impl CmIndex {
    #[inline]
    pub(crate) fn cells(self, key: u64) -> impl Iterator<Item = usize> {
        ROW_ODD[..self.depth]
            .iter()
            .enumerate()
            .map(move |(row, &odd)| {
                row * self.width + (key.wrapping_mul(odd) >> self.shift) as usize
            })
    }
}

/// Count-min sketch. Each row indexes the raw key through a private odd
/// multiplier and a shift (multiply-shift hashing): one multiply per
/// row, no rehash of key material.
pub struct CountMin {
    pub(crate) index: CmIndex,
    cells: Vec<u64>,
    total: u64,
}

impl CountMin {
    pub fn new(cfg: &SketchCfg) -> CountMin {
        cfg.validate();
        CountMin {
            index: CmIndex {
                depth: cfg.depth,
                width: cfg.width,
                shift: 64 - cfg.width.trailing_zeros(),
            },
            cells: vec![0; cfg.depth * cfg.width],
            total: 0,
        }
    }

    #[inline]
    pub fn update(&mut self, key: u64, v: u64) {
        for i in self.index.cells(key) {
            self.cells[i] += v;
        }
        self.total += v;
    }

    /// Point query: min over rows. Never under-estimates the true count.
    pub fn estimate(&self, key: u64) -> u64 {
        self.index
            .cells(key)
            .map(|i| self.cells[i])
            .fold(u64::MAX, u64::min)
    }

    /// Cell-wise merge; `merge(A, B)` is exactly `sketch(stream A ++ stream B)`.
    pub fn merge_cells(&mut self, cells: impl ExactSizeIterator<Item = u64>, total: u64) {
        assert_eq!(cells.len(), self.cells.len(), "count-min shape mismatch");
        for (c, o) in self.cells.iter_mut().zip(cells) {
            *c += o;
        }
        self.total += total;
    }

    /// Append every cell to `out` as a little-endian word and reset the
    /// sketch, in one pass.
    pub fn take_cells(&mut self, out: &mut Vec<u8>) {
        take_le(&mut self.cells, out);
        self.total = 0;
    }

    pub fn reset(&mut self) {
        self.cells.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
    }

    pub fn cells(&self) -> &[u64] {
        &self.cells
    }
    pub fn total(&self) -> u64 {
        self.total
    }
    pub fn depth(&self) -> usize {
        self.index.depth
    }
    pub fn width(&self) -> usize {
        self.index.width
    }
}

/// The LSB sketch's row-index rule: row `r` reads the bit window
/// `h >> (r * share_shift)` masked to the width, row-major — one
/// definition for the dense update, the point query and the replay.
#[derive(Clone, Copy)]
pub(crate) struct LsbIndex {
    depth: usize,
    width: usize,
    mask: u64,
    /// Bits each successive row shifts the shared hash by.
    share_shift: u32,
}

impl LsbIndex {
    /// Cells of the already-mixed hash `h`.
    #[inline]
    pub(crate) fn cells(self, h: u64) -> impl Iterator<Item = usize> {
        // (depth - 1) * share_shift < 64 (checked at construction)
        (0..self.depth).map(move |row| {
            row * self.width + ((h >> (row as u32 * self.share_shift)) & self.mask) as usize
        })
    }
}

/// LSB-sharing sketch (arXiv:2503.11777 style, with the
/// locality-sensitive framing of arXiv:1905.03113): one `mix64` of the
/// key, then each row reads an overlapping bit window of that single
/// hash — adjacent rows share their low `log2(width)/2` bits. Update
/// cost is one mix regardless of depth; rows are correlated, which is
/// the resilience/accuracy trade the papers study.
pub struct LsbSketch {
    pub(crate) index: LsbIndex,
    cells: Vec<u64>,
    total: u64,
}

impl LsbSketch {
    pub fn new(cfg: &SketchCfg) -> LsbSketch {
        cfg.validate();
        let log_w = cfg.width.trailing_zeros();
        let share_shift = (log_w / 2).max(1);
        assert!(
            (cfg.depth as u32 - 1) * share_shift + log_w <= 64,
            "LSB windows exceed 64 bits (depth {} width {})",
            cfg.depth,
            cfg.width
        );
        LsbSketch {
            index: LsbIndex {
                depth: cfg.depth,
                width: cfg.width,
                mask: (cfg.width - 1) as u64,
                share_shift,
            },
            cells: vec![0; cfg.depth * cfg.width],
            total: 0,
        }
    }

    /// Update from an already-mixed hash (the fast path computes
    /// `mix64(basis)` once and shares it with the key table).
    #[inline]
    pub fn update_hashed(&mut self, h: u64, v: u64) {
        for i in self.index.cells(h) {
            self.cells[i] += v;
        }
        self.total += v;
    }

    pub fn update(&mut self, key: u64, v: u64) {
        self.update_hashed(mix64(key), v);
    }

    pub fn estimate(&self, key: u64) -> u64 {
        self.index
            .cells(mix64(key))
            .map(|i| self.cells[i])
            .fold(u64::MAX, u64::min)
    }

    pub fn merge_cells(&mut self, cells: impl ExactSizeIterator<Item = u64>, total: u64) {
        assert_eq!(cells.len(), self.cells.len(), "lsb sketch shape mismatch");
        for (c, o) in self.cells.iter_mut().zip(cells) {
            *c += o;
        }
        self.total += total;
    }

    /// As [`CountMin::take_cells`].
    pub fn take_cells(&mut self, out: &mut Vec<u8>) {
        take_le(&mut self.cells, out);
        self.total = 0;
    }

    pub fn reset(&mut self) {
        self.cells.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
    }

    pub fn cells(&self) -> &[u64] {
        &self.cells
    }
    pub fn total(&self) -> u64 {
        self.total
    }
    pub fn share_shift(&self) -> u32 {
        self.index.share_shift
    }
}

/// Direct-mapped candidate-key table: remembers *which* keys were seen
/// so heavy hitters can be named, not just counted. Last writer wins a
/// slot, so a flow's survival probability tracks its update share —
/// exactly the bias a heavy-hitter table wants. Key 0 means empty
/// (`ecmp_basis` of real traffic is never 0: src_ip is nonzero in the
/// high bits).
pub struct KeyTable {
    slots: Vec<u64>,
    mask: u64,
}

impl KeyTable {
    pub fn new(cfg: &SketchCfg) -> KeyTable {
        cfg.validate();
        KeyTable {
            slots: vec![0; cfg.key_slots],
            mask: (cfg.key_slots - 1) as u64,
        }
    }

    /// Store from the already-mixed hash (slot index reuses `mix64`'s
    /// top bits so it is independent of the LSB windows).
    #[inline]
    pub fn insert_hashed(&mut self, key: u64, h: u64) {
        self.slots[((h >> 32) & self.mask) as usize] = key;
    }

    /// Non-empty candidates in slot order (deterministic).
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.slots.iter().copied().filter(|&k| k != 0)
    }

    /// Append the non-empty candidates to `out` in slot order as
    /// little-endian words, emptying every slot in the same pass; returns
    /// how many were written.
    pub fn take_keys(&mut self, out: &mut Vec<u8>) -> usize {
        let mut n = 0;
        for slot in &mut self.slots {
            let k = std::mem::take(slot);
            if k != 0 {
                out.extend_from_slice(&k.to_le_bytes());
                n += 1;
            }
        }
        n
    }

    pub fn reset(&mut self) {
        self.slots.iter_mut().for_each(|s| *s = 0);
    }
}

/// Updates an epoch may log before [`SwitchSketch::update`] folds them
/// into the dense sketches. At 16 B an entry a full log is 128 KiB,
/// under half the 288 KiB of cells and key slots it stands in for at
/// the default 4x4096 shape.
pub(crate) const LOG_CAP: usize = 8_192;

/// Everything one switch carries for telemetry: both sketches, the
/// candidate table, and exact frame/byte totals for the epoch.
///
/// The forwarding path only logs `(basis, len)`; the sweep renders the
/// epoch's cells straight into the report (see `encode_sweep`). Both
/// sketches are linear and the key table is last-writer-wins, so a
/// replay in arrival order gives exactly the cells per-frame updates
/// would have. An epoch that fills the log folds it into the dense
/// sketches, which the sweep then copies out before replaying the rest.
pub struct SwitchSketch {
    pub cfg: SketchCfg,
    pub(crate) cm: CountMin,
    pub(crate) lsb: LsbSketch,
    pub(crate) keys: KeyTable,
    /// This epoch's updates not yet in the dense state, arrival order.
    pub(crate) log: Vec<(u64, u64)>,
    /// The dense sketches hold folded updates of this epoch.
    pub(crate) folded: bool,
    pub frames: u64,
    pub bytes: u64,
}

impl SwitchSketch {
    pub fn new(cfg: SketchCfg) -> SwitchSketch {
        SwitchSketch {
            cfg,
            cm: CountMin::new(&cfg),
            lsb: LsbSketch::new(&cfg),
            keys: KeyTable::new(&cfg),
            log: Vec::with_capacity(LOG_CAP),
            folded: false,
            frames: 0,
            bytes: 0,
        }
    }

    /// THE fast-path hook. `basis` is the frame's
    /// `FrameMeta::flow_basis`; `len` the wire length. One append to the
    /// epoch's log — no cell, no hash, no alloc (the log is sized once).
    #[inline]
    pub fn update(&mut self, basis: u64, len: u64) {
        if self.log.len() == LOG_CAP {
            self.fold();
        }
        self.log.push((basis, len));
        self.frames += 1;
        self.bytes += len;
    }

    /// Apply the log to the dense sketches and empty it.
    #[cold]
    fn fold(&mut self) {
        for &(basis, len) in &self.log {
            let h = mix64(basis);
            self.cm.update(basis, len);
            self.lsb.update_hashed(h, len);
            self.keys.insert_hashed(basis, h);
        }
        self.log.clear();
        self.folded = true;
    }

    pub fn reset(&mut self) {
        self.cm.reset();
        self.lsb.reset();
        self.keys.reset();
        self.log.clear();
        self.folded = false;
        self.frames = 0;
        self.bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::tests::Eager;
    use crate::{MergedView, ReportView};

    pub(crate) struct Lcg(pub u64);
    impl Lcg {
        pub fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 8
        }
    }

    fn tiny() -> SketchCfg {
        SketchCfg {
            depth: 3,
            width: 256,
            key_slots: 64,
        }
    }

    #[test]
    fn never_underestimates() {
        let mut rng = Lcg(42);
        let mut cm = CountMin::new(&tiny());
        let mut lsb = LsbSketch::new(&tiny());
        let keys: Vec<(u64, u64)> = (0..500)
            .map(|_| (rng.next(), 1 + rng.next() % 900))
            .collect();
        for &(k, v) in &keys {
            cm.update(k, v);
            lsb.update(k, v);
        }
        let mut truth = std::collections::BTreeMap::new();
        for &(k, v) in &keys {
            *truth.entry(k).or_insert(0u64) += v;
        }
        for (&k, &t) in &truth {
            assert!(cm.estimate(k) >= t, "count-min under-estimated");
            assert!(lsb.estimate(k) >= t, "lsb sketch under-estimated");
        }
    }

    #[test]
    fn respects_eps_n_bound() {
        // Classic count-min guarantee: overshoot <= e/width * N with
        // prob 1 - exp(-depth) per key. With a fixed seed we assert the
        // bound with a small slack on every key rather than in
        // expectation.
        let cfg = tiny();
        let mut rng = Lcg(7);
        let mut cm = CountMin::new(&cfg);
        let mut truth = std::collections::BTreeMap::new();
        for _ in 0..2000 {
            let (k, v) = (rng.next(), 1 + rng.next() % 50);
            cm.update(k, v);
            *truth.entry(k).or_insert(0u64) += v;
        }
        let n = cm.total();
        let bound = (3.0 * std::f64::consts::E * n as f64 / cfg.width as f64) as u64;
        for (&k, &t) in &truth {
            let over = cm.estimate(k) - t;
            assert!(
                over <= bound,
                "overshoot {over} exceeds 3eN/w = {bound} (N={n})"
            );
        }
    }

    #[test]
    fn merge_equals_union_stream() {
        let cfg = tiny();
        let mut rng = Lcg(99);
        let a: Vec<(u64, u64)> = (0..300)
            .map(|_| (rng.next() % 512, 1 + rng.next() % 9))
            .collect();
        let b: Vec<(u64, u64)> = (0..300)
            .map(|_| (rng.next() % 512, 1 + rng.next() % 9))
            .collect();
        let mut cm_a = CountMin::new(&cfg);
        let mut cm_b = CountMin::new(&cfg);
        let mut cm_u = CountMin::new(&cfg);
        let mut ls_a = LsbSketch::new(&cfg);
        let mut ls_b = LsbSketch::new(&cfg);
        let mut ls_u = LsbSketch::new(&cfg);
        for &(k, v) in &a {
            cm_a.update(k, v);
            ls_a.update(k, v);
            cm_u.update(k, v);
            ls_u.update(k, v);
        }
        for &(k, v) in &b {
            cm_b.update(k, v);
            ls_b.update(k, v);
            cm_u.update(k, v);
            ls_u.update(k, v);
        }
        cm_a.merge_cells(cm_b.cells().iter().copied(), cm_b.total());
        ls_a.merge_cells(ls_b.cells().iter().copied(), ls_b.total());
        assert_eq!(cm_a.cells(), cm_u.cells(), "count-min merge != union");
        assert_eq!(cm_a.total(), cm_u.total());
        assert_eq!(ls_a.cells(), ls_u.cells(), "lsb merge != union");
        assert_eq!(ls_a.total(), ls_u.total());
    }

    #[test]
    fn key_table_keeps_hot_keys() {
        let cfg = tiny();
        let mut kt = KeyTable::new(&cfg);
        // A heavy key updated last in its slot must be present.
        for k in 1..=200u64 {
            kt.insert_hashed(k, mix64(k));
        }
        kt.insert_hashed(7777, mix64(7777));
        assert!(kt.keys().any(|k| k == 7777));
        kt.reset();
        assert_eq!(kt.keys().count(), 0);
    }

    /// The live sketch is read the way the collector reads it, through
    /// its sweep; the eager reference stands in for its mid-epoch cells.
    #[test]
    fn switch_sketch_update_and_reset() {
        let mut s = SwitchSketch::new(tiny());
        let mut eager = Eager::new(tiny());
        for len in [100, 50] {
            s.update(0xdead_beef, len);
            eager.update(0xdead_beef, len);
        }
        assert_eq!(s.frames, 2);
        assert_eq!(s.bytes, 150);
        assert!(eager.cm.estimate(0xdead_beef) >= 150);
        assert!(eager.lsb.estimate(0xdead_beef) >= 150);
        let mut buf = Vec::new();
        s.encode_sweep(0, 0, &mut buf);
        assert_eq!(
            buf,
            eager.encode(0, 0),
            "the sweep renders the eager sketch"
        );

        s.update(0xdead_beef, 100);
        s.reset();
        assert_eq!(s.frames, 0);
        s.encode_sweep(0, 1, &mut buf);
        assert_eq!(buf, Eager::new(tiny()).encode(0, 1));
        let mut view = MergedView::new(&tiny());
        assert!(view.absorb(&ReportView::parse(&buf).unwrap(), &mut Vec::new()));
        assert_eq!(view.cm.estimate(0xdead_beef), 0);
    }
}
