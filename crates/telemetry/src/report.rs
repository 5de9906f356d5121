//! Epoch report wire format and the collector's merged view.
//!
//! A sweep renders one switch's epoch into a flat little-endian u64
//! payload (carried through the fabric in a pooled frame buffer),
//! emptying the sketch in the same pass — epochs are disjoint by
//! construction, so the collector's cell-wise merge is exactly the
//! sketch of the union stream. The collector merges straight from the
//! payload bytes through a [`ReportView`]; nothing is decoded into
//! owned buffers.
//!
//! Layout (u64 little-endian words):
//! `magic, switch<<32|epoch, frames, bytes, depth, width, share_shift,`
//! `cm cells (depth*width), lsb cells (depth*width), nkeys, keys...`

use crate::sketch::{mix64, CountMin, LsbSketch, SketchCfg, SwitchSketch};

/// First word of every telemetry report payload.
pub const REPORT_MAGIC: u64 = 0x544C_4D52_5054_0001; // "TLMRPT" v1

/// Words before the count-min cells.
const HEADER_WORDS: usize = 7;

#[inline]
fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn words(b: &[u8]) -> impl ExactSizeIterator<Item = u64> + '_ {
    b.as_chunks::<8>().0.iter().map(|w| u64::from_le_bytes(*w))
}

/// Add `v` to the little-endian word `cell`.
#[inline]
fn add_le(cell: &mut [u8; 8], v: u64) {
    *cell = (u64::from_le_bytes(*cell) + v).to_le_bytes();
}

impl SwitchSketch {
    /// Render this epoch into `out` (cleared first, then sized once for
    /// the largest report this shape can produce) and reset the sketch
    /// in the same pass: the cell sections are zero-filled (or, after a
    /// fold, copied out of the dense sketches and zeroed there), then the
    /// epoch's log is replayed in arrival order straight into those
    /// bytes, which the fill has just brought into cache.
    pub fn encode_sweep(&mut self, switch: u32, epoch: u32, out: &mut Vec<u8>) {
        let cells = self.cfg.depth * self.cfg.width;
        out.clear();
        out.reserve(8 * (HEADER_WORDS + 2 * cells + 1 + self.cfg.key_slots));
        for w in [
            REPORT_MAGIC,
            (switch as u64) << 32 | epoch as u64,
            self.frames,
            self.bytes,
            self.cfg.depth as u64,
            self.cfg.width as u64,
            self.lsb.share_shift() as u64,
        ] {
            push_u64(out, w);
        }
        if std::mem::take(&mut self.folded) {
            self.cm.take_cells(out);
            self.lsb.take_cells(out);
        } else {
            out.resize(8 * (HEADER_WORDS + 2 * cells), 0);
        }
        let (cm, lsb) = out[8 * HEADER_WORDS..]
            .as_chunks_mut::<8>()
            .0
            .split_at_mut(cells);
        let (cm_index, lsb_index) = (self.cm.index, self.lsb.index);
        for (basis, len) in self.log.drain(..) {
            let h = mix64(basis);
            for i in cm_index.cells(basis) {
                add_le(&mut cm[i], len);
            }
            for i in lsb_index.cells(h) {
                add_le(&mut lsb[i], len);
            }
            self.keys.insert_hashed(basis, h);
        }
        let nkeys_at = out.len();
        push_u64(out, 0);
        let nkeys = self.keys.take_keys(out) as u64;
        out[nkeys_at..nkeys_at + 8].copy_from_slice(&nkeys.to_le_bytes());
        self.frames = 0;
        self.bytes = 0;
    }
}

/// One report payload, read in place. Parsing locates the cell and key
/// sections with checked arithmetic against the buffer length, so a
/// wrong magic, a truncated payload or a header whose sizes overflow or
/// overrun the buffer is `None` before any section is touched.
pub struct ReportView<'a> {
    pub switch: u32,
    pub epoch: u32,
    pub frames: u64,
    pub bytes: u64,
    /// The shape the cell sections were sized from.
    depth: usize,
    width: usize,
    cm: &'a [u8],
    lsb: &'a [u8],
    keys: &'a [u8],
}

impl<'a> ReportView<'a> {
    pub fn parse(buf: &'a [u8]) -> Option<ReportView<'a>> {
        let (header, body) = buf.split_first_chunk::<{ 8 * HEADER_WORDS }>()?;
        let word = |i: usize| u64::from_le_bytes(header.as_chunks::<8>().0[i]);
        if word(0) != REPORT_MAGIC {
            return None;
        }
        // word 6, share_shift, follows from width
        let depth = usize::try_from(word(4)).ok()?;
        let width = usize::try_from(word(5)).ok()?;
        if depth == 0 || depth > 8 || !width.is_power_of_two() {
            return None;
        }
        let section = depth.checked_mul(width)?.checked_mul(8)?;
        let (cm, body) = body.split_at_checked(section)?;
        let (lsb, body) = body.split_at_checked(section)?;
        let (nkeys, body) = body.split_first_chunk::<8>()?;
        let nkeys = usize::try_from(u64::from_le_bytes(*nkeys)).ok()?;
        let keys = body.get(..nkeys.checked_mul(8)?)?;
        let tag = word(1);
        Some(ReportView {
            switch: (tag >> 32) as u32,
            epoch: tag as u32,
            frames: word(2),
            bytes: word(3),
            depth,
            width,
            cm,
            lsb,
            keys,
        })
    }

    /// Count-min cells, row-major.
    pub fn cm_cells(&self) -> impl ExactSizeIterator<Item = u64> + 'a {
        words(self.cm)
    }

    /// LSB-sketch cells, row-major.
    pub fn lsb_cells(&self) -> impl ExactSizeIterator<Item = u64> + 'a {
        words(self.lsb)
    }

    /// Candidate keys in the switch's key-table slot order.
    pub fn keys(&self) -> impl ExactSizeIterator<Item = u64> + 'a {
        words(self.keys)
    }
}

/// Collector-side accumulated state for one switch: cell-wise merged
/// sketches across epochs plus the union of candidate keys (ascending
/// and duplicate-free, so every iteration is deterministic and sorted).
pub struct MergedView {
    pub cm: CountMin,
    pub lsb: LsbSketch,
    pub keys: Vec<u64>,
    pub frames: u64,
    pub bytes: u64,
    pub epochs: u32,
}

impl MergedView {
    pub fn new(cfg: &SketchCfg) -> MergedView {
        MergedView {
            cm: CountMin::new(cfg),
            lsb: LsbSketch::new(cfg),
            keys: Vec::new(),
            frames: 0,
            bytes: 0,
            epochs: 0,
        }
    }

    /// Merge one epoch straight from its report bytes. `scratch` holds
    /// the report's keys while they are sorted — one buffer per
    /// collector, reused across every view. Returns `false` (report
    /// dropped, view untouched) on a shape mismatch.
    pub fn absorb(&mut self, rep: &ReportView<'_>, scratch: &mut Vec<u64>) -> bool {
        if rep.depth != self.cm.depth() || rep.width != self.cm.width() {
            return false;
        }
        self.cm.merge_cells(rep.cm_cells(), rep.bytes);
        self.lsb.merge_cells(rep.lsb_cells(), rep.bytes);
        scratch.clear();
        scratch.extend(rep.keys());
        scratch.sort_unstable();
        scratch.dedup();
        union_sorted(&mut self.keys, scratch);
        self.frames += rep.frames;
        self.bytes += rep.bytes;
        self.epochs += 1;
        true
    }
}

/// Union the ascending, duplicate-free `new` into the ascending,
/// duplicate-free `keys` in place: one forward pass counts the keys not
/// yet present, then one backward merge fills the tail grown by exactly
/// that many. A report that brings no new key costs the count alone.
fn union_sorted(keys: &mut Vec<u64>, new: &[u64]) {
    let mut fresh = 0;
    let mut i = 0;
    for &k in new {
        while i < keys.len() && keys[i] < k {
            i += 1;
        }
        fresh += usize::from(keys.get(i) != Some(&k));
    }
    let (mut i, mut j) = (keys.len(), new.len());
    keys.resize(i + fresh, 0);
    let mut w = keys.len();
    // w - i is the number of fresh keys left in new[..j]: once it is 0
    // the rest of `new` is already in keys[..i], which never moves
    while w > i {
        w -= 1;
        let k = new[j - 1];
        if i > 0 && keys[i - 1] >= k {
            if keys[i - 1] == k {
                j -= 1;
            }
            i -= 1;
            keys[w] = keys[i];
        } else {
            j -= 1;
            keys[w] = k;
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::sketch::{KeyTable, LOG_CAP};

    /// The eager reference: every update goes straight into the dense
    /// sketches and the key table, per frame, and `encode` writes the
    /// wire format from them independently of `encode_sweep`.
    pub(crate) struct Eager {
        pub cfg: SketchCfg,
        pub cm: CountMin,
        pub lsb: LsbSketch,
        pub keys: KeyTable,
        pub frames: u64,
        pub bytes: u64,
    }

    impl Eager {
        pub fn new(cfg: SketchCfg) -> Eager {
            Eager {
                cfg,
                cm: CountMin::new(&cfg),
                lsb: LsbSketch::new(&cfg),
                keys: KeyTable::new(&cfg),
                frames: 0,
                bytes: 0,
            }
        }

        pub fn update(&mut self, basis: u64, len: u64) {
            self.cm.update(basis, len);
            self.lsb.update(basis, len);
            self.keys.insert_hashed(basis, mix64(basis));
            self.frames += 1;
            self.bytes += len;
        }

        /// The report this epoch must produce; empties the reference.
        pub fn encode(&mut self, switch: u32, epoch: u32) -> Vec<u8> {
            let keys: Vec<u64> = self.keys.keys().collect();
            let mut words = vec![
                REPORT_MAGIC,
                (switch as u64) << 32 | epoch as u64,
                self.frames,
                self.bytes,
                self.cfg.depth as u64,
                self.cfg.width as u64,
                self.lsb.share_shift() as u64,
            ];
            words.extend(self.cm.cells().iter().chain(self.lsb.cells()));
            words.push(keys.len() as u64);
            words.extend(keys);
            let out = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            *self = Eager::new(self.cfg);
            out
        }
    }

    fn cfg() -> SketchCfg {
        SketchCfg {
            depth: 2,
            width: 128,
            key_slots: 32,
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut s = SwitchSketch::new(cfg());
        let mut eager = Eager::new(cfg());
        for k in 1..=40u64 {
            s.update(k * 0x1234_5678_9abc, 64 * k);
            eager.update(k * 0x1234_5678_9abc, 64 * k);
        }
        let (frames, bytes) = (s.frames, s.bytes);
        assert_eq!((frames, bytes), (eager.frames, eager.bytes));
        let cm_before = eager.cm.cells().to_vec();
        let lsb_before = eager.lsb.cells().to_vec();
        let keys_before: Vec<u64> = eager.keys.keys().collect();
        let mut buf = Vec::new();
        s.encode_sweep(3, 17, &mut buf);
        assert_eq!(buf, eager.encode(3, 17), "the render is the eager sketch");
        // sweep resets the live sketch: the next epoch reports nothing
        assert_eq!((s.frames, s.bytes), (0, 0));
        let mut next = Vec::new();
        s.encode_sweep(3, 18, &mut next);
        let empty = ReportView::parse(&next).expect("decodes");
        assert_eq!((empty.frames, empty.bytes), (0, 0));
        assert!(empty.cm_cells().all(|c| c == 0));
        assert!(empty.lsb_cells().all(|c| c == 0));
        assert_eq!(empty.keys().count(), 0);
        assert_eq!(next, eager.encode(3, 18));
        let rep = ReportView::parse(&buf).expect("decodes");
        assert_eq!((rep.switch, rep.epoch), (3, 17));
        assert_eq!((rep.frames, rep.bytes), (frames, bytes));
        assert_eq!(rep.cm_cells().collect::<Vec<_>>(), cm_before);
        assert_eq!(rep.lsb_cells().collect::<Vec<_>>(), lsb_before);
        assert!(!keys_before.is_empty());
        assert_eq!(rep.keys().collect::<Vec<_>>(), keys_before);
        let words = HEADER_WORDS + 2 * cm_before.len() + 1 + keys_before.len();
        assert_eq!(buf.len(), 8 * words, "no slack after the key table");
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(ReportView::parse(&[]).is_none());
        assert!(ReportView::parse(&[0u8; 64]).is_none());
        let mut s = SwitchSketch::new(cfg());
        s.update(9, 9);
        let mut buf = Vec::new();
        s.encode_sweep(0, 0, &mut buf);
        buf.truncate(buf.len() - 3);
        assert!(ReportView::parse(&buf).is_none());
    }

    #[test]
    fn merged_view_matches_single_stream() {
        let c = cfg();
        let mut live = SwitchSketch::new(c);
        let mut whole = Eager::new(c);
        let mut view = MergedView::new(&c);
        let (mut buf, mut scratch) = (Vec::new(), Vec::new());
        for epoch in 0..3u32 {
            for k in 1..=30u64 {
                let key = k.wrapping_mul(0x9E37_79B9) + epoch as u64;
                live.update(key, k);
                whole.update(key, k);
            }
            live.encode_sweep(0, epoch, &mut buf);
            let rep = ReportView::parse(&buf).unwrap();
            assert!(view.absorb(&rep, &mut scratch));
        }
        assert_eq!(view.cm.cells(), whole.cm.cells());
        assert_eq!(view.lsb.cells(), whole.lsb.cells());
        assert_eq!(view.frames, whole.frames);
        assert_eq!(view.epochs, 3);
    }

    #[test]
    fn absorb_rejects_shape_mismatch() {
        let mut s = SwitchSketch::new(SketchCfg {
            depth: 3,
            width: 256,
            key_slots: 32,
        });
        s.update(5, 5);
        let mut buf = Vec::new();
        s.encode_sweep(0, 0, &mut buf);
        let rep = ReportView::parse(&buf).unwrap();
        let mut view = MergedView::new(&cfg());
        assert!(!view.absorb(&rep, &mut Vec::new()));
        assert_eq!(view.epochs, 0);
        assert!(view.keys.is_empty());
        assert!(view.cm.cells().iter().all(|&c| c == 0));
    }

    /// Counter-mode generator over `mix64`.
    struct Rng(u64);
    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 += 1;
            mix64(self.0) % n
        }
    }

    /// A shape drawn from depth 1..=8, width 2..=4096, key_slots
    /// 1..=4096.
    fn random_shape(rng: &mut Rng) -> SketchCfg {
        SketchCfg {
            depth: 1 + rng.below(8) as usize,
            width: 2 << rng.below(12),
            key_slots: 1 << rng.below(13),
        }
    }

    /// Differential: over random shapes and random multi-epoch streams,
    /// merging every epoch's report gives exactly the sketch of the
    /// whole stream, and the key union is the sorted, duplicate-free
    /// union of the per-epoch key tables.
    #[test]
    fn merge_equals_union_stream_on_random_shapes() {
        let mut rng = Rng(0x7E1E);
        let (mut buf, mut scratch) = (Vec::new(), Vec::new());
        for _ in 0..48 {
            let cfg = random_shape(&mut rng);
            let mut live = SwitchSketch::new(cfg);
            let mut epoch_ref = Eager::new(cfg);
            let mut whole = Eager::new(cfg);
            let mut view = MergedView::new(&cfg);
            let mut key_union = BTreeSet::new();
            // a key space around the table's size, so epochs share keys
            // and keys collide in the table
            let space = 1 + rng.below(4 * cfg.key_slots as u64 + 16);
            let epochs = 1 + rng.below(5) as u32;
            for epoch in 0..epochs {
                for _ in 0..rng.below(3 * cfg.key_slots as u64 + 8) {
                    // key 0 marks an empty key-table slot
                    let (key, len) = (1 + rng.below(space), 1 + rng.below(1500));
                    live.update(key, len);
                    epoch_ref.update(key, len);
                    whole.update(key, len);
                }
                key_union.extend(epoch_ref.keys.keys());
                epoch_ref = Eager::new(cfg);
                live.encode_sweep(1, epoch, &mut buf);
                let rep = ReportView::parse(&buf).expect("a sweep parses");
                assert!(view.absorb(&rep, &mut scratch), "{cfg:?}");
            }
            assert_eq!(view.cm.cells(), whole.cm.cells(), "{cfg:?}: count-min");
            assert_eq!(view.lsb.cells(), whole.lsb.cells(), "{cfg:?}: lsb");
            assert_eq!(view.cm.total(), whole.cm.total());
            assert_eq!(view.lsb.total(), whole.lsb.total());
            assert_eq!(view.keys, key_union.into_iter().collect::<Vec<_>>());
            assert_eq!(
                (view.frames, view.bytes, view.epochs),
                (whole.frames, whole.bytes, epochs)
            );
        }
    }

    /// Differential for the render: on random shapes and random
    /// multi-epoch streams, every `encode_sweep` is byte for byte the
    /// report of the eager reference fed the same frames. Epoch sizes
    /// straddle the log capacity (none, one and two folds), and a switch
    /// kill (`reset`) lands mid-epoch, before or after a fold.
    #[test]
    fn sweep_renders_the_eager_sketch_on_random_shapes() {
        let mut rng = Rng(0x5EED);
        let mut buf = Vec::new();
        let sizes = |rng: &mut Rng| match rng.below(6) {
            0 => 0,
            1 => LOG_CAP as u64,
            2 => LOG_CAP as u64 + 1,
            3 => 2 * LOG_CAP as u64 + 1 + rng.below(64),
            _ => rng.below(LOG_CAP as u64),
        };
        let (mut folds, mut kills) = (0, 0);
        for _ in 0..24 {
            let cfg = random_shape(&mut rng);
            let mut live = SwitchSketch::new(cfg);
            let mut eager = Eager::new(cfg);
            let space = 1 + rng.below(4 * cfg.key_slots as u64 + 16);
            for epoch in 0..1 + rng.below(4) as u32 {
                let n = sizes(&mut rng);
                let kill_at = (rng.below(4) == 0).then(|| rng.below(n + 1));
                for i in 0..n {
                    if kill_at == Some(i) {
                        live.reset();
                        eager = Eager::new(cfg);
                        kills += 1;
                    }
                    let (key, len) = (1 + rng.below(space), 1 + rng.below(1500));
                    live.update(key, len);
                    eager.update(key, len);
                }
                folds += usize::from(live.folded);
                live.encode_sweep(2, epoch, &mut buf);
                assert!(
                    buf == eager.encode(2, epoch),
                    "{cfg:?} epoch {epoch}: {n} frames"
                );
            }
        }
        assert!(
            folds > 0 && kills > 0,
            "{folds} folded epochs, {kills} kills"
        );
    }

    #[test]
    fn union_sorted_keeps_one_of_each() {
        let mut keys = vec![2, 4, 6, 8];
        union_sorted(&mut keys, &[1, 4, 5, 8, 9]);
        assert_eq!(keys, [1, 2, 4, 5, 6, 8, 9]);
        union_sorted(&mut keys, &[]);
        assert_eq!(keys, [1, 2, 4, 5, 6, 8, 9]);
        union_sorted(&mut keys, &[1, 2, 9]);
        assert_eq!(keys, [1, 2, 4, 5, 6, 8, 9]);
        let mut empty = Vec::new();
        union_sorted(&mut empty, &[3, 7]);
        assert_eq!(empty, [3, 7]);
    }
}
