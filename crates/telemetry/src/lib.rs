//! In-fabric sketch telemetry: per-switch fast-path sketches, epoch
//! reports, collector-side merged views, and ground-truth differential
//! metrics.
//!
//! Two sketch families run side by side on every telemetry-enabled
//! switch, both fed from the *same* flow key (`flextoe-wire`'s
//! `FrameMeta::flow_basis`, from the switch's one parse per hop) so the
//! sketch adds no parse and no allocation to forwarding:
//!
//! - [`CountMin`] — the classic count-min sketch with per-row
//!   multiply-shift indexing (one multiply + shift per row, no fresh
//!   hash of the key material).
//! - [`LsbSketch`] — an LSB-sharing / locality-sensitive variant after
//!   arXiv:1905.03113 and arXiv:2503.11777: a *single* 64-bit mix of
//!   the basis is computed once, and each row indexes an overlapping
//!   bit window of that one hash. Rows share low bits (hence the
//!   name), which makes the per-update cost one mix regardless of
//!   depth and makes row indices of one key *correlated* — the trade
//!   the papers study for resilient monitoring.
//!
//! A switch's [`SwitchSketch`] only logs each frame's update; the sweep
//! renders the epoch's cells into a flat report and resets the sketch
//! in the same pass ([`SwitchSketch::encode_sweep`]). Reports travel
//! the simulated fabric as pooled frames; the collector reads each in place through a
//! bounds-checked [`ReportView`] and [`MergedView::absorb`]s it cell by
//! cell, with no decoded copy. Accuracy against sim ground truth is
//! scored by [`score_sketch`] (ARE + heavy-hitter recall/precision).

mod metrics;
mod report;
mod sketch;

pub use metrics::{heavy_hitters, score_sketch, SketchScore};
pub use report::{MergedView, ReportView, REPORT_MAGIC};
pub use sketch::{mix64, CountMin, KeyTable, LsbSketch, SketchCfg, SwitchSketch};
