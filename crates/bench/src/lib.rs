//! Experiment harness library: the per-table/figure runners, the four
//! sweep experiments (`cc`, `scale`, `faults`, `telemetry`; topology
//! building itself lives in `flextoe-topo`), and the one driver, artifact
//! writer and verifier they share. The `flextoe-bench` binary is a thin
//! subcommand dispatcher over this; the integration suite reuses the
//! runners directly.

pub mod cc;
pub mod cli;
pub mod driver;
pub mod enginebench;
pub mod exp;
pub mod faults;
pub mod harness;
pub mod json;
pub mod par;
pub mod scale;
pub mod telemetry;
