//! Experiment harness library: the five sweep experiments (`paper`, the
//! tables and figures of §5, in `exp`; `cc`, `scale`, `faults`,
//! `telemetry`; topology building itself lives in `flextoe-topo`), and
//! the one driver, artifact writer and verifier they share. The
//! `flextoe-bench` binary is a thin subcommand dispatcher over this; the
//! integration suite reuses the harness directly.

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
