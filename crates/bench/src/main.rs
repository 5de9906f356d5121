//! FlexTOE reproduction experiment harness: five sweep experiments under
//! one driver — the paper's tables and figures (`paper`), the congested
//! fabric (`cc`), connection scalability (`scale`), the chaos plane
//! (`faults`) and sketch telemetry (`telemetry`) — and `verify`, which
//! re-runs all five against their committed artifacts (ARCHITECTURE.md
//! "Benchmarks").
//!
//! ```text
//! cargo run -p flextoe-bench --release -- all
//! cargo run -p flextoe-bench --release -- paper --smoke --out target
//! cargo run -p flextoe-bench --release -- scale --smoke --seed 17 --out target
//! cargo run -p flextoe-bench --release -- verify
//! ```

use flextoe_bench::cc::CcScale;
use flextoe_bench::cli::{Accepts, RunOpts};
use flextoe_bench::driver::{self, Experiment};
use flextoe_bench::exp::PaperPlan;
use flextoe_bench::faults::FaultsPlan;
use flextoe_bench::scale::ScalePlan;
use flextoe_bench::telemetry::TelemetryPlan;

/// A subcommand: its name, the options it accepts, how to run it.
type Entry = (&'static str, Accepts, fn(&RunOpts));

/// A sweep experiment's subcommand entry.
fn sweep<E: Experiment>() -> Entry {
    let shards = !E::SHARDS.is_empty();
    (E::NAME, Accepts::Sweep { shards }, driver::run::<E>)
}

fn verify(_: &RunOpts) {
    let failed = driver::verify::<PaperPlan>()
        + driver::verify::<CcScale>()
        + driver::verify::<ScalePlan>()
        + driver::verify::<FaultsPlan>()
        + driver::verify::<TelemetryPlan>();
    if failed > 0 {
        eprintln!("flextoe-bench verify: {failed} check(s) failed");
        std::process::exit(1);
    }
}

fn die(msg: &str) -> ! {
    eprintln!("flextoe-bench: {msg}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, names) = RunOpts::parse(&args).unwrap_or_else(|e| die(&e));
    let run_all = names.is_empty() || names.iter().any(|a| a == "all");
    // the long sweeps and the verifier only run on explicit request, not
    // under `all`; `paper` and `cc` (the §D congestion-control
    // evaluation) make up `all`
    let explicit_only = ["scale", "faults", "telemetry", "verify"];
    let want =
        |name: &str| names.iter().any(|a| a == name) || (run_all && !explicit_only.contains(&name));

    let experiments: &[Entry] = &[
        sweep::<PaperPlan>(),
        sweep::<CcScale>(),
        sweep::<ScalePlan>(),
        sweep::<FaultsPlan>(),
        sweep::<TelemetryPlan>(),
        ("verify", Accepts::Nothing, verify),
    ];

    let known = |n: &str| n == "all" || experiments.iter().any(|(name, ..)| *name == n);
    if let Some(unknown) = names.iter().find(|n| !known(n)) {
        eprintln!("unknown experiment {unknown}; available:");
        for (name, ..) in experiments {
            eprintln!("  {name}");
        }
        std::process::exit(2);
    }
    let selected: Vec<_> = experiments.iter().filter(|(name, ..)| want(name)).collect();
    // every selected experiment must accept the flags before any runs
    for (name, accepts, _) in &selected {
        opts.check(name, *accepts).unwrap_or_else(|e| die(&e));
    }
    for (name, _, run) in selected {
        let t0 = std::time::Instant::now();
        run(&opts);
        eprintln!("[{name} done in {:.1}s]\n", t0.elapsed().as_secs_f64());
    }
}
