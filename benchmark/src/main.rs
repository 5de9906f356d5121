//! The repo benchmark. See `README.md` beside this package for the metric
//! and workload tables; `run.sh` builds and runs this program.
//!
//! One process is the *parent*: it runs every repetition ("round") of a
//! workload in a single-threaded *child* process of its own (`child`
//! sub-command), one at a time, and reduces the children's records to
//! metrics. Two ways in:
//!
//! * driver mode — `--workload W --seed N --seconds S --trace 0|1`: one
//!   workload, rounds until `S` seconds are used, one JSON object on the
//!   last line of stdout;
//! * full mode — everything else: all workloads round-robin for
//!   `--rounds R`, a traced run each, the kernels, every metric printed
//!   as `workload metric value unit`, `results.json` and
//!   `trace-<workload>.json` written to `--out`.

mod alloc;
mod calib;
mod child;
mod estimator;
mod kernels;
mod record;
mod rollup;
mod schema;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use estimator::{median, quartiles, slice_floor_ns, total_ns, total_raw_ns};
use record::Record;
use schema::{json_num, json_str, E2E};
use workloads::{derive_seed, Spec, SPECS};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Independent seeds ("replicas") each workload is measured on inside one
/// run. The driver compares runs made on *different* seeds, so a
/// single-seed reading carries the workload's whole seed-to-seed
/// variation (11% on the lossy incast's tail latency); the median over
/// four replicas halves it, and the rounds are shared between them.
const REPLICAS: usize = 4;

/// Rounds of the full mode: eight per replica.
const DEFAULT_ROUNDS: usize = 32;

/// Engine knobs that change what is measured; the run refuses to start
/// with any of them set.
const FORBIDDEN_ENV: [&str; 3] = [
    "FLEXTOE_SIM_REFERENCE",
    "FLEXTOE_SIM_NOBURST",
    "FLEXTOE_SIM_PROF",
];

// ---- children ---------------------------------------------------------------

/// Run this program again as a child with `args`, wait for it, and parse
/// the record it prints.
fn spawn(args: &[String]) -> Result<Record, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .output()
        .map_err(|e| format!("spawn child {args:?}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "child {args:?} failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Record::parse(&String::from_utf8_lossy(&out.stdout))
}

fn spawn_round(spec: &Spec, seed: u64, traced: bool) -> Result<Record, String> {
    spawn(&[
        "child".to_string(),
        spec.name.to_string(),
        seed.to_string(),
        (traced as u8).to_string(),
    ])
}

/// The `child` sub-command: one repetition, record on stdout.
fn child_main(args: &[String], t0: Instant) -> Result<(), String> {
    let [name, seed, traced] = args else {
        return Err("usage: child <workload> <seed> <0|1>".to_string());
    };
    let spec = workloads::spec(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed: u64 = seed.parse().map_err(|_| format!("bad seed {seed}"))?;
    let rec = child::run(spec, seed, traced == "1", t0)?;
    print!("{}", rec.to_text());
    Ok(())
}

/// The `kernels` sub-command: time every kernel, record on stdout.
fn kernels_main(t0: Instant) {
    let mut log = child::SpanLog::new(t0);
    let mut rec = Record::default();
    for (name, v) in kernels::run(&mut log) {
        rec.set(&format!("kernel.{name}"), v);
    }
    rec.spans = log.spans;
    print!("{}", rec.to_text());
}

// ---- collecting rounds ------------------------------------------------------

/// One replica of a workload: its seed and the rounds measured on it.
struct Replica {
    seed: u64,
    rounds: Vec<Record>,
}

struct Samples {
    spec: &'static Spec,
    replicas: Vec<Replica>,
}

enum Budget {
    Rounds(usize),
    /// Stop once this many seconds are used (never before every replica
    /// has two rounds).
    Seconds(f64),
}

/// Run rounds round-robin over `specs` (so each workload's samples span
/// the whole run) and, within a workload, round-robin over its replicas.
fn collect(specs: &[&'static Spec], seed: u64, budget: Budget) -> Result<Vec<Samples>, String> {
    let mut all: Vec<Samples> = specs
        .iter()
        .map(|&spec| Samples {
            spec,
            replicas: (0..REPLICAS)
                .map(|i| Replica {
                    seed: derive_seed(seed, 100 + i as u64),
                    rounds: Vec::new(),
                })
                .collect(),
        })
        .collect();
    let started = Instant::now();
    let mut round = 0usize;
    loop {
        let done = match budget {
            Budget::Rounds(r) => round >= r,
            Budget::Seconds(s) => {
                let used = started.elapsed().as_secs_f64();
                // stop when one more round would overrun
                round >= 2 * REPLICAS && used + used / round as f64 > s
            }
        };
        if done {
            return Ok(all);
        }
        for samples in &mut all {
            let replica = &mut samples.replicas[round % REPLICAS];
            let rec = spawn_round(samples.spec, replica.seed, false)?;
            replica.rounds.push(rec);
        }
        round += 1;
        eprintln!(
            "[benchmark] round {round} done at {:.1}s",
            started.elapsed().as_secs_f64()
        );
    }
}

// ---- reducing rounds to end-to-end metrics ----------------------------------

/// The simulated-clock metrics: every round of one replica, traced or
/// not, must agree on them to the bit.
const EXACT: [&str; 6] = [
    "sim_rps",
    "sim_goodput_gbps",
    "sim_lat_p50_us",
    "sim_lat_tail_us",
    "sim_jain",
    "ok_frac",
];

/// How far `allocs_per_req` may differ between rounds of one seed. It
/// would be exact, but `nfp::cam::LruCache` keeps a std `HashMap` with a
/// per-process random hasher on the connection-state path: tombstones
/// land differently from process to process, so now and then a round
/// rehashes once more or less (one allocation in ~260k).
const ALLOC_TOLERANCE: f64 = 1e-3;

struct Reduced {
    /// `(metric, value)` in [`E2E`] order.
    e2e: Vec<(&'static str, f64)>,
    attempted: u64,
    failed: u64,
    /// Correctness checks that did not hold (empty = correct).
    problems: Vec<String>,
    rounds: usize,
    /// Whole-run host seconds of every round as the clock read them, for
    /// the raw spread beside the normalised floor.
    run_totals_s: Vec<f64>,
    /// Each replica's slice floor, seconds.
    floors_s: Vec<f64>,
}

/// Fails only when rounds of one seed did different work slice by slice:
/// then there is no floor, hence no `host_run_s` to report.
fn reduce(samples: &Samples) -> Result<Reduced, String> {
    let name = samples.spec.name;
    let mut problems = Vec::new();
    let mut floors_s = Vec::new();
    let mut exact: Vec<Vec<f64>> = vec![Vec::new(); EXACT.len()];
    let mut allocs = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut setups, mut rss, mut run_totals_s) = (Vec::new(), Vec::new(), Vec::new());
    for (i, rep) in samples.replicas.iter().enumerate() {
        let first = &rep.rounds[0];
        for (k, metric) in EXACT.iter().enumerate() {
            let key = format!("e2e.{metric}");
            let v = first.get(&key);
            if rep
                .rounds
                .iter()
                .any(|r| r.get(&key).to_bits() != v.to_bits())
            {
                problems.push(format!(
                    "{name} replica {i}: {metric} differs between rounds of one seed"
                ));
            }
            exact[k].push(v);
        }
        let per_round: Vec<f64> = rep
            .rounds
            .iter()
            .map(|r| r.get("e2e.allocs_per_req"))
            .collect();
        let typical = median(&per_round);
        if per_round
            .iter()
            .any(|a| (a - typical).abs() > ALLOC_TOLERANCE * typical)
        {
            problems.push(format!(
                "{name} replica {i}: allocs_per_req differs between rounds of one seed"
            ));
        }
        allocs.push(typical);
        let floor_ns = slice_floor_ns(rep.rounds.iter().map(|r| &r.slices))
            .map_err(|e| format!("{name} replica {i}: {e}"))?;
        floors_s.push(floor_ns as f64 / 1e9);
        let setup_ns = slice_floor_ns(rep.rounds.iter().map(|r| &r.setup_slices))
            .map_err(|e| format!("{name} replica {i} set-up: {e}"))?;
        setups.push(setup_ns as f64 / 1e9);
        attempted += first.get("aux.attempted") as u64;
        failed += first.get("aux.failed") as u64;
        if first.get("aux.bad_frames") != 0.0 {
            problems.push(format!("{name} replica {i}: server saw bad frames"));
        }
        if first.get("aux.samples_beyond_tail") < 10.0 {
            problems.push(format!(
                "{name} replica {i}: fewer than 10 samples beyond the {}",
                samples.spec.tail_label
            ));
        }
        if let Some(&b) = first.scalars.get("aux.buf_balance") {
            if b != 0.0 {
                problems.push(format!(
                    "{name} replica {i}: {b} buffers unaccounted for after the drain"
                ));
            }
        }
        for r in &rep.rounds {
            rss.push(r.get("host.peak_rss_mb"));
            run_totals_s.push(total_raw_ns(&r.slices) as f64 / 1e9);
        }
    }
    if failed > 0 {
        problems.push(format!("{name}: {failed} of {attempted} requests failed"));
    }
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let sim = |metric: &str| median(&exact[EXACT.iter().position(|m| *m == metric).unwrap()]);
    let e2e = E2E
        .iter()
        .map(|m| {
            let v = match m.name {
                "setup_s" => mean(&setups),
                "host_run_s" => mean(&floors_s),
                "host_peak_rss_mb" => median(&rss),
                "allocs_per_req" => median(&allocs),
                other => sim(other),
            };
            (m.name, v)
        })
        .collect();
    Ok(Reduced {
        e2e,
        attempted,
        failed,
        problems,
        rounds: run_totals_s.len(),
        run_totals_s,
        floors_s,
    })
}

// ---- the traced run and the per-layer metrics -------------------------------

struct Traced {
    /// `(metric, value, unit)` in `schema::per_layer()` order.
    metrics: Vec<(String, f64, &'static str)>,
    problems: Vec<String>,
    /// Text of `trace-<workload>.json`.
    trace_json: String,
}

/// One traced run of replica 0 (engine profiler and telemetry ground
/// truth on — both observational), rolled up into the per-layer metrics.
fn trace(samples: &Samples, reduced: &Reduced, kernels: &Record) -> Result<Traced, String> {
    let spec = samples.spec;
    let rep = &samples.replicas[0];
    let untraced = &rep.rounds[0];
    let rec = spawn_round(spec, rep.seed, true)?;
    let mut problems = Vec::new();
    for metric in EXACT {
        let key = format!("e2e.{metric}");
        if rec.get(&key).to_bits() != untraced.get(&key).to_bits() {
            problems.push(format!(
                "{}: traced run changed {metric} ({} vs {})",
                spec.name,
                rec.get(&key),
                untraced.get(&key)
            ));
        }
    }

    // node ns are raw clock readings, so shares are taken of raw time
    let traced_ns = total_raw_ns(&rec.slices);
    let requests = rec.get("aux.measured");
    let rows = rollup::roll_up(&rec.nodes, traced_ns);
    let mut metrics = rollup::layer_metrics(&rows, traced_ns, requests);

    let floor_s = reduced.floors_s[0];
    let totals: Vec<f64> = rep
        .rounds
        .iter()
        .map(|r| total_ns(&r.slices) as f64)
        .collect();
    let bursts: u64 = rec.bursts.iter().map(|b| b.1).sum();
    let singletons: u64 = rec.bursts.iter().filter(|b| b.0 == 1).map(|b| b.1).sum();
    let top_kind = rec.kinds.iter().map(|k| k.1).max().unwrap_or(0);
    let builds: Vec<f64> = samples
        .replicas
        .iter()
        .flat_map(|r| &r.rounds)
        .map(|r| r.get("host.topo_build_s"))
        .collect();
    for (name, unit, _) in schema::SIM_EXTRAS {
        let v = match name {
            "sim.host_events_per_s" => untraced.get("aux.events") / floor_s,
            "sim.burst_singleton_frac" => singletons as f64 / bursts.max(1) as f64,
            "sim.msg_kind_top" => top_kind as f64 / requests,
            // one traced run against the typical untraced one
            "sim.trace_overhead_frac" => total_ns(&rec.slices) as f64 / median(&totals) - 1.0,
            "topo.build_s" => median(&builds),
            "topo.nodes" => rec.get("aux.topo_nodes"),
            other => unreachable!("no rule for {other}"),
        };
        metrics.push((name.to_string(), v, unit));
    }
    for (name, unit, _) in schema::LAYER_COUNTS {
        metrics.push((name.to_string(), rec.get(&format!("layer.{name}")), unit));
    }
    for (name, unit) in kernels::KERNELS {
        metrics.push((
            name.to_string(),
            kernels.get(&format!("kernel.{name}")),
            unit,
        ));
    }

    let trace_json = trace_json(spec, rep.seed, &rec, kernels);
    Ok(Traced {
        metrics,
        problems,
        trace_json,
    })
}

fn trace_json(spec: &Spec, seed: u64, rec: &Record, kernels: &Record) -> String {
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let spans = |r: &Record| {
        list(
            r.spans
                .iter()
                .map(|s| {
                    format!(
                        "{{\"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}}}",
                        json_str(&s.name),
                        s.start_ns,
                        s.end_ns,
                        json_str(&s.parent)
                    )
                })
                .collect(),
        )
    };
    format!(
        "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"spans\": {},\n  \"kernel_spans\": {},\n  \
         \"nodes\": {},\n  \"msg_kinds\": {},\n  \"burst_hist\": {}\n}}\n",
        json_str(spec.name),
        seed,
        spans(rec),
        spans(kernels),
        list(
            rec.nodes
                .iter()
                .map(|(n, ns, ev)| format!(
                    "{{\"name\": {}, \"ns\": {ns}, \"events\": {ev}}}",
                    json_str(n)
                ))
                .collect()
        ),
        list(
            rec.kinds
                .iter()
                .map(|(k, n)| format!("{{\"kind\": {}, \"events\": {n}}}", json_str(k)))
                .collect()
        ),
        list(
            rec.bursts
                .iter()
                .map(|(len, n)| format!("{{\"len\": {len}, \"bursts\": {n}}}"))
                .collect()
        ),
    )
}

fn write_file(dir: &Path, name: &str, text: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

// ---- driver mode ------------------------------------------------------------

/// `{"name": {"value": v, "unit": "u"}, ...}`
fn metrics_object<'a>(metrics: impl Iterator<Item = (&'a str, f64, &'a str)>) -> String {
    let items: Vec<String> = metrics
        .map(|(name, v, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(v),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

fn driver_main(opts: &Opts) -> Result<(), String> {
    let name = opts
        .workload
        .as_deref()
        .expect("driver mode has a workload");
    let spec = workloads::spec(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seconds = opts.seconds.unwrap_or(schema::RUN_SECONDS as f64);
    // a traced run costs about two rounds and the kernels one more
    let budget = if opts.trace { seconds - 4.0 } else { seconds };
    let samples = collect(&[spec], opts.seed, Budget::Seconds(budget.max(1.0)))?
        .pop()
        .expect("one workload in, one out");
    let reduced = reduce(&samples)?;
    let q = quartiles(&reduced.run_totals_s);
    eprintln!(
        "[benchmark] {name}: {} rounds; whole runs q1 {:.4} median {:.4} q3 {:.4} s",
        reduced.rounds, q[0], q[1], q[2]
    );
    let mut problems = reduced.problems.clone();
    let metrics = if opts.trace {
        let kernels = spawn(&["kernels".to_string()])?;
        let traced = trace(&samples, &reduced, &kernels)?;
        write_file(&opts.out, &format!("trace-{name}.json"), &traced.trace_json)?;
        problems.extend(traced.problems);
        metrics_object(traced.metrics.iter().map(|(n, v, u)| (n.as_str(), *v, *u)))
    } else {
        metrics_object(
            reduced
                .e2e
                .iter()
                .map(|&(n, v)| (n, v, schema::e2e(n).unit)),
        )
    };
    for p in &problems {
        eprintln!("[benchmark] FAILED CHECK: {p}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        problems.is_empty(),
        reduced.attempted.max(1),
        reduced.failed,
        metrics
    );
    Ok(())
}

// ---- full mode --------------------------------------------------------------

struct WorkloadResult {
    spec: &'static Spec,
    reduced: Reduced,
    traced: Traced,
}

/// One full set: every selected workload's rounds, traced run and the
/// kernels.
fn full_set(
    specs: &[&'static Spec],
    seed: u64,
    rounds: usize,
) -> Result<Vec<WorkloadResult>, String> {
    let all = collect(specs, seed, Budget::Rounds(rounds))?;
    eprintln!("[benchmark] kernels and traced runs");
    let kernels = spawn(&["kernels".to_string()])?;
    all.iter()
        .map(|samples| {
            let reduced = reduce(samples)?;
            let traced = trace(samples, &reduced, &kernels)?;
            Ok(WorkloadResult {
                spec: samples.spec,
                reduced,
                traced,
            })
        })
        .collect()
}

fn results_json(opts: &Opts, rounds: usize, results: &[WorkloadResult]) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"seed\": {},\n", opts.seed));
    s.push_str(&format!(
        "  \"rounds\": {rounds},\n  \"replicas\": {REPLICAS},\n"
    ));
    s.push_str(
        "  \"model_validation\": \"unvalidated: the repo holds no machine-readable paper \
         reference values, so no accuracy figure is given\",\n",
    );
    s.push_str("  \"workloads\": {\n");
    for (i, r) in results.iter().enumerate() {
        let q = quartiles(&r.reduced.run_totals_s);
        s.push_str(&format!(
            "    {}: {{\n      \"why\": {},\n      \"load\": {},\n      \"rounds\": {},\n      \
             \"attempted\": {},\n      \"failed\": {},\n      \"failed_checks\": [{}],\n      \
             \"host_run_whole_runs_s\": {{\"q1\": {}, \"median\": {}, \"q3\": {}}},\n      \
             \"end_to_end\": {},\n      \"per_layer\": {}\n    }}{}\n",
            json_str(r.spec.name),
            json_str(r.spec.why),
            json_str(r.spec.load),
            r.reduced.rounds,
            r.reduced.attempted,
            r.reduced.failed,
            r.reduced
                .problems
                .iter()
                .chain(&r.traced.problems)
                .map(|p| json_str(p))
                .collect::<Vec<_>>()
                .join(", "),
            json_num(q[0]),
            json_num(q[1]),
            json_num(q[2]),
            metrics_object(
                r.reduced
                    .e2e
                    .iter()
                    .map(|&(n, v)| (n, v, schema::e2e(n).unit))
            ),
            metrics_object(
                r.traced
                    .metrics
                    .iter()
                    .map(|(n, v, u)| (n.as_str(), *v, *u))
            ),
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    s.push_str("  },\n  \"moves\": [\n");
    for (i, (metric, moves)) in schema::MOVES.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"layer_metric\": {}, \"moves\": {}}}{}\n",
            json_str(metric),
            json_str(moves),
            if i + 1 == schema::MOVES.len() {
                ""
            } else {
                ","
            }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

fn print_set(results: &[WorkloadResult]) {
    for r in results {
        let name = r.spec.name;
        for &(metric, v) in &r.reduced.e2e {
            println!("{name} {metric} {v} {}", schema::e2e(metric).unit);
        }
        let q = quartiles(&r.reduced.run_totals_s);
        println!("{name} host_run_whole_runs_q1_s {} s", q[0]);
        println!("{name} host_run_whole_runs_median_s {} s", q[1]);
        println!("{name} host_run_whole_runs_q3_s {} s", q[2]);
        for (metric, v, unit) in &r.traced.metrics {
            // kernels are workload-independent: print them once, below
            if !metric.contains(".kernel.") {
                println!("{name} {metric} {v} {unit}");
            }
        }
    }
    if let Some(r) = results.first() {
        for (metric, v, unit) in r.traced.metrics.iter().filter(|m| m.0.contains(".kernel.")) {
            println!("kernels {metric} {v} {unit}");
        }
    }
}

fn problems_of(results: &[WorkloadResult]) -> Vec<&String> {
    results
        .iter()
        .flat_map(|r| r.reduced.problems.iter().chain(&r.traced.problems))
        .collect()
}

/// Two sets back to back on the same build; a markdown table of every
/// workload x end-to-end metric with both values, their relative
/// difference and PASS/FAIL against the metric's bound. Metrics on the
/// simulated clock (and the allocation count) must match to the bit.
fn check_repeat(a: &[WorkloadResult], b: &[WorkloadResult]) -> bool {
    let mut ok = true;
    println!("| workload | metric | set 1 | set 2 | rel diff | bound | verdict |");
    println!("|---|---|---|---|---|---|---|");
    for (ra, rb) in a.iter().zip(b) {
        for (&(metric, va), &(_, vb)) in ra.reduced.e2e.iter().zip(&rb.reduced.e2e) {
            let m = schema::e2e(metric);
            let rel = (vb - va) / va;
            let exact = EXACT.contains(&metric);
            let pass = if exact {
                va.to_bits() == vb.to_bits()
            } else {
                rel.abs() <= m.bound
            };
            ok &= pass;
            println!(
                "| {} | {metric} | {va:.6} | {vb:.6} | {:+.2}% | {} | {} |",
                ra.spec.name,
                rel * 100.0,
                if exact {
                    "exact".to_string()
                } else {
                    format!("{}%", m.bound * 100.0)
                },
                if pass { "PASS" } else { "FAIL" }
            );
        }
    }
    ok
}

fn full_main(opts: &Opts) -> Result<bool, String> {
    let specs: Vec<&'static Spec> = match &opts.only {
        Some(name) => {
            vec![workloads::spec(name).ok_or_else(|| format!("unknown workload {name}"))?]
        }
        None => SPECS.iter().collect(),
    };
    let rounds = match (opts.rounds, opts.quick) {
        (Some(r), _) => r.max(REPLICAS),
        // quick: one round per replica — a smoke run, bounds mean nothing
        (None, true) => REPLICAS,
        (None, false) => DEFAULT_ROUNDS,
    };
    let started = Instant::now();
    let results = full_set(&specs, opts.seed, rounds)?;
    print_set(&results);
    write_file(
        &opts.out,
        "results.json",
        &results_json(opts, rounds, &results),
    )?;
    for r in &results {
        write_file(
            &opts.out,
            &format!("trace-{}.json", r.spec.name),
            &r.traced.trace_json,
        )?;
    }
    let mut ok = true;
    for p in problems_of(&results) {
        eprintln!("[benchmark] FAILED CHECK: {p}");
        ok = false;
    }
    if opts.check_repeat {
        let second = full_set(&specs, opts.seed, rounds)?;
        for p in problems_of(&second) {
            eprintln!("[benchmark] FAILED CHECK (set 2): {p}");
            ok = false;
        }
        println!();
        ok &= check_repeat(&results, &second);
    }
    eprintln!(
        "[benchmark] {} in {:.0}s; results in {}",
        if ok {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        },
        started.elapsed().as_secs_f64(),
        opts.out.display()
    );
    Ok(ok)
}

// ---- command line -----------------------------------------------------------

struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    rounds: Option<usize>,
    out: PathBuf,
    quick: bool,
    only: Option<String>,
    check_repeat: bool,
    emit_manifest: bool,
}

const USAGE: &str = "usage:
  run.sh --workload W --seed N --seconds S --trace 0|1     one workload, JSON on the last line
  run.sh [--seed N] [--rounds R] [--out DIR] [--quick] [--only W] [--check-repeat]
  run.sh --emit-benchmark-json
workloads: echo_pair fabric_flextoe fabric_tas incast_lossy";

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: 17,
        seconds: None,
        trace: false,
        rounds: None,
        out: PathBuf::from("benchmark/out"),
        quick: false,
        only: None,
        check_repeat: false,
        emit_manifest: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let bad = |v: &String| format!("bad value {v} for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?.clone()),
            "--only" => o.only = Some(value()?.clone()),
            "--out" => o.out = PathBuf::from(value()?),
            "--seed" => {
                let v = value()?;
                o.seed = v.parse().map_err(|_| bad(v))?;
            }
            "--rounds" => {
                let v = value()?;
                o.rounds = Some(v.parse().map_err(|_| bad(v))?);
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| bad(v))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad(v));
                }
                o.seconds = Some(s);
            }
            "--trace" => {
                let v = value()?;
                o.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(v)),
                };
            }
            "--quick" => o.quick = true,
            "--check-repeat" => o.check_repeat = true,
            "--emit-benchmark-json" => o.emit_manifest = true,
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(o)
}

fn main() -> ExitCode {
    let t0 = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    for var in FORBIDDEN_ENV {
        if std::env::var_os(var).is_some() {
            eprintln!("[benchmark] refusing to run with {var} set: it changes what is measured");
            return ExitCode::from(2);
        }
    }
    let outcome = match args.first().map(String::as_str) {
        Some("child") => child_main(&args[1..], t0).map(|()| true),
        Some("kernels") => {
            kernels_main(t0);
            Ok(true)
        }
        _ => parse_opts(&args).and_then(|opts| {
            if opts.emit_manifest {
                print!("{}", schema::benchmark_json());
                Ok(true)
            } else if opts.workload.is_some() {
                driver_main(&opts).map(|()| true)
            } else {
                full_main(&opts)
            }
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("[benchmark] {e}");
            ExitCode::from(2)
        }
    }
}
