//! The one experiment driver and the one verifier.
//!
//! A sweep experiment (`paper`, `cc`, `scale`, `faults`, `telemetry`) is
//! its plan: the plan type implements [`Experiment`] with its full and
//! smoke values, how to run one point, the fields of a row and the
//! invariants a row set must satisfy. Everything else happens here,
//! once: plan selection, the default seed, the timed parallel sweep, the
//! console table, and the two artifacts —
//!
//! * `BENCH_<name>.json`, the **body**: a pure function of seed and plan
//!   (`sim_events` included), byte-identical on any machine, for any
//!   `--jobs` / `--shards`, on the wheel and on the heap oracle;
//! * `BENCH_<name>.host.json`, the **host block**: wall time, thread
//!   counts and the shard synchronizer's counters — everything that
//!   depends on where and how the sweep ran.
//!
//! [`verify`] re-runs an experiment in-process and compares: row
//! invariants on the smoke and the full rows, the committed smoke body,
//! the `--jobs` / `--shards` identity matrix and the committed artifact
//! of record.

use std::time::Instant;

use flextoe_core::PoolGauges;
use flextoe_shard::SyncStats;

use crate::cli::RunOpts;
use crate::json::{fixed, Json};
use crate::par;

/// `Ok` if every `(condition, what it means when false)` holds, else an
/// error naming `subject` (a row, the host block) and the first failure.
pub fn holds(subject: impl std::fmt::Display, checks: &[(bool, &str)]) -> Result<(), String> {
    match checks.iter().find(|(ok, _)| !ok) {
        Some((_, what)) => Err(format!("{subject}: {what}")),
        None => Ok(()),
    }
}

/// The known-miss rule, shared by the paper's cells and the sweep rows:
/// a `claim` the model knowingly misses carries a one-line reason instead
/// of a wider band, and that reason must stay true. A claim that fails
/// without one, or holds with one, is an error naming `subject`, so a fix
/// flips its cell visibly instead of leaving a stale excuse behind.
pub fn expect(
    subject: impl std::fmt::Display,
    claim: &str,
    holds: bool,
    known_miss: Option<&str>,
) -> Result<(), String> {
    match (holds, known_miss) {
        (true, None) | (false, Some(_)) => Ok(()),
        (false, None) => Err(format!("{subject}: does not hold: {claim}")),
        (true, Some(why)) => Err(format!(
            "{subject}: holds, yet is recorded as a known miss ({why}); drop the reason: {claim}"
        )),
    }
}

/// `Ok` if every one of `required` is the `key` field of some row.
pub fn has_rows(rows: &[Json], key: &str, required: &[&str]) -> Result<(), String> {
    let present = |want: &&str| rows.iter().any(|r| r[key].as_str() == *want);
    match required.iter().find(|want| !present(want)) {
        Some(missing) => Err(format!("row {missing}: missing from the sweep")),
        None => Ok(()),
    }
}

/// What a sweep experiment's plan has to say for itself.
pub trait Experiment: Sized + Sync {
    /// Subcommand, and the `<name>` of `BENCH_<name>.json`.
    const NAME: &'static str;
    const TITLE: &'static str;
    /// Default `--seed`.
    const SEED: u64;
    /// Key of the row array in the body.
    const ROWS_KEY: &'static str;
    /// Row fields of the console table: space-separated dotted paths into
    /// the row object.
    const COLUMNS: &'static str;
    /// Shard counts [`verify`] proves byte-identical to the monolithic
    /// run. Empty: the experiment cannot shard, `--shards N > 1` is an error.
    const SHARDS: &'static [usize] = &[];

    type Point: Sync;

    /// The plan behind the artifact of record.
    fn full() -> Self;
    /// The shrunken CI plan (`--smoke`).
    fn smoke() -> Self;
    /// The independent sweep points, in row order.
    fn points(&self) -> Vec<Self::Point>;
    /// Run one point on its own `Sim`(s); the row must not depend on
    /// `shards`.
    fn run_point(&self, seed: u64, point: &Self::Point, shards: usize) -> PointRun;
    fn scenario_json(&self, seed: u64) -> Json;
    /// Invariants of a row set, smoke or full; the error names the
    /// offending row. A claim a row knowingly misses goes through
    /// [`expect`].
    fn check(rows: &[Json]) -> Result<(), String>;
    /// Work beyond the sweep (the `scale` fat-tree headline).
    fn extras(&self, _seed: u64) -> Extras {
        Extras::default()
    }
}

/// One finished sweep point.
pub struct PointRun {
    /// The row of the artifact, carrying the point's `sim_events`.
    pub row: Json,
    /// Every pool/cache gauge summed over the point's FlexTOE NICs (zero
    /// for a point without a fabric). The row publishes some of them; the
    /// mono-vs-sharded tests compare them all, because high-water marks
    /// and cache-hit splits are what a same-timestamp ordering bug in the
    /// sharded engine moves first.
    pub gauges: PoolGauges,
    /// The synchronizer's counters, if the point ran sharded.
    pub sync: Option<SyncStats>,
}

/// A point that ran on one `Sim` and harvested no NIC pools.
impl From<Json> for PointRun {
    fn from(row: Json) -> PointRun {
        PointRun {
            row,
            gauges: PoolGauges::default(),
            sync: None,
        }
    }
}

/// Top-level fields an experiment adds next to its sweep.
#[derive(Default)]
pub struct Extras {
    pub body: Vec<(&'static str, Json)>,
    pub host: Vec<(&'static str, Json)>,
}

/// One finished sweep.
pub struct Run {
    pub rows: Vec<Json>,
    /// The rendered deterministic body (`BENCH_<name>.json`).
    pub body: String,
    /// The host block (`BENCH_<name>.host.json`).
    pub host: Json,
}

/// Run `E`'s sweep: every point on its own `Sim`(s) built from `seed`,
/// fanned out over the `jobs` thread budget (default: all cores) with
/// `shards` threads per point, merged in plan order.
pub fn execute<E: Experiment>(seed: u64, smoke: bool, jobs: Option<usize>, shards: usize) -> Run {
    let plan = if smoke { E::smoke() } else { E::full() };
    let points = plan.points();
    let shards = shards.max(1);
    // shards × point workers stay within the `--jobs` thread budget
    let jobs = (jobs.unwrap_or_else(par::default_jobs) / shards).max(1);
    let t0 = Instant::now();
    let (rows, syncs): (Vec<Json>, Vec<Option<SyncStats>>) =
        par::run_indexed(jobs, points.len(), |i| {
            let point = plan.run_point(seed, &points[i], shards);
            (point.row, point.sync)
        })
        .into_iter()
        .unzip();
    let wall_secs = t0.elapsed().as_secs_f64();
    let extras = plan.extras(seed);

    let sim_events: u64 = rows.iter().map(|r| r["sim_events"].num() as u64).sum();
    let mut body = vec![
        ("benchmark", E::NAME.into()),
        ("scenario", plan.scenario_json(seed)),
        (E::ROWS_KEY, Json::Arr(rows.clone())),
    ];
    body.extend(extras.body);
    body.push(("sim_events", sim_events.into()));

    let sync_sum = |pick: fn(&SyncStats) -> u64| -> Json {
        syncs.iter().flatten().map(pick).sum::<u64>().into()
    };
    let mut host = vec![
        ("wall_secs", fixed(wall_secs, 3)),
        (
            "wall_events_per_sec",
            fixed(sim_events as f64 / wall_secs.max(1e-9), 0),
        ),
        ("jobs", jobs.into()),
        ("physical_cores", par::physical_cores().into()),
        ("shards", shards.into()),
        ("threads_total", (jobs * shards).into()),
        ("shard_windows", sync_sum(|s| s.windows)),
        ("shard_envelopes", sync_sum(|s| s.envelopes.iter().sum())),
        ("shard_blocked_ns", sync_sum(|s| s.blocked_ns.iter().sum())),
    ];
    host.extend(extras.host);
    Run {
        rows,
        body: Json::obj(body).render(),
        host: Json::obj(host),
    }
}

/// The `flextoe-bench <name>` subcommand: sweep, print, write both files.
pub fn run<E: Experiment>(opts: &RunOpts) {
    println!(
        "# {} — {}{}",
        E::NAME,
        E::TITLE,
        if opts.smoke { " [smoke]" } else { "" }
    );
    let run = execute::<E>(
        opts.seed.unwrap_or(E::SEED),
        opts.smoke,
        opts.jobs,
        opts.shards,
    );
    print_table(E::COLUMNS, &run.rows);
    println!("host: {}", run.host);
    let dir = opts.out_dir.clone().unwrap_or_default();
    std::fs::create_dir_all(&dir).expect("create --out directory");
    for (ext, text) in [("json", run.body), ("host.json", run.host.render())] {
        let path = dir.join(format!("BENCH_{}.{ext}", E::NAME));
        std::fs::write(&path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("wrote {}", path.display());
    }
}

/// The console table: one projection of the row objects, so a column can
/// never disagree with the artifact. Fields a row kind lacks print `-`.
fn print_table(columns: &str, rows: &[Json]) {
    let columns: Vec<&str> = columns.split(' ').collect();
    let header = columns
        .iter()
        .map(|c| c.rsplit('.').next().unwrap_or(c).to_string());
    let mut lines = vec![header.collect::<Vec<String>>()];
    lines.extend(rows.iter().map(|row| {
        columns
            .iter()
            .map(|&c| match &row[c] {
                Json::Null => "-".to_string(),
                Json::Str(s) => s.clone(),
                v => v.to_string(),
            })
            .collect()
    }));
    let width = |i: usize| lines.iter().map(|l| l[i].len()).max().unwrap_or(0);
    for line in &lines {
        let cells: Vec<String> = line
            .iter()
            .enumerate()
            .map(|(i, cell)| match i {
                0 => format!("{cell:<w$}", w = width(i)),
                _ => format!("{cell:>w$}", w = width(i)),
            })
            .collect();
        println!("{}", cells.join("  "));
    }
}

// ---- verify ----------------------------------------------------------------

/// Everything CI used to re-implement in shell and python, for one
/// experiment; returns the number of failed checks. Writes nothing; reads
/// the committed bodies relative to the current directory (the repo root).
/// Run under `FLEXTOE_SIM_REFERENCE=1` the same comparisons prove the heap
/// oracle reproduces the committed, wheel-produced bodies.
pub fn verify<E: Experiment>() -> usize {
    let mut failed = 0;
    let mut report = |what: &str, res: Result<(), String>| match res {
        Ok(()) => println!("ok    {}: {what}", E::NAME),
        Err(e) => {
            println!("FAIL  {}: {what}: {e}", E::NAME);
            failed += 1;
        }
    };
    let base = execute::<E>(E::SEED, true, Some(1), 1);
    report(
        "smoke row invariants",
        E::check(&base.rows).and_then(|()| check_host(&base.host, 1)),
    );
    let committed = format!("ci/smoke/BENCH_{}.json", E::NAME);
    report(
        &format!("smoke body == {committed}"),
        same_as_file(&committed, &base.body),
    );
    // the identity matrix: (--jobs, --shards) against the serial run
    let mut matrix = vec![(2, 1)];
    matrix.extend(E::SHARDS.iter().map(|&shards| (1, shards)));
    if !E::SHARDS.is_empty() {
        matrix.push((2, 2));
    }
    for (jobs, shards) in matrix {
        let run = execute::<E>(E::SEED, true, Some(jobs), shards);
        report(
            &format!("smoke --jobs {jobs} --shards {shards}: body == serial body, invariants"),
            same_text(&base.body, &run.body)
                .and_then(|()| E::check(&run.rows))
                .and_then(|()| check_host(&run.host, jobs.max(shards))),
        );
    }
    let record = format!("BENCH_{}.json", E::NAME);
    let full = execute::<E>(E::SEED, false, None, 1);
    report("full row invariants", E::check(&full.rows));
    report(
        &format!("full body == {record}"),
        same_as_file(&record, &full.body),
    );
    failed
}

/// The host block is self-consistent: time was measured, the threads
/// used are `jobs × shards` within the budget, and the synchronizer
/// counted windows exactly when the sweep ran sharded.
fn check_host(host: &Json, budget: usize) -> Result<(), String> {
    let n = |key: &str| host[key].num();
    let threads = n("threads_total");
    holds(
        format_args!("host block {host}"),
        &[
            (
                n("wall_secs") > 0.0 && n("physical_cores") >= 1.0,
                "measured nothing",
            ),
            (
                threads == n("jobs") * n("shards") && threads <= budget as f64,
                "jobs x shards is outside the thread budget",
            ),
            (
                (n("shards") > 1.0) == (n("shard_windows") > 0.0),
                "sync windows are counted exactly when sharded",
            ),
        ],
    )
}

fn same_as_file(path: &str, got: &str) -> Result<(), String> {
    let want = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {path} ({e}); run verify from the repo root"))?;
    same_text(&want, got)
}

/// `Ok` on string equality; otherwise the first differing line, cut down
/// to its row label and the text around the first differing column.
fn same_text(want: &str, got: &str) -> Result<(), String> {
    if want == got {
        return Ok(());
    }
    let n = want
        .lines()
        .zip(got.lines())
        .take_while(|(a, b)| a == b)
        .count();
    let (a, b) = (want.lines().nth(n), got.lines().nth(n));
    let (a, b) = (a.unwrap_or("<end of text>"), b.unwrap_or("<end of text>"));
    let at = a.bytes().zip(b.bytes()).take_while(|(x, y)| x == y).count();
    let excerpt = |line: &str| {
        let label = line.split(',').next().unwrap_or(line).trim_start();
        let window = at.saturating_sub(30)..(at + 30).min(line.len());
        format!("{label} ... {}", line.get(window).unwrap_or(line))
    };
    Err(format!(
        "line {}, column {}:\n        want {}\n        got  {}",
        n + 1,
        at + 1,
        excerpt(a),
        excerpt(b)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::ScalePlan;

    /// The body is a function of seed and plan alone: another `--jobs`
    /// value moves only the host block, and no host key leaks into it.
    #[test]
    fn body_does_not_change_with_jobs_or_host_values() {
        let serial = execute::<ScalePlan>(17, true, Some(1), 1);
        let parallel = execute::<ScalePlan>(17, true, Some(2), 1);
        assert_eq!(serial.body, parallel.body);
        assert_eq!(serial.host["jobs"].num(), 1.0);
        assert_eq!(parallel.host["jobs"].num(), 2.0);
        let Json::Obj(host_fields) = &serial.host else {
            panic!("host block is an object");
        };
        for (key, _) in host_fields {
            assert!(
                !serial.body.contains(&format!("\"{key}\"")),
                "host key {key} leaked into the body"
            );
        }
        check_host(&serial.host, 1).unwrap();
        check_host(&parallel.host, 2).unwrap();
        assert!(check_host(&parallel.host, 1).is_err(), "over budget");
    }

    #[test]
    fn same_text_names_the_first_differing_line() {
        let want = "{\n  \"rows\": [\n    {\"name\": \"spine-kill\", \"issued\": 4101, \"x\": 1}\n  ]\n}\n";
        assert_eq!(same_text(want, want), Ok(()));
        let err = same_text(want, &want.replace("4101", "4107")).unwrap_err();
        assert!(err.contains("line 3, column 41"), "{err}");
        assert!(err.contains("{\"name\": \"spine-kill\""), "{err}");
        let err = same_text(want, &want[..want.len() - 2]).unwrap_err();
        assert!(
            err.contains("line 5") && err.contains("<end of text>"),
            "{err}"
        );
    }
}
