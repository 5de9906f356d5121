//! The parallel experiment runner.
//!
//! Sweep points (scale's connection counts, cc's algorithms, the chaos
//! and telemetry rows) are independent simulations: each worker thread
//! builds its own `Sim` from the same seed and plan, so every point
//! computes exactly what it would have computed serially. Results are
//! collected **by input index**, which makes the merged output
//! deterministic regardless of completion order — `--jobs N` must produce
//! the BENCH body `--jobs 1` does, byte for byte (`flextoe-bench verify`
//! compares the two for every experiment).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads for `--jobs`' default: the machine's
/// available parallelism (1 if it cannot be determined).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Physical cores detected (distinct `(physical id, core id)` pairs in
/// `/proc/cpuinfo`), falling back to [`default_jobs`] when that can't
/// be read. Recorded in the BENCH host block so speedup rows from
/// SMT-less or 1-CPU containers are self-describing.
pub fn physical_cores() -> usize {
    let txt = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    // one blank-line-separated stanza per logical processor
    let field = |stanza: &str, key: &str| {
        let line = stanza.lines().find(|l| l.starts_with(key))?;
        line.split(':').nth(1)?.trim().parse::<u64>().ok()
    };
    let pairs: std::collections::HashSet<(u64, u64)> = txt
        .split("\n\n")
        .filter_map(|s| Some((field(s, "physical id")?, field(s, "core id")?)))
        .collect();
    match pairs.len() {
        0 => default_jobs(),
        n => n,
    }
}

/// Run `f(0..n)` on `jobs` worker threads and return the results in
/// input order. `f` must be independent per index (each call builds its
/// own `Sim`); panics in workers propagate to the caller.
pub fn run_indexed<T, F>(jobs: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let jobs = jobs.max(1).min(n.max(1));
    if jobs <= 1 || n <= 1 {
        return (0..n).map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = f(i);
                results.lock().unwrap()[i] = Some(out);
            });
        }
    });
    results
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|r| r.expect("worker completed every claimed index"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_input_order_regardless_of_jobs() {
        let serial = run_indexed(1, 17, |i| i * i);
        for jobs in [2, 4, 16, 64] {
            assert_eq!(run_indexed(jobs, 17, |i| i * i), serial, "jobs={jobs}");
        }
        assert_eq!(run_indexed(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed(0, 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn workers_actually_share_the_index_space() {
        use std::collections::HashSet;
        let ids = run_indexed(4, 32, |_| std::thread::current().id());
        let distinct: HashSet<_> = ids.into_iter().collect();
        // single-core machines may legitimately end up with one worker
        // doing everything; the contract is coverage, not spread
        assert!(!distinct.is_empty());
    }
}
