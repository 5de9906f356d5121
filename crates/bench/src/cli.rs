//! The experiment CLI options. The sweep experiments (`paper`, `cc`,
//! `scale`, `faults`, `telemetry`) understand `--seed N`, `--out DIR`,
//! `--smoke` and `--jobs N`; the two that can shard also take
//! `--shards N`. `verify` is parameterless by design (it re-runs the
//! committed artifacts). A flag an experiment does not accept is an
//! error, never ignored.

use std::path::PathBuf;

#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunOpts {
    /// Simulation seed override (each experiment has its own default).
    pub seed: Option<u64>,
    /// Directory artifacts (`BENCH_*.json`) are written to (default: cwd).
    pub out_dir: Option<PathBuf>,
    /// Shrunken CI configuration.
    pub smoke: bool,
    /// Thread budget (default: available cores): sweep points run on
    /// `jobs / shards` workers. The BENCH body is byte-identical for any
    /// value.
    pub jobs: Option<usize>,
    /// Conservative-PDES shards per scenario (`scale` / `faults`). Any
    /// value produces byte-identical BENCH bodies; >1 partitions each
    /// fabric across that many worker threads.
    pub shards: usize,
}

/// What a subcommand declares it accepts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Accepts {
    /// No options at all (`verify`).
    Nothing,
    /// The sweep options, and `--shards N > 1` only if it can shard.
    Sweep { shards: bool },
}

impl RunOpts {
    /// Parse flags out of an argument list, returning the remaining
    /// positional arguments (experiment names).
    pub fn parse(args: &[String]) -> Result<(RunOpts, Vec<String>), String> {
        let mut opts = RunOpts {
            shards: 1,
            ..RunOpts::default()
        };
        let mut names = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--smoke" => opts.smoke = true,
                "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                    Some(v) => opts.seed = Some(v),
                    None => return Err("--seed needs an integer value".into()),
                },
                "--out" => match it.next() {
                    Some(v) => opts.out_dir = Some(PathBuf::from(v)),
                    None => return Err("--out needs a directory".into()),
                },
                "--jobs" => match it.next().and_then(|v| v.parse().ok()) {
                    Some(v) if v >= 1 => opts.jobs = Some(v),
                    _ => return Err("--jobs needs an integer >= 1".into()),
                },
                "--shards" => match it.next().and_then(|v| v.parse().ok()) {
                    Some(v) if v >= 1 => opts.shards = v,
                    _ => return Err("--shards needs an integer >= 1".into()),
                },
                flag if flag.starts_with("--") => {
                    return Err(format!(
                        "unknown flag {flag} (have: --seed N, --out DIR, --smoke, --jobs N, --shards N)"
                    ))
                }
                name => names.push(name.to_string()),
            }
        }
        Ok((opts, names))
    }

    /// `Err` with a one-line message if a flag was given that subcommand
    /// `name` does not accept (`--shards 1`, the default, is always fine).
    pub fn check(&self, name: &str, accepts: Accepts) -> Result<(), String> {
        // ordered so that what a subcommand accepts is a prefix
        let given = [
            ("--seed", self.seed.is_some()),
            ("--out", self.out_dir.is_some()),
            ("--smoke", self.smoke),
            ("--jobs", self.jobs.is_some()),
            ("--shards", self.shards > 1),
        ];
        let accepted = match accepts {
            Accepts::Nothing => 0,
            Accepts::Sweep { shards: false } => 4,
            Accepts::Sweep { shards: true } => 5,
        };
        match given[accepted..].iter().find(|(_, set)| *set) {
            Some((flag, _)) => Err(format!("{name} does not accept {flag}")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(RunOpts, Vec<String>), String> {
        RunOpts::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_every_flag_and_keeps_names_in_order() {
        let (opts, names) = parse(&[
            "cc", "--smoke", "--seed", "7", "scale", "--out", "d", "--jobs", "2", "--shards", "4",
        ])
        .unwrap();
        let want = RunOpts {
            seed: Some(7),
            out_dir: Some(PathBuf::from("d")),
            smoke: true,
            jobs: Some(2),
            shards: 4,
        };
        assert_eq!(
            (opts, names),
            (want, vec!["cc".to_string(), "scale".to_string()])
        );
        assert_eq!(parse(&[]).unwrap().0.shards, 1);
    }

    #[test]
    fn malformed_and_unknown_flags_are_errors() {
        for args in [
            &["--seed"][..],
            &["--seed", "x"],
            &["--out"],
            &["--jobs", "0"],
            &["--shards", "0"],
            &["--gray"],
            &["cc", "--frobnicate"],
        ] {
            assert!(parse(args).is_err(), "{args:?}");
        }
        assert!(parse(&["--gray"])
            .unwrap_err()
            .contains("unknown flag --gray"));
    }

    #[test]
    fn a_flag_the_subcommand_does_not_accept_is_rejected() {
        let opts = |args: &[&str]| parse(args).unwrap().0;
        let sharded = Accepts::Sweep { shards: true };
        let unsharded = Accepts::Sweep { shards: false };
        assert_eq!(
            opts(&["--smoke", "--shards", "4"]).check("scale", sharded),
            Ok(())
        );
        assert_eq!(
            opts(&["--smoke", "--shards", "1"]).check("cc", unsharded),
            Ok(())
        );
        let err = opts(&["--smoke", "--shards", "4"]).check("cc", unsharded);
        assert_eq!(err.unwrap_err(), "cc does not accept --shards");
        assert_eq!(opts(&[]).check("verify", Accepts::Nothing), Ok(()));
        for (flag, args) in [
            ("--seed", &["--seed", "99"][..]),
            ("--smoke", &["--smoke"]),
            ("--out", &["--out", "d"]),
            ("--jobs", &["--jobs", "2"]),
            ("--shards", &["--shards", "3"]),
        ] {
            let err = opts(args).check("verify", Accepts::Nothing).unwrap_err();
            assert_eq!(err, format!("verify does not accept {flag}"));
        }
    }
}
