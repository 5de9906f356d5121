//! What one child process reports back to the parent: a line-oriented
//! text record on stdout (`tag field...`, whitespace separated — node and
//! counter names contain no spaces), so neither side needs a JSON parser.

use std::collections::BTreeMap;
use std::fmt::Write;

use crate::estimator::{Slice, Slices};

/// One phase of the benchmark's own timeline. Times are host ns since the
/// child started; `parent` is the enclosing span's name (`-` for a root).
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: String,
}

#[derive(Clone, Debug, Default, PartialEq)]
pub struct Record {
    /// Named numbers: `e2e.*` simulated metrics, `host.*` host readings,
    /// `aux.*` bookkeeping, `layer.*` per-layer counts, `kernel.*`.
    pub scalars: BTreeMap<String, f64>,
    /// Set-up, slice by slice: the build, then warm-up.
    pub setup_slices: Slices,
    /// The measured window, slice by slice.
    pub slices: Slices,
    /// Traced runs only: per node name `(host ns, events)` in the window.
    pub nodes: Vec<(String, u64, u64)>,
    /// Traced runs only: delivered events per `Msg` kind in the window.
    pub kinds: Vec<(String, u64)>,
    /// Traced runs only: `(burst length, bursts)` in the window.
    pub bursts: Vec<(u64, u64)>,
    pub spans: Vec<Span>,
}

impl Record {
    pub fn set(&mut self, key: &str, v: f64) {
        self.scalars.insert(key.to_string(), v);
    }

    pub fn get(&self, key: &str) -> f64 {
        *self
            .scalars
            .get(key)
            .unwrap_or_else(|| panic!("record has no scalar {key}"))
    }

    pub fn to_text(&self) -> String {
        let mut s = String::new();
        // `{}` on f64 prints the shortest text that parses back to the
        // same bits, so "identical across runs" survives the pipe
        for (k, v) in &self.scalars {
            writeln!(s, "s {k} {v}").unwrap();
        }
        for (tag, slices) in [("setup", &self.setup_slices), ("slice", &self.slices)] {
            for sl in slices {
                writeln!(s, "{tag} {} {} {}", sl.raw_ns, sl.ns, sl.events).unwrap();
            }
        }
        for (name, ns, ev) in &self.nodes {
            writeln!(s, "node {name} {ns} {ev}").unwrap();
        }
        for (name, n) in &self.kinds {
            writeln!(s, "kind {name} {n}").unwrap();
        }
        for (len, n) in &self.bursts {
            writeln!(s, "burst {len} {n}").unwrap();
        }
        for sp in &self.spans {
            writeln!(
                s,
                "span {} {} {} {}",
                sp.name, sp.start_ns, sp.end_ns, sp.parent
            )
            .unwrap();
        }
        s
    }

    pub fn parse(text: &str) -> Result<Record, String> {
        let mut r = Record::default();
        for line in text.lines() {
            let f: Vec<&str> = line.split_whitespace().collect();
            let bad = || format!("malformed record line: {line:?}");
            let int = |i: usize| -> Result<u64, String> {
                f.get(i).and_then(|s| s.parse().ok()).ok_or_else(bad)
            };
            let name = |i: usize| -> Result<String, String> {
                f.get(i).map(|s| s.to_string()).ok_or_else(bad)
            };
            match f.first().copied() {
                None => {}
                Some("s") => {
                    let v: f64 = f.get(2).and_then(|s| s.parse().ok()).ok_or_else(bad)?;
                    r.scalars.insert(name(1)?, v);
                }
                Some(tag @ ("setup" | "slice")) => {
                    let slices = if tag == "setup" {
                        &mut r.setup_slices
                    } else {
                        &mut r.slices
                    };
                    slices.push(Slice {
                        raw_ns: int(1)?,
                        ns: int(2)?,
                        events: int(3)?,
                    });
                }
                Some("node") => r.nodes.push((name(1)?, int(2)?, int(3)?)),
                Some("kind") => r.kinds.push((name(1)?, int(2)?)),
                Some("burst") => r.bursts.push((int(1)?, int(2)?)),
                Some("span") => r.spans.push(Span {
                    name: name(1)?,
                    start_ns: int(2)?,
                    end_ns: int(3)?,
                    parent: name(4)?,
                }),
                Some(_) => return Err(bad()),
            }
        }
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_round_trip_is_exact() {
        let mut r = Record::default();
        r.set("e2e.sim_lat_p50_us", 24.573_219_999_871_3);
        r.set("aux.attempted", 71_234.0);
        r.set("e2e.ok_frac", 1.0);
        r.slices = vec![
            Slice {
                raw_ns: 1_234_567,
                ns: 1_000_000,
                events: 890,
            },
            Slice {
                raw_ns: 7,
                ns: 7,
                events: 0,
            },
        ];
        r.setup_slices = vec![Slice {
            raw_ns: 9,
            ns: 8,
            events: 36,
        }];
        r.nodes = vec![("proto-stage[2]".into(), 5, 6)];
        r.kinds = vec![("Work".into(), 9)];
        r.bursts = vec![(1, 100), (2, 3)];
        r.spans = vec![Span {
            name: "measure".into(),
            start_ns: 10,
            end_ns: 20,
            parent: "round".into(),
        }];
        assert_eq!(Record::parse(&r.to_text()).unwrap(), r);
        assert!(Record::parse("slice 1 2").is_err());
        assert!(Record::parse("what 1 2").is_err());
    }
}
