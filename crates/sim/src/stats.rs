//! Named counters shared by all nodes of a simulation.
//!
//! Drops, retransmits, control-plane events, congestion reports and
//! telemetry sweeps land here, one name per fact, summed over every node
//! that counts it. Counters are created on first use; lookups are by
//! string key, which is fine because hot paths resolve a
//! [`CounterHandle`] once in `Node::on_attach` and cold paths call
//! [`Stats::bump`].

use std::collections::HashMap;

/// Index into the counter table; cheap to copy into hot paths.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CounterHandle(usize);

#[derive(Default)]
pub struct Stats {
    counter_names: HashMap<String, usize>,
    counters: Vec<u64>,
}

impl Stats {
    pub fn new() -> Stats {
        Stats::default()
    }

    pub fn counter(&mut self, name: &str) -> CounterHandle {
        if let Some(&i) = self.counter_names.get(name) {
            return CounterHandle(i);
        }
        let i = self.counters.len();
        self.counters.push(0);
        self.counter_names.insert(name.to_string(), i);
        CounterHandle(i)
    }

    #[inline]
    pub fn add(&mut self, h: CounterHandle, v: u64) {
        self.counters[h.0] += v;
    }

    #[inline]
    pub fn inc(&mut self, h: CounterHandle) {
        self.add(h, 1);
    }

    /// Convenience: bump a counter by name (cold paths only).
    pub fn bump(&mut self, name: &str, v: u64) {
        let h = self.counter(name);
        self.add(h, v);
    }

    pub fn get(&self, h: CounterHandle) -> u64 {
        self.counters[h.0]
    }

    pub fn get_named(&self, name: &str) -> u64 {
        self.counter_names
            .get(name)
            .map(|&i| self.counters[i])
            .unwrap_or(0)
    }

    /// All counters sorted by name, for experiment reports.
    pub fn dump_counters(&self) -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> = self
            .counter_names
            .iter()
            .map(|(k, &i)| (k.clone(), self.counters[i]))
            .collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_identity_and_accumulation() {
        let mut s = Stats::new();
        let a = s.counter("rx.pkts");
        let a2 = s.counter("rx.pkts");
        assert_eq!(a, a2);
        s.inc(a);
        s.add(a2, 9);
        assert_eq!(s.get(a), 10);
        assert_eq!(s.get_named("rx.pkts"), 10);
        assert_eq!(s.get_named("missing"), 0);
    }

    #[test]
    fn dump_is_name_sorted() {
        let mut s = Stats::new();
        s.bump("z.last", 1);
        s.bump("a.first", 2);
        s.bump("a.second", 3);
        let d = s.dump_counters();
        assert_eq!(d[0].0, "a.first");
        assert_eq!(d[2].0, "z.last");
        assert_eq!(d[1], ("a.second".to_string(), 3));
    }
}
