//! Named counters and histograms shared by all nodes of a simulation.
//!
//! Baseline-stack cost accounting (Table 1/6), drop counts, tracepoints
//! (Table 2's 48-tracepoint profiling build) all land here. Counters are
//! created on first use; lookups are by string key, which is fine because
//! hot paths cache [`CounterHandle`]s.

use std::collections::HashMap;

use crate::hist::Histogram;

/// Index into the counter table; cheap to copy into hot paths.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CounterHandle(usize);

/// Index into the histogram table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct HistHandle(usize);

#[derive(Default)]
pub struct Stats {
    counter_names: HashMap<String, usize>,
    counters: Vec<u64>,
    hist_names: HashMap<String, usize>,
    hists: Vec<Histogram>,
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

    pub fn set(&mut self, h: CounterHandle, v: u64) {
        self.counters[h.0] = v;
    }

    pub fn hist(&mut self, name: &str) -> HistHandle {
        if let Some(&i) = self.hist_names.get(name) {
            return HistHandle(i);
        }
        let i = self.hists.len();
        self.hists.push(Histogram::new());
        self.hist_names.insert(name.to_string(), i);
        HistHandle(i)
    }

    #[inline]
    pub fn record(&mut self, h: HistHandle, v: u64) {
        self.hists[h.0].record(v);
    }

    pub fn hist_ref(&self, h: HistHandle) -> &Histogram {
        &self.hists[h.0]
    }

    pub fn hist_named(&self, name: &str) -> Option<&Histogram> {
        self.hist_names.get(name).map(|&i| &self.hists[i])
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

    /// Sum of all counters whose name starts with `prefix`.
    pub fn sum_prefixed(&self, prefix: &str) -> u64 {
        self.counter_names
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, &i)| self.counters[i])
            .sum()
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
    fn hist_records() {
        let mut s = Stats::new();
        let h = s.hist("rtt");
        for v in [10u64, 20, 30] {
            s.record(h, v);
        }
        assert_eq!(s.hist_ref(h).count(), 3);
        assert!(s.hist_named("rtt").is_some());
        assert!(s.hist_named("nope").is_none());
    }

    #[test]
    fn dump_sorted_and_prefix_sum() {
        let mut s = Stats::new();
        s.bump("z.last", 1);
        s.bump("a.first", 2);
        s.bump("a.second", 3);
        let d = s.dump_counters();
        assert_eq!(d[0].0, "a.first");
        assert_eq!(d[2].0, "z.last");
        assert_eq!(s.sum_prefixed("a."), 5);
        assert_eq!(s.sum_prefixed("z."), 1);
    }
}
