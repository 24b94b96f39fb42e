//! In-memory spans and counters recorded around calls into the
//! workspace's public functions.
//!
//! Spans are timed from outside each layer, so a span's duration includes
//! the cost of reading the clock twice (about 50 ns). A disabled tracer
//! records nothing and reads no clock.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call: its name, the span it ran inside, and its bounds in
/// nanoseconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    /// Opens a span; it nests under the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start = self.now();
        let parent = self.open.last().copied();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            parent,
            start,
            end: start,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now();
        let idx = self.open.pop().expect("exit matches an enter");
        self.spans[idx].end = end;
    }

    /// Adds `by` to the counter `name`.
    pub fn add(&mut self, name: &'static str, by: u64) {
        if self.on {
            *self.counters.entry(name).or_insert(0) += by;
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Durations in nanoseconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .collect()
    }

    /// Total nanoseconds spent in spans called `name`.
    pub fn busy_ns(&self, name: &str) -> u64 {
        self.durations(name).iter().sum()
    }

    /// Number of spans called `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).count() as u64
    }

    /// `(name, calls, total ns, self ns)` per span name, where self time
    /// is a span's duration minus the durations of its children.
    pub fn self_times(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.ns();
            }
        }
        let mut rows: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (span, child) in self.spans.iter().zip(child_ns) {
            let row = rows.entry(span.name).or_default();
            row.0 += 1;
            row.1 += span.ns();
            row.2 += span.ns().saturating_sub(child);
        }
        rows.into_iter()
            .map(|(name, (calls, total, own))| (name, calls, total, own))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_to_their_parent() {
        let mut tr = Tracer::new(true);
        tr.enter("outer");
        tr.enter("inner");
        tr.exit();
        tr.enter("inner");
        tr.exit();
        tr.exit();
        assert_eq!(tr.spans[0].parent, None);
        assert_eq!(tr.spans[1].parent, Some(0));
        assert_eq!(tr.spans[2].parent, Some(0));
        assert_eq!(tr.calls("inner"), 2);
        let rows = tr.self_times();
        let outer = rows.iter().find(|r| r.0 == "outer").unwrap();
        assert_eq!(outer.3, outer.2 - tr.busy_ns("inner"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        tr.enter("x");
        tr.add("c", 3);
        tr.exit();
        assert!(tr.spans.is_empty());
        assert_eq!(tr.counter("c"), 0);
    }
}
