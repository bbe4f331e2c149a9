//! Spans and counts recorded by the benchmark's own code around each
//! call into a layer.  Nothing here reaches into the crates under
//! measurement: a span brackets a public call from outside.

use crate::json::{self, Value};
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One timed interval.  `parent` is the span that was open when this
/// one started, so spans of one repeat form a tree under its root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub repeat: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans in memory on the calling thread.  A tracer that is
/// off runs the closures and records nothing, so one code path serves
/// the untraced and the traced run.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    counts: BTreeMap<&'static str, u64>,
    repeat: u32,
}

impl Tracer {
    pub fn on() -> Tracer {
        Tracer::new(true)
    }

    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
            repeat: 0,
        }
    }

    /// Tags the spans that follow with a repeat number.
    pub fn set_repeat(&mut self, repeat: u32) {
        self.repeat = repeat;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` through
    /// the tracer it is handed become children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            repeat: self.repeat,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    /// Adds `n` to the count named `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.enabled {
            *self.counts.entry(name).or_default() += n;
        }
    }

    pub fn counted(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Busy seconds: total duration of the spans named `name`.
    pub fn seconds(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum();
        ns as f64 / 1e9
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span name: each span's duration minus the part of
    /// it its child spans cover.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent as usize] += span.duration_ns();
            }
        }
        let mut by_name = BTreeMap::new();
        for span in &self.spans {
            *by_name.entry(span.name).or_default() +=
                span.duration_ns().saturating_sub(covered[span.id as usize]);
        }
        by_name
    }

    /// Self time per layer, a layer being the span name up to its
    /// first `.`.
    pub fn layer_self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut by_layer = BTreeMap::new();
        for (name, ns) in self.self_ns() {
            let layer = name.split('.').next().unwrap_or(name);
            *by_layer.entry(layer).or_default() += ns;
        }
        by_layer
    }

    /// Writes one JSON object per span, then one per count.
    ///
    /// # Errors
    ///
    /// Propagates the writer's error.
    pub fn write_jsonl(&self, workload: &str, mut w: impl Write) -> io::Result<()> {
        for s in &self.spans {
            let line = json::obj([
                ("id", Value::from(u64::from(s.id))),
                (
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::from(u64::from(p))),
                ),
                ("name", Value::from(s.name)),
                ("workload", Value::from(workload)),
                ("repeat", Value::from(u64::from(s.repeat))),
                ("start_ns", Value::from(s.start_ns)),
                ("end_ns", Value::from(s.end_ns)),
            ]);
            writeln!(w, "{line}")?;
        }
        for (name, n) in &self.counts {
            let line = json::obj([
                ("count", Value::from(*name)),
                ("workload", Value::from(workload)),
                ("value", Value::from(*n)),
            ]);
            writeln!(w, "{line}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer with hand-placed spans, so the arithmetic is exact.
    fn fixture() -> Tracer {
        let mut t = Tracer::on();
        let mut add = |parent: Option<u32>, name: &'static str, start_ns: u64, end_ns: u64| {
            let id = t.spans.len() as u32;
            t.spans.push(Span {
                id,
                parent,
                name,
                repeat: 0,
                start_ns,
                end_ns,
            });
            id
        };
        let root = add(None, "loop.repeat", 0, 1000);
        let fleet = add(Some(root), "fleet.socket", 0, 700);
        add(Some(fleet), "vm.run", 100, 400);
        add(Some(fleet), "vm.run", 400, 600);
        add(Some(root), "serve.fold", 700, 950);
        t
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let t = fixture();
        let own = t.self_ns();
        assert_eq!(own["loop.repeat"], 1000 - 700 - 250);
        assert_eq!(own["fleet.socket"], 700 - 300 - 200);
        assert_eq!(own["vm.run"], 500);
        assert_eq!(own["serve.fold"], 250);
        // Self times partition the root: nothing is counted twice.
        assert_eq!(own.values().sum::<u64>(), 1000);
        let layers = t.layer_self_ns();
        assert_eq!(layers["vm"], 500);
        assert_eq!(layers["loop"], 50);
        assert_eq!(t.seconds("vm.run"), 500e-9);
    }

    #[test]
    fn spans_nest_under_the_open_span_and_off_records_nothing() {
        let mut t = Tracer::on();
        t.set_repeat(3);
        let out = t.span("a.outer", |t| {
            t.count("a.items", 2);
            t.span("b.inner", |_| 7)
        });
        assert_eq!(out, 7);
        assert_eq!(t.span_count(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[0].parent, None);
        assert_eq!(t.spans[1].repeat, 3);
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
        assert_eq!(t.counted("a.items"), 2);

        let mut jsonl = Vec::new();
        t.write_jsonl("w", &mut jsonl).unwrap();
        let text = String::from_utf8(jsonl).unwrap();
        assert_eq!(text.lines().count(), 3);
        for line in text.lines() {
            json::parse(line).unwrap();
        }

        let mut off = Tracer::off();
        assert_eq!(off.span("a.outer", |t| t.span("b.inner", |_| 1)), 1);
        off.count("a.items", 1);
        assert_eq!((off.span_count(), off.counted("a.items")), (0, 0));
    }
}
