//! Spans recorded from the benchmark's side of each call into a layer.
//!
//! A span is `(name, start, end, parent, items)`: `items` counts the units
//! of work the call did (jobs submitted, records observed), so per-unit
//! costs are measured at the same boundary as the time. Spans stay in
//! memory until the run ends; a layer's figure is its *self* time, the
//! span's duration minus the part its child spans cover.
//!
//! When the tracer is off, `enter`/`exit` are one branch and record
//! nothing, so the untraced rounds run the same code.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    items: u64,
}

/// Handle of an open span (`None` when tracing was off at `enter`).
#[must_use]
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// Aggregate of every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Layer {
    pub spans: u64,
    pub items: u64,
    pub total_s: f64,
    pub self_s: f64,
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "tracing toggled inside a span");
        self.on = on;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            items: 0,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn exit(&mut self, open: Open) {
        self.exit_items(open, 1);
    }

    /// Close a span that did `items` units of work.
    pub fn exit_items(&mut self, open: Open, items: u64) {
        let Some(id) = open.0 else { return };
        let end = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans closed out of order");
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.items = items;
    }

    /// Time `f` as one span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Record, under the innermost open span, a child that ran `ns`
    /// nanoseconds in total over `items` calls made from a callback (the
    /// record tap) where the tracer itself cannot be reached.
    pub fn record_child(&mut self, name: &'static str, ns: u64, items: u64) {
        if !self.on {
            return;
        }
        let parent = self.stack.last().copied();
        let start_ns = parent.map_or(0, |p| self.spans[p].start_ns);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + ns,
            parent,
            items,
        });
    }

    /// Durations of every span called `name`, seconds, in order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Per-name totals and self times.
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let dur = span.end_ns - span.start_ns;
            let layer = out.entry(span.name).or_default();
            layer.spans += 1;
            layer.items += span.items;
            layer.total_s += dur as f64 * 1e-9;
            layer.self_s += dur.saturating_sub(children) as f64 * 1e-9;
        }
        out
    }

    /// Self time of every span whose root ancestor is called `root`,
    /// divided by the roots' total duration: the share of a traced phase
    /// that named layers account for (the root's own self time excluded).
    pub fn coverage(&self, root: &str) -> f64 {
        let mut root_of = vec![usize::MAX; self.spans.len()];
        let mut child_ns = vec![0u64; self.spans.len()];
        for (i, span) in self.spans.iter().enumerate() {
            root_of[i] = span.parent.map_or(i, |p| root_of[p]);
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        let (mut covered, mut total) = (0u64, 0u64);
        for (i, span) in self.spans.iter().enumerate() {
            if self.spans[root_of[i]].name != root {
                continue;
            }
            let dur = span.end_ns - span.start_ns;
            if span.parent.is_none() {
                total += dur;
            } else {
                covered += dur.saturating_sub(child_ns[i]);
            }
        }
        if total == 0 {
            0.0
        } else {
            covered as f64 / total as f64
        }
    }

    /// The span table, one line per name, for standard error.
    pub fn table(&self) -> String {
        let mut out = String::from(
            "span                          spans        items      total_s       self_s\n",
        );
        for (name, l) in self.layers() {
            out.push_str(&format!(
                "{name:<28} {:>7} {:>12} {:>12.6} {:>12.6}\n",
                l.spans, l.items, l.total_s, l.self_s
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_coverage_counts_them() {
        let mut t = Tracer::new();
        t.set_on(true);
        let root = t.enter("round");
        let parent = t.enter("a");
        std::thread::sleep(std::time::Duration::from_millis(4));
        t.record_child("b", 1_000_000, 10);
        t.exit(parent);
        t.exit(root);
        let layers = t.layers();
        let a = layers["a"];
        let b = layers["b"];
        assert_eq!(b.items, 10);
        assert!((b.self_s - 1e-3).abs() < 1e-12);
        assert!((a.total_s - a.self_s - 1e-3).abs() < 1e-9);
        let cov = t.coverage("round");
        assert!(cov > 0.9 && cov <= 1.0, "coverage {cov}");
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::new();
        let open = t.enter("x");
        t.exit(open);
        t.record_child("y", 5, 1);
        assert!(t.layers().is_empty());
    }
}
