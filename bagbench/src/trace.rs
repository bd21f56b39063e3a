//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark around each call it makes into a
//! layer's public function; nothing inside the program is instrumented.
//! Every span keeps its name, start, end, parent span, and the id of the
//! operation (the root span) it belongs to. Counts (rows, pairs, nodes)
//! are recorded against the operation at the same boundaries. Everything
//! stays in memory until [`Tracer::write_jsonl`] at the end of the run.

use crate::json::quote;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    op: u32,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

struct Count {
    name: &'static str,
    op: u32,
    value: f64,
}

/// In-memory span and count recorder. A disabled tracer runs the
/// closures and records nothing.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    counts: Vec<Count>,
    stack: Vec<usize>,
    /// Root span name of each operation, indexed by operation id.
    op_kinds: Vec<&'static str>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            counts: Vec::new(),
            stack: Vec::new(),
            op_kinds: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` as a new operation: a root span named `name` with a fresh
    /// operation id that every span and count inside it shares.
    pub fn op<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        assert!(self.stack.is_empty(), "operations do not nest");
        let op = u32::try_from(self.op_kinds.len()).expect("fewer than 2^32 operations");
        self.op_kinds.push(name);
        self.open(name, op);
        let out = f(self);
        self.close();
        out
    }

    /// Runs `f` as a span named `name` inside the current operation.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let op = self.current_op();
        self.open(name, op);
        let out = f();
        self.close();
        out
    }

    /// Adds `value` to the count `name` of the current operation.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.on {
            let op = self.current_op();
            self.counts.push(Count { name, op, value });
        }
    }

    fn current_op(&self) -> u32 {
        let top = *self
            .stack
            .last()
            .expect("spans and counts live inside an operation");
        self.spans[top].op
    }

    fn open(&mut self, name: &'static str, op: u32) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(self.spans.len() - 1);
    }

    fn close(&mut self) {
        let idx = self.stack.pop().expect("balanced spans");
        self.spans[idx].end_ns = self.now_ns();
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Each span's duration minus the time its child spans cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] = out[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        out
    }

    /// Per operation of kind `kind` containing a span named `name`: the
    /// summed self time of those spans, in milliseconds.
    pub fn per_op_ms(&self, kind: &str, name: &str) -> Vec<f64> {
        let self_ns = self.self_ns();
        let mut by_op: BTreeMap<u32, u64> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(&self_ns) {
            if s.name == name && self.op_kinds[s.op as usize] == kind {
                *by_op.entry(s.op).or_default() += ns;
            }
        }
        by_op.values().map(|&ns| ns as f64 / 1e6).collect()
    }

    /// The duration of every operation of kind `kind`, in milliseconds.
    pub fn op_ms(&self, kind: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == kind)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Per operation of kind `kind` that recorded the count `name`: its
    /// summed value.
    pub fn per_op_count(&self, kind: &str, name: &str) -> Vec<f64> {
        let mut by_op: BTreeMap<u32, f64> = BTreeMap::new();
        for c in self
            .counts
            .iter()
            .filter(|c| c.name == name && self.op_kinds[c.op as usize] == kind)
        {
            *by_op.entry(c.op).or_default() += c.value;
        }
        by_op.into_values().collect()
    }

    /// For each kind of operation, the share of its root spans' time that
    /// no child span covers.
    pub fn uncovered_ratios(&self) -> BTreeMap<&'static str, f64> {
        let self_ns = self.self_ns();
        let mut by_kind: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(&self_ns) {
            if s.parent.is_none() {
                let e = by_kind.entry(s.name).or_default();
                e.0 += own;
                e.1 += s.end_ns - s.start_ns;
            }
        }
        by_kind
            .into_iter()
            .filter(|(_, (_, total))| *total > 0)
            .map(|(kind, (own, total))| (kind, own as f64 / total as f64))
            .collect()
    }

    /// Writes every span and count as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":{},\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                quote(s.name),
                s.op,
                s.start_ns,
                s.end_ns
            )?;
        }
        for c in &self.counts {
            writeln!(
                out,
                "{{\"count\":{},\"op\":{},\"value\":{}}}",
                quote(c.name),
                c.op,
                c.value
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.op("op", |t| {
            t.span("leaf", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            t.count("rows", 3.0);
            t.count("rows", 4.0);
        });
        let leaf = t.per_op_ms("op", "leaf");
        let root = t.per_op_ms("op", "op");
        assert_eq!(leaf.len(), 1);
        assert!(leaf[0] >= 5.0);
        assert!(root[0] < leaf[0], "root self time excludes the leaf");
        assert_eq!(t.per_op_count("op", "rows"), vec![7.0]);
        assert!(t.per_op_count("other", "rows").is_empty());
        assert!(t.uncovered_ratios()["op"] < 0.5);
        assert_eq!(t.op_ms("op").len(), 1);

        let mut off = Tracer::new(false);
        assert_eq!(off.op("op", |t| t.span("leaf", || 1)), 1);
        assert_eq!(off.span_count(), 0);
    }
}
