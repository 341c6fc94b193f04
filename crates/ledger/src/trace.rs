//! In-memory spans recorded by the harness around its calls into each
//! layer (the program itself is not edited by the benchmark PR).
//!
//! A span is `{name, start_ns, end_ns, parent, op}`; `parent` is the
//! 1-based index of the span that caused it (0 = none) and `op` the
//! operation number, shared by every span of one publish/subscribe.
//! Spans live in memory and are written to
//! `crates/ledger/out/trace-<workload>.json` when the run ends. Every
//! recorded duration also feeds a per-name accumulator, from which the
//! per-layer table takes its means; a layer's **self time** is its
//! span's duration minus what its child spans cover.
//!
//! With tracing off (every end-to-end run) `Trace::on` is `false` and
//! the harness skips all of this behind one branch.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op: u32,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct Acc {
    pub sum_ns: u64,
    pub count: u64,
}

#[derive(Debug)]
pub struct Trace {
    pub on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    acc: BTreeMap<&'static str, Acc>,
}

impl Trace {
    pub fn new(on: bool) -> Trace {
        Trace {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            acc: BTreeMap::new(),
        }
    }

    /// Nanoseconds since the trace epoch.
    pub fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a span and returns its 1-based id (usable as `parent`).
    pub fn span(
        &mut self,
        name: &'static str,
        parent: u32,
        op: u32,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.add(name, end_ns.saturating_sub(start_ns));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
        });
        self.spans.len() as u32
    }

    /// Opens a span whose end is not known yet (it will parent child
    /// spans); [`Trace::close`] sets the end and accumulates it.
    pub fn open(&mut self, name: &'static str, parent: u32, op: u32, start: Instant) -> u32 {
        let start_ns = self.ns(start);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.spans.len() as u32
    }

    /// Closes a span opened with [`Trace::open`].
    pub fn close(&mut self, id: u32, end: Instant) {
        let end_ns = self.ns(end);
        let Some(span) = self.spans.get_mut((id as usize).wrapping_sub(1)) else {
            return;
        };
        span.end_ns = end_ns;
        let (name, ns) = (span.name, end_ns.saturating_sub(span.start_ns));
        self.add(name, ns);
    }

    /// Feeds the accumulator only (operations outside the replayed
    /// sample keep their durations out of the span file).
    pub fn add(&mut self, name: &'static str, ns: u64) {
        let a = self.acc.entry(name).or_default();
        a.sum_ns += ns;
        a.count += 1;
    }

    /// Runs `f` under a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        op: u32,
        f: impl FnOnce() -> R,
    ) -> (R, u32) {
        let start = Instant::now();
        let out = f();
        let id = self.span(name, parent, op, start, Instant::now());
        (out, id)
    }

    pub fn acc(&self, name: &str) -> Acc {
        self.acc.get(name).copied().unwrap_or_default()
    }

    /// Mean recorded duration in nanoseconds; 0 when nothing was
    /// recorded under `name`.
    pub fn mean_ns(&self, name: &str) -> f64 {
        let a = self.acc(name);
        if a.count == 0 {
            0.0
        } else {
            a.sum_ns as f64 / a.count as f64
        }
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The span file: one JSON object with a `spans` array.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"unit\":\"ns\",\"spans\":["
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.op
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonExt;

    #[test]
    fn spans_nest_and_accumulate() {
        let mut t = Trace::new(true);
        let (_, parent) = t.time("outer", 0, 7, || std::hint::black_box(1 + 1));
        let a = Instant::now();
        let child = t.span("inner", parent, 7, a, a);
        assert_eq!((parent, child), (1, 2));
        let opened = t.open("late", parent, 7, a);
        assert_eq!(t.acc("late").count, 0);
        t.close(opened, Instant::now());
        assert_eq!(t.acc("late").count, 1);
        t.spans.pop();
        t.add("inner", 10);
        assert_eq!(t.acc("inner").count, 2);
        assert_eq!(t.mean_ns("inner"), 5.0);
        assert_eq!(t.mean_ns("absent"), 0.0);
        let doc = crate::json::parse(&t.to_json("w")).unwrap();
        let spans = doc.get("spans").unwrap().as_arr();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent").unwrap().as_f64(), Some(1.0));
        assert_eq!(spans[1].get("op").unwrap().as_f64(), Some(7.0));
    }
}
