//! In-memory span recorder for the traced replay.
//!
//! A span is one call into a layer: name, start, end, the span that
//! caused it, and the id of the operation it serves. Spans stay in
//! memory and are written out once, when the replay ends. A disabled
//! tracer records no spans, only the total time spent inside root spans,
//! so the untraced pass runs the same code and can be compared.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
    depth: usize,
    root_start: Option<Instant>,
    root_ns: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            depth: 0,
            root_start: None,
            root_ns: 0,
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a root span for a new operation.
    pub fn begin_op(&mut self, name: &str) {
        self.op += 1;
        self.begin(name);
    }

    pub fn begin(&mut self, name: &str) {
        if self.depth == 0 {
            self.root_start = Some(Instant::now());
        }
        self.depth += 1;
        if !self.on {
            return;
        }
        let span = Span {
            name: name.to_owned(),
            start_ns: self.now(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        };
        self.stack.push(self.spans.len());
        self.spans.push(span);
    }

    pub fn end(&mut self) {
        if self.on {
            let now = self.now();
            if let Some(i) = self.stack.pop() {
                self.spans[i].end_ns = now;
            }
        }
        self.depth = self.depth.saturating_sub(1);
        if self.depth == 0 {
            if let Some(t) = self.root_start.take() {
                self.root_ns += t.elapsed().as_nanos() as u64;
            }
        }
    }

    /// Total ms spent inside root spans, traced or not.
    pub fn root_ms(&self) -> f64 {
        self.root_ns as f64 / 1e6
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Self time in ms per span name (duration minus the part covered by
    /// child spans), over every span whose root is named `root`. Child
    /// spans of one parent never overlap: the replay is single-threaded.
    /// Also returns the total time of the roots' children.
    pub fn self_times(&self, root: &str) -> (BTreeMap<String, f64>, f64) {
        let dur = |s: &Span| s.end_ns.saturating_sub(s.start_ns) as f64 / 1e6;
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += dur(s);
            }
        }
        let root_of = |mut i: usize| {
            while let Some(p) = self.spans[i].parent {
                i = p;
            }
            i
        };
        let mut by_name = BTreeMap::new();
        let mut covered = 0.0;
        for (i, s) in self.spans.iter().enumerate() {
            if self.spans[root_of(i)].name != root {
                continue;
            }
            if s.parent.is_none() {
                covered += child_ms[i];
            } else {
                *by_name.entry(s.name.clone()).or_insert(0.0) += dur(s) - child_ms[i];
            }
        }
        (by_name, covered)
    }

    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"op\":{}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                s.op
            );
        }
        out
    }
}
