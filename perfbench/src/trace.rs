//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! The program itself carries no tracing: every span starts and ends in
//! benchmark code, around a public call. Spans stay in memory and are
//! written out once, when the run ends.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `graph.parse`.
    pub name: &'static str,
    /// Shared by every span of one request, set-up or epoch.
    pub id: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// A span measured against `origin` by a thread that has no tracer.
    pub fn between(
        name: &'static str,
        id: u64,
        origin: Instant,
        start: Instant,
        end: Instant,
    ) -> Span {
        let ns = |t: Instant| t.saturating_duration_since(origin).as_nanos() as u64;
        Span {
            name,
            id,
            parent: None,
            start_ns: ns(start),
            end_ns: ns(end),
        }
    }

    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Span recorder; when off, every call is a no-op.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Pauses (`false`) or resumes recording; the traced run alternates
    /// so that its own overhead is measured in-run.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// The instant every span offset is measured from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn offset_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, id: u64, parent: Option<usize>) -> Option<usize> {
        if !self.on {
            return None;
        }
        let now = self.offset_ns(Instant::now());
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns: now,
            end_ns: now,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end_ns = self.offset_ns(Instant::now());
        }
    }

    /// Adds spans recorded elsewhere (client threads keep their own).
    pub fn extend(&mut self, spans: Vec<Span>) {
        if self.on {
            self.spans.extend(spans);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of the spans called `name` whose parent is called
    /// `parent`, in milliseconds.
    pub fn durations_ms_in(&self, name: &str, parent: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.parent.is_some_and(|p| self.spans[p].name == parent))
            .map(Span::ms)
            .collect()
    }

    /// A span's duration minus the time its direct children cover (the
    /// benchmark's children never overlap: they run one after another).
    pub fn self_ns(&self, i: usize) -> u64 {
        let total = self.spans[i].end_ns - self.spans[i].start_ns;
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(i))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        total.saturating_sub(children)
    }

    /// Writes `header` and then one JSON object per span, one per line.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> io::Result<()> {
        let mut has_children = vec![false; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                has_children[p] = true;
            }
        }
        let mut out = String::with_capacity(self.spans.len() * 96 + header.len());
        out.push_str(header);
        out.push('\n');
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let self_ns = if has_children[i] {
                self.self_ns(i)
            } else {
                s.end_ns - s.start_ns
            };
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.name, s.id, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}
