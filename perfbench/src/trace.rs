//! In-memory spans recorded by the benchmark around its calls into the
//! program's public functions. Nothing here reaches inside the program:
//! a span covers exactly one call made from this crate.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call: `name` is the layer function, `op` ties together the
/// spans of one operation (a request, a query, a write), `parent` is the
/// index of the span that caused this one.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// A thread's span buffer. Every timing in the benchmark goes through
/// [`Tracer::time`]; with recording off it still returns the duration, so
/// the untraced and traced paths run the same code.
pub struct Tracer {
    epoch: Instant,
    record: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, record: bool) -> Self {
        Self {
            epoch,
            record,
            spans: Vec::new(),
        }
    }

    /// A second buffer on the same clock, for another thread.
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.epoch, self.record)
    }

    pub fn set_recording(&mut self, on: bool) {
        self.record = on;
    }

    /// Runs `f`, returning its result and its duration in milliseconds;
    /// records a span when recording is on.
    pub fn time<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> (R, f64) {
        self.time_under(name, op, None, f)
    }

    /// [`Self::time`] with the index of a parent span (see [`Self::open`]).
    pub fn time_under<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        if self.record {
            self.spans.push(Span {
                name,
                start_ns: start.duration_since(self.epoch).as_nanos() as u64,
                end_ns: end.duration_since(self.epoch).as_nanos() as u64,
                parent,
                op,
            });
        }
        (out, end.duration_since(start).as_secs_f64() * 1e3)
    }

    /// Opens a parent span whose end is set by [`Self::close`]; returns
    /// its index, or `None` when not recording.
    pub fn open(&mut self, name: &'static str, op: u64) -> Option<usize> {
        if !self.record {
            return None;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: None,
            op,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Appends another thread's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        self.absorb_under(other, None);
    }

    /// [`Self::absorb`], making the other thread's top-level spans
    /// children of `parent`, a span of this buffer.
    pub fn absorb_under(&mut self, other: Tracer, parent: Option<usize>) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(parent);
            s
        }));
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_only_when_on_and_keeps_parents_across_threads() {
        let epoch = Instant::now();
        let mut off = Tracer::new(epoch, false);
        let (v, ms) = off.time("a", 0, || 7);
        assert_eq!(v, 7);
        assert!(ms >= 0.0);
        assert!(off.spans.is_empty());
        assert_eq!(off.open("p", 0), None);

        let mut main = Tracer::new(epoch, true);
        main.time("x", 1, || ());
        let mut other = main.fork();
        let p = other.open("parent", 2);
        other.time_under("child", 2, p, || ());
        other.close(p);
        main.absorb(other);
        assert_eq!(main.spans.len(), 3);
        assert_eq!(main.spans[2].parent, Some(1));
        assert_eq!(main.spans[2].name, "child");
        assert!(main.spans[1].end_ns >= main.spans[2].end_ns);

        let batch = main.open("batch", 3);
        let mut worker = main.fork();
        worker.time("call", 3, || ());
        main.absorb_under(worker, batch);
        main.close(batch);
        assert_eq!(main.spans[4].parent, batch);
    }
}
