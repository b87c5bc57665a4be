//! Outside-in span recorder: spans are taken by the benchmark around
//! calls into each layer's public functions, kept in memory, and
//! written out once at exit.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use crate::stats::{self_times, Span};

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            // Reserved up front so recording a span never reallocates
            // inside a timed region.
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; the returned id is the parent for its children.
    pub fn open(&mut self, name: &'static str, parent: Option<u32>, request: u32) -> u32 {
        let id = self.spans.len() as u32;
        let start = self.now();
        self.spans.push(Span {
            id,
            name,
            start,
            end: start,
            parent,
            request,
        });
        id
    }

    /// Closes a span and returns its duration in nanoseconds.
    pub fn close(&mut self, id: u32) -> u64 {
        let end = self.now();
        let span = &mut self.spans[id as usize];
        span.end = end;
        end - span.start
    }

    /// Times `work` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        request: u32,
        work: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = work();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// `name → (spans, total duration, total self time)` in nanoseconds.
    pub fn by_name(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let selfs = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(selfs) {
            let entry = out.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += span.end - span.start;
            entry.2 += self_ns;
        }
        out
    }

    /// Total duration of the spans called `name`.
    pub fn total(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Durations of the spans called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// Writes `[{"id":..,"name":..,"start":..,"end":..,"parent":..,"request":..}, ..]`.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{},\"request\":{}}}{}",
                s.id, s.name, s.start, s.end, parent, s.request, comma
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_aggregate_by_name() {
        let mut t = Tracer::new();
        let root = t.open("request", None, 7);
        let sum = t.time("layer", Some(root), 7, || (0..1000u64).sum::<u64>());
        assert_eq!(sum, 499_500);
        t.time("layer", Some(root), 7, || std::hint::black_box(1));
        t.close(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans[1].start >= spans[0].start && spans[2].end <= spans[0].end);
        assert_eq!(spans[1].parent, Some(root));
        let by = t.by_name();
        assert_eq!(by["layer"].0, 2);
        assert_eq!(by["request"].1, by["request"].2 + by["layer"].1);
        assert_eq!(t.total("layer"), t.durations("layer").iter().sum::<u64>());
    }
}
