//! In-memory span recorder of the traced run.
//!
//! A span is a named, tagged interval with an optional parent.  Spans stay
//! in memory and are written out once, when the run ends.  Pool cells time
//! themselves and hand their interval back with their result, so recording
//! never takes a lock.

use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the trace's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// What the span is about: a scenario, an oracle pair, a workload.
    pub tag: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Run `f` inside a span named `name` when there is a trace.
pub fn within<R>(
    trace: Option<&mut Trace>,
    name: &'static str,
    tag: &str,
    parent: Option<usize>,
    f: impl FnOnce() -> R,
) -> R {
    let Some(trace) = trace else { return f() };
    let id = trace.open(name, tag, parent);
    let out = f();
    trace.close(id);
    out
}

/// Nanoseconds elapsed since `epoch`.
pub fn since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Open a span now; its end is set by [`Trace::close`].
    pub fn open(&mut self, name: &'static str, tag: &str, parent: Option<usize>) -> usize {
        let now = since(self.epoch);
        self.record(name, tag, parent, now, now)
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = since(self.epoch);
    }

    /// Add an interval measured elsewhere (by a pool cell) against this
    /// trace's epoch.
    pub fn record(
        &mut self,
        name: &'static str,
        tag: &str,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            tag: tag.to_string(),
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans named `name`, with their ids.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = (usize, &'a Span)> + 'a {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.name == name)
    }

    /// Direct children of span `id`.
    pub fn children(&self, id: usize) -> impl Iterator<Item = &Span> + '_ {
        self.spans.iter().filter(move |s| s.parent == Some(id))
    }

    /// Self time of span `id`: its duration minus the part of it that its
    /// children cover.  Children run on several pool lanes and may overlap,
    /// so the covered time is the length of the union of their intervals.
    pub fn self_ns(&self, id: usize) -> u64 {
        let span = &self.spans[id];
        let mut kids: Vec<(u64, u64)> = self
            .children(id)
            .map(|c| {
                (
                    c.start_ns.clamp(span.start_ns, span.end_ns),
                    c.end_ns.clamp(span.start_ns, span.end_ns),
                )
            })
            .collect();
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = span.start_ns;
        for (start, end) in kids {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        span.ns() - covered
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"tag\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name,
                s.tag,
                s.start_ns,
                s.end_ns,
                self.self_ns(id)
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let mut t = Trace::new();
        let root = t.record("round", "w", None, 0, 100);
        t.record("cell", "a", Some(root), 10, 40);
        t.record("cell", "b", Some(root), 30, 60); // overlaps the first
        t.record("cell", "c", Some(root), 90, 120); // runs past the parent
        assert_eq!(t.self_ns(root), 100 - 50 - 10);
        assert_eq!(t.self_ns(1), 30);
    }
}
