//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start and an end (ns since the tracer's epoch),
//! its parent, the lane (thread) that recorded it, and the request id
//! shared by every span of one request. Spans stay in memory until the
//! pass ends; [`Spans::write_json`] then writes them out. With the tracer
//! off, [`Tracer::span`] only calls through.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span within the same lane.
    pub parent: Option<usize>,
    pub request: u64,
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a root span for request `id`; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, id: u64) {
        self.request = id;
        if self.on {
            self.open(name);
        }
    }

    pub fn end(&mut self) {
        if self.on {
            self.close();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        self.open(name);
        let out = f();
        self.close();
        out
    }

    fn open(&mut self, name: &'static str) {
        let span = Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            request: self.request,
        };
        self.stack.push(self.spans.len());
        self.spans.push(span);
    }

    fn close(&mut self) {
        let end = self.now();
        let i = self.stack.pop().expect("span closed without being opened");
        self.spans[i].end_ns = end;
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.stack.is_empty(), "unclosed spans at the end of a lane");
        self.spans
    }
}

/// The spans of every lane of one traced pass.
#[derive(Debug, Default)]
pub struct Spans {
    lanes: Vec<Vec<Span>>,
}

impl Spans {
    pub fn push_lane(&mut self, spans: Vec<Span>) {
        self.lanes.push(spans);
    }

    /// Self time in ns of every span named `name`: its duration minus the
    /// part of it covered by its children.
    pub fn self_ns(&self, name: &str) -> Vec<f64> {
        let mut out = Vec::new();
        for lane in &self.lanes {
            let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
            for s in lane {
                if let Some(p) = s.parent {
                    children.entry(p).or_default().push((s.start_ns, s.end_ns));
                }
            }
            for (i, s) in lane.iter().enumerate() {
                if s.name != name {
                    continue;
                }
                let covered = children.get(&i).map_or(0, |c| union_len(c.clone()));
                out.push((s.end_ns - s.start_ns).saturating_sub(covered) as f64);
            }
        }
        out
    }

    /// Self times of `name` in µs, in recording order.
    pub fn self_us(&self, name: &str) -> Vec<f64> {
        self.self_ns(name).into_iter().map(|ns| ns / 1e3).collect()
    }

    /// Total durations of `name` spans, grouped by request id.
    pub fn by_request_ms(&self, name: &str) -> BTreeMap<u64, f64> {
        self.lanes
            .iter()
            .flatten()
            .filter(|s| s.name == name)
            .map(|s| (s.request, (s.end_ns - s.start_ns) as f64 / 1e6))
            .collect()
    }

    pub fn count(&self) -> usize {
        self.lanes.iter().map(Vec::len).sum()
    }

    /// One JSON object per line: name, start, end, parent, lane, request.
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (lane, spans) in self.lanes.iter().enumerate() {
            for (i, s) in spans.iter().enumerate() {
                let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
                writeln!(
                    out,
                    "{{\"lane\":{lane},\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                    s.name, s.start_ns, s.end_ns, s.request
                )?;
            }
        }
        out.flush()
    }
}

/// Length of the union of half-open intervals.
fn union_len(mut v: Vec<(u64, u64)>) -> u64 {
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in v {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let lane = vec![
            Span {
                name: "request",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                request: 1,
            },
            Span {
                name: "a",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
                request: 1,
            },
            Span {
                name: "b",
                start_ns: 30,
                end_ns: 60,
                parent: Some(0),
                request: 1,
            },
        ];
        let mut spans = Spans::default();
        spans.push_lane(lane);
        assert_eq!(spans.self_ns("request"), vec![50.0]);
        assert_eq!(spans.self_ns("a"), vec![30.0]);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        t.begin("request", 1);
        assert_eq!(t.span("x", || 7), 7);
        t.end();
        assert!(t.into_spans().is_empty());
    }
}
