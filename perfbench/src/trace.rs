//! Bench-side tracing: one span around each layer call the benchmark
//! makes, kept in memory and written at the end as Chrome-trace JSON
//! (loadable in Perfetto).
//!
//! A span has a name, a start, an end, a parent and the id of the query
//! it belongs to. Layer calls nest under a `query` span; diagnostic calls
//! (`plan.explain`, `engine.profile`, the thread re-runs) are roots of
//! their own, and the diagnostics of one text share an id. Every finished
//! span feeds a per-name duration sample, so the per-layer medians cover
//! the whole traced phase even though only the first [`KEEP_SPANS`]
//! records are kept for the timeline file.

use arc_core::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Span records kept for the timeline file; later spans still feed the
/// per-name samples.
pub const KEEP_SPANS: usize = 50_000;

/// Name of the span that encloses every layer call of one query.
pub const QUERY: &str = "query";

#[derive(Debug, Clone)]
struct SpanRec {
    name: &'static str,
    query: u64,
    id: u64,
    parent: Option<u64>,
    start_ns: u64,
    end_ns: u64,
}

/// Handle returned by [`Tracer::begin`]; `None` when tracing is off.
pub type Token = Option<usize>;

/// In-memory span recorder. When off, `begin`/`end` do nothing.
pub struct Tracer {
    on: bool,
    origin: Instant,
    next_id: u64,
    query: u64,
    /// Spans of the query in flight (and diagnostic roots), closed or not.
    open: Vec<SpanRec>,
    stack: Vec<usize>,
    kept: Vec<SpanRec>,
    /// Span name → durations in nanoseconds.
    samples: BTreeMap<&'static str, Vec<u64>>,
    query_ns: u64,
    child_ns: u64,
}

impl Tracer {
    /// A recorder that records (`on`) or does nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            next_id: 1,
            query: 0,
            open: Vec::new(),
            stack: Vec::new(),
            kept: Vec::new(),
            samples: BTreeMap::new(),
            query_ns: 0,
            child_ns: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start a new query id for the next spans.
    pub fn next_query(&mut self) {
        self.query += 1;
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Token {
        if !self.on {
            return None;
        }
        let idx = self.open.len();
        let parent = self.stack.last().map(|&i| self.open[i].id);
        self.open.push(SpanRec {
            name,
            query: self.query,
            id: self.next_id,
            parent,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.next_id += 1;
        self.stack.push(idx);
        Some(idx)
    }

    /// Close a span. Spans left open by a panic are closed with it.
    pub fn end(&mut self, token: Token) {
        let Some(idx) = token else { return };
        let now = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.open[top].end_ns = now;
            if top == idx {
                break;
            }
        }
        if self.stack.is_empty() {
            self.flush();
        }
    }

    /// Time `f` as a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let token = self.begin(name);
        let out = f();
        self.end(token);
        out
    }

    /// Move the finished tree into the samples and the kept records, and
    /// account the root's time not covered by its direct children.
    fn flush(&mut self) {
        let Some(root) = self.open.first() else {
            return;
        };
        if root.name == QUERY {
            let root_id = root.id;
            let total = root.end_ns - root.start_ns;
            let children: u64 = self
                .open
                .iter()
                .filter(|s| s.parent == Some(root_id))
                .map(|s| s.end_ns - s.start_ns)
                .sum();
            self.query_ns += total;
            self.child_ns += children.min(total);
        }
        for s in self.open.drain(..) {
            self.samples
                .entry(s.name)
                .or_default()
                .push(s.end_ns - s.start_ns);
            if self.kept.len() < KEEP_SPANS {
                self.kept.push(s);
            }
        }
    }

    /// Durations (ns) recorded under `name`.
    pub fn samples(&self, name: &str) -> &[u64] {
        self.samples.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Share of the query spans' time not covered by their child layer
    /// spans, with the number of query spans.
    pub fn unattributed_share(&self) -> (f64, usize) {
        let n = self.samples(QUERY).len();
        if self.query_ns == 0 {
            return (0.0, n);
        }
        (
            (self.query_ns - self.child_ns) as f64 / self.query_ns as f64,
            n,
        )
    }

    /// The kept spans as a Chrome Trace Event Format document, with
    /// `meta` as its `otherData`.
    pub fn chrome_json(&self, meta: &Json) -> String {
        let events = self
            .kept
            .iter()
            .map(|s| {
                let parent = s.parent.map_or(Json::Null, |p| Json::Int(p as i64));
                Json::obj([
                    ("name", Json::Str(s.name.to_string())),
                    ("cat", Json::Str("bench".to_string())),
                    ("ph", Json::Str("X".to_string())),
                    ("pid", Json::Int(1)),
                    ("tid", Json::Int(1)),
                    ("ts", Json::Float(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Float((s.end_ns - s.start_ns) as f64 / 1e3)),
                    (
                        "args",
                        Json::obj([
                            ("query", Json::Int(s.query as i64)),
                            ("span", Json::Int(s.id as i64)),
                            ("parent", parent),
                        ]),
                    ),
                ])
            })
            .collect();
        let doc = Json::obj([
            ("displayTimeUnit", Json::Str("ms".to_string())),
            ("otherData", meta.clone()),
            ("traceEvents", Json::Arr(events)),
        ]);
        format!("{doc}\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_and_unattributed_time_is_the_rest() {
        let mut t = Tracer::new(true);
        t.next_query();
        let q = t.begin(QUERY);
        t.span("parser.parse", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(q);
        assert_eq!(t.samples(QUERY).len(), 1);
        assert_eq!(t.samples("parser.parse").len(), 1);
        let (share, n) = t.unattributed_share();
        assert_eq!(n, 1);
        assert!(share > 0.2 && share < 0.9, "{share}");
        let json = t.chrome_json(&Json::Null);
        assert!(json.contains("\"parent\":1") && json.contains("\"query\":1"));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let q = t.begin(QUERY);
        t.end(q);
        assert!(t.samples(QUERY).is_empty());
    }
}
