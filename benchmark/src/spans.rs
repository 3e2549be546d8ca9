//! Spans around the calls into each layer: name, start, end and the span
//! that caused it. Kept in memory while the traced run measures and
//! written once at the end, in Chrome `trace_event` form so the file
//! opens next to a `hemprof --perfetto` export.

use std::time::Instant;

use hem_obs::json::Json;

use crate::jsonio::{count, num, obj, string, to_string};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// An open span; close it with [`Tracer::end`].
#[must_use]
#[derive(Clone, Copy)]
pub struct Open(usize);

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        Open(index)
    }

    /// Close a span; returns its duration in seconds.
    pub fn end(&mut self, span: Open) -> f64 {
        let now = self.now_ns();
        assert_eq!(self.open.pop(), Some(span.0), "spans close innermost first");
        let s = &mut self.spans[span.0];
        s.end_ns = now;
        (s.end_ns - s.start_ns) as f64 * 1e-9
    }

    /// Time one call as a leaf span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.begin(name);
        let value = f();
        self.end(span);
        value
    }

    /// Summed duration, in seconds, of the spans called `name` that lie
    /// directly under `parent`.
    pub fn total_under(&self, parent: Open, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(parent.0) && s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum::<u64>() as f64
            * 1e-9
    }

    /// A span's duration minus the part its children cover.
    pub fn self_ns(&self, index: usize) -> u64 {
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        (self.spans[index].end_ns - self.spans[index].start_ns).saturating_sub(covered)
    }

    /// Chrome `trace_event` JSON: one complete (`X`) event per span,
    /// microsecond timestamps, parent and self time in `args`.
    pub fn chrome_json(&self, workload: &str) -> String {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                obj([
                    ("name", string(s.name)),
                    ("cat", string(workload)),
                    ("ph", string("X")),
                    ("pid", count(1)),
                    ("tid", count(1)),
                    ("ts", num(s.start_ns as f64 / 1e3)),
                    ("dur", num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    (
                        "args",
                        obj([
                            ("id", count(i as u64)),
                            ("parent", s.parent.map_or(Json::Null, |p| count(p as u64))),
                            ("self_us", num(self.self_ns(i) as f64 / 1e3)),
                            ("workload", string(workload)),
                        ]),
                    ),
                ])
            })
            .collect();
        to_string(&obj([("traceEvents", Json::Arr(events))]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut tr = Tracer::new();
        let outer = tr.begin("pass");
        let x = tr.time("core.run", || {
            std::hint::black_box((0..50_000u64).sum::<u64>())
        });
        tr.time("core.run", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tr.time("obs.rollup", || ());
        assert!(x > 0);
        let runs = tr.total_under(outer, "core.run");
        assert!(runs >= 0.002, "{runs}");
        assert_eq!(tr.total_under(outer, "absent"), 0.0);
        let total = tr.end(outer);
        assert!(total >= runs);

        assert_eq!(tr.spans[0].parent, None);
        assert!(tr.spans[1..].iter().all(|s| s.parent == Some(0)));
        let children: u64 = tr.spans[1..].iter().map(|s| s.end_ns - s.start_ns).sum();
        let whole = tr.spans[0].end_ns - tr.spans[0].start_ns;
        assert_eq!(tr.self_ns(0), whole - children);
    }

    #[test]
    fn chrome_export_is_valid_json_with_one_event_per_span() {
        let mut tr = Tracer::new();
        let outer = tr.begin("pass");
        tr.time("ir.build", || ());
        tr.end(outer);
        let doc = Json::parse(&tr.chrome_json("fib_p1")).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("events");
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1].get("name").and_then(Json::as_str),
            Some("ir.build")
        );
        let args = events[1].get("args").expect("args");
        assert_eq!(args.get("parent").and_then(Json::as_num), Some(0.0));
        assert_eq!(args.get("workload").and_then(Json::as_str), Some("fib_p1"));
    }
}
