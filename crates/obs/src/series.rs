//! Virtual-time series metrics.
//!
//! A streaming [`Observer`] that buckets the trace into fixed
//! virtual-time windows and accumulates, per bucket:
//!
//! * **offered vs completed rate** — request arrivals, sheds, and reply
//!   deliveries counted into the bucket of their timestamp;
//! * **in-flight requests** — admitted minus completed, cumulative at
//!   each bucket's end (an exact integral of the arrival/done events, so
//!   it is order-independent and executor-invariant);
//! * **queue depth** — cycles messages spent waiting between wire
//!   delivery and handling (`MsgHandled.deliver .. at`), time-weighted
//!   across the buckets the wait spans; divided by the window this is
//!   the mean number of waiting messages;
//! * **per-node occupancy** — cycles each node spent inside dispatched
//!   scheduler steps (`EventStart .. EventEnd`), split across buckets.
//!
//! Everything is integer arithmetic over the (executor-invariant) record
//! stream, so the series is bit-identical across executors and thread
//! counts. [`SeriesSummary`] renders to JSON and to Perfetto counter
//! tracks (see [`crate::perfetto::to_json_full`]).

use std::fmt::Write as _;

use hem_core::{Observer, TraceEvent, TraceRecord};

use crate::json::{self, obj, Value, Writer};

/// Per-bucket accumulators.
#[derive(Debug, Clone, Default)]
struct Bucket {
    arrived: u64,
    done: u64,
    shed: u64,
    queue_wait: u64,
    busy: Vec<u64>,
}

/// The streaming series collector. Build with a window width in cycles,
/// attach as an observer (or replay a drained trace), then call
/// [`Series::summary`].
#[derive(Debug)]
pub struct Series {
    window: u64,
    buckets: Vec<Bucket>,
    nodes: usize,
    open_step: Vec<Option<u64>>,
}

impl Series {
    /// A collector with the given window width (cycles; clamped to ≥ 1).
    pub fn new(window: u64) -> Series {
        Series {
            window: window.max(1),
            buckets: Vec::new(),
            nodes: 0,
            open_step: Vec::new(),
        }
    }

    /// Replay a drained trace.
    pub fn from_records(window: u64, records: &[TraceRecord]) -> Series {
        let mut s = Series::new(window);
        for r in records {
            s.feed(r);
        }
        s
    }

    fn bucket(&mut self, at: u64) -> &mut Bucket {
        let i = (at / self.window) as usize;
        if i >= self.buckets.len() {
            self.buckets.resize_with(i + 1, Bucket::default);
        }
        &mut self.buckets[i]
    }

    fn note_node(&mut self, node: u32) {
        let n = node as usize + 1;
        if n > self.nodes {
            self.nodes = n;
            self.open_step.resize(n, None);
        }
    }

    /// Distribute a half-open span `[start, end)` across the buckets it
    /// overlaps, adding each overlap to the accessor's target field.
    fn add_span(&mut self, start: u64, end: u64, node: Option<u32>) {
        if end <= start {
            return;
        }
        let w = self.window;
        let mut t = start;
        while t < end {
            let bucket_end = (t / w + 1) * w;
            let stop = bucket_end.min(end);
            let b = self.bucket(t);
            match node {
                None => b.queue_wait += stop - t,
                Some(n) => {
                    let n = n as usize;
                    if b.busy.len() <= n {
                        b.busy.resize(n + 1, 0);
                    }
                    b.busy[n] += stop - t;
                }
            }
            t = stop;
        }
    }

    /// Feed one record (the observer hook calls this).
    pub fn feed(&mut self, rec: &TraceRecord) {
        match rec.event {
            TraceEvent::RequestArrived { .. } => self.bucket(rec.at).arrived += 1,
            TraceEvent::RequestDone { .. } => self.bucket(rec.at).done += 1,
            TraceEvent::RequestShed { .. } => self.bucket(rec.at).shed += 1,
            TraceEvent::MsgHandled { deliver, .. } => {
                self.add_span(deliver, rec.at, None);
            }
            TraceEvent::EventStart { node, .. } => {
                self.note_node(node.0);
                self.open_step[node.0 as usize] = Some(rec.at);
            }
            TraceEvent::EventEnd { node } => {
                self.note_node(node.0);
                if let Some(start) = self.open_step[node.0 as usize].take() {
                    self.add_span(start, rec.at, Some(node.0));
                }
            }
            _ => {}
        }
    }

    /// Aggregate into the report section: contiguous buckets from t = 0,
    /// per-node busy vectors padded to the machine size, and the
    /// cumulative in-flight count at each bucket's end.
    pub fn summary(&self) -> SeriesSummary {
        let mut out = SeriesSummary {
            window: self.window,
            nodes: self.nodes,
            buckets: Vec::with_capacity(self.buckets.len()),
        };
        let mut in_flight = 0i64;
        for (i, b) in self.buckets.iter().enumerate() {
            in_flight += b.arrived as i64 - b.done as i64;
            let mut busy = b.busy.clone();
            busy.resize(self.nodes, 0);
            out.buckets.push(SeriesBucket {
                start: i as u64 * self.window,
                arrived: b.arrived,
                done: b.done,
                shed: b.shed,
                in_flight: in_flight.max(0) as u64,
                queue_wait: b.queue_wait,
                busy,
            });
        }
        out
    }
}

impl Observer for Series {
    fn on_record(&mut self, rec: &TraceRecord) {
        self.feed(rec);
    }
}

/// One window of the series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesBucket {
    /// Bucket start (virtual time).
    pub start: u64,
    /// Requests admitted into the machine in this window.
    pub arrived: u64,
    /// Requests whose reply was delivered in this window.
    pub done: u64,
    /// Requests shed in this window (offered = arrived + shed).
    pub shed: u64,
    /// Admitted-minus-completed, cumulative at the window's end.
    pub in_flight: u64,
    /// Cycles messages spent between delivery and handling inside this
    /// window; `queue_wait / window` is the mean waiting-message count.
    pub queue_wait: u64,
    /// Cycles each node spent inside dispatched steps in this window
    /// (length = machine size).
    pub busy: Vec<u64>,
}

impl SeriesBucket {
    /// Total busy cycles across all nodes in this window.
    pub fn busy_total(&self) -> u64 {
        self.busy.iter().sum()
    }
}

/// The aggregated series a report carries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SeriesSummary {
    /// Window width (cycles).
    pub window: u64,
    /// Machine size (nodes observed dispatching).
    pub nodes: usize,
    /// Contiguous windows from t = 0.
    pub buckets: Vec<SeriesBucket>,
}

impl SeriesSummary {
    /// Render the text section (one row per window).
    pub fn text(&self) -> String {
        let mut o = String::new();
        let _ = writeln!(
            o,
            "series (window {} cycles; queue-wait and busy are cycle integrals):",
            self.window
        );
        let _ = writeln!(
            o,
            "  {:>10} {:>8} {:>8} {:>6} {:>9} {:>12} {:>12}",
            "t", "arrived", "done", "shed", "in-flight", "queue-wait", "busy-total"
        );
        for b in &self.buckets {
            let _ = writeln!(
                o,
                "  {:>10} {:>8} {:>8} {:>6} {:>9} {:>12} {:>12}",
                b.start,
                b.arrived,
                b.done,
                b.shed,
                b.in_flight,
                b.queue_wait,
                b.busy_total()
            );
        }
        o
    }

    /// Render the JSON section (the value of the report's `"series"` key).
    pub fn json(&self) -> String {
        json::to_string(self)
    }
}

impl Value for SeriesSummary {
    fn write_to(&self, w: &mut Writer<'_>) {
        obj!(w, "window": self.window, "nodes": self.nodes, "buckets": |w| w.arr(|w| {
            for b in &self.buckets {
                obj!(w, "t": b.start, "arrived": b.arrived, "done": b.done, "shed": b.shed,
                    "in_flight": b.in_flight, "queue_wait": b.queue_wait, "busy": &b.busy[..]);
            }
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hem_core::{MsgCause, TraceEvent, TraceRecord};
    use hem_machine::NodeId;

    fn rec(at: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord { at, event }
    }

    fn stream() -> Vec<TraceRecord> {
        vec![
            rec(
                10,
                TraceEvent::RequestArrived {
                    node: NodeId(0),
                    req: 0,
                },
            ),
            rec(
                15,
                TraceEvent::EventStart {
                    node: NodeId(0),
                    kind: 0,
                    req: 1,
                },
            ),
            // Message waited 90..115 across the 100-cycle bucket edge.
            rec(
                115,
                TraceEvent::MsgHandled {
                    node: NodeId(0),
                    from: NodeId(1),
                    wire: 0,
                    cause: MsgCause::Request,
                    req: 1,
                    deliver: 90,
                    retx: false,
                },
            ),
            rec(130, TraceEvent::EventEnd { node: NodeId(0) }),
            rec(
                150,
                TraceEvent::RequestDone {
                    node: NodeId(0),
                    req: 0,
                },
            ),
            rec(
                160,
                TraceEvent::RequestShed {
                    node: NodeId(0),
                    req: 1,
                },
            ),
        ]
    }

    #[test]
    fn buckets_count_and_spans_split_at_window_edges() {
        let s = Series::from_records(100, &stream()).summary();
        assert_eq!(s.window, 100);
        assert_eq!(s.nodes, 1);
        assert_eq!(s.buckets.len(), 2);
        let (b0, b1) = (&s.buckets[0], &s.buckets[1]);
        assert_eq!((b0.arrived, b0.done, b0.shed), (1, 0, 0));
        assert_eq!((b1.arrived, b1.done, b1.shed), (0, 1, 1));
        assert_eq!(b0.in_flight, 1, "arrived, not yet done");
        assert_eq!(b1.in_flight, 0, "done in bucket 1");
        // Queue wait 90..115 splits 10 / 15 across the edge.
        assert_eq!(b0.queue_wait, 10);
        assert_eq!(b1.queue_wait, 15);
        // Step 15..130 splits 85 / 30.
        assert_eq!(b0.busy, vec![85]);
        assert_eq!(b1.busy, vec![30]);
    }

    #[test]
    fn json_parses_and_matches_buckets() {
        let s = Series::from_records(100, &stream()).summary();
        let doc = crate::json::Json::parse(&s.json()).expect("valid json");
        assert_eq!(doc.get("window").unwrap().as_num(), Some(100.0));
        let buckets = doc.get("buckets").unwrap().as_arr().unwrap();
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[1].get("queue_wait").unwrap().as_num(), Some(15.0));
        let busy = buckets[0].get("busy").unwrap().as_arr().unwrap();
        assert_eq!(busy[0].as_num(), Some(85.0));
        let text = s.text();
        assert!(text.contains("in-flight"));
    }

    #[test]
    fn observer_and_replay_agree() {
        let recs = stream();
        let mut obs = Series::new(64);
        for r in &recs {
            obs.on_record(r);
        }
        obs.on_flush();
        assert_eq!(
            obs.summary(),
            Series::from_records(64, &recs).summary(),
            "streaming and replay see the same series"
        );
    }

    #[test]
    fn window_is_clamped_to_one() {
        let s = Series::new(0);
        assert_eq!(s.window, 1);
    }
}
