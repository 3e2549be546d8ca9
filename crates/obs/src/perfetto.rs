//! Chrome/Perfetto `trace_event` export.
//!
//! Serializes a [`Timeline`] into the JSON Trace Event Format that
//! `chrome://tracing` and [ui.perfetto.dev](https://ui.perfetto.dev)
//! load directly:
//!
//! * each simulated node becomes a *process* (`pid` = node id) with two
//!   tracks: `tid` 0 "sched" (scheduler steps as `X` complete slices) and
//!   `tid` 1 "contexts" (heap-context residency as `b`/`e` async spans);
//! * matched message flows become `s`/`f` flow arrows from the sender's
//!   sched track to the receiver's;
//! * fallbacks and shell adoptions become instant events — the moments
//!   the hybrid model *adapted*.
//!
//! Virtual cycles are written one-per-microsecond (the format's `ts`
//! unit), so "1 µs" in the UI reads as one machine cycle.
//!
//! There is one exporter, [`write_json`], generic over [`io::Write`]: it
//! reads nothing but the timeline (the adaptation instants included) and
//! writes each event through the crate's JSON writer as it walks it, one
//! event per line. [`to_json_full`] runs it into a `String` for callers
//! that want the document in memory.

use std::io::{self, Write};

use hem_core::TraceRecord;
use hem_ir::Program;

use crate::json::{self, obj, Value, Writer};
use crate::model::{InstantKind, Timeline};
use crate::{SeriesSummary, SpecSummary};

/// Track ids within a node's process.
const TID_SCHED: u32 = 0;
const TID_CTX: u32 = 1;
const TID_REQ: u32 = 2;

/// [`write_json`] into a `String`. `_records` is not read — the timeline
/// carries the adaptation instants itself ([`Timeline::instants`]); the
/// parameter stays so callers that drained a buffer keep compiling.
pub fn to_json_full(
    _records: &[TraceRecord],
    tl: &Timeline,
    program: &Program,
    spec: Option<&SpecSummary>,
    series: Option<&SeriesSummary>,
) -> String {
    json::to_string(&Export(tl, program, spec, series))
}

/// Serialize a timeline to `out` as Perfetto-loadable JSON, event by
/// event as the timeline is walked; the writer hands `out` its output in
/// chunks, so the document never exists in memory. Flushes `out` before
/// returning (so a buffered sink's last error is reported, not dropped)
/// and returns the number of bytes written.
///
/// `spec` adds a speculative-executor diagnostics track: a synthetic
/// "speculation" process whose counter (`C`) events carry the run's
/// committed-window / rollback / anti-message totals, so a
/// `hemprof --speculative --perfetto` capture shows how much optimism the
/// host execution spent next to what the simulated machine did.
///
/// `series` adds virtual-time series counter tracks: a synthetic "series"
/// process whose `C` events plot the windowed load (arrived/done/shed),
/// in-flight requests, queue-wait integral, and total node occupancy over
/// virtual time — one sample per series window, stamped at the window's
/// start.
pub fn write_json<O: Write>(
    mut out: O,
    tl: &Timeline,
    program: &Program,
    spec: Option<&SpecSummary>,
    series: Option<&SeriesSummary>,
) -> io::Result<u64> {
    let mut w = Writer::new(&mut out);
    Export(tl, program, spec, series).write_to(&mut w);
    w.finish()
}

/// What a trace-event file is written from: [`write_json`]'s arguments.
struct Export<'a>(
    &'a Timeline,
    &'a Program,
    Option<&'a SpecSummary>,
    Option<&'a SeriesSummary>,
);

/// The whole file: the events, one per line, and a final newline.
impl Value for Export<'_> {
    fn write_to(&self, w: &mut Writer<'_>) {
        obj!(w, "displayTimeUnit": "ns", "traceEvents": |w| w.lines(|w| events(w, self))).newline();
    }
}

/// The trace events, in file order.
fn events(w: &mut Writer<'_>, &Export(tl, program, spec, series): &Export<'_>) {
    if let Some(se) = series {
        // One process above both the node pids and the speculation pid.
        let pid = tl.n_nodes + 1;
        obj!(w, "ph": "M", "name": "process_name", "pid": pid, "tid": 0u32,
            "args": { "name": format_args!("series (window {} cycles)", se.window) });
        for b in &se.buckets {
            let ts = b.start;
            obj!(w, "ph": "C", "cat": "series", "name": "load", "pid": pid, "tid": 0u32, "ts": ts,
                "args": { "arrived": b.arrived, "done": b.done, "shed": b.shed });
            obj!(w, "ph": "C", "cat": "series", "name": "in-flight", "pid": pid, "tid": 0u32,
                "ts": ts, "args": { "requests": b.in_flight });
            obj!(w, "ph": "C", "cat": "series", "name": "queue wait", "pid": pid, "tid": 0u32,
                "ts": ts, "args": { "cycles": b.queue_wait });
            obj!(w, "ph": "C", "cat": "series", "name": "occupancy", "pid": pid, "tid": 0u32,
                "ts": ts, "args": { "busy_cycles": b.busy_total() });
        }
    }

    if let Some(s) = spec {
        // One process above the node pids; counters are totals stamped at
        // the end of the run (the executor validates at window barriers,
        // so there is no meaningful per-cycle series to plot).
        let (pid, at) = (tl.n_nodes, tl.makespan);
        obj!(w, "ph": "M", "name": "process_name", "pid": pid, "tid": 0u32,
            "args": { "name": format_args!("speculation ({} threads)", s.threads) });
        obj!(w, "ph": "C", "cat": "spec", "name": "windows", "pid": pid, "tid": 0u32, "ts": at,
            "args": { "committed": s.windows, "rolled_back": s.rollbacks,
                "serial_steps": s.serial_steps });
        obj!(w, "ph": "C", "cat": "spec", "name": "rollback cost", "pid": pid, "tid": 0u32,
            "ts": at, "args": { "anti_messages": s.anti_messages, "ckpt_nodes": s.ckpt_nodes });
    }

    // Process/thread naming metadata; the requests track only when there
    // are requests.
    let tracks = [
        (TID_SCHED, "sched"),
        (TID_CTX, "contexts"),
        (TID_REQ, "requests"),
    ];
    let tracks = &tracks[..if tl.requests().next().is_none() { 2 } else { 3 }];
    for n in 0..tl.n_nodes {
        obj!(w, "ph": "M", "name": "process_name", "pid": n, "tid": 0u32,
            "args": { "name": format_args!("node {n}") });
        for &(tid, name) in tracks {
            obj!(w, "ph": "M", "name": "thread_name", "pid": n, "tid": tid,
                "args": { "name": name });
        }
    }

    // Scheduler steps as complete slices.
    for s in (0..tl.n_nodes).flat_map(|n| tl.steps(n)) {
        obj!(w, "ph": "X", "cat": "sched", "name": s.kind_name(), "pid": s.node,
            "tid": TID_SCHED, "ts": s.start, "dur": s.end - s.start,
            "args": { "msgs": s.handled });
    }

    // Context residency as async spans (id = span index; ids are unique
    // trace-wide so `cat`+`id` matching never collides across reuse).
    for (i, c) in tl.ctx_spans().enumerate() {
        let fallback = if c.fallback { "fallback " } else { "" };
        let method = &program.method(c.method).name;
        for (ph, ts) in [("b", c.start), ("e", c.end.unwrap_or(tl.makespan))] {
            obj!(w, "ph": ph, "cat": "ctx",
                "name": format_args!("{fallback}{method} ctx{}", c.ctx), "id": i,
                "pid": c.node, "tid": TID_CTX, "ts": ts);
        }
    }

    // External request sojourns (open-system runs) as async spans on the
    // target node's "requests" track; shed requests are instants. Ids are
    // unique within `cat` "req", so they never collide with ctx spans.
    for (i, r) in tl.requests().enumerate() {
        if r.shed {
            obj!(w, "ph": "i", "s": "t", "cat": "req", "name": format_args!("shed req{}", r.req),
                "pid": r.node, "tid": TID_REQ, "ts": r.start);
            continue;
        }
        let end = r.end.unwrap_or(tl.makespan).max(r.start);
        for (ph, ts) in [("b", r.start), ("e", end)] {
            obj!(w, "ph": ph, "cat": "req", "name": format_args!("req{}", r.req), "id": i,
                "pid": r.node, "tid": TID_REQ, "ts": ts);
        }
    }

    // Message flows as arrows between sched tracks.
    for (i, f) in tl.flows().enumerate() {
        obj!(w, "ph": "s", "cat": "msg", "name": format_args!("{}", f.cause), "id": i,
            "pid": f.from, "tid": TID_SCHED, "ts": f.sent_at);
        obj!(w, "ph": "f", "bp": "e", "cat": "msg", "name": format_args!("{}", f.cause),
            "id": i, "pid": f.to, "tid": TID_SCHED, "ts": f.handled_at);
    }

    // Adaptation instants.
    for i in tl.instants() {
        let mut instant = |name: std::fmt::Arguments<'_>| {
            obj!(w, "ph": "i", "s": "t", "cat": "adapt", "name": name, "pid": i.node,
                "tid": TID_SCHED, "ts": i.at);
        };
        match i.kind {
            InstantKind::Fallback(m) => {
                instant(format_args!("fallback {}", program.method(m).name))
            }
            InstantKind::ShellAdopted(m) => {
                instant(format_args!("shell adopted {}", program.method(m).name))
            }
            InstantKind::Retransmit { to, attempt } => {
                instant(format_args!("retransmit->n{to} #{attempt}"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::model::tests::{end, handled, rec, sent, start};
    use hem_core::{MsgCause, TraceEvent};
    use hem_machine::NodeId;

    fn program_with_one_method() -> Program {
        let mut pb = hem_ir::ProgramBuilder::new();
        let c = pb.class("C", false);
        let m = pb.declare(c, "m", 0);
        pb.define(m, |mb| mb.reply(0));
        pb.finish()
    }

    #[test]
    fn spec_counter_track_is_optional_and_parses() {
        let recs = vec![start(0, 0, 1), end(6, 0)];
        let tl = Timeline::build(&recs, 2);
        let program = program_with_one_method();
        // Without a summary the output is unchanged: no counter events.
        let plain =
            Json::parse(&to_json_full(&recs, &tl, &program, None, None)).expect("valid JSON");
        let count_c = |doc: &Json| {
            doc.get("traceEvents")
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .filter(|e| e.get("ph").and_then(|v| v.as_str()) == Some("C"))
                .count()
        };
        assert_eq!(count_c(&plain), 0);
        let spec = crate::SpecSummary {
            threads: 4,
            windows: 12,
            serial_steps: 3,
            rollbacks: 5,
            anti_messages: 9,
            ckpt_nodes: 40,
            max_window: 64,
        };
        let out = to_json_full(&recs, &tl, &program, Some(&spec), None);
        let doc = Json::parse(&out).expect("valid JSON");
        assert_eq!(count_c(&doc), 2, "windows + rollback-cost counters");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let windows = events
            .iter()
            .find(|e| e.get("name").and_then(|v| v.as_str()) == Some("windows"))
            .expect("windows counter");
        let args = windows.get("args").unwrap();
        assert_eq!(args.get("committed").unwrap().as_num(), Some(12.0));
        assert_eq!(args.get("rolled_back").unwrap().as_num(), Some(5.0));
        // The counter track lives on its own pid above the node pids.
        assert_eq!(windows.get("pid").unwrap().as_num(), Some(2.0));
    }

    #[test]
    fn exports_valid_json_with_slices_flows_and_spans() {
        let (node, method) = (NodeId(0), hem_ir::MethodId(0));
        let recs = vec![
            start(0, 0, 1),
            rec(
                1,
                TraceEvent::ParInvoke {
                    node,
                    method,
                    ctx: 0,
                },
            ),
            sent(2, 0, 1, 0, MsgCause::Request),
            rec(5, TraceEvent::CtxFreed { node, ctx: 0 }),
            end(6, 0),
            start(9, 1, 0),
            handled(9, 1, 0, 0),
            end(12, 1),
        ];
        let tl = Timeline::build(&recs, 2);
        let program = program_with_one_method();
        let out = to_json_full(&recs, &tl, &program, None, None);
        let doc = Json::parse(&out).expect("valid JSON");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let ph = |p: &str| {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(|v| v.as_str()) == Some(p))
                .count()
        };
        assert_eq!(ph("X"), 2, "one slice per step");
        assert_eq!(ph("s"), 1, "flow start");
        assert_eq!(ph("f"), 1, "flow end");
        assert_eq!(ph("b"), 1, "ctx span begin");
        assert_eq!(ph("e"), 1, "ctx span end");
        assert!(ph("M") >= 6, "naming metadata per node");
        // No open-system records: no "requests" track metadata.
        assert!(
            !events
                .iter()
                .any(|e| { e.get("cat").and_then(|v| v.as_str()) == Some("req") }),
            "closed-system trace has no request events"
        );
        // Every node has at least one slice.
        for n in 0..2 {
            assert!(
                events.iter().any(|e| {
                    e.get("ph").and_then(|v| v.as_str()) == Some("X")
                        && e.get("pid").and_then(|v| v.as_num()) == Some(n as f64)
                }),
                "node {n} has a slice"
            );
        }
    }

    #[test]
    fn writer_counts_its_bytes_and_surfaces_sink_errors() {
        /// Accepts `room` bytes, then fails every write; fails the flush
        /// when told to (a `BufWriter` reports its last error there).
        struct Sink {
            room: usize,
            flush_fails: bool,
        }
        impl Write for Sink {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.room == 0 {
                    return Err(io::Error::other("sink full"));
                }
                let n = buf.len().min(self.room);
                self.room -= n;
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                if self.flush_fails {
                    return Err(io::Error::other("flush failed"));
                }
                Ok(())
            }
        }

        let (node, method, to) = (NodeId(0), hem_ir::MethodId(0), NodeId(1));
        let recs = vec![
            start(0, 0, 1),
            rec(
                3,
                TraceEvent::Fallback {
                    node,
                    method,
                    ctx: 0,
                },
            ),
            rec(
                4,
                TraceEvent::Retransmit {
                    node,
                    to,
                    attempt: 2,
                },
            ),
            end(6, 0),
        ];
        let tl = Timeline::build(&recs, 2);
        let program = program_with_one_method();

        let text = to_json_full(&recs, &tl, &program, None, None);
        assert!(text.contains("\"name\":\"fallback m\""), "{text}");
        assert!(text.contains("\"name\":\"retransmit->n1 #2\""), "{text}");
        let mut buf = Vec::new();
        let bytes = write_json(&mut buf, &tl, &program, None, None).expect("a Vec takes it all");
        assert_eq!(bytes, text.len() as u64, "the count is the document's size");
        assert_eq!(buf, text.as_bytes(), "one writer behind both entry points");

        // An error anywhere in the document comes back, and so does the
        // one a buffered sink only reports when flushed.
        for room in [0, 10, text.len() - 1] {
            let sink = Sink {
                room,
                flush_fails: false,
            };
            let err = write_json(sink, &tl, &program, None, None).expect_err("sink fills up");
            assert_eq!(err.to_string(), "sink full", "room {room}");
        }
        let sink = Sink {
            room: usize::MAX,
            flush_fails: true,
        };
        let err = write_json(sink, &tl, &program, None, None).expect_err("flush fails");
        assert_eq!(err.to_string(), "flush failed");
    }

    #[test]
    fn request_spans_export_on_their_own_track() {
        let n = NodeId(0);
        let recs = vec![
            rec(10, TraceEvent::RequestArrived { node: n, req: 1 }),
            rec(12, TraceEvent::RequestShed { node: n, req: 2 }),
            start(11, 0, 0),
            rec(30, TraceEvent::RequestDone { node: n, req: 1 }),
            end(30, 0),
        ];
        let tl = Timeline::build(&recs, 1);
        let program = program_with_one_method();
        let out = to_json_full(&recs, &tl, &program, None, None);
        let doc = Json::parse(&out).expect("valid JSON");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let req = |p: &str| {
            events
                .iter()
                .filter(|e| {
                    e.get("cat").and_then(|v| v.as_str()) == Some("req")
                        && e.get("ph").and_then(|v| v.as_str()) == Some(p)
                })
                .count()
        };
        assert_eq!(req("b"), 1, "one request span begin");
        assert_eq!(req("e"), 1, "one request span end");
        assert_eq!(req("i"), 1, "shed instant");
        assert!(
            events.iter().any(|e| {
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(|v| v.as_str())
                    == Some("requests")
            }),
            "requests track named"
        );
    }
}
