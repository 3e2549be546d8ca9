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
//! unit), so "1 µs" in the UI reads as one machine cycle. The writer is
//! hand-rolled — the environment has no serde — and its output is
//! validated by the integration tests through [`crate::json`].
//!
//! There is one writer, [`write_json`], generic over [`io::Write`]: it
//! reads nothing but the timeline (the adaptation instants included) and
//! emits each event as it walks it. [`to_json_full`] runs it into a
//! `String` for callers that want the document in memory.

use std::io::{self, Write};

use hem_core::TraceRecord;
use hem_ir::Program;

use crate::model::{InstantKind, Timeline};

/// Track ids within a node's process.
const TID_SCHED: u32 = 0;
const TID_CTX: u32 = 1;
const TID_REQ: u32 = 2;

/// The event-array writer: separators, braces and a byte count around a
/// caller's sink.
struct W<O: Write> {
    out: O,
    bytes: u64,
    first: bool,
}

impl<O: Write> Write for W<O> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.out.write(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

impl<O: Write> W<O> {
    fn new(out: O) -> io::Result<W<O>> {
        let mut w = W {
            out,
            bytes: 0,
            first: true,
        };
        w.write_all(b"{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")?;
        Ok(w)
    }

    /// Append one event object (the caller provides the inner fields).
    fn event(&mut self, inner: std::fmt::Arguments<'_>) -> io::Result<()> {
        let open: &[u8] = if self.first { b"{" } else { b",\n{" };
        self.first = false;
        self.write_all(open)?;
        self.write_fmt(inner)?;
        self.write_all(b"}")
    }

    /// Close the document and flush the sink; the bytes written.
    fn finish(mut self) -> io::Result<u64> {
        self.write_all(b"\n]}\n")?;
        self.flush()?;
        Ok(self.bytes)
    }
}

/// [`write_json`] into a `String`. `_records` is not read — the timeline
/// carries the adaptation instants itself ([`Timeline::instants`]); the
/// parameter stays so callers that drained a buffer keep compiling.
pub fn to_json_full(
    _records: &[TraceRecord],
    tl: &Timeline,
    program: &Program,
    spec: Option<&crate::SpecSummary>,
    series: Option<&crate::SeriesSummary>,
) -> String {
    let mut buf = Vec::new();
    write_json(&mut buf, tl, program, spec, series).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("the writer emits UTF-8")
}

/// Serialize a timeline to `out` as Perfetto-loadable JSON, event by
/// event as the timeline is walked — point it at a `BufWriter<File>` and
/// the document never exists in memory. Flushes `out` before returning
/// (so a buffered sink's last error is reported, not dropped) and returns
/// the number of bytes written.
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
    out: O,
    tl: &Timeline,
    program: &Program,
    spec: Option<&crate::SpecSummary>,
    series: Option<&crate::SeriesSummary>,
) -> io::Result<u64> {
    let mut w = W::new(out)?;
    // Escaped once per method, not once per event that names it.
    let names: Vec<String> = program
        .methods
        .iter()
        .map(|m| crate::json::escape(&m.name))
        .collect();

    if let Some(se) = series {
        // One process above both the node pids and the speculation pid.
        let pid = tl.n_nodes + 1;
        w.event(format_args!(
            "\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"series (window {} cycles)\"}}",
            se.window
        ))?;
        for b in &se.buckets {
            let ts = b.start;
            w.event(format_args!(
                "\"ph\":\"C\",\"cat\":\"series\",\"name\":\"load\",\"pid\":{pid},\"tid\":0,\
                 \"ts\":{ts},\"args\":{{\"arrived\":{},\"done\":{},\"shed\":{}}}",
                b.arrived, b.done, b.shed
            ))?;
            w.event(format_args!(
                "\"ph\":\"C\",\"cat\":\"series\",\"name\":\"in-flight\",\"pid\":{pid},\
                 \"tid\":0,\"ts\":{ts},\"args\":{{\"requests\":{}}}",
                b.in_flight
            ))?;
            w.event(format_args!(
                "\"ph\":\"C\",\"cat\":\"series\",\"name\":\"queue wait\",\"pid\":{pid},\
                 \"tid\":0,\"ts\":{ts},\"args\":{{\"cycles\":{}}}",
                b.queue_wait
            ))?;
            w.event(format_args!(
                "\"ph\":\"C\",\"cat\":\"series\",\"name\":\"occupancy\",\"pid\":{pid},\
                 \"tid\":0,\"ts\":{ts},\"args\":{{\"busy_cycles\":{}}}",
                b.busy_total()
            ))?;
        }
    }

    if let Some(s) = spec {
        // One process above the node pids; counters are totals stamped at
        // the end of the run (the executor validates at window barriers,
        // so there is no meaningful per-cycle series to plot).
        let pid = tl.n_nodes;
        let at = tl.makespan;
        w.event(format_args!(
            "\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"speculation ({} threads)\"}}",
            s.threads
        ))?;
        w.event(format_args!(
            "\"ph\":\"C\",\"cat\":\"spec\",\"name\":\"windows\",\"pid\":{pid},\"tid\":0,\
             \"ts\":{at},\"args\":{{\"committed\":{},\"rolled_back\":{},\"serial_steps\":{}}}",
            s.windows, s.rollbacks, s.serial_steps
        ))?;
        w.event(format_args!(
            "\"ph\":\"C\",\"cat\":\"spec\",\"name\":\"rollback cost\",\"pid\":{pid},\"tid\":0,\
             \"ts\":{at},\"args\":{{\"anti_messages\":{},\"ckpt_nodes\":{}}}",
            s.anti_messages, s.ckpt_nodes
        ))?;
    }

    // Process/thread naming metadata.
    for n in 0..tl.n_nodes {
        w.event(format_args!(
            "\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{n},\"tid\":0,\
             \"args\":{{\"name\":\"node {n}\"}}"
        ))?;
        w.event(format_args!(
            "\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{n},\"tid\":{TID_SCHED},\
             \"args\":{{\"name\":\"sched\"}}"
        ))?;
        w.event(format_args!(
            "\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{n},\"tid\":{TID_CTX},\
             \"args\":{{\"name\":\"contexts\"}}"
        ))?;
        if !tl.requests.is_empty() {
            w.event(format_args!(
                "\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{n},\"tid\":{TID_REQ},\
                 \"args\":{{\"name\":\"requests\"}}"
            ))?;
        }
    }

    // Scheduler steps as complete slices.
    for steps in &tl.steps {
        for s in steps {
            w.event(format_args!(
                "\"ph\":\"X\",\"cat\":\"sched\",\"name\":\"{}\",\"pid\":{},\
                 \"tid\":{TID_SCHED},\"ts\":{},\"dur\":{},\
                 \"args\":{{\"msgs\":{}}}",
                s.kind_name(),
                s.node,
                s.start,
                s.end - s.start,
                s.msgs.len(),
            ))?;
        }
    }

    // Context residency as async spans (id = span index; ids are unique
    // trace-wide so `cat`+`id` matching never collides across reuse).
    for (i, c) in tl.ctx_spans.iter().enumerate() {
        let fallback = if c.fallback { "fallback " } else { "" };
        let method = &names[c.method.0 as usize];
        w.event(format_args!(
            "\"ph\":\"b\",\"cat\":\"ctx\",\"name\":\"{fallback}{method} ctx{}\",\"id\":{i},\
             \"pid\":{},\"tid\":{TID_CTX},\"ts\":{}",
            c.ctx, c.node, c.start
        ))?;
        let end = c.end.unwrap_or(tl.makespan);
        w.event(format_args!(
            "\"ph\":\"e\",\"cat\":\"ctx\",\"name\":\"{fallback}{method} ctx{}\",\"id\":{i},\
             \"pid\":{},\"tid\":{TID_CTX},\"ts\":{end}",
            c.ctx, c.node
        ))?;
    }

    // External request sojourns (open-system runs) as async spans on the
    // target node's "requests" track; shed requests are instants. Ids are
    // unique within `cat` "req", so they never collide with ctx spans.
    for (i, r) in tl.requests.iter().enumerate() {
        if r.shed {
            w.event(format_args!(
                "\"ph\":\"i\",\"s\":\"t\",\"cat\":\"req\",\"name\":\"shed req{}\",\
                 \"pid\":{},\"tid\":{TID_REQ},\"ts\":{}",
                r.req, r.node, r.start
            ))?;
            continue;
        }
        w.event(format_args!(
            "\"ph\":\"b\",\"cat\":\"req\",\"name\":\"req{}\",\"id\":{i},\
             \"pid\":{},\"tid\":{TID_REQ},\"ts\":{}",
            r.req, r.node, r.start
        ))?;
        let end = r.end.unwrap_or(tl.makespan).max(r.start);
        w.event(format_args!(
            "\"ph\":\"e\",\"cat\":\"req\",\"name\":\"req{}\",\"id\":{i},\
             \"pid\":{},\"tid\":{TID_REQ},\"ts\":{end}",
            r.req, r.node
        ))?;
    }

    // Message flows as arrows between sched tracks.
    for (i, f) in tl.flows.iter().enumerate() {
        w.event(format_args!(
            "\"ph\":\"s\",\"cat\":\"msg\",\"name\":\"{}\",\"id\":{i},\
             \"pid\":{},\"tid\":{TID_SCHED},\"ts\":{}",
            f.cause, f.from, f.sent_at
        ))?;
        w.event(format_args!(
            "\"ph\":\"f\",\"bp\":\"e\",\"cat\":\"msg\",\"name\":\"{}\",\"id\":{i},\
             \"pid\":{},\"tid\":{TID_SCHED},\"ts\":{}",
            f.cause, f.to, f.handled_at
        ))?;
    }

    // Adaptation instants.
    for i in &tl.instants {
        let (node, at) = (i.node, i.at);
        let head = format_args!("\"ph\":\"i\",\"s\":\"t\",\"cat\":\"adapt\",\"name\":");
        let tail = format_args!("\"pid\":{node},\"tid\":{TID_SCHED},\"ts\":{at}");
        match i.kind {
            InstantKind::Fallback(m) => w.event(format_args!(
                "{head}\"fallback {}\",{tail}",
                names[m.0 as usize]
            )),
            InstantKind::ShellAdopted(m) => w.event(format_args!(
                "{head}\"shell adopted {}\",{tail}",
                names[m.0 as usize]
            )),
            InstantKind::Retransmit { to, attempt } => w.event(format_args!(
                "{head}\"retransmit->n{to} #{attempt}\",{tail}"
            )),
        }?;
    }

    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
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
        let a = NodeId(0);
        let recs = vec![
            TraceRecord {
                at: 0,
                event: TraceEvent::EventStart {
                    node: a,
                    kind: 1,
                    req: 0,
                },
            },
            TraceRecord {
                at: 6,
                event: TraceEvent::EventEnd { node: a },
            },
        ];
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
        let a = NodeId(0);
        let b = NodeId(1);
        let recs = vec![
            TraceRecord {
                at: 0,
                event: TraceEvent::EventStart {
                    node: a,
                    kind: 1,
                    req: 0,
                },
            },
            TraceRecord {
                at: 1,
                event: TraceEvent::ParInvoke {
                    node: a,
                    method: hem_ir::MethodId(0),
                    ctx: 0,
                },
            },
            TraceRecord {
                at: 2,
                event: TraceEvent::MsgSent {
                    from: a,
                    to: b,
                    words: 3,
                    cause: MsgCause::Request,
                    req: 0,
                },
            },
            TraceRecord {
                at: 5,
                event: TraceEvent::CtxFreed { node: a, ctx: 0 },
            },
            TraceRecord {
                at: 6,
                event: TraceEvent::EventEnd { node: a },
            },
            TraceRecord {
                at: 9,
                event: TraceEvent::EventStart {
                    node: b,
                    kind: 0,
                    req: 0,
                },
            },
            TraceRecord {
                at: 9,
                event: TraceEvent::MsgHandled {
                    node: b,
                    from: a,
                    words: 3,
                    cause: MsgCause::Request,
                    req: 0,
                    deliver: 0,
                    retx: false,
                },
            },
            TraceRecord {
                at: 12,
                event: TraceEvent::EventEnd { node: b },
            },
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

        let a = NodeId(0);
        let recs = vec![
            TraceRecord {
                at: 0,
                event: TraceEvent::EventStart {
                    node: a,
                    kind: 1,
                    req: 0,
                },
            },
            TraceRecord {
                at: 3,
                event: TraceEvent::Fallback {
                    node: a,
                    method: hem_ir::MethodId(0),
                    ctx: 0,
                },
            },
            TraceRecord {
                at: 4,
                event: TraceEvent::Retransmit {
                    node: a,
                    to: NodeId(1),
                    attempt: 2,
                },
            },
            TraceRecord {
                at: 6,
                event: TraceEvent::EventEnd { node: a },
            },
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
            TraceRecord {
                at: 10,
                event: TraceEvent::RequestArrived { node: n, req: 1 },
            },
            TraceRecord {
                at: 12,
                event: TraceEvent::RequestShed { node: n, req: 2 },
            },
            TraceRecord {
                at: 11,
                event: TraceEvent::EventStart {
                    node: n,
                    kind: 0,
                    req: 0,
                },
            },
            TraceRecord {
                at: 30,
                event: TraceEvent::RequestDone { node: n, req: 1 },
            },
            TraceRecord {
                at: 30,
                event: TraceEvent::EventEnd { node: n },
            },
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
