//! Timeline reconstruction from the trace stream.
//!
//! [`TimelineBuilder`] is a `feed(&TraceRecord)` state machine and an
//! [`Observer`]: attached to a run (alone, or teed beside a rollup through
//! [`crate::Fanout`]) it builds the [`Timeline`] as the records are
//! generated, so neither the Perfetto export nor the critical path needs
//! the raw records kept anywhere. [`Timeline::build`] is the same builder
//! fed from a slice.
//!
//! `EventStart`/`EventEnd` pairs delimit scheduler steps; records between
//! a pair belong to the step. Records emitted *outside* any step come from
//! root invocations driven by the harness (`Runtime::call` runs the first
//! activation inline before the dispatch loop starts) and are folded into
//! synthetic *root* steps.
//!
//! Flows are exact. Every message record carries the wire number of the
//! copy it describes, and the runtime numbers each injection once: a
//! `MsgSent` enters the number in a map of copies in flight, the
//! `MsgHandled` that consumes it takes it out as a flow, and a
//! `DupSuppressed` or `MsgDropped` forgets it. A fault-plan duplicate
//! shares its original's number, so at most one of the two copies draws
//! an arrow; an external arrival names no send and draws none. Drops,
//! duplicates, jitter and retransmissions therefore never pair a handle
//! with the wrong send, and no flow is shorter than the wire.
//!
//! The timeline is kept as append-only logs of LEB128 varints, and every
//! reader decodes them in place: [`Step`], [`Flow`] and the span types
//! are the values its accessors yield, never what it stores. A time is
//! written as the zigzag difference from the one before it in the same
//! log, so a step costs about 5 B where the struct took 56, and a flow
//! about 6 B where it took 32. Each node's step log has a sparse index
//! (one `(start, offset)` mark every 64 steps) through which
//! [`Timeline::last_step_before`] decodes at most one block. Spans, whose
//! ends arrive later, are a start log plus an end table indexed by span,
//! in which `Cycles::MAX` marks a span still open.

use hem_core::{MsgCause, Observer, TraceEvent, TraceRecord};
use hem_ir::MethodId;
use hem_machine::Cycles;

use crate::U64Map;

/// Step kinds: the dispatch-loop candidate kinds plus the synthetic root.
pub const KIND_MSG: u8 = 0;
/// Local work (lock grant or ready context).
pub const KIND_LOCAL: u8 = 1;
/// Retransmission-timer sweep.
pub const KIND_TIMERS: u8 = 2;
/// Synthetic: harness-driven root invocation outside the dispatch loop.
pub const KIND_ROOT: u8 = 3;

/// Steps from one mark of a step log's index to the next.
const INDEX_EVERY: usize = 64;

/// The end-table entry of a span still open when the run finished.
const OPEN: Cycles = Cycles::MAX;

/// One scheduler step (or synthetic root span) on a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// The node.
    pub node: u32,
    /// `KIND_MSG` / `KIND_LOCAL` / `KIND_TIMERS` / `KIND_ROOT`.
    pub kind: u8,
    /// Clock when the step began.
    pub start: Cycles,
    /// Clock after all work charged in the step.
    pub end: Cycles,
    /// Messages handled within the step.
    pub handled: u32,
    /// `(sender, send time)` of the first message handled in the step
    /// whose send is in the trace.
    pub arrival: Option<(u32, Cycles)>,
}
const _: () = assert!(std::mem::size_of::<Step>() == 56);

impl Step {
    /// Human name of the step kind.
    pub fn kind_name(&self) -> &'static str {
        match self.kind {
            KIND_MSG => "handle msg",
            KIND_LOCAL => "local work",
            KIND_TIMERS => "retx timers",
            _ => "root",
        }
    }
}

/// A context's residency span (allocation → free; `end` is `None` when the
/// run finished with the context still live).
#[derive(Debug, Clone, Copy)]
pub struct CtxSpan {
    /// Node.
    pub node: u32,
    /// Context index (reused after free; spans for one index never
    /// overlap).
    pub ctx: u32,
    /// Method, when the allocation event named one.
    pub method: MethodId,
    /// True when created by fallback (vs an eager parallel invocation).
    pub fallback: bool,
    /// Allocation time.
    pub start: Cycles,
    /// Free time.
    pub end: Option<Cycles>,
}
const _: () = assert!(std::mem::size_of::<CtxSpan>() == 40);

/// A matched send → handle pair.
#[derive(Debug, Clone, Copy)]
pub struct Flow {
    /// Sender.
    pub from: u32,
    /// Send time (sender clock).
    pub sent_at: Cycles,
    /// Receiver.
    pub to: u32,
    /// Handle time (receiver clock).
    pub handled_at: Cycles,
    /// Payload kind.
    pub cause: MsgCause,
}
const _: () = assert!(std::mem::size_of::<Flow>() == 32);

/// [`MsgCause`] by discriminant, to decode a flow's cause.
const CAUSES: [MsgCause; 7] = {
    use MsgCause::*;
    [Request, Reply, Ack, Retransmit, Multicast, Reduce, Barrier]
};
const _: () = {
    let mut i = 0;
    while i < CAUSES.len() {
        assert!(CAUSES[i] as usize == i, "CAUSES follows the declaration");
        i += 1;
    }
};

/// An external request's sojourn through the machine (open-system mode):
/// arrival (offered-load stamp) to completion on the serving node. Shed
/// requests get a zero-length span flagged `shed`.
#[derive(Debug, Clone, Copy)]
pub struct ReqSpan {
    /// Request id.
    pub req: u64,
    /// Target node.
    pub node: u32,
    /// Arrival time (wall stamp of the arrival process — may be ahead of
    /// the node's clock).
    pub start: Cycles,
    /// Completion time on the serving node (`None`: still in flight at
    /// the horizon).
    pub end: Option<Cycles>,
    /// True when admission control refused the request.
    pub shed: bool,
}
const _: () = assert!(std::mem::size_of::<ReqSpan>() == 40);

/// An interval during which a node had at least one suspended context.
#[derive(Debug, Clone, Copy)]
pub struct SuspendSpan {
    /// Suspend time.
    pub start: Cycles,
    /// Resume time (`None`: still suspended at the end — a deadlocked or
    /// trapped run).
    pub end: Option<Cycles>,
}
const _: () = assert!(std::mem::size_of::<SuspendSpan>() == 24);

/// What happened at an [`Instant`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstantKind {
    /// A stack frame lazily became a heap context.
    Fallback(MethodId),
    /// A caller populated the shell context a CP callee created for it.
    ShellAdopted(MethodId),
    /// An unacknowledged frame timed out and was sent again.
    Retransmit {
        /// Destination node.
        to: u32,
        /// Retransmissions of the frame so far (1 = first retry).
        attempt: u32,
    },
}

/// A moment the hybrid model *adapted* — the three record kinds the
/// Perfetto export draws as instant events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instant {
    /// Acting node.
    pub node: u32,
    /// Its clock.
    pub at: Cycles,
    /// What happened.
    pub kind: InstantKind,
}
const _: () = assert!(std::mem::size_of::<Instant>() == 24);

/// An append-only log of LEB128 varints holding `len` items; `last` is the
/// time the next time written is coded against.
#[derive(Debug, Default)]
struct Log {
    bytes: Vec<u8>,
    len: usize,
    last: Cycles,
}
const _: () = assert!(std::mem::size_of::<Log>() == 40);

impl Log {
    /// Append `v` as a varint: seven bits a byte, low bits first.
    fn put(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.bytes.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.bytes.push(v as u8);
    }

    /// Write `t` as the zigzag difference from the last time (wrapping, so
    /// any two times code), and make it the last.
    fn time(&mut self, t: Cycles) {
        let d = t.wrapping_sub(self.last) as i64;
        self.put(((d << 1) ^ (d >> 63)) as u64);
        self.last = t;
    }

    fn reader(&self) -> Rd<'_> {
        Rd {
            b: &self.bytes,
            last: 0,
        }
    }
}

/// A read cursor over a [`Log`]: its writes, undone in the same order.
struct Rd<'a> {
    b: &'a [u8],
    last: Cycles,
}

impl Rd<'_> {
    fn get(&mut self) -> u64 {
        let n = self
            .b
            .iter()
            .position(|&b| b < 0x80)
            .expect("a whole varint");
        let (v, rest) = self.b.split_at(n + 1);
        self.b = rest;
        v.iter().rev().fold(0, |v, &b| v << 7 | u64::from(b & 0x7f))
    }

    fn time(&mut self) -> Cycles {
        let z = self.get();
        self.last = self.last.wrapping_add((z >> 1) ^ (z & 1).wrapping_neg());
        self.last
    }
}

/// One node's steps: a [`Log`] whose `last` is the previous step's end,
/// and an index that marks every [`INDEX_EVERY`]-th step with its
/// `(start, byte offset)`.
#[derive(Debug, Default)]
struct StepLog {
    log: Log,
    index: Vec<(Cycles, usize)>,
}
const _: () = assert!(std::mem::size_of::<(Cycles, usize)>() == 16);

impl StepLog {
    /// Append a step: its start against the previous end, its length,
    /// `handled << 3 | has arrival << 2 | kind`, then any arrival's sender
    /// and send time (against the start).
    fn push(&mut self, s: &Step) {
        assert!(s.kind <= KIND_ROOT, "step kind {} is not two bits", s.kind);
        let log = &mut self.log;
        if log.len.is_multiple_of(INDEX_EVERY) {
            self.index.push((s.start, log.bytes.len()));
        }
        log.time(s.start);
        log.put(s.end.wrapping_sub(s.start));
        let flags = u64::from(s.arrival.is_some()) << 2 | u64::from(s.kind);
        log.put(u64::from(s.handled) << 3 | flags);
        if let Some((from, sent_at)) = s.arrival {
            log.put(from.into());
            log.time(sent_at);
        }
        log.last = s.end;
        log.len += 1;
    }

    /// Steps `first..` of `node`, decoded from `rd`.
    fn decode<'a>(
        &'a self,
        node: u32,
        first: usize,
        mut rd: Rd<'a>,
    ) -> impl ExactSizeIterator<Item = Step> + 'a {
        (first..self.log.len).map(move |_| {
            let start = rd.time();
            let end = start.wrapping_add(rd.get());
            let packed = rd.get();
            let arrival = (packed & 4 != 0).then(|| (rd.get() as u32, rd.time()));
            rd.last = end;
            Step {
                node,
                kind: (packed & 3) as u8,
                start,
                end,
                handled: (packed >> 3) as u32,
                arrival,
            }
        })
    }
}

/// Spans whose ends come after their starts: a [`Log`] of each span's
/// payload and start, and an end table indexed by span ([`OPEN`] until
/// the span closes).
#[derive(Debug, Default)]
struct Spans {
    log: Log,
    ends: Vec<Cycles>,
}

impl Spans {
    /// Log a span's start after the payload just written; its index.
    fn open(&mut self, start: Cycles, end: Cycles) -> usize {
        self.log.time(start);
        self.ends.push(end);
        self.ends.len() - 1
    }

    /// Each span's payload (decoded by `payload`), start and end.
    fn read<'a, T>(
        &'a self,
        mut payload: impl FnMut(&mut Rd<'a>) -> T + 'a,
    ) -> impl ExactSizeIterator<Item = (T, Cycles, Option<Cycles>)> + 'a {
        let mut rd = self.log.reader();
        let end = |e: Cycles| (e != OPEN).then_some(e);
        self.ends
            .iter()
            .map(move |&e| (payload(&mut rd), rd.time(), end(e)))
    }
}

/// The reconstructed timeline.
#[derive(Debug, Default)]
pub struct Timeline {
    /// Number of nodes (highest node id seen + 1, or as told by the
    /// caller via [`Timeline::build`]).
    pub n_nodes: usize,
    steps: Vec<StepLog>,
    /// Context spans: `node << 1 | fallback`, `ctx`, `method`.
    ctx_spans: Spans,
    /// Flows: `from << 3 | cause`, `to`, the handle time, its distance
    /// from the send time.
    flows: Log,
    suspends: Vec<Spans>,
    /// Requests: `req`, `node << 1 | shed`.
    requests: Spans,
    /// Instants: `node << 2 | kind`, the time, two operands (a method, or
    /// the destination and the attempt).
    instants: Log,
    /// Per-node clock at the last record.
    pub node_end: Vec<Cycles>,
    /// Largest node clock seen.
    pub makespan: Cycles,
}

impl Timeline {
    /// Reconstruct a timeline from a drained trace. `n_nodes` must be at
    /// least the machine size (node ids beyond it grow the vectors).
    pub fn build(records: &[TraceRecord], n_nodes: usize) -> Timeline {
        let mut b = TimelineBuilder::new(n_nodes);
        for r in records {
            b.feed(r);
        }
        b.finish()
    }

    /// `node`'s steps, in start order.
    pub fn steps(&self, node: usize) -> impl ExactSizeIterator<Item = Step> + '_ {
        let log = &self.steps[node];
        log.decode(node as u32, 0, log.log.reader())
    }

    /// The last step of `node` that began strictly before `time`, and the
    /// end of the step before it (`None` for the node's first step): a
    /// binary search of the node's index, then a decode of one block.
    pub fn last_step_before(&self, node: usize, time: Cycles) -> Option<(Step, Option<Cycles>)> {
        let log = &self.steps[node];
        let k = log.index.partition_point(|m| m.0 < time).checked_sub(1)?;
        let (start, at) = log.index[k];
        let b = &log.log.bytes[at..];
        // The block's first start is coded against the end before it.
        let last = start.wrapping_sub(Rd { b, last: 0 }.time());
        let mut block = log
            .decode(node as u32, k * INDEX_EVERY, Rd { b, last })
            .take(INDEX_EVERY);
        let mut found = (block.next()?, (k > 0).then_some(last));
        for s in block.take_while(|s| s.start < time) {
            found = (s, Some(found.0.end));
        }
        Some(found)
    }

    /// Matched message flows, in handle order.
    pub fn flows(&self) -> impl ExactSizeIterator<Item = Flow> + '_ {
        let mut rd = self.flows.reader();
        (0..self.flows.len).map(move |_| {
            let (from_cause, to) = (rd.get(), rd.get() as u32);
            let handled_at = rd.time();
            Flow {
                from: (from_cause >> 3) as u32,
                sent_at: handled_at.wrapping_sub(rd.get()),
                to,
                handled_at,
                cause: CAUSES[(from_cause & 7) as usize],
            }
        })
    }

    /// Context spans, in allocation order.
    pub fn ctx_spans(&self) -> impl ExactSizeIterator<Item = CtxSpan> + '_ {
        let payload = |rd: &mut Rd<'_>| (rd.get(), rd.get() as u32, MethodId(rd.get() as u32));
        self.ctx_spans
            .read(payload)
            .map(|((nf, ctx, method), start, end)| CtxSpan {
                node: (nf >> 1) as u32,
                ctx,
                method,
                fallback: nf & 1 != 0,
                start,
                end,
            })
    }

    /// `node`'s suspend intervals, in start order (they may overlap when
    /// several contexts are suspended at once).
    pub fn suspends(&self, node: usize) -> impl ExactSizeIterator<Item = SuspendSpan> + '_ {
        self.suspends[node]
            .read(|_| ())
            .map(|((), start, end)| SuspendSpan { start, end })
    }

    /// External request spans, in arrival order (none for closed-system
    /// runs).
    pub fn requests(&self) -> impl ExactSizeIterator<Item = ReqSpan> + '_ {
        self.requests
            .read(|rd| (rd.get(), rd.get()))
            .map(|((req, ns), start, end)| ReqSpan {
                req,
                node: (ns >> 1) as u32,
                start,
                end,
                shed: ns & 1 != 0,
            })
    }

    /// Adaptation instants, in stream order.
    pub fn instants(&self) -> impl ExactSizeIterator<Item = Instant> + '_ {
        let mut rd = self.instants.reader();
        (0..self.instants.len).map(move |_| {
            let (node_kind, at) = (rd.get(), rd.time());
            let (a, b) = (rd.get() as u32, rd.get() as u32);
            let kind = match node_kind & 3 {
                0 => InstantKind::Fallback(MethodId(a)),
                1 => InstantKind::ShellAdopted(MethodId(a)),
                _ => InstantKind::Retransmit { to: a, attempt: b },
            };
            Instant {
                node: (node_kind >> 2) as u32,
                at,
                kind,
            }
        })
    }
}

/// Streaming [`Timeline`] construction: [`TimelineBuilder::feed`] every
/// record in emission order (or attach the builder as an [`Observer`]),
/// then [`TimelineBuilder::finish`].
pub struct TimelineBuilder {
    /// What is logged so far.
    tl: Timeline,
    /// Each node's step still open (a root span, or a dispatched step).
    open: Vec<Option<Step>>,
    /// Span of each live context, by [`key`].
    open_ctx: U64Map<usize>,
    /// Send time of each wire copy still in flight, by wire number.
    in_flight: U64Map<Cycles>,
    /// Span (in its node's list) of each suspended context, by [`key`].
    open_susp: U64Map<usize>,
    /// Span of each request in flight, by id.
    open_req: U64Map<usize>,
}

impl Observer for TimelineBuilder {
    fn on_record(&mut self, rec: &TraceRecord) {
        self.feed(rec);
    }
}

/// A context's map key: its node and index.
fn key(node: u32, ctx: u32) -> u64 {
    u64::from(node) << 32 | u64::from(ctx)
}

impl TimelineBuilder {
    /// An empty builder for a machine of at least `n_nodes` nodes (node
    /// ids beyond it grow the vectors).
    pub fn new(n_nodes: usize) -> TimelineBuilder {
        let mut b = TimelineBuilder {
            tl: Timeline::default(),
            open: Vec::new(),
            open_ctx: U64Map::default(),
            in_flight: U64Map::default(),
            open_susp: U64Map::default(),
            open_req: U64Map::default(),
        };
        b.grow(n_nodes);
        b
    }

    fn grow(&mut self, need: usize) {
        if need > self.open.len() {
            self.tl.steps.resize_with(need, StepLog::default);
            self.open.resize(need, None);
            self.tl.suspends.resize_with(need, Spans::default);
            self.tl.node_end.resize(need, 0);
        }
    }

    /// Consume the next record of the stream.
    pub fn feed(&mut self, rec: &TraceRecord) {
        let node = crate::event_node(&rec.event);
        self.grow(node as usize + 1);
        let ni = node as usize;

        // Arrival-process stamps are *offered load*, not node activity:
        // the arrival time can be ahead of the target node's clock, so
        // they must neither advance `node_end` nor open a root step.
        if let TraceEvent::RequestArrived { node, req } | TraceEvent::RequestShed { node, req } =
            rec.event
        {
            let shed = matches!(rec.event, TraceEvent::RequestShed { .. });
            let r = &mut self.tl.requests;
            r.log.put(req);
            r.log.put(u64::from(node.0) << 1 | u64::from(shed));
            let idx = r.open(rec.at, if shed { rec.at } else { OPEN });
            if !shed {
                self.open_req.insert(req, idx);
            }
            return;
        }

        self.tl.node_end[ni] = self.tl.node_end[ni].max(rec.at);

        let instant = match rec.event {
            TraceEvent::Fallback { method, .. } => Some((0, method.0, 0)),
            TraceEvent::ShellAdopted { method, .. } => Some((1, method.0, 0)),
            TraceEvent::Retransmit { to, attempt, .. } => Some((2, to.0, attempt)),
            _ => None,
        };
        if let Some((kind, a, b)) = instant {
            let log = &mut self.tl.instants;
            log.put(u64::from(node) << 2 | kind);
            log.time(rec.at);
            log.put(a.into());
            log.put(b.into());
            log.len += 1;
        }

        match rec.event {
            TraceEvent::EventStart { node, kind, .. } => {
                // A still-open step (a root span, or a step whose
                // `EventEnd` a trap skipped) ends where its last record
                // was.
                if let Some(s) = self.open[ni].take() {
                    self.tl.steps[ni].push(&s);
                }
                self.open[ni] = Some(Step {
                    node: node.0,
                    kind,
                    start: rec.at,
                    end: rec.at,
                    handled: 0,
                    arrival: None,
                });
            }
            TraceEvent::EventEnd { .. } => {
                if let Some(mut s) = self.open[ni].take() {
                    s.end = s.end.max(rec.at);
                    self.tl.steps[ni].push(&s);
                }
            }
            TraceEvent::MsgSent { wire, .. } => {
                self.touch_activity(node, rec.at);
                self.in_flight.insert(wire, rec.at);
            }
            TraceEvent::MsgHandled {
                from, wire, cause, ..
            } => {
                self.touch_activity(node, rec.at);
                let sent_at = self.in_flight.remove(&wire);
                if let Some(sent_at) = sent_at {
                    let f = &mut self.tl.flows;
                    f.put(u64::from(from.0) << 3 | cause as u64);
                    f.put(node.into());
                    f.time(rec.at);
                    f.put(rec.at.wrapping_sub(sent_at));
                    f.len += 1;
                }
                let Some(s) = &mut self.open[ni] else {
                    unreachable!("touch_activity opened a step")
                };
                s.handled += 1;
                if s.arrival.is_none() {
                    s.arrival = sent_at.map(|at| (from.0, at));
                }
            }
            TraceEvent::DupSuppressed { wire, .. } | TraceEvent::MsgDropped { wire, .. } => {
                self.touch_activity(node, rec.at);
                self.in_flight.remove(&wire);
            }
            TraceEvent::ParInvoke { method, ctx, .. }
            | TraceEvent::Fallback { method, ctx, .. } => {
                self.touch_activity(node, rec.at);
                let fallback = matches!(rec.event, TraceEvent::Fallback { .. });
                let c = &mut self.tl.ctx_spans;
                c.log.put(u64::from(node) << 1 | u64::from(fallback));
                c.log.put(ctx.into());
                c.log.put(method.0.into());
                let idx = c.open(rec.at, OPEN);
                self.open_ctx.insert(key(node, ctx), idx);
            }
            TraceEvent::CtxFreed { ctx, .. } => {
                self.touch_activity(node, rec.at);
                if let Some(idx) = self.open_ctx.remove(&key(node, ctx)) {
                    self.tl.ctx_spans.ends[idx] = rec.at;
                }
            }
            TraceEvent::Suspend { ctx, .. } => {
                self.touch_activity(node, rec.at);
                let idx = self.tl.suspends[ni].open(rec.at, OPEN);
                self.open_susp.insert(key(node, ctx), idx);
            }
            TraceEvent::Resume { ctx, .. } => {
                self.touch_activity(node, rec.at);
                if let Some(idx) = self.open_susp.remove(&key(node, ctx)) {
                    self.tl.suspends[ni].ends[idx] = rec.at;
                }
            }
            TraceEvent::RequestDone { req, .. } => {
                self.touch_activity(node, rec.at);
                if let Some(idx) = self.open_req.remove(&req) {
                    self.tl.requests.ends[idx] = rec.at;
                }
            }
            _ => {
                self.touch_activity(node, rec.at);
            }
        }
    }

    /// On-node activity at `at`: extend the open step, or open a root
    /// step when the node is acting outside the dispatch loop.
    fn touch_activity(&mut self, node: u32, at: Cycles) {
        let s = self.open[node as usize].get_or_insert(Step {
            node,
            kind: KIND_ROOT,
            start: at,
            end: at,
            handled: 0,
            arrival: None,
        });
        s.end = s.end.max(at);
    }

    /// Close the steps still open and hand the timeline over.
    pub fn finish(mut self) -> Timeline {
        for (log, s) in self.tl.steps.iter_mut().zip(self.open) {
            if let Some(s) = s {
                log.push(&s);
            }
        }
        self.tl.n_nodes = self.tl.steps.len();
        self.tl.makespan = self.tl.node_end.iter().copied().max().unwrap_or(0);
        self.tl
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use hem_machine::NodeId;
    use proptest::prelude::*;

    pub(crate) fn rec(at: Cycles, event: TraceEvent) -> TraceRecord {
        TraceRecord { at, event }
    }

    /// `node` begins a step of `kind` at `at`.
    pub(crate) fn start(at: Cycles, node: u32, kind: u8) -> TraceRecord {
        let (node, req) = (NodeId(node), 0);
        rec(at, TraceEvent::EventStart { node, kind, req })
    }

    /// `node` ends its step at `at`.
    pub(crate) fn end(at: Cycles, node: u32) -> TraceRecord {
        rec(at, TraceEvent::EventEnd { node: NodeId(node) })
    }

    pub(crate) fn sent(at: Cycles, from: u32, to: u32, wire: u64, cause: MsgCause) -> TraceRecord {
        rec(
            at,
            TraceEvent::MsgSent {
                from: NodeId(from),
                to: NodeId(to),
                wire,
                words: 2,
                cause,
                req: 0,
            },
        )
    }

    pub(crate) fn handled(at: Cycles, node: u32, from: u32, wire: u64) -> TraceRecord {
        rec(
            at,
            TraceEvent::MsgHandled {
                node: NodeId(node),
                from: NodeId(from),
                wire,
                cause: MsgCause::Request,
                req: 0,
                deliver: 0,
                retx: false,
            },
        )
    }

    /// A one-message step on node `node` at `at`, handling copy `wire`.
    fn msg_step(at: Cycles, node: u32, from: u32, wire: u64) -> [TraceRecord; 3] {
        [
            start(at, node, KIND_MSG),
            handled(at, node, from, wire),
            end(at + 1, node),
        ]
    }

    #[test]
    fn steps_bracket_their_records() {
        let (node, method, schema) = (NodeId(0), MethodId(0), hem_analysis::Schema::MayBlock);
        let recs = vec![
            start(5, 0, KIND_LOCAL),
            rec(
                9,
                TraceEvent::StackComplete {
                    node,
                    method,
                    schema,
                },
            ),
            end(12, 0),
        ];
        let tl = Timeline::build(&recs, 1);
        let s: Vec<_> = tl.steps(0).collect();
        assert_eq!(s.len(), 1);
        assert_eq!((s[0].start, s[0].end, s[0].kind), (5, 12, KIND_LOCAL));
        assert_eq!(tl.makespan, 12);
    }

    #[test]
    fn root_activity_outside_steps_becomes_a_root_step() {
        let (node, method) = (NodeId(0), MethodId(1));
        let recs = vec![
            rec(2, TraceEvent::Inlined { node, method }),
            sent(7, 0, 1, 0, MsgCause::Request),
            start(10, 0, KIND_MSG),
            end(11, 0),
        ];
        let tl = Timeline::build(&recs, 2);
        let s: Vec<_> = tl.steps(0).collect();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].kind, s[0].start, s[0].end), (KIND_ROOT, 2, 7));
        assert_eq!(s[1].kind, KIND_MSG);
    }

    #[test]
    fn handles_match_their_send_by_wire_number() {
        // Two sends on one link and cause, handled in the opposite order
        // (jitter overtook): each handle still finds its own send.
        let mut recs = vec![
            sent(1, 0, 1, 10, MsgCause::Request),
            sent(4, 0, 1, 11, MsgCause::Request),
        ];
        recs.extend(msg_step(6, 1, 0, 11));
        recs.extend(msg_step(9, 1, 0, 10));
        let tl = Timeline::build(&recs, 2);
        let flows: Vec<_> = tl.flows().map(|f| (f.sent_at, f.handled_at)).collect();
        assert_eq!(flows, [(4, 6), (1, 9)]);
        let s = tl.steps(1).next().unwrap();
        assert_eq!((s.handled, s.arrival), (1, Some((0, 4))));
    }

    #[test]
    fn lost_and_duplicated_copies_draw_no_second_arrow() {
        let (from, to, node, partitioned) = (NodeId(0), NodeId(1), NodeId(1), false);
        let mut recs = vec![
            sent(1, 0, 1, 10, MsgCause::Request),
            rec(
                1,
                TraceEvent::MsgDropped {
                    from,
                    to,
                    wire: 10,
                    partitioned,
                },
            ),
            sent(40, 0, 1, 11, MsgCause::Retransmit),
            rec(40, TraceEvent::MsgDuplicated { from, to, wire: 11 }),
        ];
        recs.extend(msg_step(45, 1, 0, 11));
        recs.push(rec(
            50,
            TraceEvent::DupSuppressed {
                node,
                from,
                wire: 11,
            },
        ));
        // An external arrival names no send.
        recs.extend(msg_step(60, 1, 1, (1 << 63) | 3));
        let mut b = TimelineBuilder::new(2);
        for r in &recs {
            b.feed(r);
        }
        assert!(b.in_flight.is_empty(), "every copy was consumed or lost");
        let tl = b.finish();
        let f: Vec<_> = tl.flows().collect();
        assert_eq!(f.len(), 1);
        assert_eq!(
            (f[0].sent_at, f[0].handled_at, f[0].cause),
            (40, 45, MsgCause::Request)
        );
        let s = tl.steps(1).nth(2).unwrap();
        assert_eq!((s.arrival, s.handled), (None, 1));
    }

    #[test]
    fn request_spans_pair_up_without_phantom_steps() {
        let n = NodeId(0);
        let recs = vec![
            // Arrival stamped ahead of the node clock: must not move
            // makespan or open a root step.
            rec(100, TraceEvent::RequestArrived { node: n, req: 7 }),
            rec(120, TraceEvent::RequestShed { node: n, req: 8 }),
            start(105, 0, KIND_MSG),
            rec(110, TraceEvent::RequestDone { node: n, req: 7 }),
            end(110, 0),
        ];
        let tl = Timeline::build(&recs, 1);
        assert_eq!(tl.steps(0).len(), 1);
        assert_eq!(tl.makespan, 110);
        let r: Vec<_> = tl
            .requests()
            .map(|r| (r.req, r.start, r.end, r.shed))
            .collect();
        assert_eq!(r, [(7, 100, Some(110), false), (8, 120, Some(120), true)]);
    }

    #[test]
    fn the_observer_hook_and_the_slice_feed_the_same_builder() {
        let (a, b) = (NodeId(0), NodeId(1));
        let (m4, m5) = (MethodId(4), MethodId(5));
        let recs = vec![
            rec(
                1,
                TraceEvent::Fallback {
                    node: a,
                    method: m4,
                    ctx: 0,
                },
            ),
            // An arrival stamp returns early from `feed`: it must not
            // disturb what is kept around it.
            rec(9, TraceEvent::RequestArrived { node: b, req: 3 }),
            rec(
                2,
                TraceEvent::ShellAdopted {
                    node: b,
                    method: m5,
                    ctx: 1,
                },
            ),
            rec(
                6,
                TraceEvent::Retransmit {
                    node: a,
                    to: b,
                    attempt: 2,
                },
            ),
            rec(7, TraceEvent::CtxFreed { node: a, ctx: 0 }),
        ];
        let mut obs: Box<dyn Observer> = Box::new(TimelineBuilder::new(2));
        for r in &recs {
            obs.on_record(r);
        }
        obs.on_flush();
        let any: Box<dyn std::any::Any> = obs;
        let streamed = any.downcast::<TimelineBuilder>().expect("the builder");
        let streamed = streamed.finish();
        assert_eq!(
            format!("{streamed:?}"),
            format!("{:?}", Timeline::build(&recs, 2))
        );
        let at = |node, at, kind| Instant { node, at, kind };
        assert_eq!(
            streamed.instants().collect::<Vec<_>>(),
            [
                at(0, 1, InstantKind::Fallback(m4)),
                at(1, 2, InstantKind::ShellAdopted(m5)),
                at(0, 6, InstantKind::Retransmit { to: 1, attempt: 2 }),
            ],
            "the three adaptation kinds, in stream order"
        );
        let c: Vec<_> = streamed.ctx_spans().collect();
        assert_eq!(c.len(), 1, "a fallback is still a span");
        assert_eq!(
            (c[0].node, c[0].ctx, c[0].fallback, c[0].start, c[0].end),
            (0, 0, true, 1, Some(7))
        );
    }

    #[test]
    fn suspend_intervals_close_on_resume() {
        let n = NodeId(2);
        let recs = vec![
            rec(3, TraceEvent::Suspend { node: n, ctx: 1 }),
            rec(9, TraceEvent::Resume { node: n, ctx: 1 }),
            rec(11, TraceEvent::Suspend { node: n, ctx: 2 }),
        ];
        let tl = Timeline::build(&recs, 3);
        let s: Vec<_> = tl.suspends(2).map(|s| (s.start, s.end)).collect();
        assert_eq!(s, [(3, Some(9)), (11, None)]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Per-node step streams of 0, 1, 63, 64, 65 and 129 steps, with
        /// zero-length steps, starts before the previous end (as in a
        /// ring-truncated stream) and times near `u64::MAX`, decode to
        /// themselves, and the index finds what a scan of them finds.
        #[test]
        fn the_step_index_finds_what_a_scan_finds(
            nodes in proptest::collection::vec((0usize..6, 0usize..3, any::<u64>()), 1..5),
        ) {
            let mut b = TimelineBuilder::new(nodes.len());
            let mut want = Vec::new();
            for (ni, &(len, base, seed)) in nodes.iter().enumerate() {
                let mut x = seed | 1;
                let mut next = |m: u64| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x % m
                };
                let mut start = [0, u64::MAX - 300, seed][base];
                let steps: Vec<Step> = (0..[0, 1, 63, 64, 65, 129][len])
                    .map(|_| {
                        start = start.saturating_add(next(4));
                        let arrival = (next(3) == 0)
                            .then(|| (next(64) as u32, start.wrapping_sub(next(1000))));
                        Step {
                            node: ni as u32,
                            kind: next(4) as u8,
                            start,
                            end: start.saturating_add(next(7)),
                            handled: next(3) as u32,
                            arrival,
                        }
                    })
                    .collect();
                steps.iter().for_each(|s| b.tl.steps[ni].push(s));
                want.push(steps);
            }
            let tl = b.finish();
            for (ni, steps) in want.iter().enumerate() {
                prop_assert_eq!(&tl.steps(ni).collect::<Vec<_>>(), steps);
                let probes = steps.iter().flat_map(|s| [s.start, s.start.saturating_add(1), s.end]);
                for t in probes.chain([0, u64::MAX]) {
                    let i = steps.iter().take_while(|s| s.start < t).count();
                    let scan = (i > 0).then(|| (steps[i - 1], (i > 1).then(|| steps[i - 2].end)));
                    prop_assert_eq!(tl.last_step_before(ni, t), scan, "node {} before {}", ni, t);
                }
            }
        }
    }
}
