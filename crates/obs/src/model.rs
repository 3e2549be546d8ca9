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
//! synthetic *root* steps. Message sends are matched to their handles
//! FIFO per `(from, to, cause)` — exact on fault-free runs, where the
//! interconnect delivers each link's traffic in order and nothing is
//! dropped or duplicated; under an active fault plan the matching is best
//! effort.

use std::collections::{HashMap, VecDeque};

use hem_core::{MsgCause, Observer, TraceEvent, TraceRecord};
use hem_ir::MethodId;
use hem_machine::Cycles;

use crate::rollup::cause_idx;

/// Step kinds: the dispatch-loop candidate kinds plus the synthetic root.
pub const KIND_MSG: u8 = 0;
/// Local work (lock grant or ready context).
pub const KIND_LOCAL: u8 = 1;
/// Retransmission-timer sweep.
pub const KIND_TIMERS: u8 = 2;
/// Synthetic: harness-driven root invocation outside the dispatch loop.
pub const KIND_ROOT: u8 = 3;

/// A message arrival consumed by a step, with its matched send when known.
#[derive(Debug, Clone, Copy)]
pub struct MsgIn {
    /// Sender node.
    pub from: u32,
    /// Payload words.
    pub words: u64,
    /// Payload kind.
    pub cause: MsgCause,
    /// Receiver-side handle time.
    pub at: Cycles,
    /// Matched send time on the sender, when the send was in the trace.
    pub sent_at: Option<Cycles>,
}

/// One scheduler step (or synthetic root span) on a node.
#[derive(Debug, Clone)]
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
    pub msgs: Vec<MsgIn>,
}

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
    /// Payload words.
    pub words: u64,
}

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

/// An interval during which a node had at least one suspended context.
#[derive(Debug, Clone, Copy)]
pub struct SuspendSpan {
    /// Suspend time.
    pub start: Cycles,
    /// Resume time (`None`: still suspended at the end — a deadlocked or
    /// trapped run).
    pub end: Option<Cycles>,
}

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

/// The reconstructed timeline.
#[derive(Debug)]
pub struct Timeline {
    /// Number of nodes (highest node id seen + 1, or as told by the
    /// caller via [`Timeline::build`]).
    pub n_nodes: usize,
    /// Per-node steps, in start order.
    pub steps: Vec<Vec<Step>>,
    /// Context spans, in allocation order.
    pub ctx_spans: Vec<CtxSpan>,
    /// Matched message flows, in handle order.
    pub flows: Vec<Flow>,
    /// Per-node suspend intervals, in start order (may overlap when
    /// several contexts are suspended at once).
    pub suspends: Vec<Vec<SuspendSpan>>,
    /// External request spans, in arrival order (empty for closed-system
    /// runs).
    pub requests: Vec<ReqSpan>,
    /// Adaptation instants, in stream order.
    pub instants: Vec<Instant>,
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
}

/// Streaming [`Timeline`] construction: [`TimelineBuilder::feed`] every
/// record in emission order (or attach the builder as an [`Observer`]),
/// then [`TimelineBuilder::finish`].
pub struct TimelineBuilder {
    steps: Vec<Vec<Step>>,
    open: Vec<Option<Step>>,
    /// Open step is synthetic root (close it on the next EventStart).
    open_is_root: Vec<bool>,
    ctx_spans: Vec<CtxSpan>,
    open_ctx: HashMap<(u32, u32), usize>,
    flows: Vec<Flow>,
    pending: HashMap<(u32, u32, usize), VecDeque<(Cycles, u64)>>,
    suspends: Vec<Vec<SuspendSpan>>,
    open_susp: HashMap<(u32, u32), usize>,
    requests: Vec<ReqSpan>,
    open_req: HashMap<u64, usize>,
    instants: Vec<Instant>,
    node_end: Vec<Cycles>,
}

impl Observer for TimelineBuilder {
    fn on_record(&mut self, rec: &TraceRecord) {
        self.feed(rec);
    }
}

impl TimelineBuilder {
    /// An empty builder for a machine of at least `n_nodes` nodes (node
    /// ids beyond it grow the vectors).
    pub fn new(n_nodes: usize) -> TimelineBuilder {
        TimelineBuilder {
            steps: vec![Vec::new(); n_nodes],
            open: (0..n_nodes).map(|_| None).collect(),
            open_is_root: vec![false; n_nodes],
            ctx_spans: Vec::new(),
            open_ctx: HashMap::new(),
            flows: Vec::new(),
            pending: HashMap::new(),
            suspends: vec![Vec::new(); n_nodes],
            open_susp: HashMap::new(),
            requests: Vec::new(),
            open_req: HashMap::new(),
            instants: Vec::new(),
            node_end: vec![0; n_nodes],
        }
    }

    fn grow(&mut self, node: u32) {
        let need = node as usize + 1;
        if need > self.steps.len() {
            self.steps.resize_with(need, Vec::new);
            self.open.resize_with(need, || None);
            self.open_is_root.resize(need, false);
            self.suspends.resize_with(need, Vec::new);
            self.node_end.resize(need, 0);
        }
    }

    fn close_open(&mut self, node: u32, end: Cycles) {
        if let Some(mut s) = self.open[node as usize].take() {
            s.end = s.end.max(end);
            self.steps[node as usize].push(s);
            self.open_is_root[node as usize] = false;
        }
    }

    /// Record on-node activity at `at` outside any open step: open (or
    /// extend) a synthetic root step.
    fn touch_root(&mut self, node: u32, at: Cycles) {
        let ni = node as usize;
        match &mut self.open[ni] {
            Some(s) => s.end = s.end.max(at),
            None => {
                self.open[ni] = Some(Step {
                    node,
                    kind: KIND_ROOT,
                    start: at,
                    end: at,
                    msgs: Vec::new(),
                });
                self.open_is_root[ni] = true;
            }
        }
    }

    /// Consume the next record of the stream.
    pub fn feed(&mut self, rec: &TraceRecord) {
        let node = crate::event_node(&rec.event);
        self.grow(node);
        let ni = node as usize;

        // Arrival-process stamps are *offered load*, not node activity:
        // the arrival time can be ahead of the target node's clock, so
        // they must neither advance `node_end` nor open a root step.
        match rec.event {
            TraceEvent::RequestArrived { node, req } => {
                let idx = self.requests.len();
                self.requests.push(ReqSpan {
                    req,
                    node: node.0,
                    start: rec.at,
                    end: None,
                    shed: false,
                });
                self.open_req.insert(req, idx);
                return;
            }
            TraceEvent::RequestShed { node, req } => {
                self.requests.push(ReqSpan {
                    req,
                    node: node.0,
                    start: rec.at,
                    end: Some(rec.at),
                    shed: true,
                });
                return;
            }
            _ => {}
        }

        self.node_end[ni] = self.node_end[ni].max(rec.at);

        let instant = match rec.event {
            TraceEvent::Fallback { method, .. } => Some(InstantKind::Fallback(method)),
            TraceEvent::ShellAdopted { method, .. } => Some(InstantKind::ShellAdopted(method)),
            TraceEvent::Retransmit { to, attempt, .. } => {
                Some(InstantKind::Retransmit { to: to.0, attempt })
            }
            _ => None,
        };
        if let Some(kind) = instant {
            self.instants.push(Instant {
                node,
                at: rec.at,
                kind,
            });
        }

        match rec.event {
            TraceEvent::EventStart { node, kind, .. } => {
                // A still-open step (a root span, or a step whose
                // `EventEnd` a trap skipped) ends where its last record
                // was.
                if let Some(prev_end) = self.open[ni].as_ref().map(|s| s.end) {
                    self.close_open(node.0, prev_end);
                }
                self.open[ni] = Some(Step {
                    node: node.0,
                    kind,
                    start: rec.at,
                    end: rec.at,
                    msgs: Vec::new(),
                });
            }
            TraceEvent::EventEnd { .. } => {
                self.close_open(node, rec.at);
            }
            TraceEvent::MsgSent {
                from,
                to,
                words,
                cause,
                ..
            } => {
                self.touch_activity(node, rec.at);
                self.pending
                    .entry((from.0, to.0, cause_idx(cause)))
                    .or_default()
                    .push_back((rec.at, words));
            }
            TraceEvent::MsgHandled {
                node: n,
                from,
                words,
                cause,
                ..
            } => {
                self.touch_activity(node, rec.at);
                // FIFO match; a handle with no same-cause send left tries
                // the retransmit queue (the original was lost, a retried
                // copy delivered the payload).
                let sent_at = self
                    .pop_pending(from.0, n.0, cause_idx(cause))
                    .or_else(|| self.pop_pending(from.0, n.0, cause_idx(MsgCause::Retransmit)))
                    .map(|(at, _)| at);
                if let Some(sent_at) = sent_at {
                    self.flows.push(Flow {
                        from: from.0,
                        sent_at,
                        to: n.0,
                        handled_at: rec.at,
                        cause,
                        words,
                    });
                }
                let m = MsgIn {
                    from: from.0,
                    words,
                    cause,
                    at: rec.at,
                    sent_at,
                };
                match &mut self.open[ni] {
                    Some(s) => s.msgs.push(m),
                    None => unreachable!("touch_activity opened a step"),
                }
            }
            TraceEvent::DupSuppressed { node: n, from } => {
                self.touch_activity(node, rec.at);
                // The duplicate consumed a wire copy; prefer eating a
                // retransmitted send so later real handles still match.
                if self
                    .pop_pending(from.0, n.0, cause_idx(MsgCause::Retransmit))
                    .is_none()
                    && self
                        .pop_pending(from.0, n.0, cause_idx(MsgCause::Request))
                        .is_none()
                {
                    let _ = self.pop_pending(from.0, n.0, cause_idx(MsgCause::Reply));
                }
            }
            TraceEvent::ParInvoke { node, method, ctx }
            | TraceEvent::Fallback { node, method, ctx } => {
                self.touch_activity(node.0, rec.at);
                let fallback = matches!(rec.event, TraceEvent::Fallback { .. });
                let idx = self.ctx_spans.len();
                self.ctx_spans.push(CtxSpan {
                    node: node.0,
                    ctx,
                    method,
                    fallback,
                    start: rec.at,
                    end: None,
                });
                self.open_ctx.insert((node.0, ctx), idx);
            }
            TraceEvent::CtxFreed { node, ctx } => {
                self.touch_activity(node.0, rec.at);
                if let Some(idx) = self.open_ctx.remove(&(node.0, ctx)) {
                    self.ctx_spans[idx].end = Some(rec.at);
                }
            }
            TraceEvent::Suspend { node, ctx } => {
                self.touch_activity(node.0, rec.at);
                let idx = self.suspends[ni].len();
                self.suspends[ni].push(SuspendSpan {
                    start: rec.at,
                    end: None,
                });
                self.open_susp.insert((node.0, ctx), idx);
            }
            TraceEvent::Resume { node, ctx } => {
                self.touch_activity(node.0, rec.at);
                if let Some(idx) = self.open_susp.remove(&(node.0, ctx)) {
                    self.suspends[ni][idx].end = Some(rec.at);
                }
            }
            TraceEvent::RequestDone { req, .. } => {
                self.touch_activity(node, rec.at);
                if let Some(idx) = self.open_req.remove(&req) {
                    self.requests[idx].end = Some(rec.at);
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
        let ni = node as usize;
        match &mut self.open[ni] {
            Some(s) => s.end = s.end.max(at),
            None => self.touch_root(node, at),
        }
    }

    fn pop_pending(&mut self, from: u32, to: u32, cause: usize) -> Option<(Cycles, u64)> {
        self.pending.get_mut(&(from, to, cause))?.pop_front()
    }

    /// Close the steps still open and hand the timeline over.
    pub fn finish(mut self) -> Timeline {
        for ni in 0..self.open.len() {
            if let Some(s) = self.open[ni].take() {
                self.steps[ni].push(s);
            }
        }
        let makespan = self.node_end.iter().copied().max().unwrap_or(0);
        Timeline {
            n_nodes: self.steps.len(),
            steps: self.steps,
            ctx_spans: self.ctx_spans,
            flows: self.flows,
            suspends: self.suspends,
            requests: self.requests,
            instants: self.instants,
            node_end: self.node_end,
            makespan,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hem_machine::NodeId;

    fn rec(at: Cycles, event: TraceEvent) -> TraceRecord {
        TraceRecord { at, event }
    }

    #[test]
    fn steps_bracket_their_records() {
        let n = NodeId(0);
        let recs = vec![
            rec(
                5,
                TraceEvent::EventStart {
                    node: n,
                    kind: KIND_LOCAL,
                    req: 0,
                },
            ),
            rec(
                9,
                TraceEvent::StackComplete {
                    node: n,
                    method: MethodId(0),
                    schema: hem_analysis::Schema::MayBlock,
                },
            ),
            rec(12, TraceEvent::EventEnd { node: n }),
        ];
        let tl = Timeline::build(&recs, 1);
        assert_eq!(tl.steps[0].len(), 1);
        let s = &tl.steps[0][0];
        assert_eq!((s.start, s.end, s.kind), (5, 12, KIND_LOCAL));
        assert_eq!(tl.makespan, 12);
    }

    #[test]
    fn root_activity_outside_steps_becomes_a_root_step() {
        let n = NodeId(0);
        let recs = vec![
            rec(
                2,
                TraceEvent::Inlined {
                    node: n,
                    method: MethodId(1),
                },
            ),
            rec(
                7,
                TraceEvent::MsgSent {
                    from: n,
                    to: NodeId(1),
                    words: 3,
                    cause: MsgCause::Request,
                    req: 0,
                },
            ),
            rec(
                10,
                TraceEvent::EventStart {
                    node: n,
                    kind: KIND_MSG,
                    req: 0,
                },
            ),
            rec(11, TraceEvent::EventEnd { node: n }),
        ];
        let tl = Timeline::build(&recs, 2);
        assert_eq!(tl.steps[0].len(), 2);
        assert_eq!(tl.steps[0][0].kind, KIND_ROOT);
        assert_eq!((tl.steps[0][0].start, tl.steps[0][0].end), (2, 7));
        assert_eq!(tl.steps[0][1].kind, KIND_MSG);
    }

    #[test]
    fn sends_match_handles_fifo_per_link_and_cause() {
        let a = NodeId(0);
        let b = NodeId(1);
        let recs = vec![
            rec(
                1,
                TraceEvent::MsgSent {
                    from: a,
                    to: b,
                    words: 2,
                    cause: MsgCause::Request,
                    req: 0,
                },
            ),
            rec(
                4,
                TraceEvent::MsgSent {
                    from: a,
                    to: b,
                    words: 9,
                    cause: MsgCause::Request,
                    req: 0,
                },
            ),
            rec(
                6,
                TraceEvent::EventStart {
                    node: b,
                    kind: KIND_MSG,
                    req: 0,
                },
            ),
            rec(
                6,
                TraceEvent::MsgHandled {
                    node: b,
                    from: a,
                    words: 2,
                    cause: MsgCause::Request,
                    req: 0,
                    deliver: 0,
                    retx: false,
                },
            ),
            rec(8, TraceEvent::EventEnd { node: b }),
            rec(
                9,
                TraceEvent::EventStart {
                    node: b,
                    kind: KIND_MSG,
                    req: 0,
                },
            ),
            rec(
                9,
                TraceEvent::MsgHandled {
                    node: b,
                    from: a,
                    words: 9,
                    cause: MsgCause::Request,
                    req: 0,
                    deliver: 0,
                    retx: false,
                },
            ),
            rec(10, TraceEvent::EventEnd { node: b }),
        ];
        let tl = Timeline::build(&recs, 2);
        assert_eq!(tl.flows.len(), 2);
        assert_eq!((tl.flows[0].sent_at, tl.flows[0].handled_at), (1, 6));
        assert_eq!((tl.flows[1].sent_at, tl.flows[1].handled_at), (4, 9));
        assert_eq!(tl.steps[1][0].msgs[0].sent_at, Some(1));
    }

    #[test]
    fn handle_of_a_lost_original_matches_the_retransmit() {
        let a = NodeId(0);
        let b = NodeId(1);
        let recs = vec![
            rec(
                1,
                TraceEvent::MsgSent {
                    from: a,
                    to: b,
                    words: 5,
                    cause: MsgCause::Request,
                    req: 0,
                },
            ),
            rec(
                2,
                TraceEvent::MsgDropped {
                    from: a,
                    to: b,
                    partitioned: false,
                },
            ),
            rec(
                40,
                TraceEvent::MsgSent {
                    from: a,
                    to: b,
                    words: 5,
                    cause: MsgCause::Retransmit,
                    req: 0,
                },
            ),
            rec(
                45,
                TraceEvent::EventStart {
                    node: b,
                    kind: KIND_MSG,
                    req: 0,
                },
            ),
            rec(
                45,
                TraceEvent::MsgHandled {
                    node: b,
                    from: a,
                    words: 5,
                    cause: MsgCause::Request,
                    req: 0,
                    deliver: 0,
                    retx: false,
                },
            ),
            rec(46, TraceEvent::EventEnd { node: b }),
        ];
        let tl = Timeline::build(&recs, 2);
        // The Request send at t=1 matches first (FIFO in cause class) —
        // best-effort under faults; what matters is *a* flow exists and
        // both queues drain.
        assert_eq!(tl.flows.len(), 1);
        assert_eq!(tl.flows[0].handled_at, 45);
    }

    #[test]
    fn request_spans_pair_up_without_phantom_steps() {
        let n = NodeId(0);
        let recs = vec![
            // Arrival stamped ahead of the node clock: must not move
            // makespan or open a root step.
            rec(100, TraceEvent::RequestArrived { node: n, req: 7 }),
            rec(120, TraceEvent::RequestShed { node: n, req: 8 }),
            rec(
                105,
                TraceEvent::EventStart {
                    node: n,
                    kind: KIND_MSG,
                    req: 0,
                },
            ),
            rec(110, TraceEvent::RequestDone { node: n, req: 7 }),
            rec(110, TraceEvent::EventEnd { node: n }),
        ];
        let tl = Timeline::build(&recs, 1);
        assert_eq!(tl.steps[0].len(), 1);
        assert_eq!(tl.makespan, 110);
        assert_eq!(tl.requests.len(), 2);
        assert_eq!(
            (
                tl.requests[0].start,
                tl.requests[0].end,
                tl.requests[0].shed
            ),
            (100, Some(110), false)
        );
        assert!(tl.requests[1].shed);
    }

    #[test]
    fn the_observer_hook_and_the_slice_feed_the_same_builder() {
        let (a, b) = (NodeId(0), NodeId(1));
        let recs = vec![
            rec(
                1,
                TraceEvent::Fallback {
                    node: a,
                    method: MethodId(4),
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
                    method: MethodId(5),
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
            streamed.instants,
            [
                at(0, 1, InstantKind::Fallback(MethodId(4))),
                at(1, 2, InstantKind::ShellAdopted(MethodId(5))),
                at(0, 6, InstantKind::Retransmit { to: 1, attempt: 2 }),
            ],
            "the three adaptation kinds, in stream order"
        );
        assert_eq!(streamed.ctx_spans.len(), 1, "a fallback is still a span");
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
        assert_eq!(tl.suspends[2].len(), 2);
        assert_eq!(tl.suspends[2][0].end, Some(9));
        assert_eq!(tl.suspends[2][1].end, None);
    }
}
