//! Critical-path extraction and per-node time breakdowns.
//!
//! The critical path is found by walking the happens-before DAG
//! *backwards in time* from the node that finished last. At every point
//! the walk stands at a `(node, time)` pair and asks "what was this node
//! doing just before?":
//!
//! * inside a scheduler step → a **work** segment back to the step start;
//! * at the start of a message-handling step whose arrival was the
//!   binding constraint → a **network** segment that hops to the sender
//!   at its send time;
//! * in a gap between steps → a **blocked** segment (the node had a
//!   suspended context) or an **idle** one, back to the previous step's
//!   end;
//! * before the first step → **idle** back to time zero.
//!
//! Segments are contiguous in time by construction, so they tile
//! `[0, makespan]` exactly and the path's total duration *equals* the
//! makespan — an invariant the integration tests assert, because any
//! step-accounting bug breaks it.

use hem_machine::Cycles;

use crate::model::{Step, SuspendSpan, Timeline, KIND_MSG, KIND_TIMERS};

/// What a critical-path segment (or a slice of a node's time) was spent
/// on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegClass {
    /// Running application work (local-work steps, root spans).
    Compute,
    /// Handling a delivered message (dispatch + handler work).
    Dispatch,
    /// A message in flight: send time on the source to handle time on the
    /// destination.
    Network,
    /// Waiting with at least one suspended context (a dependency stall).
    Blocked,
    /// No runnable work and nothing suspended.
    Idle,
}

impl std::fmt::Display for SegClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SegClass::Compute => "compute",
            SegClass::Dispatch => "dispatch",
            SegClass::Network => "network",
            SegClass::Blocked => "blocked",
            SegClass::Idle => "idle",
        };
        write!(f, "{s}")
    }
}

/// One segment of the critical path. For `Network` segments, `node` is
/// the *receiver* and `from_node` the sender; the time interval spans the
/// sender's send time to the receiver's handle time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Node the segment is charged to.
    pub node: u32,
    /// Sender, for network segments.
    pub from_node: Option<u32>,
    /// Segment start (virtual time).
    pub start: Cycles,
    /// Segment end.
    pub end: Cycles,
    /// Classification.
    pub class: SegClass,
}

impl Segment {
    /// Duration in cycles.
    pub fn dur(&self) -> Cycles {
        self.end - self.start
    }
}

/// The extracted path, earliest segment first.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CriticalPath {
    /// Segments, contiguous in time from 0 to the makespan.
    pub segments: Vec<Segment>,
    /// Sum of segment durations — equals the timeline's makespan.
    pub total: Cycles,
}

impl CriticalPath {
    /// Total time in segments of a class.
    pub fn time_in(&self, class: SegClass) -> Cycles {
        self.segments
            .iter()
            .filter(|s| s.class == class)
            .map(|s| s.dur())
            .sum()
    }
}

fn work_class(kind: u8) -> SegClass {
    match kind {
        KIND_MSG => SegClass::Dispatch,
        KIND_TIMERS => SegClass::Network,
        _ => SegClass::Compute,
    }
}

/// One node's suspend intervals (kept by the timeline in start order,
/// overlapping and nested when several contexts wait at once) merged into
/// a disjoint list, sorted by start and therefore by end, so a query is a
/// binary search or a sweep instead of a scan of every span. Spans that
/// overlap or touch become one interval; one still open when the run
/// ended extends to `Cycles::MAX`, which every query clips (no gap
/// reaches past the makespan).
fn merge_suspends(spans: &[SuspendSpan]) -> Vec<(Cycles, Cycles)> {
    let mut merged: Vec<(Cycles, Cycles)> = Vec::new();
    for s in spans {
        let end = s.end.unwrap_or(Cycles::MAX);
        match merged.last_mut() {
            Some(last) if s.start <= last.1 => last.1 = last.1.max(end),
            _ => merged.push((s.start, end)),
        }
    }
    merged
}

/// Was any context suspended during `[a, b]`, given the node's
/// [`merge_suspends`] list? Of the intervals starting before `b` the last
/// one ends latest, so it alone decides.
fn any_suspended(merged: &[(Cycles, Cycles)], a: Cycles, b: Cycles) -> bool {
    let i = merged.partition_point(|s| s.0 < b);
    i > 0 && merged[i - 1].1 > a
}

/// Extract the critical path of a timeline. Returns an empty path for an
/// empty timeline.
pub fn critical_path(tl: &Timeline) -> CriticalPath {
    critical_path_until(tl, tl.makespan)
}

/// Extract the critical path of the prefix `[0, horizon]` of a timeline —
/// the right call for horizon-bounded (`run_until`) traces, where steps
/// may straddle the horizon. Segments are clamped at the horizon, so the
/// tiling invariant becomes `total == min(makespan, horizon)`.
pub fn critical_path_until(tl: &Timeline, horizon: Cycles) -> CriticalPath {
    let end = tl.makespan.min(horizon);
    let mut segments: Vec<Segment> = Vec::new();
    if end == 0 || tl.n_nodes == 0 {
        return CriticalPath::default();
    }
    // Start from the node last *active* within the horizon — judged from
    // its steps, not its (possibly horizon-straddling) clock, so a node
    // whose only activity lies past the horizon can't win. Ties pick the
    // lowest index, matching the unbounded rule.
    let mut node = 0u32;
    let mut best: Cycles = 0;
    for (i, steps) in tl.steps.iter().enumerate() {
        let act = steps
            .iter()
            .rev()
            .find(|s| s.start < end)
            .map(|s| s.end.min(end))
            .unwrap_or(0);
        if act > best {
            best = act;
            node = i as u32;
        }
    }
    let mut time = end;
    let suspended: Vec<_> = tl.suspends.iter().map(|s| merge_suspends(s)).collect();

    // Every iteration emits at least one segment ending at `time` and
    // strictly decreases `time`, so the walk terminates; the cap is pure
    // defence against an accounting bug.
    let cap = 16 + 2 * tl.steps.iter().map(|s| s.len()).sum::<usize>() + tl.flows.len();
    for _ in 0..cap {
        if time == 0 {
            break;
        }
        let steps = &tl.steps[node as usize];
        // Last step beginning strictly before `time`: the activity
        // occupying the instant just before it.
        let si = steps.partition_point(|s| s.start < time);
        if si == 0 {
            // Nothing earlier on this node.
            segments.push(gap_segment(&suspended[node as usize], node, 0, time));
            break;
        }
        let s = &steps[si - 1];
        if s.end >= time {
            // Inside the step (`start < time <= end`): charge its work,
            // then decide what bound the step's start — a matched message
            // arrival hops the walk to the sender at its send time.
            segments.push(Segment {
                node,
                from_node: None,
                start: s.start,
                end: time,
                class: work_class(s.kind),
            });
            time = s.start;
            if time == 0 {
                break;
            }
            // The arrival was binding only if the node was not already
            // busy right up to the step's start (back-to-back steps mean
            // the node itself was the constraint).
            let had_gap = si == 1 || steps[si - 2].end < s.start;
            if s.kind == KIND_MSG && had_gap {
                if let Some((sender, sent_at)) = binding_arrival(s) {
                    if sent_at < time {
                        segments.push(Segment {
                            node,
                            from_node: Some(sender),
                            start: sent_at,
                            end: time,
                            class: SegClass::Network,
                        });
                        node = sender;
                        time = sent_at;
                    }
                }
            }
        } else {
            // In the gap after `s` (`s.end < time`).
            segments.push(gap_segment(&suspended[node as usize], node, s.end, time));
            time = s.end;
        }
    }

    segments.retain(|s| s.dur() > 0);
    segments.reverse();
    let total = segments.iter().map(|s| s.dur()).sum();
    CriticalPath { segments, total }
}

/// The message whose arrival bound the step's start time: the step's
/// *dispatched* message is the first one handled in it (later entries are
/// opportunistic nested deliveries during sends).
fn binding_arrival(s: &Step) -> Option<(u32, Cycles)> {
    s.msgs.iter().find_map(|m| m.sent_at.map(|at| (m.from, at)))
}

fn gap_segment(suspended: &[(Cycles, Cycles)], node: u32, a: Cycles, b: Cycles) -> Segment {
    let class = if any_suspended(suspended, a, b) {
        SegClass::Blocked
    } else {
        SegClass::Idle
    };
    Segment {
        node,
        from_node: None,
        start: a,
        end: b,
        class,
    }
}

/// Where one node's `[0, makespan]` went, plus its slack.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeBreakdown {
    /// The node.
    pub node: u32,
    /// Time in local-work / root steps.
    pub compute: Cycles,
    /// Time in message-handling steps.
    pub dispatch: Cycles,
    /// Time in retransmission-timer steps.
    pub network: Cycles,
    /// Gap time overlapping a suspended context.
    pub blocked: Cycles,
    /// Remaining gap time.
    pub idle: Cycles,
    /// `makespan - busy`: how much the node's own work could slip without
    /// extending the run (its scheduling slack).
    pub slack: Cycles,
}

impl NodeBreakdown {
    /// Sum of all five classes — equals the makespan by construction.
    pub fn total(&self) -> Cycles {
        self.compute + self.dispatch + self.network + self.blocked + self.idle
    }
}

/// Cycles of the gap `[a, b]` with at least one context suspended, given
/// the node's [`merge_suspends`] list. `cursor` is the sweep's position in
/// it: one pass over a node's gaps, asked for in ascending order, visits
/// each interval once.
fn suspended_overlap(
    merged: &[(Cycles, Cycles)],
    cursor: &mut usize,
    a: Cycles,
    b: Cycles,
) -> Cycles {
    while merged.get(*cursor).is_some_and(|s| s.1 <= a) {
        *cursor += 1;
    }
    let mut covered = 0;
    while let Some(&(start, end)) = merged.get(*cursor) {
        if start >= b {
            break;
        }
        covered += end.min(b) - start.max(a);
        if end > b {
            // Reaches into the next gap: stay on it.
            break;
        }
        *cursor += 1;
    }
    covered
}

/// Classify every node's `[0, makespan]` into the five classes.
pub fn node_breakdowns(tl: &Timeline) -> Vec<NodeBreakdown> {
    let makespan = tl.makespan;
    (0..tl.n_nodes)
        .map(|ni| {
            let mut b = NodeBreakdown {
                node: ni as u32,
                ..Default::default()
            };
            let suspended = merge_suspends(&tl.suspends[ni]);
            let mut swept = 0;
            let mut cursor: Cycles = 0;
            for s in &tl.steps[ni] {
                if s.start > cursor {
                    let blk = suspended_overlap(&suspended, &mut swept, cursor, s.start);
                    b.blocked += blk;
                    b.idle += (s.start - cursor) - blk;
                }
                let dur = s.end - s.start;
                match work_class(s.kind) {
                    SegClass::Dispatch => b.dispatch += dur,
                    SegClass::Network => b.network += dur,
                    _ => b.compute += dur,
                }
                cursor = cursor.max(s.end);
            }
            if makespan > cursor {
                let blk = suspended_overlap(&suspended, &mut swept, cursor, makespan);
                b.blocked += blk;
                b.idle += (makespan - cursor) - blk;
            }
            b.slack = makespan - (b.compute + b.dispatch + b.network);
            b
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{KIND_LOCAL, KIND_ROOT};
    use hem_core::{MsgCause, TraceEvent, TraceRecord};
    use hem_machine::NodeId;
    use proptest::prelude::*;

    fn rec(at: Cycles, event: TraceEvent) -> TraceRecord {
        TraceRecord { at, event }
    }

    /// Two nodes: n0 computes 0..10, sends at 7, n1 handles 15..20.
    fn two_node_tl() -> Timeline {
        let a = NodeId(0);
        let b = NodeId(1);
        let recs = vec![
            rec(
                0,
                TraceEvent::EventStart {
                    node: a,
                    kind: KIND_LOCAL,
                    req: 0,
                },
            ),
            rec(
                7,
                TraceEvent::MsgSent {
                    from: a,
                    to: b,
                    words: 2,
                    cause: MsgCause::Request,
                    req: 0,
                },
            ),
            rec(10, TraceEvent::EventEnd { node: a }),
            rec(
                15,
                TraceEvent::EventStart {
                    node: b,
                    kind: KIND_MSG,
                    req: 0,
                },
            ),
            rec(
                15,
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
            rec(20, TraceEvent::EventEnd { node: b }),
        ];
        Timeline::build(&recs, 2)
    }

    #[test]
    fn path_tiles_the_makespan_and_follows_the_message() {
        let tl = two_node_tl();
        let cp = critical_path(&tl);
        assert_eq!(cp.total, tl.makespan, "segments tile [0, makespan]");
        // Forward order: n0 compute [0,7], network [7,15], n1 dispatch
        // [15,20].
        let classes: Vec<SegClass> = cp.segments.iter().map(|s| s.class).collect();
        assert_eq!(
            classes,
            vec![SegClass::Compute, SegClass::Network, SegClass::Dispatch]
        );
        assert_eq!(cp.segments[1].from_node, Some(0));
        assert_eq!(cp.segments[1].start, 7);
        assert_eq!(cp.segments[1].end, 15);
        // Contiguity.
        assert_eq!(cp.segments[0].start, 0);
        for w in cp.segments.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn breakdowns_tile_per_node() {
        let tl = two_node_tl();
        for b in node_breakdowns(&tl) {
            assert_eq!(b.total(), tl.makespan, "node {} tiles", b.node);
        }
        let bs = node_breakdowns(&tl);
        assert_eq!(bs[0].compute, 10);
        assert_eq!(bs[0].idle, 10);
        assert_eq!(bs[1].dispatch, 5);
        assert_eq!(bs[1].slack, 15);
    }

    #[test]
    fn unmatched_start_falls_back_to_gap_classification() {
        // A handle with no recorded send (truncated ring): the walk can't
        // hop, so the pre-step gap is charged to the handling node.
        let b = NodeId(0);
        let recs = vec![
            rec(
                15,
                TraceEvent::EventStart {
                    node: b,
                    kind: KIND_MSG,
                    req: 0,
                },
            ),
            rec(
                15,
                TraceEvent::MsgHandled {
                    node: b,
                    from: NodeId(9),
                    words: 1,
                    cause: MsgCause::Request,
                    req: 0,
                    deliver: 0,
                    retx: false,
                },
            ),
            rec(20, TraceEvent::EventEnd { node: b }),
        ];
        let tl = Timeline::build(&recs, 1);
        let cp = critical_path(&tl);
        assert_eq!(cp.total, tl.makespan);
        assert_eq!(cp.segments[0].class, SegClass::Idle);
        assert_eq!((cp.segments[0].start, cp.segments[0].end), (0, 15));
    }

    #[test]
    fn blocked_gaps_are_recognized() {
        let n = NodeId(0);
        let recs = vec![
            rec(
                0,
                TraceEvent::EventStart {
                    node: n,
                    kind: KIND_LOCAL,
                    req: 0,
                },
            ),
            rec(4, TraceEvent::Suspend { node: n, ctx: 0 }),
            rec(5, TraceEvent::EventEnd { node: n }),
            rec(
                30,
                TraceEvent::EventStart {
                    node: n,
                    kind: KIND_LOCAL,
                    req: 0,
                },
            ),
            rec(30, TraceEvent::Resume { node: n, ctx: 0 }),
            rec(42, TraceEvent::EventEnd { node: n }),
        ];
        let tl = Timeline::build(&recs, 1);
        let cp = critical_path(&tl);
        assert_eq!(cp.total, 42);
        assert!(cp
            .segments
            .iter()
            .any(|s| s.class == SegClass::Blocked && s.start == 5 && s.end == 30));
        let b = &node_breakdowns(&tl)[0];
        assert_eq!(b.blocked, 25);
        assert_eq!(b.compute, 17);
        assert_eq!(b.total(), 42);
    }

    /// The definition the sweep replaced: scan every span for every gap
    /// (overlap merges on the fly; spans are sorted by start).
    fn reference_overlap(spans: &[SuspendSpan], makespan: Cycles, a: Cycles, b: Cycles) -> Cycles {
        let mut covered = 0;
        let mut cursor = a;
        for s in spans {
            let lo = s.start.max(cursor);
            let hi = s.end.unwrap_or(makespan).min(b);
            if lo < hi {
                covered += hi - lo;
                cursor = hi;
            }
            if cursor >= b {
                break;
            }
        }
        covered
    }

    fn reference_any(spans: &[SuspendSpan], a: Cycles, b: Cycles) -> bool {
        spans
            .iter()
            .any(|s| s.start < b && s.end.map(|e| e > a).unwrap_or(true))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// Spans on a coarse grid, so that they overlap, nest, repeat a
        /// start, have zero length, stay open, and share edges with the
        /// gaps — which themselves touch, and run up to the makespan.
        #[test]
        fn merged_sweep_is_the_span_scan(
            raw in proptest::collection::vec((0u64..4, 0u64..9, 0u8..5), 0..12),
            cuts in proptest::collection::vec(0u64..5, 2..16),
            slack in 0u64..4,
        ) {
            let mut spans = Vec::new();
            let (mut start, mut last) = (0, 0);
            for (gap, len, open) in raw {
                start += gap;
                let end = (open != 0).then_some(start + len);
                last = last.max(end.unwrap_or(start));
                spans.push(SuspendSpan { start, end });
            }
            let makespan = last + slack;
            let mut at = 0;
            let cuts: Vec<Cycles> = cuts
                .into_iter()
                .map(|d| {
                    at = (at + d).min(makespan);
                    at
                })
                .collect();
            let gaps: Vec<(Cycles, Cycles)> = cuts
                .chunks_exact(2)
                .map(|c| (c[0], c[1]))
                .filter(|(a, b)| a < b)
                .collect();

            let merged = merge_suspends(&spans);
            prop_assert!(
                merged.windows(2).all(|w| w[0].1 < w[1].0),
                "disjoint and sorted: {merged:?}"
            );
            let mut cursor = 0;
            for &(a, b) in &gaps {
                prop_assert_eq!(
                    suspended_overlap(&merged, &mut cursor, a, b),
                    reference_overlap(&spans, makespan, a, b),
                    "overlap of [{}, {}] with {:?}", a, b, merged
                );
                prop_assert_eq!(
                    any_suspended(&merged, a, b),
                    reference_any(&spans, a, b),
                    "any in [{}, {}] of {:?}", a, b, merged
                );
            }
        }
    }

    #[test]
    fn horizon_clamps_segments_and_keeps_the_tiling_invariant() {
        let tl = two_node_tl();
        // Horizon inside n1's dispatch step [15, 20]: the straddling step
        // is clamped, and the path tiles [0, 17] exactly.
        let cp = critical_path_until(&tl, 17);
        assert_eq!(cp.total, 17, "total == min(makespan, horizon)");
        assert_eq!(cp.segments[0].start, 0);
        for w in cp.segments.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        let last = cp.segments.last().unwrap();
        assert_eq!((last.class, last.end), (SegClass::Dispatch, 17));

        // Horizon in the network gap: the walk starts from the last node
        // active before it (n0, whose step ended at 10).
        let cp = critical_path_until(&tl, 12);
        assert_eq!(cp.total, 12);
        assert_eq!(cp.segments.last().unwrap().node, 0);

        // Horizon past the makespan degenerates to the full path.
        let cp = critical_path_until(&tl, 10_000);
        assert_eq!(cp.total, tl.makespan);

        // Zero horizon: empty path.
        assert_eq!(critical_path_until(&tl, 0).total, 0);
    }

    #[test]
    fn root_steps_count_as_compute() {
        let recs = vec![rec(
            3,
            TraceEvent::Inlined {
                node: NodeId(0),
                method: hem_ir::MethodId(0),
            },
        )];
        let tl = Timeline::build(&recs, 1);
        assert_eq!(tl.steps[0][0].kind, KIND_ROOT);
        let cp = critical_path(&tl);
        assert_eq!(cp.total, tl.makespan);
    }
}
