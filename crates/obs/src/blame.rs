//! Per-request blame decomposition.
//!
//! A streaming [`Observer`] that follows each external request's blame
//! tag (`req + 1` on [`TraceEvent`] fields; see `hem_core::trace`)
//! through the causal chain and splits the request's sojourn —
//! `done.at − arrived.at` — into *tiling* segments:
//!
//! | category | meaning |
//! |---|---|
//! | [`BlameCat::Queue`]  | admission / inbox / scheduler wait |
//! | [`BlameCat::Exec`]   | on-node execution charged to the request |
//! | [`BlameCat::Wire`]   | first-copy wire transit |
//! | [`BlameCat::Lock`]   | deferred on a held object lock |
//! | [`BlameCat::Retx`]   | recovery via a retransmitted copy |
//!
//! The decomposition is a *frontier cursor*: each request keeps a single
//! virtual-time cursor starting at its arrival; every tagged event that
//! lands past the cursor pushes it forward and charges the gap to one
//! category, merged into the last segment when the category repeats.
//! Concurrent branches (fan-out requests) therefore never double-count —
//! overlapped work hides behind the frontier — and the segments sum to
//! the sojourn *exactly*, by construction (the finalize step pads a
//! trailing `Exec` remainder or trims overshoot from the tail). That hard
//! invariant is what the property tests pin.
//!
//! Memory is bounded by what is in flight, not by what has finished. Only
//! live requests (a map keyed by request id under a one-multiply hash)
//! carry segment lists. At its `RequestDone` a request is folded into
//! the running sojourn histogram, the per-category totals and one
//! per-category record per *distinct* sojourn (the tail view's threshold
//! is a quantile only known at the end); it keeps its segments only if it
//! ranks among the [`Blame::SLOWEST`] slowest completions so far.
//!
//! Like every observer, the blame tracker is zero-virtual-time: traces,
//! clocks and makespan are bit-identical with it attached or not, and
//! because it is a pure function of the (executor-invariant) record
//! stream, its output is bit-identical across all four executors and
//! every thread count.

use std::fmt::Write as _;

use hem_core::{Observer, TraceEvent, TraceRecord};

use crate::hist::Log2Hist;
use crate::json::{self, obj, Value, Writer};
use crate::U64Map;

/// Where a slice of a request's sojourn went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlameCat {
    /// Waiting: admission-to-dispatch, inbox, or scheduler queue.
    Queue,
    /// Executing on a node (handler + charged work).
    Exec,
    /// First-copy wire transit.
    Wire,
    /// Deferred on a held object lock.
    Lock,
    /// Recovered via a retransmitted copy (lost/slow first copy).
    Retx,
}

impl BlameCat {
    /// All categories, report order.
    pub const ALL: [BlameCat; 5] = [
        BlameCat::Queue,
        BlameCat::Exec,
        BlameCat::Wire,
        BlameCat::Lock,
        BlameCat::Retx,
    ];

    /// Stable lowercase name (JSON keys, table rows).
    pub fn name(self) -> &'static str {
        match self {
            BlameCat::Queue => "queue",
            BlameCat::Exec => "exec",
            BlameCat::Wire => "wire",
            BlameCat::Lock => "lock",
            BlameCat::Retx => "retx",
        }
    }

    fn index(self) -> usize {
        match self {
            BlameCat::Queue => 0,
            BlameCat::Exec => 1,
            BlameCat::Wire => 2,
            BlameCat::Lock => 3,
            BlameCat::Retx => 4,
        }
    }
}

impl std::fmt::Display for BlameCat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

type Segs = Vec<(BlameCat, u64)>;

/// Push `d` cycles of `cat`, merged into the last segment when it has the
/// same category, so a segment list is always maximal runs.
fn push_seg(segs: &mut Segs, cat: BlameCat, d: u64) {
    match segs.last_mut() {
        Some(last) if last.0 == cat => last.1 += d,
        _ => segs.push((cat, d)),
    }
}

/// A request still in flight.
#[derive(Debug)]
struct LiveReq {
    arrived: u64,
    cursor: u64,
    node: u32,
    /// What the gap up to the next local-work dispatch is: `Queue`
    /// normally, `Lock` after a lock deferral.
    pending: BlameCat,
    segs: Segs,
}

impl LiveReq {
    fn advance(&mut self, cat: BlameCat, to: u64) {
        if to > self.cursor {
            push_seg(&mut self.segs, cat, to - self.cursor);
            self.cursor = to;
        }
    }
}

/// One completed request's blame record.
#[derive(Debug, Clone)]
pub struct RequestBlame {
    /// External request id.
    pub req: u64,
    /// Arrival (target) node.
    pub node: u32,
    /// Arrival time.
    pub arrived: u64,
    /// Reply-delivery time.
    pub done: u64,
    /// Tiling segments, causal order, adjacent categories merged, none of
    /// zero width. Invariant: the durations sum to exactly
    /// `done − arrived`.
    pub segs: Vec<(BlameCat, u64)>,
}

impl RequestBlame {
    /// The request's sojourn in cycles.
    pub fn sojourn(&self) -> u64 {
        self.done - self.arrived
    }

    /// Total cycles blamed on one category.
    pub fn total(&self, cat: BlameCat) -> u64 {
        self.segs.iter().filter(|s| s.0 == cat).map(|s| s.1).sum()
    }

    /// Slowest first, ties by request id: the order of
    /// [`BlameSummary::slowest`].
    fn rank(&self) -> (std::cmp::Reverse<u64>, u64) {
        (std::cmp::Reverse(self.sojourn()), self.req)
    }
}

/// Completions of one sojourn, for the tail view.
#[derive(Debug, Default)]
struct SojournBin {
    count: u64,
    totals: [u64; 5],
}

/// The streaming blame tracker. Attach with
/// `rt.attach_observer(Box::new(Blame::new()))` (or inside a
/// [`crate::Fanout`] next to a rollup), or replay a drained trace with
/// [`Blame::from_records`] — both see the same stream, so both produce
/// identical output.
#[derive(Debug, Default)]
pub struct Blame {
    live: U64Map<LiveReq>,
    arrived: u64,
    shed: u64,
    /// Sojourns of every completion.
    sojourn: Log2Hist,
    /// Cycles per category over every completion.
    totals: [u64; 5],
    /// Per-category cycles and count of the completions of each sojourn.
    by_sojourn: U64Map<SojournBin>,
    /// The [`Blame::SLOWEST`] slowest completions, in
    /// [`RequestBlame::rank`] order; equal ranks in completion order.
    slowest: Vec<RequestBlame>,
    /// The most recent completion, which [`Blame::feed`] hands out.
    last: Option<RequestBlame>,
    /// Emptied segment lists, reused by the next arrivals.
    spare: Vec<Segs>,
}

impl Blame {
    /// How many of the slowest completions keep their segments: the cap
    /// on [`Blame::summary`]'s `top`.
    pub const SLOWEST: usize = 10;

    /// An empty tracker.
    pub fn new() -> Blame {
        Blame::default()
    }

    /// Replay a drained trace.
    pub fn from_records(records: &[TraceRecord]) -> Blame {
        let mut b = Blame::new();
        for r in records {
            b.feed(r);
        }
        b
    }

    /// Feed one record (the observer hook calls this). Returns the
    /// request the record completed, if it completed one.
    pub fn feed(&mut self, rec: &TraceRecord) -> Option<&RequestBlame> {
        match rec.event {
            TraceEvent::RequestArrived { node, req } => {
                self.arrived += 1;
                self.live.insert(
                    req,
                    LiveReq {
                        arrived: rec.at,
                        cursor: rec.at,
                        node: node.0,
                        pending: BlameCat::Queue,
                        segs: self.spare.pop().unwrap_or_default(),
                    },
                );
            }
            TraceEvent::RequestShed { .. } => self.shed += 1,
            // kind 1 = local work (a lock grant or a resumed context):
            // the gap since the frontier is whatever the request was last
            // waiting on. kind 0 steps are decomposed by their MsgHandled
            // (same timestamp, which carries the delivery time); kind 2
            // timer steps are never tagged.
            TraceEvent::EventStart { kind: 1, req, .. } if req != 0 => {
                if let Some(l) = self.live.get_mut(&(req - 1)) {
                    l.advance(l.pending, rec.at);
                    l.pending = BlameCat::Queue;
                }
            }
            TraceEvent::MsgHandled {
                req, deliver, retx, ..
            } if req != 0 => {
                if let Some(l) = self.live.get_mut(&(req - 1)) {
                    let wire = if retx { BlameCat::Retx } else { BlameCat::Wire };
                    l.advance(wire, deliver);
                    l.advance(BlameCat::Queue, rec.at);
                }
            }
            // Sends mark execution progress — except transport frames:
            // an ack is stamped at the moment of delivery (before the
            // delivery's own MsgHandled record), so charging it to Exec
            // would swallow the wire/retx split that record carries; and
            // the gap up to a retransmit send is timeout wait, part of
            // the retransmit penalty, not execution.
            TraceEvent::MsgSent { req, cause, .. } if req != 0 => {
                if let Some(l) = self.live.get_mut(&(req - 1)) {
                    match cause {
                        hem_core::MsgCause::Ack => {}
                        hem_core::MsgCause::Retransmit => l.advance(BlameCat::Retx, rec.at),
                        _ => l.advance(BlameCat::Exec, rec.at),
                    }
                }
            }
            TraceEvent::LockDeferred { req, .. } if req != 0 => {
                if let Some(l) = self.live.get_mut(&(req - 1)) {
                    l.advance(BlameCat::Exec, rec.at);
                    l.pending = BlameCat::Lock;
                }
            }
            TraceEvent::RequestDone { req, .. } => return self.finalize(req, rec.at),
            _ => {}
        }
        None
    }

    /// Close a request: make the segments tile `[arrived, done]` exactly,
    /// then fold it into the aggregates and drop its segments unless it
    /// is among the slowest.
    fn finalize(&mut self, req: u64, done: u64) -> Option<&RequestBlame> {
        // No entry: the arrival fell outside the observed stream.
        let LiveReq {
            arrived,
            node,
            mut segs,
            ..
        } = self.live.remove(&req)?;
        let sojourn = done.saturating_sub(arrived);
        let sum: u64 = segs.iter().map(|s| s.1).sum();
        if sum < sojourn {
            // The frontier trails the reply delivery: the remainder is
            // the final on-node stretch that produced the reply.
            push_seg(&mut segs, BlameCat::Exec, sojourn - sum);
        } else if sum > sojourn {
            // A concurrent branch (fan-out) pushed the frontier past the
            // reply; trim the overshoot off the tail.
            let mut over = sum - sojourn;
            while over > 0 {
                let last = segs.last_mut().expect("overshoot implies segments");
                if last.1 > over {
                    last.1 -= over;
                    over = 0;
                } else {
                    over -= last.1;
                    segs.pop();
                }
            }
        }
        debug_assert!(
            segs.iter().map(|s| s.1).sum::<u64>() == sojourn && segs.iter().all(|s| s.1 > 0),
            "req {req}: segments {segs:?} do not tile [{arrived}, {done}]"
        );

        let bin = self.by_sojourn.entry(sojourn).or_default();
        bin.count += 1;
        for &(cat, d) in &segs {
            bin.totals[cat.index()] += d;
            self.totals[cat.index()] += d;
        }
        self.sojourn.add(sojourn);
        let r = RequestBlame {
            req,
            node,
            arrived,
            done,
            segs,
        };
        // After every kept completion of equal rank: a stable order.
        let at = self.slowest.partition_point(|s| s.rank() <= r.rank());
        if at < Blame::SLOWEST {
            self.slowest.insert(at, r.clone());
            self.slowest.truncate(Blame::SLOWEST);
        }
        if let Some(mut prev) = self.last.replace(r) {
            prev.segs.clear();
            self.spare.push(prev.segs);
        }
        self.last.as_ref()
    }

    /// Requests that arrived but had not completed when the stream ended.
    pub fn incomplete(&self) -> u64 {
        self.live.len() as u64
    }

    /// Aggregate into a report section. `tail_q` is the sojourn quantile
    /// (e.g. `0.99`) above which requests are folded into the tail view;
    /// `top` bounds the per-request rows kept (slowest first, ties by
    /// request id) and is capped at [`Blame::SLOWEST`].
    pub fn summary(&self, tail_q: f64, top: usize) -> BlameSummary {
        let mut s = BlameSummary {
            arrived: self.arrived,
            completed: self.sojourn.count(),
            shed: self.shed,
            incomplete: self.incomplete(),
            totals: self.totals,
            sojourn: self.sojourn.clone(),
            tail_quantile: tail_q,
            ..BlameSummary::default()
        };
        s.tail_threshold = s.sojourn.try_quantile(tail_q);
        if let Some(threshold) = s.tail_threshold {
            for (_, bin) in self.by_sojourn.iter().filter(|b| *b.0 >= threshold) {
                s.tail_count += bin.count;
                for (t, d) in s.tail_totals.iter_mut().zip(bin.totals) {
                    *t += d;
                }
            }
        }
        s.slowest = self.slowest.iter().take(top).cloned().collect();
        s
    }
}

impl Observer for Blame {
    fn on_record(&mut self, rec: &TraceRecord) {
        self.feed(rec);
    }
}

/// The aggregate blame view a report carries.
#[derive(Debug, Clone, Default)]
pub struct BlameSummary {
    /// Requests that entered the machine.
    pub arrived: u64,
    /// Requests whose reply was delivered inside the stream.
    pub completed: u64,
    /// Requests the admission controller refused.
    pub shed: u64,
    /// Requests still in flight when the stream ended.
    pub incomplete: u64,
    /// Cycles blamed per category over all completions
    /// ([`BlameCat::ALL`] order); sums to the total of all sojourns.
    pub totals: [u64; 5],
    /// Sojourn distribution over completions.
    pub sojourn: Log2Hist,
    /// The quantile defining the tail view.
    pub tail_quantile: f64,
    /// Sojourn at that quantile; tail = completions at or above it.
    /// `None` when nothing completed.
    pub tail_threshold: Option<u64>,
    /// Completions in the tail.
    pub tail_count: u64,
    /// Cycles blamed per category over tail completions only.
    pub tail_totals: [u64; 5],
    /// Slowest completions (sojourn-descending, ties by id), bounded.
    pub slowest: Vec<RequestBlame>,
}

impl BlameSummary {
    fn share_line(totals: &[u64; 5]) -> String {
        let sum: u64 = totals.iter().sum();
        let mut o = String::new();
        for (i, cat) in BlameCat::ALL.iter().enumerate() {
            let _ = write!(
                o,
                "{}{} {} ({:.1}%)",
                if i == 0 { "" } else { "  " },
                cat,
                totals[i],
                100.0 * totals[i] as f64 / sum.max(1) as f64
            );
        }
        o
    }

    /// Render the text section.
    pub fn text(&self) -> String {
        let mut o = String::new();
        let _ = writeln!(
            o,
            "blame (per-request sojourn decomposition; segments tile arrival -> reply exactly):"
        );
        let _ = writeln!(
            o,
            "  completed {}  incomplete-at-end {}  shed {}",
            self.completed, self.incomplete, self.shed
        );
        let h = &self.sojourn;
        let _ = match h.try_quantile(0.50) {
            // Nothing completed: a 0 would read as an instant reply.
            None => writeln!(o, "  sojourn (cycles): p50 n/a  p95 n/a  p99 n/a  max n/a"),
            Some(p50) => writeln!(
                o,
                "  sojourn (cycles, mean {:.1}): p50 {p50}  p95 {}  p99 {}  max {}",
                h.mean(),
                h.quantile(0.95),
                h.quantile(0.99),
                h.max()
            ),
        };
        let _ = writeln!(o, "  all completions: {}", Self::share_line(&self.totals));
        let _ = writeln!(
            o,
            "  tail (p{:.0}+, {} reqs, sojourn >= {}): {}",
            100.0 * self.tail_quantile,
            self.tail_count,
            self.tail_threshold.map_or("n/a".into(), |t| t.to_string()),
            Self::share_line(&self.tail_totals)
        );
        if !self.slowest.is_empty() {
            let _ = writeln!(o, "  slowest requests:");
            for r in &self.slowest {
                let mut segs = String::new();
                for (i, (cat, d)) in r.segs.iter().enumerate() {
                    let _ = write!(segs, "{}{cat}:{d}", if i == 0 { "" } else { " " });
                }
                let _ = writeln!(
                    o,
                    "    req {:>6} n{:<3} [{:>8}..{:>8}] sojourn {:>8}  {}",
                    r.req,
                    r.node,
                    r.arrived,
                    r.done,
                    r.sojourn(),
                    segs
                );
            }
        }
        o
    }

    /// Render the JSON section (the value of the report's `"blame"` key).
    pub fn json(&self) -> String {
        json::to_string(self)
    }
}

/// Cycles per blame category, as an object keyed by category name.
fn totals(w: &mut Writer<'_>, totals: &[u64; 5]) {
    w.obj(|w| {
        for (cat, n) in BlameCat::ALL.iter().zip(totals) {
            w.key(cat.name()).value(n);
        }
    });
}

impl Value for BlameSummary {
    fn write_to(&self, w: &mut Writer<'_>) {
        // Nothing completed: no mean, max or quantiles — `null`, never a
        // fake 0.
        let h = &self.sojourn;
        let seen = (h.count() > 0).then_some(h);
        obj!(w, "arrived": self.arrived, "completed": self.completed, "shed": self.shed,
            "incomplete": self.incomplete, "totals": |w| totals(w, &self.totals),
            "sojourn": { "samples": h.count(), "mean": seen.map(Log2Hist::mean),
                "max": seen.map(Log2Hist::max), "p50": h.try_quantile(0.50),
                "p95": h.try_quantile(0.95), "p99": h.try_quantile(0.99) },
            "tail": { "quantile": self.tail_quantile, "threshold": self.tail_threshold,
                "count": self.tail_count, "totals": |w| totals(w, &self.tail_totals) },
            "slowest": &self.slowest[..]);
    }
}

impl Value for RequestBlame {
    fn write_to(&self, w: &mut Writer<'_>) {
        let segs = |w: &mut Writer<'_>| {
            for &(cat, d) in &self.segs {
                obj!(w, "cat": cat.name(), "cycles": d);
            }
        };
        obj!(w, "req": self.req, "node": self.node, "arrived": self.arrived, "done": self.done,
            "sojourn": self.sojourn(), "segs": |w| w.arr(segs));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use hem_core::{MsgCause, TraceEvent, TraceRecord};
    use hem_machine::NodeId;

    fn rec(at: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord { at, event }
    }

    /// Every completion of a replay, in completion order, as
    /// [`Blame::feed`] hands them out.
    fn completions(recs: &[TraceRecord]) -> Vec<RequestBlame> {
        let mut b = Blame::new();
        recs.iter().filter_map(|r| b.feed(r).cloned()).collect()
    }

    fn arrived(at: u64, node: u32, req: u64) -> TraceRecord {
        rec(
            at,
            TraceEvent::RequestArrived {
                node: NodeId(node),
                req,
            },
        )
    }

    fn done(at: u64, node: u32, req: u64) -> TraceRecord {
        rec(
            at,
            TraceEvent::RequestDone {
                node: NodeId(node),
                req,
            },
        )
    }

    fn handled(at: u64, node: u32, req: u64, deliver: u64, retx: bool) -> TraceRecord {
        rec(
            at,
            TraceEvent::MsgHandled {
                node: NodeId(node),
                from: NodeId(0),
                wire: 0,
                cause: MsgCause::Request,
                req: req + 1,
                deliver,
                retx,
            },
        )
    }

    fn sent(at: u64, from: u32, req: u64) -> TraceRecord {
        rec(
            at,
            TraceEvent::MsgSent {
                from: NodeId(from),
                to: NodeId(1),
                wire: 0,
                words: 7,
                cause: MsgCause::Request,
                req: req + 1,
            },
        )
    }

    #[test]
    fn simple_rpc_decomposes_into_queue_exec_wire() {
        // Arrive at 100; dispatched (handled) at 120 after delivery at
        // 110; sends at 130; reply delivered at 150 and handled at 160;
        // done at 170.
        let recs = vec![
            arrived(100, 0, 0),
            handled(120, 0, 0, 110, false),
            sent(130, 0, 0),
            handled(160, 0, 0, 150, false),
            done(170, 0, 0),
        ];
        let out = completions(&recs);
        assert_eq!(out.len(), 1);
        let r = &out[0];
        assert_eq!(r.sojourn(), 70);
        assert_eq!(r.segs.iter().map(|s| s.1).sum::<u64>(), 70, "exact tiling");
        // 100..110 wire, 110..120 queue, 120..130 exec, 130..150 wire,
        // 150..160 queue, 160..170 exec.
        assert_eq!(r.total(BlameCat::Wire), 30);
        assert_eq!(r.total(BlameCat::Queue), 20);
        assert_eq!(r.total(BlameCat::Exec), 20);
        assert_eq!(r.total(BlameCat::Lock), 0);
        assert_eq!(r.total(BlameCat::Retx), 0);
    }

    #[test]
    fn retransmitted_copy_blames_retx_not_wire() {
        let recs = vec![
            arrived(0, 0, 0),
            handled(500, 0, 0, 480, true),
            done(520, 0, 0),
        ];
        let out = completions(&recs);
        let r = &out[0];
        assert_eq!(r.sojourn(), 520);
        assert_eq!(r.total(BlameCat::Retx), 480);
        assert_eq!(r.total(BlameCat::Wire), 0);
        assert_eq!(r.total(BlameCat::Queue), 20);
        assert_eq!(r.total(BlameCat::Exec), 20);
    }

    #[test]
    fn lock_deferral_blames_the_wait_on_lock() {
        let recs = vec![
            arrived(0, 0, 0),
            handled(10, 0, 0, 5, false),
            rec(
                20,
                TraceEvent::LockDeferred {
                    node: NodeId(0),
                    obj: 3,
                    req: 1,
                },
            ),
            // Lock granted: local-work dispatch at 90.
            rec(
                90,
                TraceEvent::EventStart {
                    node: NodeId(0),
                    kind: 1,
                    req: 1,
                },
            ),
            done(100, 0, 0),
        ];
        let out = completions(&recs);
        let r = &out[0];
        assert_eq!(r.sojourn(), 100);
        assert_eq!(r.total(BlameCat::Lock), 70, "deferral 20 -> grant 90");
        assert_eq!(r.total(BlameCat::Exec), 20 - 10 + 10);
        assert_eq!(
            r.segs.iter().map(|s| s.1).sum::<u64>(),
            r.sojourn(),
            "exact tiling"
        );
    }

    #[test]
    fn fork_overshoot_is_trimmed_to_the_sojourn() {
        // A side branch pushes the frontier to 300, but the reply landed
        // at 250: the trailing segments must be trimmed so the tiling
        // still holds.
        let recs = vec![
            arrived(0, 0, 0),
            handled(10, 0, 0, 5, false),
            sent(300, 0, 0), // concurrent branch, far frontier
            done(250, 0, 0),
        ];
        let out = completions(&recs);
        let r = &out[0];
        assert_eq!(r.sojourn(), 250);
        assert_eq!(r.segs.iter().map(|s| s.1).sum::<u64>(), 250);
    }

    #[test]
    fn untagged_and_unknown_events_are_ignored() {
        let recs = vec![
            arrived(0, 0, 7),
            // Untagged traffic from a closed-system phase.
            rec(
                5,
                TraceEvent::MsgSent {
                    from: NodeId(0),
                    to: NodeId(1),
                    wire: 0,
                    words: 7,
                    cause: MsgCause::Request,
                    req: 0,
                },
            ),
            // A done for a request whose arrival we never saw.
            done(50, 0, 99),
            done(60, 0, 7),
        ];
        let out = completions(&recs);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].req, 7);
        assert_eq!(out[0].sojourn(), 60);
    }

    #[test]
    fn any_u64_id_is_tracked() {
        // `inject_request` takes arbitrary ids: sparse, huge and sharing
        // their low bits must all be followed, and cost only their entry.
        let ids = [0, 1 << 40, 2 << 40, 1 << 63, u64::MAX - 1];
        let mut recs = Vec::new();
        for (i, &id) in ids.iter().enumerate() {
            recs.push(arrived(i as u64, 0, id));
        }
        for (i, &id) in ids.iter().enumerate() {
            recs.push(handled(100 + i as u64, 0, id, 90, false));
            recs.push(done(200 + 2 * i as u64, 0, id));
        }
        let out = completions(&recs);
        let got: Vec<u64> = out.iter().map(|r| r.req).collect();
        assert_eq!(got, ids);
        for (i, r) in out.iter().enumerate() {
            assert_eq!(r.sojourn(), 200 + i as u64);
            assert_eq!(r.total(BlameCat::Wire), 90 - i as u64, "req {}", r.req);
        }
    }

    #[test]
    fn no_completion_reads_null_and_na_not_zero() {
        let s = Blame::from_records(&[arrived(10, 0, 0)]).summary(0.99, 10);
        assert_eq!((s.completed, s.incomplete), (0, 1));
        assert_eq!(s.tail_threshold, None);
        let doc = crate::json::Json::parse(&s.json()).expect("valid json");
        let sojourn = doc.get("sojourn").unwrap();
        assert_eq!(sojourn.get("samples").unwrap().as_num(), Some(0.0));
        for key in ["mean", "max", "p50", "p95", "p99"] {
            assert_eq!(sojourn.get(key), Some(&Json::Null), "sojourn.{key}");
        }
        let tail = doc.get("tail").unwrap();
        assert_eq!(tail.get("threshold"), Some(&Json::Null));
        let text = s.text();
        assert!(
            text.contains("p50 n/a  p95 n/a  p99 n/a  max n/a"),
            "{text}"
        );
        assert!(text.contains("sojourn >= n/a"), "{text}");
        assert!(!text.contains("p50 0"), "{text}");
    }

    #[test]
    fn summary_aggregates_and_json_parses() {
        let recs = vec![
            arrived(0, 0, 0),
            handled(10, 0, 0, 5, false),
            done(20, 0, 0),
            arrived(0, 1, 1),
            handled(400, 1, 1, 395, false),
            done(420, 1, 1),
            rec(
                0,
                TraceEvent::RequestShed {
                    node: NodeId(0),
                    req: 2,
                },
            ),
            arrived(500, 0, 3), // never completes
        ];
        let b = Blame::from_records(&recs);
        let s = b.summary(0.99, 10);
        assert_eq!(s.completed, 2);
        assert_eq!(s.shed, 1);
        assert_eq!(s.incomplete, 1);
        assert_eq!(s.totals.iter().sum::<u64>(), 20 + 420, "sojourns tile");
        assert_eq!(s.slowest.len(), 2);
        assert_eq!(s.slowest[0].req, 1, "slowest first");
        assert!(s.tail_count >= 1);
        let doc = crate::json::Json::parse(&s.json()).expect("valid json");
        assert_eq!(doc.get("completed").unwrap().as_num(), Some(2.0));
        let totals = doc.get("totals").unwrap();
        let mut sum = 0.0;
        for cat in BlameCat::ALL {
            sum += totals.get(cat.name()).unwrap().as_num().unwrap();
        }
        assert_eq!(sum as u64, 440);
        let slow = doc.get("slowest").unwrap().as_arr().unwrap();
        assert_eq!(slow.len(), 2);
        let segs = slow[0].get("segs").unwrap().as_arr().unwrap();
        let seg_sum: f64 = segs
            .iter()
            .map(|s| s.get("cycles").unwrap().as_num().unwrap())
            .sum();
        assert_eq!(
            seg_sum as u64,
            slow[0].get("sojourn").unwrap().as_num().unwrap() as u64
        );
        let text = s.text();
        assert!(text.contains("completed 2"));
        assert!(text.contains("slowest requests:"));
    }

    #[test]
    fn observer_and_replay_agree() {
        let recs = vec![
            arrived(0, 0, 0),
            handled(10, 0, 0, 5, false),
            sent(15, 0, 0),
            handled(40, 0, 0, 30, false),
            done(45, 0, 0),
        ];
        let mut obs = Blame::new();
        for r in &recs {
            obs.on_record(r);
        }
        obs.on_flush();
        let replay = Blame::from_records(&recs);
        assert_eq!(obs.summary(0.99, 4).json(), replay.summary(0.99, 4).json());
    }

    /// The tracker as it was before completions were folded at
    /// `RequestDone`: it keeps every completion with its segments, merges
    /// them only at finalize, looks requests up under the default hasher,
    /// and computes every aggregate in `summary`. [`Blame`] must give the
    /// same bytes.
    mod oracle {
        use super::*;
        use proptest::prelude::*;
        use std::collections::HashMap;

        struct Live {
            arrived: u64,
            node: u32,
            cursor: u64,
            pending: BlameCat,
            segs: Vec<(BlameCat, u64)>,
        }

        impl Live {
            fn advance(&mut self, cat: BlameCat, to: u64) {
                if to > self.cursor {
                    self.segs.push((cat, to - self.cursor));
                    self.cursor = to;
                }
            }
        }

        #[derive(Default)]
        struct Reference {
            live: HashMap<u64, Live>,
            finished: Vec<RequestBlame>,
            shed: u64,
            arrived: u64,
        }

        impl Reference {
            fn feed(&mut self, rec: &TraceRecord) {
                let tagged = |req: u64| req.checked_sub(1);
                match rec.event {
                    TraceEvent::RequestArrived { node, req } => {
                        self.arrived += 1;
                        let l = Live {
                            arrived: rec.at,
                            node: node.0,
                            cursor: rec.at,
                            pending: BlameCat::Queue,
                            segs: Vec::new(),
                        };
                        self.live.insert(req, l);
                    }
                    TraceEvent::RequestShed { .. } => self.shed += 1,
                    TraceEvent::EventStart { kind: 1, req, .. } => {
                        if let Some(l) = tagged(req).and_then(|r| self.live.get_mut(&r)) {
                            l.advance(l.pending, rec.at);
                            l.pending = BlameCat::Queue;
                        }
                    }
                    TraceEvent::MsgHandled {
                        req, deliver, retx, ..
                    } => {
                        if let Some(l) = tagged(req).and_then(|r| self.live.get_mut(&r)) {
                            l.advance(if retx { BlameCat::Retx } else { BlameCat::Wire }, deliver);
                            l.advance(BlameCat::Queue, rec.at);
                        }
                    }
                    TraceEvent::MsgSent { req, cause, .. } => {
                        if let Some(l) = tagged(req).and_then(|r| self.live.get_mut(&r)) {
                            match cause {
                                MsgCause::Ack => {}
                                MsgCause::Retransmit => l.advance(BlameCat::Retx, rec.at),
                                _ => l.advance(BlameCat::Exec, rec.at),
                            }
                        }
                    }
                    TraceEvent::LockDeferred { req, .. } => {
                        if let Some(l) = tagged(req).and_then(|r| self.live.get_mut(&r)) {
                            l.advance(BlameCat::Exec, rec.at);
                            l.pending = BlameCat::Lock;
                        }
                    }
                    TraceEvent::RequestDone { req, .. } => self.finalize(req, rec.at),
                    _ => {}
                }
            }

            fn finalize(&mut self, req: u64, done: u64) {
                let Some(mut l) = self.live.remove(&req) else {
                    return;
                };
                let target = done.saturating_sub(l.arrived);
                let sum: u64 = l.segs.iter().map(|s| s.1).sum();
                if sum < target {
                    l.segs.push((BlameCat::Exec, target - sum));
                } else {
                    let mut over = sum - target;
                    while over > 0 {
                        let last = l.segs.last_mut().unwrap();
                        if last.1 > over {
                            last.1 -= over;
                            over = 0;
                        } else {
                            over -= last.1;
                            l.segs.pop();
                        }
                    }
                }
                let mut segs: Vec<(BlameCat, u64)> = Vec::new();
                for (cat, d) in l.segs {
                    if d == 0 {
                        continue;
                    }
                    match segs.last_mut() {
                        Some(last) if last.0 == cat => last.1 += d,
                        _ => segs.push((cat, d)),
                    }
                }
                self.finished.push(RequestBlame {
                    req,
                    node: l.node,
                    arrived: l.arrived,
                    done,
                    segs,
                });
            }

            fn summary(&self, tail_q: f64, top: usize) -> BlameSummary {
                let mut s = BlameSummary {
                    arrived: self.arrived,
                    completed: self.finished.len() as u64,
                    shed: self.shed,
                    incomplete: self.live.len() as u64,
                    tail_quantile: tail_q,
                    ..BlameSummary::default()
                };
                for r in &self.finished {
                    s.sojourn.add(r.sojourn());
                    for &(cat, d) in &r.segs {
                        s.totals[cat.index()] += d;
                    }
                }
                s.tail_threshold = s.sojourn.try_quantile(tail_q);
                for r in &self.finished {
                    if Some(r.sojourn()) >= s.tail_threshold {
                        s.tail_count += 1;
                        for &(cat, d) in &r.segs {
                            s.tail_totals[cat.index()] += d;
                        }
                    }
                }
                let mut slow: Vec<&RequestBlame> = self.finished.iter().collect();
                slow.sort_by(|a, b| b.sojourn().cmp(&a.sojourn()).then(a.req.cmp(&b.req)));
                s.slowest = slow.into_iter().take(top).cloned().collect();
                s
            }
        }

        /// A tagged record stream from `(op, a, b)` draws. Twelve request
        /// ids and steps of 0–5 cycles make id reuse, sojourn ties,
        /// requests that never complete and `RequestDone`s with no live
        /// arrival common; op 8 is a fan-out branch stamped past the
        /// present, whose frontier overshoots a later reply.
        fn stream(ops: &[(u8, u64, u64)]) -> Vec<TraceRecord> {
            let mut at = 0u64;
            let mut out = Vec::with_capacity(ops.len());
            for &(op, a, b) in ops {
                at += (b >> 8) % 6;
                let req = a % 12;
                let node = NodeId((a % 4) as u32);
                // A tenth of the traffic is untagged.
                let tag = if (a >> 8) % 10 == 0 { 0 } else { req + 1 };
                let sent = |cause| TraceEvent::MsgSent {
                    from: node,
                    to: NodeId(1),
                    wire: 0,
                    words: 3,
                    cause,
                    req: tag,
                };
                let causes = [
                    MsgCause::Request,
                    MsgCause::Reply,
                    MsgCause::Ack,
                    MsgCause::Retransmit,
                    MsgCause::Multicast,
                ];
                let (t, event) = match op {
                    0 | 1 => (at, TraceEvent::RequestArrived { node, req }),
                    2 => (at, TraceEvent::RequestDone { node, req }),
                    3 => (
                        at,
                        TraceEvent::MsgHandled {
                            node,
                            from: NodeId(0),
                            wire: 0,
                            cause: MsgCause::Request,
                            req: tag,
                            deliver: at.saturating_sub(b % 40),
                            retx: b % 5 == 0,
                        },
                    ),
                    4 => (at, sent(causes[(b % 5) as usize])),
                    5 => (
                        at,
                        TraceEvent::LockDeferred {
                            node,
                            obj: 1,
                            req: tag,
                        },
                    ),
                    6 => (
                        at,
                        TraceEvent::EventStart {
                            node,
                            kind: (b % 3) as u8,
                            req: tag,
                        },
                    ),
                    7 => (at, TraceEvent::RequestShed { node, req }),
                    _ => (at + b % 200, sent(MsgCause::Request)),
                };
                out.push(rec(t, event));
            }
            out
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// Folding at `RequestDone` and keeping only the slowest
            /// segment lists gives the bytes of keeping everything, for
            /// every tail quantile and every `top` up to the cap.
            #[test]
            fn folded_summary_equals_keeping_every_completion(
                ops in proptest::collection::vec((0u8..9, any::<u64>(), any::<u64>()), 0..400),
            ) {
                let recs = stream(&ops);
                let mut reference = Reference::default();
                let mut blame = Blame::new();
                for r in &recs {
                    reference.feed(r);
                    if let Some(done) = blame.feed(r) {
                        let last = reference.finished.last().expect("both close it");
                        prop_assert_eq!(format!("{done:?}"), format!("{last:?}"));
                    }
                }
                prop_assert_eq!(blame.summary(0.5, 0).completed, reference.finished.len() as u64);
                for q in [0.0, 0.5, 0.99, 1.0] {
                    for top in 0..=Blame::SLOWEST {
                        let (got, want) = (blame.summary(q, top), reference.summary(q, top));
                        prop_assert_eq!(got.json(), want.json(), "q {} top {}", q, top);
                        prop_assert_eq!(got.text(), want.text(), "q {} top {}", q, top);
                    }
                }
                // A larger `top` is capped: the summary keeps the cap's rows.
                let capped = blame.summary(0.99, Blame::SLOWEST + 5);
                prop_assert_eq!(capped.json(), reference.summary(0.99, Blame::SLOWEST).json());
            }
        }

        #[test]
        fn generated_streams_reach_every_case() {
            // The oracle is only as good as the streams it sees: over the
            // cases the proptest draws, each edge it names must occur.
            let strat = proptest::collection::vec((0u8..9, any::<u64>(), any::<u64>()), 0..400);
            let (mut overshoot, mut ties, mut incomplete, mut orphan_done) = (0, 0, 0, 0);
            let mut cats = [0u64; 5];
            for case in 0..96 {
                let recs = stream(&strat.generate(&mut proptest::TestRng::for_case(case)));
                let mut reference = Reference::default();
                for r in &recs {
                    if let TraceEvent::RequestDone { req, .. } = r.event {
                        match reference.live.get(&req) {
                            Some(l) => overshoot += u64::from(l.cursor > r.at),
                            None => orphan_done += 1,
                        }
                    }
                    reference.feed(r);
                }
                incomplete += reference.live.len();
                let mut sojourns: Vec<u64> =
                    reference.finished.iter().map(|r| r.sojourn()).collect();
                sojourns.sort_unstable();
                ties += sojourns.windows(2).filter(|w| w[0] == w[1]).count();
                for r in &reference.finished {
                    for cat in BlameCat::ALL {
                        cats[cat.index()] += r.total(cat);
                    }
                }
            }
            assert!(
                overshoot > 0 && ties > 0 && incomplete > 0 && orphan_done > 0,
                "overshoot {overshoot} ties {ties} incomplete {incomplete} orphan {orphan_done}"
            );
            assert!(
                cats.iter().all(|&c| c > 0),
                "every category blamed: {cats:?}"
            );
        }
    }
}
