//! The dispatch layer: which event runs next, and the one production loop
//! that runs it.
//!
//! Every node offers at most one candidate per kind — handle its inbox
//! head (0), run a lock grant or ready context (1), fire its due
//! retransmission timers (2) — and the machine always dispatches the
//! minimum `(virtual time, kind, node)` candidate ([`EventKey`]). Two
//! loops implement that rule. `Runtime::run_index` is the production one:
//! the single-threaded executor runs it to the caller's horizon over an
//! index it maintains incrementally, and every shard worker of the
//! windowed executors ([`crate::shard`]) runs it to its window end over an
//! index reseeded from its own nodes — one loop, two limits. The reference
//! loop in [`crate::explore`] is its executable specification, armed only
//! by tests.

use crate::error::Trap;
use crate::rt::Runtime;
use hem_machine::{Cycles, NodeId};
use std::cmp::Ordering;

/// Which executor [`Runtime::run_until`] drives the machine with.
///
/// All of them are bit-identical in observable behavior (selection order,
/// costs, counters, traces): the event index is the single-threaded
/// production loop, and the two windowed executors spread that same loop
/// across host threads. The determinism suites diff full traces across
/// them and against the reference loop ([`Runtime::arm_reference_loop`]);
/// hembench's three `sor_p64*` workloads measure the gaps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedImpl {
    /// Global `BinaryHeap` of `(time, kind, node)` candidates with lazy
    /// invalidation (the default).
    #[default]
    EventIndex,
    /// Host-parallel conservative-window executor ([`crate::shard`]):
    /// `threads` shards, each advanced by its own OS thread inside
    /// lookahead-bounded virtual-time windows, traces and stats merged
    /// deterministically.
    ///
    /// One departure from [`SchedImpl::EventIndex`]: the heap-diagnostic
    /// fields of `MachineStats.sched` (`heap_pushes`, `stale_pops`,
    /// `max_heap_depth`) report 0 — per-shard heap shapes depend on the
    /// thread count, so they cannot be both meaningful and
    /// thread-count-invariant.
    Sharded {
        /// Worker thread count; `0` and `1` both mean "run the plain
        /// event index" (as does a cost model with zero wire latency,
        /// which admits no lookahead).
        threads: usize,
    },
    /// Host-parallel optimistic (Time-Warp) executor
    /// ([`crate::timewarp`]): the same window engine, but windows extend
    /// *past* the lookahead bound — shards checkpoint, advance
    /// speculatively, and roll back when a cross-shard message turns out
    /// to have been due inside the window. Also parallel under
    /// zero-lookahead cost models, where [`SchedImpl::Sharded`] degrades
    /// to serial stepping.
    ///
    /// Heap diagnostics report 0 as under [`SchedImpl::Sharded`];
    /// speculation diagnostics live in [`crate::timewarp::SpecStats`],
    /// outside `MachineStats`, because they *are* thread-count-dependent.
    Speculative {
        /// Worker thread count; `0` and `1` both mean "run the plain
        /// event index". Zero lookahead does **not** fall back.
        threads: usize,
    },
}

/// A dispatched event's identity: `(virtual time, kind, node)` — the
/// total order both dispatch loops select by.
pub(crate) type EventKey = (Cycles, u8, u32);

/// A candidate next-event in the global event index: node `node` believes
/// it can act at `time` (`kind` 0 = handle a message, 1 = run local work,
/// 2 = fire retransmission timers).
///
/// Entries are *lower bounds*: a node's clock only advances after an entry
/// is pushed, so a popped entry is re-validated against the node's current
/// state and re-keyed (or dropped) when stale — the same generation-style
/// lazy-invalidation discipline `ContRef` uses for continuations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SchedEntry {
    pub time: Cycles,
    pub kind: u8,
    pub node: u32,
}

impl SchedEntry {
    #[inline]
    fn key(&self) -> EventKey {
        (self.time, self.kind, self.node)
    }
}

impl PartialOrd for SchedEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for SchedEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap: the earliest (time, message-before-compute, node id)
        // candidate is the greatest heap element.
        other.key().cmp(&self.key())
    }
}

impl Runtime {
    /// Push a candidate onto the event index (no-op while the index is
    /// down: on a window coordinator and under the reference loop).
    /// Suppressed when the node already has an entry at or below this key:
    /// that entry is a sufficient lower bound, and validation on pop
    /// recomputes the true candidate anyway.
    #[inline]
    pub(crate) fn sched_note(&mut self, time: Cycles, kind: u8, node: usize) {
        let Some(index) = &mut self.sched else {
            return;
        };
        let noted = &mut self.nodes[node].sched_noted;
        if noted.is_some_and(|k| k <= (time, kind)) {
            return;
        }
        *noted = Some((time, kind));
        index.push(SchedEntry {
            time,
            kind,
            node: node as u32,
        });
        self.sched_stats.heap_pushes += 1;
        let depth = index.len() as u64;
        if depth > self.sched_stats.max_heap_depth {
            self.sched_stats.max_heap_depth = depth;
        }
    }

    /// Note that `node` gained runnable local work (ready context or lock
    /// grant) at its current virtual time.
    #[inline]
    pub(crate) fn sched_note_local(&mut self, node: usize) {
        self.sched_note(self.nodes[node].time, 1, node);
    }

    /// Rebuild the event index from `nodes`' live candidates below
    /// `limit`: shard workers at every window edge (their nodes changed
    /// hands at the barrier), the serial path when it finds the index down.
    pub(crate) fn reseed(&mut self, nodes: impl IntoIterator<Item = usize>, limit: Cycles) {
        self.sched.get_or_insert_with(Default::default).clear();
        for i in nodes {
            self.nodes[i].sched_noted = None;
            if let Some((t, kind)) = self.node_candidate(i).filter(|c| c.0 < limit) {
                self.sched_note(t, kind, i);
            }
        }
    }

    /// Take the index down for an executor that does not maintain it
    /// (windows, the reference loop): the next [`SchedImpl::EventIndex`]
    /// chunk reseeds, and the heap diagnostics read 0 meanwhile.
    pub(crate) fn drop_index(&mut self) {
        self.sched = None;
        self.sched_stats.heap_pushes = 0;
        self.sched_stats.stale_pops = 0;
        self.sched_stats.max_heap_depth = 0;
    }

    /// A node's current best candidate under the selection rule: an inbox
    /// head is actionable at `max(node time, delivery time)` (kind 0); any
    /// ready context or lock grant at the node's current time (kind 1);
    /// the earliest pending retransmission timer at `max(node time,
    /// deadline)` (kind 2).
    #[inline]
    pub(crate) fn node_candidate(&self, i: usize) -> Option<(Cycles, u8)> {
        let n = &self.nodes[i];
        let mut best: Option<(Cycles, u8)> = None;
        if let Some(e) = n.inbox.peek() {
            best = Some((n.time.max(e.deliver), 0u8));
        }
        if n.has_local_work() {
            let cand = (n.time, 1u8);
            if best.is_none_or(|b| cand < b) {
                best = Some(cand);
            }
        }
        if let Some(dl) = n.tx.first_deadline() {
            let cand = (n.time.max(dl), 2u8);
            if best.is_none_or(|b| cand < b) {
                best = Some(cand);
            }
        }
        best
    }

    /// The node's earliest retransmission-timer candidate time (the kind-2
    /// component of [`Self::node_candidate`]), used by the sharded
    /// executor to cap windows below the first timer fire.
    #[inline]
    pub(crate) fn node_timer_candidate(&self, i: usize) -> Option<Cycles> {
        let n = &self.nodes[i];
        n.tx.first_deadline().map(|dl| n.time.max(dl))
    }

    /// Drive the machine until no work remains anywhere. Deterministic:
    /// the next event is always the minimum `(virtual time,
    /// message-before-compute, node id)` candidate, with message order
    /// within a node fixed by `(delivery time, sequence number)` — the
    /// tie-break is a specification every executor satisfies
    /// bit-identically (see [`SchedImpl`]).
    pub fn run_to_quiescence(&mut self) -> Result<(), Trap> {
        self.run_until(Cycles::MAX)
    }

    /// Drive the machine until every candidate event is at or past
    /// `horizon` (exclusive: an event whose selected time is exactly
    /// `horizon` is *not* dispatched), then return with the machine
    /// **resumable** — a later `run_until` with a larger horizon, or
    /// [`Self::run_to_quiescence`], continues exactly where this left
    /// off, under the same executor or any other. Work injected between
    /// calls (e.g. [`Self::inject_request`]) is picked up on the next call.
    ///
    /// The event selected is always the global minimum `(time, kind,
    /// node)` candidate, exactly as under [`Self::run_to_quiescence`]
    /// (which is this with `horizon = Cycles::MAX`), so a horizon-bounded
    /// run is a *prefix* of the unbounded run: traces, stats, clocks, and
    /// rollups are bit-identical across all [`SchedImpl`]s at every
    /// thread count for the same horizon. Note that node clocks may
    /// stand past `horizon` afterwards — a step *starting* before the
    /// horizon charges all of its work.
    pub fn run_until(&mut self, horizon: Cycles) -> Result<(), Trap> {
        if self.explore.is_some() {
            return self.run_reference(horizon);
        }
        match self.sched_impl {
            SchedImpl::EventIndex => self.run_index(horizon),
            SchedImpl::Sharded { threads } => self.run_sharded(threads, horizon),
            SchedImpl::Speculative { threads } => self.run_speculative(threads, horizon),
        }
    }

    /// The production dispatch loop, O(log P) per event: pop the minimum
    /// candidate from the event index, re-validate it against the node's
    /// live state (lazy invalidation), execute it, re-arm the node's next
    /// candidate, and stop at the first candidate at or past `limit` — the
    /// caller's horizon on the single-threaded path, the window end in a
    /// shard worker.
    ///
    /// Every heap entry is a lower bound on its node's true candidate key
    /// (clocks only advance), and every inbox/ready/granted insertion notes
    /// a candidate — so whenever a node is actionable below `limit` the
    /// heap holds an entry at or below its true key, and the first entry
    /// that validates exactly equal to its node's recomputed candidate is
    /// the global minimum: the same event the reference loop selects.
    pub(crate) fn run_index(&mut self, limit: Cycles) -> Result<(), Trap> {
        if self.sched.is_none() {
            // The last chunk ran under an executor that keeps no index on
            // this runtime: rebuild it from the whole machine.
            self.reseed(0..self.nodes.len(), Cycles::MAX);
        }
        loop {
            // A minimum at or past the limit means the whole machine is.
            // Stop *before* popping: the intact index (plus re-keys pushed
            // below for stale pops past the limit) is what makes the run
            // resumable.
            let index = self.sched.as_mut().expect("seeded above");
            match index.peek() {
                None => break,
                Some(e) if e.time >= limit => return Ok(()),
                Some(_) => {}
            }
            let e = index.pop().expect("peeked entry");
            let i = e.node as usize;
            // A node's entries pop in key order, so the first pop carries
            // the tracked minimum; consuming it clears the suppression
            // marker (an equal-key duplicate left behind is harmless).
            if self.nodes[i].sched_noted == Some((e.time, e.kind)) {
                self.nodes[i].sched_noted = None;
            }
            let Some((t, kind)) = self.node_candidate(i) else {
                // Dangling entry: the work it announced was consumed by an
                // earlier event (e.g. a send-time poll).
                self.sched_stats.stale_pops += 1;
                continue;
            };
            if (t, kind) != (e.time, e.kind) {
                // Stale lower bound: re-key with the node's live candidate.
                self.sched_stats.stale_pops += 1;
                self.sched_note(t, kind, i);
                continue;
            }
            if kind == 2 {
                if let Some(sh) = &self.shard {
                    // A timer came due inside a worker's window, and its
                    // handler needs full-machine visibility
                    // (`frame_in_flight`). A conservative window never gets
                    // here (its end never outruns `retx_base`); a
                    // speculative one does when the timer was armed
                    // mid-window — already recorded in `min_timer`, so
                    // validation will roll this attempt back below the
                    // deadline. Stop the shard; the rollback discards it.
                    if sh.ckpt.armed {
                        debug_assert!(
                            sh.min_timer < limit,
                            "in-window timer not recorded for validation"
                        );
                        return Ok(());
                    }
                    debug_assert!(
                        false,
                        "retransmission timer fired inside a window (lookahead bound violated)"
                    );
                }
            }
            self.dispatch_event(t, kind, i)?;
            if let Some((t, kind)) = self.node_candidate(i) {
                self.sched_note(t, kind, i);
            }
        }
        debug_assert!(
            (0..self.nodes.len()).all(|i| self.node_candidate(i).is_none_or(|c| c.0 >= limit)),
            "event index drained while work remains below the limit"
        );
        Ok(())
    }

    /// Dispatch the selected event on node `i`. `t` is the (validated)
    /// candidate time; `kind` 0 handles the inbox head, 1 runs a grant or
    /// ready context, 2 fires due retransmission timers.
    pub(crate) fn dispatch_event(&mut self, t: Cycles, kind: u8, i: usize) -> Result<(), Trap> {
        if let Some(sh) = &mut self.shard {
            // Every record emitted during this step is captured under the
            // event's (time, kind, node) key for the deterministic merge.
            // The per-shard ordinal marks event boundaries within equal
            // keys (zero-cost steps can repeat a key). The dispatch log
            // is what the commit merge replays to reconstruct the serial
            // schedule (and pick the serial-first trap) even when tracing
            // is off (see `crate::shard`).
            sh.cur = (t, kind, i as u32);
            sh.ord += 1;
            sh.dispatched.push(sh.cur);
        }
        self.tw_save(i);
        self.poll_floor = t;
        self.san_step = (t, kind, i as u32);
        self.sched_stats.events_dispatched += 1;
        let r = if kind == 0 {
            let e = self.nodes[i].inbox.pop().expect("selected inbox entry");
            self.nodes[i].time = t;
            self.current_req = e.req;
            self.emit_event_start(i, kind, e.req);
            self.handle_packet(i, e)
        } else if kind == 2 {
            self.nodes[i].time = t;
            self.current_req = 0;
            self.emit_event_start(i, kind, 0);
            self.run_retransmits(i);
            Ok(())
        } else if let Some((obj, d)) = self.nodes[i].granted.pop_front() {
            self.current_req = d.req;
            self.emit_event_start(i, kind, d.req);
            self.run_granted(i, obj, d)
        } else {
            let c = self.nodes[i].ready.pop_front().expect("selected ready ctx");
            let req = self.nodes[i].ctxs.get(c).req;
            self.current_req = req;
            self.emit_event_start(i, kind, req);
            crate::par::dispatch(self, i, c)
        };
        if r.is_ok() {
            self.emit(
                i,
                crate::trace::TraceEvent::EventEnd {
                    node: NodeId(i as u32),
                },
            );
        }
        r
    }

    /// Emit the step-start marker for a dispatched event (the node's clock
    /// already stands at the event's start time). `req` is the step's
    /// blame tag (the caller has just set `current_req` to it).
    #[inline]
    fn emit_event_start(&mut self, i: usize, kind: u8, req: u64) {
        self.emit(
            i,
            crate::trace::TraceEvent::EventStart {
                node: NodeId(i as u32),
                kind,
                req,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cont::Continuation;
    use crate::fixture::{assert_bit_identical, ring_runtime, run_ring, start_ring, Exec, Outcome};
    use crate::msg::Msg;
    use crate::transport::Pending;
    use hem_ir::Value;
    use hem_machine::cost::CostModel;
    use hem_machine::fault::FaultPlan;

    fn plans() -> [Option<FaultPlan>; 2] {
        [None, Some(FaultPlan::seeded(7))]
    }

    #[test]
    fn worker_style_drive_is_the_uninterrupted_run() {
        // What every shard worker does — reseed below the window end, run
        // the index loop to it — over successive window ends on one
        // runtime dispatches exactly what one `run_index(MAX)` does.
        for plan in plans() {
            let base = run_ring(SchedImpl::EventIndex, CostModel::cm5(), plan.clone());
            let mut rt = start_ring(SchedImpl::EventIndex, CostModel::cm5(), plan);
            let mut end = 0;
            while !rt.is_quiescent() {
                end += 97;
                rt.reseed(0..rt.nodes.len(), end);
                rt.run_index(end).expect("window");
            }
            assert!(end / 97 > 50, "many windows: {end}");
            assert_bit_identical(&base, &Outcome::of(rt), "windowed drive");
        }
    }

    #[test]
    fn worker_stops_at_an_in_window_timer_that_a_full_machine_fires() {
        // Node 0 holds one unacked frame whose retransmission timer is
        // due at 100, and nothing else is pending anywhere.
        let (mut rt, _, method) = ring_runtime(2, CostModel::cm5());
        rt.enable_reliable_transport();
        let msg = Msg::Invoke {
            obj: 0,
            method,
            args: vec![Value::Int(0)],
            cont: Continuation::Discard,
            forwarded: false,
        };
        let pending = Pending {
            words: msg.words(),
            msg,
            latency: rt.cost.msg_latency,
            send_cost: rt.cost.msg_send,
            deadline: 100,
            attempt: 0,
            req: 0,
        };
        rt.nodes[0].tx.arm(1, pending);

        // A worker inside a speculative window must not fire it: the
        // handler looks into remote inboxes. It stops instead.
        let mut wk = rt.make_worker(0, &[0, 0], false);
        std::mem::swap(&mut wk.nodes, &mut rt.nodes);
        wk.tw_arm();
        wk.shard.as_mut().expect("shard ctx").min_timer = 100;
        wk.reseed(0..2, 1_000);
        wk.run_index(1_000).expect("stopped, not trapped");
        assert_eq!(wk.sched_stats.events_dispatched, 0, "nothing dispatched");
        assert_eq!(wk.nodes[0].time, 0, "clock untouched");
        assert_eq!(wk.nodes[0].tx.first_deadline(), Some(100), "timer kept");

        // The same state on a full machine: the timer fires, the frame is
        // retransmitted, delivered and acked.
        std::mem::swap(&mut wk.nodes, &mut rt.nodes);
        rt.reseed(0..2, 1_000);
        rt.run_index(Cycles::MAX).expect("drains");
        assert_eq!(rt.nodes[0].counters.retransmits, 1, "timer fired");
        assert!(rt.is_quiescent(), "frame acked");
    }

    #[test]
    fn reference_loop_in_canonical_order_is_the_event_index_run() {
        for plan in plans() {
            let base = run_ring(SchedImpl::EventIndex, CostModel::cm5(), plan.clone());
            let mut rt = start_ring(Exec::Reference, CostModel::cm5(), plan);
            rt.run_to_quiescence().expect("ring runs");
            assert!(
                rt.tie_log().iter().all(|t| t.choice == 0 && t.arity > 1),
                "canonical order logs only choice 0: {:?}",
                rt.tie_log()
            );
            let out = Outcome::of(rt);
            assert_bit_identical(&base, &out, "reference loop");
            assert!(base.stats.sched.heap_pushes > 0, "the index was live");
            assert_eq!(
                out.stats.sched.heap_pushes, 0,
                "the reference loop has none"
            );
        }
    }
}
