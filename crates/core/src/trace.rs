//! Optional execution tracing.
//!
//! When enabled, the runtime records one [`TraceEvent`] per interesting
//! runtime action — stack completions, speculative inlines, fallbacks,
//! shell adoptions, messages, suspensions — with the virtual time at which
//! it happened. The trace makes the hybrid model's *adaptation* visible:
//! you can watch an invocation start on the stack, hit a remote object,
//! lazily grow a context, and finish in the parallel version.
//!
//! Tracing is off by default and costs one branch per event when off.

use hem_analysis::Schema;
use hem_ir::MethodId;
use hem_machine::{Cycles, NodeId};

/// Why a wire message was sent (and, symmetrically, what kind of payload
/// a handled message carried). Extends the old `reply: bool` so byte
/// accounting can attribute ack-protocol and retransmission overhead
/// separately from first-copy application traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgCause {
    /// Remote method invocation request.
    Request,
    /// Reply determining a future.
    Reply,
    /// Transport acknowledgement frame (reliable transport only).
    Ack,
    /// Retransmitted copy of an unacknowledged data frame (reliable
    /// transport only). Receivers never see this cause: a delivered
    /// retransmission is handled as its payload's `Request`/`Reply`.
    Retransmit,
    /// Leg of a modeled multicast (down-tree delivery of one invocation
    /// to one group member).
    Multicast,
    /// Leg of a modeled reduction (down-tree delivery or up-tree partial
    /// combine).
    Reduce,
    /// Leg of a modeled barrier (down-tree release probe or up-tree
    /// arrival notification).
    Barrier,
}

impl MsgCause {
    /// Is this an application reply (the old `reply` bool)?
    pub fn is_reply(self) -> bool {
        matches!(self, MsgCause::Reply)
    }

    /// Is this a modeled-collective leg (multicast/reduce/barrier)?
    pub fn is_collective(self) -> bool {
        matches!(
            self,
            MsgCause::Multicast | MsgCause::Reduce | MsgCause::Barrier
        )
    }
}

impl std::fmt::Display for MsgCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            MsgCause::Request => "request",
            MsgCause::Reply => "reply",
            MsgCause::Ack => "ack",
            MsgCause::Retransmit => "retransmit",
            MsgCause::Multicast => "multicast",
            MsgCause::Reduce => "reduce",
            MsgCause::Barrier => "barrier",
        };
        write!(f, "{s}")
    }
}

/// One recorded runtime action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A sequential execution completed on the stack.
    StackComplete {
        /// Node it ran on.
        node: NodeId,
        /// Completed method.
        method: MethodId,
        /// Its sequential schema.
        schema: Schema,
    },
    /// A local, non-blocking leaf was speculatively inlined.
    Inlined {
        /// Node.
        node: NodeId,
        /// Inlined method.
        method: MethodId,
    },
    /// A stack frame lazily became heap context `ctx` (unwinding).
    Fallback {
        /// Node.
        node: NodeId,
        /// Method that fell back.
        method: MethodId,
        /// The created context index.
        ctx: u32,
    },
    /// A heap context was created for an eager parallel invocation.
    ParInvoke {
        /// Node.
        node: NodeId,
        /// Invoked method.
        method: MethodId,
        /// The created context index.
        ctx: u32,
    },
    /// A caller populated a shell context a CP callee created for it.
    ShellAdopted {
        /// Node.
        node: NodeId,
        /// The shell's method.
        method: MethodId,
        /// The shell context index.
        ctx: u32,
    },
    /// A continuation was lazily materialized (§3.2.3).
    ContMaterialized {
        /// Node.
        node: NodeId,
    },
    /// A message was injected into the interconnect. Every wire injection
    /// emits exactly one `MsgSent` (including copies the fault plan then
    /// loses), so the count of these events equals the network's `sent`
    /// statistic.
    MsgSent {
        /// Sender.
        from: NodeId,
        /// Destination.
        to: NodeId,
        /// Payload size in words (drives the per-word wire cost).
        words: u64,
        /// What the message is (request/reply/ack/retransmit).
        cause: MsgCause,
        /// Blame tag: originating external request id + 1, or 0 when the
        /// send is not attributable to a request (closed-system kernels,
        /// internal bookkeeping). The tag rides the causal chain —
        /// invocations, replies, collectives, retransmissions — at zero
        /// virtual-time cost.
        req: u64,
    },
    /// A delivered message was handled on its destination node (transport
    /// duplicates that were suppressed emit [`TraceEvent::DupSuppressed`]
    /// instead). Nested handling during a send-time network poll emits
    /// this too, so every consumed message has exactly one record.
    MsgHandled {
        /// Handling (destination) node.
        node: NodeId,
        /// The message's sender.
        from: NodeId,
        /// Payload size in words.
        words: u64,
        /// Payload kind; never [`MsgCause::Retransmit`] (a delivered
        /// retransmission carries its original payload).
        cause: MsgCause,
        /// Blame tag (request id + 1; 0 = untagged), inherited from the
        /// tag carried by the sending step.
        req: u64,
        /// When the wire delivered the message to the inbox; the record's
        /// `at` minus this is time the message sat waiting for its node.
        deliver: Cycles,
        /// Whether the consumed copy arrived via a retransmission (the
        /// first copy was lost or slow) — attributes recovered wire time
        /// to the retransmit penalty rather than normal transit.
        retx: bool,
    },
    /// A context suspended on a touch.
    Suspend {
        /// Node.
        node: NodeId,
        /// Context.
        ctx: u32,
    },
    /// A waiting context became ready (its touch was satisfied).
    Resume {
        /// Node.
        node: NodeId,
        /// Context.
        ctx: u32,
    },
    /// An invocation was deferred on a held object lock.
    LockDeferred {
        /// Node.
        node: NodeId,
        /// Object index.
        obj: u32,
        /// Blame tag (request id + 1; 0 = untagged) of the deferred
        /// invocation — the waiter, not the lock holder.
        req: u64,
    },
    /// The fault plan lost an injected packet (never enqueued).
    MsgDropped {
        /// Sender.
        from: NodeId,
        /// Intended destination.
        to: NodeId,
        /// Lost to a partition window rather than random loss.
        partitioned: bool,
    },
    /// The fault plan enqueued a second wire-level copy of a packet.
    MsgDuplicated {
        /// Sender.
        from: NodeId,
        /// Destination.
        to: NodeId,
    },
    /// An unacknowledged data frame timed out and was retransmitted.
    Retransmit {
        /// Retransmitting sender.
        node: NodeId,
        /// Destination.
        to: NodeId,
        /// Retransmissions of this frame so far (1 = first retry).
        attempt: u32,
    },
    /// A received data frame was discarded as a duplicate.
    DupSuppressed {
        /// Receiver.
        node: NodeId,
        /// The frame's sender.
        from: NodeId,
    },
    /// A heap context was freed (its activation completed). Together with
    /// the allocation events (`ParInvoke`/`Fallback`) this delimits a
    /// context's residency span.
    CtxFreed {
        /// Node.
        node: NodeId,
        /// Context index.
        ctx: u32,
    },
    /// The dispatch loop selected an event: the node's clock now stands at
    /// the event's start time. `kind` 0 = handle a message, 1 = run local
    /// work (a lock grant or ready context), 2 = fire retransmission
    /// timers. Paired with [`TraceEvent::EventEnd`]; all records emitted
    /// between the pair belong to this scheduler step.
    EventStart {
        /// Dispatching node.
        node: NodeId,
        /// Candidate kind (0 message, 1 local work, 2 timers).
        kind: u8,
        /// Blame tag (request id + 1; 0 = untagged) of the work this step
        /// runs: the handled message's tag for kind 0, the granted or
        /// resumed context's tag for kind 1, always 0 for kind 2.
        req: u64,
    },
    /// The dispatched event completed; the record's time is the node's
    /// clock after all work charged during the step.
    EventEnd {
        /// Dispatching node.
        node: NodeId,
    },
    /// An external client request arrived at the machine (open-system
    /// service mode; see [`crate::rt::Runtime::inject_request`]). Emitted by the
    /// open-loop driver at the request's *arrival* time, which may be
    /// ahead of or behind the target node's clock — this is an offered-
    /// load marker, not on-node work.
    RequestArrived {
        /// Target node (where the request's root invocation lands).
        node: NodeId,
        /// Request id (unique per run).
        req: u64,
    },
    /// An external request's reply was delivered; the record's time is
    /// the serving node's clock at delivery, so `done.at − arrived.at`
    /// is the request's sojourn (latency) in cycles.
    RequestDone {
        /// Node that delivered the reply.
        node: NodeId,
        /// Request id.
        req: u64,
    },
    /// The admission controller refused an external request (queue-depth
    /// or deadline-infeasibility shedding) — it never entered the
    /// machine.
    RequestShed {
        /// Target node the request would have landed on.
        node: NodeId,
        /// Request id.
        req: u64,
    },
}

/// A timestamped event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Virtual time on the event's node.
    pub at: Cycles,
    /// The event.
    pub event: TraceEvent,
}

/// A zero-virtual-time trace consumer, fed every [`TraceRecord`] as it is
/// generated — the online analogue of draining the trace buffer, without
/// the buffer.
///
/// The contract is the sanitizer's: an attached observer must not (and,
/// through this interface, cannot) charge virtual time, touch counters, or
/// alter the event stream, so a run is bit-identical in trace, clocks, and
/// makespan with observation on or off (`tests/observability.rs`
/// guards this). Attaching an observer forces record generation even when
/// the buffering trace is disabled, so machine-sized runs can be profiled
/// without holding the whole event stream in memory.
/// The `Any` supertrait lets a harness recover its concrete observer
/// after the run: `Box<dyn Observer>` upcasts to `Box<dyn Any>`, which
/// downcasts to the observer type (see the `trace_adaptation` example).
/// `Send` is required so an observed runtime can be driven by the
/// sharded executor (the observer itself only ever runs on the
/// coordinator thread, fed the deterministically merged stream).
pub trait Observer: std::any::Any + Send {
    /// Called once per generated record, in emission order.
    fn on_record(&mut self, rec: &TraceRecord);

    /// Called when the observer is detached ([`crate::Runtime::take_observer`]).
    /// Observers that buffer records internally (to amortize per-record
    /// cost) must drain here; the default is a no-op.
    fn on_flush(&mut self) {}
}

/// The trace buffer: unbounded by default, or a bounded ring that keeps
/// only the most recent `cap` records (long fault-injection soaks want the
/// tail — the events around the failure — without unbounded memory).
#[derive(Debug, Default)]
pub struct Trace {
    records: std::collections::VecDeque<TraceRecord>,
    enabled: bool,
    /// Ring capacity; 0 = unbounded.
    cap: usize,
    /// Records evicted from the front of the ring since the last `take`.
    dropped: u64,
    /// Records evicted over the buffer's whole lifetime (never reset —
    /// reports derived from a truncated ring must be able to say so even
    /// after intermediate drains).
    dropped_total: u64,
}

impl Trace {
    /// Turn recording on (unbounded).
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Turn recording on, keeping only the most recent `cap` records
    /// (`cap = 0` means unbounded). Evictions are counted in
    /// [`Trace::dropped`].
    pub fn enable_ring(&mut self, cap: usize) {
        self.enabled = true;
        self.cap = cap;
    }

    /// Is recording on?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records evicted from the ring since the last drain.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Records evicted from the ring over its whole lifetime (not reset by
    /// [`Trace::take`]).
    pub fn dropped_total(&self) -> u64 {
        self.dropped_total
    }

    /// Record (no-op when disabled).
    #[inline]
    pub(crate) fn emit(&mut self, at: Cycles, event: TraceEvent) {
        if self.enabled {
            if self.cap != 0 && self.records.len() == self.cap {
                self.records.pop_front();
                self.dropped += 1;
                self.dropped_total += 1;
            }
            self.records.push_back(TraceRecord { at, event });
        }
    }

    /// Drain the recorded events (oldest first) and reset the drop count.
    pub fn take(&mut self) -> Vec<TraceRecord> {
        self.dropped = 0;
        std::mem::take(&mut self.records).into()
    }

    /// Iterate over the recorded events, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter()
    }
}

impl crate::rt::Runtime {
    /// Enable execution tracing (see [`TraceEvent`]).
    pub fn enable_trace(&mut self) {
        self.trace_buf.enable();
    }

    /// Enable tracing into a bounded ring keeping the last `cap` records.
    pub fn enable_trace_ring(&mut self, cap: usize) {
        self.trace_buf.enable_ring(cap);
    }

    /// Records evicted from the bounded trace ring since the last drain.
    pub fn trace_dropped(&self) -> u64 {
        self.trace_buf.dropped()
    }

    /// Records evicted from the bounded trace ring over the whole run
    /// (never reset; also surfaced as `MachineStats.sched.dropped_events`).
    pub fn trace_dropped_total(&self) -> u64 {
        self.trace_buf.dropped_total()
    }

    /// Drain recorded trace events.
    pub fn take_trace(&mut self) -> Vec<TraceRecord> {
        self.trace_buf.take()
    }

    /// Attach a zero-virtual-time [`Observer`] that is fed every record as
    /// it is generated. Generation is forced even if the buffering trace
    /// is off; the observer never charges virtual time, so traces, clocks,
    /// and makespan are bit-identical with or without it.
    pub fn attach_observer(&mut self, obs: Box<dyn Observer>) {
        self.observer = Some(obs);
    }

    /// Detach and return the attached observer, if any. The observer's
    /// [`Observer::on_flush`] runs first, so buffering observers hand
    /// back fully-drained aggregates.
    pub fn take_observer(&mut self) -> Option<Box<dyn Observer>> {
        let mut obs = self.observer.take();
        if let Some(o) = obs.as_deref_mut() {
            o.on_flush();
        }
        obs
    }

    /// Is an observer attached?
    pub fn observer_attached(&self) -> bool {
        self.observer.is_some()
    }

    /// Is any trace consumer live — the buffering trace, an observer, or
    /// (in a shard worker) the coordinator's capture?
    #[inline]
    pub(crate) fn tracing_active(&self) -> bool {
        match &self.shard {
            Some(sh) => sh.record,
            None => self.trace_buf.enabled() || self.observer.is_some(),
        }
    }

    /// Record an event against a node's current virtual time.
    ///
    /// In a shard worker the record is instead captured under the
    /// dispatching event's `(time, kind, node)` key; the coordinator
    /// merges all shards' captures in key order at each window barrier
    /// and replays them through [`Self::flush_record`], reconstructing
    /// the exact single-threaded emission order.
    #[inline]
    pub(crate) fn emit(&mut self, node: usize, event: TraceEvent) {
        let at = self.nodes[node].time;
        if let Some(sh) = &mut self.shard {
            if sh.record {
                sh.capture.push((sh.cur, sh.ord, TraceRecord { at, event }));
            }
            return;
        }
        if self.trace_buf.enabled() || self.observer.is_some() {
            if let Some(o) = self.observer.as_deref_mut() {
                o.on_record(&TraceRecord { at, event });
            }
            self.trace_buf.emit(at, event);
        }
    }

    /// Deliver an already-built record to the buffering trace and the
    /// observer — the sink half of [`Self::emit`], used by the sharded
    /// coordinator to replay merged shard captures with ring-truncation
    /// and observer semantics identical to direct emission.
    #[inline]
    pub(crate) fn flush_record(&mut self, rec: TraceRecord) {
        if let Some(o) = self.observer.as_deref_mut() {
            o.on_record(&rec);
        }
        self.trace_buf.emit(rec.at, rec.event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::default();
        t.emit(1, TraceEvent::ContMaterialized { node: NodeId(0) });
        assert_eq!(t.records().count(), 0);
        t.enable();
        t.emit(2, TraceEvent::ContMaterialized { node: NodeId(0) });
        assert_eq!(t.records().count(), 1);
        assert_eq!(t.records().next().unwrap().at, 2);
        let drained = t.take();
        assert_eq!(drained.len(), 1);
        assert_eq!(t.records().count(), 0);
    }

    #[test]
    fn ring_keeps_the_tail_and_counts_evictions() {
        let mut t = Trace::default();
        t.enable_ring(3);
        for i in 0..5 {
            t.emit(i, TraceEvent::ContMaterialized { node: NodeId(0) });
        }
        assert_eq!(t.dropped(), 2);
        let recs = t.take();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs.iter().map(|r| r.at).collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn ring_at_exactly_cap_evicts_nothing() {
        let mut t = Trace::default();
        t.enable_ring(3);
        for i in 0..3 {
            t.emit(i, TraceEvent::ContMaterialized { node: NodeId(0) });
        }
        assert_eq!(t.dropped(), 0, "filling to cap is not an eviction");
        let recs = t.take();
        assert_eq!(recs.iter().map(|r| r.at).collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn ring_at_cap_plus_one_evicts_exactly_the_oldest() {
        let mut t = Trace::default();
        t.enable_ring(3);
        for i in 0..4 {
            t.emit(i, TraceEvent::ContMaterialized { node: NodeId(0) });
        }
        assert_eq!(t.dropped(), 1);
        let recs = t.take();
        assert_eq!(
            recs.iter().map(|r| r.at).collect::<Vec<_>>(),
            vec![1, 2, 3],
            "exactly the oldest record is evicted"
        );
    }

    #[test]
    fn take_resets_dropped_and_ring_counts_anew() {
        // `take` drains the buffer *and* resets the eviction counter, so
        // each drained batch reports only its own window's losses.
        let mut t = Trace::default();
        t.enable_ring(2);
        for i in 0..5 {
            t.emit(i, TraceEvent::ContMaterialized { node: NodeId(0) });
        }
        assert_eq!(t.dropped(), 3);
        t.take();
        assert_eq!(t.dropped(), 0, "take resets the drop count");
        t.emit(9, TraceEvent::ContMaterialized { node: NodeId(0) });
        assert_eq!(t.dropped(), 0, "emptied ring refills before evicting");
        t.emit(10, TraceEvent::ContMaterialized { node: NodeId(0) });
        t.emit(11, TraceEvent::ContMaterialized { node: NodeId(0) });
        assert_eq!(t.dropped(), 1, "evictions count from the drained state");
        assert_eq!(
            t.take().iter().map(|r| r.at).collect::<Vec<_>>(),
            vec![10, 11]
        );
    }

    #[test]
    fn dropped_total_survives_take() {
        let mut t = Trace::default();
        t.enable_ring(2);
        for i in 0..5 {
            t.emit(i, TraceEvent::ContMaterialized { node: NodeId(0) });
        }
        assert_eq!(t.dropped(), 3);
        assert_eq!(t.dropped_total(), 3);
        t.take();
        assert_eq!(t.dropped(), 0, "drain-relative counter resets");
        assert_eq!(t.dropped_total(), 3, "lifetime counter does not");
        for i in 0..3 {
            t.emit(10 + i, TraceEvent::ContMaterialized { node: NodeId(0) });
        }
        assert_eq!(t.dropped_total(), 4);
    }

    #[test]
    fn unbounded_ring_cap_zero_never_drops() {
        let mut t = Trace::default();
        t.enable_ring(0);
        for i in 0..100 {
            t.emit(i, TraceEvent::ContMaterialized { node: NodeId(0) });
        }
        assert_eq!(t.dropped(), 0);
        assert_eq!(t.take().len(), 100);
    }
}
