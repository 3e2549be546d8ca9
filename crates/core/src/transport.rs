//! The message path. Everything a node sends goes through
//! [`Runtime::send`] — price, charge, count, record, frame (seq/ack/
//! retransmit when the reliable transport is on), inject — and everything
//! it receives comes out of its inbox through [`Runtime::handle_packet`].
//! The per-node protocol state is a [`Transport`], private to this module.

use crate::cont::Continuation;
use crate::error::Trap;
use crate::msg::{Msg, Packet};
use crate::rt::Runtime;
use crate::trace::{MsgCause, TraceEvent};
use hem_ir::{MethodId, ObjRef, Value};
use hem_machine::net::WireClass;
use hem_machine::{Cycles, NodeId};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

/// A packet sitting in a node's inbox awaiting its delivery time.
#[derive(Debug, Clone)]
pub(crate) struct InboxEntry {
    pub deliver: Cycles,
    pub seq: u64,
    pub src: NodeId,
    pub msg: Packet,
    /// Blame tag of the step that injected the packet (request id + 1;
    /// 0 = untagged). Not part of the ordering key: delivery order is
    /// still exactly `(deliver, seq)`.
    pub req: u64,
    /// Whether this wire copy was a retransmission (blame attributes its
    /// transit to the retransmit penalty).
    pub retx: bool,
}

impl PartialEq for InboxEntry {
    fn eq(&self, other: &Self) -> bool {
        (self.deliver, self.seq) == (other.deliver, other.seq)
    }
}
impl Eq for InboxEntry {}
impl PartialOrd for InboxEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for InboxEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap by (deliver, seq).
        (other.deliver, other.seq).cmp(&(self.deliver, self.seq))
    }
}

/// An unacknowledged data frame retained by its sender for retransmission
/// (reliable transport only).
#[derive(Debug, Clone)]
pub(crate) struct Pending {
    /// The payload, re-framed verbatim on every retransmission.
    pub msg: Msg,
    /// Wire size charged per copy.
    pub words: u64,
    /// Wire latency of the original send (requests and replies differ).
    pub latency: Cycles,
    /// Sender-side compose cost re-charged per retransmission.
    pub send_cost: Cycles,
    /// Virtual time at which the frame times out.
    pub deadline: Cycles,
    /// Retransmissions so far (drives the exponential backoff).
    pub attempt: u32,
    /// Blame tag of the original send (request id + 1; 0 = untagged);
    /// retransmitted copies re-carry it.
    pub req: u64,
}

/// One node's reliable-transport state. Every unacked frame has exactly
/// one armed timer and every timer an unacked frame: the methods below are
/// the only code that touches either, so the pairing cannot drift. All
/// maps are empty while the transport is off, which is why the node
/// checkpoint can afford the derived (re-allocating) `clone_from`.
#[derive(Debug, Clone, Default)]
pub(crate) struct Transport {
    /// Sender: next per-destination sequence number.
    tx_next: BTreeMap<u32, u64>,
    /// Sender: unacked frames keyed by `(dest, seq)`.
    tx_pending: BTreeMap<(u32, u64), Pending>,
    /// Retransmit timer index over `tx_pending`: `(deadline, dest, seq)`,
    /// minimum first. BTree (not heap) so ack-time removal is exact.
    tx_timers: BTreeSet<(Cycles, u32, u64)>,
    /// Receiver: per-source floor — every seq below it has been delivered
    /// to the application exactly once.
    rx_floor: BTreeMap<u32, u64>,
    /// Receiver: out-of-order seqs at/above the floor.
    rx_seen: BTreeMap<u32, BTreeSet<u64>>,
}

impl Transport {
    /// Retain `frame` as the next unacked frame to `dest` and arm its
    /// timer at `frame.deadline`; returns the frame's sequence number.
    pub(crate) fn arm(&mut self, dest: u32, frame: Pending) -> u64 {
        let next = self.tx_next.entry(dest).or_insert(0);
        let seq = *next;
        *next += 1;
        self.tx_timers.insert((frame.deadline, dest, seq));
        self.tx_pending.insert((dest, seq), frame);
        seq
    }

    /// Retire frame `(dest, seq)` and its timer. A stale ack (a
    /// retransmit raced the first ack) finds nothing; that is fine.
    fn ack(&mut self, dest: u32, seq: u64) {
        if let Some(p) = self.tx_pending.remove(&(dest, seq)) {
            self.tx_timers.remove(&(p.deadline, dest, seq));
        }
    }

    /// The earliest armed deadline: the node's kind-2 candidate, and
    /// `None` exactly when no frame is unacked.
    #[inline]
    pub(crate) fn first_deadline(&self) -> Option<Cycles> {
        self.tx_timers.first().map(|t| t.0)
    }

    /// The frame whose timer is earliest, if it is due at `now`.
    fn first_due(&self, now: Cycles) -> Option<(u32, u64, &Pending)> {
        let &(deadline, dest, seq) = self.tx_timers.first()?;
        (deadline <= now).then(|| (dest, seq, &self.tx_pending[&(dest, seq)]))
    }

    /// Count one more attempt on frame `(dest, seq)` and move its timer
    /// to `deadline`.
    fn rearm(&mut self, dest: u32, seq: u64, deadline: Cycles) {
        let p = self
            .tx_pending
            .get_mut(&(dest, seq))
            .expect("re-armed frame is unacked");
        self.tx_timers.remove(&(p.deadline, dest, seq));
        p.attempt += 1;
        p.deadline = deadline;
        self.tx_timers.insert((deadline, dest, seq));
    }

    /// Record receipt of transport seq `seq` from `src`; returns true when
    /// it was already delivered (i.e. this copy is a duplicate). The floor
    /// compacts the seen-set so memory stays proportional to reordering,
    /// not traffic.
    fn rx_mark(&mut self, src: u32, seq: u64) -> bool {
        let floor = self.rx_floor.entry(src).or_insert(0);
        if seq < *floor {
            return true;
        }
        let seen = self.rx_seen.entry(src).or_default();
        if !seen.insert(seq) {
            return true;
        }
        while seen.remove(floor) {
            *floor += 1;
        }
        false
    }
}

/// What a send costs: `fixed + per_word × words` cycles of compose work on
/// the sender's clock, then `latency` cycles on the wire.
pub(crate) struct Price {
    pub fixed: Cycles,
    pub per_word: Cycles,
    pub latency: Cycles,
}

impl Runtime {
    /// Inject a packet into the interconnect and drain it straight into
    /// the destination inbox. The wire is drained once per injection — the
    /// `Network` heap assigns the global sequence number, applies the fault
    /// plan, and keeps traffic stats, but packets never sit in it across
    /// scheduler iterations, so the dispatch loop does not need to re-drain
    /// it per event.
    fn inject(
        &mut self,
        from: usize,
        dest: NodeId,
        deliver: Cycles,
        words: u64,
        class: WireClass,
        pkt: Packet,
    ) {
        let src = self.nodes[from].id;
        // Per-source wire sequence (see `Node::wire_seq`): deterministic
        // under any scheduler implementation, unlike the network-global
        // counter, so fault fates and same-cycle tie-breaks never depend
        // on how sends from different nodes interleave.
        let wseq = self.nodes[from].wire_seq;
        self.nodes[from].wire_seq += 1;
        let seq = (wseq << 20) | src.0 as u64;
        let fate = self
            .net
            .send_tagged(seq, src, dest, deliver, words, class, pkt);
        if fate.dropped {
            self.emit(
                from,
                TraceEvent::MsgDropped {
                    from: src,
                    to: dest,
                    partitioned: fate.partitioned,
                },
            );
        } else if fate.duplicated {
            self.emit(
                from,
                TraceEvent::MsgDuplicated {
                    from: src,
                    to: dest,
                },
            );
        }
        // The wire is drained synchronously within this injection, so the
        // sending step's blame tag is still current — stamp it (and the
        // retransmission class) onto each inbox entry so the receiving
        // step can pick the tag up without widening the wire format.
        let retx = class == WireClass::Retx;
        while let Some(m) = self.net.pop() {
            let d = m.dest.idx();
            let entry = InboxEntry {
                deliver: m.deliver_at,
                seq: m.seq,
                src: m.src,
                msg: m.msg,
                req: self.current_req,
                retx,
            };
            // In a shard worker, a packet for a node another shard owns is
            // parked in the outbox; the coordinator routes it at the next
            // window barrier. The window protocol guarantees it cannot be
            // due before the barrier (its delivery time is at least the
            // window end; see `crate::shard`).
            if let Some(sh) = &mut self.shard {
                if !sh.owns[d] {
                    sh.outbox.push((d as u32, entry));
                    continue;
                }
            }
            // Intra-shard delivery mutates a node other than the one being
            // dispatched: checkpoint it first (cross-node state only ever
            // changes through messages, so this hook plus the
            // dispatch-time one cover every mutation a rollback undoes).
            self.tw_save(d);
            self.nodes[d].inbox.push(entry);
            let at = self.nodes[d].time.max(m.deliver_at);
            self.sched_note(at, 0, d);
        }
    }

    /// Frame `msg` for the wire and inject it: raw when the reliable
    /// transport is off (bit-identical to the pre-transport runtime), else
    /// as a sequenced data frame retained for retransmission until acked.
    /// `latency` and `send_cost` are recorded so a retransmission re-prices
    /// exactly like the original.
    #[allow(clippy::too_many_arguments)]
    fn transmit(
        &mut self,
        from: usize,
        dest: NodeId,
        deliver: Cycles,
        words: u64,
        latency: Cycles,
        send_cost: Cycles,
        class: WireClass,
        msg: Msg,
    ) {
        if !self.img.reliable {
            self.inject(from, dest, deliver, words, class, Packet::Raw(msg));
            return;
        }
        let deadline = self.nodes[from].time + self.img.retx_base;
        if let Some(sh) = &mut self.shard {
            if sh.ckpt.armed {
                // Speculative window: a timer armed mid-window may come
                // due *before* the window edge (conservative windows
                // cannot outrun `retx_base`, optimistic ones can), and
                // workers never fire timers. Record the earliest such
                // deadline so validation can shrink the window below it.
                sh.min_timer = sh.min_timer.min(deadline);
            }
        }
        let frame = Pending {
            msg: msg.clone(),
            words,
            latency,
            send_cost,
            deadline,
            attempt: 0,
            req: self.current_req,
        };
        let seq = self.nodes[from].tx.arm(dest.0, frame);
        self.sched_note(deadline, 2, from);
        self.inject(from, dest, deliver, words, class, Packet::Data { seq, msg });
    }

    /// The one send path: price `msg`, charge the sender, count it under
    /// its kind's counters, record the `MsgSent`, and put it on the wire.
    /// The transport's sequence number rides in the active-message header
    /// word the wire format already reserves, so reliable mode adds no
    /// payload words to data frames. Does not poll — the wrappers below
    /// and the collective leg loop decide when.
    pub(crate) fn send(&mut self, from: usize, dest: NodeId, price: Price, msg: Msg) {
        let words = msg.words();
        let c = price.fixed + price.per_word * words;
        self.charge(from, c);
        let ctr = self.ctr(from);
        let class = match msg {
            Msg::Invoke { .. } => {
                ctr.msgs_sent += 1;
                ctr.req_words_sent += words;
                WireClass::Data
            }
            Msg::Reply { .. } => {
                ctr.replies_sent += 1;
                ctr.reply_words_sent += words;
                WireClass::Data
            }
            Msg::CollDown { .. } | Msg::CollUp { .. } => {
                ctr.msgs_sent += 1;
                ctr.coll_legs_sent += 1;
                ctr.coll_words_sent += words;
                WireClass::Coll
            }
        };
        self.emit(
            from,
            TraceEvent::MsgSent {
                from: self.nodes[from].id,
                to: dest,
                words,
                cause: msg.cause(),
                req: self.current_req,
            },
        );
        let deliver = self.nodes[from].time + price.latency;
        self.transmit(from, dest, deliver, words, price.latency, c, class, msg);
    }

    /// Send an invocation request to `target`'s node, charging sender-side
    /// costs and wire latency. Sending also polls the network (below); a
    /// trap raised by a handler that runs during that poll propagates
    /// promptly to the sender's execution rather than being parked for the
    /// next scheduler iteration.
    pub(crate) fn send_invoke(
        &mut self,
        from: usize,
        target: ObjRef,
        method: MethodId,
        args: Vec<Value>,
        cont: Continuation,
        forwarded: bool,
    ) -> Result<(), Trap> {
        let msg = Msg::Invoke {
            obj: target.index,
            method,
            args,
            cont,
            forwarded,
        };
        let c = self.cost();
        let price = Price {
            fixed: c.msg_send,
            per_word: c.msg_word,
            latency: c.msg_latency,
        };
        self.send(from, target.node, price, msg);
        self.poll_network(from)
    }

    /// Send answer traffic: a [`Msg::Reply`], or an up-tree collective leg
    /// (priced like a reply, but classed and attributed as collective wire
    /// words). Trap propagation as for [`Self::send_invoke`].
    pub(crate) fn send_reply(&mut self, from: usize, dest: NodeId, msg: Msg) -> Result<(), Trap> {
        let c = self.cost();
        let price = Price {
            fixed: c.reply_send,
            per_word: c.reply_word,
            latency: c.reply_latency,
        };
        self.send(from, dest, price, msg);
        self.poll_network(from)
    }

    /// Poll the network from code running on `node` — the Concert/CM-5
    /// active-message discipline: every communication operation services
    /// arrived messages, so a long stack sweep cannot starve incoming
    /// requests (which would serialize the machine and hide exactly the
    /// latency-tolerance the hybrid model is supposed to show). Handled
    /// invocations run as nested tasks; the current task's lock identity
    /// is restored afterwards. (Arrived messages already sit in per-node
    /// inboxes — injection drains the wire — so only this node's due
    /// entries are examined.) A poll services only messages that had
    /// arrived by the current event's start (`poll_floor`): a message
    /// delivered later — even if the node's clock ran ahead of its
    /// delivery time mid-event — waits for its own scheduler step, so
    /// nested handling is independent of host execution order and of the
    /// sharded executor's node partition.
    pub(crate) fn poll_network(&mut self, node: usize) -> Result<(), Trap> {
        loop {
            let due = self.nodes[node].inbox.peek().is_some_and(|e| {
                e.deliver <= self.nodes[node].time && e.deliver <= self.poll_floor
            });
            if !due {
                return Ok(());
            }
            let e = self.nodes[node].inbox.pop().expect("peeked entry");
            let saved = self.current_task;
            let saved_req = self.current_req;
            let r = self.handle_packet(node, e);
            self.current_task = saved;
            self.current_req = saved_req;
            r?;
        }
    }

    /// Transport-level receive processing on `node` of the inbox entry it
    /// just consumed: charges handler entry, acknowledges and
    /// duplicate-suppresses data frames, retires pending state on acks,
    /// and runs any payload through [`Self::handle_msg`]. Raw packets take
    /// the legacy path unchanged. The entry's blame tag becomes the current
    /// tag for all work this handling triggers.
    pub(crate) fn handle_packet(&mut self, node: usize, e: InboxEntry) -> Result<(), Trap> {
        let InboxEntry {
            src,
            req,
            deliver,
            retx,
            ..
        } = e;
        self.current_req = req;
        let msg = match e.msg {
            Packet::Raw(msg) => {
                self.charge(node, self.cost().handler);
                msg
            }
            Packet::Data { seq, msg } => {
                self.charge(node, self.cost().handler);
                // Ack every copy, duplicate or not: acks confirm *receipt*,
                // and a duplicate often means the original's ack was lost.
                self.charge(node, self.cost().ack_overhead);
                self.ctr(node).acks_sent += 1;
                self.emit(
                    node,
                    TraceEvent::MsgSent {
                        from: NodeId(node as u32),
                        to: src,
                        words: 1,
                        cause: MsgCause::Ack,
                        req,
                    },
                );
                let deliver_ack = self.nodes[node].time + self.cost().reply_latency;
                let ack = Packet::Ack { seq };
                self.inject(node, src, deliver_ack, 1, WireClass::Ack, ack);
                if self.nodes[node].tx.rx_mark(src.0, seq) {
                    self.ctr(node).dups_suppressed += 1;
                    self.emit(
                        node,
                        TraceEvent::DupSuppressed {
                            node: NodeId(node as u32),
                            from: src,
                        },
                    );
                    return Ok(());
                }
                msg
            }
            Packet::Ack { seq } => {
                self.charge(node, self.cost().ack_overhead);
                self.ctr(node).acks_handled += 1;
                self.emit_handled(node, src, None, req, deliver, retx);
                self.nodes[node].tx.ack(src.0, seq);
                return Ok(());
            }
        };
        self.ctr(node).msgs_handled += 1;
        self.emit_handled(node, src, Some(&msg), req, deliver, retx);
        self.handle_msg(node, msg)
    }

    /// Emit the [`TraceEvent::MsgHandled`] record for a delivered
    /// application payload, or (`None`) for a one-word ack frame.
    #[inline]
    fn emit_handled(
        &mut self,
        node: usize,
        src: NodeId,
        payload: Option<&Msg>,
        req: u64,
        deliver: Cycles,
        retx: bool,
    ) {
        if !self.tracing_active() {
            return;
        }
        let (words, cause) = payload.map_or((1, MsgCause::Ack), |m| (m.words(), m.cause()));
        self.emit(
            node,
            TraceEvent::MsgHandled {
                node: NodeId(node as u32),
                from: src,
                words,
                cause,
                req,
                deliver,
                retx,
            },
        );
    }

    /// Hand a delivered payload to the layer it belongs to: the wrapper
    /// (§3.3) for an invocation, the context protocol for a reply, the
    /// collective fold for a collective leg.
    fn handle_msg(&mut self, node: usize, msg: Msg) -> Result<(), Trap> {
        match msg {
            Msg::Invoke {
                obj,
                method,
                args,
                cont,
                forwarded,
            } => {
                self.ctr(node).wrapper_runs += 1;
                crate::wrapper::run_invocation(self, node, obj, method, args, cont, forwarded)
            }
            Msg::Reply { cont, value } => {
                debug_assert_eq!(cont.node.idx(), node);
                self.fill_slot(node, cont.ctx, cont.gen, cont.slot, value)
            }
            leg @ (Msg::CollDown { .. } | Msg::CollUp { .. }) => self.handle_coll_leg(node, leg),
        }
    }

    /// Is a copy of frame `(node → dest, seq)` still in flight — the data
    /// frame queued in `dest`'s inbox, or its ack queued in `node`'s? While
    /// one is, a timeout is premature: the simulator's retransmission timer
    /// is clairvoyant where a real sender would run an adaptive RTO
    /// estimator, so the zero-fault path never retransmits into a merely
    /// slow receiver. Losses leave no copy anywhere and do time out.
    fn frame_in_flight(&self, node: usize, dest: usize, seq: u64) -> bool {
        let me = self.nodes[node].id;
        let data_queued = self.nodes[dest]
            .inbox
            .iter()
            .any(|e| e.src == me && matches!(e.msg, Packet::Data { seq: s, .. } if s == seq));
        data_queued
            || self.nodes[node].inbox.iter().any(|e| {
                e.src.0 == dest as u32 && matches!(e.msg, Packet::Ack { seq: s } if s == seq)
            })
    }

    /// Retransmit every pending frame on `node` whose deadline has arrived
    /// (the caller has advanced the node's clock to the selected event
    /// time), re-arming each with doubled, capped backoff. A frame with a
    /// copy still in flight (see [`Self::frame_in_flight`]) is re-armed
    /// silently — no charge, no injection. The retransmit is a fresh wire
    /// injection: it takes a new *global* sequence number, so the fault
    /// plan rolls a fresh fate and the frame eventually gets through with
    /// probability 1.
    pub(crate) fn run_retransmits(&mut self, node: usize) {
        loop {
            let n = &self.nodes[node];
            let Some((dest, seq, p)) = n.tx.first_due(n.time) else {
                return;
            };
            let (send_cost, words, latency, attempt, req) =
                (p.send_cost, p.words, p.latency, p.attempt + 1, p.req);
            let resend = (!self.frame_in_flight(node, dest as usize, seq)).then(|| p.msg.clone());
            // Re-carry the original send's blame tag on the fresh copy
            // (the timer step itself is untagged work).
            self.current_req = req;
            if resend.is_some() {
                self.charge(node, send_cost);
                self.ctr(node).retransmits += 1;
                self.emit(
                    node,
                    TraceEvent::Retransmit {
                        node: NodeId(node as u32),
                        to: NodeId(dest),
                        attempt,
                    },
                );
                // The wire-accounting record for the fresh copy (one
                // `MsgSent` per injection; the `Retransmit` event above is
                // the protocol-level record).
                self.emit(
                    node,
                    TraceEvent::MsgSent {
                        from: NodeId(node as u32),
                        to: NodeId(dest),
                        words,
                        cause: MsgCause::Retransmit,
                        req,
                    },
                );
            }
            let now = self.nodes[node].time;
            let backoff = self
                .img
                .retx_base
                .saturating_mul(1u64 << attempt.min(20))
                .min(self.img.retx_cap)
                .max(1);
            self.nodes[node].tx.rearm(dest, seq, now + backoff);
            if let Some(msg) = resend {
                let pkt = Packet::Data { seq, msg };
                self.inject(
                    node,
                    NodeId(dest),
                    now + latency,
                    words,
                    WireClass::Retx,
                    pkt,
                );
            }
        }
    }
}
