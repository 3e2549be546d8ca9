//! Deterministic interconnect: in-flight messages ordered by delivery time.
//!
//! The network is generic over the payload type `M` (the runtime defines its
//! own message enum). Delivery order is a total order on
//! `(deliver_at, dest, sequence)`, so two runs of the same experiment
//! deliver messages identically — the foundation for reproducible results
//! and the hybrid ≡ parallel-only property tests.

use crate::fault::FaultPlan;
use crate::stats::NetStats;
use crate::{Cycles, NodeId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Wire-level class of an injected message, for traffic accounting.
///
/// The network itself treats every class identically (same ordering, same
/// fault plan); the class only routes the payload's words into the right
/// [`crate::stats::NetStats`] bucket so ack-protocol and retransmission
/// overhead can be attributed separately from first-copy application
/// traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireClass {
    /// First wire copy of an application payload (request or reply).
    #[default]
    Data,
    /// Transport acknowledgement frame.
    Ack,
    /// Retransmitted copy of a data frame.
    Retx,
    /// First wire copy of a collective leg (multicast/reduce/barrier
    /// down- or up-leg). Retransmitted legs fall back to [`WireClass::Retx`]
    /// like any other data frame.
    Coll,
}

/// One leg of a planned collective: where it goes and where it sits in the
/// virtual distribution tree.
///
/// Collectives are modeled over a binary-heap-shaped tree laid over the
/// participants: the initiator occupies position 0, member rank `r`
/// occupies position `r + 1`, and the parent of position `p` is
/// `(p - 1) / 2`. A leg to a member at tree depth `d` costs `d` hops of
/// wire latency instead of one — the fan-out is pipelined down the tree,
/// not `P` independent sends — and the member's reduction contribution
/// travels one hop back up to its tree parent rather than all the way to
/// the initiator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollLeg {
    /// Member rank in the group (index into the caller's member list).
    pub rank: u32,
    /// Tree position (`rank + 1`; position 0 is the initiator).
    pub pos: u32,
    /// Node the member lives on.
    pub dest: NodeId,
    /// Tree depth of `pos` — the number of hops the down-leg is charged.
    pub depth: u32,
    /// Tree position of the parent (`0` = the initiator itself).
    pub parent_pos: u32,
    /// Node the parent lives on (the up-leg's destination).
    pub parent: NodeId,
    /// Number of tree children whose contributions this member must fold
    /// before sending its own up-leg.
    pub children: u8,
    /// This member's contribution index at its parent (1 = left child,
    /// 2 = right child; index 0 is the parent's own contribution), fixing
    /// the fold order independent of arrival order.
    pub child_ix: u8,
}

/// A planned collective: the legs plus the cost parameters the runtime
/// charges when it executes them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollPlan {
    /// One leg per member, in rank order.
    pub legs: Vec<CollLeg>,
    /// Payload words each down-leg carries (0 for barriers).
    pub words: u64,
    /// Per-contribution fold cost charged where the fold happens
    /// (reductions only).
    pub op_cost: Cycles,
    /// Depth of the deepest leg — the number of pipelined hops the
    /// slowest member waits for.
    pub depth: u32,
}

/// Tree depth of a collective position: `floor(log2(pos + 1))`.
/// Position 0 (the initiator) is at depth 0, positions 1–2 at depth 1,
/// 3–6 at depth 2, and so on.
pub fn coll_depth(pos: u32) -> u32 {
    (pos + 1).ilog2()
}

/// Parent position of a non-root collective position.
pub fn coll_parent(pos: u32) -> u32 {
    debug_assert!(pos > 0, "the root has no parent");
    (pos - 1) / 2
}

/// Lay the virtual tree over `src` + `members` and emit one leg per
/// member. Pure shape — no counters, no costs.
fn plan_legs(src: NodeId, members: &[NodeId]) -> Vec<CollLeg> {
    let n = members.len() as u32;
    (0..n)
        .map(|rank| {
            let pos = rank + 1;
            let parent_pos = coll_parent(pos);
            let parent = if parent_pos == 0 {
                src
            } else {
                members[(parent_pos - 1) as usize]
            };
            let children = [2 * pos + 1, 2 * pos + 2]
                .iter()
                .filter(|&&c| c <= n)
                .count() as u8;
            CollLeg {
                rank,
                pos,
                dest: members[rank as usize],
                depth: coll_depth(pos),
                parent_pos,
                parent,
                children,
                child_ix: if pos % 2 == 1 { 1 } else { 2 },
            }
        })
        .collect()
}

/// A message in flight, carrying its destination and delivery time.
#[derive(Debug, Clone)]
pub struct InFlight<M> {
    /// Virtual time at which the message reaches `dest`'s network interface.
    pub deliver_at: Cycles,
    /// Destination node.
    pub dest: NodeId,
    /// Source node (for accounting and debugging).
    pub src: NodeId,
    /// Monotone sequence number assigned at send time (tie-breaker).
    pub seq: u64,
    /// Payload.
    pub msg: M,
}

// BinaryHeap is a max-heap; invert the ordering to pop the *earliest*.
impl<M> PartialEq for InFlight<M> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<M> Eq for InFlight<M> {}
impl<M> PartialOrd for InFlight<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for InFlight<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: smallest key = greatest heap element.
        other.key().cmp(&self.key())
    }
}

impl<M> InFlight<M> {
    #[inline]
    fn key(&self) -> (Cycles, u32, u64) {
        (self.deliver_at, self.dest.0, self.seq)
    }
}

/// The interconnect: a priority queue of in-flight messages.
///
/// The network does not charge instruction costs itself — the sender charges
/// `msg_send + words·msg_word` on its own clock and passes the resulting
/// injection time here; the wire latency is added by the caller too. This
/// keeps all pricing decisions in one place (the runtime) and the network
/// purely mechanical.
#[derive(Debug)]
pub struct Network<M> {
    heap: BinaryHeap<InFlight<M>>,
    next_seq: u64,
    /// Installed fault schedule, if any (see [`FaultPlan`]).
    plan: Option<FaultPlan>,
    /// Cumulative traffic and fault counters.
    pub stats: NetStats,
}

impl<M> Default for Network<M> {
    fn default() -> Self {
        Network {
            heap: BinaryHeap::new(),
            next_seq: 0,
            plan: None,
            stats: NetStats::default(),
        }
    }
}

/// What happened to one injected message (the plan's decision as applied).
///
/// With no plan installed every fate is `{seq, dropped: false,
/// duplicated: false, extra_latency: 0}` and exactly one copy is enqueued
/// at the caller's `deliver_at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendFate {
    /// Globally unique sequence number assigned to the message.
    pub seq: u64,
    /// The message was lost (no copy enqueued).
    pub dropped: bool,
    /// The loss was a partition-window loss (implies `dropped`).
    pub partitioned: bool,
    /// A second wire-level copy was enqueued.
    pub duplicated: bool,
    /// Extra latency (jitter and/or stall deferral) added to the primary
    /// copy, beyond the caller's `deliver_at`.
    pub extra_latency: Cycles,
}

impl<M> Network<M> {
    /// Create an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install (or clear) the fault schedule applied to subsequent sends.
    pub fn set_plan(&mut self, plan: Option<FaultPlan>) {
        self.plan = plan;
    }

    /// The installed fault schedule, if any.
    pub fn plan(&self) -> Option<&FaultPlan> {
        self.plan.as_ref()
    }

    /// Inject a message. `deliver_at` must already include wire latency.
    /// Accounts the traffic as [`WireClass::Data`]; see
    /// [`Self::send_classed`].
    pub fn send(
        &mut self,
        src: NodeId,
        dest: NodeId,
        deliver_at: Cycles,
        words: u64,
        msg: M,
    ) -> SendFate
    where
        M: Clone,
    {
        self.send_classed(src, dest, deliver_at, words, WireClass::Data, msg)
    }

    /// Words that actually crossed the wire, bucketed by class.
    #[inline]
    fn account(&mut self, class: WireClass, words: u64) {
        self.stats.words += words;
        match class {
            WireClass::Data => self.stats.data_words += words,
            WireClass::Ack => self.stats.ack_words += words,
            WireClass::Retx => self.stats.retx_words += words,
            WireClass::Coll => self.stats.coll_words += words,
        }
    }

    /// Plan a modeled multicast from `src` to `dests`: one leg per member,
    /// each charged `depth(member) × hop latency` by the caller instead of
    /// `P` independent full-latency sends. `words` is the payload each leg
    /// carries. Only plans and counts — the caller injects the legs (so
    /// transport framing, fault fates, and wire-seq tagging apply
    /// unchanged).
    pub fn multicast(&mut self, src: NodeId, dests: &[NodeId], words: u64) -> CollPlan {
        self.stats.multicasts += 1;
        self.plan_tree(src, dests, words, 0)
    }

    /// Plan a modeled reduction over `group` toward `root`: the same tree
    /// as [`Self::multicast`], but each member folds its tree children's
    /// contributions (at `op_cost` per contribution) before sending one
    /// up-leg to its parent.
    pub fn reduce(
        &mut self,
        group: &[NodeId],
        root: NodeId,
        words: u64,
        op_cost: Cycles,
    ) -> CollPlan {
        self.stats.reduces += 1;
        self.plan_tree(root, group, words, op_cost)
    }

    /// Plan a modeled barrier rooted at `root` over `group`: a zero-payload
    /// tree down-sweep followed by the up-sweep of arrivals.
    pub fn barrier(&mut self, root: NodeId, group: &[NodeId]) -> CollPlan {
        self.stats.barriers += 1;
        self.plan_tree(root, group, 0, 0)
    }

    /// The plan all three collectives share: the tree over `root` +
    /// `group`, its legs counted.
    fn plan_tree(
        &mut self,
        root: NodeId,
        group: &[NodeId],
        words: u64,
        op_cost: Cycles,
    ) -> CollPlan {
        self.stats.coll_legs += group.len() as u64;
        let legs = plan_legs(root, group);
        let depth = legs.iter().map(|l| l.depth).max().unwrap_or(0);
        CollPlan {
            legs,
            words,
            op_cost,
            depth,
        }
    }

    /// Inject a message with an explicit traffic class. `deliver_at` must
    /// already include wire latency.
    ///
    /// The installed [`FaultPlan`] (if any) is applied here: the message
    /// may be dropped, duplicated, jittered, or deferred past a stall
    /// window — decided purely by `(seq, src, dest)` and the plan's seed,
    /// so two runs with the same plan inject identical faults. Returns the
    /// assigned sequence number and the applied decision.
    pub fn send_classed(
        &mut self,
        src: NodeId,
        dest: NodeId,
        deliver_at: Cycles,
        words: u64,
        class: WireClass,
        msg: M,
    ) -> SendFate
    where
        M: Clone,
    {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.send_tagged(seq, src, dest, deliver_at, words, class, msg)
    }

    /// [`Self::send_classed`] with a caller-chosen sequence number instead
    /// of the network's own monotone counter.
    ///
    /// The sequence number is the fault plan's randomness key and the final
    /// delivery tie-breaker, so a caller that derives it from *per-node*
    /// state (rather than this network's global send order) gets fault
    /// fates and delivery order that are independent of the interleaving in
    /// which sends from different nodes reach the network — the property
    /// the host-parallel executor relies on. Callers own uniqueness; the
    /// auto-assigning entry points remain available and unaffected.
    #[allow(clippy::too_many_arguments)]
    pub fn send_tagged(
        &mut self,
        seq: u64,
        src: NodeId,
        dest: NodeId,
        deliver_at: Cycles,
        words: u64,
        class: WireClass,
        msg: M,
    ) -> SendFate
    where
        M: Clone,
    {
        self.stats.sent += 1;
        let mut fate = SendFate {
            seq,
            dropped: false,
            partitioned: false,
            duplicated: false,
            extra_latency: 0,
        };
        let Some(plan) = &self.plan else {
            self.account(class, words);
            self.heap.push(InFlight {
                deliver_at,
                dest,
                src,
                seq,
                msg,
            });
            return fate;
        };
        let d = plan.decide(seq, src, dest, deliver_at);
        if d.drop {
            fate.dropped = true;
            fate.partitioned = d.partitioned;
            if d.partitioned {
                self.stats.faults.partition_drops += 1;
            } else {
                self.stats.faults.dropped += 1;
            }
            return fate;
        }
        // Primary copy: jitter, then stall deferral at the jittered time —
        // iterated to a fixpoint, since releasing from one window can land
        // inside another, overlapping one.
        let jittered = deliver_at + d.jitter;
        self.stats.faults.jitter_cycles += d.jitter;
        let at = plan.stall_release(dest, jittered);
        if at != jittered {
            self.stats.faults.stall_defers += 1;
        }
        fate.extra_latency = at - deliver_at;
        if d.duplicate {
            // Wire-level duplicate: same sequence number (it *is* the same
            // message — receiver-side dedup keys on transport state, and
            // identical payloads make any heap tie unobservable), at least
            // one cycle later. The copy takes the same stall-fixpoint path
            // as the primary: no copy may land inside a stall window.
            fate.duplicated = true;
            self.stats.faults.duplicated += 1;
            let dup_jittered = deliver_at + 1 + d.dup_jitter;
            self.stats.faults.jitter_cycles += d.dup_jitter;
            let at2 = plan.stall_release(dest, dup_jittered);
            if at2 != dup_jittered {
                self.stats.faults.stall_defers += 1;
            }
            self.account(class, words);
            self.heap.push(InFlight {
                deliver_at: at2,
                dest,
                src,
                seq,
                msg: msg.clone(),
            });
        }
        self.account(class, words);
        self.heap.push(InFlight {
            deliver_at: at,
            dest,
            src,
            seq,
            msg,
        });
        fate
    }

    /// Time and destination of the earliest undelivered message, if any.
    pub fn peek(&self) -> Option<(Cycles, NodeId)> {
        self.heap.peek().map(|m| (m.deliver_at, m.dest))
    }

    /// Remove and return the earliest undelivered message.
    pub fn pop(&mut self) -> Option<InFlight<M>> {
        let m = self.heap.pop();
        if m.is_some() {
            self.stats.delivered += 1;
        }
        m
    }

    /// Number of messages currently in flight.
    pub fn in_flight(&self) -> usize {
        self.heap.len()
    }

    /// Snapshot the traffic and fault counters.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// True when no messages are in flight.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Fold another network's traffic and fault counters into this one.
    /// Delivery state (the in-flight heap, the auto-sequence counter, the
    /// installed plan) is deliberately untouched: only counters travel, so
    /// per-shard networks can be merged back into the main one without
    /// disturbing its queue.
    pub fn absorb_counters<N>(&mut self, other: &Network<N>) {
        self.stats.absorb(&other.stats);
    }

    /// Reset the traffic and fault counters to a previously captured
    /// [`Self::stats`] snapshot — the anti-message half of the speculative
    /// executor's rollback: traffic a cancelled window accounted for is
    /// un-accounted wholesale, so a clean re-run re-draws identical
    /// numbers. Delivery state is untouched (callers drain the in-flight
    /// heap within each injection, so it is empty between events).
    pub fn restore_counters(&mut self, snap: &NetStats) {
        self.stats = *snap;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_time_order() {
        let mut net: Network<&'static str> = Network::new();
        net.send(NodeId(0), NodeId(1), 50, 1, "b");
        net.send(NodeId(0), NodeId(2), 10, 1, "a");
        net.send(NodeId(0), NodeId(1), 50, 1, "c"); // same time as b, later seq
        assert_eq!(net.in_flight(), 3);
        assert_eq!(net.pop().unwrap().msg, "a");
        assert_eq!(net.pop().unwrap().msg, "b");
        assert_eq!(net.pop().unwrap().msg, "c");
        assert!(net.pop().is_none());
        assert_eq!(net.stats.sent, 3);
        assert_eq!(net.stats.delivered, 3);
    }

    #[test]
    fn ties_break_by_destination_then_seq() {
        let mut net: Network<u32> = Network::new();
        net.send(NodeId(0), NodeId(5), 7, 0, 1);
        net.send(NodeId(0), NodeId(2), 7, 0, 2);
        // Same deliver_at: lower destination id first.
        assert_eq!(net.pop().unwrap().msg, 2);
        assert_eq!(net.pop().unwrap().msg, 1);
    }

    #[test]
    fn peek_matches_pop() {
        let mut net: Network<u8> = Network::new();
        net.send(NodeId(3), NodeId(4), 99, 2, 42);
        assert_eq!(net.peek(), Some((99, NodeId(4))));
        let m = net.pop().unwrap();
        assert_eq!(m.src, NodeId(3));
        assert_eq!(m.deliver_at, 99);
        assert!(net.is_empty());
    }

    #[test]
    fn words_are_accumulated() {
        let mut net: Network<u8> = Network::new();
        net.send(NodeId(0), NodeId(1), 1, 3, 0);
        net.send(NodeId(0), NodeId(1), 2, 4, 0);
        assert_eq!(net.stats.words, 7);
    }

    #[test]
    fn send_tagged_preserves_caller_seq_and_order() {
        let mut net: Network<&'static str> = Network::new();
        // Caller-chosen seqs break the deliver-time tie, independent of
        // injection order.
        net.send_tagged(7, NodeId(0), NodeId(1), 10, 1, WireClass::Data, "late");
        net.send_tagged(3, NodeId(2), NodeId(1), 10, 1, WireClass::Data, "early");
        let a = net.pop().unwrap();
        let b = net.pop().unwrap();
        assert_eq!((a.seq, a.msg), (3, "early"));
        assert_eq!((b.seq, b.msg), (7, "late"));
        // Tagged sends don't consume the auto counter.
        let fate = net.send(NodeId(0), NodeId(1), 5, 1, "auto");
        assert_eq!(fate.seq, 0);
        assert_eq!(net.stats.sent, 3);
    }

    #[test]
    fn stall_release_is_a_fixpoint_for_both_copies() {
        use crate::fault::{FaultPlan, NodeWindow};
        // Overlapping stall windows: releasing from the first lands inside
        // the second, which must defer again — for the primary *and* the
        // duplicate copy.
        let windows = vec![
            NodeWindow {
                node: NodeId(1),
                from: 10,
                until: 100,
            },
            NodeWindow {
                node: NodeId(1),
                from: 50,
                until: 300,
            },
        ];
        let plan = FaultPlan {
            stalls: windows.clone(),
            ..Default::default()
        };
        let mut net: Network<u8> = Network::new();
        net.set_plan(Some(plan));
        let fate = net.send(NodeId(0), NodeId(1), 20, 1, 9);
        assert!(!fate.dropped);
        let m = net.pop().unwrap();
        assert_eq!(
            m.deliver_at, 300,
            "single pass would release at 100, inside [50,300)"
        );
        assert_eq!(fate.extra_latency, 280);
        assert_eq!(
            net.stats.faults.stall_defers, 1,
            "one deferral per copy, not per hop"
        );

        // Duplicate copy: force dup_permille=1000 so both copies exist,
        // then check neither lands inside any window.
        let plan = FaultPlan {
            dup_permille: 1000,
            stalls: windows,
            ..Default::default()
        };
        let mut net: Network<u8> = Network::new();
        net.set_plan(Some(plan.clone()));
        let fate = net.send(NodeId(0), NodeId(1), 20, 1, 9);
        assert!(fate.duplicated);
        while let Some(m) = net.pop() {
            assert!(
                plan.stalled_until(m.dest, m.deliver_at).is_none(),
                "copy delivered at {} inside a stall window",
                m.deliver_at
            );
            assert_eq!(m.deliver_at, 300);
        }
        assert_eq!(net.stats.faults.stall_defers, 2);
    }

    #[test]
    fn absorb_counters_sums_traffic() {
        let mut a: Network<u8> = Network::new();
        a.send_classed(NodeId(0), NodeId(1), 1, 5, WireClass::Data, 0);
        let mut b: Network<u8> = Network::new();
        b.send_classed(NodeId(1), NodeId(0), 2, 1, WireClass::Ack, 0);
        b.pop();
        a.absorb_counters(&b);
        let s = a.stats();
        assert_eq!(s.sent, 2);
        assert_eq!(s.delivered, 1);
        assert_eq!(s.data_words, 5);
        assert_eq!(s.ack_words, 1);
        assert_eq!(a.in_flight(), 1, "absorb must not move in-flight messages");
    }

    #[test]
    fn wire_classes_bucket_words() {
        let mut net: Network<u8> = Network::new();
        net.send_classed(NodeId(0), NodeId(1), 1, 5, WireClass::Data, 0);
        net.send_classed(NodeId(1), NodeId(0), 2, 1, WireClass::Ack, 0);
        net.send_classed(NodeId(0), NodeId(1), 3, 5, WireClass::Retx, 0);
        net.send_classed(NodeId(0), NodeId(2), 3, 4, WireClass::Coll, 0);
        net.send(NodeId(0), NodeId(1), 4, 2, 0); // plain send = Data
        let s = net.stats();
        assert_eq!(s.data_words, 7);
        assert_eq!(s.ack_words, 1);
        assert_eq!(s.retx_words, 5);
        assert_eq!(s.coll_words, 4);
        assert_eq!(
            s.words,
            s.data_words + s.ack_words + s.retx_words + s.coll_words
        );
    }

    #[test]
    fn coll_tree_shape_is_a_binary_heap() {
        // Depths: pos 0 → 0, 1–2 → 1, 3–6 → 2, 7–14 → 3.
        assert_eq!(coll_depth(0), 0);
        assert_eq!(coll_depth(1), 1);
        assert_eq!(coll_depth(2), 1);
        assert_eq!(coll_depth(3), 2);
        assert_eq!(coll_depth(6), 2);
        assert_eq!(coll_depth(7), 3);
        assert_eq!(coll_parent(1), 0);
        assert_eq!(coll_parent(2), 0);
        assert_eq!(coll_parent(5), 2);
        assert_eq!(coll_parent(6), 2);

        let mut net: Network<u8> = Network::new();
        let dests: Vec<NodeId> = (1..8).map(NodeId).collect();
        let plan = net.multicast(NodeId(0), &dests, 3);
        assert_eq!(plan.legs.len(), 7);
        assert_eq!(plan.words, 3);
        assert_eq!(plan.depth, 3, "7 members + root = 8 positions, depth 3");
        // Rank 0 (pos 1) is a direct child of the initiator.
        assert_eq!(plan.legs[0].parent, NodeId(0));
        assert_eq!(plan.legs[0].parent_pos, 0);
        assert_eq!(plan.legs[0].depth, 1);
        assert_eq!(plan.legs[0].child_ix, 1);
        // Rank 2 (pos 3) hangs under pos 1 = rank 0 = NodeId(1).
        assert_eq!(plan.legs[2].parent, NodeId(1));
        assert_eq!(plan.legs[2].parent_pos, 1);
        assert_eq!(plan.legs[2].depth, 2);
        assert_eq!(plan.legs[2].child_ix, 1);
        // Rank 3 (pos 4) is pos 1's right child.
        assert_eq!(plan.legs[3].parent_pos, 1);
        assert_eq!(plan.legs[3].child_ix, 2);
        // Interior nodes know how many children to await: pos 1 has
        // children at positions 3 and 4 (both ≤ 7).
        assert_eq!(plan.legs[0].children, 2);
        // Pos 7 is a leaf (children at 15, 16 > 7).
        assert_eq!(plan.legs[6].children, 0);
        // Every child_ix is consistent with its parity.
        for l in &plan.legs {
            assert_eq!(l.child_ix, if l.pos % 2 == 1 { 1 } else { 2 });
        }
        assert_eq!(net.stats.multicasts, 1);
        assert_eq!(net.stats.coll_legs, 7);
    }

    #[test]
    fn coll_plans_cover_degenerate_groups() {
        let mut net: Network<u8> = Network::new();
        // Empty group: no legs, depth 0.
        let p = net.barrier(NodeId(0), &[]);
        assert!(p.legs.is_empty());
        assert_eq!(p.depth, 0);
        // Size-1 group: one depth-1 leg, a leaf, parented on the root.
        let p = net.reduce(&[NodeId(5)], NodeId(0), 2, 9);
        assert_eq!(p.legs.len(), 1);
        assert_eq!(p.op_cost, 9);
        let l = p.legs[0];
        assert_eq!((l.depth, l.children, l.parent), (1, 0, NodeId(0)));
        // Root inside its own group (root == src) still plans cleanly:
        // the self-leg is an ordinary member leg.
        let p = net.multicast(NodeId(0), &[NodeId(0), NodeId(1)], 1);
        assert_eq!(p.legs[0].dest, NodeId(0));
        assert_eq!(p.legs[0].parent, NodeId(0));
        assert_eq!(net.stats.barriers, 1);
        assert_eq!(net.stats.reduces, 1);
        assert_eq!(net.stats.multicasts, 1);
        assert_eq!(net.stats.coll_legs, 3);
    }

    #[test]
    fn coll_counters_absorb_and_restore() {
        let mut a: Network<u8> = Network::new();
        a.multicast(NodeId(0), &[NodeId(1), NodeId(2)], 1);
        a.send_classed(NodeId(0), NodeId(1), 1, 4, WireClass::Coll, 0);
        let snap = a.stats();
        let mut b: Network<u8> = Network::new();
        b.reduce(&[NodeId(0)], NodeId(1), 2, 3);
        b.barrier(NodeId(0), &[NodeId(1)]);
        a.absorb_counters(&b);
        let s = a.stats();
        assert_eq!(
            (s.multicasts, s.reduces, s.barriers, s.coll_legs),
            (1, 1, 1, 4)
        );
        assert_eq!(s.coll_words, 4);
        a.restore_counters(&snap);
        assert_eq!(a.stats(), snap);
    }
}
