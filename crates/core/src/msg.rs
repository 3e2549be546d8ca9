//! Wire messages.
//!
//! Two kinds suffice, matching the paper's active-message style: a request
//! carrying an invocation (with its reply continuation, and a flag saying
//! whether that continuation was *forwarded* — forwarded requests carry a
//! full continuation and are therefore longer, the effect the EM3D
//! `forward` variant trades against reply count), and a reply determining
//! a future.
//!
//! On the wire every [`Msg`] travels inside a [`Packet`]: raw (the default,
//! for a perfectly reliable interconnect) or as a sequenced data frame of
//! the reliable transport, which adds acknowledgement frames — see
//! `transport.rs`'s retransmission protocol.

use crate::cont::Continuation;
use crate::trace::MsgCause;
use hem_ir::{BinOp, ContRef, MethodId, Value};
use hem_machine::NodeId;

/// Which modeled collective a [`Msg::CollDown`]/[`Msg::CollUp`] leg belongs
/// to. Carried on every leg so receivers (and the tracer) can attribute it
/// without consulting initiator-side state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollKind {
    /// Down-only multicast: members run the method, nothing flows back and
    /// the initiator does not wait.
    Cast,
    /// Acked multicast: members run the method and completion (not the
    /// results) percolates up the tree to determine the initiator's slot.
    CastAcked,
    /// Reduction: member results combine pairwise up the tree with `op`;
    /// the root receives the single folded value.
    Reduce(BinOp),
    /// Barrier: members contribute arrival immediately (no method runs);
    /// the initiator's slot determines once the whole group has arrived.
    Barrier,
}

impl CollKind {
    /// The wire-attribution cause for legs of this collective.
    pub fn cause(self) -> MsgCause {
        match self {
            CollKind::Cast | CollKind::CastAcked => MsgCause::Multicast,
            CollKind::Reduce(_) => MsgCause::Reduce,
            CollKind::Barrier => MsgCause::Barrier,
        }
    }

    /// Does this collective have an up phase (legs flowing back toward the
    /// initiator)?
    pub fn has_up_phase(self) -> bool {
        !matches!(self, CollKind::Cast)
    }
}

/// A message in flight between nodes.
#[derive(Debug, Clone)]
pub enum Msg {
    /// Remote method invocation request.
    Invoke {
        /// Target object index on the destination node.
        obj: u32,
        /// Method to invoke.
        method: MethodId,
        /// Evaluated arguments.
        args: Vec<Value>,
        /// Where the reply goes.
        cont: Continuation,
        /// True when `cont` was forwarded from an earlier frame (proxy
        /// context case at the receiver).
        forwarded: bool,
    },
    /// Reply determining a future in a remote context.
    Reply {
        /// The continuation being determined.
        cont: ContRef,
        /// The value.
        value: Value,
    },
    /// Down-tree leg of a modeled collective: the initiator delivers one
    /// invocation (or barrier probe) to one group member, positioned at
    /// `pos` in the virtual binary-heap fan-out tree. All down legs
    /// originate at the initiator — the tree shapes *timing* (delivery is
    /// delayed by `depth` wire hops) and the up-phase routing, not the
    /// sender — so transport framing, fault fates, and per-sender wire
    /// sequencing apply to collectives unchanged.
    CollDown {
        /// Target object index on the destination node (ignored for
        /// [`CollKind::Barrier`], which runs no method).
        obj: u32,
        /// Method every member runs (ignored for barriers).
        method: MethodId,
        /// Arguments, identical on every leg.
        args: Vec<Value>,
        /// Initiating node — half of the collective's identity.
        init: NodeId,
        /// Initiator-local collective id — the other half.
        id: u64,
        /// This member's position in the virtual tree (root = 0, member
        /// rank r sits at r + 1).
        pos: u32,
        /// Node hosting this member's tree parent (the up leg's wire
        /// destination; the initiator itself when `parent_pos == 0`).
        parent: NodeId,
        /// Tree position of the parent (keys the parent's fold state).
        parent_pos: u32,
        /// Which fold slot at the parent this member feeds (1 = left
        /// child, 2 = right child).
        child_ix: u8,
        /// How many tree children this member must collect before its own
        /// up leg can fire (0 for leaves).
        children: u8,
        /// Which collective this leg belongs to.
        kind: CollKind,
    },
    /// Up-tree leg of a modeled collective: one member's (sub-tree-folded)
    /// contribution travelling to its tree parent. Sent by the member's
    /// node, so up-phase traffic is attributed to the nodes that really
    /// generate it.
    CollUp {
        /// Initiating node (identity).
        init: NodeId,
        /// Initiator-local collective id (identity).
        id: u64,
        /// Tree position of the receiving parent (keys its fold state;
        /// 0 = the initiator's root state).
        parent_pos: u32,
        /// Fold slot this contribution fills at the parent (1 or 2).
        child_ix: u8,
        /// The folded sub-tree value (Nil for barriers and acked casts).
        value: Value,
        /// Which collective this leg belongs to.
        kind: CollKind,
    },
}

impl Msg {
    /// Payload size in words (header + object + method + args + reply
    /// capability). Drives the per-word wire cost; the request/reply
    /// *fixed* costs live in the cost model. Forwarded requests are
    /// longer: they carry the full materialized continuation plus the
    /// forwarding metadata (the paper's EM3D discussion turns on
    /// forward's "longer update messages" vs push's extra replies).
    pub fn words(&self) -> u64 {
        match self {
            Msg::Invoke {
                args,
                cont,
                forwarded,
                ..
            } => 3 + args.len() as u64 + cont.words() + if *forwarded { 4 } else { 0 },
            Msg::Reply { .. } => 3,
            // Collective legs are compact: the tree metadata is header
            // bits, not payload words, and no reply continuation is
            // carried — the (init, id, pos) identity replaces it. This is
            // the wire saving over the hand-rolled fan-out loop (a 5-word
            // invoke plus a 3-word reply per member). Barrier legs are
            // single-word probes.
            Msg::CollDown { args, kind, .. } => match kind {
                CollKind::Barrier => 1,
                _ => 2 + args.len() as u64,
            },
            Msg::CollUp { kind, .. } => match kind {
                CollKind::Barrier => 1,
                _ => 2,
            },
        }
    }

    /// Is this a reply?
    pub fn is_reply(&self) -> bool {
        matches!(self, Msg::Reply { .. })
    }

    /// The wire-attribution cause of this payload.
    pub fn cause(&self) -> MsgCause {
        match self {
            Msg::Invoke { .. } => MsgCause::Request,
            Msg::Reply { .. } => MsgCause::Reply,
            Msg::CollDown { kind, .. } | Msg::CollUp { kind, .. } => kind.cause(),
        }
    }

    /// The collective kind, if this is a collective leg.
    pub fn coll_kind(&self) -> Option<CollKind> {
        match self {
            Msg::CollDown { kind, .. } | Msg::CollUp { kind, .. } => Some(*kind),
            _ => None,
        }
    }
}

/// The wire envelope around a [`Msg`].
///
/// `Raw` is the legacy framing used when the reliable transport is off:
/// zero header words, no acknowledgements — correct only on a fault-free
/// interconnect. With the transport on, payloads travel as `Data` frames
/// carrying a per-`(sender, destination)` sequence number (the receiver's
/// duplicate-suppression key) and are confirmed with single-word `Ack`
/// frames; unconfirmed frames are retransmitted on a capped exponential
/// backoff in virtual time.
#[derive(Debug, Clone)]
pub enum Packet {
    /// Unsequenced payload (reliable transport off).
    Raw(Msg),
    /// Sequenced payload (reliable transport on). `seq` is the sender's
    /// per-destination transport sequence number — *not* the network's
    /// global sequence number, which changes on every retransmission.
    Data {
        /// Per-(sender, destination) transport sequence number.
        seq: u64,
        /// The payload.
        msg: Msg,
    },
    /// Acknowledgement of the `Data` frame `seq` sent by the packet's
    /// destination to the packet's source. Acks are not themselves acked.
    Ack {
        /// The acknowledged transport sequence number.
        seq: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use hem_machine::NodeId;

    #[test]
    fn sizes() {
        let inv = Msg::Invoke {
            obj: 0,
            method: MethodId(0),
            args: vec![Value::Int(1), Value::Int(2)],
            cont: Continuation::Into(ContRef {
                node: NodeId(0),
                ctx: 0,
                gen: 0,
                slot: 0,
            }),
            forwarded: false,
        };
        assert_eq!(inv.words(), 7);
        assert!(!inv.is_reply());
        let rep = Msg::Reply {
            cont: ContRef {
                node: NodeId(0),
                ctx: 0,
                gen: 0,
                slot: 0,
            },
            value: Value::Nil,
        };
        assert_eq!(rep.words(), 3);
        assert!(rep.is_reply());
    }

    #[test]
    fn collective_legs_are_compact() {
        let down = Msg::CollDown {
            obj: 0,
            method: MethodId(0),
            args: vec![Value::Int(7)],
            init: NodeId(0),
            id: 1,
            pos: 3,
            parent: NodeId(2),
            parent_pos: 1,
            child_ix: 1,
            children: 0,
            kind: CollKind::Reduce(BinOp::Add),
        };
        // Cheaper than the 5-word invoke the fan-out loop would send.
        assert_eq!(down.words(), 3);
        assert_eq!(down.coll_kind(), Some(CollKind::Reduce(BinOp::Add)));
        let up = Msg::CollUp {
            init: NodeId(0),
            id: 1,
            parent_pos: 1,
            child_ix: 1,
            value: Value::Int(7),
            kind: CollKind::Reduce(BinOp::Add),
        };
        // Cheaper than the 3-word reply.
        assert_eq!(up.words(), 2);
        let probe = Msg::CollDown {
            obj: 0,
            method: MethodId(0),
            args: vec![],
            init: NodeId(0),
            id: 2,
            pos: 1,
            parent: NodeId(0),
            parent_pos: 0,
            child_ix: 1,
            children: 0,
            kind: CollKind::Barrier,
        };
        assert_eq!(probe.words(), 1, "barrier legs are single-word probes");
        assert!(!probe.is_reply());
        assert_eq!(CollKind::Barrier.cause(), MsgCause::Barrier);
        assert_eq!(CollKind::Cast.cause(), MsgCause::Multicast);
        assert!(!CollKind::Cast.has_up_phase());
        assert!(CollKind::CastAcked.has_up_phase());
    }

    #[test]
    fn fire_and_forget_is_shorter() {
        let inv = Msg::Invoke {
            obj: 0,
            method: MethodId(0),
            args: vec![],
            cont: Continuation::Discard,
            forwarded: false,
        };
        assert_eq!(inv.words(), 4);
    }
}
