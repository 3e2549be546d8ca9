//! Modeled collectives (multicast / reduce / barrier): a virtual fan-out
//! tree of ordinary sends (see [`Runtime::issue_collective`]) plus the
//! per-node fold state that combines contributions on the way back up.

use crate::cont::Continuation;
use crate::error::Trap;
use crate::explore::Mutant;
use crate::msg::{CollKind, Msg};
use crate::rt::Runtime;
use crate::transport::Price;
use hem_ir::{MethodId, ObjRef, Value};
use hem_machine::{Cycles, NodeId};
use std::collections::BTreeMap;

/// Fold state for one tree position of one in-flight modeled collective
/// (see [`Runtime::issue_collective`]). `acc` slot 0 is the position's own
/// contribution, slots 1 and 2 its left and right tree children's folded
/// sub-trees; contributions arrive in any order but are always *folded* in
/// slot order, so reduction results are arrival-order independent.
#[derive(Debug, Clone, PartialEq)]
struct CollState {
    /// Which collective this record belongs to.
    kind: CollKind,
    /// Contributions received so far.
    acc: [Option<Value>; 3],
    /// Bitmask of `acc` slots that must fill before the fold completes.
    need: u8,
    /// Bitmask of `acc` slots filled so far.
    filled: u8,
    /// Node hosting the tree parent (up-leg destination; unused at pos 0).
    parent: NodeId,
    /// Tree position of the parent (unused at pos 0).
    parent_pos: u32,
    /// Fold slot this position fills at its parent (unused at pos 0).
    child_ix: u8,
    /// Root record only: where the folded result is delivered.
    cont: Option<Continuation>,
}

impl CollState {
    /// Empty fold state for one tree position: it waits for `children`
    /// (0–2) child sub-trees and — unless it is the root, the one position
    /// with a `cont` — for its own contribution, then answers `up`:
    /// `(parent node, parent position, slot there)`.
    fn new(
        kind: CollKind,
        children: u8,
        up: (NodeId, u32, u8),
        cont: Option<Continuation>,
    ) -> Self {
        let mut need = cont.is_none() as u8;
        if children >= 1 {
            need |= 1 << 1;
        }
        if children >= 2 {
            need |= 1 << 2;
        }
        CollState {
            kind,
            acc: [None; 3],
            need,
            filled: 0,
            parent: up.0,
            parent_pos: up.1,
            child_ix: up.2,
            cont,
        }
    }
}

/// `(initiator node, initiator-local id, tree position)` — position 0 is
/// the initiator's root record, member rank r sits at r + 1. Multiple
/// members of one collective can share a node (and the initiator can be a
/// member of its own group), hence the position in the key.
type CollKey = (u32, u64, u32);

/// The collective fold state hosted on one node. Lives in `Node` so the
/// speculative executor's checkpoint rewinds it for free; empty unless a
/// collective is in flight, so the derived `clone_from` costs nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct CollTable {
    /// In-flight fold state.
    states: BTreeMap<CollKey, CollState>,
    /// Contributions that beat their position's down leg here (jitter and
    /// retransmission reorder legs): stashed in arrival order, drained
    /// into the fold state the moment the down leg creates it.
    early: BTreeMap<CollKey, Vec<(u8, Value)>>,
    /// Next initiator-local collective id — per-node, so ids are a pure
    /// function of the initiating node's own execution history (the same
    /// argument as `Node::wire_seq`).
    next: u64,
}

impl Runtime {
    /// Issue a modeled collective (multicast / reduce / barrier) from code
    /// running on `node`, one invocation of `method(args)` per `members`
    /// entry, completion (or the folded reduction) delivered through
    /// `cont`.
    ///
    /// The interconnect models the group operation as a virtual binary
    /// fan-out tree over the member ranks (see
    /// [`hem_machine::net::Network::multicast`]): every down leg still
    /// *originates* at the initiator — so transport framing, fault fates,
    /// and per-sender wire sequencing apply to collectives exactly as to
    /// point-to-point sends — but a leg to tree depth `d` is delivered
    /// `d` wire hops later, and the initiator's clock is charged one
    /// message-compose plus per-word injection costs rather than P full
    /// sends (the tree's interior forwarding runs on the interconnect,
    /// not on any node's clock, like transport acks). Contributions fold
    /// up the same tree: each member combines its own result with its
    /// tree children's sub-trees *in slot order* — so reduction results
    /// are independent of arrival order — and sends one compact up leg to
    /// its parent.
    pub(crate) fn issue_collective(
        &mut self,
        node: usize,
        kind: CollKind,
        members: &[ObjRef],
        method: MethodId,
        args: Vec<Value>,
        cont: Continuation,
    ) -> Result<(), Trap> {
        let src = self.nodes[node].id;
        let dests: Vec<NodeId> = members.iter().map(|o| o.node).collect();
        let leg_words = match kind {
            CollKind::Barrier => 1,
            _ => 2 + args.len() as u64,
        };
        let plan = match kind {
            CollKind::Cast | CollKind::CastAcked => self.net.multicast(src, &dests, leg_words),
            CollKind::Reduce(_) => self.net.reduce(&dests, src, leg_words, self.cost().op),
            CollKind::Barrier => self.net.barrier(src, &dests),
        };
        self.ctr(node).coll_initiated += 1;
        if members.is_empty() {
            // Degenerate group: nothing to deliver, nothing to wait for.
            return self.deliver_cont(node, cont, Value::Nil);
        }
        let table = &mut self.nodes[node].coll;
        let id = table.next;
        table.next += 1;
        if kind.has_up_phase() {
            // Root fold state: awaits the initiator's direct tree children
            // (positions 1 and, for groups of two or more, 2).
            let children = members.len().min(2) as u8;
            let root = CollState::new(kind, children, (src, 0, 0), Some(cont));
            table.states.insert((src.0, id, 0), root);
        }
        // One compose charge for the whole collective; each leg then
        // charges only word-injection cost.
        self.charge(node, self.cost().msg_send);
        // Mutant: price every leg at one hop, ignoring its tree depth.
        let skip_hops = self.mutant_is(Mutant::CollectiveSkipsHopCost);
        for leg in &plan.legs {
            let msg = Msg::CollDown {
                obj: members[leg.rank as usize].index,
                method,
                args: args.clone(),
                init: src,
                id,
                pos: leg.pos,
                parent: leg.parent,
                parent_pos: leg.parent_pos,
                child_ix: leg.child_ix,
                children: leg.children,
                kind,
            };
            let hops = if skip_hops { 1 } else { leg.depth } as Cycles;
            let price = Price {
                fixed: 0,
                per_word: self.cost().msg_word,
                latency: self.cost().msg_latency * hops,
            };
            self.send(node, leg.dest, price, msg);
        }
        self.poll_network(node)
    }

    /// Handle a delivered collective leg on `node`.
    pub(crate) fn handle_coll_leg(&mut self, node: usize, leg: Msg) -> Result<(), Trap> {
        self.ctr(node).coll_legs_handled += 1;
        match leg {
            Msg::CollUp {
                init,
                id,
                parent_pos,
                child_ix,
                value,
                kind: _,
            } => self.coll_fill(node, init, id, parent_pos, child_ix, value),
            Msg::CollDown {
                obj,
                method,
                args,
                init,
                id,
                pos,
                parent,
                parent_pos,
                child_ix,
                children,
                kind,
            } => {
                // A plain cast is fire-and-forget: no fold state, nothing
                // flows back.
                let mut cont = Continuation::Discard;
                if kind != CollKind::Cast {
                    let key = (init.0, id, pos);
                    let st = CollState::new(kind, children, (parent, parent_pos, child_ix), None);
                    if self.nodes[node].coll.states.insert(key, st).is_some() {
                        return Err(Trap::new(format!(
                            "duplicate collective leg (init {} id {id} pos {pos})",
                            init.0
                        )));
                    }
                    // Child contributions that raced ahead of this leg were
                    // stashed; fold them in now that the state exists.
                    if let Some(early) = self.nodes[node].coll.early.remove(&key) {
                        for (ix, v) in early {
                            self.coll_fill(node, init, id, pos, ix, v)?;
                        }
                    }
                    if kind == CollKind::Barrier {
                        // Arrival *is* the member's contribution; no method runs.
                        return self.coll_fill(node, init, id, pos, 0, Value::Nil);
                    }
                    cont = Continuation::Coll {
                        node: NodeId(node as u32),
                        init,
                        id,
                        pos,
                        kind,
                    };
                }
                self.ctr(node).wrapper_runs += 1;
                crate::wrapper::run_invocation(self, node, obj, method, args, cont, false)
            }
            Msg::Invoke { .. } | Msg::Reply { .. } => unreachable!("not a collective leg"),
        }
    }

    /// Deposit a contribution into fold slot `ix` of the collective state
    /// `(init, id, pos)` hosted on `node`; when the state's last expected
    /// slot fills, fold in slot order and either deliver the result (root)
    /// or send the up leg to the tree parent.
    pub(crate) fn coll_fill(
        &mut self,
        node: usize,
        init: NodeId,
        id: u64,
        pos: u32,
        ix: u8,
        v: Value,
    ) -> Result<(), Trap> {
        let key = (init.0, id, pos);
        let table = &mut self.nodes[node].coll;
        let Some(st) = table.states.get_mut(&key) else {
            // The position's own down leg hasn't arrived yet (jitter or a
            // lost-and-retransmitted frame reordered the legs): stash the
            // contribution; the down-leg handler drains it into the fold
            // state it creates. Root state (pos 0) is created before any
            // leg is sent, so it can never be early.
            table.early.entry(key).or_default().push((ix, v));
            return Ok(());
        };
        if st.filled & (1 << ix) != 0 {
            return Err(Trap::new(format!(
                "double collective contribution (init {} id {id} pos {pos} slot {ix})",
                init.0
            )));
        }
        st.acc[ix as usize] = Some(v);
        st.filled |= 1 << ix;
        let done = st.filled == st.need;
        self.charge(node, self.cost().future_store);
        self.ctr(node).coll_contribs += 1;
        if !done {
            return Ok(());
        }
        let st = self.nodes[node]
            .coll
            .states
            .remove(&key)
            .expect("completed collective state vanished");
        let result = match st.kind {
            CollKind::Reduce(op) => {
                // Fold in slot order (own, left sub-tree, right sub-tree),
                // never in arrival order.
                let mut acc: Option<Value> = None;
                for slot in st.acc.iter() {
                    let Some(v) = slot else { continue };
                    acc = Some(match acc {
                        None => *v,
                        Some(a) => {
                            self.charge(node, self.cost().op);
                            hem_ir::value::bin_op(op, a, *v).map_err(|e| {
                                Trap::new(format!("collective reduce combine: {e:?}"))
                            })?
                        }
                    });
                }
                acc.unwrap_or(Value::Nil)
            }
            _ => Value::Nil,
        };
        if pos == 0 {
            let cont = st.cont.expect("root collective state without continuation");
            self.deliver_cont(node, cont, result)
        } else {
            self.send_reply(
                node,
                st.parent,
                Msg::CollUp {
                    init,
                    id,
                    parent_pos: st.parent_pos,
                    child_ix: st.child_ix,
                    value: result,
                    kind: st.kind,
                },
            )
        }
    }
}
