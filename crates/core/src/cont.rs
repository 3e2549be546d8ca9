//! Continuations and caller descriptors.
//!
//! A *continuation* is the right to determine a future (paper §2). In the
//! hybrid model continuations are created **lazily**: as long as execution
//! stays on the stack the continuation is implicit in the stack structure,
//! and only when a method suspends, forwards off-node, or stores the
//! continuation into a data structure is a concrete [`Continuation`]
//! materialized (§3.2.3).
//!
//! [`CallerInfo`] is the paper's `caller_info` parameter of the
//! continuation-passing schema: it describes the caller *well enough to
//! create its context and continuation later if needed* — whether the
//! caller's context already exists, its shape if not, where the return
//! value lives, and whether the continuation was forwarded (proxy case).

use crate::context::{ActFrame, SlotState, WaitState};
use crate::error::Trap;
use crate::explore::Mutant;
use crate::msg::Msg;
use crate::rt::Runtime;
use crate::trace::TraceEvent;
use hem_ir::{ContRef, MethodId, ObjRef, Value};
use hem_machine::NodeId;

/// A materialized reply capability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Continuation {
    /// Not yet linked. Replying through an unset continuation is a trap;
    /// fallback linkage (paper Fig. 6) replaces it.
    Unset,
    /// Deliver into slot `slot` of a heap context (possibly remote).
    Into(ContRef),
    /// Deliver to the runtime's root result cell (the harness's `call`).
    Root,
    /// Discard the reply (fire-and-forget invocations).
    Discard,
    /// Deliver to the open-system completion log under this request id
    /// (external client requests injected by `Runtime::inject_request`;
    /// the reply time, minus the arrival time, is the request's latency).
    Request(u64),
    /// Deliver into a modeled collective's fold state: the member (or
    /// root) record keyed `(init, id, pos)` on `node`. Filling slot 0
    /// (the member's own contribution) may complete the member's sub-tree
    /// fold and fire its up leg. Delivery is free on `node` itself — a
    /// member finishing on its own stack contributes zero wire words —
    /// and degrades to a wire leg only if user code forwards the
    /// continuation off-node.
    Coll {
        /// Node holding the fold state.
        node: NodeId,
        /// Initiating node (collective identity).
        init: NodeId,
        /// Initiator-local collective id (collective identity).
        id: u64,
        /// Tree position whose state receives the value.
        pos: u32,
        /// Which collective (attributes the wire leg in the forwarded
        /// case).
        kind: crate::msg::CollKind,
    },
}

impl Continuation {
    /// Payload words a continuation occupies inside a message.
    pub fn words(&self) -> u64 {
        match self {
            Continuation::Into(_) | Continuation::Request(_) => 2,
            Continuation::Coll { .. } => 3,
            _ => 1,
        }
    }
}

/// The paper's `caller_info`: how a continuation-passing callee can obtain
/// its continuation if it turns out to need it (§3.2.3 lists exactly these
/// three cases).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallerInfo {
    /// The caller is a stack frame whose context does not exist yet. If
    /// the callee needs the continuation, it creates a *shell* context for
    /// the caller (sized from `method`'s declaration) with a fresh future
    /// at `ret_slot`, and passes the shell back up the unwinding stack for
    /// the caller to populate ("passing the continuation's future's
    /// context back to its caller").
    NotCreated {
        /// The caller's method (determines the shell's shape).
        method: MethodId,
        /// The caller's receiver (the shell lives on its node).
        obj: ObjRef,
        /// The slot within the caller awaiting this callee's reply.
        ret_slot: u16,
    },
    /// The caller's context already exists; the continuation, if needed,
    /// is a future at `ret_slot` of that context.
    Created {
        /// The caller's context.
        node: NodeId,
        /// Context index on that node.
        ctx: u32,
        /// Context generation (stale-continuation guard).
        gen: u32,
        /// The awaiting slot.
        ret_slot: u16,
    },
    /// The continuation already exists — the *proxy context* case
    /// (§3.3): the invocation arrived by message carrying a continuation,
    /// or user code passed a stored continuation into a CP interface.
    Proxy {
        /// The pre-existing continuation.
        cont: Continuation,
    },
}

impl CallerInfo {
    /// True for the proxy (forwarded-from-elsewhere) case.
    pub fn is_proxy(&self) -> bool {
        matches!(self, CallerInfo::Proxy { .. })
    }
}

/// Using a continuation, and creating one lazily.
impl Runtime {
    /// Deliver a value through a continuation, from code running on `node`.
    pub(crate) fn deliver_cont(
        &mut self,
        node: usize,
        cont: Continuation,
        v: Value,
    ) -> Result<(), Trap> {
        match cont {
            Continuation::Unset => Err(Trap::new("reply through unset continuation")),
            Continuation::Discard => Ok(()),
            Continuation::Root => {
                // Mutant: deliver the root reply twice; the overwrite is
                // value-identical, so only the one-shot check sees it.
                if self.mutant_is(Mutant::DoubleRootReply) {
                    self.san_root_delivered();
                    self.result = Some(v);
                }
                self.san_root_delivered();
                self.result = Some(v);
                Ok(())
            }
            Continuation::Into(cr) => {
                if cr.node.idx() == node {
                    self.fill_slot(node, cr.ctx, cr.gen, cr.slot, v)
                } else {
                    let reply = Msg::Reply { cont: cr, value: v };
                    self.send_reply(node, cr.node, reply)
                }
            }
            Continuation::Coll {
                node: cn,
                init,
                id,
                pos,
                kind,
            } => {
                if cn.idx() == node {
                    // The member completed on its own node (the common
                    // case): the contribution lands in the local fold
                    // state for zero wire words.
                    self.coll_fill(node, init, id, pos, 0, v)
                } else {
                    // The member's method forwarded its continuation
                    // off-node: the contribution degrades to a wire leg
                    // aimed at the fold state's own-contribution slot.
                    self.send_reply(
                        node,
                        cn,
                        Msg::CollUp {
                            init,
                            id,
                            parent_pos: pos,
                            child_ix: 0,
                            value: v,
                            kind,
                        },
                    )
                }
            }
            Continuation::Request(req) => {
                // Open-system completion: log the serving node's clock
                // under the request id. The reply value itself is not
                // retained — service-mode experiments measure sojourn
                // time, not payloads.
                let done = self.nodes[node].time;
                self.completions.insert(req, done);
                self.emit(
                    node,
                    TraceEvent::RequestDone {
                        node: NodeId(node as u32),
                        req,
                    },
                );
                Ok(())
            }
        }
    }

    /// The continuation that delivers into `slot` of context `ctx` on
    /// `node` (at the context's current generation).
    pub(crate) fn cont_into(&self, node: usize, ctx: u32, slot: u16) -> Continuation {
        Continuation::Into(ContRef {
            node: NodeId(node as u32),
            ctx,
            gen: self.nodes[node].ctxs.gen(ctx),
            slot,
        })
    }

    /// Lazily materialize a continuation from `caller_info` (paper §3.2.3's
    /// three cases). Returns the continuation and, when the caller's
    /// context had to be created, the shell context index.
    pub(crate) fn materialize_cont(
        &mut self,
        node: usize,
        info: CallerInfo,
    ) -> Result<(Continuation, Option<u32>), Trap> {
        self.charge(node, self.cost().cont_create);
        self.ctr(node).conts_created += 1;
        self.emit(
            node,
            TraceEvent::ContMaterialized {
                node: NodeId(node as u32),
            },
        );
        match info {
            CallerInfo::Proxy { cont } => Ok((cont, None)),
            CallerInfo::Created {
                node: cn,
                ctx,
                gen,
                ret_slot,
            } => Ok((
                Continuation::Into(ContRef {
                    node: cn,
                    ctx,
                    gen,
                    slot: ret_slot,
                }),
                None,
            )),
            CallerInfo::NotCreated {
                method,
                obj,
                ret_slot,
            } => {
                debug_assert_eq!(obj.node.idx(), node, "shell off-node");
                let m = self.img.program.method(method);
                let (nlocals, nslots) = (m.locals, m.slots);
                // Mutant: mark slot 0 instead of the caller's declared
                // return slot; adoption discards shell slots, so only the
                // structural offset check sees it.
                let mark = if self.mutant_is(Mutant::ShellSlotZero) {
                    0
                } else {
                    ret_slot as usize
                };
                let shell = |f: &mut ActFrame| {
                    f.reset(method, obj, nlocals, nslots, &[]);
                    f.slots[mark] = SlotState::Pending;
                };
                let id = self.new_ctx(node, Continuation::Unset, WaitState::Shell, true, shell);
                self.san_shell_check(node, id, ret_slot);
                Ok((self.cont_into(node, id, ret_slot), Some(id)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn continuation_message_size() {
        let c = Continuation::Into(ContRef {
            node: NodeId(0),
            ctx: 1,
            gen: 0,
            slot: 2,
        });
        assert_eq!(c.words(), 2);
        assert_eq!(Continuation::Discard.words(), 1);
        assert_eq!(Continuation::Root.words(), 1);
    }

    #[test]
    fn proxy_detection() {
        let p = CallerInfo::Proxy {
            cont: Continuation::Root,
        };
        assert!(p.is_proxy());
        let n = CallerInfo::NotCreated {
            method: MethodId(0),
            obj: ObjRef {
                node: NodeId(0),
                index: 0,
            },
            ret_slot: 0,
        };
        assert!(!n.is_proxy());
    }
}
