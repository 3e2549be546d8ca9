//! The call protocol (paper §3.2–3.3): how an invocation of
//! `(target, method, args)` proceeds on a node, written once.
//!
//! Whichever version of the caller issues it, a call is one sequence:
//! translate the name, check locality, send — or check concurrency, take
//! or queue on the lock, run the callee's sequential schema, settle the
//! lock, dispose of the outcome. What varies is only how a continuation
//! comes to exist *if one is needed* (§3.2.3) and where a synchronous
//! value goes; [`Caller`] answers those two questions per call site:
//!
//! | caller                         | a real continuation, now            | a synchronous value     |
//! |--------------------------------|-------------------------------------|-------------------------|
//! | `Invoke` in a stack frame      | fall back (or adopt the shell), then a reference into its own new context; `Discard` without a slot | fills its slot |
//! | `Forward` in a stack frame     | `materialize_cont(caller_info)`     | returns up the stack    |
//! | `Invoke` in a heap context     | a reference into its own context    | fills its slot          |
//! | `Forward` in a heap context    | the context's own                   | `deliver_cont`          |
//! | arrival (message, lock grant, root `call`) | the one it carries      | `deliver_cont`          |
//!
//! The sites also differ in price, and those differences are data of the
//! descriptor, not separate paths: an instruction pays both
//! parallelization checks of §3.2.1 (locality, concurrency) and counts as
//! a local invocation, while an arrival was already located by the
//! network and checks concurrency only on a locked class (§3.3), runs as a
//! task of its own, and counts a proxy continuation for a CP callee
//! (Fig. 8); forwards count `stack_forwards` (Fig. 7); a slot-bearing
//! stack caller that must *keep* its continuation on this node — queued on
//! a lock or linked into a blocked callee — pays `cont_create` for it
//! (Fig. 6), while one that sends it pays through the message.

use crate::cont::{CallerInfo, Continuation};
use crate::context::{ActFrame, SlotState, WaitState};
use crate::error::Trap;
use crate::exec::CollOp;
use crate::object::{DeferredInvoke, LockHolder};
use crate::rt::{Image, Runtime};
use crate::seq::{self, Conv, SeqOutcome, SeqState};
use crate::wrapper::par_invoke_ctx;
use crate::ExecMode;
use hem_analysis::Schema;
use hem_ir::{MethodId, ObjRef, Slot, Value};
use hem_machine::NodeId;

/// The call site, as far as the protocol needs to know it.
pub(crate) enum Caller<'a> {
    /// An `Invoke` executed by a stack frame.
    StackInvoke {
        st: &'a mut SeqState,
        slot: Option<Slot>,
    },
    /// A `Forward` executed by a stack frame: its continuation is still
    /// implicit in `info`.
    StackForward { info: CallerInfo },
    /// An `Invoke` executed by heap context `ctx`, whose frame is `fr`.
    HeapInvoke {
        fr: &'a mut ActFrame,
        ctx: u32,
        slot: Option<Slot>,
    },
    /// A `Forward` executed by a heap context whose continuation is `cont`.
    HeapForward { cont: Continuation },
    /// An invocation that arrived carrying `cont`: by message, by lock
    /// grant, or as the harness's root call.
    Arrival { cont: Continuation, forwarded: bool },
}

impl Caller<'_> {
    #[inline]
    fn is_arrival(&self) -> bool {
        matches!(self, Caller::Arrival { .. })
    }

    #[inline]
    fn on_stack(&self) -> bool {
        matches!(
            self,
            Caller::StackInvoke { .. } | Caller::StackForward { .. }
        )
    }

    /// Is the continuation being passed on, rather than minted here?
    #[inline]
    fn forwarded(&self) -> bool {
        match self {
            Caller::StackInvoke { .. } | Caller::HeapInvoke { .. } => false,
            Caller::StackForward { .. } | Caller::HeapForward { .. } => true,
            Caller::Arrival { forwarded, .. } => *forwarded,
        }
    }

    /// Mark the reply future pending (join counters keep their count).
    #[inline]
    fn mark_pending(&mut self) {
        let (fr, s) = match self {
            Caller::StackInvoke {
                st, slot: Some(s), ..
            } => (&mut st.fr, s),
            Caller::HeapInvoke {
                fr, slot: Some(s), ..
            } => (&mut **fr, s),
            _ => return,
        };
        if !matches!(fr.slots[s.idx()], SlotState::Join(_)) {
            fr.slots[s.idx()] = SlotState::Pending;
        }
    }

    /// The paper's `caller_info` for a CP callee (§3.2.3's three cases).
    #[inline]
    fn info(&self, rt: &Runtime, node: usize) -> CallerInfo {
        match self {
            Caller::StackInvoke {
                st, slot: Some(s), ..
            } => CallerInfo::NotCreated {
                method: st.fr.method,
                obj: st.fr.obj,
                ret_slot: s.0,
            },
            Caller::HeapInvoke {
                ctx, slot: Some(s), ..
            } => CallerInfo::Created {
                node: NodeId(node as u32),
                ctx: *ctx,
                gen: rt.nodes[node].ctxs.gen(*ctx),
                ret_slot: s.0,
            },
            Caller::StackInvoke { .. } | Caller::HeapInvoke { .. } => CallerInfo::Proxy {
                cont: Continuation::Discard,
            },
            Caller::StackForward { info } => *info,
            Caller::HeapForward { cont } | Caller::Arrival { cont, .. } => {
                CallerInfo::Proxy { cont: *cont }
            }
        }
    }

    /// "Give me a real continuation now." Returns it with how the calling
    /// stack frame ended, if producing it ended it (a fallback, or a
    /// forward whose continuation is now consumed). `keep`: the
    /// continuation stays on this node instead of leaving in a message.
    #[inline]
    fn real_cont(
        &mut self,
        rt: &mut Runtime,
        node: usize,
        keep: bool,
    ) -> Result<(Continuation, Option<SeqOutcome>), Trap> {
        Ok(match self {
            Caller::StackInvoke { slot: None, .. } | Caller::HeapInvoke { slot: None, .. } => {
                (Continuation::Discard, None)
            }
            Caller::StackInvoke {
                st, slot: Some(s), ..
            } => {
                // Lazy creation of our own context so the reply can land.
                let next_pc = st.fr.pc + 1;
                let (ctx, out) = st.fall_back(rt, node, next_pc, WaitState::Ready)?;
                if keep {
                    rt.charge(node, rt.cost().cont_create);
                }
                (rt.cont_into(node, ctx, s.0), Some(out))
            }
            Caller::StackForward { info } => {
                let (cont, shell) = rt.materialize_cont(node, *info)?;
                (cont, Some(SeqOutcome::Consumed { shell }))
            }
            Caller::HeapInvoke {
                ctx, slot: Some(s), ..
            } => (rt.cont_into(node, *ctx, s.0), None),
            Caller::HeapForward { cont } | Caller::Arrival { cont, .. } => (*cont, None),
        })
    }

    /// "Here is a synchronous value." No `future_store` charge for a slot:
    /// a synchronous completion returns through memory, which the schema's
    /// call-extra already prices (paper §4.1).
    #[inline]
    fn value(self, rt: &mut Runtime, node: usize, v: Value) -> Result<Option<SeqOutcome>, Trap> {
        let (fr, slot) = match self {
            Caller::StackInvoke { st, slot } => (&mut st.fr, slot),
            Caller::HeapInvoke { fr, slot, .. } => (fr, slot),
            Caller::StackForward { .. } => return Ok(Some(SeqOutcome::Value(v))),
            Caller::HeapForward { cont } | Caller::Arrival { cont, .. } => {
                return rt.deliver_cont(node, cont, v).map(|()| None);
            }
        };
        if let Some(s) = slot {
            Runtime::apply_fill(&mut fr.slots, s.0, v)
                .map_err(|e| Trap::at(fr.method, fr.pc, e))?;
        }
        Ok(None)
    }

    /// The callee took the continuation with it (forwarded or stored it):
    /// nothing is owed, but a stack frame adopts the `shell` context the
    /// callee created on its behalf, and a forwarding frame passes it up.
    #[inline]
    fn consumed(self, rt: &mut Runtime, node: usize, shell: Option<u32>) -> Option<SeqOutcome> {
        match (self, shell) {
            (Caller::StackForward { .. }, shell) => Some(SeqOutcome::Consumed { shell }),
            (Caller::StackInvoke { st, .. }, Some(sh)) => {
                let next_pc = st.fr.pc + 1;
                Some(st.adopt(rt, node, sh, next_pc))
            }
            (_, shell) => {
                debug_assert!(shell.is_none(), "only a stack caller can grow a shell");
                None
            }
        }
    }
}

/// Proceed with the invocation of `callee(args)` on `target` issued by
/// `caller` on `node`. `Some(outcome)`: the calling stack frame is over —
/// it fell back, or it was a `Forward` — and unwinds with `outcome`;
/// `None`: the caller carries on (always, for heap callers and arrivals).
///
/// Inlined into each of its five call sites: the caller kind is a constant
/// there, so every `match caller` below folds away and the hot stack call
/// (2.7 M of them in `fib 30`) pays no dispatch for the sites it is not.
#[inline(always)]
pub(crate) fn invoke(
    rt: &mut Runtime,
    img: &Image,
    node: usize,
    mut caller: Caller<'_>,
    target: ObjRef,
    callee: MethodId,
    args: Vec<Value>,
) -> Result<Option<SeqOutcome>, Trap> {
    let arrival = caller.is_arrival();
    let target = rt.resolve_local(node, target);
    if !arrival {
        rt.charge(node, img.cost.locality_check);
    }
    caller.mark_pending();

    if target.node.idx() != node {
        // Remote, or moved away: the request travels, so the continuation
        // must be real now (§3.2.2).
        rt.ctr(node).remote_invokes += 1;
        let (cont, unwind) = caller.real_cont(rt, node, false)?;
        rt.send_invoke(node, target, callee, args, cont, caller.forwarded())?;
        return Ok(unwind);
    }

    let obj = target.index;
    let locked = rt.obj_locked_class(node, obj);
    if !arrival {
        rt.ctr(node).local_invokes += 1;
    }
    if !arrival || locked {
        rt.charge(node, img.cost.concurrency_check);
    }

    if img.mode == ExecMode::ParallelOnly && !caller.on_stack() {
        // The baseline (§3.1): every invocation allocates a context —
        // except that the paper includes speculative inlining in *all*
        // measurements (§4.2), so even here an `Invoke` runs a tiny
        // provably non-blocking method on a local unlocked object in place.
        if matches!(caller, Caller::HeapInvoke { .. })
            && img.enable_inlining
            && img.program.method(callee).inlinable
            && img.schemas.of(callee) == Schema::NonBlocking
            && !locked
        {
            rt.charge(node, img.cost.inline_guard);
            rt.ctr(node).inlined += 1;
            return match seq::run_seq(rt, img, node, target, callee, args, Conv::Nb)? {
                SeqOutcome::Value(v) => caller.value(rt, node, v),
                _ => Ok(None),
            };
        }
        // Heap callers and arrivals hold their continuation: obtaining it
        // charges nothing and unwinds nothing.
        let (cont, _) = caller.real_cont(rt, node, true)?;
        par_invoke_ctx(rt, node, target, callee, args, cont, caller.forwarded())?;
        return Ok(None);
    }

    let task = if arrival {
        rt.new_task()
    } else {
        rt.current_task
    };
    if locked && !rt.lock_try(node, obj, LockHolder::Task(task)) {
        // Target busy: the invocation waits on the lock with its
        // continuation.
        let (cont, unwind) = caller.real_cont(rt, node, true)?;
        let d = DeferredInvoke::new(callee, args, cont, caller.forwarded());
        rt.lock_defer(node, obj, d);
        return Ok(unwind);
    }

    // Local and lock held (or lock-free): run the sequential version. A
    // forward passes `caller_info` along unchanged, so a local chain
    // executes on the stack and the final value returns through memory.
    match caller {
        Caller::StackForward { .. } | Caller::HeapForward { .. } => {
            rt.ctr(node).stack_forwards += 1;
        }
        Caller::Arrival { .. } if img.schemas.of(callee) == Schema::ContPassing => {
            rt.ctr(node).proxy_conts += 1;
        }
        _ => {}
    }
    let info = caller.info(rt, node);
    let out = seq::call_seq_schema(rt, img, node, target, callee, args, info)?;
    settle_lock(rt, node, obj, locked, &out);
    match out {
        SeqOutcome::Value(v) => caller.value(rt, node, v),
        SeqOutcome::Halted => Ok(match caller {
            Caller::StackForward { .. } => Some(SeqOutcome::Halted),
            _ => None,
        }),
        SeqOutcome::Consumed { shell } => Ok(caller.consumed(rt, node, shell)),
        SeqOutcome::Blocked {
            ctx: child,
            shell,
            cont_needed: true,
        } => {
            // The callee suspended without consuming its continuation: it
            // is linked into the callee's fresh context (Fig. 6).
            debug_assert!(shell.is_none());
            let (cont, unwind) = caller.real_cont(rt, node, true)?;
            rt.charge(node, img.cost.cont_link);
            rt.nodes[node].ctxs.get_mut(child).cont = cont;
            Ok(unwind)
        }
        SeqOutcome::Blocked { shell, .. } => Ok(caller.consumed(rt, node, shell)),
    }
}

/// Issue a collective from a call site: its completion arrives over the
/// wire (up-tree legs), never synchronously, so the root continuation is
/// obtained exactly as for a remote `Invoke` — a slot-bearing stack frame
/// falls back first.
pub(crate) fn collective(
    rt: &mut Runtime,
    node: usize,
    mut caller: Caller<'_>,
    op: CollOp,
) -> Result<Option<SeqOutcome>, Trap> {
    caller.mark_pending();
    let (cont, unwind) = caller.real_cont(rt, node, false)?;
    rt.issue_collective(node, op.kind, &op.members, op.callee, op.args, cont)?;
    Ok(unwind)
}

/// Release or transfer a target's lock according to how its sequential
/// execution ended.
fn settle_lock(rt: &mut Runtime, node: usize, obj: u32, locked: bool, out: &SeqOutcome) {
    if !locked {
        return;
    }
    match out {
        SeqOutcome::Blocked { ctx, .. } => {
            // The method still holds its receiver across the suspension.
            rt.lock_transfer(node, obj, LockHolder::Ctx(*ctx));
            rt.nodes[node].ctxs.get_mut(*ctx).holds_lock = true;
            rt.san_settle_blocked(node, obj, *ctx);
        }
        _ => rt.lock_release(node, obj),
    }
}
