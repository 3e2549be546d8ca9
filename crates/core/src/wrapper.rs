//! Wrapper functions and proxy contexts (paper §3.3, Fig. 8).
//!
//! When an invocation arrives by message (or a deferred invocation is
//! granted a lock, or the harness issues a root call), it carries a real
//! continuation. Under the hybrid mode the wrapper runs the target's
//! *sequential* version directly from the message handler:
//!
//! * **non-blocking** callee: the returned value (if any — reactive
//!   computations return none) is passed to the waiting future through the
//!   continuation;
//! * **may-block** callee: on suspension the continuation is placed into
//!   the callee's lazily created context;
//! * **continuation-passing** callee: a *proxy* caller descriptor carries
//!   the message's continuation, so if the callee needs its continuation
//!   it is extracted rather than created.
//!
//! A remote message can thus be processed entirely on the stack — and a
//! forwarded continuation can pass through several nodes and finally reply
//! to the initial caller without a single heap context being allocated.
//!
//! Under `ParallelOnly` this module implements the paper's baseline
//! instead: every arriving invocation conservatively allocates a context.

use crate::cont::{CallerInfo, Continuation};
use crate::context::{ActFrame, WaitState};
use crate::error::Trap;
use crate::object::{DeferredInvoke, LockHolder};
use crate::rt::Runtime;
use crate::seq::{self, SeqOutcome};
use crate::ExecMode;
use hem_analysis::Schema;
use hem_ir::{MethodId, ObjRef, Value};
use hem_machine::NodeId;

/// Run an invocation that arrived with a real continuation (message
/// arrival, lock grant, or root call).
pub(crate) fn run_invocation(
    rt: &mut Runtime,
    node: usize,
    obj: u32,
    method: MethodId,
    args: Vec<Value>,
    cont: Continuation,
    forwarded: bool,
) -> Result<(), Trap> {
    let target = rt.resolve_local(
        node,
        ObjRef {
            node: NodeId(node as u32),
            index: obj,
        },
    );
    if target.node.idx() != node {
        // The object moved away: forward the request to its new home.
        rt.ctr(node).remote_invokes += 1;
        rt.send_invoke(node, target, method, args, cont, forwarded)?;
        return Ok(());
    }
    let obj = target.index;
    let locked = rt.obj_locked_class(node, obj);
    if locked {
        rt.charge(node, rt.cost.concurrency_check);
    }

    match rt.mode {
        ExecMode::ParallelOnly => {
            par_invoke_ctx(rt, node, target, method, args, cont, forwarded)?;
            Ok(())
        }
        ExecMode::Hybrid => {
            let task = rt.new_task();
            if locked && !rt.lock_try(node, obj, LockHolder::Task(task)) {
                rt.lock_defer(
                    node,
                    obj,
                    DeferredInvoke {
                        method,
                        args,
                        cont,
                        forwarded,
                        req: 0,
                    },
                );
                return Ok(());
            }
            if rt.schemas.of(method) == Schema::ContPassing {
                // Fig. 8: CP callees get a proxy context carrying the
                // message's continuation, marked as forwarded.
                rt.ctr(node).proxy_conts += 1;
            }
            let out =
                seq::call_seq_schema(rt, node, target, method, args, CallerInfo::Proxy { cont })?;
            seq::settle_lock(rt, node, obj, locked, &out);
            match out {
                SeqOutcome::Value(v) => rt.deliver_cont(node, cont, v),
                SeqOutcome::Halted => Ok(()),
                SeqOutcome::Consumed { shell } => {
                    debug_assert!(shell.is_none(), "proxy caller cannot grow a shell");
                    Ok(())
                }
                SeqOutcome::Blocked {
                    ctx,
                    shell,
                    cont_needed,
                } => {
                    debug_assert!(shell.is_none(), "proxy caller cannot grow a shell");
                    if cont_needed {
                        rt.charge(node, rt.cost.cont_link);
                        rt.nodes[node].ctxs.get_mut(ctx).cont = cont;
                    }
                    Ok(())
                }
            }
        }
    }
}

/// The conservative heap-based invocation (paper §3.1): allocate a
/// context, pass everything through the heap, schedule. Returns the
/// context index, or `None` when the target lock was busy and the
/// invocation was deferred instead.
pub(crate) fn par_invoke_ctx(
    rt: &mut Runtime,
    node: usize,
    target: ObjRef,
    method: MethodId,
    args: Vec<Value>,
    cont: Continuation,
    forwarded: bool,
) -> Result<Option<u32>, Trap> {
    let locked = rt.obj_locked_class(node, target.index);
    if locked {
        let held = rt.nodes[node].objects[target.index as usize]
            .lock
            .as_ref()
            .is_some_and(|l| l.holder.is_some());
        if held {
            rt.ctr(node).lock_conflicts += 1;
            rt.lock_defer(
                node,
                target.index,
                DeferredInvoke {
                    method,
                    args,
                    cont,
                    forwarded,
                    req: 0,
                },
            );
            return Ok(None);
        }
    }
    let m = rt.program.method(method);
    let (nlocals, nslots) = (m.locals, m.slots);
    let frame = ActFrame::new(method, target, nlocals, nslots, &args);
    // Fixed bookkeeping + the conservatively eager continuation.
    rt.charge(node, rt.cost.par_invoke_fixed + rt.cost.cont_create);
    let id = rt.new_ctx(node, frame, cont, WaitState::Ready, false);
    rt.ctr(node).par_invokes += 1;
    if locked {
        let ok = rt.lock_try(node, target.index, LockHolder::Ctx(id));
        debug_assert!(ok, "probed free above");
        rt.nodes[node].ctxs.get_mut(id).holds_lock = true;
    }
    rt.enqueue_ready(node, id);
    Ok(Some(id))
}
