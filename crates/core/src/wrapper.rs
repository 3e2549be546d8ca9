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
//! All of that is the call protocol (`call.rs`) run for an *arrival*: a
//! caller that already holds a real continuation and takes a synchronous
//! value by delivering it. This module is the message-side entry into it,
//! `run_invocation`, plus the paper's `ParallelOnly` baseline,
//! `par_invoke_ctx`: every invocation conservatively allocates a context.

use crate::call::{self, Caller};
use crate::cont::Continuation;
use crate::context::{ActFrame, WaitState};
use crate::error::Trap;
use crate::object::{DeferredInvoke, LockHolder};
use crate::rt::Runtime;
use hem_ir::{MethodId, ObjRef, Value};
use hem_machine::NodeId;

/// Run an invocation that arrived with a real continuation (message
/// arrival, lock grant, or root call) on local object index `obj`.
pub(crate) fn run_invocation(
    rt: &mut Runtime,
    node: usize,
    obj: u32,
    method: MethodId,
    args: Vec<Value>,
    cont: Continuation,
    forwarded: bool,
) -> Result<(), Trap> {
    let target = ObjRef {
        node: NodeId(node as u32),
        index: obj,
    };
    let caller = Caller::Arrival { cont, forwarded };
    let unwind = call::invoke(rt, node, caller, target, method, args)?;
    debug_assert!(unwind.is_none(), "an arrival has no stack frame to unwind");
    Ok(())
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
            let d = DeferredInvoke::new(method, args, cont, forwarded);
            rt.lock_defer(node, target.index, d);
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
