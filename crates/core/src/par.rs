//! The parallel (heap-context) interpreter: the paper's §3.1 code version.
//!
//! A context is dispatched from the ready queue and stepped until it
//! replies, forwards, halts, or suspends on a touch. The parallel version
//! is optimized for concurrency generation and latency hiding: invocations
//! are issued asynchronously (several can be outstanding from one method)
//! and a *set* of futures is touched at once so the activation restarts at
//! most once per synchronization point (Fig. 4).
//!
//! Under the hybrid mode, invocations issued *from* a heap context still
//! attempt the callee's sequential version first — the caller's context
//! existing doesn't stop the callee from running on the stack (Table 2
//! prices exactly these heap-caller/stack-callee combinations).

use crate::cont::{CallerInfo, Continuation};
use crate::context::{ActFrame, SlotState, WaitState};
use crate::error::Trap;
use crate::exec::{self, Next};
use crate::object::{DeferredInvoke, LockHolder};
use crate::rt::{ActiveCtx, Runtime};
use crate::seq::{self, SeqOutcome};
use crate::ExecMode;
use hem_ir::{ContRef, Instr, MethodId, Value};
use hem_machine::NodeId;

/// Result of stepping a context.
enum StepEnd {
    /// Replied / forwarded / halted; the context was freed.
    Finished,
    /// Suspended on a touch; the frame must be stored with this wait set.
    Suspend {
        /// Awaited slot mask.
        mask: u64,
        /// Unresolved count.
        missing: u16,
    },
}

/// Dispatch one ready context.
pub(crate) fn dispatch(rt: &mut Runtime, node: usize, id: u32) -> Result<(), Trap> {
    rt.charge(node, rt.cost.dispatch);
    rt.new_task();
    rt.san_dispatch_check(node, id);
    let (frame, gen) = {
        let c = rt.nodes[node].ctxs.get_mut(id);
        debug_assert_eq!(c.wait, WaitState::Ready, "dispatch of non-ready context");
        c.wait = WaitState::Running;
        let placeholder = ActFrame {
            method: c.frame.method,
            obj: c.frame.obj,
            pc: 0,
            locals: Vec::new(),
            slots: Vec::new(),
        };
        (std::mem::replace(&mut c.frame, placeholder), c.gen)
    };
    debug_assert!(rt.active.is_none(), "nested context dispatch");
    rt.active = Some(ActiveCtx {
        node,
        id,
        gen,
        fills: Vec::new(),
    });

    let mut fr = frame;
    let res = step_loop(rt, node, id, gen, &mut fr);
    match res {
        Ok(StepEnd::Finished) => {
            rt.active = None;
            rt.nodes[node].ctxs.retire(id, fr);
            Ok(())
        }
        Ok(StepEnd::Suspend { mask, missing }) => {
            rt.active = None;
            rt.charge(node, rt.cost.suspend);
            rt.ctr(node).suspends += 1;
            rt.emit(
                node,
                crate::trace::TraceEvent::Suspend {
                    node: NodeId(node as u32),
                    ctx: id,
                },
            );
            let c = rt.nodes[node].ctxs.get_mut(id);
            c.frame = fr;
            c.wait = WaitState::Waiting { mask, missing };
            Ok(())
        }
        Err(t) => {
            rt.active = None;
            Err(t)
        }
    }
}

fn step_loop(
    rt: &mut Runtime,
    node: usize,
    id: u32,
    gen: u32,
    fr: &mut ActFrame,
) -> Result<StepEnd, Trap> {
    let prog = rt.program.clone();
    let m = prog.method(fr.method);
    loop {
        drain_fills(rt, fr)?;
        let ins = fr
            .pc
            .try_into()
            .ok()
            .and_then(|pc: usize| m.body.get(pc))
            .ok_or_else(|| Trap::at(fr.method, fr.pc, "pc past end of body"))?;
        rt.charge(node, rt.cost.op);
        match ins {
            Instr::Invoke {
                slot,
                target,
                method: callee,
                args,
                hint: _,
            } => {
                let tv = exec::read(fr, target);
                let a = exec::read_args(fr, args);
                par_invoke(rt, node, id, gen, fr, *slot, tv, *callee, a)?;
                fr.pc += 1;
            }
            Instr::Touch { slots } => {
                rt.ctr(node).touches += 1;
                rt.charge(node, rt.cost.future_touch * slots.len() as u64);
                drain_fills(rt, fr)?;
                let (mask, missing) = seq::unsatisfied(fr, slots);
                if missing == 0 {
                    fr.pc += 1;
                } else {
                    rt.ctr(node).touch_misses += 1;
                    return Ok(StepEnd::Suspend { mask, missing });
                }
            }
            Instr::Multicast {
                slot,
                group,
                method: callee,
                args,
            } => {
                let members = exec::read_group(rt, fr, node, *group)?;
                let a = exec::read_args(fr, args);
                let (kind, cont) = match slot {
                    None => (crate::msg::CollKind::Cast, Continuation::Discard),
                    Some(s) => (
                        crate::msg::CollKind::CastAcked,
                        par_coll_cont(fr, node, id, gen, *s),
                    ),
                };
                rt.issue_collective(node, kind, &members, *callee, a, cont)?;
                fr.pc += 1;
            }
            Instr::Reduce {
                slot,
                group,
                method: callee,
                args,
                op,
            } => {
                let members = exec::read_group(rt, fr, node, *group)?;
                let a = exec::read_args(fr, args);
                let cont = par_coll_cont(fr, node, id, gen, *slot);
                rt.issue_collective(
                    node,
                    crate::msg::CollKind::Reduce(*op),
                    &members,
                    *callee,
                    a,
                    cont,
                )?;
                fr.pc += 1;
            }
            Instr::Barrier { slot, group } => {
                let members = exec::read_group(rt, fr, node, *group)?;
                let cont = par_coll_cont(fr, node, id, gen, *slot);
                rt.issue_collective(
                    node,
                    crate::msg::CollKind::Barrier,
                    &members,
                    MethodId(0),
                    Vec::new(),
                    cont,
                )?;
                fr.pc += 1;
            }
            Instr::Reply { src } => {
                let c = rt.nodes[node].ctxs.get(id);
                if c.cont_consumed {
                    return Err(Trap::at(
                        fr.method,
                        fr.pc,
                        "reply after continuation consumed",
                    ));
                }
                let cont = c.cont;
                let v = exec::read(fr, src);
                rt.deliver_cont(node, cont, v)?;
                rt.finish_ctx(node, id);
                return Ok(StepEnd::Finished);
            }
            Instr::Halt => {
                rt.finish_ctx(node, id);
                return Ok(StepEnd::Finished);
            }
            Instr::Forward {
                target,
                method: callee,
                args,
                hint: _,
            } => {
                let tv = exec::read(fr, target);
                let a = exec::read_args(fr, args);
                par_forward(rt, node, id, fr, tv, *callee, a)?;
                rt.finish_ctx(node, id);
                return Ok(StepEnd::Finished);
            }
            Instr::StoreCont { field, idx } => {
                let c = rt.nodes[node].ctxs.get(id);
                if c.cont_consumed {
                    return Err(Trap::at(fr.method, fr.pc, "continuation already consumed"));
                }
                let cont = c.cont;
                rt.charge(node, rt.cost.cont_create);
                rt.ctr(node).conts_created += 1;
                let Continuation::Into(cr) = cont else {
                    return Err(Trap::at(
                        fr.method,
                        fr.pc,
                        "cannot store a root/discard continuation into a data structure",
                    ));
                };
                let src = hem_ir::Operand::K(Value::Cont(cr));
                let ins = match idx {
                    None => Instr::SetField { field: *field, src },
                    Some(i) => Instr::SetElem {
                        field: *field,
                        idx: *i,
                        src,
                    },
                };
                exec::exec_simple(rt, node, fr, &ins)?;
                rt.nodes[node].ctxs.get_mut(id).cont_consumed = true;
                fr.pc += 1;
            }
            simple => match exec::exec_simple(rt, node, fr, simple)? {
                Next::Advance => fr.pc += 1,
                Next::Goto(t) => fr.pc = t,
            },
        }
    }
}

/// Mark a collective's result slot pending and build the continuation the
/// collective root delivers into (the stepping context's own slot).
fn par_coll_cont(
    fr: &mut ActFrame,
    node: usize,
    id: u32,
    gen: u32,
    s: hem_ir::Slot,
) -> Continuation {
    if !matches!(fr.slots[s.idx()], SlotState::Join(_)) {
        fr.slots[s.idx()] = SlotState::Pending;
    }
    Continuation::Into(ContRef {
        node: NodeId(node as u32),
        ctx: id,
        gen,
        slot: s.0,
    })
}

/// Apply fills buffered for the context being stepped.
fn drain_fills(rt: &mut Runtime, fr: &mut ActFrame) -> Result<(), Trap> {
    let fills = {
        let a = rt.active.as_mut().expect("stepping without active record");
        if a.fills.is_empty() {
            return Ok(());
        }
        std::mem::take(&mut a.fills)
    };
    for (slot, v) in fills {
        Runtime::apply_fill(&mut fr.slots, slot, v).map_err(|e| Trap::at(fr.method, fr.pc, e))?;
    }
    Ok(())
}

/// Handle an `Invoke` issued from a heap context.
#[allow(clippy::too_many_arguments)]
fn par_invoke(
    rt: &mut Runtime,
    node: usize,
    id: u32,
    gen: u32,
    fr: &mut ActFrame,
    slot: Option<hem_ir::Slot>,
    target: Value,
    callee: MethodId,
    args: Vec<Value>,
) -> Result<(), Trap> {
    let pc = fr.pc;
    let tobj = target
        .as_obj()
        .map_err(|e| Trap::from_value(fr.method, pc, e))?;
    let tobj = rt.resolve_local(node, tobj);
    rt.charge(node, rt.cost.locality_check);
    if let Some(s) = slot {
        if !matches!(fr.slots[s.idx()], SlotState::Join(_)) {
            fr.slots[s.idx()] = SlotState::Pending;
        }
    }
    let my_cont = |s: hem_ir::Slot| {
        Continuation::Into(ContRef {
            node: NodeId(node as u32),
            ctx: id,
            gen,
            slot: s.0,
        })
    };
    let cont = slot.map(my_cont).unwrap_or(Continuation::Discard);

    if tobj.node.idx() != node {
        rt.ctr(node).remote_invokes += 1;
        rt.send_invoke(node, tobj, callee, args, cont, false)?;
        return Ok(());
    }

    rt.ctr(node).local_invokes += 1;
    rt.charge(node, rt.cost.concurrency_check);

    if rt.mode == ExecMode::ParallelOnly {
        // The paper includes speculative inlining in *all* measurements
        // (§4.2): even the parallel-only baseline inlines tiny provably
        // non-blocking methods on local unlocked objects instead of
        // allocating a context.
        let inline_ok = rt.enable_inlining
            && rt.program.method(callee).inlinable
            && rt.schemas.of(callee) == hem_analysis::Schema::NonBlocking
            && !rt.obj_locked_class(node, tobj.index);
        if inline_ok {
            rt.charge(node, rt.cost.inline_guard);
            rt.ctr(node).inlined += 1;
            let out = seq::run_seq(rt, node, tobj, callee, args, seq::Conv::Nb)?;
            if let (SeqOutcome::Value(v), Some(s)) = (out, slot) {
                Runtime::apply_fill(&mut fr.slots, s.0, v)
                    .map_err(|e| Trap::at(fr.method, pc, e))?;
            }
            return Ok(());
        }
        crate::wrapper::par_invoke_ctx(rt, node, tobj, callee, args, cont, false)?;
        return Ok(());
    }

    let locked = rt.obj_locked_class(node, tobj.index);
    if locked && !rt.lock_try(node, tobj.index, LockHolder::Task(rt.current_task)) {
        rt.lock_defer(
            node,
            tobj.index,
            DeferredInvoke {
                method: callee,
                args,
                cont,
                forwarded: false,
                req: 0,
            },
        );
        return Ok(());
    }

    let cp_info = match slot {
        Some(s) => CallerInfo::Created {
            node: NodeId(node as u32),
            ctx: id,
            gen,
            ret_slot: s.0,
        },
        None => CallerInfo::Proxy {
            cont: Continuation::Discard,
        },
    };
    let out = seq::call_seq_schema(rt, node, tobj, callee, args, cp_info)?;
    seq::settle_lock(rt, node, tobj.index, locked, &out);
    match out {
        SeqOutcome::Value(v) => {
            if let Some(s) = slot {
                // Synchronous return-through-memory is priced by the
                // schema call-extra, not as a future store.
                Runtime::apply_fill(&mut fr.slots, s.0, v)
                    .map_err(|e| Trap::at(fr.method, pc, e))?;
            }
            Ok(())
        }
        SeqOutcome::Halted => Ok(()),
        SeqOutcome::Consumed { shell } => {
            debug_assert!(shell.is_none(), "created-caller cannot grow a shell");
            Ok(())
        }
        SeqOutcome::Blocked {
            ctx: child,
            shell,
            cont_needed,
        } => {
            debug_assert!(shell.is_none(), "created-caller cannot grow a shell");
            if cont_needed {
                rt.charge(node, rt.cost.cont_link);
                rt.nodes[node].ctxs.get_mut(child).cont = cont;
            }
            Ok(())
        }
    }
}

/// Handle a `Forward` issued from a heap context: the context's own
/// continuation is passed along (it already exists — no laziness needed).
fn par_forward(
    rt: &mut Runtime,
    node: usize,
    id: u32,
    fr: &mut ActFrame,
    target: Value,
    callee: MethodId,
    args: Vec<Value>,
) -> Result<(), Trap> {
    let pc = fr.pc;
    let tobj = target
        .as_obj()
        .map_err(|e| Trap::from_value(fr.method, pc, e))?;
    let tobj = rt.resolve_local(node, tobj);
    let my_cont = {
        let c = rt.nodes[node].ctxs.get(id);
        if c.cont_consumed {
            return Err(Trap::at(
                fr.method,
                pc,
                "forward after continuation consumed",
            ));
        }
        c.cont
    };
    rt.nodes[node].ctxs.get_mut(id).cont_consumed = true;
    rt.charge(node, rt.cost.locality_check);

    if tobj.node.idx() != node {
        rt.ctr(node).remote_invokes += 1;
        rt.send_invoke(node, tobj, callee, args, my_cont, true)?;
        return Ok(());
    }

    rt.ctr(node).local_invokes += 1;
    rt.charge(node, rt.cost.concurrency_check);

    if rt.mode == ExecMode::ParallelOnly {
        crate::wrapper::par_invoke_ctx(rt, node, tobj, callee, args, my_cont, true)?;
        return Ok(());
    }

    let locked = rt.obj_locked_class(node, tobj.index);
    if locked && !rt.lock_try(node, tobj.index, LockHolder::Task(rt.current_task)) {
        rt.lock_defer(
            node,
            tobj.index,
            DeferredInvoke {
                method: callee,
                args,
                cont: my_cont,
                forwarded: true,
                req: 0,
            },
        );
        return Ok(());
    }

    rt.ctr(node).stack_forwards += 1;
    let out = seq::call_seq_schema(
        rt,
        node,
        tobj,
        callee,
        args,
        CallerInfo::Proxy { cont: my_cont },
    )?;
    seq::settle_lock(rt, node, tobj.index, locked, &out);
    match out {
        SeqOutcome::Value(v) => rt.deliver_cont(node, my_cont, v),
        SeqOutcome::Halted => Ok(()),
        SeqOutcome::Consumed { shell } => {
            debug_assert!(shell.is_none());
            Ok(())
        }
        SeqOutcome::Blocked {
            ctx: child,
            shell,
            cont_needed,
        } => {
            debug_assert!(shell.is_none());
            if cont_needed {
                rt.charge(node, rt.cost.cont_link);
                rt.nodes[node].ctxs.get_mut(child).cont = my_cont;
            }
            Ok(())
        }
    }
}
