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
//! prices exactly these heap-caller/stack-callee combinations). That
//! decision is the call protocol's (`call.rs`), shared with the stack
//! interpreter; this file owns dispatch, the step loop, and the fills
//! buffered for the context being stepped.

use crate::call::{self, Caller};
use crate::context::{ActFrame, WaitState};
use crate::error::Trap;
use crate::exec::{self, Next};
use crate::rt::{ActiveCtx, Runtime};
use crate::seq;
use hem_ir::{Instr, Program};
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
        let placeholder = ActFrame::empty(c.frame.method, c.frame.obj);
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
    let prog = rt.program.clone();
    let res = step_loop(rt, &prog, node, id, &mut fr);
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
    prog: &Program,
    node: usize,
    id: u32,
    fr: &mut ActFrame,
) -> Result<StepEnd, Trap> {
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
                let (tobj, a) = exec::read_call(rt, fr, target, args)?;
                let caller = Caller::HeapInvoke {
                    fr,
                    ctx: id,
                    slot: *slot,
                };
                call::invoke(rt, prog, node, caller, tobj, *callee, a)?;
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
            Instr::Multicast { .. } | Instr::Reduce { .. } | Instr::Barrier { .. } => {
                let op = exec::read_collective(rt, fr, node, ins)?;
                let caller = Caller::HeapInvoke {
                    slot: op.slot,
                    ctx: id,
                    fr,
                };
                call::collective(rt, node, caller, op)?;
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
                // The context's own continuation is passed along (it
                // already exists — no laziness needed).
                let (tobj, a) = exec::read_call(rt, fr, target, args)?;
                let c = rt.nodes[node].ctxs.get_mut(id);
                if c.cont_consumed {
                    return Err(Trap::at(
                        fr.method,
                        fr.pc,
                        "forward after continuation consumed",
                    ));
                }
                c.cont_consumed = true;
                let caller = Caller::HeapForward { cont: c.cont };
                call::invoke(rt, prog, node, caller, tobj, *callee, a)?;
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
                exec::store_cont(rt, node, fr, *field, idx.as_ref(), cont)?;
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
