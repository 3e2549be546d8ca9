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
//! interpreter; this file owns dispatch and what a heap context brings to
//! `exec::run`: its continuation, its suspension and its buffered fills.

use crate::call::{self, Caller};
use crate::cont::Continuation;
use crate::context::{ActFrame, WaitState};
use crate::error::Trap;
use crate::exec::{self, Activation, CollOp};
use crate::rt::{ActiveCtx, Image, Runtime};
use hem_ir::{MethodId, ObjRef, Operand, Slot, Value};
use hem_machine::NodeId;

/// How stepping a context ended.
enum StepEnd {
    /// Replied / forwarded / halted; the context was freed.
    Finished,
    /// Suspended on a touch; the frame must be stored with this wait set.
    Suspend(WaitState),
}

/// A heap context being stepped: its frame, taken out of the slab entry
/// for the step and put back (or retired) after it.
struct HeapStep {
    fr: ActFrame,
    id: u32,
}

/// Dispatch one ready context.
pub(crate) fn dispatch(rt: &mut Runtime, node: usize, id: u32) -> Result<(), Trap> {
    let img = rt.img.clone();
    rt.charge(node, img.cost.dispatch);
    rt.new_task();
    rt.san_dispatch_check(node, id);
    let (fr, gen) = {
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

    let mut step = HeapStep { fr, id };
    let res = exec::run(rt, &img, node, &mut step);
    rt.active = None;
    match res? {
        StepEnd::Finished => rt.nodes[node].ctxs.retire(id, step.fr),
        StepEnd::Suspend(wait) => {
            rt.charge(node, img.cost.suspend);
            rt.ctr(node).suspends += 1;
            let ev = crate::trace::TraceEvent::Suspend {
                node: NodeId(node as u32),
                ctx: id,
            };
            rt.emit(node, ev);
            let c = rt.nodes[node].ctxs.get_mut(id);
            c.frame = step.fr;
            c.wait = wait;
        }
    }
    Ok(())
}

impl Activation for HeapStep {
    type End = StepEnd;

    fn fr(&mut self) -> &mut ActFrame {
        &mut self.fr
    }

    /// Apply the fills buffered for this context since the last step.
    #[inline(always)]
    fn sync(&mut self, rt: &mut Runtime) -> Result<(), Trap> {
        let a = rt.active.as_mut().expect("stepping without active record");
        if a.fills.is_empty() {
            return Ok(());
        }
        for (slot, v) in std::mem::take(&mut a.fills) {
            Runtime::apply_fill(&mut self.fr.slots, slot, v)
                .map_err(|e| Trap::at(self.fr.method, self.fr.pc, e))?;
        }
        Ok(())
    }

    #[inline(always)]
    fn invoke(
        &mut self,
        rt: &mut Runtime,
        img: &Image,
        node: usize,
        slot: Option<Slot>,
        callee: MethodId,
        (target, args): (ObjRef, Vec<Value>),
    ) -> Result<Option<StepEnd>, Trap> {
        let out = call::invoke(rt, img, node, self.caller(slot), target, callee, args)?;
        debug_assert!(out.is_none(), "a call never unwinds a heap context");
        Ok(None)
    }

    fn collective(
        &mut self,
        rt: &mut Runtime,
        _: &Image,
        node: usize,
        slot: Option<Slot>,
        op: CollOp,
    ) -> Result<Option<StepEnd>, Trap> {
        let out = call::collective(rt, node, self.caller(slot), op)?;
        debug_assert!(out.is_none(), "a call never unwinds a heap context");
        Ok(None)
    }

    fn forward(
        &mut self,
        rt: &mut Runtime,
        img: &Image,
        node: usize,
        target: &Operand,
        callee: MethodId,
        args: &[Operand],
    ) -> Result<StepEnd, Trap> {
        // The context's own continuation is passed along (it already
        // exists — no laziness needed).
        let (tobj, a) = exec::read_call(rt, &self.fr, target, args)?;
        let cont = self.take_cont(rt, node, "forward after continuation consumed")?;
        let caller = Caller::HeapForward { cont };
        call::invoke(rt, img, node, caller, tobj, callee, a)?;
        Ok(self.halt(rt, node))
    }

    fn suspend(&mut self, _: &mut Runtime, _: usize, wait: WaitState) -> Result<StepEnd, Trap> {
        Ok(StepEnd::Suspend(wait))
    }

    fn reply(&mut self, rt: &mut Runtime, node: usize, v: Value) -> Result<StepEnd, Trap> {
        let cont = self.take_cont(rt, node, "reply after continuation consumed")?;
        rt.deliver_cont(node, cont, v)?;
        Ok(self.halt(rt, node))
    }

    fn halt(&mut self, rt: &mut Runtime, node: usize) -> StepEnd {
        rt.finish_ctx(node, self.id);
        StepEnd::Finished
    }

    fn store_cont(&mut self, rt: &mut Runtime, node: usize) -> Result<Continuation, Trap> {
        let cont = self.take_cont(rt, node, "continuation already consumed")?;
        rt.charge(node, rt.cost().cont_create);
        rt.ctr(node).conts_created += 1;
        Ok(cont)
    }
}

impl HeapStep {
    /// The call site of an `Invoke` or collective replying into `slot`.
    fn caller(&mut self, slot: Option<Slot>) -> Caller<'_> {
        let (fr, ctx) = (&mut self.fr, self.id);
        Caller::HeapInvoke { fr, ctx, slot }
    }

    /// Consume the context's continuation, or trap with `twice` if it was.
    fn take_cont(&self, rt: &mut Runtime, node: usize, twice: &str) -> Result<Continuation, Trap> {
        let c = rt.nodes[node].ctxs.get_mut(self.id);
        if c.cont_consumed {
            return Err(Trap::at(self.fr.method, self.fr.pc, twice));
        }
        c.cont_consumed = true;
        Ok(c.cont)
    }
}
