//! The "equivalent C program" of Table 3: a third activation that
//! `exec::run` steps, so an instruction does what it does in the
//! interpreters and only price and calls differ. It pays what C pays — `op`
//! per instruction, `ctx_alloc` per allocation, `plain_call` per call — into
//! a side counter; no node clock or counter moves. A call recurses into `run`
//! a frame-store level deeper, under the interpreters' `max_seq_depth`; a
//! collective is a for-loop of calls. Calls are synchronous: a touch that
//! would wait traps, as does continuation manipulation.

use crate::cont::Continuation;
use crate::context::{ActFrame, SlotState, WaitState};
use crate::error::Trap;
use crate::exec::{self, arity, Activation, CollOp, Price};
use crate::msg::CollKind;
use crate::rt::Runtime;
use crate::seq::depth_limit;
use hem_ir::value::bin_op;
use hem_ir::{MethodId, ObjRef, Operand, Program, Slot, Value};
use hem_machine::Cycles;

/// Run `method` on `obj` as the C baseline. Returns the reply (if the
/// method replied) and the cycle count charged.
pub fn call_c(
    rt: &mut Runtime,
    obj: ObjRef,
    method: MethodId,
    args: &[Value],
) -> Result<(Option<Value>, Cycles), Trap> {
    let prog = rt.program.clone();
    arity(&prog, method, args.len())?;
    let mut cycles = 0;
    let v = CFrame::run(rt, &prog, &mut cycles, method, (obj, args.to_vec()))?;
    Ok((v, cycles))
}

impl Runtime {
    /// See [`call_c`].
    pub fn call_c_baseline(
        &mut self,
        obj: ObjRef,
        method: MethodId,
        args: &[Value],
    ) -> Result<(Option<Value>, Cycles), Trap> {
        call_c(self, obj, method, args)
    }
}

/// A C activation: its frame, and the counter its price goes to.
struct CFrame<'a> {
    fr: ActFrame,
    cycles: &'a mut Cycles,
}

impl CFrame<'_> {
    /// Run `method` on `obj`, wherever it lives, with `a` to its end: a
    /// plain call one level deeper on the frame store (`exec::run_nested`).
    fn run(
        rt: &mut Runtime,
        prog: &Program,
        cycles: &mut Cycles,
        method: MethodId,
        (obj, a): (ObjRef, Vec<Value>),
    ) -> Result<Option<Value>, Trap> {
        if rt.seq_depth >= rt.max_seq_depth {
            return Err(depth_limit(rt));
        }
        let obj = rt.resolve_ref(obj);
        let node = obj.node.idx();
        exec::run_nested(rt, prog, node, obj, method, a, |fr| CFrame { fr, cycles })
    }

    /// A call's reply into `slot` (a join counts down); the frame goes on.
    fn fill(&mut self, slot: Option<Slot>, v: Option<Value>) -> Option<Option<Value>> {
        match slot.map(|s| &mut self.fr.slots[s.idx()]) {
            Some(SlotState::Join(k)) if *k > 0 => *k -= 1,
            Some(s) => *s = SlotState::Full(v.unwrap_or(Value::Nil)),
            None => {}
        }
        None
    }
}

impl Activation for CFrame<'_> {
    type End = Option<Value>;

    fn fr(&mut self) -> &mut ActFrame {
        &mut self.fr
    }

    fn charge(&mut self, rt: &mut Runtime, _: usize, price: Price) {
        *self.cycles += match price {
            Price::Op => rt.cost.op,
            Price::CtxAlloc => rt.cost.ctx_alloc,
            Price::JoinInit | Price::Touch { .. } => 0,
        };
    }

    fn invoke(
        &mut self,
        rt: &mut Runtime,
        prog: &Program,
        _: usize,
        slot: Option<Slot>,
        callee: MethodId,
        call: (ObjRef, Vec<Value>),
    ) -> Result<Option<Self::End>, Trap> {
        *self.cycles += rt.cost.plain_call;
        let v = CFrame::run(rt, prog, self.cycles, callee, call)?;
        Ok(self.fill(slot, v))
    }

    fn collective(
        &mut self,
        rt: &mut Runtime,
        prog: &Program,
        _: usize,
        slot: Option<Slot>,
        op: CollOp,
    ) -> Result<Option<Self::End>, Trap> {
        let (method, pc) = (self.fr.method, self.fr.pc);
        let mut acc = None;
        // No fan-out tree; a barrier calls nothing (calls are synchronous).
        for &member in op.members.iter().filter(|_| op.kind != CollKind::Barrier) {
            *self.cycles += rt.cost.plain_call;
            let v = CFrame::run(rt, prog, self.cycles, op.callee, (member, op.args.clone()))?;
            let v = v.unwrap_or(Value::Nil);
            acc = Some(match (op.kind, acc) {
                (CollKind::Reduce(f), Some(prev)) => {
                    *self.cycles += rt.cost.op;
                    bin_op(f, prev, v).map_err(|e| Trap::from_value(method, pc, e))?
                }
                _ => v,
            });
        }
        Ok(self.fill(slot, acc.filter(|_| matches!(op.kind, CollKind::Reduce(_)))))
    }

    fn forward(
        &mut self,
        rt: &mut Runtime,
        prog: &Program,
        _: usize,
        target: &Operand,
        callee: MethodId,
        args: &[Operand],
    ) -> Result<Option<Value>, Trap> {
        let call = exec::read_call(rt, &self.fr, target, args)?;
        *self.cycles += rt.cost.plain_call;
        CFrame::run(rt, prog, self.cycles, callee, call)
    }

    fn suspend(&mut self, _: &mut Runtime, _: usize, _: WaitState) -> Result<Option<Value>, Trap> {
        Err(Trap::at(self.fr.method, self.fr.pc, NOT_SYNC))
    }

    fn reply(&mut self, _: &mut Runtime, _: usize, v: Value) -> Result<Option<Value>, Trap> {
        Ok(Some(v))
    }

    fn halt(&mut self, _: &mut Runtime, _: usize) -> Option<Value> {
        None
    }

    fn store_cont(&mut self, _: &mut Runtime, _: usize) -> Result<Continuation, Trap> {
        Err(Trap::at(self.fr.method, self.fr.pc, NO_CONT))
    }

    fn send_to_cont(
        &mut self,
        _: &mut Runtime,
        _: usize,
        _: &Operand,
        _: &Operand,
    ) -> Result<(), Trap> {
        Err(Trap::at(self.fr.method, self.fr.pc, NO_CONT))
    }
}

const NOT_SYNC: &str = "C baseline touched an unresolved future (program is not synchronous)";
const NO_CONT: &str = "continuation manipulation has no C equivalent";
