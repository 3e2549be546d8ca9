//! The "equivalent C program" baseline (Table 3's last column).
//!
//! The paper compares the hybrid model's sequential performance against
//! the same algorithms written in plain C. The analogue here is a direct
//! recursive evaluator over the same IR that prices only what C would pay:
//! one `op` unit per instruction and one `plain_call` per invocation —
//! no locality or concurrency checks, no futures, no contexts, no locks.
//! Touch is free (every call completed synchronously), forwarding is a
//! tail call. Cycles are accumulated separately and do **not** advance the
//! simulated node clocks, so a baseline run can share a `Runtime` (and its
//! object graph) with instrumented runs.
//!
//! Continuation manipulation (`StoreCont`) has no C equivalent and traps.

use crate::context::SlotState;
use crate::error::Trap;
use crate::exec::{arity, array_len, bin, elem_index, field_index, join_count, unresolved};
use crate::rt::Runtime;
use hem_ir::value::{bin_op, un_op};
use hem_ir::{FieldId, Instr, MethodId, ObjRef, Operand, Program, Value};
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
    let mut cycles = 0u64;
    let v = eval(rt, &prog, &mut cycles, obj, method, args.to_vec(), 0)?;
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

fn eval(
    rt: &mut Runtime,
    prog: &Program,
    cycles: &mut Cycles,
    obj: ObjRef,
    method: MethodId,
    args: Vec<Value>,
    depth: u32,
) -> Result<Option<Value>, Trap> {
    if depth > 200_000 {
        return Err(Trap::new("C-baseline recursion too deep"));
    }
    let m = prog.method(method);
    let mut locals = vec![Value::Nil; m.locals as usize];
    locals[..args.len()].copy_from_slice(&args);
    let mut slots = vec![SlotState::Empty; m.slots as usize];
    let mut pc = 0usize;

    let read = |locals: &[Value], op: &Operand| -> Value {
        match op {
            Operand::L(l) => locals[l.idx()],
            Operand::K(v) => *v,
        }
    };

    loop {
        let ins = m
            .body
            .get(pc)
            .ok_or_else(|| Trap::at(method, pc as u32, "pc past end of body"))?;
        *cycles += rt.cost.op;
        let tv = |e| Trap::from_value(method, pc as u32, e);
        match ins {
            Instr::Mov { dst, src } => locals[dst.idx()] = read(&locals, src),
            Instr::Bin { dst, op, a, b } => {
                locals[dst.idx()] = bin(*op, read(&locals, a), read(&locals, b)).map_err(tv)?;
            }
            Instr::Un { dst, op, a } => {
                locals[dst.idx()] = un_op(*op, read(&locals, a)).map_err(tv)?;
            }
            Instr::SelfRef { dst } => locals[dst.idx()] = Value::Obj(obj),
            Instr::MyNode { dst } => locals[dst.idx()] = Value::Int(obj.node.0 as i64),
            Instr::NodeOf { dst, obj: o } => {
                let r = read(&locals, o).as_obj().map_err(tv)?;
                locals[dst.idx()] = Value::Int(r.node.0 as i64);
            }
            Instr::NewLocal { dst, class } => {
                *cycles += rt.cost.ctx_alloc;
                let index = rt.nodes[obj.node.idx()].new_object(&rt.layouts[class.idx()], *class);
                locals[dst.idx()] = Value::Obj(ObjRef {
                    node: obj.node,
                    index,
                });
            }
            Instr::GetField { dst, field } => {
                let f = field_index(rt, method, pc as u32, obj, *field, false)?;
                locals[dst.idx()] = rt.nodes[obj.node.idx()].scalars(obj.index)[f as usize];
            }
            Instr::SetField { field, src } => {
                let f = field_index(rt, method, pc as u32, obj, *field, false)?;
                rt.nodes[obj.node.idx()].scalars_mut(obj.index)[f as usize] = read(&locals, src);
            }
            Instr::GetElem { dst, field, idx } => {
                let i = read(&locals, idx).as_int().map_err(tv)?;
                let f = field_index(rt, method, pc as u32, obj, *field, true)?;
                let arr = rt.nodes[obj.node.idx()].array(obj.index, f);
                locals[dst.idx()] = arr[elem_index(method, pc as u32, i, arr.len())?];
            }
            Instr::SetElem { field, idx, src } => {
                let f = field_index(rt, method, pc as u32, obj, *field, true)?;
                let i = read(&locals, idx).as_int().map_err(tv)?;
                let arr = rt.nodes[obj.node.idx()].array_mut(obj.index, f);
                arr[elem_index(method, pc as u32, i, arr.len())?] = read(&locals, src);
            }
            Instr::ArrNew { field, len } => {
                let l = read(&locals, len).as_int().map_err(tv)?;
                let arena = rt.nodes[obj.node.idx()].arena.len();
                let l = array_len(method, pc as u32, l, arena)?;
                let f = field_index(rt, method, pc as u32, obj, *field, true)?;
                *cycles += rt.cost.ctx_alloc;
                rt.nodes[obj.node.idx()].arr_new(obj.index, f, l);
            }
            Instr::ArrLen { dst, field } => {
                let f = field_index(rt, method, pc as u32, obj, *field, true)?;
                let len = rt.nodes[obj.node.idx()].array(obj.index, f).len();
                locals[dst.idx()] = Value::Int(len as i64);
            }
            Instr::Invoke {
                slot,
                target,
                method: callee,
                args,
                hint: _,
            } => {
                *cycles += rt.cost.plain_call;
                let t = rt.resolve_ref(read(&locals, target).as_obj().map_err(tv)?);
                let a: Vec<Value> = args.iter().map(|o| read(&locals, o)).collect();
                let v = eval(rt, prog, cycles, t, *callee, a, depth + 1)?;
                if let Some(s) = slot {
                    match &mut slots[s.idx()] {
                        SlotState::Join(k) if *k > 0 => *k -= 1,
                        st => *st = SlotState::Full(v.unwrap_or(Value::Nil)),
                    }
                }
            }
            Instr::Forward {
                target,
                method: callee,
                args,
                hint: _,
            } => {
                *cycles += rt.cost.plain_call;
                let t = rt.resolve_ref(read(&locals, target).as_obj().map_err(tv)?);
                let a: Vec<Value> = args.iter().map(|o| read(&locals, o)).collect();
                return eval(rt, prog, cycles, t, *callee, a, depth + 1);
            }
            Instr::Touch { slots: ss } => {
                for s in ss {
                    if !slots[s.idx()].satisfied() {
                        return Err(Trap::at(
                            method,
                            pc as u32,
                            "C baseline touched an unresolved future (program is not synchronous)",
                        ));
                    }
                }
            }
            Instr::GetSlot { dst, slot } => {
                locals[dst.idx()] = slots[slot.idx()]
                    .value()
                    .ok_or_else(|| unresolved(method, pc as u32, &slots, *slot))?;
            }
            Instr::JoinInit { slot, count } => {
                let c = read(&locals, count).as_int().map_err(tv)?;
                slots[slot.idx()] = SlotState::Join(join_count(method, pc as u32, c)?);
            }
            Instr::Multicast {
                slot,
                group,
                method: callee,
                args,
            } => {
                // The C equivalent of a multicast is a plain for-loop of
                // calls; the interconnect's fan-out tree has no analogue.
                let a: Vec<Value> = args.iter().map(|o| read(&locals, o)).collect();
                for mref in group_refs(rt, method, pc as u32, obj, *group)? {
                    *cycles += rt.cost.plain_call;
                    let t = rt.resolve_ref(mref);
                    eval(rt, prog, cycles, t, *callee, a.clone(), depth + 1)?;
                }
                if let Some(s) = slot {
                    fill_slot(&mut slots, *s, Value::Nil);
                }
            }
            Instr::Reduce {
                slot,
                group,
                method: callee,
                args,
                op,
            } => {
                let a: Vec<Value> = args.iter().map(|o| read(&locals, o)).collect();
                let mut acc: Option<Value> = None;
                for mref in group_refs(rt, method, pc as u32, obj, *group)? {
                    *cycles += rt.cost.plain_call;
                    let t = rt.resolve_ref(mref);
                    let v = eval(rt, prog, cycles, t, *callee, a.clone(), depth + 1)?
                        .unwrap_or(Value::Nil);
                    acc = Some(match acc {
                        None => v,
                        Some(prev) => {
                            *cycles += rt.cost.op;
                            bin_op(*op, prev, v).map_err(tv)?
                        }
                    });
                }
                fill_slot(&mut slots, *slot, acc.unwrap_or(Value::Nil));
            }
            Instr::Barrier { slot, .. } => {
                // Synchronous execution is already barrier-ordered.
                fill_slot(&mut slots, *slot, Value::Nil);
            }
            Instr::Reply { src } => return Ok(Some(read(&locals, src))),
            Instr::Halt => return Ok(None),
            Instr::StoreCont { .. } | Instr::SendToCont { .. } => {
                return Err(Trap::at(
                    method,
                    pc as u32,
                    "continuation manipulation has no C equivalent",
                ));
            }
            Instr::Jmp { to } => {
                pc = *to as usize;
                continue;
            }
            Instr::Br { cond, t, f } => {
                let c = read(&locals, cond).as_bool().map_err(tv)?;
                pc = if c { *t as usize } else { *f as usize };
                continue;
            }
        }
        pc += 1;
    }
}

fn fill_slot(slots: &mut [SlotState], s: hem_ir::Slot, v: Value) {
    match &mut slots[s.idx()] {
        SlotState::Join(k) if *k > 0 => *k -= 1,
        st => *st = SlotState::Full(v),
    }
}

fn group_refs(
    rt: &Runtime,
    m: MethodId,
    pc: u32,
    obj: ObjRef,
    field: FieldId,
) -> Result<Vec<ObjRef>, Trap> {
    let a = field_index(rt, m, pc, obj, field, true)?;
    rt.nodes[obj.node.idx()]
        .array(obj.index, a)
        .iter()
        .map(|v| {
            v.as_obj()
                .map_err(|_| Trap::new("collective group member is not an object"))
        })
        .collect()
}
