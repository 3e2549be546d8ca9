//! The one instruction loop: the only definition of what an instruction
//! does.
//!
//! The central correctness property of the hybrid model is that the two
//! code versions compute the same results: they differ in how they call,
//! synchronize and terminate, not in what a plain instruction does (paper
//! §1). `run` is therefore the only loop over a method body. One `match`
//! holds every instruction; the mode-independent ones are written there
//! once, and the rest — and every price — ask the `Activation` being
//! stepped: a stack frame (`seq.rs`), a heap context (`par.rs`), or the
//! "equivalent C program" of Table 3 (`cref.rs`). Each is a monomorphised
//! copy of `run`, so an instruction costs one dispatch.

use crate::cont::Continuation;
use crate::context::{ActFrame, SlotState, WaitState};
use crate::error::Trap;
use crate::msg::CollKind;
use crate::object::FieldKind;
use crate::rt::{Image, Node, Runtime};
use hem_ir::value::{bin_op, un_op, ValueError};
use hem_ir::{BinOp, ClassId, FieldId, Instr, MethodId, ObjRef, Operand, Program, Slot, Value};

/// A charge [`run`] makes, priced by the activation.
#[derive(Clone, Copy)]
pub(crate) enum Price {
    /// Every instruction.
    Op,
    /// An object or array allocation (`NewLocal`, `ArrNew`).
    CtxAlloc,
    /// `JoinInit`.
    JoinInit,
    /// A `Touch` of `slots` futures; `miss`: one of them was unresolved.
    Touch { slots: usize, miss: bool },
}

/// What a code version contributes to [`run`] (paper §3): what it pays,
/// how it calls, what a touch that must wait does, how it ends and what
/// becomes of its continuation — `seq::SeqState` as a stack frame,
/// `par::HeapStep` as a heap context, `cref::CFrame` as the C baseline.
pub(crate) trait Activation {
    /// How the activation ends.
    type End;
    /// The frame being stepped.
    fn fr(&mut self) -> &mut ActFrame;

    /// Pay `price`. The interpreters charge the node clock and count
    /// touches; the C baseline keeps a side counter.
    #[inline(always)]
    fn charge(&mut self, rt: &mut Runtime, img: &Image, node: usize, price: Price) {
        let cycles = match price {
            Price::Op => img.cost.op,
            Price::CtxAlloc => img.cost.ctx_alloc,
            Price::JoinInit => img.cost.join_init,
            Price::Touch { slots, miss } => {
                let c = rt.ctr(node);
                c.touches += 1;
                c.touch_misses += miss as u64;
                img.cost.future_touch * slots as u64
            }
        };
        rt.charge(node, cycles);
    }

    /// Before each instruction: apply what arrived for the frame meanwhile.
    fn sync(&mut self, _rt: &mut Runtime) -> Result<(), Trap> {
        Ok(())
    }

    /// `Invoke` of `callee` on the target with the arguments [`read_call`]
    /// decoded, replying into `slot`. `Some(end)`: the call ended the
    /// activation (a stack frame unwinds). The interpreters inline it, and
    /// not `collective`: one method for both inlined the call protocol at
    /// all four call sites, doubling `run_seq`'s code and its unoptimized
    /// frame.
    fn invoke(
        &mut self,
        rt: &mut Runtime,
        img: &Image,
        node: usize,
        slot: Option<Slot>,
        callee: MethodId,
        call: (ObjRef, Vec<Value>),
    ) -> Result<Option<Self::End>, Trap>;

    /// A `Multicast` / `Reduce` / `Barrier` replying into `slot`; as `invoke`.
    fn collective(
        &mut self,
        rt: &mut Runtime,
        img: &Image,
        node: usize,
        slot: Option<Slot>,
        op: CollOp,
    ) -> Result<Option<Self::End>, Trap>;

    /// `Forward`: pass the activation's continuation on, which ends it.
    fn forward(
        &mut self,
        rt: &mut Runtime,
        img: &Image,
        node: usize,
        target: &Operand,
        callee: MethodId,
        args: &[Operand],
    ) -> Result<Self::End, Trap>;

    /// A `Touch` that must wait.
    fn suspend(&mut self, rt: &mut Runtime, node: usize, on: WaitState) -> Result<Self::End, Trap>;

    /// `Reply v`.
    fn reply(&mut self, rt: &mut Runtime, node: usize, v: Value) -> Result<Self::End, Trap>;
    /// `Halt`.
    fn halt(&mut self, rt: &mut Runtime, node: usize) -> Self::End;

    /// `StoreCont`: the activation's continuation, consumed to be stored.
    fn store_cont(&mut self, rt: &mut Runtime, node: usize) -> Result<Continuation, Trap>;

    /// `SendToCont`: deliver `value` to the continuation `cont`.
    fn send_to_cont(
        &mut self,
        rt: &mut Runtime,
        node: usize,
        cont: &Operand,
        value: &Operand,
    ) -> Result<(), Trap> {
        let fr = self.fr();
        let c = read(fr, cont).as_cont();
        let c = c.map_err(|e| Trap::from_value(fr.method, fr.pc, e))?;
        rt.deliver_cont(node, Continuation::Into(c), read(fr, value))
    }
}

/// Step `act` from its frame's pc until it ends. Every instruction pays
/// the base `op` price first; the arms add what is specific to them
/// (object allocation, join init, touches) and leave calls and their
/// prices to the activation. Inlined into `run_seq`, `dispatch` and the C
/// baseline on purpose: out of line, `hemprof fib` reads 6 % slower.
#[inline(always)]
pub(crate) fn run<A: Activation>(
    rt: &mut Runtime,
    img: &Image,
    node: usize,
    act: &mut A,
) -> Result<A::End, Trap> {
    let m = img.program.method(act.fr().method);
    loop {
        act.sync(rt)?;
        let (method, pc) = (act.fr().method, act.fr().pc);
        let Some(ins) = m.body.get(pc as usize) else {
            return Err(Trap::at(method, pc, "pc past end of body"));
        };
        act.charge(rt, img, node, Price::Op);
        let fr = act.fr();
        let trap_v = |e| Trap::from_value(method, pc, e);
        match ins {
            Instr::Mov { dst, src } => fr.locals[dst.idx()] = read(fr, src),
            // Written as matches so the value goes straight to its register.
            Instr::Bin { dst, op, a, b } => match bin(*op, read(fr, a), read(fr, b)) {
                Ok(v) => fr.locals[dst.idx()] = v,
                Err(e) => return Err(trap_v(e)),
            },
            Instr::Un { dst, op, a } => match un_op(*op, read(fr, a)) {
                Ok(v) => fr.locals[dst.idx()] = v,
                Err(e) => return Err(trap_v(e)),
            },
            Instr::SelfRef { dst } => fr.locals[dst.idx()] = Value::Obj(fr.obj),
            Instr::MyNode { dst } => fr.locals[dst.idx()] = Value::Int(node as i64),
            Instr::NodeOf { dst, obj } => {
                let o = read(fr, obj).as_obj().map_err(trap_v)?;
                fr.locals[dst.idx()] = Value::Int(o.node.0 as i64);
            }
            Instr::NewLocal { dst, class } => {
                // Local allocation only; remote placement is harness business.
                act.charge(rt, img, node, Price::CtxAlloc);
                let index = rt.nodes[node].new_object(&img.layouts[class.idx()], *class);
                let node = hem_machine::NodeId(node as u32);
                act.fr().locals[dst.idx()] = Value::Obj(ObjRef { node, index });
            }
            Instr::GetField { dst, field } => {
                let i = field_index(rt, img, method, pc, fr.obj, *field, false)?;
                fr.locals[dst.idx()] = home(rt, fr, node).scalars(fr.obj.index)[i as usize];
            }
            Instr::SetField { field, src } => {
                store(rt, img, node, fr, *field, None, read(fr, src))?
            }
            Instr::GetElem { dst, field, idx } => {
                let i = read(fr, idx).as_int().map_err(trap_v)?;
                let a = field_index(rt, img, method, pc, fr.obj, *field, true)?;
                let arr = home(rt, fr, node).array(fr.obj.index, a);
                fr.locals[dst.idx()] = arr[elem_index(method, pc, i, arr.len())?];
            }
            Instr::SetElem { field, idx, src } => {
                store(rt, img, node, fr, *field, Some(idx), read(fr, src))?
            }
            Instr::ArrNew { field, len } => {
                let l = read(fr, len).as_int().map_err(trap_v)?;
                let l = array_len(method, pc, l, home(rt, fr, node).arena.len())?;
                let a = field_index(rt, img, method, pc, fr.obj, *field, true)?;
                home_mut(rt, fr, node).arr_new(fr.obj.index, a, l);
                act.charge(rt, img, node, Price::CtxAlloc);
            }
            Instr::ArrLen { dst, field } => {
                let a = field_index(rt, img, method, pc, fr.obj, *field, true)?;
                let len = home(rt, fr, node).array(fr.obj.index, a).len();
                fr.locals[dst.idx()] = Value::Int(len as i64);
            }
            Instr::GetSlot { dst, slot } => match fr.slots[slot.idx()].value() {
                Some(v) => fr.locals[dst.idx()] = v,
                None => return Err(unresolved(method, pc, &fr.slots, *slot)),
            },
            Instr::JoinInit { slot, count } => {
                let c = read(fr, count).as_int().map_err(trap_v)?;
                fr.slots[slot.idx()] = SlotState::Join(join_count(method, pc, c)?);
                act.charge(rt, img, node, Price::JoinInit);
            }
            Instr::SendToCont { cont, value } => act.send_to_cont(rt, node, cont, value)?,
            Instr::Jmp { to } => {
                fr.pc = *to;
                continue;
            }
            Instr::Br { cond, t, f } => {
                let c = read(fr, cond).as_bool().map_err(trap_v)?;
                fr.pc = if c { *t } else { *f };
                continue;
            }
            Instr::Invoke {
                slot,
                target,
                method: callee,
                args,
                hint: _,
            } => {
                let call = read_call(rt, fr, target, args)?;
                if let Some(end) = act.invoke(rt, img, node, *slot, *callee, call)? {
                    return Ok(end);
                }
            }
            Instr::Forward {
                target,
                method: callee,
                args,
                hint: _,
            } => return act.forward(rt, img, node, target, *callee, args),
            Instr::Touch { slots } => {
                let unresolved = slots.iter().filter(|s| !fr.slots[s.idx()].satisfied());
                let mask = unresolved.fold(0u64, |mask, s| mask | 1 << s.0);
                let (slots, miss) = (slots.len(), mask != 0);
                act.charge(rt, img, node, Price::Touch { slots, miss });
                if miss {
                    let missing = mask.count_ones() as u16;
                    return act.suspend(rt, node, WaitState::Waiting { mask, missing });
                }
            }
            Instr::Multicast {
                slot,
                group,
                method: callee,
                args,
            } => {
                let kind = match slot {
                    None => CollKind::Cast,
                    Some(_) => CollKind::CastAcked,
                };
                let op = CollOp::read(rt, fr, node, kind, *group, *callee, args)?;
                if let Some(end) = act.collective(rt, img, node, *slot, op)? {
                    return Ok(end);
                }
            }
            Instr::Reduce {
                slot,
                group,
                method: callee,
                args,
                op,
            } => {
                let kind = CollKind::Reduce(*op);
                let op = CollOp::read(rt, fr, node, kind, *group, *callee, args)?;
                if let Some(end) = act.collective(rt, img, node, Some(*slot), op)? {
                    return Ok(end);
                }
            }
            Instr::Barrier { slot, group } => {
                let op = CollOp::read(rt, fr, node, CollKind::Barrier, *group, MethodId(0), &[])?;
                if let Some(end) = act.collective(rt, img, node, Some(*slot), op)? {
                    return Ok(end);
                }
            }
            Instr::Reply { src } => {
                let v = read(fr, src);
                return act.reply(rt, node, v);
            }
            Instr::Halt => return Ok(act.halt(rt, node)),
            Instr::StoreCont { field, idx } => {
                let Continuation::Into(c) = act.store_cont(rt, node)? else {
                    let what = "cannot store a root/discard continuation into a data structure";
                    return Err(Trap::at(method, pc, what));
                };
                let v = Value::Cont(c);
                store(rt, img, node, act.fr(), *field, idx.as_ref(), v)?
            }
        }
        act.fr().pc = pc + 1;
    }
}

/// Run the activation `act` makes of a fresh frame for `method` on `obj`
/// as a plain call, one level deeper on the frame store: the frame is built
/// in that level's vectors and parked there again on return, and `args`,
/// evaluated into the caller's level, is parked back there. A stack frame
/// and the C baseline enter every activation here.
#[inline(always)]
pub(crate) fn run_nested<A: Activation>(
    rt: &mut Runtime,
    img: &Image,
    node: usize,
    obj: ObjRef,
    method: MethodId,
    args: Vec<Value>,
    act: impl FnOnce(ActFrame) -> A,
) -> Result<A::End, Trap> {
    let m = img.program.method(method);
    let depth = rt.seq_depth;
    rt.seq_depth = depth + 1;
    let fr = rt
        .frames
        .frame(depth + 1, method, obj, m.locals, m.slots, &args);
    rt.frames.park_args(depth, args);
    let mut act = act(fr);
    let r = run(rt, img, node, &mut act);
    rt.frames.park_frame(depth + 1, act.fr());
    rt.seq_depth = depth;
    r
}

/// Read an operand against a frame.
#[inline]
fn read(fr: &ActFrame, op: &Operand) -> Value {
    match op {
        Operand::L(l) => fr.locals[l.idx()],
        Operand::K(v) => *v,
    }
}

/// Evaluate the operands of an `Invoke` / `Forward`: the target must be an
/// object reference. The arguments go into the vector parked at the
/// caller's depth in the frame store, which the callee parks again.
#[inline]
pub(crate) fn read_call(
    rt: &mut Runtime,
    fr: &ActFrame,
    target: &Operand,
    args: &[Operand],
) -> Result<(ObjRef, Vec<Value>), Trap> {
    let tobj = read(fr, target)
        .as_obj()
        .map_err(|e| Trap::from_value(fr.method, fr.pc, e))?;
    let mut a = rt.frames.take_args(rt.seq_depth);
    a.extend(args.iter().map(|o| read(fr, o)));
    Ok((tobj, a))
}

/// A binary operation: the integer and float arithmetic and comparisons
/// a kernel's inner loop runs — `Add`, `Sub`, `Mul`, `Lt`, `Le`, `Gt`,
/// `Ge` on two ints or two floats — inline, everything else through
/// [`bin_op`], the one definition of value semantics, which this equals
/// on every input (the `fast_bin_matches_bin_op` property). Both
/// interpreters and the C baseline evaluate `Bin` here.
#[inline(always)]
pub(crate) fn bin(op: BinOp, a: Value, b: Value) -> Result<Value, ValueError> {
    use BinOp::{Add, Ge, Gt, Le, Lt, Mul, Sub};
    Ok(match (op, a, b) {
        (Add, Value::Int(x), Value::Int(y)) => Value::Int(x.wrapping_add(y)),
        (Sub, Value::Int(x), Value::Int(y)) => Value::Int(x.wrapping_sub(y)),
        (Mul, Value::Int(x), Value::Int(y)) => Value::Int(x.wrapping_mul(y)),
        (Lt, Value::Int(x), Value::Int(y)) => Value::Bool(x < y),
        (Le, Value::Int(x), Value::Int(y)) => Value::Bool(x <= y),
        (Gt, Value::Int(x), Value::Int(y)) => Value::Bool(x > y),
        (Ge, Value::Int(x), Value::Int(y)) => Value::Bool(x >= y),
        (Add, Value::Float(x), Value::Float(y)) => Value::Float(x + y),
        (Sub, Value::Float(x), Value::Float(y)) => Value::Float(x - y),
        (Mul, Value::Float(x), Value::Float(y)) => Value::Float(x * y),
        (Lt, Value::Float(x), Value::Float(y)) => Value::Bool(x < y),
        (Le, Value::Float(x), Value::Float(y)) => Value::Bool(x <= y),
        (Gt, Value::Float(x), Value::Float(y)) => Value::Bool(x > y),
        (Ge, Value::Float(x), Value::Float(y)) => Value::Bool(x >= y),
        _ => return bin_op(op, a, b),
    })
}

/// Check a root invocation's argument count against the method's
/// parameters (shared with the C baseline). The IR validator checks every
/// call site; only an invocation from outside the program — `call`,
/// `inject_request`, `call_c_baseline` — can get it wrong.
pub(crate) fn arity(prog: &Program, method: MethodId, got: usize) -> Result<(), Trap> {
    let m = prog.method(method);
    if got == m.params as usize {
        return Ok(());
    }
    let class = &prog.class(m.class).name;
    let s = if m.params == 1 { "" } else { "s" };
    Err(Trap::new(format!(
        "{class}::{} takes {} argument{s}, got {got}",
        m.name, m.params
    )))
}

/// Check an `ArrNew` length operand (shared with the C baseline, so all
/// three evaluators trap alike). `arena` is the hosting node's
/// [`crate::object::Arena::len`]: spans index it with `u32`, so a length
/// whose bump allocation would push it past 2³² values is rejected here,
/// before the allocator is asked (a re-creation at an unchanged length is
/// done in place and would not allocate; it is held to the same limit).
/// An allocation below that limit that the host cannot satisfy still
/// aborts in the allocator — that stays with the no-panic-inputs item of
/// the roadmap.
pub(crate) fn array_len(method: MethodId, pc: u32, len: i64, arena: usize) -> Result<usize, Trap> {
    let l = usize::try_from(len)
        .map_err(|_| Trap::at(method, pc, format!("negative array length {len}")))?;
    match arena.checked_add(l) {
        Some(total) if total <= u32::MAX as usize => Ok(l),
        _ => Err(Trap::at(
            method,
            pc,
            format!("oversized array length {len} (node arena holds {arena} of 2^32 values)"),
        )),
    }
}

/// Check a `JoinInit` count operand: it must fit the slot's 32-bit join
/// counter — a silently truncated 2³² would be an already-complete join.
pub(crate) fn join_count(method: MethodId, pc: u32, count: i64) -> Result<u32, Trap> {
    u32::try_from(count).map_err(|_| {
        let what = if count < 0 { "negative" } else { "oversized" };
        Trap::at(method, pc, format!("{what} join count {count}"))
    })
}

/// Check an element index against an array's length (shared with the C baseline).
#[inline]
pub(crate) fn elem_index(method: MethodId, pc: u32, i: i64, len: usize) -> Result<usize, Trap> {
    if (i as usize) < len {
        return Ok(i as usize);
    }
    Err(out_of_range(method, pc, i, len))
}

#[cold]
fn out_of_range(method: MethodId, pc: u32, i: i64, len: usize) -> Trap {
    Trap::at(method, pc, format!("array index {i} out of range ({len})"))
}

/// The trap of a `GetSlot` of an unresolved slot (shared with the C baseline).
#[cold]
pub(crate) fn unresolved(method: MethodId, pc: u32, slots: &[SlotState], slot: Slot) -> Trap {
    let s = &slots[slot.idx()];
    let what = format!("get of unresolved slot {} ({s:?})", slot.0);
    Trap::at(method, pc, what)
}

/// Where `field` of the receiver `obj` is stored: its index among the
/// receiver's scalar (for an `array` access, array) fields. The IR does not
/// type receivers, so a method can run on an object of another class; all
/// three evaluators trap alike here, at no load the lookup did not make.
#[inline]
pub(crate) fn field_index(
    rt: &Runtime,
    img: &Image,
    method: MethodId,
    pc: u32,
    obj: ObjRef,
    field: FieldId,
    array: bool,
) -> Result<u16, Trap> {
    let class = rt.nodes[obj.node.idx()].objects[obj.index as usize].class;
    match (img.layouts[class.idx()].kinds.get(field.idx()), array) {
        (Some(FieldKind::Scalar(i)), false) | (Some(FieldKind::Array(i)), true) => Ok(*i),
        _ => Err(wrong_field(&img.program, method, pc, class, field)),
    }
}

/// The trap of a field access that does not fit the receiver's class,
/// naming the field as the method's class declares it and the receiver's.
#[cold]
fn wrong_field(prog: &Program, method: MethodId, pc: u32, class: ClassId, field: FieldId) -> Trap {
    let (own, recv) = (prog.class(prog.method(method).class), prog.class(class));
    let (o, r) = (&own.name, &recv.name);
    let name = own.fields.get(field.idx()).map_or("?", |f| &f.name);
    let why = match recv.fields.get(field.idx()) {
        None => format!("{r} has no field #{}", field.0),
        Some(f) if f.array => format!("{r}::{} is an array", f.name),
        Some(f) => format!("{r}::{} is a scalar", f.name),
    };
    Trap::at(
        method,
        pc,
        format!("field {o}::{name} on a receiver of class {r}: {why}"),
    )
}

/// Write `v` to `self.field` (scalar) or `self.field[idx]`: the store of
/// `SetField` / `SetElem` / `StoreCont`.
#[inline]
fn store(
    rt: &mut Runtime,
    img: &Image,
    node: usize,
    fr: &ActFrame,
    field: FieldId,
    idx: Option<&Operand>,
    v: Value,
) -> Result<(), Trap> {
    let (method, pc) = (fr.method, fr.pc);
    let f = field_index(rt, img, method, pc, fr.obj, field, idx.is_some())?;
    let home = home_mut(rt, fr, node);
    match idx {
        None => home.scalars_mut(fr.obj.index)[f as usize] = v,
        Some(idx) => {
            let i = read(fr, idx)
                .as_int()
                .map_err(|e| Trap::from_value(method, pc, e))?;
            let arr = home.array_mut(fr.obj.index, f);
            arr[elem_index(method, pc, i, arr.len())?] = v;
        }
    }
    Ok(())
}

/// A decoded `Multicast` / `Reduce` / `Barrier`.
pub(crate) struct CollOp {
    pub(crate) kind: CollKind,
    pub(crate) members: Vec<ObjRef>,
    pub(crate) callee: MethodId,
    pub(crate) args: Vec<Value>,
}

impl CollOp {
    /// Decode a collective against a frame. Every element of the group
    /// field must be an object reference: collectives address objects, and
    /// their hosting nodes define the fan-out tree's membership.
    fn read(
        rt: &Runtime,
        fr: &ActFrame,
        node: usize,
        kind: CollKind,
        group: FieldId,
        callee: MethodId,
        args: &[Operand],
    ) -> Result<CollOp, Trap> {
        let (method, pc) = (fr.method, fr.pc);
        let a = field_index(rt, &rt.img, method, pc, fr.obj, group, true)?;
        let members = home(rt, fr, node).array(fr.obj.index, a).iter();
        let members = members.map(|v| v.as_obj().map_err(|e| Trap::from_value(method, pc, e)));
        Ok(CollOp {
            kind,
            members: members.collect::<Result<_, _>>()?,
            callee,
            args: args.iter().map(|o| read(fr, o)).collect(),
        })
    }
}

/// The executing node, which hosts the frame's receiver.
#[inline]
fn home<'a>(rt: &'a Runtime, fr: &ActFrame, node: usize) -> &'a Node {
    debug_assert_eq!(fr.obj.node.idx(), node, "owner-computes violated");
    &rt.nodes[node]
}

#[inline]
fn home_mut<'a>(rt: &'a mut Runtime, fr: &ActFrame, node: usize) -> &'a mut Node {
    debug_assert_eq!(fr.obj.node.idx(), node, "owner-computes violated");
    &mut rt.nodes[node]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const OPS: [BinOp; 20] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Rem,
        BinOp::Min,
        BinOp::Max,
        BinOp::Eq,
        BinOp::Ne,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
        BinOp::And,
        BinOp::Or,
        BinOp::BitAnd,
        BinOp::BitOr,
        BinOp::BitXor,
        BinOp::Shl,
        BinOp::Shr,
    ];

    /// An operand of kind `kind` drawn with `bits`: ints and floats from
    /// their edge cases or at random, bools and nil.
    fn operand(kind: u8, bits: u64) -> Value {
        const INTS: [i64; 5] = [i64::MIN, i64::MAX, 0, -1, 1];
        const FLOATS: [f64; 6] = [f64::NAN, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, 1.5];
        match kind {
            0 => Value::Int(INTS[(bits % 5) as usize]),
            1 => Value::Int(bits as i64 % 1000),
            2 => Value::Int(bits as i64),
            3 => Value::Float(FLOATS[(bits % 6) as usize]),
            4 => Value::Float((bits % 2000) as f64 / 8.0 - 125.0),
            5 => Value::Float(f64::from_bits(bits)),
            6 => Value::Bool(bits & 1 == 1),
            _ => Value::Nil,
        }
    }

    /// Results compared with floats by bit pattern (NaN equals NaN, and
    /// -0.0 differs from 0.0).
    fn by_bits(r: Result<Value, ValueError>) -> Result<(u8, u64), ValueError> {
        r.map(|v| match v {
            Value::Int(i) => (1, i as u64),
            Value::Float(f) => (2, f.to_bits()),
            Value::Bool(b) => (3, b as u64),
            Value::Nil => (4, 0),
            other => unreachable!("bin of scalars produced {other:?}"),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]
        #[test]
        fn fast_bin_matches_bin_op(
            op in 0usize..OPS.len(),
            ka in 0u8..8,
            a in any::<u64>(),
            kb in 0u8..8,
            b in any::<u64>(),
        ) {
            let (op, a, b) = (OPS[op], operand(ka, a), operand(kb, b));
            prop_assert_eq!(by_bits(bin(op, a, b)), by_bits(bin_op(op, a, b)), "{:?} {:?} {:?}", op, a, b);
        }
    }

    #[test]
    fn fast_bin_covers_every_edge_pair() {
        // Exhaustive over the edge cases the property draws from at random.
        let edges: Vec<Value> = (0..8u8)
            .flat_map(|k| (0..6u64).map(move |i| operand(k, i)))
            .collect();
        for op in OPS {
            for &a in &edges {
                for &b in &edges {
                    assert_eq!(
                        by_bits(bin(op, a, b)),
                        by_bits(bin_op(op, a, b)),
                        "{op:?} {a:?} {b:?}"
                    );
                }
            }
        }
    }
}
