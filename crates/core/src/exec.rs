//! Instruction semantics shared by the sequential and parallel
//! interpreters.
//!
//! The central correctness property of the hybrid model is that the two
//! code versions compute the same results; everything except invocation,
//! synchronization and termination is therefore implemented exactly once
//! here and called from both interpreters.

use crate::cont::Continuation;
use crate::context::{ActFrame, SlotState};
use crate::error::Trap;
use crate::msg::CollKind;
use crate::object::FieldKind;
use crate::rt::{Node, Runtime};
use hem_ir::value::{bin_op, un_op, ValueError};
use hem_ir::{BinOp, FieldId, Instr, MethodId, ObjRef, Operand, Program, Slot, Value};

/// Where control goes after a simple instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Next {
    /// Fall through to `pc + 1`.
    Advance,
    /// Jump to an absolute instruction index.
    Goto(u32),
}

/// Read an operand against a frame.
#[inline]
pub(crate) fn read(fr: &ActFrame, op: &Operand) -> Value {
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
/// `inject_request`, `call_c` — can get it wrong.
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

/// Execute one of the mode-independent instructions. The caller has
/// already charged the base `op` cost; this adds any operation-specific
/// cost (object allocation, join init, continuation sends).
///
/// # Panics
/// On instructions that are mode-specific (`Invoke`, `Touch`, terminators,
/// `StoreCont`) — the interpreters dispatch those before calling here.
pub(crate) fn exec_simple(
    rt: &mut Runtime,
    node: usize,
    fr: &mut ActFrame,
    ins: &Instr,
) -> Result<Next, Trap> {
    let pc = fr.pc;
    let trap_v = |e| Trap::from_value(fr.method, pc, e);
    match ins {
        Instr::Mov { dst, src } => {
            fr.locals[dst.idx()] = read(fr, src);
        }
        Instr::Bin { dst, op, a, b } => {
            let v = bin(*op, read(fr, a), read(fr, b)).map_err(trap_v)?;
            fr.locals[dst.idx()] = v;
        }
        Instr::Un { dst, op, a } => {
            let v = un_op(*op, read(fr, a)).map_err(trap_v)?;
            fr.locals[dst.idx()] = v;
        }
        Instr::SelfRef { dst } => {
            fr.locals[dst.idx()] = Value::Obj(fr.obj);
        }
        Instr::MyNode { dst } => {
            fr.locals[dst.idx()] = Value::Int(node as i64);
        }
        Instr::NodeOf { dst, obj } => {
            let o = read(fr, obj).as_obj().map_err(trap_v)?;
            fr.locals[dst.idx()] = Value::Int(o.node.0 as i64);
        }
        Instr::NewLocal { dst, class } => {
            // Local allocation only; remote placement is harness business.
            rt.charge(node, rt.cost.ctx_alloc);
            let index = rt.nodes[node].new_object(&rt.layouts[class.idx()], *class);
            fr.locals[dst.idx()] = Value::Obj(ObjRef {
                node: hem_machine::NodeId(node as u32),
                index,
            });
        }
        Instr::GetField { dst, field } => {
            let v = match field_kind(rt, fr, *field) {
                FieldKind::Scalar(i) => home(rt, fr, node).scalars(fr.obj.index)[i as usize],
                FieldKind::Array(_) => unreachable!("validated"),
            };
            fr.locals[dst.idx()] = v;
        }
        Instr::SetField { field, src } => store(rt, node, fr, *field, None, read(fr, src))?,
        Instr::GetElem { dst, field, idx } => {
            let i = read(fr, idx).as_int().map_err(trap_v)?;
            let v = match field_kind(rt, fr, *field) {
                FieldKind::Array(a) => {
                    let arr = home(rt, fr, node).array(fr.obj.index, a);
                    *arr.get(i as usize).ok_or_else(|| {
                        Trap::at(
                            fr.method,
                            pc,
                            format!("array index {i} out of range ({})", arr.len()),
                        )
                    })?
                }
                FieldKind::Scalar(_) => unreachable!("validated"),
            };
            fr.locals[dst.idx()] = v;
        }
        Instr::SetElem { field, idx, src } => {
            store(rt, node, fr, *field, Some(idx), read(fr, src))?
        }
        Instr::ArrNew { field, len } => {
            let l = read(fr, len).as_int().map_err(trap_v)?;
            let l = array_len(fr.method, pc, l, home(rt, fr, node).arena.len())?;
            rt.charge(node, rt.cost.ctx_alloc);
            match field_kind(rt, fr, *field) {
                FieldKind::Array(a) => {
                    home_mut(rt, fr, node).arr_new(fr.obj.index, a, l);
                }
                FieldKind::Scalar(_) => unreachable!("validated"),
            }
        }
        Instr::ArrLen { dst, field } => {
            let v = match field_kind(rt, fr, *field) {
                FieldKind::Array(a) => {
                    Value::Int(home(rt, fr, node).array(fr.obj.index, a).len() as i64)
                }
                FieldKind::Scalar(_) => unreachable!("validated"),
            };
            fr.locals[dst.idx()] = v;
        }
        Instr::GetSlot { dst, slot } => {
            let s = &fr.slots[slot.idx()];
            let v = s.value().ok_or_else(|| {
                Trap::at(
                    fr.method,
                    pc,
                    format!("get of unresolved slot {} ({s:?})", slot.0),
                )
            })?;
            fr.locals[dst.idx()] = v;
        }
        Instr::JoinInit { slot, count } => {
            let c = read(fr, count).as_int().map_err(trap_v)?;
            let c = join_count(fr.method, pc, c)?;
            rt.charge(node, rt.cost.join_init);
            fr.slots[slot.idx()] = SlotState::Join(c);
        }
        Instr::SendToCont { cont, value } => {
            let c = read(fr, cont).as_cont().map_err(trap_v)?;
            let v = read(fr, value);
            rt.deliver_cont(node, crate::cont::Continuation::Into(c), v)?;
        }
        Instr::Jmp { to } => return Ok(Next::Goto(*to)),
        Instr::Br { cond, t, f } => {
            let c = read(fr, cond).as_bool().map_err(trap_v)?;
            return Ok(Next::Goto(if c { *t } else { *f }));
        }
        other => unreachable!("exec_simple given mode-specific instruction {other:?}"),
    }
    Ok(Next::Advance)
}

/// Write `v` to `self.field` (scalar) or `self.field[idx]`: the store of
/// `SetField` / `SetElem`, and of `StoreCont` in both interpreters.
#[inline]
fn store(
    rt: &mut Runtime,
    node: usize,
    fr: &ActFrame,
    field: FieldId,
    idx: Option<&Operand>,
    v: Value,
) -> Result<(), Trap> {
    match (field_kind(rt, fr, field), idx) {
        (FieldKind::Scalar(i), None) => {
            home_mut(rt, fr, node).scalars_mut(fr.obj.index)[i as usize] = v;
        }
        (FieldKind::Array(a), Some(idx)) => {
            let i = read(fr, idx)
                .as_int()
                .map_err(|e| Trap::from_value(fr.method, fr.pc, e))?;
            let arr = home_mut(rt, fr, node).array_mut(fr.obj.index, a);
            let len = arr.len();
            *arr.get_mut(i as usize).ok_or_else(|| {
                Trap::at(
                    fr.method,
                    fr.pc,
                    format!("array index {i} out of range ({len})"),
                )
            })? = v;
        }
        _ => unreachable!("validated"),
    }
    Ok(())
}

/// `StoreCont`: put a (by now real) continuation into a field of `self`.
pub(crate) fn store_cont(
    rt: &mut Runtime,
    node: usize,
    fr: &ActFrame,
    field: FieldId,
    idx: Option<&Operand>,
    cont: Continuation,
) -> Result<(), Trap> {
    let Continuation::Into(cr) = cont else {
        return Err(Trap::at(
            fr.method,
            fr.pc,
            "cannot store a root/discard continuation into a data structure",
        ));
    };
    store(rt, node, fr, field, idx, Value::Cont(cr))
}

/// A decoded `Multicast` / `Reduce` / `Barrier`.
pub(crate) struct CollOp {
    pub(crate) kind: CollKind,
    pub(crate) members: Vec<ObjRef>,
    pub(crate) callee: MethodId,
    pub(crate) args: Vec<Value>,
    /// The slot the completion is delivered to (`None`: fire-and-forget).
    pub(crate) slot: Option<Slot>,
}

/// Decode a collective instruction against a frame; the interpreters
/// differ only in the continuation they issue it with.
pub(crate) fn read_collective(
    rt: &Runtime,
    fr: &ActFrame,
    node: usize,
    ins: &Instr,
) -> Result<CollOp, Trap> {
    let (kind, group, callee, args, slot) = match ins {
        Instr::Multicast {
            slot,
            group,
            method,
            args,
        } => {
            let kind = match slot {
                None => CollKind::Cast,
                Some(_) => CollKind::CastAcked,
            };
            (kind, *group, *method, &args[..], *slot)
        }
        Instr::Reduce {
            slot,
            group,
            method,
            args,
            op,
        } => (
            CollKind::Reduce(*op),
            *group,
            *method,
            &args[..],
            Some(*slot),
        ),
        Instr::Barrier { slot, group } => {
            (CollKind::Barrier, *group, MethodId(0), &[][..], Some(*slot))
        }
        other => unreachable!("read_collective given {other:?}"),
    };
    Ok(CollOp {
        kind,
        members: read_group(rt, fr, node, group)?,
        callee,
        args: args.iter().map(|o| read(fr, o)).collect(),
        slot,
    })
}

/// Read a collective group: every element of `self.field` must be an
/// object reference (collectives address objects, and their hosting nodes
/// define the fan-out tree's membership).
fn read_group(
    rt: &Runtime,
    fr: &ActFrame,
    node: usize,
    field: FieldId,
) -> Result<Vec<ObjRef>, Trap> {
    match field_kind(rt, fr, field) {
        FieldKind::Array(a) => home(rt, fr, node)
            .array(fr.obj.index, a)
            .iter()
            .map(|v| {
                v.as_obj()
                    .map_err(|e| Trap::from_value(fr.method, fr.pc, e))
            })
            .collect(),
        FieldKind::Scalar(_) => unreachable!("validated"),
    }
}

#[inline]
fn field_kind(rt: &Runtime, fr: &ActFrame, field: FieldId) -> FieldKind {
    let class = rt.nodes[fr.obj.node.idx()].objects[fr.obj.index as usize].class;
    rt.layouts[class.idx()].kinds[field.idx()]
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
