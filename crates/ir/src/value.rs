//! Runtime values and the shared arithmetic semantics.
//!
//! Both interpreters (the stack-based sequential one and the heap-based
//! parallel one in `hem-core`) must compute identical results — that is the
//! central correctness property of the hybrid model. To make that true by
//! construction, all value semantics (coercion, arithmetic, comparison)
//! live here and are used by both.

use hem_machine::NodeId;

/// A location-independent object reference: `(node, index)` names object
/// `index` on `node`'s local heap. References are first-class values —
/// storing one does not move or copy the object (shared global name space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjRef {
    /// Node owning the object.
    pub node: NodeId,
    /// Index into that node's object table.
    pub index: u32,
}

/// A materialized continuation: the right to determine the future stored at
/// `slot` of context `ctx` on `node`. The generation field guards against
/// stale continuations outliving a recycled context (a runtime invariant,
/// checked on every reply).
///
/// Packed to 2-byte alignment: its 14 bytes of fields would pad to 16 at
/// 4-byte alignment and push [`Value`]'s tag into a third word. At 2 the
/// tag fits in front of it and a `Value` is two words. Fields are read by
/// copy (`c.ctx`); taking `&c.ctx` is a compile error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(C, packed(2))]
pub struct ContRef {
    /// Node owning the target context.
    pub node: NodeId,
    /// Context index on that node.
    pub ctx: u32,
    /// Context generation at materialization time.
    pub gen: u32,
    /// Future slot within the context.
    pub slot: u16,
}

/// A dynamically-typed value. Small and `Copy`; aggregate data lives in
/// object fields, never inside a `Value`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// The absent value (uninitialized fields, fire-and-forget replies).
    Nil,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// Object reference.
    Obj(ObjRef),
    /// First-class continuation.
    Cont(ContRef),
}

// Every register, field, future slot and message argument is a `Value`:
// a regrown payload must be a decision, not an accident.
const _: () = assert!(std::mem::size_of::<Value>() == 16);

/// Type errors raised by value operations. The interpreters convert these
/// into traps carrying source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValueError {
    /// Operand had the wrong type for the operation.
    Type {
        /// Which operation failed.
        op: &'static str,
        /// The offending value's type name.
        got: &'static str,
    },
    /// Integer division or modulo by zero.
    DivByZero,
}

impl Value {
    /// Type name, for diagnostics.
    pub fn type_name(self) -> &'static str {
        match self {
            Value::Nil => "nil",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Bool(_) => "bool",
            Value::Obj(_) => "obj",
            Value::Cont(_) => "cont",
        }
    }

    /// Extract an integer.
    pub fn as_int(self) -> Result<i64, ValueError> {
        match self {
            Value::Int(i) => Ok(i),
            v => Err(ValueError::Type {
                op: "as_int",
                got: v.type_name(),
            }),
        }
    }

    /// Extract a float, coercing integers.
    pub fn as_float(self) -> Result<f64, ValueError> {
        match self {
            Value::Float(f) => Ok(f),
            Value::Int(i) => Ok(i as f64),
            v => Err(ValueError::Type {
                op: "as_float",
                got: v.type_name(),
            }),
        }
    }

    /// Extract a boolean.
    pub fn as_bool(self) -> Result<bool, ValueError> {
        match self {
            Value::Bool(b) => Ok(b),
            v => Err(ValueError::Type {
                op: "as_bool",
                got: v.type_name(),
            }),
        }
    }

    /// Extract an object reference.
    pub fn as_obj(self) -> Result<ObjRef, ValueError> {
        match self {
            Value::Obj(o) => Ok(o),
            v => Err(ValueError::Type {
                op: "as_obj",
                got: v.type_name(),
            }),
        }
    }

    /// Extract a continuation reference.
    pub fn as_cont(self) -> Result<ContRef, ValueError> {
        match self {
            Value::Cont(c) => Ok(c),
            v => Err(ValueError::Type {
                op: "as_cont",
                got: v.type_name(),
            }),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}
impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<ObjRef> for Value {
    fn from(o: ObjRef) -> Self {
        Value::Obj(o)
    }
}

/// Evaluate a binary operation with Int/Float numeric coercion.
///
/// `Int op Int → Int`; if either side is a float the operation is performed
/// in floats. Comparisons yield `Bool`. `Eq`/`Ne` compare any two values
/// structurally.
pub fn bin_op(op: crate::instr::BinOp, a: Value, b: Value) -> Result<Value, ValueError> {
    use crate::instr::BinOp::*;
    match op {
        Eq => return Ok(Value::Bool(a == b)),
        Ne => return Ok(Value::Bool(a != b)),
        And => return Ok(Value::Bool(a.as_bool()? && b.as_bool()?)),
        Or => return Ok(Value::Bool(a.as_bool()? || b.as_bool()?)),
        BitAnd => return Ok(Value::Int(a.as_int()? & b.as_int()?)),
        BitOr => return Ok(Value::Int(a.as_int()? | b.as_int()?)),
        BitXor => return Ok(Value::Int(a.as_int()? ^ b.as_int()?)),
        Shl => return Ok(Value::Int(a.as_int()?.wrapping_shl(b.as_int()? as u32))),
        Shr => {
            return Ok(Value::Int(
                ((a.as_int()? as u64) >> (b.as_int()? as u32 & 63)) as i64,
            ))
        }
        _ => {}
    }
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Ok(match op {
            Add => Value::Int(x.wrapping_add(y)),
            Sub => Value::Int(x.wrapping_sub(y)),
            Mul => Value::Int(x.wrapping_mul(y)),
            Div => {
                if y == 0 {
                    return Err(ValueError::DivByZero);
                }
                Value::Int(x.wrapping_div(y))
            }
            Rem => {
                if y == 0 {
                    return Err(ValueError::DivByZero);
                }
                Value::Int(x.wrapping_rem(y))
            }
            Min => Value::Int(x.min(y)),
            Max => Value::Int(x.max(y)),
            Lt => Value::Bool(x < y),
            Le => Value::Bool(x <= y),
            Gt => Value::Bool(x > y),
            Ge => Value::Bool(x >= y),
            Eq | Ne | And | Or | BitAnd | BitOr | BitXor | Shl | Shr => unreachable!(),
        }),
        _ => {
            let x = a.as_float()?;
            let y = b.as_float()?;
            Ok(match op {
                Add => Value::Float(x + y),
                Sub => Value::Float(x - y),
                Mul => Value::Float(x * y),
                Div => Value::Float(x / y),
                Rem => Value::Float(x % y),
                Min => Value::Float(x.min(y)),
                Max => Value::Float(x.max(y)),
                Lt => Value::Bool(x < y),
                Le => Value::Bool(x <= y),
                Gt => Value::Bool(x > y),
                Ge => Value::Bool(x >= y),
                Eq | Ne | And | Or | BitAnd | BitOr | BitXor | Shl | Shr => unreachable!(),
            })
        }
    }
}

/// Evaluate a unary operation.
pub fn un_op(op: crate::instr::UnOp, a: Value) -> Result<Value, ValueError> {
    use crate::instr::UnOp::*;
    Ok(match op {
        Neg => match a {
            Value::Int(i) => Value::Int(i.wrapping_neg()),
            Value::Float(f) => Value::Float(-f),
            v => {
                return Err(ValueError::Type {
                    op: "neg",
                    got: v.type_name(),
                })
            }
        },
        Not => Value::Bool(!a.as_bool()?),
        IsNil => Value::Bool(matches!(a, Value::Nil)),
        ToFloat => Value::Float(a.as_float()?),
        ToInt => match a {
            Value::Int(i) => Value::Int(i),
            Value::Float(f) => Value::Int(f as i64),
            v => {
                return Err(ValueError::Type {
                    op: "to_int",
                    got: v.type_name(),
                })
            }
        },
        Sqrt => Value::Float(a.as_float()?.sqrt()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{BinOp, UnOp};

    #[test]
    fn int_arithmetic() {
        assert_eq!(bin_op(BinOp::Add, 2.into(), 3.into()), Ok(Value::Int(5)));
        assert_eq!(
            bin_op(BinOp::Mul, 4.into(), (-2).into()),
            Ok(Value::Int(-8))
        );
        assert_eq!(bin_op(BinOp::Div, 7.into(), 2.into()), Ok(Value::Int(3)));
        assert_eq!(bin_op(BinOp::Rem, 7.into(), 2.into()), Ok(Value::Int(1)));
        assert_eq!(
            bin_op(BinOp::Div, 1.into(), 0.into()),
            Err(ValueError::DivByZero)
        );
    }

    #[test]
    fn float_coercion() {
        assert_eq!(
            bin_op(BinOp::Add, Value::Int(1), Value::Float(0.5)),
            Ok(Value::Float(1.5))
        );
        assert_eq!(
            bin_op(BinOp::Lt, Value::Float(1.0), Value::Int(2)),
            Ok(Value::Bool(true))
        );
    }

    #[test]
    fn comparisons_and_logic() {
        assert_eq!(bin_op(BinOp::Le, 2.into(), 2.into()), Ok(Value::Bool(true)));
        assert_eq!(
            bin_op(BinOp::Eq, Value::Nil, Value::Nil),
            Ok(Value::Bool(true))
        );
        assert_eq!(
            bin_op(BinOp::Ne, Value::Bool(true), Value::Int(1)),
            Ok(Value::Bool(true))
        );
        assert_eq!(
            bin_op(BinOp::And, true.into(), false.into()),
            Ok(Value::Bool(false))
        );
        assert!(bin_op(BinOp::And, 1.into(), 2.into()).is_err());
    }

    #[test]
    fn min_max() {
        assert_eq!(bin_op(BinOp::Min, 2.into(), 3.into()), Ok(Value::Int(2)));
        assert_eq!(
            bin_op(BinOp::Max, Value::Float(2.0), Value::Int(3)),
            Ok(Value::Float(3.0))
        );
    }

    #[test]
    fn unary_ops() {
        assert_eq!(un_op(UnOp::Neg, 5.into()), Ok(Value::Int(-5)));
        assert_eq!(un_op(UnOp::Not, false.into()), Ok(Value::Bool(true)));
        assert_eq!(un_op(UnOp::IsNil, Value::Nil), Ok(Value::Bool(true)));
        assert_eq!(un_op(UnOp::IsNil, 0.into()), Ok(Value::Bool(false)));
        assert_eq!(un_op(UnOp::ToFloat, 2.into()), Ok(Value::Float(2.0)));
        assert_eq!(un_op(UnOp::ToInt, Value::Float(2.9)), Ok(Value::Int(2)));
        assert_eq!(un_op(UnOp::Sqrt, Value::Float(9.0)), Ok(Value::Float(3.0)));
    }

    #[test]
    fn accessors_report_types() {
        assert_eq!(Value::Nil.type_name(), "nil");
        assert!(Value::Int(1).as_bool().is_err());
        assert!(Value::Bool(true).as_int().is_err());
        let o = ObjRef {
            node: NodeId(1),
            index: 2,
        };
        assert_eq!(Value::Obj(o).as_obj(), Ok(o));
        let c = ContRef {
            node: NodeId(0),
            ctx: 1,
            gen: 0,
            slot: 2,
        };
        assert_eq!(Value::Cont(c).as_cont(), Ok(c));
    }

    /// The packed `ContRef` is still the plain `(node, ctx, gen, slot)`
    /// record: it round-trips through `Value` at every field's extremes,
    /// its derived order, equality and hash are the tuple's, and its
    /// `Debug` (which goldens print) reads as before.
    #[test]
    fn packed_cont_ref_is_the_field_tuple() {
        use std::cmp::Ordering;
        use std::hash::{BuildHasher, RandomState};
        let (w, h) = ([0, 1, u32::MAX - 1, u32::MAX], [0, 1, u16::MAX]);
        let mut all = Vec::new();
        for node in w {
            for ctx in w {
                for gen in w {
                    for slot in h {
                        all.push(ContRef {
                            node: NodeId(node),
                            ctx,
                            gen,
                            slot,
                        });
                    }
                }
            }
        }
        let tuple = |c: ContRef| (c.node, c.ctx, c.gen, c.slot);
        let hasher = RandomState::new();
        for &a in &all {
            assert_eq!(Value::Cont(a).as_cont(), Ok(a));
            assert_eq!(hasher.hash_one(a), hasher.hash_one(tuple(a)));
            for &b in &all {
                let ord: Ordering = a.cmp(&b);
                assert_eq!(ord, tuple(a).cmp(&tuple(b)));
                assert_eq!(a.partial_cmp(&b), Some(ord));
                assert_eq!(a == b, tuple(a) == tuple(b));
            }
        }
        let c = ContRef {
            node: NodeId(3),
            ctx: u32::MAX,
            gen: 7,
            slot: u16::MAX,
        };
        assert_eq!(
            format!("{:?}", Value::Cont(c)),
            "Cont(ContRef { node: NodeId(3), ctx: 4294967295, gen: 7, slot: 65535 })"
        );
    }
}
