//! # hem-ir — a fine-grained concurrent object-oriented IR
//!
//! The Concert system compiled ICC++ / Concurrent Aggregates programs to C.
//! This crate is the reproduction's stand-in for those source languages: a
//! small register-machine IR with exactly the features the paper's execution
//! model exists to support:
//!
//! * **methods as threads** — every [`Instr::Invoke`] is conceptually a new
//!   thread of control whose result is an *implicit future* in a caller
//!   [`Slot`];
//! * **implicit synchronization** — [`Instr::Touch`] lazily synchronizes on
//!   a *set* of futures at once (paper Fig. 4), and [`Instr::JoinInit`]
//!   expresses data-parallel loops joining on a counter;
//! * **location independence** — an [`ObjRef`] names an object anywhere in
//!   the machine; whether an invocation is local or remote is discovered at
//!   run time (this is what the hybrid model adapts to);
//! * **implicit locking** — dictated by class definitions
//!   ([`Class::locked`]);
//! * **first-class continuations** — a method may [`Instr::Forward`] its
//!   (implicit, possibly not-yet-created) continuation to another call,
//!   store it into a data structure ([`Instr::StoreCont`]), and reply
//!   through a stored continuation ([`Instr::SendToCont`]) — the features
//!   that force the paper's continuation-passing schema.
//!
//! Field access is deliberately restricted to `self` (the *owner computes*
//! rule): all cross-object data flow goes through method invocation, which
//! is the thing the execution model optimizes.
//!
//! Programs are constructed with [`build::ProgramBuilder`] and checked by
//! [`Program::validate`] before execution.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod build;
pub mod fmt;
pub mod instr;
pub mod program;
pub mod text;
pub mod value;

pub use build::{MethodBuilder, ProgramBuilder};
pub use instr::{BinOp, Instr, LocalityHint, Operand, UnOp};
pub use program::{Class, FieldDecl, Method, Program, ValidationError};
pub use value::{ContRef, ObjRef, Value, ValueError};

/// Identifies a class within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassId(pub u32);

/// Identifies a method within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MethodId(pub u32);

/// Index of a field within its class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FieldId(pub u16);

/// A method-local register. Registers `0..params` hold the arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Local(pub u16);

/// A future slot within a method activation.
///
/// Futures live *inside* the activation frame (one of the paper's explicit
/// design points versus StackThreads, which allocates futures separately and
/// pays an extra memory reference per touch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Slot(pub u16);

impl ClassId {
    /// Index into the program's class table.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}
impl MethodId {
    /// Index into the program's method table.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}
impl FieldId {
    /// Index into the class's field list.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}
impl Local {
    /// Register index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}
impl Slot {
    /// Slot index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_indices() {
        assert_eq!(ClassId(3).idx(), 3);
        assert_eq!(MethodId(4).idx(), 4);
        assert_eq!(FieldId(5).idx(), 5);
        assert_eq!(Local(6).idx(), 6);
        assert_eq!(Slot(7).idx(), 7);
    }
}
