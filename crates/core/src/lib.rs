//! # hem-core — the hybrid stack/heap execution model
//!
//! This crate is the reproduction of the paper's primary contribution: a
//! runtime in which every method has **two versions** — a sequential one
//! that runs on the ordinary call stack (here: the host Rust stack of the
//! sequential interpreter) and a parallel one that runs as a resumable
//! state machine out of a **heap-allocated context** — and in which the
//! program **adapts at run time to the data layout** by speculatively
//! executing sequentially and falling back to parallel execution when an
//! invocation would block.
//!
//! The pieces map onto the paper as follows:
//!
//! | Paper | Module |
//! |---|---|
//! | §3.1 parallel invocations, multi-future touch (Fig. 4) | [`par`] |
//! | §3.2 sequential schemas NB / MB / CP (Figs. 5–7) | [`seq`] |
//! | §3.2.2 lazy context allocation + stack unwinding (Fig. 6) | [`seq`], [`context`] |
//! | §3.2.3 lazy continuation creation, forwarding on the stack (Fig. 7) | [`seq`], [`cont`] |
//! | §3.3 wrapper functions & proxy contexts (Fig. 8) | [`wrapper`] |
//! | heap contexts with embedded futures | [`context`] |
//! | implicit per-object locks | [`object`] |
//! | active messages: the one send path, reliable transport, modeled collectives | [`msg`]; `transport.rs`, `coll.rs` (private) |
//! | the machine itself (nodes, clocks, interconnect) | [`rt`] on top of `hem-machine` |
//! | the dispatch loop and its executable specification | [`sched`], [`explore`] |
//!
//! The runtime executes `hem-ir` programs under a [`SchemaMap`] produced by
//! `hem-analysis`, in one of two [`ExecMode`]s: `ParallelOnly` (the paper's
//! baseline: every invocation gets a heap context) or `Hybrid` (the paper's
//! contribution). [`cref`] runs the same instruction loop a third way, as
//! the "equivalent C program" of Table 3's baseline column, priced on a
//! side counter.
//!
//! ## Quick start
//!
//! ```
//! use hem_core::{Runtime, ExecMode};
//! use hem_analysis::InterfaceSet;
//! use hem_ir::{ProgramBuilder, BinOp, Value};
//! use hem_machine::cost::CostModel;
//!
//! // fib in the fine-grained concurrent IR.
//! let mut pb = ProgramBuilder::new();
//! let math = pb.class("Math", false);
//! let fib = pb.declare(math, "fib", 1);
//! pb.define(fib, |mb| {
//!     let n = mb.arg(0);
//!     let small = mb.binl(BinOp::Lt, n, 2);
//!     mb.if_else(small, |mb| mb.reply(n), |mb| {
//!         let me = mb.self_ref();
//!         let a = mb.binl(BinOp::Sub, n, 1);
//!         let b = mb.binl(BinOp::Sub, n, 2);
//!         let s1 = mb.invoke_local(me, fib, &[a.into()]);
//!         let s2 = mb.invoke_local(me, fib, &[b.into()]);
//!         mb.touch(&[s1, s2]);
//!         let x = mb.get_slot(s1);
//!         let y = mb.get_slot(s2);
//!         let r = mb.binl(BinOp::Add, x, y);
//!         mb.reply(r);
//!     });
//! });
//! let program = pb.finish();
//!
//! let mut rt = Runtime::new(program, 1, CostModel::cm5(), ExecMode::Hybrid,
//!                           InterfaceSet::Full).unwrap();
//! let obj = rt.alloc_object_by_name("Math", hem_machine::NodeId(0));
//! let result = rt.call(obj, rt.find_method("Math", "fib").unwrap(),
//!                      &[Value::Int(10)]).unwrap();
//! assert_eq!(result, Some(Value::Int(55)));
//! ```

#![warn(missing_docs)]

mod call;
mod coll;
pub mod cont;
pub mod context;
pub mod cref;
pub mod error;
pub mod exec;
pub mod explore;
#[cfg(test)]
mod fixture;
pub mod msg;
pub mod object;
pub mod par;
pub mod rt;
pub mod sanitize;
pub mod sched;
pub mod seq;
pub mod shard;
pub mod timewarp;
pub mod trace;
mod transport;
pub mod wrapper;

pub use cont::{CallerInfo, Continuation};
pub use context::{ActFrame, Context, SlotState, WaitState};
pub use error::Trap;
pub use explore::{Explorer, Mutant, TieBreak, TieChoice};
pub use msg::CollKind;
pub use object::Object;
pub use rt::{NodeObjectState, Runtime, MAX_NODES};
pub use sanitize::Sanitizer;
pub use sched::SchedImpl;
pub use timewarp::SpecStats;
pub use trace::{MsgCause, Observer, Trace, TraceEvent, TraceRecord};

pub use hem_analysis::{InterfaceSet, Schema, SchemaMap};

/// How the runtime executes invocations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// The paper's baseline: the conservative general case — every
    /// invocation allocates a heap context and passes arguments and return
    /// values through the heap (§3.1).
    ParallelOnly,
    /// The paper's contribution: speculatively execute the sequential
    /// version on the stack, falling back to the heap when an invocation
    /// would block (§3.2–3.3). Which sequential interfaces exist is decided
    /// by the [`InterfaceSet`] given to [`Runtime::new`].
    Hybrid,
}

impl std::fmt::Display for ExecMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecMode::ParallelOnly => write!(f, "parallel-only"),
            ExecMode::Hybrid => write!(f, "hybrid"),
        }
    }
}
