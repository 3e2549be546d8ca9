//! # hem-analysis — interprocedural schema selection
//!
//! The Concert compiler performs a global flow analysis that conservatively
//! determines the *blocking* and *continuation* requirements of every
//! method, and uses the result to pick the cheapest sequential invocation
//! schema (paper §3.2):
//!
//! * **Non-blocking** — provable that the method and all of its descendant
//!   calls cannot block ⇒ a straight C call;
//! * **May-block** — blocking cannot be ruled out, but the callee never
//!   manipulates its continuation ⇒ lazy context allocation;
//! * **Continuation-passing** — the callee may require the continuation of
//!   a future in the caller's (as yet uncreated) context ⇒ lazy context
//!   *and* continuation creation.
//!
//! Because only one sequential version of each method is generated, the
//! classification fixes the calling convention at every call site.
//!
//! This crate reproduces that analysis over the `hem-ir` program
//! representation: [`callgraph`] builds the static call graph,
//! [`flow`] runs the may-block fixpoint and the syntactic
//! requires-continuation check, and [`schema`] folds both into a
//! [`SchemaMap`], optionally restricted to a subset of the interface
//! hierarchy (Table 3's "1 interface" / "2 interfaces" / "3 interfaces"
//! configurations).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod flow;
pub mod inline;
pub mod schema;

pub use callgraph::CallGraph;
pub use flow::FlowFacts;
pub use inline::{mark_inlinable, InlinePolicy};
pub use schema::{InterfaceSet, Schema, SchemaMap};

use hem_ir::Program;

/// The complete analysis result for a program.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Static call graph.
    pub callgraph: CallGraph,
    /// May-block and requires-continuation facts.
    pub facts: FlowFacts,
}

impl Analysis {
    /// Analyze a validated program.
    pub fn analyze(program: &Program) -> Self {
        let callgraph = CallGraph::build(program);
        let facts = FlowFacts::compute(program, &callgraph);
        Analysis { callgraph, facts }
    }

    /// Select sequential invocation schemas under the given interface set.
    pub fn schemas(&self, interfaces: InterfaceSet) -> SchemaMap {
        SchemaMap::select(&self.facts, interfaces)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hem_ir::{BinOp, ProgramBuilder};

    #[test]
    fn end_to_end_fib_is_nonblocking() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("Math", false);
        let fib = pb.declare(c, "fib", 1);
        pb.define(fib, |mb| {
            let n = mb.arg(0);
            let small = mb.binl(BinOp::Lt, n, 2);
            mb.if_else(
                small,
                |mb| mb.reply(n),
                |mb| {
                    let me = mb.self_ref();
                    let n1 = mb.binl(BinOp::Sub, n, 1);
                    let s1 = mb.invoke_local(me, fib, &[n1.into()]);
                    let v = mb.touch_get(s1);
                    mb.reply(v);
                },
            );
        });
        let p = pb.finish();
        let a = Analysis::analyze(&p);
        let schemas = a.schemas(InterfaceSet::Full);
        assert_eq!(schemas.of(fib), Schema::NonBlocking);
    }
}
