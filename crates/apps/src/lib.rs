//! # hem-apps — the paper's evaluation applications
//!
//! Every workload of the SC'95 evaluation, written against the `hem-ir`
//! builder and executed by the `hem-core` hybrid runtime:
//!
//! * [`callintensive`] — the function-call intensive sequential benchmarks
//!   of Table 3 (fib, tak, nqueens, qsort) plus native-Rust references;
//! * [`sor`] — successive over-relaxation on a block-cyclically
//!   distributed grid (Table 4, Fig. 9);
//! * [`md`] — the MD-Force nonbonded force kernel with remote-coordinate
//!   caching and force combining, random vs. orthogonal-recursive-bisection
//!   layouts (Table 5);
//! * [`em3d`] — the EM3D electromagnetic propagation kernel in its three
//!   communication styles, *pull*, *push* and *forward* (Table 6);
//! * [`sync`] — the synchronization structures of Fig. 3 (RPC,
//!   data-parallel, reactive, custom barrier);
//! * [`service`] — an open-system front-end/back-end request mix driven
//!   by seeded arrivals through `Runtime::run_until`, with driver-side
//!   admission control;
//! * [`layout`] — automatic data placement (the paper's stated future
//!   work): a greedy edge-locality graph partitioner plus the ORB
//!   re-export, with an EM3D auto-layout driver.
//!
//! Each module exposes a `build()` that assembles the IR program (with the
//! id handles a harness needs), a `setup()` that places the object graph
//! for a given layout, a `run()` driver, and a native reference
//! implementation for validating results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callintensive;
pub mod em3d;
pub mod layout;
pub mod md;
pub mod service;
pub mod sor;
pub mod sync;

use hem_analysis::InterfaceSet;
use hem_core::{ExecMode, Runtime};
use hem_ir::Program;
use hem_machine::cost::CostModel;

/// Convenience: build a runtime the way every harness does.
///
/// # Panics
/// If the program fails validation (a harness bug, not a runtime
/// condition).
pub fn make_runtime(
    program: Program,
    nodes: u32,
    cost: CostModel,
    mode: ExecMode,
    interfaces: InterfaceSet,
) -> Runtime {
    match Runtime::new(program, nodes, cost, mode, interfaces) {
        Ok(rt) => rt,
        Err(errs) => {
            let msgs: Vec<String> = errs.iter().map(|e| e.to_string()).collect();
            panic!("kernel program failed validation:\n{}", msgs.join("\n"));
        }
    }
}
