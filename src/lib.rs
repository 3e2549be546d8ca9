//! # hem — a hybrid execution model for fine-grained languages
//!
//! Umbrella crate for the reproduction of *"A Hybrid Execution Model for
//! Fine-Grained Languages on Distributed Memory Multicomputers"*
//! (Plevyak, Karamcheti, Zhang & Chien, Supercomputing 1995). It
//! re-exports the whole workspace:
//!
//! * [`machine`] — the simulated multicomputer substrate (cost models for
//!   CM-5/T3D-flavoured machines, deterministic interconnect, counters,
//!   layout topologies);
//! * [`ir`] — the fine-grained concurrent object-oriented IR and builder;
//! * [`analysis`] — call-graph + may-block/requires-continuation analyses
//!   and invocation-schema selection;
//! * [`core`] — the hybrid runtime itself (sequential NB/MB/CP schemas
//!   with lazy contexts and continuations, the heap-context parallel
//!   version, wrappers and proxy contexts);
//! * [`apps`] — the paper's evaluation kernels (fib/tak/nqueens/qsort,
//!   SOR, MD-Force, EM3D, the Fig. 3 synchronization structures);
//! * [`obs`] — the observability layer (trace rollups, Perfetto timeline
//!   export, critical-path analysis; driven by the `hemprof` binary in
//!   `hem-bench`).
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory, and
//! `EXPERIMENTS.md` for the paper-vs-measured record. The binaries in
//! `hem-bench` regenerate every table and figure of the paper's
//! evaluation section.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hem_analysis as analysis;
pub use hem_apps as apps;
pub use hem_core as core;
pub use hem_ir as ir;
pub use hem_machine as machine;
pub use hem_obs as obs;

pub use hem_analysis::{InterfaceSet, Schema};
pub use hem_core::{ExecMode, Runtime, SchedImpl, Trap};
pub use hem_ir::{ProgramBuilder, Value};
pub use hem_machine::cost::CostModel;
pub use hem_machine::NodeId;
