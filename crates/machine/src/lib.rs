//! # hem-machine — simulated distributed-memory multicomputer substrate
//!
//! The SC'95 hybrid-execution-model paper evaluates on a TMC CM-5 and a Cray
//! T3D. Neither machine exists anymore, so this crate provides the
//! substitution: a *deterministic* discrete-event model of a distributed
//! memory multicomputer. Each node has a local virtual clock measured in
//! *cost units* (abstract instructions, calibrated so a plain C call costs 5
//! units, matching the paper's SPARC accounting), and nodes exchange
//! messages through an interconnect with per-message overhead, latency and
//! per-word cost.
//!
//! The crate knows nothing about the execution model itself — it supplies:
//!
//! * [`cost::CostModel`] — the price list for every runtime micro-operation,
//!   with presets for the paper's two machines ([`cost::CostModel::cm5`],
//!   [`cost::CostModel::t3d`]) plus pure-counting and `seq-opt` variants,
//! * [`net::Network`] — an in-flight message queue with deterministic
//!   delivery order,
//! * [`fault::FaultPlan`] — seeded, deterministic fault injection (loss,
//!   duplication, jitter, partitions, stalls) applied inside the network,
//! * [`stats::MachineStats`] / [`stats::Counters`] — the instrumentation the
//!   paper's tables are derived from (heap contexts allocated, fallbacks,
//!   stack invocations, messages, …),
//! * [`topology`] — processor grids and the data-layout helpers used by the
//!   evaluation kernels (block-cyclic maps, orthogonal recursive bisection),
//! * [`arrival`] — seeded open-system arrival processes (Poisson / bursty /
//!   diurnal client streams, a pure function of `(seed, client, k)`), built
//!   on the host-independent float kernels in [`fmath`].
//!
//! Determinism is load-bearing: every experiment in the paper reproduction
//! is a pure function of (program, layout, cost model, seed), which is what
//! makes the property-based tests in `hem-core` possible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrival;
pub mod cost;
pub mod fault;
pub mod fmath;
pub mod net;
pub mod stats;
pub mod topology;

/// Identifier of a node (processor) in the simulated machine.
///
/// Nodes are numbered densely from zero; `NodeId` is `Copy` and ordered so
/// that it can participate in deterministic tie-breaking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Convenience accessor returning the node index as a `usize`.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Virtual time, in cost units (abstract instructions ≈ cycles).
pub type Cycles = u64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_orders_and_displays() {
        assert!(NodeId(1) < NodeId(2));
        assert_eq!(NodeId(7).idx(), 7);
        assert_eq!(format!("{}", NodeId(3)), "n3");
    }
}
